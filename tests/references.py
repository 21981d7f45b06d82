"""Reference implementations the tests compare the library against.

Each one computes a quantity the library computes some faster way, in
the plainest form that states its contract; no verb, script or
benchmark runs them.
"""

import numpy as np

from spikelab.harness import (
    MemoryBoundedAlgorithm,
    QuantizedIteration,
    _check_state,
    _StateHandoffProtocol,
)
from spikelab.tensors import contract_batch


def levels(q, values):
    """The levels ``q.encode`` codes ``values`` by, from the codec
    contract: clamp to ``[-radius, radius]``, round ``(value + radius) /
    step`` half to even, cap the level at ``2^bits - 1``."""
    clamped = np.minimum(np.maximum(values, -q.radius), q.radius)
    return np.minimum(np.rint((clamped + q.radius) / q.step), 2.0**q.bits - 1.0)


def snap(q, values):
    """``q.decode(q.encode(values))`` on the lattice."""
    return levels(q, values) * q.step - q.radius


def snap_loop(q, start, steps):
    """``start = snap(q, start + row)`` for each row of ``steps``."""
    for row in steps:
        start = snap(q, start + row)
    return start


def snap_sum(q, start, steps):
    """The value ``q._snap_block``'s levels at the last row stand for, as
    an array; it must equal ``snap_loop`` bit for bit (``start`` itself
    for no rows)."""
    start = np.asarray(start, dtype=np.float64)
    steps = np.asarray(steps, dtype=np.float64)
    if len(steps) == 0:
        return start
    return q._snap_block(start, steps)[-1] * q.step - q.radius


class RowByRowIteration(QuantizedIteration):
    """``QuantizedIteration`` that re-encodes its partial sum after every
    row: the base class's ``update_chunks`` runs one ``update`` per row,
    the reference the chunked update must equal bit for bit."""

    update_chunks = MemoryBoundedAlgorithm.update_chunks

    def update(self, state, t, i, x):
        q, d = self.quantizer, self.d
        if t == 0 and i == 0:
            state = self.start_code
        values = q.decode(state, 2 * d)
        w = contract_batch(x[None, :], d, self.psi(values[:d]))[0]
        partial_bits = q.encode(values[d:] + w / self.n_samples)
        if i == self.n_samples - 1:
            # Pass boundary: the accumulated sum becomes the iterate and
            # the partial sum resets to the code for zero.
            head, tail = partial_bits, self.reset_code
        else:
            head, tail = state[: self.state_bits // 2], partial_bits
        # Cast as assigning into a uint8 array would.
        return np.concatenate([head, tail], dtype=np.uint8, casting="unsafe")


def row_by_row(algorithm: QuantizedIteration) -> RowByRowIteration:
    """``algorithm``'s codec, template, pass length and start code, run by
    ``RowByRowIteration``."""
    reference = object.__new__(RowByRowIteration)
    vars(reference).update(vars(algorithm))
    return reference


class TurnByTurnProtocol(_StateHandoffProtocol):
    """The state-handoff protocol answering one turn per ``next_bits``
    call: the rest of the turn of round ``round_index``, from one
    ``update_chunks`` call whose one chunk is its writer's shard, started
    from the state written in the turn before.  ``next_bit`` is one bit
    of it."""

    def next_bits(self, shards, round_index, transcript):
        shard = shards[self.select_writer(round_index, transcript)]
        return self.turn(shard, round_index, transcript)

    def next_bit(self, shard, round_index, transcript):
        return int(self.turn(shard, round_index, transcript)[0])

    def turn(self, shard, round_index, transcript):
        s = self.s
        turn, offset = divmod(round_index, s)
        if turn == 0:
            prev = np.zeros(s, dtype=np.uint8)
        else:
            prev = np.asarray(transcript[(turn - 1) * s : turn * s], dtype=np.uint8)
        t, machine = divmod(turn, self.m)
        state = self.algorithm.update_chunks(prev, t, machine * self.n, [shard])[0]
        return _check_state(state, (s,))[offset:]


def turn_by_turn(protocol: _StateHandoffProtocol) -> TurnByTurnProtocol:
    """``protocol``'s algorithm, shard size and turn schedule, answered by
    ``TurnByTurnProtocol``."""
    reference = object.__new__(TurnByTurnProtocol)
    vars(reference).update(vars(protocol))
    return reference


def first_bad_writer(values, m: int):
    """The index of the first entry of ``values`` that is not a machine
    index (an ``int`` or numpy integer in ``[0, m)``, and not a bool), or
    ``None``; every entry is scanned."""
    for j, w in enumerate(values):
        if isinstance(w, (bool, np.bool_)) or not isinstance(w, (int, np.integer)):
            return j
        if not 0 <= w < m:
            return j
    return None


def charge_blocks(blocks, m: int, b: int):
    """What ``run_distributed`` does with writer blocks ``(start, values)``
    written in order: ``(ValueError or RuntimeError, message)`` for the
    first block with a writer that is not a machine index or that leaves
    a machine past its budget of ``b`` rounds, else ``(None, counts)``,
    the rounds charged to each machine by a bincount of every round."""
    counts = np.zeros(m, dtype=np.int64)
    for start, values in blocks:
        j = first_bad_writer(values, m)
        if j is not None:
            message = f"writer {values[j]} at round {start + j} is not a machine index in [0, {m})"
            return ValueError, message
        counts += np.bincount(np.asarray(values, dtype=np.int64), minlength=m)
        over = np.flatnonzero(counts > b)
        if over.size:
            return RuntimeError, f"machine {over[0]} selected for more than b = {b} rounds"
    if (counts != b).any():
        return RuntimeError, f"per-machine round counts {counts.tolist()} != b = {b}"
    return None, counts
