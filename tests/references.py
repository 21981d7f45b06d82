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
    ``update_chunks`` call whose one chunk is the shard of the writer
    ``writer_run`` names, started from the state written in the turn
    before.  ``next_bit`` is one bit of it."""

    def next_bits(self, shards, round_index, transcript):
        shard = shards[self.writer_run(round_index, transcript)[0]]
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
        state = self.algorithm.update_chunks(prev, t, machine * self.n, shard[None])[0]
        return _check_state(state, (s,))[offset:]


def turn_by_turn(protocol: _StateHandoffProtocol) -> TurnByTurnProtocol:
    """``protocol``'s algorithm, shard size and turn schedule, answered by
    ``TurnByTurnProtocol``."""
    reference = object.__new__(TurnByTurnProtocol)
    vars(reference).update(vars(protocol))
    return reference


def is_integer(value) -> bool:
    """An ``int`` or numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, (bool, np.bool_))


def charge_runs(owners, lengths, m: int, b: int):
    """What ``run_distributed`` does with the writer runs ``(owners[i],
    lengths[i])`` taken in order on a board of ``m * b`` rounds: a check
    of each run, then a bincount of every round written so far.

    Returns ``(ValueError or RuntimeError, message)`` for the first run
    whose writer is not a machine index (an integer in ``[0, m)``), whose
    length is not an integer of at least 1 or runs past the board, or
    that leaves a machine past its budget of ``b`` rounds; else ``(None,
    counts)``, the rounds charged to each machine."""
    rounds, head, counts = m * b, 0, np.zeros(m, dtype=np.int64)
    for i, (writer, length) in enumerate(zip(owners, lengths)):
        named = f"writer {writer} at round {head}"
        if not (is_integer(writer) and 0 <= writer < m):
            return ValueError, f"{named} is not a machine index in [0, {m})"
        if not (is_integer(length) and length >= 1):
            return ValueError, f"{named} holds {length} rounds, not a count >= 1"
        if head + int(length) > rounds:
            return ValueError, f"{named} holds {length} rounds, past the last round {rounds - 1}"
        head += int(length)
        logged = np.repeat(np.array(owners[: i + 1], dtype=np.int64), lengths[: i + 1])
        counts = np.bincount(logged, minlength=m)
        over = np.flatnonzero(counts > b)
        if over.size:
            return RuntimeError, f"machine {over[0]} selected for more than b = {b} rounds"
    if (counts != b).any():
        return RuntimeError, f"per-machine round counts {counts.tolist()} != b = {b}"
    return None, counts
