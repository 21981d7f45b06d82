"""Reference implementations the tests compare the library against.

Each one computes a quantity the library computes some faster way, in
the plainest form that states its contract; no verb, script or
benchmark runs them.
"""

import math

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


def snap_sum(q, start, steps):
    """The partial sum's levels after each row of ``steps``, from the
    integer levels ``start``: each row moves a level by ``w / step``
    rounded half to even, an infinite ``w / step`` to the end it points
    at, and clamps it to ``[0, 2^bits - 1]``.  Python integers, one
    coordinate at a time; a ``(rows, d)`` int64 array."""
    top = 2**q.bits - 1
    levels = [int(level) for level in start]
    out = []
    for row in np.asarray(steps, dtype=np.float64).tolist():
        for c, w in enumerate(row):
            ratio = w / float(q.step)
            move = round(ratio) if math.isfinite(ratio) else ratio
            levels[c] = int(min(max(levels[c] + move, 0), top))
        out.append(list(levels))
    return np.array(out, dtype=np.int64).reshape(len(out), len(levels))


def code_levels(q, code):
    """The integer level of each coordinate's ``q.bits`` bits in
    ``code``, least significant first."""
    code = [int(bit) for bit in code]
    return [
        sum(bit << j for j, bit in enumerate(code[c : c + q.bits]))
        for c in range(0, len(code), q.bits)
    ]


def level_code(q, levels):
    """The ``uint8`` code of integer ``levels``: each one's ``q.bits``
    low bits, least significant first."""
    return np.array([(int(level) >> j) & 1 for level in levels for j in range(q.bits)], np.uint8)


class RowByRowIteration(QuantizedIteration):
    """``QuantizedIteration`` that steps its partial sum one row at a
    time: the base class's ``update_chunks`` runs one ``update`` per row,
    the reference the chunked update must equal bit for bit.  Each row's
    ``w = psi(iterate) . x / N`` moves the partial sum's levels as
    ``snap_sum`` does."""

    update_chunks = MemoryBoundedAlgorithm.update_chunks

    def update(self, state, t, i, x):
        q, d, half = self.quantizer, self.d, self.state_bits // 2
        if t == 0 and i == 0:
            state = self.start_code
        iterate = q.decode(state[:half], d)
        w = contract_batch(x[None, :], d, self.psi(iterate))[0] / self.n_samples
        partial_bits = level_code(q, snap_sum(q, code_levels(q, state[half:]), w[None])[0])
        if i == self.n_samples - 1:
            # Pass boundary: the accumulated sum becomes the iterate and
            # the partial sum resets to the code for zero.
            head, tail = partial_bits, self.reset_code
        else:
            head, tail = state[:half], partial_bits
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
    counts)``, the rounds charged to each machine.  Runs that cover the
    board with no error charge every machine exactly ``b``, which the
    caller checks."""
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
    return None, counts
