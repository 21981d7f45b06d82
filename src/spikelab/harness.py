"""Bit-accounted execution models: streaming with bounded memory, and
blackboard protocols over sharded data, with an exact simulation of the
former by the latter.

A memory-bounded algorithm owns nothing but an s-bit state; the runner
feeds it finite samples in (pass, index) order, one pass per
``update_block`` call, and checks the state length and binariness after
every block, so no side channel can carry extra information between
blocks.  A blackboard protocol writes one public bit per round; the
writer choice may depend only on the transcript so far, and the bit
only on the writer's own shard plus the transcript.  A protocol may
hand the runner several rounds' bits at once (``next_bits``) and the
writers of a range of rounds at once (``select_writers``); the runner
asks for the first writer of each block alone and for the writers of
the block's other rounds in one call.  ``Blackboard.audit`` replays the
writers round by round.  The reduction simulates a (N, T, s) streaming
algorithm with (N/n, n, s*T) blackboard parameters by handing the full
state across the board after every local pass.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from spikelab.estimators import EstimateReport
from spikelab.tensors import check_finite, contract_batch

__all__ = [
    "Blackboard",
    "BlackboardProtocol",
    "MemoryBoundedAlgorithm",
    "QuantizedIteration",
    "QuantizerSpec",
    "ResourceProfile",
    "TEMPLATES",
    "partial_trace_template",
    "power_template",
    "reduce_memory_to_distributed",
    "replay",
    "run_distributed",
    "run_memory_bounded",
    "shard_stream",
]


@dataclass(frozen=True)
class ResourceProfile:
    """(samples, passes, state bits) accounting for one streaming run."""

    samples: int
    passes: int
    state_bits: int

    def __post_init__(self):
        for name in ("samples", "passes", "state_bits"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    @property
    def cost(self) -> int:
        # Python integers, so no overflow however large the product gets.
        return int(self.samples) * int(self.passes) * int(self.state_bits)


class MemoryBoundedAlgorithm:
    """Interface for streaming algorithms with an s-bit state.

    Subclasses set ``state_bits`` and implement ``update`` (returning the
    next state as a 0/1 uint8 vector of the same length) and
    ``estimate`` (mapping the final state to an output vector).  The
    runner owns the state; implementations must not stash anything on
    ``self`` between calls.
    """

    state_bits: int

    def update(self, state: np.ndarray, t: int, i: int, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def update_block(
        self, state: np.ndarray, t: int, i0: int, rows: np.ndarray
    ) -> np.ndarray:
        """The state after ``update`` on rows i0, i0+1, .. of pass t.

        The rows lie within one pass.  This default is the reference: one
        ``update`` per row, with the state checked after each.  An
        override must return the same bits from ``state`` alone.
        """
        for j, x in enumerate(rows):
            state = _check_state(self.update(state, t, i0 + j, x), self.state_bits)
        return state

    def estimate(self, state: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def _check_state(state, s: int) -> np.ndarray:
    state = np.asarray(state)
    kind = state.dtype.kind
    if kind not in "uib":
        raise RuntimeError(f"state must hold bits, got dtype {state.dtype}")
    if state.shape != (s,):
        raise RuntimeError(
            f"transition returned a state of {state.shape} bits, expected ({s},)"
        )
    if kind != "b" and (state.max() > 1 or (kind == "i" and state.min() < 0)):
        raise RuntimeError("state must be a 0/1 bit vector")
    return state.astype(np.uint8, copy=False)


def run_memory_bounded(
    algorithm: MemoryBoundedAlgorithm,
    data: np.ndarray,
    profile: ResourceProfile,
) -> EstimateReport:
    """Feed the stream through the algorithm in (t asc, i asc) order.

    The state starts all zeros, is the only value carried between
    passes, and is length- and binariness-checked after every pass,
    which is one ``update_block`` call.  Rows must be finite.
    """
    t0 = time.perf_counter()
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] != profile.samples:
        raise ValueError(
            f"stream shape {data.shape} does not provide {profile.samples} rows"
        )
    # Non-finite rows make NaN sums, which the codec's uint64 cast turns
    # into arbitrary codes.
    check_finite(data, "stream")
    s = profile.state_bits
    if algorithm.state_bits != s:
        raise ValueError(
            f"algorithm declares {algorithm.state_bits} state bits, profile says {s}"
        )
    state = np.zeros(s, dtype=np.uint8)
    for t in range(profile.passes):
        state = _check_state(algorithm.update_block(state, t, 0, data), s)
    out = np.asarray(algorithm.estimate(state.copy()), dtype=np.float64)
    return EstimateReport(
        estimate=out,
        overlap=None,
        iterations=profile.passes,
        converged=True,
        wall_ms=(time.perf_counter() - t0) * 1e3,
        info={"cost": profile.cost},
        resources=profile,
    )


# ---------------------------------------------------------------------------
# quantization

# Row-coordinates from which ``QuantizerSpec.snap_sum`` guesses a block
# with array calls instead of running its scalar loop.  Measured on one
# x86-64 core: the array path costs ~16 us up to a few hundred
# row-coordinates, the loop ~0.1 us per row-coordinate; they cross
# between 160 (16 us each) and 192.
_SNAP_ARRAY_MIN = 160


@dataclass(frozen=True)
class QuantizerSpec:
    """Fixed-point codec: ``bits`` per coordinate on [-radius, radius].

    Values are clamped to the range and rounded to the nearest lattice
    point with ties to even, so the decode error is at most
    ``radius * 2^(1 - bits)`` for any finite input.  The lattice holds
    ``2^bits`` points ``level * step - radius``; with ``radius`` at both
    ends it has no zero point, so zero decodes half a step from zero.
    A code is the ``bits`` low bits of each level, least significant
    first, coordinates one after another.  ``bits`` stops at 53, where
    every level is still an exact float, and ``radius`` must make
    ``step`` a finite, normal, positive float; ``docs/formats.md``
    states the whole contract.
    """

    bits: int = 32
    radius: float = 64.0

    def __post_init__(self):
        if not 1 <= self.bits <= 53:
            raise ValueError(f"bits per coordinate must be in [1, 53], got {self.bits}")
        if not np.finfo(np.float64).tiny <= self.step < math.inf:  # NaN fails too
            raise ValueError(f"radius {self.radius} gives step {self.step}, not a normal float")

    @property
    def step(self) -> float:
        return 2.0 * self.radius / (2.0**self.bits - 1.0)

    def _levels(self, values: np.ndarray) -> np.ndarray:
        # Float levels; the top one is capped because (2 * radius) / step
        # can round up to 2^bits, which has no code.
        clamped = np.minimum(np.maximum(values, -self.radius), self.radius)
        levels = np.rint((clamped + self.radius) / self.step)
        return np.minimum(levels, 2.0**self.bits - 1.0)

    def snap(self, values: np.ndarray) -> np.ndarray:
        """``decode(encode(values))``, computed on the lattice without codes."""
        return self._levels(values) * self.step - self.radius

    def snap_sum(self, start: np.ndarray, steps: np.ndarray) -> np.ndarray:
        """``snap(..snap(snap(start + steps[0]) + steps[1]).. + steps[-1])``.

        Bit-identical to that ``snap`` loop (``start`` itself for no
        rows).  A block of fewer than ``_SNAP_ARRAY_MIN`` row-coordinates
        runs the scalar loop ``_snap_loop``.  A longer one is guessed,
        checked and mended:

        - guess: the level of ``start`` plus the running sum of
          ``rint(steps / step)``, mapped back to ``level * step - radius``;
        - check: one ``snap(prev + steps)``, where ``prev`` is ``start``
          followed by every guessed row but the last, compared with the
          guess bit for bit (an int64 view, so a NaN or a signed zero
          must match exactly);
        - mend: each coordinate that differs resumes ``_snap_loop`` from
          its checked value at its first difference.

        The check is exact by induction: ``snap`` of the true row j - 1
        plus ``steps[j]`` is the true row j, so along each coordinate
        every guessed row before the first difference is true, and so is
        the checked value at it.  A clamp or a rounding tie the guess
        misses costs its coordinate one fallback, so the worst case is
        one array pass on top of the scalar loop.
        """
        start = np.asarray(start, dtype=np.float64)
        steps = np.asarray(steps, dtype=np.float64)
        if steps.size < _SNAP_ARRAY_MIN:
            return np.array(self._snap_loop(start.tolist(), steps.T.tolist()))
        step, radius = self.step, self.radius
        # A guess may overflow (a step of 2^-1000 or so) or meet inf - inf;
        # the check catches that row, so the warning would say nothing.
        with np.errstate(all="ignore"):
            levels = np.rint(steps / step)
            levels[0] += np.rint((start + radius) / step)
            guess = np.cumsum(levels, axis=0) * step - radius
            check = self.snap(np.concatenate([start[None], guess[:-1]]) + steps)
        wrong = guess.view(np.int64) != check.view(np.int64)
        out = guess[-1]
        columns = np.flatnonzero(wrong.any(axis=0))
        if columns.size:
            first = wrong[:, columns].argmax(axis=0)
            out[columns] = self._snap_loop(
                check[first, columns].tolist(),
                [steps[j + 1 :, c].tolist() for j, c in zip(first.tolist(), columns.tolist())],
            )
        return out

    def _snap_loop(self, starts: list, columns: list) -> list:
        """The ``snap`` loop on Python floats, each start down its column.

        The same IEEE operations in the same order as ``snap``, one
        coordinate at a time.  Below 2^52, adding and subtracting 2^52
        rounds half to even as ``np.rint`` does; from 2^52 up every float
        is an integer.  NaN passes through every step, as it does
        through ``snap``.
        """
        radius, low, step = float(self.radius), -float(self.radius), self.step
        top, big = 2.0**self.bits - 1.0, 2.0**52
        out = []
        for value, column in zip(starts, columns):
            for w in column:
                value += w
                if value > radius:
                    value = radius
                elif value < low:
                    value = low
                level = (value + radius) / step
                if level < big:
                    level = level + big - big
                if level > top:
                    level = top
                value = level * step - radius
            out.append(value)
        return out

    def encode(self, values: np.ndarray) -> np.ndarray:
        """Little-endian bit codes, ``bits`` per coordinate, flattened."""
        levels = self._levels(np.asarray(values, dtype=np.float64).reshape(-1))
        octets = levels.astype("<u8").view(np.uint8).reshape(-1, 8)
        return np.unpackbits(octets, axis=1, count=self.bits, bitorder="little").reshape(-1)

    def decode(self, bits: np.ndarray, count: int) -> np.ndarray:
        """The ``count`` lattice values of little-endian ``encode`` codes."""
        padded = np.zeros((count, 64), dtype=np.uint8)
        padded[:, : self.bits] = np.reshape(bits, (count, self.bits))
        levels = np.packbits(padded, bitorder="little").view("<u8")
        return levels * self.step - self.radius


# ---------------------------------------------------------------------------
# the common quantized iteration


def power_template(k: int):
    """psi(u) = (u/||u||)^(x)(k-1), the tensor power-method contraction."""
    from spikelab.tensors import outer_power

    def psi(u: np.ndarray) -> np.ndarray:
        nrm = float(np.linalg.norm(u))
        if nrm == 0.0:
            raise RuntimeError("iterate collapsed to numerical zero")
        return outer_power(u / nrm, k - 1)

    return psi


def partial_trace_template(k: int, d: int):
    """psi(u) = vec(I (x) .. (x) I (x) u/||u||) with k/2 - 1 identity pairs.

    Contracting an order-k sample against this template yields one
    matrix-vector product with the transposed pair-contracted tensor, so
    the wrapped iteration walks the same iterates as the direct spectral
    method.
    """
    if k % 2 != 0:
        raise ValueError(f"partial-trace template needs even k, got {k}")
    eye_flat = np.eye(d).reshape(-1)

    def psi(u: np.ndarray) -> np.ndarray:
        nrm = float(np.linalg.norm(u))
        if nrm == 0.0:
            raise RuntimeError("iterate collapsed to numerical zero")
        out = u / nrm
        for _ in range(k // 2 - 1):
            out = np.kron(eye_flat, out)
        return out

    return psi


# Estimator name -> builder of its streaming contraction template from
# (k, d); only these estimators run under the bit-budget harness.
TEMPLATES = {
    "tensor-power": lambda k, d: power_template(k),
    "partial-trace": partial_trace_template,
}


class QuantizedIteration(MemoryBoundedAlgorithm):
    """State = [iterate code | partial-sum code], s = 2*d*B bits.

    Each update contracts the current sample against ``psi(iterate)``,
    adds the result divided by N into the quantized partial sum, and at
    the end of a pass promotes the partial sum to be the next iterate
    and resets the sum to ``reset_code``, the code for zero.  Both are
    read from the state, decoded: nothing but the state crosses passes.
    The first update (t = 0, i = 0) reads ``start_code``, the code of
    ``init`` beside ``reset_code``, in place of the runner's all-zeros
    state, so pass 0 runs as every later pass does: its rows contract
    against ``decode(encode(init))`` and its sum starts at
    ``decode(reset_code)``, about half a step from zero.  Pair it with
    ``ResourceProfile(n_samples, T, 2*d*B)``.
    """

    def __init__(self, psi, quantizer: QuantizerSpec, d: int, n_samples: int, init):
        self.psi = psi
        self.quantizer = quantizer
        self.d = d
        self.n_samples = n_samples
        init = np.asarray(init, dtype=np.float64).reshape(-1)
        if init.shape != (d,) or not np.linalg.norm(init) > 0:
            raise ValueError("init must be a nonzero d-vector")
        self.init = init / np.linalg.norm(init)
        self.state_bits = 2 * d * quantizer.bits
        # The code for zero, which the partial sum resets to at every pass
        # boundary (all-zero bits would decode to -radius, not zero).  A
        # constant of the codec and d, so it is built once and read-only.
        self.reset_code = quantizer.encode(np.zeros(d))
        self.reset_code.flags.writeable = False
        # The state that pass 0 starts from in place of the runner's
        # all-zeros state: the code of init beside the reset code.
        self.start_code = np.concatenate([quantizer.encode(self.init), self.reset_code])
        self.start_code.flags.writeable = False

    def _next_state(self, head, tail):
        state = np.empty(self.state_bits, dtype=np.uint8)
        half = self.state_bits // 2
        state[:half] = head
        state[half:] = tail
        return state

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
            return self._next_state(partial_bits, self.reset_code)
        return self._next_state(state[: self.state_bits // 2], partial_bits)

    def update_block(self, state, t, i0, rows):
        """``update`` over a block of one pass, bit-identical to the loop.

        The iterate is fixed within a pass, so the whole state is decoded
        once, ``psi`` is built once, and all rows are contracted by one
        stacked matmul, whose row j equals the single-row
        ``contract_batch`` of ``update``.  Only the partial sum is
        accumulated row by row, on lattice values
        (``QuantizerSpec.snap_sum``), and encoded once at the end.
        """
        q, d, n = self.quantizer, self.d, self.n_samples
        rows = np.asarray(rows, dtype=np.float64)
        if i0 + len(rows) > n:
            raise ValueError(f"rows {i0}..{i0 + len(rows) - 1} run past the pass of {n}")
        if len(rows) == 0:
            return state
        if t == 0 and i0 == 0:
            state = self.start_code
        values = q.decode(state, 2 * d)
        w = (self.psi(values[:d]) @ rows.reshape(len(rows), -1, d)) / n
        partial_bits = q.encode(q.snap_sum(values[d:], w[:-1]) + w[-1])
        if i0 + len(rows) == n:
            # Pass boundary, as in ``update``.
            return self._next_state(partial_bits, self.reset_code)
        return self._next_state(state[: self.state_bits // 2], partial_bits)

    def estimate(self, state):
        u = self.quantizer.decode(state[: self.state_bits // 2], self.d)
        nrm = float(np.linalg.norm(u))
        if nrm == 0.0:
            raise RuntimeError("iterate collapsed to numerical zero")
        return u / nrm


# ---------------------------------------------------------------------------
# blackboard protocols


class BlackboardProtocol:
    """Deterministic public-transcript protocol over m shards.

    ``select_writer`` sees only the transcript prefix (and the round
    number); ``next_bit`` additionally sees the chosen machine's shard
    and nothing else, which structurally prevents cross-shard reads.
    ``estimate`` maps the final transcript alone to the output.
    ``select_writers`` and ``next_bits`` answer for a range of rounds
    at once and must agree with their one-round references.
    """

    def select_writer(self, round_index: int, transcript: np.ndarray) -> int:
        raise NotImplementedError

    def select_writers(self, start: int, stop: int, transcript: np.ndarray):
        """Writers of rounds ``start .. stop - 1`` at once.

        ``transcript`` holds rounds ``0 .. stop - 1``, and entry j must be
        what ``select_writer`` returns at round ``start + j`` given
        ``transcript[:start + j]``.  This default is that per-round
        reference; ``Blackboard.audit`` always replays it round by round.
        """
        return [self.select_writer(r, transcript[:r]) for r in range(start, stop)]

    def next_bit(self, shard: np.ndarray, round_index: int, transcript: np.ndarray) -> int:
        raise NotImplementedError

    def next_bits(self, shard: np.ndarray, round_index: int, transcript: np.ndarray):
        """Bits for rounds ``round_index``, ``round_index + 1``, .. at once.

        Bit j must be what ``next_bit`` returns at round ``round_index + j``
        given the transcript extended by bits 0..j-1, for as long as
        ``select_writer`` keeps choosing the same machine; the runner
        drops the bits past the first round it does not.  This default
        returns the one bit of ``next_bit``.
        """
        return [self.next_bit(shard, round_index, transcript)]

    def estimate(self, transcript: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass
class Blackboard:
    """Public transcript: bits in write order plus the writer log."""

    bits: np.ndarray
    writers: np.ndarray
    m: int
    n: int
    b: int

    def dump_text(self) -> str:
        lines = [
            f"{t} {int(self.writers[t])} {int(self.bits[t])}"
            for t in range(len(self.bits))
        ]
        return "\n".join(lines) + "\n"

    def audit(self, protocol: BlackboardProtocol) -> bool:
        """Replay writer selection from read-only transcript prefixes alone.

        Fails at the first round whose replayed writer is not a machine
        index in ``[0, m)`` (a bool is not one) or is not the logged one.
        """
        bits = self.bits.view()
        bits.flags.writeable = False
        writers = self.writers.tolist()
        select_writer = protocol.select_writer
        for t in range(len(bits)):
            writer = select_writer(t, bits[:t])
            if not _is_writer(writer, self.m) or writer != writers[t]:
                return False
        return True


_BOOLS = (bool, np.bool_)


def _is_writer(value, m: int) -> bool:
    is_int = isinstance(value, (int, np.integer)) and not isinstance(value, _BOOLS)
    return is_int and 0 <= value < m


def _writer_block(values, start: int, stop: int, m: int) -> np.ndarray:
    """The writers of rounds start..stop-1, checked to be machine indices.

    A bool is not a machine index, even where numpy would cast it to one.
    """
    block = np.asarray(values)
    if block.shape != (stop - start,):
        raise ValueError(
            f"protocol gave writers of shape {block.shape} for rounds {start}..{stop - 1}"
        )
    if (
        block.dtype.kind in "ui"
        and block.min() >= 0
        and block.max() < m
        and (isinstance(values, np.ndarray) or not any(isinstance(w, _BOOLS) for w in values))
    ):
        return block
    # Name the first entry that is not a machine index.
    j = next((j for j, w in enumerate(values) if not _is_writer(w, m)), 0)
    raise ValueError(
        f"writer {values[j]} at round {start + j} is not a machine index in [0, {m})"
    )


def _bit_block(values, t: int) -> np.ndarray:
    block = np.asarray(values)
    if block.ndim != 1 or block.size == 0:
        raise ValueError(f"protocol wrote a block of shape {block.shape} at round {t}")
    if block.dtype.kind not in "uib":
        raise ValueError(f"protocol wrote non-bit values of dtype {block.dtype} at round {t}")
    if block.min() >= 0 and block.max() <= 1:
        return block
    j = int(np.flatnonzero((block != 0) & (block != 1))[0])
    raise ValueError(f"protocol wrote a non-bit value {block[j]} at round {t + j}")


def run_distributed(
    protocol: BlackboardProtocol,
    shards: list[np.ndarray],
    m: int,
    n: int,
    b: int,
) -> tuple[EstimateReport, Blackboard]:
    """Run m*b rounds of one-bit writes and estimate from the transcript.

    A block starts at round t with the writer ``select_writer`` picks
    there.  Its ``next_bits`` are written in one go, one
    ``select_writers`` call gives the writers of the block's later
    rounds, and the block ends at the first of them that differs; the
    rounds past it are written again by the blocks that follow.  Shards
    must be finite.  Writers and bits are validated before any cast or
    comparison, and every bit counts against its writer's budget b.
    Protocols get the transcript read-only.
    """
    t0 = time.perf_counter()
    if len(shards) != m:
        raise ValueError(f"got {len(shards)} shards for m = {m}")
    for j, shard in enumerate(shards):
        shard = np.asarray(shard)
        if shard.shape[0] != n:
            raise ValueError(f"every shard must hold n = {n} samples")
        check_finite(shard, f"shard {j}")
    rounds = m * b
    bits = np.zeros(rounds, dtype=np.uint8)
    # Protocols see the transcript through one read-only view, so no bit
    # on the board can be rewritten after its round.
    transcript = bits.view()
    transcript.flags.writeable = False
    writers = np.zeros(rounds, dtype=np.int64)
    written = [0] * m
    t = 0
    while t < rounds:
        writer = protocol.select_writer(t, transcript[:t])
        if type(writer) is not int or not 0 <= writer < m:
            writer = int(_writer_block([writer], t, t + 1, m)[0])
        block = _bit_block(protocol.next_bits(shards[writer], t, transcript[:t]), t)
        end = min(t + block.size, rounds)
        bits[t:end] = block[: end - t]
        stop = t + 1
        if end > stop:
            later = protocol.select_writers(stop, end, transcript[:end])
            same = _writer_block(later, stop, end, m) == writer
            stop = end if same.all() else stop + int(same.argmin())
        written[writer] += stop - t
        if written[writer] > b:
            raise RuntimeError(
                f"machine {writer} selected for more than b = {b} rounds"
            )
        writers[t:stop] = writer
        t = stop
    if any(count != b for count in written):
        raise RuntimeError(f"per-machine round counts {written} != b = {b}")
    out = np.asarray(protocol.estimate(bits.copy()), dtype=np.float64)
    board = Blackboard(bits=bits, writers=writers, m=m, n=n, b=b)
    report = EstimateReport(
        estimate=out,
        overlap=None,
        iterations=rounds,
        converged=True,
        wall_ms=(time.perf_counter() - t0) * 1e3,
        info={"transcript_bits": rounds},
    )
    return report, board


# ---------------------------------------------------------------------------
# simulation reduction


class _StateHandoffProtocol(BlackboardProtocol):
    """Blackboard simulation of a streaming algorithm.

    Turn q (a block of s consecutive rounds) belongs to machine q mod m
    and simulates pass q // m of the streaming run over that machine's
    shard, starting from the state written in turn q - 1 (all zeros for
    q = 0).  Every machine takes exactly T turns, so it writes exactly
    s*T = b bits.  Nothing is memoized: a turn's output state is a
    function of the shard and the public prefix alone, and
    ``next_bits`` hands the runner the rest of the turn, so
    ``run_distributed`` computes each turn once.
    """

    def __init__(self, algorithm: MemoryBoundedAlgorithm, profile: ResourceProfile, n: int):
        self.algorithm = algorithm
        self.n = n
        self.m = profile.samples // n
        self.s = profile.state_bits

    def select_writer(self, round_index, transcript):
        return (round_index // self.s) % self.m

    def select_writers(self, start, stop, transcript):
        return (np.arange(start, stop) // self.s) % self.m

    def next_bits(self, shard, round_index, transcript):
        s = self.s
        turn, offset = divmod(round_index, s)
        if turn == 0:
            prev = np.zeros(s, dtype=np.uint8)
        else:
            prev = np.asarray(transcript[(turn - 1) * s : turn * s], dtype=np.uint8)
        t, machine = divmod(turn, self.m)
        state = self.algorithm.update_block(prev, t, machine * self.n, shard)
        return _check_state(state, s)[offset:]

    def next_bit(self, shard, round_index, transcript):
        return int(self.next_bits(shard, round_index, transcript)[0])

    def estimate(self, transcript):
        final = np.asarray(transcript[-self.s :], dtype=np.uint8)
        return self.algorithm.estimate(final)


def reduce_memory_to_distributed(
    algorithm: MemoryBoundedAlgorithm,
    profile: ResourceProfile,
    n: int,
) -> tuple[BlackboardProtocol, int, int, int]:
    """Simulation with parameters (m, n, b) = (N/n, n, s*T).

    Returns ``(protocol, m, n, b)``; running the protocol on the
    row-contiguous shards of the same stream reproduces the streaming
    estimate bit for bit, because turns visit (pass, machine) in the
    same order the streaming runner visits (pass, sample index).
    """
    if profile.samples % n != 0:
        raise ValueError(f"n = {n} does not divide N = {profile.samples}")
    if algorithm.state_bits != profile.state_bits:
        raise ValueError("algorithm and profile disagree on state bits")
    protocol = _StateHandoffProtocol(algorithm, profile, n)
    return protocol, profile.samples // n, n, profile.state_bits * profile.passes


def shard_stream(data: np.ndarray, n: int) -> list[np.ndarray]:
    """Split a stream into row-contiguous shards of n samples each."""
    data = np.asarray(data)
    if data.shape[0] % n != 0:
        raise ValueError(f"n = {n} does not divide {data.shape[0]} rows")
    return [data[j : j + n] for j in range(0, data.shape[0], n)]


def replay(
    algorithm: MemoryBoundedAlgorithm,
    data: np.ndarray,
    profile: ResourceProfile,
    shard_rows: int,
) -> tuple[EstimateReport, Blackboard, BlackboardProtocol]:
    """``(report, board, protocol)`` of the streaming run replayed as its
    blackboard simulation at ``shard_rows`` rows per machine; the board
    carries ``(m, n, b)``."""
    protocol, m, n, b = reduce_memory_to_distributed(algorithm, profile, shard_rows)
    report, board = run_distributed(protocol, shard_stream(data, n), m, n, b)
    return report, board, protocol
