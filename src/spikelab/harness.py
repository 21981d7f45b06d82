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

from spikelab.estimators import EstimateReport, PowerMethodConfig, start_vector
from spikelab.tensors import (
    check_count,
    check_entry_budget,
    check_finite,
    outer_power,
    unit,
)


@dataclass(frozen=True)
class ResourceProfile:
    """(samples, passes, state bits) accounting for one streaming run."""

    samples: int
    passes: int
    state_bits: int

    def __post_init__(self):
        for name in ("samples", "passes", "state_bits"):
            check_count(name, getattr(self, name))

    @property
    def cost(self) -> int:
        # Python integers, so no overflow however large the product gets.
        return int(self.samples) * int(self.passes) * int(self.state_bits)


class MemoryBoundedAlgorithm:
    """Interface for streaming algorithms with an s-bit state.

    Subclasses set ``state_bits`` and implement ``update`` (returning the
    next state as a 0/1 uint8 vector of the same length) and
    ``estimate`` (mapping the final state to an output vector).  One
    that reads its pass length sets ``n_samples``, and the runners hold
    the profile's stream length to it; ``None`` takes any length.  The
    runner owns the state; implementations must not stash anything on
    ``self`` between calls.
    """

    state_bits: int
    n_samples: int | None = None

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


def _check_profile(algorithm: MemoryBoundedAlgorithm, profile: ResourceProfile) -> None:
    """``ValueError`` unless the algorithm's state bits, and its pass
    length if it declares one, are the profile's."""
    if algorithm.state_bits != profile.state_bits:
        raise ValueError(
            f"algorithm declares {algorithm.state_bits} state bits, "
            f"profile says {profile.state_bits}"
        )
    if algorithm.n_samples is not None and algorithm.n_samples != profile.samples:
        raise ValueError(
            f"algorithm streams passes of {algorithm.n_samples} samples, "
            f"profile says {profile.samples}"
        )


def run_memory_bounded(
    algorithm: MemoryBoundedAlgorithm,
    data: np.ndarray,
    profile: ResourceProfile,
) -> EstimateReport:
    """Feed the stream through the algorithm in (t asc, i asc) order.

    The state starts all zeros, is the only value carried between
    passes, and is length- and binariness-checked after every pass,
    which is one ``update_block`` call.  Rows must be finite, and the
    algorithm must agree with the profile (``_check_profile``).
    """
    t0 = time.perf_counter()
    _check_profile(algorithm, profile)
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] != profile.samples:
        raise ValueError(
            f"stream shape {data.shape} does not provide {profile.samples} rows"
        )
    # Non-finite rows make NaN sums, which the codec's uint64 cast turns
    # into arbitrary codes.
    check_finite(data, "stream")
    s = profile.state_bits
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
    )


# ---------------------------------------------------------------------------
# quantization

# Row-coordinates from which ``QuantizerSpec._snap_block`` guesses a block
# with array calls instead of running its scalar loop.  Measured on one
# x86-64 core: the array path costs ~16 us up to a few hundred
# row-coordinates, the loop ~0.1 us per row-coordinate; they cross
# between 160 (16 us each) and 192.
_SNAP_ARRAY_MIN = 160

# 2^0 .. 2^52, the weights ``QuantizerSpec.decode`` gives a code's bits.
_BIT_WEIGHTS = 2.0 ** np.arange(53)
_BIT_WEIGHTS.flags.writeable = False


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
        check_count("bits per coordinate", self.bits)
        if self.bits > 53:
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

    def _snap_block(self, start: np.ndarray, steps: np.ndarray) -> tuple:
        """``(values, levels)`` of the last row of the ``snap`` loop
        ``start = snap(start + row)`` over the rows of ``steps``, where
        ``snap(v) = decode(encode(v)) = _levels(v) * step - radius``.
        ``start`` and ``steps`` are float64 arrays; the halves come back
        as lists of floats from the loop and as array rows from the array
        path, so a caller converts only the half it uses.  The values are
        ``levels * step - radius``; for no rows they are ``start`` and
        the levels are NaN.

        A block of fewer than ``_SNAP_ARRAY_MIN`` row-coordinates runs the
        scalar loop ``_snap_loop``.  A longer one is guessed, checked and
        mended:

        - guess: rows 0 .. n - 2 only, the level of ``start`` plus the
          running sum of ``rint(steps / step)``, mapped back to
          ``level * step - radius``;
        - check: one ``_levels(prev + steps)`` over all n rows, where
          ``prev`` is ``start`` followed by the guessed rows, compared
          with the guess bit for bit (an int64 view, so a NaN or a signed
          zero must match exactly); its last row gives the result;
        - mend: each coordinate whose guess differs resumes ``_snap_loop``
          from its checked value at its first difference, which lies
          before the last row, so the loop has a step to take.

        The check is exact by induction: ``snap`` of the true row j - 1
        plus ``steps[j]`` is the true row j, so along each coordinate
        every guessed row before the first difference is true, and so is
        the checked value at it; a coordinate with no difference has its
        last checked row true.  A clamp or a rounding tie the guess
        misses costs its coordinate one fallback, so the worst case is
        one array pass on top of the scalar loop.
        """
        if steps.size < _SNAP_ARRAY_MIN:
            return self._snap_loop(start.tolist(), steps.T.tolist())
        step, radius = self.step, self.radius
        # A guess may overflow (a step of 2^-1000 or so) or meet inf - inf;
        # the check catches that row, so the warning would say nothing.
        with np.errstate(all="ignore"):
            levels = np.rint(steps[:-1] / step)
            levels[:1] += np.rint((start + radius) / step)
            guess = np.cumsum(levels, axis=0) * step - radius
            checked = self._levels(np.concatenate([start[None], guess]) + steps)
        check = checked * step - radius
        wrong = guess.view(np.int64) != check[:-1].view(np.int64)
        values, levels = check[-1], checked[-1]
        columns = np.flatnonzero(wrong.any(axis=0))
        if columns.size:
            first = wrong[:, columns].argmax(axis=0)
            values[columns], levels[columns] = self._snap_loop(
                check[first, columns].tolist(),
                [steps[j + 1 :, c].tolist() for j, c in zip(first.tolist(), columns.tolist())],
            )
        return values, levels

    def _snap_loop(self, starts: list, columns: list) -> tuple[list, list]:
        """The ``snap`` loop of ``_snap_block`` on Python floats, each
        start down its column.

        Returns each column's last value and the level its last step
        computed (NaN for a column with no steps), the value being
        ``level * step - radius``.  The same IEEE operations in the same
        order as ``_levels``, one coordinate at a time, so each level is
        what ``_levels`` gives.  Below 2^52, adding and subtracting 2^52
        rounds half to even as ``np.rint`` does; from 2^52 up every float
        is an integer.  NaN passes through every step, as it does
        through ``_levels``.
        """
        radius, low, step = float(self.radius), -float(self.radius), self.step
        top, big = 2.0**self.bits - 1.0, 2.0**52
        values, levels = [], []
        for value, column in zip(starts, columns):
            level = math.nan
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
            values.append(value)
            levels.append(level)
        return values, levels

    def encode(self, values: np.ndarray) -> np.ndarray:
        """Little-endian bit codes, ``bits`` per coordinate, flattened.

        ``_code(_levels(values))``; ``QuantizedIteration.update_block``
        codes the levels of its partial sum with ``_code`` directly.
        """
        return self._code(self._levels(np.asarray(values, dtype=np.float64).reshape(-1)))

    def _code(self, levels: np.ndarray) -> np.ndarray:
        octets = levels.astype("<u8").view(np.uint8).reshape(-1, 8)
        return np.unpackbits(octets, axis=1, count=self.bits, bitorder="little").reshape(-1)

    def decode(self, bits: np.ndarray, count: int) -> np.ndarray:
        """The ``count`` lattice values of little-endian ``encode`` codes.

        Each level is its 0/1 bits times ascending powers of two, summed
        in float64: every partial sum is a sum of distinct powers of two
        below 2^53, so it is exact in any order.
        """
        levels = np.reshape(bits, (count, self.bits)) @ _BIT_WEIGHTS[: self.bits]
        return levels * self.step - self.radius


# ---------------------------------------------------------------------------
# the common quantized iteration


def power_template(k: int):
    """psi(u) = (u/||u||)^(x)(k-1), the tensor power-method contraction."""
    check_count("k", k, low=2)

    def psi(u: np.ndarray) -> np.ndarray:
        return outer_power(unit(u)[0], k - 1)

    return psi


def partial_trace_template(k: int, d: int):
    """psi(u) = vec(I (x) .. (x) I (x) u/||u||) with k/2 - 1 identity pairs.

    Contracting an order-k sample against this template yields one
    matrix-vector product with the transposed pair-contracted tensor, so
    the wrapped iteration walks the same iterates as the direct spectral
    method.  The order and the entry budget of ``d^(k-1)`` are checked
    here, once.  Each pair is one ``multiply.outer``, which makes every
    entry by the one multiply ``np.kron`` makes.
    """
    check_count("k", k, low=2)
    check_count("d", d)
    if k % 2 != 0:
        raise ValueError(f"partial-trace template needs even k, got {k}")
    check_entry_budget(d ** (k - 1), "partial-trace template")
    eye_flat = np.eye(d).reshape(-1)

    def psi(u: np.ndarray) -> np.ndarray:
        out = unit(u)[0]
        for _ in range(k // 2 - 1):
            out = np.multiply.outer(eye_flat, out).reshape(-1)
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

    Each row contracts against ``psi(iterate)``, and the result divided
    by N goes into the quantized partial sum; the last row of a pass
    promotes the partial sum to be the next iterate and resets the sum
    to ``reset_code``, the code for zero.  Both are read from the state,
    decoded: nothing but the state crosses passes.  The block that
    starts pass 0 (t = 0, i0 = 0) reads ``start_code``, the code of
    ``init`` beside ``reset_code``, in place of the runner's all-zeros
    state, so pass 0 runs as every later pass does: its rows contract
    against ``decode(encode(init))`` and its sum starts at
    ``decode(reset_code)``, about half a step from zero.  Pair it with
    ``ResourceProfile(n_samples, T, 2*d*B)``.
    """

    def __init__(self, psi, quantizer: QuantizerSpec, d: int, n_samples: int, init):
        check_count("d", d)
        check_count("n_samples", n_samples)
        self.psi = psi
        self.quantizer = quantizer
        self.d = d
        self.n_samples = n_samples
        self.init = start_vector(PowerMethodConfig(init=init), d)
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
        # Cast as assigning into a uint8 array would.
        return np.concatenate([head, tail], dtype=np.uint8, casting="unsafe")

    def update_block(self, state, t, i0, rows):
        """The state after rows i0, i0+1, .. of pass t, bit for bit the
        state that re-encoding the partial sum after every row leaves
        (``tests/references.py`` keeps that row-by-row reference).

        The iterate is fixed within a pass, so the whole state is decoded
        once, ``psi`` is built once, and all rows are contracted by one
        stacked matmul, whose row j equals the single-row
        ``contract_batch``.  Only the partial sum is accumulated row by
        row, on lattice values, and coded once at the end from the levels
        of its last row, the levels half of ``QuantizerSpec._snap_block``,
        which are the levels ``encode`` finds for it.
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
        partial_bits = q._code(np.asarray(q._snap_block(values[d:], w)[1]))
        if i0 + len(rows) == n:
            # Pass boundary: the accumulated sum becomes the iterate and
            # the partial sum resets to the code for zero.
            return self._next_state(partial_bits, self.reset_code)
        return self._next_state(state[: self.state_bits // 2], partial_bits)

    def estimate(self, state):
        return unit(self.quantizer.decode(state[: self.state_bits // 2], self.d))[0]


def streaming_run(
    estimator: str,
    k: int,
    d: int,
    quantizer: QuantizerSpec,
    passes: int,
    n_samples: int,
    init,
) -> tuple[QuantizedIteration, ResourceProfile]:
    """The quantized streaming run of ``estimator``'s template on order-k
    samples in R^d, started from ``init``, and its ``ResourceProfile`` of
    ``(n_samples, passes, 2 * d * quantizer.bits)``."""
    algorithm = QuantizedIteration(TEMPLATES[estimator](k, d), quantizer, d, n_samples, init)
    return algorithm, ResourceProfile(n_samples, passes, algorithm.state_bits)


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
        A writer whose type is exactly ``int`` is checked inline.
        """
        bits = self.bits.view()
        bits.flags.writeable = False
        writers = self.writers.tolist()
        select_writer = protocol.select_writer
        m = self.m
        for t in range(len(bits)):
            writer = select_writer(t, bits[:t])
            if type(writer) is int:
                if not (0 <= writer < m and writer == writers[t]):
                    return False
            elif not _is_writer(writer, m) or writer != writers[t]:
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
    kind = block.dtype.kind
    if kind not in "uib":
        raise ValueError(f"protocol wrote non-bit values of dtype {block.dtype} at round {t}")
    if (kind != "i" or block.min() >= 0) and block.max() <= 1:
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
    A later-writers block that is an integer ndarray of the right shape
    holding only the block's writer is accepted by one comparison, since
    that writer is already checked; any other value is checked entry by
    entry.  Protocols get the transcript read-only.
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
            if (
                isinstance(later, np.ndarray)
                and later.dtype.kind in "ui"
                and later.shape == (end - stop,)
                and (later == writer).all()
            ):
                stop = end
            else:
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
        """The turn owners of rounds ``start .. stop - 1``: one ``np.full``
        when the range lies inside one turn, as it does for every block
        ``run_distributed`` asks about."""
        turn = start // self.s
        if stop <= (turn + 1) * self.s:
            return np.full(stop - start, turn % self.m)
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
    check_count("n", n)
    _check_profile(algorithm, profile)
    if profile.samples % n != 0:
        raise ValueError(f"n = {n} does not divide N = {profile.samples}")
    protocol = _StateHandoffProtocol(algorithm, profile, n)
    return protocol, profile.samples // n, n, profile.state_bits * profile.passes


def shard_stream(data: np.ndarray, n: int) -> list[np.ndarray]:
    """Split a stream into row-contiguous shards of n samples each."""
    check_count("n", n)
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
