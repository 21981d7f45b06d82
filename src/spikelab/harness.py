"""Bit-accounted execution models: streaming with bounded memory, and
blackboard protocols over sharded data, with an exact simulation of the
former by the latter.

A memory-bounded algorithm owns nothing but an s-bit state; the runner
feeds it finite samples in (pass, index) order, one pass per
``update_chunks`` call, and checks the state length and binariness after
every pass, so no side channel can carry extra information between
passes.  A blackboard protocol writes one public bit per round; the
writer choice may depend only on the transcript so far, and the bit
only on the writer's own shard plus the transcript.  A protocol names
its writers a run at a time (``writer_run``: a writer and the rounds it
holds, from the transcript before them) and hands the runner a block
of rounds' bits at once (``next_bits``), which may span several runs.
``Blackboard.audit`` replays the runs from transcript prefixes, and
``Blackboard.recompute`` replays each writer's rounds with only its own
shard visible.  Rows travel in one form: ``update_chunks`` takes one
``(count, rows, columns)`` array of equal chunks, and a protocol gets
every shard as one ``(m, n, columns)`` view (``shard_stream``).  Both
runners read a float64 stream in place, read-only, so nothing written
into a row survives to a later pass.  The reduction simulates a (N, T,
s) streaming algorithm with (N/n, n, s*T) blackboard parameters by
handing the full state across the board after every local pass; it
answers a whole pass of turns in one ``update_chunks`` call, and names
each turn as one writer run.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from spikelab.estimators import EstimateReport, PowerMethodConfig, build_report, start_vector
from spikelab.tensors import (
    check_count,
    check_entry_budget,
    check_even,
    check_finite,
    check_real,
    is_count,
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

    Subclasses set ``state_bits``, implement ``estimate`` (mapping the
    final state to an output vector), and either implement ``update``
    (returning the next state as a 0/1 uint8 vector of the same length)
    or override ``update_chunks`` to answer a stack of row blocks.  One
    that reads its pass length sets ``n_samples``, and the runners hold
    the profile's stream length to it; ``None`` takes any length.  The
    runner owns the state; implementations must not stash anything on
    ``self`` between calls.
    """

    state_bits: int
    n_samples: int | None = None

    def update(self, state: np.ndarray, t: int, i: int, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def update_chunks(self, state: np.ndarray, t: int, i0: int, chunks: np.ndarray) -> np.ndarray:
        """The states after each of ``chunks``, consecutive blocks of rows
        of pass t that start at row i0, as a ``(len(chunks), state_bits)``
        uint8 array.  ``chunks`` is one ``(count, rows, columns)`` array:
        ``count`` equal blocks, one after another.

        This default is the reference: one ``update`` per row, with the
        state checked after each, the next chunk starting from the state
        the last one left.  An override must return the same bits from
        ``state`` alone.
        """
        states = np.empty((len(chunks), self.state_bits), dtype=np.uint8)
        for c, rows in enumerate(chunks):
            for x in rows:
                state = _check_state(self.update(state, t, i0, x), (self.state_bits,))
                i0 += 1
            states[c] = state
        return states

    def estimate(self, state: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def _check_state(state, shape: tuple) -> np.ndarray:
    """``state`` as uint8; ``RuntimeError`` unless it holds only 0/1 bits
    in ``shape``, one state of s bits or a stack of them."""
    state = np.asarray(state)
    kind = state.dtype.kind
    if kind not in "uib":
        raise RuntimeError(f"state must hold bits, got dtype {state.dtype}")
    if state.shape != shape:
        raise RuntimeError(f"transition returned a state of {state.shape} bits, expected {shape}")
    if kind != "b" and (state.max() > 1 or (kind == "i" and state.min() < 0)):
        raise RuntimeError("state must be a 0/1 bit vector")
    return state.astype(np.uint8, copy=False)


def _read_only(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array``: a write through it raises
    ``ValueError``, and ``array`` itself stays writable."""
    view = array.view()
    view.flags.writeable = False
    return view


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
    which is one ``update_chunks`` call with the whole stream as its one
    chunk, ``data[None]``.  Rows must be finite, and the algorithm must
    agree with the profile (``_check_profile``).  The algorithm reads the
    rows through a read-only float64 view, so a write into them raises
    ``ValueError`` and cannot reach a later pass or the caller's array.
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
    data = _read_only(data)
    s = profile.state_bits
    state = np.zeros(s, dtype=np.uint8)
    for t in range(profile.passes):
        state = _check_state(algorithm.update_chunks(state, t, 0, data[None]), (1, s))[0]
    out = np.asarray(algorithm.estimate(state.copy()), dtype=np.float64)
    return build_report(t0, out, None, profile.passes, True, {"cost": profile.cost})


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
        check_real("radius", self.radius)
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

    def _snap_block(self, start: np.ndarray, steps: np.ndarray) -> np.ndarray:
        """The levels at every row of the ``snap`` loop ``start =
        snap(start + row)`` over the rows of ``steps``, where ``snap(v) =
        decode(encode(v)) = _levels(v) * step - radius``.

        ``start`` and ``steps`` are float64 arrays.  Row j of the
        ``steps.shape`` float64 result holds the levels that ``encode``
        finds for the loop's value after row j, whose value is ``level *
        step - radius``.

        A block of fewer than ``_SNAP_ARRAY_MIN`` row-coordinates runs the
        scalar loop ``_snap_loop``.  A longer one is guessed, checked and
        mended:

        - guess: rows 0 .. n - 2 only, the level of ``start`` plus the
          running sum of ``rint(steps / step)``, mapped back to
          ``level * step - radius``;
        - check: one ``_levels(prev + steps)`` over all n rows, where
          ``prev`` is ``start`` followed by the guessed rows, compared
          with the guess bit for bit (an int64 view, so a NaN or a signed
          zero must match exactly); its levels are the result;
        - mend: each coordinate whose guess differs resumes ``_snap_loop``
          from its checked value at its first difference, which lies
          before the last row, and the loop's levels overwrite the
          column's rows past that row.

        The check is exact by induction: ``snap`` of the true row j - 1
        plus ``steps[j]`` is the true row j, so along each coordinate
        every guessed row before the first difference is true, and so is
        every checked row up to it; a coordinate with no difference has
        every checked row true.  A clamp or a rounding tie the guess
        misses costs its coordinate one fallback, so the worst case is
        one array pass on top of the scalar loop.
        """
        if steps.size < _SNAP_ARRAY_MIN:
            levels = self._snap_loop(start.tolist(), steps.T.tolist())
            return np.array(levels, dtype=np.float64).reshape(steps.shape[::-1]).T
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
        # The per-column mask is built only when some guess missed.
        if wrong.any():
            columns = np.flatnonzero(wrong.any(axis=0))
            first = wrong[:, columns].argmax(axis=0)
            mended = self._snap_loop(
                check[first, columns].tolist(),
                [steps[j + 1 :, c].tolist() for j, c in zip(first.tolist(), columns.tolist())],
            )
            for c, j, column_levels in zip(columns.tolist(), first.tolist(), mended):
                checked[j + 1 :, c] = column_levels
        return checked

    def _snap_loop(self, starts: list, columns: list) -> list:
        """The ``snap`` loop of ``_snap_block`` on Python floats, each
        start down its column.

        Returns, for each column, the level its loop reaches after each
        of its steps; the value there is ``level * step - radius``.  The
        same IEEE operations in the same order as ``_levels``, one
        coordinate at a time, so each level is what ``_levels`` gives.
        Below 2^52, adding and subtracting 2^52 rounds half to even as
        ``np.rint`` does; from 2^52 up every float is an integer.  NaN
        passes through every step, as it does through ``_levels``.
        """
        radius, low, step = float(self.radius), -float(self.radius), self.step
        top, big = 2.0**self.bits - 1.0, 2.0**52
        out = []
        for value, column in zip(starts, columns):
            levels = []
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
                levels.append(level)
            out.append(levels)
        return out

    def encode(self, values: np.ndarray) -> np.ndarray:
        """Little-endian bit codes, ``bits`` per coordinate, flattened.

        ``_code(_levels(values))``; ``QuantizedIteration.update_chunks``
        codes the levels of its partial sums with ``_code`` directly.
        """
        return self._code(self._levels(np.asarray(values, dtype=np.float64).reshape(-1)))

    def _code(self, levels: np.ndarray) -> np.ndarray:
        octets = levels.astype("<u8", order="C").view(np.uint8).reshape(-1, 8)
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
    check_even("partial-trace template", k)
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
        # The lattice has no zero point, so a decoded coordinate lies in
        # [step/2, radius] in magnitude; the iterate's squared norm, which
        # ``unit`` takes, must neither overflow nor underflow to zero.
        radius, half_step = float(quantizer.radius), float(quantizer.step) / 2
        if math.isinf(d * radius * radius):
            raise ValueError(f"radius {radius} overflows the squared norm of {d} coordinates")
        if half_step * half_step == 0.0:
            raise ValueError(f"radius {radius} at {quantizer.bits} bits: half a step squares to 0")
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

    def update_chunks(self, state, t, i0, chunks):
        """The states after each chunk of rows, bit for bit the states
        that re-encoding the partial sum after every row leaves
        (``tests/references.py`` keeps that row-by-row reference).

        The iterate is fixed within a pass, so the whole state is decoded
        once, ``psi`` is built once, and the chunks' rows, read as one
        block through one reshape, are contracted by one stacked matmul,
        whose row j equals the single-row ``contract_batch``.  Only the
        partial sum is accumulated row by row, on lattice values, by one
        ``QuantizerSpec._snap_block``; its levels at each chunk's last row
        are the levels ``encode`` finds for that chunk's sum, and one
        ``_code`` codes them all.  A chunk that ends the pass makes its
        sum the iterate and resets the sum to ``reset_code``; chunks of
        no rows leave ``state``.
        """
        q, d, n, half = self.quantizer, self.d, self.n_samples, self.state_bits // 2
        rows = np.asarray(chunks, dtype=np.float64)
        count, size = rows.shape[:2]
        total = count * size
        if i0 + total > n:
            raise ValueError(f"rows {i0}..{i0 + total - 1} run past the pass of {n}")
        states = np.empty((count, 2 * half), dtype=np.uint8)
        if total == 0:
            states[:] = state
            return states
        if t == 0 and i0 == 0:
            state = self.start_code
        values = q.decode(state, 2 * d)
        w = (self.psi(values[:d]) @ rows.reshape(total, -1, d)) / n
        sums = q._code(q._snap_block(values[d:], w)[size - 1 :: size]).reshape(-1, half)
        # Every chunk holds rows, so only the last one can end the pass.
        boundary = count - 1 if i0 + total == n else count
        states[:boundary, :half] = state[:half]
        states[:boundary, half:] = sums[:boundary]
        states[boundary:, :half] = sums[boundary:]
        states[boundary:, half:] = self.reset_code
        return states

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

    ``writer_run(round_index, transcript)`` returns ``(writer, rounds)``:
    the writer holds the board for the ``rounds`` rounds from
    ``round_index`` on, and the hook sees only the transcript before
    them.  The runner and ``Blackboard.audit`` call it once at each run
    head; a one-bit protocol returns ``rounds = 1``.  A round's bit may
    depend only on its writer's shard and the prefix: ``next_bit`` sees
    that one shard, and ``next_bits``, which sees every shard and may
    answer for several runs at once, is held to the rule by
    ``Blackboard.recompute``.  ``estimate`` maps the final transcript
    alone to the output.
    """

    def writer_run(self, round_index: int, transcript: np.ndarray) -> tuple:
        raise NotImplementedError

    def next_bit(self, shard: np.ndarray, round_index: int, transcript: np.ndarray) -> int:
        raise NotImplementedError

    def next_bits(self, shards, round_index: int, transcript: np.ndarray):
        """Bits for rounds ``round_index``, ``round_index + 1``, .. at once.

        ``shards`` is one ``(m, n, columns)`` array of every machine's
        shard (``shards[j]`` is shard j), and a block may span several
        runs, but bit j must be what the writer of round ``round_index +
        j`` computes from its own shard and the transcript extended by
        bits 0..j-1.  This default returns the one ``next_bit`` bit of
        the writer that ``writer_run`` names at ``round_index``, checked
        (``_checked_run``) before it picks a shard, so a protocol that
        keeps it answers ``writer_run`` at every round.
        """
        run = self.writer_run(round_index, transcript)
        writer = _checked_run(run, round_index, len(shards), math.inf)[0]
        return [self.next_bit(shards[writer], round_index, transcript)]

    def estimate(self, transcript: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass
class Blackboard:
    """Public transcript: bits in write order plus the writer log.

    ``run_distributed`` logs the writers in the narrowest unsigned dtype
    that holds ``m - 1`` (``np.min_scalar_type``), one byte a round for
    m <= 256; ``dump_text``, ``audit`` and ``recompute`` read the values,
    so any integer array of the same values gives the same answers.
    """

    bits: np.ndarray
    writers: np.ndarray
    m: int
    n: int
    b: int

    def dump_text(self) -> str:
        """One ``"<round> <writer> <bit>"`` line per round."""
        rounds = range(len(self.bits))
        lines = map("{} {} {}".format, rounds, self.writers.tolist(), self.bits.tolist())
        return "\n".join(lines) + "\n"

    def audit(self, protocol: BlackboardProtocol) -> bool:
        """Replay the writer runs from read-only transcript prefixes alone.

        Fails unless the log holds one writer per round.  Walks the runs
        from round 0 as ``run_distributed`` takes them, one ``writer_run``
        call per run.  Fails at the first run that ``_checked_run``
        rejects or whose writer is not the logged writer of every round
        it holds.  An error the protocol raises propagates.
        """
        bits = _read_only(self.bits)
        rounds = len(bits)
        if len(self.writers) != rounds:
            return False
        heads, lengths = _runs(self.writers)
        # Each logged run's writer and the round after its last.
        owners = self.writers[heads].tolist()
        ends = (heads + lengths).tolist()
        head = logged = 0
        while head < rounds:
            run = protocol.writer_run(head, bits[:head])
            try:
                writer, length = _checked_run(run, head, self.m, rounds - head)
            except ValueError:
                return False
            while ends[logged] <= head:
                logged += 1
            if writer != owners[logged] or head + length > ends[logged]:
                return False
            head += length
        return True

    def recompute(self, protocol: BlackboardProtocol, shards) -> bool:
        """Recompute every logged writer's bits from its own shard and the
        written prefix alone.

        Fails unless the log holds one writer per round.  Each run of
        consecutive rounds of one writer goes through ``next_bits`` from
        its first round on, until the run is covered, with the shards
        handed over as one read-only ``(m, n, columns)`` stack that holds
        that writer's shard and zeros in every other machine's place; bits
        past the run are not compared.  Fails at the first run whose
        writer is not a machine index or whose bits differ from the
        board's.  The shards are checked as ``run_distributed`` checks
        them, and an error the protocol raises propagates.
        """
        shards = _checked_shards(shards, self.m, self.n)
        bits = _read_only(self.bits)
        writers = self.writers
        if len(writers) != len(bits):
            return False
        # One stack for every run: the writer's shard is copied in for its
        # run and zeroed after, so no run sees another machine's rows.
        stack = np.zeros_like(shards)
        visible = _read_only(stack)
        heads, lengths = _runs(writers)
        owners = writers[heads].tolist()
        for start, length, writer in zip(heads.tolist(), lengths.tolist(), owners):
            if not (is_count(writer, 0) and writer < self.m):
                return False
            stack[writer] = shards[writer]
            t, stop = start, start + length
            while t < stop:
                block = _bit_block(protocol.next_bits(visible, t, bits[:t]), t)
                end = min(t + block.size, stop)
                if not np.array_equal(block[: end - t], bits[t:end]):
                    return False
                t = end
            stack[writer] = 0
        return True


def _checked_run(run, head: int, m: int, left) -> tuple:
    """``run``, a ``writer_run`` answer at round ``head``, as Python ints
    ``(writer, rounds)``.

    ``ValueError`` naming ``head`` unless it is a pair of a machine index
    (an ``int`` or numpy integer in ``[0, m)``, not a bool) and a count of
    rounds (the same kind of integer, at least 1) no larger than
    ``left``, the rounds from ``head`` to the end of the board.
    """
    try:
        writer, rounds = run
    except (TypeError, ValueError):
        message = f"protocol gave {run!r} at round {head}, not a (writer, rounds) pair"
        raise ValueError(message) from None
    # The common answer, two exact ints, is checked inline.
    if type(writer) is int and type(rounds) is int and 0 <= writer < m and 0 < rounds <= left:
        return writer, rounds
    if not (is_count(writer, 0) and writer < m):
        raise ValueError(f"writer {writer} at round {head} is not a machine index in [0, {m})")
    if not is_count(rounds):
        raise ValueError(f"writer {writer} at round {head} holds {rounds} rounds, not a count >= 1")
    if rounds > left:
        raise ValueError(
            f"writer {writer} at round {head} holds {rounds} rounds, "
            f"past the last round {head + left - 1}"
        )
    return int(writer), int(rounds)


def _runs(writers: np.ndarray) -> tuple:
    """``(heads, lengths)`` of the runs of one writer in a writer array:
    the offset where each run begins (0, then every entry that differs
    from the one before) and the rounds it holds; none for no rounds."""
    if not len(writers):
        return (np.zeros(0, dtype=np.intp),) * 2
    changes = (writers[1:] != writers[:-1]).nonzero()[0]
    changes += 1
    heads = np.concatenate(([0], changes))
    lengths = np.empty_like(heads)
    lengths[:-1] = changes
    lengths[-1] = len(writers)
    lengths -= heads
    return heads, lengths


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


def _checked_shards(shards, m: int, n: int) -> np.ndarray:
    """A read-only float64 view of ``shards``, one ``(m, n, columns)`` array
    of finite values (read in place when float64; a list of equal shards is
    stacked); any other shape raises one ``ValueError`` naming m and n."""
    rule = f"shards must be one (m, n, columns) array with m = {m}, n = {n}"
    try:
        shards = np.asarray(shards, dtype=np.float64)
    except (TypeError, ValueError) as err:  # ragged, or not numbers
        raise ValueError(f"{rule}: {err}") from None
    if shards.ndim != 3 or shards.shape[:2] != (m, n):
        raise ValueError(f"{rule}, got shape {shards.shape}")
    # One finiteness pass over the array; shard by shard only to name the
    # first bad one.
    if not np.isfinite(shards).all():
        for j, shard in enumerate(shards):
            check_finite(shard, f"shard {j}")
    return _read_only(shards)


def run_distributed(
    protocol: BlackboardProtocol,
    shards: np.ndarray,
    m: int,
    n: int,
    b: int,
) -> tuple[EstimateReport, Blackboard]:
    """Run m*b rounds of one-bit writes and estimate from the transcript.

    From round t on, the runner writes the whole block ``next_bits``
    returns (up to the last round), then calls ``writer_run`` once at the
    head of each run that starts in the block; a run may reach past it.
    Each run is checked (``_checked_run``), and its rounds are charged to
    its writer's budget of b rounds; a machine past its budget raises
    ``RuntimeError``.  The writer log is built once from the runs, in
    ``np.min_scalar_type(m - 1)``.  The shards are one ``(m, n,
    columns)`` array of finite values, as ``shard_stream`` cuts them
    (``_checked_shards``).  Writers and bits are validated before any
    cast.  Protocols get the shards, in place for a float64 array, and
    the transcript, both through read-only views.  That each bit came
    from its writer's own shard is what ``Blackboard.recompute`` checks.
    """
    t0 = time.perf_counter()
    shards = _checked_shards(shards, m, n)
    rounds = m * b
    bits = np.zeros(rounds, dtype=np.uint8)
    # Protocols see the transcript through one read-only view, so no bit
    # on the board can be rewritten after its round.
    transcript = _read_only(bits)
    owners, lengths = [], []
    written = [0] * m
    t = head = 0
    while t < rounds:
        block = _bit_block(protocol.next_bits(shards, t, transcript[:t]), t)
        end = min(t + block.size, rounds)
        bits[t:end] = block[: end - t]
        while head < end:
            run = protocol.writer_run(head, transcript[:head])
            writer, length = _checked_run(run, head, m, rounds - head)
            written[writer] += length
            if written[writer] > b:
                raise RuntimeError(f"machine {writer} selected for more than b = {b} rounds")
            owners.append(writer)
            lengths.append(length)
            head += length
        t = end
    if any(count != b for count in written):
        raise RuntimeError(f"per-machine round counts {written} != b = {b}")
    writers = np.repeat(
        np.array(owners, dtype=np.min_scalar_type(m - 1)), np.array(lengths, dtype=np.intp)
    )
    out = np.asarray(protocol.estimate(bits.copy()), dtype=np.float64)
    board = Blackboard(bits=bits, writers=writers, m=m, n=n, b=b)
    return build_report(t0, out, None, rounds, True, {"transcript_bits": rounds}), board


# ---------------------------------------------------------------------------
# simulation reduction


class _StateHandoffProtocol(BlackboardProtocol):
    """Blackboard simulation of a streaming algorithm.

    Turn q (a block of s consecutive rounds) belongs to machine q mod m
    and simulates pass q // m of the streaming run over that machine's
    shard, starting from the state written in turn q - 1 (all zeros for
    q = 0).  Every machine takes exactly T turns, so it writes exactly
    s*T = b bits.  Nothing is memoized: ``next_bits`` hands the runner
    the rest of a pass, each turn's state a function of its machine's
    shard and the state written in the turn before, from one
    ``update_chunks`` call, so ``run_distributed`` computes each pass
    once.
    """

    def __init__(self, algorithm: MemoryBoundedAlgorithm, profile: ResourceProfile, n: int):
        self.algorithm = algorithm
        self.n = n
        self.m = profile.samples // n
        self.s = profile.state_bits

    def writer_run(self, round_index, transcript):
        """Machine ``turn % m`` holds the rest of turn ``round_index // s``."""
        turn, offset = divmod(round_index, self.s)
        return turn % self.m, self.s - offset

    def next_bits(self, shards, round_index, transcript):
        """Round ``round_index`` to the end of its pass: the turn's state
        from its offset on, then the states of the pass's later turns."""
        s = self.s
        turn, offset = divmod(round_index, s)
        if turn == 0:
            prev = np.zeros(s, dtype=np.uint8)
        else:
            prev = np.asarray(transcript[(turn - 1) * s : turn * s], dtype=np.uint8)
        t, machine = divmod(turn, self.m)
        states = self.algorithm.update_chunks(prev, t, machine * self.n, shards[machine:])
        return _check_state(states, (self.m - machine, s)).reshape(-1)[offset:]

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


def shard_stream(data: np.ndarray, n: int) -> np.ndarray:
    """The stream's row-contiguous shards of n rows each, one ``(N/n, n, columns)`` view."""
    check_count("n", n)
    data = np.asarray(data)
    if data.shape[0] % n != 0:
        raise ValueError(f"n = {n} does not divide {data.shape[0]} rows")
    return data.reshape(data.shape[0] // n, n, *data.shape[1:])


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
