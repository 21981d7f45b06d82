"""Streaming and blackboard execution: accounting, quantization, and the
exact simulation of one model by the other."""

import contextlib
import functools
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spikelab import harness
from spikelab.config import HarnessSettings
from spikelab.estimators import PowerMethodConfig, tensor_power_method
from spikelab.harness import (
    Blackboard,
    BlackboardProtocol,
    MemoryBoundedAlgorithm,
    QuantizedIteration,
    QuantizerSpec,
    ResourceProfile,
    _checked_shards,
    partial_trace_template,
    power_template,
    reduce_memory_to_distributed,
    replay,
    run_distributed,
    run_memory_bounded,
    shard_stream,
)
from spikelab.models import ModelSpec, sample_tpca
from spikelab.tensors import contract_batch

from references import (
    charge_runs,
    code_levels,
    level_code,
    row_by_row,
    snap,
    snap_sum,
    turn_by_turn,
)


class XorFold(MemoryBoundedAlgorithm):
    """One-bit state: XOR of the sign bit of the first coordinate."""

    state_bits = 1

    def update(self, state, t, i, x):
        return state ^ np.array([1 if x[0] < 0 else 0], dtype=np.uint8)

    def estimate(self, state):
        return state.astype(np.float64)


class ByteCounter(MemoryBoundedAlgorithm):
    """Eight-bit state: count of positive first coordinates mod 256."""

    state_bits = 8

    def update(self, state, t, i, x):
        value = int((state * (1 << np.arange(8))).sum())
        value = (value + (1 if x[0] > 0 else 0)) % 256
        return ((value >> np.arange(8)) & 1).astype(np.uint8)

    def estimate(self, state):
        return np.array([float((state * (1 << np.arange(8))).sum())])


def power_batch(k=2, d=4, snr=5.0, n=32, seed=0):
    spec = ModelSpec.tpca(k=k, d=d, snr=snr, seed=seed)
    return spec, sample_tpca(spec, n=n, seed=seed + 1)


def float_iterates(matvec, init, steps):
    u = init / np.linalg.norm(init)
    for _ in range(steps):
        w = matvec(u)
        u = w / np.linalg.norm(w)
    return u


# ---------------------------------------------------------------------------
# resource accounting and state discipline


def test_resource_profile_cost_is_exact_big_integer():
    profile = ResourceProfile(samples=10**12, passes=10**6, state_bits=10**6)
    assert profile.cost == 10**24
    with pytest.raises(ValueError, match="passes"):
        ResourceProfile(samples=1, passes=0, state_bits=1)


def test_xor_fold_equals_direct_fold():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((40, 3))
    report = run_memory_bounded(
        XorFold(), data, ResourceProfile(samples=40, passes=1, state_bits=1)
    )
    direct = 0
    for row in data:
        direct ^= 1 if row[0] < 0 else 0
    assert report.estimate[0] == float(direct)
    assert report.info["cost"] == 40
    assert report.wall_ms > 0


def test_runner_rejects_wrong_length_state():
    class Bad(XorFold):
        def update(self, state, t, i, x):
            return np.zeros(2, dtype=np.uint8)

    data = np.zeros((4, 2))
    with pytest.raises(RuntimeError, match="bits"):
        run_memory_bounded(Bad(), data, ResourceProfile(4, 1, 1))

    class Flat(ByteCounter):
        # One flat state where the runner expects a stack of one.
        def update_chunks(self, state, t, i0, chunks):
            return super().update_chunks(state, t, i0, chunks)[-1]

    with pytest.raises(RuntimeError, match=r"\(8,\) bits, expected \(1, 8\)"):
        run_memory_bounded(Flat(), data, ResourceProfile(4, 1, 8))


def test_runner_rejects_non_binary_state():
    class Bad(XorFold):
        def update(self, state, t, i, x):
            return np.array([2], dtype=np.uint8)

    with pytest.raises(RuntimeError, match="0/1"):
        run_memory_bounded(Bad(), np.zeros((2, 2)), ResourceProfile(2, 1, 1))

    class Sneaky(XorFold):
        def update(self, state, t, i, x):
            return np.array([0.5])

    with pytest.raises(RuntimeError, match="dtype"):
        run_memory_bounded(Sneaky(), np.zeros((2, 2)), ResourceProfile(2, 1, 1))

    class Negative(XorFold):
        def update_chunks(self, state, t, i0, chunks):
            return np.full((len(chunks), 1), -1, dtype=np.int8)  # 255 once cast to uint8

    with pytest.raises(RuntimeError, match="0/1"):
        run_memory_bounded(Negative(), np.zeros((2, 2)), ResourceProfile(2, 1, 1))


def test_runner_checks_stream_shape():
    with pytest.raises(ValueError, match="rows"):
        run_memory_bounded(XorFold(), np.zeros((3, 2)), ResourceProfile(4, 1, 1))
    with pytest.raises(ValueError, match="declares 1 state bits, profile says 2"):
        run_memory_bounded(XorFold(), np.zeros((4, 2)), ResourceProfile(4, 1, 2))


@pytest.mark.parametrize("n_samples", [32, 8], ids=["shorter", "longer"])
def test_runners_hold_the_stream_to_the_algorithms_pass_length(n_samples):
    # A 16-row stream is shorter (longer) than a pass of 32 (8) rows.
    # Unchecked, the 32-row pass never reached its boundary: both runners
    # returned the quantized init and reported 5 passes.
    _, batch = power_batch(k=2, d=3, snr=5.0, n=16, seed=60)
    algo = QuantizedIteration(power_template(2), QuantizerSpec(16, 8.0), 3, n_samples, np.ones(3))
    profile = ResourceProfile(16, 5, algo.state_bits)
    match = f"passes of {n_samples} samples, profile says 16"
    with pytest.raises(ValueError, match=match):
        run_memory_bounded(algo, batch.data, profile)
    with pytest.raises(ValueError, match=match):
        replay(algo, batch.data, profile, 8)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_runners_reject_non_finite_rows(bad):
    # Unchecked, a NaN row streams to an estimate: the codec's uint64
    # cast turns the NaN partial sum into an arbitrary code.
    _, batch = power_batch(k=2, d=4, snr=5.0, n=16, seed=50)
    data = batch.data.copy()
    data[5, 2] = bad
    algo = QuantizedIteration(power_template(2), QuantizerSpec(8, 8.0), 4, 16, np.ones(4))
    profile = ResourceProfile(16, 3, algo.state_bits)
    with pytest.raises(ValueError, match="non-finite"):
        run_memory_bounded(algo, data, profile)
    protocol, m, n, b = reduce_memory_to_distributed(algo, profile, 4)
    with pytest.raises(ValueError, match="shard 1 holds a non-finite"):
        run_distributed(protocol, shard_stream(data, n), m, n, b)


# ---------------------------------------------------------------------------
# quantizer


@given(
    st.lists(
        st.floats(min_value=-200.0, max_value=200.0, allow_nan=False),
        min_size=1,
        max_size=8,
    ),
    st.integers(min_value=2, max_value=52),
)
@settings(max_examples=100, deadline=None)
def test_quantizer_roundtrip_error_bound(values, bits):
    q = QuantizerSpec(bits=bits, radius=64.0)
    x = np.array(values)
    back = q.decode(q.encode(x), len(values))
    clamped = np.clip(x, -64.0, 64.0)
    assert np.all(np.abs(back - clamped) <= 64.0 * 2.0 ** (1 - bits) + 1e-12)


def test_quantizer_ties_round_to_even():
    q = QuantizerSpec(bits=4, radius=7.5)  # lattice -7.5, -6.5, .., 7.5
    assert q.step == pytest.approx(1.0)
    back = q.decode(q.encode(np.array([-7.0, -6.0])), 2)
    # -7.0 sits between levels 0 and 1 -> even level 0; -6.0 between
    # levels 1 and 2 -> even level 2.
    assert back[0] == pytest.approx(-7.5)
    assert back[1] == pytest.approx(-5.5)


def test_quantizer_one_bit_edge():
    q = QuantizerSpec(bits=1, radius=3.0)
    back = q.decode(q.encode(np.array([-5.0, 5.0, 0.5])), 3)
    assert set(np.round(back, 6)) <= {-3.0, 3.0}


def test_quantizer_validation():
    with pytest.raises(ValueError, match="bits"):
        QuantizerSpec(bits=0)
    with pytest.raises(ValueError, match="radius"):
        QuantizerSpec(radius=0.0)
    # At 54 bits the top level rounds to 2^54 and +radius came back as
    # -radius, and at 53 a middle level decodes to 0.0; the codec stops
    # at 52, and so does the config.
    for bits in (53, 54):
        with pytest.raises(ValueError, match=r"bits per coordinate must be in \[1, 52\]"):
            QuantizerSpec(bits=bits, radius=1.0)
        with pytest.raises(ValueError, match="bits"):
            HarnessSettings(bits=bits)
    assert HarnessSettings(bits=52).bits == 52
    # The step must be a finite, normal, positive float: at an infinite
    # step every snap was NaN, and at 1e-320 and 52 bits the step is 0,
    # which snapped -radius to NaN.  [harness] runs the same checks.
    bad = [
        (32, math.nan),
        (32, math.inf),
        (1, 1e308),
        (32, 1e308),
        (52, 1e-320),
        (1, 1e-320),
        (52, 1e-293),
    ]
    for bits, radius in bad:
        with pytest.raises(ValueError, match="radius"):
            QuantizerSpec(bits=bits, radius=radius)
        with pytest.raises(ValueError, match="radius"):
            HarnessSettings(bits=bits, radius=radius)
    for bits, radius in [(1, 8e307), (52, 1e-291), (1, 1.2e-308)]:
        q = QuantizerSpec(bits=bits, radius=radius)
        assert math.isfinite(q.step) and q.step >= 2.0**-1022
        assert HarnessSettings(bits=bits, radius=radius).radius == radius


def test_quantized_iteration_rejects_a_radius_the_iterate_norm_cannot_hold():
    # An 8- or 1-bit lattice has no zero point, so each decoded coordinate
    # lies in [step/2, radius] in magnitude.  At d = 3, d * radius^2
    # overflows from radius ~7.7e153 on, and at 1 bit (step/2)^2
    # underflows to zero below radius ~1.6e-162; past either boundary
    # ``unit`` used to raise "iterate collapsed" mid-run.  Inside both a
    # run ends with a unit estimate.
    batch = sample_tpca(ModelSpec.tpca(2, 3, 3.0), 8, 1)

    def iteration(bits, radius):
        return QuantizedIteration(power_template(2), QuantizerSpec(bits, radius), 3, 8, np.ones(3))

    for bits, radius in [(8, 7e153), (1, 1e-161)]:
        algorithm = iteration(bits, radius)
        profile = ResourceProfile(8, 2, algorithm.state_bits)
        report = run_memory_bounded(algorithm, batch.data, profile)
        assert np.linalg.norm(report.estimate) == pytest.approx(1.0, rel=0.1)
    for bits, radius, message in [(8, 8e153, "overflows"), (1, 1e-163, "squares to 0")]:
        with pytest.raises(ValueError, match=message):
            iteration(bits, radius)


@pytest.mark.parametrize("bits, radius", [(52, 1.0), (52, 0.7), (52, 95.0)])
def test_quantizer_keeps_both_ends_at_high_bits(bits, radius):
    # (2 * radius) / step can round up to level 2^bits, which has no
    # code; at 52 bits that happened for radius 0.7 before the cap.
    q = QuantizerSpec(bits=bits, radius=radius)
    ends = np.array([radius, -radius])
    back = q.decode(q.encode(ends), 2)
    np.testing.assert_allclose(back, ends, rtol=0, atol=q.step)
    np.testing.assert_array_equal(snap(q, ends), back)


# Random radius mantissas in [1, 2): a power of two scales the step and
# every decoded value exactly, so these stand for every radius whose
# step is normal.
MANTISSAS = np.random.default_rng(53).uniform(1.0, 2.0, 1 << 16)


def middle_decodes(bits: int, radius: np.ndarray) -> np.ndarray:
    """``decode`` of levels 2^(bits-1) - 1 and 2^(bits-1) for each radius,
    by the codec's own float operations, one row per radius."""
    step = 2.0 * radius / (2.0**bits - 1.0)
    levels = np.array([2.0 ** (bits - 1) - 1.0, 2.0 ** (bits - 1)])
    return levels[None, :] * step[:, None] - radius[:, None]


@pytest.mark.parametrize("bits", range(1, 53))
def test_no_radius_puts_a_lattice_point_at_zero(bits):
    for exponent in (0, -10, 10, 100):
        radius = MANTISSAS * 2.0**exponent
        middle = middle_decodes(bits, radius)
        assert not (middle == 0.0).any()
        assert (middle[:, 0] < 0).all() and (middle[:, 1] > 0).all()
        np.testing.assert_array_equal(middle, middle_decodes(bits, MANTISSAS) * 2.0**exponent)
    # The sweep computes what the codec decodes, bit for bit.
    top = 2 ** (bits - 1)
    code = [(level >> j) & 1 for level in (top - 1, top) for j in range(bits)]
    for radius in (1.0, 0.7, 64.0, 95.0):
        middle = QuantizerSpec(bits, radius).decode(np.array(code, dtype=np.uint8), 2)
        assert middle.tobytes() == middle_decodes(bits, np.array([radius])).tobytes()
        assert (middle != 0.0).all()


def test_53_bits_would_put_a_lattice_point_at_zero():
    # Why the codec stops at 52: at 53 about half of all radii decode a
    # middle level to exactly 0.0.
    assert (middle_decodes(53, MANTISSAS) == 0.0).any(axis=1).mean() > 0.45
    with pytest.raises(ValueError, match="bits"):
        QuantizerSpec(53, 1.0)


def test_a_52_bit_run_on_zero_rows_keeps_a_unit_estimate():
    # At 53 bits this run decoded the reset sum to 0.0 and raised
    # "iterate collapsed to numerical zero".
    q = QuantizerSpec(52, 1.0)
    algorithm = QuantizedIteration(power_template(2), q, 3, 4, np.ones(3))
    profile = ResourceProfile(4, 2, algorithm.state_bits)
    report = run_memory_bounded(algorithm, np.zeros((4, 9)), profile)
    assert np.linalg.norm(report.estimate) == pytest.approx(1.0)


def test_a_nan_contribution_raises_naming_its_pass_and_row():
    # inf - inf in the contraction has no level; the codec's cast used to
    # code it as an arbitrary level, and the run returned an estimate.
    q = QuantizerSpec(8, 1.0)
    nan_rows = QuantizedIteration(lambda u: np.array([np.inf, -np.inf, 0.0]), q, 3, 4, np.ones(3))
    profile = ResourceProfile(4, 1, nan_rows.state_bits)
    with pytest.raises(ValueError, match=r"^pass 0, row 0: .*NaN$"):
        run_memory_bounded(nan_rows, np.ones((4, 9)), profile)
    # A later pass, the second of two chunks: inf + inf is legal, and
    # sends a level to the top; row 2 meets inf - inf in coordinate 0.
    rows = np.zeros((2, 2, 3, 3))
    rows[:, :, 0], rows[:, :, 1] = 1.0, -1.0
    rows[1, 0, 1, 0] = 1.0
    rows = rows.reshape(2, 2, 9)
    with pytest.raises(ValueError, match=r"^pass 1, row 2: "):
        nan_rows.update_chunks(nan_rows.start_code, 1, 0, rows)
    states = nan_rows.update_chunks(nan_rows.start_code, 1, 0, rows[:1])
    assert code_levels(q, states[0, 3 * q.bits :]) == [255, 255, 255]


@contextlib.contextmanager
def clamp_walk_calls():
    """Record the (level, moves) of every ``harness._clamp_walk`` call, one
    for each column of a walk that leaves the lattice."""
    calls = []
    walk = harness._clamp_walk

    def spy(level, moves, top):
        calls.append((level, list(moves)))
        return walk(level, moves, top)

    with mock.patch.object(harness, "_clamp_walk", spy):
        yield calls


@st.composite
def snap_sum_cases(draw):
    """A codec, integer start levels on its lattice and rows of steps.

    Short blocks draw every entry, infinite ones included.  Long ones
    mix the same kinds of entry from a drawn numpy seed, with a fourth
    kind like a streamed mean's: normal steps of radius / rows.  A mix
    of the clamping kind alone makes every row of a column clamp.
    """
    bits = draw(st.sampled_from([1, 52]) | st.integers(min_value=1, max_value=52))
    if draw(st.booleans()):
        # step = 2^e exactly, so an odd number of half steps is an exact
        # tie (up to 52 bits).
        radius = (2.0**bits - 1.0) * 2.0 ** draw(st.integers(min_value=-7, max_value=5))
    else:
        radius = draw(st.sampled_from([0.05, 0.7, 1.0, 8.0, 95.0, 1e6]))
    q = QuantizerSpec(bits=bits, radius=radius)
    top = 2**bits - 1
    ends = [radius, -radius, 2 * radius, -2 * radius]
    entry = st.one_of(
        st.floats(min_value=-3 * radius, max_value=3 * radius),
        st.integers(min_value=-9, max_value=9).map(lambda h: h * (q.step / 2)),
        st.sampled_from([*ends, math.inf, -math.inf]),
    )
    if draw(st.booleans()):
        d = draw(st.integers(min_value=1, max_value=4))
        n_rows = draw(st.integers(min_value=1, max_value=10))
        steps = np.array(draw(st.lists(entry, min_size=n_rows * d, max_size=n_rows * d)))
    else:
        d = draw(st.integers(min_value=1, max_value=8))
        n_rows = draw(st.integers(min_value=11, max_value=300))
        rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
        shape = (n_rows, d)
        kinds = np.stack([
            rng.uniform(-3 * radius, 3 * radius, shape),
            rng.integers(-9, 10, shape) * (q.step / 2),
            rng.choice(ends, shape),
            rng.standard_normal(shape) * (radius / n_rows),
        ])
        mix = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4))
        steps = np.take_along_axis(kinds, rng.choice(mix, shape)[None], axis=0)[0]
    level = st.sampled_from([0, top, top // 2, (top + 1) // 2]) | st.integers(0, top)
    start = np.array(draw(st.lists(level, min_size=d, max_size=d)), dtype=np.int64)
    return q, start, steps.astype(np.float64).reshape(n_rows, d)


@given(snap_sum_cases())
@example((QuantizerSpec(bits=52, radius=0.7), np.zeros(2, np.int64), np.array([[5.0, -0.7]])))
@example((QuantizerSpec(bits=1, radius=3.0), np.array([0, 1]), np.array([[-9.0, 9.0], [9.0, 1.0]])))
@example((QuantizerSpec(bits=4, radius=7.5), np.array([15, 0]), np.array([[7.0, -0.5], [-1.0, 2.0]])))
@settings(max_examples=300, deadline=None)
def test_snap_sum_equals_the_snap_loop(case):
    # The walk's levels at every row are the one-row-at-a-time integer
    # loop's, at 1..52 bits, through clamps at both ends.
    q, start, steps = case
    top = 2**q.bits - 1
    with clamp_walk_calls() as calls:
        got = q._walk(start, steps)
    expected = snap_sum(q, start, steps)
    assert got.dtype == np.int64 and got.tobytes() == expected.tobytes()
    # At most one restart per column, each from a level past an end, with
    # the moves of the rows after it.
    assert len(calls) <= len(start)
    for level, moves in calls:
        assert not 0 <= level <= top
        assert len(moves) < len(steps)


def lattice_block(rows=64, d=4):
    """A codec whose step is 1/4, a start at an odd level, even steps.

    Every step is an even number of lattice steps (-2, 0 or 2 levels)
    and the levels stay far from both ends, so no column restarts unless
    a test plants a clamp.  A planted tie (half a step more) moves its
    level by the even neighbour of its own move: 2.5 and 0.5 levels
    round to 2 and 0, -1.5 to -2.
    """
    q = QuantizerSpec(bits=8, radius=255 / 8)
    assert q.step == 0.25
    start = np.full(d, 129, dtype=np.int64)
    steps = np.random.default_rng(5).integers(-1, 2, (rows, d)) * (2 * q.step)
    return q, start, steps


def moves(q, column):
    """The level moves of a column of finite steps, rounded half to even."""
    return [round(w / q.step) for w in column.tolist()]


@pytest.mark.parametrize("planted", ["tie", "clamp"])
@pytest.mark.parametrize("j", [0, 17, 62, 63])
def test_snap_sum_resumes_the_loop_after_a_planted_miss(planted, j):
    q, start, steps = lattice_block()
    with clamp_walk_calls() as calls:
        q._walk(start, steps)
    assert calls == []
    c = 2
    steps[j, c] += q.step / 2 if planted == "tie" else 2 * q.radius
    with clamp_walk_calls() as calls:
        got = q._walk(start, steps)
    assert got.tobytes() == snap_sum(q, start, steps).tobytes()
    if planted == "tie":
        # The tie rounds its own move, so no level leaves the lattice.
        assert calls == []
        return
    # One restart, of coordinate c, from its unclamped level at row j,
    # with the moves after it (none after the last row).  A planted move
    # of 2 + 255 levels saturates at 2^8.
    (level, after), = calls
    planted_move = min(moves(q, steps[j : j + 1, c])[0], 2**q.bits)
    assert level == start[c] + sum(moves(q, steps[:j, c])) + planted_move
    assert after == moves(q, steps[j + 1 :, c])
    assert got[j, c] == 2**q.bits - 1


def test_snap_sum_resumes_each_missed_coordinate_once():
    q, start, steps = lattice_block()
    # Coordinates 0 and 3 leave the lattice at rows 5 and 40; 1 and 2
    # never do.
    steps[5, 0] = -2 * q.radius
    steps[40, 3] = 2 * q.radius
    steps[41, 3] = -3 * q.step
    with clamp_walk_calls() as calls:
        got = q._walk(start, steps)
    assert got.tobytes() == snap_sum(q, start, steps).tobytes()
    assert [level for level, _ in calls] == [
        start[0] + sum(moves(q, steps[:6, 0])),
        start[3] + sum(moves(q, steps[:41, 3])),
    ]
    assert calls[0][0] < 0 < 2**q.bits - 1 < calls[1][0]
    assert [after for _, after in calls] == [moves(q, steps[6:, 0]), moves(q, steps[41:, 3])]
    assert (got[5, 0], got[40, 3], got[41, 3]) == (0, 255, 252)


def test_snap_sum_overflowing_guess_is_silent():
    # steps / step would overflow to +-inf; the walk clips each step to
    # 2^bits lattice steps first, so each move saturates and nothing
    # warns.  The step (about 2.2e-299) is normal, as the codec requires,
    # and small enough that a 1e10 step overflows.
    q = QuantizerSpec(bits=52, radius=1e-283)
    steps = np.resize([1e10, -1e10], (64, 4))
    assert 1e10 / q.step == math.inf
    start = np.zeros(4, dtype=np.int64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = q._walk(start, steps)
    assert got.tobytes() == snap_sum(q, start, steps).tobytes()
    assert got[-1].tolist() == [2**52 - 1, 0, 2**52 - 1, 0]


def test_walk_saturates_a_1e_161_radius_without_a_warning():
    # At 1 bit and radius 1e-161, w / step reaches 5e160 for w = 1: a
    # finite float that no int64 holds.  Saturated at about 2 levels,
    # every move sends its level to an end.
    q = QuantizerSpec(bits=1, radius=1e-161)
    steps = np.array([[1.0, -1.0, 1e300, -math.inf], [-1.0, 1.0, -1e-100, math.inf]])
    assert abs(steps[0, 0] / q.step) > 2.0**63
    start = np.array([0, 1, 0, 1], dtype=np.int64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = q._walk(start, steps)
    assert got.tolist() == [[1, 0, 1, 0], [0, 1, 0, 1]]
    assert got.tobytes() == snap_sum(q, start, steps).tobytes()


def test_walk_of_4096_saturating_rows_at_52_bits():
    # 4,096 moves of 2^52 levels sum to 2^64, past int64: unsaturated, a
    # running sum would wrap.  The walk restarts each column at its first
    # clamp and keeps every level on the lattice.
    q = QuantizerSpec(bits=52, radius=1.0)
    top = 2**52 - 1
    up = np.full(4096, math.inf)
    steps = np.stack([up, -up, np.resize([1e300, -1e300], 4096), np.r_[up[:2048], -up[:2048]]], 1)
    assert 4096 * 2**52 > np.iinfo(np.int64).max
    start = np.array([0, top, top // 2, 1], dtype=np.int64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = q._walk(start, steps)
    assert got.tobytes() == snap_sum(q, start, steps).tobytes()
    assert got[-1].tolist() == [top, 0, 0, 0]
    assert got.min() >= 0 and got.max() == top


def one_row():
    """One row on the ``lattice_block`` codec: an even step, a tie, a
    clamp past each end."""
    q, start, _ = lattice_block(rows=1)
    return q, start, np.array([[0.5, q.step / 2, 40.0, -80.0]])


def recompute_chunk():
    """A 64-entry block, the size of one recompute chunk on the bench's
    protocol point (8 rows of d = 8), with a tie and clamps at both
    ends."""
    q, start, steps = lattice_block(rows=8, d=8)
    steps[0, :3] = [q.step / 2, 40.0, -80.0]
    steps[7, 3:5] = [40.0, -80.0]
    return q, start, steps


@given(snap_sum_cases())
@example(lattice_block())  # no column restarts
@example(one_row())
@example(recompute_chunk())
@example((QuantizerSpec(bits=52, radius=0.7), np.zeros(2, np.int64), np.array([[5.0, 0.7]])))
@example((QuantizerSpec(bits=4, radius=7.5), np.array([7, 8]), np.array([[0.5, -0.5]])))  # ties
@settings(max_examples=300, deadline=None)
def test_last_levels_equal_the_levels_of_the_snapped_sum(case):
    # The last row's levels, the ones a chunk's state holds, are the
    # integer loop's, and ``_code`` codes them as their low bits.
    q, start, steps = case
    last = q._walk(start, steps)[-1]
    expected = snap_sum(q, start, steps)[-1]
    assert last.tobytes() == expected.tobytes()
    assert q._code(last).tobytes() == level_code(q, expected).tobytes()
    assert code_levels(q, q._code(last)) == expected.tolist()


@given(snap_sum_cases(), st.data())
@settings(max_examples=200, deadline=None)
def test_marked_levels_equal_the_snap_loop_at_every_mark(case, data):
    # Every row, with a planted clamp past either end or a tie: a clamp
    # restarts its column, and the restart's levels fill every later row
    # of that column.
    q, start, steps = case
    n_rows, d = steps.shape
    j = data.draw(st.integers(min_value=0, max_value=n_rows - 1))
    c = data.draw(st.integers(min_value=0, max_value=d - 1))
    steps = steps.copy()
    steps[j, c] = data.draw(st.sampled_from([q.step / 2, 2 * q.radius, -2 * q.radius]))
    assert q._walk(start, steps).tobytes() == snap_sum(q, start, steps).tobytes()


def shift_mask_encode(q, values):
    """The shift-and-mask encoder the packed codec replaced, as a reference."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    levels = q._levels(values).astype(np.uint64)
    shifts = np.arange(q.bits, dtype=np.uint64)
    bits = (levels[:, None] >> shifts[None, :]) & np.uint64(1)
    return bits.astype(np.uint8).reshape(-1)


def shift_mask_decode(q, bits, count):
    """The multiply-and-sum decoder the packed codec replaced."""
    bits = np.asarray(bits, dtype=np.uint64).reshape(count, q.bits)
    weights = np.uint64(1) << np.arange(q.bits, dtype=np.uint64)
    levels = (bits * weights[None, :]).sum(axis=1)
    return levels.astype(np.float64) * q.step - q.radius


@st.composite
def codec_cases(draw):
    """A codec, values out to 3 radii, and codes of the same count."""
    bits = draw(st.sampled_from([1, 52]) | st.integers(min_value=1, max_value=52))
    radius = draw(
        st.sampled_from([0.05, 0.7, 1.0, 8.0, 95.0, 1e6])
        | st.floats(min_value=1e-3, max_value=1e9)
    )
    q = QuantizerSpec(bits=bits, radius=radius)
    entry = st.floats(min_value=-3 * radius, max_value=3 * radius) | st.sampled_from(
        [0.0, radius, -radius, 3 * radius, -3 * radius]
    )
    values = np.array(draw(st.lists(entry, min_size=1, max_size=8)), dtype=np.float64)
    size = len(values) * bits
    code = draw(
        st.sampled_from([np.zeros(size, np.uint8), np.ones(size, np.uint8)])
        | st.lists(st.integers(0, 1), min_size=size, max_size=size).map(
            lambda b: np.array(b, dtype=np.uint8)
        )
    )
    return q, values, code


@given(codec_cases())
@example((QuantizerSpec(bits=52, radius=1.0), np.array([1.0, -1.0, 0.0]), np.ones(156, np.uint8)))
@example((QuantizerSpec(bits=1, radius=3.0), np.array([-9.0, 9.0]), np.zeros(2, np.uint8)))
@settings(max_examples=300, deadline=None)
def test_packed_codec_equals_shift_mask_reference(case):
    q, values, code = case
    encoded = q.encode(values)
    assert encoded.dtype == np.uint8
    assert encoded.tobytes() == shift_mask_encode(q, values).tobytes()
    count = len(values)
    decoded = q.decode(code, count)
    assert decoded.dtype == np.float64
    assert decoded.tobytes() == shift_mask_decode(q, code, count).tobytes()
    assert q.decode(encoded, count).tobytes() == snap(q, values).tobytes()


# ---------------------------------------------------------------------------
# quantized iteration wrappers


def test_wrapped_power_method_high_precision_matches_float():
    spec, batch = power_batch(k=2, d=4, snr=5.0, n=32)
    init = np.array([1.0, 0.3, -0.2, 0.5])
    passes = 10
    q = QuantizerSpec(bits=52, radius=64.0)
    algo = QuantizedIteration(power_template(2), q, 4, batch.n, init)
    profile = ResourceProfile(batch.n, passes, algo.state_bits)
    report = run_memory_bounded(algo, batch.data, profile)

    cfg = PowerMethodConfig(max_iters=passes, tol=1e-300, init=init)
    float_report = tensor_power_method(batch, cfg)
    gap = 1.0 - abs(float(report.estimate @ float_report.estimate))
    assert gap <= 1e-6


def test_wrapped_power_method_gap_shrinks_with_bits():
    spec, batch = power_batch(k=2, d=4, snr=5.0, n=8, seed=3)
    init = np.array([0.9, -0.1, 0.4, 0.2])
    passes = 6
    cfg = PowerMethodConfig(max_iters=passes, tol=1e-300, init=init)
    reference = tensor_power_method(batch, cfg).estimate
    gaps = []
    for bits in (8, 16, 32):
        q = QuantizerSpec(bits=bits, radius=8.0)
        algo = QuantizedIteration(power_template(2), q, 4, batch.n, init)
        report = run_memory_bounded(
            algo, batch.data, ResourceProfile(batch.n, passes, algo.state_bits)
        )
        gaps.append(1.0 - abs(float(report.estimate @ reference)))
    assert gaps[0] >= gaps[1] >= gaps[2]


def test_wrapped_partial_trace_matches_direct_iterates():
    spec = ModelSpec.tpca(k=4, d=3, snr=2.0, seed=7)
    batch = sample_tpca(spec, n=16, seed=8)
    init = np.array([0.6, -0.8, 0.1])
    passes = 8
    q = QuantizerSpec(bits=52, radius=64.0)
    algo = QuantizedIteration(
        partial_trace_template(4, 3), q, 3, batch.n, init
    )
    report = run_memory_bounded(
        algo, batch.data, ResourceProfile(batch.n, passes, algo.state_bits)
    )
    mean = batch.data.mean(axis=0).reshape(3, 3, 3, 3)
    m = np.trace(mean, axis1=0, axis2=1)
    direct = float_iterates(lambda u: m.T @ u, init, passes)
    assert 1.0 - abs(float(report.estimate @ direct)) <= 1e-9


def test_identity_template_matches_power_template_for_k2():
    psi_a = power_template(2)
    psi_b = partial_trace_template(2, 5)
    u = np.array([3.0, 0.0, -1.0, 2.0, 0.5])
    np.testing.assert_allclose(psi_a(u), psi_b(u), atol=1e-15)
    assert np.linalg.norm(psi_a(u)) == pytest.approx(1.0)


def test_wrapped_state_budget_is_2dB():
    q = QuantizerSpec(bits=32, radius=64.0)
    algo = QuantizedIteration(
        power_template(2), q, 6, 10, np.ones(6)
    )
    assert algo.state_bits == 2 * 6 * 32


@given(
    st.integers(min_value=1, max_value=52),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_one_state_decode_equals_two_half_decodes(bits, d, seed):
    q = QuantizerSpec(bits=bits, radius=4.0)
    state = np.random.default_rng(seed).integers(0, 2, 2 * d * bits, dtype=np.uint8)
    whole = q.decode(state, 2 * d)
    halves = np.concatenate([q.decode(state[: d * bits], d), q.decode(state[d * bits :], d)])
    assert whole.tobytes() == halves.tobytes()


@pytest.mark.parametrize("bits, radius, d", [(1, 3.0, 2), (8, 8.0, 4), (52, 0.7, 3)])
def test_reset_code_is_the_read_only_code_for_zero(bits, radius, d):
    q = QuantizerSpec(bits=bits, radius=radius)
    algo = QuantizedIteration(power_template(2), q, d, 4, np.ones(d))
    np.testing.assert_array_equal(algo.reset_code, q.encode(np.zeros(d)))
    assert algo.reset_code.dtype == np.uint8
    assert not algo.reset_code.flags.writeable
    with pytest.raises(ValueError):
        algo.reset_code[0] ^= 1


def test_partial_trace_template_rejects_odd_order():
    with pytest.raises(ValueError, match="even"):
        partial_trace_template(3, 4)


# ---------------------------------------------------------------------------
# blackboard protocols


class LocalMeanProtocol(BlackboardProtocol):
    """Each machine writes the B-bit code of its shard-mean of coord 0."""

    def __init__(self, m, quantizer):
        self.m = m
        self.q = quantizer

    def writer_run(self, round_index, transcript):
        return round_index // self.q.bits, 1

    def next_bit(self, shard, round_index, transcript):
        code = self.q.encode(np.array([shard[:, 0].mean()]))
        return int(code[round_index % self.q.bits])

    def estimate(self, transcript):
        values = self.q.decode(transcript, self.m)
        return np.array([values.mean()])


def test_local_mean_protocol_equals_pooled_computation():
    rng = np.random.default_rng(11)
    m, n = 4, 8
    q = QuantizerSpec(bits=16, radius=4.0)
    data = rng.standard_normal((m * n, 3))
    shards = shard_stream(data, n)
    report, board = run_distributed(LocalMeanProtocol(m, q), shards, m, n, q.bits)
    direct = np.mean(
        [q.decode(q.encode(np.array([s[:, 0].mean()])), 1)[0] for s in shards]
    )
    assert report.estimate[0] == pytest.approx(direct, abs=1e-12)
    assert len(board.bits) == m * q.bits
    assert board.audit(LocalMeanProtocol(m, q))
    assert board.recompute(LocalMeanProtocol(m, q), shards)
    assert report.wall_ms > 0


def test_distributed_replay_is_bit_identical():
    rng = np.random.default_rng(12)
    m, n = 3, 5
    q = QuantizerSpec(bits=8, radius=4.0)
    shards = shard_stream(rng.standard_normal((m * n, 2)), n)
    _, board_a = run_distributed(LocalMeanProtocol(m, q), shards, m, n, q.bits)
    _, board_b = run_distributed(LocalMeanProtocol(m, q), shards, m, n, q.bits)
    np.testing.assert_array_equal(board_a.bits, board_b.bits)
    np.testing.assert_array_equal(board_a.writers, board_b.writers)


def test_transcript_dump_format():
    board = Blackboard(
        bits=np.array([1, 0, 1], dtype=np.uint8),
        writers=np.array([0, 1, 0]),
        m=2,
        n=4,
        b=2,
    )
    lines = board.dump_text().strip().split("\n")
    assert lines == ["0 0 1", "1 1 0", "2 0 1"]


def test_dump_text_equals_the_per_round_formula():
    # A uint16 writer log (m > 256) and a uint8 one, against one f-string
    # a round; no rounds give one newline.
    rng = np.random.default_rng(38)
    for m, rounds in ((300, 1000), (3, 7), (2, 0)):
        writers = rng.integers(0, m, size=rounds).astype(np.min_scalar_type(m - 1))
        assert writers.dtype == (np.uint16 if m > 256 else np.uint8)
        bits = rng.integers(0, 2, size=rounds).astype(np.uint8)
        board = Blackboard(bits=bits, writers=writers, m=m, n=1, b=1)
        lines = [f"{t} {int(writers[t])} {int(bits[t])}" for t in range(rounds)]
        assert board.dump_text() == "\n".join(lines) + "\n"


def test_distributed_rejects_overdrawn_writer():
    class Greedy(LocalMeanProtocol):
        def writer_run(self, round_index, transcript):
            return 0, 1

    m, n = 2, 4
    q = QuantizerSpec(bits=8, radius=4.0)
    shards = shard_stream(np.zeros((m * n, 2)), n)
    with pytest.raises(RuntimeError, match="more than b"):
        run_distributed(Greedy(m, q), shards, m, n, q.bits)


def test_distributed_rejects_bad_bits_and_shards():
    class BadBit(LocalMeanProtocol):
        def next_bit(self, shard, round_index, transcript):
            return 2

    m, n = 2, 4
    q = QuantizerSpec(bits=4, radius=4.0)
    shards = shard_stream(np.zeros((m * n, 2)), n)
    with pytest.raises(ValueError, match="non-bit"):
        run_distributed(BadBit(m, q), shards, m, n, q.bits)
    with pytest.raises(ValueError, match="shards"):
        run_distributed(LocalMeanProtocol(m, q), shards[:1], m, n, q.bits)


def _shards_rule(m, n):
    """The start of every ``_checked_shards`` shape error, as a pattern."""
    return re.escape(f"shards must be one (m, n, columns) array with m = {m}, n = {n}")


@pytest.mark.parametrize(
    "shard",
    [1.0, np.zeros(4), np.zeros((4, 2, 1)), np.zeros((3, 2))],
    ids=["scalar", "vector", "3-d", "short"],
)
def test_distributed_rejects_a_malformed_shard(shard):
    # Unchecked, a scalar shard raised IndexError (a 0-d shape has no row
    # count), and a 3-d one reached the protocol.  Each makes a ragged
    # list, which numpy cannot make one array of.
    q = QuantizerSpec(bits=4, radius=4.0)
    with pytest.raises(ValueError, match=_shards_rule(2, 4) + ": "):
        run_distributed(LocalMeanProtocol(2, q), [np.zeros((4, 2)), shard], 2, 4, q.bits)


def test_distributed_rejects_shards_of_unequal_column_counts():
    # Protocols get the shards as one (m, n, columns) array, so shards of
    # unequal column counts are rejected, not read.
    q = QuantizerSpec(bits=4, radius=4.0)
    shards = [np.zeros((4, 2)), np.zeros((4, 2)), np.zeros((4, 3))]
    with pytest.raises(ValueError, match=_shards_rule(3, 4) + ": "):
        run_distributed(LocalMeanProtocol(3, q), shards, 3, 4, q.bits)
    protocol, m, n, b = reduce_memory_to_distributed(XorFold(), ResourceProfile(12, 1, 1), 4)
    _, board = run_distributed(protocol, [np.zeros((4, 2))] * 3, m, n, b)
    with pytest.raises(ValueError, match=_shards_rule(3, 4) + ": "):
        board.recompute(protocol, shards)


def test_shard_stream_is_one_view_of_the_stream():
    stream = np.arange(24.0).reshape(12, 2)
    shards = shard_stream(stream, 4)
    assert isinstance(shards, np.ndarray) and shards.shape == (3, 4, 2)
    assert np.shares_memory(shards, stream)
    for j in range(3):
        assert shards[j].tobytes() == stream[4 * j : 4 * j + 4].tobytes()
    # A column slice is not contiguous, and is still cut without a copy.
    assert np.shares_memory(shard_stream(stream[:, 1:], 6), stream)
    with pytest.raises(ValueError, match="does not divide"):
        shard_stream(stream, 5)


def test_checked_shards_reads_a_float64_array_in_place():
    stream = np.random.default_rng(39).standard_normal((12, 3))
    checked = _checked_shards(shard_stream(stream, 4), 3, 4)
    assert np.shares_memory(checked, stream) and not checked.flags.writeable
    assert stream.flags.writeable  # the caller's array is not frozen
    with pytest.raises(ValueError, match="read-only"):
        checked[0, 0, 0] = 1.0
    # A sampler's sealed batch is read in place too.
    batch = sample_tpca(ModelSpec.tpca(2, 3, 1.0, seed=0), 12, 1)
    assert np.shares_memory(_checked_shards(shard_stream(batch.data, 4), 3, 4), batch.data)
    # Another dtype is converted once.
    single = stream.astype(np.float32)
    converted = _checked_shards(shard_stream(single, 4), 3, 4)
    assert converted.dtype == np.float64 and not np.shares_memory(converted, single)


@pytest.mark.parametrize(
    "shards, m, n, found",
    [
        (np.zeros((12, 3)), 3, 4, ", got shape (12, 3)"),
        (np.zeros((3, 4, 3)), 2, 4, ", got shape (3, 4, 3)"),
        (np.zeros((3, 4, 3)), 3, 2, ", got shape (3, 4, 3)"),
        ([np.zeros((4, 3)), np.zeros((4, 2)), np.zeros((4, 3))], 3, 4, ": "),
        ([["a"] * 3] * 4, 1, 4, ": "),
    ],
    ids=["2-d", "wrong-m", "wrong-n", "ragged", "strings"],
)
def test_checked_shards_names_m_and_n_in_every_shape_error(shards, m, n, found):
    with pytest.raises(ValueError, match="^" + _shards_rule(m, n) + re.escape(found)):
        _checked_shards(shards, m, n)


class _StashesInItsRows(MemoryBoundedAlgorithm):
    """Writes a marker into its first row in pass 0 and reads it back
    in pass 1, a channel past its one-bit state."""

    state_bits = 1

    def update_chunks(self, state, t, i0, chunks):
        states = []
        for rows in chunks:
            if t == 0:
                rows[0, 0] = 12345.0
            states.append([rows[0, 0] == 12345.0])
        return np.array(states, dtype=np.uint8)

    def estimate(self, state):
        return state.astype(np.float64)


def test_runners_hand_the_algorithm_read_only_rows():
    data = np.zeros((4, 2))
    profile = ResourceProfile(4, 2, 1)
    with pytest.raises(ValueError, match="read-only"):
        run_memory_bounded(_StashesInItsRows(), data, profile)
    protocol, m, n, b = reduce_memory_to_distributed(_StashesInItsRows(), profile, 2)
    with pytest.raises(ValueError, match="read-only"):
        run_distributed(protocol, shard_stream(data, n), m, n, b)
    assert not data.any()


class BlockMeanProtocol(LocalMeanProtocol):
    """LocalMeanProtocol that names each machine's rounds as one run and
    hands over the rest of its code at once."""

    def writer_run(self, round_index, transcript):
        machine, offset = divmod(round_index, self.q.bits)
        return machine, self.q.bits - offset

    def next_bits(self, shards, round_index, transcript):
        shard = shards[round_index // self.q.bits]
        code = self.q.encode(np.array([shard[:, 0].mean()]))
        return code[round_index % self.q.bits :]


@pytest.mark.parametrize("protocol_class", [LocalMeanProtocol, BlockMeanProtocol])
def test_distributed_validates_writer_and_bit_before_casting(protocol_class):
    # Round 8 heads a run in both protocols: machine 1's first round.
    class FractionalWriter(protocol_class):
        def writer_run(self, round_index, transcript):
            writer, rounds = super().writer_run(round_index, transcript)
            return (1.7 if round_index == 8 else writer), rounds

    class FractionalBit(protocol_class):
        def next_bit(self, shard, round_index, transcript):
            return 0.7

        def next_bits(self, shards, round_index, transcript):
            bits = np.asarray(super().next_bits(shards, round_index, transcript), float)
            bits[0] = 0.7
            return bits

    class NegativeBit(protocol_class):
        def next_bit(self, shard, round_index, transcript):
            return -1

        def next_bits(self, shards, round_index, transcript):
            bits = np.asarray(super().next_bits(shards, round_index, transcript), np.int64)
            bits[-1] = -1
            return bits

    class BoolWriter(protocol_class):
        # The right machine every run, but as a bool: numpy and int()
        # would read False as machine 0 and True as machine 1.
        def writer_run(self, round_index, transcript):
            writer, rounds = super().writer_run(round_index, transcript)
            return bool(writer), rounds

    class NumpyBoolWriter(protocol_class):
        def writer_run(self, round_index, transcript):
            writer, rounds = super().writer_run(round_index, transcript)
            return (np.bool_(writer) if round_index == 8 else writer), rounds

    m, n = 2, 4
    q = QuantizerSpec(bits=8, radius=4.0)
    shards = shard_stream(np.random.default_rng(5).standard_normal((m * n, 2)), n)
    # int() would turn these into writer 1 and bit 0 and the run would pass.
    with pytest.raises(ValueError, match="writer 1.7 at round 8 "):
        run_distributed(FractionalWriter(m, q), shards, m, n, q.bits)
    with pytest.raises(ValueError, match="non-bit"):
        run_distributed(FractionalBit(m, q), shards, m, n, q.bits)
    with pytest.raises(ValueError, match="non-bit value -1"):
        run_distributed(NegativeBit(m, q), shards, m, n, q.bits)
    with pytest.raises(ValueError, match="writer False at round 0 "):
        run_distributed(BoolWriter(m, q), shards, m, n, q.bits)
    with pytest.raises(ValueError, match="writer True at round 8 "):
        run_distributed(NumpyBoolWriter(m, q), shards, m, n, q.bits)


def test_recompute_rejects_an_overlong_block():
    # The runner writes a block whole, so the five extra ones land in the
    # next machine's rounds; the writers still follow writer_run, and
    # only recomputing the next machine's bits from its shard sees it.
    class Overlong(BlockMeanProtocol):
        def next_bits(self, shards, round_index, transcript):
            extra = np.ones(5, dtype=np.uint8)
            return np.concatenate([super().next_bits(shards, round_index, transcript), extra])

    m, n = 3, 4
    q = QuantizerSpec(bits=8, radius=4.0)
    shards = shard_stream(np.random.default_rng(6).standard_normal((m * n, 2)), n)
    _, one_bit = run_distributed(LocalMeanProtocol(m, q), shards, m, n, q.bits)
    _, honest = run_distributed(BlockMeanProtocol(m, q), shards, m, n, q.bits)
    np.testing.assert_array_equal(honest.bits, one_bit.bits)
    np.testing.assert_array_equal(honest.writers, one_bit.writers)
    assert honest.recompute(BlockMeanProtocol(m, q), shards)
    _, board = run_distributed(Overlong(m, q), shards, m, n, q.bits)
    np.testing.assert_array_equal(board.writers, one_bit.writers)
    assert board.audit(Overlong(m, q))
    assert not np.array_equal(board.bits, one_bit.bits)
    assert not board.recompute(Overlong(m, q), shards)


def test_recompute_rejects_a_hook_that_reads_a_neighbours_shard():
    # Each machine writes the code of the next machine's column-0 sum:
    # the writers are honest, but recomputed from its own shard alone, a
    # machine's bits are the code of the zero rows that stand in for the
    # next machine's shard.
    class Neighbour(BlockMeanProtocol):
        def next_bits(self, shards, round_index, transcript):
            writer = self.writer_run(round_index, transcript)[0]
            shard = shards[(writer + 1) % self.m]
            code = self.q.encode(np.array([shard[:, 0].sum()]))
            return code[round_index % self.q.bits :]

    m, n = 3, 4
    q = QuantizerSpec(bits=8, radius=16.0)
    shards = shard_stream(np.random.default_rng(7).standard_normal((m * n, 2)) + 1.0, n)
    _, board = run_distributed(Neighbour(m, q), shards, m, n, q.bits)
    assert board.audit(Neighbour(m, q))
    assert not board.recompute(Neighbour(m, q), shards)


def test_distributed_names_an_over_budget_writer_inside_a_block():
    # One block holds every machine's code; its writer runs give machine
    # 1 a round of machine 2's, one past machine 1's budget.
    class WholeBoard(LocalMeanProtocol):
        def next_bits(self, shards, round_index, transcript):
            codes = [self.q.encode(np.array([shard[:, 0].mean()])) for shard in shards]
            return np.concatenate(codes)[round_index:]

        def writer_run(self, round_index, transcript):
            return {0: (0, 8), 8: (1, 9), 17: (2, 7)}[round_index]

    m, n = 3, 4
    q = QuantizerSpec(bits=8, radius=4.0)
    shards = shard_stream(np.random.default_rng(8).standard_normal((m * n, 2)), n)
    with pytest.raises(RuntimeError, match="machine 1 selected for more than b = 8 rounds"):
        run_distributed(WholeBoard(m, q), shards, m, n, q.bits)


# ---------------------------------------------------------------------------
# the simulation reduction


def fixture_algorithms():
    """Five streaming algorithms with their own streams, N = 32 each."""
    rng = np.random.default_rng(42)
    plain = rng.standard_normal((32, 16))
    algos = [
        (XorFold(), plain, 1),
        (ByteCounter(), plain, 1),
    ]
    spec2, batch2 = power_batch(k=2, d=4, snr=5.0, n=32, seed=20)
    q8 = QuantizerSpec(bits=8, radius=8.0)
    algos.append(
        (
            QuantizedIteration(
                power_template(2), q8, 4, 32, np.array([1.0, 0.2, -0.4, 0.3])
            ),
            batch2.data,
            4,
        )
    )
    spec3 = ModelSpec.tpca(k=3, d=3, snr=4.0, seed=21)
    batch3 = sample_tpca(spec3, n=32, seed=22)
    q16 = QuantizerSpec(bits=16, radius=16.0)
    algos.append(
        (
            QuantizedIteration(
                power_template(3), q16, 3, 32, np.array([0.7, -0.5, 0.3])
            ),
            batch3.data,
            3,
        )
    )
    spec4 = ModelSpec.tpca(k=4, d=3, snr=2.0, seed=23)
    batch4 = sample_tpca(spec4, n=32, seed=24)
    q32 = QuantizerSpec(bits=32, radius=64.0)
    algos.append(
        (
            QuantizedIteration(
                partial_trace_template(4, 3), q32, 3, 32, np.array([0.2, 0.9, -0.1])
            ),
            batch4.data,
            3,
        )
    )
    return algos


def test_reduction_bit_identical_over_fixture_algorithms_and_splits():
    for algo, data, passes in fixture_algorithms():
        profile = ResourceProfile(32, passes, algo.state_bits)
        direct = run_memory_bounded(algo, data, profile)
        for n in (4, 16, 32):
            protocol, m, n_out, b = reduce_memory_to_distributed(algo, profile, n)
            assert (m, n_out, b) == (32 // n, n, algo.state_bits * passes)
            report, board = run_distributed(protocol, shard_stream(data, n), m, n, b)
            np.testing.assert_array_equal(report.estimate, direct.estimate)
            assert len(board.bits) == m * b
            assert board.audit(protocol)
            assert board.recompute(protocol, shard_stream(data, n))
            # Every bit of a run is compared, its last as well as its first.
            board.bits[-1] ^= 1
            assert not board.recompute(protocol, shard_stream(data, n))


def test_recompute_pays_one_chunk_a_turn(monkeypatch):
    # run_distributed asks the state-handoff protocol at pass heads alone
    # and gets each pass from one update_chunks call over every shard; a
    # recompute turn that starts no pass gets its own shard, one chunk,
    # not the rest of the pass.
    algo, data, passes = fixture_algorithms()[2]
    profile = ResourceProfile(32, passes, algo.state_bits)
    protocol, m, n, b = reduce_memory_to_distributed(algo, profile, 4)
    shards = shard_stream(data, n)
    calls = []
    update_chunks = QuantizedIteration.update_chunks

    def spy(self, state, t, i0, chunks):
        calls.append((t, i0, len(chunks)))
        return update_chunks(self, state, t, i0, chunks)

    monkeypatch.setattr(QuantizedIteration, "update_chunks", spy)
    _, board = run_distributed(protocol, shards, m, n, b)
    assert calls == [(t, 0, m) for t in range(passes)]
    calls.clear()
    assert board.recompute(protocol, shards)
    heads = [(t, 0, m) for t in range(passes)]
    assert calls[::m] == heads
    turns = [(t, machine * n, 1) for t in range(passes) for machine in range(1, m)]
    assert [call for call in calls if call not in heads] == turns
    # Inside a turn, next_bits answers the rest of that turn alone.
    s = protocol.s
    for start in (3, s + 3):
        end = (start // s + 1) * s
        bits = protocol.next_bits(shards, start, board.bits[:start])
        np.testing.assert_array_equal(bits, board.bits[start:end])


def test_reduction_transcript_ends_with_final_state():
    algo = ByteCounter()
    rng = np.random.default_rng(31)
    data = rng.standard_normal((16, 2))
    profile = ResourceProfile(16, 2, 8)
    direct = run_memory_bounded(algo, data, profile)
    protocol, m, n, b = reduce_memory_to_distributed(algo, profile, 4)
    report, board = run_distributed(protocol, shard_stream(data, 4), m, n, b)
    final_bits = board.bits[-8:]
    assert float((final_bits * (1 << np.arange(8))).sum()) == direct.estimate[0]
    assert report.estimate[0] == direct.estimate[0]


def test_reduction_writer_schedule_and_guards():
    algo = XorFold()
    profile = ResourceProfile(12, 2, 1)
    protocol, m, n, b = reduce_memory_to_distributed(algo, profile, 4)
    assert (m, n, b) == (3, 4, 2)
    # Turn q (one round here, s = 1) belongs to machine q mod m.
    runs = [protocol.writer_run(r, np.zeros(r, dtype=np.uint8)) for r in range(6)]
    assert runs == [(0, 1), (1, 1), (2, 1), (0, 1), (1, 1), (2, 1)]
    with pytest.raises(ValueError, match="divide"):
        reduce_memory_to_distributed(algo, profile, 5)
    with pytest.raises(ValueError, match="state bits"):
        reduce_memory_to_distributed(algo, ResourceProfile(12, 2, 3), 4)


def test_blackboard_audit_detects_tampered_writer_log():
    algo = XorFold()
    data = np.random.default_rng(33).standard_normal((8, 2))
    profile = ResourceProfile(8, 1, 1)
    protocol, m, n, b = reduce_memory_to_distributed(algo, profile, 2)
    _, board = run_distributed(protocol, shard_stream(data, 2), m, n, b)
    assert board.audit(protocol)
    board.writers[1] = (board.writers[1] + 1) % m
    assert not board.audit(protocol)


def test_audit_and_recompute_reject_a_writer_log_that_does_not_cover_the_board():
    # 16 rounds: tpca k=2, d=2, B=2 (s = 8), N=8, two 4-row machines, one
    # pass.  Unchecked, the recompute compared only the logged rounds and
    # passed a board whose unlogged bits were flipped, the audit indexed
    # past a short log (IndexError), and it passed a log one round long.
    _, batch = power_batch(k=2, d=2, n=8, seed=39)
    algo = QuantizedIteration(power_template(2), QuantizerSpec(2, 4.0), 2, 8, np.ones(2))
    _, board, protocol = replay(algo, batch.data, ResourceProfile(8, 1, 8), 4)
    shards = shard_stream(batch.data, 4)
    assert len(board.bits) == 16 and board.audit(protocol)
    assert board.recompute(protocol, shards)
    flipped = board.bits.copy()
    flipped[8:] ^= 1
    short = Blackboard(flipped, board.writers[:8], board.m, board.n, board.b)
    assert not short.recompute(protocol, shards)
    assert not short.audit(protocol)
    extra = np.append(board.writers, board.writers[-1])
    longer = Blackboard(board.bits, extra, board.m, board.n, board.b)
    assert not longer.audit(protocol)
    assert not longer.recompute(protocol, shards)


def test_recompute_shows_a_protocol_its_writers_shard_and_zeros():
    data = np.random.default_rng(38).standard_normal((12, 3))
    protocol, m, n, b = reduce_memory_to_distributed(ByteCounter(), ResourceProfile(12, 2, 8), 4)
    shards = shard_stream(data, n)
    _, board = run_distributed(protocol, shards, m, n, b)
    seen = []
    hook = protocol.next_bits

    def spy(stack, round_index, transcript):
        writer = protocol.writer_run(round_index, transcript)[0]
        seen.append((writer, stack.shape, stack.dtype, stack.flags.writeable, stack.copy()))
        return hook(stack, round_index, transcript)

    protocol.next_bits = spy
    assert board.recompute(protocol, shards)
    # One call a turn: three machines, two passes.
    assert [writer for writer, *_ in seen] == [0, 1, 2, 0, 1, 2]
    for writer, shape, dtype, writeable, stack in seen:
        assert (shape, dtype, writeable) == ((m, n, 3), np.float64, False)
        assert stack[writer].tobytes() == shards[writer].tobytes()
        hidden = np.delete(stack, writer, axis=0)
        assert hidden.tobytes() == np.zeros_like(hidden).tobytes()


@pytest.mark.parametrize("cast", [bool, np.bool_, float], ids=["bool", "np.bool_", "float"])
def test_blackboard_audit_rejects_a_writer_that_is_not_a_machine_index(cast):
    # m = 2, so every replayed writer compares equal to the logged 0 or 1
    # after the cast, and an audit that only compared passed them.
    data = np.random.default_rng(34).standard_normal((8, 2))
    protocol, m, n, b = reduce_memory_to_distributed(XorFold(), ResourceProfile(8, 2, 1), 4)
    _, board = run_distributed(protocol, shard_stream(data, n), m, n, b)
    assert m == 2 and set(board.writers.tolist()) == {0, 1}

    class Cast(BlackboardProtocol):
        def writer_run(self, round_index, transcript):
            writer, rounds = protocol.writer_run(round_index, transcript)
            return cast(writer), rounds

    class CastRounds(BlackboardProtocol):
        def writer_run(self, round_index, transcript):
            writer, rounds = protocol.writer_run(round_index, transcript)
            return writer, cast(rounds)

    class Numpy(BlackboardProtocol):
        def writer_run(self, round_index, transcript):
            writer, rounds = protocol.writer_run(round_index, transcript)
            return np.int64(writer), np.uint8(rounds)

    assert board.audit(protocol) and board.audit(Numpy())
    assert not board.audit(Cast())
    assert not board.audit(CastRounds())


class _Wide(MemoryBoundedAlgorithm):
    def __init__(self, state_bits):
        self.state_bits = state_bits


@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=3),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_handoff_writer_run_holds_the_rest_of_the_turn(s, m, passes, data):
    # At any round, the owner of its turn and the rounds left in the turn;
    # walked from round 0, one run a turn.
    protocol, m, _, b = reduce_memory_to_distributed(
        _Wide(s), ResourceProfile(m * 2, passes, s), 2
    )
    r = data.draw(st.integers(min_value=0, max_value=m * b - 1))
    writer, rounds = protocol.writer_run(r, np.zeros(r, dtype=np.uint8))
    assert type(writer) is int and type(rounds) is int
    assert writer == (r // s) % m and r + rounds == (r // s + 1) * s
    head, runs = 0, []
    while head < m * b:
        runs.append(protocol.writer_run(head, np.zeros(head, dtype=np.uint8)))
        head += runs[-1][1]
    assert runs == [(turn % m, s) for turn in range(m * passes)]


def test_audit_rejects_a_board_from_a_lying_writer_run():
    class Stated(BlackboardProtocol):
        # Machines 0, 1, 1 and 0 write a round each.  Each bit is honest:
        # the sign of the column sum of the stated machine's shard.
        order = (0, 1, 1, 0)

        def writer_run(self, round_index, transcript):
            return self.order[round_index], 1

        def next_bits(self, shards, round_index, transcript):
            shard = shards[self.order[round_index]]
            return [int(shard.sum() > 0)]

        def estimate(self, transcript):
            return transcript.astype(np.float64)

    class Lying(Stated):
        # Names runs of machines 0, 0, 1, 1 for the stated machines' bits.
        def writer_run(self, round_index, transcript):
            return (0, 0, 1, 1)[round_index], 1

    shards = shard_stream(np.ones((4, 1)), 2)
    _, board = run_distributed(Lying(), shards, 2, 2, 2)
    np.testing.assert_array_equal(board.writers, [0, 0, 1, 1])
    np.testing.assert_array_equal(board.bits, [1, 1, 1, 1])
    _, honest = run_distributed(Stated(), shards, 2, 2, 2)
    assert honest.audit(Stated()) and honest.recompute(Stated(), shards)
    assert not board.audit(Stated())
    # Machine 0's logged round 1 is machine 1's bit, which machine 0's
    # shard alone does not give.
    assert not board.recompute(Lying(), shards)
    assert not board.recompute(Stated(), shards)


class _OverwritesItsInput(MemoryBoundedAlgorithm):
    """Writes the complement of its input state, then sets the input to
    ones, chunk after chunk."""

    state_bits = 4

    def update_chunks(self, state, t, i0, chunks):
        states = np.empty((len(chunks), self.state_bits), dtype=np.uint8)
        for c in range(len(chunks)):
            out = 1 - state
            state[:] = 1
            states[c] = out
            state = out
        return states


def test_protocols_cannot_rewrite_the_transcript():
    # Turn q's input is the board's rounds of turn q - 1.  On a writable
    # board, turn 2 would set rounds 4..7 to ones, and the board would end
    # 1111 1111 1111 0000 where the writes were 1111 0000 1111 0000,
    # which audit, checking writers only, passes.
    protocol, m, n, b = reduce_memory_to_distributed(
        _OverwritesItsInput(), ResourceProfile(8, 2, 4), 4
    )
    with pytest.raises(ValueError, match="read-only"):
        run_distributed(protocol, shard_stream(np.zeros((8, 1)), n), m, n, b)


def test_every_protocol_hook_gets_a_read_only_transcript():
    data = np.random.default_rng(35).standard_normal((16, 2))
    protocol, m, n, b = reduce_memory_to_distributed(
        ByteCounter(), ResourceProfile(16, 2, 8), 4
    )
    seen, handed = [], []
    for name in ("writer_run", "next_bits"):

        def record(*args, hook=getattr(protocol, name), name=name):
            seen.append((name, args[-1].flags.writeable))
            if name == "next_bits":
                handed.extend(args[0])
            return hook(*args)

        setattr(protocol, name, record)
    shards = shard_stream(data, n)
    _, board = run_distributed(protocol, shards, m, n, b)
    assert board.audit(protocol)
    assert {name for name, _ in seen} == {"writer_run", "next_bits"}
    assert not any(writeable for _, writeable in seen)
    # next_bits gets the checked shards, read-only and never the caller's
    # own objects.
    assert handed and not any(shard.flags.writeable for shard in handed)
    assert not any(shard is own for shard in handed for own in shards)
    # The board handed back is the caller's own, writable copy.
    assert board.bits.flags.writeable and board.writers.flags.writeable


def test_runner_and_audit_call_writer_run_once_a_turn():
    # m = 32 machines and T = 10 passes, as at the harness-protocol bench
    # point: 320 runs, one call each, however many rounds a turn holds.
    data = np.random.default_rng(36).standard_normal((64, 2))
    protocol, m, n, b = reduce_memory_to_distributed(
        ByteCounter(), ResourceProfile(64, 10, 8), 2
    )
    calls = []
    hook = protocol.writer_run
    protocol.writer_run = lambda r, transcript: calls.append(r) or hook(r, transcript)
    _, board = run_distributed(protocol, shard_stream(data, n), m, n, b)
    assert (m, len(board.bits)) == (32, 2560)
    assert calls == list(range(0, 2560, 8))
    calls.clear()
    assert board.audit(protocol)
    assert calls == list(range(0, 2560, 8))


@pytest.mark.parametrize(
    "run, match",
    [
        ((0.0, 7), "writer 0.0 at round 1 is not a machine index"),
        ((4, 7), "writer 4 at round 1 is not a machine index"),
        ((-1, 7), "writer -1 at round 1 is not a machine index"),
        ((np.False_, 7), "writer False at round 1 is not a machine index"),
        ((0, 0), "writer 0 at round 1 holds 0 rounds, not a count >= 1"),
        ((0, True), "writer 0 at round 1 holds True rounds, not a count >= 1"),
        ((0, np.True_), "writer 0 at round 1 holds True rounds, not a count >= 1"),
        ((0, 7.0), "writer 0 at round 1 holds 7.0 rounds, not a count >= 1"),
        ((0, 32), "writer 0 at round 1 holds 32 rounds, past the last round 31"),
        (0, r"protocol gave 0 at round 1, not a \(writer, rounds\) pair"),
        ((0, 7, 1), r"protocol gave \(0, 7, 1\) at round 1, not a \(writer, rounds\) pair"),
    ],
    ids=[
        "float-writer",
        "writer-m",
        "negative-writer",
        "numpy-bool-writer",
        "zero-rounds",
        "bool-rounds",
        "numpy-bool-rounds",
        "float-rounds",
        "past-the-board",
        "not-a-pair",
        "triple",
    ],
)
def test_distributed_validates_writer_runs(run, match):
    # The first block is round 0 alone, the first run round 0 alone, so
    # the second run's head is round 1, inside the block of rounds 1..31.
    algo = ByteCounter()
    data = np.random.default_rng(34).standard_normal((16, 2))
    protocol, m, n, b = reduce_memory_to_distributed(algo, ResourceProfile(16, 1, 8), 4)
    pass_bits = protocol.next_bits
    protocol.next_bits = lambda shards, r, tr: pass_bits(shards, r, tr)[: 1 if r == 0 else None]
    protocol.writer_run = lambda head, transcript: (0, 1) if head == 0 else run
    with pytest.raises(ValueError, match=f"^{match}"):
        run_distributed(protocol, shard_stream(data, n), m, n, b)


@pytest.mark.parametrize(
    "writers, match",
    [
        (lambda head: (False, 31), "writer False at round 1"),
        (lambda head: (0, 1) if head == 1 else (False, 30), "writer False at round 2"),
    ],
)
def test_distributed_validates_select_writers(writers, match):
    # A bool is no machine index, whether it heads the block's first run
    # or a later one, and the error names the round of that run's head.
    # The name is that of the block hook writer_run replaced.
    algo = ByteCounter()
    data = np.random.default_rng(34).standard_normal((16, 2))
    protocol, m, n, b = reduce_memory_to_distributed(algo, ResourceProfile(16, 1, 8), 4)
    pass_bits = protocol.next_bits
    protocol.next_bits = lambda shards, r, tr: pass_bits(shards, r, tr)[: 1 if r == 0 else None]
    protocol.writer_run = lambda head, transcript: (0, 1) if head == 0 else writers(head)
    with pytest.raises(ValueError, match=f"^{match} is not a machine index"):
        run_distributed(protocol, shard_stream(data, n), m, n, b)


@given(
    st.sampled_from(["True", "np.True_", "m", "-1", "no rounds", "past the board"]),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=7),
)
@settings(max_examples=100, deadline=None)
def test_distributed_names_the_round_of_a_bad_later_writer(bad, turn, offset):
    # Four machines of one eight-bit turn each, one pass: the one block
    # holds rounds 0..31, turn q's at 8q..8q+7.  Turn ``turn`` is cut in
    # two runs at ``offset``, and the second one's answer is bad.
    data = np.random.default_rng(34).standard_normal((16, 2))
    protocol, m, n, b = reduce_memory_to_distributed(ByteCounter(), ResourceProfile(16, 1, 8), 4)
    honest = protocol.writer_run
    planted = 8 * turn + offset

    def writer_run(head, transcript):
        writer, rounds = honest(head, transcript)
        if head < planted < head + rounds:
            return writer, planted - head
        if head != planted:
            return writer, rounds
        return {
            "True": (True, rounds),
            "np.True_": (np.True_, rounds),
            "m": (m, rounds),
            "-1": (-1, rounds),
            "no rounds": (writer, 0),
            "past the board": (writer, 33 - planted),
        }[bad]

    protocol.writer_run = writer_run
    with pytest.raises(ValueError, match=f" at round {planted} (is not|holds)"):
        run_distributed(protocol, shard_stream(data, n), m, n, b)


class _Scripted(BlackboardProtocol):
    """Zero bits in blocks that end at ``cuts``, and the writer runs
    ``runs``, a dict from each run head to its ``writer_run`` answer."""

    def __init__(self, runs, cuts):
        self.runs, self.cuts = runs, cuts

    def next_bits(self, shards, round_index, transcript):
        stop = next(cut for cut in self.cuts if cut > round_index)
        return np.zeros(stop - round_index, dtype=np.uint8)

    def writer_run(self, round_index, transcript):
        return self.runs[round_index]

    def estimate(self, transcript):
        return transcript.astype(np.float64)


def _writer_runs(rng, m, b, balanced):
    """``(owners, lengths)`` of runs over m*b rounds: each machine's b
    rounds cut into runs and shuffled, and unless ``balanced``, some runs
    handed to another machine."""
    runs = []
    for machine in range(m):
        cuts = np.sort(rng.choice(np.arange(1, b), size=rng.integers(0, b), replace=False))
        runs += [(machine, int(size)) for size in np.diff(np.r_[0, cuts, b])]
    runs = [runs[j] for j in rng.permutation(len(runs))]
    if not balanced:
        runs = [(int(rng.integers(m)) if rng.random() < 0.3 else w, size) for w, size in runs]
    owners, lengths = zip(*runs)
    return list(owners), list(lengths)


@given(
    m=st.one_of(st.integers(1, 6), st.sampled_from([255, 256, 257])),
    b=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    balanced=st.booleans(),
    returned=st.sampled_from(["int", "int64", "narrow", "int16"]),
    bad=st.sampled_from(
        [None, "-1", "m", "True", "np.True_", "1.7", "0 rounds", "True rounds", "past the board"]
    ),
)
@settings(max_examples=150, deadline=None)
def test_runner_checks_and_charges_writer_runs_as_a_full_scan(
    m, b, seed, balanced, returned, bad
):
    # A drawn run schedule, given in blocks of random lengths, with a bad
    # writer or length planted at a random run.  The runner must raise what
    # a check of each run and a bincount of every round raise, log
    # ``np.repeat(owners, lengths)``, and pass the audit until one logged
    # writer is forged.
    rng = np.random.default_rng(seed)
    rounds = m * b
    owners, lengths = _writer_runs(rng, m, b, balanced)
    heads = np.r_[0, np.cumsum(lengths)[:-1]].tolist()
    cast = {"int": int, "int64": np.int64, "narrow": np.min_scalar_type(m - 1).type}
    cast["int16"] = np.int16
    owners = [cast[returned](w) for w in owners]
    lengths = [cast[returned](size) for size in lengths]
    if bad is not None:
        i = int(rng.integers(len(owners)))
        if bad in ("-1", "m", "True", "np.True_", "1.7"):
            owners[i] = {"-1": -1, "m": m, "True": True, "np.True_": np.True_, "1.7": 1.7}[bad]
        else:
            lengths[i] = {"0 rounds": 0, "True rounds": True}.get(bad, rounds - heads[i] + 1)
    # Up to three block ends before the last round.
    inner = rng.choice(rounds - 1, size=min(rng.integers(0, 4), rounds - 1), replace=False)
    cuts = [*np.sort(inner + 1).tolist(), rounds]
    error, expected = charge_runs(owners, lengths, m, b)
    shards = [np.zeros((1, 1))] * m
    protocol = _Scripted(dict(zip(heads, zip(owners, lengths))), cuts)
    if error is not None:
        with pytest.raises(error, match=f"^{re.escape(expected)}$"):
            run_distributed(protocol, shards, m, 1, b)
        return
    np.testing.assert_array_equal(expected, np.full(m, b))
    _, board = run_distributed(protocol, shards, m, 1, b)
    assert board.writers.dtype == np.min_scalar_type(m - 1)
    assert board.writers.tolist() == np.repeat(np.array(owners, np.int64), lengths).tolist()
    assert board.audit(protocol)
    if m > 1:
        r = int(rng.integers(rounds))
        board.writers[r] = (int(board.writers[r]) + 1) % m
        assert not board.audit(protocol)


@pytest.mark.parametrize("m", [255, 256, 257])
def test_board_logs_writers_in_the_narrowest_dtype(m):
    # One one-bit turn per machine and pass, two passes: machine m - 1
    # (255 at m = 256, the top of a byte) writes rounds m - 1 and 2m - 1.
    data = np.random.default_rng(m).standard_normal((m, 2))
    profile = ResourceProfile(m, 2, 1)
    protocol, m, n, b = reduce_memory_to_distributed(XorFold(), profile, 1)
    _, board = run_distributed(protocol, shard_stream(data, n), m, n, b)
    assert board.writers.dtype == (np.uint8 if m <= 256 else np.uint16)
    wide = Blackboard(board.bits, board.writers.astype(np.int64), m, n, b)
    assert board.writers.tolist() == (np.arange(2 * m) % m).tolist()
    assert board.dump_text() == wide.dump_text()
    assert board.audit(protocol) and wide.audit(protocol)
    assert board.recompute(protocol, shard_stream(data, n))
    assert wide.recompute(protocol, shard_stream(data, n))


@pytest.mark.parametrize("m", [2, 3])
def test_checked_shards_of_equal_columns_are_one_read_only_stack(m):
    rng = np.random.default_rng(37)
    shards = [rng.standard_normal((4, 3)) for _ in range(m)]
    shards[0] = shards[0].astype(np.float32)
    checked = _checked_shards(shards, m, 4)
    assert isinstance(checked, np.ndarray) and checked.dtype == np.float64
    assert checked.shape == (m, 4, 3) and not checked.flags.writeable
    assert checked.tobytes() == np.stack(shards).astype(np.float64).tobytes()
    assert all(checked[j].tobytes() == shards[j].astype(np.float64).tobytes() for j in range(m))
    assert _checked_shards(shards[:1], 1, 4).shape == (1, 4, 3)
    # Mixed column counts cannot be stacked: one shape error names m and n.
    with pytest.raises(ValueError, match="^" + _shards_rule(m, 4) + ": "):
        _checked_shards([np.zeros((4, 2)), *shards[1:]], m, 4)


@pytest.mark.parametrize("columns", [[2, 2, 2, 2]], ids=["stacked"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_distributed_names_a_non_finite_value_in_the_last_shard(columns, bad):
    q = QuantizerSpec(bits=4, radius=4.0)
    shards = [np.ones((4, c)) for c in columns]
    shards[-1][3, -1] = bad
    with pytest.raises(ValueError, match="^shard 3 holds a non-finite value$"):
        run_distributed(LocalMeanProtocol(4, q), shards, 4, 4, q.bits)
    shards[1][0, 0] = bad
    with pytest.raises(ValueError, match="^shard 1 holds a non-finite value$"):
        run_distributed(LocalMeanProtocol(4, q), shards, 4, 4, q.bits)


def test_protocol_object_reused_on_a_second_stream():
    _, batch_a = power_batch(k=2, d=4, snr=5.0, n=16, seed=40)
    _, batch_b = power_batch(k=2, d=4, snr=5.0, n=16, seed=41)
    q = QuantizerSpec(bits=8, radius=8.0)
    algo = QuantizedIteration(power_template(2), q, 4, 16, np.array([1.0, 0.2, -0.4, 0.3]))
    profile = ResourceProfile(16, 3, algo.state_bits)
    protocol, m, n, b = reduce_memory_to_distributed(algo, profile, 4)
    for batch in (batch_a, batch_b):
        report, _ = run_distributed(protocol, shard_stream(batch.data, n), m, n, b)
        direct = run_memory_bounded(algo, batch.data, profile)
        np.testing.assert_array_equal(report.estimate, direct.estimate)


# ---------------------------------------------------------------------------
# the per-pass fast path against the per-sample reference


@st.composite
def quantized_runs(draw, max_d=(6, 5, 4)):
    """A QuantizedIteration with its stream, shard size and pass count.

    About half the draws have long shards, 24 to 88 rows, whose partial
    sums often clamp and restart mid-shard at the small radii.
    """
    k = draw(st.sampled_from([2, 3, 4]))
    d = draw(st.integers(min_value=2, max_value=max_d[k - 2]))
    if draw(st.booleans()):
        n = draw(st.integers(min_value=1, max_value=4))
        n_samples = n * draw(st.integers(min_value=1, max_value=4))
    else:
        n = draw(st.integers(min_value=24, max_value=88))
        n_samples = n * draw(st.integers(min_value=1, max_value=2))
    passes = draw(st.integers(min_value=1, max_value=3))
    q = QuantizerSpec(
        bits=draw(st.integers(min_value=1, max_value=52)),
        # Small radii clamp the partial sums of the larger data scales.
        radius=draw(st.sampled_from([0.05, 0.5]) | st.floats(min_value=0.05, max_value=100.0)),
    )
    if k % 2 == 0 and draw(st.booleans()):
        psi = partial_trace_template(k, d)
    else:
        psi = power_template(k)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    scale = draw(st.sampled_from([0.1, 1.0, 30.0]))
    data = scale * rng.standard_normal((n_samples, d**k))
    algo = QuantizedIteration(psi, q, d, n_samples, rng.standard_normal(d))
    return algo, data, n, passes


@given(quantized_runs(), st.data())
@settings(max_examples=60, deadline=None)
def test_update_chunks_equals_per_sample_loop_over_any_split(run, data):
    algo, stream, _, passes = run
    row_by_row_algo = row_by_row(algo)
    n_samples = len(stream)
    fast = reference = np.zeros(algo.state_bits, dtype=np.uint8)
    for t in range(passes):
        # Any cuts in a short pass; at most three in a long one, so that
        # its blocks often stay long.
        cuts = data.draw(
            st.sets(
                st.integers(min_value=1, max_value=max(1, n_samples - 1)),
                max_size=None if n_samples <= 16 else 3,
            )
        )
        bounds = [0, *sorted(cuts - {n_samples}), n_samples]
        # The whole pass as one chunk.
        whole = algo.update_chunks(fast, t, 0, stream[None])
        # Equal chunks from a chunk boundary on, as one 3-D array, the way
        # a protocol gets its stacked shards; the reference runs one
        # ``update`` per row.
        divisors = [c for c in range(1, n_samples + 1) if n_samples % c == 0]
        size = data.draw(st.sampled_from(divisors))
        equal = stream.reshape(n_samples // size, size, -1)
        skip = data.draw(st.integers(min_value=0, max_value=len(equal) - 1))
        start = algo.update_chunks(fast, t, 0, equal[:skip])[-1] if skip else fast
        stacked = algo.update_chunks(start, t, skip * size, equal[skip:])
        expected = row_by_row_algo.update_chunks(start, t, skip * size, equal[skip:])
        assert stacked.tobytes() == expected.tobytes()
        empty = algo.update_chunks(start, t, skip * size, equal[skip:, :0])
        assert empty.tobytes() == np.tile(start, (len(equal) - skip, 1)).tobytes()
        for i0, i1 in zip(bounds, bounds[1:]):
            # One chunk per call at any cuts, each from the state the last
            # one left.
            reference = row_by_row_algo.update_chunks(reference, t, i0, stream[i0:i1][None])[0]
            fast = algo.update_chunks(fast, t, i0, stream[i0:i1][None])[0]
            np.testing.assert_array_equal(fast, reference)
        np.testing.assert_array_equal(whole[0], reference)


@given(quantized_runs())
@settings(max_examples=40, deadline=None)
def test_pass_zero_runs_like_a_later_pass_from_the_start_code(run):
    # Only the state crosses passes: pass 0 reads its iterate and its
    # partial sum from a code, as every later pass does.
    algo, stream, _, _ = run
    q, d = algo.quantizer, algo.d
    values = q.decode(algo.start_code, 2 * d)
    assert values[:d].tobytes() == snap(q, algo.init).tobytes()
    assert values[d:].tobytes() == q.decode(algo.reset_code, d).tobytes()
    assert values[d:].tobytes() == snap(q, np.zeros(d)).tobytes()
    assert not algo.start_code.flags.writeable
    zeros = np.zeros(algo.state_bits, dtype=np.uint8)
    np.testing.assert_array_equal(
        algo.update_chunks(zeros, 0, 0, stream[None]),
        algo.update_chunks(algo.start_code, 1, 0, stream[None]),
    )
    reference = row_by_row(algo)
    np.testing.assert_array_equal(
        reference.update(zeros, 0, 0, stream[0]),
        reference.update(algo.start_code, 1, 0, stream[0]),
    )


@pytest.mark.parametrize(
    "init",
    [[0.0, 0.0], [math.nan, 1.0], [math.inf, 1.0], [1e308, 1e308], [1.0, 2.0, 3.0]],
    ids=["zero", "nan", "inf", "overflowing-norm", "wrong-shape"],
)
def test_quantized_iteration_rejects_a_start_without_a_direction(init):
    # Unchecked, inf normalizes to [nan, 0] and a 1e308 pair to [0, 0],
    # and either is coded as a start.  The power methods' rule applies.
    with pytest.raises(ValueError):
        QuantizedIteration(power_template(2), QuantizerSpec(8, 8.0), 2, 4, init)


def test_quantized_iteration_start_code_divides_init_by_its_norm():
    q, init = QuantizerSpec(8, 8.0), np.array([3.0, -4.0, 1e-3])
    algo = QuantizedIteration(power_template(2), q, 3, 4, list(init))
    direction = init / np.linalg.norm(init)
    assert algo.init.tobytes() == direction.tobytes()
    expected = np.concatenate([q.encode(direction), q.encode(np.zeros(3))])
    assert algo.start_code.tobytes() == expected.tobytes()


@given(quantized_runs(max_d=(4, 3, 2)))
@settings(max_examples=25, deadline=None)
def test_block_write_run_equals_one_bit_run(run):
    # The pass-at-once protocol against the per-turn reference, and that
    # reference through the base class's one-bit next_bits: the same
    # transcript, writer log and estimate, and each bit recomputes from
    # its writer's shard alone.
    algo, stream, n, passes = run
    profile = ResourceProfile(len(stream), passes, algo.state_bits)
    protocol, m, n, b = reduce_memory_to_distributed(algo, profile, n)
    shards = shard_stream(stream, n)
    direct = run_memory_bounded(algo, stream, profile)
    per_turn = turn_by_turn(protocol)
    one_bit = turn_by_turn(protocol)
    one_bit.next_bits = functools.partial(BlackboardProtocol.next_bits, one_bit)
    report, board = run_distributed(protocol, shards, m, n, b)
    for reference in (per_turn, one_bit):
        reference_report, reference_board = run_distributed(reference, shards, m, n, b)
        assert board.bits.tobytes() == reference_board.bits.tobytes()
        assert board.writers.tobytes() == reference_board.writers.tobytes()
        assert report.estimate.tobytes() == reference_report.estimate.tobytes()
    np.testing.assert_array_equal(report.estimate, direct.estimate)
    assert board.recompute(protocol, shards)


@given(
    st.sampled_from([2, 3, 4]),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_stacked_contraction_rows_equal_single_row_contract_batch(k, d, rows, seed):
    rng = np.random.default_rng(seed)
    batch = rng.standard_normal((rows, d**k))
    psi = rng.standard_normal(d ** (k - 1))
    stacked = psi @ batch.reshape(rows, -1, d)
    for i in range(rows):
        np.testing.assert_array_equal(stacked[i], contract_batch(batch[i : i + 1], d, psi)[0])
