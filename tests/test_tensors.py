"""Tests for flat tensor storage, rank-one densification, contraction, and overlap."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikelab.config import ExperimentConfig
from spikelab.estimators import (
    BruteForceConfig,
    PowerMethodConfig,
    _power_inplace,
    cca_matricization_estimator,
    gaussian_reference_constant,
    matricization_rank1,
    ngca_spectral,
    partial_trace_spectral,
    sphere_net,
)
from spikelab.harness import (
    QuantizedIteration,
    QuantizerSpec,
    ResourceProfile,
    partial_trace_template,
    power_template,
    reduce_memory_to_distributed,
    shard_stream,
)
from spikelab.hermite import build_weighted_basis, gauss_hermite_rule, hermite_all
from spikelab.measures import NonGaussMeasure, gaussian_moment, rejection_sample
from spikelab.models import ModelSpec, SampleBatch, sample_cca, sample_ngca, sample_tpca
from spikelab.tensors import (
    contract_batch,
    entry_budget,
    outer_power,
    outer_product,
    overlap,
    rank1_densify,
    set_entry_budget,
    unit,
)
from spikelab.verify import (
    LDLRInstance,
    check_rademacher_bounds,
    integrated_hermite_inner,
    integrated_hermite_norm,
    rademacher_mean_moment,
    sign_coefficient,
    sign_tail_mass,
)


def test_flat_layout_is_row_major():
    d = 3
    a = np.array([1.0, -1.0, 1.0])
    b = np.array([-1.0, -1.0, 1.0])
    flat = rank1_densify((a, b), 3.0)
    for i in range(d):
        for j in range(d):
            assert flat[i * d + j] == 3.0 / d * a[i] * b[j]


def test_entry_budget_guard():
    prev = set_entry_budget(100)
    try:
        with pytest.raises(MemoryError):
            rank1_densify((np.ones(5),) * 3, 1.0)
        with pytest.raises(MemoryError):
            outer_power(np.ones(5), 3)
        rank1_densify((np.ones(10),) * 2, 1.0)
    finally:
        set_entry_budget(prev)
    assert entry_budget() == prev


# ---------------------------------------------------------------------------
# rank-one densification and the factor checks


def test_spike_norm_validation():
    # Factors live on ModelSpec, which holds them to the sphere of
    # squared radius d and to shape (d,).
    d = 5
    good = np.ones(d) * math.sqrt(1.0)  # entries +-1 have squared norm d
    ModelSpec.atpca(k=1, d=d, snr=1.0, factors=(good,))
    with pytest.raises(ValueError, match="squared norm"):
        ModelSpec.atpca(k=1, d=d, snr=1.0, factors=(np.ones(d) * 2.0,))
    with pytest.raises(ValueError, match="shape"):
        ModelSpec.atpca(k=1, d=d, snr=1.0, factors=(np.ones(d + 1),))
    with pytest.raises(ValueError, match="shape"):
        ModelSpec.atpca(k=1, d=d, snr=1.0, factors=(np.ones((d, 1)),))


def test_densify_rejects_no_factors():
    with pytest.raises(ValueError, match="factor"):
        rank1_densify((), 1.0)


def test_densify_matches_naive_loops():
    rng = np.random.default_rng(0)
    d, k = 3, 3
    v = rng.choice([-1.0, 1.0], size=d)
    dense = rank1_densify((v,) * k, 2.5).reshape((d,) * k)
    scale = 2.5 / math.sqrt(d**k)
    for i in range(d):
        for j in range(d):
            for l in range(d):
                assert dense[i, j, l] == pytest.approx(scale * v[i] * v[j] * v[l])


def test_densify_asymmetric_factors():
    d = 4
    e0 = np.zeros(d)
    e0[0] = math.sqrt(d)
    e1 = np.zeros(d)
    e1[1] = math.sqrt(d)
    dense = rank1_densify((e0, e1), 3.0).reshape(d, d)
    # Only the (0, 1) cell survives: 3 * sqrt(d) * sqrt(d) / sqrt(d^2) = 3.
    expected = np.zeros((d, d))
    expected[0, 1] = 3.0
    np.testing.assert_allclose(dense, expected, atol=1e-12)


def test_spike_frobenius_norm_equals_snr():
    # ||snr * v1 x .. x vk / sqrt(d^k)||_F = snr when ||v_i||^2 = d.
    rng = np.random.default_rng(1)
    for k in (2, 3, 4):
        d = 3
        v = rng.choice([-1.0, 1.0], size=d)
        dense = rank1_densify((v,) * k, 1.7)
        assert np.linalg.norm(dense) == pytest.approx(1.7, rel=1e-12)


# ---------------------------------------------------------------------------
# contraction


def test_contract_matches_index_sum():
    rng = np.random.default_rng(2)
    d, k = 3, 3
    entries = rng.standard_normal(d**k)
    psi = rng.standard_normal(d ** (k - 1))
    got = contract_batch(entries[None, :], d, psi)[0]
    cube = entries.reshape(d, d, d)
    psi_cube = psi.reshape(d, d)
    expected = np.zeros(d)
    for i in range(d):
        for j1 in range(d):
            for j2 in range(d):
                expected[i] += cube[j1, j2, i] * psi_cube[j1, j2]
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_contract_rank_one_identity():
    # Contracting v x v x v with (v/||v||)^{x 2} returns ||v||^2 * v * snr-ish
    # scaling; checked against the closed form.
    d, k = 4, 3
    v = np.ones(d)  # squared norm d
    v = v * 1.0
    dense = rank1_densify((v * math.sqrt(1.0),) * k, 1.0)
    unit = v / np.linalg.norm(v)
    psi = np.multiply.outer(unit, unit).reshape(-1)
    got = contract_batch(dense[None, :], d, psi)[0]
    # <v, u>^{k-1} * v / sqrt(d^k) with u = v/||v||: (sqrt(d))^{k-1} v / sqrt(d^k)
    expected = v / math.sqrt(d)
    np.testing.assert_allclose(got, expected, atol=1e-12)


@settings(deadline=None, max_examples=60)
@given(
    d=st.integers(min_value=2, max_value=4),
    k=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_contract_batch_agrees_with_single(d, k, seed):
    rng = np.random.default_rng(seed)
    n = 5
    batch = rng.standard_normal((n, d**k))
    psi = rng.standard_normal(d ** (k - 1))
    got = contract_batch(batch, d, psi)
    cube_psi = psi.reshape((d,) * (k - 1))
    for i in range(n):
        cube = batch[i].reshape((d,) * k)
        single = np.tensordot(cube, cube_psi, axes=(range(k - 1), range(k - 1)))
        np.testing.assert_allclose(got[i], single, atol=1e-10)


def test_outer_power_matches_contract_template():
    rng = np.random.default_rng(3)
    u = rng.standard_normal(3)
    p = outer_power(u, 3)
    expected = np.einsum("i,j,k->ijk", u, u, u).reshape(-1)
    np.testing.assert_allclose(p, expected, atol=1e-12)


@settings(deadline=None, max_examples=100)
@given(
    lengths=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    integral=st.booleans(),
)
def test_outer_product_matches_einsum(lengths, seed, integral):
    rng = np.random.default_rng(seed)
    if integral:  # small integers: every product is exact
        vectors = [rng.integers(-9, 10, n).astype(np.float64) for n in lengths]
    else:
        vectors = [rng.standard_normal(n) for n in lengths]
    letters = "abcd"[: len(lengths)]
    expected = np.einsum(",".join(letters) + "->" + letters, *vectors).reshape(-1)
    got = outer_product(vectors)
    assert got.shape == (math.prod(lengths),)
    if integral:
        np.testing.assert_array_equal(got, expected)
    else:
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0)


# ---------------------------------------------------------------------------
# overlap


def test_overlap_basic_values():
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 2.0])
    assert overlap(a, a) == 1.0
    assert overlap(a, b) == 0.0
    assert overlap(a, -3.0 * a) == 1.0


@settings(deadline=None, max_examples=100)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    scale=st.floats(min_value=1e-3, max_value=1e3),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_overlap_scale_invariant_and_bounded(seed, scale, sign):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(6)
    w = rng.standard_normal(6)
    base = overlap(v, w)
    assert 0.0 <= base <= 1.0
    assert overlap(v, sign * scale * w) == pytest.approx(base, rel=1e-9)


def test_overlap_rejects_zero_and_mismatch():
    with pytest.raises(ValueError):
        overlap(np.zeros(3), np.ones(3))
    with pytest.raises(ValueError):
        overlap(np.ones(3), np.ones(4))


# ---------------------------------------------------------------------------
# the count rule


def _budget_call(value):
    prev = set_entry_budget(value)
    set_entry_budget(prev)


def _quantized(d=3, n_samples=4):
    return QuantizedIteration(power_template(2), QuantizerSpec(), d, n_samples, np.ones(3))


_MOG = NonGaussMeasure("mog", 4, 0.5)
_PROFILE = ResourceProfile(4, 1, _quantized().state_bits)
_TPCA = ModelSpec.tpca(2, 2, 1.0)

# (entry point, call with the count in its slot, lowest accepted value, a
# valid value).  Every count and degree goes through ``check_count``.
COUNT_SLOTS = [
    ("hermite_all", lambda v: hermite_all(v, 0.5), 0, 2),
    ("gauss_hermite_rule", gauss_hermite_rule, 1, 2),
    ("build_weighted_basis", build_weighted_basis, 1, 2),
    ("WeightedOrthoBasis.eval", lambda v: build_weighted_basis(3).eval(v, 0.5), 0, 2),
    ("hermite_coefficient", _MOG.hermite_coefficient, 0, 2),
    ("moment", _MOG.moment, 0, 2),
    ("sample", lambda v: _MOG.sample(v, np.random.default_rng(0)), 0, 2),
    ("gaussian_moment", gaussian_moment, 0, 2),
    ("rademacher_mean_moment d", lambda v: rademacher_mean_moment(v, 2), 1, 2),
    ("rademacher_mean_moment t", lambda v: rademacher_mean_moment(4, v), 0, 2),
    ("rademacher_mean_moment marked", lambda v: rademacher_mean_moment(4, 2, (v,)), 0, 2),
    ("check_rademacher_bounds d", lambda v: check_rademacher_bounds(v, 2), 3, 4),
    ("check_rademacher_bounds t_max", lambda v: check_rademacher_bounds(4, v), 1, 2),
    ("integrated_hermite_norm d", lambda v: integrated_hermite_norm(v, 2, 1), 1, 2),
    ("integrated_hermite_norm k", lambda v: integrated_hermite_norm(4, v, 1), 1, 2),
    ("integrated_hermite_norm i", lambda v: integrated_hermite_norm(4, 2, v), 0, 2),
    ("integrated_hermite_inner i", lambda v: integrated_hermite_inner(4, 2, v, 1), 0, 2),
    ("integrated_hermite_inner j", lambda v: integrated_hermite_inner(4, 2, 1, v), 0, 2),
    *[
        (
            f"LDLRInstance {name}",
            lambda v, name=name: LDLRInstance(
                **{"problem": "ngca", "N": 2, "d": 4, "k": 2, "t": 2, name: v},
                coeffs=(0.1,) * 4,
            ),
            1,
            2,
        )
        for name in ("N", "d", "k", "t")
    ],
    ("sign_coefficient", sign_coefficient, 0, 2),
    ("sign_tail_mass", sign_tail_mass, 0, 2),
    ("set_entry_budget", _budget_call, 1, 2),
    ("outer_power", lambda v: outer_power(np.ones(2), v), 1, 2),
    ("ModelSpec.cca k", lambda v: ModelSpec.cca(v, 3, 0.1), 2, 2),
    ("_power_inplace", lambda v: _power_inplace(np.ones(2), v), 1, 2),
    ("gaussian_reference_constant k", lambda v: gaussian_reference_constant(v, 3), 2, 2),
    ("gaussian_reference_constant d", lambda v: gaussian_reference_constant(4, v), 1, 2),
    ("sphere_net d", lambda v: sphere_net(v, 0.5), 1, 2),
    ("shard_stream", lambda v: shard_stream(np.zeros((4, 2)), v), 1, 2),
    (
        "reduce_memory_to_distributed n",
        lambda v: reduce_memory_to_distributed(_quantized(), _PROFILE, v),
        1,
        2,
    ),
    ("power_template k", power_template, 2, 2),
    ("partial_trace_template k", lambda v: partial_trace_template(v, 3), 2, 2),
    ("partial_trace_template d", lambda v: partial_trace_template(2, v), 1, 2),
    ("QuantizedIteration d", lambda v: _quantized(d=v), 1, 3),
    ("QuantizedIteration n_samples", lambda v: _quantized(n_samples=v), 1, 2),
    ("SampleBatch seed", lambda v: SampleBatch(_TPCA, np.zeros((1, 4)), v), 0, 2),
    ("sample_tpca seed", lambda v: sample_tpca(_TPCA, 2, v), 0, 2),
    ("sample_ngca seed", lambda v: sample_ngca(ModelSpec.ngca(3, _MOG), 2, v), 0, 2),
    ("sample_cca seed", lambda v: sample_cca(ModelSpec.cca(2, 3, 0.1), 2, v), 0, 2),
    ("rejection_sample n", lambda v: rejection_sample(v, np.zeros), 0, 2),
    ("ModelSpec.tpca seed", lambda v: ModelSpec.tpca(2, 3, 1.0, seed=v), 0, 2),
    ("ModelSpec.atpca seed", lambda v: ModelSpec.atpca(2, 3, 1.0, seed=v), 0, 2),
    ("ModelSpec.ngca seed", lambda v: ModelSpec.ngca(3, _MOG, seed=v), 0, 2),
    ("ModelSpec.cca seed", lambda v: ModelSpec.cca(2, 3, 0.3, seed=v), 0, 2),
    ("PowerMethodConfig seed", lambda v: PowerMethodConfig(seed=v), 0, 2),
    ("BruteForceConfig seed", lambda v: BruteForceConfig(0.5, 1.0, seed=v), 0, 2),
    ("sphere_net seed", lambda v: sphere_net(3, 1.0, v), 0, 2),
]


@pytest.mark.parametrize(
    "call, low, good", [c[1:] for c in COUNT_SLOTS], ids=[c[0] for c in COUNT_SLOTS]
)
def test_every_count_slot_follows_the_count_rule(call, low, good):
    call(np.int64(good))  # numpy integers count; memos are warm from here on
    for bad in (True, float(good), np.float64(good), low - 1):
        with pytest.raises(ValueError, match="must be an integer"):
            call(bad)


# (entry point, call with the value in its slot, a valid value).  Every
# snr, delta, truncation level, radius and tolerance goes through
# ``check_real``.
REAL_SLOTS = [
    (
        "ExperimentConfig snr",
        lambda v: ExperimentConfig("tpca", 2, 3, v, "tensor-power", (8,), (0,)),
        1.0,
    ),
    ("ModelSpec snr", lambda v: ModelSpec("tpca", 2, 3, v), 1.0),
    ("ModelSpec.tpca snr", lambda v: ModelSpec.tpca(2, 3, snr=v), 1.0),
    ("ModelSpec.atpca snr", lambda v: ModelSpec.atpca(2, 3, snr=v), 1.0),
    ("ModelSpec.cca snr", lambda v: ModelSpec.cca(2, 3, snr=v), 0.3),
    ("NonGaussMeasure snr", lambda v: NonGaussMeasure("mog", 4, v), 0.5),
    (
        "LDLRInstance snr",
        lambda v: LDLRInstance("ngca", N=2, d=4, k=2, t=2, coeffs=(0.1,) * 2, snr=v),
        0.5,
    ),
    ("BruteForceConfig delta", lambda v: BruteForceConfig(delta=v, trunc=1.0), 1.0),
    ("BruteForceConfig trunc", lambda v: BruteForceConfig(delta=1.0, trunc=v), 1.0),
    ("sphere_net delta", lambda v: sphere_net(2, v), 1.0),
    ("QuantizerSpec radius", lambda v: QuantizerSpec(bits=8, radius=v), 1.0),
    ("PowerMethodConfig tol", lambda v: PowerMethodConfig(tol=v), 1.0),
]


@pytest.mark.parametrize(
    "call, good", [c[1:] for c in REAL_SLOTS], ids=[c[0] for c in REAL_SLOTS]
)
def test_every_real_slot_follows_the_real_rule(call, good):
    # A bool used to be taken as 1, and a string or None to raise TypeError.
    for ok in (good, np.float64(good), np.float32(good)):
        call(ok)
    for bad in (True, np.True_, "1.0", None):
        with pytest.raises(ValueError, match="must be a real number"):
            call(bad)


# (entry point, call with the snr in its slot, a valid value).  Every
# planted-instance snr goes through ``check_snr``.
SNR_SLOTS = [
    (
        "ExperimentConfig",
        lambda v: ExperimentConfig("tpca", 2, 3, v, "tensor-power", (8,), (0,)),
        1.0,
    ),
    ("ModelSpec", lambda v: ModelSpec("tpca", 2, 3, v), 1.0),
    ("ModelSpec.tpca", lambda v: ModelSpec.tpca(2, 3, snr=v), 1.0),
    ("ModelSpec.atpca", lambda v: ModelSpec.atpca(2, 3, snr=v), 1.0),
    ("ModelSpec.cca", lambda v: ModelSpec.cca(2, 3, snr=v), 0.3),
    (
        "LDLRInstance",
        lambda v: LDLRInstance("ngca", N=2, d=4, k=2, t=2, coeffs=(0.1,) * 2, snr=v),
        0.5,
    ),
]


@pytest.mark.parametrize(
    "call, good", [c[1:] for c in SNR_SLOTS], ids=[c[0] for c in SNR_SLOTS]
)
def test_every_snr_slot_follows_the_snr_rule(call, good):
    call(good)
    call(0.0)
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="snr must be finite and >= 0"):
            call(bad)


_LLR = functools.partial(NonGaussMeasure, "bounded-llr", snr=0.001)

# (entry point, call with the order k in its slot, a valid even k).  Every
# construction that pairs the k slots goes through ``check_even``.
EVEN_SLOTS = [
    (
        "partial_trace_spectral",
        lambda k: partial_trace_spectral(sample_tpca(ModelSpec.tpca(k, 2, 1.0), 4, 0)),
        2,
    ),
    (
        "matricization_rank1",
        lambda k: matricization_rank1(np.ones(2**k), k, 2, PowerMethodConfig()),
        2,
    ),
    (
        "cca_matricization_estimator",
        lambda k: cca_matricization_estimator(sample_cca(ModelSpec.cca(k, 3, 0.1), 4, 0)),
        2,
    ),
    ("gaussian_reference_constant", lambda k: gaussian_reference_constant(k, 3), 4),
    (
        "ngca_spectral",
        lambda k: ngca_spectral(sample_ngca(ModelSpec.ngca(3, _LLR(order=k)), 4, 0)),
        4,
    ),
    ("partial_trace_template", lambda k: partial_trace_template(k, 3), 2),
    ("NonGaussMeasure mog", lambda k: NonGaussMeasure("mog", k, 0.5), 4),
]


@pytest.mark.parametrize(
    "call, good", [c[1:] for c in EVEN_SLOTS], ids=[c[0] for c in EVEN_SLOTS]
)
def test_every_even_order_slot_follows_the_even_rule(call, good):
    call(good)
    with pytest.raises(ValueError, match="needs even k, got 3"):
        call(3)


def test_rejected_entry_budget_leaves_the_budget():
    before = entry_budget()
    for bad in (2.5, True, 0):
        with pytest.raises(ValueError):
            set_entry_budget(bad)
        assert entry_budget() == before


def test_unit_divides_by_the_norm_and_rejects_a_collapse():
    u = np.array([3.0, -4.0, 1e-3])
    direction, nrm = unit(u)
    assert nrm == float(np.linalg.norm(u))
    assert direction.tobytes() == (u / nrm).tobytes()
    for bad in (np.zeros(3), np.array([np.inf, 0.0]), np.array([np.nan, 1.0])):
        with pytest.raises(RuntimeError, match="collapsed"):
            unit(bad)
