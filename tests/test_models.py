"""Tests for the planted-model samplers and the relabeling reductions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikelab.batchio import batch_from_bytes, batch_to_bytes
from spikelab.hermite import build_weighted_basis, hermite_all
from spikelab.measures import KINDS, NonGaussMeasure
from spikelab.models import (
    ModelSpec,
    SampleBatch,
    cca_critical_snr,
    reduce_cca_to_parity,
    reduce_ngca_to_glm,
    sample_atpca,
    sample_cca,
    sample_ngca,
    sample_tpca,
)
from spikelab.tensors import rank1_densify, set_entry_budget


def mc_band(values, sigmas=5.0):
    """Half-width of the k-sigma band for the mean of the given draws."""
    return sigmas * np.std(values, ddof=1) / math.sqrt(len(values))


# ---------------------------------------------------------------------------
# specs


def test_tpca_spec_defaults():
    spec = ModelSpec.tpca(k=3, d=5, snr=1.2, seed=4)
    assert spec.row_length == 125
    assert set(np.unique(spec.direction)) <= {-1.0, 1.0}
    assert spec.direction @ spec.direction == pytest.approx(5.0)


def test_atpca_spec_coordinate_factors():
    spec = ModelSpec.atpca(k=3, d=4, snr=0.7, indices=(1, 3, 0))
    for v, idx in zip(spec.factors, (1, 3, 0)):
        assert v[idx] == pytest.approx(2.0)
        assert np.count_nonzero(v) == 1


def test_ngca_spec_inherits_measure_scales():
    m = NonGaussMeasure("mog", 4, 0.5)
    spec = ModelSpec.ngca(d=6, measure=m, seed=1)
    assert spec.k == 4
    assert spec.snr == 0.5
    assert spec.row_length == 6


def test_spec_k_and_snr_are_its_measures():
    # An ngca spec could say k = 2 and snr 9 while its sampler drew from
    # an order-4, snr-0.5 law.
    v = np.array([1.0, -1.0, 1.0, 1.0])
    m = NonGaussMeasure("mog", 4, 0.5)
    for problem, k, snr in (("ngca", 2, 9.0), ("ngca", 2, 0.5), ("glm", 4, 0.25)):
        with pytest.raises(ValueError, match="measure's order 4 and snr 0.5"):
            ModelSpec(problem=problem, k=k, d=4, snr=snr, direction=v, measure=m)
    spec = ModelSpec(problem="ngca", k=4, d=4, snr=0.5, direction=v, measure=m)
    assert spec.measure == NonGaussMeasure("mog", 4, 0.5)


def test_specs_compare_by_value():
    # The generated == compared the direction arrays as fields and raised
    # numpy's ambiguous-truth ValueError.
    v = np.array([1.0, -1.0, 1.0, 1.0])
    m = NonGaussMeasure("mog", 4, 0.5)
    spec = ModelSpec(problem="ngca", k=4, d=4, snr=0.5, direction=v, measure=m)
    assert ModelSpec.ngca(d=4, measure=m, direction=v) == spec
    assert ModelSpec.ngca(d=4, measure=m, direction=-v) != spec
    assert ModelSpec.tpca(3, 4, 1.0, direction=v) == ModelSpec.tpca(3, 4, 1.0, direction=v.copy())
    assert ModelSpec.tpca(2, 4, 1.0, direction=v) != ModelSpec.tpca(3, 4, 1.0, direction=v)
    atpca = ModelSpec.atpca(2, 4, 1.0, indices=(0, 1))
    assert atpca == ModelSpec.atpca(2, 4, 1.0, indices=(0, 1))
    assert atpca != ModelSpec.atpca(2, 4, 1.0, indices=(0, 2))
    assert atpca != ModelSpec(problem="atpca", k=2, d=4, snr=1.0)
    assert atpca != ModelSpec.atpca(2, 4, 0.5, indices=(0, 1))
    assert spec != "ngca"


def test_measureless_ngca_specs_raise_value_errors():
    # A loaded batch carries no measure; both calls used to end in
    # AttributeError on None.
    spec = ModelSpec.ngca(d=4, measure=NonGaussMeasure("mog", 2, 0.4), seed=1)
    loaded = batch_from_bytes(batch_to_bytes(sample_ngca(spec, 8, 2)))
    assert loaded.spec.problem == "ngca" and loaded.spec.measure is None
    with pytest.raises(ValueError, match="no measure"):
        sample_ngca(loaded.spec, 8, 2)
    with pytest.raises(ValueError, match="no measure"):
        reduce_ngca_to_glm(loaded, seed=0)


def test_cca_spec_snr_ceiling():
    assert cca_critical_snr(2) == pytest.approx(2.0 / math.pi)
    with pytest.raises(ValueError):
        ModelSpec.cca(k=2, d=3, snr=0.7)
    ModelSpec.cca(k=2, d=3, snr=0.6)


def test_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(problem="nope", k=2, d=2, snr=0.0)
    with pytest.raises(ValueError):
        ModelSpec(problem="tpca", k=2, d=3, snr=0.1, direction=np.ones(3) * 2)


@pytest.mark.parametrize("snr", [math.nan, math.inf, -0.1])
def test_spec_rejects_non_finite_or_negative_snr(snr):
    # A cca nan passed the critical-value test and, folded into the
    # rejection loop, would have burned its whole proposal budget.
    for build in (ModelSpec.tpca, ModelSpec.atpca, ModelSpec.cca):
        with pytest.raises(ValueError, match="snr"):
            build(k=2, d=3, snr=snr)


def test_spec_holds_each_planted_fact_once():
    # When the spike was a separate object, a tpca spec could report snr
    # 1 and direction -v while its sampler drew at snr 50 along +v, and
    # three factors for k = 2 failed only inside the sampler.
    v = np.array([1.0, -1.0, 1.0])
    with pytest.raises(ValueError, match="direction"):
        ModelSpec(problem="tpca", k=2, d=3, snr=1.0, factors=(v, v), direction=-v)
    with pytest.raises(ValueError, match="direction"):
        ModelSpec(problem="tpca", k=2, d=3, snr=1.0, factors=(v, v))
    with pytest.raises(ValueError, match="3 factors for order 2"):
        ModelSpec(problem="tpca", k=2, d=3, snr=1.0, factors=(v, v, v), direction=v)
    with pytest.raises(ValueError, match="1 factors for order 2"):
        ModelSpec.atpca(k=2, d=3, snr=1.0, factors=(v,))
    with pytest.raises(ValueError, match="2 factors for order 3"):
        ModelSpec.cca(k=3, d=3, snr=0.1, factors=(v, v))


def test_tpca_factors_are_k_references_to_the_direction():
    spec = ModelSpec.tpca(k=3, d=4, snr=1.0, seed=2)
    assert len(spec.factors) == 3
    assert all(v is spec.direction for v in spec.factors)
    assert not spec.direction.flags.writeable
    # A strided direction is copied once, not once per factor, and a
    # direct construction from a direction alone gets its factors too.
    strided = np.array([1.0, 0.0, -1.0, 0.0, 1.0, 0.0])[::2]
    for spec in (
        ModelSpec.tpca(k=2, d=3, snr=1.0, direction=strided),
        ModelSpec(problem="tpca", k=2, d=3, snr=1.0, direction=strided),
    ):
        assert all(v is spec.direction for v in spec.factors)
        assert spec.direction.flags.c_contiguous and not spec.direction.flags.writeable


def test_spec_vectors_do_not_alias_the_callers_arrays():
    # A contiguous view used to be frozen in place: the caller's array
    # became read-only, and writing to its base moved the spec's
    # direction past the sphere check.
    base = np.ones(4)
    spec = ModelSpec.tpca(k=2, d=3, snr=1.0, direction=base[:3])
    factor = np.array([0.0, math.sqrt(3.0), 0.0])
    atpca = ModelSpec.atpca(k=2, d=3, snr=1.0, factors=(factor, factor))
    base[0] = 10.0
    factor[1] = 10.0
    np.testing.assert_array_equal(spec.direction, np.ones(3))
    np.testing.assert_array_equal(spec.factors[1], np.ones(3))
    assert atpca.factors[0][1] == math.sqrt(3.0)
    assert not spec.direction.flags.writeable and spec.direction.flags.owndata


@pytest.mark.parametrize("k, d", [(True, 3), (2.0, 3), (2, False), (2, 3.0), (0, 3)])
def test_spec_counts_are_integers(k, d):
    with pytest.raises(ValueError, match="must be an integer"):
        ModelSpec(problem="atpca", k=k, d=d, snr=1.0)


def test_spec_constructors_and_samplers_check_counts():
    with pytest.raises(ValueError, match="k must be an integer"):
        ModelSpec.tpca(k=True, d=3, snr=1.0)
    # The default direction and factors are drawn before the spec
    # exists, so the constructors check the sizes they draw with.
    m = NonGaussMeasure("mog", 2, 0.4)
    for build in (
        lambda: ModelSpec.tpca(k=2, d=2.5, snr=1.0),
        lambda: ModelSpec.tpca(k=2, d=True, snr=1.0),
        lambda: ModelSpec.ngca(d=2.5, measure=m),
        lambda: ModelSpec.atpca(k=2.5, d=3, snr=1.0),
        lambda: ModelSpec.atpca(k=2, d=3.0, snr=1.0),
        lambda: ModelSpec.cca(k=3, d=2.5, snr=0.1),
    ):
        with pytest.raises(ValueError, match="must be an integer"):
            build()
    cases = (
        (sample_tpca, ModelSpec.tpca(k=2, d=3, snr=1.0)),
        (sample_atpca, ModelSpec.atpca(k=2, d=3, snr=1.0)),
        (sample_ngca, ModelSpec.ngca(d=3, measure=m)),
        (sample_cca, ModelSpec.cca(k=2, d=3, snr=0.1)),
    )
    for sample, spec in cases:
        for n in (2.5, True, 0, -1):
            with pytest.raises(ValueError, match="n must be an integer"):
                sample(spec, n, 0)
        assert sample(spec, np.int64(2), 0).n == 2


# ---------------------------------------------------------------------------
# tensor samplers


def test_tpca_batch_statistics():
    spec = ModelSpec.tpca(k=3, d=3, snr=1.5, seed=0)
    batch = sample_tpca(spec, n=4000, seed=11)
    signal = rank1_densify(spec.factors, spec.snr)
    resid = batch.data - signal
    # Mean should sit on the spike entrywise, variance near one pooled.
    err = batch.data.mean(axis=0) - signal
    assert np.max(np.abs(err)) < 5.0 / math.sqrt(batch.n)
    assert resid.var() == pytest.approx(1.0, rel=0.02)
    # The matched filter <X, v^k> / sqrt(d^k) is N(snr, 1).
    m = batch.data @ (signal / np.linalg.norm(signal))
    assert abs(m.mean() - 1.5) < mc_band(m)
    assert m.var(ddof=1) == pytest.approx(1.0, rel=0.05)


def test_tpca_determinism():
    spec = ModelSpec.tpca(k=2, d=4, snr=1.0, seed=0)
    a = sample_tpca(spec, n=50, seed=3)
    b = sample_tpca(spec, n=50, seed=3)
    c = sample_tpca(spec, n=50, seed=4)
    np.testing.assert_array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


def test_atpca_planted_cell():
    spec = ModelSpec.atpca(k=3, d=3, snr=2.0, indices=(0, 1, 2))
    batch = sample_atpca(spec, n=6000, seed=9)
    mean = batch.data.mean(axis=0).reshape(3, 3, 3)
    # Coordinate spike: entry (0,1,2) carries the full snr, others zero.
    assert abs(mean[0, 1, 2] - 2.0) < 5.0 / math.sqrt(batch.n)
    mask = np.ones((3, 3, 3), dtype=bool)
    mask[0, 1, 2] = False
    assert np.max(np.abs(mean[mask])) < 5.0 / math.sqrt(batch.n)


def test_tensor_sampler_rejects_wrong_problem():
    spec = ModelSpec.tpca(k=2, d=3, snr=1.0)
    with pytest.raises(ValueError):
        sample_atpca(spec, n=5, seed=0)


def test_batch_budget_guard():
    prev = set_entry_budget(1000)
    try:
        spec = ModelSpec.tpca(k=4, d=4, snr=1.0)
        with pytest.raises(MemoryError):
            sample_tpca(spec, n=10, seed=0)
    finally:
        set_entry_budget(prev)


# ---------------------------------------------------------------------------
# planted projection


def test_ngca_projection_carries_the_measure():
    m = NonGaussMeasure("mog", 4, 1.0)
    spec = ModelSpec.ngca(d=6, measure=m, seed=2)
    batch = sample_ngca(spec, n=100_000, seed=5)
    xi = batch.data @ spec.direction / math.sqrt(spec.d)
    vals = hermite_all(4, xi)
    # The planted projection follows nu: H_4 mean at nu_hat_4, H_1..H_3 at 0.
    for t in (1, 2, 3):
        assert abs(vals[t].mean()) < mc_band(vals[t])
    target = m.hermite_coefficient(4)
    assert abs(vals[4].mean() - target) < mc_band(vals[4])


def test_ngca_orthogonal_directions_stay_gaussian():
    m = NonGaussMeasure("mog", 2, 0.4)
    spec = ModelSpec.ngca(d=5, measure=m, seed=3)
    batch = sample_ngca(spec, n=50_000, seed=8)
    w = np.zeros(5)
    w[0], w[1] = spec.direction[1], -spec.direction[0]  # orthogonal to v
    w /= np.linalg.norm(w)
    proj = batch.data @ w
    assert abs(proj.mean()) < mc_band(proj)
    assert proj.var(ddof=1) == pytest.approx(1.0, rel=0.02)
    assert abs(np.mean(proj**3)) < mc_band(proj**3)


# ---------------------------------------------------------------------------
# correlated views


def test_cca_marginals_and_correlation():
    k, d = 3, 4
    snr = 0.5 * cca_critical_snr(k)
    spec = ModelSpec.cca(k=k, d=d, snr=snr, indices=(0, 1, 2))
    batch = sample_cca(spec, n=60_000, seed=13)
    views = batch.views()
    # Each view is marginally standard Gaussian.
    for l in range(k):
        assert np.max(np.abs(views[:, l, :].mean(axis=0))) < 5.0 / math.sqrt(batch.n)
        assert views[:, l, :].var() == pytest.approx(1.0, rel=0.02)
    # The sign parity over planted coordinates has mean Lambda.
    signs = np.sign(views[:, 0, 0] * views[:, 1, 1] * views[:, 2, 2])
    assert abs(signs.mean() - 0.5) < mc_band(signs)
    # The planted product moment is snr exactly in expectation.
    prod = views[:, 0, 0] * views[:, 1, 1] * views[:, 2, 2]
    assert abs(prod.mean() - snr) < mc_band(prod)


def test_cca_acceptance_rate_band():
    k = 2
    snr = 0.9 * cca_critical_snr(k)
    spec = ModelSpec.cca(k=k, d=3, snr=snr, indices=(0, 1))
    batch = sample_cca(spec, n=40_000, seed=1)
    rate = batch.n / batch.meta["proposals"]
    # Mean acceptance probability is 1/(1 + Lambda); chunk overshoot can
    # only push the observed ratio down, never above one.
    floor = 1.0 / (1.0 + 0.9)
    assert 0.5 * floor <= rate <= 1.0


def test_cca_determinism():
    spec = ModelSpec.cca(k=2, d=3, snr=0.3, indices=(0, 1))
    a = sample_cca(spec, n=500, seed=21)
    b = sample_cca(spec, n=500, seed=21)
    np.testing.assert_array_equal(a.data, b.data)
    assert a.meta == b.meta


# ---------------------------------------------------------------------------
# reductions


def test_ngca_to_glm_moves_signal_into_labels():
    k = 3
    m = NonGaussMeasure("bounded-llr", k, 0.6 * build_weighted_basis(k).lambda_max)
    spec = ModelSpec.ngca(d=5, measure=m, seed=6)
    batch = sample_ngca(spec, n=120_000, seed=7)
    glm = reduce_ngca_to_glm(batch, seed=17)
    assert glm.spec.problem == "glm"
    assert glm.labels is not None
    signed = 2.0 * glm.labels - 1.0
    # Labels are unbiased coin flips.
    assert abs(signed.mean()) < mc_band(signed)
    xi = glm.data @ spec.direction / math.sqrt(spec.d)
    vals = hermite_all(k, xi)
    # Features are marginally Gaussian along the planted direction.
    for t in (1, 2, 3):
        assert abs(vals[t].mean()) < mc_band(vals[t]), f"H_{t} of features"
    # The label-feature correlation recovers the odd Hermite signal.
    target = m.hermite_coefficient(k)
    assert abs((signed * vals[k]).mean() - target) < mc_band(signed * vals[k])
    assert abs((signed * vals[2]).mean()) < mc_band(signed * vals[2])


def test_ngca_to_glm_requires_symmetrized_ratio():
    m = NonGaussMeasure("mog", 4, 0.5)  # even tilt: symmetrized ratio != 1
    spec = ModelSpec.ngca(d=4, measure=m, seed=0)
    batch = sample_ngca(spec, n=100, seed=0)
    with pytest.raises(ValueError):
        reduce_ngca_to_glm(batch, seed=0)


def test_cca_to_parity_round_trip():
    k, d = 3, 3
    snr = 0.5 * cca_critical_snr(k)
    spec = ModelSpec.cca(k=k, d=d, snr=snr, indices=(2, 0, 1))
    batch = sample_cca(spec, n=80_000, seed=23)
    parity = reduce_cca_to_parity(batch, seed=29)
    assert parity.spec.problem == "parity"
    assert parity.spec.subset == (2, 3, 7)  # view-major coordinates
    assert parity.spec.snr == pytest.approx(0.5)
    signed = 2.0 * parity.labels - 1.0
    feats = parity.data[:, list(parity.spec.subset)]
    agreement = signed * np.sign(feats).prod(axis=1)
    # P(label matches subset parity) = (1 + Lambda) / 2.
    assert abs(agreement.mean() - 0.5) < mc_band(agreement)


def test_cca_to_parity_preconditions():
    even = sample_cca(ModelSpec.cca(k=2, d=3, snr=0.1, indices=(0, 1)), 50, seed=0)
    with pytest.raises(ValueError):
        reduce_cca_to_parity(even, seed=0)
    rng = np.random.default_rng(0)
    dense_factors = tuple(rng.choice([-1.0, 1.0], size=3) for _ in range(3))
    spec = ModelSpec.cca(k=3, d=3, snr=0.1, factors=dense_factors)
    batch = sample_cca(spec, 50, seed=0)
    with pytest.raises(ValueError):
        reduce_cca_to_parity(batch, seed=0)


# ---------------------------------------------------------------------------
# batch container


def test_batch_validation():
    spec = ModelSpec.tpca(k=2, d=3, snr=0.0)
    with pytest.raises(ValueError):
        SampleBatch(spec=spec, data=np.zeros((4, 8)), seed=0)
    with pytest.raises(ValueError):
        SampleBatch(spec=spec, data=np.zeros((4, 9)), seed=0, labels=np.ones(3))
    with pytest.raises(ValueError):
        SampleBatch(
            spec=spec, data=np.zeros((4, 9)), seed=0, labels=np.full(4, 0.5)
        )
    batch = SampleBatch(spec=spec, data=np.zeros((4, 9)), seed=0)
    assert batch.n == 4
    with pytest.raises(ValueError):
        batch.data[0, 0] = 1.0


def test_batch_does_not_alias_the_callers_arrays():
    # A contiguous float64 view used to be frozen in place: the caller's
    # array became read-only, and writing to its base moved the batch's
    # data and labels past their checks.
    spec = ModelSpec(problem="glm", k=2, d=3, snr=0.0)
    base = np.arange(12.0)
    flags = np.array([0.0, 1.0, 1.0, 0.0])
    data, labels = base[:6].reshape(2, 3), flags[:2]
    batch = SampleBatch(spec, data, 0, labels=labels)
    base[0] = 7.0
    flags[1] = 0.5
    assert batch.data[0, 0] == 0.0 and batch.labels[1] == 1.0
    assert data.flags.writeable and labels.flags.writeable
    assert not batch.data.flags.writeable and not batch.labels.flags.writeable
    fortran = np.asfortranarray(np.arange(6.0).reshape(2, 3))
    assert SampleBatch(spec, fortran, 0).data.flags.c_contiguous
    # A read-only view still has a writable base, so it is copied too; a
    # sealed array that owns its memory, as the samplers hand over, is kept.
    view = base[:6].reshape(2, 3)
    view.flags.writeable = False
    assert SampleBatch(spec, view, 0).data is not view
    sealed = np.zeros((2, 3))
    sealed.flags.writeable = False
    assert SampleBatch(spec, sealed, 0).data is sealed


# ---------------------------------------------------------------------------
# relabeling properties: any rows, any seed

# Even k gives an even tilt, so only the odd bounded tilts are odd
# around 1; f >= 0.1 keeps the others' departure far above the 1e-6 grid
# check.
NGCA_MEASURES = st.one_of(
    st.tuples(st.just("mog"), st.sampled_from([2, 4, 6])),
    st.tuples(st.just("bounded-llr"), st.sampled_from([2, 3, 4, 5])),
)


def any_rows(seed, n, width):
    return np.random.default_rng(seed).standard_normal((n, width)) * 4.0


@settings(max_examples=40, deadline=None)
@given(
    measure=NGCA_MEASURES,
    f=st.floats(0.1, 1.0),
    d=st.integers(1, 5),
    n=st.integers(0, 12),
    seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
)
def test_ngca_to_glm_relabels_rows_exactly(measure, f, d, n, seeds):
    kind, k = measure
    # The top admissible snr: lambda_k / 2 = (k/2)! / 2 for a mixture.
    if kind == "mog":
        top = math.factorial(k // 2) / 2.0
    else:
        top = build_weighted_basis(k).lambda_max
    m = NonGaussMeasure(kind, k, f * top)
    spec = ModelSpec.ngca(d=d, measure=m, seed=seeds[0])
    batch = SampleBatch(spec, any_rows(seeds[0], n, d), 5)
    if not (kind == "bounded-llr" and k % 2 == 1):
        with pytest.raises(ValueError, match="not odd around 1"):
            reduce_ngca_to_glm(batch, seeds[1])
        return
    glm = reduce_ngca_to_glm(batch, seeds[1])
    assert glm.labels.shape == (n,) and set(glm.labels) <= {0.0, 1.0}
    np.testing.assert_array_equal((2.0 * glm.labels - 1.0)[:, None] * glm.data, batch.data)
    assert glm.seed == seeds[1]
    assert (glm.spec.problem, glm.spec.k, glm.spec.d, glm.spec.snr) == ("glm", k, d, m.snr)
    assert glm.spec.measure is m and (glm.spec.k, glm.spec.snr) == (m.order, m.snr)
    np.testing.assert_array_equal(glm.spec.direction, spec.direction)
    assert glm.spec.factors == () and glm.spec.subset == ()


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(2, 5),
    d=st.integers(2, 4),
    f=st.floats(0.0, 1.0),
    dense=st.one_of(st.none(), st.integers(0, 4)),
    n=st.integers(0, 12),
    seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
)
def test_cca_to_parity_relabels_rows_exactly(k, d, f, dense, n, seeds):
    # Signed coordinate factors, but for view ``dense`` (when it is one of
    # the k views), which gets a Rademacher factor.
    rng = np.random.default_rng(seeds[0])
    indices = rng.integers(0, d, size=k)
    signs = rng.choice([-1.0, 1.0], size=(k, d))
    factors = [
        signs[view] if view == dense else signs[view, 0] * math.sqrt(d) * np.eye(d)[i]
        for view, i in enumerate(indices)
    ]
    spec = ModelSpec.cca(k=k, d=d, snr=f * cca_critical_snr(k), factors=factors)
    batch = SampleBatch(spec, any_rows(seeds[0], n, k * d), 5)
    if k % 2 == 0:
        with pytest.raises(ValueError, match="odd number of views"):
            reduce_cca_to_parity(batch, seeds[1])
        return
    if dense is not None and dense < k:
        with pytest.raises(ValueError, match="coordinate factors"):
            reduce_cca_to_parity(batch, seeds[1])
        return
    parity = reduce_cca_to_parity(batch, seeds[1])
    assert parity.labels.shape == (n,) and set(parity.labels) <= {0.0, 1.0}
    np.testing.assert_array_equal(
        (2.0 * parity.labels - 1.0)[:, None] * parity.data, batch.data
    )
    assert parity.seed == seeds[1]
    out = parity.spec
    assert (out.problem, out.k, out.d) == ("parity", k, d)
    assert out.snr == spec.snr / cca_critical_snr(k)
    assert out.subset == tuple(view * d + int(i) for view, i in enumerate(indices))
    assert len(out.factors) == k
    for got, want in zip(out.factors, spec.factors):
        np.testing.assert_array_equal(got, want)
    assert out.direction is None and out.measure is None
