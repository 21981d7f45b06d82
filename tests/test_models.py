"""Tests for the planted-model samplers and the relabeling reductions."""

import math

import numpy as np
import pytest

from spikelab.hermite import build_weighted_basis, hermite_all
from spikelab.measures import build_bounded_llr_measure, build_mog_measure
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
    for v, idx in zip(spec.spike.factors, (1, 3, 0)):
        assert v[idx] == pytest.approx(2.0)
        assert np.count_nonzero(v) == 1


def test_ngca_spec_inherits_measure_scales():
    m = build_mog_measure(4, 0.5)
    spec = ModelSpec.ngca(d=6, measure=m, seed=1)
    assert spec.k == 4
    assert spec.snr == 0.5
    assert spec.row_length == 6


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


# ---------------------------------------------------------------------------
# tensor samplers


def test_tpca_batch_statistics():
    spec = ModelSpec.tpca(k=3, d=3, snr=1.5, seed=0)
    batch = sample_tpca(spec, n=4000, seed=11)
    signal = rank1_densify(spec.spike)
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
    m = build_mog_measure(4, 1.0)
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
    m = build_mog_measure(2, 0.4)
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
    m = build_bounded_llr_measure(k, 0.6 * build_weighted_basis(k).lambda_max)
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
    m = build_mog_measure(4, 0.5)  # even tilt: symmetrized ratio != 1
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
