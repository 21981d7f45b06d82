"""Estimator behavior: exact recovery, calibration, and edge cases."""

import itertools
import math
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spikelab import cli
from spikelab import estimators as est
from spikelab.config import iteration_seed, parse_config
from spikelab.estimators import (
    BruteForceConfig,
    PowerMethodConfig,
    brute_force_cca,
    brute_force_ngca,
    cca_matricization_estimator,
    default_power_iters,
    gaussian_reference_constant,
    matricization_rank1,
    mr_matricization_estimator,
    net_discrepancy,
    ngca_spectral,
    partial_trace_spectral,
    power_iteration,
    rank1_svd,
    sphere_net,
    tensor_power_method,
    _normalize_rows,
    _power_inplace,
)
from spikelab.measures import NonGaussMeasure
from spikelab.models import (
    ModelSpec,
    SampleBatch,
    sample_atpca,
    sample_cca,
    sample_ngca,
    sample_tpca,
)
from spikelab.tensors import (
    contract_batch,
    outer_power,
    outer_product,
    rank1_densify,
    set_entry_budget,
)


def noiseless_batch(spec, n=1):
    entries = rank1_densify(spec.factors, spec.snr)
    return SampleBatch(spec=spec, data=np.tile(entries, (n, 1)), seed=0)


def negated(batch):
    return SampleBatch(spec=batch.spec, data=-batch.data, seed=batch.seed)


# ---------------------------------------------------------------------------
# low-level iterations


def test_power_iteration_matches_dense_eigensolver():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((8, 8))
    a = a + a.T + 8.0 * np.eye(8)  # shift so the top eigenvalue dominates
    u, ray, _, converged = power_iteration(
        lambda x: a @ x, 8, PowerMethodConfig(max_iters=500, seed=3)
    )
    w, v = np.linalg.eigh(a)
    assert converged
    assert abs(abs(u @ v[:, -1]) - 1.0) < 1e-8
    assert ray == pytest.approx(w[-1], rel=1e-8)


def test_power_iteration_collapse_raises():
    nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
    cfg = PowerMethodConfig(max_iters=10, init=np.array([0.0, 1.0]))
    with pytest.raises(RuntimeError, match="collapsed"):
        power_iteration(lambda x: nilpotent @ x, 2, cfg)


def test_start_vector_rejects_an_overflowing_norm_without_a_warning():
    # np.linalg.norm overflows to inf on this pair.  Under -W error the
    # caller must get the ValueError, not an overflow warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="nonzero and finite"):
            power_iteration(lambda x: x, 2, PowerMethodConfig(init=[1e308, 1e308]))


def test_rank1_svd_matches_dense_svd():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((6, 9))
    sigma, u, v, _, converged = rank1_svd(m, PowerMethodConfig(max_iters=500))
    uu, ss, vv = np.linalg.svd(m)
    assert converged
    assert sigma == pytest.approx(ss[0], rel=1e-9)
    assert abs(abs(u @ uu[:, 0]) - 1.0) < 1e-8
    assert abs(abs(v @ vv[0]) - 1.0) < 1e-8


# The loops of ``tensor_power_method`` and ``rank1_svd`` as they were
# written out before both ran on the one loop behind ``power_iteration``;
# the folded functions must follow them bit for bit.


def _reference_start(seed, dim):
    u = np.random.default_rng(seed).standard_normal(dim)
    return u / float(np.linalg.norm(u))


def reference_tensor_power_method(batch, max_iters, tol, seed):
    d, k = batch.spec.d, batch.spec.k
    u = _reference_start(seed, d)
    limit = max_iters if max_iters is not None else default_power_iters(d)
    ray = math.nan
    converged = False
    steps = 0
    for steps in range(1, limit + 1):
        psi = outer_power(u, k - 1)
        w = contract_batch(batch.data, d, psi).mean(axis=0)
        ray_new = float(u @ w)
        u = w / float(np.linalg.norm(w))
        if steps > 1 and abs(ray_new - ray) <= tol * max(1.0, abs(ray_new)):
            ray = ray_new
            converged = True
            break
        ray = ray_new
    return u, ray, steps, converged


def reference_rank1_svd(mat, max_iters, tol, seed):
    u = _reference_start(seed, mat.shape[0])
    limit = max_iters if max_iters is not None else default_power_iters(max(mat.shape))
    sigma = math.nan
    converged = False
    steps = 0
    v = None
    for steps in range(1, limit + 1):
        w = mat.T @ u
        v = w / float(np.linalg.norm(w))
        w = mat @ v
        sigma_new = float(np.linalg.norm(w))
        u = w / sigma_new
        if steps > 1 and abs(sigma_new - sigma) <= tol * max(1.0, abs(sigma_new)):
            sigma = sigma_new
            converged = True
            break
        sigma = sigma_new
    return sigma, u, v, steps, converged


# Tolerances loose enough to stop early and tight enough to hit the cap.
_TOLS = st.sampled_from([1e-1, 1e-3, 1e-6, 1e-10, 1e-300])
_CAPS = st.one_of(st.none(), st.integers(min_value=1, max_value=40))


@settings(deadline=None, max_examples=60)
@given(
    k=st.integers(min_value=2, max_value=4),
    d=st.integers(min_value=2, max_value=5),
    n=st.integers(min_value=1, max_value=24),
    max_iters=_CAPS,
    tol=_TOLS,
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_tensor_power_method_matches_reference_loop(k, d, n, max_iters, tol, seed):
    spec = ModelSpec.tpca(k=k, d=d, snr=2.0, seed=seed % 1000)
    batch = sample_tpca(spec, n=n, seed=seed)
    cfg = PowerMethodConfig(max_iters=max_iters, tol=tol, seed=seed)
    report = tensor_power_method(batch, cfg)
    u, ray, steps, converged = reference_tensor_power_method(batch, max_iters, tol, seed)
    np.testing.assert_array_equal(report.estimate, u)
    assert report.info["rayleigh"] == ray
    assert (report.iterations, report.converged) == (steps, converged)


@settings(deadline=None, max_examples=60)
@given(
    rows=st.integers(min_value=1, max_value=7),
    cols=st.integers(min_value=1, max_value=7),
    max_iters=_CAPS,
    tol=_TOLS,
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_rank1_svd_matches_reference_loop(rows, cols, max_iters, tol, seed):
    mat = np.random.default_rng(seed + 1).standard_normal((rows, cols))
    cfg = PowerMethodConfig(max_iters=max_iters, tol=tol, seed=seed)
    sigma, u, v, steps, converged = rank1_svd(mat, cfg)
    ref_sigma, ref_u, ref_v, ref_steps, ref_converged = reference_rank1_svd(
        mat, max_iters, tol, seed
    )
    assert sigma == ref_sigma
    np.testing.assert_array_equal(u, ref_u)
    np.testing.assert_array_equal(v, ref_v)
    assert (steps, converged) == (ref_steps, ref_converged)


def test_default_iteration_budget():
    assert default_power_iters(6) == math.ceil(10 * math.log(6))
    assert default_power_iters(1) == math.ceil(10 * math.log(2))


# ---------------------------------------------------------------------------
# tensor power method


def test_power_method_noiseless_rank_one_exact():
    spec = ModelSpec.tpca(k=2, d=5, snr=4.0, seed=1)
    report = tensor_power_method(noiseless_batch(spec))
    assert report.overlap >= 1.0 - 1e-12
    assert abs(np.linalg.norm(report.estimate) - 1.0) < 1e-12


def test_power_method_unit_norm_iterates():
    spec = ModelSpec.tpca(k=3, d=4, snr=2.0, seed=2)
    batch = sample_tpca(spec, n=64, seed=5)
    report = tensor_power_method(batch, PowerMethodConfig(max_iters=12))
    assert abs(np.linalg.norm(report.estimate) - 1.0) < 1e-12


def test_power_method_perpendicular_start_collapses():
    direction = np.ones(4)
    spec = ModelSpec.tpca(k=2, d=4, snr=3.0, direction=direction)
    perp = np.array([1.0, -1.0, 0.0, 0.0])
    assert float(perp @ direction) == 0.0
    with pytest.raises(RuntimeError, match="collapsed"):
        tensor_power_method(noiseless_batch(spec), PowerMethodConfig(init=perp))


def test_power_method_odd_k_fixed_point_residual():
    spec = ModelSpec.tpca(k=3, d=4, snr=50.0, seed=3)
    batch = noiseless_batch(spec)
    report = tensor_power_method(batch, PowerMethodConfig(max_iters=60))
    u = report.estimate
    entries = batch.data[0].reshape((4, 4, 4))
    w = np.einsum("abc,a,b->c", entries, u, u)
    w /= np.linalg.norm(w)
    assert min(np.linalg.norm(w - u), np.linalg.norm(w + u)) < 1e-8


def test_power_method_k2_is_matrix_power_method():
    spec = ModelSpec.tpca(k=2, d=5, snr=2.0, seed=4)
    batch = sample_tpca(spec, n=200, seed=9)
    cfg = PowerMethodConfig(max_iters=40, seed=12)
    report = tensor_power_method(batch, cfg)
    m = batch.data.mean(axis=0).reshape(5, 5)
    u, _, _, _ = power_iteration(lambda x: m.T @ x, 5, cfg)
    np.testing.assert_allclose(np.abs(report.estimate), np.abs(u), atol=1e-12)


def test_power_method_rejects_other_problems():
    spec = ModelSpec.cca(k=2, d=3, snr=0.3, seed=0)
    batch = sample_cca(spec, n=16, seed=0)
    with pytest.raises(ValueError, match="tpca"):
        tensor_power_method(batch)


# ---------------------------------------------------------------------------
# partial trace


@pytest.mark.parametrize("k,d", [(2, 5), (2, 8), (4, 4), (4, 8)])
def test_partial_trace_noiseless_recovery(k, d):
    spec = ModelSpec.tpca(k=k, d=d, snr=1.5, seed=k + d)
    report = partial_trace_spectral(noiseless_batch(spec))
    assert report.overlap >= 1.0 - 1e-8
    assert abs(np.linalg.norm(report.estimate) - 1.0) < 1e-12


def test_partial_trace_noisy_recovery_k2():
    spec = ModelSpec.tpca(k=2, d=5, snr=3.0, seed=21)
    batch = sample_tpca(spec, n=2000, seed=22)
    report = partial_trace_spectral(batch)
    assert report.overlap >= 0.9


def test_partial_trace_null_overlap_bound():
    # Pure noise: the recovered direction carries no information about
    # any fixed direction, so its overlap stays below 10/d.
    d = 10
    spec = ModelSpec.tpca(k=2, d=d, snr=0.0, seed=30)
    for rep in range(5):
        batch = sample_tpca(spec, n=10_000, seed=100 + rep)
        report = partial_trace_spectral(batch, PowerMethodConfig(seed=rep))
        assert report.overlap <= 10.0 / d


def test_partial_trace_rejects_odd_order():
    spec = ModelSpec.tpca(k=3, d=4, snr=1.0, seed=0)
    batch = sample_tpca(spec, n=8, seed=0)
    with pytest.raises(ValueError, match="even"):
        partial_trace_spectral(batch)


def test_partial_trace_sign_symmetry():
    spec = ModelSpec.tpca(k=4, d=4, snr=1.0, seed=31)
    batch = sample_tpca(spec, n=256, seed=32)
    a = partial_trace_spectral(batch)
    b = partial_trace_spectral(negated(batch))
    assert a.overlap == b.overlap


def test_partial_trace_median_overlap_monotone_in_n():
    spec = ModelSpec.tpca(k=2, d=6, snr=1.0, seed=40)
    medians = []
    for n in (8, 32, 128):
        overlaps = [
            partial_trace_spectral(sample_tpca(spec, n=n, seed=s)).overlap
            for s in range(10)
        ]
        medians.append(float(np.median(overlaps)))
    assert medians[0] <= medians[1] <= medians[2]


# ---------------------------------------------------------------------------
# matricization estimators


def test_mr_noiseless_coordinate_spike_one_hot():
    spec = ModelSpec.atpca(k=4, d=3, snr=2.0, indices=(0, 2, 1, 1))
    report = mr_matricization_estimator(noiseless_batch(spec))
    assert report.overlap >= 1.0 - 1e-8
    mags = np.sort(np.abs(report.estimate))[::-1]
    assert mags[1] / mags[0] <= 1e-6
    assert abs(np.linalg.norm(report.estimate) - 1.0) < 1e-10


def test_mr_noiseless_symmetric_spike():
    spec = ModelSpec.tpca(k=2, d=6, snr=3.0, seed=50)
    report = mr_matricization_estimator(noiseless_batch(spec))
    assert report.overlap >= 1.0 - 1e-8
    assert report.info["sigma"] > 0


def test_mr_sign_symmetry():
    spec = ModelSpec.atpca(k=4, d=4, snr=1.0, seed=51)
    batch = sample_atpca(spec, n=128, seed=52)
    a = mr_matricization_estimator(batch)
    b = mr_matricization_estimator(negated(batch))
    assert a.overlap == b.overlap


def test_matricization_rank1_rejects_bad_input():
    with pytest.raises(ValueError, match="even"):
        matricization_rank1(np.ones(8), 3, 2, PowerMethodConfig())
    with pytest.raises(ValueError, match="zero"):
        matricization_rank1(np.zeros(16), 2, 4, PowerMethodConfig())


def test_matricization_rank1_splits_first_and_last_halves():
    # A (x) B with A, B of full rank is rank one only under the split of
    # the first k/2 slots against the last k/2, row-major within each.
    d = 3
    rng = np.random.default_rng(12)
    a, b = rng.standard_normal((2, d, d))
    entries = np.multiply.outer(a, b).reshape(-1)
    sigma, flat, _, converged = matricization_rank1(
        entries, 4, d, PowerMethodConfig(max_iters=200)
    )
    expected = np.outer(a.reshape(-1), b.reshape(-1)).reshape(-1)
    assert converged
    assert sigma == pytest.approx(np.linalg.norm(a) * np.linalg.norm(b), rel=1e-12)
    np.testing.assert_allclose(
        flat * np.sign(flat @ expected), expected / np.linalg.norm(expected), atol=1e-12
    )


def test_cca_matricization_planted_recovery():
    spec = ModelSpec.cca(k=2, d=2, snr=0.5, indices=(0, 1))
    batch = sample_cca(spec, n=20_000, seed=60)
    report = cca_matricization_estimator(batch)
    assert report.overlap >= 0.95
    assert report.info["sigma"] == pytest.approx(0.5, abs=0.06)
    assert report.info["signal_inner"] == pytest.approx(0.5, abs=0.06)


def test_cca_matricization_null_sigma_shrinks_with_n():
    spec = ModelSpec.cca(k=2, d=2, snr=0.0, indices=(0, 0))
    sigmas = {}
    for n in (500, 32_000):
        runs = [
            cca_matricization_estimator(sample_cca(spec, n=n, seed=s)).info["sigma"]
            for s in range(3)
        ]
        sigmas[n] = float(np.median(runs))
    assert sigmas[32_000] < sigmas[500]


def test_cca_matricization_bits_do_not_depend_on_the_entry_budget():
    # A 20,000-entry budget used to shrink the accumulation block from
    # 4,096 rows to 555, which reordered the sum and moved sigma's bits.
    batch = sample_cca(ModelSpec.cca(k=2, d=3, snr=0.5, seed=0), n=2048, seed=1)
    want = cca_matricization_estimator(batch).info["sigma"]
    prev = set_entry_budget(20_000)
    try:
        got = cca_matricization_estimator(batch).info["sigma"]
    finally:
        set_entry_budget(prev)
    assert got == want


def test_cca_matricization_rejects_odd_view_count():
    spec = ModelSpec.cca(k=3, d=2, snr=0.2, seed=0)
    batch = sample_cca(spec, n=64, seed=0)
    with pytest.raises(ValueError, match="even"):
        cca_matricization_estimator(batch)


# ---------------------------------------------------------------------------
# reweighted covariance


def test_reference_constant_closed_forms():
    for d in (1, 2, 5, 20, 100):
        assert gaussian_reference_constant(2, d) == 1.0
        assert gaussian_reference_constant(4, d) == 2.0
        assert gaussian_reference_constant(6, d) == 2.0 * d + 8.0
    with pytest.raises(ValueError, match="even"):
        gaussian_reference_constant(3, 5)


def test_reference_constant_monte_carlo():
    d = 3
    rng = np.random.default_rng(70)
    z = rng.standard_normal((500_000, d))
    stat = ((z * z).sum(axis=1) - d) * z[:, 0] ** 2
    se = stat.std() / math.sqrt(len(stat))
    assert abs(stat.mean() - gaussian_reference_constant(4, d)) < 5 * se


def test_ngca_spectral_planted_sign_and_overlap():
    measure = NonGaussMeasure("mog", 2, 0.5)
    spec = ModelSpec.ngca(d=6, measure=measure, seed=80)
    batch = sample_ngca(spec, n=20_000, seed=81)
    report = ngca_spectral(batch)
    assert report.overlap >= 0.9
    assert report.info["sign"] == -1.0
    assert report.info["eigenvalue"] == pytest.approx(-0.5, abs=0.15)
    assert abs(np.linalg.norm(report.estimate) - 1.0) < 1e-12


def test_ngca_spectral_matrix_expectation():
    # Batch average of the reweighted covariance matches -(snr/d) V V^T
    # entrywise, within five standard errors of the batch spread.
    measure = NonGaussMeasure("mog", 4, 1.0)
    spec = ModelSpec.ngca(d=4, measure=measure, seed=82)
    mats = []
    for s in range(200):
        batch = sample_ngca(spec, n=500, seed=1000 + s)
        mats.append(ngca_spectral(batch).info["matrix"])
    mats = np.array(mats)
    target = -(spec.snr / spec.d) * np.outer(spec.direction, spec.direction)
    se = mats.std(axis=0) / math.sqrt(len(mats))
    assert np.all(np.abs(mats.mean(axis=0) - target) <= 5 * se)


def test_ngca_spectral_null_operator_norm_shrinks():
    measure = NonGaussMeasure("mog", 4, 0.0)
    spec = ModelSpec.ngca(d=10, measure=measure, seed=83)
    norms = {}
    for n in (1000, 100_000):
        batch = sample_ngca(spec, n=n, seed=84)
        m = ngca_spectral(batch).info["matrix"]
        norms[n] = float(np.linalg.norm(m, ord=2))
    assert norms[100_000] < norms[1000]


def test_ngca_spectral_sign_symmetry():
    measure = NonGaussMeasure("mog", 2, 0.4)
    spec = ModelSpec.ngca(d=5, measure=measure, seed=85)
    batch = sample_ngca(spec, n=4000, seed=86)
    a = ngca_spectral(batch)
    b = ngca_spectral(negated(batch))
    assert a.overlap == b.overlap


def test_ngca_spectral_rejects_odd_order():
    spec = ModelSpec(problem="ngca", k=3, d=2, snr=0.5, direction=np.array([1.0, -1.0]))
    batch = SampleBatch(spec=spec, data=np.zeros((4, 2)), seed=0)
    with pytest.raises(ValueError, match="even"):
        ngca_spectral(batch)


# ---------------------------------------------------------------------------
# sphere nets and brute force


def test_sphere_net_small_dimensions():
    net1 = sphere_net(1, 0.5)
    assert net1.shape == (2, 1)
    net2 = sphere_net(2, 0.3)
    gaps = np.linalg.norm(net2 - np.roll(net2, -1, axis=0), axis=1)
    assert gaps.max() <= 0.3 + 1e-12
    np.testing.assert_allclose(np.linalg.norm(net2, axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_normalize_rows_is_the_row_norm_bit_for_bit(d):
    # Rows across 200 decades, so the squares are neither near 1 nor alike.
    rng = np.random.default_rng(d)
    x = rng.standard_normal((20_000, d)) * 10.0 ** rng.uniform(-100, 100, (20_000, 1))
    reference = x / np.linalg.norm(x, axis=1, keepdims=True)
    out = _normalize_rows(x)
    assert out is x
    assert out.tobytes() == reference.tobytes()


@pytest.mark.parametrize("d", [3, 4])
def test_sphere_net_randomized_coverage(d):
    net = sphere_net(d, 0.5, seed=1, probes=2000)
    rng = np.random.default_rng(99)
    q = rng.standard_normal((2000, d))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    dist = np.sqrt(np.maximum(2.0 - 2.0 * (q @ net.T).max(axis=1), 0.0))
    # Fresh probes may land slightly past delta; allow a whisker.
    assert dist.max() <= 0.5 * 1.25


def test_sphere_net_budget_guard(monkeypatch):
    # MemoryError, as check_entry_budget raises, so the CLI exits 2; the
    # first d = 4 draw at delta 0.01 and the d = 2 grid at delta 3e-5
    # (209,440 points) are each past the 200,000-point cap.
    with pytest.raises(MemoryError, match="d=4, delta=0.01 exceeds the 200000-point budget"):
        sphere_net(4, 0.01)
    with pytest.raises(MemoryError, match="d=2, delta=3e-05 exceeds the 200000-point budget"):
        sphere_net(2, 3e-5)
    # The cap is read at call time, so a small one holds a doubled d = 4
    # draw and the d = 2 grid (6284 points at delta = 0.001) to it too.
    monkeypatch.setattr(est, "_MAX_NET", 100)
    with pytest.raises(MemoryError, match="d=4, delta=0.05 exceeds the 100-point budget"):
        sphere_net(4, 0.05)
    with pytest.raises(MemoryError, match="d=2, delta=0.001 exceeds the 100-point budget"):
        sphere_net(2, 0.001)
    batch = planted_ngca_batch(2, 4, 0.5, 16, 0)
    with pytest.raises(MemoryError, match="100-point budget"):
        brute_force_ngca(batch, BruteForceConfig(delta=0.001, trunc=4.0))
    monkeypatch.setattr(est, "_MAX_NET", 6284)
    assert len(sphere_net(2, 0.001)) == 6284
    with pytest.raises(ValueError):
        sphere_net(5, 0.5)


def test_net_discrepancy_separates_far_pairs():
    net = sphere_net(2, 0.2)
    u1 = np.array([1.0, 0.0])
    u2 = np.array([0.0, 1.0])
    assert net_discrepancy(u1, u2, net, 3) > 0.9
    assert net_discrepancy(u1, u1, net, 3) == 0.0


def test_brute_force_ngca_planted_recovery_even_k():
    measure = NonGaussMeasure("mog", 2, 0.45)
    spec = ModelSpec.ngca(d=2, measure=measure, seed=90)
    batch = sample_ngca(spec, n=20_000, seed=91)
    cfg = BruteForceConfig(delta=0.2, trunc=8.0)
    report = brute_force_ngca(batch, cfg)
    assert report.overlap >= 0.95
    assert report.info["sign"] == -1.0
    assert report.info["objective"] < 0.1


def test_brute_force_ngca_skewed_odd_k():
    # Planted eta in {-1/2, 2} with mean 0 and variance 1 has third
    # moment 3/2; the net search must find the planted direction with a
    # positive sign.
    rng = np.random.default_rng(92)
    d, n = 2, 50_000
    direction = np.array([1.0, -1.0])
    u = direction / math.sqrt(d)
    eta = np.where(rng.random(n) < 0.8, -0.5, 2.0)
    z = rng.standard_normal((n, d))
    data = np.outer(eta, u) + z - np.outer(z @ u, u)
    spec = ModelSpec(problem="ngca", k=3, d=d, snr=1.5, direction=direction)
    batch = SampleBatch(spec=spec, data=data, seed=92)
    report = brute_force_ngca(batch, BruteForceConfig(delta=0.2, trunc=8.0))
    assert report.overlap >= 0.95
    # (u, +) and (-u, -) describe the same planted moment for odd k, so
    # only the signed moment direction is identifiable.
    assert report.info["sign"] * float(report.estimate @ u) ** 3 > 0


def test_brute_force_ngca_deterministic_tie_break():
    measure = NonGaussMeasure("mog", 2, 0.0)
    spec = ModelSpec.ngca(d=2, measure=measure, seed=93)
    batch = sample_ngca(spec, n=100, seed=94)
    cfg = BruteForceConfig(delta=0.3, trunc=5.0)
    a = brute_force_ngca(batch, cfg)
    b = brute_force_ngca(batch, cfg)
    assert a.info["net_index"] == b.info["net_index"]
    assert a.info["sign"] == b.info["sign"]
    np.testing.assert_array_equal(a.estimate, b.estimate)


def test_brute_force_ngca_dimension_guard():
    measure = NonGaussMeasure("mog", 2, 0.1)
    spec = ModelSpec.ngca(d=5, measure=measure, seed=0)
    batch = sample_ngca(spec, n=10, seed=0)
    with pytest.raises(ValueError, match="d <= 4"):
        brute_force_ngca(batch, BruteForceConfig(delta=0.5, trunc=5.0))


def test_brute_force_cca_planted_recovery():
    spec = ModelSpec.cca(k=2, d=2, snr=0.4, indices=(0, 1))
    batch = sample_cca(spec, n=50_000, seed=95)
    report = brute_force_cca(batch, BruteForceConfig(delta=0.3, trunc=10.0))
    assert report.overlap >= 0.9
    assert report.info["objective"] < 0.1
    assert abs(np.linalg.norm(report.estimate) - 1.0) < 1e-10


def test_brute_force_cca_null_tie_breaks_to_first_tuple():
    spec = ModelSpec.cca(k=2, d=2, snr=0.0, indices=(0, 0))
    batch = sample_cca(spec, n=200, seed=96)
    report = brute_force_cca(batch, BruteForceConfig(delta=0.4, trunc=5.0))
    # snr = 0 makes every candidate tuple score identically, so the
    # lowest-index tie break must pick the first tuple.
    assert report.info["net_indices"] == (0, 0)
    # every gap equals every score, so no candidate is pruned, and the
    # smallest-gap candidate is scored once more for the bound
    assert report.info["scored"] == report.info["net_size"] ** 2 + 1


def test_brute_force_cca_guards():
    spec = ModelSpec.cca(k=2, d=4, snr=0.1, seed=0)
    batch = sample_cca(spec, n=8, seed=0)
    with pytest.raises(ValueError, match="capped"):
        brute_force_cca(batch, BruteForceConfig(delta=0.5, trunc=5.0))


def test_brute_force_cca_budget_guard():
    # A 126-point d = 2 net at delta = 0.05 makes a 126^3 > 10^6 table.
    batch = sample_cca(ModelSpec.cca(k=3, d=2, snr=0.3), n=8, seed=0)
    with pytest.raises(MemoryError, match=r"^net product of size 126\^3 exceeds the budget$"):
        brute_force_cca(batch, BruteForceConfig(delta=0.05, trunc=2.0))


def test_brute_force_config_validation():
    with pytest.raises(ValueError, match="delta"):
        BruteForceConfig(delta=0.0, trunc=1.0)
    with pytest.raises(ValueError, match="truncation"):
        BruteForceConfig(delta=0.5, trunc=0.0)
    with pytest.raises(ValueError, match="max_iters"):
        PowerMethodConfig(max_iters=0)


@pytest.mark.parametrize(
    "key, value",
    [("max_iters", 2.5), ("max_iters", True), ("max_iters", "3"), ("tol", "1e-3"), ("tol", True)],
)
def test_power_method_config_rejects_non_numbers(key, value):
    # A float or bool max_iters used to construct and then fail in the
    # iteration with TypeError; a string raised TypeError at once.
    with pytest.raises(ValueError, match="max_iters" if key == "max_iters" else "tolerance"):
        PowerMethodConfig(**{key: value})
    assert PowerMethodConfig(max_iters=np.int64(3), tol=np.float32(1e-3)).max_iters == 3


@pytest.mark.parametrize("key", ["probes"])
@pytest.mark.parametrize("value", [0, -1, -5, 2.5, True])
def test_brute_force_config_rejects_bad_counts(key, value):
    with pytest.raises(ValueError, match=key):
        BruteForceConfig(delta=0.5, trunc=1.0, **{key: value})


@pytest.mark.parametrize("key", ["probes"])
@pytest.mark.parametrize("value", [0, -1, 2.5])
@pytest.mark.parametrize("d", [2, 3])
def test_sphere_net_rejects_bad_counts(d, key, value):
    # Raised before any sampling, including for d = 2, which needs no probe.
    with pytest.raises(ValueError, match=key):
        sphere_net(d, 0.1, **{key: value})


# ---------------------------------------------------------------------------
# in-place integer power


finite_blocks = arrays(
    np.float64,
    st.tuples(st.integers(1, 5), st.integers(1, 5)),
    elements=st.floats(-50.0, 50.0, allow_subnormal=False),
)


def squaring_reference(x: np.ndarray, k: int) -> np.ndarray:
    """The documented order: y = x, then per bit of k after the leading
    one, y = y * y and, when the bit is set, y = y * x."""
    y = x.copy()
    for bit in bin(k)[3:]:
        y = y * y
        if bit == "1":
            y = y * x
    return y


@settings(max_examples=60, deadline=None)
@given(x=finite_blocks, k=st.integers(1, 8))
def test_power_inplace_follows_documented_order(x, k):
    expected = squaring_reference(x, k)
    np.testing.assert_array_equal(_power_inplace(x.copy(), k), expected)


@settings(max_examples=60, deadline=None)
@given(x=finite_blocks)
def test_power_inplace_square_is_numpy_square(x):
    np.testing.assert_array_equal(_power_inplace(x.copy(), 2), x**2)


@settings(max_examples=60, deadline=None)
@given(x=finite_blocks, k=st.integers(1, 8))
def test_power_inplace_close_to_pow(x, k):
    x = np.where(np.abs(x) < 1e-6, 0.0, x)  # keep x**k out of the subnormals
    got = _power_inplace(x.copy(), k)
    exact = x**k
    tol = k * np.finfo(np.float64).eps * np.abs(x) ** k
    assert np.all(np.abs(got - exact) <= tol)


@settings(max_examples=30, deadline=None)
@given(x=finite_blocks, k=st.sampled_from([1, 2, 4, 8]))
def test_power_inplace_power_of_two_allocates_nothing(x, k):
    assert _power_inplace(x, k) is x


def test_power_inplace_other_k_leaves_input():
    x = np.array([[1.5, -2.0], [0.25, 3.0]])
    before = x.copy()
    y = _power_inplace(x, 3)
    assert y is not x
    np.testing.assert_array_equal(x, before)
    with pytest.raises(ValueError):
        _power_inplace(x, 0)


# ---------------------------------------------------------------------------
# net sizing and the brute-force searches against whole-product references


@settings(max_examples=40, deadline=None)
@given(
    d=st.sampled_from([3, 4]),
    delta=st.floats(0.4, 2.0),
    seed=st.integers(0, 2**16),
)
def test_sphere_net_is_sized_by_its_coverage_check(d, delta, seed):
    net = sphere_net(d, delta, seed)
    start = max(2 * d, math.ceil(4 * delta ** (1 - d)))
    assert len(net) in [start << j for j in range(12)]
    q = np.random.default_rng([seed, 1]).standard_normal((2000, d))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    dist = np.sqrt(np.maximum(2.0 - 2.0 * (q @ net.T).max(axis=1), 0.0))
    # Fresh probes may land slightly past delta; allow a whisker.
    assert dist.max() <= delta * 1.25


def full_scan_sphere_net(d, delta, seed, probes):
    """``sphere_net`` for d in {3, 4} with every coverage round scanned
    to its last ``_NET_BLOCK`` chunk."""
    rng = np.random.default_rng(seed)
    count = max(2 * d, math.ceil(4.0 * delta ** (1 - d)))
    while True:
        net = rng.standard_normal((count, d))
        net /= np.linalg.norm(net, axis=1, keepdims=True)
        q = rng.standard_normal((probes, d))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        lowest = min(
            float((q[lo : lo + est._NET_BLOCK] @ net.T).max(axis=1).min())
            for lo in range(0, probes, est._NET_BLOCK)
        )
        if math.sqrt(max(2.0 - 2.0 * lowest, 0.0)) <= delta:
            return net
        count *= 2


@settings(max_examples=30, deadline=None)
@given(
    d=st.sampled_from([3, 4]),
    delta=st.floats(0.3, 2.0),
    seed=st.integers(0, 2**16),
    block=st.sampled_from([1, 7, 1024]),
    probes=st.sampled_from([1, 10, 1000, 2049, 5001]),
)
def test_sphere_net_stopping_at_a_failed_chunk_keeps_every_net(d, delta, seed, block, probes):
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(est, "_NET_BLOCK", block)
        reference = full_scan_sphere_net(d, delta, seed, probes)
        assert sphere_net(d, delta, seed, probes).tobytes() == reference.tobytes()


def test_sphere_net_failed_rounds_stop_at_their_first_far_chunk(monkeypatch):
    # d = 3, delta = 0.5 draws nets of 16, 32, 64 and 128 points; the
    # first three rounds each hold a far probe in their first chunk.
    chunks = []
    whole = est._spans

    def spans(total, width):
        for span in whole(total, width):
            chunks.append(span)
            yield span

    monkeypatch.setattr(est, "_spans", spans)
    assert len(sphere_net(3, 0.5, 5)) == 128
    assert chunks == [(0, 1024)] * 3 + whole(10_000, 1024)


def unblocked_brute_force_ngca(batch, cfg):
    """The ngca net search over the whole (n, m) and (m, m) products,
    with libm ``pow`` for the k-th powers; returns (net, objective,
    net_index, sign)."""
    spec = batch.spec
    net = sphere_net(spec.d, cfg.delta, cfg.seed, cfg.probes)
    k = spec.k
    gauss_k = float(math.prod(range(1, k, 2))) if k % 2 == 0 else 0.0
    g = np.clip(batch.data @ net.T, -cfg.trunc, cfg.trunc)
    gvec = (g**k).mean(axis=0) - gauss_k
    planted = spec.snr * (net @ net.T) ** k
    score_plus = np.abs(gvec[None, :] - planted).max(axis=1)
    score_minus = np.abs(gvec[None, :] + planted).max(axis=1)
    use_minus = score_minus < score_plus
    scores = np.where(use_minus, score_minus, score_plus)
    index = int(np.argmin(scores))
    return net, float(scores[index]), index, -1.0 if use_minus[index] else 1.0


def planted_ngca_batch(d, k, snr, n, seed):
    """Skewed planted coordinate along a random direction, Gaussian elsewhere."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(d)
    u /= np.linalg.norm(u)
    direction = math.sqrt(d) * u
    eta = np.where(rng.random(n) < 0.8, -0.5, 2.0)
    z = rng.standard_normal((n, d))
    data = np.outer(eta, u) + z - np.outer(z @ u, u)
    spec = ModelSpec(problem="ngca", k=k, d=d, snr=snr, direction=direction)
    return SampleBatch(spec=spec, data=data, seed=seed)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("snr", [0.0, 0.3, 1.5])
def test_brute_force_ngca_matches_pow_reference(d, k, snr):
    batch = planted_ngca_batch(d, k, snr, n=300, seed=100 * d + 10 * k)
    # trunc 1.2 clips a large share of the projections
    delta = {2: 0.4, 3: 0.6, 4: 1.2}[d]
    cfg = BruteForceConfig(delta=delta, trunc=1.2, seed=d + k, probes=500)
    report = brute_force_ngca(batch, cfg)
    _, objective, index, sign = unblocked_brute_force_ngca(batch, cfg)
    assert report.info["net_index"] == index
    assert report.info["sign"] == sign
    assert abs(report.info["objective"] - objective) <= 1e-13 * abs(objective)
    if snr == 0.0:
        # every candidate ties, so the lowest index with the + sign wins
        assert (index, sign) == (0, 1.0)


def _width(kind, m):
    return {"m-1": max(m - 1, 1), "m+1": m + 1}.get(kind) or int(kind)


@pytest.mark.parametrize("kind", ["1", "3", "7", "m+1"])
@pytest.mark.parametrize("d, k, delta", [(2, 4, 0.4), (3, 3, 0.5), (3, 4, 0.5), (4, 4, 0.9)])
def test_brute_force_ngca_net_block_width_moves_no_result(d, k, delta, kind, monkeypatch):
    batch = planted_ngca_batch(d, k, 0.9, 300, 5 * d + k)
    cfg = BruteForceConfig(delta=delta, trunc=3.0, seed=d, probes=2000)
    whole = brute_force_ngca(batch, cfg)
    monkeypatch.setattr(est, "_NET_BLOCK", _width(kind, whole.info["net_size"]))
    chunked = brute_force_ngca(batch, cfg)
    assert chunked.info["net_size"] == whole.info["net_size"]
    assert chunked.info["net_index"] == whole.info["net_index"]
    assert chunked.info["sign"] == whole.info["sign"]
    objective = whole.info["objective"]
    assert abs(chunked.info["objective"] - objective) <= 1e-13 * abs(objective)


# ---------------------------------------------------------------------------
# the cca model slices against whole model blocks, bit for bit


def unblocked_brute_force_cca(batch, cfg):
    """The cca net-product search one head at a time with whole
    ``m^(k+1)`` model blocks; returns (net, objective, net_indices)."""
    spec = batch.spec
    net = sphere_net(spec.d, cfg.delta, cfg.seed, cfg.probes)
    m, k = len(net), spec.k
    views = batch.views()
    proj = [views[:, l, :] @ net.T for l in range(k)]
    ghat = np.empty((m,) * k)
    for head in itertools.product(range(m), repeat=k - 1):
        pre = proj[0][:, head[0]]
        for l in range(1, k - 1):
            pre = pre * proj[l][:, head[l]]
        prod = pre[:, None] * proj[k - 1]
        np.clip(prod, -cfg.trunc, cfg.trunc, out=prod)
        ghat[head] = prod.mean(axis=0)
    gram = net @ net.T
    axes = "wx"[: k - 1]
    subscripts = ",".join(axes) + ",cy->c" + axes + "y"
    best = (math.inf, (0,) * k)
    for head in itertools.product(range(m), repeat=k - 1):
        model = spec.snr * np.einsum(subscripts, *(gram[i] for i in head), gram)
        scores = np.abs(ghat[None] - model).reshape(m, -1).max(axis=1)
        local = int(np.argmin(scores))
        if scores[local] < best[0]:
            best = (float(scores[local]), (*head, local))
    return net, best[0], best[1]


def _assert_cca_slices_equal_whole_blocks(batch, cfg, kind, monkeypatch):
    net, objective, indices = unblocked_brute_force_cca(batch, cfg)
    m, k = len(net), batch.spec.k
    # ``width`` candidates per model slice; most widths leave a short last slice
    monkeypatch.setattr(est, "_CCA_MODEL", _width(kind, m) * m**k)
    report = brute_force_cca(batch, cfg)
    assert report.info["objective"].hex() == objective.hex()
    assert report.info["net_indices"] == indices
    assert report.estimate.tobytes() == outer_product([net[i] for i in indices]).tobytes()
    # at snr 0 every gap is every score, and no candidate is pruned
    assert 2 <= report.info["scored"] <= m**k + 1
    assert batch.spec.snr > 0 or report.info["scored"] == m**k + 1
    return report


def _cca_batch(k, d, n, seed, snr=0.37):
    # snr 0.37 by default, not a power of two, so the model's rounding
    # depends on the order of its factors
    spec = ModelSpec.cca(k=k, d=d, snr=snr, seed=seed)
    return sample_cca(spec, n=n, seed=seed + 1)


def _smallest_gap_tuple(batch, cfg):
    """The candidate ``brute_force_cca`` fully scores first: the smallest
    ``|table[p] - model_u[p]|`` at the largest-magnitude table entry p."""
    net = sphere_net(batch.spec.d, cfg.delta, cfg.seed, cfg.probes)
    views = batch.views()
    table = est._cca_table([views[:, l, :] @ net.T for l in range(batch.spec.k)], cfg.trunc)
    top = np.unravel_index(np.argmax(np.abs(table)), table.shape)
    gram = net @ net.T
    gap = np.abs(table[top] - outer_product([gram[:, w] for w in top]) * batch.spec.snr)
    return tuple(int(i) for i in np.unravel_index(np.argmin(gap), table.shape))


def _sample_bounds(batch, net):
    """Per sample, ``max_w |<x^(l), w>|`` multiplied over the views in order."""
    views = batch.views()
    bound = np.ones(batch.n)
    for l in range(batch.spec.k):
        bound = bound * np.abs(views[:, l, :] @ net.T).max(axis=1)
    return bound


def _clip_level(clip, bound, pick):
    """``trunc`` for a clip case: 0.8 clips some samples, 1e3 none and
    1e-3 (nearly) all; ``exact`` is sample ``pick``'s own bound, so its
    largest product lands on ``trunc`` exactly and it is not clipped."""
    if clip == "exact":
        return float(bound[pick % len(bound)])
    return {"some": 0.8, "none": 1e3, "all": 1e-3}[clip]


@settings(max_examples=120, deadline=None)
@given(
    d=st.integers(1, 3),
    k=st.integers(2, 3),
    delta=st.sampled_from([0.4, 0.7, 1.0, 2.0]),
    n=st.integers(1, 200),
    seed=st.integers(0, 2**16),
    kind=st.sampled_from(["1", "3", "7", "m-1", "m+1"]),
    clip=st.sampled_from(["some", "none", "all", "exact"]),
    pick=st.integers(0, 199),
    snr=st.sampled_from([0.37, 0.37, 0.37, 0.1, 0.0]),
)
# The winner is the smallest-gap candidate and scores its gap, so it
# survives only if the gap is computed with the score's own roundings.
@example(d=2, k=3, delta=0.7, n=3, seed=16194, kind="1", clip="none", pick=0, snr=0.37)
def test_blocked_cca_search_is_bit_identical(d, k, delta, n, seed, kind, clip, pick, snr):
    if d == 3:
        # a d = 3 net of up to 48 points: k = 3 would score m^6 entries
        k, delta = 2, max(delta, 1.0)
    batch = _cca_batch(k, d, n, seed, snr)
    trunc = _clip_level(clip, _sample_bounds(batch, sphere_net(d, delta, seed, 100)), pick)
    cfg = BruteForceConfig(delta=delta, trunc=trunc, seed=seed, probes=100)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_cca_slices_equal_whole_blocks(batch, cfg, kind, monkeypatch)


@pytest.mark.parametrize("clip", ["none", "all", "exact"])
@pytest.mark.parametrize("kind", ["1", "3", "7"])
@pytest.mark.parametrize("k", [2, 3])
def test_cca_table_clip_edges_are_bit_identical(k, kind, clip, monkeypatch):
    # 50 samples leave a ragged last block of 2 at width 3 and 1 at width 7
    batch = _cca_batch(k, 2, 50, 17)
    bound = _sample_bounds(batch, sphere_net(2, 0.7))
    trunc = _clip_level(clip, bound, 25)
    clipped = int((bound > trunc).sum())
    assert clipped == {"none": 0, "all": 50}.get(clip, clipped)
    assert clip != "exact" or 0 < clipped < 50
    cfg = BruteForceConfig(delta=0.7, trunc=trunc)
    _assert_cca_slices_equal_whole_blocks(batch, cfg, kind, monkeypatch)


@pytest.mark.parametrize("kind", ["1", "7", "m+1"])
def test_blocked_cca_search_is_bit_identical_on_a_90_point_net(kind, monkeypatch):
    # d = 2, delta = 0.07 gives 90 points: 8,100 candidates, of which
    # 1,155 are scored in full
    batch = _cca_batch(2, 2, 64, 11)
    cfg = BruteForceConfig(delta=0.07, trunc=4.0)
    assert len(sphere_net(2, 0.07)) == 90
    _assert_cca_slices_equal_whole_blocks(batch, cfg, kind, monkeypatch)


def test_cca_search_scores_few_candidates_at_the_verify_oracles_point():
    # the brute-force cca point of the benchmark's verify-oracles workload,
    # drawn as ``sweep`` draws each of its two seeds
    ini = pathlib.Path(__file__).parent / "data/fingerprint/cca-k2-fine-brute-force.ini"
    config = parse_config(ini)
    for seed in config.seeds:
        _, batch = cli.draw(config, config.samples_grid[0], seed)
        cfg = BruteForceConfig(**config.estimator_options, seed=iteration_seed(seed))
        with pytest.MonkeyPatch.context() as monkeypatch:
            report = _assert_cca_slices_equal_whole_blocks(batch, cfg, "m+1", monkeypatch)
        assert report.info["net_size"] == 32
        assert report.info["scored"] <= 0.1 * 32**2


@pytest.mark.parametrize(
    "k, snr, seed, first, won",
    [(2, 0.5, 1, (11, 15), (0, 5)), (3, 0.4, 2, (3, 6, 6), (3, 0, 0))],
)
def test_cca_search_winner_need_not_be_the_smallest_gap(k, snr, seed, first, won, monkeypatch):
    # the smallest-gap candidate only sets the bound; a planted spike is
    # still found by the survivors' full scores
    batch = sample_cca(ModelSpec.cca(k=k, d=2, snr=snr, seed=seed), n=2000, seed=seed + 100)
    cfg = BruteForceConfig(delta=0.3 if k == 2 else 0.6, trunc=4.0)
    assert _smallest_gap_tuple(batch, cfg) == first
    report = _assert_cca_slices_equal_whole_blocks(batch, cfg, "7", monkeypatch)
    assert report.info["net_indices"] == won
    assert report.info["scored"] < report.info["net_size"] ** k
    assert report.overlap >= 0.9


# ---------------------------------------------------------------------------
# brute-force input checks and memory


def test_brute_force_ngca_rejects_a_non_finite_batch():
    batch = planted_ngca_batch(2, 4, 0.9, 50, 3)
    data = batch.data.copy()
    data[17, 1] = np.nan
    batch = SampleBatch(spec=batch.spec, data=data, seed=batch.seed)
    with pytest.raises(ValueError, match="non-finite"):
        brute_force_ngca(batch, BruteForceConfig(delta=0.5, trunc=2.0))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_brute_force_cca_rejects_a_non_finite_batch(bad):
    batch = _cca_batch(2, 2, 50, 3)
    data = batch.data.copy()
    data[9, 0] = bad
    batch = SampleBatch(spec=batch.spec, data=data, seed=batch.seed)
    with pytest.raises(ValueError, match="non-finite"):
        brute_force_cca(batch, BruteForceConfig(delta=0.5, trunc=2.0))


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_brute_force_cca_memory_does_not_grow_with_the_model_block():
    # m = 96 at k = 2: one head's whole model block has m^(k+1) = 884,736
    # entries (7.1 MB), and the unblocked search held two of them
    batch = _cca_batch(2, 3, 64, 5)
    cfg = BruteForceConfig(delta=0.6, trunc=4.0)
    assert len(sphere_net(3, 0.6)) == 96
    assert _peak_bytes(lambda: brute_force_cca(batch, cfg)) < 2_000_000


def test_brute_force_cca_table_workspace_does_not_grow_with_n():
    # m = 96 at k = 2.  Filling the table one head at a time held an
    # (n, m) product, 8 m bytes more per sample; the sample blocks leave
    # only a few length-n vectors beside the two (n, m) projections.  The
    # batch is made before tracing starts, so it is not in the peak.
    cfg = BruteForceConfig(delta=0.6, trunc=4.0)
    extra = {}
    for n in (256, 4096):
        batch = _cca_batch(2, 3, n, 5)
        extra[n] = _peak_bytes(lambda: brute_force_cca(batch, cfg)) - 2 * n * 96 * 8
    assert extra[4096] - extra[256] < 16 * (4096 - 256)


def test_brute_force_ngca_memory_is_the_projection_product_and_small_workspaces(monkeypatch):
    # n = 4096, m = 2,848: a whole (n, m) projection product is 93 MB and
    # an (m, m) Gram product 65 MB.  The search holds one (n, _NET_BLOCK)
    # projection block at a time, then two (_NET_BLOCK, m) score blocks
    # per chunk, and the coverage check (_NET_BLOCK, m) probe dots; each
    # chunk's blocks are released before the next chunk's product.
    n, m = 4096, 2848
    batch = planted_ngca_batch(3, 4, 0.9, n, 6)
    cfg = BruteForceConfig(delta=0.15, trunc=4.0, seed=8191)
    assert len(sphere_net(3, 0.15, 8191)) == m
    peaks = []
    for block in (64, 256):
        monkeypatch.setattr(est, "_NET_BLOCK", block)
        peaks.append(_peak_bytes(lambda: brute_force_ngca(batch, cfg)))
        assert peaks[-1] < max(8 * block * n, 16 * block * m) + 1_000_000
    assert peaks[0] < peaks[1] < 8 * n * m / 4
