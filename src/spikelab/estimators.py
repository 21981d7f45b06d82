"""Estimators for the planted models, spectral and brute-force.

Every estimator is a pure function ``(batch, config) -> EstimateReport``.
Direction-valued estimators (power method, partial trace, reweighted
covariance, sphere-net search) score against the planted direction;
tensor-valued ones (matricization SVD, net products) score against the
planted rank-one tensor.  Eigenvector and singular-vector extraction is
in-house power iteration throughout, with ``T = ceil(10 log d)`` steps
and a Rayleigh-quotient stabilization check.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from spikelab.measures import gaussian_moment
from spikelab.models import SampleBatch, expect_problem
from spikelab.tensors import (
    DEFAULT_ENTRY_BUDGET,
    check_count,
    check_entry_budget,
    check_even,
    check_finite,
    check_real,
    contract_batch,
    outer_power,
    outer_product,
    overlap,
    unit,
)


@dataclass
class EstimateReport:
    """Outcome of one estimator run."""

    estimate: np.ndarray
    overlap: float | None
    iterations: int
    converged: bool
    wall_ms: float
    info: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PowerMethodConfig:
    """Knobs for the iterative extractors.

    ``max_iters`` defaults to ``ceil(10 log d)`` for the operand at
    hand; ``init`` overrides the seeded random start (useful for the
    invariant-subspace edge cases).
    """

    OPTIONS: ClassVar[dict] = {"max_iters": int, "tol": float}

    max_iters: int | None = None
    tol: float = 1e-10
    seed: int = 0
    init: np.ndarray | None = None

    def __post_init__(self):
        if self.max_iters is not None:
            check_count("max_iters", self.max_iters)
        check_count("seed", self.seed, low=0)
        check_real("tolerance", self.tol)
        if not self.tol > 0:
            raise ValueError(f"tolerance must be positive, got {self.tol!r}")


def default_power_iters(d: int) -> int:
    return max(1, math.ceil(10.0 * math.log(max(d, 2))))


def start_vector(cfg: PowerMethodConfig, dim: int) -> np.ndarray:
    """``cfg.init``, or a standard normal draw from ``cfg.seed``, divided by
    its norm; ``ValueError`` unless it is a ``dim``-vector with a nonzero,
    finite norm."""
    if cfg.init is not None:
        u = np.asarray(cfg.init, dtype=np.float64).reshape(-1)
        if u.shape != (dim,):
            raise ValueError(f"init has shape {u.shape}, expected ({dim},)")
    else:
        u = np.random.default_rng(cfg.seed).standard_normal(dim)
    # An overflowing norm is inf, which the check below rejects.
    with np.errstate(over="ignore"):
        nrm = float(np.linalg.norm(u))
    if nrm == 0.0 or not math.isfinite(nrm):
        raise ValueError("initial vector must be nonzero and finite")
    return u / nrm


def _iterate(step, u: np.ndarray, cfg: PowerMethodConfig, cap_dim: int):
    """The one power-iteration loop: ``u, value, aux = step(u)`` per step.

    Stops once ``value`` moved by at most ``cfg.tol`` (relative) between
    consecutive steps, or after ``cfg.max_iters`` steps (default
    ``ceil(10 log cap_dim)``).  Returns ``(u, value, aux, steps,
    converged)`` for the last step taken; the cap is always >= 1.
    """
    limit = cfg.max_iters if cfg.max_iters is not None else default_power_iters(cap_dim)
    value = math.nan
    for steps in range(1, limit + 1):
        u, new, aux = step(u)
        converged = steps > 1 and abs(new - value) <= cfg.tol * max(1.0, abs(new))
        value = new
        if converged:
            break
    return u, value, aux, steps, converged


def power_iteration(matvec, dim: int, cfg: PowerMethodConfig):
    """Dominant-eigenpair iteration ``u <- A u / ||A u||``.

    Returns ``(u, rayleigh, iterations, converged)``.  Convergence means
    the Rayleigh quotient moved by at most ``tol`` (relative) between
    consecutive steps; the iteration cap is ``ceil(10 log d)`` unless
    overridden.
    """

    def step(u):
        w = matvec(u)
        ray = float(u @ w)
        return unit(w)[0], ray, None

    u, ray, _, steps, converged = _iterate(step, start_vector(cfg, dim), cfg, dim)
    return u, ray, steps, converged


def rank1_svd(mat: np.ndarray, cfg: PowerMethodConfig):
    """Leading singular triple by alternating power iteration.

    Power iteration on ``M M^T`` realized as alternating mat-vecs, so
    only matrix-vector products with ``M`` and ``M^T`` are used.
    Convergence watches sigma the way ``power_iteration`` watches the
    Rayleigh quotient.  Returns ``(sigma, u_left, v_right, iterations,
    converged)``.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError("need a matrix")

    def step(u):
        v, _ = unit(mat.T @ u)
        u, sigma = unit(mat @ v)
        return u, sigma, v

    u, sigma, v, steps, converged = _iterate(
        step, start_vector(cfg, mat.shape[0]), cfg, max(mat.shape)
    )
    return sigma, u, v, steps, converged


def build_report(t0, estimate, truth, iterations, converged, info) -> EstimateReport:
    """The report of a run begun at ``t0``; a ``truth`` of ``None`` scores no overlap."""
    ov = None if truth is None else overlap(truth, estimate)
    return EstimateReport(
        estimate=estimate,
        overlap=ov,
        iterations=iterations,
        converged=converged,
        wall_ms=(time.perf_counter() - t0) * 1e3,
        info=info,
    )


def _tensor_truth(spec) -> np.ndarray | None:
    """Planted rank-one pattern, unscaled so snr = 0 still scores."""
    return outer_product(spec.factors) if spec.factors else None


# ---------------------------------------------------------------------------
# iterative tensor estimators


def tensor_power_method(
    batch: SampleBatch, cfg: PowerMethodConfig = PowerMethodConfig()
) -> EstimateReport:
    """u <- mean_i X_i { (u/||u||)^{(x)(k-1)}, . }, normalized each step."""
    spec = batch.spec
    expect_problem(spec, "tpca")
    check_count("power method order k", spec.k, low=2)
    t0 = time.perf_counter()
    d = spec.d

    def matvec(u):
        return contract_batch(batch.data, d, outer_power(u, spec.k - 1)).mean(axis=0)

    u, ray, steps, converged = power_iteration(matvec, d, cfg)
    return build_report(t0, u, spec.direction, steps, converged, {"rayleigh": ray})


def partial_trace_spectral(
    batch: SampleBatch, cfg: PowerMethodConfig = PowerMethodConfig()
) -> EstimateReport:
    """Top eigenvector of the pair-contracted sample mean.

    ``M[a, b] = mean_i sum_g (X_i)[g_1, g_1, .., g_l, g_l, a, b]`` with
    ``l = k/2 - 1``; for k = 2 this is just the sample-mean matrix.  The
    power iteration runs on ``v -> M^T v``, matching the orientation of
    the contraction template used by the memory-bounded wrapper, so both
    execution paths walk the same sequence of iterates.
    """
    spec = batch.spec
    expect_problem(spec, "tpca")
    check_even("partial trace", spec.k)
    t0 = time.perf_counter()
    d = spec.d
    m = batch.data.mean(axis=0).reshape((d,) * spec.k)
    for _ in range(spec.k // 2 - 1):
        m = np.trace(m, axis1=0, axis2=1)
    u, ray, steps, converged = power_iteration(lambda x: m.T @ x, d, cfg)
    info = {"rayleigh": ray, "matrix": m}
    return build_report(t0, u, spec.direction, steps, converged, info)


def matricization_rank1(entries: np.ndarray, k: int, d: int, cfg: PowerMethodConfig):
    """Rank-1 SVD of the square matricization of a flat order-k tensor.

    Returns ``(sigma, flat_rank1, iterations, converged)`` where
    ``flat_rank1`` is the unit-Frobenius outer product of the singular
    pair, reshaped back to flat tensor entries.
    """
    check_even("matricization", k)
    entries = np.asarray(entries, dtype=np.float64).reshape(-1)
    if entries.size != d**k:
        raise ValueError(f"expected {d ** k} entries, got {entries.size}")
    if not np.any(entries):
        raise ValueError("zero average tensor has no rank-1 direction")
    half = d ** (k // 2)
    sigma, left, right, steps, converged = rank1_svd(
        entries.reshape(half, half), cfg
    )
    return sigma, np.outer(left, right).reshape(-1), steps, converged


def mr_matricization_estimator(
    batch: SampleBatch, cfg: PowerMethodConfig = PowerMethodConfig()
) -> EstimateReport:
    """Rank-1 approximation of the matricized sample mean."""
    spec = batch.spec
    expect_problem(spec, "tpca", "atpca")
    t0 = time.perf_counter()
    xbar = batch.data.mean(axis=0)
    sigma, flat, steps, converged = matricization_rank1(xbar, spec.k, spec.d, cfg)
    info = {"sigma": sigma}
    truth = _tensor_truth(spec)
    report = build_report(t0, flat, truth, steps, converged, info)
    if truth is not None:
        report.info["signal_inner"] = abs(
            float(flat @ truth) / float(np.linalg.norm(truth))
        ) * sigma
    return report


def cca_matricization_estimator(
    batch: SampleBatch, cfg: PowerMethodConfig = PowerMethodConfig()
) -> EstimateReport:
    """Rank-1 SVD of the matricized empirical cross-moment tensor.

    ``T_hat = mean_i x^(1) x .. x x^(k)`` accumulated blockwise; the
    estimate keeps the singular-value scale, so its magnitude doubles as
    a detection statistic (``info["sigma"]``).
    """
    spec = batch.spec
    expect_problem(spec, "cca")
    check_even("cca matricization", spec.k)
    t0 = time.perf_counter()
    d, k = spec.d, spec.k
    check_entry_budget(d**k, "cross-moment tensor")
    views = batch.views()
    # The block sets the summation order, so a budget override must not size it.
    block = max(1, min(4096, DEFAULT_ENTRY_BUDGET // max(d**k, 1) // 4))
    acc = np.zeros(d**k)
    for start in range(0, batch.n, block):
        part = views[start : start + block]
        prod = part[:, 0, :]
        for l in range(1, k):
            prod = (prod[:, :, None] * part[:, l, :][:, None, :]).reshape(
                len(part), -1
            )
        acc += prod.sum(axis=0)
    tbar = acc / batch.n
    sigma, flat, steps, converged = matricization_rank1(tbar, k, d, cfg)
    truth = _tensor_truth(spec)
    report = build_report(t0, sigma * flat, truth, steps, converged, {"sigma": sigma})
    if truth is not None:
        report.info["signal_inner"] = abs(
            float(sigma * (flat @ truth)) / float(np.linalg.norm(truth))
        )
    return report


# ---------------------------------------------------------------------------
# reweighted covariance


def gaussian_reference_constant(k: int, d: int) -> float:
    """``E[(||z||^2 - d)^{(k-2)/2} z_1^2]`` for ``z ~ N(0, I_d)``, exactly.

    Split ``||z||^2 - d = (z_1^2 - 1) + (R - (d - 1))`` with ``R`` an
    independent chi-square with d - 1 degrees of freedom and expand
    binomially; every factor moment is an integer, so the whole value is
    computed in exact integer arithmetic.
    """
    check_count("k", k, low=2)
    check_even("gaussian reference constant", k)
    check_count("d", d)
    m = (k - 2) // 2

    def centered_z2_moment(j):  # E[(z^2 - 1)^j z^2]
        return sum(
            math.comb(j, i) * (-1) ** (j - i) * gaussian_moment(2 * i + 2) for i in range(j + 1)
        )

    def chi_raw(q):  # E[R^q], R ~ chi^2_{d-1}
        return math.prod(d - 1 + 2 * i for i in range(q))

    def centered_chi_moment(p):  # E[(R - (d - 1))^p]
        return sum(
            math.comb(p, q) * (-1) ** (p - q) * (d - 1) ** (p - q) * chi_raw(q)
            for q in range(p + 1)
        )

    total = sum(
        math.comb(m, j) * centered_z2_moment(j) * centered_chi_moment(m - j)
        for j in range(m + 1)
    )
    return float(total)


def ngca_spectral(
    batch: SampleBatch, cfg: PowerMethodConfig = PowerMethodConfig()
) -> EstimateReport:
    """Eigenvector of largest |eigenvalue| of the reweighted covariance.

    ``M = mean_i (||x_i||^2 - d)^{(k-2)/2} x_i x_i^T - c_{k,d} I`` with
    the reference constant removing the Gaussian baseline.  The planted
    direction shows up with eigenvalue of either sign depending on the
    measure, so the power iteration runs on ``M^2`` and the sign is read
    off the Rayleigh quotient afterwards.
    """
    spec = batch.spec
    expect_problem(spec, "ngca")
    check_even("reweighted covariance", spec.k)
    t0 = time.perf_counter()
    d = spec.d
    x = batch.data
    m_exp = (spec.k - 2) // 2
    w = ((x * x).sum(axis=1) - d) ** m_exp
    mat = (x.T * w) @ x / batch.n
    mat[np.diag_indices(d)] -= gaussian_reference_constant(spec.k, d)
    u, _, steps, converged = power_iteration(lambda t: mat @ (mat @ t), d, cfg)
    eigenvalue = float(u @ (mat @ u))
    info = {
        "eigenvalue": eigenvalue,
        "sign": 1.0 if eigenvalue >= 0 else -1.0,
        "matrix": mat,
    }
    return build_report(t0, u, spec.direction, steps, converged, info)


# ---------------------------------------------------------------------------
# sphere nets and brute force


# Net points per chunk of the net search: a projection product is at
# most n x _NET_BLOCK and a Gram or probe-dot product _NET_BLOCK x m,
# whatever net size delta asks for.
_NET_BLOCK = 1024
# Entries per block of ``brute_force_cca``: a moment-table block holds
# max(1, _CCA_MODEL // m**k) samples' m**k products, and a model block
# max(1, _CCA_MODEL // m**k) candidates' m**k model moments.
_CCA_MODEL = 1 << 16
# The largest net ``sphere_net`` builds; one this size already costs
# 4 * 10^10 ngca score entries.
_MAX_NET = 200_000
# Fresh sphere points per coverage check of a random net, by default.
_PROBES = 10_000


def _spans(total: int, width: int) -> list[tuple[int, int]]:
    """``(start, stop)`` pairs cutting ``range(total)`` into blocks of ``width``."""
    return [(lo, min(lo + width, total)) for lo in range(0, total, width)]


@dataclass(frozen=True)
class BruteForceConfig:
    """Net resolution and truncation level for the exhaustive searches.

    ``probes`` (coverage probes per net draw, ``sphere_net``'s default
    unless set) is an integer >= 1, so the coverage check always runs,
    and ``seed`` is an integer >= 0.  The net size cap is
    ``sphere_net``'s, which no config sets.
    """

    OPTIONS: ClassVar[dict] = {"delta": float, "trunc": float, "probes": int}

    delta: float
    trunc: float
    seed: int = 0
    probes: int = _PROBES

    def __post_init__(self):
        check_real("delta", self.delta)
        check_real("truncation level", self.trunc)
        if not 0.0 < self.delta <= 2.0:
            raise ValueError(f"delta must be in (0, 2], got {self.delta}")
        if not self.trunc > 0:
            raise ValueError(f"truncation level must be positive, got {self.trunc}")
        check_count("seed", self.seed, low=0)
        check_count("probes", self.probes)


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    """``x`` divided in place by its row norms, bit for bit
    ``x / np.linalg.norm(x, axis=1, keepdims=True)``: the squares summed
    column by column from the left, then ``sqrt``, an array op per column
    in place of a reduction per row."""
    total = x[:, 0] * x[:, 0]
    for j in range(1, x.shape[1]):
        total += x[:, j] * x[:, j]
    x /= np.sqrt(total)[:, None]
    return x


def sphere_net(d: int, delta: float, seed: int = 0, probes: int = _PROBES) -> np.ndarray:
    """A delta-net of the unit sphere in R^d, d <= 4.

    d = 1 is the two-point sphere and d = 2 a uniform angular grid with
    chord spacing below delta.  For d in {3, 4} the net is random with
    verified coverage, and the check sizes it: the first draw has
    ``max(2 d, ceil(4 delta^(1 - d)))`` points, and the net is redrawn
    at doubled size until none of ``probes`` fresh random sphere points
    sits farther than delta from it.  Each round draws the net, then all
    ``probes`` probes in one call, and takes their dots with the net
    ``_NET_BLOCK`` probes at a time.  A round fails at the first chunk
    that holds a probe farther than delta, and the chunks after it are
    not scanned.  Every probe is still drawn, so the generator stream,
    and with it every net, is the one a full scan gives: a round passes
    exactly when each chunk does, because the distance
    ``sqrt(max(2 - 2 dot, 0))`` does not increase with the dot.
    ``probes`` must be an integer >= 1 and ``seed`` one >= 0; for d >= 2
    a net that would outgrow ``_MAX_NET`` (200,000) points raises
    ``MemoryError``, as ``check_entry_budget`` does.
    """
    check_count("d", d)
    if d > 4:
        raise ValueError(f"net construction supports d <= 4, got {d}")
    check_real("delta", delta)
    if not 0.0 < delta <= 2.0:
        raise ValueError(f"delta must be in (0, 2], got {delta}")
    check_count("seed", seed, low=0)
    check_count("probes", probes)
    if d == 1:
        return np.array([[1.0], [-1.0]])
    if d == 2:
        step = 2.0 * math.asin(min(delta, 2.0) / 2.0)
        count = max(4, math.ceil(2.0 * math.pi / step))
        if count > _MAX_NET:
            raise MemoryError(f"net for d=2, delta={delta} exceeds the {_MAX_NET}-point budget")
        angles = 2.0 * math.pi * np.arange(count) / count
        return np.column_stack([np.cos(angles), np.sin(angles)])
    rng = np.random.default_rng(seed)
    count = max(2 * d, math.ceil(4.0 * delta ** (1 - d)))
    while True:
        if count > _MAX_NET:
            raise MemoryError(f"net for d={d}, delta={delta} exceeds the {_MAX_NET}-point budget")
        net = _normalize_rows(rng.standard_normal((count, d)))
        q = _normalize_rows(rng.standard_normal((probes, d)))
        # a chunk's farthest probe is the one with the lowest best dot
        # (a max down the columns of net @ probes.T, one array op per net
        # point); ``all`` stops at the first chunk that misses, so no
        # later chunk is multiplied
        lowest = (
            float(np.maximum.reduce(net @ q[lo:hi].T, axis=0).min())
            for lo, hi in _spans(probes, _NET_BLOCK)
        )
        if all(math.sqrt(max(2.0 - 2.0 * dot, 0.0)) <= delta for dot in lowest):
            return net
        count *= 2


def net_discrepancy(u1: np.ndarray, u2: np.ndarray, net: np.ndarray, k: int) -> float:
    """``max_w |<u1, w>^k - <u2, w>^k|`` over the net directions."""
    return float(np.abs((net @ u1) ** k - (net @ u2) ** k).max())


def _power_inplace(x: np.ndarray, k: int) -> np.ndarray:
    """``x**k`` for an integer ``k >= 1`` by repeated squaring, not ``pow``.

    Left-to-right binary powering with a fixed order: with ``b_1 .. b_r``
    the bits of ``k`` after its leading one, start from ``y = x`` and for
    each bit in turn set ``y = y * y``, then ``y = y * x`` if the bit is
    set.  When ``k`` is a power of two every step is a square done in
    place and ``x`` itself is returned; otherwise the first square goes
    to one new buffer, which is returned, and ``x`` is left as it was.
    For ``k = 2`` this is ``x * x``, bitwise the same as numpy's ``x**2``.
    """
    check_count("k", k)
    y = x
    for bit in bin(k)[3:]:
        if y is x and k & (k - 1):
            y = np.multiply(x, x)
        else:
            np.multiply(y, y, out=y)
        if bit == "1":
            np.multiply(y, x, out=y)
    return y


def brute_force_ngca(batch: SampleBatch, cfg: BruteForceConfig) -> EstimateReport:
    """Exhaustive sphere-net minimizer of the clipped k-th moment profile.

    For each candidate ``(u, sign)`` the objective is the worst-case
    discrepancy over the net between the empirical clipped moment curve
    ``mean_i trunc_h(<x_i, w>)^k - E[Z^k]`` and the planted prediction
    ``sign * snr * <u, w>^k``.  Ties break toward the lowest net index,
    with the + sign preferred at equal index.  A batch holding a NaN or
    inf raises ``ValueError``.

    The k-th powers of the clipped projections and of the net Gram
    block are computed by in-place repeated squaring
    (``_power_inplace``), not by libm ``pow``; for k >= 3 the objective
    may differ from ``**k`` in its last bits.

    The search costs m^2 score entries for an m-point net.  It runs over
    chunks of ``_NET_BLOCK`` net points, so it holds an n x min(m,
    _NET_BLOCK) projection block, then two min(m, _NET_BLOCK) x m score
    blocks, one chunk at a time.
    """
    spec = batch.spec
    expect_problem(spec, "ngca")
    # NaN scores never pass the strict ``<`` below: the search would
    # report the first candidate with an infinite objective.
    check_finite(batch.data, "batch")
    t0 = time.perf_counter()
    net = sphere_net(spec.d, cfg.delta, cfg.seed, cfg.probes)
    m = len(net)
    k = spec.k
    gauss_k = gaussian_moment(k)
    gvec = np.empty(m)
    for lo, hi in _spans(m, _NET_BLOCK):
        g = batch.data @ net[lo:hi].T
        np.clip(g, -cfg.trunc, cfg.trunc, out=g)
        gvec[lo:hi] = _power_inplace(g, k).mean(axis=0)
        del g  # before the next product, so one block is held at a time
    gvec -= gauss_k

    best_score = math.inf
    best_index = 0
    best_sign = 1.0
    for lo, hi in _spans(m, _NET_BLOCK):
        planted = _power_inplace(net[lo:hi] @ net.T, k)
        planted *= spec.snr
        gap = gvec - planted
        score_plus = np.abs(gap, out=gap).max(axis=1)
        score_minus = np.abs(np.add(gvec, planted, out=gap), out=gap).max(axis=1)
        use_minus = score_minus < score_plus
        scores = np.where(use_minus, score_minus, score_plus)
        local = int(np.argmin(scores))
        if scores[local] < best_score:
            best_score = float(scores[local])
            best_index = lo + local
            best_sign = -1.0 if use_minus[local] else 1.0
        del planted, gap
    info = {
        "objective": best_score,
        "sign": best_sign,
        "net_size": m,
        "net_index": best_index,
    }
    return build_report(t0, net[best_index].copy(), spec.direction, m, True, info)


def _row_peaks(p: np.ndarray) -> np.ndarray:
    """``max_w |p[i, w]|`` for every row i, taken a column at a time,
    since ``max(axis=1)`` pays one inner-loop call per row."""
    peaks = np.abs(p[:, 0])
    for col in p.T[1:]:
        np.maximum(peaks, np.abs(col), out=peaks)
    return peaks


def _cca_table(proj: list[np.ndarray], trunc: float) -> np.ndarray:
    """Clipped empirical product moments of ``brute_force_cca``.

    Entry ``w`` of the k-way ``(m, .., m)`` table is ``mean_i
    clip(proj[0][i, w_1] * .. * proj[k-1][i, w_k])``.
    ``brute_force_cca`` describes the fill.
    """
    n, m = proj[0].shape
    size = m ** len(proj)
    # a sample whose bound is at most trunc has no product to clip
    bound = _row_peaks(proj[0])
    for p in proj[1:]:
        bound *= _row_peaks(p)
    samples = max(1, _CCA_MODEL // size)
    work = np.zeros((min(samples, n) + 1, size))
    for lo, hi in _spans(n, samples):
        prod = work[1 : hi - lo + 1]
        pre = proj[0][lo:hi]
        for p in proj[1:-1]:
            pre = np.einsum("ia,ib->iab", pre, p[lo:hi]).reshape(hi - lo, -1)
        np.einsum("ia,ib->iab", pre, proj[-1][lo:hi], out=prod.reshape(hi - lo, -1, m))
        # np.clip's Python wrapper costs more than its two ufuncs
        for i in np.flatnonzero(bound[lo:hi] > trunc):
            np.minimum(np.maximum(prod[i], -trunc, out=prod[i]), trunc, out=prod[i])
        # row 0 carries the running sums
        np.add.reduce(work[: hi - lo + 1], axis=0, out=work[0])
    return (work[0] / n).reshape((m,) * len(proj))


def _cca_scores(table, gram, snr, cands) -> np.ndarray:
    """Full scores of ``brute_force_cca``'s candidates at flat indices
    ``cands``: ``max_w |table[w] - model_u[w]|``, where ``model_u[w] =
    g[u_1, w_1] * .. * g[u_k, w_k] * snr`` is multiplied left to right,
    for a slice of ``max(1, _CCA_MODEL // m**k)`` candidates at a time."""
    m = len(gram)
    rows = max(1, _CCA_MODEL // table.size)
    work = np.empty((min(rows, len(cands)), table.size))
    scores = np.empty(len(cands))
    for lo, hi in _spans(len(cands), rows):
        pre, *rest = (gram[i] for i in np.unravel_index(cands[lo:hi], table.shape))
        for g in rest[:-1]:
            pre = (pre[:, :, None] * g[:, None, :]).reshape(hi - lo, -1)
        block = work[: hi - lo]
        np.multiply(pre[:, :, None], rest[-1][:, None, :], out=block.reshape(hi - lo, -1, m))
        block *= snr
        np.abs(np.subtract(table.reshape(-1), block, out=block), out=block)
        scores[lo:hi] = block.max(axis=1)
    return scores


def brute_force_cca(batch: SampleBatch, cfg: BruteForceConfig) -> EstimateReport:
    """Exhaustive net-product minimizer for the correlated-views model.

    Candidates and adversaries both range over the k-fold product of one
    sphere net; the objective compares the clipped empirical product
    moment against ``snr * prod_l <u_l, w_l>``.  Ties break toward the
    lowest candidate tuple in ``itertools.product`` order.  Guarded to
    d <= 3 and k <= 3, where the product search is still enumerable, and
    to an adversary table of at most 10^6 entries (``m**k``), or it raises
    ``MemoryError``.  A batch holding a NaN or inf raises ``ValueError``.

    A candidate's score maxes ``|table[w] - model[w]|`` over all m^k
    adversaries w.  Its gap, that one entry at the table's largest
    ``|table[p]|`` (the first such p), is computed with the score's own
    IEEE operations in the same order, so it is one of the entries the
    score maxes over and bounds the score below, bit for bit.  The
    smallest-gap candidate (the first) is scored in full, and its score
    is the bound.  A candidate whose score equals the minimum has a gap
    at most that minimum, hence at most the bound, so scoring in full
    only the candidates with gap <= bound, in ``itertools.product``
    order, finds the same minimum and the same lowest tuple as scoring
    all of them.  ``info["scored"]`` counts the full scores, the bound's
    included: the search costs m^k gap entries plus m^k entries per
    full score, at worst m^(2k) + m^k at snr 0, where every gap is its
    candidate's score.

    For an m-point net the search holds the k ``(n, m)`` projections, a
    few length-n vectors, the m^k-entry moment table with a workspace
    of ``b + 1`` table rows while it fills, the m^k-entry gap vector,
    the survivors' indices and scores (m^k each at worst), and one
    model block for a slice of candidates, at most ``max(_CCA_MODEL,
    m**k)`` entries.  The budget keeps m at most 1,000, below
    ``_NET_BLOCK``.

    The table fills ``b = max(1, _CCA_MODEL // m**k)`` samples at a
    time.  Each sample's m^k products are formed by chained ``einsum``
    outer products, left to right as ``prod_l <x_i^(l), w_l>`` is
    written, one IEEE multiply per factor.  Only a sample whose bound
    ``prod_l max_w |<x_i^(l), w>|`` (multiplied in the same order)
    exceeds ``trunc`` is clipped: rounding is monotone, so no product of
    any other sample can exceed it.  Row 0 of the workspace carries the
    running sums, and ``np.add.reduce`` along the sample axis adds each
    block onto it, so every entry is summed sample by sample, as
    ``mean(axis=0)`` over all n samples would, then divided by n.
    """
    spec = batch.spec
    expect_problem(spec, "cca")
    if spec.d > 3 or spec.k > 3:
        raise ValueError("net-product search is capped at d <= 3, k <= 3")
    check_finite(batch.data, "batch")
    t0 = time.perf_counter()
    net = sphere_net(spec.d, cfg.delta, cfg.seed, cfg.probes)
    m = len(net)
    k = spec.k
    if m**k > 1_000_000:
        raise MemoryError(f"net product of size {m}^{k} exceeds the budget")
    views = batch.views()
    proj = [views[:, l, :] @ net.T for l in range(k)]  # each (n, m)
    table = _cca_table(proj, cfg.trunc)

    gram = net @ net.T
    top = np.unravel_index(int(np.argmax(np.abs(table))), table.shape)
    gap = outer_product([gram[:, w] for w in top]) * spec.snr
    np.abs(np.subtract(table[top], gap, out=gap), out=gap)
    bound = _cca_scores(table, gram, spec.snr, np.argmin(gap, keepdims=True))[0]
    survivors = np.flatnonzero(gap <= bound)
    scores = _cca_scores(table, gram, spec.snr, survivors)
    best = int(np.argmin(scores))
    best_tuple = tuple(int(i) for i in np.unravel_index(survivors[best], table.shape))

    flat = outer_product([net[i] for i in best_tuple])
    truth = _tensor_truth(spec)
    info = {
        "objective": float(scores[best]),
        "net_size": m,
        "net_indices": best_tuple,
        "scored": 1 + len(survivors),
    }
    return build_report(t0, flat, truth, m**k, True, info)


# ---------------------------------------------------------------------------
# the estimator catalogue

# Name -> estimator function.  The values are bare functions, looked up at
# call time, so a wrapper put in their place reaches every caller.
ESTIMATORS = {
    "tensor-power": tensor_power_method,
    "partial-trace": partial_trace_spectral,
    "matricization": mr_matricization_estimator,
    "cca-matricization": cca_matricization_estimator,
    "ngca-spectral": ngca_spectral,
    "brute-force-ngca": brute_force_ngca,
    "brute-force-cca": brute_force_cca,
}

# Name -> (the problems it applies to, its options class).  A config may
# set the class's ``OPTIONS``, typed as given there, and must set its
# fields that have no default.
ESTIMATOR_SCOPES = {
    "tensor-power": (("tpca",), PowerMethodConfig),
    "partial-trace": (("tpca",), PowerMethodConfig),
    "matricization": (("tpca", "atpca"), PowerMethodConfig),
    "cca-matricization": (("cca",), PowerMethodConfig),
    "ngca-spectral": (("ngca",), PowerMethodConfig),
    "brute-force-ngca": (("ngca",), BruteForceConfig),
    "brute-force-cca": (("cca",), BruteForceConfig),
}
