"""End-to-end gate: one test per numbered shipping criterion.

Each test collects named sub-checks, prints a single
``criterion N: PASS/FAIL`` line, and only then asserts, so a full run
reads as a checklist even when something breaks.  The sub-checks mirror
the per-module suites but run the layers together: constructions feed
samplers, samplers feed estimators, estimators replay inside the
quantized harness, and the frozen calibration fixture anchors the
detection and envelope comparisons.
"""

import math

import numpy as np
import pytest

from spikelab.cli import CSV_COLUMNS, run_sweep, sweep_csv
from spikelab.config import parse_config
from spikelab.detection import LEG_NAMES, default_samples, detection_median
from spikelab.estimators import (
    PowerMethodConfig,
    cca_matricization_estimator,
    gaussian_reference_constant,
    mr_matricization_estimator,
    partial_trace_spectral,
    tensor_power_method,
)
from spikelab.harness import (
    QuantizedIteration,
    QuantizerSpec,
    ResourceProfile,
    power_template,
    reduce_memory_to_distributed,
    run_distributed,
    run_memory_bounded,
    shard_stream,
)
from spikelab.hermite import (
    build_weighted_basis,
    gauss_hermite_rule,
    hermite_all,
    hermite_eval,
)
from spikelab.measures import NonGaussMeasure
from spikelab.models import (
    ModelSpec,
    SampleBatch,
    cca_critical_snr,
    reduce_cca_to_parity,
    sample_atpca,
    sample_cca,
    sample_ngca,
    sample_tpca,
)
from spikelab.tensors import overlap, rank1_densify
from spikelab.verify import (
    check_rademacher_bounds,
    integrated_hermite_inner,
    ldlr_grid,
    ldlr_sandwich,
    load_calibration,
    sign_coefficient,
    sign_tail_mass,
)
from test_harness import fixture_algorithms


def emit(number, checks, detail=""):
    """Print the per-criterion verdict line, then assert."""
    bad = [name for name, ok in checks if not ok]
    status = "FAIL" if bad else "PASS"
    tail = f" ({detail})" if detail else ""
    print(f"criterion {number}: {status}{tail}")
    assert not bad, f"criterion {number} failed sub-checks: {bad}"


def mc_band(values, sigmas=5.0):
    return sigmas * float(np.std(values, ddof=1)) / math.sqrt(len(values))


def gaussian_moment(j):
    return float(math.prod(range(1, j, 2))) if j % 2 == 0 else 0.0


# ---------------------------------------------------------------------------
# 1. orthonormal Hermite facts


def test_criterion_1_hermite_facts():
    checks = []
    rule = gauss_hermite_rule(24)
    vals = hermite_all(8, rule.nodes)

    gram = (vals * rule.weights) @ vals.T
    checks.append(
        ("orthonormality", float(np.max(np.abs(gram - np.eye(9)))) <= 1e-10)
    )

    worst = 0.0
    for mu in (-1.5, 0.3, 2.0):
        shifted = hermite_all(8, mu + rule.nodes)
        for k in range(9):
            target = mu**k / math.sqrt(math.factorial(k))
            worst = max(worst, abs(rule.expect(shifted[k]) - target))
    checks.append(("shifted-mean", worst <= 1e-9))

    # rho-correlated pair diagonalizes: E[H_i(Z) H_j(Z')] = rho^i delta_ij.
    z = rule.nodes[:, None]
    w2 = rule.weights[:, None] * rule.weights[None, :]
    worst = 0.0
    for rho in (-0.6, 0.25, 0.9):
        zp = rho * z + math.sqrt(1.0 - rho**2) * rule.nodes[None, :]
        for i in range(6):
            hi = hermite_eval(i, z * np.ones_like(zp))
            for j in range(6):
                got = float(np.sum(w2 * hi * hermite_eval(j, zp)))
                target = rho**i if i == j else 0.0
                worst = max(worst, abs(got - target))
    checks.append(("correlated-pair", worst <= 1e-7))

    grid = np.linspace(-6.0, 6.0, 481)
    on_grid = hermite_all(8, grid)
    envelope = all(
        np.all(np.abs(on_grid[k]) <= (1.0 + np.abs(grid)) ** k + 1e-12)
        for k in range(9)
    )
    checks.append(("growth-envelope", envelope))

    # Exponential tail sandwich: lam^t/t! <= tail <= head / (1 - lam/(t+1)).
    sandwich = True
    for lam in (0.5, 1.0, 2.0):
        for t in range(math.ceil(lam), 21):
            head = lam**t / math.factorial(t)
            tail, term, i = 0.0, head, t
            while term > 1e-30 * (tail + head):
                tail += term
                i += 1
                term *= lam / i
            sandwich &= head <= tail * (1.0 + 1e-15)
            sandwich &= tail <= head / (1.0 - lam / (t + 1)) * (1.0 + 1e-15)
    checks.append(("partial-exp-series", sandwich))

    emit(1, checks)


# ---------------------------------------------------------------------------
# 2. the two measure constructions


def test_criterion_2_measure_constructions():
    checks = []
    families = []
    for k in (2, 4, 6):  # mixture route exists for even orders only
        cap = math.factorial(k // 2) / 2.0
        for frac in (0.25, 0.6, 1.0):
            families.append(("mog", k, NonGaussMeasure("mog", k, frac * cap), 1.0))
    for k in (2, 3, 4, 6):
        cap = build_weighted_basis(k).lambda_max
        for frac in (0.25, 0.6, 1.0):
            families.append(
                ("tilt", k, NonGaussMeasure("bounded-llr", k, frac * cap), -1.0)
            )

    grid = np.linspace(-4.0, 4.0, 10_000)
    mass_rule = gauss_hermite_rule(64)
    for name, k, m, gap_sign in families:
        tag = f"{name}-k{k}-snr{m.snr:.3g}"
        low = max(abs(m.moment(j) - gaussian_moment(j)) for j in range(k))
        checks.append((f"{tag}-low-moments", low <= 1e-7))
        checks.append(
            (f"{tag}-gap", abs(m.moment_gap() - gap_sign * m.snr) <= 1e-6)
        )
        ratio = m.density_ratio(grid)
        if name == "tilt":
            # The pointwise bound is this construction's defining invariant;
            # the mixture route only promises a nonnegative unit-mass ratio
            # (its ratio peaks above 1 + snr/lambda_k near the snr ceiling).
            bound = m.snr / m.lambda_k
            ok = bool(np.all(np.abs(ratio - 1.0) <= bound + 1e-9))
        else:
            mass = mass_rule.expect(m.density_ratio(mass_rule.nodes))
            ok = float(ratio.min()) >= 0.0 and abs(mass - 1.0) <= 1e-8
        checks.append((f"{tag}-density-ratio", ok))

    # One-node rule: the discrete measure sits at 0, so E H_2 = -1/sqrt(2).
    one = gauss_hermite_rule(1)
    got = one.expect(hermite_eval(2, one.nodes))
    checks.append(("one-node-h2", got == -1.0 / math.sqrt(2.0)))

    emit(2, checks, f"{len(families)} measures")


# ---------------------------------------------------------------------------
# 3. model samplers


def test_criterion_3_sampler_moments():
    checks = []
    n = 100_000

    # Symmetric spike: the matched filter is N(snr, 1) per sample.
    spec = ModelSpec.tpca(k=4, d=4, snr=1.2, seed=5)
    batch = sample_tpca(spec, n, seed=1005)
    signal = rank1_densify(spec.factors, spec.snr)
    filt = signal / np.linalg.norm(signal)
    m = batch.data @ filt
    checks.append(("tpca-filter-scale", abs(np.linalg.norm(signal) - 1.2) <= 1e-9))
    checks.append(("tpca-mean", abs(m.mean() - 1.2) <= mc_band(m)))
    null = np.zeros_like(filt)
    null[0], null[1] = filt[1], -filt[0]
    null /= np.linalg.norm(null)
    mnull = batch.data @ null
    checks.append(("tpca-null-mean", abs(mnull.mean()) <= mc_band(mnull)))

    # Asymmetric coordinate spike: one cell carries the full snr.
    spec = ModelSpec.atpca(k=3, d=4, snr=0.9, indices=(1, 3, 0))
    batch = sample_atpca(spec, n, seed=1006)
    mean = batch.data.mean(axis=0).reshape(4, 4, 4)
    checks.append(("atpca-cell", abs(mean[1, 3, 0] - 0.9) <= 5.0 / math.sqrt(n)))
    mask = np.ones((4, 4, 4), dtype=bool)
    mask[1, 3, 0] = False
    checks.append(("atpca-off-cells", np.max(np.abs(mean[mask])) <= 5.0 / math.sqrt(n)))

    # Planted projection carries the measure, the complement stays Gaussian.
    measure = NonGaussMeasure("mog", 4, 1.0)
    spec = ModelSpec.ngca(d=6, measure=measure, seed=2)
    batch = sample_ngca(spec, n, seed=1007)
    xi = batch.data @ spec.direction / math.sqrt(spec.d)
    vals = hermite_all(4, xi)
    for t in (1, 2, 3):
        checks.append((f"ngca-h{t}-zero", abs(vals[t].mean()) <= mc_band(vals[t])))
    target = measure.hermite_coefficient(4)
    checks.append(("ngca-h4", abs(vals[4].mean() - target) <= mc_band(vals[4])))
    w = np.zeros(6)
    w[0], w[1] = spec.direction[1], -spec.direction[0]
    w /= np.linalg.norm(w)
    proj = batch.data @ w
    checks.append(("ngca-perp-mean", abs(proj.mean()) <= mc_band(proj)))
    checks.append(("ngca-perp-skew", abs(np.mean(proj**3)) <= mc_band(proj**3)))

    # Correlated views: planted product moment equals snr, marginals clean.
    k = 3
    snr = 0.5 * cca_critical_snr(k)
    spec = ModelSpec.cca(k=k, d=4, snr=snr, indices=(0, 1, 2))
    batch = sample_cca(spec, n, seed=1008)
    views = batch.views()
    marg = max(abs(views[:, l, :].mean(axis=0)).max() for l in range(k))
    checks.append(("cca-marginal-means", marg <= 5.0 / math.sqrt(n)))
    prod = views[:, 0, 0] * views[:, 1, 1] * views[:, 2, 2]
    checks.append(("cca-product-moment", abs(prod.mean() - snr) <= mc_band(prod)))

    # Parity relabeling: agreement rate recovers snr / lambda_k.
    features, labels, subset = reduce_cca_to_parity(batch, seed=31)
    signed = 2.0 * labels - 1.0
    agree = signed * np.sign(features[:, list(subset)]).prod(axis=1)
    checks.append(("parity-correlation", abs(agree.mean() - 0.5) <= mc_band(agree)))

    emit(3, checks, f"n={n}")


# ---------------------------------------------------------------------------
# 4. estimator recovery and desk-scale detection


def noiseless_batch(spec, n=2):
    entries = rank1_densify(spec.factors, spec.snr)
    return SampleBatch(spec=spec, data=np.tile(entries, (n, 1)), seed=0)


def test_criterion_4a_noiseless_recovery():
    checks = []
    report = tensor_power_method(noiseless_batch(ModelSpec.tpca(k=2, d=6, snr=1.5, seed=1)))
    checks.append(("power-k2", report.overlap >= 1.0 - 1e-8))

    report = partial_trace_spectral(
        noiseless_batch(ModelSpec.tpca(k=4, d=4, snr=1.0, seed=2))
    )
    checks.append(("partial-trace-k4", report.overlap >= 1.0 - 1e-8))

    for k, d in ((2, 5), (4, 3)):
        report = mr_matricization_estimator(
            noiseless_batch(ModelSpec.atpca(k=k, d=d, snr=1.3, seed=3))
        )
        checks.append((f"matricization-k{k}", report.overlap >= 1.0 - 1e-8))

    # Exact rank-one cross moment injected directly into the batch rows.
    spec = ModelSpec.cca(k=2, d=3, snr=0.5, indices=(0, 1))
    row = np.zeros(6)
    row[0] = 1.0  # view 1 = e_0
    row[4] = 1.0  # view 2 = e_1
    batch = SampleBatch(spec=spec, data=np.tile(row, (4, 1)), seed=0)
    report = cca_matricization_estimator(batch)
    checks.append(("cca-injected-mean", report.overlap >= 1.0 - 1e-8))

    emit("4a", checks)


RATIO_LEGS = ("partial-trace", "reweighted-covariance", "matricization", "cross-views")


def test_criterion_4b_detection_ratios():
    cal = load_calibration()
    checks = []
    lines = []
    for leg in RATIO_LEGS:
        key = leg.replace("-", "_")
        snr = cal[f"det_{key}_snr"]
        frozen_signal = cal[f"det_{key}_signal"]
        null = cal[f"det_{key}_null"]
        signal = detection_median(leg, snr)
        lines.append(f"{leg}: signal={signal:.6g} null={null:.6g}")
        checks.append((f"{leg}-ratio", signal >= 10.0 * null))
        # The fixture stores 6 significant digits; a rerun must land on it.
        checks.append(
            (f"{leg}-stability", abs(signal - frozen_signal) <= 1e-5 * frozen_signal)
        )
    emit("4b", checks, "; ".join(lines))


def sample_grid(name: str) -> tuple[int, int, int]:
    """Three sample counts spaced by factors of 4, largest = default."""
    top = default_samples(name)
    return (top // 16, top // 4, top)


def test_criterion_4c_detection_monotone_in_n():
    cal = load_calibration()
    checks = []
    for leg in LEG_NAMES:
        key = leg.replace("-", "_")
        snr = cal.get(f"det_{key}_snr", 1.0)
        medians = [detection_median(leg, snr, n) for n in sample_grid(leg)]
        checks.append((f"{leg}-monotone", medians[0] <= medians[1] <= medians[2]))
    emit("4c", checks)


# ---------------------------------------------------------------------------
# 5. closed-form reweighting constant vs Monte Carlo


def mc_reference_constant(k, d, draws, seed, chunk=1_000_000):
    """Mean and 5-sigma band for E[(||z||^2 - d)^{(k-2)/2} z_1^2]."""
    m = (k - 2) // 2
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    left = draws
    while left > 0:
        size = min(chunk, left)
        z1 = rng.standard_normal(size)
        rest = rng.chisquare(d - 1, size)
        stat = (z1**2 - 1.0 + rest - (d - 1.0)) ** m * z1**2
        total += float(stat.sum())
        total_sq += float((stat * stat).sum())
        left -= size
    mean = total / draws
    var = max(total_sq / draws - mean**2, 0.0)
    return mean, 5.0 * math.sqrt(var / draws)


def test_criterion_5_reference_constant_monte_carlo():
    checks = []
    draws = 10_000_000
    for seed, (k, d) in enumerate([(k, d) for k in (2, 4, 6) for d in (5, 20)]):
        exact = gaussian_reference_constant(k, d)
        mean, band = mc_reference_constant(k, d, draws, seed=100 + seed)
        checks.append((f"k{k}-d{d}", abs(mean - exact) <= band))
    checks.append(("k4-identity", gaussian_reference_constant(4, 5) == 2.0))
    checks.append(("k4-identity-d20", gaussian_reference_constant(4, 20) == 2.0))
    emit(5, checks, f"{draws} draws per cell")


# ---------------------------------------------------------------------------
# 6. memory-bounded harness and the distributed reduction


def test_criterion_6_harness_reduction():
    checks = []
    for idx, (algo, data, passes) in enumerate(fixture_algorithms()):
        profile = ResourceProfile(32, passes, algo.state_bits)
        direct = run_memory_bounded(algo, data, profile)
        for n in (4, 16, 32):
            protocol, m, n_out, b = reduce_memory_to_distributed(algo, profile, n)
            report, board = run_distributed(protocol, shard_stream(data, n), m, n, b)
            same = bool(np.array_equal(report.estimate, direct.estimate))
            checks.append((f"algo{idx}-n{n}-bitwise", same))
            expected = (32 // n) * algo.state_bits * passes
            checks.append(
                (f"algo{idx}-n{n}-transcript", len(board.bits) == m * b == expected)
            )

    # 32-bit quantized power method tracks the float path.
    spec = ModelSpec.tpca(k=4, d=6, snr=3.0, seed=40)
    batch = sample_tpca(spec, n=48, seed=41)
    init = np.random.default_rng(123).standard_normal(6)
    passes = 10
    q = QuantizerSpec(bits=32, radius=64.0)
    algo = QuantizedIteration(power_template(4), q, 6, batch.n, init)
    report = run_memory_bounded(
        algo, batch.data, ResourceProfile(batch.n, passes, algo.state_bits)
    )
    float_report = tensor_power_method(
        batch, PowerMethodConfig(max_iters=passes, tol=1e-300, init=init)
    )
    gap = 1.0 - overlap(report.estimate, float_report.estimate)
    checks.append(("quantized-vs-float", gap <= 1e-6))

    emit(6, checks, f"float gap {gap:.3g}")


# ---------------------------------------------------------------------------
# 7. exact oracles and frozen envelope constants


def test_criterion_7_oracle_suite():
    checks = []
    entries = check_rademacher_bounds(10, 6)  # raises on any violation
    kinds = {e["kind"] for e in entries}
    checks.append(("rademacher-all-kinds", len(kinds) == 5))
    checks.append(("rademacher-entries", all(e["ok"] for e in entries)))

    cross = max(
        abs(integrated_hermite_inner(d, k, i, j))
        for d, k, i, j in ((8, 2, 1, 3), (10, 3, 2, 4), (12, 2, 0, 2))
    )
    checks.append(("cross-terms-zero", cross == 0.0))

    cal = load_calibration()
    for k in (2, 4):
        c_lower = cal[f"ldlr_ngca_c_lower_k{k}"]
        c_upper = cal[f"ldlr_ngca_c_upper_k{k}"]
        saw_lower = False
        ok = True
        for inst in ldlr_grid(k):
            result = ldlr_sandwich(inst, c_lower, c_upper)
            ok &= result["upper_ok"]
            if "lower_ok" in result:
                ok &= result["lower_ok"]
                saw_lower = True
        checks.append((f"ldlr-sandwich-k{k}", ok and saw_lower))

    for cap in (9, 41):
        partial = sum(sign_coefficient(t) ** 2 for t in range(cap + 1))
        checks.append(
            (f"parseval-cap{cap}", abs(partial + sign_tail_mass(cap) - 1.0) <= 1e-8)
        )

    emit(7, checks)


# ---------------------------------------------------------------------------
# 8. sweep determinism


SWEEP_CONFIG = """
[experiment]
problem = tpca
k = 2
d = 4
snr = 1.0
estimator = tensor-power
samples = 16, 64
seeds = 0, 1, 2

[harness]
bits = 16
radius = 8
passes = 6

[distributed]
shard_rows = 8
"""


def mask_wall(csv_text):
    wall = CSV_COLUMNS.index("wall_ms")
    header = ",".join(CSV_COLUMNS)
    out = []
    for line in csv_text.splitlines():
        if line.startswith("#") or line == header:
            out.append(line)
            continue
        cells = line.split(",")
        cells[wall] = "X"
        out.append(",".join(cells))
    return "\n".join(out)


def test_criterion_8_sweep_rerun_byte_identical(tmp_path):
    path = tmp_path / "sweep.ini"
    path.write_text(SWEEP_CONFIG)
    first = mask_wall(sweep_csv(run_sweep(parse_config(path))))
    second = mask_wall(sweep_csv(run_sweep(parse_config(path))))
    checks = [("rerun-identical", first == second)]
    emit(8, checks, f"{first.count(chr(10)) - 1} rows")
