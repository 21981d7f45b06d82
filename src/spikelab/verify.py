"""Exact small-instance oracles for hypercube moments, integrated
Hermite norms, and low-degree likelihood-ratio norms.

Everything here is ground truth: enumeration over {+-1}^d (organized by
exchangeability classes or Walsh-Hadamard transforms, never sampled) and
exact rational arithmetic where the quantity is rational.  The suites
that ``spikelab verify`` runs close the module; each checks these
oracles or another layer against closed forms and returns one
``CheckResult`` per check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

import numpy as np

from spikelab.harness import (
    QuantizerSpec,
    replay,
    run_memory_bounded,
    shard_stream,
    streaming_run,
)
from spikelab.hermite import (
    build_weighted_basis,
    gauss_hermite_rule,
    hermite_all,
    hermite_eval,
)
from spikelab.measures import NonGaussMeasure, gaussian_moment
from spikelab.models import ModelSpec, cca_critical_snr
from spikelab.tensors import check_count, check_real

MAX_ENUM_DIM = 20
MAX_PAIR_ENUM_DIM = 12


def rademacher_mean_moment(d: int, t: int, marked=()) -> Fraction:
    """``E[Vbar^t * prod_{i in marked} V_i]`` for V uniform on {+-1}^d.

    Exact rational value.  The enumeration over the hypercube is
    collapsed to exchangeability classes (number of +1 signs among the
    marked coordinates and among the rest), which keeps the arithmetic
    in small Python integers.
    """
    d = check_count("d", d)
    if d > MAX_ENUM_DIM:
        raise ValueError(f"enumeration supports 1 <= d <= {MAX_ENUM_DIM}, got {d}")
    t = check_count("moment order", t, low=0)
    marked = tuple(sorted({check_count("marked coordinate", i, low=0) for i in marked}))
    if marked and marked[-1] >= d:
        raise ValueError(f"marked coordinates {marked} out of range for d = {d}")
    ell = len(marked)
    total = 0
    for a in range(ell + 1):
        for b in range(d - ell + 1):
            signed_sum = 2 * (a + b) - d
            total += (
                math.comb(ell, a)
                * math.comb(d - ell, b)
                * signed_sum**t
                * (-1) ** (ell - a)
            )
    return Fraction(total, 2**d * d**t)


def check_rademacher_bounds(d: int, t_max: int) -> list[dict]:
    """Verify every enumerated moment against the analytic envelopes.

    For each (t, number of marked coordinates): odd-parity moments must
    vanish exactly; all moments obey ``4^t t^{t/2} d^{-ceil(t/2)}``;
    moments with at least one marked coordinate additionally obey
    ``2 * 5^t t^{t/2} d^{-ceil((t+1)/2)}``; the largest marked moment
    at each t reaches ``5^-t t^{t/2} d^{-ceil(t/2)} / 2``; even plain
    moments meet the ``((2/e^2) * (t/2) / d)^{t/2}`` lower bound.
    Raises on any violation, which would indicate an oracle or
    transcription bug.
    """
    d = check_count("d", d, low=3)
    if d > MAX_ENUM_DIM:
        raise ValueError(f"need 3 <= d <= {MAX_ENUM_DIM}, got {d}")
    t_max = check_count("t_max", t_max)
    if t_max > 2 * (d - 1):
        raise ValueError(f"need 1 <= t_max <= 2(d - 1), got {t_max}")
    report = []
    for t in range(1, t_max + 1):
        upper_all = 4.0**t * t ** (t / 2.0) * d ** (-math.ceil(t / 2.0))
        upper_marked = (
            2.0 * 5.0**t * t ** (t / 2.0) * d ** (-math.ceil((t + 1) / 2.0))
        )
        marked_sup = 0.0
        for ell in range(0, min(t, d) + 1):
            value = rademacher_mean_moment(d, t, tuple(range(ell)))
            entry = {"t": t, "ell": ell, "value": float(value)}
            if (t + ell) % 2 == 1:
                entry["kind"] = "parity-zero"
                entry["ok"] = value == 0
            elif ell == 0:
                entry["kind"] = "plain-upper"
                entry["bound"] = upper_all
                entry["ok"] = abs(float(value)) <= upper_all
            else:
                entry["kind"] = "marked-upper"
                entry["bound"] = min(upper_all, upper_marked)
                entry["ok"] = abs(float(value)) <= entry["bound"]
                marked_sup = max(marked_sup, abs(float(value)))
            report.append(entry)
        # Moments with more marked coordinates than the order factor an
        # unmatched single sign, hence vanish; the sup needs no ell > t.
        lower_marked = 5.0 ** (-t) * t ** (t / 2.0) * d ** (-math.ceil(t / 2.0)) / 2.0
        report.append(
            {
                "t": t,
                "ell": -1,
                "value": marked_sup,
                "kind": "marked-sup-lower",
                "bound": lower_marked,
                "ok": marked_sup >= lower_marked,
            }
        )
        if t % 2 == 0 and t // 2 <= d:
            half = t // 2
            lower = ((2.0 / math.e**2) * half / d) ** half
            value = float(rademacher_mean_moment(d, t))
            report.append(
                {
                    "t": t,
                    "ell": 0,
                    "value": value,
                    "kind": "plain-lower",
                    "bound": lower,
                    "ok": value >= lower,
                }
            )
    bad = [e for e in report if not e["ok"]]
    if bad:
        raise RuntimeError(f"moment bound violations: {bad[:3]}")
    return report


# ---------------------------------------------------------------------------
# integrated Hermite norms


def _walsh_hadamard(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of a power-of-two-length
    vector: per level, the butterfly ``(a, b) -> (a + b, a - b)`` on every
    block pair at once, in place."""
    out = np.array(values, dtype=np.float64)
    h = 1
    while h < len(out):
        pairs = out.reshape(-1, 2, h)
        a = pairs[:, 0].copy()
        pairs[:, 0] += pairs[:, 1]
        np.subtract(a, pairs[:, 1], out=pairs[:, 1])
        h *= 2
    return out


def integrated_hermite_norm(d: int, k: int, i: int, s_values=None) -> float:
    """``E_0[ (int H_i(<X, V^(x)k>/d^{k/2}) S(V) dpi)^2 ]`` exactly.

    Correlated Hermite orthogonality collapses the Gaussian expectation
    to ``E_{V, V'}[ (<V, V'>/d)^{ki} S(V) S(V') ]``; the pair sum over
    the hypercube is evaluated through the autocorrelation of S (two
    Walsh-Hadamard transforms), so the cost is O(d 2^d) instead of 4^d.
    ``s_values`` lists S over {+-1}^d in binary order (bit = 1 meaning
    coordinate -1); None means S = 1.
    """
    d = check_count("d", d)
    if d > MAX_PAIR_ENUM_DIM:
        raise ValueError(f"pair enumeration supports d <= {MAX_PAIR_ENUM_DIM}")
    k = check_count("k", k)
    i = check_count("i", i, low=0)
    size = 2**d
    if s_values is None:
        s_values = np.ones(size)
    s_values = np.asarray(s_values, dtype=np.float64)
    if s_values.shape != (size,):
        raise ValueError(f"S must list {size} values, got shape {s_values.shape}")
    autocorr = _walsh_hadamard(_walsh_hadamard(s_values) ** 2) / size
    pc = np.bitwise_count(np.arange(size, dtype=np.uint64)).astype(np.float64)
    rho = (d - 2.0 * pc) / d
    return float((rho ** (k * i) * autocorr).sum() / size**2)


def integrated_hermite_inner(d: int, k: int, i: int, j: int, s_values=None) -> float:
    """``E_0[intH_i * intH_j]``: zero off the diagonal, exactly.

    Correlated Hermite polynomials of different degrees have covariance
    ``rho^i * delta_ij``, so the cross expectation vanishes before any
    enumeration happens; the diagonal reduces to the norm.
    """
    check_count("i", i, low=0)
    check_count("j", j, low=0)
    if i != j:
        return 0.0
    return integrated_hermite_norm(d, k, i, s_values)


# ---------------------------------------------------------------------------
# low-degree likelihood-ratio norms


@dataclass(frozen=True)
class LDLRInstance:
    """One exact low-degree norm computation.

    ``coeffs`` holds the measure's orthonormal-Hermite coefficients
    nu_hat_1 .. nu_hat_t (signal scale included for the projection
    models; universal sign coefficients for the correlated-views model,
    whose per-sample scale enters through ``snr``).
    """

    problem: str
    N: int
    d: int
    k: int
    t: int
    coeffs: tuple
    snr: float = 0.0

    def __post_init__(self):
        if self.problem not in ("ngca", "cca"):
            raise ValueError(f"unsupported problem {self.problem!r}")
        for name in ("N", "d", "k", "t"):
            check_count(name, getattr(self, name))
        check_real("snr", self.snr)
        if not (math.isfinite(self.snr) and self.snr >= 0):
            raise ValueError(f"snr must be finite and >= 0, got {self.snr}")
        coeffs = tuple(float(c) for c in self.coeffs)
        if len(coeffs) < self.t:
            raise ValueError(f"need {self.t} coefficients, got {len(coeffs)}")
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def envelope_scale(self) -> float:
        """``N lam^2 t^{(k-2)/2} / d^{k/2}``, the scale of both envelope bounds."""
        return self.N * self.snr**2 * self.t ** ((self.k - 2) / 2.0) / self.d ** (self.k / 2.0)

    @property
    def has_lower_envelope(self) -> bool:
        """The lower envelope bound applies: t even, divisible by k, at most d."""
        return self.t % 2 == 0 and self.t % self.k == 0 and self.t <= self.d


def _convolve_truncated(a, b, cap):
    out = [0.0] * (cap + 1)
    for i, ai in enumerate(a):
        if ai == 0.0 or i > cap:
            continue
        for j, bj in enumerate(b):
            if i + j > cap:
                break
            out[i + j] += ai * bj
    return out


def ldlr_norm_exact(inst: LDLRInstance) -> float:
    """``||L^{<=t} - 1||_2^2`` by exact multi-index summation.

    The sum over degree multi-indices collapses to truncated powers of
    the coefficient generating polynomial, weighted by the exact plain
    hypercube moments ``E[Vbar^w]`` of matching total degree; for the
    correlated-views model each view contributes an independent factor
    and subsets of samples are counted by binomial weight.
    """
    if inst.N > 6 or inst.d > 10 or inst.t > 8:
        raise ValueError("exact norm capped at N <= 6, d <= 10, t <= 8")
    moments = [float(rademacher_mean_moment(inst.d, w)) for w in range(inst.t + 1)]
    nu_sq = [0.0] + [c * c for c in inst.coeffs[: inst.t]]
    if inst.problem == "ngca":
        # p(z) = 1 + sum_j nu_j^2 z^j, one factor per sample.
        p = [1.0] + nu_sq[1:]
        power = [1.0]
        for _ in range(inst.N):
            power = _convolve_truncated(power, p, inst.t)
        return sum(power[w] * moments[w] for w in range(1, inst.t + 1))
    # Correlated views: subsets of samples of size s carry weight
    # C(N, s) (lambda/lambda_k)^{2s}; each of the k views contributes a
    # factor c_s(w) m(w) with c_s the degree-w coefficient of q(z)^s,
    # q(z) = sum_j nu_j^2 z^j (every selected sample needs degree >= 1).
    ratio = inst.snr / cca_critical_snr(inst.k)
    q = [0.0] + nu_sq[1:]
    total = 0.0
    q_power = [1.0]
    for s in range(1, inst.N + 1):
        q_power = _convolve_truncated(q_power, q, inst.t)
        g = [q_power[w] * moments[w] for w in range(inst.t + 1)]
        views = [1.0]
        for _ in range(inst.k):
            views = _convolve_truncated(views, g, inst.t)
        total += math.comb(inst.N, s) * ratio ** (2 * s) * sum(views)
    return total


def ldlr_sandwich(inst: LDLRInstance, c_lower: float, c_upper: float) -> dict:
    """Evaluate the two-sided envelope for one instance.

    Lower bound requires t even, divisible by k, and at most d:
    ``(N lam^2 t^{(k-2)/2} / (c_lower d^{k/2}))^{t/k} <= norm``;
    upper bound: ``norm <= c_upper N lam^2 t^{(k-2)/2} / d^{k/2}``.
    """
    norm = ldlr_norm_exact(inst)
    scale = inst.envelope_scale
    upper = c_upper * scale
    result = {"norm": norm, "upper": upper, "upper_ok": norm <= upper}
    if inst.has_lower_envelope:
        lower = (scale / c_lower) ** (inst.t / inst.k)
        result["lower"] = lower
        result["lower_ok"] = lower <= norm
    return result


# ---------------------------------------------------------------------------
# sign coefficients


def sign_coefficient(t: int) -> float:
    """``E[H_t(Z) sign(Z)]`` in the orthonormal basis, closed form.

    Zero for even t; for t = 2m + 1 the value is
    ``sqrt(2/pi) (-1)^m (2m-1)!! / sqrt((2m+1)!)``.
    """
    t = check_count("degree", t, low=0)
    if t % 2 == 0:
        return 0.0
    sign = (-1) ** ((t - 1) // 2)
    return math.sqrt(2.0 / math.pi) * sign * gaussian_moment(t - 1) / math.sqrt(math.factorial(t))


def sign_tail_mass(t_max: int) -> float:
    """Exact ``sum_{t > t_max} E[H_t(Z) sign(Z)]^2``.

    The squared coefficients are ``(2/pi) (2m-1)!!/((2m)!!(2m+1))`` for
    t = 2m+1, the Taylor coefficients of ``(2/pi) arcsin``; the total
    mass is therefore exactly 1 and the tail is 1 minus an exact
    rational partial sum (scaled by 2/pi), with only float rounding in
    the final conversion.
    """
    check_count("degree cap", t_max, low=0)
    partial = sum(  # over t = 2m + 1 <= t_max; (2m - 1)!! = E[Z^{2m}]
        Fraction(gaussian_moment(2 * m), math.prod(range(2, 2 * m + 1, 2)) * (2 * m + 1))
        for m in range((t_max + 1) // 2)
    )
    return 1.0 - (2.0 / math.pi) * float(partial)


# ---------------------------------------------------------------------------
# calibration fixture


def load_calibration() -> dict:
    """Frozen constants from the packaged key = value fixture."""
    text = resources.files("spikelab").joinpath("data/calibration.txt").read_text()
    values = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, raw = line.partition("=")
        values[key.strip()] = float(raw.strip())
    return values


# Signal levels for the exact-norm envelope grid, safely inside the
# mixture-measure admissible range at each order.
LDLR_GRID_SNR = {2: 0.25, 4: 0.5}


def ldlr_grid(k: int) -> list[LDLRInstance]:
    """Exact-norm instances whose envelope constants get frozen."""
    snr = LDLR_GRID_SNR[k]
    coeffs = tuple(NonGaussMeasure("mog", k, snr).nu_hat(6)[1:])
    degrees = (2, 4, 6) if k == 2 else (4, 6)
    return [
        LDLRInstance(problem="ngca", N=n, d=d, k=k, t=t, coeffs=coeffs, snr=snr)
        for n in (1, 2, 4)
        for d in (4, 6, 8)
        for t in degrees
    ]


# ---------------------------------------------------------------------------
# verification suites


@dataclass(frozen=True)
class CheckResult:
    """One line of a check report: ``check,PASS|FAIL,measured,bound``."""

    check: str
    ok: bool
    measured: float
    bound: float

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{self.check},{status},{float(self.measured):.12g},{float(self.bound):.12g}"


def _suite_hermite() -> list[CheckResult]:
    checks = []
    rule = gauss_hermite_rule(16)
    values = hermite_all(8, rule.nodes)
    gram = (values * rule.weights) @ values.T
    dev = float(np.abs(gram - np.eye(9)).max())
    checks.append(CheckResult("hermite/orthonormality", dev <= 1e-9, dev, 1e-9))
    worst = 0.0
    shift_rule = gauss_hermite_rule(24)
    for k in range(7):
        for mu in (0.3, 1.1):
            got = shift_rule.expect(hermite_eval(k, mu + shift_rule.nodes))
            worst = max(worst, abs(got - mu**k / math.sqrt(math.factorial(k))))
    checks.append(CheckResult("hermite/shifted-mean", worst <= 1e-9, worst, 1e-9))
    worst = 0.0
    for nodes in range(1, 5):
        small = gauss_hermite_rule(nodes)
        got = small.expect(hermite_eval(2 * nodes, small.nodes))
        target = -math.factorial(nodes) / math.sqrt(math.factorial(2 * nodes))
        worst = max(worst, abs(got - target))
    checks.append(CheckResult("hermite/small-rule-residual", worst <= 1e-9, worst, 1e-9))
    worst = 0.0
    for k in (2, 3, 4, 6):
        basis = build_weighted_basis(k)
        vals = np.array([basis.eval(j, basis.nodes) for j in range(k + 1)])
        gram = np.array(
            [[basis.inner(vals[i], vals[j]) for j in range(k + 1)] for i in range(k + 1)]
        )
        worst = max(worst, float(np.abs(gram - np.eye(k + 1)).max()))
    checks.append(CheckResult("hermite/weighted-orthonormality", worst <= 1e-9, worst, 1e-9))
    return checks


def _suite_rademacher() -> list[CheckResult]:
    checks = []
    try:
        report = check_rademacher_bounds(10, 6)
        ratio = max(
            abs(e["value"]) / e["bound"]
            for e in report
            if e["kind"] in ("plain-upper", "marked-upper") and e["bound"] > 0
        )
        checks.append(CheckResult("rademacher/envelope-d10-t6", True, ratio, 1.0))
    except RuntimeError:
        checks.append(CheckResult("rademacher/envelope-d10-t6", False, math.inf, 1.0))
    quartic = rademacher_mean_moment(10, 4)
    exact = quartic == Fraction(28, 1000)
    checks.append(CheckResult("rademacher/quartic-closed-form", exact, float(quartic), 0.028))
    worst = 0.0
    for d in (4, 6):
        for k, i in ((2, 1), (2, 2), (3, 2)):
            wht = integrated_hermite_norm(d, k, i)
            direct = float(rademacher_mean_moment(d, k * i))
            worst = max(worst, abs(wht - direct))
    checks.append(CheckResult("rademacher/pair-route-agreement", worst <= 1e-12, worst, 1e-12))
    cross = max(
        abs(integrated_hermite_inner(4, 2, i, j))
        for i in range(3)
        for j in range(3)
        if i != j
    )
    checks.append(CheckResult("rademacher/cross-terms-zero", cross == 0.0, cross, 0.0))
    return checks


def _suite_ldlr() -> list[CheckResult]:
    checks = []
    calibration = load_calibration()
    for k in (2, 4):
        slack = math.inf
        ok = True
        for inst in ldlr_grid(k):
            result = ldlr_sandwich(
                inst,
                c_lower=calibration[f"ldlr_ngca_c_lower_k{k}"],
                c_upper=calibration[f"ldlr_ngca_c_upper_k{k}"],
            )
            ok = ok and result["upper_ok"] and result.get("lower_ok", True)
            slack = min(slack, result["upper"] - result["norm"])
            if "lower" in result:
                slack = min(slack, result["norm"] - result["lower"])
        checks.append(CheckResult(f"ldlr/sandwich-k{k}", ok and slack >= 0, slack, 0.0))
    partial = sum(sign_coefficient(t) ** 2 for t in range(42))
    defect = abs(partial + sign_tail_mass(41) - 1.0)
    checks.append(CheckResult("ldlr/sign-parseval", defect <= 1e-8, defect, 1e-8))
    coeffs = tuple(NonGaussMeasure("mog", 4, 0.005).nu_hat(8)[1:])
    one = ldlr_norm_exact(
        LDLRInstance(problem="ngca", N=1, d=8, k=4, t=8, coeffs=coeffs, snr=0.005)
    )
    two = ldlr_norm_exact(
        LDLRInstance(problem="ngca", N=2, d=8, k=4, t=8, coeffs=coeffs, snr=0.005)
    )
    ratio = two / one
    checks.append(CheckResult("ldlr/doubling-linearity", 1.9 <= ratio <= 2.1, ratio, 2.0))
    return checks


def _suite_models() -> list[CheckResult]:
    checks = []
    for k in (2, 4, 6):
        flat = NonGaussMeasure("mog", k, 0.0)
        measure = NonGaussMeasure("mog", k, 0.4 * flat.lambda_k)
        dev = max(abs(measure.moment(j) - flat.moment(j)) for j in range(k))
        gap_err = abs(measure.moment_gap() - measure.snr)
        checks.append(CheckResult(f"models/mixture-moments-k{k}", dev <= 1e-7, dev, 1e-7))
        checks.append(CheckResult(f"models/mixture-gap-k{k}", gap_err <= 1e-6, gap_err, 1e-6))
    for k in (2, 3, 4, 6):
        ceiling = build_weighted_basis(k).lambda_max
        measure = NonGaussMeasure("bounded-llr", k, 0.5 * ceiling)
        dev = max(abs(measure.moment(j) - gaussian_moment(j)) for j in range(k))
        gap_err = abs(measure.moment_gap() + measure.snr)
        checks.append(CheckResult(f"models/tilt-moments-k{k}", dev <= 1e-7, dev, 1e-7))
        checks.append(CheckResult(f"models/tilt-gap-k{k}", gap_err <= 1e-6, gap_err, 1e-6))
    try:
        ModelSpec.cca(k=2, d=3, snr=cca_critical_snr(2) + 0.05)
        checks.append(CheckResult("models/cca-ceiling-guard", False, 0.0, 0.0))
    except ValueError:
        checks.append(CheckResult("models/cca-ceiling-guard", True, 0.0, 0.0))
    return checks


def replay_checks(prefix: str, runs) -> tuple[list[CheckResult], list]:
    """``(checks, boards)``: the ``<prefix>/`` bit-equality, accounting,
    writer-audit and shard-recompute checks, each counting the replays
    that fail it, and the replays' boards in order.  A run ``(algorithm,
    data, profile, shard_rows)`` goes once through ``run_memory_bounded``
    and once through ``replay`` per shard size in ``shard_rows``."""
    mismatches = accounting = audit_failures = recompute_failures = 0
    boards = []
    for algorithm, data, profile, shard_rows in runs:
        direct = run_memory_bounded(algorithm, data, profile)
        for rows in shard_rows:
            report, board, protocol = replay(algorithm, data, profile, rows)
            boards.append(board)
            mismatches += not np.array_equal(direct.estimate, report.estimate)
            budget = (profile.samples // board.n) * profile.state_bits * profile.passes
            accounting += (board.m * board.b != budget) + (len(board.bits) != board.m * board.b)
            # The protocol's writer runs, replayed from transcript prefixes,
            # against the writer log the runner built from the same hook.
            audit_failures += not board.audit(protocol)
            # Each writer's bits from its own shard alone, against the bits
            # the runner took a pass at a time from ``next_bits``.
            recompute_failures += not board.recompute(protocol, shard_stream(data, board.n))
    checks = [
        CheckResult(f"{prefix}/reduction-bit-equality", mismatches == 0, mismatches, 0.0),
        CheckResult(f"{prefix}/transcript-accounting", accounting == 0, accounting, 0.0),
        CheckResult(f"{prefix}/writer-audit", audit_failures == 0, audit_failures, 0.0),
        CheckResult(
            f"{prefix}/shard-recompute", recompute_failures == 0, recompute_failures, 0.0
        ),
    ]
    return checks, boards


def _suite_harness() -> list[CheckResult]:
    """Two wrapped iterations (an order-2 power contraction at d = 4 and
    an order-4 partial trace at d = 3) on fixed Gaussian streams of 32
    rows, each replayed at shard sizes 32, 16, and 8."""
    runs = []
    for estimator, d, k, quantizer in (
        ("tensor-power", 4, 2, QuantizerSpec(bits=8, radius=8.0)),
        ("partial-trace", 3, 4, QuantizerSpec(bits=32, radius=64.0)),
    ):
        rng = np.random.default_rng(97)
        data = rng.standard_normal((32, d**k))
        init = rng.standard_normal(d)
        algorithm, profile = streaming_run(estimator, k, d, quantizer, 6, 32, init)
        runs.append((algorithm, data, profile, (32, 16, 8)))
    return replay_checks("harness", runs)[0]


_SUITE_RUNNERS = {
    "hermite": _suite_hermite,
    "rademacher": _suite_rademacher,
    "ldlr": _suite_ldlr,
    "models": _suite_models,
    "harness": _suite_harness,
}
SUITES = tuple(_SUITE_RUNNERS)


def run_verification(suite: str) -> list[CheckResult]:
    """The check results of one suite, by name (one of ``SUITES``)."""
    if suite not in _SUITE_RUNNERS:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    return _SUITE_RUNNERS[suite]()
