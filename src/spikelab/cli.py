"""Command-line driver: parameter sweeps, verification suites, batch
dumps, and the streaming-to-distributed reduction demo.

Verbs:

    sweep <config>    run the (samples x seeds) grid, emit CSV rows
    verify <suite>    run one verification suite, emit a check report
    sample <config>   draw one batch and dump the binary container
    reduce <config>   replay the streaming run as a one-bit protocol

Every verb takes ``--seed`` (replace the configured seed list, may be
repeated), ``--out`` (output path), ``--threads`` (worker pool size for
sweeps), and ``--budget-entries`` (dense-tensor entry guard).  The
config grammar and all output formats are documented in
docs/formats.md.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from spikelab import benchmarks
from spikelab.batchio import dump_batch
from spikelab.config import ExperimentConfig, parse_config
from spikelab.estimators import (
    BruteForceConfig,
    PowerMethodConfig,
    brute_force_cca,
    brute_force_ngca,
    cca_matricization_estimator,
    mr_matricization_estimator,
    ngca_spectral,
    partial_trace_spectral,
    tensor_power_method,
)
from spikelab.harness import (
    QuantizedIteration,
    QuantizerSpec,
    ResourceProfile,
    partial_trace_template,
    power_template,
    reduce_memory_to_distributed,
    run_distributed,
    run_memory_bounded,
    shard_stream,
)
from spikelab.hermite import (
    HermiteBasis,
    build_weighted_basis,
    gauss_hermite_rule,
    hermite_eval,
)
from spikelab.measures import build_bounded_llr_measure, build_mog_measure
from spikelab.models import (
    ModelSpec,
    cca_critical_snr,
    sample_atpca,
    sample_cca,
    sample_ngca,
    sample_tpca,
)
from spikelab.tensors import overlap, set_entry_budget
from spikelab.verify import (
    LDLRInstance,
    check_rademacher_bounds,
    integrated_hermite_inner,
    integrated_hermite_norm,
    ldlr_norm_exact,
    ldlr_sandwich,
    load_calibration,
    rademacher_mean_moment,
    sign_coefficient,
    sign_tail_mass,
)

__all__ = ["build_harness", "main", "run_sweep", "run_verification", "sweep_csv"]

CSV_VERSION = "spikelab-sweep-v1"
CSV_COLUMNS = (
    "problem",
    "k",
    "d",
    "lambda",
    "N",
    "T",
    "s",
    "m",
    "n",
    "b",
    "estimator",
    "seed",
    "overlap",
    "iterations",
    "wall_ms",
    "cost",
)

SUITES = ("hermite", "rademacher", "ldlr", "models", "harness")

_SAMPLERS = {
    "tpca": sample_tpca,
    "atpca": sample_atpca,
    "ngca": sample_ngca,
    "cca": sample_cca,
}


# ---------------------------------------------------------------------------
# sweep


def _build_spec(cfg: ExperimentConfig, seed: int) -> ModelSpec:
    if cfg.problem == "tpca":
        return ModelSpec.tpca(k=cfg.k, d=cfg.d, snr=cfg.snr, seed=seed)
    if cfg.problem == "atpca":
        return ModelSpec.atpca(k=cfg.k, d=cfg.d, snr=cfg.snr, seed=seed)
    if cfg.problem == "cca":
        return ModelSpec.cca(k=cfg.k, d=cfg.d, snr=cfg.snr, seed=seed)
    builder = build_mog_measure if cfg.measure_kind == "mog" else build_bounded_llr_measure
    return ModelSpec.ngca(d=cfg.d, measure=builder(cfg.k, cfg.snr), seed=seed)


def _power_config(cfg: ExperimentConfig, seed: int) -> PowerMethodConfig:
    opts = cfg.estimator_options
    return PowerMethodConfig(
        max_iters=opts.get("max_iters"),
        tol=opts.get("tol", 1e-10),
        seed=benchmarks.iteration_seed(seed),
    )


def _brute_config(cfg: ExperimentConfig, seed: int) -> BruteForceConfig:
    opts = cfg.estimator_options
    return BruteForceConfig(
        delta=opts["delta"],
        trunc=opts["trunc"],
        seed=benchmarks.iteration_seed(seed),
        probes=opts.get("probes", 10_000),
        max_net=opts.get("max_net", 200_000),
    )


def _run_plain(cfg: ExperimentConfig, batch, seed: int):
    name = cfg.estimator
    if name in ("brute-force-ngca", "brute-force-cca"):
        fn = brute_force_ngca if name == "brute-force-ngca" else brute_force_cca
        return fn(batch, _brute_config(cfg, seed))
    fn = {
        "tensor-power": tensor_power_method,
        "partial-trace": partial_trace_spectral,
        "matricization": mr_matricization_estimator,
        "cca-matricization": cca_matricization_estimator,
        "ngca-spectral": ngca_spectral,
    }[name]
    return fn(batch, _power_config(cfg, seed))


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def build_harness(cfg: ExperimentConfig, n_samples: int, seed: int):
    """The quantized streaming algorithm of a ``[harness]`` grid point and
    its ``ResourceProfile``; the start vector comes from the solver seed."""
    hs = cfg.harness
    if cfg.estimator == "tensor-power":
        psi = power_template(cfg.k)
    else:
        psi = partial_trace_template(cfg.k, cfg.d)
    init = np.random.default_rng(benchmarks.iteration_seed(seed)).standard_normal(cfg.d)
    algorithm = QuantizedIteration(
        psi, QuantizerSpec(bits=hs.bits, radius=hs.radius), cfg.d, n_samples, init
    )
    return algorithm, ResourceProfile(n_samples, hs.passes, algorithm.state_bits)


def run_point(cfg: ExperimentConfig, n_samples: int, seed: int) -> dict:
    """One grid point, one seed; returns a populated CSV row."""
    spec = _build_spec(cfg, seed)
    batch = _SAMPLERS[cfg.problem](spec, n_samples, 1000 + seed)
    row = {
        "problem": cfg.problem,
        "k": cfg.k,
        "d": cfg.d,
        "lambda": cfg.snr,
        "N": n_samples,
        "T": "",
        "s": "",
        "m": "",
        "n": "",
        "b": "",
        "estimator": cfg.estimator,
        "seed": seed,
        "cost": "",
    }
    t0 = time.perf_counter()
    if cfg.harness is None:
        report = _run_plain(cfg, batch, seed)
        row["overlap"] = report.overlap
        row["iterations"] = report.iterations
    else:
        algorithm, profile = build_harness(cfg, n_samples, seed)
        if cfg.distributed is None:
            report = run_memory_bounded(algorithm, batch.data, profile)
        else:
            protocol, m, n_shard, b = reduce_memory_to_distributed(
                algorithm, profile, cfg.distributed.shard_rows
            )
            report, _ = run_distributed(
                protocol, shard_stream(batch.data, n_shard), m, n_shard, b
            )
            row.update({"m": m, "n": n_shard, "b": b})
        row["overlap"] = overlap(spec.direction, report.estimate)
        row["iterations"] = profile.passes
        row.update({"T": profile.passes, "s": algorithm.state_bits, "cost": profile.cost})
    row["wall_ms"] = (time.perf_counter() - t0) * 1e3
    return row


def run_sweep(cfg: ExperimentConfig, threads: int = 1) -> list[dict]:
    """Rows in grid order, then seed-list order (``pool.map`` keeps it)."""
    jobs = [(n_samples, seed) for n_samples in cfg.samples_grid for seed in cfg.seeds]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda job: run_point(cfg, *job), jobs))
    return [run_point(cfg, *job) for job in jobs]


def sweep_csv(rows: list[dict]) -> str:
    lines = [f"# {CSV_VERSION}", ",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(row[col]) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# verification suites


@dataclass(frozen=True)
class CheckResult:
    check: str
    ok: bool
    measured: float
    bound: float

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{self.check},{status},{_fmt(float(self.measured))},{_fmt(float(self.bound))}"


def _suite_hermite() -> list[CheckResult]:
    checks = []
    rule = gauss_hermite_rule(16)
    values = HermiteBasis(8).eval_all(rule.nodes)
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
        for inst in benchmarks.ldlr_grid(k):
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
    coeffs = tuple(build_mog_measure(4, 0.005).nu_hat(8)[1:])
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
        ceiling = build_mog_measure(k, 0.0).lambda_k
        measure = build_mog_measure(k, 0.4 * ceiling)
        dev = max(
            abs(measure.moment(j) - build_mog_measure(k, 0.0).moment(j))
            for j in range(k)
        )
        gap_err = abs(measure.moment_gap() - measure.snr)
        checks.append(CheckResult(f"models/mixture-moments-k{k}", dev <= 1e-7, dev, 1e-7))
        checks.append(CheckResult(f"models/mixture-gap-k{k}", gap_err <= 1e-6, gap_err, 1e-6))
    for k in (2, 3, 4, 6):
        ceiling = build_weighted_basis(k).lambda_max
        measure = build_bounded_llr_measure(k, 0.5 * ceiling)
        dev = max(abs(measure.moment(j) - _gauss_moment(j)) for j in range(k))
        gap_err = abs(measure.moment_gap() + measure.snr)
        checks.append(CheckResult(f"models/tilt-moments-k{k}", dev <= 1e-7, dev, 1e-7))
        checks.append(CheckResult(f"models/tilt-gap-k{k}", gap_err <= 1e-6, gap_err, 1e-6))
    try:
        ModelSpec.cca(k=2, d=3, snr=cca_critical_snr(2) + 0.05)
        checks.append(CheckResult("models/cca-ceiling-guard", False, 0.0, 0.0))
    except ValueError:
        checks.append(CheckResult("models/cca-ceiling-guard", True, 0.0, 0.0))
    return checks


def _gauss_moment(j: int) -> float:
    return float(math.prod(range(1, j, 2))) if j % 2 == 0 and j > 0 else (1.0 if j == 0 else 0.0)


def harness_fixture_runs():
    """Streaming runs plus their sharded replays, for the equality check.

    Two wrapped iterations (an order-2 contraction at d = 4 and an
    order-4 partial trace at d = 3) on fixed Gaussian streams of 32
    rows, each replayed at shard sizes 32, 16, and 8; every replay
    carries its protocol, for the writer audit.
    """
    cases = []
    for label, psi, d, k, bits, radius in (
        ("power-k2-d4", power_template(2), 4, 2, 8, 8.0),
        ("partial-trace-k4-d3", partial_trace_template(4, 3), 3, 4, 32, 64.0),
    ):
        rng = np.random.default_rng(97)
        data = rng.standard_normal((32, d**k))
        init = rng.standard_normal(d)
        algorithm = QuantizedIteration(
            psi, QuantizerSpec(bits=bits, radius=radius), d, 32, init
        )
        profile = ResourceProfile(samples=32, passes=6, state_bits=algorithm.state_bits)
        direct = run_memory_bounded(algorithm, data, profile)
        replays = []
        for shard_rows in (32, 16, 8):
            protocol, m, n_shard, b = reduce_memory_to_distributed(
                algorithm, profile, shard_rows
            )
            report, board = run_distributed(
                protocol, shard_stream(data, shard_rows), m, n_shard, b
            )
            replays.append((shard_rows, protocol, report, board, m, n_shard, b))
        cases.append((label, profile, direct, replays))
    return cases


def _suite_harness() -> list[CheckResult]:
    checks = []
    mismatches = 0
    accounting = 0
    audit_failures = 0
    for label, profile, direct, replays in harness_fixture_runs():
        for shard_rows, protocol, report, board, m, n_shard, b in replays:
            if not np.array_equal(direct.estimate, report.estimate):
                mismatches += 1
            if m * b != (profile.samples // n_shard) * profile.state_bits * profile.passes:
                accounting += 1
            if len(board.bits) != m * b:
                accounting += 1
            # Round-by-round ``select_writer`` against the writers the
            # runner took from ``select_writers``.
            if not board.audit(protocol):
                audit_failures += 1
    checks.append(
        CheckResult("harness/reduction-bit-equality", mismatches == 0, mismatches, 0.0)
    )
    checks.append(
        CheckResult("harness/transcript-accounting", accounting == 0, accounting, 0.0)
    )
    checks.append(
        CheckResult("harness/writer-audit", audit_failures == 0, audit_failures, 0.0)
    )
    return checks


def run_verification(suite: str) -> list[CheckResult]:
    runners = {
        "hermite": _suite_hermite,
        "rademacher": _suite_rademacher,
        "ldlr": _suite_ldlr,
        "models": _suite_models,
        "harness": _suite_harness,
    }
    if suite not in runners:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    return runners[suite]()


# ---------------------------------------------------------------------------
# verbs


def _cmd_sweep(args) -> int:
    cfg = parse_config(args.config, seed_override=args.seed, out_override=args.out)
    text = sweep_csv(run_sweep(cfg, threads=args.threads))
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
        print(f"wrote {cfg.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    results = run_verification(args.suite)
    print("check,status,measured,bound")
    for result in results:
        print(result.line())
    return 0 if all(r.ok for r in results) else 1


def _cmd_sample(args) -> int:
    cfg = parse_config(args.config, seed_override=args.seed, out_override=args.out)
    seed = cfg.seeds[0]
    n_samples = cfg.samples_grid[0]
    spec = _build_spec(cfg, seed)
    batch = _SAMPLERS[cfg.problem](spec, n_samples, 1000 + seed)
    path = cfg.out or f"{cfg.problem}_n{n_samples}_seed{seed}.spkb"
    dump_batch(batch, path)
    print(f"wrote {path} ({batch.n} rows x {batch.data.shape[1]} columns)")
    return 0


def _cmd_reduce(args) -> int:
    cfg = parse_config(args.config, seed_override=args.seed, out_override=args.out)
    if cfg.harness is None or cfg.distributed is None:
        print("reduce needs [harness] and [distributed] sections", file=sys.stderr)
        return 2
    seed = cfg.seeds[0]
    n_samples = cfg.samples_grid[0]
    spec = _build_spec(cfg, seed)
    batch = _SAMPLERS[cfg.problem](spec, n_samples, 1000 + seed)
    algorithm, profile = build_harness(cfg, n_samples, seed)
    direct = run_memory_bounded(algorithm, batch.data, profile)
    protocol, m, n_shard, b = reduce_memory_to_distributed(
        algorithm, profile, cfg.distributed.shard_rows
    )
    report, board = run_distributed(
        protocol, shard_stream(batch.data, n_shard), m, n_shard, b
    )
    equal = bool(np.array_equal(direct.estimate, report.estimate))
    print("check,status,measured,bound")
    print(f"reduce/bit-equality,{'PASS' if equal else 'FAIL'},{int(not equal)},0")
    budget = (n_samples // n_shard) * profile.state_bits * profile.passes
    budget_ok = m * b == budget
    print(f"reduce/accounting,{'PASS' if budget_ok else 'FAIL'},{m * b},{budget}")
    bits_ok = len(board.bits) == m * b
    print(f"reduce/transcript-bits,{'PASS' if bits_ok else 'FAIL'},{len(board.bits)},{m * b}")
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(board.dump_text())
        print(f"wrote {cfg.out}")
    return 0 if equal and budget_ok and bits_ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spikelab",
        description="Planted tensor and projection models under resource bounds.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=int, action="append", help="replace the seed list (repeatable)"
    )
    common.add_argument("--out", help="output path override")
    common.add_argument("--threads", type=int, default=1, help="worker pool size")
    common.add_argument(
        "--budget-entries", type=int, help="dense tensor entry budget override"
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    p_sweep = sub.add_parser("sweep", parents=[common], help="run a config grid")
    p_sweep.add_argument("config")
    p_verify = sub.add_parser("verify", parents=[common], help="run a check suite")
    p_verify.add_argument("suite", choices=SUITES)
    p_sample = sub.add_parser("sample", parents=[common], help="dump one batch")
    p_sample.add_argument("config")
    p_reduce = sub.add_parser(
        "reduce", parents=[common], help="streaming vs distributed replay"
    )
    p_reduce.add_argument("config")
    args = parser.parse_args(argv)
    if args.budget_entries is not None:
        set_entry_budget(args.budget_entries)
    handlers = {
        "sweep": _cmd_sweep,
        "verify": _cmd_verify,
        "sample": _cmd_sample,
        "reduce": _cmd_reduce,
    }
    try:
        return handlers[args.verb](args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
