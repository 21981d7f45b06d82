"""Command-line driver: parameter sweeps, verification suites, batch
dumps, and the streaming-to-distributed reduction demo.

Verbs:

    sweep <config>    run the (samples x seeds) grid, emit CSV rows
    verify <suite>    run one verification suite, emit a check report
    sample <config>   draw one batch and dump the binary container
    reduce <config>   replay the streaming run as a one-bit protocol

Every verb takes ``--seed`` (replace the configured seed list, may be
repeated), ``--out`` (output path), ``--threads`` (worker pool size for
sweeps), and ``--budget-entries`` (dense-tensor entry guard for this
call only); the last two must be >= 1.  The config grammar and all
output formats are documented in docs/formats.md.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from spikelab.batchio import dump_batch
from spikelab.config import ExperimentConfig, iteration_seed, noise_seed, parse_config
from spikelab.estimators import ESTIMATOR_SCOPES, ESTIMATORS
from spikelab.harness import (
    TEMPLATES,
    QuantizedIteration,
    QuantizerSpec,
    ResourceProfile,
    replay,
    run_memory_bounded,
)
from spikelab.measures import build_bounded_llr_measure, build_mog_measure
from spikelab.models import (
    ModelSpec,
    sample_atpca,
    sample_cca,
    sample_ngca,
    sample_tpca,
)
from spikelab.tensors import overlap, set_entry_budget
from spikelab.verify import SUITES, CheckResult, replay_checks, run_verification

__all__ = ["build_harness", "draw", "main", "run_plain", "run_sweep", "sweep_csv"]

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

_SAMPLERS = {
    "tpca": sample_tpca,
    "atpca": sample_atpca,
    "ngca": sample_ngca,
    "cca": sample_cca,
}


# ---------------------------------------------------------------------------
# sweep


def draw(cfg: ExperimentConfig, n_samples: int, seed: int):
    """``(spec, batch)`` of run seed ``seed``: the planted instance drawn
    from ``seed``, then ``n_samples`` rows from ``noise_seed(seed)``."""
    if cfg.problem == "ngca":
        builder = build_mog_measure if cfg.measure_kind == "mog" else build_bounded_llr_measure
        spec = ModelSpec.ngca(d=cfg.d, measure=builder(cfg.k, cfg.snr), seed=seed)
    else:
        spec = getattr(ModelSpec, cfg.problem)(k=cfg.k, d=cfg.d, snr=cfg.snr, seed=seed)
    return spec, _SAMPLERS[cfg.problem](spec, n_samples, noise_seed(seed))


def run_plain(cfg: ExperimentConfig, batch, seed: int):
    """The configured estimator's report on ``batch``, started from the
    solver seed ``iteration_seed(seed)``."""
    # config.py admits only the options class's own options; unset ones
    # keep its defaults.
    options = ESTIMATOR_SCOPES[cfg.estimator][1]
    opts = dict(cfg.estimator_options, seed=iteration_seed(seed))
    return ESTIMATORS[cfg.estimator](batch, options(**opts))


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
    psi = TEMPLATES[cfg.estimator](cfg.k, cfg.d)
    init = np.random.default_rng(iteration_seed(seed)).standard_normal(cfg.d)
    algorithm = QuantizedIteration(
        psi, QuantizerSpec(bits=hs.bits, radius=hs.radius), cfg.d, n_samples, init
    )
    return algorithm, ResourceProfile(n_samples, hs.passes, algorithm.state_bits)


def run_point(cfg: ExperimentConfig, n_samples: int, seed: int) -> dict:
    """One grid point, one seed; returns a populated CSV row."""
    spec, batch = draw(cfg, n_samples, seed)
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
        report = run_plain(cfg, batch, seed)
        row["overlap"] = report.overlap
        row["iterations"] = report.iterations
    else:
        algorithm, profile = build_harness(cfg, n_samples, seed)
        if cfg.distributed is None:
            report = run_memory_bounded(algorithm, batch.data, profile)
        else:
            report, board, _ = replay(
                algorithm, batch.data, profile, cfg.distributed.shard_rows
            )
            row.update({"m": board.m, "n": board.n, "b": board.b})
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


def _print_report(results: list[CheckResult]) -> bool:
    """Print a check report; true when every check passed."""
    print("check,status,measured,bound")
    for result in results:
        print(result.line())
    return all(r.ok for r in results)


def _cmd_verify(args) -> int:
    return 0 if _print_report(run_verification(args.suite)) else 1


def _cmd_sample(args) -> int:
    cfg = parse_config(args.config, seed_override=args.seed, out_override=args.out)
    seed = cfg.seeds[0]
    n_samples = cfg.samples_grid[0]
    _, batch = draw(cfg, n_samples, seed)
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
    _, batch = draw(cfg, n_samples, seed)
    algorithm, profile = build_harness(cfg, n_samples, seed)
    direct = run_memory_bounded(algorithm, batch.data, profile)
    report, board, protocol = replay(
        algorithm, batch.data, profile, cfg.distributed.shard_rows
    )
    # The harness suite's checks, on this one replay.
    ok = _print_report(replay_checks("reduce", [(profile, direct, report, board, protocol)]))
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(board.dump_text())
        print(f"wrote {cfg.out}")
    return 0 if ok else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once: ``parse_args`` keeps no state
    between calls, since every option's default is ``None`` or a
    constant."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "sweep": _cmd_sweep,
        "verify": _cmd_verify,
        "sample": _cmd_sample,
        "reduce": _cmd_reduce,
    }
    prev_budget = None
    try:
        if args.threads < 1:
            raise ValueError(f"--threads must be >= 1, got {args.threads}")
        if args.budget_entries is not None:
            prev_budget = set_entry_budget(args.budget_entries)
        return handlers[args.verb](args)
    except (ValueError, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        if prev_budget is not None:
            set_entry_budget(prev_budget)


if __name__ == "__main__":
    sys.exit(main())
