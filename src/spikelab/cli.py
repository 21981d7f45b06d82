"""Command-line driver: parameter sweeps, verification suites, batch
dumps, and the streaming-to-distributed reduction demo.

Verbs:

    sweep <config>    run the (samples x seeds) grid, emit CSV rows
    verify <suite>    run one verification suite, emit a check report
    sample <config>   draw one batch and dump the binary container
    reduce <config>   replay the streaming run as a one-bit protocol

Every verb takes ``--budget-entries`` (dense-tensor entry guard for
this call only).  The three config verbs take ``--seed`` (replace the
configured seed list, may be repeated) and ``--out`` (output path), and
``sweep`` alone takes ``--threads`` (worker pool size).  Counts must be
>= 1, and a verb rejects a flag it does not read.  The config grammar
and all output formats are documented in docs/formats.md.
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
from spikelab.harness import replay, run_memory_bounded, streaming_run
from spikelab.measures import NonGaussMeasure
from spikelab.models import SAMPLERS, ModelSpec
from spikelab.tensors import check_count, overlap, set_entry_budget
from spikelab.verify import SUITES, CheckResult, replay_checks, run_verification

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


# ---------------------------------------------------------------------------
# sweep


def draw(cfg: ExperimentConfig, n_samples: int, seed: int):
    """``(spec, batch)`` of run seed ``seed``: the planted instance drawn
    from ``seed``, then ``n_samples`` rows from ``noise_seed(seed)``."""
    if cfg.problem == "ngca":
        measure = NonGaussMeasure(cfg.measure_kind or "mog", cfg.k, cfg.snr)
        spec = ModelSpec.ngca(d=cfg.d, measure=measure, seed=seed)
    else:
        spec = getattr(ModelSpec, cfg.problem)(k=cfg.k, d=cfg.d, snr=cfg.snr, seed=seed)
    return spec, SAMPLERS[cfg.problem](spec, n_samples, noise_seed(seed))


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
    """``harness.streaming_run`` of a ``[harness]`` grid point, started
    from the solver seed ``iteration_seed(seed)``."""
    hs = cfg.harness
    init = np.random.default_rng(iteration_seed(seed)).standard_normal(cfg.d)
    return streaming_run(cfg.estimator, cfg.k, cfg.d, hs.quantizer, hs.passes, n_samples, init)


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
        if cfg.shard_rows is None:
            report = run_memory_bounded(algorithm, batch.data, profile)
        else:
            report, board, _ = replay(algorithm, batch.data, profile, cfg.shard_rows)
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
    check_count("--threads", args.threads)
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
    if cfg.harness is None or cfg.shard_rows is None:
        raise ValueError("reduce needs [harness] and [distributed] sections")
    seed = cfg.seeds[0]
    n_samples = cfg.samples_grid[0]
    _, batch = draw(cfg, n_samples, seed)
    algorithm, profile = build_harness(cfg, n_samples, seed)
    # The harness suite's checks, on this one replay.
    run = (algorithm, batch.data, profile, (cfg.shard_rows,))
    checks, (board,) = replay_checks("reduce", [run])
    ok = _print_report(checks)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(board.dump_text())
        print(f"wrote {cfg.out}")
    return 0 if ok else 1


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ``ValueError``, so that
    ``main`` prints them as one ``error:`` line and returns 2; its
    subparsers are of the same class."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once: ``parse_args`` keeps no state
    between calls, since every option's default is ``None`` or a
    constant."""
    parser = _ArgumentParser(
        prog="spikelab",
        description="Planted tensor and projection models under resource bounds.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--budget-entries", type=int, help="dense tensor entry budget override"
    )
    # The config verbs: a config path, a seed list and an output path.
    configured = argparse.ArgumentParser(add_help=False, parents=[common])
    configured.add_argument("config")
    configured.add_argument(
        "--seed", type=int, action="append", help="replace the seed list (repeatable)"
    )
    configured.add_argument("--out", help="output path override")
    sub = parser.add_subparsers(dest="verb", required=True)
    p_sweep = sub.add_parser("sweep", parents=[configured], help="run a config grid")
    p_sweep.add_argument("--threads", type=int, default=1, help="worker pool size")
    p_verify = sub.add_parser("verify", parents=[common], help="run a check suite")
    p_verify.add_argument("suite", choices=SUITES)
    sub.add_parser("sample", parents=[configured], help="dump one batch")
    sub.add_parser("reduce", parents=[configured], help="streaming vs distributed replay")
    return parser


def main(argv=None) -> int:
    handlers = {
        "sweep": _cmd_sweep,
        "verify": _cmd_verify,
        "sample": _cmd_sample,
        "reduce": _cmd_reduce,
    }
    prev_budget = None
    try:
        args = _parser().parse_args(argv)
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
