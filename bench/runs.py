"""Collect sets of benchmark runs and compare two sets.

    python3 bench/runs.py collect --out bench/results/a --seeds 1-10
    python3 bench/runs.py compare bench/results/a bench/results/b

``collect`` runs ``bench/run.py`` once per (workload, seed) for every
workload in ``BENCHMARK.json``, one run at a time, and keeps each run's
JSON result and its standard error under ``<out>/<workload>/``.
``compare`` prints, for each workload and metric, each set's median and
quartiles, the quartile spread as a share of the median, and a verdict
against the bound fixed in ``BENCHMARK.json``: ``agree`` when both
spreads are within the bound and the medians differ by no more than the
bound in either direction, ``better`` or ``WORSE`` when the second
median has moved beyond the bound in that direction, ``SPREAD`` when a
spread exceeds the bound.  It exits non-zero unless every metric
agrees, as two sets of the same code must.  Given one set it prints
that set alone.  Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    for name in [w["name"] for w in spec["workloads"]]:
        out = Path(args.out) / name
        out.mkdir(parents=True, exist_ok=True)
        for seed in _seeds(args.seeds):
            cmd = [
                sys.executable, str(ROOT / "bench" / "run.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace),
            ]  # fmt: skip
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            (out / f"{seed}.log").write_text(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            (out / f"{seed}.json").write_text(lines[-1] + "\n")
            print(f"{name} seed {seed}: {lines[-1]}", flush=True)
    return 0


def load(directory: Path) -> dict:
    """{workload: [result, ...]} from a collected set."""
    sets = {}
    for path in sorted(directory.glob("*/*.json")):
        result = json.loads(path.read_text())
        log = path.with_suffix(".log").read_text().splitlines()
        detail = [line for line in log if line.startswith("detail ")][-1]
        result["detail"] = json.loads(detail.removeprefix("detail "))
        sets.setdefault(path.parent.name, []).append(result)
    return sets


def summary(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def _cell(values: list[float]) -> str:
    med, q1, q3, spread = summary(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] spread {spread:.3f}"


def _verdict(stats, spec) -> str:
    """Each later set against the first, for one metric."""
    bound = spec["bound"]
    sign = 1 if spec["better"] == "lower" else -1
    shifts = [sign * (med - stats[0][0]) / stats[0][0] for med, _ in stats[1:]]
    word = "agree"
    if any(spread > bound for _, spread in stats):
        word = "SPREAD"
    elif any(shift > bound for shift in shifts):
        word = "WORSE"
    elif any(shift < -bound for shift in shifts):
        word = "better"
    return f"bound {bound}: {word}"


def compare(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sets = [load(Path(d)) for d in args.sets]
    ok = True
    for workload in sorted(set().union(*sets)):
        runs = [s.get(workload, []) for s in sets]
        print(f"\n{workload}: runs {[len(r) for r in runs]}, "
              f"failed/attempted {[sum(x['failed'] for x in r) for r in runs]}"
              f"/{[sum(x['attempted'] for x in r) for r in runs]}, "
              f"correct {[all(x['correct'] for x in r) for r in runs]}")
        names = sorted({m for r in runs for x in r for m in x["metrics"]})
        for metric in names:
            cells = []
            stats = []
            for r in runs:
                values = [x["metrics"][metric]["value"] for x in r if metric in x["metrics"]]
                if len(values) < 2:
                    cells.append("n/a")
                    stats.append(None)
                    continue
                med, _, _, spread = summary(values)
                stats.append((med, spread))
                cells.append(_cell(values))
            verdict = ""
            if metric in bounds and None not in stats:
                verdict = _verdict(stats, bounds[metric])
                ok = ok and verdict.endswith(": agree")
            print(f"  {metric:32s} " + " | ".join(cells) + f"  {verdict}")
        for metric in ("setup_s", "ops_per_s", "op_ms_p50"):
            values = [[x["detail"]["unscaled"][metric] for x in r] for r in runs]
            if all(len(v) >= 2 for v in values):
                print(f"  {'unscaled ' + metric:32s} " + " | ".join(map(_cell, values)))
        if any("ops_per_s" not in x["metrics"] for r in runs for x in r):
            logged = [statistics.median([x["detail"]["ops_per_s"] for x in r]) for r in runs]
            print(f"  {'traced ops/s (median)':32s} " + " | ".join(f"{v:.6g}" for v in logged))
        points = sorted({p for r in runs for x in r for p in x["detail"]["wall_ms"]})
        for point in points:
            walls = [[x["detail"]["wall_ms"][point] for x in r] for r in runs]
            cells = [f"{statistics.median(w):.6g}" if w else "n/a" for w in walls]
            print(f"  {'wall_ms ' + point + ' (median)':32s} " + " | ".join(cells))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_collect = sub.add_parser("collect", help="run every workload on a range of seeds")
    p_collect.add_argument("--out", required=True)
    p_collect.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p_collect.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_compare = sub.add_parser("compare", help="medians, quartiles and agreement")
    p_compare.add_argument("sets", nargs="+")
    args = parser.parse_args(argv)
    return collect(args) if args.command == "collect" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
