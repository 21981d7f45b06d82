"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload plain-grid --seed 1 --seconds 25 --trace 0

Run from the repository root.  The program is imported from ``src/`` of
the checkout this file sits in and driven through its CLI entry point,
in this process.  Set-up is timed cold, from the first line of this
file through the imports, config generation and parsing and the first
op; it is timed in this process and in ``SETUP_CHILDREN`` fresh
processes (this file with ``--setup-only``), and ``setup_s`` is the
median.  After one more warm-up op the timed phase runs whole ops in a
closed loop with one caller for ``--seconds`` seconds.  Every timing is
scaled to a reference machine speed (see ``ScaledClock``).  With
``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` the layer functions are wrapped in spans and the last line
carries the per-layer metrics instead.  Human-readable detail goes to
standard error, ending with one ``detail`` line of JSON (unscaled
timings included) that ``runs.py compare`` reads.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# One process and one BLAS thread: extra threads only add scheduling
# noise on a small machine, and the CLI's own work is single-threaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# One CPU for this process and the probe and set-up processes it starts
# (they inherit it): the machine's speed drifts per CPU, and the probe
# tracks the drift only on the CPU the ops run on.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# Cold set-ups timed in fresh processes, besides the one of this process.
SETUP_CHILDREN = 2
# Duration of a probe at the reference speed; every timing is scaled to
# this speed (see ``ScaledClock``).
REFERENCE_PROBE_S = 0.015


def _import_program():
    """Import spikelab from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "spikelab" / "__init__.py").is_file():
        raise SystemExit(f"error: no spikelab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import spikelab.cli  # noqa: F401

    if not Path(spikelab.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: spikelab imported from {spikelab.cli.__file__}")


def parse_args(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="time one cold set-up, print it as JSON and exit (used by the run itself)",
    )
    return parser.parse_args(argv)


class ScaledClock:
    """Durations at the reference speed, from probes in a separate process.

    The speed this machine gives one CPU drifts by tens of percent over
    minutes (other tenants of the host), and no run length the time
    budget allows averages that out.  So ``bench/probe.py`` runs a fixed
    probe after every op, on the same CPU but in a process of its own,
    so that nothing the program does inside the benchmark's process
    slows the probe too; each duration is scaled by the reference probe
    time over the median probe time around it, to the power of the
    workload's ``drift_exponent``.
    """

    def __init__(self, exponent: float):
        self.exponent = exponent
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "probe.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.probes = [self._probe()]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def _probe(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the probe process ended early")
        return float(line)

    def mark(self) -> int:
        """Probe after a duration that ended just now; returns the probe before it."""
        self.probes.append(self._probe())
        return len(self.probes) - 2

    def scale(self, seconds: float, index: int) -> float:
        """Scale a duration by the median of the six probes nearest to it.

        A median, because now and then a probe is itself hit by a pause
        (up to three times its usual time) and would otherwise distort
        the op next to it.
        """
        window = self.probes[max(0, index - 2) : index + 4]
        return seconds * (REFERENCE_PROBE_S / statistics.median(window)) ** self.exponent


def _no_span(name):
    return contextlib.nullcontext()


def cold_setup_in_child(args) -> dict:
    """One cold set-up in a fresh process: ``{"setup_s": ..., "errors": [...]}``."""
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--setup-only",
    ]  # fmt: skip
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: set-up process exited {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH))
    args = parse_args(argv)
    _import_program()
    import workloads

    workdir = BENCH / "work" / args.workload
    run = workloads.Run(args.workload, args.seed, workdir / "setup" if args.setup_only else workdir)
    run.prepare()
    outputs = run.op(_no_span)
    cold_s = time.perf_counter() - T_START
    setup_errors = run.check_op(outputs)
    if args.setup_only:
        print(json.dumps({"setup_s": cold_s, "errors": setup_errors}))
        return 0
    with ScaledClock(run.workload.drift_exponent) as clock:
        return measure(args, run, cold_s, setup_errors, clock)


def measure(args, run, cold_s, setup_errors, clock) -> int:
    import spans

    setups = [(cold_s, clock.mark())]
    for _ in range(SETUP_CHILDREN):
        child = cold_setup_in_child(args)
        setups.append((child["setup_s"], clock.mark()))
        setup_errors += child["errors"]
    passed = run.op(_no_span)  # warm-up, not timed
    setup_errors += run.check_op(passed)

    tracer = None
    span = _no_span
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        span = tracer.span

    timed = []
    attempted = failed = 0
    first_errors = []
    clock.mark()
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        attempted += 1
        t0 = time.perf_counter()
        try:
            with span("op"):
                outputs = run.op(span)
            op_s = time.perf_counter() - t0
            errors = run.check_op(outputs)
        except Exception as err:  # an op that raises counts as failed
            op_s = None
            errors = [f"op raised {type(err).__name__}: {err}"]
        if op_s is not None:
            timed.append((op_s, clock.mark()))
        if errors:
            failed += 1
            first_errors = first_errors or errors
        else:
            passed = outputs
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.close_phase()

    final_errors = run.final_checks()
    for line in (setup_errors + first_errors + final_errors)[:20]:
        print(f"check failed: {line}", file=sys.stderr)

    done = len(timed)
    times = [seconds for seconds, _ in timed]
    scaled = [clock.scale(*op) for op in timed]
    setup_s = statistics.median(clock.scale(*setup) for setup in setups)
    ops_per_s = done / sum(scaled) if done else 0.0
    if tracer is not None:
        metrics = tracer.layer_metrics(max(done, 1))
        tracer.dump(run.workdir / "trace.npz")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "ops/s"},
            "op_ms_p50": {"value": statistics.median(scaled or [0.0]) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    detail = {
        "ops_per_s": ops_per_s,
        "unscaled": {
            "setup_s": statistics.median(seconds for seconds, _ in setups),
            "ops_per_s": done / sum(times) if done else 0.0,
            "op_ms_p50": statistics.median(times or [0.0]) * 1e3,
        },
        "probe_ms": statistics.median(clock.probes) * 1e3,
        "wall_ms": run.first_seed_wall_ms(passed),
    }
    print(
        f"{args.workload} seed={args.seed} traced={bool(args.trace)}: {done} ops, "
        f"{failed} failed, ops/s={ops_per_s:.4f}, cold set-ups "
        f"{', '.join(f'{seconds:.3f}' for seconds, _ in setups)} s unscaled",
        file=sys.stderr,
    )
    print("detail " + json.dumps(detail), file=sys.stderr)
    result = {
        "correct": not (setup_errors or final_errors),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
