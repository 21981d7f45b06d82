"""The four benchmark workloads: configs, ops and output checks.

An op is one fixed cycle of CLI calls, so every op of a workload has the
same shape.  The configs are INI files generated from the workload
seed; the program sees only those files and the CLI arguments.  Row
seeds are drawn from [0, 1000), where the instance, noise and solver
streams of ``docs/formats.md`` (``seed``, ``1000 + seed``,
``8191 + 31*seed``) stay disjoint.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import checks

HARNESS = {"bits": 32, "radius": 64.0, "passes": 10}
SUITES = ("hermite", "rademacher", "ldlr", "models", "harness")
MAX_SEEDS = 16


@dataclass(frozen=True)
class Point:
    """One sweep config: a model, an estimator, a grid and its checks."""

    name: str
    problem: str
    k: int
    d: int
    snr: float
    estimator: str
    samples: tuple
    floor: float
    n_seeds: int
    options: dict = field(default_factory=dict)
    harness: dict | None = None
    shard_rows: int | None = None

    def ini(self, seeds) -> str:
        lines = [
            "[experiment]",
            f"problem = {self.problem}",
            f"k = {self.k}",
            f"d = {self.d}",
            f"snr = {self.snr}",
            f"estimator = {self.estimator}",
            f"samples = {', '.join(map(str, self.samples))}",
            f"seeds = {', '.join(map(str, seeds))}",
        ]
        for section, values in (("estimator", self.options), ("harness", self.harness)):
            if values:
                lines.append(f"[{section}]")
                lines.extend(f"{key} = {value}" for key, value in values.items())
        if self.shard_rows is not None:
            lines += ["[distributed]", f"shard_rows = {self.shard_rows}"]
        return "\n".join(lines) + "\n"


# The tpca points are shared by plain-grid and the harness workloads, so
# their per-row times give the harness/plain ratio on equal inputs.
TPCA_K2 = dict(problem="tpca", k=2, d=8, snr=3.0, estimator="tensor-power", samples=(256,))
TPCA_K4 = dict(problem="tpca", k=4, d=4, snr=3.0, estimator="partial-trace", samples=(512,))


@dataclass(frozen=True)
class Workload:
    points: tuple
    suites: tuple = ()
    # How far the op's time moves with the probe's as the machine's
    # speed drifts: timings are scaled by (reference probe / probe) to
    # this power (see ``run.ScaledClock``).  Interpreted code and small
    # array calls move one to one with the probe; bulk array work (the
    # samplers of plain-grid, the net search of verify-oracles) moves
    # less.  The README gives the measurements behind each value.
    drift_exponent: float = 1.0


WORKLOADS = {
    "plain-grid": Workload(
        drift_exponent=0.7,
        points=(
            Point("tpca-k2", **TPCA_K2, floor=0.9, n_seeds=8),
            Point("tpca-k4", **TPCA_K4, floor=0.9, n_seeds=8),
            Point("atpca-k4", "atpca", 4, 4, 3.0, "matricization", (512,), 0.9, 8),
            Point("ngca-k4", "ngca", 4, 8, 1.0, "ngca-spectral", (16384,), 0.9, 8),
            Point("cca-k2", "cca", 2, 8, 0.5, "cca-matricization", (4096,), 0.9, 8),
        ),
    ),
    "harness-stream": Workload(
        points=(
            Point("tpca-k2-stream", **TPCA_K2, floor=0.9, n_seeds=1, harness=HARNESS),
            Point("tpca-k4-stream", **TPCA_K4, floor=0.9, n_seeds=1, harness=HARNESS),
        ),
    ),
    "harness-protocol": Workload(
        points=(
            Point(
                "tpca-k2-protocol",
                **TPCA_K2,
                floor=0.9,
                n_seeds=1,
                harness=HARNESS,
                shard_rows=8,
            ),
        ),
    ),
    "verify-oracles": Workload(
        suites=SUITES,
        drift_exponent=0.5,
        points=(
            Point(
                "ngca-k4-brute",
                "ngca",
                4,
                3,
                0.9,
                "brute-force-ngca",
                (4096,),
                0.8,
                1,
                options={"delta": 0.5, "trunc": 4.0},
            ),
            Point(
                "cca-k2-brute",
                "cca",
                2,
                2,
                0.5,
                "brute-force-cca",
                (4096,),
                0.9,
                2,
                options={"delta": 0.2, "trunc": 4.0},
            ),
        ),
    ),
}


def row_seeds(workload_seed: int, count: int) -> list[int]:
    """The first ``count`` row seeds of a workload seed; prefixes are shared."""
    return random.Random(workload_seed).sample(range(1000), MAX_SEEDS)[:count]


def call_cli(argv) -> tuple[str, int]:
    """Run one CLI invocation in-process; returns (stdout, exit status)."""
    from spikelab import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(argv)
    return buf.getvalue(), status


class Run:
    """A workload bound to a seed and a directory for its generated files."""

    def __init__(self, name: str, workload_seed: int, workdir: Path):
        self.name = name
        self.workload = WORKLOADS[name]
        self.workdir = workdir
        self.seeds = {
            p.name: row_seeds(workload_seed, p.n_seeds) for p in self.workload.points
        }
        self.calls = []
        self.first = None

    def prepare(self) -> None:
        """Write every config and parse it back with the program's parser."""
        from spikelab.config import parse_config

        self.workdir.mkdir(parents=True, exist_ok=True)
        calls = [(f"verify.suite.{s}", s, ["verify", s]) for s in self.workload.suites]
        for point in self.workload.points:
            path = self.workdir / f"{point.name}.ini"
            path.write_text(point.ini(self.seeds[point.name]))
            parse_config(str(path))
            calls.append(("cli.sweep", point.name, ["sweep", str(path)]))
        self.calls = calls

    def op(self, span) -> list[tuple[str, str, int]]:
        """One op: every CLI call of the cycle, in order."""
        outputs = []
        for span_name, key, argv in self.calls:
            with span(span_name):
                text, status = call_cli(argv)
            outputs.append((key, text, status))
        return outputs

    def check_op(self, outputs) -> list[str]:
        """Per-op checks; the first op checked also becomes the rerun reference."""
        if self.first is None:
            self.first = outputs
        points = {p.name: p for p in self.workload.points}
        errors = []
        for (key, text, status), (_, first_text, _) in zip(outputs, self.first):
            if key in points:
                if status != 0:
                    errors.append(f"{key}: sweep exit status {status}")
                errors += checks.check_sweep(text, points[key], self.seeds[key])
                errors += checks.check_rerun(text, first_text, key)
            else:
                errors += checks.check_report(text, status, f"verify {key}")
        return errors

    def first_seed_wall_ms(self, outputs) -> dict:
        """The CSV ``wall_ms`` of each point's first-seed row in ``outputs``.

        The first seed is shared by every workload run with the same
        workload seed, so these give the harness/plain ratio on equal
        inputs.
        """
        walls = {}
        for key, text, _ in outputs:
            if key in self.seeds:
                for row in checks.parse_sweep_csv(text):
                    if int(row["seed"]) == self.seeds[key][0]:
                        walls[key] = float(row["wall_ms"])
        return walls

    def final_checks(self) -> list[str]:
        """Independent computations, run once after the timed phase."""
        errors = []
        outputs = {key: text for key, text, _ in self.first}
        for point in self.workload.points:
            if point.shard_rows is not None:
                errors += self._protocol_checks(point, outputs[point.name])
        if "rademacher" in self.workload.suites:
            from spikelab.verify import integrated_hermite_norm, rademacher_mean_moment

            errors += checks.check_quartic_line(outputs["rademacher"])
            errors += checks.check_rademacher(rademacher_mean_moment)
            errors += checks.check_hermite_norm(integrated_hermite_norm)
        return errors

    def _protocol_checks(self, point: Point, protocol_csv: str) -> list[str]:
        seeds = self.seeds[point.name]
        # The same config without [distributed]: the simulation is exact,
        # so every overlap string must repeat.
        stream = replace(point, name=point.name + "-stream", shard_rows=None)
        stream_path = self.workdir / f"{stream.name}.ini"
        stream_path.write_text(stream.ini(seeds))
        stream_csv, status = call_cli(["sweep", str(stream_path)])
        errors = [f"{stream.name}: exit status {status}"] if status else []
        errors += checks.check_same_overlaps(protocol_csv, stream_csv, point.name)

        transcript = self.workdir / f"{point.name}.transcript"
        transcript.unlink(missing_ok=True)
        report, status = call_cli(
            ["reduce", str(self.workdir / f"{point.name}.ini"), "--out", str(transcript)]
        )
        errors += checks.check_report(report, status, f"reduce {point.name}")
        n_samples = point.samples[0]
        m = n_samples // point.shard_rows
        b = 2 * point.d * point.harness["bits"] * point.harness["passes"]
        text = transcript.read_text() if transcript.exists() else ""
        errors += checks.check_transcript(text, m, b)

        board, protocol, estimate_overlap = replay_protocol(point, seeds[0])
        errors += checks.check_audit(board, protocol, text)
        row = checks.parse_sweep_csv(protocol_csv)[0]
        if f"{estimate_overlap:.12g}" != row["overlap"]:
            errors.append(
                f"{point.name}: replayed overlap {estimate_overlap:.12g} != CSV {row['overlap']}"
            )
        return errors


def replay_protocol(point: Point, seed: int):
    """Rebuild the sweep's protocol run from public pieces and the seed table.

    Instance seed ``seed``, noise seed ``1000 + seed`` and solver seed
    ``8191 + 31*seed``, as ``docs/formats.md`` specifies.
    """
    from spikelab.harness import (
        QuantizedIteration,
        QuantizerSpec,
        ResourceProfile,
        partial_trace_template,
        power_template,
        reduce_memory_to_distributed,
        run_distributed,
        shard_stream,
    )
    from spikelab.models import ModelSpec, sample_tpca
    from spikelab.tensors import overlap

    n_samples = point.samples[0]
    spec = ModelSpec.tpca(k=point.k, d=point.d, snr=point.snr, seed=seed)
    batch = sample_tpca(spec, n_samples, 1000 + seed)
    if point.estimator == "tensor-power":
        psi = power_template(point.k)
    else:
        psi = partial_trace_template(point.k, point.d)
    init = np.random.default_rng(8191 + 31 * seed).standard_normal(point.d)
    quantizer = QuantizerSpec(bits=point.harness["bits"], radius=point.harness["radius"])
    algorithm = QuantizedIteration(psi, quantizer, point.d, n_samples, init)
    profile = ResourceProfile(
        samples=n_samples, passes=point.harness["passes"], state_bits=algorithm.state_bits
    )
    protocol, m, n, b = reduce_memory_to_distributed(algorithm, profile, point.shard_rows)
    report, board = run_distributed(protocol, shard_stream(batch.data, n), m, n, b)
    return board, protocol, overlap(spec.direction, report.estimate)
