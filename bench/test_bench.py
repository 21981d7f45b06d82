"""Self-test of the benchmark, kept out of the tier-1 suite.

Every workload runs at a short length and passes its checks, a timed op
that raises or gives a wrong output is counted as failed, a copy of the
benchmark without the program refuses to run, and every output check
rejects a corrupted output, so none of them passes trivially.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = [7, 11]


def _run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace)]  # fmt: skip
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_and_passes_its_checks(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("fault", ["raise", "wrong output"])
def test_a_failing_timed_op_is_counted_as_failed(monkeypatch, capsys, fault):
    import run

    op = workloads.Run.op
    calls = 0

    def faulty_op(self, span):
        nonlocal calls
        calls += 1
        outputs = op(self, span)
        if calls <= 2:  # the cold set-up op and the warm-up op pass
            return outputs
        if fault == "raise":
            raise RuntimeError("injected fault")
        return [(key, text.replace("sweep-v1", "sweep-v2"), st) for key, text, st in outputs]

    monkeypatch.setattr(workloads.Run, "op", faulty_op)
    assert run.main(["--workload", "plain-grid", "--seed", "3", "--seconds", "1"]) == 0
    captured = capsys.readouterr()
    result = json.loads(captured.out.strip().splitlines()[-1])
    # ``correct`` speaks of the ops that did not fail; the failed ones are counted.
    assert result["correct"] is True
    assert result["failed"] == result["attempted"] >= 1
    assert "check failed" in captured.err


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("work", "results", "__pycache__")
    )
    proc = _run(tmp_path, "plain-grid", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


# ---------------------------------------------------------------------------
# every check rejects a corrupted output


def _point(workload, index=0):
    return workloads.WORKLOADS[workload].points[index]


def _sweep(point, tmp_path, seeds=SEEDS):
    path = tmp_path / f"{point.name}.ini"
    path.write_text(point.ini(seeds))
    text, status = workloads.call_cli(["sweep", str(path)])
    assert status == 0
    return text


def _set_cell(text, row, column, value):
    lines = text.splitlines()
    cells = lines[2 + row].split(",")
    cells[checks.CSV_COLUMNS.index(column)] = value
    lines[2 + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _change_digit(value: str) -> str:
    last = value[-1]
    return value[:-1] + ("1" if last != "1" else "2")


@pytest.fixture(scope="module")
def protocol_outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("protocol")
    point = _point("harness-protocol")
    csv = _sweep(point, tmp, SEEDS[:1])
    stream = _sweep(replace(point, name="stream", shard_rows=None), tmp, SEEDS[:1])
    transcript = tmp / "board.txt"
    report, status = workloads.call_cli(
        ["reduce", str(tmp / f"{point.name}.ini"), "--out", str(transcript)]
    )
    return point, csv, stream, report, status, transcript.read_text()


def test_sweep_check_rejects_corrupted_rows(tmp_path, protocol_outputs):
    point = _point("plain-grid")
    good = _sweep(point, tmp_path)
    assert checks.check_sweep(good, point, SEEDS) == []
    assert checks.check_sweep(_set_cell(good, 0, "overlap", "0.5"), point, SEEDS)
    assert checks.check_sweep(_set_cell(good, 1, "d", "9"), point, SEEDS)
    assert checks.check_sweep(_set_cell(good, 0, "T", "10"), point, SEEDS)
    assert checks.check_sweep(good.rsplit("\n", 2)[0] + "\n", point, SEEDS)
    assert checks.check_sweep(good.replace("sweep-v1", "sweep-v2"), point, SEEDS)

    ppoint, pcsv = protocol_outputs[:2]
    assert checks.check_sweep(pcsv, ppoint, SEEDS[:1]) == []
    for column, value in (("cost", "1"), ("s", "511"), ("m", "31"), ("n", "16"), ("b", "5121")):
        assert checks.check_sweep(_set_cell(pcsv, 0, column, value), ppoint, SEEDS[:1])


def test_rerun_check_rejects_a_changed_overlap_digit(tmp_path):
    point = _point("plain-grid")
    first = _sweep(point, tmp_path)
    again = _sweep(point, tmp_path)
    assert checks.check_rerun(again, first, point.name) == []
    assert checks.check_rerun(_set_cell(again, 0, "wall_ms", "1.5"), first, point.name) == []
    overlap = checks.parse_sweep_csv(again)[0]["overlap"]
    changed = _set_cell(again, 0, "overlap", _change_digit(overlap))
    assert checks.check_rerun(changed, first, point.name)


def test_protocol_overlaps_match_streaming_and_reject_a_changed_digit(protocol_outputs):
    point, csv, stream = protocol_outputs[:3]
    assert checks.check_same_overlaps(csv, stream, point.name) == []
    overlap = checks.parse_sweep_csv(csv)[0]["overlap"]
    changed = _set_cell(csv, 0, "overlap", _change_digit(overlap))
    assert checks.check_same_overlaps(changed, stream, point.name)


def test_transcript_check_rejects_truncation_and_extra_writes(protocol_outputs):
    point, csv, _, report, status, transcript = protocol_outputs
    row = checks.parse_sweep_csv(csv)[0]
    m, b = int(row["m"]), int(row["b"])
    assert checks.check_report(report, status, "reduce") == []
    assert checks.check_transcript(transcript, m, b) == []
    lines = transcript.splitlines()
    assert checks.check_transcript("\n".join(lines[:-1]) + "\n", m, b)
    t, writer, bit = lines[0].split(" ")
    swapped = [f"{t} {(int(writer) + 1) % m} {bit}"] + lines[1:]
    assert checks.check_transcript("\n".join(swapped) + "\n", m, b)
    assert checks.check_report(report.replace("PASS", "FAIL", 1), status, "reduce")


def test_audit_check_rejects_a_forged_writer_log(protocol_outputs):
    point, _, _, _, _, transcript = protocol_outputs
    board, protocol, _ = workloads.replay_protocol(point, SEEDS[0])
    assert checks.check_audit(board, protocol, transcript) == []
    assert checks.check_audit(board, protocol, transcript[:-2])
    board.writers[5] = (board.writers[5] + 1) % board.m
    assert checks.check_audit(board, protocol, board.dump_text())


def test_suite_report_check_rejects_a_fail_line():
    for suite in workloads.SUITES:
        text, status = workloads.call_cli(["verify", suite])
        assert checks.check_report(text, status, suite) == []
        lines = text.splitlines()
        lines[1] = lines[1].replace(",PASS,", ",FAIL,")
        assert checks.check_report("\n".join(lines), status, suite)
        assert checks.check_report(text, 1, suite)
    assert checks.check_report("check,status,measured,bound\n", 0, "empty")


def test_quartic_line_against_enumeration():
    text, _ = workloads.call_cli(["verify", "rademacher"])
    assert checks.check_quartic_line(text) == []
    assert checks.check_quartic_line(text.replace(",0.028,", ",0.0281,", 1))


def test_oracle_checks_reject_a_perturbed_oracle():
    from fractions import Fraction

    from spikelab.verify import integrated_hermite_norm, rademacher_mean_moment

    assert checks.check_rademacher(rademacher_mean_moment) == []
    assert checks.check_rademacher(
        lambda d, t, marked: rademacher_mean_moment(d, t, marked) + Fraction(int(t == 5), 4**d)
    )
    assert checks.check_hermite_norm(integrated_hermite_norm) == []
    assert checks.check_hermite_norm(
        lambda d, k, i, s: integrated_hermite_norm(d, k, i, s) * (1 + 1e-8 * (d == 5))
    )


def test_traced_metrics_cover_every_listed_layer_metric():
    assert [m["name"] for m in SPEC["per_layer"]] == list(spans.LAYER_METRICS)
