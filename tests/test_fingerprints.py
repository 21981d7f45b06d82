"""Bit-identity gate: the committed digests of fixed CLI outputs.

``tests/data/fingerprints.txt`` holds SHA-256 digests, made by
``scripts/fingerprint.py --write``, of sweep CSVs without ``wall_ms``
(every estimator in plain mode, the bounded-llr ngca measure, whose
sampler is the rejection loop, the k=3 cca net search, a 1,600-point
ngca net in two ``_NET_BLOCK`` chunks, a d=4 ngca net sized by the
doubling loop, a 96-point d=3 k=2 cca net (259 of its 9,216
candidates scored in full, seven a model slice), the cca net search of
the benchmark's ``verify-oracles`` workload on its own 32-point net,
``[harness]`` tpca k=2 and k=4 partial trace, ``[distributed]`` with
shard_rows 8 and with 300 two-row machines, whose writer log is uint16),
their two ``reduce --out`` transcripts and the five ``verify``
reports, under a stamp naming Python, numpy, the BLAS build and its
OpenBLAS core.  A change that moves any of these bytes on purpose
rewrites the file with ``--write`` and says which digests moved.

A second test recomputes the lines under another OpenBLAS core
(``OPENBLAS_CORETYPE``, one subprocess); only the lines the golden file
names as host-specific may differ there.
"""

import importlib.util
import itertools
import os
import pathlib
import subprocess
import sys

import pytest

from spikelab import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _script():
    spec = importlib.util.spec_from_file_location(
        "fingerprint", ROOT / "scripts" / "fingerprint.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Loads scripts/fingerprint.py (argv[1]), names the OpenBLAS core it
# runs, then prints the digest lines of the items in argv[2:].
CHILD = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("fingerprint", sys.argv[1])
fingerprint = importlib.util.module_from_spec(spec)
spec.loader.exec_module(fingerprint)
print(fingerprint.blas_core())
sys.exit(fingerprint.main(sys.argv[2:]))
"""


@pytest.fixture(scope="module")
def other_core():
    """``(core, portable lines, child)``: a child process recomputing the
    golden lines not named host-specific under another OpenBLAS core.

    Started by the first test that asks, so it runs beside that test.
    """
    fingerprint = _script()
    recorded_stamp, recorded = fingerprint.read_golden()
    host = fingerprint.host_specific()
    keys = [" ".join(line.split()[:2]) for line in recorded]
    assert set(host) <= set(keys), sorted(set(host) - set(keys))
    portable = [line for line, key in zip(recorded, keys) if key not in host]
    core = "Sandybridge" if "# blas-core Nehalem" in recorded_stamp else "Nehalem"
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD, str(ROOT / "scripts" / "fingerprint.py"),
         *fingerprint.golden_items(portable)],
        cwd=ROOT, env={**os.environ, "OPENBLAS_CORETYPE": core},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )  # fmt: skip
    yield core, portable, child
    child.kill()
    child.communicate()


def test_outputs_match_the_golden_digests(monkeypatch, other_core):
    # ``other_core`` only starts its child here, to overlap the two runs.
    fingerprint = _script()
    recorded_stamp, recorded = fingerprint.read_golden()
    # Another Python, numpy or BLAS build may round differently: fail
    # and name the difference rather than compare digests or skip.
    running_stamp = fingerprint.stamp()
    assert recorded_stamp == running_stamp, [
        f"recorded {old!r}, running {new!r}"
        for old, new in itertools.zip_longest(recorded_stamp, running_stamp)
        if old != new
    ]
    monkeypatch.chdir(ROOT)
    got = fingerprint.fingerprint_lines(cli, fingerprint.golden_items(recorded))
    moved = [new for old, new in zip(recorded, got) if old != new]
    assert got == recorded, moved


def test_another_blas_core_gives_every_portable_digest(other_core):
    core, portable, child = other_core
    out, err = child.communicate(timeout=300)
    assert child.returncode == 0, err
    running_core, *got = out.splitlines()
    assert running_core == core
    moved = [new for old, new in zip(portable, got) if old != new]
    assert got == portable, moved


def test_script_without_items_prints_every_golden_items_lines(monkeypatch, capsys):
    # The lines are stubbed, so no item runs; the script asks for the
    # golden file's items in file order and prints what it gets.
    fingerprint = _script()
    items = fingerprint.golden_items(fingerprint.read_golden()[1])
    asked = []

    def lines(cli, wanted):
        asked.append(list(wanted))
        return [f"line {item}" for item in wanted]

    monkeypatch.setattr(fingerprint, "fingerprint_lines", lines)
    monkeypatch.setattr(sys, "path", list(sys.path))
    golden = fingerprint.GOLDEN.read_text()
    assert fingerprint.main([]) == 0
    assert asked == [items] and len(items) > 1
    assert capsys.readouterr().out == "".join(f"line {item}\n" for item in items)
    assert fingerprint.GOLDEN.read_text() == golden
