"""Bit-identity gate: the committed digests of fixed CLI outputs.

``tests/data/fingerprints.txt`` holds SHA-256 digests, made by
``scripts/fingerprint.py --write``, of sweep CSVs without ``wall_ms``
(every estimator in plain mode, the bounded-llr ngca measure, whose
sampler is the rejection loop, the k=3 cca net search, a 1,600-point
ngca net in two ``_NET_BLOCK`` chunks, a d=4 ngca net sized by the
doubling loop, a 96-point d=3 k=2 cca net in 14 model slices,
``[harness]`` tpca k=2 and k=4 partial trace, ``[distributed]`` with
shard_rows 8), one ``reduce --out`` transcript and the five ``verify``
reports, under a stamp naming Python, numpy, the BLAS build and its
OpenBLAS core.  A change that moves any of these bytes on purpose
rewrites the file with ``--write`` and says which digests moved.
"""

import importlib.util
import itertools
import pathlib

from spikelab import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _script():
    spec = importlib.util.spec_from_file_location(
        "fingerprint", ROOT / "scripts" / "fingerprint.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_the_golden_digests(monkeypatch):
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
