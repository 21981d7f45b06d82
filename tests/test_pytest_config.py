"""The test configuration: a failing property test is reported as a
failure, not as a crash of the run."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
"""


def test_a_failing_hypothesis_test_is_reported_not_a_crash(tmp_path):
    # On a failure hypothesis's pytest plugin imports libcst, which
    # imports mypy_extensions and so warns "mypy_extensions.TypedDict is
    # deprecated".  The config's error entry for DeprecationWarning made
    # that an INTERNALERROR, which printed no summary and ran no later test.
    (tmp_path / "pyproject.toml").write_text((ROOT / "pyproject.toml").read_text())
    (tmp_path / "test_fails.py").write_text(FAILING)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed" in output
    assert result.returncode == 1
