"""SHA-256 fingerprints of the CLI outputs that must stay bit-stable.

Usage, from the repository root:

    python3 scripts/fingerprint.py [--src DIR] [ITEM ...]
    python3 scripts/fingerprint.py --write [ITEM ...]

Each ITEM is either an INI config or a ``verify`` suite name, one of the
``cli.SUITES`` of the imported ``spikelab``.  One line is printed per
output, ``<verb> <item> <exit status> <sha256>``:

* ``sweep``: the sweep CSV of the config without its ``wall_ms``
  column, the one column that may differ between runs; the column is
  removed by ``bench.checks.strip_wall_ms``, the rule the benchmark's
  rerun check uses;
* ``sample``: the binary container that ``sample --out`` writes for
  the config (its first sample count and first seed);
* ``reduce``: the ``reduce --out`` transcript, for configs that have
  both ``[harness]`` and ``[distributed]`` sections;
* ``verify``: the report of ``spikelab verify <suite>``.

Without ITEMs it prints the lines of every item the golden file lists,
so ``python3 scripts/fingerprint.py | diff - <(grep -v '^#'
tests/data/fingerprints.txt)`` shows every moved digest.  Each config
runs with the seed list written in it.  ``--src`` imports
``spikelab`` from another source tree (default: ``src/`` next to this
script), so two checkouts can be compared by diffing the output of the
same command run against each.

``--write`` stores the lines in ``tests/data/fingerprints.txt``, the
golden file that ``tests/test_fingerprints.py`` recomputes, under a
stamp of the Python version, the numpy version, the BLAS name and the
OpenBLAS core it runs (another BLAS build or core may round matmuls
differently).  Without ITEMs it rewrites the digests of the items the
file already lists, the items printed without ``--write``; with ITEMs
it writes the lines of those items and keeps every other item's lines.
A change that moves bits on purpose runs it and says which digests
moved.

A ``# host-specific <verb> <item>: <reason>`` line in the golden file
names a digest that only the stamped BLAS core reproduces;
``tests/test_fingerprints.py`` recomputes every other line under a
second core (``OPENBLAS_CORETYPE``), and ``--write`` keeps these lines.
"""

import argparse
import configparser
import contextlib
import ctypes
import hashlib
import io
import pathlib
import platform
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))
from bench.checks import strip_wall_ms  # noqa: E402

GOLDEN = ROOT / "tests" / "data" / "fingerprints.txt"


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(cli, argv) -> tuple[str, int]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(argv)
    return buf.getvalue(), status


def _run_to_file(cli, argv, out: pathlib.Path) -> tuple[bytes, int]:
    """The bytes written to ``--out`` (none if nothing was) and the exit status."""
    out.unlink(missing_ok=True)
    _, status = _run(cli, [*argv, "--out", str(out)])
    return (out.read_bytes() if out.exists() else b""), status


def fingerprints(cli, items, workdir: pathlib.Path):
    for item in items:
        if item in cli.SUITES:
            report, status = _run(cli, ["verify", item])
            yield "verify", item, status, _digest(report.encode())
            continue
        out = workdir / "out"
        csv, status = _run_to_file(cli, ["sweep", item], out)
        yield "sweep", item, status, _digest(strip_wall_ms(csv.decode()).encode())
        container, status = _run_to_file(cli, ["sample", item], out)
        yield "sample", item, status, _digest(container)
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        parser.read(item)
        if parser.has_section("harness") and parser.has_section("distributed"):
            transcript, status = _run_to_file(cli, ["reduce", item], out)
            yield "reduce", item, status, _digest(transcript)


def fingerprint_lines(cli, items) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        return [
            f"{verb} {item} {status} {digest}"
            for verb, item, status, digest in fingerprints(cli, items, pathlib.Path(tmp))
        ]


def blas_core() -> str:
    """The kernel set numpy's bundled OpenBLAS picked for this CPU.

    A DYNAMIC_ARCH build picks its kernels per CPU (``OPENBLAS_CORETYPE``
    overrides the pick), and kernels may round a product differently.
    ``unknown`` when no bundled library exports the core-name symbol.
    """
    import numpy as np

    libs = pathlib.Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def stamp() -> list[str]:
    """The environment the digests hold for, as ``#`` lines."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    return [
        f"# python {platform.python_version()}",
        f"# numpy {np.__version__}",
        f"# blas {blas}",
        f"# blas-core {blas_core()}",
    ]


HOST_SPECIFIC = "# host-specific "


def read_golden(path=GOLDEN) -> tuple[list[str], list[str]]:
    """``(stamp lines, digest lines)`` of a golden file."""
    lines = path.read_text().splitlines()
    return [ln for ln in lines if ln.startswith("#") and not ln.startswith(HOST_SPECIFIC)], [
        ln for ln in lines if not ln.startswith("#")
    ]


def host_specific(path=GOLDEN) -> dict:
    """``{"<verb> <item>": reason}`` of the host-specific lines of a golden file."""
    notes = {}
    for line in path.read_text().splitlines():
        if line.startswith(HOST_SPECIFIC):
            key, _, reason = line.removeprefix(HOST_SPECIFIC).partition(": ")
            notes[key] = reason
    return notes


def golden_items(lines) -> list[str]:
    """The items of digest lines, once each, in file order."""
    return list(dict.fromkeys(line.split()[1] for line in lines))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "items", nargs="*", help="INI configs and suite names (default: the golden file's)"
    )
    parser.add_argument(
        "--src",
        default=str(ROOT / "src"),
        help="source tree to import spikelab from",
    )
    parser.add_argument(
        "--write",
        action="store_true",
        help=f"store the stamped lines in {GOLDEN.relative_to(ROOT)}",
    )
    args = parser.parse_args(argv)
    items = args.items or golden_items(read_golden()[1])
    sys.path.insert(0, str(pathlib.Path(args.src).resolve()))
    from spikelab import cli

    lines = fingerprint_lines(cli, items)
    print("\n".join(lines))
    if args.write:
        notes = [f"{HOST_SPECIFIC}{key}: {why}" for key, why in host_specific().items()]
        kept = [line for line in read_golden()[1] if line.split()[1] not in items]
        GOLDEN.write_text("\n".join(stamp() + notes + kept + lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
