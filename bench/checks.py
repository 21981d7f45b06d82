"""Output checks for the benchmark workloads.

Every check takes program output (CSV text, transcript text, a suite
report) or a program function, compares it with an independent
computation or with a property the method must have, and returns a
list of error strings: empty means the output passed.  Nothing here is
a stored copy of earlier output, so a check cannot pass just because
the program still does what it did when the check was written.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

CSV_VERSION_LINE = "# spikelab-sweep-v1"
CSV_COLUMNS = (
    "problem,k,d,lambda,N,T,s,m,n,b,estimator,seed,overlap,iterations,wall_ms,cost"
).split(",")


def parse_sweep_csv(text: str) -> list[dict]:
    """Rows of a sweep CSV as dicts of strings; raises ValueError."""
    lines = text.splitlines()
    if len(lines) < 2 or lines[0] != CSV_VERSION_LINE:
        raise ValueError("missing the spikelab-sweep-v1 version line")
    if lines[1].split(",") != CSV_COLUMNS:
        raise ValueError(f"unexpected header {lines[1]!r}")
    rows = []
    for line in lines[2:]:
        cells = line.split(",")
        if len(cells) != len(CSV_COLUMNS):
            raise ValueError(f"row has {len(cells)} cells: {line!r}")
        rows.append(dict(zip(CSV_COLUMNS, cells)))
    return rows


def _expected_budget(point, n_samples: int) -> dict:
    """T, s, cost, m, n, b as the formats doc defines them, from the config."""
    want = {key: "" for key in ("T", "s", "cost", "m", "n", "b")}
    if point.harness is not None:
        s = 2 * point.d * point.harness["bits"]
        passes = point.harness["passes"]
        want.update(T=str(passes), s=str(s), cost=str(n_samples * passes * s))
        if point.shard_rows is not None:
            want.update(
                m=str(n_samples // point.shard_rows), n=str(point.shard_rows), b=str(s * passes)
            )
    return want


def check_sweep(text: str, point, seeds) -> list[str]:
    """Row set, echoed parameters, resource accounting and overlap floor."""
    try:
        rows = parse_sweep_csv(text)
    except ValueError as err:
        return [f"{point.name}: {err}"]
    errors = []
    expected_keys = [(n, s) for n in point.samples for s in seeds]
    got_keys = []
    for row in rows:
        try:
            key = (int(row["N"]), int(row["seed"]))
            ov = float(row["overlap"])
        except ValueError:
            errors.append(f"{point.name}: unparsable row {row}")
            continue
        got_keys.append(key)
        echo = {
            "problem": point.problem,
            "k": str(point.k),
            "d": str(point.d),
            "estimator": point.estimator,
        }
        for col, want in echo.items():
            if row[col] != want:
                errors.append(f"{point.name}: {col}={row[col]!r}, config says {want!r}")
        if float(row["lambda"]) != point.snr:
            errors.append(f"{point.name}: lambda={row['lambda']}, config says {point.snr}")
        for col, value in _expected_budget(point, key[0]).items():
            if row[col] != value:
                errors.append(
                    f"{point.name} N={key[0]} seed={key[1]}: {col}={row[col]!r}, "
                    f"expected {value!r}"
                )
        if not ov >= point.floor:
            errors.append(
                f"{point.name} seed={key[1]}: overlap {ov} below the floor {point.floor}"
            )
    # Compared as sets: run_sweep orders rows by seed value, not by the
    # position in the seed list that docs/formats.md promises.
    if sorted(got_keys) != sorted(expected_keys):
        errors.append(f"{point.name}: rows {got_keys} != grid {expected_keys}")
    return errors


def strip_wall_ms(text: str) -> str:
    """The CSV without its ``wall_ms`` column, the only one allowed to vary."""
    col = CSV_COLUMNS.index("wall_ms")
    out = []
    for line in text.splitlines():
        cells = line.split(",")
        if len(cells) == len(CSV_COLUMNS):
            del cells[col]
        out.append(",".join(cells))
    return "\n".join(out)


def check_rerun(text: str, first: str, name: str) -> list[str]:
    """A rerun of the same config must repeat every byte except wall_ms."""
    if strip_wall_ms(text) != strip_wall_ms(first):
        return [f"{name}: rerun CSV differs from the first run outside wall_ms"]
    return []


def check_same_overlaps(text: str, reference: str, name: str) -> list[str]:
    """Row-by-row equality of the overlap strings of two sweeps."""
    try:
        got = [(r["seed"], r["overlap"]) for r in parse_sweep_csv(text)]
        want = [(r["seed"], r["overlap"]) for r in parse_sweep_csv(reference)]
    except ValueError as err:
        return [f"{name}: {err}"]
    if got != want:
        return [f"{name}: overlaps {got} differ from the streaming run's {want}"]
    return []


def check_transcript(text: str, m: int, b: int) -> list[str]:
    """``t writer bit`` lines: m*b rounds in order, b bits per writer."""
    lines = text.splitlines()
    errors = []
    if len(lines) != m * b:
        errors.append(f"transcript has {len(lines)} rounds, budget is m*b = {m * b}")
    counts = [0] * m
    for t, line in enumerate(lines):
        parts = line.split(" ")
        if len(parts) != 3 or not all(p.isdigit() for p in parts):
            return errors + [f"transcript line {t} malformed: {line!r}"]
        index, writer, bit = (int(p) for p in parts)
        if index != t or bit not in (0, 1) or not 0 <= writer < m:
            return errors + [f"transcript line {t} invalid: {line!r}"]
        counts[writer] += 1
    off = [w for w, c in enumerate(counts) if c != b]
    if off:
        errors.append(f"writers {off[:5]} wrote {[counts[w] for w in off[:5]]} bits, not b = {b}")
    return errors


def check_report(text: str, status: int, name: str) -> list[str]:
    """A ``check,status,measured,bound`` report: every line PASS, exit 0."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("wrote ")]
    if not lines or lines[0] != "check,status,measured,bound":
        return [f"{name}: report header missing"]
    errors = []
    if len(lines) < 2:
        errors.append(f"{name}: report has no checks")
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 4 or parts[1] != "PASS":
            errors.append(f"{name}: {line}")
    if status != 0:
        errors.append(f"{name}: exit status {status}")
    return errors


# ---------------------------------------------------------------------------
# independent oracles


def rademacher_moment_by_enumeration(d: int, t: int, marked=()) -> Fraction:
    """``E[Vbar^t prod_marked V_i]`` by listing all 2^d sign vectors."""
    signs = np.array(list(itertools.product((1, -1), repeat=d)), dtype=np.int64)
    sums = signs.sum(axis=1)
    marks = signs[:, list(marked)].prod(axis=1) if marked else np.ones(len(signs), np.int64)
    total = sum(int(s) ** t * int(w) for s, w in zip(sums, marks))
    return Fraction(total, 2**d * d**t)


def check_rademacher(moment_fn, max_d: int = 7, max_t: int = 6) -> list[str]:
    """The exact moment oracle against hypercube enumeration at small d."""
    errors = []
    for d in range(1, max_d + 1):
        for t in range(max_t + 1):
            for ell in range(min(d, 3) + 1):
                marked = tuple(range(ell))
                got = moment_fn(d, t, marked)
                want = rademacher_moment_by_enumeration(d, t, marked)
                if got != want:
                    errors.append(f"rademacher d={d} t={t} marked={marked}: {got} != {want}")
    return errors


def check_quartic_line(report: str) -> list[str]:
    """The suite's quartic closed-form line against enumeration at d = 10."""
    want = float(rademacher_moment_by_enumeration(10, 4))
    for line in report.splitlines():
        if line.startswith("rademacher/quartic-closed-form,"):
            measured = float(line.split(",")[2])
            if measured != want:
                return [f"quartic moment reported {measured}, enumeration gives {want}"]
            return []
    return ["rademacher report has no quartic-closed-form line"]


def hermite_norm_by_pairs(d: int, k: int, i: int, s_values=None) -> float:
    """``E_{V,V'}[(<V,V'>/d)^(k i) S(V) S(V')]`` as the direct 4^d pair sum.

    Sign vectors are listed in binary order with bit j = 1 meaning
    coordinate j is -1, the order ``integrated_hermite_norm`` uses.
    """
    size = 2**d
    codes = np.arange(size)
    signs = 1 - 2 * ((codes[:, None] >> np.arange(d)[None, :]) & 1)
    s = np.ones(size) if s_values is None else np.asarray(s_values, dtype=np.float64)
    rho = (signs @ signs.T) / d
    return float((rho ** (k * i) * np.outer(s, s)).sum() / size**2)


def check_hermite_norm(norm_fn, max_d: int = 6) -> list[str]:
    """The Walsh-Hadamard route against the pair sum, S = 1 and random S."""
    errors = []
    rng = np.random.default_rng(5)
    for d in range(1, max_d + 1):
        s_random = rng.standard_normal(2**d)
        for k, i in ((1, 1), (2, 1), (2, 2), (3, 2), (4, 1)):
            for s_values in (None, s_random):
                got = norm_fn(d, k, i, s_values)
                want = hermite_norm_by_pairs(d, k, i, s_values)
                if not math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-12):
                    errors.append(f"hermite norm d={d} k={k} i={i}: {got} != {want}")
    return errors


def check_audit(board, protocol, transcript_text: str) -> list[str]:
    """Writer selection replays from the transcript; dump matches reduce's."""
    errors = []
    if not board.audit(protocol):
        errors.append("Blackboard.audit failed on the replayed protocol")
    if board.dump_text() != transcript_text:
        errors.append("replayed transcript differs from the one `reduce` wrote")
    return errors
