"""Config parsing, sweep determinism, CLI verbs."""

import contextlib
import io
import os
import re
import subprocess
import sys
import time
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spikelab import cli
from spikelab.batchio import load_batch
from spikelab.cli import CSV_COLUMNS, main, run_sweep, sweep_csv
from spikelab.config import (
    _SECTIONS,
    ExperimentConfig,
    HarnessSettings,
    iteration_seed,
    noise_seed,
    parse_config,
)
from spikelab.estimators import ESTIMATOR_SCOPES, ESTIMATORS
from spikelab.harness import TEMPLATES, Blackboard, QuantizerSpec, ResourceProfile
from spikelab.measures import KINDS, NonGaussMeasure
from spikelab.verify import SUITES

BASE = """
[experiment]
problem = tpca
k = 2
d = 5
snr = 1.0
estimator = tensor-power
samples = 24, 96
seeds = 0, 1, 2
"""

HARNESS = """
[experiment]
problem = tpca
k = 2
d = 4
snr = 1.0
estimator = tensor-power
samples = 32
seeds = 4

[harness]
bits = 16
radius = 8
passes = 6

[distributed]
shard_rows = 8
"""


def write(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def mask_wall(text: str) -> str:
    wall = CSV_COLUMNS.index("wall_ms")
    out = []
    for line in text.splitlines():
        if line.startswith("#") or line.startswith("problem,"):
            out.append(line)
            continue
        cells = line.split(",")
        cells[wall] = "X"
        out.append(",".join(cells))
    return "\n".join(out)


# -- config parsing ---------------------------------------------------------


def test_parse_config_round_trip(tmp_path):
    cfg = parse_config(write(tmp_path, BASE))
    assert cfg.problem == "tpca"
    assert cfg.samples_grid == (24, 96)
    assert cfg.seeds == (0, 1, 2)
    assert cfg.harness is None and cfg.shard_rows is None


def test_parse_config_harness_sections(tmp_path):
    cfg = parse_config(write(tmp_path, HARNESS))
    assert cfg.harness.bits == 16
    assert cfg.harness.passes == 6
    assert cfg.shard_rows == 8


def test_flag_overrides(tmp_path, capsys):
    # No flag overrides the config: the seed list comes from its seeds
    # key alone, and parse_config takes the path and nothing else.
    path = write(tmp_path, HARNESS)
    out = tmp_path / "out"
    for verb in ("sweep", "sample", "reduce"):
        assert main([verb, str(path), "--seed", "5", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: unrecognized arguments: --seed 5\n"
        assert captured.out == "" and not out.exists()
    with pytest.raises(TypeError, match="seed_override"):
        parse_config(path, seed_override=[9])
    assert parse_config(path).seeds == (4,)


@pytest.mark.parametrize(
    "mutation",
    [
        ("seeds = 0, 1, 2", "seeds ="),
        ("seeds = 0, 1, 2", "seeds = 0, 0"),
        ("samples = 24, 96", "samples ="),
        ("estimator = tensor-power", "estimator = cca-matricization"),
        ("problem = tpca", "problem = bogus"),
        ("k = 2", "k = 0"),
        # seed 1000's instance stream would be seed 0's noise stream
        ("seeds = 0, 1, 2", "seeds = 0, 1000"),
        # net options that the tensor power method never reads
        ("seeds = 0, 1, 2", "seeds = 0, 1, 2\n[estimator]\ndelta = 0.3"),
        ("seeds = 0, 1, 2", "seeds = 0, 1, 2\n[estimator]\nprobes = 5"),
        # PowerMethodConfig's own check, run at parse time
        ("seeds = 0, 1, 2", "seeds = 0, 1, 2\n[estimator]\nmax_iters = 0"),
        # a non-finite snr used to surface mid-run, if at all
        ("snr = 1.0", "snr = nan"),
        ("snr = 1.0", "snr = inf"),
        ("snr = 1.0", "snr = -0.5"),
        # the codec's checks: the step must be a finite normal float
        ("seeds = 0, 1, 2", "seeds = 0, 1, 2\n[harness]\nradius = inf"),
        ("seeds = 0, 1, 2", "seeds = 0, 1, 2\n[harness]\nradius = nan"),
        ("seeds = 0, 1, 2", "seeds = 0, 1, 2\n[harness]\nradius = 1e308"),
        ("seeds = 0, 1, 2", "seeds = 0, 1, 2\n[harness]\nbits = 52\nradius = 1e-320"),
        ("seeds = 0, 1, 2", "seeds = 0, 1, 2\n[harness]\nradius = 0"),
        # an empty list entry used to be dropped
        ("samples = 24, 96", "samples = 24,,"),
        ("seeds = 0, 1, 2", "seeds = 0, ,1"),
        # measure is read for ngca only
        ("seeds = 0, 1, 2", "seeds = 0, 1, 2\nmeasure = bounded-llr"),
        ("seeds = 0, 1, 2", "seeds = 0, 1, 2\nmeasure = mog"),
        # a known section in place of [experiment], and [distributed]
        # without [harness]
        ("[experiment]", "[estimator]", r"needs an \[experiment\] section"),
        (
            "seeds = 0, 1, 2",
            "seeds = 0, 1, 2\n[distributed]\nshard_rows = 8",
            r"requires a \[harness\] section",
        ),
    ],
)
def test_parse_config_rejections(tmp_path, mutation):
    old, new, *match = mutation
    with pytest.raises(ValueError, match=match[0] if match else None):
        parse_config(write(tmp_path, BASE.replace(old, new)))


def test_measure_is_an_ngca_key(tmp_path):
    ngca = BASE.replace("problem = tpca", "problem = ngca").replace(
        "estimator = tensor-power", "estimator = ngca-spectral"
    ).replace("k = 2", "k = 4")
    assert parse_config(write(tmp_path, ngca)).measure_kind == "mog"
    assert parse_config(write(tmp_path, BASE)).measure_kind is None
    for kind in KINDS:
        text = ngca + f"measure = {kind}\n"
        assert parse_config(write(tmp_path, text)).measure_kind == kind
    with pytest.raises(ValueError, match="unknown measure kind"):
        parse_config(write(tmp_path, ngca + "measure = tilt\n"))
    with pytest.raises(ValueError, match="ngca only"):
        ExperimentConfig("cca", 2, 3, 0.5, "cca-matricization", (8,), (0,), "bounded-llr")


GOOD = dict(
    problem="tpca", k=2, d=3, snr=1.0, estimator="tensor-power", samples_grid=(64,), seeds=(0,)
)


@pytest.mark.parametrize(
    "make, kwargs",
    [
        (ExperimentConfig, {**GOOD, "samples_grid": (64.9,)}),
        (ExperimentConfig, {**GOOD, "samples_grid": ("64",)}),
        (ExperimentConfig, {**GOOD, "seeds": (0.5, 1.5)}),
        (ExperimentConfig, {**GOOD, "seeds": (True,)}),
        (ExperimentConfig, {**GOOD, "k": 2.5}),
        (ExperimentConfig, {**GOOD, "d": True}),
        (ExperimentConfig, {**GOOD, "estimator_options": {"max_iters": 2.5}}),
        (HarnessSettings, {"passes": 2.5}),
        (HarnessSettings, {"bits": 8.0}),
        (ExperimentConfig, {**GOOD, "shard_rows": 2.5}),
        (QuantizerSpec, {"bits": True}),
        (ResourceProfile, {"samples": 2.5, "passes": 1, "state_bits": 1}),
        (ResourceProfile, {"samples": 1, "passes": np.True_, "state_bits": 1}),
    ],
)
def test_counts_must_be_integers_and_are_never_truncated(make, kwargs):
    # Each of these used to construct, most of them truncated to an int.
    with pytest.raises(ValueError, match="must be an integer"):
        make(**kwargs)


@pytest.mark.parametrize(
    "key, match", [("samples_grid", "samples grid"), ("seeds", "seed list")]
)
def test_empty_grids_are_rejected_on_direct_construction(key, match):
    # An INI list holds at least one entry, so only a direct call reaches these.
    with pytest.raises(ValueError, match=f"^{match} must not be empty$"):
        ExperimentConfig(**{**GOOD, key: ()})


def test_numpy_integer_counts_are_accepted():
    counts = {"k": np.int64(2), "samples_grid": (np.int32(64),), "seeds": (np.uint8(0),)}
    cfg = ExperimentConfig(**{**GOOD, **counts})
    assert cfg.samples_grid == (64,) and cfg.seeds == (0,)
    assert type(cfg.samples_grid[0]) is int and type(cfg.seeds[0]) is int
    assert HarnessSettings(passes=np.int16(3)).passes == 3


@given(
    base=st.integers(-3, 10**9),
    offsets=st.lists(st.integers(0, 1100), min_size=1, max_size=12),
)
@example(base=0, offsets=[0, 999])
@example(base=0, offsets=[0, 1000])
@settings(max_examples=60, deadline=None)
def test_accepted_seed_lists_keep_every_stream_disjoint(base, offsets):
    seeds = tuple(base + offset for offset in offsets)
    try:
        cfg = ExperimentConfig("tpca", 2, 3, 1.0, "tensor-power", (8,), seeds)
    except ValueError:
        # Only duplicates, negative seeds and spans of 1000 or more are refused.
        assert len(set(seeds)) < len(seeds) or min(seeds) < 0 or max(seeds) - min(seeds) >= 1000
        return
    assert max(seeds) - min(seeds) < 1000
    streams = [
        set(cfg.seeds),
        {noise_seed(s) for s in cfg.seeds},
        {iteration_seed(s) for s in cfg.seeds},
    ]
    assert len(set().union(*streams)) == 3 * len(seeds)


def test_formats_doc_names_every_config_section_and_key():
    # The "Experiment config (INI)" section of docs/formats.md documents
    # the grammar of _SECTIONS: every section and key, and no other
    # section header.
    doc = (Path(__file__).parents[1] / "docs" / "formats.md").read_text()
    text = doc.split("\n## Experiment config (INI)\n", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"`\[([a-z_]+)\]`", text)) == set(_SECTIONS)
    for name, keys in _SECTIONS.items():
        for key in keys:
            assert f"`{key}`" in text, f"[{name}] {key} is not documented"
    # Its options table lists exactly each options class's OPTIONS, so a
    # retired option left in the table fails here.
    rows = dict(re.findall(r"^\|[^|\n]*\(`(\w+)`\) *\|([^|\n]*)\|$", text, re.M))
    classes = {options.__name__: options for _, options in ESTIMATOR_SCOPES.values()}
    assert set(rows) == set(classes)
    for name, cell in rows.items():
        assert sorted(re.findall(r"`(\w+)`", cell)) == sorted(classes[name].OPTIONS), name


def test_parse_config_unknown_material(tmp_path):
    with pytest.raises(ValueError, match="sections"):
        parse_config(write(tmp_path, BASE + "\n[mystery]\nx = 1\n"))
    with pytest.raises(ValueError, match="keys"):
        parse_config(write(tmp_path, BASE + "colour = red\n"))
    with pytest.raises(ValueError, match="estimator option"):
        parse_config(write(tmp_path, BASE + "\n[estimator]\nwarp = 9\n"))


SECTION_TEXTS = {
    "experiment": BASE,
    "estimator": BASE + "\n[estimator]\n",
    "harness": HARNESS,
    "distributed": HARNESS,
}


@pytest.mark.parametrize("section", list(SECTION_TEXTS))
def test_every_section_rejects_unknown_keys(tmp_path, section):
    # One reader types and checks every section against one table.
    text = SECTION_TEXTS[section].replace(f"[{section}]\n", f"[{section}]\nwarp = 9\n")
    with pytest.raises(ValueError, match=rf"unknown {section} option 'warp'; \[{section}\] keys"):
        parse_config(write(tmp_path, text))


def test_empty_harness_section_takes_the_defaults(tmp_path):
    cfg = parse_config(write(tmp_path, HARNESS.split("[harness]")[0] + "[harness]\n"))
    assert cfg.harness == HarnessSettings()
    assert (cfg.harness.bits, cfg.harness.radius, cfg.harness.passes) == (32, 64.0, 10)
    # The settings hand out the codec they checked.
    assert cfg.harness.quantizer == QuantizerSpec(bits=32, radius=64.0)


def test_required_keys_and_typed_values_are_named(tmp_path):
    with pytest.raises(ValueError, match=r"\[experiment\] is missing 'k'"):
        parse_config(write(tmp_path, BASE.replace("k = 2\n", "")))
    with pytest.raises(ValueError, match=r"\[distributed\] needs shard_rows"):
        parse_config(write(tmp_path, HARNESS.replace("shard_rows = 8", "")))
    with pytest.raises(ValueError, match=r"\[experiment\] k: invalid literal"):
        parse_config(write(tmp_path, BASE.replace("k = 2", "k = 2.5")))
    with pytest.raises(ValueError, match=r"\[harness\] passes: invalid literal"):
        parse_config(write(tmp_path, HARNESS.replace("passes = 6", "passes = 2.5")))


def test_harness_needs_template_estimator(tmp_path):
    text = HARNESS.replace("estimator = tensor-power", "estimator = matricization")
    with pytest.raises(ValueError, match="template"):
        parse_config(write(tmp_path, text))


@pytest.mark.parametrize("options", ["max_iters = 2", "tol = 1e-3", "max_iters = 6\ntol = 0.5"])
@pytest.mark.parametrize("distributed", [True, False])
def test_harness_rejects_estimator_options(tmp_path, options, distributed):
    # The streaming run takes its pass count from [harness] passes.
    text = HARNESS if distributed else HARNESS.split("[distributed]")[0]
    text = text.replace("[harness]", f"[estimator]\n{options}\n\n[harness]")
    with pytest.raises(ValueError, match="harness mode reads no estimator options"):
        parse_config(write(tmp_path, text))
    # An empty [estimator] section passes no option, so it still parses.
    empty = HARNESS.replace("[harness]", "[estimator]\n\n[harness]")
    assert parse_config(write(tmp_path, empty)).estimator_options == {}


def test_distributed_needs_harness_and_divisibility(tmp_path):
    headless = HARNESS.replace("[harness]", "[ignored]").replace(
        "bits = 16", "x = 1"
    )
    with pytest.raises(ValueError):
        parse_config(write(tmp_path, headless))
    ragged = HARNESS.replace("shard_rows = 8", "shard_rows = 7")
    with pytest.raises(ValueError, match="divide"):
        parse_config(write(tmp_path, ragged))


def test_brute_force_requires_net_options(tmp_path):
    text = BASE.replace("problem = tpca", "problem = ngca").replace(
        "estimator = tensor-power", "estimator = brute-force-ngca"
    ).replace("k = 2", "k = 4").replace("d = 5", "d = 3")
    with pytest.raises(ValueError, match="delta"):
        parse_config(write(tmp_path, text))
    parse_config(write(tmp_path, text + "\n[estimator]\ndelta = 0.3\ntrunc = 6\n"))
    with pytest.raises(ValueError, match="max_iters"):
        parse_config(
            write(tmp_path, text + "\n[estimator]\ndelta = 0.3\ntrunc = 6\nmax_iters = 5\n")
        )


# The coverage probes and the net size cap are constants of sphere_net,
# not options, so a config that sets probes or max_net is rejected
# whatever its value.
@pytest.mark.parametrize("key", ["probes", "max_net"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_brute_force_net_counts_rejected_at_parse(tmp_path, key, value):
    text = BASE.replace("problem = tpca", "problem = ngca").replace(
        "estimator = tensor-power", "estimator = brute-force-ngca"
    ).replace("k = 2", "k = 4").replace("d = 5", "d = 3")
    options = "\n[estimator]\ndelta = 0.3\ntrunc = 6\n"
    parse_config(write(tmp_path, text + options))
    with pytest.raises(ValueError, match=f"unknown estimator option '{key}'"):
        parse_config(write(tmp_path, text + options + f"{key} = {value}\n"))


# As at parse: a probes or max_net option is rejected whatever its value.
@pytest.mark.parametrize("key", ["probes", "max_net"])
@pytest.mark.parametrize("value", [0, -1, 2.5, True, "3"])
def test_brute_force_net_counts_rejected_on_direct_construction(key, value):
    def build(options):
        return ExperimentConfig(
            problem="ngca", k=4, d=3, snr=1.0, estimator="brute-force-ngca",
            samples_grid=(8,), seeds=(0,),
            estimator_options={"delta": 0.3, "trunc": 6.0, **options},
        )

    build({})
    with pytest.raises(ValueError, match=rf"does not read options \['{key}'\]"):
        build({key: value})


# One valid INI value per option that some options class declares.
OPTION_VALUES = {
    "max_iters": "7",
    "tol": "1e-3",
    "delta": "0.3",
    "trunc": "6",
}


def test_catalogue_tables_name_the_same_estimators():
    assert list(ESTIMATORS) == list(ESTIMATOR_SCOPES)
    assert set(TEMPLATES) <= set(ESTIMATORS)
    assert set(OPTION_VALUES) == {
        key for _, options in ESTIMATOR_SCOPES.values() for key in options.OPTIONS
    }


@pytest.mark.parametrize("problem", ["tpca", "atpca", "ngca", "cca"])
@pytest.mark.parametrize("estimator", list(ESTIMATOR_SCOPES))
def test_catalogue_decides_which_configs_parse(tmp_path, estimator, problem):
    problems, options = ESTIMATOR_SCOPES[estimator]
    required = {
        f.name
        for f in fields(options)
        if f.default is MISSING and f.default_factory is MISSING
    }
    head = BASE.replace("problem = tpca", f"problem = {problem}").replace(
        "estimator = tensor-power", f"estimator = {estimator}"
    )

    def parse(keys, extra=""):
        lines = "".join(f"{key} = {OPTION_VALUES.get(key, '1')}\n" for key in sorted(keys))
        return parse_config(write(tmp_path, f"{head}\n[estimator]\n{lines}{extra}"))

    if problem not in problems:
        with pytest.raises(ValueError, match="does not apply to problem"):
            parse(required)
        return
    for key in OPTION_VALUES:
        if key in options.OPTIONS:
            value = parse(required | {key}).estimator_options[key]
            assert type(value) is options.OPTIONS[key]
        else:
            with pytest.raises(ValueError, match=rf"does not read options \['{key}'\]"):
                parse(required | {key})
    with pytest.raises(ValueError, match="unknown estimator option 'warp'"):
        parse(required | {"warp"})
    for key in required:
        with pytest.raises(ValueError, match=rf"needs estimator options \['{key}'\]"):
            parse(required - {key})
    harness = "\n[harness]\nbits = 8\n"
    if estimator in TEMPLATES:
        assert parse(required, harness).harness.bits == 8
    else:
        with pytest.raises(ValueError, match="has no streaming template"):
            parse(required, harness)


# -- sweeps -----------------------------------------------------------------


def test_sweep_shape_and_order(tmp_path):
    cfg = parse_config(write(tmp_path, BASE))
    rows = run_sweep(cfg)
    assert len(rows) == 6
    assert [(r["N"], r["seed"]) for r in rows] == [
        (24, 0), (24, 1), (24, 2), (96, 0), (96, 1), (96, 2)
    ]
    text = sweep_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "# spikelab-sweep-v1"
    assert lines[1] == ",".join(CSV_COLUMNS)
    assert len(lines) == 8


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_rows_follow_seed_list_position(tmp_path, threads):
    text = BASE.replace("seeds = 0, 1, 2", "seeds = 999, 3, 0").replace(
        "samples = 24, 96", "samples = 96, 24"
    )
    rows = run_sweep(parse_config(write(tmp_path, text)), threads=threads)
    assert [(r["N"], r["seed"]) for r in rows] == [
        (96, 999), (96, 3), (96, 0), (24, 999), (24, 3), (24, 0)
    ]


def test_sweep_deterministic_modulo_wall_clock(tmp_path):
    cfg = parse_config(write(tmp_path, BASE))
    first = sweep_csv(run_sweep(cfg))
    second = sweep_csv(run_sweep(cfg))
    assert mask_wall(first) == mask_wall(second)


def test_sweep_threads_match_serial(tmp_path):
    cfg = parse_config(write(tmp_path, BASE))
    serial = sweep_csv(run_sweep(cfg, threads=1))
    pooled = sweep_csv(run_sweep(cfg, threads=3))
    assert mask_wall(serial) == mask_wall(pooled)


def test_sweep_harness_row_accounting(tmp_path):
    cfg = parse_config(write(tmp_path, HARNESS))
    (row,) = run_sweep(cfg)
    assert row["T"] == 6
    assert row["s"] == 2 * 4 * 16
    assert row["m"] == 4 and row["n"] == 8
    assert row["b"] == row["s"] * row["T"]
    assert row["cost"] == 32 * 6 * row["s"]
    assert 0.0 <= row["overlap"] <= 1.0


# -- verbs ------------------------------------------------------------------


def test_main_verify_exit_code():
    assert main(["verify", "hermite"]) == 0


@pytest.mark.parametrize("suite", SUITES)
def test_every_suite_passes(suite, capsys):
    status = main(["verify", suite])
    lines = capsys.readouterr().out.splitlines()[1:]
    assert lines
    assert status == 0, [line for line in lines if ",PASS," not in line]


def test_check_lines_are_four_column(capsys):
    assert main(["verify", "rademacher"]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header == "check,status,measured,bound"
    assert lines
    for line in lines:
        cells = line.split(",")
        assert len(cells) == 4
        assert cells[1] in ("PASS", "FAIL")


def test_main_sweep_writes_file(tmp_path, capsys):
    path = write(tmp_path, BASE)
    out = tmp_path / "rows.csv"
    assert main(["sweep", str(path), "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("# spikelab-sweep-v1\n")
    capsys.readouterr()


def test_main_calls_share_no_parsed_state(tmp_path, capsys):
    # The parser is built once per process; the options and the config
    # of one call must not reach the next.
    path = write(tmp_path, BASE)
    other = write(tmp_path, BASE.replace("seeds = 0, 1, 2", "seeds = 7, 9"), "other.ini")
    out = tmp_path / "rows.csv"
    assert main(["sweep", str(other), "--out", str(out), "--threads", "2"]) == 0
    assert main(["sweep", str(path)]) == 0
    assert main(["sweep", str(other)]) == 0
    captured = capsys.readouterr().out.split("# spikelab-sweep-v1\n")
    assert captured[0] == f"wrote {out}\n" and len(captured) == 3
    seed = CSV_COLUMNS.index("seed")

    def seeds(text):
        return [line.split(",")[seed] for line in text.splitlines()[1:]]

    assert seeds(out.read_text().split("\n", 1)[1]) == ["7", "9"] * 2
    assert seeds(captured[1]) == ["0", "1", "2"] * 2
    assert seeds(captured[2]) == ["7", "9"] * 2


def test_main_sample_dumps_container(tmp_path, capsys):
    path = write(tmp_path, BASE)
    out = tmp_path / "batch.spkb"
    assert main(["sample", str(path), "--out", str(out)]) == 0
    batch = load_batch(out)
    assert batch.spec.problem == "tpca"
    assert batch.n == 24
    capsys.readouterr()


def test_main_reduce_replays_and_dumps(tmp_path, capsys):
    path = write(tmp_path, HARNESS)
    out = tmp_path / "transcript.txt"
    assert main(["reduce", str(path), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[:5] == [
        "check,status,measured,bound",
        "reduce/reduction-bit-equality,PASS,0,0",
        "reduce/transcript-accounting,PASS,0,0",
        "reduce/writer-audit,PASS,0,0",
        "reduce/shard-recompute,PASS,0,0",
    ]
    lines = out.read_text().splitlines()
    assert len(lines) == 4 * (2 * 4 * 16) * 6
    first = lines[0].split()
    assert len(first) == 3 and first[0] == "0"


def test_main_reduce_fails_when_the_writer_audit_does(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(Blackboard, "audit", lambda board, protocol: False)
    assert main(["reduce", str(write(tmp_path, HARNESS))]) == 1
    assert "reduce/writer-audit,FAIL,1,0" in capsys.readouterr().out.splitlines()


def test_main_bad_config_exit_code(tmp_path, capsys):
    path = write(tmp_path, BASE.replace("seeds = 0, 1, 2", "seeds ="))
    assert main(["sweep", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--threads", "0"],
        ["--threads", "-4"],
    ],
)
def test_main_rejects_flag_values_below_one(tmp_path, capsys, flags):
    # A thread count below 1 used to run serially without a word.
    assert main(["sweep", str(write(tmp_path, BASE)), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_main_over_the_entry_budget_exits_2(tmp_path, capsys):
    # Two rows of 100^4 entries are past the 10^8 guard, which is checked
    # before the batch is allocated.  The guard's MemoryError used to end
    # in a traceback and exit 1.
    text = BASE.replace("k = 2", "k = 4").replace("d = 5", "d = 100")
    text = text.replace("samples = 24, 96", "samples = 2").replace("seeds = 0, 1, 2", "seeds = 0")
    assert main(["sweep", str(write(tmp_path, text))]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: tpca batch needs 200000000 entries, over the budget of 100000000\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize(
    "k, message",
    [
        (200_000, "tpca batch needs at least 2^200001 entries"),
        (2**25, "order-33554432 factors needs 100663296 entries"),
    ],
)
def test_main_over_the_entry_budget_on_a_huge_order_exits_2_at_once(tmp_path, capsys, k, message):
    # k = 200,000 at d = 3 exited 2 with Python's int-to-string error
    # (past 4,300 digits), and k = 2^25 spent about 19 s on 3^k first
    text = BASE.replace("k = 2", f"k = {k}").replace("d = 5", "d = 3")
    text = text.replace("samples = 24, 96", "samples = 2").replace("seeds = 0, 1, 2", "seeds = 0")
    t0 = time.perf_counter()
    assert main(["sweep", str(write(tmp_path, text))]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err == f"error: {message}, over the budget of 100000000\n"


_NET_SEARCH = """
[experiment]
problem = {problem}
k = {k}
d = {d}
snr = {snr}
estimator = brute-force-{problem}
samples = 64
seeds = 0

[estimator]
delta = {delta}
trunc = {trunc}
"""


@pytest.mark.parametrize(
    "problem, k, d, snr, delta, trunc, message",
    [
        ("cca", 3, 2, 0.3, 0.05, 2.0, "net product of size 126^3 exceeds the budget"),
        ("ngca", 4, 4, 0.5, 0.01, 4.0, "net for d=4, delta=0.01 exceeds the 200000-point budget"),
    ],
    ids=["cca-net-product", "ngca-net"],
)
def test_main_over_budget_net_search_exits_2(
    tmp_path, capsys, problem, k, d, snr, delta, trunc, message
):
    # The net-size guards raised RuntimeError, a traceback and exit 1.
    text = _NET_SEARCH.format(problem=problem, k=k, d=d, snr=snr, delta=delta, trunc=trunc)
    assert main(["sweep", str(write(tmp_path, text))]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


@pytest.mark.parametrize(
    "text",
    [
        HARNESS.replace("radius = 8", "radius = inf"),
        BASE.replace("snr = 1.0", "snr = nan"),
        BASE.replace("problem = tpca", "problem = cca")
        .replace("estimator = tensor-power", "estimator = cca-matricization")
        .replace("snr = 1.0", "snr = nan"),
    ],
    ids=["radius-inf", "tpca-snr-nan", "cca-snr-nan"],
)
def test_main_non_finite_values_exit_2_at_parse(tmp_path, capsys, text):
    # Before, radius = inf swept to overlap = nan rows with exit 0, and
    # snr = nan died mid-run with a traceback.
    assert main(["sweep", str(write(tmp_path, text))]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


@pytest.mark.parametrize(
    "text",
    [
        BASE.replace("seeds = 0, 1, 2", "seeds = 0, 1, 2\nmeasure = bounded-llr"),
        BASE.replace("samples = 24, 96", "samples = 64,,"),
        BASE.replace("seeds = 0, 1, 2", "seeds = 0, ,1"),
    ],
    ids=["tpca-measure", "samples-empty-entry", "seeds-empty-entry"],
)
def test_main_ignored_input_exits_2_at_parse(tmp_path, capsys, text):
    # Each of these used to parse: the measure was never read and the
    # empty list entries were dropped.
    assert main(["sweep", str(write(tmp_path, text))]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


@pytest.mark.parametrize(
    "text",
    [
        BASE.replace("[experiment]\n", ""),
        BASE.replace("k = 2\n", "k = 2\nk = 3\n"),
        BASE.replace("problem = tpca", "problem = tp%ca"),
    ],
    ids=["no-section-header", "duplicate-key", "lone-percent"],
)
def test_main_malformed_ini_exits_2_with_one_error_line(tmp_path, capsys, text):
    # configparser raises its own errors, not ValueError: these used to
    # end in a traceback with exit 1.
    assert main(["sweep", str(write(tmp_path, text))]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "text, message",
    [
        (BASE + "\n[output]\npath = o.csv\n", "unknown config sections ['output']"),
        (
            _NET_SEARCH.format(problem="ngca", k=4, d=3, snr=0.5, delta=0.3, trunc=4.0)
            + "max_net = 900\n",
            "unknown estimator option 'max_net'",
        ),
        (
            _NET_SEARCH.format(problem="ngca", k=4, d=3, snr=0.5, delta=0.3, trunc=4.0)
            + "probes = 5\n",
            "unknown estimator option 'probes'",
        ),
        (HARNESS.replace("bits = 16", "bits = 53"), "bits per coordinate must be in [1, 52]"),
    ],
    ids=["output-section", "max-net", "probes", "53-bits"],
)
@pytest.mark.parametrize("verb", ["sweep", "sample", "reduce"])
def test_main_unsettable_values_exit_2_with_one_error_line(tmp_path, capsys, verb, text, message):
    # The output path comes from --out alone, the coverage probes and
    # the net size cap are no options, and a codec stops at 52 bits.
    out = tmp_path / "out"
    assert main([verb, str(write(tmp_path, text)), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert len(captured.err.splitlines()) == 1 and captured.out == ""
    assert not out.exists()


ONE_POINT_NGCA = """
[experiment]
problem = ngca
k = 4
d = 4
snr = 0.01
estimator = ngca-spectral
samples = 32
seeds = 3
"""


@pytest.mark.parametrize("kind", KINDS)
def test_main_sweeps_every_measure_kind(tmp_path, capsys, kind):
    path = write(tmp_path, ONE_POINT_NGCA + f"measure = {kind}\n")
    out = tmp_path / "rows.csv"
    assert main(["sweep", str(path), "--out", str(out)]) == 0
    rows = [line for line in out.read_text().splitlines() if line.startswith("ngca,")]
    assert len(rows) == 1
    spec, batch = cli.draw(parse_config(path), 32, 3)
    assert spec.measure == NonGaussMeasure(kind, 4, 0.01) and batch.n == 32
    capsys.readouterr()


def test_main_unknown_measure_kind_exits_2_with_one_error_line(tmp_path, capsys):
    path = write(tmp_path, ONE_POINT_NGCA + "measure = gaussian\n")
    assert main(["sweep", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "unknown measure kind" in captured.err
    assert len(captured.err.splitlines()) == 1 and captured.out == ""


def test_main_reduce_without_sections(tmp_path, capsys):
    # This used to print a bare message, without the ``error:`` prefix.
    path = write(tmp_path, BASE)
    assert main(["reduce", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("verb", ["sweep", "reduce"])
@pytest.mark.parametrize(
    "snr, bits, radius, message",
    [(3.0, 8, "1e300", "overflows"), (0.0, 1, "1e-300", "squares to 0")],
)
def test_main_rejects_a_radius_the_iterate_norm_cannot_hold(
    tmp_path, capsys, verb, snr, bits, radius, message
):
    # Each used to end in "RuntimeError: iterate collapsed to numerical
    # zero", a traceback and exit 1.
    text = f"""
[experiment]
problem = tpca
k = 2
d = 3
snr = {snr}
estimator = tensor-power
samples = 8
seeds = 0

[harness]
bits = {bits}
radius = {radius}
passes = 2

[distributed]
shard_rows = 4
"""
    assert main([verb, str(write(tmp_path, text))]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]
    assert captured.out == ""


def test_main_verify_rejects_flags_it_does_not_read(tmp_path, capsys):
    # ``verify`` reads no config: ``--out`` used to be taken and ignored,
    # so the call exited 0 and wrote nothing.  This and the other argument
    # errors print one ``error:`` line and return 2, where argparse printed
    # a usage line and raised ``SystemExit``.
    config = str(write(tmp_path, BASE))
    cases = [
        (["verify", "hermite", "--out", "x"], "unrecognized arguments: --out x"),
        (["sweep", config, "--budget-entries", "5"], "unrecognized arguments: --budget-entries 5"),
        (["sweep", config, "--threads", "abc"], "invalid int value: 'abc'"),
        (["sweep"], "the following arguments are required: config"),
        (["verify", "bogus"], "invalid choice: 'bogus'"),
    ]
    for argv, message in cases:
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]
        assert captured.out == ""


def test_main_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "--help"])
    assert exit_info.value.code == 0
    assert "--threads" in capsys.readouterr().out


def test_every_module_imports_on_its_own():
    # The package's __init__ imports no module, so each module has to
    # import what it uses itself; a fresh interpreter state per module
    # catches one that only worked because another was loaded first.
    package = Path(cli.__file__).parent
    names = sorted(path.stem for path in package.glob("*.py") if path.stem != "__init__")
    child = (
        "import importlib, sys\n"
        "for name in sys.argv[1:]:\n"
        "    for loaded in [m for m in sys.modules if m.split('.')[0] == 'spikelab']:\n"
        "        del sys.modules[loaded]\n"
        "    importlib.import_module('spikelab.' + name)\n"
    )
    path = os.pathsep.join(filter(None, [str(package.parent), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", child, *names],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "cli" in names and "config" in names


# ---------------------------------------------------------------------------
# grammar fuzz: INI text written from config._SECTIONS, and mutated argv

# One-point grids, one per mode.  Every size the strategy writes is tiny
# or far past the guards, because an in-budget config can allocate up to
# 800 MB.
_FUZZ_BASES = [
    {"experiment": dict(problem="tpca", k="2", d="3", snr="1.0", estimator="tensor-power",
                        samples="8", seeds="0")},
    {"experiment": dict(problem="tpca", k="2", d="2", snr="1.0", estimator="tensor-power",
                        samples="8", seeds="1"),
     "harness": dict(bits="8", radius="4", passes="2"),
     "distributed": dict(shard_rows="4")},
    {"experiment": dict(problem="ngca", k="4", d="3", snr="0.3", estimator="ngca-spectral",
                        samples="16", seeds="2", measure="mog"),
     "estimator": dict(max_iters="5")},
    {"experiment": dict(problem="cca", k="2", d="2", snr="0.3", estimator="brute-force-cca",
                        samples="16", seeds="3"),
     "estimator": dict(delta="1", trunc="4")},
]
_FUZZ_KEYS = [(name, key) for name, keys in _SECTIONS.items() for key in keys]
_BAD = ["", "%", "%%", "%(problem)s", "abc", "nan", "inf", "-inf", "1e999", "-1", "0"]
_HUGE = [str(10**30), "1" + "0" * 5000]
# (tiny valid values, bad ones, huge ones) by the type _SECTIONS reads.
# The loop counts passes and max_iters take no huge value, since any
# count is valid and costs time in proportion.  A tpca snr past about
# 1e154 overflows the plain estimators' arithmetic, which exits 2.
_VALUES = {
    int: (["1", "2", "4"], ["2.5", *_BAD], _HUGE),
    float: (["0.3", "1", "2"], _BAD, ["5e-324", "1e-300", "1e300"]),
    str: (
        ["tpca", "ngca", "cca", "atpca", "mog", "bounded-llr", "tensor-power",
         "partial-trace", "matricization", "cca-matricization", "ngca-spectral",
         "brute-force-cca", "brute-force-ngca"],
        ["bogus", *_BAD],
        [],
    ),
}
_LISTS = (["1", "2", "8", "1, 2"], ["2, 2", "4,,", ",", " , 1", *_BAD], _HUGE)


def _fuzz_values(section, key):
    if key in ("passes", "max_iters"):
        return (["1", "2"], ["2.5", *_BAD], [])
    if key == "snr":
        return (["0", "0.001", "0.3", "1"], _BAD, ["1e-300", "1e160", "1e300", "1e308"])
    kind = _SECTIONS[section][key]
    return _VALUES[kind] if kind in _VALUES else _LISTS


@st.composite
def _fuzz_ini(draw):
    """INI text: a base config with 0-3 mutations, each a new value for
    a key of ``_SECTIONS``, an unknown, duplicate or deleted key, or a
    lost section header."""
    sections = {name: dict(keys) for name, keys in draw(st.sampled_from(_FUZZ_BASES)).items()}
    extra, headless = [], set()
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["value"] * 4 + ["unknown", "duplicate", "delete", "header"]))
        if kind == "value":
            name, key = draw(st.sampled_from(_FUZZ_KEYS))
            pool = draw(st.sampled_from([pool for pool in _fuzz_values(name, key) if pool]))
            sections.setdefault(name, {})[key] = draw(st.sampled_from(pool))
            continue
        name = draw(st.sampled_from(sorted(sections)))
        if kind == "header":
            headless.add(name)
        elif kind == "unknown":
            extra.append((name, "warp = 1"))
        elif sections[name]:
            key = draw(st.sampled_from(sorted(sections[name])))
            if kind == "delete":
                del sections[name][key]
            else:
                extra.append((name, f"{key} = {sections[name][key]}"))
    lines = []
    for name, keys in sections.items():
        if name not in headless:
            lines.append(f"[{name}]")
        lines += [f"{key} = {value}" for key, value in keys.items()]
        lines += [line for owner, line in extra if owner == name]
    return "\n".join(lines) + "\n"


_FUZZ_FLAGS = [
    ["--budget-entries", "5"],
    ["--bogus"],
    ["-x", "1"],
    ["--threads", "abc"],
    ["--threads", "0"],
    ["--threads", "2"],
    ["--threads", str(10**30)],
    ["--seed", "5"],
]


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


def _fuzz_case(base, changes):
    """Base config ``base`` with its ``(section, key)`` values replaced by
    ``changes``, as INI text."""
    sections = {name: dict(keys) for name, keys in _FUZZ_BASES[base].items()}
    for (name, key), value in changes.items():
        sections.setdefault(name, {})[key] = value
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for name, keys in sections.items()
    )


@given(
    text=_fuzz_ini(),
    flags=st.one_of(st.just([]), st.sampled_from(_FUZZ_FLAGS)),
    config=st.sampled_from(["written"] * 8 + ["missing", "absent"]),
)
# Each of these ended in a traceback and exit 1, or an empty message: an
# order or a dimension past 2^63 (OverflowError), a 2^40-factor tuple (a
# MemoryError with no message) and a net count past the float range
# (OverflowError, ZeroDivisionError at d = 2).
@example(text=_fuzz_case(0, {("experiment", "k"): str(10**30)}), flags=[], config="written")
@example(text=_fuzz_case(0, {("experiment", "k"): str(2**40)}), flags=[], config="written")
@example(text=_fuzz_case(2, {("experiment", "d"): str(10**30)}), flags=[], config="written")
@example(
    text=_fuzz_case(3, {("experiment", "d"): "3", ("estimator", "delta"): "1e-300"}),
    flags=[],
    config="written",
)
@example(text=_fuzz_case(3, {("estimator", "delta"): "5e-324"}), flags=[], config="written")
# A tpca snr of 1e160 or 1e300 overflowed the iterate's squared norm in
# ``unit``, and at d = 1 an snr of 1e308 the batch mean: a numpy warning,
# then "iterate collapsed to numerical zero", a traceback and exit 1.
@example(text=_fuzz_case(0, {("experiment", "snr"): "1e160"}), flags=[], config="written")
@example(text=_fuzz_case(0, {("experiment", "snr"): "1e300"}), flags=[], config="written")
@example(
    text=_fuzz_case(0, {("experiment", "d"): "1", ("experiment", "snr"): "1e308"}),
    flags=[],
    config="written",
)
@settings(max_examples=150, deadline=None)
def test_main_on_fuzzed_ini_and_argv_exits_0_with_a_csv_or_2_with_one_error_line(
    tmp_path_factory, text, flags, config
):
    path = tmp_path_factory.mktemp("fuzz") / "config.ini"
    if config == "written":
        path.write_text(text)
    argv = ["sweep", *([] if config == "absent" else [str(path)]), *flags]
    status, out, err = _run_main(argv)
    if status == 0:
        lines = out.splitlines()
        assert lines[:2] == [f"# {cli.CSV_VERSION}", ",".join(CSV_COLUMNS)] and err == ""
        assert len(lines) > 2 and all(len(row.split(",")) == len(CSV_COLUMNS) for row in lines[2:])
    else:
        assert status == 2 and out == ""
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, err
        assert err[len("error: ") :].strip(), "an empty error message"
