"""Experiment configuration: an INI file, the one description of a run.

The grammar is documented in docs/formats.md.  Parsing is strict:
unknown sections, unknown keys, estimator options the chosen estimator
(or harness mode) does not read, empty grids, duplicate seeds and seed
lists spanning 1000 or more are all rejected here rather than surfacing
later as confusing runtime behavior.
"""

from __future__ import annotations

import configparser
from dataclasses import MISSING, dataclass, field, fields

from spikelab.estimators import ESTIMATOR_SCOPES
from spikelab.harness import TEMPLATES, QuantizerSpec
from spikelab.measures import KINDS
from spikelab.models import SAMPLERS
from spikelab.tensors import check_count, check_snr


@dataclass(frozen=True)
class HarnessSettings:
    """``[harness]``: the streaming state's codec and the pass count.

    ``bits`` and ``radius`` default to the codec's own defaults.
    """

    bits: int = QuantizerSpec.bits
    radius: float = QuantizerSpec.radius
    passes: int = 10
    # The codec of bits and radius, built (and so checked) once here.
    quantizer: QuantizerSpec = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "quantizer", QuantizerSpec(bits=self.bits, radius=self.radius))
        check_count("passes", self.passes)


def iteration_seed(seed: int) -> int:
    """Seed for iterative-solver randomness, derived from the run seed.

    Kept distinct from the instance and sampling seeds: reusing the raw
    seed would make the starting vector reproduce the planted-direction
    draw and bias null-model runs.  For a seed list that
    ``ExperimentConfig`` accepts (seeds >= 0 spanning less than 1000),
    every ``8191 + 31 * s`` lies above all of its instance streams ``s``
    and noise streams ``noise_seed(s) = 1000 + s``.
    """
    return 8191 + 31 * seed


def noise_seed(seed: int) -> int:
    """Seed for the sampling noise of the run with instance seed ``seed``.

    Disjoint from every instance stream of a seed list that
    ``ExperimentConfig`` accepts, because the list spans less than 1000.
    """
    return 1000 + seed


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str
    k: int
    d: int
    snr: float
    estimator: str
    samples_grid: tuple
    seeds: tuple
    # ngca only: one of measures.KINDS, "mog" when unset; None for the
    # other problems.
    measure_kind: str | None = None
    estimator_options: dict = field(default_factory=dict)
    harness: HarnessSettings | None = None
    # [distributed] shard_rows, or None without that section.
    shard_rows: int | None = None

    def __post_init__(self):
        if self.problem not in SAMPLERS:
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.estimator not in ESTIMATOR_SCOPES:
            raise ValueError(f"unknown estimator {self.estimator!r}")
        problems, options = ESTIMATOR_SCOPES[self.estimator]
        if self.problem not in problems:
            raise ValueError(
                f"estimator {self.estimator!r} does not apply to "
                f"problem {self.problem!r}"
            )
        check_count("k", self.k)
        check_count("d", self.d)
        check_snr(self.snr)
        if self.problem != "ngca" and self.measure_kind is not None:
            raise ValueError(f"measure applies to ngca only, got it for {self.problem!r}")
        if self.problem == "ngca" and self.measure_kind is None:
            object.__setattr__(self, "measure_kind", "mog")
        if self.measure_kind not in (None, *KINDS):
            raise ValueError(f"unknown measure kind {self.measure_kind!r}")
        grid, seeds = tuple(self.samples_grid), tuple(self.seeds)
        for v in grid:
            check_count("samples", v)
        for v in seeds:
            check_count("seeds", v, low=0)
        grid, seeds = tuple(map(int, grid)), tuple(map(int, seeds))
        if not grid:
            raise ValueError("samples grid must not be empty")
        if not seeds:
            raise ValueError("seed list must not be empty")
        if len(set(seeds)) != len(seeds):
            raise ValueError(f"seeds must be distinct, got {seeds}")
        if max(seeds) - min(seeds) >= 1000:
            # Seed s draws its noise from 1000 + s, the instance stream of
            # seed s + 1000; a span below 1000 keeps every stream disjoint.
            raise ValueError(f"seeds must span less than 1000, got {seeds}")
        object.__setattr__(self, "samples_grid", grid)
        object.__setattr__(self, "seeds", seeds)
        unread = set(self.estimator_options) - set(options.OPTIONS)
        if unread:
            raise ValueError(
                f"estimator {self.estimator!r} does not read options {sorted(unread)}"
            )
        required = {
            f.name
            for f in fields(options)
            if f.default is MISSING and f.default_factory is MISSING
        }
        missing = sorted(required - set(self.estimator_options))
        if missing:
            raise ValueError(f"{self.estimator} needs estimator options {missing}")
        # Build the options object once, so that its own checks of the
        # values run at parse time.
        options(**self.estimator_options)
        if self.harness is not None and self.estimator not in TEMPLATES:
            raise ValueError(
                f"estimator {self.estimator!r} has no streaming template; "
                f"harness mode supports {tuple(TEMPLATES)}"
            )
        if self.harness is not None and self.estimator_options:
            # The streaming run takes its pass count from [harness] passes.
            raise ValueError(
                f"harness mode reads no estimator options, got "
                f"{sorted(self.estimator_options)}"
            )
        if self.shard_rows is not None:
            check_count("shard_rows", self.shard_rows)
            if self.harness is None:
                raise ValueError("distributed mode requires a [harness] section")
            if any(v % self.shard_rows != 0 for v in grid):
                raise ValueError(
                    f"shard_rows {self.shard_rows} must divide every grid sample count {grid}"
                )


def _int_list(raw: str) -> tuple:
    """A comma-separated list of ints; an empty entry does not parse."""
    return tuple(int(part) for part in raw.split(","))


# Section -> key -> the type its value is read as.  [estimator] takes
# every option that some options class declares, typed as it declares.
_SECTIONS = {
    "experiment": {
        "problem": str,
        "k": int,
        "d": int,
        "snr": float,
        "estimator": str,
        "samples": _int_list,
        "seeds": _int_list,
        "measure": str,
    },
    "estimator": {
        key: kind
        for _, options in ESTIMATOR_SCOPES.values()
        for key, kind in options.OPTIONS.items()
    },
    "harness": {"bits": int, "radius": float, "passes": int},
    "distributed": {"shard_rows": int},
}
_EXPERIMENT_REQUIRED = ("problem", "k", "d", "snr", "estimator", "samples", "seeds")


def _read_section(name: str, section) -> dict:
    """``[name]``'s values, typed by ``_SECTIONS``; an unknown key raises."""
    types = _SECTIONS[name]
    values = {}
    for key in section:
        if key not in types:
            raise ValueError(
                f"unknown {name} option {key!r}; [{name}] keys: {', '.join(sorted(types))}"
            )
        try:  # reading a value interpolates it, so a bad % raises here
            values[key] = types[key](section[key])
        except (ValueError, configparser.Error) as err:
            raise ValueError(f"[{name}] {key}: {err}") from None
    return values


def parse_config(path) -> ExperimentConfig:
    """Read an experiment INI file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    with open(path) as fh:
        try:
            parser.read_file(fh)
        except configparser.Error as err:
            # Its message can span lines; the CLI prints one.
            raise ValueError(" ".join(str(err).split())) from None
    extra = set(parser.sections()) - set(_SECTIONS)
    if extra:
        raise ValueError(f"unknown config sections {sorted(extra)}")
    if "experiment" not in parser:
        raise ValueError("config needs an [experiment] section")
    sections = {name: _read_section(name, parser[name]) for name in parser.sections()}
    exp = sections["experiment"]
    for key in _EXPERIMENT_REQUIRED:
        if key not in exp:
            raise ValueError(f"[experiment] is missing {key!r}")
    if "distributed" in sections and "shard_rows" not in sections["distributed"]:
        raise ValueError("[distributed] needs shard_rows")
    harness = sections.get("harness")
    return ExperimentConfig(
        problem=exp["problem"],
        k=exp["k"],
        d=exp["d"],
        snr=exp["snr"],
        estimator=exp["estimator"],
        samples_grid=exp["samples"],
        seeds=exp["seeds"],
        measure_kind=exp.get("measure"),
        estimator_options=sections.get("estimator", {}),
        harness=None if harness is None else HarnessSettings(**harness),
        shard_rows=sections.get("distributed", {}).get("shard_rows"),
    )
