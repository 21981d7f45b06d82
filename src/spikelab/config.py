"""Experiment configuration: an INI file plus command-line overrides.

The grammar is documented in docs/formats.md.  Parsing is strict:
unknown sections, unknown keys, estimator options the chosen estimator
(or harness mode) does not read, empty grids, duplicate seeds and seed
lists spanning 1000 or more are all rejected here rather than surfacing
later as confusing runtime behavior.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

from spikelab.estimators import BruteForceConfig, PowerMethodConfig
from spikelab.harness import QuantizerSpec

__all__ = [
    "DistributedSettings",
    "ExperimentConfig",
    "HarnessSettings",
    "iteration_seed",
    "noise_seed",
    "parse_config",
]

_PROBLEMS = ("tpca", "atpca", "ngca", "cca")

_POWER_OPTIONS = ("max_iters", "tol")
_NET_OPTIONS = ("delta", "trunc", "probes", "max_net")

# Each estimator: the problems it applies to, and the [estimator] options
# it reads in plain mode, named as the fields of its PowerMethodConfig or
# BruteForceConfig.  Any other option is rejected rather than ignored.
_ESTIMATORS = {
    "tensor-power": (("tpca",), _POWER_OPTIONS),
    "partial-trace": (("tpca",), _POWER_OPTIONS),
    "matricization": (("tpca", "atpca"), _POWER_OPTIONS),
    "cca-matricization": (("cca",), _POWER_OPTIONS),
    "ngca-spectral": (("ngca",), _POWER_OPTIONS),
    "brute-force-ngca": (("ngca",), _NET_OPTIONS),
    "brute-force-cca": (("cca",), _NET_OPTIONS),
}

# Estimators with a streaming contraction template; only these can run
# under the bit-budget harness.
_TEMPLATE_ESTIMATORS = ("tensor-power", "partial-trace")

_ESTIMATOR_OPTION_TYPES = {
    "max_iters": int,
    "tol": float,
    "delta": float,
    "trunc": float,
    "probes": int,
    "max_net": int,
}


@dataclass(frozen=True)
class HarnessSettings:
    bits: int = 32
    radius: float = 64.0
    passes: int = 10

    def __post_init__(self):
        QuantizerSpec(bits=self.bits, radius=self.radius)  # the codec's checks
        if self.passes < 1:
            raise ValueError(f"passes must be >= 1, got {self.passes}")


@dataclass(frozen=True)
class DistributedSettings:
    shard_rows: int

    def __post_init__(self):
        if self.shard_rows < 1:
            raise ValueError(f"shard_rows must be >= 1, got {self.shard_rows}")


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
    measure_kind: str = "mog"
    estimator_options: dict = field(default_factory=dict)
    harness: HarnessSettings | None = None
    distributed: DistributedSettings | None = None
    out: str | None = None

    def __post_init__(self):
        if self.problem not in _PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.estimator not in _ESTIMATORS:
            raise ValueError(f"unknown estimator {self.estimator!r}")
        problems, options = _ESTIMATORS[self.estimator]
        if self.problem not in problems:
            raise ValueError(
                f"estimator {self.estimator!r} does not apply to "
                f"problem {self.problem!r}"
            )
        if self.k < 1 or self.d < 1:
            raise ValueError(f"need k >= 1 and d >= 1, got k={self.k}, d={self.d}")
        if not (math.isfinite(self.snr) and self.snr >= 0):
            raise ValueError(f"snr must be finite and >= 0, got {self.snr}")
        if self.measure_kind not in ("mog", "bounded-llr"):
            raise ValueError(f"unknown measure kind {self.measure_kind!r}")
        grid = tuple(int(v) for v in self.samples_grid)
        if not grid or any(v < 1 for v in grid):
            raise ValueError(f"samples grid must be non-empty positive, got {grid}")
        seeds = tuple(int(v) for v in self.seeds)
        if not seeds:
            raise ValueError("seed list must not be empty")
        if len(set(seeds)) != len(seeds):
            raise ValueError(f"seeds must be distinct, got {seeds}")
        if any(v < 0 for v in seeds):
            raise ValueError(f"seeds must be >= 0, got {seeds}")
        if max(seeds) - min(seeds) >= 1000:
            # Seed s draws its noise from 1000 + s, the instance stream of
            # seed s + 1000; a span below 1000 keeps every stream disjoint.
            raise ValueError(f"seeds must span less than 1000, got {seeds}")
        object.__setattr__(self, "samples_grid", grid)
        object.__setattr__(self, "seeds", seeds)
        unread = set(self.estimator_options) - set(options)
        if unread:
            raise ValueError(
                f"estimator {self.estimator!r} does not read options {sorted(unread)}"
            )
        # Build the estimator's config object once, so that its own checks
        # of the option values run at parse time.
        if self.estimator.startswith("brute-force"):
            missing = {"delta", "trunc"} - set(self.estimator_options)
            if missing:
                raise ValueError(
                    f"{self.estimator} needs estimator options {sorted(missing)}"
                )
            BruteForceConfig(**self.estimator_options)
        else:
            PowerMethodConfig(**self.estimator_options)
        if self.harness is not None and self.estimator not in _TEMPLATE_ESTIMATORS:
            raise ValueError(
                f"estimator {self.estimator!r} has no streaming template; "
                f"harness mode supports {_TEMPLATE_ESTIMATORS}"
            )
        if self.harness is not None and self.estimator_options:
            # The streaming run takes its pass count from [harness] passes.
            raise ValueError(
                f"harness mode reads no estimator options, got "
                f"{sorted(self.estimator_options)}"
            )
        if self.distributed is not None and self.harness is None:
            raise ValueError("distributed mode requires a [harness] section")
        if self.distributed is not None and any(
            v % self.distributed.shard_rows != 0 for v in grid
        ):
            raise ValueError(
                f"shard_rows {self.distributed.shard_rows} must divide every "
                f"grid sample count {grid}"
            )


def _int_list(raw: str) -> tuple:
    parts = [p.strip() for p in raw.split(",")]
    return tuple(int(p) for p in parts if p)


def _typed_options(section) -> dict:
    options = {}
    for key in section:
        if key not in _ESTIMATOR_OPTION_TYPES:
            raise ValueError(f"unknown estimator option {key!r}")
        options[key] = _ESTIMATOR_OPTION_TYPES[key](section[key])
    return options


def parse_config(path, seed_override=None, out_override=None) -> ExperimentConfig:
    """Read an experiment INI file and apply flag overrides."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    with open(path) as fh:
        parser.read_file(fh)
    known = {"experiment", "estimator", "harness", "distributed", "output"}
    extra = set(parser.sections()) - known
    if extra:
        raise ValueError(f"unknown config sections {sorted(extra)}")
    if "experiment" not in parser:
        raise ValueError("config needs an [experiment] section")
    exp = parser["experiment"]
    allowed = {"problem", "k", "d", "snr", "estimator", "samples", "seeds", "measure"}
    unknown = set(exp) - allowed
    if unknown:
        raise ValueError(f"unknown [experiment] keys {sorted(unknown)}")
    for key in ("problem", "k", "d", "snr", "estimator", "samples", "seeds"):
        if key not in exp:
            raise ValueError(f"[experiment] is missing {key!r}")
    harness = None
    if "harness" in parser:
        sec = parser["harness"]
        unknown = set(sec) - {"bits", "radius", "passes"}
        if unknown:
            raise ValueError(f"unknown [harness] keys {sorted(unknown)}")
        harness = HarnessSettings(
            bits=sec.getint("bits", 32),
            radius=sec.getfloat("radius", 64.0),
            passes=sec.getint("passes", 10),
        )
    distributed = None
    if "distributed" in parser:
        sec = parser["distributed"]
        unknown = set(sec) - {"shard_rows"}
        if unknown:
            raise ValueError(f"unknown [distributed] keys {sorted(unknown)}")
        if "shard_rows" not in sec:
            raise ValueError("[distributed] needs shard_rows")
        distributed = DistributedSettings(shard_rows=sec.getint("shard_rows"))
    out = None
    if "output" in parser:
        sec = parser["output"]
        unknown = set(sec) - {"path"}
        if unknown:
            raise ValueError(f"unknown [output] keys {sorted(unknown)}")
        out = sec.get("path")
    seeds = _int_list(exp["seeds"])
    if seed_override is not None:
        seeds = tuple(seed_override)
    if out_override is not None:
        out = out_override
    return ExperimentConfig(
        problem=exp["problem"].strip(),
        k=exp.getint("k"),
        d=exp.getint("d"),
        snr=exp.getfloat("snr"),
        estimator=exp["estimator"].strip(),
        samples_grid=_int_list(exp["samples"]),
        seeds=seeds,
        measure_kind=exp.get("measure", "mog").strip(),
        estimator_options=_typed_options(parser["estimator"])
        if "estimator" in parser
        else {},
        harness=harness,
        distributed=distributed,
        out=out,
    )
