"""Fixed-parameter detection runs shared by the calibration script and
the acceptance checks.

Each leg pins one estimator to one planted model at desk scale and
reports a scalar detection statistic per seed.  Direction-valued
estimators contribute their direction overlap raised to the k-th power
(the overlap of the implied rank-one tensor with the planted one),
tensor-valued estimators their normalized tensor overlap, and the
cross-view leg keeps the singular-value scale so the statistic tracks
the detection margin instead of a normalized direction.
"""

from __future__ import annotations

import statistics

import numpy as np

from spikelab.config import iteration_seed, noise_seed
from spikelab.estimators import (
    PowerMethodConfig,
    cca_matricization_estimator,
    mr_matricization_estimator,
    ngca_spectral,
    partial_trace_spectral,
    sphere_net,
    tensor_power_method,
)
from spikelab.measures import build_mog_measure
from spikelab.models import (
    ModelSpec,
    sample_atpca,
    sample_cca,
    sample_ngca,
    sample_tpca,
)

__all__ = [
    "DETECTION_SEEDS",
    "LEG_NAMES",
    "WEDIN_DELTA",
    "WEDIN_DIM",
    "WEDIN_NET_SEED",
    "default_samples",
    "detection_median",
    "detection_run",
    "random_unit_pairs",
    "sample_grid",
    "wedin_net",
]


DETECTION_SEEDS = tuple(range(10))

LEG_NAMES = (
    "partial-trace",
    "reweighted-covariance",
    "matricization",
    "cross-views",
    "tensor-power",
)

# Desk-scale defaults: the order-4 legs run at d = 6 with N = 16 d^2
# samples; the cross-view leg needs its larger budget because the signal
# sits below the per-sample noise floor at d = 2.
_TENSOR_D = 6
_TENSOR_N = 16 * _TENSOR_D**2
_CCA_N = 100_000


def default_samples(name: str) -> int:
    if name == "cross-views":
        return _CCA_N
    return _TENSOR_N


def sample_grid(name: str) -> tuple[int, int, int]:
    """Three sample counts spaced by factors of 4, largest = default."""
    top = default_samples(name)
    return (top // 16, top // 4, top)


def detection_run(name: str, snr: float, n_samples: int, seed: int) -> float:
    """One seeded draw-and-estimate cycle, returning the leg statistic.

    The planted direction and the data both vary with the seed, so the
    medians below average over problem instances, not just noise.
    """
    cfg = PowerMethodConfig(seed=iteration_seed(seed))
    if name == "partial-trace":
        spec = ModelSpec.tpca(k=4, d=_TENSOR_D, snr=snr, seed=seed)
        report = partial_trace_spectral(sample_tpca(spec, n_samples, noise_seed(seed)), cfg)
        return report.overlap**4
    if name == "reweighted-covariance":
        spec = ModelSpec.ngca(d=_TENSOR_D, measure=build_mog_measure(4, snr), seed=seed)
        report = ngca_spectral(sample_ngca(spec, n_samples, noise_seed(seed)), cfg)
        return report.overlap**4
    if name == "matricization":
        spec = ModelSpec.atpca(k=4, d=_TENSOR_D, snr=snr, seed=seed)
        report = mr_matricization_estimator(
            sample_atpca(spec, n_samples, noise_seed(seed)), cfg
        )
        return report.overlap
    if name == "cross-views":
        spec = ModelSpec.cca(k=2, d=2, snr=snr, seed=seed)
        report = cca_matricization_estimator(
            sample_cca(spec, n_samples, noise_seed(seed)), cfg
        )
        return report.info["signal_inner"]
    if name == "tensor-power":
        spec = ModelSpec.tpca(k=2, d=_TENSOR_D, snr=snr, seed=seed)
        report = tensor_power_method(sample_tpca(spec, n_samples, noise_seed(seed)), cfg)
        return report.overlap**2
    raise ValueError(f"unknown detection leg {name!r}")


def detection_median(
    name: str, snr: float, n_samples: int | None = None, seeds=DETECTION_SEEDS
) -> float:
    if n_samples is None:
        n_samples = default_samples(name)
    return statistics.median(
        detection_run(name, snr, n_samples, seed) for seed in seeds
    )


# ---------------------------------------------------------------------------
# fixed grids behind the frozen calibration constants

WEDIN_DIM = 3
WEDIN_DELTA = 0.2
WEDIN_NET_SEED = 0


def wedin_net() -> np.ndarray:
    return sphere_net(WEDIN_DIM, WEDIN_DELTA, seed=WEDIN_NET_SEED)


def random_unit_pairs(count: int, d: int, seed: int) -> np.ndarray:
    """``(count, 2, d)`` array of independent unit vectors."""
    rng = np.random.default_rng(seed)
    pairs = rng.standard_normal((count, 2, d))
    return pairs / np.linalg.norm(pairs, axis=2, keepdims=True)
