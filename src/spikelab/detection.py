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

from spikelab.cli import draw, run_plain
from spikelab.config import ExperimentConfig


DETECTION_SEEDS = tuple(range(10))

# Desk-scale defaults: the order-4 legs run at d = 6 with N = 16 d^2
# samples; the cross-view leg needs its larger budget because the signal
# sits below the per-sample noise floor at d = 2.
_TENSOR_D = 6
_TENSOR_N = 16 * _TENSOR_D**2
_CCA_N = 100_000

# leg -> ((problem, k, d, estimator), statistic of its estimate report)
_LEGS = {
    "partial-trace": (("tpca", 4, _TENSOR_D, "partial-trace"), lambda r: r.overlap**4),
    "reweighted-covariance": (("ngca", 4, _TENSOR_D, "ngca-spectral"), lambda r: r.overlap**4),
    "matricization": (("atpca", 4, _TENSOR_D, "matricization"), lambda r: r.overlap),
    "cross-views": (("cca", 2, 2, "cca-matricization"), lambda r: r.info["signal_inner"]),
    "tensor-power": (("tpca", 2, _TENSOR_D, "tensor-power"), lambda r: r.overlap**2),
}
LEG_NAMES = tuple(_LEGS)


def default_samples(name: str) -> int:
    if name == "cross-views":
        return _CCA_N
    return _TENSOR_N


def detection_run(name: str, snr: float, n_samples: int, seed: int) -> float:
    """One seeded draw-and-estimate cycle, returning the leg statistic.

    The leg runs as the sweep runs a plain grid point (``cli.draw`` and
    ``cli.run_plain``), so the planted direction and the data both vary
    with the seed and the medians below average over problem instances,
    not just noise.
    """
    if name not in _LEGS:
        raise ValueError(f"unknown detection leg {name!r}")
    (problem, k, d, estimator), statistic = _LEGS[name]
    cfg = ExperimentConfig(problem, k, d, snr, estimator, (n_samples,), (seed,))
    _, batch = draw(cfg, n_samples, seed)
    return statistic(run_plain(cfg, batch, seed))


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
    """The 9,000 random unit vectors the ``wedin_c_k*`` constants were
    measured on; ``tests/test_calibration.py`` pins them and their reach."""
    net = np.random.default_rng(WEDIN_NET_SEED).standard_normal((9000, WEDIN_DIM))
    return net / np.linalg.norm(net, axis=1, keepdims=True)


def random_unit_pairs(count: int, d: int, seed: int) -> np.ndarray:
    """``(count, 2, d)`` array of independent unit vectors."""
    rng = np.random.default_rng(seed)
    pairs = rng.standard_normal((count, 2, d))
    return pairs / np.linalg.norm(pairs, axis=2, keepdims=True)
