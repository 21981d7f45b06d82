"""Samplers for the planted models and the reductions between them.

Problems and their batch row layouts (all float64, row-major):

==========  =======================  =========================
problem     signal                   row layout
==========  =======================  =========================
tpca        symmetric rank-one       flat order-k tensor, d**k
atpca       asymmetric rank-one      flat order-k tensor, d**k
ngca        planted projection law   point in R^d
cca         correlated sign pattern  k views concatenated, k*d
glm         direction + link         point in R^d, 0/1 labels
parity      relevant subset          k*d features, 0/1 labels
==========  =======================  =========================

Planted directions and factors live on the sphere of squared radius d,
so the normalized alignment ``<x, v> / d`` is the natural overlap scale
throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from spikelab.measures import NonGaussMeasure, rejection_sample
from spikelab.tensors import RankOneSpike, check_entry_budget, rank1_densify

__all__ = [
    "ModelSpec",
    "SampleBatch",
    "cca_critical_snr",
    "reduce_cca_to_parity",
    "reduce_ngca_to_glm",
    "sample_atpca",
    "sample_cca",
    "sample_ngca",
    "sample_tpca",
]

PROBLEMS = ("tpca", "atpca", "ngca", "cca", "glm", "parity")


def cca_critical_snr(k: int) -> float:
    """Largest admissible correlation strength: (2/pi)^{k/2}."""
    return (2.0 / math.pi) ** (k / 2.0)


def _rademacher(rng: np.random.Generator, d: int) -> np.ndarray:
    return rng.choice([-1.0, 1.0], size=d)


def _factor_spike(k, d, snr, indices, factors, seed) -> RankOneSpike:
    """Order-k spike; coordinate factors ``sqrt(d) e_i`` by default, at
    ``indices`` or, when those are not given either, at indices drawn
    from ``seed``."""
    if factors is None:
        if indices is None:
            indices = np.random.default_rng(seed).integers(0, d, size=k)
        factors = [math.sqrt(d) * np.eye(d)[i] for i in indices]
    spike = RankOneSpike(dim=d, snr=snr, factors=tuple(factors))
    if spike.order != k:
        raise ValueError(f"got {spike.order} factors for order {k}")
    return spike


@dataclass(frozen=True)
class ModelSpec:
    """A fully specified planted instance (problem, sizes, signal)."""

    problem: str
    k: int
    d: int
    snr: float
    spike: RankOneSpike | None = None
    direction: np.ndarray | None = None
    measure: NonGaussMeasure | None = None
    subset: tuple = ()

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.k < 1 or self.d < 1:
            raise ValueError(f"need k >= 1 and d >= 1, got k={self.k}, d={self.d}")
        if not (math.isfinite(self.snr) and self.snr >= 0):
            raise ValueError(f"snr must be finite and >= 0, got {self.snr}")
        if self.direction is not None:
            v = np.ascontiguousarray(self.direction, dtype=np.float64)
            if v.shape != (self.d,):
                raise ValueError(f"direction shape {v.shape} != ({self.d},)")
            if not math.isclose(float(v @ v), self.d, rel_tol=1e-9, abs_tol=1e-9):
                raise ValueError("direction must have squared norm d")
            v.flags.writeable = False
            object.__setattr__(self, "direction", v)

    # -- constructors ----------------------------------------------------

    @classmethod
    def tpca(cls, k, d, snr, direction=None, seed=0) -> "ModelSpec":
        """Symmetric spiked tensor; default direction is Rademacher."""
        if direction is None:
            direction = _rademacher(np.random.default_rng(seed), d)
        direction = np.asarray(direction, dtype=np.float64)
        spike = RankOneSpike.symmetric(direction, order=k, snr=snr)
        return cls(
            problem="tpca", k=k, d=d, snr=snr, spike=spike, direction=direction
        )

    @classmethod
    def atpca(cls, k, d, snr, indices=None, factors=None, seed=0) -> "ModelSpec":
        """Asymmetric spiked tensor with coordinate factors by default."""
        spike = _factor_spike(k, d, snr, indices, factors, seed)
        return cls(problem="atpca", k=k, d=d, snr=snr, spike=spike)

    @classmethod
    def ngca(cls, d, measure: NonGaussMeasure, direction=None, seed=0) -> "ModelSpec":
        """Planted non-Gaussian projection; k and snr come from the measure."""
        if measure.order < 1:
            raise ValueError("measure must depart from Gaussian at some order")
        if direction is None:
            direction = _rademacher(np.random.default_rng(seed), d)
        return cls(
            problem="ngca",
            k=measure.order,
            d=d,
            snr=measure.snr,
            direction=np.asarray(direction, dtype=np.float64),
            measure=measure,
        )

    @classmethod
    def cca(cls, k, d, snr, indices=None, factors=None, seed=0) -> "ModelSpec":
        """k correlated Gaussian views; coordinate factors by default."""
        if k < 2:
            raise ValueError(f"correlation model needs k >= 2 views, got {k}")
        if snr > cca_critical_snr(k) + 1e-12:
            raise ValueError(
                f"snr {snr} above the critical value {cca_critical_snr(k)}"
            )
        spike = _factor_spike(k, d, snr, indices, factors, seed)
        return cls(problem="cca", k=k, d=d, snr=snr, spike=spike)

    # -- geometry --------------------------------------------------------

    @property
    def row_length(self) -> int:
        if self.problem in ("tpca", "atpca"):
            return self.d**self.k
        if self.problem in ("ngca", "glm"):
            return self.d
        return self.k * self.d  # cca, parity


@dataclass(frozen=True)
class SampleBatch:
    """n sample rows drawn from one planted instance."""

    spec: ModelSpec
    data: np.ndarray
    seed: int
    labels: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=np.float64)
        if data.ndim != 2 or data.shape[1] != self.spec.row_length:
            raise ValueError(
                f"data shape {data.shape} incompatible with row length "
                f"{self.spec.row_length}"
            )
        data.flags.writeable = False
        object.__setattr__(self, "data", data)
        if self.labels is not None:
            labels = np.ascontiguousarray(self.labels, dtype=np.float64)
            if labels.shape != (data.shape[0],):
                raise ValueError("labels must be one scalar per row")
            if not np.all((labels == 0.0) | (labels == 1.0)):
                raise ValueError("labels must be 0/1")
            labels.flags.writeable = False
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    def views(self) -> np.ndarray:
        """Per-view slices for multi-view rows, shaped (n, k, d)."""
        if self.spec.problem not in ("cca", "parity"):
            raise ValueError(f"{self.spec.problem!r} rows are not multi-view")
        return self.data.reshape(self.n, self.spec.k, self.spec.d)


# ---------------------------------------------------------------------------
# samplers


def _sample_spiked_tensor(spec: ModelSpec, n: int, seed: int) -> SampleBatch:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    check_entry_budget(n * spec.row_length, f"{spec.problem} batch")
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, spec.row_length))
    data += rank1_densify(spec.spike)
    return SampleBatch(spec, data, seed)


def sample_tpca(spec: ModelSpec, n: int, seed: int) -> SampleBatch:
    """X_i = snr * v^{(x)k} / sqrt(d^k) + W_i with iid N(0,1) entries."""
    if spec.problem != "tpca":
        raise ValueError(f"expected a tpca spec, got {spec.problem!r}")
    return _sample_spiked_tensor(spec, n, seed)


def sample_atpca(spec: ModelSpec, n: int, seed: int) -> SampleBatch:
    """X_i = snr * (v_1 x .. x v_k) / sqrt(d^k) + W_i, same noise model."""
    if spec.problem != "atpca":
        raise ValueError(f"expected an atpca spec, got {spec.problem!r}")
    return _sample_spiked_tensor(spec, n, seed)


def sample_ngca(spec: ModelSpec, n: int, seed: int) -> SampleBatch:
    """Gaussian in every direction but the planted one.

    ``x_i = eta_i v / ||v|| + (I - v v^T / d) z_i`` with ``eta ~ nu`` and
    ``z_i ~ N(0, I_d)``; the planted projection ``<x_i, v> / sqrt(d)``
    equals ``eta_i`` exactly.
    """
    if spec.problem != "ngca":
        raise ValueError(f"expected an ngca spec, got {spec.problem!r}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    check_entry_budget(n * spec.d, "ngca batch")
    rng = np.random.default_rng(seed)
    eta = spec.measure.sample(n, rng)
    z = rng.standard_normal((n, spec.d))
    v = spec.direction
    data = np.outer(eta, v / math.sqrt(spec.d)) + z - np.outer((z @ v) / spec.d, v)
    return SampleBatch(spec, data, seed)


def sample_cca(spec: ModelSpec, n: int, seed: int) -> SampleBatch:
    """k jointly tilted Gaussian views, marginally N(0, I_d) each.

    The joint density against the product Gaussian is ``1 + Lambda *
    prod_l sign(<x^(l), v_l>)`` with ``Lambda = snr / (2/pi)^{k/2}``;
    sampling is by rejection with the constant envelope ``1 + Lambda``.
    """
    if spec.problem != "cca":
        raise ValueError(f"expected a cca spec, got {spec.problem!r}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    check_entry_budget(n * spec.row_length, "cca batch")
    rate = spec.snr / cca_critical_snr(spec.k)
    factors = np.stack(spec.spike.factors)  # (k, d)
    rng = np.random.default_rng(seed)

    def propose(chunk):
        x = rng.standard_normal((chunk, spec.k, spec.d))
        signs = np.sign(np.einsum("nkd,kd->nk", x, factors)).prod(axis=1)
        u = rng.random(chunk)
        return x[u * (1.0 + rate) < 1.0 + rate * signs]

    rows, proposed = rejection_sample(n, propose, (spec.k, spec.d))
    return SampleBatch(spec, rows.reshape(n, -1), seed, meta={"proposals": proposed})


# ---------------------------------------------------------------------------
# reductions


def reduce_ngca_to_glm(batch: SampleBatch, seed: int) -> SampleBatch:
    """Relabel planted-projection samples as a binary regression problem.

    Draw ``r ~ Bern(1/2)`` per row and emit features ``(2r - 1) x`` with
    label ``r``.  When the measure's density ratio has symmetrized part
    identically one, the features are exactly Gaussian and all signal
    moves into the label: ``P(r = 1 | f) = ratio(<f, v> / sqrt(d)) / 2``.
    That symmetry is a precondition and is checked on a grid to 1e-6.
    """
    spec = batch.spec
    if spec.problem != "ngca":
        raise ValueError(f"expected an ngca batch, got {spec.problem!r}")
    measure = spec.measure
    grid = np.linspace(-4.0, 4.0, 1601)
    sym = 0.5 * (measure.density_ratio(grid) + measure.density_ratio(-grid))
    if not np.all(np.abs(sym - 1.0) <= 1e-6):
        raise ValueError(
            "measure density ratio is not odd around 1; the relabeling "
            "would distort the feature marginal"
        )
    rng = np.random.default_rng(seed)
    r = rng.integers(0, 2, size=batch.n).astype(np.float64)
    features = (2.0 * r - 1.0)[:, None] * batch.data
    glm_spec = ModelSpec(
        problem="glm",
        k=spec.k,
        d=spec.d,
        snr=spec.snr,
        direction=np.asarray(spec.direction),
        measure=measure,
    )
    return SampleBatch(glm_spec, features, seed, labels=r)


def reduce_cca_to_parity(batch: SampleBatch, seed: int) -> SampleBatch:
    """Relabel correlated views as a noisy-parity problem (odd k only).

    Features are ``(2r - 1) x`` over the concatenated views with label
    ``r ~ Bern(1/2)``; the label then agrees with the sign parity over
    the planted coordinates at rate ``(1 + Lambda) / 2``, where
    ``Lambda = snr / (2/pi)^{k/2}``.  Requires coordinate factors so the
    relevant subset is well defined.
    """
    spec = batch.spec
    if spec.problem != "cca":
        raise ValueError(f"expected a cca batch, got {spec.problem!r}")
    if spec.k % 2 != 1:
        raise ValueError("parity relabeling needs an odd number of views")
    subset = []
    for view, v in enumerate(spec.spike.factors):
        nonzero = np.flatnonzero(v)
        if len(nonzero) != 1:
            raise ValueError("parity relabeling needs coordinate factors")
        subset.append(view * spec.d + int(nonzero[0]))
    rate = spec.snr / cca_critical_snr(spec.k)
    rng = np.random.default_rng(seed)
    r = rng.integers(0, 2, size=batch.n).astype(np.float64)
    features = (2.0 * r - 1.0)[:, None] * batch.data
    parity_spec = ModelSpec(
        problem="parity",
        k=spec.k,
        d=spec.d,
        snr=rate,
        spike=spec.spike,
        subset=tuple(subset),
    )
    return SampleBatch(parity_spec, features, seed, labels=r)
