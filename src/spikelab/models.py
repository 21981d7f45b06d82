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

A ``ModelSpec`` holds each fact of its planted instance once: the snr,
the direction and the spike's factors.  Planted directions and factors
live on the sphere of squared radius d, so the normalized alignment
``<x, v> / d`` is the natural overlap scale throughout.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields

import numpy as np

from spikelab.measures import NonGaussMeasure, rejection_sample
from spikelab.tensors import check_count, check_entry_budget, check_snr, rank1_densify

PROBLEMS = ("tpca", "atpca", "ngca", "cca", "glm", "parity")


def cca_critical_snr(k: int) -> float:
    """Largest admissible correlation strength: (2/pi)^{k/2}."""
    return (2.0 / math.pi) ** (k / 2.0)


def _rademacher(rng: np.random.Generator, d: int) -> np.ndarray:
    check_count("d", d)  # before numpy reads it as a size
    return rng.choice([-1.0, 1.0], size=d)


def _planted_factors(k, d, indices, factors, seed) -> tuple:
    """The factors of an order-k spike: ``factors`` when given, else
    coordinate factors ``sqrt(d) e_i`` at ``indices`` or, when those are
    not given either, at indices drawn from ``seed``."""
    check_count("k", k)  # before numpy reads them as sizes
    check_count("d", d)
    if factors is None:
        if indices is None:
            rng = np.random.default_rng(check_count("seed", seed, low=0))
            indices = rng.integers(0, d, size=k)
        factors = [math.sqrt(d) * np.eye(d)[i] for i in indices]
    return tuple(factors)


def _on_sphere(v, d: int, name: str) -> np.ndarray:
    """A read-only float64 copy of ``v``, a d-vector with squared norm d.

    The copy owns its data: a caller that writes to ``v`` or to the array
    ``v`` views changes no spec, and ``v`` itself stays writable.
    """
    v = np.array(v, dtype=np.float64)
    if v.shape != (d,):
        raise ValueError(f"{name} shape {v.shape} != ({d},)")
    nrm2 = float(v @ v)
    if not math.isclose(nrm2, d, rel_tol=1e-9, abs_tol=1e-9):
        raise ValueError(f"{name} squared norm {nrm2} is not d = {d} (1e-9 tolerance)")
    v.flags.writeable = False
    return v


@dataclass(frozen=True)
class ModelSpec:
    """A fully specified planted instance (problem, sizes, signal).

    ``factors`` are the k factors of the planted tensor, or none.  A tpca
    spec holds ``(direction,) * k``; factors passed to it must equal it.
    A spec with a ``measure`` has the measure's order as k and its snr.
    """

    problem: str
    k: int
    d: int
    snr: float
    factors: tuple = ()
    direction: np.ndarray | None = None
    measure: NonGaussMeasure | None = None
    subset: tuple = ()

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}")
        check_count("k", self.k)
        check_count("d", self.d)
        check_snr(self.snr)
        if self.direction is not None:
            direction = _on_sphere(self.direction, self.d, "direction")
            object.__setattr__(self, "direction", direction)
        factors = tuple(_on_sphere(v, self.d, "factor") for v in self.factors)
        if factors and len(factors) != self.k:
            raise ValueError(f"got {len(factors)} factors for order {self.k}")
        if self.problem == "tpca":
            if any(
                self.direction is None or not np.array_equal(v, self.direction)
                for v in factors
            ):
                raise ValueError("tpca factors must each equal its direction")
            if self.direction is not None:
                factors = (self.direction,) * self.k
        object.__setattr__(self, "factors", factors)
        measure = self.measure
        if measure is not None and (self.k, self.snr) != (measure.order, measure.snr):
            raise ValueError(
                f"spec k {self.k} and snr {self.snr} differ from its measure's "
                f"order {measure.order} and snr {measure.snr}"
            )

    def __eq__(self, other):
        """Field by field, the direction and the factors by ``np.array_equal``
        (``==`` on an array has no single truth value)."""
        if type(other) is not type(self):
            return NotImplemented
        for f in fields(self):
            same = np.array_equal if f.name in ("direction", "factors") else operator.eq
            if not same(getattr(self, f.name), getattr(other, f.name)):
                return False
        return True

    # -- constructors ----------------------------------------------------

    @classmethod
    def tpca(cls, k, d, snr, direction=None, seed=0) -> "ModelSpec":
        """Symmetric spiked tensor; default direction is Rademacher."""
        if direction is None:
            direction = _rademacher(np.random.default_rng(check_count("seed", seed, low=0)), d)
        return cls(problem="tpca", k=k, d=d, snr=snr, direction=direction)

    @classmethod
    def atpca(cls, k, d, snr, indices=None, factors=None, seed=0) -> "ModelSpec":
        """Asymmetric spiked tensor with coordinate factors by default."""
        factors = _planted_factors(k, d, indices, factors, seed)
        return cls(problem="atpca", k=k, d=d, snr=snr, factors=factors)

    @classmethod
    def ngca(cls, d, measure: NonGaussMeasure, direction=None, seed=0) -> "ModelSpec":
        """Planted non-Gaussian projection; k and snr come from the measure."""
        if direction is None:
            direction = _rademacher(np.random.default_rng(check_count("seed", seed, low=0)), d)
        return cls(
            problem="ngca",
            k=measure.order,
            d=d,
            snr=measure.snr,
            direction=direction,
            measure=measure,
        )

    @classmethod
    def cca(cls, k, d, snr, indices=None, factors=None, seed=0) -> "ModelSpec":
        """k correlated Gaussian views; coordinate factors by default."""
        check_count("k", k, low=2)  # before snr is compared with a k-dependent ceiling
        check_snr(snr)
        if snr > cca_critical_snr(k) + 1e-12:
            raise ValueError(
                f"snr {snr} above the critical value {cca_critical_snr(k)}"
            )
        factors = _planted_factors(k, d, indices, factors, seed)
        return cls(problem="cca", k=k, d=d, snr=snr, factors=factors)

    # -- geometry --------------------------------------------------------

    @property
    def row_length(self) -> int:
        if self.problem in ("tpca", "atpca"):
            return self.d**self.k
        if self.problem in ("ngca", "glm"):
            return self.d
        return self.k * self.d  # cca, parity


def expect_problem(spec: ModelSpec, *problems: str) -> None:
    """Raise ``ValueError`` unless ``spec`` is a spec of one of ``problems``."""
    if spec.problem not in problems:
        raise ValueError(f"expected problem {' or '.join(problems)}, got {spec.problem!r}")


def _sealed(a) -> np.ndarray:
    """``a`` as a read-only C-ordered float64 array that no other handle writes.

    An array that is already one and owns its memory is kept: the samplers
    seal theirs before they hand them over.  Any other array is copied, so
    a caller's array is never frozen in place and no view moves a batch.
    """
    a = np.asarray(a)
    kept = a.dtype == np.float64 and a.flags.c_contiguous and a.flags.owndata
    if a.flags.writeable or not kept:
        a = np.array(a, dtype=np.float64, order="C")
        a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SampleBatch:
    """n sample rows drawn from one planted instance."""

    spec: ModelSpec
    data: np.ndarray
    seed: int
    labels: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        check_count("seed", self.seed, low=0)
        data = _sealed(self.data)
        if data.ndim != 2 or data.shape[1] != self.spec.row_length:
            raise ValueError(
                f"data shape {data.shape} incompatible with row length "
                f"{self.spec.row_length}"
            )
        object.__setattr__(self, "data", data)
        if self.labels is not None:
            labels = _sealed(self.labels)
            if labels.shape != (data.shape[0],):
                raise ValueError("labels must be one scalar per row")
            if not np.all((labels == 0.0) | (labels == 1.0)):
                raise ValueError("labels must be 0/1")
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    def views(self) -> np.ndarray:
        """Per-view slices for multi-view rows, shaped (n, k, d)."""
        expect_problem(self.spec, "cca", "parity")
        return self.data.reshape(self.n, self.spec.k, self.spec.d)


# ---------------------------------------------------------------------------
# samplers


def _sample_spiked_tensor(spec: ModelSpec, n: int, seed: int) -> SampleBatch:
    check_count("n", n)
    check_entry_budget(n * spec.row_length, f"{spec.problem} batch")
    rng = np.random.default_rng(check_count("seed", seed, low=0))
    data = rng.standard_normal((n, spec.row_length))
    data += rank1_densify(spec.factors, spec.snr)
    data.flags.writeable = False
    return SampleBatch(spec, data, seed)


def sample_tpca(spec: ModelSpec, n: int, seed: int) -> SampleBatch:
    """X_i = snr * v^{(x)k} / sqrt(d^k) + W_i with iid N(0,1) entries."""
    expect_problem(spec, "tpca")
    return _sample_spiked_tensor(spec, n, seed)


def sample_atpca(spec: ModelSpec, n: int, seed: int) -> SampleBatch:
    """X_i = snr * (v_1 x .. x v_k) / sqrt(d^k) + W_i, same noise model."""
    expect_problem(spec, "atpca")
    return _sample_spiked_tensor(spec, n, seed)


def sample_ngca(spec: ModelSpec, n: int, seed: int) -> SampleBatch:
    """Gaussian in every direction but the planted one.

    ``x_i = eta_i v / ||v|| + (I - v v^T / d) z_i`` with ``eta ~ nu`` and
    ``z_i ~ N(0, I_d)``; the planted projection ``<x_i, v> / sqrt(d)``
    equals ``eta_i`` exactly.
    """
    expect_problem(spec, "ngca")
    if spec.measure is None:
        raise ValueError("ngca spec has no measure to sample from")
    check_count("n", n)
    check_entry_budget(n * spec.d, "ngca batch")
    rng = np.random.default_rng(check_count("seed", seed, low=0))
    eta = spec.measure.sample(n, rng)
    z = rng.standard_normal((n, spec.d))
    v = spec.direction
    data = np.outer(eta, v / math.sqrt(spec.d)) + z - np.outer((z @ v) / spec.d, v)
    data.flags.writeable = False
    return SampleBatch(spec, data, seed)


def sample_cca(spec: ModelSpec, n: int, seed: int) -> SampleBatch:
    """k jointly tilted Gaussian views, marginally N(0, I_d) each.

    The joint density against the product Gaussian is ``1 + Lambda *
    prod_l sign(<x^(l), v_l>)`` with ``Lambda = snr / (2/pi)^{k/2}``;
    sampling is by rejection with the constant envelope ``1 + Lambda``.
    """
    expect_problem(spec, "cca")
    check_count("n", n)
    check_entry_budget(n * spec.row_length, "cca batch")
    rate = spec.snr / cca_critical_snr(spec.k)
    factors = np.stack(spec.factors)  # (k, d)
    rng = np.random.default_rng(check_count("seed", seed, low=0))

    def propose(chunk):
        x = rng.standard_normal((chunk, spec.k, spec.d))
        signs = np.sign(np.einsum("nkd,kd->nk", x, factors)).prod(axis=1)
        u = rng.random(chunk)
        return x[u * (1.0 + rate) < 1.0 + rate * signs].reshape(-1, spec.row_length)

    rows, proposed = rejection_sample(n, propose, (spec.row_length,))
    rows.flags.writeable = False
    return SampleBatch(spec, rows, seed, meta={"proposals": proposed})


# The sampleable problems, each with its sampler ``(spec, n, seed) -> batch``.
SAMPLERS = {
    "tpca": sample_tpca,
    "atpca": sample_atpca,
    "ngca": sample_ngca,
    "cca": sample_cca,
}


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
    expect_problem(spec, "ngca")
    measure = spec.measure
    if measure is None:
        raise ValueError("ngca batch has no measure to check the relabeling against")
    grid = np.linspace(-4.0, 4.0, 1601)
    sym = 0.5 * (measure.density_ratio(grid) + measure.density_ratio(-grid))
    if not np.all(np.abs(sym - 1.0) <= 1e-6):
        raise ValueError(
            "measure density ratio is not odd around 1; the relabeling "
            "would distort the feature marginal"
        )
    rng = np.random.default_rng(check_count("seed", seed, low=0))
    r = rng.integers(0, 2, size=batch.n).astype(np.float64)
    features = (2.0 * r - 1.0)[:, None] * batch.data
    glm_spec = ModelSpec(
        problem="glm",
        k=spec.k,
        d=spec.d,
        snr=spec.snr,
        direction=spec.direction,
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
    expect_problem(spec, "cca")
    if spec.k % 2 != 1:
        raise ValueError("parity relabeling needs an odd number of views")
    subset = []
    for view, v in enumerate(spec.factors):
        nonzero = np.flatnonzero(v)
        if len(nonzero) != 1:
            raise ValueError("parity relabeling needs coordinate factors")
        subset.append(view * spec.d + int(nonzero[0]))
    rate = spec.snr / cca_critical_snr(spec.k)
    rng = np.random.default_rng(check_count("seed", seed, low=0))
    r = rng.integers(0, 2, size=batch.n).astype(np.float64)
    features = (2.0 * r - 1.0)[:, None] * batch.data
    parity_spec = ModelSpec(
        problem="parity",
        k=spec.k,
        d=spec.d,
        snr=rate,
        factors=spec.factors,
        subset=tuple(subset),
    )
    return SampleBatch(parity_spec, features, seed, labels=r)
