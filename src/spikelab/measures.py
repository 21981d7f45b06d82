"""Scalar measures that imitate the Gaussian up to a chosen moment order.

``NonGaussMeasure(kind, order, snr)`` is a univariate measure ``nu``
whose Hermite coefficients ``E_nu[H_i]`` vanish for ``1 <= i <= k - 1``
while the k-th raw moment differs from the Gaussian one by exactly
``snr``.  ``kind`` names one of two constructions, the ``KINDS`` that an
INI file's ``measure`` key takes:

* ``"mog"``: a mixture of ``k/2`` Gaussians placed on scaled
  Gauss-Hermite nodes (even k only), and
* ``"bounded-llr"``: a bounded tilt ``1 + c T_k(x) 1{|x| <= 1}`` of the
  Gaussian density, where ``T_k`` is the top polynomial of the
  cutoff-weighted orthonormal family (any k >= 2).

The mixture's k-th moment sits below the Gaussian's; the bounded tilt's
sits above.  Both orientations are frozen and tested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from spikelab.hermite import (
    WeightedOrthoBasis,
    build_weighted_basis,
    gauss_hermite_rule,
    hermite_eval,
)
from spikelab.tensors import check_count, check_real

KINDS = ("mog", "bounded-llr")

# Hard ceiling on rejection-sampler work, measured in proposals per
# accepted draw.  Hitting it means the envelope is broken, not unlucky.
MAX_PROPOSALS_PER_DRAW = 10_000


@dataclass(frozen=True)
class NonGaussMeasure:
    """A scalar measure that departs from the Gaussian at moment ``order``.

    The three inputs fix the measure: ``kind`` names the construction (one
    of ``KINDS``), ``order`` is the first moment where the measure departs
    from the Gaussian, and ``snr`` is the size of that departure.  The
    rest is derived from them and takes no part in ``==``: ``lambda_k``,
    the largest admissible ``snr`` for the construction at this order, and
    the construction's payload.

    ``"mog"``
        Mixture of k/2 Gaussians matching moments below k, gap snr at k;
        even k only.  Start from the (k/2)-node Gauss-Hermite measure W,
        which agrees with the Gaussian on all polynomials of degree
        <= k - 1 and undershoots ``E[H_k]`` by ``(k/2)! / sqrt(k!)``.
        Shrink it by ``gamma = (snr / lambda_k)^{1/k}`` and re-inflate
        with independent Gaussian noise of variance ``1 - gamma^2``; the
        Hermite coefficients scale by ``gamma^i``, which preserves the
        zeros and dials the k-th moment gap to exactly ``snr``.
        Admissible for ``0 <= snr <= lambda_k / 2`` with ``lambda_k =
        (k/2)!``.  Payload: ``means``, ``mix_weights`` and the common
        variance ``sigma2``.
    ``"bounded-llr"``
        Bounded density tilt with moment gap ``-snr`` at order k.  The
        density ratio is ``1 + (snr / lambda_k) T_k(x) 1{|x| <= 1} /
        ||T_k||_inf`` with ``T_k`` the top weighted orthonormal
        polynomial, so the ratio lives in ``[1 - snr / lambda_k, 1 + snr
        / lambda_k]`` and is in particular bounded and nonnegative for
        ``snr <= lambda_k``.  Orthogonality of ``T_k`` to lower monomials
        kills the Hermite coefficients 1 .. k - 1; the k-th raw moment
        exceeds the Gaussian one by exactly ``snr``.  Admissible for
        ``0 < snr <= lambda_k``.  Payload: ``basis``, the weighted
        orthonormal family of degree k.
    """

    kind: str
    order: int
    snr: float
    lambda_k: float = field(init=False, compare=False)
    means: np.ndarray | None = field(default=None, init=False, compare=False)
    mix_weights: np.ndarray | None = field(default=None, init=False, compare=False)
    sigma2: float | None = field(default=None, init=False, compare=False)
    basis: WeightedOrthoBasis | None = field(default=None, init=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown measure kind {self.kind!r}")
        check_count("order", self.order, low=2)
        check_real("snr", self.snr)
        k, snr = self.order, self.snr
        if self.kind == "mog":
            if k % 2 != 0:
                raise ValueError(f"mixture construction needs even k >= 2, got {k}")
            num = k // 2
            rule = gauss_hermite_rule(num)
            # alpha_k = E[Z^k H_k(Z)], the k-th moment's top Hermite component.
            moment_rule = gauss_hermite_rule(k + 1)
            alpha_k = moment_rule.expect(
                moment_rule.nodes**k * hermite_eval(k, moment_rule.nodes)
            )
            ehk = rule.expect(hermite_eval(k, rule.nodes))
            lambda_k = abs(alpha_k) * abs(ehk)
            if not 0.0 <= snr <= lambda_k / 2.0 + 1e-12:
                raise ValueError(
                    f"snr {snr} outside [0, lambda_k / 2] with lambda_k = {lambda_k}"
                )
            gamma = (snr / lambda_k) ** (1.0 / k)
            means = gamma * rule.nodes
            weights = rule.weights.copy()
            means.flags.writeable = False
            weights.flags.writeable = False
            object.__setattr__(self, "means", means)
            object.__setattr__(self, "mix_weights", weights)
            object.__setattr__(self, "sigma2", 1.0 - gamma**2)
        else:
            basis = build_weighted_basis(k)
            lambda_k = basis.lambda_max
            if not 0.0 < snr <= lambda_k + 1e-12:
                raise ValueError(
                    f"snr {snr} outside (0, lambda_k] with lambda_k = {lambda_k}"
                )
            object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "lambda_k", lambda_k)

    # -- density ---------------------------------------------------------

    def density_ratio(self, x) -> np.ndarray:
        """``d(nu) / d(gaussian)`` evaluated pointwise."""
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "mog":
            # Ratio of the mixture density to phi(x); each component is
            # N(mean, sigma2) so the Gaussian normalizers divide out to
            # a 1/sigma factor.
            sigma2 = self.sigma2
            expo = (
                x[..., None] ** 2 / 2.0
                - (x[..., None] - self.means) ** 2 / (2.0 * sigma2)
            )
            return (np.exp(expo) @ self.mix_weights) / math.sqrt(sigma2)
        basis = self.basis
        tilt = np.where(
            np.abs(x) <= 1.0,
            basis.eval(basis.degree, np.clip(x, -1.0, 1.0)) / basis.sup_norm,
            0.0,
        )
        return 1.0 + (self.snr / self.lambda_k) * tilt

    # -- moments and Hermite coefficients --------------------------------

    def hermite_coefficient(self, degree: int) -> float:
        """``E_nu[H_degree]`` for the orthonormal Hermite family.

        A tilt's correction integral runs on its basis's Gauss-Legendre
        rule, since the integrand has a hard cutoff at the interval ends.
        """
        degree = check_count("degree", degree, low=0)
        if self.kind == "mog":
            return self._mixture_expect(
                lambda x: hermite_eval(degree, x), degree // 2 + 2
            )
        basis = self.basis
        if degree + basis.degree > 2 * len(basis.nodes) - 1:
            raise ValueError(
                f"attached rule not exact for degree {degree + basis.degree}"
            )
        if degree == 0:
            return 1.0
        # E_0[H_t] vanishes for t >= 1.
        return self._tilt_term(hermite_eval(degree, basis.nodes))

    def nu_hat(self, up_to: int) -> np.ndarray:
        return np.array([self.hermite_coefficient(t) for t in range(up_to + 1)])

    def moment(self, j: int) -> float:
        """Raw moment ``E_nu[x^j]`` by exact quadrature."""
        j = check_count("moment order", j, low=0)
        if self.kind == "mog":
            return self._mixture_expect(lambda x: x**j, j // 2 + 1)
        return gaussian_moment(j) + self._tilt_term(self.basis.nodes**j)

    def _mixture_expect(self, f, num_nodes: int) -> float:
        """``E_nu[f]`` from a ``num_nodes``-node Gauss-Hermite rule per component."""
        rule = gauss_hermite_rule(num_nodes)
        sigma = math.sqrt(self.sigma2)
        total = 0.0
        for mean, p in zip(self.means, self.mix_weights):
            total += p * rule.expect(f(mean + sigma * rule.nodes))
        return total

    def _tilt_term(self, fvals: np.ndarray) -> float:
        """``E_nu[f] - E_0[f]`` for a tilt, from ``f``'s values at the basis nodes."""
        basis = self.basis
        corr = basis.inner(fvals, basis.eval(basis.degree, basis.nodes))
        return (self.snr / self.lambda_k) * corr / basis.sup_norm

    def moment_gap(self) -> float:
        """Signed gap ``E[Z^k] - E_nu[x^k]`` at the departure order."""
        return gaussian_moment(self.order) - self.moment(self.order)

    # -- sampling --------------------------------------------------------

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        check_count("sample count", n, low=0)
        if self.kind == "mog":
            idx = rng.choice(len(self.means), size=n, p=self.mix_weights)
            return self.means[idx] + math.sqrt(self.sigma2) * rng.standard_normal(n)
        # The density ratio is bounded by 1 + snr / lambda_k, so plain
        # rejection against the Gaussian proposal works with that
        # constant envelope.
        envelope = 1.0 + self.snr / self.lambda_k

        def propose(chunk):
            z = rng.standard_normal(chunk)
            u = rng.random(chunk)
            return z[u * envelope < self.density_ratio(z)]

        return rejection_sample(n, propose)[0]


def rejection_sample(n: int, propose, row_shape=()) -> tuple[np.ndarray, int]:
    """``(rows, proposals)``: the first ``n`` accepted rows, in draw order.

    ``propose(chunk)`` draws ``max(2 * missing, 256)`` proposals and
    returns the accepted ones, shaped ``(accepted, *row_shape)``; more
    than ``MAX_PROPOSALS_PER_DRAW * n`` proposals raise ``RuntimeError``.
    """
    check_count("n", n, low=0)
    out = np.empty((n, *row_shape))
    filled = 0
    proposed = 0
    while filled < n:
        chunk = max(2 * (n - filled), 256)
        proposed += chunk
        if proposed > MAX_PROPOSALS_PER_DRAW * n:
            raise RuntimeError(
                "rejection sampler exceeded its proposal budget; "
                "the envelope constant is wrong"
            )
        kept = propose(chunk)
        take = min(len(kept), n - filled)
        out[filled : filled + take] = kept[:take]
        filled += take
    return out, proposed


def gaussian_moment(j: int) -> int:
    """``E[Z^j]`` for a standard Gaussian ``Z`` as an exact integer:
    ``(j - 1)!!`` (an empty product, 1, at j = 0), or 0 for odd j."""
    j = check_count("moment order", j, low=0)
    return 0 if j % 2 else math.prod(range(1, j, 2))
