"""Orthonormal Hermite polynomials, Gaussian quadrature, weighted bases.

Everything here is scalar-valued machinery used by the measure
constructions and the verification oracles.  The Hermite family is the
probabilist's one, normalized so that ``E[H_i(Z) H_j(Z)] = delta_ij``
for ``Z ~ N(0, 1)``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from spikelab.tensors import check_count

_EPS = float(np.finfo(np.float64).eps)
# Gauss-Legendre nodes behind every weighted basis, and the grid size of
# the sup-norm search on [-1, 1].
_QUAD_POINTS = 256
_GRID_POINTS = 100_000


def hermite_all(max_degree: int, x) -> np.ndarray:
    """Orthonormal probabilist's Hermite polynomials ``H_0 .. H_max_degree``.

    Evaluations follow the three-term recurrence

        sqrt(n + 1) H_{n+1}(x) = x H_n(x) - sqrt(n) H_{n-1}(x)

    with ``H_0 = 1`` and ``H_1 = x``.  For ``Z ~ N(0, 1)`` the family
    satisfies ``E[H_i(Z) H_j(Z)] = delta_ij``, and for a shifted input
    ``E[H_n(mu + Z)] = mu^n / sqrt(n!)``.  Evaluated at ``x``, the result
    has shape ``(max_degree + 1,) + shape(x)``.
    """
    check_count("max_degree", max_degree, low=0)
    x = np.asarray(x, dtype=np.float64)
    out = np.empty((max_degree + 1,) + x.shape, dtype=np.float64)
    out[0] = 1.0
    if max_degree >= 1:
        out[1] = x
    for n in range(1, max_degree):
        out[n + 1] = (x * out[n] - math.sqrt(n) * out[n - 1]) / math.sqrt(n + 1)
    return out


def hermite_eval(degree: int, x):
    """Evaluate the orthonormal Hermite polynomial of the given degree.

    Scalar inputs give back a float, arrays an array of the same shape.
    """
    vals = hermite_all(degree, x)[degree]
    if np.ndim(x) == 0:
        return float(vals)
    return vals


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a discrete measure on the real line.

    For Gauss-Hermite rules the weights sum to one, so the rule can be
    read as a finitely supported probability measure.  ``expect`` takes
    the array of function values at the nodes.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be matching 1-d arrays")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        nodes.flags.writeable = False
        weights.flags.writeable = False

    def expect(self, values) -> float:
        return float(np.dot(self.weights, np.asarray(values, dtype=np.float64)))


def _tridiag_eigh(diag: np.ndarray, offdiag: np.ndarray):
    """Eigendecomposition of a real symmetric tridiagonal matrix.

    Implicit-shift QL iteration (a direct port of the classical tql2
    routine).  Returns eigenvalues in ascending order and the matrix of
    eigenvectors with matching columns.  Cubic in the matrix size, which
    is fine at quadrature scale.
    """
    d = np.asarray(diag, dtype=np.float64).copy()
    n = d.size
    e = np.zeros(n, dtype=np.float64)
    if n > 1:
        e[: n - 1] = np.asarray(offdiag, dtype=np.float64)
    z = np.eye(n, dtype=np.float64)

    for l in range(n):
        for iteration in range(51):
            # Look for a negligible subdiagonal entry that splits the matrix.
            m = l
            while m < n - 1:
                if abs(e[m]) <= _EPS * (abs(d[m]) + abs(d[m + 1])):
                    break
                m += 1
            if m == l:
                break
            if iteration == 50:
                raise RuntimeError("tridiagonal QL iteration failed to converge")
            # Form the implicit shift from the 2x2 block at l.
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = 1.0
            c = 1.0
            p = 0.0
            underflow = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                col = z[:, i + 1].copy()
                z[:, i + 1] = s * z[:, i] + c * col
                z[:, i] = c * z[:, i] - s * col
            if not underflow:
                d[l] -= p
                e[l] = g
                e[m] = 0.0

    order = np.argsort(d, kind="stable")
    return d[order], z[:, order]


def gauss_hermite_rule(num_nodes: int) -> QuadratureRule:
    """Gauss-Hermite rule for the standard Gaussian weight.

    Golub-Welsch on the Jacobi matrix of the orthonormal Hermite family:
    zero diagonal and off-diagonal entries ``sqrt(1), .., sqrt(n - 1)``.
    Nodes are the eigenvalues; the weight at a node is the squared first
    component of its eigenvector.  Nodes come out symmetric about zero
    and the weights sum to one; both properties are enforced exactly by
    symmetrizing and renormalizing after the eigensolve.

    A rule with ``n`` nodes satisfies ``E[p(X)] = E[p(Z)]`` for every
    polynomial ``p`` of degree at most ``2n - 1``, ``Z ~ N(0, 1)``.

    Rules are memoized by node count: the eigensolve runs once per
    ``n`` and every later call returns the same ``QuadratureRule``,
    whose arrays are read-only.  ``num_nodes`` is checked by
    ``tensors.check_count`` before the lookup, so a float or a bool
    raises ``ValueError`` instead of hashing equal to an int key
    (``2.0 == 2``) and receiving the rule cached under it.
    """
    return _hermite_rule(check_count("num_nodes", num_nodes))


@functools.cache
def _hermite_rule(num_nodes: int) -> QuadratureRule:
    diag = np.zeros(num_nodes)
    offdiag = np.sqrt(np.arange(1, num_nodes, dtype=np.float64))
    eigvals, eigvecs = _tridiag_eigh(diag, offdiag)
    nodes = eigvals
    weights = eigvecs[0, :] ** 2
    # The spectrum of the Jacobi matrix is symmetric about zero; pair up
    # mirrored nodes and average away the eigensolver's rounding noise.
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    weights = weights / weights.sum()
    return QuadratureRule(nodes=nodes, weights=weights)


@functools.cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``_QUAD_POINTS``-node Gauss-Legendre rule on [-1, 1], built once."""
    nodes, weights = np.polynomial.legendre.leggauss(_QUAD_POINTS)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _weighted_dot(w: np.ndarray, f: np.ndarray, g: np.ndarray) -> float:
    """``sum_i w_i f_i g_i``: the one weighted sum behind every basis product."""
    return float(np.dot(w, f * g))


@dataclass(frozen=True)
class WeightedOrthoBasis:
    """Polynomials orthonormal for ``<f, g> = E[f(Z) g(Z) 1{|Z| <= 1}]``.

    ``coeffs[j]`` holds the power-basis coefficients of the degree-j
    polynomial ``T_j`` (row length ``degree + 1``, high-order entries
    zero).  Leading coefficients are positive by convention, which pins
    the sign of ``moment_proj = <x^k, T_k>`` to be positive as well.

    ``sup_norm`` is the maximum of ``|T_degree|`` over [-1, 1] and
    ``lambda_max = |moment_proj| / sup_norm`` is the largest tilt size
    for which ``1 + (t / lambda_max) T_degree / sup_norm`` stays
    nonnegative on the interval for ``t <= lambda_max``.
    """

    degree: int
    coeffs: np.ndarray
    nodes: np.ndarray
    leg_weights: np.ndarray
    gauss_weights: np.ndarray
    sup_norm: float
    moment_proj: float

    @property
    def lambda_max(self) -> float:
        return abs(self.moment_proj) / self.sup_norm

    def eval(self, j: int, x):
        check_count("index", j, low=0)
        if j > self.degree:
            raise ValueError(f"index {j} outside basis range [0, {self.degree}]")
        x = np.asarray(x, dtype=np.float64)
        return np.polynomial.polynomial.polyval(x, self.coeffs[j])

    def inner(self, fvals: np.ndarray, gvals: np.ndarray) -> float:
        """Weighted inner product from node values on ``self.nodes``."""
        return _weighted_dot(self.leg_weights * self.gauss_weights, fvals, gvals)


def _sup_norm_on_interval(coeffs: np.ndarray) -> float:
    """Maximum of ``|p|`` over [-1, 1] by grid search plus local refinement."""
    polyval = np.polynomial.polynomial.polyval
    grid = np.linspace(-1.0, 1.0, _GRID_POINTS)
    vals = np.abs(polyval(grid, coeffs))
    idx = int(np.argmax(vals))
    best = float(vals[idx])
    lo = grid[max(idx - 1, 0)]
    hi = grid[min(idx + 1, _GRID_POINTS - 1)]
    for _ in range(3):
        local = np.linspace(lo, hi, 1001)
        lvals = np.abs(polyval(local, coeffs))
        j = int(np.argmax(lvals))
        best = max(best, float(lvals[j]))
        lo = local[max(j - 1, 0)]
        hi = local[min(j + 1, 1000)]
    return best


def build_weighted_basis(k: int) -> WeightedOrthoBasis:
    """Gram-Schmidt on ``1, x, .., x^k`` under the cutoff-Gaussian product.

    The inner product is ``<f, g> = int_{-1}^{1} f g phi`` with ``phi``
    the standard normal density, discretized on a 256-node
    Gauss-Legendre rule mapped to [-1, 1].  The rule integrates the
    polynomial part exactly at machine precision for every degree used
    here, and ``phi`` is entire, so the node count is far past the knee
    of the error curve.  The Legendre rule is built once and shared,
    read-only, as every basis's ``nodes`` and ``leg_weights``.

    Bases are memoized on ``k``: every later call with the same degree
    returns the same basis, whose arrays are read-only.  ``k`` is
    checked by ``tensors.check_count`` before the lookup, as in
    ``gauss_hermite_rule``.

    Orthonormalization runs on node values with coefficient tracking and
    one re-orthogonalization pass.  Degrees are capped at 60: well past
    anything the constructions use, and safely clear of the point where
    the power-basis representation degrades.
    """
    k = check_count("k", k)
    if k > 60:
        raise ValueError(f"degree {k} too large for a power-basis representation")
    return _weighted_basis(k)


@functools.cache
def _weighted_basis(k: int) -> WeightedOrthoBasis:
    nodes, leg_weights = _legendre_rule()
    gauss_weights = np.exp(-0.5 * nodes**2) / math.sqrt(2.0 * math.pi)
    w = leg_weights * gauss_weights

    # Monomial values at the nodes, one column per degree.
    vander = np.vander(nodes, k + 1, increasing=True)
    coeffs = np.zeros((k + 1, k + 1))
    ortho_vals = np.zeros((_QUAD_POINTS, k + 1))
    for j in range(k + 1):
        vals = vander[:, j].copy()
        cj = np.zeros(k + 1)
        cj[j] = 1.0
        raw_norm2 = _weighted_dot(w, vals, vals)
        for _ in range(2):
            for i in range(j):
                proj = _weighted_dot(w, vals, ortho_vals[:, i])
                vals -= proj * ortho_vals[:, i]
                cj -= proj * coeffs[i]
        norm2 = _weighted_dot(w, vals, vals)
        if not norm2 > raw_norm2 * 1e-24:
            raise ValueError(f"weighted Gram matrix numerically singular at degree {j}")
        norm = math.sqrt(norm2)
        ortho_vals[:, j] = vals / norm
        coeffs[j] = cj / norm
        if coeffs[j, j] < 0:
            coeffs[j] = -coeffs[j]
            ortho_vals[:, j] = -ortho_vals[:, j]

    sup_norm = _sup_norm_on_interval(coeffs[k])
    moment_proj = _weighted_dot(w, vander[:, k], ortho_vals[:, k])
    coeffs.flags.writeable = False
    gauss_weights.flags.writeable = False
    return WeightedOrthoBasis(
        degree=k,
        coeffs=coeffs,
        nodes=nodes,
        leg_weights=leg_weights,
        gauss_weights=gauss_weights,
        sup_norm=sup_norm,
        moment_proj=moment_proj,
    )
