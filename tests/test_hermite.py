"""Tests for the Hermite / quadrature layer."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikelab.hermite import (
    QuadratureRule,
    _hermite_rule,
    _tridiag_eigh,
    _weighted_basis,
    build_weighted_basis,
    gauss_hermite_rule,
    hermite_all,
    hermite_eval,
)


def gaussian_moment(j: int) -> float:
    """E[Z^j] for Z ~ N(0,1): 0 for odd j, (j-1)!! for even j."""
    if j % 2 == 1:
        return 0.0
    return float(math.prod(range(1, j, 2))) if j > 0 else 1.0


# ---------------------------------------------------------------------------
# recurrence and closed forms


def test_low_degree_closed_forms():
    x = np.linspace(-3, 3, 41)
    vals = hermite_all(4, x)
    np.testing.assert_allclose(vals[0], np.ones_like(x), atol=1e-12)
    np.testing.assert_allclose(vals[1], x, atol=1e-12)
    np.testing.assert_allclose(vals[2], (x**2 - 1) / math.sqrt(2), atol=1e-12)
    np.testing.assert_allclose(vals[3], (x**3 - 3 * x) / math.sqrt(6), atol=1e-12)
    np.testing.assert_allclose(
        vals[4], (x**4 - 6 * x**2 + 3) / math.sqrt(24), atol=1e-12
    )


@settings(deadline=None, max_examples=200)
@given(
    degree=st.integers(min_value=0, max_value=12),
    x=st.floats(min_value=-25.0, max_value=25.0),
)
def test_matches_hermite_e_oracle(degree, x):
    # Independent oracle: numpy's He_n with the 1/sqrt(n!) normalization.
    e = np.zeros(degree + 1)
    e[degree] = 1.0
    expected = np.polynomial.hermite_e.hermeval(x, e) / math.sqrt(math.factorial(degree))
    got = hermite_eval(degree, x)
    assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)


@settings(deadline=None, max_examples=200)
@given(
    degree=st.integers(min_value=0, max_value=10),
    x=st.floats(min_value=-10.0, max_value=10.0),
)
def test_growth_envelope(degree, x):
    # |H_k(z)| <= (1 + |z|)^k pointwise.
    assert abs(hermite_eval(degree, x)) <= (1.0 + abs(x)) ** degree + 1e-12


def test_orthonormality_under_gaussian():
    rule = gauss_hermite_rule(20)
    vals = hermite_all(8, rule.nodes)
    gram = (vals * rule.weights) @ vals.T
    np.testing.assert_allclose(gram, np.eye(9), atol=1e-10)


@pytest.mark.parametrize("mu", [-1.0, 0.0, 0.5, 2.0])
def test_shifted_gaussian_mean(mu):
    # E[H_k(mu + Z)] = mu^k / sqrt(k!).
    rule = gauss_hermite_rule(24)
    vals = hermite_all(8, mu + rule.nodes)
    for k in range(9):
        got = rule.expect(vals[k])
        assert got == pytest.approx(mu**k / math.sqrt(math.factorial(k)), abs=1e-8)


@pytest.mark.parametrize("rho", [0.3, -0.7])
def test_correlated_pair_diagonalizes(rho):
    # E[H_i(Z) H_j(Z')] = rho^i * delta_ij for a rho-correlated pair,
    # evaluated by a tensorized 24x24 Gauss-Hermite rule (exact well past
    # the degrees involved; 1e-7 leaves room for cancellation noise).
    rule = gauss_hermite_rule(24)
    z = rule.nodes[:, None]
    y = rule.nodes[None, :]
    w2 = rule.weights[:, None] * rule.weights[None, :]
    zp = rho * z + math.sqrt(1 - rho**2) * y
    for i in range(6):
        hi = hermite_eval(i, z * np.ones_like(zp))
        for j in range(6):
            hj = hermite_eval(j, zp)
            got = float(np.sum(w2 * hi * hj))
            expected = rho**i if i == j else 0.0
            assert got == pytest.approx(expected, abs=1e-7)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_exponential_tail_sandwich(lam):
    # lam^t/t! <= sum_{i>=t} lam^i/i! <= (1 - lam/(t+1))^{-1} lam^t/t!
    for t in range(math.ceil(lam), 21):
        head = lam**t / math.factorial(t)
        tail = 0.0
        term = head
        i = t
        while term > 1e-30 * (tail + head):
            tail += term
            i += 1
            term *= lam / i
        assert head <= tail * (1 + 1e-15)
        assert tail <= head / (1 - lam / (t + 1)) * (1 + 1e-15)


# ---------------------------------------------------------------------------
# quadrature


def test_rule_one_node():
    rule = gauss_hermite_rule(1)
    np.testing.assert_allclose(rule.nodes, [0.0], atol=0)
    np.testing.assert_allclose(rule.weights, [1.0], atol=0)
    # H_2 at the single node: H_2(0) = -1/sqrt(2).
    assert rule.expect(hermite_eval(2, rule.nodes)) == pytest.approx(
        -1 / math.sqrt(2), abs=1e-15
    )


def test_rule_two_nodes():
    rule = gauss_hermite_rule(2)
    np.testing.assert_allclose(np.sort(rule.nodes), [-1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(rule.weights, [0.5, 0.5], atol=1e-12)


@pytest.mark.parametrize("n", [3, 5, 8, 13, 21, 40])
def test_rule_matches_hermegauss_oracle(n):
    x, w = np.polynomial.hermite_e.hermegauss(n)
    w = w / w.sum()
    rule = gauss_hermite_rule(n)
    np.testing.assert_allclose(np.sort(rule.nodes), np.sort(x), atol=1e-12)
    np.testing.assert_allclose(
        rule.weights[np.argsort(rule.nodes)], w[np.argsort(x)], atol=1e-13
    )


@pytest.mark.parametrize("n", [1, 2, 4, 7, 12])
def test_rule_exact_for_polynomials(n):
    rule = gauss_hermite_rule(n)
    for j in range(2 * n):
        got = rule.expect(rule.nodes**j)
        # Attainable precision scales with the absolute-value integral,
        # which bounds the rounding mass the dot product can shed.
        slack = 1e-13 * max(1.0, rule.expect(np.abs(rule.nodes) ** j))
        assert got == pytest.approx(gaussian_moment(j), abs=slack)


def test_rule_symmetric_and_normalized():
    for n in range(1, 25):
        rule = gauss_hermite_rule(n)
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_array_equal(rule.nodes, -rule.nodes[::-1])
        np.testing.assert_array_equal(rule.weights, rule.weights[::-1])


@pytest.mark.parametrize("num_nodes", [1, 2, 3, 4])
def test_discrete_measure_hermite_profile(num_nodes):
    # The l-node rule kills H_1 .. H_{2l-1} and its first surviving
    # coefficient is E[H_{2l}] = -l! / sqrt((2l)!).
    rule = gauss_hermite_rule(num_nodes)
    vals = hermite_all(2 * num_nodes, rule.nodes)
    for i in range(1, 2 * num_nodes):
        assert rule.expect(vals[i]) == pytest.approx(0.0, abs=1e-12)
    expected = -math.factorial(num_nodes) / math.sqrt(math.factorial(2 * num_nodes))
    assert rule.expect(vals[2 * num_nodes]) == pytest.approx(expected, rel=1e-12)


def test_tridiag_eigh_against_dense_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 13))
        diag = rng.standard_normal(n)
        off = rng.standard_normal(max(n - 1, 0))
        evals, evecs = _tridiag_eigh(diag, off)
        dense = np.diag(diag)
        for i in range(n - 1):
            dense[i, i + 1] = dense[i + 1, i] = off[i]
        ref = np.linalg.eigvalsh(dense)
        np.testing.assert_allclose(evals, ref, atol=1e-10)
        np.testing.assert_allclose(evecs.T @ evecs, np.eye(n), atol=1e-12)
        np.testing.assert_allclose(evecs @ np.diag(evals) @ evecs.T, dense, atol=1e-10)


def test_quadrature_rule_validation():
    with pytest.raises(ValueError):
        QuadratureRule(nodes=np.zeros((2, 2)), weights=np.zeros(4))
    with pytest.raises(ValueError):
        gauss_hermite_rule(0)


# ---------------------------------------------------------------------------
# weighted basis on [-1, 1]


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_weighted_basis_orthonormal(k):
    basis = build_weighted_basis(k)
    vals = np.stack([basis.eval(j, basis.nodes) for j in range(k + 1)])
    w = basis.leg_weights * basis.gauss_weights
    gram = (vals * w) @ vals.T
    np.testing.assert_allclose(gram, np.eye(k + 1), atol=1e-8)
    with pytest.raises(ValueError, match=rf"index {k + 1} outside basis range \[0, {k}\]"):
        basis.eval(k + 1, basis.nodes)


def test_weighted_basis_constant_term():
    # T_0 = 1 / sqrt(P(|Z| <= 1)) with P(|Z| <= 1) = 2 Phi(1) - 1.
    basis = build_weighted_basis(3)
    mass = 2 * 0.8413447460685429 - 1
    assert basis.coeffs[0, 0] == pytest.approx(1 / math.sqrt(mass), abs=1e-10)


@pytest.mark.parametrize("k", [2, 3, 4, 6, 8])
def test_weighted_basis_sign_and_parity(k):
    basis = build_weighted_basis(k)
    # Positive leading coefficient pins the sign convention, which in turn
    # makes the monomial projection positive.
    for j in range(k + 1):
        assert basis.coeffs[j, j] > 0
    assert basis.moment_proj > 0
    # T_j inherits the parity of j because the weight is even.
    for j in range(k + 1):
        dead = basis.coeffs[j, (1 - j % 2) :: 2]
        np.testing.assert_allclose(dead, 0.0, atol=1e-9)


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_weighted_basis_sup_norm(k):
    basis = build_weighted_basis(k)
    grid = np.linspace(-1, 1, 200_001)
    dense_max = np.abs(basis.eval(k, grid)).max()
    # The refined search can only beat a fixed grid, never trail it by
    # more than the grid's own resolution error.
    assert basis.sup_norm >= dense_max - 1e-9
    assert basis.sup_norm <= dense_max + 1e-4
    assert basis.lambda_max > 0
    assert basis.lambda_max == pytest.approx(
        abs(basis.moment_proj) / basis.sup_norm, rel=1e-15
    )


def test_weighted_basis_rejects_bad_degree():
    with pytest.raises(ValueError):
        build_weighted_basis(0)
    with pytest.raises(ValueError):
        build_weighted_basis(61)


# ---------------------------------------------------------------------------
# rule memos


@pytest.mark.parametrize("n", [1, 2, 5, 13])
def test_hermite_rule_memo_matches_fresh_solve(n):
    rule = gauss_hermite_rule(n)
    assert gauss_hermite_rule(np.int64(n)) is rule
    fresh = _hermite_rule.__wrapped__(n)  # the uncached tql2 solve
    np.testing.assert_array_equal(rule.nodes, fresh.nodes)
    np.testing.assert_array_equal(rule.weights, fresh.weights)
    assert not rule.nodes.flags.writeable
    assert not rule.weights.flags.writeable


def test_weighted_basis_legendre_memo_matches_fresh_rule():
    basis = build_weighted_basis(3)
    again = build_weighted_basis(4)
    assert again.nodes is basis.nodes
    nodes, weights = np.polynomial.legendre.leggauss(256)
    np.testing.assert_array_equal(basis.nodes, nodes)
    np.testing.assert_array_equal(basis.leg_weights, weights)
    assert not basis.nodes.flags.writeable
    assert not basis.leg_weights.flags.writeable


@pytest.mark.parametrize("k", [2, 3, 6])
def test_weighted_basis_memo_matches_fresh_build(k):
    basis = build_weighted_basis(k)
    assert build_weighted_basis(np.int64(k)) is basis
    fresh = _weighted_basis.__wrapped__(k)  # the uncached build
    for field in dataclasses.fields(basis):
        got, want = getattr(basis, field.name), getattr(fresh, field.name)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), field.name
    for array in (basis.coeffs, basis.nodes, basis.leg_weights, basis.gauss_weights):
        assert not array.flags.writeable


def test_rule_memos_reject_non_int_keys_after_caching():
    gauss_hermite_rule(2)
    build_weighted_basis(2)
    for bad in (2.0, True, np.True_, np.float64(2.0)):
        with pytest.raises(ValueError):
            gauss_hermite_rule(bad)
        with pytest.raises(ValueError):
            build_weighted_basis(bad)
    with pytest.raises(ValueError):
        gauss_hermite_rule(0)
