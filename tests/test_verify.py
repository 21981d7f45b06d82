"""Exact-oracle checks: hypercube moments, integrated Hermite norms,
low-degree likelihood-ratio norms, sign coefficients, and the
verification suites built on them."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikelab.harness import Blackboard
from spikelab.measures import NonGaussMeasure
from spikelab.models import cca_critical_snr
from spikelab.verify import (
    LDLRInstance,
    check_rademacher_bounds,
    integrated_hermite_inner,
    integrated_hermite_norm,
    ldlr_norm_exact,
    ldlr_sandwich,
    rademacher_mean_moment,
    run_verification,
    sign_coefficient,
    sign_tail_mass,
)


# -- hypercube moments ------------------------------------------------------


def naive_moment(d, t, marked):
    total = Fraction(0)
    for signs in itertools.product((-1, 1), repeat=d):
        term = Fraction(sum(signs) ** t, d**t)
        for i in marked:
            term *= signs[i]
        total += term
    return total / 2**d


def test_moment_closed_forms():
    assert rademacher_mean_moment(4, 2) == Fraction(1, 4)
    assert rademacher_mean_moment(4, 1, (1,)) == Fraction(1, 4)
    assert rademacher_mean_moment(4, 2, (0, 1)) == Fraction(2, 16)
    d = 10
    assert rademacher_mean_moment(d, 4) == Fraction(3 * d - 2, d**3)
    assert float(rademacher_mean_moment(d, 4)) == pytest.approx(0.028)


def test_moment_odd_parity_vanishes():
    for d in (3, 6):
        assert rademacher_mean_moment(d, 3) == 0
        assert rademacher_mean_moment(d, 2, (0,)) == 0
        assert rademacher_mean_moment(d, 4, (0, 1, 2)) == 0


def test_moment_matches_direct_enumeration():
    d = 6
    for t in range(0, 5):
        for ell in range(0, 4):
            marked = tuple(range(ell))
            assert rademacher_mean_moment(d, t, marked) == naive_moment(d, t, marked)


def test_numpy_integer_orders_give_the_python_integer_values():
    # numpy integers ran the exact arithmetic in int64: at d = 20, t = 30
    # it overflowed to a zero denominator, and check_rademacher_bounds
    # raised on d ** -1.
    assert rademacher_mean_moment(np.int64(20), np.int64(30), (np.int64(1),)) == (
        rademacher_mean_moment(20, 30, (1,))
    )
    assert check_rademacher_bounds(np.int64(6), np.int64(4)) == check_rademacher_bounds(6, 4)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_moment_depends_only_on_marked_count(data):
    d = data.draw(st.integers(3, 10))
    t = data.draw(st.integers(0, 6))
    ell = data.draw(st.integers(0, min(3, d)))
    first = data.draw(st.permutations(range(d)))[:ell]
    second = data.draw(st.permutations(range(d)))[:ell]
    assert rademacher_mean_moment(d, t, tuple(first)) == rademacher_mean_moment(
        d, t, tuple(second)
    )


def test_moment_guards():
    with pytest.raises(ValueError):
        rademacher_mean_moment(25, 2)
    with pytest.raises(ValueError):
        rademacher_mean_moment(4, -1)
    with pytest.raises(ValueError):
        rademacher_mean_moment(4, 2, (7,))


def test_bound_report_all_pass():
    report = check_rademacher_bounds(10, 6)
    assert all(entry["ok"] for entry in report)
    kinds = {entry["kind"] for entry in report}
    assert kinds == {
        "parity-zero",
        "plain-upper",
        "marked-upper",
        "marked-sup-lower",
        "plain-lower",
    }


def test_bound_report_guards():
    with pytest.raises(ValueError):
        check_rademacher_bounds(2, 2)
    with pytest.raises(ValueError):
        check_rademacher_bounds(5, 9)


# -- integrated Hermite norms -----------------------------------------------


def test_unit_weight_norm_matches_plain_moment():
    for d in (3, 6):
        for k in (2, 3):
            for i in range(4):
                value = integrated_hermite_norm(d, k, i)
                target = float(rademacher_mean_moment(d, k * i))
                assert value == pytest.approx(target, abs=1e-12)


def test_weighted_norm_matches_pair_enumeration():
    d = 5
    rng = np.random.default_rng(11)
    s_values = rng.choice([-1.0, 1.0], size=2**d)
    # Direct pair sum with explicit sign vectors, independent of the
    # transform route: bit j set means coordinate j equals -1.
    vectors = np.array(
        [[1.0 - 2.0 * ((a >> j) & 1) for j in range(d)] for a in range(2**d)]
    )
    rho = vectors @ vectors.T / d
    for k, i in ((2, 1), (2, 2), (3, 1)):
        naive = float(
            s_values @ (rho ** (k * i)) @ s_values / 4.0 ** d
        )
        value = integrated_hermite_norm(d, k, i, s_values)
        assert value == pytest.approx(naive, abs=1e-12)


def test_degree_zero_norm_is_squared_mean():
    d = 4
    rng = np.random.default_rng(3)
    s_values = rng.standard_normal(2**d)
    value = integrated_hermite_norm(d, 2, 0, s_values)
    assert value == pytest.approx(float(s_values.mean()) ** 2, abs=1e-12)


def test_normalized_weight_norm_meets_envelope():
    # For ||S||_pi = 1 the norm is a convex combination of marked
    # moments, so the enumeration envelope (C = 16) applies.
    rng = np.random.default_rng(29)
    for d, k, i in ((4, 2, 1), (6, 2, 2), (5, 3, 1)):
        s_values = rng.standard_normal(2**d)
        s_values /= math.sqrt(float(np.mean(s_values**2)))
        value = integrated_hermite_norm(d, k, i, s_values)
        t = k * i
        assert value <= (16.0 * t) ** (t / 2.0) * d ** (-math.ceil(t / 2.0))


def test_cross_degree_inner_is_exactly_zero():
    assert integrated_hermite_inner(4, 2, 1, 2) == 0.0
    assert integrated_hermite_inner(6, 3, 0, 4) == 0.0
    same = integrated_hermite_inner(4, 2, 2, 2)
    assert same == pytest.approx(integrated_hermite_norm(4, 2, 2), abs=1e-15)


def test_norm_guards():
    with pytest.raises(ValueError):
        integrated_hermite_norm(13, 2, 1)
    with pytest.raises(ValueError):
        integrated_hermite_norm(4, 0, 1)
    with pytest.raises(ValueError):
        integrated_hermite_norm(4, 2, 1, np.ones(7))


# -- low-degree likelihood-ratio norms --------------------------------------


def ngca_naive(n_samples, d, t, coeffs):
    nu_sq = [0.0] + [c * c for c in coeffs[:t]]
    total = 0.0
    for degrees in itertools.product(range(t + 1), repeat=n_samples):
        w = sum(degrees)
        if not 1 <= w <= t:
            continue
        weight = 1.0
        for deg in degrees:
            weight *= nu_sq[deg] if deg > 0 else 1.0
        total += weight * float(rademacher_mean_moment(d, w))
    return total


def cca_naive(n_samples, k, d, t, coeffs, snr):
    ratio = snr / cca_critical_snr(k)
    nu_sq = [0.0] + [c * c for c in coeffs[:t]]
    total = 0.0
    for size in range(1, n_samples + 1):
        for _subset in itertools.combinations(range(n_samples), size):
            slots = size * k
            for degrees in itertools.product(range(1, t + 1), repeat=slots):
                if sum(degrees) > t:
                    continue
                weight = ratio ** (2 * size)
                for deg in degrees:
                    weight *= nu_sq[deg]
                for view in range(k):
                    w_view = sum(degrees[j * k + view] for j in range(size))
                    weight *= float(rademacher_mean_moment(d, w_view))
                total += weight
    return total


def mog_instance(k, snr, n_samples, d, t):
    coeffs = tuple(NonGaussMeasure("mog", k, snr).nu_hat(t)[1:])
    return LDLRInstance(
        problem="ngca", N=n_samples, d=d, k=k, t=t, coeffs=coeffs, snr=snr
    )


def test_ngca_norm_matches_naive_enumeration():
    for n_samples in (1, 2, 3):
        inst = mog_instance(2, 0.03, n_samples, 6, 5)
        naive = ngca_naive(n_samples, 6, 5, inst.coeffs)
        assert ldlr_norm_exact(inst) == pytest.approx(naive, rel=1e-12)


def test_cca_norm_matches_naive_enumeration():
    coeffs = tuple(sign_coefficient(j) for j in range(1, 5))
    inst = LDLRInstance(
        problem="cca", N=2, d=5, k=2, t=4, coeffs=coeffs, snr=0.3
    )
    naive = cca_naive(2, 2, 5, 4, coeffs, 0.3)
    value = ldlr_norm_exact(inst)
    assert value > 0.0
    assert value == pytest.approx(naive, rel=1e-12)


def test_gaussian_coefficients_give_zero_norm():
    zero = (0.0,) * 6
    for problem in ("ngca", "cca"):
        inst = LDLRInstance(
            problem=problem, N=3, d=6, k=2, t=6, coeffs=zero, snr=0.2
        )
        assert ldlr_norm_exact(inst) == 0.0


def test_ngca_norm_doubles_with_sample_count():
    # At tiny signal the single-sample terms dominate, so the norm is
    # close to linear in N.
    one = ldlr_norm_exact(mog_instance(4, 0.005, 1, 8, 8))
    two = ldlr_norm_exact(mog_instance(4, 0.005, 2, 8, 8))
    assert 1.9 <= two / one <= 2.1


def test_ngca_norm_monotone_in_degree():
    values = [
        ldlr_norm_exact(mog_instance(2, 0.05, 2, 8, t)) for t in (2, 4, 6, 8)
    ]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[0] > 0.0


def test_sandwich_with_generous_constants():
    inst = mog_instance(2, 0.05, 2, 8, 4)
    result = ldlr_sandwich(inst, c_lower=1e6, c_upper=1e6)
    assert result["upper_ok"] and result["lower_ok"]
    assert result["lower"] <= result["norm"] <= result["upper"]


def test_sandwich_lower_needs_matching_degree():
    for d, t in ((8, 5), (4, 6)):
        inst = mog_instance(2, 0.05, 2, d, t)
        result = ldlr_sandwich(inst, c_lower=1e6, c_upper=1e6)
        assert "lower" not in result
        assert result["upper_ok"]


def test_instance_validation():
    with pytest.raises(ValueError):
        LDLRInstance(problem="tpca", N=1, d=4, k=2, t=2, coeffs=(0.1, 0.1))
    with pytest.raises(ValueError):
        LDLRInstance(problem="ngca", N=1, d=4, k=2, t=4, coeffs=(0.1,))
    with pytest.raises(ValueError):
        LDLRInstance(
            problem="ngca", N=1, d=4, k=2, t=2, coeffs=(0.1, math.nan)
        )
    with pytest.raises(ValueError):
        ldlr_norm_exact(mog_instance(2, 0.05, 7, 8, 4))


# -- sign coefficients ------------------------------------------------------


def quadrature_sign_coefficient(t):
    # int_R H_t(x) sign(x) phi(x) dx folded onto [0, 12]; the density
    # mass beyond the cutoff is ~1e-32.
    from spikelab.hermite import hermite_eval

    nodes, weights = np.polynomial.legendre.leggauss(400)
    x = 6.0 * (nodes + 1.0)
    phi = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    folded = hermite_eval(t, x) - hermite_eval(t, -x)
    return 6.0 * float(weights @ (folded * phi))


def test_sign_coefficient_closed_form_values():
    assert sign_coefficient(1) == pytest.approx(math.sqrt(2.0 / math.pi))
    assert sign_coefficient(3) == pytest.approx(-math.sqrt(2.0 / math.pi) / math.sqrt(6.0))
    for t in (0, 2, 4, 8):
        assert sign_coefficient(t) == 0.0


def test_sign_coefficient_matches_quadrature():
    for t in range(10):
        assert sign_coefficient(t) == pytest.approx(
            quadrature_sign_coefficient(t), abs=1e-10
        )


def test_sign_mass_sums_to_one():
    for cap in (1, 9, 21, 41):
        partial = sum(sign_coefficient(t) ** 2 for t in range(cap + 1))
        assert partial + sign_tail_mass(cap) == pytest.approx(1.0, abs=1e-8)


def test_sign_tail_shrinks():
    assert sign_tail_mass(1) == pytest.approx(1.0 - 2.0 / math.pi, abs=1e-12)
    tails = [sign_tail_mass(cap) for cap in (1, 5, 11, 31)]
    assert all(b < a for a, b in zip(tails, tails[1:]))
    assert tails[-1] > 0.0


# -- verification suites ----------------------------------------------------


def test_harness_suite_audits_every_replay(monkeypatch):
    boards = []

    def audit(board, protocol):
        boards.append(board)
        return len(boards) != 2

    monkeypatch.setattr(Blackboard, "audit", audit)
    results = {r.check: r for r in run_verification("harness")}
    assert len(boards) == 6  # two fixture runs, three shard sizes each
    assert not results["harness/writer-audit"].ok
    assert results["harness/writer-audit"].measured == 1


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_verification("cosmology")
