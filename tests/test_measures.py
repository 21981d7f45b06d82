"""Tests for the moment-matching scalar measures."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikelab.measures import (
    KINDS,
    MAX_PROPOSALS_PER_DRAW,
    NonGaussMeasure,
    rejection_sample,
)
from spikelab.measures import gaussian_moment as exact_gaussian_moment


def gaussian_moment(j):
    if j % 2 == 1:
        return 0.0
    return float(math.prod(range(1, j, 2))) if j > 0 else 1.0


def test_gaussian_moment_is_the_exact_integer():
    # E[Z^j] = (j - 1) E[Z^(j - 2)], in Python integers; past j = 33 the
    # double factorial has no exact float.
    expected = [1, 0]
    for j in range(2, 80):
        expected.append((j - 1) * expected[j - 2])
    got = [exact_gaussian_moment(j) for j in range(80)]
    assert got == expected and all(type(v) is int for v in got)


# ---------------------------------------------------------------------------
# Gaussian mixture construction


@pytest.mark.parametrize("k", [2, 4, 6])
def test_mog_critical_scale_closed_form(k):
    # lambda_k = (k/2)! for the mixture route: alpha_k = sqrt(k!) and the
    # (k/2)-node rule's k-th Hermite coefficient is -(k/2)!/sqrt(k!).
    m = NonGaussMeasure("mog", k, 0.1)
    assert m.lambda_k == pytest.approx(math.factorial(k // 2), rel=1e-12)


@pytest.mark.parametrize("k", [2, 4, 6])
@pytest.mark.parametrize("frac", [0.1, 0.5])
def test_mog_moment_matching_and_gap(k, frac):
    snr = frac * math.factorial(k // 2)
    m = NonGaussMeasure("mog", k, snr)
    assert len(m.means) == k // 2
    for i in range(1, k):
        assert m.hermite_coefficient(i) == pytest.approx(0.0, abs=1e-10)
    # nu_hat_k = -snr / sqrt(k!): the shrink-by-gamma construction lands
    # the k-th coefficient exactly there.
    assert m.hermite_coefficient(k) == pytest.approx(
        -snr / math.sqrt(math.factorial(k)), rel=1e-10
    )
    # E[Z^k] - E_nu[x^k] = +snr: the mixture undershoots.
    assert m.moment_gap() == pytest.approx(snr, rel=1e-10)
    for j in range(k):
        assert m.moment(j) == pytest.approx(gaussian_moment(j), abs=1e-10)


def test_mog_snr_zero_is_gaussian():
    m = NonGaussMeasure("mog", 4, 0.0)
    assert m.sigma2 == pytest.approx(1.0)
    np.testing.assert_allclose(m.means, 0.0, atol=1e-15)
    x = np.linspace(-3, 3, 11)
    np.testing.assert_allclose(m.density_ratio(x), 1.0, atol=1e-12)


def test_mog_preconditions():
    with pytest.raises(ValueError):
        NonGaussMeasure("mog", 3, 0.1)
    with pytest.raises(ValueError):
        NonGaussMeasure("mog", 4, -0.5)
    with pytest.raises(ValueError):
        NonGaussMeasure("mog", 4, 1.01)  # lambda_k / 2 = 1 for k = 4
    NonGaussMeasure("mog", 4, 1.0)  # boundary is admissible


def test_mog_density_ratio_is_a_density():
    # int ratio * phi = 1, checked on a wide Gauss-Hermite rule.
    from spikelab.hermite import gauss_hermite_rule

    m = NonGaussMeasure("mog", 4, 0.7)
    rule = gauss_hermite_rule(48)
    assert rule.expect(m.density_ratio(rule.nodes)) == pytest.approx(1.0, abs=1e-9)


def test_mog_sampling_moments():
    # 2e5 draws; each raw moment is checked inside a 5-sigma band with
    # the sigma estimated from the same draws.  A correct sampler fails
    # a single band with probability < 1e-6.
    m = NonGaussMeasure("mog", 4, 1.0)
    rng = np.random.default_rng(42)
    x = m.sample(200_000, rng)
    for j in range(1, 5):
        target = m.moment(j)
        se = (x**j).std(ddof=1) / math.sqrt(len(x))
        assert abs(np.mean(x**j) - target) < 5 * se, f"moment {j}"


# ---------------------------------------------------------------------------
# bounded likelihood-ratio construction


def tilt_ceiling(k):
    """Largest admissible snr for the bounded tilt at order k."""
    from spikelab.hermite import build_weighted_basis

    return build_weighted_basis(k).lambda_max


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_bounded_llr_profile(k):
    snr = 0.5 * tilt_ceiling(k)
    m = NonGaussMeasure("bounded-llr", k, snr)
    for i in range(1, k):
        assert m.hermite_coefficient(i) == pytest.approx(0.0, abs=1e-9)
    # nu_hat_k = +snr / sqrt(k!), the mirror image of the mixture route.
    assert m.hermite_coefficient(k) == pytest.approx(
        snr / math.sqrt(math.factorial(k)), rel=1e-8
    )
    # The tilt pushes the k-th moment up: gap = E[Z^k] - E_nu = -snr.
    assert m.moment_gap() == pytest.approx(-snr, rel=1e-8)


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_bounded_llr_ratio_bounds(k):
    m = NonGaussMeasure("bounded-llr", k, 0.9 * tilt_ceiling(k))
    grid = np.linspace(-2.5, 2.5, 10_001)
    ratio = m.density_ratio(grid)
    assert np.all(ratio >= -1e-12)
    assert np.all(ratio <= 1.0 + m.snr / m.lambda_k + 1e-12)
    outside = grid[np.abs(grid) > 1.0]
    np.testing.assert_array_equal(m.density_ratio(outside), 1.0)


@pytest.mark.parametrize("k", [3, 5])
def test_bounded_llr_odd_k_symmetry(k):
    # For odd k the tilt polynomial is odd, so the symmetrized ratio is
    # exactly 1: (ratio(x) + ratio(-x)) / 2 = 1.
    m = NonGaussMeasure("bounded-llr", k, 0.5 * tilt_ceiling(k))
    grid = np.linspace(-1.5, 1.5, 2001)
    np.testing.assert_allclose(
        0.5 * (m.density_ratio(grid) + m.density_ratio(-grid)), 1.0, atol=1e-9
    )


def test_bounded_llr_preconditions():
    lam_max = tilt_ceiling(4)
    with pytest.raises(ValueError):
        NonGaussMeasure("bounded-llr", 4, 0.0)
    with pytest.raises(ValueError):
        NonGaussMeasure("bounded-llr", 4, 1.5 * lam_max)
    with pytest.raises(ValueError):
        NonGaussMeasure("bounded-llr", 1, 0.1)


def test_bounded_llr_sampling():
    import math as _m

    k = 3
    m = NonGaussMeasure("bounded-llr", k, 0.8 * tilt_ceiling(k))
    rng = np.random.default_rng(7)
    n = 100_000
    x = m.sample(n, rng)
    assert x.shape == (n,)
    # Empirical E[H_k] within 5 sigma of nu_hat_k.
    from spikelab.hermite import hermite_eval

    vals = hermite_eval(k, x)
    se = vals.std(ddof=1) / _m.sqrt(n)
    assert abs(vals.mean() - m.hermite_coefficient(k)) < 5 * se
    # And the first moments of the density are reproduced too.
    for j in (1, 2):
        se_j = (x**j).std(ddof=1) / _m.sqrt(n)
        assert abs(np.mean(x**j) - m.moment(j)) < 5 * se_j


# ---------------------------------------------------------------------------
# the rejection loop


def counting_proposer(accept_every, row_shape=()):
    """Numbers the proposals 0, 1, .. and accepts every ``accept_every``-th,
    each as a row of ``row_shape`` filled with its number; records the
    chunk sizes."""
    chunks = []

    def propose(chunk):
        start = sum(chunks)
        chunks.append(chunk)
        ids = np.arange(start, start + chunk, dtype=np.float64)
        kept = ids[ids % accept_every == 0]
        return kept.reshape(-1, *(1,) * len(row_shape)) * np.ones(row_shape)

    return propose, chunks


def test_rejection_sample_no_rows():
    propose, chunks = counting_proposer(1)
    rows, proposals = rejection_sample(0, propose, (2, 3))
    assert rows.shape == (0, 2, 3) and proposals == 0 and chunks == []


@pytest.mark.parametrize("n, accept_every", [(1, 1), (5, 3), (300, 7), (1000, 2), (600, 500)])
def test_rejection_sample_chunks_and_draw_order(n, accept_every):
    propose, chunks = counting_proposer(accept_every, (2,))
    rows, proposals = rejection_sample(n, propose, (2,))
    assert proposals == sum(chunks)
    filled = total = 0
    for chunk in chunks:
        assert chunk == max(2 * (n - filled), 256)
        total += chunk
        filled = min(n, -(-total // accept_every))  # multiples below total
    assert filled == n
    # The first n accepted proposals, in the order they were drawn.
    expected = accept_every * np.arange(n, dtype=np.float64)
    np.testing.assert_array_equal(rows, np.column_stack([expected, expected]))


def test_rejection_sample_stops_at_the_budget():
    chunks = []

    def accept_nothing(chunk):
        chunks.append(chunk)
        return np.empty(0)

    with pytest.raises(RuntimeError, match="proposal budget"):
        rejection_sample(3, accept_nothing)
    # The chunk that would pass MAX_PROPOSALS_PER_DRAW * n is never drawn.
    assert sum(chunks) <= MAX_PROPOSALS_PER_DRAW * 3 < sum(chunks) + 256


@given(n=st.integers(1, 16), pattern=st.lists(st.booleans(), min_size=1, max_size=32))
@settings(max_examples=30, deadline=None)
def test_rejection_sample_keeps_the_first_accepted_rows(n, pattern):
    # Proposal i is accepted when pattern[i % len(pattern)] is set.
    accept = np.array(pattern)
    budget = MAX_PROPOSALS_PER_DRAW * n
    chunks = []

    def propose(chunk):
        start = sum(chunks)
        chunks.append(chunk)
        assert start + chunk <= budget
        index = np.arange(start, start + chunk)
        return index[accept[index % len(accept)]].astype(np.float64)

    if not accept.any():
        with pytest.raises(RuntimeError, match="proposal budget"):
            rejection_sample(n, propose)
        # It stops at the chunk that would pass the budget.
        assert sum(chunks) + max(2 * n, 256) > budget
        return
    rows, proposals = rejection_sample(n, propose)
    assert proposals == sum(chunks)
    accepted = np.flatnonzero(np.resize(accept, proposals))
    np.testing.assert_array_equal(rows, accepted[:n])


def test_unknown_measure_kind_raises():
    with pytest.raises(ValueError, match="unknown measure kind"):
        NonGaussMeasure(kind="mystery", order=2, snr=0.1)


def test_kinds_are_the_constructions():
    assert KINDS == ("mog", "bounded-llr")
    mog, tilt = (NonGaussMeasure(kind, 4, 0.01) for kind in KINDS)
    assert mog.basis is None and len(mog.means) == 2
    assert tilt.means is None and tilt.mix_weights is None and tilt.sigma2 is None
    assert tilt.basis.degree == 4


def test_the_payload_is_derived_not_passed():
    # A mixture built for snr 0.5 could be passed as the payload of a
    # measure that said snr 0.01, and its moment gap read 0.5.
    m = NonGaussMeasure("mog", 4, 0.5)
    with pytest.raises(TypeError):
        NonGaussMeasure(
            kind="mog",
            order=4,
            snr=0.01,
            lambda_k=2.0,
            means=m.means,
            mix_weights=m.mix_weights,
            sigma2=m.sigma2,
        )
    # A new snr re-derives the payload.
    small = dataclasses.replace(m, snr=0.01)
    assert small.moment_gap() == pytest.approx(0.01, rel=1e-10)
    assert not small.means.flags.writeable and not small.mix_weights.flags.writeable


@pytest.mark.parametrize("kind", KINDS)
def test_measures_from_the_same_inputs_compare_equal(kind):
    # Mixtures used to compare their arrays, and == raised numpy's
    # ambiguous-truth ValueError.
    a, b = NonGaussMeasure(kind, 4, 0.01), NonGaussMeasure(kind, 4, 0.01)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != NonGaussMeasure(kind, 4, 0.005)
    assert a != NonGaussMeasure(kind, 2, 0.01)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("order", [0, 1, True, 4.0, "4"])
def test_measure_order_is_a_count_of_at_least_two(kind, order):
    with pytest.raises(ValueError, match="order must be an integer >= 2"):
        NonGaussMeasure(kind, order, 0.01)


# ---------------------------------------------------------------------------
# Hermite coefficients against independent oracles


def mixture_coefficient_oracle(m, t):
    """``E_nu[H_t]`` in closed form: for ``X ~ N(mu, s2)``, ``E[He_t(X)] =
    sum_j t! / (j! (t - 2j)!) ((s2 - 1) / 2)^j mu^(t - 2j)``."""
    half = (m.sigma2 - 1.0) / 2.0
    terms = [
        p
        * math.factorial(t)
        / (math.factorial(j) * math.factorial(t - 2 * j))
        * half**j
        * mu ** (t - 2 * j)
        for mu, p in zip(m.means.tolist(), m.mix_weights.tolist())
        for j in range(t // 2 + 1)
    ]
    return math.fsum(terms) / math.sqrt(math.factorial(t))


LEGENDRE_400 = np.polynomial.legendre.leggauss(400)


def tilt_coefficient_oracle(m, t):
    """``int_{-1}^{1} (density_ratio - 1) H_t phi`` on a 400-node Legendre rule,
    with ``H_t`` from numpy's ``hermeval``."""
    x, w = LEGENDRE_400
    e = np.zeros(t + 1)
    e[t] = 1.0
    h = np.polynomial.hermite_e.hermeval(x, e) / math.sqrt(math.factorial(t))
    phi = np.exp(-0.5 * x**2) / math.sqrt(2.0 * math.pi)
    return math.fsum(w * (m.density_ratio(x) - 1.0) * h * phi)


@settings(deadline=None, max_examples=60)
@given(
    k=st.sampled_from([2, 4, 6, 8]),
    f=st.floats(min_value=0.0, max_value=1.0),
    t=st.integers(min_value=0, max_value=12),
)
def test_mixture_hermite_coefficient_matches_closed_form(k, f, t):
    m = NonGaussMeasure("mog", k, f * NonGaussMeasure("mog", k, 0.0).lambda_k / 2.0)
    assert abs(m.hermite_coefficient(t) - mixture_coefficient_oracle(m, t)) <= 1e-12


@settings(deadline=None, max_examples=60)
@given(
    k=st.sampled_from([2, 3, 4, 6]),
    f=st.floats(min_value=1e-6, max_value=1.0),
    t=st.integers(min_value=1, max_value=12),
)
def test_tilt_hermite_coefficient_matches_legendre_integral(k, f, t):
    m = NonGaussMeasure("bounded-llr", k, f * tilt_ceiling(k))
    assert abs(m.hermite_coefficient(t) - tilt_coefficient_oracle(m, t)) <= 1e-12
