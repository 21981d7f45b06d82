"""Tests for flat tensor storage, rank-one densification, contraction, and overlap."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikelab.models import ModelSpec
from spikelab.tensors import (
    contract_batch,
    entry_budget,
    outer_power,
    outer_product,
    overlap,
    rank1_densify,
    set_entry_budget,
)


def test_flat_layout_is_row_major():
    d = 3
    a = np.array([1.0, -1.0, 1.0])
    b = np.array([-1.0, -1.0, 1.0])
    flat = rank1_densify((a, b), 3.0)
    for i in range(d):
        for j in range(d):
            assert flat[i * d + j] == 3.0 / d * a[i] * b[j]


def test_entry_budget_guard():
    prev = set_entry_budget(100)
    try:
        with pytest.raises(MemoryError):
            rank1_densify((np.ones(5),) * 3, 1.0)
        with pytest.raises(MemoryError):
            outer_power(np.ones(5), 3)
        rank1_densify((np.ones(10),) * 2, 1.0)
    finally:
        set_entry_budget(prev)
    assert entry_budget() == prev


# ---------------------------------------------------------------------------
# rank-one densification and the factor checks


def test_spike_norm_validation():
    # Factors live on ModelSpec, which holds them to the sphere of
    # squared radius d and to shape (d,).
    d = 5
    good = np.ones(d) * math.sqrt(1.0)  # entries +-1 have squared norm d
    ModelSpec.atpca(k=1, d=d, snr=1.0, factors=(good,))
    with pytest.raises(ValueError, match="squared norm"):
        ModelSpec.atpca(k=1, d=d, snr=1.0, factors=(np.ones(d) * 2.0,))
    with pytest.raises(ValueError, match="shape"):
        ModelSpec.atpca(k=1, d=d, snr=1.0, factors=(np.ones(d + 1),))
    with pytest.raises(ValueError, match="shape"):
        ModelSpec.atpca(k=1, d=d, snr=1.0, factors=(np.ones((d, 1)),))


def test_densify_rejects_no_factors():
    with pytest.raises(ValueError, match="factor"):
        rank1_densify((), 1.0)


def test_densify_matches_naive_loops():
    rng = np.random.default_rng(0)
    d, k = 3, 3
    v = rng.choice([-1.0, 1.0], size=d)
    dense = rank1_densify((v,) * k, 2.5).reshape((d,) * k)
    scale = 2.5 / math.sqrt(d**k)
    for i in range(d):
        for j in range(d):
            for l in range(d):
                assert dense[i, j, l] == pytest.approx(scale * v[i] * v[j] * v[l])


def test_densify_asymmetric_factors():
    d = 4
    e0 = np.zeros(d)
    e0[0] = math.sqrt(d)
    e1 = np.zeros(d)
    e1[1] = math.sqrt(d)
    dense = rank1_densify((e0, e1), 3.0).reshape(d, d)
    # Only the (0, 1) cell survives: 3 * sqrt(d) * sqrt(d) / sqrt(d^2) = 3.
    expected = np.zeros((d, d))
    expected[0, 1] = 3.0
    np.testing.assert_allclose(dense, expected, atol=1e-12)


def test_spike_frobenius_norm_equals_snr():
    # ||snr * v1 x .. x vk / sqrt(d^k)||_F = snr when ||v_i||^2 = d.
    rng = np.random.default_rng(1)
    for k in (2, 3, 4):
        d = 3
        v = rng.choice([-1.0, 1.0], size=d)
        dense = rank1_densify((v,) * k, 1.7)
        assert np.linalg.norm(dense) == pytest.approx(1.7, rel=1e-12)


# ---------------------------------------------------------------------------
# contraction


def test_contract_matches_index_sum():
    rng = np.random.default_rng(2)
    d, k = 3, 3
    entries = rng.standard_normal(d**k)
    psi = rng.standard_normal(d ** (k - 1))
    got = contract_batch(entries[None, :], d, psi)[0]
    cube = entries.reshape(d, d, d)
    psi_cube = psi.reshape(d, d)
    expected = np.zeros(d)
    for i in range(d):
        for j1 in range(d):
            for j2 in range(d):
                expected[i] += cube[j1, j2, i] * psi_cube[j1, j2]
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_contract_rank_one_identity():
    # Contracting v x v x v with (v/||v||)^{x 2} returns ||v||^2 * v * snr-ish
    # scaling; checked against the closed form.
    d, k = 4, 3
    v = np.ones(d)  # squared norm d
    v = v * 1.0
    dense = rank1_densify((v * math.sqrt(1.0),) * k, 1.0)
    unit = v / np.linalg.norm(v)
    psi = np.multiply.outer(unit, unit).reshape(-1)
    got = contract_batch(dense[None, :], d, psi)[0]
    # <v, u>^{k-1} * v / sqrt(d^k) with u = v/||v||: (sqrt(d))^{k-1} v / sqrt(d^k)
    expected = v / math.sqrt(d)
    np.testing.assert_allclose(got, expected, atol=1e-12)


@settings(deadline=None, max_examples=60)
@given(
    d=st.integers(min_value=2, max_value=4),
    k=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_contract_batch_agrees_with_single(d, k, seed):
    rng = np.random.default_rng(seed)
    n = 5
    batch = rng.standard_normal((n, d**k))
    psi = rng.standard_normal(d ** (k - 1))
    got = contract_batch(batch, d, psi)
    cube_psi = psi.reshape((d,) * (k - 1))
    for i in range(n):
        cube = batch[i].reshape((d,) * k)
        single = np.tensordot(cube, cube_psi, axes=(range(k - 1), range(k - 1)))
        np.testing.assert_allclose(got[i], single, atol=1e-10)


def test_outer_power_matches_contract_template():
    rng = np.random.default_rng(3)
    u = rng.standard_normal(3)
    p = outer_power(u, 3)
    expected = np.einsum("i,j,k->ijk", u, u, u).reshape(-1)
    np.testing.assert_allclose(p, expected, atol=1e-12)


@settings(deadline=None, max_examples=100)
@given(
    lengths=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    integral=st.booleans(),
)
def test_outer_product_matches_einsum(lengths, seed, integral):
    rng = np.random.default_rng(seed)
    if integral:  # small integers: every product is exact
        vectors = [rng.integers(-9, 10, n).astype(np.float64) for n in lengths]
    else:
        vectors = [rng.standard_normal(n) for n in lengths]
    letters = "abcd"[: len(lengths)]
    expected = np.einsum(",".join(letters) + "->" + letters, *vectors).reshape(-1)
    got = outer_product(vectors)
    assert got.shape == (math.prod(lengths),)
    if integral:
        np.testing.assert_array_equal(got, expected)
    else:
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0)


# ---------------------------------------------------------------------------
# overlap


def test_overlap_basic_values():
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 2.0])
    assert overlap(a, a) == 1.0
    assert overlap(a, b) == 0.0
    assert overlap(a, -3.0 * a) == 1.0


@settings(deadline=None, max_examples=100)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    scale=st.floats(min_value=1e-3, max_value=1e3),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_overlap_scale_invariant_and_bounded(seed, scale, sign):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(6)
    w = rng.standard_normal(6)
    base = overlap(v, w)
    assert 0.0 <= base <= 1.0
    assert overlap(v, sign * scale * w) == pytest.approx(base, rel=1e-9)


def test_overlap_rejects_zero_and_mismatch():
    with pytest.raises(ValueError):
        overlap(np.zeros(3), np.ones(3))
    with pytest.raises(ValueError):
        overlap(np.ones(3), np.ones(4))
