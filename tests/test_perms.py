from math import factorial

import numpy as np
import pytest
from hypothesis import given, strategies as st

from permrank import perms


def perm_strategy(max_n=6):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.permutations(tuple(range(n)))
    ).map(tuple)


def pair_strategy(max_n=6):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.permutations(tuple(range(n))).map(tuple),
            st.permutations(tuple(range(n))).map(tuple),
        )
    )


def test_compose_applies_right_factor_first():
    # sigma = cycle (1 2 3), pi = transposition (1 2); sigma(pi(i)) pointwise
    sigma = perms.from_one_based([2, 3, 1])
    pi = perms.from_one_based([2, 1, 3])
    assert perms.to_one_based(perms.compose(sigma, pi)) == [3, 2, 1]


def test_compose_identity_and_involution():
    p = (2, 0, 1)
    assert perms.compose(perms.identity(3), p) == p
    swap = (1, 0)
    assert perms.compose(swap, swap) == perms.identity(2)


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        perms.compose((0, 1), (0, 1, 2))


def test_inverse_examples():
    assert perms.inverse(perms.identity(4)) == perms.identity(4)
    assert perms.inverse(perms.from_cycles(3, (1, 2, 3))) == perms.from_cycles(3, (1, 3, 2))
    assert perms.inverse(perms.from_one_based([3, 1, 2])) == perms.from_one_based([2, 3, 1])


def test_cycle_type_examples():
    assert perms.cycle_type(perms.identity(4)) == (1, 1, 1, 1)
    assert perms.cycle_type(perms.from_cycles(3, (1, 2, 3))) == (3,)
    assert perms.cycle_type(perms.from_one_based([2, 1, 4, 3])) == (2, 2)


def test_is_cyclic_examples():
    assert perms.is_cyclic(perms.identity(1))
    assert not perms.is_cyclic(perms.identity(3))
    assert not perms.is_cyclic(perms.from_cycles(4, (1, 2), (3, 4)))


def test_all_perms_lex_order():
    assert perms.all_perms(1) == [(0,)]
    assert perms.all_perms(2) == [(0, 1), (1, 0)]
    sn = perms.all_perms(3)
    assert len(sn) == 6
    assert sn[0] == (0, 1, 2) and sn[-1] == (2, 1, 0)
    assert sn == sorted(sn)


def test_all_perms_rejects_out_of_range():
    with pytest.raises(ValueError):
        perms.all_perms(0)
    with pytest.raises(ValueError):
        perms.all_perms(perms.MAX_ENUM_DEGREE + 1)


@pytest.mark.parametrize("n", range(1, perms.MAX_ENUM_DEGREE + 1))
def test_perm_array_matches_all_perms(n):
    arr = perms.perm_array(n)
    assert arr.dtype == np.int8 and arr.flags.c_contiguous
    assert np.array_equal(arr, np.array(perms.all_perms(n), dtype=np.int8))


@pytest.mark.parametrize("n", [0, perms.MAX_ENUM_DEGREE + 1])
def test_perm_array_rejects_out_of_range(n):
    with pytest.raises(ValueError):
        perms.perm_array(n)


def _composition_ranks(left, right):
    return perms.composition_ranks(left, perms.composition_weights(right))


@pytest.mark.parametrize("n", range(1, 6))
def test_composition_ranks_match_perm_ranks_on_every_pair(n):
    group = perms.perm_array(n)
    ranks = _composition_ranks(group, group)
    assert ranks.shape == (len(group), len(group)) and np.issubdtype(ranks.dtype, np.integer)
    assert np.array_equal(ranks, perms.perm_ranks(group[:, group]))


@pytest.mark.parametrize("n", [6, 7, 8])
def test_composition_ranks_match_perm_ranks_on_samples(n):
    group = perms.perm_array(n)
    rng = np.random.default_rng(n)
    # the first and last permutations make the ranks 0 and n! - 1 appear
    left = group[np.r_[0, len(group) - 1, rng.integers(len(group), size=500)]]
    right = group[np.r_[0, len(group) - 1, rng.integers(len(group), size=60)]]
    ranks = _composition_ranks(left, right)
    assert ranks.min() == 0 and ranks.max() == factorial(n) - 1
    assert np.array_equal(ranks, perms.perm_ranks(left[:, right]))


def test_composition_ranks_stay_exact_up_to_the_float32_bound():
    # 10! - 1 < 2**24 <= 11! - 1: degree 10 is the last whose sums float32 holds exactly
    reverse = np.arange(9, -1, -1, dtype=np.int8)[None]
    assert _composition_ranks(reverse, np.arange(10, dtype=np.int8)[None]).tolist() == [[factorial(10) - 1]]
    with pytest.raises(ValueError, match="2\\*\\*24"):
        perms.composition_weights(np.arange(11, dtype=np.int8)[None])


def test_rank_matches_enumeration_order():
    for n in range(1, 6):
        assert [perms.perm_rank(p) for p in perms.all_perms(n)] == list(range(factorial(n)))


def test_unrank_examples():
    assert perms.perm_rank(perms.identity(5)) == 0
    assert perms.perm_unrank(3, 5) == perms.from_one_based([3, 2, 1])
    assert perms.perm_rank(perms.perm_unrank(4, 13)) == 13
    with pytest.raises(ValueError):
        perms.perm_unrank(3, 6)


def test_cyclic_perms_counts_and_filter():
    for n in range(1, 7):
        cyclic = perms.cyclic_perms(n)
        assert len(cyclic) == factorial(n - 1)
        assert len(set(cyclic)) == len(cyclic)
        assert all(perms.is_cyclic(p) for p in cyclic)
        assert set(cyclic) == {p for p in perms.all_perms(n) if perms.is_cyclic(p)}


@pytest.mark.parametrize("n", range(1, 8))
def test_cyclic_mask_matches_is_cyclic(n):
    perm_arr = perms.perm_array(n)
    assert perms.cyclic_mask(perm_arr).tolist() == [perms.is_cyclic(p) for p in perms.all_perms(n)]
    shuffled = perm_arr[np.random.default_rng(n).permutation(len(perm_arr))]
    assert perms.cyclic_mask(shuffled).tolist() == [perms.is_cyclic(tuple(p)) for p in shuffled.tolist()]


@pytest.mark.parametrize("n", range(1, 8))
def test_kernels_give_the_same_results_in_every_memory_layout(n):
    # the kernels copy their input position-major, so a view's strides must not change what they read
    group = perms.perm_array(n)
    right = group[::max(1, len(group) // 4)]
    weights = perms.composition_weights(right)
    for view in (group, group[:, ::-1], group[::2]):
        rows = [tuple(p) for p in view.tolist()]
        ranks = [perms.perm_rank(p) for p in rows]
        cyclic = [perms.is_cyclic(p) for p in rows]
        products = [[perms.perm_rank(perms.compose(p, tuple(r))) for r in right.tolist()] for p in rows]
        for arr in (view, np.ascontiguousarray(view), np.asfortranarray(view)):
            assert perms.perm_ranks(arr).tolist() == ranks
            assert perms.cyclic_mask(arr).tolist() == cyclic
            assert perms.composition_ranks(arr, weights).tolist() == products


def test_conjugate_examples():
    p = (1, 2, 0)
    assert perms.conjugate(perms.identity(3), p) == p
    x = (2, 0, 1)
    assert perms.conjugate(x, perms.identity(3)) == perms.identity(3)


@given(pair_strategy())
def test_inverse_law_and_conjugation_invariant(pair):
    x, p = pair
    assert perms.compose(p, perms.inverse(p)) == perms.identity(len(p))
    assert perms.cycle_type(perms.conjugate(x, p)) == perms.cycle_type(p)


@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.tuples(*(st.permutations(tuple(range(n))).map(tuple) for _ in range(3)))
))
def test_compose_associative(triple):
    a, b, c = triple
    assert perms.compose(perms.compose(a, b), c) == perms.compose(a, perms.compose(b, c))


@given(perm_strategy())
def test_rank_unrank_round_trip(p):
    assert perms.perm_unrank(len(p), perms.perm_rank(p)) == p


def test_one_based_round_trip_and_validation():
    assert perms.from_one_based([2, 3, 1]) == (1, 2, 0)
    assert perms.to_one_based((1, 2, 0)) == [2, 3, 1]
    with pytest.raises(ValueError):
        perms.from_one_based([1, 1, 3])
