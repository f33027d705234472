import hashlib
import itertools
import random
import tracemalloc
from fractions import Fraction
from math import comb, factorial, gcd, lcm, prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from permrank import permmatrix, perms, young

FIXED_PRIME = 2147483629  # largest prime below 2**31


def fraction_rank(rows):
    """Independent oracle: Gaussian elimination over exact rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    n_rows, n_cols = len(m), len(m[0]) if m else 0
    for c in range(n_cols):
        pivot = next((i for i in range(rank, n_rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(n_rows):
            if i != rank and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


small_matrix = st.integers(min_value=1, max_value=6).flatmap(
    lambda rows: st.integers(min_value=1, max_value=6).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(min_value=-3, max_value=3), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
)


def test_product_matrix_small_cases():
    assert permmatrix.cycle_product_matrix(1).to_dense().tolist() == [[1]]
    assert permmatrix.cycle_product_matrix(2).to_dense().tolist() == [[0, 1], [1, 0]]
    assert permmatrix.cycle_quotient_matrix(2).to_dense().tolist() == [[0, 1], [1, 0]]


def test_product_matrix_matches_definition():
    for n in (2, 3, 4):
        dense = permmatrix.cycle_product_matrix(n).to_dense()
        group = perms.all_perms(n)
        for i, pi in enumerate(group):
            for j, sigma in enumerate(group):
                assert dense[i, j] == (1 if perms.is_cyclic(perms.compose(sigma, pi)) else 0)


def test_quotient_matrix_matches_definition():
    for n in (2, 3, 4):
        dense = permmatrix.cycle_quotient_matrix(n).to_dense()
        group = perms.all_perms(n)
        for i, pi in enumerate(group):
            for j, sigma in enumerate(group):
                expected = 1 if perms.is_cyclic(perms.compose(sigma, perms.inverse(pi))) else 0
                assert dense[i, j] == expected


def test_quotient_is_row_permuted_product():
    for n in (2, 3, 4, 5):
        p = permmatrix.cycle_product_matrix(n).to_dense()
        q = permmatrix.cycle_quotient_matrix(n).to_dense()
        group = perms.all_perms(n)
        reorder = [perms.perm_rank(perms.inverse(pi)) for pi in group]
        assert (q == p[reorder]).all()


@pytest.mark.parametrize("n", range(1, 6))
def test_row_and_column_sums(n):
    mat = permmatrix.cycle_product_matrix(n)
    assert mat.order == factorial(n)
    assert mat.row_sums().tolist() == [factorial(n - 1)] * factorial(n)
    assert mat.to_dense().sum(axis=0).tolist() == [factorial(n - 1)] * factorial(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_matrices_are_symmetric(n):
    assert permmatrix.cycle_product_matrix(n).is_symmetric()
    assert permmatrix.cycle_quotient_matrix(n).is_symmetric()


@pytest.mark.parametrize("n", range(1, 6))
def test_operator_matrix_equals_quotient_matrix(n):
    assert permmatrix.left_multiplication_matrix(n) == permmatrix.cycle_quotient_matrix(n)


# SHA-256 of ``packed.tobytes()``, recorded from the per-entry build that
# placed every one-bit separately, before the slab-and-coset build
PACKED_SHA256 = {
    (6, "product"): "938e4c776b26a3981cafa1580034cb825a734ef8dff4f568310c9f51fa55c985",
    (6, "quotient"): "aeccb4745391942d0a3b7cce56e443d35105c95793646aee5f19af98d1324970",
    (7, "product"): "f0f99f4aa16c87aafb92cf859515b5419a2b89ff2a3a0894eac400af19618363",
    (7, "quotient"): "dcbd0446f1191e37d44c8eff61a1721ced99006a42e2950ccb01292c8fa5519b",
    (8, "product"): "d2e752f8f9961ce73cecc8d06817b8f60da6079037e4ea1373986cad01164380",
    (8, "quotient"): "d91383c1dd004f1458d3832157d199c99bf5d239bc584838bfde5682e88dac16",
}


@pytest.mark.parametrize("n,form", sorted(PACKED_SHA256))
def test_build_output_is_pinned(n, form):
    mat = getattr(permmatrix, f"cycle_{form}_matrix")(n)
    assert mat.packed.shape == (factorial(n), factorial(n) // 8)
    assert hashlib.sha256(mat.packed.tobytes()).hexdigest() == PACKED_SHA256[n, form]


@pytest.mark.parametrize("form", ["product", "quotient"])
def test_degree_8_build_allocates_little_beside_the_matrix(form):
    # a full (n!, n!/s) index table would add 18 MB, a second copy of the matrix 203 MB
    build = getattr(permmatrix, f"cycle_{form}_matrix")
    tracemalloc.start()
    try:
        mat = build(8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - mat.packed.nbytes <= 16 * 2**20


def test_build_refuses_a_slab_index_out_of_range(monkeypatch):
    # the gather clips instead of raising, so the build checks the range itself
    slab_of = permmatrix._slab

    def short_slab(indicator, n):
        slab, s = slab_of(indicator, n)
        return slab[:-1], s

    monkeypatch.setattr(permmatrix, "_slab", short_slab)
    with pytest.raises(IndexError, match="out of range"):
        permmatrix.cycle_product_matrix(6)


def test_build_refuses_an_inner_slab_index_out_of_range(monkeypatch):
    # degree 8 gathers its slab over S_6 from the 3-byte slab over S_4; only that one is cut short
    gather = permmatrix._gather

    def short_inner_slab(slab, rows, reps):
        return gather(slab[:-1] if slab.shape[1] == 3 else slab, rows, reps)

    monkeypatch.setattr(permmatrix, "_gather", short_inner_slab)
    with pytest.raises(IndexError, match=f"out of range 0..{factorial(8) - 2} "):
        permmatrix.cycle_product_matrix(8)


@pytest.mark.parametrize("n", range(1, 9))
def test_cycle_indicator_marks_the_ranks_of_the_cyclic_perms(n):
    expected = np.zeros(factorial(n), dtype=bool)
    expected[[perms.perm_rank(p) for p in perms.cyclic_perms(n)]] = True
    assert np.array_equal(permmatrix._cycle_indicator(n), expected)


@pytest.mark.parametrize("form", ["product", "quotient"])
def test_degree_8_build_ranks_without_the_oracle(monkeypatch, form):
    # perm_ranks is the oracle the tests check the build against, so the slab and the
    # gathers must not use it; the cycle indicator, which they read, is made beforehand
    indicator = permmatrix._cycle_indicator(8)
    monkeypatch.setattr(permmatrix, "_cycle_indicator", lambda n: indicator)

    def oracle(perm_arr):
        raise AssertionError("the build called perms.perm_ranks")

    monkeypatch.setattr(perms, "perm_ranks", oracle)
    mat = getattr(permmatrix, f"cycle_{form}_matrix")(8)
    assert hashlib.sha256(mat.packed.tobytes()).hexdigest() == PACKED_SHA256[8, form]


def test_degree_8_slab_matches_the_one_level_slab():
    indicator = permmatrix._cycle_indicator(8)
    sub = perms.perm_array(6)
    one_level = np.packbits(
        np.take(indicator.reshape(-1, 720), perms.perm_ranks(sub[:, sub]), axis=1).reshape(-1, 720), axis=1)
    slab, s = permmatrix._slab(indicator, 8)
    assert s == 720
    assert np.array_equal(slab, one_level)


@pytest.mark.parametrize("n", [6, 7])
def test_row_and_column_sums_of_the_coset_build(n):
    mat = permmatrix.cycle_product_matrix(n)
    assert mat.row_sums().tolist() == [factorial(n - 1)] * factorial(n)
    assert mat.to_dense().sum(axis=0).tolist() == [factorial(n - 1)] * factorial(n)


@pytest.mark.parametrize("n", [7, 8])
def test_seeded_entries_match_definition(n):
    mat = permmatrix.cycle_product_matrix(n)
    rng = random.Random(n)
    cycles = perms.cyclic_perms(n)
    ones = 0
    for t in range(200):
        pi = perms.perm_unrank(n, rng.randrange(factorial(n)))
        if t % 2:  # sigma . pi is an n-cycle by construction
            sigma = perms.compose(rng.choice(cycles), perms.inverse(pi))
        else:
            sigma = perms.perm_unrank(n, rng.randrange(factorial(n)))
        expected = 1 if perms.is_cyclic(perms.compose(sigma, pi)) else 0
        assert mat.entry(perms.perm_rank(pi), perms.perm_rank(sigma)) == expected
        ones += expected
    assert ones >= 100


@pytest.mark.parametrize("n", range(1, 8))
def test_ranks_match_perm_rank(n):
    group = perms.all_perms(n)
    random.Random(n).shuffle(group)
    ranks = perms.perm_ranks(np.array(group, dtype=np.int8))
    assert ranks.tolist() == [perms.perm_rank(p) for p in group]


def test_ranks_on_stacked_input():
    # a (group, powers, n) stack of products pi . a^d
    n = 5
    a = perms.from_cycles(n, (1, 2, 3), (4, 5))
    a_pow = np.array([_power(a, d) for d in range(6)], dtype=np.int8)
    perm_arr = np.array(perms.all_perms(n), dtype=np.int8)
    ranks = perms.perm_ranks(perm_arr[:, a_pow])
    assert ranks.shape == (factorial(n), 6)
    for i, pi in enumerate(perms.all_perms(n)):
        for d in range(6):
            assert ranks[i, d] == perms.perm_rank(perms.compose(pi, _power(a, d)))


def test_rank_mod_prime_validates_prime():
    with pytest.raises(ValueError):
        permmatrix.rank_mod_prime(np.eye(3, dtype=np.int64), 101)
    with pytest.raises(ValueError):
        permmatrix.rank_mod_prime(np.eye(3, dtype=np.int64), FIXED_PRIME + 2)


def test_rank_mod_prime_basics():
    assert permmatrix.rank_mod_prime(np.eye(5, dtype=np.int64), FIXED_PRIME) == 5
    assert permmatrix.rank_mod_prime(np.ones((4, 4), dtype=np.int64), FIXED_PRIME) == 1
    assert permmatrix.rank_mod_prime(np.zeros((3, 3), dtype=np.int64), FIXED_PRIME) == 0
    for shape in ((0, 3), (3, 0), (0, 0)):  # an empty matrix has rank 0
        assert permmatrix.rank_mod_prime(np.zeros(shape, dtype=np.int64), FIXED_PRIME) == 0


def test_rank_mod_prime_on_degree_four():
    mat = permmatrix.cycle_product_matrix(4)
    assert permmatrix.rank_mod_prime(mat, FIXED_PRIME) == 20


def test_rank_exact_basics():
    assert permmatrix.rank_exact(np.zeros((4, 4), dtype=np.int64)) == 0
    assert permmatrix.rank_exact(np.eye(6, dtype=np.int64)) == 6
    assert permmatrix.rank_exact([[1, 2], [2, 4]]) == 1
    for shape in ((0, 3), (3, 0), (0, 0)):  # an empty matrix has rank 0
        assert permmatrix.rank_exact(np.zeros(shape, dtype=np.int64)) == 0


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (3, 6), (4, 20), (5, 70)])
def test_rank_exact_on_cycle_matrices(n, expected):
    assert permmatrix.rank_exact(permmatrix.cycle_product_matrix(n)) == expected
    assert expected == comb(2 * n - 2, n - 1)


@pytest.mark.parametrize("n", range(1, 6))
def test_product_and_quotient_ranks_agree(n):
    p = permmatrix.rank_exact(permmatrix.cycle_product_matrix(n))
    q = permmatrix.rank_exact(permmatrix.cycle_quotient_matrix(n))
    assert p == q


@settings(deadline=None, max_examples=60)
@given(small_matrix)
def test_rank_exact_matches_fraction_oracle(rows):
    assert permmatrix.rank_exact(rows) == fraction_rank(rows)


@settings(deadline=None, max_examples=40)
@given(small_matrix)
def test_modular_rank_matches_fraction_oracle(rows):
    # entries are tiny, so no nonzero minor can be divisible by a 31-bit prime
    arr = np.array(rows, dtype=np.int64)
    expected = fraction_rank(rows)
    assert permmatrix.rank_mod_prime(arr, FIXED_PRIME) == expected


def _python_echelon(matrix, p, reduced):
    """Gaussian elimination over Z/pZ on lists: each pivot is the first nonzero row at or below the rank."""
    rows, pivots = [list(row) for row in matrix], []
    for c in range(len(rows[0])):
        r = len(pivots)
        i = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        inverse = pow(rows[r][c], -1, p)
        rows[r] = [x * inverse % p for x in rows[r]]
        for j in range(0 if reduced else r + 1, len(rows)):
            if j != r and rows[j][c]:
                f = rows[j][c]
                rows[j] = [(x - f * y) % p for x, y in zip(rows[j], rows[r])]
        pivots.append(c)
    return rows, pivots


@st.composite
def residue_stacks(draw):
    """(stack, bounds): 1..5 residue matrices of one m x n shape, m, n <= 12, and each one's rank bounds.

    Members are all-zero (rank 0), full-rank (a unit lower triangular
    matrix times a unit upper echelon one, rows shuffled; rank min(m, n))
    or low-rank (an m x r times an r x n product; rank at most r).  Entries
    below 2 make zero columns, row swaps and repeated rows common.
    """
    count, m, n = draw(st.integers(1, 5)), draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members, bounds = [], []
    for kind in draw(st.lists(st.sampled_from(["zero", "full", "low"]), min_size=count, max_size=count)):
        high = draw(st.sampled_from([2, FIXED_PRIME]))
        if kind == "zero":
            member, bound = np.zeros((m, n), dtype=object), (0, 0)
        elif kind == "full":
            lower = np.tril(rng.integers(0, high, size=(m, m)), -1) + np.eye(m, dtype=np.int64)
            upper = np.triu(rng.integers(0, high, size=(m, n)), 1) + np.eye(m, n, dtype=np.int64)
            member = (lower.astype(object) @ upper.astype(object))[rng.permutation(m)]
            bound = (min(m, n), min(m, n))
        else:
            rank = draw(st.integers(1, min(m, n)))
            left, right = (rng.integers(0, high, size=shape).astype(object) for shape in ((m, rank), (rank, n)))
            member, bound = left @ right, (0, rank)
        members.append(member % FIXED_PRIME)
        bounds.append(bound)
    return np.array(members, dtype=np.int64), bounds


@settings(deadline=None, max_examples=150)
@given(residue_stacks(), st.booleans())
def test_stacked_echelon_matches_python_elimination(stack_and_bounds, reduced):
    stack, bounds = stack_and_bounds
    echelon = stack.copy()
    pivots = permmatrix._echelon_mod_p(echelon, FIXED_PRIME, reduced)
    assert len(pivots) == len(stack)
    for member, form, columns, (low, high) in zip(stack, echelon, pivots, bounds):
        rows, expected = _python_echelon(member.tolist(), FIXED_PRIME, reduced)
        assert columns == expected
        assert form.tolist() == rows
        assert low <= len(columns) <= high


def test_stacked_echelon_looks_past_a_column_without_pivots():
    # column 1 has no pivot in either matrix, yet the first has one left in column 2
    stack = np.array([[[1, 0, 0, 0], [0, 0, 1, 0]], [[1, 0, 0, 0], [0, 0, 0, 0]]], dtype=np.int64)
    for reduced in (False, True):
        echelon = stack.copy()
        pivots = permmatrix._echelon_mod_p(echelon, FIXED_PRIME, reduced)
        expected = [_python_echelon(member.tolist(), FIXED_PRIME, reduced) for member in stack]
        assert pivots == [columns for _, columns in expected] == [[0, 2], [0]]
        assert echelon.tolist() == [rows for rows, _ in expected]


def test_stacked_echelon_reduces_at_both_ends_of_the_update_range():
    # with entries 0 and p - 1 the pivot rows scale to 1 and p - 1, so the scaling reaches (p - 1)**2
    # and x - f * y both -(p - 1)**2 and p - 1; a truncating division would leave negatives below 0
    p, rng = FIXED_PRIME, np.random.default_rng(0)
    mixed = (p - 1) * rng.integers(0, 2, size=(20, 9, 9), dtype=np.int64)
    for stack in (np.full((2, 5, 7), p - 1, dtype=np.int64), mixed, mixed.transpose(0, 2, 1).copy()):
        for reduced in (False, True):
            echelon = stack.copy()
            pivots = permmatrix._echelon_mod_p(echelon, p, reduced)
            expected = [_python_echelon(member.tolist(), p, reduced) for member in stack]
            assert pivots == [columns for _, columns in expected]
            assert echelon.tolist() == [rows for rows, _ in expected]


def _low_rank(rng, rows, cols, rank):
    """A random rows x cols matrix of rank at most ``rank``, entries up to about 10**6.

    rank_exact takes its kernel from the narrow side, whose factor has
    entries in -2..2, so the kernel's denominators stay far below sqrt(p/2)
    and the kernel check, not the prime-loop fallback, gives the rank.
    """
    big = rng.integers(-10**5, 10**5 + 1, size=(max(rows, cols), rank))
    small = rng.integers(-2, 3, size=(rank, min(rows, cols)))
    tall = big @ small
    return tall if rows >= cols else tall.T


def test_rank_exact_matches_fractions_on_random_matrices(monkeypatch):
    fallbacks = _spy(monkeypatch, "rank_mod_prime")
    rng = np.random.default_rng(6)
    for rows, cols in [(9, 9), (12, 6), (6, 12), (14, 14), (1, 7), (7, 1)]:
        for rank in range(min(rows, cols, 5) + 1):
            arr = _low_rank(rng, rows, cols, rank)
            assert np.abs(arr).max(initial=0) <= 10**6
            expected = fraction_rank(arr.tolist())
            assert expected <= rank
            assert permmatrix.rank_exact(arr) == expected
    assert fallbacks == []  # every rank was proved mod _CHECK_PRIME, none by the fallback


def _spy(monkeypatch, name):
    """Record the results of permmatrix.<name> while the test runs."""
    results = []
    original = getattr(permmatrix, name)

    def spy(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(permmatrix, name, spy)
    return results


def test_rank_exact_exit_kernel_check_passes(monkeypatch):
    checks, fallbacks = _spy(monkeypatch, "_vanishes"), _spy(monkeypatch, "rank_mod_prime")
    rows = [[1, 2, 3], [2, 4, 6], [1, 0, 1], [3, 2, 5]]
    assert permmatrix.rank_exact(rows) == fraction_rank(rows) == 2
    assert checks == [True] and fallbacks == []


def test_rank_exact_exit_full_column_rank(monkeypatch):
    # rank mod p equal to the column count is the rank: there is no kernel to check
    checks, fallbacks = _spy(monkeypatch, "_vanishes"), _spy(monkeypatch, "rank_mod_prime")
    rows = [[1, 2], [3, 4], [5, 6]]
    assert permmatrix.rank_exact(rows) == permmatrix.rank_exact(np.array(rows).T) == fraction_rank(rows) == 2
    assert permmatrix.rank_exact(np.array(rows)) == 2
    assert checks == [] and fallbacks == []


@pytest.mark.parametrize(
    "rows, expected",
    [
        ([[FIXED_PRIME]], 1),
        ([[1, 1], [1, 1 + FIXED_PRIME]], 2),  # determinant FIXED_PRIME
        ([[3, 5, 7], [6, 10, 14 + FIXED_PRIME], [1, 1, 1]], 3),
    ],
)
def test_rank_exact_exit_unlucky_prime(monkeypatch, rows, expected):
    assert permmatrix.rank_mod_prime(rows, FIXED_PRIME) < expected
    checks, fallbacks = _spy(monkeypatch, "_vanishes"), _spy(monkeypatch, "rank_mod_prime")
    assert permmatrix.rank_exact(rows) == fraction_rank(rows) == expected
    assert checks == [False] and fallbacks == [expected]


def test_rank_exact_exit_reconstruction_fails(monkeypatch):
    # the kernel vector (-1/40000, 1) has a denominator above sqrt(p/2) = 32767
    checks, fallbacks = _spy(monkeypatch, "_vanishes"), _spy(monkeypatch, "rank_mod_prime")
    rows = [[40000, 1], [80000, 2], [-40000, -1]]
    assert permmatrix.rank_exact(rows) == fraction_rank(rows) == 1
    assert checks == [] and fallbacks == [1]


def test_rational_reconstruction_bounds():
    p, bound = FIXED_PRIME, 32767
    fractions = [(0, 1), (1, 1), (-5, 12), (bound, bound - 1), (-bound, bound - 2), (7, 1)]
    u = np.array([n * pow(d, -1, p) % p for n, d in fractions])
    num, den = permmatrix._rational_reconstruction(u, p)
    assert list(zip(num.tolist(), den.tolist())) == fractions
    for n, d in [(1, bound + 1), (bound + 1, 1), (-1, 40000)]:
        u = np.array([n * pow(d, -1, p) % p])
        assert permmatrix._rational_reconstruction(u, p) is None


def test_kernel_check_uses_python_ints_when_int64_could_wrap():
    # 2**40 * 2**24 = 2**64 is 0 in int64 arithmetic
    assert not permmatrix._vanishes(np.array([[1 << 40]]), np.array([[1 << 24]], dtype=object))
    assert permmatrix._vanishes(np.array([[1 << 40, 1 << 40]]), np.array([[1 << 24], [-(1 << 24)]]))


def test_kernel_check_uses_python_ints_where_float64_would_round():
    # (2**53 + 1) - 2**53 = 1, but 2**53 + 1 rounds to 2**53 in float64
    a, kernel = np.array([[(1 << 53) + 1, 1 << 53]]), np.array([[1], [-1]], dtype=object)
    assert not (a.astype(np.float64) @ kernel.astype(np.float64)).any()
    assert not permmatrix._vanishes(a, kernel)
    # just below the bound (top_a * ncols * top_k = 2**53 - 2) float64 is exact
    a, kernel = np.array([[(1 << 52) - 1, -(1 << 52) + 2]]), np.array([[1], [1]], dtype=object)
    assert not permmatrix._vanishes(a, kernel)


def test_rank_exact_with_entries_near_2_to_40(monkeypatch):
    # kernel (a/d1, b/d2, 1), scaled by d1 * d2 to entries near 2**30
    d1, d2, a, b = 32749, 32719, 12345, -23456
    c = (1 << 40) // d1
    rows = [[c * d1, 0, -c * a], [0, c * d2, -c * b], [c * d1, c * d2, -c * (a + b)]]
    assert (d1 * d2) * 3 * max(abs(x) for row in rows for x in row) >= 1 << 62
    checks, fallbacks = _spy(monkeypatch, "_vanishes"), _spy(monkeypatch, "rank_mod_prime")
    assert permmatrix.rank_exact(rows) == fraction_rank(rows) == 2
    assert checks == [True] and fallbacks == []


def _near_2_to_62(rng):
    """A 4 x 3 matrix of rank 2 with entries near 2**62: rows u, v, u + v and u - v."""
    u, v = (rng.integers(1 << 61, 3 << 60, size=3) for _ in range(2))
    return np.array([u, v, u + v, u - v])


def _fallback_cases():
    """(matrix, rank): cycle matrices, seeded low-rank matrices both ways round, entries near 2**62, zero."""
    rng = np.random.default_rng(27)
    cases = [(permmatrix.cycle_product_matrix(k), comb(2 * k - 2, k - 1)) for k in range(1, 6)]
    for rows, cols in [(9, 6), (6, 9), (12, 12)]:
        for rank in range(4):
            arr = _low_rank(rng, rows, cols, rank)
            cases.append((arr, fraction_rank(arr.tolist())))
    big = _near_2_to_62(rng)
    assert big.max() >= 1 << 62
    cases += [(big, fraction_rank(big.tolist())), (big.T, fraction_rank(big.T.tolist()))]
    return cases + [(np.zeros((5, 4), dtype=np.int64), 0), (np.zeros((4, 5), dtype=np.int64), 0)]


@pytest.mark.parametrize("name, stub", [
    ("_vanishes", lambda a, kernel: False),
    ("_rational_reconstruction", lambda u, p: None),
], ids=["kernel-check-fails", "reconstruction-fails"])
def test_rank_exact_forced_fallback_gives_the_rank(monkeypatch, name, stub):
    monkeypatch.setattr(permmatrix, name, stub)
    residues = _spy(monkeypatch, "rank_mod_prime")
    deficient = 0
    for matrix, expected in _fallback_cases():
        before, full = len(residues), min(matrix.shape) if isinstance(matrix, np.ndarray) else matrix.order
        assert permmatrix.rank_exact(matrix) == expected
        # the fallback runs exactly when the rank mod _CHECK_PRIME leaves a kernel, and its largest
        # residue rank is the rank
        assert (len(residues) > before) == (expected < full)
        if expected < full:
            deficient += 1
            assert max(residues[before:]) == expected
    assert deficient == 18  # degrees 4 and 5, 12 low-rank, 2 near 2**62, 2 zero


def test_rank_exact_fallback_stops_at_the_first_prime_past_the_bound(monkeypatch):
    drawn, rank_mod_prime = [], permmatrix.rank_mod_prime

    def spy(m, p):
        drawn.append(p)
        return rank_mod_prime(m, p)

    monkeypatch.setattr(permmatrix, "rank_mod_prime", spy)
    monkeypatch.setattr(permmatrix, "_vanishes", lambda a, kernel: False)
    # of rank 1 mod _CHECK_PRIME, which divides the determinant; the first fallback prime gives full rank
    assert permmatrix.rank_exact([[1, 1], [1, 1 + FIXED_PRIME]]) == 2
    assert len(drawn) == 1
    drawn.clear()
    mat = permmatrix.cycle_product_matrix(5)
    assert permmatrix.rank_exact(mat) == 70
    # rows of 24 ones: the bound on the squared 71-minors is 24**71, about 2**326, so 6 primes
    assert permmatrix._hadamard_bounds(mat.to_dense().astype(np.int64))[71] == 24**71
    assert prod(drawn[:-1]) ** 2 <= 24**71 < prod(drawn) ** 2
    assert len(set(drawn)) == len(drawn) == 6
    assert drawn == list(itertools.islice(permmatrix._distinct_primes(0, 1), 6))


def test_rank_exact_fallback_keeps_the_largest_residue_rank(monkeypatch):
    # an unlucky prime only lowers a residue rank; let the last of the 6 primes degree 5 draws go
    # one short, so that rank 69 would pass its own, smaller bound
    calls, rank_mod_prime = [], permmatrix.rank_mod_prime

    def unlucky_last(m, p):
        calls.append(p)
        return rank_mod_prime(m, p) - (len(calls) == 6)

    monkeypatch.setattr(permmatrix, "rank_mod_prime", unlucky_last)
    monkeypatch.setattr(permmatrix, "_vanishes", lambda a, kernel: False)
    assert prod(itertools.islice(permmatrix._distinct_primes(0, 1), 6)) ** 2 > 24**70
    assert permmatrix.rank_exact(permmatrix.cycle_product_matrix(5)) == 70
    assert len(calls) == 6


def test_rank_exact_fallback_at_int64_min(monkeypatch):
    # rank 1 at the first prime drawn; the rank-2 bound needs the square of -2**63, which wraps in int64
    p1 = next(permmatrix._distinct_primes(0, 1))
    rows = [[-(1 << 63), 0], [0, p1]]
    monkeypatch.setattr(permmatrix, "_CHECK_PRIME", p1)  # an unlucky check prime: it divides the determinant
    checks, residues = _spy(monkeypatch, "_vanishes"), _spy(monkeypatch, "rank_mod_prime")
    assert np.array(rows).dtype == np.int64
    assert permmatrix.rank_exact(rows) == fraction_rank(rows) == 2
    assert checks == [False] and residues[0] == 1 and residues[-1] == 2


def test_modular_rank_never_exceeds_exact():
    rng = np.random.default_rng(11)
    prime_rng = random.Random(3)
    for _ in range(5):
        arr = rng.integers(-2, 3, size=(8, 8)).astype(np.int64)
        exact = permmatrix.rank_exact(arr)
        for _ in range(3):
            p = permmatrix.random_prime(prime_rng)
            assert permmatrix.rank_mod_prime(arr, p) <= exact


def test_rank_exact_order_cap():
    with pytest.raises(ValueError, match="modular"):
        permmatrix.rank_exact(np.zeros((1001, 1001), dtype=np.int64))


@pytest.mark.parametrize("n", range(1, 7))
def test_modular_rank_equals_known_exact_rank(n):
    # the exact ranks are established by test_rank_exact_on_cycle_matrices
    # and the acceptance suite; random primes must reproduce them
    rng = random.Random(1000 + n)
    mat = permmatrix.cycle_product_matrix(n)
    for _ in range(2):
        assert permmatrix.rank_mod_prime(mat, permmatrix.random_prime(rng)) == comb(
            2 * n - 2, n - 1
        )


def test_is_prime_and_random_prime():
    assert permmatrix.is_prime(2) and permmatrix.is_prime(FIXED_PRIME)
    assert not permmatrix.is_prime(1) and not permmatrix.is_prime(FIXED_PRIME + 2)
    rng = random.Random(0)
    for _ in range(5):
        p = permmatrix.random_prime(rng)
        assert (1 << 29) < p < (1 << 31)
        assert permmatrix.is_prime(p)


def test_certified_rank_exact_path():
    cert = permmatrix.certified_rank(4)
    assert cert.rank == 20
    assert cert.method == "exact-fraction-free"
    assert len(cert.primes) == 1 and cert.primes[0] % 12 == 1
    assert cert.primes == permmatrix.certified_rank(4, method="modp", num_primes=1).primes  # the same first draw


def test_certified_rank_modular_path_is_seeded():
    cert1 = permmatrix.certified_rank(7, method="modp", seed=0)
    cert2 = permmatrix.certified_rank(7, method="modp", seed=0)
    assert cert1.rank == 924
    assert cert1.method == "modular-multiprime"
    assert len(cert1.primes) == 3
    assert cert1.primes == cert2.primes


@pytest.mark.parametrize("n, num_primes", [(7, 3), (8, 1)])
def test_unseeded_certificate_equals_seed_0(n, num_primes):
    assert permmatrix.certified_rank(n, num_primes=num_primes) == permmatrix.certified_rank(
        n, num_primes=num_primes, seed=0
    )


def test_certified_rank_skips_a_repeated_prime(monkeypatch):
    expected = permmatrix.certified_rank(7, method="modp", num_primes=3, seed=0)
    draw, drawn = permmatrix.random_prime, []

    def repeating(rng, modulus=1):  # every second draw repeats the one before, without touching rng
        drawn.append(drawn[-1] if len(drawn) % 2 else draw(rng, modulus))
        return drawn[-1]

    monkeypatch.setattr(permmatrix, "random_prime", repeating)
    cert = permmatrix.certified_rank(7, method="modp", num_primes=3, seed=0)
    assert len(drawn) == 5 and len(set(drawn)) == 3
    assert cert == expected and cert.primes == tuple(sorted(set(drawn)))
    assert cert.method == "modular-multiprime"  # three primes leave a class open at seed 0


def test_certified_rank_degree_eight(monkeypatch):
    builds = _spy(monkeypatch, "_build_cycle_matrix")
    cert = permmatrix.certified_rank(8, num_primes=1, seed=8)
    assert cert.rank == 3432
    assert cert.method == "modular-multiprime"
    assert cert.blocks == permmatrix.BlockStructure(((8,), (5, 3)), 120, 120, 336, 16)
    assert builds == []


@pytest.mark.parametrize("n", [6, 7])
def test_certified_rank_builds_no_matrix(monkeypatch, n):
    # the certificates read the symbols from the slab; the k! x k! matrix is never made
    builds = _spy(monkeypatch, "_build_cycle_matrix")
    assert permmatrix.certified_rank(n, num_primes=1).rank == comb(2 * n - 2, n - 1)
    assert builds == []


@pytest.mark.parametrize("num_primes", [0, -2])
def test_certified_rank_rejects_too_few_primes(num_primes):
    with pytest.raises(ValueError, match="num_primes"):
        permmatrix.certified_rank(3, method="modp", num_primes=num_primes)


def test_certified_rank_records_block_structure():
    cert = permmatrix.certified_rank(7, method="modp", num_primes=2, seed=7)
    assert (cert.rank, cert.method) == (924, "modular-multiprime")
    assert cert.blocks == permmatrix.BlockStructure(((5, 2), (4, 3)), 120, 120, 42, 48)  # 24 per prime
    assert "the sum over 24 classes (d1, d2), d1 | 10, d2 | 12," in cert.note
    assert len(cert.primes) == 2 and all(p % 60 == 1 for p in cert.primes)
    assert permmatrix.certified_rank(4).blocks == permmatrix.BlockStructure(((4,), (3, 1)), 12, 12, 2, 6)


def test_certified_rank_note_counts_the_primes():
    one = permmatrix.certified_rank(8, method="modp", num_primes=1, seed=1).note
    assert one.startswith("a lower bound on the rank over the rationals, the sum over 16 classes ")
    assert " largest residue rank r over 1 prime p = 1 (mod 120), " in one
    assert one.endswith("; 16 of the 16 classes not proved, so their r is a lower bound")
    three = permmatrix.certified_rank(7, method="modp", num_primes=3, seed=0).note
    assert " largest residue rank r over 3 primes p = 1 (mod 60), " in three
    assert three.endswith("; 4 of the 24 classes not proved, so their r is a lower bound")
    assert "1 prime" not in three


@pytest.mark.parametrize("n, seed, modulus, closing", [(5, 0, 30, 1), (7, 1, 60, 3)])
def test_certified_rank_modp_is_exact_once_its_primes_close_every_class(n, seed, modulus, closing):
    # modp stops at the prime that closes every class, within its cap of 3, with the exact proof
    cert = permmatrix.certified_rank(n, method="modp", num_primes=3, seed=seed)
    assert (cert.rank, cert.method) == (comb(2 * n - 2, n - 1), "exact-fraction-free")
    drawn = permmatrix._distinct_primes(seed, modulus)
    assert cert.primes == tuple(sorted(itertools.islice(drawn, closing)))
    assert cert == permmatrix.certified_rank(n, method="exact", seed=seed)
    assert not cert.note.startswith("a lower bound") and "not proved" not in cert.note


@pytest.mark.parametrize("n, closing", [(1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 2)])
def test_default_certificate_is_two_sided_up_to_degree_six(n, closing):
    # the default modp cap of 3 primes proves every class up to degree 6, so no degree there needs
    # the unbounded exact loop; a degree that came to need more than 3 would fall to a lower bound
    for seed in range(50):
        cert = permmatrix.certified_rank(n, seed=seed)
        assert (cert.rank, cert.method, len(cert.primes)) == (
            comb(2 * n - 2, n - 1), "exact-fraction-free", closing), seed


def test_certified_rank_with_one_prime_at_degree_six_is_a_lower_bound():
    # one prime leaves classes open at degree 6, and the cap is kept: no second prime is drawn
    cert = permmatrix.certified_rank(6, num_primes=1)
    assert (cert.rank, cert.method, len(cert.primes)) == (252, "modular-multiprime", 1)
    assert cert.blocks.eliminated == 16
    assert cert.note.endswith(" of the 16 classes not proved, so their r is a lower bound")


@pytest.mark.parametrize("seed", [*range(10), *range(104729, 104739)])
def test_certified_rank_modp_with_one_prime_at_degree_seven_is_a_lower_bound(seed):
    # one prime never passes degree 7's orbit-sum bounds, so the label and note claim a lower bound only
    cert = permmatrix.certified_rank(7, method="modp", num_primes=1, seed=seed)
    assert (cert.rank, cert.method, len(cert.primes)) == (924, "modular-multiprime", 1)
    assert cert.note.startswith("a lower bound on the rank over the rationals, ")
    assert cert.note.endswith(" of the 24 classes not proved, so their r is a lower bound")


def _power(a, d):
    out = perms.identity(len(a))
    for _ in range(d):
        out = perms.compose(out, a)
    return out


def _consecutive_cycles(n, cycle_type):
    firsts = [sum(cycle_type[:i]) + 1 for i in range(len(cycle_type))]
    return perms.from_cycles(n, *(tuple(range(f, f + c)) for f, c in zip(firsts, cycle_type)))


@pytest.mark.parametrize("n", range(1, 9))
def test_max_order_cycle_type(n):
    # the pair of cycle types whose free subgroup <a> x <b> has the largest order
    lam, mu = permmatrix._cycle_type_pair(n)
    assert (lam, mu) == {
        1: ((1,), (1,)), 2: ((2,), (1, 1)), 3: ((3,), (2, 1)), 4: ((4,), (3, 1)),
        5: ((5,), (3, 2)), 6: ((6,), (3, 2, 1)), 7: ((5, 2), (4, 3)), 8: ((8,), (5, 3)),
    }[n]
    if n > 6:
        return
    # the freeness rule from perms loops: cycle types of the actual powers
    nontrivial_powers = {}
    for nu in young.partitions(n):
        a = _consecutive_cycles(n, nu)
        nontrivial_powers[nu] = {perms.cycle_type(_power(a, d)) for d in range(1, lcm(*nu))}
        assert nontrivial_powers[nu] == permmatrix._power_cycle_types(nu)
    best = lcm(*lam) * lcm(*mu)
    for nu in nontrivial_powers:
        for rho in nontrivial_powers:
            if not nontrivial_powers[nu] & nontrivial_powers[rho]:
                assert lcm(*nu) * lcm(*rho) <= best
    # and the chosen pair acts freely on both sides: only the identity fixes a point
    a, b = (_consecutive_cycles(n, nu) for nu in (lam, mu))
    pairs = [(_power(a, d), _power(b, e)) for d in range(lcm(*lam)) for e in range(lcm(*mu))]
    for g in perms.all_perms(n):
        row_fixers = [x for x in pairs if perms.compose(x[1], perms.compose(g, x[0])) == g]
        col_fixers = [x for x in pairs if perms.compose(x[0], perms.compose(g, x[1])) == g]
        assert len(row_fixers) == len(col_fixers) == 1


@pytest.mark.parametrize("modulus", [1, 2, 6, 12, 15])
def test_random_prime_congruent_to_one(modulus):
    rng = random.Random(modulus)
    for _ in range(5):
        p = permmatrix.random_prime(rng, modulus)
        assert (1 << 29) < p < (1 << 31)
        assert permmatrix.is_prime(p)
        assert (p - 1) % modulus == 0


def _class_indicator_matrix(n, cycle_types):
    group = perms.all_perms(n)
    dense = [
        [1 if perms.cycle_type(perms.compose(sigma, pi)) in cycle_types else 0 for sigma in group]
        for pi in group
    ]
    return permmatrix.BinaryMatrix.from_dense(np.array(dense, dtype=np.uint8), n)


def _symbols(mat):
    # row 0, the identity's, of a class-indicator matrix is the indicator itself
    indicator = mat.to_dense()[0].astype(bool)
    return permmatrix._group_symbols(indicator, permmatrix._cycle_type_pair(mat.degree))


def _sampled_prime(n):
    lam, mu = permmatrix._cycle_type_pair(n)
    return permmatrix.random_prime(random.Random(n), lcm(lcm(*lam), lcm(*mu)))


@pytest.mark.parametrize("n", range(1, 6))
def test_cycle_matrix_blocks_are_circulant(n):
    # checks the invariance the blocked rank rests on, with perms loops as
    # the reference for the vectorised orbits and the gathered symbols: the
    # matrix is a group matrix over Z_m1 x Z_m2, an m1 x m1 circulant of
    # m2 x m2 circulants, on every (row orbit, column orbit) pair
    dense = permmatrix.cycle_product_matrix(n).to_dense()
    lam, mu = permmatrix._cycle_type_pair(n)
    m1, m2 = lcm(*lam), lcm(*mu)
    a, b = _consecutive_cycles(n, lam), _consecutive_cycles(n, mu)
    a_pow = [_power(a, d) for d in range(m1)]
    b_pow = [_power(b, e) for e in range(m2)]

    def row(d, e, pi):  # b^e . pi . a^d
        return perms.perm_rank(perms.compose(b_pow[e % m2], perms.compose(pi, a_pow[d % m1])))

    def col(d, e, sigma):  # a^-d . sigma . b^-e
        return perms.perm_rank(
            perms.compose(a_pow[-d % m1], perms.compose(sigma, b_pow[-e % m2])))

    group = perms.all_perms(n)
    grid = [(d, e) for d in range(m1) for e in range(m2)]
    row_reps = sorted({min(row(d, e, g) for d, e in grid) for g in group})
    col_reps = [perms.perm_rank(perms.inverse(perms.perm_unrank(n, r))) for r in row_reps]  # s_j = r_j^-1
    # the inverses of the row representatives meet each column orbit once
    col_orbits = sorted({min(col(d, e, g) for d, e in grid) for g in group})
    assert sorted(min(col(d, e, perms.perm_unrank(n, s)) for d, e in grid) for s in col_reps) == col_orbits
    assert len(row_reps) == len(col_reps) == factorial(n) // (m1 * m2)
    symbols = _symbols(permmatrix.cycle_product_matrix(n))
    assert symbols.shape == (m1, m2, len(row_reps), len(col_reps))
    for i, r in enumerate(row_reps):
        pi = perms.perm_unrank(n, r)
        for j, s in enumerate(col_reps):
            sigma = perms.perm_unrank(n, s)
            for d, e in grid:
                for d2, e2 in grid:
                    entry = dense[row(d, e, pi), col(d2, e2, sigma)]
                    assert entry == symbols[(d - d2) % m1, (e - e2) % m2, i, j]


@pytest.mark.parametrize("n", [6, 7])
def test_slab_symbols_match_a_gather_from_the_pinned_matrix(n):
    # orbits from whole-array rank maps and bits read from the packed matrix,
    # whose bytes are pinned by test_build_output_is_pinned
    lam, mu = permmatrix._cycle_type_pair(n)
    m1, m2 = lcm(*lam), lcm(*mu)
    a, b = _consecutive_cycles(n, lam), _consecutive_cycles(n, mu)
    a_pow = [np.array(_power(a, d)) for d in range(m1)]
    b_pow = [np.array(_power(b, e)) for e in range(m2)]
    group = perms.perm_array(n)
    row_maps = np.array([[perms.perm_ranks(b_pow[e][group[:, a_pow[d]]]) for e in range(m2)]
                         for d in range(m1)])  # b^e . pi . a^d
    col_maps = np.array([[perms.perm_ranks(a_pow[d][group[:, b_pow[e]]]) for e in range(m2)]
                         for d in range(m1)])  # a^d . sigma . b^e
    row_reps = np.unique(row_maps.min(axis=(0, 1)))
    col_reps = perms.perm_ranks(np.argsort(group[row_reps], axis=1))  # s_j = r_j^-1
    # the inverses of the row representatives meet each column orbit once
    col_orbit_minima = col_maps.min(axis=(0, 1))
    assert np.array_equal(np.sort(col_orbit_minima[col_reps]), np.unique(col_orbit_minima))
    rows = row_maps[:, :, row_reps]
    packed = permmatrix.cycle_product_matrix(n).packed
    expected = (packed[rows[..., None], col_reps >> 3] >> (7 - (col_reps & 7)).astype(np.uint8)) & 1
    symbols = permmatrix._group_symbols(permmatrix._cycle_indicator(n), (lam, mu))
    assert symbols.shape == (m1, m2, factorial(n) // (m1 * m2), factorial(n) // (m1 * m2))
    assert np.array_equal(symbols, expected)


def test_degree_8_symbols_match_is_cyclic_on_sampled_entries():
    # G[d, e, i, j] = M[b^e . r_i . a^d, s_j], which is 1 iff s_j . b^e . r_i . a^d is an
    # 8-cycle; the r_i come from _orbit_minima, tested on its own below, and s_j = r_j^-1
    n = 8
    lam, mu = permmatrix._cycle_type_pair(n)
    m1, m2 = lcm(*lam), lcm(*mu)
    a, b = _consecutive_cycles(n, lam), _consecutive_cycles(n, mu)
    group = perms.perm_array(n)
    rank_maps = [perms.perm_ranks(x) for x in (group[:, a], np.array(b)[group])]
    row_reps = permmatrix._orbit_minima(rank_maps[0], m1, rank_maps[1], m2)  # pi . a, b . pi
    symbols = permmatrix._group_symbols(permmatrix._cycle_indicator(n), (lam, mu))
    assert symbols.shape == (m1, m2, len(row_reps), len(row_reps)) == (8, 15, 336, 336)
    rng = random.Random(8)
    seen = []
    for _ in range(300):
        d, e, i, j = (rng.randrange(k) for k in symbols.shape)
        pi = perms.compose(_power(b, e), perms.compose(perms.perm_unrank(n, int(row_reps[i])), _power(a, d)))
        sigma = perms.inverse(perms.perm_unrank(n, int(row_reps[j])))
        seen.append(int(symbols[d, e, i, j]))
        assert seen[-1] == perms.is_cyclic(perms.compose(sigma, pi))
    assert 0 < sum(seen) < len(seen)


def test_certified_rank_modp_at_degree_8_is_pinned():
    cert = permmatrix.certified_rank(8, method="modp", num_primes=1, seed=0)
    assert (cert.rank, cert.method, cert.primes) == (3432, "modular-multiprime", (818216401,))
    assert cert.blocks == permmatrix.BlockStructure(((8,), (5, 3)), 120, 120, 336, 16)


def test_certificate_refuses_a_symbol_index_out_of_range(monkeypatch):
    # the symbols go through the build's range-checked gather, so a short indicator is refused
    indicator_of = permmatrix._cycle_indicator
    monkeypatch.setattr(permmatrix, "_cycle_indicator", lambda n: indicator_of(n)[:-1])
    with pytest.raises(IndexError, match=f"out of range 0..{factorial(7) - 2} at degree 7$"):
        permmatrix.certified_rank(7, num_primes=1)


@pytest.mark.parametrize("n", range(2, 8))
def test_orbit_minima_match_orbits_walked_step_by_step(n):
    # the doubling of _orbit_minima against a search of each orbit, on the
    # row maps (pi . a, b . pi) and the column maps (a . sigma, sigma . b)
    lam, mu = permmatrix._cycle_type_pair(n)
    m1, m2 = lcm(*lam), lcm(*mu)
    a, b = _consecutive_cycles(n, lam), _consecutive_cycles(n, mu)
    group = perms.all_perms(n)
    assert [perms.perm_rank(g) for g in group] == list(range(len(group)))
    for steps in ((lambda g: perms.compose(g, a), lambda g: perms.compose(b, g)),
                  (lambda g: perms.compose(a, g), lambda g: perms.compose(g, b))):
        inner, outer = ([perms.perm_rank(step(g)) for g in group] for step in steps)
        seen, minima = set(), []
        for start in range(len(group)):
            if start not in seen:
                orbit, frontier = {start}, [start]
                while frontier:
                    x = frontier.pop()
                    for y in (inner[x], outer[x]):
                        if y not in orbit:
                            orbit.add(y)
                            frontier.append(y)
                seen |= orbit
                minima.append(min(orbit))
        found = permmatrix._orbit_minima(np.array(inner), m1, np.array(outer), m2)
        assert found.tolist() == sorted(minima)
        assert len(found) == factorial(n) // (m1 * m2)


@pytest.mark.parametrize("n", range(1, 7))
def test_blocked_rank_equals_full_rank_at_same_prime(n):
    mat = permmatrix.cycle_product_matrix(n)
    lam, mu = permmatrix._cycle_type_pair(n)
    m1, m2 = lcm(*lam), lcm(*mu)
    symbols = _symbols(mat)
    assert symbols.shape == (m1, m2) + (factorial(n) // (m1 * m2),) * 2
    rng = random.Random(n)
    for _ in range(2):
        p = permmatrix.random_prime(rng, lcm(m1, m2))
        assert sum(permmatrix._class_ranks(symbols, p)) == permmatrix.rank_mod_prime(mat, p)


@pytest.mark.parametrize("n", [4, 5])
def test_blocked_rank_on_every_class_indicator(n):
    # other conjugacy classes give other ranks, so agreement is not a
    # coincidence of the cycle class
    p = _sampled_prime(n)
    ranks = set()
    for lam in young.partitions(n):
        mat = _class_indicator_matrix(n, {lam})
        full = permmatrix.rank_mod_prime(mat, p)
        assert sum(permmatrix._class_ranks(_symbols(mat), p)) == full
        ranks.add(full)
    assert len(ranks) > 2


def _phi(d):
    return sum(gcd(t, d) == 1 for t in range(d))


def _divisor_pairs(m1, m2):
    """The classes (d1, d2), d1 | m1 and d2 | m2, in the order of permmatrix._class_ranks."""
    return [(d1, d2) for d1 in range(1, m1 + 1) if m1 % d1 == 0 for d2 in range(1, m2 + 1) if m2 % d2 == 0]


def _cycle_symbols(n):
    return permmatrix._group_symbols(permmatrix._cycle_indicator(n), permmatrix._cycle_type_pair(n))


def _fourier_block_ranks(symbols, p):
    """Rank mod p of every Fourier block B_(t1, t2) = sum_(d, e) w1^(-d t1) w2^(-e t2) G[d, e]."""
    m1, m2 = symbols.shape[:2]
    w1, w2 = permmatrix._root_of_unity(m1, p), permmatrix._root_of_unity(m2, p)
    g = symbols.astype(np.int64)
    return {
        (t1, t2): permmatrix.rank_mod_prime(
            sum(pow(w1, -d * t1 % m1, p) * pow(w2, -e * t2 % m2, p) % p * g[d, e]
                for d in range(m1) for e in range(m2)), p)
        for t1 in range(m1) for t2 in range(m2)
    }


def _assert_rank_depends_only_on_gcd(symbols, p):
    m1, m2 = symbols.shape[:2]
    ranks = _fourier_block_ranks(symbols, p)
    assert all(r == ranks[gcd(t1, m1) % m1, gcd(t2, m2) % m2] for (t1, t2), r in ranks.items())
    assert sum(permmatrix._class_ranks(symbols, p)) == sum(ranks.values())
    return ranks


@pytest.mark.parametrize("n", range(4, 8))
def test_fourier_block_rank_depends_only_on_gcd(n):
    # the equivalence of B_(t1, t2) and B_(u t1, v t2) that lets _class_ranks
    # eliminate one block per pair of classes, checked on every block
    ranks = _assert_rank_depends_only_on_gcd(_symbols(permmatrix.cycle_product_matrix(n)),
                                             _sampled_prime(n))
    if n == 7:
        # one rank per pair (gcd(t1, 10), gcd(t2, 12)); they add up to 924
        assert {(g1, g2): ranks[g1 % 10, g2 % 12]
                for g1 in (10, 1, 2, 5) for g2 in (12, 1, 2, 3, 4, 6)} == {
            (10, 12): 12, (10, 1): 7, (10, 2): 6, (10, 3): 12, (10, 4): 6, (10, 6): 10,
            (1, 12): 9, (1, 1): 7, (1, 2): 6, (1, 3): 11, (1, 4): 5, (1, 6): 10,
            (2, 12): 10, (2, 1): 7, (2, 2): 5, (2, 3): 11, (2, 4): 6, (2, 6): 9,
            (5, 12): 10, (5, 1): 7, (5, 2): 6, (5, 3): 12, (5, 4): 6, (5, 6): 12,
        }


@pytest.mark.parametrize("n", [4, 5])
def test_fourier_block_rank_depends_only_on_gcd_for_every_class_indicator(n):
    p = _sampled_prime(n)
    for lam in young.partitions(n):
        _assert_rank_depends_only_on_gcd(_symbols(_class_indicator_matrix(n, {lam})), p)


@pytest.mark.parametrize("m", range(1, 16))
def test_cyclotomic_factors_multiply_to_x_m_minus_1(m):
    # mod p = 1 (mod m) the d-th cyclotomic polynomial is the product of x - z over the powers z
    # of the root w of order exactly d; they multiply to x^m - 1, and Phi_d has degree _totient(d)
    p = permmatrix.random_prime(random.Random(m), m)
    w = permmatrix._root_of_unity(m, p)
    factors = {}
    for j in range(m):
        z = pow(w, j, p)
        order = next(d for d in range(1, m + 1) if pow(z, d, p) == 1)
        factor = factors.setdefault(order, [1])  # coefficients, constant term first
        factors[order] = [(a - z * b) % p for a, b in zip([0] + factor, factor + [0])]
    assert sorted(factors) == [d for d in range(1, m + 1) if m % d == 0]
    assert all(len(phi) - 1 == permmatrix._totient(d) for d, phi in factors.items())
    product = [1]
    for phi in factors.values():
        product = [sum(product[i] * phi[k - i] for i in range(len(product)) if 0 <= k - i < len(phi)) % p
                   for k in range(len(product) + len(phi) - 1)]
    assert product == [p - 1] + [0] * (m - 1) + [1]


@pytest.mark.parametrize("n", range(1, 9))
def test_modular_block_counts_add_up_to_the_group_order(n):
    # one block per pair of divisors d1 | m1, d2 | m2, counted phi(d1) phi(d2)
    # times, stands for all m1 m2 Fourier blocks
    lam, mu = permmatrix._cycle_type_pair(n)
    m1, m2 = lcm(*lam), lcm(*mu)
    p = _sampled_prime(n)
    # with G[0, 0] = 1 and zeros elsewhere every block is 1x1 of rank 1, so each rank is its count
    symbols = np.zeros((m1, m2, 1, 1), dtype=np.uint8)
    symbols[0, 0] = 1
    counts = permmatrix._class_ranks(symbols, p)
    assert counts == [_phi(d1) * _phi(d2) for d1, d2 in _divisor_pairs(m1, m2)]
    assert sum(counts) == m1 * m2


@pytest.mark.parametrize("n", range(4, 8))
def test_class_ranks_of_requested_classes_match_the_full_list(n):
    symbols, p = _cycle_symbols(n), _sampled_prime(n)
    full = permmatrix._class_ranks(symbols, p)
    rng = random.Random(n)
    subsets = [rng.sample(range(len(full)), rng.randrange(1, len(full) + 1)) for _ in range(3)]
    for classes in subsets + [[len(full) - 1], [0], []]:
        assert permmatrix._class_ranks(symbols, p, classes) == [full[i] for i in classes]


@pytest.mark.parametrize("n", range(4, 8))
def test_class_ranks_count_the_rank_of_one_fourier_block_per_class(n):
    # class (d1, d2) stands for the phi(d1) phi(d2) blocks B_(t1, t2) with gcd(t1, m1) = m1/d1 and
    # gcd(t2, m2) = m2/d2; B_(m1/d1, m2/d2) is built here from its definition
    symbols, p = _cycle_symbols(n), _sampled_prime(n)
    m1, m2 = symbols.shape[:2]
    ranks = _fourier_block_ranks(symbols, p)
    assert permmatrix._class_ranks(symbols, p) == [
        _phi(d1) * _phi(d2) * ranks[m1 // d1 % m1, m2 // d2 % m2] for d1, d2 in _divisor_pairs(m1, m2)
    ]


@pytest.mark.parametrize("n, primes, eliminated", [(6, 2, 30), (7, 4, 64)])
def test_certified_rank_exact_builds_only_the_blocks_it_eliminates(monkeypatch, n, primes, eliminated):
    # building every class at every prime would make 32 blocks at degree 6 and 96 at degree 7
    built, stacks, echelon = _spy(monkeypatch, "_block_sums"), [], permmatrix._echelon_mod_p

    def recorded(a, p, reduced=False):
        stacks.append(a)
        return echelon(a, p, reduced)

    monkeypatch.setattr(permmatrix, "_echelon_mod_p", recorded)
    cert = permmatrix.certified_rank(n, method="exact", seed=0)
    assert len(cert.primes) == primes
    assert len(built) == primes  # one array of blocks per prime, and nothing else
    assert sum(map(len, built)) == sum(map(len, stacks)) == eliminated == cert.blocks.eliminated
    # each stack is eliminated in place, in a slice of its prime's array
    assert all(any(np.shares_memory(a, b) for b in built) for a in stacks)


def test_certified_rank_modp_eliminates_each_degree_seven_prime_in_one_kernel_call(monkeypatch):
    stacks = _spy(monkeypatch, "_echelon_mod_p")
    cert = permmatrix.certified_rank(7, method="modp", num_primes=3, seed=0)
    assert cert.rank == 924
    assert [len(pivots) for pivots in stacks] == [24, 24, 12]  # the third prime skips the 12 classes closed
    assert cert.blocks.eliminated == 60


def test_class_ranks_eliminate_each_degree_eight_block_alone(monkeypatch):
    # two blocks of order 336 exceed the stack budget, so each of the 16 is its own kernel call
    stacks = _spy(monkeypatch, "_echelon_mod_p")
    symbols = np.zeros((8, 15, 336, 336), dtype=np.uint8)
    assert permmatrix._class_ranks(symbols, _sampled_prime(8)) == [0] * 16
    assert [len(pivots) for pivots in stacks] == [1] * 16


def test_block_sums_refuse_weights_that_float64_would_round():
    # m1 m2 = 6 sums of weight * 0/1 stay exact in float64 only below 2**53 / 6
    symbols = np.ones((2, 3, 1, 1), dtype=np.uint8)
    top = (1 << 53) // 6
    weights = np.full((1, 6), top, dtype=np.int64)
    assert permmatrix._block_sums(weights, symbols).tolist() == [[6 * top]]
    with pytest.raises(OverflowError, match=r"2\*\*53"):
        permmatrix._block_sums(weights + 1, symbols)


def _cyclotomic_rank(mat):
    """The rank of ``mat`` proved class by class over the cyclotomic fields, from primes of seed 0."""
    symbols = _symbols(mat)
    primes = permmatrix._distinct_primes(0, lcm(*symbols.shape[:2]))
    return permmatrix._proved_rank(symbols, primes)[0]


@pytest.mark.parametrize("n", range(1, 6))
def test_cyclotomic_blocked_rank_equals_full_exact_rank(n):
    mat = permmatrix.cycle_product_matrix(n)
    assert _cyclotomic_rank(mat) == permmatrix.rank_exact(mat)


@pytest.mark.parametrize("n", [4, 5])
def test_cyclotomic_blocked_rank_on_every_class_indicator(n):
    ranks = set()
    for lam in young.partitions(n):
        mat = _class_indicator_matrix(n, {lam})
        full = permmatrix.rank_exact(mat)
        assert _cyclotomic_rank(mat) == full
        ranks.add(full)
    assert len(ranks) > 2


def test_certified_rank_exact_note_names_block_orders():
    cert = permmatrix.certified_rank(6)
    assert cert.rank == 252
    assert cert.method == "exact-fraction-free"
    assert cert.blocks == permmatrix.BlockStructure(((6,), (3, 2, 1)), 36, 36, 20, 30)  # 16 + 14
    assert cert.note.startswith("rank over the rationals, the sum over 16 classes (d1, d2), d1 | 6, d2 | 6, "
                                "of phi(d1) phi(d2) times the rank of one Fourier block of order 20 "
                                "over Q(zeta_lcm(d1, d2))")
    assert "cycle types 6 and 3+2+1" in cert.note


def test_certified_rank_exact_note_names_how_each_block_was_certified():
    cert = permmatrix.certified_rank(6)
    assert len(cert.primes) == 2 and all(p % 6 == 1 for p in cert.primes)
    assert prod(cert.primes).bit_length() == 62
    assert cert.note.endswith("; each block's rank is its largest residue rank r over 2 primes "
                              "p = 1 (mod 6), proved once P^2 exceeds the Hadamard bound on the squared "
                              "(r+1)-minors of the orbit-sum matrix, P the product of the primes that "
                              "ranked it; P has 62 bits, the largest orbit-sum bound 107 bits")
    one = permmatrix.certified_rank(4).note
    assert "over 1 prime p = 1 (mod 12)" in one
    assert one.endswith("; P has 31 bits, the largest orbit-sum bound 9 bits")
    # every class of degrees 1..3 has full rank at the first prime, so no bound is left to exceed
    assert permmatrix.certified_rank(3).note.endswith("; P has 31 bits, the largest orbit-sum bound 0 bits")


def test_certified_rank_exact_runs_no_kernel_check_or_fallback(monkeypatch):
    # with every kernel check failing, rank_exact would fall back to its prime loop, which ranks
    # the whole matrix through rank_mod_prime; the certificate's proof calls neither
    monkeypatch.setattr(permmatrix, "_vanishes", lambda a, kernel: False)
    fallbacks = _spy(monkeypatch, "rank_mod_prime")
    cert = permmatrix.certified_rank(5)
    assert cert.rank == 70
    assert "8 classes (d1, d2), d1 | 5, d2 | 6," in cert.note and "Fourier block of order 4 " in cert.note
    assert "kernel check" not in cert.note and "Bareiss" not in cert.note
    assert fallbacks == []


def test_certified_rank_exact_at_degree_seven():
    cert = permmatrix.certified_rank(7, method="exact")
    assert cert.rank == 924
    assert cert.method == "exact-fraction-free"
    assert cert.blocks == permmatrix.BlockStructure(((5, 2), (4, 3)), 120, 120, 42, 64)  # 24 + 24 + 12 + 4
    assert "cycle types 5+2 and 4+3" in cert.note
    assert len(cert.primes) == 4 and all(p % 60 == 1 for p in cert.primes)
    assert cert.note.endswith("over 4 primes p = 1 (mod 60), proved once P^2 exceeds the Hadamard bound "
                              "on the squared (r+1)-minors of the orbit-sum matrix, P the product of the "
                              "primes that ranked it; P has 121 bits, the largest orbit-sum bound 180 bits")


@pytest.mark.parametrize("seed", range(5))
def test_certified_rank_exact_for_every_degree_up_to_seven(seed):
    for n in range(1, 8):
        cert = permmatrix.certified_rank(n, method="exact", seed=seed)
        assert (cert.rank, cert.method, cert.degree) == (comb(2 * n - 2, n - 1), "exact-fraction-free", n)
        assert len(set(cert.primes)) == len(cert.primes)


def _orbit_sum_bounds(symbols):
    """bounds[j]: the product of the j largest squared row norms of the orbit-sum matrix, or of its
    j largest squared column norms if smaller, in Python ints."""
    squares = symbols.sum(axis=(0, 1)).astype(object) ** 2
    rows, cols = (sorted(squares.sum(axis=axis).tolist(), reverse=True) for axis in (1, 0))
    return [min(prod(rows[:j]), prod(cols[:j])) for j in range(len(rows) + 1)]


def _open_classes(symbols, ranks_by_prime):
    """Classes that the primes, with their _fourier_block_ranks, leave open, recomputed from scratch.

    r is the largest rank of the class's Fourier block B_(m1/d1, m2/d2)
    mod any of the primes, each block built from its definition.  A class
    is open unless r is the block order or P^2, P the product of the
    primes, exceeds the orbit-sum bound on the squared (r+1)-minors.
    """
    m1, m2, order = symbols.shape[:3]
    bounds = _orbit_sum_bounds(symbols)
    open_classes = []
    for d1, d2 in _divisor_pairs(m1, m2):
        r = max((ranks[m1 // d1 % m1, m2 // d2 % m2] for ranks in ranks_by_prime.values()), default=0)
        if r < order and prod(ranks_by_prime) ** 2 <= bounds[r + 1]:
            open_classes.append((d1, d2))
    return open_classes


@pytest.mark.parametrize("n, seed", [(5, 0), (6, 0), (6, 2), (7, 0), (7, 1)])
def test_certified_rank_exact_stops_at_the_first_prime_that_closes_every_class(n, seed):
    primes = permmatrix.certified_rank(n, method="exact", seed=seed).primes
    assert len(primes) >= 2 or n == 5  # degree 5 closes on its first prime
    symbols = _cycle_symbols(n)
    ranks_by_prime = {p: _fourier_block_ranks(symbols, p) for p in primes}
    assert _open_classes(symbols, ranks_by_prime) == []
    del ranks_by_prime[primes[-1]]
    assert _open_classes(symbols, ranks_by_prime) != []


@pytest.mark.parametrize("n", [6, 7])
@pytest.mark.parametrize("short", ["first", "last"])
def test_certified_rank_exact_takes_the_largest_residue_rank(monkeypatch, n, short):
    # one prime ranks blocks one short, as an unlucky prime may: it divides every k-minor of a
    # block of rank k, so by the norm argument only where p^2 does not exceed the bound on them;
    # such a block stays open, and the next prime, if any, ranks it again
    expected = permmatrix.certified_rank(n, method="exact")
    symbols = _cycle_symbols(n)
    bounds, pairs = _orbit_sum_bounds(symbols), _divisor_pairs(*symbols.shape[:2])
    class_ranks, calls, true, shortened = permmatrix._class_ranks, [], [], []

    def one_short(symbols, p, classes):
        calls.append(classes)
        ranks = class_ranks(symbols, p, classes)
        if len(calls) != (1 if short == "first" else len(expected.primes)):
            return ranks
        true.extend(ranks)
        out = []
        for i, rank in zip(classes, ranks):
            count = _phi(pairs[i][0]) * _phi(pairs[i][1])
            if p * p <= bounds[rank // count]:
                shortened.append(i)
                rank -= count
            out.append(rank)
        return out

    monkeypatch.setattr(permmatrix, "_class_ranks", one_short)
    cert = permmatrix.certified_rank(n, method="exact")
    assert cert == expected and cert.rank == comb(2 * n - 2, n - 1)
    assert shortened and min(true) >= 1
    if short == "first":
        assert sum(true) == cert.rank
        assert set(shortened) <= set(calls[1])


def _det(rows):
    """Exact determinant by elimination over Fractions."""
    m, det = [[Fraction(x) for x in row] for row in rows], Fraction(1)
    for c in range(len(m)):
        pivot = next((i for i in range(c, len(m)) if m[i][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot], det = m[pivot], m[c], -det
        det *= m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def test_hadamard_bounds_hold_every_minor_and_take_the_smaller_side():
    # row norms^2 25, 0 and column norms^2 16, 9: the columns give the smaller products
    assert permmatrix._hadamard_bounds(np.array([[3, 4], [0, 0]])) == [1, 16, 0]
    assert permmatrix._hadamard_bounds(np.array([[3, 0], [4, 0]])) == [1, 16, 0]
    rng = np.random.default_rng(4)
    for rows, cols in [(4, 4), (3, 5), (5, 3)]:
        a = rng.integers(-3, 4, size=(rows, cols))
        bounds = permmatrix._hadamard_bounds(a)
        assert len(bounds) == min(rows, cols) + 1
        for j in range(1, len(bounds)):
            for r in itertools.combinations(range(rows), j):
                for c in itertools.combinations(range(cols), j):
                    assert _det(a[np.ix_(r, c)].tolist()) ** 2 <= bounds[j]
    # entries whose squared sums leave int64 are summed as Python ints
    big = 1 << 40
    assert permmatrix._hadamard_bounds(np.array([[big, big], [big, -big]])) == [1, 2 * big**2, 4 * big**4]
    # np.abs(-2**63) is -2**63 in int64, so a maximum taken through it would miss the largest entry
    low, p1 = -(1 << 63), 623810459
    assert permmatrix._hadamard_bounds(np.array([[low, 5], [1, 1]])) == [1, low**2 + 1, 2 * (low**2 + 25)]
    assert permmatrix._hadamard_bounds(np.array([[low, 0], [0, p1]])) == [1, low**2, low**2 * p1**2]


def test_certified_rank_exact_skips_a_repeated_prime(monkeypatch):
    expected = permmatrix.certified_rank(7, method="exact", seed=0)
    draw, drawn = permmatrix.random_prime, []

    def repeating(rng, modulus=1):  # every second draw repeats the one before, without touching rng
        drawn.append(drawn[-1] if len(drawn) % 2 else draw(rng, modulus))
        return drawn[-1]

    monkeypatch.setattr(permmatrix, "random_prime", repeating)
    cert = permmatrix.certified_rank(7, method="exact", seed=0)
    assert len(expected.primes) == 4 and len(drawn) == 7 and len(set(drawn)) == 4
    assert cert == expected and cert.primes == tuple(sorted(set(drawn)))


def test_certified_rank_exact_at_degree_eight():
    # the one degree-8 proof in the suite, about 5 s: each of 13 primes eliminates up to 16
    # blocks of order 336
    cert = permmatrix.certified_rank(8, method="exact", seed=0)
    assert (cert.rank, cert.method, cert.degree) == (3432, "exact-fraction-free", 8)
    assert cert.blocks == permmatrix.BlockStructure(((8,), (5, 3)), 120, 120, 336, 154)
    assert len(cert.primes) == 13 and all(p % 120 == 1 for p in cert.primes)
    assert cert.note.endswith("over 13 primes p = 1 (mod 120), proved once P^2 exceeds the Hadamard bound "
                              "on the squared (r+1)-minors of the orbit-sum matrix, P the product of the "
                              "primes that ranked it; P has 393 bits, the largest orbit-sum bound 739 bits")


def _group_matrix(symbols):
    """sum_(d, e) kron(G[d, e], P1^d (x) P2^e), P1 and P2 the cyclic shifts of orders m1 and m2."""
    m1, m2 = symbols.shape[:2]
    shift1, shift2 = (np.roll(np.eye(m, dtype=np.int64), 1, axis=0) for m in (m1, m2))
    return sum(np.kron(symbols[d, e].astype(np.int64),
                       np.kron(np.linalg.matrix_power(shift1, d), np.linalg.matrix_power(shift2, e)))
               for d in range(m1) for e in range(m2))


def test_proved_rank_matches_the_exact_rank_of_random_group_matrices(monkeypatch):
    # the norm argument on group matrices of every shape up to 4 x 5 with blocks up to 4 x 4; their
    # orbit-sum bounds are below one prime's square, so about half the ranks are proved short of full.
    # rank_exact's fallback is the same argument, so the kernel check must give every rank here
    fallbacks = _spy(monkeypatch, "rank_mod_prime")
    rng = np.random.default_rng(26)
    short = 0
    for trial in range(300):
        m1, m2, order = int(rng.integers(1, 5)), int(rng.integers(1, 6)), int(rng.integers(1, 5))
        symbols = (rng.random((m1, m2, order, order)) < rng.random()).astype(np.uint8)
        matrix = _group_matrix(symbols)
        primes = permmatrix._distinct_primes(trial, lcm(m1, m2))
        rank, primes, _, left_open, _ = permmatrix._proved_rank(symbols, primes)
        assert rank == permmatrix.rank_exact(matrix) and left_open == 0, (m1, m2, order, trial)
        assert all((p - 1) % lcm(m1, m2) == 0 for p in primes)
        short += rank < len(matrix)
    assert 30 < short < 270  # both full and deficient ranks
    assert fallbacks == []


def test_packbits_round_trip():
    rng = np.random.default_rng(2)
    dense = rng.integers(0, 2, size=(10, 10)).astype(np.uint8)
    mat = permmatrix.BinaryMatrix.from_dense(dense)
    assert (mat.to_dense() == dense).all()
    assert mat.filled_count() == int(dense.sum())
    assert mat.entry(3, 7) == dense[3, 7]


def test_pbm_round_trip_and_counts(tmp_path):
    for k, filled in ((2, 2), (3, 12), (4, 144)):
        mat = permmatrix.cycle_product_matrix(k)
        path = tmp_path / f"cycle{k}.pbm"
        permmatrix.write_pbm(mat, path)
        back = permmatrix.read_pbm(path)
        assert back.order == factorial(k)
        assert back == permmatrix.BinaryMatrix(mat.order, mat.packed)
        assert back.filled_count() == filled == factorial(k - 1) * factorial(k)
        assert back.is_symmetric()


def test_pbm_header(tmp_path):
    path = tmp_path / "m.pbm"
    permmatrix.write_pbm(permmatrix.cycle_product_matrix(2), path)
    raw = path.read_bytes()
    assert raw.startswith(b"P4\n2 2\n")
    # rows are 01 / 10, MSB-first padded to a byte
    assert raw[7:] == bytes([0b01000000, 0b10000000])


def test_read_pbm_one_line_header_and_comments(tmp_path):
    expected = permmatrix.cycle_product_matrix(2)
    raster = bytes([0b01000000, 0b10000000])
    for header in (b"P4 2 2\n", b"P4\n# made by hand\n2 # width\n2\t", b"P4 2\n2 "):
        path = tmp_path / "m.pbm"
        path.write_bytes(header + raster)
        assert permmatrix.read_pbm(path) == permmatrix.BinaryMatrix(2, expected.packed)


def test_read_pbm_empty_file_is_one_line_value_error(tmp_path):
    path = tmp_path / "empty.pbm"
    path.write_bytes(b"")
    with pytest.raises(ValueError, match="^not a binary PBM: empty file$"):
        permmatrix.read_pbm(path)


@pytest.mark.parametrize("raw, message", [
    (b"P4", "truncated or malformed PBM header"),
    (b"P4\n2", "truncated or malformed PBM header"),
    (b"P4\n2 2", "truncated or malformed PBM header"),
    (b"P4 " + b"#" * 64 + b" 2 2\n", "truncated or malformed PBM header"),  # the comment takes the sizes
    (b"P4\n2 2\n\x40", "expected 2 raster bytes, got 1"),
    (b"P4\n2 2\n", "expected 2 raster bytes, got 0"),
])
def test_read_pbm_truncated_file_is_one_line_value_error(tmp_path, raw, message):
    path = tmp_path / "cut.pbm"
    path.write_bytes(raw)
    with pytest.raises(ValueError, match=f"^{message}$"):
        permmatrix.read_pbm(path)
