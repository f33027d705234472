import hashlib
import random
from fractions import Fraction
from math import comb, factorial, lcm

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
    ranks = permmatrix._ranks(np.array(group, dtype=np.int8))
    assert ranks.tolist() == [perms.perm_rank(p) for p in group]


def test_ranks_on_stacked_input():
    # the (group, powers, n) shape _circulant_symbols ranks: pi . a^d
    n = 5
    a = perms.from_cycles(n, (1, 2, 3), (4, 5))
    a_pow = np.array([_power(a, d) for d in range(6)], dtype=np.int8)
    perm_arr = np.array(perms.all_perms(n), dtype=np.int8)
    ranks = permmatrix._ranks(perm_arr[:, a_pow])
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


def test_rank_mod_prime_on_degree_four():
    mat = permmatrix.cycle_product_matrix(4)
    assert permmatrix.rank_mod_prime(mat, FIXED_PRIME) == 20


def test_rank_exact_basics():
    assert permmatrix.rank_exact(np.zeros((4, 4), dtype=np.int64)) == 0
    assert permmatrix.rank_exact(np.eye(6, dtype=np.int64)) == 6
    assert permmatrix.rank_exact([[1, 2], [2, 4]]) == 1


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


def _low_rank(rng, rows, cols, rank):
    """A random rows x cols matrix of rank at most ``rank``, entries up to about 10**6.

    rank_exact takes its kernel from the narrow side, whose factor has
    entries in -2..2, so the kernel's denominators stay far below sqrt(p/2)
    and the kernel check, not the Bareiss fallback, gives the rank.
    """
    big = rng.integers(-10**5, 10**5 + 1, size=(max(rows, cols), rank))
    small = rng.integers(-2, 3, size=(rank, min(rows, cols)))
    tall = big @ small
    return tall if rows >= cols else tall.T


def test_rank_exact_matches_bareiss_and_fractions_on_random_matrices():
    rng = np.random.default_rng(6)
    for rows, cols in [(9, 9), (12, 6), (6, 12), (14, 14), (1, 7), (7, 1)]:
        for rank in range(min(rows, cols, 5) + 1):
            arr = _low_rank(rng, rows, cols, rank)
            assert np.abs(arr).max(initial=0) <= 10**6
            expected = fraction_rank(arr.tolist())
            assert permmatrix._bareiss_rank(arr.astype(object)) == expected
            assert permmatrix._rank_over_q(arr) == (expected, permmatrix._CHECK_PRIME)
            assert permmatrix.rank_exact(arr) == expected


def _spy(monkeypatch, name):
    """Record the results of permmatrix.<name> while the test runs."""
    results = []
    original = getattr(permmatrix, name)

    def spy(*args):
        results.append(original(*args))
        return results[-1]

    monkeypatch.setattr(permmatrix, name, spy)
    return results


def test_rank_exact_exit_kernel_check_passes(monkeypatch):
    checks, fallbacks = _spy(monkeypatch, "_vanishes"), _spy(monkeypatch, "_bareiss_rank")
    rows = [[1, 2, 3], [2, 4, 6], [1, 0, 1], [3, 2, 5]]
    assert permmatrix.rank_exact(rows) == fraction_rank(rows) == 2
    assert checks == [True] and fallbacks == []


@pytest.mark.parametrize(
    "rows, expected",
    [
        ([[FIXED_PRIME]], 1),
        ([[1, 1], [1, 1 + FIXED_PRIME]], 2),  # determinant FIXED_PRIME
        ([[3, 5, 7], [6, 10, 14 + FIXED_PRIME], [1, 1, 1]], 3),
    ],
)
def test_rank_exact_exit_unlucky_prime(monkeypatch, rows, expected):
    checks, fallbacks = _spy(monkeypatch, "_vanishes"), _spy(monkeypatch, "_bareiss_rank")
    assert permmatrix.rank_mod_prime(rows, FIXED_PRIME) < expected
    assert permmatrix.rank_exact(rows) == fraction_rank(rows) == expected
    assert checks == [False] and fallbacks == [expected]


def test_rank_exact_exit_reconstruction_fails(monkeypatch):
    # the kernel vector (-1/40000, 1) has a denominator above sqrt(p/2) = 32767
    checks, fallbacks = _spy(monkeypatch, "_vanishes"), _spy(monkeypatch, "_bareiss_rank")
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


def test_rank_exact_with_entries_near_2_to_40(monkeypatch):
    # kernel (a/d1, b/d2, 1), scaled by d1 * d2 to entries near 2**30
    d1, d2, a, b = 32749, 32719, 12345, -23456
    c = (1 << 40) // d1
    rows = [[c * d1, 0, -c * a], [0, c * d2, -c * b], [c * d1, c * d2, -c * (a + b)]]
    assert (d1 * d2) * 3 * max(abs(x) for row in rows for x in row) >= 1 << 62
    checks, fallbacks = _spy(monkeypatch, "_vanishes"), _spy(monkeypatch, "_bareiss_rank")
    assert permmatrix.rank_exact(rows) == fraction_rank(rows) == 2
    assert checks == [True] and fallbacks == []


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
    assert cert.primes == ()


def test_certified_rank_modular_path_is_seeded():
    cert1 = permmatrix.certified_rank(3, method="modp", seed=42)
    cert2 = permmatrix.certified_rank(3, method="modp", seed=42)
    assert cert1.rank == 6
    assert cert1.method == "modular-multiprime"
    assert len(cert1.primes) == 3
    assert cert1.primes == cert2.primes


def test_certified_rank_degree_eight_gated():
    with pytest.raises(ValueError, match="allow_heavy"):
        permmatrix.certified_rank(8)


@pytest.mark.parametrize("num_primes", [0, -2])
def test_certified_rank_rejects_too_few_primes(num_primes):
    with pytest.raises(ValueError, match="num_primes"):
        permmatrix.certified_rank(3, method="modp", num_primes=num_primes)


def test_certified_rank_records_block_structure():
    cert = permmatrix.certified_rank(5, method="modp", num_primes=2, seed=7)
    assert cert.rank == 70
    assert cert.blocks == permmatrix.BlockStructure((3, 2), 6, 6, 20)
    assert "sum of the ranks" in cert.note
    assert all(p % 6 == 1 for p in cert.primes)
    assert permmatrix.certified_rank(4).blocks is None


@pytest.mark.parametrize("n", range(1, 9))
def test_max_order_cycle_type(n):
    cycle_type = permmatrix._max_order_cycle_type(n)
    assert sum(cycle_type) == n
    if n <= 6:
        orders = {lcm(*perms.cycle_type(g)) for g in perms.all_perms(n)}
        assert lcm(*cycle_type) == max(orders)
    else:
        assert cycle_type == {7: (4, 3), 8: (5, 3)}[n]


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


def _power(a, d):
    out = perms.identity(len(a))
    for _ in range(d):
        out = perms.compose(out, a)
    return out


@pytest.mark.parametrize("n", range(1, 6))
def test_cycle_matrix_blocks_are_circulant(n):
    # checks the invariance the blocked rank rests on, with perms loops as
    # the reference for the vectorised orbits and the gathered symbols
    mat = permmatrix.cycle_product_matrix(n)
    dense = mat.to_dense()
    cycle_type = permmatrix._max_order_cycle_type(n)
    m = lcm(*cycle_type)
    firsts = [sum(cycle_type[:i]) + 1 for i in range(len(cycle_type))]
    a = perms.from_cycles(n, *(tuple(range(f, f + c)) for f, c in zip(firsts, cycle_type)))
    a_pow = [_power(a, d) for d in range(m)]
    group = perms.all_perms(n)
    row_reps = sorted(min(perms.perm_rank(perms.compose(g, x)) for x in a_pow) for g in group)
    col_reps = sorted(min(perms.perm_rank(perms.compose(x, g)) for x in a_pow) for g in group)
    row_reps, col_reps = sorted(set(row_reps)), sorted(set(col_reps))
    assert len(row_reps) == len(col_reps) == factorial(n) // m
    symbols = permmatrix._circulant_symbols(mat, cycle_type)
    for i, r in enumerate(row_reps):
        pi = perms.perm_unrank(n, r)
        for j, s in enumerate(col_reps):
            sigma = perms.perm_unrank(n, s)
            block = np.array([
                [dense[perms.perm_rank(perms.compose(pi, a_pow[u])),
                       perms.perm_rank(perms.compose(a_pow[-v % m], sigma))] for v in range(m)]
                for u in range(m)
            ])
            assert (block == np.roll(np.roll(block, 1, axis=0), 1, axis=1)).all()
            assert (block[:, 0] == symbols[:, i, j]).all()


@pytest.mark.parametrize("n", range(1, 7))
def test_blocked_rank_equals_full_rank_at_same_prime(n):
    mat = permmatrix.cycle_product_matrix(n)
    cycle_type = permmatrix._max_order_cycle_type(n)
    m = lcm(*cycle_type)
    symbols = permmatrix._circulant_symbols(mat, cycle_type)
    assert symbols.shape == (m, factorial(n) // m, factorial(n) // m)
    rng = random.Random(n)
    for _ in range(2):
        p = permmatrix.random_prime(rng, m)
        assert permmatrix._blocked_rank(symbols, p) == permmatrix.rank_mod_prime(mat, p)


@pytest.mark.parametrize("n", [4, 5])
def test_blocked_rank_on_every_class_indicator(n):
    # other conjugacy classes give other ranks, so agreement is not a
    # coincidence of the cycle class
    cycle_type = permmatrix._max_order_cycle_type(n)
    m = lcm(*cycle_type)
    p = permmatrix.random_prime(random.Random(n), m)
    ranks = set()
    for lam in young.partitions(n):
        mat = _class_indicator_matrix(n, {lam})
        full = permmatrix.rank_mod_prime(mat, p)
        assert permmatrix._blocked_rank(permmatrix._circulant_symbols(mat, cycle_type), p) == full
        ranks.add(full)
    assert len(ranks) > 2


@pytest.mark.parametrize("m", range(1, 16))
def test_cyclotomic_factors_multiply_to_x_m_minus_1(m):
    product = [1]
    for d in range(1, m + 1):
        if m % d == 0:
            phi = permmatrix._cyclotomic(d)
            assert phi[-1] == 1 and all(isinstance(c, int) for c in phi)
            product = [
                sum(product[i] * phi[k - i] for i in range(len(product)) if 0 <= k - i < len(phi))
                for k in range(len(product) + len(phi) - 1)
            ]
    assert product == [-1] + [0] * (m - 1) + [1]


def _cyclotomic_rank(mat):
    symbols = permmatrix._circulant_symbols(mat, permmatrix._max_order_cycle_type(mat.degree))
    blocks = permmatrix._cyclotomic_blocks(symbols)
    assert sum(len(b) for b in blocks) == mat.order
    return sum(permmatrix.rank_exact(b) for b in blocks)


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
    assert cert.blocks is None
    assert "orders 120, 120, 240, 240" in cert.note
    assert "cycle type 6" in cert.note


def test_certified_rank_exact_note_names_how_each_block_was_certified(monkeypatch):
    note = permmatrix.certified_rank(6).note
    assert note.count(f"kernel check mod {FIXED_PRIME}") == 4
    assert "Bareiss" not in note
    monkeypatch.setattr(permmatrix, "_rational_reconstruction", lambda u, p: None)
    cert = permmatrix.certified_rank(4)
    assert cert.rank == 20
    assert cert.note.count("Bareiss fallback") == 3 and "kernel check" not in cert.note


def test_certified_rank_exact_refused_above_cap():
    with pytest.raises(ValueError, match="exact-elimination cap"):
        permmatrix.certified_rank(7, method="exact")


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
