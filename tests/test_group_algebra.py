import random
from math import factorial

import pytest

from permrank import group_algebra as ga
from permrank import perms


def random_element(rng, n, support=3):
    coeffs = {}
    for _ in range(support):
        p = tuple(rng.sample(range(n), n))
        coeffs[p] = rng.randint(-3, 3)
    return ga.GroupAlgebraElement(n, coeffs)


def test_basis_multiplication_is_group_law():
    for g in perms.all_perms(3):
        for h in perms.all_perms(3):
            assert ga.basis(g) * ga.basis(h) == ga.basis(perms.compose(g, h))


def test_identity_is_unit():
    e = ga.basis(perms.identity(4))
    rng = random.Random(1)
    for _ in range(10):
        a = random_element(rng, 4)
        assert a * e == a
        assert e * a == a


def test_zero_coefficients_dropped():
    a = ga.GroupAlgebraElement(3, {(0, 1, 2): 0, (1, 0, 2): 2})
    assert a.support_size() == 1


def test_equal_elements_built_in_different_orders_hash_equal():
    s, t = (1, 0, 2), (2, 1, 0)
    built = [
        ga.GroupAlgebraElement(3, {s: 2, t: -1}),
        ga.GroupAlgebraElement(3, {t: -1, (0, 1, 2): 0, s: 2}),
        ga.basis(t) * ga.GroupAlgebraElement(3, {(0, 1, 2): -1}) + ga.basis(s) + ga.basis(s),
    ]
    assert all(b == built[0] and hash(b) == hash(built[0]) for b in built)
    assert len(set(built)) == 1
    assert built[0] != ga.GroupAlgebraElement(3, {s: 2}) and built[0] != ga.GroupAlgebraElement(4, {})


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        ga.basis((0, 1)) * ga.basis((0, 1, 2))
    with pytest.raises(ValueError):
        ga.GroupAlgebraElement(3, {(0, 1): 1})


def test_cyclic_class_sum_support():
    assert ga.cyclic_class_sum(1) == ga.basis((0,))
    assert ga.cyclic_class_sum(2) == ga.basis((1, 0))
    for n in range(1, 6):
        q = ga.cyclic_class_sum(n)
        assert q.support_size() == factorial(n - 1)
        assert all(perms.is_cyclic(p) and c == 1 for p, c in q.coeffs.items())


@pytest.mark.parametrize("n", range(1, 6))
def test_cyclic_class_sum_is_central(n):
    assert ga.is_central(ga.cyclic_class_sum(n))


def test_cyclic_class_sum_commutes_elementwise():
    q = ga.cyclic_class_sum(3)
    for x in perms.all_perms(3):
        assert ga.basis(x) * q == q * ga.basis(x)


def test_transposition_not_central():
    swap = ga.basis(perms.from_cycles(3, (1, 2)))
    assert not ga.is_central(swap)
    witness = ga.basis(perms.from_cycles(3, (1, 3)))
    assert witness * swap != swap * witness


@pytest.mark.parametrize("n", range(1, 6))
def test_class_sums_are_central(n):
    from permrank import young

    for mu in young.partitions(n):
        assert ga.is_central(ga.conjugacy_class_sum(n, mu))


def _commutes_with_every_basis_element(a):
    # products with the whole group as the reference for the two-generator check
    return all(ga.basis(x) * a == a * ga.basis(x) for x in perms.all_perms(a.degree))


@pytest.mark.parametrize("seed", [16384, 7])
def test_is_central_matches_elementwise_products(seed):
    from permrank import young

    rng = random.Random(seed)
    cases = [ga.GroupAlgebraElement(3, {})]
    # the transposition class with unequal coefficients: x . a and a . x
    # have the same support for every x, only the coefficients differ
    cases.append(ga.GroupAlgebraElement(3, {(1, 0, 2): 1, (2, 1, 0): 2, (0, 2, 1): 3}))
    # each commutes with exactly one of the generators (1 2) and (1 2 ... n)
    cases.append(ga.basis(perms.from_cycles(3, (1, 2, 3))))
    cases.append(ga.basis(perms.from_cycles(4, (1, 2))))
    for n in (1, 2, 3, 4):
        for _ in range(10):
            cases.append(random_element(rng, n, support=rng.randint(0, 6)))
        for mu in young.partitions(n):
            scale = rng.choice([1, -2, 10**30])
            terms = ga.conjugacy_class_sum(n, mu).coeffs
            cases.append(ga.GroupAlgebraElement(n, {p: scale for p in terms}))
            # one coefficient beyond int64 breaks the class-constant pattern
            cases.append(ga.GroupAlgebraElement(n, {**{p: scale for p in terms},
                                                    min(terms): 10**40}))
    verdicts = [ga.is_central(a) for a in cases]
    assert verdicts == [_commutes_with_every_basis_element(a) for a in cases]
    assert True in verdicts and False in verdicts
    # beyond the group-enumeration cap, where the reference cannot go
    assert ga.is_central(ga.cyclic_class_sum(9))
    with pytest.raises(ValueError):
        ga.is_central(ga.GroupAlgebraElement(0, {}))


def test_associativity_and_distributivity_spot_checks():
    rng = random.Random(7)
    for n in (2, 3, 4):
        for _ in range(5):
            a, b, c = (random_element(rng, n) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c


def test_coefficient_vector_uses_canonical_order():
    a = ga.GroupAlgebraElement(3, {(0, 1, 2): 5, (2, 1, 0): -1})
    vec = a.coefficient_vector()
    assert vec[0] == 5 and vec[5] == -1 and sum(map(abs, vec)) == 6
