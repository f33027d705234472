from math import comb, factorial

import pytest

from permrank import young


def brute_partitions(n, max_part=None):
    # independent enumerator (ascending construction) used as an oracle
    if max_part is None:
        max_part = n
    if n == 0:
        return {()}
    out = set()
    for part in range(1, min(n, max_part) + 1):
        for rest in brute_partitions(n - part, part):
            out.add(tuple(sorted((part, *rest), reverse=True)))
    return out


def test_partitions_of_four_in_order():
    assert young.partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_partitions_of_zero():
    assert young.partitions(0) == [()]


@pytest.mark.parametrize("n", range(0, 12))
def test_partitions_against_independent_enumeration(n):
    got = young.partitions(n)
    assert len(got) == len(set(got))
    assert set(got) == brute_partitions(n)
    assert got == sorted(got, reverse=True)


def test_partition_count_ten():
    assert young.partition_count(10) == 42


def test_check_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        young.check_partition((1, 2))
    with pytest.raises(ValueError):
        young.check_partition((2, 0))


def test_is_hook():
    assert young.is_hook((4, 1, 1, 1, 1))
    assert young.is_hook((7,))
    assert young.is_hook((1, 1))
    assert not young.is_hook((2, 2))
    assert not young.is_hook((3, 2, 1))
    with pytest.raises(ValueError):
        young.is_hook(())


def has_2x2_block(lam):
    return any(len(lam) > i + 1 and lam[i + 1] >= 2 for i in range(len(lam)))


@pytest.mark.parametrize("n", range(1, 9))
def test_hook_iff_no_2x2_block(n):
    for lam in young.partitions(n):
        assert young.is_hook(lam) == (not has_2x2_block(lam))


def test_syt_count_examples():
    assert young.syt_count((6,)) == 1
    assert young.syt_count((2, 2)) == 2
    assert young.syt_count((2, 1)) == 2
    # hooks: one row of length n-k+1 plus a column, count C(n-1, k-1)
    for n in range(1, 9):
        for k in range(1, n + 1):
            hook = (n - k + 1,) + (1,) * (k - 1)
            assert young.syt_count(hook) == comb(n - 1, k - 1)


@pytest.mark.parametrize("n", range(0, 9))
def test_syt_count_matches_enumeration(n):
    for lam in young.partitions(n):
        tableaux = young.standard_tableaux(lam)
        assert len(tableaux) == young.syt_count(lam)
        seen = set()
        for t in tableaux:
            key = tuple(tuple(row) for row in t)
            assert key not in seen
            seen.add(key)
            for row in t:
                assert all(a < b for a, b in zip(row, row[1:]))
            for i in range(1, len(t)):
                assert all(a < b for a, b in zip(t[i - 1], t[i]))


def test_standard_tableaux_weight_cap():
    with pytest.raises(ValueError):
        young.standard_tableaux((13,))


def test_enumerate_syt_small_shapes():
    assert len(young.standard_tableaux((1, 1, 1))) == 1
    assert len(young.standard_tableaux((2, 1))) == 2
    assert len(young.standard_tableaux((2, 2))) == 2


@pytest.mark.parametrize("n", range(1, 11))
def test_squared_counts_sum_to_group_order(n):
    assert sum(young.syt_count(lam) ** 2 for lam in young.partitions(n)) == factorial(n)


def test_transpose_and_count_symmetry():
    assert young.transpose((4, 2, 1)) == (3, 2, 1, 1)
    for n in range(1, 9):
        for lam in young.partitions(n):
            assert young.transpose(young.transpose(lam)) == lam
            assert young.syt_count(lam) == young.syt_count(young.transpose(lam))


def test_rim_hooks_whole_row():
    hooks = young.rim_hooks((5,), 5)
    assert len(hooks) == 1
    assert hooks[0].leg_length == 0
    assert hooks[0].remainder == ()


def test_rim_hooks_square_has_no_full_hook():
    assert young.rim_hooks((2, 2), 4) == []


def test_rim_hooks_full_diagram_iff_hook_shape():
    for n in range(1, 9):
        for lam in young.partitions(n):
            full = young.rim_hooks(lam, n)
            if young.is_hook(lam):
                assert len(full) == 1
                assert full[0].remainder == ()
                assert full[0].leg_length == len(lam) - 1
            else:
                assert full == []


def test_rim_hook_of_3_2_is_unique():
    hooks = young.rim_hooks((3, 2), 3)
    assert len(hooks) == 1
    assert hooks[0].remainder == (1, 1)
    assert hooks[0].leg_length == 1
    assert hooks[0].cells == frozenset({(0, 1), (0, 2), (1, 1)})


def cells_connected(cell_set):
    cell_set = set(cell_set)
    stack = [next(iter(cell_set))]
    seen = set()
    while stack:
        i, j = stack.pop()
        if (i, j) in seen:
            continue
        seen.add((i, j))
        for ni, nj in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if (ni, nj) in cell_set:
                stack.append((ni, nj))
    return seen == cell_set


@pytest.mark.parametrize("n", range(1, 8))
def test_rim_hook_invariants(n):
    for lam in young.partitions(n):
        diagram = set(young.cells(lam))
        for length in range(1, n + 1):
            for hook in young.rim_hooks(lam, length):
                assert len(hook.cells) == length
                assert hook.cells <= diagram
                assert cells_connected(hook.cells)
                # no 2x2 block inside the strip
                assert not any(
                    {(i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1)} <= hook.cells
                    for i, j in hook.cells
                )
                rows = {i for i, _ in hook.cells}
                assert hook.leg_length == len(rows) - 1
                assert sum(hook.remainder) == n - length
                assert young.check_partition(hook.remainder) == hook.remainder
                assert young.remove_rim_hook(lam, hook) == hook.remainder


def test_remove_rim_hook_corner_cases():
    full = young.rim_hooks((4,), 4)[0]
    assert young.remove_rim_hook((4,), full) == ()
    corners = young.rim_hooks((2, 1), 1)
    remainders = {young.remove_rim_hook((2, 1), h) for h in corners}
    assert remainders == {(2,), (1, 1)}


def test_remove_rim_hook_rejects_foreign_hook():
    hook = young.rim_hooks((3, 2), 3)[0]
    with pytest.raises(ValueError):
        young.remove_rim_hook((4, 1), hook)
    bad = young.RimHook((3, 2), frozenset({(0, 0), (0, 1), (0, 2)}), 0, (2,))
    with pytest.raises(ValueError):
        young.remove_rim_hook((3, 2), bad)


@pytest.mark.parametrize("n", range(1, 11))
def test_rim_hooks_are_complete(n):
    # one r-rim hook per cell of hook length r: the cell's hook, slid to the rim
    for lam in young.partitions(n):
        lengths = [h for row in young.hook_lengths(lam) for h in row]
        for r in range(1, n + 1):
            assert len(young.rim_hooks(lam, r)) == lengths.count(r)
