from math import comb, factorial

import pytest

from permrank import characters, perms, reference_data, verify, young


def sign_of_class(alpha):
    # parity of a permutation with cycle type alpha: (-1)**(n - #cycles)
    return -1 if (sum(alpha) - len(alpha)) % 2 else 1


def test_trivial_row_is_all_ones():
    for n in range(1, 8):
        for alpha in young.partitions(n):
            assert characters.character((n,), alpha) == 1


def test_sign_row_matches_parity():
    for n in range(1, 8):
        lam = (1,) * n
        for alpha in young.partitions(n):
            assert characters.character(lam, alpha) == sign_of_class(alpha)
    assert characters.character((1, 1, 1), (3,)) == 1
    assert characters.character((1, 1), (2,)) == -1


def test_degree_three_values():
    assert characters.character((2, 1), (1, 1, 1)) == 2
    assert characters.character((2, 1), (2, 1)) == 0
    assert characters.character((2, 1), (3,)) == -1


def test_weight_mismatch_rejected():
    with pytest.raises(ValueError):
        characters.character((2, 1), (2, 2))


def test_character_tables_match_frozen():
    assert characters.character_table(1) == [[1]]
    assert characters.character_table(2) == [[1, 1], [1, -1]]
    assert characters.character_table(3) == reference_data.CHARACTER_TABLE_3
    assert characters.character_table(4) == reference_data.CHARACTER_TABLE_4


def test_character_table_first_column_is_dimensions():
    table = characters.character_table(3)
    assert [row[0] for row in table] == [1, 2, 1]


def test_character_table_degree_cap():
    with pytest.raises(ValueError):
        characters.character_table(11)


@pytest.mark.parametrize("n", range(1, 9))
def test_row_orthogonality(n):
    shapes = young.partitions(n)
    classes = list(reversed(shapes))
    sizes = [characters.class_size(mu) for mu in classes]
    table = characters.character_table(n) if n <= 10 else None
    for i in range(len(shapes)):
        for j in range(len(shapes)):
            dot = sum(s * a * b for s, a, b in zip(sizes, table[i], table[j]))
            assert dot == (factorial(n) if i == j else 0)


@pytest.mark.parametrize("n", range(1, 11))
def test_full_cycle_closed_form(n):
    for lam in young.partitions(n):
        closed = characters.character_at_full_cycle(lam)
        assert closed == characters.character(lam, (n,))
        assert (closed != 0) == young.is_hook(lam)
        if young.is_hook(lam):
            assert closed == (-1) ** (len(lam) - 1)


def test_full_cycle_examples():
    assert characters.character_at_full_cycle((6,)) == 1
    assert characters.character_at_full_cycle((2, 2)) == 0
    assert characters.character_at_full_cycle((5, 1)) == -1


@pytest.mark.parametrize("n", range(1, 9))
def test_specht_dim_equals_identity_character(n):
    identity_type = (1,) * n
    for lam in young.partitions(n):
        dim = characters.specht_dim(lam)
        assert dim == young.syt_count(lam)
        assert dim == characters.character(lam, identity_type)


def test_specht_dim_hooks():
    for n in range(1, 9):
        for k in range(1, n + 1):
            hook = (n - k + 1,) + (1,) * (k - 1)
            assert characters.specht_dim(hook) == comb(n - 1, k - 1)


def test_class_size_examples():
    assert characters.class_size((1, 1, 1, 1)) == 1
    for n in range(1, 8):
        assert characters.class_size((n,)) == factorial(n - 1)
    assert characters.class_size((2, 1)) == 3


@pytest.mark.parametrize("n", range(1, 9))
def test_class_sizes_sum_to_group_order(n):
    assert sum(characters.class_size(mu) for mu in young.partitions(n)) == factorial(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_class_size_matches_direct_count(n):
    counts = {}
    for p in perms.all_perms(n):
        counts[perms.cycle_type(p)] = counts.get(perms.cycle_type(p), 0) + 1
    for mu, count in counts.items():
        assert characters.class_size(mu) == count


def test_characters_suite_reports_a_wrong_table(monkeypatch):
    table = characters.character_table
    monkeypatch.setattr(characters, "character_table", lambda n: [[v + 1 for v in row] for row in table(n)])
    report = verify.run_suite("characters", max_n=1)
    assert not report.ok
    assert report.summary_lines()[0].endswith("[FAIL]")
    assert (
        "  FAIL row orthogonality, degree 1: expected [], got [((1,), (1,), 4)]  "
        "(weighted character rows are orthogonal with norm n!)"
    ) in report.summary_lines()


def test_hooks_suite_reports_a_wrong_closed_form(monkeypatch):
    monkeypatch.setattr(characters, "character_at_full_cycle", lambda lam: 0)
    report = verify.run_suite("hooks", max_n=2)
    assert [f.case for f in report.failures] == ["full-cycle characters, degree 1", "full-cycle characters, degree 2"]
    assert report.summary_lines()[1:] == [
        "  FAIL full-cycle characters, degree 1: expected [], got [((1,), 0, 1)]  "
        "(the recursion matches the hook closed form, (-1)**(rows-1) on hooks and 0 off them)",
        "  FAIL full-cycle characters, degree 2: expected [], got [((2,), 0, 1), ((1, 1), 0, -1)]  "
        "(the recursion matches the hook closed form, (-1)**(rows-1) on hooks and 0 off them)",
    ]
