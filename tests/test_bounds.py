import math

import mpmath
import pytest

from permrank import bounds, reference_data


def test_binomial_matches_math_comb():
    for n in range(0, 20):
        for k in range(0, n + 1):
            assert bounds.binomial(n, k) == math.comb(n, k)


def test_binomial_out_of_range_is_zero():
    assert bounds.binomial(0, 0) == 1
    assert bounds.binomial(4, 3) == 4
    assert bounds.binomial(12, 6) == 924
    assert bounds.binomial(3, 5) == 0
    assert bounds.binomial(3, -1) == 0


def test_bound_values_match_frozen_table():
    for n, (earlier, new, upper) in reference_data.BOUNDS_TABLE.items():
        assert bounds.bound_earlier(n) == earlier
        assert bounds.bound_new(n) == new
        assert bounds.bound_upper(n) == upper


def test_bound_examples():
    assert bounds.bound_new(3) == 39
    assert bounds.bound_new(5) == 2055
    assert bounds.bound_new(10) == 65672850
    assert bounds.bound_earlier(4) == 180
    assert bounds.bound_earlier(7) == 29953
    assert bounds.bound_earlier(1) == 1
    assert bounds.bound_upper(4) == 292
    assert bounds.bound_upper(8) == 3154824
    assert bounds.bound_upper(2) == 6


def test_dfa_and_nfa_bounds():
    assert bounds.dfa_bound(1) == 2
    assert bounds.dfa_bound(3) == 58
    assert bounds.nfa_bound(2) == 4
    assert bounds.nfa_bound(3) == 15


def test_bound_table_rows():
    rows = bounds.bound_table(10)
    assert [r.n for r in rows] == list(range(1, 11))
    assert (rows[5].earlier_lower, rows[5].new_lower, rows[5].upper) == (5418, 15798, 24306)
    assert (rows[8].earlier_lower, rows[8].new_lower, rows[8].upper) == (927441, 8030943, 41368977)


def _direct_row(n):
    """The three sums written out with math.comb, independent of bounds.py."""
    def total(weight):
        return sum(math.comb(n, k - 1) * math.comb(n, k) * weight(k) for k in range(1, n + 1))

    return bounds.BoundRow(
        n, total(lambda k: 2 ** (k - 1)), total(lambda k: math.comb(2 * k - 2, k - 1)), total(math.factorial)
    )


def test_bound_table_matches_the_per_row_sums():
    direct = [_direct_row(n) for n in range(1, 81)]
    assert bounds.bound_table(80) == direct
    assert [
        bounds.BoundRow(n, bounds.bound_earlier(n), bounds.bound_new(n), bounds.bound_upper(n))
        for n in range(1, 81)
    ] == direct


def test_bound_sums_do_not_call_comb(monkeypatch):
    def refuse(*args):
        raise AssertionError("a bound sum called math.comb")

    monkeypatch.setattr(bounds, "comb", refuse)
    expected = reference_data.BOUNDS_TABLE[10]
    assert (bounds.bound_earlier(10), bounds.bound_new(10), bounds.bound_upper(10)) == expected
    assert bounds.bound_table(10) == [bounds.BoundRow(n, *reference_data.BOUNDS_TABLE[n]) for n in range(1, 11)]


def test_bound_ordering_up_to_200():
    for n in range(1, 201):
        earlier, new, upper = bounds.bound_earlier(n), bounds.bound_new(n), bounds.bound_upper(n)
        assert earlier <= new <= upper
        if n <= 3:
            assert new == upper
        else:
            assert earlier < new < upper


def test_hook_square_sum_identity():
    for n in range(1, 65):
        total = sum(bounds.binomial(n - 1, k - 1) ** 2 for k in range(1, n + 1))
        assert total == bounds.binomial(2 * n - 2, n - 1)


def test_asymptotic_ratio_at_one():
    r = bounds.asymptotic_ratio(1)
    with mpmath.workdps(60):
        direct = 8 * mpmath.pi / (27 * mpmath.sqrt(3))
        assert abs(r - direct) < mpmath.mpf(10) ** -45
    assert abs(float(r) - 0.5374) < 5e-4


def test_asymptotic_ratio_matches_frozen_values():
    for n, frozen in reference_data.ASYMPTOTIC_RATIOS.items():
        r = bounds.asymptotic_ratio(n, digits=40)
        with mpmath.workdps(50):
            assert abs(r - mpmath.mpf(frozen)) < mpmath.mpf(10) ** -25


def test_asymptotic_deviation_decreases():
    deviations = [abs(bounds.asymptotic_ratio(n) - 1) for n in (10, 50, 100, 200, 400)]
    assert all(a > b for a, b in zip(deviations, deviations[1:]))
    assert float(deviations[-1]) < reference_data.ASYMPTOTIC_CAP_AT_400


def test_asymptotic_ratio_digit_request():
    r30 = bounds.asymptotic_ratio(400, digits=30)
    r50 = bounds.asymptotic_ratio(400, digits=50)
    with mpmath.workdps(60):
        assert abs(r30 - r50) < mpmath.mpf(10) ** -29


def test_input_validation():
    for fn in (bounds.bound_new, bounds.bound_earlier, bounds.bound_upper,
               bounds.dfa_bound, bounds.nfa_bound, bounds.asymptotic_ratio):
        with pytest.raises(ValueError):
            fn(0)
