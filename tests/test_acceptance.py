"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import time
from math import comb, factorial
from types import SimpleNamespace

import mpmath
import pytest

from permrank import (
    bounds,
    characters,
    group_algebra,
    permmatrix,
    reference_data,
    verify,
    young,
)

EXPECTED_RANKS = {1: 1, 2: 2, 3: 6, 4: 20, 5: 70, 6: 252, 7: 924}


def _report(num: int, passed: bool, detail: str) -> None:
    print(f"\ncriterion {num:2d}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {num}: {detail}"


@pytest.fixture(scope="session")
def rank_results():
    t0 = time.perf_counter()
    exact = {k: permmatrix.rank_exact(permmatrix.cycle_product_matrix(k)) for k in range(1, 7)}
    exact_elapsed = time.perf_counter() - t0
    t0 = time.perf_counter()
    cert7 = permmatrix.certified_rank(7, num_primes=3, seed=0)
    modular_elapsed = time.perf_counter() - t0
    return SimpleNamespace(
        exact=exact,
        exact_elapsed=exact_elapsed,
        cert7=cert7,
        modular_elapsed=modular_elapsed,
    )


def test_criterion_01_rank_theorem(rank_results):
    ok = all(rank_results.exact[k] == EXPECTED_RANKS[k] for k in range(1, 7))
    ok = ok and rank_results.exact_elapsed < 60.0
    cert = rank_results.cert7
    ok = ok and cert.rank == 924 and len(cert.primes) == 3
    ok = ok and cert.method == "modular-multiprime"
    ok = ok and rank_results.modular_elapsed < 900.0
    _report(
        1,
        ok,
        f"exact ranks {[rank_results.exact[k] for k in range(1, 7)]} "
        f"in {rank_results.exact_elapsed:.1f}s; degree 7 rank {cert.rank} "
        f"under {len(cert.primes)} primes in {rank_results.modular_elapsed:.1f}s",
    )


def test_criterion_02_bound_table():
    t0 = time.perf_counter()
    mismatches = [
        n
        for n, row in reference_data.BOUNDS_TABLE.items()
        if (bounds.bound_earlier(n), bounds.bound_new(n), bounds.bound_upper(n)) != row
    ]
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 1.0
    _report(2, ok, f"30 table values for n=1..10 exact in {elapsed:.3f}s")


def test_criterion_03_operator_identity():
    operator_ok = all(
        permmatrix.left_multiplication_matrix(n) == permmatrix.cycle_quotient_matrix(n)
        for n in range(1, 6)
    )
    central_ok = all(
        group_algebra.is_central(group_algebra.cyclic_class_sum(n)) for n in range(1, 7)
    )
    _report(
        3,
        operator_ok and central_ok,
        "operator matrix equals quotient matrix for degrees 1..5; "
        "cyclic class sum central for degrees 1..6 (exhaustive)",
    )


def test_criterion_04_hook_lemma():
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for n in range(1, 11):
        for lam in young.partitions(n):
            value = characters.character(lam, (n,))
            expected = ((-1) ** (len(lam) - 1)) if young.is_hook(lam) else 0
            ok = ok and value == expected
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _report(4, ok, f"full-cycle character on {checked} partitions of n<=10 in {elapsed:.2f}s")


def test_criterion_05_dimension_identities():
    squares_ok = all(
        sum(young.syt_count(lam) ** 2 for lam in young.partitions(n)) == factorial(n)
        for n in range(1, 11)
    )
    enumeration_ok = all(
        young.syt_count(lam) == len(young.standard_tableaux(lam))
        for n in range(1, 9)
        for lam in young.partitions(n)
    )
    orthogonality_ok = True
    for n in range(1, 9):
        shapes = young.partitions(n)
        table = characters.character_table(n)
        sizes = [characters.class_size(mu) for mu in reversed(shapes)]
        for i in range(len(shapes)):
            for j in range(len(shapes)):
                dot = sum(s * a * b for s, a, b in zip(sizes, table[i], table[j]))
                orthogonality_ok = orthogonality_ok and dot == (
                    factorial(n) if i == j else 0
                )
    _report(
        5,
        squares_ok and enumeration_ok and orthogonality_ok,
        "squared dimensions sum to n! (n<=10); formula matches enumeration (n<=8); "
        "row orthogonality (n<=8); zero tolerance",
    )


def test_criterion_06_decomposition_cross_check(rank_results):
    identity_ok = all(
        sum(comb(n - 1, k - 1) ** 2 for k in range(1, n + 1)) == comb(2 * n - 2, n - 1)
        for n in range(1, 65)
    )
    ranks = dict(rank_results.exact)
    ranks[7] = rank_results.cert7.rank
    rank_ok = all(
        ranks[n] == sum(comb(n - 1, k - 1) ** 2 for k in range(1, n + 1)) for n in range(1, 8)
    )
    _report(
        6,
        identity_ok and rank_ok,
        "hook squared-dimension sum equals the central binomial for n<=64; "
        "computed ranks equal that sum for n<=7",
    )


def test_criterion_07_rank_conversion(rank_results):
    ranks = dict(rank_results.exact)
    ranks[7] = rank_results.cert7.rank
    ok = all(
        bounds.bound_new(n)
        == sum(comb(n, k - 1) * comb(n, k) * ranks[k] for k in range(1, n + 1))
        for n in range(1, 8)
    )
    _report(7, ok, "closed form rebuilt from certified ranks for n<=7, zero tolerance")


def test_criterion_08_asymptotics():
    t0 = time.perf_counter()
    points = (10, 50, 100, 200, 400)
    ratios = {n: bounds.asymptotic_ratio(n, digits=40) for n in points}
    with mpmath.workdps(50):
        frozen_ok = all(
            abs(ratios[n] - mpmath.mpf(reference_data.ASYMPTOTIC_RATIOS[n]))
            < mpmath.mpf(10) ** -25
            for n in points
        )
        deviations = [abs(ratios[n] - 1) for n in points]
    decreasing_ok = all(a > b for a, b in zip(deviations, deviations[1:]))
    cap_ok = float(deviations[-1]) < reference_data.ASYMPTOTIC_CAP_AT_400
    elapsed = time.perf_counter() - t0
    ok = frozen_ok and decreasing_ok and cap_ok and elapsed < 5.0
    _report(
        8,
        ok,
        f"ratios at 30+ digits for n in {points}; |r-1| strictly decreasing; "
        f"|r(400)-1| = {float(deviations[-1]):.5f} < {reference_data.ASYMPTOTIC_CAP_AT_400}; "
        f"{elapsed:.2f}s (limit itself unreachable at finite n; trend check as stated)",
    )


def test_criterion_09_automata_suite():
    t0 = time.perf_counter()
    report = verify.run_suite("automata", seed=0)
    elapsed = time.perf_counter() - t0
    ok = report.ok and report.cases == 300 and elapsed < 60.0
    _report(
        9,
        ok,
        f"100 random 3-state machines: conversion agreement on strings<=6, "
        f"behavior count ceiling, rank bound vs minimal DFA; {elapsed:.1f}s",
    )


def test_criterion_10_bitmap_regeneration(tmp_path):
    ok = True
    details = []
    for k in (2, 3, 4):
        path = tmp_path / f"cycle{k}.pbm"
        permmatrix.write_pbm(permmatrix.cycle_product_matrix(k), path)
        image = permmatrix.read_pbm(path)
        filled = image.filled_count()
        expected = factorial(k - 1) * factorial(k)
        ok = ok and filled == expected and image.is_symmetric()
        details.append(f"k={k}: {filled} filled")
    _report(10, ok, "; ".join(details) + " (expected 2, 12, 144; all symmetric)")
