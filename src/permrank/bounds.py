"""Closed-form bound formulas and their asymptotics.

Three state-count bounds for converting an n-state two-way DFA into a
one-way unambiguous automaton, each a sum over k of
C(n, k-1) * C(n, k) * w(k) with weight:

* earlier lower bound: w(k) = 2**(k-1)      = w(k-1) * 2
* new lower bound:     w(k) = C(2k-2, k-1)  = w(k-1) * 2(2k-3) / (k-1)   (the exact rank)
* upper bound:         w(k) = k!            = w(k-1) * k

Each sum is one dot product of two term sequences, every term made from the
one before (C(n, k) as C(n, k-1) * (n-k+1) / k), so no sum calls ``math.comb``.
All values are exact integers.  The only floating-point computation is the
asymptotic ratio against (3*sqrt(3) / (8*pi*n)) * 9**n, done by scaling the
exact integer quotient to a fixed number of decimal digits before a single
high-precision division, so no intermediate ever overflows.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate, pairwise, starmap
from math import comb
from operator import mul


def binomial(n: int, k: int) -> int:
    """C(n, k); out-of-range arguments (k < 0 or k > n) give 0 by convention."""
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def _terms(step, count: int) -> Iterator[int]:
    """t(1..count), with t(1) = 1 and t(k) = step(t(k-1), k)."""
    return accumulate(range(2, count + 1), step, initial=1)


#: The weight steps w(k-1) -> w(k) of 2**(k-1), C(2k-2, k-1) and k!.
_EARLIER, _NEW, _UPPER = (lambda w, k: 2 * w, lambda w, k: w * 2 * (2 * k - 3) // (k - 1), mul)


def _products(n: int) -> Iterator[int]:
    """C(n, k-1) * C(n, k) for k = 1..n, from the terms t(k) = C(n, k-1), k = 1..n+1."""
    if n < 1:
        raise ValueError("n must be positive")
    return starmap(mul, pairwise(_terms(lambda c, k: c * (n - k + 2) // (k - 1), n + 1)))


def bound_new(n: int) -> int:
    """Sum of C(n,k-1) * C(n,k) * C(2k-2,k-1) over k = 1..n.

    This is the exact rank of the communication matrix for n-state two-way
    DFAs, hence the lower bound on the one-way unambiguous state count.
    """
    return sum(map(mul, _products(n), _terms(_NEW, n)))


def bound_earlier(n: int) -> int:
    """Sum of C(n,k-1) * C(n,k) * 2**(k-1) over k = 1..n."""
    return sum(map(mul, _products(n), _terms(_EARLIER, n)))


def bound_upper(n: int) -> int:
    """Sum of C(n,k-1) * C(n,k) * k! over k = 1..n."""
    return sum(map(mul, _products(n), _terms(_UPPER, n)))


def dfa_bound(n: int) -> int:
    """States sufficient (and necessary) for a one-way DFA: n(n^n - (n-1)^n) + 1."""
    if n < 1:
        raise ValueError("n must be positive")
    return n * (n**n - (n - 1) ** n) + 1


def nfa_bound(n: int) -> int:
    """States sufficient (and necessary) for a one-way NFA: C(2n, n+1)."""
    if n < 1:
        raise ValueError("n must be positive")
    return binomial(2 * n, n + 1)


@dataclass(frozen=True)
class BoundRow:
    n: int
    earlier_lower: int
    new_lower: int
    upper: int


def bound_table(n_max: int) -> list[BoundRow]:
    """Rows 1..n_max of the three-column bound table.

    The weight lists are made once per table and the products once per row,
    each term from the one before as in the per-n sums.
    """
    weights = [list(_terms(step, n_max)) for step in (_EARLIER, _NEW, _UPPER)]
    products = (list(_products(n)) for n in range(1, n_max + 1))
    return [BoundRow(n, *(sum(map(mul, p, w)) for w in weights)) for n, p in enumerate(products, 1)]


def asymptotic_ratio(n: int, digits: int = 50) -> mpmath.mpf:
    """bound_new(n) divided by (3*sqrt(3) / (8*pi*n)) * 9**n.

    Tends to 1 as n grows.  The exact integer quotient
    bound_new(n) * 8n // (3 * 9**n) is scaled by 10**digits before any
    rounding, so the result carries at least ``digits`` significant digits
    for any n (9**400 is far beyond hardware floats, the scaled quotient is
    not).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if digits < 1:
        raise ValueError("digits must be positive")
    import mpmath  # loaded here only: importing it costs about 30 ms

    scaled = bound_new(n) * 8 * n * 10**digits // (3 * 9**n)
    with mpmath.workdps(digits + 10):
        return +(mpmath.mpf(scaled) * mpmath.pi / (mpmath.sqrt(3) * mpmath.mpf(10) ** digits))
