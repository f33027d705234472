"""Closed-form bound formulas and their asymptotics.

Three state-count bounds for converting an n-state two-way DFA into a
one-way unambiguous automaton, each a sum over k of
C(n, k-1) * C(n, k) * w(k) with weight:

* earlier lower bound: w(k) = 2**(k-1)
* new lower bound:     w(k) = C(2k-2, k-1)   (the exact rank)
* upper bound:         w(k) = k!

All values are exact integers.  The only floating-point computation is the
asymptotic ratio against (3*sqrt(3) / (8*pi*n)) * 9**n, done by scaling the
exact integer quotient to a fixed number of decimal digits before a single
high-precision division, so no intermediate ever overflows.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial
from operator import add, mul


def binomial(n: int, k: int) -> int:
    """C(n, k); out-of-range arguments (k < 0 or k > n) give 0 by convention."""
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def _weighted_sum(n: int, weight) -> int:
    """Sum of C(n,k-1) * C(n,k) * weight(k) over k = 1..n."""
    if n < 1:
        raise ValueError("n must be positive")
    return sum(binomial(n, k - 1) * binomial(n, k) * weight(k) for k in range(1, n + 1))


def bound_new(n: int) -> int:
    """Sum of C(n,k-1) * C(n,k) * C(2k-2,k-1) over k = 1..n.

    This is the exact rank of the communication matrix for n-state two-way
    DFAs, hence the lower bound on the one-way unambiguous state count.
    """
    return _weighted_sum(n, lambda k: binomial(2 * k - 2, k - 1))


def bound_earlier(n: int) -> int:
    """Sum of C(n,k-1) * C(n,k) * 2**(k-1) over k = 1..n."""
    return _weighted_sum(n, lambda k: 2 ** (k - 1))


def bound_upper(n: int) -> int:
    """Sum of C(n,k-1) * C(n,k) * k! over k = 1..n."""
    return _weighted_sum(n, factorial)


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

    The weights are made once per table and each row's products
    C(n, k-1) * C(n, k) once per n, shared by the three sums.
    """
    ks = range(1, n_max + 1)
    earlier = [2 ** (k - 1) for k in ks]
    new = [comb(2 * k - 2, k - 1) for k in ks]
    upper = [factorial(k) for k in ks]
    rows = []
    pascal = [1]  # C(n, 0..n), one Pascal step per row
    for n in ks:
        pascal = [1, *map(add, pascal, pascal[1:]), 1]
        products = list(map(mul, pascal, pascal[1:]))
        rows.append(BoundRow(n, *(sum(map(mul, products, w)) for w in (earlier, new, upper))))
    return rows


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
