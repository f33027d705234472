"""Cycle-indicator matrices over the symmetric group and their exact ranks.

For degree n, rows and columns are indexed by the n! permutations in
canonical (lexicographic) order.  Two 0/1 matrices are built:

* product form: entry (pi, sigma) is 1 when sigma . pi is a single n-cycle;
* quotient form: entry (pi, sigma) is 1 when sigma . pi^-1 is a single
  n-cycle, i.e. the product form with rows re-indexed by inverses.  This is
  also the matrix of left multiplication by the sum of all n-cycles in the
  group algebra, which left_multiplication_matrix builds independently.

Storage is bit-packed (bitmatrix.BinaryMatrix); rows become residues only
inside elimination.  The build reads every entry from one slab.  Entry
(pi, sigma) is 1 when pi . sigma, a conjugate of sigma . pi, is an
n-cycle.  The first s = (n-2)! permutations form the subgroup H fixing the
first two points, and each run of s columns is a coset c . H, so
M[pi, c . h] = slab[rank(pi . c), h] for the slab M[:, :s], made from the
multiplication table of H; degree 8 gathers its slab over S_6 from one
over S_4 the same way (S_4 < S_6 < S_8).  A gather takes byte rows
slab[rank(x . c)] for a chunk of rows x and every coset c, ranked by one
float32 matmul (perms.composition_ranks), exact since every sum is at most
8! - 1 < 2**24.  The certificates gather only their n!/(m1 m2) columns
s_j = r_j^-1 (below), from the indicator itself as a one-column slab.

The certificate ranks M mod random ~30-bit primes without eliminating M
itself: it splits M by the argument below, which uses only that
M[pi, sigma] depends on the conjugacy class of sigma . pi, none of the
character theory the ranks confirm.  rank_exact never splits, so it checks
the split.  A residue rank is a lower bound on the rational rank, and one
Hadamard bound on an integer matrix proves the upper bound class by class
(Norms, below).  The exact method draws primes until every class is
proved; the modular one stops at its prime cap, and claims only the lower
bound if a class is left open.  rank_exact's fallback is the same argument
with c = 1, on its own integer matrix directly over Z.

Invariance.  For permutations ``a`` of order m1 and ``b`` of order m2,
pi -> b^e . pi . a^d and sigma -> a^-d . sigma . b^-e turn sigma . pi into
its conjugate by a^d, so A = <a> x <b> (in S_n x S_n) acts on rows and
columns and M is invariant.

Freeness.  b^e . pi . a^d = pi means b^e = pi . a^-d . pi^-1, so A acts
freely exactly when no nontrivial power of ``a`` has the cycle type of a
nontrivial power of ``b``.  Of the pairs of cycle types that obey this,
the first with the largest m1 m2 is taken: 3 and 2+1 (6) at degree 3,
6 and 3+2+1 (36) at degree 6, 5+2 and 4+3 (120) at degree 7, 8 and 5+3
(120) at degree 8.

Group matrix.  Let r_i be least in each row orbit {b^e . pi . a^d} and
s_j = r_j^-1.  Column (d', e', j) = a^-d' . s_j . b^-e' is the inverse of
row (d', e', j), so M is read as the group matrix [chi(x . y^-1)] of the
n-cycle indicator chi, free on the columns as it is on the rows.  Entry
((d, e, i), (d', e', j)) is G[d - d', e - e', i, j] for the symbols
G[d, e, i, j] = chi(b^e . r_i . a^d . r_j^-1), so up to a permutation
M = sum_(d, e) kron(G[d, e], P1^d (x) P2^e), P1 and P2 the cyclic shifts
of orders m1 and m2.

Fourier blocks.  The shift P of order m has the m distinct eigenvalues z^t,
z a primitive m-th root of unity, over C and mod every prime p = 1 (mod m).
So M is equivalent to the direct sum of the m1 m2 Fourier blocks
sum_(d, e) z1^(d t1) z2^(e t2) G[d, e] of order N = n!/(m1 m2), and its rank
is the sum of theirs.  The block's class is (d1, d2), the orders of
z1^t1 and z2^t2, one class per pair d1 | m1, d2 | m2; over C its entries
lie in Z[zeta_c], c = lcm(d1, d2).  Mod a prime p = 1 (mod L),
L = lcm(m1, m2), one primitive L-th root of unity w gives the class's
roots w1 = w^(L/d1) and w2 = w^(L/d2), so the block of class (d1, d2)
weighs symbol (d, e) by w^((L/d1) d + (L/d2) e), and one table of powers
of w serves every class.

Power map.  The phi(d1) phi(d2) blocks of class (d1, d2) have equal
rank, so one is eliminated and its rank counted phi(d1) phi(d2) times.
For u prime to m1, the permutation c that maps c_i to c_(u i mod l) on each cycle
(c_0 ... c_(l-1)) of ``a`` satisfies c . a . c^-1 = a^u; likewise
c' . b . c'^-1 = b^v for v prime to m2.  The map pi -> c' . pi . c^-1,
sigma -> c . sigma . c'^-1 conjugates sigma . pi and sends b^e . pi . a^d
to b^(v e) . (c' . pi . c^-1) . a^(u d): it permutes the orbits and
scales the group indices, so the block for (w1, w2) equals the block for
(w1^u, w2^v) up to permutations and diagonal scalings.  Units mod m map
onto units mod d, so every primitive d-th root is such a w^u.  Each prime
thus costs tau(m1) tau(m2) eliminations: 24 of order 42 at degree 7, 16
of order 336 at degree 8.

Norms.  Let r be the largest rank of a class's modular block over the
primes drawn, and P their product.  Each p splits completely in
Z[zeta_c]: mod the prime ideal on which zeta_c is w^(L/c) the Fourier
block is the modular block, and mod the others it is the modular block
for (w1^u, w2^u), u prime to c, of the same rank by the power map.  So
every (r+1)-minor alpha of the Fourier block lies in every prime ideal
above each p, hence in P Z[zeta_c], and P^phi(c) divides its norm, the
product of its phi(c) Galois conjugates.  The symbols are 0/1, so every
entry of every conjugate block is at most, in absolute value, the
matching entry of the integer orbit-sum matrix B_0 = sum_(d, e) G[d, e],
the class (1, 1) block; by Hadamard's inequality each conjugate of alpha
has square at most the product of the r+1 largest squared row norms of
B_0 (or column norms).  Once P^2 exceeds that product, the norm is an
integer multiple of P^phi(c) smaller than P^phi(c), hence 0, so alpha = 0
and the class has rank r over Q(zeta_c): the multimodular Hadamard
argument (von zur Gathen and Gerhard, Modern Computer Algebra) taken
through the norm down to Z.  One N x N integer matrix bounds every class.

Stacks.  A prime's blocks all have one shape, so _class_ranks builds them
in one int64 array, reduces it mod p in place and hands _echelon_mod_p
contiguous slices of it, each within _STACK_BYTES or a single block: the
kernel pays each column's Python cost once for a whole slice.
rank_mod_prime and rank_exact pass a stack of one.  The blocks (2**15
entries at a time), the kernel's scaled pivot rows and its updates (in the
buffer of the products it subtracted) are reduced as x - (x // p) * p
(_reduce): numpy's int64 floor division by one scalar is libdivide's
multiply and shift, about a third of np.remainder's cost.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import accumulate, islice
from math import factorial, gcd, isqrt, lcm, prod
from operator import mul

import numpy as np

from . import group_algebra, perms, young
from .bitmatrix import BinaryMatrix, read_pbm, write_pbm  # write_pbm and read_pbm are re-exported

# perfbench/child.py reads both names to record the elimination kernel and integer type.
numba, mpz = None, int

#: Order cap for rank_exact.
MAX_EXACT_ORDER = 1000

#: Largest degree of left_multiplication_matrix (order 720).
MAX_OPERATOR_DEGREE = 6

_PRIME_LOW = 1 << 29
_PRIME_HIGH = 1 << 31

_CHECK_PRIME = 2147483629  # rank_exact's one prime, the largest below 2**31

_BUILD_CHUNK_ROWS = 1024  # rows per gather; 4096 raised the degree-8 build's peak RSS by about 4 MB

# Most int64 residues in one elimination stack: the 24 degree-7 blocks of order 42 (331 KiB) go in
# one stack, each degree-8 block of order 336 (882 KiB) alone.  One stack instead of three at 128 KiB
# raised modp-k7's peak RSS by 0.3 MB (BENCH_25.json), as the kernel's scratch is about twice the
# stack; stacking degree-8 blocks is slower (they fall out of cache).
_STACK_BYTES = 1 << 20

# Entries of a prime's blocks reduced mod p at a time through one 256 KiB scratch, freed before the
# elimination: a scratch of the blocks' size would raise the peak RSS, by 14 MiB at degree 8.
_REDUCE_CHUNK = 1 << 15


def _cycle_indicator(n: int) -> np.ndarray:
    """is_cycle[r]: whether the permutation of rank r is a single n-cycle."""
    return perms.cyclic_mask(perms.perm_array(n))


def _slab(indicator: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """The packed slab ``slab[x, h] = indicator[rank(x . h)]`` over H = S_t on the last t points, and |H|."""
    *outer, t = range(n - 2, 3, -2) if n >= 6 else [n]  # |H| whole bytes from n = 6 on; S_4, S_6 at n = 8
    s, sub = factorial(t), perms.perm_array(t)
    mult = perms.composition_ranks(sub, perms.composition_weights(sub))  # rank of h_i . h_r in S_t
    # slab row c . h_i holds indicator[rank(c . h_i . h_r)] at column r
    slab = np.packbits(np.take(indicator.reshape(-1, s), mult, axis=1).reshape(-1, s), axis=1)
    for t in reversed(outer):
        perm_arr = perms.perm_array(n)  # its first t! rows are S_t, a run of s per coset of the last level
        slab, s = _gather(slab, perm_arr, perm_arr[:factorial(t):s]), factorial(t)
    return slab, s


def _gather(slab: np.ndarray, rows: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """Row i: the byte rows ``slab[rank(rows[i] . c)]`` for c in ``reps``, one checked take per chunk."""
    weights = perms.composition_weights(reps)
    out = np.empty((len(rows), len(reps), slab.shape[1]), dtype=np.uint8)
    for r0 in range(0, len(rows), _BUILD_CHUNK_ROWS):
        chunk = slice(r0, r0 + _BUILD_CHUNK_ROWS)
        idx = perms.composition_ranks(rows[chunk], weights)
        if idx.min() < 0 or idx.max() >= len(slab):
            raise IndexError(f"slab row out of range 0..{len(slab) - 1} at degree {rows.shape[1]}")
        # mode="raise" would buffer the output and copy it twice; the range is checked above
        np.take(slab, idx, axis=0, out=out[chunk], mode="clip")
    return out.reshape(len(rows), -1)


def _build_cycle_matrix(n: int, invert_rows: bool) -> BinaryMatrix:
    perm_arr = perms.perm_array(n)  # refuses degrees outside 1..MAX_ENUM_DEGREE
    slab, s = _slab(_cycle_indicator(n), n)
    rows = np.argsort(perm_arr, axis=1).astype(np.int8) if invert_rows else perm_arr  # pi^-1: quotient form
    return BinaryMatrix(factorial(n), _gather(slab, rows, perm_arr[::s]), n)  # one c per coset c . H


def cycle_product_matrix(n: int) -> BinaryMatrix:
    """Entry (pi, sigma) is 1 iff sigma . pi is a single n-cycle."""
    return _build_cycle_matrix(n, invert_rows=False)


def cycle_quotient_matrix(n: int) -> BinaryMatrix:
    """Entry (pi, sigma) is 1 iff sigma . pi^-1 is a single n-cycle."""
    return _build_cycle_matrix(n, invert_rows=True)


def left_multiplication_matrix(n: int) -> BinaryMatrix:
    """Matrix of x -> (sum of all n-cycles) * x on the group algebra.

    Column g holds the coefficient vector of the product against basis
    element g.  Built through group_algebra multiplication, independently of
    the direct constructors, so equality with cycle_quotient_matrix is a
    meaningful check rather than a restatement.
    """
    if not 1 <= n <= MAX_OPERATOR_DEGREE:
        raise ValueError(f"degree must be in 1..{MAX_OPERATOR_DEGREE}, got {n}")
    q = group_algebra.cyclic_class_sum(n)
    ranks = {g: r for r, g in enumerate(perms.all_perms(n))}  # all_perms is in rank order
    dense = np.zeros((len(ranks), len(ranks)), dtype=np.uint8)
    for g, col in ranks.items():
        for h, coeff in (q * group_algebra.basis(g)).coeffs.items():
            dense[ranks[h], col] = coeff
    return BinaryMatrix.from_dense(dense, n)


# --- primality and prime sampling (deterministic Miller-Rabin) ---

def is_prime(n: int) -> bool:
    """Deterministic for n < 3.2e9 (witnesses 2, 3, 5, 7)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random, modulus: int = 1) -> int:
    """A random prime strictly between 2**29 and 2**31 that is 1 mod ``modulus``."""
    if modulus < 1:
        raise ValueError(f"modulus must be positive, got {modulus}")
    # candidates q * modulus + 1 with 2**29 < q * modulus + 1 < 2**31
    q_low = -(-_PRIME_LOW // modulus)
    q_high = (_PRIME_HIGH - 2) // modulus
    while True:
        candidate = rng.randrange(q_low, q_high + 1) * modulus + 1
        if is_prime(candidate):
            return candidate


def _root_of_unity(m: int, p: int) -> int:
    """A primitive m-th root of unity modulo the prime ``p``; needs p = 1 (mod m)."""
    if (p - 1) % m:
        raise ValueError(f"no primitive {m}-th root of unity mod {p}")
    prime_factors = [q for q in range(2, m + 1) if m % q == 0 and is_prime(q)]
    for g in range(2, p):
        w = pow(g, (p - 1) // m, p)
        if all(pow(w, m // q, p) != 1 for q in prime_factors):
            return w
    raise ValueError(f"{p} is not an odd prime")


# --- elimination over Z/pZ ---

def _echelon_mod_p(a: np.ndarray, p: int, reduced: bool = False) -> list[list[int]]:
    """Row echelon form over Z/pZ of every matrix in the C-contiguous stack ``a`` (B, m, n), in place.

    Returns each matrix's pivot columns.  One pass over the columns serves
    the whole stack: in column c a matrix of rank r takes as pivot its first
    nonzero row at or below r, swaps it up to row r, scales it to 1 and
    clears the column below it (and above it when ``reduced``).  Only rows
    with a nonzero in column c change, and the pass stops once the rows
    below every rank are zero.  Entries stay in [0, p), so no product
    reaches p**2 < 2**62.
    """
    stack, m, ncols = a.shape
    rows = a.view()
    rows.shape = (stack * m, ncols)  # row i of matrix j is rows[j * m + i]; raises where a view cannot do
    starts = np.arange(stack) * m
    tops = starts.copy()  # the row at each matrix's rank, where its next pivot goes
    candidate = np.ones(stack * m, dtype=bool)  # rows at or below their matrix's rank
    is_pivot = np.zeros((stack, ncols), dtype=bool)
    pivoted = False  # whether column c - 1 had a pivot
    for c in range(ncols):
        nonzero = ((rows[:, c] != 0) & candidate).reshape(stack, m)
        if not np.count_nonzero(nonzero):
            if pivoted and not rows[candidate, c:].any():
                break  # the rows below every rank are zero from here on, so no pivot is left
            pivoted = False
            continue
        pivoted = True
        pivoting = nonzero.any(axis=1)
        top, found = tops[pivoting], (nonzero.argmax(axis=1) + starts)[pivoting]
        if np.count_nonzero(found != top):  # the row at found takes the old row at top, which is zero in column c
            rows[found], rows[top] = rows[top], rows[found]
        inverses = np.array([pow(x, -1, p) for x in rows[top, c].tolist()])
        pivot_rows = rows[top, c:]
        pivot_rows *= inverses[:, None]
        rows[top, c:] = _reduce(pivot_rows, p, np.empty_like(pivot_rows))
        candidate[top] = False
        factors = rows[:, c] * (np.repeat(pivoting, m) if reduced else candidate)
        factors[top] = 0
        if (live := factors.nonzero()[0]).size:
            if len(top) > 1:  # each live row's own pivot row; one pivot row broadcasts
                pivot_rows = pivot_rows[np.cumsum(pivoting)[live // m] - 1]
            update = factors[live, None] * pivot_rows
            del pivot_rows  # at most two (live, n - c) arrays at a time
            changed = rows[live, c:]
            changed -= update
            rows[live, c:] = _reduce(changed, p, update)
            del update, changed
        tops += pivoting
        is_pivot[:, c] = pivoting
    return [np.flatnonzero(row).tolist() for row in is_pivot]


def _reduce(x: np.ndarray, p: int, scratch: np.ndarray) -> np.ndarray:
    """``x`` mod ``p`` in place, through ``scratch`` of x's shape, for int64 ``x`` in (-p**2, p**2).

    x - (x // p) * p: numpy divides int64 by one scalar with libdivide's
    multiply and shift, about 1 ns an element, where np.remainder's hardware
    divide takes 3.4 ns.  // floors, so negative x land in [0, p) too.
    """
    np.floor_divide(x, p, out=scratch)
    scratch *= p
    x -= scratch
    return x


def _as_int64(m) -> np.ndarray:
    if isinstance(m, BinaryMatrix):
        return m.to_dense().astype(np.int64)
    arr = np.asarray(m)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"expected integer entries, got dtype {arr.dtype}")
    return arr.astype(np.int64)


def rank_mod_prime(m, p: int) -> int:
    """Rank of an integer matrix over the field with ``p`` elements.

    ``p`` must be a prime with 2**29 < p < 2**31.  The result never exceeds
    the rank over the rationals.
    """
    _check_prime(p)
    a = _as_int64(m)
    a %= p
    return len(_echelon_mod_p(a[None], p)[0])


def _check_prime(p: int) -> None:
    if not (_PRIME_LOW < p < _PRIME_HIGH) or not is_prime(p):
        raise ValueError(f"p must be a prime in (2**29, 2**31), got {p}")


# --- the split by A = <a> x <b> (module docstring) ---

def _power_cycle_types(cycle_type) -> set[tuple[int, ...]]:
    """Cycle types of the nontrivial powers a^d of a permutation ``a`` of this cycle type.

    An l-cycle of ``a`` falls into gcd(l, d) cycles of length l / gcd(l, d) in a^d.
    """
    return {
        tuple(sorted((l // gcd(l, d) for l in cycle_type for _ in range(gcd(l, d))), reverse=True))
        for d in range(1, lcm(*cycle_type))
    }


def _cycle_type_pair(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Cycle types of a and b for which <a> x <b> acts freely on S_n (module docstring).

    Of such pairs, the first in the order of young.partitions with the
    largest product of the two orders.
    """
    powers = {lam: _power_cycle_types(lam) for lam in young.partitions(n)}
    free = [(lam, mu) for lam in powers for mu in powers if not powers[lam] & powers[mu]]
    return max(free, key=lambda pair: lcm(*pair[0]) * lcm(*pair[1]))


def _orbit_minima(inner: np.ndarray, m_inner: int, outer: np.ndarray, m_outer: int) -> np.ndarray:
    """Ranks that are least in their orbit under the commuting rank maps ``inner`` and ``outer``.

    Minima propagate by doubling: after j rounds along a map f of order m,
    low[x] is the least of x, f(x), ..., f^(2^j - 1)(x), which is the whole
    <f>-orbit once 2^j >= m.  The inner minima, taken along ``outer``, give
    the minima over the orbits of the group the two maps generate.
    """
    everyone = np.arange(len(inner))
    low = everyone
    for step, m in ((inner, m_inner), (outer, m_outer)):
        for _ in range((m - 1).bit_length()):  # ceil(log2 m) rounds
            low = np.minimum(low, low[step])
            step = step[step]
    return np.flatnonzero(low == everyone)


def _group_symbols(indicator: np.ndarray, cycle_types) -> np.ndarray:
    """Symbols ``G[d, e, i, j] = chi(b^e . r_i . a^d . r_j^-1)`` of the group-matrix form of M.

    chi is the class ``indicator`` over the ranks of degree n.  ``a`` and
    ``b`` have the given cycle types and orders m1 and m2, and <a> x <b>
    acts freely (see _cycle_type_pair); r_i is least in its row orbit
    {b^e . pi . a^d}, and the columns are read at s_j = r_j^-1 (module
    docstring) by the build's _gather, with chi as a one-column slab.
    """
    n = sum(cycle_types[0])
    perm_arr = perms.perm_array(n)
    # 1-based cycles on consecutive points, e.g. (1 2 3 4)(5 6 7) for 4+3; int8 keeps b[perm_arr] int8
    a, b = (
        np.array(perms.from_cycles(n, *(tuple(range(e - c + 1, e + 1))
                                        for e, c in zip(accumulate(lam), lam))), dtype=np.int8)
        for lam in cycle_types
    )
    m1, m2 = (lcm(*lam) for lam in cycle_types)
    # rank maps of one step, pi -> pi . a and pi -> b . pi: both take 0.3 ms at degree 7 and 2-4 ms
    # at 8, where perms.composition_ranks takes longer for pi -> pi . a alone
    right_a, left_b = perms.perm_ranks(perm_arr[:, a]), perms.perm_ranks(b[perm_arr])
    reps = _orbit_minima(right_a, m1, left_b, m2)
    rows = np.empty((m1, m2, len(reps)), dtype=np.int64)
    rows[0, 0] = reps
    for d in range(1, m1):
        rows[d, 0] = right_a[rows[d - 1, 0]]
    for e in range(1, m2):
        rows[:, e] = left_b[rows[:, e - 1]]
    cols = np.argsort(perm_arr[reps], axis=1)  # s_j = r_j^-1
    symbols = _gather(indicator.astype(np.uint8)[:, None], perm_arr[rows.ravel()], cols)
    return symbols.reshape(rows.shape + (len(reps),))


def _divisors(m: int) -> list[int]:
    return [d for d in range(1, m + 1) if m % d == 0]


def _totient(d: int) -> int:
    return sum(gcd(t, d) == 1 for t in range(d))


def _block_sums(weights: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """``weights @ symbols.reshape(m1 m2, -1)`` as int64, for integer ``weights`` of m1 m2 columns.

    One float64 matmul per 256 columns of the symbols: every sum has m1 m2
    terms weight * 0/1, so it is exact while m1 m2 max|weight| < 2**53.
    """
    m1, m2 = symbols.shape[:2]
    top = int(np.abs(weights).max(initial=0))
    if m1 * m2 * top >= 1 << 53:
        raise OverflowError(f"block sums of {m1 * m2} weights up to {top} "
                            "could exceed 2**53, where float64 rounds")
    flat, weights = symbols.reshape(m1 * m2, -1), weights.astype(np.float64)
    sums = np.empty((len(weights), flat.shape[1]), dtype=np.int64)
    for c0 in range(0, flat.shape[1], 256):
        sums[:, c0:c0 + 256] = weights @ flat[:, c0:c0 + 256].astype(np.float64)
    return sums


def _class_ranks(symbols: np.ndarray, p: int, classes=None) -> list[int]:
    """Rank mod ``p`` of each divisor class's Fourier blocks, for every class or those in ``classes``.

    Classes (d1, d2), d1 | m1 and d2 | m2, are in lexicographic order.  Only
    the requested classes' Fourier blocks sum_(d, e) w^((L/d1) d + (L/d2) e) G[d, e]
    are built, w a primitive L-th root of unity, L = lcm(m1, m2); they are
    reduced in one array and eliminated in slices of it, and each rank is
    counted phi(d1) phi(d2) times (module docstring, power map).
    """
    _check_prime(p)
    m1, m2, order = symbols.shape[:3]
    pairs = [(d1, d2) for d1 in _divisors(m1) for d2 in _divisors(m2)]
    if classes is not None:
        pairs = [pairs[i] for i in classes]
    root_order = lcm(m1, m2)
    w = _root_of_unity(root_order, p)
    powers = np.array([pow(w, j, p) for j in range(root_order)], dtype=np.int64)
    exponents = [(root_order // d1 * np.arange(m1)[:, None] + root_order // d2 * np.arange(m2)) % root_order
                 for d1, d2 in pairs]
    weights = powers[np.array(exponents, dtype=np.int64).reshape(len(pairs), m1 * m2)]
    blocks = _block_sums(weights, symbols).reshape(-1, order, order)
    flat, scratch = blocks.reshape(-1), np.empty(_REDUCE_CHUNK, dtype=np.int64)
    for lo in range(0, len(flat), _REDUCE_CHUNK):
        part = flat[lo:lo + _REDUCE_CHUNK]
        _reduce(part, p, scratch[:len(part)])
    del scratch
    per_stack = max(1, _STACK_BYTES // (8 * order * order))
    ranks = [len(pivots) for lo in range(0, len(blocks), per_stack)
             for pivots in _echelon_mod_p(blocks[lo:lo + per_stack], p)]
    return [_totient(d1) * _totient(d2) * rank for (d1, d2), rank in zip(pairs, ranks)]


def _hadamard_bounds(block: np.ndarray) -> list[int]:
    """bounds[j] >= the square of every j x j minor of the integer ``block``, by Hadamard's inequality.

    It is the product of the j largest squared row norms, or of the j
    largest squared column norms if that is smaller, as exact Python ints.
    """
    top = max(int(block.max(initial=0)), -int(block.min(initial=0)))  # np.abs wraps at -2**63
    squares = block.astype(np.int64 if top * top * max(block.shape) < 1 << 63 else object) ** 2
    rows, cols = (sorted(squares.sum(axis=axis).tolist(), reverse=True) for axis in (1, 0))
    return [min(r, c) for r, c in zip(accumulate(rows, mul, initial=1), accumulate(cols, mul, initial=1))]


def _distinct_primes(seed: int, modulus: int) -> Iterator[int]:
    """Random primes p = 1 (mod ``modulus``) from ``seed``, each once: a repeated draw is skipped."""
    rng, seen = random.Random(seed), set()
    while True:
        p = random_prime(rng, modulus)
        if p not in seen:
            seen.add(p)
            yield p


def _proved_rank(symbols: np.ndarray, primes: Iterable[int]) -> tuple[int, list[int], int, int, int]:
    """Rank over Q of the group matrix with these 0/1 symbols, proved class by class (module docstring).

    Draws ``primes`` until every class has closed or they run out.  A class
    keeps r, the largest residue rank of its Fourier block, a lower bound,
    and closes at full rank, or once P**2, P the product of the primes that
    ranked it, exceeds the Hadamard bound on the squared (r+1)-minors of the
    orbit-sum matrix.  Later primes eliminate only the open classes.
    Returns the rank, the primes drawn, the largest bound a class had to
    exceed, the number of classes left open and the number of blocks
    eliminated over all primes; with none open the rank is proved, else it
    is a lower bound.
    """
    m1, m2, order = symbols.shape[:3]
    bounds = _hadamard_bounds(symbols.sum(axis=(0, 1), dtype=np.int64))
    counts = [_totient(d1) * _totient(d2) for d1 in _divisors(m1) for d2 in _divisors(m2)]
    ranks, used, product, eliminated = [0] * len(counts), [], 1, 0
    open_classes = list(range(len(counts)))
    for p in primes:
        used.append(p)
        product *= p
        eliminated += len(open_classes)
        for i, rank in zip(open_classes, _class_ranks(symbols, p, open_classes)):
            ranks[i] = max(ranks[i], rank // counts[i])
        open_classes = [i for i in open_classes
                        if ranks[i] < order and product * product <= bounds[ranks[i] + 1]]
        if not open_classes:
            break
    largest = max((bounds[r + 1] for r in ranks if r < order), default=0)
    return sum(map(mul, counts, ranks)), used, largest, len(open_classes), eliminated


# --- exact rank over the rationals ---

def rank_exact(m) -> int:
    """Rank over the rationals: one prime and an exact kernel check, or else primes to a Hadamard bound.

    With the matrix transposed if needed to n <= m columns, r = rank mod p
    (p = 2147483629) is a lower bound, and the rank when r = n.  Otherwise
    the reduced echelon form mod p gives n - r independent kernel vectors;
    rationally reconstructed and scaled to integers, they satisfy A K = 0
    over Z only if the rank is at most r.  If reconstruction or that check
    fails (an unlucky prime, or denominators above sqrt(p/2)), random primes
    from seed 0 are drawn afresh, and r, the largest rank mod any of them,
    is the rank once r = n or once P**2, P their product, exceeds the
    Hadamard bound on the squared (r+1)-minors: P divides each of them
    (module docstring, Norms, with c = 1).  Limited to order MAX_EXACT_ORDER.
    """
    shape = (m.order, m.order) if isinstance(m, BinaryMatrix) else np.shape(m)
    if max(shape, default=0) > MAX_EXACT_ORDER:
        raise ValueError(
            f"dimensions {shape} exceed exact-elimination cap {MAX_EXACT_ORDER}; "
            "use rank_mod_prime / the modular certification path"
        )
    a = _as_int64(m)
    if a.shape[1] > a.shape[0]:
        a = a.T  # the narrow side has the smaller kernel
    echelon = np.remainder(a, _CHECK_PRIME, out=np.empty(a.shape, dtype=np.int64))  # C-contiguous
    pivots = _echelon_mod_p(echelon[None], _CHECK_PRIME, reduced=True)[0]
    # of full column rank mod p, a has no kernel to check: its rank is at most its column count
    if len(pivots) == a.shape[1] or _kernel_vanishes(a, echelon, pivots):
        return len(pivots)
    bounds, rank, product = _hadamard_bounds(a), 0, 1
    for p in _distinct_primes(0, 1):  # _CHECK_PRIME may come up again, so its rank is not counted
        rank, product = max(rank, rank_mod_prime(a, p)), product * p
        if rank == a.shape[1] or product * product > bounds[rank + 1]:
            return rank


def _kernel_vanishes(a: np.ndarray, echelon: np.ndarray, pivots: list[int]) -> bool:
    """Whether the kernel read off the reduced echelon form of ``a`` mod p, reconstructed over Q, vanishes over Z."""
    n, r, p = a.shape[1], len(pivots), _CHECK_PRIME
    free = sorted(set(range(n)).difference(pivots))
    fractions = _rational_reconstruction(-echelon[:r, free] % p, p)
    if fractions is None:
        return False
    num, den = (x.astype(object) for x in fractions)
    scale = np.array([lcm(*column) for column in den.T.tolist()], dtype=object)
    kernel = np.zeros((n, n - r), dtype=object)
    kernel[pivots] = num * (scale // den)
    kernel[free, np.arange(n - r)] = scale
    return _vanishes(a, kernel)


def _rational_reconstruction(u: np.ndarray, p: int):
    """Entrywise num/den = u (mod p), |num|, den <= sqrt(p/2), by extended Euclid; or None."""
    bound = isqrt(p // 2)
    r0, r1 = np.full_like(u, p), u.copy()
    t0, t1 = np.zeros_like(u), np.ones_like(u)
    while (live := r1 > bound).any():
        q = r0[live] // r1[live]
        r0[live], r1[live] = r1[live], r0[live] - q * r1[live]
        t0[live], t1[live] = t1[live], t0[live] - q * t1[live]
    if (np.abs(t1) > bound).any():
        return None
    return r1 * np.sign(t1), np.abs(t1)


def _vanishes(a: np.ndarray, kernel: np.ndarray) -> bool:
    """Whether a @ kernel is zero: in float64 when every sum stays exact below 2**53, else in Python ints."""
    top_a, top_k = (max(int(x.max(initial=0)), -int(x.min(initial=0))) for x in (a, kernel))
    dtype = np.float64 if top_a * a.shape[1] * top_k < 1 << 53 else object
    return not (a.astype(dtype, copy=False) @ kernel.astype(dtype)).any()


# --- certification ---

@dataclass(frozen=True)
class BlockStructure:
    """How each prime split the matrix: ``count`` blocks of order ``order``.

    The blocks come from the subgroup <a> x <b> of S_n x S_n, of order
    ``subgroup_order``, generated by permutations a and b of the two
    ``cycle_types``.  Each prime eliminates one block per class of equal
    rank and skips the classes already proved; ``eliminated`` is the total
    over all primes.
    """

    cycle_types: tuple[tuple[int, ...], tuple[int, ...]]
    subgroup_order: int
    count: int
    order: int
    eliminated: int


@dataclass(frozen=True)
class RankCertificate:
    rank: int
    # 'exact-fraction-free' (every class proved; the name, older than the proof, is the string CI and
    # the benchmark check) or 'modular-multiprime' (a class left open, so a lower bound only)
    method: str
    primes: tuple[int, ...]
    note: str
    degree: int
    blocks: BlockStructure


def certified_rank(
    n: int,
    *,
    method: str = "modp",
    num_primes: int = 3,
    seed: int = 0,
) -> RankCertificate:
    """Rank of the degree-n cycle product matrix with a method record.

    Both methods draw distinct random ~30-bit primes p = 1 (mod lcm(m1, m2))
    from ``seed``, and at each eliminate one modular block per open pair of
    divisors (class); each class keeps its largest residue rank and closes
    once the Hadamard bound on the orbit-sum matrix is passed (module
    docstring, norms).  ``exact`` draws until every class has closed, which
    proves the rational rank; ``modp``, the default, stops after
    ``num_primes`` primes.  The certificate is ``exact-fraction-free`` when
    every class closed and ``modular-multiprime``, a lower bound, when one
    is left open.  No n! x n! matrix is made.  The note names the cycle
    types, the classes and their block order, the number of primes, the bit
    sizes of their product and of the largest bound it had to exceed, and
    the classes left open.
    """
    if not 1 <= n <= perms.MAX_ENUM_DEGREE:
        raise ValueError(f"degree must be in 1..{perms.MAX_ENUM_DEGREE}, got {n}")
    if method not in ("exact", "modp"):
        raise ValueError(f"unknown method {method!r}")
    if num_primes < 1:
        raise ValueError(f"num_primes must be at least 1, got {num_primes}")
    cycle_types = _cycle_type_pair(n)
    m1, m2 = (lcm(*lam) for lam in cycle_types)
    block_order = factorial(n) // (m1 * m2)
    symbols = _group_symbols(_cycle_indicator(n), cycle_types)
    types_label = " and ".join("+".join(map(str, lam)) for lam in cycle_types)
    primes = islice(_distinct_primes(seed, lcm(m1, m2)), None if method == "exact" else num_primes)
    rank, used, largest, left_open, eliminated = _proved_rank(symbols, primes)
    classes = len(_divisors(m1)) * len(_divisors(m2))
    claim = "a lower bound on the rank" if left_open else "rank"
    return RankCertificate(
        rank=rank,
        method="modular-multiprime" if left_open else "exact-fraction-free",
        primes=tuple(sorted(used)),
        note=(
            f"{claim} over the rationals, the sum over {classes} classes (d1, d2), d1 | {m1}, "
            f"d2 | {m2}, of phi(d1) phi(d2) times the rank of one Fourier block of order "
            f"{block_order} over Q(zeta_lcm(d1, d2)) (cycle types {types_label}); each block's "
            f"rank is its largest residue rank r over {len(used)} prime{'s' * (len(used) > 1)} "
            f"p = 1 (mod {lcm(m1, m2)}), proved once P^2 exceeds the Hadamard bound on the "
            f"squared (r+1)-minors of the orbit-sum matrix, P the product of the primes that "
            f"ranked it; P has {prod(used).bit_length()} bits, the largest orbit-sum bound "
            f"{largest.bit_length()} bits"
            + (f"; {left_open} of the {classes} classes not proved, so their r is a lower bound"
               if left_open else "")
        ),
        degree=n,
        blocks=BlockStructure(cycle_types, m1 * m2, m1 * m2, block_order, eliminated),
    )
