"""Cycle-indicator matrices over the symmetric group and their exact ranks.

For degree n, rows and columns are indexed by the n! permutations in
canonical (lexicographic) order.  Two 0/1 matrices are built:

* product form: entry (pi, sigma) is 1 when sigma . pi is a single n-cycle;
* quotient form: entry (pi, sigma) is 1 when sigma . pi^-1 is a single
  n-cycle, i.e. the product form with rows re-indexed by inverses.  This is
  also the matrix of left multiplication by the sum of all n-cycles in the
  group algebra, which left_multiplication_matrix builds independently.

Ranks are certified two ways: rank_exact gives the rank over the rationals
(the rank mod one prime, proved by an exact kernel check, with Bareiss
elimination as the fallback); elimination modulo random ~30-bit primes gives
a lower bound that equals the rational rank unless the prime divides a
critical minor.  Storage is bit-packed; rows become residues only inside
elimination.

The build copies bytes.  Entry (pi, sigma) is 1 when pi . sigma, a conjugate
of sigma . pi, is an n-cycle.  The first s = (n-2)! permutations form the
subgroup H fixing the first two points and each run of s columns is a coset
c . H, so M[pi, c . h] = M[pi . c, h]: coset c of row pi is row pi . c of the
slab M[:, :s], made from the multiplication table of H.

The modular certificate never eliminates the full matrix.  Its entry
depends only on the conjugacy class of sigma . pi, so it is unchanged when
pi is replaced by pi . a and sigma by a^-1 . sigma, for a fixed permutation
``a`` of order m.  Grouping rows into orbits {pi . a^u} and columns into
orbits {a^-v . sigma} therefore makes every (row orbit, column orbit) pair
an m x m circulant.  For a prime p = 1 (mod m), the discrete Fourier
transform with the m-th roots of unity mod p diagonalises every circulant
at once; it is an invertible change of basis over the field with p
elements, so it splits the matrix into m blocks of order n!/m whose ranks
mod p add up to exactly the rank of the full matrix mod p.  The argument
uses only that invariance, none of the character theory the ranks confirm.

The exact certificate splits the same circulant structure over the
rationals instead.  The m x m cyclic shift is similar over Q to the direct
sum of the companion matrices of the cyclotomic polynomials Phi_d, d | m,
so the matrix is equivalent to one integer block of order (n!/m) * phi(d)
per divisor d, and its rational rank is the sum of their exact ranks.  At
degree 6 (m = 6) that is blocks of order 120, 120, 240 and 240 instead of
one of order 720, all four proved by the kernel check: about 0.13 s for
degrees 1..6 on a 2-core x86-64 host (1.7 s with Bareiss on every block).
rank_exact itself stays unblocked, an independent check of these ranks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from itertools import accumulate
from math import factorial, isqrt, lcm

import numpy as np

from . import group_algebra, perms, young

# perfbench/child.py reads both names to record the elimination kernel and integer type.
numba, mpz = None, int

#: Order cap for exact elimination; beyond it use the modular path.
MAX_EXACT_ORDER = 1000

#: Degrees above this need allow_heavy=True for rank computation.
MAX_LIGHT_RANK_DEGREE = 7

_PRIME_LOW = 1 << 29
_PRIME_HIGH = 1 << 31

_CHECK_PRIME = 2147483629  # rank_exact's one prime, the largest below 2**31


@dataclass(frozen=True)
class BinaryMatrix:
    """Dense 0/1 matrix, bit-packed row-major (MSB-first within each byte)."""

    order: int
    packed: np.ndarray
    degree: int | None = None

    @classmethod
    def from_dense(cls, dense, degree: int | None = None) -> "BinaryMatrix":
        arr = np.asarray(dense)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        return cls(arr.shape[0], np.packbits(arr.astype(bool), axis=1), degree)

    def to_dense(self) -> np.ndarray:
        return np.unpackbits(self.packed, axis=1, count=self.order)

    def entry(self, i: int, j: int) -> int:
        return (self.packed[i, j >> 3] >> (7 - (j & 7))) & 1

    def row_sums(self) -> np.ndarray:
        sums = np.empty(self.order, dtype=np.int64)
        step = max(1, (1 << 22) // max(1, self.packed.shape[1]))
        for r0 in range(0, self.order, step):
            block = self.packed[r0:r0 + step]
            sums[r0:r0 + step] = np.unpackbits(block, axis=1, count=self.order).sum(axis=1)
        return sums

    def filled_count(self) -> int:
        return int(self.row_sums().sum())

    def is_symmetric(self) -> bool:
        if self.order > 10000:
            raise ValueError("symmetry check not supported at this order")
        dense = self.to_dense()
        return bool((dense == dense.T).all())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinaryMatrix)
            and self.order == other.order
            and self.packed.shape == other.packed.shape
            and bool((self.packed == other.packed).all())
        )


def _perm_array(n: int) -> np.ndarray:
    return np.array(perms.all_perms(n), dtype=np.int8).reshape(factorial(n), n)


def _ranks(perm_arr: np.ndarray) -> np.ndarray:
    """Lexicographic ranks of the permutations along the last axis (Lehmer code)."""
    n = perm_arr.shape[-1]
    ranks = np.zeros(perm_arr.shape[:-1], dtype=np.int64)
    for i in range(n - 1):  # Horner form of sum_i c_i * (n-1-i)!
        ranks *= n - i
        ranks += (perm_arr[..., i + 1:] < perm_arr[..., i, None]).sum(axis=-1, dtype=np.int8)
    return ranks


def _build_cycle_matrix(n: int, invert_rows: bool) -> BinaryMatrix:
    if not 1 <= n <= perms.MAX_ENUM_DEGREE:
        raise ValueError(f"degree must be in 1..{perms.MAX_ENUM_DEGREE}, got {n}")
    order = factorial(n)
    perm_arr = _perm_array(n)
    is_cycle = np.zeros(order, dtype=bool)
    is_cycle[_ranks(np.array(perms.cyclic_perms(n), dtype=np.int8))] = True
    # runs of s = t! columns are cosets c . H of H = S_t on the last t points, and
    # M[pi, c . h] = M[pi . c, h]; t = n - 2 makes s whole bytes from n = 6 on
    t = n - 2 if n >= 6 else n
    s = factorial(t)
    sub = _perm_array(t)
    mult = _ranks(sub[:, sub])  # rank of h_i . h_r in S_t
    # slab row c . h_i holds is_cycle[rank(c . h_i . h_r)] at column r
    slab = np.packbits(np.take(is_cycle.reshape(-1, s), mult, axis=1).reshape(order, s), axis=1)
    # the quotient form is the product form with row pi taken from pi^-1
    rows = perm_arr if not invert_rows else np.argsort(perm_arr, axis=1).astype(np.int8)
    packed = np.empty((order, order // s, slab.shape[1]), dtype=np.uint8)
    for b, c in enumerate(perm_arr[::s]):
        packed[:, b] = slab[_ranks(rows[:, c])]
    return BinaryMatrix(order, packed.reshape(order, -1), n)


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
    if not 1 <= n <= 6:
        raise ValueError(f"degree must be in 1..6, got {n}")
    order = factorial(n)
    q = group_algebra.cyclic_class_sum(n)
    dense = np.zeros((order, order), dtype=np.uint8)
    for g in perms.all_perms(n):
        col = perms.perm_rank(g)
        product = q * group_algebra.basis(g)
        for h, coeff in product.coeffs.items():
            dense[perms.perm_rank(h), col] = coeff
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

def _echelon_mod_p(a: np.ndarray, p: int, reduced: bool = False) -> list[int]:
    """Row echelon form of ``a`` over Z/pZ, in place; returns the pivot columns.

    ``reduced`` also clears above the pivots.  Entries stay in [0, p), so no
    product reaches p**2 < 2**62.
    """
    m, ncols = a.shape
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        nz = np.flatnonzero(a[r:, c]) + r
        if nz.size == 0:
            continue
        i = int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, p) % p
        # row i now holds old row r, which is zero in column c
        live = nz[1:]
        if reduced:
            live = np.concatenate([np.flatnonzero(a[:r, c]), live])
        if live.size:
            a[live, c:] = (a[live, c:] - a[live, c, None] * a[r, c:]) % p
        pivots.append(c)
        if r + 1 == m:
            break
    return pivots


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
    if not (_PRIME_LOW < p < _PRIME_HIGH) or not is_prime(p):
        raise ValueError(f"p must be a prime in (2**29, 2**31), got {p}")
    return len(_echelon_mod_p(_as_int64(m) % p, p))


# --- symmetry-blocked rank mod p ---

def _max_order_cycle_type(n: int) -> tuple[int, ...]:
    """Cycle type of an element of largest order in S_n (the first such partition)."""
    return max(young.partitions(n), key=lambda lam: lcm(*lam))


def _circulant_symbols(matrix: BinaryMatrix, cycle_type) -> np.ndarray:
    """Symbols ``G[d, i, j] = M[r_i . a^d, s_j]`` of the circulant blocks of M.

    ``a`` has the given cycle type and order m; r_i and s_j are the
    least-ranked members of the row orbits {pi . a^u} and the column orbits
    {a^v . sigma}, each of size m.  Valid for a matrix of degree n whose
    entry (pi, sigma) depends only on the conjugacy class of sigma . pi.
    The bits are gathered from the packed rows; no dense copy is made.
    """
    n = matrix.degree
    perm_arr = _perm_array(n)
    # 1-based cycles on consecutive points, e.g. (1 2 3 4)(5 6 7) for 4+3
    cycles = [tuple(range(e - c + 1, e + 1)) for e, c in zip(accumulate(cycle_type), cycle_type)]
    a = np.array(perms.from_cycles(n, *cycles))
    m = lcm(*cycle_type)
    a_pow = np.empty((m, n), dtype=np.int8)
    a_pow[0] = np.arange(n)
    for d in range(1, m):
        a_pow[d] = a_pow[d - 1][a]
    # right[d, pi] is the rank of pi . a^d, left[v, sigma] that of a^v . sigma
    right = _ranks(perm_arr[:, a_pow]).T
    left = _ranks(a_pow[:, perm_arr])
    everyone = np.arange(perm_arr.shape[0])
    rows = right[:, right.min(axis=0) == everyone]
    cols = np.flatnonzero(left.min(axis=0) == everyone)
    shift = (7 - (cols & 7)).astype(np.uint8)
    return (matrix.packed[rows[:, :, None], cols >> 3] >> shift) & 1


def _blocked_rank(symbols: np.ndarray, p: int) -> int:
    """Rank mod ``p`` of the matrix whose circulant block symbols are ``symbols``.

    Over the field with p elements, p = 1 (mod m), invertible row and column
    operations take the matrix to the direct sum of the m blocks
    ``B_t = sum_d w^(-d t) G[d]`` for a primitive m-th root of unity w, so
    its rank is the sum of theirs.
    """
    m = symbols.shape[0]
    w = _root_of_unity(m, p)
    weights = np.array([pow(w, e, p) for e in range(m)], dtype=np.int64)
    total = 0
    for t in range(m):
        # entries stay below m * p < 2**35, so the sum cannot overflow
        block = np.zeros(symbols.shape[1:], dtype=np.int64)
        for d in range(m):
            block += weights[-d * t % m] * symbols[d]
        total += rank_mod_prime(block, p)
    return total


# --- symmetry-blocked rank over the rationals ---

@cache
def _cyclotomic(d: int) -> tuple[int, ...]:
    """Integer coefficients of the d-th cyclotomic polynomial, constant term first.

    x^d - 1 is divided exactly by Phi_e for every proper divisor e of d; each
    divisor is monic, so the long division never leaves the integers.
    """
    coeffs = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e:
            continue
        divisor = _cyclotomic(e)
        k = len(divisor) - 1
        quotient = [0] * (len(coeffs) - k)
        for i in reversed(range(len(quotient))):
            quotient[i] = c = coeffs[i + k]
            for j, dj in enumerate(divisor):
                coeffs[i + j] -= c * dj
        assert not any(coeffs), f"Phi_{e} does not divide the remaining factor of x^{d} - 1"
        coeffs = quotient
    return tuple(coeffs)


def _cyclotomic_blocks(symbols: np.ndarray) -> list[np.ndarray]:
    """Integer blocks whose ranks over Q add up to that of the matrix with these symbols.

    Up to a permutation of rows and columns the matrix is
    ``sum_j kron(G[j], P^j)`` for the m x m cyclic shift P, the companion
    matrix of x^m - 1.  Its factors Phi_d (d | m) are coprime, so over Q the
    shift is similar to the direct sum of the companion matrices C_d of the
    Phi_d, and the matrix is equivalent to the direct sum of the blocks
    ``sum_j kron(G[j], C_d^j)``, of order (n!/m) * phi(d), one per divisor d.
    """
    m, b = symbols.shape[:2]
    g = symbols.astype(np.int64)
    blocks = []
    for d in range(1, m + 1):
        if m % d:
            continue
        phi = _cyclotomic(d)
        k = len(phi) - 1
        companion = np.eye(k, k, -1, dtype=np.int64)
        companion[:, -1] = [-c for c in phi[:-1]]
        powers = [np.eye(k, dtype=np.int64)]
        for _ in range(1, m):
            powers.append(powers[-1] @ companion)
        blocks.append(np.einsum("jab,jcd->acbd", g, np.array(powers)).reshape(b * k, b * k))
    return blocks


# --- exact rank over the rationals ---

def rank_exact(m) -> int:
    """Rank over the rationals: the rank mod one prime, proved by an exact kernel check.

    r = rank mod p (p = 2147483629) is a lower bound.  The reduced echelon
    form mod p gives n - r independent kernel vectors; rationally
    reconstructed and scaled to integers, they satisfy A K = 0 over Z only
    if the rank is at most r.  If reconstruction or that check fails (an
    unlucky prime, or denominators above sqrt(p/2)), fraction-free Bareiss
    elimination gives the rank.  Limited to order MAX_EXACT_ORDER.
    """
    shape = (m.order, m.order) if isinstance(m, BinaryMatrix) else np.shape(m)
    if max(shape, default=0) > MAX_EXACT_ORDER:
        raise ValueError(
            f"dimensions {shape} exceed exact-elimination cap {MAX_EXACT_ORDER}; "
            "use rank_mod_prime / the modular certification path"
        )
    return _rank_over_q(_as_int64(m))[0]


def _rank_over_q(a: np.ndarray) -> tuple[int, int | None]:
    """Rank of an int64 matrix over Q, and the prime whose kernel check proved it (None: Bareiss)."""
    if a.shape[1] > a.shape[0]:
        a = a.T  # the narrow side has the smaller kernel
    n, p = a.shape[1], _CHECK_PRIME
    echelon = a % p
    pivots = _echelon_mod_p(echelon, p, reduced=True)
    r = len(pivots)
    free = np.delete(np.arange(n), pivots)
    fractions = _rational_reconstruction(-echelon[:r, free] % p, p)
    if fractions is not None:
        num, den = (x.astype(object) for x in fractions)
        scale = np.array([lcm(*column) for column in den.T.tolist()], dtype=object)
        kernel = np.zeros((n, n - r), dtype=object)
        kernel[pivots] = num * (scale // den)
        kernel[free, np.arange(n - r)] = scale
        if _vanishes(a, kernel):
            return r, p
    return _bareiss_rank(a.astype(object)), None


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
    """Whether a @ kernel is zero: in int64 when no sum can reach 2**62, else in Python ints."""
    top_a, top_k = (max(int(x.max(initial=0)), -int(x.min(initial=0))) for x in (a, kernel))
    dtype = np.int64 if top_a * a.shape[1] * top_k < 1 << 62 else object
    return not (a.astype(dtype, copy=False) @ kernel.astype(dtype)).any()


def _bareiss_rank(a: np.ndarray) -> int:
    """Rank of an object array of Python ints; every entry is an exact minor, so divisions are exact."""
    m, ncols = a.shape
    r = 0
    prev = 1
    for c in range(ncols):
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        piv = a[r, c]
        if r + 1 < m:
            below = a[r + 1:, c]
            if c + 1 < ncols:
                block = a[r + 1:, c + 1:]
                a[r + 1:, c + 1:] = (block * piv - np.outer(below, a[r, c + 1:])) // prev
            a[r + 1:, c] = 0
        prev = piv
        r += 1
        if r == m:
            break
    return r


# --- certification ---

class PrimeDisagreement(RuntimeError):
    """Residue ranks disagreed across primes; no certificate is issued."""

    def __init__(self, ranks_by_prime: dict[int, int]):
        self.ranks_by_prime = ranks_by_prime
        super().__init__(f"residue ranks disagree: {ranks_by_prime}")


@dataclass(frozen=True)
class BlockStructure:
    """How the modular path split the matrix: ``count`` blocks of order ``order``.

    The blocks come from the cyclic subgroup of order ``subgroup_order``
    generated by a permutation of cycle type ``cycle_type``.
    """

    cycle_type: tuple[int, ...]
    subgroup_order: int
    count: int
    order: int


@dataclass(frozen=True)
class RankCertificate:
    rank: int
    method: str  # 'exact-fraction-free' or 'modular-multiprime'
    primes: tuple[int, ...]
    note: str
    degree: int = 0
    blocks: BlockStructure | None = None  # modular path only


def certified_rank(
    n: int,
    *,
    method: str = "auto",
    num_primes: int = 3,
    seed: int | None = None,
    allow_heavy: bool = False,
) -> RankCertificate:
    """Rank of the degree-n cycle product matrix with a method record.

    An exact rank up to degree 6 (order 720); degree 7 uses agreement
    across ``num_primes`` independent random ~30-bit primes, which proves
    the lower-bound direction outright and makes a silent rank drop at
    every sampled prime the only failure mode.  Degree 8 (order 40320) is
    gated behind ``allow_heavy``.

    The modular path takes an element ``a`` of largest order m in S_n and
    samples primes p = 1 (mod m).  Invariance of the matrix under
    (pi, sigma) -> (pi . a, a^-1 . sigma) makes it a matrix of m x m
    circulant blocks, and a discrete Fourier transform over the field with
    p elements turns it into m blocks of order n!/m.  That transform is
    invertible mod p, so the sum of the block ranks is exactly the rank of
    the full matrix mod p, and each prime costs m eliminations of order
    n!/m instead of one of order n! (at degree 7: 12 blocks of order 420).

    The exact path uses the same element and symbols over the rationals.
    There the cyclic shift of order m is similar to the direct sum of the
    companion matrices C_d of the cyclotomic polynomials Phi_d (d | m), so
    the rational rank is the sum of the exact ranks of the integer blocks
    ``sum_j kron(G[j], C_d^j)``, of order (n!/m) * phi(d): 120, 120, 240 and
    240 at degree 6, each found as rank_exact finds it.  The note records
    the cycle type, the block orders and, block by block, whether the kernel
    check or the Bareiss fallback proved the rank.
    """
    if not 1 <= n <= perms.MAX_ENUM_DEGREE:
        raise ValueError(f"degree must be in 1..{perms.MAX_ENUM_DEGREE}, got {n}")
    if method not in ("auto", "exact", "modp"):
        raise ValueError(f"unknown method {method!r}")
    if num_primes < 1:
        raise ValueError(f"num_primes must be at least 1, got {num_primes}")
    if method == "auto":
        method = "exact" if factorial(n) <= MAX_EXACT_ORDER else "modp"
    if n > MAX_LIGHT_RANK_DEGREE and not allow_heavy:
        raise ValueError(
            f"rank at degree {n} (order {factorial(n)}) needs allow_heavy=True; "
            # measured with the numpy kernel on a 2-core x86-64 host
            "expect 15 blocks of order 2688 per prime, 75 s for one prime and 208 s "
            "for the default three, with 0.46 GB peak memory"
        )
    if method == "exact" and factorial(n) > MAX_EXACT_ORDER:
        raise ValueError(
            f"order {factorial(n)} exceeds exact-elimination cap {MAX_EXACT_ORDER}; "
            "use the modular certification path"
        )
    cycle_type = _max_order_cycle_type(n)
    symbols = _circulant_symbols(cycle_product_matrix(n), cycle_type)
    if method == "exact":
        blocks = _cyclotomic_blocks(symbols)
        results = [_rank_over_q(block) for block in blocks]
        return RankCertificate(
            rank=sum(rank for rank, _ in results),
            method="exact-fraction-free",
            primes=(),
            note=(
                f"rank over the rationals of {len(blocks)} cyclotomic blocks of orders "
                f"{', '.join(str(len(block)) for block in blocks)} "
                f"(cycle type {'+'.join(map(str, cycle_type))}), certified in turn by "
                + ", ".join(f"kernel check mod {p}" if p else "Bareiss fallback"
                            for _, p in results)
            ),
            degree=n,
        )
    m, block_order = symbols.shape[:2]
    rng = random.Random(seed)
    sampled: dict[int, int] = {}
    while len(sampled) < num_primes:
        p = random_prime(rng, m)
        if p in sampled:
            continue
        sampled[p] = _blocked_rank(symbols, p)
    ranks = set(sampled.values())
    if len(ranks) != 1:
        raise PrimeDisagreement(sampled)
    return RankCertificate(
        rank=ranks.pop(),
        method="modular-multiprime",
        primes=tuple(sorted(sampled)),
        note=(
            "residue rank is a lower bound on the rational rank; at each prime "
            f"it is the sum of the ranks of {m} Fourier blocks of order {block_order}, "
            f"which equals the full residue rank; {num_primes} independent primes agree"
        ),
        degree=n,
        blocks=BlockStructure(cycle_type, m, m, block_order),
    )


def write_pbm(m: BinaryMatrix, path) -> None:
    """Write the matrix as a binary PBM image, 1 = filled (black).

    The packed row layout (MSB-first, byte-padded rows) is exactly the P4
    raster format, so rows are written as stored, from the array's own
    buffer rather than a bytes copy (203 MB at degree 8).
    """
    with open(path, "wb") as fh:
        fh.write(f"P4\n{m.order} {m.order}\n".encode())
        fh.write(np.ascontiguousarray(m.packed).data)


def read_pbm(path) -> BinaryMatrix:
    """Read back a binary PBM written by write_pbm."""
    with open(path, "rb") as fh:
        magic = fh.readline().split()[0]
        if magic != b"P4":
            raise ValueError(f"not a binary PBM: magic {magic!r}")
        line = fh.readline()
        while line.startswith(b"#"):
            line = fh.readline()
        width, height = map(int, line.split())
        data = np.frombuffer(fh.read(), dtype=np.uint8)
    packed = data.reshape(height, (width + 7) // 8)
    if width != height:
        raise ValueError(f"expected a square image, got {width}x{height}")
    return BinaryMatrix(width, packed)
