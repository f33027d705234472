"""Cycle-indicator matrices over the symmetric group and their exact ranks.

For degree n, rows and columns are indexed by the n! permutations in
canonical (lexicographic) order.  Two 0/1 matrices are built:

* product form: entry (pi, sigma) is 1 when sigma . pi is a single n-cycle;
* quotient form: entry (pi, sigma) is 1 when sigma . pi^-1 is a single
  n-cycle, i.e. the product form with rows re-indexed by inverses.  This is
  also the matrix of left multiplication by the sum of all n-cycles in the
  group algebra, which left_multiplication_matrix builds independently.

Ranks are certified two ways: fraction-free (Bareiss) elimination over the
integers gives the rank over the rationals exactly; elimination modulo a
~30-bit prime gives a lower bound that equals the rational rank unless the
prime divides a critical minor.  Storage is bit-packed (one bit per entry);
rows are expanded to machine-word residues only inside elimination.

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
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from itertools import accumulate
from math import factorial, lcm

import numpy as np

try:
    from gmpy2 import mpz
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    mpz = int

try:
    import numba
    from numba import njit, prange
except ImportError:  # pragma: no cover - numba is a declared dependency
    numba = None

from . import group_algebra, perms, young

#: Order cap for exact elimination; beyond it use the modular path.
MAX_EXACT_ORDER = 1000

#: Degrees above this need allow_heavy=True for rank computation.
MAX_LIGHT_RANK_DEGREE = 7

_PRIME_LOW = 1 << 29
_PRIME_HIGH = 1 << 31


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
    return np.array(perms.all_perms(n), dtype=np.int64).reshape(factorial(n), n)


def _rank_lookup(n: int, perm_arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Base-n encoding powers and an encoding -> canonical rank table."""
    powers = (n ** np.arange(n - 1, -1, -1)).astype(np.int64)
    lut = np.full(n**n, -1, dtype=np.int64)
    lut[perm_arr @ powers] = np.arange(perm_arr.shape[0], dtype=np.int64)
    return powers, lut


def _build_cycle_matrix(n: int, invert_rows: bool) -> BinaryMatrix:
    if not 1 <= n <= perms.MAX_ENUM_DEGREE:
        raise ValueError(f"degree must be in 1..{perms.MAX_ENUM_DEGREE}, got {n}")
    order = factorial(n)
    perm_arr = _perm_array(n)
    powers, lut = _rank_lookup(n, perm_arr)
    cyc_arr = np.array(perms.cyclic_perms(n), dtype=np.int64).reshape(-1, n)
    # Row pi has ones exactly on {c . pi^-1 : c n-cycle} (product form) or
    # {c . pi : c n-cycle} (quotient form); composing c with a fixed map is
    # a column gather of the cycle array.
    right_factor = np.argsort(perm_arr, axis=1) if not invert_rows else perm_arr
    packed = np.empty((order, (order + 7) // 8), dtype=np.uint8)
    block = max(1, min(order, (1 << 24) // order))
    for r0 in range(0, order, block):
        rows = right_factor[r0:r0 + block]
        cols = lut[cyc_arr[:, rows] @ powers]  # (n-cycles, block)
        bits = np.zeros((rows.shape[0], order), dtype=bool)
        bits[np.arange(rows.shape[0])[:, None], cols.T] = True
        packed[r0:r0 + block] = np.packbits(bits, axis=1)
    return BinaryMatrix(order, packed, n)


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

def _configure_threads() -> None:
    env = os.environ.get("PERMRANK_THREADS")
    if env and numba is not None:
        try:
            numba.set_num_threads(max(1, min(int(env), numba.config.NUMBA_NUM_THREADS)))
        except (ValueError, RuntimeError):
            pass


if numba is not None:

    @njit(cache=True, inline="always")
    def _mod_inverse(a, p):
        # extended Euclid; a is nonzero mod p
        old_r, r = a, p
        old_s, s = 1, 0
        while r != 0:
            q = old_r // r
            old_r, r = r, old_r - q * r
            old_s, s = s, old_s - q * s
        return old_s % p

    @njit(cache=True, parallel=True)
    def _elim_mod_p(a, p):
        # In-place row echelon over Z/pZ.  Pivot = first nonzero down the
        # column (deterministic); entries stay in [0, p), so f * a[r, j]
        # < p**2 < 2**62 never overflows int64.
        m, ncols = a.shape
        r = 0
        for c in range(ncols):
            piv = -1
            for i in range(r, m):
                if a[i, c] != 0:
                    piv = i
                    break
            if piv < 0:
                continue
            if piv != r:
                for j in range(c, ncols):
                    tmp = a[r, j]
                    a[r, j] = a[piv, j]
                    a[piv, j] = tmp
            inv = _mod_inverse(a[r, c], p)
            for j in range(c, ncols):
                a[r, j] = a[r, j] * inv % p
            for i in prange(r + 1, m):
                f = a[i, c]
                if f != 0:
                    for j in range(c, ncols):
                        a[i, j] = (a[i, j] - f * a[r, j]) % p
            r += 1
            if r == m:
                break
        return r


def _elim_mod_p_numpy(a: np.ndarray, p: int) -> int:
    """Pure-numpy fallback and cross-check, same pivot rule as the kernel."""
    m, ncols = a.shape
    r = 0
    for c in range(ncols):
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r, c:] = a[r, c:] * inv % p
        live = np.nonzero(a[r + 1:, c])[0] + r + 1
        if live.size:
            a[live, c:] = (a[live, c:] - a[live, c, None] * a[r, c:]) % p
        r += 1
        if r == m:
            break
    return r


def _as_int64(m) -> np.ndarray:
    if isinstance(m, BinaryMatrix):
        return m.to_dense().astype(np.int64)
    arr = np.asarray(m)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"expected integer entries, got dtype {arr.dtype}")
    return arr.astype(np.int64)


def rank_mod_prime(m, p: int, *, use_kernel: bool | None = None) -> int:
    """Rank of an integer matrix over the field with ``p`` elements.

    ``p`` must be a prime with 2**29 < p < 2**31.  The result never exceeds
    the rank over the rationals.  Deterministic for fixed ``p`` regardless
    of thread count.
    """
    if not (_PRIME_LOW < p < _PRIME_HIGH) or not is_prime(p):
        raise ValueError(f"p must be a prime in (2**29, 2**31), got {p}")
    a = _as_int64(m) % p
    if use_kernel is None:
        use_kernel = numba is not None
    if use_kernel and numba is not None:
        _configure_threads()
        return int(_elim_mod_p(a, p))
    return _elim_mod_p_numpy(a, p)


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
    powers, lut = _rank_lookup(n, perm_arr)
    # 1-based cycles on consecutive points, e.g. (1 2 3 4)(5 6 7) for 4+3
    cycles = [tuple(range(e - c + 1, e + 1)) for e, c in zip(accumulate(cycle_type), cycle_type)]
    a = np.array(perms.from_cycles(n, *cycles))
    m = lcm(*cycle_type)
    a_pow = np.empty((m, n), dtype=np.int64)
    a_pow[0] = np.arange(n)
    for d in range(1, m):
        a_pow[d] = a_pow[d - 1][a]
    # right[d, pi] is the rank of pi . a^d, left[v, sigma] that of a^v . sigma
    right = lut[perm_arr[:, a_pow] @ powers].T
    left = lut[a_pow[:, perm_arr] @ powers]
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


# --- fraction-free elimination over Z ---

def rank_exact(m) -> int:
    """Rank over the rationals, by fraction-free (Bareiss) elimination.

    Entries during elimination are exact minors of the input, so every
    division is exact; arithmetic uses arbitrary-precision integers.
    Limited to order MAX_EXACT_ORDER; use the modular path beyond that.
    """
    if isinstance(m, BinaryMatrix):
        if m.order > MAX_EXACT_ORDER:
            raise ValueError(
                f"order {m.order} exceeds exact-elimination cap {MAX_EXACT_ORDER}; "
                "use rank_mod_prime / the modular certification path"
            )
        dense = m.to_dense()
    else:
        dense = _as_int64(m)
        if max(dense.shape, default=0) > MAX_EXACT_ORDER:
            raise ValueError(
                f"dimensions {dense.shape} exceed exact-elimination cap {MAX_EXACT_ORDER}; "
                "use rank_mod_prime / the modular certification path"
            )
    a = np.empty(dense.shape, dtype=object)
    for i in range(dense.shape[0]):
        for j in range(dense.shape[1]):
            a[i, j] = mpz(int(dense[i, j]))
    return _bareiss_rank(a)


def _bareiss_rank(a: np.ndarray) -> int:
    zero, one = mpz(0), mpz(1)
    m, ncols = a.shape
    r = 0
    prev = one
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
            a[r + 1:, c] = zero
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

    Exact elimination up to degree 6 (order 720); degree 7 uses agreement
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
            "expect 15 blocks of order 2688 per prime, 93 s for one prime and 205 s "
            "for the default three, with 0.6 GB peak memory"
        )
    matrix = cycle_product_matrix(n)
    if method == "exact":
        rank = rank_exact(matrix)
        return RankCertificate(
            rank=rank,
            method="exact-fraction-free",
            primes=(),
            note="rank over the rationals by fraction-free elimination",
            degree=n,
        )
    cycle_type = _max_order_cycle_type(n)
    symbols = _circulant_symbols(matrix, cycle_type)
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
    raster format, so rows are written as stored.
    """
    with open(path, "wb") as fh:
        fh.write(f"P4\n{m.order} {m.order}\n".encode())
        fh.write(m.packed.tobytes())


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
