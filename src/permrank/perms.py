"""Permutations of {1..n} as tuples in one-line notation.

A permutation is stored as a tuple of 0-based images: ``p[i]`` is the image
of point ``i``.  All user-facing I/O (JSON, CLI, docs) is 1-based; use
:func:`from_one_based` / :func:`to_one_based` at the boundary.

Composition is right-to-left: ``compose(s, p)`` applies ``p`` first, so
``compose(s, p)(i) == s(p(i))``.

>>> compose((1, 2, 0), (1, 0, 2))
(2, 1, 0)
>>> cycle_type((1, 0, 3, 2))
(2, 2)
"""

from __future__ import annotations

import itertools
from math import factorial
from typing import Sequence

import numpy as np

Perm = tuple[int, ...]

#: Degree cap for whole-group enumeration (8! = 40320 permutations).
MAX_ENUM_DEGREE = 8


def identity(n: int) -> Perm:
    """The identity permutation of degree ``n``."""
    return tuple(range(n))


def is_perm(images: Sequence[int]) -> bool:
    """True if ``images`` is a bijection of {0..n-1}."""
    n = len(images)
    return n >= 1 and sorted(images) == list(range(n))


def _check_degrees(a: Perm, b: Perm) -> None:
    if len(a) != len(b):
        raise ValueError(f"degree mismatch: {len(a)} vs {len(b)}")


def compose(s: Perm, p: Perm) -> Perm:
    """Apply ``p`` first, then ``s``: the permutation i -> s(p(i))."""
    _check_degrees(s, p)
    return tuple(s[p[i]] for i in range(len(p)))


def inverse(p: Perm) -> Perm:
    """The inverse permutation.

    >>> inverse((2, 0, 1))
    (1, 2, 0)
    """
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def conjugate(x: Perm, p: Perm) -> Perm:
    """x . p . x^-1; preserves cycle structure."""
    _check_degrees(x, p)
    return compose(compose(x, p), inverse(x))


def cycle_type(p: Perm) -> tuple[int, ...]:
    """Cycle lengths of ``p`` in weakly decreasing order.

    The result is a partition of the degree.
    """
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = p[i]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def is_cyclic(p: Perm) -> bool:
    """True if ``p`` is a single cycle through all points.

    The identity of degree 1 counts as cyclic.
    """
    n = len(p)
    length = 1
    i = p[0]
    while i != 0:
        i = p[i]
        length += 1
    return length == n


def all_perms(n: int) -> list[Perm]:
    """All n! permutations of degree ``n`` in lexicographic order.

    This order is the canonical basis order used by every matrix
    constructor in the package; ranks from :func:`perm_rank` index into it.
    """
    if not 1 <= n <= MAX_ENUM_DEGREE:
        raise ValueError(f"degree must be in 1..{MAX_ENUM_DEGREE}, got {n}")
    return list(itertools.permutations(range(n)))


def perm_rank(p: Perm) -> int:
    """Position of ``p`` in the lexicographic order of its degree.

    Computed through the Lehmer code, so ranking is O(n^2) without
    enumerating the group.

    >>> perm_rank((2, 1, 0))
    5
    """
    n = len(p)
    r = 0
    for i in range(n):
        smaller_right = sum(1 for j in range(i + 1, n) if p[j] < p[i])
        r += smaller_right * factorial(n - 1 - i)
    return r


def cyclic_mask(perm_arr: np.ndarray) -> np.ndarray:
    """:func:`is_cyclic` of every row of an (m, n) permutation array, in any memory layout.

    A row p is one n-cycle when the orbit of 0 first returns at step n, that
    is p^k(0) != 0 for k = 1..n-1: n - 1 gathers for all rows at once.  Each
    gather reads inside one permutation's row, so it runs on the row-major
    layout (a C-ordered copy if needed); on a position-major copy the
    gathers jump between rows: 0.77 against 0.39 ms at degree 8 on a 2-core
    x86-64 host.
    """
    m, n = perm_arr.shape
    flat, rows = perm_arr.ravel(), np.arange(0, m * n, n)
    image, mask = 0, np.ones(m, dtype=bool)
    for _ in range(n - 1):  # image = p^k(0)
        image = flat[rows + image]
        mask &= image != 0
    return mask


def perm_array(n: int) -> np.ndarray:
    """All n! permutations of degree ``n`` as an int8 array of shape (n!, n), in rank order.

    Built degree by degree without tuples: the permutations of degree m are,
    for each first image f in order, f followed by every permutation of
    degree m - 1 with its images >= f shifted up by one, which keeps their
    lexicographic order.
    """
    if not 1 <= n <= MAX_ENUM_DEGREE:
        raise ValueError(f"degree must be in 1..{MAX_ENUM_DEGREE}, got {n}")
    p = np.zeros((1, 0), dtype=np.int8)
    for m in range(1, n + 1):
        f = np.arange(m, dtype=np.int8)[:, None, None]
        q = np.empty((m, len(p), m), dtype=np.int8)  # filled in place: faster than concatenate
        q[..., :1] = f
        q[..., 1:] = p + (p >= f)
        p = q.reshape(-1, m)
    return p


def perm_ranks(perm_arr: np.ndarray) -> np.ndarray:
    """:func:`perm_rank` of every permutation along the last axis of an array, in any memory layout.

    The work runs on one position-major copy, ``images[i]`` the image of
    point i under every permutation, so each of the n - 1 steps compares
    contiguous rows across all permutations.  Reading a C-ordered (n!, n)
    array column by column instead strides n bytes an element: 6.6 against
    0.5 ms at degree 8 on a 2-core x86-64 host.
    """
    n = perm_arr.shape[-1]
    images = np.ascontiguousarray(np.moveaxis(perm_arr, -1, 0))
    ranks = np.zeros(perm_arr.shape[:-1], dtype=np.int64)
    for i in range(n - 1):  # Horner form of sum_i c_i * (n-1-i)!
        ranks *= n - i
        ranks += (images[i + 1:] < images[i]).sum(axis=0, dtype=np.int8)
    return ranks


def composition_weights(right: np.ndarray) -> np.ndarray:
    """The (n*n, len(right)) float32 table with which :func:`composition_ranks` ranks ``l . r``.

    Column c gives the pair (r[k], r[j]), j > k, of r = right[c] the Lehmer
    weight (n-1-k)!, so the comparisons ``l[j] < l[i]`` of a row ``l`` times
    column c sum (n-1-k)! over the inversions (k, j) of l . r: its rank.
    """
    m, n = right.shape
    if factorial(n) - 1 >= 1 << 24:  # ranks, and every partial sum, must be exact in float32
        raise ValueError(f"degree {n} ranks exceed 2**24, beyond exact float32 sums")
    k, j = np.triu_indices(n, 1)
    table = np.zeros((n * n, m), dtype=np.float32)
    pairs = right[:, k].astype(np.intp) * n + right[:, j]
    table[pairs, np.arange(m)[:, None]] = [factorial(n - 1 - i) for i in k]
    return table


def composition_ranks(left: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``rank(l . r)`` for each row ``l`` of ``left`` and each ``r`` given by its :func:`composition_weights`.

    ``left`` is an (m, n) array in any memory layout.  From one
    position-major copy, n vector ops fill the (n*n, m) float32 comparisons
    ``l[j] < l[i]``, each a contiguous row across all m permutations; the
    callers pass at most 1024 rows, about 256 KiB of comparisons.  A matmul
    with the weights ranks them.  It is exact: the products are 0/1 times an
    integer and every partial sum is an integer at most n! - 1 < 2**24.  The
    matmul is a stack of products of at most 2**18 multiply-adds each, which
    OpenBLAS runs on the calling thread: it splits products from about 2**20
    across its threads, and on a 2-core host such split calls often waited
    about 8 ms each.
    """
    m, n = left.shape
    # permutations per product: a power of two, so that the callers' 1024-row chunks need no padding
    most = max(1, (1 << 18) // (n * n * weights.shape[1]))
    per_product = max(1, min(m, 1 << most.bit_length() - 1))
    images = np.ascontiguousarray(left.T)
    less = np.zeros((n, n, -(-m // per_product) * per_product), dtype=np.float32)
    np.less(images, images[:, None], out=less[..., :m])  # less[i, j, x]: left[x, j] < left[x, i]
    products = less.reshape(n * n, -1, per_product).transpose(1, 2, 0) @ weights
    return products.reshape(-1, weights.shape[1])[:m].astype(np.intp)


def perm_unrank(n: int, r: int) -> Perm:
    """Inverse of :func:`perm_rank`: the permutation at position ``r``.

    >>> perm_unrank(3, 5)
    (2, 1, 0)
    """
    if not 0 <= r < factorial(n):
        raise ValueError(f"rank {r} out of range for degree {n}")
    available = list(range(n))
    images = []
    for i in range(n):
        f = factorial(n - 1 - i)
        idx, r = divmod(r, f)
        images.append(available.pop(idx))
    return tuple(images)


def cyclic_perms(n: int) -> list[Perm]:
    """The (n-1)! permutations consisting of a single n-cycle.

    Generated directly: each arrangement of {1..n-1} defines the cycle
    0 -> a_1 -> ... -> a_{n-1} -> 0.
    """
    if n < 1:
        raise ValueError("degree must be positive")
    out = []
    for arrangement in itertools.permutations(range(1, n)):
        images = [0] * n
        prev = 0
        for a in arrangement:
            images[prev] = a
            prev = a
        images[prev] = 0
        out.append(tuple(images))
    return out


def from_cycles(n: int, *cycles: Sequence[int]) -> Perm:
    """Build a permutation of degree ``n`` from 1-based cycles.

    >>> from_cycles(3, (1, 2, 3))
    (1, 2, 0)
    """
    images = list(range(n))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + type(cycle)((cycle[0],))):
            images[a - 1] = b - 1
    if not is_perm(images):
        raise ValueError(f"cycles {cycles} do not define a permutation")
    return tuple(images)


def from_one_based(images: Sequence[int]) -> Perm:
    """Parse a 1-based image sequence, e.g. the JSON form [2, 3, 1]."""
    p = tuple(i - 1 for i in images)
    if not is_perm(p):
        raise ValueError(f"{list(images)} is not a permutation of 1..{len(p)}")
    return p


def to_one_based(p: Perm) -> list[int]:
    """1-based image list, the JSON serialization of a permutation."""
    return [i + 1 for i in p]
