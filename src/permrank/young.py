"""Integer partitions, Young diagrams, standard tableaux, and rim hooks.

A partition is a tuple of weakly decreasing positive parts; the empty tuple
is the partition of 0 and is a first-class value (recursions bottom out
there).  Diagram cells are (row, column) pairs, 0-based, English convention
(row 0 is the longest).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import factorial
from typing import Iterator, Sequence

Partition = tuple[int, ...]

#: Weight cap for explicit tableau enumeration.
MAX_TABLEAU_WEIGHT = 12


def check_partition(parts: Sequence[int]) -> Partition:
    """Validate and normalize a partition given as any sequence."""
    lam = tuple(parts)
    for a, b in zip(lam, lam[1:]):
        if a < b:
            raise ValueError(f"parts not weakly decreasing: {lam}")
    if lam and lam[-1] < 1:
        raise ValueError(f"parts must be positive: {lam}")
    return lam


def partitions(n: int) -> list[Partition]:
    """All partitions of ``n`` in reverse-lexicographic order, (n) first.

    >>> partitions(4)
    [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    """
    if n < 0:
        raise ValueError("weight must be non-negative")
    return list(_iter_partitions(n))


def _iter_partitions(n: int, max_part: int | None = None) -> Iterator[Partition]:
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in _iter_partitions(n - first, first):
            yield (first,) + rest


def transpose(lam: Partition) -> Partition:
    """Conjugate partition (diagram flipped across the main diagonal)."""
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part > j) for j in range(lam[0]))


def is_hook(lam: Partition) -> bool:
    """True if every part after the first equals 1.

    Equivalently, the diagram contains no 2x2 block of cells.
    """
    if not lam:
        raise ValueError("the empty partition has no shape")
    return all(part == 1 for part in lam[1:])


def cells(lam: Partition) -> list[tuple[int, int]]:
    """All diagram cells of ``lam`` as (row, column) pairs."""
    return [(i, j) for i, part in enumerate(lam) for j in range(part)]


def hook_lengths(lam: Partition) -> list[list[int]]:
    """Hook length of every cell: arm + leg + 1."""
    conj = transpose(lam)
    return [
        [lam[i] - j + conj[j] - i - 1 for j in range(lam[i])]
        for i in range(len(lam))
    ]


def syt_count(lam: Partition) -> int:
    """Number of standard Young tableaux of shape ``lam``, exactly.

    Hook length formula: n! divided by the product of all hook lengths.
    The enumeration in :func:`standard_tableaux` is an independent check.
    """
    n = sum(lam)
    denom = 1
    for row in hook_lengths(lam):
        for h in row:
            denom *= h
    return factorial(n) // denom


def standard_tableaux(lam: Partition) -> list[list[list[int]]]:
    """All standard Young tableaux of shape ``lam`` by direct backtracking.

    Entries 1..n increase along rows and down columns.  Intended as a
    small-scale oracle; capped at weight MAX_TABLEAU_WEIGHT.
    """
    n = sum(lam)
    if n > MAX_TABLEAU_WEIGHT:
        raise ValueError(f"weight {n} exceeds tableau enumeration cap {MAX_TABLEAU_WEIGHT}")
    rows: list[list[int]] = [[] for _ in lam]
    out: list[list[list[int]]] = []

    def place(v: int) -> None:
        if v > n:
            out.append([row[:] for row in rows])
            return
        for i, row in enumerate(rows):
            if len(row) < lam[i] and (i == 0 or len(rows[i - 1]) > len(row)):
                row.append(v)
                place(v + 1)
                row.pop()

    place(1)
    return out


@dataclass(frozen=True)
class RimHook:
    """A border strip of a Young diagram.

    ``cells`` form a contiguous run along the rim (no 2x2 block); removing
    them from ``parent`` leaves the Young diagram of ``remainder``.
    ``leg_length`` is the number of rows the strip touches, minus one.
    """

    parent: Partition
    cells: frozenset[tuple[int, int]]
    leg_length: int
    remainder: Partition

    @property
    def sign(self) -> int:
        return -1 if self.leg_length % 2 else 1


def rim_hooks(lam: Partition, length: int) -> list[RimHook]:
    """Every rim hook of ``lam`` with exactly ``length`` cells, bottom-left first.

    With m = len(lam), row i has the bead b = lam[i] + m - 1 - i on the
    abacus; removing a rim hook of length r is moving one bead b to an empty
    position b - r >= 0 (James & Kerber, *The Representation Theory of the
    Symmetric Group*, 1981, 2.7).  The moved beads, read back, give the
    remainder; the cells are lam minus the remainder; the leg length is the
    number of beads strictly between b - r and b.
    """
    if length < 1:
        raise ValueError("rim hook length must be positive")
    m = len(lam)
    beads = [part + m - 1 - i for i, part in enumerate(lam)]
    out = []
    for b in reversed(beads):
        if b < length or b - length in beads:
            continue
        moved = sorted([c for c in beads if c != b] + [b - length], reverse=True)
        parts = [c - (m - 1 - i) for i, c in enumerate(moved)]
        cells = frozenset((i, j) for i in range(m) for j in range(parts[i], lam[i]))
        leg_length = sum(b - length < c < b for c in beads)
        out.append(RimHook(lam, cells, leg_length, tuple(p for p in parts if p)))
    return out


def remove_rim_hook(lam: Partition, hook: RimHook) -> Partition:
    """Partition left after removing ``hook``; raises if it is not a rim hook of ``lam``."""
    if hook.parent != lam:
        raise ValueError(f"hook belongs to {hook.parent}, not {lam}")
    for candidate in rim_hooks(lam, len(hook.cells)):
        if candidate.cells == hook.cells:
            return candidate.remainder
    raise ValueError(f"cells {sorted(hook.cells)} are not a rim hook of {lam}")


@cache
def partition_count(n: int) -> int:
    """p(n), by enumeration (small n only; used for sanity checks)."""
    return sum(1 for _ in _iter_partitions(n))
