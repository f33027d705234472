"""Integer group algebra of the symmetric group.

Elements are finite formal sums of permutations with integer coefficients,
stored sparsely as {permutation tuple: coefficient}.  Multiplication is the
bilinear extension of composition.  Integer coefficients suffice for every
element this package needs (basis vectors, class sums); ranks over the
rationals are unchanged by that restriction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import perms
from .perms import Perm


@dataclass(frozen=True)
class GroupAlgebraElement:
    degree: int
    coeffs: dict[Perm, int] = field(default_factory=dict)

    def __post_init__(self):
        clean = {p: c for p, c in self.coeffs.items() if c != 0}
        for p in clean:
            if len(p) != self.degree:
                raise ValueError(f"permutation {p} has degree {len(p)}, expected {self.degree}")
        object.__setattr__(self, "coeffs", clean)

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        self._check(other)
        total = dict(self.coeffs)
        for p, c in other.coeffs.items():
            total[p] = total.get(p, 0) + c
        return GroupAlgebraElement(self.degree, total)

    def __mul__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        self._check(other)
        total: dict[Perm, int] = {}
        for p, a in self.coeffs.items():
            for q, b in other.coeffs.items():
                pq = perms.compose(p, q)
                total[pq] = total.get(pq, 0) + a * b
        return GroupAlgebraElement(self.degree, total)

    def _check(self, other: "GroupAlgebraElement") -> None:
        if not isinstance(other, GroupAlgebraElement):
            raise TypeError(f"cannot combine with {type(other).__name__}")
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")

    def __hash__(self):
        return hash((self.degree, frozenset(self.coeffs.items())))

    def support_size(self) -> int:
        return len(self.coeffs)

    def coefficient_vector(self) -> list[int]:
        """Coefficients in the canonical (lexicographic) basis order."""
        vec = [0] * len(perms.all_perms(self.degree))
        for p, c in self.coeffs.items():
            vec[perms.perm_rank(p)] = c
        return vec


def basis(p: Perm) -> GroupAlgebraElement:
    """The basis element for a single permutation."""
    return GroupAlgebraElement(len(p), {p: 1})


def cyclic_class_sum(n: int) -> GroupAlgebraElement:
    """Sum of all (n-1)! single n-cycles, with coefficient 1 each.

    This element is central; multiplying by it on the left is the operator
    whose matrix permmatrix.left_multiplication_matrix builds.
    """
    return GroupAlgebraElement(n, {p: 1 for p in perms.cyclic_perms(n)})


def conjugacy_class_sum(n: int, mu) -> GroupAlgebraElement:
    """Sum of all permutations of degree ``n`` with cycle type ``mu``."""
    return GroupAlgebraElement(
        n, {p: 1 for p in perms.all_perms(n) if perms.cycle_type(p) == tuple(mu)}
    )


def is_central(a: GroupAlgebraElement) -> bool:
    """True if ``a`` commutes with every basis element.

    The transposition (1 2) and the n-cycle (1 2 ... n) generate S_n, and
    whatever commutes with two elements commutes with their products, so it
    is enough that ``a`` commutes with both.  Degree 1 has no generators.
    """
    n = a.degree
    if n < 1:
        raise ValueError(f"degree must be positive, got {n}")
    if n == 1:
        return True
    generators = perms.from_cycles(n, (1, 2)), perms.from_cycles(n, tuple(range(1, n + 1)))
    return all(basis(g) * a == a * basis(g) for g in generators)
