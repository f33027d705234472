#!/usr/bin/env python3
"""Build the cycle-indicator matrices and certify their ranks.

For each degree k, rows and columns are indexed by the k! permutations and
an entry is 1 exactly when the column permutation composed after the row
permutation is a single k-cycle.  The rank of this matrix follows the
central binomial pattern C(2k-2, k-1): 1, 2, 6, 20, 70, 252, 924, ...
"""

from math import comb, factorial

from permrank import (
    certified_rank,
    cycle_product_matrix,
    cycle_quotient_matrix,
    rank_exact,
    write_pbm,
)

print("degree | order | rank | expected | method")
print("-" * 60)
# Up to degree 6 the rank is exact over the rationals.  The matrix is split
# into one Fourier block per pair of divisors of the orders of two cyclic
# subgroups (the argument is in the permrank.permmatrix docstring); each
# block's rank mod a few primes is proved by one Hadamard bound on an
# integer matrix, and the note printed for degree 6 names the classes, the
# block order and the primes.
for k in range(1, 7):
    cert = certified_rank(k)
    expected = comb(2 * k - 2, k - 1)
    print(f"{k:6d} | {factorial(k):5d} | {cert.rank:4d} | {expected:8d} | {cert.method}")
print(f"degree 6: {cert.note}")

# Degree 7 is a 5040 x 5040 matrix.  By default its rank comes from at most
# three random primes; each prime ranks the blocks of order 42 that the same
# split gives mod p.  At seed 0 three primes leave classes unproved, so the
# rank is a lower bound.  Printed: the primes and the blocks.
cert7 = certified_rank(7, seed=0)
print(f"{7:6d} | {5040:5d} | {cert7.rank:4d} | {comb(12, 6):8d} | {cert7.method}")
print(f"primes used: {cert7.primes}")
print(f"blocks per prime: {cert7.blocks.count} of order {cert7.blocks.order}, "
      f"cycle types {' and '.join('+'.join(map(str, lam)) for lam in cert7.blocks.cycle_types)}")

# The same proof gives degree 7 a two-sided exact rank, from 4 primes.
exact7 = certified_rank(7, method="exact")
print(f"{7:6d} | {5040:5d} | {exact7.rank:4d} | {comb(12, 6):8d} | {exact7.method}")

# The small matrices make nice bitmaps; 1-bits are drawn black.
for k in (2, 3, 4):
    name = f"cycle_matrix_{k}.pbm"
    write_pbm(cycle_product_matrix(k), name)
    print(f"wrote {name}")

# The quotient variant (rows re-indexed by inverse permutations) has the
# same rank; check it directly for a small degree.
assert rank_exact(cycle_quotient_matrix(4)) == rank_exact(cycle_product_matrix(4)) == 20
print("quotient matrix rank agrees at degree 4")
