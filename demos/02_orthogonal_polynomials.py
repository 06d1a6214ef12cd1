#!/usr/bin/env python3
"""From moments to orthogonal polynomials, recurrences, and connection coefficients.

One pass of Chebyshev's algorithm over a moment prefix with strictly
positive Hankel determinants yields the squared norms and three-term
recurrence of the monic orthogonal family of the underlying measure, and the
recurrence builds the family.
Everything stays rational: coefficients, squared norms, recurrence triples,
and the triangular change-of-basis coefficients between two families.
"""

from fractions import Fraction as F

from poslab import (
    MomentSequence,
    basis_from_moments,
    builtin,
    connection,
    hermite,
    hermite_addition_holds,
    squared_norms,
    three_term,
)
from poslab.errors import DegenerateMeasureError

print("=" * 72)
print("Gaussian moments rebuild the Hermite family")
print("=" * 72)

basis = basis_from_moments(builtin("gaussian", 17), 8)
reference = hermite(8)
print(f"polynomials match the recurrence-built family: {basis.polys == reference.polys}")
print(f"squared norms are the factorials:              {[str(v) for v in basis.norms]}")
print(f"recurrence triples (A, B, C):                  {[tuple(map(str, t)) for t in basis.recurrence[:4]]} ...")
print()
for n in (3, 4, 5):
    print(f"  He_{n}(x) = {basis.polys[n]}")

print()
print("=" * 72)
print("A different measure: the Catalan numbers")
print("=" * 72)

cat = basis_from_moments(builtin("catalan", 17), 8)
print(f"p_1 = {cat.polys[1]}   (the mean is 1)")
print(f"p_2 = {cat.polys[2]}")
print("recurrence triples:", [tuple(map(str, t)) for t in three_term(cat)[:3]], "...")
print("norms recomputed from the bilinear form match construction:",
      squared_norms(cat) == cat.norms)

print()
print("=" * 72)
print("Degenerate measures stop the construction")
print("=" * 72)

try:
    basis_from_moments(builtin("geometric", 9, 2), 4)
except DegenerateMeasureError as err:
    print(f"point mass at 2: {err}")
trunc = basis_from_moments(builtin("geometric", 9, 2), 4, allow_truncation=True)
print(f"with truncation allowed the build returns order {trunc.order} and explains itself:")
print(f"  status: {trunc.status}")

print()
print("=" * 72)
print("Connection coefficients: one family expanded in another")
print("=" * 72)

# The family orthogonal to the shifted Gaussian N(1/2, 3/4).  The constant
# column of the connection triangle is exactly (1/2)^n He_n(1): integrating
# He_n against the shifted Gaussian damps it geometrically.
rho, y = F(1, 2), F(1)


def normal_moments(mean, var, count):
    from math import comb

    out = []
    for n in range(count):
        total = F(0)
        # sum over even j of C(n, j) var^(j/2) (j-1)!! mean^(n-j)
        for j in range(0, n + 1, 2):
            dfact = 1
            for t in range(j - 1, 1, -2):
                dfact *= t
            total += comb(n, j) * var ** (j // 2) * dfact * mean ** (n - j)
        out.append(total)
    return MomentSequence(tuple(out), f"N({mean},{var})")


shifted = basis_from_moments(normal_moments(rho * y, 1 - rho * rho, 13), 6)
gamma = connection(hermite(6), shifted)
print("constant column of the He -> shifted-family triangle:")
for n, g in enumerate(gamma.constant_column):
    expected = rho**n * hermite(6).polys[n](y)
    print(f"  n = {n}: {str(g):>6}   (equals rho^n He_n(1) = {expected})")

print()
print("The addition formula behind that identity, as an exact bivariate check:")
print("  He_n((3/5) x + (4/5) y) decomposes binomially for all n <= 8:",
      all(hermite_addition_holds(n, F(3, 5)) for n in range(9)))
