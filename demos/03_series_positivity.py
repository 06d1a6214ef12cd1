#!/usr/bin/env python3
"""Certifying nonnegativity of an orthogonal series, to finite order.

A series sum_n c_n p_n(x) over the orthogonal family of mu determines, by an
exact triangular solve, the would-be power moments of its limit measure.
Nonnegativity of the limit is then a Hankel determinant question:

  * a negative determinant anywhere refutes positivity outright;
  * all-positive determinants certify it as far as tested.

The verdicts are deliberately finite-order: "certified-to-order K" is
evidence, "refuted-at-order k" is final.
"""

from fractions import Fraction as F

from poslab import (
    OrthogonalSeries,
    Polynomial,
    builtin,
    certify_positive,
    coefficients_from_moments,
    hermite,
    kernel_projection,
    log_weighted_partials,
    moments_from_coefficients,
    rademacher_menshov_partials,
)

basis = hermite(8)

print("=" * 72)
print("Negative control: the series He_1(x) = x")
print("=" * 72)
cert = certify_positive(OrthogonalSeries(basis, (F(0), F(1), F(0))), 1)
print(f"recovered moments: {[str(v) for v in cert.recovered_moments.values[:3]]}")
print(f"Hankel determinants: {[str(d) for d in cert.pm_report.hankel_dets]}")
print(f"verdict: {cert.verdict.label}")
print("and indeed the partial sum x is negative at x = -1:",
      OrthogonalSeries(basis, (F(0), F(1))).partial_sum()(F(-1)))

print()
print("=" * 72)
print("Positive control: a genuinely nonnegative density")
print("=" * 72)
# Coefficients of the N(rho*y, 1 - rho^2) density against the Gaussian,
# at rho = 1/2 and y = 1: c_n = rho^n He_n(y) / n!
rho, y = F(1, 2), F(1)
coeffs = tuple(rho**n * basis.polys[n](y) / basis.norms[n] for n in range(9))
cert = certify_positive(OrthogonalSeries(basis, coeffs), 4)
print(f"coefficients: {[str(c) for c in coeffs[:5]]} ...")
print(f"recovered moments (of N(1/2, 3/4)): {[str(v) for v in cert.recovered_moments.values[:5]]} ...")
print(f"Hankel determinants: {[str(d) for d in cert.pm_report.hankel_dets]}")
print(f"verdict: {cert.verdict.label}")

print()
print("=" * 72)
print("A subtler case: truncations of signed densities")
print("=" * 72)
# 1 + x/2 integrates to 1 against the Gaussian but dips below zero on
# (-inf, -2).  Shallow Hankel tests cannot see that; order 3 can.
series = OrthogonalSeries(basis, (F(1), F(1, 2)))
for order in (1, 2, 3):
    cert = certify_positive(series, order)
    print(f"  order {order}: {cert.verdict.label}")
print("moral: a certificate is only as deep as its order.")

print()
print("=" * 72)
print("Round trip and the degenerate verdict")
print("=" * 72)
point_mass = builtin("geometric", 9, 0)
cs = coefficients_from_moments(basis, point_mass)
print(f"series coefficients of the point mass at 0: {[str(c) for c in cs[:5]]} ...")
back = moments_from_coefficients(OrthogonalSeries(basis, cs))
print(f"moments recovered exactly: {back.values == point_mass.values}")
cert = certify_positive(OrthogonalSeries(basis, cs), 2)
print(f"verdict: {cert.verdict.label}   (zero determinant: finite support, not a refutation)")

print()
print("=" * 72)
print("Convergence diagnostics")
print("=" * 72)
print("Log-weighted energy partial sums; bounded partials upgrade mean-square")
print("convergence to almost-everywhere convergence.")
geo = OrthogonalSeries(basis, tuple(F(1, 2) ** n for n in range(9)))
print(f"  c_n = 2^-n over Hermite: partials {', '.join(f'{p:.4f}' for p in rademacher_menshov_partials(geo)[:5])} ...")
div = log_weighted_partials(F(1, n + 1) for n in range(10_000))
print(f"  c_n^2 norm_n = 1/(n+1):  S_100 = {div[99]:.2f},  S_10000 = {div[9999]:.2f}  (keeps growing)")

print()
print("=" * 72)
print("The reproducing map, truncated")
print("=" * 72)
out = kernel_projection(basis, Polynomial.monomial(3), 3)
print(f"projection of x^3 at order 3: {out.image}  (lossy: {out.lossy})")
out = kernel_projection(basis, Polynomial.monomial(3), 2)
print(f"projection of x^3 at order 2: {out.image}   (lossy: {out.lossy})")
