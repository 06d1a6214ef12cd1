#!/usr/bin/env python3
"""Bivariate expansions sum_n c_n alpha_n(x) beta_n(y) and their positivity.

Whether such an expansion is a genuine bivariate density reduces to a family
of univariate moment problems: the coupled triangular recursion turns the
coefficients into conditional moment polynomials m_n(y) = E[X^n | Y=y], and
positivity means every evaluation of those polynomials is a pm sequence.

The correlated Gaussian pair is the fully worked reference: with Hermite
families and c_n = rho^n, the conditional law is N(rho*y, 1 - rho^2) in
closed form, so every step of the machinery can be checked exactly.
"""

import math
from fractions import Fraction as F

from poslab import (
    LancasterProblem,
    SupportFlags,
    hermite,
    lancaster_report,
    mehler_demo_battery,
    mehler_density,
    mehler_kernel,
    mehler_moments,
    moment_polynomials,
    preset_problem,
)

rho = F(1, 2)

print("=" * 72)
print("Conditional moments from the recursion vs the closed form")
print("=" * 72)
prob = preset_problem("mehler", 10, rho)
mp = moment_polynomials(prob)
closed = mehler_moments(rho, 10)
for n in range(4):
    print(f"  m_{n}(y) = {mp.ma[n]}")
print(f"recursion output equals the closed form to order 10: {mp.ma == closed}")

print()
print("=" * 72)
print("Grid positivity report")
print("=" * 72)
report = lancaster_report(prob)
print(f"orders tested per grid point: {report.order}")
print(f"grid points: {len(report.grid_verdicts)} "
      f"(both conditional directions, default grid -2..2 step 1/2)")
print(f"all Hankel determinants strictly positive: "
      f"{all(v.report.strictly_positive for v in report.grid_verdicts)}")
print(f"verdict: {report.verdict.label}")

nec = report.necessary
print()
print("necessary conditions:")
print(f"  sum of c_n^2 partials stay below 1/(1-rho^2) = {1 / (1 - rho * rho)}: "
      f"{all(p < 1 / (1 - rho * rho) for p in nec.square_sum_partials)}")
print(f"  origin sum {float(nec.origin_sum):.6f} vs limit (1-rho^2)^(-1/2) = "
      f"{1 / math.sqrt(1 - float(rho) ** 2):.6f}")
print(f"  coefficient sequence rho^n is itself pm (rank-1 Hankel): "
      f"{nec.coeff_pm.is_pm and all(d == 0 for d in nec.coeff_pm.hankel_dets[1:])}")

print()
print("=" * 72)
print("A refuted expansion: coefficients too large to be conditional")
print("=" * 72)
basis = hermite(4)
bad = LancasterProblem(basis, basis, tuple(F(2) ** n for n in range(5)),
                       grid_a=(F(0),), grid_b=(F(0),))
bad_report = lancaster_report(bad, order=1)
origin = bad_report.grid_verdicts[0].report
print(f"c_n = 2^n: at y = 0 the conditional variance is {origin.hankel_dets[1]} < 0")
print(f"verdict: {bad_report.verdict.label}")

print()
print("=" * 72)
print("Kernel vs density: the float cross-check")
print("=" * 72)
r = F(3, 10)
print("sum_n rho^n He_n(x) He_n(y)/n! against the conditional density oracle,")
print("30 terms, rho = 3/10:")
worst = 0.0
for x in (-2.0, 0.0, 2.0):
    for y in (-1.0, 1.0):
        kernel = mehler_kernel(x, y, r, 30)
        oracle = mehler_density(x, y, r) * math.sqrt(2 * math.pi) * math.exp(x * x / 2)
        worst = max(worst, abs(kernel - oracle))
        print(f"  ({x:+.0f}, {y:+.0f}): kernel {kernel:.12f}   oracle {oracle:.12f}")
print(f"largest deviation: {worst:.3e}")

print()
print("=" * 72)
print("Other stock coefficient families over Hermite marginals")
print("=" * 72)
for name in ("harmonic", "catalan-ratio", "fibonacci-scaled"):
    p = preset_problem(name, 8)
    rep = lancaster_report(p, order=2)
    print(f"  {name:>17}: {rep.verdict.label}")

print()
print("=" * 72)
print("The full exact-identity battery")
print("=" * 72)
for result in mehler_demo_battery(rho, 10):
    tag = "PASS" if result.passed else "FAIL"
    print(f"  {tag}  {result.name}")
