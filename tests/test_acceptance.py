"""Acceptance battery: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import math
import random
import time
from fractions import Fraction as F

from tests_support import catalog_instances, hermite_sum_formula, normal_moments

from poslab.lancaster import (
    SupportFlags,
    LancasterProblem,
    full_order_check,
    mehler_density,
    mehler_kernel,
    mehler_moments,
    moment_polynomials,
    necessary_conditions,
    preset_problem,
)
from poslab.moments import (
    MomentSequence,
    builtin,
    hankel_det,
    is_pm,
    pm_binomial_combine,
    pm_mixture,
    pm_product,
)
from poslab.orthopoly import (
    Polynomial,
    basis_from_moments,
    hermite,
    hermite_addition_holds,
    three_term,
)
from poslab.positivity import (
    OrthogonalSeries,
    certify_positive,
    coefficients_from_moments,
    kernel_projection,
    moments_from_coefficients,
)


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number:2d}: PASS — {text}")


def test_criterion_01_hermite_reconstruction():
    start = time.perf_counter()
    built = basis_from_moments(builtin("gaussian", 25), 12)
    reference = hermite(12)
    elapsed = time.perf_counter() - start
    assert built.polys == reference.polys
    assert built.norms == tuple(F(math.factorial(n)) for n in range(13))
    assert three_term(built) == tuple((F(1), F(0), F(n)) for n in range(12))
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    report(1, f"Gaussian moments rebuild the Hermite family to order 12 in {elapsed:.3f}s")


def test_criterion_02_recurrence_matches_sum_formula():
    h = hermite(12)
    for n in range(13):
        assert h.polys[n] == Polynomial(tuple(hermite_sum_formula(n)))
    report(2, "recurrence-built polynomials equal the explicit sum formula, n <= 12")


def test_criterion_03_addition_formula():
    for n in range(9):
        assert hermite_addition_holds(n, F(3, 5))
    report(3, "addition formula is an exact bivariate identity at a = 3/5, n <= 8")


def test_criterion_04_conditional_moment_recursion_equivalence():
    start = time.perf_counter()
    for rho in (F(1, 2), F(-1, 3), F(3, 4)):
        prob = preset_problem("mehler", 10, rho)
        from_recursion = moment_polynomials(prob)
        closed = mehler_moments(rho, 10)
        assert from_recursion.ma == closed
        assert from_recursion.mb == closed
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    report(4, f"coupled recursion equals closed-form conditional moments ({elapsed:.3f}s)")


def test_criterion_05_constant_column_identity():
    h = hermite(10)
    pi = tuple(p.coeffs for p in h.polys)
    for rho in (F(1, 2), F(-1, 3), F(3, 4)):
        conditional = mehler_moments(rho, 10)
        for n in range(11):
            acc = Polynomial()
            for j in range(n + 1):
                acc = acc + pi[n][j] * conditional[j]
            assert acc == rho**n * h.polys[n]
    report(5, "sum_j pi_nj m_j(y) = rho^n He_n(y) exactly as polynomials, n <= 10")


def test_criterion_06_kernel_density_agreement():
    start = time.perf_counter()
    rho = F(3, 10)
    worst = 0.0
    for xi in range(-2, 3):
        for yi in range(-2, 3):
            kernel = mehler_kernel(float(xi), float(yi), rho, 30)
            oracle = (
                mehler_density(float(xi), float(yi), rho)
                * math.sqrt(2 * math.pi)
                * math.exp(xi * xi / 2)
            )
            worst = max(worst, abs(kernel - oracle))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8, f"max deviation {worst:.3e}"
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    report(6, f"30-term kernel matches the density oracle to {worst:.2e} <= 1e-8")


def test_criterion_07_round_trip_is_exact_identity():
    rng = random.Random(13571)
    bases = (hermite(8), basis_from_moments(builtin("catalan", 17), 8))
    for basis in bases:
        for _ in range(100):
            k = rng.randint(1, 8)
            coeffs = tuple(F(rng.randint(-30, 30), rng.randint(1, 20)) for _ in range(k))
            series = OrthogonalSeries(basis, coeffs)
            back = coefficients_from_moments(basis, moments_from_coefficients(series))
            assert back == series.padded_coeffs()
    report(7, "coefficients -> moments -> coefficients is the identity, 100 vectors per basis")


def test_criterion_08_negative_control():
    cert = certify_positive(OrthogonalSeries(hermite(2), (F(0), F(1), F(0))), 1)
    assert cert.verdict == "refuted"
    assert cert.verdict_order == 1
    assert cert.pm_report.hankel_dets[1] == F(-1)
    report(8, "series He_1 alone is refuted at order 1 with d_1 = -1 exactly")


def test_criterion_09_positive_control():
    rho = F(1, 2)
    basis = hermite(8)
    for y in (F(-2), F(-1), F(0), F(1), F(2)):
        coeffs = tuple(rho**n * basis.polys[n](y) / basis.norms[n] for n in range(9))
        cert = certify_positive(OrthogonalSeries(basis, coeffs), 4)
        assert cert.verdict == "certified"
        assert cert.verdict_label == "certified-to-order 4"
        assert all(d > 0 for d in cert.pm_report.hankel_dets)
        assert cert.recovered_moments.values == normal_moments(rho * y, F(3, 4), 9).values
    report(9, "conditionally-Gaussian coefficients certify to order 4, all determinants positive")


def test_criterion_10_pm_algebra_closure():
    seqs = catalog_instances(9)
    for a in seqs:
        for b in seqs:
            assert is_pm(pm_product(a, b), 4).is_pm, f"product {a.label} x {b.label}"
            assert is_pm(pm_mixture(a, b, F(1, 2)), 4).is_pm, f"mixture {a.label} | {b.label}"
            combined = pm_binomial_combine(a, b, F(3, 5), F(4, 5))
            assert is_pm(combined, 4).is_pm, f"combine {a.label} + {b.label}"
    report(10, "catalog closure under product, mixture, and combination holds at order 4")


def test_criterion_11_catalan_hankel():
    cat = builtin("catalan", 17)
    for n in range(9):
        assert hankel_det(cat, n) == 1
    # independent cofactor oracle for the small orders
    from test_moments import hankel_oracle

    for n in range(5):
        assert hankel_oracle(cat, n) == 1
    report(11, "Catalan Hankel transform is identically 1 through order 8 (oracle-checked)")


def test_criterion_12_necessary_condition_battery():
    rho = F(1, 2)
    prob = preset_problem("mehler", 20, rho)
    nec = necessary_conditions(prob)
    bound = 1 / (1 - rho * rho)
    assert all(p <= bound for p in nec.square_sum_partials)
    # origin sum over n <= 20 collects the even-pair terms k <= 10
    target = 2 / math.sqrt(3)
    assert nec.origin_sum is not None
    assert abs(float(nec.origin_sum) - target) < 1e-6
    geo = builtin("geometric", 21, rho)
    rep = is_pm(geo, 10)
    assert rep.is_pm
    assert all(d == 0 for d in rep.hankel_dets[1:])
    assert nec.coeff_pm is not None and nec.coeff_pm.is_pm
    assert all(d == 0 for d in nec.coeff_pm.hankel_dets[1:])
    report(12, "square sums bounded, origin sum within 1e-6 of 2/sqrt(3), rank-1 coefficient Hankel")


def test_criterion_13_projection_identity():
    basis = hermite(8)
    for k in range(7):
        out = kernel_projection(basis, Polynomial.monomial(k), 6)
        assert out.image == Polynomial.monomial(k)
        assert not out.lossy
    lossy = kernel_projection(basis, Polynomial.monomial(3), 2)
    assert lossy.image == Polynomial((F(0), F(3)))
    assert lossy.lossy
    report(13, "truncated kernel reproduces x^k exactly for k <= 6 and clips x^3 to 3x at order 2")


def test_criterion_14_full_order_check():
    rho = F(1, 2)
    h = hermite(8)
    family = [rho**n * h.polys[n] for n in range(9)]
    assert all(full_order_check(family, h))
    # flags are invariant under per-order positive rescaling (orthonormal vs monic frame)
    rescaled = [F(k + 1, 3) * p for k, p in enumerate(family)]
    assert full_order_check(rescaled, h) == full_order_check(family, h)
    deficient = list(family)
    deficient[2] = Polynomial.x()
    flags = full_order_check(deficient, h)
    assert flags[2] is False and all(flags[:2]) and all(flags[3:])
    report(14, "full-order flags pass on the damped Hermite family and catch a degree-deficient h_2")
