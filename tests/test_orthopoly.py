from fractions import Fraction as F
from math import comb, factorial

import pytest

from poslab.errors import DegenerateMeasureError, InsufficientMomentsError, RecurrenceError
from poslab.moments import MomentSequence, builtin
from poslab.orthopoly import (
    OrthoBasis,
    Polynomial,
    basis_from_moments,
    connection,
    eval_poly,
    hermite,
    hermite_addition_holds,
    hermite_addition_sides,
    squared_norms,
    three_term,
)
from poslab.rationals import double_factorial


def normal_moments(mean, var, count):
    """Oracle: E[(mean + s Z)^n] for Z standard normal, s^2 = var, all exact."""
    out = []
    for n in range(count):
        total = F(0)
        for j in range(0, n + 1, 2):
            total += comb(n, j) * var ** (j // 2) * double_factorial(j - 1) * mean ** (n - j)
        out.append(total)
    return MomentSequence(tuple(out), f"N({mean},{var})")


def bilinear(p, q, m):
    prod = p * q
    return sum(prod.coefficient(j) * m[j] for j in range(prod.degree + 1))


class TestPolynomial:
    def test_trailing_zeros_stripped(self):
        p = Polynomial((F(1), F(2), F(0)))
        assert p.degree == 1 and p.coeffs == (F(1), F(2))

    def test_zero_polynomial(self):
        z = Polynomial((F(0),))
        assert z.is_zero and z.degree == -1

    def test_arithmetic_evaluates_consistently(self):
        p = Polynomial((F(1), F(-2), F(3)))
        q = Polynomial((F(0), F(1)))
        for x in (F(0), F(2), F(-5, 3)):
            assert (p + q)(x) == p(x) + q(x)
            assert (p * q)(x) == p(x) * q(x)
            assert (3 * p)(x) == 3 * p(x)

    def test_horner_evaluation(self):
        p = Polynomial((F(3), F(0), F(-1), F(1)))  # 3 - x^2 + x^3
        assert eval_poly(p, F(2)) == 3 - 4 + 8
        assert eval_poly(p, F(0)) == 3

    def test_str_rendering(self):
        assert str(Polynomial((F(-1), F(0), F(1)))) == "x^2 - 1"
        assert str(Polynomial((F(0), F(-3), F(0), F(1)))) == "x^3 - 3*x"


class TestHermite:
    def test_first_polynomials(self):
        h = hermite(4)
        assert h.polys[0] == Polynomial.one()
        assert h.polys[3] == Polynomial((F(0), F(-3), F(0), F(1)))
        assert h.polys[4] == Polynomial((F(3), F(0), F(-6), F(0), F(1)))

    def test_norms_are_factorials(self):
        assert hermite(6).norms == tuple(F(factorial(n)) for n in range(7))

    def test_values_at_zero(self):
        h = hermite(13)
        for k in range(7):
            assert h.polys[2 * k](0) == F((-1) ** k * factorial(2 * k), 2**k * factorial(k))
            if 2 * k + 1 <= 13:
                assert h.polys[2 * k + 1](0) == 0

    def test_point_values(self):
        h = hermite(4)
        assert h.polys[2](0) == -1
        assert h.polys[4](1) == -2

    def test_recurrence_triples(self):
        assert hermite(5).recurrence == tuple((F(1), F(0), F(n)) for n in range(5))


class TestBasisFromMoments:
    def test_gaussian_rebuilds_hermite(self):
        basis = basis_from_moments(builtin("gaussian", 25), 12)
        href = hermite(12)
        assert basis.polys == href.polys
        assert basis.norms == href.norms
        assert basis.recurrence == href.recurrence

    def test_symmetric_moments_give_pure_x_at_order_one(self):
        basis = basis_from_moments(builtin("gaussian", 5), 2)
        assert basis.polys[1] == Polynomial.x()
        assert basis.polys[2] == Polynomial((F(-1), F(0), F(1)))

    def test_catalan_first_order(self):
        basis = basis_from_moments(builtin("catalan", 5), 2)
        assert basis.polys[1] == Polynomial((F(-1), F(1)))  # x - m_1

    def test_orthogonality_against_source_moments(self):
        for seq in (builtin("catalan", 17), builtin("factorial", 17), builtin("gaussian", 17)):
            basis = basis_from_moments(seq, 8)
            for n in range(9):
                for k in range(n):
                    assert bilinear(basis.polys[n], basis.polys[k], seq) == 0

    def test_insufficient_moments(self):
        with pytest.raises(InsufficientMomentsError):
            basis_from_moments(builtin("gaussian", 5), 3)

    def test_degenerate_measure_reports_failing_order(self):
        cases = [
            (builtin("geometric", 9, 2), 1),
            (builtin("geometric", 9, -3), 1),
            (builtin("geometric", 9, F(1, 2)), 1),
            (builtin("fib_shift", 9), 2),  # two atoms
            (builtin("fib_scaled", 9), 2),
        ]
        for seq, order in cases:
            with pytest.raises(DegenerateMeasureError) as err:
                basis_from_moments(seq, 4)
            assert err.value.order == order
            assert str(err.value) == (
                f"Hankel determinant d_{order} of {seq.label} is zero; "
                f"orthogonal family stops at order {order - 1}"
            )

    def test_degenerate_measure_truncates_on_request(self):
        basis = basis_from_moments(builtin("geometric", 9, 2), 4, allow_truncation=True)
        assert basis.order == 0
        assert "stops at order 0" in basis.status
        basis = basis_from_moments(builtin("fib_shift", 9), 4, allow_truncation=True)
        assert basis.order == 1 and basis.norms == (F(1), F(1))
        assert "d_2 of fib_shift is zero" in basis.status

    def test_signed_sequence_rejected(self):
        seq = MomentSequence((F(0), F(1), F(0)))
        with pytest.raises(DegenerateMeasureError):
            basis_from_moments(seq, 1)

    def test_negative_norm_is_reported_as_negative(self):
        # d_1 = 1, d_2 = -7: construction stops before the negative norm
        seq = MomentSequence((F(1), F(1), F(2), F(0), F(1)), "signed")
        with pytest.raises(DegenerateMeasureError) as err:
            basis_from_moments(seq, 2)
        assert err.value.order == 2
        assert "d_2 of signed is negative; orthogonal family stops at order 1" in str(err.value)
        basis = basis_from_moments(seq, 2, allow_truncation=True)
        assert basis.order == 1 and basis.status == str(err.value)


class TestNormsAndRecurrence:
    def test_recomputed_norms_match_construction(self):
        keys = ["gaussian", "catalan", "factorial", "fib_ratio", "fib_even", "fib_odd"]
        seqs = [builtin(name, 17) for name in keys] + [builtin("log_kernel", 17, 1)]
        for seq in seqs:
            basis = basis_from_moments(seq, 8)
            assert squared_norms(basis) == basis.norms, seq.label

    def test_hermite_norms_by_bilinear_form(self):
        assert squared_norms(hermite(8)) == tuple(F(factorial(n)) for n in range(9))

    def test_order_zero_norm_of_normalized_measure(self):
        assert squared_norms(basis_from_moments(builtin("factorial", 3), 1))[0] == 1

    def test_catalan_order_one_norm(self):
        basis = basis_from_moments(builtin("catalan", 5), 2)
        assert basis.norms[1] == F(2) - F(1) ** 2  # m_2 - m_1^2

    def test_extraction_matches_stored_triples(self):
        for seq in (builtin("catalan", 17), builtin("factorial", 17)):
            basis = basis_from_moments(seq, 8)
            assert three_term(basis) == basis.recurrence

    def test_catalan_triple_at_one(self):
        basis = basis_from_moments(builtin("catalan", 9), 4)
        assert basis.recurrence[1] == (F(1), F(-2), F(1))

    def test_symmetric_measures_have_zero_b(self):
        basis = basis_from_moments(builtin("gaussian", 17), 8)
        assert all(b == 0 for _, b, _ in three_term(basis))

    def test_resynthesis_reproduces_basis(self):
        basis = basis_from_moments(builtin("factorial", 17), 8)
        polys = [Polynomial.one(), None]
        x = Polynomial.x()
        rebuilt = [basis.polys[0]]
        prev = Polynomial()
        for n, (a, b, c) in enumerate(basis.recurrence):
            nxt = (a * x + Polynomial((b,))) * rebuilt[n] - c * prev
            prev = rebuilt[n]
            rebuilt.append(nxt)
        assert tuple(rebuilt) == basis.polys

    def test_non_orthogonal_family_is_rejected(self):
        # x^2 alone cannot extend {1, x} under any three-term recurrence with C_1 A_1 A_0 > 0
        polys = (Polynomial.one(), Polynomial.x(), Polynomial((F(1), F(1), F(1))))
        with pytest.raises(RecurrenceError):
            OrthoBasis(
                polys=polys,
                norms=(F(1), F(1), F(1)),
                recurrence=((F(1), F(0), F(0)), (F(1), F(1), F(-1))),
                source_moments=builtin("gaussian", 5),
            )


class TestDeterminantFormulaOracle:
    """Independent route to the same polynomials: the classical determinant
    form with last row (1, x, ..., x^n), rescaled to monic by the leading
    Hankel determinant."""

    @staticmethod
    def det_formula_poly(m, n):
        from test_moments import det_cofactor

        coeffs = []
        for j in range(n + 1):
            rows = []
            for i in range(n):
                rows.append([m[i + k] for k in range(n + 1) if k != j])
            minor = det_cofactor(rows) if rows else F(1)
            coeffs.append((-1) ** (n + j) * minor)
        lead = coeffs[n]
        return Polynomial(tuple(c / lead for c in coeffs))

    def test_matches_recurrence_build_to_order_six(self):
        for seq in (builtin("gaussian", 13), builtin("catalan", 13), builtin("factorial", 13)):
            basis = basis_from_moments(seq, 6)
            for n in range(1, 7):
                assert self.det_formula_poly(seq, n) == basis.polys[n], (seq.label, n)


class TestConnection:
    def test_identity_connection(self):
        h = hermite(4)
        cm = connection(h, h)
        for n, row in enumerate(cm.rows):
            assert row[n] == 1
            assert all(row[j] == 0 for j in range(n))

    def test_constant_column_equals_damped_hermite_values(self):
        # target family orthogonal to N(rho*y, 1-rho^2) at rho=1/2, y=1:
        # the constant column must be rho^n He_n(y)
        rho, y = F(1, 2), F(1)
        nm = normal_moments(rho * y, 1 - rho * rho, 13)
        target = basis_from_moments(nm, 6)
        cm = connection(hermite(6), target)
        expected = tuple(rho**n * hermite(6).polys[n](y) for n in range(7))
        assert cm.constant_column == expected
        assert cm.constant_column[1] == F(1, 2)
        assert cm.constant_column[2] == 0  # He_2(1) = 0

    def test_rows_reconstruct_source_polynomials(self):
        cat = basis_from_moments(builtin("catalan", 13), 6)
        cm = connection(hermite(6), cat)
        for n, row in enumerate(cm.rows):
            acc = Polynomial()
            for j, g in enumerate(row):
                acc = acc + g * cat.polys[j]
            assert acc == hermite(6).polys[n]

    def test_cube_decomposes_in_hermite(self):
        # x^3 = He_3 + 3 He_1
        h = hermite(3)
        assert Polynomial.monomial(3) == h.polys[3] + 3 * h.polys[1]


class TestAdditionFormula:
    def test_exact_identity_up_to_order_eight(self):
        for n in range(9):
            assert hermite_addition_holds(n, F(3, 5))

    def test_other_rational_points_on_the_circle(self):
        for a in (F(0), F(1), F(5, 13), F(-4, 5)):
            assert hermite_addition_holds(6, a)

    def test_sides_are_nontrivial(self):
        lhs, rhs = hermite_addition_sides(3, F(3, 5))
        assert lhs == rhs
        assert lhs[(3, 0)] == F(27, 125)  # a^3 x^3 term

    def test_irrational_complement_rejected(self):
        with pytest.raises(ValueError):
            hermite_addition_sides(3, F(1, 2))
