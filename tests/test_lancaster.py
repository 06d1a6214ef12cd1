import dataclasses
import math
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poslab import lancaster, moments
from poslab.cli import main
from poslab.errors import InsufficientMomentsError
from poslab.lancaster import (
    DEFAULT_GRID,
    LancasterProblem,
    SupportFlags,
    full_order_check,
    lancaster_report,
    mehler_demo_battery,
    mehler_density,
    mehler_kernel,
    mehler_moments,
    moment_polynomials,
    necessary_conditions,
    parse_problem_json,
    preset_names,
    preset_problem,
)
from poslab.moments import MomentSequence, builtin, is_pm
from poslab.orthopoly import OrthoBasis, Polynomial, basis_from_moments, hermite
from poslab.rationals import rat_str, rational_sqrt, wire_row
from tests_support import (
    catalog_instances,
    expand_by_polynomial_ops,
    grid_verdicts_by_fractions,
    halved_hermite,
    necessary_conditions_by_fractions,
    rescaled,
    solve_lower_by_fractions,
)


ALL_FLAGS = SupportFlags(
    zero_in_supp_mu=True, mu_unbounded=True, nu_unbounded=True, same_marginals=True
)


def mehler_problem(rho, order):
    basis = hermite(order)
    return LancasterProblem(basis, basis, tuple(rho**n for n in range(order + 1)), ALL_FLAGS)


class TestMomentPolynomials:
    def test_base_case_is_one(self):
        mp = moment_polynomials(mehler_problem(F(1, 2), 4))
        assert mp.ma[0] == Polynomial.one()
        assert mp.mb[0] == Polynomial.one()

    def test_first_two_orders_at_half(self):
        mp = moment_polynomials(mehler_problem(F(1, 2), 4))
        assert mp.ma[1] == Polynomial((F(0), F(1, 2)))  # y/2
        assert mp.ma[2] == Polynomial((F(3, 4), F(0), F(1, 4)))  # 3/4 + y^2/4

    def test_recursion_equals_closed_form(self):
        for rho in (F(1, 2), F(-1, 3), F(3, 4)):
            prob = mehler_problem(rho, 10)
            mp = moment_polynomials(prob)
            closed = mehler_moments(rho, 10)
            assert mp.ma == closed
            assert mp.mb == closed
            # the same orthonormal families in a non-monic normalization
            halved = halved_hermite(10)
            mp = moment_polynomials(LancasterProblem(halved, halved, prob.coeffs))
            assert mp.ma == closed
            assert mp.mb == closed

    def test_product_measure_coefficients_give_constant_moments(self):
        basis = hermite(6)
        prob = LancasterProblem(basis, basis, (F(1), F(0), F(0), F(0), F(0), F(0), F(0)))
        mp = moment_polynomials(prob)
        gauss = builtin("gaussian", 7)
        for n in range(7):
            assert mp.ma[n].degree <= 0
            assert mp.ma[n].coefficient(0) == gauss[n]

    def test_leading_coefficient_law(self):
        # lead(m_n) = e_n b_nn / a_nn, with e_n = c_n sqrt(h_n / k_n)
        h, halved = hermite(8), halved_hermite(8)
        cs = tuple(F(2, 3) ** n for n in range(9))
        for alpha, beta in ((h, h), (h, halved), (halved, h)):
            mp = moment_polynomials(LancasterProblem(alpha, beta, cs))
            for n in range(9):
                e = cs[n] * rational_sqrt(alpha.norms[n] / beta.norms[n])
                lead = e * beta.polys[n].leading / alpha.polys[n].leading
                assert mp.ma[n].coefficient(n) == lead

    def test_swapping_families_transposes_the_roles(self):
        # alpha = Hermite, beta = Catalan-family: swapping exchanges ma and mb
        a = hermite(4)
        b = basis_from_moments(builtin("catalan", 9) , 4)
        norm_square_coeffs = (F(1), F(0), F(0), F(0), F(0))
        with pytest.raises(ValueError):
            # catalan norms are not perfect-square multiples of n!
            LancasterProblem(a, b, norm_square_coeffs)

    def test_swap_symmetry_for_equal_norm_families(self):
        base = hermite(6)
        cs = (F(1), F(1, 3), F(1, 9), F(1, 27), F(1, 81), F(1, 243), F(1, 729))
        forward = moment_polynomials(LancasterProblem(base, base, cs))
        backward = moment_polynomials(LancasterProblem(base, base, cs))
        assert forward.ma == backward.mb
        assert forward.mb == backward.ma

    def test_swapping_distinct_families_transposes_everything(self):
        h = hermite(5)
        scaled = halved_hermite(5)
        cs = tuple(F(1, 2) ** n for n in range(6))
        fwd = moment_polynomials(LancasterProblem(h, scaled, cs))
        rev = moment_polynomials(LancasterProblem(scaled, h, cs))
        assert fwd.ma == rev.mb
        assert fwd.mb == rev.ma
        # and the grid reports transpose side-for-side
        ga, gb = (F(0), F(1)), (F(-1),)
        rep_f = lancaster_report(LancasterProblem(h, scaled, cs, grid_a=ga, grid_b=gb), order=2)
        rep_r = lancaster_report(LancasterProblem(scaled, h, cs, grid_a=gb, grid_b=ga), order=2)
        f_map = {(v.side, v.point): v.report for v in rep_f.grid_verdicts}
        r_map = {(v.side, v.point): v.report for v in rep_r.grid_verdicts}
        flip = {"a": "b", "b": "a"}
        assert f_map == {(flip[s], p): rep for (s, p), rep in r_map.items()}


def two_solve_oracle(prob):
    """Both conditional-moment systems, each by the Fraction forward substitution.

    The orthonormal route: s_n = sqrt(h_n / k_n) is taken here, and side a
    solves for (c_n s_n beta_n), side b for (c_n / s_n alpha_n).
    """
    size = prob.order + 1
    alpha, beta = prob.alpha.polys[:size], prob.beta.polys[:size]
    scales = [rational_sqrt(h / k) for h, k in zip(prob.alpha.norms[:size], prob.beta.norms)]
    rhs_a = [c * s * p for c, s, p in zip(prob.coeffs, scales, beta)]
    rhs_b = [c / s * p for c, s, p in zip(prob.coeffs, scales, alpha)]
    return (
        tuple(solve_lower_by_fractions(alpha, rhs_a)),
        tuple(solve_lower_by_fractions(beta, rhs_b)),
    )


def solves_and_result(prob):
    """moment_polynomials(prob), and how many triangular solves it ran."""
    with mock.patch.object(lancaster, "_solve_lower", wraps=lancaster._solve_lower) as spy:
        mp = moment_polynomials(prob)
    return spy.call_count, (mp.ma, mp.mb)


SYMMETRIC_BASES = [
    hermite(6),
    halved_hermite(6),
    basis_from_moments(builtin("catalan", 13), 6),
    basis_from_moments(builtin("factorial", 13), 6),
]


class TestSymmetricSolve:
    """A problem with equal triangles and equal norms solves once;
    every other problem solves both systems."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(SYMMETRIC_BASES),
        st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=9), max_size=6),
        st.lists(st.sampled_from([1, -1]), min_size=7, max_size=7),
    )
    def test_symmetric_problems_match_the_two_solve_oracle(self, basis, tail, signs):
        # the same triangle in both roles, also as two equal but distinct
        # bases; flipping signs keeps the norms equal
        flipped = rescaled(basis, signs)
        for alpha, beta in ((basis, basis), (flipped, rescaled(basis, signs))):
            prob = LancasterProblem(alpha, beta, (F(1), *tail))
            solves, got = solves_and_result(prob)
            assert solves == 1
            assert got == two_solve_oracle(prob)

    def test_distinct_families_take_the_second_solve(self):
        h, scaled = hermite(5), halved_hermite(5)
        cs = tuple(F(1, 2) ** n for n in range(6))
        for prob in (LancasterProblem(h, scaled, cs), LancasterProblem(scaled, h, cs)):
            solves, got = solves_and_result(prob)
            assert solves == 2
            assert got == two_solve_oracle(prob)

    def test_equal_triangles_with_other_norms_take_the_second_solve(self):
        h = hermite(5)
        # the same polynomials with the last norm 4 N! (h_N is free): s_N = 1/2
        wide = OrthoBasis(h.norms[:-1] + (4 * h.norms[-1],), h.recurrence, h.source_moments)
        prob = LancasterProblem(h, wide, tuple(F(1, 3) ** n for n in range(6)))
        solves, (ma, mb) = solves_and_result(prob)
        assert solves == 2
        assert (ma, mb) == two_solve_oracle(prob)
        assert ma != mb


class TestProblemValidation:
    def test_c0_must_be_one(self):
        basis = hermite(2)
        with pytest.raises(ValueError):
            LancasterProblem(basis, basis, (F(2), F(0), F(0)))

    def test_families_must_cover_the_order(self):
        with pytest.raises(ValueError):
            LancasterProblem(hermite(2), hermite(2), (F(1), F(0), F(0), F(0)))

    def test_norm_ratios_must_have_rational_roots(self):
        a = hermite(4)
        b = basis_from_moments(builtin("factorial", 9), 4)
        with pytest.raises(ValueError) as err:
            LancasterProblem(a, b, (F(1), F(0), F(0), F(0), F(0)))
        assert "perfect rational square" in str(err.value)

    def test_rescaled_norms_with_square_ratios_are_accepted(self):
        h = hermite(3)
        scaled = halved_hermite(3)
        prob = LancasterProblem(h, scaled, (F(1), F(1, 2), F(1, 4), F(1, 8)))
        # e_n = c_n sqrt(n! / (n! / 4^n)) = 2^-n 2^n
        assert prob.monic_coeffs == (1, 1, 1, 1)

    def test_marginal_masses_must_be_equal(self):
        # every beta norm times 4: E[X^0 | Y=y] would be 1/2 and E[Y^0 | X=x] 2
        h = hermite(4)
        heavy = OrthoBasis([v * 4 for v in h.norms], h.recurrence, h.source_moments)
        for alpha, beta, (a, b) in ((h, heavy, (1, 4)), (heavy, h, (4, 1))):
            with pytest.raises(ValueError) as err:
                LancasterProblem(alpha, beta, (1, 0, 0, 0, 0))
            assert str(err.value) == (
                f"the marginal masses h_0/p_0^2 = {a} and k_0/q_0^2 = {b} differ; "
                "probability conditionals need equal masses"
            )

    def test_c0_is_the_sign_of_p0_q0(self):
        # alpha_0 = -1: the Mehler kernel has c_0 = -1 over this pair
        h, flipped = hermite(4), rescaled(hermite(4), [-1, 1, 1, 1, 1])
        rho = F(1, 2)
        for alpha, beta in ((flipped, h), (h, flipped)):
            with pytest.raises(ValueError) as err:
                LancasterProblem(alpha, beta, tuple(rho**n for n in range(5)))
            assert str(err.value) == (
                "c_0 must be sign(p_0 q_0) = -1 for probability conditionals, got 1"
            )
            prob = LancasterProblem(alpha, beta, (-1,) + tuple(rho**n for n in range(1, 5)))
            mp = moment_polynomials(prob)
            assert mp.ma[0] == mp.mb[0] == Polynomial.one()
            assert mp.ma == mp.mb == mehler_moments(rho, 4)
            report = lancaster_report(prob)
            assert report.verdict.status == "positive"
            assert all(v.report.hankel_dets[0] == 1 for v in report.grid_verdicts)


class TestProblemGrids:
    """The problem holds its grids: construction applies the default, the
    coercion and the rule that at least one point is tested."""

    def test_default_grid_when_none_is_given(self):
        prob = mehler_problem(F(1, 2), 4)
        assert prob.grid_a == prob.grid_b == DEFAULT_GRID
        assert DEFAULT_GRID == tuple(F(k, 2) for k in range(-4, 5))
        assert preset_problem("harmonic", 4).grid_a == DEFAULT_GRID

    def test_string_and_int_points_are_coerced(self):
        basis = hermite(2)
        prob = LancasterProblem(basis, basis, (1, 0, 0), grid_a=["1/2", 3], grid_b=("-0.25",))
        assert prob.grid_a == (F(1, 2), F(3)) and prob.grid_b == (F(-1, 4),)
        assert all(type(v) is F for v in prob.grid_a + prob.grid_b)

    def test_a_negative_order_is_refused_before_the_grid_is_evaluated(self, monkeypatch):
        def no_grid(*args):
            raise AssertionError("grid evaluated for a negative order")

        monkeypatch.setattr(lancaster, "moment_polynomials", no_grid)
        monkeypatch.setattr(lancaster, "_values_at", no_grid)
        with pytest.raises(ValueError, match="^max_order must be nonnegative$"):
            lancaster_report(mehler_problem(F(1, 2), 4), order=-1)

    def test_both_grids_empty_is_an_error(self):
        basis = hermite(2)
        with pytest.raises(ValueError, match="^both grids are empty: there is no grid point"):
            LancasterProblem(basis, basis, (1, 0, 0), grid_a=(), grid_b=[])
        prob = LancasterProblem(basis, basis, (1, 0, 0), grid_a=(), grid_b=(F(0),))
        with pytest.raises(ValueError, match="^both grids are empty"):
            dataclasses.replace(prob, grid_b=())

    def test_one_side_may_be_empty(self):
        prob = dataclasses.replace(mehler_problem(F(1, 2), 4), grid_b=())
        assert prob.grid_a == DEFAULT_GRID and prob.grid_b == ()
        report = lancaster_report(prob)
        assert {v.side for v in report.grid_verdicts} == {"a"}
        assert [v.point for v in report.grid_verdicts] == list(DEFAULT_GRID)


class TestGridReport:
    def test_mehler_grid_is_strictly_positive(self):
        report = lancaster_report(mehler_problem(F(1, 2), 10), order=3)
        assert report.verdict.status == "positive"
        assert len(report.grid_verdicts) == 2 * len(DEFAULT_GRID)
        for v in report.grid_verdicts:
            assert v.report.strictly_positive

    def test_recovered_grid_sequences_are_conditional_normal_moments(self):
        from tests_support import normal_moments

        rho = F(1, 2)
        prob = dataclasses.replace(mehler_problem(rho, 8), grid_a=(F(1),), grid_b=())
        report = lancaster_report(prob, order=4)
        (verdict,) = report.grid_verdicts
        mp = moment_polynomials(mehler_problem(rho, 8))
        vals = tuple(mp.ma[k](F(1)) for k in range(9))
        assert vals == normal_moments(rho, 1 - rho * rho, 9).values

    def test_overexpanded_geometric_is_refuted_at_the_origin(self):
        # c_n = 2^n: conditional variance at y=0 is 1 - c_2 = -3
        basis = hermite(4)
        prob = LancasterProblem(
            basis, basis, tuple(F(2) ** n for n in range(5)), grid_a=(F(0),), grid_b=(F(0),)
        )
        report = lancaster_report(prob, order=1)
        assert report.verdict.status == "refuted"
        origin = report.grid_verdicts[0].report
        assert origin.hankel_dets[1] == -3

    def test_oversized_first_coefficient_is_refuted_on_the_default_grid(self):
        # |c_1| > 1 with decaying tail: m_2(y) - m_1(y)^2 = (c_2 - c_1^2) y^2 + (1 - c_2)
        # goes negative once |y| >= 1/2
        basis = hermite(4)
        prob = LancasterProblem(basis, basis, (F(1), F(2), F(1, 4), F(1, 8), F(1, 16)))
        report = lancaster_report(prob, order=1)
        assert report.verdict.status == "refuted"
        by_point = {(v.side, v.point): v.report for v in report.grid_verdicts}
        assert by_point[("a", F(0))].is_pm  # the origin alone does not betray it
        assert not by_point[("a", F(1))].is_pm

    def test_order_must_fit_the_problem(self):
        with pytest.raises(InsufficientMomentsError):
            lancaster_report(mehler_problem(F(1, 2), 4), order=3)

    def test_both_grids_empty_is_an_error(self):
        # such a report would be "positive" without testing a single point
        with pytest.raises(ValueError, match="both grids are empty"):
            dataclasses.replace(mehler_problem(F(1, 2), 4), grid_a=(), grid_b=())
        one_side = lancaster_report(
            dataclasses.replace(mehler_problem(F(1, 2), 4), grid_a=(), grid_b=(F(0),))
        )
        assert [v.side for v in one_side.grid_verdicts] == ["b"]

    def test_report_is_independent_of_grid_order(self):
        prob = mehler_problem(F(1, 3), 6)
        fwd = lancaster_report(
            dataclasses.replace(prob, grid_a=(F(-1), F(0), F(1)), grid_b=()), order=3
        )
        rev = lancaster_report(
            dataclasses.replace(prob, grid_a=(F(1), F(0), F(-1)), grid_b=()), order=3
        )
        assert {(v.side, v.point): v.report for v in fwd.grid_verdicts} == {
            (v.side, v.point): v.report for v in rev.grid_verdicts
        }


ODD_GRID = (F(-7, 3), F(-3, 2), F(-1), F(-1, 4), F(0), F(1, 3), F(2), F(5, 2))


def grid_problem(alpha, beta, coeffs):
    return LancasterProblem(alpha, beta, coeffs, ALL_FLAGS, grid_a=ODD_GRID, grid_b=ODD_GRID[::-1])


GRID_PROBLEMS = {
    "hermite": grid_problem(hermite(8), hermite(8), tuple(F(1, 2) ** n for n in range(9))),
    "perturbed-hermite": grid_problem(
        hermite(8), hermite(8), (1,) + tuple(F(-2, 3) ** n + F(20, 1000) for n in range(1, 9))
    ),
    "halved-hermite": grid_problem(
        halved_hermite(8), halved_hermite(8), tuple(F(-1, 3) ** n for n in range(9))
    ),
    "distinct-families": grid_problem(
        hermite(8), halved_hermite(8), tuple(F(3, 4) ** n for n in range(9))
    ),
    # odd conditional moments are the zero polynomial
    "product-measure": grid_problem(hermite(8), hermite(8), (1,) + (0,) * 8),
    # X = Y: m_n(y) = y^n, a zero minor at order 1 at every point
    "x-equals-y": grid_problem(hermite(8), hermite(8), (1,) * 9),
    # zero minors that are not flat: the per-order Bareiss fallback runs
    "bareiss-fallback": grid_problem(hermite(4), hermite(4), (1, -1, 1, 2, 1)),
}


def battery_inputs(prob):
    """lancaster_report(prob), and the sequence handed to each is_pm call, in call order."""
    with mock.patch.object(lancaster, "is_pm", wraps=is_pm) as spy:
        report = lancaster_report(prob)
    return report, [call.args[0] for call in spy.call_args_list]


class TestIntegerGridPath:
    """The integer grid batteries against the Fraction route they replaced."""

    @pytest.mark.parametrize("name", GRID_PROBLEMS)
    def test_grid_verdicts_equal_the_fraction_route(self, name):
        prob = GRID_PROBLEMS[name]
        for order in range(prob.order // 2 + 1):
            expected = grid_verdicts_by_fractions(prob, order)
            assert lancaster_report(prob, order).grid_verdicts == expected

    def test_the_fixtures_reach_each_branch(self):
        flat = lancaster_report(GRID_PROBLEMS["x-equals-y"]).grid_verdicts
        assert all(v.report.first_zero_order == 1 for v in flat)
        assert lancaster_report(GRID_PROBLEMS["perturbed-hermite"]).verdict.status == "refuted"
        assert any(p.is_zero for p in moment_polynomials(GRID_PROBLEMS["product-measure"]).ma)
        with mock.patch.object(moments, "_hankel_window", wraps=moments._hankel_window) as det:
            lancaster_report(GRID_PROBLEMS["bareiss-fallback"])
        assert det.called

    def test_a_flat_battery_never_builds_the_fallback_sequence(self):
        prob = GRID_PROBLEMS["x-equals-y"]
        expected = grid_verdicts_by_fractions(prob, 4)

        def fail(*args, **kwargs):
            raise AssertionError("the fallback ran on a flat battery")

        with mock.patch.object(moments, "_hankel_window", fail), \
                mock.patch.object(moments.MomentSequence, "values", property(fail)):
            assert lancaster_report(prob, 4).grid_verdicts == expected

    @settings(max_examples=30, deadline=None)
    @given(
        st.fractions(min_value=-1, max_value=1, max_denominator=7),
        st.integers(-30, 30),
        st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=5), min_size=1, max_size=4),
    )
    def test_perturbed_mehler_grids_equal_the_fraction_route(self, rho, shift, grid):
        coeffs = (1,) + tuple(rho**n + F(shift, 1000) for n in range(1, 7))
        prob = LancasterProblem(hermite(6), hermite(6), coeffs, grid_a=grid, grid_b=grid[::-1])
        assert lancaster_report(prob).grid_verdicts == grid_verdicts_by_fractions(prob, 3)

    # A symmetric problem evaluates each grid point once and hands both sides
    # the same sequence; every other problem evaluates side b itself.  The
    # batteries run once per side and point either way.

    def test_a_symmetric_problem_shares_each_sequence(self):
        prob = mehler_problem(F(1, 2), 8)
        points = len(prob.grid_a)
        report, seqs = battery_inputs(prob)
        # both sides of the grid, plus the coeff_pm and ratio_pm batteries
        assert len(seqs) == 2 * points + 2
        assert all(a is b for a, b in zip(seqs[:points], seqs[points : 2 * points]))
        assert report.grid_verdicts == grid_verdicts_by_fractions(prob, report.order)

    @pytest.mark.parametrize("name", ["other-grid", "distinct-families"])
    def test_side_b_gets_its_own_sequences(self, name):
        cs = tuple(F(1, 2) ** n for n in range(9))
        prob = {
            "other-grid": grid_problem(hermite(8), hermite(8), cs),
            "distinct-families": LancasterProblem(
                hermite(8), halved_hermite(8), cs, ALL_FLAGS, grid_a=ODD_GRID, grid_b=ODD_GRID
            ),
        }[name]
        points_a, points_b = len(prob.grid_a), len(prob.grid_b)
        report, seqs = battery_inputs(prob)
        assert len(seqs) == points_a + points_b + 2
        side_a, side_b = seqs[:points_a], seqs[points_a : points_a + points_b]
        assert not {id(s) for s in side_a} & {id(s) for s in side_b}
        assert report.grid_verdicts == grid_verdicts_by_fractions(prob, report.order)


def _file_problem():
    """A problem read back from its file, whose ``beta`` object is the ``alpha`` object."""
    basis = basis_from_moments(builtin("catalan", 17), 8)
    prob = LancasterProblem(basis, basis, tuple(F(1, n + 1) for n in range(9)), ALL_FLAGS)
    return parse_problem_json(prob.to_json_dict())


WRITER_PROBLEMS = {
    "symmetric-preset": lambda: preset_problem("mehler", 8, F(1, 2)),
    "beta-equals-alpha-file": _file_problem,
    # every side-b report is some side-a report, at another position
    "reversed-grid": lambda: GRID_PROBLEMS["perturbed-hermite"],
    "other-grid": lambda: LancasterProblem(
        hermite(8), hermite(8), tuple(F(1, 2) ** n for n in range(9)),
        grid_a=(F(-1), F(1, 3)), grid_b=(F(2), F(-5, 2), F(0)),
    ),
    "distinct-families": lambda: LancasterProblem(
        hermite(8), halved_hermite(8), tuple(F(3, 4) ** n for n in range(9)), ALL_FLAGS
    ),
    # side b repeats two of side a's points and adds one of its own
    "overlapping-grids": lambda: LancasterProblem(
        hermite(8), hermite(8), (1,) + tuple(F(-2, 3) ** n + F(20, 1000) for n in range(1, 9)),
        grid_a=(F(0), F(1, 2), F(3)), grid_b=(F(1, 2), F(-3, 2), F(0)),
    ),
}


def distinct_dicts(objs):
    return len({id(o) for o in objs})


class TestReportWriter:
    """LancasterReport.to_json_dict writes each distinct Hankel report once.

    Verdicts whose reports hold the same integers share one report dict;
    every verdict must still read exactly its own report's dict, so the
    table can never merge two unequal reports.
    """

    @pytest.mark.parametrize("name", WRITER_PROBLEMS)
    def test_every_verdict_writes_its_own_report(self, name):
        report = lancaster_report(WRITER_PROBLEMS[name]())
        doc = report.to_json_dict()
        assert doc["grid_verdicts"] == [
            {"side": v.side, "point": rat_str(v.point), "report": v.report.to_json_dict()}
            for v in report.grid_verdicts
        ]
        polys = report.moment_polys
        assert doc["conditional_moments_a"] == [wire_row(p._num, p._den) for p in polys.ma]
        assert doc["conditional_moments_b"] == [wire_row(p._num, p._den) for p in polys.mb]

    def test_the_fixtures_reach_shared_and_own_reports(self):
        def reports(name):
            doc = lancaster_report(WRITER_PROBLEMS[name]()).to_json_dict()
            sides = {"a": [], "b": []}
            for v in doc["grid_verdicts"]:
                sides[v["side"]].append(v["report"])
            return doc, sides["a"], sides["b"]

        for name in ("symmetric-preset", "beta-equals-alpha-file"):
            doc, side_a, side_b = reports(name)
            assert all(a is b for a, b in zip(side_a, side_b))
            assert doc["conditional_moments_b"] is doc["conditional_moments_a"]
        doc, side_a, side_b = reports("reversed-grid")
        assert all(a is b for a, b in zip(side_a, side_b[::-1]))
        doc, side_a, side_b = reports("other-grid")
        assert distinct_dicts(side_a + side_b) == len(side_a) + len(side_b)
        doc, side_a, side_b = reports("distinct-families")
        assert doc["conditional_moments_b"] is not doc["conditional_moments_a"]
        doc, side_a, side_b = reports("overlapping-grids")
        assert side_b[0] is side_a[1] and side_b[2] is side_a[0]
        assert distinct_dicts(side_a + side_b) == 4
        assert side_b[1] not in side_a  # a report of its own, unequal to every side-a report


def norm_pairs():
    """(alpha, beta) pairs whose norm ratios are rational squares, one of each shape."""
    h = hermite(6)
    wide = OrthoBasis(h.norms[:-1] + (4 * h.norms[-1],), h.recurrence, h.source_moments)
    nonzero = st.fractions(min_value=-3, max_value=3, max_denominator=7).filter(bool)
    return st.one_of(
        st.just((h, h)),
        st.sampled_from([(h, halved_hermite(6)), (halved_hermite(6), h)]),
        # only s_N differs from 1: it is 1/2 or 2
        st.sampled_from([(h, wide), (wide, h)]),
        # negative scales give negative leading coefficients
        st.lists(st.lists(nonzero, min_size=7, max_size=7), min_size=2, max_size=2).map(
            lambda scales: (rescaled(h, scales[0]), rescaled(h, scales[1]))),
    )


class TestNecessaryConditions:
    @settings(max_examples=150, deadline=None)
    @given(
        norm_pairs(),
        st.builds(SupportFlags, st.booleans(), st.booleans(), st.booleans(), st.booleans()),
        st.lists(
            st.one_of(
                st.just(F(0)),
                st.fractions(min_value=-2, max_value=2, max_denominator=9),
                st.fractions(min_value=-5, max_value=5, max_denominator=10**12),
            ),
            max_size=6,
        ),
    )
    def test_integer_conditions_equal_the_fraction_route(self, pair, flags, tail):
        alpha, beta = pair
        # the probability rule: c_0 = sign(p_0 q_0)
        c0 = 1 if alpha.p0 * beta.p0 > 0 else -1
        prob = LancasterProblem(alpha, beta, (c0, *tail), flags)
        got, expected = necessary_conditions(prob), necessary_conditions_by_fractions(prob)
        assert got == expected
        assert got.to_json_dict() == expected.to_json_dict()
        assert all(type(v) is F for v in got.square_sum_partials)

    def test_the_fixtures_reach_negative_leads_and_scale_denominators(self):
        h = hermite(6)
        flipped = rescaled(h, [(-1) ** n * F(n + 1, 2) for n in range(7)])
        assert flipped.polys[1].leading < 0 and flipped.polys[3].leading < 0
        wide = OrthoBasis(h.norms[:-1] + (4 * h.norms[-1],), h.recurrence, h.source_moments)
        assert LancasterProblem(h, wide, (1,) * 7).monic_coeffs[6] == F(1, 2)

    def test_square_sums_bounded_by_geometric_limit(self):
        prob = mehler_problem(F(1, 2), 12)
        nec = necessary_conditions(prob)
        bound = 1 / (1 - F(1, 4))
        assert all(p < bound for p in nec.square_sum_partials)

    def test_origin_sum_approaches_the_kernel_at_zero(self):
        prob = mehler_problem(F(1, 2), 20)
        nec = necessary_conditions(prob)
        assert nec.origin_sum is not None and nec.origin_sum > 0
        assert abs(float(nec.origin_sum) - 2 / math.sqrt(3)) < 1e-6

    def test_coefficient_sequence_is_rank_one_pm(self):
        nec = necessary_conditions(mehler_problem(F(1, 2), 12))
        assert nec.coeff_pm is not None and nec.coeff_pm.is_pm
        assert all(d == 0 for d in nec.coeff_pm.hankel_dets[1:])
        assert nec.ratio_pm is not None and nec.ratio_pm.is_pm

    def test_coeff_pm_reads_the_law_not_the_sign_of_a_family(self):
        # p_0 = -1 flips every alpha_n, so c_n = -(1/2)^n is the Mehler law at rho = 1/2
        h = hermite(6)
        flipped = OrthoBasis(h.norms, h.recurrence, h.source_moments, p0=-1)
        plain = LancasterProblem(h, h, [F(1, 2**n) for n in range(7)], ALL_FLAGS)
        signed = LancasterProblem(flipped, h, [F(-1, 2**n) for n in range(7)], ALL_FLAGS)
        got, expected = necessary_conditions(signed).coeff_pm, necessary_conditions(plain).coeff_pm
        assert expected.is_pm and got == expected

    def test_trivial_coefficients(self):
        basis = hermite(4)
        prob = LancasterProblem(basis, basis, (F(1), F(0), F(0), F(0), F(0)), ALL_FLAGS)
        nec = necessary_conditions(prob)
        assert nec.square_sum_partials == (F(1),) * 5
        assert nec.origin_sum == 1

    def test_checks_are_gated_on_support_flags(self):
        prob = mehler_problem(F(1, 2), 6)
        bare = LancasterProblem(prob.alpha, prob.beta, prob.coeffs)  # no declared support
        nec = necessary_conditions(bare)
        assert nec.origin_sum is None
        assert nec.ratio_pm is None
        assert nec.coeff_pm is None


class TestFullOrderCheck:
    def test_reference_family_passes(self):
        h = hermite(6)
        flags = full_order_check([F(1, 2) ** n * h.polys[n] for n in range(7)], h)
        assert all(flags)

    def test_degree_deficient_entry_fails(self):
        h = hermite(6)
        polys = [F(1, 2) ** n * h.polys[n] for n in range(7)]
        polys[2] = Polynomial.x()
        flags = full_order_check(polys, h)
        assert flags == (True, True, False, True, True, True, True)

    def test_constant_passes_at_order_zero(self):
        assert full_order_check([Polynomial.one()], hermite(2)) == (True,)

    def test_scale_invariance(self):
        h = hermite(5)
        base = [h.polys[n] for n in range(6)]
        scaled = [F(7, 3) * p for p in base]
        assert full_order_check(base, h) == full_order_check(scaled, h)

    @pytest.mark.parametrize(
        "basis",
        [
            pytest.param(basis_from_moments(seq, 6, allow_truncation=True), id=seq.label)
            for seq in catalog_instances(13)
        ]
        # p_0 = 3/2
        + [pytest.param(rescaled(hermite(6), [F(3, n + 2) for n in range(7)]), id="rescaled He")],
    )
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_degree_test_is_the_expansion_rule(self, basis, data):
        small = st.fractions(min_value=-9, max_value=9, max_denominator=12)
        polys = []
        for n in range(data.draw(st.integers(0, basis.order + 1))):
            degree = data.draw(st.one_of(st.just(n), st.integers(-1, basis.order)))
            lower = data.draw(st.lists(small, min_size=degree, max_size=degree)) if degree > 0 else []
            top = [data.draw(small.filter(bool))] if degree >= 0 else []
            polys.append(Polynomial(lower + top))
        # the rule in the family's coordinates: component n nonzero and none above it
        expected = []
        for n, h in enumerate(polys):
            gamma = expand_by_polynomial_ops(h, basis.polys)
            expected.append(gamma[n] != 0 and not any(gamma[n + 1 :]))
        assert full_order_check(polys, basis) == tuple(expected)

    def test_a_degree_above_the_basis_order_is_refused(self):
        h = hermite(2)
        message = "^cannot expand a degree-3 polynomial in a basis of order 2$"
        for polys in ([Polynomial.monomial(3)], [h.polys[0], h.polys[1], Polynomial.monomial(3)]):
            with pytest.raises(ValueError, match=message):
                full_order_check(polys, h)

    def test_report_flags_are_the_check_of_c_n_beta_n(self):
        # lancaster_report sets pc_flags[n] = (c_n != 0): deg(c_n beta_n) = n iff c_n != 0
        cat = basis_from_moments(builtin("catalan", 13), 6)
        for beta, coeffs in (
            (hermite(6), (F(1), F(0), F(1, 4), F(0), F(0), F(-1, 32), F(1, 64))),
            (cat, (F(1), F(1, 2), F(0), F(1, 8), F(0), F(0), F(0))),
        ):
            prob = LancasterProblem(beta, beta, coeffs)
            expected = full_order_check([c * p for c, p in zip(coeffs, beta.polys)], beta)
            assert lancaster_report(prob, order=1).pc_flags == expected
            assert False in expected and True in expected


class TestMehlerReference:
    def test_moment_polynomial_values(self):
        polys = mehler_moments(F(1, 2), 4)
        assert polys[0] == Polynomial.one()
        assert polys[2] == Polynomial((F(3, 4), F(0), F(1, 4)))

    def test_closed_form_structure(self):
        rho = F(2, 5)
        polys = mehler_moments(rho, 6)
        # m_2(y) = rho^2 y^2 + (1 - rho^2)
        assert polys[2] == Polynomial((1 - rho * rho, F(0), rho * rho))

    def test_independence_limit(self):
        polys = mehler_moments(F(0), 6)
        gauss = builtin("gaussian", 7)
        for n, p in enumerate(polys):
            assert p.degree <= 0 and p.coefficient(0) == gauss[n]

    def test_rho_must_be_inside_the_unit_interval(self):
        with pytest.raises(ValueError):
            mehler_moments(F(1), 3)
        with pytest.raises(ValueError):
            mehler_density(0.0, 0.0, F(3, 2))

    @pytest.mark.parametrize(
        "rho",
        ["0.99999999999999999999", "-0.99999999999999999999", "0." + "9" * 400],
        ids=["20-nines", "minus-20-nines", "400-nines"],
    )
    def test_density_is_refused_where_the_float_of_rho_is_one(self, rho):
        with pytest.raises(ValueError, match="rho rounds to [+-]1 as a float"):
            mehler_density(0.0, 0.0, F(rho))

    def test_density_values(self):
        assert mehler_density(0.0, 0.0, F(0)) == pytest.approx(1 / math.sqrt(2 * math.pi))
        rho = F(3, 10)
        got = mehler_density(0.0, 0.0, rho)
        assert got == pytest.approx(1 / math.sqrt(2 * math.pi * (1 - 0.09)))
        got = mehler_density(1.0, 1.0, rho)
        assert got == pytest.approx(math.exp(-0.49 / 1.82) / math.sqrt(2 * math.pi * 0.91))

    def test_kernel_degenerate_cases(self):
        assert mehler_kernel(1.3, -0.4, F(0), 10) == 1.0

    def test_kernel_matches_density_oracle(self):
        rho = F(3, 10)
        for x in (-2.0, -1.0, 0.0, 1.0, 2.0):
            for y in (-2.0, -1.0, 0.0, 1.0, 2.0):
                kernel = mehler_kernel(x, y, rho, 30)
                oracle = mehler_density(x, y, rho) * math.sqrt(2 * math.pi) * math.exp(x * x / 2)
                assert abs(kernel - oracle) <= 1e-8

    def test_kernel_at_origin_closed_form(self):
        val = mehler_kernel(0.0, 0.0, F(3, 10), 30)
        assert val == pytest.approx((1 - 0.09) ** -0.5, abs=1e-10)


class TestPresetsAndBattery:
    def test_presets_build_and_stay_positive(self):
        for name in ("harmonic", "catalan-ratio", "fibonacci-scaled"):
            prob = preset_problem(name, 8)
            report = lancaster_report(prob, order=2)
            assert report.verdict.status == "positive", name

    def test_mehler_preset_needs_rho(self):
        with pytest.raises(ValueError):
            preset_problem("mehler", 6)
        with pytest.raises(ValueError):
            preset_problem("harmonic", 6, rho=F(1, 2))
        with pytest.raises(ValueError):
            preset_problem("unknown", 6)

    @pytest.mark.parametrize(
        "name, rho, message",
        [
            ("nope", None,
             "unknown preset 'nope'; known: mehler, harmonic, catalan-ratio, fibonacci-scaled"),
            ("mehler", None, "preset 'mehler' needs a correlation rho"),
            ("harmonic", F(1, 2), "preset 'harmonic' takes no correlation parameter"),
            ("catalan-ratio", F(0), "preset 'catalan-ratio' takes no correlation parameter"),
            ("fibonacci-scaled", F(-1, 3),
             "preset 'fibonacci-scaled' takes no correlation parameter"),
        ],
    )
    def test_preset_error_messages(self, name, rho, message):
        assert preset_names() == ("mehler", "harmonic", "catalan-ratio", "fibonacci-scaled")
        with pytest.raises(ValueError) as err:
            preset_problem(name, 4, rho)
        assert str(err.value) == message

    def test_battery_all_green(self):
        results = mehler_demo_battery(F(1, 2), 10)
        assert results, "battery must produce checks"
        for r in results:
            assert r.passed, r.name

    def test_battery_checks_the_addition_formula_on_its_own_basis(self, monkeypatch):
        import poslab.orthopoly

        built = []
        real = poslab.orthopoly.hermite
        monkeypatch.setattr(poslab.orthopoly, "hermite", lambda n: built.append(n) or real(n))
        results = mehler_demo_battery(F(1, 2), 8)
        assert next(r for r in results if r.name == "hermite-addition-formula").passed
        assert built == []  # hermite_addition_sides would build hermite(n) for n = 0..8

    def test_battery_at_negative_rho(self):
        results = mehler_demo_battery(F(-1, 3), 8)
        assert all(r.passed for r in results)

    @pytest.mark.parametrize(
        "rho, order",
        [
            (F(2, 3), 10), (F(-2, 3), 10), (F(3, 4), 10), (F(4, 5), 10), (F(1, 2), 4),
            (F(1, 2), 6), (F(9, 10), 10), (F(-9, 10), 10), (F(49, 50), 10),
        ],
    )
    def test_battery_passes_where_truncation_error_is_large(self, rho, order):
        # the origin sum and the 30-term kernel miss their limits by more
        # than a fixed tolerance here; the checks must allow the proven tail,
        # which at |rho| >= 9/10 is the tolerance at the term cap and still
        # below the density on the grid
        failed = [r.name for r in mehler_demo_battery(rho, order) if not r.passed]
        assert failed == []

    @pytest.mark.parametrize(
        "rho, terms", [(F(1, 2), 30), (F(-1, 2), 30), (F(3, 7), 30), (F(1, 10), 30), (F(4, 5), 99)]
    )
    def test_kernel_terms(self, rho, terms):
        # 30 terms up to |rho| = 1/2, more only where the proven tail needs them
        kernel = {r.name: r for r in mehler_demo_battery(rho, 6)}["kernel-vs-density"]
        assert kernel.passed and kernel.detail.endswith(f", {terms} terms")

    def test_kernel_detail_names_the_tail_at_the_term_cap(self):
        # at rho = 99/100 the 160-term cap leaves a proven tail of about 170,
        # which is then the tolerance; the detail must say so
        kernel = {r.name: r for r in mehler_demo_battery(F(99, 100), 6)}["kernel-vs-density"]
        assert kernel.detail.endswith(
            ", 160 terms, tolerance is the proven tail 1.729e+02 at the term cap"
        )

    def test_kernel_check_fails_where_the_tolerance_exceeds_every_value(self):
        # at rho = 99/100 the proven tail 172.9 is larger than the density
        # anywhere on the grid, so the check could not catch any kernel
        kernel = {r.name: r for r in mehler_demo_battery(F(99, 100), 10)}["kernel-vs-density"]
        assert kernel.passed is False

    def test_vacuous_kernel_check_fails_the_demo(self, capsys):
        assert main(["mehler-demo", "--rho=99/100", "--order", "10"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  kernel-vs-density" in out
        assert out.endswith("12/13 checks passed\n")

    def test_independent_pair_passes_every_check(self, capsys):
        # at rho = 0 the square-sum partials equal 1/(1 - rho^2) and
        # rho^n He_n vanishes for n >= 1
        assert main(["mehler-demo", "--rho=0", "--order", "4"]) == 0
        assert capsys.readouterr().out.endswith("13/13 checks passed\n")
