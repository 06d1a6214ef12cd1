from fractions import Fraction as F
from math import log

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poslab.errors import InsufficientMomentsError
from poslab.moments import MomentSequence, PmReport, builtin
from poslab.orthopoly import Polynomial, basis_from_moments, hermite
from poslab.positivity import (
    CERTIFIED,
    DEGENERATE,
    REFUTED,
    OrthogonalSeries,
    PositivityCertificate,
    certify_positive,
    coefficients_from_moments,
    kernel_projection,
    log_weighted_partials,
    moments_from_coefficients,
    rademacher_menshov_partials,
)
from tests_support import catalog_instances, halved_hermite, rescaled, solve_lower_by_fractions


@pytest.fixture(scope="module")
def hermite8():
    return hermite(8)


@pytest.fixture(scope="module")
def catalan8():
    return basis_from_moments(builtin("catalan", 17), 8)


# every catalog family to order 8 (the finite-support ones stop early), and a
# family that is not monic
ROUND_TRIP_BASES = [
    basis_from_moments(seq, 8, allow_truncation=True) for seq in catalog_instances(17)
] + [halved_hermite(8)]


class TestMomentRecovery:
    def test_unit_series_recovers_the_base_measure(self, hermite8):
        series = OrthogonalSeries(hermite8, (F(1),))
        assert moments_from_coefficients(series).values == builtin("gaussian", 9).values

    def test_single_odd_coefficient_gives_x_weighted_moments(self, hermite8):
        series = OrthogonalSeries(hermite8, (F(0), F(1), F(0)))
        recovered = moments_from_coefficients(series)
        # integral of x^n * x against the Gaussian: shifted odd double factorials
        assert recovered.values[:6] == (F(0), F(1), F(0), F(3), F(0), F(15))

    def test_mehler_coefficients_recover_conditional_normal_moments(self, hermite8):
        from tests_support import normal_moments

        rho, y = F(1, 2), F(1)
        cs = tuple(rho**n * hermite8.polys[n](y) / hermite8.norms[n] for n in range(9))
        recovered = moments_from_coefficients(OrthogonalSeries(hermite8, cs))
        assert recovered.values == normal_moments(rho * y, 1 - rho * rho, 9).values

    def test_coefficients_from_own_measure_are_delta(self, hermite8):
        cs = coefficients_from_moments(hermite8, builtin("gaussian", 9))
        assert cs == (F(1),) + (F(0),) * 8

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, len(ROUND_TRIP_BASES) - 1),
        st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=30), max_size=9),
    )
    def test_inverse_pair_round_trip(self, index, coeffs):
        basis = ROUND_TRIP_BASES[index]
        series = OrthogonalSeries(basis, coeffs[: basis.order + 1])
        back = coefficients_from_moments(basis, moments_from_coefficients(series))
        assert back == series.padded_coeffs()

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_recovery_matches_the_fraction_substitution(self, data):
        base = data.draw(st.sampled_from(ROUND_TRIP_BASES))
        size = base.order + 1
        fractions = st.fractions(min_value=-50, max_value=50, max_denominator=30)
        scales = data.draw(st.lists(fractions.filter(bool), min_size=size, max_size=size))
        basis = rescaled(base, scales)  # leading coefficients of either sign
        series = OrthogonalSeries(basis, data.draw(st.lists(fractions, max_size=size)))
        rhs = [c * h for c, h in zip(series.padded_coeffs(), basis.norms)]
        want = tuple(solve_lower_by_fractions(basis.polys, rhs))
        assert moments_from_coefficients(series).values == want

    def test_insufficient_target_moments(self, hermite8):
        with pytest.raises(InsufficientMomentsError):
            coefficients_from_moments(hermite8, builtin("gaussian", 5))


class TestCertify:
    def test_trivial_series_certifies_with_base_moments(self, hermite8):
        cert = certify_positive(OrthogonalSeries(hermite8, (F(1),)), 3)
        assert cert.verdict.status == "certified"
        assert cert.verdict.label == "certified-to-order 3"
        assert cert.recovered_moments.values[:7] == builtin("gaussian", 7).values

    def test_odd_control_is_refuted_at_order_one(self, hermite8):
        cert = certify_positive(OrthogonalSeries(hermite8, (F(0), F(1), F(0))), 1)
        assert cert.verdict.status == "refuted"
        assert cert.verdict.order == 1
        assert cert.pm_report.hankel_dets == (F(0), F(-1))

    def test_refutation_matches_a_pointwise_negative_value(self, hermite8):
        # sanity cross-check: the truncated series itself dips negative
        series = OrthogonalSeries(hermite8, (F(0), F(1), F(0)))
        assert series.partial_sum()(F(-1)) < 0

    def test_mehler_instance_certifies_to_order_four(self, hermite8):
        rho = F(1, 2)
        for y in (F(-2), F(-1), F(0), F(1), F(2)):
            cs = tuple(rho**n * hermite8.polys[n](y) / hermite8.norms[n] for n in range(9))
            cert = certify_positive(OrthogonalSeries(hermite8, cs), 4)
            assert cert.verdict.status == "certified"
            assert cert.pm_report.strictly_positive

    def test_degenerate_verdict_on_point_mass_recovery(self, hermite8):
        # coefficients of the point mass at 0: recovered moments [1,0,0,...]
        cs = coefficients_from_moments(hermite8, builtin("geometric", 9, 0))
        cert = certify_positive(OrthogonalSeries(hermite8, cs), 2)
        assert cert.verdict.status == "degenerate"
        assert cert.verdict.order == 1
        assert any("finite support" in note for note in cert.verdict.notes)

    def test_catalog_measures_always_certify(self, hermite8):
        # infinite-support catalog measures certify outright
        for name in ("gaussian", "catalan", "factorial", "fib_ratio"):
            nu = builtin(name, 9)
            cs = coefficients_from_moments(hermite8, nu)
            cert = certify_positive(OrthogonalSeries(hermite8, cs), 4)
            assert cert.verdict.status == "certified"
            assert cert.recovered_moments.values == nu.values
        # a finite-support one comes back degenerate, never refuted
        nu = builtin("geometric", 9, 2)
        cert = certify_positive(
            OrthogonalSeries(hermite8, coefficients_from_moments(hermite8, nu)), 4
        )
        assert cert.verdict.status == "degenerate"
        assert cert.pm_report.is_pm

    def test_a_negative_order_is_refused_in_the_batterys_words(self, hermite8):
        with pytest.raises(ValueError, match="^max_order must be nonnegative$"):
            certify_positive(OrthogonalSeries(hermite8, (F(1),)), -1)

    def test_certification_order_needs_basis_depth(self, hermite8):
        with pytest.raises(InsufficientMomentsError):
            certify_positive(OrthogonalSeries(hermite8, (F(1),)), 5)


ZERO_NOTE = "zero Hankel determinant at order {}: finite support possible"

# The sign pattern of the Hankel determinants decides every verdict, in
# PmReport alone: (dets, first negative, first zero before any negative,
# pm to order, PmReport notes, certificate verdict, its order and note).
VERDICT_TABLE = [
    ((1, -1, 0), 1, None, 0, (), REFUTED, 1, "necessary condition violated: d_1 < 0"),
    ((1, 0, -1), 2, 1, 1, (ZERO_NOTE.format(1),), REFUTED, 2,
     "necessary condition violated: d_2 < 0"),
    ((1, 0, 0), None, 1, 2, (ZERO_NOTE.format(1),), DEGENERATE, 1,
     "d_1 = 0: the limit measure may have finite support; not a refutation"),
    ((2, 1), None, None, 1, (), CERTIFIED, 1, None),
]


@pytest.mark.parametrize("row", VERDICT_TABLE, ids=lambda row: str(row[0]))
def test_verdicts_are_read_off_the_determinants(row):
    dets, negative, zero, pm_order, notes, verdict, verdict_order, cert_note = row
    dets = tuple(F(d) for d in dets)
    # integer numerators over den = 2: d_k times 2^(k+1), and the shifted 3 and -1/2
    report = PmReport([int(d * 2 ** (k + 1)) for k, d in enumerate(dets)], (6, -2), 2)
    assert report.first_negative_order == negative
    assert report.first_zero_order == zero
    assert report.strictly_positive == (negative is None and zero is None)
    assert report.nonneg_support is False
    assert report.is_pm_to_order == pm_order
    assert report.is_pm == (negative is None)
    assert report.verdict.notes == notes
    assert report.to_json_dict() == {
        "hankel_dets": [f"{d.numerator}/{d.denominator}" for d in dets],
        "shifted_dets": ["3/1", "-1/2"],
        "is_pm_to_order": pm_order,
        "strictly_positive": negative is None and zero is None,
        "nonneg_support": False,
        "notes": list(notes),
    }

    cert = PositivityCertificate(MomentSequence((F(1),)), report, ())
    assert (cert.verdict.status, cert.verdict.order) == (verdict, verdict_order)
    assert cert.verdict.notes == (() if cert_note is None else (cert_note,))
    label = {CERTIFIED: "certified-to-order", REFUTED: "refuted-at-order",
             DEGENERATE: "degenerate-at-order"}[verdict]
    assert cert.verdict.label == f"{label} {verdict_order}"


class TestRmDiagnostic:
    def test_unit_series_has_zero_partials(self, hermite8):
        assert rademacher_menshov_partials(OrthogonalSeries(hermite8, (F(1),))) == (0.0,)

    def test_geometric_coefficients_level_off_under_the_term_bound(self, hermite8):
        cs = tuple(F(1, 2) ** n for n in range(9))
        partials = rademacher_menshov_partials(OrthogonalSeries(hermite8, cs))
        bound = sum(float(F(1, 4) ** n * hermite8.norms[n]) * log(n + 1) ** 2 for n in range(9))
        assert all(partials[i] <= partials[i + 1] for i in range(len(partials) - 1))
        assert partials[-1] <= bound + 1e-12

    def test_harmonic_log_partials_keep_growing(self):
        partials = log_weighted_partials(F(1, n + 1) for n in range(10_000))
        # divergent series: the tail increments stay visible at every scale
        assert partials[9_999] > partials[999] + 100
        assert partials[999] > partials[99] + 50


class TestKernelProjection:
    def test_constant_is_fixed(self, hermite8):
        out = kernel_projection(hermite8, Polynomial.one(), 0)
        assert out.image == Polynomial.one()
        assert not out.lossy

    def test_cube_is_reproduced_exactly(self, hermite8):
        out = kernel_projection(hermite8, Polynomial.monomial(3), 3)
        assert out.image == Polynomial.monomial(3)
        assert not out.lossy

    def test_truncation_drops_the_top_component(self, hermite8):
        out = kernel_projection(hermite8, Polynomial.monomial(3), 2)
        assert out.image == Polynomial((F(0), F(3)))
        assert out.lossy

    def test_identity_on_low_degrees(self, hermite8, catalan8):
        for basis in (hermite8, catalan8):
            for k in range(7):
                out = kernel_projection(basis, Polynomial.monomial(k), 6)
                assert out.image == Polynomial.monomial(k)

    def test_lossy_projection_is_idempotent(self, hermite8):
        first = kernel_projection(hermite8, Polynomial.monomial(5), 2)
        second = kernel_projection(hermite8, first.image, 2)
        assert second.image == first.image
        assert not second.lossy


class TestSeriesValidation:
    def test_coefficient_overflow_rejected(self, hermite8):
        with pytest.raises(ValueError):
            OrthogonalSeries(hermite8, tuple(F(1) for _ in range(10)))

    def test_partial_sum_polynomial(self, hermite8):
        series = OrthogonalSeries(hermite8, (F(1), F(0), F(1, 2)))
        assert series.partial_sum() == Polynomial((F(1, 2), F(0), F(1, 2)))
