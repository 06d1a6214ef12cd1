import random
from fractions import Fraction as F
from itertools import accumulate
from math import comb, factorial, gcd, lcm
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poslab import moments
from poslab.errors import InsufficientMomentsError, ReportLimitError
from poslab.moments import (
    MomentSequence,
    PmReport,
    builtin,
    catalog_entries,
    carleman_partial,
    hankel_det,
    is_pm,
    moment_gf_eval,
    parse_catalog_key,
    pm_binomial_combine,
    pm_mixture,
    pm_product,
    pm_reflect,
    pm_sqrt_symmetrize,
    pm_subsample,
    shifted_hankel_det,
)
from poslab.moments import _recurrence
from poslab.rationals import rat_str
from tests_support import catalog_instances, chebyshev_battery, chebyshev_recurrence


def det_cofactor(rows):
    """Independent determinant oracle: direct cofactor expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = F(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_cofactor(minor)
    return total


def hankel_oracle(m, n):
    return det_cofactor([[m[i + j] for j in range(n + 1)] for i in range(n + 1)])


def ms(values, label=""):
    return MomentSequence(tuple(F(v) for v in values), label)


class TestHankelDet:
    def test_gaussian_order_one_is_identity_det(self):
        assert hankel_det(ms([1, 0, 1]), 1) == 1

    def test_order_zero_returns_first_moment(self):
        assert hankel_det(ms([7, 1, 1]), 0) == 7

    def test_catalan_3x3_matches_cofactor_oracle(self):
        cat = ms([1, 1, 2, 5, 14])
        assert hankel_det(cat, 2) == 1
        assert hankel_oracle(cat, 2) == 1

    def test_insufficient_moments(self):
        with pytest.raises(InsufficientMomentsError):
            hankel_det(ms([1, 0, 1]), 2)

    def test_agrees_with_cofactor_on_random_rationals(self):
        rng = random.Random(20240917)
        for _ in range(50):
            vals = [F(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(9)]
            seq = ms(vals)
            for n in range(5):
                assert hankel_det(seq, n) == hankel_oracle(seq, n)

    def test_agrees_with_cofactor_on_zero_heavy_windows(self):
        # entries from {-1, 0, 1} meet zero pivots often, so the row swaps run
        rng = random.Random(20251018)
        for _ in range(200):
            seq = ms([rng.choice((-1, 0, 0, 1)) for _ in range(10)])
            for n in range(5):
                assert hankel_det(seq, n) == hankel_oracle(seq, n)
                assert shifted_hankel_det(seq, n) == hankel_oracle(seq.values[1:], n)

    def test_shifted_det_indexing(self):
        seq = ms([1, 2, 3, 4])
        assert shifted_hankel_det(seq, 0) == 2
        assert shifted_hankel_det(seq, 1) == 2 * 4 - 3 * 3


class TestIsPm:
    def test_point_mass_rank_one(self):
        rep = is_pm(builtin("geometric", 6, 2), 2)
        assert rep.hankel_dets == (F(1), F(0), F(0))
        assert rep.is_pm and rep.is_pm_to_order == 2
        assert not rep.strictly_positive
        assert any("finite support" in note for note in rep.notes)

    def test_gaussian_strictly_positive_but_signed_support(self):
        rep = is_pm(builtin("gaussian", 7), 3)
        assert all(d > 0 for d in rep.hankel_dets)
        assert rep.strictly_positive
        # shifted determinant at order 1 is det[[0,1],[1,0]] = -1
        assert rep.shifted_dets[1] == -1
        assert not rep.nonneg_support

    def test_odd_first_moment_refutes(self):
        rep = is_pm(ms([0, 1, 0]), 1)
        assert rep.hankel_dets[1] == -1
        assert not rep.is_pm
        assert rep.is_pm_to_order == 0

    def test_never_claims_beyond_tested_order(self):
        rep = is_pm(builtin("gaussian", 9), 4)
        assert rep.order == 4
        assert rep.is_pm_to_order <= 4

    def test_insufficient(self):
        with pytest.raises(InsufficientMomentsError):
            is_pm(ms([1, 0, 1]), 3)


# zero-heavy signed rationals, so zero and negative pivots come up often
_entries = st.one_of(
    st.just(F(0)),
    st.sampled_from([F(1), F(-1)]),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)


@st.composite
def _battery_inputs(draw):
    order = draw(st.integers(0, 6))
    length = 2 * order + 1 + draw(st.integers(0, 1))
    return ms(draw(st.lists(_entries, min_size=length, max_size=length))), order


@st.composite
def _atomic_inputs(draw):
    """Moments of an r-atomic signed measure, flat past their zero minor Delta_r,
    or with one moment shifted so that the recurrence of pi_r breaks there."""
    atoms = draw(
        st.lists(st.tuples(st.integers(-4, 4), _entries.filter(bool)), max_size=4)
    )
    order = draw(st.integers(0, 7))
    length = 2 * order + 1 + draw(st.integers(0, 1))
    values = [sum((w * x**n for x, w in atoms), F(0)) for n in range(length)]
    if draw(st.booleans()):
        values[draw(st.integers(0, length - 1))] += draw(_entries.filter(bool))
    return ms(values), order


def _assert_battery_matches_bareiss(seq, order):
    rep = is_pm(seq, order)
    shifted_max = min(order, (len(seq) - 2) // 2)
    assert rep.hankel_dets == tuple(hankel_det(seq, k) for k in range(order + 1))
    assert rep.shifted_dets == tuple(shifted_hankel_det(seq, k) for k in range(shifted_max + 1))


class TestBatteryEngine:
    """is_pm's single pass against per-order Bareiss determinants."""

    @settings(max_examples=200, deadline=None)
    @given(_battery_inputs())
    def test_matches_per_order_determinants(self, case):
        _assert_battery_matches_bareiss(*case)

    @settings(max_examples=300, deadline=None)
    @given(_atomic_inputs())
    def test_matches_per_order_determinants_past_a_zero_minor(self, case):
        _assert_battery_matches_bareiss(*case)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_battery_inputs(), _atomic_inputs()), st.integers(1, 12))
    def test_integer_moments_over_any_common_denominator(self, case, extra):
        seq, order = case
        scale = lcm(*(v.denominator for v in seq.values)) * extra
        ints = [v.numerator * (scale // v.denominator) for v in seq.values]
        wide = MomentSequence._from_ints(ints, scale, seq.label)
        assert wide == seq and hash(wide) == hash(seq)
        assert wide.values == seq.values
        assert is_pm(wide, order) == is_pm(seq, order)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_battery_inputs(), _atomic_inputs()), st.integers(2, 9))
    @example((ms((1, 0, 0, 0, -1)), 2), 3)
    @example((ms((1, 1, 1, 1, 2)), 2), 3)
    def test_integer_reports_equal_the_fraction_route(self, case, divisor):
        # divided through, so the numerators sit over D^(k+1) with D > 1
        seq, order = MomentSequence(v / divisor for v in case[0].values), case[1]
        dets = [hankel_det(seq, k) for k in range(order + 1)]
        shifted = [shifted_hankel_det(seq, k) for k in range(min(order, (len(seq) - 2) // 2) + 1)]
        rep = is_pm(seq, order)
        doc = rep.to_json_dict()
        assert doc["hankel_dets"] == [rat_str(d) for d in dets]
        assert doc["shifted_dets"] == [rat_str(d) for d in shifted]
        # the constructor over the Bareiss determinants times D^(k+1)
        den = seq._den
        from_bareiss = PmReport(
            [int(d * den ** (k + 1)) for k, d in enumerate(dets)],
            [int(d * den ** (k + 1)) for k, d in enumerate(shifted)],
            den,
        )
        assert from_bareiss == rep and hash(from_bareiss) == hash(rep)
        assert from_bareiss.to_json_dict() == doc

    def test_flat_sequences_skip_the_per_order_fallback(self, monkeypatch):
        def no_fallback(m, k, shift):
            raise AssertionError(f"per-order determinant at order {k}")

        monkeypatch.setattr(moments, "_hankel_window", no_fallback)
        for seq in (builtin("geometric", 42, 2), builtin("fib_shift", 42), ms([0] * 42)):
            rep = is_pm(seq, 20)
            assert rep.hankel_dets[-1] == rep.shifted_dets[-1] == 0

    def test_non_flat_verdicts_are_unchanged(self):
        # m_4 breaks the recurrence of pi_1 in both; the zero dets are exact
        notes = ("zero Hankel determinant at order 1: finite support possible",)
        for values, shifted in (((1, 0, 0, 0, -1), (0, 0)), ((1, 1, 1, 1, 2), (1, 0))):
            rep = is_pm(ms(values), 2)
            assert rep.hankel_dets == (1, 0, 0) and rep.shifted_dets == shifted
            assert rep.is_pm_to_order == 2 and rep.notes == notes
            assert rep.nonneg_support and not rep.strictly_positive

    def test_closed_forms_at_order_80(self):
        def running_products(terms):
            return tuple(accumulate(terms, mul))

        rep = is_pm(builtin("catalan", 162), 80)
        assert rep.hankel_dets == rep.shifted_dets == (1,) * 81
        rep = is_pm(builtin("gaussian", 162), 80)
        assert rep.hankel_dets == running_products(factorial(k) for k in range(81))
        rep = is_pm(builtin("factorial", 162), 80)
        assert rep.hankel_dets == running_products(factorial(k) ** 2 for k in range(81))
        assert rep.shifted_dets == running_products(
            factorial(k) * factorial(k + 1) for k in range(81)
        )


def _catalog_prefix(key, param=None):
    return st.integers(1, 31).map(lambda n: builtin(key, n, param).values)


@st.composite
def _factorial_lowered(draw):
    """A prefix of n! with m_{2j} lowered past h_j = (j!)^2, so that d_j < 0."""
    j = draw(st.integers(0, 15))
    values = list(builtin("factorial", draw(st.integers(2 * j + 1, 31))).values)
    values[2 * j] -= factorial(j) ** 2 + draw(st.integers(1, 10**6))
    return tuple(values)


# early zero pivots (point masses, two-atom measures) and negative h_k
# (1, 0, -1, ...) come up among the random lists, and explicitly here; the
# integer moments of n! and (2k-1)!!, and 1/(n+1)^2 over its lcm, give step
# multipliers with a large common factor
_engine_inputs = st.one_of(
    st.lists(_entries, min_size=1, max_size=31).map(tuple),
    _catalog_prefix("geometric", F(2)),
    _catalog_prefix("geometric", F(-1, 3)),
    _catalog_prefix("fib_shift"),
    _catalog_prefix("factorial"),
    _catalog_prefix("gaussian"),
    _catalog_prefix("log_kernel", 1),
    _factorial_lowered(),
)


def _assert_engine_matches_oracle(values):
    seq = MomentSequence(values)
    h, a, b = chebyshev_recurrence(values)
    assert [F(p, q) for p, q in moments._chebyshev(seq._num)[1]] == a
    assert _recurrence(seq) == (h, a, b)
    for order in {(len(values) - 1) // 2, (len(values) - 2) // 2}:
        if order >= 0:
            rep = is_pm(seq, order)
            assert (rep.hankel_dets, rep.shifted_dets) == chebyshev_battery(seq, order)


class TestIntegerEngine:
    """The integer pass against Chebyshev's algorithm in Fractions."""

    @settings(max_examples=300, deadline=None)
    @given(_engine_inputs)
    @example(builtin("geometric", 9, F(2)).values)
    @example(builtin("fib_shift", 11).values)
    @example((F(1), F(0), F(-1), F(0), F(1), F(1, 2), F(-3, 7)))
    @example((F(2, 3),))
    @example((F(1), F(1), F(0), F(6), F(24)))  # m_2 = 2! lowered past h_1 = 1
    def test_matches_rational_chebyshev(self, values):
        _assert_engine_matches_oracle(values)

    def test_inputs_reach_zero_and_negative_pivots(self):
        h_geo = chebyshev_recurrence(builtin("geometric", 9, F(2)).values)[0]
        h_fib = chebyshev_recurrence(builtin("fib_shift", 11).values)[0]
        h_neg = chebyshev_recurrence((F(1), F(0), F(-1), F(0), F(1)))[0]
        assert h_geo[-1] == 0 and len(h_geo) == 2
        assert h_fib[-1] == 0 and len(h_fib) == 3
        assert h_neg[1] < 0

    def test_perturbed_mehler_grid_to_twelve(self):
        # conditional moments of Hermite order 8 with c_n = (1/2)^n + k/1000,
        # on the half-integer grid out to +-12, where d_2 turns negative
        from poslab.lancaster import LancasterProblem, moment_polynomials
        from poslab.orthopoly import hermite

        basis = hermite(8)
        grid = [F(j, 2) for j in range(-24, 25)]
        negative = 0
        for k in (-20, -7, 3, 20):
            coeffs = (F(1),) + tuple(F(1, 2**n) + F(k, 1000) for n in range(1, 9))
            family = moment_polynomials(LancasterProblem(basis, basis, coeffs)).ma
            for y in grid:
                values = tuple(p(y) for p in family)
                _assert_engine_matches_oracle(values)
                negative += is_pm(MomentSequence(values), 4).first_negative_order is not None
        assert negative > 0


class TestPmAlgebra:
    def test_product_of_point_masses(self):
        a = builtin("geometric", 5, 2)
        b = builtin("geometric", 5, 3)
        assert pm_product(a, b).values == builtin("geometric", 5, 6).values

    def test_product_catalan_gaussian(self):
        out = pm_product(builtin("catalan", 5), builtin("gaussian", 5))
        assert out.values == (F(1), F(0), F(2), F(0), F(42))
        assert is_pm(out, 2).is_pm

    def test_product_identity_element(self):
        a = builtin("catalan", 5)
        ones = builtin("geometric", 5, 1)
        assert pm_product(a, ones).values == a.values

    def test_product_length_mismatch(self):
        with pytest.raises(ValueError):
            pm_product(ms([1, 2]), ms([1, 2, 4]))

    def test_mixture_endpoints(self):
        a, b = builtin("catalan", 5), builtin("gaussian", 5)
        assert pm_mixture(a, b, F(1)).values == a.values
        assert pm_mixture(a, b, F(0)).values == b.values

    def test_mixture_halves_of_point_masses(self):
        a = builtin("geometric", 5, 0)
        b = builtin("geometric", 5, 2)
        out = pm_mixture(a, b, F(1, 2))
        assert out.values == (F(1), F(1), F(2), F(4), F(8))
        assert is_pm(out, 2).is_pm

    def test_mixture_weight_range(self):
        a = builtin("gaussian", 3)
        with pytest.raises(ValueError):
            pm_mixture(a, a, F(3, 2))

    def test_binomial_combine_degenerate_weights(self):
        a, b = builtin("catalan", 5), builtin("gaussian", 5)
        assert pm_binomial_combine(a, b, F(0), F(1)).values == b.values

    def test_binomial_combine_rotated_gaussian_is_gaussian(self):
        g = builtin("gaussian", 9)
        out = pm_binomial_combine(g, g, F(3, 5), F(4, 5), 1)
        assert out.values == g.values

    def test_binomial_combine_difference_of_identical_point_masses(self):
        a = builtin("geometric", 6, 1)
        out = pm_binomial_combine(a, a, F(1), F(1), -1)
        assert out.values == (F(1), F(0), F(0), F(0), F(0), F(0))

    def test_difference_zeroes_the_mean_for_any_normalized_sequence(self):
        for name in ("catalan", "factorial", "fib_shift"):
            a = builtin(name, 5)
            assert pm_binomial_combine(a, a, F(1), F(1), -1)[1] == 0
        rng = random.Random(5)
        for _ in range(20):
            a = ms([1] + [F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(4)])
            assert pm_binomial_combine(a, a, F(1), F(1), -1)[1] == 0

    def test_subsample(self):
        g = builtin("gaussian", 7)
        assert pm_subsample(g, 2).values == (F(1), F(1), F(3), F(15))
        assert pm_subsample(g, 1).values == g.values
        assert pm_subsample(builtin("geometric", 7, 2), 3).values == (F(1), F(8), F(64))

    def test_subsampled_gaussian_is_chi_square_moments(self):
        # E[Z^{2n}] = (2n-1)!! are the chi-square(1) moments; still pm
        out = pm_subsample(builtin("gaussian", 13), 2)
        assert is_pm(out, 3).is_pm

    def test_reflect(self):
        assert pm_reflect(builtin("gaussian", 6)).values == builtin("gaussian", 6).values
        assert pm_reflect(ms([1, 2, 4, 8])).values == (F(1), F(0), F(4), F(0))
        assert pm_reflect(ms([1, 1, 2, 5])).values == (F(1), F(0), F(2), F(0))

    def test_reflected_point_mass_loses_nonneg_support(self):
        out = pm_reflect(builtin("geometric", 4, 2))
        rep = is_pm(out, 1)
        assert rep.is_pm
        assert rep.shifted_dets[1] == -16
        assert not rep.nonneg_support

    def test_sqrt_symmetrize(self):
        assert pm_sqrt_symmetrize(ms([1, 1, 3])).values == (F(1), F(0), F(1), F(0), F(3))
        assert pm_sqrt_symmetrize(ms([1])).values == (F(1),)
        out = pm_sqrt_symmetrize(builtin("geometric", 3, 4))
        assert out.values == pm_reflect(builtin("geometric", 5, 2)).values

    def test_sqrt_symmetrize_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            pm_sqrt_symmetrize(ms([1, -1, 3]))


def _fib(n):
    """F_n of the classical chain F_0 = 0, F_1 = 1."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


# (key, parameter, label, closed form of m_n)
CATALOG_CLOSED_FORMS = (
    ("geometric", F(0), "geometric(0)", lambda n: F(0) ** n),
    ("geometric", F(2), "geometric(2)", lambda n: F(2) ** n),
    ("geometric", F(-2, 7), "geometric(-2/7)", lambda n: F(-2, 7) ** n),
    # (n-1)!! = n! / (2^(n/2) (n/2)!) for even n
    (
        "gaussian",
        None,
        "gaussian",
        lambda n: F(0) if n % 2 else F(factorial(n), 2 ** (n // 2) * factorial(n // 2)),
    ),
    ("catalan", None, "catalan", lambda n: F(comb(2 * n, n), n + 1)),
    ("factorial", None, "factorial", lambda n: F(factorial(n))),
    ("log_kernel", 0, "log_kernel(0)", lambda n: F(1, n + 1)),
    ("log_kernel", 1, "log_kernel(1)", lambda n: F(1, (n + 1) ** 2)),
    ("log_kernel", 3, "log_kernel(3)", lambda n: F(1, (n + 1) ** 4)),
    ("fib_shift", None, "fib_shift", lambda n: F(_fib(n + 1))),
    ("fib_ratio", None, "fib_ratio", lambda n: F(_fib(n + 1), n + 1)),
    ("fib_even", None, "fib_even", lambda n: F(_fib(2 * n + 2), n + 1)),
    ("fib_odd", None, "fib_odd", lambda n: F(_fib(2 * n + 1), n + 1)),
    ("fib_scaled", None, "fib_scaled", lambda n: F(_fib(n + 1), 3**n)),
)


class TestCatalog:
    def test_closed_forms_cover_every_entry(self):
        assert {key for key, *_ in CATALOG_CLOSED_FORMS} == {e.name for e in catalog_entries()}

    @pytest.mark.parametrize("length", (1, 2, 31))
    @pytest.mark.parametrize(
        "key, param, label, closed", CATALOG_CLOSED_FORMS, ids=[c[2] for c in CATALOG_CLOSED_FORMS]
    )
    def test_entries_are_their_closed_forms_in_lowest_terms(
        self, key, param, label, closed, length
    ):
        seq = builtin(key, length, param)
        assert seq.values == tuple(closed(n) for n in range(length))
        assert seq.label == label
        assert seq._den > 0 and gcd(seq._den, *seq._num) == 1

    @pytest.mark.parametrize(
        "key, param, message",
        (
            ("log_kernel", -1, "log_kernel parameter must exceed -1, got -1"),
            ("log_kernel", F(-3, 2), "log_kernel parameter must exceed -1, got -3/2"),
            (
                "log_kernel",
                F(1, 2),
                "log_kernel parameter must be an integer for the moments to stay rational, got 1/2",
            ),
            ("geometric", None, "catalog sequence 'geometric' needs parameter a"),
            ("log_kernel", None, "catalog sequence 'log_kernel' needs parameter k"),
            ("catalan", 1, "catalog sequence 'catalan' takes no parameter"),
        ),
    )
    def test_bad_parameters_are_refused(self, key, param, message):
        with pytest.raises(ValueError) as err:
            builtin(key, 4, param)
        assert str(err.value) == message

    def test_gaussian_prefix(self):
        assert builtin("gaussian", 7).values == (F(1), F(0), F(1), F(0), F(3), F(0), F(15))

    def test_catalan_prefix(self):
        assert builtin("catalan", 5).values == (F(1), F(1), F(2), F(5), F(14))

    def test_fib_shift_prefix(self):
        assert builtin("fib_shift", 6).values == (F(1), F(1), F(2), F(3), F(5), F(8))

    def test_factorial_prefix(self):
        assert builtin("factorial", 5).values == (F(1), F(1), F(2), F(6), F(24))

    def test_log_kernel(self):
        assert builtin("log_kernel", 4, 1).values == (F(1), F(1, 4), F(1, 9), F(1, 16))
        with pytest.raises(ValueError):
            builtin("log_kernel", 4, -1)
        with pytest.raises(ValueError):
            builtin("log_kernel", 4, F(1, 2))  # non-integer exponent breaks exactness

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            builtin("lucas", 4)

    def test_missing_parameter(self):
        with pytest.raises(ValueError):
            builtin("geometric", 4)

    def test_every_entry_passes_is_pm_to_order_five(self):
        for seq in catalog_instances(13):
            rep = is_pm(seq, 5)
            assert rep.is_pm, f"{seq.label}: {rep.hankel_dets}"

    def test_parse_catalog_key(self):
        assert parse_catalog_key("catalan") == ("catalan", None)
        assert parse_catalog_key("geometric(2)") == ("geometric", F(2))
        assert parse_catalog_key("log_kernel(1/2)") == ("log_kernel", F(1, 2))
        with pytest.raises(ValueError):
            parse_catalog_key("geometric(2")


class TestClosureBattery:
    """Products, mixtures, combinations, subsamples, and reflections of
    catalog sequences all stay pm at order 5."""

    def test_binary_closure_over_all_pairs(self):
        seqs = catalog_instances(11)
        for a in seqs:
            for b in seqs:
                assert is_pm(pm_product(a, b), 5).is_pm
                assert is_pm(pm_mixture(a, b, F(1, 2)), 5).is_pm
                combo = pm_binomial_combine(a, b, F(3, 5), F(4, 5))
                assert is_pm(combo, 5).is_pm, f"{a.label} x {b.label}"

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_closure_over_random_finite_measures(self, data):
        # moments of random finite positive measures: rational atoms, positive
        # weights; with few atoms the Hankel battery meets exact zero minors
        nonneg = data.draw(st.booleans())
        points = st.fractions(min_value=0 if nonneg else -3, max_value=3, max_denominator=4)
        weights = st.fractions(min_value=F(1, 8), max_value=2, max_denominator=8)
        measure = st.lists(st.tuples(points, weights), min_size=1, max_size=5)

        def moments_of(atoms):
            return MomentSequence(tuple(sum(w * x**n for x, w in atoms) for n in range(9)))

        a, b = moments_of(data.draw(measure)), moments_of(data.draw(measure))
        unit = st.fractions(min_value=0, max_value=1, max_denominator=9)
        p, alpha, beta = data.draw(unit), data.draw(unit), data.draw(unit)
        sign = 1 if nonneg else data.draw(st.sampled_from([1, -1]))
        for seq in (
            pm_product(a, b), pm_mixture(a, b, p), pm_binomial_combine(a, b, alpha, beta, sign)
        ):
            rep = is_pm(seq, 4)
            assert rep.is_pm, rep.hankel_dets
            # measures on [0, inf) stay there under all three operations
            assert rep.nonneg_support or not nonneg, rep.shifted_dets

    def test_unary_closure(self):
        for seq in catalog_instances(21):
            assert is_pm(pm_subsample(seq, 2), 5).is_pm
            assert is_pm(pm_reflect(seq), 5).is_pm

    def test_geometric_hankel_collapses_at_every_positive_order(self):
        for a in (F(2), F(-3), F(1, 2)):
            seq = builtin("geometric", 13, a)
            for n in range(1, 6):
                assert hankel_det(seq, n) == 0


class TestDiagnostics:
    def test_carleman_gaussian_first_term(self):
        g = builtin("gaussian", 3)
        assert carleman_partial(g, 1) == 1

    def test_carleman_gaussian_four_terms(self):
        # 1 + 3^(-1/4) + 15^(-1/6) + 105^(-1/8), evaluated independently
        val = float(carleman_partial(builtin("gaussian", 9), 4))
        expected = 1 + 3 ** (-1 / 4) + 15 ** (-1 / 6) + 105 ** (-1 / 8)
        assert val == pytest.approx(expected, abs=1e-12)
        assert val == pytest.approx(2.956, abs=1e-3)

    def test_carleman_all_ones(self):
        seq = builtin("geometric", 13, 1)
        for n in (1, 3, 6):
            assert carleman_partial(seq, n) == n

    def test_carleman_rejects_nonpositive_even_moment(self):
        with pytest.raises(ValueError):
            carleman_partial(ms([1, 1, 0]), 1)

    def test_gf_at_zero_is_first_moment(self):
        assert moment_gf_eval(builtin("catalan", 5), F(0), 5) == 1

    def test_gf_gaussian_approaches_exp_half(self):
        import math

        val = float(moment_gf_eval(builtin("gaussian", 20), F(1), 20))
        assert val == pytest.approx(math.exp(0.5), abs=1e-9)

    def test_gf_point_mass_approaches_exp_at(self):
        import math

        val = float(moment_gf_eval(builtin("geometric", 30, 2), F(1, 2), 30))
        assert val == pytest.approx(math.exp(1.0), abs=1e-9)

    def test_diagnostics_are_floats(self):
        assert type(carleman_partial(builtin("gaussian", 9), 4)) is float
        assert type(moment_gf_eval(builtin("gaussian", 20), F(1), 20)) is float

    def test_diagnostics_past_the_float_range_raise(self):
        # sum_{n<400} 10^n is about 1.1e399
        with pytest.raises(ReportLimitError, match="float range"):
            moment_gf_eval(builtin("factorial", 400), 10, 400)
        # m_2^(-1/2) = 10^350
        with pytest.raises(ReportLimitError, match="float range"):
            carleman_partial(ms([1, 0, F(1, 10**700)]), 1)

    def test_gf_requires_enough_moments(self):
        with pytest.raises(InsufficientMomentsError):
            moment_gf_eval(builtin("gaussian", 5), F(1), 6)


class TestMomentSequence:
    def test_normalized_flag_tracks_first_value(self):
        assert ms([1, 5]).normalized
        assert not ms([2, 5]).normalized

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MomentSequence(())
        with pytest.raises(ValueError):
            builtin("catalan", 3).prefix(0)

    def test_prefix_rejects_a_negative_length(self):
        assert builtin("catalan", 5).prefix(1).values == (F(1),)
        with pytest.raises(ValueError, match="order-0 moment"):
            builtin("catalan", 5).prefix(-1)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            MomentSequence((0.5, 1))

    def test_exactness_of_arithmetic(self):
        a = F(1, 3) + F(1, 6)
        assert (a + F(2, 7)) - F(2, 7) == a
