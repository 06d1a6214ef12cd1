import random
from fractions import Fraction as F
from itertools import accumulate
from math import factorial
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poslab.errors import InsufficientMomentsError
from poslab.moments import (
    MomentSequence,
    builtin,
    carleman_partial,
    catalog_entries,
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


class TestBatteryEngine:
    """is_pm's single pass against per-order Bareiss determinants."""

    @settings(max_examples=200, deadline=None)
    @given(_battery_inputs())
    def test_matches_per_order_determinants(self, case):
        seq, order = case
        rep = is_pm(seq, order)
        shifted_max = min(order, (len(seq) - 2) // 2)
        assert rep.hankel_dets == tuple(hankel_det(seq, k) for k in range(order + 1))
        assert rep.shifted_dets == tuple(
            shifted_hankel_det(seq, k) for k in range(shifted_max + 1)
        )

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


class TestCatalog:
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
        for seq in _catalog_instances(13):
            rep = is_pm(seq, 5)
            assert rep.is_pm, f"{seq.label}: {rep.hankel_dets}"

    def test_parse_catalog_key(self):
        assert parse_catalog_key("catalan") == ("catalan", None)
        assert parse_catalog_key("geometric(2)") == ("geometric", F(2))
        assert parse_catalog_key("log_kernel(1/2)") == ("log_kernel", F(1, 2))
        with pytest.raises(ValueError):
            parse_catalog_key("geometric(2")


def _catalog_instances(length):
    out = []
    for entry in catalog_entries():
        if entry.name == "geometric":
            out.append(builtin("geometric", length, 2))
        elif entry.name == "log_kernel":
            out.append(builtin("log_kernel", length, 1))
        else:
            out.append(builtin(entry.name, length))
    return out


class TestClosureBattery:
    """Products, mixtures, combinations, subsamples, and reflections of
    catalog sequences all stay pm at order 5."""

    def test_binary_closure_over_all_pairs(self):
        seqs = _catalog_instances(11)
        for a in seqs:
            for b in seqs:
                assert is_pm(pm_product(a, b), 5).is_pm
                assert is_pm(pm_mixture(a, b, F(1, 2)), 5).is_pm
                combo = pm_binomial_combine(a, b, F(3, 5), F(4, 5))
                assert is_pm(combo, 5).is_pm, f"{a.label} x {b.label}"

    def test_unary_closure(self):
        for seq in _catalog_instances(21):
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

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            MomentSequence((0.5, 1))

    def test_exactness_of_arithmetic(self):
        a = F(1, 3) + F(1, 6)
        assert (a + F(2, 7)) - F(2, 7) == a
