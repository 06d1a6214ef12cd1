from fractions import Fraction as F
from math import comb, factorial, gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poslab import orthopoly
from poslab.errors import (
    DegenerateMeasureError,
    InsufficientMomentsError,
    RecurrenceError,
    SchemaError,
)
from poslab.moments import MomentSequence, builtin, parse_catalog_key
from poslab.orthopoly import (
    ConnectionMatrix,
    OrthoBasis,
    Polynomial,
    _family,
    _hermite_addition_sides,
    _solve_lower,
    basis_from_moments,
    connection,
    hermite,
    hermite_addition_holds,
    hermite_addition_sides,
    squared_norms,
    three_term,
)
from poslab.rationals import double_factorial, lowest_terms, over_lcm, rat_str
from tests_support import (
    catalog_instances,
    combination_by_polynomial_ops,
    expand_by_polynomial_ops,
    family_by_polynomial_ops,
    halved_hermite,
    rescaled,
    solve_lower_by_fractions,
)


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

    def test_monomial_rejects_a_negative_power(self):
        assert Polynomial.monomial(0, F(2, 3)).coeffs == (F(2, 3),)
        with pytest.raises(ValueError, match="nonnegative power"):
            Polynomial.monomial(-1)

    def test_arithmetic_evaluates_consistently(self):
        p = Polynomial((F(1), F(-2), F(3)))
        q = Polynomial((F(0), F(1)))
        for x in (F(0), F(2), F(-5, 3)):
            assert (p + q)(x) == p(x) + q(x)
            assert (p * q)(x) == p(x) * q(x)
            assert (3 * p)(x) == 3 * p(x)

    def test_horner_evaluation(self):
        p = Polynomial((F(3), F(0), F(-1), F(1)))  # 3 - x^2 + x^3
        assert p(F(2)) == 3 - 4 + 8
        assert p(F(0)) == 3

    def test_str_rendering(self):
        assert str(Polynomial((F(-1), F(0), F(1)))) == "x^2 - 1"
        assert str(Polynomial((F(0), F(-3), F(0), F(1)))) == "x^3 - 3*x"


def ref_trim(cs):
    """Reference list-of-Fraction polynomial: constant first, no trailing zeros."""
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_add(a, b, sign=1):
    n = max(len(a), len(b))
    a, b = list(a) + [F(0)] * (n - len(a)), list(b) + [F(0)] * (n - len(b))
    return ref_trim(u + sign * v for u, v in zip(a, b))


def ref_mul(a, b):
    out = [F(0)] * max(len(a) + len(b) - 1, 0)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return ref_trim(out)


def ref_eval(a, x):
    return sum((c * x**i for i, c in enumerate(a)), F(0))


rationals = st.fractions(min_value=-40, max_value=40, max_denominator=36)
coeff_lists = st.lists(st.one_of(st.just(F(0)), rationals), max_size=7)


def assert_canonical(p):
    """Integer numerators over the least common denominator, no trailing zeros."""
    assert all(isinstance(c, F) for c in p.coeffs)
    assert not p.coeffs or p.coeffs[-1] != 0
    assert p._den == lcm(*(c.denominator for c in p.coeffs))
    assert gcd(p._den, *p._num) == 1
    assert p.coeffs == tuple(F(v, p._den) for v in p._num)


class TestPolynomialAgainstFractionReference:
    @settings(max_examples=200, deadline=None)
    @given(coeff_lists, coeff_lists, rationals, st.integers(-30, 30), rationals)
    def test_operations_match_the_reference(self, a, b, r, k, x):
        p, q = Polynomial(a), Polynomial(b)
        cases = [
            (p + q, ref_add(a, b)),
            (p - q, ref_add(a, b, -1)),
            (-p, ref_trim(-c for c in a)),
            (p * q, ref_mul(a, b)),
            (r * p, ref_trim(r * c for c in a)),
            (p * r, ref_trim(r * c for c in a)),
            (k * p, ref_trim(k * c for c in a)),
        ]
        for got, want in cases:
            assert got.coeffs == want
            assert got.degree == len(want) - 1
            assert_canonical(got)
        assert p(x) == ref_eval(a, x)
        assert p(k) == ref_eval(a, F(k))
        assert p(str(x)) == ref_eval(a, x)
        assert (p * q)(x) == p(x) * q(x)

    @settings(max_examples=200, deadline=None)
    @given(coeff_lists, coeff_lists, st.integers(1, 50), st.integers(0, 3))
    def test_canonical_form(self, a, b, scale, pad):
        p = Polynomial(a)
        assert_canonical(p)
        assert p.coeffs == ref_trim(a)
        # the same polynomial reached through other denominators
        unreduced = Polynomial(
            [f"{c.numerator * scale}/{c.denominator * scale}" for c in a] + ["0"] * pad
        )
        q = Polynomial(b)
        for other in (unreduced, (p + q) - q, (p * F(scale, 7)) * F(7, scale)):
            assert other == p and hash(other) == hash(p)
            assert other.coeffs == p.coeffs
            assert_canonical(other)
        zero = p - p
        assert zero.is_zero and zero.degree == -1 and zero.coeffs == ()
        assert zero == Polynomial() == Polynomial([F(0)] * pad)
        assert hash(zero) == hash(Polynomial())

    @given(coeff_lists, st.floats(allow_nan=False, allow_infinity=False))
    def test_floats_are_rejected(self, a, value):
        p = Polynomial(a)
        with pytest.raises(TypeError):
            Polynomial(list(a) + [value])
        with pytest.raises(TypeError):
            p(value)
        with pytest.raises(TypeError):
            p * value


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
        bases = [basis_from_moments(seq, 8, allow_truncation=True) for seq in catalog_instances(17)]
        # non-monic: He_n / 2^n, and s_n He_n with p_0 = 3/2
        bases += [halved_hermite(8), rescaled(hermite(8), [F(3, n + 2) for n in range(9)])]
        for basis in bases:
            assert three_term(basis) == basis.recurrence, basis.source_moments.label

    def test_catalan_triple_at_one(self):
        basis = basis_from_moments(builtin("catalan", 9), 4)
        assert basis.recurrence[1] == (F(1), F(-2), F(1))

    def test_symmetric_measures_have_zero_b(self):
        basis = basis_from_moments(builtin("gaussian", 17), 8)
        assert all(b == 0 for _, b, _ in three_term(basis))

    def test_resynthesis_reproduces_basis(self):
        basis = basis_from_moments(builtin("factorial", 17), 8)
        assert tuple(family_by_polynomial_ops(basis.polys[0], basis.recurrence)) == basis.polys

    def test_non_orthogonal_family_is_rejected(self):
        # 1, x, x^2 + x + 1 follow these triples, but C_1 A_1 A_0 < 0: no positive norms fit
        doc = {
            "moments": builtin("gaussian", 5).to_json_dict(),
            "pi": [["1/1"], ["0/1", "1/1"], ["1/1", "1/1", "1/1"]],
            "norms": ["1/1", "1/1", "1/1"],
            "recurrence": [["1/1", "0/1", "0/1"], ["1/1", "1/1", "-1/1"]],
        }
        rule = "squared norm at order 1 does not follow from the recurrence"
        with pytest.raises(SchemaError, match=rf"^\$: {rule}"):
            OrthoBasis.from_json_dict(doc)
        with pytest.raises(RecurrenceError, match=f"^{rule}"):
            OrthoBasis(doc["norms"], doc["recurrence"], builtin("gaussian", 5))


small = st.fractions(min_value=-9, max_value=9, max_denominator=12)
nonzero = small.filter(bool)


@st.composite
def families(draw, max_order=7):
    """(p_0, triples) of a non-monic family: C_n A_n A_(n-1) > 0 and p_0 != 1."""
    p0 = draw(nonzero.filter(lambda v: v != 1))
    triples = []
    for n in range(draw(st.integers(0, max_order))):
        a, b, c = draw(nonzero), draw(small), draw(small if n == 0 else nonzero)
        if n and c * a * triples[-1][0] < 0:
            c = -c
        triples.append((a, b, c))
    return Polynomial((p0,)), tuple(triples)


def family_basis(p0, triples):
    # the norms the recurrence fixes, h_n = C_n A_(n-1) h_(n-1) / A_n, from h_0 = 1
    norms = [F(1)]
    for n in range(1, len(triples)):
        a, _, c = triples[n]
        norms.append(c * triples[n - 1][0] * norms[-1] / a)
    norms += [F(1)] * (len(triples) + 1 - len(norms))  # h_N is free
    return OrthoBasis(norms, triples, builtin("gaussian", 1), p0=p0.coefficient(0))


class TestOneBuild:
    """A basis is built from its recurrence once: one :func:`_family` pass per construction,
    and the pi rows of a file are compared with that build, not rebuilt."""

    def test_each_construction_runs_the_recurrence_once(self, monkeypatch):
        doc = basis_from_moments(builtin("catalan", 13), 6).to_json_dict()
        calls = []

        def counted(*args):
            calls.append(args)
            return _family(*args)

        monkeypatch.setattr(orthopoly, "_family", counted)
        builds = {
            "basis_from_moments": lambda: basis_from_moments(builtin("catalan", 13), 6),
            "hermite": lambda: hermite(6),
            "from_json_dict": lambda: OrthoBasis.from_json_dict(doc),
        }
        for name, build in builds.items():
            calls.clear()
            assert build().order == 6
            assert len(calls) == 1, name

    @settings(max_examples=100, deadline=None)
    @given(families())
    def test_json_round_trip_of_any_family(self, family):
        basis = family_basis(*family)
        again = OrthoBasis.from_json_dict(basis.to_json_dict())
        assert again == basis and again.polys == basis.polys
        assert again.p0 == basis.p0 != 1


class TestFusedStepsAgainstPolynomialOps:
    """The integer steps of the recurrence and the connection check
    against the same steps taken with Polynomial arithmetic."""

    @settings(max_examples=100, deadline=None)
    @given(nonzero, st.lists(st.tuples(small, small, small), max_size=7))
    def test_family_on_any_triples(self, p0, triples):
        # A_n = 0 is drawn too, so a step can lower the degree
        p0 = Polynomial((p0,))
        assert _family(p0, triples) == family_by_polynomial_ops(p0, triples)

    @settings(max_examples=100, deadline=None)
    @given(families(), st.data())
    def test_basis_rebuild_and_its_rejections(self, family, data):
        p0, triples = family
        basis = family_basis(p0, triples)
        assert list(basis.polys) == family_by_polynomial_ops(p0, triples)
        # C_0 multiplies p_(-1) = 0, so three_term reports it as 0
        want = tuple((a, b, c if n else 0) for n, (a, b, c) in enumerate(triples))
        assert three_term(basis) == want
        if triples:
            # pi rows kept, one B_n changed: only the row check of the reader can see it
            n = data.draw(st.integers(0, len(triples) - 1))
            doc = basis.to_json_dict()
            doc["recurrence"][n][1] = rat_str(triples[n][1] + 1)
            message = rf"^\$: recurrence triple at n={n} does not rebuild p_{n + 1}$"
            with pytest.raises(SchemaError, match=message):
                OrthoBasis.from_json_dict(doc)

    @settings(max_examples=60, deadline=None)
    @given(families(), families(), st.data())
    def test_connection_rows_are_checked(self, source, target, data):
        src, dst = family_basis(*source), family_basis(*target)
        if dst.order < src.order:
            src, dst = dst, src
        cm = connection(src, dst)
        for n, (num, den) in enumerate(cm._rows):
            assert den > 0 and gcd(den, *num) == 1
            want = expand_by_polynomial_ops(src.polys[n], dst.polys[: n + 1])
            assert [F(v, den) for v in num] == want
        n = data.draw(st.integers(0, src.order))
        j = data.draw(st.integers(0, n))
        rows = list(cm._rows)
        entries = [F(v, rows[n][1]) for v in rows[n][0]]
        shift = data.draw(nonzero)
        entries[j] += shift if entries[j] + shift else 2 * shift  # keep the diagonal nonzero
        rows[n] = lowest_terms(*over_lcm([e.as_integer_ratio() for e in entries]))
        message = f"^connection row {n} does not reconstruct the source polynomial$"
        with pytest.raises(ValueError, match=message):
            ConnectionMatrix(rows, src, dst)


# every catalog family to order 8 (the finite-support ones stop early; a monic
# p_n = N_n / d_n has leading numerator d_n), and Hermite over 2^n
SOLVE_BASES = [
    basis_from_moments(seq, 8, allow_truncation=True) for seq in catalog_instances(17)
] + [halved_hermite(8)]
small = st.fractions(min_value=-20, max_value=20, max_denominator=12)


class TestIntegerSolveAgainstFractions:
    """``_solve_lower`` gives the Fraction forward substitution's unknowns, over
    the least positive common denominator, on families whose rows are rescaled
    by nonzero rationals of either sign."""

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_matches_the_fraction_substitution(self, data):
        base = data.draw(st.sampled_from(SOLVE_BASES))
        size = base.order + 1
        scales = data.draw(st.lists(small.filter(bool), min_size=size, max_size=size))
        polys = [p * s for p, s in zip(base.polys, scales)]
        weights = data.draw(st.lists(small, min_size=size, max_size=size))
        if data.draw(st.booleans()):
            rows = data.draw(st.lists(st.lists(small, max_size=4), min_size=size, max_size=size))
            rhs = [(w, Polynomial(row)) for w, row in zip(weights, rows)]
            want = solve_lower_by_fractions(polys, [w * q for w, q in rhs])
            xs, den = _solve_lower(polys, rhs)
            assert [Polynomial._from_ints(list(x), den) for x in xs] == want
            entries = [c for w in want for c in w.coeffs]
        else:
            want = solve_lower_by_fractions(polys, weights)
            xs, den = _solve_lower(polys, [(w, Polynomial.one()) for w in weights])
            assert [F(x, den) for x, in xs] == want
            entries = want
        assert den == lcm(*(c.denominator for c in entries))

    def test_negative_leading_numerators_keep_the_denominator_positive(self):
        polys = [p * F(-3, 2) ** n for n, p in enumerate(halved_hermite(4).polys)]
        weights = [F(1, n + 2) for n in range(5)]
        xs, den = _solve_lower(polys, [(w, Polynomial.one()) for w in weights])
        assert den > 0
        assert [F(x, den) for x, in xs] == solve_lower_by_fractions(polys, weights)


# zero and negative factors fail the positivity check first
positive = st.fractions(min_value=0, max_value=20, max_denominator=12).filter(
    lambda v: v not in (0, 1)
)


class TestNormRule:
    """<p_(n+1), p_(n-1)> = 0 ties each squared norm to the recurrence:
    h_n A_n = C_n A_(n-1) h_(n-1) for 1 <= n < N, and h_N is free."""

    @staticmethod
    def gaussian_doc():
        return basis_from_moments(builtin("gaussian", 9), 4).to_json_dict()

    def test_a_norm_off_the_recurrence_is_rejected(self):
        doc = self.gaussian_doc()
        assert doc["norms"][2] == "2/1"
        doc["norms"][2] = "100/1"
        with pytest.raises(
            SchemaError, match=r"^\$: squared norm at order 2 does not follow from the recurrence"
        ):
            OrthoBasis.from_json_dict(doc)

    def test_the_last_norm_is_free(self):
        doc = self.gaussian_doc()
        doc["norms"][4] = "100/1"
        assert OrthoBasis.from_json_dict(doc).norms[4] == 100

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(SOLVE_BASES), st.data())
    def test_rescaled_families_are_accepted(self, base, data):
        size = base.order + 1
        scales = data.draw(st.lists(small.filter(bool), min_size=size, max_size=size))
        basis = rescaled(base, scales)
        assert basis.polys == tuple(p * s for p, s in zip(base.polys, scales))
        assert basis.norms == tuple(h * s * s for h, s in zip(base.norms, scales))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([b for b in SOLVE_BASES if b.order >= 2]), st.data())
    def test_scaling_one_norm_is_rejected(self, base, data):
        n = data.draw(st.integers(1, base.order - 1))
        norms = list(base.norms)
        norms[n] *= data.draw(positive)
        with pytest.raises(RecurrenceError, match=f"^squared norm at order {n} does not follow"):
            OrthoBasis(norms, base.recurrence, base.source_moments, p0=base.p0)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([b for b in SOLVE_BASES if b.order >= 2]), st.data())
    def test_flipping_the_sign_of_one_c_n_is_rejected(self, base, data):
        # the family is built from the flipped triple, so only the norm check can catch it
        n = data.draw(st.integers(1, base.order - 1))
        triples = list(base.recurrence)
        a, b, c = triples[n]
        triples[n] = (a, b, -c)
        with pytest.raises(RecurrenceError, match=f"^squared norm at order {n} does not follow"):
            OrthoBasis(base.norms, triples, base.source_moments, p0=base.p0)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_the_rule_is_the_fraction_identity(self, data):
        # A_n and C_n may be zero or negative; a norm follows the rule or is drawn at random
        wide = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)
        entry = st.one_of(small, wide)
        norm = st.one_of(entry.map(abs), entry.map(abs), entry)
        size = data.draw(st.integers(1, 6), label="N")
        triples = [tuple(data.draw(entry) for _ in range(3)) for _ in range(size)]
        norms = [data.draw(norm, label="h_0")]
        for n in range(1, size + 1):
            a, _, c = triples[n] if n < size else (0, 0, 0)  # h_N is free
            ruled = c * triples[n - 1][0] * norms[-1] / a if a else F(0)
            if ruled > 0 and data.draw(st.booleans(), label=f"h_{n} from the rule"):
                norms.append(ruled)
            else:
                norms.append(data.draw(norm, label=f"h_{n}"))
        p0 = data.draw(nonzero, label="p_0")
        zero_a = next((n for n, (a, _, _) in enumerate(triples) if a == 0), None)
        nonpositive = next((n for n, h in enumerate(norms) if h <= 0), None)
        broken = next(
            (
                n for n in range(1, size)
                if norms[n] * triples[n][0] != triples[n][2] * triples[n - 1][0] * norms[n - 1]
            ),
            None,
        )
        if zero_a is not None:
            error, message = ValueError, f"^basis polynomial {zero_a + 1} has degree"
        elif nonpositive is not None:
            error, message = ValueError, f"^squared norm at order {nonpositive} must be positive"
        elif broken is not None:
            error, message = RecurrenceError, f"^squared norm at order {broken} does not follow"
        else:
            basis = OrthoBasis(norms, triples, builtin("gaussian", 1), p0=p0)
            assert basis.norms == tuple(norms) and basis.order == size
            return
        with pytest.raises(error, match=message):
            OrthoBasis(norms, triples, builtin("gaussian", 1), p0=p0)


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
            assert combination_by_polynomial_ops(row, cat.polys) == hermite(6).polys[n]

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(SOLVE_BASES), st.sampled_from(SOLVE_BASES), st.data())
    def test_catalog_rows_are_the_polynomial_expansion(self, source, target, data):
        # monic catalog families and He_n / 2^n: row denominators other than 1
        if target.order < source.order:
            source, target = target, source
        if data.draw(st.booleans(), label="rescale the source"):
            scales = data.draw(st.lists(small.filter(bool), min_size=source.order + 1,
                                        max_size=source.order + 1))
            source = rescaled(source, scales)
        cm = connection(source, target)
        for n, row in enumerate(cm.rows):
            assert list(row) == expand_by_polynomial_ops(source.polys[n], target.polys[: n + 1])
        assert cm.constant_column == tuple(row[0] for row in cm.rows)

    def test_the_constructor_rejects_a_changed_row(self):
        # He_n / 2^n in the Catalan family: row 3 is (2, 6, 5, 1) / 8
        src, dst = halved_hermite(4), basis_from_moments(builtin("catalan", 9), 4)
        rows = list(connection(src, dst)._rows)
        assert rows[3] == ((2, 6, 5, 1), 8)
        triangular = "is not triangular with nonzero diagonal"
        lowest = "is not in lowest terms over a positive denominator"
        for n, row, message in [
            (3, ((3, 6, 5, 1), 8), "does not reconstruct the source polynomial"),
            (3, ((2, 6, 5, 0), 8), triangular),
            (3, ((2, 6, 5), 8), triangular),
            (3, ((2, 6, 5, 1, 0), 8), triangular),
            # the same values, written with a negative or a common factor
            (3, ((-2, -6, -5, -1), -8), lowest),
            (3, ((4, 12, 10, 2), 16), lowest),
            (0, ((-1,), -1), lowest),
        ]:
            changed = rows[:n] + [row] + rows[n + 1 :]
            with pytest.raises(ValueError, match=f"^connection row {n} {message}$"):
                ConnectionMatrix(changed, src, dst)
        assert ConnectionMatrix(rows, src, dst) == connection(src, dst)

    def test_the_constructor_checks_the_row_count(self):
        # one row per source polynomial, and no more rows than the target has polynomials
        src, cat4 = hermite(4), basis_from_moments(builtin("catalan", 9), 4)
        cat3 = basis_from_moments(builtin("catalan", 7), 3)
        rows = list(connection(src, cat4)._rows)
        extra = ((0,) * 5 + (1,), 1)
        for changed, target, got in [
            (rows + [extra], cat4, 6),
            (rows[:3], cat4, 3),
            (rows, cat3, 5),
        ]:
            message = (
                "^a connection needs 5 rows, one per source polynomial and no more than "
                f"the target's {target.order + 1}; got {got}$"
            )
            with pytest.raises(ValueError, match=message):
                ConnectionMatrix(changed, src, target)

    def test_cube_decomposes_in_hermite(self):
        # x^3 = He_3 + 3 He_1
        h = hermite(3)
        assert Polynomial.monomial(3) == h.polys[3] + 3 * h.polys[1]


def rows_by_back_substitution(src, dst):
    """The connection rows as back substitution of each p_n gives them, in lowest terms."""
    rows = []
    for n, p in enumerate(src.polys):
        gamma = expand_by_polynomial_ops(p, dst.polys[: n + 1])
        num, den = lowest_terms(*over_lcm([c.as_integer_ratio() for c in gamma]))
        rows.append((tuple(num), den))
    return tuple(rows)


class TestConnectionByRecurrence:
    """The rows :func:`connection` builds by the source's recurrence are, pair for pair,
    the (numerators, den) that back substitution of each p_n gives."""

    @settings(max_examples=100, deadline=None)
    @given(families(), families(max_order=9))
    def test_rows_equal_the_back_substitution(self, source, target):
        src, dst = family_basis(*source), family_basis(*target)
        if dst.order < src.order:
            src, dst = dst, src
        assert connection(src, dst)._rows == rows_by_back_substitution(src, dst)

    def test_a_non_monic_family_with_a_nonzero_c0_into_a_longer_target(self):
        # p_0 = -3/2, A_0 < 0 with C_0 != 0 (it multiplies p_(-1) = 0), then signs that
        # keep C_n A_n A_(n-1) > 0; the target is He_n / 2^n, two orders longer
        triples = (
            (F(-2), F(1, 3), F(5)),
            (F(3, 4), F(-1), F(-2, 5)),
            (F(-1), F(0), F(-7)),
        )
        src = family_basis(Polynomial((F(-3, 2),)), triples)
        for dst in (halved_hermite(5), basis_from_moments(builtin("catalan", 11), 5), src):
            rows = connection(src, dst)._rows
            assert rows == rows_by_back_substitution(src, dst)
            assert all(den > 0 and gcd(den, *num) == 1 for num, den in rows)
        assert connection(src, src)._rows == tuple(((0,) * n + (1,), 1) for n in range(4))

    def test_the_basis_roundtrip_keys_at_order_28(self):
        keys = ("gaussian", "catalan", "factorial", "log_kernel(0)")
        bases = [
            basis_from_moments(builtin(name, 57, param), 28)
            for name, param in map(parse_catalog_key, keys)
        ]
        for n, src in enumerate(bases):
            dst = bases[(n + 1) % len(bases)]
            assert connection(src, dst)._rows == rows_by_back_substitution(src, dst), keys[n]


def times_x_in(basis):
    """(times_x, xden) for :func:`_family`: multiplication by x in the coordinates of ``basis``.

    x q_j = (q_(j+1) - B_j q_j + C_j q_(j-1)) / A_j, its entries over one denominator.
    """
    entries = [v for a, b, c in basis.recurrence for v in (1 / a, -b / a, c / a)]
    scaled, xden = over_lcm([v.as_integer_ratio() for v in entries])

    def times_x(row):
        out = [0] * (len(row) + 1)
        for j, v in enumerate(row):
            up, mid, down = scaled[3 * j : 3 * j + 3]
            out[j + 1] += up * v
            out[j] += mid * v
            if j:
                out[j - 1] += down * v
        return out

    return times_x, xden


class TestFamilyWalk:
    """:func:`_family` with a map other than the shift: the triples (1, 0, 0) in a family's
    own coordinates walk x^0..x^N, and row j gives m_j = p_0 m_0 g_(j,0)."""

    @pytest.mark.parametrize(
        "basis",
        [
            pytest.param(basis_from_moments(seq, 8, allow_truncation=True), id=seq.label)
            for seq in catalog_instances(17)
        ]
        # p_0 = 3/2
        + [pytest.param(rescaled(hermite(8), [F(3, n + 2) for n in range(9)]), id="rescaled He")],
    )
    def test_the_monomial_walk_regenerates_the_moments(self, basis):
        order, m = basis.order, basis.source_moments.values
        # row 0 is x^0 = q_0 / p_0
        rows = _family(Polynomial((1 / basis.p0,)), [(F(1), F(0), F(0))] * order,
                       *times_x_in(basis))
        assert len(rows) == order + 1
        for j, row in enumerate(rows):
            assert combination_by_polynomial_ops(row.coeffs, basis.polys) == Polynomial.monomial(j)
            assert basis.p0 * m[0] * row.coefficient(0) == m[j], j


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

    def test_sides_over_a_longer_basis_match_a_fresh_build(self):
        polys = hermite(12).polys
        for n in range(9):
            assert _hermite_addition_sides(polys, n, F(3, 5)) == hermite_addition_sides(n, F(3, 5))

    def test_irrational_complement_rejected(self):
        with pytest.raises(ValueError):
            hermite_addition_sides(3, F(1, 2))
