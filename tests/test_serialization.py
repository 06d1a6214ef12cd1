import copy
import dataclasses
import json
import math
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poslab.errors import ReportLimitError, SchemaError
from poslab.lancaster import (
    DEFAULT_GRID,
    SupportFlags,
    lancaster_report,
    parse_problem_json,
    preset_problem,
)
from poslab.moments import MomentSequence, builtin, is_pm
from poslab.orthopoly import OrthoBasis, Polynomial, basis_from_moments, connection, hermite
from poslab.positivity import OrthogonalSeries
from poslab.rationals import (
    float_str, lowest_terms, rat, rat_str, rational_list, rational_row, report_float, wire_row,
)

rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=997
)


class TestRationalStrings:
    @given(rationals)
    def test_round_trip_is_bit_exact(self, q):
        assert rat(rat_str(q)) == q

    def test_canonical_form(self):
        assert rat_str(F(4, 8)) == "1/2"
        assert rat_str(F(-3)) == "-3/1"

    def test_parse_rejects_floats(self):
        with pytest.raises(TypeError):
            rat(0.5)

    def test_parse_accepts_exact_decimal_strings(self):
        assert rat("0.3") == F(3, 10)

    def test_float_diagnostics_past_the_float_range_raise(self):
        assert report_float(F(1, 3)) == 1 / 3
        assert report_float(F(1, 10**400)) == 0.0  # underflow is a float value, not an error
        for value in (F(10**400), F(-(10**400), 3), float("inf"), float("-inf")):
            with pytest.raises(ReportLimitError, match=r"^a value exceeds the float range \(about 1.8e\+308\)"):
                report_float(value)

    @given(
        st.fractions(min_value=-(10**308), max_value=10**308)
        | st.floats(allow_nan=False, allow_infinity=False).map(F)
    )
    def test_float_strings_round_trip_every_double(self, q):
        assert float(float_str(q)) == float(q)

    def test_parse_rejects_exponent_notation(self):
        # Fraction("1e10000000") alone takes seconds; larger exponents never end
        for text in ("1e10000000", "1E5", "2.5e-3", "1/1e3"):
            with pytest.raises(ValueError, match="not a rational string"):
                rat(text)


def reference_rat(value):
    """``rat`` on a string through ``Fraction(text)`` alone, with its exponent rule."""
    text = value.strip()
    if "e" in text or "E" in text:
        raise ValueError(f"not a rational string: {value!r} (no exponent notation)")
    try:
        return F(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational string: {value!r}") from exc


def outcome(parse, text):
    try:
        value = parse(text)
    except ValueError as exc:
        return "raises", str(exc)
    assert type(value) is F
    return "value", value


LONG = "7" * 4301  # past Python's default 4300-digit int-string limit


class TestLowestTerms:
    @given(
        st.lists(st.integers(-10**30, 10**30), max_size=6),
        st.integers(-10**30, 10**30).filter(bool),
        st.integers(1, 10**6),
    )
    def test_keeps_the_values_and_leaves_gcd_one(self, num, den, scale):
        num, den = [v * scale for v in num], den * scale
        got, got_den = lowest_terms(num, den)
        assert [F(v, got_den) for v in got] == [F(v, den) for v in num]
        assert math.gcd(got_den, *got) == 1 and (got_den > 0) == (den > 0)

    def test_a_reduced_row_comes_back_unchanged(self):
        row = [3, -4]
        assert lowest_terms(row, 5) == (row, 5) and lowest_terms(row, 5)[0] is row


class TestWireRow:
    """``wire_row`` writes num[i] / (den ratio^i) as ``rat_str`` does, over any
    denominator and ratio, 1 included, and refuses a value it cannot write."""

    @given(
        st.lists(st.integers(-10**30, 10**30), max_size=6),
        st.sampled_from([1, 1, 2, 6, 10**12 + 39]),
        st.sampled_from([1, 1, 3, 10]),
    )
    def test_entries_are_the_canonical_strings(self, num, den, ratio):
        expected = [rat_str(F(v, den * ratio**i)) for i, v in enumerate(num)]
        assert wire_row(num, den, ratio) == expected

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int-string limit before 3.10.7"
    )
    @pytest.mark.parametrize("den, ratio", [(1, 1), (3, 1), (1, 2)])
    def test_a_value_past_the_int_string_limit_is_refused(self, den, ratio):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises(ReportLimitError, match="4300-digit limit"):
                wire_row([1, 10**4301], den, ratio)
        finally:
            sys.set_int_max_str_digits(limit)


class TestRatParity:
    """``rat``'s ``p/q`` fast path gives what ``Fraction(text)`` gives, or the same error."""

    CASES = [
        "3/4", "+3/4", "-3/4", "-0", "+0/5", "0/7", "007/010", " 3/4 ", "\t-7\n", "12",
        "1_000", "1_000/3", "\u0661\u0662", "\u0661\u0662/\u0663", "3/0", "0/0", "3/-4",
        "3/+4", "3 /4", "3/ 4", "- 3/4", "+-3", "--3", "0.5", "-.5", "1.", "1.5/2", "",
        "  ", "/", "3/", "/4", "3/4/5", "x", "1e3", "\u00b2", "3/\u00b2",
        LONG, "-" + LONG, "1/" + LONG, LONG + "/3", "4" * 4300 + "/" + "3" * 4300,
    ]

    @pytest.mark.parametrize(
        "text", CASES, ids=lambda t: ascii(t) if len(t) < 20 else f"{len(t)}-chars"
    )
    def test_listed_strings(self, text):
        assert outcome(rat, text) == outcome(reference_rat, text)

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int-string limit before 3.10.7"
    )
    def test_long_digit_strings_keep_the_rat_error(self):
        for text in (LONG, "1/" + LONG):
            with pytest.raises(ValueError, match="^not a rational string: ") as info:
                rat(text)
            assert "Exceeds the limit" not in str(info.value)

    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet="0123456789+-/ ._\t\u0661", max_size=12))
    def test_random_strings(self, text):
        assert outcome(rat, text) == outcome(reference_rat, text)

    @given(rationals)
    def test_wire_strings(self, q):
        for text in (f"{q.numerator}/{q.denominator}", str(q), f" {q} "):
            assert outcome(rat, text) == ("value", q)


def row_outcome(read, row, length):
    try:
        return "value", read(row, "$.pi[2]", length)
    except SchemaError as exc:
        return "raises", str(exc)


def read_by_row(row, where, length):
    return Polynomial._from_ints(*rational_row(row, where, length))


def read_by_list(row, where, length):
    return Polynomial(rational_list(row, where, length))


class TestRowReaderParity:
    """A ``pi`` row read as integer numerators is the polynomial of its
    Fractions, or fails with the same error."""

    ENTRIES = [
        "2/4", " 1/2", "+3/4", "-0/5", "1_0/3", "\u0661\u0662/5", "3/0", "3/-4", "0.3", "1e3",
        "0/1", "-7", "x", "", LONG, "1/" + LONG, "4" * 4300 + "/" + "3" * 4300,
    ]

    @pytest.mark.parametrize(
        "entry", ENTRIES, ids=lambda t: ascii(t) if len(t) < 20 else f"{len(t)}-chars"
    )
    def test_listed_entries_at_every_position(self, entry):
        for i in range(3):
            row = ["1/3", "-2/6", "5/1"]
            row[i] = entry
            assert row_outcome(read_by_row, row, 3) == row_outcome(read_by_list, row, 3)

    def test_rows_of_the_wrong_shape(self):
        for row, length in (
            ([], 3), (["1/1"], 3), (["1/1"] * 4, 3), ([], None), ("1/2", 1), (None, 1),
            ({"0": "1/1"}, 1), (["1/2", 3], 2), (["1/2", True], 2), (["1/2", None], 2),
        ):
            got = row_outcome(read_by_row, row, length)
            assert got[0] == "raises"
            assert got == row_outcome(read_by_list, row, length)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.text(alphabet="0123456789+-/ ._\u0661", max_size=6), max_size=4),
        st.none() | st.integers(0, 4),
    )
    def test_random_rows(self, row, length):
        assert row_outcome(read_by_row, row, length) == row_outcome(read_by_list, row, length)

    @given(st.lists(rationals, min_size=1, max_size=5), st.integers(1, 12))
    def test_rows_in_any_terms_read_as_the_canonical_polynomial(self, values, k):
        row = [f"{k * q.numerator}/{k * q.denominator}" for q in values]
        assert read_by_row(row, "$", None) == Polynomial(values)


class TestMomentSequenceJson:
    @given(st.lists(rationals, min_size=1, max_size=12), st.text(max_size=20))
    @settings(max_examples=60)
    def test_round_trip(self, values, label):
        seq = MomentSequence(tuple(values), label)
        again = MomentSequence.from_json_dict(json.loads(json.dumps(seq.to_json_dict())))
        assert again.values == seq.values
        assert again.label == seq.label

    def test_schema_error_names_the_field(self):
        with pytest.raises(SchemaError, match=r"\$\.values\[1\]"):
            MomentSequence.from_json_dict({"label": "x", "values": ["1/2", "a/b"]})
        with pytest.raises(SchemaError, match=r"\$\.label"):
            MomentSequence.from_json_dict({"label": 7, "values": ["1/2"]})
        with pytest.raises(SchemaError, match=r"\$\.values"):
            MomentSequence.from_json_dict({"label": "x", "values": []})
        for item in (True, 1, 0.5, None, "1e5", "1/0", LONG, "1/" + LONG):
            with pytest.raises(SchemaError, match=r"^\$\.values\[1\]: ") as info:
                MomentSequence.from_json_dict({"label": "x", "values": ["1/2", item]})
            with pytest.raises(SchemaError) as expected:
                rational_list(["1/2", item], "$.values")
            assert str(info.value) == str(expected.value)

    @given(st.lists(rationals, min_size=1, max_size=12), st.integers(2, 12))
    def test_values_in_any_terms_read_as_the_canonical_sequence(self, values, k):
        canonical = MomentSequence(tuple(values), "x")
        wide = [f"{k * q.numerator}/{k * q.denominator}" for q in values]
        again = MomentSequence.from_json_dict({"label": "x", "values": wide})
        assert again == canonical and hash(again) == hash(canonical)
        assert again.to_json_dict() == canonical.to_json_dict()
        assert again.to_json_dict()["values"] == [f"{q.numerator}/{q.denominator}" for q in values]


def _decimal(p, q):
    """p/q (q > 0) as an exact decimal string, or None when it does not terminate."""
    # q divides 10^k for some k <= log2(q) exactly when it is 2^a 5^b
    places = next((k for k in range(q.bit_length()) if 10**k % q == 0), None)
    if places is None:
        return None
    digits = str(abs(p) * 10**places // q).rjust(places + 1, "0")
    whole, frac = digits[: len(digits) - places], digits[len(digits) - places:] or "0"
    return f"{'-' if p < 0 else ''}{whole}.{frac}"


def spellings(text):
    """Every other spelling of the canonical wire string ``text`` that the reader accepts."""
    p, q = map(int, text.split("/"))
    out = [f"{k * p}/{k * q}" for k in (2, 3, 7)] + [f" {text} ", f"\t{text}\n"]
    if p >= 0:
        out.append(f"+{text}")
    if q == 1:
        out += [str(p), f"{p:+d}"]
    decimal = _decimal(p, q)
    if decimal is not None:
        out.append(decimal)
    return out


def spelled_bases():
    """Bases to order 8 at most: Hermite, and from the Catalan and uniform (log_kernel(0)) moments."""
    orders = st.integers(0, 8)
    moments = st.sampled_from([("catalan", None), ("log_kernel", 0)])
    return st.one_of(
        orders.map(hermite),
        st.builds(lambda n, kp: basis_from_moments(builtin(kp[0], 2 * n + 1, kp[1]), n), orders, moments),
    )


class TestBasisJson:
    def test_round_trip_exact(self):
        for basis in (hermite(6), basis_from_moments(builtin("catalan", 13), 6)):
            blob = json.dumps(basis.to_json_dict())
            again = OrthoBasis.from_json_dict(json.loads(blob))
            assert again.polys == basis.polys
            assert again.norms == basis.norms
            assert again.recurrence == basis.recurrence
            assert again.source_moments.values == basis.source_moments.values

    def test_entries_in_non_lowest_terms_read_identically(self):
        doc = basis_from_moments(builtin("catalan", 13), 6).to_json_dict()
        wide = copy.deepcopy(doc)
        wide["pi"] = [[f"{2 * int(p)}/{2 * int(q)}" for p, q in (v.split("/") for v in row)]
                      for row in doc["pi"]]
        assert wide["pi"][1] != doc["pi"][1]
        again = OrthoBasis.from_json_dict(wide)
        assert again == OrthoBasis.from_json_dict(doc)
        assert again.to_json_dict() == doc

    def test_decimal_spellings(self):
        assert [_decimal(*pq) for pq in ((1, 2), (-3, 20), (7, 1), (0, 1), (1, 3))] == [
            "0.5", "-0.15", "7.0", "0.0", None,
        ]
        assert all(rat(v) == F(-3, 2) for v in spellings("-3/2"))

    @settings(max_examples=60, deadline=None)
    @given(spelled_bases(), st.data())
    def test_any_accepted_spelling_of_pi_reads_the_same_basis(self, basis, data):
        # rows whose strings differ from the canonical ones take the exact path
        doc = basis.to_json_dict()
        spelled = copy.deepcopy(doc)
        for n, row in enumerate(spelled["pi"]):
            for j, text in enumerate(row):
                if data.draw(st.booleans(), label=f"respell pi[{n}][{j}]"):
                    row[j] = data.draw(st.sampled_from(spellings(text)))
        again = OrthoBasis.from_json_dict(spelled)
        assert again == OrthoBasis.from_json_dict(doc) == basis
        assert again.polys == basis.polys
        assert again.to_json_dict() == doc

    @settings(max_examples=80, deadline=None)
    @given(spelled_bases().filter(lambda b: b.order >= 1), st.data())
    def test_one_changed_pi_entry_is_refused(self, basis, data):
        doc = basis.to_json_dict()
        n = data.draw(st.integers(1, basis.order), label="row")
        j = data.draw(st.integers(0, n), label="column")
        value = rat(doc["pi"][n][j]) + data.draw(rationals.filter(bool), label="change")
        text = rat_str(value)
        doc["pi"][n][j] = data.draw(st.sampled_from([text, *spellings(text)]), label="spelling")
        message = (
            rf"^\$: (recurrence triple at n={n - 1} does not rebuild p_{n}"
            rf"|basis polynomial {n} has degree -?\d+, not full order)$"
        )
        with pytest.raises(SchemaError, match=message):
            OrthoBasis.from_json_dict(doc)

    def test_a_file_with_two_faults_names_the_first_in_read_order(self):
        # the family and its norm rule are checked before the pi rows past pi[0] are read
        doc = hermite(4).to_json_dict()
        doc["pi"][3][0], doc["norms"][2] = "abc", "100/1"
        with pytest.raises(SchemaError, match=r"^\$: squared norm at order 2 does not follow"):
            OrthoBasis.from_json_dict(doc)
        doc = hermite(4).to_json_dict()
        doc["pi"][2][2], doc["pi"][3][0] = "0/1", "abc"
        with pytest.raises(SchemaError, match=r"^\$: basis polynomial 2 has degree 0, not full order$"):
            OrthoBasis.from_json_dict(doc)

    def test_a_built_row_past_the_int_string_limit_is_compared_exactly(self):
        # p_2 = 10^4400 x^2 - ... cannot be written as strings, so its row is parsed and refused
        doc = hermite(2).to_json_dict()
        big = "1" + "0" * 2200 + "/1"
        doc["recurrence"][0][0] = doc["recurrence"][1][0] = big
        doc["pi"][1] = ["0/1", big]
        with pytest.raises(SchemaError, match=r"^\$: recurrence triple at n=1 does not rebuild p_2$"):
            OrthoBasis.from_json_dict(doc)

    def test_wire_keys_are_stable(self):
        doc = hermite(3).to_json_dict()
        assert set(doc) == {"moments", "pi", "norms", "recurrence", "status"}
        assert doc["pi"][2] == ["-1/1", "0/1", "1/1"]

    def test_triangular_shape_enforced(self):
        doc = hermite(3).to_json_dict()
        doc["pi"][1] = ["0/1"]
        with pytest.raises(SchemaError, match=r"\$\.pi\[1\]"):
            OrthoBasis.from_json_dict(doc)
        doc = hermite(3).to_json_dict()
        doc["pi"][2][0] = -1
        with pytest.raises(SchemaError, match=r"^\$\.pi\[2\]\[0\]: expected a rational string"):
            OrthoBasis.from_json_dict(doc)
        doc = hermite(3).to_json_dict()
        doc["recurrence"][1] = ["1/1", "0/1"]
        with pytest.raises(SchemaError, match=r"^\$\.recurrence\[1\]: expected 3 rational"):
            OrthoBasis.from_json_dict(doc)

    def test_norm_count_enforced(self):
        doc = hermite(3).to_json_dict()
        doc["norms"] = doc["norms"][:-1]
        with pytest.raises(SchemaError, match=r"\$\.norms"):
            OrthoBasis.from_json_dict(doc)
        doc = hermite(3).to_json_dict()
        doc["norms"][1] = "0/1"
        with pytest.raises(SchemaError, match=r"^\$: squared norm at order 1 must be positive"):
            OrthoBasis.from_json_dict(doc)


class TestReportJson:
    def test_pm_report_serializes_exact_determinants(self):
        rep = is_pm(builtin("gaussian", 9), 4)
        doc = rep.to_json_dict()
        assert doc["hankel_dets"] == ["1/1", "1/1", "2/1", "12/1", "288/1"]
        assert doc["strictly_positive"] is True

    def test_lancaster_report_round_trips_through_json_module(self):
        report = lancaster_report(preset_problem("mehler", 8, F(1, 2)), order=2)
        blob = json.dumps(report.to_json_dict(), sort_keys=True)
        assert json.loads(blob)["verdict"] == "positive"


class TestProblemJson:
    def test_round_trip_through_problem_file(self):
        prob = preset_problem("mehler", 6, F(1, 3))
        doc = dataclasses.replace(prob, grid_a=(F(0), F(1)), grid_b=(F(-1),)).to_json_dict()
        again = parse_problem_json(json.loads(json.dumps(doc)))
        assert again.coeffs == prob.coeffs
        assert again.alpha.polys == prob.alpha.polys
        assert again.support == prob.support
        assert again.grid_a == (F(0), F(1))
        assert again.grid_b == (F(-1),)

    def test_schema_error_paths(self):
        doc = preset_problem("mehler", 4, F(1, 3)).to_json_dict()
        for item in ("x", True, 1):
            doc["coeffs"][2] = item
            with pytest.raises(SchemaError, match=r"\$\.coeffs\[2\]"):
                parse_problem_json(doc)
        doc = preset_problem("mehler", 4, F(1, 3)).to_json_dict()
        for key, vals, where in (
            ("grid_a", [], r"^\$\.grid_a: expected a non-empty list"),
            ("grid_b", [0], r"^\$\.grid_b\[0\]: expected a rational string"),
        ):
            with pytest.raises(SchemaError, match=where):
                parse_problem_json({**doc, key: vals})
        doc["alpha"]["norms"][2] = "0/1"
        with pytest.raises(SchemaError, match=r"^\$\.alpha: squared norm at order 2"):
            parse_problem_json(doc)
        doc = preset_problem("mehler", 4, F(1, 3)).to_json_dict()
        doc["support_flags"]["mu_unbounded"] = "yes"
        with pytest.raises(SchemaError, match=r"\$\.support_flags\.mu_unbounded"):
            parse_problem_json(doc)

    def test_a_beta_equal_to_alpha_is_read_once(self):
        doc = json.loads(json.dumps(preset_problem("mehler", 4, F(1, 3)).to_json_dict()))
        prob = parse_problem_json(doc)
        assert prob.beta is prob.alpha
        # the same family in other terms is a different object, read on its own
        doc["beta"]["norms"] = [f"{2 * int(p)}/{2 * int(q)}" for p, q in
                                (v.split("/") for v in doc["beta"]["norms"])]
        prob = parse_problem_json(doc)
        assert prob.beta is not prob.alpha and prob.beta.polys == prob.alpha.polys
        doc["beta"]["norms"][2] = "0/1"
        with pytest.raises(SchemaError, match=r"^\$\.beta: squared norm at order 2"):
            parse_problem_json(doc)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(rationals, min_size=1, max_size=4), st.lists(rationals, min_size=1, max_size=4))
    def test_problem_equals_its_file(self, grid_a, grid_b):
        prob = preset_problem("mehler", 4, F(1, 3))
        prob = dataclasses.replace(prob, grid_a=grid_a, grid_b=grid_b)
        assert parse_problem_json(json.loads(json.dumps(prob.to_json_dict()))) == prob

    def test_missing_or_null_grid_keys_give_the_default_grid(self):
        prob = preset_problem("mehler", 4, F(1, 3))
        doc = dataclasses.replace(prob, grid_a=(F(1),), grid_b=(F(2),)).to_json_dict()
        del doc["grid_a"]
        doc["grid_b"] = None
        again = parse_problem_json(doc)
        assert again.grid_a == again.grid_b == DEFAULT_GRID
        assert again == prob

    @pytest.mark.parametrize("value", ["yes", 1, None])
    @pytest.mark.parametrize(
        "key", ["zero_in_supp_mu", "mu_unbounded", "nu_unbounded", "same_marginals"]
    )
    def test_each_support_flag_must_be_a_boolean(self, key, value):
        assert key in SupportFlags().to_json_dict()
        doc = preset_problem("mehler", 4, F(1, 3)).to_json_dict()
        doc["support_flags"][key] = value
        with pytest.raises(SchemaError) as err:
            parse_problem_json(doc)
        assert str(err.value) == f"$.support_flags.{key}: expected a boolean"

    def test_support_flags_write_their_fields_in_order(self):
        flags = SupportFlags(mu_unbounded=True, same_marginals=True)
        assert list(flags.to_json_dict().items()) == [
            ("zero_in_supp_mu", False), ("mu_unbounded", True),
            ("nu_unbounded", False), ("same_marginals", True),
        ]
        assert SupportFlags.from_json_dict(flags.to_json_dict()) == flags

    def test_support_flags_default_false(self):
        flags = SupportFlags.from_json_dict({})
        assert flags == SupportFlags()

    def test_unknown_keys_are_rejected(self):
        # a misspelled flag would otherwise read as undeclared and switch its check off
        doc = preset_problem("mehler", 4, F(1, 3)).to_json_dict()
        doc["support_flags"]["mu_unbouded"] = True
        with pytest.raises(SchemaError) as err:
            parse_problem_json(doc)
        assert str(err.value) == "$.support_flags: unknown key 'mu_unbouded'"
        doc = preset_problem("mehler", 4, F(1, 3)).to_json_dict()
        doc["grid_A"] = doc.pop("grid_a")
        with pytest.raises(SchemaError) as err:
            parse_problem_json(doc)
        assert str(err.value) == "$: unknown key 'grid_A'"
        # one rule for every reader and every nested object
        doc["grid_a"] = doc.pop("grid_A")
        alpha = doc["alpha"]
        cases = [
            (MomentSequence.from_json_dict, {**alpha["moments"], "lable": "x"}, "$: unknown key 'lable'"),
            (OrthoBasis.from_json_dict, {**alpha, "statuss": "ok"}, "$: unknown key 'statuss'"),
            (OrthoBasis.from_json_dict, {**alpha, "moments": {**alpha["moments"], "lable": "x"}},
             "$.moments: unknown key 'lable'"),
            (OrthogonalSeries.from_json_dict, {"basis": "hermite", "order": 2, "coefs": ["1/1"]},
             "$: unknown key 'coefs'"),
            (parse_problem_json, {**doc, "alpha": {**alpha, "statuss": "ok"}},
             "$.alpha: unknown key 'statuss'"),
        ]
        readers = (MomentSequence.from_json_dict, OrthoBasis.from_json_dict,
                   OrthogonalSeries.from_json_dict, SupportFlags.from_json_dict, parse_problem_json)
        cases += [(reader, [doc], "$: expected an object with keys ") for reader in readers]
        for reader, bad, message in cases:
            with pytest.raises(SchemaError) as err:
                reader(bad)
            assert str(err.value).startswith(message)


class TestConnectionJson:
    def test_gamma_rows_serialize(self):
        cm = connection(hermite(3), hermite(3))
        doc = cm.to_json_dict()
        assert doc["gamma"][2] == ["0/1", "0/1", "1/1"]


# Field names of the loaders, so that random documents also reach nested fields.
_KEYS = (
    "label", "values", "moments", "pi", "norms", "recurrence", "status", "alpha", "beta",
    "coeffs", "grid_a", "grid_b", "support_flags", "zero_in_supp_mu", "mu_unbounded",
)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=6)
    | st.sampled_from(["1/1", "0/1", "-1/2", "0.3", "1e3", "1/0"]),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=4), kids, max_size=6),
    max_leaves=24,
)
LOADERS = (
    rational_list,
    MomentSequence.from_json_dict,
    OrthoBasis.from_json_dict,
    SupportFlags.from_json_dict,
    parse_problem_json,
)


@given(json_values)
@settings(max_examples=200)
def test_loaders_raise_only_schema_errors_on_arbitrary_json(data):
    for loader in LOADERS:
        try:
            loader(copy.deepcopy(data), "$")
        except SchemaError:
            pass


def _entry_paths(doc, path=()):
    """Paths to the strings inside lists of ``doc``: every rational entry of a document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    out = []
    for key, value in items:
        if isinstance(value, str) and isinstance(doc, list):
            out.append(path + (key,))
        elif isinstance(value, (dict, list)):
            out.extend(_entry_paths(value, path + (key,)))
    return out


VALID_DOCS = (
    (MomentSequence.from_json_dict, builtin("catalan", 5).to_json_dict()),
    (OrthoBasis.from_json_dict, hermite(3).to_json_dict()),
    (
        parse_problem_json,
        dataclasses.replace(
            preset_problem("mehler", 4, F(1, 3)), grid_a=(F(0),), grid_b=(F(1), F(2))
        ).to_json_dict(),
    ),
)


@given(st.data())
@settings(max_examples=150)
def test_mutated_valid_documents_raise_schema_errors(data):
    loader, doc = data.draw(st.sampled_from(VALID_DOCS))
    loader(doc, "$")  # the document itself is valid
    paths = _entry_paths(doc)
    mutations = [(p, v) for p in paths for v in (True, 1, "x")]
    mutations += [(p, "0/1") for p in paths if "norms" in p]
    path, value = data.draw(st.sampled_from(mutations))
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(SchemaError):
        loader(doc, "$")
