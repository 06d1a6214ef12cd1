import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poslab import cli
from poslab.cli import build_parser, main
from poslab.lancaster import LancasterProblem, preset_problem
from poslab.moments import builtin


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCatalog:
    def test_lists_every_builtin(self, capsys):
        code, out, _ = run(capsys, "catalog")
        assert code == 0
        for key in ("geometric", "gaussian", "catalan", "factorial", "fib_scaled"):
            assert key in out

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "catalog", "--json")
        names = [e["name"] for e in json.loads(out)["catalog"]]
        assert code == 0 and "log_kernel" in names


class TestCheckPm:
    def test_catalan_all_unit_determinants(self, capsys):
        code, out, _ = run(capsys, "check-pm", "--seq", "catalan", "--order", "4")
        assert code == 0
        assert "hankel determinants: 1/1, 1/1, 1/1, 1/1, 1/1" in out

    def test_parametrized_key(self, capsys):
        code, out, _ = run(capsys, "check-pm", "--seq", "geometric(2)", "--order", "3")
        assert code == 0
        assert "finite support possible" in out

    def test_refuted_sequence_exits_one(self, capsys, tmp_path):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps({"label": "odd", "values": ["0/1", "1/1", "0/1"]}))
        code, out, _ = run(capsys, "check-pm", "--in", str(path), "--order", "1")
        assert code == 1
        assert "not pm" in out

    def test_unknown_key_is_input_error(self, capsys):
        code, _, err = run(capsys, "check-pm", "--seq", "nope", "--order", "2")
        assert code == 2 and "unknown catalog sequence" in err
        code, _, err = run(capsys, "check-pm", "--seq", "catalan(2)", "--order", "2")
        assert (code, err) == (2, "error: catalog sequence 'catalan' takes no parameter\n")
        code, _, err = run(capsys, "check-pm", "--seq", "geometric", "--order", "2")
        assert (code, err) == (2, "error: catalog sequence 'geometric' needs parameter a\n")

    def test_insufficient_moments_exit_three(self, capsys, tmp_path):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps({"label": "short", "values": ["1/1", "0/1", "1/1"]}))
        code, _, err = run(capsys, "check-pm", "--in", str(path), "--order", "5")
        assert code == 3 and "needs 11 moments" in err

    def test_moments_in_any_terms_check_as_the_canonical_file(self, capsys, tmp_path):
        doc = builtin("catalan", 10).to_json_dict()
        path = tmp_path / "moments.json"
        path.write_text(json.dumps(doc))
        want = run(capsys, "check-pm", "--in", str(path), "--order", "4", "--json")
        doc["values"] = [_wide(v) for v in doc["values"]]
        assert "2/2" in doc["values"]
        path.write_text(json.dumps(doc))
        assert run(capsys, "check-pm", "--in", str(path), "--order", "4", "--json") == want
        assert want[0] == 0 and want[2] == ""

    def test_schema_error_names_path_and_field(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        # JSON numbers and booleans are not rational strings; exponents would stall the parse
        for item in (None, 1, True, "1e10000000"):
            path.write_text(json.dumps({"label": "x", "values": ["1/1", item]}))
            code, _, err = run(capsys, "check-pm", "--in", str(path), "--order", "0")
            assert code == 2
            assert err.startswith(f"error: {path}: $.values[1]: ")

    def test_input_that_is_not_utf8_names_the_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run(capsys, "check-pm", "--in", str(path), "--order", "1")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: cannot read input file ('utf-8' codec ")

    @pytest.mark.parametrize("where", ["missing-dir", "dir"])
    def test_an_unwritable_out_path_exits_two(self, capsys, tmp_path, where):
        # exit 1 would read as a refutation
        path = tmp_path / "missing" / "x.json" if where == "missing-dir" else tmp_path
        code, out, err = run(capsys, "check-pm", "--seq", "catalan", "--order", "2", "--out", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: cannot write the report (")

    def test_nesting_past_the_recursion_limit_names_the_file(self, capsys, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000)
        code, out, err = run(capsys, "check-pm", "--in", str(path), "--order", "1")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: not valid JSON (")

    def test_a_repeated_key_names_the_file(self, capsys, tmp_path):
        # json.loads would keep the last "values" and drop the refuted first one (d_1 = -24)
        path = tmp_path / "dup.json"
        path.write_text(
            '{"label": "x", "values": ["1/1", "-5/1", "1/1"], "values": ["1/1", "0/1", "1/1"]}'
        )
        code, out, err = run(capsys, "check-pm", "--in", str(path), "--order", "1")
        assert (code, out, err) == (2, "", f"error: {path}: not valid JSON (duplicate key 'values')\n")
        # a repeated key inside a nested object too
        text = json.dumps(preset_problem("mehler", 4, F(1, 2)).to_json_dict())
        path.write_text(text.replace('"support_flags": {', '"support_flags": {"same_marginals": true, '))
        code, out, err = run(capsys, "lancaster", "--in", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: not valid JSON (duplicate key 'same_marginals')\n"

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int-string digit limit"
    )
    def test_a_json_number_past_the_int_string_limit_names_the_file(self, capsys, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"label": "x", "values": [' + "1" * 5000 + "]}")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, out, err = run(capsys, "check-pm", "--in", str(path), "--order", "0")
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: not valid JSON (Exceeds the limit (4300 digits)")

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int-string digit limit"
    )
    def test_values_past_the_int_string_limit_exit_three(self, capsys, tmp_path):
        # the order-60 determinants of n! run past 4300 digits; order 55 stays under
        report = tmp_path / "report"
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            for mode in ("--json", "--text"):
                argv = ("check-pm", "--seq", "factorial", "--order")
                code, out, err = run(capsys, *argv, "60", mode, "--out", str(report))
                assert (code, out) == (3, "") and not report.exists()
                assert err == (
                    "error: a value exceeds the 4300-digit limit for integer string "
                    "conversion; it cannot be written\n"
                )
                code, _, err = run(capsys, *argv, "55", mode)
                assert (code, err) == (0, "")
        finally:
            sys.set_int_max_str_digits(limit)


class TestBuildBasisAndConnect:
    def test_basis_file_round_trips_through_connect(self, capsys, tmp_path):
        gauss = tmp_path / "gauss.json"
        cat = tmp_path / "catalan.json"
        assert run(capsys, "build-basis", "--seq", "gaussian", "--order", "4", "--out", str(gauss))[0] == 0
        assert run(capsys, "build-basis", "--seq", "catalan", "--order", "4", "--out", str(cat))[0] == 0
        code, out, _ = run(capsys, "connect", "--in", str(gauss), "--to", str(cat))
        assert code == 0
        doc = json.loads(out)
        assert len(doc["gamma"]) == 5
        assert doc["gamma"][0] == ["1/1"]

    @pytest.mark.parametrize("seq, order, marker", [("gaussian", 2, "+1"), ("log_kernel(0)", 4, "-0.5")])
    def test_pi_rows_in_other_spellings_connect_to_the_same_bytes(
        self, capsys, tmp_path, seq, order, marker
    ):
        # a row that misses the string match with the canonical rows is parsed and reads the same
        def plain(value):
            p, q = value.split("/")
            return f"{int(p):+d}" if q == "1" else str(int(p) / 2) if q == "2" else value

        basis, spelled = tmp_path / "basis.json", tmp_path / "spelled.json"
        run(capsys, "build-basis", "--seq", seq, "--order", str(order), "--out", str(basis))
        want = run(capsys, "connect", "--in", str(basis), "--to", str(basis))
        assert want[0] == 0 and want[2] == ""
        for respell, mark in ((_wide, "2/2"), (plain, marker)):
            doc = json.loads(basis.read_text())
            doc["pi"] = [[respell(v) for v in row] for row in doc["pi"]]
            assert any(mark in row for row in doc["pi"])
            spelled.write_text(json.dumps(doc))
            assert run(capsys, "connect", "--in", str(spelled), "--to", str(basis)) == want

    def test_a_shorter_target_exits_three(self, capsys, tmp_path):
        gauss = tmp_path / "gauss.json"
        cat = tmp_path / "catalan.json"
        run(capsys, "build-basis", "--seq", "gaussian", "--order", "4", "--out", str(gauss))
        run(capsys, "build-basis", "--seq", "catalan", "--order", "2", "--out", str(cat))
        code, out, err = run(capsys, "connect", "--in", str(gauss), "--to", str(cat))
        assert (code, out, err) == (3, "", "error: target basis order 2 < source order 4\n")

    def test_degenerate_input_exits_one(self, capsys):
        code, _, err = run(capsys, "build-basis", "--seq", "geometric(2)", "--order", "3")
        assert code == 1
        assert "d_1" in err

    @pytest.mark.parametrize("values, kind", [(["0", "0", "0"], "zero"), (["-1", "0", "1"], "negative")])
    def test_no_family_when_d0_is_not_positive(self, capsys, tmp_path, values, kind):
        path = tmp_path / "z.json"
        path.write_text(json.dumps({"label": "z", "values": values}))
        code, out, err = run(capsys, "build-basis", "--in", str(path), "--order", "1")
        assert (code, out) == (1, "")
        assert err == (
            f"refused by the mathematics: Hankel determinant d_0 of z is {kind}; "
            "no orthogonal family exists\n"
        )

    def test_hermite_basis_content(self, capsys, tmp_path):
        out_path = tmp_path / "basis.json"
        run(capsys, "build-basis", "--seq", "gaussian", "--order", "3", "--out", str(out_path))
        doc = json.loads(out_path.read_text())
        assert doc["pi"][3] == ["0/1", "-3/1", "0/1", "1/1"]
        assert doc["norms"] == ["1/1", "1/1", "2/1", "6/1"]


def _wide(value):
    """A ``"p/q"`` string as ``"2p/2q"``: the same rational in other terms."""
    p, q = value.split("/")
    return f"{2 * int(p)}/{2 * int(q)}"


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def _norm_rule(n):
    return (
        f"squared norm at order {n} does not follow from the recurrence: "
        "h_n A_n must equal C_n A_(n-1) h_(n-1)"
    )


# One fault each in the gaussian basis file of order 4 (He_0..He_4, triples (1, 0, n),
# norms n!), read by connect: the message after "FILE: ", or None where the file is valid.
# An A_n or C_n changed alone, A_n = 0 among them, is caught by the basis itself (its
# degree or norm rule) before the pi rows are compared with the family it builds.
BASIS_FAULTS = {
    "pi-entry": (("pi", 3, 0), "1/1", "$: recurrence triple at n=2 does not rebuild p_3"),
    "pi-degree": (("pi", 2, 2), "0/1", "$: basis polynomial 2 has degree 0, not full order"),
    "p0-zero": (("pi", 0, 0), "0/1", "$: basis polynomial 0 has degree -1, not full order"),
    "p0-two": (("pi", 0, 0), "2/1", "$: recurrence triple at n=0 does not rebuild p_1"),
    "b-n": (("recurrence", 1, 1), "1/1", "$: recurrence triple at n=1 does not rebuild p_2"),
    "a-n-zero": (("recurrence", 2, 0), "0/1", "$: basis polynomial 3 has degree 1, not full order"),
    "a-n": (("recurrence", 2, 0), "2/1", f"$: {_norm_rule(2)}"),
    "a-0": (("recurrence", 0, 0), "2/1", f"$: {_norm_rule(1)}"),
    "c-n-flipped": (("recurrence", 2, 2), "-2/1", f"$: {_norm_rule(2)}"),
    "norm": (("norms", 2), "100/1", f"$: {_norm_rule(2)}"),
    "negative-norm": (("norms", 1), "-1/1", "$: squared norm at order 1 must be positive, got -1"),
    "last-norm": (("norms", 4), "100/1", None),
    "pi-not-a-list": (("pi",), "1/1", "$.pi: expected a non-empty list of coefficient rows"),
    "recurrence-count": (
        ("recurrence",), [["1/1", "0/1", "0/1"]], "$.recurrence: expected 4 [A, B, C] triples"
    ),
    "status": (("status",), 3, "$.status: expected a string"),
    # a zero denominator, and an entry past Python's 4300-digit int-string limit
    "pi-zero-q": (("pi", 1, 0), "1/0", "$.pi[1][0]: not a rational string: '1/0'"),
    "pi-long": (("pi", 1, 0), "1" * 4301, f"$.pi[1][0]: not a rational string: '{'1' * 4301}'"),
}


class TestBasisFileFaults:
    @pytest.mark.parametrize("name", sorted(BASIS_FAULTS))
    def test_one_fault_per_file(self, capsys, tmp_path, name):
        path, value, message = BASIS_FAULTS[name]
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        run(capsys, "build-basis", "--seq", "gaussian", "--order", "4", "--out", str(good))
        doc = json.loads(good.read_text())
        _set(doc, path, value)
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "connect", "--in", str(bad), "--to", str(good))
        if message is None:
            assert (code, err) == (0, "") and json.loads(out)["gamma"][4][4] == "1/1"
        else:
            assert (code, out, err) == (2, "", f"error: {bad}: {message}\n")


FLOAT_RANGE = (
    "error: a value exceeds the float range (about 1.8e+308); "
    "its float diagnostic cannot be written\n"
)
HUGE = "1" + "0" * 400 + "/1"


class TestCertify:
    def test_a_diagnostic_past_the_float_range_exits_three(self, capsys, tmp_path):
        # the Rademacher-Menshov partials are floats; c_2^2 h_2 = 2 * 10^800 is past their
        # range, and c_2^2 h_2 = 1.62e308 is a float whose log(3)^2 multiple overflows the sum
        path, report = tmp_path / "series.json", tmp_path / "report"
        for c2 in (HUGE, "9" + "0" * 153 + "/1"):
            path.write_text(json.dumps({"basis": "hermite", "order": 4, "coeffs": ["1/1", "0/1", c2]}))
            for mode in ("--json", "--text"):
                argv = ("certify", "--in", str(path), "--order", "2", mode, "--out", str(report))
                code, out, err = run(capsys, *argv)
                assert (code, out, err) == (3, "", FLOAT_RANGE) and not report.exists()

    def test_refuted_series_exit_one(self, capsys, tmp_path):
        path = tmp_path / "series.json"
        path.write_text(json.dumps({"basis": "hermite", "order": 2, "coeffs": ["0/1", "1/1", "0/1"]}))
        code, out, _ = run(capsys, "certify", "--in", str(path), "--order", "1")
        assert code == 1
        assert "refuted-at-order 1" in out

    def test_certified_series_exit_zero(self, capsys, tmp_path):
        # coefficients of the conditionally-Gaussian density at rho = 1/2, y = 1
        from poslab.orthopoly import hermite
        from poslab.rationals import rat_str

        basis = hermite(6)
        coeffs = [
            rat_str(F(1, 2) ** n * basis.polys[n](F(1)) / basis.norms[n]) for n in range(7)
        ]
        path = tmp_path / "series.json"
        path.write_text(json.dumps({"basis": "hermite", "order": 6, "coeffs": coeffs}))
        code, out, _ = run(capsys, "certify", "--in", str(path), "--order", "3", "--json")
        assert code == 0
        assert json.loads(out)["verdict"] == "certified"

    def test_truncated_signed_density_is_refuted_deeper_down(self, capsys, tmp_path):
        # 1 + x/2 dips negative on (-inf, -2); order 3 is deep enough to see it
        path = tmp_path / "series.json"
        path.write_text(json.dumps({"basis": "hermite", "order": 6, "coeffs": ["1/1", "1/2"]}))
        code, out, _ = run(capsys, "certify", "--in", str(path), "--order", "3", "--json")
        assert code == 1
        assert json.loads(out)["verdict"] == "refuted"

    def test_explicit_basis_object(self, capsys, tmp_path):
        from poslab.orthopoly import hermite

        path = tmp_path / "series.json"
        path.write_text(
            json.dumps({"basis": hermite(4).to_json_dict(), "coeffs": ["1/1", "0/1", "1/10"]})
        )
        code, out, _ = run(capsys, "certify", "--in", str(path), "--order", "2")
        assert code == 0 and "certified-to-order 2" in out

    def test_missing_coeffs_field(self, capsys, tmp_path):
        path = tmp_path / "series.json"
        path.write_text(json.dumps({"basis": "hermite", "order": 3}))
        code, _, err = run(capsys, "certify", "--in", str(path), "--order", "1")
        assert code == 2 and err.startswith(f"error: {path}: $.coeffs: ")
        path.write_text(json.dumps({"basis": "hermite", "order": 3, "coeffs": ["1/1", 2]}))
        code, _, err = run(capsys, "certify", "--in", str(path), "--order", "1")
        assert code == 2 and err.startswith(f"error: {path}: $.coeffs[1]: expected a rational string")
        # a JSON boolean is an int subclass in Python, but not an order
        path.write_text(json.dumps({"basis": "hermite", "order": True, "coeffs": ["1/1"]}))
        code, _, err = run(capsys, "certify", "--in", str(path))
        assert (code, err) == (
            2,
            f"error: {path}: $.order: expected a nonnegative integer with basis 'hermite'\n",
        )

    def test_a_basis_that_is_not_an_object_or_hermite(self, capsys, tmp_path):
        path = tmp_path / "series.json"
        path.write_text(json.dumps({"basis": "legendre", "order": 2, "coeffs": ["1/1"]}))
        code, out, err = run(capsys, "certify", "--in", str(path))
        assert (code, out, err) == (
            2, "", f"error: {path}: $.basis: expected a basis object or the string 'hermite'\n"
        )

    def test_more_coeffs_than_the_basis_order(self, capsys, tmp_path):
        path = tmp_path / "series.json"
        path.write_text(json.dumps({"basis": "hermite", "order": 2, "coeffs": ["1/1"] * 4}))
        code, out, err = run(capsys, "certify", "--in", str(path))
        want = f"error: {path}: $.coeffs: 4 coefficients exceed basis order 2\n"
        assert (code, out, err) == (2, "", want)

    def test_a_norm_off_the_recurrence_is_an_input_error(self, capsys, tmp_path):
        # h_2 A_2 = C_2 A_1 h_1 forces h_2 = 2; h_4 is not tied to any triple
        _, out, _ = run(capsys, "build-basis", "--seq", "gaussian", "--order", "4")
        assert json.loads(out)["norms"][2] == "2/1"
        path = tmp_path / "series.json"
        reports = {}
        for key, norm in (("canonical", None), (2, "100/1"), (4, "100/1")):
            doc = json.loads(out)
            if norm:
                doc["norms"][key] = norm
            path.write_text(json.dumps({"basis": doc, "coeffs": ["1/1", "0/1", "1/2"]}))
            reports[key] = run(capsys, "certify", "--in", str(path), "--order", "2")
        assert reports[2] == (
            2,
            "",
            f"error: {path}: $.basis: squared norm at order 2 does not follow from the "
            "recurrence: h_n A_n must equal C_n A_(n-1) h_(n-1)\n",
        )
        assert reports[4] == reports["canonical"]
        assert reports[4][0] == 0 and "verdict: certified-to-order 2" in reports[4][1]


class TestLancaster:
    def test_preset_positive(self, capsys):
        code, out, _ = run(
            capsys, "lancaster", "--preset", "mehler", "--rho", "1/2", "--problem-order", "8"
        )
        assert code == 0
        assert "positive-to-order 4" in out

    def test_problem_file_refuted(self, capsys, tmp_path):
        prob = preset_problem("mehler", 4, F(1, 2))
        doc = prob.to_json_dict()
        doc["coeffs"] = ["1/1", "2/1", "4/1", "8/1", "16/1"]
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "lancaster", "--in", str(path), "--order", "1")
        assert code == 1
        assert "refuted" in out
        doc["coeffs"][1] = 2  # a JSON number, not a rational string
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "lancaster", "--in", str(path), "--order", "1")
        assert code == 2
        assert err == f"error: {path}: $.coeffs[1]: expected a rational string, got 2\n"

    def test_a_diagnostic_past_the_float_range_exits_three(self, capsys, tmp_path):
        # square_sum_partials is a float diagnostic of the JSON report only
        doc = preset_problem("mehler", 4, F(1, 2)).to_json_dict()
        doc["coeffs"][2] = HUGE
        path, report = tmp_path / "problem.json", tmp_path / "report"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "lancaster", "--in", str(path), "--json", "--out", str(report))
        assert (code, out, err) == (3, "", FLOAT_RANGE) and not report.exists()
        code, out, err = run(capsys, "lancaster", "--in", str(path), "--text")
        assert (code, err) == (1, "") and out.endswith("verdict: refuted\n")

    def test_grid_override(self, capsys):
        code, out, _ = run(
            capsys,
            "lancaster",
            "--preset",
            "harmonic",
            "--problem-order",
            "6",
            "--grid",
            "0,1/2",
            "--order",
            "3",
        )
        assert code == 0
        assert "side a @ 1/2" in out

    def test_float_grid_rejected(self, capsys):
        code, _, err = run(
            capsys, "lancaster", "--preset", "harmonic", "--problem-order", "6",
            "--grid", "0.25,oops",
        )
        assert code == 2 and err.startswith("error: --grid[1]: ")
        # an empty grid would test nothing and still report positive
        for grid in (",", ""):
            code, out, err = run(
                capsys, "lancaster", "--preset", "mehler", "--rho", "1/2", "--grid", grid
            )
            assert (code, out) == (2, "")
            assert err == "error: --grid: expected a non-empty list of rational strings\n"

    def test_every_grid_part_is_read(self, capsys):
        # as a file's grid is read: a blank part is a bad entry, not a gap
        for grid, i, part in ((",oops", 0, ""), ("1,,2", 1, ""), ("0,1/2, ", 2, " ")):
            code, out, err = run(
                capsys, "lancaster", "--preset", "harmonic", "--problem-order", "6", "--grid", grid
            )
            assert (code, out) == (2, "")
            assert err == f"error: --grid[{i}]: not a rational string: {part!r}\n"

    def test_a_beta_family_in_other_terms_gives_the_same_report(self, capsys, tmp_path):
        # beta no longer equals alpha as an object, so it is read as its own family
        doc = preset_problem("mehler", 4, F(1, 2)).to_json_dict()
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        want = run(capsys, "lancaster", "--in", str(path), "--json")
        doc["beta"]["pi"] = [[_wide(v) for v in row] for row in doc["beta"]["pi"]]
        assert ["2/2"] in doc["beta"]["pi"]
        path.write_text(json.dumps(doc))
        assert run(capsys, "lancaster", "--in", str(path), "--json") == want
        assert want[0] == 0 and want[2] == ""

    def test_a_problem_file_with_grids_builds_its_problem_once(self, capsys, tmp_path, monkeypatch):
        doc = preset_problem("mehler", 4, F(1, 2)).to_json_dict()
        assert doc["grid_a"] and doc["grid_b"]
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        built = []
        post_init = LancasterProblem.__post_init__
        monkeypatch.setattr(LancasterProblem, "__post_init__", lambda p: built.append(post_init(p)))
        code, _, err = run(capsys, "lancaster", "--in", str(path), "--order", "1")
        assert (code, err) == (0, "") and len(built) == 1

    def test_a_grid_option_builds_the_problem_once(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(preset_problem("mehler", 4, F(1, 2)).to_json_dict()))
        built = []
        post_init = LancasterProblem.__post_init__

        def counted(problem):
            post_init(problem)
            built.append((problem.grid_a, problem.grid_b))

        monkeypatch.setattr(LancasterProblem, "__post_init__", counted)
        grid = (F(0), F(1))
        for source in (["--preset", "mehler", "--rho", "1/2", "--problem-order", "6"],
                       ["--in", str(path)]):
            built.clear()
            code, out, err = run(capsys, "lancaster", *source, "--grid", "0,1", "--order", "1")
            assert (code, err) == (0, "") and "grid points tested: 4" in out
            assert built == [(grid, grid)]

    def test_empty_grids_in_a_problem_file_are_rejected(self, capsys, tmp_path):
        doc = preset_problem("mehler", 4, F(1, 2)).to_json_dict()
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({**doc, "grid_a": [], "grid_b": []}))
        code, out, err = run(capsys, "lancaster", "--in", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: $.grid_a: expected a non-empty list")
        del doc["grid_a"], doc["grid_b"]  # no grid keys: the default grid
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "lancaster", "--in", str(path))
        assert code == 0 and "grid points tested: 18" in out

    @pytest.mark.parametrize(
        "norms, message",
        [
            # h_N is free: the Hermite polynomials with k_4 = 4 * 4! are a second family
            (["1/1", "1/1", "2/1", "6/1", "96/1"], None),
            (["1/1", "1/1", "2/1", "6/1", "48/1"],
             "norm ratio at order 4 is not a perfect rational square"),
            (["4/1", "4/1", "8/1", "24/1", "96/1"],
             "the marginal masses h_0/p_0^2 = 1 and k_0/q_0^2 = 4 differ"),
        ],
        ids=["last-norm-times-4", "last-norm-times-2", "every-norm-times-4"],
    )
    def test_a_beta_family_with_other_norms(self, capsys, tmp_path, norms, message):
        doc = preset_problem("mehler", 4, F(1, 2)).to_json_dict()
        doc["beta"]["norms"] = norms
        path, report = tmp_path / "problem.json", tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "lancaster", "--in", str(path), "--json", "--out", str(report))
        if message is not None:
            assert (code, out) == (2, "") and err.startswith(f"error: {path}: $: {message}")
            assert not report.exists()
            return
        assert (code, out, err) == (0, "", "")
        written = report.read_text()
        result = json.loads(written)
        assert result["conditional_moments_b"] != result["conditional_moments_a"]
        assert written == json.dumps(result, indent=2, sort_keys=True) + "\n"


class TestNegativeRationalArguments:
    def test_negative_rho_as_separate_argument(self, capsys):
        argv = ["lancaster", "--preset", "mehler", "--problem-order", "6", "--json"]
        code, out, _ = run(capsys, *argv, "--rho", "-3/10")
        assert code == 0
        assert json.loads(out)["verdict"] == "positive"
        assert run(capsys, *argv, "--rho=-3/10") == (code, out, "")

    def test_negative_rho_in_mehler_demo(self, capsys):
        code, out, _ = run(capsys, "mehler-demo", "--rho", "-1/2")
        assert code == 0
        assert "reference battery at rho = -1/2" in out

    def test_grid_starting_with_a_negative_point(self, capsys):
        code, out, _ = run(
            capsys, "lancaster", "--preset", "harmonic", "--problem-order", "6", "--grid", "-1,0,1"
        )
        assert code == 0
        assert "side a @ -1/1" in out and "side b @ 1/1" in out

    def test_unknown_dash_word_is_still_an_option(self, capsys):
        code, _, err = run(capsys, "lancaster", "--preset", "mehler", "--rho", "-x")
        assert code == 2 and "expected one argument" in err


class TestMehlerDemo:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run(capsys, "mehler-demo", "--rho", "1/2", "--order", "10")
        assert code == 0
        assert "13/13 checks passed" in out
        assert "FAIL" not in out

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "mehler-demo", "--rho", "1/3", "--order", "8", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["all_passed"] is True

    def test_invalid_rho(self, capsys):
        code, _, err = run(capsys, "mehler-demo", "--rho", "3/2")
        assert code == 2 and "|rho| < 1" in err
        code, _, err = run(capsys, "mehler-demo", "--rho", "1e10000000")
        assert code == 2 and "not a rational string: '1e10000000'" in err

    def test_an_order_below_four(self, capsys):
        code, out, err = run(capsys, "mehler-demo", "--order", "3")
        assert (code, out, err) == (2, "", "error: the battery needs order >= 4\n")

    @pytest.mark.parametrize(
        "rho",
        ["0.99999999999999999999", "-0.99999999999999999999", "0." + "9" * 400],
        ids=["20-nines", "minus-20-nines", "400-nines"],
    )
    def test_a_rho_whose_float_is_one_fails_the_kernel_check(self, capsys, rho):
        # |rho| < 1 exactly, so the exact checks run; 1 - float(rho)^2 is 0
        code, out, err = run(capsys, "mehler-demo", "--rho", rho, "--order", "4")
        assert (code, err) == (1, "")
        sign = "-" if rho.startswith("-") else "+"
        assert f"FAIL  kernel-vs-density  (rho rounds to {sign}1 as a float, where" in out
        assert out.endswith("12/13 checks passed\n")


    def test_unknown_keys_in_a_problem_file_are_input_errors(self, capsys, tmp_path):
        doc = preset_problem("mehler", 4, F(1, 2)).to_json_dict()
        path = tmp_path / "problem.json"
        doc["support_flags"]["mu_unbouded"] = True
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "lancaster", "--in", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: $.support_flags: unknown key 'mu_unbouded'\n"
        del doc["support_flags"]["mu_unbouded"]
        doc["grid_A"] = ["0/1"]
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "lancaster", "--in", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: $: unknown key 'grid_A'\n"
        # every input object follows the one rule, nested ones and the other file kinds too
        del doc["grid_A"]
        basis = tmp_path / "basis.json"
        basis.write_text(json.dumps(doc["alpha"]))
        commands = {
            "moments": ("check-pm", "--order", "1", "--in"),
            "basis": ("connect", "--to", str(basis), "--in"),
            "series": ("certify", "--in"),
            "problem": ("lancaster", "--in"),
        }
        cases = [
            ("moments", {**builtin("catalan", 4).to_json_dict(), "lable": "x"}, "$: unknown key 'lable'"),
            ("basis", {**doc["alpha"], "statuss": "ok"}, "$: unknown key 'statuss'"),
            ("series", {"basis": "hermite", "order": 2, "coefs": ["1/1"]}, "$: unknown key 'coefs'"),
            ("problem", {**doc, "alpha": {**doc["alpha"], "statuss": "ok"}},
             "$.alpha: unknown key 'statuss'"),
            ("problem", {**doc, "beta": {**doc["beta"], "statuss": "ok"}},
             "$.beta: unknown key 'statuss'"),
            ("series", {"basis": {**doc["alpha"], "statuss": "ok"}, "coeffs": ["1/1"]},
             "$.basis: unknown key 'statuss'"),
        ]
        for kind in commands:
            cases.append((kind, [doc], "$: expected an object with keys "))
        for kind, bad, message in cases:
            path.write_text(json.dumps(bad))
            code, out, err = run(capsys, *commands[kind], str(path))
            assert (code, out) == (2, "") and err.startswith(f"error: {path}: {message}"), (kind, err)


class TestDeterminism:
    def test_identical_inputs_identical_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["lancaster", "--preset", "mehler", "--rho", "1/2", "--problem-order", "8", "--json"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_float_diagnostics_do_not_depend_on_the_environment(self, capsys, tmp_path, monkeypatch):
        # a report depends only on the arguments and input files, so no variable changes it
        path = tmp_path / "series.json"
        path.write_text(json.dumps({"basis": "hermite", "order": 6, "coeffs": ["1/1", "1/3"]}))
        requests = [
            ("certify", "--in", str(path), "--order", "3", "--json"),
            ("lancaster", "--preset", "mehler", "--rho", "1/2", "--problem-order", "6", "--json"),
        ]
        for argv in requests:
            monkeypatch.delenv("POSLAB_PRECISION", raising=False)
            want = run(capsys, *argv)
            assert want[0] == 0
            for value in ("4", "zero"):
                monkeypatch.setenv("POSLAB_PRECISION", value)
                assert run(capsys, *argv) == want
        assert json.loads(want[1])["necessary_conditions"]["square_sum_partials"][2:4] == [
            "1.3125",
            "1.328125",
        ]


json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**40, max_value=10**400)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
    | st.text(alphabet=st.characters(max_codepoint=0x1F), max_size=4)
)
json_documents = st.recursive(
    json_scalars,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=3).map(tuple)
    | st.lists(st.text(), max_size=4)
    | st.dictionaries(st.text(max_size=5), kids, max_size=5),
    max_leaves=30,
)


class TestJsonWriter:
    """``_dump_json`` writes exactly the bytes of ``json.dumps(indent=2, sort_keys=True)``."""

    @settings(max_examples=300, deadline=None)
    @given(json_documents)
    @example(-0.0)
    @example([1e300, float("nan"), float("inf"), float("-inf"), -(10**300)])
    @example({"\u00e9\u2603\U0001f600": ["\x00\x1f\x7f", "\"\\/"], "": [[], {}, ()]})
    @example({"b": (True, False, None), "a": {"c": [{}], "B": ()}})
    def test_matches_the_json_module(self, value):
        assert cli._dump_json(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"

    def test_real_reports_match_the_json_module(self, capsys, tmp_path):
        # the bytes `python -m json.tool --indent 2 --sort-keys` writes back for each report
        basis, series = tmp_path / "basis.json", tmp_path / "series.json"
        problem, two_families = tmp_path / "problem.json", tmp_path / "two-families.json"
        run(capsys, "build-basis", "--seq", "gaussian", "--order", "2", "--out", str(basis))
        series.write_text(json.dumps({"basis": "hermite", "order": 6, "coeffs": ["1/1", "1/3"]}))
        doc = preset_problem("mehler", 4, F(1, 2)).to_json_dict()
        problem.write_text(json.dumps(doc))
        doc["beta"]["norms"][-1] = "96/1"  # h_N is free: a second family
        two_families.write_text(json.dumps(doc))
        requests = [
            ("lancaster", "--preset", "mehler", "--rho", "1/2", "--problem-order", "8", "--json"),
            ("mehler-demo", "--rho=1/3", "--json"),
            ("build-basis", "--seq", "catalan", "--order", "12"),
            # Hankel determinants written from integer numerators over D^(k+1), D > 1 here
            ("check-pm", "--seq", "log_kernel(1)", "--order", "12", "--json"),
            ("certify", "--in", str(series), "--order", "3", "--json"),
            ("connect", "--in", str(basis), "--to", str(basis)),
            ("lancaster", "--in", str(problem), "--json"),
            ("lancaster", "--in", str(two_families), "--json"),
        ]
        for argv in requests:
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, ""), argv
            assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", argv


class TestUsageErrors:
    def test_seq_and_infile_conflict(self, capsys, tmp_path):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps(builtin("gaussian", 5).to_json_dict()))
        code, _, err = run(capsys, "check-pm", "--seq", "gaussian", "--in", str(path), "--order", "1")
        assert code == 2 and "either --seq or --in" in err

    def test_missing_input_sources(self, capsys):
        code, _, err = run(capsys, "check-pm", "--order", "1")
        assert code == 2

    def test_unknown_command_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_preset_options_with_a_problem_file(self, capsys, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(preset_problem("mehler", 4, F(1, 2)).to_json_dict()))
        for extra in (("--rho", "9/10"), ("--problem-order", "50")):
            code, out, err = run(capsys, "lancaster", "--in", str(path), *extra)
            assert (code, out) == (2, "")
            assert err == "error: --rho and --problem-order apply only to --preset\n"
        # presets still default to problem order 10
        code, out, _ = run(capsys, "lancaster", "--preset", "harmonic", "--grid", "0")
        assert code == 0 and out.startswith("expansion problem of order 10,")

    def test_lancaster_needs_exactly_one_problem_source(self, capsys, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(preset_problem("mehler", 4, F(1, 2)).to_json_dict()))
        code, out, err = run(capsys, "lancaster", "--in", str(path), "--preset", "mehler")
        assert (code, out, err) == (2, "", "error: give either --in or --preset, not both\n")
        code, out, err = run(capsys, "lancaster")
        want = "error: a problem is required: pass --in FILE or --preset NAME\n"
        assert (code, out, err) == (2, "", want)

    def test_json_only_commands_reject_format_flags(self, capsys, tmp_path):
        basis = tmp_path / "basis.json"
        assert run(capsys, "build-basis", "--seq", "gaussian", "--order", "2", "--out", str(basis))[0] == 0
        commands = (
            ("build-basis", "--seq", "gaussian", "--order", "2"),
            ("connect", "--in", str(basis), "--to", str(basis)),
        )
        for command in commands:
            for flag in ("--json", "--text"):
                code, out, err = run(capsys, *command, flag)
                assert (code, out) == (2, "") and f"unrecognized arguments: {flag}" in err


class TestParserReuse:
    """``main`` reuses one parser per process; no request may leak into the next."""

    def test_main_builds_one_parser_per_process(self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert run(capsys, "check-pm", "--seq", "catalan", "--order", "2")[0] == 0
            assert run(capsys, "check-pm")[0] == 2
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()
        assert build_parser() is not cli._parser()

    def test_usage_error_matches_a_fresh_parser(self, capsys, tmp_path):
        code, out, err = run(capsys, "check-pm", "--seq", "catalan")
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["check-pm", "--seq", "catalan"])
        fresh = capsys.readouterr()
        assert (code, out, err) == (exc.value.code, fresh.out, fresh.err)
        assert code == 2 and "--order" in err
        # every order option rejects a negative or non-integer value at parse time
        series = tmp_path / "series.json"
        series.write_text(json.dumps({"basis": "hermite", "order": 2, "coeffs": ["1/1"]}))
        preset = ("--preset", "mehler", "--rho", "1/2")
        cases = [
            (("check-pm", "--seq", "catalan"), "--order", "-1"),
            (("build-basis", "--seq", "catalan"), "--order", "-1"),
            (("certify", "--in", str(series)), "--order", "-1"),
            (("lancaster", *preset), "--order", "-1"),
            (("lancaster", *preset), "--problem-order", "-1"),
            (("mehler-demo",), "--order", "-1"),
            (("check-pm", "--seq", "catalan"), "--order", "x"),
            # the ASCII integers of every rational, not int()'s wider grammar
            (("check-pm", "--seq", "catalan"), "--order", "1_0"),
            (("check-pm", "--seq", "catalan"), "--order", "\u0663"),
        ]
        for command, option, value in cases:
            code, out, err = run(capsys, *command, option, value)
            want = f"error: argument {option}: expected a nonnegative integer, got '{value}'\n"
            assert (code, out) == (2, "") and err.endswith(want), (command, option, value)

    def test_usage_error_does_not_affect_the_next_call(self, capsys):
        argv = ("check-pm", "--seq", "catalan", "--order", "3")
        before = run(capsys, *argv)
        assert run(capsys, "check-pm", "--seq", "catalan")[0] == 2
        assert run(capsys, *argv) == before
        assert before[0] == 0 and before[1].startswith("sequence: catalan\n")

    def test_json_flag_does_not_leak_to_the_next_call(self, capsys):
        code, out, _ = run(capsys, "check-pm", "--seq", "catalan", "--order", "2", "--json")
        assert code == 0 and json.loads(out)["order"] == 2
        code, out, _ = run(capsys, "check-pm", "--seq", "catalan", "--order", "2")
        assert code == 0 and out.startswith("sequence: catalan\n")

    def test_json_default_follows_the_subcommand(self, capsys):
        code, out, _ = run(capsys, "check-pm", "--seq", "catalan", "--order", "2", "--text")
        assert code == 0 and out.startswith("sequence: catalan\n")
        code, out, _ = run(capsys, "build-basis", "--seq", "gaussian", "--order", "2")
        assert code == 0 and json.loads(out)["norms"] == ["1/1", "1/1", "2/1"]

    def test_negative_rational_accepted_after_an_error(self, capsys):
        argv = ["lancaster", "--preset", "mehler", "--problem-order", "6", "--json"]
        assert run(capsys, *argv, "--rho", "-x")[0] == 2
        code, out, err = run(capsys, *argv, "--rho", "-3/10")
        assert (code, err) == (0, "")
        assert json.loads(out)["verdict"] == "positive"


# Full text reports, pinned byte for byte; the JSON reports are pinned by the
# benchmark's digests.
TEXT_REPORTS = {
    "check-pm-zero-determinant": (
        ("check-pm", "--seq", "geometric(2)", "--order", "3"),
        0,
        "sequence: geometric(2)\n"
        "tested order: 3\n"
        "hankel determinants: 1/1, 0/1, 0/1, 0/1\n"
        "shifted determinants: 2/1, 0/1, 0/1, 0/1\n"
        "pm to order: 3\n"
        "strictly positive: no\n"
        "nonnegative-support compatible: yes\n"
        "note: zero Hankel determinant at order 1: finite support possible\n"
        "verdict: pm\n",
    ),
    "check-pm-denominator": (
        ("check-pm", "--seq", "log_kernel(1)", "--order", "2"),
        0,
        "sequence: log_kernel(1)\n"
        "tested order: 2\n"
        "hankel determinants: 1/1, 7/144, 647/4665600\n"
        "shifted determinants: 1/4, 17/5184, 4679/1866240000\n"
        "pm to order: 2\n"
        "strictly positive: yes\n"
        "nonnegative-support compatible: yes\n"
        "verdict: pm\n",
    ),
    "check-pm-refuted": (
        ("check-pm", "--in", "{odd}", "--order", "1"),
        1,
        "sequence: odd\n"
        "tested order: 1\n"
        "hankel determinants: 0/1, -1/1\n"
        "shifted determinants: 1/1\n"
        "pm to order: 0\n"
        "strictly positive: no\n"
        "nonnegative-support compatible: yes\n"
        "note: zero Hankel determinant at order 0: finite support possible\n"
        "verdict: not pm (first negative at order 1)\n",
    ),
    "certify-certified": (
        ("certify", "--in", "{certified}", "--order", "2"),
        0,
        "series over basis of order 4, Hankel battery to order 2\n"
        "recovered moments: 1/1, 0/1, 6/5, 0/1, 21/5\n"
        "hankel determinants: 1/1, 6/5, 414/125\n"
        "verdict: certified-to-order 2\n",
    ),
    "certify-refuted": (
        ("certify", "--in", "{refuted}", "--order", "1"),
        1,
        "series over basis of order 2, Hankel battery to order 1\n"
        "recovered moments: 0/1, 1/1, 0/1\n"
        "hankel determinants: 0/1, -1/1\n"
        "verdict: refuted-at-order 1\n"
        "note: necessary condition violated: d_1 < 0\n",
    ),
    "certify-degenerate": (
        ("certify", "--in", "{degenerate}", "--order", "2"),
        0,
        "series over basis of order 4, Hankel battery to order 2\n"
        "recovered moments: 1/1, 0/1, 0/1, 0/1, 0/1\n"
        "hankel determinants: 1/1, 0/1, 0/1\n"
        "verdict: degenerate-at-order 1\n"
        "note: d_1 = 0: the limit measure may have finite support; not a refutation\n",
    ),
    "lancaster-positive": (
        ("lancaster", "--preset", "mehler", "--rho", "1/2", "--problem-order", "4",
         "--grid", "-1,0,1/2"),
        0,
        "expansion problem of order 4, grid Hankel order 2\n"
        "grid points tested: 6\n"
        "full-order flags: 5/5 pass\n"
        "  side a @ -1/1: ok\n"
        "  side a @ 0/1: ok\n"
        "  side a @ 1/2: ok\n"
        "  side b @ -1/1: ok\n"
        "  side b @ 0/1: ok\n"
        "  side b @ 1/2: ok\n"
        "verdict: positive-to-order 2\n",
    ),
    "lancaster-refuted": (
        ("lancaster", "--in", "{problem}", "--order", "1", "--grid", "-1,0,1/2"),
        1,
        "expansion problem of order 4, grid Hankel order 1\n"
        "grid points tested: 6\n"
        "full-order flags: 5/5 pass\n"
        "  side a @ -1/1: NEGATIVE at order 1\n"
        "  side a @ 0/1: NEGATIVE at order 1\n"
        "  side a @ 1/2: NEGATIVE at order 1\n"
        "  side b @ -1/1: NEGATIVE at order 1\n"
        "  side b @ 0/1: NEGATIVE at order 1\n"
        "  side b @ 1/2: NEGATIVE at order 1\n"
        "verdict: refuted\n",
    ),
    "lancaster-file-grid": (
        ("lancaster", "--in", "{mehler}", "--grid", "-1,0,3/2", "--order", "2"),
        0,
        "expansion problem of order 4, grid Hankel order 2\n"
        "grid points tested: 6\n"
        "full-order flags: 5/5 pass\n"
        "  side a @ -1/1: ok\n"
        "  side a @ 0/1: ok\n"
        "  side a @ 3/2: ok\n"
        "  side b @ -1/1: ok\n"
        "  side b @ 0/1: ok\n"
        "  side b @ 3/2: ok\n"
        "verdict: positive-to-order 2\n",
    ),
    "mehler-demo": (
        ("mehler-demo", "--rho", "1/2", "--order", "4"),
        0,
        "reference battery at rho = 1/2, order 4\n"
        "PASS  hermite-recurrence-vs-sum-formula  (orders 0..12)\n"
        "PASS  hermite-from-gaussian-moments  (basis, norms, and recurrence at order 12)\n"
        "PASS  hermite-addition-formula  (mixing weight 3/5, orders 0..8)\n"
        "PASS  conditional-moments-recursion-vs-closed-form  (both sides, orders 0..4)\n"
        "PASS  constant-column-identity  (sum_j pi_nj m_j(y) = rho^n He_n(y))\n"
        "PASS  generating-function-coefficients  "
        "(t^n coefficient of exp(rho y t + t^2(1-rho^2)/2) equals m_n(y)/n!)\n"
        "PASS  leading-coefficient-law  (lead(m_n) = c_n b_nn/a_nn)\n"
        "PASS  grid-hankel-positivity  (default grid, order 2)\n"
        "PASS  necessary-conditions  (truncated 1.148438 vs limit 1.154701)\n"
        "PASS  geometric-coefficients-rank-one  (Hankel collapses beyond d_0 for c_n = rho^n)\n"
        "PASS  kernel-vs-density  (max deviation 6.542e-10 on the integer grid, 30 terms)\n"
        "PASS  full-order-check  (passes on the reference family, catches a degree-deficient h_2)\n"
        "PASS  positivity-certificates  "
        "(refutes the odd-coefficient control, certifies the Gaussian family)\n"
        "13/13 checks passed\n",
    ),
}


def report_argv(tmp_path, name):
    """The argv of ``TEXT_REPORTS[name]``, with its input files written under ``tmp_path``."""
    problem = preset_problem("mehler", 4, F(1, 2)).to_json_dict()
    problem["coeffs"] = ["1/1", "2/1", "4/1", "8/1", "16/1"]
    inputs = {
        "odd": {"label": "odd", "values": ["0/1", "1/1", "0/1"]},
        "certified": {"basis": "hermite", "order": 4, "coeffs": ["1/1", "0/1", "1/10"]},
        "refuted": {"basis": "hermite", "order": 2, "coeffs": ["0/1", "1/1", "0/1"]},
        # the Hermite series of a point mass at 0: c_n = He_n(0) / n!
        "degenerate": {"basis": "hermite", "order": 4, "coeffs": ["1/1", "0/1", "-1/2", "0/1", "1/8"]},
        "problem": problem,
        # the default grids in the file, overridden by --grid
        "mehler": preset_problem("mehler", 4, F(1, 2)).to_json_dict(),
    }
    paths = {}
    for key, doc in inputs.items():
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(doc))
    return [arg.format(**paths) for arg in TEXT_REPORTS[name][0]]


@pytest.mark.parametrize("name", sorted(TEXT_REPORTS))
def test_text_report_bytes(capsys, tmp_path, name):
    _, want_code, want_out = TEXT_REPORTS[name]
    code, out, err = run(capsys, *report_argv(tmp_path, name))
    assert (code, out, err) == (want_code, want_out, "")


def first_negative_order(report):
    """The verdict of a PmReport JSON dict: None if pm, else the first negative order."""
    k = report["is_pm_to_order"]
    return None if k == len(report["hankel_dets"]) - 1 else k + 1


def text_from_json(command, doc):
    """The lines of the text report that carry the same fields as the JSON report ``doc``."""
    if command == "check-pm":
        rep = doc["report"]
        first_negative = first_negative_order(rep)
        yes = {True: "yes", False: "no"}
        return [
            f"sequence: {doc['sequence']}",
            f"tested order: {doc['order']}",
            "hankel determinants: " + ", ".join(rep["hankel_dets"]),
            "shifted determinants: " + ", ".join(rep["shifted_dets"]),
            f"pm to order: {rep['is_pm_to_order']}",
            f"strictly positive: {yes[rep['strictly_positive']]}",
            f"nonnegative-support compatible: {yes[rep['nonneg_support']]}",
            *(f"note: {note}" for note in rep["notes"]),
            "verdict: "
            + ("pm" if first_negative is None else f"not pm (first negative at order {first_negative})"),
        ]
    if command == "certify":
        dets, values = doc["pm_report"]["hankel_dets"], doc["recovered_moments"]["values"]
        order = len(dets) - 1
        return [
            f"series over basis of order {len(values) - 1}, Hankel battery to order {order}",
            "recovered moments: " + ", ".join(values[: 2 * order + 1]),
            "hankel determinants: " + ", ".join(dets),
            f"verdict: {doc['verdict_label']}",
            *(f"note: {note}" for note in doc["notes"]),
        ]
    if command == "lancaster":
        verdicts, flags = doc["grid_verdicts"], doc["pc_flags"]
        problem_order = len(doc["conditional_moments_a"]) - 1
        lines = [
            f"expansion problem of order {problem_order}, grid Hankel order {doc['order']}",
            f"grid points tested: {len(verdicts)}",
            f"full-order flags: {sum(flags)}/{len(flags)} pass",
        ]
        for v in verdicts:
            k = first_negative_order(v["report"])
            mark = "ok" if k is None else f"NEGATIVE at order {k}"
            lines.append(f"  side {v['side']} @ {v['point']}: {mark}")
        return lines + [f"verdict: {doc['verdict_label']}"]
    assert command == "mehler-demo"
    checks = doc["checks"]
    return [
        f"reference battery at rho = {doc['rho']}, order {doc['order']}",
        *(
            ("PASS" if c["passed"] else "FAIL") + f"  {c['name']}"
            + (f"  ({c['detail']})" if c["detail"] else "")
            for c in checks
        ),
        f"{sum(c['passed'] for c in checks)}/{len(checks)} checks passed",
    ]


@pytest.mark.parametrize("name", sorted(TEXT_REPORTS))
def test_text_and_json_reports_agree(capsys, tmp_path, name):
    # every number, label and mark of a text report is the matching field of the JSON report
    argv = report_argv(tmp_path, name)
    text_code, text, _ = run(capsys, *argv, "--text")
    json_code, out, _ = run(capsys, *argv, "--json")
    assert text_code == json_code
    assert text.splitlines() == text_from_json(argv[0], json.loads(out))


def returned_verdicts(monkeypatch):
    """The list of verdicts that the commands hand back to ``main``, last call last."""
    seen = []

    def keep(command):
        def wrapper(args):
            seen.append(command(args))
            return seen[-1]
        return wrapper

    for name in ("_cmd_check_pm", "_cmd_certify", "_cmd_lancaster", "_cmd_mehler_demo"):
        monkeypatch.setattr(cli, name, keep(getattr(cli, name)))
    monkeypatch.setattr(cli, "_parser", build_parser)  # a parser bound to the wrappers
    return seen


# 12/13 checks pass: the kernel tolerance at the term cap exceeds every density value
FAILING_DEMO = ("mehler-demo", "--rho=99/100", "--order", "10")


@pytest.mark.parametrize("name", [*sorted(TEXT_REPORTS), "mehler-demo-failing"])
def test_every_command_exits_by_its_verdict(capsys, tmp_path, monkeypatch, name):
    # one rule for every command: exit 1 exactly when the verdict is refuted
    argv = report_argv(tmp_path, name) if name in TEXT_REPORTS else list(FAILING_DEMO)
    want_code = TEXT_REPORTS[name][1] if name in TEXT_REPORTS else 1
    seen = returned_verdicts(monkeypatch)
    code, text, err = run(capsys, *argv, "--text")
    (verdict,) = seen
    assert (code, err) == (want_code, "")
    assert (verdict.status == "refuted") == (code == 1)
    line = verdict.label if argv[0] == "mehler-demo" else f"verdict: {verdict.label}"
    assert line in text.splitlines()
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err, seen[1:]) == (want_code, "", [verdict])
    doc = json.loads(out)
    if argv[0] == "certify":
        assert (doc["verdict"], doc["verdict_order"], doc["verdict_label"], doc["notes"]) == (
            verdict.status, verdict.order, verdict.label, list(verdict.notes)
        )
    elif argv[0] == "lancaster":
        assert (doc["verdict"], doc["verdict_label"]) == (verdict.status, verdict.label)


@pytest.mark.parametrize("name", sorted(TEXT_REPORTS))
def test_json_payloads_hold_no_record(capsys, tmp_path, monkeypatch, name):
    # _write_json writes any tuple subclass as a list, so a record left in a
    # payload would be written without an error; only plain containers may reach it
    payloads = []
    dump = cli._dump_json
    monkeypatch.setattr(cli, "_dump_json", lambda payload: payloads.append(payload) or dump(payload))
    code, _, err = run(capsys, *report_argv(tmp_path, name), "--json")
    assert (code, err) == (TEXT_REPORTS[name][1], "")
    (payload,) = payloads
    stack = [payload]
    while stack:
        node = stack.pop()
        assert type(node) in (dict, list, tuple), type(node)
        for value in node.values() if type(node) is dict else node:
            if value is not None and type(value) not in (str, int, float, bool):
                stack.append(value)


def test_importing_the_cli_does_not_load_typing():
    # the records are collections.namedtuple subclasses, not typing.NamedTuple:
    # importing typing would cost the start-up of every command a few ms
    src = Path(__file__).resolve().parent.parent / "src"
    probe = "import sys, poslab.cli; print('typing' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == "False\n"
