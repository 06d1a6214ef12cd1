import json
from fractions import Fraction as F

import pytest

from poslab.cli import main
from poslab.lancaster import preset_problem
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

    def test_insufficient_moments_exit_three(self, capsys, tmp_path):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps({"label": "short", "values": ["1/1", "0/1", "1/1"]}))
        code, _, err = run(capsys, "check-pm", "--in", str(path), "--order", "5")
        assert code == 3 and "needs 11 moments" in err

    def test_schema_error_names_path_and_field(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"label": "x", "values": ["1/1", None]}))
        code, _, err = run(capsys, "check-pm", "--in", str(path), "--order", "0")
        assert code == 2
        assert str(path) in err and "values[1]" in err


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

    def test_degenerate_input_exits_one(self, capsys):
        code, _, err = run(capsys, "build-basis", "--seq", "geometric(2)", "--order", "3")
        assert code == 1
        assert "d_1" in err

    def test_hermite_basis_content(self, capsys, tmp_path):
        out_path = tmp_path / "basis.json"
        run(capsys, "build-basis", "--seq", "gaussian", "--order", "3", "--out", str(out_path))
        doc = json.loads(out_path.read_text())
        assert doc["pi"][3] == ["0/1", "-3/1", "0/1", "1/1"]
        assert doc["norms"] == ["1/1", "1/1", "2/1", "6/1"]


class TestCertify:
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
        assert code == 2 and "coeffs" in err and str(path) in err


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
        assert code == 2 and "--grid" in err


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


class TestDeterminism:
    def test_identical_inputs_identical_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["lancaster", "--preset", "mehler", "--rho", "1/2", "--problem-order", "8", "--json"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_precision_env_var_controls_float_digits(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "series.json"
        path.write_text(json.dumps({"basis": "hermite", "order": 6, "coeffs": ["1/1", "1/3"]}))
        monkeypatch.setenv("POSLAB_PRECISION", "4")
        code, out, _ = run(capsys, "certify", "--in", str(path), "--order", "3", "--json")
        partials = json.loads(out)["rm_partials"]
        digits = partials[-1].replace("-", "").replace(".", "").split("e")[0].lstrip("0")
        assert len(digits) <= 4

    def test_bad_precision_rejected(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "series.json"
        path.write_text(json.dumps({"basis": "hermite", "order": 4, "coeffs": ["1/1"]}))
        monkeypatch.setenv("POSLAB_PRECISION", "zero")
        code, _, err = run(capsys, "certify", "--in", str(path), "--order", "2", "--json")
        assert code == 2 and "POSLAB_PRECISION" in err


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
