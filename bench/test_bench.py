"""Tests of the benchmark itself: checks, tracing and the run contract.

    python3 -m pytest bench -q

Rounds are shrunk to the smallest size of each cell, so the suite runs in
seconds.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

RATIONAL = re.compile(r"^-?\d+/\d+$")


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload to its smallest cells."""
    monkeypatch.setattr(workloads, "HANKEL_ORDERS", (4, 6))
    monkeypatch.setattr(workloads, "PRESET_ORDERS", (6,))
    monkeypatch.setattr(workloads, "PERTURBED_CELLS", ((6, 5),))
    monkeypatch.setattr(workloads, "DEMO_ORDERS", (8,))
    monkeypatch.setattr(workloads, "BASIS_ORDERS", (8,))


def _run_round(workload, tmp_path, seed=3):
    cli, requests = run.setup(workload, seed, tmp_path / workload)
    runner = run.Runner(cli, requests)
    runner.round()
    return runner


def _corrupt(code, data):
    """Change one number of a report (or the exit code when there is none)."""
    if data is None:
        return 0, data
    doc = json.loads(data)

    def bump(node):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for k, v in items:
            if isinstance(v, str) and RATIONAL.match(v):
                node[k] = oracle.canonical(Fraction(v) + 1)
                return True
            if isinstance(v, (dict, list)) and bump(v):
                return True
        return False

    assert bump(doc)
    return code, (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_report_passes_and_every_corruption_fails(workload, small, tmp_path):
    runner = _run_round(workload, tmp_path)
    failed, reasons = runner.verify({})
    assert (failed, reasons) == (0, [])
    assert {r.check for r in runner.requests} >= {
        "hankel-sweep": {"pm"},
        "lancaster-grid": {"lancaster", "demo"},
        "basis-roundtrip": {"basis", "connect", "certify", "degenerate"},
    }[workload]
    for i in range(len(runner.requests)):
        saved = runner.first[i]
        runner.first[i] = _corrupt(*saved[:2]) + saved[2:]
        failed, reasons = runner.verify({})
        assert failed == 1 and len(reasons) == 1, runner.requests[i].key
        runner.first[i] = saved


def test_a_crash_a_changed_report_and_a_wrong_digest_are_failures(small, tmp_path):
    runner = _run_round("hankel-sweep", tmp_path)
    req = runner.requests[0]
    code, data, err, _ = runner.first[0]
    assert runner.verify({req.key: f"{code}:{workloads.digest(data)}"})[0] == 0
    assert runner.verify({req.key: f"{code}:0000000000000000"})[0] == 1
    runner.first[0] = (None, None, "", "RuntimeError: boom")
    assert runner.verify({})[0] == 1
    runner.first[0] = (code, data, err, None)
    runner.round()
    runner.mismatched[0] = 1
    assert runner.verify({})[0] == 1


def test_negative_correlations_are_passed_with_an_equals_sign(small, tmp_path):
    requests = workloads.build_round("lancaster-grid", 5, tmp_path)
    rhos = [a for r in requests for a in r.argv if a.startswith("--rho")]
    assert rhos and all(a.startswith("--rho=") for a in rhos)
    assert "--rho" not in [a for r in requests for a in r.argv]


def test_rounds_hold_the_same_cells_for_every_seed(tmp_path):
    def cells(seed):
        requests = workloads.build_round("hankel-sweep", seed, tmp_path / str(seed))
        return sorted((r.params["order"], r.params["refute_at"] is None) for r in requests)

    assert cells(1) == cells(2)


def test_perturbed_sequences_are_refuted_where_they_were_built_to_be(tmp_path):
    requests = workloads.build_round("hankel-sweep", 7, tmp_path)
    for r in requests:
        j = r.params["refute_at"]
        if j is not None:
            report = oracle.pm_report(r.params["values"], r.params["order"])
            assert oracle.first_negative(report) == j


def test_oracle_families_match_poslab(small):
    from poslab.moments import builtin, is_pm
    from poslab.orthopoly import basis_from_moments, hermite

    for key in ("catalan", "factorial", "log_kernel(0)", "fib_ratio"):
        name, _, arg = key.partition("(")
        seq = builtin(name, 13, Fraction(arg.rstrip(")")) if arg else None)
        assert oracle.basis_json(key, 6) == basis_from_moments(seq, 6).to_json_dict()
        assert oracle.pm_report(list(seq.values), 5) == is_pm(seq, 5).to_json_dict()
    assert oracle.hermite_basis_json(7) == hermite(7).to_json_dict()


def _traced_call(argv, tmp_path):
    cli = run._import_poslab()
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        code = cli.main(argv + ["--out", str(tmp_path / "out.json")])
    return code, tracer


def test_span_counts_equal_the_calls_a_lancaster_request_makes(small, tmp_path):
    requests = workloads.build_round("lancaster-grid", 2, tmp_path / "round")
    req = next(r for r in requests if r.argv[1] == "--in")
    points = len(req.params["grid"])
    code, tracer = _traced_call(req.argv[:-2], tmp_path)
    assert code in (0, 1)
    counts = tracer.counts
    # both sides of the grid, plus the coeff_pm and ratio_pm batteries its flags declare
    assert counts["lancaster.grid_points"] == 2 * points
    assert counts["moments.is_pm.calls"] == 2 * points + 2
    assert counts["lancaster.grid_eval.calls"] == 1
    assert counts["lancaster.moment_polynomials.calls"] == 1
    assert "orthopoly.hermite.calls" not in counts  # the families come from the file
    assert counts["cli.main.calls"] == 1


def test_spans_nest_and_self_times_add_up(tmp_path):
    code, tracer = _traced_call(
        ["lancaster", "--preset", "mehler", "--rho=-1/3", "--problem-order", "6", "--json"], tmp_path
    )
    assert code == 0
    counts = tracer.counts
    assert counts["orthopoly.hermite.calls"] == 1
    assert counts["moments.is_pm.calls"] == 2 * len(workloads.DEFAULT_GRID) + 2
    by_id = {s[0]: s for s in tracer.spans}
    root = [s for s in tracer.spans if s[1] is None]
    assert [s[2] for s in root] == ["cli.main"]
    for span_id, parent, name, request, start, end, self_s in tracer.spans:
        assert 0 <= self_s <= end - start
        if parent is not None:
            assert by_id[parent][4] <= start <= end <= by_id[parent][5]
    total = sum(s[6] for s in tracer.spans)
    assert total <= root[0][5] - root[0][4] + 1e-9


def test_tracing_patches_every_binding_site_and_restores_it():
    cli = run._import_poslab()
    import poslab.lancaster
    import poslab.moments

    original = poslab.moments.is_pm
    with tracing.traced(tracing.Tracer()):
        assert cli.is_pm is poslab.lancaster.is_pm is poslab.moments.is_pm
        assert cli.is_pm is not original
    assert cli.is_pm is poslab.lancaster.is_pm is poslab.moments.is_pm is original


def test_missing_sources_exit_nonzero_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "hankel-sweep", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
