"""Command-line front end: batch commands with deterministic JSON or text reports.

Exit codes separate mathematics from operations so scripts can sweep
parameter spaces:

    0  success (certified / positive / completed)
    1  refuted or degenerate input measure -- a valid mathematical outcome
    2  input, schema, or usage error
    3  insufficient moments / order for the requested computation

Identical inputs always produce byte-identical reports.  Rationals are
accepted only as "p/q" strings; floats are rejected wherever exactness
matters.  The environment variable POSLAB_PRECISION (default 17) sets the
number of significant digits used for float diagnostics in reports.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

from .errors import (
    DegenerateMeasureError,
    InsufficientMomentsError,
    PoslabError,
    SchemaError,
)
from .lancaster import (
    DEFAULT_GRID,
    lancaster_report,
    mehler_demo_battery,
    parse_problem_json,
    preset_names,
    preset_problem,
)
from .moments import (
    MomentSequence,
    PmReport,
    builtin,
    catalog_entries,
    is_pm,
    parse_catalog_key,
)
from .orthopoly import OrthoBasis, basis_from_moments, connection, hermite
from .positivity import OrthogonalSeries, certify_positive
from .rationals import rat, rat_str

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INPUT = 2
EXIT_INSUFFICIENT = 3


def _float_digits() -> int:
    raw = os.environ.get("POSLAB_PRECISION", "17")
    try:
        digits = int(raw)
    except ValueError:
        raise SchemaError(f"POSLAB_PRECISION: expected an integer, got {raw!r}")
    if not 1 <= digits <= 50:
        raise SchemaError(f"POSLAB_PRECISION: expected 1..50, got {digits}")
    return digits


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _load_json(path: str) -> dict:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read input file ({exc})")
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})")
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: expected a JSON object at the top level")
    return data


def _parse_grid(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(rat(part) for part in text.split(",") if part.strip())
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"--grid: {exc}")


def _pm_text(label: str, order: int, report: PmReport) -> str:
    lines = [
        f"sequence: {label}",
        f"tested order: {order}",
        "hankel determinants: " + ", ".join(rat_str(d) for d in report.hankel_dets),
        "shifted determinants: " + ", ".join(rat_str(d) for d in report.shifted_dets),
        f"pm to order: {report.is_pm_to_order}",
        f"strictly positive: {'yes' if report.strictly_positive else 'no'}",
        f"nonnegative-support compatible: {'yes' if report.nonneg_support else 'no'}",
    ]
    for note in report.notes:
        lines.append(f"note: {note}")
    verdict = "pm" if report.is_pm else f"not pm (first negative at order {report.first_negative_order})"
    lines.append(f"verdict: {verdict}")
    return "\n".join(lines) + "\n"


def _cmd_catalog(args) -> int:
    entries = catalog_entries()
    if args.json:
        payload = {
            "catalog": [
                {
                    "name": e.name,
                    "description": e.description,
                    "parameter": e.param_name or None,
                }
                for e in entries
            ]
        }
        _emit(_dump_json(payload), args.out)
    else:
        width = max(len(e.name) for e in entries) + 2
        lines = ["builtin moment sequences:"]
        for e in entries:
            key = e.name + (f"({e.param_name})" if e.needs_param else "")
            lines.append(f"  {key:<{width + 3}} {e.description}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _sequence_from_args(args, needed: int) -> MomentSequence:
    if args.seq and getattr(args, "infile", None):
        raise SchemaError("give either --seq or --in, not both")
    if args.seq:
        name, param = parse_catalog_key(args.seq)
        return builtin(name, needed, param)
    if getattr(args, "infile", None):
        data = _load_json(args.infile)
        try:
            return MomentSequence.from_json_dict(data, "$")
        except SchemaError as exc:
            raise SchemaError(f"{args.infile}: {exc}")
    raise SchemaError("a sequence is required: pass --seq KEY or --in FILE")


def _cmd_check_pm(args) -> int:
    seq = _sequence_from_args(args, needed=2 * args.order + 2)
    report = is_pm(seq, args.order)
    if args.json:
        payload = {"sequence": seq.label, "order": args.order, "report": report.to_json_dict()}
        _emit(_dump_json(payload), args.out)
    else:
        _emit(_pm_text(seq.label or "(unlabeled)", args.order, report), args.out)
    return EXIT_OK if report.is_pm else EXIT_REFUTED


def _cmd_build_basis(args) -> int:
    seq = _sequence_from_args(args, needed=2 * args.order + 1)
    basis = basis_from_moments(seq, args.order)
    _emit(_dump_json(basis.to_json_dict()), args.out)
    return EXIT_OK


def _load_basis(path: str) -> OrthoBasis:
    data = _load_json(path)
    try:
        return OrthoBasis.from_json_dict(data, "$")
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}")


def _cmd_connect(args) -> int:
    from_basis = _load_basis(args.infile)
    to_basis = _load_basis(args.to)
    cm = connection(from_basis, to_basis)
    _emit(_dump_json(cm.to_json_dict()), args.out)
    return EXIT_OK


def _load_series(path: str) -> OrthogonalSeries:
    data = _load_json(path)
    basis_field = data.get("basis")
    if basis_field == "hermite":
        order = data.get("order")
        if not isinstance(order, int) or order < 0:
            raise SchemaError(f"{path}: field 'order': expected a nonnegative integer with basis 'hermite'")
        basis = hermite(order)
    elif isinstance(basis_field, dict):
        try:
            basis = OrthoBasis.from_json_dict(basis_field, "$.basis")
        except SchemaError as exc:
            raise SchemaError(f"{path}: {exc}")
    else:
        raise SchemaError(f"{path}: field 'basis': expected a basis object or the string 'hermite'")
    raw = data.get("coeffs")
    if not isinstance(raw, list) or not raw:
        raise SchemaError(f"{path}: field 'coeffs': expected a non-empty list of rational strings")
    coeffs = []
    for i, c in enumerate(raw):
        try:
            coeffs.append(rat(c))
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{path}: field 'coeffs[{i}]': {exc}")
    try:
        return OrthogonalSeries(basis, tuple(coeffs))
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}")


def _cmd_certify(args) -> int:
    series = _load_series(args.infile)
    order = args.order if args.order is not None else series.basis.order // 2
    cert = certify_positive(series, order)
    if args.json:
        _emit(_dump_json(cert.to_json_dict(_float_digits())), args.out)
    else:
        lines = [
            f"series over basis of order {series.basis.order}, certified at Hankel order {order}",
            "recovered moments: "
            + ", ".join(rat_str(v) for v in cert.recovered_moments.values[: 2 * order + 1]),
            "hankel determinants: " + ", ".join(rat_str(d) for d in cert.pm_report.hankel_dets),
            f"verdict: {cert.verdict_label}",
        ]
        for note in cert.notes:
            lines.append(f"note: {note}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_REFUTED if cert.verdict == "refuted" else EXIT_OK


def _cmd_lancaster(args) -> int:
    if args.infile and args.preset:
        raise SchemaError("give either --in or --preset, not both")
    if args.infile:
        problem, grid_a, grid_b = parse_problem_json(_load_json(args.infile), args.infile)
    elif args.preset:
        rho = rat(args.rho) if args.rho is not None else None
        problem = preset_problem(args.preset, args.problem_order, rho)
        grid_a = grid_b = DEFAULT_GRID
    else:
        raise SchemaError("a problem is required: pass --in FILE or --preset NAME")
    if args.grid:
        grid_a = grid_b = _parse_grid(args.grid)
    report = lancaster_report(problem, grid_a, grid_b, args.order)
    if args.json:
        _emit(_dump_json(report.to_json_dict(_float_digits())), args.out)
    else:
        lines = [
            f"expansion problem of order {problem.order}, grid Hankel order {report.order}",
            f"grid points tested: {len(report.grid_verdicts)}",
            f"full-order flags: {sum(report.pc_flags)}/{len(report.pc_flags)} pass",
        ]
        for v in report.grid_verdicts:
            mark = "ok" if v.report.is_pm else f"NEGATIVE at order {v.report.first_negative_order}"
            lines.append(f"  side {v.side} @ {rat_str(v.point)}: {mark}")
        lines.append(f"verdict: {report.verdict_label}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_REFUTED if report.verdict == "refuted" else EXIT_OK


def _cmd_mehler_demo(args) -> int:
    results = mehler_demo_battery(rat(args.rho), args.order)
    if args.json:
        payload = {
            "rho": rat_str(rat(args.rho)),
            "order": args.order,
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
            ],
            "all_passed": all(r.passed for r in results),
        }
        _emit(_dump_json(payload), args.out)
    else:
        lines = [f"reference battery at rho = {rat_str(rat(args.rho))}, order {args.order}"]
        for r in results:
            tag = "PASS" if r.passed else "FAIL"
            detail = f"  ({r.detail})" if r.detail else ""
            lines.append(f"{tag}  {r.name}{detail}")
        passed = sum(r.passed for r in results)
        lines.append(f"{passed}/{len(results)} checks passed")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if all(r.passed for r in results) else EXIT_REFUTED


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads "-3/10" and "-1,0,1" as option values.

    Stock argparse takes an argument that starts with "-" and is not a plain
    integer or decimal for an option, so "--rho -3/10" would fail with
    "expected one argument".  No option here starts with a digit,
    so "-" followed by a digit (or by "." and a digit) is always a value.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="poslab",
        description="Exact finite-order positivity tests for orthogonal series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, json_default=False):
        p.add_argument("--out", metavar="FILE", help="write the report here instead of stdout")
        group = p.add_mutually_exclusive_group()
        group.add_argument("--json", action="store_true", default=json_default, help="JSON report")
        group.add_argument("--text", dest="json", action="store_false", help="text report")

    p = sub.add_parser("catalog", help="list the builtin moment sequences")
    add_common(p)
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("check-pm", help="Hankel positivity test for a moment sequence")
    p.add_argument("--seq", metavar="KEY", help="catalog key, e.g. catalan or geometric(2)")
    p.add_argument("--in", dest="infile", metavar="FILE", help="moment sequence JSON file")
    p.add_argument("--order", type=int, required=True, help="deepest Hankel order to test")
    add_common(p)
    p.set_defaults(func=_cmd_check_pm)

    p = sub.add_parser("build-basis", help="orthogonal polynomial family from moments")
    p.add_argument("--seq", metavar="KEY", help="catalog key")
    p.add_argument("--in", dest="infile", metavar="FILE", help="moment sequence JSON file")
    p.add_argument("--order", type=int, required=True, help="highest polynomial order")
    add_common(p, json_default=True)
    p.set_defaults(func=_cmd_build_basis)

    p = sub.add_parser("connect", help="connection coefficients between two basis files")
    p.add_argument("--in", dest="infile", metavar="FILE", required=True, help="source basis JSON")
    p.add_argument("--to", metavar="FILE", required=True, help="target basis JSON")
    add_common(p, json_default=True)
    p.set_defaults(func=_cmd_connect)

    p = sub.add_parser("certify", help="finite-order nonnegativity certificate for a series")
    p.add_argument("--in", dest="infile", metavar="FILE", required=True, help="series JSON file")
    p.add_argument("--order", type=int, help="Hankel order (default: half the basis order)")
    add_common(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("lancaster", help="grid positivity test for a bivariate expansion")
    p.add_argument("--in", dest="infile", metavar="FILE", help="problem JSON file")
    p.add_argument(
        "--preset", choices=preset_names(), help="stock Hermite/Hermite problem"
    )
    p.add_argument("--rho", metavar="P/Q", help="correlation for the mehler preset")
    p.add_argument(
        "--problem-order", type=int, default=10, help="expansion order for presets (default 10)"
    )
    p.add_argument("--order", type=int, help="Hankel order per grid point (default: half)")
    p.add_argument("--grid", metavar="Q1,Q2,...", help="rational grid points for both sides")
    add_common(p)
    p.set_defaults(func=_cmd_lancaster)

    p = sub.add_parser("mehler-demo", help="run the exact-identity reference battery")
    p.add_argument("--rho", metavar="P/Q", default="1/2", help="correlation (default 1/2)")
    p.add_argument("--order", type=int, default=10, help="deepest order exercised (default 10)")
    add_common(p)
    p.set_defaults(func=_cmd_mehler_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching the input-error convention
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InsufficientMomentsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT
    except DegenerateMeasureError as exc:
        print(f"refused by the mathematics: {exc}", file=sys.stderr)
        return EXIT_REFUTED
    except (PoslabError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
