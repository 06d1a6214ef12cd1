"""Command-line front end: batch commands with deterministic JSON or text reports.

Exit codes separate mathematics from operations so scripts can sweep
parameter spaces:

    0  success (certified / positive / completed)
    1  a refuted verdict, or a degenerate input measure -- a valid mathematical outcome
    2  input, schema, or usage error
    3  insufficient moments / order, or a report value past the int-string or float range

Each command returns its verdict (None if it has none) and its report: the
JSON payload dict, or the text itself under ``--text``.  :func:`main` is the
one writer of every report, to stdout or ``--out``, and reads the exit code
off the verdict.  A report depends only on the arguments and the input
files, so identical inputs always produce byte-identical reports (JSON ones
by :func:`_dump_json`, which writes each list of strings with one
``join``); float diagnostics are written at 17 significant digits by
:func:`poslab.rationals.float_str`.  Rationals are accepted only as
strings in one ASCII grammar, "p/q", "p" or an exact decimal like "0.3",
read alike on every Python version: JSON numbers, booleans and exponent
notation are rejected, and so is a repeated key.  A schema error
in an input file reads ``FILE: $.field[i]: reason``; each file is read by
the reader beside its type, where every object passes
:func:`poslab.rationals.json_object` (an object, with no unknown key).
``--grid`` reads every comma-separated part; an empty grid, there or in a
file, is an error; leave it out for the default grid.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .errors import (
    DegenerateMeasureError,
    InsufficientMomentsError,
    PoslabError,
    ReportLimitError,
    SchemaError,
)
from .lancaster import (
    lancaster_report,
    mehler_demo_battery,
    parse_problem_json,
    preset_names,
    preset_problem,
)
from .moments import (
    POSITIVE, REFUTED, MomentSequence, PmReport, Verdict, builtin, catalog_entries, is_pm,
    parse_catalog_key,
)
from .orthopoly import OrthoBasis, basis_from_moments, connection
from .positivity import OrthogonalSeries, certify_positive
from .rationals import rat, rat_str, rational_list

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INPUT = 2
EXIT_INSUFFICIENT = 3


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            Path(out_path).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise SchemaError(f"{out_path}: cannot write the report ({exc})")
    else:
        sys.stdout.write(text)


def _dump_json(payload: dict) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    With ``indent`` set, ``json.dumps`` runs the pure-Python encoder; this
    writer walks the payload itself instead (tuples as lists) and writes
    each list of strings with one ``join`` over the C string encoder of
    :mod:`json`.  Booleans, ``None`` and plain ints are written as the
    encoder writes them (``int.__repr__``); every other scalar, floats with
    ``NaN``/``Infinity`` among them, goes through ``json.dumps`` itself.
    """
    out: list[str] = []
    _write_json(payload, "\n", out)
    out.append("\n")
    return "".join(out)


_JSON_LITERALS = {True: "true", False: "false", None: "null"}


def _write_json(value, newline: str, out: list[str]) -> None:
    """Append ``value`` to ``out`` at the indent that ``newline`` ("\\n" and spaces) ends in."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write_json(value[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        try:
            out.append("[" + inner + ("," + inner).join(map(encode_basestring_ascii, value)))
        except TypeError:  # an item that is not a string
            sep = "[" + inner
            for item in value:
                out.append(sep)
                _write_json(item, inner, out)
                sep = "," + inner
        out.append(newline + "]")
    elif value is True or value is False or value is None:
        out.append(_JSON_LITERALS[value])
    elif type(value) is int:
        out.append(int.__repr__(value))
    else:
        out.append(json.dumps(value))


def _unique_keys(pairs) -> dict:
    """The ``object_pairs_hook`` of input files: a repeated key is an error, not an overwrite."""
    out = dict(pairs)
    if len(out) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"duplicate key {next(k for i, k in enumerate(keys) if k in keys[:i])!r}")
    return out


def _load_json(path: str):
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: cannot read input file ({exc})")
    try:
        return json.loads(raw, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        # bad syntax, a repeated key, a number past the int-string limit, or nesting too deep
        raise SchemaError(f"{path}: not valid JSON ({exc})")


def _load(path: str, loader):
    """``loader(data, "$")`` on the JSON file at ``path``; schema errors name the file first."""
    data = _load_json(path)
    try:
        return loader(data, "$")
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _parse_grid(text: str) -> tuple[Fraction, ...]:
    """Every comma-separated part of ``--grid``; commas and blanks alone are an empty grid."""
    return rational_list(text.split(",") if text.replace(",", "").strip() else [], "--grid")


def _pm_text(label: str, order: int, report: PmReport) -> str:
    doc = report.to_json_dict()
    lines = [
        f"sequence: {label}",
        f"tested order: {order}",
        "hankel determinants: " + ", ".join(doc["hankel_dets"]),
        "shifted determinants: " + ", ".join(doc["shifted_dets"]),
        f"pm to order: {report.is_pm_to_order}",
        f"strictly positive: {'yes' if report.strictly_positive else 'no'}",
        f"nonnegative-support compatible: {'yes' if report.nonneg_support else 'no'}",
    ]
    verdict = report.verdict
    lines += [f"note: {note}" for note in verdict.notes]
    lines.append(f"verdict: {verdict.label}")
    return "\n".join(lines) + "\n"


def _cmd_catalog(args) -> tuple[None, dict | str]:
    entries = catalog_entries()
    if args.json:
        return None, {
            "catalog": [
                {"name": e.name, "description": e.description, "parameter": e.param_name or None}
                for e in entries
            ]
        }
    width = max(len(e.name) for e in entries) + 2
    lines = ["builtin moment sequences:"]
    for e in entries:
        key = e.name + (f"({e.param_name})" if e.needs_param else "")
        lines.append(f"  {key:<{width + 3}} {e.description}")
    return None, "\n".join(lines) + "\n"


def _sequence_from_args(args, needed: int) -> MomentSequence:
    if args.seq and args.infile:
        raise SchemaError("give either --seq or --in, not both")
    if args.seq:
        name, param = parse_catalog_key(args.seq)
        return builtin(name, needed, param)
    if args.infile:
        return _load(args.infile, MomentSequence.from_json_dict)
    raise SchemaError("a sequence is required: pass --seq KEY or --in FILE")


def _cmd_check_pm(args) -> tuple[Verdict, dict | str]:
    seq = _sequence_from_args(args, needed=2 * args.order + 2)
    report = is_pm(seq, args.order)
    if args.json:
        return report.verdict, {
            "sequence": seq.label, "order": args.order, "report": report.to_json_dict()
        }
    return report.verdict, _pm_text(seq.label or "(unlabeled)", args.order, report)


def _cmd_build_basis(args) -> tuple[None, dict]:
    seq = _sequence_from_args(args, needed=2 * args.order + 1)
    return None, basis_from_moments(seq, args.order).to_json_dict()


def _cmd_connect(args) -> tuple[None, dict]:
    from_basis = _load(args.infile, OrthoBasis.from_json_dict)
    to_basis = _load(args.to, OrthoBasis.from_json_dict)
    return None, connection(from_basis, to_basis).to_json_dict()


def _load_series(path: str) -> OrthogonalSeries:
    return _load(path, OrthogonalSeries.from_json_dict)


def _cmd_certify(args) -> tuple[Verdict, dict | str]:
    series = _load_series(args.infile)
    order = args.order if args.order is not None else series.basis.order // 2
    cert = certify_positive(series, order)
    verdict = cert.verdict
    if args.json:
        return verdict, cert.to_json_dict()
    lines = [
        f"series over basis of order {series.basis.order}, Hankel battery to order {order}",
        "recovered moments: "
        + ", ".join(cert.recovered_moments.prefix(2 * order + 1).to_json_dict()["values"]),
        "hankel determinants: " + ", ".join(cert.pm_report.to_json_dict()["hankel_dets"]),
        f"verdict: {verdict.label}",
        *(f"note: {note}" for note in verdict.notes),
    ]
    return verdict, "\n".join(lines) + "\n"


def _cmd_lancaster(args) -> tuple[Verdict, dict | str]:
    if args.infile and args.preset:
        raise SchemaError("give either --in or --preset, not both")
    grid = _parse_grid(args.grid) if args.grid is not None else None
    if args.infile:
        if args.rho is not None or args.problem_order is not None:
            raise SchemaError("--rho and --problem-order apply only to --preset")
        problem = _load(args.infile, functools.partial(parse_problem_json, grid=grid))
    elif args.preset:
        rho = rat(args.rho) if args.rho is not None else None
        order = args.problem_order if args.problem_order is not None else 10
        problem = preset_problem(args.preset, order, rho, grid)
    else:
        raise SchemaError("a problem is required: pass --in FILE or --preset NAME")
    report = lancaster_report(problem, args.order)
    verdict = report.verdict
    if args.json:
        return verdict, report.to_json_dict()
    lines = [
        f"expansion problem of order {problem.order}, grid Hankel order {report.order}",
        f"grid points tested: {len(report.grid_verdicts)}",
        f"full-order flags: {sum(report.pc_flags)}/{len(report.pc_flags)} pass",
    ]
    for v in report.grid_verdicts:
        mark = "ok" if v.report.is_pm else f"NEGATIVE at order {v.report.first_negative_order}"
        lines.append(f"  side {v.side} @ {rat_str(v.point)}: {mark}")
    lines.append(f"verdict: {verdict.label}")
    return verdict, "\n".join(lines) + "\n"


def _cmd_mehler_demo(args) -> tuple[Verdict, dict | str]:
    rho = rat(args.rho)
    results = mehler_demo_battery(rho, args.order)
    passed = sum(r.passed for r in results)
    status = POSITIVE if passed == len(results) else REFUTED
    verdict = Verdict(status, args.order, f"{passed}/{len(results)} checks passed")
    if args.json:
        return verdict, {
            "rho": rat_str(rho),
            "order": args.order,
            "checks": [r._asdict() for r in results],
            "all_passed": status == POSITIVE,
        }
    lines = [f"reference battery at rho = {rat_str(rho)}, order {args.order}"]
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        detail = f"  ({r.detail})" if r.detail else ""
        lines.append(f"{tag}  {r.name}{detail}")
    lines.append(verdict.label)
    return verdict, "\n".join(lines) + "\n"


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


def _order(text: str) -> int:
    """argparse type of every ``--order`` and ``--problem-order``: a nonnegative ASCII integer."""
    try:
        value = int(text) if re.fullmatch(r"[+-]?[0-9]+", text.strip()) else -1
    except ValueError:  # past the int-string limit
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="poslab",
        description="Exact finite-order positivity tests for orthogonal series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", metavar="FILE", help="write the report here instead of stdout")

    def add_common(p):
        add_out(p)
        group = p.add_mutually_exclusive_group()
        group.add_argument("--json", action="store_true", help="JSON report")
        group.add_argument("--text", dest="json", action="store_false", help="text report")

    p = sub.add_parser("catalog", help="list the builtin moment sequences")
    add_common(p)
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("check-pm", help="Hankel positivity test for a moment sequence")
    p.add_argument("--seq", metavar="KEY", help="catalog key, e.g. catalan or geometric(2)")
    p.add_argument("--in", dest="infile", metavar="FILE", help="moment sequence JSON file")
    p.add_argument("--order", type=_order, required=True, help="deepest Hankel order to test")
    add_common(p)
    p.set_defaults(func=_cmd_check_pm)

    p = sub.add_parser("build-basis", help="orthogonal polynomial family from moments")
    p.add_argument("--seq", metavar="KEY", help="catalog key")
    p.add_argument("--in", dest="infile", metavar="FILE", help="moment sequence JSON file")
    p.add_argument("--order", type=_order, required=True, help="highest polynomial order")
    add_out(p)
    p.set_defaults(func=_cmd_build_basis, json=True)

    p = sub.add_parser("connect", help="connection coefficients between two basis files")
    p.add_argument("--in", dest="infile", metavar="FILE", required=True, help="source basis JSON")
    p.add_argument("--to", metavar="FILE", required=True, help="target basis JSON")
    add_out(p)
    p.set_defaults(func=_cmd_connect, json=True)

    p = sub.add_parser("certify", help="finite-order nonnegativity certificate for a series")
    p.add_argument("--in", dest="infile", metavar="FILE", required=True, help="series JSON file")
    p.add_argument("--order", type=_order, help="Hankel order (default: half the basis order)")
    add_common(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("lancaster", help="grid positivity test for a bivariate expansion")
    p.add_argument("--in", dest="infile", metavar="FILE", help="problem JSON file")
    p.add_argument(
        "--preset", choices=preset_names(), help="stock Hermite/Hermite problem"
    )
    p.add_argument("--rho", metavar="P/Q", help="correlation for the mehler preset")
    p.add_argument(
        "--problem-order", type=_order, help="expansion order for presets (default 10)"
    )
    p.add_argument("--order", type=_order, help="Hankel order per grid point (default: half)")
    p.add_argument("--grid", metavar="Q1,Q2,...", help="rational grid points for both sides")
    add_common(p)
    p.set_defaults(func=_cmd_lancaster)

    p = sub.add_parser("mehler-demo", help="run the exact-identity reference battery")
    p.add_argument("--rho", metavar="P/Q", default="1/2", help="correlation (default 1/2)")
    p.add_argument("--order", type=_order, default=10, help="deepest order exercised (default 10)")
    add_common(p)
    p.set_defaults(func=_cmd_mehler_demo)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: built on the first request, not at import.

    Nothing in it depends on the request, and argparse keeps no state
    between ``parse_args`` calls; ``build_parser`` returns a fresh one.
    """
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching the input-error convention
        return int(exc.code or 0)
    try:
        # a command returns its verdict (None if it has none) and the report that main writes
        verdict, report = args.func(args)
        _emit(_dump_json(report) if args.json else report, args.out)
    except (InsufficientMomentsError, ReportLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT
    except DegenerateMeasureError as exc:
        print(f"refused by the mathematics: {exc}", file=sys.stderr)
        return EXIT_REFUTED
    except (PoslabError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_REFUTED if verdict is not None and verdict.status == REFUTED else EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
