"""Output checks: each returns None for a correct report, or the reason it is wrong.

A checker receives the request, the exit code of ``main(argv)``, the bytes
of its ``--out`` file (None when no file was written) and what it printed
on stderr.  Expected answers come from :mod:`oracle`, never from poslab.
"""

from __future__ import annotations

import json
from fractions import Fraction

import oracle


def _load(out: bytes | None):
    if out is None:
        raise ValueError("no report written")
    return json.loads(out)


def check_pm(req, code, out, err):
    p = req.params
    expected = oracle.pm_report(p["values"], p["order"])
    negative = oracle.first_negative(expected)
    if negative != p["refute_at"]:
        return f"oracle: first negative order {negative}, inputs were built for {p['refute_at']}"
    want = 0 if negative is None else 1
    if code != want:
        return f"exit code {code}, expected {want}"
    got = _load(out)
    if got != {"sequence": p["label"], "order": p["order"], "report": expected}:
        return "report differs from the independent determinants"
    return None


def check_lancaster(req, code, out, err):
    p = req.params
    expected = oracle.hermite_lancaster_report(p["coeffs"], p["grid"])
    if p["must_be_positive"] and expected["verdict"] != "positive":
        return "oracle refutes a mehler expansion"
    want = 1 if expected["verdict"] == "refuted" else 0
    if code != want:
        return f"exit code {code}, expected {want}"
    if _load(out) != expected:
        return "report differs from the Hermite closed form"
    return None


def check_demo(req, code, out, err):
    got = _load(out)
    if code != 0 or got.get("all_passed") is not True:
        return f"exit code {code}, all_passed {got.get('all_passed')}"
    if not got["checks"] or not all(c["passed"] for c in got["checks"]):
        return "a reference check failed"
    if got["rho"] != oracle.canonical(req.params["rho"]) or got["order"] != req.params["order"]:
        return "rho or order echoed wrongly"
    return None


def check_basis(req, code, out, err):
    if code != 0:
        return f"exit code {code}, expected 0"
    if _load(out) != req.params["expected"]:
        return "basis differs from the independent family"
    return None


def check_degenerate(req, code, out, err):
    stop = req.params["stop"]
    if code != 1:
        return f"exit code {code}, expected 1"
    if out is not None:
        return "a report was written for a degenerate measure"
    if f"Hankel determinant d_{stop} " not in err or "is zero" not in err:
        return f"stderr does not name the zero determinant d_{stop}: {err.strip()!r}"
    return None


def _combine(row, polys):
    acc = [Fraction(0)] * len(polys[len(row) - 1])
    for g, poly in zip(row, polys):
        for i, c in enumerate(poly):
            acc[i] += g * c
    return acc


def check_connect(req, code, out, err):
    if code != 0:
        return f"exit code {code}, expected 0"
    got = _load(out)
    source, target = req.params["source"], req.params["target"]
    if got.get("from_basis") != source or got.get("to_basis") != target:
        return "embedded bases differ from the input files"
    polys_from = oracle.poly_rows(source)
    polys_to = oracle.poly_rows(target)
    gamma = got["gamma"]
    if len(gamma) != len(polys_from):
        return f"{len(gamma)} gamma rows for {len(polys_from)} polynomials"
    for n, row in enumerate(gamma):
        if len(row) != n + 1 or _combine([Fraction(g) for g in row], polys_to) != polys_from[n]:
            return f"gamma row {n} does not rebuild the source polynomial"
    return None


def check_certify(req, code, out, err):
    got = _load(out)
    basis, coeffs, order = req.params["basis"], req.params["coeffs"], req.params["order"]
    pi = oracle.poly_rows(basis)
    norms = [Fraction(h) for h in basis["norms"]]
    moments = [Fraction(v) for v in got["recovered_moments"]["values"]]
    if got["recovered_moments"]["label"] != "recovered" or len(moments) != len(pi):
        return "recovered moments are mislabelled or of the wrong length"
    # coefficients_from_moments: c_n = sum_j pi_{n,j} M_j / norm_n must give the input back
    back = [sum((c * moments[j] for j, c in enumerate(row)), Fraction(0)) / norms[n]
            for n, row in enumerate(pi)]
    if back != coeffs + [Fraction(0)] * (len(pi) - len(coeffs)):
        return "recovered moments do not map back to the input coefficients"
    report = oracle.pm_report(moments[: 2 * order + 1], order)
    negative = oracle.first_negative(report)
    zero = next((k for k, d in enumerate(report["hankel_dets"]) if Fraction(d) == 0), None)
    if negative is not None:
        verdict, vorder, label = "refuted", negative, f"refuted-at-order {negative}"
        notes = [f"necessary condition violated: d_{negative} < 0"]
    elif zero is not None:
        verdict, vorder, label = "degenerate", zero, f"degenerate-at-order {zero}"
        notes = [f"d_{zero} = 0: the limit measure may have finite support; not a refutation"]
    else:
        verdict, vorder, label, notes = "certified", order, f"certified-to-order {order}", []
    if code != (1 if verdict == "refuted" else 0):
        return f"exit code {code} for verdict {verdict}"
    if (got["pm_report"], got["verdict"], got["verdict_order"], got["verdict_label"], got["notes"]) != (
        report, verdict, vorder, label, notes
    ):
        return "battery or verdict differs from the independent determinants"
    if len(got["rm_partials"]) != len(coeffs):
        return "one Rademacher-Menshov partial sum per coefficient expected"
    return None


CHECKS = {
    "pm": check_pm,
    "lancaster": check_lancaster,
    "demo": check_demo,
    "basis": check_basis,
    "degenerate": check_degenerate,
    "connect": check_connect,
    "certify": check_certify,
}


def check(req, code: int, out: bytes | None, err: str) -> str | None:
    """Run the request's checker; a malformed report is a failure, never a crash."""
    try:
        return CHECKS[req.check](req, code, out, err)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError, ZeroDivisionError) as exc:
        return f"unreadable report: {type(exc).__name__}: {exc}"
