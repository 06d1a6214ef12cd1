"""Independent exact answers for checking poslab reports.

Nothing here imports poslab: every expected value is recomputed from
closed forms or from algorithms other than the ones poslab runs, so a
defect in the code under test cannot also hide in its own check.

* Hankel determinants: one fraction-free elimination pass over the largest
  matrix yields every leading principal minor as a pivot (poslab instead
  runs a separate Bareiss elimination per order).  A zero pivot falls back
  to an elimination with row exchanges per remaining minor.
* Orthogonal families: Chebyshev's algorithm on ordinary moments (poslab
  runs the Stieltjes walk on polynomial products); Hermite from the
  explicit sum formula.
* Conditional moments of a Hermite/Hermite expansion: the closed form
  m_n(y) = sum_{k = n mod 2, k <= n} c_k He_k(y) n! / (2^j j! k!), j = (n-k)/2,
  which follows from x^n = sum_k n!/(2^j j! k!) He_k(x) (poslab runs the
  coupled triangular recursion instead).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm


def canonical(q: Fraction) -> str:
    """The report wire form of a rational: always "p/q"."""
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# Catalog sequences, from their closed forms
# ---------------------------------------------------------------------------

def _fib(count: int) -> list[int]:
    out, a, b = [], 1, 1
    for _ in range(count):
        out.append(a)
        a, b = b, a + b
    return out


def _double_factorial_odd(n: int) -> int:
    """(n-1)!! for even n >= 0."""
    out = 1
    for k in range(n - 1, 1, -2):
        out *= k
    return out


def catalog_values(key: str, length: int) -> list[Fraction]:
    """First ``length`` moments of a catalog key such as ``catalan`` or ``geometric(2)``."""
    name, _, arg = key.partition("(")
    if name == "catalan":
        return [Fraction(comb(2 * n, n), n + 1) for n in range(length)]
    if name == "gaussian":
        return [Fraction(0 if n % 2 else _double_factorial_odd(n)) for n in range(length)]
    if name == "factorial":
        return [Fraction(factorial(n)) for n in range(length)]
    if name == "fib_ratio":
        return [Fraction(f, n + 1) for n, f in enumerate(_fib(length))]
    if name == "fib_even":
        fib = _fib(2 * length + 1)
        return [Fraction(fib[2 * n + 1], n + 1) for n in range(length)]
    if name == "fib_shift":
        return [Fraction(f) for f in _fib(length)]
    if name == "log_kernel":
        e = int(arg.rstrip(")")) + 1
        return [Fraction(1, (n + 1) ** e) for n in range(length)]
    if name == "geometric":
        a = Fraction(arg.rstrip(")"))
        return [a**n for n in range(length)]
    raise ValueError(f"no closed form for catalog key {key!r}")


def catalog_label(key: str) -> str:
    """The label poslab gives a catalog sequence: the name, with the parameter as a Fraction."""
    name, _, arg = key.partition("(")
    if not arg:
        return name
    return f"{name}({Fraction(arg.rstrip(')'))})"


# ---------------------------------------------------------------------------
# Hankel determinants
# ---------------------------------------------------------------------------

def _det_with_exchanges(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by Gaussian elimination over Q with row exchanges."""
    a = [list(r) for r in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k] != 0), None)
        if p is None:
            return Fraction(0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                for j in range(k + 1, n):
                    a[i][j] -= f * a[k][j]
    return det


def hankel_minors(values, count: int) -> list[Fraction]:
    """d_k = det[values[i+j]]_{0<=i,j<=k} for k = 0..count-1."""
    if count <= 0:
        return []
    vals = list(values[: 2 * count - 1])
    scale = 1
    for v in vals:
        scale = lcm(scale, v.denominator)
    a = [[int(vals[i + j] * scale) for j in range(count)] for i in range(count)]
    out: list[Fraction] = []
    prev = 1
    for k in range(count):
        pivot = a[k][k]
        if pivot == 0:
            break
        out.append(Fraction(pivot, scale ** (k + 1)))
        for i in range(k + 1, count):
            for j in range(k + 1, count):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
        prev = pivot
    for k in range(len(out), count):
        out.append(_det_with_exchanges([[vals[i + j] for j in range(k + 1)] for i in range(k + 1)]))
    return out


def pm_report(values, order: int) -> dict:
    """The JSON ``PmReport`` poslab must print for ``is_pm(values, order)``."""
    dets = hankel_minors(values, order + 1)
    shifted_max = min(order, (len(values) - 2) // 2)
    shifted = hankel_minors(values[1:], shifted_max + 1)
    pm_order = -1
    for k, d in enumerate(dets):
        if d < 0:
            break
        pm_order = k
    notes = []
    zero = next((k for k, d in enumerate(dets[: pm_order + 1]) if d == 0), None)
    if zero is not None:
        notes.append(f"zero Hankel determinant at order {zero}: finite support possible")
    return {
        "hankel_dets": [canonical(d) for d in dets],
        "shifted_dets": [canonical(d) for d in shifted],
        "is_pm_to_order": pm_order,
        "strictly_positive": all(d > 0 for d in dets),
        "nonneg_support": all(d >= 0 for d in shifted),
        "notes": notes,
    }


def first_negative(report: dict) -> int | None:
    return next((k for k, d in enumerate(report["hankel_dets"]) if Fraction(d) < 0), None)


# ---------------------------------------------------------------------------
# Orthogonal families
# ---------------------------------------------------------------------------

def hermite_polys(order: int) -> list[list[Fraction]]:
    """He_0..He_order as monomial coefficient rows, from the explicit sum formula."""
    rows = []
    for n in range(order + 1):
        row = [Fraction(0)] * (n + 1)
        for m in range(n // 2 + 1):
            row[n - 2 * m] = Fraction(
                (-1) ** m * factorial(n), 2**m * factorial(m) * factorial(n - 2 * m)
            )
        rows.append(row)
    return rows


def chebyshev_recurrence(moments, order: int):
    """Monic recurrence of the measure behind ``moments`` (Chebyshev's algorithm).

    Returns (a, b, h): pi_{k+1} = (x - a_k) pi_k - b_k pi_{k-1} for k < order,
    with b_0 = 0, and h_k = <pi_k, pi_k> for k <= order.  Needs moments
    m_0..m_{2 order}; returns None on a nonpositive h_k.
    """
    m = list(moments[: 2 * order + 1])
    prev = [Fraction(0)] * len(m)
    cur = list(m)
    a, b, h = [], [], []
    for k in range(order + 1):
        hk = cur[k]
        if hk <= 0:
            return None
        h.append(hk)
        if k == order:
            break
        ak = cur[k + 1] / hk - (prev[k] / h[k - 1] if k else 0)
        bk = hk / h[k - 1] if k else Fraction(0)
        a.append(ak)
        b.append(bk)
        nxt = [Fraction(0)] * len(m)
        for l in range(k + 1, 2 * order - k):
            nxt[l] = cur[l + 1] - ak * cur[l] - bk * prev[l]
        prev, cur = cur, nxt
    return a, b, h


def monic_family(moments, order: int) -> dict | None:
    """The basis JSON (pi, norms, recurrence) poslab must build from ``moments``."""
    rec = chebyshev_recurrence(moments, order)
    if rec is None:
        return None
    a, b, h = rec
    polys = [[Fraction(1)]]
    for k in range(order):
        nxt = [Fraction(0)] + polys[k]
        for j, c in enumerate(polys[k]):
            nxt[j] -= a[k] * c
        if k:
            for j, c in enumerate(polys[k - 1]):
                nxt[j] -= b[k] * c
        polys.append(nxt)
    return {
        "pi": [[canonical(c) for c in row] for row in polys],
        "norms": [canonical(v) for v in h],
        "recurrence": [[canonical(Fraction(1)), canonical(-a[k]), canonical(b[k])] for k in range(order)],
    }


def hermite_basis_json(order: int) -> dict:
    """Probabilists' Hermite basis file, built without poslab."""
    rows = hermite_polys(order)
    return {
        "moments": {
            "label": "gaussian",
            "values": [canonical(v) for v in catalog_values("gaussian", 2 * order + 1)],
        },
        "pi": [[canonical(c) for c in row] for row in rows],
        "norms": [canonical(Fraction(factorial(n))) for n in range(order + 1)],
        "recurrence": [["1/1", "0/1", canonical(Fraction(n))] for n in range(order)],
        "status": "ok",
    }


def basis_json(key: str, order: int) -> dict:
    """Basis file of a catalog key, as ``poslab build-basis`` must write it."""
    if key == "gaussian":
        return hermite_basis_json(order)
    values = catalog_values(key, 2 * order + 1)
    family = monic_family(values, order)
    if family is None:
        raise ValueError(f"{key} has no orthogonal family to order {order}")
    return {
        "moments": {"label": catalog_label(key), "values": [canonical(v) for v in values]},
        **family,
        "status": "ok",
    }


def poly_rows(basis: dict) -> list[list[Fraction]]:
    return [[Fraction(c) for c in row] for row in basis["pi"]]


# ---------------------------------------------------------------------------
# Hermite/Hermite bivariate expansions
# ---------------------------------------------------------------------------

def _strip(row: list[Fraction]) -> list[Fraction]:
    while row and row[-1] == 0:
        row.pop()
    return row


def hermite_conditional_moments(coeffs) -> list[list[Fraction]]:
    """m_n(y) = E[X^n | Y = y] for the density phi(x) sum_k c_k He_k(x) He_k(y) / k!."""
    he = hermite_polys(len(coeffs) - 1)
    out = []
    for n in range(len(coeffs)):
        row = [Fraction(0)] * (n + 1)
        for k in range(n % 2, n + 1, 2):
            j = (n - k) // 2
            w = coeffs[k] * Fraction(factorial(n), 2**j * factorial(j) * factorial(k))
            for i, c in enumerate(he[k]):
                row[i] += w * c
        out.append(_strip(row))
    return out


def _horner(row, y: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(row):
        acc = acc * y + c
    return acc


def hermite_lancaster_report(coeffs, grid) -> dict:
    """The JSON report ``poslab lancaster --json`` must print for a Hermite/Hermite
    problem with every support flag set, ``grid`` on both sides and the default
    Hankel order, at the default 17 significant digits."""
    n = len(coeffs) - 1
    order = n // 2
    cond = hermite_conditional_moments(coeffs)
    verdicts = []
    for side in ("a", "b"):
        for y in grid:
            seq = [_horner(cond[k], y) for k in range(2 * order + 1)]
            verdicts.append({"side": side, "point": canonical(y), "report": pm_report(seq, order)})
    refuted = any(first_negative(v["report"]) is not None for v in verdicts)
    he0 = [row[0] for row in hermite_polys(n)]
    origin = sum(
        (c * he0[k] * he0[k] / factorial(k) for k, c in enumerate(coeffs)), Fraction(0)
    )
    coeff_report = pm_report(list(coeffs), n // 2)
    rows = [[canonical(c) for c in row] for row in cond]
    square_sums, acc = [], Fraction(0)
    for c in coeffs:
        acc += c * c
        square_sums.append(f"{float(acc):.17g}")
    return {
        "conditional_moments_a": rows,
        "conditional_moments_b": rows,
        "grid_verdicts": verdicts,
        "necessary_conditions": {
            "origin_sum": canonical(origin),
            "origin_sign": (origin > 0) - (origin < 0),
            "ratio_pm": coeff_report,
            "coeff_pm": coeff_report,
            "square_sum_partials": square_sums,
        },
        "pc_flags": [c != 0 for c in coeffs],
        "order": order,
        "verdict": "refuted" if refuted else "positive",
        "verdict_label": "refuted" if refuted else f"positive-to-order {order}",
    }
