"""Exact rational helpers: parsing, formatting, square roots, small combinatorics.

Scalar quantities that carry mathematical meaning in this package are
``fractions.Fraction`` values; polynomials and moment sequences hold
integer numerators over one denominator, reduced by :func:`lowest_terms`.
Floats are rejected by the parsers: a float argument is almost always a
silent loss of exactness.
:func:`json_object` is the one check of a JSON input object: an object,
with no key outside the reader's list.
:func:`_rat_pair` is the one parser of rational strings, straight to an
integer pair; :func:`rat` and :func:`rational_list`, the one reader of
rational lists in JSON input, build Fractions from it, and
:func:`rational_row` reads the same input as integer numerators over one
denominator.  :func:`over_lcm` brings integer pairs over their lcm, and
:func:`wire_row`, the one ``"p/q"`` writer, writes numerators back, so a
vector entry is never a Fraction on the way in or out.  :func:`float_str`
is the one writer of float diagnostics, at 17 significant digits, which
round-trip any double.  A value past Python's int-string limit (4300
digits by default), or a float diagnostic past the float range
(:func:`report_float`, which every float diagnostic passes), raises
``ReportLimitError``.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, inf, isqrt, lcm

from .errors import ReportLimitError, SchemaError


def _rat_pair(value: str) -> tuple[int, int]:
    """Read a rational string as an integer pair (p, q) with q > 0, not reduced.

    The wire form ``"p/q"`` (ASCII digits, an optional sign on ``p``) and a
    plain ``"p"`` are read with ``int`` directly; every other string goes
    through ``Fraction(text)``'s parser.  Both routes end in the same
    ``not a rational string`` error, for ``q = 0`` and for digit strings past
    Python's int-string limit too.  Exponent notation is rejected:
    ``Fraction("1e10000000")`` builds a ten-million-digit integer, so a few
    bytes of input could stall a run.
    """
    text = value.strip()
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    wire = digits.isascii() and digits.isdigit() and (not slash or den.isascii() and den.isdigit())
    if not wire and ("e" in text or "E" in text):
        raise ValueError(f"not a rational string: {value!r} (no exponent notation)")
    try:
        if wire:
            q = int(den) if slash else 1
            if not q:
                raise ZeroDivisionError(value)
            return int(num), q
        f = Fraction(text)
        return f.numerator, f.denominator
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational string: {value!r}") from exc


def rat(value) -> Fraction:
    """Coerce ``value`` to an exact Fraction.

    Accepts int, Fraction, and strings: ``"p/q"``, ``"p"``, or an exact
    decimal literal like ``"0.3"`` (which is 3/10, exactly), read by
    :func:`_rat_pair`.  Float values are rejected: a binary double has
    already lost exactness.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(*_rat_pair(value))
    if isinstance(value, float):
        raise TypeError(
            f"floats are not exact; pass a rational string like '3/10' instead of {value!r}"
        )
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def json_object(data, where: str, keys) -> dict:
    """The one object check of JSON input: ``data``, an object with no key outside ``keys``."""
    if not isinstance(data, dict):
        raise SchemaError(f"{where}: expected an object with keys {', '.join(map(repr, keys))}")
    unknown = next((key for key in data if key not in keys), None)
    if unknown is not None:
        raise SchemaError(f"{where}: unknown key {unknown!r}")
    return data


def _pairs(raw, where: str, length: int | None) -> list[tuple[int, int]]:
    """The one list reader: each string of ``raw`` as a :func:`_rat_pair`."""
    if not isinstance(raw, list) or (not raw if length is None else len(raw) != length):
        count = "a non-empty list of" if length is None else str(length)
        raise SchemaError(f"{where}: expected {count} rational strings")
    out = []
    for i, item in enumerate(raw):
        if not isinstance(item, str):
            raise SchemaError(f"{where}[{i}]: expected a rational string, got {item!r}")
        try:
            out.append(_rat_pair(item))
        except ValueError as exc:
            raise SchemaError(f"{where}[{i}]: {exc}") from exc
    return out


def rational_list(raw, where: str, length: int | None = None) -> tuple[Fraction, ...]:
    """Read a JSON list of rational strings: ``length`` of them if given, else at least one.

    Only strings are accepted (no JSON numbers or booleans), each read by
    :func:`rat`'s rules.  Any failure raises :class:`SchemaError` naming
    ``where``, or ``where[i]`` for a bad entry.
    """
    return tuple(Fraction(p, q) for p, q in _pairs(raw, where, length))


def over_lcm(pairs) -> tuple[list[int], int]:
    """Integer pairs (p, q), q > 0, as (numerators, d) over the lcm d of the q's; not reduced."""
    den = lcm(*(q for _, q in pairs))
    return [p * (den // q) for p, q in pairs], den


def lowest_terms(num, den: int) -> tuple[list[int], int]:
    """(num, den), den != 0, divided through by gcd(den, *num); returned as given when that gcd is 1."""
    g = gcd(den, *num)
    return (num, den) if g == 1 else ([v // g for v in num], den // g)


def rational_row(raw, where: str, length: int | None = None) -> tuple[list[int], int]:
    """:func:`rational_list`'s input and errors, read as :func:`over_lcm` of the entries."""
    return over_lcm(_pairs(raw, where, length))


def _unwritable() -> ReportLimitError:
    """The error for the ValueError that str(int) raises past the int-string limit."""
    return ReportLimitError(
        f"a value exceeds the {sys.get_int_max_str_digits()}-digit limit "
        "for integer string conversion; it cannot be written"
    )


def wire_row(num, den: int, ratio: int = 1) -> list[str]:
    """The values num[i] / (den ratio^i), den, ratio > 0, as lowest-terms ``"p/q"`` wire strings.

    One gcd per entry.  A Hankel report writes d_k = num[k] / D^(k+1) with
    ``den = ratio = D``.
    """
    out = []
    try:
        for v in num:
            g = gcd(v, den)
            out.append(f"{v // g}/{den // g}")
            if ratio != 1:
                den *= ratio
    except ValueError:
        raise _unwritable() from None
    return out


def rat_str(value: Fraction) -> str:
    """Render a Fraction as the canonical ``"p/q"`` wire string."""
    q = rat(value)
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        raise _unwritable() from None


def report_float(value: Fraction | float) -> float:
    """``float(value)``; a value past the float range, or infinite, raises :class:`ReportLimitError`."""
    try:
        out = float(value)
    except OverflowError:
        out = inf
    if abs(out) == inf:
        raise ReportLimitError(
            f"a value exceeds the float range (about {sys.float_info.max:.3g}); "
            "its float diagnostic cannot be written"
        )
    return out


def float_str(value: Fraction | float) -> str:
    """A float diagnostic as written in reports: :func:`report_float` at 17 significant digits."""
    return f"{report_float(value):.17g}"


def rational_sqrt(value: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if it is irrational."""
    q = rat(value)
    if q < 0:
        return None
    rn = isqrt(q.numerator)
    rd = isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def double_factorial(n: int) -> int:
    """n!! for n >= -1 (empty product convention: (-1)!! = 0!! = 1)."""
    if n < -1:
        raise ValueError(f"double factorial undefined for {n}")
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def fibonacci(count: int) -> list[int]:
    """First ``count`` Fibonacci numbers starting 1, 1, 2, 3, 5, ...

    This is the positive branch (no leading zero), i.e. entry ``n`` holds
    the (n+1)-st member of the classical 0, 1, 1, 2, ... chain.
    """
    out: list[int] = []
    a, b = 1, 1
    for _ in range(count):
        out.append(a)
        a, b = b, a + b
    return out
