"""Orthogonal polynomial families built from exact moment sequences.

Given the moments of a measure with strictly positive Hankel determinants,
the Chebyshev pass of :mod:`poslab.moments` yields the squared norms and
three-term recurrence of the monic orthogonal family, and the recurrence
builds the polynomials.  Monic is the canonical normalization here: it keeps
every coefficient rational.  Orthonormal quantities are always handled as a
(monic polynomial, squared norm) pair so that square roots are only ever
taken of perfect rational squares.

Connection coefficients between two families come from an exact triangular
solve; the constant column of that triangle is what links series
coefficients to recovered measure moments in :mod:`poslab.positivity`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .errors import (
    DegenerateMeasureError,
    InsufficientMomentsError,
    RecurrenceError,
    SchemaError,
)
from .moments import MomentSequence, _chebyshev, builtin
from .rationals import rat, rat_str, rational_sqrt


@dataclass(frozen=True)
class Polynomial:
    """Univariate polynomial with exact rational coefficients, constant term first.

    Trailing zero coefficients are stripped on construction; the zero
    polynomial is the empty tuple and has degree -1.
    """

    coeffs: tuple[Fraction, ...] = ()

    def __post_init__(self):
        vals = [rat(c) for c in self.coeffs]
        while vals and vals[-1] == 0:
            vals.pop()
        object.__setattr__(self, "coeffs", tuple(vals))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, x) -> Fraction:
        x = rat(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            tuple(self.coefficient(i) + other.coefficient(i) for i in range(n))
        )

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Polynomial(tuple(out))
        return Polynomial(tuple(c * rat(other) for c in self.coeffs))

    __rmul__ = __mul__

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial((Fraction(1),))

    @staticmethod
    def x() -> "Polynomial":
        return Polynomial((Fraction(0), Fraction(1)))

    @staticmethod
    def monomial(power: int, coeff=1) -> "Polynomial":
        return Polynomial(tuple([Fraction(0)] * power) + (rat(coeff),))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coefficient(k)
            if c == 0:
                continue
            mon = "1" if k == 0 else ("x" if k == 1 else f"x^{k}")
            if k == 0:
                term = str(abs(c))
            elif abs(c) == 1:
                term = mon
            else:
                term = f"{abs(c)}*{mon}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


def eval_poly(p: Polynomial, x) -> Fraction:
    """Exact Horner evaluation of p at a rational point."""
    return p(x)


def _moment_functional(coeffs, m: MomentSequence) -> Fraction:
    total = Fraction(0)
    for j, c in enumerate(coeffs):
        if c:
            total += c * m[j]
    return total


def _inner(p: Polynomial, q: Polynomial, m: MomentSequence) -> Fraction:
    """Bilinear form <p, q> = integral of p*q against the measure behind m."""
    prod = p * q
    if prod.degree >= len(m):
        raise InsufficientMomentsError(
            f"bilinear form needs moments to order {prod.degree}, got {len(m) - 1}"
        )
    return _moment_functional(prod.coeffs, m)


@dataclass(frozen=True)
class OrthoBasis:
    """Monic orthogonal family to some order, with norms and recurrence attached.

    ``recurrence[n]`` holds the triple (A_n, B_n, C_n) in
    p_{n+1} = (A_n x + B_n) p_n - C_n p_{n-1}; the identity is re-verified
    coefficientwise on construction, as is C_n A_n A_{n-1} > 0.
    """

    polys: tuple[Polynomial, ...]
    norms: tuple[Fraction, ...]
    recurrence: tuple[tuple[Fraction, Fraction, Fraction], ...]
    source_moments: MomentSequence
    status: str = "ok"

    def __post_init__(self):
        object.__setattr__(self, "polys", tuple(self.polys))
        object.__setattr__(self, "norms", tuple(rat(v) for v in self.norms))
        object.__setattr__(
            self,
            "recurrence",
            tuple((rat(a), rat(b), rat(c)) for a, b, c in self.recurrence),
        )
        if not self.polys:
            raise ValueError("a basis needs at least the order-0 polynomial")
        for n, p in enumerate(self.polys):
            if p.degree != n:
                raise ValueError(f"basis polynomial {n} has degree {p.degree}, not full order")
        if len(self.norms) != len(self.polys):
            raise ValueError("one squared norm per polynomial required")
        for n, h in enumerate(self.norms):
            if h <= 0:
                raise ValueError(f"squared norm at order {n} must be positive, got {h}")
        if len(self.recurrence) != len(self.polys) - 1:
            raise ValueError("need one recurrence triple per constructed order")
        x = Polynomial.x()
        for n, (a, b, c) in enumerate(self.recurrence):
            prev = self.polys[n - 1] if n >= 1 else Polynomial()
            expected = (a * x + Polynomial((b,))) * self.polys[n] - c * prev
            if expected != self.polys[n + 1]:
                raise RecurrenceError(f"recurrence triple at n={n} does not rebuild p_{n + 1}")
            if n >= 1 and not c * a * self.recurrence[n - 1][0] > 0:
                raise RecurrenceError(
                    f"C_n A_n A_(n-1) must be positive at n={n} for an infinite-support measure"
                )

    @property
    def order(self) -> int:
        return len(self.polys) - 1

    @property
    def monomial_coeffs(self) -> tuple[tuple[Fraction, ...], ...]:
        """Lower-triangular coefficient rows: row n lists the x^j coefficients of p_n."""
        return tuple(
            tuple(p.coefficient(j) for j in range(n + 1)) for n, p in enumerate(self.polys)
        )

    def to_json_dict(self) -> dict:
        return {
            "moments": self.source_moments.to_json_dict(),
            "pi": [[rat_str(c) for c in row] for row in self.monomial_coeffs],
            "norms": [rat_str(h) for h in self.norms],
            "recurrence": [[rat_str(a), rat_str(b), rat_str(c)] for a, b, c in self.recurrence],
            "status": self.status,
        }

    @classmethod
    def from_json_dict(cls, data: dict, where: str = "$") -> "OrthoBasis":
        if not isinstance(data, dict):
            raise SchemaError(f"{where}: expected an object with 'moments', 'pi', 'norms', 'recurrence'")
        moments = MomentSequence.from_json_dict(data.get("moments"), f"{where}.moments")
        rows = data.get("pi")
        if not isinstance(rows, list) or not rows:
            raise SchemaError(f"{where}.pi: expected a non-empty list of coefficient rows")
        polys = []
        for n, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != n + 1:
                raise SchemaError(f"{where}.pi[{n}]: expected {n + 1} rational strings")
            try:
                polys.append(Polynomial(tuple(rat(c) for c in row)))
            except (TypeError, ValueError) as exc:
                raise SchemaError(f"{where}.pi[{n}]: {exc}") from exc
        norms_raw = data.get("norms")
        if not isinstance(norms_raw, list) or len(norms_raw) != len(polys):
            raise SchemaError(f"{where}.norms: expected {len(polys)} rational strings")
        try:
            norms = tuple(rat(v) for v in norms_raw)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{where}.norms: {exc}") from exc
        rec_raw = data.get("recurrence")
        if not isinstance(rec_raw, list) or len(rec_raw) != len(polys) - 1:
            raise SchemaError(f"{where}.recurrence: expected {len(polys) - 1} [A, B, C] triples")
        triples = []
        for n, triple in enumerate(rec_raw):
            if not isinstance(triple, list) or len(triple) != 3:
                raise SchemaError(f"{where}.recurrence[{n}]: expected an [A, B, C] triple")
            try:
                triples.append(tuple(rat(v) for v in triple))
            except (TypeError, ValueError) as exc:
                raise SchemaError(f"{where}.recurrence[{n}]: {exc}") from exc
        status = data.get("status", "ok")
        if not isinstance(status, str):
            raise SchemaError(f"{where}.status: expected a string")
        return cls(tuple(polys), norms, tuple(triples), moments, status)


def basis_from_moments(
    m: MomentSequence, order: int, allow_truncation: bool = False
) -> OrthoBasis:
    """Monic orthogonal polynomials of the measure behind m, up to the given order.

    One Chebyshev pass over m_0..m_{2 order} gives the squared norms h_k and
    the recurrence p_{k+1} = (x - a_k) p_k - b_k p_{k-1}, which builds the
    family.  The family requires every Hankel determinant d_0..d_order to be
    strictly positive; since d_k = h_0 ... h_k, the first nonpositive h_k
    marks a zero or negative d_k, meaning the measure is degenerate (finite
    support) or signed, and construction stops there.  With
    ``allow_truncation`` the basis built so far is returned with an
    explanatory status instead of raising.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if len(m) < 2 * order + 1:
        raise InsufficientMomentsError(
            f"basis to order {order} needs {2 * order + 1} moments, got {len(m)}"
        )

    h, a, b = _chebyshev(m.values[: 2 * order + 1])
    top = order
    status = "ok"
    bad = next((k for k, hk in enumerate(h) if hk <= 0), None)
    if bad is not None:
        kind = "zero" if h[bad] == 0 else "negative"
        status = (
            f"Hankel determinant d_{bad} of {m.label or 'input'} is {kind}; "
            f"orthogonal family stops at order {bad - 1}"
        )
        if not (allow_truncation and bad >= 1):
            raise DegenerateMeasureError(bad, status)
        top = bad - 1

    x = Polynomial.x()
    polys = [Polynomial.one()]
    for k in range(top):
        nxt = (x - Polynomial((a[k],))) * polys[k]
        if k >= 1:
            nxt = nxt - b[k] * polys[k - 1]
        polys.append(nxt)
    triples = tuple((Fraction(1), -a[k], b[k]) for k in range(top))
    return OrthoBasis(tuple(polys), tuple(h[: top + 1]), triples, m, status)


def squared_norms(basis: OrthoBasis) -> tuple[Fraction, ...]:
    """Recompute the squared norms from the coefficient triangle and source moments.

    Independent of the norms stored during construction: evaluates the
    bilinear form sum_{j,k} pi_{n,j} pi_{n,k} m_{j+k} directly.
    """
    m = basis.source_moments
    out = []
    for n, p in enumerate(basis.polys):
        if 2 * n >= len(m):
            raise InsufficientMomentsError(
                f"norm at order {n} needs moments to order {2 * n}, got {len(m) - 1}"
            )
        out.append(_inner(p, p, m))
    return tuple(out)


def _expand_in_basis(p: Polynomial, polys: tuple[Polynomial, ...]) -> list[Fraction]:
    """Coefficients of p in a full-order triangular family, by back substitution."""
    if p.degree >= len(polys):
        raise ValueError(
            f"cannot expand a degree-{p.degree} polynomial in a basis of order {len(polys) - 1}"
        )
    out = [Fraction(0)] * len(polys)
    residual = p
    for n in range(len(polys) - 1, -1, -1):
        c = residual.coefficient(n) / polys[n].coefficient(n)
        if c:
            out[n] = c
            residual = residual - c * polys[n]
    return out


def three_term(basis: OrthoBasis) -> tuple[tuple[Fraction, Fraction, Fraction], ...]:
    """Extract the (A_n, B_n, C_n) recurrence triples from the polynomials alone.

    Works by expanding p_{n+1} - A_n x p_n back in the family; any component
    outside span{p_n, p_{n-1}} means the input cannot be an orthogonal
    family and raises :class:`RecurrenceError`.  C_0 is reported as 0.
    """
    x = Polynomial.x()
    triples = []
    for n in range(basis.order):
        pn, pn1 = basis.polys[n], basis.polys[n + 1]
        a = pn1.leading / pn.leading
        rest = pn1 - a * (x * pn)
        coeffs = _expand_in_basis(rest, basis.polys[: n + 1])
        b = coeffs[n]
        c = -coeffs[n - 1] if n >= 1 else Fraction(0)
        for j in range(n - 1):
            if coeffs[j] != 0:
                raise RecurrenceError(
                    f"p_{n + 1} has a p_{j} component: not a three-term recurrence family"
                )
        if n >= 1 and not c * a * triples[n - 1][0] > 0:
            raise RecurrenceError(
                f"C_n A_n A_(n-1) must be positive at n={n}; got C={c}, A={a}"
            )
        triples.append((a, b, c))
    return tuple(triples)


@dataclass(frozen=True)
class ConnectionMatrix:
    """Lower-triangular coefficients expressing one family in another.

    Row n satisfies from_basis.polys[n] = sum_j rows[n][j] * to_basis.polys[j]
    exactly; the reconstruction is re-verified on construction.  The constant
    column rows[n][0] equals the integral of p_n against the measure that the
    target family is orthogonal with respect to.
    """

    rows: tuple[tuple[Fraction, ...], ...]
    from_basis: OrthoBasis
    to_basis: OrthoBasis

    def __post_init__(self):
        for n, row in enumerate(self.rows):
            if len(row) != n + 1 or row[n] == 0:
                raise ValueError(f"connection row {n} is not triangular with nonzero diagonal")
            rebuilt = Polynomial()
            for j, g in enumerate(row):
                rebuilt = rebuilt + g * self.to_basis.polys[j]
            if rebuilt != self.from_basis.polys[n]:
                raise ValueError(f"connection row {n} does not reconstruct the source polynomial")

    @property
    def constant_column(self) -> tuple[Fraction, ...]:
        return tuple(row[0] for row in self.rows)

    def to_json_dict(self) -> dict:
        return {
            "gamma": [[rat_str(c) for c in row] for row in self.rows],
            "from_basis": self.from_basis.to_json_dict(),
            "to_basis": self.to_basis.to_json_dict(),
        }


def connection(from_basis: OrthoBasis, to_basis: OrthoBasis) -> ConnectionMatrix:
    """Exact connection coefficients between two full-order families."""
    if to_basis.order < from_basis.order:
        raise ValueError(
            f"target basis order {to_basis.order} < source order {from_basis.order}"
        )
    rows = tuple(
        tuple(_expand_in_basis(p, to_basis.polys[: n + 1]))
        for n, p in enumerate(from_basis.polys)
    )
    return ConnectionMatrix(rows, from_basis, to_basis)


def hermite(order: int) -> OrthoBasis:
    """Probabilists' Hermite polynomials He_0..He_order.

    Built from the recurrence He_{n+1} = x He_n - n He_{n-1}; monic with
    squared norms n! against the standard normal moments.  The orthonormal
    variant is the pair (He_n, n!): scale by 1/sqrt(n!) only when the context
    guarantees the root is rational.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    polys = [Polynomial.one()]
    if order >= 1:
        polys.append(Polynomial.x())
    x = Polynomial.x()
    for n in range(1, order):
        polys.append(x * polys[n] - n * polys[n - 1])
    return OrthoBasis(
        polys=tuple(polys),
        norms=tuple(Fraction(factorial(n)) for n in range(order + 1)),
        recurrence=tuple((Fraction(1), Fraction(0), Fraction(n)) for n in range(order)),
        source_moments=builtin("gaussian", 2 * order + 1),
    )


# ---------------------------------------------------------------------------
# Hermite addition formula (exact bivariate identity)
# ---------------------------------------------------------------------------

def _mix_powers(a: Fraction, b: Fraction, k: int) -> dict[tuple[int, int], Fraction]:
    """Monomial expansion of (a*x + b*y)^k as {(i, j): coefficient}."""
    return {
        (i, k - i): comb(k, i) * a**i * b ** (k - i)
        for i in range(k + 1)
    }


def _poly_in_mix(p: Polynomial, a: Fraction, b: Fraction) -> dict[tuple[int, int], Fraction]:
    out: dict[tuple[int, int], Fraction] = {}
    for k, c in enumerate(p.coeffs):
        if c == 0:
            continue
        for key, w in _mix_powers(a, b, k).items():
            out[key] = out.get(key, Fraction(0)) + c * w
    return {k: v for k, v in out.items() if v != 0}


def hermite_addition_sides(n: int, a) -> tuple[dict, dict]:
    """Both sides of the Hermite addition formula at mixing weight a, expanded in x, y.

    Left: He_n(a*x + b*y) with b = sqrt(1 - a^2), which must be rational
    (e.g. a = 3/5 gives b = 4/5).  Right:
    sum_m C(n,m) a^m b^(n-m) He_m(x) He_{n-m}(y).  Returns the two monomial
    dictionaries {(x-power, y-power): coefficient} for exact comparison.
    """
    a = rat(a)
    b = rational_sqrt(1 - a * a)
    if b is None:
        raise ValueError(f"1 - a^2 must be a perfect rational square, got a = {a}")
    hs = hermite(n).polys
    lhs = _poly_in_mix(hs[n], a, b)
    rhs: dict[tuple[int, int], Fraction] = {}
    for mdx in range(n + 1):
        w = comb(n, mdx) * a**mdx * b ** (n - mdx)
        for i, cx in enumerate(hs[mdx].coeffs):
            if cx == 0:
                continue
            for j, cy in enumerate(hs[n - mdx].coeffs):
                if cy == 0:
                    continue
                key = (i, j)
                rhs[key] = rhs.get(key, Fraction(0)) + w * cx * cy
    return lhs, {k: v for k, v in rhs.items() if v != 0}


def hermite_addition_holds(n: int, a) -> bool:
    """True iff the addition formula is an exact bivariate identity at order n."""
    lhs, rhs = hermite_addition_sides(n, a)
    return lhs == rhs
