"""Orthogonal polynomial families built from exact moment sequences.

Given the moments of a measure with strictly positive Hankel determinants,
the integer Chebyshev pass of :mod:`poslab.moments` yields the squared norms
and three-term recurrence of the monic orthogonal family; a family is its
recurrence (Favard), and :class:`OrthoBasis` builds the polynomials from it
once.  Monic is the canonical normalization here: it keeps
every coefficient rational.  Orthonormal quantities are always handled as a
(monic polynomial, squared norm) pair so that square roots are only ever
taken of perfect rational squares.

A :class:`Polynomial` keeps integer numerators over one common denominator
(the representation FLINT uses for ``fmpq_poly``): sums, products, scaling
and evaluation run on integers and reduce once per result, and the Fraction
coefficients are only built when read.  The basis path stays in that form
from read to write: a basis file's family is built from ``pi[0]`` and the
recurrence triples, each ``pi`` row is compared as strings with the
canonical ``"p/q"`` strings of the built p_n, and only a row that differs is
parsed straight into numerators (:func:`poslab.rationals.rational_row`) and
compared exactly; each recurrence step of :func:`_family` is one pass over
integer numerators, and the ``"p/q"`` wire strings of a family are written
straight from them.  Moment sequences share the form, so the bilinear form
:func:`_inner` is one integer dot product.

Connection coefficients between two families come from the source's
three-term recurrence: :func:`connection` is a walk of :func:`_family` in
the target's coordinates, where multiplication by x is the target's
tridiagonal map, O(n) integer work per row and O(N^2) per matrix.  The
constant column of that triangle is what links series coefficients to
recovered measure moments in :mod:`poslab.positivity`.  The rows share the
form too: numerators over one denominator in lowest terms, which
:class:`ConnectionMatrix` stores, checks with one integer combination each
(the independent O(N^3) route) and writes as its ``gamma`` rows straight
from them.  Nothing in the library runs back substitution: :func:`three_term`
reads each triple off three coefficients of p_{n+1}, and
:func:`poslab.lancaster.full_order_check` is a degree test.
Systems Pi x = r through the monomial triangle Pi of a family, for recovered
moments and for conditional moments, share one forward substitution,
:func:`_solve_lower`, which runs on integer vectors over one shared
denominator; the recovered moments it hands back stay integer numerators.
Fractions are still built for scalars: squared norms, recurrence triples,
and the ``coeffs``, ``coefficient`` and ``leading`` reads of a polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, gcd, lcm
from operator import mul

from .errors import (
    DegenerateMeasureError,
    InsufficientMomentsError,
    RecurrenceError,
    ReportLimitError,
    SchemaError,
)
from .moments import MomentSequence, _recurrence, builtin
from .rationals import (
    json_object, lowest_terms, over_lcm, rat, rat_str, rational_list, rational_row, rational_sqrt,
    wire_row,
)


class Polynomial:
    """Univariate polynomial with exact rational coefficients, constant term first.

    Stored as a tuple of integer numerators over one positive common
    denominator, in lowest terms (no prime divides the denominator and every
    numerator) with trailing zeros stripped, so equal polynomials have equal
    storage.  Arithmetic runs on the integers and reduces once per result,
    and :func:`_values_at` is the one evaluator: call it on a whole family.
    ``coeffs`` builds the Fraction coefficients on each read; the zero
    polynomial has no coefficients and degree -1.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs=()):
        self._store(*over_lcm([rat(c).as_integer_ratio() for c in coeffs]))

    def _store(self, num: list[int], den: int) -> None:
        while num and not num[-1]:
            num.pop()
        num, self._den = lowest_terms(num, den)
        self._num = tuple(num)

    @classmethod
    def _from_ints(cls, num: list[int], den: int) -> "Polynomial":
        """The polynomial sum_i num[i] x^i / den, for den > 0; takes ownership of ``num``."""
        out = object.__new__(cls)
        out._store(num, den)
        return out

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self._den) for v in self._num)

    @property
    def degree(self) -> int:
        return len(self._num) - 1

    @property
    def is_zero(self) -> bool:
        return not self._num

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self._num):
            return Fraction(self._num[power], self._den)
        return Fraction(0)

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("the zero polynomial has no leading coefficient")
        return Fraction(self._num[-1], self._den)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        return hash((self._num, self._den))

    def __repr__(self) -> str:
        return f"Polynomial(coeffs={self.coeffs!r})"

    def __call__(self, x) -> Fraction:
        """The value at x, read from :func:`_values_at`."""
        (value,), den = next(_values_at((self,), (rat(x),)))
        return Fraction(value, den)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return _combination((1, 1), (self, other))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return _combination((1, -1), (self, other))

    def __neg__(self) -> "Polynomial":
        return Polynomial._from_ints([-v for v in self._num], self._den)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            a, b = self._num, other._num
            if not a or not b:
                return Polynomial()
            out = [0] * (len(a) + len(b) - 1)
            for i, u in enumerate(a):
                if u:
                    for j, v in enumerate(b):
                        out[i + j] += u * v
            return Polynomial._from_ints(out, self._den * other._den)
        r = rat(other)
        return Polynomial._from_ints([v * r.numerator for v in self._num], self._den * r.denominator)

    __rmul__ = __mul__

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial._from_ints([1], 1)

    @staticmethod
    def x() -> "Polynomial":
        return Polynomial._from_ints([0, 1], 1)

    @staticmethod
    def monomial(power: int, coeff=1) -> "Polynomial":
        if power < 0:
            raise ValueError(f"a monomial needs a nonnegative power, got {power}")
        c = rat(coeff)
        return Polynomial._from_ints([0] * power + [c.numerator], c.denominator)

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


def _values_at(polys, points):
    """Yield, for each p/q in ``points``, the values of ``polys`` there as (numerators, den).

    The polynomials are brought over the lcm E of their denominators once, as
    integer rows; at each point every value is then one integer dot product
    of a row with the power vector (p^i q^(d-i))_{i <= d}, d the largest
    degree, over the one denominator E q^d.  The pairs are not reduced.
    """
    den = lcm(*(poly._den for poly in polys))
    rows = [[v * (den // poly._den) for v in poly._num] for poly in polys]
    d = max(max(map(len, rows)) - 1, 0)
    for point in points:
        p, q = point.numerator, point.denominator
        qpows = [1]
        for _ in range(d):
            qpows.append(qpows[-1] * q)
        powers, ppow = [], 1
        for qpow in reversed(qpows):
            powers.append(ppow * qpow)
            ppow *= p
        yield [sum(map(mul, row, powers)) for row in rows], den * qpows[-1]


def _inner(p: Polynomial, q: Polynomial, m: MomentSequence) -> Fraction:
    """Bilinear form <p, q> = integral of p*q against the measure behind m."""
    prod = p * q
    if prod.degree >= len(m):
        raise InsufficientMomentsError(
            f"bilinear form needs moments to order {prod.degree}, got {len(m) - 1}"
        )
    return Fraction(sum(map(mul, prod._num, m._num)), prod._den * m._den)


def _shift(num) -> list[int]:
    """x times sum_i num[i] x^i, over 1: the default map of :func:`_family`."""
    return [0, *num]


def _family(p0: Polynomial, triples, times_x=_shift, xden: int = 1) -> list[Polynomial]:
    """p_0, p_1, ... from p_{n+1} = (A_n x + B_n) p_n - C_n p_{n-1}, with p_{-1} = 0.

    The one loop that applies a three-term recurrence, run once per
    :class:`OrthoBasis` and once per :func:`connection`.  p_n is a row of
    numerators N_n over d_n, and ``times_x(N_n)`` is x p_n as numerators
    over ``xden``, a row no shorter: the shift in powers of x by default,
    the target's tridiagonal map in :func:`connection`.  Each step is one
    integer pass over lcm(A.den xden d_n, B.den d_n, C.den d_{n-1}),
    reduced once.
    """
    polys = [p0]
    prev_num, prev_den = (), 1
    for a, b, c in triples:
        cur = polys[-1]
        num, den = cur._num, cur._den
        common = lcm(a.denominator * xden * den, b.denominator * den, c.denominator * prev_den)
        sa = a.numerator * (common // (a.denominator * xden * den))
        sb = b.numerator * (common // (b.denominator * den))
        sc = c.numerator * (common // (c.denominator * prev_den))
        out = [v * sa for v in times_x(num)]
        out += [0] * (len(prev_num) - len(out))  # only when a triple lowers the degree
        if sb:
            for i, v in enumerate(num):
                out[i] += v * sb
        if sc:
            for i, v in enumerate(prev_num):
                out[i] -= v * sc
        polys.append(Polynomial._from_ints(out, common))
        prev_num, prev_den = num, den
    return polys


def _check_degree(n: int, p: Polynomial) -> None:
    """Raise ValueError unless p, the basis polynomial p_n, has degree exactly n."""
    if p.degree != n:
        raise ValueError(f"basis polynomial {n} has degree {p.degree}, not full order")


def _is_wire_row(row, p: Polynomial) -> bool:
    """Whether ``row`` is p's canonical ``"p/q"`` strings; False too when p cannot be written."""
    try:
        return row == wire_row(p._num, p._den)
    except ReportLimitError:
        return False


@dataclass(frozen=True)
class OrthoBasis:
    """Orthogonal family to some order, with squared norms and recurrence attached.

    ``recurrence[n]`` holds the triple (A_n, B_n, C_n) in
    p_{n+1} = (A_n x + B_n) p_n - C_n p_{n-1}; p_0 = ``p0`` and the A_n are
    free, so the family need not be monic.  ``polys`` is derived: built once,
    by :func:`_family`, and required to have full degrees (so p_0 and every
    A_n are nonzero).  The norms h_n must be positive with
    h_n A_n = C_n A_{n-1} h_{n-1} for 1 <= n < N (<p_{n+1}, p_{n-1}> = 0),
    which forces C_n A_n A_{n-1} > 0; h_N is free.  The rule is checked on
    integers, cross-multiplied over the positive denominators.
    """

    norms: tuple[Fraction, ...]
    recurrence: tuple[tuple[Fraction, Fraction, Fraction], ...]
    source_moments: MomentSequence
    status: str = "ok"
    p0: Fraction = Fraction(1)
    polys: tuple[Polynomial, ...] = field(init=False, compare=False)

    def __post_init__(self):
        p0 = rat(self.p0)
        triples = tuple((rat(a), rat(b), rat(c)) for a, b, c in self.recurrence)
        polys = tuple(_family(Polynomial._from_ints([p0.numerator], p0.denominator), triples))
        object.__setattr__(self, "p0", p0)
        object.__setattr__(self, "norms", tuple(rat(v) for v in self.norms))
        object.__setattr__(self, "recurrence", triples)
        object.__setattr__(self, "polys", polys)
        for n, p in enumerate(polys):
            _check_degree(n, p)
        if len(self.norms) != len(polys):
            raise ValueError("one squared norm per polynomial required")
        for n, h in enumerate(self.norms):
            if h <= 0:
                raise ValueError(f"squared norm at order {n} must be positive, got {h}")
        # h_n A_n as an integer pair (num, den), den > 0; the rule is cross-multiplied
        for n, (h, (a, _, c)) in enumerate(zip(self.norms, triples)):
            num, den = h.numerator * a.numerator, h.denominator * a.denominator
            if n and num * c.denominator * prev_den != c.numerator * prev_num * den:
                raise RecurrenceError(
                    f"squared norm at order {n} does not follow from the recurrence: "
                    "h_n A_n must equal C_n A_(n-1) h_(n-1)"
                )
            prev_num, prev_den = num, den

    @property
    def order(self) -> int:
        return len(self.polys) - 1

    def to_json_dict(self) -> dict:
        return {
            "moments": self.source_moments.to_json_dict(),
            "pi": [wire_row(p._num, p._den) for p in self.polys],
            "norms": [rat_str(h) for h in self.norms],
            "recurrence": [[rat_str(a), rat_str(b), rat_str(c)] for a, b, c in self.recurrence],
            "status": self.status,
        }

    @classmethod
    def from_json_dict(cls, data: dict, where: str = "$") -> "OrthoBasis":
        """Read a basis file; each ``pi`` row must be the p_n that p_0 and the triples build.

        The family is built first, from ``pi[0]`` and the triples.  A ``pi`` row
        spelled as the built p_n's canonical ``"p/q"`` strings (the ones
        :meth:`to_json_dict` writes) is equal to it; only a row whose strings
        differ is parsed, checked for degree n and compared exactly.
        """
        data = json_object(data, where, ("moments", "pi", "norms", "recurrence", "status"))
        moments = MomentSequence.from_json_dict(data.get("moments"), f"{where}.moments")
        rows = data.get("pi")
        if not isinstance(rows, list) or not rows:
            raise SchemaError(f"{where}.pi: expected a non-empty list of coefficient rows")
        (p0,) = rational_list(rows[0], f"{where}.pi[0]", 1)
        norms = rational_list(data.get("norms"), f"{where}.norms", len(rows))
        rec_raw = data.get("recurrence")
        if not isinstance(rec_raw, list) or len(rec_raw) != len(rows) - 1:
            raise SchemaError(f"{where}.recurrence: expected {len(rows) - 1} [A, B, C] triples")
        triples = tuple(
            rational_list(triple, f"{where}.recurrence[{n}]", 3) for n, triple in enumerate(rec_raw)
        )
        status = data.get("status", "ok")
        if not isinstance(status, str):
            raise SchemaError(f"{where}.status: expected a string")
        try:
            basis = cls(norms, triples, moments, status, p0)
            for n, (row, built) in enumerate(zip(rows, basis.polys)):
                if not _is_wire_row(row, built):
                    poly = Polynomial._from_ints(*rational_row(row, f"{where}.pi[{n}]", n + 1))
                    _check_degree(n, poly)
                    if poly != built:
                        raise SchemaError(
                            f"{where}: recurrence triple at n={n - 1} does not rebuild p_{n}"
                        )
        except (ValueError, RecurrenceError) as exc:
            raise SchemaError(f"{where}: {exc}") from exc
        return basis


def basis_from_moments(
    m: MomentSequence, order: int, allow_truncation: bool = False
) -> OrthoBasis:
    """Monic orthogonal polynomials of the measure behind m, up to the given order.

    One integer Chebyshev pass over the numerators of m_0..m_{2 order} (over
    their denominator D; see :func:`poslab.moments._chebyshev`) gives the
    Hankel minors Delta_k and, at each step, the recurrence coefficient a_k
    as an integer pair read off the step's multipliers.  They give the
    squared norms h_k = Delta_k / (Delta_{k-1} D) and the recurrence
    p_{k+1} = (x - a_k) p_k - b_k p_{k-1} with b_k = h_k / h_{k-1}; the
    basis of the triples (1, -a_k, b_k) builds the polynomials.
    Delta_k is an integer determinant, so the pass recovers it by an exact
    integer division, as in Bareiss's elimination (Math. Comp.
    22, 1968).  The family requires every Hankel determinant d_0..d_order to be
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

    h, a, b = _recurrence(m.prefix(2 * order + 1))
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

    triples = tuple((Fraction(1), -a[k], b[k]) for k in range(top))
    return OrthoBasis(h[: top + 1], triples, m, status)


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


def _solve_lower(polys, rhs) -> tuple[list[list[int]], int]:
    """Solve sum_{j<=n} pi_{n,j} x_j = w_n q_n through the triangle of a full-order family.

    ``rhs[n]`` is the pair (w_n, q_n) of a Fraction and a :class:`Polynomial`
    (the constant 1 for a scalar system).  The unknowns are integer vectors
    over one shared positive denominator: the result is (X, E), unknown n
    being X[n] / E.  With p_n = N_n / d_n, w_n q_n = R_n / r_n and L the lcm
    of E and r_n, forward substitution
    x_n = (d_n R_n (L / r_n) - (L / E) sum_{j<n} N_n[j] X_j) / (L N_n[n])
    is integer work, reduced by one gcd.  E then grows to the lcm of E and
    x_n's denominator, rescaling the earlier X_j: E stays the least common
    denominator of the unknowns, and the lcm keeps it positive whatever the
    sign of N_n[n].
    """
    xs: list[list[int]] = []
    den = 1
    for n, (w, q) in enumerate(rhs):
        row = polys[n]._num
        r_den = w.denominator * q._den
        common = lcm(den, r_den)
        scale, step = w.numerator * polys[n]._den * (common // r_den), common // den
        out = [v * scale for v in q._num]
        if xs:
            out += [0] * (len(xs[-1]) - len(out))  # unknowns never get shorter
        for j in range(n):
            c = row[j] * step
            if c:
                for i, v in enumerate(xs[j]):
                    out[i] -= c * v
        out, e = lowest_terms(out, common * row[n])
        grown = lcm(den, e)
        if grown != den:
            f = grown // den
            xs = [[v * f for v in x] for x in xs]
            den = grown
        if den != e:
            f = den // e
            out = [v * f for v in out]
        xs.append(out)
    return xs, den


def three_term(basis: OrthoBasis) -> tuple[tuple[Fraction, Fraction, Fraction], ...]:
    """Extract the (A_n, B_n, C_n) recurrence triples from the polynomials alone.

    The independent route to the stored triples: in
    p_{n+1} = (A_n x + B_n) p_n - C_n p_{n-1} the x^(n+1), x^n and x^(n-1)
    coefficients give A_n, B_n and C_n in turn, each one division by a
    leading coefficient of the full-order family.  C_0 is reported as 0.
    """
    polys = basis.polys
    triples = []
    for n in range(basis.order):
        cur, nxt = polys[n], polys[n + 1]
        a = nxt.leading / cur.leading
        b = (nxt.coefficient(n) - a * cur.coefficient(n - 1)) / cur.leading
        c = Fraction(0)
        if n:
            rest = a * cur.coefficient(n - 2) + b * cur.coefficient(n - 1) - nxt.coefficient(n - 1)
            c = rest / polys[n - 1].leading
        triples.append((a, b, c))
    return tuple(triples)


def _combination(weights, polys) -> Polynomial:
    """sum_j weights[j] polys[j] as one integer sum over lcm(weights[j].den polys[j].den)."""
    terms = [(w, p) for w, p in zip(weights, polys) if w]
    common = lcm(*(w.denominator * p._den for w, p in terms))
    out = [0] * max((len(p._num) for _, p in terms), default=0)
    for w, p in terms:
        scale = w.numerator * (common // (w.denominator * p._den))
        for i, v in enumerate(p._num):
            out[i] += v * scale
    return Polynomial._from_ints(out, common)


@dataclass(frozen=True, init=False)
class ConnectionMatrix:
    """Lower-triangular coefficients expressing one family in another.

    ``ConnectionMatrix(rows, from_basis, to_basis)``, the one constructor,
    takes one row per source polynomial, no more than the target has, and
    row n as a pair (numerators, den) of integers with den > 0, in
    lowest terms (one gcd per row checks it), as :func:`connection` builds
    them by the source's recurrence: gamma_{n,j} = numerators[j] / den, and
    from_basis.polys[n] = sum_j gamma_{n,j} to_basis.polys[j] exactly.  The
    reconstruction is re-verified on construction, one integer combination
    per row and O(N^3) per matrix, independent of the recurrence that built
    the rows.  Lowest terms over a positive denominator is unique, so equal
    rows write equal ``gamma`` strings.  ``rows`` builds the Fractions on each
    read.  The constant column gamma_{n,0} equals the integral of p_n
    against the measure that the target family is orthogonal with respect to.
    """

    _rows: tuple[tuple[tuple[int, ...], int], ...]
    from_basis: OrthoBasis
    to_basis: OrthoBasis

    def __init__(self, rows, from_basis: OrthoBasis, to_basis: OrthoBasis):
        rows = tuple((tuple(num), den) for num, den in rows)
        if not len(rows) == from_basis.order + 1 <= to_basis.order + 1:
            raise ValueError(
                f"a connection needs {from_basis.order + 1} rows, one per source polynomial "
                f"and no more than the target's {to_basis.order + 1}; got {len(rows)}"
            )
        # past the frozen __setattr__
        vars(self).update(_rows=rows, from_basis=from_basis, to_basis=to_basis)
        # the target rows over one denominator E: sum_j num[j] P_j / d_j = (sum_j num[j] T_j) / E
        target = to_basis.polys[: len(rows)]
        common = lcm(*(q._den for q in target))
        scaled = [[v * (common // q._den) for v in q._num] for q in target]
        for n, (num, den) in enumerate(rows):
            if len(num) != n + 1 or not num[n]:
                raise ValueError(f"connection row {n} is not triangular with nonzero diagonal")
            if den <= 0 or gcd(den, *num) != 1:
                raise ValueError(
                    f"connection row {n} is not in lowest terms over a positive denominator"
                )
            out = [0] * (n + 1)
            for c, row in zip(num, scaled):
                if c:
                    for i, v in enumerate(row):
                        out[i] += c * v
            # out / (den E) must equal p_n = P / d: cross-multiplied, entry by entry
            p, scale = from_basis.polys[n], den * common
            if len(p._num) != n + 1 or any(u * p._den != v * scale for u, v in zip(out, p._num)):
                raise ValueError(f"connection row {n} does not reconstruct the source polynomial")

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(v, den) for v in num) for num, den in self._rows)

    @property
    def constant_column(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(num[0], den) for num, den in self._rows)

    def to_json_dict(self) -> dict:
        return {
            "gamma": [wire_row(num, den) for num, den in self._rows],
            "from_basis": self.from_basis.to_json_dict(),
            "to_basis": self.to_basis.to_json_dict(),
        }


def connection(from_basis: OrthoBasis, to_basis: OrthoBasis) -> ConnectionMatrix:
    """Exact connection coefficients between two full-order families, by the source's recurrence.

    With p_{n+1} = (A_n x + B_n) p_n - C_n p_{n-1} the source recurrence and
    X, multiplication by x in the target family q_j, tridiagonal from
    x q_j = (q_{j+1} - B'_j q_j + C'_j q_{j-1}) / A'_j, row 0 is p_0 / q_0 and
    gamma_{n+1} = A_n X gamma_n + B_n gamma_n - C_n gamma_{n-1}: a walk of
    :func:`_family` in the target's coordinates, O(n) integer work per row
    and O(N^2) per matrix, where back substitution of each p_n would be
    O(N^3).  The target's (1/A'_j, -B'_j/A'_j, C'_j/A'_j), j < N, are put
    over one denominator once per call; C'_0 multiplies q_{-1} = 0.
    """
    order = from_basis.order
    if to_basis.order < order:
        raise InsufficientMomentsError(
            f"target basis order {to_basis.order} < source order {order}"
        )
    # x q_j = (up[j] q_{j+1} + mid[j] q_j + down[j] q_{j-1}) / xden
    steps = (v for a, b, c in to_basis.recurrence[:order] for v in (1 / a, -b / a, c / a))
    scaled, xden = over_lcm([v.as_integer_ratio() for v in steps])
    up, mid, down = scaled[0::3], scaled[1::3], scaled[2::3]

    def times_x(num):
        out = [0] * (len(num) + 1)
        for j, v in enumerate(num):
            if v:
                out[j + 1] += up[j] * v
                out[j] += mid[j] * v
                if j:
                    out[j - 1] += down[j] * v
        return out

    g0 = Polynomial((from_basis.p0 / to_basis.p0,))
    rows = _family(g0, from_basis.recurrence, times_x, xden)
    return ConnectionMatrix([(g._num, g._den) for g in rows], from_basis, to_basis)


def hermite(order: int) -> OrthoBasis:
    """Probabilists' Hermite polynomials He_0..He_order.

    The basis of the closed-form triples (1, 0, n) of
    He_{n+1} = x He_n - n He_{n-1}; monic with squared norms n! against the
    standard normal moments.  The orthonormal variant is the pair (He_n, n!):
    scale by 1/sqrt(n!) only when the context guarantees the root is rational.

    The closed-form triples are kept on purpose rather than running the
    Chebyshev pass of :func:`basis_from_moments` over the Gaussian moments:
    the demo battery's ``hermite-from-gaussian-moments`` check compares the
    two routes, and building one from the other would turn that check into
    a comparison of the engine with itself.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    triples = tuple((Fraction(1), Fraction(0), Fraction(n)) for n in range(order))
    return OrthoBasis(
        norms=tuple(Fraction(factorial(n)) for n in range(order + 1)),
        recurrence=triples,
        source_moments=builtin("gaussian", 2 * order + 1),
    )


# ---------------------------------------------------------------------------
# Hermite addition formula (exact bivariate identity)
# ---------------------------------------------------------------------------

def _hermite_addition_sides(hs, n: int, a) -> tuple[dict, dict]:
    """:func:`hermite_addition_sides` over given Hermite polynomials hs[0..n].

    Runs on integers: with a = p/r and b = s/r over one r, both sides are
    multiplied by r^n, so a term a^i b^(k-i) becomes p^i s^(k-i) r^(n-k),
    and each polynomial is read as its numerators over its denominator.
    Each side is one integer dictionary over one denominator, and Fractions
    are built only for the two returned dictionaries.
    """
    a = rat(a)
    b = rational_sqrt(1 - a * a)
    if b is None:
        raise ValueError(f"1 - a^2 must be a perfect rational square, got a = {a}")
    (p, s), r = over_lcm([a.as_integer_ratio(), b.as_integer_ratio()])
    # r^n He_n(a x + b y) = sum_k N_k r^(n-k) (p x + s y)^k / D, He_n = sum_k N_k x^k / D
    lhs: dict[tuple[int, int], int] = {}
    for k, c in enumerate(hs[n]._num):
        if c:
            w = c * r ** (n - k)
            for i in range(k + 1):
                key = (i, k - i)
                lhs[key] = lhs.get(key, 0) + w * comb(k, i) * p**i * s ** (k - i)
    # r^n sum_m C(n,m) a^m b^(n-m) He_m(x) He_(n-m)(y), over the lcm of the products' denominators
    den = lcm(*(hs[m]._den * hs[n - m]._den for m in range(n + 1)))
    rhs: dict[tuple[int, int], int] = {}
    for m in range(n + 1):
        hx, hy = hs[m], hs[n - m]
        w = comb(n, m) * p**m * s ** (n - m) * (den // (hx._den * hy._den))
        for i, cx in enumerate(hx._num):
            if cx:
                for j, cy in enumerate(hy._num):
                    if cy:
                        rhs[(i, j)] = rhs.get((i, j), 0) + w * cx * cy
    return (
        {key: Fraction(v, hs[n]._den * r**n) for key, v in lhs.items() if v},
        {key: Fraction(v, den * r**n) for key, v in rhs.items() if v},
    )


def hermite_addition_sides(n: int, a) -> tuple[dict, dict]:
    """Both sides of the Hermite addition formula at mixing weight a, expanded in x, y.

    Left: He_n(a*x + b*y) with b = sqrt(1 - a^2), which must be rational
    (e.g. a = 3/5 gives b = 4/5).  Right:
    sum_m C(n,m) a^m b^(n-m) He_m(x) He_{n-m}(y).  Returns the two monomial
    dictionaries {(x-power, y-power): coefficient} for exact comparison.
    """
    return _hermite_addition_sides(hermite(n).polys, n, a)


def hermite_addition_holds(n: int, a) -> bool:
    """True iff the addition formula is an exact bivariate identity at order n."""
    lhs, rhs = hermite_addition_sides(n, a)
    return lhs == rhs
