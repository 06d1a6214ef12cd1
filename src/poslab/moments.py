"""Exact moment sequences, Hankel positivity tests, and the builtin catalog.

A moment sequence is a finite prefix m_0..m_N of the power moments of a
(possibly signed) measure on the real line.  The central question answered
here is finite-order positivity: a sequence is the moment sequence of some
nonnegative measure iff every Hankel determinant

    d_n = det[ m_{i+j} ]_{0 <= i,j <= n}

is nonnegative.  With only finitely many moments in hand we can only ever
certify "pm to order K" and never beyond; every verdict in this module is
explicit about the order it was tested at.

One exact engine serves both the Hankel battery here and the orthogonal
family in :mod:`poslab.orthopoly`: a single O(K^2) pass of Chebyshev's
algorithm (Gautschi, SIAM J. Sci. Stat. Comput. 3, 1982) over the moments
yields the monic norms h_k and the recurrence (a_k, b_k), and with them
d_k = h_0 ... h_k.  Only orders at or past a zero h_k, where the recurrence
does not exist, fall back to a fraction-free (Bareiss) determinant per order.

All values are immutable and every function is pure, so everything here is
safe for unrestricted concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb, factorial, lcm

from .errors import InsufficientMomentsError, SchemaError
from .rationals import fibonacci, rat, rat_str

DIAGNOSTIC_DIGITS = 50


@dataclass(frozen=True)
class MomentSequence:
    """A finite prefix of exact power moments, orders 0..N."""

    values: tuple[Fraction, ...]
    label: str = ""

    def __post_init__(self):
        vals = tuple(rat(v) for v in self.values)
        if not vals:
            raise ValueError("a moment sequence needs at least the order-0 moment")
        object.__setattr__(self, "values", vals)

    @property
    def normalized(self) -> bool:
        """True iff m_0 = 1, i.e. the underlying measure is a probability measure."""
        return self.values[0] == 1

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index: int) -> Fraction:
        return self.values[index]

    def prefix(self, length: int, label: str | None = None) -> "MomentSequence":
        if length > len(self.values):
            raise InsufficientMomentsError(
                f"{self.label or 'sequence'}: asked for {length} moments, only {len(self.values)} available"
            )
        return MomentSequence(self.values[:length], label if label is not None else self.label)

    def to_json_dict(self) -> dict:
        return {"label": self.label, "values": [rat_str(v) for v in self.values]}

    @classmethod
    def from_json_dict(cls, data: dict, where: str = "$") -> "MomentSequence":
        if not isinstance(data, dict):
            raise SchemaError(f"{where}: expected an object with 'label' and 'values'")
        label = data.get("label", "")
        if not isinstance(label, str):
            raise SchemaError(f"{where}.label: expected a string")
        raw = data.get("values")
        if not isinstance(raw, list) or not raw:
            raise SchemaError(f"{where}.values: expected a non-empty list of rational strings")
        vals = []
        for i, item in enumerate(raw):
            if not isinstance(item, str):
                raise SchemaError(f"{where}.values[{i}]: expected a rational string, got {item!r}")
            try:
                vals.append(rat(item))
            except ValueError as exc:
                raise SchemaError(f"{where}.values[{i}]: {exc}") from exc
        return cls(tuple(vals), label)


# ---------------------------------------------------------------------------
# Exact determinants
# ---------------------------------------------------------------------------

def _det_exact(rows: list[list[Fraction]]) -> Fraction:
    """Exact determinant via fraction-free (Bareiss) elimination.

    Rows are first scaled to integers (tracking the scale), then eliminated
    with exact integer divisions only.  No rounding anywhere, so sign
    decisions near zero are trustworthy.
    """
    n = len(rows)
    scale = 1
    mat: list[list[int]] = []
    for row in rows:
        denom = 1
        for x in row:
            denom = lcm(denom, x.denominator)
        scale *= denom
        mat.append([int(x * denom) for x in row])

    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if mat[i][k] != 0), None)
            if pivot is None:
                return Fraction(0)
            mat[k], mat[pivot] = mat[pivot], mat[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return Fraction(sign * mat[n - 1][n - 1], scale)


def hankel_det(m: MomentSequence, n: int) -> Fraction:
    """det[m_{i+j}] for 0 <= i,j <= n, computed exactly."""
    if n < 0:
        raise ValueError("Hankel order must be nonnegative")
    if len(m) < 2 * n + 1:
        raise InsufficientMomentsError(
            f"Hankel determinant of order {n} needs {2 * n + 1} moments, got {len(m)}"
        )
    return _det_exact([[m[i + j] for j in range(n + 1)] for i in range(n + 1)])


def shifted_hankel_det(m: MomentSequence, n: int) -> Fraction:
    """det[m_{1+i+j}] for 0 <= i,j <= n; nonnegativity localizes the support in [0, oo)."""
    if n < 0:
        raise ValueError("Hankel order must be nonnegative")
    if len(m) < 2 * n + 2:
        raise InsufficientMomentsError(
            f"shifted Hankel determinant of order {n} needs {2 * n + 2} moments, got {len(m)}"
        )
    return _det_exact([[m[1 + i + j] for j in range(n + 1)] for i in range(n + 1)])


@dataclass(frozen=True)
class PmReport:
    """Finite-order positivity report for one moment sequence.

    ``is_pm_to_order`` is the largest order K such that d_0..d_K are all
    nonnegative among the tested prefix (-1 if d_0 < 0 already).  A zero
    determinant is pm-compatible but turns ``strictly_positive`` off; shifted
    determinants are tested as far as the data allows and feed
    ``nonneg_support``.
    """

    hankel_dets: tuple[Fraction, ...]
    shifted_dets: tuple[Fraction, ...]
    is_pm_to_order: int
    strictly_positive: bool
    nonneg_support: bool
    notes: tuple[str, ...] = ()

    @property
    def order(self) -> int:
        return len(self.hankel_dets) - 1

    @property
    def is_pm(self) -> bool:
        """True iff no tested Hankel determinant is negative."""
        return self.is_pm_to_order == self.order

    @property
    def first_negative_order(self) -> int | None:
        for k, d in enumerate(self.hankel_dets):
            if d < 0:
                return k
        return None

    def to_json_dict(self) -> dict:
        return {
            "hankel_dets": [rat_str(d) for d in self.hankel_dets],
            "shifted_dets": [rat_str(d) for d in self.shifted_dets],
            "is_pm_to_order": self.is_pm_to_order,
            "strictly_positive": self.strictly_positive,
            "nonneg_support": self.nonneg_support,
            "notes": list(self.notes),
        }


def _chebyshev(values) -> tuple[list[Fraction], list[Fraction], list[Fraction]]:
    """Chebyshev's algorithm: one exact pass from moments to the monic recurrence.

    For the moment functional behind ``values`` = m_0..m_{L-1}, returns
    (h, a, b) with h_k = <pi_k, pi_k> for the monic orthogonal polynomials
    pi_{k+1} = (x - a_k) pi_k - b_k pi_{k-1}, b_0 = 0.  h_k needs m_{2k};
    a_k and b_k need m_{2k+1}.  The pass runs through negative h_k (a signed
    functional still has a recurrence) and ends at the first zero h_k, which
    is then the last entry of h: no recurrence exists past it.  O(L^2)
    rational operations; see Gautschi, *Orthogonal Polynomials: Computation
    and Approximation* (2004), section 2.1.7.
    """
    size = len(values)
    h: list[Fraction] = []
    a: list[Fraction] = []
    b: list[Fraction] = []
    # sigma_k[l] = <pi_k, x^l>, meaningful for k <= l <= size - 1 - k
    prev = [Fraction(0)] * size
    cur = list(values)
    for k in range((size + 1) // 2):
        hk = cur[k]
        h.append(hk)
        if hk == 0 or 2 * k + 2 > size:
            break
        if k:
            ak = cur[k + 1] / hk - prev[k] / h[k - 1]
            bk = hk / h[k - 1]
        else:
            ak = cur[1] / hk
            bk = Fraction(0)
        a.append(ak)
        b.append(bk)
        nxt = [Fraction(0)] * size
        for j in range(k + 1, size - 1 - k):
            nxt[j] = cur[j + 1] - ak * cur[j] - bk * prev[j]
        prev, cur = cur, nxt
    return h, a, b


def is_pm(m: MomentSequence, max_order: int) -> PmReport:
    """Run the Hankel positivity battery on m up to the given order.

    Needs 2*max_order+1 moments for the plain determinants; shifted
    determinants are computed as far as the available length allows.  The
    report never claims anything beyond the tested orders.

    One Chebyshev pass gives every determinant up to the first zero h_k:
    d_k = h_0 ... h_k and, from the determinantal form of the monic
    orthogonal polynomials at x = 0, d'_k = (-1)^(k+1) d_k pi_{k+1}(0).
    Orders from a zero h_k on (finite support, or a degenerate signed
    sequence) are computed one by one with :func:`hankel_det` and
    :func:`shifted_hankel_det`.
    """
    if max_order < 0:
        raise ValueError("max_order must be nonnegative")
    if len(m) < 2 * max_order + 1:
        raise InsufficientMomentsError(
            f"pm test to order {max_order} needs {2 * max_order + 1} moments, got {len(m)}"
        )
    shifted_max = min(max_order, (len(m) - 2) // 2)
    h, a, b = _chebyshev(m.values[: max(2 * max_order + 1, 2 * shifted_max + 2)])
    dets: list[Fraction] = []
    shifted: list[Fraction] = []
    product = Fraction(1)
    pi_prev, pi_cur = Fraction(0), Fraction(1)  # pi_{k-1}(0), pi_k(0)
    for k, hk in enumerate(h):
        if hk == 0:
            break
        product *= hk
        dets.append(product)
        if k < min(len(a), shifted_max + 1):
            pi_prev, pi_cur = pi_cur, -a[k] * pi_cur - b[k] * pi_prev
            shifted.append((-1) ** (k + 1) * product * pi_cur)
    dets += [hankel_det(m, k) for k in range(len(dets), max_order + 1)]
    shifted += [shifted_hankel_det(m, k) for k in range(len(shifted), shifted_max + 1)]

    pm_order = -1
    for k, d in enumerate(dets):
        if d < 0:
            break
        pm_order = k
    notes = []
    for k, d in enumerate(dets[: pm_order + 1]):
        if d == 0:
            notes.append(f"zero Hankel determinant at order {k}: finite support possible")
            break
    return PmReport(
        hankel_dets=tuple(dets),
        shifted_dets=tuple(shifted),
        is_pm_to_order=pm_order,
        strictly_positive=all(d > 0 for d in dets),
        nonneg_support=all(d >= 0 for d in shifted),
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Closure operations on pm sequences
# ---------------------------------------------------------------------------

def _require_equal_lengths(a: MomentSequence, b: MomentSequence, op: str) -> None:
    if len(a) != len(b):
        raise ValueError(f"{op}: length mismatch ({len(a)} vs {len(b)})")


def pm_product(a: MomentSequence, b: MomentSequence) -> MomentSequence:
    """Elementwise product {a_n * b_n}: the moments of X*Y for independent X, Y."""
    _require_equal_lengths(a, b, "pm_product")
    return MomentSequence(
        tuple(x * y for x, y in zip(a.values, b.values)),
        label=f"product({a.label},{b.label})",
    )


def pm_mixture(a: MomentSequence, b: MomentSequence, p: Fraction) -> MomentSequence:
    """Convex combination {p*a_n + (1-p)*b_n}: the moments of a two-component mixture."""
    p = rat(p)
    if not 0 <= p <= 1:
        raise ValueError(f"mixture weight must lie in [0, 1], got {p}")
    _require_equal_lengths(a, b, "pm_mixture")
    return MomentSequence(
        tuple(p * x + (1 - p) * y for x, y in zip(a.values, b.values)),
        label=f"mixture({a.label},{b.label};p={p})",
    )


def pm_binomial_combine(
    a: MomentSequence,
    b: MomentSequence,
    alpha: Fraction,
    beta: Fraction,
    sign: int = 1,
) -> MomentSequence:
    """Moments of beta*Y + sign*alpha*X for independent X, Y with moments a, b.

    Entry n is sum_{i<=n} sign^i C(n,i) alpha^i beta^(n-i) a_i b_{n-i}.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    alpha = rat(alpha)
    beta = rat(beta)
    _require_equal_lengths(a, b, "pm_binomial_combine")
    out = []
    for n in range(len(a)):
        total = Fraction(0)
        for i in range(n + 1):
            total += (sign ** i) * comb(n, i) * alpha**i * beta ** (n - i) * a[i] * b[n - i]
        out.append(total)
    tag = "+" if sign == 1 else "-"
    return MomentSequence(
        tuple(out), label=f"combine({beta}*{b.label}{tag}{alpha}*{a.label})"
    )


def pm_subsample(a: MomentSequence, k: int) -> MomentSequence:
    """Every k-th moment {a_{kn}}: the moments of X^k."""
    if k < 1:
        raise ValueError("subsample step must be a positive integer")
    out = a.values[::k]
    if not out:
        raise InsufficientMomentsError(f"pm_subsample: no entries at step {k}")
    return MomentSequence(out, label=f"subsample({a.label};k={k})")


def pm_reflect(a: MomentSequence) -> MomentSequence:
    """Zero the odd moments: the moments of a fair random sign applied to X."""
    return MomentSequence(
        tuple(v if n % 2 == 0 else Fraction(0) for n, v in enumerate(a.values)),
        label=f"reflect({a.label})",
    )


def pm_sqrt_symmetrize(a: MomentSequence) -> MomentSequence:
    """Moments of a fair random sign times sqrt(X): entry 2k is a_k, odd entries 0.

    Requires a nonnegative input sequence (X must be a nonnegative variable).
    Output has length 2*len(a) - 1.
    """
    for n, v in enumerate(a.values):
        if v < 0:
            raise ValueError(f"pm_sqrt_symmetrize needs nonnegative entries; entry {n} is {v}")
    out = [Fraction(0)] * (2 * len(a) - 1)
    for k, v in enumerate(a.values):
        out[2 * k] = v
    return MomentSequence(tuple(out), label=f"sqrt_symmetrize({a.label})")


# ---------------------------------------------------------------------------
# Builtin catalog
# ---------------------------------------------------------------------------

def _geometric(length: int, a: Fraction) -> tuple[Fraction, ...]:
    return tuple(a**n for n in range(length))


def _gaussian(length: int) -> tuple[Fraction, ...]:
    # m_{2k} = (2k-1)!!, odd moments vanish
    out = [Fraction(0)] * length
    out[0] = Fraction(1)
    for k in range(2, length, 2):
        out[k] = out[k - 2] * (k - 1)
    return tuple(out)


def _catalan(length: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(comb(2 * n, n), n + 1) for n in range(length))


def _factorial(length: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(factorial(n)) for n in range(length))


def _log_kernel(length: int, k: Fraction) -> tuple[Fraction, ...]:
    if k <= -1:
        raise ValueError(f"log_kernel parameter must exceed -1, got {k}")
    if k.denominator != 1:
        raise ValueError(
            f"log_kernel parameter must be an integer for the moments to stay rational, got {k}"
        )
    e = int(k) + 1
    return tuple(Fraction(1, (n + 1) ** e) for n in range(length))


def _fib_shift(length: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(f) for f in fibonacci(length))


def _fib_ratio(length: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(f, n + 1) for n, f in enumerate(fibonacci(length)))


def _fib_even(length: int) -> tuple[Fraction, ...]:
    fib = fibonacci(2 * length + 1)
    # fib[m] = F_{m+1}, so F_{2n+2} = fib[2n+1]
    return tuple(Fraction(fib[2 * n + 1], n + 1) for n in range(length))


def _fib_odd(length: int) -> tuple[Fraction, ...]:
    fib = fibonacci(2 * length + 1)
    # F_{2n+1} = fib[2n]
    return tuple(Fraction(fib[2 * n], n + 1) for n in range(length))


def _fib_scaled(length: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(f, 3**n) for n, f in enumerate(fibonacci(length)))


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    description: str
    needs_param: bool = False
    param_name: str = ""


_CATALOG: dict[str, CatalogEntry] = {
    "geometric": CatalogEntry(
        "geometric", "powers a^n: point mass at a (rank-1 Hankel)", True, "a"
    ),
    "gaussian": CatalogEntry(
        "gaussian", "standard normal moments 1, 0, 1, 0, 3, 0, 15, ... (odd double factorials)"
    ),
    "catalan": CatalogEntry(
        "catalan", "Catalan numbers C(2n,n)/(n+1): semicircle-type measure on (0, 4)"
    ),
    "factorial": CatalogEntry("factorial", "n!: the unit-rate exponential distribution"),
    "log_kernel": CatalogEntry(
        "log_kernel",
        "1/(n+1)^(k+1): density (-log x)^k / k! on (0, 1); integer k >= 0",
        True,
        "k",
    ),
    "fib_shift": CatalogEntry("fib_shift", "Fibonacci numbers 1, 1, 2, 3, 5, ... (two-atom measure)"),
    "fib_ratio": CatalogEntry("fib_ratio", "Fibonacci numbers averaged by (n+1)"),
    "fib_even": CatalogEntry("fib_even", "even-indexed Fibonacci numbers averaged by (n+1)"),
    "fib_odd": CatalogEntry("fib_odd", "odd-indexed Fibonacci numbers averaged by (n+1)"),
    "fib_scaled": CatalogEntry("fib_scaled", "Fibonacci numbers 1, 1, 2, ... damped by 3^n"),
}


def catalog_entries() -> tuple[CatalogEntry, ...]:
    """All builtin sequence descriptors, in a fixed order."""
    return tuple(_CATALOG.values())


def builtin(name: str, length: int, param=None) -> MomentSequence:
    """Construct a catalog sequence by name.

    ``geometric`` takes the atom location ``a``; ``log_kernel`` takes the
    integer exponent ``k``.  Every catalog entry is a pm sequence, so it
    passes :func:`is_pm` at any order the requested length supports.
    """
    if length < 1:
        raise ValueError("length must be at least 1")
    entry = _CATALOG.get(name)
    if entry is None:
        known = ", ".join(sorted(_CATALOG))
        raise ValueError(f"unknown catalog sequence {name!r}; known: {known}")
    if entry.needs_param:
        if param is None:
            raise ValueError(f"catalog sequence {name!r} needs parameter {entry.param_name}")
        param = rat(param)
        values = {"geometric": _geometric, "log_kernel": _log_kernel}[name](length, param)
        label = f"{name}({param})"
    else:
        if param is not None:
            raise ValueError(f"catalog sequence {name!r} takes no parameter")
        builder = {
            "gaussian": _gaussian,
            "catalan": _catalan,
            "factorial": _factorial,
            "fib_shift": _fib_shift,
            "fib_ratio": _fib_ratio,
            "fib_even": _fib_even,
            "fib_odd": _fib_odd,
            "fib_scaled": _fib_scaled,
        }[name]
        values = builder(length)
        label = name
    return MomentSequence(values, label=label)


def parse_catalog_key(key: str) -> tuple[str, Fraction | None]:
    """Split a CLI-style key like ``"geometric(2)"`` into (name, param)."""
    key = key.strip()
    if "(" in key:
        if not key.endswith(")"):
            raise ValueError(f"malformed catalog key {key!r}")
        name, _, arg = key[:-1].partition("(")
        return name.strip(), rat(arg)
    return key, None


# ---------------------------------------------------------------------------
# Float diagnostics (never part of a verdict)
# ---------------------------------------------------------------------------

def carleman_partial(m: MomentSequence, upper: int) -> Decimal:
    """Partial sum sum_{n=1..upper} m_{2n}^(-1/(2n)), at 50 significant digits.

    Divergence of the full series would certify that the moment problem is
    determinate; a finite prefix can only ever be suggestive, so this is a
    diagnostic and never feeds a verdict.
    """
    if upper < 1:
        raise ValueError("upper summation index must be at least 1")
    if len(m) < 2 * upper + 1:
        raise InsufficientMomentsError(
            f"Carleman partial sum to {upper} needs {2 * upper + 1} moments, got {len(m)}"
        )
    with localcontext() as ctx:
        ctx.prec = DIAGNOSTIC_DIGITS
        total = Decimal(0)
        for n in range(1, upper + 1):
            q = m[2 * n]
            if q <= 0:
                raise ValueError(f"even moment m_{2 * n} = {q} is not positive")
            base = Decimal(q.numerator) / Decimal(q.denominator)
            total += base ** (Decimal(-1) / Decimal(2 * n))
        return +total


def moment_gf_eval(m: MomentSequence, t: Fraction, terms: int) -> Decimal:
    """Truncated exponential generating function sum_{n<terms} t^n m_n / n!.

    The full series is the Laplace transform of the measure; its existence
    near 0 is a determinacy heuristic.  The rational partial sum is computed
    exactly and only converted to 50 digits at the end.
    """
    t = rat(t)
    if terms < 1:
        raise ValueError("terms must be at least 1")
    if terms > len(m):
        raise InsufficientMomentsError(
            f"generating function with {terms} terms needs {terms} moments, got {len(m)}"
        )
    total = Fraction(0)
    power = Fraction(1)
    for n in range(terms):
        total += power * m[n] / factorial(n)
        power *= t
    with localcontext() as ctx:
        ctx.prec = DIAGNOSTIC_DIGITS
        return Decimal(total.numerator) / Decimal(total.denominator)
