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
algorithm (Gautschi, SIAM J. Sci. Stat. Comput. 3, 1982) over the integer
numerators M_i = D m_i of the moments, D their common denominator.  The
pass returns the integer Hankel minors Delta_k of the numerators together
with the values at 0 of the integral orthogonal polynomials, in the
fraction-free form of Bareiss (Math. Comp. 22, 1968), and each step's
recurrence coefficient a_k as an integer pair, read off the step's own
multipliers once their common factor is divided out: d_k = Delta_k /
D^(k+1), the shifted determinants, the monic norms h_k and b_k = h_k /
h_{k-1} all follow by one division each.  At a
zero minor Delta_r the recurrence stops; the pass then reports how many
leading moments follow the recurrence of pi_r, and every determinant of
order k >= r that those moments cover is an exact zero (a flat, r-atomic
or finitely supported sequence).  Only the orders beyond them, on input
that is not flat, fall back to a fraction-free (Bareiss) determinant per
order.

A :class:`MomentSequence` holds those numerators over D in lowest terms,
as a polynomial holds its coefficients, and the pass reads them as they
are.  Its constructor takes rationals and callers that hold integers, such
as the grid of :func:`poslab.lancaster.lancaster_report` and every builder
of the :func:`builtin` catalog, use ``_from_ints``; both store through the
one method ``_store``, as :class:`poslab.orthopoly.Polynomial` does.  A
:class:`PmReport` holds the battery's determinants the same way, as the
integer numerators Delta_k over D^(k+1), and has one constructor, over
those integers: its verdicts are read from their signs, its report strings
are written from them, and its ``hankel_dets`` and ``shifted_dets``
Fractions are built on read.

All values are immutable and every function is pure, so everything here is
safe for unrestricted concurrent use.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from math import comb, exp, factorial, gcd, inf, log
from operator import mul

from .errors import InsufficientMomentsError, SchemaError
from .rationals import (
    fibonacci, json_object, lowest_terms, over_lcm, rat, rational_row, report_float, wire_row,
)


@dataclass(frozen=True, init=False)
class MomentSequence:
    """A finite prefix of exact power moments, orders 0..N.

    Integer numerators over one positive denominator, in lowest terms, so
    equal sequences have equal fields; ``values`` and ``[i]`` build Fractions.
    """

    _num: tuple[int, ...]
    _den: int
    label: str = ""

    def __init__(self, values, label: str = ""):
        # lowest-terms fractions over the lcm of their denominators are in lowest terms
        self._store(*over_lcm([rat(v).as_integer_ratio() for v in values]), label)

    def _store(self, num, den: int, label: str) -> None:
        if not num:
            raise ValueError("a moment sequence needs at least the order-0 moment")
        vars(self).update(_num=tuple(num), _den=den, label=label)  # past the frozen __setattr__

    @classmethod
    def _from_ints(cls, num, den: int, label: str = "") -> "MomentSequence":
        """The sequence num[i] / den, for den > 0."""
        out = object.__new__(cls)
        out._store(*lowest_terms(num, den), label)
        return out

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self._den) for v in self._num)

    @property
    def normalized(self) -> bool:
        """True iff m_0 = 1, i.e. the underlying measure is a probability measure."""
        return self._num[0] == self._den

    def __len__(self) -> int:
        return len(self._num)

    def __getitem__(self, index: int) -> Fraction:
        return Fraction(self._num[index], self._den)

    def prefix(self, length: int) -> "MomentSequence":
        if length < 1:
            raise ValueError(f"a prefix needs at least the order-0 moment, got length {length}")
        if length > len(self._num):
            raise InsufficientMomentsError(
                f"{self.label or 'sequence'}: asked for {length} moments, only {len(self._num)} available"
            )
        return MomentSequence._from_ints(self._num[:length], self._den, self.label)

    def to_json_dict(self) -> dict:
        return {"label": self.label, "values": wire_row(self._num, self._den)}

    @classmethod
    def from_json_dict(cls, data: dict, where: str = "$") -> "MomentSequence":
        data = json_object(data, where, ("label", "values"))
        label = data.get("label", "")
        if not isinstance(label, str):
            raise SchemaError(f"{where}.label: expected a string")
        return cls._from_ints(*rational_row(data.get("values"), f"{where}.values"), label)


# ---------------------------------------------------------------------------
# Exact determinants
# ---------------------------------------------------------------------------

def _hankel_window(m: MomentSequence, n: int, shift: int) -> int:
    """D^(n+1) det[m_{shift+i+j}] for 0 <= i,j <= n by fraction-free (Bareiss) elimination.

    Runs on the integer numerators M_i = D m_i of m, D its denominator, as
    :func:`_chebyshev` does, with row pivoting and exact integer divisions
    only, so sign decisions near zero are trustworthy.  Returns the integer
    determinant det[M_{shift+i+j}], the numerator over D^(n+1).
    """
    if n < 0:
        raise ValueError("Hankel order must be nonnegative")
    needed = 2 * n + 1 + shift
    if len(m) < needed:
        what = "shifted Hankel determinant" if shift else "Hankel determinant"
        raise InsufficientMomentsError(
            f"{what} of order {n} needs {needed} moments, got {len(m)}"
        )
    ints = m._num[shift:needed]
    mat = [list(ints[i : i + n + 1]) for i in range(n + 1)]
    sign = 1
    prev = 1
    for k in range(n):
        if mat[k][k] == 0:
            pivot = next((i for i in range(k + 1, n + 1) if mat[i][k] != 0), None)
            if pivot is None:
                return 0
            mat[k], mat[pivot] = mat[pivot], mat[k]
            sign = -sign
        for i in range(k + 1, n + 1):
            for j in range(k + 1, n + 1):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
        prev = mat[k][k]
    return sign * mat[n][n]


def hankel_det(m: MomentSequence, n: int) -> Fraction:
    """det[m_{i+j}] for 0 <= i,j <= n, computed exactly (see :func:`_hankel_window`)."""
    return Fraction(_hankel_window(m, n, 0), m._den ** (n + 1))


def shifted_hankel_det(m: MomentSequence, n: int) -> Fraction:
    """det[m_{1+i+j}] for 0 <= i,j <= n; nonnegativity localizes the support in [0, oo)."""
    return Fraction(_hankel_window(m, n, 1), m._den ** (n + 1))


POSITIVE = "positive"
REFUTED = "refuted"


class Verdict(namedtuple("Verdict", "status order label notes", defaults=((),))):
    """The outcome of one battery: status, the order it was decided at, verdict line, notes.

    ``status`` and ``label`` are strings, ``order`` an int and ``notes`` a
    tuple of strings.  A ``refuted`` status, and only it, says a tested
    necessary condition failed exactly; the CLI exits 1 on it and on
    nothing else.
    """

    __slots__ = ()


@dataclass(frozen=True, init=False, eq=False)
class PmReport:
    """Finite-order positivity report for one moment sequence.

    ``PmReport(dets, shifted, den)``, the one constructor, takes the Hankel
    determinants d_0..d_K and the shifted ones as integer numerators over one
    positive denominator D = ``den``, as a :class:`MomentSequence` holds its
    values: d_k = ``dets[k]`` / D^(k+1) and d'_k = ``shifted[k]`` / D^(k+1).
    :func:`is_pm` passes the integers of its battery over the denominator of
    its sequence.  ``hankel_dets`` and ``shifted_dets`` build the Fractions
    on each read, and two reports are equal iff those values are.

    The constructor is the one place the sign pattern is read, once, on the
    numerators.  ``first_zero_order`` is the first zero before any negative
    determinant (pm-compatible: finite support possible), and
    ``is_pm_to_order`` the largest K with d_0..d_K nonnegative (-1 if
    d_0 < 0 already).  Shifted determinants are tested as far as the data
    allows and feed ``nonneg_support``.
    """

    _dets: tuple[int, ...]
    _shifted: tuple[int, ...]
    _den: int
    first_negative_order: int | None
    first_zero_order: int | None
    strictly_positive: bool
    nonneg_support: bool

    def __init__(self, dets, shifted, den: int):
        dets, shifted = tuple(dets), tuple(shifted)
        negative = zero = None
        for k, d in enumerate(dets):
            if d < 0:
                negative = k
                break
            if zero is None and not d:
                zero = k
        vars(self).update(  # past the frozen __setattr__
            _dets=dets,
            _shifted=shifted,
            _den=den,
            first_negative_order=negative,
            first_zero_order=zero,
            strictly_positive=negative is None and zero is None,
            nonneg_support=all(d >= 0 for d in shifted),
        )

    def _fractions(self, nums: tuple[int, ...]) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, p) for v, p in zip(nums, accumulate(repeat(self._den), mul)))

    @property
    def hankel_dets(self) -> tuple[Fraction, ...]:
        return self._fractions(self._dets)

    @property
    def shifted_dets(self) -> tuple[Fraction, ...]:
        return self._fractions(self._shifted)

    def __eq__(self, other):
        if not isinstance(other, PmReport):
            return NotImplemented
        return (self.hankel_dets, self.shifted_dets) == (other.hankel_dets, other.shifted_dets)

    def __hash__(self):
        return hash((self.hankel_dets, self.shifted_dets))

    @property
    def order(self) -> int:
        return len(self._dets) - 1

    @property
    def is_pm_to_order(self) -> int:
        if self.first_negative_order is None:
            return self.order
        return self.first_negative_order - 1

    @property
    def is_pm(self) -> bool:
        """True iff no tested Hankel determinant is negative."""
        return self.first_negative_order is None

    @property
    def verdict(self) -> Verdict:
        k = self.first_zero_order
        notes = () if k is None else (f"zero Hankel determinant at order {k}: finite support possible",)
        k = self.first_negative_order
        if k is None:
            return Verdict(POSITIVE, self.order, "pm", notes)
        return Verdict(REFUTED, k, f"not pm (first negative at order {k})", notes)

    def to_json_dict(self) -> dict:
        return {
            "hankel_dets": wire_row(self._dets, self._den, self._den),
            "shifted_dets": wire_row(self._shifted, self._den, self._den),
            "is_pm_to_order": self.is_pm_to_order,
            "strictly_positive": self.strictly_positive,
            "nonneg_support": self.nonneg_support,
            "notes": list(self.verdict.notes),
        }


def _chebyshev(ints) -> tuple[list[int], list[tuple[int, int]], list[int], int]:
    """Chebyshev's algorithm on integers: one exact pass from moments to Hankel minors.

    Takes integer moments M_0..M_{L-1} (M_i = D m_i, D the denominator of
    the sequence) and runs the modified Chebyshev recurrence (Gautschi,
    *Orthogonal Polynomials: Computation and Approximation* (2004), section
    2.1.7) for the monic orthogonal pi_k of the functional of M.  Returns
    (dets, steps, zeros, flat):

    * dets[k] = Delta_k = det[M_{i+j}]_{0 <= i,j <= k}, needing M_{2k};
    * steps[k] = (p, q), the recurrence coefficient a_k = p / q of
      pi_{k+1} = (x - a_k) pi_k - b_k pi_{k-1}, and zeros[k] = P_{k+1}(0),
      both needing M_{2k+1},

    where P_k = Delta_{k-1} pi_k (Delta_{-1} = 1) is integral and
    s_k[l] = <P_k, x^l> is the Hankel minor of order k with its last row
    shifted to M_l..M_{l+k}.  In these terms the recurrence is Bareiss's
    fraction-free step (Math. Comp. 22, 1968):

        s_{k+1}[l] = (Delta_{k-1} (Delta_k s_k[l+1] - s_k[k+1] s_k[l])
                      + Delta_k (s_{k-1}[k] s_k[l] - Delta_k s_{k-1}[l]))
                     // Delta_{k-1}^2,

    exact because both sides are integer determinants; P_k(0) steps by the
    same formula with <x P_k, 1> read as (x P_k)(0) = 0.

    The pass does not store s_k itself: its entries are as large as the
    Hankel minors (for n! about 40k bits at k = 80, which makes Bareiss's
    division the dominant cost at large orders), while <pi_k, x^l> often
    stays small.  Each row <pi_k, x^l> (k <= l < L - k), pi_k(0) is kept
    as integer numerators over one common denominator in lowest terms.  The
    step forms the numerator above from these rows, with their pivots in
    place of the minors: the row of k + 1 is lead row_k[l+1] + mid row_k[l]
    - back row_{k-1}[l] over den lead, with lead = piv_{k-1} piv_k,
    back = piv_k^2 and mid = piv_k row_{k-1}[k] - piv_{k-1} row_k[k+1].
    The three multipliers are first divided by their gcd (for n! and
    (2k-1)!! all of lead, at every step), and the row is then reduced by
    the gcd of the row and its denominator instead of divided by
    Delta_{k-1}^2; a common factor of the three divides both the numerators
    and den lead, so the reduced row is the same.  The multipliers give
    a_k = -mid / lead, and Delta_k and P_{k+1}(0) come back from the rows
    by one exact division each.

    The pass runs through negative minors (a signed functional still has a
    recurrence) and ends at the first zero Delta_r, which is then the last
    entry of dets: no recurrence exists past it.  Its last row then holds
    <pi_r, x^l> for l = r..L-1-r, and ``flat`` counts the leading moments
    m_0..m_{flat-1} that follow the recurrence of pi_r (sum_i pi_r[i]
    m_{l+i} = 0): it is r plus the first l whose entry is nonzero, or L when
    the whole row vanishes.  Without a zero minor ``flat`` is 0.  O(L^2)
    integer operations.
    """
    size = len(ints)
    # cur = den (<pi_k, x^l> for l < size - k, then pi_k(0)) for the
    # functional of M, in lowest terms; prev is the row of k - 1 (0 at k = 0)
    cur = [*ints, 1]
    prev = [0] * (size + 1)
    den = 1
    dets: list[int] = []
    steps: list[tuple[int, int]] = []
    zeros: list[int] = []
    det, piv_prev = 1, 1  # Delta_{k-1}, row_{k-1}[k-1]
    flat = 0
    for k in range((size + 1) // 2):
        piv = cur[k]
        det = det * piv // den
        dets.append(det)
        if piv == 0:
            flat = next((k + l for l in range(k, size - k) if cur[l]), size)
            break
        if 2 * k + 2 > size:
            break
        # the numerator of Bareiss's step, with row pivots for the minors,
        # over the gcd of its three multipliers
        lead, back = piv_prev * piv, piv * piv
        mid = piv * prev[k] - piv_prev * cur[k + 1]
        g = gcd(lead, back, mid)
        if g != 1:
            lead, back, mid = lead // g, back // g, mid // g
        steps.append((-mid, lead))
        nxt = [0] * (k + 1)
        nxt += [
            lead * cur[l + 1] + mid * cur[l] - back * prev[l]
            for l in range(k + 1, size - 1 - k)
        ]
        nxt.append(mid * cur[-1] - back * prev[-1])
        nxt, den = lowest_terms(nxt, den * lead)
        zeros.append(det * nxt[-1] // den)
        prev, cur, piv_prev = cur, nxt, piv
    return dets, steps, zeros, flat


def _recurrence(m: MomentSequence) -> tuple[list[Fraction], list[Fraction], list[Fraction]]:
    """The monic recurrence of the functional behind m, from :func:`_chebyshev`.

    The pass reads the numerators M_i = D m_i of m, D its denominator.
    Returns (h, a, b) with h_k = <pi_k, pi_k> for the monic orthogonal
    polynomials pi_{k+1} = (x - a_k) pi_k - b_k pi_{k-1}, b_0 = 0:

        h_k = Delta_k / (Delta_{k-1} D),   a_k = p_k / q_k,   b_k = h_k / h_{k-1},

    with (p_k, q_k) the pass's step pairs.  h ends at the first zero h_k,
    and a, b stop one entry before it.
    """
    dets, steps, _, _ = _chebyshev(m._num)
    h = [Fraction(d, p * m._den) for p, d in zip([1] + dets, dets)]
    a = [Fraction(p, q) for p, q in steps]
    b = [h[k] / h[k - 1] if k else Fraction(0) for k in range(len(steps))]
    return h, a, b


def is_pm(m: MomentSequence, max_order: int) -> PmReport:
    """Run the Hankel positivity battery on m up to the given order.

    Needs 2*max_order+1 moments for the plain determinants; shifted
    determinants are computed as far as the available length allows.  The
    report never claims anything beyond the tested orders.

    The battery reads the numerators M_i = D m_i of m, D its denominator.
    One integer pass (:func:`_chebyshev`) gives every determinant up to the
    first zero minor: d_k = Delta_k / D^(k+1) and, from the determinantal
    form of the monic orthogonal polynomials at x = 0,
    d'_k = (-1)^(k+1) d_k pi_{k+1}(0) = (-1)^(k+1) P_{k+1}(0) / D^(k+1).

    Past a zero minor Delta_r the pass hands over ``flat``: the moments
    m_0..m_{flat-1} follow the recurrence of the monic pi_r.  For k >= r the
    rows of the Hankel matrix of order k combine, with the coefficients of
    pi_r, to the row (<pi_r, x^j>)_{j <= k}, which vanishes when k + r < flat;
    so d_k = 0 there, and d'_k = 0 when k + r + 1 < flat (the shifted row
    is (<pi_r, x^(j+1)>)_j).  Only the orders beyond that (a sequence that is
    not flat, such as a degenerate signed one) are computed one by one by
    :func:`_hankel_window` (Bareiss), on the same numerators.  The battery
    returns the integer numerators over D^(k+1) only, with no Fraction per
    determinant; :class:`PmReport` reads the verdicts from them.
    """
    if max_order < 0:
        raise ValueError("max_order must be nonnegative")
    if len(m) < 2 * max_order + 1:
        raise InsufficientMomentsError(
            f"pm test to order {max_order} needs {2 * max_order + 1} moments, got {len(m)}"
        )
    shifted_max = min(max_order, (len(m) - 2) // 2)
    window = max(2 * max_order + 1, 2 * shifted_max + 2)
    dets, _, zeros, flat = _chebyshev(m._num[:window])
    if dets[-1] == 0:
        dets.pop()
    shifted = [z if k % 2 else -z for k, z in enumerate(zeros[: shifted_max + 1])]
    r = len(dets)  # the order of the zero minor, if the pass met one
    dets += [0 if k + r < flat else _hankel_window(m, k, 0) for k in range(r, max_order + 1)]
    shifted += [
        0 if k + r + 1 < flat else _hankel_window(m, k, 1)
        for k in range(len(shifted), shifted_max + 1)
    ]
    return PmReport(dets, shifted, m._den)


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
    return MomentSequence(a.values[::k], label=f"subsample({a.label};k={k})")


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

def _geometric(length: int, a: Fraction) -> tuple[list[int], int]:
    p, q = a.as_integer_ratio()
    return [p**n * q ** (length - 1 - n) for n in range(length)], q ** (length - 1)


def _gaussian(length: int) -> tuple[list[int], int]:
    # m_{2k} = (2k-1)!!, odd moments vanish
    out = [0] * length
    out[0] = 1
    for k in range(2, length, 2):
        out[k] = out[k - 2] * (k - 1)
    return out, 1


def _catalan(length: int) -> tuple[list[int], int]:
    return [comb(2 * n, n) // (n + 1) for n in range(length)], 1


def _factorial(length: int) -> tuple[list[int], int]:
    return list(accumulate(range(1, length), mul, initial=1)), 1


def _over_n_plus_one(values, power: int = 1) -> tuple[list[int], int]:
    """values[n] / (n+1)^power over the lcm of the denominators."""
    return over_lcm([(v, (n + 1) ** power) for n, v in enumerate(values)])


def _log_kernel(length: int, k: Fraction) -> tuple[list[int], int]:
    if k <= -1:
        raise ValueError(f"log_kernel parameter must exceed -1, got {k}")
    if k.denominator != 1:
        raise ValueError(
            f"log_kernel parameter must be an integer for the moments to stay rational, got {k}"
        )
    return _over_n_plus_one([1] * length, int(k) + 1)


def _fib_shift(length: int) -> tuple[list[int], int]:
    return fibonacci(length), 1


def _fib_ratio(length: int) -> tuple[list[int], int]:
    return _over_n_plus_one(fibonacci(length))


def _fib_even(length: int) -> tuple[list[int], int]:
    # fib[m] = F_{m+1}, so F_{2n+2} = fib[2n+1]
    return _over_n_plus_one(fibonacci(2 * length)[1::2])


def _fib_odd(length: int) -> tuple[list[int], int]:
    # F_{2n+1} = fib[2n]
    return _over_n_plus_one(fibonacci(2 * length)[::2])


def _fib_scaled(length: int) -> tuple[list[int], int]:
    return [f * 3 ** (length - 1 - n) for n, f in enumerate(fibonacci(length))], 3 ** (length - 1)


class CatalogEntry(
    namedtuple("CatalogEntry", "name description builder param_name", defaults=("",))
):
    """A builtin sequence; ``builder(length)``, or ``builder(length, param)`` with a ``param_name``.

    The builder returns the first ``length`` moments as (numerators, den):
    integers over one positive denominator, not necessarily in lowest terms.
    """

    __slots__ = ()

    @property
    def needs_param(self) -> bool:
        return bool(self.param_name)


_CATALOG: dict[str, CatalogEntry] = {
    "geometric": CatalogEntry(
        "geometric", "powers a^n: point mass at a (rank-1 Hankel)", _geometric, "a"
    ),
    "gaussian": CatalogEntry(
        "gaussian",
        "standard normal moments 1, 0, 1, 0, 3, 0, 15, ... (odd double factorials)",
        _gaussian,
    ),
    "catalan": CatalogEntry(
        "catalan", "Catalan numbers C(2n,n)/(n+1): semicircle-type measure on (0, 4)", _catalan
    ),
    "factorial": CatalogEntry("factorial", "n!: the unit-rate exponential distribution", _factorial),
    "log_kernel": CatalogEntry(
        "log_kernel",
        "1/(n+1)^(k+1): density (-log x)^k / k! on (0, 1); integer k >= 0",
        _log_kernel,
        "k",
    ),
    "fib_shift": CatalogEntry(
        "fib_shift", "Fibonacci numbers 1, 1, 2, 3, 5, ... (two-atom measure)", _fib_shift
    ),
    "fib_ratio": CatalogEntry("fib_ratio", "Fibonacci numbers averaged by (n+1)", _fib_ratio),
    "fib_even": CatalogEntry(
        "fib_even", "even-indexed Fibonacci numbers averaged by (n+1)", _fib_even
    ),
    "fib_odd": CatalogEntry("fib_odd", "odd-indexed Fibonacci numbers averaged by (n+1)", _fib_odd),
    "fib_scaled": CatalogEntry(
        "fib_scaled", "Fibonacci numbers 1, 1, 2, ... damped by 3^n", _fib_scaled
    ),
}


def catalog_entries() -> tuple[CatalogEntry, ...]:
    """All builtin sequence descriptors, in a fixed order."""
    return tuple(_CATALOG.values())


def builtin(name: str, length: int, param=None) -> MomentSequence:
    """Construct a catalog sequence by name.

    The builder of the ``_CATALOG`` entry under ``name`` makes the integer
    numerators over one denominator, which the sequence stores as they are
    once reduced to lowest terms, with no Fraction per moment.
    ``geometric`` takes the atom location ``a``; ``log_kernel`` takes the
    integer exponent ``k``; every other entry takes no parameter.  Every
    catalog entry is a pm sequence, so it passes :func:`is_pm` at any order
    the requested length supports.
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
        return MomentSequence._from_ints(*entry.builder(length, param), f"{name}({param})")
    if param is not None:
        raise ValueError(f"catalog sequence {name!r} takes no parameter")
    return MomentSequence._from_ints(*entry.builder(length), name)


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

def carleman_partial(m: MomentSequence, upper: int) -> float:
    """Partial sum sum_{n=1..upper} m_{2n}^(-1/(2n)), as a float.

    Divergence of the full series would certify that the moment problem is
    determinate; a finite prefix can only ever be suggestive, so this is a
    diagnostic and never feeds a verdict.  For m_{2n} = p/q the term is
    exp((log q - log p) / (2n)), with the logs of the integers themselves;
    a sum past the float range raises ``ReportLimitError``.
    """
    if upper < 1:
        raise ValueError("upper summation index must be at least 1")
    if len(m) < 2 * upper + 1:
        raise InsufficientMomentsError(
            f"Carleman partial sum to {upper} needs {2 * upper + 1} moments, got {len(m)}"
        )
    total = 0.0
    for n in range(1, upper + 1):
        p, q = m._num[2 * n], m._den
        if p <= 0:
            raise ValueError(f"even moment m_{2 * n} = {m[2 * n]} is not positive")
        try:
            total += exp((log(q) - log(p)) / (2 * n))
        except OverflowError:
            total = inf
    return report_float(total)


def moment_gf_eval(m: MomentSequence, t: Fraction, terms: int) -> float:
    """Truncated exponential generating function sum_{n<terms} t^n m_n / n!, as a float.

    The full series is the Laplace transform of the measure; its existence
    near 0 is a determinacy heuristic.  The rational partial sum is computed
    exactly and converted once, at the end; a sum past the float range
    raises ``ReportLimitError``.
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
    return report_float(total)
