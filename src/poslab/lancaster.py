"""Bivariate expansions sum_n c_n alpha_n(x) beta_n(y) over two orthonormal families.

Such an expansion sums to a nonnegative bivariate density exactly when the
conditional moment polynomials m_n(y) = E[X^n | Y=y] produced by a coupled
triangular recursion form pm sequences for (almost) every y.  At finite
order we sample y on a rational grid: a single negative Hankel determinant
at any grid point refutes positivity outright, while all-nonnegative
determinants certify it to the tested order.  The grid path runs on
integers: each side's conditional moments are brought over one denominator
E once, each grid point p/q is then one integer dot product per moment over
E q^d, and the numerators go straight into a
:class:`~poslab.moments.MomentSequence`, whose Hankel battery reads them as
they are.  When the two sides share their moment polynomials and their
grid, side b takes side a's sequences.  The batteries still run once per
side and point (``bench/test_bench.py`` counts the calls), and the report
writer writes each distinct Hankel report, and a shared moment table, once.

Orthonormal families carry 1/sqrt(norm) scale factors, but the pipeline
reads only the monic-frame coefficients e_n = c_n sqrt(h_n / k_n), h_n and
k_n the squared norms of alpha_n and beta_n.  :class:`LancasterProblem`
takes that one square root; it must be rational (always true for equal
norms), or the problem is rejected rather than approximated.

The correlated-Gaussian pair (Hermite families, c_n = rho^n) is wired in as
the fully worked reference instance, with its closed-form conditional
moments, conditional density, and truncated kernel for cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from math import comb

from .errors import InsufficientMomentsError, SchemaError
from .moments import POSITIVE, REFUTED, MomentSequence, PmReport, Verdict, builtin, is_pm
from .orthopoly import (
    OrthoBasis,
    Polynomial,
    _combination,
    _hermite_addition_sides,
    _solve_lower,
    _values_at,
    basis_from_moments,
    hermite,
)
from .positivity import CERTIFIED, OrthogonalSeries, certify_positive
from .rationals import (
    double_factorial, float_str, json_object, over_lcm, rat, rat_str, rational_list, rational_sqrt,
    wire_row,
)

DEFAULT_GRID = tuple(Fraction(k, 2) for k in range(-4, 5))


@dataclass(frozen=True)
class SupportFlags:
    """Declared support properties of the marginal measures.

    Moments alone cannot decide these at finite order, so the necessary-
    condition battery only runs the checks the caller vouches for.
    """

    zero_in_supp_mu: bool = False
    mu_unbounded: bool = False
    nu_unbounded: bool = False
    same_marginals: bool = False

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, data: dict, where: str = "$") -> "SupportFlags":
        """The flags of ``data``; a missing flag is False, and an unknown key is an error.

        A misspelled flag would otherwise read as undeclared and silently
        switch its necessary-condition check off.
        """
        data = json_object(data, where, [field.name for field in fields(cls)])
        for key, val in data.items():
            if not isinstance(val, bool):
                raise SchemaError(f"{where}.{key}: expected a boolean")
        return cls(**data)


@dataclass(frozen=True)
class LancasterProblem:
    """One candidate expansion: two families, coefficients, and the grids it is tested on.

    The coefficients are those of the orthonormal frames.  ``grid_a``
    holds the y tested for X given Y = y, ``grid_b`` the x for Y given X = x;
    each defaults to -2..2 in steps of 1/2, and one may be empty, not both.
    Construction derives ``monic_coeffs``, e_n = c_n sqrt(h_n / k_n) (every
    root rational), and requires the order-0 conditional moments
    E[X^0 | Y=y] = e_0 q_0 / p_0 and E[Y^0 | X=x] = e_0 k_0 p_0 / (h_0 q_0),
    p_0 = alpha_0 and q_0 = beta_0, to be 1: equal masses
    h_0 / p_0^2 = k_0 / q_0^2, and c_0 = sign(p_0 q_0).
    """

    alpha: OrthoBasis
    beta: OrthoBasis
    coeffs: tuple[Fraction, ...]
    support: SupportFlags = SupportFlags()
    grid_a: tuple[Fraction, ...] = DEFAULT_GRID
    grid_b: tuple[Fraction, ...] = DEFAULT_GRID
    monic_coeffs: tuple[Fraction, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(rat(c) for c in self.coeffs))
        object.__setattr__(self, "grid_a", tuple(rat(v) for v in self.grid_a))
        object.__setattr__(self, "grid_b", tuple(rat(v) for v in self.grid_b))
        if not self.grid_a and not self.grid_b:
            raise ValueError("both grids are empty: there is no grid point to test")
        n = len(self.coeffs) - 1
        if n < 0:
            raise ValueError("at least the order-0 coefficient is required")
        p0, q0 = self.alpha.p0, self.beta.p0
        mass_a, mass_b = self.alpha.norms[0] / (p0 * p0), self.beta.norms[0] / (q0 * q0)
        if mass_a != mass_b:
            raise ValueError(
                f"the marginal masses h_0/p_0^2 = {mass_a} and k_0/q_0^2 = {mass_b} differ; "
                "probability conditionals need equal masses"
            )
        sign = 1 if p0 * q0 > 0 else -1
        if self.coeffs[0] != sign:
            raise ValueError(
                f"c_0 must be sign(p_0 q_0) = {sign} for probability conditionals, "
                f"got {self.coeffs[0]}"
            )
        if self.alpha.order < n or self.beta.order < n:
            raise ValueError(
                f"both families must reach order {n}; got {self.alpha.order} and {self.beta.order}"
            )
        monic = []
        for k, c in enumerate(self.coeffs):
            s = rational_sqrt(self.alpha.norms[k] / self.beta.norms[k])
            if s is None:
                raise ValueError(
                    f"norm ratio at order {k} is not a perfect rational square; "
                    "the exact orthonormal engine needs equal norms or square ratios"
                )
            monic.append(c * s)
        object.__setattr__(self, "monic_coeffs", tuple(monic))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha.to_json_dict(),
            "beta": self.beta.to_json_dict(),
            "coeffs": [rat_str(c) for c in self.coeffs],
            "grid_a": [rat_str(v) for v in self.grid_a],
            "grid_b": [rat_str(v) for v in self.grid_b],
            "support_flags": self.support.to_json_dict(),
        }


_PROBLEM_KEYS = ("alpha", "beta", "coeffs", "grid_a", "grid_b", "support_flags")


def parse_problem_json(data: dict, where: str = "$", grid=None) -> LancasterProblem:
    """Load a problem file.

    The keys are those of :meth:`LancasterProblem.to_json_dict`; any other
    key is an error.  A missing or null grid key keeps the default grid; a
    present one must be a non-empty list, read before the problem is built,
    so a bad grid is named before a broken probability rule.  A given
    ``grid`` replaces both grids, and the file's grid keys are still read.
    A ``beta`` object equal to the ``alpha`` object is that same family,
    read once.
    """
    data = json_object(data, where, _PROBLEM_KEYS)
    alpha = OrthoBasis.from_json_dict(data.get("alpha"), f"{where}.alpha")
    if data.get("beta") == data.get("alpha"):
        beta = alpha
    else:
        beta = OrthoBasis.from_json_dict(data.get("beta"), f"{where}.beta")
    coeffs = rational_list(data.get("coeffs"), f"{where}.coeffs")
    flags = SupportFlags.from_json_dict(data.get("support_flags", {}), f"{where}.support_flags")
    grids = {
        key: rational_list(data[key], f"{where}.{key}")
        for key in ("grid_a", "grid_b")
        if data.get(key) is not None
    }
    if grid is not None:
        grids = {"grid_a": grid, "grid_b": grid}
    try:
        return LancasterProblem(alpha, beta, coeffs, flags, **grids)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class MomentPolynomials:
    """Conditional moment polynomials: ma[n] = E[X^n | Y=y] in y, mb[n] = E[Y^n | X=x] in x."""

    ma: tuple[Polynomial, ...]
    mb: tuple[Polynomial, ...]


def moment_polynomials(prob: LancasterProblem) -> MomentPolynomials:
    """Solve the two triangular systems for the conditional moments.

    Orthonormality gives E[alpha~_n(X) | Y=y] = c_n beta~_n(y), with
    alpha~_n = alpha_n / sqrt(h_n) and beta~_n = beta_n / sqrt(k_n).  Over
    the triangles, with e_n the problem's ``monic_coeffs``, that is
    Pi_alpha m(y) = (e_n beta_n(y)), and symmetrically
    Pi_beta m(x) = (e_n k_n / h_n alpha_n(x)); each side is one exact
    forward substitution.  When the triangles and their norms are equal the
    two systems are the same, and one solve serves both sides.
    """
    top = prob.order + 1
    es = prob.monic_coeffs
    alpha, beta = prob.alpha.polys[:top], prob.beta.polys[:top]
    hs, ks = prob.alpha.norms[:top], prob.beta.norms[:top]

    def solve(polys, rhs):
        xs, den = _solve_lower(polys, rhs)
        return tuple(Polynomial._from_ints(x, den) for x in xs)

    ma = solve(alpha, list(zip(es, beta)))
    if alpha == beta and hs == ks:
        return MomentPolynomials(ma, ma)
    rhs = [(e * k / h, p) for e, h, k, p in zip(es, hs, ks, alpha)]
    return MomentPolynomials(ma, solve(beta, rhs))


@dataclass(frozen=True)
class GridVerdict:
    """Hankel report of the conditional moment sequence at one grid point."""

    side: str  # "a": moments of X given Y = point; "b": moments of Y given X = point
    point: Fraction
    report: PmReport

    def to_json_dict(self, report: dict) -> dict:
        """The verdict's JSON around ``report``, the JSON of :attr:`report`."""
        return {"side": self.side, "point": rat_str(self.point), "report": report}


@dataclass(frozen=True)
class NecessaryConditions:
    """Cheap necessary conditions every positive expansion must satisfy.

    * square_sum_partials: partial sums of c_n^2 (must stay bounded);
    * origin_sum: the sum of c_n a_{n,0} b_{n,0} over n <= N (nonnegative
      limit when 0 lies in the support of mu); None unless declared;
    * ratio_pm: Hankel report of {c_n a_nn/b_nn} (a moment sequence when mu
      has unbounded support); None unless declared;
    * coeff_pm: Hankel report of {c_n sign(a_nn b_nn)}, which is {c_n} when
      both leads share a sign (equal marginals with unbounded support); None
      unless declared.
    """

    square_sum_partials: tuple[Fraction, ...]
    origin_sum: Fraction | None
    ratio_pm: PmReport | None
    coeff_pm: PmReport | None

    def to_json_dict(self) -> dict:
        return {
            "square_sum_partials": [float_str(v) for v in self.square_sum_partials],
            "origin_sum": rat_str(self.origin_sum) if self.origin_sum is not None else None,
            "origin_sign": None
            if self.origin_sum is None
            else (1 if self.origin_sum > 0 else (0 if self.origin_sum == 0 else -1)),
            "ratio_pm": self.ratio_pm.to_json_dict() if self.ratio_pm else None,
            "coeff_pm": self.coeff_pm.to_json_dict() if self.coeff_pm else None,
        }


def necessary_conditions(prob: LancasterProblem) -> NecessaryConditions:
    """Evaluate the declared necessary conditions on all of c_0..c_N, exactly.

    c_n and the monic-frame e_n are each held as integer numerators over one
    denominator: the square sums of c_n are integer prefix sums, one Fraction
    each, and the origin sum and the ``ratio_pm`` sequence, which read e_n,
    are integer pairs brought over one lcm, with no Fraction arithmetic.
    """
    cs, cden = over_lcm([c.as_integer_ratio() for c in prob.coeffs])
    es, eden = over_lcm([e.as_integer_ratio() for e in prob.monic_coeffs])
    pa, pb = prob.alpha.polys, prob.beta.polys
    hs, ks = prob.alpha.norms, prob.beta.norms

    partials = []
    acc = 0
    for v in cs:
        acc += v * v
        partials.append(Fraction(acc, cden * cden))

    origin = None
    if prob.support.zero_in_supp_mu:
        # c_n a_{n,0} b_{n,0} = e_n p_n(0) q_n(0) / h_n, with h_n > 0
        terms = []
        for n, v in enumerate(es):
            a, b, h = pa[n].coefficient(0), pb[n].coefficient(0), hs[n]
            terms.append((v * a.numerator * b.numerator * h.denominator,
                          a.denominator * b.denominator * h.numerator))
        nums, den = over_lcm(terms)
        origin = Fraction(sum(nums), den * eden)

    ratio_report = None
    if prob.support.mu_unbounded:
        # c_n a_nn / b_nn = e_n k_n a_nn / (h_n b_nn), with the sign of b_nn moved to the numerator
        terms = []
        for n, v in enumerate(es):
            a, b, h, k = pa[n].leading, pb[n].leading, hs[n], ks[n]
            num = v * k.numerator * a.numerator * h.denominator * b.denominator
            den = k.denominator * h.numerator * a.denominator * b.numerator
            terms.append((-num, -den) if den < 0 else (num, den))
        nums, den = over_lcm(terms)
        ratio_report = is_pm(MomentSequence._from_ints(nums, den * eden), prob.order // 2)

    coeff_report = None
    flags = prob.support
    if flags.same_marginals and flags.mu_unbounded and flags.nu_unbounded:
        # equal marginals: alpha~_n = sign(a_nn b_nn) beta~_n, so c_n sign(a_nn b_nn) must be pm
        signed = [v if pa[n].leading * pb[n].leading > 0 else -v for n, v in enumerate(cs)]
        coeff_report = is_pm(MomentSequence._from_ints(signed, cden), prob.order // 2)

    return NecessaryConditions(tuple(partials), origin, ratio_report, coeff_report)


def full_order_check(h_polys, basis: OrthoBasis) -> tuple[bool, ...]:
    """Flag, for each n, whether h_n expands in the family with full order n.

    This is the conditional-moment polynomial criterion: an expansion over
    the two families can exist only when every conditional expectation of
    basis polynomials has exactly full order.  The family has one polynomial
    of each degree, so "component n nonzero and none above it" is
    deg h_n = n, and no expansion is run.  A polynomial of degree above the
    basis order has no expansion and is refused with ValueError.
    """
    for h in h_polys:
        if h.degree > basis.order:
            raise ValueError(
                f"cannot expand a degree-{h.degree} polynomial in a basis of order {basis.order}"
            )
    return tuple(h.degree == n for n, h in enumerate(h_polys))


@dataclass(frozen=True)
class LancasterReport:
    """Aggregated grid positivity evidence; refuted iff a grid point's battery is not pm."""

    moment_polys: MomentPolynomials
    grid_verdicts: tuple[GridVerdict, ...]
    necessary: NecessaryConditions
    pc_flags: tuple[bool, ...]
    order: int

    @property
    def verdict(self) -> Verdict:
        negative = [v.report.first_negative_order for v in self.grid_verdicts if not v.report.is_pm]
        if negative:
            return Verdict(REFUTED, min(negative), "refuted")
        return Verdict(POSITIVE, self.order, f"positive-to-order {self.order}")

    def to_json_dict(self) -> dict:
        """The report's JSON, each distinct Hankel report and moment table written once.

        Grid verdicts whose reports hold the same integers share one report
        dict, built by the first of them; side b of a symmetric problem
        repeats side a's, and shares the ``conditional_moments_a`` list when
        ``mb is ma``.  The table lives for this call only.  The returned dict
        therefore shares subobjects and is to be treated as read-only: copy
        it (``copy.deepcopy``) before editing one entry.
        """
        polys = self.moment_polys
        rows_a = [wire_row(p._num, p._den) for p in polys.ma]
        rows_b = rows_a if polys.mb is polys.ma else [wire_row(p._num, p._den) for p in polys.mb]
        written: dict[tuple, dict] = {}

        def write(report: PmReport) -> dict:
            key = (report._dets, report._shifted, report._den)
            doc = written.get(key)
            if doc is None:
                doc = written[key] = report.to_json_dict()
            return doc

        verdict = self.verdict
        return {
            "conditional_moments_a": rows_a,
            "conditional_moments_b": rows_b,
            "grid_verdicts": [v.to_json_dict(write(v.report)) for v in self.grid_verdicts],
            "necessary_conditions": self.necessary.to_json_dict(),
            "pc_flags": list(self.pc_flags),
            "order": self.order,
            "verdict": verdict.status,
            "verdict_label": verdict.label,
        }


def lancaster_report(prob: LancasterProblem, order: int | None = None) -> LancasterReport:
    """Evaluate conditional moments on the problem's two grids and aggregate Hankel verdicts.

    ``order`` is the Hankel depth per grid point and needs conditional
    moments to index 2*order, so it may be at most half the problem order.
    Any negative determinant anywhere refutes the expansion; otherwise the
    report is positive to the tested order.  This is the integer grid entry
    of the Hankel battery: each side's conditional moments E[X^k | Y = y],
    k <= 2*order, are brought over one denominator E once, and at each point
    p/q they are integer dot products with the powers p^i q^(d-i), over
    E q^d (:func:`~poslab.orthopoly._values_at`); the numerators become a
    :class:`MomentSequence` (``_from_ints``), with no Fraction per moment,
    and the reports equal those of :func:`is_pm` on the Fraction values of
    the same moments.  When both sides have the same moment polynomials
    (``mb is ma``) and the same grid, side b takes side a's sequences, so
    each point is evaluated once; :func:`is_pm` still runs once per side
    and point, as ``bench/test_bench.py`` pins, and
    :meth:`LancasterReport.to_json_dict` writes each distinct report once.
    Grid evaluations are independent and the aggregation does not depend
    on their order.  The grids come from ``prob``, which holds at least
    one point.
    ``pc_flags[n]`` is ``c_n != 0``, which is :func:`full_order_check` of
    h_n = c_n beta_n: deg(c_n beta_n) = n exactly when c_n != 0.
    """
    n = prob.order
    if order is None:
        order = n // 2
    if order < 0:
        raise ValueError("max_order must be nonnegative")
    if 2 * order > n:
        raise InsufficientMomentsError(
            f"grid test at order {order} needs conditional moments to index {2 * order}, "
            f"but the problem stops at {n}"
        )
    polys = moment_polynomials(prob)
    top = 2 * order + 1

    def sequences(family, grid):
        return [MomentSequence._from_ints(*pair) for pair in _values_at(family[:top], grid)]

    seqs_a = sequences(polys.ma, prob.grid_a)
    if polys.mb is polys.ma and prob.grid_b == prob.grid_a:
        seqs_b = seqs_a
    else:
        seqs_b = sequences(polys.mb, prob.grid_b)
    verdicts = [
        GridVerdict(side, point, is_pm(seq, order))
        for side, grid, seqs in (("a", prob.grid_a, seqs_a), ("b", prob.grid_b, seqs_b))
        for point, seq in zip(grid, seqs)
    ]
    return LancasterReport(
        moment_polys=polys,
        grid_verdicts=tuple(verdicts),
        necessary=necessary_conditions(prob),
        pc_flags=tuple(c != 0 for c in prob.coeffs),
        order=order,
    )


# ---------------------------------------------------------------------------
# The correlated-Gaussian reference instance
# ---------------------------------------------------------------------------

def _check_rho(rho: Fraction) -> Fraction:
    rho = rat(rho)
    if not abs(rho) < 1:
        raise ValueError(f"correlation must satisfy |rho| < 1, got {rho}")
    return rho


def mehler_moments(rho, order: int) -> tuple[Polynomial, ...]:
    """Closed-form conditional moments of the correlated Gaussian pair.

    m_n(y) = sum_{2j<=n} C(n,2j) (1-rho^2)^j (2j-1)!! rho^(n-2j) y^(n-2j),
    i.e. the n-th moment of N(rho*y, 1-rho^2) as an exact polynomial in y.
    """
    rho = _check_rho(rho)
    if order < 0:
        raise ValueError("order must be nonnegative")
    one_m = 1 - rho * rho
    out = []
    for n in range(order + 1):
        coeffs = [Fraction(0)] * (n + 1)
        for j in range(n // 2 + 1):
            coeffs[n - 2 * j] = (
                comb(n, 2 * j) * one_m**j * double_factorial(2 * j - 1) * rho ** (n - 2 * j)
            )
        out.append(Polynomial(tuple(coeffs)))
    return tuple(out)


def mehler_density(x: float, y: float, rho) -> float:
    """Conditional Gaussian density g(x; y, rho) of N(rho*y, 1 - rho^2) at x, for float(rho) != +-1."""
    rho = float(_check_rho(rho))
    var = 1.0 - rho * rho
    if not var:
        raise ValueError(f"rho rounds to {rho:+.0f} as a float, where the density is degenerate")
    return math.exp(-((x - rho * y) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


def mehler_kernel(x: float, y: float, rho, terms: int) -> float:
    """Truncated bilinear Hermite kernel sum_{n<=terms} rho^n He_n(x) He_n(y) / n!."""
    rho = float(_check_rho(rho))
    hx_prev, hx = 0.0, 1.0
    hy_prev, hy = 0.0, 1.0
    total = 0.0
    power = 1.0
    fact = 1.0
    for n in range(terms + 1):
        if n > 0:
            hx, hx_prev = x * hx - (n - 1) * hx_prev, hx
            hy, hy_prev = y * hy - (n - 1) * hy_prev, hy
            power *= rho
            fact *= n
        total += power * hx * hy / fact
    return total


# preset name -> (takes the correlation rho, builder of c_0..c_order from (order, rho))
_PRESETS = {
    "mehler": (True, lambda order, rho: tuple(rho**n for n in range(order + 1))),
    "harmonic": (False, lambda order, rho: builtin("log_kernel", order + 1, 0).values),
    "catalan-ratio": (False, lambda order, rho: tuple(
        v / Fraction(4) ** n for n, v in enumerate(builtin("catalan", order + 1).values))),
    "fibonacci-scaled": (False, lambda order, rho: builtin("fib_scaled", order + 1).values),
}


def preset_names() -> tuple[str, ...]:
    return tuple(_PRESETS)


def preset_problem(name: str, order: int, rho=None, grid=None) -> LancasterProblem:
    """Hermite/Hermite problem with every support flag declared, on ``grid`` or the default grids.

    c_n = rho^n for ``mehler``, the only preset that takes ``rho``; 1/(n+1)
    for ``harmonic``; C(2n,n) / ((n+1) 4^n) for ``catalan-ratio``; and
    Fibonacci(1,1,2,...)[n] / 3^n for ``fibonacci-scaled``.
    """
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; known: {', '.join(_PRESETS)}")
    takes_rho, build = _PRESETS[name]
    if takes_rho and rho is None:
        raise ValueError(f"preset {name!r} needs a correlation rho")
    if not takes_rho and rho is not None:
        raise ValueError(f"preset {name!r} takes no correlation parameter")
    coeffs = build(order, _check_rho(rho) if takes_rho else None)
    basis = hermite(order)
    flags = SupportFlags(**{field.name: True for field in fields(SupportFlags)})
    grids = {} if grid is None else {"grid_a": grid, "grid_b": grid}
    return LancasterProblem(basis, basis, coeffs, flags, **grids)


# ---------------------------------------------------------------------------
# Reference battery: every exact identity the Gaussian instance must satisfy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _hermite_sum_formula(n: int) -> Polynomial:
    # independent route: He_n(x) = n! sum_m (-1)^m x^(n-2m) / (2^m m! (n-2m)!)
    coeffs = [Fraction(0)] * (n + 1)
    for m in range(n // 2 + 1):
        coeffs[n - 2 * m] = Fraction(
            (-1) ** m * math.factorial(n), 2**m * math.factorial(m) * math.factorial(n - 2 * m)
        )
    return Polynomial(tuple(coeffs))


# mehler_kernel divides by n! in floats, which overflow past 170!
_KERNEL_MAX_TERMS = 160


def _kernel_tail(rho: Fraction, terms: int) -> float:
    """Bound on the kernel terms past ``terms`` for |x|, |y| <= 2.

    Cramer's inequality |He_n(x)| <= 1.0865 sqrt(n!) e^(x^2/4) bounds the
    n-th term by 1.0865^2 e^2 |rho|^n; the geometric tail follows.
    """
    r = abs(float(rho))
    return 1.0865**2 * math.e**2 * r ** (terms + 1) / (1 - r)


def _kernel_vs_density(rho: Fraction) -> tuple[bool, str]:
    """(passed, detail) of the battery's kernel-vs-density check."""
    if abs(float(rho)) == 1.0:
        return False, f"rho rounds to {float(rho):+.0f} as a float, where the density is degenerate"
    terms = 30
    while terms < _KERNEL_MAX_TERMS and _kernel_tail(rho, terms) > 1e-8:
        terms += 1
    worst = largest = 0.0
    for xi in range(-2, 3):
        for yi in range(-2, 3):
            kernel = mehler_kernel(float(xi), float(yi), rho, terms)
            oracle = (
                mehler_density(float(xi), float(yi), rho)
                * math.sqrt(2 * math.pi)
                * math.exp(xi * xi / 2.0)
            )
            worst = max(worst, abs(kernel - oracle))
            largest = max(largest, oracle)
    tolerance = max(1e-8, _kernel_tail(rho, terms))
    kernel_detail = f"max deviation {worst:.3e} on the integer grid, {terms} terms"
    if tolerance > 1e-8:
        kernel_detail += f", tolerance is the proven tail {tolerance:.3e} at the term cap"
    # a tolerance as large as every value compared would pass any kernel
    return worst <= tolerance < largest, kernel_detail


def mehler_demo_battery(rho, order: int = 10) -> list[CheckResult]:
    """Run the full exact-identity battery on the Gaussian reference instance.

    Returns one named pass/fail result per check; everything rational is
    compared exactly.  The kernel cross-check sums the smallest number of
    terms, at least 30, whose proven tail is at most 1e-8 (capped at
    ``_KERNEL_MAX_TERMS``, past which the proven tail is the tolerance and
    the check's detail names it).  Near |rho| = 1 that tolerance reaches the
    largest density value on the grid, so it could not tell any kernel from
    the density, and the check is recorded as not passed; so it is where
    float(rho) is +-1, which has no float density and no tail bound.
    """
    rho = _check_rho(rho)
    if order < 4:
        raise ValueError("the battery needs order >= 4")
    results: list[CheckResult] = []

    def record(name: str, passed: bool, detail: str = ""):
        results.append(CheckResult(name, bool(passed), detail))

    hb = hermite(max(order, 12))

    record(
        "hermite-recurrence-vs-sum-formula",
        all(hb.polys[n] == _hermite_sum_formula(n) for n in range(13)),
        "orders 0..12",
    )
    gauss = builtin("gaussian", 25)
    rebuilt = basis_from_moments(gauss, 12)
    record(
        "hermite-from-gaussian-moments",
        rebuilt.polys == hb.polys[:13]
        and rebuilt.norms == hb.norms[:13]
        and rebuilt.recurrence == hb.recurrence[:12],
        "basis, norms, and recurrence at order 12",
    )
    sides = [_hermite_addition_sides(hb.polys, n, Fraction(3, 5)) for n in range(9)]
    record(
        "hermite-addition-formula",
        all(lhs == rhs for lhs, rhs in sides),
        "mixing weight 3/5, orders 0..8",
    )

    prob = preset_problem("mehler", order, rho)
    # the grid report already holds the recursion's conditional moments
    rep = lancaster_report(prob)
    recursion = rep.moment_polys
    closed = mehler_moments(rho, order)
    record(
        "conditional-moments-recursion-vs-closed-form",
        recursion.ma == closed and recursion.mb == closed,
        f"both sides, orders 0..{order}",
    )

    ok = all(
        _combination(hb.polys[n].coeffs, closed) == rho**n * hb.polys[n]
        for n in range(order + 1)
    )
    record("constant-column-identity", ok, "sum_j pi_nj m_j(y) = rho^n He_n(y)")

    one_m = 1 - rho * rho
    ok = True
    for n in range(order + 1):
        lhs = closed[n] * Fraction(1, math.factorial(n))
        coeffs = [Fraction(0)] * (n + 1)
        for j in range(n // 2 + 1):
            coeffs[n - 2 * j] = (
                rho ** (n - 2 * j)
                * (one_m / 2) ** j
                / (math.factorial(n - 2 * j) * math.factorial(j))
            )
        ok &= lhs == Polynomial(tuple(coeffs))
    record(
        "generating-function-coefficients",
        ok,
        "t^n coefficient of exp(rho y t + t^2(1-rho^2)/2) equals m_n(y)/n!",
    )

    record(
        "leading-coefficient-law",
        all(
            recursion.ma[n].coefficient(n) == prob.monic_coeffs[n] for n in range(order + 1)
        ),
        "lead(m_n) = c_n b_nn/a_nn",
    )

    record(
        "grid-hankel-positivity",
        rep.verdict.status == POSITIVE
        and all(v.report.strictly_positive for v in rep.grid_verdicts),
        f"default grid, order {rep.order}",
    )

    nec = rep.necessary
    bound = 1 / one_m
    origin_ok = nec.origin_sum is not None and nec.origin_sum > 0
    origin_detail = ""
    if origin_ok:
        limit = f"{1.0 / math.sqrt(float(one_m)):.6f}" if float(one_m) else "1/sqrt(1 - rho^2)"
        origin_detail = f"truncated {float(nec.origin_sum):.6f} vs limit {limit}"
        # The limit 1/sqrt(1 - rho^2) sums t_k = rho^(2k) C(2k,k) / 4^k, and
        # t_(k+1) / t_k < rho^2, so the terms past the truncation add up to at
        # most the next one over 1 - rho^2.  Squaring keeps the test exact:
        # S <= limit <= S + tail.
        k = order // 2 + 1
        tail = rho ** (2 * k) * comb(2 * k, k) / Fraction(4) ** k / one_m
        s = nec.origin_sum
        origin_ok = s * s * one_m <= 1 <= (s + tail) ** 2 * one_m
    record(
        "necessary-conditions",
        all(p <= bound for p in nec.square_sum_partials)
        and origin_ok
        and nec.ratio_pm is not None
        and nec.ratio_pm.is_pm
        and nec.coeff_pm is not None
        and nec.coeff_pm.is_pm,
        origin_detail,
    )
    record(
        "geometric-coefficients-rank-one",
        nec.coeff_pm is not None
        and all(d == 0 for d in nec.coeff_pm.hankel_dets[1:]),
        "Hankel collapses beyond d_0 for c_n = rho^n",
    )

    record("kernel-vs-density", *_kernel_vs_density(rho))

    # He_n itself, not rho^n He_n: at rho = 0 the latter is zero for n >= 1
    h_good = list(hb.polys[: order + 1])
    flags_good = full_order_check(h_good, hb)
    h_bad = list(h_good)
    h_bad[2] = Polynomial.x()
    flags_bad = full_order_check(h_bad, hb)
    record(
        "full-order-check",
        all(flags_good) and not flags_bad[2],
        "passes on the reference family, catches a degree-deficient h_2",
    )

    cert_bad = certify_positive(
        OrthogonalSeries(hb, (Fraction(0), Fraction(1), Fraction(0))), 1
    )
    ys = [Fraction(k) for k in range(-2, 3)]
    certs_ok = True
    for values, den in _values_at(hb.polys, ys):
        cs = tuple(rho**n * Fraction(v, den) / h for n, (v, h) in enumerate(zip(values, hb.norms)))
        cert = certify_positive(OrthogonalSeries(hb, cs), 4)
        certs_ok &= cert.verdict.status == CERTIFIED and cert.pm_report.strictly_positive
    record(
        "positivity-certificates",
        cert_bad.verdict.status == REFUTED
        and cert_bad.verdict.order == 1
        and cert_bad.pm_report.hankel_dets[1] == -1
        and certs_ok,
        "refutes the odd-coefficient control, certifies the Gaussian family",
    )

    return results
