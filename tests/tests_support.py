"""Shared exact oracles for the test suite.

Everything here is deliberately independent of the production code paths it
is used to check: plain formulas, no shared helpers.  The one exception is
the rational Chebyshev oracle's fallback past a zero pivot, which uses the
library's per-order Bareiss determinants: a separate route from the integer
pass it checks.  The recurrence, expansion and combination oracles run on
:class:`Polynomial` arithmetic (one multiply and one add or subtract per
step), a separate route from the fused integer steps of the library.
:func:`solve_lower_by_fractions` is the Fraction forward substitution that the
integer solve of the library replaced, :func:`grid_verdicts_by_fractions`
the Fraction route of the grid batteries that the integer grid path
replaced, and :func:`necessary_conditions_by_fractions` the Fraction route of
the necessary conditions that their integer pass replaced.  :func:`catalog_instances`,
:func:`rescaled` and :func:`halved_hermite` are fixtures, not oracles: they
read the catalog and the library's families themselves.
"""

from fractions import Fraction as F
from math import comb, factorial

from poslab.lancaster import GridVerdict, NecessaryConditions, moment_polynomials
from poslab.moments import (
    MomentSequence,
    builtin,
    catalog_entries,
    hankel_det,
    is_pm,
    shifted_hankel_det,
)
from poslab.orthopoly import OrthoBasis, Polynomial, hermite
from poslab.rationals import rational_sqrt


def catalog_instances(length):
    """One sequence of the given length per catalog entry, in catalog order."""
    out = []
    for entry in catalog_entries():
        if entry.name == "geometric":
            out.append(builtin("geometric", length, 2))
        elif entry.name == "log_kernel":
            out.append(builtin("log_kernel", length, 1))
        else:
            out.append(builtin(entry.name, length))
    return out


def normal_moments(mean, var, count):
    """E[(mean + s Z)^n] for standard normal Z with s^2 = var, exactly."""
    out = []
    for n in range(count):
        total = F(0)
        for j in range(0, n + 1, 2):
            total += comb(n, j) * var ** (j // 2) * _odd_double_factorial(j) * mean ** (n - j)
        out.append(total)
    return MomentSequence(tuple(out), f"N({mean},{var})")


def _odd_double_factorial(j):
    # (j-1)!! for even j
    out = 1
    k = j - 1
    while k > 1:
        out *= k
        k -= 2
    return out


def hermite_sum_formula(n):
    """Monomial coefficients of He_n from the explicit sum, as a list."""
    coeffs = [F(0)] * (n + 1)
    for m in range(n // 2 + 1):
        coeffs[n - 2 * m] = F(
            (-1) ** m * factorial(n), 2**m * factorial(m) * factorial(n - 2 * m)
        )
    return coeffs


def chebyshev_recurrence(values):
    """Chebyshev's algorithm in rational arithmetic: (h, a, b) of the monic recurrence.

    h_k = <pi_k, pi_k> for pi_{k+1} = (x - a_k) pi_k - b_k pi_{k-1}, b_0 = 0,
    carrying sigma_k[l] = <pi_k, x^l> as Fractions (Gautschi, *Orthogonal
    Polynomials: Computation and Approximation* (2004), section 2.1.7).  h_k
    needs m_{2k}, a_k and b_k need m_{2k+1}; h ends at the first zero h_k.
    """
    size = len(values)
    h, a, b = [], [], []
    prev = [F(0)] * size
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
            bk = F(0)
        a.append(ak)
        b.append(bk)
        nxt = [F(0)] * size
        for j in range(k + 1, size - 1 - k):
            nxt[j] = cur[j + 1] - ak * cur[j] - bk * prev[j]
        prev, cur = cur, nxt
    return h, a, b


def chebyshev_battery(m, max_order):
    """The Hankel and shifted Hankel determinants of ``is_pm`` from the rational pass.

    d_k = h_0 ... h_k and d'_k = (-1)^(k+1) d_k pi_{k+1}(0) up to the first
    zero h_k, per-order Bareiss determinants from there on.
    """
    shifted_max = min(max_order, (len(m) - 2) // 2)
    h, a, b = chebyshev_recurrence(m.values[: max(2 * max_order + 1, 2 * shifted_max + 2)])
    dets, shifted = [], []
    product = F(1)
    pi_prev, pi_cur = F(0), F(1)
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
    return tuple(dets), tuple(shifted)


def rescaled(basis, scales):
    """The family s_n p_n of ``basis`` for nonzero rationals s_n, as an :class:`OrthoBasis`.

    p_0 becomes s_0 p_0, norms s_n^2 h_n and the triples (s_{n+1} A_n / s_n,
    s_{n+1} B_n / s_n, s_{n+1} C_n / s_{n-1}), so C_n A_n A_{n-1} keeps its sign.
    """
    s = [F(v) for v in scales]
    return OrthoBasis(
        norms=tuple(v * s[n] ** 2 for n, v in enumerate(basis.norms)),
        recurrence=tuple(
            (s[n + 1] * a / s[n], s[n + 1] * b / s[n], s[n + 1] * c / (s[n - 1] if n else 1))
            for n, (a, b, c) in enumerate(basis.recurrence)
        ),
        source_moments=basis.source_moments,
        p0=s[0] * basis.p0,
    )


def halved_hermite(order):
    """He_n / 2^n: the Hermite family in a non-monic normalization."""
    return rescaled(hermite(order), [F(1, 2**n) for n in range(order + 1)])


def solve_lower_by_fractions(polys, rhs):
    """x with sum_{j<=n} pi_{n,j} x_j = rhs[n]: forward substitution on the Fraction coefficients.

    One Fraction (or :class:`Polynomial`) multiply and subtract per triangle
    entry; ``rhs`` may hold Fractions or Polynomials.
    """
    out = []
    for n, value in enumerate(rhs):
        acc = value
        for j in range(n):
            c = polys[n].coefficient(j)
            if c:
                acc = acc - c * out[j]
        out.append(acc * (1 / polys[n].leading))
    return out


def family_by_polynomial_ops(p0, triples):
    """p_0, p_1, ... from p_{n+1} = (A_n x + B_n) p_n - C_n p_{n-1}, p_{-1} = 0."""
    x = Polynomial.x()
    polys, prev = [p0], Polynomial()
    for a, b, c in triples:
        cur = polys[-1]
        polys.append((a * x + Polynomial((b,))) * cur - c * prev)
        prev = cur
    return polys


def expand_by_polynomial_ops(p, polys):
    """Coefficients of p in a triangular family: back substitution on a Polynomial residual."""
    out = [F(0)] * len(polys)
    residual = p
    for n in range(len(polys) - 1, -1, -1):
        c = residual.coefficient(n) / polys[n].coefficient(n)
        if c:
            out[n] = c
            residual = residual - c * polys[n]
    assert residual.is_zero
    return out


def combination_by_polynomial_ops(weights, polys):
    """sum_j weights[j] polys[j], one Polynomial scale and add per term."""
    acc = Polynomial()
    for w, p in zip(weights, polys):
        acc = acc + w * p
    return acc


def grid_verdicts_by_fractions(prob, order):
    """The grid verdicts of ``lancaster_report(prob, order)`` by the Fraction route.

    Each conditional moment polynomial is evaluated to a Fraction at each
    grid point, and :func:`is_pm` runs on the resulting
    :class:`MomentSequence`, one per side and point: the route the integer
    grid path replaced.  The evaluation sums the Fraction coefficients times
    powers of the point, apart from the integer dot products of the library.
    """
    polys = moment_polynomials(prob)
    verdicts = []
    for side, grid, family in (("a", prob.grid_a, polys.ma), ("b", prob.grid_b, polys.mb)):
        for point in grid:
            seq = MomentSequence(tuple(
                sum((c * point**i for i, c in enumerate(p.coeffs)), F(0))
                for p in family[: 2 * order + 1]
            ))
            verdicts.append(GridVerdict(side, point, is_pm(seq, order)))
    return tuple(verdicts)


def necessary_conditions_by_fractions(prob):
    """``necessary_conditions(prob)`` by Fraction arithmetic, one Fraction operation per step.

    The route the integer pass replaced: square sums accumulated as
    Fractions, the origin sum as a Fraction sum of c_n a_{n,0} b_{n,0} over
    sqrt(h_n k_n) = s_n k_n, and the ``ratio_pm`` sequence built from Fraction
    values c_n a_nn / (b_nn s_n), with s_n = sqrt(h_n / k_n) taken here: the
    orthonormal route, apart from the monic-frame coefficients of the library.
    """
    cs = prob.coeffs
    pa = prob.alpha.polys
    pb = prob.beta.polys
    scales = [rational_sqrt(h / k) for h, k in zip(prob.alpha.norms[: len(cs)], prob.beta.norms)]

    partials = []
    acc = F(0)
    for c in cs:
        acc += c * c
        partials.append(acc)

    origin = None
    if prob.support.zero_in_supp_mu:
        origin = F(0)
        for n, c in enumerate(cs):
            root = scales[n] * prob.beta.norms[n]
            origin += c * pa[n].coefficient(0) * pb[n].coefficient(0) / root

    ratio_report = None
    if prob.support.mu_unbounded:
        ratio_seq = MomentSequence(
            tuple(
                c * pa[n].leading / (pb[n].leading * scales[n]) for n, c in enumerate(cs)
            )
        )
        ratio_report = is_pm(ratio_seq, prob.order // 2)

    coeff_report = None
    if prob.support.same_marginals and prob.support.mu_unbounded and prob.support.nu_unbounded:
        coeff_report = is_pm(MomentSequence(cs), prob.order // 2)

    return NecessaryConditions(tuple(partials), origin, ratio_report, coeff_report)
