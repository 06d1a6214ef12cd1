"""Decide (to finite order) whether an orthogonal series sums to a nonnegative function.

The pivot is an exact triangular correspondence: a series sum_n c_n p_n(x)
over the orthogonal family of a measure mu determines candidate power
moments M_0..M_N of the would-be limit measure nu through

    sum_{j<=n} pi_{n,j} M_j = c_n * norm_n        for every n,

where pi is the monomial coefficient triangle of the family.  Nonnegativity
of the limit is then exactly the pm property of {M_j}: a negative Hankel
determinant refutes it outright, while all-nonnegative determinants certify
it as far as they were tested (finite-order evidence, never a proof).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from math import log

from .errors import InsufficientMomentsError, SchemaError
from .moments import REFUTED, MomentSequence, Verdict, is_pm
from .orthopoly import OrthoBasis, Polynomial, _combination, _inner, _solve_lower, hermite
from .rationals import float_str, json_object, rat, rational_list, report_float


@dataclass(frozen=True)
class OrthogonalSeries:
    """A truncated series sum_n coeffs[n] * basis.polys[n](x)."""

    basis: OrthoBasis
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(rat(c) for c in self.coeffs))
        if len(self.coeffs) > self.basis.order + 1:
            raise ValueError(
                f"{len(self.coeffs)} coefficients exceed basis order {self.basis.order}"
            )

    @classmethod
    def from_json_dict(cls, data: dict, where: str = "$") -> "OrthogonalSeries":
        """Read a series file: a basis object, or ``"hermite"`` with its ``order``, and ``coeffs``."""
        data = json_object(data, where, ("basis", "order", "coeffs"))
        basis_field = data.get("basis")
        if basis_field == "hermite":
            order = data.get("order")
            if not isinstance(order, int) or isinstance(order, bool) or order < 0:
                raise SchemaError(f"{where}.order: expected a nonnegative integer with basis 'hermite'")
            basis = hermite(order)
        elif isinstance(basis_field, dict):
            basis = OrthoBasis.from_json_dict(basis_field, f"{where}.basis")
        else:
            raise SchemaError(f"{where}.basis: expected a basis object or the string 'hermite'")
        coeffs = rational_list(data.get("coeffs"), f"{where}.coeffs")
        try:
            return cls(basis, coeffs)
        except ValueError as exc:
            raise SchemaError(f"{where}.coeffs: {exc}") from exc

    def padded_coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients extended by zeros to the basis order (the series is finite)."""
        pad = self.basis.order + 1 - len(self.coeffs)
        return self.coeffs + (Fraction(0),) * pad

    def partial_sum(self) -> Polynomial:
        """The truncated series as an explicit polynomial."""
        return _combination(self.coeffs, self.basis.polys)


def moments_from_coefficients(series: OrthogonalSeries) -> MomentSequence:
    """Recover the candidate measure moments M_0..M_N from series coefficients.

    Solves the unit-triangular system sum_{j<=n} pi_{n,j} M_j = c_n norm_n by
    forward substitution; always solvable and exact.  Coefficients beyond the
    given prefix are treated as zero.
    """
    basis = series.basis
    one = Polynomial.one()
    rhs = [(c * h, one) for c, h in zip(series.padded_coeffs(), basis.norms)]
    xs, den = _solve_lower(basis.polys, rhs)
    return MomentSequence._from_ints([x for x, in xs], den, label="recovered")


def coefficients_from_moments(basis: OrthoBasis, nu: MomentSequence) -> tuple[Fraction, ...]:
    """Series coefficients of the measure with moments nu, over the given family.

    c_n = <p_n, 1> / norm_n by the bilinear form :func:`poslab.orthopoly._inner`:
    the exact inverse of :func:`moments_from_coefficients`, and independent of its solve.
    """
    if len(nu) < basis.order + 1:
        raise InsufficientMomentsError(
            f"need {basis.order + 1} moments of the target measure, got {len(nu)}"
        )
    one = Polynomial.one()
    return tuple(_inner(p, one, nu) / h for p, h in zip(basis.polys, basis.norms))


CERTIFIED = "certified"
DEGENERATE = "degenerate"


class PositivityCertificate(
    namedtuple("PositivityCertificate", "recovered_moments pm_report rm_partials")
):
    """Outcome of the finite-order nonnegativity test for one series.

    Holds the :class:`~poslab.moments.MomentSequence` recovered from the
    series, its :class:`~poslab.moments.PmReport` and the float
    ``rm_partials`` of :func:`rademacher_menshov_partials`.

    ``verdict`` is read off ``pm_report``; its status is one of:

    * ``certified``  -- all Hankel determinants of the recovered moments are
      strictly positive up to its order: every tested necessary
      condition holds (evidence, not proof);
    * ``refuted``    -- a negative determinant at its order: a
      definitive negative, since the condition is necessary;
    * ``degenerate`` -- a zero determinant at its order with no
      negative one: the limit measure, if any, may have finite support.
    """

    __slots__ = ()

    @property
    def verdict(self) -> Verdict:
        report = self.pm_report
        k = report.first_negative_order
        if k is not None:
            note = f"necessary condition violated: d_{k} < 0"
            return Verdict(REFUTED, k, f"refuted-at-order {k}", (note,))
        k = report.first_zero_order
        if k is not None:
            note = f"d_{k} = 0: the limit measure may have finite support; not a refutation"
            return Verdict(DEGENERATE, k, f"degenerate-at-order {k}", (note,))
        return Verdict(CERTIFIED, report.order, f"certified-to-order {report.order}")

    def to_json_dict(self) -> dict:
        verdict = self.verdict
        return {
            "recovered_moments": self.recovered_moments.to_json_dict(),
            "pm_report": self.pm_report.to_json_dict(),
            "verdict": verdict.status,
            "verdict_order": verdict.order,
            "verdict_label": verdict.label,
            "rm_partials": [float_str(x) for x in self.rm_partials],
            "notes": list(verdict.notes),
        }


def certify_positive(series: OrthogonalSeries, order: int) -> PositivityCertificate:
    """Recover measure moments from the series and run the Hankel battery.

    ``order`` is the deepest Hankel order tested; the basis must reach order
    2*order so that M_0..M_{2 order} exist.
    """
    if order < 0:
        raise ValueError("max_order must be nonnegative")
    basis = series.basis
    if 2 * order > basis.order:
        raise InsufficientMomentsError(
            f"certification to order {order} needs a basis of order {2 * order}, got {basis.order}"
        )
    recovered = moments_from_coefficients(series)
    report = is_pm(recovered.prefix(2 * order + 1), order)
    return PositivityCertificate(recovered, report, rademacher_menshov_partials(series))


def log_weighted_partials(energies) -> tuple[float, ...]:
    """Partial sums S_N = sum_{n<=N} energies[n] * log(n+1)^2, as :func:`report_float` floats."""
    out = []
    acc = 0.0
    for n, e in enumerate(energies):
        acc = report_float(acc + report_float(e) * log(n + 1) ** 2)
        out.append(acc)
    return tuple(out)


def rademacher_menshov_partials(series: OrthogonalSeries) -> tuple[float, ...]:
    """Partial sums of c_n^2 * norm_n * log(n+1)^2 for convergence inspection.

    One partial sum per given coefficient (the padding zeros add nothing).
    Boundedness of the full series upgrades mean-square convergence to
    almost-everywhere convergence.  Reported for inspection only; verdicts
    never depend on it.  Natural logarithm (the base only rescales).
    """
    energies = [c**2 * h for c, h in zip(series.coeffs, series.basis.norms)]
    return log_weighted_partials(energies)


class KernelProjection(namedtuple("KernelProjection", "image lossy")):
    """Image of a polynomial under the truncated reproducing map, with a loss flag.

    ``image`` is a :class:`~poslab.orthopoly.Polynomial` and ``lossy`` a bool.
    """

    __slots__ = ()


def kernel_projection(basis: OrthoBasis, f: Polynomial, order: int) -> KernelProjection:
    """Project f onto span{p_0..p_order} via moment bilinear forms.

    Computes sum_{i<=order} p_i * <p_i, f> / norm_i.  The reproducing-map
    property makes this the exact identity whenever deg f <= order; with
    deg f > order the projection is returned with ``lossy`` set.
    """
    if order > basis.order:
        raise ValueError(f"projection order {order} exceeds basis order {basis.order}")
    m = basis.source_moments
    weights = [_inner(basis.polys[i], f, m) / basis.norms[i] for i in range(order + 1)]
    return KernelProjection(_combination(weights, basis.polys), lossy=f.degree > order)
