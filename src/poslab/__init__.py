"""poslab: exact-arithmetic positivity testing for orthogonal series.

The package decides, to finite order, whether a series over an orthogonal
polynomial family converges to a nonnegative function: series coefficients
are converted exactly into candidate measure moments, and nonnegativity
becomes a battery of Hankel determinant sign tests carried out in rational
arithmetic.  The same machinery extends to bivariate expansions over two
orthonormal families, with the correlated-Gaussian (Hermite) instance wired
in as a fully worked, exactly checkable reference.

Everything mathematical is exact: a row of rationals (moment sequence,
polynomial, Hankel report, connection row) is integer numerators over one
denominator, and a single value is a ``fractions.Fraction``; floats appear
only in clearly marked diagnostics that never feed a verdict.

Every value type is immutable.  The ten plain records, such as ``Verdict``
and ``LancasterReport``, are ``collections.namedtuple`` subclasses with
``__slots__ = ()``, which every command builds at start-up several times
faster than dataclasses; the six types with their own ``__init__`` or a
``__post_init__`` check stay frozen dataclasses.  The README lists both.
"""

from .errors import (
    DegenerateMeasureError,
    InsufficientMomentsError,
    PoslabError,
    RecurrenceError,
    ReportLimitError,
    SchemaError,
)
from .lancaster import (
    LancasterProblem,
    LancasterReport,
    MomentPolynomials,
    NecessaryConditions,
    SupportFlags,
    full_order_check,
    lancaster_report,
    mehler_demo_battery,
    mehler_density,
    mehler_kernel,
    mehler_moments,
    moment_polynomials,
    necessary_conditions,
    preset_problem,
)
from .moments import (
    MomentSequence,
    PmReport,
    builtin,
    carleman_partial,
    catalog_entries,
    hankel_det,
    is_pm,
    moment_gf_eval,
    pm_binomial_combine,
    pm_mixture,
    pm_product,
    pm_reflect,
    pm_sqrt_symmetrize,
    pm_subsample,
    shifted_hankel_det,
)
from .orthopoly import (
    ConnectionMatrix,
    OrthoBasis,
    Polynomial,
    basis_from_moments,
    connection,
    hermite,
    hermite_addition_holds,
    hermite_addition_sides,
    squared_norms,
    three_term,
)
from .positivity import (
    KernelProjection,
    OrthogonalSeries,
    PositivityCertificate,
    certify_positive,
    coefficients_from_moments,
    kernel_projection,
    log_weighted_partials,
    moments_from_coefficients,
    rademacher_menshov_partials,
)
from .rationals import rat, rat_str, rational_sqrt

__version__ = "0.1.0"

__all__ = [
    "ConnectionMatrix",
    "DegenerateMeasureError",
    "InsufficientMomentsError",
    "KernelProjection",
    "LancasterProblem",
    "LancasterReport",
    "MomentPolynomials",
    "MomentSequence",
    "NecessaryConditions",
    "OrthoBasis",
    "OrthogonalSeries",
    "PmReport",
    "Polynomial",
    "PoslabError",
    "PositivityCertificate",
    "RecurrenceError",
    "ReportLimitError",
    "SchemaError",
    "SupportFlags",
    "basis_from_moments",
    "builtin",
    "carleman_partial",
    "catalog_entries",
    "certify_positive",
    "coefficients_from_moments",
    "connection",
    "full_order_check",
    "hankel_det",
    "hermite",
    "hermite_addition_holds",
    "hermite_addition_sides",
    "is_pm",
    "kernel_projection",
    "lancaster_report",
    "log_weighted_partials",
    "mehler_demo_battery",
    "mehler_density",
    "mehler_kernel",
    "mehler_moments",
    "moment_gf_eval",
    "moment_polynomials",
    "moments_from_coefficients",
    "necessary_conditions",
    "pm_binomial_combine",
    "pm_mixture",
    "pm_product",
    "pm_reflect",
    "pm_sqrt_symmetrize",
    "pm_subsample",
    "preset_problem",
    "rademacher_menshov_partials",
    "rat",
    "rat_str",
    "rational_sqrt",
    "shifted_hankel_det",
    "squared_norms",
    "three_term",
]
