"""Every record and report type is immutable.

Ten plain records are ``collections.namedtuple`` subclasses with
``__slots__ = ()``; six types stay frozen dataclasses, because they have
their own ``__init__`` or validate in ``__post_init__``.
"""

import dataclasses
from fractions import Fraction as F

import pytest

from poslab.lancaster import CheckResult, SupportFlags, lancaster_report, preset_problem
from poslab.moments import builtin, catalog_entries, is_pm
from poslab.orthopoly import Polynomial, connection, hermite
from poslab.positivity import OrthogonalSeries, certify_positive, kernel_projection


def _lancaster():
    return lancaster_report(preset_problem("mehler", 4, F(1, 2)), 2)


RECORDS = {
    "Verdict": lambda: is_pm(builtin("catalan", 5), 2).verdict,
    "CatalogEntry": lambda: catalog_entries()[0],
    "SupportFlags": SupportFlags,
    "MomentPolynomials": lambda: _lancaster().moment_polys,
    "GridVerdict": lambda: _lancaster().grid_verdicts[0],
    "NecessaryConditions": lambda: _lancaster().necessary,
    "LancasterReport": _lancaster,
    "CheckResult": lambda: CheckResult("name", True),
    "PositivityCertificate": lambda: certify_positive(
        OrthogonalSeries(hermite(2), (1, 0, F(1, 10))), 1
    ),
    "KernelProjection": lambda: kernel_projection(hermite(3), Polynomial((1, 2)), 1),
}
DATACLASSES = {
    "MomentSequence": lambda: builtin("catalan", 5),
    "PmReport": lambda: is_pm(builtin("catalan", 5), 2),
    "ConnectionMatrix": lambda: connection(hermite(3), hermite(3)),
    "OrthoBasis": lambda: hermite(3),
    "OrthogonalSeries": lambda: OrthogonalSeries(hermite(2), (1, 0, 1)),
    "LancasterProblem": lambda: preset_problem("mehler", 4, F(1, 2)),
}


@pytest.mark.parametrize("name", sorted({**RECORDS, **DATACLASSES}))
def test_no_field_can_be_set_and_no_attribute_added(name):
    obj = {**RECORDS, **DATACLASSES}[name]()
    cls = type(obj)
    assert cls.__name__ == name
    if name in RECORDS:
        assert isinstance(obj, tuple) and cls.__slots__ == ()
        assert not dataclasses.is_dataclass(cls)
        names = cls._fields
    else:
        assert cls.__dataclass_params__.frozen
        names = [field.name for field in dataclasses.fields(cls)]
    for field in names:
        with pytest.raises(AttributeError):
            setattr(obj, field, getattr(obj, field))
    with pytest.raises(AttributeError):
        obj.extra = None  # a namedtuple subclass without __slots__ = () would take it

