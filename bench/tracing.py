"""Per-layer spans recorded from outside the program.

:func:`traced` replaces each traced poslab function by a wrapper at every
module attribute that binds it (``poslab.cli``, ``poslab.lancaster`` and
``poslab.positivity`` import ``is_pm``, ``hermite`` and the like by name, so
patching the defining module alone misses most calls), and every
``to_json_dict`` / ``from_json_dict`` method on the classes that define
one.  The originals are put back on exit; ``src/`` is never edited.

A span records its name, start, end, parent span and request id.  Spans
stay in memory until the run ends.  A span's self time is its duration
minus the time its child spans took, the tracer's own bookkeeping for
those children included, so the bookkeeping never lands in a parent's self
time.  Functions not traced (``hankel_det`` inside ``is_pm``, say) count
toward their caller's self time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import os
import sys
from fractions import Fraction
from time import perf_counter

# (module, attribute, span name).  Span names are the per-layer metric
# prefixes; "lancaster.grid_eval" is lancaster_report's own work, and the
# "rationals" layer is the parse and serialize boundary of the CLI.
FUNCTIONS = (
    ("poslab.cli", "main", "cli.main"),
    ("poslab.cli", "_load_json", "rationals.parse"),
    ("poslab.cli", "_load_series", "rationals.parse"),
    ("poslab.cli", "_parse_grid", "rationals.parse"),
    ("poslab.lancaster", "parse_problem_json", "rationals.parse"),
    ("poslab.cli", "_dump_json", "rationals.serialize"),
    ("poslab.moments", "is_pm", "moments.is_pm"),
    ("poslab.moments", "builtin", "moments.builtin"),
    ("poslab.orthopoly", "basis_from_moments", "orthopoly.basis_from_moments"),
    ("poslab.orthopoly", "connection", "orthopoly.connection"),
    ("poslab.orthopoly", "hermite", "orthopoly.hermite"),
    ("poslab.positivity", "moments_from_coefficients", "positivity.moments_from_coefficients"),
    ("poslab.positivity", "certify_positive", "positivity.certify_positive"),
    ("poslab.lancaster", "preset_problem", "lancaster.preset_problem"),
    ("poslab.lancaster", "moment_polynomials", "lancaster.moment_polynomials"),
    ("poslab.lancaster", "lancaster_report", "lancaster.grid_eval"),
    ("poslab.lancaster", "full_order_check", "lancaster.full_order_check"),
    ("poslab.lancaster", "necessary_conditions", "lancaster.necessary_conditions"),
    ("poslab.lancaster", "mehler_demo_battery", "lancaster.mehler_demo_battery"),
)
METHODS = (("to_json_dict", "rationals.serialize"), ("from_json_dict", "rationals.parse"))
# layers whose return values feed <layer>.peak_bits
BIT_LAYERS = ("moments", "orthopoly", "lancaster")


def max_bits(obj, seen=None) -> int:
    """Largest numerator or denominator bit length of any Fraction inside ``obj``."""
    if isinstance(obj, Fraction):
        return max(obj.numerator.bit_length(), obj.denominator.bit_length())
    if isinstance(obj, (int, float, str, bytes, type(None))):
        return 0
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, (tuple, list)):
        items = obj
    elif isinstance(obj, dict):
        items = obj.values()
    elif dataclasses.is_dataclass(obj):
        items = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    else:
        return 0
    return max((max_bits(x, seen) for x in items), default=0)


class Tracer:
    """Span store and per-span counters for one traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, request, start, end, self_s)
        self.counts: dict[str, float] = {}
        self.request = None
        self._stack: list[list] = []  # [span id, child seconds] per open span
        self._next = 0

    def _add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _peak(self, key: str, value: int) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)

    def _after(self, name: str, fn, args, result) -> None:
        """Counters taken from a traced call's arguments and return value."""
        layer = name.split(".")[0]
        if layer in BIT_LAYERS:
            self._peak(f"{layer}.peak_bits", max_bits(result))
        if name == "moments.is_pm":
            # useful: up to and including the first negative determinant, which
            # already decides the verdict; every determinant when none is negative
            dets = len(result.hankel_dets) + len(result.shifted_dets)
            negative = result.first_negative_order
            self._add("moments.hankel_dets", dets)
            self._add("moments.useful_dets", dets if negative is None else negative + 1)
        elif name == "lancaster.grid_eval":
            self._add("lancaster.grid_points", len(result.grid_verdicts))
        elif fn.__name__ == "_load_json":
            self._add("rationals.bytes_in", os.path.getsize(args[0]))
        elif fn.__name__ == "_dump_json":
            self._add("rationals.bytes_out", len(result.encode()))

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter = perf_counter()
            parent = tracer._stack[-1] if tracer._stack else None
            frame = [tracer._next, 0.0]
            tracer._next += 1
            tracer._stack.append(frame)
            start = perf_counter()
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans.append((frame[0], parent[0] if parent else None, name,
                                     tracer.request, start, end, end - start - frame[1]))
                tracer._add(f"{name}.calls", 1)
                if returned:
                    tracer._after(name, fn, args, result)
                if parent is not None:
                    parent[1] += perf_counter() - enter

        return wrapper

    def self_seconds(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for span in self.spans:
            out[span[2]] = out.get(span[2], 0.0) + span[6]
        return out


def _poslab_modules():
    return [(n, m) for n, m in list(sys.modules.items()) if n == "poslab" or n.startswith("poslab.")]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Trace poslab through ``tracer`` for the duration of the block."""
    undo = []
    try:
        for module_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = tracer.wrap(name, original)
            for _, module in _poslab_modules():
                for site, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, site, original))
                        setattr(module, site, wrapper)
        for module_name, module in _poslab_modules():
            for cls in list(vars(module).values()):
                if not isinstance(cls, type) or cls.__module__ != module_name:
                    continue
                for method, name in METHODS:
                    raw = cls.__dict__.get(method)
                    if raw is None:
                        continue
                    undo.append((cls, method, raw))
                    if isinstance(raw, classmethod):
                        setattr(cls, method, classmethod(tracer.wrap(name, raw.__func__)))
                    else:
                        setattr(cls, method, tracer.wrap(name, raw))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
