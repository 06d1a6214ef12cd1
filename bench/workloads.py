"""Seeded request rounds for the three benchmark workloads.

Every workload is a closed loop with one caller that replays a fixed round
of ``poslab`` CLI requests.  A round is a balanced design: it holds every
cell (catalog key or preset, size) exactly once, so the cost of a round
hardly depends on the seed.  The seed picks the order of the round and the
free parameters of each cell (perturbations, correlations, grid points,
series coefficients), and each request is checked against an answer from
:mod:`oracle`.

Why each workload exists, and which layer it isolates:

* ``hankel-sweep``: ``check-pm --json`` at Hankel order 12..30 on catalog
  keys, plus a third of perturbed sequences read with ``--in`` that carry a
  known refutation.  One large exact battery per request, so it isolates
  ``moments.is_pm``; the Bareiss cost grows about as K^4 with bit length, so
  the largest orders set the 90th percentile.  It runs no other layer.
* ``lancaster-grid``: ``lancaster --json`` on the Hermite presets at problem
  order 10..20, perturbed-mehler problem files with their own half-integer
  grids, and about a tenth ``mehler-demo``.  The only workload that runs
  the conditional-moment recursion and the grid evaluation; the Hankel
  battery runs here as thousands of small batteries (order <= 10), so a
  change that speeds large orders but slows small ones shows here.  It
  mixes positive and refuted verdicts.  Negative correlations are passed
  as ``--rho=-3/10``: the CLI's argparse reads ``--rho -3/10`` as a missing
  value and exits 2, a defect of ``cli.py`` left for a later change.
* ``basis-roundtrip``: chains of ``build-basis`` -> ``connect`` ->
  ``certify --order 4`` at basis order 12..28, plus degenerate keys
  (``fib_shift``, ``geometric(a)``) that exit 1 by design.  The Stieltjes
  walk, ``connection`` and the rational read/write layer do the work and
  the Hankel battery almost none: the no-change control for a faster
  battery, and a workload where reads and writes of the same JSON layer
  both show.

Hankel orders stop at 30 on purpose: one ``is_pm(factorial, 80)`` call (the
largest probe named in ROADMAP) takes about 233 s at the commit this
benchmark was written against, longer than a whole run.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd
from pathlib import Path

import oracle

WORKLOADS = {
    "hankel-sweep": "one large exact Hankel battery per request (moments.is_pm), orders 12..30",
    "lancaster-grid": "conditional-moment recursion plus thousands of small grid batteries",
    "basis-roundtrip": "Stieltjes walk, connection and rational JSON read/write; almost no Hankel work",
}


@dataclass
class Request:
    """One CLI call: ``argv`` for ``poslab.cli.main`` and how to check its report."""

    key: str  # content identity, stable across seeds and rounds; indexes the digest table
    argv: list[str]
    out: Path
    check: str  # name of a checker in checks.CHECKS
    params: dict


def digest(data: bytes) -> str:
    """Short content digest: names input files in request keys, and reports in digests.json."""
    return hashlib.sha256(data).hexdigest()[:16]


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


class _Writer:
    """Writes input files and allocates output paths inside one work directory."""

    def __init__(self, workdir: Path):
        self.inputs = workdir / "in"
        self.outputs = workdir / "out"
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.outputs.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def input(self, name: str, obj) -> tuple[Path, str]:
        text = _dump(obj)
        path = self.inputs / name
        path.write_text(text, encoding="utf-8")
        return path, digest(text.encode())

    def out(self) -> Path:
        self.count += 1
        return self.outputs / f"{self.count:04d}.json"


def _signed_rho(rng: random.Random, q: int, largest: Fraction = Fraction(1)) -> Fraction:
    p = rng.choice([p for p in range(1, q) if gcd(p, q) == 1 and Fraction(p, q) <= largest])
    return Fraction(p if rng.random() < 0.5 else -p, q)


# ---------------------------------------------------------------------------
# hankel-sweep
# ---------------------------------------------------------------------------

HANKEL_ORDERS = tuple(range(12, 31, 2))
HANKEL_KEYS = ("catalan", "gaussian", "factorial", "fib_ratio", "fib_even", "log_kernel(0)", "log_kernel(1)")
# h_j = d_j / d_{j-1}, the squared norm of the j-th monic orthogonal polynomial
PERTURB_NORMS = {
    "catalan": lambda j: Fraction(1),
    "gaussian": lambda j: Fraction(factorial(j)),
    "factorial": lambda j: Fraction(factorial(j) ** 2),
}


def _hankel_sweep(rng: random.Random, w: _Writer) -> list[Request]:
    reqs = []
    for order in HANKEL_ORDERS:
        for key in HANKEL_KEYS:
            reqs.append(
                Request(
                    f"check-pm --seq {key} --order {order}",
                    ["check-pm", "--seq", key, "--order", str(order), "--json"],
                    w.out(),
                    "pm",
                    {"values": oracle.catalog_values(key, 2 * order + 2),
                     "label": oracle.catalog_label(key), "order": order, "refute_at": None},
                )
            )
        for base, norm in PERTURB_NORMS.items():
            # Lowering m_{2j} by delta changes d_j by -delta * d_{j-1} and no
            # earlier minor, so delta > h_j makes j the first negative order.
            j = rng.randint(2, order)
            values = oracle.catalog_values(base, 2 * order + 2)
            values[2 * j] -= norm(j) + Fraction(rng.randint(1, 99), rng.randint(1, 9))
            label = f"{base}-cut-{j}"
            path, file_digest = w.input(
                f"seq-{base}-{order}.json",
                {"label": label, "values": [oracle.canonical(v) for v in values]},
            )
            reqs.append(
                Request(
                    f"check-pm --in {file_digest} --order {order}",
                    ["check-pm", "--in", str(path), "--order", str(order), "--json"],
                    w.out(),
                    "pm",
                    {"values": values, "label": label, "order": order, "refute_at": j},
                )
            )
    return reqs


# ---------------------------------------------------------------------------
# lancaster-grid
# ---------------------------------------------------------------------------

PRESET_ORDERS = tuple(range(10, 21))
PRESETS = ("mehler", "harmonic", "catalan-ratio", "fibonacci-scaled")
RHO_DENOMINATORS = (2, 3, 4, 5, 7, 10)
DEFAULT_GRID = tuple(Fraction(k, 2) for k in range(-4, 5))
# (problem order, grid points) of the perturbed-mehler problem files
PERTURBED_CELLS = tuple((order, points) for order in range(8, 13) for points in range(9, 26, 2))
# The reference battery compares truncated sums with their limits under float
# tolerances, so it reports FAIL on a valid Gaussian instance at |rho| >= 2/3
# (30-term kernel) or at order 6 with |rho| = 1/2 (origin sum); demos stay
# inside the range where every check must pass.
DEMO_ORDERS = (8, 9, 10, 11, 12) * 2 + (10,)
DEMO_RHO_DENOMINATORS = (2, 5, 7)


def _preset_coeffs(name: str, order: int, rho: Fraction | None) -> list[Fraction]:
    if name == "mehler":
        return [rho**n for n in range(order + 1)]
    if name == "harmonic":
        return [Fraction(1, n + 1) for n in range(order + 1)]
    if name == "catalan-ratio":
        return [v / 4**n for n, v in enumerate(oracle.catalog_values("catalan", order + 1))]
    return [v / 3**n for n, v in enumerate(oracle.catalog_values("fib_shift", order + 1))]


def _lancaster_grid(rng: random.Random, w: _Writer) -> list[Request]:
    reqs = []
    for i, order in enumerate(PRESET_ORDERS):
        for name in PRESETS:
            argv = ["lancaster", "--preset", name, "--problem-order", str(order), "--json"]
            rho = None
            if name == "mehler":
                rho = _signed_rho(rng, RHO_DENOMINATORS[i % len(RHO_DENOMINATORS)])
                argv.append(f"--rho={rho}")  # "--rho -3/10" would exit 2, see module docstring
            reqs.append(
                Request(
                    " ".join(argv),
                    argv,
                    w.out(),
                    "lancaster",
                    {"coeffs": _preset_coeffs(name, order, rho), "grid": DEFAULT_GRID,
                     "must_be_positive": name == "mehler"},
                )
            )
    half_integers = [Fraction(k, 2) for k in range(-24, 25)]
    for i, (order, points) in enumerate(PERTURBED_CELLS):
        rho = _signed_rho(rng, RHO_DENOMINATORS[i % len(RHO_DENOMINATORS)])
        k = rng.choice([k for k in range(-20, 21) if k])
        coeffs = [Fraction(1)] + [rho**n + Fraction(k, 1000) for n in range(1, order + 1)]
        grid = sorted(rng.sample(half_integers, points))
        basis = oracle.hermite_basis_json(order)
        problem = {
            "alpha": basis,
            "beta": basis,
            "coeffs": [oracle.canonical(c) for c in coeffs],
            "grid_a": [oracle.canonical(y) for y in grid],
            "grid_b": [oracle.canonical(y) for y in grid],
            "support_flags": {"zero_in_supp_mu": True, "mu_unbounded": True,
                              "nu_unbounded": True, "same_marginals": True},
        }
        path, file_digest = w.input(f"problem-{i}.json", problem)
        reqs.append(
            Request(
                f"lancaster --in {file_digest}",
                ["lancaster", "--in", str(path), "--json"],
                w.out(),
                "lancaster",
                {"coeffs": coeffs, "grid": tuple(grid), "must_be_positive": False},
            )
        )
    for i, order in enumerate(DEMO_ORDERS):
        rho = _signed_rho(rng, DEMO_RHO_DENOMINATORS[i % 3], largest=Fraction(1, 2))
        reqs.append(
            Request(
                f"mehler-demo --rho={rho} --order {order}",
                ["mehler-demo", f"--rho={rho}", "--order", str(order), "--json"],
                w.out(),
                "demo",
                {"rho": rho, "order": order},
            )
        )
    return reqs


# ---------------------------------------------------------------------------
# basis-roundtrip
# ---------------------------------------------------------------------------

BASIS_ORDERS = tuple(range(12, 29, 2))
BASIS_KEYS = ("gaussian", "catalan", "factorial", "log_kernel(0)")


def _basis_roundtrip(rng: random.Random, w: _Writer) -> list[list[Request]]:
    chains = []
    for order in BASIS_ORDERS:
        bases = {key: oracle.basis_json(key, order) for key in BASIS_KEYS}
        for n, key in enumerate(BASIS_KEYS):
            target_key = BASIS_KEYS[(n + 1) % len(BASIS_KEYS)]
            built, target = bases[key], bases[target_key]
            target_path, _ = w.input(f"target-{key}-{order}.json", target)
            coeffs = [Fraction(1)] + [
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order)
            ]
            series = {"basis": built, "coeffs": [oracle.canonical(c) for c in coeffs]}
            series_path, series_digest = w.input(f"series-{key}-{order}.json", series)
            basis_out = w.out()
            chains.append([
                Request(
                    f"build-basis --seq {key} --order {order}",
                    ["build-basis", "--seq", key, "--order", str(order)],
                    basis_out,
                    "basis",
                    {"expected": built},
                ),
                Request(
                    f"connect {key} {order} -> {target_key}",
                    ["connect", "--in", str(basis_out), "--to", str(target_path)],
                    w.out(),
                    "connect",
                    {"source": built, "target": target},
                ),
                Request(
                    f"certify --in {series_digest} --order 4",
                    ["certify", "--in", str(series_path), "--order", "4", "--json"],
                    w.out(),
                    "certify",
                    {"basis": built, "coeffs": coeffs, "order": 4},
                ),
            ])
    # Degenerate measures: the walk must stop at the first zero determinant.
    a = Fraction(rng.randint(2, 9), rng.randint(1, 9))
    for key, stop in (("fib_shift", 2), (f"geometric({a})", 1)):
        order = rng.choice(BASIS_ORDERS)
        chains.append([
            Request(
                f"build-basis --seq {key} --order {order}",
                ["build-basis", "--seq", key, "--order", str(order)],
                w.out(),
                "degenerate",
                {"stop": stop},
            )
        ])
    return chains


def build_round(workload: str, seed: int, workdir: Path) -> list[Request]:
    """Write the inputs of one round into ``workdir`` and return its requests in order."""
    rng = random.Random(f"{workload}:{seed}")
    w = _Writer(workdir)
    if workload == "hankel-sweep":
        reqs = _hankel_sweep(rng, w)
        rng.shuffle(reqs)
    elif workload == "lancaster-grid":
        reqs = _lancaster_grid(rng, w)
        rng.shuffle(reqs)
    elif workload == "basis-roundtrip":
        chains = _basis_roundtrip(rng, w)
        rng.shuffle(chains)
        reqs = [r for chain in chains for r in chain]
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    for r in reqs:
        r.argv += ["--out", str(r.out)]
    return reqs
