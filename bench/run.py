"""Closed-loop benchmark of the poslab CLI, driven in-process through ``poslab.cli.main``.

Usage, from the root of a checkout:

    python3 bench/run.py --workload hankel-sweep --seed 1 --seconds 30 --trace 0

One caller sends one request at a time and waits for its exit code; each
request reads and writes real files through ``--in``/``--out``.  The run:

1. sets up ``SETUP_REPEATS`` times (fresh import of poslab, writing the
   round's input files, one warm-up request) and reports the median;
2. replays the seeded round of requests (see ``workloads.py``, at least
   100 distinct requests) in a loop until ``--seconds`` have passed, and
   at least one whole round;
3. checks every report against an independent answer (``checks.py``) and,
   for requests recorded at the default seed, against ``digests.json``;
4. prints every metric by name with its unit, then one JSON line.

Times are scaled to a reference host.  The host is shared and its speed
swings by up to a factor of two over seconds to minutes (CPU time tracks
wall time, so it is not the scheduler), which no amount of repetition
inside a 30 s run averages out.  So the caller runs a fixed probe of exact
arithmetic (benchmark code, not poslab) before and after every request and
every set-up, and scales each wall time by ``PROBE_REF_S`` over the mean of
the two probes around it: the time the work would take on a host where the
probe takes ``PROBE_REF_S``.  On a shared 2-vCPU x86_64 host under Python
3.11 this cut the run-to-run spread (interquartile range over median, ten
seeds per workload) of every latency and throughput figure from 0.10-0.22
to at most 0.05.  The unscaled figures are printed and saved beside them.

``latency_p50_s`` and ``latency_p90_s`` are percentiles of every request
sent in the run; ``throughput_rps`` is the requests of the whole rounds
divided by their time, which also counts the caller's own work between
requests (removing the old report, reading the new one).

With ``--trace 1`` it alternates untraced and traced rounds instead and
reports per-layer self times (unscaled, median over the traced rounds) and
counters (``tracing.py``); counters are those of one round, so they repeat
exactly for a given seed.
Results and spans are written under ``.bench_out/``.  The run starts no
threads or processes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import checks
import oracle
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 1
SETUP_REPEATS = 5
PROBE_REF_S = 0.0005
_PROBE_VALUES = oracle.catalog_values("fib_ratio", 23)

# a small fixed request per workload: imports the command's code paths and
# touches the file system once before timing starts
WARMUP = {
    "hankel-sweep": ["check-pm", "--seq", "catalan", "--order", "4", "--json"],
    "lancaster-grid": ["lancaster", "--preset", "mehler", "--rho=1/2", "--problem-order", "6", "--json"],
    "basis-roundtrip": ["build-basis", "--seq", "gaussian", "--order", "4"],
}

END_TO_END = {
    "throughput_rps": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "moments.is_pm.self_s": "s",
    "moments.is_pm.calls": "count",
    "moments.hankel_dets": "count",
    "moments.useful_det_ratio": "ratio",
    "moments.peak_bits": "bits",
    "moments.builtin.self_s": "s",
    "orthopoly.basis_from_moments.self_s": "s",
    "orthopoly.connection.self_s": "s",
    "orthopoly.hermite.self_s": "s",
    "orthopoly.hermite.calls": "count",
    "orthopoly.peak_bits": "bits",
    "positivity.moments_from_coefficients.self_s": "s",
    "positivity.certify_positive.self_s": "s",
    "lancaster.moment_polynomials.self_s": "s",
    "lancaster.grid_eval.self_s": "s",
    "lancaster.grid_points": "count",
    "lancaster.full_order_check.self_s": "s",
    "lancaster.necessary_conditions.self_s": "s",
    "lancaster.mehler_demo_battery.self_s": "s",
    "lancaster.peak_bits": "bits",
    "rationals.parse.self_s": "s",
    "rationals.serialize.self_s": "s",
    "rationals.bytes_in": "bytes",
    "rationals.bytes_out": "bytes",
    "cli.main.self_s": "s",
    "trace_overhead_ratio": "ratio",
}


def probe() -> float:
    """Wall time of a fixed piece of exact arithmetic and JSON work, about 0.5 ms."""
    start = perf_counter()
    dets = oracle.hankel_minors(_PROBE_VALUES, 12)
    json.loads(json.dumps([oracle.canonical(d) for d in dets]))
    return perf_counter() - start


def _import_poslab():
    """Import poslab afresh from this checkout's ``src/``."""
    for name in [n for n in sys.modules if n == "poslab" or n.startswith("poslab.")]:
        del sys.modules[name]
    return importlib.import_module("poslab.cli")


class Runner:
    """Sends requests through ``main(argv)`` and keeps what the checks need."""

    def __init__(self, cli, requests):
        self.cli = cli
        self.requests = requests
        self.first: list[tuple | None] = [None] * len(requests)  # (code, out, err, error)
        self.mismatched = [0] * len(requests)
        self.latencies: list[list[float]] = [[] for _ in requests]  # scaled to the reference host
        self.raw: list[float] = []  # unscaled latencies

    def call(self, argv, out: Path):
        with contextlib.suppress(FileNotFoundError):
            out.unlink()
        err = io.StringIO()
        error = None
        with contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # a crash is a failed request, not a crashed benchmark
                code, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - start
        data = out.read_bytes() if out.exists() else None
        return elapsed, code, data, err.getvalue(), error

    @property
    def attempted(self) -> int:
        return sum(len(samples) for samples in self.latencies)

    def round(self, tracer=None, deadline=None) -> tuple[float, float] | None:
        """Send the round in order.

        Returns the round's (scaled, unscaled) time, probes excluded, or None
        if ``deadline`` cut it short.
        """
        gc.collect()
        scaled = total = 0.0
        before = probe()
        for i, req in enumerate(self.requests):
            if deadline is not None and perf_counter() >= deadline:
                return None
            if tracer is not None:
                tracer.request = i
            start = perf_counter()
            elapsed, code, data, err, error = self.call(req.argv, req.out)
            step = perf_counter() - start
            after = probe()
            scale = 2 * PROBE_REF_S / (before + after)
            before = after
            self.latencies[i].append(elapsed * scale)
            self.raw.append(elapsed)
            scaled += step * scale
            total += step
            if self.first[i] is None:
                self.first[i] = (code, data, err, error)
            elif (code, data) != self.first[i][:2]:
                self.mismatched[i] += 1
        return scaled, total

    def verify(self, digests: dict) -> tuple[int, list[str]]:
        failed, reasons = 0, []
        for i, req in enumerate(self.requests):
            code, data, err, error = self.first[i]
            reason = error or checks.check(req, code, data, err)
            recorded = digests.get(req.key, f"{code}:{workloads.digest(data or b'')}")
            if reason is None and recorded != f"{code}:{workloads.digest(data or b'')}":
                reason = "report bytes differ from the digest recorded for this request"
            if reason is not None:
                failed += len(self.latencies[i])
                reasons.append(f"{req.key}: {reason}")
            elif self.mismatched[i]:
                failed += self.mismatched[i]
                reasons.append(f"{req.key}: report changed between rounds")
        return failed, reasons


def setup(workload: str, seed: int, workdir: Path):
    """One set-up: fresh import, input files, one warm-up request."""
    cli = _import_poslab()
    shutil.rmtree(workdir, ignore_errors=True)
    requests = workloads.build_round(workload, seed, workdir)
    warm = workdir / "warmup.json"
    code = cli.main(WARMUP[workload] + ["--out", str(warm)])
    if code != 0:
        raise RuntimeError(f"warm-up request exited {code}")
    return cli, requests


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(args, requests, rounds: int, attempted: int, failed: int) -> dict:
    source = hashlib.sha256()
    for path in sorted((SRC / "poslab").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "why": workloads.WORKLOADS[args.workload],
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
        "source_sha256": source.hexdigest(),
        "requests_per_round": len(requests),
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "loop": "closed, one caller, in-process main(argv)",
        "left_out": "ROADMAP's K = 80 probes: one is_pm(factorial, 80) call takes minutes",
    }


def measure(runner: Runner, seconds: float) -> list[tuple[float, float]]:
    """(scaled, unscaled) times of the whole rounds; the last round may be cut at the deadline."""
    deadline = perf_counter() + seconds
    walls = [runner.round()]
    while perf_counter() < deadline:
        wall = runner.round(deadline=deadline)
        if wall is not None:
            walls.append(wall)
    return walls


def measure_traced(runner: Runner, seconds: float):
    plain, traced, tracers = [], [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        plain.append(runner.round())
        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            traced.append(runner.round(tracer))
        tracers.append(tracer)
    return plain, traced, tracers


def layer_metrics(plain, traced, tracers) -> dict[str, float]:
    counts = tracers[0].counts
    selfs = [t.self_seconds() for t in tracers]
    out = {}
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            out[name] = statistics.median(s.get(name[: -len(".self_s")], 0.0) for s in selfs)
        elif name == "moments.useful_det_ratio":
            dets = counts.get("moments.hankel_dets", 0)
            out[name] = counts.get("moments.useful_dets", 0) / dets if dets else 0.0
        elif name == "trace_overhead_ratio":
            out[name] = statistics.median(t[0] for t in traced) / statistics.median(p[0] for p in plain)
        else:
            out[name] = counts.get(name, 0)
    return out


def write_spans(path: Path, tracers) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for r, tracer in enumerate(tracers):
            for span_id, parent, name, request, start, end, self_s in tracer.spans:
                fh.write(json.dumps({"round": r, "id": span_id, "parent": parent, "name": name,
                                     "request": request, "start": start, "end": end,
                                     "self_s": self_s}) + "\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "poslab" / "__init__.py").is_file():
        print(f"error: no poslab sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("POSLAB_PRECISION", None)  # reports use the default 17 digits
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT_DIR / f"work-{tag}-{os.getpid()}"
    try:
        setup_times, setup_raw = [], []
        before = probe()
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            cli, requests = setup(args.workload, args.seed, workdir)
            setup_raw.append(perf_counter() - start)
            after = probe()
            setup_times.append(setup_raw[-1] * 2 * PROBE_REF_S / (before + after))
            before = after
        gc.collect()
        gc.freeze()
        runner = Runner(cli, requests)
        if args.trace:
            plain, traced, tracers = measure_traced(runner, args.seconds)
            rounds = len(plain) + len(traced)
        else:
            walls = measure(runner, args.seconds)
            rounds = len(walls)
        digests = json.loads(DIGESTS.read_text())
        failed, reasons = runner.verify(digests)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = runner.attempted
    meta = metadata(args, requests, rounds, attempted, failed)
    if args.trace:
        values = layer_metrics(plain, traced, tracers)
        units = PER_LAYER
        write_spans(OUT_DIR / f"spans-{tag}.jsonl", tracers)
    else:
        latencies = [x for samples in runner.latencies for x in samples]
        values = {
            "throughput_rps": len(requests) * len(walls) / sum(w[0] for w in walls),
            "latency_p50_s": statistics.median(latencies),
            "latency_p90_s": statistics.quantiles(latencies, n=10)[8],
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        meta["latency_samples"] = len(latencies)
        meta["probe_ref_s"] = PROBE_REF_S
        meta["unscaled"] = {
            "throughput_rps": len(requests) * len(walls) / sum(w[1] for w in walls),
            "latency_p50_s": statistics.median(runner.raw),
            "latency_p90_s": statistics.quantiles(runner.raw, n=10)[8],
            "setup_s": statistics.median(setup_raw),
        }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    (OUT_DIR / f"result-{tag}.json").write_text(
        json.dumps({"meta": meta, "metrics": metrics, "failures": reasons}, indent=2) + "\n"
    )

    print(f"# meta {json.dumps(meta, sort_keys=True)}")
    for reason in reasons[:20]:
        print(f"# FAILED {reason}")
    for name, m in metrics.items():
        print(f"{name:<46} {m['value']:>14.6g} {m['unit']}")
    print(f"{'fail_ratio':<46} {failed / attempted:>14.6g} ratio")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
