"""pclifford benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload mc_frame --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Without ``--trace`` (or with ``--trace 0``) the run sets up several times,
then runs whole cycles of the workload until ``--seconds`` of wall time
have passed and at least MIN_OPS operations are done, and reports the
end-to-end metrics.  ``--trace 1`` replays a fixed number of cycles once
untraced and once with spans around the calls into each layer, and
reports the per-layer metrics and the tracing overhead.

Every operation's output is checked; an operation that raises or fails
its check counts as failed.  Only the library call is timed: input
generation and checks run between operations.

Times are gauged against the machine's speed at the moment they are
taken (see Gauge), because a shared machine drifts by tens of percent
over seconds.  The raw wall-clock figures go into the run record.

The second-to-last line of output is a JSON record of the run (digest
of the first cycle's outputs, raw figures, failures, metadata); the last
line is the result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import checks
from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("f2core", "strings", "group", "stabilizer", "design", "cli")
SETUP_RUNS = 7
# p90 must leave at least ten operations beyond it
MIN_OPS = 110


def import_library(src: Path) -> SimpleNamespace:
    """A fresh import of the package from src, whatever was loaded before."""
    for name in [m for m in sys.modules if m == "pclifford" or m.startswith("pclifford.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("pclifford")
    if Path(pkg.__file__).resolve().parent != (src / "pclifford").resolve():
        raise ImportError(f"pclifford was imported from {pkg.__file__}, not {src}")
    return SimpleNamespace(**{m: importlib.import_module("pclifford." + m) for m in MODULES})


class Gauge:
    """Machine speed, read around and during each timed interval.

    A reading is the shorter of two timings of a fixed kernel of the
    benchmark's own code, run with the garbage collector off: a row
    reduction of small packed rows, XORs and popcounts of 2048-bit words,
    and shifts and popcounts of an 8192-bit word, the kinds of work the
    library does at small and at large label counts.  An interval is read
    just before and just after, and every INTERVAL_S in between from a
    timer signal, whose time is taken out of the interval.  The interval
    is scaled by REFERENCE_S over the median reading, so a gauged time
    reads as on a machine where a reading is REFERENCE_S.  The kernel does
    not touch the library, so a change to the library moves gauged times
    as it moves raw ones.  On a shared two-core machine whose speed drifts
    by 20-40 % within seconds, the gauge kept the ratio of library time to
    kernel time within a few percent.
    """

    REFERENCE_S = 2.5e-4
    INTERVAL_S = 0.01

    def __init__(self) -> None:
        rng = random.Random(0)
        self.rows = [rng.getrandbits(64) for _ in range(32)]
        self.words = [rng.getrandbits(2048) for _ in range(64)]
        self.long_word = rng.getrandbits(8192)
        self.readings: list[float] = []
        self.stolen = 0.0  # time the timer signal spent reading

    def _kernel(self) -> float:
        t0 = perf_counter()
        checks.rref(self.rows)
        acc = 0
        for w in self.words:
            acc ^= w
            (acc & w).bit_count()
        for s in range(1, 200, 2):
            (self.long_word >> s).bit_count()
        return perf_counter() - t0

    def read(self) -> float:
        collecting = gc.isenabled()
        gc.disable()
        try:
            return min(self._kernel(), self._kernel())
        finally:
            if collecting:
                gc.enable()

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.readings.append(self.read())
        self.stolen += perf_counter() - t0

    def time(self, fn):
        """(result or exception, raw seconds, gauged seconds) of fn()."""
        self.readings = [self.read()]
        self.stolen = 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        t0 = perf_counter()
        try:
            out = fn()
        except Exception as exc:  # the caller counts a raising call as failed
            out = exc
        finally:
            raw = perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        raw -= self.stolen
        self.readings.append(self.read())
        speed = statistics.median(self.readings)
        return out, raw, raw * self.REFERENCE_S / speed


class Phase:
    """Latencies, failures and outputs of one pass over a list of cycles."""

    def __init__(self, gauge: Gauge) -> None:
        self.gauge = gauge
        self.latencies: list[float] = []
        self.raw: list[float] = []
        self.failed = 0
        self.failures: list[str] = []
        self.hashes: list[str] = []  # of each output's canonical text
        self.passed: dict[str, list] = defaultdict(list)  # what op.keep retains
        self.by_class: dict[str, list[float]] = defaultdict(list)

    def fail(self, cls: str, why: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 10:
            self.failures.append(f"{cls}: {why}")

    def run_cycle(self, ops, tracer=None) -> None:
        quiet = tracer.pause if tracer else nullcontext
        for op in ops:
            out, raw, dt = self.gauge.time(op.run)
            err = None
            if isinstance(out, Exception):
                out, err = None, f"raised {type(out).__name__}: {out}"
            self.latencies.append(dt)
            self.raw.append(raw)
            self.by_class[op.cls].append(dt)
            if err is None:
                with quiet():
                    try:
                        err = op.check(out)
                    except Exception as exc:  # an unparsable output fails its check
                        err = f"check raised {type(exc).__name__}: {exc}"
            if err is None:
                self.passed[op.cls].append(op.keep(out) if op.keep else None)
                self.hashes.append(digest([op.canon(out)]))
            else:
                self.fail(op.cls, err)
                self.hashes.append("FAILED")

    def finish(self, wl) -> None:
        for cls, kept in self.passed.items():
            err = wl.pooled_check(cls, kept)
            if err:
                self.fail(cls, err, len(kept))

    def class_p50_ms(self) -> dict[str, float]:
        return {c: round(1e3 * statistics.median(v), 3) for c, v in sorted(self.by_class.items())}

    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)

    def raw_figures(self) -> dict[str, float]:
        raw = sorted(self.raw)
        return {
            "ops_per_s": len(raw) / sum(raw),
            "op_p50_ms": 1e3 * nearest_rank(raw, 0.5),
            "op_p90_ms": 1e3 * nearest_rank(raw, 0.9),
        }


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def metadata(seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        res = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False,
        )
        sha = res.stdout.strip() or None
    numpy = sys.modules.get("numpy")
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
        ),
    }


def set_up(wl_cls, seed: int, src: Path, gauge: Gauge):
    """Import, reference values, warm-up and the first cycle's inputs.

    Repeated SETUP_RUNS times; returns the last set-up and the (raw,
    gauged) time of each.
    """

    def once():
        wl = wl_cls(import_library(src))
        wl.setup()
        rng = random.Random(f"{wl.name}:{seed}")
        return wl, rng, wl.cycle(rng)

    times = []
    for _ in range(SETUP_RUNS):
        made, raw, gauged = gauge.time(once)
        if isinstance(made, Exception):
            raise made
        times.append((raw, gauged))
    return (*made, times)


def measure(wl_cls, seed: int, seconds: float, src: Path = ROOT / "src"):
    """Timed run; returns (record, result)."""
    gauge = Gauge()
    wl, rng, first, setup_times = set_up(wl_cls, seed, src, gauge)
    t_start = perf_counter()
    phase = Phase(gauge)
    phase.run_cycle(first)
    digest_lines = list(phase.hashes)
    cycles = 1
    while perf_counter() - t_start < seconds or len(phase.latencies) < MIN_OPS:
        phase.run_cycle(wl.cycle(rng))
        cycles += 1
    phase.finish(wl)
    lat = sorted(phase.latencies)
    metrics = {
        "setup_s": (statistics.median(g for _, g in setup_times), "s"),
        "ops_per_s": (phase.ops_per_s(), "op/s"),
        "op_p50_ms": (1e3 * nearest_rank(lat, 0.5), "ms"),
        "op_p90_ms": (1e3 * nearest_rank(lat, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    record = {
        "workload": wl.name,
        "digest": digest(digest_lines),
        "cycles": cycles,
        "ops": len(lat),
        "setup_runs_s": setup_times,
        "raw": {**phase.raw_figures(), "setup_s": statistics.median(r for r, _ in setup_times)},
        "class_p50_ms": phase.class_p50_ms(),
        "setup_errors": wl.setup_errors,
        "failures": phase.failures,
    }
    return record, result(wl, len(lat), phase.failed, metrics)


def trace(wl_cls, seed: int, src: Path = ROOT / "src"):
    """Fixed cycles untraced, then the same cycles traced; (record, result)."""
    gauge = Gauge()
    wl, rng, first, _ = set_up(wl_cls, seed, src, gauge)
    cycles = [first] + [wl.cycle(rng) for _ in range(wl.trace_cycles - 1)]
    untraced = Phase(gauge)
    for ops in cycles:
        untraced.run_cycle(ops)
    untraced.finish(wl)
    tracer = Tracer()
    tracer.install()
    try:
        traced = Phase(gauge)
        for ops in cycles:
            traced.run_cycle(ops, tracer)
    finally:
        tracer.uninstall()
    traced.finish(wl)
    # the traced replay must reproduce the untraced outputs byte for byte
    for i, (a, b) in enumerate(zip(untraced.hashes, traced.hashes)):
        if a != b and "FAILED" not in (a, b):
            traced.fail(f"op {i}", "traced output differs from the untraced one")
    metrics = tracer.metrics()
    n = len(traced.latencies)
    untraced_rate, traced_rate = untraced.ops_per_s(), traced.ops_per_s()
    metrics.update({
        "trace.ops": (n, "count"),
        "trace.untraced_ops_per_s": (untraced_rate, "op/s"),
        "trace.traced_ops_per_s": (traced_rate, "op/s"),
        "trace.overhead": (untraced_rate / traced_rate, "ratio"),
        "trace.absent_targets": (len(tracer.absent), "count"),
    })
    record = {
        "workload": wl.name,
        "digest": digest(untraced.hashes[: len(first)]),
        "cycles": len(cycles),
        "ops": n,
        "absent": tracer.absent,
        "setup_errors": wl.setup_errors,
        "failures": untraced.failures + traced.failures,
    }
    failed = untraced.failed + traced.failed
    return record, result(wl, n + len(untraced.latencies), failed, metrics)


def result(wl, attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0 and not wl.setup_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    src = ROOT / "src"
    if not (src / "pclifford" / "__init__.py").is_file():
        print(f"perfbench: no pclifford package under {src}", file=sys.stderr)
        return 1
    wl_cls = WORKLOADS[args.workload]
    if args.trace:
        record, res = trace(wl_cls, args.seed, src)
    else:
        record, res = measure(wl_cls, args.seed, args.seconds, src)
    record["trace"] = args.trace
    record["meta"] = metadata(args.seed)
    print(json.dumps(record))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
