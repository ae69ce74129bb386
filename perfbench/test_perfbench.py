"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
import tracing
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "mc_frame": {"SAMPLES": 16, "SLOTS": (("orthogonal", 6, True, 2), ("symplectic", 4, False, 3))},
    "exact_design": {
        "SLOTS": (
            ("potential", "orthogonal", 4, True, 3),
            ("potential", "symplectic", 2, False, 4),
            ("potential", "orthogonal", 6, False, 2),
            ("orbits", "orthogonal", 4, "even_quotient", 2),
            ("orbits", "symplectic", 4, "full", 1),
        )
    },
    "cli_large": {"SLOTS": (("stab", 2), ("stab", 9), ("sample", "o", 8), ("sample", "sp", 8))},
    "propagate": {"SLOTS": ((6, False), (6, True), (64, False), (64, True))},
}


def tiny(name: str, **extra):
    base = wl.WORKLOADS[name]
    return type("Tiny" + base.__name__, (base,), {**TINY[name], "trace_cycles": 2, **extra})


def one_phase(wl_cls, seed: int = 0, cycles: int = 1) -> bench.Phase:
    w = wl_cls(bench.import_library(SRC))
    w.setup()
    assert w.setup_errors == []
    rng = random.Random(seed)
    phase = bench.Phase(bench.Gauge())
    for _ in range(cycles):
        phase.run_cycle(w.cycle(rng))
    phase.finish(w)
    return phase


def corrupting(wl_cls, corrupt):
    """The workload with every operation's output passed through corrupt."""

    class Corrupt(wl_cls):
        def make_op(self, slot, rng):
            op = super().make_op(slot, rng)
            run = op.run
            return dataclasses.replace(op, run=lambda: corrupt(run()))

    return Corrupt


@pytest.fixture
def few_ops(monkeypatch):
    monkeypatch.setattr(bench, "MIN_OPS", 12)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(name, few_ops):
    record, res = bench.measure(tiny(name), 3, 0.0, SRC)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 12, record["failures"]
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())
    again, _ = bench.measure(tiny(name), 3, 0.0, SRC)
    assert again["digest"] == record["digest"]


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_smoke_trace_reports_every_per_layer_metric(name):
    record, res = bench.trace(tiny(name), 3, SRC)
    assert res["correct"], record["failures"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert record["absent"] == [] and res["metrics"]["trace.absent_targets"]["value"] == 0
    busy = {
        "mc_frame": ["group.rows_built.calls", "f2core.rank_ints.calls", "design.potential.calls"],
        "exact_design": ["group.rows_built.calls", "design.orbit_decomposition.calls"],
        "cli_large": ["cli.main.calls", "stabilizer.stab_clifford.calls", "group.map_validation.calls"],
        "propagate": ["group.braid_action.calls", "strings.compose.calls", "strings.jordan_wigner_map.calls"],
    }[name]
    assert all(res["metrics"][m]["value"] > 0 for m in busy)
    assert res["metrics"]["trace.ops"]["value"] == 2 * len(TINY[name]["SLOTS"])


def test_digest_follows_the_seed(few_ops):
    a, _ = bench.measure(tiny("mc_frame"), 1, 0.0, SRC)
    b, _ = bench.measure(tiny("mc_frame"), 2, 0.0, SRC)
    assert a["digest"] != b["digest"]


def _flip_first_bit(res):
    rc, out, err = res
    return rc, ("1" if out[0] == "0" else "0") + out[1:], err


def _wrong_phase(out):
    pushed, prod = out
    return pushed, dataclasses.replace(prod, phase=prod.phase + 1)


def _off_estimate(rep):
    return dataclasses.replace(rep, estimate=rep.estimate + 1.0)


def _off_value(rep):
    return dataclasses.replace(rep, value=rep.value + 1)


@pytest.mark.parametrize(
    "name, corrupt, slots",
    [
        ("cli_large", _flip_first_bit, None),
        ("propagate", _wrong_phase, None),
        ("mc_frame", _off_estimate, (("orthogonal", 6, True, 2),) * 20),
        ("exact_design", _off_value, TINY["exact_design"]["SLOTS"][:3]),
    ],
)
def test_corrupted_outputs_count_as_failed(name, corrupt, slots):
    extra = {"SLOTS": slots} if slots else {}
    clean = one_phase(tiny(name, **extra))
    assert clean.failed == 0, clean.failures
    bad = one_phase(corrupting(tiny(name, **extra), corrupt))
    assert bad.failed == len(bad.latencies) > 0


def test_tracer_counts_exactly_and_restores():
    pc = bench.import_library(SRC)
    original = pc.design.rank_ints
    tracer = tracing.Tracer()
    tracer.install()
    try:
        pc.design.parity_frame_potential(4, 2)
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    # |O(4)| = 48 elements, two ranks each for the restricted count
    assert m["group.rows_built.calls"][0] == 48
    assert m["f2core.rank_ints.calls"][0] == 96
    assert m["design.potential.calls"][0] == 1
    assert 0 < m["design.self_s"][0] < m["design.potential.s"][0]
    assert pc.design.rank_ints is original and pc.f2core.rank_ints is original


def test_missing_target_is_absent_not_an_error(monkeypatch):
    targets = [t for t in tracing.TARGETS if t[0] != "strings.jordan_wigner_map"]
    targets.append(("strings.jordan_wigner_map", "strings", "no_such_function", None))
    monkeypatch.setattr(tracing, "TARGETS", tuple(targets))
    bench.import_library(SRC)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["strings.no_such_function"]
    assert tracer.metrics()["strings.jordan_wigner_map.calls"] == (0, "count")


def test_o8_pair_orbit_constant():
    pc = bench.import_library(SRC)
    assert len(pc.design.orbit_decomposition(8, 2, "orthogonal")) == wl.O8_PAIR_ORBITS


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, *SPEC["command"][1:], "--workload", "mc_frame", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout == ""
