"""Per-layer spans recorded from the benchmark, around calls into the library.

A target names a function or method of a library module.  The tracer
wraps the name that a module looks up at call time: for a function it
replaces every binding of that function object in the namespaces of the
loaded ``pclifford`` modules (``from .f2core import rank_ints`` in
``design`` included), for a method it replaces the class attribute.  A
target may be limited to one namespace, which is how ``group.rows_built``
counts only the row builders as ``design`` calls them.

Spans are aggregated as they close, not kept one by one: an exact
potential calls ``rank_ints`` tens of thousands of times.  Each metric
keeps its call count and total time, and each layer its self time, the
time of its spans minus the time of the spans they called.  A target
that the library no longer has is reported as absent, never as an error.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("f2core", "strings", "group", "stabilizer", "design", "cli")

# (metric, module, attribute path, only-in-namespace or None for every namespace)
TARGETS = (
    ("f2core.rank_ints", "f2core", "rank_ints", None),
    ("f2core.solve_affine", "f2core", "solve_affine", None),
    ("f2core.BitMatrix.mul", "f2core", "BitMatrix.mul", None),
    ("f2core.BitMatrix.transpose", "f2core", "BitMatrix.transpose", None),
    ("strings.zeta_coeff", "strings", "zeta_coeff", None),
    ("strings.compose", "strings", "compose", None),
    ("strings.jordan_wigner_map", "strings", "jordan_wigner_map", None),
    ("group.braid_action", "group", "braid_action", None),
    ("group.rows_built", "design", "_build_orthogonal_rows", "design"),
    ("group.rows_built", "design", "_build_symplectic_rows", "design"),
    ("group.rows_built", "design", "_random_orthogonal_rows", "design"),
    ("group.sample_orthogonal_random", "group", "sample_orthogonal_random", None),
    ("group.sample_symplectic_random", "group", "sample_symplectic_random", None),
    ("group.decompose_orthogonal", "group", "decompose_orthogonal", None),
    ("group.map_validation", "group", "OrthogonalMap.__post_init__", None),
    ("group.map_validation", "group", "SymplecticMap.__post_init__", None),
    ("stabilizer.stab_clifford", "stabilizer", "stab_clifford", None),
    ("stabilizer.parse_stabilizer", "stabilizer", "parse_stabilizer", None),
    ("design.potential", "design", "frame_potential", None),
    ("design.potential", "design", "parity_frame_potential", None),
    ("design.orbit_decomposition", "design", "orbit_decomposition", None),
    ("cli.main", "cli", "main", None),
)

METRICS = tuple(dict.fromkeys(t[0] for t in TARGETS))


def _lookup(module, path: str):
    obj = module
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


class Tracer:
    """Wraps the targets on install() and restores them on uninstall()."""

    def __init__(self) -> None:
        self.calls = dict.fromkeys(METRICS, 0)
        self.seconds = dict.fromkeys(METRICS, 0.0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.absent: list[str] = []
        self.paused = False
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        mods = {
            name.rpartition(".")[2]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith("pclifford.") and mod is not None
        }
        namespaces = list(mods.values()) + [sys.modules["pclifford"]]
        found = set()
        for metric, modname, path, only in TARGETS:
            owner_path, _, attr = path.rpartition(".")
            mod = mods.get(modname)
            owner = _lookup(mod, owner_path) if owner_path else mod
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.absent.append(f"{modname}.{path}")
                continue
            found.add(metric)
            wrapper = self._wrap(fn, metric)
            if owner_path:
                self._replace(owner, attr, wrapper)
                continue
            for ns in namespaces if only is None else [mods[only]]:
                for name, value in list(vars(ns).items()):
                    if value is fn:
                        self._replace(ns, name, wrapper)
        for metric in METRICS:
            if metric not in found:
                self.calls.pop(metric)
                self.seconds.pop(metric)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, metric: str):
        layer = metric.partition(".")[0]
        stack = self._stack
        calls, seconds, self_s = self.calls, self.seconds, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                calls[metric] += 1
                seconds[metric] += dt
                self_s[layer] += dt - child

        return wrapper

    @contextmanager
    def pause(self):
        """Calls made inside the block (the benchmark's checks) are not traced."""
        was, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = was

    def metrics(self) -> dict[str, tuple[float, str]]:
        """(value, unit) by name; an absent target reads 0 and is listed in .absent."""
        out: dict[str, tuple[float, str]] = {}
        for m in METRICS:
            out[m + ".calls"] = (self.calls.get(m, 0), "count")
            out[m + ".s"] = (self.seconds.get(m, 0.0), "s")
        for layer in LAYERS:
            out[layer + ".self_s"] = (self.self_s[layer], "s")
        return out
