"""Span recorder for the benchmark's traced runs.

The recorder wraps every public function of the varbound modules in every
module namespace that holds it (``varbound.cli.run_sweep``,
``varbound.sweep.eq4_sum_bound``, ``varbound.bounds.make_observable``, the
package itself), so calls between modules are recorded as well as calls
from the benchmark.  Each call becomes one span ``(name, start, end,
parent)``; spans stay in memory and are written out when the run ends.

Per-layer metrics are looked up by name in ``LAYER_METRICS``.  A name that
the program no longer defines is reported as absent with value 0, so the
benchmark keeps running after a later change deletes or renames it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from pathlib import Path

MODULES = ("hermitian", "bounds", "basis_search", "photonics", "sweep", "cli")

# (metric prefix, traced function, statistics reported per job).
# calls: number of calls; s: inclusive seconds; self_s: seconds minus the
# time covered by traced child calls.
_EQS = (
    ("eq1", "eq1_product_bound"), ("eq2", "eq2_product_bound"),
    ("eq3", "eq3_product_bound"), ("eq4", "eq4_sum_bound"),
    ("eq5", "eq5_sum_bound"), ("eq6", "eq6_sum_bound"),
    ("eq7", "eq7_reverse_bound"),
)
LAYER_METRICS = (
    ("hermitian.make_observable", "hermitian.make_observable", ("calls", "s")),
    ("hermitian.moments", "hermitian.moments", ("calls", "s")),
    ("hermitian.covariance", "hermitian.covariance", ("calls", "s")),
    *((f"bounds.{eq}", f"bounds.{fn}", ("calls", "self_s")) for eq, fn in _EQS),
    ("bounds.evaluate_all", "bounds.evaluate_all", ("self_s",)),
    ("basis_search.optimize_bound", "basis_search.optimize_bound", ("calls", "self_s")),
    ("basis_search.unitary_from_params", "basis_search.unitary_from_params", ("calls", "s")),
    ("photonics.projection_probabilities", "photonics.projection_probabilities", ("calls", "s")),
    ("photonics.measurement_unitary", "photonics.measurement_unitary", ("calls", "s")),
    ("photonics.sample_counts", "photonics.sample_counts", ("calls", "s")),
    ("sweep.run_sweep", "sweep.run_sweep", ("self_s",)),
    ("sweep.build_report", "sweep.build_report", ("s",)),
    ("sweep.emit", "sweep.emit", ("s",)),
    ("sweep.verify_dataset", "sweep.verify_dataset", ("s",)),
    ("cli.main", "cli.main", ("self_s",)),
)
STAT_UNITS = {"calls": "count", "s": "s", "self_s": "s"}


def _improving_iterations(result):
    """(improving, total) compass iterations from optimize_bound's trace."""
    if not isinstance(result, tuple) or len(result) < 3:
        return None
    histories = getattr(result[2], "restart_histories", None)
    if histories is None:
        return None
    improving = sum(sum(b > a for a, b in zip(h, h[1:])) for h in histories)
    total = sum(len(h) - 1 for h in histories)
    return improving, total


def _written_bytes(result):
    return sum(Path(p).stat().st_size for p in result)


# Values read from a traced function's return value, summed per job.
OBSERVERS = {
    "basis_search.optimize_bound": ("basis_search.improving_iters", _improving_iterations),
    "sweep.emit": ("sweep.emit.bytes", _written_bytes),
}


class Tracer:
    """Context manager that installs the wrappers while entered and removes
    them on exit.  It may be entered again; spans accumulate across entries."""

    def __init__(self, package):
        self.package = package
        self.names = []
        self._name_ids = {}
        self.spans = []  # [name_id, start, end, parent_index]
        self.observed = {}  # observer key -> list of values
        self._stack = []
        self._patches = []
        self.present = set()

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _enter(self, name):
        idx = len(self.spans)
        self.spans.append([self._name_id(name), 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _exit(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around a block of benchmark code (e.g. one job)."""
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def _wrap(self, name, fn):
        observer = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if observer is not None:
                self.observed.setdefault(observer[0], []).append(observer[1](result))
            return result

        return wrapper

    def __enter__(self):
        modules = {}
        for short in MODULES:
            try:
                modules[short] = importlib.import_module(f"{self.package}.{short}")
            except ImportError:
                continue
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                self.present.add(name)
                wrappers[id(obj)] = (obj, self._wrap(name, obj))
        namespaces = [importlib.import_module(self.package), *modules.values()]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[id(obj)][1])
        return self

    def __exit__(self, *exc):
        for ns, attr, obj in reversed(self._patches):
            setattr(ns, attr, obj)
        self._patches.clear()

    def totals(self):
        """Per name: [calls, inclusive seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (nid, start, end, _), covered in zip(self.spans, child):
            t = out.setdefault(self.names[nid], [0, 0.0, 0.0])
            t[0] += 1
            t[1] += end - start
            t[2] += end - start - covered
        return out

    def layer_metrics(self, jobs):
        """Per-job layer metrics and the names that the program lacks."""
        totals = self.totals()
        metrics, absent = {}, []
        for prefix, fn_name, stats in LAYER_METRICS:
            if fn_name not in self.present:
                absent.append(fn_name)
            calls, incl, own = totals.get(fn_name, (0, 0.0, 0.0))
            values = {"calls": calls, "s": incl, "self_s": own}
            for stat in stats:
                metrics[f"{prefix}.{stat}"] = (values[stat] / jobs, STAT_UNITS[stat])
        observed = self.observed.get("basis_search.improving_iters", [])
        iters = [v for v in observed if v is not None]
        if observed and not iters:
            absent.append("basis_search.OptimizationTrace.restart_histories")
        total_iters = sum(t for _, t in iters)
        frac = sum(i for i, _ in iters) / total_iters if total_iters else 0.0
        metrics["basis_search.improving_iter_frac"] = (frac, "fraction")
        emitted = sum(self.observed.get("sweep.emit.bytes", []))
        metrics["sweep.emit.bytes"] = (emitted / jobs, "bytes")
        return metrics, absent

    def write(self, path):
        """Write every span as [name_id, start, end, parent] with a name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))
