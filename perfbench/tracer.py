"""Spans around the program's layer boundaries, recorded from outside.

The benchmark does not instrument the program.  :func:`install` wraps
the layers' public callables in place -- class methods on their class,
module-level functions at every ``repro`` module that binds them by name
-- so each call opens a span on a :class:`Tracer`.  Wrappers pass
arguments and results through untouched; the harness tests pin that a
traced report is byte-identical and traced simulation results
pickle-identical to untraced ones.

All times are host time from :func:`time.perf_counter`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    children: List[int] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._open: List[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, self.clock(), parent=parent))
        if parent is not None:
            self.spans[parent].children.append(index)
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")
        self.spans[index].end = self.clock()

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open right now."""
        return any(self.spans[i].name == name for i in self._open)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def wrap(self, name: str, fn: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        """``fn`` with every call recorded as a span called ``name``.

        ``on_result(result, args, kwargs)`` runs after the span closes,
        so the bookkeeping it does is not charged to the layer.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return traced

    # -- arithmetic over the recorded spans ---------------------------- #

    def self_time(self, index: int) -> float:
        """The span's duration minus the part its child spans cover."""
        span = self.spans[index]
        covered = _union_length(
            (max(self.spans[c].start, span.start), min(self.spans[c].end, span.end))
            for c in span.children
        )
        return span.duration - covered

    def inclusive(self, names: Sequence[str]) -> float:
        """Wall time under spans called any of ``names``, nested ones
        (recursion, one wrapped method calling another) counted once."""
        wanted = set(names)
        total = 0.0
        for index, span in enumerate(self.spans):
            if span.name in wanted and not self._has_ancestor(index, wanted):
                total += span.duration
        return total

    def self_total(self, names: Sequence[str]) -> float:
        wanted = set(names)
        return sum(self.self_time(i) for i, s in enumerate(self.spans)
                   if s.name in wanted)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def top_level(self) -> float:
        """Total duration of the root spans."""
        return sum(s.duration for s in self.spans if s.parent is None)

    def _has_ancestor(self, index: int, names) -> bool:
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].name in names:
                return True
            parent = self.spans[parent].parent
        return False


def _union_length(intervals) -> float:
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if reach is None or start >= reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


# ---------------------------------------------------------------------- #
# Installing the wrappers


def patch_function(tracer: Tracer, module_name: str, attr: str, span: str,
                   on_result: Optional[Callable] = None) -> None:
    """Wrap ``module.attr`` at its definition and at every loaded
    ``repro`` module that imported it by name.  Sites that import it
    lazily (inside a function) read the defining module at call time and
    so see the wrapper too."""
    original = getattr(importlib.import_module(module_name), attr)
    wrapped = tracer.wrap(span, original, on_result)
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        if getattr(module, attr, None) is original:
            setattr(module, attr, wrapped)


def patch_method(tracer: Tracer, module_name: str, qualname: str, attr: str,
                 span: str, on_result: Optional[Callable] = None) -> None:
    cls = getattr(importlib.import_module(module_name), qualname)
    original = cls.__dict__[attr]
    if not inspect.isfunction(original):
        raise TypeError(f"{qualname}.{attr} is not a plain method")
    setattr(cls, attr, tracer.wrap(span, original, on_result))


class _TracedLU:
    """A steady SuperLU factorization whose ``solve`` is recorded as a
    ``thermal.backsolve`` span."""

    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, *args, **kwargs):
        index = self._tracer.begin("thermal.backsolve")
        try:
            return self._lu.solve(rhs, *args, **kwargs)
        finally:
            self._tracer.end(index)
            self._tracer.count("thermal.backsolve.rhs",
                               rhs.shape[1] if rhs.ndim == 2 else 1)


#: ExperimentContext methods whose self time is "context" time: the
#: memo/claim/dispatch glue between the layers.
CONTEXT_METHODS = (
    "trace", "run", "run_config", "grid", "prefetch", "prefetch_configs",
    "run_many", "power_model", "power", "chip_power_watts", "floorplan",
    "solver", "thermal", "thermal_many", "thermal_for_breakdowns",
    "thermal_batch", "thermal_grouped", "solve_thermal",
    "solve_thermal_groups", "transient_many",
)

#: (defining module, function) of each report section's runner.
RUNNERS = (
    ("repro.experiments.table2", "run_table2"),
    ("repro.experiments.figure7", "run_figure7"),
    ("repro.experiments.figure8", "run_figure8"),
    ("repro.experiments.figure9", "run_figure9"),
    ("repro.experiments.figure10", "run_figure10"),
    ("repro.experiments.power_density", "run_power_density"),
    ("repro.experiments.width_stats", "run_width_stats"),
    ("repro.experiments.dvfs", "run_dvfs"),
    ("repro.experiments.roadmap", "run_roadmap"),
    ("repro.experiments.sensitivity", "run_sensitivity"),
    ("repro.experiments.stacking_order", "run_stacking_order"),
    ("repro.experiments.leakage", "run_leakage_feedback"),
    ("repro.experiments.pairing", "run_pairing"),
    ("repro.experiments.interval", "run_interval"),
)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    # Load every module that binds a wrapped name before patching, so
    # each import site is found.
    importlib.import_module("repro.experiments.report")
    importlib.import_module("repro.cli")
    count = tracer.count

    def generated(trace, args, kwargs):
        count("workloads.generate.instructions", len(trace))

    def simulated(result, args, kwargs):
        trace = args[1]  # a PreDecodedTrace for run_compiled, a Trace for run
        count("cpu.simulate.instructions", getattr(trace, "n", None) or len(trace))

    def loaded(result, args, kwargs):
        cache, key = args[0], args[1]
        if result is None:
            count("cache.misses")
            return
        count("cache.hits")
        try:
            count("cache.load.bytes", cache._path(key).stat().st_size)
        except OSError:
            pass

    def stored(result, args, kwargs):
        cache, key = args[0], args[1]
        try:
            count("cache.store.bytes", cache._path(key).stat().st_size)
        except OSError:
            pass

    def stepped(results, args, kwargs):
        count("transient.runs", len(results))
        count("transient.steps", sum(len(r.times_s) for r in results))

    patch_function(tracer, "repro.workloads.suite", "generate",
                   "workloads.generate", generated)
    patch_method(tracer, "repro.isa.trace", "Trace", "compiled", "isa.compile")
    patch_function(tracer, "repro.cpu.predecode", "predecode", "cpu.predecode")
    patch_method(tracer, "repro.cpu.pipeline", "TimingSimulator", "__init__",
                 "cpu.init")
    for attr in ("run_compiled", "run"):
        patch_method(tracer, "repro.cpu.pipeline", "TimingSimulator", attr,
                     "cpu.simulate", simulated)
    patch_function(tracer, "repro.cpu.wavefront", "build_plan", "cpu.wavefront")
    for attr in ("evaluate", "evaluate_intervals"):
        patch_method(tracer, "repro.power.model", "PowerModel", attr,
                     "power.evaluate")
    patch_function(tracer, "repro.thermal.power_map", "rasterize",
                   "thermal.rasterize")
    patch_function(tracer, "repro.thermal.power_map", "build_power_map",
                   "thermal.power_map")
    patch_method(tracer, "repro.thermal.solver", "ThermalSolver", "solve_many",
                 "thermal.solve")

    solver = importlib.import_module("repro.thermal.solver")
    splu = solver.splu

    def traced_splu(matrix, *args, **kwargs):
        # A factorization inside TransientThermalSolver.__init__ is a
        # step matrix; its backsolves are transient stepping.
        step = tracer.inside("transient.init")
        index = tracer.begin("transient.factorize" if step else "thermal.factorize")
        try:
            lu = splu(matrix, *args, **kwargs)
        finally:
            tracer.end(index)
        if step:
            return lu
        tracer.counts["thermal.unknowns_max"] = max(
            tracer.counts["thermal.unknowns_max"], matrix.shape[0])
        return _TracedLU(lu, tracer)

    solver.splu = traced_splu

    patch_method(tracer, "repro.thermal.transient", "TransientThermalSolver",
                 "__init__", "transient.init")
    patch_method(tracer, "repro.thermal.transient", "TransientThermalSolver",
                 "run_many", "transient.run_many", stepped)
    for attr, hook in (("load", loaded), ("store", stored)):
        patch_method(tracer, "repro.experiments.cache", "ResultCache", attr,
                     f"cache.{attr}", hook)
        patch_method(tracer, "repro.experiments.cache", "TraceStore", attr,
                     f"cache.trace.{attr}")
    for attr in CONTEXT_METHODS:
        patch_method(tracer, "repro.experiments.context", "ExperimentContext",
                     attr, "context")
    for module_name, attr in RUNNERS:
        patch_function(tracer, module_name, attr, f"experiments.{attr}")
    patch_function(tracer, "repro.experiments.report", "generate_report",
                   "report")


def layer_metrics(tracer: Tracer, wall_s: float, context=None) -> Dict[str, float]:
    """The per-layer metrics of one traced timed phase, by name.

    ``context`` is the report workloads' :class:`ExperimentContext`;
    its program-side counters (claim waits) and the process-wide
    factorization LRU are read after the timed phase, not timed.
    """
    t = tracer
    counts = t.counts

    def rate(work: float, seconds: float) -> float:
        return work / seconds if seconds > 0 else 0.0

    generate_s = t.inclusive(["workloads.generate"])
    # Timing-engine time: TimingSimulator construction plus its run,
    # the span bench_simulate times.
    simulate_s = t.inclusive(["cpu.simulate", "cpu.init"])
    transient_s = t.inclusive(["transient.init", "transient.run_many"])
    from repro.thermal.solver import FACTORIZATION_STATS

    metrics = {
        "workloads.generate.calls": t.calls("workloads.generate"),
        "workloads.generate.s": generate_s,
        "workloads.generate.inst_per_s": rate(
            counts["workloads.generate.instructions"], generate_s),
        "isa.compile.s": t.inclusive(["isa.compile"]),
        "cpu.predecode.calls": t.calls("cpu.predecode"),
        "cpu.predecode.s": t.inclusive(["cpu.predecode"]),
        "cpu.simulate.calls": t.calls("cpu.simulate"),
        "cpu.simulate.s": simulate_s,
        "cpu.simulate.self_s": t.self_total(["cpu.simulate", "cpu.init"]),
        "cpu.simulate.inst_per_s": rate(
            counts["cpu.simulate.instructions"], simulate_s),
        "cpu.wavefront.s": t.inclusive(["cpu.wavefront"]),
        "cpu.init.s": t.inclusive(["cpu.init"]),
        "power.evaluate.calls": t.calls("power.evaluate"),
        "power.evaluate.s": t.inclusive(["power.evaluate"]),
        "thermal.rasterize.calls": t.calls("thermal.rasterize"),
        "thermal.rasterize.s": t.inclusive(
            ["thermal.rasterize", "thermal.power_map"]),
        "thermal.solve.s": t.inclusive(["thermal.solve"]),
        "thermal.factorize.count": t.calls("thermal.factorize"),
        "thermal.factorize.s": t.inclusive(["thermal.factorize"]),
        "thermal.unknowns_max": counts["thermal.unknowns_max"],
        "thermal.backsolve.calls": t.calls("thermal.backsolve"),
        "thermal.backsolve.rhs": counts["thermal.backsolve.rhs"],
        "thermal.backsolve.s": t.inclusive(["thermal.backsolve"]),
        "thermal.lru_hits": FACTORIZATION_STATS.cache_hits,
        "transient.runs": counts["transient.runs"],
        "transient.steps": counts["transient.steps"],
        "transient.step_factorizations": t.calls("transient.factorize"),
        "transient.s": transient_s,
        "transient.steps_per_s": rate(counts["transient.steps"], transient_s),
        "cache.load.calls": t.calls("cache.load"),
        "cache.hits": counts["cache.hits"],
        "cache.misses": counts["cache.misses"],
        "cache.load.s": t.inclusive(["cache.load"]),
        "cache.load.bytes": counts["cache.load.bytes"],
        "cache.store.calls": t.calls("cache.store"),
        "cache.store.s": t.inclusive(["cache.store"]),
        "cache.store.bytes": counts["cache.store.bytes"],
        "cache.trace.load.s": t.inclusive(["cache.trace.load"]),
        "cache.trace.store.s": t.inclusive(["cache.trace.store"]),
        "context.self_s": t.self_total(["context"]),
        "context.claim_waits": context.stats.claim_waits if context else 0,
    }
    for _, attr in RUNNERS:
        metrics[f"experiments.{attr}.s"] = t.inclusive([f"experiments.{attr}"])
    metrics["report.self_s"] = t.self_total(["report"])
    metrics["trace.unattributed_s"] = wall_s - t.top_level()
    return metrics
