"""Worker side of the job engine: pure worker functions and the pool entry.

:meth:`repro.experiments.context.ExperimentContext` resolves every kind
of work — simulations, steady thermal solves, transient runs, leakage
feedback — through one engine that groups pending jobs and hands each
group to a worker function defined here.  Worker functions take pure
inputs (benchmark names, configurations, geometry tuples, power grids,
picklable schedules) and return one result per job, so the engine can
call them inline or ship them to a pool process unchanged.  A built
thermal solver holds an unpicklable SuperLU handle, so geometry travels
as its constructor arguments and :func:`rebuild_solver` reconstructs
it; the factorization then lands in the running process's LRU, which
inline calls share with the rest of the parent.

:func:`run_group` is the only pool entry point: it runs the kind's fault
point (a no-op unless a fault-injection token directory is armed; see
:mod:`repro.experiments.faults`), calls the worker, and ships back the
task's factorization-LRU delta and wall-clock, which the parent folds
into ``ContextStats`` (worker counters are otherwise invisible across
the process boundary).  Inline and serial-fallback calls skip it, so
they are never injected.

Steady solves whose system exceeds ``REPRO_THERMAL_SUBPROC_CELLS``
unknowns always run in a pool process, where a crash, OOM kill, or hang
costs one timeout and an in-process fallback instead of the parent.
When the variable is unset, :func:`default_subproc_cells` supplies a
threshold calibrated to this machine's RAM (see its docstring for the
formula); setting it to ``0``/``off``/``no``/``false``/``none`` disables
supervision entirely, and a positive integer overrides the calibration.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.isa.compiled import TraceReadError, read_compiled
from repro.thermal.feedback import solve_with_leakage_feedback
from repro.thermal.solver import FACTORIZATION_STATS, ThermalResult, ThermalSolver
from repro.thermal.transient import (
    STEP_FACTORIZATION_STATS,
    PowerSchedule,
    TransientThermalSolver,
)

#: ``REPRO_THERMAL_SUBPROC_CELLS`` values that disable supervision.
DISABLED_VALUES = frozenset({"0", "off", "no", "false", "none"})

#: Measured SuperLU fill constant: the LU factors of the thermal
#: conductance matrix occupy about ``LU_FILL_BYTES * cells ** (4/3)``
#: bytes (12 bytes per stored nonzero; measured 952-3419 bytes/cell over
#: 4k-65k cell systems across the planar and 3D stacks, with the 4/3
#: exponent fitting the observed growth of fill-in with system size;
#: 100 covers the worst case, the 10-layer 3D stack).
LU_FILL_BYTES = 100.0

#: Fraction of physical RAM one in-process factorization may claim
#: before the solve is routed to a crash-isolated subprocess.
RAM_FRACTION = 0.25

#: Never supervise systems smaller than this: sub-65k-cell solves (all
#: default and fast-test grids) take milliseconds and cannot threaten
#: the parent even on tiny machines, so the subprocess round-trip would
#: be pure overhead.
MIN_SUBPROC_CELLS = 65_536

#: Threshold used when physical RAM cannot be queried (non-POSIX).
FALLBACK_SUBPROC_CELLS = 250_000


def physical_ram_bytes() -> Optional[int]:
    """Physical RAM in bytes, or ``None`` when unqueryable."""
    try:
        page = os.sysconf("SC_PAGE_SIZE")
        pages = os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None
    if page <= 0 or pages <= 0:
        return None
    return page * pages


def default_subproc_cells() -> int:
    """Calibrated default for ``REPRO_THERMAL_SUBPROC_CELLS``.

    Supervision pays a subprocess round-trip to protect the parent from
    an OOM abort, so the threshold is the system size whose factorization
    footprint reaches :data:`RAM_FRACTION` of physical RAM.  Inverting
    the measured footprint model ``bytes = LU_FILL_BYTES * cells**(4/3)``
    gives::

        cells = (RAM_FRACTION * ram_bytes / LU_FILL_BYTES) ** (3/4)

    clamped below by :data:`MIN_SUBPROC_CELLS`.  On a 4 GiB machine this
    is about 180k cells; on 128 GiB about 2.4M cells — the paper-default
    64x64 grids (16k-41k cells) always solve in-process.
    """
    ram = physical_ram_bytes()
    if ram is None:
        return FALLBACK_SUBPROC_CELLS
    cells = (RAM_FRACTION * ram / LU_FILL_BYTES) ** 0.75
    return max(int(cells), MIN_SUBPROC_CELLS)


# ---------------------------------------------------------------------- #
# The pool entry point


def _lru_counters() -> Dict[str, int]:
    return {
        "factorizations": FACTORIZATION_STATS.factorizations,
        "cache_hits": FACTORIZATION_STATS.cache_hits,
        "step_factorizations": STEP_FACTORIZATION_STATS.factorizations,
        "step_cache_hits": STEP_FACTORIZATION_STATS.cache_hits,
    }


def run_group(fault_point: Callable[[], None], work: Callable,
              args: tuple) -> Tuple[List, Dict[str, float]]:
    """Pool entry point: fault point, then ``work(*args)``, plus stats.

    Returns the worker's results together with this task's
    factorization-LRU deltas (steady and step matrix) and wall-clock.
    """
    fault_point()
    start = time.perf_counter()
    before = _lru_counters()
    results = work(*args)
    stats: Dict[str, float] = {
        name: value - before[name] for name, value in _lru_counters().items()
    }
    stats["seconds"] = round(time.perf_counter() - start, 3)
    return results, stats


# ---------------------------------------------------------------------- #
# Worker functions (pure inputs, one result per job)


def geometry_of(solver: ThermalSolver) -> tuple:
    """The constructor arguments :func:`rebuild_solver` needs."""
    return (solver.stack, solver.floorplan, solver.nx, solver.ny,
            solver.spreader_mm)


def rebuild_solver(geometry: tuple) -> ThermalSolver:
    """A solver for pure geometry data; its factorization comes from (or
    lands in) this process's LRU."""
    return ThermalSolver(*geometry)


def simulate_runs(benchmark: str, trace_length: int, warmup: int,
                  trace, configs: Sequence) -> List:
    """Simulate one trace under each configuration.

    ``trace`` is the trace itself (inline calls pass the parent's
    memoized compiled trace), the path of its stored compiled form (pool
    workers memory-map it instead of re-running the emulator), or
    ``None``.  A damaged or vanished file, or ``None``, degrades to
    regeneration — the emulator is deterministic, so every path yields
    the same trace.
    """
    if trace is None or isinstance(trace, str):
        trace = _load_trace(benchmark, trace_length, trace)
    from repro.cpu.pipeline import simulate

    return [simulate(trace, config, warmup=warmup) for config in configs]


def _load_trace(benchmark: str, trace_length: int, trace_file: Optional[str]):
    if trace_file is not None:
        try:
            compiled = read_compiled(trace_file)
        except TraceReadError:
            pass
        else:
            if len(compiled) == trace_length and compiled.name == benchmark:
                return compiled
    from repro.workloads.suite import generate

    return generate(benchmark, length=trace_length)


def solve_steady(geometry: tuple,
                 batches: Sequence[Sequence]) -> List[ThermalResult]:
    """Every right-hand side of one geometry through one factorization."""
    return rebuild_solver(geometry).solve_many(batches)


def step_transient(geometry: tuple, dt_s: float, duration_s: float,
                   initial_k: Optional[float], schedules: Sequence) -> List:
    """Step one step-matrix group in lock-step; ``(result, schedule
    stats)`` per run.  Pool workers step pickled schedule copies, so
    their accumulated stats (throttle duty counters) travel back
    explicitly."""
    transient = TransientThermalSolver(rebuild_solver(geometry), dt_s=dt_s)
    results = transient.run_many(schedules, duration_s, initial_k=initial_k)
    return [
        (result, s.stats() if isinstance(s, PowerSchedule) else {})
        for result, s in zip(results, schedules)
    ]


def converge_leakage(geometry: tuple, requests: Sequence) -> List[tuple]:
    """Fixed-leakage and electro-thermally coupled peaks per
    ``(dynamic grids, leakage grids, reference K)`` request:
    ``(fixed peak K, coupled peak K, leakage amplification)``."""
    solver = rebuild_solver(geometry)
    out = []
    for dynamic, leakage, reference_k in requests:
        fixed = solver.solve([d + l for d, l in zip(dynamic, leakage)])
        feedback = solve_with_leakage_feedback(
            solver, dynamic, leakage, reference_k=reference_k,
        )
        out.append((
            fixed.peak_temperature,
            feedback.result.peak_temperature,
            feedback.leakage_amplification,
        ))
    return out
