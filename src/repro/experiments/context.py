"""Shared experiment state: cached traces, runs, and calibrated models.

The paper's evaluation reuses the same simulation runs across figures
(e.g. mpeg2's Base run both anchors the 90 W power calibration and feeds
Figure 8); the context memoizes everything so the benchmark harness does
each piece of work once per process.

Every expensive result — simulations, steady thermal solves, transient
runs, leakage-feedback fixed points — goes through one job engine
(:meth:`ExperimentContext._resolve`) that makes repeated and large
evaluations cheap:

* a **persistent on-disk cache** (:mod:`repro.experiments.cache`) keyed
  by a content hash of everything a result depends on, so repeated
  CLI/benchmark/report runs hit disk instead of recomputing, and
  concurrent processes share work through claim files;
* a **parallel dispatcher** that fans pending work, grouped by what it
  shares (a factorization, a step matrix), out across a
  :class:`ProcessPoolExecutor` (``jobs`` argument, ``REPRO_JOBS``
  environment variable, default ``os.cpu_count()``).  Every job is
  deterministic, so the parallel path produces results identical to the
  serial one.
"""

from __future__ import annotations

import os
import time
import uuid
import warnings
from datetime import datetime, timezone
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cpu.config import CPUConfig, paper_configurations
from repro.cpu.results import SimulationResult
from repro.experiments import faults, supervised
from repro.experiments.cache import (
    DEFAULT_CLAIM_STALE_S,
    ResultCache,
    leakage_key,
    simulation_key,
    thermal_key,
    trace_store_key,
    transient_key,
)
from repro.floorplan import Floorplan, planar_floorplan, stacked_floorplan
from repro.isa.compiled import CompiledTrace
from repro.isa.trace import Trace
from repro.power.model import (
    PowerBreakdown,
    PowerModel,
    StackKind,
    calibrate_activity_scale,
)
from repro.thermal.feedback import DEFAULT_EFOLD_K
from repro.thermal.power_map import build_power_map, rasterize
from repro.thermal.solver import FACTORIZATION_STATS, ThermalResult, ThermalSolver
from repro.thermal.stack import planar_stack, stacked_3d_stack
from repro.thermal.transient import (
    STEP_FACTORIZATION_STATS,
    PowerSchedule,
    TransientResult,
    step_matrix_key,
)
from repro.workloads.suite import benchmark_names, fingerprint, generate

#: The power/thermal reference application (the paper's peak-power app).
REFERENCE_BENCHMARK = "mpeg2"
#: Number of cores on the chip (Table 1 context / Figure 9).
CORE_COUNT = 2

#: Environment variable setting the default simulation worker count.
ENV_JOBS = "REPRO_JOBS"

#: Per-task deadline (seconds) for pool workers; unset/empty = no deadline.
#: A worker that exceeds it is presumed hung (deadlock, livelock): its
#: task re-enters the retry ladder and the pool is recycled.
ENV_TASK_TIMEOUT = "REPRO_TASK_TIMEOUT_S"

#: Thermal solves whose system has at least this many unknowns
#: (layers x ny x nx) run in a supervised subprocess.  Unset = a
#: RAM-calibrated default (:func:`repro.experiments.supervised.
#: default_subproc_cells`); "0"/"off"/"no"/"false"/"none" = never.
ENV_THERMAL_SUBPROC = "REPRO_THERMAL_SUBPROC_CELLS"

#: Deadline (seconds) for a supervised thermal subprocess; defaults to
#: REPRO_TASK_TIMEOUT_S, unset = wait for completion (crash-isolated only).
ENV_THERMAL_TIMEOUT = "REPRO_THERMAL_TIMEOUT_S"

#: Worker-pool attempts each task gets before it falls back to running
#: serially in this process (1 first try + N-1 retries on a fresh pool).
MAX_TASK_ATTEMPTS = 3

#: Broken-pool restarts per batch before the whole remainder goes serial.
MAX_POOL_RESTARTS = 3

#: Base of the bounded exponential backoff between pool restarts.
RETRY_BACKOFF_S = 0.05

#: Backoff ceiling — a restart never waits longer than this.
MAX_BACKOFF_S = 2.0

#: Bounded wait (seconds) on another process's cache claim before taking
#: over and simulating anyway (duplicate work beats waiting forever).
CLAIM_WAIT_S = 120.0

#: Poll interval while waiting on another process's claim.
CLAIM_POLL_S = 0.05

#: Distinct groups (factorizations, step matrices) a steady, transient
#: or leakage dispatch needs before it fans out to worker processes.
#: Below this the parent runs them inline: a worker cannot return its
#: SuperLU handle, so small dispatches would pay a pool spin-up *and*
#: forfeit the parent's factorization LRU that later single-geometry
#: solves (DVFS points, transient steps, leakage feedback) reuse for free.
THERMAL_PARALLEL_MIN_GROUPS = 3

#: Configuration labels -> whether they are evaluated as a 3D stack.
CONFIG_STACKS: Dict[str, StackKind] = {
    "Base": StackKind.PLANAR_2D,
    "TH": StackKind.PLANAR_2D,
    "Pipe": StackKind.PLANAR_2D,
    "Fast": StackKind.PLANAR_2D,
    "3D": StackKind.STACKED_3D,
    "3D-noTH": StackKind.STACKED_3D,
}

#: Sentinel: "build the default cache from the environment".
_AUTO_CACHE = object()


@dataclass(frozen=True)
class ExperimentSettings:
    """Knobs trading fidelity for runtime."""

    trace_length: int = 20_000
    warmup: int = 6_000
    #: None = the full 24-benchmark suite
    benchmarks: Optional[Tuple[str, ...]] = None
    #: thermal grid resolution (over the spreader footprint)
    thermal_grid: int = 64

    def benchmark_list(self) -> List[str]:
        if self.benchmarks is not None:
            return list(self.benchmarks)
        return benchmark_names()


@dataclass
class ContextStats:
    """Where this context's results came from, and what it took to get them.

    Besides provenance counters (simulated vs disk hits) this carries the
    robustness telemetry of the fault-tolerant executor: how many task
    submissions worker pools saw, how often tasks were retried, how often
    a broken pool was restarted, how many tasks ended up running serially
    in-process, and wall-clock per pipeline stage.  ``events`` is an
    append-only log of the individual robustness incidents, emitted by
    ``repro report --log-json``.
    """

    #: simulations actually executed (serial or in workers)
    simulated: int = 0
    #: simulation results served from the on-disk cache
    disk_hits: int = 0
    #: thermal maps actually solved (factorize and/or backsubstitute)
    thermal_solved: int = 0
    #: thermal maps served from the on-disk cache
    thermal_disk_hits: int = 0
    #: task submissions handed to worker pools (includes resubmissions)
    tasks_run: int = 0
    #: tasks resubmitted to a pool after an in-task exception
    task_retries: int = 0
    #: tasks that exceeded their REPRO_TASK_TIMEOUT_S deadline
    task_timeouts: int = 0
    #: fresh pools created after a BrokenProcessPool (worker death)
    pool_restarts: int = 0
    #: tasks that gave up on pools and ran serially in this process
    serial_fallbacks: int = 0
    #: times this process waited on another process's cache claim
    claim_waits: int = 0
    #: results obtained from another process's simulation via a claim wait
    claim_dedup: int = 0
    #: stale or expired claims this process took over
    claim_takeovers: int = 0
    #: taken-over keys simulated *during* a claim wait (work stealing)
    claim_steals: int = 0
    #: traces generated by the emulator in this process
    traces_generated: int = 0
    #: compiled traces served from the on-disk trace store
    trace_cache_hits: int = 0
    #: wall-clock spent compiling traces to columnar form
    trace_compile_seconds: float = 0.0
    #: committed instructions simulated in this process (incl. warmup)
    instructions_simulated: int = 0
    #: thermal batches solved in a supervised subprocess
    thermal_subproc_solves: int = 0
    #: supervised thermal solves that fell back in-process
    thermal_subproc_fallbacks: int = 0
    #: geometry groups dispatched by the thermal solve engine
    thermal_groups: int = 0
    #: geometry groups factorized+solved in pool workers (vs inline)
    thermal_worker_groups: int = 0
    #: SuperLU factorizations performed inside thermal workers
    thermal_worker_factorizations: int = 0
    #: transient runs dispatched through :meth:`transient_many`
    transient_runs: int = 0
    #: step-matrix groups dispatched by the transient engine
    transient_groups: int = 0
    #: step-matrix groups stepped in pool workers (vs inline)
    transient_worker_groups: int = 0
    #: implicit-Euler steps integrated (per run, so K lock-stepped runs
    #: of S steps count K*S)
    transient_steps: int = 0
    #: step-matrix factorizations performed inside transient workers
    transient_worker_factorizations: int = 0
    #: interval power traces extracted (simulated with capture + binned)
    intervals_extracted: int = 0
    #: interval power traces served from the on-disk cache
    interval_disk_hits: int = 0
    #: accumulated wall-clock per pipeline stage (e.g. simulate, thermal)
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    #: robustness incidents, in order ({"event": ..., **detail})
    events: List[dict] = field(default_factory=list)
    #: correlation id of the owning context, stamped on every event
    run_id: str = ""
    #: correlation id of the in-flight worker batch (None between batches)
    batch_id: Optional[str] = None
    _batch_seq: int = 0

    def add_stage(self, stage: str, seconds: float) -> None:
        self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds

    def begin_batch(self) -> str:
        """Open a new batch scope; events until :meth:`end_batch` carry it."""
        self._batch_seq += 1
        self.batch_id = f"b{self._batch_seq:04d}"
        return self.batch_id

    def end_batch(self) -> None:
        self.batch_id = None

    def record_event(self, event: str, **detail) -> None:
        """Append one robustness incident, stamped for log correlation.

        Every event carries an ISO-8601 UTC timestamp, the context's
        ``run_id``, and the current ``batch_id`` (None outside a worker
        batch) so ``--log-json`` lines line up with external job-runner
        logs.
        """
        self.events.append({
            "event": event,
            "ts": datetime.now(timezone.utc).isoformat(timespec="milliseconds"),
            "run_id": self.run_id,
            "batch_id": self.batch_id,
            **detail,
        })

    def as_dict(self) -> dict:
        """Telemetry payload for ``--stats`` files and the CI benchmark report."""
        return {
            "run_id": self.run_id,
            "simulated": self.simulated,
            "sim_disk_hits": self.disk_hits,
            "thermal_solved": self.thermal_solved,
            "thermal_disk_hits": self.thermal_disk_hits,
            "tasks_run": self.tasks_run,
            "task_retries": self.task_retries,
            "task_timeouts": self.task_timeouts,
            "pool_restarts": self.pool_restarts,
            "serial_fallbacks": self.serial_fallbacks,
            "claim_waits": self.claim_waits,
            "claim_dedup": self.claim_dedup,
            "claim_takeovers": self.claim_takeovers,
            "claim_steals": self.claim_steals,
            "traces_generated": self.traces_generated,
            "trace_cache_hits": self.trace_cache_hits,
            "trace_compile_seconds": round(self.trace_compile_seconds, 3),
            "instructions_simulated": self.instructions_simulated,
            "instructions_per_second": self.instructions_per_second(),
            "thermal_subproc_solves": self.thermal_subproc_solves,
            "thermal_subproc_fallbacks": self.thermal_subproc_fallbacks,
            "thermal_groups": self.thermal_groups,
            "thermal_worker_groups": self.thermal_worker_groups,
            "thermal_worker_factorizations": self.thermal_worker_factorizations,
            "transient_runs": self.transient_runs,
            "transient_groups": self.transient_groups,
            "transient_worker_groups": self.transient_worker_groups,
            "transient_steps": self.transient_steps,
            "transient_worker_factorizations": self.transient_worker_factorizations,
            "intervals_extracted": self.intervals_extracted,
            "interval_disk_hits": self.interval_disk_hits,
            # Process-wide factorization-LRU snapshot (parent process
            # only; worker-side factorizations are accumulated above).
            "factorizations": FACTORIZATION_STATS.factorizations,
            "factorization_cache_hits": FACTORIZATION_STATS.cache_hits,
            # The transient solver's step-matrix LRU, same contract.
            "step_factorizations": STEP_FACTORIZATION_STATS.factorizations,
            "step_factorization_cache_hits": STEP_FACTORIZATION_STATS.cache_hits,
            "stage_seconds": {
                stage: round(seconds, 3)
                for stage, seconds in sorted(self.stage_seconds.items())
            },
        }

    def instructions_per_second(self) -> float:
        """Simulated instructions per wall-clock second of the simulate
        stage (0.0 until something has been simulated)."""
        seconds = self.stage_seconds.get("simulate", 0.0)
        if not seconds or not self.instructions_simulated:
            return 0.0
        return round(self.instructions_simulated / seconds, 1)


def _all_configurations() -> Dict[str, CPUConfig]:
    """The five paper configurations plus the 3D-without-herding variant."""
    configs = {label: pc.config for label, pc in paper_configurations().items()}
    configs["3D-noTH"] = replace(configs["3D"], thermal_herding=False, name="3d-noth")
    return configs


def _resolve_jobs(jobs: Optional[int]) -> int:
    """Worker count: explicit argument > REPRO_JOBS > os.cpu_count()."""
    if jobs is not None:
        return max(1, int(jobs))
    env = os.environ.get(ENV_JOBS, "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            warnings.warn(
                f"ignoring invalid {ENV_JOBS}={env!r} (not an integer); "
                f"defaulting to os.cpu_count()={os.cpu_count()}",
                RuntimeWarning,
                stacklevel=3,
            )
    return os.cpu_count() or 1


def _env_positive_number(name: str, convert=float) -> Optional[float]:
    """A positive number from the environment, or None (unset/invalid)."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        value = convert(raw)
    except ValueError:
        warnings.warn(
            f"ignoring invalid {name}={raw!r} (not a number)",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    return value if value > 0 else None


def _resolve_thermal_subproc_cells() -> Optional[int]:
    """The supervision threshold: explicit env value > calibrated default.

    ``None`` (supervision disabled) only on an explicit opt-out value;
    unset and invalid values fall back to the RAM-calibrated default.
    """
    raw = os.environ.get(ENV_THERMAL_SUBPROC, "").strip().lower()
    if raw in supervised.DISABLED_VALUES:
        return None
    if raw:
        explicit = _env_positive_number(ENV_THERMAL_SUBPROC, convert=int)
        if explicit is not None:
            return int(explicit)
    return supervised.default_subproc_cells()


@dataclass
class _PoolTask:
    """One unit of work for the fault-tolerant pool executor.

    ``supervised.run_group(*args)`` runs in a worker process;
    ``serial()`` is the in-process fallback producing an identical
    result (every task is deterministic).  ``detail`` labels the task in
    robustness events; ``timeout_s`` and ``max_attempts`` are its
    per-attempt deadline and worker-pool attempt budget.
    """

    args: tuple
    serial: Callable[[], object]
    detail: Dict[str, object]
    timeout_s: Optional[float] = None
    max_attempts: int = 1


@dataclass
class _Job:
    """One distinct unit of engine work and the request positions it serves."""

    spec: object
    key: Optional[str]
    targets: List[int]
    claimed: bool = False


def _oversized(ctx, solver: ThermalSolver) -> bool:
    """Whether a steady solve on ``solver`` must run crash-isolated."""
    return (ctx.thermal_subproc_cells is not None
            and solver.unknowns >= ctx.thermal_subproc_cells)


@dataclass(frozen=True)
class _JobKind:
    """One kind of work the engine resolves (:meth:`ExperimentContext._resolve`).

    Four parts define a kind: ``key(ctx, spec)`` is one job's content
    key (``None``: computed but never stored); ``group(ctx, spec)`` keys
    the jobs that share one worker call (a factorization, a step matrix;
    every simulation is its own group); ``task(ctx, specs, inline)`` is
    a worker function of :mod:`repro.experiments.supervised` plus its
    pure inputs for one group (it returns one result per job; ``inline``
    lets a trace stay in memory); and ``result_type`` is what
    ``cache.load`` must find under a key.  The rest is bookkeeping and
    the pool rule's inputs.
    """

    #: ``ContextStats.stage_seconds`` bucket its work is timed under, and
    #: the kind's label in warnings and ``<stage>_group`` events
    stage: str
    result_type: type
    key: Callable
    group: Callable
    task: Callable
    #: ``(ctx, specs) -> dict``: a group's detail in events
    describe: Callable
    #: ``(ctx, jobs, where, worker_stats)``: counts jobs served from
    #: ``"disk"``, or one group computed ``"inline"`` or on a ``"worker"``
    #: (``worker_stats``: that task's factorization-LRU delta)
    account: Callable = lambda ctx, jobs, where, worker_stats: None
    #: simulations take the worker fault point and ``task_timeout_s`` and
    #: pool from two pending jobs; thermal-side kinds take the thermal
    #: fault point and ``thermal_timeout_s`` and pool from
    #: ``thermal_parallel_min_groups`` groups
    simulation: bool = False
    #: ``(specs) -> bool``: whether a group's inputs pickle
    poolable: Callable = lambda specs: True
    #: ``(ctx, specs) -> bool``: whether a group must run crash-isolated
    oversized: Callable = lambda ctx, specs: False


def _count_simulations(ctx, jobs, where, worker_stats) -> None:
    if where == "disk":
        ctx.stats.disk_hits += len(jobs)
    else:
        ctx.stats.simulated += len(jobs)
        ctx.stats.instructions_simulated += (
            len(jobs) * ctx.settings.trace_length
        )


def _count_steady(ctx, jobs, where, worker_stats) -> None:
    stats = ctx.stats
    if where == "disk":
        stats.thermal_disk_hits += len(jobs)
        return
    stats.thermal_groups += 1
    stats.thermal_solved += sum(len(job.targets) for job in jobs)
    oversized = _oversized(ctx, jobs[0].spec[0])
    if where == "worker":
        stats.thermal_worker_groups += 1
        stats.thermal_worker_factorizations += worker_stats["factorizations"]
        stats.thermal_subproc_solves += oversized
    elif oversized:  # the supervised attempt failed; solved in-process
        stats.thermal_subproc_fallbacks += 1
        stats.record_event("thermal_subproc_fallback", batches=len(jobs))
        warnings.warn(
            f"supervised thermal solve failed; solved {len(jobs)} "
            f"batch(es) in-process", RuntimeWarning, stacklevel=2,
        )


def _steps(req: "TransientRequest") -> int:
    return max(1, int(round(req.duration_s / req.dt_s)))


def _count_transient(ctx, jobs, where, worker_stats) -> None:
    if where == "disk":
        return
    stats = ctx.stats
    stats.transient_groups += 1
    stats.transient_steps += _steps(jobs[0].spec) * len(jobs)
    if where == "worker":
        stats.transient_worker_groups += 1
        stats.transient_worker_factorizations += (
            worker_stats["step_factorizations"]
        )


def _transient_key(ctx, req: "TransientRequest") -> Optional[str]:
    schedule = req.schedule
    schedule_key = (schedule.cache_key()
                    if isinstance(schedule, PowerSchedule) else None)
    if schedule_key is None:
        return None
    return transient_key(schedule_key, ctx.solver(req.stack), req.dt_s,
                         req.duration_s, req.initial_k)


def _leakage_key(ctx, spec) -> str:
    solver, dynamic, leakage, reference_k = spec
    return leakage_key(thermal_key(solver, dynamic),
                       thermal_key(solver, leakage), reference_k,
                       DEFAULT_EFOLD_K)


#: (benchmark, config) -> SimulationResult, one worker call each.
_SIMULATIONS = _JobKind(
    stage="simulate", result_type=SimulationResult,
    key=lambda ctx, spec: ctx._cache_key(*spec),
    group=lambda ctx, spec: spec,
    task=lambda ctx, specs, inline: (supervised.simulate_runs, (
        specs[0][0], ctx.settings.trace_length, ctx.settings.warmup,
        ctx._compiled_for(specs[0][0]) if inline
        else ctx._trace_file(specs[0][0]),
        [config for _, config in specs],
    )),
    describe=lambda ctx, specs: {
        "benchmark": specs[0][0], "config": specs[0][1].name,
    },
    account=_count_simulations,
    simulation=True,
)

#: (solver, per-die grids) -> ThermalResult, one worker call per
#: factorization (:meth:`ThermalSolver.matrix_key`).
_STEADY = _JobKind(
    stage="thermal", result_type=ThermalResult,
    key=lambda ctx, spec: thermal_key(*spec),
    group=lambda ctx, spec: spec[0].matrix_key(),
    task=lambda ctx, specs, inline: (supervised.solve_steady, (
        supervised.geometry_of(specs[0][0]), [grids for _, grids in specs],
    )),
    describe=lambda ctx, specs: {
        "geometry": specs[0][0].geometry_id(),
        "batches": len(specs),
        "cells": specs[0][0].unknowns,
    },
    account=_count_steady,
    oversized=lambda ctx, specs: _oversized(ctx, specs[0][0]),
)

#: TransientRequest -> (TransientResult, schedule stats), one worker call
#: per step matrix and integration window.
_TRANSIENT = _JobKind(
    stage="transient", result_type=tuple,
    key=_transient_key,
    group=lambda ctx, req: (step_matrix_key(ctx.solver(req.stack), req.dt_s),
                            req.duration_s, req.initial_k),
    task=lambda ctx, reqs, inline: (supervised.step_transient, (
        supervised.geometry_of(ctx.solver(reqs[0].stack)), reqs[0].dt_s,
        reqs[0].duration_s, reqs[0].initial_k, [r.schedule for r in reqs],
    )),
    describe=lambda ctx, reqs: {
        "geometry": ctx.solver(reqs[0].stack).geometry_id(),
        "runs": len(reqs),
        "steps": _steps(reqs[0]),
    },
    account=_count_transient,
    # Plain ``power_fn(t)`` callables (lambdas) do not pickle.
    poolable=lambda reqs: all(isinstance(r.schedule, PowerSchedule)
                              for r in reqs),
)

#: (solver, dynamic grids, leakage grids, reference K) -> (fixed peak K,
#: coupled peak K, leakage amplification), one worker call per
#: factorization.
_LEAKAGE = _JobKind(
    stage="leakage", result_type=tuple,
    key=_leakage_key,
    group=lambda ctx, spec: spec[0].matrix_key(),
    task=lambda ctx, specs, inline: (supervised.converge_leakage, (
        supervised.geometry_of(specs[0][0]), [spec[1:] for spec in specs],
    )),
    describe=lambda ctx, specs: {
        "geometry": specs[0][0].geometry_id(), "runs": len(specs),
    },
)


class ExperimentContext:
    """Memoizing facade over the whole simulation pipeline."""

    def __init__(
        self,
        settings: Optional[ExperimentSettings] = None,
        *,
        jobs: Optional[int] = None,
        cache=_AUTO_CACHE,
    ):
        self.settings = settings or ExperimentSettings()
        self.configs = _all_configurations()
        self.jobs = _resolve_jobs(jobs)
        self.cache: Optional[ResultCache] = (
            ResultCache.from_env() if cache is _AUTO_CACHE else cache
        )
        self.stats = ContextStats()
        self.stats.run_id = uuid.uuid4().hex[:12]
        #: fault-tolerance knobs (instance attributes so tests and callers
        #: can tighten them without touching the module-level defaults)
        self.max_task_attempts = MAX_TASK_ATTEMPTS
        self.max_pool_restarts = MAX_POOL_RESTARTS
        self.retry_backoff_s = RETRY_BACKOFF_S
        #: per-task deadline; None (the default) waits indefinitely
        self.task_timeout_s = _env_positive_number(ENV_TASK_TIMEOUT)
        #: thermal systems at least this many unknowns go to a subprocess
        self.thermal_subproc_cells = _resolve_thermal_subproc_cells()
        self.thermal_timeout_s = (
            _env_positive_number(ENV_THERMAL_TIMEOUT) or self.task_timeout_s
        )
        #: distinct geometries a thermal dispatch needs to use the pool
        self.thermal_parallel_min_groups = THERMAL_PARALLEL_MIN_GROUPS
        #: cross-process claim coordination knobs
        self.claim_wait_s = CLAIM_WAIT_S
        self.claim_poll_s = CLAIM_POLL_S
        self.claim_stale_s = DEFAULT_CLAIM_STALE_S
        self._traces: Dict[str, Trace] = {}
        self._compiled: Dict[str, CompiledTrace] = {}
        self._trace_files: Dict[str, Optional[str]] = {}
        self._runs: Dict[Tuple[str, str], SimulationResult] = {}
        self._config_runs: Dict[Tuple[str, str], SimulationResult] = {}
        self._thermals: Dict[Tuple[str, str], ThermalResult] = {}
        self._power_model: Optional[PowerModel] = None
        self._floorplans: Dict[StackKind, Floorplan] = {}
        self._solvers: Dict[StackKind, ThermalSolver] = {}

    # ------------------------------------------------------------------ #

    def metrics(self) -> dict:
        """One scrapeable snapshot of this context's caches and telemetry.

        Combines the on-disk cache/ledger state (exact sizes from the
        sharded size ledger, result and trace entries broken out), this
        process's cache hit/miss/eviction counters, the process-wide
        ``FACTORIZATION_STATS``, and :meth:`ContextStats.as_dict` (which
        carries ``stage_seconds``) — the payload behind
        ``python -m repro metrics`` and ``repro report --stats``.
        """
        from repro.experiments.metrics import metrics_snapshot

        return metrics_snapshot(context=self)

    # ------------------------------------------------------------------ #

    def trace(self, benchmark: str) -> Trace:
        trace = self._traces.get(benchmark)
        if trace is None:
            start = time.perf_counter()
            trace = generate(benchmark, length=self.settings.trace_length)
            # ``generate``/``compile`` stage seconds count the emulator
            # and compiler wherever they run — including nested inside
            # the ``simulate`` stage on cold sweeps — so the per-stage
            # breakdown shows the next bottleneck without re-profiling.
            # Generated traces are born compiled, so ``generate`` holds
            # the array build and ``compile`` only a memo lookup.
            self.stats.add_stage("generate", time.perf_counter() - start)
            self.stats.traces_generated += 1
            self._traces[benchmark] = trace
        return trace

    def _compiled_for(self, benchmark: str) -> CompiledTrace:
        """The compiled columnar trace: memo -> disk store -> generate.

        A store hit skips the emulator entirely — a config sweep (and
        every later process pointed at the same cache directory) pays
        for each workload's generation and compilation once.
        """
        compiled = self._compiled.get(benchmark)
        if compiled is not None:
            return compiled
        store = key = None
        if self.cache is not None:
            store = self.cache.trace_store()
            key = trace_store_key(
                fingerprint(benchmark, self.settings.trace_length)
            )
            compiled = store.load(key)
            if compiled is not None:
                self.stats.trace_cache_hits += 1
                self._trace_files[benchmark] = os.fspath(store.npy_path(key))
        if compiled is None:
            trace = self.trace(benchmark)
            start = time.perf_counter()
            compiled = trace.compiled()
            elapsed = time.perf_counter() - start
            self.stats.trace_compile_seconds += elapsed
            self.stats.add_stage("compile", elapsed)
            if store is not None:
                path = store.store(key, compiled)
                self._trace_files[benchmark] = (
                    None if path is None else os.fspath(path)
                )
        self._compiled[benchmark] = compiled
        return compiled

    def _trace_file(self, benchmark: str) -> Optional[str]:
        """The on-disk compiled trace workers should map, or ``None``
        (store disabled or unusable) — in which case workers regenerate
        the trace themselves."""
        self._compiled_for(benchmark)
        return self._trace_files.get(benchmark)

    def _config_for(self, config_label: str) -> CPUConfig:
        config = self.configs.get(config_label)
        if config is None:
            raise KeyError(
                f"unknown configuration {config_label!r}; "
                f"known: {', '.join(self.configs)}"
            )
        return config

    def _cache_key(self, benchmark: str, config: CPUConfig) -> str:
        return simulation_key(
            benchmark, config, self.settings.trace_length, self.settings.warmup
        )

    def run(self, benchmark: str, config_label: str) -> SimulationResult:
        """The (cached) simulation of one benchmark under one configuration."""
        self.prefetch([(benchmark, config_label)])
        return self._runs[(benchmark, config_label)]

    def run_config(self, benchmark: str, config: CPUConfig) -> SimulationResult:
        """Like :meth:`run` for an ad-hoc configuration object.

        Used by sweeps (DVFS, roadmap stages, shared-L2 core pairing)
        whose configurations are not among the six labelled ones; results
        are memoized by content hash and persisted like labelled runs.
        """
        key = (benchmark, self._cache_key(benchmark, config))
        if key not in self._config_runs:
            self._simulate_into(self._config_runs, [(key, benchmark, config)])
        return self._config_runs[key]

    # ------------------------------------------------------------------ #
    # Parallel prefetching

    def grid(
        self,
        config_labels: Optional[Sequence[str]] = None,
        benchmarks: Optional[Sequence[str]] = None,
    ) -> List[Tuple[str, str]]:
        """The full (benchmark, config label) evaluation grid."""
        labels = list(config_labels) if config_labels is not None else list(self.configs)
        names = list(benchmarks) if benchmarks is not None else self.settings.benchmark_list()
        return [(benchmark, label) for benchmark in names for label in labels]

    def prefetch(self, pairs: Iterable[Tuple[str, str]]) -> None:
        """Materialize many labelled runs, simulating misses in parallel."""
        self._simulate_into(self._runs, [
            ((benchmark, label), benchmark, self._config_for(label))
            for benchmark, label in pairs
        ])

    def prefetch_configs(self, items: Iterable[Tuple[str, CPUConfig]]) -> None:
        """Materialize many ad-hoc-configuration runs (see :meth:`run_config`)."""
        self._simulate_into(self._config_runs, [
            ((benchmark, self._cache_key(benchmark, config)), benchmark, config)
            for benchmark, config in items
        ])

    def run_many(
        self, pairs: Sequence[Tuple[str, str]]
    ) -> Dict[Tuple[str, str], SimulationResult]:
        """Prefetch and return many labelled runs keyed by (benchmark, label)."""
        pairs = list(pairs)
        self.prefetch(pairs)
        return {pair: self.run(*pair) for pair in pairs}

    def _simulate_into(self, memo: dict, items) -> None:
        """Resolve the (memo key, benchmark, config) items missing from
        ``memo`` through the engine and memoize their results."""
        pending: Dict[Tuple[str, str], Tuple[str, CPUConfig]] = {}
        for memo_key, benchmark, config in items:
            if memo_key not in memo:
                pending.setdefault(memo_key, (benchmark, config))
        if pending:
            memo.update(zip(pending, self._resolve(_SIMULATIONS,
                                                   list(pending.values()))))

    # ------------------------------------------------------------------ #
    # The job engine

    def _resolve(self, kind: _JobKind, specs: Sequence) -> List:
        """The job engine: one result per spec of ``kind``, in order.

        Specs are deduplicated by content key within the call, served
        from the on-disk cache when possible, and coordinated with peer
        processes through the claim protocol (two processes never
        compute the same key concurrently).  Claimed misses run first
        (:meth:`_run_jobs`); keys a peer holds are then awaited
        collectively (:meth:`_await_jobs`).  Jobs are deterministic, so
        every path — cache, peer, inline, pool, serial fallback — yields
        byte-identical results.
        """
        out: List = [None] * len(specs)
        jobs: Dict[str, _Job] = {}
        work: List[_Job] = []
        waiting: List[_Job] = []
        cache = self.cache
        for index, spec in enumerate(specs):
            key = kind.key(self, spec)
            if key in jobs:  # duplicate within this call
                jobs[key].targets.append(index)
                continue
            job = _Job(spec, key, [index])
            if key is not None and cache is not None:
                cached = cache.load(key, kind.result_type)
                if cached is not None:
                    kind.account(self, [job], "disk", None)
                    out[index] = cached
                    continue
            if key is not None:
                jobs[key] = job
                if cache is not None:
                    job.claimed = cache.try_claim(key)
                    if not job.claimed:
                        self.stats.claim_waits += 1
                        self.stats.record_event("claim_wait", key=key[:16])
                        waiting.append(job)
                        continue
            work.append(job)
        if work or waiting:
            start = time.perf_counter()
            try:
                self._run_jobs(kind, work, out)
                self._await_jobs(kind, waiting, out)
            finally:
                self.stats.add_stage(kind.stage, time.perf_counter() - start)
        return out

    def _await_jobs(self, kind: _JobKind, waiting: List[_Job], out) -> None:
        """Collectively wait on peer-claimed jobs, stealing as we go.

        One bounded deadline covers the whole set (the peers run
        concurrently with each other, so their waits overlap).  Each poll
        sweeps every outstanding key: results that landed are adopted
        (``claim_dedup``), and abandoned claims — stale holder, or
        released without a stored result — are taken over and computed
        *immediately* (``claim_steals``), so this process does useful
        work while the remaining keys are still being waited on.  Keys
        still claimed when the deadline expires are computed
        uncoordinated (no claim of our own is taken).
        """
        cache = self.cache
        deadline = time.monotonic() + self.claim_wait_s
        while waiting:
            still: List[_Job] = []
            stolen: List[_Job] = []
            for job in waiting:
                result = cache.load(job.key, kind.result_type)
                if result is not None:
                    self.stats.claim_dedup += 1
                    self.stats.record_event("claim_dedup", key=job.key[:16])
                    for index in job.targets:
                        out[index] = result
                    continue
                if cache.claim_stale(job.key, self.claim_stale_s):
                    cache.break_claim(job.key)
                    reason = "stale"
                elif cache.claim_holder(job.key) is None:
                    # Holder released without storing (full disk, crash
                    # between release and store).
                    reason = "released"
                else:
                    still.append(job)
                    continue
                self.stats.claim_takeovers += 1
                self.stats.record_event("claim_takeover", key=job.key[:16],
                                        reason=reason)
                job.claimed = cache.try_claim(job.key)
                stolen.append(job)
            if stolen:
                self.stats.claim_steals += len(stolen)
                self.stats.record_event("claim_steal", tasks=len(stolen))
                self._run_jobs(kind, stolen, out)
            waiting = still
            if not waiting or time.monotonic() >= deadline:
                break
            time.sleep(self.claim_poll_s)
        for job in waiting:
            self.stats.claim_takeovers += 1
            self.stats.record_event("claim_takeover", key=job.key[:16],
                                    reason="wait_expired")
        self._run_jobs(kind, waiting, out)

    def _run_jobs(self, kind: _JobKind, jobs: List[_Job], out) -> None:
        """Compute jobs group by group, scatter, store, release claims.

        Claims taken in :meth:`_resolve` (or stolen during the wait) are
        always released, even when a job raises.
        """
        if not jobs:
            return
        try:
            by_group: Dict[object, List[_Job]] = {}
            for job in jobs:
                by_group.setdefault(kind.group(self, job.spec), []).append(job)
            groups = list(by_group.values())
            for members, results in zip(groups, self._dispatch(kind, groups)):
                for job, result in zip(members, results):
                    for index in job.targets:
                        out[index] = result
                    if job.key is not None and self.cache is not None:
                        self.cache.store(job.key, result)
        finally:
            if self.cache is not None:
                for job in jobs:
                    if job.claimed:
                        self.cache.release_claim(job.key)

    def _dispatch(self, kind: _JobKind,
                  groups: List[List[_Job]]) -> List[List]:
        """Run groups inline or across the worker pool.

        The one pool rule: the pool engages when ``jobs > 1``, enough
        groups are pending (two simulations, or
        ``thermal_parallel_min_groups`` thermal-side groups), and every
        group's inputs pickle — below that the parent runs them inline,
        where thermal work keeps sharing the parent's factorization LRU.
        An oversized steady group (``REPRO_THERMAL_SUBPROC_CELLS``)
        forces the pool even for a single group on a single-job context:
        crash isolation is the point, so it gets one attempt, then an
        in-process fallback with a warning — not the retry ladder.
        Worker-side counters come back with each result and are folded
        into :class:`ContextStats` here.
        """
        specs = [[job.spec for job in members] for members in groups]
        oversized = [kind.oversized(self, group) for group in specs]
        sim = kind.simulation
        use_pool = any(oversized) or (
            self.jobs > 1
            and len(groups) >= (2 if sim else self.thermal_parallel_min_groups)
            and all(kind.poolable(group) for group in specs)
        )
        self.stats.begin_batch()
        try:
            if use_pool:
                fault_point = (faults.maybe_inject_worker_fault if sim
                               else faults.maybe_inject_thermal_fault)
                tasks = []
                for group, big in zip(specs, oversized):
                    fn, args = kind.task(self, group, inline=False)
                    tasks.append(_PoolTask(
                        args=(fault_point, fn, args),
                        serial=lambda g=group: (self._run_inline(kind, g), None),
                        detail=kind.describe(self, group),
                        timeout_s=(self.task_timeout_s if sim
                                   else self.thermal_timeout_s),
                        max_attempts=1 if big else self.max_task_attempts,
                    ))
                outs = self._run_pool_tasks(tasks, kind.stage)
                seconds = [(ws or {}).get("seconds") for _, ws in outs]
            else:
                outs, seconds = [], []
                for group in specs:
                    t0 = time.perf_counter()
                    outs.append((self._run_inline(kind, group), None))
                    seconds.append(round(time.perf_counter() - t0, 3))
            for members, group, (_, worker_stats), secs in zip(
                    groups, specs, outs, seconds):
                where = "inline" if worker_stats is None else "worker"
                kind.account(self, members, where, worker_stats)
                self.stats.record_event(
                    f"{kind.stage}_group", **kind.describe(self, group),
                    where=where, seconds=secs,
                )
            return [results for results, _ in outs]
        finally:
            self.stats.end_batch()

    def _run_inline(self, kind: _JobKind, specs: list) -> List:
        """One group in this process (also the per-task serial fallback)."""
        fn, args = kind.task(self, specs, inline=True)
        return fn(*args)

    def _new_pool(self, workers: int):
        try:
            from concurrent.futures import ProcessPoolExecutor
            return ProcessPoolExecutor(max_workers=workers)
        except (ImportError, NotImplementedError, OSError):
            return None  # restricted platforms: caller falls back to serial

    @staticmethod
    def _abandon_pool(pool, kill: bool = False) -> None:
        """Walk away from a broken or hung pool without blocking on it.

        ``kill`` additionally SIGTERMs the worker processes — a hung
        worker never exits on its own, and ``shutdown(wait=False)``
        would leak it for the lifetime of the campaign.
        """
        processes = list((getattr(pool, "_processes", None) or {}).values())
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        if kill:
            for process in processes:
                try:
                    process.terminate()
                except Exception:
                    pass

    def _serial_remainder(self, tasks, results, indices, reason: str,
                          kind: str):
        """Finish ``indices`` serially after the pool path was abandoned."""
        warnings.warn(
            f"{kind} worker pool unusable ({reason}); running "
            f"{len(indices)} remaining task(s) serially",
            RuntimeWarning,
            stacklevel=4,
        )
        self.stats.record_event("serial_degrade", kind=kind, reason=reason,
                                tasks=len(indices))
        for index in indices:
            results[index] = tasks[index].serial()
            self.stats.serial_fallbacks += 1

    def _run_pool_tasks(self, tasks: List[_PoolTask], kind: str) -> List:
        """Run :class:`_PoolTask` descriptors on a fault-tolerant pool.

        Every task is tracked individually, completed results are never
        discarded, a dead worker (OOM kill, interpreter abort) only costs
        the tasks that had not finished — they are retried on a fresh
        pool with bounded exponential backoff — and tasks that keep
        failing run serially in this process.  A pool that keeps
        breaking degrades the whole remainder to serial execution with a
        warning.  Tasks carry their own deadlines and attempt budgets, so
        one dispatch can mix quick tasks with supervised one-shot ones;
        :class:`ContextStats` records what happened.
        """
        workers = max(1, min(self.jobs, len(tasks)))
        pool = self._new_pool(workers)
        if pool is None:
            self.stats.record_event("pool_unavailable", kind=kind,
                                    tasks=len(tasks))
            return [task.serial() for task in tasks]

        from concurrent.futures import wait as wait_futures
        from concurrent.futures.process import BrokenProcessPool

        results: List = [None] * len(tasks)
        attempts = [0] * len(tasks)
        pending = list(range(len(tasks)))
        restarts = 0
        try:
            while pending:
                futures = {}
                deadlines = {}
                pool_broken = False
                pool_hung = False
                failed: List[int] = []
                for index in pending:
                    task = tasks[index]
                    try:
                        future = pool.submit(supervised.run_group, *task.args)
                    except (BrokenProcessPool, RuntimeError):
                        # The pool broke under our feet; everything not
                        # yet submitted joins the retry set.
                        pool_broken = True
                        failed.append(index)
                        continue
                    futures[future] = index
                    if task.timeout_s is not None:
                        deadlines[future] = time.monotonic() + task.timeout_s
                self.stats.tasks_run += len(futures)

                not_done = set(futures)
                while not_done:
                    timed = [deadlines[f] for f in not_done if f in deadlines]
                    if not timed:
                        done, not_done = wait_futures(not_done)
                    else:
                        done, not_done = wait_futures(
                            not_done,
                            timeout=max(0.0, min(timed) - time.monotonic()),
                        )
                    for future in done:
                        index = futures[future]
                        try:
                            results[index] = future.result()
                        except BrokenProcessPool:
                            pool_broken = True
                            failed.append(index)
                        except Exception as exc:  # in-task failure, pool alive
                            attempts[index] += 1
                            failed.append(index)
                            self.stats.record_event(
                                "task_error",
                                **tasks[index].detail,
                                attempt=attempts[index],
                                error=repr(exc),
                            )
                    if not timed:
                        continue
                    # Deadline sweep: any task past its deadline re-enters
                    # the retry ladder now.  One that cancels cleanly was
                    # only queued behind a stalled pool; one that does not
                    # is running on a hung worker, and the whole pool gets
                    # recycled once everything still live has drained.
                    now = time.monotonic()
                    for future in [f for f in not_done
                                   if deadlines.get(f, now + 1.0) <= now]:
                        index = futures[future]
                        not_done.discard(future)
                        attempts[index] += 1
                        failed.append(index)
                        self.stats.task_timeouts += 1
                        was_running = not future.cancel()
                        if was_running:
                            pool_hung = True
                        self.stats.record_event(
                            "task_timeout",
                            **tasks[index].detail,
                            attempt=attempts[index],
                            timeout_s=tasks[index].timeout_s,
                            running=was_running,
                        )
                if not failed:
                    break

                reason = "hung" if pool_hung else "broke"
                if pool_broken or pool_hung:
                    self._abandon_pool(pool, kill=pool_hung)
                    pool = None
                # Tasks that exhausted their budget fall back serially
                # inside the filter; restarting a pool for an empty retry
                # set would be pure churn, so filter first.
                retryable = self._filter_retryable(tasks, results, attempts,
                                                   failed)
                if not retryable:
                    break
                if pool is None:
                    if restarts >= self.max_pool_restarts:
                        self._serial_remainder(
                            tasks, results, retryable,
                            f"{reason} {restarts + 1} times", kind,
                        )
                        break
                    restarts += 1
                    self.stats.pool_restarts += 1
                    self.stats.record_event("pool_restart", kind=kind,
                                            restart=restarts, reason=reason,
                                            tasks=len(retryable))
                    time.sleep(min(MAX_BACKOFF_S,
                                   self.retry_backoff_s * 2 ** (restarts - 1)))
                    pool = self._new_pool(workers)
                    if pool is None:
                        self._serial_remainder(tasks, results, retryable,
                                               "could not be recreated", kind)
                        break
                    pending = retryable
                else:
                    # Pool is healthy: retry transient in-task failures on
                    # it (a genuine, deterministic error will surface from
                    # the serial run once attempts are exhausted).
                    self.stats.task_retries += len(retryable)
                    pending = retryable
        finally:
            if pool is not None:
                pool.shutdown()
        return results

    def _filter_retryable(self, tasks: List[_PoolTask], results, attempts,
                          failed) -> List[int]:
        """Split failed indices into pool retries vs immediate serial runs.

        Tasks that exhausted their attempt budget (repeat raisers, repeat
        deadline overruns) run serially right here; the rest go back to
        the pool.
        """
        retryable: List[int] = []
        for index in failed:
            task = tasks[index]
            if attempts[index] < task.max_attempts:
                retryable.append(index)
            else:
                self.stats.record_event(
                    "serial_fallback",
                    **task.detail,
                    attempts=attempts[index],
                )
                results[index] = task.serial()
                self.stats.serial_fallbacks += 1
        return retryable

    # ------------------------------------------------------------------ #

    def power_model(self) -> PowerModel:
        """The power model calibrated on the reference baseline run."""
        if self._power_model is None:
            reference = self.run(REFERENCE_BENCHMARK, "Base")
            scale = calibrate_activity_scale(reference)
            self._power_model = PowerModel(activity_scale=scale)
        return self._power_model

    def power(self, benchmark: str, config_label: str) -> PowerBreakdown:
        """Per-core power of one benchmark under one configuration."""
        stack = CONFIG_STACKS[config_label]
        return self.power_model().evaluate(self.run(benchmark, config_label), stack)

    def chip_power_watts(self, benchmark: str, config_label: str) -> float:
        """Total chip power with the benchmark replicated on every core."""
        return CORE_COUNT * self.power(benchmark, config_label).total_watts

    # ------------------------------------------------------------------ #

    def floorplan(self, stack: StackKind) -> Floorplan:
        plan = self._floorplans.get(stack)
        if plan is None:
            plan = (
                planar_floorplan(CORE_COUNT)
                if stack is StackKind.PLANAR_2D
                else stacked_floorplan(CORE_COUNT)
            )
            self._floorplans[stack] = plan
        return plan

    def solver(self, stack: StackKind) -> ThermalSolver:
        solver = self._solvers.get(stack)
        if solver is None:
            grid = self.settings.thermal_grid
            thermal_stack = planar_stack() if stack is StackKind.PLANAR_2D else stacked_3d_stack()
            solver = ThermalSolver(thermal_stack, self.floorplan(stack), grid, grid)
            self._solvers[stack] = solver
        return solver

    def thermal(self, benchmark: str, config_label: str) -> ThermalResult:
        """Thermal map with the benchmark replicated on every core."""
        pair = (benchmark, config_label)
        return self.thermal_many([pair])[pair]

    def thermal_many(
        self, pairs: Sequence[Tuple[str, str]]
    ) -> Dict[Tuple[str, str], ThermalResult]:
        """Thermal maps for many (benchmark, config label) pairs.

        Pending simulations are prefetched in parallel, then every map
        is solved in one engine dispatch, batched per stack against its
        already-LU-factorized solver.
        """
        pairs = list(pairs)
        self.prefetch(pairs + [(REFERENCE_BENCHMARK, "Base")])
        pending = [pair for pair in dict.fromkeys(pairs)
                   if pair not in self._thermals]
        solved = self.solve_thermal_groups([
            (self.solver(CONFIG_STACKS[label]), [self._power_grids(
                CONFIG_STACKS[label], [self.power(benchmark, label)] * CORE_COUNT,
            )])
            for benchmark, label in pending
        ])
        self._thermals.update(zip(pending, (maps[0] for maps in solved)))
        return {pair: self._thermals[pair] for pair in pairs}

    def thermal_for_breakdowns(
        self,
        breakdowns: List[PowerBreakdown],
        stack: StackKind,
        power_scale: float = 1.0,
    ) -> ThermalResult:
        """Thermal map for explicit per-core breakdowns (scaled if asked)."""
        return self.thermal_batch([(breakdowns, power_scale)], stack)[0]

    def thermal_batch(
        self,
        requests: Sequence[Tuple[List[PowerBreakdown], float]],
        stack: StackKind,
    ) -> List[ThermalResult]:
        """Thermal maps for many (breakdowns, power scale) requests.

        All right-hand sides go through one batched backsubstitution
        against the stack's LU-factorized conductance matrix; solved
        maps are persisted in the on-disk cache.
        """
        return self.thermal_grouped({stack: list(requests)})[stack]

    def thermal_grouped(
        self,
        requests_by_stack: Dict[StackKind, Sequence[Tuple[List[PowerBreakdown], float]]],
    ) -> Dict[StackKind, List[ThermalResult]]:
        """Thermal maps for (breakdowns, power scale) requests on several
        stacks at once — one thermal-engine dispatch for the whole grid.

        Submitting every stack's requests together lets the solve engine
        see all distinct geometries up front and fan their factorizations
        out across the worker pool (:meth:`solve_thermal_groups`) instead
        of blocking on one stack at a time.
        """
        stacks = list(requests_by_stack)
        solved = self.solve_thermal_groups([
            (self.solver(stack), [
                self._power_grids(stack, breakdowns, power_scale)
                for breakdowns, power_scale in requests_by_stack[stack]
            ])
            for stack in stacks
        ])
        return dict(zip(stacks, solved))

    def _power_grids(self, stack: StackKind, breakdowns: List[PowerBreakdown],
                     power_scale: float = 1.0) -> List:
        """Per-die chip power grids of per-core breakdowns on ``stack``."""
        plan = self.floorplan(stack)
        ny, nx = self.solver(stack).chip_grid_shape()
        watts = build_power_map(plan, breakdowns)
        if power_scale != 1.0:
            watts = {key: value * power_scale for key, value in watts.items()}
        return rasterize(plan, watts, nx, ny)

    def solve_thermal(
        self,
        solver: ThermalSolver,
        batches: Sequence[Sequence],
    ) -> List[ThermalResult]:
        """Disk-cached batched thermal solve against an explicit solver.

        Each batch entry (per-die chip power grids) is keyed by the
        solver's geometry fingerprint plus a content hash of the grids;
        hits skip the solve entirely, and the misses share one batched
        backsubstitution — so warm report reruns do no thermal work.
        """
        return self.solve_thermal_groups([(solver, batches)])[0]

    def solve_thermal_groups(
        self,
        groups: Sequence[Tuple[ThermalSolver, Sequence[Sequence]]],
    ) -> List[List[ThermalResult]]:
        """Steady thermal solves for many geometry groups at once.

        Each group is one solver (geometry) with its power-grid batches.
        The engine keys every batch by :func:`thermal_key`, serves hits
        from disk, and solves the misses per factorization
        (:meth:`ThermalSolver.matrix_key`): inline, or — with several
        geometries pending — one pool task per geometry that assembles,
        factorizes, and backsubstitutes every right-hand side and ships
        the temperature arrays back (SuperLU handles never cross the
        process boundary).  Results are byte-identical either way.
        """
        groups = [(solver, list(batches)) for solver, batches in groups]
        solved = iter(self._resolve(_STEADY, [
            (solver, grids) for solver, batches in groups for grids in batches
        ]))
        return [[next(solved) for _ in batches] for _, batches in groups]

    # ------------------------------------------------------------------ #

    def transient_many(
        self, requests: Sequence["TransientRequest"]
    ) -> List[Tuple[TransientResult, Dict[str, float]]]:
        """The transient co-simulation engine: many interval runs at once.

        Requests are grouped by step-matrix key — ``(geometry, heat
        capacities, dt)`` plus the shared integration window — and every
        group steps its runs in lock-step through one factorization with
        an ``(n, K)`` right-hand-side matrix
        (:meth:`~repro.thermal.transient.TransientThermalSolver.run_many`),
        inline or one pool task per group.  Runs whose schedule has a
        :meth:`~repro.thermal.transient.PowerSchedule.cache_key` are
        content-addressed (:func:`~repro.experiments.cache.transient_key`)
        and served from disk on warm reruns; plain ``power_fn(t)``
        callables are computed every time and never leave the process.
        Returns, per request, the
        :class:`~repro.thermal.transient.TransientResult` and the
        schedule's accumulated stats (throttle duty counters and the
        like — pool workers mutate pickled schedule copies, so the stats
        travel back explicitly).
        """
        requests = list(requests)
        self.stats.transient_runs += len(requests)
        return self._resolve(_TRANSIENT, requests)

    def leakage_feedback(
        self,
        requests: Sequence[Tuple[ThermalSolver, Sequence, Sequence, float]],
    ) -> List[Tuple[float, float, float]]:
        """Leakage-temperature fixed points, one per ``(solver, dynamic
        grids, reference leakage grids, reference K)`` request.

        Returns ``(fixed-leakage peak K, coupled peak K, leakage
        amplification)`` per request (see
        :func:`~repro.thermal.feedback.solve_with_leakage_feedback`);
        outcomes are content-addressed
        (:func:`~repro.experiments.cache.leakage_key`), so warm reruns
        neither solve nor factorize.
        """
        return self._resolve(_LEAKAGE, list(requests))


@dataclass
class TransientRequest:
    """One transient run for :meth:`ExperimentContext.transient_many`.

    Requests sharing ``(stack geometry, dt_s, duration_s, initial_k)``
    step in lock-step through one factorization; ``schedule`` supplies
    the per-step power grids (a
    :class:`~repro.thermal.transient.PowerSchedule` or a plain
    ``power_fn(t)`` callable — the latter forces inline dispatch and is
    never cached).
    """

    stack: StackKind
    schedule: object
    dt_s: float
    duration_s: float
    initial_k: Optional[float] = None
