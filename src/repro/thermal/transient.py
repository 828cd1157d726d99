"""Transient thermal solver (implicit Euler over the grid model).

HotSpot offers both steady-state and transient analysis; the paper's
results are steady state, but transient behaviour matters for herding's
headroom claims (how fast a hotspot forms when activity migrates).  The
transient solver reuses the steady solver's conductance matrix ``G`` and
adds per-cell heat capacities ``C``:

    C dT/dt = -G T + P(t)  ->  (C/dt + G) T_{n+1} = (C/dt) T_n + P_{n+1}

Implicit Euler is unconditionally stable, so time steps can span
milliseconds.  The step matrix ``(C/dt + G)`` is LU-factorized once per
(geometry, heat capacities, dt) and shared process-wide, exactly like
the steady solver's factorization cache.

Two integration paths share that factorization:

* :meth:`TransientThermalSolver.run_many` steps K runs in lock-step with
  an ``(n, <= K)`` right-hand-side matrix — SuperLU back-substitutes all
  columns in one call, so the per-step sparse-solve overhead is paid
  once per step instead of once per run per step, and runs that have
  received identical power so far share one column.  RHS assembly is
  fully vectorized: the RHS buffer is preallocated and each die's power
  adds straight into its layer's rows of the unknown vector.
* :meth:`TransientThermalSolver.run_reference` is the scalar per-run
  loop built on the steady solver's RHS; the batched path is pinned
  byte-identical to it in tests on the reference workloads.  (On
  very large grids SuperLU's blocked nrhs>1 kernel may reorder the
  back-substitution accumulation relative to per-column solves,
  perturbing interior temperatures at the ~1e-13 K level; the die-peak
  series has stayed exact in every observed case.)
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.sparse import coo_matrix

from repro.thermal.solver import FactorizationStats, ThermalSolver, _factorize

#: (steady matrix key, per-layer heat capacities, dt) -> step backsolve.
_STEP_CACHE: "OrderedDict[Tuple, Callable]" = OrderedDict()
_STEP_CACHE_CAP = 8

#: Counters for the step-matrix factorization cache.
STEP_FACTORIZATION_STATS = FactorizationStats()


def clear_step_cache() -> None:
    """Drop all cached step factorizations and reset the counters."""
    _STEP_CACHE.clear()
    STEP_FACTORIZATION_STATS.factorizations = 0
    STEP_FACTORIZATION_STATS.cache_hits = 0


def step_matrix_key(steady: ThermalSolver, dt_s: float) -> Tuple:
    """The factorization-cache key for a (geometry, capacities, dt) combo.

    Pure — does not build or factorize anything, so dispatchers can group
    runs by step matrix before any solver exists.
    """
    return (
        steady.matrix_key(),
        tuple(
            layer.material.heat_capacity_j_m3k
            for layer in steady.stack.layers
        ),
        float(dt_s),
    )


class PowerSchedule:
    """Power-versus-time input for a transient run.

    Subclasses implement :meth:`power_grids`; instances must be picklable
    so a whole group of schedules can ship to a pool worker.  The
    ``prev_peak_k`` argument enables temperature-reactive schedules
    (thermal throttling): it is the peak die temperature after the
    previous accepted step (the initial temperature before the first).
    """

    def power_grids(self, t_s: float, prev_peak_k: float) -> Sequence[np.ndarray]:
        raise NotImplementedError

    def stats(self) -> Dict[str, float]:
        """Schedule-side counters accumulated during a run (may be empty)."""
        return {}

    def cache_key(self) -> Optional[dict]:
        """A JSON-able description that fully determines the power this
        schedule supplies (class, parameters, content key of its input),
        or ``None`` — the default — when runs driven by it must not be
        persisted."""
        return None


class ConstantSchedule(PowerSchedule):
    """The same per-die power grids at every step (a power step input)."""

    def __init__(self, grids: Sequence[np.ndarray]):
        self.grids = [np.asarray(g, dtype=float) for g in grids]

    def power_grids(self, t_s: float, prev_peak_k: float) -> Sequence[np.ndarray]:
        return self.grids

    def cache_key(self) -> dict:
        digest = hashlib.sha256()
        for grid in self.grids:
            digest.update(repr(grid.shape).encode("utf-8"))
            digest.update(np.ascontiguousarray(grid).tobytes())
        return {"schedule": "constant", "grids": digest.hexdigest()}


class _CallableSchedule(PowerSchedule):
    """Adapts a plain ``power_fn(t)`` callable to the schedule protocol."""

    def __init__(self, fn: Callable[[float], Sequence[np.ndarray]]):
        self._fn = fn

    def power_grids(self, t_s: float, prev_peak_k: float) -> Sequence[np.ndarray]:
        return self._fn(t_s)


ScheduleLike = Union[PowerSchedule, Callable[[float], Sequence[np.ndarray]]]


@dataclass
class TransientResult:
    """Temperature evolution over the integration window."""

    times_s: List[float]
    #: peak die temperature at each time step
    peak_k: List[float]
    #: final full per-layer temperature grids
    final_layer_temps: List[np.ndarray]

    @property
    def final_peak(self) -> float:
        return self.peak_k[-1] if self.peak_k else 0.0

    def time_to_reach(self, threshold_k: float) -> Optional[float]:
        """First time the peak crosses ``threshold_k`` (None if never)."""
        peaks = np.asarray(self.peak_k)
        hits = np.nonzero(peaks >= threshold_k)[0]
        if hits.size == 0:
            return None
        return self.times_s[int(hits[0])]


class TransientThermalSolver:
    """Implicit-Euler transient solver sharing a ThermalSolver's geometry."""

    def __init__(self, steady: ThermalSolver, dt_s: float = 1e-3):
        if dt_s <= 0:
            raise ValueError(f"dt must be positive, got {dt_s}")
        self.steady = steady
        self.dt_s = dt_s
        if steady._solve_fn is None:
            steady._build()
        self._capacity = self._cell_capacities()
        self._cap_over_dt = self._capacity / dt_s
        key = step_matrix_key(steady, dt_s)
        step_solve = _STEP_CACHE.get(key)
        if step_solve is None:
            n = len(self._capacity)
            capacity_matrix = coo_matrix(
                (self._cap_over_dt, (range(n), range(n))), shape=(n, n)
            ).tocsc()
            step_solve = _factorize(
                (capacity_matrix + steady.conductance_matrix).tocsc()
            )
            STEP_FACTORIZATION_STATS.factorizations += 1
            _STEP_CACHE[key] = step_solve
            while len(_STEP_CACHE) > _STEP_CACHE_CAP:
                _STEP_CACHE.popitem(last=False)
        else:
            STEP_FACTORIZATION_STATS.cache_hits += 1
            _STEP_CACHE.move_to_end(key)
        self._step_solve = step_solve
        self._build_index_maps()

    def _build_index_maps(self) -> None:
        """Precompute the power scatter and die-peak gather rows.

        ``_power_rows`` holds, per power die in ``_die_order``, the
        unknowns of its layer's chip window, so a raveled chip grid adds
        straight into the RHS; ``_peak_rows`` holds them once per die
        layer for the per-step peak reduction.
        """
        steady = self.steady
        self._die_order = list(steady._die_layer_map.items())
        self._power_rows = [steady.layer_cells(layer) for _die, layer in self._die_order]
        self._peak_rows = [
            steady.layer_cells(layer)
            for layer in sorted(set(steady._die_layer_map.values()))
        ]

    def _cell_capacities(self) -> np.ndarray:
        """Heat capacity (J/K) of every unknown, in unknown order."""
        steady = self.steady
        dx = steady.spreader_w_mm * 1e-3 / steady.nx
        dy = steady.spreader_h_mm * 1e-3 / steady.ny
        caps = []
        for layer, index in zip(steady.stack.layers, steady._layer_index):
            volume = dx * dy * layer.thickness_m
            caps.append(np.full(index.size, layer.material.heat_capacity_j_m3k * volume))
        return np.concatenate(caps)

    # ------------------------------------------------------------------ #

    def _die_grids(self, grids: Sequence[np.ndarray]) -> List[np.ndarray]:
        """One run's raveled per-die chip grids in ``_die_order``."""
        return [self.steady._chip_power(grids[die]) for die, _ in self._die_order]

    def run(
        self,
        power_fn: ScheduleLike,
        duration_s: float,
        initial_k: Optional[float] = None,
    ) -> TransientResult:
        """Integrate one run from a uniform initial temperature.

        ``power_fn(t)`` returns the per-die chip power grids (at the
        steady solver's :meth:`~ThermalSolver.chip_grid_shape`) at time t.
        A :class:`PowerSchedule` is also accepted.  Delegates to the
        batched path with K=1; :meth:`run_reference` is the scalar
        loop.
        """
        return self.run_many([power_fn], duration_s, initial_k=initial_k)[0]

    def run_many(
        self,
        schedules: Sequence[ScheduleLike],
        duration_s: float,
        initial_k: Optional[float] = None,
    ) -> List[TransientResult]:
        """Step K runs in lock-step through the shared factorization.

        Runs that have so far received identical power share one state
        column: they all start from the same uniform field, and each
        step splits a column only where its runs' power differs (a DTM
        sweep's points coincide until their inputs or governors first
        diverge).  Each step fills a preallocated RHS matrix with one
        column per distinct (state, power) pair — the ``(C/dt) * T``
        history term, plus the convective ambient term on the spreader
        rows and the power on each die's rows, rounding exactly as the
        scalar loop does — and back-substitutes them in a single SuperLU
        call.  Results match :meth:`run_reference` to within the
        backsolve kernel's column-order rounding (byte-identical on the
        reference workloads, pinned in tests).
        """
        if not schedules:
            return []
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        scheds = [
            s if isinstance(s, PowerSchedule) else _CallableSchedule(s)
            for s in schedules
        ]
        steady = self.steady
        n = steady.unknowns
        start = initial_k if initial_k is not None else steady.stack.ambient_k
        kruns = len(scheds)
        temps = np.full((n, 1), start, dtype=float)
        #: per run, its state column in ``temps``
        column = [0] * kruns
        prev_peak = [float(start)] * kruns

        steps = max(1, int(round(duration_s / self.dt_s)))
        times = [step * self.dt_s for step in range(1, steps + 1)]
        peaks = np.empty((steps, kruns))
        spreader = steady.ny * steady.nx
        ambient = steady._conv_per_cell * steady.stack.ambient_k
        cap_over_dt = self._cap_over_dt[:, None]
        rhs_buffer = np.empty((n, kruns), order="F")
        power = np.empty((kruns, len(self._die_order), steady._chip_nx * steady._chip_ny))
        for step, t in enumerate(times):
            np.concatenate(
                [grid for k, sched in enumerate(scheds)
                 for grid in self._die_grids(sched.power_grids(t, prev_peak[k]))],
                axis=None, out=power.reshape(-1),
            )
            # One new column per distinct (state column, power) pair: its
            # previous state column and a run that supplies its power.
            distinct: Dict[Tuple[int, bytes], int] = {}
            states: List[int] = []
            sources: List[int] = []
            for k in range(kruns):
                key = (column[k], power[k].tobytes())
                if key not in distinct:
                    distinct[key] = len(sources)
                    states.append(column[k])
                    sources.append(k)
                column[k] = distinct[key]
            rhs = rhs_buffer[:, :len(sources)]
            # Each cell gets the (C/dt) * T history term plus at most one
            # of the ambient term (spreader) and power (die layers, never
            # the spreader): one rounding, the same as _rhs_for + history.
            np.multiply(cap_over_dt, temps[:, states], out=rhs)
            rhs[:spreader] += ambient
            for d, rows in enumerate(self._power_rows):
                rhs[rows] += power[sources, d].T
            temps = np.asarray(self._step_solve(rhs))
            if temps.ndim == 1:
                temps = temps[:, None]
            column_peaks = np.maximum.reduce(
                [temps[rows].max(axis=0) for rows in self._peak_rows])
            peaks[step] = column_peaks[column]
            prev_peak = peaks[step].tolist()

        return [
            TransientResult(
                times_s=list(times),
                peak_k=[float(p) for p in peaks[:, k]],
                final_layer_temps=steady.expand(temps[:, column[k]]),
            )
            for k in range(kruns)
        ]

    def run_reference(
        self,
        power_fn: ScheduleLike,
        duration_s: float,
        initial_k: Optional[float] = None,
    ) -> TransientResult:
        """Ground-truth scalar loop (per-step RHS, per-run solve).

        The batched path is pinned byte-identical against it.
        """
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        sched = (
            power_fn
            if isinstance(power_fn, PowerSchedule)
            else _CallableSchedule(power_fn)
        )
        steady = self.steady
        start = initial_k if initial_k is not None else steady.stack.ambient_k
        temps = np.full(steady.unknowns, start)
        prev_peak = float(start)
        die_layers = steady._die_layer_map

        times: List[float] = []
        peaks: List[float] = []
        steps = max(1, int(round(duration_s / self.dt_s)))
        for step in range(1, steps + 1):
            t = step * self.dt_s
            rhs = steady._rhs_for(sched.power_grids(t, prev_peak))
            rhs += self._cap_over_dt * temps
            temps = self._step_solve(rhs)
            times.append(t)
            prev_peak = float(max(
                temps[steady.layer_cells(l)].max() for l in die_layers.values()
            ))
            peaks.append(prev_peak)

        return TransientResult(times_s=times, peak_k=peaks,
                               final_layer_temps=steady.expand(temps))
