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
  an ``(n, K)`` right-hand-side matrix — SuperLU back-substitutes all
  columns in one call, so the per-step sparse-solve overhead is paid
  once per step instead of once per run per step.  RHS assembly is fully
  vectorized: the per-die chip-window embed is a precomputed index
  scatter, not a per-step :meth:`~ThermalSolver._embed` loop.
* :meth:`TransientThermalSolver.run_reference` retains the original
  scalar per-run loop as the ground-truth reference; the batched path is
  pinned byte-identical to it in tests on the reference workloads.  (On
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
        """Precompute the embed scatter and die-peak gather index views.

        The scalar reference loop zero-pads each die's chip-resolution
        power grid into the full spreader grid every step.  The batched
        path instead scatters raveled chip grids straight into the flat
        RHS through ``_chip_cells`` — the flat indices of every chip-window
        cell, concatenated die by die in ``_die_layer_map`` order.
        ``_die_cells`` gathers every cell of every die layer for the
        per-step peak reduction.
        """
        steady = self.steady
        nx, ny = steady.nx, steady.ny
        cny, cnx = steady.chip_grid_shape()
        x0, y0 = steady._chip_x0, steady._chip_y0
        yy, xx = np.mgrid[0:cny, 0:cnx]
        window = ((yy + y0) * nx + (xx + x0)).ravel()
        self._die_order = list(steady._die_layer_map.items())
        self._chip_cells = np.concatenate(
            [layer * ny * nx + window for _die, layer in self._die_order]
        )
        self._die_cells = np.concatenate(
            [
                layer * ny * nx + np.arange(ny * nx)
                for layer in sorted(set(steady._die_layer_map.values()))
            ]
        )
        self._chip_shape = (cny, cnx)

    def _cell_capacities(self) -> np.ndarray:
        """Heat capacity (J/K) of every grid cell, layer by layer."""
        nx, ny = self.steady.nx, self.steady.ny
        dx = self.steady.spreader_w_mm * 1e-3 / nx
        dy = self.steady.spreader_h_mm * 1e-3 / ny
        caps = []
        for layer in self.steady.stack.layers:
            volume = dx * dy * layer.thickness_m
            caps.append(np.full(ny * nx, layer.material.heat_capacity_j_m3k * volume))
        return np.concatenate(caps)

    # ------------------------------------------------------------------ #

    def _stack_power(self, grids: Sequence[np.ndarray]) -> np.ndarray:
        """Ravel per-die chip grids in ``_chip_cells`` order (validated)."""
        parts = []
        for die, _layer in self._die_order:
            grid = np.asarray(grids[die])
            if grid.shape != self._chip_shape:
                raise ValueError(
                    f"power grid shape {grid.shape} != chip grid {self._chip_shape}"
                )
            parts.append(grid.ravel())
        return np.concatenate(parts)

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
        batched path with K=1; :meth:`run_reference` keeps the original
        scalar loop.
        """
        return self.run_many([power_fn], duration_s, initial_k=initial_k)[0]

    def run_many(
        self,
        schedules: Sequence[ScheduleLike],
        duration_s: float,
        initial_k: Optional[float] = None,
    ) -> List[TransientResult]:
        """Step K runs in lock-step through the shared factorization.

        Each step assembles one ``(n, K)`` RHS matrix — power scattered
        through the precomputed chip-cell indices, then the convective
        ambient term, then the ``(C/dt) * T`` history term, in
        exactly the scalar loop's addition order — and back-substitutes
        all K columns in a single SuperLU call.  RHS assembly is exactly
        the scalar loop's; results match :meth:`run_reference` to within
        the backsolve kernel's column-order rounding (byte-identical on
        the reference workloads, pinned in tests).
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
        nx, ny = steady.nx, steady.ny
        layers = steady.stack.layers
        n = len(layers) * ny * nx
        ambient = steady.stack.ambient_k
        start = initial_k if initial_k is not None else ambient
        kruns = len(scheds)
        temps = np.full((n, kruns), start, dtype=float)
        prev_peak = np.full(kruns, float(start))

        times: List[float] = []
        steps = max(1, int(round(duration_s / self.dt_s)))
        peaks = np.empty((steps, kruns))
        conv = steady._conv_per_cell
        chip_cells = self._chip_cells
        die_cells = self._die_cells
        for step in range(1, steps + 1):
            t = step * self.dt_s
            rhs = np.zeros((n, kruns))
            for k, sched in enumerate(scheds):
                grids = sched.power_grids(t, float(prev_peak[k]))
                rhs[chip_cells, k] = self._stack_power(grids)
            rhs[: ny * nx, :] += conv * ambient
            rhs += self._cap_over_dt[:, None] * temps
            temps = np.asarray(self._step_solve(rhs))
            if temps.ndim == 1:
                temps = temps[:, None]
            times.append(t)
            prev_peak = np.maximum.reduce(temps[die_cells, :], axis=0)
            peaks[step - 1] = prev_peak

        results = []
        for k in range(kruns):
            final = [
                temps[l * ny * nx:(l + 1) * ny * nx, k].reshape(ny, nx)
                for l in range(len(layers))
            ]
            results.append(
                TransientResult(
                    times_s=list(times),
                    peak_k=[float(p) for p in peaks[:, k]],
                    final_layer_temps=final,
                )
            )
        return results

    def run_reference(
        self,
        power_fn: ScheduleLike,
        duration_s: float,
        initial_k: Optional[float] = None,
    ) -> TransientResult:
        """Ground-truth scalar loop (per-step embed, per-run solve).

        Kept verbatim from the original implementation so the batched
        path can be pinned byte-identical against it.
        """
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        sched = (
            power_fn
            if isinstance(power_fn, PowerSchedule)
            else _CallableSchedule(power_fn)
        )
        steady = self.steady
        nx, ny = steady.nx, steady.ny
        layers = steady.stack.layers
        n = len(layers) * ny * nx
        ambient = steady.stack.ambient_k
        temps = np.full(n, initial_k if initial_k is not None else ambient)
        prev_peak = float(initial_k if initial_k is not None else ambient)

        die_layers = steady._die_layer_map

        times: List[float] = []
        peaks: List[float] = []
        steps = max(1, int(round(duration_s / self.dt_s)))
        conv = steady._conv_per_cell
        for step in range(1, steps + 1):
            t = step * self.dt_s
            grids = sched.power_grids(t, prev_peak)
            rhs = np.zeros(n)
            for die, layer_index in die_layers.items():
                full = steady._embed(np.asarray(grids[die]))
                rhs[layer_index * ny * nx:(layer_index + 1) * ny * nx] += full.ravel()
            rhs[: ny * nx] += conv * ambient
            rhs += self._cap_over_dt * temps
            temps = self._step_solve(rhs)
            times.append(t)
            die_peak = max(
                temps[l * ny * nx:(l + 1) * ny * nx].max()
                for l in die_layers.values()
            )
            prev_peak = float(die_peak)
            peaks.append(prev_peak)

        final = [
            temps[l * ny * nx:(l + 1) * ny * nx].reshape(ny, nx)
            for l in range(len(layers))
        ]
        return TransientResult(times_s=times, peak_k=peaks, final_layer_temps=final)
