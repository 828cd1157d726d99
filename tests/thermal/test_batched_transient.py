"""Batched multi-RHS transient stepping vs the scalar reference loop.

The batched path (`run_many`) must be *byte-identical* to the retained
scalar reference (`run_reference`): identical floating-point addition
order in the RHS assembly and SuperLU's column-independent
back-substitution make this exact, not approximate.
"""

import numpy as np
import pytest

from repro.floorplan import planar_floorplan, stacked_floorplan
from repro.thermal import transient as tr
from repro.thermal.solver import ThermalSolver, clear_factorization_cache
from repro.thermal.stack import planar_stack, stacked_3d_stack
from repro.thermal.transient import (
    STEP_FACTORIZATION_STATS,
    PowerSchedule,
    TransientThermalSolver,
    clear_step_cache,
    step_matrix_key,
)

GRID = 20
DTS = (2e-3, 5e-3)
DURATION = 0.05


@pytest.fixture(scope="module")
def solvers():
    return {
        "planar": ThermalSolver(planar_stack(), planar_floorplan(),
                                nx=GRID, ny=GRID),
        "3d": ThermalSolver(stacked_3d_stack(), stacked_floorplan(),
                            nx=GRID, ny=GRID),
    }


class Reactive(PowerSchedule):
    """Feedback schedule: halves power once the die peak crosses a bar."""

    def __init__(self, grids, ceiling_k):
        self.grids = grids
        self.ceiling_k = ceiling_k

    def power_grids(self, t_s, prev_peak_k):
        if prev_peak_k >= self.ceiling_k:
            return [g * 0.5 for g in self.grids]
        return self.grids


def _schedules(solver):
    ny, nx = solver.chip_grid_shape()
    layers = len(solver._die_layer_map)
    base = [np.full((ny, nx), 3.0 + i) for i in range(layers)]
    ambient = solver.stack.ambient_k

    def wobble(t):
        return [g * (1.0 + 0.2 * np.sin(40.0 * t)) for g in base]

    return [
        lambda t: base,
        wobble,
        Reactive(base, ambient + 1.0),
    ]


class TestBatchedEqualsScalar:
    @pytest.mark.parametrize("kind", ["planar", "3d"])
    @pytest.mark.parametrize("dt_s", DTS)
    def test_run_many_byte_identical(self, solvers, kind, dt_s):
        solver = solvers[kind]
        transient = TransientThermalSolver(solver, dt_s=dt_s)
        batched = transient.run_many(_schedules(solver), DURATION)
        reference = [
            transient.run_reference(schedule, DURATION)
            for schedule in _schedules(solver)
        ]
        for got, want in zip(batched, reference):
            assert got.times_s == want.times_s
            assert got.peak_k == want.peak_k  # exact, not approx
            for a, b in zip(got.final_layer_temps, want.final_layer_temps):
                assert np.array_equal(a, b)

    def test_single_run_uses_batched_path(self, solvers):
        solver = solvers["planar"]
        transient = TransientThermalSolver(solver, dt_s=5e-3)
        schedule, *_ = _schedules(solver)
        solo = transient.run(schedule, DURATION)
        want = transient.run_reference(schedule, DURATION)
        assert solo.peak_k == want.peak_k
        assert all(
            np.array_equal(a, b)
            for a, b in zip(solo.final_layer_temps, want.final_layer_temps)
        )

    def test_vectorized_time_to_reach(self, solvers):
        solver = solvers["planar"]
        transient = TransientThermalSolver(solver, dt_s=5e-3)
        result = transient.run(_schedules(solver)[0], DURATION)
        threshold = (result.peak_k[0] + result.peak_k[-1]) / 2
        want = None
        for t, peak in zip(result.times_s, result.peak_k):
            if peak >= threshold:
                want = t
                break
        assert result.time_to_reach(threshold) == want
        assert result.time_to_reach(1e9) is None

    def test_identical_power_shares_one_column(self, solvers):
        solver = solvers["3d"]
        transient = TransientThermalSolver(solver, dt_s=5e-3)
        widths = []
        solve = transient._step_solve

        def counting(rhs):
            widths.append(rhs.shape[1])
            return solve(rhs)

        transient._step_solve = counting
        constant, wobble, reactive = _schedules(solver)
        base = constant(0.0)

        def burst(t):
            return [g * 2.0 for g in base] if t <= 0.01 else base

        runs = [constant, reactive, wobble, constant, burst]
        batched = transient.run_many(runs, DURATION)
        transient._step_solve = solve
        # The two constant runs never split; the reactive run follows
        # them until its governor first halves the power; the burst run
        # keeps its own column after its power matches theirs again.
        assert widths[0] == 3
        assert widths[-1] == 4
        assert batched[0].peak_k == batched[3].peak_k
        for got, schedule in zip(batched, runs):
            want = transient.run_reference(schedule, DURATION)
            assert got.peak_k == want.peak_k
            for a, b in zip(got.final_layer_temps, want.final_layer_temps):
                assert np.array_equal(a, b)


class TestStepCache:
    def test_one_factorization_per_key(self, solvers):
        clear_factorization_cache()
        solver = solvers["planar"]
        keys = set()
        for dt_s in DTS:
            for _ in range(3):
                TransientThermalSolver(solver, dt_s=dt_s)
            keys.add(step_matrix_key(solver, dt_s))
        assert STEP_FACTORIZATION_STATS.factorizations == len(keys)
        assert STEP_FACTORIZATION_STATS.cache_hits == 2 * len(keys)

    def test_cap_overflow_evicts_oldest(self, solvers):
        clear_step_cache()
        solver = solvers["planar"]
        dts = [1e-3 * (i + 1) for i in range(tr._STEP_CACHE_CAP + 2)]
        for dt_s in dts:
            TransientThermalSolver(solver, dt_s=dt_s)
        assert STEP_FACTORIZATION_STATS.factorizations == len(dts)
        assert len(tr._STEP_CACHE) == tr._STEP_CACHE_CAP
        # The newest key is still cached; the oldest was evicted and
        # must refactorize.
        TransientThermalSolver(solver, dt_s=dts[-1])
        assert STEP_FACTORIZATION_STATS.factorizations == len(dts)
        TransientThermalSolver(solver, dt_s=dts[0])
        assert STEP_FACTORIZATION_STATS.factorizations == len(dts) + 1

    def test_clear_factorization_cache_cascades(self, solvers):
        TransientThermalSolver(solvers["planar"], dt_s=3e-3)
        assert len(tr._STEP_CACHE) > 0
        clear_factorization_cache()
        assert len(tr._STEP_CACHE) == 0
        assert STEP_FACTORIZATION_STATS.factorizations == 0
        assert STEP_FACTORIZATION_STATS.cache_hits == 0
