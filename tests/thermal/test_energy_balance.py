"""Energy balance of the steady and transient thermal solvers.

All heat leaves through the convective top of the spreader, so in steady
state the convective flux out, the sum over spreader cells of
``conv_per_cell * (T - ambient)``, must equal the injected watts.  Under
implicit Euler every step must balance the injected energy against the
convective loss over the step plus the change of stored heat
``sum(C * (T_{n+1} - T_n))``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.floorplan.planar import planar_floorplan
from repro.floorplan.stacked import stacked_floorplan
from repro.thermal.solver import ThermalSolver
from repro.thermal.stack import planar_stack, stacked_3d_stack
from repro.thermal.transient import TransientThermalSolver

GRID = 32


@pytest.fixture(scope="module", params=["planar", "3d"])
def solver(request):
    if request.param == "planar":
        return ThermalSolver(planar_stack(), planar_floorplan(), nx=GRID, ny=GRID)
    return ThermalSolver(stacked_3d_stack(), stacked_floorplan(), nx=GRID, ny=GRID)


def _random_grids(solver, rng, watts):
    ny, nx = solver.chip_grid_shape()
    grids = [rng.random((ny, nx)) for _ in range(solver.floorplan.dies)]
    total = sum(float(g.sum()) for g in grids)
    return [g * (watts / total) for g in grids]


def _convective_flux(solver, spreader_temps):
    return float(
        (solver._conv_per_cell * (spreader_temps - solver.stack.ambient_k)).sum())


class TestSteadyEnergyBalance:
    @pytest.mark.parametrize("seed", range(4))
    def test_convective_flux_equals_injected_power(self, solver, seed):
        rng = np.random.default_rng(seed)
        watts = 20.0 + 80.0 * rng.random()
        grids = _random_grids(solver, rng, watts)
        injected = sum(float(g.sum()) for g in grids)
        result = solver.solve(grids)
        flux = _convective_flux(solver, result.layer_temps[0])
        assert flux == pytest.approx(injected, rel=1e-9, abs=0.0)


class TestTransientEnergyBalance:
    def test_every_step_balances(self, solver):
        """Injected energy = convective loss + change of stored heat."""
        dt = 2e-3
        transient = TransientThermalSolver(solver, dt_s=dt)
        rng = np.random.default_rng(7)
        spreader = solver.ny * solver.nx
        temps = np.full(solver.unknowns, solver.stack.ambient_k)
        for _step in range(25):
            grids = _random_grids(solver, rng, 10.0 + 90.0 * rng.random())
            injected = sum(float(g.sum()) for g in grids) * dt
            rhs = solver._rhs_for(grids) + transient._cap_over_dt * temps
            after = transient._step_solve(rhs)
            stored = float((transient._capacity * (after - temps)).sum())
            lost = _convective_flux(solver, after[:spreader]) * dt
            assert lost + stored == pytest.approx(injected, rel=1e-9, abs=0.0)
            temps = after

    def test_run_many_follows_the_same_steps(self, solver):
        """The batched integrator takes exactly the steps balanced above."""
        dt = 2e-3
        transient = TransientThermalSolver(solver, dt_s=dt)
        grids = _random_grids(solver, np.random.default_rng(3), 60.0)
        temps = np.full(solver.unknowns, solver.stack.ambient_k)
        for _step in range(5):
            temps = transient._step_solve(
                solver._rhs_for(grids) + transient._cap_over_dt * temps)
        result = transient.run_many([lambda t: grids], 5 * dt)[0]
        for got, want in zip(result.final_layer_temps, solver.expand(temps)):
            assert np.array_equal(got, want)
