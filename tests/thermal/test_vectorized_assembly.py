"""Vectorized thermal assembly vs a per-cell loop oracle.

The solver assembles its conductance matrix with whole-layer numpy
arrays over the chip-window mesh: the spreader spans the full footprint,
every other layer only the chip window.  ``_loop_assemble`` below walks
the same mesh cell by cell and couples every pair of neighbouring model
cells.  These tests pin the vectorized path to it (identical sparse
matrices, temperatures within 1e-9 K), check the matrix's structural
invariants, conserved rasterized power, and the process-wide
factorization cache actually being hit.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import spsolve

from repro.floorplan.planar import planar_floorplan
from repro.floorplan.stacked import stacked_floorplan
from repro.thermal import power_map as power_map_module
from repro.thermal.power_map import build_power_map, clear_mask_cache, rasterize
from repro.thermal.solver import (
    FACTORIZATION_STATS,
    ThermalSolver,
    clear_factorization_cache,
)
from repro.thermal.stack import planar_stack, stacked_3d_stack


def _solvers():
    return [
        ThermalSolver(planar_stack(0.25), planar_floorplan(), nx=24, ny=24),
        ThermalSolver(stacked_3d_stack(0.25), stacked_floorplan(), nx=24, ny=24),
        # Non-square grid exercises the x/y index arithmetic separately.
        ThermalSolver(stacked_3d_stack(0.30), stacked_floorplan(), nx=20, ny=28),
    ]


def _loop_assemble(solver: ThermalSolver):
    """Per-cell loop assembler over the chip-window mesh.

    A cell ``(layer, j, i)`` is addressed in spreader-grid coordinates;
    it exists on the spreader everywhere and on every other layer only
    inside the chip window.  Unknowns are numbered in visiting order:
    layer by layer, row-major.
    """
    nx, ny = solver.nx, solver.ny
    cny, cnx = solver.chip_grid_shape()
    y0, x0 = solver._chip_y0, solver._chip_x0
    layers = solver.stack.layers
    dx = solver.spreader_w_mm * 1e-3 / nx
    dy = solver.spreader_h_mm * 1e-3 / ny
    cell_area = dx * dy

    index: Dict[Tuple[int, int, int], int] = {}
    for l in range(len(layers)):
        for j in range(ny):
            for i in range(nx):
                if l == 0 or (y0 <= j < y0 + cny and x0 <= i < x0 + cnx):
                    index[(l, j, i)] = len(index)
    n = len(index)
    rows, cols, vals = [], [], []
    diag = np.zeros(n)

    def couple(a: int, b: int, conductance: float) -> None:
        rows.extend((a, b))
        cols.extend((b, a))
        vals.extend((-conductance, -conductance))
        diag[a] += conductance
        diag[b] += conductance

    for l, layer in enumerate(layers):
        k, t = layer.material.conductivity_w_mk, layer.thickness_m
        cells = [cell for cell in index if cell[0] == l]
        for cell in cells:
            _, j, i = cell
            if (l, j, i + 1) in index:
                couple(index[cell], index[(l, j, i + 1)], k * (t * dy) / dx)
            if (l, j + 1, i) in index:
                couple(index[cell], index[(l, j + 1, i)], k * (t * dx) / dy)
        if l + 1 < len(layers):
            below = layers[l + 1]
            r_vertical = (
                t / (2.0 * k)
                + below.thickness_m / (2.0 * below.material.conductivity_w_mk)
            ) / cell_area
            for cell in cells:
                _, j, i = cell
                if (l + 1, j, i) in index:
                    couple(index[cell], index[(l + 1, j, i)], 1.0 / r_vertical)

    # The sink's total convection spread uniformly over the spreader top.
    conv_per_cell = (1.0 / solver.stack.convection_k_per_w) * (
        cell_area / (solver.spreader_w_mm * solver.spreader_h_mm * 1e-6))
    diag[: ny * nx] += conv_per_cell

    rows.extend(range(n))
    cols.extend(range(n))
    vals.extend(diag)
    return coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc(), conv_per_cell


class TestAssemblyEquivalence:
    @pytest.mark.parametrize("index", range(3))
    def test_matrices_identical(self, index):
        solver = _solvers()[index]
        fast, fast_conv = solver._assemble()
        slow, slow_conv = _loop_assemble(solver)
        assert fast.shape == slow.shape == (solver.unknowns, solver.unknowns)
        assert fast_conv == slow_conv
        diff = (fast - slow).tocoo()
        max_abs = np.abs(diff.data).max() if diff.nnz else 0.0
        assert max_abs == 0.0, f"assembly differs by {max_abs}"
        assert fast.nnz == slow.nnz

    @pytest.mark.parametrize("index", range(3))
    def test_temperatures_match_reference(self, index):
        solver = _solvers()[index]
        ny, nx = solver.chip_grid_shape()
        rng = np.random.default_rng(17 + index)
        grids = [rng.random((ny, nx)) * 2.0 for _ in range(solver.floorplan.dies)]

        result = solver.solve(grids)

        oracle, _ = _loop_assemble(solver)
        temps = spsolve(oracle, solver._rhs_for(grids))
        for got, want in zip(result.layer_temps, solver.expand(temps)):
            assert np.abs(got - want).max() < 1e-9

    def test_unknowns_cover_spreader_plus_windows(self):
        for solver in _solvers():
            ny, nx = solver.chip_grid_shape()
            layers = len(solver.stack.layers)
            assert solver.unknowns == solver.ny * solver.nx + (layers - 1) * ny * nx
            assert solver.unknowns < layers * solver.ny * solver.nx


class TestMatrixInvariants:
    @pytest.mark.parametrize("index", range(3))
    def test_symmetric_m_matrix_rows(self, index):
        solver = _solvers()[index]
        matrix, conv_per_cell = solver._assemble()
        dense = matrix.toarray()
        assert np.array_equal(dense, dense.T)
        off = dense - np.diag(np.diag(dense))
        assert (off <= 0.0).all()

        row_sums = dense.sum(axis=1)
        scale = np.abs(np.diag(dense))
        spreader = solver.ny * solver.nx
        expected = np.zeros(solver.unknowns)
        expected[:spreader] = conv_per_cell
        assert np.all(np.abs(row_sums - expected) <= 1e-12 * scale)


class TestRasterizePowerConservation:
    def setup_method(self):
        clear_mask_cache()

    def test_total_power_conserved(self):
        plan = stacked_floorplan()
        watts = build_power_map(plan, [])
        # Synthetic non-uniform powers, including fractional-overlap blocks.
        for index, key in enumerate(sorted(watts)):
            watts[key] = 0.37 * (index + 1)
        grids = rasterize(plan, watts, nx=31, ny=29)
        per_die_expected = [0.0] * plan.dies
        for block in plan.blocks:
            per_die_expected[block.die] += watts[(block.name, block.die)]
        for die, grid in enumerate(grids):
            assert float(grid.sum()) == pytest.approx(per_die_expected[die], rel=1e-12)
            assert (grid >= 0.0).all()

    def test_mask_cache_reused_across_calls(self):
        plan = planar_floorplan()
        watts = build_power_map(plan, [])
        rasterize(plan, watts, nx=16, ny=16)
        assert len(power_map_module._MASK_CACHE) == 1
        first = next(iter(power_map_module._MASK_CACHE.values()))
        rasterize(plan, watts, nx=16, ny=16)
        assert next(iter(power_map_module._MASK_CACHE.values())) is first
        rasterize(plan, watts, nx=18, ny=16)
        assert len(power_map_module._MASK_CACHE) == 2


class TestFactorizationCache:
    def test_same_geometry_hits_cache(self):
        clear_factorization_cache()
        before_factor = FACTORIZATION_STATS.factorizations
        before_hits = FACTORIZATION_STATS.cache_hits

        first = ThermalSolver(stacked_3d_stack(0.25), stacked_floorplan(), nx=16, ny=16)
        first._build()
        second = ThermalSolver(stacked_3d_stack(0.25), stacked_floorplan(), nx=16, ny=16)
        second._build()

        assert FACTORIZATION_STATS.factorizations == before_factor + 1
        assert FACTORIZATION_STATS.cache_hits == before_hits + 1
        assert first.matrix_key() == second.matrix_key()

    def test_distinct_geometry_misses_cache(self):
        clear_factorization_cache()
        before_factor = FACTORIZATION_STATS.factorizations

        ThermalSolver(stacked_3d_stack(0.25), stacked_floorplan(), nx=16, ny=16)._build()
        ThermalSolver(stacked_3d_stack(0.50), stacked_floorplan(), nx=16, ny=16)._build()

        assert FACTORIZATION_STATS.factorizations == before_factor + 2

    def test_result_key_includes_ambient_but_matrix_key_does_not(self):
        import dataclasses

        base = stacked_3d_stack(0.25)
        warmer = dataclasses.replace(base, ambient_k=base.ambient_k + 10.0)
        plan = stacked_floorplan()
        a = ThermalSolver(base, plan, nx=16, ny=16)
        b = ThermalSolver(warmer, plan, nx=16, ny=16)
        assert a.matrix_key() == b.matrix_key()
        assert a.result_key() != b.result_key()
