"""Finite-volume steady-state 3D heat conduction solver.

The grid covers the *heat spreader* footprint (larger than the chip, as
in HotSpot); the TIM and die layers exist only over the centred chip
region — cells outside it are filled with a near-insulating material so
lateral spreading happens in the copper spreader, not in thin silicon.

Every layer is discretized into the same (ny, nx) grid.  Lateral
conduction uses harmonic-mean conductances between neighbouring cells;
vertical conduction couples vertically adjacent cells of neighbouring
layers through the series resistance of the two half-layers.  The top of
the spreader is coupled to ambient through the sink's convection
resistance; all other outer faces are adiabatic.

The system matrix depends only on geometry, so it is LU-factorized once
per *geometry* and shared process-wide: solvers with identical stacks,
floorplan footprints, and grid resolutions (DVFS sweeps, stacking-order
ablations, transient runs, repeated contexts) reuse one factorization
instead of paying SuperLU per instance.  Assembly itself is vectorized —
whole-layer conductance arrays emitted as concatenated COO triplets —
with the original cell-by-cell loop kept as ``_build_reference`` for the
equivalence test.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import coo_matrix, csc_matrix
from scipy.sparse.linalg import factorized, splu

from repro.floorplan.geometry import Floorplan
from repro.thermal.stack import ThermalStack

#: Bump when the discretization or boundary conditions change, or the
#: transient integration (:mod:`repro.thermal.transient`) does; part of
#: every persistent steady and transient thermal-result cache key.
THERMAL_MODEL_VERSION = 1

#: Conductivity of the filler outside the chip region (underfill/air mix).
_FILLER_K = 0.05
#: Default spreader side (mm); HotSpot's default spreader is 30 mm.
DEFAULT_SPREADER_MM = 24.0


@dataclass
class FactorizationStats:
    """Process-wide factorization-cache bookkeeping (observable in tests)."""

    factorizations: int = 0
    cache_hits: int = 0


#: Counters for the module-level factorization cache.
FACTORIZATION_STATS = FactorizationStats()


@dataclass
class _Factorization:
    """One cached conductance matrix and its LU backsubstitution."""

    matrix: csc_matrix
    solve: Callable
    conv_per_cell: float


#: Geometry-keyed LRU of factorized conductance matrices.
_FACTORIZATION_CACHE: "OrderedDict[Tuple, _Factorization]" = OrderedDict()
#: Distinct geometries kept factorized at once.
FACTORIZATION_CACHE_CAP = 16


def clear_factorization_cache() -> None:
    """Drop all cached factorizations and reset the counters.

    Also drops the transient solver's step-matrix cache: every step
    matrix embeds a conductance matrix assembled here, so any site that
    resets steady factorization state (workers, tests, benchmarks) must
    reset the derived step factorizations with it.
    """
    _FACTORIZATION_CACHE.clear()
    FACTORIZATION_STATS.factorizations = 0
    FACTORIZATION_STATS.cache_hits = 0
    from repro.thermal import transient

    transient.clear_step_cache()


def _factorize(matrix: csc_matrix) -> Callable:
    """LU-factorize ``matrix``, preferring SuperLU's symmetric-pattern
    ordering (the conductance matrix is symmetric positive definite, and
    MMD_AT_PLUS_A fills in ~4x less than the default COLAMD here)."""
    try:
        lu = splu(matrix, permc_spec="MMD_AT_PLUS_A",
                  options={"SymmetricMode": True})
        return lu.solve
    except (RuntimeError, ValueError, TypeError):
        return factorized(matrix)


@dataclass
class ThermalResult:
    """Solved temperature field plus block-level summaries."""

    stack_name: str
    nx: int
    ny: int
    #: per-layer (ny, nx) temperature grids over the spreader footprint, K
    layer_temps: List[np.ndarray]
    #: layer index of each power die
    die_layers: Dict[int, int]
    #: per-(block, die) peak temperature, K
    block_peak: Dict[Tuple[str, int], float]
    #: per-(block, die) mean temperature, K
    block_mean: Dict[Tuple[str, int], float]

    @property
    def peak_temperature(self) -> float:
        """Hottest cell across the die layers."""
        return max(float(self.layer_temps[l].max()) for l in self.die_layers.values())

    def hottest_block(self) -> Tuple[str, int, float]:
        """(name, die, K) of the hottest block."""
        (name, die), temp = max(self.block_peak.items(), key=lambda kv: kv[1])
        return name, die, temp

    def die_peak(self, die: int) -> float:
        return float(self.layer_temps[self.die_layers[die]].max())

    def format_hotspots(self, top: int = 8) -> str:
        """The hottest blocks, one per line."""
        ranked = sorted(self.block_peak.items(), key=lambda kv: -kv[1])[:top]
        lines = [f"{'block':<26s} {'die':>3s} {'peak K':>8s}"]
        for (name, die), temp in ranked:
            lines.append(f"{name:<26s} {die:3d} {temp:8.1f}")
        return "\n".join(lines)


class ThermalSolver:
    """Solves one stack/floorplan combination at grid resolution nx x ny."""

    def __init__(
        self,
        stack: ThermalStack,
        floorplan: Floorplan,
        nx: int = 48,
        ny: int = 48,
        spreader_mm: float = DEFAULT_SPREADER_MM,
    ):
        if floorplan.dies != stack.die_count:
            raise ValueError(
                f"floorplan has {floorplan.dies} dies but stack has {stack.die_count}"
            )
        self.stack = stack
        self.floorplan = floorplan
        self.nx = nx
        self.ny = ny
        #: the constructor argument, kept so an identical solver can be
        #: rebuilt elsewhere (the supervised-subprocess thermal path)
        self.spreader_mm = spreader_mm
        self.spreader_w_mm = max(spreader_mm, floorplan.width_mm)
        self.spreader_h_mm = max(spreader_mm, floorplan.height_mm)
        #: chip offset within the spreader footprint (centred), mm
        self.chip_x0_mm = (self.spreader_w_mm - floorplan.width_mm) / 2.0
        self.chip_y0_mm = (self.spreader_h_mm - floorplan.height_mm) / 2.0
        self._solve_fn: Optional[Callable] = None
        self._conv_per_cell: Optional[float] = None
        # Chip cell window within the spreader grid (shared by the
        # material mask and the power-map embedding).
        dx = self.spreader_w_mm / nx
        dy = self.spreader_h_mm / ny
        self._chip_x0 = int(round(self.chip_x0_mm / dx))
        self._chip_y0 = int(round(self.chip_y0_mm / dy))
        self._chip_nx = max(2, int(round(floorplan.width_mm / dx)))
        self._chip_ny = max(2, int(round(floorplan.height_mm / dy)))
        self._chip_nx = min(self._chip_nx, nx - self._chip_x0)
        self._chip_ny = min(self._chip_ny, ny - self._chip_y0)
        #: layer index of each power die (geometry is immutable per solver)
        self._die_layer_map: Dict[int, int] = {
            layer.power_die: l
            for l, layer in enumerate(stack.layers)
            if layer.power_die is not None
        }

    # ------------------------------------------------------------------ #

    def matrix_key(self) -> Tuple:
        """Hashable fingerprint of everything the conductance matrix
        depends on; solvers sharing it share one LU factorization."""
        return (
            tuple(
                (layer.thickness_m, layer.material.conductivity_w_mk)
                for layer in self.stack.layers
            ),
            self.stack.convection_k_per_w,
            self.nx,
            self.ny,
            self.spreader_w_mm,
            self.spreader_h_mm,
            self._chip_x0,
            self._chip_y0,
            self._chip_nx,
            self._chip_ny,
        )

    def geometry_id(self) -> str:
        """Short stable digest of :meth:`matrix_key`, for logs and events
        (the full key is an unwieldy nested tuple)."""
        digest = hashlib.sha256(repr(self.matrix_key()).encode("utf-8"))
        return digest.hexdigest()[:12]

    def result_key(self) -> Tuple:
        """:meth:`matrix_key` plus everything else a solved
        :class:`ThermalResult` depends on (used by persistent caches)."""
        return (
            THERMAL_MODEL_VERSION,
            self.matrix_key(),
            self.stack.ambient_k,
            self.stack.name,
            tuple(sorted(self._die_layer_map.items())),
            self.floorplan.fingerprint(),
        )

    # ------------------------------------------------------------------ #

    def _cell_k(self, layer_index: int) -> np.ndarray:
        """Per-cell conductivity map for one layer."""
        layer = self.stack.layers[layer_index]
        k = np.full((self.ny, self.nx), layer.material.conductivity_w_mk)
        if layer_index == 0:
            return k  # the spreader spans the full footprint
        outside = np.ones((self.ny, self.nx), dtype=bool)
        outside[self._chip_y0:self._chip_y0 + self._chip_ny,
                self._chip_x0:self._chip_x0 + self._chip_nx] = False
        k[outside] = _FILLER_K
        return k

    def _build(self) -> None:
        """Bind this solver to the (possibly shared) factorized system."""
        key = self.matrix_key()
        entry = _FACTORIZATION_CACHE.get(key)
        if entry is None:
            matrix, conv_per_cell = self._assemble()
            entry = _Factorization(matrix, _factorize(matrix), conv_per_cell)
            FACTORIZATION_STATS.factorizations += 1
            _FACTORIZATION_CACHE[key] = entry
            while len(_FACTORIZATION_CACHE) > FACTORIZATION_CACHE_CAP:
                _FACTORIZATION_CACHE.popitem(last=False)
        else:
            FACTORIZATION_STATS.cache_hits += 1
            _FACTORIZATION_CACHE.move_to_end(key)
        #: the assembled conductance matrix G (kept for the transient solver)
        self.conductance_matrix = entry.matrix
        self._solve_fn = entry.solve
        self._conv_per_cell = entry.conv_per_cell

    def _assemble(self) -> Tuple[csc_matrix, float]:
        """Vectorized conductance-matrix assembly.

        Harmonic-mean lateral conductances and vertical series
        resistances are computed as whole-layer (ny, nx) arrays and
        emitted as concatenated COO index/value arrays.  The diagonal is
        accumulated in the same per-cell order as the reference loop
        assembler, so the result is bit-identical to
        :meth:`_build_reference`.
        """
        nx, ny = self.nx, self.ny
        layers = self.stack.layers
        nl = len(layers)
        n = nl * ny * nx
        dx = self.spreader_w_mm * 1e-3 / nx
        dy = self.spreader_h_mm * 1e-3 / ny
        cell_area = dx * dy
        spreader_area = self.spreader_w_mm * self.spreader_h_mm * 1e-6

        k = np.stack([self._cell_k(l) for l in range(nl)])  # (nl, ny, nx)
        idx = np.arange(n).reshape(nl, ny, nx)
        thickness = np.array([layer.thickness_m for layer in layers])

        # Harmonic-mean lateral conductances between x/y neighbours.
        kl, kr = k[:, :, :-1], k[:, :, 1:]
        g_x = 2.0 * kl * kr / (kl + kr) * (thickness[:, None, None] * dy) / dx
        ku, kd = k[:, :-1, :], k[:, 1:, :]
        g_y = 2.0 * ku * kd / (ku + kd) * (thickness[:, None, None] * dx) / dy

        # Series resistance of the two half-layers between vertical
        # neighbours, over the cell footprint.
        half = thickness[:, None, None] / (2.0 * k)
        g_v = 1.0 / ((half[:-1] + half[1:]) / cell_area)  # (nl-1, ny, nx)

        conv_total = 1.0 / self.stack.convection_k_per_w
        conv_per_cell = conv_total * (cell_area / spreader_area)

        # Diagonal accumulation mirrors the reference loop's per-cell
        # order: vertical-from-above, y-up, x-left, x-right, y-down,
        # vertical-to-below, then the layer-0 convection term.
        diag = np.zeros((nl, ny, nx))
        for l in range(nl):
            diag[l, 1:, :] += g_y[l]
            diag[l, :, 1:] += g_x[l]
            diag[l, :, :-1] += g_x[l]
            diag[l, :-1, :] += g_y[l]
            if l + 1 < nl:
                diag[l] += g_v[l]
                diag[l + 1] += g_v[l]
        diag[0] += conv_per_cell

        a_x, b_x = idx[:, :, :-1].ravel(), idx[:, :, 1:].ravel()
        a_y, b_y = idx[:, :-1, :].ravel(), idx[:, 1:, :].ravel()
        a_v, b_v = idx[:-1].ravel(), idx[1:].ravel()
        rows = np.concatenate([a_x, b_x, a_y, b_y, a_v, b_v, idx.ravel()])
        cols = np.concatenate([b_x, a_x, b_y, a_y, b_v, a_v, idx.ravel()])
        vx, vy, vv = -g_x.ravel(), -g_y.ravel(), -g_v.ravel()
        vals = np.concatenate([vx, vx, vy, vy, vv, vv, diag.ravel()])
        matrix = coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()
        return matrix, conv_per_cell

    def _build_reference(self) -> Tuple[csc_matrix, float]:
        """The original cell-by-cell loop assembler.

        Kept solely as the oracle for the loop-vs-vectorized equivalence
        test; production code paths use :meth:`_assemble`.
        """
        nx, ny = self.nx, self.ny
        layers = self.stack.layers
        nl = len(layers)
        n = nl * ny * nx
        dx = self.spreader_w_mm * 1e-3 / nx
        dy = self.spreader_h_mm * 1e-3 / ny
        cell_area = dx * dy
        spreader_area = self.spreader_w_mm * self.spreader_h_mm * 1e-6

        def index(layer: int, j: int, i: int) -> int:
            return (layer * ny + j) * nx + i

        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        diag = np.zeros(n)

        def couple(a: int, b: int, conductance: float) -> None:
            rows.append(a)
            cols.append(b)
            vals.append(-conductance)
            rows.append(b)
            cols.append(a)
            vals.append(-conductance)
            diag[a] += conductance
            diag[b] += conductance

        k_maps = [self._cell_k(l) for l in range(nl)]
        for l, layer in enumerate(layers):
            t = layer.thickness_m
            k = k_maps[l]
            for j in range(ny):
                for i in range(nx):
                    a = index(l, j, i)
                    if i + 1 < nx:
                        k_h = 2.0 * k[j, i] * k[j, i + 1] / (k[j, i] + k[j, i + 1])
                        couple(a, index(l, j, i + 1), k_h * (t * dy) / dx)
                    if j + 1 < ny:
                        k_h = 2.0 * k[j, i] * k[j + 1, i] / (k[j, i] + k[j + 1, i])
                        couple(a, index(l, j + 1, i), k_h * (t * dx) / dy)
            if l + 1 < nl:
                below = layers[l + 1]
                k_below = k_maps[l + 1]
                for j in range(ny):
                    for i in range(nx):
                        r_vertical = (
                            t / (2.0 * k[j, i])
                            + below.thickness_m / (2.0 * k_below[j, i])
                        ) / cell_area
                        couple(index(l, j, i), index(l + 1, j, i), 1.0 / r_vertical)

        # Convection boundary at the top of the spreader: the sink's total
        # resistance distributed uniformly over the spreader area.
        conv_total = 1.0 / self.stack.convection_k_per_w
        conv_per_cell = conv_total * (cell_area / spreader_area)
        for j in range(ny):
            for i in range(nx):
                diag[index(0, j, i)] += conv_per_cell

        rows.extend(range(n))
        cols.extend(range(n))
        vals.extend(diag)
        matrix = coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()
        return matrix, conv_per_cell

    # ------------------------------------------------------------------ #

    def _embed(self, chip_grid: np.ndarray) -> np.ndarray:
        """Place a chip-resolution power grid into the spreader grid.

        ``chip_grid`` must be rasterized at :meth:`chip_grid_shape`.
        """
        if chip_grid.shape != (self._chip_ny, self._chip_nx):
            raise ValueError(
                f"power grid shape {chip_grid.shape} != chip grid "
                f"({self._chip_ny}, {self._chip_nx})"
            )
        full = np.zeros((self.ny, self.nx))
        full[self._chip_y0:self._chip_y0 + self._chip_ny,
             self._chip_x0:self._chip_x0 + self._chip_nx] = chip_grid
        return full

    def chip_grid_shape(self) -> Tuple[int, int]:
        """(ny, nx) resolution for chip-region power maps."""
        return self._chip_ny, self._chip_nx

    def _die_layers(self) -> Dict[int, int]:
        return dict(self._die_layer_map)

    def _rhs_for(self, die_power_grids: Sequence[np.ndarray]) -> np.ndarray:
        nx, ny = self.nx, self.ny
        layers = self.stack.layers
        if len(die_power_grids) != self.stack.die_count:
            raise ValueError(
                f"expected {self.stack.die_count} power grids, got {len(die_power_grids)}"
            )
        rhs = np.zeros(len(layers) * ny * nx)
        for die, l in self._die_layer_map.items():
            full = self._embed(die_power_grids[die])
            rhs[l * ny * nx:(l + 1) * ny * nx] += full.ravel()
        rhs[: ny * nx] += self._conv_per_cell * self.stack.ambient_k
        return rhs

    def _result_from(self, temps: np.ndarray) -> ThermalResult:
        nx, ny = self.nx, self.ny
        layer_temps = [
            temps[l * ny * nx:(l + 1) * ny * nx].reshape(ny, nx)
            for l in range(len(self.stack.layers))
        ]
        die_layers = self._die_layers()
        block_peak, block_mean = self._block_temps(layer_temps, die_layers)
        return ThermalResult(
            stack_name=self.stack.name,
            nx=nx,
            ny=ny,
            layer_temps=layer_temps,
            die_layers=die_layers,
            block_peak=block_peak,
            block_mean=block_mean,
        )

    def solve(self, die_power_grids: Sequence[np.ndarray]) -> ThermalResult:
        """Solve for per-die chip-region power grids (W per cell)."""
        return self.solve_many([die_power_grids])[0]

    def solve_many(
        self, batches: Sequence[Sequence[np.ndarray]]
    ) -> List[ThermalResult]:
        """Solve several power maps against the one LU factorization.

        All right-hand sides are backsubstituted in a single call, so the
        factorization cost — and most of the per-solve overhead — is paid
        once for the whole batch.
        """
        if not batches:
            return []
        if self._solve_fn is None:
            self._build()
        rhs = np.stack([self._rhs_for(batch) for batch in batches], axis=1)
        temps = self._solve_fn(rhs)
        return [self._result_from(np.asarray(temps[:, i]).ravel())
                for i in range(len(batches))]

    def _block_temps(self, layer_temps, die_layers):
        nx, ny = self.nx, self.ny
        dx = self.spreader_w_mm / nx
        dy = self.spreader_h_mm / ny
        block_peak: Dict[Tuple[str, int], float] = {}
        block_mean: Dict[Tuple[str, int], float] = {}
        for block in self.floorplan.blocks:
            grid = layer_temps[die_layers[block.die]]
            r = block.rect
            bx = r.x + self.chip_x0_mm
            by = r.y + self.chip_y0_mm
            x0 = max(0, int(bx / dx))
            x1 = max(x0 + 1, min(nx, int(np.ceil((bx + r.w) / dx))))
            y0 = max(0, int(by / dy))
            y1 = max(y0 + 1, min(ny, int(np.ceil((by + r.h) / dy))))
            region = grid[y0:y1, x0:x1]
            key = (block.name, block.die)
            block_peak[key] = float(region.max())
            block_mean[key] = float(region.mean())
        return block_peak, block_mean
