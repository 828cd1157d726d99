"""Finite-volume steady-state 3D heat conduction solver.

The grid covers the *heat spreader* footprint (larger than the chip, as
in HotSpot's grid mode).  The copper spreader (layer 0) is discretized
over the whole (ny, nx) footprint; every other layer (TIM, dies, bonds,
package) exists only over the centred chip window, and only cells that
exist are unknowns.  The space around the chip is adiabatic, so lateral
spreading happens in the spreader, not in thin silicon.

Unknowns are numbered spreader first (row-major over the footprint),
then each lower layer's window (row-major), layer by layer; see
:meth:`ThermalSolver.layer_cells`.  Lateral conduction couples
neighbouring cells of one layer; vertical conduction couples vertically
adjacent cells of neighbouring layers, wherever both exist, through the
series resistance of the two half-layers.  The top of the spreader is
coupled to ambient through the sink's convection resistance; all other
outer faces are adiabatic.  Results are expanded back to per-layer
(ny, nx) grids, where a chip layer reports the spreader temperature of
its column outside the window.

The system matrix depends only on geometry, so it is LU-factorized once
per *geometry* and shared process-wide: solvers with identical stacks,
floorplan footprints, and grid resolutions (DVFS sweeps, stacking-order
ablations, transient runs, repeated contexts) reuse one factorization
instead of paying SuperLU per instance.  Assembly is vectorized: one
conductance per layer and axis, broadcast over the layer's cells and
emitted as concatenated COO triplets.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.floorplan.geometry import Floorplan
from repro.thermal.stack import ThermalStack

if TYPE_CHECKING:
    from scipy.sparse import csc_matrix

#: Bump when the discretization or boundary conditions change, or the
#: transient integration (:mod:`repro.thermal.transient`) does; part of
#: every persistent steady and transient thermal-result cache key.
THERMAL_MODEL_VERSION = 2

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


def splu(matrix: csc_matrix, **kwargs):
    """scipy's SuperLU factorization, imported on the first call.

    scipy takes about a third of a second to import, and a run that
    reads every thermal result from the cache never factorizes, so it
    never pays for it.  Every factorization goes through this module
    global, which makes it the one seam to observe them at.
    """
    from scipy.sparse.linalg import splu as superlu

    return superlu(matrix, **kwargs)


def _factorize(matrix: csc_matrix) -> Callable:
    """LU-factorize ``matrix`` with SuperLU's symmetric-pattern ordering.

    Both the conductance matrix and the transient step matrix are
    symmetric positive definite, where MMD_AT_PLUS_A fills in ~4x less
    than the default COLAMD.
    """
    return splu(matrix, permc_spec="MMD_AT_PLUS_A",
                options={"SymmetricMode": True}).solve


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
    #: (rows, columns) slices of the chip window within each layer grid
    chip_window: Tuple[slice, slice]

    @property
    def peak_temperature(self) -> float:
        """Hottest chip-window cell across the die layers."""
        return max(self.die_peak(die) for die in self.die_layers)

    def hottest_block(self) -> Tuple[str, int, float]:
        """(name, die, K) of the hottest block."""
        (name, die), temp = max(self.block_peak.items(), key=lambda kv: kv[1])
        return name, die, temp

    def die_window(self, die: int) -> np.ndarray:
        """One die's temperatures over the chip window, (ny, nx) chip cells."""
        return self.layer_temps[self.die_layers[die]][self.chip_window]

    def die_peak(self, die: int) -> float:
        return float(self.die_window(die).max())

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
        # Chip cell window within the spreader grid: where every layer
        # below the spreader has cells, and where power maps land.
        dx = self.spreader_w_mm / nx
        dy = self.spreader_h_mm / ny
        self._chip_x0 = int(round(self.chip_x0_mm / dx))
        self._chip_y0 = int(round(self.chip_y0_mm / dy))
        self._chip_nx = max(2, int(round(floorplan.width_mm / dx)))
        self._chip_ny = max(2, int(round(floorplan.height_mm / dy)))
        self._chip_nx = min(self._chip_nx, nx - self._chip_x0)
        self._chip_ny = min(self._chip_ny, ny - self._chip_y0)
        #: (rows, columns) of the chip window within the spreader grid
        self._window = (
            slice(self._chip_y0, self._chip_y0 + self._chip_ny),
            slice(self._chip_x0, self._chip_x0 + self._chip_nx),
        )
        #: per layer, the unknown index of each of its cells: the whole
        #: (ny, nx) footprint for the spreader, the window for the rest
        window_cells = self._chip_ny * self._chip_nx
        self._layer_index: List[np.ndarray] = [np.arange(ny * nx).reshape(ny, nx)]
        for l in range(1, len(stack.layers)):
            start = ny * nx + (l - 1) * window_cells
            self._layer_index.append(
                np.arange(start, start + window_cells).reshape(
                    self._chip_ny, self._chip_nx))
        #: layer index of each power die (geometry is immutable per solver)
        self._die_layer_map: Dict[int, int] = {
            layer.power_die: l
            for l, layer in enumerate(stack.layers)
            if layer.power_die is not None
        }

    @property
    def unknowns(self) -> int:
        """Size of the linear system: the spreader footprint plus one
        chip window per lower layer."""
        window_cells = self._chip_ny * self._chip_nx
        return self.ny * self.nx + (len(self.stack.layers) - 1) * window_cells

    def layer_cells(self, layer: int) -> slice:
        """The unknowns of a layer below the spreader (``layer >= 1``):
        its chip window, row-major, as one contiguous slice."""
        index = self._layer_index[layer]
        start = int(index.flat[0])
        return slice(start, start + index.size)

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
        """Vectorized conductance-matrix assembly over the model cells.

        Every layer is one uniform material, so each layer has one
        lateral conductance per axis and each pair of adjacent layers
        one vertical conductance; they are broadcast over the layer's
        cells and emitted as concatenated COO index/value arrays.  Only
        couplings whose two ends are model cells exist: the spreader
        couples down only over the chip window.  The diagonal is
        accumulated per cell in the order a row-major per-cell loop
        assembler visits the couplings (vertical-from-above, y-up,
        x-left, x-right, y-down, vertical-to-below, then the spreader's
        convection term), so the two agree bit for bit.
        """
        from scipy.sparse import coo_matrix

        nx, ny = self.nx, self.ny
        layers = self.stack.layers
        nl = len(layers)
        dx = self.spreader_w_mm * 1e-3 / nx
        dy = self.spreader_h_mm * 1e-3 / ny
        cell_area = dx * dy
        spreader_area = self.spreader_w_mm * self.spreader_h_mm * 1e-6
        window = self._window

        k = np.array([layer.material.conductivity_w_mk for layer in layers])
        thickness = np.array([layer.thickness_m for layer in layers])
        g_x = k * (thickness * dy) / dx
        g_y = k * (thickness * dx) / dy
        # Series resistance of the two half-layers between vertical
        # neighbours, over the cell footprint.
        half = thickness / (2.0 * k)
        g_v = 1.0 / ((half[:-1] + half[1:]) / cell_area)

        conv_total = 1.0 / self.stack.convection_k_per_w
        conv_per_cell = conv_total * (cell_area / spreader_area)

        rows: List[np.ndarray] = []
        cols: List[np.ndarray] = []
        vals: List[np.ndarray] = []

        def couple(a: np.ndarray, b: np.ndarray, g: float) -> None:
            a, b = a.ravel(), b.ravel()
            rows.extend((a, b))
            cols.extend((b, a))
            vals.extend((np.full(a.size, -g),) * 2)

        diags = []
        for l in range(nl):
            idx = self._layer_index[l]
            diag = np.zeros(idx.shape)
            if l > 0:
                diag += g_v[l - 1]
            diag[1:, :] += g_y[l]
            diag[:, 1:] += g_x[l]
            diag[:, :-1] += g_x[l]
            diag[:-1, :] += g_y[l]
            couple(idx[:, :-1], idx[:, 1:], g_x[l])
            couple(idx[:-1, :], idx[1:, :], g_y[l])
            if l + 1 < nl:
                # The spreader meets the next layer only over the window.
                over = window if l == 0 else np.s_[:, :]
                diag[over] += g_v[l]
                couple(idx[over], self._layer_index[l + 1], g_v[l])
            diags.append(diag.ravel())
        diags[0] += conv_per_cell

        n = self.unknowns
        everything = np.arange(n)
        rows.append(everything)
        cols.append(everything)
        vals.append(np.concatenate(diags))
        matrix = coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n),
        ).tocsc()
        return matrix, conv_per_cell

    # ------------------------------------------------------------------ #

    def _chip_power(self, grid) -> np.ndarray:
        """One die's chip-window power grid, shape-checked and raveled."""
        grid = np.asarray(grid)
        if grid.shape != (self._chip_ny, self._chip_nx):
            raise ValueError(
                f"power grid shape {grid.shape} != chip grid "
                f"({self._chip_ny}, {self._chip_nx})"
            )
        return grid.ravel()

    def chip_grid_shape(self) -> Tuple[int, int]:
        """(ny, nx) resolution for chip-region power maps."""
        return self._chip_ny, self._chip_nx

    def _die_layers(self) -> Dict[int, int]:
        return dict(self._die_layer_map)

    def _rhs_for(self, die_power_grids: Sequence[np.ndarray]) -> np.ndarray:
        if len(die_power_grids) != self.stack.die_count:
            raise ValueError(
                f"expected {self.stack.die_count} power grids, got {len(die_power_grids)}"
            )
        rhs = np.zeros(self.unknowns)
        for die, l in self._die_layer_map.items():
            rhs[self.layer_cells(l)] += self._chip_power(die_power_grids[die])
        rhs[: self.ny * self.nx] += self._conv_per_cell * self.stack.ambient_k
        return rhs

    def expand(self, temps: np.ndarray) -> List[np.ndarray]:
        """Per-layer (ny, nx) grids from one solution vector.

        The spreader fills its whole grid; every other layer fills its
        chip window, and outside it reports the spreader temperature of
        the same column.
        """
        nx, ny = self.nx, self.ny
        spreader = temps[: ny * nx].reshape(ny, nx)
        grids = [spreader]
        for l in range(1, len(self.stack.layers)):
            grid = spreader.copy()
            grid[self._window] = temps[self.layer_cells(l)].reshape(
                self._chip_ny, self._chip_nx)
            grids.append(grid)
        return grids

    def _result_from(self, temps: np.ndarray) -> ThermalResult:
        layer_temps = self.expand(temps)
        die_layers = self._die_layers()
        block_peak, block_mean = self._block_temps(layer_temps, die_layers)
        return ThermalResult(
            stack_name=self.stack.name,
            nx=self.nx,
            ny=self.ny,
            layer_temps=layer_temps,
            die_layers=die_layers,
            block_peak=block_peak,
            block_mean=block_mean,
            chip_window=self._window,
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
        """Per-block peak and mean over the block's cells, clipped to
        the chip window (the only cells a die has)."""
        nx, ny = self.nx, self.ny
        dx = self.spreader_w_mm / nx
        dy = self.spreader_h_mm / ny
        wx0, wy0 = self._chip_x0, self._chip_y0
        wx1, wy1 = wx0 + self._chip_nx, wy0 + self._chip_ny
        block_peak: Dict[Tuple[str, int], float] = {}
        block_mean: Dict[Tuple[str, int], float] = {}
        for block in self.floorplan.blocks:
            grid = layer_temps[die_layers[block.die]]
            r = block.rect
            bx = r.x + self.chip_x0_mm
            by = r.y + self.chip_y0_mm
            x0 = min(max(wx0, int(bx / dx)), wx1 - 1)
            x1 = max(x0 + 1, min(wx1, int(np.ceil((bx + r.w) / dx))))
            y0 = min(max(wy0, int(by / dy)), wy1 - 1)
            y1 = max(y0 + 1, min(wy1, int(np.ceil((by + r.h) / dy))))
            region = grid[y0:y1, x0:x1]
            key = (block.name, block.die)
            block_peak[key] = float(region.max())
            block_mean[key] = float(region.mean())
        return block_peak, block_mean
