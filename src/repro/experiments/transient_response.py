"""Transient thermal response: how fast do hotspots form?

Dynamic thermal management reacts on the thermal time constant.  This
experiment applies a power step (idle -> the reference app's full power)
to the planar chip and the 3D stack and measures the time each takes to
close 90 % of the gap to its steady-state peak.  The 3D stack's thinned
dies carry far less heat capacity per watt, so its hotspots form faster —
DTM for stacked processors must react quicker, an operational corollary
of the paper's thermal analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.experiments.context import (
    CORE_COUNT,
    REFERENCE_BENCHMARK,
    ExperimentContext,
    TransientRequest,
)
from repro.power.model import StackKind
from repro.thermal.power_map import build_power_map, rasterize
from repro.thermal.transient import ConstantSchedule


@dataclass
class StepResponse:
    """One stack's response to the power step."""

    label: str
    steady_peak_k: float
    time_to_90pct_s: Optional[float]


@dataclass
class TransientResponseResult:
    """Planar vs 3D step responses."""

    planar: StepResponse
    stacked: StepResponse

    def format(self) -> str:
        def render(r: StepResponse) -> str:
            t90 = f"{r.time_to_90pct_s * 1e3:7.1f} ms" if r.time_to_90pct_s else "  (n/a)"
            return f"  {r.label:<8s} steady {r.steady_peak_k:6.1f} K, 90% rise in {t90}"
        lines = [
            "transient step response (idle -> full power)",
            render(self.planar),
            render(self.stacked),
        ]
        if self.planar.time_to_90pct_s and self.stacked.time_to_90pct_s:
            ratio = self.planar.time_to_90pct_s / self.stacked.time_to_90pct_s
            lines.append(
                f"the 3D stack heats {ratio:.1f}x faster: DTM must react sooner"
            )
        return "\n".join(lines)


def _rasterized_step(context: ExperimentContext, stack_kind: StackKind,
                     breakdown):
    """The per-die power grids of one stack's full-power step input."""
    solver = context.solver(stack_kind)
    plan = context.floorplan(stack_kind)
    watts = build_power_map(plan, [breakdown] * CORE_COUNT)
    ny, nx = solver.chip_grid_shape()
    return solver, rasterize(plan, watts, nx, ny)


def run_transient_response(
    context: Optional[ExperimentContext] = None,
    benchmark: str = REFERENCE_BENCHMARK,
    dt_s: float = 20e-3,
    duration_s: float = 20.0,
) -> TransientResponseResult:
    """Measure the 90 % step-response time of both stacks."""
    context = context or ExperimentContext()
    context.prefetch([(benchmark, "Base"), (benchmark, "3D"),
                      (REFERENCE_BENCHMARK, "Base")])
    steps = {
        stack: _rasterized_step(context, stack, context.power(benchmark, label))
        for stack, label in ((StackKind.PLANAR_2D, "Base"),
                             (StackKind.STACKED_3D, "3D"))
    }
    # Both stacks' steady-state anchors solve in one engine dispatch, and
    # both step responses in one transient dispatch (cached like any
    # other content-addressed run).
    steadies = context.solve_thermal_groups(
        [(solver, [grids]) for solver, grids in steps.values()]
    )
    responses = context.transient_many([
        TransientRequest(stack=stack, schedule=ConstantSchedule(grids),
                         dt_s=dt_s, duration_s=duration_s)
        for stack, (_, grids) in steps.items()
    ])
    out = []
    for (solver, _), (steady,), (response, _), label in zip(
            steps.values(), steadies, responses, ("planar", "3D-TH")):
        ambient = solver.stack.ambient_k
        target = ambient + 0.9 * (steady.peak_temperature - ambient)
        out.append(StepResponse(
            label=label,
            steady_peak_k=steady.peak_temperature,
            time_to_90pct_s=response.time_to_reach(target),
        ))
    return TransientResponseResult(planar=out[0], stacked=out[1])
