"""Simulation result container and derived performance metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.activity import ActivityCounters
from repro.core.width_prediction import WidthPredictorStats
from repro.cpu.branch_predictor import BranchStats
from repro.cpu.caches import CacheStats

#: Timing-model version, part of the on-disk result-cache key and the
#: key of the golden digests in ``tests/cpu/golden_digests.json``.  Bump
#: on any change to :mod:`repro.cpu.pipeline` or :mod:`repro.cpu.wavefront`
#: that alters simulation outcomes so stale entries never hit.
SIMULATOR_VERSION = 1


@dataclass
class StallBreakdown:
    """Cycles lost to each Thermal Herding misprediction mechanism."""

    rf_group_stalls: int = 0
    alu_input_stalls: int = 0
    alu_reexecutions: int = 0
    dcache_width_stalls: int = 0
    btb_memoization_stalls: int = 0

    @property
    def total(self) -> int:
        return (
            self.rf_group_stalls
            + self.alu_input_stalls
            + self.alu_reexecutions
            + self.dcache_width_stalls
            + self.btb_memoization_stalls
        )

    def as_dict(self) -> Dict[str, int]:
        """JSON-ready mapping of the five mechanisms plus their total."""
        return {
            "rf_group_stalls": self.rf_group_stalls,
            "alu_input_stalls": self.alu_input_stalls,
            "alu_reexecutions": self.alu_reexecutions,
            "dcache_width_stalls": self.dcache_width_stalls,
            "btb_memoization_stalls": self.btb_memoization_stalls,
            "total": self.total,
        }


@dataclass
class SimulationResult:
    """Everything one simulation run produces."""

    benchmark: str
    benchmark_class: str
    config_name: str
    clock_ghz: float
    instructions: int
    cycles: int
    activity: ActivityCounters
    branch_stats: BranchStats
    cache_stats: Dict[str, CacheStats] = field(default_factory=dict)
    width_stats: Optional[WidthPredictorStats] = None
    stalls: StallBreakdown = field(default_factory=StallBreakdown)
    #: herding effectiveness metrics (module -> fraction confined to top die)
    herding: Dict[str, float] = field(default_factory=dict)
    #: approximate CPI stack: category -> cycles attributed (sums to cycles)
    cpi_stack: Dict[str, int] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def time_ns(self) -> float:
        """Wall-clock execution time in nanoseconds."""
        return self.cycles / self.clock_ghz if self.clock_ghz else float("inf")

    @property
    def ipns(self) -> float:
        """Instructions per nanosecond (the paper's IPns metric)."""
        return self.instructions / self.time_ns if self.time_ns else 0.0

    def cpi_breakdown(self) -> Dict[str, float]:
        """CPI per category (cycles attributed / committed instructions)."""
        if not self.instructions:
            return {}
        return {
            category: cycles / self.instructions
            for category, cycles in sorted(self.cpi_stack.items())
        }

    def format_cpi_stack(self) -> str:
        """Render the CPI stack as an aligned block."""
        lines = [f"CPI stack ({self.benchmark} [{self.config_name}], "
                 f"CPI = {1 / self.ipc if self.ipc else 0:.2f})"]
        for category, cpi in sorted(
            self.cpi_breakdown().items(), key=lambda kv: -kv[1]
        ):
            lines.append(f"  {category:<12s} {cpi:6.3f}")
        return "\n".join(lines)

    def summary(self) -> str:
        """One-line human-readable summary."""
        parts = [
            f"{self.benchmark:>10s} [{self.config_name:>4s}]",
            f"IPC={self.ipc:5.2f}",
            f"IPns={self.ipns:5.2f}",
            f"cycles={self.cycles}",
        ]
        if self.width_stats is not None and self.width_stats.predictions:
            parts.append(f"width-acc={self.width_stats.accuracy:5.1%}")
        if self.branch_stats.conditional_branches:
            parts.append(f"br-acc={self.branch_stats.direction_accuracy:5.1%}")
        return "  ".join(parts)
