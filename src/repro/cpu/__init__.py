"""Cycle-level out-of-order CPU timing model (the SimpleScalar/MASE substitute).

The simulator replays committed-instruction traces through a scoreboard
model of a Core 2-class out-of-order pipeline (Table 1 of the paper):
4-wide fetch/decode/commit, 6-wide issue, 96-entry ROB, 32-entry RS,
32/20-entry load/store queues, a 10KB hybrid branch predictor with
2K-entry BTB, 32KB L1 caches, a 4MB L2, and TLBs.  Structural hazards,
dependence stalls, branch mispredictions, cache/TLB misses, and all the
Thermal Herding width-misprediction penalties are modelled per
instruction; per-module switching activity is accumulated for the power
and thermal models.
"""

import importlib

#: Re-exported name -> defining module, loaded on first access (PEP 562):
#: importing ``repro.cpu.config`` alone must not load the timing engine.
_EXPORTS = {
    **dict.fromkeys(
        ("CPUConfig", "ProcessorConfiguration", "baseline_config",
         "thermal_herding_config", "pipeline_config", "fast_config",
         "full_3d_config", "paper_configurations"),
        "repro.cpu.config"),
    **dict.fromkeys(
        ("SetAssociativeCache", "TLB", "MemoryHierarchy", "CacheStats"),
        "repro.cpu.caches"),
    **dict.fromkeys(
        ("HybridPredictor", "FrontEndPredictor", "BranchStats"),
        "repro.cpu.branch_predictor"),
    "SimulationResult": "repro.cpu.results",
    "TimingSimulator": "repro.cpu.pipeline",
    "simulate": "repro.cpu.pipeline",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_EXPORTS[name]), name)
