"""Synthetic workload generation.

The paper evaluates 106 application traces drawn from SPECint2000,
SPECfp2000, MediaBench, MiBench, the Wisconsin pointer-intensive codes,
and BioBench/BioPerf.  Those binaries and their reference inputs are not
redistributable, so this package provides *synthetic* workload generators:
each benchmark class is a parameter set (instruction mix, value-width
behaviour, memory footprint and locality, branch behaviour) from which a
structured synthetic program is built and then functionally emulated to
produce a committed-instruction trace with *real* register values, memory
addresses and branch outcomes.  The statistical properties the paper's
techniques exploit — narrow integer values, upper-address-bit locality,
partial-value locality, near branch targets — therefore emerge from actual
emulated values rather than being injected as labels.
"""

import importlib

#: Re-exported name -> defining module, loaded on first access (PEP 562):
#: reading the suite's names and fingerprints must not load the emulator.
_EXPORTS = {
    **dict.fromkeys(
        ("WorkloadParameters", "BenchmarkClass", "CLASS_PARAMETERS"),
        "repro.workloads.parameters"),
    **dict.fromkeys(
        ("MemoryModel", "Region", "AccessPattern"),
        "repro.workloads.memory_model"),
    **dict.fromkeys(
        ("SyntheticProgram", "build_program"), "repro.workloads.program"),
    **dict.fromkeys(("Emulator", "generate_trace"), "repro.workloads.emulator"),
    **dict.fromkeys(
        ("BENCHMARKS", "BenchmarkSpec", "benchmark_names",
         "benchmarks_in_class", "generate", "standard_suite"),
        "repro.workloads.suite"),
    **dict.fromkeys(
        ("CLASS_EXPECTATIONS", "ClassExpectations", "validate_suite",
         "validate_trace"),
        "repro.workloads.validation"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_EXPORTS[name]), name)
