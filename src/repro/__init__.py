"""Reproduction of *Thermal Herding: Microarchitecture Techniques for
Controlling Hotspots in High-Performance 3D-Integrated Processors*
(Puttaswamy & Loh, HPCA 2007).

The package is organized bottom-up:

* :mod:`repro.isa` — trace instruction format and value-width utilities.
* :mod:`repro.workloads` — synthetic benchmark generators (six suites).
* :mod:`repro.circuits` — 2D/3D latency and energy models (HSpice stand-in).
* :mod:`repro.core` — the Thermal Herding techniques themselves.
* :mod:`repro.cpu` — out-of-order timing simulator (SimpleScalar stand-in).
* :mod:`repro.power` — per-module power integration.
* :mod:`repro.floorplan` — planar and 4-die-stack floorplans.
* :mod:`repro.thermal` — steady-state 3D thermal solver (HotSpot stand-in).
* :mod:`repro.experiments` — one runner per table/figure of the paper.

Quickstart::

    from repro.workloads import generate
    from repro.cpu import simulate, paper_configurations

    trace = generate("mpeg2", length=20_000)
    configs = paper_configurations()
    base = simulate(trace, configs["Base"].config, warmup=6_000)
    full = simulate(trace, configs["3D"].config, warmup=6_000)
    print(f"3D speedup: {full.ipns / base.ipns:.2f}x")
"""

__version__ = "1.0.0"

import importlib

#: Re-exported name -> defining module.  The re-exports load on first
#: access (PEP 562), so importing any ``repro`` submodule does not pull
#: in the timing engine or the emulator.
_EXPORTS = {
    "paper_configurations": "repro.cpu.config",
    "simulate": "repro.cpu.pipeline",
    "generate": "repro.workloads.suite",
    "standard_suite": "repro.workloads.suite",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_EXPORTS[name]), name)
