"""Golden digests: the timing engine's results, pinned byte for byte.

Each entry of ``golden_digests.json`` is one :func:`simulate` input — the
trace (``benchmark`` and ``length``), the ``warmup``, and every
:class:`CPUConfig` field — plus the sha256 of its result pickled with
protocol 5, the form the on-disk result cache stores.  Equality at that
granularity covers every counter, every dict's insertion order and every
stall attribution.

The cases are every distinct ``simulate()`` input of the fast report
(the benchmark x configuration grid, the DVFS clock points, core
pairing's half-L2 and the roadmap's stacked-cache configurations), TH
under every width-predictor kind, 4-entry 1-bit predictor tables whose
warmup crosses the stats reset in a heavily wrapped counter state,
degenerate traces (one instruction; 40 instructions without warmup) and
the mechanism kernels.

Digests are grouped under ``SIMULATOR_VERSION``, which is part of every
result-cache key.  Regenerate with::

    PYTHONPATH=src python tests/cpu/test_golden_digests.py --write

The writer adds a block for a new version and new cases to an existing
block, but refuses to change a digest already recorded: a change to
simulation results must bump ``SIMULATOR_VERSION``.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import os
import pickle
import sys
import tempfile
from pathlib import Path
from typing import Dict

import pytest

from repro.cpu.config import CPUConfig, WidthPredictorKind
from repro.cpu.pipeline import SIMULATOR_VERSION, simulate
from repro.experiments.context import _all_configurations
from repro.isa.instruction import TraceInstruction
from repro.isa.opcodes import OpClass
from repro.isa.trace import Trace
from repro.workloads.microbench import KERNELS
from repro.workloads.suite import generate

DIGESTS = Path(__file__).with_name("golden_digests.json")

#: ``benchmark`` of the hand-built one-instruction trace.
ONE_INSTRUCTION = "one-instruction"
#: ``benchmark`` prefix of a mechanism kernel from the microbench suite.
KERNEL = "kernel:"


def digest(result) -> str:
    return hashlib.sha256(pickle.dumps(result, protocol=5)).hexdigest()


def encode_config(config: CPUConfig) -> dict:
    return {
        f.name: (value.name if isinstance(value, enum.Enum) else value)
        for f in dataclasses.fields(config)
        for value in (getattr(config, f.name),)
    }


def decode_config(fields: dict) -> CPUConfig:
    """Inverse of :func:`encode_config`.

    Strings are interned, like the literals configurations are built
    from.  Pickle memoizes strings by identity, so when a config's name
    is the very object of an equal string elsewhere in the result (the
    CPI stack's ``base`` category), the second one pickles as a
    back-reference: identity is part of the digest."""
    default = CPUConfig()

    def decode(name, value):
        if isinstance(getattr(default, name), enum.Enum):
            return type(getattr(default, name))[value]
        return sys.intern(value) if isinstance(value, str) else value

    return CPUConfig(**{name: decode(name, value)
                        for name, value in fields.items()})


@functools.lru_cache(maxsize=None)
def build_trace(benchmark: str, length: int) -> Trace:
    if benchmark == ONE_INSTRUCTION:
        trace = Trace("one", [
            TraceInstruction(pc=0x1000, op=OpClass.IALU, dst=1, result=3),
        ])
    elif benchmark.startswith(KERNEL):
        trace = KERNELS[benchmark[len(KERNEL):]]()
    else:
        trace = generate(benchmark, length=length)
    assert len(trace) == length, benchmark
    return trace


def run_case(case: dict):
    trace = build_trace(case["benchmark"], case["length"])
    return simulate(trace, decode_config(case["config"]), warmup=case["warmup"])


def _case(benchmark: str, length: int, warmup: int, config: CPUConfig) -> dict:
    return {"benchmark": benchmark, "length": length, "warmup": warmup,
            "config": encode_config(config)}


def fixed_cases() -> Dict[str, dict]:
    """Every case except the fast report's inputs."""
    th = _all_configurations()["TH"]
    cases = {}
    for kind in WidthPredictorKind:
        cases[f"kind/{kind.name}"] = _case(
            "yacr2", 8_000, 2_000,
            dataclasses.replace(th, width_predictor_kind=kind))
        cases[f"tiny-table/{kind.name}"] = _case(
            "yacr2", 4_000, 1_000,
            dataclasses.replace(th, width_predictor_kind=kind,
                                width_predictor_entries=4,
                                width_counter_bits=1))
    cases["degenerate/one-instruction"] = _case(
        ONE_INSTRUCTION, 1, 0, _all_configurations()["Base"])
    cases["degenerate/adpcm-40"] = _case("adpcm", 40, 0, th)
    for name, build in KERNELS.items():
        cases[f"kernel/{name}"] = _case(KERNEL + name, len(build()), 0, th)
    return cases


def report_cases() -> Dict[str, dict]:
    """Every distinct ``simulate()`` input of a cold ``report --fast``."""
    import repro.cpu.pipeline as pipeline
    from repro.cli import main

    cases: Dict[str, dict] = {}
    inner = pipeline.simulate

    def recording(trace, config, warmup=0):
        name = f"report/{trace.name}/{config.name}@{config.clock_ghz}GHz"
        case = _case(trace.name, len(trace), warmup, config)
        assert cases.setdefault(name, case) == case, f"{name} is ambiguous"
        return inner(trace, config, warmup=warmup)

    pipeline.simulate = recording
    saved = os.environ.get("REPRO_CACHE")
    os.environ["REPRO_CACHE"] = "0"
    try:
        with tempfile.TemporaryDirectory() as scratch:
            main(["report", "--fast", "--jobs", "1",
                  "-o", os.path.join(scratch, "report.md")])
    finally:
        pipeline.simulate = inner
        if saved is None:
            del os.environ["REPRO_CACHE"]
        else:
            os.environ["REPRO_CACHE"] = saved
    return cases


def load_digests() -> Dict[str, Dict[str, dict]]:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def write_digests(blocks: Dict[str, Dict[str, dict]]) -> None:
    """One line per case, so a diff names the cases it touches."""
    lines = ["{"]
    for v, version in enumerate(sorted(blocks, key=int)):
        lines.append(f" {json.dumps(version)}: {{")
        block = blocks[version]
        for c, name in enumerate(sorted(block)):
            comma = "," if c < len(block) - 1 else ""
            entry = json.dumps(block[name], sort_keys=True)
            lines.append(f"  {json.dumps(name)}: {entry}{comma}")
        lines.append(" }" + ("," if v < len(blocks) - 1 else ""))
    lines.append("}")
    DIGESTS.write_text("\n".join(lines) + "\n")


def regenerate() -> int:
    """Record the current engine's digests under ``SIMULATOR_VERSION``."""
    blocks = load_digests()
    block = blocks.setdefault(str(SIMULATOR_VERSION), {})
    cases = {**report_cases(), **fixed_cases()}
    changed = []
    for name, case in sorted(cases.items()):
        entry = {**case, "sha256": digest(run_case(case))}
        recorded = block.get(name)
        if recorded is None:
            block[name] = entry
        elif recorded != entry:
            changed.append(name)
    if changed:
        print(f"refusing to change {len(changed)} recorded digest(s) of "
              f"SIMULATOR_VERSION {SIMULATOR_VERSION}: {', '.join(changed)}.\n"
              "Bump SIMULATOR_VERSION if the model change is intended.",
              file=sys.stderr)
        return 1
    write_digests(blocks)
    print(f"SIMULATOR_VERSION {SIMULATOR_VERSION}: {len(block)} cases "
          f"in {DIGESTS.name}")
    return 0


RECORDED = load_digests().get(str(SIMULATOR_VERSION), {})


@pytest.mark.parametrize("name", sorted(RECORDED) or ["<missing>"])
def test_golden_digest(name):
    assert RECORDED, (
        f"no golden digests for SIMULATOR_VERSION {SIMULATOR_VERSION}; "
        "run tests/cpu/test_golden_digests.py --write"
    )
    case = RECORDED[name]
    assert digest(run_case(case)) == case["sha256"], name


def test_fixed_cases_are_recorded():
    """The kind, tiny-table, degenerate and kernel cases are all pinned,
    with exactly the inputs the case table describes."""
    for name, case in fixed_cases().items():
        recorded = dict(RECORDED.get(name, {}))
        recorded.pop("sha256", None)
        assert recorded == case, name


def test_configs_round_trip():
    for config in _all_configurations().values():
        assert decode_config(encode_config(config)) == config


def test_simulate_accepts_compiled_trace():
    trace = generate("adpcm", length=600)
    config = _all_configurations()["TH"]
    via_trace = simulate(trace, config, warmup=100)
    via_compiled = simulate(trace.compiled(), config, warmup=100)
    assert pickle.dumps(via_compiled) == pickle.dumps(via_trace)


def test_warmup_bound_error():
    trace = generate("adpcm", length=40)
    with pytest.raises(ValueError, match="warmup"):
        simulate(trace, _all_configurations()["Base"], warmup=40)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    sys.exit(regenerate())
