"""Trace golden digests: generated traces, pinned byte for byte.

Each entry of ``trace_digests.json`` is one :func:`generate` call — the
suite ``benchmark``, the ``length`` and the emulator ``seed`` — plus the
sha256 of its compiled columnar array (``compiled().array.tobytes()``),
the bytes the trace store writes and the timing engine replays.  The
cases are all 24 suite benchmarks at the fast-report length with their
spec seeds, and each once more with a non-default seed.

Digests are grouped under ``GENERATOR_VERSION``, which is part of every
trace-store and result-cache key.  Regenerate with::

    PYTHONPATH=src python tests/workloads/test_trace_digests.py --write

The writer adds a block for a new version and new cases to an existing
block, but refuses to change a digest already recorded: a change to
generated traces must bump ``GENERATOR_VERSION``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict

import pytest

from repro.workloads.emulator import GENERATOR_VERSION
from repro.workloads.suite import BENCHMARKS, generate

DIGESTS = Path(__file__).with_name("trace_digests.json")

#: The fast-report trace length.
LENGTH = 8_000
#: Offset of each benchmark's non-default seed from its spec seed.
ALT_SEED_OFFSET = 1_000


def digest(benchmark: str, length: int, seed: int) -> str:
    array = generate(benchmark, length=length, seed=seed).compiled().array
    return hashlib.sha256(array.tobytes()).hexdigest()


def cases() -> Dict[str, dict]:
    table = {}
    for name, spec in BENCHMARKS.items():
        for label, seed in (("spec", spec.seed),
                            ("alt", spec.seed + ALT_SEED_OFFSET)):
            table[f"{name}/{label}"] = {
                "benchmark": name, "length": LENGTH, "seed": seed}
    return table


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
    """Record the current generator's digests under ``GENERATOR_VERSION``."""
    blocks = load_digests()
    block = blocks.setdefault(str(GENERATOR_VERSION), {})
    changed = []
    for name, case in sorted(cases().items()):
        entry = {**case, "sha256": digest(**case)}
        recorded = block.get(name)
        if recorded is None:
            block[name] = entry
        elif recorded != entry:
            changed.append(name)
    if changed:
        print(f"refusing to change {len(changed)} recorded digest(s) of "
              f"GENERATOR_VERSION {GENERATOR_VERSION}: {', '.join(changed)}.\n"
              "Bump GENERATOR_VERSION if the trace change is intended.",
              file=sys.stderr)
        return 1
    write_digests(blocks)
    print(f"GENERATOR_VERSION {GENERATOR_VERSION}: {len(block)} cases "
          f"in {DIGESTS.name}")
    return 0


RECORDED = load_digests().get(str(GENERATOR_VERSION), {})


@pytest.mark.parametrize("name", sorted(RECORDED) or ["<missing>"])
def test_trace_digest(name):
    assert RECORDED, (
        f"no trace digests for GENERATOR_VERSION {GENERATOR_VERSION}; "
        "run tests/workloads/test_trace_digests.py --write"
    )
    case = dict(RECORDED[name])
    expected = case.pop("sha256")
    assert digest(**case) == expected, name


def test_every_case_is_recorded():
    """All 24 benchmarks at both seeds are pinned, with exactly the
    inputs the case table describes."""
    table = cases()
    assert len(table) == 2 * len(BENCHMARKS) == 48
    for name, case in table.items():
        recorded = dict(RECORDED.get(name, {}))
        recorded.pop("sha256", None)
        assert recorded == case, name


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    sys.exit(regenerate())
