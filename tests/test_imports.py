"""Each entry point imports only the code it runs.

Checked by module name in fresh interpreters, not by timing: scipy loads
at the first factorization, and a report re-rendered from the cache
never loads the timing engine or the emulator.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Modules only a run that simulates or generates traces needs.
ENGINE = ("repro.cpu.pipeline", "repro.cpu.wavefront", "repro.workloads.emulator")

CONTEXT = (
    "from repro.cli import FAST_SETTINGS\n"
    "from repro.experiments.context import ExperimentContext\n"
    "context = ExperimentContext(FAST_SETTINGS, jobs=1)\n"
)

REPORT = CONTEXT + (
    "from repro.experiments.report import generate_report\n"
    "generate_report(context)\n"
)


def loaded_after(code: str, cache_dir: Path) -> set:
    """The names in ``sys.modules`` after ``code`` runs in a fresh
    interpreter with its result cache in ``cache_dir``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env.pop("REPRO_CACHE", None)
    probe = code + "import json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_cli_and_context_leave_scipy_unloaded(tmp_path):
    loaded = loaded_after("import repro.cli\n" + CONTEXT, tmp_path)
    assert "scipy" not in loaded


def test_simulate_suite_entry_leaves_scipy_unloaded(tmp_path):
    loaded = loaded_after(
        "from repro.cpu.pipeline import simulate\n"
        "from repro.experiments.context import _all_configurations\n"
        "_all_configurations()\n",
        tmp_path,
    )
    assert "scipy" not in loaded


def test_warm_report_loads_neither_scipy_nor_the_engine(tmp_path):
    cold = loaded_after(REPORT, tmp_path)
    # The cold run fills the cache, and it does need all of them.
    assert {"scipy", *ENGINE} <= cold
    warm = loaded_after(REPORT, tmp_path)
    assert not {"scipy", *ENGINE} & warm
