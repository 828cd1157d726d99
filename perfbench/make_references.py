"""Write the output references the benchmark checks against.

Run from the root of a checkout::

    python3 perfbench/make_references.py

Writes ``perfbench/references/simulate_suite.json`` (per-pair simulated
statistics of the suite at seed 0) and
``perfbench/references/report_headline.json`` (the fast report's
headline rows).  Regenerate only for a change that means to change the
model (one that bumps ``SIMULATOR_VERSION`` or
``THERMAL_MODEL_VERSION``), never to make a difference disappear.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import REFERENCES, SUITE_PAIRS, Runner, headline_rows


def main() -> int:
    root = Path.cwd()
    work = Path(tempfile.mkdtemp(prefix="refs-", dir=root))
    try:
        runner = Runner(root, work)
        suite = runner.op("suite", seed=0)
        report = runner.op("report", cache_dir=work / "cache")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for doc in (suite, report):
        if "failed" in doc:
            print(f"error: {doc['failed']}", file=sys.stderr)
            return 1
    if suite["errors"] or len(suite["pairs"]) != SUITE_PAIRS:
        print("error: the suite did not simulate every pair", file=sys.stderr)
        return 1
    pairs = {pair: {k: v for k, v in outputs.items() if k != "sha256"}
             for pair, outputs in suite["pairs"].items()}
    REFERENCES.mkdir(exist_ok=True)
    (REFERENCES / "simulate_suite.json").write_text(json.dumps(
        {"seed": 0, "pairs": pairs}, indent=1, sort_keys=True) + "\n")
    (REFERENCES / "report_headline.json").write_text(json.dumps(
        {"rows": headline_rows(report["report"])}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
