"""The repository benchmark: cold report, warm report, suite-wide simulation.

Run from the root of a checkout (``src/repro`` must be there)::

    python3 perfbench/run.py --workload report-cold --seed 1 --seconds 20 --trace 0

Every operation runs in a fresh interpreter (``perfbench/op.py``) with
``jobs=1``.  Lines above the last describe the run; the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` the per-layer ones from a traced operation.  Outputs
are checked against ``perfbench/references``; a mismatch counts as a
failed operation and the exit code is 1.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references"

WORKLOADS = ("report-cold", "report-warm", "simulate-suite")
#: End-to-end metrics printed in the JSON result (BENCHMARK.json's list).
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
#: Setup-only interpreters started per run, besides the operations.
SETUP_PROBES = 5
#: Scratch space inside the checkout (ignored by git).
WORK_DIR = ".perfbench_work"
#: Wall-clock budget of a whole run; an operation still running when
#: it ends is killed and counts as failed.
RUN_BUDGET_S = 170.0
#: Tolerance on the report's temperatures (the headline prints whole K).
TOLERANCE_K = 1.0
#: Tolerance, in percentage points, on the one headline row derived
#: from two temperature differences; +-1 K on +17 K and +12 K moves it
#: by up to about 10 points.
TOLERANCE_DERIVED_PCT = 10.0
THERMAL_DERIVED_ROWS = ("herding's reduction of the increase",)
#: Simulated instructions per suite call (fast-report trace length).
SUITE_TRACE_LENGTH = 8_000
SUITE_WARMUP = 2_500
#: simulate() calls per suite operation: 24 benchmarks x 6 configs.
SUITE_PAIRS = 144

_NUMBER = re.compile(r"[-+]?\d+(?:\.\d+)?")


class BenchError(Exception):
    """The benchmark itself could not run (not a failed operation)."""


# ---------------------------------------------------------------------- #
# Statistics


def percentile(samples: Sequence[float], p: float) -> Optional[float]:
    """The ``p``-th percentile (nearest rank) of ``samples``, or ``None``
    unless at least ten samples lie beyond it."""
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(p / 100.0 * n))
    if n - rank < 10:
        return None
    return sorted(samples)[rank - 1]


# ---------------------------------------------------------------------- #
# Output checks


def headline_rows(report: str) -> List[List[str]]:
    """``[quantity, paper, measured]`` rows of the report's headline table."""
    lines = report.split("## Headline comparison", 1)[-1].splitlines()
    rows = []
    for line in lines[1:]:
        if not line.strip():
            if rows:
                break
            continue
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) != 3 or cells[0] == "quantity" or set(cells[0]) <= set("-"):
            continue
        rows.append(cells)
    return rows


def paper_gap_pct(rows: Sequence[Sequence[str]]) -> float:
    """Mean of |measured - paper| / |paper| over the numeric rows, in %."""
    gaps = []
    for _, paper, measured in rows:
        p, m = _NUMBER.search(paper), _NUMBER.search(measured)
        if p and m and float(p.group()) != 0:
            gaps.append(abs(float(m.group()) - float(p.group()))
                        / abs(float(p.group())))
    return 100.0 * sum(gaps) / len(gaps) if gaps else float("nan")


def check_headline(rows, reference) -> List[str]:
    """Differences between the headline rows and the reference rows.

    Simulated, power and circuit values must match exactly; a value in
    kelvin within :data:`TOLERANCE_K`, the row derived from temperature
    differences within :data:`TOLERANCE_DERIVED_PCT` points, the text
    around those numbers exactly."""
    problems = []
    got = {row[0]: row[2] for row in rows}
    for quantity, _, expected in reference:
        measured = got.get(quantity)
        if measured is None:
            problems.append(f"headline row {quantity!r} missing")
            continue
        if " K" in expected:
            tolerance = TOLERANCE_K
        elif quantity in THERMAL_DERIVED_ROWS:
            tolerance = TOLERANCE_DERIVED_PCT
        else:
            tolerance = None
        if tolerance is None:
            ok = measured == expected
        else:
            e, m = _NUMBER.search(expected), _NUMBER.search(measured)
            ok = (e is not None and m is not None
                  and abs(float(m.group()) - float(e.group())) <= tolerance
                  and _NUMBER.sub("#", measured, 1) == _NUMBER.sub("#", expected, 1))
        if not ok:
            problems.append(f"headline {quantity!r}: {measured!r} != {expected!r}")
    if len(rows) != len(reference):
        problems.append(f"headline has {len(rows)} rows, reference {len(reference)}")
    return problems


def check_pair(pair: str, outputs, reference, seed: int,
               issue_width: int) -> Optional[str]:
    """Why one simulated pair is wrong, or ``None``."""
    if outputs is None:
        return f"{pair}: simulate() raised"
    if seed == 0:
        expected = reference.get(pair)
        got = {k: v for k, v in outputs.items() if k != "sha256"}
        if got != expected:
            return f"{pair}: differs from the reference"
        return None
    committed = SUITE_TRACE_LENGTH - SUITE_WARMUP
    if outputs["instructions"] != committed:
        return f"{pair}: committed {outputs['instructions']} != {committed}"
    if outputs["cycles"] <= 0 or outputs["instructions"] / outputs["cycles"] > issue_width:
        return f"{pair}: IPC above issue width {issue_width}"
    return None


#: Per-layer counts the design guarantees to be zero, by workload.
ISOLATION = {
    "simulate-suite": ("power.evaluate.calls", "thermal.rasterize.calls",
                       "thermal.factorize.count", "thermal.backsolve.calls",
                       "transient.runs", "transient.steps",
                       "transient.step_factorizations", "cache.load.calls",
                       "cache.store.calls"),
    "report-warm": ("cpu.simulate.calls", "workloads.generate.calls",
                    "cache.store.calls"),
}


def check_isolation(workload: str, layers: Dict[str, float]) -> List[str]:
    return [f"{name} = {layers[name]:g} on {workload}, expected 0"
            for name in ISOLATION.get(workload, ()) if layers[name] != 0]


# ---------------------------------------------------------------------- #
# Running operations


class Runner:
    """Starts operation processes for one benchmark run."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.deadline = time.monotonic() + RUN_BUDGET_S
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self.env = env
        self._serial = 0

    def op(self, kind: str, *, seed: int = 0, cache_dir: Optional[Path] = None,
           setup_only: bool = False, trace: bool = False) -> dict:
        """Run one operation; returns its document, plus ``setup_s`` and
        ``import_s`` measured from just before the process started, and
        the report text for report operations."""
        self._serial += 1
        out = self.work / f"op{self._serial}.json"
        report_out = self.work / f"op{self._serial}.md"
        cmd = [sys.executable, str(HERE / "op.py"), "--kind", kind,
               "--seed", str(seed), "--out", str(out)]
        if kind == "report":
            cmd += ["--report-out", str(report_out)]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd.append("--trace")
        env = dict(self.env)
        if cache_dir is not None:
            env["REPRO_CACHE_DIR"] = str(cache_dir)
        spawned_at = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=self.root, env=env,
                                stdout=subprocess.DEVNULL, stdin=subprocess.DEVNULL)
        try:
            code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            return {"failed": f"{kind} operation timed out"}
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0 or not out.exists():
            return {"failed": f"{kind} operation exited with {code}"}
        doc = json.loads(out.read_text(encoding="utf-8"))
        doc["setup_s"] = doc["ready_at"] - spawned_at
        doc["import_s"] = doc["imported_at"] - spawned_at
        if kind == "report" and not setup_only:
            doc["report"] = report_out.read_text(encoding="utf-8")
        return doc


def _load_reference(name: str):
    path = REFERENCES / name
    if not path.is_file():
        raise BenchError(f"missing reference {path}")
    return json.loads(path.read_text(encoding="utf-8"))


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def warm_template(runner: Runner) -> Path:
    """A result cache filled by one untimed cold report, and that
    report's text, kept in the checkout for the program's current source.

    Each run copies the cache, so every warm run reads the same state;
    the fill runs in a process of its own, so the timed processes start
    with empty in-memory caches."""
    template = runner.root / WORK_DIR / f"warm-{_source_digest(runner.root)}"
    if not (template / "report.md").is_file():
        staging = Path(tempfile.mkdtemp(prefix="fill-", dir=runner.work))
        fill = runner.op("report", cache_dir=staging / "cache")
        if "failed" in fill:
            raise BenchError(f"warm-cache fill failed: {fill['failed']}")
        (staging / "report.md").write_text(fill["report"], encoding="utf-8")
        try:
            os.rename(staging, template)
        except OSError:
            if not (template / "report.md").is_file():
                raise
    return template


def measure(workload: str, seed: int, seconds: float, trace: bool,
            runner: Runner) -> dict:
    """Run one workload; returns attempted/failed counts, problems, and
    the samples the metrics are computed from."""
    kind = "suite" if workload == "simulate-suite" else "report"
    if kind == "suite":
        reference = _load_reference("simulate_suite.json")["pairs"]
    else:
        reference = _load_reference("report_headline.json")["rows"]
    problems: List[str] = []
    shared_cache = None
    baseline_report = None
    if workload == "report-warm":
        template = warm_template(runner)
        shared_cache = runner.work / "cache"
        shutil.copytree(template / "cache", shared_cache)
        baseline_report = (template / "report.md").read_text(encoding="utf-8")

    def cache_dir():
        if kind == "suite":
            return None
        if shared_cache is not None:
            return shared_cache
        return Path(tempfile.mkdtemp(prefix="cache-", dir=runner.work))

    def op(traced=False):
        return runner.op(kind, seed=seed, cache_dir=cache_dir(), trace=traced)

    setups = []
    if trace:
        docs = [op(), op(traced=True)]
    else:
        for _ in range(SETUP_PROBES):
            probe = runner.op(kind, seed=seed, cache_dir=cache_dir(), setup_only=True)
            if "failed" in probe:
                raise BenchError(f"setup probe failed: {probe['failed']}")
            setups.append(probe["setup_s"])
        docs = []
        started = time.monotonic()
        while True:
            docs.append(op())
            elapsed = time.monotonic() - started
            # Start another operation only while its projected end lies
            # nearer the deadline than stopping now does.
            if elapsed + 0.5 * elapsed / len(docs) >= seconds:
                break

    attempted = failed = 0
    digests = None
    for doc in docs:
        if kind == "suite":
            attempted += SUITE_PAIRS
            if "failed" in doc:
                failed += SUITE_PAIRS
                problems.append(doc["failed"])
                continue
            problems.extend(doc["errors"])
            op_digests = {}
            for pair, outputs in doc["pairs"].items():
                label = pair.split("/", 1)[1]
                problem = check_pair(pair, outputs, reference, seed,
                                     doc["issue_width"][label])
                if outputs is not None:
                    op_digests[pair] = outputs["sha256"]
                if problem is None and digests is not None \
                        and digests.get(pair) != op_digests.get(pair):
                    problem = f"{pair}: result differs between operations"
                if problem:
                    failed += 1
                    problems.append(problem)
            digests = digests or op_digests
        else:
            attempted += 1
            if "failed" in doc:
                failed += 1
                problems.append(doc["failed"])
                continue
            report_problems = check_headline(headline_rows(doc["report"]), reference)
            if baseline_report is None:
                baseline_report = doc["report"]
            elif doc["report"] != baseline_report:
                report_problems.append("report bytes differ between operations")
            if workload == "report-warm" and (doc["simulated"] or doc["traces_generated"]):
                report_problems.append("warm report simulated or generated traces")
            if report_problems:
                failed += 1
                problems.extend(report_problems)
        setups.append(doc["setup_s"])
        if "layers" in doc:
            isolation = check_isolation(workload, doc["layers"])
            if isolation:
                failed += 1
                problems.extend(isolation)

    good = [doc for doc in docs if "failed" not in doc]
    result = {"attempted": attempted, "failed": failed, "problems": problems,
              "docs": good, "setups": setups}
    if good and kind == "report":
        result["paper_gap_pct"] = paper_gap_pct(headline_rows(good[0]["report"]))
    return result


# ---------------------------------------------------------------------- #
# Metrics


def unit_of(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("inst_per_s"):
        return "inst/s"
    if name.endswith("steps_per_s"):
        return "steps/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    return "count"


def end_to_end_metrics(docs, setups) -> Dict[str, float]:
    return {
        "wall_s": statistics.median(d["wall_s"] for d in docs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(d["peak_rss_kb"] for d in docs) / 1024.0,
    }


def per_layer_metrics(untraced: dict, traced: dict) -> Dict[str, float]:
    metrics = {"startup.import_s": traced["import_s"]}
    metrics.update(traced["layers"])
    metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    return metrics


def informational(workload: str, run: dict) -> Dict[str, tuple]:
    """Workload-specific figures printed beside the metrics: (value, unit)."""
    docs = run["docs"]
    info = {"failed_frac": (run["failed"] / run["attempted"], "ratio")}
    if workload == "simulate-suite" and docs:
        calls = [s * 1000.0 for d in docs for s in d["call_s"]]
        walls = [d["wall_s"] for d in docs]
        info["sim_ips"] = (docs[0]["instructions"] / statistics.median(walls),
                           "inst/s")
        for p in (50, 90):
            value = percentile(calls, p)
            info[f"sim_call_p{p}_ms"] = (
                float("nan") if value is None else value, "ms")
        info["sim_calls"] = (len(calls), "count")
    if "paper_gap_pct" in run:
        info["paper_gap_pct"] = (run["paper_gap_pct"], "%")
    if workload != "simulate-suite" and docs:
        # The program's own simulate-stage rate (ContextStats), which
        # NOTES.md decomposes into per-layer times.
        stage = docs[-1]["stage_seconds"].get("simulate", 0.0)
        info["program.simulate_stage_s"] = (stage, "s")
        info["program.inst_per_s"] = (
            docs[-1]["instructions_simulated"] / stage if stage else 0.0, "inst/s")
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} holds no src/repro; run from a checkout root",
              file=sys.stderr)
        return 2
    work_root = root / WORK_DIR
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                      Runner(root, work))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    docs = run["docs"]
    traced = [doc for doc in docs if "layers" in doc]
    if not docs or (args.trace and (len(traced) != 1 or len(docs) != 2)):
        for problem in run["problems"]:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer_metrics(docs[0], traced[0])
    else:
        metrics = end_to_end_metrics(docs, run["setups"])
    print(f"workload {args.workload}, seed {args.seed}: {len(docs)} operation(s), "
          f"{len(run['setups'])} setup sample(s)")
    for name, (value, unit) in informational(args.workload, run).items():
        print(f"  {name:<32s} {value:>16.6g} {unit}")
    for name, value in metrics.items():
        print(f"  {name:<32s} {value:>16.6g} {unit_of(name)}")
    for problem in run["problems"][:20]:
        print(f"  FAILED: {problem}")
    correct = run["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
