"""One benchmark operation in a fresh interpreter.

``run.py`` starts this script once per operation, so the program's
in-process LRUs (factorization, step-matrix and mask caches) start
empty every time, as they do for a user's ``python -m repro report``.
The script writes one JSON document to ``--out``:

* ``imported_at`` / ``ready_at``: ``time.monotonic()`` readings after the
  ``repro`` imports and after context/config construction.  On Linux the
  monotonic clock is system-wide, so the parent subtracts its own reading
  taken just before it started this process;
* ``wall_s``: host wall time of the timed phase;
* ``peak_rss_kb``: this process's peak resident memory;
* the outputs ``run.py`` checks, and with ``--trace`` the per-layer metrics.

Usage (normally only ``run.py`` calls it; ``src`` must be importable)::

    python3 perfbench/op.py --kind suite --seed 0 --out result.json
    python3 perfbench/op.py --kind report --report-out report.md --out result.json
"""

import time

STARTED_AT = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

#: The fast-report fidelity (``repro.cli.FAST_SETTINGS``).
TRACE_LENGTH = 8_000
WARMUP = 2_500


def suite_seed(spec_seed: int, seed: int) -> int:
    """The emulator seed of one suite benchmark for workload ``seed``;
    seed 0 keeps each benchmark's own seed, the one the references use."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return spec_seed + 1000 * seed


def pair_outputs(result) -> dict:
    """The simulated statistics the references pin for one pair."""
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "stalls": result.stalls.as_dict(),
        "cpi_stack": dict(sorted(result.cpi_stack.items())),
    }


def run_suite(args, doc, tracer):
    from repro.cpu.pipeline import simulate
    from repro.experiments.context import _all_configurations
    from repro.workloads.suite import BENCHMARKS, benchmark_names

    doc["imported_at"] = time.monotonic()
    configs = _all_configurations()
    names = benchmark_names()
    seeds = {name: suite_seed(BENCHMARKS[name].seed, args.seed) for name in names}
    doc["ready_at"] = time.monotonic()
    if args.setup_only:
        return
    if tracer is not None:
        from tracer import install
        install(tracer)
    # ``generate`` is looked up after install so a traced run calls the
    # wrapper, as every other site in the program does.
    from repro.workloads import suite

    latencies = []
    results = []
    errors = []
    clock = time.perf_counter
    start = clock()
    for name in names:
        trace = suite.generate(name, length=TRACE_LENGTH, seed=seeds[name])
        for label, config in configs.items():
            t0 = clock()
            try:
                result = simulate(trace, config, warmup=WARMUP)
            except Exception:  # one failed call is one failed operation
                errors.append(f"{name}/{label}: {traceback.format_exc(limit=3)}")
                result = None
            latencies.append(clock() - t0)
            results.append((f"{name}/{label}", result))
    doc["wall_s"] = clock() - start
    doc["call_s"] = latencies
    doc["instructions"] = TRACE_LENGTH * len(latencies)
    doc["errors"] = errors
    doc["issue_width"] = {label: c.issue_width for label, c in configs.items()}
    doc["pairs"] = {
        pair: None if result is None else {
            **pair_outputs(result),
            "sha256": hashlib.sha256(
                pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
            ).hexdigest(),
        }
        for pair, result in results
    }
    if tracer is not None:
        from tracer import layer_metrics
        doc["layers"] = layer_metrics(tracer, doc["wall_s"])


def run_report(args, doc, tracer):
    from repro.cli import FAST_SETTINGS
    from repro.experiments.context import ExperimentContext

    doc["imported_at"] = time.monotonic()
    context = ExperimentContext(FAST_SETTINGS, jobs=1)
    doc["ready_at"] = time.monotonic()
    if args.setup_only:
        return
    if tracer is not None:
        from tracer import install
        install(tracer)
    # Looked up after install, for the reason given in run_suite.
    from repro.experiments import report

    start = time.perf_counter()
    text = report.generate_report(context)
    doc["wall_s"] = time.perf_counter() - start
    with open(args.report_out, "w", encoding="utf-8") as stream:
        stream.write(text)
    doc["errors"] = []
    stats = context.stats
    doc["simulated"] = stats.simulated
    doc["traces_generated"] = stats.traces_generated
    doc["instructions_simulated"] = stats.instructions_simulated
    doc["stage_seconds"] = dict(stats.stage_seconds)
    if tracer is not None:
        from tracer import layer_metrics
        doc["layers"] = layer_metrics(tracer, doc["wall_s"], context)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", choices=("suite", "report"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--report-out")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    doc = {"started_at": STARTED_AT}
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    (run_suite if args.kind == "suite" else run_report)(args, doc, tracer)
    doc["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tmp = f"{args.out}.tmp"
    with open(tmp, "w", encoding="utf-8") as stream:
        json.dump(doc, stream)
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
