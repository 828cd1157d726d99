"""Tests of the benchmark harness itself.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import run
from tracer import Tracer, layer_metrics

PERFBENCH = Path(run.__file__).resolve().parent
ROOT = PERFBENCH.parent


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    t = Tracer(clock)

    def at(when, action, *args):
        clock.now = when
        return action(*args)

    a = at(0, t.begin, "A")
    b = at(1, t.begin, "B")
    at(3, t.end, b)
    c = at(4, t.begin, "A")     # A nested in A: counted once inclusively
    d = at(5, t.begin, "D")
    at(6, t.end, d)
    at(7, t.end, c)
    at(10, t.end, a)
    e = at(12, t.begin, "E")
    at(13, t.end, e)

    assert t.self_time(a) == 10 - (2 + 3)
    assert t.self_time(c) == 3 - 1
    assert t.self_time(b) == 2
    assert t.self_total(["A"]) == 5 + 2
    assert t.inclusive(["A"]) == 10
    assert t.inclusive(["A", "D"]) == 10
    assert t.inclusive(["D"]) == 1
    assert t.calls("A") == 2
    assert t.top_level() == 11


def test_self_time_clips_children_to_the_parent():
    clock = FakeClock()
    t = Tracer(clock)
    a = t.begin("A")
    clock.now = 2
    b = t.begin("B")
    clock.now = 4
    t.end(b)
    clock.now = 5
    t.end(a)
    t.spans[b].end = 9          # a child reaching past its parent
    assert t.self_time(a) == 5 - 3


def test_spans_must_close_in_order():
    t = Tracer(FakeClock())
    a = t.begin("A")
    t.begin("B")
    with pytest.raises(RuntimeError):
        t.end(a)


@pytest.mark.parametrize("n, p, ok", [
    (100, 90, True), (99, 90, False), (144, 90, True),
    (20, 50, True), (19, 50, False), (1000, 99, True), (999, 99, False),
])
def test_percentile_needs_ten_samples_beyond(n, p, ok):
    samples = list(range(n, 0, -1))
    value = run.percentile(samples, p)
    if ok:
        assert sum(1 for s in samples if s > value) >= 10
    else:
        assert value is None


def test_benchmark_json_lists_what_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    empty = Tracer(FakeClock())
    traced = {"import_s": 1.0, "wall_s": 2.0,
              "layers": layer_metrics(empty, 2.0)}
    names = list(run.per_layer_metrics({"wall_s": 1.0}, traced))
    assert [m["name"] for m in spec["per_layer"]] == names
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])


def test_headline_check_tolerates_kelvin_but_not_simulated_values():
    reference = json.loads((PERFBENCH / "references" / "report_headline.json")
                           .read_text())["rows"]
    assert run.check_headline(reference, reference) == []
    rows = [list(r) for r in reference]
    kelvin = next(r for r in rows if r[0] == "3D temp increase, herding")
    delta = float(run._NUMBER.search(kelvin[2]).group())
    kelvin[2] = f"{delta + 1:+.0f} K"
    assert run.check_headline(rows, reference) == []
    kelvin[2] = f"{delta + 2:+.0f} K"
    assert len(run.check_headline(rows, reference)) == 1
    kelvin[2] = f"{delta:+.0f} K"
    simulated = next(r for r in rows if r[0] == "mean performance gain")
    simulated[2] = simulated[2].replace("+", "+1", 1)
    assert len(run.check_headline(rows, reference)) == 1


def test_corrupted_reference_counts_as_failed(tmp_path, monkeypatch, capsys):
    refs = tmp_path / "references"
    shutil.copytree(PERFBENCH / "references", refs)
    suite = json.loads((refs / "simulate_suite.json").read_text())
    suite["pairs"]["mcf/TH"]["cycles"] += 1
    (refs / "simulate_suite.json").write_text(json.dumps(suite))
    monkeypatch.setattr(run, "REFERENCES", refs)
    monkeypatch.chdir(ROOT)
    code = run.main(["--workload", "simulate-suite", "--seed", "0",
                     "--seconds", "1", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["attempted"] == run.SUITE_PAIRS


def test_run_refuses_a_directory_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "report-cold", "--seed", "1",
                     "--seconds", "1", "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""


#: Runs in its own interpreter: installing the wrappers patches the
#: program for the rest of the process.
_IDENTITY_SCRIPT = textwrap.dedent("""
    import pickle, sys, tempfile
    from repro.experiments.context import ExperimentContext, ExperimentSettings
    from repro.experiments.cache import ResultCache
    from repro.experiments import report
    from repro.thermal.power_map import clear_mask_cache
    from repro.thermal.solver import clear_factorization_cache
    from repro.cpu.pipeline import simulate
    from repro.experiments.context import _all_configurations
    from repro.workloads import suite
    import tracer

    settings = ExperimentSettings(trace_length=3000, warmup=1000,
                                  benchmarks=("mpeg2", "mcf"), thermal_grid=24)
    configs = _all_configurations()

    def outputs():
        text = report.generate_report(ExperimentContext(
            settings, jobs=1, cache=ResultCache(tempfile.mkdtemp())))
        results = [pickle.dumps(simulate(suite.generate(name, length=3000),
                                         config, warmup=1000))
                   for name in ("adpcm", "mcf") for config in configs.values()]
        clear_factorization_cache()
        clear_mask_cache()
        return text, results

    plain = outputs()
    t = tracer.Tracer()
    tracer.install(t)
    traced = outputs()
    assert t.calls("report") == 1 and t.calls("thermal.factorize") > 0
    assert t.calls("transient.run_many") > 0 and t.calls("cache.store") > 0
    assert traced[0] == plain[0], "traced report differs"
    assert traced[1] == plain[1], "traced results pickle differently"
    print("identical")
""")


def test_span_wrappers_leave_results_unchanged(tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(PERFBENCH)])
    out = subprocess.run([sys.executable, "-c", _IDENTITY_SCRIPT], cwd=tmp_path,
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().endswith("identical")
