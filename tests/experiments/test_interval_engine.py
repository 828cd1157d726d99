"""The interval co-simulation engine: grouping, caching, pool identity."""

import numpy as np
import pytest

from repro.experiments.cache import (
    ResultCache,
    interval_trace_key,
    leakage_key,
    transient_key,
)
from repro.experiments.context import (
    CONFIG_STACKS,
    ExperimentContext,
    ExperimentSettings,
    TransientRequest,
)
from repro.experiments.interval import (
    IntervalPowerSchedule,
    IntervalPowerTrace,
    extract_interval_trace,
    run_interval,
)
from repro.experiments.leakage import run_leakage_feedback
from repro.power.model import StackKind
from repro.thermal.solver import FACTORIZATION_STATS, clear_factorization_cache
from repro.thermal.transient import STEP_FACTORIZATION_STATS, step_matrix_key

SETTINGS = ExperimentSettings(
    trace_length=3_000,
    warmup=800,
    benchmarks=("mpeg2",),
    thermal_grid=16,
)
INTERVAL = 700
DT = 20e-3
DURATION = 0.4


@pytest.fixture(scope="module")
def context():
    return ExperimentContext(SETTINGS, jobs=1, cache=None)


@pytest.fixture(scope="module")
def sweep(context):
    clear_factorization_cache()
    return run_interval(
        context,
        interval_insts=INTERVAL,
        dt_s=DT,
        duration_s=DURATION,
    )


class TestSweep:
    def test_one_step_factorization_per_key(self, context, sweep):
        # 6 configs x 2 scenarios collapse onto exactly the distinct
        # (geometry, capacities, dt) step-matrix keys — one per stack.
        keys = {
            step_matrix_key(context.solver(stack), DT)
            for stack in (StackKind.PLANAR_2D, StackKind.STACKED_3D)
        }
        assert len(keys) == 2
        assert STEP_FACTORIZATION_STATS.factorizations == len(keys)
        assert context.stats.transient_groups == len(keys)
        assert context.stats.transient_runs == 2 * len(context.configs)

    def test_rows_cover_all_configs(self, context, sweep):
        assert [row.config for row in sweep.rows] == list(context.configs)
        for row in sweep.rows:
            assert row.throttled_peak_k <= row.free_peak_k
            assert 0.0 <= row.throttle_duty <= 1.0

    def test_throttling_caps_the_peak(self, sweep):
        for row in sweep.rows:
            if row.free_peak_k > row.ceiling_k:
                assert row.throttled_peak_k < row.free_peak_k
                assert row.throttle_duty > 0.0

    def test_format_is_deterministic(self, context, sweep):
        text = sweep.format()
        assert text == sweep.format()
        for label in context.configs:
            assert label in text


class TestExtraction:
    def test_disk_cache_round_trip(self, tmp_path):
        ctx = ExperimentContext(SETTINGS, jobs=1, cache=ResultCache(tmp_path))
        cold = extract_interval_trace(ctx, "mpeg2", "3D", INTERVAL)
        assert ctx.stats.interval_disk_hits == 0
        assert ctx.stats.intervals_extracted == len(cold)
        warm = extract_interval_trace(ctx, "mpeg2", "3D", INTERVAL)
        assert ctx.stats.interval_disk_hits == 1
        assert ctx.stats.intervals_extracted == len(cold)  # unchanged
        assert isinstance(warm, IntervalPowerTrace)
        assert np.array_equal(warm.time_ns, cold.time_ns)
        assert np.array_equal(warm.chip_watts, cold.chip_watts)
        for a, b in zip(warm.die_grids, cold.die_grids):
            assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_trace_matches_aggregate_power(self, context):
        # Interval chip power weighted by interval runtime must average
        # to the aggregate steady-state chip power of the same run.
        trace = extract_interval_trace(context, "mpeg2", "Base", INTERVAL)
        mean_watts = float(
            (trace.chip_watts * trace.time_ns).sum() / trace.time_ns.sum()
        )
        assert mean_watts == pytest.approx(
            context.chip_power_watts("mpeg2", "Base"), rel=1e-9
        )


class TestPoolIdentity:
    def test_pool_matches_inline(self, context):
        traces = {
            label: extract_interval_trace(context, "mpeg2", label, INTERVAL)
            for label in ("Base", "3D")
        }

        def requests():
            out = []
            for label, trace in traces.items():
                ceiling = (
                    context.solver(CONFIG_STACKS[label]).stack.ambient_k + 10.0
                )
                for dt_s in (DT, DT / 2):
                    out.append(TransientRequest(
                        stack=CONFIG_STACKS[label],
                        schedule=IntervalPowerSchedule(
                            trace, pass_s=0.2, ceiling_k=ceiling
                        ),
                        dt_s=dt_s,
                        duration_s=DURATION,
                    ))
            return out

        inline = context.transient_many(requests())

        pooled_ctx = ExperimentContext(SETTINGS, jobs=2, cache=None)
        pooled_ctx.thermal_parallel_min_groups = 1
        pooled_ctx._solvers = context._solvers  # same geometry objects
        pooled = pooled_ctx.transient_many(requests())
        assert pooled_ctx.stats.transient_worker_groups == 4

        for (res_a, stats_a), (res_b, stats_b) in zip(inline, pooled):
            assert res_a.peak_k == res_b.peak_k
            assert stats_a == stats_b
            assert all(
                np.array_equal(a, b)
                for a, b in zip(
                    res_a.final_layer_temps, res_b.final_layer_temps
                )
            )

    def test_plain_callables_stay_inline(self, context):
        solver = context.solver(StackKind.PLANAR_2D)
        ny, nx = solver.chip_grid_shape()
        grids = [np.full((ny, nx), 1.0)]
        ctx = ExperimentContext(SETTINGS, jobs=2, cache=None)
        ctx.thermal_parallel_min_groups = 1
        ctx.transient_many([
            TransientRequest(
                stack=StackKind.PLANAR_2D,
                schedule=lambda t: grids,  # unpicklable: must not pool
                dt_s=DT * (1 + i),
                duration_s=DURATION,
            )
            for i in range(2)
        ])
        assert ctx.stats.transient_worker_groups == 0
        assert ctx.stats.transient_groups == 2


class TestWarmRerun:
    def test_warm_interval_and_leakage_do_no_thermal_work(self, tmp_path):
        """A filled cache serves every transient run and leakage fixed
        point: no stepping and no factorization, steady or step matrix."""
        kwargs = dict(interval_insts=INTERVAL, dt_s=DT, duration_s=DURATION)
        cold = ExperimentContext(SETTINGS, jobs=1, cache=ResultCache(tmp_path))
        cold_interval = run_interval(cold, **kwargs)
        cold_leakage = run_leakage_feedback(cold)
        assert cold.stats.transient_steps > 0

        clear_factorization_cache()  # also drops the step-matrix LRU
        warm = ExperimentContext(SETTINGS, jobs=1, cache=ResultCache(tmp_path))
        warm_interval = run_interval(warm, **kwargs)
        warm_leakage = run_leakage_feedback(warm)
        assert warm.stats.transient_steps == 0
        assert FACTORIZATION_STATS.factorizations == 0
        assert STEP_FACTORIZATION_STATS.factorizations == 0
        assert warm_interval.rows == cold_interval.rows
        assert warm_interval.format() == cold_interval.format()
        assert warm_leakage.outcomes == cold_leakage.outcomes


class TestTransientKey:
    @pytest.fixture(scope="class")
    def traces(self, context):
        return [extract_interval_trace(context, "mpeg2", label, INTERVAL)
                for label in ("Base", "TH")]

    def _key(self, context, trace, *, dt_s=DT, duration_s=DURATION,
             initial_k=None, **schedule):
        params = dict(pass_s=0.5, ceiling_k=350.0, throttle_factor=0.5,
                      hysteresis_k=2.0)
        params.update(schedule)
        return transient_key(
            IntervalPowerSchedule(trace, **params).cache_key(),
            context.solver(StackKind.PLANAR_2D), dt_s, duration_s, initial_k,
        )

    def test_equal_inputs_give_equal_keys(self, context, traces):
        assert self._key(context, traces[0]) == self._key(context, traces[0])

    @pytest.mark.parametrize("change", [
        {"ceiling_k": 351.0},
        {"throttle_factor": 0.6},
        {"hysteresis_k": 3.0},
        {"pass_s": 0.25},
        {"dt_s": DT / 2},
        {"duration_s": 2 * DURATION},
        {"initial_k": 330.0},
    ], ids=lambda change: next(iter(change)))
    def test_every_input_changes_the_key(self, context, traces, change):
        assert self._key(context, traces[0], **change) != \
            self._key(context, traces[0])

    def test_interval_trace_changes_the_key(self, context, traces):
        assert traces[0].key != traces[1].key
        assert self._key(context, traces[1]) != self._key(context, traces[0])

    @pytest.mark.parametrize("module, name", [
        ("repro.experiments.interval", "GOVERNOR_VERSION"),
        ("repro.thermal.solver", "THERMAL_MODEL_VERSION"),
    ])
    def test_code_versions_change_the_key(self, context, traces, monkeypatch,
                                          module, name):
        before = self._key(context, traces[0])
        monkeypatch.setattr(f"{module}.{name}", 99)
        assert self._key(context, traces[0]) != before

    def test_power_model_version_changes_interval_trace_key(self, context,
                                                            monkeypatch):
        def key():
            return interval_trace_key("sim", INTERVAL, 1.0, 2,
                                      context.solver(StackKind.PLANAR_2D))

        before = key()
        monkeypatch.setattr("repro.power.model.POWER_MODEL_VERSION", 99)
        assert key() != before

    def test_feedback_version_changes_leakage_key(self, monkeypatch):
        before = leakage_key("dyn", "leak", 350.0, 35.0)
        monkeypatch.setattr("repro.thermal.feedback.FEEDBACK_VERSION", 99)
        assert leakage_key("dyn", "leak", 350.0, 35.0) != before
