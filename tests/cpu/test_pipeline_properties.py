"""Property-based tests: the timing model on arbitrary valid traces."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cpu.config import baseline_config, full_3d_config
from repro.cpu.pipeline import TimingSimulator, simulate
from repro.cpu.predecode import predecode
from repro.cpu.wavefront import IntervalCapture, build_interval_series
from repro.experiments.context import _all_configurations
from repro.isa.instruction import TraceInstruction
from repro.isa.opcodes import OpClass
from repro.isa.trace import Trace

#: The six paper configurations.
CONFIGS = _all_configurations()

_CODE = 0x40_0000
_HEAP = 0x2AAA_0000_0000


@st.composite
def mini_traces(draw):
    """A small, structurally valid committed-instruction trace."""
    length = draw(st.integers(min_value=4, max_value=60))
    instructions = []
    pc = _CODE
    for i in range(length):
        kind = draw(st.sampled_from(["alu", "load", "store", "branch", "fp"]))
        value = draw(st.integers(min_value=0, max_value=(1 << 64) - 1))
        reg = draw(st.integers(min_value=0, max_value=29))
        if kind == "alu":
            inst = TraceInstruction(
                pc=pc, op=OpClass.IALU, srcs=(reg,), dst=(reg + 1) % 30,
                result=value, src_values=(value,),
            )
        elif kind == "load":
            addr = _HEAP + draw(st.integers(min_value=0, max_value=1 << 16)) * 8
            inst = TraceInstruction(
                pc=pc, op=OpClass.LOAD, srcs=(reg,), dst=(reg + 1) % 30,
                result=value, src_values=(addr,), mem_addr=addr, mem_value=value,
            )
        elif kind == "store":
            addr = _HEAP + draw(st.integers(min_value=0, max_value=1 << 16)) * 8
            inst = TraceInstruction(
                pc=pc, op=OpClass.STORE, srcs=(reg, (reg + 1) % 30),
                src_values=(addr, value), mem_addr=addr, mem_value=value,
            )
        elif kind == "branch":
            taken = draw(st.booleans())
            # Forward target within the trace keeps the PC space small.
            target = pc + 4 * draw(st.integers(min_value=1, max_value=4))
            inst = TraceInstruction(
                pc=pc, op=OpClass.BRANCH, srcs=(reg,), src_values=(value,),
                taken=taken, target=target if taken else None,
            )
            if taken:
                pc = target - 4
        else:
            inst = TraceInstruction(
                pc=pc, op=OpClass.FADD, srcs=(40, 41), dst=42,
                result=value, src_values=(1, 2),
            )
        instructions.append(inst)
        pc += 4
    return Trace(name="prop", instructions=instructions)


@pytest.mark.parametrize("label", list(CONFIGS))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(trace=mini_traces())
def test_simulation_invariants(label, trace):
    config = CONFIGS[label]
    result = simulate(trace, config)
    # Committed everything, took at least ceil(n / commit_width) cycles.
    assert result.instructions == len(trace)
    assert result.cycles >= len(trace) / config.commit_width
    # Every instruction passed rename exactly once.
    assert result.activity.module("rename").total == len(trace)
    # IPC bounded by machine width.
    assert result.ipc <= config.commit_width
    if not config.thermal_herding:
        assert result.width_stats is None
        return
    stats = result.width_stats
    datapath = sum(1 for i in trace if i.op.is_integer_datapath)
    assert stats.predictions == datapath
    assert (stats.correct + stats.unsafe_mispredictions
            + stats.safe_mispredictions) == stats.predictions
    # Herded fractions are true fractions.
    for metric, value in result.herding.items():
        if metric.startswith("herded::") or metric.endswith("_herded") \
                or metric.endswith("herded_loads"):
            assert 0.0 <= value <= 1.0, metric


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(trace=mini_traces(), label=st.sampled_from(list(CONFIGS)),
       data=st.data())
def test_interval_buckets_sum_to_aggregate(trace, label, data):
    """Interval buckets partition the measured window: instructions,
    cycles and every module's activity sum exactly to the aggregate."""
    config = CONFIGS[label]
    warmup = data.draw(st.integers(min_value=0, max_value=len(trace) - 1))
    interval = data.draw(st.integers(min_value=1, max_value=len(trace)))
    pre = predecode(trace.compiled())
    capture = IntervalCapture(interval)
    result = TimingSimulator(config).run_compiled(pre, warmup=warmup,
                                                  capture=capture)
    series = build_interval_series(pre, config, warmup, True, capture,
                                   result.activity)
    assert len(series) == -(-(len(trace) - warmup) // interval)
    assert int(series.insts.sum()) == result.instructions
    # A result reports at least one cycle even when a short measured
    # window commits within the warmup's last commit cycle.
    assert max(int(series.cycles.sum()), 1) == result.cycles
    aggregate = result.activity.modules()
    for counters in series.counters:
        assert list(counters.modules()) == list(aggregate)
    for name, module in aggregate.items():
        buckets = [c.modules()[name] for c in series.counters]
        assert sum(b.total for b in buckets) == module.total
        assert sum(b.top_only for b in buckets) == module.top_only
        assert [sum(d) for d in zip(*(b.per_die for b in buckets))] \
            == module.per_die


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mini_traces())
def test_determinism_property(trace):
    a = simulate(trace, full_3d_config())
    b = simulate(trace, full_3d_config())
    assert a.cycles == b.cycles
    assert a.stalls.total == b.stalls.total


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mini_traces())
def test_th_never_commits_different_work(trace):
    """Thermal Herding changes timing, never the committed instructions."""
    base = simulate(trace, baseline_config())
    herded = simulate(trace, full_3d_config())
    assert base.instructions == herded.instructions
