"""Generated traces are born columnar.

The emulator writes trace rows directly; ``TraceInstruction`` records
are materialized only when read.  These tests pin that the born array is
the one :func:`compile_trace` would build from the records, that the
records are valid and the container behaves as an object-built trace,
and that neither compilation nor simulation of a generated trace builds
records or calls the compiler.
"""

import pytest

import repro.isa.compiled as compiled_module
from repro.cpu.pipeline import simulate
from repro.experiments.context import _all_configurations
from repro.isa.compiled import (
    CompiledTrace,
    TraceCompileError,
    compile_trace,
    compiled_from_rows,
)
from repro.isa.opcodes import OpClass
from repro.isa.trace import Trace
from repro.workloads.emulator import Emulator
from repro.workloads.parameters import CLASS_PARAMETERS, BenchmarkClass
from repro.workloads.program import build_program
from repro.workloads.suite import generate

#: One benchmark per suite class: narrow media, pointer chasing, FP,
#: integer and bio workloads.
SAMPLE = ("adpcm", "mcf", "swim", "gzip", "yacr2", "hmmer")
LENGTH = 3_000


def _object_built(trace: Trace) -> Trace:
    """An equal trace that starts from a record list."""
    return Trace(trace.name, list(trace.instructions), trace.benchmark_class,
                 trace.seed)


@pytest.mark.parametrize("name", SAMPLE)
def test_compiling_the_records_gives_the_born_array(name):
    generated = generate(name, length=LENGTH)
    born = generated.compiled().array
    rebuilt = compile_trace(_object_built(generated)).array
    assert rebuilt.dtype == born.dtype
    assert rebuilt.tobytes() == born.tobytes()


@pytest.mark.parametrize("name", SAMPLE)
def test_materialized_records_are_valid(name):
    instructions = generate(name, length=LENGTH).instructions
    assert len(instructions) == LENGTH
    for inst in instructions:
        inst.__post_init__()


@pytest.mark.parametrize("name", SAMPLE)
def test_container_behaves_as_object_built(name):
    born = generate(name, length=LENGTH)
    hand = _object_built(generate(name, length=LENGTH))
    assert len(born) == len(hand) == LENGTH
    assert list(born) == list(hand)
    assert born[0] == hand[0]
    assert born[-1] == hand[-1]
    assert born[100:140] == hand[100:140]
    assert born.stats() == hand.stats()
    assert born == hand and hand == born
    assert born != generate(name, length=LENGTH, seed=born.seed + 1)
    assert born != generate(name, length=LENGTH - 1)


def test_generation_compilation_and_simulation_build_no_records(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a generated trace was compiled or materialized")

    monkeypatch.setattr(compiled_module, "compile_trace", refuse)
    monkeypatch.setattr(CompiledTrace, "instructions", refuse)
    trace = generate("adpcm", length=LENGTH)
    assert len(trace) == LENGTH
    assert trace.compiled() is trace.compiled()
    assert len(trace.compiled()) == LENGTH
    result = simulate(trace, _all_configurations()["TH"], warmup=500)
    assert result.instructions == LENGTH - 500


def test_from_compiled_round_trips_through_records():
    compiled = generate("mcf", length=LENGTH).compiled()
    back = Trace.from_compiled(compiled)
    assert back.compiled() is compiled
    assert compile_trace(_object_built(back)).array.tobytes() == \
        compiled.array.tobytes()


class TestRowStrictness:
    ROW = (0x1000, 0, 1, 1, 3, 0, 5, 7, 7, 0,
           False, 0, False, 0, False, False, 0)

    def _with(self, **fields):
        names = compiled_module.TRACE_DTYPE.names
        row = list(self.ROW)
        for name, value in fields.items():
            row[names.index(name)] = value
        return tuple(row)

    def test_in_range_rows_build(self):
        compiled = compiled_from_rows([self.ROW], "t", "c", 1)
        assert (compiled.name, compiled.benchmark_class, compiled.seed) == \
            ("t", "c", 1)
        assert compiled.instructions()[0].result == 7

    @pytest.mark.parametrize("field, value", [
        ("result", 1 << 64),
        ("mem_addr", -8),
        ("target", 1 << 70),
        ("dst", 1 << 15),
        ("src0", -(1 << 15) - 1),
    ])
    def test_out_of_range_row_names_field_and_pc(self, field, value):
        rows = [self.ROW, self._with(pc=0x2468, **{field: value})]
        with pytest.raises(TraceCompileError, match=f"{field}=.*pc=0x2468"):
            compiled_from_rows(rows, "t", "c", 1)

    def test_emulator_rejects_templates_with_too_many_sources(self):
        params = CLASS_PARAMETERS[BenchmarkClass.MEDIABENCH]
        program = build_program(params, 1)
        template = next(t for t in program.loops[0].body
                        if t.op is not OpClass.CALL)
        template.srcs = (1, 2, 3)
        with pytest.raises(TraceCompileError, match=f"pc={template.pc:#x}"):
            Emulator(program, 1).run(100)

