"""Trace container and summary statistics.

A :class:`Trace` is the unit of work a benchmark run consumes: an ordered
stream of committed :class:`~repro.isa.instruction.TraceInstruction` records
plus identifying metadata (name, benchmark class, generator seed).  The
records may exist only in columnar form (:mod:`repro.isa.compiled`):
generated traces are born as rows of one numpy array and build the record
list only when it is read.
:class:`TraceStats` summarizes the properties the paper's techniques
exploit — instruction mix, value-width distribution, address upper-bit
locality, and branch-target displacement locality — and is used both by
tests and by the width-locality example.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional

from repro.isa.instruction import TraceInstruction
from repro.isa.opcodes import OpClass
from repro.isa.values import (
    classify_upper_bits,
    is_low_width,
    upper_bits,
    UpperBitsEncoding,
)


class Trace:
    """An ordered committed-instruction stream with metadata.

    A trace holds one of two forms and derives the other on demand,
    memoized on the instance.  A hand-built trace (tests, microbenchmark
    kernels, examples) starts as a list of records and compiles on its
    first :meth:`compiled` call.  A generated trace is born columnar
    (:meth:`from_compiled`): its ``instructions`` list is materialized
    only when a caller reads records (statistics, phase analysis,
    examples).  Length, iteration, indexing and equality behave the same
    for both.
    """

    #: Compared by value and mutable through its memo, so not hashable.
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        name: str,
        instructions: List[TraceInstruction],
        benchmark_class: str = "unknown",
        seed: Optional[int] = None,
    ):
        self.name = name
        self._instructions: Optional[List[TraceInstruction]] = instructions
        self.benchmark_class = benchmark_class
        self.seed = seed
        self._compiled = None

    @classmethod
    def from_compiled(cls, compiled) -> "Trace":
        """A trace whose columnar form already exists; its records are
        rebuilt from the rows on first read."""
        trace = cls(compiled.name, [], compiled.benchmark_class, compiled.seed)
        trace._instructions = None
        trace._compiled = compiled
        return trace

    @property
    def instructions(self) -> List[TraceInstruction]:
        if self._instructions is None:
            self._instructions = self._compiled.instructions()
        return self._instructions

    def __len__(self) -> int:
        if self._instructions is None:
            return len(self._compiled)
        return len(self._instructions)

    def __iter__(self) -> Iterator[TraceInstruction]:
        return iter(self.instructions)

    def __getitem__(self, index):
        return self.instructions[index]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.benchmark_class, self.seed, self.instructions) \
            == (other.name, other.benchmark_class, other.seed, other.instructions)

    def __repr__(self) -> str:
        return (f"Trace(name={self.name!r}, length={len(self)}, "
                f"benchmark_class={self.benchmark_class!r}, seed={self.seed!r})")

    def stats(self) -> "TraceStats":
        return TraceStats.from_instructions(self.instructions)

    def compiled(self):
        """The columnar form of this trace.

        Compilation is memoized on the instance: a sweep replays one
        trace object under six configurations.  A trace the fixed-width
        columns cannot represent raises
        :class:`~repro.isa.compiled.TraceCompileError` naming the pc of
        the offending instruction.
        """
        if self._compiled is None:
            from repro.isa.compiled import compile_trace

            self._compiled = compile_trace(self)
        return self._compiled


@dataclass
class TraceStats:
    """Summary statistics of a trace.

    All fractions are over the relevant instruction subset (e.g.
    ``low_width_result_fraction`` is over register-writing integer-datapath
    instructions).
    """

    count: int = 0
    op_mix: Dict[OpClass, float] = field(default_factory=dict)
    low_width_result_fraction: float = 0.0
    low_width_operand_fraction: float = 0.0
    branch_fraction: float = 0.0
    taken_fraction: float = 0.0
    memory_fraction: float = 0.0
    dcache_encoding_mix: Dict[UpperBitsEncoding, float] = field(default_factory=dict)
    address_upper_match_fraction: float = 0.0
    near_target_fraction: float = 0.0

    @classmethod
    def from_instructions(cls, instructions: Iterable[TraceInstruction]) -> "TraceStats":
        op_counts: Counter = Counter()
        enc_counts: Counter = Counter()
        total = 0
        int_writes = 0
        low_results = 0
        int_reads = 0
        low_operands = 0
        branches = 0
        taken = 0
        memory = 0
        addr_matches = 0
        near_targets = 0
        control_taken_total = 0
        last_store_upper: Optional[int] = None

        for inst in instructions:
            total += 1
            op_counts[inst.op] += 1
            if inst.op.is_memory:
                memory += 1
                assert inst.mem_addr is not None
                if last_store_upper is not None and upper_bits(inst.mem_addr) == last_store_upper:
                    addr_matches += 1
                if inst.op is OpClass.STORE:
                    last_store_upper = upper_bits(inst.mem_addr)
                if inst.mem_value is not None:
                    enc_counts[classify_upper_bits(inst.mem_value, inst.mem_addr)] += 1
            if inst.op is OpClass.BRANCH:
                branches += 1
                if inst.taken:
                    taken += 1
            if inst.op.is_control and inst.taken and inst.target is not None:
                control_taken_total += 1
                if upper_bits(inst.target) == upper_bits(inst.pc):
                    near_targets += 1
            if inst.op.is_integer_datapath:
                if inst.writes_register:
                    int_writes += 1
                    if inst.result_is_low_width:
                        low_results += 1
                for value in inst.src_values:
                    int_reads += 1
                    if is_low_width(value):
                        low_operands += 1

        def frac(n: int, d: int) -> float:
            return n / d if d else 0.0

        return cls(
            count=total,
            op_mix={op: frac(c, total) for op, c in sorted(op_counts.items(), key=lambda kv: kv[0].value)},
            low_width_result_fraction=frac(low_results, int_writes),
            low_width_operand_fraction=frac(low_operands, int_reads),
            branch_fraction=frac(branches, total),
            taken_fraction=frac(taken, branches),
            memory_fraction=frac(memory, total),
            dcache_encoding_mix={enc: frac(c, sum(enc_counts.values())) for enc, c in sorted(enc_counts.items())},
            address_upper_match_fraction=frac(addr_matches, memory),
            near_target_fraction=frac(near_targets, control_taken_total),
        )

    def format(self) -> str:
        """Render the statistics as an aligned text block."""
        lines = [f"instructions              {self.count}"]
        for op, fraction in self.op_mix.items():
            lines.append(f"  {op.value:<22s}  {fraction:6.1%}")
        lines.append(f"low-width results         {self.low_width_result_fraction:6.1%}")
        lines.append(f"low-width operands        {self.low_width_operand_fraction:6.1%}")
        lines.append(f"branch fraction           {self.branch_fraction:6.1%}")
        lines.append(f"taken fraction            {self.taken_fraction:6.1%}")
        lines.append(f"memory fraction           {self.memory_fraction:6.1%}")
        lines.append(f"addr upper-bits match     {self.address_upper_match_fraction:6.1%}")
        lines.append(f"near branch targets       {self.near_target_fraction:6.1%}")
        for enc, fraction in self.dcache_encoding_mix.items():
            lines.append(f"  L1D encoding {enc.name:<16s} {fraction:6.1%}")
        return "\n".join(lines)
