"""Functional emulator: synthetic program -> committed-instruction trace.

The emulator walks a :class:`~repro.workloads.program.SyntheticProgram`,
maintaining a real architectural register file and a lazy data memory, and
writes one row per committed instruction, a tuple in
:data:`~repro.isa.compiled.TRACE_DTYPE` field order.  All value widths,
address upper bits, and branch targets in the trace are therefore
*computed*, which is what lets the Thermal Herding statistics emerge
naturally downstream.

Traces are born columnar: :func:`generate_trace` turns the rows into the
compiled array with one ``np.array`` call, and
:class:`~repro.isa.instruction.TraceInstruction` records exist only if a
caller reads them.  Each static instruction is resolved once per run
into a *step*, a closure holding its row constants (pc, op code,
register slots) and its value rule, so the per-instruction path does no
enum dispatch.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from typing import Callable, Dict, List, Optional, Tuple

from repro.isa.compiled import OP_CODE, TraceCompileError, compiled_from_rows
from repro.isa.instruction import MAX_SOURCES
from repro.isa.opcodes import OpClass
from repro.isa.registers import TOTAL_REGS, STACK_POINTER_REG, ZERO_REG
from repro.isa.trace import Trace
from repro.isa.values import to_unsigned
from repro.workloads.memory_model import (
    AccessPattern,
    MemoryModel,
    STACK_BASE,
    STACK_SIZE,
    WORD_BYTES,
)
from repro.workloads.parameters import WorkloadParameters
from repro.workloads.program import (
    InstTemplate,
    Loop,
    SyntheticProgram,
    ValueKind,
    build_program,
)

#: Trace-generator version, part of the on-disk result-cache key.  Bump on
#: any change that alters generated traces so stale entries never hit.
GENERATOR_VERSION = 1

_MASK64 = (1 << 64) - 1
_WORD_ALIGN = ~(WORD_BYTES - 1)
_HASH_MULT = 0x9E3779B97F4A7C15

#: Register-file slots past the architectural registers.  An absent
#: source reads the constant-zero slot, and a result with no
#: architectural destination (or bound for the zero register) lands in
#: the discard slot, so every step reads two sources and writes one
#: destination without branching.
_ZERO_SLOT = TOTAL_REGS
_DISCARD_SLOT = TOTAL_REGS + 1

_BRANCH = OP_CODE[OpClass.BRANCH]
_CALL = OP_CODE[OpClass.CALL]
_JUMP = OP_CODE[OpClass.JUMP]
_LOAD = OP_CODE[OpClass.LOAD]
_RETURN = OP_CODE[OpClass.RETURN]
_STORE = OP_CODE[OpClass.STORE]

#: A step emits its instruction's row and returns how many templates of
#: its block it consumed (more than one for a taken forward branch).
Step = Callable[[], int]


def _transfer_row(pc: int, op: int, target: int) -> tuple:
    """The row of a taken, source-free control transfer."""
    return (pc, op, 0, 0, 0, 0, -1, 0, 0, 0,
            False, 0, False, 0, True, True, target)


def _slots(template: InstTemplate) -> Tuple[int, int, int, int, int]:
    """``(nsrcs, src0, src1, read0, read1)``: the row's source columns
    and the register slots a step reads for them."""
    srcs = tuple(template.srcs)
    if len(srcs) > MAX_SOURCES:
        raise TraceCompileError(
            f"{len(srcs)} sources at pc={template.pc:#x} exceed the "
            f"{MAX_SOURCES}-column layout"
        )
    src0, src1 = (srcs + (0, 0))[:2]
    read0, read1 = (srcs + (_ZERO_SLOT, _ZERO_SLOT))[:2]
    return len(srcs), src0, src1, read0, read1


class Emulator:
    """Walks a synthetic program and produces trace rows."""

    def __init__(self, program: SyntheticProgram, seed: int):
        self._program = program
        self._params = program.parameters
        # Independent random streams: control flow, memory values, layout.
        self._flow_rng = random.Random(seed ^ 0xC0FFEE)
        mem_rng = random.Random(seed ^ 0xDA7A)
        self._memory = MemoryModel(
            value_dist=self._params.value_dist,
            footprint_bytes=self._params.footprint_bytes,
            rng=mem_rng,
        )
        self._regs: List[int] = [0] * (TOTAL_REGS + 2)
        self._regs[STACK_POINTER_REG] = STACK_BASE + STACK_SIZE // 2
        # Initialize pointer registers into the heap so first uses are sane.
        for reg in range(24, 30):
            self._regs[reg] = self._memory.heap.align(mem_rng.randrange(0, self._params.footprint_bytes))
        self._cursors: Dict[int, int] = {}
        #: Bytes of the heap's start that pointer chases walk.
        self._chase_pool = min(self._params.chase_pool_bytes, self._memory.heap.size)
        self._rows: List[tuple] = []
        self._limit = 0

    def run(self, length: int) -> List[tuple]:
        """Emit at least ``length`` rows, then truncate to ``length``.

        Each row is a tuple in :data:`~repro.isa.compiled.TRACE_DTYPE`
        field order.
        """
        if length <= 0:
            raise ValueError(f"trace length must be positive, got {length}")
        rows = self._rows = []
        self._limit = length
        leaves = [
            ([self._execute_step(t) for t in leaf.body], leaf)
            for leaf in self._program.leaves
        ]
        loops = self._program.loops
        blocks = [
            ([self._execute_step(t) for t in loop.preamble],
             [self._body_step(loop, i, leaves) for i in range(len(loop.body))])
            for loop in loops
        ]
        loop_order = list(range(len(loops)))
        previous: Optional[int] = None
        while len(rows) < length:
            self._flow_rng.shuffle(loop_order)
            for index in loop_order:
                if previous is not None:
                    # Keep the committed path sequential across loops.
                    exit_jump = loops[previous].exit_jump
                    assert exit_jump is not None
                    rows.append(_transfer_row(
                        exit_jump.pc, _JUMP, loops[index].entry_pc))
                    if len(rows) >= length:
                        break
                self._run_loop(loops[index], *blocks[index])
                previous = index
                if len(rows) >= length:
                    break
        del rows[length:]
        return rows

    # ------------------------------------------------------------------ #

    def _run_loop(self, loop: Loop, preamble: List[Step], body: List[Step]) -> None:
        rows = self._rows
        limit = self._limit
        regs = self._regs
        trips = 1 + self._geometric(loop.mean_trip_count)
        for step in preamble:
            if len(rows) >= limit:
                return
            step()
        pc = loop.back_edge.pc
        nsrcs, src0, src1, read0, read1 = _slots(loop.back_edge)
        size = len(body)
        for trip in range(trips):
            if len(rows) >= limit:
                return
            i = 0
            while i < size and len(rows) < limit:
                i += body[i]()
            taken = trip != trips - 1
            rows.append((pc, _BRANCH, nsrcs, nsrcs, src0, src1, -1, 0,
                         regs[read0], regs[read1], False, 0, False, 0,
                         taken, taken, loop.start_pc if taken else 0))

    def _body_step(self, loop: Loop, index: int, leaves) -> Step:
        """The step of ``loop.body[index]``: forward branches and calls
        are resolved here, everything else by :meth:`_execute_step`."""
        template = loop.body[index]
        if template.op is OpClass.BRANCH and not template.is_back_edge:
            landing = index + template.skip_count + 1
            target = (loop.body[landing].pc if landing < len(loop.body)
                      else loop.back_edge.pc)
            return self._branch_step(template, target)
        if template.op is OpClass.CALL:
            assert template.callee is not None
            return self._call_step(template, *leaves[template.callee])
        return self._execute_step(template)

    def _call_step(self, call: InstTemplate, body: List[Step], leaf) -> Step:
        rows = self._rows
        limit = self._limit
        call_row = _transfer_row(call.pc, _CALL, leaf.entry_pc)
        return_row = _transfer_row(leaf.ret.pc, _RETURN, call.pc + 4)

        def step() -> int:
            rows.append(call_row)
            for leaf_step in body:
                if len(rows) >= limit:
                    return 1
                leaf_step()
            rows.append(return_row)
            return 1

        return step

    def _branch_step(self, template: InstTemplate, target: int) -> Step:
        """A forward conditional branch.

        Periodic branches are taken except on the last occurrence of each
        period (with a small noise probability); others are biased coins.
        """
        rows = self._rows
        regs = self._regs
        draw = self._flow_rng.random
        noise = self._params.branch_noise
        bias = template.taken_bias
        period = template.pattern_period
        consumed = template.skip_count + 1
        pc = template.pc
        nsrcs, src0, src1, read0, read1 = _slots(template)
        count = 0

        def step() -> int:
            nonlocal count
            if period:
                taken = count % period != period - 1
                count += 1
                if draw() < noise:
                    taken = not taken
            else:
                taken = draw() < bias
            rows.append((pc, _BRANCH, nsrcs, nsrcs, src0, src1, -1, 0,
                         regs[read0], regs[read1], False, 0, False, 0,
                         taken, taken, target if taken else 0))
            return consumed if taken else 1

        return step

    # ------------------------------------------------------------------ #

    def _execute_step(self, template: InstTemplate) -> Step:
        if template.op is OpClass.LOAD:
            return self._load_step(template)
        if template.op is OpClass.STORE:
            return self._store_step(template)
        return self._alu_step(template)

    def _alu_step(self, template: InstTemplate) -> Step:
        rows = self._rows
        regs = self._regs
        value = self._value_rule(template)
        pc = template.pc
        op = OP_CODE[template.op]
        nsrcs, src0, src1, read0, read1 = _slots(template)
        dst = -1 if template.dst is None else template.dst
        write = _DISCARD_SLOT if dst in (-1, ZERO_REG) else dst

        def step() -> int:
            a = regs[read0]
            b = regs[read1]
            result = value(a, b)
            regs[write] = result
            rows.append((pc, op, nsrcs, nsrcs, src0, src1, dst, result, a, b,
                         False, 0, False, 0, False, False, 0))
            return 1

        return step

    def _value_rule(self, template: InstTemplate) -> Callable[[int, int], int]:
        """The result of an ALU template from its two source values."""
        kind = template.value_kind
        if kind is ValueKind.COUNTER or kind is ValueKind.STRIDE:
            increment = max(template.immediate, 1)
            return lambda a, b: (a + increment) & _MASK64
        if kind is ValueKind.CONST_SMALL or kind is ValueKind.CONST_WIDE:
            constant = to_unsigned(template.immediate)
            return lambda a, b: constant
        if kind is ValueKind.ACCUM:
            return lambda a, b: (a + b) & _MASK64
        if kind is ValueKind.LOGIC:
            if template.pc & 4:
                return lambda a, b: a ^ b
            return lambda a, b: a & b
        if kind is ValueKind.ADDR_UPDATE:
            cursor = self._cursor_rule(template)
            return lambda a, b: cursor()
        if kind is ValueKind.FP_OP:
            # FP bit patterns: wide, but not on the integer datapath.
            return lambda a, b: ((a * _HASH_MULT + b) & _MASK64) | (0x3FF << 52)
        return lambda a, b: 0

    def _cursor_rule(self, template: InstTemplate) -> Callable[[], int]:
        """Advance a memory cursor and return the new heap address."""
        cursor_id = template.cursor_id
        assert cursor_id is not None
        heap = self._memory.heap
        if template.pattern in (AccessPattern.SEQUENTIAL, AccessPattern.STRIDED):
            # Each cursor walks a bounded stream buffer and wraps, modelling
            # repeated traversal of frames/grids/arrays.
            cursors = self._cursors
            stride = template.immediate or WORD_BYTES
            stream = min(self._params.stream_bytes, heap.size)
            base = (cursor_id * (stream // 2)) % max(heap.size - stream, 1)

            def advance() -> int:
                position = cursors.get(cursor_id, 0) + stride
                cursors[cursor_id] = position
                return heap.align(base + position % stream)

            return advance
        # RANDOM: temporal locality — most accesses land in one of a few
        # shared hot subsets; the rest roam the full footprint.
        draw = self._flow_rng.random
        randrange = self._flow_rng.randrange
        hot_fraction = self._params.hot_fraction
        hot = min(self._params.hot_bytes, heap.size)
        hot_base = (cursor_id % 4) * hot

        def scatter() -> int:
            if draw() < hot_fraction:
                return heap.align(hot_base + randrange(0, hot))
            return heap.align(randrange(0, heap.size))

        return scatter

    def _address_rule(self, template: InstTemplate) -> Callable[[int], int]:
        """The effective address of a memory template from its pointer
        (first source) value."""
        if template.pattern is AccessPattern.STACK:
            regs = self._regs
            offset = ((template.cursor_id or 0) * 16) % (STACK_SIZE // 4)
            return lambda pointer: (regs[STACK_POINTER_REG] - offset) & _WORD_ALIGN
        heap = self._memory.heap
        if template.pattern is AccessPattern.CHASE:
            # Chases walk a bounded linked structure: small pools are
            # revisited (cache resident) while mcf-scale pools stay memory
            # bound.  The register usually holds a pool pointer already
            # (see the chase-load successor rule); anything else is hashed
            # into the pool.
            pool_base = heap.base
            pool = self._chase_pool

            def chase(pointer: int) -> int:
                if pool_base <= pointer < pool_base + pool:
                    return pointer & _WORD_ALIGN
                mixed = (pointer * _HASH_MULT) & _MASK64
                return (pool_base + mixed % pool) & _WORD_ALIGN

            return chase

        # Pointer register already holds a heap address (from ADDR_UPDATE);
        # clamp it into the heap to stay valid.
        def clamp(pointer: int) -> int:
            if heap.contains(pointer):
                return pointer & _WORD_ALIGN
            return heap.align(pointer)

        return clamp

    def _load_step(self, template: InstTemplate) -> Step:
        rows = self._rows
        regs = self._regs
        read = self._memory.read
        write_memory = self._memory.write
        address = self._address_rule(template)
        pc = template.pc
        nsrcs, src0, src1, read0, read1 = _slots(template)
        dst = -1 if template.dst is None else template.dst
        write = _DISCARD_SLOT if dst in (-1, ZERO_REG) else dst
        chase = template.pattern is AccessPattern.CHASE
        pool_base = self._memory.heap.base
        pool = self._chase_pool

        def step() -> int:
            a = regs[read0]
            b = regs[read1]
            addr = address(a)
            value = read(addr)
            if chase and not pool_base <= value < pool_base + pool:
                # A chase node must hold a pointer to its successor.  When
                # the materialized value is not a pool pointer, derive a
                # stable successor from the node's own address (each node
                # then has a distinct, stationary next-node — a real
                # linked structure), and persist it.
                mixed = (addr * _HASH_MULT) & _MASK64
                value = (pool_base + mixed % pool) & _WORD_ALIGN
                write_memory(addr, value)
            regs[write] = value
            rows.append((pc, _LOAD, nsrcs, nsrcs, src0, src1, dst, value, a, b,
                         True, addr, True, value, False, False, 0))
            return 1

        return step

    def _store_step(self, template: InstTemplate) -> Step:
        """A store writes its second source (0 without one)."""
        rows = self._rows
        regs = self._regs
        write_memory = self._memory.write
        address = self._address_rule(template)
        pc = template.pc
        nsrcs, src0, src1, read0, read1 = _slots(template)

        def step() -> int:
            a = regs[read0]
            b = regs[read1]
            addr = address(a)
            write_memory(addr, b)
            rows.append((pc, _STORE, nsrcs, nsrcs, src0, src1, -1, 0, a, b,
                         True, addr, True, b, False, False, 0))
            return 1

        return step

    def _geometric(self, mean: float) -> int:
        """Geometric sample with the given mean (>= 0)."""
        if mean <= 1.0:
            return 0
        p = 1.0 / mean
        count = 0
        while self._flow_rng.random() > p and count < 10_000:
            count += 1
        return count


def workload_fingerprint(
    name: str,
    params: WorkloadParameters,
    length: int,
    seed: int,
    benchmark_class: str = "unknown",
) -> str:
    """Content hash identifying the trace :func:`generate_trace` would emit.

    Covers everything generation depends on — the parameters, the seed,
    the requested length, and :data:`GENERATOR_VERSION` — so it can key a
    persistent store of generated (compiled) traces: equal fingerprints
    guarantee byte-identical traces, and any generator change invalidates
    every stored entry via the version bump.
    """
    payload = {
        "generator": GENERATOR_VERSION,
        "name": name,
        "benchmark_class": benchmark_class,
        "length": length,
        "seed": seed,
        "params": dataclasses.asdict(params),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def generate_trace(
    name: str,
    params: WorkloadParameters,
    length: int,
    seed: int,
    benchmark_class: str = "unknown",
) -> Trace:
    """Build a program from ``params``/``seed`` and emulate ``length`` insts.

    The returned trace is born columnar: its :meth:`~Trace.compiled`
    form already exists and its records are built only if read.
    """
    program = build_program(params, seed)
    rows = Emulator(program, seed).run(length)
    return Trace.from_compiled(
        compiled_from_rows(rows, name, benchmark_class, seed))
