"""Columnar (structure-of-arrays) trace representation.

The compiled form of a trace is one numpy structured array, one row per
committed instruction (:data:`TRACE_DTYPE`).  All loop-invariant
per-instruction properties (op-class predicates, 16-bit significance
classification, cache line/page indices) are derived from it once,
vectorized, and shared across every configuration that replays the
trace (see :mod:`repro.cpu.predecode`); the timing engine replays
compiled traces only.

Generated traces are born in this form: the emulator writes one row
tuple per instruction and :func:`compiled_from_rows` builds the array
with a single ``np.array`` call.  :func:`compile_trace` converts a
hand-built list of :class:`~repro.isa.instruction.TraceInstruction`
records (tests, microbenchmark kernels, examples), and
:meth:`CompiledTrace.instructions` rebuilds that list exactly from the
rows for callers that read records.

The compiled form is also the *transport* form: it round-trips through
``.npy`` + JSON-sidecar files (:func:`write_compiled` /
:func:`read_compiled`) and is memory-mapped back in, so worker processes
share one on-disk copy per workload instead of each re-running the
emulator.

Both constructors are strict: any trace the fixed-width columns cannot
represent exactly (more than two sources, values outside 64-bit range,
register ids outside int16) raises :class:`TraceCompileError` naming the
offending pc.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

import numpy as np

from repro.isa.instruction import MAX_SOURCES, TraceInstruction
from repro.isa.opcodes import OpClass
from repro.isa.trace import Trace

#: Bump on any change to the structured dtype or the sidecar layout so
#: stale on-disk compiled traces never load.
TRACE_SCHEMA_VERSION = 1

#: Op classes in enum-definition order; the ``op`` column stores indices
#: into this list.
OPCLASS_LIST: List[OpClass] = list(OpClass)

#: The ``op`` column value of each op class.
OP_CODE: Dict[OpClass, int] = {op: code for code, op in enumerate(OPCLASS_LIST)}

#: One row per committed instruction.  ``dst`` uses -1 for "no
#: destination"; optional fields pair a value column with a presence
#: flag so ``None`` survives the round trip exactly.  Absent sources
#: store register 0 and value 0, absent optional values 0.
TRACE_DTYPE = np.dtype([
    ("pc", "<u8"),
    ("op", "<u1"),
    ("nsrcs", "<u1"),
    ("nvals", "<u1"),
    ("src0", "<i2"),
    ("src1", "<i2"),
    ("dst", "<i2"),
    ("result", "<u8"),
    ("sval0", "<u8"),
    ("sval1", "<u8"),
    ("has_mem_addr", "?"),
    ("mem_addr", "<u8"),
    ("has_mem_value", "?"),
    ("mem_value", "<u8"),
    ("taken", "?"),
    ("has_target", "?"),
    ("target", "<u8"),
])


class TraceCompileError(ValueError):
    """The trace cannot be represented exactly in columnar form."""


class TraceReadError(ValueError):
    """An on-disk compiled trace is missing, corrupt, or incompatible."""


class CompiledTrace:
    """A trace as one numpy structured array plus identifying metadata.

    ``array`` may be an ordinary in-memory array or a read-only memory
    map of an on-disk entry; consumers never mutate it.  ``_predecoded``
    caches the config-independent decoded columns
    (:class:`repro.cpu.predecode.PreDecodedTrace`) so six configurations
    replaying the same workload decode it once.
    """

    __slots__ = ("name", "benchmark_class", "seed", "array", "_predecoded")

    def __init__(
        self,
        name: str,
        benchmark_class: str,
        seed: Optional[int],
        array: np.ndarray,
    ):
        self.name = name
        self.benchmark_class = benchmark_class
        self.seed = seed
        self.array = array
        self._predecoded = None

    def __len__(self) -> int:
        return len(self.array)

    @property
    def nbytes(self) -> int:
        """Size of the columnar array in bytes (the transport payload).

        For a memory-mapped entry this is the on-disk footprint shared by
        all workers, not per-process resident memory.
        """
        return int(self.array.nbytes)

    def instructions(self) -> List[TraceInstruction]:
        """Rebuild the exact record list the rows encode."""
        ops = OPCLASS_LIST
        return [
            TraceInstruction(
                pc=pc,
                op=ops[op],
                srcs=(src0, src1)[:nsrcs],
                dst=None if dst < 0 else dst,
                result=result,
                src_values=(sval0, sval1)[:nvals],
                mem_addr=mem_addr if has_mem_addr else None,
                mem_value=mem_value if has_mem_value else None,
                taken=taken,
                target=target if has_target else None,
            )
            for (pc, op, nsrcs, nvals, src0, src1, dst, result, sval0, sval1,
                 has_mem_addr, mem_addr, has_mem_value, mem_value, taken,
                 has_target, target) in self.array.tolist()
        ]


def compile_trace(trace: Trace) -> CompiledTrace:
    """Compile a record-form trace into columnar form (strict; see the
    module docstring)."""
    rows = []
    for inst in trace.instructions:
        pc, dst = inst.pc, inst.dst
        srcs, values = tuple(inst.srcs), tuple(inst.src_values)
        if len(srcs) > MAX_SOURCES:
            raise TraceCompileError(
                f"{len(srcs)} sources at pc={pc:#x} exceed the "
                f"{MAX_SOURCES}-column layout"
            )
        # int16 columns hold negative ids, and -1 encodes "no destination".
        if min(srcs + (0 if dst is None else dst,), default=0) < 0:
            raise TraceCompileError(f"negative register id at pc={pc:#x}")
        src0, src1 = (srcs + (0, 0))[:2]
        sval0, sval1 = (values + (0, 0))[:2]
        rows.append((
            pc, OP_CODE[inst.op], len(srcs), len(values), src0, src1,
            -1 if dst is None else dst, inst.result, sval0, sval1,
            inst.mem_addr is not None, inst.mem_addr or 0,
            inst.mem_value is not None, inst.mem_value or 0,
            inst.taken, inst.target is not None, inst.target or 0,
        ))
    return compiled_from_rows(rows, trace.name, trace.benchmark_class, trace.seed)


def compiled_from_rows(rows: List[tuple], name: str, benchmark_class: str,
                       seed: Optional[int]) -> CompiledTrace:
    """Build a compiled trace from row tuples in :data:`TRACE_DTYPE`
    field order, as the emulator writes them.

    A value its column cannot hold raises :class:`TraceCompileError`
    naming the field and the pc.
    """
    try:
        array = np.array(rows, dtype=TRACE_DTYPE)
    except OverflowError as exc:
        raise _locate_overflow(rows) from exc
    return CompiledTrace(name, benchmark_class, seed, array)


def _locate_overflow(rows: List[tuple]) -> TraceCompileError:
    """The error naming the first row field numpy cannot store."""
    for row in rows:
        for field, value in zip(TRACE_DTYPE.names, row):
            column = TRACE_DTYPE[field]
            try:
                np.array(value, dtype=column)
            except OverflowError:
                signed = "signed" if column.kind == "i" else "unsigned"
                return TraceCompileError(
                    f"{field}={value!r} at pc={row[0]:#x} does not fit its "
                    f"{column.itemsize * 8}-bit {signed} column"
                )
    return TraceCompileError("a trace row overflowed its column")


# ---------------------------------------------------------------------- #
# On-disk form: <key>.npy (the array, memory-mappable) + <key>.json
# (metadata).  Atomicity and eviction policy belong to the trace store
# (:class:`repro.experiments.cache.TraceStore`); these two functions are
# the raw serialization shared by the store and by pool workers.

def meta_path_for(npy_path: os.PathLike) -> str:
    """The JSON sidecar path belonging to a ``.npy`` entry."""
    path = os.fspath(npy_path)
    return (path[:-4] if path.endswith(".npy") else path) + ".json"


def write_compiled(compiled: CompiledTrace, npy_path, meta_path=None) -> None:
    """Serialize ``compiled`` (non-atomic; callers rename into place)."""
    if meta_path is None:
        meta_path = meta_path_for(npy_path)
    with open(npy_path, "wb") as stream:
        np.save(stream, np.ascontiguousarray(compiled.array))
    meta = {
        "schema": TRACE_SCHEMA_VERSION,
        "name": compiled.name,
        "benchmark_class": compiled.benchmark_class,
        "seed": compiled.seed,
        "length": len(compiled.array),
    }
    with open(meta_path, "w", encoding="utf-8") as stream:
        json.dump(meta, stream, sort_keys=True)
        stream.write("\n")


def read_compiled(npy_path, meta_path=None, mmap: bool = True) -> CompiledTrace:
    """Load an on-disk compiled trace, memory-mapping the array.

    Raises :class:`TraceReadError` on any damage or incompatibility —
    missing files, bad magic, wrong dtype, schema drift, or metadata
    that disagrees with the array — so callers can evict and regenerate
    instead of simulating garbage.
    """
    if meta_path is None:
        meta_path = meta_path_for(npy_path)
    try:
        with open(meta_path, "r", encoding="utf-8") as stream:
            meta = json.load(stream)
    except (OSError, ValueError) as exc:
        raise TraceReadError(f"unreadable trace metadata {meta_path}: {exc}") from exc
    if not isinstance(meta, dict) or meta.get("schema") != TRACE_SCHEMA_VERSION:
        raise TraceReadError(
            f"trace metadata {meta_path} has schema "
            f"{meta.get('schema') if isinstance(meta, dict) else meta!r}, "
            f"expected {TRACE_SCHEMA_VERSION}"
        )
    name = meta.get("name")
    benchmark_class = meta.get("benchmark_class")
    seed = meta.get("seed")
    length = meta.get("length")
    if not isinstance(name, str) or not isinstance(benchmark_class, str) \
            or not isinstance(length, int) \
            or not (seed is None or isinstance(seed, int)):
        raise TraceReadError(f"trace metadata {meta_path} is malformed: {meta}")
    try:
        array = np.load(npy_path, mmap_mode="r" if mmap else None,
                        allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise TraceReadError(f"unreadable trace array {npy_path}: {exc}") from exc
    if not isinstance(array, np.ndarray) or array.ndim != 1 \
            or array.dtype != TRACE_DTYPE:
        raise TraceReadError(
            f"trace array {npy_path} has wrong shape/dtype "
            f"({getattr(array, 'dtype', None)})"
        )
    if len(array) != length:
        raise TraceReadError(
            f"trace array {npy_path} holds {len(array)} rows, metadata says {length}"
        )
    return CompiledTrace(
        name=name, benchmark_class=benchmark_class, seed=seed, array=array
    )
