"""Per-class workload parameters.

Each :class:`BenchmarkClass` mirrors one of the paper's benchmark suites.
The parameters control the synthetic program builder and the value
distributions of the functional emulator; they were chosen so the emergent
trace statistics match the qualitative behaviour the paper reports:

* SPECint-like: integer heavy, mostly-narrow values, medium footprints.
* SPECfp-like: FP heavy, load heavy, very large footprints (memory bound —
  the class with the smallest 3D speedup in Figure 8).
* MediaBench-like: compute intensive, very narrow values, small footprints
  (mpeg2 is the paper's peak-power application).
* MiBench-like: embedded kernels, narrow values (susan shows the largest
  power saving; patricia the largest speedup).
* Pointer-intensive: full-width pointer traffic with strong upper-address
  locality, memory intensive (yacr2 shows the smallest power saving and is
  the thermal worst case under Thermal Herding).
* Bio-like: integer sequence processing, narrow values, medium footprints.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Dict

#: Trace-generator version (:mod:`repro.workloads.emulator`), part of the
#: on-disk result-cache key.  Bump on any change that alters generated
#: traces so stale entries never hit.
GENERATOR_VERSION = 1


class BenchmarkClass(enum.Enum):
    """The six benchmark suites of the paper's evaluation."""

    SPECINT = "SPECint2000"
    SPECFP = "SPECfp2000"
    MEDIABENCH = "MediaBench"
    MIBENCH = "MiBench"
    POINTER = "Pointer"
    BIO = "Bio"


@dataclass(frozen=True)
class WorkloadParameters:
    """Knobs for the synthetic program builder and emulator.

    Fractions need not sum exactly to one; the builder normalizes the
    relevant groups.
    """

    #: fraction of non-control, non-memory instructions that are FP
    fp_fraction: float = 0.0
    #: of FP ops: add / mul / div split
    fp_add_share: float = 0.6
    fp_mul_share: float = 0.35
    #: loads per instruction and stores per instruction
    load_fraction: float = 0.22
    store_fraction: float = 0.10
    #: conditional branches per instruction
    branch_fraction: float = 0.14
    #: call/return pairs per instruction
    call_fraction: float = 0.01
    #: of integer ALU ops, share executing on the shifter / multiplier
    shift_share: float = 0.12
    mul_share: float = 0.03

    #: probability weights for integer value kinds (see program builder):
    #: counters/small constants (narrow), accumulators (mostly narrow),
    #: pointer arithmetic (wide), wide constants/logic (wide)
    narrow_value_weight: float = 0.60
    accum_value_weight: float = 0.20
    pointer_value_weight: float = 0.12
    wide_value_weight: float = 0.08

    #: data memory footprint in bytes (drives cache/DRAM miss rates)
    footprint_bytes: int = 1 << 20
    #: fraction of memory ops that hit the stack region
    stack_access_fraction: float = 0.30
    #: fraction of heap accesses that are dependent pointer chases
    chase_fraction: float = 0.05
    #: fraction of heap accesses that walk sequentially (vs random)
    sequential_fraction: float = 0.60
    #: random accesses draw from a hot subset this often (temporal locality)
    hot_fraction: float = 0.95
    #: size of each hot subset for random accesses
    hot_bytes: int = 24 << 10
    #: sequential/strided cursors wrap within a stream buffer of this size
    #: (re-traversal of bounded buffers, e.g. video frames / FP grids)
    stream_bytes: int = 8 << 10
    #: pointer chases are confined to a linked-structure pool of this size
    chase_pool_bytes: int = 64 << 10
    #: byte stride of STRIDED cursors (>=128 defeats the next-line prefetcher)
    stride_bytes: int = 64

    #: distribution of *stored data values* (drives the L1D partial-value
    #: encoding statistics): zero / small positive / small negative /
    #: near pointer (upper bits equal address) / wide
    value_dist: Dict[str, float] = field(
        default_factory=lambda: {
            "zero": 0.25,
            "small_pos": 0.35,
            "small_neg": 0.08,
            "near_pointer": 0.12,
            "wide": 0.20,
        }
    )

    #: taken bias of data-dependent (non-loop) branches; loop back edges
    #: are predictable by construction
    branch_bias: float = 0.75
    #: fraction of data-dependent branches that are essentially random
    hard_branch_fraction: float = 0.10
    #: fraction of regular branches that follow a periodic (learnable)
    #: pattern instead of a biased coin
    periodic_branch_fraction: float = 0.75
    #: probability that a periodic branch deviates from its pattern
    branch_noise: float = 0.02
    #: mean loop trip count (geometric); longer loops = more predictable
    mean_trip_count: float = 24.0
    #: number of distinct loops (static code size driver)
    loop_count: int = 12
    #: mean instructions per loop body
    body_size: int = 16
    #: fraction of taken control transfers whose target lies in a far code
    #: region (different upper 48 PC bits) — exercises BTB memoization misses
    far_target_fraction: float = 0.02


#: Default parameters per benchmark class.
CLASS_PARAMETERS: Dict[BenchmarkClass, WorkloadParameters] = {
    BenchmarkClass.SPECINT: WorkloadParameters(
        fp_fraction=0.01,
        load_fraction=0.24,
        store_fraction=0.11,
        branch_fraction=0.16,
        narrow_value_weight=0.58,
        accum_value_weight=0.20,
        pointer_value_weight=0.13,
        wide_value_weight=0.09,
        footprint_bytes=6 << 20,
        stack_access_fraction=0.35,
        branch_bias=0.80,
        hard_branch_fraction=0.06,
        mean_trip_count=18.0,
        loop_count=16,
        body_size=18,
    ),
    BenchmarkClass.SPECFP: WorkloadParameters(
        fp_fraction=0.38,
        load_fraction=0.30,
        store_fraction=0.12,
        branch_fraction=0.08,
        narrow_value_weight=0.45,
        accum_value_weight=0.15,
        pointer_value_weight=0.25,
        wide_value_weight=0.15,
        footprint_bytes=64 << 20,
        stack_access_fraction=0.10,
        sequential_fraction=0.55,
        hot_fraction=0.88,
        stream_bytes=4 << 20,
        stride_bytes=64,
        branch_bias=0.90,
        hard_branch_fraction=0.03,
        mean_trip_count=64.0,
        loop_count=10,
        body_size=24,
        value_dist={
            "zero": 0.15,
            "small_pos": 0.20,
            "small_neg": 0.05,
            "near_pointer": 0.10,
            "wide": 0.50,
        },
    ),
    BenchmarkClass.MEDIABENCH: WorkloadParameters(
        fp_fraction=0.04,
        load_fraction=0.22,
        store_fraction=0.10,
        branch_fraction=0.11,
        shift_share=0.22,
        narrow_value_weight=0.76,
        accum_value_weight=0.14,
        pointer_value_weight=0.06,
        wide_value_weight=0.04,
        footprint_bytes=512 << 10,
        stack_access_fraction=0.20,
        sequential_fraction=0.85,
        branch_bias=0.87,
        hard_branch_fraction=0.04,
        mean_trip_count=48.0,
        loop_count=8,
        body_size=22,
        value_dist={
            "zero": 0.30,
            "small_pos": 0.45,
            "small_neg": 0.10,
            "near_pointer": 0.03,
            "wide": 0.12,
        },
    ),
    BenchmarkClass.MIBENCH: WorkloadParameters(
        fp_fraction=0.02,
        load_fraction=0.21,
        store_fraction=0.09,
        branch_fraction=0.14,
        shift_share=0.18,
        narrow_value_weight=0.74,
        accum_value_weight=0.15,
        pointer_value_weight=0.07,
        wide_value_weight=0.04,
        footprint_bytes=256 << 10,
        stack_access_fraction=0.30,
        branch_bias=0.84,
        hard_branch_fraction=0.05,
        mean_trip_count=32.0,
        loop_count=10,
        body_size=14,
        value_dist={
            "zero": 0.32,
            "small_pos": 0.42,
            "small_neg": 0.08,
            "near_pointer": 0.04,
            "wide": 0.14,
        },
    ),
    BenchmarkClass.POINTER: WorkloadParameters(
        fp_fraction=0.01,
        load_fraction=0.30,
        store_fraction=0.12,
        branch_fraction=0.15,
        narrow_value_weight=0.40,
        accum_value_weight=0.15,
        pointer_value_weight=0.32,
        wide_value_weight=0.13,
        footprint_bytes=24 << 20,
        stack_access_fraction=0.18,
        chase_fraction=0.30,
        sequential_fraction=0.25,
        hot_fraction=0.95,
        chase_pool_bytes=256 << 10,
        branch_bias=0.78,
        hard_branch_fraction=0.08,
        mean_trip_count=14.0,
        loop_count=14,
        body_size=12,
        value_dist={
            "zero": 0.18,
            "small_pos": 0.22,
            "small_neg": 0.05,
            "near_pointer": 0.38,
            "wide": 0.17,
        },
    ),
    BenchmarkClass.BIO: WorkloadParameters(
        fp_fraction=0.03,
        load_fraction=0.25,
        store_fraction=0.08,
        branch_fraction=0.15,
        shift_share=0.16,
        narrow_value_weight=0.70,
        accum_value_weight=0.16,
        pointer_value_weight=0.09,
        wide_value_weight=0.05,
        footprint_bytes=4 << 20,
        stack_access_fraction=0.22,
        sequential_fraction=0.70,
        branch_bias=0.80,
        hard_branch_fraction=0.05,
        mean_trip_count=40.0,
        loop_count=12,
        body_size=16,
        value_dist={
            "zero": 0.28,
            "small_pos": 0.40,
            "small_neg": 0.07,
            "near_pointer": 0.08,
            "wide": 0.17,
        },
    ),
}


def workload_fingerprint(
    name: str,
    params: WorkloadParameters,
    length: int,
    seed: int,
    benchmark_class: str = "unknown",
) -> str:
    """Content hash identifying the trace
    :func:`~repro.workloads.emulator.generate_trace` would emit.

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
        "params": asdict(params),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
