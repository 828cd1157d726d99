"""Set-associative caches, TLBs, and the memory hierarchy timing model.

Tag-only LRU models: the simulator needs hit/miss behaviour and
latencies, not data movement.  The hierarchy is L1I + L1D backed by a
shared L2 backed by DRAM, plus I/D TLBs whose misses charge a fixed
page-walk penalty.  Activity (for the power model) is charged to the
module names used by :mod:`repro.circuits.blocks`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.activity import ActivityCounters, NUM_DIES


@dataclass
class CacheStats:
    """Hit/miss counters of one cache or TLB."""

    accesses: int = 0
    misses: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class SetAssociativeCache:
    """Tag-only set-associative cache with true-LRU replacement."""

    def __init__(self, name: str, size_bytes: int, assoc: int, line_bytes: int):
        if size_bytes <= 0 or assoc <= 0 or line_bytes <= 0:
            raise ValueError(f"{name}: sizes must be positive")
        lines = size_bytes // line_bytes
        if lines % assoc:
            raise ValueError(f"{name}: {lines} lines not divisible by associativity {assoc}")
        self.name = name
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.num_sets = lines // assoc
        # Each set is an LRU-ordered list of tags (index 0 = MRU).
        self._sets: List[List[int]] = [[] for _ in range(self.num_sets)]
        self.stats = CacheStats()

    def _locate(self, addr: int) -> Tuple[int, int]:
        line = addr // self.line_bytes
        return line % self.num_sets, line // self.num_sets

    def access(self, addr: int) -> bool:
        """Access ``addr``; returns True on hit.  Misses allocate (LRU evict)."""
        return self.access_line(addr // self.line_bytes)

    def access_line(self, line: int) -> bool:
        """:meth:`access` with the line number (``addr // line_bytes``)
        already computed — the columnar pre-decode supplies line and page
        columns so the hierarchy's hot path skips the per-access divide."""
        tag, index = divmod(line, self.num_sets)
        entries = self._sets[index]
        self.stats.accesses += 1
        if entries and entries[0] == tag:
            # MRU hit: remove-then-reinsert at the head is a no-op.
            return True
        if tag in entries:
            entries.remove(tag)
            entries.insert(0, tag)
            return True
        self.stats.misses += 1
        entries.insert(0, tag)
        if len(entries) > self.assoc:
            entries.pop()
        return False

    def probe(self, addr: int) -> bool:
        """Check residency without updating LRU or stats."""
        index, tag = self._locate(addr)
        return tag in self._sets[index]

    def install(self, addr: int) -> None:
        """Insert a line without touching stats (prefetch fill)."""
        self.install_line(addr // self.line_bytes)

    def install_line(self, line: int) -> None:
        """:meth:`install` with the line number already computed."""
        tag, index = divmod(line, self.num_sets)
        entries = self._sets[index]
        if tag in entries:
            return
        entries.insert(0, tag)
        if len(entries) > self.assoc:
            entries.pop()


class TLB(SetAssociativeCache):
    """A TLB is a set-associative cache over page numbers."""

    def __init__(self, name: str, entries: int, assoc: int, page_bytes: int):
        super().__init__(name, size_bytes=entries * page_bytes, assoc=assoc,
                         line_bytes=page_bytes)


@dataclass
class MemoryAccessResult:
    """Latency and service level of one data access."""

    cycles: int
    level: str  # "l1", "l2", "dram"
    tlb_miss: bool = False


class MemoryHierarchy:
    """L1I/L1D + shared L2 + DRAM + TLBs with per-module activity."""

    def __init__(
        self,
        counters: ActivityCounters,
        l1i: SetAssociativeCache,
        l1d: SetAssociativeCache,
        l2: SetAssociativeCache,
        itlb: TLB,
        dtlb: TLB,
        l1_latency: int,
        l2_latency: int,
        dram_cycles: int,
        tlb_miss_penalty: int,
    ):
        self._counters = counters
        self.l1i = l1i
        self.l1d = l1d
        self.l2 = l2
        self.itlb = itlb
        self.dtlb = dtlb
        self.l1_latency = l1_latency
        self.l2_latency = l2_latency
        self.dram_cycles = dram_cycles
        self.tlb_miss_penalty = tlb_miss_penalty

    # ------------------------------------------------------------------ #

    def _lower_levels(self, addr: int) -> Tuple[int, str]:
        """Service a miss from L2/DRAM; returns (extra cycles, level)."""
        self._counters.record("l2_cache", dies_active=NUM_DIES)
        if self.l2.access(addr):
            return self.l2_latency, "l2"
        self._counters.record("dram", dies_active=NUM_DIES)
        return self.l2_latency + self.dram_cycles, "dram"

    def instruction_fetch(self, pc: int) -> MemoryAccessResult:
        """Fetch the line containing ``pc``."""
        self._counters.record("itlb", dies_active=NUM_DIES)
        tlb_miss = not self.itlb.access(pc)
        self._counters.record("l1_icache", dies_active=NUM_DIES)
        cycles = self.l1_latency
        level = "l1"
        if not self.l1i.access(pc):
            extra, level = self._lower_levels(pc)
            cycles += extra
        # Always-next-line instruction prefetch.
        self.l1i.install(pc + self.l1i.line_bytes)
        self.l2.install(pc + self.l1i.line_bytes)
        if tlb_miss:
            cycles += self.tlb_miss_penalty
        return MemoryAccessResult(cycles=cycles, level=level, tlb_miss=tlb_miss)

    def load(self, addr: int) -> MemoryAccessResult:
        """A demand load; L1D data-array die gating is accounted separately
        by :class:`~repro.core.dcache_encoding.PartialValueCache`."""
        self._counters.record("dtlb", dies_active=NUM_DIES)
        tlb_miss = not self.dtlb.access(addr)
        cycles = self.l1_latency
        level = "l1"
        if not self.l1d.access(addr):
            extra, level = self._lower_levels(addr)
            cycles += extra
        # Hardware next-line data prefetcher (Core 2-class streamers):
        # unit-stride streams never pay the miss latency; larger strides
        # and irregular traffic defeat it.
        self.l1d.install(addr + self.l1d.line_bytes)
        self.l2.install(addr + self.l1d.line_bytes)
        if tlb_miss:
            cycles += self.tlb_miss_penalty
        return MemoryAccessResult(cycles=cycles, level=level, tlb_miss=tlb_miss)

    def store(self, addr: int) -> MemoryAccessResult:
        """A committed store (write-allocate, write-back; non-blocking)."""
        self._counters.record("dtlb", dies_active=NUM_DIES)
        tlb_miss = not self.dtlb.access(addr)
        level = "l1"
        if not self.l1d.access(addr):
            _, level = self._lower_levels(addr)
        # Store streams benefit from the same next-line prefetcher.
        self.l1d.install(addr + self.l1d.line_bytes)
        self.l2.install(addr + self.l1d.line_bytes)
        return MemoryAccessResult(cycles=0, level=level, tlb_miss=tlb_miss)


def build_hierarchy(counters: ActivityCounters, config) -> MemoryHierarchy:
    """Construct the hierarchy from a :class:`~repro.cpu.config.CPUConfig`."""
    return MemoryHierarchy(
        counters=counters,
        l1i=SetAssociativeCache("l1i", config.l1i_size, config.l1i_assoc, config.line_bytes),
        l1d=SetAssociativeCache("l1d", config.l1d_size, config.l1d_assoc, config.line_bytes),
        l2=SetAssociativeCache("l2", config.l2_size, config.l2_assoc, config.line_bytes),
        itlb=TLB("itlb", config.itlb_entries, config.tlb_assoc, config.page_bytes),
        dtlb=TLB("dtlb", config.dtlb_entries, config.tlb_assoc, config.page_bytes),
        l1_latency=config.l1_latency,
        l2_latency=config.l2_latency,
        dram_cycles=config.dram_cycles,
        tlb_miss_penalty=config.tlb_miss_penalty,
    )
