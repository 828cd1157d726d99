"""Out-of-order scoreboard timing model.

The simulator assigns each committed trace instruction a fetch, dispatch,
issue, completion, and commit cycle, subject to:

* fetch bandwidth, I-cache/ITLB misses, branch redirects, BTB bubbles;
* dispatch bandwidth and ROB/RS/LQ/SQ/IFQ occupancy (modelled with
  free-at heaps: an allocation waits for the earliest-freed entry);
* register dependences through a ready-cycle scoreboard (bypass has no
  extra latency, matching an aggressive bypass network);
* functional-unit structural hazards and issue bandwidth;
* memory latencies from the cache/TLB hierarchy;
* with Thermal Herding enabled, all the width-misprediction penalties of
  Section 3: register-read group stalls, ALU input stalls and output
  re-executions, D-cache read stalls, and BTB memoization bubbles.

Operand sourcing rule: an operand whose producer completes after this
instruction dispatched arrives through the bypass network, so its width
misprediction is caught by the ALU (one-cycle input stall); operands read
from the register file are checked against the memoization bits at
dispatch and charge the *group* at most one stall cycle (Section 3.1).
"""

from __future__ import annotations

import heapq
from bisect import bisect_right, insort
from collections import deque
from typing import Callable, Dict, List, Optional, Union

from repro.core.activity import ActivityCounters
from repro.core.dcache_encoding import PartialValueCache
from repro.core.lsq_pam import PartialAddressMemoization
from repro.core.scheduler_allocation import EntryStackedScheduler
from repro.core.width_prediction import WidthPredictor, WidthPredictorStats
from repro.cpu.branch_predictor import FrontEndPredictor
from repro.cpu.config import CPUConfig
from repro.cpu.predecode import PreDecodedTrace, predecode
from repro.cpu.results import (  # noqa: F401  (SIMULATOR_VERSION re-exported)
    SIMULATOR_VERSION,
    SimulationResult,
    StallBreakdown,
)
from repro.cpu.wavefront import build_plan
from repro.isa.compiled import CompiledTrace, OPCLASS_LIST
from repro.isa.opcodes import OpClass
from repro.isa.trace import Trace

# SIMULATOR_VERSION is defined beside SimulationResult, so cache keys can
# read it without loading this engine.  Bump it on any change here that
# alters simulation outcomes.

#: Fault-injection hook: when set, called with each instruction index at
#: the top of the simulation loop.  Armed inside worker processes by the
#: fault harness (:mod:`repro.experiments.faults`) to kill or hang a
#: simulation *mid-flight* — after activity state has started to
#: accumulate — so recovery is exercised against partially-written
#: state, not just clean task entry.  ``None`` (the production default)
#: costs one local-variable branch per instruction.
FAULT_HOOK: Optional[Callable[[int], None]] = None


class _Pool:
    """A pool of identical functional units, tracked by next-free cycle."""

    def __init__(self, units: int):
        if units < 1:
            raise ValueError(f"pool needs at least one unit, got {units}")
        self._free = [0] * units  # min-heap of next-free cycles

    def acquire(self, earliest: int, busy: int = 1) -> int:
        """Reserve the unit that frees soonest; returns the start cycle."""
        start = max(earliest, self._free[0])
        heapq.heapreplace(self._free, start + busy)
        return start

    def earliest_free(self) -> int:
        return self._free[0]


def _build_pools(cfg: CPUConfig):
    """Functional-unit pools plus the OpClass -> pool issue map.

    LOAD stays a special case (either memory port, whichever frees
    sooner) handled inline by the issue stage.
    """
    pools = {
        "int_alu": _Pool(cfg.int_alu_units),
        "int_shift": _Pool(cfg.int_shift_units),
        "int_mul": _Pool(cfg.int_mul_units),
        "fp_add": _Pool(cfg.fp_add_units),
        "fp_mul": _Pool(cfg.fp_mul_units),
        "fp_div": _Pool(cfg.fp_div_units),
        "ld_st": _Pool(cfg.load_store_ports),
        "ld_only": _Pool(cfg.load_only_ports),
    }
    pool_for_op = {
        OpClass.STORE: pools["ld_st"],
        OpClass.ISHIFT: pools["int_shift"],
        OpClass.IMUL: pools["int_mul"],
        OpClass.FADD: pools["fp_add"],
        OpClass.FMUL: pools["fp_mul"],
        OpClass.FDIV: pools["fp_div"],
    }
    for op in OpClass:
        pool_for_op.setdefault(op, pools["int_alu"])
    return pools, pool_for_op


class TimingSimulator:
    """Replays one trace under one configuration."""

    def __init__(self, config: CPUConfig):
        self.config = config.resolved()
        # The models below carry the result's statistics and herding
        # metrics; run_compiled fills them in and replaces the counters
        # with the plan's activity.
        self.counters = ActivityCounters()
        self.frontend = FrontEndPredictor(
            self.counters,
            btb_entries=self.config.btb_entries,
            btb_assoc=self.config.btb_assoc,
            ibtb_entries=self.config.ibtb_entries,
            ibtb_assoc=self.config.ibtb_assoc,
            ras_depth=self.config.ras_depth,
            thermal_herding=self.config.thermal_herding,
        )
        th = self.config.thermal_herding
        self.width_predictor = self._make_width_predictor() if th else None
        self.scheduler = (
            EntryStackedScheduler(self.counters, entries=self.config.rs_size,
                                  policy=self.config.scheduler_policy)
            if th else None
        )
        self.pam = PartialAddressMemoization(self.counters) if th else None
        self.dcache_model = (
            PartialValueCache(self.counters, scheme=self.config.dcache_encoding)
            if th else None
        )
        self.stalls = StallBreakdown()

    def _make_width_predictor(self):
        """Instantiate the configured width predictor variant."""
        from repro.core.static_width import OracleWidthPredictor, StaticWidthPredictor
        from repro.cpu.config import WidthPredictorKind

        kind = self.config.width_predictor_kind
        if kind is WidthPredictorKind.ORACLE:
            return OracleWidthPredictor()
        if kind is WidthPredictorKind.STATIC:
            # The profile is filled in by run_compiled() (it needs the
            # trace); start with an empty, all-full-width profile.
            return StaticWidthPredictor({})
        return WidthPredictor(
            self.config.width_predictor_entries, self.config.width_counter_bits
        )

    # ------------------------------------------------------------------ #

    def run(self, trace: Union[Trace, CompiledTrace], warmup: int = 0,
            prewarm: bool = True) -> SimulationResult:
        """Compile and pre-decode ``trace``, then :meth:`run_compiled` it:
        the first ``warmup`` instructions warm the caches and predictors
        but are excluded from all reported metrics."""
        if isinstance(trace, Trace):
            trace = trace.compiled()
        return self.run_compiled(predecode(trace), warmup=warmup,
                                 prewarm=prewarm)

    # ------------------------------------------------------------------ #

    def run_compiled(self, pre: PreDecodedTrace, warmup: int = 0,
                     prewarm: bool = True,
                     capture: Optional["IntervalCapture"] = None
                     ) -> SimulationResult:
        """Simulate a pre-decoded trace.

        Everything per-instruction that does not depend on dynamic cycle
        counts is precomputed by :mod:`repro.cpu.wavefront` into plan
        columns (front-end outcomes, cache-miss latencies, BTB bubbles)
        and static result pieces (branch/cache stats, herding tallies,
        position-ordered activity counts).  The loop below keeps only the
        genuinely serial resources: free-at queues for ROB/RS/LQ/SQ
        entries, per-cycle fetch/dispatch/issue/commit bandwidth, MSHR
        waits, the dependency scoreboard, and the width-state machines
        whose decisions feed timing (predictor counters, register
        memoization bits, L1D encodings).  It performs no activity
        recording and no model method calls; the handful of
        width-dependent activity splits are tallied in locals and merged
        with the static counts by
        :meth:`~repro.cpu.wavefront.WavefrontPlan.build_activity`.  The
        golden digests (``tests/cpu/test_golden_digests.py``) pin the
        returned :class:`SimulationResult` byte for byte.

        ``capture`` (an :class:`~repro.cpu.wavefront.IntervalCapture`)
        snapshots the running dynamic tallies at interval boundaries for
        interval power extraction; when None the loop pays a single
        boolean check per instruction and the result is unchanged.
        """
        cfg = self.config
        n = pre.n
        if warmup >= n:
            raise ValueError(
                f"warmup ({warmup}) must be smaller than the trace ({n})"
            )
        th = cfg.thermal_herding
        plan = build_plan(pre, cfg, warmup, prewarm)

        # Plan columns: the timing consequences of precomputed outcomes.
        col_new_line = plan.new_line
        col_fetch_extra = plan.fetch_extra
        col_bubbles = plan.bubbles
        col_mispred = plan.mispredicted
        col_load_cycles = plan.load_cycles
        col_load_dram = plan.load_dram
        col_memory_miss = plan.memory_miss
        col_dc_comp = plan.dc_load_comp
        writers0, writers1 = pre.writers()

        # Trace columns.
        pcs = pre.pcs
        codes = pre.codes
        col_is_memory = pre.is_memory
        col_is_intdp = pre.is_intdp
        col_is_load = pre.is_load
        col_is_store = pre.is_store
        col_srcs = pre.srcs
        col_svals_low = pre.svals_low
        col_dsts = pre.dsts
        col_operands_low = pre.operands_low
        col_result_low = pre.result_low
        col_actual_low = pre.actual_low
        col_latency = pre.latency
        col_busy = pre.busy

        # Hoisted config scalars.
        fetch_width = cfg.fetch_width
        ifq_size = cfg.ifq_size
        front_depth = cfg.front_depth
        decode_width = cfg.decode_width
        rob_size = cfg.rob_size
        rs_size = cfg.rs_size
        lq_size = cfg.lq_size
        sq_size = cfg.sq_size
        issue_width = cfg.issue_width
        commit_width = cfg.commit_width
        redirect_penalty = cfg.redirect_penalty

        # Width-state machines, inlined.  Predictor counters, the sticky
        # full-width overrides of the static profile, and the register
        # memoization bits all evolve *with* loop state (stalls consult
        # them, corrections write them back), so they stay in the loop —
        # as plain dict/list operations instead of model calls.
        dynamic_kind = static_kind = oracle_kind = False
        wp_table: List[int] = []
        wp_index: List[int] = []
        wp_threshold = wp_max = 0
        wp_profile_get = None
        wp_merged: Dict[int, bool] = {}
        top_first = True
        sched_cap = 1
        if th:
            from repro.core.scheduler_allocation import AllocationPolicy
            from repro.core.static_width import StaticWidthPredictor
            from repro.cpu.config import WidthPredictorKind

            kind = cfg.width_predictor_kind
            if kind is WidthPredictorKind.ORACLE:
                oracle_kind = True
            elif isinstance(self.width_predictor, StaticWidthPredictor):
                static_kind = True
                self.width_predictor = StaticWidthPredictor(pre.width_profile())
                # Profile lookups and the sticky full-width overrides
                # merge into one dict: a correction pins its PC to False.
                wp_merged = dict(pre.width_profile())
                wp_profile_get = wp_merged.get
            else:
                dynamic_kind = True
                wp = self.width_predictor
                wp_table = wp._table
                wp_threshold = wp._threshold
                wp_max = wp._max_count
                wp_index = pre.pred_index(wp._mask)
            top_first = cfg.scheduler_policy is AllocationPolicy.TOP_FIRST
            sched_cap = rs_size // 4

        # Fetch state
        next_fetch_floor = 0
        fetch_cycle = 0
        fetched_in_cycle = 0

        # Dispatch state
        dispatch_floor = 0
        last_dispatch_cycle = -1
        dispatched_in_cycle = 0

        # Resource free-at queues.  ROB/LQ/SQ free-at cycles are produced
        # in non-decreasing order, so FIFO popleft == heappop; RS free-at
        # cycles are not monotonic, so a bisect-sorted list keeps pop-min
        # O(1) and turns occupancy counts into binary searches.
        rob_q = deque()
        rs_list: List[int] = []
        lq_q = deque()
        sq_q = deque()
        ifq_ring: List[int] = []  # dispatch cycles of the trailing window

        # Issue state.  issued_in_cycle is pruned as the dispatch floor
        # advances so it never holds one entry per simulated cycle.
        issued_in_cycle: Dict[int, int] = {}
        issue_prune_at = 4096
        pools, pool_for_op = _build_pools(cfg)
        pool_by_code = [pool_for_op[op] for op in OPCLASS_LIST]
        ld_st_pool, ld_only_pool = pools["ld_st"], pools["ld_only"]
        ld_st_free = ld_st_pool.earliest_free
        ld_only_free = ld_only_pool.earliest_free
        mshr_acquire = _Pool(cfg.mshr_entries).acquire

        # Dependency scoreboard: completion cycle per producing
        # instruction.  The writer columns map each source operand slot to
        # its producer index, replacing the per-register ready dict.
        completes = [0] * n
        # Register width memoization bits (the partitioned register
        # file's lazily installed state).
        memo: Dict[int, bool] = {}
        memo_get = memo.get

        # Commit state
        last_commit_cycle = 0
        committed_in_cycle = 0
        cycle_base = 0

        # Dynamic tallies: stall counters, width-dependent activity
        # splits, and predictor outcome counts — everything the static
        # plan cannot know.  All reset at the warmup boundary.
        rf_group_stalls = 0
        alu_input_stalls = 0
        alu_reexecutions = 0
        dcache_width_stalls = 0
        btb_memoization_stalls = 0
        rf1 = rf4 = 0
        first_rf = -1
        alu1 = alu4 = 0
        l1d1 = l1d4 = 0
        dc_herded = dc_unsafe = 0
        wp_hits = wp_unsafe = wp_safe = 0
        sched_die = [0, 0, 0, 0]
        sched_rr = 0  # persists across the warmup boundary, like the model

        cpi_stack: Dict[str, int] = {}
        prev_commit_for_stack = 0

        fault_hook = FAULT_HOOK
        capture_marks = capture.prepare(n, warmup) if capture is not None else None

        for index in range(n):
            if fault_hook is not None:
                fault_hook(index)
            if index == warmup and warmup:
                rf_group_stalls = 0
                alu_input_stalls = 0
                alu_reexecutions = 0
                dcache_width_stalls = 0
                btb_memoization_stalls = 0
                rf1 = rf4 = 0
                first_rf = -1
                alu1 = alu4 = 0
                l1d1 = l1d4 = 0
                dc_herded = dc_unsafe = 0
                wp_hits = wp_unsafe = wp_safe = 0
                sched_die = [0, 0, 0, 0]
                cycle_base = last_commit_cycle
                cpi_stack = {}
                prev_commit_for_stack = last_commit_cycle
            stalled = False

            # ---------------- FETCH ---------------- #
            new_line = col_new_line[index]
            if new_line or fetched_in_cycle >= fetch_width:
                fetch_cycle += 1
                fetched_in_cycle = 0
            if fetch_cycle < next_fetch_floor:
                fetch_cycle = next_fetch_floor
            if len(ifq_ring) >= ifq_size:
                floor = ifq_ring[-ifq_size]
                if fetch_cycle < floor:
                    fetch_cycle = floor
            frontend_miss = False
            if new_line:
                extra = col_fetch_extra[index]
                if extra:
                    fetch_cycle += extra
                    frontend_miss = True
            fetched_in_cycle += 1
            if next_fetch_floor < fetch_cycle:
                next_fetch_floor = fetch_cycle

            # Front-end bubbles (memoized-BTB far targets; herding only).
            bubbles = col_bubbles[index]
            if bubbles:
                floor = fetch_cycle + bubbles
                if next_fetch_floor < floor:
                    next_fetch_floor = floor
                btb_memoization_stalls += bubbles
                stalled = True

            # ---------------- DECODE / WIDTH PREDICT ---------------- #
            intdp = col_is_intdp[index]
            predict_width = th and intdp
            if predict_width:
                actual_low = col_actual_low[index]
                if dynamic_kind:
                    predicted_low = wp_table[wp_index[index]] < wp_threshold
                elif oracle_kind:
                    predicted_low = actual_low
                else:
                    predicted_low = wp_profile_get(pcs[index], False)
            else:
                predicted_low = False

            # ---------------- DISPATCH ---------------- #
            dispatch_cycle = fetch_cycle + front_depth
            if dispatch_cycle < dispatch_floor:
                dispatch_cycle = dispatch_floor
            if (dispatch_cycle == last_dispatch_cycle
                    and dispatched_in_cycle >= decode_width):
                dispatch_cycle += 1
            if rob_q and len(rob_q) >= rob_size:
                freed = rob_q.popleft()
                if freed > dispatch_cycle:
                    dispatch_cycle = freed
            if rs_list and len(rs_list) >= rs_size:
                freed = rs_list.pop(0)
                if freed > dispatch_cycle:
                    dispatch_cycle = freed
            is_load = col_is_load[index]
            is_store = col_is_store[index]
            if is_load and len(lq_q) >= lq_size:
                freed = lq_q.popleft()
                if freed > dispatch_cycle:
                    dispatch_cycle = freed
            if is_store and len(sq_q) >= sq_size:
                freed = sq_q.popleft()
                if freed > dispatch_cycle:
                    dispatch_cycle = freed

            # Dependencies through the writer columns.
            w = writers0[index]
            ready = completes[w] if w >= 0 else 0
            w = writers1[index]
            if w >= 0:
                other = completes[w]
                if other > ready:
                    ready = other
            bypass_sourced = ready > dispatch_cycle

            # Register file read: width memoization bits + group stalls.
            srcs = col_srcs[index]
            effective_low = predicted_low
            if predict_width and srcs:
                if is_load or is_store:
                    # Memory ops read full-width address operands; each
                    # read follows its operand's memoization bit, so no
                    # register-read misprediction is possible here.
                    for src, vlow in zip(srcs, col_svals_low[index]):
                        m = memo_get(src)
                        if m is None:
                            memo[src] = m = vlow
                        if m:
                            rf1 += 1
                        else:
                            rf4 += 1
                    if first_rf < 0:
                        first_rf = index
                elif not bypass_sourced:
                    group_stall = False
                    for src, vlow in zip(srcs, col_svals_low[index]):
                        m = memo_get(src)
                        if m is None:
                            memo[src] = m = vlow
                        if predicted_low and m:
                            rf1 += 1
                        else:
                            rf4 += 1
                            if predicted_low:
                                group_stall = True
                    if first_rf < 0:
                        first_rf = index
                    if group_stall:
                        # One stall for the whole dispatch group; correct
                        # the in-flight prediction (Section 3.1).
                        rf_group_stalls += 1
                        stalled = True
                        if dynamic_kind:
                            wp_table[wp_index[index]] = wp_max
                        elif static_kind:
                            wp_merged[pcs[index]] = False
                        dispatch_cycle += 1
                        effective_low = False
            elif srcs and not bypass_sourced:
                rf4 += 1
                if first_rf < 0:
                    first_rf = index

            if dispatch_cycle != last_dispatch_cycle:
                dispatched_in_cycle = 0
                last_dispatch_cycle = dispatch_cycle
            dispatched_in_cycle += 1
            dispatch_floor = dispatch_cycle
            ifq_ring.append(dispatch_cycle)
            if len(ifq_ring) > ifq_size * 2:
                del ifq_ring[:ifq_size]

            # ---------------- ISSUE ---------------- #
            earliest = dispatch_cycle + 1
            if ready > earliest:
                earliest = ready

            alu_stall = 0
            reexecute = False
            is_memory = col_is_memory[index]
            if predict_width and not is_memory:
                # Partitioned ALU width gating, inlined.
                if not effective_low:
                    alu4 += 1
                elif not col_operands_low[index]:
                    alu4 += 1
                    if bypass_sourced:
                        alu_stall = 1
                        alu_input_stalls += 1
                        stalled = True
                elif not col_result_low[index]:
                    # Output misprediction: a wasted low-width pass, then
                    # a full-width re-execution.
                    alu1 += 1
                    alu4 += 1
                    reexecute = True
                    alu_reexecutions += 1
                    stalled = True
                else:
                    alu1 += 1

            earliest += alu_stall
            if is_load:
                pool = (ld_only_pool
                        if ld_st_free() > ld_only_free()
                        else ld_st_pool)
            else:
                pool = pool_by_code[codes[index]]
            issue_cycle = pool.acquire(earliest, col_busy[index])
            count = issued_in_cycle.get(issue_cycle, 0)
            while count >= issue_width:
                issue_cycle += 1
                count = issued_in_cycle.get(issue_cycle, 0)
            issued_in_cycle[issue_cycle] = count + 1
            if len(issued_in_cycle) >= issue_prune_at:
                # Entries at or below the dispatch floor are dead: every
                # future probe targets a cycle > dispatch_floor.
                issued_in_cycle = {
                    cycle: issued
                    for cycle, issued in issued_in_cycle.items()
                    if cycle > dispatch_floor
                }
                issue_prune_at = max(4096, 2 * len(issued_in_cycle))

            # ---------------- EXECUTE ---------------- #
            latency = col_latency[index]
            memory_miss = False
            if is_load:
                access_cycles = col_load_cycles[index]
                memory_miss = col_memory_miss[index]
                if col_load_dram[index]:
                    miss_start = mshr_acquire(issue_cycle + 1, access_cycles)
                    latency += miss_start - (issue_cycle + 1)
                latency += access_cycles
                if th:
                    # Partial-value-encoded L1D read, inlined.
                    if effective_low:
                        if col_dc_comp[index]:
                            l1d1 += 1
                            dc_herded += 1
                        else:
                            l1d4 += 1
                            dc_unsafe += 1
                            dcache_width_stalls += 1
                            stalled = True
                            latency += 1
                    else:
                        l1d4 += 1

            if reexecute:
                latency += col_latency[index]
            complete_cycle = issue_cycle + latency

            # Result broadcast.
            dst = col_dsts[index]
            if dst is not None:
                completes[index] = complete_cycle
                if th:
                    memo[dst] = col_result_low[index]
                    # Entry-stacked scheduler wakeup gating, inlined: the
                    # broadcast wakes the dies holding still-busy entries
                    # (occupancy == RS free-at cycles past completion).
                    occ = len(rs_list) - bisect_right(rs_list, complete_cycle)
                    if top_first:
                        if occ == 0:
                            dies = 1
                        else:
                            dies = -(-occ // sched_cap)
                        for die in range(dies):
                            sched_die[die] += 1
                    else:
                        if occ == 0:
                            dies = 1
                        elif occ < 4:
                            dies = occ
                        else:
                            dies = 4
                        for offset in range(dies):
                            sched_die[(sched_rr + offset) & 3] += 1
                        sched_rr = (sched_rr + 1) & 3

            # Width predictor training (after any in-flight correction).
            if predict_width:
                if predicted_low == actual_low:
                    wp_hits += 1
                elif predicted_low:
                    wp_unsafe += 1
                else:
                    wp_safe += 1
                if dynamic_kind:
                    ti = wp_index[index]
                    counter = wp_table[ti]
                    if actual_low:
                        if counter > 0:
                            wp_table[ti] = counter - 1
                    elif counter < wp_max:
                        wp_table[ti] = counter + 1

            # Branch resolution.
            mispredicted = col_mispred[index]
            if mispredicted:
                floor = complete_cycle + redirect_penalty
                if next_fetch_floor < floor:
                    next_fetch_floor = floor

            # ---------------- COMMIT ---------------- #
            commit_cycle = complete_cycle + 1
            if commit_cycle < last_commit_cycle:
                commit_cycle = last_commit_cycle
            if (commit_cycle == last_commit_cycle
                    and committed_in_cycle >= commit_width):
                commit_cycle += 1
            if commit_cycle != last_commit_cycle:
                committed_in_cycle = 0
                last_commit_cycle = commit_cycle
            committed_in_cycle += 1

            # CPI-stack attribution.
            if stalled:
                category = "width"
            elif mispredicted:
                category = "branch"
            elif memory_miss:
                category = "memory"
            elif frontend_miss:
                category = "frontend"
            elif ready > dispatch_cycle + 1:
                category = "dependency"
            elif issue_cycle > earliest:
                category = "structural"
            else:
                category = "base"
            gap = commit_cycle - prev_commit_for_stack
            if gap > 0:
                cpi_stack[category] = cpi_stack.get(category, 0) + gap
            prev_commit_for_stack = commit_cycle

            rob_q.append(commit_cycle)
            insort(rs_list, issue_cycle + 1)
            if is_load:
                lq_q.append(commit_cycle)
            elif is_store:
                sq_q.append(commit_cycle)

            if capture_marks is not None and capture_marks[index]:
                capture.record(rf1, rf4, alu1, alu4, l1d1, l1d4,
                               sched_die, last_commit_cycle)

        if capture is not None:
            capture.finish(cycle_base)

        # ---------------- RESULT ASSEMBLY ---------------- #
        self.stalls = StallBreakdown(
            rf_group_stalls=rf_group_stalls,
            alu_input_stalls=alu_input_stalls,
            alu_reexecutions=alu_reexecutions,
            dcache_width_stalls=dcache_width_stalls,
            btb_memoization_stalls=btb_memoization_stalls,
        )
        activity = plan.build_activity(
            rf1, rf4, first_rf, alu1, alu4, l1d1, l1d4, sched_die
        )
        self.counters = activity
        self.frontend.stats = plan.branch_stats
        if th:
            predictions = plan.wp_predictions
            if oracle_kind:
                self.width_predictor.stats = WidthPredictorStats(
                    predictions=predictions, correct=predictions
                )
            else:
                self.width_predictor.stats = WidthPredictorStats(
                    predictions=predictions,
                    correct=wp_hits,
                    unsafe_mispredictions=wp_unsafe,
                    safe_mispredictions=wp_safe,
                )
            self.pam.broadcasts = plan.pam_broadcasts
            self.pam.herded = plan.pam_herded_count
            self.dcache_model.loads = plan.dc_loads
            self.dcache_model.herded_loads = dc_herded
            self.dcache_model.unsafe_stalls = dc_unsafe
            self.scheduler.broadcasts = plan.sched_broadcasts
            self.scheduler.broadcast_die_sum = (
                sched_die[0] + sched_die[1] + sched_die[2] + sched_die[3]
            )
            memoized = self.frontend.memoized_btb
            memoized.lookups = plan.memo_btb_lookups
            memoized.far_target_stalls = plan.memo_btb_far

        total_cycles = (last_commit_cycle - cycle_base) if n else 0
        herding = self._herding_metrics()
        return SimulationResult(
            benchmark=pre.name,
            benchmark_class=pre.benchmark_class,
            config_name=cfg.name,
            clock_ghz=cfg.clock_ghz,
            instructions=n - warmup,
            cycles=max(total_cycles, 1),
            activity=activity,
            branch_stats=plan.branch_stats,
            cache_stats=plan.cache_stats,
            width_stats=self.width_predictor.stats if th else None,
            stalls=self.stalls,
            herding=herding,
            cpi_stack=cpi_stack,
        )

    # ------------------------------------------------------------------ #

    def _herding_metrics(self) -> Dict[str, float]:
        metrics: Dict[str, float] = {}
        if self.pam is not None:
            metrics["pam_herded"] = self.pam.herded_fraction
        if self.dcache_model is not None:
            metrics["dcache_herded_loads"] = self.dcache_model.herded_load_fraction
        if self.scheduler is not None:
            metrics["scheduler_dies_per_broadcast"] = self.scheduler.mean_dies_per_broadcast
        if self.frontend.memoized_btb is not None:
            metrics["btb_herded"] = self.frontend.memoized_btb.herded_fraction
        for name, module in self.counters.modules().items():
            if module.total:
                metrics[f"herded::{name}"] = module.herded_fraction
        return metrics


def simulate(trace: Union[Trace, CompiledTrace], config: CPUConfig,
             warmup: int = 0) -> SimulationResult:
    """Convenience wrapper: run ``trace`` under ``config``.

    ``warmup`` instructions at the head of the trace warm caches and
    predictors without contributing to the reported metrics (the trace
    analogue of SimPoint's warmed simulation points).

    Accepts either an object-form :class:`Trace`, compiled on first use
    (a trace the columnar layout cannot represent raises
    :class:`~repro.isa.compiled.TraceCompileError`), or a
    :class:`~repro.isa.compiled.CompiledTrace`.
    """
    if isinstance(trace, Trace):
        trace = trace.compiled()
    return TimingSimulator(config).run_compiled(predecode(trace), warmup=warmup)
