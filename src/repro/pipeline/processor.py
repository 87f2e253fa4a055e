"""The out-of-order core: fetch, dispatch, issue, memory, commit.

A trace-driven, cycle-accurate model of the Table 1 machine.  Control
flow is always correct-path (mispredicted branches create fetch
bubbles); memory-order violations squash and *replay* from the violating
instruction, rewinding the trace fetch pointer exactly as the paper's
squash-and-refetch recovery does.

Cycle phasing (per simulated cycle, in this order):

1. **commit** — retire completed instructions in order; stores write the
   cache and (pair mode) run the deferred store-load ordering search.
2. **complete** — scheduled writebacks wake dependents.
3. **memory** — loads/stores whose address generation finished arbitrate
   for LSQ search ports and the data cache; structural losers retry.
4. **issue** — oldest-first select of ready instructions onto
   functional units.
5. **dispatch** — rename into ROB + issue queue + LSQ.
6. **fetch** — fill the fetch buffer; branch predictor; I-cache.

The memory stage is event driven on the host (see
:mod:`repro.pipeline.wakeup`): a load the LSQ refuses is parked on its
blocker and re-asked only when that blocker changes, and once the
cycle's data-cache ports are gone every later ripe load is charged its
port stall without an access attempt.  Cycles in which no stage can act
are skipped up to the next event, each still charged exactly as
:meth:`Processor.step` would charge it.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.config import LoadQueueSearchMode, MachineConfig
from repro.core.hotpath import hotpath
from repro.core.lsq import LoadStoreQueue, Retry, Violation
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.branch_predictor import HybridBranchPredictor
from repro.pipeline.dyninst import DynInst, InstState
from repro.pipeline.functional_units import FunctionalUnits
from repro.pipeline.issue_queue import IssueQueue
from repro.pipeline.regfile import RegisterFile
from repro.pipeline.rob import ReorderBuffer
from repro.pipeline.wakeup import Entry, WakeIndex
from repro.stats.counters import SimStats
from repro.workload.isa import NO_REG, OP_FLAGS
from repro.workload.trace import Trace

#: Components any stage may touch directly (sim-lint SIM-M registry):
#: the observability layer, like stats/tracer, is write-from-anywhere.
SIM_LINT_INTERFACES = frozenset({"obs"})

#: sim-lint (SIM-T) blessing: a quiet span is a count of modelled cycles
#: in which no stage acts — the cycles the per-cycle loop would step
#: through — though the horizon it ends at is found in host indexes.
SIM_LINT_MODEL_VIEWS = frozenset({"_quiet_span"})

#: Memory-stage entry status (``entry[3]``) before its first
#: ``load_blocked``/``store_blocked`` answer, and once that answer was
#: "free".  A free entry stays free — its blockers are older and cannot
#: reappear — except an out-of-order load, which a full load buffer can
#: refuse again (``_REFUSED``: cleared, and refused by the buffer when
#: last asked).  A parked entry holds the refusal reason instead.
_UNASKED = 0
_CLEARED = 1
_REFUSED = 2

#: Dispatch stalls: what :meth:`Processor._dispatch_stall` reports.
_ROB_FULL, _IQ_FULL, _LQ_FULL, _SQ_FULL, _NO_REGISTER = range(5)


@dataclass
class SimulationResult:
    """Everything a harness needs from one run."""

    trace_name: str
    config: MachineConfig
    stats: SimStats

    @property
    def ipc(self) -> float:
        return self.stats.ipc


class Processor:
    """One configured machine ready to run one trace."""

    def __init__(self, machine: MachineConfig,
                 predictor_clear_interval: Optional[int] = None,
                 checker=None, obs=None, skip_quiet: bool = True) -> None:
        self.machine = machine
        #: Optional ValidationChecker (repro.validate) cross-checking
        #: every committed load against the memory-model oracle and the
        #: pipeline against its structural invariants.
        self.checker = checker
        #: Optional Observer (repro.obs): structured events, interval
        #: metrics and CPI stall attribution.  Every hook below is
        #: guarded by ``is not None`` so a bare run pays one comparison.
        self.obs = obs
        self.stats = SimStats()
        self.memory = MemoryHierarchy(machine.memory)
        kwargs = {}
        if predictor_clear_interval is not None:
            kwargs["clear_interval"] = predictor_clear_interval
        self.lsq = LoadStoreQueue(
            machine.lsq, machine.store_sets, self.memory, self.stats,
            pair_rollback_penalty=machine.core.pair_rollback_penalty,
            **kwargs)
        self.branch_predictor = HybridBranchPredictor(machine.branch)
        self.rob = ReorderBuffer(machine.core.rob_entries)
        self.iq = IssueQueue(machine.core.issue_queue_entries)
        self.fus = FunctionalUnits(machine.core.int_units,
                                   machine.core.fp_units)
        self.regfile = RegisterFile(machine.core.int_registers,
                                    machine.core.fp_registers)

        # Per-cycle loop bounds, hoisted out of the stage methods (the
        # config dataclass attribute chain is a measurable per-cycle
        # cost at ~hundreds of thousands of cycles per run).
        core = machine.core
        self._commit_width = core.commit_width
        self._issue_width = core.issue_width
        self._fetch_width = core.fetch_width

        self.cycle = 0
        self._seq = 0
        self._fetch_index = 0
        self._fetch_stall_until = 0
        self._fetch_buffer: Deque[DynInst] = deque()
        self._redirect_branch: Optional[DynInst] = None
        self._last_fetch_block = -1
        self._last_writer: Dict[int, DynInst] = {}
        self._events: Dict[int, List[DynInst]] = {}
        # memory stage: [seq, inst, attempt_cycle, status] sorted by seq;
        # refused entries wait in the wake index instead.
        self._mem_stage: List[Entry] = []
        self._wake = WakeIndex()
        self._lb_mode = (machine.lsq.lq_search
                         is LoadQueueSearchMode.LOAD_BUFFER)
        #: Skip quiet cycles (``False`` steps every cycle: the same
        #: statistics, for differential checks).  Synthetic
        #: invalidations arrive on a per-cycle clock, so no cycle is
        #: quiet under that scheme.
        self._skip_quiet = skip_quiet and (
            machine.lsq.lq_search is not LoadQueueSearchMode.INVALIDATION)
        self._quiet_refused = 0   # loads the buffer refuses, per quiet cycle
        self._last_commit_cycle = 0
        self._trace: Optional[Trace] = None
        #: Optional PipelineTracer (repro.pipeline.debug) recording
        #: per-instruction stage timestamps.
        self.tracer = None

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------

    def warm_caches(self, trace: Trace) -> None:
        """Pre-touch every block the trace references, once.

        The paper measures 500M instructions after skipping 3 billion,
        i.e. with fully warm caches; our traces are short enough that
        serial first-touch misses would otherwise dominate.  Warming
        touches each unique block once, so capacity/conflict misses
        (streams larger than a cache level) still occur in steady state.
        """
        seen_code = set()
        seen_data = set()
        instruction_access = self.memory.instruction_access
        data_access = self.memory.data_access
        is_cold = trace.is_cold_address
        for inst in trace:
            block = inst.pc >> 5
            if block not in seen_code:
                seen_code.add(block)
                instruction_access(inst.pc)
            if OP_FLAGS[inst.op][2]:
                dblock = inst.addr >> 5
                if dblock not in seen_data and not is_cold(inst.addr):
                    seen_data.add(dblock)
                    data_access(inst.addr)

    def warm_predictor(self, trace: Trace, window: int = 256) -> None:
        """Pre-train the memory-dependence predictor.

        The paper measures 500M instructions after skipping 3 billion, so
        stable store-load pairs are fully trained before measurement
        begins; on our short traces the one-violation-per-static-pair
        training cost would otherwise masquerade as steady-state
        overhead.  Every load whose address was last written by a store
        at most ``window`` instructions earlier (the ROB reach) gets its
        pair merged into the tables.  Periodic table clearing during the
        measured run still exercises re-training.
        """
        recent_stores = {}
        for index, inst in enumerate(trace):
            flags = OP_FLAGS[inst.op]
            if flags[1]:        # store
                recent_stores[inst.addr] = (index, inst.pc)
            elif flags[0]:      # load
                hit = recent_stores.get(inst.addr)
                if hit is not None and index - hit[0] <= window:
                    self.lsq.predictor.train_violation(inst.pc, hit[1])

    def run(self, trace: Trace, max_cycles: Optional[int] = None,
            warm: bool = True) -> SimulationResult:
        """Simulate the whole trace (or until ``max_cycles``)."""
        if warm:
            self.warm_caches(trace)
            self.warm_predictor(trace)
        self._trace = trace
        if self.checker is not None:
            self.checker.attach(self, trace)
        if self.obs is not None:
            # After warming, so warm-up traffic stays out of the events.
            self.obs.attach(self)
        watchdog = self.machine.core.watchdog_cycles
        while not self._finished():
            span = (self._quiet_span(max_cycles, watchdog)
                    if self._skip_quiet else 0)
            if span > 1:
                self._skip(span)
            else:
                self.step()
            if max_cycles is not None and self.cycle >= max_cycles:
                break
            if self.cycle - self._last_commit_cycle > watchdog:
                from repro.validate.bundle import (SimulationDeadlock,
                                                   build_bundle)
                raise SimulationDeadlock(
                    f"no commit for {watchdog} cycles at cycle "
                    f"{self.cycle} (trace {trace.name!r})",
                    bundle=build_bundle(self))
        self.stats.cycles = self.cycle
        return SimulationResult(trace.name, self.machine, self.stats)

    def _finished(self) -> bool:
        return (self._trace is not None
                and self._fetch_index >= len(self._trace)
                and self.rob.empty and not self._fetch_buffer)

    def step(self) -> None:
        """Advance one cycle."""
        if self.obs is not None:
            self.obs.begin_cycle(self.cycle)
        self.lsq.begin_cycle(self.cycle)
        self._commit()
        self._complete()
        self._memory_stage()
        self._issue()
        self._dispatch()
        self._fetch()
        self.lsq.sample()
        if self.checker is not None:
            self.checker.end_cycle()
        if self.obs is not None:
            self.obs.end_cycle(self)
        self.cycle += 1

    # ------------------------------------------------------------------
    # quiet cycles
    # ------------------------------------------------------------------

    def _quiet_span(self, max_cycles: Optional[int], watchdog: int) -> int:
        """How many cycles from now no stage can act (0: this one can)."""
        horizon = self._event_horizon(max_cycles, watchdog)
        return 0 if horizon is None else horizon - self.cycle

    def _event_horizon(self, max_cycles: Optional[int],
                       watchdog: int) -> Optional[int]:
        """The first cycle at which a stage can act again, if no stage
        can act in this one (``None`` when one can).

        A cycle is quiet when nothing is ready to issue or completes,
        the ROB head cannot commit, dispatch and fetch are blocked, and
        every memory-stage entry is parked, waits for a later retry
        cycle, or is a load the full load buffer refuses.  Nothing then
        changes until the horizon: the next completion or retry, the end
        of a fetch stall, ``max_cycles`` or the deadlock watchdog,
        whichever is first.
        """
        cycle = self.cycle
        if self.iq.has_ready or cycle in self._events:
            return None
        if (cycle >= self._fetch_stall_until
                and self._redirect_branch is None
                and self._fetch_index < len(self._trace)
                and len(self._fetch_buffer) < 2 * self._fetch_width):
            return None
        head = self.rob.head
        if head is not None and head.state is InstState.COMPLETE:
            return None
        if self._fetch_buffer and \
                self._dispatch_stall(self._fetch_buffer[0]) is None:
            return None
        horizon = self._last_commit_cycle + watchdog + 1
        if max_cycles is not None and max_cycles < horizon:
            horizon = max_cycles
        refused = 0
        for entry in self._mem_stage:
            if entry[2] > cycle:
                if entry[2] < horizon:
                    horizon = entry[2]
            elif self._buffer_refuses(entry):
                refused += 1
            else:
                return None
        if self._events:
            horizon = min(horizon, min(self._events))
        if (self._redirect_branch is None
                and self._fetch_index < len(self._trace)
                and cycle < self._fetch_stall_until < horizon):
            horizon = self._fetch_stall_until
        self._quiet_refused = refused
        return horizon

    def _buffer_refuses(self, entry: Entry) -> bool:
        """True for a ripe, cleared load the full load buffer refuses."""
        inst = entry[1]
        lsq = self.lsq
        if not ((entry[3] is _CLEARED or entry[3] is _REFUSED)
                and inst.is_load and self._lb_mode
                and lsq.load_buffer.full):
            return False
        nilp = lsq.nilp.nilp_seq()
        return (nilp is not None and nilp < inst.seq
                and (entry[3] is _REFUSED
                     or lsq.load_buffer_refuses(inst)))

    def _skip(self, span: int) -> None:
        """Advance over ``span`` quiet cycles, charging each one exactly
        as :meth:`step` would: the dispatch stall, the waits of loads
        held back by a store set or the load buffer, and the queue
        occupancy."""
        if self._fetch_buffer:
            self._charge_dispatch_stall(
                self._dispatch_stall(self._fetch_buffer[0]), span)
        self.stats.store_set_waits += self._wake.blocked(self.cycle) * span
        self.stats.load_buffer_full_stalls += self._quiet_refused * span
        self.lsq.sample(span)
        if self.obs is not None:
            self.obs.on_skip(self, span)
        end = self.cycle + span
        if self.checker is not None:
            # The invariant scan still runs on every simulated cycle.
            while self.cycle < end:
                self.checker.end_cycle()
                self.cycle += 1
        self.cycle = end

    # ------------------------------------------------------------------
    # 1. commit
    # ------------------------------------------------------------------

    @hotpath
    def _commit(self) -> None:
        rob = self.rob
        lsq = self.lsq
        cycle = self.cycle
        tracer = self.tracer
        checker = self.checker
        stats = self.stats
        for __ in range(self._commit_width):
            head = rob.head
            # ROB entries are never COMMITTED or SQUASHED (both leave
            # the ROB), so "complete" reduces to one state check.
            if head is None or head.state is not InstState.COMPLETE:
                return
            violation: Optional[Violation] = None
            if head.is_store:
                outcome = lsq.try_commit_store(head, cycle)
                if isinstance(outcome, Retry):
                    return
                violation = outcome.violation
            elif head.is_load:
                lsq.commit_load(head)
            rob.commit_head()
            # Only a squash walks the prev_writer chain, and never past
            # a committed writer: drop the link, or every instruction
            # of the run stays reachable from the rename map.
            head.prev_writer = None
            self.regfile.release(head.inst.dest)
            if tracer is not None:
                tracer.note("commit", head, cycle)
            if checker is not None:
                checker.on_commit(head)
            stats.committed += 1
            if head.is_load:
                stats.committed_loads += 1
            elif head.is_store:
                stats.committed_stores += 1
            elif head.is_branch:
                stats.committed_branches += 1
            elif head.is_membar:
                stats.committed_membars += 1
            self._last_commit_cycle = cycle
            lsq.maybe_clear_predictor(stats.committed)
            if violation is not None:
                self._recover(violation)
                return

    # ------------------------------------------------------------------
    # 2. complete / writeback
    # ------------------------------------------------------------------

    @hotpath
    def _complete(self) -> None:
        events = self._events.pop(self.cycle, None)
        if events is None:
            return
        cycle = self.cycle
        tracer = self.tracer
        iq_wake = self.iq.wake
        for inst in events:
            if inst.state is InstState.SQUASHED:
                continue
            inst.state = InstState.COMPLETE
            inst.complete_cycle = cycle
            if tracer is not None:
                tracer.note("complete", inst, cycle)
            for consumer in inst.consumers:
                state = consumer.state
                if state is InstState.SQUASHED:
                    continue
                consumer.pending_sources -= 1
                if (consumer.pending_sources == 0
                        and state is InstState.DISPATCHED):
                    iq_wake(consumer)
            if inst is self._redirect_branch:
                self._redirect_branch = None
                bubble = max(self.machine.core.branch_mispredict_penalty - 2,
                             0)
                self._fetch_stall_until = max(self._fetch_stall_until,
                                              self.cycle + bubble)

    # ------------------------------------------------------------------
    # 3. memory stage
    # ------------------------------------------------------------------

    @hotpath
    def _memory_stage(self) -> None:
        lsq = self.lsq
        cycle = self.cycle
        invalidation = lsq.poll_invalidation(cycle)
        if invalidation is not None:
            # Cut before the walk: no entry is asked or charged.
            self._recover(invalidation)
            return
        mem_stage = self._mem_stage
        wake = self._wake
        stats = self.stats
        lb_mode = self._lb_mode
        load_buffer = lsq.load_buffer
        # Only an executing load fills the load buffer or moves the NILP.
        lb_full = lb_mode and load_buffer.full
        nilp: Optional[int] = None
        nilp_known = False
        # Only an executing load takes a data port during the walk.
        d_ports = self.memory.d_ports
        d_free = d_ports.available(cycle)
        cleared = _CLEARED
        refused = _REFUSED
        retry_type = Retry
        load_blocked = lsq.load_blocked
        search_stall = lsq.search_stall
        try_execute_load = lsq.try_execute_load
        index = 0
        while index < len(mem_stage):
            entry = mem_stage[index]
            if entry[2] > cycle:
                index += 1
                continue
            inst = entry[1]
            if inst.is_load:
                status = entry[3]
                if status is not cleared and status is not refused:
                    reason = load_blocked(inst)
                    if reason is not None and reason != "load_buffer_full":
                        del mem_stage[index]
                        self._park(entry, reason)
                        continue
                    # Past every gate but, perhaps, the load buffer's.
                    if reason is not None:
                        entry[3] = refused
                        stats.load_buffer_full_stalls += 1
                        index += 1
                        continue
                    entry[3] = cleared
                elif lb_full:
                    # Only the load-buffer gate can refuse a cleared
                    # load again, and only one past the NILP.  Its
                    # answer for a load it refused last time stands
                    # while the buffer stays full and the NILP behind.
                    if not nilp_known:
                        nilp = lsq.nilp.nilp_seq()
                        nilp_known = True
                    if nilp is not None and nilp < inst.seq and (
                            status is refused
                            or lsq.load_buffer_refuses(inst)):
                        entry[3] = refused
                        stats.load_buffer_full_stalls += 1
                        index += 1
                        continue
                    entry[3] = cleared
                else:
                    entry[3] = cleared
                if not d_free:
                    # Every later load loses the data port too; the
                    # entry stays ripe for the next cycle.
                    lsq.dcache_stall(inst, cycle)
                    index += 1
                    continue
                outcome = (search_stall(inst, cycle)
                           or try_execute_load(inst, cycle))
                if type(outcome) is retry_type:
                    entry[2] = outcome.next_cycle
                    index += 1
                    continue
                d_free = d_ports.available(cycle)
                del mem_stage[index]
                inst.state = InstState.EXECUTING
                self._events.setdefault(cycle + outcome.latency,
                                        []).append(inst)
                if self.checker is not None:
                    self.checker.on_load_executed(inst, outcome.violation)
                if outcome.violation is not None:
                    self._cut_walk(inst.seq)
                    self._recover(outcome.violation)
                    return
                lb_full = lb_mode and load_buffer.full
                nilp_known = False
                if wake.nilp_waiting and not inst.ooo_issued:
                    # An in-order load moved the NILP.
                    index = self._unpark(
                        wake.nilp_moved(lsq.nilp.nilp_seq()), index,
                        inst.seq)
            elif inst.is_store:
                if entry[3] is not cleared:
                    reason = lsq.store_blocked(inst)
                    if reason is not None:
                        del mem_stage[index]
                        self._park(entry, reason)
                        continue
                    entry[3] = cleared
                outcome = (lsq.store_search_stall(inst, cycle)
                           or lsq.try_execute_store(inst, cycle))
                if type(outcome) is retry_type:
                    entry[2] = outcome.next_cycle
                    index += 1
                    continue
                del mem_stage[index]
                inst.state = InstState.COMPLETE
                inst.complete_cycle = cycle
                if self.tracer is not None:
                    self.tracer.note("complete", inst, cycle)
                if outcome.violation is not None:
                    self._cut_walk(inst.seq)
                    self._recover(outcome.violation)
                    return
                index = self._unpark(wake.store_executed(inst.seq), index,
                                     inst.seq)
            else:  # memory barrier
                outcome = lsq.try_execute_membar(inst, cycle)
                if isinstance(outcome, Retry):
                    entry[2] = outcome.next_cycle
                    index += 1
                    continue
                del mem_stage[index]
                inst.state = InstState.COMPLETE
                inst.complete_cycle = cycle
                if self.tracer is not None:
                    self.tracer.note("complete", inst, cycle)
                index = self._unpark(wake.membar_completed(), index,
                                     inst.seq)
        # Parked loads the walk passed this cycle, as the per-cycle
        # re-ask would have charged them.
        stats.store_set_waits += wake.blocked(cycle)

    def _park(self, entry: Entry, reason: str) -> None:
        """Take a refused entry out of the walk until its blocker moves,
        charging this cycle's refusal."""
        store = None
        if reason == "store_set":
            self.stats.store_set_waits += 1
            store = self.lsq.store_set_blocker(entry[1])
        self._wake.park(entry, reason, self.cycle, store)

    def _unpark(self, woken: List[Entry], index: int, seq: int) -> int:
        """Put woken entries back into the walk; return the walk index.

        Entries younger than ``seq`` (the one that woke them) are still
        ahead of the walk and are asked again this cycle; older ones
        were already passed and wait for the next cycle.
        """
        mem_stage = self._mem_stage
        for entry in woken:
            bisect.insort(mem_stage, entry)
            if entry[0] < seq:
                index += 1
        return index

    def _cut_walk(self, seq: int) -> None:
        """The walk stops at ``seq`` (a squash follows): charge the
        parked loads it passed before stopping."""
        self.stats.store_set_waits += self._wake.blocked(self.cycle, seq)

    # ------------------------------------------------------------------
    # 4. issue
    # ------------------------------------------------------------------

    @hotpath
    def _issue(self) -> None:
        issued = 0
        deferred: List[DynInst] = []
        attempts = 0
        width = self._issue_width
        max_attempts = width * 3
        iq = self.iq
        fus = self.fus
        cycle = self.cycle
        tracer = self.tracer
        obs = self.obs
        mem_stage = self._mem_stage
        events = self._events
        while issued < width and attempts < max_attempts:
            attempts += 1
            inst = iq.pop_ready()
            if inst is None:
                break
            if not fus.try_issue(inst.inst.op, cycle):
                deferred.append(inst)
                continue
            iq.release()
            inst.state = InstState.ISSUED
            inst.issue_cycle = cycle
            if tracer is not None:
                tracer.note("issue", inst, cycle)
            if obs is not None:
                obs.on_issue(inst)
            issued += 1
            if inst.is_memory or inst.is_membar:
                # One cycle of address generation (memory ops), then the
                # LSQ access; barriers wait here for older memory ops.
                bisect.insort(mem_stage, [inst.seq, inst, cycle + 1,
                                          _UNASKED])
            else:
                events.setdefault(cycle + inst.latency, []).append(inst)
        for inst in deferred:
            iq.unpop(inst)

    # ------------------------------------------------------------------
    # 5. dispatch
    # ------------------------------------------------------------------

    @hotpath
    def _dispatch(self) -> None:
        fetch_buffer = self._fetch_buffer
        if not fetch_buffer:
            return
        rob = self.rob
        iq = self.iq
        regfile = self.regfile
        lsq = self.lsq
        tracer = self.tracer
        checker = self.checker
        for __ in range(self._issue_width):
            if not fetch_buffer:
                return
            inst = fetch_buffer[0]
            stall = self._dispatch_stall(inst)
            if stall is not None:
                self._charge_dispatch_stall(stall, 1)
                return
            fetch_buffer.popleft()
            if tracer is not None:
                tracer.note("dispatch", inst, self.cycle)
            self._wire_dependences(inst)
            regfile.rename(inst.inst.dest)
            rob.dispatch(inst)
            iq.dispatch(inst)
            if inst.is_memory:
                lsq.allocate(inst)
                if checker is not None:
                    checker.on_dispatch(inst)
            elif inst.is_membar:
                lsq.on_membar_dispatch(inst)

    def _dispatch_stall(self, inst: DynInst) -> Optional[int]:
        """Why dispatch cannot take ``inst`` this cycle (None: it can)."""
        if self.rob.full:
            return _ROB_FULL
        if self.iq.full:
            return _IQ_FULL
        if inst.is_memory and not self.lsq.can_allocate(inst):
            return _LQ_FULL if inst.is_load else _SQ_FULL
        if not self.regfile.can_rename(inst.inst.dest):
            return _NO_REGISTER
        return None

    def _charge_dispatch_stall(self, stall: int, cycles: int) -> None:
        stats = self.stats
        if stall == _ROB_FULL:
            stats.rob_full_stalls += cycles
        elif stall == _IQ_FULL:
            stats.iq_full_stalls += cycles
        elif stall == _LQ_FULL:
            stats.lq_full_stalls += cycles
        elif stall == _SQ_FULL:
            stats.sq_full_stalls += cycles
        else:
            self.regfile.note_rename_stall(cycles)

    @hotpath
    def _wire_dependences(self, inst: DynInst) -> None:
        last_writer = self._last_writer
        for src in inst.inst.srcs:
            if src == NO_REG:
                continue
            writer = last_writer.get(src)
            # state < COMPLETE means DISPATCHED/ISSUED/EXECUTING — i.e.
            # neither complete nor squashed — in one integer compare.
            if writer is not None and writer.state < InstState.COMPLETE:
                writer.consumers.append(inst)
                inst.pending_sources += 1
        dest = inst.inst.dest
        if dest != NO_REG:
            inst.prev_writer = last_writer.get(dest)
            last_writer[dest] = inst

    # ------------------------------------------------------------------
    # 6. fetch
    # ------------------------------------------------------------------

    @hotpath
    def _fetch(self) -> None:
        if self.cycle < self._fetch_stall_until:
            return
        if self._redirect_branch is not None:
            return
        trace = self._trace
        trace_len = len(trace)
        fetch_buffer = self._fetch_buffer
        fetched = 0
        limit = self._fetch_width
        buffer_cap = 2 * limit
        while (fetched < limit and len(fetch_buffer) < buffer_cap
                and self._fetch_index < trace_len):
            raw = trace[self._fetch_index]
            block = raw.pc >> 6
            if block != self._last_fetch_block:
                self._last_fetch_block = block
                access = self.memory.instruction_access(raw.pc)
                if not access.l1_hit:
                    self._fetch_stall_until = self.cycle + access.latency
                    return
            dyn = DynInst(self._seq, self._fetch_index, raw)
            self._seq += 1
            self._fetch_index += 1
            fetch_buffer.append(dyn)
            fetched += 1
            if dyn.is_branch:
                correct = self.branch_predictor.predict_and_update(
                    raw.pc, raw.taken)
                if not correct:
                    dyn.mispredicted = True
                    self.stats.branch_mispredicts += 1
                    self._redirect_branch = dyn
                    return
                if raw.taken:
                    return  # one taken branch per fetch group

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def _recover(self, violation: Violation) -> None:
        """Squash from the violating instruction and replay."""
        seq = violation.squash_seq
        if self.checker is not None:
            self.checker.on_squash(seq, self.cycle)
        self.lsq.squash_from(seq)
        squashed = self.rob.squash_from(seq)  # youngest first
        in_queue = 0
        for inst in squashed:
            if self.tracer is not None:
                self.tracer.note("squash", inst, self.cycle)
            dest = inst.inst.dest
            if dest != NO_REG and self._last_writer.get(dest) is inst:
                if inst.prev_writer is not None:
                    self._last_writer[dest] = inst.prev_writer
                else:
                    del self._last_writer[dest]
            if dest != NO_REG:
                self.regfile.release(dest)
            in_queue += 1 if self._was_in_issue_queue(inst) else 0
        self.iq.squash(in_queue)
        self._mem_stage = [entry for entry in self._mem_stage
                           if entry[0] < seq]
        for entry in self._wake.squash_from(seq):
            bisect.insort(self._mem_stage, entry)
        # Squashed instructions still in the fetch buffer: the buffer is
        # younger than anything in the ROB, so clear it wholesale.
        self._fetch_buffer.clear()
        # The squash may have swallowed the mispredicted branch we were
        # waiting on — including while it was still in the fetch buffer,
        # where it never transitions to SQUASHED.
        if self._redirect_branch is not None and \
                self._redirect_branch.seq >= seq:
            self._redirect_branch = None
        if squashed:
            self._fetch_index = squashed[-1].trace_index
        penalty = (self.machine.core.branch_mispredict_penalty
                   + violation.extra_penalty)
        if self.obs is not None:
            self.obs.on_recover(violation, self.cycle, penalty)
        self._fetch_stall_until = max(self._fetch_stall_until,
                                      self.cycle + penalty)
        self._last_fetch_block = -1

    @staticmethod
    def _was_in_issue_queue(inst: DynInst) -> bool:
        # rob.squash_from() already flipped states to SQUASHED; an
        # instruction occupied an IQ slot iff it had not yet issued.
        return inst.issue_cycle < 0


def simulate(trace: Trace, machine: MachineConfig,
             max_cycles: Optional[int] = None,
             predictor_clear_interval: Optional[int] = None,
             warm: bool = True, validate: bool = False,
             checker=None, obs=None) -> SimulationResult:
    """Run ``trace`` on ``machine`` and return the statistics.

    ``warm`` pre-touches caches (see :meth:`Processor.warm_caches`);
    disable it to study cold-start behaviour.  ``validate=True`` runs
    under the full memory-model oracle and cycle-level invariant
    checker (see :mod:`repro.validate`), raising ``ValidationError`` on
    the first discrepancy; pass an explicit ``checker`` to customise
    (e.g. record-only mode for fault campaigns).  ``obs`` attaches a
    :class:`repro.obs.Observer` collecting structured events, interval
    metrics and the CPI stall stack; the returned statistics are
    bit-identical with and without it.
    """
    if checker is None and validate:
        from repro.validate import ValidationChecker
        checker = ValidationChecker()
    processor = Processor(
        machine, predictor_clear_interval=predictor_clear_interval,
        checker=checker, obs=obs)
    return processor.run(trace, max_cycles=max_cycles, warm=warm)
