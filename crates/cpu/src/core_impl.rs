//! The core pipeline: dispatch, execution timing, check and retirement.

use std::collections::VecDeque;
use std::sync::Arc;

use reunion_fingerprint::{FingerprintUnit, UpdateRecord};
use reunion_isa::{
    effective_address, execute, Addr, ArchState, AtomicOp, DataMemory, Instruction, Opcode,
    Program, StepEffect,
};
use reunion_kernel::{Cycle, FastHashMap, SimRng};
use reunion_mem::{L1Id, MemorySystem};

use crate::config::{FINGERPRINT_WIDTH, MISPREDICT_PENALTY, ROB_ENTRIES, WIDTH};
use crate::{
    software_tlb_handler, CheckEvent, CoreConfig, CoreStats, Gshare, ReleaseGrant, Role,
    SyncRequest, Tlb, TlbMode,
};

// Activity bounds for the skip engine, and the front-end predicate they
// share with `dispatch`.
#[path = "bounds.rs"]
mod bounds;

// The retirement oracle: debug builds check every committed user
// instruction against the golden model.
#[cfg(debug_assertions)]
#[path = "oracle.rs"]
mod oracle;

/// What retirement reads of one dispatched instruction: 48 bytes, so a
/// full 256-entry ROB is 12 KB.
#[derive(Clone, Copy, Debug)]
struct RobEntry {
    /// What [`execute`] computed at dispatch, applied to the ARF and memory
    /// at retirement; [`StepEffect::Nop`] while awaiting a sync fulfillment.
    effect: StepEffect,
    /// In-order check-stage time: running max of completions; `u64::MAX`
    /// while awaiting a synchronizing-request fulfillment.
    check_time: u64,
    /// PC after this instruction (unchanged for injected handler code).
    next_pc: u32,
    /// The low 16 bits of the entry's fingerprint interval id. Entries of
    /// one interval are contiguous and no interval is empty, so adjacent
    /// entries' ids differ by 0 or 1 and the low bits tell intervals apart.
    interval: u16,
    user: bool,
    serializing: bool,
}

impl RobEntry {
    /// The entry's slot in the grant ring: its interval id modulo
    /// `ROB_ENTRIES`, which the low 16 bits give since 256 divides 2^16.
    fn grant_slot(&self) -> usize {
        usize::from(self.interval) % ROB_ENTRIES
    }
}

/// The memory [`execute`] sees from the pipeline: reads return the value
/// already bound for the instruction; writes wait for retirement.
struct Replay(u64);

impl DataMemory for Replay {
    fn load(&mut self, _: Addr) -> u64 {
        self.0
    }

    fn store(&mut self, _: Addr, _: u64) {}
}

/// A PC as a ROB entry keeps it. Programs are far shorter than 2^32
/// instructions.
fn pc_u32(pc: usize) -> u32 {
    debug_assert!(u32::try_from(pc).is_ok(), "pc {pc} exceeds 32 bits");
    pc as u32
}

/// What an instruction's effect contributes to its interval's fingerprint.
fn update_record(effect: &StepEffect) -> UpdateRecord {
    match *effect {
        StepEffect::Reg { dst, value } => UpdateRecord::reg(dst.index() as u8, value),
        StepEffect::Load { dst, addr, value } => {
            UpdateRecord::load(dst.index() as u8, value, addr.as_u64())
        }
        StepEffect::Store { addr, value } => UpdateRecord::store(addr.as_u64(), value),
        StepEffect::Atomic {
            dst,
            addr,
            old,
            new,
        } => UpdateRecord {
            data: Some(new),
            ..UpdateRecord::load(dst.index() as u8, old, addr.as_u64())
        },
        StepEffect::Branch { next_pc, .. } => UpdateRecord::branch(next_pc as u64),
        // Checked before it executes (§4.4): a non-idempotent access.
        StepEffect::MmuOp { offset } => UpdateRecord {
            addr: Some(offset),
            ..UpdateRecord::default()
        },
        StepEffect::Membar | StepEffect::Trap | StepEffect::Nop => UpdateRecord::default(),
    }
}

/// One out-of-order core attached to a private L1.
///
/// See the [crate docs](crate) for the modeling approach and an example.
#[derive(Debug)]
pub struct Core {
    cfg: CoreConfig,
    program: Arc<Program>,
    l1: L1Id,

    /// Speculative (dispatch-time) architectural state.
    spec: ArchState,
    /// Retired (safe) architectural state.
    retired: ArchState,

    rob: VecDeque<RobEntry>,
    reg_ready: [u64; 32],
    last_check_time: u64,
    fetch_free: u64,
    halted: bool,

    /// The store buffer as loads see it: per word, the youngest pending
    /// store's value and how many stores are pending behind that word.
    /// Stores enter in program order and leave oldest-first (or all at
    /// once, on rollback), and a load forwards from the youngest only, so
    /// the older values are never needed. Never iterated.
    pending_stores: FastHashMap<u64, (u64, u32)>,
    sb_count: usize,
    last_drain_done: u64,

    fp: FingerprintUnit,
    events: Vec<CheckEvent>,
    /// Release times, indexed by interval id modulo [`ROB_ENTRIES`];
    /// `u64::MAX` is a free slot. Empty for an unchecked core, which never
    /// waits for a grant.
    ///
    /// No interval is empty and a granted interval still has an entry in
    /// the ROB, so at most `ROB_ENTRIES` intervals are in flight and two
    /// of them never share a slot. A slot is written by
    /// [`grant`](Self::grant), freed when its interval's last entry
    /// retires, and [`rollback`](Self::rollback) frees them all.
    grants: Box<[u64]>,
    /// A vocal atomic's memory update, `(op, operand)`. The atomic takes
    /// exclusive ownership at dispatch but applies its write only at
    /// retirement, after output comparison (the update must not be visible
    /// before it is checked). Atomics serialize, so at most one is in
    /// flight.
    atomic_commit: Option<(AtomicOp, u64)>,

    lvq: VecDeque<u64>,
    load_values_out: Vec<u64>,

    inject: VecDeque<Instruction>,
    interrupt_at_interval: Option<u64>,

    single_step: bool,
    pending_sync: Option<SyncRequest>,
    /// A dispatched serializing instruction blocks all younger instructions
    /// from entering the pipeline until it retires (§4.4).
    serializing_block: bool,

    dtlb: Tlb,
    itlb_seed: u64,
    user_fetch_index: u64,
    user_retire_index: u64,
    itlb_served: Option<u64>,

    predictor: Gshare,

    error_at: Option<(u64, u32)>,

    /// Length of the serializing-stall episode currently in progress
    /// (consecutive retire-stall cycles at one serializing interval). Lives
    /// outside `CoreStats` so a window reset never truncates an open
    /// episode; the run is credited to `stats.stall_episodes` in the window
    /// where it ends.
    stall_run: u64,

    stats: CoreStats,

    #[cfg(debug_assertions)]
    shadow: oracle::Shadow,
}

impl Core {
    /// Creates a core running `program` through the L1 `l1`.
    ///
    /// `pair_seed` seeds deterministic per-pair decisions (synthetic ITLB
    /// misses); both halves of a logical processor pair must receive the
    /// same seed.
    pub fn new(cfg: CoreConfig, program: Arc<Program>, l1: L1Id, pair_seed: u64) -> Self {
        let entry = program.entry();
        let grants = if cfg.role.checked() {
            vec![u64::MAX; ROB_ENTRIES].into()
        } else {
            Box::default()
        };
        Core {
            cfg,
            program,
            l1,
            spec: ArchState::new(entry),
            retired: ArchState::new(entry),
            rob: VecDeque::new(),
            reg_ready: [0; 32],
            last_check_time: 0,
            fetch_free: 0,
            halted: false,
            pending_stores: FastHashMap::default(),
            sb_count: 0,
            last_drain_done: 0,
            fp: FingerprintUnit::new(FINGERPRINT_WIDTH),
            events: Vec::new(),
            grants,
            atomic_commit: None,
            lvq: VecDeque::new(),
            load_values_out: Vec::new(),
            inject: VecDeque::new(),
            interrupt_at_interval: None,
            single_step: false,
            pending_sync: None,
            serializing_block: false,
            dtlb: Tlb::new(512, 2),
            itlb_seed: pair_seed,
            user_fetch_index: 0,
            user_retire_index: 0,
            itlb_served: None,
            predictor: Gshare::new(12),
            error_at: None,
            stall_run: 0,
            stats: CoreStats::default(),
            #[cfg(debug_assertions)]
            shadow: oracle::Shadow::new(entry),
        }
    }

    /// The core's place in its execution model.
    pub fn role(&self) -> Role {
        self.cfg.role
    }

    /// The L1 this core issues requests through.
    pub fn l1(&self) -> L1Id {
        self.l1
    }

    /// Whether the core has halted (program ran off its image or hit
    /// `halt`).
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Retired user (workload) instructions — the IPC numerator.
    pub fn retired_user(&self) -> u64 {
        self.stats.retired_user.value()
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Mutable statistics (reset between measurement windows).
    pub fn stats_mut(&mut self) -> &mut CoreStats {
        &mut self.stats
    }

    /// The retired (safe) architectural state.
    pub fn arch_state(&self) -> &ArchState {
        &self.retired
    }

    /// Overwrites the retired ARF and PC — the phase-two "copy vocal ARF to
    /// mute" operation of the re-execution protocol (Definition 9).
    pub fn copy_arch_state_from(&mut self, other: &ArchState) {
        self.retired.restore(other);
        self.spec.restore(other);
        #[cfg(debug_assertions)]
        self.shadow.resync(other, !self.rob.is_empty());
    }

    /// Drains fingerprints emitted since the last call (program order).
    #[cfg(test)]
    pub(crate) fn take_check_events(&mut self) -> Vec<CheckEvent> {
        std::mem::take(&mut self.events)
    }

    /// Appends the fingerprints emitted since the last drain onto `out`
    /// (program order). The internal buffer keeps its capacity.
    pub fn drain_check_events_into(&mut self, out: &mut VecDeque<CheckEvent>) {
        // A loop, not `out.extend(..)`: this runs twice a pair tick, and the
        // loop stays small enough for rustc to inline it into the pair.
        for ev in self.events.drain(..) {
            out.push_back(ev);
        }
    }

    /// Drains the load values bound since the last call, in program order
    /// (for the strict trailer's [`push_lvq`](Self::push_lvq)), keeping
    /// the internal buffer's capacity.
    pub fn drain_load_values(&mut self) -> impl Iterator<Item = u64> + '_ {
        self.load_values_out.drain(..)
    }

    /// Appends values to this core's load-value queue (trailing core of the
    /// strict model).
    pub fn push_lvq(&mut self, values: impl IntoIterator<Item = u64>) {
        self.lvq.extend(values);
    }

    /// Grants retirement permission for an interval (driver use).
    pub fn grant(&mut self, grant: ReleaseGrant) {
        let slot = &mut self.grants[grant.interval_id as usize % ROB_ENTRIES];
        debug_assert_eq!(
            *slot,
            u64::MAX,
            "interval {} granted into an occupied slot",
            grant.interval_id
        );
        *slot = grant.at.as_u64();
    }

    /// The release time granted to `entry`'s interval, if its grant has
    /// arrived.
    fn granted_at(&self, entry: &RobEntry) -> Option<u64> {
        let at = self.grants[entry.grant_slot()];
        (at != u64::MAX).then_some(at)
    }

    /// The synchronizing request this core is blocked on, if any.
    pub fn pending_sync(&self) -> Option<SyncRequest> {
        self.pending_sync
    }

    /// Delivers the synchronizing-request value (driver use after
    /// [`MemorySystem::sync_access`]).
    ///
    /// # Panics
    ///
    /// Panics if no synchronizing request is pending.
    pub fn fulfill_sync(&mut self, value: u64, done_at: Cycle) {
        self.pending_sync.take().expect("no pending sync request");
        // The awaiting instruction executes now, on the single coherent
        // value (for an atomic, the old memory value). It is program code:
        // injected handler code never reads memory.
        let pc = self.spec.pc;
        let inst = *self.program.fetch(pc).expect("a program instruction");
        let effect = execute(&inst, &mut self.spec, pc, &mut Replay(value));
        // A pending request closes the front end, and `dispatch` stops
        // right after pushing the awaiting entry: it is the youngest.
        let entry = self.rob.back_mut().expect("sync entry in ROB");
        debug_assert_eq!(entry.check_time, u64::MAX, "youngest entry awaits the sync");
        // A re-executed instruction pays the full check round trip on top of
        // the coherent access: its fingerprint crosses to the partner and
        // the release grant crosses back before anything younger may run.
        let penalty = 2 * self.cfg.check_latency;
        let completion = done_at.as_u64() + penalty;
        self.stats.reexec_penalty_cycles.add(penalty);
        let ct = self.last_check_time.max(completion);
        entry.check_time = ct;
        self.last_check_time = ct;
        self.stats.sync_loads.incr();
        entry.effect = effect;
        entry.next_pc = pc_u32(self.spec.pc);
        if let StepEffect::Load { dst, .. } | StepEffect::Atomic { dst, .. } = effect {
            self.reg_ready[dst.index()] = completion;
        }
        if self.cfg.role.checked() {
            self.fp.absorb(&update_record(&effect));
            self.emit_interval(true);
        }
    }

    /// Enters the single-step phase of the re-execution protocol.
    pub fn begin_single_step(&mut self) {
        self.single_step = true;
    }

    /// Returns to normal speculative out-of-order execution.
    pub fn end_single_step(&mut self) {
        self.single_step = false;
    }

    /// Schedules the external-interrupt handler to run at the start of
    /// fingerprint interval `interval_id` (the vocal core chooses the
    /// interval; the driver replicates it to both cores, §4.3).
    pub fn schedule_interrupt_at(&mut self, interval_id: u64) {
        self.interrupt_at_interval = Some(interval_id);
    }

    /// The id of the next fingerprint interval (for interrupt scheduling).
    pub fn next_interval_id(&self) -> u64 {
        self.fp.next_interval_id()
    }

    /// Injects a single-bit soft error into the first user instruction with
    /// a register destination at or after user-instruction index `index`
    /// (flips `bit` of the result).
    pub fn inject_soft_error_at(&mut self, index: u64, bit: u32) {
        self.error_at = Some((index, bit % 64));
    }

    /// Retires every head-of-ROB instruction whose interval has already
    /// compared successfully, ignoring release timing.
    ///
    /// Used at the start of rollback recovery: both cores of a pair have
    /// compared the same set of intervals, but one may not have *applied*
    /// them to its ARF yet (release times differ by the comparison
    /// latency). Draining granted intervals first lands both cores on the
    /// same safe-state boundary — the "identical safe states" the
    /// re-execution protocol starts from.
    pub fn drain_granted(&mut self, now: Cycle, mem: &mut MemorySystem) {
        while let Some(head) = self.rob.front() {
            if head.check_time == u64::MAX {
                break;
            }
            if self.cfg.role.checked() && self.granted_at(head).is_none() {
                break;
            }
            let entry = self.rob.pop_front().expect("head exists");
            self.commit(entry, now, mem);
        }
    }

    /// Rolls the pipeline back to the retired (safe) state: flushes the ROB
    /// and speculative store buffer, squashes uncompared fingerprints and
    /// every grant, and restarts interval numbering. Memory needs no
    /// repair: atomics commit their write only at retirement, so nothing
    /// speculative ever reached the coherent image.
    pub fn rollback(&mut self, now: Cycle) {
        // Unretired atomics never committed their memory write (the commit
        // happens at retirement), so flushing the ROB discards them fully.
        self.rob.clear();
        self.pending_stores.clear();
        self.sb_count = 0;
        self.spec.restore(&self.retired);
        // Dispatch halts again if the safe state's PC is on the halt.
        self.halted = false;
        #[cfg(debug_assertions)]
        self.shadow.resync(&self.retired, false);
        self.fp.reset();
        self.grants.fill(u64::MAX);
        self.atomic_commit = None;
        self.events.clear();
        self.inject.clear();
        self.pending_sync = None;
        self.serializing_block = false;
        // A rollback abandons the stalled interval; the partial episode is
        // dropped rather than recorded as if it completed.
        self.stall_run = 0;
        self.itlb_served = None;
        self.user_fetch_index = self.user_retire_index;
        self.reg_ready = [0; 32];
        self.fetch_free = now.as_u64() + MISPREDICT_PENALTY;
        self.lvq.clear();
        self.load_values_out.clear();
        self.stats.rollbacks.incr();
    }

    /// Advances the core by one cycle: retire, then dispatch.
    pub fn tick(&mut self, now: Cycle, mem: &mut MemorySystem) {
        self.retire(now, mem);
        self.dispatch(now, mem);
    }

    // ------------------------------------------------------------------
    // Retirement.
    // ------------------------------------------------------------------

    /// Frees the retired entry's grant slot once the last ROB entry of its
    /// interval leaves the pipeline. An entry retires only under its
    /// interval's grant, which exists only after the whole interval has
    /// dispatched (its fingerprint must have been emitted and compared
    /// first), and an interval's entries are contiguous in program order —
    /// so when the new ROB head belongs to a different interval, nothing
    /// can look this grant up again.
    fn release_spent_grant(&mut self, entry: &RobEntry) {
        if self.cfg.role.checked() && self.rob.front().map(|h| h.interval) != Some(entry.interval) {
            self.grants[entry.grant_slot()] = u64::MAX;
        }
    }

    fn retire(&mut self, now: Cycle, mem: &mut MemorySystem) {
        let now_raw = now.as_u64();
        let mut retired = 0;
        while retired < WIDTH {
            let Some(head) = self.rob.front() else { break };
            // An entry awaiting a sync fulfillment has `check_time` MAX.
            if head.check_time > now_raw {
                break;
            }
            if self.cfg.role.checked() {
                let Some(granted_at) = self.granted_at(head) else {
                    break;
                };
                // An interval ending in a serializing instruction drains the
                // pipeline and stalls retirement for the full check round
                // trip: the release grant must cross back to the core before
                // the serializing instruction may commit (§4.4).
                let release_at = if head.serializing && self.cfg.role.pays_grant_return() {
                    granted_at + self.cfg.check_latency
                } else {
                    granted_at
                };
                if release_at > now_raw {
                    if head.serializing && granted_at <= now_raw {
                        self.stats.serializing_stall_cycles.incr();
                        self.stall_run += 1;
                    }
                    break;
                }
            }
            let entry = self.rob.pop_front().expect("head exists");
            self.commit(entry, now, mem);
            retired += 1;
        }
    }

    /// Commits one ROB entry, already popped off the head, to architectural
    /// state: the retired ARF and PC, the entry's memory effect (an
    /// atomic's write — the memory system applies it for a vocal L1 only —
    /// or a store's drain, which the strict trailing core leaves to its
    /// leader), the store buffer, and the retirement statistics.
    fn commit(&mut self, entry: RobEntry, now: Cycle, mem: &mut MemorySystem) {
        self.release_spent_grant(&entry);
        self.retired.pc = entry.next_pc as usize;
        match entry.effect {
            StepEffect::Reg { dst, value } | StepEffect::Load { dst, value, .. } => {
                self.retired.regs.write(dst, value);
            }
            StepEffect::Atomic { dst, addr, old, .. } => {
                self.retired.regs.write(dst, old);
                if let Some((op, operand)) = self.atomic_commit.take() {
                    mem.atomic_commit(self.l1, addr, op, operand, old);
                }
            }
            StepEffect::Store { addr, value } => {
                if !self.cfg.role.consumes_lvq() {
                    let acc = mem.drain_store(now, self.l1, addr, value);
                    self.last_drain_done = self.last_drain_done.max(acc.done_at.as_u64());
                }
                self.retire_oldest_store(addr);
            }
            _ => {}
        }
        self.stats.retired_total.incr();
        if entry.user {
            self.stats.retired_user.incr();
            #[cfg(debug_assertions)]
            self.shadow
                .retire(&self.program, &entry, &self.retired, self.user_retire_index);
            self.user_retire_index += 1;
        }
        if entry.serializing {
            self.stats.serializing.incr();
            self.serializing_block = false;
            if self.stall_run > 0 {
                self.stats.stall_episodes.record(self.stall_run);
                self.stall_run = 0;
            }
        }
    }

    // ------------------------------------------------------------------
    // Dispatch: functional execution plus forward timing.
    // ------------------------------------------------------------------

    /// Whether `op` may only dispatch into an empty ROB (§4.4): the
    /// serializing opcodes, plus every store under sequential consistency.
    fn serializes(&self, op: Opcode) -> bool {
        op.is_serializing() || (self.cfg.store_serializes() && op == Opcode::Store)
    }

    /// The instruction dispatch takes next — injected handler code first,
    /// then the program at the speculative PC — or `None` when the fetch
    /// halts the core (off the image, or `halt`).
    fn peek_next(&self) -> Option<&Instruction> {
        self.inject
            .front()
            .or_else(|| self.program.fetch(self.spec.pc))
            .filter(|inst| inst.op != Opcode::Halt)
    }

    /// Whether a scheduled external interrupt is delivered by this cycle's
    /// dispatch: its interval boundary has been reached and no handler
    /// code is already queued.
    fn interrupt_due(&self) -> bool {
        self.inject.is_empty()
            && self
                .interrupt_at_interval
                .is_some_and(|k| self.fp.next_interval_id() >= k && self.fp.pending() == 0)
    }

    fn dispatch(&mut self, now: Cycle, mem: &mut MemorySystem) {
        let now_raw = now.as_u64();
        let mut dispatched = 0;
        while dispatched < WIDTH {
            if self.fetch_free > now_raw || self.front_end_closed() {
                break;
            }

            // Interrupt delivery at the chosen interval boundary.
            if self.interrupt_due() {
                self.interrupt_at_interval = None;
                self.inject.extend([
                    Instruction::trap(),
                    Instruction::nop(),
                    Instruction::nop(),
                    Instruction::trap(),
                ]);
            }

            let from_inject = !self.inject.is_empty();
            let Some(&inst) = self.peek_next() else {
                self.halted = true;
                break;
            };

            let serializing = self.serializes(inst.op);
            // End the open fingerprint interval so older instructions can
            // retire before the serializing instruction executes.
            if serializing && self.cfg.role.checked() && self.fp.pending() > 0 {
                self.emit_interval(false);
            }
            if self.awaits_retirement(&inst) {
                break;
            }
            // The trailing strict core consumes load values from the LVQ;
            // it cannot dispatch a load the leader has not yet produced.
            if self.cfg.role.consumes_lvq()
                && inst.op.is_load()
                && !self.single_step
                && self.lvq.is_empty()
            {
                break;
            }

            // ITLB (instruction-footprint model) for user instructions.
            if !from_inject && self.itlb_miss_now() {
                self.stats.itlb_misses.incr();
                match self.cfg.tlb {
                    TlbMode::Software => {
                        self.inject.extend(software_tlb_handler());
                        continue;
                    }
                    TlbMode::Hardware { walk_latency } => {
                        self.fetch_free = now_raw + walk_latency;
                        break;
                    }
                }
            }

            // DTLB for memory operations.
            let mut tlb_walk = 0;
            if inst.op.is_memory() {
                let addr = effective_address(&inst, &self.spec);
                if !self.dtlb.access(addr.page()) {
                    self.stats.dtlb_misses.incr();
                    match self.cfg.tlb {
                        TlbMode::Software => {
                            self.inject.extend(software_tlb_handler());
                            continue;
                        }
                        TlbMode::Hardware { walk_latency } => tlb_walk = walk_latency,
                    }
                }
            }

            // Commit to dispatching this instruction.
            if from_inject {
                self.inject.pop_front();
            }
            let user = !from_inject;

            let operands_ready = inst
                .sources()
                .map(|r| self.reg_ready[r.index()])
                .max()
                .unwrap_or(0);
            let exec_start = (now_raw + 1).max(operands_ready) + tlb_walk;

            // Bind a load's or atomic's value and its timing. Single-stepping
            // issues the first memory read as a synchronizing request by both
            // cores instead (re-execution protocol); it executes on arrival.
            let rmw = match inst.op {
                Opcode::Atomic(op) => Some((op, self.spec.regs.read(inst.src2.expect("operand")))),
                _ => None,
            };
            let mut bound = 0;
            let mut completion = exec_start + inst.op.exec_latency();
            match inst.op {
                Opcode::Load | Opcode::Atomic(_) if self.single_step => {
                    let addr = effective_address(&inst, &self.spec);
                    self.pending_sync = Some(SyncRequest { addr, rmw });
                    completion = u64::MAX;
                }
                Opcode::Load => {
                    let addr = effective_address(&inst, &self.spec);
                    (bound, completion) = self.load_value(mem, addr, exec_start);
                }
                Opcode::Atomic(_) if self.cfg.role.consumes_lvq() => {
                    bound = self.lvq.pop_front().expect("LVQ checked before dispatch");
                    completion = exec_start + 4;
                }
                Opcode::Atomic(_) => {
                    let addr = effective_address(&inst, &self.spec);
                    let (op, operand) = rmw.expect("an atomic's update");
                    let acc = mem.atomic_read(
                        Cycle::new(exec_start),
                        self.l1,
                        addr,
                        op,
                        operand,
                        self.cfg.phantom,
                    );
                    bound = acc.value;
                    completion = acc.done_at.as_u64();
                    // Mute atomics update the private view at read time;
                    // vocal atomics commit to memory at retirement.
                    debug_assert!(self.atomic_commit.is_none(), "atomics serialize");
                    self.atomic_commit = rmw;
                }
                Opcode::Store => completion = exec_start + 1,
                Opcode::Membar => completion = exec_start.max(self.last_drain_done),
                _ => {}
            }
            let awaiting_sync = completion == u64::MAX;

            // The golden model computes everything else.
            let pc = self.spec.pc;
            let mut effect = if awaiting_sync {
                StepEffect::Nop
            } else {
                execute(&inst, &mut self.spec, pc, &mut Replay(bound))
            };
            if user {
                effect = self.maybe_corrupt(effect);
            } else {
                // Handler code runs between two program instructions.
                self.spec.pc = pc;
            }
            match effect {
                StepEffect::Reg { dst, .. } => self.reg_ready[dst.index()] = completion,
                StepEffect::Load { dst, value, .. }
                | StepEffect::Atomic {
                    dst, old: value, ..
                } => {
                    self.reg_ready[dst.index()] = completion;
                    if self.cfg.role.produces_lvq() {
                        self.load_values_out.push(value);
                    }
                }
                StepEffect::Store { addr, value } => self.buffer_store(addr, value),
                StepEffect::Branch { taken, .. } => {
                    self.stats.branches.incr();
                    let predicted = self.predictor.predict(pc as u64);
                    self.predictor.update(pc as u64, taken);
                    if predicted != taken {
                        self.stats.mispredicts.incr();
                        self.fetch_free = completion + MISPREDICT_PENALTY;
                    }
                }
                _ => {}
            }
            if user {
                self.user_fetch_index += 1;
            }

            let check_time = if awaiting_sync {
                u64::MAX
            } else {
                let ct = self.last_check_time.max(completion);
                self.last_check_time = ct;
                ct
            };

            self.rob.push_back(RobEntry {
                effect,
                check_time,
                next_pc: pc_u32(self.spec.pc),
                interval: self.fp.next_interval_id() as u16,
                user,
                serializing,
            });

            if self.cfg.role.checked() && !awaiting_sync {
                self.fp.absorb(&update_record(&effect));
                let interval_full = self.fp.pending() >= self.cfg.fingerprint_interval;
                if serializing || interval_full || self.single_step {
                    self.emit_interval(serializing);
                }
            }

            dispatched += 1;
            if serializing {
                self.serializing_block = true;
                break;
            }
            if awaiting_sync {
                break;
            }
        }
    }

    /// Enters a dispatched store into the store buffer: it becomes the
    /// youngest pending store behind its word.
    fn buffer_store(&mut self, addr: Addr, value: u64) {
        self.sb_count += 1;
        let (youngest, pending) = self.pending_stores.entry(addr.word().as_u64()).or_default();
        *youngest = value;
        *pending += 1;
        let depth = u64::from(*pending);
        self.stats.peak_store_chain = self.stats.peak_store_chain.max(depth);
        if depth > 4 {
            self.stats.store_chain_spills.incr();
        }
    }

    /// Removes the oldest pending store behind `addr`'s word (stores retire
    /// in program order, so the retiring one is the oldest).
    fn retire_oldest_store(&mut self, addr: Addr) {
        self.sb_count = self.sb_count.saturating_sub(1);
        let word = addr.word().as_u64();
        if let Some((_, pending)) = self.pending_stores.get_mut(&word) {
            *pending -= 1;
            if *pending == 0 {
                self.pending_stores.remove(&word);
            }
        }
    }

    /// Binds a load value: store-buffer forwarding first, then the memory
    /// system (coherent for vocal L1s, phantom for mute L1s, LVQ for the
    /// strict trailing core). Returns `(value, completion_time)`; forwards
    /// and LVQ entries take the memory system's L1 hit latency.
    fn load_value(&mut self, mem: &mut MemorySystem, addr: Addr, exec_start: u64) -> (u64, u64) {
        // The strict trailing core bypasses the cache AND store-buffer
        // interface in favour of the LVQ (§2.3) — and must always consume
        // one queue entry to stay aligned with the leader.
        let hit_latency = mem.config().l1_hit_latency;
        if self.cfg.role.consumes_lvq() {
            let value = self.lvq.pop_front().expect("LVQ checked before dispatch");
            return (value, exec_start + hit_latency);
        }
        if let Some(&(value, _)) = self.pending_stores.get(&addr.word().as_u64()) {
            self.stats.forwarded_loads.incr();
            return (value, exec_start + hit_latency);
        }
        let acc = mem.load(Cycle::new(exec_start), self.l1, addr, self.cfg.phantom);
        (acc.value, acc.done_at.as_u64())
    }

    fn emit_interval(&mut self, serializing: bool) {
        let ready = Cycle::new(self.last_check_time);
        let fingerprint = self.fp.emit();
        self.stats.intervals.incr();
        self.events.push(CheckEvent {
            fingerprint,
            ready_at: ready,
            serializing,
        });
        self.stats.peak_check_events = self.stats.peak_check_events.max(self.events.len() as u64);
    }

    fn itlb_miss_now(&mut self) -> bool {
        if self.cfg.itlb_miss_per_million == 0 {
            return false;
        }
        let idx = self.user_fetch_index;
        if self.itlb_served == Some(idx) {
            return false;
        }
        let h = SimRng::hash_value(self.itlb_seed ^ idx.wrapping_mul(0x2545_F491_4F6C_DD1D));
        let miss = h % 1_000_000 < self.cfg.itlb_miss_per_million;
        if miss {
            self.itlb_served = Some(idx);
        }
        miss
    }

    /// Applies a scheduled soft-error injection to the register result of a
    /// user instruction (`li`, an ALU operation or a load), in the effect
    /// and in the speculative ARF.
    fn maybe_corrupt(&mut self, mut effect: StepEffect) -> StepEffect {
        let Some((index, bit)) = self.error_at else {
            return effect;
        };
        if let StepEffect::Reg { dst, value } | StepEffect::Load { dst, value, .. } = &mut effect {
            if self.user_fetch_index >= index {
                self.error_at = None;
                *value ^= 1u64 << bit;
                self.spec.regs.write(*dst, *value);
                #[cfg(debug_assertions)]
                self.shadow.expect_corruption(self.user_fetch_index);
            }
        }
        effect
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reunion_isa::{BranchCond, Instruction as I, RegId};
    use reunion_mem::{MemConfig, Owner};

    fn r(i: u8) -> RegId {
        RegId::new(i)
    }

    fn run_core(prog: Vec<I>, cycles: u64) -> (Core, MemorySystem) {
        let program = Arc::new(Program::new("t", prog).unwrap());
        let mut mem = MemorySystem::new(MemConfig::small());
        let l1 = mem.register_l1(Owner::vocal(0));
        let mut core = Core::new(CoreConfig::default(), program, l1, 7);
        for c in 0..cycles {
            core.tick(Cycle::new(c), &mut mem);
        }
        (core, mem)
    }

    #[test]
    fn straight_line_code_retires_and_matches_golden_model() {
        let code = vec![
            I::load_imm(r(1), 0x400),
            I::load_imm(r(2), 21),
            I::alu_imm(reunion_isa::AluOp::Mul, r(3), r(2), 2),
            I::store(r(1), r(3), 0),
            I::load(r(4), r(1), 0),
            I::halt(),
        ];
        let (core, mem) = run_core(code, 2000);
        assert!(core.is_halted());
        assert_eq!(core.retired_user(), 5);
        assert_eq!(core.arch_state().regs.read(r(4)), 42);
        assert_eq!(mem.peek_coherent(Addr::new(0x400)), 42);
    }

    #[test]
    fn loop_retires_many_instructions() {
        // r1 starts at 0, counts up forever.
        let code = vec![I::add_imm(r(1), r(1), 1), I::jump(0)];
        let (core, _) = run_core(code, 3000);
        assert!(
            core.retired_user() > 1000,
            "retired {}",
            core.retired_user()
        );
        // IPC sanity: 4-wide core on a dependent chain + jump: > 0.5 IPC.
        assert!(core.retired_user() > 1500);
    }

    #[test]
    fn store_load_forwarding_is_used() {
        let code = vec![
            I::load_imm(r(1), 0x800),
            I::load_imm(r(2), 5),
            I::store(r(1), r(2), 0),
            I::load(r(3), r(1), 0), // should forward
            I::halt(),
        ];
        let (core, _) = run_core(code, 2000);
        assert_eq!(core.arch_state().regs.read(r(3)), 5);
        assert!(core.stats().forwarded_loads.value() >= 1);
    }

    /// The store buffer keeps a value and a count per word; the reference
    /// keeps every pending store, in program order. Random stores, loads,
    /// oldest-first retirements and rollbacks must leave the two agreeing
    /// on what a load forwards, on occupancy and on the depth statistics.
    #[test]
    fn store_buffer_agrees_with_a_list_of_pending_stores() {
        for seed in 0..8 {
            let mut rng = SimRng::seed_from(0x5B0F ^ seed);
            let program = Arc::new(Program::new("sb", vec![I::halt()]).unwrap());
            let mut mem = MemorySystem::new(MemConfig::small());
            let l1 = mem.register_l1(Owner::vocal(0));
            let mut core = Core::new(CoreConfig::default(), program, l1, 7);
            let mut pending: Vec<(u64, u64)> = Vec::new();
            let (mut peak, mut spills) = (0, 0);
            for step in 0..4_000u64 {
                // Six words, so chains behind one word grow past four.
                let addr = Addr::new(0x1000 + 8 * rng.below(6));
                let word = addr.word().as_u64();
                match rng.below(100) {
                    0..=39 => {
                        core.buffer_store(addr, step);
                        pending.push((word, step));
                        let depth = pending.iter().filter(|&&(w, _)| w == word).count() as u64;
                        peak = peak.max(depth);
                        spills += u64::from(depth > 4);
                    }
                    40..=69 => {
                        let forwards = core.stats().forwarded_loads.value();
                        let (value, _) = core.load_value(&mut mem, addr, step);
                        let youngest = pending.iter().rev().find(|&&(w, _)| w == word);
                        let forwarded = core.stats().forwarded_loads.value() - forwards;
                        assert_eq!(forwarded, u64::from(youngest.is_some()), "seed {seed}");
                        if let Some(&(_, expected)) = youngest {
                            assert_eq!(value, expected, "seed {seed} step {step}");
                        }
                    }
                    70..=98 => {
                        if !pending.is_empty() {
                            let (oldest, _) = pending.remove(0);
                            core.retire_oldest_store(Addr::new(oldest));
                        }
                    }
                    _ => {
                        core.rollback(Cycle::new(step));
                        pending.clear();
                    }
                }
                assert_eq!(core.sb_count, pending.len(), "seed {seed} step {step}");
                let words: std::collections::BTreeSet<u64> =
                    pending.iter().map(|&(w, _)| w).collect();
                assert_eq!(core.pending_stores.len(), words.len(), "seed {seed}");
            }
            assert!(peak > 4, "seed {seed}: no chain grew past four");
            assert_eq!(core.stats().peak_store_chain, peak, "seed {seed}");
            assert_eq!(core.stats().store_chain_spills.value(), spills);
        }
    }

    /// The grant ring against a list of grants: each in-flight interval
    /// with its entries in the ROB and its release time once granted.
    /// Random steps emit intervals into the ROB, grant any in-flight
    /// interval in any order, retire and roll back; after each, every ROB
    /// entry must find its interval's grant, and the ring must hold exactly
    /// the list's grants. Even seeds emit one-entry intervals, so 256 of
    /// them fill the ROB; odd seeds emit up to three entries each, so
    /// retirement stops inside an interval.
    #[test]
    fn the_grant_ring_agrees_with_a_list_of_grants() {
        for seed in 0..4 {
            let mut rng = SimRng::seed_from(0x6A27 ^ seed);
            let program = Arc::new(Program::new("ring", vec![I::halt()]).unwrap());
            let mut mem = MemorySystem::new(MemConfig::small());
            let l1 = mem.register_l1(Owner::vocal(0));
            let mut core = Core::new(CoreConfig::for_role(Role::Reunion), program, l1, 7);
            // Oldest first: (interval id, entries in the ROB, release time).
            let mut in_flight: VecDeque<(u64, usize, Option<u64>)> = VecDeque::new();
            let mut next_id = 0;
            let mut peak = 0;
            for now in 0..16_000u64 {
                // Every other thousand steps nothing retires or rolls back,
                // so the ROB fills.
                let filling = now % 2_000 < 1_000;
                match rng.below(if filling { 80 } else { 100 }) {
                    0..=44 => {
                        let len = 1 + (seed % 2 * rng.below(3)) as usize;
                        if core.rob.len() + len <= ROB_ENTRIES {
                            let entry = RobEntry {
                                effect: StepEffect::Nop,
                                check_time: 0,
                                next_pc: 0,
                                interval: next_id as u16,
                                user: false,
                                serializing: false,
                            };
                            core.rob.extend(std::iter::repeat_n(entry, len));
                            in_flight.push_back((next_id, len, None));
                            next_id += 1;
                        }
                    }
                    45..=79 => {
                        let ungranted: Vec<usize> = (0..in_flight.len())
                            .filter(|&i| in_flight[i].2.is_none())
                            .collect();
                        if !ungranted.is_empty() {
                            let i = ungranted[rng.below(ungranted.len() as u64) as usize];
                            let at = now + rng.below(8);
                            core.grant(ReleaseGrant {
                                interval_id: in_flight[i].0,
                                at: Cycle::new(at),
                            });
                            in_flight[i].2 = Some(at);
                        }
                    }
                    80..=98 => {
                        core.retire(Cycle::new(now), &mut mem);
                        for _ in 0..WIDTH {
                            let Some((_, left, Some(at))) = in_flight.front_mut() else {
                                break;
                            };
                            if *at > now {
                                break;
                            }
                            *left -= 1;
                            if *left == 0 {
                                in_flight.pop_front();
                            }
                        }
                    }
                    _ => {
                        core.rollback(Cycle::new(now));
                        in_flight.clear();
                        next_id = 0;
                    }
                }
                peak = peak.max(in_flight.len());
                let mut rob = core.rob.iter();
                for &(id, len, at) in &in_flight {
                    for entry in rob.by_ref().take(len) {
                        assert_eq!(entry.interval, id as u16, "seed {seed} at {now}");
                        assert_eq!(core.granted_at(entry), at, "seed {seed} at {now}");
                    }
                }
                assert!(
                    rob.next().is_none(),
                    "seed {seed} at {now}: ROB longer than the list"
                );
                let held = core.grants.iter().filter(|&&at| at != u64::MAX).count();
                let granted = in_flight.iter().filter(|g| g.2.is_some()).count();
                assert_eq!(
                    held, granted,
                    "seed {seed} at {now}: ring holds stale grants"
                );
            }
            if seed % 2 == 0 {
                assert_eq!(
                    peak, ROB_ENTRIES,
                    "seed {seed}: the ROB never held 256 intervals"
                );
            }
        }
    }

    #[test]
    fn membar_waits_for_drain_and_serializes() {
        let code = vec![
            I::load_imm(r(1), 0x900),
            I::load_imm(r(2), 1),
            I::store(r(1), r(2), 0),
            I::membar(),
            I::add_imm(r(3), r(3), 1),
            I::halt(),
        ];
        let (core, mem) = run_core(code, 4000);
        assert!(core.is_halted());
        assert_eq!(core.stats().serializing.value(), 1);
        assert_eq!(mem.peek_coherent(Addr::new(0x900)), 1);
    }

    #[test]
    fn atomic_swap_applies_and_serializes() {
        let code = vec![
            I::load_imm(r(1), 0xA00),
            I::load_imm(r(2), 1),
            I::atomic(AtomicOp::Swap, r(3), r(1), r(2), 0),
            I::halt(),
        ];
        let (core, mem) = run_core(code, 4000);
        assert_eq!(mem.peek_coherent(Addr::new(0xA00)), 1);
        assert_eq!(core.stats().serializing.value(), 1);
        // dst got the old value (uninitialized hash, but deterministic).
        let old = core.arch_state().regs.read(r(3));
        assert_eq!(old, reunion_isa::SparseMemory::uninit_value(0xA00));
    }

    #[test]
    fn branch_loop_counts_mispredicts_eventually_learns() {
        // Alternating branch pattern to exercise the predictor.
        let code = vec![
            I::add_imm(r(1), r(1), 1),
            I::alu_imm(reunion_isa::AluOp::And, r(2), r(1), 1),
            I::branch(BranchCond::Nez, r(2), 0),
            I::jump(0),
        ];
        let (core, _) = run_core(code, 3000);
        assert!(core.stats().branches.value() > 100);
        // Some mispredicts must occur on a data-dependent pattern.
        assert!(core.stats().mispredicts.value() > 0);
    }

    #[test]
    fn rollback_restores_retired_state() {
        let code = vec![I::add_imm(r(1), r(1), 1), I::jump(0)];
        let program = Arc::new(Program::new("rb", code).unwrap());
        let mut mem = MemorySystem::new(MemConfig::small());
        let l1 = mem.register_l1(Owner::vocal(0));
        let mut core = Core::new(CoreConfig::default(), program, l1, 7);
        for c in 0..100 {
            core.tick(Cycle::new(c), &mut mem);
        }
        let retired_r1 = core.arch_state().regs.read(r(1));
        core.rollback(Cycle::new(100));
        assert_eq!(core.stats().rollbacks.value(), 1);
        assert_eq!(core.arch_state().regs.read(r(1)), retired_r1);
        // Continue executing after rollback.
        for c in 101..300 {
            core.tick(Cycle::new(c), &mut mem);
        }
        assert!(core.arch_state().regs.read(r(1)) > retired_r1);
    }

    /// Recovery's `drain_granted` and the per-cycle `retire` must commit a
    /// ROB entry identically. Two cores run `code` in lockstep; from cycle
    /// `freeze` on every grant is stamped far ahead, so compared work piles
    /// up unreleased. One core then drains at the recovery point, the other
    /// retires once the release time has passed, and both must hold the
    /// same architectural state, store buffer, counts and memory. Returns
    /// the (stores, serializing instructions, ROB entries left) of the
    /// drain, for the callers to check the case they built did occur.
    fn drain_matches_retire(code: Vec<I>, freeze: u64) -> (usize, u64, usize) {
        const RELEASE: u64 = 1_000;
        let program = Arc::new(Program::new("drain", code).unwrap());
        let mut cfg = CoreConfig::for_role(Role::Reunion);
        cfg.fingerprint_interval = 4;
        let mut rigs: Vec<(Core, MemorySystem)> = (0..2)
            .map(|_| {
                let mut mem = MemorySystem::new(MemConfig::small());
                let l1 = mem.register_l1(Owner::vocal(0));
                (Core::new(cfg.clone(), program.clone(), l1, 7), mem)
            })
            .collect();
        for (core, mem) in &mut rigs {
            for c in 0..freeze + 100 {
                core.tick(Cycle::new(c), mem);
                for ev in core.take_check_events() {
                    core.grant(ReleaseGrant {
                        interval_id: ev.fingerprint.interval_id,
                        at: if c < freeze {
                            ev.ready_at
                        } else {
                            Cycle::new(RELEASE)
                        },
                    });
                }
            }
        }
        let [(a, a_mem), (b, b_mem)] = &mut rigs[..] else {
            unreachable!("two rigs")
        };
        let stores_before = a.sb_count;
        let serializing_before = a.stats().serializing.value();
        a.drain_granted(Cycle::new(freeze + 100), a_mem);
        for c in RELEASE..RELEASE + 100 {
            b.retire(Cycle::new(c), b_mem);
        }
        assert_eq!(a.arch_state(), b.arch_state());
        assert_eq!(a.rob.len(), b.rob.len());
        assert_eq!(a.sb_count, b.sb_count);
        assert_eq!(a.pending_stores.len(), b.pending_stores.len());
        assert_eq!(a.grants, b.grants);
        assert_eq!(a.retired_user(), b.retired_user());
        assert_eq!(a.stats().retired_total, b.stats().retired_total);
        assert_eq!(a.stats().serializing, b.stats().serializing);
        for offset in [0, 8] {
            let addr = Addr::new(0xC00 + offset);
            assert_eq!(a_mem.peek_coherent(addr), b_mem.peek_coherent(addr));
        }
        (
            stores_before - a.sb_count,
            a.stats().serializing.value() - serializing_before,
            a.rob.len(),
        )
    }

    #[test]
    fn drain_granted_retires_a_full_rob_like_retire_and_stops_mid_interval() {
        let code = vec![
            I::load_imm(r(1), 0xC00),
            I::add_imm(r(2), r(2), 1),
            I::store(r(1), r(2), 0),
            I::jump(1),
        ];
        let (stores, _, left) = drain_matches_retire(code, 0);
        assert!(stores > 3, "a ROB full of stores drained: {stores}");
        assert!(left > 0, "the open interval at the tail stays uncommitted");
    }

    #[test]
    fn drain_granted_commits_an_atomic_like_retire() {
        let code = vec![
            I::load_imm(r(1), 0xC00),
            I::add_imm(r(2), r(2), 1),
            I::store(r(1), r(2), 0),
            I::atomic(AtomicOp::FetchAdd, r(3), r(1), r(2), 8),
            I::jump(1),
        ];
        // Wherever recovery strikes in the loop; some strike with the
        // atomic alone in the ROB, compared but unreleased.
        let atomics: u64 = (100..140)
            .map(|freeze| drain_matches_retire(code.clone(), freeze).1)
            .sum();
        assert!(atomics > 0, "no freeze point caught a granted atomic");
    }

    #[test]
    fn unretired_atomic_never_reaches_memory() {
        let code = vec![
            I::load_imm(r(1), 0xB00),
            I::load_imm(r(2), 1),
            I::atomic(AtomicOp::Swap, r(3), r(1), r(2), 0),
            I::jump(2),
        ];
        let program = Arc::new(Program::new("rv", code).unwrap());
        let mut mem = MemorySystem::new(MemConfig::small());
        mem.poke(Addr::new(0xB00), 0);
        let l1 = mem.register_l1(Owner::vocal(0));
        // Use checking mode so the atomic stays unretired: grant the two
        // leading load_imms (so the serializing atomic can dispatch) but
        // never grant the atomic's own interval.
        let cfg = CoreConfig::for_role(Role::Reunion);
        let mut core = Core::new(cfg, program, l1, 7);
        for c in 0..500 {
            core.tick(Cycle::new(c), &mut mem);
            for ev in core.take_check_events() {
                if ev.fingerprint.interval_id < 2 {
                    core.grant(ReleaseGrant {
                        interval_id: ev.fingerprint.interval_id,
                        at: ev.ready_at,
                    });
                }
            }
        }
        // The atomic dispatched but cannot retire ungranted: its memory
        // write must not be visible (Definition 7).
        assert_eq!(mem.peek_coherent(Addr::new(0xB00)), 0);
        core.rollback(Cycle::new(500));
        assert_eq!(mem.peek_coherent(Addr::new(0xB00)), 0);
        // Once granted and retired, the commit lands.
        for c in 501..1200 {
            core.tick(Cycle::new(c), &mut mem);
            for ev in core.take_check_events() {
                core.grant(ReleaseGrant {
                    interval_id: ev.fingerprint.interval_id,
                    at: ev.ready_at,
                });
            }
        }
        assert_eq!(mem.peek_coherent(Addr::new(0xB00)), 1);
    }

    #[test]
    fn checking_mode_blocks_retirement_until_granted() {
        let code = vec![I::add_imm(r(1), r(1), 1), I::jump(0)];
        let program = Arc::new(Program::new("chk", code).unwrap());
        let mut mem = MemorySystem::new(MemConfig::small());
        let l1 = mem.register_l1(Owner::vocal(0));
        let mut core = Core::new(CoreConfig::for_role(Role::Reunion), program, l1, 7);
        for c in 0..200 {
            core.tick(Cycle::new(c), &mut mem);
        }
        assert_eq!(core.retired_user(), 0, "nothing may retire without grants");
        let events = core.take_check_events();
        assert!(!events.is_empty());
        // Grant everything generously and watch retirement proceed.
        for ev in &events {
            core.grant(ReleaseGrant {
                interval_id: ev.fingerprint.interval_id,
                at: ev.ready_at,
            });
        }
        for c in 200..400 {
            core.tick(Cycle::new(c), &mut mem);
        }
        assert!(core.retired_user() > 0);
    }

    #[test]
    fn software_tlb_miss_injects_serializing_handler() {
        let code = vec![
            I::load_imm(r(1), 0x10_0000),
            I::load(r(2), r(1), 0),
            I::halt(),
        ];
        let program = Arc::new(Program::new("tlb", code).unwrap());
        let mut mem = MemorySystem::new(MemConfig::small());
        let l1 = mem.register_l1(Owner::vocal(0));
        let cfg = CoreConfig {
            tlb: TlbMode::Software,
            ..CoreConfig::default()
        };
        let mut core = Core::new(cfg, program, l1, 7);
        for c in 0..5000 {
            core.tick(Cycle::new(c), &mut mem);
        }
        assert!(core.is_halted());
        assert_eq!(core.stats().dtlb_misses.value(), 1);
        // 5 handler instructions retired beyond the 2 user instructions
        // (halt stops fetch without retiring).
        assert_eq!(core.retired_user(), 2);
        assert_eq!(core.stats().retired_total.value(), 2 + 5);
        assert_eq!(core.stats().serializing.value(), 5);
    }

    #[test]
    fn hardware_tlb_miss_charges_latency_only() {
        let code = vec![
            I::load_imm(r(1), 0x10_0000),
            I::load(r(2), r(1), 0),
            I::halt(),
        ];
        let program = Arc::new(Program::new("tlbh", code).unwrap());
        let mut mem = MemorySystem::new(MemConfig::small());
        let l1 = mem.register_l1(Owner::vocal(0));
        let mut core = Core::new(CoreConfig::default(), program, l1, 7);
        for c in 0..5000 {
            core.tick(Cycle::new(c), &mut mem);
        }
        assert_eq!(core.stats().dtlb_misses.value(), 1);
        assert_eq!(core.stats().retired_total.value(), 2, "no injected handler");
    }

    #[test]
    fn sc_consistency_serializes_stores() {
        let code = vec![
            I::load_imm(r(1), 0xC00),
            I::store(r(1), r(1), 0),
            I::store(r(1), r(1), 8),
            I::halt(),
        ];
        let program = Arc::new(Program::new("sc", code).unwrap());
        let mut mem = MemorySystem::new(MemConfig::small());
        let l1 = mem.register_l1(Owner::vocal(0));
        let cfg = CoreConfig {
            consistency: crate::Consistency::Sc,
            ..CoreConfig::default()
        };
        let mut core = Core::new(cfg, program, l1, 7);
        for c in 0..2000 {
            core.tick(Cycle::new(c), &mut mem);
        }
        assert!(core.is_halted());
        assert_eq!(
            core.stats().serializing.value(),
            2,
            "each store serializes under SC"
        );
    }

    #[test]
    fn soft_error_corrupts_result() {
        let code = vec![I::load_imm(r(1), 100), I::halt()];
        let program = Arc::new(Program::new("err", code).unwrap());
        let mut mem = MemorySystem::new(MemConfig::small());
        let l1 = mem.register_l1(Owner::vocal(0));
        let mut core = Core::new(CoreConfig::default(), program.clone(), l1, 7);
        core.inject_soft_error_at(0, 3);
        for c in 0..100 {
            core.tick(Cycle::new(c), &mut mem);
        }
        assert_eq!(core.arch_state().regs.read(r(1)), 100 ^ 8);
    }

    #[test]
    fn single_step_raises_sync_on_first_load() {
        let code = vec![
            I::add_imm(r(1), r(1), 0xD00),
            I::load(r(2), r(1), 0),
            I::jump(0),
        ];
        let program = Arc::new(Program::new("ss", code).unwrap());
        let mut mem = MemorySystem::new(MemConfig::small());
        mem.poke(Addr::new(0xD00), 77);
        let l1 = mem.register_l1(Owner::vocal(0));
        let mut core = Core::new(CoreConfig::for_role(Role::Reunion), program, l1, 7);
        core.begin_single_step();
        let mut cycle = 0;
        // Drive with generous grants until the sync request appears.
        while core.pending_sync().is_none() && cycle < 5000 {
            core.tick(Cycle::new(cycle), &mut mem);
            for ev in core.take_check_events() {
                core.grant(ReleaseGrant {
                    interval_id: ev.fingerprint.interval_id,
                    at: ev.ready_at,
                });
            }
            cycle += 1;
        }
        let req = core.pending_sync().expect("sync raised");
        assert_eq!(req.addr, Addr::new(0xD00));
        assert!(req.rmw.is_none());
        // Fulfill and verify the value lands in the register.
        core.fulfill_sync(77, Cycle::new(cycle + 10));
        for ev in core.take_check_events() {
            core.grant(ReleaseGrant {
                interval_id: ev.fingerprint.interval_id,
                at: ev.ready_at,
            });
        }
        for c in cycle..cycle + 200 {
            core.tick(Cycle::new(c + 11), &mut mem);
            for ev in core.take_check_events() {
                core.grant(ReleaseGrant {
                    interval_id: ev.fingerprint.interval_id,
                    at: ev.ready_at,
                });
            }
        }
        assert_eq!(core.arch_state().regs.read(r(2)), 77);
        assert_eq!(core.stats().sync_loads.value(), 1);
    }

    #[test]
    fn interval_grouping_respects_configured_interval() {
        let code = vec![I::add_imm(r(1), r(1), 1), I::jump(0)];
        let program = Arc::new(Program::new("iv", code).unwrap());
        let mut mem = MemorySystem::new(MemConfig::small());
        let l1 = mem.register_l1(Owner::vocal(0));
        let mut cfg = CoreConfig::for_role(Role::Reunion);
        cfg.fingerprint_interval = 8;
        let mut core = Core::new(cfg, program, l1, 7);
        for c in 0..100 {
            core.tick(Cycle::new(c), &mut mem);
        }
        let events = core.take_check_events();
        assert!(!events.is_empty());
        for ev in &events {
            assert!(ev.fingerprint.count <= 8);
        }
        // Most intervals are full-size.
        assert!(events.iter().filter(|e| e.fingerprint.count == 8).count() >= events.len() / 2);
    }

    #[test]
    fn interrupt_handler_injected_at_interval() {
        let code = vec![I::add_imm(r(1), r(1), 1), I::jump(0)];
        let program = Arc::new(Program::new("irq", code).unwrap());
        let mut mem = MemorySystem::new(MemConfig::small());
        let l1 = mem.register_l1(Owner::vocal(0));
        let mut core = Core::new(CoreConfig::default(), program, l1, 7);
        core.schedule_interrupt_at(0);
        for c in 0..500 {
            core.tick(Cycle::new(c), &mut mem);
        }
        // Two traps retired from the handler.
        assert!(core.stats().serializing.value() >= 2);
        assert!(core.stats().retired_total.value() > core.retired_user());
    }

    #[test]
    fn strict_trailer_consumes_provided_values() {
        let code = vec![I::load_imm(r(1), 0xE00), I::load(r(2), r(1), 0), I::halt()];
        let program = Arc::new(Program::new("lvq", code).unwrap());
        let mut mem = MemorySystem::new(MemConfig::small());
        let l1 = mem.register_l1(Owner::mute(0));
        let cfg = CoreConfig::for_role(Role::StrictTrailer);
        let mut core = Core::new(cfg, program, l1, 7);
        // Without LVQ data the load cannot dispatch.
        for c in 0..100 {
            core.tick(Cycle::new(c), &mut mem);
            for ev in core.take_check_events() {
                core.grant(ReleaseGrant {
                    interval_id: ev.fingerprint.interval_id,
                    at: ev.ready_at,
                });
            }
        }
        assert!(!core.is_halted(), "load must stall on empty LVQ");
        core.push_lvq([4242]);
        for c in 100..400 {
            core.tick(Cycle::new(c), &mut mem);
            for ev in core.take_check_events() {
                core.grant(ReleaseGrant {
                    interval_id: ev.fingerprint.interval_id,
                    at: ev.ready_at,
                });
            }
        }
        assert!(core.is_halted());
        assert_eq!(core.arch_state().regs.read(r(2)), 4242);
    }

    #[test]
    fn lvq_producer_exports_load_values() {
        let code = vec![I::load_imm(r(1), 0xF00), I::load(r(2), r(1), 0), I::halt()];
        let program = Arc::new(Program::new("lvp", code).unwrap());
        let mut mem = MemorySystem::new(MemConfig::small());
        mem.poke(Addr::new(0xF00), 99);
        let l1 = mem.register_l1(Owner::vocal(0));
        let cfg = CoreConfig::for_role(Role::StrictLeader);
        let mut core = Core::new(cfg, program, l1, 7);
        // Values are exported as they are bound, at dispatch: no grant needed.
        for c in 0..1000 {
            core.tick(Cycle::new(c), &mut mem);
        }
        assert_eq!(core.drain_load_values().collect::<Vec<_>>(), [99]);
    }

    /// One row per opcode: the record `update_record` maps `execute`'s
    /// effect to equals the record dispatch built by hand for that opcode
    /// when it had its own copy of the semantics.
    #[test]
    fn each_opcode_fingerprints_the_record_it_always_did() {
        use reunion_isa::AluOp;
        let mut state = ArchState::new(5);
        state.regs.write(r(1), 0x400);
        state.regs.write(r(2), 7);
        // The value the pipeline bound for a load or atomic.
        let bound = 99;
        let load = |value, addr| UpdateRecord::load(3, value, addr);
        let rows = [
            (I::nop(), UpdateRecord::default()),
            (I::load_imm(r(3), -5), UpdateRecord::reg(3, -5i64 as u64)),
            (
                I::alu(AluOp::Sub, r(3), r(1), r(2)),
                UpdateRecord::reg(3, 0x3F9),
            ),
            (
                I::alu_imm(AluOp::Shl, r(3), r(2), 4),
                UpdateRecord::reg(3, 0x70),
            ),
            (I::load(r(3), r(1), 8), load(bound, 0x408)),
            (I::store(r(1), r(2), -8), UpdateRecord::store(0x3F8, 7)),
            (
                I::atomic(AtomicOp::Swap, r(3), r(1), r(2), 0),
                UpdateRecord {
                    data: Some(7),
                    ..load(bound, 0x400)
                },
            ),
            (
                I::atomic(AtomicOp::FetchAdd, r(3), r(1), r(2), 0),
                UpdateRecord {
                    data: Some(bound + 7),
                    ..load(bound, 0x400)
                },
            ),
            (I::branch(BranchCond::Nez, r(2), 2), UpdateRecord::branch(2)),
            (I::branch(BranchCond::Eqz, r(2), 2), UpdateRecord::branch(6)),
            (I::jump(0), UpdateRecord::branch(0)),
            (I::membar(), UpdateRecord::default()),
            (I::trap(), UpdateRecord::default()),
            (
                I::mmu_op(0x18),
                UpdateRecord {
                    addr: Some(0x18),
                    ..UpdateRecord::default()
                },
            ),
        ];
        for (inst, record) in rows {
            let effect = execute(&inst, &mut state.clone(), 5, &mut Replay(bound));
            assert_eq!(update_record(&effect), record, "{inst}");
        }
    }

    /// The entry holds what retirement reads: `execute`'s effect, the
    /// check time, the next PC as 32 bits and the interval id's low 16
    /// bits.
    #[test]
    fn a_rob_entry_fits_in_48_bytes() {
        assert!(std::mem::size_of::<RobEntry>() <= 48);
    }
}
