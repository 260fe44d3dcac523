//! Logical processor pairs: output comparison, recovery and re-execution.

use std::collections::VecDeque;

use reunion_cpu::{CheckEvent, Core, ReleaseGrant, Role};
use reunion_kernel::obs::{EventTrace, LatencyHistogram, TraceEvent, TraceKind};
use reunion_kernel::stats::Counter;
use reunion_kernel::{Cycle, EventHorizon};
use reunion_mem::MemorySystem;

use crate::CheckBus;

/// Cycles a re-execution may run before the pair escalates it. Defensive:
/// re-execution ends at the synchronized interval's match or once the
/// interval that mismatched has matched again (Lemma 2's forward
/// progress), so only a wedged core reaches it.
const RECOVERY_TIMEOUT: u64 = 100_000;

/// Which phase of the re-execution protocol a recovering pair is in
/// (Figure 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryPhase {
    /// Normal paired execution.
    Normal,
    /// Phase one: rollback + single-step + synchronizing request.
    Phase1,
    /// Phase two: vocal ARF copied to the mute, then as phase one.
    Phase2,
}

/// Statistics maintained per logical processor pair.
#[derive(Clone, Debug, Default)]
pub struct PairStats {
    /// Fingerprint mismatches detected, including escalations raised while
    /// a recovery is already in flight.
    pub mismatches: Counter,
    /// Input-incoherence events: mismatches first detected during normal
    /// paired execution (Table 3's measured metric). Escalations within an
    /// ongoing recovery belong to the same event and are not re-counted.
    pub input_incoherence: Counter,
    /// Recoveries begun (rollback + re-execution protocol).
    pub recoveries: Counter,
    /// Recoveries that escalated to the phase-two ARF copy.
    pub phase2_recoveries: Counter,
    /// Detected-unrecoverable failures (fingerprint aliasing swallowed a
    /// divergence that re-execution could not repair).
    pub failures: Counter,
    /// Synchronizing requests issued.
    pub sync_requests: Counter,
    /// Check round-trip latencies (vocal interval reaching the check stage
    /// to its release grant), recorded only when observability is enabled.
    pub check_latency: LatencyHistogram,
    /// Inter-arrival gaps between input-incoherence events, recorded only
    /// when observability is enabled.
    pub incoherence_gaps: LatencyHistogram,
}

impl PairStats {
    /// Resets every counter (between measurement windows).
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// A vocal/mute pair with its comparison channel and recovery logic.
///
/// The driver owns both cores, forwards fingerprints between them over the
/// CMP's [`CheckBus`] and its cores' one-way
/// [`check_latency`](Core::check_latency), grants retirement releases on
/// matches, and runs the two-phase re-execution protocol on mismatches.
///
/// For the Strict model the same driver additionally streams the vocal
/// core's load values into the mute core's load-value queue.
#[derive(Debug)]
pub struct PairDriver {
    vocal: Core,
    mute: Core,
    vocal_events: VecDeque<CheckEvent>,
    mute_events: VecDeque<CheckEvent>,
    phase: RecoveryPhase,
    sync_interval: Option<u64>,
    /// A detected fingerprint difference whose *physical* comparison time
    /// (both fingerprints exchanged) has not yet arrived. Recovery must not
    /// begin before the later fingerprint has crossed the channel.
    pending_mismatch: Option<Cycle>,
    /// Single-step intervals the pair must still match, counted from its
    /// latest rollback, to have re-executed the interval that mismatched.
    reexec_left: u64,
    recovery_started: u64,
    stats: PairStats,
    /// Logical-processor index stamped into trace events.
    lp: u32,
    /// Cycle of the previous input-incoherence event (never reset across
    /// windows: inter-arrival gaps span window boundaries).
    last_incoherence: Option<u64>,
    /// Bounded check-protocol event trace, present only under
    /// observability (boxed: it never burdens the default-off layout). Its
    /// presence gates all per-tick observability recording.
    trace: Option<Box<EventTrace>>,
}

impl PairDriver {
    /// Pairs a vocal and a mute core.
    ///
    /// Both cores must run the same program and have been constructed with
    /// the same pair seed. Their roles select the model: two
    /// [`Role::Reunion`] cores, or a [`Role::StrictLeader`] vocal with a
    /// [`Role::StrictTrailer`] mute for the strict-input-replication oracle.
    /// Their shared [`check_latency`](Core::check_latency) is the pair's
    /// one-way comparison latency.
    ///
    /// # Panics
    ///
    /// Panics on any other combination of roles, or if the two halves'
    /// check latencies differ.
    pub fn new(vocal: Core, mute: Core) -> Self {
        let roles = (vocal.role(), mute.role());
        assert!(
            matches!(
                roles,
                (Role::Reunion, Role::Reunion) | (Role::StrictLeader, Role::StrictTrailer)
            ),
            "{roles:?}: these vocal and mute roles do not make a pair"
        );
        assert_eq!(
            vocal.check_latency(),
            mute.check_latency(),
            "the two halves of a pair disagree on the check latency"
        );
        PairDriver {
            vocal,
            mute,
            vocal_events: VecDeque::new(),
            mute_events: VecDeque::new(),
            phase: RecoveryPhase::Normal,
            sync_interval: None,
            pending_mismatch: None,
            reexec_left: 0,
            recovery_started: 0,
            stats: PairStats::default(),
            lp: 0,
            last_incoherence: None,
            trace: None,
        }
    }

    /// Turns on observability recording for this pair: check-latency and
    /// incoherence-gap histograms plus a bounded event trace of `trace_cap`
    /// events, stamped with logical-processor index `lp`.
    pub(crate) fn enable_observability(&mut self, lp: u32, trace_cap: usize) {
        self.lp = lp;
        self.trace = Some(Box::new(EventTrace::with_capacity(trace_cap)));
    }

    /// The pair's event trace, if observability is enabled (mutable:
    /// drained for a per-cell dump).
    pub(crate) fn trace_mut(&mut self) -> Option<&mut EventTrace> {
        self.trace.as_deref_mut()
    }

    fn trace_event(&mut self, cycle: u64, kind: TraceKind, interval_id: u64) {
        if let Some(trace) = self.trace.as_deref_mut() {
            trace.push(TraceEvent {
                cycle,
                lp: self.lp,
                kind,
                interval_id,
            });
        }
    }

    /// The vocal core.
    pub fn vocal(&self) -> &Core {
        &self.vocal
    }

    /// The mute core (mutable access supports fault-injection tests).
    pub fn mute_mut(&mut self) -> &mut Core {
        &mut self.mute
    }

    /// The vocal core, mutably (fault injection, interrupt scheduling).
    pub fn vocal_mut(&mut self) -> &mut Core {
        &mut self.vocal
    }

    /// The mute core.
    pub fn mute(&self) -> &Core {
        &self.mute
    }

    /// Pair statistics.
    pub fn stats(&self) -> &PairStats {
        &self.stats
    }

    /// Mutable pair statistics (window resets).
    pub fn stats_mut(&mut self) -> &mut PairStats {
        &mut self.stats
    }

    /// Current recovery phase.
    pub fn phase(&self) -> RecoveryPhase {
        self.phase
    }

    /// Retired user instructions, counted on the vocal core (the single
    /// output of the sphere of replication).
    pub fn retired_user(&self) -> u64 {
        self.vocal.retired_user()
    }

    /// Replicates an external interrupt to both cores: the vocal chooses
    /// the fingerprint interval, both service it at the same instruction
    /// boundary (§4.3).
    pub fn deliver_interrupt(&mut self) {
        let interval = self.vocal.next_interval_id() + 1;
        self.vocal.schedule_interrupt_at(interval);
        self.mute.schedule_interrupt_at(interval);
    }

    /// Advances the pair by one cycle.
    ///
    /// `bus` is the CMP's shared check bus; at occupancy 0 every grant is
    /// the identity and the pair behaves as if it owned a private
    /// comparison channel.
    pub fn tick(&mut self, now: Cycle, mem: &mut MemorySystem, bus: &mut CheckBus) {
        self.vocal.tick(now, mem);
        self.mute.tick(now, mem);
        if self.vocal.role().produces_lvq() {
            // The values the vocal bound this cycle reach the trailing core
            // for its next one. Handing them over now rather than at the
            // top of that next tick leaves nothing pending between ticks,
            // so a tick ahead of the pair's bound is a no-op in full.
            self.mute.push_lvq(self.vocal.drain_load_values());
        }

        self.vocal.drain_check_events_into(&mut self.vocal_events);
        self.mute.drain_check_events_into(&mut self.mute_events);
        if let Some(detect_at) = self.pending_mismatch {
            // Recovery begins when the later fingerprint has arrived and
            // the comparator has seen the difference.
            if now >= detect_at {
                self.pending_mismatch = None;
                self.mismatch_detected(now, mem);
            }
        } else {
            self.compare_and_release(now, mem, bus);
        }
        if self.phase != RecoveryPhase::Normal {
            self.drive_recovery(now, mem);
        }
    }

    /// The earliest cycle `>= from` at which this pair could make forward
    /// progress — its contribution to the time-skipping engine's
    /// [`EventHorizon`].
    ///
    /// Folds both cores' [`Core::next_activity_at`] bounds with the
    /// driver-level deadlines only the pair knows about:
    ///
    /// * a detected fingerprint difference whose physical comparison time
    ///   has not yet arrived (`pending_mismatch`),
    /// * the defensive recovery-escalation timeout while a re-execution is
    ///   in flight,
    /// * uncompared events sitting in both comparison queues (possible only
    ///   transiently; the comparator must run on the next cycle) — unless a
    ///   mismatch is pending: `tick` then leaves the comparator alone until
    ///   `detect_at`, so the queues wake nothing before it.
    ///
    /// `None` means the pair is permanently idle absent external input.
    pub fn next_activity_at(&self, from: Cycle) -> Option<Cycle> {
        // Fast path: a core that can act on the very next cycle bounds the
        // whole pair — nothing can be earlier than `from`.
        let vocal = self.vocal.next_activity_at(from);
        if vocal == Some(from) {
            return vocal;
        }
        let mute = self.mute.next_activity_at(from);
        if mute == Some(from) {
            return mute;
        }
        let mut horizon = EventHorizon::new();
        horizon.note_opt(vocal);
        horizon.note_opt(mute);
        if self.phase != RecoveryPhase::Normal {
            horizon.note(self.escalates_at().max(from));
        }
        if let Some(detect_at) = self.pending_mismatch {
            horizon.note(detect_at.max(from));
        } else if !self.vocal_events.is_empty() && !self.mute_events.is_empty() {
            horizon.note(from);
        }
        horizon.next_ready()
    }

    /// Whether the pair can never act again without external input: both
    /// cores [quiescent](Core::is_quiescent), no recovery in flight, and no
    /// deferred mismatch pending. Leftover events on *one* comparison queue
    /// are irrelevant — the comparator needs both.
    pub fn is_quiescent(&self) -> bool {
        self.vocal.is_quiescent()
            && self.mute.is_quiescent()
            && self.phase == RecoveryPhase::Normal
            && self.pending_mismatch.is_none()
            && (self.vocal_events.is_empty() || self.mute_events.is_empty())
    }

    /// The comparator's trigger: the fingerprints at the head of both
    /// queues differ, and the difference has crossed the channel.
    fn mismatch_detected(&mut self, now: Cycle, mem: &mut MemorySystem) {
        self.stats.mismatches.incr();
        if let (Some(v), Some(m)) = (self.vocal_events.front(), self.mute_events.front()) {
            // Rollback lands at the start of this interval: re-execution
            // runs at least to its end.
            let count = v.fingerprint.count.max(m.fingerprint.count);
            self.reexec_left = self.reexec_left.max(u64::from(count));
        }
        if self.trace.is_some() {
            let interval = self
                .vocal_events
                .front()
                .map_or(0, |e| e.fingerprint.interval_id);
            self.trace_event(now.as_u64(), TraceKind::Mismatch, interval);
        }
        self.escalate(now, mem);
    }

    /// Figure 4's ladder, climbed one rung per divergence: normal execution
    /// to phase one, phase one to phase two, phase two to failure. Its
    /// three triggers — the comparator, a synchronizing request the two
    /// halves disagree on, and the recovery timeout — count their own
    /// evidence and call this.
    fn escalate(&mut self, now: Cycle, mem: &mut MemorySystem) {
        match self.phase {
            RecoveryPhase::Normal => {
                self.stats.input_incoherence.incr();
                if self.trace.is_some() {
                    // Inter-arrival gap to the previous incoherence event.
                    // `last_incoherence` survives window resets: a gap
                    // straddling a boundary is credited to the window in
                    // which the later event lands.
                    if let Some(prev) = self.last_incoherence {
                        self.stats
                            .incoherence_gaps
                            .record(now.as_u64().saturating_sub(prev));
                    }
                    self.last_incoherence = Some(now.as_u64());
                }
                self.start_recovery(now, mem, RecoveryPhase::Phase1);
            }
            RecoveryPhase::Phase1 => {
                self.stats.phase2_recoveries.incr();
                self.start_recovery(now, mem, RecoveryPhase::Phase2);
            }
            RecoveryPhase::Phase2 => self.declare_failure(now, mem),
        }
    }

    fn compare_and_release(&mut self, now: Cycle, mem: &mut MemorySystem, bus: &mut CheckBus) {
        let latency = self.vocal.check_latency();
        while let (Some(v), Some(m)) = (self.vocal_events.front(), self.mute_events.front()) {
            let matched = v.fingerprint == m.fingerprint;

            // Both fingerprints cross the shared check bus regardless of
            // whether they match; each departure waits for a bus slot and
            // then propagates for the check latency.
            let v_sent = bus.grant(v.ready_at);
            let m_sent = bus.grant(m.ready_at);

            if matched {
                let interval_id = v.fingerprint.interval_id;
                // The cores swap fingerprints: each can retire once its
                // partner's fingerprint has crossed the channel.
                let mut release_v = v.ready_at.max(m_sent + latency);
                let mut release_m = m.ready_at.max(v_sent + latency);
                // A serializing instruction's release grant makes a return
                // trip to the waiting core; that message shares the same
                // bus. (The strict oracle keeps checking off the
                // serializing path, so only Reunion pays here.)
                if self.vocal.role().pays_grant_return() {
                    if v.serializing {
                        release_v = bus.grant(release_v);
                    }
                    if m.serializing {
                        release_m = bus.grant(release_m);
                    }
                }
                self.vocal.grant(ReleaseGrant {
                    interval_id,
                    at: release_v,
                });
                self.mute.grant(ReleaseGrant {
                    interval_id,
                    at: release_m,
                });
                if self.trace.is_some() {
                    // Round trip as the vocal core experiences it: interval
                    // ready at the check stage -> release grant back.
                    self.stats
                        .check_latency
                        .record(release_v.saturating_since(v.ready_at));
                    let issued_at = v.ready_at.as_u64();
                    self.trace_event(issued_at, TraceKind::Issue, interval_id);
                    self.trace_event(release_v.as_u64(), TraceKind::Grant, interval_id);
                }
                self.vocal_events.pop_front();
                self.mute_events.pop_front();

                // Re-execution ends at the synchronized instruction's match,
                // or once the interval that mismatched has matched again —
                // whichever comes first. An incoherent load lies inside the
                // interval it made mismatch, so its synchronizing request
                // comes first; code with no load ends on the count.
                if self.phase != RecoveryPhase::Normal {
                    self.reexec_left = self.reexec_left.saturating_sub(1);
                    if self.sync_interval == Some(interval_id) || self.reexec_left == 0 {
                        self.finish_recovery();
                    }
                }
            } else {
                // The difference becomes observable once both fingerprints
                // have crossed the channel.
                let detect_at = v_sent.max(m_sent) + latency;
                if now >= detect_at {
                    self.mismatch_detected(now, mem);
                } else {
                    self.pending_mismatch = Some(detect_at);
                }
                return;
            }
        }
    }

    fn start_recovery(&mut self, now: Cycle, mem: &mut MemorySystem, phase: RecoveryPhase) {
        self.stats.recoveries.incr();
        self.trace_event(now.as_u64(), TraceKind::Recovery, 0);
        self.restore_safe_state(now, mem, phase == RecoveryPhase::Phase2);
        self.vocal.begin_single_step();
        self.mute.begin_single_step();
        self.phase = phase;
        self.recovery_started = now.as_u64();
    }

    /// Returns both cores to the pair's safe state (Figure 4). Both first
    /// apply every already-compared interval, so their rollbacks land on
    /// identical retired states in the common case; `copy_arf` then
    /// initializes the mute ARF from the vocal's (Definition 9). Nothing
    /// compared, detected or synchronized before the rollback survives it.
    fn restore_safe_state(&mut self, now: Cycle, mem: &mut MemorySystem, copy_arf: bool) {
        self.vocal.drain_granted(now, mem);
        self.mute.drain_granted(now, mem);
        self.vocal.rollback(now);
        self.mute.rollback(now);
        if copy_arf {
            let safe = self.vocal.arch_state().clone();
            self.mute.copy_arch_state_from(&safe);
        }
        self.vocal_events.clear();
        self.mute_events.clear();
        self.sync_interval = None;
        self.pending_mismatch = None;
    }

    fn drive_recovery(&mut self, now: Cycle, mem: &mut MemorySystem) {
        if let (Some(v), Some(m)) = (self.vocal.pending_sync(), self.mute.pending_sync()) {
            if v != m {
                // The two halves disagree about the very instruction to
                // synchronize: their architectural state diverged.
                self.stats.mismatches.incr();
                self.escalate(now, mem);
                return;
            }
            // Both halves have reached the first memory read: issue one
            // synchronizing request on behalf of the pair.
            self.stats.sync_requests.incr();
            let outcome = mem.sync_access(now, self.vocal.l1(), self.mute.l1(), v.addr, v.rmw);
            // The fulfilled instruction's fingerprint interval is the one
            // whose successful comparison ends the protocol.
            self.sync_interval = Some(self.vocal.next_interval_id());
            self.vocal.fulfill_sync(outcome.value, outcome.done_at);
            self.mute.fulfill_sync(outcome.value, outcome.done_at);
        } else if now >= self.escalates_at() {
            // Defensive: the protocol guarantees progress, but a halted or
            // wedged core must not hang the simulation.
            self.escalate(now, mem);
        }
    }

    /// The cycle at which a recovery still in flight escalates: the first
    /// past `RECOVERY_TIMEOUT` cycles after it started.
    fn escalates_at(&self) -> Cycle {
        Cycle::new(self.recovery_started + RECOVERY_TIMEOUT + 1)
    }

    fn finish_recovery(&mut self) {
        self.vocal.end_single_step();
        self.mute.end_single_step();
        self.phase = RecoveryPhase::Normal;
        self.sync_interval = None;
        self.reexec_left = 0;
    }

    /// Phase two also failed: raise a detected, uncorrectable error
    /// (Figure 4's "Failure"). The simulation records it and forces the
    /// pair back into a consistent state so the run can continue.
    fn declare_failure(&mut self, now: Cycle, mem: &mut MemorySystem) {
        self.stats.failures.incr();
        self.trace_event(now.as_u64(), TraceKind::Failure, 0);
        self.restore_safe_state(now, mem, true);
        self.finish_recovery();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use reunion_cpu::CoreConfig;
    use reunion_fingerprint::Fingerprint;
    use reunion_isa::{Instruction as I, Program, RegId};
    use reunion_mem::{MemConfig, MemorySystem, Owner};

    fn r(i: u8) -> RegId {
        RegId::new(i)
    }

    /// Builds a Reunion pair plus a free-running remote vocal writer used
    /// to provoke races.
    struct Rig {
        mem: MemorySystem,
        pair: PairDriver,
        bus: CheckBus,
        now: u64,
    }

    impl Rig {
        fn new(code: Vec<I>, strict: bool) -> Rig {
            Rig::configured(code, strict, |_| {})
        }

        /// A rig whose cores close a fingerprint interval every `interval`
        /// instructions.
        fn with_interval(code: Vec<I>, strict: bool, interval: u32) -> Rig {
            Rig::configured(code, strict, |cfg| cfg.fingerprint_interval = interval)
        }

        /// A Reunion rig whose cores, and so its comparison channel, have
        /// a one-way check latency of `latency` cycles.
        fn with_check_latency(code: Vec<I>, latency: u64) -> Rig {
            Rig::configured(code, false, |cfg| cfg.check_latency = latency)
        }

        /// A rig whose cores start from their role's Table 1 configuration
        /// with `tweak` applied to both.
        fn configured(code: Vec<I>, strict: bool, tweak: impl Fn(&mut CoreConfig)) -> Rig {
            let program = Arc::new(Program::new("rig", code).unwrap());
            let mut mem = MemorySystem::new(MemConfig::small());
            let vl1 = mem.register_l1(Owner::vocal(0));
            let ml1 = mem.register_l1(Owner::mute(0));
            let (vrole, mrole) = if strict {
                (Role::StrictLeader, Role::StrictTrailer)
            } else {
                (Role::Reunion, Role::Reunion)
            };
            let cfg = |role| {
                let mut cfg = CoreConfig::for_role(role);
                tweak(&mut cfg);
                cfg
            };
            let vocal = Core::new(cfg(vrole), program.clone(), vl1, 42);
            let mute = Core::new(cfg(mrole), program, ml1, 42);
            Rig {
                mem,
                pair: PairDriver::new(vocal, mute),
                bus: CheckBus::new(0),
                now: 0,
            }
        }

        fn run(&mut self, cycles: u64) {
            for _ in 0..cycles {
                self.tick();
            }
        }

        fn tick(&mut self) {
            self.pair
                .tick(Cycle::new(self.now), &mut self.mem, &mut self.bus);
            self.now += 1;
        }

        /// Ticks until the pair enters `phase`, for at most `limit` cycles.
        fn run_until(&mut self, phase: RecoveryPhase, limit: u64) {
            for _ in 0..limit {
                self.tick();
                if self.pair.phase() == phase {
                    return;
                }
            }
            panic!("the pair did not reach {phase:?} in {limit} cycles");
        }

        /// Overwrites the mute's safe state through `corrupt`, as if a
        /// fingerprint had aliased a divergence into it.
        fn corrupt_mute(&mut self, corrupt: impl FnOnce(&mut reunion_isa::ArchState)) {
            let mut state = self.pair.mute().arch_state().clone();
            corrupt(&mut state);
            self.pair.mute_mut().copy_arch_state_from(&state);
        }

        /// The five ladder counters: mismatches, input incoherence,
        /// recoveries, phase-two recoveries, failures.
        fn ladder(&self) -> [u64; 5] {
            let s = self.pair.stats();
            [
                s.mismatches.value(),
                s.input_incoherence.value(),
                s.recoveries.value(),
                s.phase2_recoveries.value(),
                s.failures.value(),
            ]
        }

        /// Traced mismatch, recovery and failure events.
        fn traced(&mut self) -> [usize; 3] {
            let trace = self.pair.trace_mut().expect("observability is on");
            [TraceKind::Mismatch, TraceKind::Recovery, TraceKind::Failure]
                .map(|kind| trace.iter().filter(|e| e.kind == kind).count())
        }

        /// Asserts the pair is back in normal execution and still retires.
        fn assert_recovered(&mut self) {
            assert_eq!(self.pair.phase(), RecoveryPhase::Normal);
            let retired = self.pair.retired_user();
            self.run(2_000);
            assert!(
                self.pair.retired_user() > retired,
                "the pair stopped retiring at {retired}"
            );
        }
    }

    fn counting_loop() -> Vec<I> {
        vec![
            I::add_imm(r(1), r(1), 1),
            I::alu_imm(reunion_isa::AluOp::Xor, r(2), r(1), 0x55),
            I::jump(0),
        ]
    }

    /// A loop around one load (re-execution ends at its synchronizing
    /// request), with an unreachable `halt` at [`HALT_PC`].
    fn load_loop() -> Vec<I> {
        vec![
            I::load_imm(r(1), 0x5000),
            I::load(r(2), r(1), 0),
            I::alu(reunion_isa::AluOp::Add, r(3), r(3), r(2)),
            I::jump(1),
            I::halt(),
        ]
    }

    const HALT_PC: usize = 4;

    /// A user-instruction index that [`load_loop`] spends on its load.
    const LOAD_AT: u64 = 49;

    /// A Reunion pair running [`load_loop`] that traces every event of the
    /// runs below.
    fn ladder_rig() -> Rig {
        let mut rig = Rig::new(load_loop(), false);
        rig.pair.enable_observability(0, 1 << 16);
        rig
    }

    #[test]
    fn matched_pair_retires_in_lockstep() {
        let mut rig = Rig::new(counting_loop(), false);
        rig.run(2000);
        let v = rig.pair.vocal().retired_user();
        let m = rig.pair.mute().retired_user();
        assert!(v > 200, "vocal retired {v}");
        assert!(m > 200);
        assert_eq!(rig.pair.stats().mismatches.value(), 0);
        // Architectural states agree at every retired boundary; compare
        // the registers of the earlier core against a rerun is overkill —
        // equality of retired counts within slip bounds suffices here.
        assert!((v as i64 - m as i64).unsigned_abs() < 600);
    }

    #[test]
    fn check_latency_delays_retirement() {
        let mut fast = Rig::with_check_latency(counting_loop(), 0);
        fast.run(2000);
        let mut slow = Rig::with_check_latency(counting_loop(), 40);
        slow.run(2000);
        assert!(
            fast.pair.retired_user() > slow.pair.retired_user(),
            "latency 0: {}, latency 40: {}",
            fast.pair.retired_user(),
            slow.pair.retired_user()
        );
    }

    #[test]
    fn congested_check_bus_slows_retirement() {
        let mut private = Rig::new(counting_loop(), false);
        private.run(4000);
        let mut shared = Rig::new(counting_loop(), false);
        // Severe reciprocal bandwidth: 8 bus cycles per fingerprint message,
        // two messages per compared interval.
        shared.bus = CheckBus::new(8);
        shared.run(4000);
        assert!(
            shared.pair.retired_user() < private.pair.retired_user(),
            "bus occupancy 8: {} vs private channel: {}",
            shared.pair.retired_user(),
            private.pair.retired_user()
        );
        assert!(shared.bus.messages() > 0);
        assert!(
            shared.bus.wait_cycles() > 0,
            "a single pair saturates an occupancy-8 bus at interval 1"
        );
        assert_eq!(private.bus.messages(), 0);
        assert_eq!(private.bus.wait_cycles(), 0);
    }

    #[test]
    fn serializing_instructions_cost_more_with_checking() {
        let serial_loop = vec![I::add_imm(r(1), r(1), 1), I::trap(), I::jump(0)];
        let mut rig = Rig::new(serial_loop, false);
        rig.run(4000);
        let with_traps = rig.pair.retired_user();
        let mut plain = Rig::new(counting_loop(), false);
        plain.run(4000);
        assert!(
            with_traps * 2 < plain.pair.retired_user(),
            "traps {with_traps} vs plain {}",
            plain.pair.retired_user()
        );
    }

    #[test]
    fn race_causes_mismatch_and_recovery_makes_progress() {
        // Pair repeatedly loads a shared word; a remote vocal writer
        // flips it, racing the two halves (Figure 1).
        let reader = vec![
            I::load_imm(r(1), 0x4000),
            I::load(r(2), r(1), 0), // racy load
            I::alu_imm(reunion_isa::AluOp::Add, r(3), r(2), 1),
            I::jump(1),
        ];
        let program = Arc::new(Program::new("reader", reader).unwrap());
        let mut mem = MemorySystem::new(MemConfig::small());
        mem.poke(reunion_isa::Addr::new(0x4000), 0);
        let vl1 = mem.register_l1(Owner::vocal(0));
        let ml1 = mem.register_l1(Owner::mute(0));
        let wl1 = mem.register_l1(Owner::vocal(1));
        let cfg = CoreConfig::for_role(Role::Reunion);
        let vocal = Core::new(cfg.clone(), program.clone(), vl1, 9);
        let mute = Core::new(cfg, program, ml1, 9);
        let mut pair = PairDriver::new(vocal, mute);
        let mut bus = CheckBus::new(0);

        let mut wrote = 0u64;
        for now in 0..60_000u64 {
            // Remote writer drains a store every 500 cycles, racing the
            // pair's loads.
            if now % 500 == 250 {
                wrote += 1;
                mem.drain_store(Cycle::new(now), wl1, reunion_isa::Addr::new(0x4000), wrote);
            }
            pair.tick(Cycle::new(now), &mut mem, &mut bus);
        }
        assert!(
            pair.stats().mismatches.value() > 0,
            "the race must cause input incoherence"
        );
        assert!(pair.stats().sync_requests.value() > 0);
        assert_eq!(pair.stats().failures.value(), 0);
        assert!(
            pair.retired_user() > 1000,
            "forward progress despite recoveries: {}",
            pair.retired_user()
        );
        assert_eq!(pair.phase(), RecoveryPhase::Normal);
    }

    #[test]
    fn equal_id_and_hash_with_a_different_count_is_a_mismatch() {
        let mut rig = Rig::new(counting_loop(), false);
        let vocal = Fingerprint {
            interval_id: 0,
            count: 3,
            hash: 0x1d0f,
        };
        let mute = Fingerprint { count: 4, ..vocal };
        let event = |fingerprint| CheckEvent {
            fingerprint,
            ready_at: Cycle::new(0),
            serializing: false,
        };
        let pair = &mut rig.pair;
        pair.vocal_events.push_back(event(vocal));
        pair.mute_events.push_back(event(mute));
        pair.compare_and_release(Cycle::new(100), &mut rig.mem, &mut rig.bus);
        assert_eq!(pair.stats().mismatches.value(), 1);
        assert_eq!(pair.stats().recoveries.value(), 1);
        assert_eq!(pair.phase(), RecoveryPhase::Phase1);
    }

    #[test]
    fn a_default_histogram_reports_its_first_sample_as_min() {
        let mut stats = PairStats::default();
        stats.check_latency.record(5);
        assert_eq!(stats.check_latency.min(), Some(5));
    }

    /// The comparator's rung: a fingerprint difference in normal
    /// execution starts phase one, which the synchronizing request ends.
    #[test]
    fn soft_error_on_mute_is_detected_and_recovered() {
        let mut rig = ladder_rig();
        rig.pair.mute_mut().inject_soft_error_at(LOAD_AT, 7);
        rig.run_until(RecoveryPhase::Phase1, 5_000);
        rig.run_until(RecoveryPhase::Normal, 5_000);
        rig.assert_recovered();
        assert_eq!(rig.ladder(), [1, 1, 1, 0, 0]);
        assert_eq!(rig.traced(), [1, 1, 0]);
        assert_eq!(rig.pair.stats().sync_requests.value(), 1);
    }

    #[test]
    fn soft_error_on_vocal_is_detected_and_recovered() {
        let mut rig = Rig::new(counting_loop(), false);
        rig.pair.vocal_mut().inject_soft_error_at(50, 3);
        rig.run(5000);
        rig.assert_recovered();
        assert_eq!(rig.ladder(), [1, 1, 1, 0, 0]);
        // The corrupted value never retired: r1 ends equal on both cores.
        assert_eq!(
            rig.pair.vocal().arch_state().regs.read(r(1)),
            rig.pair.mute().arch_state().regs.read(r(1))
        );
    }

    /// Load-free code raises no synchronizing request, so re-execution
    /// ends once the interval that mismatched has matched again — well
    /// before the recovery timeout, and without escalating.
    #[test]
    fn load_free_reexecution_ends_when_the_mismatched_interval_matches() {
        let mut rig = Rig::new(counting_loop(), false);
        rig.pair.mute_mut().inject_soft_error_at(50, 7);
        rig.run_until(RecoveryPhase::Phase1, 5_000);
        let started = rig.now;
        rig.run_until(RecoveryPhase::Normal, 5_000);
        let took = rig.now - started;
        assert!(took < 100, "re-execution took {took} cycles");
        rig.assert_recovered();
        assert_eq!(rig.ladder(), [1, 1, 1, 0, 0]);
        assert_eq!(rig.pair.stats().sync_requests.value(), 0);
    }

    /// With several instructions to an interval, re-execution runs through
    /// the whole interval that mismatched, not just its first instruction:
    /// single-stepping closes one interval per instruction, numbered from
    /// zero at the rollback.
    #[test]
    fn reexecution_covers_the_whole_mismatched_interval() {
        let mut rig = Rig::with_interval(counting_loop(), false, 6);
        rig.pair.mute_mut().inject_soft_error_at(50, 7);
        rig.run_until(RecoveryPhase::Phase1, 5_000);
        rig.run_until(RecoveryPhase::Normal, 5_000);
        let stepped = rig.pair.vocal().next_interval_id();
        assert!(stepped >= 6, "re-execution ended after {stepped} intervals");
        rig.assert_recovered();
        assert_eq!(rig.ladder(), [1, 1, 1, 0, 0]);
    }

    /// Simulates fingerprint aliasing having let divergent state retire: a
    /// flipped load starts phase one, and the mute's load base then
    /// diverges in its safe state, so the two halves disagree about the
    /// address to synchronize. Leaves the pair at the start of phase two.
    fn diverge_into_phase2(rig: &mut Rig) {
        rig.pair.mute_mut().inject_soft_error_at(LOAD_AT, 7);
        rig.run_until(RecoveryPhase::Phase1, 20_000);
        assert_eq!(rig.ladder(), [1, 1, 1, 0, 0]);
        // Right after the rollback the ROB is empty, so the corruption
        // changes the retired r1 and nothing else.
        rig.corrupt_mute(|s| s.regs.write(r(1), 0x5008));
        rig.run_until(RecoveryPhase::Phase2, 20_000);
    }

    /// The synchronizing request's rung: it counts a mismatch and traces
    /// none, and phase two's ARF copy repairs the divergence.
    #[test]
    fn retired_divergence_escalates_to_phase2() {
        let mut rig = ladder_rig();
        diverge_into_phase2(&mut rig);
        assert_eq!(rig.ladder(), [2, 1, 2, 1, 0]);
        rig.run_until(RecoveryPhase::Normal, 5_000);
        rig.assert_recovered();
        assert_eq!(rig.ladder(), [2, 1, 2, 1, 0]);
        assert_eq!(rig.traced(), [1, 2, 0]);
        assert_eq!(
            rig.pair.vocal().arch_state().regs.read(r(3)),
            rig.pair.mute().arch_state().regs.read(r(3))
        );
    }

    /// The timeout's rung: a mute wedged on a `halt` in phase one never
    /// raises its synchronizing request, so after `RECOVERY_TIMEOUT`
    /// cycles the pair escalates to phase two, whose ARF copy moves the
    /// mute off the halt. The timeout counts nothing of its own.
    #[test]
    fn a_wedged_phase_one_times_out_into_phase2() {
        let mut rig = ladder_rig();
        rig.pair.mute_mut().inject_soft_error_at(50, 7);
        rig.run_until(RecoveryPhase::Phase1, 5_000);
        let started = rig.now;
        // Right after the rollback the ROB is empty: the PC sticks.
        rig.corrupt_mute(|s| s.pc = HALT_PC);
        rig.run(100);
        assert!(rig.pair.mute().is_halted());
        rig.run_until(RecoveryPhase::Phase2, RECOVERY_TIMEOUT);
        assert!(rig.now - started > RECOVERY_TIMEOUT);
        rig.run_until(RecoveryPhase::Normal, 5_000);
        rig.assert_recovered();
        assert_eq!(rig.ladder(), [1, 1, 2, 1, 0]);
        assert_eq!(rig.traced(), [1, 2, 0]);
    }

    /// The top rung: a divergence in phase two is a detected failure, which
    /// restores the pair to the vocal's safe state and resumes it.
    #[test]
    fn a_divergence_in_phase2_is_a_failure() {
        let mut rig = ladder_rig();
        diverge_into_phase2(&mut rig);
        rig.corrupt_mute(|s| s.regs.write(r(1), 0x5008));
        rig.run_until(RecoveryPhase::Normal, 5_000);
        rig.assert_recovered();
        assert_eq!(rig.ladder(), [3, 1, 2, 1, 1]);
        assert_eq!(rig.traced(), [1, 2, 1]);
    }

    /// A failure restores the safe state, so a difference detected before
    /// it is forgotten: it must not start a recovery or count input
    /// incoherence when its detection time comes.
    #[test]
    fn a_failure_forgets_the_pending_mismatch() {
        let mut rig = ladder_rig();
        diverge_into_phase2(&mut rig);
        let now = Cycle::new(rig.now);
        rig.pair.pending_mismatch = Some(now + 300);
        rig.pair.declare_failure(now, &mut rig.mem);
        rig.run(600);
        rig.assert_recovered();
        assert_eq!(rig.ladder(), [2, 1, 2, 1, 1]);
        assert_eq!(rig.traced(), [1, 2, 1]);
    }

    #[test]
    fn strict_pair_never_mismatches_under_races() {
        let reader = vec![
            I::load_imm(r(1), 0x6000),
            I::load(r(2), r(1), 0),
            I::jump(1),
        ];
        let program = Arc::new(Program::new("sreader", reader).unwrap());
        let mut mem = MemorySystem::new(MemConfig::small());
        let vl1 = mem.register_l1(Owner::vocal(0));
        let ml1 = mem.register_l1(Owner::mute(0));
        let wl1 = mem.register_l1(Owner::vocal(1));
        let vocal = Core::new(
            CoreConfig::for_role(Role::StrictLeader),
            program.clone(),
            vl1,
            5,
        );
        let mute = Core::new(CoreConfig::for_role(Role::StrictTrailer), program, ml1, 5);
        let mut pair = PairDriver::new(vocal, mute);
        let mut bus = CheckBus::new(0);
        for now in 0..30_000u64 {
            if now % 300 == 150 {
                mem.drain_store(Cycle::new(now), wl1, reunion_isa::Addr::new(0x6000), now);
            }
            pair.tick(Cycle::new(now), &mut mem, &mut bus);
        }
        assert_eq!(
            pair.stats().mismatches.value(),
            0,
            "strict input replication is immune to input incoherence"
        );
        assert!(pair.retired_user() > 1000);
    }

    #[test]
    #[should_panic(expected = "do not make a pair")]
    fn a_strict_leader_cannot_pair_with_a_reunion_mute() {
        let program = Arc::new(Program::new("odd", counting_loop()).unwrap());
        let mut mem = MemorySystem::new(MemConfig::small());
        let vl1 = mem.register_l1(Owner::vocal(0));
        let ml1 = mem.register_l1(Owner::mute(0));
        let vocal = Core::new(
            CoreConfig::for_role(Role::StrictLeader),
            program.clone(),
            vl1,
            1,
        );
        let mute = Core::new(CoreConfig::for_role(Role::Reunion), program, ml1, 1);
        PairDriver::new(vocal, mute);
    }

    #[test]
    #[should_panic(expected = "disagree on the check latency")]
    fn halves_with_different_check_latencies_cannot_pair() {
        let program = Arc::new(Program::new("skew", counting_loop()).unwrap());
        let mut mem = MemorySystem::new(MemConfig::small());
        let vl1 = mem.register_l1(Owner::vocal(0));
        let ml1 = mem.register_l1(Owner::mute(0));
        let cfg = CoreConfig::for_role(Role::Reunion);
        let slow = CoreConfig {
            check_latency: cfg.check_latency + 1,
            ..cfg.clone()
        };
        let vocal = Core::new(cfg, program.clone(), vl1, 1);
        let mute = Core::new(slow, program, ml1, 1);
        PairDriver::new(vocal, mute);
    }

    #[test]
    fn halting_pair_goes_quiescent() {
        let code = vec![
            I::add_imm(r(1), r(1), 1),
            I::add_imm(r(2), r(1), 2),
            I::halt(),
        ];
        let mut rig = Rig::new(code, false);
        assert!(!rig.pair.is_quiescent());
        rig.run(5_000);
        assert!(rig.pair.vocal().is_halted());
        assert!(rig.pair.mute().is_halted());
        assert!(
            rig.pair.is_quiescent(),
            "halted pair with drained pipelines"
        );
        assert_eq!(rig.pair.next_activity_at(Cycle::new(rig.now)), None);
        // Quiescence is stable: further ticks change nothing.
        let retired = rig.pair.retired_user();
        rig.run(100);
        assert_eq!(rig.pair.retired_user(), retired);
        assert!(rig.pair.is_quiescent());
    }

    #[test]
    fn pending_mismatch_deadline_is_reported() {
        let mut rig = Rig::new(counting_loop(), false);
        rig.pair.mute_mut().inject_soft_error_at(50, 7);
        // Run until the mismatch is detected but its physical comparison
        // time has not yet arrived.
        let mut deadline = None;
        for _ in 0..5_000 {
            rig.pair
                .tick(Cycle::new(rig.now), &mut rig.mem, &mut rig.bus);
            rig.now += 1;
            if let Some(at) = rig.pair.pending_mismatch {
                deadline = Some(at);
                break;
            }
        }
        let at = deadline.expect("soft error must raise a deferred mismatch");
        let next = rig
            .pair
            .next_activity_at(Cycle::new(rig.now))
            .expect("pair is mid-protocol, not idle");
        assert!(
            next <= at,
            "horizon {next:?} must not overshoot the mismatch deadline {at:?}"
        );
    }

    #[test]
    fn a_pending_mismatch_sleeps_until_detection_despite_full_queues() {
        let code = vec![I::add_imm(r(1), r(1), 1), I::halt()];
        let mut rig = Rig::new(code, false);
        rig.run(5_000);
        assert_eq!(rig.pair.next_activity_at(Cycle::new(rig.now)), None);
        let pair = &mut rig.pair;
        let event = |count| CheckEvent {
            fingerprint: Fingerprint {
                interval_id: 9,
                count,
                hash: 0,
            },
            ready_at: Cycle::new(0),
            serializing: false,
        };
        pair.vocal_events.push_back(event(1));
        pair.mute_events.push_back(event(2));
        let now = Cycle::new(rig.now);
        assert_eq!(pair.next_activity_at(now), Some(now), "the comparator runs");
        let detect_at = now + 300;
        pair.pending_mismatch = Some(detect_at);
        assert_eq!(pair.next_activity_at(now), Some(detect_at));
    }

    #[test]
    fn interrupt_is_serviced_by_both_cores() {
        let mut rig = Rig::new(counting_loop(), false);
        rig.run(500);
        rig.pair.deliver_interrupt();
        rig.run(5000);
        assert_eq!(
            rig.pair.stats().mismatches.value(),
            0,
            "handlers must match"
        );
        assert!(rig.pair.vocal().stats().serializing.value() >= 2);
        assert!(rig.pair.mute().stats().serializing.value() >= 2);
    }
}
