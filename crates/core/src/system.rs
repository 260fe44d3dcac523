//! Whole-CMP assembly and simulation loop.

use std::sync::Arc;

use reunion_cpu::{Core, CoreConfig};
use reunion_isa::SparseMemory;
use reunion_kernel::obs::{EpisodeSummary, ObsReport, TraceEvent};
use reunion_kernel::{Cycle, EventHorizon};
use reunion_mem::{MemorySystem, Owner};
use reunion_workloads::Workload;

use crate::{CheckBus, Engine, PairDriver, SystemConfig};

/// One logical processor: a single core, or a redundant pair.
#[derive(Debug)]
enum Proc {
    Single(Box<Core>),
    Pair(Box<PairDriver>),
}

impl Proc {
    fn tick(&mut self, now: Cycle, mem: &mut MemorySystem, bus: &mut CheckBus) {
        match self {
            Proc::Single(core) => core.tick(now, mem),
            Proc::Pair(pair) => pair.tick(now, mem, bus),
        }
    }

    /// This processor's activity bound (see [`Core::next_activity_at`] and
    /// [`PairDriver::next_activity_at`]).
    fn next_activity_at(&self, from: Cycle) -> Option<Cycle> {
        match self {
            Proc::Single(core) => core.next_activity_at(from),
            Proc::Pair(pair) => pair.next_activity_at(from),
        }
    }

    fn is_quiescent(&self) -> bool {
        match self {
            Proc::Single(core) => core.is_quiescent(),
            Proc::Pair(pair) => pair.is_quiescent(),
        }
    }
}

/// Aggregated system statistics over a measurement window.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SystemStats {
    /// Retired user instructions summed over logical processors.
    pub user_instructions: u64,
    /// Elapsed cycles in the window.
    pub cycles: u64,
    /// Fingerprint mismatches, including escalations within recoveries.
    pub mismatches: u64,
    /// Input-incoherence events measured by the pair drivers: mismatches
    /// first detected during normal paired execution (Table 3's metric).
    pub input_incoherence: u64,
    /// Recoveries begun.
    pub recoveries: u64,
    /// Phase-two recoveries.
    pub phase2: u64,
    /// Detected-unrecoverable failures.
    pub failures: u64,
    /// Synchronizing requests issued.
    pub sync_requests: u64,
    /// TLB misses (ITLB + DTLB) summed over vocal cores.
    pub tlb_misses: u64,
    /// Phantom requests that filled mute caches with arbitrary data.
    pub phantom_garbage_fills: u64,
    /// Cycles retirement stalled on serializing check round trips, summed
    /// over both halves of every pair.
    pub serializing_stall_cycles: u64,
    /// Check round-trip cycles charged during input-incoherence
    /// re-executions, summed over both halves of every pair.
    pub reexec_penalty_cycles: u64,
    /// Peak check-event buffer occupancy over all cores — allocation
    /// sensitivity: the buffers recycle their capacity, so this bounds the
    /// steady-state footprint of the event path.
    pub peak_check_events: u64,
    /// Peak store-buffer chain length over all cores (entries pending
    /// behind one word).
    pub peak_store_chain: u64,
    /// Stores dispatched behind a word that already had four pending,
    /// summed over all cores.
    pub store_chain_spills: u64,
}

impl SystemStats {
    /// Aggregate user IPC — the paper's performance metric ("aggregate user
    /// instructions committed per cycle").
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.user_instructions as f64 / self.cycles as f64
        }
    }

    /// Events per million user instructions (Table 3 normalization).
    pub(crate) fn per_million(&self, events: u64) -> f64 {
        if self.user_instructions == 0 {
            0.0
        } else {
            events as f64 * 1.0e6 / self.user_instructions as f64
        }
    }

    /// Folds one core's allocation-sensitivity probes into the aggregate:
    /// peaks combine by max, spill counts by sum.
    fn note_allocation_probes(&mut self, core: &reunion_cpu::CoreStats) {
        self.peak_check_events = self.peak_check_events.max(core.peak_check_events);
        self.peak_store_chain = self.peak_store_chain.max(core.peak_store_chain);
        self.store_chain_spills += core.store_chain_spills.value();
    }
}

/// A simulated CMP running one workload under one execution model.
///
/// [`run`](Self::run) advances simulated time under the configured
/// [`Engine`]: dense cycle stepping, or the default event-driven skip
/// engine, which fast-forwards across cycles where no logical processor
/// can make forward progress. Both engines produce byte-identical
/// deterministic output; the skip engine additionally accounts the cycles
/// it never ticked in [`skipped_cycles`](Self::skipped_cycles).
///
/// See the [crate docs](crate) for an example.
#[derive(Debug)]
pub struct CmpSystem {
    mem: MemorySystem,
    procs: Vec<Proc>,
    /// Shared fingerprint check bus; unmodeled (identity) at paper scale.
    check_bus: CheckBus,
    now: Cycle,
    window_start: Cycle,
    engine: Engine,
    skipped: u64,
    proc_ticks: u64,
    /// Gate for skip-run episode recording (mirrors `SystemConfig::obs`).
    obs_enabled: bool,
    /// Lengths of cycle runs the engine fast-forwarded over this window.
    /// Engine-dependent by design: the dense engine only skips quiescent
    /// tails, the skip engine also jumps stall windows.
    skip_runs: EpisodeSummary,
    /// The bound last reported by each logical processor, in
    /// logical-processor order. Refreshed at every `run` entry (external
    /// mutation may invalidate cached bounds between runs) and maintained
    /// inside the skip engine: only ticked processors re-report.
    bounds: Vec<Option<Cycle>>,
}

impl CmpSystem {
    /// Builds the system: memory hierarchy, cores, pairing, workload
    /// programs and initial memory contents.
    ///
    /// The initial contents are not copied: the memory system's coherent
    /// image starts as an empty write layer over the workload's shared
    /// base image ([`Workload::initial_memory`]), so every system built from
    /// one workload — a cell's model and baseline, and every other cell of
    /// the grid — reads the same immutable copy and owns only the words it
    /// stores itself. Tag storage follows the same rule: the L2 directory,
    /// every L1 and every TLB start as a slot table, and a set gets ways
    /// only when a line first enters it: the L2's grow 1 → 2 → 4 → 8 as
    /// they fill, a 2-way L1's or TLB's take both ways at once
    /// ([`reunion_mem::CacheArray`]), so construction costs what the
    /// machine's shape costs to describe, not what its caches can hold.
    pub fn new(cfg: &SystemConfig, workload: &Workload) -> Self {
        let mem_cfg = cfg.mem.clone().scaled_for_cores(cfg.physical_cores());
        let image = SparseMemory::over(workload.initial_memory());
        let mut mem = MemorySystem::with_image(mem_cfg, image);

        let core_cfg = |role| CoreConfig {
            role,
            phantom: cfg.phantom,
            tlb: cfg.tlb,
            consistency: cfg.consistency,
            fingerprint_interval: cfg.fingerprint_interval,
            itlb_miss_per_million: workload.spec().itlb_miss_per_million,
            check_latency: cfg.comparison_latency,
        };

        let (vocal_role, mute_role) = cfg.mode.roles();
        let mut procs = Vec::with_capacity(cfg.logical_processors);
        for lp in 0..cfg.logical_processors {
            let program = Arc::new(workload.program(lp));
            let pair_seed = cfg.seed ^ (lp as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let vl1 = mem.register_l1(Owner::vocal(lp as u8));
            let vocal = Core::new(core_cfg(vocal_role), program.clone(), vl1, pair_seed);
            procs.push(match mute_role {
                None => Proc::Single(Box::new(vocal)),
                Some(role) => {
                    let ml1 = mem.register_l1(Owner::mute(lp as u8));
                    let mute = Core::new(core_cfg(role), program, ml1, pair_seed);
                    let pair = PairDriver::new(vocal, mute, cfg.comparison_latency);
                    Proc::Pair(Box::new(pair))
                }
            });
        }

        if cfg.obs.enabled {
            for (lp, proc) in procs.iter_mut().enumerate() {
                if let Proc::Pair(pair) = proc {
                    pair.enable_observability(lp as u32, cfg.obs.trace_cap);
                }
            }
        }

        let slots = procs.len();
        CmpSystem {
            mem,
            procs,
            check_bus: CheckBus::new(cfg.check_bus_occupancy),
            now: Cycle::ZERO,
            window_start: Cycle::ZERO,
            engine: cfg.engine,
            skipped: 0,
            proc_ticks: 0,
            obs_enabled: cfg.obs.enabled,
            skip_runs: EpisodeSummary::new(),
            bounds: vec![None; slots],
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The memory system (stats inspection).
    pub fn memory(&self) -> &MemorySystem {
        &self.mem
    }

    /// The shared check bus (contention-stats inspection).
    pub fn check_bus(&self) -> &CheckBus {
        &self.check_bus
    }

    /// Number of logical processors.
    pub fn logical_processors(&self) -> usize {
        self.procs.len()
    }

    /// Direct access to a pair driver (fault injection, protocol tests).
    ///
    /// Returns `None` for non-redundant configurations.
    pub fn pair_mut(&mut self, lp: usize) -> Option<&mut PairDriver> {
        match &mut self.procs[lp] {
            Proc::Pair(p) => Some(p),
            Proc::Single(_) => None,
        }
    }

    /// Direct access to a non-redundant core.
    pub fn core_mut(&mut self, lp: usize) -> Option<&mut Core> {
        match &mut self.procs[lp] {
            Proc::Single(c) => Some(c),
            Proc::Pair(_) => None,
        }
    }

    /// Cycles fast-forwarded without ticking any logical processor: the
    /// skip engine's work savings (plus all-halted early exits, which both
    /// engines take). Always zero for a dense run that never goes fully
    /// quiescent; never part of a `BENCH_<id>.json` artifact.
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped
    }

    /// Logical-processor ticks executed so far, under either engine: one
    /// per processor per cycle when dense, one per processor whose bound
    /// had arrived when skipping. Where `skipped_cycles` only sees cycles
    /// in which *no* processor ticked, this also sees the processors left
    /// alone inside a visited cycle — the machine-independent measure of
    /// how tight the activity bounds are. Like `skipped_cycles`, never part
    /// of a `BENCH_<id>.json` artifact.
    pub fn proc_ticks(&self) -> u64 {
        self.proc_ticks
    }

    /// Advances the whole CMP by one cycle. Pairs tick in fixed
    /// logical-processor order, which also fixes the order in which their
    /// comparators are granted shared-check-bus slots — deterministic and
    /// identical under both engines.
    pub fn tick(&mut self) {
        for proc in &mut self.procs {
            proc.tick(self.now, &mut self.mem, &mut self.check_bus);
        }
        self.proc_ticks += self.procs.len() as u64;
        self.now += 1;
    }

    /// Whether every logical processor is quiescent: halted with empty
    /// pipelines, no recovery in flight, nothing left to compare. Ticking a
    /// quiescent CMP is a no-op, so `run` under either engine jumps
    /// straight to the end of its budget.
    fn all_quiescent(&self) -> bool {
        self.procs.iter().all(|p| p.is_quiescent())
    }

    /// Runs for `cycles` cycles under the configured [`Engine`].
    ///
    /// Simulated time always advances by exactly `cycles` (sampling-window
    /// accounting depends on it); the engines differ only in which of those
    /// cycles are ticked. Both early-exit once every logical processor has
    /// halted.
    pub fn run(&mut self, cycles: u64) {
        match self.engine {
            Engine::Dense => self.run_dense(cycles),
            Engine::Skip => self.run_skip(cycles),
        }
    }

    /// Dense reference engine: tick every cycle (early-exiting a fully
    /// quiescent system).
    fn run_dense(&mut self, cycles: u64) {
        let end = self.now + cycles;
        while self.now < end {
            if self.all_quiescent() {
                self.note_skip(end.saturating_since(self.now));
                self.now = end;
                break;
            }
            self.tick();
        }
    }

    /// Accounts a fast-forward of `run` cycles (quiescent tail or skip-engine
    /// jump): always bumps the total, records an episode under observability.
    fn note_skip(&mut self, run: u64) {
        self.skipped += run;
        if self.obs_enabled {
            self.skip_runs.record(run);
        }
    }

    /// Event-driven skip engine: tick only the processors whose reported
    /// bound has arrived, then fast-forward to the earliest remaining
    /// bound, clipped at the end of this run's budget (the caller's
    /// sampling-window boundary), so `begin_window`/measurement semantics
    /// are untouched.
    ///
    /// Parity argument: every per-processor bound is a conservative lower
    /// bound on that processor's next state change (see
    /// [`PairDriver::next_activity_at`] and `Core::next_activity_at`), so
    /// every cycle jumped over — and every un-ticked processor within a
    /// ticked cycle — would have been a no-op tick in the dense engine;
    /// the two engines visit identical state sequences and produce
    /// byte-identical outputs. Cached bounds stay fresh between ticks: a
    /// bound computed at `t0` with value `c` equals the bound the
    /// processor would report at any cycle in `(t0, c]` (every candidate
    /// stamp is absolute), the engine never advances past a cached bound
    /// without ticking its processor, and only ticked processors can
    /// change state. `skipped_cycles` accounting matches the previous
    /// whole-system skip engine cycle-for-cycle: the entry cycle of every
    /// iteration is ticked (possibly with an empty ready set) unless the
    /// CMP is fully quiescent, and jumps happen only after that tick.
    ///
    /// Each visited cycle is one pass over the processors
    /// ([`tick_ready`](Self::tick_ready)): a ready processor is ticked and
    /// its bound re-read at once, before the next processor ticks. That is
    /// the bound it would report after the whole ready set had ticked,
    /// because a bound reads only its own processor's state and only that
    /// processor's tick changes it. Ticks still run in logical-processor
    /// order, so check-bus grants and `proc_ticks` are unchanged.
    fn run_skip(&mut self, cycles: u64) {
        let end = self.now + cycles;
        let mut horizon = EventHorizon::new();
        for (bound, proc) in self.bounds.iter_mut().zip(&self.procs) {
            *bound = proc.next_activity_at(self.now);
            horizon.note_opt(*bound);
        }
        let mut next = horizon.next_ready();
        while self.now < end {
            if next.is_none() {
                // Every bound is `None`: no processor can act without
                // external input. Fully quiescent → jump the whole budget.
                // Otherwise (waiting on input that cannot arrive this run)
                // tick the entry cycle as an empty ready set — a no-op for
                // every processor, matching the dense-structure engine's
                // accounting — then jump.
                if self.all_quiescent() {
                    self.note_skip(end.saturating_since(self.now));
                    self.now = end;
                    break;
                }
                self.now += 1;
            } else {
                next = self.tick_ready();
            }
            if self.now >= end {
                break;
            }
            let target = match next {
                Some(t) if t < end => t,
                _ => end,
            };
            if target > self.now {
                self.note_skip(target.saturating_since(self.now));
                self.now = target;
            }
        }
    }

    /// Ticks, in logical-processor order, every processor whose bound has
    /// arrived at the current cycle, re-reads its bound for the next one,
    /// and returns the earliest bound over all processors (`None`: every
    /// processor is silent).
    fn tick_ready(&mut self) -> Option<Cycle> {
        let now = self.now;
        let mut horizon = EventHorizon::new();
        for (bound, proc) in self.bounds.iter_mut().zip(&mut self.procs) {
            if bound.is_some_and(|b| b <= now) {
                proc.tick(now, &mut self.mem, &mut self.check_bus);
                self.proc_ticks += 1;
                *bound = proc.next_activity_at(now + 1);
            }
            horizon.note_opt(*bound);
        }
        self.now += 1;
        horizon.next_ready()
    }

    /// Total retired user instructions across logical processors.
    pub fn user_instructions(&self) -> u64 {
        self.procs
            .iter()
            .map(|p| match p {
                Proc::Single(core) => core.retired_user(),
                Proc::Pair(pair) => pair.retired_user(),
            })
            .sum()
    }

    /// Delivers an external interrupt to logical processor `lp`, replicated
    /// to both halves of a pair.
    pub fn deliver_interrupt(&mut self, lp: usize) {
        match &mut self.procs[lp] {
            Proc::Single(core) => {
                // An unchecked core never closes a fingerprint interval,
                // so a later interval would never come: the one it is in
                // falls due at the next instruction boundary.
                core.schedule_interrupt_at(core.next_interval_id());
            }
            Proc::Pair(pair) => pair.deliver_interrupt(),
        }
    }

    /// Starts a measurement window: window-relative statistics are measured
    /// from this point.
    pub fn begin_window(&mut self) {
        self.window_start = self.now;
        for proc in &mut self.procs {
            match proc {
                Proc::Single(core) => {
                    core.stats_mut().reset();
                }
                Proc::Pair(pair) => {
                    pair.stats_mut().reset();
                    pair.vocal_mut().stats_mut().reset();
                    pair.mute_mut().stats_mut().reset();
                }
            }
        }
        self.mem.stats_mut().reset();
        self.skip_runs = EpisodeSummary::new();
    }

    /// Collects the observability summary for the current window: the
    /// per-pair histograms (window-relative, reset by
    /// [`begin_window`](Self::begin_window)), every core's stall-episode
    /// summary, and this window's skip runs.
    ///
    /// `skipped_cycles` and the trace counters are *not* filled here — they
    /// are cumulative over the whole measurement and are assigned once by
    /// the sampling layer. Returns an empty report when observability is
    /// disabled.
    pub(crate) fn window_obs(&self) -> ObsReport {
        let mut obs = ObsReport::new();
        if !self.obs_enabled {
            return obs;
        }
        for proc in &self.procs {
            match proc {
                Proc::Single(core) => {
                    obs.stall_episodes.merge(&core.stats().stall_episodes);
                }
                Proc::Pair(pair) => {
                    obs.check_latency.merge(&pair.stats().check_latency);
                    obs.incoherence_gaps.merge(&pair.stats().incoherence_gaps);
                    for core in [pair.vocal(), pair.mute()] {
                        obs.stall_episodes.merge(&core.stats().stall_episodes);
                    }
                }
            }
        }
        obs.skip_runs.merge(&self.skip_runs);
        obs
    }

    /// Drains every pair's bounded event trace, in logical-processor order,
    /// returning `(pushed, evicted, events)` totals. Events stay grouped by
    /// pair (each stamped with its `lp`), oldest-first within a pair.
    /// Empty when observability is disabled.
    pub(crate) fn take_trace(&mut self) -> (u64, u64, Vec<TraceEvent>) {
        let mut pushed = 0;
        let mut evicted = 0;
        let mut events = Vec::new();
        for proc in &mut self.procs {
            if let Proc::Pair(pair) = proc {
                if let Some(trace) = pair.trace_mut() {
                    pushed += trace.pushed();
                    evicted += trace.evicted();
                    events.extend(trace.take_events());
                }
            }
        }
        (pushed, evicted, events)
    }

    /// Collects statistics for the current window.
    ///
    /// Note: `user_instructions` here is window-relative, computed against
    /// [`begin_window`](Self::begin_window).
    pub fn window_stats(&self) -> SystemStats {
        // `begin_window` resets the per-core counters, so the counters are
        // already window-relative.
        let mut stats = SystemStats {
            user_instructions: self.user_instructions(),
            cycles: self.now.saturating_since(self.window_start),
            ..SystemStats::default()
        };
        for proc in &self.procs {
            match proc {
                Proc::Single(core) => {
                    stats.tlb_misses += core.stats().tlb_misses();
                    stats.note_allocation_probes(core.stats());
                }
                Proc::Pair(pair) => {
                    stats.mismatches += pair.stats().mismatches.value();
                    stats.input_incoherence += pair.stats().input_incoherence.value();
                    stats.recoveries += pair.stats().recoveries.value();
                    stats.phase2 += pair.stats().phase2_recoveries.value();
                    stats.failures += pair.stats().failures.value();
                    stats.sync_requests += pair.stats().sync_requests.value();
                    stats.tlb_misses += pair.vocal().stats().tlb_misses();
                    for core in [pair.vocal(), pair.mute()] {
                        stats.serializing_stall_cycles +=
                            core.stats().serializing_stall_cycles.value();
                        stats.reexec_penalty_cycles += core.stats().reexec_penalty_cycles.value();
                        stats.note_allocation_probes(core.stats());
                    }
                }
            }
        }
        stats.phantom_garbage_fills = self.mem.stats().phantom_garbage_fills.value();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExecutionMode;
    use reunion_workloads::Workload;

    fn moldyn() -> Workload {
        Workload::by_name("moldyn").expect("suite workload")
    }

    #[test]
    fn nonredundant_system_makes_progress() {
        let cfg = SystemConfig::small_test(ExecutionMode::NonRedundant);
        let mut sys = CmpSystem::new(&cfg, &moldyn());
        sys.run(5_000);
        assert!(sys.user_instructions() > 1_000);
        assert!(sys.pair_mut(0).is_none());
        assert!(sys.core_mut(0).is_some());
    }

    #[test]
    fn reunion_system_makes_progress_and_recovers() {
        let cfg = SystemConfig::small_test(ExecutionMode::Reunion);
        let mut sys = CmpSystem::new(&cfg, &moldyn());
        sys.run(20_000);
        let stats = sys.window_stats();
        assert!(stats.user_instructions > 1_000);
        assert_eq!(stats.failures, 0, "no failures expected without errors");
        assert!(sys.pair_mut(0).is_some());
    }

    #[test]
    fn strict_system_never_observes_incoherence() {
        let cfg = SystemConfig::small_test(ExecutionMode::Strict);
        let mut sys = CmpSystem::new(&cfg, &moldyn());
        sys.run(20_000);
        let stats = sys.window_stats();
        assert!(stats.user_instructions > 1_000);
        assert_eq!(stats.mismatches, 0);
    }

    #[test]
    fn each_mode_builds_exactly_its_roles() {
        use reunion_cpu::Role::*;
        for (mode, vocal, mute) in [
            (ExecutionMode::NonRedundant, Unchecked, None),
            (ExecutionMode::Strict, StrictLeader, Some(StrictTrailer)),
            (ExecutionMode::Reunion, Reunion, Some(Reunion)),
        ] {
            let sys = CmpSystem::new(&SystemConfig::small_test(mode), &moldyn());
            for proc in &sys.procs {
                let built = match proc {
                    Proc::Single(core) => (core.role(), None),
                    Proc::Pair(pair) => (pair.vocal().role(), Some(pair.mute().role())),
                };
                assert_eq!(built, (vocal, mute), "{mode}");
            }
        }
    }

    #[test]
    fn redundant_modes_are_slower_than_baseline() {
        let workload = moldyn();
        let mut base = CmpSystem::new(
            &SystemConfig::small_test(ExecutionMode::NonRedundant),
            &workload,
        );
        let mut reunion =
            CmpSystem::new(&SystemConfig::small_test(ExecutionMode::Reunion), &workload);
        base.run(15_000);
        reunion.run(15_000);
        assert!(
            reunion.user_instructions() <= base.user_instructions(),
            "reunion {} vs baseline {}",
            reunion.user_instructions(),
            base.user_instructions()
        );
    }

    #[test]
    fn window_accounting_is_relative() {
        let cfg = SystemConfig::small_test(ExecutionMode::NonRedundant);
        let mut sys = CmpSystem::new(&cfg, &moldyn());
        sys.run(2_000);
        sys.begin_window();
        sys.run(1_000);
        let stats = sys.window_stats();
        assert_eq!(stats.cycles, 1_000);
        assert!(stats.user_instructions > 0);
        assert!(stats.ipc() > 0.0);
    }

    #[test]
    fn interrupt_delivery_does_not_derail_pairs() {
        let cfg = SystemConfig::small_test(ExecutionMode::Reunion);
        let mut sys = CmpSystem::new(&cfg, &moldyn());
        sys.run(2_000);
        sys.deliver_interrupt(0);
        sys.deliver_interrupt(1);
        sys.run(10_000);
        let stats = sys.window_stats();
        assert_eq!(stats.failures, 0);
        assert!(stats.user_instructions > 1_000);
    }

    #[test]
    fn a_non_redundant_processor_takes_its_interrupt() {
        let cfg = SystemConfig::small_test(ExecutionMode::NonRedundant);
        // Every statistic the machine keeps, and the handler's footprint:
        // (serializing instructions, non-user instructions) retired.
        let run = |engine, interrupt: bool| {
            let mut sys = CmpSystem::new(&cfg.clone().with_engine(engine), &moldyn());
            sys.run(2_000);
            sys.begin_window();
            if interrupt {
                sys.deliver_interrupt(0);
            }
            sys.run(2_000);
            let Proc::Single(core) = &sys.procs[0] else {
                panic!("non-redundant processors are single cores");
            };
            let stats = core.stats();
            let handler = (
                stats.serializing.value(),
                stats.retired_total.value() - stats.retired_user.value(),
            );
            let all = format!("{:?} {stats:?} {:?}", sys.window_stats(), sys.mem.stats());
            (all, handler)
        };
        let (dense, handler) = run(crate::Engine::Dense, true);
        let (skip, skip_handler) = run(crate::Engine::Skip, true);
        assert_eq!(dense, skip);
        assert_eq!(handler, skip_handler);
        // trap, nop, nop, trap — and nothing else here retires off-program.
        let (_, quiet) = run(crate::Engine::Skip, false);
        assert_eq!(quiet.1, 0);
        assert_eq!(handler.1, 4);
        assert!(handler.0 >= 2);
    }

    /// Builds a non-redundant system around one hand-written program — the
    /// suite's generated workloads loop forever, so anything that must
    /// halt needs a bespoke proc.
    fn single_core_system(code: Vec<reunion_isa::Instruction>, engine: crate::Engine) -> CmpSystem {
        let program = Arc::new(reunion_isa::Program::new("bespoke", code).expect("valid program"));
        let mut mem = MemorySystem::new(reunion_mem::MemConfig::small());
        let l1 = mem.register_l1(Owner::vocal(0));
        let core = Core::new(CoreConfig::default(), program, l1, 3);
        CmpSystem {
            mem,
            procs: vec![Proc::Single(Box::new(core))],
            check_bus: CheckBus::new(0),
            now: Cycle::ZERO,
            window_start: Cycle::ZERO,
            engine,
            skipped: 0,
            proc_ticks: 0,
            obs_enabled: false,
            skip_runs: EpisodeSummary::new(),
            bounds: vec![None],
        }
    }

    fn halting_system(engine: crate::Engine) -> CmpSystem {
        use reunion_isa::{Instruction as I, RegId};
        let code = vec![
            I::add_imm(RegId::new(1), RegId::new(1), 5),
            I::alu_imm(reunion_isa::AluOp::Mul, RegId::new(2), RegId::new(1), 3),
            I::halt(),
        ];
        single_core_system(code, engine)
    }

    /// The soundness oracle for the activity bounds the skip engine caches:
    /// steps `sys` densely for `cycles`, reading each processor's bound
    /// where `run_skip` does — once for every processor on entry (a call is
    /// one run), and once after each tick at which its bound had arrived,
    /// at `now + 1`, as `tick_ready` does — and asserts that every tick
    /// before that bound arrives changes nothing. That is exactly what
    /// entitles the skip engine not to tick it. "Nothing" is the
    /// processor's whole `Debug` rendering (both cores, the comparison
    /// queues, every counter), the memory system's counters and the shared
    /// check bus. Returns how many ticks were held to that.
    fn step_checking_bounds(sys: &mut CmpSystem, cycles: u64, ctx: &str) -> u64 {
        let mut held = 0;
        // Only a processor's own tick changes it, so the rendering a held
        // tick left behind is still current at that processor's next tick.
        let mut rendered: Vec<Option<String>> = vec![None; sys.procs.len()];
        let shared = |mem: &MemorySystem, bus: &CheckBus| format!("{:?} {bus:?}", mem.stats());
        let entry = sys.now;
        let mut bounds: Vec<Option<Cycle>> = sys
            .procs
            .iter()
            .map(|proc| proc.next_activity_at(entry))
            .collect();
        for _ in 0..cycles {
            let now = sys.now;
            for (lp, (proc, bound)) in sys.procs.iter_mut().zip(&mut bounds).enumerate() {
                if bound.is_some_and(|b| b <= now) {
                    proc.tick(now, &mut sys.mem, &mut sys.check_bus);
                    *bound = proc.next_activity_at(now + 1);
                    rendered[lp] = None;
                    continue;
                }
                let bound = *bound;
                let before = rendered[lp].take().unwrap_or_else(|| format!("{proc:?}"));
                let shared_before = shared(&sys.mem, &sys.check_bus);
                proc.tick(now, &mut sys.mem, &mut sys.check_bus);
                let after = format!("{proc:?}");
                assert_eq!(
                    shared_before,
                    shared(&sys.mem, &sys.check_bus),
                    "{ctx}: lp {lp}'s bound {bound:?} had not arrived at {now:?}, yet its tick \
                     reached memory or the check bus"
                );
                if before != after {
                    let at = before
                        .bytes()
                        .zip(after.bytes())
                        .position(|(a, b)| a != b)
                        .unwrap_or(before.len().min(after.len()));
                    let from = at.saturating_sub(200);
                    panic!(
                        "{ctx}: lp {lp}'s bound {bound:?} had not arrived at {now:?}, yet its tick \
                         changed state:\n  before: …{}\n  after:  …{}",
                        &before[from..(at + 80).min(before.len())],
                        &after[from..(at + 80).min(after.len())],
                    );
                }
                rendered[lp] = Some(after);
                held += 1;
            }
            sys.now += 1;
        }
        held
    }

    /// Holds 2 000 cycles of `workload` under `cfg` to the oracle. With
    /// `interrupts`, every processor is sent one each 50 cycles, so that
    /// some fall due on a cycle the front end would otherwise sit out.
    fn held_ticks(cfg: &SystemConfig, workload: &Workload, interrupts: bool, ctx: &str) -> u64 {
        let mut sys = CmpSystem::new(cfg, workload);
        let mut held = 0;
        for _ in 0..40 {
            held += step_checking_bounds(&mut sys, 50, ctx);
            if interrupts {
                for lp in 0..sys.logical_processors() {
                    sys.deliver_interrupt(lp);
                }
            }
        }
        assert!(sys.user_instructions() > 0, "{ctx}: nothing retired");
        held
    }

    #[test]
    fn a_tick_before_the_reported_bound_changes_nothing() {
        let mut held = 0;
        for name in ["apache", "db2_oltp", "em3d", "moldyn", "flag_ring"] {
            let workload = Workload::by_name(name).expect("suite workload");
            for mode in ExecutionMode::ALL {
                let cfg = SystemConfig::small_test(mode);
                held += held_ticks(&cfg, &workload, false, &format!("{name}/{mode:?}"));
            }
        }
        // Most of a dense run is spent behind a bound; an oracle that held
        // almost nothing to one would have proved nothing.
        assert!(held > 20_000, "only {held} ticks were held to a bound");
    }

    /// The same oracle over the arms the front-end predicate branches on:
    /// stores that serialize, handler code injected ahead of the program,
    /// an interval still open when a serializing instruction arrives, an
    /// interrupt falling due while the front end waits, and a fetch that
    /// halts behind a load still in flight.
    #[test]
    fn bounds_stay_sound_on_every_arm_of_the_front_end_predicate() {
        use reunion_cpu::{Consistency, TlbMode};
        let workload = Workload::by_name("db2_oltp").expect("suite workload");
        for mode in ExecutionMode::ALL {
            let base = SystemConfig::small_test(mode);
            let mut sc = base.clone();
            sc.consistency = Consistency::Sc;
            held_ticks(&sc, &workload, false, &format!("sc/{mode:?}"));
            let mut soft = base.clone();
            soft.tlb = TlbMode::Software;
            held_ticks(&soft, &workload, false, &format!("software-tlb/{mode:?}"));
            let wide = base.clone().with_fingerprint_interval(8);
            held_ticks(&wide, &workload, true, &format!("interval-8/{mode:?}"));
            held_ticks(&base, &workload, true, &format!("interrupts/{mode:?}"));
        }
        // Four instructions fill the first cycle's dispatch width, so the
        // second cycle's fetch meets `halt` with the load still in the ROB.
        use reunion_isa::{Instruction as I, RegId};
        let r = RegId::new;
        let code = vec![
            I::load_imm(r(1), 0x4_0000),
            I::load(r(2), r(1), 0),
            I::add_imm(r(3), r(3), 1),
            I::add_imm(r(4), r(4), 1),
            I::halt(),
        ];
        let mut sys = single_core_system(code, crate::Engine::Dense);
        step_checking_bounds(&mut sys, 1_000, "halting");
        assert!(sys.all_quiescent(), "the bespoke program halts");
    }

    /// The same oracle over pairs waiting out detected mismatches. Under
    /// null phantoms a mute's missing loads bind garbage, so em3d's pairs
    /// mismatch again and again, and each waits for the later fingerprint
    /// to cross the channel before it recovers: those windows must be held
    /// to the pair's bound, not ticked.
    #[test]
    fn a_pair_waiting_out_a_mismatch_is_held_to_its_bound() {
        let workload = Workload::by_name("em3d").expect("suite workload");
        let mut cfg = SystemConfig::small_test(ExecutionMode::Reunion);
        cfg.phantom = reunion_mem::PhantomStrength::Null;
        let mut sys = CmpSystem::new(&cfg, &workload);
        let held = step_checking_bounds(&mut sys, 2_000, "null-phantom/em3d");
        let recoveries = sys.window_stats().recoveries;
        assert!(recoveries > 2, "only {recoveries} recoveries");
        assert!(held > 1_000, "only {held} ticks were held to a bound");
    }

    #[test]
    fn all_halted_system_early_exits_under_both_engines() {
        for engine in [crate::Engine::Dense, crate::Engine::Skip] {
            let mut sys = halting_system(engine);
            assert!(!sys.all_quiescent());
            sys.run(1_000_000);
            // Time still advances the full budget (window accounting), but
            // almost none of it was ticked.
            assert_eq!(sys.now().as_u64(), 1_000_000);
            assert!(sys.all_quiescent());
            assert_eq!(sys.user_instructions(), 2, "{engine}");
            assert!(
                sys.skipped_cycles() > 999_000,
                "{engine}: skipped only {}",
                sys.skipped_cycles()
            );
            // Re-running a quiescent system is a pure fast-forward.
            sys.run(500);
            assert_eq!(sys.now().as_u64(), 1_000_500);
            assert_eq!(sys.user_instructions(), 2);
        }
    }

    #[test]
    fn engine_accessors_reflect_configuration() {
        let mut cfg = SystemConfig::small_test(ExecutionMode::Reunion);
        cfg.engine = crate::Engine::Dense;
        let sys = CmpSystem::new(&cfg, &moldyn());
        assert_eq!(sys.skipped_cycles(), 0);
    }

    #[test]
    fn stats_helpers() {
        let stats = SystemStats {
            user_instructions: 2_000_000,
            cycles: 1_000_000,
            mismatches: 4,
            ..Default::default()
        };
        assert!((stats.ipc() - 2.0).abs() < 1e-12);
        assert!((stats.per_million(stats.mismatches) - 2.0).abs() < 1e-12);
    }
}
