//! Activity bounds: when a core can next change state on its own.
//!
//! The skip engine ticks a core only when its bound has arrived, so the
//! bound must never be later than the first cycle at which `Core::tick`
//! would do anything. The bound is two matches: one on [`Core::gate`], the
//! function `dispatch` loops on, and one on [`Core::head`], the function
//! `retire` loops on. Neither has a wildcard arm, so the bound cannot list
//! different reasons from the stage it bounds, and a new [`Stall`] or
//! [`Head`] does not compile until the bound decides it.

use reunion_kernel::Cycle;

use super::dispatch::{Gate, Stall};
use super::retire::Head;
use super::Core;

impl Core {
    /// The earliest cycle `>= from` at which this core could make forward
    /// progress on its own — the core's contribution to a time-skipping
    /// engine's [`EventHorizon`](reunion_kernel::EventHorizon).
    ///
    /// The bound is conservative (ticking the core earlier is a no-op, never
    /// wrong), derived from the same completion stamps the pipeline runs on:
    ///
    /// * **Dispatch** — the next cycle when the dispatch gate is open or has a
    ///   state change to make; `fetch_free` for a fetch refill. Every other
    ///   stall contributes nothing: only a retirement, already on the
    ///   horizon, or the pair driver lifts it. The strict trailer's empty
    ///   load-value queue reads the next cycle too: its wake-up is the
    ///   partner's `push_lvq`, which no stamp of this core announces.
    /// * **Pending check events** — fingerprints emitted after the pair
    ///   driver's collection point (synchronizing-request fulfillment) must
    ///   be compared on the next cycle.
    /// * **Retirement** — by what `Core::head` answers: `Ready` the next cycle;
    ///   `At(t)` cycle `t`; `RoundTrip` the next cycle too, so the engine
    ///   steps through the return trip and the `serializing_stall_cycles`
    ///   counter matches dense execution exactly. `Ungranted`, `Sync` and
    ///   `Empty` contribute nothing: a grant or a fulfillment comes from the
    ///   pair driver.
    ///
    /// `None` means the core cannot act again without external input: a
    /// grant or synchronizing fulfillment from its pair driver, or nothing
    /// at all (halted with an empty pipeline).
    pub fn next_activity_at(&self, from: Cycle) -> Option<Cycle> {
        let fetch = match self.gate(from) {
            // Fast path: nothing is earlier, so skip the retire side. This
            // keeps the skip engine cheap through dense phases.
            Gate::Open(_) | Gate::Act(_) | Gate::Blocked(Stall::EmptyLvq) => return Some(from),
            Gate::Blocked(Stall::Fetch) => Some(Cycle::new(self.fetch_free)),
            Gate::Blocked(Stall::Halted | Stall::Sync | Stall::RobFull | Stall::SingleStep) => None,
            Gate::Blocked(Stall::Serializing | Stall::RobDrain | Stall::StoreBuffer) => None,
        };
        if !self.events.is_empty() {
            return Some(from);
        }
        let retire = match self.head(from) {
            // Each cycle of the return trip is a stall cycle `retire` counts.
            Head::Ready | Head::RoundTrip => return Some(from),
            Head::At(at) => Some(at),
            Head::Ungranted | Head::Sync | Head::Empty => None,
        };
        fetch.into_iter().chain(retire).min()
    }

    /// Whether the core can never act again without external input: halted
    /// with an empty pipeline and no check events awaiting collection.
    ///
    /// A quiescent core's `tick` is a no-op at every future cycle, which is
    /// what lets [`next_activity_at`](Self::next_activity_at) return `None`
    /// and the system engine fast-forward past it.
    pub fn is_quiescent(&self) -> bool {
        self.halted && self.rob.is_empty() && self.events.is_empty() && self.pending_sync.is_none()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use reunion_isa::{Instruction as I, Program, RegId};
    use reunion_kernel::Cycle;
    use reunion_mem::{MemConfig, MemorySystem, Owner};

    use super::{Gate, Stall};
    use crate::{Core, CoreConfig, ReleaseGrant, Role};

    fn r(i: u8) -> RegId {
        RegId::new(i)
    }

    fn core_on(cfg: CoreConfig, code: Vec<I>) -> (Core, MemorySystem) {
        let program = Arc::new(Program::new("t", code).unwrap());
        let mut mem = MemorySystem::new(MemConfig::small());
        let l1 = mem.register_l1(Owner::vocal(0));
        (Core::new(cfg, program, l1, 7), mem)
    }

    fn run_core(code: Vec<I>, cycles: u64) -> (Core, MemorySystem) {
        let (mut core, mut mem) = core_on(CoreConfig::default(), code);
        for c in 0..cycles {
            core.tick(Cycle::new(c), &mut mem);
        }
        (core, mem)
    }

    #[test]
    fn halted_empty_core_is_quiescent_and_silent() {
        let code = vec![I::load_imm(r(1), 7), I::halt()];
        let (core, _) = run_core(code, 500);
        assert!(core.is_halted());
        assert!(core.is_quiescent());
        assert_eq!(core.next_activity_at(Cycle::new(500)), None);
    }

    #[test]
    fn running_core_reports_immediate_activity() {
        let code = vec![I::add_imm(r(1), r(1), 1), I::jump(0)];
        let (core, _) = run_core(code, 100);
        assert!(!core.is_quiescent());
        // Front end dispatches every cycle: the next cycle is active.
        assert_eq!(
            core.next_activity_at(Cycle::new(100)),
            Some(Cycle::new(100))
        );
    }

    #[test]
    fn a_serializing_instruction_behind_a_load_waits_for_its_retirement() {
        let code = vec![
            I::load_imm(r(1), 0x4_0000),
            I::load(r(2), r(1), 0),
            I::membar(),
            I::jump(0),
        ];
        let (mut core, mut mem) = run_core(code, 5);
        // The membar may not dispatch until the missing load has retired,
        // and nothing else is in the front end's way: the next activity is
        // that retirement, far in the future, not the next cycle.
        let wake = core
            .next_activity_at(Cycle::new(5))
            .expect("load in flight");
        assert!(wake > Cycle::new(20), "woke at {wake:?}");
        assert_eq!(core.retired_user(), 1);
        core.tick(wake, &mut mem);
        assert_eq!(core.retired_user(), 2, "the load retires on the bound");
        // ... and with the ROB drained the membar dispatched in that tick.
        assert_eq!(
            core.gate(wake),
            Gate::Blocked(Stall::Serializing),
            "a dispatched membar blocks"
        );
    }

    #[test]
    fn ungranted_head_waits_on_the_partner() {
        let code = vec![I::add_imm(r(1), r(1), 1), I::jump(0)];
        let (mut core, mut mem) = core_on(CoreConfig::for_role(Role::Reunion), code);
        let mut events = Vec::new();
        let mut now = 0;
        // Fill the ROB: ungranted intervals cannot retire.
        while core.next_activity_at(Cycle::new(now)).is_some() {
            core.tick(Cycle::new(now), &mut mem);
            events.extend(core.take_check_events());
            now += 1;
            assert!(now < 10_000, "ROB must fill and block");
        }
        // Blocked on the pair driver entirely: no self-activity.
        assert!(!core.is_quiescent());
        assert_eq!(core.next_activity_at(Cycle::new(now)), None);
        // A grant with a future release time becomes the next activity.
        let head = &events[0];
        let at = Cycle::new(now + 400);
        core.grant(ReleaseGrant {
            interval_id: head.fingerprint.interval_id,
            at,
        });
        assert_eq!(core.next_activity_at(Cycle::new(now)), Some(at));
    }

    #[test]
    fn pending_check_events_keep_the_core_active() {
        // A fulfilled synchronizing request emits an event after the pair
        // driver's collection point; the event must force the next cycle.
        let code = vec![I::add_imm(r(1), r(1), 1), I::jump(0)];
        let (mut core, mut mem) = core_on(CoreConfig::for_role(Role::Reunion), code);
        core.tick(Cycle::ZERO, &mut mem);
        assert!(!core.take_check_events().is_empty(), "interval emitted");
        assert_eq!(
            core.next_activity_at(Cycle::new(1)),
            Some(Cycle::new(1)),
            "an active front end (and undrained events) demand the next cycle"
        );
    }
}
