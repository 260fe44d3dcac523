//! Activity bounds: when a core can next change state on its own.
//!
//! The skip engine ticks a core only when its bound has arrived, so the
//! bound must never be later than the first cycle at which `Core::tick`
//! would do anything. Every reason `dispatch` has to stop short of an
//! instruction is a predicate defined here and asked by both sides —
//! `dispatch` at the point it stops, the bound through
//! [`Core::front_end_blocked`] — so the two cannot list different reasons.

use reunion_isa::Instruction;
use reunion_kernel::{Cycle, EventHorizon};

use super::Core;
use crate::config::{ROB_ENTRIES, SB_ENTRIES};

impl Core {
    /// Whether the pipeline accepts no instruction at all this cycle,
    /// whatever comes next: `dispatch` stops at the head of its loop.
    pub(super) fn front_end_closed(&self) -> bool {
        self.halted
            || self.pending_sync.is_some()
            || self.serializing_block
            || self.rob.len() >= ROB_ENTRIES
            || (self.single_step && !self.rob.is_empty())
    }

    /// Whether `inst` cannot dispatch until something older retires: a
    /// serializing instruction enters an empty ROB only (§4.4), and a store
    /// needs a free store-buffer entry.
    pub(super) fn awaits_retirement(&self, inst: &Instruction) -> bool {
        (self.serializes(inst.op) && !self.rob.is_empty())
            || (inst.op.is_store() && self.sb_count >= SB_ENTRIES)
    }

    /// Whether this cycle's `dispatch` would change no state at all,
    /// `fetch_free` aside.
    ///
    /// Every wait reported here is lifted only by a retirement (which
    /// [`next_activity_at`](Self::next_activity_at) schedules from the head
    /// ROB entry's stamps) or by the pair driver (a grant, a synchronizing
    /// fulfillment, a rollback — each inside a tick that re-reports the
    /// bound). The strict trailing core's empty-LVQ wait is deliberately
    /// absent: its wake-up is the partner's `push_lvq`, which no stamp of
    /// this core announces, so the bound keeps reporting "now" for it.
    fn front_end_blocked(&self) -> bool {
        if self.front_end_closed() {
            return true;
        }
        // Before `dispatch` asks whether the next instruction must wait it
        // does three things that change state, and a cycle on which it
        // would do any of them is not one to sit out. A fetch that runs off
        // the image or onto `halt` halts the core ...
        let Some(inst) = self.peek_next() else {
            return false;
        };
        self.awaits_retirement(inst)
            // ... an interrupt that has fallen due is delivered ...
            && !self.interrupt_due()
            // ... and an open fingerprint interval is closed ahead of a
            // serializing instruction, so the older ones can be compared.
            && !(self.cfg.role.checked() && self.fp.pending() > 0 && self.serializes(inst.op))
    }

    /// The earliest cycle `>= from` at which this core could make forward
    /// progress on its own — the core's contribution to a time-skipping
    /// engine's [`EventHorizon`].
    ///
    /// The bound is conservative (ticking the core earlier is a no-op, never
    /// wrong), derived from the same completion stamps the pipeline runs on:
    ///
    /// * **Retirement** — the head ROB entry's in-order check time, plus its
    ///   release-grant time under checking. Serializing intervals
    ///   deliberately resolve to `from` once their grant has arrived, so the
    ///   engine steps cycle-by-cycle through the round-trip stall window and
    ///   the `serializing_stall_cycles` counter matches dense execution
    ///   exactly.
    /// * **Dispatch** — `fetch_free` (mispredict/TLB refill), unless the
    ///   front end is blocked: halt, full ROB, a dispatched serializing
    ///   instruction, a pending synchronizing request, single-step
    ///   occupancy, a serializing instruction waiting for the ROB to drain,
    ///   or a store waiting for a store-buffer entry. A blocked front end
    ///   contributes nothing; the retirement that unblocks it is already on
    ///   the horizon.
    /// * **Pending check events** — fingerprints emitted after the pair
    ///   driver's collection point (synchronizing-request fulfillment) must
    ///   be compared on the next cycle.
    ///
    /// `None` means the core cannot act again without external input: a
    /// grant or synchronizing fulfillment from its pair driver, or nothing
    /// at all (halted with an empty pipeline).
    pub fn next_activity_at(&self, from: Cycle) -> Option<Cycle> {
        let floor = from.as_u64();
        let front_end_blocked = self.front_end_blocked();
        // Fast path: an unblocked front end dispatches on the very next
        // cycle — no candidate can be earlier, so skip the retire-side
        // bookkeeping entirely. This keeps the skip engine's per-tick
        // overhead negligible through dense (always-active) phases.
        if !front_end_blocked && self.fetch_free <= floor {
            return Some(from);
        }
        if !self.events.is_empty() {
            return Some(from);
        }

        let mut horizon = EventHorizon::new();
        if !front_end_blocked {
            horizon.note(Cycle::new(self.fetch_free));
        }
        if let Some(head) = self.rob.front() {
            if head.check_time != u64::MAX {
                if self.cfg.role.checked() {
                    // Ungranted heads wait on the partner's fingerprint —
                    // the partner core's activity, not this core's.
                    if let Some(granted_at) = self.granted_at(head) {
                        horizon.note(Cycle::new(head.check_time.max(granted_at).max(floor)));
                    }
                } else {
                    horizon.note(Cycle::new(head.check_time.max(floor)));
                }
            }
        }
        horizon.next_ready()
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
        assert!(core.front_end_closed(), "a dispatched membar blocks");
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
