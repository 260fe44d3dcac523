//! Retirement: in-order commit of checked ROB entries to architectural state.

use reunion_isa::StepEffect;
use reunion_kernel::Cycle;
use reunion_mem::MemorySystem;

use super::Core;
use crate::config::WIDTH;

/// Where the ROB head stands: [`Core::head`]'s answer, which `retire` and
/// `drain_granted` loop on and the activity bound matches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Head {
    /// The head commits this cycle.
    Ready,
    /// The head completes, or its interval's grant arrives, at this cycle.
    At(Cycle),
    /// A granted serializing interval waits for the grant to cross back
    /// (§4.4); `retire` counts each such cycle as a serializing stall.
    RoundTrip,
    /// The head's interval awaits its grant: the partner's fingerprint.
    Ungranted,
    /// The head awaits a synchronizing-request fulfillment.
    Sync,
    Empty,
}

impl Core {
    /// Whether the ROB head may commit at `now`, and if not, what it waits
    /// for. Under checking, a head commits once it has completed and its
    /// interval's release grant has arrived; a serializing interval also
    /// waits out the grant's return trip when the role pays it.
    #[inline(always)]
    pub(super) fn head(&self, now: Cycle) -> Head {
        let Some(head) = self.rob.front() else {
            return Head::Empty;
        };
        if head.check_time == u64::MAX {
            return Head::Sync;
        }
        let (now, mut at) = (now.as_u64(), head.check_time);
        if self.cfg.role.checked() {
            let granted = self.grants[head.grant_slot()];
            if granted == u64::MAX {
                return Head::Ungranted;
            }
            at = at.max(granted);
            let trip = head.serializing && self.cfg.role.pays_grant_return();
            if trip && at <= now && granted + self.cfg.check_latency > now {
                return Head::RoundTrip;
            }
        }
        if at > now {
            Head::At(Cycle::new(at))
        } else {
            Head::Ready
        }
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
        while let Head::Ready | Head::At(_) | Head::RoundTrip = self.head(now) {
            self.commit(now, mem);
        }
    }

    /// Commits up to [`WIDTH`] heads, asking [`head`](Self::head) before
    /// each.
    pub(super) fn retire(&mut self, now: Cycle, mem: &mut MemorySystem) {
        for _ in 0..WIDTH {
            match self.head(now) {
                Head::Ready => self.commit(now, mem),
                Head::RoundTrip => {
                    self.stats.serializing_stall_cycles.incr();
                    self.stall_run += 1;
                    return;
                }
                Head::At(_) | Head::Ungranted | Head::Sync | Head::Empty => return,
            }
        }
    }

    /// Pops the ROB head and commits it to architectural state: the retired
    /// ARF and PC, the entry's memory effect (an atomic's write — the
    /// memory system applies it for a vocal L1 only — or a store's drain,
    /// which the strict trailing core leaves to its leader), the store
    /// buffer, and the retirement statistics.
    pub(super) fn commit(&mut self, now: Cycle, mem: &mut MemorySystem) {
        let entry = self.rob.pop_front().expect("a head to commit");
        // Free the entry's grant slot once the last entry of its interval
        // leaves. A grant exists only once the whole interval has
        // dispatched, and an interval's entries are contiguous, so when the
        // new head belongs to another interval nothing looks it up again.
        if self.cfg.role.checked() && self.rob.front().map(|h| h.interval) != Some(entry.interval) {
            self.grants[entry.grant_slot()] = u64::MAX;
        }
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
}

#[cfg(test)]
mod tests {
    use reunion_isa::{Instruction as I, RegId};

    use super::super::dispatch::{Gate, Stall};
    use super::super::tests::run_until;
    use super::Head;
    use crate::{Core, CoreConfig, Role};

    /// Reaches a head that `want` accepts while the gate is shut on a stall
    /// that bounds nothing, so the bound is the head's alone. Then holds
    /// the bound to it: `Ready` and `RoundTrip` give this cycle, and a tick
    /// there commits or counts a serializing stall; `At(t)` gives `t`, and
    /// `Ungranted`, `Sync` and `Empty` nothing, and a tick before it leaves
    /// the core unchanged. Last, `drain_granted` commits up to the first
    /// `Ungranted` or `Sync` head and no further.
    fn reach_head(
        cfg: CoreConfig,
        code: Vec<I>,
        setup: fn(&mut Core),
        grant: bool,
        want: fn(Head) -> bool,
    ) {
        let at_want = |core: &Core, now| {
            let shut = match core.gate(now) {
                Gate::Open(_) | Gate::Act(_) => false,
                Gate::Blocked(stall) => !matches!(stall, Stall::Fetch | Stall::EmptyLvq),
            };
            shut && want(core.head(now))
        };
        let (mut core, mut mem, now) = run_until(cfg, code, setup, grant, at_want);
        let head = core.head(now);
        let bound = core.next_activity_at(now);
        let before = format!("{core:?}");
        let (retired, stalls) = (
            core.stats.retired_total.value(),
            core.stats.serializing_stall_cycles.value(),
        );
        core.tick(now, &mut mem);
        let after = (
            core.stats.retired_total.value(),
            core.stats.serializing_stall_cycles.value(),
        );
        match head {
            Head::Ready => {
                assert_eq!(bound, Some(now));
                assert!(after.0 > retired, "Ready: the tick commits");
            }
            Head::RoundTrip => {
                assert_eq!(bound, Some(now));
                assert_eq!(after, (retired, stalls + 1), "RoundTrip: one stall cycle");
            }
            Head::At(at) => assert_eq!(bound, Some(at), "{head:?} at {now:?}"),
            Head::Ungranted | Head::Sync | Head::Empty => assert_eq!(bound, None, "{head:?}"),
        }
        if !matches!(head, Head::Ready | Head::RoundTrip) {
            assert_eq!(
                format!("{core:?}"),
                before,
                "{head:?}: a tick before the bound"
            );
        }
        let head = core.head(now);
        let before = format!("{core:?}");
        core.drain_granted(now, &mut mem);
        match head {
            Head::Ready | Head::At(_) | Head::RoundTrip => assert!(
                matches!(core.head(now), Head::Ungranted | Head::Sync | Head::Empty),
                "{head:?}: drained to {:?}",
                core.head(now)
            ),
            Head::Ungranted | Head::Sync | Head::Empty => {
                assert_eq!(format!("{core:?}"), before, "{head:?}: drain_granted stops");
            }
        }
    }

    #[test]
    fn every_head_outcome_is_reached_from_a_small_program_and_bounds_the_core() {
        let r = RegId::new;
        let spin = vec![I::add_imm(r(1), r(1), 1), I::jump(0)];
        let miss_then_membar = vec![
            I::load_imm(r(1), 0x4_0000),
            I::load(r(2), r(1), 0),
            I::membar(),
            I::jump(2),
        ];
        let add_then_membar = vec![I::add_imm(r(1), r(1), 1), I::membar(), I::jump(0)];
        let sync_load = vec![
            I::add_imm(r(1), r(1), 0xD00),
            I::load(r(2), r(1), 0),
            I::jump(0),
        ];
        let plain = CoreConfig::default;
        let reunion = || CoreConfig::for_role(Role::Reunion);
        let none: fn(&mut Core) = |_| {};
        let step: fn(&mut Core) = Core::begin_single_step;
        let at: fn(Head) -> bool = |h| matches!(h, Head::At(_));
        let cases = [
            // The missing load completes behind a membar that waits for it.
            (plain(), miss_then_membar.clone(), none, false, at),
            (plain(), miss_then_membar, none, false, |h| h == Head::Ready),
            // A granted membar waits for the grant to cross back.
            (reunion(), add_then_membar, none, true, |h| {
                h == Head::RoundTrip
            }),
            (reunion(), spin, none, false, |h| h == Head::Ungranted),
            (reunion(), sync_load, step, true, |h| h == Head::Sync),
            (plain(), vec![I::halt()], none, false, |h| h == Head::Empty),
        ];
        for (cfg, code, setup, grant, want) in cases {
            reach_head(cfg, code, setup, grant, want);
        }
    }
}
