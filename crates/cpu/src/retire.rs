//! Retirement: in-order commit of checked ROB entries to architectural state.

use reunion_isa::StepEffect;
use reunion_kernel::Cycle;
use reunion_mem::MemorySystem;

use super::{Core, RobEntry};
use crate::config::WIDTH;

impl Core {
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
        while let Some(head) = self.rob.front().filter(|h| h.check_time != u64::MAX) {
            if self.cfg.role.checked() && self.granted_at(head).is_none() {
                break;
            }
            let entry = self.rob.pop_front().expect("head exists");
            self.commit(entry, now, mem);
        }
    }

    pub(super) fn retire(&mut self, now: Cycle, mem: &mut MemorySystem) {
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
    pub(super) fn commit(&mut self, entry: RobEntry, now: Cycle, mem: &mut MemorySystem) {
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
