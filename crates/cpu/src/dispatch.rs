//! Dispatch: the gate that decides what the front end may do this cycle,
//! and the execution and forward timing of each instruction it lets in.

use reunion_isa::{effective_address, execute, Instruction, Opcode, StepEffect};
use reunion_kernel::{Cycle, SimRng};
use reunion_mem::MemorySystem;

use super::{pc_u32, update_record, Core, Replay, RobEntry};
use crate::config::{MISPREDICT_PENALTY, ROB_ENTRIES, SB_ENTRIES, WIDTH};
use crate::{software_tlb_handler, SyncRequest, TlbMode};

/// What the front end may do this cycle: [`Core::gate`]'s answer, which
/// `dispatch` loops on and the activity bound matches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Gate {
    /// This instruction, the next in line, may dispatch.
    Open(Instruction),
    /// A state change `dispatch` makes before it can go on or stop.
    Act(Act),
    Blocked(Stall),
}

/// The state changes the gate asks of `dispatch`, in the gate's rank:
/// deliver a due interrupt, halt on a fetch off the image or onto `halt`,
/// and close the open interval so older instructions can retire before a
/// serializing instruction executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Act {
    Interrupt,
    Halt,
    CloseInterval,
}

/// Why the front end takes no instruction this cycle, in the gate's rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Stall {
    Halted,
    /// A synchronizing request awaits its fulfillment.
    Sync,
    /// A dispatched serializing instruction has not retired (§4.4).
    Serializing,
    RobFull,
    /// Single-stepping admits one instruction into an empty ROB only.
    SingleStep,
    /// A serializing instruction waits for the ROB to drain (§4.4).
    RobDrain,
    StoreBuffer,
    /// A mispredict or hardware ITLB walk refills fetch until `fetch_free`.
    Fetch,
    /// The strict trailer's load waits for its leader's value.
    EmptyLvq,
}

impl Core {
    /// What the front end may do at `now`, asked before each instruction.
    /// Stalls only a retirement or the pair driver lifts rank ahead of the
    /// fetch stamp, so the bound waits for them; a state change ranks
    /// behind it, as `dispatch` makes none while fetch refills.
    #[inline(always)]
    pub(super) fn gate(&self, now: Cycle) -> Gate {
        let stall = if self.halted {
            Stall::Halted
        } else if self.pending_sync.is_some() {
            Stall::Sync
        } else if self.serializing_block {
            Stall::Serializing
        } else if self.rob.len() >= ROB_ENTRIES {
            Stall::RobFull
        } else if self.single_step && !self.rob.is_empty() {
            Stall::SingleStep
        } else {
            let closes = self.cfg.role.checked() && self.fp.pending() > 0;
            let next = match self.peek_next() {
                _ if self.interrupt_due() => Gate::Act(Act::Interrupt),
                None => Gate::Act(Act::Halt),
                Some(i) if closes && self.serializes(i.op) => Gate::Act(Act::CloseInterval),
                Some(&inst) => Gate::Open(inst),
            };
            let lvq_dry = self.cfg.role.consumes_lvq() && !self.single_step && self.lvq.is_empty();
            // Ranked by arm: the instruction's own stalls, the fetch stamp
            // (a state change waits it out too), then the empty LVQ.
            match next {
                Gate::Open(i) if self.serializes(i.op) && !self.rob.is_empty() => Stall::RobDrain,
                Gate::Open(i) if i.op.is_store() && self.sb_count >= SB_ENTRIES => {
                    Stall::StoreBuffer
                }
                _ if self.fetch_free > now.as_u64() => Stall::Fetch,
                Gate::Open(i) if i.op.is_load() && lvq_dry => Stall::EmptyLvq,
                next => return next,
            }
        };
        Gate::Blocked(stall)
    }

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

    /// Whether a scheduled external interrupt falls due: its interval
    /// boundary has been reached and no handler code is queued.
    fn interrupt_due(&self) -> bool {
        self.inject.is_empty()
            && self
                .interrupt_at_interval
                .is_some_and(|k| self.fp.next_interval_id() >= k && self.fp.pending() == 0)
    }

    /// Dispatches up to [`WIDTH`] instructions, asking the gate before
    /// each; only a dispatched instruction counts toward the width.
    pub(super) fn dispatch(&mut self, now: Cycle, mem: &mut MemorySystem) {
        let mut dispatched = 0;
        while dispatched < WIDTH {
            match self.gate(now) {
                Gate::Blocked(_) => break,
                Gate::Act(Act::Interrupt) => {
                    self.interrupt_at_interval = None;
                    let (trap, nop) = (Instruction::trap(), Instruction::nop());
                    self.inject.extend([trap, nop, nop, trap]);
                }
                Gate::Act(Act::Halt) => self.halted = true,
                Gate::Act(Act::CloseInterval) => self.emit_interval(false),
                Gate::Open(inst) => {
                    dispatched += usize::from(self.dispatch_next(inst, now.as_u64(), mem));
                }
            }
        }
    }

    /// Takes `inst`, the next instruction, through the open gate; `false`
    /// when a TLB miss injects the software handler or starts a hardware
    /// walk instead.
    fn dispatch_next(&mut self, inst: Instruction, now_raw: u64, mem: &mut MemorySystem) -> bool {
        let user = self.inject.is_empty();
        let serializing = self.serializes(inst.op);

        // ITLB (instruction-footprint model) for user instructions.
        if user && self.itlb_miss_now() {
            self.stats.itlb_misses.incr();
            match self.cfg.tlb {
                TlbMode::Software => self.inject.extend(software_tlb_handler()),
                TlbMode::Hardware { walk_latency } => self.fetch_free = now_raw + walk_latency,
            }
            return false;
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
                        return false;
                    }
                    TlbMode::Hardware { walk_latency } => tlb_walk = walk_latency,
                }
            }
        }

        // Commit to dispatching this instruction.
        if !user {
            self.inject.pop_front();
        }

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

        self.serializing_block = serializing;
        true
    }

    fn itlb_miss_now(&mut self) -> bool {
        let idx = self.user_fetch_index;
        if self.cfg.itlb_miss_per_million == 0 || self.itlb_served == Some(idx) {
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
    use reunion_isa::{Instruction as I, RegId};

    use super::super::tests::run_until;
    use super::{Act, Gate, Stall};
    use crate::{Core, CoreConfig, Role};

    /// Reaches `want` from the gate, then holds the bound to it: an open
    /// gate, a state change and the empty LVQ bound the core at that
    /// cycle, and any other stall later or never, so that a tick there
    /// leaves the core unchanged.
    fn reach(cfg: CoreConfig, code: Vec<I>, setup: fn(&mut Core), grant: bool, want: Gate) {
        let at_want = |core: &Core, now| core.gate(now) == want;
        let (mut core, mut mem, now) = run_until(cfg, code, setup, grant, at_want);
        let bound = core.next_activity_at(now);
        if let Gate::Open(_) | Gate::Act(_) | Gate::Blocked(Stall::EmptyLvq) = want {
            assert_eq!(bound, Some(now), "{want:?}");
        } else {
            assert!(
                bound.is_none_or(|at| at > now),
                "{want:?} at {now:?}: {bound:?}"
            );
            let before = format!("{core:?}");
            core.tick(now, &mut mem);
            assert_eq!(
                format!("{core:?}"),
                before,
                "{want:?}: a tick before the bound"
            );
        }
    }

    #[test]
    fn every_gate_outcome_is_reached_from_a_small_program_and_bounds_the_core() {
        let r = RegId::new;
        let spin = || vec![I::add_imm(r(1), r(1), 1), I::jump(0)];
        // A load that misses far ahead of `tail`, which the loop repeats.
        let miss_then = |tail| {
            vec![
                I::load_imm(r(1), 0x4_0000),
                I::load(r(2), r(1), 0),
                tail,
                I::jump(2),
            ]
        };
        let plain = CoreConfig::default;
        let reunion = || CoreConfig::for_role(Role::Reunion);
        let trailer = CoreConfig::for_role(Role::StrictTrailer);
        let eight_wide = CoreConfig {
            fingerprint_interval: 8,
            ..reunion()
        };
        let itlb_walks = CoreConfig {
            itlb_miss_per_million: 1_000_000,
            ..plain()
        };
        let four_then_membar = vec![
            I::add_imm(r(1), r(1), 1),
            I::add_imm(r(2), r(2), 1),
            I::add_imm(r(3), r(3), 1),
            I::add_imm(r(4), r(4), 1),
            I::membar(),
            I::jump(0),
        ];
        let drain_then_membar = vec![
            I::load_imm(r(1), 0x4_0000),
            I::store(r(1), r(1), 0),
            I::membar(),
            I::jump(0),
        ];
        let sync_load = vec![
            I::add_imm(r(1), r(1), 0xD00),
            I::load(r(2), r(1), 0),
            I::jump(0),
        ];
        let lvq_load = vec![I::load_imm(r(1), 0xE00), I::load(r(2), r(1), 0), I::halt()];
        let (membar, store) = (I::membar(), I::store(r(1), r(1), 8));
        let none: fn(&mut Core) = |_| {};
        let interrupt: fn(&mut Core) = |core| core.schedule_interrupt_at(0);
        let step: fn(&mut Core) = Core::begin_single_step;
        let stall = Gate::Blocked;
        use Stall::*;
        let cases = [
            (plain(), spin(), none, false, Gate::Open(spin()[0])),
            (plain(), spin(), interrupt, false, Gate::Act(Act::Interrupt)),
            (plain(), vec![I::halt()], none, false, Gate::Act(Act::Halt)),
            (
                eight_wide,
                four_then_membar,
                none,
                false,
                Gate::Act(Act::CloseInterval),
            ),
            (itlb_walks, spin(), none, false, stall(Fetch)),
            (plain(), vec![I::halt()], none, false, stall(Halted)),
            (reunion(), sync_load, step, true, stall(Sync)),
            (plain(), drain_then_membar, none, false, stall(Serializing)),
            (reunion(), spin(), none, false, stall(RobFull)),
            (reunion(), spin(), step, false, stall(SingleStep)),
            (plain(), miss_then(membar), none, false, stall(RobDrain)),
            (plain(), miss_then(store), none, false, stall(StoreBuffer)),
            (trailer, lvq_load, none, true, stall(EmptyLvq)),
        ];
        for (cfg, code, setup, grant, want) in cases {
            reach(cfg, code, setup, grant, want);
        }
    }
}
