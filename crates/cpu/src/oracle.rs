//! The retirement oracle: a co-simulation of the golden model, compiled into
//! debug builds only.
//!
//! Every user instruction the core commits is executed once more by
//! [`reunion_isa::execute`] on a shadow [`ArchState`], and the retired state
//! must come out the same. The shadow's memory replays the value the
//! pipeline bound for a load or atomic (a store-buffer forward, a phantom
//! fill, a load-value-queue entry or a synchronizing request's value), so
//! races and memory order drop out. What is checked is the pipeline's
//! bookkeeping of the semantics: the effect it retired (register write,
//! store address and data, an atomic's address and old value, branch
//! target), the retired PC and every register.
//!
//! Injected handler code does not step the shadow: it writes no register
//! and leaves the PC where it was. A soft error injected by `maybe_corrupt`
//! is the one intended divergence; its instruction is noted at dispatch,
//! and when it retires the shadow takes the retired state instead of
//! asserting. `copy_arch_state_from` (the phase-two ARF copy) resyncs the
//! shadow too. If that copy lands under instructions still in flight
//! (tests do this to fake an aliased fingerprint), they were dispatched
//! from a state that no longer exists, and the check pauses until the next
//! rollback flushes them.

use std::fmt::Debug;

use reunion_isa::{execute, ArchState, Opcode, Program, StepEffect};

use super::{Core, Replay, RobEntry};

/// The golden model's view of one core.
#[derive(Debug)]
pub(super) struct Shadow {
    /// The architectural state the retired state must equal; `None` while
    /// the pipeline holds instructions dispatched from a state that
    /// `copy_arch_state_from` has since replaced.
    state: Option<ArchState>,
    /// User-instruction index whose result a soft error flipped, until it
    /// retires or a rollback squashes it.
    corrupted: Option<u64>,
    /// User instructions checked so far.
    checked: u64,
}

impl Shadow {
    pub(super) fn new(entry: usize) -> Self {
        Shadow {
            state: Some(ArchState::new(entry)),
            corrupted: None,
            checked: 0,
        }
    }

    /// Takes `state` as the golden state, or pauses the check while
    /// instructions dispatched from an older state are in flight.
    pub(super) fn resync(&mut self, state: &ArchState, in_flight: bool) {
        self.state = (!in_flight).then(|| state.clone());
        if !in_flight {
            self.corrupted = None;
        }
    }

    /// Notes that the user instruction with index `index` carries a flipped
    /// result.
    pub(super) fn expect_corruption(&mut self, index: u64) {
        self.corrupted = Some(index);
    }

    /// Checks the committed user entry with user-instruction index `index`;
    /// `retired` is the state it left.
    ///
    /// # Panics
    ///
    /// Panics with the divergence report if the golden model disagrees.
    pub(super) fn retire(
        &mut self,
        program: &Program,
        entry: &RobEntry,
        retired: &ArchState,
        index: u64,
    ) {
        let Some(golden) = &mut self.state else {
            return;
        };
        if self.corrupted == Some(index) {
            self.corrupted = None;
            golden.restore(retired);
            return;
        }
        if let Err(report) = check(program, golden, entry, retired) {
            panic!("retirement oracle: {report}");
        }
        self.checked += 1;
    }
}

impl Core {
    /// User instructions the retirement oracle has checked against the
    /// golden model (debug builds only).
    pub fn oracle_checked(&self) -> u64 {
        self.shadow.checked
    }
}

/// Steps `golden` over the instruction at its PC and compares the result
/// with what the pipeline committed for `entry`, which left `retired`.
fn check(
    program: &Program,
    golden: &mut ArchState,
    entry: &RobEntry,
    retired: &ArchState,
) -> Result<(), String> {
    let pc = golden.pc;
    let inst = match program.fetch(pc) {
        Some(&inst) if inst.op != Opcode::Halt => inst,
        _ => return Err(format!("pc {pc}: retired past the end of the program")),
    };
    let bound = match entry.effect {
        StepEffect::Load { value, .. } => value,
        StepEffect::Atomic { old, .. } => old,
        _ => 0,
    };
    let expected = execute(&inst, golden, pc, &mut Replay(bound));
    let report = |what: &str, expected: &dyn Debug, actual: &dyn Debug| {
        Err(format!(
            "pc {pc} `{inst}`: {what} expected {expected:?}, retired {actual:?}"
        ))
    };
    if expected != entry.effect {
        return report("effect", &expected, &entry.effect);
    }
    if golden.pc != retired.pc {
        return report("next pc", &golden.pc, &retired.pc);
    }
    if golden.regs == retired.regs {
        return Ok(());
    }
    let (reg, value) = golden
        .regs
        .iter()
        .find(|&(reg, value)| retired.regs.read(reg) != value)
        .expect("the register files differ");
    report(&reg.to_string(), &value, &retired.regs.read(reg))
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    use reunion_isa::{Addr, Instruction as I, RegId};
    use reunion_kernel::Cycle;
    use reunion_mem::{MemConfig, MemorySystem, Owner};

    use super::*;
    use crate::CoreConfig;

    fn r(i: u8) -> RegId {
        RegId::new(i)
    }

    /// A retired entry of the program `li r1, 0x400; st [r1 + 8], r1`.
    fn entry(effect: StepEffect, next_pc: u32) -> RobEntry {
        RobEntry {
            effect,
            check_time: 0,
            next_pc,
            interval: 0,
            user: true,
            serializing: false,
        }
    }

    /// Commits `entries` in order on a fresh core and returns the report
    /// the oracle panics with.
    fn report(entries: &[RobEntry]) -> String {
        let code = vec![I::load_imm(r(1), 0x400), I::store(r(1), r(1), 8), I::halt()];
        let program = Arc::new(Program::new("oracle", code).unwrap());
        let mut mem = MemorySystem::new(MemConfig::small());
        let l1 = mem.register_l1(Owner::vocal(0));
        let mut core = Core::new(CoreConfig::default(), program, l1, 7);
        let panic = catch_unwind(AssertUnwindSafe(|| {
            for &entry in entries {
                core.commit(entry, Cycle::ZERO, &mut mem);
            }
        }))
        .expect_err("the oracle must report the divergence");
        *panic.downcast::<String>().expect("a formatted report")
    }

    /// The first instruction's effect, as it should retire.
    fn li() -> StepEffect {
        StepEffect::Reg {
            dst: r(1),
            value: 0x400,
        }
    }

    #[test]
    fn a_wrong_register_value_is_reported() {
        let wrong = StepEffect::Reg {
            dst: r(1),
            value: 0x401,
        };
        let report = report(&[entry(wrong, 1)]);
        for part in ["pc 0", "`li r1, 1024`", "value: 1024", "value: 1025"] {
            assert!(report.contains(part), "{part:?} missing from {report:?}");
        }
    }

    #[test]
    fn wrong_store_data_is_reported() {
        let wrong = StepEffect::Store {
            addr: Addr::new(0x408),
            value: 0x3FF,
        };
        let report = report(&[entry(li(), 1), entry(wrong, 2)]);
        for part in ["pc 1", "`st [r1 + 8], r1`", "value: 1024", "value: 1023"] {
            assert!(report.contains(part), "{part:?} missing from {report:?}");
        }
    }

    #[test]
    fn a_wrong_next_pc_is_reported() {
        let report = report(&[entry(li(), 2)]);
        for part in ["pc 0", "`li r1, 1024`", "next pc expected 1, retired 2"] {
            assert!(report.contains(part), "{part:?} missing from {report:?}");
        }
    }
}
