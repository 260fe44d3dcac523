//! Exact functional semantics and the golden-model interpreter.

use std::sync::Arc;

use reunion_kernel::FastHashMap;

use crate::{
    Addr, AluOp, ArchState, AtomicOp, BaseImage, BranchCond, Instruction, Opcode, Program, RegId,
    LINE_BYTES, WORDS_PER_LINE,
};

/// Computes an ALU result. All arithmetic wraps; shifts use the low six bits
/// of the shift amount.
#[inline]
pub fn alu_compute(op: AluOp, a: u64, b: u64) -> u64 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Xor => a ^ b,
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Shl => a << (b & 63),
        AluOp::Shr => a >> (b & 63),
        AluOp::Mul => a.wrapping_mul(b),
    }
}

/// Evaluates a branch condition on a register value.
#[inline]
pub fn branch_decides(cond: BranchCond, value: u64) -> bool {
    match cond {
        BranchCond::Eqz => value == 0,
        BranchCond::Nez => value != 0,
        BranchCond::Ltz => (value as i64) < 0,
        BranchCond::Always => true,
    }
}

/// Computes the new memory value for an atomic read-modify-write.
#[inline]
pub fn atomic_update(op: AtomicOp, old: u64, operand: u64) -> u64 {
    match op {
        AtomicOp::Swap => operand,
        AtomicOp::FetchAdd => old.wrapping_add(operand),
    }
}

/// The memory interface used by the functional interpreter.
///
/// All accesses are 8-byte words; the address is word-aligned by the
/// implementation. A `&mut M` can be passed wherever `M: DataMemory` is
/// expected.
pub trait DataMemory {
    /// Reads the 8-byte word containing `addr`.
    fn load(&mut self, addr: Addr) -> u64;
    /// Writes the 8-byte word containing `addr`.
    fn store(&mut self, addr: Addr, value: u64);
}

impl<M: DataMemory + ?Sized> DataMemory for &mut M {
    fn load(&mut self, addr: Addr) -> u64 {
        (**self).load(addr)
    }
    fn store(&mut self, addr: Addr, value: u64) {
        (**self).store(addr, value)
    }
}

/// A sparse word-granular memory image, optionally layered over a shared
/// read-only [`BaseImage`].
///
/// Unwritten locations read as a deterministic hash of their address (rather
/// than zero) so that accidental dependence on uninitialized memory shows up
/// in tests instead of silently matching across cores.
///
/// # Layering
///
/// A workload's initial image can be half a million words (em3d's pointer
/// ring), and an experiment grid builds dozens of systems from it. Instead
/// of replaying the words into a fresh map per system, the workload builds
/// them once into a [`BaseImage`] (strided runs whose values are listed or
/// stored as a first value and a step) behind an `Arc`, and every system
/// gets an empty image [`over`](Self::over) it: reads fall through own words →
/// base → [`uninit_value`](Self::uninit_value), writes go to the own words
/// only. The base has no writer, so any number of systems — on any number
/// of threads — share one copy, and construction is a reference-count bump.
///
/// The write layer stays word-granular on purpose: the generators scatter
/// private-region stores one word per line (or page), so a line- or
/// page-granular copy-on-write layer materializes 8–512× the bytes actually
/// written.
///
/// Equality compares the stored representation (own words, then base), not
/// the read-through view.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use reunion_isa::{Addr, BaseImage, DataMemory, SparseMemory};
///
/// let mut mem = SparseMemory::new();
/// mem.store(Addr::new(0x40), 7);
/// assert_eq!(mem.load(Addr::new(0x40)), 7);
///
/// let base = Arc::new(BaseImage::new([(Addr::new(0x80), 1)]));
/// let mut layer = SparseMemory::over(base.clone());
/// layer.poke(Addr::new(0x80), 2);
/// assert_eq!(layer.peek(Addr::new(0x80)), 2);
/// assert_eq!(base.get(Addr::new(0x80)), Some(1)); // the base never moves
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SparseMemory {
    // FastHashMap rather than SipHash: `peek`/`poke` run once per simulated
    // memory access, and this map is never iterated, so hashing is pure
    // point-lookup cost.
    words: FastHashMap<u64, u64>,
    /// The read-only image this one is layered over, if any.
    under: Option<Arc<BaseImage>>,
}

impl SparseMemory {
    /// Creates an empty image.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty write layer over the shared read-only `base`.
    pub fn over(base: Arc<BaseImage>) -> Self {
        SparseMemory {
            under: Some(base),
            ..Self::new()
        }
    }

    /// Reads without mutating (same value a `load` would return).
    pub fn peek(&self, addr: Addr) -> u64 {
        let w = addr.word().as_u64();
        match self.words.get(&w) {
            Some(&value) => value,
            None => self
                .under
                .as_ref()
                .and_then(|base| base.get(addr))
                .unwrap_or_else(|| Self::uninit_value(w)),
        }
    }

    /// Writes a word directly (test setup). A layered image writes its own
    /// words only; the base is untouched.
    pub fn poke(&mut self, addr: Addr, value: u64) {
        self.words.insert(addr.word().as_u64(), value);
    }

    /// Reads the eight words of cache line `line` (the line *index*,
    /// [`Addr::line_index`]) — the same values eight `peek`s would return.
    ///
    /// Base first, then own words: the base finds the run holding the
    /// line's first word once and walks it by its stride
    /// ([`BaseImage::read_line`]) rather than searching eight times.
    pub fn peek_line(&self, line: u64) -> [u64; WORDS_PER_LINE] {
        let first = line * LINE_BYTES;
        let mut out = std::array::from_fn(|i| Self::uninit_value(first + i as u64 * 8));
        if let Some(base) = &self.under {
            base.read_line(line, &mut out);
        }
        for (i, word) in out.iter_mut().enumerate() {
            if let Some(&value) = self.words.get(&(first + i as u64 * 8)) {
                *word = value;
            }
        }
        out
    }

    /// The deterministic value returned for never-written words.
    pub fn uninit_value(word_addr: u64) -> u64 {
        // splitmix-style mixer; see `SimRng::hash_value`.
        let mut z = word_addr.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl DataMemory for SparseMemory {
    fn load(&mut self, addr: Addr) -> u64 {
        self.peek(addr)
    }

    fn store(&mut self, addr: Addr, value: u64) {
        self.poke(addr, value);
    }
}

/// The architecturally visible effect of retiring one instruction.
///
/// [`execute`] returns it. The out-of-order core (`reunion-cpu`) carries it
/// from dispatch to retirement, which applies it, and maps it to the
/// `UpdateRecord` its fingerprint unit absorbs: "all register updates,
/// branch targets, store addresses, and store values" (§4.3), the payload
/// carried here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepEffect {
    /// A register write with its value.
    Reg {
        /// Destination register.
        dst: RegId,
        /// The written value.
        value: u64,
    },
    /// A load: register write plus the accessed address.
    Load {
        /// Destination register.
        dst: RegId,
        /// Word-aligned effective address.
        addr: Addr,
        /// The loaded value.
        value: u64,
    },
    /// A store of `value` to `addr`.
    Store {
        /// Word-aligned effective address.
        addr: Addr,
        /// The stored value.
        value: u64,
    },
    /// An atomic read-modify-write.
    Atomic {
        /// Destination register (receives the old value).
        dst: RegId,
        /// Word-aligned effective address.
        addr: Addr,
        /// Value read from memory.
        old: u64,
        /// Value written back.
        new: u64,
    },
    /// A control transfer with its resolved direction and target.
    Branch {
        /// Whether the branch was taken.
        taken: bool,
        /// The next PC.
        next_pc: usize,
    },
    /// A memory barrier retired.
    Membar,
    /// A trap retired.
    Trap,
    /// A non-idempotent MMU access at an MMU-space offset.
    MmuOp {
        /// MMU register offset.
        offset: u64,
    },
    /// No architecturally visible effect.
    Nop,
}

/// A single-stepping golden-model interpreter.
///
/// `FunctionalCore` fetches from a [`Program`] and steps [`execute`] against
/// a [`DataMemory`] of its own, with no timing model. The out-of-order core
/// shares [`execute`] with it, not this interpreter.
///
/// # Examples
///
/// ```
/// use reunion_isa::{FunctionalCore, Instruction, Program, RegId, SparseMemory};
///
/// let prog = Program::new(
///     "inc",
///     vec![Instruction::add_imm(RegId::new(1), RegId::new(1), 1), Instruction::halt()],
/// )?;
/// let mut mem = SparseMemory::new();
/// let mut core = FunctionalCore::new();
/// assert!(core.step(&prog, &mut mem).is_some());
/// assert!(core.step(&prog, &mut mem).is_none()); // halt
/// assert_eq!(core.state.regs.read(RegId::new(1)), 1);
/// # Ok::<(), reunion_isa::ProgramError>(())
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FunctionalCore {
    /// Architectural state (registers + PC).
    pub state: ArchState,
    /// Number of retired instructions.
    pub retired: u64,
    halted: bool,
}

impl FunctionalCore {
    /// Creates a core at PC 0 with zeroed registers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the core has executed a `halt`.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Executes one instruction; returns its effect, or `None` once halted
    /// or if the PC runs off the end of the image.
    pub fn step(&mut self, program: &Program, mem: &mut impl DataMemory) -> Option<StepEffect> {
        if self.halted {
            return None;
        }
        let pc = self.state.pc;
        let inst = *program.fetch(pc)?;
        if inst.op == Opcode::Halt {
            self.halted = true;
            return None;
        }
        let effect = execute(&inst, &mut self.state, pc, mem);
        self.retired += 1;
        Some(effect)
    }

    /// Runs until halt or `max_steps`, returning the number of instructions
    /// retired by this call.
    pub fn run(&mut self, program: &Program, mem: &mut impl DataMemory, max_steps: u64) -> u64 {
        let before = self.retired;
        for _ in 0..max_steps {
            if self.step(program, mem).is_none() {
                break;
            }
        }
        self.retired - before
    }
}

/// Executes `inst` at `pc`, updating `state` (registers and next PC) and
/// `mem`, and returns the architectural effect.
///
/// This is the one definition of instruction semantics. The out-of-order
/// core (`reunion-cpu`) calls it at dispatch, or on a synchronizing
/// request's fulfillment, with a `mem` that replays the value it bound for
/// a load or atomic and drops writes: retirement applies the effect's.
/// Debug builds call it again at every retirement, to check the retired
/// state. [`FunctionalCore`] calls it with real memory.
// Always inlined: the timing core calls it once per dispatched instruction,
// and inlined its match folds into the core's own match on the effect. As a
// call it made `Core::tick` ≈ 20 % slower on an x86-64 Xeon host.
#[inline(always)]
pub fn execute(
    inst: &Instruction,
    state: &mut ArchState,
    pc: usize,
    mem: &mut impl DataMemory,
) -> StepEffect {
    let mut next_pc = pc + 1;
    let effect = match inst.op {
        Opcode::Nop | Opcode::Halt => StepEffect::Nop,
        Opcode::LoadImm => {
            let dst = inst.dst.expect("load_imm has dst");
            let value = inst.imm as u64;
            state.regs.write(dst, value);
            StepEffect::Reg { dst, value }
        }
        Opcode::Alu(op) => {
            let dst = inst.dst.expect("alu has dst");
            let a = state.regs.read(inst.src1.expect("alu has src1"));
            let b = match inst.src2 {
                Some(reg) => state.regs.read(reg),
                None => inst.imm as u64,
            };
            let value = alu_compute(op, a, b);
            state.regs.write(dst, value);
            StepEffect::Reg { dst, value }
        }
        Opcode::Load => {
            let dst = inst.dst.expect("load has dst");
            let addr = effective_address(inst, state);
            let value = mem.load(addr);
            state.regs.write(dst, value);
            StepEffect::Load { dst, addr, value }
        }
        Opcode::Store => {
            let addr = effective_address(inst, state);
            let value = state.regs.read(inst.src2.expect("store has src2"));
            mem.store(addr, value);
            StepEffect::Store { addr, value }
        }
        Opcode::Atomic(op) => {
            let dst = inst.dst.expect("atomic has dst");
            let addr = effective_address(inst, state);
            let operand = state.regs.read(inst.src2.expect("atomic has src2"));
            let old = mem.load(addr);
            let new = atomic_update(op, old, operand);
            mem.store(addr, new);
            state.regs.write(dst, old);
            StepEffect::Atomic {
                dst,
                addr,
                old,
                new,
            }
        }
        Opcode::Branch(cond) => {
            let value = match inst.src1 {
                Some(reg) => state.regs.read(reg),
                None => 0,
            };
            let taken = branch_decides(cond, value);
            if taken {
                next_pc = inst.imm as usize;
            }
            StepEffect::Branch { taken, next_pc }
        }
        Opcode::Membar => StepEffect::Membar,
        Opcode::Trap => StepEffect::Trap,
        Opcode::MmuOp => StepEffect::MmuOp {
            offset: inst.imm as u64,
        },
    };
    state.pc = next_pc;
    effect
}

/// Word-aligned effective address of a memory instruction.
#[inline]
pub fn effective_address(inst: &Instruction, state: &ArchState) -> Addr {
    let base = state
        .regs
        .read(inst.src1.expect("memory op has base register"));
    Addr::new((base as i64).wrapping_add(inst.imm) as u64).word()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Instruction as I;

    fn r(i: u8) -> RegId {
        RegId::new(i)
    }

    #[test]
    fn alu_compute_matrix() {
        assert_eq!(alu_compute(AluOp::Add, 2, 3), 5);
        assert_eq!(alu_compute(AluOp::Add, u64::MAX, 1), 0);
        assert_eq!(alu_compute(AluOp::Sub, 2, 3), u64::MAX);
        assert_eq!(alu_compute(AluOp::Xor, 0b110, 0b011), 0b101);
        assert_eq!(alu_compute(AluOp::And, 0b110, 0b011), 0b010);
        assert_eq!(alu_compute(AluOp::Or, 0b100, 0b011), 0b111);
        assert_eq!(alu_compute(AluOp::Shl, 1, 65), 2); // shift mod 64
        assert_eq!(alu_compute(AluOp::Shr, 8, 2), 2);
        assert_eq!(alu_compute(AluOp::Mul, 3, 5), 15);
    }

    #[test]
    fn branch_condition_matrix() {
        assert!(branch_decides(BranchCond::Eqz, 0));
        assert!(!branch_decides(BranchCond::Eqz, 1));
        assert!(branch_decides(BranchCond::Nez, 5));
        assert!(branch_decides(BranchCond::Ltz, (-1i64) as u64));
        assert!(!branch_decides(BranchCond::Ltz, 1));
        assert!(branch_decides(BranchCond::Always, 0));
    }

    #[test]
    fn atomic_update_matrix() {
        assert_eq!(atomic_update(AtomicOp::Swap, 9, 1), 1);
        assert_eq!(atomic_update(AtomicOp::FetchAdd, 9, 2), 11);
    }

    #[test]
    fn sparse_memory_uninit_is_deterministic_and_nonzero_mostly() {
        let mut m = SparseMemory::new();
        let a = Addr::new(0x1000);
        assert_eq!(m.load(a), m.load(a));
        assert_eq!(m.load(a), SparseMemory::uninit_value(0x1000));
        m.store(a, 0);
        assert_eq!(m.load(a), 0);
    }

    #[test]
    fn load_store_round_trip_through_interpreter() {
        let prog = Program::new(
            "ls",
            vec![
                I::load_imm(r(1), 0x200),
                I::load_imm(r(2), 77),
                I::store(r(1), r(2), 0),
                I::load(r(3), r(1), 0),
                I::halt(),
            ],
        )
        .unwrap();
        let mut mem = SparseMemory::new();
        let mut core = FunctionalCore::new();
        core.run(&prog, &mut mem, 100);
        assert_eq!(core.state.regs.read(r(3)), 77);
        assert_eq!(core.retired, 4);
        assert!(core.is_halted());
    }

    #[test]
    fn spin_lock_with_swap_acquires_once() {
        // r1 = &lock; r2 = 1; spin: r3 = swap(lock, 1); bnez r3 -> spin; halt
        let prog = Program::new(
            "lock",
            vec![
                I::load_imm(r(1), 0x80),
                I::load_imm(r(2), 1),
                I::atomic(AtomicOp::Swap, r(3), r(1), r(2), 0),
                I::branch(BranchCond::Nez, r(3), 2),
                I::halt(),
            ],
        )
        .unwrap();
        let mut mem = SparseMemory::new();
        mem.poke(Addr::new(0x80), 0); // unlocked
        let mut core = FunctionalCore::new();
        core.run(&prog, &mut mem, 100);
        assert!(core.is_halted());
        assert_eq!(mem.peek(Addr::new(0x80)), 1); // now held
        assert_eq!(core.state.regs.read(r(3)), 0); // observed unlocked
    }

    #[test]
    fn spin_lock_busy_waits_when_held() {
        let prog = Program::new(
            "spin",
            vec![
                I::load_imm(r(1), 0x80),
                I::load_imm(r(2), 1),
                I::atomic(AtomicOp::Swap, r(3), r(1), r(2), 0),
                I::branch(BranchCond::Nez, r(3), 2),
                I::halt(),
            ],
        )
        .unwrap();
        let mut mem = SparseMemory::new();
        mem.poke(Addr::new(0x80), 1); // held by someone else
        let mut core = FunctionalCore::new();
        let steps = core.run(&prog, &mut mem, 50);
        assert!(!core.is_halted());
        assert_eq!(steps, 50); // still spinning
    }

    #[test]
    fn branch_effects_report_next_pc() {
        let prog = Program::new(
            "br",
            vec![
                I::load_imm(r(1), 0),
                I::branch(BranchCond::Eqz, r(1), 0),
                I::halt(),
            ],
        )
        .unwrap();
        let mut mem = SparseMemory::new();
        let mut core = FunctionalCore::new();
        core.step(&prog, &mut mem);
        let eff = core.step(&prog, &mut mem).unwrap();
        assert_eq!(
            eff,
            StepEffect::Branch {
                taken: true,
                next_pc: 0
            }
        );
        assert_eq!(core.state.pc, 0);
    }

    #[test]
    fn fetch_add_accumulates() {
        let prog = Program::new(
            "fa",
            vec![
                I::load_imm(r(1), 0x40),
                I::load_imm(r(2), 5),
                I::atomic(AtomicOp::FetchAdd, r(3), r(1), r(2), 0),
                I::atomic(AtomicOp::FetchAdd, r(4), r(1), r(2), 0),
                I::halt(),
            ],
        )
        .unwrap();
        let mut mem = SparseMemory::new();
        mem.poke(Addr::new(0x40), 100);
        let mut core = FunctionalCore::new();
        core.run(&prog, &mut mem, 10);
        assert_eq!(core.state.regs.read(r(3)), 100);
        assert_eq!(core.state.regs.read(r(4)), 105);
        assert_eq!(mem.peek(Addr::new(0x40)), 110);
    }

    #[test]
    fn effective_address_word_aligns_and_wraps() {
        let mut st = ArchState::new(0);
        st.regs.write(r(1), 0x107);
        let ld = I::load(r(2), r(1), 2);
        assert_eq!(effective_address(&ld, &st), Addr::new(0x108));
        st.regs.write(r(1), 4);
        let ld2 = I::load(r(2), r(1), -4);
        assert_eq!(effective_address(&ld2, &st), Addr::new(0));
    }

    #[test]
    fn mmu_and_barrier_effects() {
        let prog = Program::new(
            "sys",
            vec![I::membar(), I::trap(), I::mmu_op(0x18), I::halt()],
        )
        .unwrap();
        let mut mem = SparseMemory::new();
        let mut core = FunctionalCore::new();
        assert_eq!(core.step(&prog, &mut mem), Some(StepEffect::Membar));
        assert_eq!(core.step(&prog, &mut mem), Some(StepEffect::Trap));
        assert_eq!(
            core.step(&prog, &mut mem),
            Some(StepEffect::MmuOp { offset: 0x18 })
        );
        assert_eq!(core.step(&prog, &mut mem), None);
    }

    #[test]
    fn two_cores_same_program_same_memory_image_agree() {
        // The relaxed-input-replication core of the paper: absent races and
        // errors, redundant executions produce identical state.
        let prog = Program::new(
            "pair",
            vec![
                I::load_imm(r(1), 0x400),
                I::load(r(2), r(1), 0),
                I::alu_imm(AluOp::Mul, r(3), r(2), 3),
                I::store(r(1), r(3), 8),
                I::halt(),
            ],
        )
        .unwrap();
        let mut mem_a = SparseMemory::new();
        let mut mem_b = SparseMemory::new();
        let mut vocal = FunctionalCore::new();
        let mut mute = FunctionalCore::new();
        vocal.run(&prog, &mut mem_a, 100);
        mute.run(&prog, &mut mem_b, 100);
        assert_eq!(vocal.state, mute.state);
        assert_eq!(mem_a, mem_b);
    }
}
