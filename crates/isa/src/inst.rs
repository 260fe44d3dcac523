//! Instruction definitions.

use std::fmt;

use crate::RegId;

/// Arithmetic/logic operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Bitwise exclusive or.
    Xor,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Logical left shift (modulo 64).
    Shl,
    /// Logical right shift (modulo 64).
    Shr,
    /// Wrapping multiplication (longer execution latency).
    Mul,
}

/// Branch conditions, evaluated on the first source register as a signed
/// 64-bit value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// Taken when the register equals zero.
    Eqz,
    /// Taken when the register differs from zero.
    Nez,
    /// Taken when the register is negative.
    Ltz,
    /// Unconditional jump.
    Always,
}

/// Atomic read-modify-write flavours.
///
/// These have both load and store semantics and are *serializing* in the
/// Reunion check stage (§4.4). `Swap` is the building block for spin locks —
/// the paper's canonical input-incoherence scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AtomicOp {
    /// `dst = M[addr]; M[addr] = src2`.
    Swap,
    /// `dst = M[addr]; M[addr] = dst + src2`.
    FetchAdd,
}

/// Operation kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// No operation.
    Nop,
    /// Stop the hart (used by tests and examples; generated workloads loop).
    Halt,
    /// Register/immediate ALU operation.
    Alu(AluOp),
    /// `dst = imm`.
    LoadImm,
    /// `dst = M[src1 + imm]` (8-byte load).
    Load,
    /// `M[src1 + imm] = src2` (8-byte store).
    Store,
    /// Conditional or unconditional control transfer to absolute PC `imm`.
    Branch(BranchCond),
    /// Atomic read-modify-write on `M[src1 + imm]`.
    Atomic(AtomicOp),
    /// Memory barrier: orders all earlier memory operations before all later
    /// ones (drains the store buffer under TSO). Serializing.
    Membar,
    /// System trap (syscall entry/exit, TLB handler entry/exit). Serializing.
    Trap,
    /// Non-idempotent MMU register access (software TLB handler body).
    /// Serializing and must execute exactly once.
    MmuOp,
}

impl Opcode {
    /// Whether the instruction has serializing semantics — it must be the
    /// only unretired instruction while it executes and checks (§4.4: traps,
    /// memory barriers, atomics, non-idempotent accesses).
    pub fn is_serializing(self) -> bool {
        matches!(
            self,
            Opcode::Membar | Opcode::Trap | Opcode::MmuOp | Opcode::Atomic(_)
        )
    }

    /// Whether the instruction reads data memory.
    pub fn is_load(self) -> bool {
        matches!(self, Opcode::Load | Opcode::Atomic(_))
    }

    /// Whether the instruction writes data memory.
    pub fn is_store(self) -> bool {
        matches!(self, Opcode::Store | Opcode::Atomic(_))
    }

    /// Whether the instruction accesses data memory at all.
    pub fn is_memory(self) -> bool {
        self.is_load() || self.is_store()
    }

    /// Whether the instruction is a control transfer.
    pub fn is_branch(self) -> bool {
        matches!(self, Opcode::Branch(_))
    }

    /// Default execution latency in cycles once issued to a functional unit.
    ///
    /// Memory latencies are *not* included here; they come from the cache
    /// hierarchy.
    pub fn exec_latency(self) -> u64 {
        match self {
            Opcode::Alu(AluOp::Mul) => 4,
            Opcode::Trap => 6,
            Opcode::MmuOp => 4,
            _ => 1,
        }
    }
}

/// A decoded instruction.
///
/// The second ALU operand is `src2` when present, otherwise the immediate —
/// the usual RISC reg/reg vs reg/imm split without separate opcodes.
///
/// # Examples
///
/// ```
/// use reunion_isa::{Instruction, Opcode, RegId};
///
/// let inst = Instruction::add_imm(RegId::new(1), RegId::new(2), 8);
/// assert!(!inst.op.is_serializing());
/// assert_eq!(inst.dst, Some(RegId::new(1)));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Instruction {
    /// Operation kind.
    pub op: Opcode,
    /// Destination register, if the instruction produces a register result.
    pub dst: Option<RegId>,
    /// First source register (address base for memory operations).
    pub src1: Option<RegId>,
    /// Second source register (store data / ALU operand / atomic operand).
    pub src2: Option<RegId>,
    /// Immediate: ALU operand, memory displacement, or absolute branch target.
    pub imm: i64,
}

impl Instruction {
    /// A no-op.
    pub fn nop() -> Self {
        Instruction {
            op: Opcode::Nop,
            dst: None,
            src1: None,
            src2: None,
            imm: 0,
        }
    }

    /// Stops execution (functional interpreter returns `None`).
    pub fn halt() -> Self {
        Instruction {
            op: Opcode::Halt,
            dst: None,
            src1: None,
            src2: None,
            imm: 0,
        }
    }

    /// `dst = imm`.
    pub fn load_imm(dst: RegId, imm: i64) -> Self {
        Instruction {
            op: Opcode::LoadImm,
            dst: Some(dst),
            src1: None,
            src2: None,
            imm,
        }
    }

    /// Register/register ALU operation: `dst = a <op> b`.
    pub fn alu(op: AluOp, dst: RegId, a: RegId, b: RegId) -> Self {
        Instruction {
            op: Opcode::Alu(op),
            dst: Some(dst),
            src1: Some(a),
            src2: Some(b),
            imm: 0,
        }
    }

    /// Register/immediate ALU operation: `dst = a <op> imm`.
    pub fn alu_imm(op: AluOp, dst: RegId, a: RegId, imm: i64) -> Self {
        Instruction {
            op: Opcode::Alu(op),
            dst: Some(dst),
            src1: Some(a),
            src2: None,
            imm,
        }
    }

    /// `dst = a + imm`, the most common generator idiom.
    pub fn add_imm(dst: RegId, a: RegId, imm: i64) -> Self {
        Self::alu_imm(AluOp::Add, dst, a, imm)
    }

    /// 8-byte load: `dst = M[base + disp]`.
    pub fn load(dst: RegId, base: RegId, disp: i64) -> Self {
        Instruction {
            op: Opcode::Load,
            dst: Some(dst),
            src1: Some(base),
            src2: None,
            imm: disp,
        }
    }

    /// 8-byte store: `M[base + disp] = value`.
    pub fn store(base: RegId, value: RegId, disp: i64) -> Self {
        Instruction {
            op: Opcode::Store,
            dst: None,
            src1: Some(base),
            src2: Some(value),
            imm: disp,
        }
    }

    /// Conditional branch on `cond(reg)` to absolute PC `target`.
    pub fn branch(cond: BranchCond, reg: RegId, target: usize) -> Self {
        Instruction {
            op: Opcode::Branch(cond),
            dst: None,
            src1: Some(reg),
            src2: None,
            imm: target as i64,
        }
    }

    /// Unconditional jump to absolute PC `target`.
    pub fn jump(target: usize) -> Self {
        Instruction {
            op: Opcode::Branch(BranchCond::Always),
            dst: None,
            src1: None,
            src2: None,
            imm: target as i64,
        }
    }

    /// Atomic read-modify-write: `dst = old M[base + disp]`, new value per
    /// [`AtomicOp`] with operand `operand`.
    pub fn atomic(op: AtomicOp, dst: RegId, base: RegId, operand: RegId, disp: i64) -> Self {
        Instruction {
            op: Opcode::Atomic(op),
            dst: Some(dst),
            src1: Some(base),
            src2: Some(operand),
            imm: disp,
        }
    }

    /// Memory barrier.
    pub fn membar() -> Self {
        Instruction {
            op: Opcode::Membar,
            dst: None,
            src1: None,
            src2: None,
            imm: 0,
        }
    }

    /// System trap.
    pub fn trap() -> Self {
        Instruction {
            op: Opcode::Trap,
            dst: None,
            src1: None,
            src2: None,
            imm: 0,
        }
    }

    /// Non-idempotent MMU access at MMU-space offset `reg_offset`.
    pub fn mmu_op(reg_offset: u64) -> Self {
        Instruction {
            op: Opcode::MmuOp,
            dst: None,
            src1: None,
            src2: None,
            imm: reg_offset as i64,
        }
    }

    /// Registers read by this instruction.
    pub fn sources(&self) -> impl Iterator<Item = RegId> + '_ {
        self.src1.into_iter().chain(self.src2)
    }

    /// The branch target for control-transfer instructions.
    pub(crate) fn branch_target(&self) -> Option<usize> {
        if self.op.is_branch() {
            Some(self.imm as usize)
        } else {
            None
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn r(reg: Option<RegId>) -> String {
            reg.map_or("-".to_string(), |x| x.to_string())
        }
        match self.op {
            Opcode::Nop => write!(f, "nop"),
            Opcode::Halt => write!(f, "halt"),
            Opcode::LoadImm => write!(f, "li {}, {}", r(self.dst), self.imm),
            Opcode::Alu(op) => {
                if let Some(b) = self.src2 {
                    write!(f, "{:?} {}, {}, {}", op, r(self.dst), r(self.src1), b)
                } else {
                    write!(
                        f,
                        "{:?}i {}, {}, {}",
                        op,
                        r(self.dst),
                        r(self.src1),
                        self.imm
                    )
                }
            }
            Opcode::Load => write!(f, "ld {}, [{} + {}]", r(self.dst), r(self.src1), self.imm),
            Opcode::Store => write!(f, "st [{} + {}], {}", r(self.src1), self.imm, r(self.src2)),
            Opcode::Branch(cond) => {
                write!(f, "b{:?} {}, -> {}", cond, r(self.src1), self.imm)
            }
            Opcode::Atomic(op) => write!(
                f,
                "amo{:?} {}, [{} + {}], {}",
                op,
                r(self.dst),
                r(self.src1),
                self.imm,
                r(self.src2)
            ),
            Opcode::Membar => write!(f, "membar"),
            Opcode::Trap => write!(f, "trap"),
            Opcode::MmuOp => write!(f, "mmu [{:#x}]", self.imm),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializing_set_matches_paper() {
        assert!(Opcode::Membar.is_serializing());
        assert!(Opcode::Trap.is_serializing());
        assert!(Opcode::MmuOp.is_serializing());
        assert!(Opcode::Atomic(AtomicOp::Swap).is_serializing());
        assert!(!Opcode::Load.is_serializing());
        assert!(!Opcode::Store.is_serializing());
        assert!(!Opcode::Alu(AluOp::Add).is_serializing());
    }

    #[test]
    fn memory_classification() {
        assert!(Opcode::Load.is_load());
        assert!(!Opcode::Load.is_store());
        assert!(Opcode::Store.is_store());
        assert!(!Opcode::Store.is_load());
        assert!(Opcode::Atomic(AtomicOp::FetchAdd).is_load());
        assert!(Opcode::Atomic(AtomicOp::FetchAdd).is_store());
        assert!(!Opcode::Membar.is_memory());
    }

    #[test]
    fn builders_fill_fields() {
        let ld = Instruction::load(RegId::new(1), RegId::new(2), 16);
        assert_eq!(ld.dst, Some(RegId::new(1)));
        assert_eq!(ld.src1, Some(RegId::new(2)));
        assert_eq!(ld.imm, 16);

        let st = Instruction::store(RegId::new(3), RegId::new(4), -8);
        assert_eq!(st.src2, Some(RegId::new(4)));
        assert_eq!(st.imm, -8);

        let j = Instruction::jump(17);
        assert_eq!(j.branch_target(), Some(17));
        assert_eq!(Instruction::nop().branch_target(), None);
    }

    #[test]
    fn sources_iterates_present_registers() {
        let st = Instruction::store(RegId::new(3), RegId::new(4), 0);
        let srcs: Vec<_> = st.sources().collect();
        assert_eq!(srcs, vec![RegId::new(3), RegId::new(4)]);
        assert_eq!(Instruction::trap().sources().count(), 0);
    }

    #[test]
    fn mul_has_longer_latency() {
        assert!(Opcode::Alu(AluOp::Mul).exec_latency() > Opcode::Alu(AluOp::Add).exec_latency());
    }

    #[test]
    fn display_formats_are_nonempty() {
        let insts = [
            Instruction::nop(),
            Instruction::halt(),
            Instruction::load_imm(RegId::new(1), 5),
            Instruction::alu(AluOp::Add, RegId::new(1), RegId::new(2), RegId::new(3)),
            Instruction::add_imm(RegId::new(1), RegId::new(2), 5),
            Instruction::load(RegId::new(1), RegId::new(2), 0),
            Instruction::store(RegId::new(1), RegId::new(2), 0),
            Instruction::branch(BranchCond::Eqz, RegId::new(1), 3),
            Instruction::atomic(
                AtomicOp::Swap,
                RegId::new(1),
                RegId::new(2),
                RegId::new(3),
                0,
            ),
            Instruction::membar(),
            Instruction::trap(),
            Instruction::mmu_op(0x10),
        ];
        for inst in insts {
            assert!(!inst.to_string().is_empty());
        }
    }
}
