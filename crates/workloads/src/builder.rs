//! A small assembler for building validated programs.

use reunion_isa::{BranchCond, Instruction, Program, ProgramError, RegId};

/// An incremental program builder with label/patch support for forward
/// branches.
#[derive(Clone, Debug)]
pub(crate) struct ProgramBuilder {
    name: String,
    code: Vec<Instruction>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub(crate) fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            name: name.into(),
            code: Vec::new(),
        }
    }

    /// The PC the next pushed instruction will occupy.
    pub(crate) fn here(&self) -> usize {
        self.code.len()
    }

    /// Appends one instruction.
    pub(crate) fn push(&mut self, inst: Instruction) -> &mut Self {
        self.code.push(inst);
        self
    }

    /// Appends a conditional branch to a known (usually backward) target.
    pub(crate) fn branch_to(&mut self, cond: BranchCond, reg: RegId, target: usize) -> &mut Self {
        self.code.push(Instruction::branch(cond, reg, target));
        self
    }

    /// Appends an unconditional jump to a known target.
    pub(crate) fn jump_to(&mut self, target: usize) -> &mut Self {
        self.code.push(Instruction::jump(target));
        self
    }

    /// Appends a conditional branch whose target is patched later; returns
    /// the branch's PC for [`patch_to_here`](Self::patch_to_here).
    pub(crate) fn branch_forward(&mut self, cond: BranchCond, reg: RegId) -> usize {
        let at = self.code.len();
        // Placeholder target 0 is always in range once the program builds.
        self.code.push(Instruction::branch(cond, reg, 0));
        at
    }

    /// Points a previously reserved forward branch at the current PC.
    ///
    /// # Panics
    ///
    /// Panics if `branch_pc` does not hold a branch.
    pub(crate) fn patch_to_here(&mut self, branch_pc: usize) {
        let target = self.code.len();
        let inst = &mut self.code[branch_pc];
        assert!(inst.op.is_branch(), "patching a non-branch at {branch_pc}");
        inst.imm = target as i64;
    }

    /// Validates and finalizes the program.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError`] if validation fails (e.g. a forward branch
    /// was never patched past the end — impossible via this API — or the
    /// program is empty).
    pub(crate) fn build(self) -> Result<Program, ProgramError> {
        Program::new(self.name, self.code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reunion_isa::{FunctionalCore, SparseMemory};

    #[test]
    fn forward_branch_patching() {
        let mut b = ProgramBuilder::new("fwd");
        b.push(Instruction::load_imm(RegId::new(1), 0));
        let skip = b.branch_forward(BranchCond::Eqz, RegId::new(1));
        b.push(Instruction::load_imm(RegId::new(2), 111)); // skipped
        b.patch_to_here(skip);
        b.push(Instruction::load_imm(RegId::new(3), 5));
        b.push(Instruction::halt());
        let prog = b.build().unwrap();

        let mut mem = SparseMemory::new();
        let mut core = FunctionalCore::new();
        core.run(&prog, &mut mem, 100);
        assert_eq!(core.state.regs.read(RegId::new(2)), 0, "skipped");
        assert_eq!(core.state.regs.read(RegId::new(3)), 5);
    }

    #[test]
    fn backward_jump_loops() {
        let mut b = ProgramBuilder::new("loop");
        let top = b.here();
        b.push(Instruction::add_imm(RegId::new(1), RegId::new(1), 1));
        b.jump_to(top);
        let prog = b.build().unwrap();
        let mut mem = SparseMemory::new();
        let mut core = FunctionalCore::new();
        core.run(&prog, &mut mem, 100);
        assert_eq!(core.retired, 100);
    }

    #[test]
    #[should_panic(expected = "non-branch")]
    fn patch_rejects_non_branch() {
        let mut b = ProgramBuilder::new("bad");
        b.push(Instruction::nop());
        b.patch_to_here(0);
    }

    #[test]
    fn empty_build_fails() {
        assert!(ProgramBuilder::new("e").build().is_err());
    }
}
