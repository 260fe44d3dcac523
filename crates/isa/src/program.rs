//! Program images.

use std::fmt;
use std::sync::Arc;

use crate::{Instruction, Opcode};

/// An error found while validating a program image.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProgramError {
    /// The code image is empty.
    Empty,
    /// A branch at `pc` targets `target`, which is outside the image.
    BranchOutOfRange {
        /// PC of the offending branch.
        pc: usize,
        /// The out-of-range target.
        target: usize,
    },
    /// The entry point is outside the image.
    EntryOutOfRange {
        /// The offending entry point.
        entry: usize,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::Empty => write!(f, "program has no instructions"),
            ProgramError::BranchOutOfRange { pc, target } => {
                write!(f, "branch at pc {pc} targets out-of-range pc {target}")
            }
            ProgramError::EntryOutOfRange { entry } => {
                write!(f, "entry point {entry} is out of range")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// An immutable code image: instructions addressed by PC index.
///
/// Both cores of a logical processor pair fetch from the *same* program
/// image; divergence can only come from data values (input incoherence) or
/// injected soft errors, exactly as in the paper's model.
///
/// The instruction storage is `Arc`-backed, so `Clone` is a reference-count
/// bump rather than a copy of the image: every core of every system built
/// from the same workload shares one allocation.
///
/// # Examples
///
/// ```
/// use reunion_isa::{Instruction, Program, RegId};
///
/// let prog = Program::new(
///     "loop",
///     vec![
///         Instruction::add_imm(RegId::new(1), RegId::new(1), 1),
///         Instruction::jump(0),
///     ],
/// )?;
/// assert_eq!(prog.len(), 2);
/// # Ok::<(), reunion_isa::ProgramError>(())
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Program {
    name: Arc<str>,
    code: Arc<[Instruction]>,
    entry: usize,
}

/// Terse on purpose: an image is immutable and runs to thousands of
/// instructions, and every `Core` that holds one derives `Debug` through
/// it. [`iter`](Program::iter) lists the code when that is what is wanted.
impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Program")
            .field("name", &self.name)
            .field("instructions", &self.code.len())
            .field("entry", &self.entry)
            .finish()
    }
}

impl Program {
    /// Creates and validates a program starting at PC 0.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError`] if the image is empty or any branch targets
    /// a PC outside the image.
    pub fn new(name: impl Into<String>, code: Vec<Instruction>) -> Result<Self, ProgramError> {
        Self::with_entry(name, code, 0)
    }

    /// Creates and validates a program with an explicit entry point.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError`] on an empty image, an out-of-range entry, or
    /// an out-of-range branch target.
    pub fn with_entry(
        name: impl Into<String>,
        code: Vec<Instruction>,
        entry: usize,
    ) -> Result<Self, ProgramError> {
        if code.is_empty() {
            return Err(ProgramError::Empty);
        }
        if entry >= code.len() {
            return Err(ProgramError::EntryOutOfRange { entry });
        }
        for (pc, inst) in code.iter().enumerate() {
            if let Some(target) = inst.branch_target() {
                if target >= code.len() {
                    return Err(ProgramError::BranchOutOfRange { pc, target });
                }
            }
        }
        Ok(Program {
            name: name.into().into(),
            code: code.into(),
            entry,
        })
    }

    /// The program's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the image is empty (never true for a validated program).
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// The entry PC.
    pub fn entry(&self) -> usize {
        self.entry
    }

    /// The instruction at `pc`, or `None` past the end of the image.
    #[inline]
    pub fn fetch(&self, pc: usize) -> Option<&Instruction> {
        self.code.get(pc)
    }

    /// Iterates over `(pc, instruction)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Instruction)> {
        self.code.iter().enumerate()
    }

    /// Counts static instructions matching `pred` (used by workload tests to
    /// verify serialization rates).
    pub fn count_matching(&self, pred: impl Fn(&Opcode) -> bool) -> usize {
        self.code.iter().filter(|i| pred(&i.op)).count()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "; program {} ({} instructions)",
            self.name,
            self.code.len()
        )?;
        for (pc, inst) in self.code.iter().enumerate() {
            writeln!(f, "{pc:6}: {inst}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BranchCond, RegId};

    #[test]
    fn rejects_empty_program() {
        assert_eq!(Program::new("e", vec![]), Err(ProgramError::Empty));
    }

    #[test]
    fn rejects_out_of_range_branch() {
        let err = Program::new("b", vec![Instruction::jump(5)]).unwrap_err();
        assert_eq!(err, ProgramError::BranchOutOfRange { pc: 0, target: 5 });
    }

    #[test]
    fn rejects_out_of_range_entry() {
        let err = Program::with_entry("e", vec![Instruction::nop()], 3).unwrap_err();
        assert_eq!(err, ProgramError::EntryOutOfRange { entry: 3 });
    }

    #[test]
    fn fetch_in_and_out_of_range() {
        let prog = Program::new("f", vec![Instruction::nop(), Instruction::halt()]).unwrap();
        assert!(prog.fetch(1).is_some());
        assert!(prog.fetch(2).is_none());
    }

    #[test]
    fn count_matching_finds_serializing() {
        let prog = Program::new(
            "c",
            vec![
                Instruction::membar(),
                Instruction::trap(),
                Instruction::nop(),
                Instruction::branch(BranchCond::Eqz, RegId::new(1), 0),
            ],
        )
        .unwrap();
        assert_eq!(prog.count_matching(|op| op.is_serializing()), 2);
    }

    #[test]
    fn display_lists_instructions() {
        let prog = Program::new("d", vec![Instruction::nop()]).unwrap();
        let text = prog.to_string();
        assert!(text.contains("program d"));
        assert!(text.contains("nop"));
    }

    #[test]
    fn error_display_nonempty() {
        assert!(!ProgramError::Empty.to_string().is_empty());
        assert!(!ProgramError::BranchOutOfRange { pc: 1, target: 9 }
            .to_string()
            .is_empty());
    }
}
