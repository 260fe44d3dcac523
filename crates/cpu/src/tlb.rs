//! Translation lookaside buffers.
//!
//! The simulator maps addresses identically (virtual = physical); the TLB
//! models translation *timing*. The paper shows (§5.5, Figure 7b) that the
//! architecturally-specified software-managed TLB handler — two traps plus
//! three non-idempotent MMU accesses per miss — dominates the serializing
//! overhead of commercial workloads, so the handler instructions themselves
//! are modeled and flow through the pipeline, check stage and fingerprints.

use reunion_isa::Instruction;
use reunion_mem::CacheArray;

/// A set-associative TLB over 8 KB page numbers.
///
/// Defaults elsewhere follow Table 1: 512-entry 2-way DTLB, 128-entry 2-way
/// ITLB. Entries live in a [`CacheArray`], so a TLB owns storage only for
/// the sets a run has filled.
#[derive(Clone, Debug)]
pub(crate) struct Tlb {
    entries: CacheArray<()>,
}

impl Tlb {
    /// Creates a TLB with `entries` entries and `assoc` ways.
    pub fn new(entries: usize, assoc: usize) -> Self {
        Tlb {
            entries: CacheArray::new(entries, assoc),
        }
    }

    /// Looks up `page`, filling on miss. Returns `true` on a hit.
    pub fn access(&mut self, page: u64) -> bool {
        if self.entries.lookup(page).is_some() {
            true
        } else {
            self.entries.insert(page, ());
            false
        }
    }
}

/// The UltraSPARC III "fast TLB miss handler" instruction sequence:
/// a trap into the handler, three non-idempotent MMU accesses, and the
/// return trap. All five serialize retirement.
pub(crate) fn software_tlb_handler() -> Vec<Instruction> {
    vec![
        Instruction::trap(),
        Instruction::mmu_op(0x08),
        Instruction::mmu_op(0x10),
        Instruction::mmu_op(0x18),
        Instruction::trap(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_hit() {
        let mut tlb = Tlb::new(4, 2);
        assert!(!tlb.access(1));
        assert!(tlb.access(1));
    }

    #[test]
    fn capacity_misses_occur() {
        let mut tlb = Tlb::new(4, 2);
        for page in 0..8 {
            tlb.access(page);
        }
        // Re-touching early pages misses after eviction.
        assert!(!tlb.access(0));
    }

    #[test]
    fn handler_shape_matches_ultrasparc() {
        let h = software_tlb_handler();
        assert_eq!(h.len(), 5);
        assert!(h.iter().all(|i| i.op.is_serializing()));
        let traps = h
            .iter()
            .filter(|i| i.op == reunion_isa::Opcode::Trap)
            .count();
        let mmus = h
            .iter()
            .filter(|i| i.op == reunion_isa::Opcode::MmuOp)
            .count();
        assert_eq!(traps, 2);
        assert_eq!(mmus, 3);
    }
}
