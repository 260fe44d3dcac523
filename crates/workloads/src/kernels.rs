//! Real-code kernel workloads, loaded from the `asm/` images.
//!
//! Where [`suite`](crate::suite()) ships seeded *generators* tuned to
//! reproduce Table 2's behaviours, the kernel suite ships actual programs —
//! hand-written assembly compiled into the binary with `include_str!` and
//! parsed by [`reunion_isa::asm`]. Three are single-threaded algorithmic
//! kernels (quicksort, matmul, crc32); two are multi-threaded with genuine
//! shared-memory races (spin_histogram, flag_ring), so a redundant pair
//! running them exercises the paper's input-incoherence machinery on code
//! nobody synthesized.
//!
//! A kernel's [`WorkloadSpec`] still exists — it carries the name, class
//! and the ITLB surrogate rate, and must pass the same validation as any
//! spec — but its generator parameters are inert: the program text is the
//! sole source of instructions and initial memory.

use crate::{SharingModel, Workload, WorkloadClass, WorkloadSpec};

/// The compiled-in kernel sources, `(name, text)`, in suite order.
pub const KERNEL_SOURCES: [(&str, &str); 5] = [
    ("quicksort", include_str!("../../../asm/quicksort.asm")),
    ("matmul", include_str!("../../../asm/matmul.asm")),
    ("crc32", include_str!("../../../asm/crc32.asm")),
    (
        "spin_histogram",
        include_str!("../../../asm/spin_histogram.asm"),
    ),
    ("flag_ring", include_str!("../../../asm/flag_ring.asm")),
];

/// A spec whose generator knobs are inert: the kernel text supplies the
/// program, so only `name`, `class`, `itlb_miss_per_million` and the
/// validation-relevant structural fields matter.
fn kernel_spec(
    name: &'static str,
    class: WorkloadClass,
    itlb_miss_per_million: u64,
    seed: u64,
) -> WorkloadSpec {
    WorkloadSpec {
        name,
        class,
        private_bytes: 64 << 10,
        shared_bytes: 8 << 10,
        locks: 1,
        critical_section_len: 8,
        lock_weight: 0.0,
        shared_read_weight: 0.0,
        private_weight: 1.0,
        compute_weight: 1.0,
        trap_weight: 0.0,
        membar_weight: 0.0,
        chase_weight: 0.0,
        store_fraction: 0.0,
        private_stride: 8,
        private_step: 8,
        jump_fraction: 0.0,
        shared_stride: 8,
        sharing: SharingModel::derived(0.0, 0.0),
        itlb_miss_per_million,
        segments: 8,
        seed,
    }
}

/// The five-kernel suite: three single-threaded algorithmic kernels and
/// two racy multi-threaded protocols.
///
/// # Examples
///
/// ```
/// use reunion_workloads::kernel_suite;
///
/// let kernels = kernel_suite();
/// assert_eq!(kernels.len(), 5);
/// let racy: Vec<_> = kernels
///     .iter()
///     .filter(|w| w.kernel_image().unwrap().threads() > 1)
///     .map(|w| w.name())
///     .collect();
/// assert_eq!(racy, ["spin_histogram", "flag_ring"]);
/// ```
pub fn kernel_suite() -> Vec<Workload> {
    let class_of = |name: &str| match name {
        // The racy protocol kernels behave like lock-bound commercial
        // code; the algorithmic kernels like scientific loops.
        "spin_histogram" | "flag_ring" => WorkloadClass::Oltp,
        _ => WorkloadClass::Scientific,
    };
    KERNEL_SOURCES
        .iter()
        .enumerate()
        .map(|(i, &(name, text))| {
            Workload::kernel(
                kernel_spec(name, class_of(name), 50, 0x4B00 + i as u64),
                text,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use reunion_isa::{Addr, FunctionalCore, SparseMemory};

    #[test]
    fn kernel_names_match_their_images() {
        for w in kernel_suite() {
            let image = w.kernel_image().expect("kernel workload");
            assert_eq!(w.name(), image.name(), "spec/image name mismatch");
        }
    }

    #[test]
    fn two_kernels_are_multithreaded() {
        let threads: Vec<usize> = kernel_suite()
            .iter()
            .map(|w| w.kernel_image().unwrap().threads())
            .collect();
        assert_eq!(threads, [1, 1, 1, 2, 2]);
    }

    #[test]
    fn every_kernel_thread_runs_forever() {
        for w in kernel_suite() {
            let threads = w.kernel_image().unwrap().threads();
            for t in 0..threads {
                let prog = w.program(t);
                let mut mem = SparseMemory::over(w.initial_memory());
                let mut core = FunctionalCore::new();
                let steps = core.run(&prog, &mut mem, 20_000);
                assert_eq!(steps, 20_000, "{} thread {t} must loop forever", w.name());
            }
        }
    }

    #[test]
    fn parked_thread_halts_immediately() {
        let qs = Workload::by_name("quicksort").expect("kernel by_name");
        let parked = qs.program(3);
        assert_eq!(parked.name(), "quicksort.parked");
        let mut mem = SparseMemory::new();
        let mut core = FunctionalCore::new();
        assert!(core.run(&parked, &mut mem, 100) < 100, "must halt");
    }

    #[test]
    fn quicksort_self_check_passes() {
        let qs = Workload::by_name("quicksort").unwrap();
        let prog = qs.program(0);
        let mut mem = SparseMemory::over(qs.initial_memory());
        let mut core = FunctionalCore::new();
        core.run(&prog, &mut mem, 400_000);
        let passes = mem.peek(Addr::new(0x4000_2000));
        let failures = mem.peek(Addr::new(0x4000_2008));
        assert!(passes > 10, "expected many verified sorts, got {passes}");
        assert_eq!(failures, 0, "sortedness check failed {failures} times");
    }

    #[test]
    fn kernel_cache_matches_fresh_parse() {
        for (cached, &(name, text)) in kernel_suite().iter().zip(KERNEL_SOURCES.iter()) {
            let fresh = Workload::kernel_uncached(cached.spec().clone(), text);
            for thread in 0..3 {
                assert_eq!(cached.program(thread), fresh.program(thread), "{name}");
            }
            assert!(
                *cached.initial_memory() == *fresh.initial_memory(),
                "{name}"
            );
            assert_eq!(fresh.cache_population(), Default::default());
        }
    }
}
