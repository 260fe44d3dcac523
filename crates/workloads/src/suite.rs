//! The eleven named workloads of the evaluation (Table 2).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use reunion_isa::asm::{self, KernelImage};
use reunion_isa::{BaseImage, Instruction, Program};

use crate::{gen, kernels, SharingModel, WorkloadClass, WorkloadSpec};

/// Lazily generated workload artifacts, shared by every clone of one
/// [`Workload`] — and hence by every grid cell and every `CmpSystem` built
/// from it. Generation is deterministic (seeded by the spec), so caching
/// cannot change a single byte of any artifact; it only stops the grid
/// from regenerating multi-megabyte memory images and program vectors once
/// per cell per system.
///
/// Every slot is immutable once filled: the cache hands out `Arc` handles
/// and nothing downstream can write through one. In particular the
/// [`memory`](Self::memory) image is only ever read *under* a per-system
/// write layer, so systems running concurrently on runner threads share it
/// without synchronization.
#[derive(Debug, Default)]
struct ArtifactCache {
    /// Per-thread program images. `Program` is `Arc`-backed, so the stored
    /// clone and every handout share one instruction allocation.
    programs: Mutex<HashMap<usize, Program>>,
    /// The initial memory image (pointer rings etc.), frozen as the
    /// read-only base every system layers its stores over — half a million
    /// words for em3d, built at most once per workload from the
    /// generator's regions (see [`BaseImage`]).
    memory: OnceLock<Arc<BaseImage>>,
    /// The parsed kernel image for an assembly-sourced workload — parsed at
    /// most once per workload; `None` source never touches it.
    image: OnceLock<Arc<KernelImage>>,
}

/// Where a workload's program and memory images come from.
#[derive(Clone, Copy, Debug)]
enum ProgramSource {
    /// The synthetic generator, parameterized by the spec.
    Generated,
    /// A compiled-in assembly kernel (`asm/*.asm`), parsed on first use.
    /// The spec still carries the name/class/ITLB parameters; the program
    /// and initial-memory images come from the text.
    Kernel(&'static str),
}

/// Which [`Workload`] artifacts have been generated and cached so far
/// ([`Workload::cache_population`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CachePopulation {
    /// Per-thread programs generated.
    pub programs: usize,
    /// Whether the initial memory image has been built.
    pub memory: bool,
}

/// A named workload: its parameterization plus program/memory generation.
///
/// # Examples
///
/// ```
/// use reunion_workloads::Workload;
///
/// let em3d = Workload::by_name("em3d").expect("in suite");
/// assert!(!em3d.initial_memory().is_empty(), "em3d has a pointer ring");
/// ```
#[derive(Clone, Debug)]
pub struct Workload {
    spec: WorkloadSpec,
    source: ProgramSource,
    /// `None` for a cache-disabled workload ([`Workload::uncached`]) —
    /// every call regenerates from the spec, the reference behaviour the
    /// byte-identity property test compares the cache against.
    cache: Option<Arc<ArtifactCache>>,
}

impl Workload {
    /// Wraps a custom spec (the named suite uses [`suite`]).
    pub fn from_spec(spec: WorkloadSpec) -> Self {
        spec.assert_valid();
        Workload {
            spec,
            source: ProgramSource::Generated,
            cache: Some(Arc::new(ArtifactCache::default())),
        }
    }

    /// Wraps a custom spec with the artifact cache disabled: every
    /// [`program`](Self::program) and [`initial_memory`](Self::initial_memory)
    /// call regenerates from scratch. Exists so tests can verify the cache
    /// is purely an optimization (identical artifacts, identical reports).
    pub fn uncached(spec: WorkloadSpec) -> Self {
        spec.assert_valid();
        Workload {
            spec,
            source: ProgramSource::Generated,
            cache: None,
        }
    }

    /// Wraps an assembly kernel: programs and initial memory come from
    /// `source` (an `asm/*.asm` text, typically `include_str!`-ed), while
    /// the spec carries the name, class and ITLB parameters. The text is
    /// parsed lazily, at most once per workload (the same artifact cache
    /// that shares generated programs across a grid's cells).
    ///
    /// Threads beyond what the image defines get a parked single-`halt`
    /// program, so a single-threaded kernel still runs on a many-LP system.
    pub fn kernel(spec: WorkloadSpec, source: &'static str) -> Self {
        spec.assert_valid();
        Workload {
            spec,
            source: ProgramSource::Kernel(source),
            cache: Some(Arc::new(ArtifactCache::default())),
        }
    }

    /// Looks up a workload by (case-insensitive) name, first in the
    /// standard suite, then in the kernel suite.
    pub fn by_name(name: &str) -> Option<Workload> {
        suite()
            .into_iter()
            .chain(kernels::kernel_suite())
            .find(|w| w.name().eq_ignore_ascii_case(name))
    }

    /// The workload's name (Table 2 row).
    pub fn name(&self) -> &'static str {
        self.spec.name
    }

    /// The workload's class.
    pub fn class(&self) -> WorkloadClass {
        self.spec.class
    }

    /// The full parameterization.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// The kernel image behind an assembly-sourced workload, parsed (at
    /// most once when cached) from the compiled-in text. `None` for a
    /// generator-backed workload.
    ///
    /// # Panics
    ///
    /// Panics if the compiled-in text does not parse — a build defect, not
    /// a runtime condition.
    pub fn kernel_image(&self) -> Option<Arc<KernelImage>> {
        let ProgramSource::Kernel(text) = self.source else {
            return None;
        };
        let parse = || {
            Arc::new(
                asm::parse_image(text)
                    .unwrap_or_else(|e| panic!("{}: bad compiled-in kernel: {e}", self.name())),
            )
        };
        Some(match &self.cache {
            Some(cache) => cache.image.get_or_init(parse).clone(),
            None => parse(),
        })
    }

    /// Builds the artifact for one thread, whatever the source.
    fn make_program(&self, thread: usize) -> Program {
        match self.source {
            ProgramSource::Generated => gen::generate_program(&self.spec, thread),
            ProgramSource::Kernel(_) => {
                let image = self.kernel_image().expect("kernel source");
                match image.program(thread) {
                    Some(p) => p.clone(),
                    // LPs the image does not define park on an immediate
                    // halt; the skip engine treats them as quiescent.
                    None => Program::new(
                        format!("{}.parked", image.name()),
                        vec![Instruction::halt()],
                    )
                    .expect("parked program is valid"),
                }
            }
        }
    }

    /// The program image for logical processor `thread` — generated once
    /// per thread and served as a shared handle afterwards (`Program` clones
    /// are reference-count bumps).
    pub fn program(&self, thread: usize) -> Program {
        match &self.cache {
            Some(cache) => {
                let mut programs = cache.programs.lock().expect("program cache poisoned");
                programs
                    .entry(thread)
                    .or_insert_with(|| self.make_program(thread))
                    .clone()
            }
            None => self.make_program(thread),
        }
    }

    /// Initial memory contents (pointer rings, `.data` images) as a
    /// read-only [`BaseImage`] — built once per workload from the
    /// generator's regions or the kernel's `.data` words, and shared. A
    /// system layers its own stores over it with
    /// [`SparseMemory::over`](reunion_isa::SparseMemory::over). An
    /// [`uncached`](Self::uncached) workload builds a private one per call
    /// through the same code.
    pub fn initial_memory(&self) -> Arc<BaseImage> {
        let make = || {
            Arc::new(match self.source {
                ProgramSource::Generated => {
                    BaseImage::from_progressions(gen::initial_memory(&self.spec))
                }
                ProgramSource::Kernel(_) => BaseImage::new(
                    self.kernel_image()
                        .expect("kernel source")
                        .memory()
                        .iter()
                        .copied(),
                ),
            })
        };
        match &self.cache {
            Some(cache) => cache.memory.get_or_init(make).clone(),
            None => make(),
        }
    }

    /// The artifact cache's population, for the deterministic counters
    /// gate. All zero/false for an [`uncached`](Self::uncached) workload.
    pub fn cache_population(&self) -> CachePopulation {
        match &self.cache {
            Some(cache) => CachePopulation {
                programs: cache.programs.lock().expect("program cache poisoned").len(),
                memory: cache.memory.get().is_some(),
            },
            None => CachePopulation::default(),
        }
    }
}

/// The standard eleven-workload suite.
///
/// Parameters follow Table 2's classes: web serving is trap-heavy with
/// moderate sharing; OLTP is lock- and membar-intensive with the largest
/// TLB pressure; DSS scans large shared tables with few serializing events
/// (Q1 scan-dominated, Q2 join-dominated, Q17 balanced); the scientific
/// kernels have high MLP and minimal serialization, with em3d's pointer
/// chase exceeding the 16 MB shared L2.
pub fn suite() -> Vec<Workload> {
    let specs = vec![
        WorkloadSpec {
            name: "apache",
            class: WorkloadClass::Web,
            private_bytes: 8 << 20,
            shared_bytes: 2 << 20,
            locks: 64,
            critical_section_len: 10,
            lock_weight: 0.60,
            shared_read_weight: 0.6,
            private_weight: 3.0,
            compute_weight: 4.0,
            trap_weight: 0.50,
            membar_weight: 0.40,
            chase_weight: 0.0,
            store_fraction: 0.30,
            private_stride: 8 * 40503,
            private_step: 24,
            jump_fraction: 0.02,
            shared_stride: 8 * 65,
            sharing: SharingModel {
                hot_lines: 16,
                writers: 2,
                hot_weight: 0.4,
                hot_write_fraction: 0.2,
                migratory_weight: 0.05,
                producer_consumer_weight: 0.04,
                lock_contention: 0.05,
                contended_locks: 16,
                burst_len: 2,
                write_period: 64,
                contention_period: 64,
            },
            itlb_miss_per_million: 1400,
            segments: 96,
            seed: 0xA9AC4E,
        },
        WorkloadSpec {
            name: "zeus",
            class: WorkloadClass::Web,
            private_bytes: 8 << 20,
            shared_bytes: 2 << 20,
            locks: 64,
            critical_section_len: 8,
            lock_weight: 0.50,
            shared_read_weight: 0.6,
            private_weight: 3.0,
            compute_weight: 4.5,
            trap_weight: 0.45,
            membar_weight: 0.35,
            chase_weight: 0.0,
            store_fraction: 0.25,
            private_stride: 8 * 40503,
            private_step: 24,
            jump_fraction: 0.015,
            shared_stride: 8 * 65,
            sharing: SharingModel {
                hot_lines: 16,
                writers: 2,
                hot_weight: 0.35,
                hot_write_fraction: 0.2,
                migratory_weight: 0.05,
                producer_consumer_weight: 0.04,
                lock_contention: 0.05,
                contended_locks: 16,
                burst_len: 2,
                write_period: 128,
                contention_period: 64,
            },
            itlb_miss_per_million: 1200,
            segments: 96,
            seed: 0x5EC5,
        },
        WorkloadSpec {
            name: "db2_oltp",
            class: WorkloadClass::Oltp,
            private_bytes: 16 << 20,
            shared_bytes: 4 << 20,
            locks: 128,
            critical_section_len: 14,
            lock_weight: 1.00,
            shared_read_weight: 0.6,
            private_weight: 3.0,
            compute_weight: 3.5,
            trap_weight: 0.50,
            membar_weight: 0.60,
            chase_weight: 0.0,
            store_fraction: 0.35,
            private_stride: 8 * 40503,
            private_step: 24,
            jump_fraction: 0.03,
            shared_stride: 8 * 65,
            sharing: SharingModel {
                hot_lines: 16,
                writers: 4,
                hot_weight: 0.5,
                hot_write_fraction: 0.25,
                migratory_weight: 0.08,
                producer_consumer_weight: 0.04,
                lock_contention: 0.06,
                contended_locks: 16,
                burst_len: 2,
                write_period: 64,
                contention_period: 32,
            },
            itlb_miss_per_million: 1800,
            segments: 96,
            seed: 0xDB2,
        },
        WorkloadSpec {
            name: "oracle_oltp",
            class: WorkloadClass::Oltp,
            private_bytes: 16 << 20,
            shared_bytes: 4 << 20,
            locks: 128,
            critical_section_len: 12,
            lock_weight: 0.90,
            shared_read_weight: 0.6,
            private_weight: 3.0,
            compute_weight: 3.5,
            trap_weight: 0.50,
            membar_weight: 0.70,
            chase_weight: 0.0,
            store_fraction: 0.35,
            private_stride: 8 * 40503,
            private_step: 24,
            jump_fraction: 0.035,
            shared_stride: 8 * 65,
            sharing: SharingModel {
                hot_lines: 16,
                writers: 4,
                hot_weight: 0.45,
                hot_write_fraction: 0.25,
                migratory_weight: 0.08,
                producer_consumer_weight: 0.04,
                lock_contention: 0.06,
                contended_locks: 16,
                burst_len: 2,
                write_period: 32,
                contention_period: 32,
            },
            itlb_miss_per_million: 2500,
            segments: 96,
            seed: 0x04AC1E,
        },
        WorkloadSpec {
            name: "db2_dss_q1",
            class: WorkloadClass::Dss,
            private_bytes: 4 << 20,
            shared_bytes: 32 << 20,
            locks: 16,
            critical_section_len: 8,
            lock_weight: 0.05,
            shared_read_weight: 4.0,
            private_weight: 1.0,
            compute_weight: 3.0,
            trap_weight: 0.030,
            membar_weight: 0.05,
            chase_weight: 0.0,
            store_fraction: 0.08,
            private_stride: 8 * 40503,
            private_step: 8,
            jump_fraction: 0.002,
            shared_stride: 8,
            sharing: SharingModel {
                hot_lines: 32,
                writers: 1,
                hot_weight: 0.6,
                hot_write_fraction: 0.1,
                migratory_weight: 0.02,
                producer_consumer_weight: 0.02,
                lock_contention: 0.02,
                contended_locks: 16,
                burst_len: 1,
                write_period: 256,
                contention_period: 256,
            },
            itlb_miss_per_million: 150,
            segments: 96,
            seed: 0xD551,
        },
        WorkloadSpec {
            name: "db2_dss_q2",
            class: WorkloadClass::Dss,
            private_bytes: 8 << 20,
            shared_bytes: 16 << 20,
            locks: 32,
            critical_section_len: 8,
            lock_weight: 0.10,
            shared_read_weight: 2.5,
            private_weight: 2.0,
            compute_weight: 3.5,
            trap_weight: 0.060,
            membar_weight: 0.08,
            chase_weight: 0.0,
            store_fraction: 0.12,
            private_stride: 8 * 40503,
            private_step: 24,
            jump_fraction: 0.012,
            shared_stride: 8 * 129,
            sharing: SharingModel {
                hot_lines: 32,
                writers: 1,
                hot_weight: 0.5,
                hot_write_fraction: 0.1,
                migratory_weight: 0.02,
                producer_consumer_weight: 0.02,
                lock_contention: 0.02,
                contended_locks: 16,
                burst_len: 1,
                write_period: 64,
                contention_period: 256,
            },
            itlb_miss_per_million: 800,
            segments: 96,
            seed: 0xD552,
        },
        WorkloadSpec {
            name: "db2_dss_q17",
            class: WorkloadClass::Dss,
            private_bytes: 8 << 20,
            shared_bytes: 16 << 20,
            locks: 32,
            critical_section_len: 8,
            lock_weight: 0.08,
            shared_read_weight: 3.0,
            private_weight: 1.5,
            compute_weight: 3.2,
            trap_weight: 0.060,
            membar_weight: 0.08,
            chase_weight: 0.0,
            store_fraction: 0.10,
            private_stride: 8 * 40503,
            private_step: 16,
            jump_fraction: 0.012,
            shared_stride: 8 * 65,
            sharing: SharingModel {
                hot_lines: 32,
                writers: 1,
                hot_weight: 0.55,
                hot_write_fraction: 0.1,
                migratory_weight: 0.02,
                producer_consumer_weight: 0.02,
                lock_contention: 0.02,
                contended_locks: 16,
                burst_len: 1,
                write_period: 256,
                contention_period: 256,
            },
            itlb_miss_per_million: 850,
            segments: 96,
            seed: 0xD517,
        },
        WorkloadSpec {
            name: "em3d",
            class: WorkloadClass::Scientific,
            private_bytes: 4 << 20,
            shared_bytes: 32 << 20, // exceeds the 16 MB shared L2
            locks: 16,
            critical_section_len: 6,
            lock_weight: 0.02,
            shared_read_weight: 0.5,
            private_weight: 1.0,
            compute_weight: 2.0,
            trap_weight: 0.002,
            membar_weight: 0.010,
            chase_weight: 3.0,
            store_fraction: 0.15,
            private_stride: 8 * 40503,
            private_step: 24,
            jump_fraction: 0.004,
            shared_stride: 8 * 9,
            sharing: SharingModel {
                hot_lines: 16,
                writers: 2,
                hot_weight: 0.15,
                hot_write_fraction: 0.0,
                migratory_weight: 0.0,
                producer_consumer_weight: 0.02,
                lock_contention: 0.0,
                contended_locks: 16,
                burst_len: 1,
                write_period: 4096,
                contention_period: 512,
            },
            itlb_miss_per_million: 60,
            segments: 96,
            seed: 0xE3D,
        },
        WorkloadSpec {
            name: "moldyn",
            class: WorkloadClass::Scientific,
            private_bytes: 8 << 20,
            shared_bytes: 4 << 20,
            locks: 64,
            critical_section_len: 10,
            lock_weight: 0.08,
            shared_read_weight: 0.8,
            private_weight: 3.0,
            compute_weight: 4.0,
            trap_weight: 0.003,
            membar_weight: 0.12,
            chase_weight: 0.0,
            store_fraction: 0.30,
            private_stride: 8 * 5003,
            private_step: 16,
            jump_fraction: 0.003, // neighbor-list locality
            shared_stride: 8 * 9,
            sharing: SharingModel {
                hot_lines: 16,
                writers: 2,
                hot_weight: 0.5,
                hot_write_fraction: 0.0,
                migratory_weight: 0.0,
                producer_consumer_weight: 0.10,
                lock_contention: 0.04,
                contended_locks: 16,
                burst_len: 1,
                write_period: 128,
                contention_period: 256,
            },
            itlb_miss_per_million: 60,
            segments: 96,
            seed: 0x301D,
        },
        WorkloadSpec {
            name: "ocean",
            class: WorkloadClass::Scientific,
            private_bytes: 16 << 20,
            shared_bytes: 4 << 20,
            locks: 32,
            critical_section_len: 8,
            lock_weight: 0.04,
            shared_read_weight: 0.8,
            private_weight: 3.5,
            compute_weight: 3.0,
            trap_weight: 0.003,
            membar_weight: 0.12,
            chase_weight: 0.0,
            store_fraction: 0.35,
            private_stride: 8 * 33,
            private_step: 8,
            jump_fraction: 0.002, // stencil: near-neighbor sweeps
            shared_stride: 8 * 9,
            sharing: SharingModel {
                hot_lines: 16,
                writers: 2,
                hot_weight: 0.5,
                hot_write_fraction: 0.0,
                migratory_weight: 0.0,
                producer_consumer_weight: 0.16,
                lock_contention: 0.04,
                contended_locks: 16,
                burst_len: 1,
                write_period: 128,
                contention_period: 256,
            },
            itlb_miss_per_million: 60,
            segments: 96,
            seed: 0x0CEA,
        },
        WorkloadSpec {
            name: "sparse",
            class: WorkloadClass::Scientific,
            private_bytes: 8 << 20,
            shared_bytes: 8 << 20,
            locks: 16,
            critical_section_len: 6,
            lock_weight: 0.03,
            shared_read_weight: 1.5,
            private_weight: 2.5,
            compute_weight: 3.0,
            trap_weight: 0.003,
            membar_weight: 0.10,
            chase_weight: 0.0,
            store_fraction: 0.20,
            private_stride: 8 * 40503,
            private_step: 32,
            jump_fraction: 0.004, // indirect row accesses
            shared_stride: 8 * 17,
            sharing: SharingModel {
                hot_lines: 16,
                writers: 2,
                hot_weight: 0.5,
                hot_write_fraction: 0.0,
                migratory_weight: 0.0,
                producer_consumer_weight: 0.04,
                lock_contention: 0.04,
                contended_locks: 16,
                burst_len: 1,
                write_period: 128,
                contention_period: 256,
            },
            itlb_miss_per_million: 60,
            segments: 96,
            seed: 0x59A5,
        },
    ];
    specs.into_iter().map(Workload::from_spec).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use reunion_isa::{Addr, FunctionalCore, Progression, SparseMemory};

    #[test]
    fn suite_has_eleven_named_workloads() {
        let all = suite();
        assert_eq!(all.len(), 11);
        let names: std::collections::HashSet<_> = all.iter().map(|w| w.name()).collect();
        assert_eq!(names.len(), 11, "names must be unique");
    }

    #[test]
    fn class_composition_matches_table2() {
        let all = suite();
        let count = |c: WorkloadClass| all.iter().filter(|w| w.class() == c).count();
        assert_eq!(count(WorkloadClass::Web), 2);
        assert_eq!(count(WorkloadClass::Oltp), 2);
        assert_eq!(count(WorkloadClass::Dss), 3);
        assert_eq!(count(WorkloadClass::Scientific), 4);
    }

    #[test]
    fn by_name_is_case_insensitive() {
        assert!(Workload::by_name("APACHE").is_some());
        assert!(Workload::by_name("nonexistent").is_none());
    }

    #[test]
    fn every_workload_runs_functionally() {
        for w in suite() {
            let prog = w.program(0);
            let mut mem = SparseMemory::over(w.initial_memory());
            let mut core = FunctionalCore::new();
            let steps = core.run(&prog, &mut mem, 20_000);
            assert_eq!(steps, 20_000, "{} must loop forever", w.name());
        }
    }

    #[test]
    fn commercial_workloads_serialize_more_than_scientific() {
        let all = suite();
        let density = |w: &Workload| {
            let p = w.program(0);
            p.count_matching(|op| op.is_serializing()) as f64 / p.len() as f64
        };
        let oltp_avg: f64 = all
            .iter()
            .filter(|w| w.class() == WorkloadClass::Oltp)
            .map(density)
            .sum::<f64>()
            / 2.0;
        let sci_avg: f64 = all
            .iter()
            .filter(|w| w.class() == WorkloadClass::Scientific)
            .map(density)
            .sum::<f64>()
            / 4.0;
        assert!(
            oltp_avg > 2.0 * sci_avg,
            "OLTP serializing density {oltp_avg:.4} vs scientific {sci_avg:.4}"
        );
    }

    #[test]
    fn em3d_has_largest_shared_footprint() {
        let em3d = Workload::by_name("em3d").unwrap();
        assert!(em3d.spec().shared_bytes > 16 << 20, "must exceed the L2");
        assert!(!em3d.initial_memory().is_empty());
    }

    #[test]
    fn all_programs_are_deterministic() {
        for w in suite() {
            assert_eq!(w.program(1), w.program(1), "{}", w.name());
        }
    }

    #[test]
    fn cache_serves_identical_artifacts_to_fresh_generation() {
        let cached = Workload::by_name("sparse").unwrap();
        let fresh = Workload::uncached(cached.spec().clone());
        assert_eq!(cached.cache_population(), CachePopulation::default());
        for thread in 0..3 {
            assert_eq!(cached.program(thread), fresh.program(thread));
        }
        assert!(*cached.initial_memory() == *fresh.initial_memory());
        assert_eq!(
            cached.cache_population(),
            CachePopulation {
                programs: 3,
                memory: true,
            }
        );
        assert_eq!(fresh.cache_population(), CachePopulation::default());
    }

    #[test]
    fn clones_share_one_cache() {
        let a = Workload::by_name("moldyn").unwrap();
        let b = a.clone();
        let _ = a.program(0);
        let image = b.initial_memory();
        // Work done through either clone is visible through the other.
        let populated = CachePopulation {
            programs: 1,
            memory: true,
        };
        assert_eq!(a.cache_population(), populated);
        assert_eq!(b.cache_population(), populated);
        assert!(Arc::ptr_eq(&image, &a.initial_memory()), "one shared copy");
    }

    /// Every suite image is a few stride-64 runs whose values step evenly
    /// — zeros, and em3d's ring of next-line pointers — so a whole image
    /// is a few progressions: em3d's 525 076 words included, none costs
    /// more than 256 B.
    #[test]
    fn base_images_fit_in_256_bytes() {
        for w in suite() {
            let image = w.initial_memory();
            let bytes = image.heap_bytes();
            assert!(bytes <= 256, "{}: {bytes} B", w.name());
        }
        let len = Workload::by_name("em3d").unwrap().initial_memory().len();
        assert!(len > 500_000, "em3d's pointer ring is {len} words");
    }

    /// `words` cut into regions: each the longest stretch from its first
    /// word whose addresses and values step evenly, as a generator would
    /// write it.
    fn regions_of(words: &[(Addr, u64)]) -> Vec<Progression> {
        let mut regions: Vec<Progression> = Vec::new();
        for &(addr, value) in words {
            if let Some(open) = regions.last_mut() {
                let next = open.start.as_u64().wrapping_add(open.len * open.stride);
                let value_next = open.first.wrapping_add(open.len.wrapping_mul(open.step));
                if open.len == 1 && addr.as_u64() > open.start.as_u64() {
                    open.stride = addr.as_u64() - open.start.as_u64();
                    open.step = value.wrapping_sub(open.first);
                    open.len = 2;
                    continue;
                }
                if addr.as_u64() == next && value == value_next {
                    open.len += 1;
                    continue;
                }
            }
            regions.push(Progression::word(addr, value));
        }
        regions
    }

    /// Every suite and kernel image equals the one its words build one at
    /// a time, under `==` and in `heap_bytes`: a generated image from the
    /// generator's regions, a kernel's `.data` words cut into regions.
    #[test]
    fn every_image_freezes_equal_to_its_words() {
        for w in suite().into_iter().chain(crate::kernel_suite()) {
            let image = w.initial_memory();
            let (regions, words): (Vec<Progression>, Vec<(Addr, u64)>) = match w.source {
                ProgramSource::Generated => {
                    let regions = gen::initial_memory(&w.spec).to_vec();
                    let words = regions.iter().copied().flat_map(Progression::words);
                    (regions.clone(), words.collect())
                }
                ProgramSource::Kernel(_) => {
                    let words = w.kernel_image().expect("kernel source").memory().to_vec();
                    (regions_of(&words), words)
                }
            };
            let listed = BaseImage::new(words.iter().copied());
            assert!(*image == listed, "{}", w.name());
            assert_eq!(image.heap_bytes(), listed.heap_bytes(), "{}", w.name());
            assert!(
                BaseImage::from_progressions(regions) == listed,
                "{}",
                w.name()
            );
        }
    }
}
