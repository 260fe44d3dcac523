//! Microbenchmarks of the simulator substrates.
//!
//! These measure *simulator* throughput (host time), complementing the
//! experiment binaries which measure *simulated* performance. They catch
//! regressions in the hot paths: cache lookups, fingerprint hashing, memory
//! accesses, core ticks and whole-system ticks.
//!
//! The build container has no network access, so instead of criterion this
//! uses a small local harness (`harness = false` in Cargo.toml): each
//! benchmark is warmed, then timed over enough iterations to fill a fixed
//! measurement budget, and the best-of-N samples ns/iter is reported.
//!
//! Wall-clock numbers are machine-dependent and therefore not gated in
//! CI. `REUNION_BENCH_COUNTERS=1` switches the harness to a
//! *deterministic counters* mode instead: no timing at all — a fixed
//! reference grid is executed and machine-independent work counters
//! (cells executed, instructions and cycles simulated, peak buffer
//! occupancies) are printed as stable `counter <name> <value>` lines.
//! Those ARE gated: CI diffs them against `baselines/BENCH_counters.txt`,
//! so a change to how much work the simulator does per cell shows up even
//! on shared runners where ns/iter cannot be trusted.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use reunion_bench::{counters_grid, Profile, RunOptions};
use reunion_core::{CmpSystem, ExecutionMode, SystemConfig};
use reunion_cpu::{Core, CoreConfig};
use reunion_fingerprint::{Crc, FingerprintUnit, TwoStageCompressor, UpdateRecord};
use reunion_isa::{Addr, Instruction, Program, RegId};
use reunion_kernel::Cycle;
use reunion_mem::{CacheArray, MemConfig, MemorySystem, Owner, PhantomStrength};
use reunion_workloads::Workload;

/// Minimal stand-in for criterion's driver: `bench_function` + `Bencher::iter`.
struct Criterion {
    samples: usize,
    budget: Duration,
}

struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

impl Criterion {
    fn new(opts: &RunOptions) -> Self {
        let quick = opts.profile == Profile::Fast;
        Criterion {
            samples: if quick { 3 } else { 10 },
            budget: Duration::from_millis(if quick { 5 } else { 50 }),
        }
    }

    fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) {
        // Calibration pass: find an iteration count that fills the budget.
        let mut b = Bencher {
            iters: 1_000,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        let per_iter = b.elapsed.as_nanos().max(1) as f64 / b.iters as f64;
        let iters = ((self.budget.as_nanos() as f64 / per_iter) as u64).clamp(100, 50_000_000);

        let mut best = f64::INFINITY;
        for _ in 0..self.samples {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            let ns = b.elapsed.as_nanos() as f64 / iters as f64;
            if ns < best {
                best = ns;
            }
        }
        println!(
            "{name:<32} {best:>12.1} ns/iter   ({iters} iters x {} samples)",
            self.samples
        );
    }
}

fn bench_cache_array(c: &mut Criterion) {
    let mut cache: CacheArray<u8> = CacheArray::new(1024, 2);
    for line in 0..1024u64 {
        cache.insert(line, 0);
    }
    let mut line = 0u64;
    c.bench_function("cache_array_lookup_hit", |b| {
        b.iter(|| {
            line = (line + 7) % 1024;
            black_box(cache.lookup(black_box(line)).is_some())
        })
    });
    c.bench_function("cache_array_insert_evict", |b| {
        b.iter(|| {
            line = line.wrapping_add(4097);
            black_box(cache.insert(black_box(line), 1))
        })
    });
}

fn bench_fingerprint(c: &mut Criterion) {
    let mut crc = Crc::new_16();
    c.bench_function("crc16_consume_u64", |b| {
        b.iter(|| {
            crc.consume_u64(black_box(0xDEAD_BEEF_CAFE_F00D));
            black_box(crc.value())
        })
    });
    let mut unit = FingerprintUnit::new(16);
    let rec = UpdateRecord::load(3, 42, 0x1000);
    c.bench_function("fingerprint_absorb_emit", |b| {
        b.iter(|| {
            unit.absorb(black_box(&rec));
            black_box(unit.emit())
        })
    });
    let mut two = TwoStageCompressor::new(16);
    let words = [1u64, 2, 3, 4];
    c.bench_function("two_stage_absorb_cycle", |b| {
        b.iter(|| {
            two.absorb_cycle(black_box(&words));
        })
    });
}

fn bench_memory_system(c: &mut Criterion) {
    let mut mem = MemorySystem::new(MemConfig::default());
    let vocal = mem.register_l1(Owner::vocal(0));
    let mute = mem.register_l1(Owner::mute(0));
    let mut now = 0u64;
    let mut addr = 0u64;
    c.bench_function("memsys_vocal_load", |b| {
        b.iter(|| {
            now += 1;
            addr = addr.wrapping_add(4096) & 0xF_FFFF;
            black_box(mem.load(
                Cycle::new(now),
                vocal,
                Addr::new(addr),
                PhantomStrength::Global,
            ))
        })
    });
    c.bench_function("memsys_phantom_load", |b| {
        b.iter(|| {
            now += 1;
            addr = addr.wrapping_add(4096) & 0xF_FFFF;
            black_box(mem.load(
                Cycle::new(now),
                mute,
                Addr::new(addr),
                PhantomStrength::Global,
            ))
        })
    });
}

fn bench_core_tick(c: &mut Criterion) {
    let program = Arc::new(
        Program::new(
            "bench",
            vec![
                Instruction::add_imm(RegId::new(1), RegId::new(1), 1),
                Instruction::alu_imm(reunion_isa::AluOp::Xor, RegId::new(2), RegId::new(1), 3),
                Instruction::jump(0),
            ],
        )
        .unwrap(),
    );
    let mut mem = MemorySystem::new(MemConfig::small());
    let l1 = mem.register_l1(Owner::vocal(0));
    let mut core = Core::new(CoreConfig::default(), program, l1, 1);
    let mut now = 0u64;
    c.bench_function("core_tick_alu_loop", |b| {
        b.iter(|| {
            core.tick(Cycle::new(now), &mut mem);
            now += 1;
        })
    });
}

fn bench_system_tick(c: &mut Criterion) {
    let workload = Workload::by_name("sparse").unwrap();
    let mut baseline = CmpSystem::new(
        &SystemConfig::small_test(ExecutionMode::NonRedundant),
        &workload,
    );
    c.bench_function("system_tick_nonredundant", |b| b.iter(|| baseline.tick()));
    let mut reunion = CmpSystem::new(&SystemConfig::small_test(ExecutionMode::Reunion), &workload);
    c.bench_function("system_tick_reunion", |b| b.iter(|| reunion.tick()));
}

/// System construction from a warm artifact cache (the harness's
/// calibration pass fills it), as every grid cell after a workload's first
/// sees it: em3d carries the suite's largest initial image (525k words),
/// apache a typical one (3k).
///
/// These rows build and drop one system at a time, so each iteration is
/// handed the previous one's heap back, pages already mapped. They never
/// saw what a grid pays — fresh page faults for every byte a system writes
/// at construction (5.0 ms a system while the L2 directory was allocated
/// up front, against 0.6 ms here). The numbers of record for construction
/// are the repo benchmark's `core.system_new_ms` and `setup_s`.
fn bench_system_new(c: &mut Criterion) {
    let cfg = SystemConfig::table1(ExecutionMode::Reunion);
    for name in ["em3d", "apache"] {
        let workload = Workload::by_name(name).unwrap();
        c.bench_function(&format!("system_new/{name}"), |b| {
            b.iter(|| CmpSystem::new(&cfg, &workload))
        });
    }
}

/// Deterministic-counters mode: machine-independent work counters over
/// the reference grid, printed as `counter <name> <value>` lines (and
/// nothing else on stdout, so CI can diff the output verbatim against
/// `baselines/BENCH_counters.txt`).
///
/// Each cell's two systems (the model and its non-redundant baseline) are
/// driven directly over the cell's sampling schedule, because two of the
/// lines are engine diagnostics that live on the system and in no
/// `BENCH_<id>.json` field (nor, for `proc_ticks`, in `Measurement`, which
/// the repo benchmark builds field by field and so cannot grow): every simulated-work counter must be identical
/// between `REUNION_ENGINE=dense` and `skip`, while `skipped_cycles` (zero
/// under dense) and `proc_ticks` (processors × cycles under dense) are the
/// two lines allowed to differ. `proc_ticks` is the tightness of the skip
/// engine's bounds as a count: it moves as soon as any bound loosens, even
/// inside cycles that are still visited.
fn report_counters(opts: &RunOptions) {
    let grid = counters_grid(opts);
    let mut instructions = 0u64;
    let mut cycles = 0u64;
    let mut incoherence = 0u64;
    let mut serializing_stalls = 0u64;
    let mut skipped = 0u64;
    let mut proc_ticks = 0u64;
    // Tag storage owned, as a count, on any host: a directory allocated
    // up front reads every set of every system here (256 × 16 = 4 096 on
    // this grid's small L2, whose runs leave only a few sets untouched;
    // 32 768 a system on the Table 1 machine, whose samples touch 2–11 %).
    let mut l2_sets_materialised = 0usize;
    let mut peak_check_events = 0u64;
    let mut peak_store_chain = 0u64;
    let mut store_chain_spills = 0u64;
    for cell in grid.cells() {
        let cfg = grid.cell_config(cell);
        let sample = grid.cell_sample(cell);
        let mut base_cfg = cfg.clone();
        base_cfg.mode = ExecutionMode::NonRedundant;
        for side in [&cfg, &base_cfg] {
            let mut sys = CmpSystem::new(side, &cell.workload);
            sys.run(sample.warmup);
            for _ in 0..sample.windows {
                sys.begin_window();
                sys.run(sample.window);
                let w = sys.window_stats();
                instructions += w.user_instructions;
                cycles += w.cycles;
                incoherence += w.input_incoherence;
                serializing_stalls += w.serializing_stall_cycles;
                // Allocation-sensitivity probes: peaks combine by max
                // (order independent), spill events by sum. A change in
                // buffer recycling or inline capacity moves these before
                // it moves any simulated-work counter.
                peak_check_events = peak_check_events.max(w.peak_check_events);
                peak_store_chain = peak_store_chain.max(w.peak_store_chain);
                store_chain_spills += w.store_chain_spills;
            }
            skipped += sys.skipped_cycles();
            proc_ticks += sys.proc_ticks();
            l2_sets_materialised += sys.memory().l2_sets_materialised();
        }
    }
    // Workload artifact cache population after the sweep. The grid's cells
    // hold clones of the builder's two workloads, so all cells of one
    // workload share one cache; count each underlying cache once.
    let mut seen = std::collections::BTreeSet::new();
    let mut cached_programs = 0usize;
    let mut cached_memories = 0usize;
    // One image per workload however many systems were built from it: a
    // regression to per-system image builds leaves this slot empty.
    let mut cached_images = 0usize;
    for cell in grid.cells() {
        if seen.insert(cell.workload.name()) {
            let cached = cell.workload.cache_population();
            cached_programs += cached.programs;
            cached_memories += usize::from(cached.memory);
            cached_images += usize::from(cached.base_image);
        }
    }
    println!("counter cells_executed {}", grid.cells().len());
    println!("counter instructions_simulated {instructions}");
    println!("counter cycles_simulated {cycles}");
    println!("counter input_incoherence_events {incoherence}");
    println!("counter serializing_stall_cycles {serializing_stalls}");
    println!("counter skipped_cycles {skipped}");
    println!("counter proc_ticks {proc_ticks}");
    println!("counter peak_check_events {peak_check_events}");
    println!("counter peak_store_chain {peak_store_chain}");
    println!("counter store_chain_spills {store_chain_spills}");
    println!("counter workload_programs_cached {cached_programs}");
    println!("counter workload_memories_cached {cached_memories}");
    println!("counter workload_images_cached {cached_images}");
    println!("counter l2_sets_materialised {l2_sets_materialised}");
}

fn main() {
    // Same typed resolution as every other binary, once, here. Cargo hands
    // a bench harness flags of its own (`--bench`), so unrecognized
    // arguments are ignored rather than rejected.
    let opts = match RunOptions::parse_cli(RunOptions::default()) {
        Ok((opts, _)) => opts,
        Err(e) => panic!("bad run options: {e}"),
    };
    if std::env::var("REUNION_BENCH_COUNTERS").is_ok_and(|v| v == "1") {
        report_counters(&opts);
        return;
    }
    let mut c = Criterion::new(&opts);
    bench_cache_array(&mut c);
    bench_fingerprint(&mut c);
    bench_memory_system(&mut c);
    bench_core_tick(&mut c);
    bench_system_tick(&mut c);
    bench_system_new(&mut c);
}
