//! Isolated timing loops over each layer's public functions.
//!
//! A probe answers "what does one call into this layer cost on its own";
//! the traced round answers "how much of a cell went there". Every probe
//! uses the same quiet-time estimator as the end-to-end numbers: the
//! minimum over at least [`MIN_SAMPLES`] timed samples.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use reunion_core::{CheckBus, LatencyHistogram, ObsConfig, SampleConfig};
use reunion_cpu::{Core, CoreConfig};
use reunion_fingerprint::{Crc, FingerprintUnit, UpdateRecord};
use reunion_isa::{asm, Addr, AluOp, FunctionalCore, Instruction, Program, RegId, SparseMemory};
use reunion_kernel::{Cycle, DelayQueue, EventHorizon, HorizonTree};
use reunion_mem::{BankedArbiter, MemConfig, MemStats, MemorySystem, Owner, PhantomStrength};
use reunion_sim::{
    measure_cell, merge_manifests, parse_json, ExperimentReport, ManifestHeader, RunRecord, Runner,
    ShardManifest, ShardSpec,
};
use reunion_workloads::{suite, Workload, KERNEL_SOURCES};

use crate::grids::Workbench;

/// Fewest samples any probe takes.
pub const MIN_SAMPLES: usize = 7;

/// Sample count and per-sample time budget of the looped probes.
pub struct Prober {
    samples: usize,
    budget: Duration,
    smoke: bool,
}

impl Prober {
    pub fn new(smoke: bool) -> Self {
        Prober {
            samples: if smoke { MIN_SAMPLES } else { 9 },
            budget: Duration::from_micros(if smoke { 300 } else { 4_000 }),
            smoke,
        }
    }

    /// Quiet nanoseconds per iteration of `body`, which runs its loop the
    /// given number of times.
    fn ns_per_iter(&self, mut body: impl FnMut(u64)) -> f64 {
        let calibrate = 512;
        let start = Instant::now();
        body(calibrate);
        let per_iter = start.elapsed().as_nanos().max(1) as f64 / calibrate as f64;
        let iters = ((self.budget.as_nanos() as f64 / per_iter) as u64).clamp(64, 20_000_000);
        (0..self.samples)
            .map(|_| {
                let start = Instant::now();
                body(iters);
                start.elapsed().as_nanos() as f64 / iters as f64
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Quiet seconds of one call to `f`.
    fn seconds(&self, samples: usize, mut f: impl FnMut()) -> f64 {
        (0..samples)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    }
}

type Metrics = Vec<(&'static str, f64)>;

/// Runs every probe. `records` (one pass of the current workload) supplies
/// realistic records for the `sim` serialization probes.
pub fn run_all(p: &Prober, records: &[RunRecord], seed: u64, out_dir: &Path) -> Metrics {
    let mut m = Metrics::new();
    kernel(p, &mut m);
    fingerprint(p, &mut m);
    mem(p, &mut m);
    cpu(p, &mut m);
    isa(p, &mut m);
    workloads(p, &mut m);
    m.push(("core.check_bus.grant_ns", {
        let mut bus = CheckBus::new(2);
        let mut now = 0u64;
        p.ns_per_iter(|n| {
            for _ in 0..n {
                now += 1;
                black_box(bus.grant(Cycle::new(black_box(now))));
            }
        })
    }));
    m.push(("obs.histogram_record_ns", {
        let mut h = LatencyHistogram::new();
        let mut v = 1u64;
        p.ns_per_iter(|n| {
            for _ in 0..n {
                v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
                h.record(black_box(v >> 44));
            }
            black_box(h.count());
        })
    }));
    sim(p, records, seed, out_dir, &mut m);
    m
}

fn kernel(p: &Prober, m: &mut Metrics) {
    // One op = one push plus the pop that later delivers it, in steady
    // state. Delays below the 64-cycle ring stay in the near tier; 200
    // cycles goes through the far heap and migrates.
    for (name, delay) in [
        ("kernel.delay_queue.near_ns_per_op", 3u64),
        ("kernel.delay_queue.far_ns_per_op", 200),
    ] {
        let mut q = DelayQueue::new();
        let mut now = 0u64;
        m.push((
            name,
            p.ns_per_iter(|n| {
                for _ in 0..n {
                    q.push_at(Cycle::new(now + delay), now);
                    black_box(q.pop_ready(Cycle::new(now)));
                    now += 1;
                }
            }),
        ));
    }
    for (tree_name, fold_name, slots) in [
        (
            "kernel.horizon_tree.set_min_ns.p4",
            "kernel.event_horizon.fold_ns.p4",
            4usize,
        ),
        (
            "kernel.horizon_tree.set_min_ns.p32",
            "kernel.event_horizon.fold_ns.p32",
            32,
        ),
    ] {
        // What the skip engine does per step with the tree: one processor
        // re-reports, then the minimum is read.
        let mut tree = HorizonTree::new(slots);
        let mut i = 0u64;
        m.push((
            tree_name,
            p.ns_per_iter(|n| {
                for _ in 0..n {
                    i += 1;
                    let slot = (i % slots as u64) as usize;
                    tree.set(slot, Some(Cycle::new(i + (i * 7) % 13)));
                    black_box(tree.min());
                }
            }),
        ));
        // The same step with the linear fold: every processor re-reports.
        let bounds: Vec<u64> = (0..slots as u64).map(|s| 100 + (s * 7) % 13).collect();
        m.push((
            fold_name,
            p.ns_per_iter(|n| {
                for _ in 0..n {
                    let mut horizon = EventHorizon::new();
                    for &b in black_box(&bounds) {
                        horizon.note_opt(Some(Cycle::new(b)));
                    }
                    black_box(horizon.next_ready());
                }
            }),
        ));
    }
}

fn fingerprint(p: &Prober, m: &mut Metrics) {
    let rec = UpdateRecord::load(3, 42, 0x1000);
    let mut unit = FingerprintUnit::new(16);
    m.push((
        "fingerprint.absorb_ns_per_record",
        p.ns_per_iter(|n| {
            for _ in 0..n {
                unit.absorb(black_box(&rec));
            }
            black_box(unit.emit());
        }),
    ));
    // One-instruction intervals, the paper's default: absorb then emit.
    m.push((
        "fingerprint.emit_ns",
        p.ns_per_iter(|n| {
            for _ in 0..n {
                unit.absorb(black_box(&rec));
                black_box(unit.emit());
            }
        }),
    ));
    let mut crc = Crc::new_16();
    m.push((
        "fingerprint.crc16_ns_per_u64",
        p.ns_per_iter(|n| {
            for _ in 0..n {
                crc.consume_u64(black_box(0xDEAD_BEEF_CAFE_F00D));
            }
            black_box(crc.value());
        }),
    ));
}

fn mem(p: &Prober, m: &mut Metrics) {
    let mut sys = MemorySystem::new(MemConfig::default());
    let vocal = sys.register_l1(Owner::vocal(0));
    let mute = sys.register_l1(Owner::mute(0));
    let mut now = 0u64;
    let mut addr = 0u64;
    let global = PhantomStrength::Global;

    // 16 KB walked line by line stays inside the 64 KB L1.
    m.push((
        "mem.load_hit_ns",
        p.ns_per_iter(|n| {
            for _ in 0..n {
                now += 1;
                addr = (addr + 64) & 0x3FFF;
                black_box(sys.load(Cycle::new(now), vocal, Addr::new(addr), global));
            }
        }),
    ));
    m.push((
        "mem.drain_store_ns",
        p.ns_per_iter(|n| {
            for _ in 0..n {
                now += 1;
                addr = (addr + 64) & 0x3FFF;
                black_box(sys.drain_store(Cycle::new(now), vocal, Addr::new(addr), now));
            }
        }),
    ));
    // A page-and-a-line stride over 1 GB misses the L1 and mostly the L2.
    for (name, l1) in [("mem.load_miss_ns", vocal), ("mem.phantom_load_ns", mute)] {
        m.push((
            name,
            p.ns_per_iter(|n| {
                for _ in 0..n {
                    now += 4;
                    addr = (addr + 8256) & 0x3FFF_FFFF;
                    black_box(sys.load(Cycle::new(now), l1, Addr::new(addr), global));
                }
            }),
        ));
    }
    m.push((
        "mem.sync_access_ns",
        p.ns_per_iter(|n| {
            for _ in 0..n {
                now += 4;
                addr = (addr + 64) & 0xFFFF;
                black_box(sys.sync_access(Cycle::new(now), vocal, mute, Addr::new(addr), None));
            }
        }),
    ));

    let contended = MemConfig::default()
        .with_xbar_ports(4)
        .with_bank_queue_depth(4);
    let mut arbiter = BankedArbiter::new(&contended);
    let mut stats = MemStats::new();
    let mut at = 0u64;
    m.push((
        "mem.arbiter_service_ns",
        p.ns_per_iter(|n| {
            for _ in 0..n {
                at += 1;
                let bank = (at % contended.l2_banks as u64) as usize;
                black_box(arbiter.service(bank, black_box(at), &mut stats));
            }
        }),
    ));

    let words = if p.smoke { 20_000u64 } else { 200_000 };
    let seconds = p.seconds(MIN_SAMPLES, || {
        let mut fresh = MemorySystem::new(MemConfig::default());
        for w in 0..words {
            fresh.poke(Addr::new(0x4000_0000 + w * 8), w);
        }
        black_box(fresh.peek_coherent(Addr::new(0x4000_0000)));
    });
    m.push(("mem.poke_ns_per_word", seconds * 1e9 / words as f64));
}

fn r(index: u8) -> RegId {
    RegId::new(index)
}

fn cpu(p: &Prober, m: &mut Metrics) {
    let alu = vec![
        Instruction::add_imm(r(1), r(1), 1),
        Instruction::alu_imm(AluOp::Xor, r(2), r(1), 3),
        Instruction::jump(0),
    ];
    // Loads and stores walking 16 KB: L1 hits once warm.
    let load_store = vec![
        Instruction::load(r(3), r(2), 0),
        Instruction::store(r(2), r(3), 8),
        Instruction::add_imm(r(2), r(2), 64),
        Instruction::alu_imm(AluOp::And, r(2), r(2), 0x3FC0),
        Instruction::jump(0),
    ];
    // Every load misses to DRAM: the ROB fills behind the oldest miss and
    // nearly every tick finds its head blocked, which is what a densely
    // stepped idle cycle costs.
    let stalled = vec![
        Instruction::load(r(3), r(2), 0),
        Instruction::add_imm(r(2), r(2), 8256),
        Instruction::jump(0),
    ];
    for (name, code) in [
        ("cpu.tick_ns.alu_loop", alu),
        ("cpu.tick_ns.load_store_loop", load_store),
        ("cpu.tick_ns.stalled", stalled),
    ] {
        let program = Arc::new(Program::new(name, code).expect("probe program is valid"));
        let mut mem = MemorySystem::new(MemConfig::default());
        let l1 = mem.register_l1(Owner::vocal(0));
        let mut core = Core::new(CoreConfig::default(), program, l1, 1);
        let mut now = 0u64;
        m.push((
            name,
            p.ns_per_iter(|n| {
                for _ in 0..n {
                    core.tick(Cycle::new(now), &mut mem);
                    now += 1;
                }
            }),
        ));
    }
}

fn isa(p: &Prober, m: &mut Metrics) {
    let lines: usize = KERNEL_SOURCES.iter().map(|(_, t)| t.lines().count()).sum();
    let seconds = p.seconds(MIN_SAMPLES, || {
        for (_, text) in KERNEL_SOURCES {
            black_box(asm::parse_image(black_box(text)).expect("kernel parses"));
        }
    });
    m.push((
        "isa.asm.parse_us_per_kline",
        seconds * 1e6 / (lines as f64 / 1000.0),
    ));

    // quicksort never halts, so the step count is exact.
    let (_, text) = KERNEL_SOURCES
        .iter()
        .find(|(name, _)| *name == "quicksort")
        .expect("quicksort kernel");
    let image = asm::parse_image(text).expect("kernel parses");
    let program = image.program(0).expect("thread 0").clone();
    let mut memory = SparseMemory::new();
    for &(addr, value) in image.memory() {
        memory.poke(addr, value);
    }
    let mut core = FunctionalCore::new();
    m.push((
        "isa.functional.ns_per_step",
        p.ns_per_iter(|n| {
            for _ in 0..n {
                black_box(core.step(&program, &mut memory));
            }
        }),
    ));
}

fn workloads(p: &Prober, m: &mut Metrics) {
    let specs: Vec<_> = suite().iter().map(|w| w.spec().clone()).collect();
    let specs = if p.smoke { &specs[..2] } else { &specs[..] };
    let seconds = p.seconds(MIN_SAMPLES, || {
        for spec in specs {
            let w = Workload::uncached(spec.clone());
            for thread in 0..4 {
                black_box(w.program(thread));
            }
        }
    });
    m.push(("workloads.program_gen_ms", seconds * 1e3));
    let seconds = p.seconds(MIN_SAMPLES, || {
        for spec in specs {
            black_box(Workload::uncached(spec.clone()).initial_memory());
        }
    });
    m.push(("workloads.initial_memory_ms", seconds * 1e3));
    let cached = Workload::from_spec(specs[0].clone());
    m.push((
        "workloads.cached_program_ns",
        p.ns_per_iter(|n| {
            for _ in 0..n {
                black_box(cached.program(0));
            }
        }),
    ));
}

/// A report of `count` records, cycling through `records`.
fn cycled_report(records: &[RunRecord], count: usize) -> ExperimentReport {
    ExperimentReport {
        id: "probe".to_string(),
        caption: "serialization probe".to_string(),
        sample: SampleConfig::fast(),
        sample_overrides: Vec::new(),
        records: records.iter().cycle().take(count).cloned().collect(),
    }
}

fn sim(p: &Prober, records: &[RunRecord], seed: u64, out_dir: &Path, m: &mut Metrics) {
    let seconds = p.seconds(MIN_SAMPLES, || {
        black_box(Workbench::build("paper_grid", seed, false));
    });
    m.push(("sim.grid_build_us", seconds * 1e6));

    // The per-byte cost is not flat in report size, so both sizes of the
    // pipeline workload are probed: one sub-grid (22) and the sweep (110).
    for (to_name, parse_name, count) in [
        (
            "sim.to_json_ns_per_byte.small",
            "sim.parse_json_ns_per_byte.small",
            22,
        ),
        (
            "sim.to_json_ns_per_byte.large",
            "sim.parse_json_ns_per_byte.large",
            110,
        ),
    ] {
        let report = cycled_report(records, count);
        let json = report.to_json();
        let bytes = json.len() as f64;
        let seconds = p.seconds(MIN_SAMPLES, || {
            black_box(report.to_json());
        });
        m.push((to_name, seconds * 1e9 / bytes));
        let seconds = p.seconds(MIN_SAMPLES, || {
            black_box(parse_json(black_box(&json)).expect("report parses"));
        });
        m.push((parse_name, seconds * 1e9 / bytes));
    }

    let report = cycled_report(records, 22);
    let header = ManifestHeader {
        id: report.id.clone(),
        caption: report.caption.clone(),
        shard: ShardSpec::single(),
        cells: report.records.len(),
        sample: report.sample,
        sample_overrides: Vec::new(),
        obs: ObsConfig::default(),
    };
    let path = out_dir.join(header.shard.manifest_file_name(&header.id));
    let seconds = p.seconds(MIN_SAMPLES, || {
        let _ = std::fs::remove_file(&path);
        let mut manifest =
            ShardManifest::create_or_resume(out_dir, header.clone()).expect("manifest opens");
        for (i, record) in report.records.iter().enumerate() {
            manifest.append(i, record).expect("manifest appends");
        }
    });
    m.push((
        "sim.manifest_append_us_per_cell",
        seconds * 1e6 / report.records.len() as f64,
    ));
    let seconds = p.seconds(MIN_SAMPLES, || {
        black_box(merge_manifests(std::slice::from_ref(&path)).expect("manifest merges"));
    });
    m.push(("sim.merge_ms", seconds * 1e3));
    let _ = std::fs::remove_file(&path);

    // The runner against a bare loop over the same cells, and against
    // itself on two threads: the only multi-threaded code in the benchmark.
    let bench = Workbench::build("suite_pipeline", seed, p.smoke).expect("known workload");
    let grid = &bench.grids[1];
    // Interleaved, so a slow stretch of the host falls on all three alike.
    let (mut bare, mut serial, mut two) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        bare = bare.min(p.seconds(1, || {
            for cell in grid.cells() {
                black_box(measure_cell(grid, cell));
            }
        }));
        serial = serial.min(p.seconds(1, || {
            black_box(Runner::serial().run(grid));
        }));
        two = two.min(p.seconds(1, || {
            black_box(Runner::with_threads(2).run(grid));
        }));
    }
    m.push(("sim.runner.overhead_pct", (serial / bare - 1.0) * 100.0));
    m.push(("sim.runner.t2_speedup", serial / two));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prober_takes_at_least_seven_samples_and_scales_with_work() {
        let p = Prober::new(true);
        assert!(p.samples >= MIN_SAMPLES);
        let mut calls = 0;
        let spin = |n: u64, per: u64| {
            let mut x = 0u64;
            for i in 0..n * per {
                x = black_box(x.wrapping_add(i));
            }
            black_box(x);
        };
        let light = p.ns_per_iter(|n| {
            calls += 1;
            spin(n, 1)
        });
        assert_eq!(
            calls,
            1 + p.samples,
            "one calibration call plus the samples"
        );
        let heavy = p.ns_per_iter(|n| spin(n, 50));
        assert!(heavy > light * 5.0, "{heavy} vs {light}");
    }
}
