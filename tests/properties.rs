//! Property-based tests of core invariants.
//!
//! The container building this repo has no network access, so instead of
//! `proptest` these use a small deterministic case generator driven by the
//! kernel's own seeded [`SimRng`]: every property is checked against a few
//! hundred pseudo-random cases and the stream is reproducible by seed.

use reunion_fingerprint::{Crc, FingerprintUnit, ParityTree, UpdateRecord};
use reunion_isa::{alu_compute, atomic_update, Addr, AluOp, AtomicOp, DataMemory, SparseMemory};
use reunion_kernel::{Cycle, SimRng};
use reunion_mem::{CacheArray, MemConfig, MemorySystem, Owner, PhantomStrength};

const CASES: usize = 256;

/// Base seed for the randomized case streams: `REUNION_PROP_SEED` when
/// set (same knob as the engine-equivalence suite), a fixed default
/// otherwise — never wall-clock time, so failures replay exactly.
fn prop_seed() -> u64 {
    std::env::var("REUNION_PROP_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xA1_5EED)
}

/// Runs `body` against `CASES` deterministic pseudo-random cases.
fn for_cases(seed: u64, mut body: impl FnMut(&mut SimRng)) {
    let mut rng = SimRng::seed_from(seed ^ prop_seed());
    for _ in 0..CASES {
        body(&mut rng);
    }
}

fn arb_alu_op(rng: &mut SimRng) -> AluOp {
    const OPS: [AluOp; 8] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Xor,
        AluOp::And,
        AluOp::Or,
        AluOp::Shl,
        AluOp::Shr,
        AluOp::Mul,
    ];
    OPS[(rng.next_u64() % OPS.len() as u64) as usize]
}

/// ALU semantics are total and deterministic.
#[test]
fn alu_is_deterministic() {
    for_cases(0xA1_0001, |rng| {
        let op = arb_alu_op(rng);
        let a = rng.next_u64();
        let b = rng.next_u64();
        assert_eq!(alu_compute(op, a, b), alu_compute(op, a, b));
    });
}

/// Swap then swap-back restores memory through atomic_update.
#[test]
fn swap_round_trips() {
    for_cases(0xA1_0002, |rng| {
        let old = rng.next_u64();
        let new = rng.next_u64();
        let once = atomic_update(AtomicOp::Swap, old, new);
        assert_eq!(once, new);
        assert_eq!(atomic_update(AtomicOp::Swap, once, old), old);
    });
}

/// Memory image: the last write to a word wins, regardless of order of
/// writes to other words.
#[test]
fn sparse_memory_last_write_wins() {
    for_cases(0xA1_0003, |rng| {
        let n = 1 + (rng.next_u64() % 63) as usize;
        let mut mem = SparseMemory::new();
        let mut expected = std::collections::HashMap::new();
        for _ in 0..n {
            let addr = Addr::new(rng.next_u64() % 0x1000);
            let value = rng.next_u64();
            mem.store(addr, value);
            expected.insert(addr.word(), (addr, value));
        }
        for (_, (addr, value)) in expected {
            assert_eq!(mem.peek(addr), value);
        }
    });
}

/// A write layer over a shared base reads exactly like a flat image poked
/// with the base's words and then the same writes — word reads and line
/// reads, never-written words included. Bases come empty, as one word, as
/// an unsorted list with repeated and misaligned words (later entries win),
/// as a sorted list around a dense run, or as power-of-two-strided runs
/// (8–512 B) broken by gaps with lone words between them, given in order,
/// shuffled or with words repeated; probes reach below the first word and
/// above the last. An image of n words drawn as r runs costs at most
/// 8 n + 20 r bytes.
#[test]
fn layered_image_reads_like_a_flat_one() {
    use reunion_isa::BaseImage;
    use std::collections::BTreeSet;
    use std::sync::Arc;
    const LO: u64 = 0x8000;
    for_cases(0xA1_000B, |rng| {
        // A few lines' worth of address space, so base words, own words
        // and untouched words share lines.
        let arb_addr = |rng: &mut SimRng| Addr::new(LO + rng.next_u64() % 0x400);
        // The runs drawn, when the base is drawn as runs.
        let mut drawn_runs = None;
        let mut base_words: Vec<(Addr, u64)> = match rng.next_u64() % 5 {
            0 => Vec::new(),
            1 => vec![(arb_addr(rng), rng.next_u64())],
            2 => (0..rng.next_u64() % 64)
                .map(|_| (arb_addr(rng), rng.next_u64()))
                .collect(),
            3 => {
                let start = arb_addr(rng).word();
                let mut words: Vec<(Addr, u64)> = (0..2 + rng.next_u64() % 40)
                    .map(|i| (start.offset(i * 8), rng.next_u64()))
                    .collect();
                for _ in 0..rng.next_u64() % 8 {
                    words.push((arb_addr(rng).word(), rng.next_u64()));
                }
                words.sort_by_key(|&(addr, _)| addr);
                words.dedup_by_key(|&mut (addr, _)| addr);
                words
            }
            _ => {
                let mut words = Vec::new();
                let mut at = arb_addr(rng).word();
                let runs = 1 + rng.next_u64() % 5;
                for _ in 0..runs {
                    let (len, stride) = if rng.chance(0.3) {
                        (1, 8)
                    } else {
                        (2 + rng.next_u64() % 8, 8 << (rng.next_u64() % 7))
                    };
                    for i in 0..len {
                        words.push((at.offset(i * stride), rng.next_u64()));
                    }
                    // A gap of any whole number of words after the last.
                    at = at.offset((len - 1) * stride + 8 * (1 + rng.next_u64() % 40));
                }
                drawn_runs = Some(runs as usize);
                if rng.chance(0.3) {
                    for i in (1..words.len()).rev() {
                        words.swap(i, rng.below(i as u64 + 1) as usize);
                    }
                }
                if rng.chance(0.3) {
                    for _ in 0..1 + rng.next_u64() % 4 {
                        let (addr, _) = words[rng.below(words.len() as u64) as usize];
                        words.push((addr, rng.next_u64()));
                    }
                }
                words
            }
        };
        if rng.next_u64() % 2 == 0 {
            // A repeat of an earlier word: the later value must win.
            if let Some(&(addr, _)) = base_words.first() {
                base_words.push((addr.offset(rng.next_u64() % 8), rng.next_u64()));
            }
        }
        let base = Arc::new(BaseImage::new(base_words.iter().copied()));
        let distinct: BTreeSet<Addr> = base_words.iter().map(|&(addr, _)| addr.word()).collect();
        assert_eq!(base.len(), distinct.len());
        if let Some(runs) = drawn_runs {
            let bound = 8 * base.len() + 20 * runs;
            assert!(
                base.heap_bytes() <= bound,
                "{} > {bound}",
                base.heap_bytes()
            );
        }
        let mut layered = SparseMemory::over(base.clone());
        let mut flat = SparseMemory::new();
        for &(addr, value) in &base_words {
            flat.poke(addr, value);
        }
        let check_word = |layered: &mut SparseMemory, flat: &mut SparseMemory, addr: Addr| {
            assert_eq!(layered.peek(addr), flat.peek(addr), "{addr}");
            assert_eq!(layered.load(addr), flat.load(addr), "{addr}");
        };
        let check_line = |layered: &SparseMemory, flat: &SparseMemory, addr: Addr| {
            let line = addr.line_index();
            let words = layered.peek_line(line);
            assert_eq!(words, flat.peek_line(line), "line {line:#x}");
            for (i, &word) in words.iter().enumerate() {
                let addr = addr.line().offset(i as u64 * 8);
                assert_eq!(word, flat.peek(addr), "line read vs word read at {addr}");
            }
        };
        // Every base word and one word beyond it on either side: the ends
        // of the base and of each run.
        for &word in &distinct {
            for addr in [word.offset(8u64.wrapping_neg()), word, word.offset(8)] {
                check_word(&mut layered, &mut flat, addr);
                check_line(&layered, &flat, addr);
            }
        }
        // Probes a line beyond the base's address space on either side.
        let top = distinct
            .last()
            .map_or(0, |addr| addr.as_u64() + 8)
            .max(LO + 0x400);
        let arb_probe =
            |rng: &mut SimRng| Addr::new(LO - 0x40 + rng.next_u64() % (top + 0x80 - LO));
        for _ in 0..rng.next_u64() % 96 {
            match rng.next_u64() % 3 {
                0 => {
                    let (addr, value) = (arb_addr(rng), rng.next_u64());
                    layered.poke(addr, value);
                    flat.poke(addr, value);
                }
                1 => check_word(&mut layered, &mut flat, arb_probe(rng)),
                _ => check_line(&layered, &flat, arb_probe(rng)),
            }
        }
    });
}

/// Identical update streams always produce matching fingerprints
/// (no false positives in output comparison).
#[test]
fn fingerprints_never_false_positive() {
    for_cases(0xA1_0004, |rng| {
        let n = (rng.next_u64() % 100) as usize;
        let mut a = FingerprintUnit::new(16);
        let mut b = FingerprintUnit::new(16);
        for _ in 0..n {
            let reg = (rng.next_u64() % 32) as u8;
            let rec = UpdateRecord::load(reg, rng.next_u64(), rng.next_u64());
            a.absorb(&rec);
            b.absorb(&rec);
        }
        let fa = a.emit();
        let fb = b.emit();
        assert!(fa.matches(&fb));
        assert_eq!(fa.count as usize, n);
    });
}

/// A single flipped register value is detected (single-bit coverage of
/// the time-compressing CRC on whole-record granularity).
#[test]
fn fingerprints_detect_single_value_flip() {
    for_cases(0xA1_0005, |rng| {
        let prefix_len = (rng.next_u64() % 20) as usize;
        let victim = rng.next_u64();
        let bit = (rng.next_u64() % 64) as u32;
        let mut a = FingerprintUnit::new(16);
        let mut b = FingerprintUnit::new(16);
        for _ in 0..prefix_len {
            let v = rng.next_u64();
            let rec = UpdateRecord::reg(1, v);
            a.absorb(&rec);
            b.absorb(&rec);
        }
        a.absorb(&UpdateRecord::reg(2, victim));
        b.absorb(&UpdateRecord::reg(2, victim ^ (1 << bit)));
        assert_ne!(a.emit().hash, b.emit().hash);
    });
}

/// CRC is linear-feedback: consuming data in two chunks equals one.
#[test]
fn crc_chunking_is_associative() {
    for_cases(0xA1_0006, |rng| {
        let len = (rng.next_u64() % 64) as usize;
        let data: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
        let split = if len == 0 {
            0
        } else {
            (rng.next_u64() as usize) % (len + 1)
        };
        let mut whole = Crc::new_16();
        whole.consume(&data);
        let mut parts = Crc::new_16();
        parts.consume(&data[..split]);
        parts.consume(&data[split..]);
        assert_eq!(whole.value(), parts.value());
    });
}

/// Parity trees XOR-fold: compress(a) XOR compress(b) == compress(a^b)
/// word-wise (linearity, the property the aliasing bound rests on).
#[test]
fn parity_tree_is_linear() {
    for_cases(0xA1_0007, |rng| {
        let a = rng.next_u64();
        let b = rng.next_u64();
        let tree = ParityTree::new(16);
        let ca = tree.compress(&[a]);
        let cb = tree.compress(&[b]);
        let cab = tree.compress(&[a ^ b]);
        let folded: Vec<u8> = ca.iter().zip(&cb).map(|(x, y)| x ^ y).collect();
        assert_eq!(folded, cab);
    });
}

/// Cache arrays never exceed capacity and always hit what was just
/// inserted.
#[test]
fn cache_capacity_and_presence() {
    for_cases(0xA1_0008, |rng| {
        let n = 1 + (rng.next_u64() % 199) as usize;
        let mut cache: CacheArray<()> = CacheArray::new(64, 4);
        for _ in 0..n {
            let line = rng.next_u64() % 4096;
            cache.insert(line, ());
            assert!(cache.contains(line), "inserted line must be present");
            assert!(cache.occupancy() <= 64);
        }
    });
}

/// The dense tag array `CacheArray` used to be — every way of every set
/// allocated up front, sets at `set * assoc` — kept as the oracle for the
/// one that grows a set's ways as it fills them. `(line, state, last_use)`
/// per valid way, and per set the most lines it has held at once.
struct EagerArray {
    ways: Vec<Option<(u64, u32, u64)>>,
    peaks: Vec<usize>,
    assoc: usize,
    tick: u64,
}

impl EagerArray {
    fn new(lines: usize, assoc: usize) -> Self {
        EagerArray {
            ways: vec![None; lines],
            peaks: vec![0; lines / assoc],
            assoc,
            tick: 0,
        }
    }

    fn set_index(&self, line: u64) -> usize {
        line as usize & (self.peaks.len() - 1)
    }

    fn set(&mut self, line: u64) -> &mut [Option<(u64, u32, u64)>] {
        let set = self.set_index(line);
        &mut self.ways[set * self.assoc..(set + 1) * self.assoc]
    }

    fn peek(&self, line: u64) -> Option<u32> {
        let set = self.set_index(line);
        self.ways[set * self.assoc..(set + 1) * self.assoc]
            .iter()
            .flatten()
            .find(|w| w.0 == line)
            .map(|w| w.1)
    }

    fn lookup(&mut self, line: u64) -> Option<u32> {
        self.tick += 1;
        let tick = self.tick;
        let way = self.set(line).iter_mut().flatten().find(|w| w.0 == line)?;
        way.2 = tick;
        Some(way.1)
    }

    fn insert(&mut self, line: u64, state: u32) -> Option<(u64, u32)> {
        self.tick += 1;
        let new = Some((line, state, self.tick));
        let set = self.set(line);
        let hit = set.iter().position(|w| w.is_some_and(|w| w.0 == line));
        let evicted = match hit.or_else(|| set.iter().position(|w| w.is_none())) {
            Some(way) => {
                set[way] = new;
                None
            }
            None => {
                // First way with the smallest stamp, as `Iterator::min_by_key`.
                let victim = (0..set.len()).min_by_key(|&w| set[w].map(|w| w.2)).unwrap();
                std::mem::replace(&mut set[victim], new).map(|w| (w.0, w.1))
            }
        };
        let held = self.set(line).iter().flatten().count();
        let index = self.set_index(line);
        self.peaks[index] = held.max(self.peaks[index]);
        evicted
    }

    fn invalidate(&mut self, line: u64) -> Option<u32> {
        let way = self
            .set(line)
            .iter_mut()
            .find(|w| w.is_some_and(|w| w.0 == line))?;
        way.take().map(|w| w.1)
    }

    fn occupancy(&self) -> usize {
        self.ways.iter().flatten().count()
    }
}

/// Model-based: under random operation sequences the `CacheArray` that
/// allocates ways as its sets fill returns what the eager array returns —
/// every hit, miss, victim and count — holds the same lines after every
/// step, and never allocates more ways than the eager array or than twice
/// the most lines each set has held.
#[test]
fn cache_array_matches_the_eager_array() {
    // (lines, assoc): direct-mapped, a single set, the L1's 2-way, the L2's
    // 8-way, size classes of 1, 2 and 3 ways, and 128 sparsely touched sets
    // that grow unevenly, so growth moves other sets' chunks into holes.
    const SHAPES: [(usize, usize); 7] = [
        (16, 1),
        (4, 4),
        (1, 1),
        (32, 2),
        (64, 8),
        (24, 3),
        (1024, 8),
    ];
    for_cases(0xA1_000D, |rng| {
        let (lines, assoc) = SHAPES[(rng.next_u64() % SHAPES.len() as u64) as usize];
        let mut cache: CacheArray<u32> = CacheArray::new(lines, assoc);
        let mut model = EagerArray::new(lines, assoc);
        let mut touched = std::collections::HashSet::new();
        let mut inserted = std::collections::BTreeSet::new();
        for step in 0..1 + rng.next_u64() % 300 {
            // Three lines per way: sets fill, conflict and evict.
            let line = rng.next_u64() % (3 * lines as u64);
            let state = rng.next_u64() as u32;
            let op = rng.next_u64() % 16;
            let ctx = format!("{lines}x{assoc} step {step} op {op} line {line}");
            match op {
                0..=5 => {
                    touched.insert(line as usize % (lines / assoc));
                    inserted.insert(line);
                    assert_eq!(
                        cache.insert(line, state),
                        model.insert(line, state),
                        "{ctx}"
                    )
                }
                6..=9 => assert_eq!(cache.lookup(line).copied(), model.lookup(line), "{ctx}"),
                10..=11 => assert_eq!(cache.contains(line), model.peek(line).is_some(), "{ctx}"),
                _ => assert_eq!(cache.invalidate(line), model.invalidate(line), "{ctx}"),
            }
            // A line never inserted is absent from both; the whole range is
            // compared once the case ends.
            for &l in &inserted {
                assert_eq!(cache.peek(l).copied(), model.peek(l), "{ctx}: peek {l}");
            }
            assert_eq!(cache.occupancy(), model.occupancy(), "{ctx}");
            assert_eq!(cache.materialised_sets(), touched.len(), "{ctx}");
            let ways = cache.ways_allocated();
            assert!(ways <= assoc * touched.len(), "{ctx}: {ways} ways");
            let peaks: usize = model.peaks.iter().sum();
            assert!(ways <= 2 * peaks, "{ctx}: {ways} ways for peaks {peaks}");
        }
        for l in 0..3 * lines as u64 {
            assert_eq!(
                cache.peek(l).copied(),
                model.peek(l),
                "{lines}x{assoc} peek {l}"
            );
        }
    });
}

/// Coherent memory: a vocal store is visible to every vocal reader, and
/// the mute's phantom-global read at fill time returns the same value.
#[test]
fn vocal_store_visibility() {
    for_cases(0xA1_0009, |rng| {
        let addr = (rng.next_u64() % 0x4000) & !7;
        let value = rng.next_u64();
        let mut mem = MemorySystem::new(MemConfig::small());
        let v0 = mem.register_l1(Owner::vocal(0));
        let m0 = mem.register_l1(Owner::mute(0));
        let v1 = mem.register_l1(Owner::vocal(1));
        mem.drain_store(Cycle::ZERO, v0, Addr::new(addr), value);
        let remote = mem.load(
            Cycle::new(500),
            v1,
            Addr::new(addr),
            PhantomStrength::Global,
        );
        assert_eq!(remote.value, value);
        let phantom = mem.load(
            Cycle::new(500),
            m0,
            Addr::new(addr),
            PhantomStrength::Global,
        );
        assert_eq!(phantom.value, value);
    });
}

/// Model-based: what a mute L1 reads is its own copy of the line. Two
/// pairs on the small machine (32-set 2-way L1s) take random mute loads,
/// stores and atomics under every phantom strength, vocal loads and stores,
/// and synchronizing requests over 192 lines, so mute copies are evicted
/// and refilled. A model per mute knows, word by word, what its copy must
/// hold: the coherent line after a coherent fill or a synchronizing
/// request, nothing after an arbitrary fill, and whatever the mute itself
/// wrote. Every mute hit must return a word the model knows, and no mute
/// access may change the coherent image.
#[test]
fn mute_copies_hold_what_their_fills_and_writes_left() {
    use std::collections::HashMap;
    const LINES: u64 = 192;
    const STRENGTHS: [PhantomStrength; 3] = [
        PhantomStrength::Null,
        PhantomStrength::Shared,
        PhantomStrength::Global,
    ];
    let (mut hits, mut refills) = (0u64, 0u64);
    for_cases(0xA1_000E, |rng| {
        let mut mem = MemorySystem::new(MemConfig::small());
        let pairs = [
            (
                mem.register_l1(Owner::vocal(0)),
                mem.register_l1(Owner::mute(0)),
            ),
            (
                mem.register_l1(Owner::vocal(1)),
                mem.register_l1(Owner::mute(1)),
            ),
        ];
        for word in 0..LINES * 8 {
            mem.poke(Addr::new(word * 8), rng.next_u64());
        }
        let coherent_line = |mem: &MemorySystem, line: u64| -> [Option<u64>; 8] {
            std::array::from_fn(|w| Some(mem.peek_coherent(Addr::new(line * 64 + w as u64 * 8))))
        };
        let mut models: [HashMap<u64, [Option<u64>; 8]>; 2] = Default::default();
        let mut now = Cycle::ZERO;
        for step in 0..400 {
            now += rng.next_u64() % 40;
            let pair = (rng.next_u64() % 2) as usize;
            let (vocal, mute) = pairs[pair];
            let line = rng.next_u64() % LINES;
            let slot = (rng.next_u64() % 8) as usize;
            let addr = Addr::new(line * 64 + slot as u64 * 8);
            let strength = STRENGTHS[(rng.next_u64() % 3) as usize];
            let operand = rng.next_u64();
            let op = rng.next_u64() % 7;
            let ctx = format!("step {step} op {op} pair {pair} line {line} word {slot}");
            let before = coherent_line(&mem, line);
            let acc = match op {
                0 | 1 => mem.load(now, mute, addr, strength),
                2 => mem.atomic_read(now, mute, addr, AtomicOp::FetchAdd, operand, strength),
                3 => mem.drain_store(now, mute, addr, operand),
                4 => {
                    let acc = mem.load(now, vocal, addr, strength);
                    assert_eq!(Some(acc.value), before[slot], "{ctx}: vocal read");
                    continue;
                }
                5 => {
                    mem.drain_store(now, vocal, addr, operand);
                    assert_eq!(mem.peek_coherent(addr), operand, "{ctx}: vocal store");
                    continue;
                }
                _ => {
                    let rmw = (rng.next_u64() % 2 == 0).then_some((AtomicOp::FetchAdd, operand));
                    let sync = mem.sync_access(now, vocal, mute, addr, rmw);
                    assert_eq!(Some(sync.value), before[slot], "{ctx}: sync value");
                    models[pair].insert(line, coherent_line(&mem, line));
                    continue;
                }
            };

            // A mute access: a refill replaces the model's line, a hit must
            // return every word the model knows.
            let known = models[pair].contains_key(&line);
            let words = models[pair].entry(line).or_insert([None; 8]);
            if acc.l1_hit {
                hits += 1;
            } else {
                refills += u64::from(known);
                *words = if acc.incoherent_fill {
                    [None; 8]
                } else {
                    before
                };
            }
            if op == 3 {
                assert_eq!(acc.value, operand, "{ctx}: mute store");
                words[slot] = Some(operand);
            } else {
                if let Some(expected) = words[slot] {
                    assert_eq!(acc.value, expected, "{ctx}: mute read");
                }
                if op == 2 {
                    words[slot] = Some(atomic_update(AtomicOp::FetchAdd, acc.value, operand));
                    mem.atomic_commit(mute, addr, AtomicOp::FetchAdd, operand, acc.value);
                }
            }
            assert_eq!(
                coherent_line(&mem, line),
                before,
                "{ctx}: a mute access changed the coherent image"
            );
        }
    });
    assert!(hits > 0 && refills > 0, "{hits} hits, {refills} refills");
}

/// Deterministic replay: the same seed gives the same RNG stream.
#[test]
fn rng_replay() {
    for_cases(0xA1_000A, |rng| {
        let seed = rng.next_u64();
        let mut a = SimRng::seed_from(seed);
        let mut b = SimRng::seed_from(seed);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    });
}

/// Whole-system determinism: two identically-seeded Reunion systems retire
/// the exact same instruction counts and observe the same incoherence
/// events.
#[test]
fn whole_system_replay_is_bit_identical() {
    use reunion_core::{CmpSystem, ExecutionMode, SystemConfig};
    use reunion_workloads::Workload;
    let workload = Workload::by_name("moldyn").unwrap();
    let cfg = SystemConfig::small_test(ExecutionMode::Reunion);
    let run = |_: ()| {
        let mut sys = CmpSystem::new(&cfg, &workload);
        sys.run(30_000);
        let s = sys.window_stats();
        (
            s.user_instructions,
            s.mismatches,
            s.sync_requests,
            s.tlb_misses,
        )
    };
    assert_eq!(run(()), run(()));
}

// ---------------------------------------------------------------------
// Sharing-model invariants.
// ---------------------------------------------------------------------

/// Builds a randomized sharing-heavy spec; `writers` is the bound under
/// test.
fn racy_spec(rng: &mut SimRng, writers: u32) -> reunion_workloads::WorkloadSpec {
    use reunion_workloads::{SharingModel, WorkloadClass, WorkloadSpec};
    WorkloadSpec {
        name: "prop-sharing",
        class: WorkloadClass::Scientific,
        private_bytes: 1 << 20,
        shared_bytes: 1 << 20,
        locks: 16,
        critical_section_len: 6,
        lock_weight: 0.2,
        shared_read_weight: 1.0,
        private_weight: 2.0,
        compute_weight: 2.0,
        trap_weight: 0.01,
        membar_weight: 0.05,
        chase_weight: 0.0,
        store_fraction: 0.3,
        private_stride: 8 * 40503,
        private_step: 24,
        jump_fraction: 0.01,
        shared_stride: 8 * 9,
        sharing: SharingModel {
            hot_lines: 16,
            writers,
            hot_weight: 1.0,
            hot_write_fraction: 0.5,
            migratory_weight: 0.5,
            producer_consumer_weight: 0.0,
            lock_contention: 0.1,
            contended_locks: 8,
            burst_len: 2,
            write_period: 8,
            contention_period: 8,
        },
        itlb_miss_per_million: 0,
        segments: 48,
        seed: rng.next_u64(),
    }
}

/// Writer-count bounds: a thread outside the writer bound never stores to
/// the hot shared region, while writer threads eventually do.
#[test]
fn sharing_writer_bounds_respected() {
    use reunion_isa::{FunctionalCore, SparseMemory};
    use reunion_workloads::{generate_program, initial_memory};
    let hot_base = reunion_workloads::HOT_BASE;
    let mut rng = SimRng::seed_from(0xA1_000B);
    for case in 0..12 {
        let writers = 1 + (rng.next_u64() % 3) as u32;
        let spec = racy_spec(&mut rng, writers);
        let hot_bytes = spec.sharing.hot_lines * 64;
        // Readers (thread >= writers) must leave every hot word untouched.
        for thread in [writers as usize, writers as usize + 1] {
            let prog = generate_program(&spec, thread);
            let mut mem = SparseMemory::new();
            for (addr, value) in initial_memory(&spec) {
                mem.poke(addr, value);
            }
            let mut core = FunctionalCore::new();
            core.run(&prog, &mut mem, 150_000);
            for line in 0..spec.sharing.hot_lines {
                let addr = reunion_isa::Addr::new(hot_base + line * 64);
                assert_eq!(
                    mem.peek(addr),
                    0,
                    "case {case}: thread {thread} (bound {writers}) wrote hot {addr:?}"
                );
            }
        }
        // Thread 0 is always inside the bound and must eventually write.
        let prog = generate_program(&spec, 0);
        let mut mem = SparseMemory::new();
        for (addr, value) in initial_memory(&spec) {
            mem.poke(addr, value);
        }
        let mut core = FunctionalCore::new();
        core.run(&prog, &mut mem, 150_000);
        let wrote =
            (0..hot_bytes / 8).any(|i| mem.peek(reunion_isa::Addr::new(hot_base + i * 8)) != 0);
        assert!(
            wrote,
            "case {case}: writer thread 0 never wrote the hot region"
        );
    }
}

/// Incoherence counters are monotone over a run (and mismatches dominate
/// input-incoherence events, which dominate nothing below zero).
#[test]
fn incoherence_counters_are_monotone() {
    use reunion_core::{CmpSystem, ExecutionMode, SystemConfig};
    use reunion_workloads::Workload;
    let workload = Workload::by_name("db2_oltp").unwrap();
    let cfg = SystemConfig::small_test(ExecutionMode::Reunion);
    let mut sys = CmpSystem::new(&cfg, &workload);
    let mut last = sys.window_stats();
    for _ in 0..40 {
        sys.run(1_000);
        let s = sys.window_stats();
        assert!(
            s.mismatches >= last.mismatches,
            "mismatches must not decrease"
        );
        assert!(
            s.input_incoherence >= last.input_incoherence,
            "input_incoherence must not decrease"
        );
        assert!(s.sync_requests >= last.sync_requests);
        assert!(
            s.input_incoherence <= s.mismatches,
            "incoherence events are a subset of mismatches"
        );
        last = s;
    }
}

/// Serial and parallel runs of a sharing-heavy grid produce byte-identical
/// reports (the determinism guard, exercised through the new sharing
/// model's raciest paths).
#[test]
fn sharing_model_reports_serial_parallel_parity() {
    use reunion_core::{ExecutionMode, SampleConfig, SystemConfig};
    use reunion_sim::{ExperimentGrid, Runner};
    use reunion_workloads::Workload;
    let grid = ExperimentGrid::builder("prop-parity", "sharing-model parity")
        .base(SystemConfig::small_test)
        .sample(SampleConfig::quick())
        .workloads(vec![
            Workload::by_name("db2_oltp").unwrap(),
            Workload::by_name("moldyn").unwrap(),
        ])
        .modes(&[ExecutionMode::Strict, ExecutionMode::Reunion])
        .build();
    let serial = Runner::serial().run(&grid).to_json();
    let parallel = Runner::with_threads(4).run(&grid).to_json();
    assert_eq!(serial, parallel, "parallel report must be byte-identical");
}

// ---------------------------------------------------------------------
// Hot-path optimization invariants.
// ---------------------------------------------------------------------

/// The slice-by-8 CRC engine agrees with the bit-serial reference LFSR on
/// random widths, streams and chunkings — the fast fold is pure
/// optimization, never a semantic change.
#[test]
fn slice_by_8_crc_matches_bitwise_reference() {
    use reunion_fingerprint::BitwiseCrc;
    for_cases(0xA1_000C, |rng| {
        let width = 1 + (rng.next_u64() % 32) as u32;
        // Any odd polynomial that fits the width (bit 0 set keeps it a
        // proper CRC generator).
        let mask = if width == 32 {
            u32::MAX
        } else {
            (1u32 << width) - 1
        };
        let poly = ((rng.next_u64() as u32) & mask) | 1;
        let init = (rng.next_u64() as u32) & mask;
        let len = (rng.next_u64() % 48) as usize;
        let data: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
        let split = if len == 0 {
            0
        } else {
            (rng.next_u64() as usize) % (len + 1)
        };

        let mut fast = Crc::new(width, poly, init);
        fast.consume(&data[..split]);
        fast.consume(&data[split..]);
        let mut reference = BitwiseCrc::new(width, poly, init);
        reference.consume(&data);
        assert_eq!(
            fast.value(),
            reference.value(),
            "width {width} poly {poly:#x} len {len} split {split}"
        );

        // The u64 lane path (the hot one) agrees too.
        let word = rng.next_u64();
        fast.consume_u64(word);
        reference.consume_u64(word);
        assert_eq!(fast.value(), reference.value());
    });
}

/// Workload artifact caching is invisible in every output byte: a grid
/// over cache-less workloads produces a `BENCH` report byte-identical to
/// the cached default's.
#[test]
fn cached_workload_reports_are_byte_identical() {
    use reunion_core::{ExecutionMode, SampleConfig, SystemConfig};
    use reunion_sim::{ExperimentGrid, Runner};
    use reunion_workloads::Workload;
    let names = ["sparse", "apache"];
    let cached: Vec<Workload> = names
        .iter()
        .map(|n| Workload::by_name(n).unwrap())
        .collect();
    let uncached: Vec<Workload> = cached
        .iter()
        .map(|w| Workload::uncached(w.spec().clone()))
        .collect();
    let build = |workloads: Vec<Workload>| {
        ExperimentGrid::builder("prop-cache-parity", "artifact-cache parity")
            .base(SystemConfig::small_test)
            .sample(SampleConfig::quick())
            .workloads(workloads)
            .modes(&[ExecutionMode::Strict, ExecutionMode::Reunion])
            .build()
    };
    let with_cache = Runner::serial().run(&build(cached)).to_json();
    let without_cache = Runner::serial().run(&build(uncached)).to_json();
    assert_eq!(
        with_cache, without_cache,
        "artifact cache must not change any report byte"
    );
}
