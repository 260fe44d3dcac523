//! The synthetic program generator.
//!
//! Generated programs are SPMD: every thread of a workload runs the *same*
//! loop structure (seeded by the workload, not the thread), with per-thread
//! private base addresses and cursor offsets set up in an init block. Both
//! cores of a logical processor pair run the identical program, so any
//! divergence between them comes from data values alone — exactly the
//! paper's setting.
//!
//! ## Register conventions
//!
//! | register | role |
//! |---|---|
//! | r1 | private-region base (per thread) |
//! | r2 | shared-region base |
//! | r3 | lock-region base |
//! | r4 | private cursor |
//! | r5 | shared cursor |
//! | r6 | data scratch |
//! | r7 | current lock address |
//! | r8 | constant 1 (lock token) |
//! | r9 | atomic result |
//! | r10–r19 | compute chain |
//! | r20 | pointer-chase cursor (holds an absolute address) |
//! | r21 | segment counter |
//! | r22 | address/branch scratch |
//! | r23 | constant 0 (lock release token) |
//! | r24 | thread-affine lock bank base |
//! | r26 | unprotected shared-read cursor |
//! | r27 | thread-affine shared-data slice base |
//! | r28 | common shared-data slice base (globally locked sections) |
//! | r25 | hot shared region base |
//! | r29 | hot-region cursor |
//! | r30 | writer flag (1 iff this thread is within the writer bound) |
//! | r31 | own producer-consumer flag address |
//! | r0  | neighbor producer-consumer flag address |

use reunion_isa::{Addr, AluOp, AtomicOp, BranchCond, Instruction as I, Program, RegId};
use reunion_kernel::SimRng;

use crate::{ProgramBuilder, SharingModel, WorkloadSpec};

/// Base of the lock region (cache-line-separated spin locks).
pub(crate) const LOCK_BASE: u64 = 0x0100_0000;
/// Base of the hot truly-shared region (one word per cache line).
pub const HOT_BASE: u64 = 0x0200_0000;
/// Base of the producer-consumer flag lines (one per thread slot).
pub(crate) const FLAG_BASE: u64 = 0x0300_0000;
/// Number of producer-consumer flag slots (threads wrap modulo this).
pub(crate) const FLAG_SLOTS: u64 = 4;
/// Base of the shared data region.
pub(crate) const SHARED_BASE: u64 = 0x1000_0000;
/// Base of thread 0's private region; threads are spaced widely apart.
pub const PRIVATE_BASE: u64 = 0x4000_0000;
/// Address distance between consecutive threads' private regions.
pub(crate) const PRIVATE_SPACING: u64 = 0x0800_0000;

fn r(i: u8) -> RegId {
    RegId::new(i)
}

/// Generates the program image for `thread` of the given workload.
///
/// # Panics
///
/// Panics if the spec fails [`WorkloadSpec::assert_valid`].
pub fn generate_program(spec: &WorkloadSpec, thread: usize) -> Program {
    spec.assert_valid();
    let mut rng = SimRng::seed_from(spec.seed);
    let mut b = ProgramBuilder::new(format!("{}.t{}", spec.name, thread));

    let priv_base = PRIVATE_BASE + thread as u64 * PRIVATE_SPACING;
    let priv_mask = (spec.private_bytes - 1) as i64;
    let shared_mask = (spec.shared_bytes - 1) as i64;
    let lock_mask = (spec.locks * 64 - 1) as i64;

    // ---- init block -------------------------------------------------
    b.push(I::load_imm(r(1), priv_base as i64));
    b.push(I::load_imm(r(2), SHARED_BASE as i64));
    b.push(I::load_imm(r(3), LOCK_BASE as i64));
    b.push(I::load_imm(r(8), 1));
    b.push(I::load_imm(r(23), 0));
    // Cursor starting offsets are spread per thread so threads do not march
    // through shared data in lockstep.
    b.push(I::load_imm(r(4), (thread as i64 * 0x2218) & priv_mask & !7));
    b.push(I::load_imm(
        r(5),
        (thread as i64 * 0xA6E8) & shared_mask & !7,
    ));
    // Pointer-chase cursor starts at a thread-dependent ring position.
    let chase_start = SHARED_BASE + (((thread as u64 * 100_003) * 64) & (spec.shared_bytes - 1));
    b.push(I::load_imm(r(20), chase_start as i64));
    b.push(I::load_imm(r(21), thread as i64));
    // Thread-affine lock bank. The globally shared bank is 16x larger than
    // a thread bank (real systems have many more latches than any one CPU
    // touches, so cross-CPU lock reuse is rare).
    let bank_bytes = spec.locks * 64;
    b.push(I::load_imm(
        r(24),
        (LOCK_BASE + (16 + thread as u64) * bank_bytes) as i64,
    ));
    b.push(I::load_imm(
        r(26),
        (thread as i64 * 0x1A48) & shared_mask & !7,
    ));
    // Thread-affine critical sections update a per-thread slice of the
    // shared region (a latch protects specific pages); only critical
    // sections under the globally shared lock bank touch common data.
    let slice_bytes = (spec.shared_bytes / 32).max(8192);
    b.push(I::load_imm(
        r(27),
        (SHARED_BASE + thread as u64 * slice_bytes) as i64,
    ));
    // The common slice updated by globally locked critical sections.
    b.push(I::load_imm(r(28), (SHARED_BASE + 31 * slice_bytes) as i64));
    // Sharing model: hot region base/cursor, writer bound flag, and the
    // producer-consumer flag addresses. Threads wrap modulo FLAG_SLOTS so
    // the emitted code is identical across threads (only init constants
    // differ).
    let sharing = &spec.sharing;
    let hot_mask = (sharing.hot_lines * 64 - 1) as i64;
    b.push(I::load_imm(r(25), HOT_BASE as i64));
    b.push(I::load_imm(r(29), (thread as i64 * 0x940) & hot_mask & !63));
    b.push(I::load_imm(
        r(30),
        i64::from((thread as u32) < sharing.writers),
    ));
    let slot = thread as u64 % FLAG_SLOTS;
    b.push(I::load_imm(r(31), (FLAG_BASE + slot * 64) as i64));
    b.push(I::load_imm(
        r(0),
        (FLAG_BASE + ((slot + 1) % FLAG_SLOTS) * 64) as i64,
    ));
    for i in 10..20 {
        b.push(I::load_imm(r(i), (i as i64) * 0x1_2345 + 7));
    }

    let loop_start = b.here();

    // ---- loop body: sampled segments --------------------------------
    let weights = [
        spec.compute_weight,
        spec.private_weight,
        spec.shared_read_weight,
        spec.lock_weight,
        spec.trap_weight,
        spec.membar_weight,
        spec.chase_weight,
        sharing.hot_weight,
        sharing.migratory_weight,
        sharing.producer_consumer_weight,
    ];
    for segment in 0..spec.segments {
        match rng.weighted_index(&weights) {
            0 => emit_compute(&mut b, &mut rng),
            1 => emit_private_access(&mut b, &mut rng, spec, priv_mask),
            2 => emit_shared_read(&mut b, spec, shared_mask),
            3 => {
                let slice_mask = ((spec.shared_bytes / 32).max(8192) - 1) as i64;
                if rng.chance(sharing.lock_contention) {
                    // A contention burst: consecutive critical sections on a
                    // small contended subset of the globally shared bank,
                    // updating the dedicated common slice (r28). Runtime
                    // collisions between threads are the point; the rarity
                    // gate keeps bursts episodic rather than per-iteration.
                    let contended_mask = sharing.contended_locks as i64 * 64 - 1;
                    let rare = emit_rarity_gate(&mut b, &mut rng, sharing.contention_period);
                    for _ in 0..sharing.burst_len {
                        emit_critical_section(
                            &mut b,
                            &mut rng,
                            spec,
                            slice_mask,
                            contended_mask,
                            r(3),
                            r(28),
                        );
                    }
                    b.patch_to_here(rare);
                } else {
                    emit_critical_section(
                        &mut b,
                        &mut rng,
                        spec,
                        slice_mask,
                        lock_mask,
                        r(24),
                        r(27),
                    );
                }
            }
            4 => {
                b.push(I::trap());
            }
            5 => {
                b.push(I::membar());
            }
            6 => emit_chase_step(&mut b),
            7 => emit_hot_access(&mut b, &mut rng, sharing, hot_mask),
            8 => emit_migratory(&mut b, &mut rng, sharing, hot_mask),
            _ => emit_producer_consumer(&mut b, &mut rng, sharing),
        }
        // Periodic lightly-biased conditional branch for predictor work.
        if segment % 3 == 2 {
            b.push(I::add_imm(r(21), r(21), 1));
            b.push(I::alu_imm(AluOp::And, r(22), r(21), 7));
            let skip = b.branch_forward(BranchCond::Eqz, r(22));
            b.push(I::alu_imm(AluOp::Xor, r(10), r(10), 0x5A));
            b.patch_to_here(skip);
        }
    }

    b.jump_to(loop_start);
    b.build().expect("generated programs always validate")
}

/// A short dependent/independent mix of ALU operations.
fn emit_compute(b: &mut ProgramBuilder, rng: &mut SimRng) {
    let len = rng.range(3, 9) as usize;
    for _ in 0..len {
        let dst = r(10 + rng.below(10) as u8);
        let a = r(10 + rng.below(10) as u8);
        match rng.below(4) {
            0 => b.push(I::alu(AluOp::Add, dst, a, r(10 + rng.below(10) as u8))),
            1 => b.push(I::alu_imm(AluOp::Xor, dst, a, rng.below(0xFFFF) as i64)),
            2 => b.push(I::alu_imm(AluOp::Mul, dst, a, (rng.below(13) + 3) as i64)),
            _ => b.push(I::alu_imm(AluOp::Add, dst, a, rng.below(0xFF) as i64)),
        };
    }
}

/// Advance the private cursor and load or store through it.
fn emit_private_access(b: &mut ProgramBuilder, rng: &mut SimRng, spec: &WorkloadSpec, mask: i64) {
    let ops = rng.range(1, 4);
    for _ in 0..ops {
        let advance = if rng.chance(spec.jump_fraction) {
            spec.private_stride
        } else {
            spec.private_step
        };
        b.push(I::add_imm(r(4), r(4), advance as i64));
        b.push(I::alu_imm(AluOp::And, r(4), r(4), mask));
        b.push(I::alu(AluOp::Add, r(22), r(1), r(4)));
        if rng.chance(spec.store_fraction) {
            b.push(I::add_imm(r(6), r(6), 1));
            b.push(I::store(r(22), r(6), 0));
        } else {
            b.push(I::load(r(6), r(22), 0));
        }
    }
}

/// Unprotected shared reads (scans, lookups) — the racy-read side of input
/// incoherence.
fn emit_shared_read(b: &mut ProgramBuilder, spec: &WorkloadSpec, mask: i64) {
    b.push(I::add_imm(r(26), r(26), spec.shared_stride as i64));
    b.push(I::alu_imm(AluOp::And, r(26), r(26), mask));
    b.push(I::alu(AluOp::Add, r(22), r(2), r(26)));
    b.push(I::load(r(6), r(22), 0));
    // Consume the loaded value so divergence propagates into computation.
    b.push(I::alu(AluOp::Xor, r(10), r(10), r(6)));
}

/// A spin-lock critical section updating shared data: the paper's canonical
/// source of both coherence traffic and input incoherence.
fn emit_critical_section(
    b: &mut ProgramBuilder,
    rng: &mut SimRng,
    spec: &WorkloadSpec,
    shared_mask: i64,
    lock_mask: i64,
    bank: RegId,
    data_base: RegId,
) {
    // Pick a lock within the bank as a function of the evolving segment
    // counter.
    b.push(I::alu_imm(AluOp::Shl, r(22), r(21), 6));
    b.push(I::alu_imm(AluOp::And, r(22), r(22), lock_mask));
    b.push(I::alu(AluOp::Add, r(7), bank, r(22)));
    // spin: r9 = swap([r7], 1); bnez r9 -> spin
    let spin = b.here();
    b.push(I::atomic(AtomicOp::Swap, r(9), r(7), r(8), 0));
    b.branch_to(BranchCond::Nez, r(9), spin);
    // Critical section: read-modify-write shared words.
    let body = spec.critical_section_len.max(2);
    for i in 0..body {
        if i % 3 == 0 {
            b.push(I::add_imm(r(5), r(5), spec.shared_stride as i64));
            b.push(I::alu_imm(AluOp::And, r(5), r(5), shared_mask));
            b.push(I::alu(AluOp::Add, r(22), data_base, r(5)));
        }
        if rng.chance(0.5) {
            b.push(I::load(r(6), r(22), 0));
        } else {
            b.push(I::add_imm(r(6), r(6), 3));
            b.push(I::store(r(22), r(6), 0));
        }
    }
    // Release: membar (TSO store-release discipline), then clear the lock.
    b.push(I::membar());
    b.push(I::store(r(7), r(23), 0));
}

/// One dependent-load step of a pointer chase (em3d-style).
fn emit_chase_step(b: &mut ProgramBuilder) {
    b.push(I::load(r(20), r(20), 0));
}

/// Emits a dynamic rarity gate: execution falls through into the gated
/// body roughly once per `period` loop iterations even though the body is
/// a static part of the loop. Returns the branch to patch past the body.
///
/// The segment counter (r21) advances by a fixed stride per iteration, so
/// its raw low bits cycle through only one residue class at any given
/// segment; folding the high bits in with an XOR makes the gated value
/// walk all residues and the random phase picks which iteration fires.
fn emit_rarity_gate(b: &mut ProgramBuilder, rng: &mut SimRng, period: u64) -> usize {
    let phase = rng.below(period) as i64;
    b.push(I::alu_imm(AluOp::Shr, r(22), r(21), 5));
    b.push(I::alu(AluOp::Xor, r(22), r(22), r(21)));
    b.push(I::alu_imm(AluOp::And, r(22), r(22), period as i64 - 1));
    b.push(I::alu_imm(AluOp::Xor, r(22), r(22), phase));
    b.branch_forward(BranchCond::Nez, r(22))
}

/// A hot-region access: read the next hot line; rarely (rarity-gated, and
/// only on threads inside the writer bound, r30) store an updated value
/// back.
///
/// Remote stores to these truly shared lines leave mute caches holding
/// stale snapshots — the paper's canonical input-incoherence source for
/// unprotected reads.
fn emit_hot_access(
    b: &mut ProgramBuilder,
    rng: &mut SimRng,
    sharing: &SharingModel,
    hot_mask: i64,
) {
    b.push(I::add_imm(r(29), r(29), 64));
    b.push(I::alu_imm(AluOp::And, r(29), r(29), hot_mask));
    b.push(I::alu(AluOp::Add, r(22), r(25), r(29)));
    b.push(I::load(r(6), r(22), 0));
    // Consume the value so divergence propagates into computation.
    b.push(I::alu(AluOp::Xor, r(10), r(10), r(6)));
    if rng.chance(sharing.hot_write_fraction) {
        let rare = emit_rarity_gate(b, rng, sharing.write_period);
        let skip = b.branch_forward(BranchCond::Eqz, r(30));
        b.push(I::alu(AluOp::Add, r(22), r(25), r(29)));
        b.push(I::add_imm(r(6), r(6), 1));
        b.push(I::store(r(22), r(6), 0));
        b.patch_to_here(rare);
        b.patch_to_here(skip);
    }
}

/// A migratory read-modify-write: the line index follows the evolving
/// segment counter, so line ownership migrates between threads as their
/// counters coincide. Stores are rarity-gated and bounded by the writer
/// flag (r30).
fn emit_migratory(b: &mut ProgramBuilder, rng: &mut SimRng, sharing: &SharingModel, hot_mask: i64) {
    b.push(I::alu_imm(AluOp::Shl, r(22), r(21), 6));
    b.push(I::alu_imm(AluOp::And, r(22), r(22), hot_mask));
    b.push(I::alu(AluOp::Add, r(22), r(25), r(22)));
    b.push(I::load(r(6), r(22), 0));
    let rare = emit_rarity_gate(b, rng, sharing.write_period);
    let skip = b.branch_forward(BranchCond::Eqz, r(30));
    b.push(I::alu_imm(AluOp::Shl, r(22), r(21), 6));
    b.push(I::alu_imm(AluOp::And, r(22), r(22), hot_mask));
    b.push(I::alu(AluOp::Add, r(22), r(25), r(22)));
    b.push(I::add_imm(r(6), r(6), 3));
    b.push(I::store(r(22), r(6), 0));
    b.patch_to_here(rare);
    b.patch_to_here(skip);
}

/// A producer-consumer hand-off: rarely publish this thread's flag line,
/// always poll the neighbor's. Each flag line has a single producer by
/// construction, so the writer bound holds trivially.
fn emit_producer_consumer(b: &mut ProgramBuilder, rng: &mut SimRng, sharing: &SharingModel) {
    let rare = emit_rarity_gate(b, rng, sharing.write_period);
    b.push(I::add_imm(r(6), r(6), 1));
    b.push(I::store(r(31), r(6), 0));
    b.patch_to_here(rare);
    b.push(I::load(r(6), r(0), 0));
    b.push(I::alu(AluOp::Xor, r(10), r(10), r(6)));
}

/// Initial memory contents required by the workload: released locks,
/// zeroed hot and flag lines, and the pointer-chase ring through the shared
/// region (one pointer per cache line) — in ascending address order when
/// each region fits below the next, as in every suite spec.
///
/// The ring visits every line of the shared region in a strided order, so a
/// chase's working set is the full region — em3d's defining property. The
/// words are yielded, not collected: em3d's ring is half a million of them,
/// and [`BaseImage::new`](reunion_isa::BaseImage::new) stores them as they
/// come.
pub fn initial_memory(spec: &WorkloadSpec) -> impl Iterator<Item = (Addr, u64)> {
    let zeroed = |base: u64, lines: u64| (0..lines).map(move |i| (Addr::new(base + i * 64), 0));
    // Locks must start released: unwritten words read as a nonzero hash,
    // which would leave every spin lock permanently "held". Bank 0 is the
    // globally shared bank; banks 1..=32 are thread-affine.
    let locks = zeroed(LOCK_BASE, spec.locks * (16 + 32));
    // Hot shared lines and producer-consumer flags start at zero so reads
    // observe defined data rather than the uninitialized-word hash.
    let hot = zeroed(HOT_BASE, spec.sharing.hot_lines);
    let flags = zeroed(FLAG_BASE, FLAG_SLOTS);
    // A sequential ring over every line of the region: the working set is
    // the full region (em3d's defining property) with realistic page
    // locality (one DTLB miss per 128 chased lines).
    let lines = if spec.chase_weight > 0.0 {
        spec.shared_bytes / 64
    } else {
        0
    };
    let pos = move |i: u64| SHARED_BASE + (i % lines) * 64;
    let ring = (0..lines).map(move |i| (Addr::new(pos(i)), pos(i + 1)));
    locks.chain(hot).chain(flags).chain(ring)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadClass;
    use reunion_isa::{FunctionalCore, Opcode, SparseMemory};

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "gen-test",
            class: WorkloadClass::Oltp,
            private_bytes: 1 << 20,
            shared_bytes: 1 << 20,
            locks: 16,
            critical_section_len: 6,
            lock_weight: 1.0,
            shared_read_weight: 1.0,
            private_weight: 3.0,
            compute_weight: 4.0,
            trap_weight: 0.2,
            membar_weight: 0.2,
            chase_weight: 0.0,
            store_fraction: 0.3,
            private_stride: 8 * 40503,
            private_step: 24,
            jump_fraction: 0.05,
            shared_stride: 8 * 10501,
            sharing: SharingModel::derived(0.1, 1.0),
            itlb_miss_per_million: 1000,
            segments: 48,
            seed: 99,
        }
    }

    #[test]
    fn generated_program_validates_and_loops() {
        let prog = generate_program(&spec(), 0);
        assert!(prog.len() > 100);
        let mut mem = SparseMemory::new();
        let mut core = FunctionalCore::new();
        let steps = core.run(&prog, &mut mem, 50_000);
        assert_eq!(steps, 50_000, "program must loop forever");
    }

    #[test]
    fn threads_share_code_structure_but_differ_in_bases() {
        let p0 = generate_program(&spec(), 0);
        let p1 = generate_program(&spec(), 1);
        assert_eq!(p0.len(), p1.len());
        // The loop bodies (after init) are identical.
        let diff = p0
            .iter()
            .zip(p1.iter())
            .filter(|((_, a), (_, b))| a != b)
            .count();
        assert!(diff > 0, "private bases must differ");
        assert!(
            diff < 16,
            "only init-block constants may differ, got {diff}"
        );
    }

    #[test]
    fn cursor_addresses_stay_in_region() {
        let s = spec();
        let prog = generate_program(&s, 2);
        let mut mem = SparseMemory::new();
        let mut core = FunctionalCore::new();
        for _ in 0..100_000 {
            let effect = core.step(&prog, &mut mem);
            if effect.is_none() {
                break;
            }
        }
        // Private cursor bounded by the mask.
        let cursor = core.state.regs.read(r(4));
        assert!(cursor < s.private_bytes);
        let shared_cursor = core.state.regs.read(r(5));
        assert!(shared_cursor < s.shared_bytes);
    }

    #[test]
    fn serializing_mix_present() {
        let prog = generate_program(&spec(), 0);
        let serializing = prog.count_matching(|op| op.is_serializing());
        let total = prog.len();
        assert!(serializing > 0);
        // Lock-heavy OLTP spec: a visible but minority fraction.
        assert!(serializing * 4 < total, "{serializing}/{total}");
    }

    #[test]
    fn lock_protocol_is_balanced() {
        // Every atomic swap (acquire) has a matching release store to r7.
        let prog = generate_program(&spec(), 0);
        let acquires = prog.count_matching(|op| matches!(op, Opcode::Atomic(_)));
        let releases = prog
            .iter()
            .filter(|(_, i)| i.op == Opcode::Store && i.src1 == Some(r(7)))
            .count();
        assert_eq!(acquires, releases);
        assert!(acquires > 0);
    }

    #[test]
    fn chase_ring_is_closed_and_in_region() {
        let mut s = spec();
        s.chase_weight = 2.0;
        s.shared_bytes = 1 << 16; // 1024 lines for a fast test
        let init: Vec<_> = initial_memory(&s).collect();
        let static_init = (s.locks * 48 + s.sharing.hot_lines + FLAG_SLOTS) as usize;
        assert_eq!(init.len(), (s.shared_bytes / 64) as usize + static_init);
        // Follow the ring; it must return to the start after exactly
        // `lines` hops, visiting every line once.
        let map: std::collections::HashMap<u64, u64> = init
            .iter()
            .filter(|(a, _)| a.as_u64() >= SHARED_BASE)
            .map(|(a, v)| (a.as_u64(), *v))
            .collect();
        let start = SHARED_BASE;
        let mut at = start;
        let mut seen = std::collections::HashSet::new();
        loop {
            assert!(seen.insert(at), "ring revisits {at:#x}");
            assert!(at >= SHARED_BASE && at < SHARED_BASE + s.shared_bytes);
            at = map[&at];
            if at == start {
                break;
            }
        }
        assert_eq!(seen.len(), (s.shared_bytes / 64) as usize);
    }

    #[test]
    fn no_chase_still_initializes_locks_and_hot_lines() {
        let s = spec();
        let init: Vec<_> = initial_memory(&s).collect();
        assert_eq!(
            init.len() as u64,
            s.locks * 48 + s.sharing.hot_lines + FLAG_SLOTS
        );
        assert!(init.iter().all(|(a, v)| *v == 0 && a.as_u64() >= LOCK_BASE));
    }

    #[test]
    fn same_spec_same_program() {
        let a = generate_program(&spec(), 3);
        let b = generate_program(&spec(), 3);
        assert_eq!(a, b);
    }
}
