//! The shared-cache-controller memory system.
//!
//! One [`MemorySystem`] instance models everything below the core pipelines:
//! all private L1s (vocal and mute), the banked shared L2 with its inclusive
//! directory, the crossbar, and main memory. The shared cache controller is
//! where the Reunion semantics live (§4.2): it transforms mute requests into
//! phantom requests, ignores mute evictions and writebacks, and implements
//! the synchronizing request used by the re-execution protocol.

use reunion_isa::{Addr, AtomicOp, SparseMemory, WORDS_PER_LINE};
use reunion_kernel::Cycle;

use crate::{
    garbage_word, BankedArbiter, CacheArray, DirEntry, L1Id, MemConfig, MemStats, MesiState, Owner,
    PhantomStrength,
};

/// The result of a memory access: the data value and when it completes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// The 8-byte value read (old value for atomics; the stored value for
    /// plain stores).
    pub value: u64,
    /// Cycle at which the requesting core observes completion.
    pub done_at: Cycle,
    /// Whether the access hit in the private L1.
    pub l1_hit: bool,
    /// Whether a miss hit in the shared L2 (false on L1 hits too).
    pub l2_hit: bool,
    /// Whether the fill used arbitrary (non-coherent) phantom data.
    pub incoherent_fill: bool,
}

/// The result of a synchronizing request: one coherent value delivered
/// atomically to both halves of a logical processor pair (Definition 10).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SyncOutcome {
    /// The single coherent value returned to both cores (the *old* memory
    /// value for read-modify-writes).
    pub value: u64,
    /// Completion cycle, identical for both cores.
    pub done_at: Cycle,
}

#[derive(Debug)]
struct L1State {
    tags: L1Tags,
    /// Completion times (raw cycles) of outstanding misses, pruned lazily.
    outstanding: Vec<u64>,
}

/// A private L1's lines and what each one carries.
#[derive(Debug)]
enum L1Tags {
    /// A vocal L1: each line's MESI state. Its data is the coherent image.
    Vocal(CacheArray<MesiState>),
    /// A mute L1: each line's private, possibly stale, copy of its words.
    /// Nothing else reads a copy, and the controller ignores its eviction,
    /// so the copy lives and dies with its way; a mute has no MESI state.
    Mute(CacheArray<[u64; WORDS_PER_LINE]>),
}

impl L1State {
    fn is_mute(&self) -> bool {
        matches!(self.tags, L1Tags::Mute(_))
    }

    /// The tags of a vocal L1.
    ///
    /// # Panics
    ///
    /// Panics on a mute L1: the directory never lists one as a sharer or
    /// owner, so reaching one through the directory is a protocol bug.
    fn vocal(&mut self) -> &mut CacheArray<MesiState> {
        match &mut self.tags {
            L1Tags::Vocal(tags) => tags,
            L1Tags::Mute(_) => panic!("a mute L1 reached through the directory"),
        }
    }

    /// The line copies of a mute L1.
    ///
    /// # Panics
    ///
    /// Panics on a vocal L1.
    fn mute(&mut self) -> &mut CacheArray<[u64; WORDS_PER_LINE]> {
        match &mut self.tags {
            L1Tags::Mute(copies) => copies,
            L1Tags::Vocal(_) => panic!("a vocal L1 taken for a mute"),
        }
    }
}

#[derive(Debug)]
struct L2State {
    tags: CacheArray<DirEntry>,
    /// Crossbar ports + bank queues + bank occupancy; under the default
    /// `xbar_ports = 0` / `bank_queue_depth = 0` sentinels this is exactly
    /// the historical scalar `bank_free` timestamp model.
    arbiter: BankedArbiter,
}

/// The CMP memory hierarchy below the core pipelines.
///
/// See the [crate docs](crate) for the modeling approach. All methods take
/// the current cycle and return completion times; the system never advances
/// time itself.
#[derive(Debug)]
pub struct MemorySystem {
    cfg: MemConfig,
    image: SparseMemory,
    l1s: Vec<L1State>,
    l2: L2State,
    /// Monotonic counter distinguishing garbage fills.
    epoch: u64,
    stats: MemStats,
}

impl MemorySystem {
    /// Creates a memory system with no registered L1s and an empty
    /// coherent image.
    pub fn new(cfg: MemConfig) -> Self {
        Self::with_image(cfg, SparseMemory::new())
    }

    /// Creates a memory system with no registered L1s whose coherent image
    /// starts as `image` — typically an empty write layer
    /// ([`SparseMemory::over`]) on a workload's shared initial image, so
    /// the system owns only the words it stores. Tag storage is as lazy as
    /// the image: the L2 directory costs one slot per set here, and a set
    /// gets ways only as lines are brought into it ([`CacheArray`]).
    pub fn with_image(cfg: MemConfig, image: SparseMemory) -> Self {
        let l2 = L2State {
            tags: CacheArray::new(cfg.l2_lines(), cfg.l2_assoc),
            arbiter: BankedArbiter::new(&cfg),
        };
        MemorySystem {
            cfg,
            image,
            l1s: Vec::new(),
            l2,
            epoch: 0,
            stats: MemStats::new(),
        }
    }

    /// Registers a private L1 cache and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 L1s are registered (directory bitmap limit).
    pub fn register_l1(&mut self, owner: Owner) -> L1Id {
        assert!(self.l1s.len() < 64, "at most 64 private L1s supported");
        let id = L1Id(self.l1s.len());
        let (lines, assoc) = (self.cfg.l1_lines(), self.cfg.l1_assoc);
        let tags = if owner.is_mute() {
            L1Tags::Mute(CacheArray::new(lines, assoc))
        } else {
            L1Tags::Vocal(CacheArray::new(lines, assoc))
        };
        self.l1s.push(L1State {
            tags,
            outstanding: Vec::new(),
        });
        id
    }

    /// The configuration in use.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Mutable statistics access (for resetting between windows).
    pub fn stats_mut(&mut self) -> &mut MemStats {
        &mut self.stats
    }

    /// Reads the globally coherent value of the word containing `addr`.
    pub fn peek_coherent(&self, addr: Addr) -> u64 {
        self.image.peek(addr)
    }

    /// Writes the coherent image directly (workload initialization).
    pub fn poke(&mut self, addr: Addr, value: u64) {
        self.image.poke(addr, value);
    }

    /// Whether `l1` currently caches the line containing `addr`.
    #[cfg(test)]
    fn l1_contains(&self, l1: L1Id, addr: Addr) -> bool {
        match &self.l1s[l1.0].tags {
            L1Tags::Vocal(tags) => tags.contains(addr.line_index()),
            L1Tags::Mute(copies) => copies.contains(addr.line_index()),
        }
    }

    /// Number of sets of `l1` a line has ever been brought into.
    #[cfg(test)]
    fn l1_sets_materialised(&self, l1: L1Id) -> usize {
        match &self.l1s[l1.0].tags {
            L1Tags::Vocal(tags) => tags.materialised_sets(),
            L1Tags::Mute(copies) => copies.materialised_sets(),
        }
    }

    /// Number of L2 sets a line has ever been brought into — the part of
    /// the directory this system owns storage for
    /// ([`CacheArray::materialised_sets`]).
    pub fn l2_sets_materialised(&self) -> usize {
        self.l2.tags.materialised_sets()
    }

    /// Number of L2 directory ways this system owns storage for
    /// ([`CacheArray::ways_allocated`]): at most `l2_assoc` a materialised
    /// set, fewer where a set has held fewer lines.
    pub fn l2_ways_allocated(&self) -> usize {
        self.l2.tags.ways_allocated()
    }

    /// The value `l1` would read for `addr` *right now* without timing
    /// effects: the mute's copy if `l1` is a mute cache holding the line,
    /// otherwise the coherent value.
    #[cfg(test)]
    fn peek_view(&self, l1: L1Id, addr: Addr) -> u64 {
        match &self.l1s[l1.0].tags {
            L1Tags::Mute(copies) => copies
                .peek(addr.line_index())
                .map(|words| words[Self::word_slot(addr)])
                .unwrap_or_else(|| self.image.peek(addr)),
            L1Tags::Vocal(_) => self.image.peek(addr),
        }
    }

    #[inline]
    fn word_slot(addr: Addr) -> usize {
        (addr.line_offset() / 8) as usize
    }

    fn garbage_line_words(line: u64, epoch: u64) -> [u64; WORDS_PER_LINE] {
        let base = line * reunion_isa::LINE_BYTES;
        let mut words = [0u64; WORDS_PER_LINE];
        for (i, word) in words.iter_mut().enumerate() {
            *word = garbage_word(base + i as u64 * 8, epoch);
        }
        words
    }

    /// Applies MSHR back-pressure: if all MSHRs are busy at `now`, the miss
    /// cannot start until the earliest outstanding one completes.
    fn miss_start_time(&mut self, l1: usize, now: u64) -> u64 {
        let st = &mut self.l1s[l1];
        st.outstanding.retain(|&t| t > now);
        if st.outstanding.len() < self.cfg.l1_mshrs {
            now
        } else {
            let earliest = st.outstanding.iter().copied().min().unwrap_or(now);
            let start = earliest.max(now);
            st.outstanding.retain(|&t| t > start);
            start
        }
    }

    /// Admits a request through the crossbar arbiter into an L2 bank and
    /// returns the time the bank begins service.
    fn bank_service(&mut self, line: u64, request_at: u64) -> u64 {
        let bank = (line as usize) % self.cfg.l2_banks;
        self.l2.arbiter.service(bank, request_at, &mut self.stats)
    }

    /// Looks up the L2 for a coherent fill, allocating on miss (inclusive
    /// hierarchy: L2 victims invalidate vocal L1 copies). Returns
    /// `(l2_hit, data_ready_time)`.
    fn l2_fill(&mut self, line: u64, bank_start: u64) -> (bool, u64) {
        if self.l2.tags.lookup(line).is_some() {
            (true, bank_start + self.cfg.l2_hit_latency)
        } else {
            self.stats.l2_misses.incr();
            let ready = bank_start + self.cfg.l2_hit_latency + self.cfg.dram_latency;
            if let Some((victim_line, victim_dir)) = self.l2.tags.insert(line, DirEntry::new()) {
                // Inclusive L2: back-invalidate vocal L1 copies of the victim.
                for s in victim_dir.sharers() {
                    if self.l1s[s.0].vocal().invalidate(victim_line).is_some() {
                        self.stats.invalidations.incr();
                    }
                }
            }
            (false, ready)
        }
    }

    /// Inserts `line` into vocal L1 `l1`; a victim leaves the directory.
    fn l1_fill(&mut self, l1: usize, line: u64, state: MesiState) {
        if let Some((victim_line, _)) = self.l1s[l1].vocal().insert(line, state) {
            if let Some(dir) = self.l2.tags.lookup(victim_line) {
                dir.remove_sharer(L1Id(l1));
            }
        }
    }

    /// A coherent read by a vocal L1, or a phantom read by a mute L1.
    ///
    /// Vocal reads maintain MESI state and the L2 directory exactly as in a
    /// non-redundant design. Mute reads become phantom requests of the given
    /// [`PhantomStrength`] and never perturb coherence state.
    pub fn load(&mut self, now: Cycle, l1: L1Id, addr: Addr, strength: PhantomStrength) -> Access {
        let line = addr.line_index();
        let idx = l1.0;
        let now_raw = now.as_u64();

        if self.l1s[idx].is_mute() {
            return self.mute_access(now_raw, idx, addr, strength, |word| word);
        }

        // Vocal L1 hit.
        if self.l1s[idx].vocal().lookup(line).is_some() {
            self.stats.l1_hits.incr();
            return Access {
                value: self.image.peek(addr),
                done_at: now + self.cfg.l1_hit_latency,
                l1_hit: true,
                l2_hit: false,
                incoherent_fill: false,
            };
        }

        // Vocal miss: coherent GetS through the shared controller.
        self.stats.l1_misses.incr();
        let start = self.miss_start_time(idx, now_raw);
        let bank_start = self.bank_service(line, start + self.cfg.crossbar_latency);
        let (l2_hit, mut ready) = self.l2_fill(line, bank_start);

        // Directory: a Modified/Exclusive owner elsewhere is downgraded
        // (its data is already reflected in the image at drain time, so the
        // forward is a timing event).
        let mut was_owned = false;
        if let Some(dir) = self.l2.tags.lookup(line) {
            if let Some(owner) = dir.owner() {
                if owner.0 != idx {
                    was_owned = true;
                    dir.downgrade_owner();
                }
            }
            dir.add_sharer(L1Id(idx));
        }
        if was_owned {
            // Dirty-forward from the owner's L1: roughly one more L2 trip.
            ready += self.cfg.l2_hit_latency / 2;
            // The former owner keeps the line Shared. Every vocal L1 that
            // holds the line is a sharer, so the walk reaches it.
            if let Some(dir) = self.l2.tags.peek(line) {
                for peer in dir.sharers_except(L1Id(idx)) {
                    if let Some(st) = self.l1s[peer.0].vocal().lookup(line) {
                        if st.can_write() {
                            *st = MesiState::Shared;
                        }
                    }
                }
            }
        }

        let alone = self
            .l2
            .tags
            .peek(line)
            .map(|d| d.sharer_count() <= 1)
            .unwrap_or(true);
        let state = if alone {
            MesiState::Exclusive
        } else {
            MesiState::Shared
        };
        self.l1_fill(idx, line, state);
        self.l1s[idx].outstanding.push(ready);

        Access {
            value: self.image.peek(addr),
            done_at: Cycle::new(ready),
            l1_hit: false,
            l2_hit,
            incoherent_fill: false,
        }
    }

    /// A mute L1's access to the word at `addr`: returns the word its copy
    /// of the line holds and replaces that word with `update(word)` (the
    /// identity for a load). A miss fills the copy with a phantom request
    /// of the given [`PhantomStrength`] and evicts the set's LRU copy,
    /// which the controller never hears of.
    fn mute_access(
        &mut self,
        now: u64,
        idx: usize,
        addr: Addr,
        strength: PhantomStrength,
        update: impl FnOnce(u64) -> u64,
    ) -> Access {
        let line = addr.line_index();
        let slot = Self::word_slot(addr);

        // Mute L1 hit: its private (possibly stale) copy.
        if let Some(words) = self.l1s[idx].mute().lookup(line) {
            self.stats.l1_hits.incr();
            let value = words[slot];
            words[slot] = update(value);
            return Access {
                value,
                done_at: Cycle::new(now + self.cfg.l1_hit_latency),
                l1_hit: true,
                l2_hit: false,
                incoherent_fill: false,
            };
        }

        // Phantom request on behalf of the mute.
        self.stats.l1_misses.incr();
        self.stats.phantom_requests.incr();
        self.epoch += 1;

        let (mut words, done, l2_hit, incoherent) = match strength {
            PhantomStrength::Null => {
                // Arbitrary data on any L1 miss; no hierarchy search.
                let words = Self::garbage_line_words(line, self.epoch);
                (
                    words,
                    now + self.cfg.l1_hit_latency + self.cfg.crossbar_latency,
                    false,
                    true,
                )
            }
            PhantomStrength::Shared => {
                let start = self.miss_start_time(idx, now);
                let bank_start = self.bank_service(line, start + self.cfg.crossbar_latency);
                // Checks the shared cache without changing coherence state.
                if self.l2.tags.contains(line) {
                    let words = self.image.peek_line(line);
                    (words, bank_start + self.cfg.l2_hit_latency, true, false)
                } else {
                    self.stats.l2_misses.incr();
                    let words = Self::garbage_line_words(line, self.epoch);
                    (words, bank_start + self.cfg.l2_hit_latency, false, true)
                }
            }
            PhantomStrength::Global => {
                let start = self.miss_start_time(idx, now);
                let bank_start = self.bank_service(line, start + self.cfg.crossbar_latency);
                let l2_hit = self.l2.tags.contains(line);
                let latency = if l2_hit {
                    self.cfg.l2_hit_latency
                } else {
                    self.stats.l2_misses.incr();
                    // Non-coherent off-chip read; does not allocate in L2.
                    self.cfg.l2_hit_latency + self.cfg.dram_latency
                };
                let words = self.image.peek_line(line);
                (words, bank_start + latency, l2_hit, false)
            }
        };

        if incoherent {
            self.stats.phantom_garbage_fills.incr();
        }

        // The evicted copy, if any, is dropped: the controller ignores mute
        // evictions and writebacks.
        let value = words[slot];
        words[slot] = update(value);
        self.l1s[idx].mute().insert(line, words);
        self.l1s[idx].outstanding.push(done);

        Access {
            value,
            done_at: Cycle::new(done),
            l1_hit: false,
            l2_hit,
            incoherent_fill: incoherent,
        }
    }

    /// Drains one retired store into the memory system.
    ///
    /// For a vocal L1 this is the point where the store becomes globally
    /// visible: the coherent image is updated and other vocal sharers are
    /// invalidated (write-invalidate protocol). For a mute L1 the store only
    /// updates the mute's private copy — mute updates are never exposed.
    pub fn drain_store(&mut self, now: Cycle, l1: L1Id, addr: Addr, value: u64) -> Access {
        let line = addr.line_index();
        let idx = l1.0;
        let now_raw = now.as_u64();

        if self.l1s[idx].is_mute() {
            // Write-allocate: a miss fills through a Global phantom read,
            // because store misses are rare and the stored word is
            // overwritten regardless. The fill is non-coherent either way.
            let fill = self.mute_access(now_raw, idx, addr, PhantomStrength::Global, |_| value);
            let done_at = if fill.l1_hit {
                now + 1
            } else {
                fill.done_at + 1
            };
            return Access {
                value,
                done_at,
                ..fill
            };
        }

        // Fast path: already writable.
        if let Some(state) = self.l1s[idx].vocal().lookup(line) {
            if state.can_write() {
                *state = MesiState::Modified;
                self.stats.l1_hits.incr();
                self.image.poke(addr, value);
                return Access {
                    value,
                    done_at: now + 1,
                    l1_hit: true,
                    l2_hit: false,
                    incoherent_fill: false,
                };
            }
        }

        // Upgrade / read-for-ownership through the shared controller.
        let (ready, l2_hit) = self.vocal_rfo(idx, line, now_raw);
        self.image.poke(addr, value);

        Access {
            value,
            done_at: Cycle::new(ready),
            l1_hit: false,
            l2_hit,
            incoherent_fill: false,
        }
    }

    /// The read half of an atomic read-modify-write.
    ///
    /// For a vocal L1 this performs a coherent read-for-ownership —
    /// invalidating other sharers and taking exclusive ownership — and
    /// returns the current coherent value *without* updating memory; the
    /// write half ([`atomic_commit`](Self::atomic_commit)) is applied at
    /// retirement, after output comparison, so the update never becomes
    /// visible (even to the pair's own mute) before it is checked
    /// (Definition 7). Mute atomics read and update only the mute's private
    /// view.
    pub fn atomic_read(
        &mut self,
        now: Cycle,
        l1: L1Id,
        addr: Addr,
        op: AtomicOp,
        operand: u64,
        strength: PhantomStrength,
    ) -> Access {
        let idx = l1.0;
        if self.l1s[idx].is_mute() {
            let read = self.mute_access(now.as_u64(), idx, addr, strength, |old| {
                reunion_isa::atomic_update(op, old, operand)
            });
            return Access {
                done_at: read.done_at + 2,
                ..read
            };
        }

        let old = self.image.peek(addr);
        // Read-for-ownership timing: same path as a store upgrade, but the
        // image is left untouched until commit.
        let line = addr.line_index();
        let (timing, l1_hit, l2_hit) = match self.l1s[idx].vocal().lookup(line) {
            Some(state) if state.can_write() => {
                *state = MesiState::Modified;
                self.stats.l1_hits.incr();
                (now.as_u64() + self.cfg.l1_hit_latency, true, false)
            }
            _ => {
                let (t, h) = self.vocal_rfo(idx, line, now.as_u64());
                (t, false, h)
            }
        };
        Access {
            value: old,
            done_at: Cycle::new(timing + 2),
            l1_hit,
            l2_hit,
            incoherent_fill: false,
        }
    }

    /// The write half of a vocal atomic, applied at retirement after output
    /// comparison. A no-op for a mute L1, whose atomics updated its private
    /// view at read time and never reach the coherent image.
    ///
    /// `old_read` is the value the read half returned. If the RMW is a
    /// value no-op with respect to it (a failed test-and-set writing back
    /// the held-lock token), the commit is skipped entirely — otherwise a
    /// spinning core would clobber a release that landed between its read
    /// and its retirement. For value-changing updates the new value is
    /// recomputed against the *current* coherent value so a concurrent
    /// writer in the read-to-commit window is not lost (swaps write the
    /// operand either way; fetch-add increments compose).
    pub fn atomic_commit(
        &mut self,
        l1: L1Id,
        addr: Addr,
        op: AtomicOp,
        operand: u64,
        old_read: u64,
    ) {
        if self.l1s[l1.0].is_mute() || reunion_isa::atomic_update(op, old_read, operand) == old_read
        {
            return;
        }
        let line = addr.line_index();
        // Re-invalidate any vocal sharer that joined since the read.
        self.invalidate_other_sharers(line, l1);
        let current = self.image.peek(addr);
        self.image
            .poke(addr, reunion_isa::atomic_update(op, current, operand));
    }

    /// Invalidates `line` in every vocal sharer but `keep`, counting each
    /// L1 that still held it. The directory iterator only borrows
    /// `self.l2`; the invalidations touch `self.l1s` and `self.stats`, so no
    /// intermediate collection is needed.
    ///
    /// The sharer bits stay set, so the directory keeps a stale sharer for
    /// every L1 invalidated here. This is the one place the fix belongs
    /// (ROADMAP item 12, step 2); clearing the bits can move simulated
    /// numbers, because `load` reads the sharer count.
    fn invalidate_other_sharers(&mut self, line: u64, keep: L1Id) {
        if let Some(d) = self.l2.tags.peek(line) {
            for s in d.sharers_except(keep) {
                if self.l1s[s.0].vocal().invalidate(line).is_some() {
                    self.stats.invalidations.incr();
                }
            }
        }
    }

    /// Coherent read-for-ownership used by vocal store upgrades and
    /// atomics: bank + L2 timing, sharer invalidation, directory ownership,
    /// L1 fill in Modified. Returns `(ready_at, l2_hit)`.
    fn vocal_rfo(&mut self, idx: usize, line: u64, now: u64) -> (u64, bool) {
        self.stats.l1_misses.incr();
        let start = self.miss_start_time(idx, now);
        let bank_start = self.bank_service(line, start + self.cfg.crossbar_latency);
        let (l2_hit, ready) = self.l2_fill(line, bank_start);
        self.invalidate_other_sharers(line, L1Id(idx));
        if let Some(dir) = self.l2.tags.lookup(line) {
            dir.set_owner(L1Id(idx));
        }
        self.l1_fill(idx, line, MesiState::Modified);
        self.l1s[idx].outstanding.push(ready);
        (ready, l2_hit)
    }

    /// Performs a synchronizing request on behalf of a logical processor
    /// pair (Definition 10): flushes the block from both private caches,
    /// executes one coherent transaction, and atomically delivers a single
    /// value to both cores.
    ///
    /// With `rmw` the transaction has both load and store semantics (the
    /// single-stepped instruction may be an atomic); the returned value is
    /// the old memory value.
    ///
    /// # Panics
    ///
    /// Panics if `vocal` is a mute cache or `mute` is a vocal cache.
    pub fn sync_access(
        &mut self,
        now: Cycle,
        vocal: L1Id,
        mute: L1Id,
        addr: Addr,
        rmw: Option<(AtomicOp, u64)>,
    ) -> SyncOutcome {
        assert!(
            !self.l1s[vocal.0].is_mute(),
            "sync: vocal handle is a mute cache"
        );
        assert!(
            self.l1s[mute.0].is_mute(),
            "sync: mute handle is a vocal cache"
        );
        let line = addr.line_index();

        // Flush: the vocal copy returns to the shared cache (its data is
        // already reflected in the image at drain time), the mute copy is
        // discarded.
        if self.l1s[vocal.0].vocal().invalidate(line).is_some() {
            if let Some(dir) = self.l2.tags.lookup(line) {
                dir.remove_sharer(vocal);
            }
        }
        self.l1s[mute.0].mute().invalidate(line);

        // One coherent write transaction on behalf of the pair. Latency is
        // comparable to a shared-cache hit (§4.2).
        let bank_start = self.bank_service(line, now.as_u64() + self.cfg.crossbar_latency);
        let (_, ready) = self.l2_fill(line, bank_start);

        // Invalidate remaining vocal sharers (write semantics).
        self.invalidate_other_sharers(line, vocal);

        let old = self.image.peek(addr);
        if let Some((op, operand)) = rmw {
            let new = reunion_isa::atomic_update(op, old, operand);
            self.image.poke(addr, new);
        }
        if let Some(dir) = self.l2.tags.lookup(line) {
            dir.set_owner(vocal);
        }

        // Refill both halves coherently and atomically.
        self.l1_fill(vocal.0, line, MesiState::Modified);
        let words = self.image.peek_line(line);
        self.l1s[mute.0].mute().insert(line, words);

        SyncOutcome {
            value: old,
            done_at: Cycle::new(ready),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_pair_system() -> (MemorySystem, L1Id, L1Id, L1Id, L1Id) {
        let mut mem = MemorySystem::new(MemConfig::small());
        let v0 = mem.register_l1(Owner::vocal(0));
        let m0 = mem.register_l1(Owner::mute(0));
        let v1 = mem.register_l1(Owner::vocal(1));
        let m1 = mem.register_l1(Owner::mute(1));
        (mem, v0, m0, v1, m1)
    }

    #[test]
    fn a_new_system_owns_no_tag_ways_until_its_first_access() {
        let mut mem = MemorySystem::with_image(MemConfig::default(), SparseMemory::new());
        let v0 = mem.register_l1(Owner::vocal(0));
        let m0 = mem.register_l1(Owner::mute(0));
        assert_eq!(
            (mem.l2_sets_materialised(), mem.l2_ways_allocated()),
            (0, 0)
        );
        for l1 in [v0, m0] {
            assert_eq!(mem.l1_sets_materialised(l1), 0);
        }
        // Read-only probes leave it that way.
        assert!(!mem.l1_contains(v0, Addr::new(0x1000)));
        assert_eq!(
            mem.peek_view(m0, Addr::new(0x1000)),
            mem.peek_coherent(Addr::new(0x1000))
        );
        assert_eq!(mem.l2_sets_materialised(), 0);

        // One vocal miss fills one way of one L2 set and of one set of that L1.
        mem.load(Cycle::ZERO, v0, Addr::new(0x1000), PhantomStrength::Global);
        assert_eq!(
            (mem.l2_sets_materialised(), mem.l2_ways_allocated()),
            (1, 1)
        );
        assert_eq!(mem.l1_sets_materialised(v0), 1);
        assert_eq!(mem.l1_sets_materialised(m0), 0);
    }

    #[test]
    fn vocal_load_miss_then_hit() {
        let (mut mem, v0, ..) = two_pair_system();
        let a = Addr::new(0x1000);
        mem.poke(a, 42);
        let miss = mem.load(Cycle::ZERO, v0, a, PhantomStrength::Global);
        assert!(!miss.l1_hit);
        assert_eq!(miss.value, 42);
        assert!(miss.done_at.as_u64() >= mem.config().l2_hit_latency);
        let hit = mem.load(miss.done_at, v0, a, PhantomStrength::Global);
        assert!(hit.l1_hit);
        assert_eq!(hit.done_at - miss.done_at, mem.config().l1_hit_latency);
    }

    #[test]
    fn store_is_visible_to_other_vocal() {
        let (mut mem, v0, _, v1, _) = two_pair_system();
        let a = Addr::new(0x2000);
        mem.drain_store(Cycle::ZERO, v0, a, 7);
        let ld = mem.load(Cycle::new(100), v1, a, PhantomStrength::Global);
        assert_eq!(ld.value, 7);
    }

    #[test]
    fn store_invalidates_other_vocal_sharer() {
        let (mut mem, v0, _, v1, _) = two_pair_system();
        let a = Addr::new(0x3000);
        mem.load(Cycle::ZERO, v0, a, PhantomStrength::Global);
        mem.load(Cycle::ZERO, v1, a, PhantomStrength::Global);
        assert!(mem.l1_contains(v0, a));
        mem.drain_store(Cycle::new(50), v1, a, 1);
        assert!(
            !mem.l1_contains(v0, a),
            "v0 must be invalidated by v1's write"
        );
        assert!(mem.stats().invalidations.value() >= 1);
    }

    #[test]
    fn mute_keeps_stale_copy_after_remote_write() {
        // The crux of relaxed input replication: the mute is never
        // invalidated, so a remote store leaves it holding stale data.
        let (mut mem, v0, m0, v1, _) = two_pair_system();
        let a = Addr::new(0x4000);
        mem.poke(a, 10);
        mem.load(Cycle::ZERO, v0, a, PhantomStrength::Global);
        mem.load(Cycle::ZERO, m0, a, PhantomStrength::Global);
        // Remote vocal writes the line.
        mem.drain_store(Cycle::new(10), v1, a, 99);
        // Vocal re-fetches coherent data; mute still hits its copy.
        let vl = mem.load(Cycle::new(500), v0, a, PhantomStrength::Global);
        let ml = mem.load(Cycle::new(500), m0, a, PhantomStrength::Global);
        assert_eq!(vl.value, 99);
        assert_eq!(ml.value, 10, "mute must observe the stale value");
        assert!(ml.l1_hit);
    }

    #[test]
    fn global_phantom_returns_coherent_data_on_miss() {
        let (mut mem, _, m0, ..) = two_pair_system();
        let a = Addr::new(0x5000);
        mem.poke(a, 31);
        let ld = mem.load(Cycle::ZERO, m0, a, PhantomStrength::Global);
        assert_eq!(ld.value, 31);
        assert!(!ld.incoherent_fill);
        assert_eq!(mem.stats().phantom_requests.value(), 1);
        assert_eq!(mem.stats().phantom_garbage_fills.value(), 0);
    }

    #[test]
    fn null_phantom_returns_garbage() {
        let (mut mem, _, m0, ..) = two_pair_system();
        let a = Addr::new(0x6000);
        mem.poke(a, 5);
        let ld = mem.load(Cycle::ZERO, m0, a, PhantomStrength::Null);
        assert!(ld.incoherent_fill);
        assert_ne!(
            ld.value, 5,
            "null phantom must not search for coherent data"
        );
        assert_eq!(mem.stats().phantom_garbage_fills.value(), 1);
    }

    #[test]
    fn shared_phantom_depends_on_l2_presence() {
        let (mut mem, v0, m0, ..) = two_pair_system();
        let a = Addr::new(0x7000);
        mem.poke(a, 77);
        // Cold L2: shared phantom returns garbage.
        let cold = mem.load(Cycle::ZERO, m0, a, PhantomStrength::Shared);
        assert!(cold.incoherent_fill);
        // Vocal brings the line into L2; a fresh mute fill now succeeds.
        let b = Addr::new(0x8000);
        mem.poke(b, 88);
        mem.load(Cycle::ZERO, v0, b, PhantomStrength::Global);
        let warm = mem.load(Cycle::new(400), m0, b, PhantomStrength::Shared);
        assert!(!warm.incoherent_fill);
        assert_eq!(warm.value, 88);
        assert!(warm.l2_hit);
    }

    #[test]
    fn a_mute_drops_its_copy_on_eviction() {
        let (mut mem, _, m0, ..) = two_pair_system();
        let cfg = mem.config().clone();
        let set_stride = (cfg.l1_lines() / cfg.l1_assoc) as u64 * reunion_isa::LINE_BYTES;
        let a = Addr::new(0xE000);
        mem.poke(a, 5);
        mem.drain_store(Cycle::ZERO, m0, a, 6);
        assert_eq!(mem.peek_view(m0, a), 6);
        // Two more lines of the same set push the written copy out.
        for i in 1..=cfg.l1_assoc as u64 {
            mem.load(
                Cycle::new(i * 1000),
                m0,
                a.offset(i * set_stride),
                PhantomStrength::Global,
            );
        }
        assert!(!mem.l1_contains(m0, a));
        let reload = mem.load(Cycle::new(10_000), m0, a, PhantomStrength::Global);
        assert!(!reload.l1_hit);
        assert_eq!(reload.value, 5, "the private word left with its way");
    }

    #[test]
    fn mute_store_stays_private() {
        let (mut mem, _, m0, ..) = two_pair_system();
        let a = Addr::new(0x9000);
        mem.poke(a, 1);
        mem.drain_store(Cycle::ZERO, m0, a, 1234);
        assert_eq!(
            mem.peek_coherent(a),
            1,
            "mute store must not reach the image"
        );
        let ld = mem.load(Cycle::new(600), m0, a, PhantomStrength::Global);
        assert_eq!(ld.value, 1234, "mute sees its own store");
    }

    #[test]
    fn vocal_atomic_reads_old_then_commits_new() {
        let (mut mem, v0, ..) = two_pair_system();
        let a = Addr::new(0xA000);
        mem.poke(a, 0);
        let acc = mem.atomic_read(
            Cycle::ZERO,
            v0,
            a,
            AtomicOp::Swap,
            1,
            PhantomStrength::Global,
        );
        assert_eq!(acc.value, 0);
        // Not visible until the commit half (post-comparison retirement).
        assert_eq!(mem.peek_coherent(a), 0);
        mem.atomic_commit(v0, a, AtomicOp::Swap, 1, 0);
        assert_eq!(mem.peek_coherent(a), 1);
    }

    #[test]
    fn atomic_commit_composes_with_interleaved_writer() {
        let (mut mem, v0, _, v1, _) = two_pair_system();
        let a = Addr::new(0xA100);
        mem.poke(a, 10);
        let acc = mem.atomic_read(
            Cycle::ZERO,
            v0,
            a,
            AtomicOp::FetchAdd,
            5,
            PhantomStrength::Global,
        );
        assert_eq!(acc.value, 10);
        // A remote writer slips into the read-to-commit window.
        mem.drain_store(Cycle::new(3), v1, a, 100);
        mem.atomic_commit(v0, a, AtomicOp::FetchAdd, 5, 10);
        assert_eq!(
            mem.peek_coherent(a),
            105,
            "increment must not lose the remote write"
        );
    }

    /// A sharer bit left behind by an earlier invalidation is not a second
    /// invalidation: `atomic_commit` drops v1's copy but not its bit, and
    /// v0's next store must count only the L1s it found holding the line.
    #[test]
    fn a_store_counts_only_invalidations_that_found_a_line() {
        let (mut mem, v0, _, v1, _) = two_pair_system();
        let a = Addr::new(0xA200);
        mem.atomic_read(
            Cycle::ZERO,
            v0,
            a,
            AtomicOp::FetchAdd,
            1,
            PhantomStrength::Global,
        );
        mem.load(Cycle::new(1), v1, a, PhantomStrength::Global);
        mem.atomic_commit(v0, a, AtomicOp::FetchAdd, 1, 0);
        mem.drain_store(Cycle::new(10), v0, a, 7);
        assert_eq!(mem.stats().invalidations.value(), 1);
    }

    #[test]
    fn mute_atomic_stays_private() {
        let (mut mem, v0, m0, ..) = two_pair_system();
        let a = Addr::new(0xB000);
        mem.poke(a, 0);
        let acc = mem.atomic_read(
            Cycle::ZERO,
            m0,
            a,
            AtomicOp::FetchAdd,
            5,
            PhantomStrength::Global,
        );
        assert_eq!(acc.value, 0);
        assert_eq!(mem.peek_coherent(a), 0);
        assert_eq!(mem.peek_view(m0, a), 5);
        // The retirement half applies nothing for a mute owner: neither
        // the image nor any vocal sharer's copy is touched.
        mem.load(Cycle::new(10), v0, a, PhantomStrength::Global);
        let invalidations = mem.stats().invalidations.value();
        mem.atomic_commit(m0, a, AtomicOp::FetchAdd, 5, acc.value);
        assert_eq!(mem.peek_coherent(a), 0);
        assert_eq!(mem.peek_view(m0, a), 5);
        assert!(mem.l1_contains(v0, a), "a vocal sharer keeps its copy");
        assert_eq!(mem.stats().invalidations.value(), invalidations);
    }

    #[test]
    fn sync_access_restores_mute_coherence() {
        let (mut mem, v0, m0, v1, _) = two_pair_system();
        let a = Addr::new(0xC000);
        mem.poke(a, 3);
        mem.load(Cycle::ZERO, v0, a, PhantomStrength::Global);
        mem.load(Cycle::ZERO, m0, a, PhantomStrength::Global);
        mem.drain_store(Cycle::new(10), v1, a, 44); // race
        let sync = mem.sync_access(Cycle::new(500), v0, m0, a, None);
        assert_eq!(sync.value, 44, "sync must return the coherent value");
        // Both halves now hold identical coherent data.
        assert_eq!(mem.peek_view(m0, a), 44);
        let ml = mem.load(Cycle::new(600), m0, a, PhantomStrength::Global);
        assert!(ml.l1_hit);
        assert_eq!(ml.value, 44);
    }

    #[test]
    fn sync_access_with_rmw_applies_once() {
        let (mut mem, v0, m0, ..) = two_pair_system();
        let a = Addr::new(0xD000);
        mem.poke(a, 0);
        let sync = mem.sync_access(Cycle::ZERO, v0, m0, a, Some((AtomicOp::Swap, 1)));
        assert_eq!(sync.value, 0);
        assert_eq!(mem.peek_coherent(a), 1);
        assert_eq!(mem.peek_view(m0, a), 1);
    }

    #[test]
    #[should_panic(expected = "mute cache")]
    fn sync_access_rejects_swapped_handles() {
        let (mut mem, v0, m0, ..) = two_pair_system();
        let _ = mem.sync_access(Cycle::ZERO, m0, v0, Addr::new(0), None);
    }

    #[test]
    fn bank_contention_serializes_requests() {
        let (mut mem, v0, _, v1, _) = two_pair_system();
        // Two misses to lines mapping to the same bank at the same cycle.
        let banks = mem.config().l2_banks as u64;
        let a = Addr::new(0x10_000);
        let b = Addr::new(0x10_000 + banks * reunion_isa::LINE_BYTES);
        let first = mem.load(Cycle::ZERO, v0, a, PhantomStrength::Global);
        let second = mem.load(Cycle::ZERO, v1, b, PhantomStrength::Global);
        assert!(
            second.done_at > first.done_at,
            "same-bank requests must serialize"
        );
    }

    #[test]
    fn bounded_crossbar_port_serializes_cross_bank_misses() {
        // Two same-cycle misses to *different* banks: the scalar model let
        // them proceed independently; a single crossbar port serializes
        // their injections.
        let cfg = MemConfig {
            l2_banks: 4,
            ..MemConfig::small()
        }
        .with_xbar_ports(1);
        let mut mem = MemorySystem::new(cfg);
        let v0 = mem.register_l1(Owner::vocal(0));
        let v1 = mem.register_l1(Owner::vocal(1));
        let a = Addr::new(0x10_000);
        let b = Addr::new(0x10_000 + reunion_isa::LINE_BYTES);
        let first = mem.load(Cycle::ZERO, v0, a, PhantomStrength::Global);
        let second = mem.load(Cycle::ZERO, v1, b, PhantomStrength::Global);
        assert!(
            second.done_at > first.done_at,
            "one port must serialize cross-bank injections"
        );
        assert!(mem.stats().xbar_port_waits.value() >= 1);
    }

    #[test]
    fn mshr_backpressure_delays_bursts() {
        let mut mem = MemorySystem::new(MemConfig::small()); // 4 MSHRs
        let v0 = mem.register_l1(Owner::vocal(0));
        let mut last = Cycle::ZERO;
        for i in 0..6 {
            // Distinct sets, all misses, all at cycle 0.
            let a = Addr::new((0x40_000 + i * 0x1000) as u64);
            let acc = mem.load(Cycle::ZERO, v0, a, PhantomStrength::Global);
            last = last.max(acc.done_at);
        }
        // With only 4 MSHRs the 5th/6th misses start late.
        let unconstrained = MemConfig::small();
        let floor = unconstrained.l2_hit_latency + unconstrained.dram_latency;
        assert!(last.as_u64() > floor + 10);
    }

    #[test]
    fn l1_eviction_updates_directory() {
        let mut mem = MemorySystem::new(MemConfig::small());
        let v0 = mem.register_l1(Owner::vocal(0));
        let cfg = mem.config().clone();
        let sets = cfg.l1_lines() / cfg.l1_assoc;
        // Fill one set beyond associativity.
        for i in 0..=cfg.l1_assoc {
            let addr = Addr::new((i * sets) as u64 * reunion_isa::LINE_BYTES);
            mem.load(
                Cycle::new(i as u64 * 1000),
                v0,
                addr,
                PhantomStrength::Global,
            );
        }
        let first = Addr::new(0);
        assert!(!mem.l1_contains(v0, first), "LRU line must be evicted");
        // Its directory entry must no longer list v0 as a sharer.
        let refetch = mem.load(Cycle::new(100_000), v0, first, PhantomStrength::Global);
        assert!(!refetch.l1_hit);
    }

    #[test]
    fn l2_eviction_back_invalidates_every_sharer_up_to_l1_63() {
        // 64 vocal L1s — the directory's full width. Inclusion must hold
        // for the last one too.
        let mut mem = MemorySystem::new(MemConfig::small());
        let l1s: Vec<L1Id> = (0..64).map(|i| mem.register_l1(Owner::vocal(i))).collect();
        let cfg = mem.config().clone();
        let l2_sets = (cfg.l2_lines() / cfg.l2_assoc) as u64;
        let victim = Addr::new(0);
        for &sharer in &[l1s[0], l1s[63]] {
            mem.load(Cycle::ZERO, sharer, victim, PhantomStrength::Global);
            assert!(mem.l1_contains(sharer, victim));
        }
        // Another L1 overflows the victim's L2 set.
        for way in 1..=cfg.l2_assoc as u64 {
            let addr = Addr::new(way * l2_sets * reunion_isa::LINE_BYTES);
            mem.load(
                Cycle::new(way * 1000),
                l1s[1],
                addr,
                PhantomStrength::Global,
            );
        }
        for &sharer in &[l1s[0], l1s[63]] {
            assert!(
                !mem.l1_contains(sharer, victim),
                "{sharer} keeps a line the inclusive L2 evicted"
            );
        }
        assert_eq!(mem.stats().invalidations.value(), 2);
    }
}
