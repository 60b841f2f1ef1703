//! Set-associative cache model.

/// Geometry of one cache (Table 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Capacity in bytes.
    pub size_bytes: usize,
    /// Line size in bytes (128 in Table 2).
    pub line_bytes: usize,
    /// Associativity; `usize::MAX` means fully associative (the Table 2
    /// L1 configuration).
    pub ways: usize,
}

impl CacheConfig {
    /// The baseline 64 KB fully-associative L1 with 128-byte lines.
    pub fn l1_baseline() -> Self {
        CacheConfig {
            size_bytes: 64 * 1024,
            line_bytes: 128,
            ways: usize::MAX,
        }
    }

    /// The baseline 1 MB 16-way L2 with 128-byte lines.
    pub fn l2_baseline() -> Self {
        CacheConfig {
            size_bytes: 1024 * 1024,
            line_bytes: 128,
            ways: 16,
        }
    }

    /// Same geometry with a different capacity (cache-size sweeps).
    pub fn with_size(self, size_bytes: usize) -> Self {
        CacheConfig { size_bytes, ..self }
    }

    /// Number of lines.
    pub fn lines(&self) -> usize {
        self.size_bytes / self.line_bytes
    }

    /// Effective associativity after clamping to the line count.
    pub fn effective_ways(&self) -> usize {
        self.ways.min(self.lines()).max(1)
    }

    /// Number of sets (lines / ways, at least 1).
    pub fn sets(&self) -> usize {
        (self.lines() / self.effective_ways()).max(1)
    }

    /// `log2(line_bytes)`: an address shifted right by this is its line.
    pub(crate) fn line_shift(&self) -> u32 {
        self.line_bytes.trailing_zeros()
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns a message when sizes are zero, the line size is not a power
    /// of two, the capacity is not line-divisible, or the set count is not
    /// a power of two.
    pub fn validate(&self) -> Result<(), String> {
        if self.line_bytes == 0 || self.size_bytes == 0 {
            return Err("cache sizes must be positive".into());
        }
        if !self.line_bytes.is_power_of_two() {
            return Err(format!(
                "{}-byte lines: the line size must be a power of two",
                self.line_bytes
            ));
        }
        if !self.size_bytes.is_multiple_of(self.line_bytes) {
            return Err("capacity must be a multiple of the line size".into());
        }
        if !self.sets().is_power_of_two() {
            return Err(format!("{} sets is not a power of two", self.sets()));
        }
        Ok(())
    }
}

/// Hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// Misses (`accesses − hits`).
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }
}

/// "No slot" marker in the recency lists.
const NIL: u32 = u32::MAX;

/// One cache line frame: the line it holds and its neighbours in its
/// set's recency list (`prev` is more recent, `next` less recent).
#[derive(Clone, Copy, Debug)]
struct Slot {
    line: u64,
    prev: u32,
    next: u32,
}

/// One set's recency list: most- and least-recently used slots, and how
/// many of the set's slots are filled.
#[derive(Clone, Copy, Debug)]
struct SetList {
    head: u32,
    tail: u32,
    filled: u32,
}

impl SetList {
    const EMPTY: SetList = SetList {
        head: NIL,
        tail: NIL,
        filled: 0,
    };

    /// Detaches `slot` from this list.
    fn unlink(&mut self, slots: &mut [Slot], slot: u32) {
        let Slot { prev, next, .. } = slots[slot as usize];
        match prev {
            NIL => self.head = next,
            p => slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => slots[n as usize].prev = prev,
        }
    }

    /// Makes `slot` the most recently used entry.
    fn push_front(&mut self, slots: &mut [Slot], slot: u32) {
        slots[slot as usize].prev = NIL;
        slots[slot as usize].next = self.head;
        match self.head {
            NIL => self.tail = slot,
            h => slots[h as usize].prev = slot,
        }
        self.head = slot;
    }
}

/// An LRU set-associative cache over byte addresses below a fixed
/// address-space size.
///
/// Lookups neither hash nor divide: a line is its address shifted by
/// `log2(line_bytes)`, its set the line masked by the (power-of-two) set
/// count, and residency one load from a dense line-indexed table.
///
/// # Examples
///
/// ```
/// use rip_gpusim::{Cache, CacheConfig};
///
/// let geometry = CacheConfig { size_bytes: 256, line_bytes: 128, ways: 2 };
/// let mut c = Cache::new(geometry, 4096); // addresses 0..4096
/// assert!(!c.access(0));   // cold miss
/// assert!(c.access(64));   // same 128-byte line
/// assert!(!c.access(128)); // next line
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    /// `log2(line_bytes)`.
    line_shift: u32,
    /// Set count − 1 (the set count is a power of two).
    set_mask: u64,
    /// Effective associativity.
    ways: u32,
    /// Line frames in fill order; a full set reuses its own LRU slot.
    slots: Vec<Slot>,
    /// Per set: an intrusive doubly-linked recency list over its slots,
    /// so a hit moves to the head and an eviction takes the tail, both
    /// O(1) even for the 512-way fully-associative baseline L1.
    sets: Vec<SetList>,
    /// Every line of the address space → its slot + 1, or 0 when absent.
    /// Built from zeroed memory, so pages of lines never touched are
    /// never made resident.
    index: Vec<u32>,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache over the byte addresses `0..address_bytes`.
    /// The simulator passes the BVH's
    /// [`footprint_bytes`](rip_bvh::MemoryLayout::footprint_bytes); the
    /// line index costs 4 bytes per line of that space.
    ///
    /// # Panics
    ///
    /// Panics when the geometry is invalid.
    pub fn new(config: CacheConfig, address_bytes: u64) -> Self {
        config.validate().expect("invalid cache configuration");
        let lines = config.sets() * config.effective_ways();
        assert!(lines < NIL as usize, "cache has too many lines");
        let space_lines = address_bytes.div_ceil(config.line_bytes as u64);
        Cache {
            config,
            line_shift: config.line_shift(),
            set_mask: config.sets() as u64 - 1,
            ways: config.effective_ways() as u32,
            slots: Vec::with_capacity(lines),
            sets: vec![SetList::EMPTY; config.sets()],
            index: vec![0; usize::try_from(space_lines).expect("address space fits in memory")],
            stats: CacheStats::default(),
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The line of `addr`, checked against the declared address space.
    #[inline]
    fn line_of(&self, addr: u64) -> usize {
        let line = (addr >> self.line_shift) as usize;
        if line >= self.index.len() {
            self.outside_space(addr);
        }
        line
    }

    #[cold]
    #[inline(never)]
    fn outside_space(&self, addr: u64) -> ! {
        panic!(
            "address {addr:#x} lies outside the cache's {:#x}-byte address space",
            (self.index.len() as u64) << self.line_shift
        );
    }

    /// Accesses a byte address; returns `true` on hit. Misses fill the
    /// line, evicting LRU.
    ///
    /// # Panics
    ///
    /// Panics when `addr` lies outside the address space given to
    /// [`Cache::new`].
    pub fn access(&mut self, addr: u64) -> bool {
        self.access_slot(addr).0
    }

    /// [`Cache::access`] that also reports the line frame now holding the
    /// line — the one it hit, or the one the miss filled — as an index
    /// below [`CacheConfig::lines`]. A frame keeps its line from that
    /// fill until the line is evicted.
    #[inline]
    pub(crate) fn access_slot(&mut self, addr: u64) -> (bool, usize) {
        self.stats.accesses += 1;
        let line = self.line_of(addr);
        let set = &mut self.sets[(line as u64 & self.set_mask) as usize];
        match self.index[line] {
            0 => {
                let slot = if set.filled < self.ways {
                    set.filled += 1;
                    self.slots.push(Slot {
                        line: line as u64,
                        prev: NIL,
                        next: NIL,
                    });
                    self.slots.len() as u32 - 1
                } else {
                    let victim = set.tail;
                    set.unlink(&mut self.slots, victim);
                    self.index[self.slots[victim as usize].line as usize] = 0;
                    self.slots[victim as usize].line = line as u64;
                    victim
                };
                self.index[line] = slot + 1;
                set.push_front(&mut self.slots, slot);
                (false, slot as usize)
            }
            entry => {
                let slot = entry - 1;
                if set.head != slot {
                    set.unlink(&mut self.slots, slot);
                    set.push_front(&mut self.slots, slot);
                }
                self.stats.hits += 1;
                (true, slot as usize)
            }
        }
    }

    /// Looks up `addr` without recording an access: no statistics, no
    /// LRU reordering, no fill. The simulator does not call it; it lets
    /// a caller, such as a test comparing against a reference model,
    /// read the contents without disturbing them.
    ///
    /// # Panics
    ///
    /// Panics when `addr` lies outside the address space given to
    /// [`Cache::new`].
    pub fn probe(&self, addr: u64) -> bool {
        self.index[self.line_of(addr)] != 0
    }

    /// Empties the cache, keeping statistics.
    pub fn clear(&mut self) {
        for slot in &self.slots {
            self.index[slot.line as usize] = 0;
        }
        self.sets.fill(SetList::EMPTY);
        self.slots.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    /// The previous timestamp-scan model, kept as the oracle the O(1) list
    /// must match access for access: per set a line → last-use map, with
    /// the victim found by scanning the whole set for the oldest use.
    struct ReferenceLru {
        config: CacheConfig,
        sets: Vec<HashMap<u64, u64>>,
        clock: u64,
        stats: CacheStats,
    }

    impl ReferenceLru {
        fn new(config: CacheConfig) -> Self {
            config.validate().expect("invalid cache configuration");
            ReferenceLru {
                config,
                sets: vec![HashMap::new(); config.sets()],
                clock: 0,
                stats: CacheStats::default(),
            }
        }

        fn access(&mut self, addr: u64) -> bool {
            self.clock += 1;
            self.stats.accesses += 1;
            let line = addr / self.config.line_bytes as u64;
            let set_idx = (line % self.sets.len() as u64) as usize;
            let ways = self.config.effective_ways();
            let set = &mut self.sets[set_idx];
            if let Some(last_use) = set.get_mut(&line) {
                *last_use = self.clock;
                self.stats.hits += 1;
                return true;
            }
            if set.len() >= ways {
                let victim = set
                    .iter()
                    .min_by_key(|(_, &used)| used)
                    .map(|(&tag, _)| tag)
                    .expect("set has ways");
                set.remove(&victim);
            }
            set.insert(line, self.clock);
            false
        }

        fn probe(&self, addr: u64) -> bool {
            let line = addr / self.config.line_bytes as u64;
            let set_idx = (line % self.sets.len() as u64) as usize;
            self.sets[set_idx].contains_key(&line)
        }

        fn clear(&mut self) {
            for set in &mut self.sets {
                set.clear();
            }
        }
    }

    /// Geometries the experiments build: the Figure 1/16 L1 sweep and the
    /// Figure 16 RT caches (16 and 32 KB), all fully associative; the 2
    /// and 4 KB L1s of the simulator tests; and the baseline L2.
    const EXPERIMENT_GEOMETRIES: [(usize, usize); 11] = [
        (16 * 1024, usize::MAX),
        (32 * 1024, usize::MAX),
        (64 * 1024, usize::MAX),
        (128 * 1024, usize::MAX),
        (256 * 1024, usize::MAX),
        (384 * 1024, usize::MAX),
        (512 * 1024, usize::MAX),
        (1024 * 1024, usize::MAX),
        (2 * 1024, usize::MAX),
        (4 * 1024, usize::MAX),
        (1024 * 1024, 16),
    ];

    /// Runs one seeded trace of interleaved accesses, probes and clears
    /// through both models; every return value, the final statistics and
    /// the final contents must agree.
    fn check_against_reference(config: CacheConfig, seed: u64, span_per_mille: u64) {
        let capacity = (config.sets() * config.effective_ways()) as u64;
        let span = (capacity * span_per_mille / 1000).max(2);
        let line = config.line_bytes as u64;
        let mut fast = Cache::new(config, span * line);
        let mut oracle = ReferenceLru::new(config);
        let mut rng = SmallRng::seed_from_u64(seed);
        let steps = 3 * capacity + 64;
        for step in 0..steps {
            let addr = rng.gen_range(0..span) * line + rng.gen_range(0..line);
            match rng.gen_range(0..64u32) {
                0 => {
                    fast.clear();
                    oracle.clear();
                }
                1..=8 => assert_eq!(
                    fast.probe(addr),
                    oracle.probe(addr),
                    "{config:?} step {step}: probe({addr})"
                ),
                _ => assert_eq!(
                    fast.access(addr),
                    oracle.access(addr),
                    "{config:?} step {step}: access({addr})"
                ),
            }
        }
        assert_eq!(fast.stats(), oracle.stats, "{config:?}");
        for l in 0..span {
            assert_eq!(
                fast.probe(l * line),
                oracle.probe(l * line),
                "{config:?} line {l}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Direct-mapped, 2-, 4- and 16-way caches of 1–64 sets, and
        /// fully-associative caches of 4–512 lines.
        #[test]
        fn matches_reference_lru_on_random_geometries(
            ways_ix in 0usize..5,
            sets_log2 in 0u32..7,
            fa_lines in 4usize..513,
            seed in any::<u64>(),
            span_per_mille in 250u64..4000,
        ) {
            let config = match [1, 2, 4, 16, usize::MAX][ways_ix] {
                usize::MAX => CacheConfig { size_bytes: fa_lines * 128, line_bytes: 128, ways: usize::MAX },
                ways => CacheConfig { size_bytes: (ways << sets_log2) * 128, line_bytes: 128, ways },
            };
            check_against_reference(config, seed, span_per_mille);
        }

        /// The RT-cache, L1-sweep and L2 geometries the experiments use.
        #[test]
        fn matches_reference_lru_on_experiment_geometries(
            geometry_ix in 0usize..EXPERIMENT_GEOMETRIES.len(),
            seed in any::<u64>(),
            span_per_mille in 500u64..2500,
        ) {
            let (size_bytes, ways) = EXPERIMENT_GEOMETRIES[geometry_ix];
            let config = CacheConfig { size_bytes, line_bytes: 128, ways };
            check_against_reference(config, seed, span_per_mille);
        }
    }

    fn tiny(ways: usize) -> Cache {
        Cache::new(
            CacheConfig {
                size_bytes: 512,
                line_bytes: 128,
                ways,
            },
            64 * 128,
        )
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny(4); // fully assoc within 4 lines
        assert!(!c.access(1000));
        assert!(c.access(1000));
        assert!(c.access(1000 + 20)); // same 128-byte line (896..1024)
        assert_eq!(c.stats().accesses, 3);
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny(4); // 4 lines, 1 set
        for line in 0..4u64 {
            assert!(!c.access(line * 128));
        }
        let _ = c.access(0); // line 0 now MRU
        assert!(!c.access(4 * 128)); // evicts line 1
        assert!(c.access(0), "line 0 must have survived");
        assert!(!c.access(128), "line 1 must have been evicted");
    }

    #[test]
    fn slots_follow_residency() {
        let mut c = tiny(4); // 4 lines, 1 set
        let filled: Vec<usize> = (0..4u64).map(|l| c.access_slot(l * 128).1).collect();
        assert_eq!(filled, [0, 1, 2, 3], "cold fills take fresh frames");
        assert_eq!(c.access_slot(64), (true, 0), "a hit reports its frame");
        // Line 1 is now least recent: line 4 evicts it and takes its frame.
        assert_eq!(c.access_slot(4 * 128), (false, 1));
        assert_eq!(c.access_slot(4 * 128 + 5), (true, 1));
        assert!(filled.iter().all(|&s| s < c.config().lines()));
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = Cache::new(
            CacheConfig {
                size_bytes: 512,
                line_bytes: 128,
                ways: 1,
            },
            8 * 128,
        );
        // 4 sets; lines 0 and 4 conflict.
        assert!(!c.access(0));
        assert!(!c.access(4 * 128));
        assert!(!c.access(0), "conflict eviction expected");
    }

    #[test]
    fn bigger_cache_hits_more() {
        let trace: Vec<u64> = (0..200u64).map(|i| (i * 37) % 64 * 128).collect();
        let run = |size: usize| {
            let mut c = Cache::new(
                CacheConfig {
                    size_bytes: size,
                    line_bytes: 128,
                    ways: usize::MAX,
                },
                64 * 128,
            );
            for &a in &trace {
                c.access(a);
            }
            c.stats().hit_rate()
        };
        assert!(run(64 * 128) >= run(16 * 128));
    }

    #[test]
    fn fully_assoc_l1_baseline_geometry() {
        let cfg = CacheConfig::l1_baseline();
        cfg.validate().unwrap();
        assert_eq!(cfg.lines(), 512);
        assert_eq!(cfg.sets(), 1);
        assert_eq!(cfg.effective_ways(), 512);
    }

    #[test]
    fn validation_rejects_bad_geometry() {
        assert!(CacheConfig {
            size_bytes: 100,
            line_bytes: 128,
            ways: 1
        }
        .validate()
        .is_err());
        assert!(CacheConfig {
            size_bytes: 0,
            line_bytes: 128,
            ways: 1
        }
        .validate()
        .is_err());
        // 3 sets (384/128 lines, 1 way) is not a power of two.
        assert!(CacheConfig {
            size_bytes: 384,
            line_bytes: 128,
            ways: 1
        }
        .validate()
        .is_err());
    }

    #[test]
    fn validation_rejects_non_power_of_two_lines() {
        let err = CacheConfig {
            size_bytes: 96 * 16,
            line_bytes: 96,
            ways: 1,
        }
        .validate()
        .unwrap_err();
        assert!(err.contains("96-byte lines"), "{err}");
    }

    #[test]
    #[should_panic(expected = "address 0x2000 lies outside the cache's 0x2000-byte address space")]
    fn access_past_the_address_space_panics() {
        let mut c = tiny(4);
        c.access(64 * 128 - 1); // last byte of the space
        c.access(64 * 128);
    }

    #[test]
    #[should_panic(expected = "address 0x2000 lies outside the cache's 0x2000-byte address space")]
    fn probe_past_the_address_space_panics() {
        let _ = tiny(4).probe(64 * 128);
    }

    #[test]
    fn probe_is_invisible() {
        let mut c = tiny(2); // 2 ways, 2 sets
        assert!(!c.probe(0));
        c.access(0);
        assert!(c.probe(0));
        assert!(c.probe(64), "same line");
        assert!(!c.probe(2 * 128), "other set untouched");
        // Probes leave no trace: stats unchanged, LRU order unchanged.
        assert_eq!(c.stats().accesses, 1);
        c.access(2 * 128); // set 0: lines {0, 2}
        for _ in 0..8 {
            assert!(c.probe(0));
        }
        c.access(4 * 128); // set 0 full: evicts LRU line 0 (probes don't refresh)
        assert!(!c.probe(0), "probe must not have refreshed line 0");
        assert!(c.probe(2 * 128));
    }

    #[test]
    fn clear_keeps_stats() {
        let mut c = tiny(4);
        c.access(0);
        c.clear();
        assert!(!c.access(0), "cleared cache must miss");
        assert_eq!(c.stats().accesses, 2);
    }
}
