//! Generic set-associative cache with per-line warp-ID tracking.
//!
//! The same structure backs both caches of the GTX 480 configuration in
//! Table I of the paper:
//!
//! * **L1D**: 16 KB, 128-byte lines, 4-way, write-no-allocate, local
//!   write-back / global write-through, 1-cycle access latency, LRU.
//! * **L2**: 768 KB, 128-byte lines, 8-way, write-allocate, write-back, LRU.
//!
//! Every line additionally records the warp that brought it in (its *owner*
//! warp ID). On eviction the owner is reported back to the caller so the
//! Victim Tag Array (`ciao-schedulers::vta`) and the CIAO interference
//! detector can attribute the eviction to an (interfering, interfered) warp
//! pair — the mechanism of §II-C / §III-A.

use crate::addr::{Addr, SetIndexFunction};
use crate::{Cycle, WarpId};
use serde::{Deserialize, Serialize};

/// Replacement policy for a cache set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplacementPolicy {
    /// Least-recently-used (Table I: L1D and L2).
    Lru,
    /// First-in-first-out (Table I: the Victim Tag Array uses FIFO).
    Fifo,
}

/// Write-miss allocation policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WriteAllocPolicy {
    /// Allocate the line on a write miss (L2).
    WriteAllocate,
    /// Do not allocate on a write miss; forward the write downstream (L1D).
    WriteNoAllocate,
}

/// Write-hit propagation policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WritePolicy {
    /// Mark the line dirty and write it back on eviction (L2, local data in L1D).
    WriteBack,
    /// Propagate every write downstream immediately (global data in L1D).
    WriteThrough,
}

/// Static geometry and policy configuration of a cache.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line (block) size in bytes.
    pub line_size: u64,
    /// Number of ways per set.
    pub associativity: usize,
    /// Replacement policy.
    pub replacement: ReplacementPolicy,
    /// Write-miss allocation policy.
    pub write_alloc: WriteAllocPolicy,
    /// Write-hit policy.
    pub write_policy: WritePolicy,
    /// Set-index mapping function.
    pub set_index: SetIndexFunction,
    /// Access latency in cycles (hit latency).
    pub latency: Cycle,
}

impl CacheConfig {
    /// The 16 KB / 4-way / 128 B L1D cache of Table I, with the XOR set-index
    /// hashing enhancement of §V-A.
    pub fn l1d_gtx480() -> Self {
        CacheConfig {
            size_bytes: 16 * 1024,
            line_size: 128,
            associativity: 4,
            replacement: ReplacementPolicy::Lru,
            write_alloc: WriteAllocPolicy::WriteNoAllocate,
            write_policy: WritePolicy::WriteThrough,
            set_index: SetIndexFunction::XorHash,
            latency: 1,
        }
    }

    /// The enlarged 48 KB L1D used by the `GTO-cap` configuration of Fig. 12a
    /// (L1D grown to 48 KB, shared memory shrunk to 16 KB).
    pub fn l1d_48k() -> Self {
        CacheConfig { size_bytes: 48 * 1024, ..Self::l1d_gtx480() }
    }

    /// The 8-way L1D used by the `GTO-8way` configuration of Fig. 12a.
    pub fn l1d_8way() -> Self {
        CacheConfig { associativity: 8, ..Self::l1d_gtx480() }
    }

    /// The 768 KB / 8-way / 128 B L2 cache of Table I.
    pub fn l2_gtx480() -> Self {
        CacheConfig {
            size_bytes: 768 * 1024,
            line_size: 128,
            associativity: 8,
            replacement: ReplacementPolicy::Lru,
            write_alloc: WriteAllocPolicy::WriteAllocate,
            write_policy: WritePolicy::WriteBack,
            set_index: SetIndexFunction::XorHash,
            latency: 120,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> usize {
        let lines = self.size_bytes / self.line_size;
        (lines as usize / self.associativity).max(1)
    }

    /// Total number of lines.
    pub fn num_lines(&self) -> usize {
        (self.size_bytes / self.line_size) as usize
    }
}

/// One cache line's bookkeeping state. Its tag and valid bit live in the
/// cache's key array, so a tag search reads the keys alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Line {
    dirty: bool,
    /// Block-aligned global address held by the line (kept so evictions can
    /// report the victim address without reconstructing it from tag bits).
    block_addr: Addr,
    /// Warp that brought the data into the cache (§II-C: WID stored in tag).
    owner: WarpId,
    /// LRU timestamp (monotonic access counter).
    last_use: u64,
    /// FIFO timestamp (allocation counter).
    alloc_seq: u64,
}

/// Description of a line evicted to make room for a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvictedLine {
    /// Block-aligned address of the evicted data.
    pub block_addr: Addr,
    /// Warp that originally brought the evicted data into the cache.
    pub owner: WarpId,
    /// Whether the evicted line was dirty (needs a write-back downstream).
    pub dirty: bool,
}

/// Outcome of a single cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessOutcome {
    /// The block was present.
    Hit,
    /// The block was absent; the caller must fetch it downstream.
    Miss,
    /// The block was absent and a write with write-no-allocate policy:
    /// nothing was allocated, the write is simply forwarded downstream.
    MissNoAllocate,
}

impl AccessOutcome {
    /// True for any kind of miss.
    pub fn is_miss(self) -> bool {
        !matches!(self, AccessOutcome::Hit)
    }
}

/// Result of [`SetAssocCache::access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// Hit/miss outcome.
    pub outcome: AccessOutcome,
    /// Line evicted by the allocation performed for this access, if any.
    pub evicted: Option<EvictedLine>,
    /// Warp that owned the line that was hit (for hit-ownership statistics).
    pub hit_owner: Option<WarpId>,
}

/// Aggregate hit/miss statistics for one cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Read accesses.
    pub reads: u64,
    /// Write accesses.
    pub writes: u64,
    /// Read hits.
    pub read_hits: u64,
    /// Write hits.
    pub write_hits: u64,
    /// Lines evicted (capacity/conflict victims).
    pub evictions: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
    /// Fills performed (lines allocated).
    pub fills: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Total hits.
    pub fn hits(&self) -> u64 {
        self.read_hits + self.write_hits
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.accesses() - self.hits()
    }

    /// Hit rate over all accesses (0.0 when there were no accesses).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits() as f64 / self.accesses() as f64
        }
    }

    /// Merge another stats block into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.read_hits += other.read_hits;
        self.write_hits += other.write_hits;
        self.evictions += other.evictions;
        self.writebacks += other.writebacks;
        self.fills += other.fills;
    }
}

/// The shifts that map an address to its set and tag when the line size
/// and the set count are both powers of two.
#[derive(Debug, Clone, Copy)]
struct IndexShifts {
    /// log2 of the line size: the block index is `addr >> line`.
    line: u32,
    /// log2 of the set count: a linear tag is `block >> sets`.
    sets: u32,
    /// The XOR hash's slice width, `max(sets, 1)`.
    hash: u32,
}

/// A set-associative cache with warp-ID ownership tracking.
///
/// The lines are kept flat and set-major (line `set * ways + way`), with
/// each line's `tag + 1` in a key array of its own (0 marks an invalid
/// line), so a tag search reads one set's keys and nothing else.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    config: CacheConfig,
    num_sets: usize,
    ways: usize,
    keys: Vec<u64>,
    lines: Vec<Line>,
    /// `None` when the set count (768 in the L2) or the line size is not a
    /// power of two: the set index then takes a `%`.
    shifts: Option<IndexShifts>,
    /// Monotonic counter driving LRU ordering.
    access_seq: u64,
    /// Monotonic counter driving FIFO ordering.
    alloc_seq: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Builds an empty cache from `config`.
    pub fn new(config: CacheConfig) -> Self {
        let num_sets = config.num_sets();
        let ways = config.associativity;
        let shifts =
            (num_sets.is_power_of_two() && config.line_size.is_power_of_two()).then(|| {
                let sets = num_sets.trailing_zeros();
                IndexShifts { line: config.line_size.trailing_zeros(), sets, hash: sets.max(1) }
            });
        SetAssocCache {
            config,
            num_sets,
            ways,
            keys: vec![0; num_sets * ways],
            lines: vec![Line::default(); num_sets * ways],
            shifts,
            access_seq: 0,
            alloc_seq: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The set of `addr` and its line's key (`tag + 1`), by the set-index
    /// function of the configuration (with shifts and a mask in place of
    /// the divisions when the geometry allows).
    fn set_and_key(&self, addr: Addr) -> (usize, u64) {
        let (set, tag) = match self.shifts {
            Some(shifts) => {
                let block = addr >> shifts.line;
                let mask = self.num_sets as u64 - 1;
                match self.config.set_index {
                    SetIndexFunction::Linear => ((block & mask) as usize, block >> shifts.sets),
                    SetIndexFunction::XorHash => {
                        let folded = block ^ (block >> shifts.hash) ^ (block >> (2 * shifts.hash));
                        ((folded & mask) as usize, block)
                    }
                }
            }
            None => {
                let (sets, line) = (self.num_sets, self.config.line_size);
                let f = self.config.set_index;
                (f.set_index(addr, sets, line), f.tag(addr, sets, line))
            }
        };
        (set, tag + 1)
    }

    /// The line of `set` whose key is `key`, if one is.
    fn find(&self, set: usize, key: u64) -> Option<usize> {
        let first = set * self.ways;
        self.keys[first..first + self.ways].iter().position(|&k| k == key).map(|way| first + way)
    }

    /// Probes the cache without updating replacement state or statistics.
    pub fn probe(&self, addr: Addr) -> bool {
        let (set, key) = self.set_and_key(addr);
        self.find(set, key).is_some()
    }

    /// Returns the owner warp of the line holding `addr`, if present.
    pub fn owner_of(&self, addr: Addr) -> Option<WarpId> {
        let (set, key) = self.set_and_key(addr);
        self.find(set, key).map(|i| self.lines[i].owner)
    }

    /// Performs a read or write access on behalf of warp `wid`.
    ///
    /// On a read miss (or a write miss under write-allocate) the line is
    /// allocated immediately ("fill on miss"); the caller is responsible for
    /// modelling the downstream latency of actually fetching the data. The
    /// evicted victim, if any, is reported so the caller can update the VTA
    /// and issue a write-back for dirty victims.
    pub fn access(&mut self, addr: Addr, wid: WarpId, is_write: bool) -> CacheAccess {
        self.access_seq += 1;
        let (set, key) = self.set_and_key(addr);
        if is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }

        // Hit path.
        if let Some(i) = self.find(set, key) {
            let line = &mut self.lines[i];
            line.last_use = self.access_seq;
            if is_write {
                self.stats.write_hits += 1;
                if self.config.write_policy == WritePolicy::WriteBack {
                    line.dirty = true;
                }
            } else {
                self.stats.read_hits += 1;
            }
            let hit_owner = Some(line.owner);
            return CacheAccess { outcome: AccessOutcome::Hit, evicted: None, hit_owner };
        }

        // Miss path.
        if is_write && self.config.write_alloc == WriteAllocPolicy::WriteNoAllocate {
            return CacheAccess {
                outcome: AccessOutcome::MissNoAllocate,
                evicted: None,
                hit_owner: None,
            };
        }
        let evicted = self.fill_internal(
            addr,
            wid,
            is_write && self.config.write_policy == WritePolicy::WriteBack,
        );
        CacheAccess { outcome: AccessOutcome::Miss, evicted, hit_owner: None }
    }

    /// Allocates (fills) the line for `addr` on behalf of `wid` and returns
    /// the evicted victim if a valid line had to be replaced.
    pub fn fill(&mut self, addr: Addr, wid: WarpId) -> Option<EvictedLine> {
        self.access_seq += 1;
        self.fill_internal(addr, wid, false)
    }

    fn fill_internal(&mut self, addr: Addr, wid: WarpId, dirty: bool) -> Option<EvictedLine> {
        let (set, key) = self.set_and_key(addr);
        let block = crate::addr::block_addr_for(addr, self.config.line_size);
        self.alloc_seq += 1;
        self.stats.fills += 1;

        // Already present (e.g. fill racing with an earlier fill): refresh.
        if let Some(i) = self.find(set, key) {
            let line = &mut self.lines[i];
            line.last_use = self.access_seq;
            line.dirty |= dirty;
            return None;
        }

        let i = self.pick_victim(set);
        let valid = std::mem::replace(&mut self.keys[i], key) != 0;
        let line = &mut self.lines[i];
        let evicted = if valid {
            self.stats.evictions += 1;
            if line.dirty {
                self.stats.writebacks += 1;
            }
            Some(EvictedLine { block_addr: line.block_addr, owner: line.owner, dirty: line.dirty })
        } else {
            None
        };
        *line = Line {
            dirty,
            block_addr: block,
            owner: wid,
            last_use: self.access_seq,
            alloc_seq: self.alloc_seq,
        };
        evicted
    }

    /// The line of `set` a fill replaces: its first invalid way, else the
    /// first way the replacement policy ranks lowest.
    fn pick_victim(&self, set: usize) -> usize {
        if let Some(i) = self.find(set, 0) {
            return i;
        }
        let first = set * self.ways;
        let lines = self.lines[first..first + self.ways].iter().enumerate();
        let way = match self.config.replacement {
            ReplacementPolicy::Lru => lines.min_by_key(|(_, l)| l.last_use),
            ReplacementPolicy::Fifo => lines.min_by_key(|(_, l)| l.alloc_seq),
        };
        first + way.expect("set has at least one way").0
    }

    /// Invalidates the line holding `addr`, returning its descriptor if it
    /// was present. Used by CIAO's L1D→shared-memory migration path (§IV-B):
    /// the L1D copy is evicted to the response queue and invalidated so a
    /// single copy of the data exists.
    pub fn invalidate(&mut self, addr: Addr) -> Option<EvictedLine> {
        let (set, key) = self.set_and_key(addr);
        let i = self.find(set, key)?;
        self.keys[i] = 0;
        let line = std::mem::take(&mut self.lines[i]);
        Some(EvictedLine { block_addr: line.block_addr, owner: line.owner, dirty: line.dirty })
    }

    /// Invalidates the entire cache (used between kernel launches).
    pub fn flush(&mut self) {
        self.keys.fill(0);
        self.lines.fill(Line::default());
    }

    /// Number of currently valid lines (for occupancy assertions).
    pub fn valid_lines(&self) -> usize {
        self.keys.iter().filter(|&&k| k != 0).count()
    }

    /// Iterates over the block addresses of all valid lines.
    pub fn resident_blocks(&self) -> impl Iterator<Item = Addr> + '_ {
        self.keys.iter().zip(&self.lines).filter(|(&k, _)| k != 0).map(|(_, l)| l.block_addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::LINE_SIZE;
    use proptest::prelude::*;

    fn tiny_cache(assoc: usize, lines: usize, repl: ReplacementPolicy) -> SetAssocCache {
        SetAssocCache::new(CacheConfig {
            size_bytes: (lines as u64) * LINE_SIZE,
            line_size: LINE_SIZE,
            associativity: assoc,
            replacement: repl,
            write_alloc: WriteAllocPolicy::WriteAllocate,
            write_policy: WritePolicy::WriteBack,
            set_index: SetIndexFunction::Linear,
            latency: 1,
        })
    }

    #[test]
    fn geometry_of_table1_l1d() {
        let c = CacheConfig::l1d_gtx480();
        assert_eq!(c.num_lines(), 128);
        assert_eq!(c.num_sets(), 32);
    }

    #[test]
    fn geometry_of_table1_l2() {
        let c = CacheConfig::l2_gtx480();
        assert_eq!(c.num_lines(), 6144);
        assert_eq!(c.num_sets(), 768);
    }

    #[test]
    fn read_miss_then_hit() {
        let mut c = tiny_cache(2, 8, ReplacementPolicy::Lru);
        let a = 0x1000;
        assert_eq!(c.access(a, 0, false).outcome, AccessOutcome::Miss);
        assert_eq!(c.access(a, 0, false).outcome, AccessOutcome::Hit);
        assert_eq!(c.stats().reads, 2);
        assert_eq!(c.stats().read_hits, 1);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // 2-way, 1 set: addresses 0, S, 2S conflict (S = set span).
        let mut c = tiny_cache(2, 2, ReplacementPolicy::Lru);
        let span = LINE_SIZE; // 1 set => consecutive blocks conflict
        c.access(0, 0, false);
        c.access(span, 1, false);
        // Touch 0 so `span` becomes the LRU victim.
        c.access(0, 0, false);
        let res = c.access(2 * span, 2, false);
        let ev = res.evicted.expect("must evict");
        assert_eq!(ev.block_addr, span);
        assert_eq!(ev.owner, 1);
        assert!(c.probe(0));
        assert!(!c.probe(span));
    }

    #[test]
    fn fifo_evicts_oldest_allocation() {
        let mut c = tiny_cache(2, 2, ReplacementPolicy::Fifo);
        let span = LINE_SIZE;
        c.access(0, 0, false);
        c.access(span, 1, false);
        // Re-touching 0 must NOT save it under FIFO.
        c.access(0, 0, false);
        let res = c.access(2 * span, 2, false);
        assert_eq!(res.evicted.unwrap().block_addr, 0);
    }

    #[test]
    fn write_no_allocate_does_not_fill() {
        let mut c = SetAssocCache::new(CacheConfig::l1d_gtx480());
        let r = c.access(0x4000, 3, true);
        assert_eq!(r.outcome, AccessOutcome::MissNoAllocate);
        assert!(!c.probe(0x4000));
        assert_eq!(c.valid_lines(), 0);
    }

    #[test]
    fn write_back_marks_dirty_and_reports_writeback() {
        let mut c = tiny_cache(1, 1, ReplacementPolicy::Lru);
        c.access(0, 0, true); // write-allocate, dirty
        let res = c.access(LINE_SIZE, 1, false); // evicts dirty line
        let ev = res.evicted.unwrap();
        assert!(ev.dirty);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_through_hit_does_not_mark_dirty() {
        let mut c = SetAssocCache::new(CacheConfig {
            write_policy: WritePolicy::WriteThrough,
            write_alloc: WriteAllocPolicy::WriteAllocate,
            ..CacheConfig::l1d_gtx480()
        });
        c.access(0x80, 0, false);
        c.access(0x80, 0, true);
        // Evict it and verify no write-back was counted.
        c.flush();
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny_cache(4, 16, ReplacementPolicy::Lru);
        c.access(0x100, 7, false);
        assert!(c.probe(0x100));
        let ev = c.invalidate(0x100).unwrap();
        assert_eq!(ev.owner, 7);
        assert!(!c.probe(0x100));
        assert!(c.invalidate(0x100).is_none());
    }

    #[test]
    fn owner_tracking_follows_filler() {
        let mut c = tiny_cache(4, 16, ReplacementPolicy::Lru);
        c.access(0x200, 11, false);
        assert_eq!(c.owner_of(0x200), Some(11));
        // A hit by another warp does not transfer ownership.
        c.access(0x200, 12, false);
        assert_eq!(c.owner_of(0x200), Some(11));
    }

    #[test]
    fn hit_owner_reported() {
        let mut c = tiny_cache(4, 16, ReplacementPolicy::Lru);
        c.access(0x200, 11, false);
        let res = c.access(0x200, 3, false);
        assert_eq!(res.hit_owner, Some(11));
    }

    #[test]
    fn conflicting_warps_thrash_small_cache() {
        // Reproduces the Figure 3a scenario: two warps ping-pong on the same
        // set of a direct-mapped region and never hit.
        let mut c = tiny_cache(1, 1, ReplacementPolicy::Lru);
        let (d0, d4) = (0u64, LINE_SIZE);
        let mut hits = 0;
        for _ in 0..8 {
            if c.access(d0, 0, false).outcome == AccessOutcome::Hit {
                hits += 1;
            }
            if c.access(d4, 1, false).outcome == AccessOutcome::Hit {
                hits += 1;
            }
        }
        assert_eq!(hits, 0, "interfering warps should thrash the shared set");
    }

    proptest! {
        /// The number of valid lines never exceeds the configured capacity,
        /// and every resident block maps to the set it is stored in.
        #[test]
        fn capacity_and_placement_invariants(
            addrs in proptest::collection::vec(0u64..(1 << 20), 1..512),
            assoc in 1usize..8,
        ) {
            let lines = assoc * 8;
            let mut c = tiny_cache(assoc, lines, ReplacementPolicy::Lru);
            for (i, a) in addrs.iter().enumerate() {
                c.access(*a, (i % 48) as WarpId, i % 3 == 0);
                prop_assert!(c.valid_lines() <= lines);
            }
            let cfg = c.config().clone();
            for block in c.resident_blocks().collect::<Vec<_>>() {
                prop_assert!(c.probe(block));
                let set = cfg.set_index.set_index(block, c.num_sets(), cfg.line_size);
                prop_assert!(set < c.num_sets());
            }
        }

        /// Statistics are conserved: hits + misses == accesses, and fills are
        /// at least the number of read misses under write-allocate.
        #[test]
        fn stats_conservation(addrs in proptest::collection::vec(0u64..(1 << 18), 1..256)) {
            let mut c = tiny_cache(4, 32, ReplacementPolicy::Lru);
            for a in &addrs {
                c.access(*a, 0, false);
            }
            let s = *c.stats();
            prop_assert_eq!(s.hits() + s.misses(), s.accesses());
            prop_assert_eq!(s.accesses(), addrs.len() as u64);
            prop_assert_eq!(s.fills, s.misses());
        }

        /// The shift-and-mask set and tag of a power-of-two geometry equal
        /// the set-index function's own, as does the `%` path of the
        /// 768-set L2.
        #[test]
        fn set_and_key_match_the_set_index_function(
            addr in any::<u64>(),
            sets_log2 in 0u32..11,
            linear in any::<bool>(),
        ) {
            let set_index =
                if linear { SetIndexFunction::Linear } else { SetIndexFunction::XorHash };
            let sets = 1u64 << sets_log2;
            for (size_bytes, associativity) in [(sets * 4 * LINE_SIZE, 4), (768 * 8 * LINE_SIZE, 8)] {
                let c = SetAssocCache::new(CacheConfig {
                    size_bytes,
                    associativity,
                    set_index,
                    ..CacheConfig::l2_gtx480()
                });
                let n = c.num_sets();
                let expected =
                    (set_index.set_index(addr, n, LINE_SIZE), set_index.tag(addr, n, LINE_SIZE) + 1);
                prop_assert_eq!(c.set_and_key(addr), expected);
            }
        }

        /// After accessing an address it is always resident (read, write-allocate).
        #[test]
        fn read_allocates(addr in 0u64..(1 << 30)) {
            let mut c = tiny_cache(4, 64, ReplacementPolicy::Lru);
            c.access(addr, 0, false);
            prop_assert!(c.probe(addr));
        }
    }
}
