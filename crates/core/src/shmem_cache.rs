//! CIAO on-chip memory architecture: unused shared memory as a cache (§IV-B).
//!
//! The structure is a **direct-mapped** cache (so a tag and its data block
//! can be fetched with a single scratchpad access) whose capacity tracks the
//! shared memory left unused by the resident CTAs. Tags and 128-byte data
//! blocks are placed in opposite 16-bank groups by the
//! [`crate::translation::TranslationUnit`], which makes a
//! tag + data access conflict-free; the hit latency therefore equals the
//! scratchpad latency.
//!
//! The structure plugs into the SM through `gpu_sim::RedirectCache`. The SM
//! handles the orchestration (L1D probe + migration through the response
//! queue, MSHR allocation with the translated address, L2 fetch) and keeps
//! the one scratchpad ledger, its SMMT (`gpu_mem::smmt`): after every CTA
//! launch and retire it hands `Smmt::unused()`, the §IV-B unused space, to
//! [`RedirectCache::set_capacity`]. The cache takes that space at the top of
//! the scratchpad, above the CTAs' bytes. This module owns the tag state,
//! the replacement behaviour and the utilisation statistic reported in
//! Fig. 8b.

use crate::translation::TranslationUnit;
use gpu_mem::cache::EvictedLine;
use gpu_mem::{Addr, Cycle, WarpId};
use gpu_sim::redirect::{RedirectCache, RedirectLookup};
use serde::{Deserialize, Serialize};

/// One direct-mapped line of the shared-memory cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct ShmemLine {
    valid: bool,
    block_addr: Addr,
    owner: WarpId,
}

impl ShmemLine {
    fn invalid() -> Self {
        ShmemLine { valid: false, block_addr: 0, owner: 0 }
    }
}

/// Statistics of the shared-memory cache: the lookup counts the SM reads
/// through [`RedirectCache::hits`] and [`RedirectCache::misses`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShmemCacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
}

/// Unused shared memory organised as a direct-mapped cache.
#[derive(Debug, Clone)]
pub struct SharedMemCache {
    /// Scratchpad size (total, including CTA usage).
    scratchpad_bytes: u32,
    /// Scratchpad access latency (hit latency of this cache).
    latency: Cycle,
    /// Translation unit for the unused region (None = too little space).
    translation: Option<TranslationUnit>,
    lines: Vec<ShmemLine>,
    stats: ShmemCacheStats,
}

impl SharedMemCache {
    /// Creates the structure for a scratchpad of `scratchpad_bytes` with the
    /// given access latency, initially assuming the whole scratchpad is
    /// unused (the SM adjusts it via [`RedirectCache::set_capacity`] as CTAs
    /// launch and retire).
    pub fn new(scratchpad_bytes: u32, latency: Cycle) -> Self {
        let mut cache = SharedMemCache {
            scratchpad_bytes,
            latency,
            translation: None,
            lines: Vec::new(),
            stats: ShmemCacheStats::default(),
        };
        cache.rebuild(cache.unit_for(u64::from(scratchpad_bytes)));
        cache
    }

    /// Convenience constructor matching the Table I scratchpad (48 KB, 1 cycle).
    pub fn gtx480() -> Self {
        SharedMemCache::new(48 * 1024, 1)
    }

    /// Current statistics.
    pub fn stats(&self) -> &ShmemCacheStats {
        &self.stats
    }

    /// Number of cache lines currently available.
    pub fn num_lines(&self) -> usize {
        self.lines.len()
    }

    /// Number of valid lines currently held.
    pub fn valid_lines(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }

    /// The translation unit for `unused_bytes` of free scratchpad, clamped
    /// to the scratchpad. The CTAs' bytes count from address 0, so the
    /// cache's rows start right above them.
    fn unit_for(&self, unused_bytes: u64) -> Option<TranslationUnit> {
        let unused = unused_bytes.min(u64::from(self.scratchpad_bytes)) as u32;
        TranslationUnit::new(u64::from(unused), (self.scratchpad_bytes - unused) / 128)
    }

    /// Installs `translation` with every line invalid.
    fn rebuild(&mut self, translation: Option<TranslationUnit>) {
        self.translation = translation;
        let lines = translation.map_or(0, |t| t.num_lines() as usize);
        self.lines = vec![ShmemLine::invalid(); lines];
    }

    fn line_index(&self, block_addr: Addr) -> Option<usize> {
        self.translation.map(|t| t.translate(block_addr).line_index as usize)
    }
}

impl RedirectCache for SharedMemCache {
    fn lookup(&mut self, block_addr: Addr, _wid: WarpId, _is_write: bool) -> RedirectLookup {
        let Some(idx) = self.line_index(block_addr) else {
            return RedirectLookup::Unavailable;
        };
        let line = self.lines[idx];
        if line.valid && line.block_addr == block_addr {
            self.stats.hits += 1;
            RedirectLookup::Hit { latency: self.latency }
        } else {
            self.stats.misses += 1;
            RedirectLookup::Miss
        }
    }

    fn fill(&mut self, block_addr: Addr, wid: WarpId) -> Option<EvictedLine> {
        let idx = self.line_index(block_addr)?;
        let previous = self.lines[idx];
        self.lines[idx] = ShmemLine { valid: true, block_addr, owner: wid };
        if previous.valid && previous.block_addr != block_addr {
            Some(EvictedLine {
                block_addr: previous.block_addr,
                owner: previous.owner,
                dirty: false,
            })
        } else {
            None
        }
    }

    fn utilization(&self) -> f64 {
        if self.lines.is_empty() {
            0.0
        } else {
            self.valid_lines() as f64 / self.lines.len() as f64
        }
    }

    fn capacity_bytes(&self) -> u64 {
        self.translation.map(|t| t.data_capacity_bytes()).unwrap_or(0)
    }

    fn hits(&self) -> u64 {
        self.stats.hits
    }

    fn misses(&self) -> u64 {
        self.stats.misses
    }

    fn invalidate_all(&mut self) {
        for l in &mut self.lines {
            *l = ShmemLine::invalid();
        }
    }

    fn set_capacity(&mut self, unused_bytes: u64) {
        // Rebuild only when the usable capacity actually changes; the SM
        // calls this after every CTA launch/retire.
        let unit = self.unit_for(unused_bytes);
        if unit.map_or(0, |t| t.data_capacity_bytes()) != self.capacity_bytes() {
            self.rebuild(unit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = SharedMemCache::gtx480();
        assert_eq!(c.lookup(0x8000, 1, false), RedirectLookup::Miss);
        assert!(c.fill(0x8000, 1).is_none());
        assert_eq!(c.lookup(0x8000, 2, false), RedirectLookup::Hit { latency: 1 });
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn direct_mapped_conflicts_evict_with_owner() {
        let mut c = SharedMemCache::gtx480();
        let lines = c.num_lines() as u64;
        let a = 0x0;
        let b = lines * 128; // maps onto the same line as `a`
        c.fill(a, 3);
        let ev = c.fill(b, 5).expect("conflict must evict");
        assert_eq!(ev.block_addr, a);
        assert_eq!(ev.owner, 3);
        assert_eq!(c.lookup(a, 3, false), RedirectLookup::Miss);
        assert_eq!(c.lookup(b, 5, false), RedirectLookup::Hit { latency: 1 });
    }

    #[test]
    fn refilling_same_block_does_not_evict() {
        let mut c = SharedMemCache::gtx480();
        c.fill(0x100, 1);
        assert!(c.fill(0x100, 2).is_none());
        assert_eq!(c.lookup(0x100, 1, false), RedirectLookup::Hit { latency: 1 });
        assert_eq!(c.valid_lines(), 1);
    }

    #[test]
    fn capacity_tracks_cta_usage() {
        let mut c = SharedMemCache::gtx480();
        let full = c.capacity_bytes();
        assert!(full > 40 * 1024, "nearly the whole 48 KB should be usable, got {full}");
        // CTAs occupy 40 KB: only ~8 KB left.
        c.set_capacity(8 * 1024);
        assert!(c.capacity_bytes() <= 8 * 1024);
        assert!(c.capacity_bytes() > 4 * 1024);
        // CTAs occupy everything: structure unavailable.
        c.set_capacity(0);
        assert_eq!(c.capacity_bytes(), 0);
        assert_eq!(c.lookup(0x80, 0, false), RedirectLookup::Unavailable);
        assert!(c.fill(0x80, 0).is_none());
        // Space frees up again.
        c.set_capacity(48 * 1024);
        assert_eq!(c.capacity_bytes(), full);
    }

    #[test]
    fn utilization_grows_with_fills() {
        let mut c = SharedMemCache::new(8 * 1024, 1);
        assert_eq!(c.utilization(), 0.0);
        let n = c.num_lines() as u64;
        for i in 0..n / 2 {
            c.fill(i * 128, 0);
        }
        let u = c.utilization();
        assert!(u > 0.4 && u <= 0.51, "expected about half utilised, got {u}");
        c.invalidate_all();
        assert_eq!(c.utilization(), 0.0);
    }

    #[test]
    fn resize_invalidates_contents() {
        let mut c = SharedMemCache::gtx480();
        c.fill(0x80, 0);
        c.set_capacity(16 * 1024);
        assert_eq!(c.valid_lines(), 0);
        assert_eq!(c.lookup(0x80, 0, false), RedirectLookup::Miss, "the resize dropped the line");
        assert!(c.fill(0x80, 0).is_none(), "a fill into the rebuilt structure evicts nothing");
        assert_eq!(c.lookup(0x80, 0, false), RedirectLookup::Hit { latency: 1 });
    }

    #[test]
    fn same_capacity_resize_is_a_no_op() {
        let mut c = SharedMemCache::gtx480();
        c.fill(0x80, 0);
        c.set_capacity(48 * 1024);
        assert_eq!(c.valid_lines(), 1, "identical capacity must not rebuild");
        assert_eq!(c.lookup(0x80, 0, false), RedirectLookup::Hit { latency: 1 });
    }

    proptest! {
        /// The structure holds exactly the blocks filled and not reported
        /// evicted: a lookup hits just those, the valid lines never exceed
        /// the capacity, and the hit and miss counts match the lookups'
        /// results.
        #[test]
        fn accounting_invariants(ops in proptest::collection::vec((0u64..512, any::<bool>()), 1..300)) {
            let mut c = SharedMemCache::new(4 * 1024, 1);
            let mut resident = std::collections::HashSet::new();
            let (mut hits, mut misses) = (0u64, 0u64);
            for (block, do_fill) in ops {
                let addr = block * 128;
                let wid = (block % 48) as WarpId;
                if do_fill {
                    if let Some(evicted) = c.fill(addr, wid) {
                        prop_assert!(resident.remove(&evicted.block_addr));
                    }
                    resident.insert(addr);
                } else {
                    let outcome = c.lookup(addr, wid, false);
                    match outcome {
                        RedirectLookup::Hit { .. } => hits += 1,
                        RedirectLookup::Miss => misses += 1,
                        RedirectLookup::Unavailable => prop_assert!(false, "4 KB has lines"),
                    }
                    prop_assert_eq!(matches!(outcome, RedirectLookup::Hit { .. }), resident.contains(&addr));
                }
                prop_assert!(c.valid_lines() <= c.num_lines());
                prop_assert_eq!(c.valid_lines(), resident.len());
            }
            prop_assert_eq!((c.hits(), c.misses()), (hits, misses));
        }
    }
}
