//! Miss-Status Holding Registers (MSHRs).
//!
//! The L1D of the modelled SM tracks outstanding misses in a small MSHR file:
//! a flat array of entries searched by block address, as the hardware's
//! associative file is (§IV-B). Requests to a block that already has an
//! outstanding miss are *merged* into the existing entry instead of
//! generating new downstream traffic.
//!
//! CIAO extends each MSHR entry with a *fill target* (§IV-B, "Datapath
//! connection"): when the unused shared memory space serves as a cache for
//! an isolated warp, a shared-memory miss reserves an entry marked
//! [`FillTarget::SharedMemory`], so the L2 response is steered into the
//! shared-memory data array instead of the L1D. The simulator models the
//! translated address and the L1D→shared-memory migration path as latency
//! only, so the entry carries neither.

use crate::addr::Addr;
use crate::{Cycle, WarpId};
use serde::{Deserialize, Serialize};

/// Identifies where the fill data for an entry should be placed on return.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FillTarget {
    /// Normal path: fill the L1D cache.
    L1d,
    /// CIAO path: fill the shared-memory cache.
    SharedMemory,
}

/// A single outstanding miss.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MshrEntry {
    /// Block-aligned global address being fetched.
    pub block_addr: Addr,
    /// Warps whose requests merged into this entry, in arrival order.
    pub waiting_warps: Vec<WarpId>,
    /// Where the data should be placed when the response arrives.
    pub fill_target: FillTarget,
    /// Cycle at which the first (allocating) request arrived.
    pub issue_cycle: Cycle,
}

/// Outcome of [`Mshr::allocate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MshrAllocation {
    /// A new entry was created; the caller must send a fetch downstream.
    New,
    /// The request was merged into an existing entry; no new fetch needed.
    Merged,
}

/// Reasons an allocation can fail (structural hazards).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MshrError {
    /// All MSHR entries are in use.
    Full,
    /// The entry for this block exists but its merge list is full.
    MergeListFull,
}

impl std::fmt::Display for MshrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MshrError::Full => write!(f, "all MSHR entries are in use"),
            MshrError::MergeListFull => write!(f, "MSHR merge list is full for this block"),
        }
    }
}

impl std::error::Error for MshrError {}

/// The MSHR file: a flat array of at most `max_entries` outstanding misses,
/// searched associatively by block address, as the hardware's small CAM is
/// (§IV-B; Table I: 32 entries of up to 8 merged requests). `blocks[i]` is
/// the tag of `entries[i]`, kept in an array of its own so a probe scans 8
/// bytes per entry. A fill moves the last entry into the freed slot: slot
/// order carries no meaning. Merge lists handed back through
/// [`Mshr::recycle`] are reused by later allocations, so a steady stream of
/// misses allocates nothing. [`Mshr::version`] moves whenever the set of
/// tags does, so a caller can keep an answer computed from the tags until
/// then.
#[derive(Debug, Clone)]
pub struct Mshr {
    max_entries: usize,
    max_merged: usize,
    blocks: Vec<Addr>,
    entries: Vec<MshrEntry>,
    /// Emptied merge lists waiting to be reused.
    spare_lists: Vec<Vec<WarpId>>,
    /// Counts the changes of the set of tags.
    version: u64,
}

impl Mshr {
    /// Creates an MSHR file with `max_entries` entries, each able to merge up
    /// to `max_merged` requests (including the allocating one).
    pub fn new(max_entries: usize, max_merged: usize) -> Self {
        assert!(max_entries > 0 && max_merged > 0);
        Mshr {
            max_entries,
            max_merged,
            blocks: Vec::new(),
            entries: Vec::new(),
            spare_lists: Vec::new(),
            version: 0,
        }
    }

    /// Number of entries currently in flight.
    pub fn in_flight(&self) -> usize {
        self.entries.len()
    }

    /// A counter that moves on every allocation of a new entry, fill and
    /// clear: while it stays, [`Mshr::probe`] and [`Mshr::in_flight`] give
    /// the same answers.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// True when no more entries can be allocated.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.max_entries
    }

    /// Slot of the entry for `block_addr`, if outstanding.
    fn slot(&self, block_addr: Addr) -> Option<usize> {
        self.blocks.iter().position(|&b| b == block_addr)
    }

    /// True if a miss to `block_addr` is already outstanding. Every tag is
    /// compared, with no early exit, so the compiler turns the scan into a
    /// few wide compares; most probes miss and would scan every tag anyway.
    pub fn probe(&self, block_addr: Addr) -> bool {
        self.blocks.iter().fold(false, |found, &b| found | (b == block_addr))
    }

    /// Returns the entry for `block_addr`, if outstanding.
    pub fn entry(&self, block_addr: Addr) -> Option<&MshrEntry> {
        self.slot(block_addr).map(|i| &self.entries[i])
    }

    /// Registers a miss for `block_addr` by warp `wid`.
    ///
    /// Returns whether a new downstream fetch must be generated or the
    /// request merged into an existing one, or an error when a structural
    /// hazard prevents the allocation (the caller should then replay the
    /// access on a later cycle, which is how the SM models MSHR back-pressure).
    pub fn allocate(
        &mut self,
        block_addr: Addr,
        wid: WarpId,
        now: Cycle,
        fill_target: FillTarget,
    ) -> Result<MshrAllocation, MshrError> {
        // Most allocations are new blocks: the wide probe rules out a merge
        // before the slot is searched for.
        if self.probe(block_addr) {
            let i = self.slot(block_addr).expect("a probed tag has a slot");
            let waiting = &mut self.entries[i].waiting_warps;
            if waiting.len() >= self.max_merged {
                return Err(MshrError::MergeListFull);
            }
            waiting.push(wid);
            return Ok(MshrAllocation::Merged);
        }
        if self.entries.len() >= self.max_entries {
            return Err(MshrError::Full);
        }
        let mut waiting_warps = self.spare_lists.pop().unwrap_or_default();
        waiting_warps.push(wid);
        self.version += 1;
        self.blocks.push(block_addr);
        self.entries.push(MshrEntry { block_addr, waiting_warps, fill_target, issue_cycle: now });
        Ok(MshrAllocation::New)
    }

    /// Completes the outstanding miss for `block_addr`, removing and
    /// returning its entry (with the full list of warps to wake up). Hand
    /// the entry back through [`Mshr::recycle`] once its warps are woken.
    pub fn fill(&mut self, block_addr: Addr) -> Option<MshrEntry> {
        let i = self.slot(block_addr)?;
        self.version += 1;
        self.blocks.swap_remove(i);
        Some(self.entries.swap_remove(i))
    }

    /// Takes back a filled entry's merge list for reuse by a later
    /// allocation (emptied first, so no warp carries over).
    pub fn recycle(&mut self, entry: MshrEntry) {
        let mut list = entry.waiting_warps;
        list.clear();
        self.spare_lists.push(list);
    }

    /// Drops every outstanding entry (used between kernels).
    pub fn clear(&mut self) {
        self.version += 1;
        self.blocks.clear();
        for entry in std::mem::take(&mut self.entries) {
            self.recycle(entry);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn allocate_then_merge_then_fill() {
        let mut m = Mshr::new(4, 4);
        assert_eq!(m.allocate(0x100, 1, 10, FillTarget::L1d).unwrap(), MshrAllocation::New);
        assert_eq!(m.allocate(0x100, 2, 11, FillTarget::L1d).unwrap(), MshrAllocation::Merged);
        assert!(m.probe(0x100));
        assert_eq!((m.in_flight(), m.version()), (1, 1), "a merge keeps the version");
        let e = m.fill(0x100).unwrap();
        assert_eq!(m.version(), 2);
        assert_eq!(e.waiting_warps, vec![1, 2]);
        assert_eq!(e.issue_cycle, 10);
        assert!(!m.probe(0x100));
    }

    #[test]
    fn full_mshr_rejects() {
        let mut m = Mshr::new(2, 2);
        m.allocate(0x000, 0, 0, FillTarget::L1d).unwrap();
        m.allocate(0x080, 0, 0, FillTarget::L1d).unwrap();
        assert_eq!(m.allocate(0x100, 0, 0, FillTarget::L1d), Err(MshrError::Full));
        assert!(m.is_full());
    }

    #[test]
    fn merge_list_limit_enforced() {
        let mut m = Mshr::new(2, 2);
        m.allocate(0x000, 0, 0, FillTarget::L1d).unwrap();
        m.allocate(0x000, 1, 0, FillTarget::L1d).unwrap();
        assert_eq!(m.allocate(0x000, 2, 0, FillTarget::L1d), Err(MshrError::MergeListFull));
    }

    #[test]
    fn shared_memory_fill_target_preserved() {
        let mut m = Mshr::new(32, 8);
        m.allocate(0x2000, 5, 3, FillTarget::SharedMemory).unwrap();
        let e = m.entry(0x2000).unwrap();
        assert_eq!(e.fill_target, FillTarget::SharedMemory);
    }

    #[test]
    fn fill_unknown_block_returns_none() {
        let mut m = Mshr::new(32, 8);
        assert!(m.fill(0xdead_0000).is_none());
    }

    #[test]
    fn recycled_merge_list_starts_empty() {
        let mut m = Mshr::new(1, 4);
        m.allocate(0x100, 1, 0, FillTarget::L1d).unwrap();
        m.allocate(0x100, 2, 0, FillTarget::L1d).unwrap();
        let e = m.fill(0x100).unwrap();
        m.recycle(e);
        m.allocate(0x200, 3, 5, FillTarget::L1d).unwrap();
        assert_eq!(m.entry(0x200).unwrap().waiting_warps, vec![3]);
        m.clear();
        assert_eq!(m.in_flight(), 0);
        m.allocate(0x300, 4, 6, FillTarget::L1d).unwrap();
        assert_eq!(m.fill(0x300).unwrap().waiting_warps, vec![4]);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// The flat file behaves exactly like a `HashMap` keyed by block:
        /// random allocate / fill sequences over a small block pool (so
        /// merges, full files and full merge lists all happen) give the
        /// same results, both error variants included, the same
        /// `in_flight`, `probe` and entry contents after every step, merge
        /// lists in arrival order. Every filled
        /// entry is recycled, so later allocations reuse its merge list and
        /// must never see one of its warps again.
        #[test]
        fn flat_file_matches_a_hash_map_model(
            (max_entries, max_merged) in (1usize..9, 1usize..5),
            ops in proptest::collection::vec((0u8..3, 0u64..12, 0u32..48), 1..300),
        ) {
            let mut m = Mshr::new(max_entries, max_merged);
            let mut model: std::collections::HashMap<Addr, MshrEntry> = Default::default();
            for (step, &(kind, block, wid)) in ops.iter().enumerate() {
                let addr = block * 128;
                let now = step as Cycle;
                if kind == 0 {
                    let got = m.fill(addr);
                    let want = model.remove(&addr);
                    prop_assert_eq!(&got, &want, "fill {:#x} at step {}", addr, step);
                    if let Some(entry) = got {
                        m.recycle(entry);
                    }
                } else {
                    let target =
                        if kind == 1 { FillTarget::L1d } else { FillTarget::SharedMemory };
                    let in_flight = model.len();
                    let want = match model.get_mut(&addr) {
                        Some(e) if e.waiting_warps.len() >= max_merged => {
                            Err(MshrError::MergeListFull)
                        }
                        Some(e) => {
                            e.waiting_warps.push(wid);
                            Ok(MshrAllocation::Merged)
                        }
                        None if in_flight >= max_entries => Err(MshrError::Full),
                        None => {
                            model.insert(addr, MshrEntry {
                                block_addr: addr,
                                waiting_warps: vec![wid],
                                fill_target: target,
                                issue_cycle: now,
                            });
                            Ok(MshrAllocation::New)
                        }
                    };
                    prop_assert_eq!(m.allocate(addr, wid, now, target), want, "step {}", step);
                }
                prop_assert_eq!(m.in_flight(), model.len());
                prop_assert_eq!(m.is_full(), model.len() >= max_entries);
                for b in 0..12u64 {
                    prop_assert_eq!(m.probe(b * 128), model.contains_key(&(b * 128)));
                    prop_assert_eq!(m.entry(b * 128), model.get(&(b * 128)));
                }
            }
        }
    }

    proptest! {
        /// The MSHR never leaks entries: after filling every allocated block
        /// the file is empty, and in-flight never exceeds the capacity.
        #[test]
        fn no_leaks(blocks in proptest::collection::vec(0u64..64, 1..200)) {
            let mut m = Mshr::new(16, 8);
            let mut outstanding = std::collections::HashSet::new();
            for (i, b) in blocks.iter().enumerate() {
                let addr = b * 128;
                if m.allocate(addr, (i % 48) as WarpId, i as Cycle, FillTarget::L1d).is_ok() { outstanding.insert(addr); }
                prop_assert!(m.in_flight() <= 16);
            }
            for addr in &outstanding {
                prop_assert!(m.fill(*addr).is_some());
            }
            prop_assert_eq!(m.in_flight(), 0);
        }

        /// Merged warps are returned in arrival order and never exceed the
        /// merge capacity.
        #[test]
        fn merge_order_preserved(warps in proptest::collection::vec(0u32..48, 1..20)) {
            let mut m = Mshr::new(4, 64);
            let mut expected = Vec::new();
            for (i, w) in warps.iter().enumerate() {
                if m.allocate(0x80, *w, i as Cycle, FillTarget::L1d).is_ok() {
                    expected.push(*w);
                }
            }
            let entry = m.fill(0x80).unwrap();
            prop_assert_eq!(entry.waiting_warps, expected);
        }
    }
}
