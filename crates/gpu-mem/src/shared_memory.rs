//! Shared-memory (scratchpad) bank model.
//!
//! §II-A of the paper: the SM's on-chip memory structure has 32 banks with
//! 512 rows; 128 or 384 contiguous rows can be allocated to shared memory
//! (16 KB or 48 KB) and the rest to L1D. All 32 L1D banks operate in tandem
//! for one 128-byte access, whereas the 32 shared-memory banks can each serve
//! an independent request per cycle (up to 32 in parallel), subject to bank
//! conflicts. Each bank allows 64-bit (8-byte) accesses (§IV-B).
//!
//! This module models the scratchpad as seen by *CTA-allocated* shared-memory
//! traffic: a bank-conflict-aware access-latency model plus simple occupancy
//! statistics. The CIAO *shared-memory-as-cache* layout (tags + 128-byte data
//! blocks striped across two 16-bank groups) is built on top of this model in
//! `ciao-core::shmem_cache`.

use crate::Cycle;
use serde::{Deserialize, Serialize};

/// Static configuration of the shared-memory structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SharedMemoryConfig {
    /// Total scratchpad capacity in bytes (48 KB in Table I).
    pub size_bytes: u32,
    /// Number of independently addressable banks (32).
    pub num_banks: u32,
    /// Width of one bank access in bytes (8 bytes / 64 bits).
    pub bank_width: u32,
    /// Minimum access latency in cycles (1 in Table I).
    pub latency: Cycle,
}

impl SharedMemoryConfig {
    /// The 48 KB / 32-bank / 1-cycle configuration of Table I.
    pub fn gtx480() -> Self {
        SharedMemoryConfig { size_bytes: 48 * 1024, num_banks: 32, bank_width: 8, latency: 1 }
    }

    /// The shrunken 16 KB shared memory used by the `GTO-cap` configuration
    /// of Fig. 12a (L1D grown to 48 KB).
    pub fn gtx480_small() -> Self {
        SharedMemoryConfig { size_bytes: 16 * 1024, ..Self::gtx480() }
    }

    /// Number of rows per bank implied by the geometry.
    pub fn rows_per_bank(&self) -> u32 {
        self.size_bytes / (self.num_banks * self.bank_width)
    }

    /// Bank index serving shared-memory byte address `addr`.
    pub fn bank_of(&self, addr: u32) -> u32 {
        (addr / self.bank_width) % self.num_banks
    }

    /// Row index within its bank for shared-memory byte address `addr`.
    pub fn row_of(&self, addr: u32) -> u32 {
        (addr / self.bank_width) / self.num_banks
    }
}

/// Access statistics for the scratchpad.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SharedMemoryStats {
    /// Warp-level access groups served.
    pub accesses: u64,
    /// Individual bank requests served.
    pub bank_requests: u64,
    /// Extra serialisation cycles caused by bank conflicts.
    pub conflict_cycles: u64,
}

/// The shared-memory scratchpad of one SM.
#[derive(Debug, Clone)]
pub struct SharedMemory {
    config: SharedMemoryConfig,
    stats: SharedMemoryStats,
}

impl SharedMemory {
    /// Builds a scratchpad from `config`.
    pub fn new(config: SharedMemoryConfig) -> Self {
        SharedMemory { config, stats: SharedMemoryStats::default() }
    }

    /// The configuration of this scratchpad.
    pub fn config(&self) -> &SharedMemoryConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &SharedMemoryStats {
        &self.stats
    }

    /// Serves one warp-wide group of shared-memory accesses and returns the
    /// number of cycles the access occupies the scratchpad.
    ///
    /// The latency is `base_latency * max_conflict_degree`, where the conflict
    /// degree of a bank is the number of distinct rows the warp's lanes touch
    /// in that bank (accesses to the same bank *and* row are broadcast and do
    /// not conflict, matching NVIDIA's documented behaviour).
    pub fn access(&mut self, lane_addrs: &[u32]) -> Cycle {
        self.stats.accesses += 1;
        if lane_addrs.is_empty() {
            return self.config.latency;
        }
        let nb = self.config.num_banks as usize;
        // Distinct rows requested per bank.
        let mut rows_per_bank: Vec<Vec<u32>> = vec![Vec::new(); nb];
        for &a in lane_addrs {
            let b = self.config.bank_of(a) as usize;
            let r = self.config.row_of(a);
            if !rows_per_bank[b].contains(&r) {
                rows_per_bank[b].push(r);
            }
            self.stats.bank_requests += 1;
        }
        let max_degree = rows_per_bank.iter().map(Vec::len).max().unwrap_or(1).max(1) as Cycle;
        let extra = max_degree - 1;
        self.stats.conflict_cycles += extra;
        self.config.latency * max_degree
    }

    /// Serves an aligned 128-byte block access striped across one 16-bank
    /// group (the CIAO data-block layout of §IV-B): 16 banks × 8 bytes are
    /// read in parallel, so the access is conflict-free by construction and
    /// costs the base latency.
    pub fn access_block(&mut self) -> Cycle {
        self.stats.accesses += 1;
        self.stats.bank_requests += 16;
        self.config.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn geometry_table1() {
        let c = SharedMemoryConfig::gtx480();
        assert_eq!(c.rows_per_bank(), 192); // 48 KB / (32 banks * 8 B)
        assert_eq!(SharedMemoryConfig::gtx480_small().rows_per_bank(), 64);
    }

    #[test]
    fn bank_and_row_mapping() {
        let c = SharedMemoryConfig::gtx480();
        assert_eq!(c.bank_of(0), 0);
        assert_eq!(c.bank_of(8), 1);
        assert_eq!(c.bank_of(8 * 31), 31);
        assert_eq!(c.bank_of(8 * 32), 0);
        assert_eq!(c.row_of(8 * 32), 1);
    }

    #[test]
    fn conflict_free_access_is_single_latency() {
        let mut sm = SharedMemory::new(SharedMemoryConfig::gtx480());
        // 32 lanes touching 32 distinct banks.
        let addrs: Vec<u32> = (0..32).map(|i| i * 8).collect();
        assert_eq!(sm.access(&addrs), 1);
        assert_eq!(sm.stats().conflict_cycles, 0);
    }

    #[test]
    fn same_bank_distinct_rows_serialise() {
        let mut sm = SharedMemory::new(SharedMemoryConfig::gtx480());
        // 4 lanes all hitting bank 0 in different rows => degree 4.
        let addrs: Vec<u32> = (0..4).map(|i| i * 8 * 32).collect();
        assert_eq!(sm.access(&addrs), 4);
        assert_eq!(sm.stats().conflict_cycles, 3);
    }

    #[test]
    fn broadcast_same_row_does_not_conflict() {
        let mut sm = SharedMemory::new(SharedMemoryConfig::gtx480());
        let addrs = vec![16u32; 32]; // every lane reads the same word
        assert_eq!(sm.access(&addrs), 1);
    }

    #[test]
    fn block_access_is_conflict_free() {
        let mut sm = SharedMemory::new(SharedMemoryConfig::gtx480());
        assert_eq!(sm.access_block(), 1);
        assert_eq!(sm.stats().bank_requests, 16);
    }

    proptest! {
        /// Latency is always between 1× and `lanes`× the base latency.
        #[test]
        fn latency_bounds(addrs in proptest::collection::vec(0u32..48 * 1024, 1..32)) {
            let mut sm = SharedMemory::new(SharedMemoryConfig::gtx480());
            let n = addrs.len() as Cycle;
            let lat = sm.access(&addrs);
            prop_assert!(lat >= 1 && lat <= n.max(1));
        }

        /// Bank index is always within range.
        #[test]
        fn bank_in_range(addr in 0u32..48 * 1024) {
            let c = SharedMemoryConfig::gtx480();
            prop_assert!(c.bank_of(addr) < c.num_banks);
            prop_assert!(c.row_of(addr) < c.rows_per_bank());
        }
    }
}
