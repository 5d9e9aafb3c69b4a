//! GDDR5-like DRAM channel model.
//!
//! Table I of the paper configures GDDR5 with 16 banks, tCL = 12, tRCD = 12
//! and tRAS = 28 (in memory-clock cycles). Figure 12b additionally studies a
//! doubled-bandwidth configuration (177 GB/s → 340 GB/s aggregate).
//!
//! The model captures the three effects that matter for the paper's results:
//!
//! 1. **Row-buffer locality** — an access to the currently open row pays only
//!    CAS latency; a row miss pays precharge + activate + CAS.
//! 2. **Bank-level parallelism** — each of the 16 banks serves requests
//!    independently; a request waits until its bank is free.
//! 3. **Finite data-bus bandwidth** — each 128-byte burst occupies the shared
//!    data bus for `line_size / bytes_per_cycle` cycles, which is what the
//!    statPCAL-style bypass schemes saturate when they push L1D misses
//!    straight to memory.
//!
//! Latencies are expressed in SM core cycles for simplicity (the paper's
//! qualitative results do not depend on the core/memory clock ratio).

use crate::addr::Addr;
use crate::Cycle;
use serde::{Deserialize, Serialize};

/// Static DRAM channel configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Number of banks in the channel (16 in Table I).
    pub num_banks: usize,
    /// CAS latency in cycles (tCL = 12).
    pub t_cl: Cycle,
    /// RAS-to-CAS delay in cycles (tRCD = 12).
    pub t_rcd: Cycle,
    /// Row-active time in cycles (tRAS = 28); models the minimum time a row
    /// stays open, charged as the precharge component of a row conflict.
    pub t_ras: Cycle,
    /// Row-buffer size in bytes (granularity of row-hit detection).
    pub row_size: u64,
    /// Data-bus bandwidth available to one SM, in bytes per core cycle.
    ///
    /// GTX 480: 177 GB/s aggregate at 1.4 GHz core clock over 15 SMs
    /// ≈ 8.4 bytes/cycle/SM. The doubled-bandwidth configuration of Fig. 12b
    /// uses ~16.2 bytes/cycle/SM.
    pub bytes_per_cycle: f64,
    /// Fixed off-chip round-trip overhead added to every access (command
    /// queues, PHY, interconnect serialisation), in cycles.
    pub base_latency: Cycle,
}

impl DramConfig {
    /// Baseline GTX 480-like channel (per-SM slice of 177 GB/s).
    pub fn gtx480() -> Self {
        DramConfig {
            num_banks: 16,
            t_cl: 12,
            t_rcd: 12,
            t_ras: 28,
            row_size: 2048,
            bytes_per_cycle: 8.4,
            base_latency: 220,
        }
    }

    /// The doubled-bandwidth configuration of Fig. 12b (statPCAL-2X /
    /// CIAO-C-2X): 177 GB/s → 340 GB/s.
    pub fn gtx480_2x_bandwidth() -> Self {
        DramConfig { bytes_per_cycle: 8.4 * 340.0 / 177.0, ..Self::gtx480() }
    }

    /// Bank index for an address (rows are interleaved across banks).
    pub fn bank_of(&self, addr: Addr) -> usize {
        ((addr / self.row_size) % self.num_banks as u64) as usize
    }

    /// Row index within a bank for an address.
    pub fn row_of(&self, addr: Addr) -> u64 {
        (addr / self.row_size) / self.num_banks as u64
    }
}

/// Per-bank state.
#[derive(Debug, Clone, Copy, Default)]
struct BankState {
    /// Currently open row, if any.
    open_row: Option<u64>,
    /// Cycle at which the bank becomes free for a new access.
    ready_at: Cycle,
}

/// Aggregate DRAM statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DramStats {
    /// Read/write bursts served.
    pub accesses: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row-buffer misses (activate needed).
    pub row_misses: u64,
    /// Total bytes transferred over the data bus.
    pub bytes_transferred: u64,
    /// Total cycles requests spent waiting for a busy bank or bus.
    pub queueing_cycles: u64,
    /// Cycle at which the most recent burst finished on the data bus.
    pub last_burst_end: Cycle,
}

impl DramStats {
    /// Row-buffer hit rate.
    pub fn row_hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.accesses as f64
        }
    }

    /// Merge another channel's statistics into this one (chip-level
    /// aggregation across the banks of a shared memory system).
    pub fn merge(&mut self, other: &DramStats) {
        self.accesses += other.accesses;
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
        self.bytes_transferred += other.bytes_transferred;
        self.queueing_cycles += other.queueing_cycles;
        self.last_burst_end = self.last_burst_end.max(other.last_burst_end);
    }
}

/// A single DRAM channel.
#[derive(Debug, Clone)]
pub struct Dram {
    config: DramConfig,
    banks: Vec<BankState>,
    /// Cycle at which the shared data bus becomes free.
    bus_free_at: Cycle,
    stats: DramStats,
}

impl Dram {
    /// Builds a DRAM channel from `config`.
    pub fn new(config: DramConfig) -> Self {
        let banks = vec![BankState::default(); config.num_banks];
        Dram { config, banks, bus_free_at: 0, stats: DramStats::default() }
    }

    /// The configuration of this channel.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Resets statistics and timing state.
    pub fn reset(&mut self) {
        self.banks = vec![BankState::default(); self.config.num_banks];
        self.bus_free_at = 0;
        self.stats = DramStats::default();
    }

    /// Estimated utilisation of the data bus over the interval `[0, now]`.
    ///
    /// statPCAL-style schemes consult this to decide whether spare memory
    /// bandwidth exists for bypassed requests.
    pub fn bandwidth_utilization(&self, now: Cycle) -> f64 {
        if now == 0 {
            return 0.0;
        }
        let capacity = self.config.bytes_per_cycle * now as f64;
        (self.stats.bytes_transferred as f64 / capacity).min(1.0)
    }

    /// Issues a `bytes`-byte burst to `addr` at cycle `now` and returns the
    /// cycle at which the data is available.
    pub fn access(&mut self, addr: Addr, bytes: u64, now: Cycle) -> Cycle {
        self.access_outcome(addr, bytes, now).0
    }

    /// [`Dram::access`], additionally reporting whether the burst hit the
    /// open row buffer (used by observability to tag per-request spans;
    /// timing is identical).
    pub fn access_outcome(&mut self, addr: Addr, bytes: u64, now: Cycle) -> (Cycle, bool) {
        let bank_idx = self.config.bank_of(addr);
        let row = self.config.row_of(addr);
        let bank = &mut self.banks[bank_idx];

        // Wait for the bank.
        let start = now.max(bank.ready_at);
        let bank_wait = start - now;

        // Row-buffer behaviour.
        let row_hit = matches!(bank.open_row, Some(open) if open == row);
        let access_latency = match bank.open_row {
            Some(open) if open == row => {
                self.stats.row_hits += 1;
                self.config.t_cl
            }
            Some(_) => {
                self.stats.row_misses += 1;
                // Precharge (bounded by tRAS) + activate + CAS.
                self.config.t_ras + self.config.t_rcd + self.config.t_cl
            }
            None => {
                self.stats.row_misses += 1;
                self.config.t_rcd + self.config.t_cl
            }
        };
        bank.open_row = Some(row);

        // Data-bus occupancy.
        let burst_cycles = ((bytes as f64) / self.config.bytes_per_cycle).ceil().max(1.0) as Cycle;
        let data_ready = start + access_latency;
        let bus_start = data_ready.max(self.bus_free_at);
        let bus_wait = bus_start - data_ready;
        let done = bus_start + burst_cycles;

        self.bus_free_at = done;
        bank.ready_at = start + access_latency.max(self.config.t_ras);

        self.stats.accesses += 1;
        self.stats.bytes_transferred += bytes;
        self.stats.queueing_cycles += bank_wait + bus_wait;
        self.stats.last_burst_end = self.stats.last_burst_end.max(done);

        (done + self.config.base_latency, row_hit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn row_hit_cheaper_than_row_miss() {
        let mut d = Dram::new(DramConfig::gtx480());
        let first = d.access(0, 128, 0);
        // Same row, later in time so the bank is free again.
        let t = first + 1000;
        let hit = d.access(64, 128, t) - t;
        // Different row, same bank.
        let t2 = t + 2000;
        let other_row = DramConfig::gtx480().row_size * 16; // same bank, next row
        let miss = d.access(other_row, 128, t2) - t2;
        assert!(hit < miss, "row hit ({hit}) should be faster than row miss ({miss})");
    }

    #[test]
    fn bank_parallelism_beats_single_bank() {
        let cfg = DramConfig::gtx480();
        // 8 requests across 8 different banks.
        let mut d1 = Dram::new(cfg);
        let parallel_done = (0..8u64).map(|i| d1.access(i * cfg.row_size, 128, 0)).max().unwrap();
        // 8 requests to the same bank, different rows.
        let mut d2 = Dram::new(cfg);
        let serial_done = (0..8u64)
            .map(|i| d2.access(i * cfg.row_size * cfg.num_banks as u64, 128, 0))
            .max()
            .unwrap();
        assert!(parallel_done < serial_done);
    }

    #[test]
    fn bandwidth_limits_throughput() {
        let slow = DramConfig::gtx480();
        let fast = DramConfig::gtx480_2x_bandwidth();
        let run = |cfg: DramConfig| {
            let mut d = Dram::new(cfg);
            let mut last = 0;
            // Stream of row hits to one bank: bus-bound.
            for i in 0..256u64 {
                last = d.access(i * 128 % cfg.row_size, 128, 0);
            }
            last
        };
        assert!(run(fast) < run(slow), "doubled bandwidth must finish the stream sooner");
    }

    #[test]
    fn utilization_saturates_at_one() {
        let mut d = Dram::new(DramConfig::gtx480());
        for i in 0..1000u64 {
            d.access(i * 128, 128, 0);
        }
        let u = d.bandwidth_utilization(10);
        assert!(u <= 1.0 && u > 0.9);
        assert!(d.bandwidth_utilization(0) == 0.0);
    }

    #[test]
    fn access_outcome_reports_row_hits() {
        let mut d = Dram::new(DramConfig::gtx480());
        let (_, first_hit) = d.access_outcome(0, 128, 0);
        assert!(!first_hit, "cold bank cannot row-hit");
        let (_, second_hit) = d.access_outcome(64, 128, 10_000);
        assert!(second_hit, "same row must hit the open row buffer");
        assert_eq!(d.stats().row_hits, 1);
        assert_eq!(d.stats().row_misses, 1);
    }

    #[test]
    fn stats_accumulate() {
        let mut d = Dram::new(DramConfig::gtx480());
        d.access(0, 128, 0);
        d.access(0, 128, 1000);
        let s = d.stats();
        assert_eq!(s.accesses, 2);
        assert_eq!(s.bytes_transferred, 256);
        assert_eq!(s.row_hits + s.row_misses, 2);
        assert!(s.row_hit_rate() > 0.0);
        d.reset();
        assert_eq!(d.stats().accesses, 0);
    }

    proptest! {
        /// Completion time is always after the request time by at least the
        /// base latency plus CAS, and monotone in the request time for a
        /// fixed address stream.
        #[test]
        fn completion_after_request(addr in 0u64..(1 << 30), now in 0u64..1_000_000) {
            let mut d = Dram::new(DramConfig::gtx480());
            let done = d.access(addr, 128, now);
            prop_assert!(done >= now + DramConfig::gtx480().base_latency + DramConfig::gtx480().t_cl);
        }

        /// Bytes transferred equals 128 × number of accesses.
        #[test]
        fn byte_accounting(addrs in proptest::collection::vec(0u64..(1 << 24), 1..100)) {
            let mut d = Dram::new(DramConfig::gtx480());
            for (i, a) in addrs.iter().enumerate() {
                d.access(*a, 128, i as Cycle * 10);
            }
            prop_assert_eq!(d.stats().bytes_transferred, 128 * addrs.len() as u64);
        }
    }
}
