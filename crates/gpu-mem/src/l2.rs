//! Memory partition: L2 cache slice plus its DRAM channel — and the
//! chip-level banked backend shared by every SM.
//!
//! In the GTX 480 each memory partition pairs an L2 slice with a GDDR5
//! channel. This module combines the generic [`SetAssocCache`] (configured
//! per Table I: 768 KB, 8-way, write-allocate, write-back, LRU) with the
//! [`Dram`] timing model and exposes one entry point,
//! [`MemoryPartition::serve`], returning the completion cycle of a request
//! (an L2 read or write, or an L2 bypass), so the SM-side code can treat "L1D
//! miss goes downstream" as one call.
//!
//! [`BankedMemorySystem`] scales this to a multi-SM chip: the L2 capacity and
//! DRAM bandwidth are sharded across address-interleaved banks, each bank a
//! full [`MemoryPartition`], so every SM's requests contend for the same L2
//! sets and DRAM row buffers the way the paper's 15-SM machine does instead
//! of each SM owning a private slice.

use crate::addr::{block_addr, Addr};
use crate::cache::{CacheConfig, CacheStats, SetAssocCache};
use crate::dram::{Dram, DramConfig, DramStats};
use crate::{Cycle, TenantId, WarpId};
use serde::{Deserialize, Serialize};
use sim_obs::{Histogram, TraceEvent, TraceRecorder, Track};

/// Configuration of a memory partition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionConfig {
    /// L2 slice configuration.
    pub l2: CacheConfig,
    /// DRAM channel configuration.
    pub dram: DramConfig,
    /// L2 hit latency in cycles (Fermi L2 round-trip is ~120 core cycles
    /// including interconnect; the interconnect part is modelled separately,
    /// so this is the array access itself).
    pub l2_latency: Cycle,
}

impl PartitionConfig {
    /// The Table I configuration.
    pub fn gtx480() -> Self {
        PartitionConfig { l2: CacheConfig::l2_gtx480(), dram: DramConfig::gtx480(), l2_latency: 90 }
    }

    /// Table I configuration with the doubled DRAM bandwidth of Fig. 12b.
    pub fn gtx480_2x_bandwidth() -> Self {
        PartitionConfig { dram: DramConfig::gtx480_2x_bandwidth(), ..Self::gtx480() }
    }
}

/// Statistics of a memory partition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PartitionStats {
    /// L2 hit/miss statistics.
    pub l2: CacheStats,
    /// DRAM statistics.
    pub dram: DramStats,
}

impl PartitionStats {
    /// Merge another partition's statistics into this one (bank → chip
    /// aggregation).
    pub fn merge(&mut self, other: &PartitionStats) {
        self.l2.merge(&other.l2);
        self.dram.merge(&other.dram);
    }
}

/// Per-tenant attribution of one partition's (or the whole chip backend's)
/// traffic: who caused which L2 accesses and DRAM fetches. Indexed by
/// [`TenantId`]; single-kernel runs attribute everything to tenant 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TenantMemStats {
    /// L2 lookups performed on behalf of this tenant.
    pub l2_accesses: u64,
    /// Of those, the lookups that hit.
    pub l2_hits: u64,
    /// DRAM accesses caused by this tenant (L2 misses + bypasses; dirty
    /// write-backs are charged to no tenant).
    pub dram_accesses: u64,
}

impl TenantMemStats {
    /// L2 misses caused by this tenant.
    pub fn l2_misses(&self) -> u64 {
        self.l2_accesses - self.l2_hits
    }

    /// Adds another tenant record into this one (bank → chip aggregation).
    pub fn merge(&mut self, other: &TenantMemStats) {
        self.l2_accesses += other.l2_accesses;
        self.l2_hits += other.l2_hits;
        self.dram_accesses += other.dram_accesses;
    }
}

/// Merges per-tenant tables element-wise, growing `into` as needed.
pub fn merge_tenant_stats(into: &mut Vec<TenantMemStats>, other: &[TenantMemStats]) {
    if into.len() < other.len() {
        into.resize(other.len(), TenantMemStats::default());
    }
    for (t, s) in other.iter().enumerate() {
        into[t].merge(s);
    }
}

/// Observability sink of one partition/bank: a per-request trace (when
/// tracing) plus per-tenant service-latency histograms. Boxed and optional
/// so the `ObsLevel::Off` hot path pays one pointer-sized `None` check.
#[derive(Debug, Clone)]
pub struct PartitionObs {
    /// The bank index this partition serves on the chip (trace track id).
    pub bank: u32,
    /// Per-request span recorder; `None` below the full trace level.
    pub trace: Option<TraceRecorder>,
    /// Service-latency histogram per tenant (indexed by [`TenantId`]).
    pub latency: Vec<Histogram>,
}

impl PartitionObs {
    fn new(bank: u32, trace_on: bool) -> Self {
        PartitionObs {
            bank,
            trace: trace_on.then(TraceRecorder::with_default_capacity),
            latency: Vec::new(),
        }
    }

    fn record(
        &mut self,
        name: &'static str,
        now: Cycle,
        done: Cycle,
        tenant: TenantId,
        arg: Option<u64>,
    ) {
        let idx = tenant as usize;
        if self.latency.len() <= idx {
            self.latency.resize(idx + 1, Histogram::new());
        }
        self.latency[idx].record(done - now);
        if let Some(trace) = &mut self.trace {
            let mut ev =
                TraceEvent::span(Track::Bank(self.bank), name, now, done - now, Some(tenant));
            if let Some(arg) = arg {
                ev = ev.with_arg(arg);
            }
            trace.record(ev);
        }
    }
}

/// An L2 slice + DRAM channel pair.
#[derive(Debug, Clone)]
pub struct MemoryPartition {
    config: PartitionConfig,
    l2: SetAssocCache,
    dram: Dram,
    tenants: Vec<TenantMemStats>,
    obs: Option<Box<PartitionObs>>,
}

impl MemoryPartition {
    /// Builds a partition from `config`.
    pub fn new(config: PartitionConfig) -> Self {
        let l2 = SetAssocCache::new(config.l2.clone());
        let dram = Dram::new(config.dram);
        MemoryPartition { config, l2, dram, tenants: Vec::new(), obs: None }
    }

    /// Attaches an observability sink as bank `bank` (per-tenant latency
    /// histograms, plus per-request trace spans when `trace_on`).
    pub fn enable_obs(&mut self, bank: u32, trace_on: bool) {
        self.obs = Some(Box::new(PartitionObs::new(bank, trace_on)));
    }

    /// Detaches and returns the observability sink, if one was attached.
    pub fn take_obs(&mut self) -> Option<Box<PartitionObs>> {
        self.obs.take()
    }

    /// The partition configuration.
    pub fn config(&self) -> &PartitionConfig {
        &self.config
    }

    /// Aggregated statistics.
    pub fn stats(&self) -> PartitionStats {
        PartitionStats { l2: *self.l2.stats(), dram: *self.dram.stats() }
    }

    /// Current DRAM bandwidth utilisation (0..1) — consulted by the
    /// statPCAL-style bypass policy.
    pub fn dram_bandwidth_utilization(&self, now: Cycle) -> f64 {
        self.dram.bandwidth_utilization(now)
    }

    /// The partition's one request entry: serves a read or write of `addr`
    /// arriving at the L2 at cycle `now` on behalf of warp `wid`, or, with
    /// `bypass`, a request that skips the L2 and goes straight to the DRAM
    /// channel (statPCAL bypass path; `is_write` does not change its
    /// timing). The L2 lookup, its outcome and any DRAM fetch are charged to
    /// `tenant`. Returns the cycle at which the response is available at
    /// the partition's output port.
    pub fn serve(
        &mut self,
        addr: Addr,
        wid: WarpId,
        tenant: TenantId,
        is_write: bool,
        bypass: bool,
        now: Cycle,
    ) -> Cycle {
        let block = block_addr(addr);
        let line = self.config.l2.line_size;
        let (name, done, row_hit) = if bypass {
            let (done, row_hit) = self.dram.access_outcome(block, line, now);
            ("dram-bypass", done, Some(row_hit))
        } else {
            let res = self.l2.access(block, wid, is_write);
            let hit_done = now + self.config.l2_latency;
            let (name, done, row_hit) = if res.outcome.is_miss() {
                // Fetch (or write-allocate fetch) from DRAM.
                let (done, row_hit) = self.dram.access_outcome(block, line, hit_done);
                ("l2-miss", done, Some(row_hit))
            } else {
                ("l2-hit", hit_done, None)
            };
            if let Some(ev) = res.evicted.filter(|ev| ev.dirty) {
                // Dirty write-back consumes DRAM bandwidth but is off the
                // critical path of the requesting warp.
                self.dram.access(ev.block_addr, line, done);
            }
            (name, done, row_hit)
        };
        let t = self.tenant_entry(tenant);
        t.l2_accesses += u64::from(!bypass);
        // Every request but an L2 hit reached the DRAM channel.
        match row_hit {
            Some(_) => t.dram_accesses += 1,
            None => t.l2_hits += 1,
        }
        if let Some(obs) = &mut self.obs {
            obs.record(name, now, done, tenant, row_hit.map(u64::from));
        }
        done
    }

    fn tenant_entry(&mut self, tenant: TenantId) -> &mut TenantMemStats {
        let idx = tenant as usize;
        if self.tenants.len() <= idx {
            self.tenants.resize(idx + 1, TenantMemStats::default());
        }
        &mut self.tenants[idx]
    }

    /// Per-tenant attribution of this partition's traffic (indexed by
    /// [`TenantId`]; empty when the partition was never accessed).
    pub fn tenant_stats(&self) -> &[TenantMemStats] {
        &self.tenants
    }
}

/// The chip-level memory-side backend shared by every SM: `num_banks`
/// address-interleaved (L2 slice + DRAM channel) partitions. Accesses to the
/// same bank serialise — which is exactly where inter-SM L2 contention and
/// DRAM row-buffer interference come from. The chip engine serves each
/// epoch's sorted request batch one request at a time through
/// [`BankedMemorySystem::serve`], so each bank's service order is the
/// caller's order.
///
/// The configuration passed to [`BankedMemorySystem::new`] describes the
/// whole chip; capacity and bandwidth are divided evenly across banks. With
/// `num_banks = 1` the system is a single [`MemoryPartition`] with identical
/// timing to a private partition.
#[derive(Debug)]
pub struct BankedMemorySystem {
    banks: Vec<MemoryPartition>,
    line_size: u64,
}

impl BankedMemorySystem {
    /// Builds a system of `num_banks` partitions from a chip-level
    /// configuration: each bank receives `1/num_banks` of the L2 capacity and
    /// of the DRAM data-bus bandwidth.
    pub fn new(chip: PartitionConfig, num_banks: usize) -> Self {
        let num_banks = num_banks.max(1);
        let mut bank_cfg = chip;
        let min_size = bank_cfg.l2.line_size * bank_cfg.l2.associativity as u64;
        bank_cfg.l2.size_bytes = (bank_cfg.l2.size_bytes / num_banks as u64).max(min_size);
        bank_cfg.dram.bytes_per_cycle /= num_banks as f64;
        let line_size = bank_cfg.l2.line_size;
        let banks = (0..num_banks).map(|_| MemoryPartition::new(bank_cfg.clone())).collect();
        BankedMemorySystem { banks, line_size }
    }

    /// Builds the chip backend from a *per-SM slice* configuration (what
    /// [`MemoryPartition`] historically modelled): DRAM bandwidth is scaled
    /// by `num_sms` so the chip-level aggregate matches `num_sms` slices,
    /// then sharded across `num_banks`.
    pub fn for_chip(per_sm_slice: PartitionConfig, num_banks: usize, num_sms: usize) -> Self {
        let mut chip = per_sm_slice;
        chip.dram.bytes_per_cycle *= num_sms.max(1) as f64;
        Self::new(chip, num_banks)
    }

    /// Number of banks.
    pub fn num_banks(&self) -> usize {
        self.banks.len()
    }

    /// Bank serving `addr` (consecutive cache lines interleave round-robin).
    pub fn bank_of(&self, addr: Addr) -> usize {
        ((block_addr(addr) / self.line_size) % self.banks.len() as u64) as usize
    }

    /// Serves one request at its owning bank `bank` (the caller resolves it
    /// with [`BankedMemorySystem::bank_of`]) through that bank's
    /// [`MemoryPartition::serve`]; returns the completion cycle at the
    /// bank's output port.
    #[allow(clippy::too_many_arguments)] // one request's fields plus its pre-resolved bank
    pub fn serve(
        &mut self,
        bank: usize,
        addr: Addr,
        wid: WarpId,
        tenant: TenantId,
        is_write: bool,
        bypass: bool,
        at: Cycle,
    ) -> Cycle {
        debug_assert_eq!(bank, self.bank_of(addr));
        self.banks[bank].serve(addr, wid, tenant, is_write, bypass, at)
    }

    /// Attaches an observability sink to every bank (per-tenant latency
    /// histograms; per-request trace spans too when `trace_on`). Bank `i`
    /// records on trace track `Bank(i)`.
    pub fn enable_obs(&mut self, trace_on: bool) {
        for (i, bank) in self.banks.iter_mut().enumerate() {
            bank.enable_obs(i as u32, trace_on);
        }
    }

    /// Detaches and returns every bank's observability sink, in bank order
    /// (empty when [`BankedMemorySystem::enable_obs`] was never called).
    pub fn collect_obs(&mut self) -> Vec<Box<PartitionObs>> {
        self.banks.iter_mut().filter_map(MemoryPartition::take_obs).collect()
    }

    /// Chip-level statistics, aggregated across banks.
    pub fn stats(&self) -> PartitionStats {
        let mut total = PartitionStats::default();
        for bank in &self.banks {
            total.merge(&bank.stats());
        }
        total
    }

    /// Each bank's per-tenant attribution table (indexed by [`TenantId`]),
    /// in bank order; [`merge_tenant_stats`] sums them to the chip's.
    pub fn tenant_stats_per_bank(&self) -> impl Iterator<Item = &[TenantMemStats]> {
        self.banks.iter().map(MemoryPartition::tenant_stats)
    }

    /// Aggregate DRAM data-bus utilisation in `[0, 1]` over `[0, now]`.
    pub fn dram_bandwidth_utilization(&self, now: Cycle) -> f64 {
        if now == 0 {
            return 0.0;
        }
        let mut bytes = 0u64;
        let mut capacity = 0.0;
        for bank in &self.banks {
            bytes += bank.stats().dram.bytes_transferred;
            capacity += bank.config().dram.bytes_per_cycle * now as f64;
        }
        if capacity <= 0.0 {
            0.0
        } else {
            (bytes as f64 / capacity).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Serves one warp-0 read at `addr`'s own bank.
    fn serve(sys: &mut BankedMemorySystem, addr: Addr, tenant: TenantId, bypass: bool) -> Cycle {
        sys.serve(sys.bank_of(addr), addr, 0, tenant, false, bypass, 0)
    }

    /// Serves one warp-0 L2 read of `addr` for `tenant` at cycle `now`.
    fn read(p: &mut MemoryPartition, addr: Addr, tenant: TenantId, now: Cycle) -> Cycle {
        p.serve(addr, 0, tenant, false, false, now)
    }

    /// Serves one warp-0 L2-bypassing read of `addr` for `tenant` at `now`.
    fn bypass(p: &mut MemoryPartition, addr: Addr, tenant: TenantId, now: Cycle) -> Cycle {
        p.serve(addr, 0, tenant, false, true, now)
    }

    #[test]
    fn l2_hit_faster_than_miss() {
        let mut p = MemoryPartition::new(PartitionConfig::gtx480());
        let miss_done = read(&mut p, 0x1000, 0, 0);
        let t = miss_done + 10;
        let hit_done = read(&mut p, 0x1000, 0, t);
        assert!(hit_done - t < miss_done, "L2 hit must be far cheaper than the cold miss");
        assert_eq!(p.stats().l2.read_hits, 1);
    }

    #[test]
    fn bypass_skips_l2() {
        let mut p = MemoryPartition::new(PartitionConfig::gtx480());
        bypass(&mut p, 0x2000, 0, 0);
        assert_eq!(p.stats().l2.accesses(), 0);
        assert_eq!(p.stats().dram.accesses, 1);
    }

    #[test]
    fn double_bandwidth_serves_streams_faster() {
        let run = |cfg: PartitionConfig| {
            let mut p = MemoryPartition::new(cfg);
            let mut done = 0;
            for i in 0..512u64 {
                // Distinct blocks spanning many rows: all L2 misses.
                done = read(&mut p, i * 4096, 0, 0);
            }
            done
        };
        assert!(run(PartitionConfig::gtx480_2x_bandwidth()) < run(PartitionConfig::gtx480()));
    }

    #[test]
    fn single_bank_system_matches_private_partition() {
        // A 4 KB L2 (4 sets of 8 ways), so a stream of writes evicts dirty
        // lines that write back to DRAM.
        let mut cfg = PartitionConfig::gtx480();
        cfg.l2.size_bytes = 4 * 1024;
        let mut shared = BankedMemorySystem::new(cfg.clone(), 1);
        let mut private = MemoryPartition::new(cfg);
        // (addr, tenant, is_write, bypass): reads, 64 writes to distinct
        // lines, then bypassed reads and writes.
        let reads =
            [0x1000u64, 0x2000, 0x1000, 0x40_0000, 0x2000, 0x123456].map(|a| (a, 0, false, false));
        let writes = (0..64u64).map(|i| (0x10_0000 + i * 128, (i % 3) as TenantId, true, false));
        let bypasses = (0..8u64).map(|i| (0x1000 + i * 128, 1, i % 2 == 1, true));
        let mut now = 0;
        for (a, tenant, is_write, bypass) in reads.into_iter().chain(writes).chain(bypasses) {
            let d1 = shared.serve(0, a, 3, tenant, is_write, bypass, now);
            let d2 = private.serve(a, 3, tenant, is_write, bypass, now);
            assert_eq!(d1, d2, "bank=1 system must be timing-identical to one partition");
            now = d1 + 5;
        }
        let stats = private.stats();
        assert!(stats.l2.writebacks > 0, "the writes must evict dirty lines");
        assert_eq!(stats.dram.accesses, stats.l2.misses() + stats.l2.writebacks + 8);
        assert_eq!(shared.stats(), stats);
        assert_eq!(shared.tenant_stats_per_bank().next(), Some(private.tenant_stats()));
        assert!(
            (shared.dram_bandwidth_utilization(now) - private.dram_bandwidth_utilization(now))
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn banks_interleave_lines_and_aggregate_stats() {
        let mut sys = BankedMemorySystem::new(PartitionConfig::gtx480(), 4);
        assert_eq!(sys.num_banks(), 4);
        // Consecutive 128-byte lines land on consecutive banks.
        let line = 128u64;
        for i in 0..8u64 {
            assert_eq!(sys.bank_of(i * line), (i % 4) as usize);
        }
        for i in 0..16u64 {
            serve(&mut sys, i * line, 0, false);
        }
        let s = sys.stats();
        assert_eq!(s.l2.accesses(), 16);
    }

    #[test]
    fn chip_scaling_multiplies_bandwidth() {
        let slice = PartitionConfig::gtx480();
        let mut one = BankedMemorySystem::for_chip(slice.clone(), 1, 1);
        let mut chip = BankedMemorySystem::for_chip(slice, 1, 15);
        // Bypass stream of row hits: bus-bound, so 15x bandwidth finishes sooner.
        let run = |sys: &mut BankedMemorySystem| {
            let mut last = 0;
            for i in 0..256u64 {
                last = serve(sys, i * 128 % 2048, 0, true);
            }
            last
        };
        assert!(run(&mut chip) < run(&mut one));
    }

    #[test]
    fn tenant_attribution_sums_to_partition_totals() {
        let mut p = MemoryPartition::new(PartitionConfig::gtx480());
        // Tenant 0: two accesses to one block (miss then hit); tenant 2: one
        // cold miss; one bypass charged to tenant 1.
        read(&mut p, 0x1000, 0, 0);
        read(&mut p, 0x1000, 0, 1_000);
        p.serve(0x40_0000, 1, 2, false, false, 2_000);
        bypass(&mut p, 0x8000, 1, 3_000);
        let t = p.tenant_stats();
        assert_eq!(t.len(), 3);
        assert_eq!((t[0].l2_accesses, t[0].l2_hits, t[0].dram_accesses), (2, 1, 1));
        assert_eq!((t[1].l2_accesses, t[1].dram_accesses), (0, 1));
        assert_eq!((t[2].l2_accesses, t[2].l2_misses()), (1, 1));
        let s = p.stats();
        assert_eq!(s.l2.accesses(), t.iter().map(|x| x.l2_accesses).sum());
        assert_eq!(s.l2.hits(), t.iter().map(|x| x.l2_hits).sum());
        assert_eq!(s.dram.accesses, t.iter().map(|x| x.dram_accesses).sum::<u64>());
    }

    #[test]
    fn banked_tenant_stats_aggregate_across_banks() {
        let mut sys = BankedMemorySystem::new(PartitionConfig::gtx480(), 4);
        for i in 0..8u64 {
            // Lines interleave across all four banks; odd lines to tenant 1.
            serve(&mut sys, i * 128, (i % 2) as TenantId, false);
        }
        // A bypass is charged a DRAM access but no L2 lookup.
        serve(&mut sys, 0x9000, 1, true);
        let mut t = Vec::new();
        for table in sys.tenant_stats_per_bank() {
            merge_tenant_stats(&mut t, table);
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].l2_accesses, 4);
        assert_eq!((t[1].l2_accesses, t[1].dram_accesses), (4, 5));
        assert_eq!(sys.stats().l2.accesses(), 8);
    }

    #[test]
    fn tenant_attribution_never_changes_timing() {
        let cfg = PartitionConfig::gtx480();
        let mut a = MemoryPartition::new(cfg.clone());
        let mut b = MemoryPartition::new(cfg);
        let addrs = [0x1000u64, 0x2000, 0x1000, 0x40_0000, 0x2000];
        for (i, &addr) in addrs.iter().enumerate() {
            let now = i as Cycle * 500;
            assert_eq!(
                read(&mut a, addr, 0, now),
                read(&mut b, addr, 7, now),
                "tenant tagging must not change timing"
            );
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn obs_never_changes_timing_and_records_service_spans() {
        let cfg = PartitionConfig::gtx480();
        let mut plain = MemoryPartition::new(cfg.clone());
        let mut observed = MemoryPartition::new(cfg);
        observed.enable_obs(3, true);
        let addrs = [0x1000u64, 0x2000, 0x1000, 0x40_0000, 0x2000];
        for (i, &addr) in addrs.iter().enumerate() {
            let now = i as Cycle * 500;
            assert_eq!(
                read(&mut plain, addr, 1, now),
                read(&mut observed, addr, 1, now),
                "an attached obs sink must not perturb timing"
            );
        }
        assert_eq!(bypass(&mut plain, 0x8000, 0, 9_000), bypass(&mut observed, 0x8000, 0, 9_000));
        assert_eq!(plain.stats(), observed.stats());

        let obs = observed.take_obs().expect("sink attached");
        assert_eq!(obs.bank, 3);
        let events = obs.trace.expect("tracing on").take();
        assert_eq!(events.len(), 6, "one span per request");
        assert!(events.iter().all(|e| e.track == Track::Bank(3)));
        assert!(events.iter().any(|e| e.name == "l2-hit"));
        assert!(events.iter().any(|e| e.name == "l2-miss"));
        assert!(events.iter().any(|e| e.name == "dram-bypass"));
        // Latency histograms: tenant 1 got the 5 tagged requests, tenant 0
        // the bypass.
        assert_eq!(obs.latency[1].count(), 5);
        assert_eq!(obs.latency[0].count(), 1);
    }

    #[test]
    fn banked_obs_collects_per_bank_sinks() {
        let mut sys = BankedMemorySystem::new(PartitionConfig::gtx480(), 4);
        sys.enable_obs(false);
        for i in 0..8u64 {
            serve(&mut sys, i * 128, 0, false);
        }
        let sinks = sys.collect_obs();
        assert_eq!(sinks.len(), 4);
        for (i, sink) in sinks.iter().enumerate() {
            assert_eq!(sink.bank, i as u32);
            assert!(sink.trace.is_none(), "metrics-only mode records no trace");
            assert_eq!(sink.latency[0].count(), 2);
        }
        assert!(sys.collect_obs().is_empty(), "sinks are detached on collect");
    }

    proptest! {
        /// Completion is always strictly after arrival and hits never touch DRAM.
        #[test]
        fn latency_positive(addrs in proptest::collection::vec(0u64..(1 << 22), 1..128)) {
            let mut p = MemoryPartition::new(PartitionConfig::gtx480());
            let mut now = 0;
            for a in addrs {
                let done = read(&mut p, a, 0, now);
                prop_assert!(done > now);
                now = done;
            }
            let s = p.stats();
            prop_assert_eq!(s.dram.accesses, s.l2.misses() + s.l2.writebacks);
        }
    }
}
