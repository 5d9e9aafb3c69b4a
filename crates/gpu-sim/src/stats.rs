//! Simulation statistics: aggregate counters, instruction-indexed time series
//! (Figs. 9 and 10), the inter-warp interference matrix (Figs. 1a and 4a),
//! per-tenant counters for multi-kernel co-execution, and the multi-tenant
//! throughput metrics (STP / weighted speedup, ANTT) the `mix` experiments
//! report.

use gpu_mem::cache::CacheStats;
use gpu_mem::dram::DramStats;
use gpu_mem::{Cycle, TenantId, WarpId};
use serde::{Deserialize, Serialize};

/// One sample of the instruction-indexed time series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimeSeriesPoint {
    /// Total dynamic instructions executed when the sample was taken.
    pub instructions: u64,
    /// Cycle at which the sample was taken.
    pub cycle: Cycle,
    /// IPC over the sampling interval (instructions / cycles in interval).
    pub ipc: f64,
    /// Number of warps neither finished nor throttled at sampling time.
    pub active_warps: usize,
    /// Cross-warp L1D (plus redirect-cache) evictions during the interval —
    /// the "interference" curves of Figs. 9c and 10c.
    pub interference: u64,
    /// L1D hit rate over the interval.
    pub l1d_hit_rate: f64,
}

/// Instruction-indexed time series of simulator behaviour.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    points: Vec<TimeSeriesPoint>,
}

impl TimeSeries {
    /// Appends a sample.
    pub fn push(&mut self, p: TimeSeriesPoint) {
        self.points.push(p);
    }

    /// The recorded samples, in order.
    pub fn points(&self) -> &[TimeSeriesPoint] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Mean number of active warps across samples.
    pub fn mean_active_warps(&self) -> f64 {
        if self.points.is_empty() {
            0.0
        } else {
            self.points.iter().map(|p| p.active_warps as f64).sum::<f64>()
                / self.points.len() as f64
        }
    }

    /// Appends `other`'s samples after this series, shifting their cycle axis
    /// by `cycle_offset` and their instruction axis by `inst_offset` — how the
    /// `Exclusive` co-execution policy chains the time series of serially
    /// executed kernels into one chip-level series.
    pub fn append_offset(&mut self, other: &TimeSeries, cycle_offset: Cycle, inst_offset: u64) {
        self.points.extend(other.points.iter().map(|&point| {
            let mut p = point;
            p.cycle += cycle_offset;
            p.instructions += inst_offset;
            p
        }));
    }

    /// Merges per-SM series into one chip-level series ordered by sample
    /// cycle (ties broken by SM index, so the result is deterministic).
    ///
    /// Each SM samples against its *own* instruction counter, so the merged
    /// `instructions` axis is rebased to the cumulative chip total at each
    /// sample (the sum of every SM's progress when the sample was taken),
    /// keeping the axis monotone. The per-point `ipc`, `active_warps` and
    /// rate fields remain the sampling SM's interval-local values — the
    /// chip-level aggregate lives in [`SmStats::reduce`]. A single-SM input
    /// round-trips unchanged.
    pub fn merge_sorted<'a>(series: impl IntoIterator<Item = &'a TimeSeries>) -> TimeSeries {
        let mut tagged: Vec<(usize, TimeSeriesPoint)> = series
            .into_iter()
            .enumerate()
            .flat_map(|(sm, s)| s.points.iter().map(move |&p| (sm, p)))
            .collect();
        tagged.sort_by_key(|&(sm, p)| (p.cycle, sm, p.instructions));
        let num_series = tagged.iter().map(|&(sm, _)| sm + 1).max().unwrap_or(0);
        let mut last = vec![0u64; num_series];
        let mut chip_total = 0u64;
        let points = tagged
            .into_iter()
            .map(|(sm, mut p)| {
                chip_total += p.instructions - last[sm];
                last[sm] = p.instructions;
                p.instructions = chip_total;
                p
            })
            .collect();
        TimeSeries { points }
    }
}

/// Counts of cross-warp evictions: `matrix[victim][evictor]` is the number of
/// times `evictor` evicted a line owned by `victim`.
///
/// This is the quantity visualised in Fig. 1a (Backprop) and Fig. 4a (KMEANS
/// warps interfering with one victim warp).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InterferenceMatrix {
    num_warps: usize,
    counts: Vec<u64>,
}

impl InterferenceMatrix {
    /// Creates an all-zero matrix for `num_warps` warps.
    pub fn new(num_warps: usize) -> Self {
        InterferenceMatrix { num_warps, counts: vec![0; num_warps * num_warps] }
    }

    /// Number of warps tracked.
    pub fn num_warps(&self) -> usize {
        self.num_warps
    }

    /// Records that `evictor` evicted a line owned by `victim`.
    pub fn record(&mut self, victim: WarpId, evictor: WarpId) {
        let (v, e) = (victim as usize, evictor as usize);
        if v < self.num_warps && e < self.num_warps {
            self.counts[v * self.num_warps + e] += 1;
        }
    }

    /// Number of times `evictor` evicted data of `victim`.
    pub fn count(&self, victim: WarpId, evictor: WarpId) -> u64 {
        let (v, e) = (victim as usize, evictor as usize);
        if v < self.num_warps && e < self.num_warps {
            self.counts[v * self.num_warps + e]
        } else {
            0
        }
    }

    /// Total interference events suffered by `victim` (row sum).
    pub fn suffered_by(&self, victim: WarpId) -> u64 {
        let v = victim as usize;
        if v >= self.num_warps {
            return 0;
        }
        self.counts[v * self.num_warps..(v + 1) * self.num_warps].iter().sum()
    }

    /// Total interference events caused by `evictor` (column sum).
    pub fn caused_by(&self, evictor: WarpId) -> u64 {
        let e = evictor as usize;
        if e >= self.num_warps {
            return 0;
        }
        (0..self.num_warps).map(|v| self.counts[v * self.num_warps + e]).sum()
    }

    /// Total cross-warp interference events (self-evictions excluded if the
    /// caller never records them; this method just sums everything recorded).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The warp that most interfered with `victim`, with its count.
    pub fn worst_interferer(&self, victim: WarpId) -> Option<(WarpId, u64)> {
        let v = victim as usize;
        if v >= self.num_warps {
            return None;
        }
        (0..self.num_warps)
            .map(|e| (e as WarpId, self.counts[v * self.num_warps + e]))
            .max_by_key(|&(_, c)| c)
            .filter(|&(_, c)| c > 0)
    }

    /// Minimum and maximum per-(victim, evictor) interference frequency over
    /// pairs with at least one event — the quantity plotted in Fig. 4b.
    pub fn min_max_nonzero(&self) -> Option<(u64, u64)> {
        let nz: Vec<u64> = self.counts.iter().copied().filter(|&c| c > 0).collect();
        if nz.is_empty() {
            None
        } else {
            Some((*nz.iter().min().unwrap(), *nz.iter().max().unwrap()))
        }
    }

    /// Adds every count of `other` into this matrix. Multi-SM runs reduce the
    /// per-SM matrices (indexed by SM-local warp slot) into one chip matrix:
    /// slot `w` aggregates the interference of every SM's warp slot `w`.
    pub fn absorb(&mut self, other: &InterferenceMatrix) {
        let n = self.num_warps.min(other.num_warps);
        for v in 0..n {
            for e in 0..n {
                self.counts[v * self.num_warps + e] += other.counts[v * other.num_warps + e];
            }
        }
    }

    /// The matrix normalised to its maximum entry (the colour scale of Fig. 1a).
    pub fn normalized(&self) -> Vec<Vec<f64>> {
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1) as f64;
        (0..self.num_warps)
            .map(|v| {
                (0..self.num_warps)
                    .map(|e| self.counts[v * self.num_warps + e] as f64 / max)
                    .collect()
            })
            .collect()
    }
}

/// Aggregate statistics of one SM simulation.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SmStats {
    /// Cycles simulated.
    pub cycles: Cycle,
    /// Dynamic warp instructions issued.
    pub instructions: u64,
    /// Global-memory block transactions issued to the memory system.
    pub mem_transactions: u64,
    /// Warp instructions that were global-memory loads or stores.
    pub mem_instructions: u64,
    /// Shared-memory (scratchpad, programmer-managed) instructions issued.
    pub shared_mem_instructions: u64,
    /// Barrier instructions executed.
    pub barriers: u64,
    /// Cycles in which no warp could issue.
    pub idle_cycles: Cycle,
    /// Cycles in which at least one warp was ready but the scheduler
    /// throttled every ready warp.
    pub throttle_only_cycles: Cycle,
    /// L1D statistics.
    pub l1d: CacheStats,
    /// L2 statistics (the SM's slice).
    pub l2: CacheStats,
    /// DRAM statistics.
    pub dram: DramStats,
    /// Redirect-cache hits (CIAO-P path).
    pub redirect_hits: u64,
    /// Redirect-cache misses (CIAO-P path).
    pub redirect_misses: u64,
    /// Blocks migrated from the L1D to the redirect cache (coherence path).
    pub l1d_migrations: u64,
    /// Requests that bypassed the L1D (statPCAL path).
    pub bypassed_requests: u64,
    /// Cross-warp evictions observed in the L1D (the paper's notion of
    /// cache interference).
    pub cross_warp_evictions: u64,
    /// Cross-warp evictions observed in the redirect cache.
    pub redirect_cross_warp_evictions: u64,
    /// Maximum number of CTAs resident at once.
    pub max_resident_ctas: usize,
    /// Shared-memory bytes allocated to CTAs at peak (programmer usage).
    pub peak_cta_shared_mem: u32,
    /// Final utilisation of the redirect cache (Fig. 8b).
    pub redirect_utilization: f64,
}

impl SmStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// L1D accesses per kilo-instruction (the APKI column of Table II).
    pub fn apki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.mem_transactions as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Reduces per-SM statistics into one chip-level aggregate.
    ///
    /// Event counters (instructions, memory traffic, barriers, evictions,
    /// idle cycles, …) sum across SMs; `cycles` takes the maximum (the chip
    /// is done when its slowest SM is, so chip IPC = Σ instructions / max
    /// cycles); occupancy high-water marks take the maximum; and
    /// `redirect_utilization` averages. Reducing a single SM's stats returns
    /// them unchanged, so a 1-SM chip reports exactly its SM's statistics.
    pub fn reduce(per_sm: &[SmStats]) -> SmStats {
        let mut chip = SmStats::default();
        for s in per_sm {
            chip.cycles = chip.cycles.max(s.cycles);
            chip.instructions += s.instructions;
            chip.mem_transactions += s.mem_transactions;
            chip.mem_instructions += s.mem_instructions;
            chip.shared_mem_instructions += s.shared_mem_instructions;
            chip.barriers += s.barriers;
            chip.idle_cycles += s.idle_cycles;
            chip.throttle_only_cycles += s.throttle_only_cycles;
            chip.l1d.merge(&s.l1d);
            chip.l2.merge(&s.l2);
            chip.dram.merge(&s.dram);
            chip.redirect_hits += s.redirect_hits;
            chip.redirect_misses += s.redirect_misses;
            chip.l1d_migrations += s.l1d_migrations;
            chip.bypassed_requests += s.bypassed_requests;
            chip.cross_warp_evictions += s.cross_warp_evictions;
            chip.redirect_cross_warp_evictions += s.redirect_cross_warp_evictions;
            chip.max_resident_ctas = chip.max_resident_ctas.max(s.max_resident_ctas);
            chip.peak_cta_shared_mem = chip.peak_cta_shared_mem.max(s.peak_cta_shared_mem);
            chip.redirect_utilization += s.redirect_utilization;
        }
        if !per_sm.is_empty() {
            chip.redirect_utilization /= per_sm.len() as f64;
        }
        chip
    }
}

/// Per-tenant counters one SM collects while co-running CTAs from several
/// kernel streams, indexed by [`TenantId`]. The chip engine merges the
/// per-SM tables into the chip-level [`crate::simulator::TenantResult`]s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TenantStats {
    /// Dynamic warp instructions issued on behalf of this tenant.
    pub instructions: u64,
    /// Global-memory warp instructions of this tenant.
    pub mem_instructions: u64,
    /// Global-memory block transactions of this tenant.
    pub mem_transactions: u64,
    /// L1D lookups performed for this tenant's warps.
    pub l1d_accesses: u64,
    /// Of those, the lookups that hit.
    pub l1d_hits: u64,
    /// Bytes this tenant injected into the SM's crossbar port.
    pub xbar_bytes: u64,
    /// CTAs of this tenant that ran to completion on this SM.
    pub ctas_completed: usize,
    /// Cycle at which the tenant's last warp on this SM finished (equals the
    /// SM's final cycle while the tenant still has unfinished work).
    pub finish_cycle: Cycle,
    /// Whether every CTA assigned to this SM for this tenant finished.
    pub done: bool,
}

impl TenantStats {
    /// Merges another SM's record for the same tenant into this one. Event
    /// counters sum; the finish cycle takes the maximum (the tenant is done
    /// when its slowest SM is); `done` ANDs.
    pub fn merge(&mut self, other: &TenantStats) {
        self.instructions += other.instructions;
        self.mem_instructions += other.mem_instructions;
        self.mem_transactions += other.mem_transactions;
        self.l1d_accesses += other.l1d_accesses;
        self.l1d_hits += other.l1d_hits;
        self.xbar_bytes += other.xbar_bytes;
        self.ctas_completed += other.ctas_completed;
        self.finish_cycle = self.finish_cycle.max(other.finish_cycle);
        self.done &= other.done;
    }
}

/// How the interference-aware dispatcher classified a tenant at one decision
/// boundary, from its live L1/L2 attribution (the chip-level analogue of the
/// per-warp SWS/LWS split `ciao_core`'s detector derives from VTA hits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TenantClass {
    /// Small working set with reuse: the tenant profits from the caches and
    /// is the potential *victim* of interference.
    CacheSensitive,
    /// Large working set streamed through the caches with little reuse: the
    /// potential *interferer* worth throttling or migrating.
    Streaming,
    /// Not enough memory traffic observed to classify (compute-intensive
    /// tenants and cold-start windows land here).
    Unclassified,
}

impl TenantClass {
    /// Short label used in decision-log renderings.
    pub fn label(self) -> &'static str {
        match self {
            TenantClass::CacheSensitive => "cache",
            TenantClass::Streaming => "stream",
            TenantClass::Unclassified => "?",
        }
    }
}

/// One action the interference-aware dispatcher took at an epoch boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DispatchAction {
    /// A kernel stream arrived and was admitted into the pending queues.
    Admit {
        /// The admitted tenant.
        tenant: TenantId,
    },
    /// Tenants were (re)classified and every tenant's allowed-SM set was
    /// recomputed from the classification.
    Place {
        /// Per-tenant allowed-SM-set sizes after placement.
        allowed_sms: Vec<usize>,
    },
    /// An interfering tenant's allowed-SM set was shrunk because a victim
    /// tenant's hit rate degraded past the threshold.
    Throttle {
        /// The throttled (interfering) tenant.
        tenant: TenantId,
        /// The degraded (victim) tenant that triggered the decision.
        victim: TenantId,
        /// Size of the throttled tenant's allowed-SM set after shrinking.
        allowed_sms: usize,
    },
    /// A previously throttled tenant's allowed-SM set was grown back because
    /// every victim stayed healthy for the hysteresis window.
    Restore {
        /// The restored tenant.
        tenant: TenantId,
        /// Size of the restored tenant's allowed-SM set after growing.
        allowed_sms: usize,
    },
}

/// One epoch-boundary record of the interference-aware dispatcher: the
/// per-tenant signals it read and the actions it took. The sequence of
/// records doubles as the per-tenant hit-rate time series of the co-run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DispatchDecision {
    /// Chip cycle of the epoch boundary the decision was made at.
    pub cycle: Cycle,
    /// Per-tenant L2 hit rate over the decision window (`-1` when the tenant
    /// issued too few L2 accesses to measure).
    pub l2_hit_rate: Vec<f64>,
    /// Per-tenant L1D hit rate over the decision window (`-1` when the tenant
    /// issued too few L1 accesses to measure).
    pub l1_hit_rate: Vec<f64>,
    /// Per-tenant classification at this boundary.
    pub classes: Vec<TenantClass>,
    /// Per-tenant allowed-SM-set sizes after this boundary's actions.
    pub allowed_sms: Vec<usize>,
    /// Actions taken at this boundary (empty for a pure observation window).
    pub actions: Vec<DispatchAction>,
}

/// The per-epoch decision log of one `InterferenceAware` co-run (empty for
/// static dispatch policies). Serialised into [`crate::SimResult`] so the
/// harness can archive *why* the dispatcher moved work, not just where.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DispatchLog {
    /// Decision records in cycle order.
    pub decisions: Vec<DispatchDecision>,
}

impl DispatchLog {
    /// Number of recorded decisions.
    pub fn len(&self) -> usize {
        self.decisions.len()
    }

    /// True when no decision was recorded (static policies).
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }

    /// Number of throttle actions across the run.
    pub fn throttle_count(&self) -> usize {
        self.count(|a| matches!(a, DispatchAction::Throttle { .. }))
    }

    /// Number of restore actions across the run.
    pub fn restore_count(&self) -> usize {
        self.count(|a| matches!(a, DispatchAction::Restore { .. }))
    }

    fn count(&self, pred: impl Fn(&DispatchAction) -> bool) -> usize {
        self.decisions.iter().flat_map(|d| &d.actions).filter(|a| pred(a)).count()
    }

    /// The `(cycle, L2 hit rate)` time series of one tenant across the run's
    /// decision windows (unmeasured windows are skipped).
    pub fn l2_hit_rate_series(&self, tenant: TenantId) -> Vec<(Cycle, f64)> {
        self.decisions
            .iter()
            .filter_map(|d| {
                let rate = *d.l2_hit_rate.get(tenant as usize)?;
                (rate >= 0.0).then_some((d.cycle, rate))
            })
            .collect()
    }

    /// Every tenant's `(cycle, L2 hit rate)` series in a single pass over
    /// the decisions. Report loops that need more than one tenant's series
    /// should call this once instead of [`DispatchLog::l2_hit_rate_series`]
    /// per tenant — the per-tenant accessor re-walks (and re-allocates from)
    /// the whole decision list on every call.
    pub fn all_l2_hit_rate_series(&self) -> Vec<Vec<(Cycle, f64)>> {
        let tenants = self.decisions.iter().map(|d| d.l2_hit_rate.len()).max().unwrap_or(0);
        let mut out = vec![Vec::new(); tenants];
        for d in &self.decisions {
            for (t, &rate) in d.l2_hit_rate.iter().enumerate() {
                if rate >= 0.0 {
                    out[t].push((d.cycle, rate));
                }
            }
        }
        out
    }

    /// Per-tenant digest of the run's dispatch activity: how often each
    /// tenant was throttled and restored, and how the dispatcher classified
    /// it at the last decision boundary.
    pub fn summary(&self) -> DispatchSummary {
        let tenants = self.decisions.iter().map(|d| d.classes.len()).max().unwrap_or(0);
        let mut out: Vec<DispatchTenantSummary> = (0..tenants)
            .map(|t| DispatchTenantSummary {
                tenant: t as TenantId,
                throttles: 0,
                restores: 0,
                final_class: TenantClass::Unclassified,
            })
            .collect();
        for d in &self.decisions {
            for (t, &class) in d.classes.iter().enumerate() {
                out[t].final_class = class;
            }
            for action in &d.actions {
                match action {
                    DispatchAction::Throttle { tenant, .. } => {
                        out[*tenant as usize].throttles += 1;
                    }
                    DispatchAction::Restore { tenant, .. } => {
                        out[*tenant as usize].restores += 1;
                    }
                    _ => {}
                }
            }
        }
        DispatchSummary { tenants: out }
    }
}

/// Per-tenant dispatch digest (see [`DispatchLog::summary`]).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DispatchSummary {
    /// One entry per tenant, in tenant-id order.
    pub tenants: Vec<DispatchTenantSummary>,
}

/// One tenant's row of a [`DispatchSummary`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DispatchTenantSummary {
    /// The tenant the row describes.
    pub tenant: TenantId,
    /// Times the dispatcher shrank this tenant's allowed-SM set.
    pub throttles: usize,
    /// Times the dispatcher grew it back.
    pub restores: usize,
    /// Classification at the final decision boundary.
    pub final_class: TenantClass,
}

/// Spread of per-SM IPC across a chip run — the partitioning-skew signal the
/// `SpatialPartition` co-execution policy makes visible (an SM set serving a
/// light tenant idles while another set is saturated).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SmImbalance {
    /// Lowest per-SM IPC.
    pub min_ipc: f64,
    /// Highest per-SM IPC.
    pub max_ipc: f64,
    /// Population standard deviation of per-SM IPC.
    pub stddev_ipc: f64,
}

impl SmImbalance {
    /// Computes the imbalance of a chip run's per-SM statistics. All three
    /// fields are zero for an empty slice; a single SM has zero spread.
    pub fn of(per_sm: &[SmStats]) -> SmImbalance {
        if per_sm.is_empty() {
            return SmImbalance::default();
        }
        let ipcs: Vec<f64> = per_sm.iter().map(|s| s.ipc()).collect();
        let n = ipcs.len() as f64;
        let mean = ipcs.iter().sum::<f64>() / n;
        let var = ipcs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        SmImbalance {
            min_ipc: ipcs.iter().copied().fold(f64::INFINITY, f64::min),
            max_ipc: ipcs.iter().copied().fold(0.0, f64::max),
            stddev_ipc: var.sqrt(),
        }
    }
}

/// System throughput (STP), also known as weighted speedup:
/// `Σᵢ shared_ipc[i] / alone_ipc[i]`. Equals the tenant count under perfect
/// isolation and degrades towards 0 as co-running tenants destroy each
/// other's throughput. Pairs with zero alone-IPC are skipped; mismatched or
/// empty inputs yield 0.0.
pub fn system_throughput(alone_ipc: &[f64], shared_ipc: &[f64]) -> f64 {
    if alone_ipc.len() != shared_ipc.len() {
        return 0.0;
    }
    alone_ipc.iter().zip(shared_ipc).filter(|(&a, _)| a > 0.0).map(|(&a, &s)| s / a).sum()
}

/// Average normalized turnaround time (ANTT):
/// `(1/n) Σᵢ alone_ipc[i] / shared_ipc[i]` — the mean per-tenant slowdown.
/// 1.0 means no tenant was slowed by co-execution; larger is worse.
///
/// A tenant with a positive alone-IPC but zero shared-IPC was *starved* —
/// its slowdown is unbounded, so the result is `f64::INFINITY` rather than a
/// finite mean that would make the worst co-execution outcome look benign.
/// Pairs with zero alone-IPC (no baseline) are skipped; mismatched or empty
/// inputs yield 0.0.
pub fn avg_normalized_turnaround(alone_ipc: &[f64], shared_ipc: &[f64]) -> f64 {
    if alone_ipc.len() != shared_ipc.len() {
        return 0.0;
    }
    let mut slowdowns = Vec::with_capacity(alone_ipc.len());
    for (&a, &s) in alone_ipc.iter().zip(shared_ipc) {
        if a <= 0.0 {
            continue;
        }
        if s <= 0.0 {
            return f64::INFINITY;
        }
        slowdowns.push(a / s);
    }
    if slowdowns.is_empty() {
        0.0
    } else {
        slowdowns.iter().sum::<f64>() / slowdowns.len() as f64
    }
}

/// Grows `table` so that `tenant` is a valid index, filling with defaults.
pub(crate) fn tenant_slot(table: &mut Vec<TenantStats>, tenant: TenantId) -> &mut TenantStats {
    let idx = tenant as usize;
    if table.len() <= idx {
        table.resize(idx + 1, TenantStats::default());
    }
    &mut table[idx]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn time_series_means() {
        let mut ts = TimeSeries::default();
        assert!(ts.is_empty());
        ts.push(TimeSeriesPoint {
            instructions: 100,
            cycle: 200,
            ipc: 0.5,
            active_warps: 10,
            interference: 3,
            l1d_hit_rate: 0.4,
        });
        ts.push(TimeSeriesPoint {
            instructions: 200,
            cycle: 300,
            ipc: 1.0,
            active_warps: 20,
            interference: 1,
            l1d_hit_rate: 0.6,
        });
        assert_eq!(ts.len(), 2);
        assert!((ts.mean_active_warps() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn interference_matrix_records_and_summarises() {
        let mut m = InterferenceMatrix::new(4);
        m.record(1, 2);
        m.record(1, 2);
        m.record(1, 3);
        m.record(0, 1);
        assert_eq!(m.count(1, 2), 2);
        assert_eq!(m.suffered_by(1), 3);
        assert_eq!(m.caused_by(2), 2);
        assert_eq!(m.total(), 4);
        assert_eq!(m.worst_interferer(1), Some((2, 2)));
        assert_eq!(m.worst_interferer(3), None);
        assert_eq!(m.min_max_nonzero(), Some((1, 2)));
    }

    #[test]
    fn interference_matrix_normalisation() {
        let mut m = InterferenceMatrix::new(2);
        m.record(0, 1);
        m.record(0, 1);
        m.record(1, 0);
        let n = m.normalized();
        assert!((n[0][1] - 1.0).abs() < 1e-12);
        assert!((n[1][0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_warps_ignored() {
        let mut m = InterferenceMatrix::new(2);
        m.record(5, 1);
        assert_eq!(m.total(), 0);
        assert_eq!(m.count(5, 1), 0);
        assert_eq!(m.suffered_by(9), 0);
        assert_eq!(m.caused_by(9), 0);
    }

    #[test]
    fn sm_stats_derived_metrics() {
        let s =
            SmStats { cycles: 1000, instructions: 500, mem_transactions: 50, ..Default::default() };
        assert!((s.ipc() - 0.5).abs() < 1e-12);
        assert!((s.apki() - 100.0).abs() < 1e-12);
        assert_eq!(SmStats::default().ipc(), 0.0);
        assert_eq!(SmStats::default().apki(), 0.0);
    }

    #[test]
    fn reduce_single_sm_is_identity() {
        let s = SmStats {
            cycles: 1000,
            instructions: 500,
            mem_transactions: 50,
            idle_cycles: 7,
            max_resident_ctas: 3,
            redirect_utilization: 0.5,
            ..Default::default()
        };
        assert_eq!(SmStats::reduce(std::slice::from_ref(&s)), s);
        assert_eq!(SmStats::reduce(&[]), SmStats::default());
    }

    #[test]
    fn reduce_sums_counters_and_maxes_cycles() {
        let a = SmStats {
            cycles: 100,
            instructions: 10,
            barriers: 1,
            max_resident_ctas: 2,
            redirect_utilization: 0.2,
            ..Default::default()
        };
        let b = SmStats {
            cycles: 150,
            instructions: 30,
            barriers: 2,
            max_resident_ctas: 5,
            redirect_utilization: 0.6,
            ..Default::default()
        };
        let chip = SmStats::reduce(&[a, b]);
        assert_eq!(chip.cycles, 150);
        assert_eq!(chip.instructions, 40);
        assert_eq!(chip.barriers, 3);
        assert_eq!(chip.max_resident_ctas, 5);
        assert!((chip.redirect_utilization - 0.4).abs() < 1e-12);
        // Chip IPC uses the slowest SM's cycle count.
        assert!((chip.ipc() - 40.0 / 150.0).abs() < 1e-12);
    }

    #[test]
    fn matrix_absorb_adds_counts() {
        let mut a = InterferenceMatrix::new(3);
        a.record(0, 1);
        let mut b = InterferenceMatrix::new(3);
        b.record(0, 1);
        b.record(2, 0);
        a.absorb(&b);
        assert_eq!(a.count(0, 1), 2);
        assert_eq!(a.count(2, 0), 1);
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn time_series_merge_orders_by_cycle() {
        let p = |cycle: u64, insts: u64| TimeSeriesPoint {
            instructions: insts,
            cycle,
            ipc: 1.0,
            active_warps: 1,
            interference: 0,
            l1d_hit_rate: 0.0,
        };
        let mut a = TimeSeries::default();
        a.push(p(10, 100));
        a.push(p(30, 200));
        let mut b = TimeSeries::default();
        b.push(p(20, 150));
        let merged = TimeSeries::merge_sorted([&a, &b]);
        let cycles: Vec<u64> = merged.points().iter().map(|x| x.cycle).collect();
        assert_eq!(cycles, vec![10, 20, 30]);
        // The instruction axis is rebased to the cumulative chip total
        // (each SM counts its own instructions), staying monotone.
        let insts: Vec<u64> = merged.points().iter().map(|x| x.instructions).collect();
        assert_eq!(insts, vec![100, 250, 350]);
        // Single input round-trips unchanged.
        assert_eq!(TimeSeries::merge_sorted([&a]), a);
    }

    #[test]
    fn tenant_stats_merge_sums_and_maxes() {
        let a = TenantStats {
            instructions: 10,
            l1d_accesses: 4,
            l1d_hits: 2,
            finish_cycle: 100,
            ctas_completed: 1,
            done: true,
            ..Default::default()
        };
        let b = TenantStats {
            instructions: 20,
            l1d_accesses: 6,
            l1d_hits: 6,
            finish_cycle: 70,
            ctas_completed: 2,
            done: true,
            ..Default::default()
        };
        let mut m = a;
        m.merge(&b);
        assert_eq!(m.instructions, 30);
        assert_eq!(m.l1d_accesses, 10);
        assert_eq!(m.l1d_hits, 8);
        assert_eq!(m.finish_cycle, 100);
        assert_eq!(m.ctas_completed, 3);
        assert!(m.done);
        let mut n = a;
        n.merge(&TenantStats::default()); // default is not done
        assert!(!n.done);
    }

    #[test]
    fn imbalance_of_uniform_sms_is_zero_spread() {
        let s = SmStats { cycles: 100, instructions: 50, ..Default::default() };
        let im = SmImbalance::of(&[s.clone(), s.clone(), s]);
        assert!((im.min_ipc - 0.5).abs() < 1e-12);
        assert!((im.max_ipc - 0.5).abs() < 1e-12);
        assert!(im.stddev_ipc.abs() < 1e-12);
        assert_eq!(SmImbalance::of(&[]), SmImbalance::default());
    }

    #[test]
    fn imbalance_captures_skew() {
        let fast = SmStats { cycles: 100, instructions: 100, ..Default::default() };
        let slow = SmStats { cycles: 100, instructions: 0, ..Default::default() };
        let im = SmImbalance::of(&[fast, slow]);
        assert!((im.min_ipc - 0.0).abs() < 1e-12);
        assert!((im.max_ipc - 1.0).abs() < 1e-12);
        assert!((im.stddev_ipc - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stp_and_antt_reference_values() {
        // Perfect isolation: STP = n, ANTT = 1.
        assert!((system_throughput(&[1.0, 2.0], &[1.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((avg_normalized_turnaround(&[1.0, 2.0], &[1.0, 2.0]) - 1.0).abs() < 1e-12);
        // Both tenants at half speed: STP = 1, ANTT = 2.
        assert!((system_throughput(&[1.0, 2.0], &[0.5, 1.0]) - 1.0).abs() < 1e-12);
        assert!((avg_normalized_turnaround(&[1.0, 2.0], &[0.5, 1.0]) - 2.0).abs() < 1e-12);
        // Asymmetric: tenant 0 unharmed, tenant 1 at 1/4 speed.
        assert!((system_throughput(&[1.0, 2.0], &[1.0, 0.5]) - 1.25).abs() < 1e-12);
        assert!((avg_normalized_turnaround(&[1.0, 2.0], &[1.0, 0.5]) - 2.5).abs() < 1e-12);
        // Degenerate inputs.
        assert_eq!(system_throughput(&[1.0], &[1.0, 2.0]), 0.0);
        assert_eq!(avg_normalized_turnaround(&[], &[]), 0.0);
        // A starved tenant (alone > 0, shared == 0) has unbounded slowdown.
        assert_eq!(avg_normalized_turnaround(&[1.0], &[0.0]), f64::INFINITY);
        assert_eq!(avg_normalized_turnaround(&[1.0, 1.0], &[1.0, 0.0]), f64::INFINITY);
        // A tenant with no baseline is skipped, not treated as starved.
        assert!((avg_normalized_turnaround(&[0.0, 2.0], &[0.0, 1.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn dispatch_log_counts_actions_and_extracts_series() {
        let mut log = DispatchLog::default();
        assert!(log.is_empty());
        log.decisions.push(DispatchDecision {
            cycle: 512,
            l2_hit_rate: vec![0.9, -1.0],
            l1_hit_rate: vec![0.8, 0.2],
            classes: vec![TenantClass::CacheSensitive, TenantClass::Streaming],
            allowed_sms: vec![15, 4],
            actions: vec![DispatchAction::Place { allowed_sms: vec![15, 4] }],
        });
        log.decisions.push(DispatchDecision {
            cycle: 1024,
            l2_hit_rate: vec![0.5, 0.1],
            l1_hit_rate: vec![-1.0, -1.0],
            classes: vec![TenantClass::CacheSensitive, TenantClass::Streaming],
            allowed_sms: vec![15, 2],
            actions: vec![
                DispatchAction::Throttle { tenant: 1, victim: 0, allowed_sms: 2 },
                DispatchAction::Restore { tenant: 1, allowed_sms: 4 },
            ],
        });
        assert_eq!(log.len(), 2);
        assert_eq!(log.throttle_count(), 1);
        assert_eq!(log.restore_count(), 1);
        // Unmeasured (-1) windows are skipped from the series.
        assert_eq!(log.l2_hit_rate_series(0), vec![(512, 0.9), (1024, 0.5)]);
        assert_eq!(log.l2_hit_rate_series(1), vec![(1024, 0.1)]);
        assert_eq!(log.l2_hit_rate_series(9), Vec::new());
        // Round-trips through serde (the harness archives the log as JSON).
        let json = serde_json::to_string(&log).unwrap();
        let back: DispatchLog = serde_json::from_str(&json).unwrap();
        assert_eq!(back, log);
        assert_eq!(TenantClass::Streaming.label(), "stream");
        assert_eq!(TenantClass::CacheSensitive.label(), "cache");
        assert_eq!(TenantClass::Unclassified.label(), "?");
    }

    #[test]
    fn time_series_append_offset_chains_serial_runs() {
        let p = |cycle: u64, insts: u64| TimeSeriesPoint {
            instructions: insts,
            cycle,
            ipc: 1.0,
            active_warps: 1,
            interference: 0,
            l1d_hit_rate: 0.0,
        };
        let mut a = TimeSeries::default();
        a.push(p(10, 100));
        let mut b = TimeSeries::default();
        b.push(p(5, 50));
        a.append_offset(&b, 20, 100);
        let pts = a.points();
        assert_eq!(pts.len(), 2);
        assert_eq!((pts[1].cycle, pts[1].instructions), (25, 150));
    }

    proptest! {
        /// STP is bounded by the tenant count when no tenant speeds up, and
        /// ANTT is at least 1 when no tenant runs faster shared than alone.
        #[test]
        fn stp_antt_bounds(ipcs in proptest::collection::vec((1u32..1000, 1u32..=100), 1..8)) {
            let alone: Vec<f64> = ipcs.iter().map(|&(a, _)| a as f64 / 100.0).collect();
            let shared: Vec<f64> =
                ipcs.iter().map(|&(a, f)| (a as f64 / 100.0) * (f as f64 / 100.0)).collect();
            let stp = system_throughput(&alone, &shared);
            let antt = avg_normalized_turnaround(&alone, &shared);
            prop_assert!(stp > 0.0 && stp <= alone.len() as f64 + 1e-9);
            prop_assert!(antt >= 1.0 - 1e-9);
        }
    }

    proptest! {
        /// Row sums plus column sums are consistent with the total.
        #[test]
        fn matrix_sum_consistency(events in proptest::collection::vec((0u32..8, 0u32..8), 0..200)) {
            let mut m = InterferenceMatrix::new(8);
            for (v, e) in &events {
                m.record(*v, *e);
            }
            let total = m.total();
            let by_rows: u64 = (0..8).map(|v| m.suffered_by(v)).sum();
            let by_cols: u64 = (0..8).map(|e| m.caused_by(e)).sum();
            prop_assert_eq!(total, events.len() as u64);
            prop_assert_eq!(by_rows, total);
            prop_assert_eq!(by_cols, total);
        }
    }
}
