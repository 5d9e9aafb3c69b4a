//! One-call simulation driver: the only way into the chip engine.
//!
//! Describe a run with a [`SimRequest`] — kernel streams with arrival
//! cycles, the [`DispatchPolicy`], the SM count, and the
//! [`BackendKind`] timing mode — then hand it to [`Simulator::execute`],
//! which builds and runs the chip (or, for several `Exclusive` streams, one
//! chip per stream back to back) and packages everything the experiment
//! harness needs (aggregate stats, per-SM breakdowns, time series,
//! interference matrix, scheduler metrics) into a [`SimResult`].

use std::sync::Arc;

use crate::config::GpuConfig;
use crate::dispatch::{DispatchPolicy, KernelStream, QosSpec};
use crate::event::BackendKind;
use crate::gpu::{Gpu, SmUnit};
use crate::kernel::Kernel;
use crate::scheduler::SchedulerMetrics;
use crate::stats::{DispatchLog, InterferenceMatrix, SmImbalance, SmStats, TimeSeries};
use gpu_mem::interconnect::{CrossbarStats, FabricStats};
use gpu_mem::{Cycle, TenantId, TenantMemStats};
use serde::{Deserialize, Serialize};
use sim_obs::{ObsLevel, ObsReport};

/// Version of the [`SimResult`] JSON shape.
///
/// * **v1** (implicit, never serialised) — everything up to and including
///   the pipelined shared-memory backend.
/// * **v2** — adds `schema_version` itself and `backend` (the label of the
///   timing backend that produced the result).
/// * **v3** — adds per-tenant `qos` (the [`crate::dispatch::LatencyClass`]
///   label of the stream's [`QosSpec`]) for the fleet tier's SLO reports.
pub const SCHEMA_VERSION: u32 = 3;

/// One tenant's (kernel stream's) share of a chip run: its own progress
/// counters plus the shared-resource usage attributed to it throughout the
/// memory system. `Σ` over tenants of every counter equals the corresponding
/// chip total.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantResult {
    /// Tenant identity (dense, `0..num_tenants`).
    pub tenant: TenantId,
    /// Name of the tenant's kernel / benchmark.
    pub kernel: String,
    /// Latency-class label of the stream's [`QosSpec`] (`"batch"` /
    /// `"interactive"`) — the SLO tier fleet reports group by.
    pub qos: String,
    /// Dynamic warp instructions the tenant executed.
    pub instructions: u64,
    /// Chip cycle at which the tenant's last warp finished (its turnaround
    /// time; under the serial `exclusive` policy this includes queueing
    /// behind earlier kernels).
    pub finish_cycle: Cycle,
    /// Whether the tenant was cut short by an instruction/cycle cap.
    pub capped: bool,
    /// L1D lookups performed for the tenant's warps (across all its SMs).
    pub l1d_accesses: u64,
    /// Of those, the lookups that hit.
    pub l1d_hits: u64,
    /// Bytes the tenant injected into its SMs' crossbar injection ports.
    pub xbar_bytes: u64,
    /// Bytes the tenant pushed through the shared request-direction fabric
    /// (0 on single-SM runs, which have no shared fabric).
    pub fabric_request_bytes: u64,
    /// Bytes returned to the tenant through the shared reply-direction
    /// fabric (0 on single-SM runs).
    pub fabric_reply_bytes: u64,
    /// Shared L2/DRAM usage attributed to the tenant.
    pub mem: TenantMemStats,
}

impl TenantResult {
    /// The tenant's own instructions-per-cycle over its turnaround time.
    pub fn ipc(&self) -> f64 {
        if self.finish_cycle == 0 {
            0.0
        } else {
            self.instructions as f64 / self.finish_cycle as f64
        }
    }

    /// L1D hit rate of the tenant's accesses.
    pub fn l1d_hit_rate(&self) -> f64 {
        if self.l1d_accesses == 0 {
            0.0
        } else {
            self.l1d_hits as f64 / self.l1d_accesses as f64
        }
    }

    /// The tenant's share of `total` chip L2 misses — the "L2-contention
    /// share" the mix reports use to show who is flooding the shared cache.
    pub fn l2_miss_share(&self, total_l2_misses: u64) -> f64 {
        if total_l2_misses == 0 {
            0.0
        } else {
            self.mem.l2_misses() as f64 / total_l2_misses as f64
        }
    }
}

/// Everything produced by one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimResult {
    /// Version of this JSON shape; see [`SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Label of the timing mode that produced the result
    /// ([`BackendKind::label`]: `"epoch"` or `"event"`). Both modes are
    /// bit-identical in every other field.
    pub backend: String,
    /// Name of the scheduler that produced this result.
    pub scheduler: String,
    /// Name of the kernel / benchmark simulated (co-execution runs join the
    /// tenant kernel names with `+`).
    pub kernel: String,
    /// Label of the [`DispatchPolicy`] that placed CTAs on SMs.
    pub policy: String,
    /// Cycles simulated.
    pub cycles: Cycle,
    /// Aggregate SM statistics.
    pub stats: SmStats,
    /// Instruction-indexed time series (Figs. 9, 10).
    pub time_series: TimeSeries,
    /// Inter-warp interference matrix (Figs. 1a, 4a).
    pub interference: InterferenceMatrix,
    /// Scheduler-specific counters at the end of the run.
    pub scheduler_metrics: SchedulerMetrics,
    /// Whether the run ended because it hit an instruction/cycle cap rather
    /// than finishing the kernel (on a multi-SM chip: any SM hit a cap).
    pub capped: bool,
    /// Number of SMs simulated.
    pub num_sms: usize,
    /// Per-SM statistics, indexed by SM; `stats` is their
    /// [`SmStats::reduce`] aggregate.
    pub per_sm: Vec<SmStats>,
    /// Per-tenant breakdown, indexed by tenant; single-kernel runs have
    /// exactly one entry covering the whole run.
    pub per_tenant: Vec<TenantResult>,
    /// SM↔L2 interconnect traffic aggregated over every SM's crossbar
    /// injection port.
    pub interconnect: CrossbarStats,
    /// Shared crossbar-fabric traffic (request and reply directions, with
    /// queueing cycles and per-tenant bytes). Empty/zero for single-SM runs,
    /// which have no shared fabric.
    pub fabric: FabricStats,
    /// Epoch-boundary decision log of the `interference-aware` dispatch
    /// policy (per-tenant hit-rate windows, classifications, throttle /
    /// restore actions); empty for static policies.
    pub dispatch_log: DispatchLog,
}

impl SimResult {
    /// Instructions per cycle of the run.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }

    /// L1D hit rate of the run.
    pub fn l1d_hit_rate(&self) -> f64 {
        self.stats.l1d.hit_rate()
    }

    /// Spread of per-SM IPC (min/max/stddev) — the partitioning-skew signal.
    pub fn sm_imbalance(&self) -> SmImbalance {
        SmImbalance::of(&self.per_sm)
    }

    /// Per-tenant IPCs in tenant order (inputs to the STP/ANTT metrics).
    pub fn tenant_ipcs(&self) -> Vec<f64> {
        self.per_tenant.iter().map(|t| t.ipc()).collect()
    }
}

/// A builder-style description of one simulation run: which kernel streams
/// to co-execute (with their arrival cycles and [`QosSpec`] contracts),
/// under which [`DispatchPolicy`], on how many SMs, driven by which
/// [`BackendKind`] timing mode. Consumed by [`Simulator::execute`].
#[derive(Clone)]
pub struct SimRequest {
    streams: Vec<KernelStream>,
    policy: DispatchPolicy,
    backend: BackendKind,
    num_sms: Option<usize>,
    obs: ObsLevel,
}

impl Default for SimRequest {
    fn default() -> Self {
        SimRequest {
            streams: Vec::new(),
            policy: DispatchPolicy::Exclusive,
            backend: BackendKind::default(),
            num_sms: None,
            obs: ObsLevel::Off,
        }
    }
}

impl SimRequest {
    /// An empty request: no streams yet, [`DispatchPolicy::Exclusive`], the
    /// default (event) backend, and the configuration's SM count.
    pub fn new() -> Self {
        SimRequest::default()
    }

    /// A single-stream request for `kernel` arriving at cycle 0.
    pub fn kernel(kernel: Arc<dyn Kernel>) -> Self {
        SimRequest::new().stream(kernel)
    }

    /// Appends a kernel stream arriving at cycle 0. Tenant ids follow
    /// submission order.
    pub fn stream(self, kernel: Arc<dyn Kernel>) -> Self {
        self.stream_at(kernel, 0)
    }

    /// Appends a kernel stream arriving at chip cycle `arrival` (admitted at
    /// the first epoch boundary at or after it; the serial `Exclusive`
    /// policy starts it no earlier than both its arrival and the previous
    /// kernel's completion).
    pub fn stream_at(self, kernel: Arc<dyn Kernel>, arrival: Cycle) -> Self {
        self.stream_qos_at(kernel, arrival, QosSpec::default())
    }

    /// Appends a kernel stream arriving at `arrival` with an explicit
    /// [`QosSpec`]: the interference-aware dispatcher enforces its floors
    /// and reserved SMs, and every policy reports its latency class in
    /// [`TenantResult::qos`].
    pub fn stream_qos_at(mut self, kernel: Arc<dyn Kernel>, arrival: Cycle, qos: QosSpec) -> Self {
        let tenant = self.streams.len() as TenantId;
        self.streams.push(KernelStream::new_qos_at(tenant, kernel, arrival, qos));
        self
    }

    /// Sets the CTA dispatch policy (default [`DispatchPolicy::Exclusive`]).
    pub fn policy(mut self, policy: DispatchPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the timing mode (default [`BackendKind::Event`]; `epoch` steps
    /// every cycle and is the bit-exact reference).
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Overrides the SM count (default: the simulator configuration's
    /// `num_sms`). A 1-SM chip gives its SM a private memory partition
    /// instead of the shared banked backend.
    pub fn num_sms(mut self, num_sms: usize) -> Self {
        self.num_sms = Some(num_sms);
        self
    }

    /// Sets the observability level (default [`ObsLevel::Off`]). Anything
    /// above `Off` makes [`Simulator::execute_observed`] return a populated
    /// [`ObsReport`]; plain [`Simulator::execute`] discards it.
    pub fn obs(mut self, obs: ObsLevel) -> Self {
        self.obs = obs;
        self
    }

    /// The streams submitted so far.
    pub fn streams(&self) -> usize {
        self.streams.len()
    }
}

/// Builder-style simulation front end.
pub struct Simulator {
    config: GpuConfig,
}

impl Simulator {
    /// Creates a simulator with the given machine configuration.
    pub fn new(config: GpuConfig) -> Self {
        Simulator { config }
    }

    /// The machine configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Executes `req` on a chip of `num_sms` SMs and returns the collected
    /// results. `build_unit` is called once per SM per chip to construct
    /// that SM's scheduler and optional redirect cache.
    ///
    /// Concurrent policies, and any single stream, run one chip over the
    /// planned work lists. Several `Exclusive` streams run one chip per
    /// stream back to back, with cold caches between kernels, and the results
    /// are chained: cycles add, and tenant `k`'s finish cycle includes every
    /// earlier kernel's runtime. A request with a single stream produces the
    /// same result under every policy.
    ///
    /// The [`BackendKind`] chooses the timing mode; `epoch` and `event`
    /// produce bit-identical results, differing only in wall-clock time.
    ///
    /// # Panics
    ///
    /// Panics when `req` has no streams.
    pub fn execute<F>(&self, req: SimRequest, build_unit: F) -> SimResult
    where
        F: FnMut(usize) -> SmUnit,
    {
        self.execute_observed(req, build_unit).0
    }

    /// [`Simulator::execute`] plus the run's [`ObsReport`]: sim-time trace
    /// events, the metrics registry and the wall-clock phase profile, at the
    /// request's [`SimRequest::obs`] level. The simulation result is
    /// byte-identical to what [`Simulator::execute`] returns for the same
    /// request — collection is strictly passive. A serial `Exclusive` chain
    /// shifts each run's report to its start cycle and labels its tenant
    /// with its queue position, so the merged report shows one timeline.
    pub fn execute_observed<F>(&self, req: SimRequest, mut build_unit: F) -> (SimResult, ObsReport)
    where
        F: FnMut(usize) -> SmUnit,
    {
        assert!(!req.streams.is_empty(), "a SimRequest needs at least one kernel stream");
        let num_sms = req.num_sms.unwrap_or(self.config.num_sms).max(1);
        let config = if num_sms == self.config.num_sms {
            self.config.clone()
        } else {
            self.config.clone().with_num_sms(num_sms)
        };
        let SimRequest { streams, policy, backend, obs, .. } = req;
        if policy.is_concurrent() || streams.len() == 1 {
            run_chip(&config, streams, policy, backend, obs, &mut build_unit)
        } else {
            run_serial(&config, &streams, backend, obs, &mut build_unit)
        }
    }
}

/// Builds one chip over `streams` under `policy`, runs it in timing mode
/// `backend` with observability at `obs`, and detaches the report.
fn run_chip<F>(
    config: &GpuConfig,
    streams: Vec<KernelStream>,
    policy: DispatchPolicy,
    backend: BackendKind,
    obs: ObsLevel,
    build_unit: &mut F,
) -> (SimResult, ObsReport)
where
    F: FnMut(usize) -> SmUnit,
{
    let units = (0..config.num_sms).map(&mut *build_unit).collect();
    let mut gpu = Gpu::with_streams(config.clone(), streams, policy, units);
    gpu.set_obs(obs);
    gpu.run(backend);
    let report = gpu.take_obs();
    (gpu.into_result(), report)
}

/// The `Exclusive` policy over several streams: one solo chip run per
/// stream, chained by [`merge_serial`]. A kernel starts no earlier than its
/// arrival cycle and no earlier than the previous kernel's completion; the
/// chip idles through any gap.
fn run_serial<F>(
    config: &GpuConfig,
    streams: &[KernelStream],
    backend: BackendKind,
    obs: ObsLevel,
    build_unit: &mut F,
) -> (SimResult, ObsReport)
where
    F: FnMut(usize) -> SmUnit,
{
    let mut runs = Vec::with_capacity(streams.len());
    let mut clock: Cycle = 0;
    let mut report = ObsReport::new(obs);
    for (k, stream) in streams.iter().enumerate() {
        let start = clock.max(stream.arrival_cycle);
        let solo = KernelStream::new(0, Arc::clone(stream.kernel()));
        let (result, mut run_report) =
            run_chip(config, vec![solo], DispatchPolicy::Exclusive, backend, obs, build_unit);
        run_report.relabel_tenant(0, k as u32);
        run_report.shift_cycles(start);
        report.merge(run_report);
        clock = start + result.cycles;
        runs.push((start, result));
    }
    report.tenants = streams.iter().map(|s| s.info().name.clone()).collect();
    (merge_serial(runs), report)
}

/// Chains serially executed per-kernel results into one chip-level result:
/// each run is shifted to its `start` cycle (the previous run's end, or later
/// when the kernel's arrival gated it), event counters add, time series are
/// concatenated with cycle and instruction offsets, and each run's tenant
/// record is re-labelled with its queue position and shifted by its start.
fn merge_serial(runs: Vec<(Cycle, SimResult)>) -> SimResult {
    let num_runs = runs.len();
    let mut iter = runs.into_iter();
    let (first_start, mut merged) = iter.next().expect("at least one result");
    debug_assert_eq!(merged.per_tenant.len(), 1);
    if first_start > 0 {
        // The very first kernel arrived late: the whole chip idles first.
        let mut shifted = TimeSeries::default();
        shifted.append_offset(&merged.time_series, first_start, 0);
        merged.time_series = shifted;
        merged.per_tenant[0].finish_cycle += first_start;
        merged.cycles += first_start;
        merged.stats.cycles = merged.cycles;
        for sm in &mut merged.per_sm {
            sm.cycles += first_start;
        }
    }
    // Re-label the first run's fabric attribution under tenant 0 and fold
    // each later run's single-tenant fabric traffic in under its queue
    // position, so per-tenant fabric bytes keep summing to the chip totals.
    let mut names = vec![merged.kernel.clone()];
    for (k, (start, r)) in iter.enumerate() {
        let gap = start - merged.cycles;
        let inst_offset = merged.stats.instructions;
        names.push(r.kernel.clone());
        merged.time_series.append_offset(&r.time_series, start, inst_offset);
        merged.interference.absorb(&r.interference);
        merged.scheduler_metrics.merge(&r.scheduler_metrics);
        merged.interconnect.bytes_transferred += r.interconnect.bytes_transferred;
        merged.interconnect.queueing_cycles += r.interconnect.queueing_cycles;
        merge_fabric_serial(&mut merged.fabric, &r.fabric, (k + 1) as TenantId);
        merged.capped |= r.capped;
        merge_sm_serial(&mut merged.stats, &r.stats, gap);
        for (a, b) in merged.per_sm.iter_mut().zip(&r.per_sm) {
            merge_sm_serial(a, b, gap);
        }
        let mut tenant = r.per_tenant.into_iter().next().expect("serial run has one tenant");
        tenant.tenant = (k + 1) as TenantId;
        tenant.finish_cycle += start;
        debug_assert_eq!(tenant.fabric_request_bytes, r.fabric.request.tenant_bytes(0));
        merged.per_tenant.push(tenant);
        merged.cycles = start + r.cycles;
        merged.stats.cycles = merged.cycles;
    }
    // merge_sm_serial accumulates utilisation *sums*; divide once so every
    // run weighs equally in the mean regardless of queue position.
    merged.stats.redirect_utilization /= num_runs as f64;
    for sm in &mut merged.per_sm {
        sm.redirect_utilization /= num_runs as f64;
    }
    merged.kernel = names.join("+");
    merged
}

/// Serial composition of two SM stat blocks: counters sum (as in
/// [`SmStats::reduce`]) but cycles *add* (plus any arrival-induced idle gap
/// between the runs) instead of taking the maximum, because the runs happened
/// back to back on the same SM.
/// `redirect_utilization` accumulates as a *sum* — [`merge_serial`] divides
/// by the run count once at the end, so the mean is equal-weighted.
fn merge_sm_serial(a: &mut SmStats, b: &SmStats, gap: Cycle) {
    let cycles = a.cycles + gap + b.cycles;
    let utilization_sum = a.redirect_utilization + b.redirect_utilization;
    *a = SmStats::reduce(&[a.clone(), b.clone()]);
    a.cycles = cycles;
    a.redirect_utilization = utilization_sum;
}

/// Folds a serially-executed solo run's crossbar-fabric traffic into the
/// merged chip result, re-attributing the run's (single, tenant-0) traffic to
/// queue position `tenant` so per-tenant bytes still sum to the chip totals.
fn merge_fabric_serial(merged: &mut FabricStats, run: &FabricStats, tenant: TenantId) {
    merged.bytes_per_cycle = run.bytes_per_cycle.max(merged.bytes_per_cycle);
    for (into, from) in [(&mut merged.request, &run.request), (&mut merged.reply, &run.reply)] {
        into.bytes_transferred += from.bytes_transferred;
        into.queueing_cycles += from.queueing_cycles;
        let idx = tenant as usize;
        if into.tenant_bytes.len() <= idx {
            into.tenant_bytes.resize(idx + 1, 0);
        }
        into.tenant_bytes[idx] += from.tenant_bytes.iter().sum::<u64>();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{ClosureKernel, KernelInfo};
    use crate::scheduler::{GtoScheduler, LrrScheduler};
    use crate::trace::{VecProgram, WarpOp};

    fn kernel(n_ops: usize) -> Arc<dyn Kernel> {
        let info =
            KernelInfo { name: "drv".into(), num_ctas: 2, warps_per_cta: 4, shared_mem_per_cta: 0 };
        Arc::new(ClosureKernel::new(info, move |cta, w| {
            let ops = (0..n_ops)
                .map(|i| {
                    WarpOp::coalesced_load(
                        ((cta as u64 * 29 + w as u64 * 7 + i as u64) % 4096) * 128,
                    )
                })
                .collect();
            Box::new(VecProgram::new(ops))
        }))
    }

    fn gto(_sm: usize) -> SmUnit {
        (Box::new(GtoScheduler::new()), None)
    }

    #[test]
    fn simulator_produces_result() {
        let sim = Simulator::new(GpuConfig::gtx480().with_sample_interval(20));
        let res = sim.execute(SimRequest::kernel(kernel(20)).num_sms(1), gto);
        assert_eq!(res.schema_version, SCHEMA_VERSION);
        assert_eq!(res.backend, "event", "the event core is the default backend");
        assert_eq!(res.scheduler, "GTO");
        assert_eq!(res.kernel, "drv");
        assert!(!res.capped);
        assert_eq!(res.stats.instructions, 2 * 4 * 20);
        assert!(res.ipc() > 0.0);
        assert!(res.l1d_hit_rate() >= 0.0 && res.l1d_hit_rate() <= 1.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let sim = Simulator::new(GpuConfig::gtx480());
        let a = sim.execute(SimRequest::kernel(kernel(30)).num_sms(1), gto);
        let b = sim.execute(SimRequest::kernel(kernel(30)).num_sms(1), gto);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.stats.l1d, b.stats.l1d);
        assert_eq!(a.stats.instructions, b.stats.instructions);
    }

    #[test]
    fn different_schedulers_can_differ() {
        let sim = Simulator::new(GpuConfig::gtx480());
        let a = sim.execute(SimRequest::kernel(kernel(30)).num_sms(1), gto);
        let b = sim.execute(SimRequest::kernel(kernel(30)).num_sms(1), |_| {
            (Box::new(LrrScheduler::new()), None)
        });
        // Same work is executed regardless of order.
        assert_eq!(a.stats.instructions, b.stats.instructions);
        assert_eq!(a.stats.mem_transactions, b.stats.mem_transactions);
    }

    /// The QoS contract rides along every request: the latency-class label
    /// lands in `TenantResult::qos` on a 1-SM chip and on a 4-SM co-run,
    /// and defaults to `batch`.
    #[test]
    fn qos_labels_reach_tenant_results() {
        let sim = Simulator::new(GpuConfig::gtx480());
        let single = sim.execute(
            SimRequest::new().stream_qos_at(kernel(10), 0, QosSpec::interactive(2)).num_sms(1),
            gto,
        );
        assert_eq!(
            single.per_tenant[0].qos, "interactive",
            "1-SM exclusive ignores floors but the label rides along"
        );
        let sim4 = Simulator::new(GpuConfig::gtx480().with_num_sms(4));
        let res = sim4.execute(
            SimRequest::new()
                .stream_qos_at(kernel(20), 0, QosSpec::interactive(2))
                .stream(kernel(20))
                .policy(DispatchPolicy::SharedRoundRobin),
            gto,
        );
        assert_eq!(res.per_tenant[0].qos, "interactive");
        assert_eq!(res.per_tenant[1].qos, "batch");
    }

    #[test]
    fn event_backend_matches_epoch_on_single_sm() {
        let sim = Simulator::new(GpuConfig::gtx480());
        let epoch =
            sim.execute(SimRequest::kernel(kernel(30)).num_sms(1).backend(BackendKind::Epoch), gto);
        let mut event =
            sim.execute(SimRequest::kernel(kernel(30)).num_sms(1).backend(BackendKind::Event), gto);
        assert_eq!(epoch.backend, "epoch");
        assert_eq!(event.backend, "event");
        event.backend = epoch.backend.clone();
        assert_eq!(
            serde_json::to_string(&epoch).unwrap(),
            serde_json::to_string(&event).unwrap(),
            "event backend must be bit-identical to the epoch oracle"
        );
    }

    /// Pins the v3 JSON shape: `schema_version`, `backend` and the
    /// per-tenant `qos` label are plain, always-present fields (the vendored
    /// serde derive has no field defaults, so consumers rely on them being
    /// written out), and the result round-trips.
    #[test]
    fn schema_v3_round_trips_and_pins_new_fields() {
        let sim = Simulator::new(GpuConfig::gtx480().with_sample_interval(20));
        let res = sim.execute(SimRequest::kernel(kernel(10)).num_sms(1), gto);
        let json = serde_json::to_string(&res).unwrap();
        assert!(json.contains("\"schema_version\":3"), "v3 tag missing: {json}");
        assert!(json.contains("\"backend\":\"event\""), "backend label missing: {json}");
        assert!(json.contains("\"qos\":\"batch\""), "per-tenant qos label missing: {json}");
        let back: SimResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back.schema_version, SCHEMA_VERSION);
        assert_eq!(back.backend, res.backend);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    fn load_kernel(name: &str, ctas: usize, ops: usize) -> Arc<dyn Kernel> {
        let info = KernelInfo {
            name: name.into(),
            num_ctas: ctas,
            warps_per_cta: 2,
            shared_mem_per_cta: 0,
        };
        Arc::new(ClosureKernel::new(info, move |cta, w| {
            let ops = (0..ops)
                .map(|i| {
                    WarpOp::coalesced_load((cta as u64 * 977 + w as u64 * 131 + i as u64) * 128)
                })
                .collect();
            Box::new(VecProgram::new(ops))
        }))
    }

    #[test]
    fn exclusive_queue_chains_serial_runs() {
        let sim = Simulator::new(GpuConfig::gtx480().with_num_sms(2));
        let a = load_kernel("a", 2, 8);
        let b = load_kernel("b", 2, 8);
        let solo_cycles =
            |k: &Arc<dyn Kernel>| sim.execute(SimRequest::kernel(Arc::clone(k)), gto).cycles;
        let (ca, cb) = (solo_cycles(&a), solo_cycles(&b));
        let res = sim.execute(SimRequest::new().stream(a).stream(b), gto);
        assert_eq!(res.policy, "exclusive");
        assert_eq!(res.kernel, "a+b");
        assert_eq!(res.per_tenant.len(), 2);
        // Serial total: cycles add; tenant 1 queues behind tenant 0.
        assert_eq!(res.cycles, ca + cb);
        assert_eq!(res.stats.cycles, res.cycles);
        assert!(res.per_tenant[0].finish_cycle <= ca);
        assert!(res.per_tenant[1].finish_cycle > ca);
        assert_eq!(res.per_tenant[0].tenant, 0);
        assert_eq!(res.per_tenant[1].tenant, 1);
        assert_eq!(res.stats.instructions, 2 * (2 * 2 * 8));
        assert!(!res.capped);
        // Per-tenant instruction split covers the total exactly.
        assert_eq!(
            res.per_tenant.iter().map(|t| t.instructions).sum::<u64>(),
            res.stats.instructions
        );
    }

    #[test]
    fn single_stream_queue_matches_plain_chip_run_under_every_policy() {
        let config = GpuConfig::gtx480().with_num_sms(2);
        let reference = {
            let stream = KernelStream::new(0, load_kernel("k", 4, 10));
            let units = (0..2).map(gto).collect();
            let mut gpu =
                Gpu::with_streams(config.clone(), vec![stream], DispatchPolicy::Exclusive, units);
            gpu.run(BackendKind::Event);
            gpu.into_result()
        };
        let sim = Simulator::new(config);
        for policy in DispatchPolicy::all() {
            let res = sim.execute(SimRequest::kernel(load_kernel("k", 4, 10)).policy(policy), gto);
            assert_eq!(res.cycles, reference.cycles, "{policy}");
            assert_eq!(res.stats, reference.stats, "{policy}");
            assert_eq!(res.per_sm, reference.per_sm, "{policy}");
            assert_eq!(res.time_series, reference.time_series, "{policy}");
            assert_eq!(res.per_tenant, reference.per_tenant, "{policy}");
        }
    }
}
