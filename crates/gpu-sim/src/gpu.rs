//! The chip engine: CTA dispatch, per-SM memory ports, and the one timing
//! loop that advances every SM from epoch boundary to epoch boundary.
//!
//! The crate-private `Gpu` turns the per-SM model (the crate-private `Sm`)
//! into a chip; [`crate::Simulator::execute`] is the only way to build and
//! run one. The [`crate::dispatch`] module's policies split one or more
//! co-running kernels' grids across `num_sms` SM engines, and every SM's L1
//! misses travel over its own injection port ([`gpu_mem::Interconnect`])
//! and the shared [`gpu_mem::CrossbarFabric`] into one shared, banked L2 +
//! DRAM backend ([`gpu_mem::BankedMemorySystem`]) with per-tenant
//! attribution.
//!
//! ## The boundary loop
//!
//! The engine advances the chip on one thread in *epochs* of
//! [`GpuConfig::effective_epoch_cycles`] cycles and routes every
//! global-memory request through a deterministic service pipeline:
//!
//! ```text
//!  SM 0 ──port──┐  (per-SM injection link: latency + bytes/cycle)
//!  SM 1 ──port──┼──► reorder window ──► request fabric ──► L2/DRAM banks
//!   ⋮           │    (merge epochs by    (chip-wide B/cy   (served at each
//!  SM N ──port──┘     true arrival)       budget, SM→L2)    request's cycle)
//!                                                               │
//!  SM event queues ◄── deliveries ◄── reply fabric ◄── reply reorder window
//!                     (next boundary) (chip-wide B/cy    (merge epochs by
//!                                      budget, L2→SM)     completion cycle)
//! ```
//!
//! At every boundary the engine:
//!
//! 1. **serves** the batch drained at the previous boundary in one pass, in
//!    `(arrival, SM, issue order)` order: each request crosses the shared
//!    request fabric at its arrival cycle and is served by its L2 bank at
//!    the cycle the fabric delivers it;
//! 2. **advances** the SMs to the boundary. An SM touches only its own state:
//!    global-memory requests are time-stamped with their injection-port
//!    arrival cycle and buffered in the SM's memory port, not served;
//! 3. **releases** replies: read completions enter the *reply reorder
//!    window*, and every reply completing by `boundary + epoch` (which no
//!    later-served batch can precede) crosses the reply fabric in global
//!    completion order and is delivered into its SM's event queue;
//! 4. **collects** the next batch: the SMs' request buffers are drained and
//!    merged with the *request reorder window*. Requests whose port arrival
//!    lands at or before the merge horizon (`boundary + interconnect
//!    latency`) are batched for service; later arrivals, which the next
//!    epoch's requests could still precede, are held and merged with the
//!    next drain. Both windows make adjacent epochs' traffic interleave by
//!    true time instead of batch-major order;
//! 5. **dispatches** arrived work and lets the adaptive dispatcher decide.
//!
//! Because the epoch length is clamped to *half* the minimum SM→L2 round
//! trip, a response served one epoch after its request was drained still
//! completes at or after the delivering boundary — never in an SM's past.
//!
//! ## Event and stepping modes
//!
//! [`BackendKind::Event`] keeps the loop off everything provably idle: SMs
//! fast-forward over idle stretches, SMs with nothing due stay parked, and
//! an idle chip sleeps through whole boundaries. One flat per-SM wake clock
//! (`WakeClock`) says when each parked SM is next due; a boundary advances
//! the due SMs earliest first, the lowest SM on a tie.
//! [`BackendKind::Epoch`] runs the same loop in *stepping* mode: every SM
//! steps every cycle and is advanced at every boundary, and the chip never
//! sleeps. Both modes produce bit-identical results; stepping is the
//! reference the skips are tested against.
//!
//! A single SM with fully static work needs no boundaries: it owns a
//! private memory partition, which serves every request at issue time, and
//! one `Sm::run_epoch_event(Cycle::MAX)` call runs it to the end in either
//! mode.

use crate::config::GpuConfig;
use crate::dispatch::{
    build_dispatch, AdaptiveDispatcher, DeferredBatch, DispatchPolicy, KernelStream, TenantSignal,
};
use crate::event::BackendKind;
use crate::redirect::RedirectCache;
use crate::scheduler::{SchedulerMetrics, WarpScheduler};
use crate::simulator::{SimResult, TenantResult};
use crate::sm::{ResponseEvent, Sm};
use crate::stats::{
    DispatchAction, DispatchLog, InterferenceMatrix, SmStats, TenantStats, TimeSeries,
};
use gpu_mem::interconnect::{CrossbarFabric, CrossbarStats, Interconnect};
use gpu_mem::l2::{BankedMemorySystem, MemoryPartition, PartitionConfig, PartitionObs};
use gpu_mem::{merge_tenant_stats, Addr, Cycle, TenantId, TenantMemStats, WarpId};
use sim_obs::{ObsLevel, ObsReport, PhaseProfiler, TraceEvent, TraceRecorder, Track};

/// A read response computed by the service pipeline, awaiting delivery into
/// its SM's event queue at the next epoch boundary.
#[derive(Debug, Clone, Copy)]
struct ReadyResponse {
    sm: usize,
    done: Cycle,
    event: ResponseEvent,
}

/// A read completion leaving the banks, before it crosses the reply fabric.
/// Completions are held in the cross-epoch reply reorder window until no
/// later-served batch can complete before them, so the reply fabric sees a
/// globally time-ordered stream (a FIFO pipe presented with out-of-order
/// completions would charge phantom queueing against every reply behind one
/// slow DRAM straggler).
#[derive(Debug, Clone, Copy)]
struct RawCompletion {
    sm: usize,
    seq: u64,
    done: Cycle,
    tenant: TenantId,
    event: Option<ResponseEvent>,
}

/// One SM's policy unit: its warp scheduler plus the optional redirect cache
/// the CIAO variants install. Multi-SM chips need one unit per SM because
/// policies carry per-SM state (VTAs, interference lists, throttle sets).
pub type SmUnit = (Box<dyn WarpScheduler>, Option<Box<dyn RedirectCache>>);

/// A global-memory request an SM sends through its [`MemoryPort`]: served at
/// once by a private port, or buffered during an epoch and served against
/// the shared backend after the next boundary.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MemRequest {
    /// Cycle at which the request arrives at the L2 side of the SM's
    /// interconnect port (already includes link latency and queueing).
    pub arrive: Cycle,
    /// Issue order within the SM (tie-break for deterministic service),
    /// numbered by the deferred port.
    pub seq: u64,
    /// Block-aligned address.
    pub block: Addr,
    /// Requesting warp (SM-local id).
    pub wid: WarpId,
    /// Tenant the request is attributed to at the shared backend.
    pub tenant: TenantId,
    /// Whether this is a write.
    pub is_write: bool,
    /// Whether the request bypasses the L2 (statPCAL path).
    pub bypass: bool,
    /// Completion event to deliver back to the SM, if the warp waits on it.
    pub event: Option<ResponseEvent>,
}

/// The SM's port into the downstream memory system.
///
/// Every request enters through [`MemoryPort::send`]. `Private` owns a
/// full [`MemoryPartition`] and serves every request at issue time — the
/// single-SM configuration. `Deferred` buffers requests for epoch-boundary
/// service by the chip engine and carries the chip DRAM-utilisation
/// snapshot the scheduler context reads between boundaries.
pub(crate) enum MemoryPort {
    /// Synchronous private partition (single-SM runs).
    Private(Box<MemoryPartition>),
    /// Epoch-deferred port into the shared chip backend (multi-SM runs).
    Deferred(DeferredPort),
}

/// Request buffer + utilisation snapshot of a deferred port.
#[derive(Debug, Default)]
pub(crate) struct DeferredPort {
    queue: Vec<MemRequest>,
    seq: u64,
    utilization_snapshot: f64,
}

impl MemoryPort {
    /// A private synchronous port over its own partition.
    pub fn private(config: PartitionConfig) -> Self {
        MemoryPort::Private(Box::new(MemoryPartition::new(config)))
    }

    /// A deferred port (requests served by the engine at epoch boundaries).
    pub fn deferred() -> Self {
        MemoryPort::Deferred(DeferredPort::default())
    }

    /// The port's one entry point: issues `req` downstream. A private port
    /// serves it at once through [`MemoryPartition::serve`] and returns its
    /// completion cycle; a deferred port numbers it in issue order, buffers
    /// it for boundary service and returns `None` (a read's event is
    /// delivered later).
    pub fn send(&mut self, mut req: MemRequest) -> Option<Cycle> {
        match self {
            MemoryPort::Private(p) => {
                Some(p.serve(req.block, req.wid, req.tenant, req.is_write, req.bypass, req.arrive))
            }
            MemoryPort::Deferred(d) => {
                req.seq = d.seq;
                d.seq += 1;
                d.queue.push(req);
                None
            }
        }
    }

    /// DRAM data-bus utilisation visible to the scheduler at cycle `now`,
    /// if it is already determined: the live value for a private port
    /// (whose traffic is fixed while the SM issues nothing), and the
    /// epoch-start snapshot before `snapshot_until` for a deferred one,
    /// whose snapshot the chip engine replaces at the next boundary.
    pub(crate) fn known_dram_utilization(&self, now: Cycle, snapshot_until: Cycle) -> Option<f64> {
        match self {
            MemoryPort::Private(p) => Some(p.dram_bandwidth_utilization(now.max(1))),
            MemoryPort::Deferred(d) => (now < snapshot_until).then_some(d.utilization_snapshot),
        }
    }

    /// Moves the buffered requests onto `out`, each tagged with the SM
    /// index `unit` (nothing for a private port). The buffer keeps its
    /// capacity for the next epoch.
    pub fn drain_into(&mut self, unit: usize, out: &mut Vec<(usize, MemRequest)>) {
        if let MemoryPort::Deferred(d) = self {
            out.extend(d.queue.drain(..).map(|r| (unit, r)));
        }
    }

    /// Updates the utilisation snapshot (no-op for a private port).
    pub fn set_dram_utilization(&mut self, util: f64) {
        if let MemoryPort::Deferred(d) = self {
            d.utilization_snapshot = util;
        }
    }

    /// The private partition's statistics, if this port owns one.
    pub fn partition_stats(&self) -> Option<gpu_mem::PartitionStats> {
        match self {
            MemoryPort::Private(p) => Some(p.stats()),
            MemoryPort::Deferred(_) => None,
        }
    }

    /// The private partition's per-tenant attribution, if this port owns one.
    pub fn partition_tenant_stats(&self) -> Option<&[TenantMemStats]> {
        match self {
            MemoryPort::Private(p) => Some(p.tenant_stats()),
            MemoryPort::Deferred(_) => None,
        }
    }

    /// Arms a private partition's observability sink as bank 0 (no-op for a
    /// deferred port — the shared backend's banks own their sinks).
    pub fn enable_obs(&mut self, trace_on: bool) {
        if let MemoryPort::Private(p) = self {
            p.enable_obs(0, trace_on);
        }
    }

    /// Detaches the private partition's observability sink, if any.
    pub fn take_obs(&mut self) -> Option<Box<PartitionObs>> {
        match self {
            MemoryPort::Private(p) => p.take_obs(),
            MemoryPort::Deferred(_) => None,
        }
    }
}

/// The chip-level engine: `num_sms` SMs, one shared banked L2/DRAM backend,
/// and the deterministic boundary loop. See the module docs for the
/// execution model.
pub(crate) struct Gpu {
    config: GpuConfig,
    kernel_name: String,
    scheduler_name: String,
    tenant_names: Vec<String>,
    policy: DispatchPolicy,
    sms: Vec<Sm>,
    shared: Option<BankedMemorySystem>,
    /// The shared request/reply crossbar fabric (multi-SM chips only).
    fabric: Option<CrossbarFabric>,
    /// Cross-epoch reorder window: requests drained at an earlier boundary
    /// whose port arrival was still mergeable with future traffic.
    window: Vec<(usize, MemRequest)>,
    /// Cross-epoch reply reorder window: bank completions not yet released
    /// through the reply fabric because a later-served batch could still
    /// complete before them.
    reply_window: Vec<RawCompletion>,
    /// Arrival-deferred per-SM work batches (static policies), ascending by
    /// arrival cycle; drained as epoch boundaries pass their arrivals.
    deferred: Vec<DeferredBatch>,
    /// The run-time dispatcher of the `InterferenceAware` policy.
    adaptive: Option<AdaptiveDispatcher>,
    dispatch_log: DispatchLog,
    cycle: Cycle,
    /// Label of the timing mode that ran the chip (set by [`Gpu::run`]);
    /// recorded into [`SimResult::backend`].
    backend: &'static str,
    /// Observability level requested via [`Gpu::set_obs`] (`Off` leaves the
    /// engine untouched — no sinks, no profiling, no trace rings).
    obs: ObsLevel,
    /// Wall-clock phase profiler over the engine's boundary pipeline
    /// (inert unless `obs` enables metrics; never feeds [`SimResult`]).
    profiler: PhaseProfiler,
    /// Engine-internal trace ring (event-queue pops, chip sleeps). Its events
    /// carry [`sim_obs::TraceCategory::Engine`] and are excluded from the
    /// canonical sim-time export, which must be the same in both modes.
    engine_trace: Option<TraceRecorder>,
    /// Boundaries the event mode skipped in closed form via whole-chip
    /// sleep (always 0 in stepping mode). Surfaced as the
    /// `engine/skipped-boundaries` metric, which — like every `engine/`
    /// metric — is excluded from the canonical mode-invariant export.
    skipped_boundaries: u64,
    /// Number of whole-chip sleep episodes (runs of consecutive skipped
    /// boundaries) the event mode took.
    sleeps: u64,
}

/// The flat wake clock of a fixed set of units (the boundary loop's SMs):
/// `at[u]` is the cycle unit `u` next has work, `Cycle::MAX` when it is
/// parked for good. Due units pop earliest first, the lowest unit on a
/// tie, so the order is a pure function of simulated time and unit index.
struct WakeClock {
    at: Vec<Cycle>,
}

impl WakeClock {
    /// `units` units, each due at `at`.
    fn new(units: usize, at: Cycle) -> Self {
        WakeClock { at: vec![at; units] }
    }

    /// The earliest wakeup, `Cycle::MAX` when every unit is parked.
    fn next(&self) -> Cycle {
        self.at.iter().copied().min().unwrap_or(Cycle::MAX)
    }

    /// Pulls `unit`'s wakeup forward to `t`; a unit due earlier keeps its
    /// slot. A reply delivery or newly dealt work wakes a parked SM this
    /// way.
    fn lower(&mut self, unit: usize, t: Cycle) {
        self.at[unit] = self.at[unit].min(t);
    }

    /// Pops every unit due at or before `now` into `out` (replacing its
    /// contents), earliest first and the lowest unit on a tie, and parks
    /// them. One scan finds the due units; only they are sorted.
    fn pop_all_due(&mut self, now: Cycle, out: &mut Vec<usize>) {
        out.clear();
        out.extend((0..self.at.len()).filter(|&u| self.at[u] <= now && self.at[u] != Cycle::MAX));
        out.sort_unstable_by_key(|&u| (self.at[u], u));
        for &u in out.iter() {
            self.at[u] = Cycle::MAX;
        }
    }
}

/// What the adaptive dispatcher reads at a boundary, refilled in place so
/// sampling allocates nothing: the cumulative per-tenant monitor signals
/// and each SM's free warp slots.
struct ChipSignals {
    tenants: Vec<TenantSignal>,
    free: Vec<usize>,
}

impl ChipSignals {
    fn new(num_tenants: usize) -> Self {
        ChipSignals { tenants: vec![TenantSignal::default(); num_tenants], free: Vec::new() }
    }

    /// Samples the chip: L1 and CTA-retire counters summed over the SMs,
    /// L2/DRAM attribution read from the shared backend (or the single
    /// SM's private partition), and every SM's free warp slots.
    fn sample(&mut self, sms: &[Sm], shared: Option<&BankedMemorySystem>) {
        let out = &mut self.tenants;
        out.fill(TenantSignal::default());
        for sm in sms {
            for (out, stats) in out.iter_mut().zip(sm.tenant_stats()) {
                out.l1_accesses += stats.l1d_accesses;
                out.l1_hits += stats.l1d_hits;
                out.instructions += stats.instructions;
                out.ctas_completed += stats.ctas_completed;
            }
        }
        let private = sms.iter().filter_map(|sm| sm.port.partition_tenant_stats());
        let banks = shared.into_iter().flat_map(BankedMemorySystem::tenant_stats_per_bank);
        for table in private.chain(banks) {
            for (out, m) in out.iter_mut().zip(table) {
                out.l2_accesses += m.l2_accesses;
                out.l2_hits += m.l2_hits;
                out.dram_accesses += m.dram_accesses;
            }
        }
        self.free.clear();
        self.free.extend(sms.iter().map(Sm::free_warp_slots));
    }
}

/// The observability view of one dispatcher action: its name, the tenant
/// it acted on (`None` for a placement, which acts on every tenant), the
/// argument of its dispatcher-track instant, and the `(tenant, argument)`
/// of each tenant-track instant it emits.
type ActionObs = (&'static str, Option<TenantId>, Option<u64>, Vec<(TenantId, Option<u64>)>);

fn action_obs(action: &DispatchAction) -> ActionObs {
    match *action {
        DispatchAction::Admit { tenant } => ("admit", Some(tenant), None, vec![(tenant, None)]),
        DispatchAction::Place { ref allowed_sms } => (
            "place",
            None,
            Some(allowed_sms.len() as u64),
            allowed_sms.iter().enumerate().map(|(t, &n)| (t as TenantId, Some(n as u64))).collect(),
        ),
        DispatchAction::Throttle { tenant, victim, allowed_sms } => (
            "throttle",
            Some(tenant),
            Some(victim as u64),
            vec![(tenant, Some(allowed_sms as u64))],
        ),
        DispatchAction::Restore { tenant, allowed_sms } => {
            ("restore", Some(tenant), None, vec![(tenant, Some(allowed_sms as u64))])
        }
    }
}

impl Gpu {
    /// Builds a chip co-running `streams` under `policy`'s SM assignment with
    /// one `(scheduler, redirect)` unit per SM; `units.len()` is the number
    /// of SMs simulated. Stream tenant ids must be dense (`0..streams.len()`,
    /// in order) so per-tenant tables across the engine line up. One chip
    /// runs one `Exclusive` stream; several run back to back, one chip each
    /// (see [`crate::Simulator::execute`]).
    pub fn with_streams(
        config: GpuConfig,
        streams: Vec<KernelStream>,
        policy: DispatchPolicy,
        units: Vec<SmUnit>,
    ) -> Self {
        assert!(!units.is_empty(), "a GPU needs at least one SM");
        assert!(!streams.is_empty(), "a GPU needs at least one kernel stream");
        assert!(
            policy.is_concurrent() || streams.len() == 1,
            "one chip runs several streams only under a concurrent policy"
        );
        for (i, s) in streams.iter().enumerate() {
            assert_eq!(s.tenant as usize, i, "stream tenant ids must be dense and in order");
        }
        let num_sms = units.len();
        let mut dispatch_plan = build_dispatch(
            &streams,
            num_sms,
            policy,
            config.max_warps_per_sm,
            config.effective_epoch_cycles(),
        );
        dispatch_plan.deferred.sort_by_key(|b| b.arrival);
        let assignments = std::mem::take(&mut dispatch_plan.initial);
        let tenant_names: Vec<String> = streams.iter().map(|s| s.info().name.clone()).collect();
        let kernel_name = tenant_names.join("+");
        let shared = (num_sms > 1).then(|| {
            // Bank count is clamped to one per two SMs (the GTX 480 ratio:
            // 15 SMs over 6 partitions). Each bank owns a private data bus,
            // so over-sharding a small chip's bandwidth would lose more to
            // transient channel imbalance than bank parallelism returns.
            BankedMemorySystem::for_chip(
                config.partition.clone(),
                config.l2_banks.min((num_sms / 2).max(1)),
                num_sms,
            )
        });
        let mut scheduler_name = String::new();
        let sms = units
            .into_iter()
            .zip(assignments)
            .map(|((scheduler, redirect), work)| {
                if scheduler_name.is_empty() {
                    scheduler_name = scheduler.name().to_string();
                }
                // Each SM injects through a private link; chip-wide
                // contention is the fabric's and the banks'.
                let link = Interconnect::new(
                    config.interconnect_latency,
                    config.interconnect_bytes_per_cycle,
                );
                let port = if num_sms > 1 {
                    MemoryPort::deferred()
                } else {
                    MemoryPort::private(config.partition.clone())
                };
                Sm::with_parts(config.clone(), work, scheduler, redirect, link, port)
            })
            .collect();
        let fabric = (num_sms > 1).then(|| CrossbarFabric::new(config.xbar_chip_bytes_per_cycle));
        Gpu {
            config,
            kernel_name,
            scheduler_name,
            tenant_names,
            policy,
            sms,
            shared,
            fabric,
            window: Vec::new(),
            reply_window: Vec::new(),
            deferred: dispatch_plan.deferred,
            adaptive: dispatch_plan.adaptive,
            dispatch_log: DispatchLog::default(),
            cycle: 0,
            backend: BackendKind::default().label(),
            obs: ObsLevel::Off,
            profiler: PhaseProfiler::default(),
            engine_trace: None,
            skipped_boundaries: 0,
            sleeps: 0,
        }
    }

    /// Arms observability collection at `level`. Call before running the
    /// chip: `Metrics` (and above) attaches per-bank latency histograms and
    /// enables the wall-clock phase profiler; `Full` additionally attaches
    /// sim-time trace rings to every SM, L2 bank and fabric direction.
    /// `Off` (the default) leaves the engine exactly as built — the hot
    /// paths see only a dormant `Option` check.
    pub fn set_obs(&mut self, level: ObsLevel) {
        self.obs = level;
        if level.metrics_enabled() {
            self.profiler = PhaseProfiler::enabled();
            if let Some(shared) = &mut self.shared {
                shared.enable_obs(level.trace_enabled());
            } else {
                for sm in &mut self.sms {
                    sm.port.enable_obs(level.trace_enabled());
                }
            }
        }
        if level.trace_enabled() {
            for (i, sm) in self.sms.iter_mut().enumerate() {
                sm.set_trace(i as u32);
            }
            if let Some(fabric) = &mut self.fabric {
                fabric.enable_trace();
            }
            self.engine_trace = Some(TraceRecorder::with_default_capacity());
        }
    }

    /// Detaches everything the run collected into an [`ObsReport`]. Call
    /// after [`Gpu::run`] and before [`Gpu::into_result`]; none of the
    /// collected state feeds back into the simulation result.
    pub fn take_obs(&mut self) -> ObsReport {
        let mut report = ObsReport::new(self.obs);
        report.tenants = self.tenant_names.clone();
        report.profile = std::mem::take(&mut self.profiler);
        if !self.obs.metrics_enabled() {
            return report;
        }
        for sm in &mut self.sms {
            if let Some(mut trace) = sm.take_trace() {
                report.dropped_events += trace.dropped();
                report.events.extend(trace.take());
            }
            if let Some(obs) = sm.port.take_obs() {
                Self::absorb_partition_obs(&mut report, *obs);
            }
        }
        if let Some(shared) = &mut self.shared {
            for obs in shared.collect_obs() {
                Self::absorb_partition_obs(&mut report, *obs);
            }
        }
        if let Some(fabric) = &mut self.fabric {
            if let Some(mut trace) = fabric.take_trace() {
                report.dropped_events += trace.dropped();
                report.events.extend(trace.take());
            }
        }
        if let Some(mut trace) = self.engine_trace.take() {
            report.dropped_events += trace.dropped();
            report.events.extend(trace.take());
        }
        // Engine-internal counters: how much of the run the event mode
        // skipped in closed form. Always 0 in stepping mode; the `engine/`
        // prefix keeps them out of the canonical mode-invariant metrics
        // export (full export only).
        report.metrics.counter_add("engine/skipped-boundaries", None, self.skipped_boundaries);
        report.metrics.counter_add("engine/sleeps", None, self.sleeps);
        self.dispatch_obs(&mut report);
        report
    }

    /// Folds one bank's (or private partition's) sink into the report: its
    /// trace ring and its per-tenant service-latency histograms.
    fn absorb_partition_obs(report: &mut ObsReport, obs: PartitionObs) {
        if let Some(mut trace) = obs.trace {
            report.dropped_events += trace.dropped();
            report.events.extend(trace.take());
        }
        for (tenant, hist) in obs.latency.iter().enumerate() {
            if hist.count() > 0 {
                report.metrics.histogram_merge("mem-latency", Some(tenant as u32), hist);
            }
        }
    }

    /// Synthesises dispatcher-track trace instants and registry metrics from
    /// the decision log. Purely derived from sim-time state, so the output
    /// is identical in both timing modes.
    fn dispatch_obs(&self, report: &mut ObsReport) {
        let log = &self.dispatch_log;
        if log.is_empty() {
            return;
        }
        let trace_on = self.obs.trace_enabled();
        report.metrics.counter_add("dispatch-decisions", None, log.len() as u64);
        for (t, series) in log.all_l2_hit_rate_series().iter().enumerate() {
            for &(cycle, rate) in series {
                report.metrics.gauge_push("l2-hit-rate", Some(t as u32), cycle, rate);
            }
        }
        for d in &log.decisions {
            for action in &d.actions {
                let (name, tenant, arg, per_tenant) = action_obs(action);
                report.metrics.counter_add(&format!("dispatch-{name}s"), tenant, 1);
                if trace_on {
                    let instant = |track, tenant, arg| TraceEvent {
                        arg,
                        ..TraceEvent::instant(track, name, d.cycle, tenant)
                    };
                    report.events.push(instant(Track::Dispatcher, tenant, arg));
                    for (t, arg) in per_tenant {
                        report.events.push(instant(Track::Tenant(t), Some(t), arg));
                    }
                }
            }
        }
    }

    /// Runs the chip in timing mode `kind` until every SM finished its CTAs
    /// or hit a cap, and returns the chip cycle count (the slowest SM's
    /// clock). Both modes produce bit-identical results; the mode's label is
    /// recorded in [`SimResult::backend`].
    pub fn run(&mut self, kind: BackendKind) -> Cycle {
        self.backend = kind.label();
        for sm in &mut self.sms {
            sm.set_stepping(kind == BackendKind::Epoch);
        }
        let dynamic = self.adaptive.is_some() || !self.deferred.is_empty();
        if self.sms.len() == 1 && !dynamic {
            // Single SM, fully static work: its private partition serves
            // every request at issue time, so there is no boundary to keep.
            self.profiler.enter("sm-run");
            let sm = &mut self.sms[0];
            sm.run_epoch_event(Cycle::MAX);
            sm.finalize_stats();
            self.cycle = sm.cycle();
            self.profiler.exit();
            return self.cycle;
        }
        self.run_epochs_event();
        self.cycle
    }

    /// The boundary loop (see the module docs for the pipeline). Every
    /// boundary runs the same sequence — serve the held batch → advance SMs
    /// to the boundary → release and deliver replies → collect the next
    /// batch → dispatch — and every request is served at the same cycle in
    /// both modes. In event mode two mechanisms keep the loop off everything
    /// that is provably idle, without changing a single observable cycle; in
    /// stepping mode neither fires, because a stepping SM always reports its
    /// next event as due:
    ///
    /// - **Per-SM parking.** Only SMs whose wakeup hint is due at the current
    ///   boundary are popped and advanced ([`WakeClock::pop_all_due`]); the rest
    ///   stay *parked* with a frozen clock. A parked stretch is one the SM
    ///   holds still on by construction: idle, throttle-only or an
    ///   MSHR-full replay (the hint is [`Sm::next_event_time`], and replies
    ///   / dealt work pull hints forward). So the owed settle (scheduler
    ///   decay, idle-cycle accounting) is replayed in one closed-form
    ///   [`Sm::run_epoch_event`] call when the SM next wakes, exactly as
    ///   `on_idle_cycles` composes per-SM. Done and capped SMs park at
    ///   `Cycle::MAX` in both modes.
    /// - **Whole-chip sleep.** When every hint, arrival and delivery lies
    ///   beyond the next boundary and nothing is buffered anywhere, whole
    ///   boundaries are skipped in closed form: the adaptive dispatcher's
    ///   hysteresis windows are bulk-replayed per skipped boundary against
    ///   frozen monitor signals (identical to stepping through them, since
    ///   no SM or bank state moves while the chip sleeps). The skipped count
    ///   surfaces as the `engine/skipped-boundaries` metric.
    ///
    /// Each boundary's batch is served in one pass by [`Gpu::serve_batch`].
    fn run_epochs_event(&mut self) {
        let epoch = self.config.effective_epoch_cycles();
        let line_size = self.config.l1d.line_size;
        let xbar_latency = self.config.interconnect_latency;
        let num_sms = self.sms.len();
        let num_tenants = self.tenant_names.len();
        let max_cycles = self.config.max_cycles;
        let mut shared = self.shared.as_mut();
        let sms = &mut self.sms;
        let adaptive = &mut self.adaptive;
        let deferred = &mut self.deferred;
        let fabric = &mut self.fabric;
        let window = &mut self.window;
        let reply_window = &mut self.reply_window;
        let profiler = &mut self.profiler;
        let engine_trace = &mut self.engine_trace;

        let mut wake = WakeClock::new(num_sms, 0);
        let mut signals = ChipSignals::new(num_tenants);

        // Cycle-0 boundary: admit arrival-0 streams into the adaptive
        // dispatcher and deal its initial (probe) CTAs.
        Self::dispatch_boundary_event(
            sms,
            shared.as_deref(),
            adaptive,
            deferred,
            &mut signals,
            0,
            &mut wake,
            0.0,
        );

        // How long the chip may sit idle (no SM runnable, nothing newly
        // dealt) while the dispatcher still holds work before the run is
        // declared stuck: long enough for every probe give-up to fire.
        let stall_limit = epoch
            * crate::dispatch::DECISION_EPOCHS
            * (crate::dispatch::MAX_PROBE_WINDOWS + 2 * crate::dispatch::DECISION_EPOCHS);

        let mut now: Cycle = 0;
        let mut last_progress: Cycle = 0;
        // The batch drained at the previous boundary, already merged with
        // the reorder window and sorted — served at the next boundary.
        // Like every boundary buffer below, it keeps its capacity.
        let mut batch: Vec<(usize, MemRequest)> = Vec::new();
        // Replies released at a boundary, delivered into their SMs.
        let mut responses: Vec<ReadyResponse> = Vec::new();
        // Scratch for one boundary's advancement order (refilled each epoch).
        let mut order: Vec<usize> = Vec::with_capacity(num_sms);
        // DRAM-utilisation snapshot the current boundary's advancing SMs
        // read — the value computed after the *previous* boundary's service.
        // `flush_util` lags it by one boundary: the snapshot that was in
        // effect during the last executed boundary, i.e. what a parked SM's
        // final stepped advancement would have observed.
        let mut boundary_util = 0.0f64;
        let mut flush_util = 0.0f64;
        let mut skipped_boundaries: u64 = 0;
        let mut sleeps: u64 = 0;
        loop {
            let alive = sms.iter().any(|s| !s.is_done() && !s.hit_cap());
            let mut proceed = alive;
            if alive {
                last_progress = now;
                // Whole-chip sleep: skip boundaries where provably nothing
                // happens — no SM due, nothing buffered in the request/reply
                // pipeline, no arrival admissible, no admitted work to feed.
                // Each skipped boundary is one stepping mode executes as a
                // pure no-op apart from the dispatcher's hysteresis clock,
                // which is replayed here against frozen signals.
                if batch.is_empty()
                    && window.is_empty()
                    && reply_window.is_empty()
                    && adaptive.as_ref().is_none_or(|a| !a.has_admitted_pending())
                {
                    let next_sm = wake.next();
                    let next_deferred = deferred.first().map_or(Cycle::MAX, |b| b.arrival);
                    let next_adaptive =
                        adaptive.as_ref().and_then(|a| a.next_arrival()).unwrap_or(Cycle::MAX);
                    let next_due = next_sm.min(next_deferred).min(next_adaptive);
                    if next_due > now + epoch && max_cycles.is_none_or(|m| now < m) {
                        profiler.enter("sleep");
                        // Signals and free slots are frozen while the chip
                        // sleeps (no SM executes, no bank serves), so one
                        // snapshot feeds every replayed boundary.
                        if adaptive.is_some() {
                            signals.sample(sms, shared.as_deref());
                        }
                        let mut slept: u64 = 0;
                        while next_due > now + epoch && max_cycles.is_none_or(|m| now < m) {
                            now += epoch;
                            slept += 1;
                            if let Some(dispatcher) = adaptive.as_mut() {
                                let dealt =
                                    dispatcher.on_boundary(now, &signals.tenants, &signals.free);
                                debug_assert!(
                                    dealt.iter().all(Vec::is_empty),
                                    "sleeping chip must not receive work"
                                );
                            }
                        }
                        skipped_boundaries += slept;
                        sleeps += 1;
                        last_progress = now;
                        if let Some(shared) = shared.as_deref() {
                            // Stepping mode refreshes the snapshot at every
                            // slept boundary; only the last two values can
                            // still be observed (bytes are frozen, so both
                            // are computable after the fact).
                            flush_util = shared.dram_bandwidth_utilization((now - epoch).max(1));
                            boundary_util = shared.dram_bandwidth_utilization(now.max(1));
                        }
                        if let Some(trace) = engine_trace.as_mut() {
                            trace.record(
                                TraceEvent::instant(Track::Engine, "sleep", now, None)
                                    .with_arg(slept)
                                    .engine(),
                            );
                        }
                        profiler.exit();
                    }
                }
            } else {
                let undealt =
                    !deferred.is_empty() || adaptive.as_ref().is_some_and(|a| a.has_work());
                if undealt {
                    // The chip is idle but work remains: keep epochs
                    // ticking — a future arrival, a CTA retirement or a
                    // probe give-up will release it. Jump ahead when a
                    // far-off arrival is the only thing being awaited.
                    proceed = now - last_progress < stall_limit;
                    let next_arrival = deferred
                        .iter()
                        .map(|b| b.arrival)
                        .chain(adaptive.as_ref().and_then(|a| a.next_arrival()))
                        .min();
                    if let Some(arrival) = next_arrival {
                        // Fast-forward only when nothing *admitted* is
                        // pending — admitted work needs the intermediate
                        // boundaries (retire checks, probe give-ups) the
                        // jump would skip; a pure future arrival does not.
                        if adaptive.as_ref().is_none_or(|a| !a.has_admitted_pending())
                            && arrival > now + epoch
                        {
                            // First epoch boundary at or after the arrival,
                            // minus the epoch added below.
                            now = arrival.div_ceil(epoch) * epoch - epoch;
                            last_progress = last_progress.max(now);
                            proceed = true;
                        }
                    }
                }
            }
            if max_cycles.is_some_and(|m| now >= m) {
                proceed = false;
            }
            if !proceed {
                break;
            }
            now += epoch;
            // Serve the previous boundary's batch into the reply window. The
            // halved epoch clamp guarantees every completion lands strictly
            // after `now`, the cycle it may be delivered at.
            Self::serve_batch(
                shared.as_deref_mut(),
                fabric.as_mut(),
                &batch,
                line_size,
                profiler,
                reply_window,
            );
            // Advance the SMs whose next event is due, earliest first; the
            // rest stay parked with frozen clocks and owe their idle settle
            // to whichever later boundary wakes them.
            profiler.enter("pop-advance");
            wake.pop_all_due(now, &mut order);
            if let Some(trace) = engine_trace.as_mut() {
                for &unit in &order {
                    trace.record(
                        TraceEvent::instant(Track::Engine, "pop", now, None)
                            .with_arg(unit as u64)
                            .engine(),
                    );
                }
            }
            for &unit in &order {
                let sm = &mut sms[unit];
                if !sm.is_done() && !sm.hit_cap() {
                    sm.port.set_dram_utilization(boundary_util);
                    sm.run_epoch_event(now);
                }
                let hint = if sm.is_done() || sm.hit_cap() {
                    Cycle::MAX
                } else {
                    sm.next_event_time().unwrap_or(now)
                };
                wake.at[unit] = hint;
            }
            profiler.exit();
            // Release replies whose completion no later-served batch can
            // precede (done ≤ now + epoch: the batch drained at this very
            // boundary completes strictly after that).
            Self::release_replies(
                fabric.as_mut(),
                reply_window,
                now + epoch,
                line_size,
                profiler,
                &mut responses,
            );
            profiler.enter("deliver");
            // A delivered reply wakes its SM at the response cycle.
            for r in &responses {
                sms[r.sm].deliver(r.done, r.event);
                wake.lower(r.sm, r.done);
            }
            // The snapshot the *next* boundary's advancing SMs will read —
            // computed now (after this boundary's serve mutated the bank
            // counters), applied per-SM at wakeup instead of broadcast to
            // every SM every boundary.
            let pending_util = shared.as_deref().map(|s| s.dram_bandwidth_utilization(now.max(1)));
            profiler.exit();
            profiler.enter("collect");
            Self::collect_batch(sms, order.iter().copied(), window, now, xbar_latency, &mut batch);
            profiler.exit();
            profiler.enter("dispatch");
            let dealt = Self::dispatch_boundary_event(
                sms,
                shared.as_deref(),
                adaptive,
                deferred,
                &mut signals,
                now,
                &mut wake,
                boundary_util,
            );
            profiler.exit();
            if dealt {
                last_progress = now;
            }
            flush_util = boundary_util;
            if let Some(util) = pending_util {
                boundary_util = util;
            }
        }
        // Parked SMs still owe their idle settle up to the final executed
        // boundary (stepping mode advances every live SM to every boundary),
        // observing the snapshot that was in effect during that boundary.
        // This must happen before the flush serves below: flush deliveries
        // are not visible to any boundary-time advancement.
        for sm in sms.iter_mut() {
            if !sm.is_done() && !sm.hit_cap() && sm.cycle() < now {
                sm.port.set_dram_utilization(flush_util);
                sm.run_epoch_event(now);
            }
        }
        // Flush: the loop exits with one batch still unserved (plus, after a
        // cap, possibly held window entries and last-epoch buffers). Serve
        // everything so the shared backend's counters cover every request
        // the SMs injected. Reads can only remain here after a cap — a
        // waiting warp keeps its SM alive — so these deliveries land in
        // event queues that are never polled again.
        Self::serve_batch(
            shared.as_deref_mut(),
            fabric.as_mut(),
            &batch,
            line_size,
            profiler,
            reply_window,
        );
        Self::collect_batch(
            sms,
            0..num_sms,
            window,
            Cycle::MAX - xbar_latency,
            xbar_latency,
            &mut batch,
        );
        Self::serve_batch(shared, fabric.as_mut(), &batch, line_size, profiler, reply_window);
        Self::release_replies(
            fabric.as_mut(),
            reply_window,
            Cycle::MAX,
            line_size,
            profiler,
            &mut responses,
        );
        for r in &responses {
            sms[r.sm].deliver(r.done, r.event);
        }

        if let Some(dispatcher) = &mut self.adaptive {
            self.dispatch_log = dispatcher.take_log();
        }
        self.skipped_boundaries = skipped_boundaries;
        self.sleeps = sleeps;
        // The chip clock is the slowest SM's clock, not the epoch-rounded
        // loop counter (an SM finishing mid-epoch stops its clock there).
        self.cycle = 0;
        for sm in &mut self.sms {
            sm.finalize_stats();
            self.cycle = self.cycle.max(sm.cycle());
        }
    }

    /// Drains the buffered requests of the SMs in `advanced` straight into
    /// the reorder window, sorts the window by `(arrive, SM, seq)`, and
    /// moves the service batch into `batch` (replacing its contents):
    /// requests arriving at or before the merge horizon (`now +
    /// interconnect latency`) can no longer be preceded by any future
    /// request (the next epoch issues at cycle ≥ `now`, so its arrivals are
    /// strictly later), later arrivals stay held. The ports, the window and
    /// `batch` all keep their capacity. The window is
    /// mostly sorted already (its held tail, then each SM's requests in
    /// issue order), which the stable sort's run detection exploits; its
    /// scratch buffer is the one allocation a busy boundary still makes.
    ///
    /// Only SMs that advanced this boundary need draining. A parked SM
    /// cannot hold buffered requests — its buffer was drained at the
    /// boundary it last executed and a held stretch issues nothing — so
    /// skipping it drains exactly what a walk over every SM would.
    fn collect_batch(
        sms: &mut [Sm],
        advanced: impl IntoIterator<Item = usize>,
        window: &mut Vec<(usize, MemRequest)>,
        now: Cycle,
        xbar_latency: Cycle,
        batch: &mut Vec<(usize, MemRequest)>,
    ) {
        for i in advanced {
            sms[i].port.drain_into(i, window);
        }
        window.sort_by_key(|&(sm, r)| (r.arrive, sm, r.seq));
        let horizon = now.saturating_add(xbar_latency);
        let split = window.partition_point(|&(_, r)| r.arrive <= horizon);
        batch.clear();
        batch.extend(window.drain(..split));
    }

    /// Serves one batch in one pass and appends the raw read completions
    /// (writes produce no reply) to the reply reorder window `completions`.
    /// In batch order, i.e. `(arrival, SM, issue order)`, each request
    /// charges the chip-wide request fabric at its port-arrival cycle and is
    /// served by its owning L2 bank at the cycle the fabric delivers it. The
    /// fabric and the banks share no state, so the fabric sees every request
    /// in arrival order and each bank serves its requests in the order they
    /// reach it. A single-SM chip (private synchronous port, `shared ==
    /// None`, no fabric) has nothing to serve.
    fn serve_batch(
        shared: Option<&mut BankedMemorySystem>,
        fabric: Option<&mut CrossbarFabric>,
        batch: &[(usize, MemRequest)],
        line_size: u64,
        profiler: &mut PhaseProfiler,
        completions: &mut Vec<RawCompletion>,
    ) {
        let (Some(shared), Some(fabric)) = (shared, fabric) else { return };
        if batch.is_empty() {
            return;
        }
        profiler.enter("serve-events");
        for &(sm, r) in batch {
            let at_l2 = fabric.request_transfer(line_size, r.arrive, r.tenant);
            let bank = shared.bank_of(r.block);
            let done = shared.serve(bank, r.block, r.wid, r.tenant, r.is_write, r.bypass, at_l2);
            // Reads produce replies; they enter the reply reorder window
            // rather than the fabric directly, so one batch's slow DRAM
            // stragglers never charge phantom queueing against the next
            // batch's fast completions.
            if !r.is_write {
                completions.push(RawCompletion {
                    sm,
                    seq: r.seq,
                    done,
                    tenant: r.tenant,
                    event: r.event,
                });
            }
        }
        profiler.exit();
    }

    /// Releases every reply in the reply reorder window completing at or
    /// before `horizon` into `out` (replacing its contents) — replies no
    /// later-served batch can precede, so the reply fabric sees a globally
    /// non-decreasing completion stream across epochs. Released replies
    /// charge the chip-wide reply budget in `(completion, SM, seq)` order.
    ///
    /// The due replies are moved to the front of the window and only they
    /// are sorted; the held rest stays unordered until a later boundary
    /// releases it. The keys are unique, so the unstable sort gives the one
    /// order a full stable sort would.
    fn release_replies(
        fabric: Option<&mut CrossbarFabric>,
        reply_window: &mut Vec<RawCompletion>,
        horizon: Cycle,
        line_size: u64,
        profiler: &mut PhaseProfiler,
        out: &mut Vec<ReadyResponse>,
    ) {
        out.clear();
        let Some(fabric) = fabric else { return };
        if reply_window.is_empty() {
            return;
        }
        profiler.enter("fabric-reply");
        let mut due = 0;
        for i in 0..reply_window.len() {
            if reply_window[i].done <= horizon {
                if i != due {
                    reply_window.swap(i, due);
                }
                due += 1;
            }
        }
        reply_window[..due].sort_unstable_by_key(|c| (c.done, c.sm, c.seq));
        out.extend(reply_window.drain(..due).filter_map(|c| {
            let done = fabric.reply_transfer(line_size, c.done, c.tenant);
            c.event.map(|event| ReadyResponse { sm: c.sm, done, event })
        }));
        profiler.exit();
    }

    /// Epoch-boundary dispatch: appends deferred arrival batches whose cycle
    /// has come and lets the adaptive dispatcher admit, decide and feed.
    /// Every SM that receives work is dealt it through [`Gpu::deal_event`].
    /// Returns whether any work reached an SM.
    #[allow(clippy::too_many_arguments)]
    fn dispatch_boundary_event(
        sms: &mut [Sm],
        shared: Option<&BankedMemorySystem>,
        adaptive: &mut Option<AdaptiveDispatcher>,
        deferred: &mut Vec<DeferredBatch>,
        signals: &mut ChipSignals,
        now: Cycle,
        wake: &mut WakeClock,
        boundary_util: f64,
    ) -> bool {
        let mut progressed = false;
        while deferred.first().is_some_and(|b| b.arrival <= now) {
            let mut batch = deferred.remove(0);
            for (sm, work) in batch.per_sm.iter_mut().enumerate() {
                if !work.is_empty() {
                    Self::deal_event(&mut sms[sm], sm, work, now, wake, boundary_util);
                    progressed = true;
                }
            }
        }
        if let Some(dispatcher) = adaptive {
            signals.sample(sms, shared);
            let fed = dispatcher.on_boundary(now, &signals.tenants, &signals.free);
            for (sm, work) in fed.iter_mut().enumerate() {
                if !work.is_empty() {
                    Self::deal_event(&mut sms[sm], sm, work, now, wake, boundary_util);
                    progressed = true;
                }
            }
        }
        progressed
    }

    /// Hands a dealt work batch to SM `unit`, emptying `work`: settle any
    /// parked lag first (its lag is a stretch the SM provably holds still
    /// on, and new CTAs must launch *after* it is accounted, matching
    /// stepping mode's advance-then-dispatch boundary order), then push the
    /// work and wake the SM at the boundary.
    fn deal_event(
        sm: &mut Sm,
        unit: usize,
        work: &mut Vec<crate::dispatch::CtaWork>,
        now: Cycle,
        wake: &mut WakeClock,
        boundary_util: f64,
    ) {
        if !sm.is_done() && !sm.hit_cap() && sm.cycle() < now {
            sm.port.set_dram_utilization(boundary_util);
            sm.run_epoch_event(now);
        }
        sm.push_work(work, now);
        wake.lower(unit, now);
    }

    /// Consumes the engine and assembles the chip-level [`SimResult`]:
    /// per-SM statistics plus the [`SmStats::reduce`] aggregate, with the
    /// shared backend's L2/DRAM counters substituted for the (empty) per-SM
    /// ones on multi-SM chips, and one [`TenantResult`] per kernel stream
    /// (per-SM tenant counters merged, L2/DRAM attribution read back from
    /// whichever memory system served the run).
    pub fn into_result(mut self) -> SimResult {
        for sm in &mut self.sms {
            sm.finalize_stats();
        }
        let num_sms = self.sms.len();
        let num_tenants = self.tenant_names.len();
        let mut per_sm: Vec<SmStats> = Vec::with_capacity(num_sms);
        let mut interference = InterferenceMatrix::new(self.config.max_warps_per_sm);
        let mut scheduler_metrics = SchedulerMetrics::default();
        let mut capped = false;
        let mut cycles: Cycle = 0;
        let mut tenant_totals: Vec<TenantStats> =
            vec![TenantStats { done: true, ..TenantStats::default() }; num_tenants];
        let mut tenant_mem: Vec<TenantMemStats> = Vec::new();
        let mut interconnect = CrossbarStats::default();
        for sm in &self.sms {
            per_sm.push(sm.stats().clone());
            interference.absorb(sm.interference_matrix());
            scheduler_metrics.merge(&sm.scheduler().metrics());
            capped |= !sm.is_done();
            cycles = cycles.max(sm.cycle());
            for (t, entry) in sm.tenant_stats().iter().enumerate() {
                if t < num_tenants {
                    tenant_totals[t].merge(entry);
                }
            }
            if let Some(table) = sm.port.partition_tenant_stats() {
                merge_tenant_stats(&mut tenant_mem, table);
            }
            interconnect.bytes_transferred += sm.interconnect.bytes_transferred();
            interconnect.queueing_cycles += sm.interconnect.queueing_cycles();
        }
        if let Some(shared) = &self.shared {
            for table in shared.tenant_stats_per_bank() {
                merge_tenant_stats(&mut tenant_mem, table);
            }
        }
        tenant_mem.resize(num_tenants.max(tenant_mem.len()), TenantMemStats::default());
        // CTAs the adaptive dispatcher never managed to deal (run ended by a
        // cap first) mean the tenant did not finish, even though every SM
        // completed what it was handed.
        let undealt: Vec<usize> = (0..num_tenants)
            .map(|t| self.adaptive.as_ref().map_or(0, |a| a.pending_ctas(t as TenantId)))
            .collect();
        let fabric = self.fabric.as_ref().map(CrossbarFabric::stats).unwrap_or_default();
        let per_tenant: Vec<TenantResult> = tenant_totals
            .iter()
            .enumerate()
            .map(|(t, totals)| TenantResult {
                tenant: t as TenantId,
                kernel: self.tenant_names[t].clone(),
                qos: "batch".to_string(),
                instructions: totals.instructions,
                finish_cycle: totals.finish_cycle,
                capped: !totals.done || undealt[t] > 0,
                l1d_accesses: totals.l1d_accesses,
                l1d_hits: totals.l1d_hits,
                xbar_bytes: totals.xbar_bytes,
                fabric_request_bytes: fabric.request.tenant_bytes(t as TenantId),
                fabric_reply_bytes: fabric.reply.tenant_bytes(t as TenantId),
                mem: tenant_mem[t],
            })
            .collect();
        let time_series = TimeSeries::merge_sorted(self.sms.iter().map(Sm::time_series));
        let mut stats = SmStats::reduce(&per_sm);
        stats.cycles = cycles;
        if let Some(shared) = &self.shared {
            let p = shared.stats();
            stats.l2 = p.l2;
            stats.dram = p.dram;
        }
        let capped = capped || undealt.iter().any(|&u| u > 0);
        SimResult {
            schema_version: crate::simulator::SCHEMA_VERSION,
            backend: self.backend.to_string(),
            scheduler: self.scheduler_name,
            kernel: self.kernel_name,
            policy: self.policy.label().to_string(),
            cycles,
            stats,
            time_series,
            interference,
            scheduler_metrics,
            capped,
            num_sms,
            per_sm,
            per_tenant,
            interconnect,
            fabric,
            dispatch_log: self.dispatch_log,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{ClosureKernel, Kernel, KernelInfo};
    use crate::scheduler::GtoScheduler;
    use crate::trace::{VecProgram, WarpOp};
    use proptest::prelude::*;
    use std::sync::Arc;

    fn kernel(ctas: usize, ops: usize) -> Arc<dyn Kernel> {
        let info = KernelInfo {
            name: "gpu-unit".into(),
            num_ctas: ctas,
            warps_per_cta: 2,
            shared_mem_per_cta: 0,
        };
        Arc::new(ClosureKernel::new(info, move |cta, w| {
            let ops = (0..ops)
                .map(|i| {
                    WarpOp::coalesced_load((cta as u64 * 1009 + w as u64 * 97 + i as u64) * 128)
                })
                .collect();
            Box::new(VecProgram::new(ops))
        }))
    }

    fn units(n: usize) -> Vec<SmUnit> {
        (0..n).map(|_| (Box::new(GtoScheduler::new()) as Box<dyn WarpScheduler>, None)).collect()
    }

    /// A chip running the single `kernel`, one unit per SM.
    fn chip(config: GpuConfig, kernel: Arc<dyn Kernel>, units: Vec<SmUnit>) -> Gpu {
        let stream = KernelStream::new(0, kernel);
        Gpu::with_streams(config, vec![stream], DispatchPolicy::Exclusive, units)
    }

    #[test]
    fn two_streams_share_the_chip_and_split_attribution() {
        let streams =
            vec![KernelStream::new(0, kernel(2, 10)), KernelStream::new(1, kernel(2, 10))];
        let mut gpu = Gpu::with_streams(
            GpuConfig::gtx480(),
            streams,
            DispatchPolicy::SharedRoundRobin,
            units(2),
        );
        gpu.run(BackendKind::Event);
        let res = gpu.into_result();
        assert_eq!(res.per_tenant.len(), 2);
        assert_eq!(res.kernel, "gpu-unit+gpu-unit");
        // Both kernels executed all their instructions and the per-tenant
        // split covers the chip totals exactly.
        for t in &res.per_tenant {
            assert_eq!(t.instructions, 2 * 2 * 10);
            assert!(!t.capped);
            assert!(t.finish_cycle > 0);
        }
        let inst: u64 = res.per_tenant.iter().map(|t| t.instructions).sum();
        assert_eq!(inst, res.stats.instructions);
        let l1: u64 = res.per_tenant.iter().map(|t| t.l1d_accesses).sum();
        assert_eq!(l1, res.stats.l1d.accesses());
        let l2: u64 = res.per_tenant.iter().map(|t| t.mem.l2_accesses).sum();
        assert_eq!(l2, res.stats.l2.accesses());
    }

    #[test]
    fn multi_sm_runs_all_instructions() {
        let mut gpu = chip(GpuConfig::gtx480(), kernel(4, 10), units(2));
        assert_eq!(gpu.sms.len(), 2);
        gpu.run(BackendKind::Event);
        let res = gpu.into_result();
        assert!(!res.capped);
        assert_eq!(res.num_sms, 2);
        assert_eq!(res.per_sm.len(), 2);
        // 4 CTAs x 2 warps x 10 loads, split across both SMs.
        assert_eq!(res.stats.instructions, 4 * 2 * 10);
        assert_eq!(res.per_sm.iter().map(|s| s.instructions).sum::<u64>(), 80);
        assert!(res.per_sm.iter().all(|s| s.instructions == 40));
        // Chip L2 saw traffic through the shared backend, carried over the
        // SMs' crossbar ports.
        assert!(res.stats.l2.accesses() > 0);
        assert!(res.interconnect.bytes_transferred > 0);
    }

    #[test]
    fn multi_sm_is_deterministic() {
        let run = || {
            let mut gpu = chip(GpuConfig::gtx480(), kernel(8, 25), units(4));
            gpu.run(BackendKind::Event);
            gpu.into_result()
        };
        let a = run();
        let b = run();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.per_sm, b.per_sm);
        assert_eq!(a.time_series, b.time_series);
    }

    #[test]
    fn late_arrival_is_admitted_at_an_epoch_boundary() {
        let streams = vec![
            KernelStream::new(0, kernel(3, 12)),
            KernelStream::new_at(1, kernel(3, 12), 2_000),
        ];
        let mut gpu = Gpu::with_streams(
            GpuConfig::gtx480(),
            streams,
            DispatchPolicy::SharedRoundRobin,
            units(2),
        );
        gpu.run(BackendKind::Event);
        let res = gpu.into_result();
        assert!(!res.capped);
        // Both grids executed fully; the late tenant finished after arriving.
        assert_eq!(res.stats.instructions, 2 * (3 * 2 * 12));
        assert!(res.per_tenant[1].finish_cycle >= 2_000);
        assert!(res.per_tenant[0].finish_cycle < res.per_tenant[1].finish_cycle);
    }

    #[test]
    fn far_future_arrival_fast_forwards_instead_of_spinning() {
        let streams = vec![
            KernelStream::new(0, kernel(1, 4)),
            KernelStream::new_at(1, kernel(1, 4), 1_000_000),
        ];
        let mut gpu = Gpu::with_streams(
            GpuConfig::gtx480(),
            streams,
            DispatchPolicy::SharedRoundRobin,
            units(2),
        );
        gpu.run(BackendKind::Event);
        let res = gpu.into_result();
        assert!(!res.capped);
        assert_eq!(res.stats.instructions, 2 * (2 * 4));
        assert!(res.cycles >= 1_000_000, "chip clock covers the idle gap");
        assert!(res.cycles < 1_100_000, "and the gap was skipped, not simulated");
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]
        /// A single-tenant chip run under the adaptive policy is bit-identical
        /// to `Exclusive`: with nothing to arbitrate the dispatcher must
        /// vanish entirely.
        #[test]
        fn single_tenant_interference_aware_matches_exclusive(
            ctas in 1usize..8,
            ops in 1usize..16,
            sms in 1usize..6,
        ) {
            let run = |policy| {
                let stream = KernelStream::new(0, kernel(ctas, ops));
                let mut gpu =
                    Gpu::with_streams(GpuConfig::gtx480(), vec![stream], policy, units(sms));
                gpu.run(BackendKind::Event);
                gpu.into_result()
            };
            let a = run(DispatchPolicy::Exclusive);
            let b = run(DispatchPolicy::InterferenceAware);
            prop_assert_eq!(a.cycles, b.cycles);
            prop_assert_eq!(a.stats, b.stats);
            prop_assert_eq!(a.per_sm, b.per_sm);
            prop_assert_eq!(a.per_tenant, b.per_tenant);
            prop_assert_eq!(a.time_series, b.time_series);
            prop_assert_eq!(a.dispatch_log, b.dispatch_log);
        }
    }

    #[test]
    fn more_sms_do_not_slow_the_chip() {
        let cycles = |n: usize| {
            let mut gpu = chip(GpuConfig::gtx480(), kernel(8, 20), units(n));
            gpu.run(BackendKind::Event);
            gpu.into_result().cycles
        };
        assert!(cycles(2) <= cycles(1));
    }

    /// A streaming kernel whose every load misses everywhere, keeping the
    /// fabric and every bank of a several-SM chip busy.
    fn streaming_kernel(ctas: usize, ops: usize) -> Arc<dyn Kernel> {
        let info = KernelInfo {
            name: "stream".into(),
            num_ctas: ctas,
            warps_per_cta: 8,
            shared_mem_per_cta: 0,
        };
        Arc::new(ClosureKernel::new(info, move |cta, w| {
            // Globally unique blocks: every load misses everywhere.
            let ops = (0..ops)
                .map(|i| {
                    WarpOp::coalesced_load(
                        (cta as u64 * 65_536 + w as u64 * 4_096 + i as u64) * 128,
                    )
                })
                .collect();
            Box::new(VecProgram::new(ops))
        }))
    }

    #[test]
    fn fabric_accounts_every_downstream_request_in_both_directions() {
        let mut gpu = chip(GpuConfig::gtx480(), streaming_kernel(8, 30), units(4));
        gpu.run(BackendKind::Event);
        let res = gpu.into_result();
        assert!(!res.capped);
        // Every injection-port transfer pairs with exactly one downstream
        // request, and every request crosses the shared request fabric.
        assert_eq!(res.fabric.request.bytes_transferred, res.interconnect.bytes_transferred);
        // A pure-load run replies to every request.
        assert_eq!(res.fabric.reply.bytes_transferred, res.fabric.request.bytes_transferred);
        // Per-tenant fabric bytes sum to the direction totals and surface in
        // the tenant breakdown.
        assert_eq!(
            res.fabric.request.tenant_bytes.iter().sum::<u64>(),
            res.fabric.request.bytes_transferred
        );
        assert_eq!(res.per_tenant[0].fabric_request_bytes, res.fabric.request.bytes_transferred);
        assert_eq!(res.per_tenant[0].fabric_reply_bytes, res.fabric.reply.bytes_transferred);
        // Eight warps per SM streaming misses through a 480 B/cycle budget:
        // the fabric must have made someone wait.
        assert!(
            res.fabric.request.queueing_cycles + res.fabric.reply.queueing_cycles > 0,
            "expected shared-fabric contention on a streaming co-run"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]
        /// Banked service is identical in both timing modes: the fully
        /// serialised `SimResult` of a streaming chip matches byte for byte
        /// for arbitrary bank counts.
        #[test]
        fn both_modes_agree_for_every_bank_count(
            banks in 1usize..9,
            sms in 2usize..7,
            ctas in 2usize..8,
            ops in 8usize..32,
        ) {
            let run = |kind: BackendKind| {
                let config = GpuConfig::gtx480().with_l2_banks(banks);
                let mut gpu = chip(config, streaming_kernel(ctas, ops), units(sms));
                gpu.run(kind);
                normalized_json(gpu)
            };
            prop_assert_eq!(run(BackendKind::Epoch), run(BackendKind::Event));
        }
    }

    /// Serialises a finished chip's result with the backend label blanked,
    /// so stepping and event runs can be compared field for field.
    fn normalized_json(gpu: Gpu) -> String {
        let mut res = gpu.into_result();
        res.backend = String::new();
        serde_json::to_string(&res).expect("serialise")
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]
        /// The event mode is bit-identical to stepping every cycle across
        /// chip widths, dispatch policies, and dynamic arrivals — every stat,
        /// time-series point, and dispatch-log entry must match exactly.
        #[test]
        fn event_backend_matches_epoch_oracle(
            sms in 1usize..6,
            ctas in 1usize..6,
            ops in 1usize..16,
            arrival in 0u64..3_000,
            policy_idx in 0usize..3,
        ) {
            let policy = [
                DispatchPolicy::SpatialPartition,
                DispatchPolicy::SharedRoundRobin,
                DispatchPolicy::InterferenceAware,
            ][policy_idx];
            let run = |kind: BackendKind| {
                let streams = vec![
                    KernelStream::new(0, kernel(ctas, ops)),
                    KernelStream::new_at(1, kernel(ctas, ops), arrival),
                ];
                let mut gpu =
                    Gpu::with_streams(GpuConfig::gtx480(), streams, policy, units(sms));
                gpu.run(kind);
                normalized_json(gpu)
            };
            prop_assert_eq!(run(BackendKind::Epoch), run(BackendKind::Event));
        }
    }

    #[test]
    fn event_backend_matches_epoch_on_streaming_chip() {
        let run = |kind: BackendKind| {
            let mut gpu = chip(GpuConfig::gtx480(), streaming_kernel(8, 30), units(4));
            gpu.run(kind);
            normalized_json(gpu)
        };
        assert_eq!(run(BackendKind::Epoch), run(BackendKind::Event));
    }

    #[test]
    fn event_backend_fast_forwards_far_arrivals_too() {
        let run = |kind: BackendKind| {
            let streams = vec![
                KernelStream::new(0, kernel(1, 4)),
                KernelStream::new_at(1, kernel(1, 4), 1_000_000),
            ];
            let mut gpu = Gpu::with_streams(
                GpuConfig::gtx480(),
                streams,
                DispatchPolicy::SharedRoundRobin,
                units(2),
            );
            gpu.run(kind);
            gpu.into_result()
        };
        let epoch = run(BackendKind::Epoch);
        let event = run(BackendKind::Event);
        assert_eq!(event.backend, "event");
        assert_eq!(epoch.cycles, event.cycles);
        assert_eq!(epoch.stats, event.stats);
        assert!(event.cycles >= 1_000_000 && event.cycles < 1_100_000);
    }

    #[test]
    fn observability_never_changes_results_and_traces_identically_across_backends() {
        let run = |kind: BackendKind, obs: ObsLevel| {
            let streams = vec![
                KernelStream::new(0, kernel(3, 12)),
                KernelStream::new_at(1, kernel(3, 12), 500),
            ];
            let mut gpu = Gpu::with_streams(
                GpuConfig::gtx480(),
                streams,
                DispatchPolicy::InterferenceAware,
                units(4),
            );
            gpu.set_obs(obs);
            gpu.run(kind);
            let report = gpu.take_obs();
            (normalized_json(gpu), report)
        };
        let (plain, off) = run(BackendKind::Epoch, ObsLevel::Off);
        assert!(off.events.is_empty());
        let (epoch, a) = run(BackendKind::Epoch, ObsLevel::Full);
        let (event, b) = run(BackendKind::Event, ObsLevel::Full);
        // Collection is passive: the simulated outcome is byte-identical
        // with observability off, on, and in both timing modes.
        assert_eq!(plain, epoch);
        assert_eq!(epoch, event);
        // And the canonical sim-time trace itself is mode-invariant.
        assert_eq!(a.chrome_trace_json(), b.chrome_trace_json());
        assert_eq!(a.metrics_json(), b.metrics_json());
        assert!(!a.events.is_empty());
        assert_eq!(a.dropped_events, 0);
        // Only the event mode skips idle stretches; its engine-category
        // `idle-skip` spans stay out of the canonical export but surface in
        // the raw event list.
        assert!(b.events.iter().any(|e| e.name == "idle-skip"));
        assert!(!a.events.iter().any(|e| e.name == "idle-skip"));
        // Wall-clock profiling was active and saw the service pipeline.
        assert!(a.profile.is_enabled());
        assert!(a.profile.stat("serve-events").is_some());
    }

    #[test]
    fn exclusive_serial_queue_is_backend_agnostic() {
        let req = crate::SimRequest::new().stream(kernel(3, 12)).stream_at(kernel(3, 12), 5_000);
        let sim = crate::Simulator::new(GpuConfig::gtx480().with_num_sms(3));
        let build = |_: usize| (Box::new(GtoScheduler::new()) as Box<dyn WarpScheduler>, None);
        let epoch = sim.execute(req.clone().backend(BackendKind::Epoch), build);
        let mut event = sim.execute(req.backend(BackendKind::Event), build);
        assert_eq!(event.backend, "event");
        event.backend = epoch.backend.clone();
        assert_eq!(serde_json::to_string(&epoch).unwrap(), serde_json::to_string(&event).unwrap());
    }

    /// Several `Exclusive` streams run back to back, one chip each; a single
    /// chip cannot hold them.
    #[test]
    #[should_panic(expected = "concurrent")]
    fn one_chip_rejects_two_exclusive_streams() {
        let streams = vec![KernelStream::new(0, kernel(2, 4)), KernelStream::new(1, kernel(2, 4))];
        Gpu::with_streams(GpuConfig::gtx480(), streams, DispatchPolicy::Exclusive, units(2));
    }

    /// Wake times that hit the edges: 0, `Cycle::MAX` (parked), small
    /// cycles that collide often, and anything else, a quarter each.
    struct WakeTime;

    impl Strategy for WakeTime {
        type Value = Cycle;

        fn sample(&self, rng: &mut proptest::TestRng) -> Cycle {
            let bits = rng.next_u64();
            match bits % 4 {
                0 => 0,
                1 => Cycle::MAX,
                2 => (bits >> 2) % 64,
                _ => rng.next_u64(),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// The flat wake clock behaves exactly like a `BTreeSet` of
        /// `(time, unit)` pairs that leaves parked units out: random
        /// `set` / `lower` / `pop_all_due` / `next` sequences over 1–130
        /// units give the same `next` minimum and pop the same units,
        /// earliest first and the lowest unit on a tie, and `pop_all_due`
        /// never returns a unit due after `now` or parked at `Cycle::MAX`.
        /// A final drain pops every unit still waiting in `(time, unit)`
        /// order.
        #[test]
        fn wake_clock_matches_an_ordered_set_model(
            units in 1usize..131,
            start in WakeTime,
            ops in proptest::collection::vec((0u8..4, any::<usize>(), WakeTime), 1..400),
        ) {
            let mut clock = WakeClock::new(units, start);
            let mut popped = Vec::new();
            let mut model = std::collections::BTreeSet::new();
            let mut at = vec![start; units];
            if start != Cycle::MAX {
                model.extend((0..units).map(|u| (start, u)));
            }
            let set = |model: &mut std::collections::BTreeSet<(Cycle, usize)>,
                       at: &mut [Cycle],
                       unit: usize,
                       t: Cycle| {
                model.remove(&(at[unit], unit));
                at[unit] = t;
                if t != Cycle::MAX {
                    model.insert((t, unit));
                }
            };
            for (step, &(kind, unit, t)) in ops.iter().enumerate() {
                let unit = unit % units;
                match kind {
                    0 => {
                        clock.at[unit] = t;
                        set(&mut model, &mut at, unit, t);
                    }
                    1 => {
                        clock.lower(unit, t);
                        let lowered = at[unit].min(t);
                        set(&mut model, &mut at, unit, lowered);
                    }
                    2 => {
                        // `at` equals the clock's slots before the pop.
                        clock.pop_all_due(t, &mut popped);
                        for &u in &popped {
                            prop_assert!(at[u] <= t && at[u] != Cycle::MAX, "popped {}", at[u]);
                        }
                        let mut want = Vec::new();
                        while let Some(&(_, u)) = model.first().filter(|&&(due, _)| due <= t) {
                            want.push(u);
                            set(&mut model, &mut at, u, Cycle::MAX);
                        }
                        prop_assert_eq!(&popped, &want, "pop_all_due({}) at step {}", t, step);
                    }
                    _ => {}
                }
                let want_next = model.first().map_or(Cycle::MAX, |&(due, _)| due);
                prop_assert_eq!(clock.next(), want_next, "next at step {}", step);
                prop_assert_eq!(&clock.at, &at);
            }
            let waiting: Vec<(Cycle, usize)> = model.iter().copied().collect();
            clock.pop_all_due(Cycle::MAX, &mut popped);
            prop_assert!(waiting.windows(2).all(|w| w[0] < w[1]), "model leaves (time, unit) order");
            prop_assert_eq!(popped, waiting.iter().map(|&(_, u)| u).collect::<Vec<_>>());
            prop_assert_eq!(clock.next(), Cycle::MAX);
        }
    }
}
