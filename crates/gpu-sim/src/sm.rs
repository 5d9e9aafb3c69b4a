//! The streaming-multiprocessor (SM) model.
//!
//! One [`Sm`] owns the warp slots, the L1D, the shared-memory scratchpad and
//! its SMMT, the MSHR file, the interconnect slice and the memory partition,
//! plus the pluggable warp scheduler and (optionally) a redirect cache. Each
//! call to [`Sm::step`] advances the model by one cycle:
//!
//! 1. memory responses that completed by this cycle wake their warps and fill
//!    the L1D or the redirect cache,
//! 2. CTA-wide barriers whose warps all arrived are released,
//! 3. the scheduler picks one ready, non-throttled warp and its next
//!    operation is issued (compute, barrier, shared-memory access, or global
//!    memory access routed to the L1D, the redirect cache, or the bypass path
//!    according to the scheduler's routing decision),
//! 4. statistics and the instruction-indexed time series are updated.
//!
//! The SM reports every L1D / redirect-cache access to the scheduler as a
//! [`CacheEvent`] so locality- and interference-aware policies (CCWS, CIAO)
//! can maintain their Victim Tag Arrays without the SM knowing about them.
//!
//! The event-driven entry points ([`Sm::run_event`], [`Sm::run_epoch_event`],
//! [`Sm::next_event_time`]) produce the same state as stepping every cycle
//! but fast-forward over the stretches on which the SM *holds still*, found
//! by one function (`Sm::skip_target`):
//!
//! - *idle* stretches, on which no warp is *offered* to the scheduler:
//!   either no warp is ready, or every ready warp is held back by the
//!   scheduler's throttle set;
//! - *replay* stretches, on which one warp retries a global load that the
//!   full MSHR file keeps turning away, and the scheduler picks it again.
//!
//! Either ends at the next response or warp wakeup. When some warp is
//! ready, the scheduler's [`WarpScheduler::hold_horizon`] bounds it too:
//! the number of cycles before its pick, throttle set or `on_issue` could
//! change. CCWS's horizon is the first empty pick whose score decay moves
//! its throttle set; statPCAL's is the first cycle whose DRAM-utilisation
//! sample flips its bypass throttle. Both kinds of stretch are replayed in
//! closed form through [`WarpScheduler::on_idle_cycles`].
//!
//! The chip engine can put an SM in *stepping* mode, which turns the skips
//! off: the same entry points then step every cycle, the reference the
//! skips are tested against.
//!
//! Downstream memory is reached through a [`MemoryPort`]: a private L2+DRAM
//! partition when the SM is a chip of its own, or a deferred port into the
//! chip's pipelined shared backend (reorder window → request fabric → L2/DRAM
//! banks → reply fabric) when the SM is one of many driven by the
//! chip engine ([`crate::gpu`]) — which then advances the SM from boundary to
//! boundary via [`Sm::run_epoch_event`], drains the port at each boundary,
//! and delivers the pipeline's responses with [`Sm::deliver`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use crate::coalescer::coalesce;
use crate::config::GpuConfig;
use crate::dispatch::CtaWork;
use crate::gpu::{MemRequest, MemoryPort};
use crate::kernel::Kernel;
use crate::redirect::{RedirectCache, RedirectLookup};
use crate::scheduler::{
    CacheEvent, CacheEventOutcome, CacheKind, MemRoute, SchedulerCtx, WarpScheduler,
};
use crate::stats::{
    tenant_slot, InterferenceMatrix, SmStats, TenantStats, TimeSeries, TimeSeriesPoint,
};
use crate::trace::{MemSpace, WarpOp};
use crate::warp::{Warp, WarpState};
use gpu_mem::cache::SetAssocCache;
use gpu_mem::interconnect::Interconnect;
use gpu_mem::mshr::{FillTarget, Mshr};
use gpu_mem::shared_memory::SharedMemory;
use gpu_mem::smmt::Smmt;
use gpu_mem::{Addr, CtaId, Cycle, TenantId, WarpId};
use sim_obs::{TraceEvent, TraceRecorder, Tracer, Track};

/// A memory-system completion event scheduled for a future cycle (either
/// computed synchronously by a private port or delivered by the chip engine
/// at an epoch boundary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ResponseEvent {
    /// An outstanding MSHR miss for this block completed.
    MshrFill(Addr),
    /// A bypassed request for this warp completed (no MSHR entry).
    WakeWarp(WarpId),
}

/// A CTA currently resident on the SM. `key` is the SM-local launch ordinal
/// used as the SMMT allocation key — global CTA ids are not unique across
/// co-running kernels, launch ordinals are.
#[derive(Debug, Clone)]
struct ResidentCta {
    key: CtaId,
    tenant: TenantId,
    shared_mem: u32,
    warp_slots: Vec<usize>,
    launch_cycle: Cycle,
}

/// Snapshot used to compute per-interval time-series values.
#[derive(Debug, Clone, Copy, Default)]
struct SampleSnapshot {
    instructions: u64,
    cycle: Cycle,
    interference: u64,
    l1d_accesses: u64,
    l1d_hits: u64,
}

/// The streaming multiprocessor.
pub struct Sm {
    config: GpuConfig,
    scheduler: Box<dyn WarpScheduler>,
    redirect: Option<Box<dyn RedirectCache>>,

    l1d: SetAssocCache,
    shared_mem: SharedMemory,
    smmt: Smmt,
    mshr: Mshr,
    interconnect: Interconnect,
    port: MemoryPort,

    warps: Vec<Warp>,
    resident: Vec<ResidentCta>,
    work: Vec<CtaWork>,
    next_work: usize,
    launch_ordinal: u32,
    launch_seq: u64,
    tenant_of_slot: Vec<TenantId>,

    pending: BinaryHeap<Reverse<(Cycle, ResponseEvent)>>,
    cycle: Cycle,
    stats: SmStats,
    tenants: Vec<TenantStats>,
    time_series: TimeSeries,
    interference: InterferenceMatrix,
    snapshot: SampleSnapshot,
    ready_scratch: Vec<usize>,
    /// True when the last stepped cycle had ready warps but issued nothing
    /// because all of them were throttled. Only then does the idle-skip
    /// test consult the scheduler's throttle set, so policies that never
    /// throttle pay nothing for it.
    throttle_only_last: bool,
    /// The warp whose global load the full MSHR file turned away on the
    /// last stepped cycle. Only then does `run_epoch_event` look for a
    /// replay stretch to skip.
    replayed: Option<usize>,
    /// Steps every cycle: neither skip fires, so the SM is never parked by
    /// the chip engine either.
    stepping: bool,

    /// Sim-time trace sink (`None` below the full obs level — the hot path
    /// then pays one branch per would-be event).
    trace: Option<TraceRecorder>,
    /// The SM's chip-level index, used as its trace track id.
    trace_unit: u32,
    /// Start of the current contiguous issuing stretch, if one is open.
    busy_since: Option<Cycle>,
}

impl Sm {
    /// Builds an SM executing `kernel` under `scheduler`, with an optional
    /// redirect cache installed on the global-memory datapath. The SM owns a
    /// private memory partition.
    pub fn new(
        config: GpuConfig,
        kernel: Box<dyn Kernel>,
        scheduler: Box<dyn WarpScheduler>,
        redirect: Option<Box<dyn RedirectCache>>,
    ) -> Self {
        let interconnect =
            Interconnect::new(config.interconnect_latency, config.interconnect_bytes_per_cycle);
        let port = MemoryPort::private(config.partition.clone());
        let work = Self::work_of(Arc::from(kernel), 0);
        Self::with_parts(config, work, scheduler, redirect, interconnect, port)
    }

    /// Expands `kernel`'s whole grid into the work list of one SM running it
    /// alone, attributed to `tenant` (the single-SM view of
    /// [`crate::dispatch`]'s per-stream expansion).
    pub fn work_of(kernel: Arc<dyn Kernel>, tenant: TenantId) -> Vec<CtaWork> {
        crate::dispatch::stream_work(&crate::dispatch::KernelStream::new(tenant, kernel))
    }

    /// Builds an SM from explicit interconnect and memory-port parts — the
    /// constructor the multi-SM chip engine ([`crate::gpu`]) uses to hand each
    /// SM its crossbar port, a deferred port into the shared backend, and the
    /// (possibly multi-kernel) work list the dispatch policy assigned to it.
    /// CTAs launch strictly in work-list order as capacity frees up.
    pub fn with_parts(
        config: GpuConfig,
        work: Vec<CtaWork>,
        scheduler: Box<dyn WarpScheduler>,
        redirect: Option<Box<dyn RedirectCache>>,
        interconnect: Interconnect,
        port: MemoryPort,
    ) -> Self {
        let l1d = SetAssocCache::new(config.l1d.clone());
        let shared_mem = SharedMemory::new(config.shared_mem);
        let smmt = Smmt::new(config.shared_mem.size_bytes);
        let mshr = Mshr::new(config.mshr_entries, config.mshr_merge);
        let interference = InterferenceMatrix::new(config.max_warps_per_sm);

        let mut sm = Sm {
            config,
            scheduler,
            redirect,
            l1d,
            shared_mem,
            smmt,
            mshr,
            interconnect,
            port,
            warps: Vec::new(),
            resident: Vec::new(),
            work,
            next_work: 0,
            launch_ordinal: 0,
            launch_seq: 0,
            tenant_of_slot: Vec::new(),
            pending: BinaryHeap::new(),
            cycle: 0,
            stats: SmStats::default(),
            tenants: Vec::new(),
            time_series: TimeSeries::default(),
            interference,
            snapshot: SampleSnapshot::default(),
            ready_scratch: Vec::new(),
            throttle_only_last: false,
            replayed: None,
            stepping: false,
            trace: None,
            trace_unit: 0,
            busy_since: None,
        };
        sm.launch_ctas();
        sm.update_redirect_capacity();
        sm
    }

    /// Current cycle.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Switches per-cycle stepping on or off (see the module docs).
    pub(crate) fn set_stepping(&mut self, stepping: bool) {
        self.stepping = stepping;
    }

    /// Attaches a sim-time trace recorder; the SM records on track
    /// `Sm(unit)`: `busy` spans over contiguous issuing stretches, `cta`
    /// lifetime spans, and (engine-category) `idle-skip` and `replay-skip`
    /// stretches.
    pub fn set_trace(&mut self, unit: u32) {
        self.trace_unit = unit;
        self.trace = Some(TraceRecorder::with_default_capacity());
    }

    /// Detaches and returns the trace recorder, closing any open busy span
    /// at the current cycle first.
    pub fn take_trace(&mut self) -> Option<TraceRecorder> {
        self.close_busy_span(self.cycle);
        self.trace.take()
    }

    /// Closes the open busy stretch (if any) as a `busy` span ending at
    /// `now`.
    fn close_busy_span(&mut self, now: Cycle) {
        if let (Some(start), Some(trace)) = (self.busy_since.take(), self.trace.as_mut()) {
            if now > start {
                trace.record(TraceEvent::span(
                    Track::Sm(self.trace_unit),
                    "busy",
                    start,
                    now - start,
                    None,
                ));
            }
        }
    }

    /// Aggregate statistics (finalised lazily; call after `run`).
    pub fn stats(&self) -> &SmStats {
        &self.stats
    }

    /// The instruction-indexed time series collected so far.
    pub fn time_series(&self) -> &TimeSeries {
        &self.time_series
    }

    /// The inter-warp interference matrix collected so far.
    pub fn interference_matrix(&self) -> &InterferenceMatrix {
        &self.interference
    }

    /// The installed scheduler (for metrics queries).
    pub fn scheduler(&self) -> &dyn WarpScheduler {
        self.scheduler.as_ref()
    }

    /// Per-tenant counters collected so far (indexed by [`TenantId`];
    /// finalised by [`Sm::finalize_stats`]).
    pub fn tenant_stats(&self) -> &[TenantStats] {
        &self.tenants
    }

    /// True when every work-list CTA has been launched and finished.
    pub fn is_done(&self) -> bool {
        self.next_work >= self.work.len() && self.resident.is_empty()
    }

    /// Appends work assigned at run time (dynamic kernel arrivals and the
    /// interference-aware dispatcher both feed SMs at epoch boundaries) and
    /// launches as much of it as capacity allows. An SM that had drained its
    /// work list froze its clock, so it is fast-forwarded to the boundary
    /// cycle `now` first — the idle gap counts in `cycles` but not in
    /// `idle_cycles`, which only measures cycles the SM had work it could not
    /// issue.
    pub fn push_work(&mut self, items: Vec<CtaWork>, now: Cycle) {
        if items.is_empty() {
            return;
        }
        if self.is_done() && !self.hit_cap() {
            self.cycle = self.cycle.max(now);
        }
        self.work.extend(items);
        self.launch_ctas();
        self.update_redirect_capacity();
    }

    /// Warp slots not taken by resident CTAs or by queued work that has not
    /// launched yet — what the adaptive dispatcher treats as this SM's free
    /// capacity when dealing CTAs.
    pub fn free_warp_slots(&self) -> usize {
        let resident: usize = self.resident.iter().map(|c| c.warp_slots.len()).sum();
        let queued: usize =
            self.work[self.next_work.min(self.work.len())..].iter().map(|w| w.warps.max(1)).sum();
        self.config.max_warps_per_sm.saturating_sub(resident + queued)
    }

    /// True when a configured instruction or cycle cap has been reached.
    pub fn hit_cap(&self) -> bool {
        if let Some(max_i) = self.config.max_instructions {
            if self.stats.instructions >= max_i {
                return true;
            }
        }
        if let Some(max_c) = self.config.max_cycles {
            if self.cycle >= max_c {
                return true;
            }
        }
        false
    }

    /// Runs until the kernel finishes or a cap is reached, returning the
    /// number of cycles simulated.
    pub fn run(&mut self) -> Cycle {
        while !self.is_done() && !self.hit_cap() {
            self.step();
        }
        self.finalize_stats();
        self.cycle
    }

    /// Event-driven equivalent of [`Sm::run`]: produces bit-identical state
    /// and statistics, but fast-forwards over provably idle and replay
    /// stretches (see the module docs) instead of stepping them one cycle at
    /// a time. Returns the number of cycles simulated.
    pub fn run_event(&mut self) -> Cycle {
        self.run_epoch_event(Cycle::MAX);
        self.finalize_stats();
        self.cycle
    }

    /// Advances the SM to (at most) cycle `until` — one epoch of the chip
    /// engine's boundary loop — fast-forwarding the stretches it holds still
    /// on. Stops early when the kernel finishes or a cap is hit; does not
    /// finalise statistics. Bit-identical to stepping every cycle.
    pub fn run_epoch_event(&mut self, until: Cycle) {
        while self.cycle < until && !self.is_done() && !self.hit_cap() {
            match self.skip_target(until, until) {
                Some(target) => self.skip_to(target),
                None => self.step(),
            }
        }
    }

    /// The SM's next-event time: the end of the stretch it holds still on
    /// from its current cycle (a warp wakeup, a pending memory response, or
    /// the scheduler's hold horizon running out), or `None` when the current
    /// cycle cannot be skipped (issuable warps, due responses, pending CTA
    /// retires/launches or releasable barriers, or the SM is in stepping
    /// mode). Used by the chip engine to order SM advancement.
    pub fn next_event_time(&self) -> Option<Cycle> {
        // A deferred port's utilisation snapshot for the cycles ahead is
        // only set when the engine next advances the SM.
        self.skip_target(Cycle::MAX, self.cycle)
    }

    /// Largest `target` in `(cycle, until]` such that the SM holds still on
    /// every cycle of `[cycle, target)`: each is a no-op apart from idle
    /// accounting and a scheduler pick that [`WarpScheduler::on_idle_cycles`]
    /// replays in closed form. `None` when the current cycle must be
    /// stepped normally. A deferred port's utilisation snapshot is valid
    /// for the cycles before `snapshot_until`.
    ///
    /// The SM holds still in one of two ways, told apart by `replayed`:
    ///
    /// - *idle*: no unfinished warp is offered to the scheduler, so issue
    ///   and warp-finish detection are no-ops. Either no warp is ready, or
    ///   the last stepped cycle was throttle-only and every ready warp
    ///   - already holds a fetched op (so `step` fetches nothing and finds
    ///     no finished program),
    ///   - whose op is not a `Barrier` (barriers are never throttled),
    ///   - is throttled under the rule `step` applies;
    /// - *replay*: warp `idx` retries a global load that the full MSHR file
    ///   turned away on the last stepped cycle. It is ready exactly now
    ///   (`Executing { until: now }`, as the replay left it) and not
    ///   throttled — a recompute inside the last `pick` may have throttled
    ///   the warp that `pick` still returned. Every other ready warp already
    ///   holds a fetched op and none wakes now.
    ///
    /// In both, no pending memory response is due (a replay's MSHR file
    /// stays full) and `step` has no CTA or sampler bookkeeping due
    /// ([`Sm::bookkeeping_due`]). The target is the earliest of the next
    /// response, the next `Executing` expiry of a waiting warp, the cycle
    /// cap and `until`; and when any warp is ready, the scheduler's
    /// [`WarpScheduler::hold_horizon`] bounds it too. Fully idle stretches
    /// never consult the scheduler.
    fn skip_target(&self, until: Cycle, snapshot_until: Cycle) -> Option<Cycle> {
        let now = self.cycle;
        if self.stepping || until <= now {
            return None;
        }
        if let Some(idx) = self.replayed {
            let warp = &self.warps[idx];
            if warp.state != (WarpState::Executing { until: now })
                || self.scheduler.is_throttled(warp.id)
            {
                return None;
            }
        }
        let mut target = until;
        let mut held = false;
        for (i, w) in self.warps.iter().enumerate() {
            match w.state {
                _ if Some(i) == self.replayed => {}
                WarpState::Executing { until: t } if t > now => target = target.min(t),
                _ if w.is_finished() || !w.is_ready(now) => {}
                _ => {
                    let holds = if self.replayed.is_some() {
                        w.pending().is_some() && w.state != (WarpState::Executing { until: now })
                    } else {
                        self.throttle_only_last && self.held_by_throttle(w)
                    };
                    if !holds {
                        return None;
                    }
                    held = true;
                }
            }
        }
        if let Some(&Reverse((when, _))) = self.pending.peek() {
            if when <= now {
                return None;
            }
            target = target.min(when);
        }
        if self.bookkeeping_due() {
            return None;
        }
        if let Some(m) = self.config.max_cycles {
            target = target.min(m);
        }
        if held || self.replayed.is_some() {
            let ctx = Self::hold_ctx(
                &self.warps,
                self.replayed.as_slice(),
                &self.port,
                self.stats.instructions,
                now,
            );
            let utilization_at = |t| self.port.known_dram_utilization(t, snapshot_until);
            let horizon = self.scheduler.hold_horizon(&ctx, &utilization_at);
            target = target.min(now.saturating_add(horizon));
        }
        (target > now).then_some(target)
    }

    /// True when the next [`Sm::step`] has work to do even if no warp
    /// issues: the time-series sampler is due (it is instruction-indexed, so
    /// it cannot newly trigger while nothing retires), or a resident CTA has
    /// every warp at a barrier or finished — its barrier is releasable, or
    /// it retires and frees room for a launch.
    fn bookkeeping_due(&self) -> bool {
        self.stats.instructions >= self.snapshot.instructions + self.config.sample_interval_insts
            || self.resident.iter().any(|cta| {
                cta.warp_slots.iter().all(|&s| {
                    matches!(self.warps[s].state, WarpState::AtBarrier | WarpState::Finished)
                })
            })
    }

    /// True when ready warp `w` stays out of the ready set `step` offers the
    /// scheduler without `step` touching it: its next op is already fetched,
    /// is not a barrier, and is throttled under `step`'s own rule.
    fn held_by_throttle(&self, w: &Warp) -> bool {
        match w.pending() {
            None | Some(WarpOp::Barrier) => false,
            Some(op) => {
                self.scheduler.is_throttled(w.id)
                    && (op.is_global_mem() || !self.scheduler.throttles_loads_only())
            }
        }
    }

    /// The scheduler context of a held cycle `now`: `ready` is empty on an
    /// idle stretch and names the replaying warp on a replay stretch.
    fn hold_ctx<'a>(
        warps: &'a [Warp],
        ready: &'a [usize],
        port: &MemoryPort,
        instructions: u64,
        now: Cycle,
    ) -> SchedulerCtx<'a> {
        SchedulerCtx {
            now,
            warps,
            ready,
            instructions_executed: instructions,
            active_warps: warps.iter().filter(|w| !w.is_finished()).count(),
            dram_utilization: port.dram_utilization(now.max(1)),
        }
    }

    /// Fast-forwards the SM from `cycle` to `target` over a stretch it holds
    /// still on ([`Sm::skip_target`]), leaving exactly the state
    /// `target - cycle` stepped cycles would, and advances the scheduler
    /// through [`WarpScheduler::on_idle_cycles`].
    ///
    /// An idle stretch grows `idle_cycles` by its length (and so does
    /// `throttle_only_cycles` when throttled warps are ready). It is idle by
    /// definition, so the busy span (if open) ends where the stretch starts
    /// — exactly where the stepped path would have closed it. A replay
    /// stretch counts nothing and leaves the busy span open, as stepped
    /// replays do; the warp retries its load at `target`. The skip itself
    /// is engine mechanics: only the event core takes it, so its span is
    /// engine-category and excluded from the canonical (backend-invariant)
    /// export.
    fn skip_to(&mut self, target: Cycle) {
        let now = self.cycle;
        let cycles = target - now;
        let kind = match self.replayed {
            Some(idx) => {
                self.warps[idx].state = WarpState::Executing { until: target };
                "replay-skip"
            }
            None => {
                // Ready warps can only be present when the stretch is
                // throttle-only, which needs the flag.
                if self.throttle_only_last
                    && self.warps.iter().any(|w| !w.is_finished() && w.is_ready(now))
                {
                    self.stats.throttle_only_cycles += cycles;
                }
                self.close_busy_span(now);
                self.stats.idle_cycles += cycles;
                "idle-skip"
            }
        };
        if let Some(trace) = &mut self.trace {
            trace.record(TraceEvent::span(Track::Engine, kind, now, cycles, None).engine());
        }
        let ctx = Self::hold_ctx(
            &self.warps,
            self.replayed.as_slice(),
            &self.port,
            self.stats.instructions,
            target - 1,
        );
        self.scheduler.on_idle_cycles(&ctx, cycles);
        self.cycle = target;
    }

    /// Drains the memory requests buffered by a deferred port during the
    /// last epoch (empty for an SM with a private partition).
    pub fn drain_requests(&mut self) -> Vec<MemRequest> {
        self.port.drain()
    }

    /// Schedules a memory response computed by the chip engine: `ev` fires
    /// at cycle `done`. Must not be called with `done` in the SM's past —
    /// the engine's epoch clamp guarantees this.
    pub fn deliver(&mut self, done: Cycle, ev: ResponseEvent) {
        debug_assert!(done >= self.cycle, "response delivered into the SM's past");
        self.pending.push(Reverse((done, ev)));
    }

    /// Updates the DRAM-utilisation snapshot a deferred port reports to the
    /// scheduler during the next epoch.
    pub fn set_dram_utilization(&mut self, util: f64) {
        self.port.set_dram_utilization(util);
    }

    /// The SM's interconnect port (for chip-level traffic aggregation).
    pub fn interconnect(&self) -> &Interconnect {
        &self.interconnect
    }

    /// Per-tenant L2/DRAM attribution of the SM's private partition, if it
    /// owns one (`None` on a deferred port — the shared backend holds the
    /// chip-level table instead).
    pub fn partition_tenant_stats(&self) -> Option<Vec<gpu_mem::TenantMemStats>> {
        self.port.partition_tenant_stats()
    }

    /// Arms the private partition's observability sink (no-op on a deferred
    /// port — the shared backend's banks carry their own sinks there).
    pub fn enable_port_obs(&mut self, trace_on: bool) {
        self.port.enable_obs(trace_on);
    }

    /// Detaches the private partition's observability sink, if one exists.
    pub fn take_port_obs(&mut self) -> Option<Box<gpu_mem::PartitionObs>> {
        self.port.take_obs()
    }

    /// Advances the SM by one cycle.
    pub fn step(&mut self) {
        let now = self.cycle;
        self.replayed = None;
        self.process_responses(now);
        self.release_barriers();
        self.retire_and_launch_ctas();

        // Collect issuable warps; detect warps whose program just ended.
        let mut finished_now: Vec<usize> = Vec::new();
        self.ready_scratch.clear();
        let mut any_ready_ignoring_throttle = false;
        for i in 0..self.warps.len() {
            if self.warps[i].is_finished() || !self.warps[i].is_ready(now) {
                continue;
            }
            let (next_is_global_mem, next_is_barrier) = match self.warps[i].peek_op() {
                None => {
                    finished_now.push(i);
                    continue;
                }
                Some(op) => (op.is_global_mem(), matches!(op, WarpOp::Barrier)),
            };
            any_ready_ignoring_throttle = true;
            let wid = self.warps[i].id;
            // Barrier instructions are never gated by throttling: stalling a
            // warp that its CTA is waiting for at a barrier would deadlock
            // the CTA (real schedulers are barrier-aware for the same reason).
            if !next_is_barrier
                && self.scheduler.is_throttled(wid)
                && (next_is_global_mem || !self.scheduler.throttles_loads_only())
            {
                continue;
            }
            self.ready_scratch.push(i);
        }
        for i in finished_now {
            self.finish_warp(i, now);
        }

        let picked = {
            let ready = std::mem::take(&mut self.ready_scratch);
            let ctx = SchedulerCtx {
                now,
                warps: &self.warps,
                ready: &ready,
                instructions_executed: self.stats.instructions,
                active_warps: self.warps.iter().filter(|w| !w.is_finished()).count(),
                dram_utilization: self.port.dram_utilization(now.max(1)),
            };
            // The scheduler is consulted even when nothing is ready: policies
            // that maintain throttle/token sets (Best-SWL, CCWS, statPCAL,
            // CIAO) use the call to refresh their state, otherwise an SM
            // whose only runnable warps are currently throttled would stay
            // idle forever.
            let picked = self.scheduler.pick(&ctx);
            // Defensive: only honour picks that were actually offered.
            let picked = picked.filter(|i| ready.contains(i));
            self.ready_scratch = ready;
            picked
        };

        self.throttle_only_last = picked.is_none() && any_ready_ignoring_throttle;
        match picked {
            Some(idx) => {
                if self.trace.is_some() && self.busy_since.is_none() {
                    self.busy_since = Some(now);
                }
                self.issue(idx, now);
            }
            None => {
                self.close_busy_span(now);
                if any_ready_ignoring_throttle {
                    self.stats.throttle_only_cycles += 1;
                }
                self.stats.idle_cycles += 1;
            }
        }

        self.maybe_sample(now);
        self.cycle += 1;
    }

    // ----- CTA management ---------------------------------------------------

    fn launch_ctas(&mut self) {
        while self.next_work < self.work.len() {
            let item = &self.work[self.next_work];
            let warps_per_cta = item.warps.max(1);
            let used_slots: usize = self.resident.iter().map(|c| c.warp_slots.len()).sum();
            if used_slots + warps_per_cta > self.config.max_warps_per_sm {
                break;
            }
            // The SMMT key is the launch ordinal: global CTA ids are only
            // unique within one kernel, ordinals are unique on the SM.
            let key = self.launch_ordinal as CtaId;
            if item.shared_mem > 0 && self.smmt.allocate_cta(key, item.shared_mem).is_err() {
                break;
            }
            let item = self.work[self.next_work].clone();
            let mut slots = Vec::with_capacity(warps_per_cta);
            for w in 0..warps_per_cta {
                let program = item.kernel.warp_program(item.cta, w);
                let slot = self.free_slot(&slots);
                let warp = Warp::new(slot as WarpId, key, self.launch_seq, program);
                self.launch_seq += 1;
                if slot == self.warps.len() {
                    self.warps.push(warp);
                } else {
                    self.warps[slot] = warp;
                }
                if self.tenant_of_slot.len() <= slot {
                    self.tenant_of_slot.resize(slot + 1, 0);
                }
                self.tenant_of_slot[slot] = item.tenant;
                self.scheduler.on_warp_launched(slot as WarpId, self.cycle);
                slots.push(slot);
            }
            self.resident.push(ResidentCta {
                key,
                tenant: item.tenant,
                shared_mem: item.shared_mem,
                warp_slots: slots,
                launch_cycle: self.cycle,
            });
            self.launch_ordinal += 1;
            self.next_work += 1;
        }
        self.stats.max_resident_ctas = self.stats.max_resident_ctas.max(self.resident.len());
        self.stats.peak_cta_shared_mem =
            self.stats.peak_cta_shared_mem.max(self.smmt.cta_allocated());
    }

    fn free_slot(&self, also_taken: &[usize]) -> usize {
        let occupied: std::collections::HashSet<usize> = self
            .resident
            .iter()
            .flat_map(|c| c.warp_slots.iter().copied())
            .chain(also_taken.iter().copied())
            .collect();
        (0..self.warps.len()).find(|i| !occupied.contains(i)).unwrap_or(self.warps.len())
    }

    fn retire_and_launch_ctas(&mut self) {
        let mut retired = false;
        let mut i = 0;
        while i < self.resident.len() {
            let all_done = self.resident[i].warp_slots.iter().all(|&s| self.warps[s].is_finished());
            if all_done {
                let cta = &self.resident[i];
                if cta.shared_mem > 0 {
                    let _ = self.smmt.free_cta(cta.key);
                }
                tenant_slot(&mut self.tenants, cta.tenant).ctas_completed += 1;
                if let Some(trace) = &mut self.trace {
                    trace.record(
                        TraceEvent::span(
                            Track::Sm(self.trace_unit),
                            "cta",
                            cta.launch_cycle,
                            self.cycle - cta.launch_cycle,
                            Some(cta.tenant),
                        )
                        .with_arg(cta.key as u64),
                    );
                }
                self.resident.swap_remove(i);
                retired = true;
            } else {
                i += 1;
            }
        }
        if retired {
            self.launch_ctas();
            self.update_redirect_capacity();
        }
    }

    fn update_redirect_capacity(&mut self) {
        if let Some(r) = self.redirect.as_mut() {
            let unused =
                self.config.shared_mem.size_bytes.saturating_sub(self.smmt.cta_allocated());
            r.set_capacity(unused as u64);
        }
    }

    fn finish_warp(&mut self, idx: usize, now: Cycle) {
        let wid = self.warps[idx].id;
        self.warps[idx].finish();
        let tenant = self.tenant_of(wid);
        let entry = tenant_slot(&mut self.tenants, tenant);
        entry.finish_cycle = entry.finish_cycle.max(now);
        self.scheduler.on_warp_finished(wid, now);
    }

    /// Tenant owning warp slot `wid` (slot indices and warp ids coincide).
    fn tenant_of(&self, wid: WarpId) -> TenantId {
        self.tenant_of_slot.get(wid as usize).copied().unwrap_or(0)
    }

    // ----- barriers -----------------------------------------------------------

    fn release_barriers(&mut self) {
        let warps = &mut self.warps;
        for cta in &self.resident {
            let slots = &cta.warp_slots;
            let all_arrived = slots
                .iter()
                .all(|&s| matches!(warps[s].state, WarpState::AtBarrier) || warps[s].is_finished());
            let any_waiting = slots.iter().any(|&s| matches!(warps[s].state, WarpState::AtBarrier));
            if all_arrived && any_waiting {
                for &s in slots {
                    if matches!(warps[s].state, WarpState::AtBarrier) {
                        warps[s].release_barrier();
                    }
                }
            }
        }
    }

    // ----- memory responses ---------------------------------------------------

    fn process_responses(&mut self, now: Cycle) {
        while let Some(&Reverse((when, _))) = self.pending.peek() {
            if when > now {
                break;
            }
            let Reverse((_, ev)) = self.pending.pop().expect("peeked");
            match ev {
                ResponseEvent::MshrFill(block) => {
                    if let Some(entry) = self.mshr.fill(block) {
                        if let FillTarget::SharedMemory { .. } = entry.fill_target {
                            if let Some(r) = self.redirect.as_mut() {
                                let wid = entry.waiting_warps.first().copied().unwrap_or(0);
                                if let Some(ev) = r.fill(block, wid) {
                                    if ev.owner != wid {
                                        self.stats.redirect_cross_warp_evictions += 1;
                                        self.interference.record(ev.owner, wid);
                                    }
                                    self.notify_event(CacheEvent {
                                        kind: CacheKind::Redirect,
                                        wid,
                                        block_addr: block,
                                        is_write: false,
                                        outcome: CacheEventOutcome::Miss,
                                        evicted: Some(ev),
                                        now,
                                    });
                                }
                            }
                        }
                        for wid in entry.waiting_warps {
                            if let Some(w) = self.warps.get_mut(wid as usize) {
                                w.complete_mem();
                            }
                        }
                    }
                }
                ResponseEvent::WakeWarp(wid) => {
                    if let Some(w) = self.warps.get_mut(wid as usize) {
                        w.complete_mem();
                    }
                }
            }
        }
    }

    fn notify_event(&mut self, ev: CacheEvent) {
        self.scheduler.on_cache_event(&ev);
    }

    // ----- issue --------------------------------------------------------------

    fn issue(&mut self, idx: usize, now: Cycle) {
        let wid = self.warps[idx].id;
        // Global accesses are coalesced before the op is taken. Structural
        // back-pressure: a load whose worst-case new MSHR entries do not fit
        // is not issued at all. The warp keeps its op, stays ready and
        // replays on the next cycle; nothing is counted, but the scheduler
        // still sees the attempt.
        let blocks = match self.warps[idx].pending() {
            Some(WarpOp::Load { space: MemSpace::Global, pattern }) => {
                let blocks = coalesce(pattern);
                if !self.mshr_can_hold(&blocks) {
                    self.warps[idx].state = WarpState::Executing { until: now + 1 };
                    self.replayed = Some(idx);
                    self.scheduler.on_issue(wid, true, now);
                    return;
                }
                blocks
            }
            Some(WarpOp::Store { space: MemSpace::Global, pattern }) => coalesce(pattern),
            _ => Vec::new(),
        };
        let Some(op) = self.warps[idx].take_op() else {
            return;
        };
        let tenant = self.tenant_of(wid);
        let is_mem = op.is_global_mem();
        self.stats.instructions += 1;
        tenant_slot(&mut self.tenants, tenant).instructions += 1;
        match op {
            WarpOp::Compute { cycles } => {
                self.warps[idx].start_compute(now + cycles.max(1) as Cycle);
            }
            WarpOp::Barrier => {
                self.stats.barriers += 1;
                self.warps[idx].enter_barrier();
            }
            WarpOp::Load { space: MemSpace::Shared, pattern }
            | WarpOp::Store { space: MemSpace::Shared, pattern } => {
                self.stats.shared_mem_instructions += 1;
                let lanes: Vec<u32> = pattern
                    .lane_addresses()
                    .iter()
                    .map(|&a| (a % self.config.shared_mem.size_bytes as u64) as u32)
                    .collect();
                let lat = self.shared_mem.access(&lanes);
                self.warps[idx].start_compute(now + lat);
            }
            WarpOp::Load { space: MemSpace::Global, .. } => {
                self.issue_global(idx, wid, &blocks, false, now);
            }
            WarpOp::Store { space: MemSpace::Global, .. } => {
                self.issue_global(idx, wid, &blocks, true, now);
            }
        }
        self.scheduler.on_issue(wid, is_mem, now);
    }

    /// True when the MSHR file can hold the worst-case number of new entries
    /// a load of `blocks` needs (blocks already in flight merge).
    fn mshr_can_hold(&self, blocks: &[Addr]) -> bool {
        let free = self.config.mshr_entries - self.mshr.in_flight();
        blocks.len() <= free + blocks.iter().filter(|&&b| self.mshr.probe(b)).count()
    }

    fn issue_global(
        &mut self,
        idx: usize,
        wid: WarpId,
        blocks: &[Addr],
        is_write: bool,
        now: Cycle,
    ) {
        let tenant = self.tenant_of(wid);
        self.stats.mem_instructions += 1;
        tenant_slot(&mut self.tenants, tenant).mem_instructions += 1;
        self.stats.mem_transactions += blocks.len() as u64;
        tenant_slot(&mut self.tenants, tenant).mem_transactions += blocks.len() as u64;
        self.warps[idx].mem_transactions += blocks.len() as u64;

        let route = self.scheduler.route(wid);
        let mut outstanding = 0u32;
        let mut immediate_latency: Cycle = self.config.l1d.latency;

        for &block in blocks {
            match (route, is_write) {
                (MemRoute::Bypass, false) => {
                    self.stats.bypassed_requests += 1;
                    let arrive =
                        self.interconnect.transfer_tagged(self.config.l1d.line_size, now, tenant);
                    self.mem_read(block, wid, tenant, arrive, true, ResponseEvent::WakeWarp(wid));
                    outstanding += 1;
                }
                (MemRoute::Bypass, true) => {
                    self.stats.bypassed_requests += 1;
                    let arrive =
                        self.interconnect.transfer_tagged(self.config.l1d.line_size, now, tenant);
                    self.port.write(block, wid, tenant, arrive, true);
                }
                (MemRoute::RedirectCache, w) if self.redirect.is_some() => {
                    if let Some(extra) = self.access_redirect(wid, block, w, now, &mut outstanding)
                    {
                        immediate_latency = immediate_latency.max(extra);
                    }
                }
                _ => {
                    let extra = self.access_l1d(wid, block, is_write, now, &mut outstanding);
                    immediate_latency = immediate_latency.max(extra);
                }
            }
        }
        self.warps[idx].start_mem(outstanding, now + immediate_latency);
    }

    /// Issues a read to the downstream port; a synchronous (private) port
    /// yields the completion immediately, a deferred one delivers `ev` at a
    /// later epoch boundary.
    fn mem_read(
        &mut self,
        block: Addr,
        wid: WarpId,
        tenant: TenantId,
        arrive: Cycle,
        bypass: bool,
        ev: ResponseEvent,
    ) {
        if let Some(done) = self.port.read(block, wid, tenant, arrive, bypass, ev) {
            self.pending.push(Reverse((done, ev)));
        }
    }

    /// Normal L1D path for one block. Returns the immediate latency to charge
    /// if the access completes without an outstanding miss.
    fn access_l1d(
        &mut self,
        wid: WarpId,
        block: Addr,
        is_write: bool,
        now: Cycle,
        outstanding: &mut u32,
    ) -> Cycle {
        let tenant = self.tenant_of(wid);
        let res = self.l1d.access(block, wid, is_write);
        {
            // Mirror the L1D's own counters per tenant so Σ tenants == cache.
            let entry = tenant_slot(&mut self.tenants, tenant);
            entry.l1d_accesses += 1;
            if matches!(res.outcome, gpu_mem::cache::AccessOutcome::Hit) {
                entry.l1d_hits += 1;
            }
        }
        if let Some(ev) = res.evicted {
            if ev.owner != wid {
                self.stats.cross_warp_evictions += 1;
                self.interference.record(ev.owner, wid);
            }
        }
        let outcome = match res.outcome {
            gpu_mem::cache::AccessOutcome::Hit => {
                CacheEventOutcome::Hit { owner: res.hit_owner.unwrap_or(wid) }
            }
            _ => CacheEventOutcome::Miss,
        };
        self.notify_event(CacheEvent {
            kind: CacheKind::L1d,
            wid,
            block_addr: block,
            is_write,
            outcome,
            evicted: res.evicted,
            now,
        });

        match res.outcome {
            gpu_mem::cache::AccessOutcome::Hit => {
                if is_write {
                    // Write-through: the write still consumes downstream bandwidth,
                    // but does not block the warp.
                    let arrive =
                        self.interconnect.transfer_tagged(self.config.l1d.line_size, now, tenant);
                    self.port.write(block, wid, tenant, arrive, false);
                }
                self.config.l1d.latency
            }
            gpu_mem::cache::AccessOutcome::MissNoAllocate => {
                // Global store miss under write-no-allocate: forward downstream.
                let arrive =
                    self.interconnect.transfer_tagged(self.config.l1d.line_size, now, tenant);
                self.port.write(block, wid, tenant, arrive, false);
                self.config.l1d.latency
            }
            gpu_mem::cache::AccessOutcome::Miss => {
                match self.mshr.allocate(block, wid, now, FillTarget::L1d) {
                    Ok(gpu_mem::mshr::MshrAllocation::New) => {
                        let arrive = self.interconnect.transfer_tagged(
                            self.config.l1d.line_size,
                            now,
                            tenant,
                        );
                        self.mem_read(
                            block,
                            wid,
                            tenant,
                            arrive,
                            false,
                            ResponseEvent::MshrFill(block),
                        );
                        *outstanding += 1;
                    }
                    Ok(gpu_mem::mshr::MshrAllocation::Merged) => {
                        *outstanding += 1;
                    }
                    Err(_) => {
                        // Should be rare thanks to the pre-check; model as a
                        // pipeline bubble: charge a long immediate latency.
                        return self.config.l1d.latency + 20;
                    }
                }
                self.config.l1d.latency
            }
        }
    }

    /// CIAO redirect path for one block (§IV-B). Returns the immediate
    /// latency to charge when the access completes without an outstanding
    /// miss, or `None` if it fell back to the L1D path internally.
    fn access_redirect(
        &mut self,
        wid: WarpId,
        block: Addr,
        is_write: bool,
        now: Cycle,
        outstanding: &mut u32,
    ) -> Option<Cycle> {
        let tenant = self.tenant_of(wid);
        // Coherence: check the L1D tag array first; a resident copy is
        // migrated (evict to response queue, invalidate, fill the shared
        // memory), which hides the cold miss.
        if self.l1d.probe(block) {
            let _ = self.l1d.invalidate(block);
            self.stats.l1d_migrations += 1;
            if let Some(r) = self.redirect.as_mut() {
                if let Some(ev) = r.fill(block, wid) {
                    if ev.owner != wid {
                        self.stats.redirect_cross_warp_evictions += 1;
                        self.interference.record(ev.owner, wid);
                    }
                }
            }
            self.stats.redirect_hits += 1;
            self.notify_event(CacheEvent {
                kind: CacheKind::Redirect,
                wid,
                block_addr: block,
                is_write,
                outcome: CacheEventOutcome::Hit { owner: wid },
                evicted: None,
                now,
            });
            // Serialized tag check + scratchpad write.
            return Some(self.config.l1d.latency + self.config.shared_mem.latency);
        }

        let lookup = self.redirect.as_mut().expect("caller checked").lookup(block, wid, is_write);
        match lookup {
            RedirectLookup::Hit { latency } => {
                self.stats.redirect_hits += 1;
                self.notify_event(CacheEvent {
                    kind: CacheKind::Redirect,
                    wid,
                    block_addr: block,
                    is_write,
                    outcome: CacheEventOutcome::Hit { owner: wid },
                    evicted: None,
                    now,
                });
                if is_write {
                    // Write-through downstream, off the critical path.
                    let arrive =
                        self.interconnect.transfer_tagged(self.config.l1d.line_size, now, tenant);
                    self.port.write(block, wid, tenant, arrive, false);
                }
                Some(latency)
            }
            RedirectLookup::Miss => {
                self.stats.redirect_misses += 1;
                self.notify_event(CacheEvent {
                    kind: CacheKind::Redirect,
                    wid,
                    block_addr: block,
                    is_write,
                    outcome: CacheEventOutcome::Miss,
                    evicted: None,
                    now,
                });
                if is_write {
                    let arrive =
                        self.interconnect.transfer_tagged(self.config.l1d.line_size, now, tenant);
                    self.port.write(block, wid, tenant, arrive, false);
                    return Some(self.config.shared_mem.latency);
                }
                match self.mshr.allocate(
                    block,
                    wid,
                    now,
                    FillTarget::SharedMemory { shared_addr: 0 },
                ) {
                    Ok(gpu_mem::mshr::MshrAllocation::New) => {
                        let arrive = self.interconnect.transfer_tagged(
                            self.config.l1d.line_size,
                            now,
                            tenant,
                        );
                        self.mem_read(
                            block,
                            wid,
                            tenant,
                            arrive,
                            false,
                            ResponseEvent::MshrFill(block),
                        );
                        *outstanding += 1;
                    }
                    Ok(gpu_mem::mshr::MshrAllocation::Merged) => {
                        *outstanding += 1;
                    }
                    Err(_) => return Some(self.config.shared_mem.latency + 20),
                }
                Some(self.config.shared_mem.latency)
            }
            RedirectLookup::Unavailable => {
                // No capacity: fall back to the normal L1D path.
                Some(self.access_l1d(wid, block, is_write, now, outstanding))
            }
        }
    }

    // ----- sampling and finalisation -------------------------------------------

    fn maybe_sample(&mut self, now: Cycle) {
        let interval = self.config.sample_interval_insts;
        if self.stats.instructions < self.snapshot.instructions + interval {
            return;
        }
        let d_inst = self.stats.instructions - self.snapshot.instructions;
        let d_cycles = (now - self.snapshot.cycle).max(1);
        let interference_now =
            self.stats.cross_warp_evictions + self.stats.redirect_cross_warp_evictions;
        let d_interference = interference_now - self.snapshot.interference;
        let l1d = self.l1d.stats();
        let d_acc = l1d.accesses() - self.snapshot.l1d_accesses;
        let d_hits = l1d.hits() - self.snapshot.l1d_hits;
        let active = self
            .warps
            .iter()
            .filter(|w| !w.is_finished() && !self.scheduler.is_throttled(w.id))
            .count();
        self.time_series.push(TimeSeriesPoint {
            instructions: self.stats.instructions,
            cycle: now,
            ipc: d_inst as f64 / d_cycles as f64,
            active_warps: active,
            interference: d_interference,
            l1d_hit_rate: if d_acc == 0 { 0.0 } else { d_hits as f64 / d_acc as f64 },
        });
        self.snapshot = SampleSnapshot {
            instructions: self.stats.instructions,
            cycle: now,
            interference: interference_now,
            l1d_accesses: l1d.accesses(),
            l1d_hits: l1d.hits(),
        };
    }

    /// Copies end-of-run counters (cycle count, cache statistics, redirect
    /// utilisation) into [`Sm::stats`]. Idempotent; `run` calls it, and the
    /// chip engine calls it for boundary-driven SMs. An SM on a deferred port
    /// leaves its `l2`/`dram` fields empty — those live in the shared
    /// backend and are filled in at the chip level.
    pub fn finalize_stats(&mut self) {
        self.stats.cycles = self.cycle;
        self.stats.l1d = *self.l1d.stats();
        if let Some(pstats) = self.port.partition_stats() {
            self.stats.l2 = pstats.l2;
            self.stats.dram = pstats.dram;
        }
        if let Some(r) = self.redirect.as_ref() {
            self.stats.redirect_utilization = r.utilization();
        }
        // Per-tenant closing: a tenant is done when none of its work is
        // pending and none of its resident warps are unfinished; tenants cut
        // short (cap hit) report the SM's final cycle as their finish point.
        for entry in &mut self.tenants {
            entry.done = true;
        }
        for item in &self.work[self.next_work.min(self.work.len())..] {
            tenant_slot(&mut self.tenants, item.tenant).done = false;
        }
        for i in 0..self.resident.len() {
            let unfinished =
                self.resident[i].warp_slots.iter().any(|&s| !self.warps[s].is_finished());
            if unfinished {
                let tenant = self.resident[i].tenant;
                tenant_slot(&mut self.tenants, tenant).done = false;
            }
        }
        let cycle = self.cycle;
        for entry in &mut self.tenants {
            if !entry.done {
                entry.finish_cycle = cycle;
            }
        }
        for (t, &bytes) in self.interconnect.tenant_bytes().to_vec().iter().enumerate() {
            tenant_slot(&mut self.tenants, t as TenantId).xbar_bytes = bytes;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{ClosureKernel, KernelInfo};
    use crate::scheduler::GtoScheduler;
    use crate::trace::{MemPattern, VecProgram, WarpOp};

    fn simple_kernel(ctas: usize, warps: usize, ops_per_warp: usize) -> Box<dyn Kernel> {
        let info = KernelInfo {
            name: "unit".into(),
            num_ctas: ctas,
            warps_per_cta: warps,
            shared_mem_per_cta: 0,
        };
        Box::new(ClosureKernel::new(info, move |cta, w| {
            let mut ops = Vec::new();
            for i in 0..ops_per_warp {
                let addr = (cta as u64 * 64 + w as u64 * 8 + i as u64) * 128;
                ops.push(WarpOp::coalesced_load(addr));
                ops.push(WarpOp::alu());
            }
            Box::new(VecProgram::new(ops))
        }))
    }

    fn small_config() -> GpuConfig {
        GpuConfig::gtx480().with_sample_interval(50)
    }

    #[test]
    fn runs_to_completion() {
        let mut sm =
            Sm::new(small_config(), simple_kernel(2, 4, 10), Box::new(GtoScheduler::new()), None);
        sm.run();
        assert!(sm.is_done());
        let s = sm.stats();
        // 2 CTAs * 4 warps * 20 ops each
        assert_eq!(s.instructions, 2 * 4 * 20);
        assert_eq!(s.mem_instructions, 2 * 4 * 10);
        assert!(s.cycles > 0);
        assert!(s.ipc() > 0.0);
    }

    #[test]
    fn barrier_synchronises_cta() {
        let info =
            KernelInfo { name: "bar".into(), num_ctas: 1, warps_per_cta: 2, shared_mem_per_cta: 0 };
        let kernel = ClosureKernel::new(info, |_cta, w| {
            let mut ops = vec![];
            if w == 0 {
                // Warp 0 does a long memory op before the barrier.
                ops.push(WarpOp::coalesced_load(0x10000));
            }
            ops.push(WarpOp::Barrier);
            ops.push(WarpOp::alu());
            Box::new(VecProgram::new(ops))
        });
        let mut sm = Sm::new(small_config(), Box::new(kernel), Box::new(GtoScheduler::new()), None);
        sm.run();
        assert!(sm.is_done());
        assert_eq!(sm.stats().barriers, 2);
    }

    #[test]
    fn cta_launch_respects_warp_capacity() {
        // 4 CTAs of 24 warps each: only 2 fit at a time on a 48-warp SM.
        let mut sm =
            Sm::new(small_config(), simple_kernel(4, 24, 2), Box::new(GtoScheduler::new()), None);
        assert_eq!(sm.stats.max_resident_ctas.max(sm.resident.len()), 2);
        sm.run();
        assert!(sm.is_done());
        assert_eq!(sm.stats().instructions, 4 * 24 * 4);
    }

    #[test]
    fn shared_mem_limits_cta_residency() {
        let info = KernelInfo {
            name: "smem".into(),
            num_ctas: 4,
            warps_per_cta: 2,
            shared_mem_per_cta: 30 * 1024,
        };
        let kernel =
            ClosureKernel::new(info, |_c, _w| Box::new(VecProgram::new(vec![WarpOp::alu()])));
        let mut sm = Sm::new(small_config(), Box::new(kernel), Box::new(GtoScheduler::new()), None);
        // 30 KB per CTA on a 48 KB scratchpad: only one CTA resident at a time.
        assert_eq!(sm.resident.len(), 1);
        sm.run();
        assert!(sm.is_done());
        assert_eq!(sm.stats().peak_cta_shared_mem, 30 * 1024);
    }

    #[test]
    fn instruction_cap_stops_simulation() {
        let cfg = small_config().with_max_instructions(37);
        let mut sm = Sm::new(cfg, simple_kernel(1, 8, 1000), Box::new(GtoScheduler::new()), None);
        sm.run();
        assert!(!sm.is_done());
        assert!(sm.stats().instructions >= 37);
        assert!(sm.stats().instructions < 37 + 8);
    }

    #[test]
    fn repeated_loads_hit_in_l1d() {
        let info = KernelInfo {
            name: "hits".into(),
            num_ctas: 1,
            warps_per_cta: 1,
            shared_mem_per_cta: 0,
        };
        let kernel = ClosureKernel::new(info, |_c, _w| {
            let mut ops = Vec::new();
            for _ in 0..50 {
                ops.push(WarpOp::coalesced_load(0x8000));
            }
            Box::new(VecProgram::new(ops))
        });
        let mut sm = Sm::new(small_config(), Box::new(kernel), Box::new(GtoScheduler::new()), None);
        sm.run();
        let s = sm.stats();
        assert_eq!(s.l1d.misses(), 1);
        assert_eq!(s.l1d.hits(), 49);
    }

    #[test]
    fn thrashing_warps_record_interference() {
        // The Figure 3a scenario: warp 0 re-references a small block set (it
        // has data locality), while warp 1 streams a large array through the
        // same cache, evicting warp 0's lines; warp 0's refills in turn evict
        // warp 1's freshly inserted lines.
        let info = KernelInfo {
            name: "thrash".into(),
            num_ctas: 1,
            warps_per_cta: 2,
            shared_mem_per_cta: 0,
        };
        let kernel = ClosureKernel::new(info, |_c, w| {
            let mut ops = Vec::new();
            if w == 0 {
                for _rep in 0..64 {
                    for i in 0..64u64 {
                        ops.push(WarpOp::coalesced_load(i * 128));
                    }
                }
            } else {
                for i in 0..4096u64 {
                    ops.push(WarpOp::coalesced_load((1 << 20) + i * 128));
                }
            }
            Box::new(VecProgram::new(ops))
        });
        let mut sm = Sm::new(small_config(), Box::new(kernel), Box::new(GtoScheduler::new()), None);
        sm.run();
        let s = sm.stats();
        assert!(s.cross_warp_evictions > 0, "expected cross-warp evictions");
        assert!(sm.interference_matrix().total() > 0);
    }

    #[test]
    fn time_series_sampled() {
        let cfg = small_config().with_sample_interval(10);
        let mut sm = Sm::new(cfg, simple_kernel(1, 4, 50), Box::new(GtoScheduler::new()), None);
        sm.run();
        assert!(!sm.time_series().is_empty());
        let pts = sm.time_series().points();
        for w in pts.windows(2) {
            assert!(w[1].instructions > w[0].instructions);
            assert!(w[1].cycle >= w[0].cycle);
        }
    }

    #[test]
    fn stores_do_not_block_warp() {
        let info = KernelInfo {
            name: "stores".into(),
            num_ctas: 1,
            warps_per_cta: 1,
            shared_mem_per_cta: 0,
        };
        let kernel = ClosureKernel::new(info, |_c, _w| {
            let ops = (0..20u64).map(|i| WarpOp::coalesced_store(i * 128)).collect();
            Box::new(VecProgram::new(ops))
        });
        let mut sm = Sm::new(small_config(), Box::new(kernel), Box::new(GtoScheduler::new()), None);
        sm.run();
        // 20 stores with no load stalls should finish quickly (well under the
        // DRAM round-trip × 20 it would take if stores blocked).
        assert!(
            sm.stats().cycles < 500,
            "stores should not serialise on DRAM, took {}",
            sm.stats().cycles
        );
    }

    #[test]
    fn tracing_never_perturbs_execution_and_records_spans() {
        let run = |traced: bool| {
            let mut sm = Sm::new(
                small_config(),
                simple_kernel(2, 4, 10),
                Box::new(GtoScheduler::new()),
                None,
            );
            if traced {
                sm.set_trace(7);
            }
            sm.run();
            let events = sm.take_trace().map(|mut t| t.take()).unwrap_or_default();
            (sm.stats().clone(), sm.cycle(), events)
        };
        let (plain_stats, plain_cycle, plain_events) = run(false);
        let (traced_stats, traced_cycle, events) = run(true);
        assert_eq!(plain_cycle, traced_cycle, "tracing must not change timing");
        assert_eq!(plain_stats.instructions, traced_stats.instructions);
        assert_eq!(plain_stats.idle_cycles, traced_stats.idle_cycles);
        assert!(plain_events.is_empty());
        assert!(events.iter().all(|e| e.track == Track::Sm(7)));
        assert!(events.iter().any(|e| e.name == "busy" && e.dur > 0));
        let ctas: Vec<_> = events.iter().filter(|e| e.name == "cta").collect();
        assert_eq!(ctas.len(), 2, "one lifetime span per completed CTA");
        assert!(ctas.iter().all(|e| e.tenant == Some(0)));
    }

    #[test]
    fn event_and_stepped_runs_trace_identical_sim_spans() {
        let run = |event: bool| {
            let mut sm = Sm::new(
                small_config(),
                simple_kernel(2, 4, 10),
                Box::new(GtoScheduler::new()),
                None,
            );
            sm.set_trace(0);
            if event {
                sm.run_event();
            } else {
                sm.run();
            }
            sm.take_trace().expect("tracing on").take()
        };
        let stepped = run(false);
        let event = run(true);
        assert_eq!(
            sim_obs::chrome_trace_json(&stepped, &[], false),
            sim_obs::chrome_trace_json(&event, &[], false),
            "canonical (sim-category) trace must be backend-invariant"
        );
        assert!(
            event.iter().any(|e| e.name == "idle-skip"),
            "the event backend records engine-category skips"
        );
        assert!(stepped.iter().all(|e| e.name != "idle-skip"));
    }

    /// One CTA of 4 warps, each issuing 4 loads that touch 32 blocks: one
    /// warp's miss fills the 32-entry MSHR file, and the next warp GTO
    /// picks replays until the fill returns.
    fn mshr_bound_kernel() -> Box<dyn Kernel> {
        let info = KernelInfo {
            name: "mshr".into(),
            num_ctas: 1,
            warps_per_cta: 4,
            shared_mem_per_cta: 0,
        };
        Box::new(ClosureKernel::new(info, |_c, w| {
            let ops = (0..4u64)
                .map(|i| WarpOp::Load {
                    space: MemSpace::Global,
                    pattern: MemPattern::Strided {
                        base: (w as u64 * 4 + i) << 16,
                        stride: 128,
                        lanes: 32,
                    },
                })
                .collect();
            Box::new(VecProgram::new(ops))
        }))
    }

    #[test]
    fn replay_skips_keep_the_canonical_trace_and_stats() {
        let run = |event: bool| {
            let mut sm =
                Sm::new(small_config(), mshr_bound_kernel(), Box::new(GtoScheduler::new()), None);
            sm.set_trace(0);
            if event {
                sm.run_event();
            } else {
                sm.run();
            }
            (sm.stats().clone(), sm.take_trace().expect("tracing on").take())
        };
        let (stepped_stats, stepped) = run(false);
        let (event_stats, event) = run(true);
        assert_eq!(stepped_stats, event_stats);
        assert_eq!(stepped_stats.instructions, 16);
        assert_eq!(
            sim_obs::chrome_trace_json(&stepped, &[], false),
            sim_obs::chrome_trace_json(&event, &[], false),
            "canonical (sim-category) trace must be backend-invariant"
        );
        assert!(
            event.iter().any(|e| e.name == "replay-skip" && e.dur > 0),
            "the event backend records engine-category replay skips"
        );
        assert!(stepped.iter().all(|e| e.name != "replay-skip"));
    }

    #[test]
    fn work_dealt_inside_a_replay_stretch_stops_the_skip() {
        // The chip engine deals a CTA at a boundary that falls inside a
        // replay stretch. Its warps hold no fetched op yet, and their empty
        // programs finish on their first scan, so the event run must step
        // that cycle just as the stepping run does.
        let info = KernelInfo {
            name: "empty".into(),
            num_ctas: 1,
            warps_per_cta: 2,
            shared_mem_per_cta: 0,
        };
        let empty: Arc<dyn Kernel> =
            Arc::new(ClosureKernel::new(info, |_c, _w| Box::new(VecProgram::new(vec![]))));
        let run = |stepping: bool| {
            let mut sm =
                Sm::new(small_config(), mshr_bound_kernel(), Box::new(GtoScheduler::new()), None);
            sm.set_stepping(stepping);
            sm.run_epoch_event(40);
            assert_eq!((sm.cycle(), sm.replayed), (40, Some(1)), "mid-stretch boundary");
            sm.push_work(Sm::work_of(Arc::clone(&empty), 1), 40);
            sm.run_event();
            (sm.stats().clone(), sm.tenant_stats().to_vec())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn shared_memory_ops_execute() {
        let info = KernelInfo {
            name: "shmem".into(),
            num_ctas: 1,
            warps_per_cta: 1,
            shared_mem_per_cta: 1024,
        };
        let kernel = ClosureKernel::new(info, |_c, _w| {
            let ops = vec![
                WarpOp::Load {
                    space: MemSpace::Shared,
                    pattern: MemPattern::Strided { base: 0, stride: 4, lanes: 32 },
                },
                WarpOp::Store {
                    space: MemSpace::Shared,
                    pattern: MemPattern::Strided { base: 0, stride: 256, lanes: 8 },
                },
            ];
            Box::new(VecProgram::new(ops))
        });
        let mut sm = Sm::new(small_config(), Box::new(kernel), Box::new(GtoScheduler::new()), None);
        sm.run();
        assert_eq!(sm.stats().shared_mem_instructions, 2);
        assert_eq!(sm.stats().mem_instructions, 0);
    }
}
