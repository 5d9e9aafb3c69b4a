//! The streaming-multiprocessor (SM) model.
//!
//! One [`Sm`] owns the warp slots, the L1D, the shared-memory scratchpad and
//! its SMMT, the MSHR file, the interconnect slice and the memory partition,
//! plus the pluggable warp scheduler and (optionally) a redirect cache. Each
//! call to [`Sm::step`] advances the model by one cycle:
//!
//! 1. memory responses that completed by this cycle wake their warps and fill
//!    the L1D or the redirect cache,
//! 2. CTA-wide barriers whose warps all arrived are released, and CTAs whose
//!    warps all finished retire and make room for queued CTAs — checked only
//!    after some warp entered a barrier or finished, the only events that
//!    can make either true,
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
//! The SM has one advance entry, [`Sm::run_epoch_event`]: the chip engine
//! calls it with each epoch boundary, and with `Cycle::MAX` for a lone SM
//! that needs no boundaries. It and [`Sm::next_event_time`] produce the
//! same state as stepping every cycle but fast-forward over the stretches
//! on which the SM *holds still*, found by one function
//! (`Sm::skip_target`):
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
//! off: the same entry point then steps every cycle, the reference the
//! skips are tested against.
//!
//! Both modes read warp eligibility from slot masks kept in
//! [`WarpSlots`]: the *ready* warps, the *timed* (`Executing`) warps with
//! their write-back cycles, and the warps holding a *fetched* op, with
//! whether that op is a global access or a barrier. Each warp state
//! transition (launch, issue, replay, memory reply, barrier enter and
//! release, finish) goes through `WarpSlots` and updates them, and every
//! cycle the SM reaches (by a step or a skip) promotes the executing warps
//! whose write-back cycle it is to ready. So `step` fetches ops only for
//! `ready & !fetched`, offers `ready & !held` a word at a time, and
//! `skip_target` reads the earliest write-back cycle instead of walking
//! the warps.
//!
//! `held`, the fetched ops the one throttle rule (`Sm::held_by_throttle`)
//! holds back, is computed afresh from masks whenever it is needed:
//! `throttled(occupied) & fetched & !barrier`, and `& global` for a
//! scheduler that throttles loads only, where `throttled` is the
//! scheduler's own mask ([`WarpScheduler::throttled`]). The SM keeps no
//! copy of throttle state, so there is nothing to go stale. In debug builds
//! every `step` checks the masks against the warp states, and `held`
//! against a per-op recompute through the rule.
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

use crate::coalescer::coalesce_into;
use crate::config::GpuConfig;
use crate::dispatch::CtaWork;
use crate::gpu::{MemRequest, MemoryPort};
use crate::redirect::{RedirectCache, RedirectLookup};
use crate::scheduler::{
    CacheEvent, CacheEventOutcome, CacheKind, MemRoute, SchedulerCtx, WarpScheduler,
};
use crate::stats::{
    tenant_slot, InterferenceMatrix, SmStats, TenantStats, TimeSeries, TimeSeriesPoint,
};
use crate::trace::{MemSpace, WarpOp};
use crate::warp::{SlotSet, Warp, WarpSlots, WarpState};
use gpu_mem::cache::{AccessOutcome, EvictedLine, SetAssocCache};
use gpu_mem::interconnect::Interconnect;
use gpu_mem::mshr::{FillTarget, Mshr, MshrAllocation};
use gpu_mem::shared_memory::SharedMemory;
use gpu_mem::smmt::Smmt;
use gpu_mem::{Addr, CtaId, Cycle, TenantId, WarpId};
use sim_obs::{TraceEvent, TraceRecorder, Track};

/// A memory-system completion event scheduled for a future cycle (either
/// computed synchronously by a private port or delivered by the chip engine
/// at an epoch boundary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum ResponseEvent {
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
pub(crate) struct Sm {
    config: GpuConfig,
    scheduler: Box<dyn WarpScheduler>,
    redirect: Option<Box<dyn RedirectCache>>,

    l1d: SetAssocCache,
    shared_mem: SharedMemory,
    smmt: Smmt,
    mshr: Mshr,
    /// The SM's injection link: every downstream request crosses it first.
    pub(crate) interconnect: Interconnect,
    /// The SM's port into the downstream memory system, which the chip
    /// engine drains, feeds utilisation snapshots and reads statistics from.
    pub(crate) port: MemoryPort,

    /// The warp slots with their ready, timed and fetched masks.
    warps: WarpSlots,
    /// Warps in `warps` that have not finished.
    unfinished: usize,
    /// Slots held by resident CTAs: set at launch, cleared at CTA retire.
    occupied: SlotSet,
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
    /// The scheduler's [`WarpScheduler::throttles_loads_only`], which never
    /// changes.
    loads_only: bool,
    /// The warp whose global load the full MSHR file last turned away, and
    /// the file's [`Mshr::version`] then: until the file changes, a retry
    /// of the same load is turned away without coalescing and probing it
    /// again.
    refused_load: Option<(usize, u64)>,
    /// The blocks of the global access being issued (reused every issue).
    blocks_scratch: Vec<Addr>,
    /// The scratchpad lane addresses of the shared access being issued.
    lanes_scratch: Vec<u32>,
    /// Set when a warp entered a barrier or finished: only those events
    /// can make a barrier releasable or a CTA retirable, so the next `step`
    /// runs the CTA bookkeeping only then.
    cta_events: bool,
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
        assert!(
            config.max_warps_per_sm <= SlotSet::CAPACITY,
            "an SM holds at most {} warp slots, not {}",
            SlotSet::CAPACITY,
            config.max_warps_per_sm
        );
        let interference = InterferenceMatrix::new(config.max_warps_per_sm);
        let loads_only = scheduler.throttles_loads_only();

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
            warps: WarpSlots::default(),
            unfinished: 0,
            occupied: SlotSet::default(),
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
            loads_only,
            refused_load: None,
            blocks_scratch: Vec::new(),
            lanes_scratch: Vec::new(),
            cta_events: false,
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

    /// Aggregate statistics (complete after [`Sm::finalize_stats`]).
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
    /// issue. `items` is left empty, with its capacity.
    pub fn push_work(&mut self, items: &mut Vec<CtaWork>, now: Cycle) {
        if items.is_empty() {
            return;
        }
        if self.is_done() && !self.hit_cap() {
            self.cycle = self.cycle.max(now);
            self.warps.promote(self.cycle);
        }
        self.work.append(items);
        self.launch_ctas();
        self.update_redirect_capacity();
    }

    /// Warp slots not taken by resident CTAs or by queued work that has not
    /// launched yet — what the adaptive dispatcher treats as this SM's free
    /// capacity when dealing CTAs.
    pub fn free_warp_slots(&self) -> usize {
        let queued: usize =
            self.work[self.next_work.min(self.work.len())..].iter().map(|w| w.warps.max(1)).sum();
        self.config.max_warps_per_sm.saturating_sub(self.occupied.len() + queued)
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

    /// Advances the SM to (at most) cycle `until` — one epoch of the chip
    /// engine's boundary loop, or the whole run at `Cycle::MAX` —
    /// fast-forwarding the stretches it holds still on unless it is in
    /// stepping mode. Stops early when the kernel finishes or a cap is hit;
    /// does not finalise statistics ([`Sm::finalize_stats`] does).
    /// Bit-identical to stepping every cycle.
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
    ///   - is held back by the SM's one throttle rule
    ///     (`Sm::held_by_throttle`, which never holds a `Barrier`);
    /// - *replay*: warp `idx` retries a global load that the full MSHR file
    ///   turned away on the last stepped cycle. Its retry cycle is exactly
    ///   now (it was promoted from `Executing { until: now }`, as the
    ///   replay left it) and it is not held back by the same rule — the
    ///   last `pick` may have moved the throttle set (CCWS's recompute,
    ///   statPCAL's sample) after returning the warp. Every other ready
    ///   warp already holds a fetched op and none was promoted now.
    ///
    /// In both, no pending memory response is due (a replay's MSHR file
    /// stays full) and `step` has no CTA or sampler bookkeeping due
    /// ([`Sm::bookkeeping_due`]). The target is the earliest of the next
    /// response, the next write-back cycle of an `Executing` warp, the
    /// cycle cap and `until`; and when any warp is ready, the scheduler's
    /// [`WarpScheduler::hold_horizon`] bounds it too. Fully idle stretches
    /// never consult the scheduler. The masks answer every test but the
    /// throttle rule's, which comes from `Sm::held`.
    fn skip_target(&self, until: Cycle, snapshot_until: Cycle) -> Option<Cycle> {
        let now = self.cycle;
        let ready = self.warps.ready();
        // A ready warp ends an idle stretch unless the last stepped cycle
        // was throttle-only: a busy cycle is turned away here.
        if self.stepping
            || until <= now
            || self.replayed.is_none() && !self.throttle_only_last && !ready.is_empty()
        {
            return None;
        }
        // Every warp is promoted at its write-back cycle, so the executing
        // warps all wake later, the earliest at `next_wake`.
        let mut target = until.min(self.warps.next_wake());
        if let Some(&Reverse((when, _))) = self.pending.peek() {
            if when <= now {
                return None;
            }
            target = target.min(when);
        }
        let holds = match self.replayed {
            // The replaying warp retries now, woken alone at this cycle.
            Some(idx) => {
                let woken = self.warps.woken_at(now);
                woken.contains(idx)
                    && woken.len() == 1
                    && (ready & !self.warps.fetched()).is_empty()
                    && !self.held().contains(idx)
            }
            None => {
                ready.is_empty() || self.throttle_only_last && (ready & !self.held()).is_empty()
            }
        };
        if !holds || self.bookkeeping_due() {
            return None;
        }
        if let Some(m) = self.config.max_cycles {
            target = target.min(m);
        }
        if !ready.is_empty() || self.replayed.is_some() {
            let utilization_at = |t| self.port.known_dram_utilization(t, snapshot_until);
            let ctx = Self::hold_ctx(
                &self.warps,
                self.replayed.into_iter().collect(),
                self.stats.instructions,
                self.unfinished,
                &utilization_at,
                now,
            );
            target = target.min(now.saturating_add(self.scheduler.hold_horizon(&ctx)));
        }
        (target > now).then_some(target)
    }

    /// True when the next [`Sm::step`] has work to do even if no warp
    /// issues: the time-series sampler is due (it is instruction-indexed, so
    /// it cannot newly trigger while nothing retires), or a resident CTA has
    /// every warp at a barrier or finished — its barrier is releasable, or
    /// it retires and frees room for a launch. Like the bookkeeping itself,
    /// the CTA walk runs only after a warp entered a barrier or finished.
    fn bookkeeping_due(&self) -> bool {
        self.stats.instructions >= self.snapshot.instructions + self.config.sample_interval_insts
            || self.cta_events
                && self.resident.iter().any(|cta| {
                    cta.warp_slots.iter().all(|&s| {
                        matches!(self.warps[s].state, WarpState::AtBarrier | WarpState::Finished)
                    })
                })
    }

    /// The SM's one throttle rule: true when `scheduler` holds warp `w`
    /// back from issue. Its next op must already be fetched and must not be
    /// a `Barrier` (stalling a warp its CTA waits for at a barrier would
    /// deadlock the CTA; real schedulers are barrier-aware for the same
    /// reason), `is_throttled` must hold for it, and a scheduler that
    /// throttles loads only holds back global-memory ops alone. `step`
    /// offers exactly the ready warps this rule lets through, and
    /// `skip_target` asks the same rule whether a stretch holds, both
    /// through its mask form, `Sm::held`.
    fn held_by_throttle(scheduler: &dyn WarpScheduler, w: &Warp) -> bool {
        match w.pending() {
            None | Some(WarpOp::Barrier) => false,
            Some(op) => {
                scheduler.is_throttled(w.id)
                    && (op.is_global_mem() || !scheduler.throttles_loads_only())
            }
        }
    }

    /// The fetched ops that `Sm::held_by_throttle` holds back now, from
    /// masks: the scheduler's throttled live slots, less the barriers, and
    /// only the global accesses for a scheduler that throttles loads only.
    fn held(&self) -> SlotSet {
        let ops = if self.loads_only {
            self.warps.fetched_global()
        } else {
            self.warps.fetched_non_barrier()
        };
        let held = self.scheduler.throttled(self.occupied) & ops;
        debug_assert_eq!(
            held,
            self.warps
                .fetched()
                .iter()
                .filter(|&i| Self::held_by_throttle(&*self.scheduler, &self.warps[i]))
                .collect(),
            "the scheduler's throttled mask disagrees with its is_throttled answers"
        );
        held
    }

    /// The scheduler context of a held cycle `now`: `ready` is empty on an
    /// idle stretch and names the replaying warp on a replay stretch.
    fn hold_ctx<'a>(
        warps: &'a [Warp],
        ready: SlotSet,
        instructions: u64,
        active_warps: usize,
        dram_utilization_at: &'a dyn Fn(Cycle) -> Option<f64>,
        now: Cycle,
    ) -> SchedulerCtx<'a> {
        SchedulerCtx {
            now,
            warps,
            ready,
            instructions_executed: instructions,
            active_warps,
            dram_utilization_at,
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
                self.warps.update(idx, |w| w.retry_at(target));
                "replay-skip"
            }
            None => {
                // Ready warps can only be present when the stretch is
                // throttle-only, which needs the flag.
                if self.throttle_only_last && !self.warps.ready().is_empty() {
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
        // `run_epoch_event` skips only up to its boundary, before which a
        // deferred port's snapshot holds.
        let utilization_at = |t| self.port.known_dram_utilization(t, target);
        let ctx = Self::hold_ctx(
            &self.warps,
            self.replayed.into_iter().collect(),
            self.stats.instructions,
            self.unfinished,
            &utilization_at,
            target - 1,
        );
        self.scheduler.on_idle_cycles(&ctx, cycles);
        self.cycle = target;
        self.warps.promote(target);
    }

    /// Schedules a memory response computed by the chip engine: `ev` fires
    /// at cycle `done`. Must not be called with `done` in the SM's past —
    /// the engine's epoch clamp guarantees this.
    pub fn deliver(&mut self, done: Cycle, ev: ResponseEvent) {
        debug_assert!(done >= self.cycle, "response delivered into the SM's past");
        self.pending.push(Reverse((done, ev)));
    }

    /// Advances the SM by one cycle (the module docs list the phases).
    ///
    /// The CTA bookkeeping (barrier release, CTA retirement and the
    /// launches it frees room for) walks the resident CTAs only when a warp
    /// entered a barrier or finished since it last ran; on every other
    /// cycle it would find nothing to do. The steady-state issue path
    /// allocates nothing: coalescing and scratchpad lanes use buffers the
    /// SM owns and the MSHR file reuses its merge lists.
    pub fn step(&mut self) {
        let now = self.cycle;
        debug_assert!(
            self.warps.masks_are_consistent(now),
            "the slot masks disagree with the warp states"
        );
        self.replayed = None;
        self.process_responses(now);
        if self.cta_events {
            self.cta_events = false;
            self.release_barriers();
            self.retire_and_launch_ctas();
        }

        // Fetch an op for each ready warp that holds none (a warp whose
        // program ended finishes after the offer is built), then offer the
        // ready warps the throttle rule lets through.
        let mut ready = self.warps.ready();
        let mut finished_now = SlotSet::default();
        let mut offered = SlotSet::default();
        if !ready.is_empty() {
            for i in (ready & !self.warps.fetched()).iter() {
                if !self.warps.fetch(i) {
                    finished_now.insert(i);
                }
            }
            ready = ready & !finished_now;
            offered = ready & !self.held();
        }
        for i in finished_now.iter() {
            self.finish_warp(i, now);
        }
        let any_ready_ignoring_throttle = !ready.is_empty();

        let picked = {
            // `run_epoch_event` steps only before its boundary, so a deferred
            // port's snapshot holds for `now`.
            let utilization_at = |t| self.port.known_dram_utilization(t, now + 1);
            let ctx = SchedulerCtx {
                now,
                warps: &self.warps,
                ready: offered,
                instructions_executed: self.stats.instructions,
                active_warps: self.unfinished,
                dram_utilization_at: &utilization_at,
            };
            // The scheduler is consulted even when nothing is ready: policies
            // whose throttle set moves with time (CCWS's score decay,
            // statPCAL's utilisation sample, CIAO's low-epoch check) use the
            // call to refresh it, otherwise an SM whose only runnable warps
            // are currently throttled would stay idle forever.
            let picked = self.scheduler.pick(&ctx);
            // Defensive: only honour picks that were actually offered.
            picked.filter(|&i| offered.contains(i))
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
        self.warps.promote(self.cycle);
    }

    // ----- CTA management ---------------------------------------------------

    fn launch_ctas(&mut self) {
        while self.next_work < self.work.len() {
            let item = &self.work[self.next_work];
            let warps_per_cta = item.warps.max(1);
            if self.occupied.len() + warps_per_cta > self.config.max_warps_per_sm {
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
                let slot = self.occupied.first_absent();
                self.occupied.insert(slot);
                let warp = Warp::new(slot as WarpId, key, self.launch_seq, program);
                self.launch_seq += 1;
                self.warps.launch(slot, warp);
                self.unfinished += 1;
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

    fn retire_and_launch_ctas(&mut self) {
        let mut retired = false;
        let mut i = 0;
        while i < self.resident.len() {
            let all_done = self.resident[i].warp_slots.iter().all(|&s| self.warps[s].is_finished());
            if all_done {
                let cta = &self.resident[i];
                for &s in &cta.warp_slots {
                    self.occupied.remove(s);
                }
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
            r.set_capacity(u64::from(self.smmt.unused()));
        }
    }

    fn finish_warp(&mut self, idx: usize, now: Cycle) {
        let wid = self.warps[idx].id;
        self.warps.update(idx, Warp::finish);
        self.unfinished -= 1;
        self.cta_events = true;
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
                        warps.update(s, Warp::release_barrier);
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
                        if entry.fill_target == FillTarget::SharedMemory {
                            let wid = entry.waiting_warps.first().copied().unwrap_or(0);
                            if let Some(ev) = self.fill_redirect(block, wid) {
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
                        for &wid in &entry.waiting_warps {
                            self.complete_mem(wid);
                        }
                        self.mshr.recycle(entry);
                    }
                }
                ResponseEvent::WakeWarp(wid) => self.complete_mem(wid),
            }
        }
    }

    /// Fills `block` into the redirect cache (if one is installed) on behalf
    /// of warp `wid` and returns the victim, counting it as cross-warp
    /// interference when another warp owned it.
    fn fill_redirect(&mut self, block: Addr, wid: WarpId) -> Option<EvictedLine> {
        let ev = self.redirect.as_mut()?.fill(block, wid)?;
        if ev.owner != wid {
            self.stats.redirect_cross_warp_evictions += 1;
            self.interference.record(ev.owner, wid);
        }
        Some(ev)
    }

    /// Counts one of warp `wid`'s memory transactions as returned.
    fn complete_mem(&mut self, wid: WarpId) {
        if (wid as usize) < self.warps.len() {
            self.warps.update(wid as usize, Warp::complete_mem);
        }
    }

    fn notify_event(&mut self, ev: CacheEvent) {
        self.scheduler.on_cache_event(&ev);
    }

    // ----- issue --------------------------------------------------------------

    fn issue(&mut self, idx: usize, now: Cycle) {
        let mut blocks = std::mem::take(&mut self.blocks_scratch);
        self.issue_with(idx, now, &mut blocks);
        self.blocks_scratch = blocks;
    }

    /// [`Sm::issue`] with `blocks` as the coalescing buffer.
    fn issue_with(&mut self, idx: usize, now: Cycle, blocks: &mut Vec<Addr>) {
        let wid = self.warps[idx].id;
        // Global accesses are coalesced before the op is taken. Structural
        // back-pressure: a load whose worst-case new MSHR entries do not fit
        // is not issued at all. The warp keeps its op, stays ready and
        // replays on the next cycle; nothing is counted, but the scheduler
        // still sees the attempt.
        match self.warps[idx].pending() {
            Some(WarpOp::Load { space: MemSpace::Global, pattern }) => {
                let refusal = (idx, self.mshr.version());
                let refused = self.refused_load == Some(refusal) || {
                    coalesce_into(pattern, blocks);
                    !self.mshr_can_hold(blocks)
                };
                if refused {
                    self.refused_load = Some(refusal);
                    self.warps.update(idx, |w| w.retry_at(now + 1));
                    self.replayed = Some(idx);
                    self.scheduler.on_issue(wid, true, now);
                    return;
                }
            }
            Some(WarpOp::Store { space: MemSpace::Global, pattern }) => {
                coalesce_into(pattern, blocks)
            }
            _ => {}
        }
        let Some(op) = self.warps.take_op(idx) else {
            return;
        };
        let tenant = self.tenant_of(wid);
        let is_mem = op.is_global_mem();
        self.stats.instructions += 1;
        tenant_slot(&mut self.tenants, tenant).instructions += 1;
        match op {
            WarpOp::Compute { cycles } => {
                self.warps.update(idx, |w| w.start_compute(now + cycles.max(1) as Cycle));
            }
            WarpOp::Barrier => {
                self.stats.barriers += 1;
                self.warps.update(idx, Warp::enter_barrier);
                self.cta_events = true;
            }
            WarpOp::Load { space: MemSpace::Shared, pattern }
            | WarpOp::Store { space: MemSpace::Shared, pattern } => {
                self.stats.shared_mem_instructions += 1;
                let size = self.config.shared_mem.size_bytes as u64;
                self.lanes_scratch.clear();
                self.lanes_scratch.extend(pattern.lanes().map(|a| (a % size) as u32));
                let lat = self.shared_mem.access(&self.lanes_scratch);
                self.warps.update(idx, |w| w.start_compute(now + lat));
            }
            WarpOp::Load { space: MemSpace::Global, .. } => {
                self.issue_global(idx, wid, blocks, false, now);
            }
            WarpOp::Store { space: MemSpace::Global, .. } => {
                self.issue_global(idx, wid, blocks, true, now);
            }
        }
        self.scheduler.on_issue(wid, is_mem, now);
    }

    /// True when the MSHR file can hold the worst-case number of new entries
    /// a load of `blocks` needs (blocks already in flight merge, so the file
    /// is searched only when the free entries alone fall short, and only
    /// until more blocks than free entries turn out to be new).
    fn mshr_can_hold(&self, blocks: &[Addr]) -> bool {
        let free = self.config.mshr_entries - self.mshr.in_flight();
        blocks.len() <= free || blocks.iter().filter(|&&b| !self.mshr.probe(b)).nth(free).is_none()
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

        let route = self.scheduler.route(wid);
        let mut outstanding = 0u32;
        let mut immediate_latency: Cycle = self.config.l1d.latency;

        for &block in blocks {
            match route {
                MemRoute::Bypass => {
                    // A bypassed read wakes its warp directly (no MSHR
                    // entry); a bypassed write never blocks it.
                    self.stats.bypassed_requests += 1;
                    let event = (!is_write).then_some(ResponseEvent::WakeWarp(wid));
                    self.send(block, wid, is_write, true, event, now);
                    outstanding += u32::from(!is_write);
                }
                MemRoute::RedirectCache if self.redirect.is_some() => {
                    let extra = self.access_redirect(wid, block, is_write, now, &mut outstanding);
                    immediate_latency = immediate_latency.max(extra);
                }
                _ => {
                    let extra = self.access_l1d(wid, block, is_write, now, &mut outstanding);
                    immediate_latency = immediate_latency.max(extra);
                }
            }
        }
        self.warps.update(idx, |w| {
            w.mem_transactions += blocks.len() as u64;
            w.start_mem(outstanding, now + immediate_latency);
        });
    }

    /// The SM's one path downstream: one line-sized request for `block` on
    /// behalf of warp `wid` crosses the SM's injection link, then enters the
    /// memory port. When a private port serves it at once and a warp waits
    /// on it (`event`), its reply is scheduled here; a deferred port's reply
    /// comes back through [`Sm::deliver`].
    fn send(
        &mut self,
        block: Addr,
        wid: WarpId,
        is_write: bool,
        bypass: bool,
        event: Option<ResponseEvent>,
        now: Cycle,
    ) {
        let tenant = self.tenant_of(wid);
        let arrive = self.interconnect.transfer(self.config.l1d.line_size, now, tenant);
        let req = MemRequest { arrive, seq: 0, block, wid, tenant, is_write, bypass, event };
        if let (Some(done), Some(ev)) = (self.port.send(req), event) {
            self.pending.push(Reverse((done, ev)));
        }
    }

    /// Records warp `wid`'s read miss of `block` in the MSHR file, whose
    /// entry fills `target` when the reply returns; a new entry sends the
    /// fetch downstream, a merged one rides on the fetch in flight. Either
    /// adds one outstanding transaction. Returns the extra immediate latency:
    /// 0, or a 20-cycle pipeline bubble when the file is full (rare thanks to
    /// the issue pre-check).
    fn mshr_miss(
        &mut self,
        block: Addr,
        wid: WarpId,
        target: FillTarget,
        now: Cycle,
        outstanding: &mut u32,
    ) -> Cycle {
        match self.mshr.allocate(block, wid, now, target) {
            Ok(MshrAllocation::New) => {
                self.send(block, wid, false, false, Some(ResponseEvent::MshrFill(block)), now);
            }
            Ok(MshrAllocation::Merged) => {}
            Err(_) => return 20,
        }
        *outstanding += 1;
        0
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
            if matches!(res.outcome, AccessOutcome::Hit) {
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
            AccessOutcome::Hit => CacheEventOutcome::Hit { owner: res.hit_owner.unwrap_or(wid) },
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
            AccessOutcome::Hit | AccessOutcome::MissNoAllocate => {
                // A store hit writes through, and a store miss under
                // write-no-allocate is forwarded: either consumes downstream
                // bandwidth but does not block the warp.
                if is_write {
                    self.send(block, wid, true, false, None, now);
                }
                self.config.l1d.latency
            }
            AccessOutcome::Miss => {
                self.config.l1d.latency
                    + self.mshr_miss(block, wid, FillTarget::L1d, now, outstanding)
            }
        }
    }

    /// CIAO redirect path for one block (§IV-B). Returns the immediate
    /// latency to charge when the access completes without an outstanding
    /// miss; falls back to the L1D path when the redirect cache has no
    /// capacity.
    fn access_redirect(
        &mut self,
        wid: WarpId,
        block: Addr,
        is_write: bool,
        now: Cycle,
        outstanding: &mut u32,
    ) -> Cycle {
        // Coherence: check the L1D tag array first; a resident copy is
        // migrated (evict to response queue, invalidate, fill the shared
        // memory), which hides the cold miss.
        if self.l1d.probe(block) {
            let _ = self.l1d.invalidate(block);
            self.stats.l1d_migrations += 1;
            self.fill_redirect(block, wid);
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
            return self.config.l1d.latency + self.config.shared_mem.latency;
        }

        let lookup = self.redirect.as_mut().expect("caller checked").lookup(block, wid, is_write);
        let (outcome, latency) = match lookup {
            RedirectLookup::Hit { latency } => {
                self.stats.redirect_hits += 1;
                (CacheEventOutcome::Hit { owner: wid }, latency)
            }
            RedirectLookup::Miss => {
                self.stats.redirect_misses += 1;
                (CacheEventOutcome::Miss, self.config.shared_mem.latency)
            }
            // No capacity: fall back to the normal L1D path.
            RedirectLookup::Unavailable => {
                return self.access_l1d(wid, block, is_write, now, outstanding)
            }
        };
        self.notify_event(CacheEvent {
            kind: CacheKind::Redirect,
            wid,
            block_addr: block,
            is_write,
            outcome,
            evicted: None,
            now,
        });
        if is_write {
            // Write-through downstream, off the critical path.
            self.send(block, wid, true, false, None, now);
        } else if outcome == CacheEventOutcome::Miss {
            return latency
                + self.mshr_miss(block, wid, FillTarget::SharedMemory, now, outstanding);
        }
        latency
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
    /// utilisation) into [`Sm::stats`]. Idempotent; the chip engine calls it
    /// once the SM stops advancing. An SM on a deferred port
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
        for (t, &bytes) in self.interconnect.tenant_bytes().iter().enumerate() {
            tenant_slot(&mut self.tenants, t as TenantId).xbar_bytes = bytes;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{ClosureKernel, Kernel, KernelInfo};
    use crate::scheduler::GtoScheduler;
    use crate::trace::{MemPattern, VecProgram, WarpOp};
    use std::sync::Arc;

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

    /// `kernel`'s whole grid as the work list of one SM, attributed to
    /// `tenant`.
    fn work_of(kernel: Arc<dyn Kernel>, tenant: TenantId) -> Vec<CtaWork> {
        crate::dispatch::stream_work(&crate::dispatch::KernelStream::new(tenant, kernel))
    }

    /// A GTO-scheduled SM running `kernel` alone on a private partition.
    fn sm_of(config: GpuConfig, kernel: Box<dyn Kernel>) -> Sm {
        let interconnect =
            Interconnect::new(config.interconnect_latency, config.interconnect_bytes_per_cycle);
        let port = MemoryPort::private(config.partition.clone());
        let work = work_of(Arc::from(kernel), 0);
        Sm::with_parts(config, work, Box::new(GtoScheduler::new()), None, interconnect, port)
    }

    /// Runs `sm` until it finishes or hits a cap, stepping every cycle or
    /// skipping the stretches it holds still on, and finalises its stats.
    fn run(sm: &mut Sm, stepping: bool) {
        sm.set_stepping(stepping);
        sm.run_epoch_event(Cycle::MAX);
        sm.finalize_stats();
    }

    #[test]
    fn runs_to_completion() {
        let mut sm = sm_of(small_config(), simple_kernel(2, 4, 10));
        run(&mut sm, true);
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
        let mut sm = sm_of(small_config(), Box::new(kernel));
        run(&mut sm, true);
        assert!(sm.is_done());
        assert_eq!(sm.stats().barriers, 2);
    }

    #[test]
    fn cta_launch_respects_warp_capacity() {
        // 4 CTAs of 24 warps each: only 2 fit at a time on a 48-warp SM.
        let mut sm = sm_of(small_config(), simple_kernel(4, 24, 2));
        assert_eq!(sm.stats.max_resident_ctas.max(sm.resident.len()), 2);
        run(&mut sm, true);
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
        let mut sm = sm_of(small_config(), Box::new(kernel));
        // 30 KB per CTA on a 48 KB scratchpad: only one CTA resident at a time.
        assert_eq!(sm.resident.len(), 1);
        run(&mut sm, true);
        assert!(sm.is_done());
        assert_eq!(sm.stats().peak_cta_shared_mem, 30 * 1024);
    }

    #[test]
    fn instruction_cap_stops_simulation() {
        let cfg = small_config().with_max_instructions(37);
        let mut sm = sm_of(cfg, simple_kernel(1, 8, 1000));
        run(&mut sm, true);
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
        let mut sm = sm_of(small_config(), Box::new(kernel));
        run(&mut sm, true);
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
        let mut sm = sm_of(small_config(), Box::new(kernel));
        run(&mut sm, true);
        let s = sm.stats();
        assert!(s.cross_warp_evictions > 0, "expected cross-warp evictions");
        assert!(sm.interference_matrix().total() > 0);
    }

    #[test]
    fn time_series_sampled() {
        let cfg = small_config().with_sample_interval(10);
        let mut sm = sm_of(cfg, simple_kernel(1, 4, 50));
        run(&mut sm, true);
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
        let mut sm = sm_of(small_config(), Box::new(kernel));
        run(&mut sm, true);
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
            let mut sm = sm_of(small_config(), simple_kernel(2, 4, 10));
            if traced {
                sm.set_trace(7);
            }
            run(&mut sm, true);
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
            let mut sm = sm_of(small_config(), simple_kernel(2, 4, 10));
            sm.set_trace(0);
            run(&mut sm, !event);
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
            let mut sm = sm_of(small_config(), mshr_bound_kernel());
            sm.set_trace(0);
            run(&mut sm, !event);
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
            let mut sm = sm_of(small_config(), mshr_bound_kernel());
            sm.set_stepping(stepping);
            sm.run_epoch_event(40);
            assert_eq!((sm.cycle(), sm.replayed), (40, Some(1)), "mid-stretch boundary");
            sm.push_work(&mut work_of(Arc::clone(&empty), 1), 40);
            run(&mut sm, stepping);
            (sm.stats().clone(), sm.tenant_stats().to_vec())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn slots_past_the_first_bitset_word_step_and_skip_alike() {
        // 80 warp slots need a second live-set word. 8 CTAs of 20 warps
        // run in two waves of 4, so slots 64..80 launch, wait on memory,
        // meet at barriers, finish and are reused.
        let mut config = small_config();
        config.max_warps_per_sm = 80;
        let info = KernelInfo {
            name: "wide".into(),
            num_ctas: 8,
            warps_per_cta: 20,
            shared_mem_per_cta: 0,
        };
        let run = |stepping: bool| {
            let kernel = ClosureKernel::new(info.clone(), |cta, w| {
                let mut ops = Vec::new();
                for i in 0..6u64 {
                    ops.push(WarpOp::coalesced_load(((cta as u64 * 20 + w as u64) * 8 + i) * 128));
                    ops.push(WarpOp::Compute { cycles: 1 + w as u32 % 5 });
                    if i % 2 == 1 {
                        ops.push(WarpOp::Barrier);
                    }
                }
                Box::new(VecProgram::new(ops))
            });
            let mut sm = sm_of(config.clone(), Box::new(kernel));
            run(&mut sm, stepping);
            assert!(sm.is_done());
            assert_eq!(sm.warps.len(), 80, "the second word is in use");
            (sm.stats().clone(), sm.tenant_stats().to_vec(), sm.time_series().clone())
        };
        let stepped = run(true);
        assert_eq!(stepped.0.instructions, 8 * 20 * 15);
        assert_eq!(stepped.0.max_resident_ctas, 4);
        assert!(stepped.0.idle_cycles > 0, "memory waits leave stretches to skip");
        assert_eq!(stepped, run(false));
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
        let mut sm = sm_of(small_config(), Box::new(kernel));
        run(&mut sm, true);
        assert_eq!(sm.stats().shared_mem_instructions, 2);
        assert_eq!(sm.stats().mem_instructions, 0);
    }
}
