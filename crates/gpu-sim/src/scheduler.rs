//! Warp-scheduler policy interface and the baseline schedulers.
//!
//! The SM consults a [`WarpScheduler`] on every cycle it steps to pick which
//! ready warp issues next, asks it how to *route* each warp's global-memory
//! accesses (L1D, redirect cache, or L1D bypass), and feeds it the cache
//! events it needs to build locality/interference estimators (VTA hits,
//! evictions). The event core does not step every cycle: it asks the
//! scheduler how long the SM may hold still
//! ([`WarpScheduler::hold_horizon`]) and advances it over the skipped
//! stretch in closed form ([`WarpScheduler::on_idle_cycles`]). The SM and
//! the scheduler trade slot masks ([`SlotSet`]): the SM offers the ready
//! warps as one ([`SchedulerCtx::ready`]), and on every cycle it steps
//! asks the scheduler for the live warps it holds back as another
//! ([`WarpScheduler::throttled`]), so the SM keeps no copy of any
//! scheduler's throttle state.
//!
//! The baselines implemented here:
//!
//! * [`GtoScheduler`] — greedy-then-oldest, the base policy every other
//!   scheduler in the paper builds on ("CCWS, Best-SWL, and CIAO-P/T/C
//!   leverage GTO to decide the order of execution of warps", §V-A). Each
//!   of them, and statPCAL, holds one and keeps GTO's greedy pointer
//!   through [`GtoScheduler::pick_by`].
//! * [`LrrScheduler`] — loose round-robin, kept as a sanity baseline.
//!
//! CCWS, Best-SWL and statPCAL live in `ciao-schedulers`; CIAO-T/P/C live in
//! `ciao-core`. They all implement this trait.

use crate::warp::{SlotSet, Warp};
use gpu_mem::cache::EvictedLine;
use gpu_mem::{Addr, Cycle, WarpId};
use serde::{Deserialize, Serialize};

/// Which on-chip structure a warp's global-memory accesses should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemRoute {
    /// Normal path through the L1D cache.
    L1d,
    /// CIAO path: the redirect cache carved out of unused shared memory.
    RedirectCache,
    /// statPCAL-style path: bypass the L1D and go straight to L2/DRAM.
    Bypass,
}

/// Which cache produced a [`CacheEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheKind {
    /// The L1D cache.
    L1d,
    /// The redirect (shared-memory) cache.
    Redirect,
}

/// Outcome recorded in a [`CacheEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheEventOutcome {
    /// The access hit; `owner` is the warp that originally filled the line.
    Hit {
        /// Warp that brought the line into the cache.
        owner: WarpId,
    },
    /// The access missed.
    Miss,
}

/// One L1D / redirect-cache access event, as observed by the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheEvent {
    /// Which cache the event happened in.
    pub kind: CacheKind,
    /// Warp performing the access.
    pub wid: WarpId,
    /// Block-aligned address accessed.
    pub block_addr: Addr,
    /// Whether the access was a write.
    pub is_write: bool,
    /// Hit/miss outcome.
    pub outcome: CacheEventOutcome,
    /// Line evicted by the fill triggered by this access, if any. The evicted
    /// line's `owner` is the *interfered* warp; `wid` is the *interfering*
    /// warp (§III-A terminology).
    pub evicted: Option<EvictedLine>,
    /// Cycle at which the event occurred.
    pub now: Cycle,
}

/// Read-only context handed to the scheduler when it picks a warp.
pub struct SchedulerCtx<'a> {
    /// Current cycle.
    pub now: Cycle,
    /// All warps resident on the SM (indexed by warp id).
    pub warps: &'a [Warp],
    /// The slots (indices into `warps`) of the warps able to issue this
    /// cycle: ready, not finished, and not held back by the scheduler's own
    /// [`WarpScheduler::throttled`] set under the SM's throttle rule.
    /// Iterated in ascending slot order.
    pub ready: SlotSet,
    /// Total dynamic instructions executed on this SM so far.
    pub instructions_executed: u64,
    /// Number of warps that have not yet finished their programs.
    pub active_warps: usize,
    /// The DRAM data-bus utilisation in `[0, 1]` a `pick` at cycle `t` would
    /// see (consulted by bandwidth-aware bypass policies such as statPCAL),
    /// computed only when asked. The SM always vouches for `now`. Over a
    /// stretch on which it holds still the value is non-increasing in `t`
    /// (a private port's traffic is fixed while nothing issues; a deferred
    /// port's snapshot is fixed within an epoch), and `None` from the first
    /// cycle the SM cannot vouch for (a deferred port's snapshot changes at
    /// the next epoch boundary).
    pub dram_utilization_at: &'a dyn Fn(Cycle) -> Option<f64>,
}

/// Counters a scheduler exposes for reporting (harness figures).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SchedulerMetrics {
    /// VTA hits observed so far (locality lost to interference).
    pub vta_hits: u64,
    /// Number of warps currently prevented from issuing by the policy.
    pub throttled_warps: usize,
    /// Number of warps currently routed to the redirect cache.
    pub isolated_warps: usize,
    /// Number of warps currently routed to the bypass path.
    pub bypassed_warps: usize,
}

impl SchedulerMetrics {
    /// Adds another scheduler instance's counters into this one. Multi-SM
    /// runs instantiate one scheduler per SM and report the chip-wide sums.
    pub fn merge(&mut self, other: &SchedulerMetrics) {
        self.vta_hits += other.vta_hits;
        self.throttled_warps += other.throttled_warps;
        self.isolated_warps += other.isolated_warps;
        self.bypassed_warps += other.bypassed_warps;
    }
}

/// A warp-scheduling (and memory-routing) policy.
pub trait WarpScheduler: Send {
    /// Short policy name used in reports ("GTO", "CCWS", "CIAO-C", ...).
    fn name(&self) -> &'static str;

    /// Picks the warp (an index into `ctx.warps`) to issue this cycle.
    ///
    /// The contract: return one of `ctx.ready` whenever `ctx.ready` is
    /// non-empty, and `None` only when it is empty. The SM has already
    /// applied [`WarpScheduler::throttled`] (and
    /// [`WarpScheduler::throttles_loads_only`]) when it built the offer, so a
    /// policy only orders what it is offered and never filters it again.
    fn pick(&mut self, ctx: &SchedulerCtx<'_>) -> Option<usize>;

    /// Advances the scheduler in closed form over `cycles` consecutive
    /// cycles on which the SM *held still* (the event core's skip). `ctx` is
    /// the context of the *last* of them. Two kinds of stretch exist:
    ///
    /// - `ctx.ready` empty: no warp was offered on any of the cycles.
    ///   Either no warp was ready, or every ready warp was throttled by this
    ///   scheduler within its [`WarpScheduler::hold_horizon`]. The scheduler
    ///   must end in exactly the state `cycles` consecutive
    ///   [`WarpScheduler::pick`] calls with an empty ready set would leave.
    /// - `ctx.ready == {idx}`: warp `idx` replayed a global load that the
    ///   full MSHR file turned away on every cycle, within the horizon. The
    ///   scheduler must end in the state `cycles` rounds of a `pick`
    ///   offering `idx` (which returns `idx`) followed by
    ///   [`WarpScheduler::on_issue`] for that warp would leave.
    ///
    /// Schedulers whose empty-ready `pick` is pure (GTO, LRR, Best-SWL) keep
    /// this default no-op. Schedulers that mutate state on empty picks
    /// (CCWS score decay, CIAO low-epoch checks, statPCAL's utilisation
    /// sample) must override it.
    fn on_idle_cycles(&mut self, _ctx: &SchedulerCtx<'_>, _cycles: u64) {}

    /// How many cycles, starting at `ctx.now`, the SM may hold still
    /// before `pick`'s choice, [`WarpScheduler::is_throttled`] or
    /// [`WarpScheduler::on_issue`] could change. The event core skips that
    /// many cycles at most and replays them through
    /// [`WarpScheduler::on_idle_cycles`]. `ctx.ready` names the stretch
    /// as that method does:
    ///
    /// - empty: every cycle is an empty-ready `pick`. The SM asks only when
    ///   some ready warp is held back by the throttle set, and then every
    ///   cycle of the horizon must keep `is_throttled` unchanged for every
    ///   warp: on cycle `k` the SM offers warps by the set left by `k`
    ///   empty picks;
    /// - `{idx}`: every cycle re-picks warp `idx`, which replays a load the
    ///   full MSHR file turns away. Every cycle of the horizon must pick
    ///   `idx` out of any ready set containing it, keep `is_throttled`
    ///   unchanged, and leave `on_issue` for that warp predictable by
    ///   `on_idle_cycles`.
    ///
    /// Nothing retires while the SM holds still, so `ctx.instructions_executed`
    /// and `ctx.active_warps` are fixed across the horizon. A horizon must
    /// not cover a cycle `t` whose `ctx.dram_utilization_at(t)` is `None`.
    ///
    /// The default `0` never skips: such stretches are stepped one cycle at
    /// a time. Stretches on which no warp at all is ready skip without
    /// consulting this method.
    fn hold_horizon(&self, _ctx: &SchedulerCtx<'_>) -> u64 {
        0
    }

    /// Notifies the scheduler that warp `wid` issued an operation. This also
    /// fires for a global load that the full MSHR file turned away and that
    /// replays on a later cycle, so per-issue bookkeeping (CCWS's score
    /// decay) charges replayed attempts too.
    fn on_issue(&mut self, _wid: WarpId, _is_mem: bool, _now: Cycle) {}

    /// Feeds the scheduler an L1D / redirect-cache event.
    fn on_cache_event(&mut self, _ev: &CacheEvent) {}

    /// Notifies the scheduler that a (new) warp was launched into slot `wid`.
    /// Warp slots are reused across CTA waves, so schedulers that keep
    /// per-slot state (throttle flags, scores, finished markers) must reset
    /// it here.
    fn on_warp_launched(&mut self, _wid: WarpId, _now: Cycle) {}

    /// Notifies the scheduler that warp `wid` finished its program.
    fn on_warp_finished(&mut self, _wid: WarpId, _now: Cycle) {}

    /// Asks where warp `wid`'s next global-memory access should go.
    fn route(&mut self, _wid: WarpId) -> MemRoute {
        MemRoute::L1d
    }

    /// True if the policy currently prevents warp `wid` from issuing.
    fn is_throttled(&self, _wid: WarpId) -> bool {
        false
    }

    /// The slots of `live` that [`WarpScheduler::is_throttled`] holds back,
    /// as one mask: at every call it must equal
    /// `{w ∈ live : is_throttled(w)}`. The SM asks on every cycle it
    /// steps, with `live` the slots of its resident CTAs.
    ///
    /// The default asks `is_throttled` once per live slot, so a wrapper
    /// that does not forward this method stays correct and is only slower.
    /// A policy that keeps its throttle state as a mask returns it directly.
    fn throttled(&self, live: SlotSet) -> SlotSet {
        live.iter().filter(|&w| self.is_throttled(w as WarpId)).collect()
    }

    /// When true, a throttled warp is only prevented from issuing
    /// *global-memory* instructions (loads/stores); compute, barrier and
    /// scratchpad instructions still issue. This is CCWS's and statPCAL's
    /// behaviour — they gate the LD/ST unit, not the whole warp — whereas
    /// Best-SWL and CIAO-T stall the warp entirely (the default). The SM
    /// reads it once, when it is built, so it must never change.
    fn throttles_loads_only(&self) -> bool {
        false
    }

    /// Policy-specific counters for reporting.
    fn metrics(&self) -> SchedulerMetrics {
        SchedulerMetrics::default()
    }
}

/// Greedy-then-oldest scheduler.
///
/// Keeps issuing from the most recently issued warp as long as it stays
/// ready; otherwise falls back to the oldest (lowest launch sequence) ready
/// warp. This is the GTO baseline of §V-A (with the set-index hashing
/// enhancement living in the cache model rather than the scheduler).
#[derive(Debug, Default)]
pub struct GtoScheduler {
    last_issued: Option<usize>,
}

impl GtoScheduler {
    /// Creates a GTO scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// The greedy-then-`key` pick every GTO-based policy shares: the last
    /// issued warp while it is still offered in `ready`, otherwise the
    /// offered warp with the minimum `key`, which becomes the greedy warp.
    /// `None` only when `ready` is empty. Ties on `key` go to the lowest
    /// slot.
    pub fn pick_by<K: Ord>(&mut self, ready: SlotSet, key: impl Fn(usize) -> K) -> Option<usize> {
        if let Some(last) = self.last_issued.filter(|&last| ready.contains(last)) {
            return Some(last);
        }
        let pick = ready.iter().min_by_key(|&i| key(i))?;
        self.last_issued = Some(pick);
        Some(pick)
    }

    /// True when warp `idx` is the greedy warp: a `pick` offering it returns
    /// it without touching any state.
    pub fn is_greedy(&self, idx: usize) -> bool {
        self.last_issued == Some(idx)
    }
}

impl WarpScheduler for GtoScheduler {
    fn name(&self) -> &'static str {
        "GTO"
    }

    fn pick(&mut self, ctx: &SchedulerCtx<'_>) -> Option<usize> {
        // Oldest: smallest launch sequence among ready warps.
        self.pick_by(ctx.ready, |i| ctx.warps[i].launch_seq)
    }

    fn throttled(&self, _live: SlotSet) -> SlotSet {
        // GTO throttles nothing, ever.
        SlotSet::default()
    }

    fn hold_horizon(&self, ctx: &SchedulerCtx<'_>) -> u64 {
        // An empty pick is pure, and so is a greedy one.
        if ctx.ready.is_empty() || ctx.ready.single().is_some_and(|idx| self.is_greedy(idx)) {
            u64::MAX
        } else {
            0
        }
    }
}

/// Loose round-robin scheduler: issues from ready warps in cyclic order.
#[derive(Debug, Default)]
pub struct LrrScheduler {
    next: usize,
}

impl LrrScheduler {
    /// Creates a loose round-robin scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl WarpScheduler for LrrScheduler {
    fn name(&self) -> &'static str {
        "LRR"
    }

    fn pick(&mut self, ctx: &SchedulerCtx<'_>) -> Option<usize> {
        if ctx.ready.is_empty() {
            return None;
        }
        let n = ctx.warps.len().max(1);
        for offset in 0..n {
            let candidate = (self.next + offset) % n;
            if ctx.ready.contains(candidate) {
                self.next = (candidate + 1) % n;
                return Some(candidate);
            }
        }
        None
    }

    fn throttled(&self, _live: SlotSet) -> SlotSet {
        SlotSet::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::VecProgram;
    use crate::warp::Warp;

    fn make_warps(n: usize) -> Vec<Warp> {
        (0..n)
            .map(|i| Warp::new(i as WarpId, 0, i as u64, Box::new(VecProgram::new(vec![]))))
            .collect()
    }

    fn ctx<'a>(warps: &'a [Warp], ready: &[usize]) -> SchedulerCtx<'a> {
        SchedulerCtx {
            now: 0,
            warps,
            ready: ready.iter().copied().collect(),
            instructions_executed: 0,
            active_warps: warps.len(),
            dram_utilization_at: &|_| Some(0.0),
        }
    }

    #[test]
    fn gto_prefers_oldest_initially() {
        let warps = make_warps(4);
        let mut s = GtoScheduler::new();
        let ready = vec![2, 1, 3];
        assert_eq!(s.pick(&ctx(&warps, &ready)), Some(1));
    }

    #[test]
    fn gto_is_greedy_on_same_warp() {
        let warps = make_warps(4);
        let mut s = GtoScheduler::new();
        assert_eq!(s.pick(&ctx(&warps, &[0, 1, 2, 3])), Some(0));
        // Warp 0 still ready: keep issuing from it even if others are ready.
        assert_eq!(s.pick(&ctx(&warps, &[1, 0, 3])), Some(0));
        // Warp 0 no longer ready: fall back to the oldest ready warp.
        assert_eq!(s.pick(&ctx(&warps, &[3, 2])), Some(2));
        // And become greedy on that one.
        assert_eq!(s.pick(&ctx(&warps, &[3, 2])), Some(2));
    }

    #[test]
    fn gto_returns_none_when_nothing_ready() {
        let warps = make_warps(2);
        let mut s = GtoScheduler::new();
        assert_eq!(s.pick(&ctx(&warps, &[])), None);
    }

    #[test]
    fn lrr_rotates() {
        let warps = make_warps(3);
        let mut s = LrrScheduler::new();
        assert_eq!(s.pick(&ctx(&warps, &[0, 1, 2])), Some(0));
        assert_eq!(s.pick(&ctx(&warps, &[0, 1, 2])), Some(1));
        assert_eq!(s.pick(&ctx(&warps, &[0, 1, 2])), Some(2));
        assert_eq!(s.pick(&ctx(&warps, &[0, 1, 2])), Some(0));
    }

    #[test]
    fn lrr_skips_unready() {
        let warps = make_warps(3);
        let mut s = LrrScheduler::new();
        assert_eq!(s.pick(&ctx(&warps, &[1])), Some(1));
        assert_eq!(s.pick(&ctx(&warps, &[0, 1])), Some(0));
    }

    #[test]
    fn gto_holds_replays_of_its_greedy_warp_only() {
        let warps = make_warps(3);
        let mut s = GtoScheduler::new();
        assert_eq!(s.hold_horizon(&ctx(&warps, &[0])), 0, "nothing issued yet");
        assert_eq!(s.pick(&ctx(&warps, &[1, 2])), Some(1));
        assert_eq!(s.hold_horizon(&ctx(&warps, &[1])), u64::MAX);
        assert_eq!(s.hold_horizon(&ctx(&warps, &[2])), 0, "warp 2 is not the greedy warp");
        assert_eq!(s.hold_horizon(&ctx(&warps, &[])), u64::MAX, "empty picks are pure");
    }

    #[test]
    fn default_trait_methods() {
        let mut s = LrrScheduler::new();
        assert_eq!(s.route(0), MemRoute::L1d);
        assert!(!s.is_throttled(0));
        let live = SlotSet::below(4);
        assert!(s.throttled(live).is_empty() && GtoScheduler::new().throttled(live).is_empty());
        assert_eq!(s.hold_horizon(&ctx(&make_warps(1), &[])), 0);
        assert_eq!(s.hold_horizon(&ctx(&make_warps(1), &[0])), 0);
        assert_eq!(s.metrics(), SchedulerMetrics::default());
    }
}
