//! CIAO warp scheduling (§III-C, §IV-C, Algorithm 1).
//!
//! The scheduler (like its detector and shared-memory cache) is a strictly
//! **per-SM** structure: it sees one SM's warps, cache events and VTA. On a
//! multi-SM chip run the harness builds one [`CiaoScheduler`] instance per
//! SM and the engine reports their metrics chip-wide via
//! `gpu_sim::SchedulerMetrics::merge` — mirroring the paper's
//! hardware, where every SM carries its own detector/scheduler logic.
//!
//! The scheduler keeps the GTO issue order but reacts to the interference
//! detector at two epoch granularities:
//!
//! * every **high-cutoff epoch** (5000 instructions), for the warp about to
//!   be scheduled: if its IRS exceeds `high-cutoff`, the most interfering
//!   warp recorded in the interference list is either *isolated* (its global
//!   accesses are redirected to the shared-memory cache — CIAO-P action) or,
//!   if it is already isolated (or the variant has no redirect path),
//!   *stalled* (CIAO-T action). The triggering interfered warp is recorded in
//!   the pair list so the decision can be reverted later.
//! * every **low-cutoff epoch** (100 instructions), for stalled or isolated
//!   warps: if the interfered warp that triggered the decision has IRS below
//!   `low-cutoff` or has finished, the warp is reactivated (stall removed
//!   first, reverse order of application) or its requests are routed back to
//!   the L1D.
//!
//! The three evaluated variants share the code path and differ only in which
//! actions are permitted:
//!
//! | variant | isolate (redirect) | stall |
//! |---------|--------------------|-------|
//! | CIAO-P  | yes                | no    |
//! | CIAO-T  | no                 | yes   |
//! | CIAO-C  | yes                | yes   |

use crate::detector::{InterferenceDetector, PairRole};
use crate::params::CiaoParams;
use crate::shmem_cache::SharedMemCache;
use gpu_mem::{Cycle, WarpId};
use gpu_sim::config::GpuConfig;
use gpu_sim::redirect::RedirectCache;
use gpu_sim::scheduler::{
    CacheEvent, CacheEventOutcome, MemRoute, SchedulerCtx, SchedulerMetrics, WarpScheduler,
};
use serde::{Deserialize, Serialize};

/// Which CIAO mechanisms are enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CiaoVariant {
    /// CIAO-P: only redirect interfering warps to the shared-memory cache.
    PartitionOnly,
    /// CIAO-T: only selectively throttle interfering warps.
    ThrottleOnly,
    /// CIAO-C: redirect first, throttle when redirection is insufficient.
    Combined,
}

impl CiaoVariant {
    /// The scheduler name used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            CiaoVariant::PartitionOnly => "CIAO-P",
            CiaoVariant::ThrottleOnly => "CIAO-T",
            CiaoVariant::Combined => "CIAO-C",
        }
    }

    /// Whether the variant may redirect accesses to the shared-memory cache.
    pub fn can_isolate(self) -> bool {
        matches!(self, CiaoVariant::PartitionOnly | CiaoVariant::Combined)
    }

    /// Whether the variant may stall warps.
    pub fn can_throttle(self) -> bool {
        matches!(self, CiaoVariant::ThrottleOnly | CiaoVariant::Combined)
    }

    /// Builds the scheduler plus (for the variants that redirect) the
    /// shared-memory cache to install on the SM's datapath.
    pub fn build(
        self,
        params: &CiaoParams,
        config: &GpuConfig,
    ) -> (Box<dyn WarpScheduler>, Option<Box<dyn RedirectCache>>) {
        let scheduler = Box::new(CiaoScheduler::new(self, *params, config.max_warps_per_sm));
        let redirect: Option<Box<dyn RedirectCache>> = if self.can_isolate() {
            Some(Box::new(SharedMemCache::new(
                config.shared_mem.size_bytes,
                config.shared_mem.latency,
            )))
        } else {
            None
        };
        (scheduler, redirect)
    }
}

/// Per-warp scheduling state mirroring the `V` and `I` bits of §IV-A.
#[derive(Debug, Clone, Copy, Default)]
struct WarpFlags {
    /// `V = 0` means the warp is stalled by CIAO.
    stalled: bool,
    /// `I = 1` means the warp's global accesses go to the shared-memory cache.
    isolated: bool,
    finished: bool,
}

/// The CIAO warp scheduler.
pub struct CiaoScheduler {
    variant: CiaoVariant,
    params: CiaoParams,
    detector: InterferenceDetector,
    flags: Vec<WarpFlags>,
    /// Stall order, so reactivation happens in reverse order (§III-C).
    stall_stack: Vec<WarpId>,
    last_issued: Option<usize>,
    instructions_seen: u64,
    next_high_check: u64,
    next_low_check: u64,
    num_warps: usize,
    /// Diagnostics: how many isolation / stall / reactivation decisions fired.
    decisions: CiaoDecisionCounters,
}

/// Counters describing the decisions CIAO took during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CiaoDecisionCounters {
    /// Warps redirected to the shared-memory cache.
    pub isolations: u64,
    /// Warps stalled.
    pub stalls: u64,
    /// Warps reactivated after a stall.
    pub reactivations: u64,
    /// Warps routed back to the L1D after isolation.
    pub deisolations: u64,
}

impl CiaoScheduler {
    /// Creates a CIAO scheduler of the given variant.
    pub fn new(variant: CiaoVariant, params: CiaoParams, num_warps: usize) -> Self {
        debug_assert!(params.validate().is_ok(), "invalid CIAO parameters");
        CiaoScheduler {
            variant,
            params,
            detector: InterferenceDetector::new(num_warps),
            flags: vec![WarpFlags::default(); num_warps],
            stall_stack: Vec::new(),
            last_issued: None,
            instructions_seen: 0,
            next_high_check: params.high_epoch,
            next_low_check: params.low_epoch,
            num_warps,
            decisions: CiaoDecisionCounters::default(),
        }
    }

    /// The variant of this scheduler instance.
    pub fn variant(&self) -> CiaoVariant {
        self.variant
    }

    /// Decision counters (for analysis and the ablation benches).
    pub fn decisions(&self) -> CiaoDecisionCounters {
        self.decisions
    }

    /// Read access to the interference detector (analysis/tests).
    pub fn detector(&self) -> &InterferenceDetector {
        &self.detector
    }

    /// End-of-high-epoch evaluation (Algorithm 1, lines 20–29) for warp `i`.
    fn high_epoch_check(&mut self, i: WarpId, instructions: u64, active_warps: usize) {
        if self.flags[i as usize].stalled || self.flags[i as usize].finished {
            return;
        }
        let irs_i = self.detector.irs(i, instructions, active_warps);
        if irs_i <= self.params.high_cutoff {
            return;
        }
        let Some(j) = self.detector.top_interferer(i) else {
            return;
        };
        if j == i || (j as usize) >= self.num_warps || self.flags[j as usize].finished {
            return;
        }
        let j_flags = self.flags[j as usize];
        if !j_flags.isolated && self.variant.can_isolate() {
            // Isolate warp j: redirect its requests to the shared-memory cache.
            self.flags[j as usize].isolated = true;
            self.detector.pair_list_mut().set(j, PairRole::Redirect, i);
            self.decisions.isolations += 1;
        } else if !j_flags.stalled && self.variant.can_throttle() {
            // Either already isolated (CIAO-C) or a throttle-only variant:
            // stall warp j.
            self.flags[j as usize].stalled = true;
            self.detector.pair_list_mut().set(j, PairRole::Stall, i);
            self.stall_stack.push(j);
            self.decisions.stalls += 1;
        }
    }

    /// The release predicate of the low-cutoff evaluation (Algorithm 1),
    /// shared by stalls and isolations: the decision `role` recorded for
    /// warp `w` may be reverted once its triggering interfered warp has IRS
    /// at or below `low-cutoff` or has finished, or when no trigger is
    /// recorded.
    fn releasable(
        &self,
        w: WarpId,
        role: PairRole,
        instructions: u64,
        active_warps: usize,
    ) -> bool {
        match self.detector.pair_list().get(w, role) {
            Some(k) => {
                let k_active = (k as usize) < self.num_warps && !self.flags[k as usize].finished;
                let irs_k = self.detector.irs(k, instructions, active_warps);
                !(irs_k > self.params.low_cutoff && k_active)
            }
            None => true,
        }
    }

    /// End-of-low-epoch evaluation (Algorithm 1, lines 4–19): reactivate
    /// stalled warps (in reverse stall order) and un-redirect isolated warps
    /// whose triggering interfered warp has calmed down or finished.
    fn low_epoch_check(&mut self, instructions: u64, active_warps: usize) {
        // Stalled warps: reverse order of stalling to keep TLP high.
        if let Some(&candidate) = self.stall_stack.last() {
            if self.releasable(candidate, PairRole::Stall, instructions, active_warps) {
                self.stall_stack.pop();
                self.flags[candidate as usize].stalled = false;
                self.detector.pair_list_mut().clear(candidate, PairRole::Stall);
                self.decisions.reactivations += 1;
            }
        }
        // Isolated warps: route back to the L1D when their trigger calmed down.
        for w in 0..self.num_warps as u32 {
            if !self.flags[w as usize].isolated || self.flags[w as usize].stalled {
                continue;
            }
            if self.releasable(w, PairRole::Redirect, instructions, active_warps) {
                self.flags[w as usize].isolated = false;
                self.detector.pair_list_mut().clear(w, PairRole::Redirect);
                self.decisions.deisolations += 1;
            }
        }
    }
}

impl WarpScheduler for CiaoScheduler {
    fn name(&self) -> &'static str {
        self.variant.label()
    }

    fn pick(&mut self, ctx: &SchedulerCtx<'_>) -> Option<usize> {
        // Epoch bookkeeping uses the SM-wide instruction count. When nothing
        // is ready (e.g. every runnable warp is currently stalled by CIAO and
        // the rest wait on memory) the low-cutoff evaluation still runs, so
        // stalled warps are reactivated even though no instructions retire.
        self.instructions_seen = ctx.instructions_executed;
        if ctx.instructions_executed >= self.next_low_check || ctx.ready.is_empty() {
            self.next_low_check = ctx.instructions_executed + self.params.low_epoch;
            self.low_epoch_check(ctx.instructions_executed, ctx.active_warps.max(1));
        }

        // GTO: greedy on the last issued warp, else oldest.
        let pick = match self.last_issued.filter(|last| ctx.ready.contains(last)) {
            Some(last) => last,
            None => {
                let oldest = ctx.ready.iter().copied().min_by_key(|&i| ctx.warps[i].launch_seq)?;
                self.last_issued = Some(oldest);
                oldest
            }
        };

        if ctx.instructions_executed >= self.next_high_check {
            self.next_high_check = ctx.instructions_executed + self.params.high_epoch;
            let wid = ctx.warps[pick].id;
            self.high_epoch_check(wid, ctx.instructions_executed, ctx.active_warps.max(1));
        }
        Some(pick)
    }

    fn on_idle_cycles(&mut self, ctx: &SchedulerCtx<'_>, cycles: u64) {
        self.instructions_seen = ctx.instructions_executed;
        // A replay stretch lies below both epoch checks (the hold horizon
        // vouches for it), so its picks run neither evaluation.
        if !ctx.ready.is_empty() {
            return;
        }
        // Every empty-ready `pick` runs the low-cutoff evaluation with the
        // same (instructions, active_warps) arguments — no instructions
        // retire while nothing is ready — so iterating it reaches a fixed
        // point: each call either releases a stalled/isolated warp (bumping a
        // decision counter) or changes nothing. Replaying until the state
        // stops changing (capped at `cycles`) is therefore exact.
        for _ in 0..cycles {
            self.next_low_check = ctx.instructions_executed + self.params.low_epoch;
            let before = (self.stall_stack.len(), self.decisions);
            self.low_epoch_check(ctx.instructions_executed, ctx.active_warps.max(1));
            if (self.stall_stack.len(), self.decisions) == before {
                break;
            }
        }
    }

    fn hold_horizon(
        &self,
        ctx: &SchedulerCtx<'_>,
        _dram_utilization_at: &dyn Fn(Cycle) -> Option<f64>,
    ) -> u64 {
        let holds = match ctx.ready {
            // An empty pick runs only the low-cutoff evaluation, and of that
            // only the stall-stack pop changes `is_throttled`. With nothing
            // retiring, its inputs stay fixed, so a top that is not
            // releasable now stays so (un-redirecting isolated warps leaves
            // the stall records alone).
            [] => self.stall_stack.last().is_none_or(|&top| {
                !self.releasable(
                    top,
                    PairRole::Stall,
                    ctx.instructions_executed,
                    ctx.active_warps.max(1),
                )
            }),
            // Below both epoch checks a pick offering the greedy warp runs
            // neither evaluation and returns it; `on_issue` is the no-op
            // default.
            &[idx] => {
                self.last_issued == Some(idx)
                    && ctx.instructions_executed < self.next_low_check
                    && ctx.instructions_executed < self.next_high_check
            }
            _ => false,
        };
        if holds {
            u64::MAX
        } else {
            0
        }
    }

    fn on_cache_event(&mut self, ev: &CacheEvent) {
        // Both the L1D and the shared-memory cache share the same VTA (§III-C).
        if let CacheEventOutcome::Miss = ev.outcome {
            let _ = self.detector.on_miss(ev.wid, ev.block_addr);
        }
        if let Some(victim) = ev.evicted {
            self.detector.on_eviction(victim.owner, victim.block_addr, ev.wid);
        }
    }

    fn on_warp_launched(&mut self, wid: WarpId, _now: Cycle) {
        // Warp slots are reused across CTA waves: the new occupant starts
        // active (V=1), not isolated (I=0) and with clean pair-list records.
        if let Some(f) = self.flags.get_mut(wid as usize) {
            *f = WarpFlags::default();
        }
        self.stall_stack.retain(|&w| w != wid);
        self.detector.pair_list_mut().clear(wid, PairRole::Redirect);
        self.detector.pair_list_mut().clear(wid, PairRole::Stall);
    }

    fn on_warp_finished(&mut self, wid: WarpId, _now: Cycle) {
        if let Some(f) = self.flags.get_mut(wid as usize) {
            f.finished = true;
            f.stalled = false;
            f.isolated = false;
        }
        self.stall_stack.retain(|&w| w != wid);
    }

    fn route(&mut self, wid: WarpId) -> MemRoute {
        if self.variant.can_isolate()
            && self.flags.get(wid as usize).map(|f| f.isolated).unwrap_or(false)
        {
            MemRoute::RedirectCache
        } else {
            MemRoute::L1d
        }
    }

    fn is_throttled(&self, wid: WarpId) -> bool {
        self.flags.get(wid as usize).map(|f| f.stalled).unwrap_or(false)
    }

    fn metrics(&self) -> SchedulerMetrics {
        SchedulerMetrics {
            vta_hits: self.detector.total_vta_hits(),
            throttled_warps: self.flags.iter().filter(|f| f.stalled && !f.finished).count(),
            isolated_warps: self.flags.iter().filter(|f| f.isolated && !f.finished).count(),
            bypassed_warps: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_mem::cache::EvictedLine;
    use gpu_sim::scheduler::CacheKind;
    use gpu_sim::trace::VecProgram;
    use gpu_sim::warp::Warp;

    fn warps(n: usize) -> Vec<Warp> {
        (0..n)
            .map(|i| Warp::new(i as WarpId, 0, i as u64, Box::new(VecProgram::new(vec![]))))
            .collect()
    }

    fn ctx<'a>(warps: &'a [Warp], ready: &'a [usize], insts: u64) -> SchedulerCtx<'a> {
        SchedulerCtx {
            now: 0,
            warps,
            ready,
            instructions_executed: insts,
            active_warps: warps.len(),
            dram_utilization: 0.0,
        }
    }

    /// Makes warp `interferer` evict warp `victim`'s block and the victim
    /// re-reference it, producing one VTA hit attributed to `interferer`.
    fn inject_interference(s: &mut CiaoScheduler, victim: WarpId, interferer: WarpId, addr: u64) {
        s.on_cache_event(&CacheEvent {
            kind: CacheKind::L1d,
            wid: interferer,
            block_addr: addr,
            is_write: false,
            outcome: CacheEventOutcome::Miss,
            evicted: Some(EvictedLine {
                block_addr: addr + 0x10_0000,
                owner: victim,
                dirty: false,
            }),
            now: 0,
        });
        s.on_cache_event(&CacheEvent {
            kind: CacheKind::L1d,
            wid: victim,
            block_addr: addr + 0x10_0000,
            is_write: false,
            outcome: CacheEventOutcome::Miss,
            evicted: None,
            now: 0,
        });
    }

    fn params_fast() -> CiaoParams {
        // Small epochs so unit tests trigger decisions quickly.
        CiaoParams { high_cutoff: 0.01, low_cutoff: 0.005, high_epoch: 10, low_epoch: 5 }
    }

    #[test]
    fn variant_capabilities() {
        assert!(
            CiaoVariant::PartitionOnly.can_isolate() && !CiaoVariant::PartitionOnly.can_throttle()
        );
        assert!(
            !CiaoVariant::ThrottleOnly.can_isolate() && CiaoVariant::ThrottleOnly.can_throttle()
        );
        assert!(CiaoVariant::Combined.can_isolate() && CiaoVariant::Combined.can_throttle());
        assert_eq!(CiaoVariant::Combined.label(), "CIAO-C");
    }

    #[test]
    fn build_installs_redirect_cache_only_when_isolating() {
        let cfg = GpuConfig::gtx480();
        let p = CiaoParams::default();
        assert!(CiaoVariant::PartitionOnly.build(&p, &cfg).1.is_some());
        assert!(CiaoVariant::Combined.build(&p, &cfg).1.is_some());
        assert!(CiaoVariant::ThrottleOnly.build(&p, &cfg).1.is_none());
    }

    #[test]
    fn ciao_p_isolates_the_interfering_warp() {
        let mut s = CiaoScheduler::new(CiaoVariant::PartitionOnly, params_fast(), 4);
        let w = warps(4);
        // Warp 1 interferes with warp 0 heavily.
        for k in 0..20 {
            inject_interference(&mut s, 0, 1, k * 128);
        }
        // Warp 0 is picked at the end of a high epoch; IRS_0 = 20/(100/4) >> cutoff.
        assert_eq!(s.pick(&ctx(&w, &[0, 1, 2, 3], 100)), Some(0));
        assert_eq!(s.route(1), MemRoute::RedirectCache, "interferer must be isolated");
        assert_eq!(s.route(0), MemRoute::L1d);
        assert!(!s.is_throttled(1), "CIAO-P never stalls");
        assert_eq!(s.metrics().isolated_warps, 1);
        assert_eq!(s.decisions().isolations, 1);
    }

    #[test]
    fn ciao_t_stalls_the_interfering_warp() {
        let mut s = CiaoScheduler::new(CiaoVariant::ThrottleOnly, params_fast(), 4);
        let w = warps(4);
        for k in 0..20 {
            inject_interference(&mut s, 0, 1, k * 128);
        }
        s.pick(&ctx(&w, &[0, 1, 2, 3], 100));
        assert!(s.is_throttled(1), "CIAO-T must stall the interferer");
        assert_eq!(s.route(1), MemRoute::L1d, "CIAO-T never redirects");
        assert_eq!(s.metrics().throttled_warps, 1);
    }

    #[test]
    fn ciao_c_isolates_first_then_stalls() {
        let mut s = CiaoScheduler::new(CiaoVariant::Combined, params_fast(), 4);
        let w = warps(4);
        for k in 0..20 {
            inject_interference(&mut s, 0, 1, k * 128);
        }
        s.pick(&ctx(&w, &[0, 1, 2, 3], 100));
        assert_eq!(s.route(1), MemRoute::RedirectCache);
        assert!(!s.is_throttled(1));
        // Warp 1 keeps interfering (now at the shared-memory cache): the next
        // high-epoch check stalls it.
        for k in 20..40 {
            inject_interference(&mut s, 0, 1, k * 128);
        }
        s.pick(&ctx(&w, &[0, 1, 2, 3], 200));
        assert!(s.is_throttled(1), "persistent interference must escalate to a stall");
        assert_eq!(s.decisions().stalls, 1);
    }

    #[test]
    fn stalled_warp_reactivates_when_trigger_calms_down() {
        let mut s = CiaoScheduler::new(CiaoVariant::ThrottleOnly, params_fast(), 4);
        let w = warps(4);
        for k in 0..20 {
            inject_interference(&mut s, 0, 1, k * 128);
        }
        s.pick(&ctx(&w, &[0, 1, 2, 3], 100));
        assert!(s.is_throttled(1));
        // Many instructions later warp 0's IRS (cumulative hits / per-warp
        // instructions) has decayed below the low cutoff: 20/(20000/4) = 0.004.
        s.pick(&ctx(&w, &[0, 2, 3], 20_000));
        assert!(!s.is_throttled(1), "stall must lift once IRS of the trigger drops");
        assert_eq!(s.decisions().reactivations, 1);
    }

    #[test]
    fn stalled_warp_reactivates_when_trigger_finishes() {
        let mut s = CiaoScheduler::new(CiaoVariant::ThrottleOnly, params_fast(), 4);
        let w = warps(4);
        for k in 0..50 {
            inject_interference(&mut s, 0, 1, k * 128);
        }
        s.pick(&ctx(&w, &[0, 1, 2, 3], 100));
        assert!(s.is_throttled(1));
        s.on_warp_finished(0, 0);
        s.pick(&ctx(&w, &[1, 2, 3], 110));
        assert!(!s.is_throttled(1), "trigger finished: the stalled warp must reactivate");
    }

    #[test]
    fn isolated_warp_routes_back_when_trigger_calms_down() {
        let mut s = CiaoScheduler::new(CiaoVariant::PartitionOnly, params_fast(), 4);
        let w = warps(4);
        for k in 0..20 {
            inject_interference(&mut s, 0, 1, k * 128);
        }
        s.pick(&ctx(&w, &[0, 1, 2, 3], 100));
        assert_eq!(s.route(1), MemRoute::RedirectCache);
        s.pick(&ctx(&w, &[0, 1, 2, 3], 20_000));
        assert_eq!(s.route(1), MemRoute::L1d, "isolation must end once the trigger calms down");
        assert_eq!(s.decisions().deisolations, 1);
    }

    #[test]
    fn reactivation_happens_in_reverse_stall_order() {
        let mut s = CiaoScheduler::new(CiaoVariant::ThrottleOnly, params_fast(), 6);
        let w = warps(6);
        // Warp 1 interferes with warp 0; stall it at instruction 100.
        for k in 0..30 {
            inject_interference(&mut s, 0, 1, k * 128);
        }
        s.pick(&ctx(&w, &[0, 1, 2, 3, 4, 5], 100));
        assert!(s.is_throttled(1));
        // Warp 2 interferes with warp 3; stall it at instruction 200 (warp 0
        // is not ready on this cycle, so warp 3 is the scheduled warp whose
        // IRS is evaluated).
        for k in 100..140 {
            inject_interference(&mut s, 3, 2, k * 128);
        }
        s.pick(&ctx(&w, &[3, 4, 5], 200));
        assert!(s.is_throttled(2));
        // When pressure drops, warp 2 (stalled last) must reactivate first.
        s.pick(&ctx(&w, &[0, 3, 4, 5], 100_000));
        assert!(!s.is_throttled(2));
        assert!(s.is_throttled(1), "reverse order: warp 1 is released on a later epoch");
        s.pick(&ctx(&w, &[0, 2, 3, 4, 5], 100_200));
        assert!(!s.is_throttled(1));
    }

    fn live(_: Cycle) -> Option<f64> {
        Some(0.0)
    }

    #[test]
    fn throttle_set_holds_while_the_stall_top_cannot_release() {
        let mut s = CiaoScheduler::new(CiaoVariant::ThrottleOnly, params_fast(), 4);
        let w = warps(4);
        assert_eq!(s.hold_horizon(&ctx(&w, &[], 100), &live), u64::MAX, "empty stall stack");
        for k in 0..20 {
            inject_interference(&mut s, 0, 1, k * 128);
        }
        s.pick(&ctx(&w, &[0, 1, 2, 3], 100));
        assert!(s.is_throttled(1));
        // Trigger warp 0 still interfered with: IRS 20/(100/4) above low-cutoff.
        assert_eq!(s.hold_horizon(&ctx(&w, &[], 100), &live), u64::MAX);
        // Same records, but far more instructions: IRS 20/(20000/4) calmed down.
        assert_eq!(s.hold_horizon(&ctx(&w, &[], 20_000), &live), 0);
        // The trigger finishing releases the stall too.
        s.on_warp_finished(0, 0);
        assert_eq!(s.hold_horizon(&ctx(&w, &[], 100), &live), 0);
    }

    #[test]
    fn replays_hold_only_between_epoch_checks() {
        // Low check due at 5, high check at 10 (`params_fast`).
        let mut s = CiaoScheduler::new(CiaoVariant::Combined, params_fast(), 4);
        let w = warps(4);
        assert_eq!(s.pick(&ctx(&w, &[1, 2], 0)), Some(1));
        assert_eq!(s.hold_horizon(&ctx(&w, &[1], 0), &live), u64::MAX);
        assert_eq!(s.hold_horizon(&ctx(&w, &[2], 0), &live), 0, "warp 2 is not the greedy warp");
        assert_eq!(s.hold_horizon(&ctx(&w, &[1], 5), &live), 0, "the low-epoch check is due");
        // Run the low check at 6 (next due at 11): the high check at 10 is
        // now the earlier horizon.
        assert_eq!(s.pick(&ctx(&w, &[1], 6)), Some(1));
        assert_eq!(s.hold_horizon(&ctx(&w, &[1], 9), &live), u64::MAX);
        assert_eq!(s.hold_horizon(&ctx(&w, &[1], 10), &live), 0, "the high-epoch check is due");
    }

    #[test]
    fn no_decisions_without_interference() {
        let mut s = CiaoScheduler::new(CiaoVariant::Combined, params_fast(), 4);
        let w = warps(4);
        for step in 0..50u64 {
            s.pick(&ctx(&w, &[0, 1, 2, 3], step * 10));
        }
        assert_eq!(s.decisions(), CiaoDecisionCounters::default());
        assert_eq!(s.metrics().throttled_warps, 0);
        assert_eq!(s.metrics().isolated_warps, 0);
    }

    #[test]
    fn gto_order_is_preserved() {
        let mut s = CiaoScheduler::new(CiaoVariant::Combined, CiaoParams::default(), 4);
        let w = warps(4);
        assert_eq!(s.pick(&ctx(&w, &[2, 1, 3], 0)), Some(1));
        // Greedy on warp 1 while it stays ready.
        assert_eq!(s.pick(&ctx(&w, &[3, 1], 1)), Some(1));
        // Falls back to oldest when warp 1 stalls.
        assert_eq!(s.pick(&ctx(&w, &[3, 2], 2)), Some(2));
    }
}
