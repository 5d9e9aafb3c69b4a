//! statPCAL-style priority-based cache allocation with L1D bypass.
//!
//! The bypass baseline of §V-A: a fixed set of *token-holding* warps uses the
//! L1D normally (like static wavefront limiting), while the remaining warps
//! are allowed to execute but their global accesses *bypass* the L1D and go
//! straight to L2/DRAM whenever spare memory bandwidth exists. When the
//! memory system is already saturated, the non-token warps are throttled
//! instead, because bypassing would only add latency. This recovers TLP
//! relative to Best-SWL but, as the paper observes, the bypassed requests
//! still pay the long DRAM latency, which limits its benefit for LWS and SWS
//! workloads (Fig. 8a) unless DRAM bandwidth is doubled (Fig. 12b).
//!
//! The token holders are the `tokens` oldest unfinished warps, kept exact
//! at every launch and finish by the same set Best-SWL admits from. Besides
//! its greedy pointer, a `pick` changes only the DRAM utilisation sample
//! that decides whether non-token warps are throttled.

use crate::oldest::OldestWarps;
use gpu_mem::{Cycle, WarpId};
use gpu_sim::scheduler::{GtoScheduler, MemRoute, SchedulerCtx, SchedulerMetrics, WarpScheduler};
use gpu_sim::SlotSet;
use serde::{Deserialize, Serialize};

/// statPCAL tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PcalConfig {
    /// Number of token-holding warps that may use the L1D.
    pub tokens: usize,
    /// Non-token warps may run (bypassing the L1D) while DRAM bandwidth
    /// utilisation stays below this threshold; above it they are throttled.
    pub bypass_bandwidth_threshold: f64,
    /// Number of warp slots on the SM.
    pub num_warps: usize,
}

impl PcalConfig {
    /// Default parameters: tokens follow the profiled Best-SWL limit.
    pub fn with_tokens(tokens: usize) -> Self {
        PcalConfig { tokens: tokens.max(1), bypass_bandwidth_threshold: 0.7, num_warps: 48 }
    }
}

/// The statPCAL scheduler.
pub struct PcalScheduler {
    config: PcalConfig,
    /// Token holders: the `tokens` oldest unfinished warps.
    token: OldestWarps,
    /// Most recent DRAM bandwidth utilisation seen in `pick`.
    last_utilization: f64,
    /// The greedy pointer; its fallback order puts token holders first.
    gto: GtoScheduler,
}

impl PcalScheduler {
    /// Creates a statPCAL scheduler.
    pub fn new(config: PcalConfig) -> Self {
        PcalScheduler {
            token: OldestWarps::new(config.tokens),
            last_utilization: 0.0,
            gto: GtoScheduler::new(),
            config,
        }
    }

    /// Whether warp `wid` currently holds a token (uses the L1D).
    pub fn holds_token(&self, wid: WarpId) -> bool {
        self.token.admits(wid)
    }

    fn bandwidth_available(&self) -> bool {
        self.last_utilization < self.config.bypass_bandwidth_threshold
    }

    /// Stores the utilisation sample of cycle `ctx.now`, for which the SM
    /// always vouches.
    fn sample(&mut self, ctx: &SchedulerCtx<'_>) {
        self.last_utilization = (ctx.dram_utilization_at)(ctx.now)
            .expect("the SM vouches for the utilisation of the current cycle");
    }
}

impl WarpScheduler for PcalScheduler {
    fn name(&self) -> &'static str {
        "statPCAL"
    }

    fn pick(&mut self, ctx: &SchedulerCtx<'_>) -> Option<usize> {
        self.sample(ctx);
        // Token warps first (oldest), then bypassing warps.
        let token = &self.token;
        self.gto.pick_by(ctx.ready, |i| (!token.admits(ctx.warps[i].id), ctx.warps[i].launch_seq))
    }

    fn on_idle_cycles(&mut self, ctx: &SchedulerCtx<'_>, _cycles: u64) {
        // A held `pick` still records the bandwidth sample, which
        // `is_throttled` and `metrics` observe; the rest of it is pure,
        // whether nothing is ready or the greedy warp replays (`on_issue`
        // is the no-op default).
        self.sample(ctx);
    }

    fn hold_horizon(&self, ctx: &SchedulerCtx<'_>) -> u64 {
        let greedy =
            ctx.ready.is_empty() || ctx.ready.single().is_some_and(|idx| self.gto.is_greedy(idx));
        if !greedy {
            return 0;
        }
        // A greedy pick changes the throttle only through the sample it
        // stores: cycle `t` holds while that sample is known and keeps the
        // non-token throttle as it is, judged by the very comparison
        // `bandwidth_available` makes. Utilisation does not rise while the
        // SM holds still, so the cycles that hold form a prefix.
        let available = self.bandwidth_available();
        let holds = |t: Cycle| {
            (ctx.dram_utilization_at)(t)
                .is_some_and(|u| (u < self.config.bypass_bandwidth_threshold) == available)
        };
        let now = ctx.now;
        // Find the first cycle that does not hold: double, then bisect.
        let mut last_held = None;
        let mut first_not = now;
        let mut step = 1u64;
        while holds(first_not) {
            if first_not == Cycle::MAX {
                return u64::MAX;
            }
            last_held = Some(first_not);
            first_not = now.saturating_add(step);
            step = step.saturating_mul(2);
        }
        if let Some(mut lo) = last_held {
            while first_not - lo > 1 {
                let mid = lo + (first_not - lo) / 2;
                if holds(mid) {
                    lo = mid;
                } else {
                    first_not = mid;
                }
            }
        }
        // A known sample that flips the throttle still holds its own cycle:
        // only the cycles after it see the new throttle.
        first_not - now + u64::from((ctx.dram_utilization_at)(first_not).is_some())
    }

    fn on_warp_launched(&mut self, wid: WarpId, _now: Cycle) {
        self.token.launch(wid);
    }

    fn on_warp_finished(&mut self, wid: WarpId, _now: Cycle) {
        self.token.finish(wid);
    }

    fn route(&mut self, wid: WarpId) -> MemRoute {
        if self.holds_token(wid) {
            MemRoute::L1d
        } else {
            MemRoute::Bypass
        }
    }

    fn is_throttled(&self, wid: WarpId) -> bool {
        if self.holds_token(wid) {
            false
        } else {
            // Non-token warps run only while spare bandwidth exists.
            !self.bandwidth_available()
        }
    }

    fn throttled(&self, live: SlotSet) -> SlotSet {
        if self.bandwidth_available() {
            SlotSet::default()
        } else {
            live & !self.token.admitted_slots()
        }
    }

    fn throttles_loads_only(&self) -> bool {
        // Non-token warps are only barred from issuing memory requests when
        // the memory system is saturated; their compute still proceeds.
        true
    }

    fn metrics(&self) -> SchedulerMetrics {
        let non_token = self.config.num_warps.saturating_sub(self.token.admitted());
        SchedulerMetrics {
            vta_hits: 0,
            throttled_warps: if self.bandwidth_available() { 0 } else { non_token },
            isolated_warps: 0,
            bypassed_warps: non_token,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::trace::VecProgram;
    use gpu_sim::warp::Warp;

    fn warps(n: usize) -> Vec<Warp> {
        (0..n)
            .map(|i| Warp::new(i as WarpId, 0, i as u64, Box::new(VecProgram::new(vec![]))))
            .collect()
    }

    fn ctx<'a>(
        warps: &'a [Warp],
        ready: &[usize],
        util_at: &'a dyn Fn(Cycle) -> Option<f64>,
    ) -> SchedulerCtx<'a> {
        SchedulerCtx {
            now: 0,
            warps,
            ready: ready.iter().copied().collect(),
            instructions_executed: 0,
            active_warps: warps.len(),
            dram_utilization_at: util_at,
        }
    }

    /// A scheduler with `tokens` tokens and warps `0..4` launched in slot
    /// order.
    fn launched(tokens: usize) -> PcalScheduler {
        let mut s = PcalScheduler::new(PcalConfig {
            tokens,
            bypass_bandwidth_threshold: 0.7,
            num_warps: 4,
        });
        for w in 0..4 {
            s.on_warp_launched(w, 0);
        }
        s
    }

    #[test]
    fn token_warps_use_l1d_others_bypass() {
        let mut s = launched(2);
        assert_eq!(s.route(0), MemRoute::L1d);
        assert_eq!(s.route(1), MemRoute::L1d);
        assert_eq!(s.route(2), MemRoute::Bypass);
        assert_eq!(s.route(3), MemRoute::Bypass);
        assert_eq!(s.metrics().bypassed_warps, 2);
    }

    #[test]
    fn non_token_warps_run_only_with_spare_bandwidth() {
        let mut s = launched(1);
        let w = warps(4);
        s.pick(&ctx(&w, &[0, 1, 2, 3], &|_| Some(0.2)));
        assert!(!s.is_throttled(3), "spare bandwidth: bypass warps may run");
        assert!(s.throttled(SlotSet::below(4)).is_empty());
        s.pick(&ctx(&w, &[0, 1, 2, 3], &|_| Some(0.95)));
        assert!(s.is_throttled(3), "saturated bandwidth: bypass warps throttle");
        assert!(!s.is_throttled(0), "token warps never throttle");
        assert_eq!(s.throttled(SlotSet::below(4)), (1..4).collect());
    }

    /// A private port's utilisation at cycle `t` with `bytes` transferred
    /// at 32 bytes per cycle, as `Dram::bandwidth_utilization` computes it.
    fn private_port(bytes: u64) -> impl Fn(Cycle) -> Option<f64> {
        move |t| Some((bytes as f64 / (32.0 * t.max(1) as f64)).min(1.0))
    }

    /// Steps empty picks one cycle at a time from `now`: the number of
    /// cycles before the first one whose offered set differs, that is the
    /// first pick that flips the non-token throttle, plus that pick.
    fn brute_force_horizon(
        mut s: PcalScheduler,
        w: &[Warp],
        now: Cycle,
        util_at: &dyn Fn(Cycle) -> Option<f64>,
        limit: u64,
    ) -> u64 {
        let throttled = s.is_throttled(3);
        for k in 0..limit {
            if util_at(now + k).is_none() {
                return k;
            }
            s.pick(&SchedulerCtx { now: now + k, ..ctx(w, &[], util_at) });
            if s.is_throttled(3) != throttled {
                return k + 1;
            }
        }
        u64::MAX
    }

    fn throttled_at(util: f64) -> (PcalScheduler, Vec<Warp>) {
        let mut s = launched(1);
        let w = warps(4);
        s.pick(&ctx(&w, &[0, 1, 2, 3], &|_| Some(util)));
        (s, w)
    }

    #[test]
    fn horizon_is_the_first_threshold_crossing() {
        // 7,000 bytes at 32 B/cycle: utilisation crosses 0.7 between cycles
        // 312 and 313 and keeps falling.
        let util_at = private_port(7_000);
        for now in [100, 200, 311, 312, 313, 400] {
            let (s, w) = throttled_at(util_at(now - 1).unwrap());
            let h = s.hold_horizon(&SchedulerCtx { now, ..ctx(&w, &[], &util_at) });
            let brute = brute_force_horizon(s, &w, now, &util_at, 10_000);
            assert_eq!(h, brute, "horizon from cycle {now}");
        }
        // Below the threshold the throttle never comes back.
        let (s, w) = throttled_at(util_at(499).unwrap());
        assert!(!s.is_throttled(3));
        assert_eq!(s.hold_horizon(&SchedulerCtx { now: 500, ..ctx(&w, &[], &util_at) }), u64::MAX);
    }

    #[test]
    fn utilisation_exactly_at_the_threshold_keeps_the_throttle() {
        // 7 bytes per 10 cycles at 1 B/cycle lands on 0.7 exactly at cycle
        // 10 (`7.0 / 10.0 == 0.7` in f64): still throttled, since bypass
        // needs utilisation strictly below the threshold.
        let util_at = |t: Cycle| Some(7.0 / t.max(1) as f64);
        assert_eq!(util_at(10), Some(0.7));
        let (s, w) = throttled_at(util_at(4).unwrap());
        let h = s.hold_horizon(&SchedulerCtx { now: 5, ..ctx(&w, &[], &util_at) });
        assert_eq!(h, brute_force_horizon(s, &w, 5, &util_at, 100));
        assert_eq!(h, 7, "cycles 5..=11 hold; the pick at 11 stores 7/11 < 0.7");
    }

    #[test]
    fn horizon_stops_before_an_unknown_sample() {
        // A deferred port's snapshot is known only up to the boundary.
        let util_at = |t: Cycle| (t < 1_000).then_some(0.9);
        let (s, w) = throttled_at(0.9);
        let h = s.hold_horizon(&SchedulerCtx { now: 400, ..ctx(&w, &[], &util_at) });
        assert_eq!(h, 600);
        assert_eq!(h, brute_force_horizon(s, &w, 400, &util_at, 10_000));
    }

    #[test]
    fn replays_hold_only_when_greedy() {
        let (mut s, w) = throttled_at(0.9);
        let util_at = |_: Cycle| Some(0.9);
        assert_eq!(s.pick(&ctx(&w, &[0, 1], &util_at)), Some(0));
        assert_eq!(s.hold_horizon(&ctx(&w, &[0], &util_at)), u64::MAX);
        assert_eq!(s.hold_horizon(&ctx(&w, &[1], &util_at)), 0, "warp 1 is not greedy");
    }

    #[test]
    fn token_warps_preferred_in_pick() {
        let mut s = launched(1);
        let w = warps(4);
        assert_eq!(s.pick(&ctx(&w, &[2, 0, 3], &|_| Some(0.0))), Some(0));
        // Greedy on the chosen warp while it stays ready.
        assert_eq!(s.pick(&ctx(&w, &[0, 2], &|_| Some(0.0))), Some(0));
    }

    #[test]
    fn tokens_move_to_older_waiting_warps_when_holder_finishes() {
        let mut s = launched(1);
        assert!(s.holds_token(0));
        assert!(!s.holds_token(1));
        s.on_warp_finished(0, 0);
        assert!(s.holds_token(1), "the token moves at the finish");
        assert_eq!(s.route(1), MemRoute::L1d);
        // A new warp in the freed slot is the youngest: no token.
        s.on_warp_launched(0, 0);
        assert!(!s.holds_token(0));
        assert_eq!(s.route(0), MemRoute::Bypass);
    }

    #[test]
    fn no_warp_holds_a_token_before_it_launches() {
        let s = PcalScheduler::new(PcalConfig::with_tokens(2));
        assert!(!s.holds_token(0));
        assert_eq!(s.metrics().bypassed_warps, 48);
    }

    #[test]
    fn with_tokens_constructor_clamps() {
        assert_eq!(PcalConfig::with_tokens(0).tokens, 1);
        assert_eq!(PcalConfig::with_tokens(6).tokens, 6);
    }
}
