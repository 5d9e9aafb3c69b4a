//! Best-SWL: static wavefront limiting with an offline-profiled warp count.
//!
//! Best-SWL fixes the number of schedulable warps to `limit` for the whole
//! run; the limit is chosen per benchmark by profiling (the `Nwrp` column of
//! Table II). The admitted warps are the `limit` oldest unfinished ones,
//! kept exact at every launch and finish; the rest are throttled, and the
//! SM offers only admitted warps. Among those the order is
//! greedy-then-oldest, the same base policy every scheduler in the
//! evaluation uses, so `pick` is GTO's and filters nothing. Because the
//! limit cannot adapt to phase changes, Best-SWL loses to dynamic schemes
//! on applications such as ATAX whose second phase wants full TLP (Fig. 9a).

use crate::oldest::OldestWarps;
use gpu_mem::{Cycle, WarpId};
use gpu_sim::scheduler::{GtoScheduler, SchedulerCtx, SchedulerMetrics, WarpScheduler};
use gpu_sim::SlotSet;

/// The Best-SWL scheduler.
pub struct SwlScheduler {
    /// Maximum number of concurrently schedulable warps.
    limit: usize,
    /// The admitted warps: the `limit` oldest unfinished ones.
    admitted: OldestWarps,
    /// The issue order among the admitted warps.
    gto: GtoScheduler,
    num_warps: usize,
}

impl SwlScheduler {
    /// Creates a static wavefront-limiting scheduler admitting `limit` warps
    /// out of `num_warps` slots.
    pub fn new(limit: usize, num_warps: usize) -> Self {
        let limit = limit.max(1);
        SwlScheduler {
            limit,
            admitted: OldestWarps::new(limit),
            gto: GtoScheduler::new(),
            num_warps,
        }
    }

    /// The configured warp limit.
    pub fn limit(&self) -> usize {
        self.limit
    }
}

impl WarpScheduler for SwlScheduler {
    fn name(&self) -> &'static str {
        "Best-SWL"
    }

    fn pick(&mut self, ctx: &SchedulerCtx<'_>) -> Option<usize> {
        self.gto.pick(ctx)
    }

    fn hold_horizon(&self, ctx: &SchedulerCtx<'_>) -> u64 {
        // The admitted set moves only at launches and finishes, never at a
        // pick, so a hold is GTO's.
        self.gto.hold_horizon(ctx)
    }

    fn on_warp_launched(&mut self, wid: WarpId, _now: Cycle) {
        self.admitted.launch(wid);
    }

    fn on_warp_finished(&mut self, wid: WarpId, _now: Cycle) {
        self.admitted.finish(wid);
    }

    fn is_throttled(&self, wid: WarpId) -> bool {
        !self.admitted.admits(wid)
    }

    fn throttled(&self, live: SlotSet) -> SlotSet {
        live & !self.admitted.admitted_slots()
    }

    fn metrics(&self) -> SchedulerMetrics {
        SchedulerMetrics {
            vta_hits: 0,
            throttled_warps: self.num_warps.saturating_sub(self.admitted.admitted()),
            isolated_warps: 0,
            bypassed_warps: 0,
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

    /// A scheduler with warps `0..launched` launched in slot order.
    fn launched(limit: usize, num_warps: usize, launched: usize) -> SwlScheduler {
        let mut s = SwlScheduler::new(limit, num_warps);
        for w in 0..launched {
            s.on_warp_launched(w as WarpId, 0);
        }
        s
    }

    #[test]
    fn first_n_launches_admitted() {
        let s = launched(2, 8, 8);
        assert!(!s.is_throttled(0));
        assert!(!s.is_throttled(1));
        assert!(s.is_throttled(2));
        assert!(s.is_throttled(7));
        assert_eq!(s.metrics().throttled_warps, 6);
        assert_eq!(s.throttled(SlotSet::below(8)), (2..8).collect());
    }

    #[test]
    fn picks_greedy_then_oldest_offered_warp() {
        let mut s = launched(2, 4, 4);
        let w = warps(4);
        // The SM offers only admitted warps; `pick` takes any of them.
        assert_eq!(s.pick(&ctx(&w, &[1, 0])), Some(0));
        assert_eq!(s.pick(&ctx(&w, &[1, 0])), Some(0), "greedy afterwards");
        assert_eq!(s.pick(&ctx(&w, &[1])), Some(1));
    }

    #[test]
    fn finished_warps_are_replaced_at_the_finish() {
        let mut s = launched(2, 4, 4);
        assert!(s.is_throttled(2));
        s.on_warp_finished(0, 0);
        assert!(!s.is_throttled(2), "the oldest waiting warp is admitted at once");
        assert!(s.is_throttled(3));
        // A new warp in the freed slot queues behind the waiting ones.
        s.on_warp_launched(0, 0);
        assert!(s.is_throttled(0));
        s.on_warp_finished(1, 0);
        assert!(!s.is_throttled(3));
        assert!(s.is_throttled(0));
    }

    #[test]
    fn holds_like_gto() {
        let mut s = launched(2, 4, 4);
        let w = warps(4);
        assert_eq!(s.hold_horizon(&ctx(&w, &[])), u64::MAX, "empty picks are pure");
        assert_eq!(s.pick(&ctx(&w, &[1])), Some(1));
        assert_eq!(s.hold_horizon(&ctx(&w, &[1])), u64::MAX);
        assert_eq!(s.hold_horizon(&ctx(&w, &[0])), 0, "warp 0 is not the greedy warp");
    }

    #[test]
    fn limit_of_at_least_one_enforced() {
        let s = launched(0, 4, 2);
        assert_eq!(s.limit(), 1);
        assert!(!s.is_throttled(0));
        assert!(s.is_throttled(1));
    }

    #[test]
    fn full_limit_never_throttles() {
        let s = launched(48, 48, 8);
        assert_eq!(s.metrics().throttled_warps, 40); // only 8 warps exist; the rest of the slots are vacuous
        assert!((0..8).all(|i| !s.is_throttled(i)));
    }
}
