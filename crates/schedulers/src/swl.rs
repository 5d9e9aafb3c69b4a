//! Best-SWL: static wavefront limiting with an offline-profiled warp count.
//!
//! Best-SWL fixes the number of schedulable warps to `limit` for the whole
//! run; the limit is chosen per benchmark by profiling (the `Nwrp` column of
//! Table II). Among the admitted warps the order is greedy-then-oldest, the
//! same base policy every scheduler in the evaluation uses. Because the limit
//! cannot adapt to phase changes, Best-SWL loses to dynamic schemes on
//! applications such as ATAX whose second phase wants full TLP (Fig. 9a).

use gpu_mem::{Cycle, WarpId};
use gpu_sim::scheduler::{SchedulerCtx, SchedulerMetrics, WarpScheduler};

/// The Best-SWL scheduler.
pub struct SwlScheduler {
    /// Maximum number of concurrently schedulable warps.
    limit: usize,
    /// Warps currently admitted (by warp slot).
    admitted: Vec<bool>,
    /// Warps that finished (candidates are replenished from the rest).
    finished: Vec<bool>,
    last_issued: Option<usize>,
    dirty: bool,
    num_warps: usize,
}

impl SwlScheduler {
    /// Creates a static wavefront-limiting scheduler admitting `limit` warps
    /// out of `num_warps` slots.
    pub fn new(limit: usize, num_warps: usize) -> Self {
        let limit = limit.max(1);
        SwlScheduler {
            limit,
            admitted: vec![false; num_warps],
            finished: vec![false; num_warps],
            last_issued: None,
            dirty: true,
            num_warps,
        }
    }

    /// The configured warp limit.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Re-admits the `limit` oldest unfinished warps.
    fn recompute(&mut self, ctx: &SchedulerCtx<'_>) {
        for a in self.admitted.iter_mut() {
            *a = false;
        }
        let mut candidates: Vec<usize> = ctx
            .warps
            .iter()
            .enumerate()
            .filter(|(i, w)| !w.is_finished() && !self.finished.get(*i).copied().unwrap_or(false))
            .map(|(i, _)| i)
            .collect();
        candidates.sort_by_key(|&i| ctx.warps[i].launch_seq);
        for &i in candidates.iter().take(self.limit) {
            if let Some(slot) = self.admitted.get_mut(ctx.warps[i].id as usize) {
                *slot = true;
            }
        }
        self.dirty = false;
    }
}

impl WarpScheduler for SwlScheduler {
    fn name(&self) -> &'static str {
        "Best-SWL"
    }

    fn pick(&mut self, ctx: &SchedulerCtx<'_>) -> Option<usize> {
        if self.dirty {
            self.recompute(ctx);
        }
        if let Some(last) = self.last_issued {
            if ctx.ready.contains(&last) {
                return Some(last);
            }
        }
        let pick = ctx
            .ready
            .iter()
            .copied()
            .filter(|&i| self.admitted.get(ctx.warps[i].id as usize).copied().unwrap_or(false))
            .min_by_key(|&i| ctx.warps[i].launch_seq)?;
        self.last_issued = Some(pick);
        Some(pick)
    }

    fn on_idle_cycles(&mut self, ctx: &SchedulerCtx<'_>, _skipped: u64) {
        // A held `pick` still clears a pending recompute, which
        // `is_throttled` / `metrics` observe through the dirty flag; the
        // rest of it is pure, whether nothing is ready or the greedy warp
        // replays.
        if self.dirty {
            self.recompute(ctx);
        }
    }

    fn hold_horizon(
        &self,
        ctx: &SchedulerCtx<'_>,
        _dram_utilization_at: &dyn Fn(Cycle) -> Option<f64>,
    ) -> u64 {
        // The admitted set only moves on a recompute, and only launches and
        // finishes (never a pick) schedule one. A clean pick is GTO over the
        // admitted set: greedy on the last issued warp, with no state
        // touched.
        let greedy = match ctx.ready {
            [] => true,
            &[idx] => self.last_issued == Some(idx),
            _ => false,
        };
        if !self.dirty && greedy {
            u64::MAX
        } else {
            0
        }
    }

    fn on_warp_launched(&mut self, wid: WarpId, _now: Cycle) {
        // Slot reuse across CTA waves: the new occupant has not finished.
        if let Some(f) = self.finished.get_mut(wid as usize) {
            *f = false;
        }
        self.dirty = true;
    }

    fn on_warp_finished(&mut self, wid: WarpId, _now: Cycle) {
        if let Some(f) = self.finished.get_mut(wid as usize) {
            *f = true;
        }
        self.dirty = true;
    }

    fn is_throttled(&self, wid: WarpId) -> bool {
        // Until the first recompute the first `limit` slots are admitted.
        if self.dirty {
            return wid as usize >= self.limit && (wid as usize) < self.num_warps;
        }
        !self.admitted.get(wid as usize).copied().unwrap_or(false)
    }

    fn metrics(&self) -> SchedulerMetrics {
        let admitted = if self.dirty {
            self.limit.min(self.num_warps)
        } else {
            self.admitted.iter().filter(|&&a| a).count()
        };
        SchedulerMetrics {
            vta_hits: 0,
            throttled_warps: self.num_warps.saturating_sub(admitted),
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

    fn ctx<'a>(warps: &'a [Warp], ready: &'a [usize]) -> SchedulerCtx<'a> {
        SchedulerCtx {
            now: 0,
            warps,
            ready,
            instructions_executed: 0,
            active_warps: warps.len(),
            dram_utilization: 0.0,
        }
    }

    #[test]
    fn only_first_n_warps_admitted_initially() {
        let s = SwlScheduler::new(2, 8);
        assert!(!s.is_throttled(0));
        assert!(!s.is_throttled(1));
        assert!(s.is_throttled(2));
        assert!(s.is_throttled(7));
        assert_eq!(s.metrics().throttled_warps, 6);
    }

    #[test]
    fn picks_oldest_admitted_ready_warp() {
        let mut s = SwlScheduler::new(2, 4);
        let w = warps(4);
        // Warp 2 and 3 are ready but not admitted; warp 1 is admitted.
        assert_eq!(s.pick(&ctx(&w, &[1, 2, 3])), Some(1));
        // Greedy afterwards.
        assert_eq!(s.pick(&ctx(&w, &[1, 3])), Some(1));
    }

    #[test]
    fn finished_warps_are_replaced() {
        let mut s = SwlScheduler::new(2, 4);
        let mut w = warps(4);
        s.pick(&ctx(&w, &[0, 1, 2, 3]));
        assert!(s.is_throttled(2));
        // Warp 0 finishes; warp 2 should be admitted on the next recompute.
        w[0].finish();
        s.on_warp_finished(0, 0);
        s.pick(&ctx(&w, &[1, 2, 3]));
        assert!(!s.is_throttled(2));
        assert!(s.is_throttled(3));
    }

    fn live(_: Cycle) -> Option<f64> {
        Some(0.0)
    }

    #[test]
    fn throttle_set_holds_only_after_a_recompute() {
        let mut s = SwlScheduler::new(2, 4);
        let w = warps(4);
        assert_eq!(s.hold_horizon(&ctx(&w, &[]), &live), 0, "a recompute is pending");
        s.pick(&ctx(&w, &[]));
        assert_eq!(s.hold_horizon(&ctx(&w, &[]), &live), u64::MAX);
        s.on_warp_launched(3, 0);
        assert_eq!(s.hold_horizon(&ctx(&w, &[]), &live), 0, "a launch marks it dirty");
        s.on_idle_cycles(&ctx(&w, &[]), 10);
        assert_eq!(s.hold_horizon(&ctx(&w, &[]), &live), u64::MAX);
    }

    #[test]
    fn replays_hold_only_when_clean_and_greedy() {
        let mut s = SwlScheduler::new(2, 4);
        let w = warps(4);
        assert_eq!(s.pick(&ctx(&w, &[1, 2])), Some(1));
        assert_eq!(s.hold_horizon(&ctx(&w, &[1]), &live), u64::MAX);
        assert_eq!(s.hold_horizon(&ctx(&w, &[0]), &live), 0, "warp 0 is not the greedy warp");
        s.on_warp_finished(0, 0);
        assert_eq!(
            s.hold_horizon(&ctx(&w, &[1]), &live),
            0,
            "the next pick recomputes the admitted set"
        );
    }

    #[test]
    fn limit_of_at_least_one_enforced() {
        let s = SwlScheduler::new(0, 4);
        assert_eq!(s.limit(), 1);
        assert!(!s.is_throttled(0));
    }

    #[test]
    fn full_limit_never_throttles() {
        let mut s = SwlScheduler::new(48, 48);
        let w = warps(8);
        s.pick(&ctx(&w, &[0, 1, 2]));
        assert_eq!(s.metrics().throttled_warps, 40); // only 8 warps exist; the rest of the slots are vacuous
        assert!((0..8).all(|i| !s.is_throttled(i)));
    }
}
