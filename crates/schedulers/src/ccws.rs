//! Cache-Conscious Wavefront Scheduling (CCWS).
//!
//! CCWS detects warps that keep *losing* intra-warp locality to interference
//! (via VTA hits) and gives them more exclusive access to the L1D by
//! throttling the warps with the least evidence of locality. Each warp has a
//! lost-locality score (LLS) that starts at a base value, grows on every VTA
//! hit and decays as the warp issues instructions without losing locality.
//! The scheduler keeps the total score of *runnable* warps under a fixed
//! budget (`num_warps × base_score`): when scores grow past the budget, the
//! lowest-score warps are throttled — i.e. CCWS throttles warps with *low*
//! potential of data locality, the exact opposite of CIAO's choice, which is
//! the comparison at the heart of the paper.

use crate::vta::{Vta, VtaConfig};
use gpu_mem::{Cycle, WarpId};
use gpu_sim::scheduler::{
    CacheEvent, CacheEventOutcome, SchedulerCtx, SchedulerMetrics, WarpScheduler,
};
use serde::{Deserialize, Serialize};

/// CCWS tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CcwsConfig {
    /// Victim-tag-array geometry.
    pub vta: VtaConfig,
    /// Base lost-locality score every runnable warp holds.
    pub base_score: u64,
    /// Score added on each VTA hit.
    pub vta_hit_bonus: u64,
    /// Score removed from a warp each time it issues an instruction (decay
    /// towards the base).
    pub decay_per_issue: u64,
    /// Number of warps the SM can hold (sets the score budget).
    pub num_warps: usize,
}

impl Default for CcwsConfig {
    fn default() -> Self {
        CcwsConfig {
            vta: VtaConfig::ccws(),
            base_score: 100,
            vta_hit_bonus: 256,
            decay_per_issue: 4,
            num_warps: 48,
        }
    }
}

/// The CCWS scheduler.
pub struct CcwsScheduler {
    config: CcwsConfig,
    vta: Vta,
    /// Lost-locality score per warp slot.
    scores: Vec<u64>,
    /// Warps whose programs have finished (excluded from the budget).
    finished: Vec<bool>,
    /// Warps currently prevented from issuing.
    throttled: Vec<bool>,
    /// GTO greedy pointer.
    last_issued: Option<usize>,
    /// Set when scores changed and the throttle set must be recomputed.
    dirty: bool,
}

impl CcwsScheduler {
    /// Creates a CCWS scheduler with the given configuration.
    pub fn new(config: CcwsConfig) -> Self {
        CcwsScheduler {
            vta: Vta::new(config.vta),
            scores: vec![config.base_score; config.num_warps],
            finished: vec![false; config.num_warps],
            throttled: vec![false; config.num_warps],
            last_issued: None,
            dirty: true,
            config,
        }
    }

    /// Creates a CCWS scheduler with the paper's default parameters.
    pub fn default_config() -> Self {
        Self::new(CcwsConfig::default())
    }

    /// Current lost-locality score of a warp (exposed for tests/analysis).
    pub fn score_of(&self, wid: WarpId) -> u64 {
        self.scores.get(wid as usize).copied().unwrap_or(0)
    }

    /// Recomputes the throttle set: warps are admitted in descending score
    /// order until the cumulative score exceeds the budget; the rest are
    /// throttled. Warps that already finished are ignored.
    fn recompute_throttle(&mut self) {
        let budget = self.config.base_score * self.config.num_warps as u64;
        let mut order: Vec<usize> = (0..self.scores.len()).filter(|&i| !self.finished[i]).collect();
        order.sort_by(|&a, &b| self.scores[b].cmp(&self.scores[a]).then(a.cmp(&b)));
        let mut cumulative = 0u64;
        for t in self.throttled.iter_mut() {
            *t = false;
        }
        let mut admitted_any = false;
        for &i in &order {
            cumulative += self.scores[i];
            if cumulative > budget && admitted_any {
                self.throttled[i] = true;
            } else {
                admitted_any = true;
            }
        }
        self.dirty = false;
    }
}

impl WarpScheduler for CcwsScheduler {
    fn name(&self) -> &'static str {
        "CCWS"
    }

    fn pick(&mut self, ctx: &SchedulerCtx<'_>) -> Option<usize> {
        // Forward-progress guarantee: when nothing is currently issuable
        // (every non-throttled warp waits on memory or a barrier), lost-
        // locality scores decay with time as in the original proposal, so
        // the throttle set eventually relaxes instead of freezing.
        if ctx.ready.is_empty() {
            let floor = self.config.base_score;
            let mut changed = false;
            for score in self.scores.iter_mut() {
                if *score > floor {
                    *score = score.saturating_sub(1).max(floor);
                    changed = true;
                }
            }
            self.dirty |= changed;
        }
        if self.dirty {
            self.recompute_throttle();
        }
        // Greedy on the last issued warp if still offered.
        if let Some(last) = self.last_issued {
            if ctx.ready.contains(&last) {
                return Some(last);
            }
        }
        // Otherwise prefer the ready warp with the highest lost-locality
        // score (most evidence of locality), oldest on ties.
        let pick = ctx.ready.iter().copied().max_by(|&a, &b| {
            let sa = self.scores.get(ctx.warps[a].id as usize).copied().unwrap_or(0);
            let sb = self.scores.get(ctx.warps[b].id as usize).copied().unwrap_or(0);
            sa.cmp(&sb).then(ctx.warps[b].launch_seq.cmp(&ctx.warps[a].launch_seq))
        })?;
        self.last_issued = Some(pick);
        Some(pick)
    }

    fn on_idle_cycles(&mut self, _ctx: &SchedulerCtx<'_>, skipped: u64) {
        // `skipped` empty-ready picks each decay every above-floor score by
        // 1 (clamped to the floor); applying the decay in bulk is exact
        // because `max(x - 1, floor)` iterated k times is `max(x - k, floor)`.
        let floor = self.config.base_score;
        let mut changed = false;
        for score in self.scores.iter_mut() {
            if *score > floor {
                *score = score.saturating_sub(skipped).max(floor);
                changed = true;
            }
        }
        self.dirty |= changed;
        if self.dirty {
            self.recompute_throttle();
        }
    }

    fn replay_stable(&self, ctx: &SchedulerCtx<'_>, idx: usize) -> bool {
        // A clean pick offering the greedy warp returns it untouched, and
        // `on_issue` only decays scores above the floor.
        !self.dirty
            && self.last_issued == Some(idx)
            && self.score_of(ctx.warps[idx].id) <= self.config.base_score
    }

    fn on_issue(&mut self, wid: WarpId, _is_mem: bool, _now: Cycle) {
        if let Some(score) = self.scores.get_mut(wid as usize) {
            let floor = self.config.base_score;
            if *score > floor {
                *score = score.saturating_sub(self.config.decay_per_issue).max(floor);
                self.dirty = true;
            }
        }
    }

    fn on_cache_event(&mut self, ev: &CacheEvent) {
        match ev.outcome {
            CacheEventOutcome::Miss => {
                if self.vta.check_miss(ev.wid, ev.block_addr).is_some() {
                    if let Some(score) = self.scores.get_mut(ev.wid as usize) {
                        *score += self.config.vta_hit_bonus;
                        self.dirty = true;
                    }
                }
            }
            CacheEventOutcome::Hit { .. } => {}
        }
        if let Some(victim) = ev.evicted {
            if victim.owner != ev.wid {
                self.vta.record_eviction(victim.owner, victim.block_addr, ev.wid);
            }
        }
    }

    fn on_warp_launched(&mut self, wid: WarpId, _now: Cycle) {
        // Warp slots are reused across CTA waves: reset the slot's state.
        if let Some(f) = self.finished.get_mut(wid as usize) {
            *f = false;
        }
        if let Some(score) = self.scores.get_mut(wid as usize) {
            *score = self.config.base_score;
        }
        self.dirty = true;
    }

    fn on_warp_finished(&mut self, wid: WarpId, _now: Cycle) {
        if let Some(f) = self.finished.get_mut(wid as usize) {
            *f = true;
        }
        if let Some(score) = self.scores.get_mut(wid as usize) {
            *score = 0;
        }
        self.dirty = true;
    }

    fn is_throttled(&self, wid: WarpId) -> bool {
        self.throttled.get(wid as usize).copied().unwrap_or(false)
    }

    fn throttles_loads_only(&self) -> bool {
        // CCWS gates only the LD/ST issue of de-prioritised warps; their
        // arithmetic instructions keep executing.
        true
    }

    fn metrics(&self) -> SchedulerMetrics {
        SchedulerMetrics {
            vta_hits: self.vta.total_hits(),
            throttled_warps: self.throttled.iter().filter(|&&t| t).count(),
            isolated_warps: 0,
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

    fn eviction_event(wid: WarpId, victim_owner: WarpId, addr: u64) -> CacheEvent {
        CacheEvent {
            kind: CacheKind::L1d,
            wid,
            block_addr: addr,
            is_write: false,
            outcome: CacheEventOutcome::Miss,
            evicted: Some(EvictedLine {
                block_addr: addr + 0x8000,
                owner: victim_owner,
                dirty: false,
            }),
            now: 0,
        }
    }

    fn miss_event(wid: WarpId, addr: u64) -> CacheEvent {
        CacheEvent {
            kind: CacheKind::L1d,
            wid,
            block_addr: addr,
            is_write: false,
            outcome: CacheEventOutcome::Miss,
            evicted: None,
            now: 0,
        }
    }

    #[test]
    fn no_throttling_without_vta_hits() {
        let mut s = CcwsScheduler::new(CcwsConfig { num_warps: 8, ..CcwsConfig::default() });
        let w = warps(8);
        s.pick(&ctx(&w, &[0, 1, 2, 3]));
        assert_eq!(s.metrics().throttled_warps, 0);
        assert!((0..8).all(|i| !s.is_throttled(i)));
    }

    #[test]
    fn vta_hits_raise_score_and_throttle_low_locality_warps() {
        let cfg = CcwsConfig {
            num_warps: 4,
            base_score: 100,
            vta_hit_bonus: 300,
            ..CcwsConfig::default()
        };
        let mut s = CcwsScheduler::new(cfg);
        let w = warps(4);
        // Warp 0's data is evicted by warp 1, then warp 0 re-references it.
        s.on_cache_event(&eviction_event(1, 0, 0x1000));
        // The eviction stored block 0x1000+0x8000 = 0x9000 in warp 0's VTA.
        s.on_cache_event(&miss_event(0, 0x9000));
        assert!(s.score_of(0) > 100);
        assert_eq!(s.metrics().vta_hits, 1);
        // Recompute throttling: budget = 400, warp0 score=400, others 100 each.
        s.pick(&ctx(&w, &[0, 1, 2, 3]));
        let throttled = s.metrics().throttled_warps;
        assert!(throttled >= 2, "low-locality warps should be throttled, got {throttled}");
        assert!(!s.is_throttled(0), "the high-locality warp must keep running");
    }

    #[test]
    fn throttle_set_is_never_vouched_stable() {
        // Scores decay on every empty pick, so the throttle set can move on
        // any idle cycle: CCWS keeps the conservative default.
        let mut s = CcwsScheduler::new(CcwsConfig { num_warps: 4, ..CcwsConfig::default() });
        let w = warps(4);
        s.pick(&ctx(&w, &[]));
        assert!(!s.throttle_stable_when_idle(&ctx(&w, &[])));
    }

    #[test]
    fn replays_are_vouched_for_only_at_the_score_floor_and_clean() {
        let cfg = CcwsConfig { num_warps: 2, vta_hit_bonus: 50, ..CcwsConfig::default() };
        let mut s = CcwsScheduler::new(cfg);
        let w = warps(2);
        assert_eq!(s.pick(&ctx(&w, &[0, 1])), Some(0));
        assert!(s.replay_stable(&ctx(&w, &[]), 0));
        assert!(!s.replay_stable(&ctx(&w, &[]), 1), "warp 1 is not the greedy warp");
        // A VTA hit lifts warp 0 above the floor and marks the set dirty.
        s.on_cache_event(&eviction_event(1, 0, 0x100));
        s.on_cache_event(&miss_event(0, 0x8100));
        assert!(!s.replay_stable(&ctx(&w, &[]), 0), "a recompute is pending");
        s.pick(&ctx(&w, &[0]));
        assert!(s.score_of(0) > 100);
        assert!(!s.replay_stable(&ctx(&w, &[]), 0), "on_issue would decay the score");
    }

    #[test]
    fn scores_decay_back_and_throttling_lifts() {
        let cfg = CcwsConfig {
            num_warps: 2,
            base_score: 10,
            vta_hit_bonus: 20,
            decay_per_issue: 5,
            ..CcwsConfig::default()
        };
        let mut s = CcwsScheduler::new(cfg);
        let w = warps(2);
        s.on_cache_event(&eviction_event(1, 0, 0x100));
        s.on_cache_event(&miss_event(0, 0x8100));
        s.pick(&ctx(&w, &[0, 1]));
        assert!(s.is_throttled(1));
        // Warp 0 keeps issuing; its score decays back to the base.
        for _ in 0..10 {
            s.on_issue(0, false, 0);
        }
        s.pick(&ctx(&w, &[0, 1]));
        assert!(!s.is_throttled(1), "throttling should lift once locality pressure decays");
        assert_eq!(s.score_of(0), 10);
    }

    #[test]
    fn prefers_high_score_ready_warp() {
        let cfg = CcwsConfig { num_warps: 3, vta_hit_bonus: 50, ..CcwsConfig::default() };
        let mut s = CcwsScheduler::new(cfg);
        let w = warps(3);
        s.on_cache_event(&eviction_event(0, 2, 0x200));
        s.on_cache_event(&miss_event(2, 0x8200));
        // Not greedy yet; should pick warp 2 (highest score).
        assert_eq!(s.pick(&ctx(&w, &[0, 1, 2])), Some(2));
        // Greedy on 2 afterwards.
        assert_eq!(s.pick(&ctx(&w, &[0, 2])), Some(2));
    }

    #[test]
    fn finished_warps_leave_the_budget() {
        let cfg = CcwsConfig {
            num_warps: 2,
            base_score: 100,
            vta_hit_bonus: 150,
            ..CcwsConfig::default()
        };
        let mut s = CcwsScheduler::new(cfg);
        let w = warps(2);
        s.on_cache_event(&eviction_event(1, 0, 0x100));
        s.on_cache_event(&miss_event(0, 0x8100));
        s.pick(&ctx(&w, &[0, 1]));
        assert!(s.is_throttled(1));
        s.on_warp_finished(0, 0);
        s.pick(&ctx(&w, &[1]));
        assert!(!s.is_throttled(1), "last remaining warp must never stay throttled");
    }

    #[test]
    fn at_least_one_warp_always_admitted() {
        let cfg = CcwsConfig {
            num_warps: 3,
            base_score: 1,
            vta_hit_bonus: 1000,
            ..CcwsConfig::default()
        };
        let mut s = CcwsScheduler::new(cfg);
        let w = warps(3);
        for i in 0..3u32 {
            s.on_cache_event(&eviction_event((i + 1) % 3, i, 0x100 * (i as u64 + 1)));
            s.on_cache_event(&miss_event(i, 0x8000 + 0x100 * (i as u64 + 1)));
        }
        s.pick(&ctx(&w, &[0, 1, 2]));
        assert!(s.metrics().throttled_warps < 3, "scheduler must not throttle every warp");
    }
}
