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
    CacheEvent, CacheEventOutcome, GtoScheduler, SchedulerCtx, SchedulerMetrics, WarpScheduler,
};
use gpu_sim::SlotSet;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;

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
    finished: SlotSet,
    /// Warps currently prevented from issuing.
    throttled: SlotSet,
    /// The greedy pointer; its fallback order is score-first.
    gto: GtoScheduler,
    /// Set when scores changed and the throttle set must be recomputed.
    dirty: bool,
    /// Scratch admission order of the warps above the score floor, reused
    /// by every recompute.
    above: Vec<usize>,
}

impl CcwsScheduler {
    /// Creates a CCWS scheduler with the given configuration, for at most
    /// [`SlotSet::CAPACITY`] warp slots.
    pub fn new(config: CcwsConfig) -> Self {
        assert!(
            config.num_warps <= SlotSet::CAPACITY,
            "CCWS keeps at most {} warp slots, not {}",
            SlotSet::CAPACITY,
            config.num_warps
        );
        CcwsScheduler {
            vta: Vta::new(config.vta),
            scores: vec![config.base_score; config.num_warps],
            finished: SlotSet::default(),
            throttled: SlotSet::default(),
            gto: GtoScheduler::new(),
            dirty: true,
            above: Vec::new(),
            config,
        }
    }

    /// Current lost-locality score of a warp (exposed for tests/analysis).
    pub fn score_of(&self, wid: WarpId) -> u64 {
        self.scores.get(wid as usize).copied().unwrap_or(0)
    }

    /// The score budget runnable warps share.
    fn budget(&self) -> u64 {
        self.config.base_score * self.config.num_warps as u64
    }

    /// The warp slots that have not finished, launched or not.
    fn unfinished(&self) -> SlotSet {
        SlotSet::below(self.config.num_warps) & !self.finished
    }

    /// Recomputes the throttle set: warps are admitted in descending score
    /// order until the cumulative score exceeds the budget; the rest are
    /// throttled. Warps that already finished are ignored.
    fn recompute_throttle(&mut self) {
        let (unfinished, budget) = (self.unfinished(), self.budget());
        let (scores, floor) = (&self.scores, self.config.base_score);
        self.throttled = admission(|i| scores[i], floor, unfinished, budget, &mut self.above).1;
        self.dirty = false;
    }

    /// Score of warp `i` after `k` empty picks: each decays every score
    /// above the floor by 1, clamped to the floor.
    fn decayed(&self, i: usize, k: u64) -> u64 {
        let (score, floor) = (self.scores[i], self.config.base_score);
        if score > floor {
            score.saturating_sub(k).max(floor)
        } else {
            score
        }
    }

    /// The first `k >= 1` at which the throttle set recomputed after `k`
    /// empty picks differs from the current one (`u64::MAX` if never).
    ///
    /// Between two picks at which some warp's score reaches the floor, the
    /// admission order is fixed: warps above the floor by score, then the
    /// warps at the floor by index. The throttled warps are a suffix of
    /// that order, and every cumulative score only falls as the scores
    /// decay, so within such a stretch the set first changes when the
    /// cumulative score through the first throttled warp drops to the
    /// budget, which integer arithmetic finds exactly. At each floor event
    /// the set is recomputed by the same rule `pick` applies.
    fn throttle_horizon(&self) -> u64 {
        let (floor, budget, unfinished) =
            (self.config.base_score, self.budget(), self.unfinished());
        let mut above = Vec::with_capacity(self.scores.len());
        let mut k = 1;
        loop {
            let (first, throttled) =
                admission(|i| self.decayed(i, k), floor, unfinished, budget, &mut above);
            if throttled != self.throttled {
                return k;
            }
            // A warp at the floor does not decay, so only `above` can reach
            // it.
            let next_floor = above
                .iter()
                .map(|&i| self.scores[i].saturating_sub(floor))
                .filter(|&at| at > k)
                .min();
            // The first throttled warp is admitted once the cumulative score
            // through it, falling by one per decaying warp per pick, reaches
            // the budget. The warps through it are the decaying ones of
            // `above`, then warps at the floor.
            let crossing = if first < unfinished.len() {
                let decaying = (first + 1).min(above.len());
                let cumulative = above[..decaying].iter().map(|&i| self.decayed(i, k)).sum::<u64>()
                    + (first + 1 - decaying) as u64 * floor;
                (decaying > 0)
                    .then(|| k.saturating_add((cumulative - budget).div_ceil(decaying as u64)))
            } else {
                None
            };
            match (next_floor, crossing) {
                (Some(at), None) => k = at,
                (Some(at), Some(c)) if at <= c => k = at,
                (_, Some(c)) => return c,
                (None, None) => return u64::MAX,
            }
        }
    }
}

/// The admission rule of a CCWS recompute for the scores `score(i)` of the
/// `unfinished` warps. The admission order is score descending, then slot
/// ascending; warps are admitted in that order until the cumulative score
/// exceeds `budget`, the first always, and the rest are throttled (scores
/// are non-negative, so they are a suffix of the order). Fills `above` with
/// the warps scoring above `floor` in admission order and returns the
/// first throttled position in the whole order (`unfinished.len()` when
/// every warp is admitted) and the throttled set.
fn admission(
    score: impl Fn(usize) -> u64,
    floor: u64,
    unfinished: SlotSet,
    budget: u64,
    above: &mut Vec<usize>,
) -> (usize, SlotSet) {
    // Most warps sit at the floor: sort the few above it; the rest follow
    // in slot order. Launch, the initial table and every decay clamp keep
    // an unfinished warp's score at the floor or above, so every warp of
    // that tail scores exactly the floor.
    above.clear();
    let mut at_floor = SlotSet::default();
    for i in unfinished.iter() {
        if score(i) > floor {
            above.push(i);
        } else {
            at_floor.insert(i);
        }
    }
    debug_assert!(
        at_floor.iter().all(|i| score(i) == floor),
        "an unfinished warp scores below the floor"
    );
    above.sort_unstable_by(|&a, &b| score(b).cmp(&score(a)).then(a.cmp(&b)));
    let mut cumulative = 0u64;
    for (p, &i) in above.iter().enumerate() {
        cumulative += score(i);
        if cumulative > budget && p > 0 {
            return (p, above[p..].iter().copied().collect::<SlotSet>() | at_floor);
        }
    }
    // The tail's `k`-th warp (from 0) crosses the budget once `cumulative
    // + (k + 1) * floor` exceeds it, and the order's first warp never does.
    let crossing =
        if cumulative > budget { Some(0) } else { (budget - cumulative).checked_div(floor) };
    let k = crossing.map(|k| k.max(u64::from(above.is_empty())) as usize);
    match k.and_then(|k| Some((k, at_floor.iter().nth(k)?))) {
        Some((k, slot)) => (above.len() + k, at_floor & !SlotSet::below(slot)),
        None => (unfinished.len(), SlotSet::default()),
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
        // Greedy on the last issued warp if still offered; otherwise the
        // ready warp with the highest lost-locality score (most evidence of
        // locality), oldest on ties.
        let scores = &self.scores;
        self.gto.pick_by(ctx.ready, |i| {
            let score = scores.get(ctx.warps[i].id as usize).copied().unwrap_or(0);
            (Reverse(score), ctx.warps[i].launch_seq)
        })
    }

    fn on_idle_cycles(&mut self, ctx: &SchedulerCtx<'_>, cycles: u64) {
        // A replay within the hold horizon re-picks a clean greedy warp at
        // the score floor: neither `pick` nor `on_issue` changes anything.
        if !ctx.ready.is_empty() {
            return;
        }
        // `cycles` empty-ready picks each decay every above-floor score by
        // 1 (clamped to the floor); applying the decay in bulk is exact
        // because `max(x - 1, floor)` iterated k times is `max(x - k, floor)`.
        let floor = self.config.base_score;
        let mut changed = false;
        for score in self.scores.iter_mut() {
            if *score > floor {
                *score = score.saturating_sub(cycles).max(floor);
                changed = true;
            }
        }
        self.dirty |= changed;
        if self.dirty {
            self.recompute_throttle();
        }
    }

    fn hold_horizon(&self, ctx: &SchedulerCtx<'_>) -> u64 {
        // Empty picks decay the scores and recompute the set.
        if ctx.ready.is_empty() {
            return self.throttle_horizon();
        }
        // A clean pick offering the greedy warp returns it untouched, and
        // `on_issue` only decays scores above the floor.
        let holds = ctx.ready.single().is_some_and(|idx| {
            !self.dirty
                && self.gto.is_greedy(idx)
                && self.score_of(ctx.warps[idx].id) <= self.config.base_score
        });
        if holds {
            u64::MAX
        } else {
            0
        }
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
        if let Some(score) = self.scores.get_mut(wid as usize) {
            *score = self.config.base_score;
            self.finished.remove(wid as usize);
        }
        self.dirty = true;
    }

    fn on_warp_finished(&mut self, wid: WarpId, _now: Cycle) {
        if let Some(score) = self.scores.get_mut(wid as usize) {
            *score = 0;
            self.finished.insert(wid as usize);
        }
        self.dirty = true;
    }

    fn is_throttled(&self, wid: WarpId) -> bool {
        self.throttled.contains(wid as usize)
    }

    fn throttled(&self, live: SlotSet) -> SlotSet {
        live & self.throttled
    }

    fn throttles_loads_only(&self) -> bool {
        // CCWS gates only the LD/ST issue of de-prioritised warps; their
        // arithmetic instructions keep executing.
        true
    }

    fn metrics(&self) -> SchedulerMetrics {
        SchedulerMetrics {
            vta_hits: self.vta.total_hits(),
            throttled_warps: self.throttled.len(),
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
    use proptest::prelude::*;

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

    fn throttle_set(s: &CcwsScheduler) -> Vec<bool> {
        (0..s.scores.len() as WarpId).map(|i| s.is_throttled(i)).collect()
    }

    /// The admission rule spelled out: every unfinished warp sorted by
    /// score descending, then slot ascending, admitted until the
    /// cumulative score exceeds the budget (the first always).
    fn reference_admission(scores: &[u64], unfinished: SlotSet, budget: u64) -> (usize, SlotSet) {
        let mut order: Vec<usize> = unfinished.iter().collect();
        order.sort_by_key(|&i| (Reverse(scores[i]), i));
        let mut cumulative = 0;
        let first = (0..order.len())
            .find(|&p| {
                cumulative += scores[order[p]];
                cumulative > budget && p > 0
            })
            .unwrap_or(order.len());
        (first, order[first..].iter().copied().collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// Admission with the warps at the floor counted in closed form
        /// admits exactly as the spelled-out rule does.
        #[test]
        fn admission_matches_the_spelled_out_rule(
            extra in proptest::collection::vec(0u64..400, 1..64),
            at_floor in proptest::collection::vec(any::<bool>(), 64..65),
            finished in proptest::collection::vec(any::<bool>(), 64..65),
            floor in 0u64..150,
            budget_warps in 0u64..70,
        ) {
            let scores: Vec<u64> =
                extra.iter().zip(&at_floor).map(|(&e, &f)| if f { floor } else { floor + e }).collect();
            let unfinished: SlotSet = (0..scores.len()).filter(|&i| !finished[i]).collect();
            let budget = budget_warps * floor.max(1);
            let mut above = Vec::new();
            prop_assert_eq!(
                admission(|i| scores[i], floor, unfinished, budget, &mut above),
                reference_admission(&scores, unfinished, budget)
            );
        }

        /// Stepping empty picks one at a time leaves `is_throttled`
        /// unchanged for every pick below the horizon, and the pick at the
        /// horizon changes it: the horizon is exact, not just safe.
        #[test]
        fn horizon_is_the_first_empty_pick_that_moves_the_throttle_set(
            raw in proptest::collection::vec(0u64..550, 2..12),
            finished in proptest::collection::vec(any::<bool>(), 12..13),
            raw_bonus in 0u64..400,
        ) {
            // About a quarter of the warps sit at the floor, and a quarter
            // of the cases start from a clean set.
            let extra: Vec<u64> = raw.iter().map(|&r| r.saturating_sub(150)).collect();
            let stale_bonus = raw_bonus.saturating_sub(100);
            let n = extra.len();
            let mut s = CcwsScheduler::new(CcwsConfig { num_warps: n, ..CcwsConfig::default() });
            for (i, &e) in extra.iter().enumerate() {
                s.scores[i] = s.config.base_score + e;
                if finished[i] {
                    s.on_warp_finished(i as WarpId, 0);
                }
            }
            s.recompute_throttle();
            // A VTA hit after the recompute leaves a stale, dirty set.
            if stale_bonus > 0 {
                s.scores[0] += stale_bonus;
                s.dirty = true;
            }
            let w = warps(n);
            let horizon = s.hold_horizon(&ctx(&w, &[]));
            prop_assert!(horizon >= 1);
            let before = throttle_set(&s);
            // Every score reaches the floor within 700 picks; after that
            // the set cannot move.
            for k in 1..=700u64.min(horizon) {
                s.pick(&ctx(&w, &[]));
                if k < horizon {
                    prop_assert_eq!(throttle_set(&s), before.clone(), "moved at pick {}", k);
                } else {
                    prop_assert_ne!(throttle_set(&s), before.clone(), "horizon {} is late", k);
                }
            }
        }
    }

    #[test]
    fn horizon_follows_the_budget_crossing_and_the_floor() {
        // Budget 400. Scores 250, 150, 100, 100: cumulative 250, 400, 500,
        // so warps 2 and 3 are throttled. Warp 0 and 1 decay together: the
        // cumulative through warp 2 drops to 400 after 50 picks, when warp
        // 1 has reached the floor too.
        let mut s = CcwsScheduler::new(CcwsConfig { num_warps: 4, ..CcwsConfig::default() });
        s.scores.copy_from_slice(&[250, 150, 100, 100]);
        s.recompute_throttle();
        assert_eq!(throttle_set(&s), [false, false, true, true]);
        let w = warps(4);
        assert_eq!(s.hold_horizon(&ctx(&w, &[])), 50);
        // At the floor the set never moves again.
        s.on_idle_cycles(&ctx(&w, &[]), 150);
        assert_eq!(throttle_set(&s), [false; 4]);
        assert_eq!(s.hold_horizon(&ctx(&w, &[])), u64::MAX);
    }

    #[test]
    fn replays_hold_only_at_the_score_floor_and_clean() {
        let cfg = CcwsConfig { num_warps: 2, vta_hit_bonus: 50, ..CcwsConfig::default() };
        let mut s = CcwsScheduler::new(cfg);
        let w = warps(2);
        assert_eq!(s.pick(&ctx(&w, &[0, 1])), Some(0));
        assert_eq!(s.hold_horizon(&ctx(&w, &[0])), u64::MAX);
        assert_eq!(s.hold_horizon(&ctx(&w, &[1])), 0, "warp 1 is not the greedy warp");
        // A VTA hit lifts warp 0 above the floor and marks the set dirty.
        s.on_cache_event(&eviction_event(1, 0, 0x100));
        s.on_cache_event(&miss_event(0, 0x8100));
        assert_eq!(s.hold_horizon(&ctx(&w, &[0])), 0, "a recompute is pending");
        s.pick(&ctx(&w, &[0]));
        assert!(s.score_of(0) > 100);
        assert_eq!(s.hold_horizon(&ctx(&w, &[0])), 0, "on_issue would decay the score");
    }

    #[test]
    fn recompute_orders_by_score_then_index() {
        // Budget 400: the highest score is admitted first, then equal
        // scores by index, and the warp that crosses the budget and every
        // warp after it are throttled.
        let mut s = CcwsScheduler::new(CcwsConfig { num_warps: 4, ..CcwsConfig::default() });
        s.scores.copy_from_slice(&[120, 100, 100, 100]);
        s.recompute_throttle();
        assert_eq!(throttle_set(&s), [false, false, false, true]);
        s.scores.copy_from_slice(&[100, 100, 100, 120]);
        s.recompute_throttle();
        assert_eq!(throttle_set(&s), [false, false, true, false]);
        // Recomputes reuse the scratch order without leaking the last one.
        s.on_warp_finished(0, 0);
        s.recompute_throttle();
        assert_eq!(throttle_set(&s), [false; 4]);
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
