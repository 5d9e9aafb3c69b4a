//! Property-based integration tests: randomised workloads run end-to-end
//! through the simulator under every scheduler, checking the invariants that
//! must hold for *any* workload, not just the Table II benchmarks.

use ciao_suite::prelude::*;
use ciao_suite::schedulers::PcalConfig;
use ciao_suite::sim::kernel::{ClosureKernel, KernelInfo};
use ciao_suite::sim::trace::{VecProgram, WarpOp};
use ciao_suite::sim::Kernel;
use gpu_mem::cache::EvictedLine;
use gpu_sim::scheduler::{
    CacheEvent, CacheEventOutcome, CacheKind, LrrScheduler, MemRoute, SchedulerCtx,
    SchedulerMetrics, WarpScheduler,
};
use gpu_sim::warp::Warp;
use gpu_sim::{BackendKind, Cycle, SlotSet, SmUnit, WarpId};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Builds a random but deterministic kernel description.
fn arbitrary_kernel(
    ctas: usize,
    warps_per_cta: usize,
    ops: usize,
    mem_every: usize,
    seed: u64,
) -> Box<dyn Kernel> {
    let info = KernelInfo {
        name: format!("prop-{seed}"),
        num_ctas: ctas,
        warps_per_cta,
        shared_mem_per_cta: 0,
    };
    Box::new(ClosureKernel::new(info, move |cta, w| {
        let mut v = Vec::with_capacity(ops);
        for i in 0..ops {
            if mem_every > 0 && i % mem_every == 0 {
                // Mix of private streaming and a shared hot region so some
                // runs exhibit interference.
                let addr = if i % (2 * mem_every) == 0 {
                    (seed % 64) * 128 + (i as u64 % 32) * 128
                } else {
                    (1 << 24) + (cta as u64 * 64 + w as u64 * 8 + i as u64) * 128
                };
                v.push(WarpOp::coalesced_load(addr));
            } else {
                v.push(WarpOp::Compute { cycles: 1 + (i as u32 % 4) });
            }
        }
        Box::new(VecProgram::new(v))
    }))
}

fn run_with(kernel: Box<dyn Kernel>, sched: SchedulerKind) -> SimResult {
    let config = GpuConfig::gtx480().with_max_instructions(20_000).with_sample_interval(1_000);
    let sim = Simulator::new(config.clone());
    sim.execute(SimRequest::kernel(std::sync::Arc::from(kernel)).num_sms(1), |_sm| {
        sched.build(Benchmark::Syrk, &config, &ciao_suite::ciao::CiaoParams::default())
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Every scheduler finishes every random workload, executes exactly the
    /// same number of instructions, and keeps the L1D statistics consistent.
    #[test]
    fn all_schedulers_complete_random_workloads(
        ctas in 1usize..4,
        warps in 1usize..6,
        ops in 8usize..80,
        mem_every in 1usize..6,
        seed in 0u64..1000,
    ) {
        let expected_instructions = (ctas * warps * ops) as u64;
        let mut counts = Vec::new();
        for sched in [SchedulerKind::Gto, SchedulerKind::Ccws, SchedulerKind::BestSwl,
                      SchedulerKind::StatPcal, SchedulerKind::CiaoT, SchedulerKind::CiaoP, SchedulerKind::CiaoC] {
            let res = run_with(arbitrary_kernel(ctas, warps, ops, mem_every, seed), sched);
            prop_assert!(!res.capped, "{} hit a cap on a small workload", res.scheduler);
            prop_assert_eq!(res.stats.instructions, expected_instructions,
                "{} executed the wrong amount of work", res.scheduler);
            prop_assert_eq!(res.stats.l1d.hits() + res.stats.l1d.misses(), res.stats.l1d.accesses());
            prop_assert!(res.cycles > 0);
            counts.push(res.stats.instructions);
        }
        prop_assert!(counts.windows(2).all(|w| w[0] == w[1]));
    }

    /// The interference matrix is consistent with the cross-warp eviction
    /// counter for any workload and scheduler.
    #[test]
    fn interference_accounting_is_consistent(
        warps in 2usize..8,
        ops in 16usize..64,
        seed in 0u64..1000,
    ) {
        let res = run_with(arbitrary_kernel(1, warps, ops, 1, seed), SchedulerKind::Gto);
        let matrix_total = res.interference.total();
        prop_assert_eq!(matrix_total, res.stats.cross_warp_evictions + res.stats.redirect_cross_warp_evictions);
    }
}

/// CIAO parameters whose epochs `drive_contract` reaches: a high-epoch
/// check every 10 instructions and a low-epoch check every 5, so CIAO
/// stalls and reactivates within a few hundred cycles.
fn fast_ciao_params() -> CiaoParams {
    CiaoParams { high_cutoff: 0.01, low_cutoff: 0.005, high_epoch: 10, low_epoch: 5 }
}

/// Every scheduler under test: the seven of Fig. 8, with Best-SWL and
/// statPCAL at ATAX's profiled limit of 2 warps, plus LRR and a CIAO-C
/// with `fast_ciao_params`.
fn contract_schedulers() -> Vec<Box<dyn WarpScheduler>> {
    let config = GpuConfig::gtx480();
    let params = CiaoParams::default();
    let mut all: Vec<Box<dyn WarpScheduler>> = SchedulerKind::all()
        .into_iter()
        .map(|kind| kind.build(Benchmark::Atax, &config, &params).0)
        .collect();
    all.push(Box::new(LrrScheduler::new()));
    all.push(CiaoVariant::Combined.build(&fast_ciao_params(), &config).0);
    all
}

/// A SplitMix64 stream: the contract test's only source of randomness.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// True with probability `percent` / 100.
    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// How often the scheduler's throttled mask changed under
/// `drive_contract`: a live warp entered it, or left it while still live.
#[derive(Debug, Default)]
struct MaskMoves {
    entered: u64,
    released: u64,
}

/// The `throttled` contract after one call named `call`: for the launched
/// warps `launched` and the live (launched, unfinished) ones `live`,
/// `throttled` returns exactly the slots `is_throttled` holds back. Also
/// counts, in `moves`, the live warps that entered or left the mask since
/// `before`, which it then advances.
fn throttle_breach(
    sched: &dyn WarpScheduler,
    launched: SlotSet,
    live: SlotSet,
    before: &mut SlotSet,
    moves: &mut MaskMoves,
    call: &str,
) -> Option<String> {
    for set in [SlotSet::below(GpuConfig::gtx480().max_warps_per_sm), launched, live] {
        let mask = sched.throttled(set);
        let asked: SlotSet = set.iter().filter(|&w| sched.is_throttled(w as WarpId)).collect();
        if mask != asked {
            return Some(format!(
                "{} after {call}: throttled({set:?}) = {mask:?}, is_throttled holds back {asked:?}",
                sched.name()
            ));
        }
    }
    let after = sched.throttled(live);
    moves.entered += (after & !*before).len() as u64;
    moves.released += (*before & !after & live).len() as u64;
    *before = after;
    None
}

/// Drives `sched` through `cycles` random cycles the way the SM does: warps
/// launch into the lowest free slot in launch order and finish at random,
/// cache hits, misses and cross-warp evictions arrive for live warps, and
/// each cycle offers `pick` a random subset of the live warps that
/// `is_throttled` does not hold back, under a random DRAM utilisation.
/// After every call it also checks the `throttled` contract
/// (`throttle_breach`). Returns how the throttled mask moved, or the first
/// breach of either contract.
fn drive_contract(
    sched: &mut dyn WarpScheduler,
    slots: usize,
    cycles: u64,
    seed: u64,
) -> Result<MaskMoves, String> {
    let mut rng = SplitMix(seed);
    let mut warps: Vec<Warp> = Vec::new();
    let mut launch_seq = 0;
    let mut instructions = 0;
    let mut moves = MaskMoves::default();
    let mut mask = SlotSet::default();
    let sets = |warps: &[Warp]| {
        let launched = SlotSet::below(warps.len());
        (launched, launched.iter().filter(|&i| !warps[i].is_finished()).collect::<SlotSet>())
    };
    for now in 0..cycles {
        let live: Vec<usize> = (0..warps.len()).filter(|&i| !warps[i].is_finished()).collect();
        if live.len() < slots && rng.chance(30) {
            let slot = (0..warps.len()).find(|&i| warps[i].is_finished()).unwrap_or(warps.len());
            let warp =
                Warp::new(slot as WarpId, 0, launch_seq, Box::new(VecProgram::new(Vec::new())));
            launch_seq += 1;
            if slot == warps.len() {
                warps.push(warp);
            } else {
                warps[slot] = warp;
            }
            sched.on_warp_launched(slot as WarpId, now);
            let (launched, live) = sets(&warps);
            if let Some(breach) =
                throttle_breach(sched, launched, live, &mut mask, &mut moves, "on_warp_launched")
            {
                return Err(breach);
            }
        }
        if !live.is_empty() && rng.chance(15) {
            let i = live[rng.below(live.len())];
            warps[i].finish();
            sched.on_warp_finished(i as WarpId, now);
            let (launched, live) = sets(&warps);
            if let Some(breach) =
                throttle_breach(sched, launched, live, &mut mask, &mut moves, "on_warp_finished")
            {
                return Err(breach);
            }
        }
        let live: Vec<usize> = (0..warps.len()).filter(|&i| !warps[i].is_finished()).collect();
        if !live.is_empty() && rng.chance(40) {
            let wid = live[rng.below(live.len())] as WarpId;
            let owner = live[rng.below(live.len())] as WarpId;
            let block = |r: &mut SplitMix| (r.next() % 16) * 128;
            let (outcome, evicted) = if rng.chance(30) {
                (CacheEventOutcome::Hit { owner }, None)
            } else {
                let victim = EvictedLine { block_addr: block(&mut rng), owner, dirty: false };
                (CacheEventOutcome::Miss, Some(victim))
            };
            sched.on_cache_event(&CacheEvent {
                kind: if rng.chance(80) { CacheKind::L1d } else { CacheKind::Redirect },
                wid,
                block_addr: block(&mut rng),
                is_write: false,
                outcome,
                evicted,
                now,
            });
            let (launched, live) = sets(&warps);
            if let Some(breach) =
                throttle_breach(sched, launched, live, &mut mask, &mut moves, "on_cache_event")
            {
                return Err(breach);
            }
        }
        let ready: SlotSet = live
            .iter()
            .copied()
            .filter(|&i| rng.chance(70) && !sched.is_throttled(i as WarpId))
            .collect();
        let utilization = (rng.next() % 101) as f64 / 100.0;
        let ctx = SchedulerCtx {
            now,
            warps: &warps,
            ready,
            instructions_executed: instructions,
            active_warps: live.len(),
            dram_utilization_at: &|_| Some(utilization),
        };
        let picked = sched.pick(&ctx);
        let (launched, live) = sets(&warps);
        if let Some(breach) = throttle_breach(sched, launched, live, &mut mask, &mut moves, "pick")
        {
            return Err(breach);
        }
        let kept = match picked {
            Some(i) => ready.contains(i),
            None => ready.is_empty(),
        };
        if !kept {
            return Err(format!(
                "{} at cycle {now}: offered {ready:?}, picked {picked:?}",
                sched.name()
            ));
        }
        if let Some(i) = picked {
            sched.on_issue(i as WarpId, rng.chance(40), now);
            instructions += 1;
            if let Some(breach) =
                throttle_breach(sched, launched, live, &mut mask, &mut moves, "on_issue")
            {
                return Err(breach);
            }
        }
    }
    Ok(moves)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The `pick` contract: the SM offers only warps that `is_throttled`
    /// does not hold back, so `pick` returns one of them whenever the offer
    /// is non-empty (and `None` only when it is empty). No policy filters
    /// its offer a second time. After every call `throttled` also returns
    /// exactly the slots `is_throttled` holds back, the mask the SM builds
    /// its offer from.
    #[test]
    fn every_scheduler_picks_an_offered_warp_whenever_one_is_offered(
        slots in 2usize..12,
        seed in 0u64..1_000_000,
    ) {
        for mut sched in contract_schedulers() {
            let driven = drive_contract(sched.as_mut(), slots, 400, seed);
            prop_assert!(driven.is_ok(), "{} slots, seed {}: {}", slots, seed, driven.unwrap_err());
        }
    }
}

/// `drive_contract` reaches CIAO's epoch checks with `fast_ciao_params`:
/// CIAO-C stalls warps and reactivates them while they are still live, and
/// the SM sees both through the throttled mask.
#[test]
fn random_contract_runs_make_ciao_stall_and_reactivate() {
    let mut moves = MaskMoves::default();
    let mut decisions = ciao_suite::ciao::scheduler::CiaoDecisionCounters::default();
    for seed in 0..8 {
        let mut ciao = CiaoScheduler::new(CiaoVariant::Combined, fast_ciao_params(), 48);
        let driven = drive_contract(&mut ciao, 8, 400, seed).unwrap_or_else(|e| panic!("{e}"));
        moves.entered += driven.entered;
        moves.released += driven.released;
        decisions.stalls += ciao.decisions().stalls;
        decisions.reactivations += ciao.decisions().reactivations;
    }
    assert!(decisions.stalls > 0 && decisions.reactivations > 0, "{decisions:?}");
    assert!(moves.entered > 0 && moves.released > 0, "{moves:?}");
}

/// Runs `kernel` on the chip engine (`sms` SMs, shared L2/DRAM) under the
/// chosen timing backend, with a configurable time-series sample interval.
fn run_chip(
    kernel: Box<dyn Kernel>,
    sched: SchedulerKind,
    backend: gpu_sim::BackendKind,
    sms: usize,
    sample_interval: u64,
) -> SimResult {
    let config =
        GpuConfig::gtx480().with_max_instructions(40_000).with_sample_interval(sample_interval);
    let sim = Simulator::new(config.clone());
    sim.execute(
        SimRequest::kernel(std::sync::Arc::from(kernel)).num_sms(sms).backend(backend),
        |_sm| sched.build(Benchmark::Syrk, &config, &ciao_suite::ciao::CiaoParams::default()),
    )
}

/// Serialises a result with the backend label normalised away, so epoch and
/// event runs can be compared bit-for-bit.
fn normalized_json(mut res: SimResult) -> String {
    res.backend = String::new();
    serde_json::to_string(&res).expect("SimResult serialises")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// The event core's closed-form idle accounting must compose exactly:
    /// one `on_idle_cycles(ctx, k)` call has to leave every scheduler in the
    /// same state as `k` single idle cycles would. Running the same workload
    /// under both timing backends for each scheduler family (CCWS score
    /// decay, SWL's warp limit, statPCAL utilization tracking, CIAO's
    /// throttle/redirect fixed point) proves the equivalence end-to-end:
    /// any divergence shows up as a differing serialised result.
    #[test]
    fn closed_form_idle_accounting_matches_per_cycle_for_every_scheduler(
        ctas in 1usize..5,
        warps in 1usize..5,
        ops in 8usize..48,
        mem_every in 1usize..4,
        seed in 0u64..1000,
    ) {
        for sched in [SchedulerKind::Ccws, SchedulerKind::BestSwl,
                      SchedulerKind::StatPcal, SchedulerKind::CiaoT] {
            let kernel = || arbitrary_kernel(ctas, warps, ops, mem_every, seed);
            let epoch = run_chip(kernel(), sched, gpu_sim::BackendKind::Epoch, 2, 1_000);
            let event = run_chip(kernel(), sched, gpu_sim::BackendKind::Event, 2, 1_000);
            prop_assert_eq!(
                normalized_json(epoch),
                normalized_json(event),
                "event backend diverged from the epoch oracle under {:?}",
                sched
            );
        }
    }

    /// Sampler-due edges: with tiny (including degenerate) sample intervals
    /// the instruction-indexed time-series sampler comes due at arbitrary
    /// alignments — including exactly at a dispatch boundary, where the
    /// event core must refuse to skip and step the cycle instead. Both
    /// backends must stay bit-identical through every alignment.
    #[test]
    fn sampler_due_exactly_at_a_boundary_cannot_desync_the_backends(
        warps in 1usize..5,
        ops in 8usize..40,
        seed in 0u64..1000,
        sample_interval in 0u64..16,
    ) {
        let kernel = || arbitrary_kernel(2, warps, ops, 2, seed);
        let epoch =
            run_chip(kernel(), SchedulerKind::CiaoC, gpu_sim::BackendKind::Epoch, 2, sample_interval);
        let event =
            run_chip(kernel(), SchedulerKind::CiaoC, gpu_sim::BackendKind::Event, 2, sample_interval);
        prop_assert_eq!(normalized_json(epoch), normalized_json(event),
            "sample interval {} desynced the backends", sample_interval);
    }

    /// Zero-warp SMs: a one-CTA kernel on a multi-SM chip leaves every other
    /// SM without a single warp for the whole run. Those SMs must park
    /// harmlessly in the event core (idle-skip with nothing to wake for)
    /// and the result must match the epoch oracle stepping them cycle by
    /// cycle.
    #[test]
    fn zero_warp_sms_park_without_desyncing_the_backends(
        warps in 1usize..5,
        ops in 8usize..32,
        seed in 0u64..1000,
        sms in 2usize..6,
    ) {
        let expected_instructions = (warps * ops) as u64;
        let kernel = || arbitrary_kernel(1, warps, ops, 2, seed);
        let epoch = run_chip(kernel(), SchedulerKind::CiaoC, gpu_sim::BackendKind::Epoch, sms, 1_000);
        let event = run_chip(kernel(), SchedulerKind::CiaoC, gpu_sim::BackendKind::Event, sms, 1_000);
        prop_assert_eq!(epoch.stats.instructions, expected_instructions);
        prop_assert_eq!(normalized_json(epoch), normalized_json(event),
            "an SM with zero warps desynced the backends at {} SMs", sms);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// On a chip, an SM's deferred port shows statPCAL a DRAM-utilisation
    /// snapshot that the engine replaces at every boundary, so a held
    /// throttle-only stretch must end where the snapshot does, and a parked
    /// SM must wake to read the next one. With bypass thresholds spread
    /// over the utilisation range, the snapshots cross the threshold while
    /// non-token warps are held; holding or parking past a boundary would
    /// miss the crossing and desync the event core from stepping.
    #[test]
    fn stat_pcal_holds_end_with_the_utilization_snapshot(
        threshold_pct in 1u64..80,
        warps in 2usize..8,
        mem_every in 1usize..3,
        seed in 0u64..1000,
    ) {
        let run = |backend| {
            let config =
                GpuConfig::gtx480().with_max_instructions(40_000).with_sample_interval(1_000);
            let kernel: Arc<dyn Kernel> =
                Arc::from(arbitrary_kernel(4, warps, 48, mem_every, seed));
            Simulator::new(config).execute(
                SimRequest::kernel(kernel).num_sms(2).backend(backend),
                |_sm| {
                    let pcal = PcalConfig {
                        tokens: 1,
                        bypass_bandwidth_threshold: threshold_pct as f64 / 100.0,
                        num_warps: 48,
                    };
                    (Box::new(PcalScheduler::new(pcal)) as Box<dyn WarpScheduler>, None)
                },
            )
        };
        prop_assert_eq!(
            normalized_json(run(BackendKind::Epoch)),
            normalized_json(run(BackendKind::Event)),
            "threshold {}%: the event core desynced from stepping",
            threshold_pct
        );
    }
}

/// Runs one Table II benchmark at Quick scale on a single SM (the Fig. 8
/// configuration, with a cycle cap low enough to bound the throttling
/// livelocks quickly) under the chosen timing backend.
fn run_quick_sm1(
    benchmark: Benchmark,
    backend: BackendKind,
    build: impl FnMut(usize) -> SmUnit,
) -> SimResult {
    let mut config = GpuConfig::gtx480().with_max_instructions(40_000).with_sample_interval(2_000);
    config.max_cycles = Some(400_000);
    let kernel = benchmark.kernel(&ScaleConfig::quick());
    Simulator::new(config)
        .execute(SimRequest::kernel(Arc::new(kernel)).num_sms(1).backend(backend), build)
}

/// Throttle-only stretches — every ready warp held back by Best-SWL's warp
/// limit, CIAO's stall stack, CCWS's score budget or statPCAL's bandwidth
/// throttle — are skipped in closed form by the event core, up to the
/// scheduler's hold horizon. On the runs where they dominate (the Best-SWL
/// and CIAO-T livelocks, CIAO-C's stall escalation on SYRK, and the cells
/// with the most throttle-only cycles under CCWS and statPCAL) the result
/// must stay bit-identical to stepping every cycle; KMN under Best-SWL is
/// checked by `throttle_only_stretches_cost_no_per_cycle_picks`. On SM
/// under CIAO-T a stall becomes releasable while every ready warp is
/// throttled, so that run also pins CIAO's horizon: holding past a
/// releasable stall-stack top would skip the release. Under CCWS the
/// score decay moves the throttle set inside such stretches, and under
/// statPCAL the falling DRAM utilisation crosses the bypass threshold, so
/// a late horizon shows up as a changed result.
#[test]
fn throttle_only_skips_match_per_cycle_stepping_on_quick_runs() {
    let params = ciao_suite::ciao::CiaoParams::default();
    let cases = [
        (Benchmark::Kmeans, SchedulerKind::BestSwl),
        (Benchmark::Ii, SchedulerKind::BestSwl),
        (Benchmark::Ii, SchedulerKind::CiaoT),
        (Benchmark::Sm, SchedulerKind::CiaoT),
        (Benchmark::Syrk, SchedulerKind::CiaoC),
        (Benchmark::Kmn, SchedulerKind::StatPcal),
        (Benchmark::Ii, SchedulerKind::StatPcal),
        (Benchmark::Ii, SchedulerKind::Ccws),
        (Benchmark::Pvc, SchedulerKind::Ccws),
    ];
    for (benchmark, sched) in cases {
        let run = |backend| {
            run_quick_sm1(benchmark, backend, |_sm| {
                let config = GpuConfig::gtx480();
                sched.build(benchmark, &config, &params)
            })
        };
        let stepped = run(BackendKind::Epoch);
        let event = run(BackendKind::Event);
        assert_eq!(
            normalized_json(stepped),
            normalized_json(event),
            "{benchmark:?} x {sched:?}: skipping throttle-only cycles changed the result"
        );
    }
}

/// Counts `pick` calls and the picks that break the contract (an offer
/// answered by no offered warp), and forwards every other method,
/// including `hold_horizon`, to the wrapped scheduler.
struct CountingScheduler {
    inner: Box<dyn WarpScheduler>,
    picks: Arc<AtomicU64>,
    breaches: Arc<AtomicU64>,
}

impl WarpScheduler for CountingScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn pick(&mut self, ctx: &SchedulerCtx<'_>) -> Option<usize> {
        self.picks.fetch_add(1, Ordering::Relaxed);
        let picked = self.inner.pick(ctx);
        let kept = match picked {
            Some(i) => ctx.ready.contains(i),
            None => ctx.ready.is_empty(),
        };
        if !kept {
            self.breaches.fetch_add(1, Ordering::Relaxed);
        }
        picked
    }

    fn on_idle_cycles(&mut self, ctx: &SchedulerCtx<'_>, skipped: u64) {
        self.inner.on_idle_cycles(ctx, skipped);
    }

    fn hold_horizon(&self, ctx: &SchedulerCtx<'_>) -> u64 {
        self.inner.hold_horizon(ctx)
    }

    fn on_issue(&mut self, wid: WarpId, is_mem: bool, now: Cycle) {
        self.inner.on_issue(wid, is_mem, now);
    }

    fn on_cache_event(&mut self, ev: &CacheEvent) {
        self.inner.on_cache_event(ev);
    }

    fn on_warp_launched(&mut self, wid: WarpId, now: Cycle) {
        self.inner.on_warp_launched(wid, now);
    }

    fn on_warp_finished(&mut self, wid: WarpId, now: Cycle) {
        self.inner.on_warp_finished(wid, now);
    }

    fn route(&mut self, wid: WarpId) -> MemRoute {
        self.inner.route(wid)
    }

    fn is_throttled(&self, wid: WarpId) -> bool {
        self.inner.is_throttled(wid)
    }

    fn throttles_loads_only(&self) -> bool {
        self.inner.throttles_loads_only()
    }

    fn metrics(&self) -> SchedulerMetrics {
        self.inner.metrics()
    }
}

/// Replay stretches — one warp retrying a global load the full MSHR file
/// keeps turning away — are skipped in closed form by the event core. The
/// large-working-set runs are dominated by them, under every scheduler that
/// holds its pick (GTO, CCWS at the score floor, CIAO between epoch
/// checks, Best-SWL on its greedy warp, statPCAL until the DRAM
/// utilisation crosses its bypass threshold; WC is statPCAL's most
/// replay-heavy cell); each result must stay bit-identical to stepping
/// every cycle.
#[test]
fn replay_skips_match_per_cycle_stepping_on_quick_runs() {
    let params = ciao_suite::ciao::CiaoParams::default();
    let cases = [
        (Benchmark::Kmn, SchedulerKind::Gto),
        (Benchmark::Kmn, SchedulerKind::Ccws),
        (Benchmark::Kmn, SchedulerKind::CiaoT),
        (Benchmark::Kmn, SchedulerKind::CiaoC),
        (Benchmark::Mvt, SchedulerKind::CiaoP),
        (Benchmark::Wc, SchedulerKind::BestSwl),
        (Benchmark::Wc, SchedulerKind::StatPcal),
    ];
    for (benchmark, sched) in cases {
        let run = |backend| {
            run_quick_sm1(benchmark, backend, |_sm| {
                let config = GpuConfig::gtx480();
                sched.build(benchmark, &config, &params)
            })
        };
        let stepped = run(BackendKind::Epoch);
        let event = run(BackendKind::Event);
        assert_eq!(
            normalized_json(stepped),
            normalized_json(event),
            "{benchmark:?} x {sched:?}: skipping replay stretches changed the result"
        );
    }
}

/// One Quick 1-SM run under `sched`, with its `pick` calls and contract
/// breaches counted.
fn count_picks(
    benchmark: Benchmark,
    sched: SchedulerKind,
    backend: BackendKind,
) -> (SimResult, u64, u64) {
    let params = ciao_suite::ciao::CiaoParams::default();
    let picks = Arc::new(AtomicU64::new(0));
    let breaches = Arc::new(AtomicU64::new(0));
    let res = run_quick_sm1(benchmark, backend, |_sm| {
        let config = GpuConfig::gtx480();
        let (inner, redirect) = sched.build(benchmark, &config, &params);
        let counting =
            CountingScheduler { inner, picks: Arc::clone(&picks), breaches: Arc::clone(&breaches) };
        (Box::new(counting) as Box<dyn WarpScheduler>, redirect)
    });
    (res, picks.load(Ordering::Relaxed), breaches.load(Ordering::Relaxed))
}

/// The `pick` contract holds inside the SM too, in both timing modes: on
/// the LWS benchmarks, whose CTA waves reuse low warp slots while older
/// warps in higher slots still run, Best-SWL and statPCAL answer every
/// non-empty offer with an offered warp, and the event core and stepping
/// agree on the result.
#[test]
fn offered_warps_are_picked_inside_the_sm_in_both_timing_modes() {
    for benchmark in [Benchmark::Atax, Benchmark::Bicg, Benchmark::Mvt] {
        for sched in [SchedulerKind::BestSwl, SchedulerKind::StatPcal] {
            let (stepped, _, stepped_breaches) = count_picks(benchmark, sched, BackendKind::Epoch);
            let (event, _, event_breaches) = count_picks(benchmark, sched, BackendKind::Event);
            assert_eq!(
                (stepped_breaches, event_breaches),
                (0, 0),
                "{benchmark:?} x {sched:?}: picks that returned no offered warp (stepped, event)"
            );
            assert_eq!(normalized_json(stepped), normalized_json(event));
        }
    }
}

/// The replay skip saves real work: MVT under GTO spends most of its
/// cycles with one warp retrying a load, and the event core consults the
/// scheduler at least 5x less often than per-cycle stepping.
#[test]
fn replay_stretches_cost_no_per_cycle_picks() {
    let (stepped, stepped_picks, _) =
        count_picks(Benchmark::Mvt, SchedulerKind::Gto, BackendKind::Epoch);
    let (event, event_picks, _) =
        count_picks(Benchmark::Mvt, SchedulerKind::Gto, BackendKind::Event);
    assert_eq!(normalized_json(stepped), normalized_json(event));
    assert!(
        stepped_picks >= 5 * event_picks,
        "expected >= 5x fewer picks under the event core: {stepped_picks} stepped vs \
         {event_picks} event"
    );
}

/// The skip is real work saved, not just an equal result: on KMN under
/// Best-SWL (a livelock that spins to the cap with every ready warp outside
/// the warp limit) the event core consults the scheduler at least 10x less
/// often than per-cycle stepping.
#[test]
fn throttle_only_stretches_cost_no_per_cycle_picks() {
    let count = |backend| count_picks(Benchmark::Kmn, SchedulerKind::BestSwl, backend);
    let (stepped, stepped_picks, _) = count(BackendKind::Epoch);
    let (event, event_picks, _) = count(BackendKind::Event);
    assert!(stepped.stats.throttle_only_cycles > 0, "KMN x Best-SWL has throttle-only cycles");
    assert_eq!(normalized_json(stepped), normalized_json(event));
    assert!(
        stepped_picks >= 10 * event_picks,
        "expected >= 10x fewer picks under the event core: {stepped_picks} stepped vs \
         {event_picks} event"
    );
}

/// CCWS and statPCAL hold still too: on KMN under statPCAL (nearly every
/// cycle throttle-only) and II under CCWS (the most throttle-only cycles of
/// any CCWS cell) the event core consults the scheduler at least 3x less
/// often than per-cycle stepping.
#[test]
fn ccws_and_stat_pcal_stretches_cost_no_per_cycle_picks() {
    for (benchmark, sched) in
        [(Benchmark::Kmn, SchedulerKind::StatPcal), (Benchmark::Ii, SchedulerKind::Ccws)]
    {
        let (stepped, stepped_picks, _) = count_picks(benchmark, sched, BackendKind::Epoch);
        let (event, event_picks, _) = count_picks(benchmark, sched, BackendKind::Event);
        assert_eq!(normalized_json(stepped), normalized_json(event));
        assert!(
            stepped_picks >= 3 * event_picks,
            "{benchmark:?} x {sched:?}: expected >= 3x fewer picks under the event core: \
             {stepped_picks} stepped vs {event_picks} event"
        );
    }
}
