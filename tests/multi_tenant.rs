//! Multi-tenant co-execution invariants.
//!
//! The contract of the `gpu_sim::dispatch` subsystem, checked end to end
//! against real benchmark kernels:
//!
//! 1. a mix with a single tenant under the `Exclusive` policy is
//!    *bit-identical* to today's single-kernel chip run (for every policy,
//!    in fact — one stream admits no sharing),
//! 2. under the sharing policies, per-tenant L1/L2/instruction/crossbar
//!    attribution sums exactly to the chip totals,
//! 3. the STP / weighted-speedup and ANTT metrics obey their defining
//!    formulas on real co-run results,
//! 4. every policy is deterministic across repeats on a full 15-SM chip.

use std::sync::Arc;

use ciao_suite::harness::runner::{RunScale, Runner};
use ciao_suite::harness::schedulers::SchedulerKind;
use ciao_suite::sim::{
    avg_normalized_turnaround, system_throughput, DispatchAction, DispatchLog, DispatchPolicy,
    GpuConfig, Kernel, KernelQueue, SimRequest, SimResult, Simulator,
};
use ciao_suite::workloads::{Benchmark, Mix};

fn tiny_config(sms: usize) -> GpuConfig {
    GpuConfig::gtx480()
        .with_num_sms(sms)
        .with_max_instructions(RunScale::Tiny.max_instructions())
        .with_sample_interval(RunScale::Tiny.sample_interval())
}

fn assert_results_identical(a: &SimResult, b: &SimResult) {
    assert_eq!(a.cycles, b.cycles, "cycle counts differ");
    assert_eq!(a.stats, b.stats, "aggregate stats differ");
    assert_eq!(a.per_sm, b.per_sm, "per-SM stats differ");
    assert_eq!(a.per_tenant, b.per_tenant, "per-tenant results differ");
    assert_eq!(a.time_series, b.time_series, "time series differ");
    assert_eq!(a.interference, b.interference, "interference matrices differ");
    assert_eq!(a.scheduler_metrics, b.scheduler_metrics, "scheduler metrics differ");
    assert_eq!(a.capped, b.capped, "capped flags differ");
    assert_eq!(a.interconnect, b.interconnect, "interconnect traffic differs");
}

#[test]
fn one_tenant_mix_is_bit_identical_to_single_kernel_chip_run() {
    // GTO exercises the plain L1D path; CIAO-C additionally exercises the
    // redirect cache, throttling and the detector.
    for scheduler in [SchedulerKind::Gto, SchedulerKind::CiaoC] {
        let config = tiny_config(4);
        let params = ciao_suite::ciao::CiaoParams::default();
        let benchmark = Benchmark::Syrk;
        let scale = RunScale::Tiny.workload_scale();
        let sim = Simulator::new(config.clone());

        let kernel: Arc<dyn Kernel> = Arc::new(benchmark.kernel(&scale));
        let chip = sim.execute(SimRequest::kernel(Arc::clone(&kernel)), |_| {
            scheduler.build(benchmark, &config, &params)
        });

        for policy in DispatchPolicy::all() {
            let queue = KernelQueue::from_kernels([Arc::clone(&kernel)]);
            let via_queue =
                queue.run(&config, policy, |_| scheduler.build(benchmark, &config, &params));
            assert_eq!(via_queue.per_tenant.len(), 1);
            assert_eq!(via_queue.policy, policy.label());
            assert_results_identical(&chip, &via_queue);
        }
    }
}

#[test]
fn shared_policy_tenant_attribution_sums_to_chip_totals() {
    let runner = Runner::new(RunScale::Tiny).with_sms(4);
    for policy in [
        DispatchPolicy::SpatialPartition,
        DispatchPolicy::SharedRoundRobin,
        DispatchPolicy::InterferenceAware,
    ] {
        for scheduler in [SchedulerKind::Gto, SchedulerKind::CiaoC] {
            let res = runner.run_mix(Mix::CacheStream, policy, scheduler);
            assert_eq!(res.per_tenant.len(), 2, "{policy}");
            let sum = |f: fn(&ciao_suite::sim::TenantResult) -> u64| -> u64 {
                res.per_tenant.iter().map(f).sum()
            };
            assert_eq!(
                sum(|t| t.instructions),
                res.stats.instructions,
                "{policy}/{scheduler}: instructions"
            );
            assert_eq!(
                sum(|t| t.l1d_accesses),
                res.stats.l1d.accesses(),
                "{policy}/{scheduler}: L1D accesses"
            );
            assert_eq!(sum(|t| t.l1d_hits), res.stats.l1d.hits(), "{policy}/{scheduler}: L1D hits");
            assert_eq!(
                sum(|t| t.mem.l2_accesses),
                res.stats.l2.accesses(),
                "{policy}/{scheduler}: L2 accesses"
            );
            assert_eq!(
                sum(|t| t.mem.l2_hits),
                res.stats.l2.hits(),
                "{policy}/{scheduler}: L2 hits"
            );
            assert_eq!(
                sum(|t| t.xbar_bytes),
                res.interconnect.bytes_transferred,
                "{policy}/{scheduler}: crossbar bytes"
            );
            // Every tenant actually used the shared cache.
            assert!(res.per_tenant.iter().all(|t| t.mem.l2_accesses > 0), "{policy}");
        }
    }
}

#[test]
fn stp_and_antt_follow_their_definitions_on_real_co_runs() {
    let runner = Runner::new(RunScale::Tiny).with_sms(4);
    let mix = Mix::CacheStream;
    let alone: Vec<f64> = mix
        .benchmarks()
        .iter()
        .map(|&b| runner.run_one(b, SchedulerKind::Gto).per_tenant[0].ipc())
        .collect();
    let res = runner.run_mix(mix, DispatchPolicy::SharedRoundRobin, SchedulerKind::Gto);
    let shared = res.tenant_ipcs();
    assert_eq!(shared.len(), 2);
    assert!(shared.iter().all(|&s| s > 0.0));

    let stp = system_throughput(&alone, &shared);
    let antt = avg_normalized_turnaround(&alone, &shared);
    // Defining formulas, computed by hand.
    let expect_stp: f64 = shared.iter().zip(&alone).map(|(&s, &a)| s / a).sum();
    let expect_antt: f64 =
        alone.iter().zip(&shared).map(|(&a, &s)| a / s).sum::<f64>() / alone.len() as f64;
    assert!((stp - expect_stp).abs() < 1e-12);
    assert!((antt - expect_antt).abs() < 1e-12);
    // Sanity bounds: STP cannot exceed the tenant count (no tenant runs
    // faster with a co-runner), ANTT cannot fall below 1.
    assert!(stp > 0.0 && stp <= alone.len() as f64 + 1e-9);
    assert!(antt >= 1.0 - 1e-9);
}

#[test]
fn every_policy_is_deterministic_at_fifteen_sms() {
    let runner = Runner::new(RunScale::Tiny).with_sms(15);
    for policy in DispatchPolicy::all() {
        let a = runner.run_mix(Mix::CacheCompute, policy, SchedulerKind::CiaoC);
        let b = runner.run_mix(Mix::CacheCompute, policy, SchedulerKind::CiaoC);
        assert_eq!(a.num_sms, 15, "{policy}");
        assert_eq!(a.per_sm.len(), 15, "{policy}");
        assert_eq!(a.per_tenant.len(), 2, "{policy}");
        assert!(a.stats.instructions > 0, "{policy}");
        assert_results_identical(&a, &b);
    }
}

#[test]
fn interference_aware_beats_shared_rr_on_cache_stream_at_fifteen_sms() {
    // The headline claim of the adaptive policy (the chip-level CIAO-T
    // analogue): on the cache-sensitive × streaming mix it must contain the
    // streamer's interference better than blind interleaving — strictly
    // higher STP — without ever starving a tenant (finite ANTT, every tenant
    // makes progress). The pipelined banked backend dilutes interference
    // compared to the single-partition model, so the margin is thinner than
    // it once was, but the reactive monitor still measures the victim's
    // degradation and confines the streamer profitably.
    let runner = Runner::new(RunScale::Tiny).with_sms(15);
    let mix = Mix::CacheStream;
    let alone: Vec<f64> = mix
        .benchmarks()
        .iter()
        .map(|&b| runner.run_one(b, SchedulerKind::Gto).per_tenant[0].ipc())
        .collect();
    let shared_rr = runner.run_mix(mix, DispatchPolicy::SharedRoundRobin, SchedulerKind::Gto);
    let adaptive = runner.run_mix(mix, DispatchPolicy::InterferenceAware, SchedulerKind::Gto);

    let stp_rr = system_throughput(&alone, &shared_rr.tenant_ipcs());
    let stp_ia = system_throughput(&alone, &adaptive.tenant_ipcs());
    assert!(stp_ia > stp_rr, "interference-aware STP {stp_ia:.4} must beat shared-rr {stp_rr:.4}");

    // No tenant starved: every tenant retired its whole grid and its
    // normalized turnaround is finite.
    assert!(!adaptive.capped);
    for t in &adaptive.per_tenant {
        assert!(t.instructions > 0, "tenant {} starved", t.tenant);
        assert!(t.ipc() > 0.0, "tenant {} made no progress", t.tenant);
    }
    let antt = avg_normalized_turnaround(&alone, &adaptive.tenant_ipcs());
    assert!(antt.is_finite() && antt >= 1.0 - 1e-9, "ANTT {antt} must be finite");

    // The monitor actually ran and recorded its reasoning.
    assert!(!adaptive.dispatch_log.is_empty());

    // Determinism: the adaptive decisions are a pure function of
    // epoch-boundary stats, so the fully serialised results of two
    // independent runs must be byte-identical.
    let a = runner.run_mix(mix, DispatchPolicy::InterferenceAware, SchedulerKind::Gto);
    let b = runner.run_mix(mix, DispatchPolicy::InterferenceAware, SchedulerKind::Gto);
    let json_a = serde_json::to_string_pretty(&a).expect("serialise");
    let json_b = serde_json::to_string_pretty(&b).expect("serialise");
    assert_eq!(json_a, json_b, "SimResult JSON differs across runs");
}

#[test]
fn interference_aware_pays_no_containment_tax_when_the_backend_contains_interference() {
    // The dual of the headline test: at Tiny scale the pipelined banked
    // backend spreads both tenants' working sets across its L2 slices and
    // the victim's windows never degrade — so the reactive dispatcher must
    // take (nearly) no action and track blind interleaving closely instead
    // of taxing the streamer with prophylactic confinement (the probe tax
    // the ROADMAP asked to amortise).
    let runner = Runner::new(RunScale::Tiny).with_sms(15);
    for mix in [Mix::CacheStream, Mix::CacheCache, Mix::CacheCompute] {
        let alone: Vec<f64> = mix
            .benchmarks()
            .iter()
            .map(|&b| runner.run_one(b, SchedulerKind::Gto).per_tenant[0].ipc())
            .collect();
        let rr = runner.run_mix(mix, DispatchPolicy::SharedRoundRobin, SchedulerKind::Gto);
        let ia = runner.run_mix(mix, DispatchPolicy::InterferenceAware, SchedulerKind::Gto);
        let stp_rr = system_throughput(&alone, &rr.tenant_ipcs());
        let stp_ia = system_throughput(&alone, &ia.tenant_ipcs());
        assert!(
            stp_ia >= 0.95 * stp_rr,
            "{mix:?}: adaptive STP {stp_ia:.4} fell more than 5% behind shared-rr {stp_rr:.4} \
             on a mix the backend already keeps healthy"
        );
    }
}

#[test]
fn dispatch_log_round_trips_through_json_with_series_and_actions() {
    // The decision log a real interference-aware co-run archives must
    // survive the JSON round trip intact, including the per-tenant hit-rate
    // window series the monitor derives from it.
    let runner = Runner::new(RunScale::Tiny).with_sms(15);
    let res =
        runner.run_mix(Mix::CacheStream, DispatchPolicy::InterferenceAware, SchedulerKind::Gto);
    let log = &res.dispatch_log;
    assert!(!log.is_empty(), "the adaptive run must have recorded decisions");
    let series = log.l2_hit_rate_series(0);
    assert!(!series.is_empty(), "tenant 0 must have measured hit-rate windows");
    assert!(series.windows(2).all(|w| w[0].0 < w[1].0), "series cycles must be increasing");
    assert!(series.iter().all(|&(_, r)| (0.0..=1.0).contains(&r)));

    let json = serde_json::to_string_pretty(log).expect("serialise");
    let back: DispatchLog = serde_json::from_str(&json).expect("parse");
    assert_eq!(&back, log, "pristine log must round-trip bit-exactly");
    assert_eq!(back.l2_hit_rate_series(0), series);

    // Throttle / restore actions must survive the round trip too (a healthy
    // Tiny co-run may not produce them, so splice them into a copy).
    let mut augmented = log.clone();
    if let Some(last) = augmented.decisions.last_mut() {
        last.actions.push(DispatchAction::Throttle { tenant: 1, victim: 0, allowed_sms: 4 });
        last.actions.push(DispatchAction::Restore { tenant: 1, allowed_sms: 8 });
    }
    let json = serde_json::to_string_pretty(&augmented).expect("serialise");
    let back: DispatchLog = serde_json::from_str(&json).expect("parse");
    assert_eq!(back, augmented);
    assert_eq!(back.throttle_count(), log.throttle_count() + 1);
    assert_eq!(back.restore_count(), log.restore_count() + 1);
}

#[test]
fn far_future_arrival_under_adaptive_dispatch_never_starves() {
    // Regression: the adaptive policy must fast-forward across a long idle
    // gap to a known future arrival instead of hitting the stall guard and
    // silently starving the late tenant.
    let runner = Runner::new(RunScale::Tiny).with_sms(4).with_arrivals(200_000);
    let res =
        runner.run_mix(Mix::CacheStream, DispatchPolicy::InterferenceAware, SchedulerKind::Gto);
    assert!(!res.capped, "run must not end before the late tenant arrives");
    for t in &res.per_tenant {
        assert!(t.instructions > 0, "tenant {} starved", t.tenant);
    }
    assert!(res.per_tenant[1].finish_cycle >= 200_000);
    // The gap was skipped, not simulated epoch by epoch: the run must not
    // balloon past arrival + a normal solo runtime.
    assert!(res.cycles < 500_000, "cycles {} suggest the gap was simulated", res.cycles);
}

#[test]
fn dynamic_arrivals_admit_kernels_mid_run() {
    // Tenant 1 arrives 4000 cycles into the run: it must still execute its
    // whole grid, finish after its arrival, and finish later than it would
    // arriving at cycle 0 — under every concurrent policy and the serial
    // exclusive policy alike.
    let base = Runner::new(RunScale::Tiny).with_sms(4);
    let staggered = base.clone().with_arrivals(4_000);
    for policy in DispatchPolicy::all() {
        let at_zero = base.run_mix(Mix::CacheCompute, policy, SchedulerKind::Gto);
        let late = staggered.run_mix(Mix::CacheCompute, policy, SchedulerKind::Gto);
        assert_eq!(
            late.stats.instructions, at_zero.stats.instructions,
            "{policy}: arrivals must not change the executed work"
        );
        assert_eq!(late.per_tenant.len(), 2, "{policy}");
        assert!(
            late.per_tenant[1].finish_cycle >= 4_000,
            "{policy}: late tenant finished before it arrived"
        );
        // (No ordering claim against the at-zero finish: arriving later can
        // legitimately finish *earlier* by dodging the co-runner's cold-start
        // DRAM burst.)
        // Determinism with arrivals.
        let again = staggered.run_mix(Mix::CacheCompute, policy, SchedulerKind::Gto);
        assert_results_identical(&late, &again);
    }
}

#[test]
fn policies_place_work_differently_but_execute_the_same_work() {
    // The three policies must agree on *what* runs (every tenant's whole
    // grid) while disagreeing on *where/when* — different cycle counts are
    // expected, identical instruction totals are required.
    let runner = Runner::new(RunScale::Tiny).with_sms(4);
    let results: Vec<SimResult> = DispatchPolicy::all()
        .into_iter()
        .map(|p| runner.run_mix(Mix::CacheCache, p, SchedulerKind::Gto))
        .collect();
    let instructions: Vec<u64> = results.iter().map(|r| r.stats.instructions).collect();
    assert!(instructions.windows(2).all(|w| w[0] == w[1]), "{instructions:?}");
    for r in &results {
        for t in &r.per_tenant {
            assert!(t.instructions > 0);
            assert!(t.finish_cycle > 0);
        }
    }
}
