//! Golden digests of whole simulation results.
//!
//! Each chip case pins the FNV-1a-64 digest of its `SimResult` JSON, with
//! the timing-backend label blanked, and checks it under both
//! `BackendKind`s: the event core and its per-cycle stepping mode must
//! reproduce the recorded result bit for bit. Each fleet case pins the
//! digest of its `FleetResult` JSON. The two harness cases pin the Quick
//! 1-SM Fig. 8 headline matrix (GTO and CIAO-C over every benchmark) and
//! the Tiny 15-SM mix sweep. Any change to a digest is a change to a
//! simulated result, so an intended modelling change must re-record the
//! affected constants in the same commit.

use ciao_suite::fleet::{Calibration, Fleet, FleetRequest, PlacementPolicy, TrafficSpec};
use ciao_suite::harness::experiments::mix;
use ciao_suite::harness::runner::{RunScale, Runner};
use ciao_suite::harness::schedulers::SchedulerKind;
use ciao_suite::sim::{BackendKind, DispatchPolicy, SimResult};
use ciao_suite::workloads::{Benchmark, Mix};

/// FNV-1a-64 of `value`'s JSON.
fn fnv1a(value: &impl serde::Serialize) -> u64 {
    let json = serde_json::to_string(value).expect("serialise");
    json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// FNV-1a-64 of the result JSON with the backend label blanked.
fn digest(mut res: SimResult) -> u64 {
    res.backend = String::new();
    fnv1a(&res)
}

/// Runs `case` under both timing backends and checks each digest.
fn assert_golden(name: &str, expected: u64, case: impl Fn(BackendKind) -> SimResult) {
    for backend in BackendKind::ALL {
        let got = digest(case(backend));
        assert_eq!(got, expected, "{name} under {backend}: digest {got:#018x}");
    }
}

/// The Fig. 8 configuration: Quick scale on one SM, with a cycle cap low
/// enough to bound the throttling livelocks quickly.
fn quick_sm1(benchmark: Benchmark, scheduler: SchedulerKind, expected: u64) {
    let name = format!("quick/1-SM {benchmark:?} x {scheduler:?}");
    assert_golden(&name, expected, |backend| {
        let mut runner = Runner::new(RunScale::Quick).with_backend(backend);
        runner.config.max_cycles = Some(400_000);
        runner.run_one(benchmark, scheduler)
    });
}

/// The Tiny cache-vs-stream mix under GTO on a chip of `sms` SMs.
fn tiny_cache_stream(sms: usize, policy: DispatchPolicy, arrivals: u64, expected: u64) {
    let name = format!("tiny/{sms} cache-stream {policy} arrivals {arrivals}");
    assert_golden(&name, expected, |backend| {
        Runner::new(RunScale::Tiny)
            .with_sms(sms)
            .with_arrivals(arrivals)
            .with_backend(backend)
            .run_mix(Mix::CacheStream, policy, SchedulerKind::Gto)
    });
}

#[test]
fn quick_sm1_syrk_gto() {
    quick_sm1(Benchmark::Syrk, SchedulerKind::Gto, 0xeede_fa54_b73c_1df9);
}

#[test]
fn quick_sm1_syrk_best_swl() {
    quick_sm1(Benchmark::Syrk, SchedulerKind::BestSwl, 0x6814_8f9f_86fc_6494);
}

#[test]
fn quick_sm1_syrk_ciao_c() {
    quick_sm1(Benchmark::Syrk, SchedulerKind::CiaoC, 0xc865_1b9f_201a_7dde);
}

#[test]
fn quick_sm1_ii_gto() {
    quick_sm1(Benchmark::Ii, SchedulerKind::Gto, 0xe3e3_99ac_be8f_4282);
}

#[test]
fn quick_sm1_ii_best_swl() {
    quick_sm1(Benchmark::Ii, SchedulerKind::BestSwl, 0xc2e7_c76f_792b_fed0);
}

#[test]
fn quick_sm1_ii_ciao_c() {
    quick_sm1(Benchmark::Ii, SchedulerKind::CiaoC, 0x1924_6e90_35f9_b872);
}

// Large-working-set runs dominated by MSHR-full load replays, which the
// event core skips in closed form; recorded before that skip existed.

#[test]
fn quick_sm1_atax_gto() {
    quick_sm1(Benchmark::Atax, SchedulerKind::Gto, 0xeb9a_c1b3_0249_f2db);
}

#[test]
fn quick_sm1_kmn_ccws() {
    quick_sm1(Benchmark::Kmn, SchedulerKind::Ccws, 0x7879_fbee_2520_dff5);
}

#[test]
fn quick_sm1_mvt_ciao_c() {
    quick_sm1(Benchmark::Mvt, SchedulerKind::CiaoC, 0xe6a3_a6e9_94ac_e454);
}

#[test]
fn tiny15_cache_stream_shared_rr() {
    tiny_cache_stream(15, DispatchPolicy::SharedRoundRobin, 0, 0x290b_0e66_cb55_e93c);
}

#[test]
fn tiny15_cache_stream_interference_aware_staggered() {
    tiny_cache_stream(15, DispatchPolicy::InterferenceAware, 5_000, 0xa584_d345_2e04_db4e);
}

#[test]
fn tiny3_exclusive_queue_with_late_arrival() {
    tiny_cache_stream(3, DispatchPolicy::Exclusive, 5_000, 0x8826_7b92_3844_8145);
}

#[test]
fn tiny64_cache_stream_capacity_point() {
    tiny_cache_stream(64, DispatchPolicy::SharedRoundRobin, 0, 0x04fe_b719_a021_e421);
}

#[test]
fn tiny64_cache_stream_interference_aware() {
    tiny_cache_stream(64, DispatchPolicy::InterferenceAware, 0, 0x9aec_8a42_bc0f_d23a);
}

/// The Fig. 8 headline matrix: GTO and CIAO-C over every benchmark at Quick
/// scale on one SM, under the default timing backend (the `quick_sm1_*`
/// cases cross-check the stepping mode).
#[test]
fn quick_sm1_headline_matrix() {
    let records = Runner::new(RunScale::Quick)
        .run_matrix(&Benchmark::all(), &[SchedulerKind::Gto, SchedulerKind::CiaoC]);
    assert_eq!(records.len(), 2 * Benchmark::all().len());
    let got = fnv1a(&records);
    assert_eq!(got, 0xe940_cd3c_3bfa_106f, "quick/1-SM GTO + CIAO-C matrix: digest {got:#018x}");
}

/// Every named mix under shared-rr and interference-aware dispatch with
/// GTO on the Tiny 15-SM chip, solo baselines included.
#[test]
fn tiny15_mix_sweep() {
    let policies = [DispatchPolicy::SharedRoundRobin, DispatchPolicy::InterferenceAware];
    for backend in BackendKind::ALL {
        let runner = Runner::new(RunScale::Tiny).with_sms(15).with_backend(backend);
        let res = mix::run(&runner, &Mix::all(), &policies, &[SchedulerKind::Gto]);
        let got = fnv1a(&res);
        assert_eq!(
            got, 0x00c1_c627_e1ca_1d9f,
            "tiny/15 mix sweep under {backend}: digest {got:#018x}"
        );
    }
}

/// 20k seed-0 arrivals at a mean gap of `gap` cycles on `chips` chips of 8
/// SMs under the reference calibration. Returns the largest per-chip
/// admission queue so a case can show which regime it pins.
fn fleet_20k(chips: usize, gap: f64, placement: PlacementPolicy, expected: u64) -> usize {
    let traffic = TrafficSpec::new(20_000, 0).with_mean_interarrival(gap);
    let req = FleetRequest::new(traffic)
        .chips(chips)
        .placement(placement)
        .calibration(Calibration::reference(8));
    let res = Fleet::new().execute(req);
    let got = fnv1a(&res);
    assert_eq!(got, expected, "fleet {chips} chips, gap {gap}, {placement:?}: digest {got:#018x}");
    res.per_chip.iter().map(|c| c.peak_queue).max().unwrap_or(0)
}

#[test]
fn fleet_stable_4_chips_bin_pack() {
    fleet_20k(4, 4_000.0, PlacementPolicy::BinPack, 0xaf7c_95ae_9fb6_3ed3);
}

#[test]
fn fleet_stable_4_chips_interference_spread() {
    fleet_20k(4, 4_000.0, PlacementPolicy::InterferenceSpread, 0x25f4_7f32_ed2b_1204);
}

#[test]
fn fleet_saturated_2_chips_bin_pack() {
    let peak = fleet_20k(2, 300.0, PlacementPolicy::BinPack, 0x2ca7_1122_f54c_0bbf);
    assert!(peak >= 1_000, "saturated shape must build deep queues, peak {peak}");
}

#[test]
fn fleet_saturated_2_chips_interference_spread() {
    let peak = fleet_20k(2, 300.0, PlacementPolicy::InterferenceSpread, 0xf0a3_ad4f_5804_2c16);
    assert!(peak >= 1_000, "saturated shape must build deep queues, peak {peak}");
}
