//! Integration tests for the fleet tier: traffic generation statistics,
//! seed purity, and a scaled-down run of the acceptance shape. Whole fleet
//! results are pinned by digest in `tests/golden.rs`.

use ciao_suite::fleet::{
    ArrivalRecord, Calibration, CompletionLedger, Fleet, FleetRequest, TrafficSpec,
    FLEET_SCHEMA_VERSION,
};

#[test]
fn traffic_generation_is_seed_pure() {
    let spec = TrafficSpec::new(50_000, 7);
    let a = spec.generate();
    let b = spec.generate();
    assert_eq!(a, b, "same spec, same stream");
    let json_a = serde_json::to_string(&a).unwrap();
    let json_b = serde_json::to_string(&b).unwrap();
    assert_eq!(json_a, json_b, "byte-identical serialisation");
    let other = TrafficSpec::new(50_000, 8).generate();
    assert_ne!(a, other, "different seed, different stream");
}

#[test]
fn traffic_mean_interarrival_matches_the_spec() {
    let mean = 1_250.0;
    let arrivals = TrafficSpec::new(200_000, 3).with_mean_interarrival(mean).generate();
    let span = arrivals.last().unwrap().cycle - arrivals.first().unwrap().cycle;
    let measured = span as f64 / (arrivals.len() - 1) as f64;
    let err = (measured - mean).abs() / mean;
    assert!(err < 0.05, "measured mean {measured:.1} vs spec {mean} ({:.1}% off)", err * 100.0);
}

#[test]
fn fleet_acceptance_shape_runs_and_reports() {
    // A scaled-down version of the acceptance command
    // (`fleet --chips 8 --arrivals 1000000 --seed 0`): every arrival
    // completes, STP is within physical bounds, SLO counts are populated.
    let traffic = TrafficSpec::new(50_000, 0);
    let req = FleetRequest::new(traffic).chips(8).calibration(Calibration::reference(8));
    let res = Fleet::new().execute(req);
    assert_eq!(res.schema_version, FLEET_SCHEMA_VERSION);
    assert_eq!(res.arrivals, 50_000);
    assert_eq!(res.per_class.iter().map(|c| c.jobs).sum::<u64>(), 50_000);
    assert!(res.fleet_stp > 0.0 && res.fleet_stp <= 8.0 + 1e-9);
    assert!(res.per_class.iter().any(|c| c.latency == "interactive"));
    assert!(res.per_class.iter().any(|c| c.latency == "batch"));
}

#[test]
fn fleet_keeps_compact_records_per_job() {
    // The two per-job stores of a fleet run: the arrival record kept until
    // every job is placed, and the completion-ledger entry kept until the
    // report is built. Whole completed-job records took 48 B.
    let record = std::mem::size_of::<ArrivalRecord>();
    assert!(record <= 24, "an arrival record takes {record} B, over 24 B");
    let entry = CompletionLedger::bytes_per_job();
    assert!(entry <= 18, "a completion-ledger entry takes {entry} B, over 18 B");
}
