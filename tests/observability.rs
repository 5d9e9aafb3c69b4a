//! Acceptance tests for the observability layer: the canonical sim-time
//! trace must be byte-identical across host thread counts and across the
//! epoch/event timing modes, observation must never perturb simulation
//! results, and the exported
//! Chrome trace-event JSON must parse and name every track family (SMs, L2
//! banks, fabric directions, tenants, dispatcher).

use ciao_harness::runner::{RunScale, Runner};
use ciao_harness::schedulers::SchedulerKind;
use ciao_workloads::Mix;
use gpu_sim::{BackendKind, DispatchPolicy, ObsLevel, ObsReport, SimResult};
use serde::Value;

/// The reference observed co-run: the Tiny cache-vs-stream mix on a 15-SM
/// chip under interference-aware dispatch — the configuration whose
/// dispatcher actually throttles and restores.
fn observed_mix(backend: BackendKind, obs: ObsLevel) -> (SimResult, ObsReport) {
    let runner = Runner::new(RunScale::Tiny).with_sms(15).with_backend(backend);
    runner.run_mix_observed(
        Mix::CacheStream,
        DispatchPolicy::InterferenceAware,
        SchedulerKind::CiaoT,
        obs,
    )
}

#[test]
fn canonical_trace_is_byte_identical_across_service_thread_counts() {
    // The chip engine serves its memory system on the calling thread, so the
    // only host-thread axis left is how many threads run simulations at once.
    // Recorders and ring buffers are per run: a co-run observed alone must
    // export exactly what two concurrent copies on worker threads export.
    let (res_1, rep_1) = observed_mix(BackendKind::Event, ObsLevel::Full);
    let concurrent: Vec<(SimResult, ObsReport)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| scope.spawn(|| observed_mix(BackendKind::Event, ObsLevel::Full)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("observed co-run panicked")).collect()
    });
    assert!(!rep_1.events.is_empty(), "the full-obs run must have recorded events");
    assert_eq!(rep_1.dropped_events, 0, "the ring buffers must not have overflowed");
    for (res_n, rep_n) in &concurrent {
        assert_eq!(
            rep_1.chrome_trace_json(),
            rep_n.chrome_trace_json(),
            "host thread count changed the canonical trace"
        );
        assert_eq!(
            rep_1.metrics_json(),
            rep_n.metrics_json(),
            "host thread count changed the metrics"
        );
        assert_eq!(
            serde_json::to_string_pretty(&res_1).unwrap(),
            serde_json::to_string_pretty(res_n).unwrap(),
            "host thread count changed the simulation itself"
        );
    }
}

#[test]
fn canonical_trace_is_byte_identical_across_timing_backends() {
    // Engine-category events (idle skips, chip sleeps) differ between modes
    // by design; the canonical export excludes them, so what is left must
    // agree exactly — as must the metrics registry.
    let (res_epoch, rep_epoch) = observed_mix(BackendKind::Epoch, ObsLevel::Full);
    let (mut res_event, rep_event) = observed_mix(BackendKind::Event, ObsLevel::Full);
    assert!(!rep_epoch.events.is_empty(), "the full-obs run must have recorded events");
    assert_eq!(rep_epoch.dropped_events, 0, "the ring buffers must not have overflowed");
    assert_eq!(
        rep_epoch.chrome_trace_json(),
        rep_event.chrome_trace_json(),
        "timing mode changed the canonical trace"
    );
    assert_eq!(
        rep_epoch.metrics_json(),
        rep_event.metrics_json(),
        "timing mode changed the metrics"
    );
    // The results themselves are bit-identical in everything but the
    // backend label.
    assert_eq!(res_event.backend, "event");
    res_event.backend = res_epoch.backend.clone();
    assert_eq!(
        serde_json::to_string_pretty(&res_epoch).unwrap(),
        serde_json::to_string_pretty(&res_event).unwrap(),
    );
}

#[test]
fn observation_never_perturbs_the_simulation() {
    // Full observability must be a pure read: the serialised SimResult is
    // byte-identical to the unobserved run, and an off-level report is empty.
    let (res_off, rep_off) = observed_mix(BackendKind::Epoch, ObsLevel::Off);
    let (res_full, _) = observed_mix(BackendKind::Epoch, ObsLevel::Full);
    assert!(rep_off.events.is_empty(), "ObsLevel::Off must record nothing");
    assert!(!rep_off.profile.is_enabled(), "ObsLevel::Off must not profile");
    assert_eq!(
        serde_json::to_string_pretty(&res_off).unwrap(),
        serde_json::to_string_pretty(&res_full).unwrap(),
        "observation changed the simulation"
    );
}

/// Collects the string value at `key` of a JSON object, if present.
fn str_field<'v>(obj: &'v Value, key: &str) -> Option<&'v str> {
    match obj.get(key) {
        Some(Value::Str(s)) => Some(s.as_str()),
        _ => None,
    }
}

#[test]
fn trace_export_parses_and_names_every_track_family() {
    let (_, report) = observed_mix(BackendKind::Epoch, ObsLevel::Full);
    let json = report.chrome_trace_json();
    let root: Value = serde_json::from_str(&json).expect("the trace export must be valid JSON");
    let Some(Value::Array(events)) = root.get("traceEvents") else {
        panic!("the export must carry a traceEvents array");
    };
    assert!(!events.is_empty());

    // Track names come from the thread_name metadata records.
    let mut tracks: Vec<&str> = Vec::new();
    let mut phases: Vec<&str> = Vec::new();
    let mut names: Vec<&str> = Vec::new();
    for ev in events {
        let ph = str_field(ev, "ph").expect("every record has a phase");
        phases.push(ph);
        if ph == "M" {
            if let Some(name) = ev.get("args").and_then(|a| str_field(a, "name")) {
                tracks.push(name);
            }
        } else {
            names.push(str_field(ev, "name").expect("every event is named"));
            assert!(ev.get("ts").is_some(), "every event carries a timestamp");
            assert!(ev.get("tid").is_some(), "every event sits on a track");
        }
    }
    // One track per SM, per L2 bank, per fabric direction, per tenant, plus
    // the dispatcher's own timeline.
    for expected in ["SM 0", "SM 14", "L2 bank 0", "fabric request", "fabric reply", "dispatcher"] {
        assert!(tracks.contains(&expected), "missing track {expected:?} in {tracks:?}");
    }
    assert!(tracks.iter().any(|t| t.starts_with("tenant 0:")), "missing tenant 0 track");
    assert!(tracks.iter().any(|t| t.starts_with("tenant 1:")), "missing tenant 1 track");
    // Only complete spans ("X"), instants ("i") and metadata ("M") appear.
    assert!(phases.iter().all(|p| matches!(*p, "X" | "i" | "M")), "unexpected phase");
    // The dispatcher timeline carries its decision instants, including the
    // throttle/restore activity this mix provokes.
    for expected in ["admit", "place"] {
        assert!(names.contains(&expected), "missing dispatch instant {expected:?}");
    }
    assert!(
        names.contains(&"throttle") || names.contains(&"restore"),
        "the interference-aware co-run must surface throttle/restore instants"
    );
    // The engine-only categories never leak into the canonical export.
    assert!(!names.contains(&"pop"), "engine events leaked into the canonical trace");
    assert!(!names.contains(&"idle-skip"), "engine events leaked into the canonical trace");
}
