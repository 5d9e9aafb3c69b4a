//! `fleet` — the cluster-tier experiment: open-loop traffic over a
//! multi-chip fleet under one or both placement policies.
//!
//! One calibration table is measured against the real chip engine (unless a
//! reference table is requested) and shared across every policy run, so a
//! bin-pack vs interference-spread comparison differs only in placement.
//! When both policies run, the report closes with a verdict comparing fleet
//! STP — the acceptance check that interference-aware spread pays off on
//! cache-heavy traffic.

use gpu_fleet::{
    Calibration, Fleet, FleetRequest, FleetResult, PlacementPolicy, SloPolicy, TrafficSpec,
};
use serde::Serialize;

use crate::report::Table;
use crate::runner::log;

/// Everything one `fleet` invocation needs.
#[derive(Debug, Clone)]
pub struct FleetPlan {
    /// Number of chips in the fleet.
    pub chips: usize,
    /// SMs per chip (calibration configuration).
    pub sms: usize,
    /// Arrivals to generate.
    pub arrivals: usize,
    /// Traffic seed.
    pub seed: u64,
    /// Traffic profile name ([`TrafficSpec::PROFILES`]).
    pub profile: String,
    /// Mean inter-arrival gap override in cycles (None = profile default).
    pub mean_interarrival: Option<f64>,
    /// Policies to run (one, or both for the comparison verdict).
    pub policies: Vec<PlacementPolicy>,
    /// `true` skips engine calibration and uses the pinned reference table
    /// (tests and smoke runs).
    pub reference_calibration: bool,
}

impl Default for FleetPlan {
    fn default() -> Self {
        FleetPlan {
            chips: 4,
            sms: 8,
            arrivals: 100_000,
            seed: 0,
            profile: "balanced".to_string(),
            mean_interarrival: None,
            policies: PlacementPolicy::ALL.to_vec(),
            reference_calibration: false,
        }
    }
}

/// The serialisable result of one `fleet` invocation: one [`FleetResult`]
/// per policy (in run order) plus the STP verdict when both policies ran.
#[derive(Debug, Clone, Serialize)]
pub struct FleetExperiment {
    /// Per-policy fleet results.
    pub results: Vec<FleetResult>,
    /// Spread-vs-pack STP verdict (present when ≥ 2 policies ran).
    pub verdict: Option<String>,
}

/// Builds the traffic spec for a plan, exiting on an unknown profile name.
pub fn traffic_for(plan: &FleetPlan) -> Option<TrafficSpec> {
    let mut traffic = TrafficSpec::profile(&plan.profile, plan.arrivals, plan.seed)?;
    if let Some(mean) = plan.mean_interarrival {
        traffic = traffic.with_mean_interarrival(mean);
    }
    Some(traffic)
}

/// Runs the plan: calibrate once, execute every requested policy on the
/// identical traffic and calibration, compare.
pub fn run(plan: &FleetPlan) -> FleetExperiment {
    let traffic = traffic_for(plan).expect("profile validated by the caller");
    let calib = if plan.reference_calibration {
        Calibration::reference(plan.sms)
    } else {
        log(format_args!("calibrating the chip model against the engine ({} SMs) ...", plan.sms));
        Calibration::measure(plan.sms)
    };
    let fleet = Fleet::new();
    let mut results = Vec::new();
    for policy in &plan.policies {
        log(format_args!(
            "fleet: {} chips × {} SMs, {} arrivals ({}), placement {} ...",
            plan.chips,
            plan.sms,
            plan.arrivals,
            plan.profile,
            policy.label()
        ));
        let req = FleetRequest::new(traffic.clone())
            .chips(plan.chips)
            .sms_per_chip(plan.sms)
            .placement(*policy)
            .slo(SloPolicy::default())
            .calibration(calib.clone());
        results.push(fleet.execute(req));
    }
    let verdict = stp_verdict(&results);
    FleetExperiment { results, verdict }
}

/// The spread-vs-pack STP verdict line, when both results are present.
fn stp_verdict(results: &[FleetResult]) -> Option<String> {
    let spread =
        results.iter().find(|r| r.placement == PlacementPolicy::InterferenceSpread.label())?;
    let pack = results.iter().find(|r| r.placement == PlacementPolicy::BinPack.label())?;
    let gain = (spread.fleet_stp / pack.fleet_stp.max(1e-12) - 1.0) * 100.0;
    Some(format!(
        "interference-spread STP {:.3} vs bin-pack {:.3} ({:+.1}%) — \
         SLO violations {} vs {}",
        spread.fleet_stp,
        pack.fleet_stp,
        gain,
        spread.total_slo_violations(),
        pack.total_slo_violations(),
    ))
}

/// Renders the plain-text report: a fleet-summary table, per-class SLO
/// tables per policy, a per-chip utilization table per policy, and the
/// verdict.
pub fn render(r: &FleetExperiment) -> String {
    let mut out = String::new();
    let mut summary = Table::new(
        "Fleet summary",
        &["placement", "chips", "arrivals", "makespan", "fleet STP", "SLO violations"],
    );
    for res in &r.results {
        summary.row(vec![
            res.placement.clone(),
            res.chips.to_string(),
            res.arrivals.to_string(),
            res.makespan.to_string(),
            format!("{:.3}", res.fleet_stp),
            res.total_slo_violations().to_string(),
        ]);
    }
    out.push_str(&summary.render());

    for res in &r.results {
        let mut classes = Table::new(
            format!("Per-class turnaround / SLO — {}", res.placement),
            &[
                "class",
                "latency",
                "jobs",
                "mean",
                "p50",
                "p99",
                "slowdown",
                "SLO mult",
                "violations",
            ],
        );
        for c in &res.per_class {
            classes.row(vec![
                c.class.clone(),
                c.latency.clone(),
                c.jobs.to_string(),
                format!("{:.0}", c.mean_turnaround),
                c.p50_turnaround.to_string(),
                c.p99_turnaround.to_string(),
                format!("{:.2}x", c.mean_slowdown),
                format!("{:.0}x", c.slo_target_mult),
                c.slo_violations.to_string(),
            ]);
        }
        out.push_str(&classes.render());

        let mut chips = Table::new(
            format!("Per-chip utilization — {}", res.placement),
            &["chip", "completed", "busy cycles", "util", "cls cache", "cls stream", "peak queue"],
        );
        for c in &res.per_chip {
            chips.row(vec![
                c.chip.to_string(),
                c.completed.to_string(),
                c.busy_cycles.to_string(),
                format!("{:.1}%", c.utilization * 100.0),
                c.classified_cache.to_string(),
                c.classified_stream.to_string(),
                c.peak_queue.to_string(),
            ]);
        }
        out.push_str(&chips.render());
    }

    if let Some(v) = &r.verdict {
        out.push_str(v);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_plan() -> FleetPlan {
        FleetPlan {
            chips: 2,
            arrivals: 1_000,
            policies: PlacementPolicy::ALL.to_vec(),
            reference_calibration: true,
            ..FleetPlan::default()
        }
    }

    #[test]
    fn run_produces_one_result_per_policy_and_a_verdict() {
        let r = run(&quick_plan());
        assert_eq!(r.results.len(), 2);
        assert!(r.verdict.is_some());
        for res in &r.results {
            assert_eq!(res.arrivals, 1_000);
        }
        let text = render(&r);
        assert!(text.contains("Fleet summary"));
        assert!(text.contains("interference-spread"));
        assert!(text.contains("Per-chip utilization"));
    }

    #[test]
    fn single_policy_run_has_no_verdict() {
        let mut plan = quick_plan();
        plan.policies = vec![PlacementPolicy::BinPack];
        let r = run(&plan);
        assert_eq!(r.results.len(), 1);
        assert!(r.verdict.is_none());
    }

    #[test]
    fn unknown_profile_is_rejected() {
        let plan = FleetPlan { profile: "bursty".into(), ..quick_plan() };
        assert!(traffic_for(&plan).is_none());
    }
}
