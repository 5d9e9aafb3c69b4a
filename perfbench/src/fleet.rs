//! `fleet8-steady`: 8 chips × 8 SMs with the pinned reference calibration,
//! balanced open-loop Poisson traffic at a mean gap of 4,000 cycles — a
//! stable load, where interference-aware placement matters — placed by
//! bin-pack and by interference-spread on identical traffic.
//!
//! Only the fleet epoch loop, placement scoring and the chip rate-server
//! model run here; no cycle-level simulation.

use std::time::Instant;

use gpu_fleet::{
    Arrival, Calibration, Fleet, FleetRequest, FleetResult, LatencyClass, PlacementPolicy,
    TrafficSpec,
};
use gpu_sim::ObsLevel;

use crate::common::{self, Fnv, Pass, PassCtx};

/// Arrivals per placement run.
pub const ARRIVALS: usize = 400_000;
/// Mean inter-arrival gap in cycles.
pub const MEAN_GAP: f64 = 4_000.0;
/// Chips in the fleet.
pub const CHIPS: usize = 8;
/// SMs per chip.
pub const SMS_PER_CHIP: usize = 8;

/// The placements compared, baseline first.
pub const PLACEMENTS: [PlacementPolicy; 2] =
    [PlacementPolicy::BinPack, PlacementPolicy::InterferenceSpread];

/// The workload's inputs: one request per placement, built from its own
/// copy of the traffic spec.
pub struct FleetBench {
    requests: Vec<FleetRequest>,
    /// Digest of each request's generated arrival stream.
    traffic: Vec<u64>,
    /// Modelled instructions over one stream.
    work: u64,
    /// Host seconds spent generating the streams.
    pub generate_s: f64,
}

fn traffic_digest(arrivals: &[Arrival]) -> u64 {
    let mut h = Fnv::default();
    for a in arrivals {
        let latency = u8::from(a.latency == LatencyClass::Interactive);
        h.write(&a.id.to_le_bytes());
        h.write(&a.cycle.to_le_bytes());
        h.write(&[a.class.index() as u8, latency]);
        h.write(&a.work.to_le_bytes());
    }
    h.finish()
}

impl FleetBench {
    /// Builds the traffic and calibration for `seed`.
    pub fn setup(seed: u64) -> Self {
        let calibration = Calibration::reference(SMS_PER_CHIP);
        let mut requests = Vec::new();
        let mut traffic = Vec::new();
        let mut work = 0;
        let mut generate_s = 0.0;
        for placement in PLACEMENTS {
            let spec = TrafficSpec::profile("balanced", ARRIVALS, seed)
                .expect("balanced is a named profile")
                .with_mean_interarrival(MEAN_GAP);
            let t0 = Instant::now();
            let arrivals = spec.generate();
            generate_s += t0.elapsed().as_secs_f64();
            traffic.push(traffic_digest(&arrivals));
            work = arrivals.iter().map(|a| a.work).sum();
            requests.push(
                FleetRequest::new(spec)
                    .chips(CHIPS)
                    .sms_per_chip(SMS_PER_CHIP)
                    .placement(placement)
                    .calibration(calibration.clone()),
            );
        }
        FleetBench { requests, traffic, work, generate_s }
    }

    /// Runs both placements once.
    pub fn pass(&self, ctx: &PassCtx) -> Pass {
        let start = Instant::now();
        let outcomes = common::par_map(
            &self.requests,
            &ctx.order(self.requests.len()),
            ctx.threads,
            |i, req| {
                let t0 = Instant::now();
                let ((res, skipped), timing) = common::timed(|| {
                    if ctx.traced() {
                        let req = req.clone().obs(ObsLevel::Metrics);
                        let (res, report) = Fleet::new().execute_observed(req);
                        (res, report.metrics.counter("engine/skipped-chip-epochs", None))
                    } else {
                        (Fleet::new().execute(req.clone()), 0)
                    }
                });
                ctx.span("fleet-execute", t0, Instant::now(), i);
                (res, timing, skipped)
            },
        );
        let wall_s = start.elapsed().as_secs_f64();

        let mut pass = Pass { wall_s, ..Pass::default() };
        let mut digest = Fnv::default();
        for (res, timing, skipped) in &outcomes {
            digest.write(serde_json::to_string(res).expect("FleetResult serialises").as_bytes());
            digest.write(b"\n");
            pass.calls.push(common::Call {
                label: res.placement.clone(),
                timing: *timing,
                failure: check_result(res),
                known_livelock: false,
                instructions: self.work,
                sm_cycles: res.makespan * (res.chips * res.sms_per_chip) as u64,
            });
            let layers = &mut pass.layers;
            if ctx.traced() {
                layers.insert(format!("fleet.execute_s.{}", res.placement), timing.host_s);
                *layers.entry("fleet.skipped_chip_epochs".into()).or_default() += *skipped as f64;
                let peak = res.per_chip.iter().map(|c| c.peak_queue).max().unwrap_or(0) as f64;
                let peak_max = layers.entry("fleet.peak_queue_max".into()).or_default();
                *peak_max = peak_max.max(peak);
            }
        }
        pass.digest = digest.finish();

        // Both placements must have seen byte-identical traffic.
        pass.checks += 1;
        let (pack, spread) = (&outcomes[0].0, &outcomes[1].0);
        if self.traffic.windows(2).any(|w| w[0] != w[1]) || pack.seed != spread.seed {
            pass.check_failures.push("the placements saw different traffic".into());
        }

        let interactive_p99 = spread
            .per_class
            .iter()
            .filter(|c| c.latency == LatencyClass::Interactive.label())
            .map(|c| c.p99_turnaround)
            .max()
            .unwrap_or(0);
        let violation_rate = |r: &FleetResult| r.total_slo_violations() as f64 / r.arrivals as f64;
        pass.model = vec![
            ("fleet_stp", spread.fleet_stp),
            ("slo_violation_rate", violation_rate(spread)),
            ("interactive_p99_kcycles", interactive_p99 as f64 / 1e3),
            ("pack_fleet_stp", pack.fleet_stp),
            ("pack_slo_violation_rate", violation_rate(pack)),
        ];
        // Interference-aware placement's gain at a stable load: the share
        // of bin-pack's SLO violations that spread placement avoids.
        pass.model_gain = 1.0 - violation_rate(spread) / violation_rate(pack);
        if ctx.traced() {
            let util: Vec<f64> = spread.per_chip.iter().map(|c| c.utilization).collect();
            let layers = &mut pass.layers;
            layers.insert("fleet.generate_s".into(), self.generate_s);
            layers.insert("fleet.util_mean".into(), util.iter().sum::<f64>() / util.len() as f64);
            layers.insert("fleet.spread_over_pack_stp".into(), spread.fleet_stp / pack.fleet_stp);
            layers.insert(
                "fleet.arrivals_per_s".into(),
                (ARRIVALS * PLACEMENTS.len()) as f64 / wall_s,
            );
        }
        pass
    }
}

/// Output checks on one placement run: every arrival completes and is
/// reported exactly once, and STP stays within the chip count.
fn check_result(res: &FleetResult) -> Option<String> {
    let per_class: u64 = res.per_class.iter().map(|c| c.jobs).sum();
    let per_chip: u64 = res.per_chip.iter().map(|c| c.completed).sum();
    if res.arrivals != ARRIVALS as u64 || per_class != res.arrivals || per_chip != res.arrivals {
        return Some(format!(
            "{} arrivals, {per_class} reported per class, {per_chip} completed per chip",
            res.arrivals
        ));
    }
    if !(res.fleet_stp > 0.0 && res.fleet_stp <= res.chips as f64 + 1e-9) {
        return Some(format!("fleet STP {} outside (0, {}]", res.fleet_stp, res.chips));
    }
    None
}
