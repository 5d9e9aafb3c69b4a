//! The fleet driver: [`FleetRequest`] → [`Fleet::execute`] → [`FleetResult`].
//!
//! This is the cluster-tier mirror of the chip tier's
//! [`gpu_sim::SimRequest`] / [`gpu_sim::Simulator::execute`] /
//! [`gpu_sim::SimResult`] triple: describe the whole run up front with a
//! builder (chip count and size, placement policy, traffic spec, SLO
//! policy, observability level), execute it in one call, get
//! a schema-versioned, deterministically serialisable result back.
//!
//! ## Execution model
//!
//! Time advances in fixed *placement epochs* of 16,384 cycles. Each epoch
//! the coordinator:
//!
//! 1. snapshots every chip's [`ChipView`] (its load and the classes of the
//!    resident jobs its dispatcher has classified — one epoch of
//!    staleness, like a real cluster scheduler polling its chips);
//! 2. places the epoch's arrivals sequentially with the configured
//!    [`PlacementPolicy`], updating planned-load counts as it goes;
//! 3. advances all *due* chips to the epoch end, in chip order. Chips
//!    whose [`ChipModel::next_event_time`] sleep hint lies beyond the
//!    epoch end are skipped outright (no advance, no re-polled view), so
//!    mostly-idle chips cost ~nothing per epoch; the elided chip-epochs are
//!    surfaced as the engine-namespaced `engine/skipped-chip-epochs`
//!    metric.
//!
//! Chips never interact inside an epoch and the sleep-skip predicate is a
//! pure function of chip state, so the result is **bit-identical across
//! repeated runs** of the same request.
//!
//! The epoch length is part of the model, not a tuning knob: results depend
//! on it twice. Placement reads views that are up to one epoch stale, and
//! advancing a due chip to each epoch end splits its integration step, so
//! a completion's whole-cycle rounding can land on a different cycle (see
//! [`ChipModel`]). Changing the length moves results, so it is fixed.
//!
//! ## Reporting
//!
//! [`FleetResult`] carries fleet STP (accumulated solo-equivalent work
//! over makespan — the cluster analogue of the paper's STP metric),
//! per-(tenant class × latency class) p50/p99 turnaround and SLO-violation
//! counts (violation = turnaround exceeding the class's multiple of the
//! job's solo service time), and per-chip utilization, all built from
//! `Vec`s and fixed orders so the JSON is byte-stable.
//!
//! ## Memory per job
//!
//! Per job, a run keeps two records. While placing, it holds each arrival
//! as a 24 B [`ArrivalRecord`] (the id is the record's index), filled in
//! one pass from the [`TrafficSpec`]'s generator and dropped once every
//! job is placed. Each chip records its completions in a
//! [`CompletionLedger`](crate::CompletionLedger) of 18 B per job
//! (turnaround, size and the class pair) plus its last completion cycle,
//! which gives the makespan. The reports read the ledgers chip by chip,
//! each in completion order. Every float sum in [`FleetResult`] depends on
//! that order and on nothing of the ledger's layout, so storing columns
//! instead of whole per-job records leaves the result bit for bit the
//! same. Each [`Fleet::execute`] still generates its stream from the
//! [`TrafficSpec`] afresh, so running both placements generates it twice.

use serde::{Deserialize, Serialize};
use sim_obs::{chip_metric, MetricsRegistry, ObsLevel, ObsReport};

use crate::calib::Calibration;
use crate::chip::{ChipModel, ChipView, MAX_RESIDENT};
use crate::placement::{PlacementContext, PlacementPolicy};
use crate::traffic::{ArrivalRecord, LatencyClass, TrafficSpec, WorkClass};

/// Version of the [`FleetResult`] JSON schema.
///
/// * **v1** — initial fleet surface: `fleet_stp`, per-(class × latency)
///   turnaround percentiles and SLO counts, per-chip utilization.
pub const FLEET_SCHEMA_VERSION: u32 = 1;

/// SLO policy: a completed job violates its SLO when its turnaround
/// (finish − arrival) exceeds `mult × solo service time`, with the
/// multiple chosen by latency class. Interactive jobs promise a tight
/// multiple; batch jobs a loose one.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SloPolicy {
    /// Turnaround multiple allowed for interactive jobs.
    pub interactive_mult: f64,
    /// Turnaround multiple allowed for batch jobs.
    pub batch_mult: f64,
}

impl Default for SloPolicy {
    fn default() -> Self {
        SloPolicy { interactive_mult: 4.0, batch_mult: 20.0 }
    }
}

impl SloPolicy {
    /// The multiple for `latency`.
    pub fn mult(&self, latency: LatencyClass) -> f64 {
        match latency {
            LatencyClass::Interactive => self.interactive_mult,
            LatencyClass::Batch => self.batch_mult,
        }
    }
}

/// Builder describing one fleet run, mirroring [`gpu_sim::SimRequest`].
#[derive(Debug, Clone)]
pub struct FleetRequest {
    chips: usize,
    sms_per_chip: usize,
    placement: PlacementPolicy,
    traffic: TrafficSpec,
    slo: SloPolicy,
    obs: ObsLevel,
    calibration: Option<Calibration>,
}

/// Placement-epoch length in cycles (see the module docs).
const EPOCH_CYCLES: u64 = 16_384;

impl FleetRequest {
    /// A fleet run over `traffic`: 4 chips of 8 SMs, interference-aware
    /// spread placement, default SLO policy, observability off.
    pub fn new(traffic: TrafficSpec) -> Self {
        FleetRequest {
            chips: 4,
            sms_per_chip: 8,
            placement: PlacementPolicy::default(),
            traffic,
            slo: SloPolicy::default(),
            obs: ObsLevel::Off,
            calibration: None,
        }
    }

    /// Sets the number of chips in the fleet.
    pub fn chips(mut self, chips: usize) -> Self {
        assert!(chips >= 1, "a fleet needs at least one chip");
        self.chips = chips;
        self
    }

    /// Sets the SM count of every chip.
    pub fn sms_per_chip(mut self, sms: usize) -> Self {
        assert!(sms >= 1, "chips need at least one SM");
        self.sms_per_chip = sms;
        self
    }

    /// Sets the placement policy.
    pub fn placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = placement;
        self
    }

    /// Sets the SLO policy.
    pub fn slo(mut self, slo: SloPolicy) -> Self {
        self.slo = slo;
        self
    }

    /// Sets the observability level for [`Fleet::execute_observed`].
    pub fn obs(mut self, obs: ObsLevel) -> Self {
        self.obs = obs;
        self
    }

    /// Overrides the chip calibration table. Without an override,
    /// [`Fleet::execute`] measures one against the real chip engine at
    /// [`FleetRequest::sms_per_chip`] SMs ([`Calibration::measure`]).
    pub fn calibration(mut self, calib: Calibration) -> Self {
        self.calibration = Some(calib);
        self
    }
}

/// Per-(tenant class × latency class) turnaround and SLO report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassReport {
    /// Tenant class label ([`WorkClass::label`]).
    pub class: String,
    /// Latency class label ([`LatencyClass::label`]).
    pub latency: String,
    /// Completed jobs in this bucket.
    pub jobs: u64,
    /// Mean turnaround in cycles.
    pub mean_turnaround: f64,
    /// Median turnaround in cycles.
    pub p50_turnaround: u64,
    /// 99th-percentile turnaround in cycles.
    pub p99_turnaround: u64,
    /// Mean turnaround over solo service time (the per-job slowdown the
    /// paper's ANTT metric averages).
    pub mean_slowdown: f64,
    /// The SLO multiple this bucket was held to.
    pub slo_target_mult: f64,
    /// Jobs whose turnaround exceeded `slo_target_mult ×` solo time.
    pub slo_violations: u64,
}

/// Per-chip utilization report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChipReport {
    /// Chip index.
    pub chip: usize,
    /// Jobs this chip completed.
    pub completed: u64,
    /// Cycles the chip had at least one resident job.
    pub busy_cycles: u64,
    /// Resident-slot occupancy over the fleet makespan: slot-cycles /
    /// (`MAX_RESIDENT` × makespan), in `[0, 1]`.
    pub utilization: f64,
    /// Cache-sensitive classification verdicts the chip's dispatcher
    /// issued.
    pub classified_cache: u64,
    /// Streaming classification verdicts.
    pub classified_stream: u64,
    /// Peak admission-queue depth.
    pub peak_queue: usize,
}

/// The schema-versioned result of one fleet run. Serialises to
/// byte-identical JSON for identical requests; no wall-clock data lives
/// here.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetResult {
    /// [`FLEET_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Placement-policy label.
    pub placement: String,
    /// Number of chips.
    pub chips: usize,
    /// SMs per chip.
    pub sms_per_chip: usize,
    /// Traffic seed.
    pub seed: u64,
    /// Arrivals generated (all of them complete before the run ends).
    pub arrivals: u64,
    /// Cycle the last job finished at.
    pub makespan: u64,
    /// Fleet system throughput: Σ per-job solo service time over makespan
    /// — solo-chip-equivalents sustained; the fleet analogue of the
    /// paper's STP, upper-bounded by the chip count.
    pub fleet_stp: f64,
    /// Per-(tenant class × latency class) turnaround/SLO reports, in
    /// ([`WorkClass::ALL`] × [batch, interactive]) order, present only for
    /// non-empty buckets.
    pub per_class: Vec<ClassReport>,
    /// Per-chip reports, in chip order.
    pub per_chip: Vec<ChipReport>,
}

impl FleetResult {
    /// Total SLO violations across all buckets.
    pub fn total_slo_violations(&self) -> u64 {
        self.per_class.iter().map(|c| c.slo_violations).sum()
    }
}

/// The cluster-tier execution engine, mirroring [`gpu_sim::Simulator`].
#[derive(Debug, Default)]
pub struct Fleet;

impl Fleet {
    /// Creates a fleet engine.
    pub fn new() -> Self {
        Fleet
    }

    /// Executes `req` and returns the fleet result. See the module docs
    /// for the execution model and the determinism guarantee.
    pub fn execute(&self, req: FleetRequest) -> FleetResult {
        self.execute_observed(req).0
    }

    /// [`Fleet::execute`] plus the run's [`ObsReport`] (fleet-level
    /// metrics with per-chip [`chip_metric`] labels at
    /// [`ObsLevel::Metrics`] and above). The result is byte-identical to
    /// [`Fleet::execute`] — collection is passive.
    pub fn execute_observed(&self, req: FleetRequest) -> (FleetResult, ObsReport) {
        let out = self.simulate(req);
        release_freed_memory();
        out
    }

    /// The run behind [`Fleet::execute_observed`]. The arrival records
    /// (24 B per job, filled straight from the traffic stream) are dropped
    /// once every job is placed; the chip models with their completion
    /// ledgers (18 B per job) when it returns.
    fn simulate(&self, req: FleetRequest) -> (FleetResult, ObsReport) {
        let mut arrivals = Vec::with_capacity(req.traffic.arrivals);
        for arrival in req.traffic.stream() {
            arrivals.push(ArrivalRecord::from(arrival));
        }
        let calib =
            req.calibration.clone().unwrap_or_else(|| Calibration::measure(req.sms_per_chip));
        // A chip completes at most every arrival.
        let mut chips: Vec<ChipModel> = (0..req.chips)
            .map(|c| {
                let mut chip = ChipModel::new(c, calib.clone());
                chip.reserve_completions(arrivals.len());
                chip
            })
            .collect();

        // Typical per-job solo cycles of this traffic, for converting the
        // views' classified resident counts into backlog-cycle units.
        let typical = arrivals.iter().map(|a| calib.solo_cycles(a.class, a.work)).sum::<f64>()
            / (arrivals.len().max(1) as f64);
        let ctx = PlacementContext::new(&calib, typical);
        let skipped_chip_epochs = run_epochs(&arrivals, &mut chips, req.placement, &ctx);
        let n_arrivals = arrivals.len();
        drop(arrivals);

        // The reports read each chip's ledger in place, chip after chip.
        let makespan = chips.iter().map(|c| c.ledger().last_finish()).max().unwrap_or(0);
        debug_assert_eq!(
            chips.iter().map(|c| c.ledger().len()).sum::<usize>(),
            n_arrivals,
            "every arrival must complete"
        );
        let chip_reports = chips
            .iter()
            .enumerate()
            .map(|(c, chip)| {
                let acct = chip.accounting();
                let denom = (MAX_RESIDENT as u64 * makespan).max(1) as f64;
                ChipReport {
                    chip: c,
                    completed: acct.completed,
                    busy_cycles: acct.busy_cycles,
                    utilization: acct.slot_cycles as f64 / denom,
                    classified_cache: acct.classified[WorkClass::Cache.index()],
                    classified_stream: acct.classified[WorkClass::Stream.index()],
                    peak_queue: acct.peak_queue,
                }
            })
            .collect();

        let (per_class, total_solo) = class_reports(&chips, &calib, &req.slo);
        let fleet_stp = if makespan > 0 { total_solo / makespan as f64 } else { 0.0 };

        let result = FleetResult {
            schema_version: FLEET_SCHEMA_VERSION,
            placement: req.placement.label().to_string(),
            chips: req.chips,
            sms_per_chip: req.sms_per_chip,
            seed: req.traffic.seed,
            arrivals: n_arrivals as u64,
            makespan,
            fleet_stp,
            per_class,
            per_chip: chip_reports,
        };

        let mut report = ObsReport::new(req.obs);
        if req.obs.metrics_enabled() {
            report.metrics = fleet_metrics(&result, &chips);
            // Engine-namespaced (excluded from the canonical JSON export):
            // how many chip-epochs the sleep hints elided. Deterministic —
            // the skip predicate is a pure function of chip state — but an
            // execution-cost statistic, not a model output.
            report.metrics.counter_add("engine/skipped-chip-epochs", None, skipped_chip_epochs);
        }
        (result, report)
    }
}

/// Returns the memory a finished run freed to the operating system.
///
/// A run's transient state is tens of MiB, allocated on the calling
/// thread. glibc keeps freed memory cached in that thread's malloc arena,
/// and a thread that starts while another still holds its arena gets a
/// fresh arena, so a process running fleets on short-lived threads would
/// keep one run's worth of memory per arena it happened to use — a peak
/// footprint that depends on thread timing. Trimming after each run makes
/// the footprint independent of which threads ran the fleets.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_freed_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::ffi::c_int;
    }
    // SAFETY: `malloc_trim` is thread-safe and only hands free heap pages
    // back to the kernel; no live allocation is touched.
    unsafe {
        malloc_trim(0);
    }
}

/// Other allocators keep no per-thread caches worth returning.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_freed_memory() {}

/// The epoch loop: snapshot views, place the epoch's arrivals
/// sequentially, then advance every due chip to the epoch end; at the end,
/// drain every chip to completion.
///
/// Per-chip sleep hints ([`ChipModel::next_event_time`]) decide which chips
/// are due: a chip whose hint lies beyond the epoch end is skipped entirely
/// — no advance, no re-polled view. A hint is lowered when placement
/// pushes an arrival and refreshed after the chip advances. Returns the
/// number of skipped chip-epochs.
fn run_epochs(
    arrivals: &[ArrivalRecord],
    chips: &mut [ChipModel],
    placement: PlacementPolicy,
    ctx: &PlacementContext,
) -> u64 {
    // Views are cached across epochs and refreshed only for chips that
    // actually advanced: a sleeping chip's state — and therefore its
    // placement-visible view — cannot change, and any chip placement
    // pushes to becomes due (its hint drops to the arrival cycle, inside
    // this epoch), so its view is refreshed before the next placement.
    let mut views: Vec<ChipView> = chips.iter().map(ChipModel::view).collect();
    let mut hints = vec![u64::MAX; chips.len()];
    let mut skipped = 0u64;
    let mut idx = 0;
    let mut t = 0u64;
    while idx < arrivals.len() {
        // Fast-forward over arrival gaps: the epoch grid restarts at the
        // next arrival when the current epoch would be empty.
        t = t.max(arrivals[idx].cycle.saturating_sub(EPOCH_CYCLES - 1));
        let epoch_end = t.saturating_add(EPOCH_CYCLES);
        while idx < arrivals.len() && arrivals[idx].cycle < epoch_end {
            let a = &arrivals[idx];
            let pick = placement.place(a.class, &views, ctx);
            let solo = chips[pick].push(a);
            views[pick].queued += 1;
            views[pick].pending_class_cycles[a.class.index()] += solo;
            hints[pick] = hints[pick].min(a.cycle);
            idx += 1;
        }
        for (c, chip) in chips.iter_mut().enumerate() {
            if hints[c] > epoch_end {
                skipped += 1;
                continue;
            }
            chip.advance_to(epoch_end);
            hints[c] = chip.next_event_time();
            views[c] = chip.view();
        }
        t = epoch_end;
    }
    for chip in chips.iter_mut() {
        chip.advance_to(u64::MAX);
    }
    skipped
}

/// One (class × latency) report bucket while its jobs are collected.
#[derive(Default)]
struct Bucket {
    turnarounds: Vec<u64>,
    slowdowns: f64,
    violations: u64,
}

/// Index of the (class × latency) bucket, in report order.
fn bucket(class: WorkClass, latency: LatencyClass) -> usize {
    2 * class.index() + usize::from(latency == LatencyClass::Interactive)
}

/// Builds the per-(class × latency) reports from each chip's completion
/// ledger, in one pass, chip by chip and each chip in completion order, and
/// returns them with the jobs' total solo service time (the numerator of
/// fleet STP). Every bucket and the total add their terms in that order.
fn class_reports(
    chips: &[ChipModel],
    calib: &Calibration,
    slo: &SloPolicy,
) -> (Vec<ClassReport>, f64) {
    let mut buckets: [Bucket; 6] = Default::default();
    let mut total_solo = 0.0f64;
    for j in chips.iter().flat_map(|c| c.ledger().iter()) {
        let solo = calib.solo_cycles(j.class, j.work);
        total_solo += solo;
        let solo = solo.max(1.0);
        let b = &mut buckets[bucket(j.class, j.latency)];
        b.slowdowns += j.turnaround as f64 / solo;
        if j.turnaround as f64 > slo.mult(j.latency) * solo {
            b.violations += 1;
        }
        b.turnarounds.push(j.turnaround);
    }

    let mut reports = Vec::new();
    for class in WorkClass::ALL {
        for latency in [LatencyClass::Batch, LatencyClass::Interactive] {
            let b = &mut buckets[bucket(class, latency)];
            if b.turnarounds.is_empty() {
                continue;
            }
            b.turnarounds.sort_unstable();
            let n = b.turnarounds.len();
            let sum: u64 = b.turnarounds.iter().sum();
            reports.push(ClassReport {
                class: class.label().to_string(),
                latency: latency.label().to_string(),
                jobs: n as u64,
                mean_turnaround: sum as f64 / n as f64,
                p50_turnaround: b.turnarounds[n / 2],
                p99_turnaround: b.turnarounds[(n * 99) / 100],
                mean_slowdown: b.slowdowns / n as f64,
                slo_target_mult: slo.mult(latency),
                slo_violations: b.violations,
            });
        }
    }
    (reports, total_solo)
}

/// Fleet-level metrics: fleet counters plus per-chip series namespaced
/// with [`chip_metric`]. Per-class turnaround histograms use the class
/// index as the tenant label.
fn fleet_metrics(result: &FleetResult, chips: &[ChipModel]) -> MetricsRegistry {
    let mut m = MetricsRegistry::new();
    m.counter_add("fleet/arrivals", None, result.arrivals);
    m.counter_add("fleet/slo_violations", None, result.total_slo_violations());
    for c in &result.per_chip {
        m.counter_add(&chip_metric(c.chip, "completed"), None, c.completed);
        m.counter_add(&chip_metric(c.chip, "busy_cycles"), None, c.busy_cycles);
        m.counter_add(&chip_metric(c.chip, "classified_cache"), None, c.classified_cache);
        m.counter_add(&chip_metric(c.chip, "classified_stream"), None, c.classified_stream);
    }
    for j in chips.iter().flat_map(|c| c.ledger().iter()) {
        m.histogram_record("fleet/turnaround", Some(j.class.index() as u32), j.turnaround);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_request(arrivals: usize, seed: u64) -> FleetRequest {
        FleetRequest::new(
            TrafficSpec::new(arrivals, seed)
                .with_mean_interarrival(400.0)
                .with_work_range(2_000, 100_000),
        )
        .chips(3)
        .calibration(Calibration::reference(8))
    }

    #[test]
    fn all_arrivals_complete_and_report_is_consistent() {
        let res = Fleet::new().execute(quick_request(2_000, 1));
        assert_eq!(res.schema_version, FLEET_SCHEMA_VERSION);
        assert_eq!(res.arrivals, 2_000);
        let per_class_jobs: u64 = res.per_class.iter().map(|c| c.jobs).sum();
        let per_chip_jobs: u64 = res.per_chip.iter().map(|c| c.completed).sum();
        assert_eq!(per_class_jobs, 2_000);
        assert_eq!(per_chip_jobs, 2_000);
        assert!(res.makespan > 0);
        assert!(res.fleet_stp > 0.0 && res.fleet_stp <= res.chips as f64 + 1e-9);
        for c in &res.per_class {
            assert!(c.p50_turnaround <= c.p99_turnaround);
            assert!(c.mean_slowdown >= 1.0 - 1e-9);
            assert!(c.slo_violations <= c.jobs);
        }
        for c in &res.per_chip {
            assert!((0.0..=1.0).contains(&c.utilization));
        }
    }

    #[test]
    fn repeated_runs_are_byte_identical() {
        let a = serde_json::to_string(&Fleet::new().execute(quick_request(800, 4))).unwrap();
        let b = serde_json::to_string(&Fleet::new().execute(quick_request(800, 4))).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn interactive_jobs_see_lower_latency_than_batch() {
        let req = FleetRequest::new(
            TrafficSpec::new(4_000, 2)
                .with_mean_interarrival(150.0)
                .with_work_range(2_000, 50_000)
                .with_interactive_fraction(0.3),
        )
        .chips(2)
        .calibration(Calibration::reference(8));
        let res = Fleet::new().execute(req);
        let mean = |lat: &str| {
            let rows: Vec<_> = res.per_class.iter().filter(|c| c.latency == lat).collect();
            rows.iter().map(|c| c.mean_slowdown * c.jobs as f64).sum::<f64>()
                / rows.iter().map(|c| c.jobs as f64).sum::<f64>()
        };
        assert!(
            mean("interactive") < mean("batch"),
            "queue priority + double share must favour interactive jobs"
        );
    }

    #[test]
    fn spread_beats_bin_pack_on_a_cache_heavy_mix() {
        let traffic = TrafficSpec::profile("cache-heavy", 3_000, 0)
            .unwrap()
            .with_mean_interarrival(250.0)
            .with_work_range(5_000, 100_000);
        let run = |placement| {
            Fleet::new().execute(
                FleetRequest::new(traffic.clone())
                    .chips(4)
                    .placement(placement)
                    .calibration(Calibration::reference(8)),
            )
        };
        let spread = run(PlacementPolicy::InterferenceSpread);
        let pack = run(PlacementPolicy::BinPack);
        assert!(
            spread.fleet_stp > pack.fleet_stp,
            "spread ({:.3}) must beat bin-pack ({:.3}) on a cache-heavy mix",
            spread.fleet_stp,
            pack.fleet_stp
        );
    }

    #[test]
    fn observed_run_collects_fleet_metrics_passively() {
        let (plain, off_report) = Fleet::new().execute_observed(quick_request(500, 6));
        assert!(off_report.metrics.is_empty(), "obs off collects nothing");
        let (observed, report) =
            Fleet::new().execute_observed(quick_request(500, 6).obs(ObsLevel::Metrics));
        assert_eq!(plain, observed, "observation must be passive");
        assert_eq!(report.metrics.counter("fleet/arrivals", None), 500);
        let per_chip: u64 =
            (0..3).map(|c| report.metrics.counter(&chip_metric(c, "completed"), None)).sum();
        assert_eq!(per_chip, 500);
    }

    #[test]
    fn sparse_traffic_sleeps_idle_chips_without_changing_results() {
        // Sparse arrivals on a wide fleet leave most chips idle most
        // epochs: the sleep hints must elide chip-epochs without perturbing
        // the simulation.
        let req = FleetRequest::new(
            TrafficSpec::new(200, 11)
                .with_mean_interarrival(5_000.0)
                .with_work_range(2_000, 20_000),
        )
        .chips(8)
        .calibration(Calibration::reference(8));
        let plain = Fleet::new().execute(req.clone());
        let (res, obs) = Fleet::new().execute_observed(req.obs(ObsLevel::Metrics));
        assert_eq!(plain, res, "observation must not perturb a sleeping fleet");
        let skipped = obs.metrics.counter("engine/skipped-chip-epochs", None);
        assert!(skipped > 0, "sparse traffic on 8 chips must skip some chip-epochs");
        assert_eq!(res.arrivals, 200);
        assert_eq!(res.per_chip.iter().map(|c| c.completed).sum::<u64>(), 200);
    }

    #[test]
    fn result_json_round_trips() {
        let res = Fleet::new().execute(quick_request(300, 12));
        let json = serde_json::to_string(&res).unwrap();
        assert!(json.contains("\"schema_version\":1"));
        let back: FleetResult = serde_json::from_str(&json).unwrap();
        assert_eq!(res, back);
    }
}
