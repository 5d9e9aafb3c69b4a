//! Performance-regression gate: measure the simulator's headline IPCs,
//! serialise them to JSON, and compare against a checked-in baseline.
//!
//! CI runs `ciao-harness perf --quick`, which measures the full benchmark
//! suite under the gated schedulers (GTO and CIAO-C — the baseline every
//! figure normalises to and the paper's headline configuration), writes
//! `BENCH_PR.json`, and fails the job when a gated scheduler's geomean IPC
//! drifts more than [`DEFAULT_TOLERANCE`] from `bench/baseline.json`. The
//! simulator is deterministic, so the tolerance exists to absorb *intended*
//! modelling changes (which should update the baseline in the same PR), not
//! machine noise; wall-clock time is recorded for trend-watching but never
//! gated.

use crate::experiments::mix as mix_experiment;
use crate::report::geometric_mean;
use crate::runner::{RunRecord, Runner};
use crate::schedulers::SchedulerKind;
use ciao_workloads::{Benchmark, Mix};
use gpu_sim::{BackendKind, DispatchPolicy};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Maximum relative geomean-IPC drift (±) tolerated by the gate.
pub const DEFAULT_TOLERANCE: f64 = 0.10;

/// SM count of the large-chip capacity point the perf command times under
/// both backends (the headline epoch-vs-event speedup configuration).
pub const CAPACITY_PROBE_SMS: usize = 64;

/// The schedulers whose IPC the gate protects.
pub fn gate_schedulers() -> Vec<SchedulerKind> {
    vec![SchedulerKind::Gto, SchedulerKind::CiaoC]
}

/// The dispatch policies whose per-mix STP the gate protects: the static
/// shared-round-robin baseline and the adaptive interference-aware policy.
pub fn gate_policies() -> Vec<DispatchPolicy> {
    vec![DispatchPolicy::SharedRoundRobin, DispatchPolicy::InterferenceAware]
}

/// The `mix_stp` key for one (mix, policy) cell.
pub fn mix_stp_key(mix: Mix, policy: DispatchPolicy) -> String {
    format!("{}/{}", mix.name(), policy.label())
}

/// Every `mix_stp` key a snapshot measured with mixes must contain. The gate
/// fails closed when any of them is missing from either side.
pub fn required_mix_keys() -> Vec<String> {
    let mut keys = Vec::new();
    for mix in Mix::all() {
        for policy in gate_policies() {
            keys.push(mix_stp_key(mix, policy));
        }
    }
    keys
}

/// Machine-readable epoch-vs-event wall clocks, recorded in the BENCH JSON
/// artifact so backend speedups are a queryable time series PR-over-PR
/// rather than a line scraped from the CI log. All values are wall-clock
/// seconds — machine-dependent, informational, **never gated**; zeros mean
/// "not measured" (a snapshot taken without `--with-mixes`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WallClock {
    /// Mix-STP sweep under the epoch (per-cycle stepping) backend.
    pub mix_epoch_secs: f64,
    /// Mix-STP sweep under the event backend.
    pub mix_event_secs: f64,
    /// SM count of the timed capacity point (0 when not measured).
    pub capacity_sms: usize,
    /// Capacity point under the epoch backend.
    pub capacity_epoch_secs: f64,
    /// Capacity point under the event backend.
    pub capacity_event_secs: f64,
}

impl WallClock {
    /// Epoch-over-event speedup of the mix sweep (0 when not measured).
    pub fn mix_speedup(&self) -> f64 {
        if self.mix_event_secs > 0.0 {
            self.mix_epoch_secs / self.mix_event_secs
        } else {
            0.0
        }
    }

    /// Epoch-over-event speedup of the capacity point (0 when not measured).
    pub fn capacity_speedup(&self) -> f64 {
        if self.capacity_event_secs > 0.0 {
            self.capacity_epoch_secs / self.capacity_event_secs
        } else {
            0.0
        }
    }
}

/// One measured performance snapshot (an entry of `bench/baseline.json` and
/// the whole of `BENCH_PR.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfReport {
    /// Run scale the snapshot was measured at ("Tiny" / "Quick" / "Full").
    pub scale: String,
    /// Number of SMs per simulation.
    pub num_sms: usize,
    /// Experiment seed the snapshot was measured at.
    pub seed: u64,
    /// Wall-clock seconds for the whole measurement (informational only —
    /// machine-dependent, never gated).
    pub wall_clock_secs: f64,
    /// Wall-clock seconds of the mix-STP sweep alone (0 when the snapshot
    /// was measured without mixes). Recorded so backend speedups on the
    /// multi-SM mix runs are visible PR-over-PR in the CI job summary;
    /// machine-dependent, never gated.
    pub mix_wall_clock_secs: f64,
    /// Runs that hit an instruction/cycle cap.
    pub capped_runs: usize,
    /// Total runs measured.
    pub total_runs: usize,
    /// Scheduler label → geometric-mean IPC across the benchmark suite (the
    /// gated quantity).
    pub geomean_ipc: BTreeMap<String, f64>,
    /// Scheduler label → benchmark → raw IPC (for diagnosing a drift).
    pub per_benchmark_ipc: BTreeMap<String, BTreeMap<String, f64>>,
    /// Scheduler label → mean per-run standard deviation of per-SM IPC
    /// (0 for 1-SM snapshots; the partitioning-skew trend for chip runs).
    pub mean_sm_ipc_stddev: BTreeMap<String, f64>,
    /// `mix/policy` → STP under the GTO scheduler for every named mix and
    /// each gated dispatch policy (see [`gate_policies`]) — the multi-tenant
    /// co-execution figures of merit. Empty when the snapshot was measured
    /// without mixes.
    pub mix_stp: BTreeMap<String, f64>,
    /// Epoch-vs-event backend wall clocks (see [`WallClock`]; all zeros when
    /// the snapshot was measured without mixes).
    pub wall_clock: WallClock,
}

/// The schema of `bench/baseline.json`: one snapshot per recorded
/// (scale, SM-count, seed) configuration, so the 1-SM gate baseline and the
/// 15-SM chip-level baseline live in the same file.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BaselineFile {
    /// Recorded snapshots, one per configuration.
    pub snapshots: Vec<PerfReport>,
}

impl BaselineFile {
    /// The snapshot recorded for `(scale, num_sms, seed)`, if any. The seed
    /// is part of the key: a seeded run measures different traces, so gating
    /// it against (or overwriting) another seed's snapshot would be
    /// meaningless.
    pub fn find(&self, scale: &str, num_sms: usize, seed: u64) -> Option<&PerfReport> {
        self.snapshots.iter().find(|s| s.scale == scale && s.num_sms == num_sms && s.seed == seed)
    }

    /// Inserts `snapshot`, replacing any existing entry for the same
    /// `(scale, num_sms, seed)` configuration.
    pub fn upsert(&mut self, snapshot: PerfReport) {
        match self.snapshots.iter_mut().find(|s| {
            s.scale == snapshot.scale && s.num_sms == snapshot.num_sms && s.seed == snapshot.seed
        }) {
            Some(slot) => *slot = snapshot,
            None => self.snapshots.push(snapshot),
        }
    }
}

/// Runs the (benchmarks × schedulers) matrix under `runner` and condenses it
/// into a [`PerfReport`].
pub fn measure(
    runner: &Runner,
    benchmarks: &[Benchmark],
    schedulers: &[SchedulerKind],
) -> PerfReport {
    let start = std::time::Instant::now();
    let records = runner.run_matrix(benchmarks, schedulers);
    let wall_clock_secs = start.elapsed().as_secs_f64();
    summarize(&records, runner, wall_clock_secs)
}

/// Builds the report from pre-computed records (separated from [`measure`]
/// so tests can exercise the aggregation without simulating).
pub fn summarize(records: &[RunRecord], runner: &Runner, wall_clock_secs: f64) -> PerfReport {
    let mut geomean_ipc = BTreeMap::new();
    let mut per_benchmark_ipc: BTreeMap<String, BTreeMap<String, f64>> = BTreeMap::new();
    let mut mean_sm_ipc_stddev = BTreeMap::new();
    let mut schedulers: Vec<String> = Vec::new();
    for r in records {
        if !schedulers.contains(&r.scheduler) {
            schedulers.push(r.scheduler.clone());
        }
        per_benchmark_ipc
            .entry(r.scheduler.clone())
            .or_default()
            .insert(r.benchmark.clone(), r.ipc);
    }
    for sched in &schedulers {
        let ipcs: Vec<f64> =
            records.iter().filter(|r| &r.scheduler == sched).map(|r| r.ipc).collect();
        geomean_ipc.insert(sched.clone(), geometric_mean(&ipcs));
        let stddevs: Vec<f64> =
            records.iter().filter(|r| &r.scheduler == sched).map(|r| r.sm_ipc_stddev).collect();
        let mean = if stddevs.is_empty() {
            0.0
        } else {
            stddevs.iter().sum::<f64>() / stddevs.len() as f64
        };
        mean_sm_ipc_stddev.insert(sched.clone(), mean);
    }
    PerfReport {
        scale: format!("{:?}", runner.scale),
        num_sms: runner.sms,
        seed: runner.seed,
        wall_clock_secs,
        mix_wall_clock_secs: 0.0,
        capped_runs: records.iter().filter(|r| r.capped).count(),
        total_runs: records.len(),
        geomean_ipc,
        per_benchmark_ipc,
        mean_sm_ipc_stddev,
        mix_stp: BTreeMap::new(),
        wall_clock: WallClock::default(),
    }
}

/// Times the [`CAPACITY_PROBE_SMS`]-SM capacity point (the cache-stream
/// co-run under the gated dispatch policies, GTO) under **both** timing
/// backends, verifying the STPs agree bit-for-bit. Returns
/// `(epoch_secs, event_secs)`, or the divergence message when the backends
/// disagree — divergence is a correctness bug, so callers should fail the
/// gate on `Err`.
pub fn measure_capacity_point(runner: &Runner, sms: usize) -> Result<(f64, f64), String> {
    let mut secs = [0.0f64; 2];
    let mut stps: Vec<Vec<(String, f64)>> = Vec::new();
    for (i, backend) in [BackendKind::Epoch, BackendKind::Event].into_iter().enumerate() {
        let r = runner.clone().with_sms(sms).with_backend(backend);
        let start = std::time::Instant::now();
        let result =
            mix_experiment::run(&r, &[Mix::CacheStream], &gate_policies(), &[SchedulerKind::Gto]);
        secs[i] = start.elapsed().as_secs_f64();
        stps.push(
            result
                .rows
                .into_iter()
                .map(|row| (format!("{}/{}", row.mix, row.policy), row.stp))
                .collect(),
        );
    }
    if stps[0] != stps[1] {
        return Err(format!(
            "capacity point backends diverge at {sms} SMs: epoch {:?} vs event {:?}",
            stps[0], stps[1]
        ));
    }
    Ok((secs[0], secs[1]))
}

/// Measures every named mix's STP under the gated dispatch policies and the
/// GTO baseline scheduler, for recording in a snapshot's `mix_stp` map
/// (the `perf --with-mixes` path). Keys are `mix/policy`.
///
/// The mix experiment re-simulates its handful of solo baselines even though
/// [`measure`] just ran the same benchmarks: STP needs the *turnaround*
/// (finish-cycle) IPC definition that per-tenant records use, not the
/// chip-cycle IPC a [`RunRecord`] carries, and a few extra solo runs are
/// cheap next to the mix co-runs themselves.
///
/// Returns the `mix/policy → STP` map together with the sweep's wall-clock
/// seconds (recorded in [`PerfReport::mix_wall_clock_secs`]).
pub fn measure_mixes(runner: &Runner) -> (BTreeMap<String, f64>, f64) {
    let start = std::time::Instant::now();
    let result = mix_experiment::run(runner, &Mix::all(), &gate_policies(), &[SchedulerKind::Gto]);
    let stp = result.rows.into_iter().map(|r| (format!("{}/{}", r.mix, r.policy), r.stp)).collect();
    (stp, start.elapsed().as_secs_f64())
}

/// A gated scheduler whose IPC moved outside the tolerance band.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Drift {
    /// Scheduler label.
    pub scheduler: String,
    /// Baseline geomean IPC.
    pub baseline_ipc: f64,
    /// Currently measured geomean IPC.
    pub current_ipc: f64,
    /// `current / baseline` (0.0 when the scheduler vanished entirely).
    pub ratio: f64,
}

/// Compares `current` against `baseline` for the schedulers named in
/// `gated`, returning one [`Drift`] per violation of `tolerance` (empty ⇒
/// the gate passes). Schedulers missing from the baseline are ignored —
/// they are new and have nothing to regress against — but schedulers present
/// in the baseline and missing from `current` fail loudly.
pub fn compare(
    current: &PerfReport,
    baseline: &PerfReport,
    tolerance: f64,
    gated: &[&str],
) -> Vec<Drift> {
    let mut drifts = Vec::new();
    for &sched in gated {
        let Some(&base) = baseline.geomean_ipc.get(sched) else { continue };
        let cur = current.geomean_ipc.get(sched).copied().unwrap_or(0.0);
        let ratio = if base > 0.0 { cur / base } else { 0.0 };
        if base > 0.0 && (ratio - 1.0).abs() > tolerance {
            drifts.push(Drift {
                scheduler: sched.to_string(),
                baseline_ipc: base,
                current_ipc: cur,
                ratio,
            });
        }
    }
    drifts
}

/// A gated (mix, policy) STP cell that moved outside the tolerance band or
/// is missing from one side of the comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MixDrift {
    /// `mix/policy` key.
    pub key: String,
    /// Baseline STP (0.0 when the baseline snapshot lacks the key).
    pub baseline_stp: f64,
    /// Currently measured STP (0.0 when the current report lacks the key).
    pub current_stp: f64,
    /// `current / baseline` (0.0 when either side is missing).
    pub ratio: f64,
    /// Why the cell failed: "missing from baseline", "missing from current",
    /// or "drift".
    pub reason: String,
}

/// Compares the per-mix STP values of `current` against `baseline`,
/// returning one [`MixDrift`] per violation. The gate *fails closed* on
/// missing keys: every [`required_mix_keys`] entry must be present on both
/// sides — a snapshot that silently lost a mix (or a new mix that was never
/// baselined) fails rather than being skipped.
pub fn compare_mixes(current: &PerfReport, baseline: &PerfReport, tolerance: f64) -> Vec<MixDrift> {
    let mut drifts = Vec::new();
    for key in required_mix_keys() {
        let base = baseline.mix_stp.get(&key).copied();
        let cur = current.mix_stp.get(&key).copied();
        match (base, cur) {
            (None, _) => drifts.push(MixDrift {
                key,
                baseline_stp: 0.0,
                current_stp: cur.unwrap_or(0.0),
                ratio: 0.0,
                reason: "missing from baseline".into(),
            }),
            (_, None) => drifts.push(MixDrift {
                key,
                baseline_stp: base.unwrap_or(0.0),
                current_stp: 0.0,
                ratio: 0.0,
                reason: "missing from current".into(),
            }),
            (Some(b), Some(c)) => {
                let ratio = if b > 0.0 { c / b } else { 0.0 };
                if b <= 0.0 || (ratio - 1.0).abs() > tolerance {
                    drifts.push(MixDrift {
                        key,
                        baseline_stp: b,
                        current_stp: c,
                        ratio,
                        reason: "drift".into(),
                    });
                }
            }
        }
    }
    drifts
}

/// Renders mix-STP gate violations for the CI log.
pub fn render_mix_drifts(drifts: &[MixDrift], tolerance: f64) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for d in drifts {
        if d.reason == "drift" {
            let _ = writeln!(
                out,
                "FAIL {}: STP {:.4} vs baseline {:.4} ({:+.1}% drift, tolerance ±{:.0}%)",
                d.key,
                d.current_stp,
                d.baseline_stp,
                (d.ratio - 1.0) * 100.0,
                tolerance * 100.0
            );
        } else {
            let _ = writeln!(out, "FAIL {}: {}", d.key, d.reason);
        }
    }
    out
}

/// Plain-text rendering of a report (the CI log artefact).
pub fn render(report: &PerfReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== perf snapshot ({} scale, {} SM{}, seed {}) ==",
        report.scale,
        report.num_sms,
        if report.num_sms == 1 { "" } else { "s" },
        report.seed
    );
    for (sched, ipc) in &report.geomean_ipc {
        let stddev = report.mean_sm_ipc_stddev.get(sched).copied().unwrap_or(0.0);
        if report.num_sms > 1 {
            let _ =
                writeln!(out, "{sched:>10}  geomean IPC {ipc:.4}  (mean per-SM IPC σ {stddev:.4})");
        } else {
            let _ = writeln!(out, "{sched:>10}  geomean IPC {ipc:.4}");
        }
    }
    for (key, stp) in &report.mix_stp {
        let _ = writeln!(out, "{key:>32}  STP {stp:.3} (GTO)");
    }
    let _ = writeln!(
        out,
        "{} runs ({} capped), {:.2}s wall clock",
        report.total_runs, report.capped_runs, report.wall_clock_secs
    );
    if report.mix_wall_clock_secs > 0.0 {
        let _ = writeln!(out, "mix sweep wall clock: {:.2}s", report.mix_wall_clock_secs);
    }
    let wc = &report.wall_clock;
    if wc.mix_event_secs > 0.0 {
        let _ = writeln!(
            out,
            "mix sweep: epoch {:.2}s vs event {:.2}s ({:.1}x)",
            wc.mix_epoch_secs,
            wc.mix_event_secs,
            wc.mix_speedup()
        );
    }
    if wc.capacity_event_secs > 0.0 {
        let _ = writeln!(
            out,
            "capacity point ({} SMs): epoch {:.2}s vs event {:.2}s ({:.1}x)",
            wc.capacity_sms,
            wc.capacity_epoch_secs,
            wc.capacity_event_secs,
            wc.capacity_speedup()
        );
    }
    out
}

/// Renders gate violations for the CI log.
pub fn render_drifts(drifts: &[Drift], tolerance: f64) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for d in drifts {
        let _ = writeln!(
            out,
            "FAIL {}: geomean IPC {:.4} vs baseline {:.4} ({:+.1}% drift, tolerance ±{:.0}%)",
            d.scheduler,
            d.current_ipc,
            d.baseline_ipc,
            (d.ratio - 1.0) * 100.0,
            tolerance * 100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RunScale;

    fn report(gto: f64, ciao: f64) -> PerfReport {
        let mut geomean_ipc = BTreeMap::new();
        geomean_ipc.insert("GTO".to_string(), gto);
        geomean_ipc.insert("CIAO-C".to_string(), ciao);
        PerfReport {
            scale: "Quick".into(),
            num_sms: 1,
            seed: 0,
            wall_clock_secs: 1.0,
            mix_wall_clock_secs: 0.0,
            capped_runs: 0,
            total_runs: 42,
            geomean_ipc,
            per_benchmark_ipc: BTreeMap::new(),
            mean_sm_ipc_stddev: BTreeMap::new(),
            mix_stp: BTreeMap::new(),
            wall_clock: WallClock::default(),
        }
    }

    #[test]
    fn gate_passes_within_tolerance() {
        let base = report(0.50, 0.60);
        let cur = report(0.52, 0.57);
        assert!(compare(&cur, &base, 0.10, &["GTO", "CIAO-C"]).is_empty());
    }

    #[test]
    fn gate_catches_regression_and_unexpected_speedup() {
        let base = report(0.50, 0.60);
        let slow = report(0.40, 0.60); // -20% GTO
        let drifts = compare(&slow, &base, 0.10, &["GTO", "CIAO-C"]);
        assert_eq!(drifts.len(), 1);
        assert_eq!(drifts[0].scheduler, "GTO");
        assert!(drifts[0].ratio < 0.9);
        // An unexplained speedup is also a modelling change worth flagging.
        let fast = report(0.50, 0.75);
        assert_eq!(compare(&fast, &base, 0.10, &["GTO", "CIAO-C"]).len(), 1);
        let text = render_drifts(&drifts, 0.10);
        assert!(text.contains("FAIL GTO"));
    }

    #[test]
    fn missing_current_scheduler_fails_missing_baseline_is_ignored() {
        let base = report(0.50, 0.60);
        let mut cur = report(0.50, 0.60);
        cur.geomean_ipc.remove("CIAO-C");
        let drifts = compare(&cur, &base, 0.10, &["GTO", "CIAO-C"]);
        assert_eq!(drifts.len(), 1);
        assert_eq!(drifts[0].current_ipc, 0.0);
        // Gating a scheduler the baseline never measured is a no-op.
        assert!(compare(&base, &base, 0.10, &["GTO", "CIAO-C", "NEW"]).is_empty());
    }

    #[test]
    fn baseline_file_finds_and_upserts_by_configuration() {
        let mut file = BaselineFile::default();
        file.upsert(report(0.5, 0.6));
        let mut chip = report(0.1, 0.2);
        chip.scale = "Tiny".into();
        chip.num_sms = 15;
        file.upsert(chip);
        assert_eq!(file.snapshots.len(), 2);
        assert!(file.find("Quick", 1, 0).is_some());
        assert!(file.find("Tiny", 15, 0).is_some());
        assert!(file.find("Quick", 15, 0).is_none());
        assert!(file.find("Quick", 1, 3).is_none(), "seed is part of the key");
        // Upserting the same configuration replaces, not appends.
        let mut updated = report(0.7, 0.8);
        updated.total_runs = 99;
        file.upsert(updated);
        assert_eq!(file.snapshots.len(), 2);
        assert_eq!(file.find("Quick", 1, 0).unwrap().total_runs, 99);
        // Round-trips through JSON.
        let json = serde_json::to_string_pretty(&file).unwrap();
        let back: BaselineFile = serde_json::from_str(&json).unwrap();
        assert_eq!(back.snapshots.len(), 2);
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut r = report(0.5, 0.6);
        r.wall_clock = WallClock {
            mix_epoch_secs: 4.0,
            mix_event_secs: 1.0,
            capacity_sms: CAPACITY_PROBE_SMS,
            capacity_epoch_secs: 6.5,
            capacity_event_secs: 1.0,
        };
        let json = serde_json::to_string_pretty(&r).unwrap();
        let back: PerfReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.geomean_ipc, r.geomean_ipc);
        assert_eq!(back.total_runs, 42);
        assert_eq!(back.wall_clock, r.wall_clock);
    }

    #[test]
    fn wall_clock_speedups_and_rendering() {
        // Unmeasured: speedups are 0, nothing rendered.
        let zero = WallClock::default();
        assert_eq!(zero.mix_speedup(), 0.0);
        assert_eq!(zero.capacity_speedup(), 0.0);
        assert!(!render(&report(0.5, 0.6)).contains("capacity point"));

        let mut r = report(0.5, 0.6);
        r.wall_clock = WallClock {
            mix_epoch_secs: 4.0,
            mix_event_secs: 2.0,
            capacity_sms: 64,
            capacity_epoch_secs: 6.5,
            capacity_event_secs: 1.0,
        };
        assert_eq!(r.wall_clock.mix_speedup(), 2.0);
        assert_eq!(r.wall_clock.capacity_speedup(), 6.5);
        let text = render(&r);
        assert!(text.contains("mix sweep: epoch 4.00s vs event 2.00s (2.0x)"));
        assert!(text.contains("capacity point (64 SMs): epoch 6.50s vs event 1.00s (6.5x)"));
    }

    #[test]
    fn capacity_point_backends_agree_and_are_timed() {
        let runner = Runner::new(RunScale::Tiny);
        let (epoch_secs, event_secs) =
            measure_capacity_point(&runner, 4).expect("backends must agree");
        assert!(epoch_secs > 0.0);
        assert!(event_secs > 0.0);
    }

    #[test]
    fn mix_gate_fails_closed_on_missing_keys_and_catches_drift() {
        let mut base = report(0.5, 0.6);
        let mut cur = report(0.5, 0.6);
        for key in required_mix_keys() {
            base.mix_stp.insert(key.clone(), 1.2);
            cur.mix_stp.insert(key, 1.2);
        }
        assert!(compare_mixes(&cur, &base, 0.10).is_empty());

        // Drift on one cell.
        let key = mix_stp_key(Mix::CacheStream, DispatchPolicy::InterferenceAware);
        cur.mix_stp.insert(key.clone(), 1.0);
        let drifts = compare_mixes(&cur, &base, 0.10);
        assert_eq!(drifts.len(), 1);
        assert_eq!(drifts[0].key, key);
        assert_eq!(drifts[0].reason, "drift");
        assert!(drifts[0].ratio < 0.9);
        cur.mix_stp.insert(key.clone(), 1.2);

        // A key missing from the current report fails closed.
        cur.mix_stp.remove(&key);
        let drifts = compare_mixes(&cur, &base, 0.10);
        assert_eq!(drifts.len(), 1);
        assert_eq!(drifts[0].reason, "missing from current");
        cur.mix_stp.insert(key.clone(), 1.2);

        // A key missing from the baseline snapshot also fails closed.
        base.mix_stp.remove(&key);
        let drifts = compare_mixes(&cur, &base, 0.10);
        assert_eq!(drifts.len(), 1);
        assert_eq!(drifts[0].reason, "missing from baseline");
        let text = render_mix_drifts(&drifts, 0.10);
        assert!(text.contains("missing from baseline"));

        // Every (mix × gated policy) pair is required.
        assert_eq!(required_mix_keys().len(), Mix::all().len() * gate_policies().len());
        assert!(required_mix_keys().contains(&"cache-stream/shared-rr".to_string()));
        assert!(required_mix_keys().contains(&"cache-stream/interference-aware".to_string()));
    }

    #[test]
    fn measure_produces_gated_schedulers() {
        let runner = Runner::new(RunScale::Tiny);
        let r = measure(&runner, &[Benchmark::Syrk, Benchmark::Nn], &gate_schedulers());
        assert_eq!(r.total_runs, 4);
        assert!(r.geomean_ipc["GTO"] > 0.0);
        assert!(r.geomean_ipc["CIAO-C"] > 0.0);
        assert!(r.per_benchmark_ipc["GTO"].contains_key("SYRK"));
        assert!(r.wall_clock_secs >= 0.0);
        let text = render(&r);
        assert!(text.contains("geomean IPC"));
    }
}
