//! Simulation runner: builds (benchmark × scheduler × configuration) runs and
//! executes them, optionally in parallel across worker threads.
//!
//! The runner exposes the harness's `--sms N` axis: with `sms == 1` (the
//! default) every run simulates one SM with a private L2/DRAM partition,
//! which is what the Fig. 8 goldens in `tests/golden.rs` pin; with
//! `sms > 1` each run simulates a chip of N SMs against the shared banked
//! L2/DRAM backend, with one scheduler instance per SM.

use crate::schedulers::SchedulerKind;
use ciao_core::CiaoParams;
use ciao_workloads::{Benchmark, Mix, ScaleConfig};
use gpu_sim::{
    BackendKind, DispatchPolicy, GpuConfig, Kernel, ObsLevel, ObsReport, SimRequest, SimResult,
    Simulator,
};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Whether `--quiet` silenced [`log`]. Diagnostics go to stderr so stdout
/// stays clean for tables and JSON exports.
static QUIET: AtomicBool = AtomicBool::new(false);

/// Silences [`log`] for the rest of the process (`--quiet`).
pub fn set_quiet() {
    QUIET.store(true, Ordering::Relaxed);
}

/// Prints one harness diagnostic line to stderr unless `--quiet` silenced
/// diagnostics. Every non-table message the harness emits goes through here.
pub fn log(msg: std::fmt::Arguments<'_>) {
    if !QUIET.load(Ordering::Relaxed) {
        eprintln!("[ciao-harness] {msg}");
    }
}

/// How large each simulation is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunScale {
    /// Tiny runs for unit tests and doc examples.
    Tiny,
    /// Reduced runs for smoke benches and quick sanity checks.
    Quick,
    /// The largest runs: Full-scale workloads under a 200k-instruction
    /// budget.
    Full,
}

impl RunScale {
    /// The workload scale for this run size.
    pub fn workload_scale(self) -> ScaleConfig {
        match self {
            RunScale::Tiny => ScaleConfig::tiny(),
            RunScale::Quick => ScaleConfig::quick(),
            RunScale::Full => ScaleConfig::full(),
        }
    }

    /// The per-run dynamic-instruction cap.
    pub fn max_instructions(self) -> u64 {
        match self {
            RunScale::Tiny => 6_000,
            RunScale::Quick => 40_000,
            RunScale::Full => 200_000,
        }
    }

    /// The time-series sampling interval (in instructions).
    pub fn sample_interval(self) -> u64 {
        match self {
            RunScale::Tiny => 500,
            RunScale::Quick => 2_000,
            RunScale::Full => 5_000,
        }
    }
}

/// One (benchmark, scheduler) simulation outcome, with the metrics every
/// figure needs pre-extracted.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunRecord {
    /// Benchmark simulated.
    pub benchmark: String,
    /// Benchmark class label ("LWS"/"SWS"/"CI").
    pub class: String,
    /// Scheduler label.
    pub scheduler: String,
    /// Instructions per cycle.
    pub ipc: f64,
    /// L1D hit rate.
    pub l1d_hit_rate: f64,
    /// Measured accesses per kilo-instruction.
    pub apki: f64,
    /// Mean number of active warps over the run's time series.
    pub mean_active_warps: f64,
    /// Cross-warp evictions (L1D + shared-memory cache).
    pub interference_events: u64,
    /// VTA hits reported by the scheduler (0 for schedulers without a VTA).
    pub vta_hits: u64,
    /// Shared-memory cache utilisation at the end of the run (Fig. 8b).
    pub redirect_utilization: f64,
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions simulated.
    pub instructions: u64,
    /// Whether the run hit an instruction/cycle cap instead of finishing the
    /// kernel (reports mark such rows so capped IPCs are not over-read).
    pub capped: bool,
    /// Number of SMs simulated for this record.
    pub num_sms: usize,
    /// Lowest per-SM IPC of the run (equals `ipc` on a 1-SM run).
    pub sm_ipc_min: f64,
    /// Highest per-SM IPC of the run.
    pub sm_ipc_max: f64,
    /// Standard deviation of per-SM IPC — the partitioning-skew signal.
    pub sm_ipc_stddev: f64,
}

impl RunRecord {
    /// Builds a record from a raw simulation result.
    pub fn from_result(benchmark: Benchmark, scheduler: SchedulerKind, res: &SimResult) -> Self {
        let imbalance = res.sm_imbalance();
        RunRecord {
            benchmark: benchmark.name().to_string(),
            class: benchmark.class().label().to_string(),
            scheduler: scheduler.label().to_string(),
            ipc: res.ipc(),
            l1d_hit_rate: res.l1d_hit_rate(),
            apki: res.stats.apki(),
            mean_active_warps: res.time_series.mean_active_warps(),
            interference_events: res.stats.cross_warp_evictions
                + res.stats.redirect_cross_warp_evictions,
            vta_hits: res.scheduler_metrics.vta_hits,
            redirect_utilization: res.stats.redirect_utilization,
            cycles: res.cycles,
            instructions: res.stats.instructions,
            capped: res.capped,
            num_sms: res.num_sms,
            sm_ipc_min: imbalance.min_ipc,
            sm_ipc_max: imbalance.max_ipc,
            sm_ipc_stddev: imbalance.stddev_ipc,
        }
    }
}

/// The simulation runner.
#[derive(Debug, Clone)]
pub struct Runner {
    /// Machine configuration used for every run (unless overridden per call).
    pub config: GpuConfig,
    /// CIAO parameters used for the CIAO variants.
    pub params: CiaoParams,
    /// Run size.
    pub scale: RunScale,
    /// Number of worker threads for matrix runs.
    pub threads: usize,
    /// Number of SMs each simulation models (the `--sms N` axis). `1` gives
    /// the SM a private L2/DRAM partition; `> 1` shares a banked L2/DRAM
    /// backend between the SMs.
    pub sms: usize,
    /// Experiment seed mixed into every synthetic trace (the `--seed N`
    /// axis); `0` reproduces the historical single-seed traces bit for bit.
    pub seed: u64,
    /// Arrival stagger for mix co-runs (the `--arrivals STRIDE` axis):
    /// tenant `t` of a mix enters the kernel queue at `t × stride` cycles.
    /// `0` (the default) launches every tenant at cycle 0.
    pub arrival_stride: u64,
    /// Timing backend driving every simulation (the `--backend` axis). Both
    /// backends produce bit-identical results; `event` is much faster on
    /// memory-bound multi-SM runs.
    pub backend: BackendKind,
}

impl Runner {
    /// Creates a runner for the given scale with the Table I configuration.
    pub fn new(scale: RunScale) -> Self {
        Runner {
            config: GpuConfig::gtx480(),
            params: CiaoParams::default(),
            scale,
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            sms: 1,
            seed: 0,
            arrival_stride: 0,
            backend: BackendKind::default(),
        }
    }

    /// Overrides the machine configuration (Fig. 12 variants).
    pub fn with_config(mut self, config: GpuConfig) -> Self {
        self.config = config;
        self
    }

    /// Overrides the CIAO parameters (Fig. 11 sweeps).
    pub fn with_params(mut self, params: CiaoParams) -> Self {
        self.params = params;
        self
    }

    /// Sets the number of simulated SMs per run.
    pub fn with_sms(mut self, sms: usize) -> Self {
        self.sms = sms.max(1);
        self
    }

    /// Sets the experiment seed mixed into every synthetic trace.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the arrival stagger for mix co-runs (tenant `t` arrives at
    /// `t × stride` cycles).
    pub fn with_arrivals(mut self, stride: u64) -> Self {
        self.arrival_stride = stride;
        self
    }

    /// Sets the timing backend driving every simulation.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// The effective GPU configuration for a run (adds caps and sampling).
    pub fn effective_config(&self) -> GpuConfig {
        self.config
            .clone()
            .with_max_instructions(self.scale.max_instructions())
            .with_sample_interval(self.scale.sample_interval())
    }

    /// The effective workload scale for a run (applies the experiment seed).
    pub fn effective_scale(&self) -> ScaleConfig {
        self.scale.workload_scale().with_seed(self.seed)
    }

    /// Runs one (benchmark, scheduler) pair on a chip of `sms` SMs (one
    /// scheduler instance per SM) and returns the full result.
    pub fn run_one(&self, benchmark: Benchmark, scheduler: SchedulerKind) -> SimResult {
        let config = self.effective_config();
        let kernel: Arc<dyn Kernel> = Arc::new(benchmark.kernel(&self.effective_scale()));
        let sim = Simulator::new(config.clone());
        let req = SimRequest::kernel(kernel).num_sms(self.sms).backend(self.backend);
        sim.execute(req, |_sm| scheduler.build(benchmark, &config, &self.params))
    }

    /// Co-runs the benchmarks of `mix` (one tenant each, in mix order) on a
    /// chip of `sms` SMs under `policy`, with one `scheduler` instance per
    /// SM, staggering tenant arrivals by the runner's `arrival_stride`.
    /// Profile-derived scheduler parameters (Best-SWL / statPCAL warp
    /// budgets) use the mix's first benchmark — a mix has no single profile.
    pub fn run_mix(&self, mix: Mix, policy: DispatchPolicy, scheduler: SchedulerKind) -> SimResult {
        self.run_mix_observed(mix, policy, scheduler, ObsLevel::Off).0
    }

    /// [`Runner::run_mix`] plus the co-run's [`ObsReport`], collected at
    /// `level` (empty at [`ObsLevel::Off`]).
    pub fn run_mix_observed(
        &self,
        mix: Mix,
        policy: DispatchPolicy,
        scheduler: SchedulerKind,
        level: ObsLevel,
    ) -> (SimResult, ObsReport) {
        let config = self.effective_config();
        let scale = self.effective_scale();
        let kernels = mix.kernels(&scale);
        let arrivals = mix.staggered_arrivals(self.arrival_stride);
        let profile = mix.benchmarks()[0];
        let sim = Simulator::new(config.clone());
        let mut req =
            SimRequest::new().policy(policy).num_sms(self.sms).backend(self.backend).obs(level);
        for (k, kernel) in kernels.into_iter().enumerate() {
            req = req.stream_at(kernel, arrivals.get(k).copied().unwrap_or(0));
        }
        sim.execute_observed(req, |_sm| scheduler.build(profile, &config, &self.params))
    }

    /// Runs one pair and returns the condensed record.
    pub fn record(&self, benchmark: Benchmark, scheduler: SchedulerKind) -> RunRecord {
        let res = self.run_one(benchmark, scheduler);
        RunRecord::from_result(benchmark, scheduler, &res)
    }

    /// Runs the full (benchmarks × schedulers) matrix, in parallel, returning
    /// records in a deterministic (benchmark-major) order.
    pub fn run_matrix(
        &self,
        benchmarks: &[Benchmark],
        schedulers: &[SchedulerKind],
    ) -> Vec<RunRecord> {
        let jobs: Vec<(usize, Benchmark, SchedulerKind)> = benchmarks
            .iter()
            .flat_map(|&b| schedulers.iter().map(move |&s| (b, s)))
            .enumerate()
            .map(|(i, (b, s))| (i, b, s))
            .collect();
        let results: Mutex<Vec<Option<RunRecord>>> = Mutex::new(vec![None; jobs.len()]);
        let next: Mutex<usize> = Mutex::new(0);
        let workers = self.threads.clamp(1, jobs.len().max(1));

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let idx = {
                        let mut n = next.lock().expect("a worker panicked");
                        if *n >= jobs.len() {
                            break;
                        }
                        let idx = *n;
                        *n += 1;
                        idx
                    };
                    let (slot, benchmark, scheduler) = jobs[idx];
                    let record = self.record(benchmark, scheduler);
                    results.lock().expect("a worker panicked")[slot] = Some(record);
                });
            }
        });

        let results = results.into_inner().expect("a worker panicked");
        results.into_iter().map(|r| r.expect("every job ran")).collect()
    }
}

/// Normalises each benchmark's IPC to the named baseline scheduler, returning
/// `(benchmark, scheduler, normalised_ipc)` tuples (the Fig. 8a / Fig. 12
/// presentation).
pub fn normalize_to(records: &[RunRecord], baseline: &str) -> Vec<(String, String, f64)> {
    let mut out = Vec::with_capacity(records.len());
    for r in records {
        let base = records
            .iter()
            .find(|b| b.benchmark == r.benchmark && b.scheduler == baseline)
            .map(|b| b.ipc)
            .unwrap_or(0.0);
        let norm = if base > 0.0 { r.ipc / base } else { 0.0 };
        out.push((r.benchmark.clone(), r.scheduler.clone(), norm));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        assert!(RunScale::Tiny.max_instructions() < RunScale::Quick.max_instructions());
        assert!(RunScale::Quick.max_instructions() < RunScale::Full.max_instructions());
    }

    #[test]
    fn run_one_produces_consistent_record() {
        let runner = Runner::new(RunScale::Tiny);
        let rec = runner.record(Benchmark::Syrk, SchedulerKind::Gto);
        assert_eq!(rec.benchmark, "SYRK");
        assert_eq!(rec.scheduler, "GTO");
        assert_eq!(rec.class, "SWS");
        assert!(rec.ipc > 0.0);
        assert!(rec.instructions > 0);
        assert!(rec.cycles > 0);
    }

    #[test]
    fn matrix_runs_every_pair_in_order() {
        let mut runner = Runner::new(RunScale::Tiny);
        runner.threads = 2;
        let benchmarks = [Benchmark::Syrk, Benchmark::Nn];
        let schedulers = [SchedulerKind::Gto, SchedulerKind::CiaoC];
        let records = runner.run_matrix(&benchmarks, &schedulers);
        assert_eq!(records.len(), 4);
        assert_eq!(records[0].benchmark, "SYRK");
        assert_eq!(records[0].scheduler, "GTO");
        assert_eq!(records[3].benchmark, "NN");
        assert_eq!(records[3].scheduler, "CIAO-C");
    }

    #[test]
    fn normalisation_uses_the_baseline() {
        let records = vec![
            RunRecord {
                benchmark: "A".into(),
                class: "LWS".into(),
                scheduler: "GTO".into(),
                ipc: 2.0,
                l1d_hit_rate: 0.0,
                apki: 0.0,
                mean_active_warps: 0.0,
                interference_events: 0,
                vta_hits: 0,
                redirect_utilization: 0.0,
                cycles: 1,
                instructions: 1,
                capped: false,
                num_sms: 1,
                sm_ipc_min: 0.0,
                sm_ipc_max: 0.0,
                sm_ipc_stddev: 0.0,
            },
            RunRecord {
                benchmark: "A".into(),
                class: "LWS".into(),
                scheduler: "X".into(),
                ipc: 3.0,
                l1d_hit_rate: 0.0,
                apki: 0.0,
                mean_active_warps: 0.0,
                interference_events: 0,
                vta_hits: 0,
                redirect_utilization: 0.0,
                cycles: 1,
                instructions: 1,
                capped: false,
                num_sms: 1,
                sm_ipc_min: 0.0,
                sm_ipc_max: 0.0,
                sm_ipc_stddev: 0.0,
            },
        ];
        let norm = normalize_to(&records, "GTO");
        assert!((norm[0].2 - 1.0).abs() < 1e-12);
        assert!((norm[1].2 - 1.5).abs() < 1e-12);
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let runner = Runner::new(RunScale::Tiny);
        let a = runner.record(Benchmark::Nn, SchedulerKind::CiaoC);
        let b = runner.record(Benchmark::Nn, SchedulerKind::CiaoC);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.instructions, b.instructions);
        assert!((a.ipc - b.ipc).abs() < 1e-12);
    }

    /// Serialises a result with the backend label blanked so epoch and event
    /// runs can be compared field-for-field.
    fn backend_blind_json(mut res: SimResult) -> String {
        res.backend = String::new();
        serde_json::to_string(&res).expect("results serialize")
    }

    #[test]
    fn event_backend_matches_epoch_on_a_real_benchmark() {
        let epoch = Runner::new(RunScale::Quick)
            .with_backend(BackendKind::Epoch)
            .run_one(Benchmark::Syrk, SchedulerKind::CiaoC);
        let event = Runner::new(RunScale::Quick)
            .with_backend(BackendKind::Event)
            .run_one(Benchmark::Syrk, SchedulerKind::CiaoC);
        assert_eq!(epoch.backend, "epoch");
        assert_eq!(event.backend, "event");
        assert_eq!(backend_blind_json(epoch), backend_blind_json(event));
    }

    #[test]
    fn event_backend_matches_epoch_on_a_staggered_chip_mix() {
        let run = |backend| {
            Runner::new(RunScale::Tiny)
                .with_sms(15)
                .with_arrivals(2_000)
                .with_backend(backend)
                .run_mix(Mix::CacheStream, DispatchPolicy::InterferenceAware, SchedulerKind::CiaoT)
        };
        let (epoch, event) = (run(BackendKind::Epoch), run(BackendKind::Event));
        assert_eq!(epoch.num_sms, 15);
        assert_eq!(epoch.per_tenant.len(), 2);
        assert_eq!(backend_blind_json(epoch), backend_blind_json(event));
    }

    #[test]
    fn multi_sm_axis_runs_the_chip_engine() {
        let runner = Runner::new(RunScale::Tiny).with_sms(2);
        let res = runner.run_one(Benchmark::Nn, SchedulerKind::CiaoC);
        assert_eq!(res.num_sms, 2);
        assert_eq!(res.per_sm.len(), 2);
        assert!(res.stats.instructions > 0);
        let rec = RunRecord::from_result(Benchmark::Nn, SchedulerKind::CiaoC, &res);
        assert_eq!(rec.num_sms, 2);
        // Deterministic across repeats.
        let res2 = runner.run_one(Benchmark::Nn, SchedulerKind::CiaoC);
        assert_eq!(res.cycles, res2.cycles);
        assert_eq!(res.stats, res2.stats);
    }
}
