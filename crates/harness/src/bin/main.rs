//! `ciao-harness` — command-line front end reproducing every table and figure
//! of the CIAO paper.
//!
//! ```text
//! ciao-harness <experiment> [--quick|--tiny] [--sms N] [--seed N] [--out DIR]
//!
//! experiments: table1 table2 fig1 fig4 fig8 fig9 fig10 fig11 fig12 overhead mix perf all
//! ```
//!
//! `--sms N` simulates every run on an N-SM chip against a shared banked
//! L2/DRAM; the default of 1 is the single-SM model all recorded baselines
//! use. `--seed N` replicates every synthetic trace under a different seed
//! (0 = the historical traces).
//!
//! `mix` co-runs the named multi-tenant benchmark mixes across the three SM
//! partitioning policies (exclusive, spatial, shared-rr) × schedulers and
//! reports per-tenant IPC, STP, ANTT and L2-contention shares. `--mix NAME`
//! and `--policy LABEL` narrow the sweep.
//!
//! `capacity` (alias `--capacity-curve`) sweeps STP vs chip size: every mix ×
//! policy co-run is repeated at each `--sm-counts A,B,..` chip size (default
//! 2,4,8,15), with solo baselines re-measured per size.
//!
//! `trace` runs one fully observed co-run (default: cache-vs-stream under
//! interference-aware dispatch with CIAO-T) and writes a Perfetto-loadable
//! Chrome trace (`--trace-out`, default `run.trace.json`) plus the metrics
//! registry (`--metrics-out`, default `metrics.json`). `profile` runs the
//! same co-run under **both** timing backends and prints each wall-clock
//! phase table. `--obs {off,metrics,full}` arms observability on any other
//! experiment; `-v`/`--quiet` adjust diagnostic verbosity.
//!
//! `fleet` runs the cluster tier: `--chips N` chips of `--sms N` SMs fed by
//! `--arrivals N` open-loop kernel arrivals (`--traffic` picks the profile,
//! `--mean-interarrival` the load) placed by `--placement` (default `both`:
//! bin-pack and interference-spread on identical traffic, closing with the
//! STP verdict). The chip model is calibrated against the real engine once
//! per invocation (`--reference-calibration` uses the pinned table
//! instead). The fleet runs on one thread, so repeated invocations write
//! byte-identical `fleet.json`.
//!
//! `perf` is the CI performance gate: it measures the benchmark suite under
//! GTO and CIAO-C, writes `BENCH_PR.json` (override with `--bench-out`), and
//! exits non-zero if the gated geomean IPCs drift more than ±10% from the
//! snapshot recorded for the same (scale, SM-count) configuration in
//! `bench/baseline.json` (override with `--baseline`). `--with-mixes` also
//! measures every mix's STP; `--merge-baseline` records the measured snapshot
//! into the baseline file (regeneration mode) instead of gating against it.
//!
//! Text reports go to stdout; when `--out DIR` is given, each experiment also
//! writes `<experiment>.txt` and `<experiment>.json` into the directory.

use ciao_harness::experiments::{
    capacity, fig1, fig10, fig11, fig12, fig4, fig8, fig9, fleet, mix, overhead, table1, table2,
};
use ciao_harness::perf;
use ciao_harness::report::write_json;
use ciao_harness::runner::{log, set_verbosity, RunPlan, RunScale, Runner};
use ciao_harness::schedulers::SchedulerKind;
use ciao_workloads::{Benchmark, Mix};
use gpu_sim::{BackendKind, DispatchPolicy, ObsLevel};
use serde::Serialize;
use std::path::{Path, PathBuf};

struct Options {
    experiment: String,
    scale: RunScale,
    out_dir: Option<PathBuf>,
    sms: usize,
    seeds: Vec<u64>,
    arrivals: u64,
    backend: BackendKind,
    baseline: PathBuf,
    bench_out: PathBuf,
    allow_missing_baseline: bool,
    with_mixes: bool,
    merge_baseline: bool,
    mix_filter: Option<String>,
    policy_filter: Option<String>,
    sm_counts: Option<Vec<usize>>,
    obs: ObsLevel,
    trace_out: PathBuf,
    metrics_out: PathBuf,
    chips: usize,
    placement_filter: Option<String>,
    traffic_profile: String,
    mean_interarrival: Option<f64>,
    reference_calibration: bool,
}

impl Options {
    fn seed(&self) -> u64 {
        self.seeds.first().copied().unwrap_or(0)
    }
}

/// Parses a `--seed` value: a single seed (`3`) or an inclusive-exclusive
/// range (`0..3` = seeds 0, 1, 2) for seed-averaged sweeps.
fn parse_seeds(value: &str) -> Option<Vec<u64>> {
    if let Some((a, b)) = value.split_once("..") {
        let (a, b): (u64, u64) = (a.trim().parse().ok()?, b.trim().parse().ok()?);
        if a >= b {
            return None;
        }
        Some((a..b).collect())
    } else {
        Some(vec![value.trim().parse().ok()?])
    }
}

fn parse_args() -> Options {
    let mut experiment = String::from("all");
    let mut scale = RunScale::Full;
    let mut out_dir = None;
    let mut sms = 1usize;
    let mut seeds = vec![0u64];
    let mut arrivals = 0u64;
    let mut backend = BackendKind::default();
    let mut baseline = PathBuf::from("bench/baseline.json");
    let mut bench_out = PathBuf::from("BENCH_PR.json");
    let mut allow_missing_baseline = false;
    let mut with_mixes = false;
    let mut merge_baseline = false;
    let mut mix_filter = None;
    let mut policy_filter = None;
    let mut sm_counts = None;
    let mut obs = ObsLevel::Off;
    let mut trace_out = PathBuf::from("run.trace.json");
    let mut metrics_out = PathBuf::from("metrics.json");
    let mut chips = 4usize;
    let mut placement_filter = None;
    let mut traffic_profile = String::from("balanced");
    let mut mean_interarrival = None;
    let mut reference_calibration = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--capacity-curve" => experiment = "capacity".to_string(),
            "--sm-counts" => {
                let parsed: Option<Vec<usize>> = args.next().map(|v| {
                    v.split(',')
                        .map(|s| s.trim().parse::<usize>().ok().filter(|&n| n >= 2))
                        .collect::<Option<Vec<usize>>>()
                        .unwrap_or_default()
                });
                sm_counts = match parsed {
                    Some(list) if !list.is_empty() => Some(list),
                    _ => {
                        eprintln!(
                            "--sm-counts expects a comma list of integers >= 2 (e.g. 2,4,8,15)"
                        );
                        std::process::exit(2);
                    }
                };
            }
            "--quick" => scale = RunScale::Quick,
            "--tiny" => scale = RunScale::Tiny,
            "--full" => scale = RunScale::Full,
            "--out" => out_dir = args.next().map(PathBuf::from),
            "--sms" => {
                sms = args.next().and_then(|v| v.parse().ok()).filter(|&n| n >= 1).unwrap_or_else(
                    || {
                        eprintln!("--sms expects a positive integer");
                        std::process::exit(2);
                    },
                );
            }
            "--seed" => {
                seeds = args.next().and_then(|v| parse_seeds(&v)).unwrap_or_else(|| {
                    eprintln!("--seed expects a non-negative integer or a range a..b (a < b)");
                    std::process::exit(2);
                });
            }
            "--arrivals" => {
                arrivals = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--arrivals expects a non-negative cycle stride");
                    std::process::exit(2);
                });
            }
            "--backend" => {
                backend =
                    args.next().as_deref().and_then(BackendKind::from_label).unwrap_or_else(|| {
                        eprintln!("--backend expects epoch or event");
                        std::process::exit(2);
                    });
            }
            "--baseline" => {
                baseline = args.next().map(PathBuf::from).unwrap_or_else(|| {
                    eprintln!("--baseline expects a path");
                    std::process::exit(2);
                });
            }
            "--bench-out" => {
                bench_out = args.next().map(PathBuf::from).unwrap_or_else(|| {
                    eprintln!("--bench-out expects a path");
                    std::process::exit(2);
                });
            }
            "--obs" => {
                obs = args.next().as_deref().and_then(ObsLevel::from_label).unwrap_or_else(|| {
                    eprintln!("--obs expects off, metrics or full");
                    std::process::exit(2);
                });
            }
            "--trace-out" => {
                trace_out = args.next().map(PathBuf::from).unwrap_or_else(|| {
                    eprintln!("--trace-out expects a path");
                    std::process::exit(2);
                });
            }
            "--metrics-out" => {
                metrics_out = args.next().map(PathBuf::from).unwrap_or_else(|| {
                    eprintln!("--metrics-out expects a path");
                    std::process::exit(2);
                });
            }
            "--chips" => {
                chips =
                    args.next().and_then(|v| v.parse().ok()).filter(|&n| n >= 1).unwrap_or_else(
                        || {
                            eprintln!("--chips expects a positive integer");
                            std::process::exit(2);
                        },
                    );
            }
            "--placement" => {
                placement_filter = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--placement expects bin-pack|interference-spread|both");
                    std::process::exit(2);
                }));
            }
            "--traffic" => {
                traffic_profile = args.next().unwrap_or_else(|| {
                    eprintln!("--traffic expects {}", gpu_fleet::TrafficSpec::PROFILES.join("|"));
                    std::process::exit(2);
                });
            }
            "--mean-interarrival" => {
                mean_interarrival = Some(
                    args.next()
                        .and_then(|v| v.parse::<f64>().ok())
                        .filter(|&m| m > 0.0)
                        .unwrap_or_else(|| {
                            eprintln!("--mean-interarrival expects a positive cycle count");
                            std::process::exit(2);
                        }),
                );
            }
            "--reference-calibration" => reference_calibration = true,
            "-v" | "--verbose" => set_verbosity(1),
            "-q" | "--quiet" => set_verbosity(-1),
            "--allow-missing-baseline" => allow_missing_baseline = true,
            "--with-mixes" => with_mixes = true,
            "--merge-baseline" => merge_baseline = true,
            "--mix" => {
                mix_filter = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--mix expects a mix name");
                    std::process::exit(2);
                }));
            }
            "--policy" => {
                policy_filter = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--policy expects exclusive|spatial|shared-rr");
                    std::process::exit(2);
                }));
            }
            "--help" | "-h" => {
                println!(
                    "usage: ciao-harness <table1|table2|fig1|fig4|fig8|fig9|fig10|fig11|fig12|overhead|mix|capacity|fleet|trace|profile|perf|all> \
                     [--quick|--tiny|--full] [--sms N] [--seed N|A..B] [--arrivals N] \
                     [--backend epoch|event] [--out DIR] [--mix NAME] \
                     [--policy exclusive|spatial|shared-rr|interference-aware] \
                     [--capacity-curve] [--sm-counts A,B,..] \
                     [--chips N] [--placement bin-pack|interference-spread|both] \
                     [--traffic balanced|cache-heavy|stream-heavy] \
                     [--mean-interarrival CYCLES] [--reference-calibration] \
                     [--obs off|metrics|full] [--trace-out FILE] [--metrics-out FILE] \
                     [--baseline FILE] [--bench-out FILE] \
                     [--allow-missing-baseline] [--with-mixes] [--merge-baseline] \
                     [-v|--verbose] [-q|--quiet]"
                );
                std::process::exit(0);
            }
            other if !other.starts_with('-') => experiment = other.to_string(),
            other => {
                eprintln!("unknown option: {other}");
                std::process::exit(2);
            }
        }
    }
    Options {
        experiment,
        scale,
        out_dir,
        sms,
        seeds,
        arrivals,
        backend,
        baseline,
        bench_out,
        allow_missing_baseline,
        with_mixes,
        merge_baseline,
        mix_filter,
        policy_filter,
        sm_counts,
        obs,
        trace_out,
        metrics_out,
        chips,
        placement_filter,
        traffic_profile,
        mean_interarrival,
        reference_calibration,
    }
}

/// Resolves the `--mix` filter (or all named mixes), exiting on a bad name.
fn resolve_mixes(filter: &Option<String>) -> Vec<Mix> {
    match filter {
        Some(name) => match Mix::from_name(name) {
            Some(m) => vec![m],
            None => {
                eprintln!(
                    "unknown mix: {name} (known: {})",
                    Mix::all().iter().map(|m| m.name()).collect::<Vec<_>>().join(", ")
                );
                std::process::exit(2);
            }
        },
        None => Mix::all(),
    }
}

/// Resolves the `--policy` filter (or all policies), exiting on a bad label.
fn resolve_policies(filter: &Option<String>) -> Vec<DispatchPolicy> {
    match filter {
        Some(label) => match DispatchPolicy::from_label(label) {
            Some(p) => vec![p],
            None => {
                eprintln!(
                    "unknown policy: {label} (known: {})",
                    DispatchPolicy::all().iter().map(|p| p.label()).collect::<Vec<_>>().join(", ")
                );
                std::process::exit(2);
            }
        },
        None => DispatchPolicy::all(),
    }
}

/// Runs the perf gate: measure, persist, compare against the snapshot
/// recorded for the same configuration, exit non-zero on drift. With
/// `--merge-baseline` the measured snapshot is recorded into the baseline
/// file instead of being gated (regeneration mode).
fn run_perf_gate(opts: &Options, runner: &Runner) {
    let mut report = perf::measure(runner, &Benchmark::all(), &perf::gate_schedulers());
    if opts.with_mixes {
        log(format_args!("measuring mix STPs ..."));
        let (mix_stp, mix_secs) = perf::measure_mixes(runner);
        report.mix_stp = mix_stp;
        report.mix_wall_clock_secs = mix_secs;
        // Cross-check the other timing backend on the same sweep: the STPs
        // must match bit-for-bit (both backends are exact), and the wall
        // clocks give the PR-over-PR epoch-vs-event speedup figure. Printed,
        // never gated or persisted — wall clocks are machine-dependent.
        let other = match runner.backend {
            BackendKind::Epoch => BackendKind::Event,
            BackendKind::Event => BackendKind::Epoch,
        };
        log(format_args!("re-measuring mix STPs on the {other} backend ..."));
        let (other_stp, other_secs) = perf::measure_mixes(&runner.clone().with_backend(other));
        if other_stp != report.mix_stp {
            eprintln!("perf gate FAILED: {other} backend STPs diverge from {}", runner.backend);
            std::process::exit(1);
        }
        let (epoch_secs, event_secs) = match runner.backend {
            BackendKind::Epoch => (mix_secs, other_secs),
            BackendKind::Event => (other_secs, mix_secs),
        };
        println!(
            "mix sweep backends agree; wall clock epoch {epoch_secs:.2}s vs event \
             {event_secs:.2}s ({:.1}x)",
            epoch_secs / event_secs.max(1e-9)
        );
        report.wall_clock.mix_epoch_secs = epoch_secs;
        report.wall_clock.mix_event_secs = event_secs;
        // Time the large-chip capacity point under both backends — the
        // headline epoch-vs-event speedup, recorded machine-readably in the
        // BENCH JSON's `wall_clock` section. STP divergence between the
        // backends is a correctness bug and fails the gate.
        log(format_args!(
            "timing the {}-SM capacity point on both backends ...",
            perf::CAPACITY_PROBE_SMS
        ));
        match perf::measure_capacity_point(runner, perf::CAPACITY_PROBE_SMS) {
            Ok((cap_epoch, cap_event)) => {
                report.wall_clock.capacity_sms = perf::CAPACITY_PROBE_SMS;
                report.wall_clock.capacity_epoch_secs = cap_epoch;
                report.wall_clock.capacity_event_secs = cap_event;
            }
            Err(e) => {
                eprintln!("perf gate FAILED: {e}");
                std::process::exit(1);
            }
        }
    }
    print!("{}", perf::render(&report));
    if let Err(e) = write_json(&opts.bench_out, &report) {
        eprintln!("error: cannot write {:?}: {e}", opts.bench_out);
        std::process::exit(1);
    }
    log(format_args!("wrote {:?}", opts.bench_out));

    if opts.merge_baseline {
        let mut file = if Path::new(&opts.baseline).exists() {
            load_baseline_file(&opts.baseline)
        } else {
            perf::BaselineFile::default()
        };
        file.upsert(report);
        if let Err(e) = write_json(&opts.baseline, &file) {
            eprintln!("error: cannot write baseline {:?}: {e}", opts.baseline);
            std::process::exit(1);
        }
        log(format_args!(
            "recorded snapshot into {:?} ({} snapshot{})",
            opts.baseline,
            file.snapshots.len(),
            if file.snapshots.len() == 1 { "" } else { "s" }
        ));
        return;
    }

    if !Path::new(&opts.baseline).exists() {
        // Fail closed: a gate that silently skips is no gate. Bootstrapping a
        // brand-new configuration is the explicit opt-out.
        log(format_args!(
            "no baseline at {:?} (run `perf --merge-baseline` to record one)",
            opts.baseline
        ));
        if opts.allow_missing_baseline {
            log(format_args!("--allow-missing-baseline given; exiting 0"));
            return;
        }
        eprintln!(
            "perf gate FAILED: baseline missing (pass --allow-missing-baseline to bootstrap)"
        );
        std::process::exit(1);
    }
    let file = load_baseline_file(&opts.baseline);
    let Some(baseline) = file.find(&report.scale, report.num_sms, report.seed) else {
        // Also fail closed: comparing across configurations is meaningless,
        // and exiting 0 here would let a mis-invoked CI job disarm the gate.
        eprintln!(
            "perf gate FAILED: no snapshot for ({}, {} SMs, seed {}) in {:?} — record one \
             with `ciao-harness perf --merge-baseline` at this configuration",
            report.scale, report.num_sms, report.seed, opts.baseline
        );
        std::process::exit(1);
    };
    let gated: Vec<&str> = perf::gate_schedulers().iter().map(|s| s.label()).collect::<Vec<_>>();
    let drifts = perf::compare(&report, baseline, perf::DEFAULT_TOLERANCE, &gated);
    // Per-mix STP gating: enforced whenever either side carries mix figures
    // (run with `--with-mixes` against a mix-bearing snapshot). Fails closed
    // on missing keys — see `perf::compare_mixes`.
    let mix_drifts = if opts.with_mixes || !baseline.mix_stp.is_empty() {
        perf::compare_mixes(&report, baseline, perf::DEFAULT_TOLERANCE)
    } else {
        Vec::new()
    };
    if drifts.is_empty() && mix_drifts.is_empty() {
        let mixes = if opts.with_mixes || !baseline.mix_stp.is_empty() {
            " and all gated mix STPs"
        } else {
            ""
        };
        println!(
            "perf gate PASSED (all gated schedulers{mixes} within ±{:.0}% of baseline)",
            perf::DEFAULT_TOLERANCE * 100.0
        );
    } else {
        print!("{}", perf::render_drifts(&drifts, perf::DEFAULT_TOLERANCE));
        print!("{}", perf::render_mix_drifts(&mix_drifts, perf::DEFAULT_TOLERANCE));
        eprintln!(
            "perf gate FAILED; if the drift is an intended modelling change, regenerate \
             the snapshot with `ciao-harness perf --merge-baseline` at this configuration \
             (add --with-mixes for mix-bearing snapshots)"
        );
        std::process::exit(1);
    }
}

/// Loads and parses the multi-snapshot baseline file, exiting on error.
fn load_baseline_file(path: &Path) -> perf::BaselineFile {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read baseline {path:?}: {e}");
            std::process::exit(1);
        }
    };
    match serde_json::from_str(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!(
                "error: cannot parse baseline {path:?}: {e} (expected the multi-snapshot \
                 {{\"snapshots\": [...]}} schema)"
            );
            std::process::exit(1);
        }
    }
}

/// The `(mix, policy, scheduler)` co-run the `trace` and `profile` commands
/// observe: `--mix` / `--policy` narrow it; the defaults are the
/// cache-vs-stream mix under interference-aware dispatch with CIAO-T — the
/// configuration whose throttle/restore instants the trace is for.
fn observed_corun(opts: &Options) -> (Mix, DispatchPolicy, SchedulerKind) {
    let mix = match &opts.mix_filter {
        Some(_) => resolve_mixes(&opts.mix_filter)[0],
        None => Mix::CacheStream,
    };
    let policy = match &opts.policy_filter {
        Some(_) => resolve_policies(&opts.policy_filter)[0],
        None => DispatchPolicy::InterferenceAware,
    };
    (mix, policy, SchedulerKind::CiaoT)
}

/// `fleet`: the cluster-tier experiment. `--placement both` (the default)
/// runs bin-pack and interference-spread on the identical traffic and
/// calibration and prints the STP verdict.
fn run_fleet(opts: &Options) {
    let policies = match opts.placement_filter.as_deref() {
        None | Some("both") => gpu_fleet::PlacementPolicy::ALL.to_vec(),
        Some(label) => match gpu_fleet::PlacementPolicy::from_label(label) {
            Some(p) => vec![p],
            None => {
                eprintln!(
                    "unknown placement: {label} (known: both, {})",
                    gpu_fleet::PlacementPolicy::ALL
                        .iter()
                        .map(|p| p.label())
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                std::process::exit(2);
            }
        },
    };
    let plan = fleet::FleetPlan {
        chips: opts.chips,
        sms: if opts.sms > 1 { opts.sms } else { 8 },
        arrivals: if opts.arrivals > 0 { opts.arrivals as usize } else { 100_000 },
        seed: opts.seed(),
        profile: opts.traffic_profile.clone(),
        mean_interarrival: opts.mean_interarrival,
        policies,
        reference_calibration: opts.reference_calibration,
        obs: opts.obs,
    };
    if fleet::traffic_for(&plan).is_none() {
        eprintln!(
            "unknown traffic profile: {} (known: {})",
            plan.profile,
            gpu_fleet::TrafficSpec::PROFILES.join(", ")
        );
        std::process::exit(2);
    }
    let r = fleet::run(&plan);
    emit(opts, "fleet", &fleet::render(&r), &r);
}

/// `trace`: one fully observed co-run; writes the Perfetto-loadable Chrome
/// trace and the metrics-registry JSON, prints a one-line summary.
fn run_trace(opts: &Options, runner: &Runner) {
    let (mix, policy, scheduler) = observed_corun(opts);
    let runner = runner.clone().with_obs(ObsLevel::Full);
    log(format_args!(
        "tracing {} under {} / {} at --obs full ...",
        mix.name(),
        policy.label(),
        scheduler.label()
    ));
    let (res, report) = runner.run_mix_observed(mix, policy, scheduler);
    if let Err(e) = std::fs::write(&opts.trace_out, report.chrome_trace_json()) {
        eprintln!("error: cannot write trace {:?}: {e}", opts.trace_out);
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write(&opts.metrics_out, report.metrics_json_full()) {
        eprintln!("error: cannot write metrics {:?}: {e}", opts.metrics_out);
        std::process::exit(1);
    }
    println!(
        "traced {} under {} / {}: {} cycles, {} events ({} dropped), {} tenants; \
         wrote {} and {}",
        mix.name(),
        policy.label(),
        scheduler.label(),
        res.cycles,
        report.events.len(),
        report.dropped_events,
        report.tenants.len(),
        opts.trace_out.display(),
        opts.metrics_out.display()
    );
}

/// `profile`: the same co-run at metrics level under **both** timing
/// backends, printing each wall-clock phase table so epoch-vs-event hotspots
/// can be compared directly.
fn run_profile(opts: &Options, runner: &Runner) {
    let (mix, policy, scheduler) = observed_corun(opts);
    let obs = opts.obs.max(ObsLevel::Metrics);
    for backend in [BackendKind::Epoch, BackendKind::Event] {
        let r = runner.clone().with_backend(backend).with_obs(obs);
        log(format_args!(
            "profiling {} under {} / {} on the {backend} backend ...",
            mix.name(),
            policy.label(),
            scheduler.label()
        ));
        let (res, report) = r.run_mix_observed(mix, policy, scheduler);
        println!(
            "== {backend} backend — {} under {} / {} ({} cycles) ==",
            mix.name(),
            policy.label(),
            scheduler.label(),
            res.cycles
        );
        print!("{}", report.profile_table());
    }
}

fn emit<T: Serialize>(opts: &Options, name: &str, text: &str, value: &T) {
    println!("{text}");
    if let Some(dir) = &opts.out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: cannot create {dir:?}: {e}");
            return;
        }
        if let Err(e) = std::fs::write(dir.join(format!("{name}.txt")), text) {
            eprintln!("warning: cannot write {name}.txt: {e}");
        }
        if let Err(e) = write_json(&dir.join(format!("{name}.json")), value) {
            eprintln!("warning: cannot write {name}.json: {e}");
        }
    }
}

fn run_experiment(opts: &Options, name: &str, runner: &Runner) {
    match name {
        "table1" => {
            let r = table1::run(&runner.effective_config());
            emit(opts, "table1", &table1::render(&r), &r);
        }
        "table2" => {
            let r = table2::run(runner, &Benchmark::all());
            emit(opts, "table2", &table2::render(&r), &r);
        }
        "fig1" | "fig1a" | "fig1b" => {
            let r = fig1::run(runner, Benchmark::Backprop);
            emit(opts, "fig1", &fig1::render(&r), &r);
        }
        "fig4" | "fig4a" | "fig4b" => {
            let r = fig4::run(runner, Benchmark::Kmn, &Benchmark::memory_intensive());
            emit(opts, "fig4", &fig4::render(&r), &r);
        }
        "fig8" | "fig8a" | "fig8b" => {
            let r = fig8::run(runner, &Benchmark::all(), &SchedulerKind::all());
            emit(opts, "fig8", &fig8::render(&r), &r);
        }
        "fig9" => {
            let r = fig9::run(runner, &fig9::fig9_benchmarks(), &fig9::fig9_schedulers());
            emit(opts, "fig9", &fig9::render("Fig. 9", &r), &r);
        }
        "fig10" => {
            let r = fig10::run(runner, &fig10::fig10_benchmarks(), &fig10::fig10_schedulers());
            emit(opts, "fig10", &fig10::render(&r), &r);
        }
        "fig11" | "fig11a" | "fig11b" => {
            let r = fig11::run(runner, &fig11::sensitivity_benchmarks());
            emit(opts, "fig11", &fig11::render(&r), &r);
        }
        "fig12" | "fig12a" | "fig12b" => {
            let r = fig12::run(runner, &Benchmark::memory_intensive());
            emit(opts, "fig12", &fig12::render(&r), &r);
        }
        "overhead" => {
            let r = overhead::run();
            emit(opts, "overhead", &overhead::render(&r), &r);
        }
        "capacity" => {
            let mixes = resolve_mixes(&opts.mix_filter);
            let policies = resolve_policies(&opts.policy_filter);
            let sm_counts = opts.sm_counts.clone().unwrap_or_else(capacity::default_sm_counts);
            let r = capacity::run(
                runner,
                &sm_counts,
                &mixes,
                &policies,
                ciao_harness::schedulers::SchedulerKind::Gto,
            );
            emit(opts, "capacity", &capacity::render(&r), &r);
        }
        "mix" => {
            let mixes = resolve_mixes(&opts.mix_filter);
            let policies = resolve_policies(&opts.policy_filter);
            if opts.seeds.len() > 1 {
                // Seed sweep: mean ± σ figures per (mix, policy, scheduler).
                let r = mix::run_seeds(
                    runner,
                    &opts.seeds,
                    &mixes,
                    &policies,
                    &mix::default_schedulers(),
                );
                emit(opts, "mix", &mix::render_sweep(&r), &r);
            } else {
                let r = mix::run(runner, &mixes, &policies, &mix::default_schedulers());
                emit(opts, "mix", &mix::render(&r), &r);
            }
        }
        "fleet" => run_fleet(opts),
        "trace" => run_trace(opts, runner),
        "profile" => run_profile(opts, runner),
        "perf" => run_perf_gate(opts, runner),
        other => {
            eprintln!("unknown experiment: {other}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let opts = parse_args();
    if opts.seeds.len() > 1 && opts.experiment != "mix" {
        log(format_args!(
            "seed ranges are only swept by the `mix` experiment; using seed {} for `{}`",
            opts.seed(),
            opts.experiment
        ));
    }
    let plan = RunPlan {
        scale: opts.scale,
        sms: opts.sms,
        seed: opts.seed(),
        arrival_stride: opts.arrivals,
        backend: opts.backend,
        threads: None,
        obs: opts.obs,
    };
    let runner = Runner::from_plan(&plan);
    log(format_args!(
        "scale: {:?} ({} instructions/run cap), {} SM{} per run, seed{} {}, \
         arrivals +{}, {} backend, {} worker threads, obs {}",
        opts.scale,
        opts.scale.max_instructions(),
        runner.sms,
        if runner.sms == 1 { "" } else { "s" },
        if opts.seeds.len() == 1 { "" } else { "s" },
        opts.seeds.iter().map(|s| s.to_string()).collect::<Vec<_>>().join(","),
        opts.arrivals,
        runner.backend,
        runner.threads,
        runner.obs
    ));
    if opts.experiment == "all" {
        for name in [
            "table1", "table2", "fig1", "fig4", "fig8", "fig9", "fig10", "fig11", "fig12",
            "overhead", "mix",
        ] {
            log(format_args!("running {name} ..."));
            run_experiment(&opts, name, &runner);
        }
    } else {
        run_experiment(&opts, &opts.experiment, &runner);
    }
}
