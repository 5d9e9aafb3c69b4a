//! `ciao-harness` — command-line front end reproducing every table and figure
//! of the CIAO paper.
//!
//! ```text
//! ciao-harness <experiment> [--quick|--tiny] [--sms N] [--seed N] [--out DIR]
//!
//! experiments: table1 table2 fig1 fig4 fig8 fig9 fig10 fig11 fig12 overhead mix
//!              capacity fleet trace profile all
//! ```
//!
//! `--sms N` simulates every run on an N-SM chip against a shared banked
//! L2/DRAM; the default of 1 is the single-SM model of the paper's figures.
//! `--seed N` replicates every synthetic trace under a different seed (0 =
//! the historical traces).
//!
//! `mix` co-runs the named multi-tenant benchmark mixes across the four SM
//! dispatch policies (exclusive, spatial, shared-rr, interference-aware) ×
//! schedulers and reports per-tenant IPC, STP, ANTT and L2-contention
//! shares. `--mix NAME` and `--policy LABEL` narrow the sweep.
//!
//! `capacity` sweeps STP vs chip size: every mix × policy co-run is repeated
//! at each `--sm-counts A,B,..` chip size (default 2,4,8,15), with solo
//! baselines re-measured per size.
//!
//! `trace` runs one fully observed co-run (default: cache-vs-stream under
//! interference-aware dispatch with CIAO-T) and writes a Perfetto-loadable
//! Chrome trace (`--trace-out`, default `run.trace.json`) plus the metrics
//! registry (`--metrics-out`, default `metrics.json`). `profile` runs the
//! same co-run under **both** timing backends and prints each wall-clock
//! phase table. `-q`/`--quiet` silences the diagnostic lines on stderr.
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
//! Text reports go to stdout; when `--out DIR` is given, each experiment also
//! writes `<experiment>.txt` and `<experiment>.json` into the directory.

use ciao_harness::experiments::{
    capacity, fig1, fig10, fig11, fig12, fig4, fig8, fig9, fleet, mix, overhead, table1, table2,
};
use ciao_harness::report::write_json;
use ciao_harness::runner::{log, set_quiet, RunPlan, RunScale, Runner};
use ciao_harness::schedulers::SchedulerKind;
use ciao_workloads::{Benchmark, Mix};
use gpu_sim::{BackendKind, DispatchPolicy, ObsLevel};
use serde::Serialize;
use std::path::PathBuf;

struct Options {
    experiment: String,
    scale: RunScale,
    out_dir: Option<PathBuf>,
    sms: usize,
    seeds: Vec<u64>,
    arrivals: u64,
    backend: BackendKind,
    mix_filter: Option<String>,
    policy_filter: Option<String>,
    sm_counts: Option<Vec<usize>>,
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
    let mut mix_filter = None;
    let mut policy_filter = None;
    let mut sm_counts = None;
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
            "--out" => {
                out_dir = Some(args.next().map(PathBuf::from).unwrap_or_else(|| {
                    eprintln!("--out expects a directory");
                    std::process::exit(2);
                }));
            }
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
            "-q" | "--quiet" => set_quiet(),
            "--mix" => {
                mix_filter = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--mix expects a mix name");
                    std::process::exit(2);
                }));
            }
            "--policy" => {
                policy_filter = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--policy expects exclusive|spatial|shared-rr|interference-aware");
                    std::process::exit(2);
                }));
            }
            "--help" | "-h" => {
                println!(
                    "usage: ciao-harness <table1|table2|fig1|fig4|fig8|fig9|fig10|fig11|fig12|overhead|mix|capacity|fleet|trace|profile|all> \
                     [--quick|--tiny|--full] [--sms N] [--seed N|A..B] [--arrivals N] \
                     [--backend epoch|event] [--out DIR] [--mix NAME] \
                     [--policy exclusive|spatial|shared-rr|interference-aware] \
                     [--sm-counts A,B,..] \
                     [--chips N] [--placement bin-pack|interference-spread|both] \
                     [--traffic balanced|cache-heavy|stream-heavy] \
                     [--mean-interarrival CYCLES] [--reference-calibration] \
                     [--trace-out FILE] [--metrics-out FILE] [-q|--quiet]"
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
        mix_filter,
        policy_filter,
        sm_counts,
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
    log(format_args!(
        "tracing {} under {} / {} with full observability ...",
        mix.name(),
        policy.label(),
        scheduler.label()
    ));
    let (res, report) = runner.run_mix_observed(mix, policy, scheduler, ObsLevel::Full);
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
    for backend in [BackendKind::Epoch, BackendKind::Event] {
        let r = runner.clone().with_backend(backend);
        log(format_args!(
            "profiling {} under {} / {} on the {backend} backend ...",
            mix.name(),
            policy.label(),
            scheduler.label()
        ));
        let (res, report) = r.run_mix_observed(mix, policy, scheduler, ObsLevel::Metrics);
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
    };
    let runner = Runner::from_plan(&plan);
    log(format_args!(
        "scale: {:?} ({} instructions/run cap), {} SM{} per run, seed{} {}, \
         arrivals +{}, {} backend, {} worker threads",
        opts.scale,
        opts.scale.max_instructions(),
        runner.sms,
        if runner.sms == 1 { "" } else { "s" },
        if opts.seeds.len() == 1 { "" } else { "s" },
        opts.seeds.iter().map(|s| s.to_string()).collect::<Vec<_>>().join(","),
        opts.arrivals,
        runner.backend,
        runner.threads
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
