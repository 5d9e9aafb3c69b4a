//! The repository benchmark: drives the simulator's public entry points
//! (`Simulator::execute` with a `SimRequest`, `Fleet::execute` with a
//! `FleetRequest`) on three seeded workloads, checks their outputs and
//! prints every metric by name and unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig8-sm1 --seed 0 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with every probe off.
//! `--trace 1` runs one untraced and one traced pass and prints the
//! per-layer metrics instead. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md` for the
//! workloads, the metrics and the layer map.

mod chip;
mod common;
mod fig8;
mod fleet;
mod layers;
#[cfg(test)]
mod tests;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use common::{Pass, PassCtx};
use layers::Spans;

/// End-to-end metrics (untraced run): name and unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_kips", "inst/ms"),
    ("sim_mcycles_per_s", "SMcycles/us"),
    ("run_ms_p50", "ms"),
    ("model_gain", "x"),
];

/// Per-layer metrics (traced run): name and unit. A layer a workload does
/// not use reports 0.
pub const PER_LAYER: [(&str, &str); 63] = [
    ("sched.pick_calls", "count"),
    ("sched.pick_s", "s"),
    ("sched.pick_none_frac", "frac"),
    ("sched.hooks_s", "s"),
    ("sched.idle_replay_cycles", "cycles"),
    ("sched.GTO.host_s", "s"),
    ("sched.CCWS.host_s", "s"),
    ("sched.Best-SWL.host_s", "s"),
    ("sched.statPCAL.host_s", "s"),
    ("sched.CIAO-T.host_s", "s"),
    ("sched.CIAO-P.host_s", "s"),
    ("sched.CIAO-C.host_s", "s"),
    ("redirect.lookup_calls", "count"),
    ("redirect.hit_frac", "frac"),
    ("redirect.s", "s"),
    ("workloads.build_s", "s"),
    ("workloads.next_op_calls", "count"),
    ("workloads.next_op_s", "s"),
    ("engine.self_s", "s"),
    ("engine.phase.sm-run_s", "s"),
    ("engine.phase.pop-advance_s", "s"),
    ("engine.phase.serve-events_s", "s"),
    ("engine.phase.dispatch_s", "s"),
    ("engine.phase.deliver_s", "s"),
    ("engine.phase.sleep_s", "s"),
    ("engine.skipped_boundaries", "count"),
    ("engine.sleeps", "count"),
    ("engine.idle_cycles_frac", "frac"),
    ("chip.solo.host_s", "s"),
    ("chip.cache-stream.shared-rr.host_s", "s"),
    ("chip.cache-stream.interference-aware.host_s", "s"),
    ("chip.cache-cache.shared-rr.host_s", "s"),
    ("chip.cache-cache.interference-aware.host_s", "s"),
    ("chip.stream-stream.shared-rr.host_s", "s"),
    ("chip.stream-stream.interference-aware.host_s", "s"),
    ("chip.cache-compute.shared-rr.host_s", "s"),
    ("chip.cache-compute.interference-aware.host_s", "s"),
    ("chip.quad.shared-rr.host_s", "s"),
    ("chip.quad.interference-aware.host_s", "s"),
    ("mem.l1d_hit_frac", "frac"),
    ("mem.l2_hit_frac", "frac"),
    ("mem.dram_accesses", "count"),
    ("mem.fabric_queue_cycles", "cycles"),
    ("mem.throttle_only_cycles", "cycles"),
    ("fleet.generate_s", "s"),
    ("fleet.execute_s.bin-pack", "s"),
    ("fleet.execute_s.interference-spread", "s"),
    ("fleet.skipped_chip_epochs", "count"),
    ("fleet.peak_queue_max", "count"),
    ("fleet.util_mean", "frac"),
    ("fleet.spread_over_pack_stp", "x"),
    ("fleet.arrivals_per_s", "1/s"),
    ("model.ciao_c_vs_gto", "x"),
    ("model.ciao_c_vs_ccws", "x"),
    ("model.stp_ia", "x"),
    ("model.antt_ia", "x"),
    ("model.fleet_stp", "x"),
    ("model.slo_violation_rate", "frac"),
    ("model.interactive_p99_kcycles", "kcycles"),
    ("host.run_ms_p90", "ms"),
    ("host.setup_s", "s"),
    ("host.ref_s", "s"),
    ("obs.overhead_frac", "frac"),
];

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["fig8-sm1", "chip15-mix", "fleet8-steady"];

/// Set-up is repeated until this much time has gone, and at least
/// `SETUP_MIN_BUILDS` times, and its median reported. The first builds pay
/// for the allocator growing its heap; the median lands past them.
const SETUP_BUDGET: Duration = Duration::from_millis(250);
const SETUP_MIN_BUILDS: usize = 9;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 0, seconds: 10, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|_| format!("{flag}: bad number {v:?}"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?.max(1),
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

/// A workload with its inputs built.
enum Workload {
    Fig8(fig8::Fig8),
    Chip15(chip::Chip15),
    Fleet(fleet::FleetBench),
}

impl Workload {
    fn setup(name: &str, seed: u64) -> Workload {
        match name {
            "fig8-sm1" => Workload::Fig8(fig8::Fig8::setup(seed)),
            "chip15-mix" => Workload::Chip15(chip::Chip15::setup(seed)),
            _ => Workload::Fleet(fleet::FleetBench::setup(seed)),
        }
    }

    /// Worker threads. `fig8-sm1`'s 147 short calls spread over up to two
    /// cores so that several passes fit in a run; the other workloads make
    /// a few long calls one after the other, which keeps their memory peak
    /// independent of which calls happen to overlap.
    fn threads(&self) -> usize {
        match self {
            Workload::Fig8(_) => std::thread::available_parallelism().map_or(1, |n| n.get()).min(2),
            _ => 1,
        }
    }

    fn pass(&self, ctx: &PassCtx) -> Pass {
        match self {
            Workload::Fig8(w) => w.pass(ctx),
            Workload::Chip15(w) => w.pass(ctx),
            Workload::Fleet(w) => w.pass(ctx),
        }
    }
}

/// Builds the workload repeatedly; returns the last build, the median raw
/// set-up time, the same scaled to the nominal host speed (see
/// `common::Timing`), and the number of builds.
fn timed_setup(args: &Args) -> (Workload, f64, f64, usize) {
    let host_speed = || (0..5).map(|_| common::reference_loop()).collect::<Vec<_>>();
    let mut refs = host_speed();
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let w = Workload::setup(&args.workload, args.seed);
        times.push(t0.elapsed().as_secs_f64());
        if times.len() >= SETUP_MIN_BUILDS && start.elapsed() >= SETUP_BUDGET {
            refs.extend(host_speed());
            let timing =
                common::Timing { host_s: common::median(&times), ref_s: common::median(&refs) };
            return (w, timing.host_s, timing.adjusted_s(), times.len());
        }
    }
}

/// Totals over a run's passes.
struct RunSummary {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

/// Checks the passes against each other (digest and modelled figures must
/// repeat exactly) and prints the report lines every run shares.
fn summarize(passes: &[(&str, &Pass)]) -> RunSummary {
    let mut s = RunSummary { attempted: 0, failed: 0, failures: Vec::new() };
    let (_, first) = passes[0];
    for (i, (kind, p)) in passes.iter().enumerate() {
        println!(
            "pass {} ({kind}): {:.3} s, {} execute calls, sim_digest {:016x}",
            i + 1,
            p.wall_s,
            p.calls.len(),
            p.digest
        );
        s.attempted += p.attempted();
        s.failed += p.failed();
        for c in p.calls.iter().filter(|c| c.failure.is_some()) {
            s.failures.push(format!("{}: {}", c.label, c.failure.as_deref().unwrap_or_default()));
        }
        s.failures.extend(p.check_failures.iter().cloned());
        if i > 0 {
            s.attempted += 1;
            if p.digest != first.digest || p.model != first.model {
                s.failed += 1;
                s.failures.push(format!("pass {} did not reproduce pass 1's outputs", i + 1));
            }
        }
    }
    s.failures.sort();
    s.failures.dedup();
    let known: Vec<&str> =
        first.calls.iter().filter(|c| c.known_livelock).map(|c| c.label.as_str()).collect();
    println!("sim_digest {:016x}", first.digest);
    println!("model unvalidated: the repository holds no reference measurements, so no error figure is given; the abstract's 1.54x over CCWS is directional only");
    for (name, v) in &first.model {
        println!("model {name} {v}");
    }
    println!("model_gain {}", first.model_gain);
    if !known.is_empty() {
        println!(
            "known livelocks stopped at the cycle cap ({} of {} runs per pass): {}",
            known.len(),
            first.calls.len(),
            known.join(", ")
        );
    }
    if s.failures.is_empty() {
        println!("failed operations: none of {}", s.attempted);
    } else {
        println!("failed operations: {} of {}", s.failed, s.attempted);
        for f in &s.failures {
            println!("  failed: {f}");
        }
    }
    s
}

fn metric_json(table: &[(&str, &str)], values: &BTreeMap<String, f64>) -> String {
    let body: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = values.get(*name).copied().unwrap_or(0.0);
            format!("{name:?}: {{\"value\": {v}, \"unit\": {unit:?}}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let spans = Spans::new();
    let setup_span = spans.open("setup", None);
    let (workload, setup_raw_s, setup_s, setup_reps) = timed_setup(&args);
    spans.close(setup_span);
    let threads = workload.threads();
    println!(
        "perfbench {} seed={} seconds={} trace={} threads={threads} (host parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!(
        "setup: median {setup_raw_s:.9} s raw, {setup_s:.9} s adjusted, over {setup_reps} builds"
    );

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let untraced = PassCtx { threads, hint: None, trace: None };
    let summary;
    if args.trace {
        let plain = workload.pass(&untraced);
        let root = spans.open("pass", None);
        let hint: Vec<f64> = plain.calls.iter().map(|c| c.timing.host_s).collect();
        let ctx = PassCtx { threads, hint: Some(&hint), trace: Some((&spans, root)) };
        let traced = workload.pass(&ctx);
        spans.close(root);
        let mut s = summarize(&[("untraced", &plain), ("traced", &traced)]);
        values.extend(traced.layers.clone());
        for (name, v) in &traced.model {
            values.insert(format!("model.{name}"), *v);
        }
        let call_ms: Vec<f64> = plain.calls.iter().map(|c| c.timing.adjusted_s() * 1e3).collect();
        if call_ms.len() >= 100 {
            values.insert("host.run_ms_p90".into(), common::quantile(&call_ms, 0.9));
        }
        values.insert("host.setup_s".into(), setup_s);
        let refs: Vec<f64> = plain.calls.iter().map(|c| c.timing.ref_s).collect();
        values.insert("host.ref_s".into(), common::median(&refs));
        let adjusted_wall = |p: &Pass| p.wall_s * p.speed_factor();
        values.insert(
            "obs.overhead_frac".into(),
            adjusted_wall(&traced) / adjusted_wall(&plain) - 1.0,
        );
        if traced.digest != plain.digest {
            s.failed += 1;
            s.failures.push("the traced pass changed the simulated outputs".into());
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        let written = std::fs::create_dir_all(path.parent().expect("out/ has a parent"))
            .and_then(|()| std::fs::write(&path, layers::spans_json(&spans.snapshot())));
        match written {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
        for (name, _) in PER_LAYER {
            println!("layer {name} {}", values.get(name).copied().unwrap_or(0.0));
        }
        summary = s;
    } else {
        let budget = Duration::from_secs(args.seconds);
        let start = Instant::now();
        let mut passes = Vec::new();
        loop {
            // Later passes start their calls longest first, by pass 1's times.
            let hint: Option<Vec<f64>> =
                passes.first().map(|p: &Pass| p.calls.iter().map(|c| c.timing.host_s).collect());
            passes.push(workload.pass(&PassCtx { hint: hint.as_deref(), ..untraced }));
            let per_pass = start.elapsed() / passes.len() as u32;
            if start.elapsed() + per_pass > budget {
                break;
            }
        }
        let labelled: Vec<(&str, &Pass)> = passes.iter().map(|p| ("untraced", p)).collect();
        summary = summarize(&labelled);
        // Host times are scaled to the nominal host speed (see
        // `common::Timing`). Each call's time is its median over the passes,
        // which also filters out bursts shorter than a pass. The rates cover
        // the calls that ran to completion or spent their instruction
        // budget; a livelock spinning to the cycle cap is not simulation
        // throughput.
        let first = &passes[0];
        let call_s: Vec<f64> = (0..first.calls.len())
            .map(|i| {
                let per_pass: Vec<f64> =
                    passes.iter().map(|p| p.calls[i].timing.adjusted_s()).collect();
                common::median(&per_pass)
            })
            .collect();
        let finished: Vec<usize> =
            (0..first.calls.len()).filter(|&i| !first.calls[i].known_livelock).collect();
        let execute_s: f64 = finished.iter().map(|&i| call_s[i]).sum();
        let instructions: u64 = finished.iter().map(|&i| first.calls[i].instructions).sum();
        let sm_cycles: u64 = finished.iter().map(|&i| first.calls[i].sm_cycles).sum();
        let walls: Vec<f64> = passes.iter().map(|p| p.wall_s * p.speed_factor()).collect();
        values.insert("wall_s".into(), common::median(&walls));
        values.insert("setup_s".into(), setup_s);
        values.insert("peak_rss_mb".into(), common::peak_rss_mb().unwrap_or(0.0));
        values.insert("sim_kips".into(), instructions as f64 / (execute_s * 1e3));
        values.insert("sim_mcycles_per_s".into(), sm_cycles as f64 / (execute_s * 1e6));
        values.insert("run_ms_p50".into(), common::median(&call_s) * 1e3);
        values.insert("model_gain".into(), first.model_gain);
        let raw_walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
        let refs: Vec<f64> =
            passes.iter().flat_map(|p| p.calls.iter().map(|c| c.timing.ref_s)).collect();
        println!(
            "host speed: reference loop median {:.4} ms (nominal {:.4} ms); raw wall_s {:.3}",
            common::median(&refs) * 1e3,
            common::REF_NOMINAL_S * 1e3,
            common::median(&raw_walls)
        );
        println!(
            "run_ms over {} execute calls (median of {} passes each): p50 {:.3}{}",
            call_s.len(),
            passes.len(),
            common::median(&call_s) * 1e3,
            if call_s.len() >= 100 {
                format!(", p90 {:.3}", common::quantile(&call_s, 0.9) * 1e3)
            } else {
                " (p90 omitted: fewer than 10 samples beyond it)".to_string()
            }
        );
        for (name, unit) in END_TO_END {
            println!("metric {name} {} {unit}", values[name]);
        }
    }

    let mut summary = summary;
    if let Some((name, _)) = values.iter().find(|(_, v)| !v.is_finite()) {
        summary.failed += 1;
        summary.failures.push(format!("metric {name} is not finite"));
        values.retain(|_, v| v.is_finite());
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        summary.failed == 0,
        summary.attempted,
        summary.failed,
        metric_json(table, &values)
    );
    ExitCode::SUCCESS
}
