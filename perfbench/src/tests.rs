//! Self-tests of the benchmark: the metric tables match `BENCHMARK.json`,
//! and the layer wrappers forward every trait method, so a traced run
//! simulates exactly what an untraced one does.

use std::sync::Arc;

use ciao_core::CiaoParams;
use ciao_workloads::{Benchmark, Mix, ScaleConfig};
use gpu_sim::scheduler::{SchedulerCtx, SchedulerMetrics, WarpScheduler};
use gpu_sim::{DispatchPolicy, GpuConfig, Kernel, Simulator, SmUnit};
use serde::Value;

use crate::common::{self, SimCall};
use crate::fig8::Sched;
use crate::{END_TO_END, PER_LAYER, WORKLOADS};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(json: &'a Value, key: &str) -> &'a [Value] {
    match json.get(key) {
        Some(Value::Array(items)) => items,
        other => panic!("{key} is not an array: {other:?}"),
    }
}

fn text<'a>(entry: &'a Value, key: &str) -> &'a str {
    match entry.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("{key} is not a string: {other:?}"),
    }
}

#[test]
fn benchmark_json_declares_exactly_the_emitted_metrics() {
    let json = benchmark_json();
    let declared = |key: &str| -> Vec<(String, String)> {
        entries(&json, key)
            .iter()
            .map(|e| (text(e, "name").to_string(), text(e, "unit").to_string()))
            .collect()
    };
    let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(declared("end_to_end"), own(&END_TO_END));
    assert_eq!(declared("per_layer"), own(&PER_LAYER));
    let workloads: Vec<&str> =
        entries(&json, "workloads").iter().map(|w| text(w, "name")).collect();
    assert_eq!(workloads, WORKLOADS);
}

fn tiny_config(num_sms: usize) -> GpuConfig {
    let mut config = GpuConfig::gtx480()
        .with_num_sms(num_sms)
        .with_max_instructions(6_000)
        .with_sample_interval(500);
    config.max_cycles = Some(200_000);
    config
}

/// Result JSON of one call, untraced or traced.
fn run(
    sim: &Simulator,
    kernels: &[Arc<dyn Kernel>],
    policy: DispatchPolicy,
    num_sms: usize,
    unit: &(dyn Fn() -> SmUnit + Sync),
    traced: bool,
) -> String {
    let call = SimCall { kernels, policy, num_sms, unit };
    let (res, _, probed) = common::execute(sim, &call, traced);
    assert_eq!(probed.is_some(), traced);
    common::result_json(&res)
}

#[test]
fn wrapped_single_sm_runs_match_unwrapped_for_every_scheduler() {
    let scale = ScaleConfig::tiny().with_seed(3);
    let config = tiny_config(1);
    let sim = Simulator::new(config.clone());
    let params = CiaoParams::default();
    // SYRK reuses data (CIAO isolates and redirects); ATAX streams; KMN
    // exercises Best-SWL's warp limit.
    for b in [Benchmark::Syrk, Benchmark::Atax, Benchmark::Kmn] {
        let kernel: Arc<dyn Kernel> = Arc::new(b.kernel(&scale));
        for s in Sched::ALL {
            let unit = || s.build(b, &config, &params);
            let plain = run(
                &sim,
                std::slice::from_ref(&kernel),
                DispatchPolicy::Exclusive,
                1,
                &unit,
                false,
            );
            let traced =
                run(&sim, std::slice::from_ref(&kernel), DispatchPolicy::Exclusive, 1, &unit, true);
            assert_eq!(
                plain,
                traced,
                "{} x {}: the wrappers changed the simulation",
                b.name(),
                s.label()
            );
        }
    }
}

#[test]
fn wrapped_chip_co_runs_match_unwrapped() {
    let scale = ScaleConfig::tiny().with_seed(5);
    let config = tiny_config(4);
    let sim = Simulator::new(config.clone());
    let params = CiaoParams::default();
    let kernels = Mix::CacheStream.kernels(&scale);
    // Parked SMs replay idle cycles through `on_idle_cycles`; CCWS and CIAO
    // override it, and CIAO-C also routes to the redirect cache.
    for s in [Sched::Gto, Sched::Ccws, Sched::CiaoC] {
        for policy in [DispatchPolicy::SharedRoundRobin, DispatchPolicy::InterferenceAware] {
            let unit = || s.build(Benchmark::Syrk, &config, &params);
            let plain = run(&sim, &kernels, policy, 4, &unit, false);
            let traced = run(&sim, &kernels, policy, 4, &unit, true);
            assert_eq!(plain, traced, "{} under {}", s.label(), policy.label());
        }
    }
}

/// A wrapper that forgets to forward the provided `is_throttled`.
struct Forgetful(Box<dyn WarpScheduler>);

impl WarpScheduler for Forgetful {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn pick(&mut self, ctx: &SchedulerCtx<'_>) -> Option<usize> {
        self.0.pick(ctx)
    }

    fn on_issue(&mut self, wid: gpu_sim::WarpId, is_mem: bool, now: gpu_sim::Cycle) {
        self.0.on_issue(wid, is_mem, now);
    }

    fn on_warp_launched(&mut self, wid: gpu_sim::WarpId, now: gpu_sim::Cycle) {
        self.0.on_warp_launched(wid, now);
    }

    fn on_warp_finished(&mut self, wid: gpu_sim::WarpId, now: gpu_sim::Cycle) {
        self.0.on_warp_finished(wid, now);
    }

    fn metrics(&self) -> SchedulerMetrics {
        self.0.metrics()
    }
}

/// The digest comparison has teeth: a wrapper that drops one provided
/// method changes the simulated result.
#[test]
fn a_wrapper_that_drops_a_method_changes_the_digest() {
    let scale = ScaleConfig::tiny();
    let config = tiny_config(1);
    let sim = Simulator::new(config.clone());
    let params = CiaoParams::default();
    let kernel: Arc<dyn Kernel> = Arc::new(Benchmark::Atax.kernel(&scale));
    let build = || Sched::BestSwl.build(Benchmark::Atax, &config, &params);
    let forgetful = || {
        let (s, r) = build();
        (Box::new(Forgetful(s)) as Box<dyn WarpScheduler>, r)
    };
    let kernels = std::slice::from_ref(&kernel);
    let plain = run(&sim, kernels, DispatchPolicy::Exclusive, 1, &build, false);
    let broken = run(&sim, kernels, DispatchPolicy::Exclusive, 1, &forgetful, false);
    assert_ne!(plain, broken, "Best-SWL without is_throttled must simulate differently");
}
