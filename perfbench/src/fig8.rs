//! `fig8-sm1`: the paper's Fig. 8 matrix — all 21 Table II benchmarks under
//! all 7 warp schedulers on one SM with the Table I configuration, at Quick
//! scale (700 ops/warp, 40k-instruction budget).
//!
//! The SM step loop, the warp schedulers and the redirect cache do nearly
//! all the work here; the chip engine and the fleet do none.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use ciao_core::{CiaoParams, CiaoVariant};
use ciao_schedulers::{CcwsConfig, CcwsScheduler, PcalConfig, PcalScheduler, SwlScheduler};
use ciao_workloads::{Benchmark, ScaleConfig};
use gpu_sim::{DispatchPolicy, GpuConfig, GtoScheduler, Kernel, Simulator, SmUnit};

use crate::common::{self, ChipLayers, Fnv, Pass, PassCtx, SimCall};

/// Dynamic-instruction budget of one run (the Quick scale of `fig8`).
pub const MAX_INSTRUCTIONS: u64 = 40_000;

/// Cycle cap of one run. The longest run that finishes or spends its
/// instruction budget needs about 2.1M cycles on the Table I machine
/// (Best-SWL on BICG and MVT, seeds 0–9); the cap leaves 40% headroom and
/// bounds the throttling livelocks far below the configuration's default
/// 50M cycles.
pub const CYCLE_CAP: u64 = 3_000_000;

/// The warp schedulers of §V-A, in the order of Fig. 8's legend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sched {
    /// Greedy-then-oldest: the baseline every IPC is normalised to.
    Gto,
    /// Cache-conscious wavefront scheduling.
    Ccws,
    /// Best static wavefront limiting (profiled per benchmark).
    BestSwl,
    /// statPCAL-style bypassing.
    StatPcal,
    /// CIAO, selective throttling only.
    CiaoT,
    /// CIAO, shared-memory redirection only.
    CiaoP,
    /// CIAO, both mechanisms.
    CiaoC,
}

impl Sched {
    /// All seven.
    pub const ALL: [Sched; 7] = [
        Sched::Gto,
        Sched::Ccws,
        Sched::BestSwl,
        Sched::StatPcal,
        Sched::CiaoT,
        Sched::CiaoP,
        Sched::CiaoC,
    ];

    /// The paper's label.
    pub fn label(self) -> &'static str {
        match self {
            Sched::Gto => "GTO",
            Sched::Ccws => "CCWS",
            Sched::BestSwl => "Best-SWL",
            Sched::StatPcal => "statPCAL",
            Sched::CiaoT => "CIAO-T",
            Sched::CiaoP => "CIAO-P",
            Sched::CiaoC => "CIAO-C",
        }
    }

    /// Builds the scheduler (and, for CIAO-P/C, the redirect cache) for one
    /// SM running `benchmark`.
    pub fn build(self, benchmark: Benchmark, config: &GpuConfig, params: &CiaoParams) -> SmUnit {
        match self {
            Sched::Gto => (Box::new(GtoScheduler::new()), None),
            Sched::Ccws => {
                let config =
                    CcwsConfig { num_warps: config.max_warps_per_sm, ..CcwsConfig::default() };
                (Box::new(CcwsScheduler::new(config)), None)
            }
            Sched::BestSwl => (
                Box::new(SwlScheduler::new(benchmark.best_swl_warps(), config.max_warps_per_sm)),
                None,
            ),
            Sched::StatPcal => {
                let config = PcalConfig {
                    num_warps: config.max_warps_per_sm,
                    ..PcalConfig::with_tokens(benchmark.best_swl_warps())
                };
                (Box::new(PcalScheduler::new(config)), None)
            }
            Sched::CiaoT => CiaoVariant::ThrottleOnly.build(params, config),
            Sched::CiaoP => CiaoVariant::PartitionOnly.build(params, config),
            Sched::CiaoC => CiaoVariant::Combined.build(params, config),
        }
    }
}

/// The schedulers that stall whole warps (warp limiting and CIAO-T's
/// throttling) can livelock: the admitted warps wait on siblings that are
/// never admitted, and the run spins at ~0 IPC until the cycle cap (ROADMAP:
/// "Make Fig. 8 honest"). With seed 0 that is Best-SWL on KMN, Kmeans and II
/// and CIAO-T on II; other seeds add CIAO-T on PVC, SM or SS. Such a run is
/// named in every report but is not a failed operation; a run of any other
/// scheduler that stops at the cycle cap is.
pub fn may_livelock(s: Sched) -> bool {
    matches!(s, Sched::BestSwl | Sched::CiaoT)
}

/// The workload's inputs.
pub struct Fig8 {
    sim: Simulator,
    params: CiaoParams,
    /// (benchmark, scheduler, kernel) cells, the schedulers that may
    /// livelock first so the longest runs start first.
    cells: Vec<(Benchmark, Sched, Arc<dyn Kernel>)>,
}

impl Fig8 {
    /// Builds the 21 kernels for `seed` and the Table I configuration.
    pub fn setup(seed: u64) -> Self {
        let scale = ScaleConfig::quick().with_seed(seed);
        let mut config =
            GpuConfig::gtx480().with_max_instructions(MAX_INSTRUCTIONS).with_sample_interval(2_000);
        config.max_cycles = Some(CYCLE_CAP);
        let kernels: BTreeMap<&str, Arc<dyn Kernel>> = Benchmark::all()
            .into_iter()
            .map(|b| (b.name(), Arc::new(b.kernel(&scale)) as Arc<dyn Kernel>))
            .collect();
        let mut cells: Vec<(Benchmark, Sched, Arc<dyn Kernel>)> = Benchmark::all()
            .into_iter()
            .flat_map(|b| Sched::ALL.map(|s| (b, s, Arc::clone(&kernels[b.name()]))))
            .collect();
        cells.sort_by_key(|(_, s, _)| !may_livelock(*s));
        Fig8 { sim: Simulator::new(config), params: CiaoParams::default(), cells }
    }

    /// Runs the whole matrix once.
    pub fn pass(&self, ctx: &PassCtx) -> Pass {
        let start = Instant::now();
        let config = self.sim.config();
        let outcomes = common::par_map(
            &self.cells,
            &ctx.order(self.cells.len()),
            ctx.threads,
            |i, (b, s, kernel)| {
                let unit = || s.build(*b, config, &self.params);
                let call = SimCall {
                    kernels: std::slice::from_ref(kernel),
                    policy: DispatchPolicy::Exclusive,
                    num_sms: 1,
                    unit: &unit,
                };
                let t0 = Instant::now();
                let out = common::execute(&self.sim, &call, ctx.traced());
                ctx.span("execute", t0, Instant::now(), i);
                out
            },
        );
        let wall_s = start.elapsed().as_secs_f64();

        let mut pass = Pass { wall_s, ..Pass::default() };
        let mut digest = Fnv::default();
        let mut layers = ChipLayers::default();
        let mut ipc: BTreeMap<(&str, &str), f64> = BTreeMap::new();
        let mut longest_finished = 0u64;
        for ((b, s, _), (res, timing, probed)) in self.cells.iter().zip(&outcomes) {
            let label = format!("{} x {}", b.name(), s.label());
            let cycle_capped = res.capped && res.stats.instructions < MAX_INSTRUCTIONS;
            let known_livelock = cycle_capped && may_livelock(*s);
            let failure = common::check_tenant_sums(res).or_else(|| {
                (cycle_capped && !known_livelock).then(|| {
                    let insts = res.stats.instructions;
                    format!("stopped at the {CYCLE_CAP}-cycle cap after {insts} instructions")
                })
            });
            if !cycle_capped {
                longest_finished = longest_finished.max(res.cycles);
            }
            digest.write(common::result_json(res).as_bytes());
            digest.write(b"\n");
            ipc.insert((b.name(), s.label()), res.ipc());
            layers.add(
                res,
                timing.host_s,
                probed.as_ref(),
                &[format!("sched.{}.host_s", s.label())],
            );
            pass.calls.push(common::Call {
                label,
                timing: *timing,
                failure,
                known_livelock,
                instructions: res.stats.instructions,
                sm_cycles: res.cycles * res.num_sms as u64,
            });
        }
        pass.digest = digest.finish();

        let ratio = |num: &str, den: &str| {
            let ratios: Vec<f64> = Benchmark::memory_intensive()
                .into_iter()
                .map(|b| ipc[&(b.name(), num)] / ipc[&(b.name(), den)])
                .collect();
            common::geomean(&ratios)
        };
        let vs_gto = ratio("CIAO-C", "GTO");
        pass.model = vec![
            ("ciao_c_vs_gto", vs_gto),
            ("ciao_c_vs_ccws", ratio("CIAO-C", "CCWS")),
            ("longest_finished_kcycles", longest_finished as f64 / 1e3),
        ];
        pass.model_gain = vs_gto;
        if ctx.traced() {
            layers.emit(&mut pass.layers);
        }
        pass
    }
}
