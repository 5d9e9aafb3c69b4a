//! `chip15-mix`: the five named multi-tenant mixes co-run on the Table I
//! 15-SM chip under shared round-robin and interference-aware dispatch, GTO
//! warp scheduling, plus the solo runs STP and ANTT need. Kernels run at
//! 12,000 ops/warp, well above Full size, to completion.
//!
//! Here the event core, the adaptive dispatcher and the shared banked
//! L2/DRAM and fabric carry the load: SMs park and idle-skip instead of
//! stepping densely, and the mixes span L2-hit-bound (cache-cache) to
//! DRAM-bound (stream-stream) traffic.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use ciao_workloads::{Benchmark, Mix, ScaleConfig};
use gpu_sim::{
    avg_normalized_turnaround, system_throughput, DispatchPolicy, GpuConfig, GtoScheduler, Kernel,
    SimResult, Simulator, SmUnit,
};

use crate::common::{self, ChipLayers, Fnv, Pass, PassCtx, SimCall};

/// Dynamic operations per warp.
pub const OPS_PER_WARP: usize = 12_000;

/// How far above the tenant count a co-run's STP may read.
const STP_TOLERANCE: f64 = 1.01;

/// The co-run dispatch policies compared.
pub const POLICIES: [DispatchPolicy; 2] =
    [DispatchPolicy::SharedRoundRobin, DispatchPolicy::InterferenceAware];

enum Cell {
    Solo(Benchmark, Arc<dyn Kernel>),
    CoRun(Mix, DispatchPolicy, Vec<Arc<dyn Kernel>>),
}

/// The workload's inputs.
pub struct Chip15 {
    sim: Simulator,
    cells: Vec<Cell>,
}

fn gto() -> SmUnit {
    (Box::new(GtoScheduler::new()), None)
}

impl Chip15 {
    /// Builds every mix's kernels (tenant `t` shifted into its own address
    /// space) and the solo kernels for `seed`.
    pub fn setup(seed: u64) -> Self {
        let scale = ScaleConfig { ops_per_warp: OPS_PER_WARP, footprint_scale: 1.0, seed };
        let mut cells = Vec::new();
        for mix in Mix::all() {
            for policy in POLICIES {
                cells.push(Cell::CoRun(mix, policy, mix.kernels(&scale)));
            }
        }
        let mut solos: Vec<Benchmark> = Mix::all().iter().flat_map(|m| m.benchmarks()).collect();
        solos.sort_by_key(|b| b.name());
        solos.dedup();
        for b in solos {
            cells.push(Cell::Solo(b, Arc::new(b.kernel(&scale))));
        }
        Chip15 { sim: Simulator::new(GpuConfig::gtx480()), cells }
    }

    /// Runs every co-run and solo run once.
    pub fn pass(&self, ctx: &PassCtx) -> Pass {
        let start = Instant::now();
        let sms = self.sim.config().num_sms;
        let outcomes =
            common::par_map(&self.cells, &ctx.order(self.cells.len()), ctx.threads, |i, cell| {
                let (kernels, policy) = match cell {
                    Cell::Solo(_, k) => (std::slice::from_ref(k), DispatchPolicy::Exclusive),
                    Cell::CoRun(_, policy, ks) => (ks.as_slice(), *policy),
                };
                let call = SimCall { kernels, policy, num_sms: sms, unit: &gto };
                let t0 = Instant::now();
                let out = common::execute(&self.sim, &call, ctx.traced());
                ctx.span("execute", t0, Instant::now(), i);
                out
            });
        let wall_s = start.elapsed().as_secs_f64();

        let mut pass = Pass { wall_s, ..Pass::default() };
        let mut digest = Fnv::default();
        let mut layers = ChipLayers::default();
        let mut alone: BTreeMap<&str, f64> = BTreeMap::new();
        for (cell, (res, timing, probed)) in self.cells.iter().zip(&outcomes) {
            let (label, group) = match cell {
                Cell::Solo(b, _) => {
                    alone.insert(b.name(), res.per_tenant[0].ipc());
                    (format!("{} solo", b.name()), "chip.solo.host_s".to_string())
                }
                Cell::CoRun(mix, policy, _) => (
                    format!("{}/{}", mix.name(), policy.label()),
                    format!("chip.{}.{}.host_s", mix.name(), policy.label()),
                ),
            };
            let failure = common::check_tenant_sums(res)
                .or_else(|| res.capped.then(|| "stopped at the cycle cap".to_string()));
            digest.write(common::result_json(res).as_bytes());
            digest.write(b"\n");
            layers.add(res, timing.host_s, probed.as_ref(), &[group, "sched.GTO.host_s".into()]);
            pass.calls.push(common::Call {
                label,
                timing: *timing,
                failure,
                known_livelock: false,
                instructions: res.stats.instructions,
                sm_cycles: res.cycles * res.num_sms as u64,
            });
        }
        pass.digest = digest.finish();

        // STP and ANTT per co-run, against the solo IPCs on the same chip.
        let mut stp: BTreeMap<(&str, &str), f64> = BTreeMap::new();
        let mut antt: BTreeMap<(&str, &str), f64> = BTreeMap::new();
        for (cell, (res, _, _)) in self.cells.iter().zip(&outcomes) {
            let Cell::CoRun(mix, policy, _) = cell else { continue };
            let (s, a) = stp_antt(*mix, res, &alone);
            pass.checks += 1;
            // A tenant that barely interacts can finish a hair faster than
            // alone (STP 2.00006 on cache-cache with seed 2); aliased
            // address spaces would push STP far above the tenant count.
            let tenants = res.per_tenant.len() as f64;
            if !(s > 0.0 && s <= tenants * STP_TOLERANCE && a > 0.0 && a.is_finite()) {
                pass.check_failures.push(format!(
                    "{}/{}: STP {s} outside (0, {tenants} x {STP_TOLERANCE}] or ANTT {a} not positive and finite",
                    mix.name(),
                    policy.label(),
                ));
            }
            stp.insert((mix.name(), policy.label()), s);
            antt.insert((mix.name(), policy.label()), a);
        }
        let ia = DispatchPolicy::InterferenceAware.label();
        let rr = DispatchPolicy::SharedRoundRobin.label();
        let over = |m: &BTreeMap<(&str, &str), f64>, policy: &str| {
            common::geomean(
                &Mix::all().iter().map(|mix| m[&(mix.name(), policy)]).collect::<Vec<_>>(),
            )
        };
        let gain: Vec<f64> =
            Mix::all().iter().map(|m| stp[&(m.name(), ia)] / stp[&(m.name(), rr)]).collect();
        pass.model = vec![
            ("stp_ia", over(&stp, ia)),
            ("antt_ia", over(&antt, ia)),
            ("stp_shared_rr", over(&stp, rr)),
            ("antt_shared_rr", over(&antt, rr)),
        ];
        pass.model_gain = common::geomean(&gain);
        if ctx.traced() {
            layers.emit(&mut pass.layers);
        }
        pass
    }
}

/// STP and ANTT of one co-run against the tenants' solo IPCs.
fn stp_antt(mix: Mix, res: &SimResult, alone: &BTreeMap<&str, f64>) -> (f64, f64) {
    let alone: Vec<f64> = mix.benchmarks().iter().map(|b| alone[b.name()]).collect();
    let shared = res.tenant_ipcs();
    (system_throughput(&alone, &shared), avg_normalized_turnaround(&alone, &shared))
}
