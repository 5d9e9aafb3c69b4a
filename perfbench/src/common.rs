//! What every workload shares: the pass record, the worker pool, call
//! timing against the host-speed reference loop, the chip-tier `execute`
//! call with its optional probes, the chip-tier per-layer accumulator, the
//! output digest and a few statistics.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use gpu_sim::{
    DispatchPolicy, Kernel, ObsLevel, ObsReport, SimRequest, SimResult, Simulator, SmUnit,
};

use crate::layers::{self, LayerTotals, Spans};

/// How one pass runs: on how many workers, in which order, and whether it
/// is traced.
pub struct PassCtx<'a> {
    /// Worker threads the pass spreads its `execute` calls over.
    pub threads: usize,
    /// Host seconds each call took in an earlier pass, in the workload's
    /// call order. Calls start longest first (LPT order), so the workers
    /// finish together and the pass wall time does not hinge on which call
    /// happened to start last.
    pub hint: Option<&'a [f64]>,
    /// The span recorder and the pass's own span, in the traced run.
    pub trace: Option<(&'a Spans, usize)>,
}

impl PassCtx<'_> {
    /// The order to start `n` calls in: longest first by the hint, else the
    /// workload's own order.
    pub fn order(&self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        if let Some(hint) = self.hint.filter(|h| h.len() == n) {
            order.sort_by(|&a, &b| hint[b].total_cmp(&hint[a]).then(a.cmp(&b)));
        }
        order
    }

    /// Whether the layer probes are armed.
    pub fn traced(&self) -> bool {
        self.trace.is_some()
    }

    /// Records an `execute` span for simulation `sim` of this pass.
    pub fn span(&self, name: &str, start: Instant, end: Instant, sim: usize) {
        if let Some((spans, pass)) = self.trace {
            spans.record(name, start, end, Some(pass), Some(sim));
        }
    }
}

/// One `execute` call of a pass.
#[derive(Debug, Clone)]
pub struct Call {
    /// What was simulated, e.g. `KMN x Best-SWL` or `quad/shared-rr`.
    pub label: String,
    /// Host time of the call.
    pub timing: Timing,
    /// Why the call failed, if it did (a check on its output, or a stop at
    /// the cycle cap).
    pub failure: Option<String>,
    /// The call stopped at the cycle cap as a known livelock does: named in
    /// the report, but not counted as a failed operation.
    pub known_livelock: bool,
    /// Simulated warp-instructions (for the fleet: modelled instructions of
    /// the completed jobs).
    pub instructions: u64,
    /// Simulated SM-cycles: cycles × SMs (for the fleet: makespan × chips ×
    /// SMs per chip).
    pub sm_cycles: u64,
}

/// Everything one pass over a workload produced.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Host seconds for the whole pass.
    pub wall_s: f64,
    /// The `execute` calls, in the workload's fixed order.
    pub calls: Vec<Call>,
    /// Checks made across calls (each one an operation).
    pub checks: u64,
    /// The cross-call checks that failed.
    pub check_failures: Vec<String>,
    /// FNV-1a digest of every simulated result of the pass.
    pub digest: u64,
    /// The workload's named modelled figures (simulated, deterministic).
    pub model: Vec<(&'static str, f64)>,
    /// The workload's headline modelled ratio: the interference-aware
    /// design over its baseline (higher is better).
    pub model_gain: f64,
    /// Per-layer metrics, by the names `BENCHMARK.json` declares.
    pub layers: BTreeMap<String, f64>,
}

impl Pass {
    /// Operations attempted: every `execute` call plus every cross-call check.
    pub fn attempted(&self) -> u64 {
        self.calls.len() as u64 + self.checks
    }

    /// How much faster than measured the pass would have run on the
    /// nominal host: adjusted over raw host time, summed over its calls.
    pub fn speed_factor(&self) -> f64 {
        let raw: f64 = self.calls.iter().map(|c| c.timing.host_s).sum();
        let adjusted: f64 = self.calls.iter().map(|c| c.timing.adjusted_s()).sum();
        if raw > 0.0 {
            adjusted / raw
        } else {
            1.0
        }
    }

    /// Operations that failed.
    pub fn failed(&self) -> u64 {
        self.calls.iter().filter(|c| c.failure.is_some()).count() as u64
            + self.check_failures.len() as u64
    }
}

/// Runs `f` on every item across `threads` workers, starting them in
/// `order`, and returns the outputs in item order.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    order: &[usize],
    threads: usize,
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..threads.clamp(1, items.len().max(1)) {
            scope.spawn(|| {
                while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let r = f(i, &items[i]);
                    out.lock().expect("a worker panicked while storing")[i] = Some(r);
                }
            });
        }
    });
    out.into_inner()
        .expect("a worker panicked while storing")
        .into_iter()
        .map(|r| r.expect("every item ran"))
        .collect()
}

/// A chip-tier request: kernel streams (all arriving at cycle 0), a
/// dispatch policy and an SM count. One stream on one SM under `Exclusive`
/// is the paper's single-SM configuration.
pub struct SimCall<'a> {
    /// The streams, in tenant order.
    pub kernels: &'a [Arc<dyn Kernel>],
    /// CTA dispatch policy.
    pub policy: DispatchPolicy,
    /// SMs simulated.
    pub num_sms: usize,
    /// Builds one SM's scheduler and redirect cache.
    pub unit: &'a (dyn Fn() -> SmUnit + Sync),
}

/// Host time of one call, with the host's speed around it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timing {
    /// Host seconds the call took.
    pub host_s: f64,
    /// Mean host seconds of the reference loop just before and just after
    /// the call, on the same thread.
    pub ref_s: f64,
}

impl Timing {
    /// The call's host seconds on a host where the reference loop takes
    /// [`REF_NOMINAL_S`]. A shared virtual machine's speed swings by up to
    /// 2× over minutes (measured on a 2-vCPU Xeon VM); the reference loop,
    /// timed next to the call, factors that out. No change to the
    /// simulator moves it.
    pub fn adjusted_s(&self) -> f64 {
        self.host_s * REF_NOMINAL_S / self.ref_s
    }
}

/// The reference loop's typical time on a 2-vCPU Xeon (2.1 GHz) VM.
pub const REF_NOMINAL_S: f64 = 0.0006;

/// Runs `f`, timing it between two runs of the reference loop.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Timing) {
    let before = reference_loop();
    let start = Instant::now();
    let out = f();
    let host_s = start.elapsed().as_secs_f64();
    let after = reference_loop();
    (out, Timing { host_s, ref_s: (before + after) / 2.0 })
}

/// A fixed job whose speed tracks the host's: xorshift indices into a
/// 1 MiB table, read-modify-write with a data-dependent branch — irregular
/// work like the simulator's own. The accesses are independent, so a run
/// barely depends on what the previous call left in cache, and the
/// per-thread table is filled when it is created, so no run pays for page
/// faults. It uses none of the repository's code. Returns its host seconds.
pub fn reference_loop() -> f64 {
    const SLOTS: usize = 1 << 18;
    const STEPS: usize = 100_000;
    thread_local! {
        static TABLE: std::cell::RefCell<Vec<u32>> = std::cell::RefCell::new(vec![1; SLOTS]);
    }
    TABLE.with(|table| {
        let mut table = table.borrow_mut();
        let start = Instant::now();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut acc = 0u32;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & (SLOTS - 1);
            let v = table[i];
            acc = if v & 1 == 0 { acc.wrapping_add(v) } else { acc ^ v.rotate_left(5) };
            table[i] = v.wrapping_add(acc | 1);
        }
        std::hint::black_box(acc);
        start.elapsed().as_secs_f64()
    })
}

/// What the probes saw during one traced `execute` call.
pub struct Probed {
    /// Wrapper totals.
    pub layers: LayerTotals,
    /// The engine's own observability report at `ObsLevel::Metrics`.
    pub report: ObsReport,
}

/// Runs one chip-tier request through `Simulator::execute` — or, traced,
/// through `execute_observed` at `ObsLevel::Metrics` with every trait object
/// wrapped — and returns the result, its timing and, traced, what the
/// probes saw.
pub fn execute(
    sim: &Simulator,
    call: &SimCall,
    traced: bool,
) -> (SimResult, Timing, Option<Probed>) {
    let sink = layers::sink();
    let mut req = SimRequest::new().policy(call.policy).num_sms(call.num_sms);
    for k in call.kernels {
        let k = if traced { layers::wrap_kernel(Arc::clone(k), &sink) } else { Arc::clone(k) };
        req = req.stream(k);
    }
    if traced {
        let ((res, report), timing) = timed(|| {
            sim.execute_observed(req.obs(ObsLevel::Metrics), |_| {
                layers::wrap_unit((call.unit)(), &sink)
            })
        });
        (res, timing, Some(Probed { layers: layers::totals(&sink), report }))
    } else {
        let (res, timing) = timed(|| sim.execute(req, |_| (call.unit)()));
        (res, timing, None)
    }
}

/// Output checks every chip-tier result must pass: per-tenant instructions
/// and L2 accesses sum to the chip totals. Returns the first violation.
pub fn check_tenant_sums(res: &SimResult) -> Option<String> {
    let insts: u64 = res.per_tenant.iter().map(|t| t.instructions).sum();
    if insts != res.stats.instructions {
        return Some(format!("tenant instructions {insts} != chip {}", res.stats.instructions));
    }
    let l2: u64 = res.per_tenant.iter().map(|t| t.mem.l2_accesses).sum();
    if l2 != res.stats.l2.accesses() {
        return Some(format!("tenant L2 accesses {l2} != chip {}", res.stats.l2.accesses()));
    }
    None
}

/// Chip-tier per-layer totals over a pass. The `mem.*` counts are exact
/// modelled figures; everything else is host time or engine counters.
#[derive(Debug, Default)]
pub struct ChipLayers {
    probes: LayerTotals,
    execute_s: f64,
    phases: BTreeMap<&'static str, f64>,
    skipped_boundaries: u64,
    sleeps: u64,
    idle_cycles: u64,
    sm_cycles: u64,
    l1d: (u64, u64),
    l2: (u64, u64),
    dram_accesses: u64,
    fabric_queue_cycles: u64,
    throttle_only_cycles: u64,
    host_s: BTreeMap<String, f64>,
}

impl ChipLayers {
    /// Folds one call into the totals; `groups` name the per-layer host-time
    /// metrics the call's host seconds count towards.
    pub fn add(
        &mut self,
        res: &SimResult,
        host_s: f64,
        probed: Option<&Probed>,
        groups: &[String],
    ) {
        for group in groups {
            *self.host_s.entry(group.clone()).or_default() += host_s;
        }
        for sm in &res.per_sm {
            self.idle_cycles += sm.idle_cycles;
            self.sm_cycles += sm.cycles;
            self.throttle_only_cycles += sm.throttle_only_cycles;
        }
        self.l1d.0 += res.stats.l1d.accesses();
        self.l1d.1 += res.stats.l1d.hits();
        self.l2.0 += res.stats.l2.accesses();
        self.l2.1 += res.stats.l2.hits();
        self.dram_accesses += res.stats.dram.accesses;
        self.fabric_queue_cycles +=
            res.fabric.request.queueing_cycles + res.fabric.reply.queueing_cycles;
        if let Some(p) = probed {
            self.probes.add(&p.layers);
            self.execute_s += host_s;
            for (name, stat) in p.report.profile.rows() {
                *self.phases.entry(name).or_default() += stat.self_time.as_secs_f64();
            }
            self.skipped_boundaries += p.report.metrics.counter("engine/skipped-boundaries", None);
            self.sleeps += p.report.metrics.counter("engine/sleeps", None);
        }
    }

    /// Writes the per-layer metrics.
    pub fn emit(&self, out: &mut BTreeMap<String, f64>) {
        let p = &self.probes;
        let frac = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
        out.insert("sched.pick_calls".into(), p.pick_calls as f64);
        out.insert("sched.pick_s".into(), p.pick_time.as_secs_f64());
        out.insert("sched.pick_none_frac".into(), frac(p.pick_none, p.pick_calls));
        out.insert("sched.hooks_s".into(), p.hook_time.as_secs_f64());
        out.insert("sched.idle_replay_cycles".into(), p.idle_replay_cycles as f64);
        out.insert("redirect.lookup_calls".into(), p.redirect_lookups as f64);
        out.insert("redirect.hit_frac".into(), frac(p.redirect_hits, p.redirect_lookups));
        out.insert("redirect.s".into(), p.redirect_time.as_secs_f64());
        out.insert("workloads.build_s".into(), p.build_time.as_secs_f64());
        out.insert("workloads.next_op_calls".into(), p.next_op_calls as f64);
        out.insert("workloads.next_op_s".into(), p.next_op_time.as_secs_f64());
        out.insert(
            "engine.self_s".into(),
            (self.execute_s - p.wrapped_time().as_secs_f64()).max(0.0),
        );
        for (phase, s) in &self.phases {
            out.insert(format!("engine.phase.{phase}_s"), *s);
        }
        out.insert("engine.skipped_boundaries".into(), self.skipped_boundaries as f64);
        out.insert("engine.sleeps".into(), self.sleeps as f64);
        out.insert("engine.idle_cycles_frac".into(), frac(self.idle_cycles, self.sm_cycles));
        out.insert("mem.l1d_hit_frac".into(), frac(self.l1d.1, self.l1d.0));
        out.insert("mem.l2_hit_frac".into(), frac(self.l2.1, self.l2.0));
        out.insert("mem.dram_accesses".into(), self.dram_accesses as f64);
        out.insert("mem.fabric_queue_cycles".into(), self.fabric_queue_cycles as f64);
        out.insert("mem.throttle_only_cycles".into(), self.throttle_only_cycles as f64);
        for (group, s) in &self.host_s {
            out.insert(group.clone(), *s);
        }
    }
}

/// 64-bit FNV-1a, the digest of simulated outputs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes `bytes` in.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// A `SimResult` as JSON with the timing-backend label removed, so the
/// digest covers simulated statistics only and stays valid whether or not
/// the result carries a backend label at all.
pub fn result_json(res: &SimResult) -> String {
    let json = serde_json::to_string(res).expect("SimResult serialises");
    strip_key(&json, "backend")
}

/// Removes the first `"key":"<string>"` member (and one adjacent comma) from
/// compact JSON.
fn strip_key(json: &str, key: &str) -> String {
    let pat = format!("\"{key}\":\"");
    let Some(start) = json.find(&pat) else { return json.to_string() };
    let value = start + pat.len();
    let Some(close) = json[value..].find('"') else { return json.to_string() };
    let mut end = value + close + 1;
    let mut start = start;
    if json[end..].starts_with(',') {
        end += 1;
    } else if json[..start].ends_with(',') {
        start -= 1;
    }
    format!("{}{}", &json[..start], &json[end..])
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` of `values`; 0 for none.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Geometric mean; 0 when any value is not positive.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_key_removes_the_member_and_one_comma() {
        assert_eq!(strip_key(r#"{"a":1,"backend":"event","b":2}"#, "backend"), r#"{"a":1,"b":2}"#);
        assert_eq!(strip_key(r#"{"a":1,"backend":"epoch"}"#, "backend"), r#"{"a":1}"#);
        assert_eq!(strip_key(r#"{"a":1}"#, "backend"), r#"{"a":1}"#);
    }

    #[test]
    fn quantiles_and_means() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
    }

    #[test]
    fn par_map_keeps_item_order() {
        let items: Vec<u64> = (0..50).collect();
        let order: Vec<usize> = (0..50).rev().collect();
        let out = par_map(&items, &order, 3, |i, &x| (i as u64, x * 2));
        assert!(out.iter().enumerate().all(|(i, &(j, y))| j == i as u64 && y == 2 * i as u64));
    }

    #[test]
    fn hinted_order_is_longest_first() {
        let hint = [1.0, 3.0, 2.0, 3.0];
        let ctx = PassCtx { threads: 2, hint: Some(&hint), trace: None };
        assert_eq!(ctx.order(4), vec![1, 3, 2, 0]);
        assert_eq!(ctx.order(3), vec![0, 1, 2], "a hint of the wrong length is ignored");
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        let mut h = Fnv::default();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
