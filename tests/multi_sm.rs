//! Multi-SM chip-engine invariants.
//!
//! The contract of the `gpu_sim::gpu` engine, checked end to end:
//!
//! 1. a 1-SM chip run is *bit-identical* to the bare SM it wraps stepped
//!    every cycle, under every warp scheduler,
//! 2. adding SMs never lowers chip IPC on a cache-light workload,
//! 3. the shared L2 sees exactly the downstream traffic the per-SM L1s
//!    produced,
//! 4. the CTA dispatcher assigns every block exactly once for arbitrary
//!    (blocks, SMs) shapes,
//! 5. a full 15-SM harness run is deterministic across repeats.

use std::sync::Arc;

use ciao_suite::harness::runner::{RunScale, Runner};
use ciao_suite::harness::schedulers::SchedulerKind;
use ciao_suite::sim::kernel::{ClosureKernel, KernelInfo};
use ciao_suite::sim::trace::{VecProgram, WarpOp};
use ciao_suite::sim::{
    dispatch_round_robin, BackendKind, GpuConfig, GtoScheduler, Kernel, SimRequest, Simulator,
};
use ciao_suite::workloads::Benchmark;
use proptest::prelude::*;

/// A cache-light kernel: every warp streams its own distinct blocks (no
/// reuse, no sharing), so per-SM throughput does not depend on cache capacity
/// and blocks split across SMs cannot slow each other down through the L1.
fn cache_light_kernel(
    ctas: usize,
    ops_per_warp: usize,
) -> ClosureKernel<impl Fn(u32, usize) -> Box<dyn ciao_suite::sim::WarpProgram> + Send + Sync> {
    let info = KernelInfo {
        name: "cache-light".into(),
        num_ctas: ctas,
        warps_per_cta: 2,
        shared_mem_per_cta: 0,
    };
    ClosureKernel::new(info, move |cta, w| {
        let mut ops = Vec::with_capacity(ops_per_warp * 2);
        for i in 0..ops_per_warp {
            // Globally unique block per (cta, warp, i): no reuse anywhere.
            let block =
                (cta as u64 * 64 + w as u64 * 32 + i as u64 % 32) * 128 + (cta as u64) * (1 << 20);
            ops.push(WarpOp::coalesced_load(block));
            ops.push(WarpOp::alu());
        }
        Box::new(VecProgram::new(ops))
    })
}

#[test]
fn one_sm_chip_is_bit_identical_to_a_bare_sm() {
    // Every scheduler: GTO takes the plain L1D path, CIAO-P/C the redirect
    // cache, and Best-SWL, CCWS, statPCAL and CIAO-T throttle. Kmeans and
    // Backprop add barriers to Syrk's plain loads.
    let benchmarks = [Benchmark::Syrk, Benchmark::Kmeans, Benchmark::Backprop];
    for (scheduler, benchmark) in
        SchedulerKind::all().into_iter().flat_map(|s| benchmarks.map(|b| (s, b)))
    {
        let config = GpuConfig::gtx480()
            .with_num_sms(1)
            .with_max_instructions(RunScale::Tiny.max_instructions())
            .with_sample_interval(RunScale::Tiny.sample_interval());
        let params = ciao_suite::ciao::CiaoParams::default();
        let scale = RunScale::Tiny.workload_scale();
        let run = |backend: BackendKind| {
            let kernel: Arc<dyn Kernel> = Arc::new(benchmark.kernel(&scale));
            Simulator::new(config.clone())
                .execute(SimRequest::kernel(kernel).backend(backend), |_| {
                    scheduler.build(benchmark, &config, &params)
                })
        };

        // The bare SM: stepping mode advances it every cycle against its
        // private partition. The event-mode chip must add nothing to it.
        let bare = run(BackendKind::Epoch);
        let chip = run(BackendKind::Event);

        assert_eq!(chip.num_sms, 1);
        assert_eq!(chip.per_sm.len(), 1);
        assert_eq!(chip.per_sm[0], chip.stats);
        let on = format!("{scheduler:?} on {}", benchmark.name());
        assert_eq!(chip.stats, bare.stats, "aggregate stats differ: {on}");
        assert_eq!(chip.cycles, bare.cycles, "cycle counts differ: {on}");
        assert_eq!(chip.time_series, bare.time_series, "time series differ: {on}");
        assert_eq!(chip.interference, bare.interference, "interference differs: {on}");
        assert_eq!(chip.scheduler_metrics, bare.scheduler_metrics, "metrics differ: {on}");
        assert_eq!(chip.capped, bare.capped, "capped flags differ: {on}");
        assert_eq!(chip.interconnect, bare.interconnect, "interconnect differs: {on}");
    }
}

#[test]
fn chip_ipc_is_monotone_from_one_to_two_sms() {
    let ipc_with_sms = |sms: usize| {
        let config = GpuConfig::gtx480().with_num_sms(sms);
        let sim = Simulator::new(config);
        let kernel: Arc<dyn Kernel> = Arc::new(cache_light_kernel(8, 40));
        let res =
            sim.execute(SimRequest::kernel(kernel), |_| (Box::new(GtoScheduler::new()) as _, None));
        assert!(!res.capped);
        // Same total work regardless of the SM count.
        assert_eq!(res.stats.instructions, 8 * 2 * 40 * 2);
        res.ipc()
    };
    let one = ipc_with_sms(1);
    let two = ipc_with_sms(2);
    assert!(
        two >= one,
        "chip IPC must not decrease when adding an SM to a cache-light workload \
         (1 SM: {one:.4}, 2 SMs: {two:.4})"
    );
}

#[test]
fn shared_l2_accesses_equal_sum_of_per_sm_l1_misses() {
    // Loads only (no write-through traffic), globally unique blocks (no MSHR
    // merges, no bypass): every L1 miss produces exactly one shared-L2
    // access and nothing else does.
    let config = GpuConfig::gtx480().with_num_sms(2);
    let sim = Simulator::new(config);
    let kernel: Arc<dyn Kernel> = Arc::new(cache_light_kernel(6, 30));
    let res =
        sim.execute(SimRequest::kernel(kernel), |_| (Box::new(GtoScheduler::new()) as _, None));
    assert!(!res.capped);
    let l1_misses: u64 = res.per_sm.iter().map(|s| s.l1d.misses()).sum();
    assert!(l1_misses > 0, "workload should miss in the L1");
    assert_eq!(
        res.stats.l2.accesses(),
        l1_misses,
        "shared-L2 access counter must equal the sum of per-SM L1 miss counters"
    );
    // Per-SM records carry no L2 numbers of their own — the L2 is shared.
    assert!(res.per_sm.iter().all(|s| s.l2.accesses() == 0));
}

#[test]
fn fifteen_sm_harness_run_is_deterministic() {
    let runner = Runner::new(RunScale::Tiny).with_sms(15);
    let a = runner.run_one(Benchmark::Backprop, SchedulerKind::CiaoC);
    let b = runner.run_one(Benchmark::Backprop, SchedulerKind::CiaoC);
    assert_eq!(a.num_sms, 15);
    assert_eq!(a.per_sm.len(), 15);
    assert!(a.stats.instructions > 0);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.per_sm, b.per_sm);
    assert_eq!(a.time_series, b.time_series);
    assert_eq!(a.interference, b.interference);
}

proptest! {
    /// The CTA dispatcher assigns every block exactly once, whatever the
    /// (blocks, SMs) shape.
    #[test]
    fn dispatcher_assigns_every_block_exactly_once(blocks in 0usize..2000, sms in 1usize..64) {
        let lists = dispatch_round_robin(blocks, sms);
        prop_assert_eq!(lists.len(), sms);
        let mut count = vec![0usize; blocks];
        for list in &lists {
            for &b in list {
                prop_assert!(b < blocks);
                count[b] += 1;
            }
        }
        prop_assert!(count.iter().all(|&c| c == 1), "every block dispatched exactly once");
        // Round-robin balance: SM loads differ by at most one block.
        let (min, max) = (
            lists.iter().map(Vec::len).min().unwrap_or(0),
            lists.iter().map(Vec::len).max().unwrap_or(0),
        );
        prop_assert!(max - min <= 1);
    }
}
