//! Heap-allocation budgets of the chip engine's and the fleet's steady
//! states.
//!
//! Almost every cycle a co-run steps issues an instruction, so anything the
//! SM issue path or the epoch boundary allocates is paid millions of times
//! per run. This test installs a global allocator that counts allocations
//! per thread and runs the 15-SM `cache-stream` and `stream-stream` co-runs
//! with GTO under shared round-robin and under interference-aware dispatch:
//! `Simulator::execute` must make fewer than one allocation per ten issued
//! instructions, set-up included.
//!
//! What remains is set-up (the dispatch plan, each warp's program, the
//! result), each CTA launch's bookkeeping, and about one allocation per
//! busy epoch boundary: the scratch buffer of the stable sort that orders
//! the request reorder window, and buffers growing to a new high-water
//! mark. Interference-aware dispatch adds the decision-log entry of each
//! closed monitor window.
//!
//! The fleet's per-arrival path (placement, admission, classification,
//! completion) allocates nothing either: `Fleet::execute` must make fewer
//! than one allocation per fifty arrivals, under both placements. What
//! remains there is the traffic stream, the chip queues growing to a new
//! high-water mark, and the reports.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ciao_suite::fleet::{Calibration, Fleet, FleetRequest, PlacementPolicy, TrafficSpec};
use ciao_suite::sim::{DispatchPolicy, GpuConfig, GtoScheduler, SimRequest, Simulator, SmUnit};
use ciao_suite::workloads::{Mix, ScaleConfig};

/// Forwards to the system allocator, counting the calling thread's
/// allocations (`alloc`, `alloc_zeroed` and `realloc`).
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell`, so counting neither allocates nor re-enters.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn gto(_sm: usize) -> SmUnit {
    (Box::new(GtoScheduler::new()), None)
}

/// Runs the 15-SM `cache-stream` and `stream-stream` co-runs under `policy`
/// with GTO and requires fewer than one allocation per ten instructions.
fn assert_co_runs_allocate_less_than_once_per_ten_instructions(policy: DispatchPolicy) {
    let sim = Simulator::new(GpuConfig::gtx480().with_num_sms(15));
    let scale = ScaleConfig { ops_per_warp: 600, footprint_scale: 1.0, seed: 0 };
    for mix in [Mix::CacheStream, Mix::StreamStream] {
        let request = mix
            .kernels(&scale)
            .into_iter()
            .fold(SimRequest::new(), SimRequest::stream)
            .policy(policy);
        let before = allocations();
        let result = sim.execute(request, gto);
        let made = allocations() - before;
        let instructions = result.stats.instructions;
        assert!(!result.capped, "{} under {policy}: the co-run must finish", mix.name());
        assert!(
            made * 10 < instructions,
            "{} under {policy}: {made} allocations over {instructions} instructions \
             ({:.3} per instruction)",
            mix.name(),
            made as f64 / instructions as f64,
        );
    }
}

#[test]
fn fifteen_sm_co_runs_allocate_less_than_once_per_ten_instructions() {
    assert_co_runs_allocate_less_than_once_per_ten_instructions(DispatchPolicy::SharedRoundRobin);
}

#[test]
fn fifteen_sm_interference_aware_co_runs_allocate_less_than_once_per_ten_instructions() {
    assert_co_runs_allocate_less_than_once_per_ten_instructions(DispatchPolicy::InterferenceAware);
}

#[test]
fn fleet_runs_allocate_less_than_once_per_fifty_arrivals() {
    let arrivals = 20_000;
    let traffic = TrafficSpec::profile("balanced", arrivals, 0).expect("balanced is a profile");
    for placement in [PlacementPolicy::BinPack, PlacementPolicy::InterferenceSpread] {
        let request = FleetRequest::new(traffic.clone())
            .chips(4)
            .placement(placement)
            .calibration(Calibration::reference(8));
        let before = allocations();
        let result = Fleet::new().execute(request);
        let made = allocations() - before;
        assert_eq!(result.arrivals, arrivals as u64);
        assert!(
            made * 50 < result.arrivals,
            "{}: {made} allocations over {arrivals} arrivals ({:.3} per arrival)",
            placement.label(),
            made as f64 / arrivals as f64,
        );
    }
}
