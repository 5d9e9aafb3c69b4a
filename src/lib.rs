//! # ciao-suite — umbrella crate for the CIAO reproduction
//!
//! Re-exports the individual crates of the workspace under one roof so the
//! examples and downstream users can depend on a single crate:
//!
//! * [`mem`] (`gpu-mem`) — caches, MSHRs, shared memory, DRAM;
//! * [`sim`] (`gpu-sim`) — the cycle-approximate SM simulator;
//! * [`workloads`] (`ciao-workloads`) — the 21 synthetic benchmarks of Table II;
//! * [`schedulers`] (`ciao-schedulers`) — GTO's companions: CCWS, Best-SWL, statPCAL;
//! * [`ciao`] (`ciao-core`) — the paper's contribution (detector, shared-memory
//!   cache, CIAO-T/P/C scheduling, overhead model);
//! * [`fleet`] (`gpu-fleet`) — the cluster tier: open-loop traffic over a
//!   multi-chip fleet with interference-aware placement and SLO reporting;
//! * [`harness`] (`ciao-harness`) — per-figure experiment runners.
//!
//! ```
//! use ciao_suite::prelude::*;
//!
//! let runner = Runner::new(RunScale::Tiny);
//! let record = runner.record(Benchmark::Syrk, SchedulerKind::CiaoC);
//! assert!(record.ipc > 0.0);
//! ```

#![deny(missing_docs)]

pub use ciao_core as ciao;
pub use ciao_harness as harness;
pub use ciao_schedulers as schedulers;
pub use ciao_workloads as workloads;
pub use gpu_fleet as fleet;
pub use gpu_mem as mem;
pub use gpu_sim as sim;

/// The most commonly used types, re-exported for examples and quick scripts.
pub mod prelude {
    pub use ciao_core::{CiaoParams, CiaoScheduler, CiaoVariant, OverheadModel, SharedMemCache};
    pub use ciao_harness::runner::{RunRecord, RunScale, Runner};
    pub use ciao_harness::schedulers::SchedulerKind;
    pub use ciao_schedulers::{CcwsScheduler, PcalScheduler, SwlScheduler};
    pub use ciao_workloads::{Benchmark, BenchmarkClass, ScaleConfig};
    pub use gpu_fleet::{Fleet, FleetRequest, FleetResult, PlacementPolicy, TrafficSpec};
    pub use gpu_sim::{BackendKind, GpuConfig, SimRequest, SimResult, Simulator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_covers_the_end_to_end_flow() {
        let runner = Runner::new(RunScale::Tiny);
        let gto = runner.record(Benchmark::Nn, SchedulerKind::Gto);
        let ciao = runner.record(Benchmark::Nn, SchedulerKind::CiaoC);
        assert!(gto.ipc > 0.0 && ciao.ipc > 0.0);
    }
}
