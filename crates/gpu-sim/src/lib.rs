//! # gpu-sim — cycle-approximate GPU SM simulator
//!
//! A trace-driven, cycle-approximate model of a Fermi-class GPU streaming
//! multiprocessor (SM), built on the memory-hierarchy substrate of `gpu-mem`.
//! It is the substrate standing in for GPGPU-Sim 3.2.2 in this reproduction
//! of the CIAO paper (IPDPS 2018): the experiments of the paper depend on
//! which warps' requests reach the L1D, in what order, where the misses go,
//! and how long the warps stall — all of which this simulator models — rather
//! than on the exact micro-operations of the SIMT pipeline.
//!
//! Main pieces:
//!
//! * [`config`] — the Table I machine configuration (GTX 480-like) and its
//!   Fig. 12 variants.
//! * [`trace`] — warp-level operation streams ([`trace::WarpOp`]) produced by
//!   workload generators (`ciao-workloads`) through the
//!   [`trace::WarpProgram`] trait.
//! * [`coalescer`] — lane addresses → 128-byte block transactions.
//! * [`warp`], [`kernel`] — warp/CTA/kernel state machines and launch rules.
//! * [`scheduler`] — the [`scheduler::WarpScheduler`] policy interface plus
//!   the baseline GTO and loose-round-robin schedulers. CCWS, Best-SWL,
//!   statPCAL (crate `ciao-schedulers`) and CIAO-T/P/C (crate `ciao-core`)
//!   implement the same interface.
//! * [`redirect`] — the [`redirect::RedirectCache`] interface through which
//!   CIAO's shared-memory-as-cache plugs into the SM datapath.
//! * [`sm`] — the per-cycle SM model: issue, scoreboarding, L1D/MSHR/L2/DRAM
//!   traversal, barriers, CTA launch/retire.
//! * [`dispatch`] — multi-tenant CTA dispatch: kernel streams with dynamic
//!   arrival cycles, the `Exclusive` / `SpatialPartition` /
//!   `SharedRoundRobin` static SM partitioning policies and the adaptive
//!   `InterferenceAware` policy ([`dispatch::AdaptiveDispatcher`], the
//!   chip-level analogue of CIAO-T).
//! * [`gpu`] — the chip engine: per-SM crossbar/memory ports and the
//!   deterministic epoch-boundary loop driving the SMs against a shared
//!   banked L2/DRAM backend with per-tenant attribution.
//! * [`stats`] — counters, per-SM → chip reduction, per-tenant counters and
//!   the STP/ANTT co-execution metrics, time series (Figs. 9/10) and the
//!   inter-warp interference matrix (Figs. 1a/4a).
//! * [`event`], [`timeq`] — the two timing modes of the chip loop, selected
//!   by [`event::BackendKind`] and bit-identical to each other: event mode
//!   (next-event advancement ordered by a [`timeq::TimeQueue`], bulk
//!   idle-cycle skipping) and stepping mode (every SM steps every cycle).
//! * [`simulator`] — the one way into the chip engine: describe a run with
//!   a [`simulator::SimRequest`] (streams, arrivals, policy, SM count,
//!   timing mode) and execute it with [`simulator::Simulator::execute`] to
//!   get a [`simulator::SimResult`].

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod coalescer;
pub mod config;
pub mod dispatch;
pub mod event;
pub mod gpu;
pub mod kernel;
pub mod redirect;
pub mod scheduler;
pub mod simulator;
pub mod sm;
pub mod stats;
pub mod timeq;
pub mod trace;
pub mod warp;

pub use coalescer::coalesce;
pub use config::GpuConfig;
pub use dispatch::{
    dispatch_round_robin, spatial_sm_sets, AdaptiveDispatcher, CtaWork, DispatchPolicy,
    KernelStream, LatencyClass, QosSpec, TenantSignal,
};
pub use event::BackendKind;
pub use gpu::{MemRequest, MemoryPort, SmUnit};
pub use kernel::{Kernel, KernelInfo, OffsetKernel};
pub use redirect::{RedirectCache, RedirectLookup};
pub use scheduler::{
    CacheEvent, CacheEventOutcome, CacheKind, GtoScheduler, LrrScheduler, MemRoute, SchedulerCtx,
    SchedulerMetrics, WarpScheduler,
};
pub use simulator::{SimRequest, SimResult, Simulator, TenantResult, SCHEMA_VERSION};
pub use sm::{ResponseEvent, Sm};
pub use stats::{
    avg_normalized_turnaround, system_throughput, DispatchAction, DispatchDecision, DispatchLog,
    DispatchSummary, DispatchTenantSummary, InterferenceMatrix, SmImbalance, SmStats, TenantClass,
    TenantStats, TimeSeries, TimeSeriesPoint,
};
pub use timeq::TimeQueue;
pub use trace::{MemPattern, MemSpace, VecProgram, WarpOp, WarpProgram};
pub use warp::{Warp, WarpState};

/// Re-export of the global address type.
pub use gpu_mem::Addr;
/// Re-export of the CTA identifier type.
pub use gpu_mem::CtaId;
/// Re-export of the cycle type used across the simulator.
pub use gpu_mem::Cycle;
/// Re-export of the warp identifier type.
pub use gpu_mem::WarpId;
/// Re-export of the shared crossbar-fabric statistics carried by
/// [`SimResult`].
pub use gpu_mem::{FabricDirectionStats, FabricStats};
/// Re-export of the observability surface consumed through
/// [`simulator::SimRequest::obs`] / [`simulator::Simulator::execute_observed`]
/// (levels, reports, and the pieces needed to post-process them).
pub use sim_obs::{MetricsRegistry, ObsLevel, ObsReport, PhaseProfiler, TraceEvent};
