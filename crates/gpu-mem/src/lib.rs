//! # gpu-mem — GPU memory-hierarchy substrate
//!
//! This crate implements the on-chip and off-chip memory system of a
//! Fermi-class GPU streaming multiprocessor (SM), sufficient to reproduce the
//! evaluation of *CIAO: Cache Interference-Aware Throughput-Oriented
//! Architecture and Scheduling for GPUs* (IPDPS 2018):
//!
//! * [`addr`] — address arithmetic, 128-byte block math and the XOR-based
//!   set-index hashing the paper layers on top of the baseline GPGPU-Sim
//!   configuration.
//! * [`cache`] — a generic set-associative cache with per-line warp-ID
//!   tracking (needed by the Victim Tag Array and the interference detector),
//!   configurable replacement and write policies; used for both the 16 KB L1D
//!   and the 768 KB L2 of Table I.
//! * [`mshr`] — miss-status holding registers, including the fill target
//!   CIAO adds to steer a response into shared memory (§IV-B).
//! * [`shared_memory`] — the 32-bank scratchpad with a bank-conflict model and
//!   the per-CTA Shared Memory Management Table ([`smmt`]).
//! * [`dram`] — a GDDR5-like DRAM model (banked timing, finite bandwidth).
//! * [`l2`] — memory partition: L2 slice plus its DRAM channel.
//! * [`interconnect`] — the SM↔partition interconnect (latency + bandwidth).
//! * [`cycles`] — exact whole-cycle ceiling and rounding of float cycle
//!   counts, shared by the bandwidth pipes here and the fleet's rate model.
//!
//! All components are deterministic and cycle-based: methods take the current
//! cycle and return completion cycles, so a simulator driver (the `gpu-sim`
//! crate) can schedule events without this crate owning a clock.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod addr;
pub mod cache;
pub mod cycles;
pub mod dram;
pub mod interconnect;
pub mod l2;
pub mod mshr;
pub mod shared_memory;
pub mod smmt;

pub use addr::{block_addr, block_index, Addr, SetIndexFunction, LINE_SIZE};
pub use cache::{
    AccessOutcome, CacheAccess, CacheConfig, CacheStats, EvictedLine, ReplacementPolicy,
    SetAssocCache, WriteAllocPolicy, WritePolicy,
};
pub use cycles::{ceil_cycles, round_cycles};
pub use dram::{Dram, DramConfig, DramStats};
pub use interconnect::{
    CrossbarFabric, CrossbarStats, FabricDirectionStats, FabricStats, Interconnect,
};
pub use l2::{
    merge_tenant_stats, BankedMemorySystem, MemoryPartition, PartitionConfig, PartitionObs,
    PartitionStats, TenantMemStats,
};
pub use mshr::{Mshr, MshrAllocation, MshrEntry, MshrError};
pub use shared_memory::{SharedMemory, SharedMemoryConfig};
pub use smmt::{Smmt, SmmtEntry, SmmtError};

/// A simulation cycle index.
pub type Cycle = u64;

/// A tenant (kernel-stream) identifier, unique within one chip run. Memory
/// components use it to attribute shared-resource usage (L2 accesses, DRAM
/// traffic, interconnect bytes) to the co-running kernel that caused it.
pub type TenantId = u32;

/// A warp identifier (unique within one SM).
pub type WarpId = u32;

/// A cooperative-thread-array (thread block) identifier.
pub type CtaId = u32;
