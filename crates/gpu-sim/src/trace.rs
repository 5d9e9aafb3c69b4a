//! Warp-level operation traces.
//!
//! The simulator is trace-driven: each warp executes a stream of
//! [`WarpOp`]s supplied by a [`WarpProgram`]. Workload generators (the
//! `ciao-workloads` crate) implement `WarpProgram` to reproduce the memory
//! behaviour of the paper's PolyBench / Mars / Rodinia benchmarks; tests use
//! the simple [`VecProgram`] wrapper around a pre-built vector of operations.

use gpu_mem::Addr;
use serde::{Deserialize, Serialize};

/// Which address space a memory operation targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemSpace {
    /// Global memory, cached in the L1D / L2 hierarchy.
    Global,
    /// Programmer-managed shared memory (scratchpad).
    Shared,
}

/// Per-warp memory access pattern of one SIMT memory instruction.
///
/// Most GPU memory instructions are regular enough to describe as a base +
/// per-lane stride; irregular (indexed / scatter-gather) instructions carry
/// the full per-lane address list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MemPattern {
    /// Lane `i` accesses `base + i * stride` (for `lanes` active lanes).
    Strided {
        /// Address accessed by lane 0.
        base: Addr,
        /// Per-lane address increment in bytes (4 = perfectly coalesced
        /// 32-bit accesses; 128+ = one transaction per lane).
        stride: i64,
        /// Number of active lanes (1..=32).
        lanes: u8,
    },
    /// Arbitrary per-lane addresses (irregular access, e.g. through an index
    /// array as in SpMV-style kernels, §VI).
    Scatter(Vec<Addr>),
}

impl MemPattern {
    /// Expands the pattern into per-lane addresses.
    ///
    /// Strided lane addresses use wrapping two's-complement arithmetic:
    /// lane `i` reads `base + i·stride (mod 2⁶⁴)`, so negative strides walk
    /// downwards and a pattern straddling the top of the address space wraps
    /// instead of overflowing.
    pub fn lane_addresses(&self) -> Vec<Addr> {
        self.lanes().collect()
    }

    /// The per-lane addresses of [`MemPattern::lane_addresses`], in lane
    /// order, without collecting them.
    pub fn lanes(&self) -> impl Iterator<Item = Addr> + '_ {
        (0..self.active_lanes()).map(move |i| match self {
            MemPattern::Strided { base, stride, .. } => {
                base.wrapping_add((i as i64).wrapping_mul(*stride) as Addr)
            }
            MemPattern::Scatter(addrs) => addrs[i],
        })
    }

    /// Number of active lanes.
    pub fn active_lanes(&self) -> usize {
        match self {
            MemPattern::Strided { lanes, .. } => *lanes as usize,
            MemPattern::Scatter(addrs) => addrs.len(),
        }
    }
}

/// One dynamic warp-level operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WarpOp {
    /// An arithmetic/control instruction occupying the warp for `cycles`
    /// cycles (models the issue-to-writeback latency seen by the scoreboard).
    Compute {
        /// Execution latency in cycles.
        cycles: u32,
    },
    /// A load instruction.
    Load {
        /// Target address space.
        space: MemSpace,
        /// Access pattern.
        pattern: MemPattern,
    },
    /// A store instruction.
    Store {
        /// Target address space.
        space: MemSpace,
        /// Access pattern.
        pattern: MemPattern,
    },
    /// CTA-wide barrier (`__syncthreads()`).
    Barrier,
}

impl WarpOp {
    /// Convenience constructor: a perfectly coalesced 32-lane global load of
    /// one 128-byte block starting at `base`.
    pub fn coalesced_load(base: Addr) -> Self {
        WarpOp::Load {
            space: MemSpace::Global,
            pattern: MemPattern::Strided { base, stride: 4, lanes: 32 },
        }
    }

    /// Convenience constructor: a perfectly coalesced 32-lane global store.
    pub fn coalesced_store(base: Addr) -> Self {
        WarpOp::Store {
            space: MemSpace::Global,
            pattern: MemPattern::Strided { base, stride: 4, lanes: 32 },
        }
    }

    /// Convenience constructor: a single-cycle compute instruction.
    pub fn alu() -> Self {
        WarpOp::Compute { cycles: 1 }
    }

    /// True if this is a global-memory load or store.
    pub fn is_global_mem(&self) -> bool {
        matches!(
            self,
            WarpOp::Load { space: MemSpace::Global, .. }
                | WarpOp::Store { space: MemSpace::Global, .. }
        )
    }

    /// True if this is a shared-memory load or store.
    pub fn is_shared_mem(&self) -> bool {
        matches!(
            self,
            WarpOp::Load { space: MemSpace::Shared, .. }
                | WarpOp::Store { space: MemSpace::Shared, .. }
        )
    }
}

/// A source of warp operations for one warp.
///
/// Implementations must be deterministic: the simulator may be re-run with
/// different schedulers and the comparison is only meaningful if every warp
/// replays the same operation stream.
pub trait WarpProgram: Send {
    /// Produces the next operation, or `None` when the warp has finished.
    fn next_op(&mut self) -> Option<WarpOp>;

    /// A hint of how many operations remain (used only for reporting; `None`
    /// if unknown).
    fn remaining_hint(&self) -> Option<u64> {
        None
    }
}

/// A `WarpProgram` backed by a pre-built vector of operations.
#[derive(Debug, Clone)]
pub struct VecProgram {
    ops: std::collections::VecDeque<WarpOp>,
}

impl VecProgram {
    /// Wraps a vector of operations.
    pub fn new(ops: Vec<WarpOp>) -> Self {
        VecProgram { ops: ops.into() }
    }

    /// Builds a simple streaming program: `n` iterations of (load, compute).
    pub fn streaming(base: Addr, n: usize, stride_between_iters: u64) -> Self {
        let mut ops = Vec::with_capacity(n * 2);
        for i in 0..n {
            ops.push(WarpOp::coalesced_load(base + i as u64 * stride_between_iters));
            ops.push(WarpOp::alu());
        }
        VecProgram::new(ops)
    }
}

impl WarpProgram for VecProgram {
    fn next_op(&mut self) -> Option<WarpOp> {
        self.ops.pop_front()
    }

    fn remaining_hint(&self) -> Option<u64> {
        Some(self.ops.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_stride_repeats_the_base_address() {
        let p = MemPattern::Strided { base: 0x4000, stride: 0, lanes: 32 };
        let addrs = p.lane_addresses();
        assert_eq!(addrs.len(), 32);
        assert!(addrs.iter().all(|&a| a == 0x4000));
        assert_eq!(p.active_lanes(), 32);
    }

    #[test]
    fn empty_scatter_has_no_lanes() {
        let p = MemPattern::Scatter(Vec::new());
        assert!(p.lane_addresses().is_empty());
        assert_eq!(p.active_lanes(), 0);
    }

    #[test]
    fn zero_lane_strided_pattern_is_empty() {
        let p = MemPattern::Strided { base: 128, stride: 4, lanes: 0 };
        assert!(p.lane_addresses().is_empty());
        assert_eq!(p.active_lanes(), 0);
    }

    #[test]
    fn strided_pattern_wraps_at_the_top_of_the_address_space() {
        // 32 lanes of stride 128 starting 4 lines below u64::MAX: the tail
        // lanes wrap around to low addresses instead of overflowing.
        let base = Addr::MAX - 4 * 128 + 1;
        let p = MemPattern::Strided { base, stride: 128, lanes: 32 };
        let addrs = p.lane_addresses();
        assert_eq!(addrs.len(), 32);
        assert_eq!(addrs[0], base);
        assert_eq!(addrs[4], base.wrapping_add(4 * 128));
        assert!(addrs[4] < base, "lane 4 must have wrapped");
        // Negative stride from a low base wraps the other way.
        let down = MemPattern::Strided { base: 128, stride: -128, lanes: 3 };
        assert_eq!(down.lane_addresses(), vec![128, 0, Addr::MAX - 127]);
    }

    proptest! {
        /// Lane addresses follow base + i·stride (mod 2^64) for every lane
        /// count (0..=32), any base and any stride — including zero, negative
        /// and wrap-inducing combinations.
        #[test]
        fn strided_lane_addresses_match_the_wrapping_formula(
            base in any::<u64>(),
            stride in any::<i64>(),
            lanes in 0u8..=32,
        ) {
            let p = MemPattern::Strided { base, stride, lanes };
            let addrs = p.lane_addresses();
            prop_assert_eq!(addrs.len(), lanes as usize);
            prop_assert_eq!(p.active_lanes(), lanes as usize);
            for (i, &a) in addrs.iter().enumerate() {
                let expect = base.wrapping_add((i as i64).wrapping_mul(stride) as u64);
                prop_assert_eq!(a, expect, "lane {}", i);
            }
        }
    }

    proptest! {
        /// Scatter patterns are returned verbatim, whatever their shape —
        /// empty, duplicated or full 32-lane lists included.
        #[test]
        fn scatter_lane_addresses_round_trip(
            addrs in proptest::collection::vec(any::<u64>(), 0..32),
        ) {
            let p = MemPattern::Scatter(addrs.clone());
            prop_assert_eq!(p.active_lanes(), addrs.len());
            prop_assert_eq!(p.lane_addresses(), addrs);
        }
    }

    #[test]
    fn strided_pattern_expands() {
        let p = MemPattern::Strided { base: 1000, stride: 4, lanes: 4 };
        assert_eq!(p.lane_addresses(), vec![1000, 1004, 1008, 1012]);
        assert_eq!(p.active_lanes(), 4);
    }

    #[test]
    fn scatter_pattern_expands() {
        let p = MemPattern::Scatter(vec![5, 1000, 77]);
        assert_eq!(p.lane_addresses(), vec![5, 1000, 77]);
        assert_eq!(p.active_lanes(), 3);
    }

    #[test]
    fn negative_stride_supported() {
        let p = MemPattern::Strided { base: 1024, stride: -128, lanes: 3 };
        assert_eq!(p.lane_addresses(), vec![1024, 896, 768]);
    }

    #[test]
    fn op_classification() {
        assert!(WarpOp::coalesced_load(0).is_global_mem());
        assert!(!WarpOp::coalesced_load(0).is_shared_mem());
        assert!(!WarpOp::alu().is_global_mem());
        let sl = WarpOp::Load {
            space: MemSpace::Shared,
            pattern: MemPattern::Strided { base: 0, stride: 4, lanes: 32 },
        };
        assert!(sl.is_shared_mem());
        assert!(!WarpOp::Barrier.is_global_mem());
    }

    #[test]
    fn vec_program_replays_in_order() {
        let mut p =
            VecProgram::new(vec![WarpOp::alu(), WarpOp::Barrier, WarpOp::coalesced_load(256)]);
        assert_eq!(p.remaining_hint(), Some(3));
        assert_eq!(p.next_op(), Some(WarpOp::alu()));
        assert_eq!(p.next_op(), Some(WarpOp::Barrier));
        assert!(matches!(p.next_op(), Some(WarpOp::Load { .. })));
        assert_eq!(p.next_op(), None);
        assert_eq!(p.remaining_hint(), Some(0));
    }

    #[test]
    fn streaming_builder_alternates_load_compute() {
        let mut p = VecProgram::streaming(0, 3, 128);
        let mut loads = 0;
        let mut computes = 0;
        while let Some(op) = p.next_op() {
            match op {
                WarpOp::Load { .. } => loads += 1,
                WarpOp::Compute { .. } => computes += 1,
                _ => panic!("unexpected op"),
            }
        }
        assert_eq!((loads, computes), (3, 3));
    }
}
