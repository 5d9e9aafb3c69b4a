//! Interface for a redirect cache — the pluggable structure CIAO installs to
//! serve global-memory requests of *isolated* warps out of unused shared
//! memory (§III-B / §IV-B).
//!
//! The SM datapath (`sm` module) owns the orchestration: when the warp
//! scheduler routes a warp's global accesses to [`crate::scheduler::MemRoute::RedirectCache`],
//! the SM first checks the L1D tag array (migrating a resident copy through
//! the response queue to preserve single-copy coherence), then consults the
//! installed `RedirectCache`. The concrete tag/data layout and the address
//! translation unit live in `ciao-core::shmem_cache`, keeping the paper's
//! contribution in its own crate while the generic SM stays reusable; the
//! SM's SMMT tells the structure how much scratchpad it may use.

use gpu_mem::cache::EvictedLine;
use gpu_mem::{Addr, Cycle, WarpId};

/// Result of probing the redirect cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedirectLookup {
    /// The block is present; the access costs `latency` cycles.
    Hit {
        /// Access latency in cycles (tag + data in parallel under CIAO's
        /// bank-group layout, so typically the scratchpad latency).
        latency: Cycle,
    },
    /// The block is absent; the caller should fetch it from L2 and then call
    /// [`RedirectCache::fill`].
    Miss,
    /// The structure currently has no capacity at all (e.g. the CTAs use the
    /// whole scratchpad); the caller should fall back to the L1D path.
    Unavailable,
}

/// A cache-like structure that can serve redirected global-memory accesses.
pub trait RedirectCache: Send {
    /// Looks up `block_addr` on behalf of warp `wid`. Updates replacement and
    /// statistics state exactly once per call.
    fn lookup(&mut self, block_addr: Addr, wid: WarpId, is_write: bool) -> RedirectLookup;

    /// Fills `block_addr` (after an L2 fetch or an L1D migration), returning
    /// the line it displaced, if any, so the SM can report the eviction to
    /// the interference detector.
    fn fill(&mut self, block_addr: Addr, wid: WarpId) -> Option<EvictedLine>;

    /// Fraction of the structure's data capacity currently holding valid
    /// blocks (the shared-memory utilisation ratio of Fig. 8b).
    fn utilization(&self) -> f64;

    /// Total data capacity in bytes currently reserved for redirected blocks.
    fn capacity_bytes(&self) -> u64;

    /// Number of lookups that hit since construction.
    fn hits(&self) -> u64;

    /// Number of lookups that missed since construction.
    fn misses(&self) -> u64;

    /// Invalidates all contents (between kernels).
    fn invalidate_all(&mut self);

    /// Informs the structure how many bytes of shared memory are currently
    /// *unused* by CTAs and therefore available to it: the SM's
    /// `Smmt::unused()`. The SM calls this after every CTA launch or
    /// retirement; implementations shrink or grow their data+tag area
    /// accordingly.
    fn set_capacity(&mut self, _unused_bytes: u64) {}
}
