//! # ciao-schedulers — baseline warp schedulers
//!
//! The schedulers the CIAO paper compares against (besides the plain GTO
//! scheduler that lives in `gpu-sim`):
//!
//! * [`vta`] — the Victim Tag Array of CCWS (§II-C), which both CCWS and the
//!   CIAO interference detector build on. Evicted tags are remembered per
//!   warp; re-referencing an evicted tag is a *VTA hit* and signals locality
//!   lost to interference.
//! * [`ccws`] — Cache-Conscious Wavefront Scheduling: warps that keep losing
//!   locality accumulate a lost-locality score and the scheduler throttles
//!   the *other* (low-locality) warps so the high-locality warps get more
//!   exclusive cache space.
//! * [`swl`] — Best-SWL, static wavefront limiting: only the `N` oldest warps
//!   are allowed to issue, with `N` chosen by offline profiling (the `Nwrp`
//!   column of Table II).
//! * [`pcal`] — a statPCAL-style priority-based cache-allocation/bypass
//!   policy: a fixed set of token-holding warps uses the L1D normally, and
//!   the remaining warps are allowed to run but bypass the L1D whenever spare
//!   memory bandwidth exists (otherwise they are throttled).
//!
//! All of them implement [`gpu_sim::WarpScheduler`] and plug into the same SM
//! model, so every figure of the paper compares like against like.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod ccws;
mod oldest;
pub mod pcal;
pub mod swl;
pub mod vta;

pub use ccws::{CcwsConfig, CcwsScheduler};
pub use pcal::{PcalConfig, PcalScheduler};
pub use swl::SwlScheduler;
pub use vta::{Vta, VtaConfig, VtaHit};
