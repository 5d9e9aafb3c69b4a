//! # gpu-fleet — the fleet traffic tier of the CIAO reproduction
//!
//! The chip tier ([`gpu_sim`]) answers "what happens on one GPU when these
//! tenants co-run?" at cycle granularity. This crate answers the cluster
//! question above it: "what happens to open-loop datacenter traffic —
//! millions of kernel arrivals — spread across a fleet of such chips under
//! a given placement policy and SLO regime?"
//!
//! Cycle-level simulation cannot cover a million arrivals, so the fleet
//! tier is a **calibrated two-level model**:
//!
//! 1. [`calib`] measures the real chip engine (solo IPC per tenant class,
//!    pairwise interference slowdowns under unmanaged vs
//!    interference-aware dispatch, classification latency) with a handful
//!    of genuine [`gpu_sim::Simulator`] runs;
//! 2. [`chip`] models each fleet chip as a discrete-event rate server
//!    driven by those constants, publishing its load and the classes of the
//!    resident jobs its on-chip dispatcher has classified;
//! 3. [`placement`] assigns arrivals to chips, either consolidating
//!    (bin-pack) or reading those classes, as of the last epoch, to keep
//!    streamers away from cache-sensitive tenants (interference-aware
//!    spread — the cluster analogue of the paper's chip-level policy);
//! 4. [`traffic`] generates the seeded open-loop arrival process
//!    (exponential inter-arrivals, weighted tenant classes, log-uniform
//!    kernel sizes, interactive/batch latency classes);
//! 5. [`fleet`] drives the whole thing behind a request/result API that
//!    mirrors the chip tier's [`gpu_sim::SimRequest`] →
//!    [`gpu_sim::SimResult`] surface: build a [`FleetRequest`], call
//!    [`Fleet::execute`], get a schema-versioned [`FleetResult`] with
//!    fleet STP, per-class turnaround percentiles, SLO-violation counts,
//!    and per-chip utilization.
//!
//! The whole tier runs on the calling thread: placement and chip
//! advancement alternate in a fixed order, so repeated runs of the same
//! seed are **bit-identical**.
//!
//! Per job, a run keeps a 24 B [`ArrivalRecord`] until every job is
//! placed, and an 18 B entry in its chip's [`CompletionLedger`] once it
//! completes. The reports read the ledgers chip by chip, each in
//! completion order, the one order every float sum of [`FleetResult`]
//! depends on (see [`fleet`]).

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod calib;
pub mod chip;
pub mod fleet;
pub mod placement;
pub mod traffic;

pub use calib::{class_benchmark, Calibration};
pub use chip::{ChipAccounting, ChipModel, ChipView, Completion, CompletionLedger, MAX_RESIDENT};
pub use fleet::{
    ChipReport, ClassReport, Fleet, FleetRequest, FleetResult, SloPolicy, FLEET_SCHEMA_VERSION,
};
pub use placement::{PlacementContext, PlacementPolicy};
pub use traffic::{Arrival, ArrivalRecord, LatencyClass, TrafficSpec, WorkClass};
