//! # ciao-harness — experiment harness for the CIAO reproduction
//!
//! One module per table/figure of the paper's evaluation (§V), plus the
//! shared machinery to build scheduler configurations, run simulations in
//! parallel and render reports:
//!
//! | paper artefact | module | harness command |
//! |---|---|---|
//! | Table I (machine configuration) | [`experiments::table1`] | `table1` |
//! | Table II (benchmark characteristics) | [`experiments::table2`] | `table2` |
//! | Fig. 1a/1b (motivation: Backprop) | [`experiments::fig1`] | `fig1` |
//! | Fig. 4a/4b (interference characterisation) | [`experiments::fig4`] | `fig4` |
//! | Fig. 8a/8b (overall performance, shared-memory utilisation) | [`experiments::fig8`] | `fig8` |
//! | Fig. 9 (ATAX / Backprop over time) | [`experiments::fig9`] | `fig9` |
//! | Fig. 10 (SYRK / KMN over time) | [`experiments::fig10`] | `fig10` |
//! | Fig. 11a/11b (sensitivity) | [`experiments::fig11`] | `fig11` |
//! | Fig. 12a/12b (cache / DRAM configurations) | [`experiments::fig12`] | `fig12` |
//! | §V-F (overhead analysis) | [`experiments::overhead`] | `overhead` |
//! | Multi-tenant mixes (STP/ANTT across policies) | [`experiments::mix`] | `mix` |
//! | Capacity curves (STP vs SM count per policy) | [`experiments::capacity`] | `capacity` |
//! | Perfetto trace + metrics of one observed co-run | [`runner`] (`sim-obs`) | `trace` |
//! | Wall-clock phase profile, both timing backends | [`runner`] (`sim-obs`) | `profile` |
//! | CI performance-regression gate | [`perf`] | `perf` |
//!
//! Every experiment accepts the `--sms N` axis: the [`runner::Runner`]
//! simulates each (benchmark, scheduler) pair on an N-SM chip with a shared
//! banked L2/DRAM when `N > 1`. Every
//! experiment also accepts `--obs {off,metrics,full}` (the runner arms the
//! `sim-obs` layer on each simulation it issues) and the `-v`/`--quiet`
//! verbosity flags, which drive the [`runner::log`] diagnostics channel.
//!
//! Every experiment returns a serialisable result structure plus a plain-text
//! rendering, so `cargo bench` (crate `ciao-bench`) and the `ciao-harness`
//! binary share the exact same code paths.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod experiments;
pub mod perf;
pub mod report;
pub mod runner;
pub mod schedulers;

pub use perf::{BaselineFile, PerfReport};
pub use report::{geometric_mean, Table};
pub use runner::{RunRecord, RunScale, Runner};
pub use schedulers::SchedulerKind;
