//! Criterion microbenchmarks of the substrate (see `benches/`).
//!
//! The library target is intentionally empty: the one benchmark,
//! `benches/simulator_microbench.rs`, times the caches, VTA, DRAM,
//! shared-memory cache and one Tiny simulation. Whole-experiment timing
//! lives in the repository benchmark, `perfbench/`.
