//! Criterion microbenchmarks of the substrate (see `benches/`).
//!
//! The library target is intentionally empty: the two benchmarks in
//! `benches/*.rs` time the caches, VTA, DRAM, shared-memory cache, one Tiny
//! simulation and the event core's `TimeQueue`. Whole-experiment timing
//! lives in the repository benchmark, `perfbench/`.
