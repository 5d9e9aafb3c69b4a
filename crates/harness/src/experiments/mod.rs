//! One module per table/figure of the paper's evaluation.
//!
//! Every module follows the same shape: a serialisable result struct, a
//! `run(...)` function taking a [`crate::Runner`] (plus, where sensible, the
//! benchmark subset so tests can run reduced versions), and a `render(...)`
//! function producing the plain-text report. The `ciao-harness` binary and
//! the criterion benches both call these functions, so every recorded
//! result comes from exactly the code a user runs.

pub mod capacity;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig4;
pub mod fig8;
pub mod fig9;
pub mod fleet;
pub mod mix;
pub mod overhead;
pub mod table1;
pub mod table2;
