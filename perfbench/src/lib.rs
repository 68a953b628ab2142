//! End-to-end and per-layer benchmark of the budget-aware schedulers.
//!
//! Three closed-loop workloads (one client, no think time, one thread) run
//! whole passes over a seeded op list; every op parses its instance from
//! text, covers the three budget levels of Table III (or the medium one,
//! for `execute-400`) and checks its outputs. See `perfbench/README.md`.

pub mod metrics;
pub mod ops;
pub mod reference;
pub mod run;
pub mod spans;
pub mod workload;
