//! The repo's benchmark: five workloads over the `bt-*` stack, a handful
//! of end-to-end metrics, a per-layer budget from layer probes, and a
//! traced run. `BENCHMARK.json` at the repo root is the contract — the
//! names, units, directions and bounds used here are read from it (it
//! is compiled in), so the two cannot drift apart.
//!
//! Only public functions of the `bt-*` crates are called; nothing
//! outside `benchmark/` changes.

pub mod calib;
pub mod compare;
pub mod contract;
pub mod machine;
pub mod probes;
pub mod run;
pub mod stats;
pub mod suite;
pub mod traced;
pub mod workloads;
