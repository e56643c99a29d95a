//! # bt-bench — figure-regeneration harness
//!
//! * [`experiments`] — the ablations and the global-truth check, each
//!   running its own swarms and returning structured results;
//! * [`report`] — plain-text tables, bars and sparklines for terminal
//!   rendering.
//!
//! The `figures` binary glues the two together (`figures --help`);
//! `swarmrun` runs one scenario from a JSON spec, a preset, the Table I
//! sweep or real sockets. Performance is measured by the stand-alone
//! `benchmark/` package at the repo root, not here.

#![warn(missing_docs)]

pub mod experiments;
pub mod report;
