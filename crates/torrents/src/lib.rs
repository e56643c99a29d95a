//! # bt-torrents — the Table I testbed
//!
//! The paper evaluates rarest first and choke on 26 live torrents
//! (Table I). This crate reproduces that testbed: [`table1`] holds the 26
//! rows verbatim, and [`runner`] scales each row to a simulatable swarm
//! (printing the scaling applied), joins one instrumented local peer, and
//! returns its trace for `bt-analysis`.

#![warn(missing_docs)]

pub mod runner;
pub mod scenarios;
pub mod table1;

pub use runner::{
    attach_observers, build_swarm_spec, default_jobs, run_scenario, run_scenarios_parallel,
    run_table1, run_table1_parallel, RunConfig, RunConfigBuilder, ScaledParams, ScenarioOutcome,
};
pub use scenarios::PresetOptions;
pub use table1::{table1, torrent, ScenarioSpec};
