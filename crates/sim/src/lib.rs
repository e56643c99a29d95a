//! # bt-sim — deterministic swarm simulator
//!
//! The measurement substrate of the reproduction. The paper ran an
//! instrumented client against live Internet torrents; this crate runs
//! the same engine (`bt-core`) against a simulated swarm: a virtual
//! clock and event queue ([`events`]), a tracker model ([`tracker`]),
//! per-peer behaviour and capacity profiles ([`behavior`]), and the
//! swarm itself with its bandwidth model ([`swarm`]).
//!
//! Everything is seeded and deterministic: same [`swarm::SwarmSpec`] ⇒
//! byte-identical traces.

#![warn(missing_docs)]

pub mod behavior;
pub mod events;
pub mod links;
pub mod metrics;
pub mod swarm;
pub mod topology;
pub mod tracker;

pub use behavior::{BehaviorProfile, CapacityClass, Role};
pub use events::{EventQueue, HeapEventQueue};
pub use links::{FullDuplexLink, LinkModel, LinkParams, NetModel, UniformLink};
pub use metrics::SimMetrics;
pub use swarm::{GlobalSample, Swarm, SwarmResult, SwarmSpec};
pub use topology::{ClassSpec, LinkRule, LinkSpec, TopologySpec, PRESET_NAMES};
pub use tracker::{PeerIdx, SimTracker};
