//! # bt-core — the BitTorrent client engine
//!
//! A complete, transport-agnostic implementation of the client the paper
//! instruments (mainline 4.0.2 semantics): peer-set management, interest
//! tracking, request pipelining with strict priority and end game mode,
//! hash verification, and the choke algorithm in leecher and seed state.
//!
//! * [`builder`] — named-parameter [`builder::EngineBuilder`] construction;
//! * [`config`] — the §III-C default parameters;
//! * [`connection`] — per-peer protocol state;
//! * [`content`] — real-bytes vs. metadata-only data modes;
//! * [`driver`] — the sans-io [`driver::Input`]/[`driver::Actions`]
//!   contract every driver follows;
//! * [`engine`] — the [`engine::Engine`] state machine and its
//!   [`engine::Action`] effect type;
//! * [`error`] — typed [`error::EngineError`] protocol violations;
//! * [`metrics`] — optional `bt-obs` runtime telemetry
//!   ([`metrics::EngineMetrics`]).
//!
//! The engine is sans-io: it contains no clock, no sockets and no
//! randomness source of its own beyond a seeded PRNG. A driver (the
//! `bt-sim` discrete-event simulator, the `bt-net` real-socket runtime,
//! or a test) feeds [`driver::Input`] events through
//! [`engine::Engine::handle`] and executes the returned actions, so
//! identical inputs produce identical outputs — the property the
//! simulator and the regression tests rely on.

#![warn(missing_docs)]

pub mod builder;
pub mod config;
pub mod connection;
pub mod content;
pub mod driver;
pub mod engine;
pub mod error;
pub mod metrics;

pub use builder::EngineBuilder;
pub use config::Config;
pub use connection::{ConnId, Connection};
pub use content::{DataMode, PieceBuffer};
pub use driver::{Actions, Input};
pub use engine::{Action, ChokeAudit, ChokeAuditEntry, Engine, PeerCaps, PickEvent};
pub use error::EngineError;
pub use metrics::EngineMetrics;
