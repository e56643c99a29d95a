//! Real-socket runtime for the sans-io `bt-core` engine.
//!
//! The engine is a pure state machine: [`bt_core::Input`]s go in,
//! [`bt_core::Action`]s come out, and nothing inside it touches a
//! socket or a clock. `bt-sim` drives that API from a deterministic
//! event queue; this crate drives the *same* API from non-blocking
//! `std::net` TCP. It is Unix-only: the runtime blocks in `poll(2)`,
//! declared by hand in the private `sys` module — the workspace's one
//! foreign call.
//!
//! - [`runtime::NetRuntime`] — the driver loop: accepts, dials with
//!   bounded retry and backoff, exchanges handshakes, frames messages
//!   through the `bt-wire` codec over `TCP_NODELAY` sockets, feeds
//!   [`bt_core::Input::Tick`] when the virtual clock passes the
//!   engine's armed deadline, and between passes waits for a socket to
//!   become ready or the nearest deadline to fall due.
//! - [`clock::AccelClock`] — maps wall time onto the engine's virtual
//!   microsecond axis, optionally accelerated so protocol timescales
//!   (10 s choke rounds) compress into test-friendly wall budgets.
//! - [`tracker::LoopbackTracker`] — an in-process BEP 3 tracker mapping
//!   the engine's virtual peer addresses to real socket addresses.
//! - [`loopback::run_loopback_swarm`] — an end-to-end harness: one
//!   runtime thread per peer on loopback, completing a real torrent and
//!   emitting the same `bt-instrument` traces as the simulator.
//! - [`metrics::NetMetrics`] — `bt-obs` telemetry handles: every
//!   runtime reports `net.*` counters, gauges and a handshake-latency
//!   histogram, per-peer labeled when a swarm shares one registry.

#![warn(missing_docs)]

#[cfg(not(unix))]
compile_error!("bt-net is Unix-only: its runtime waits in poll(2)");

pub mod clock;
pub mod loopback;
pub mod metrics;
pub mod runtime;
mod sys;
pub mod tracker;

pub use clock::{AccelClock, DEFAULT_ACCEL};
pub use loopback::{run_loopback_swarm, LoopbackResult, LoopbackSpec, PeerOutcome};
pub use metrics::NetMetrics;
pub use runtime::{peer_ip, NetRuntime, NetStats};
pub use tracker::LoopbackTracker;
