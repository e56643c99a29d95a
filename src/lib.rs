//! # bt-repro — reproduction of *Rarest First and Choke Algorithms Are Enough*
//!
//! A complete, deterministic reproduction of Legout, Urvoy-Keller &
//! Michiardi (IMC 2006): the BitTorrent client the paper instruments, the
//! swarm substrate it was measured on (simulated — see `DESIGN.md`), the
//! instrumentation, the 26-torrent Table I testbed, and the analysis
//! pipeline behind every figure.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`wire`] — bencoding, metainfo, SHA-1, peer wire codec, tracker;
//! * [`piece`] — bitfields, availability, rarest first + baselines,
//!   block scheduling (strict priority, end game);
//! * [`choke`] — rate estimation, leecher/seed chokers, tit-for-tat;
//! * [`core`] — the client engine, a sans-io state machine
//!   ([`core::Input`]s in, [`core::Action`]s out);
//! * [`sim`] — the discrete-event swarm simulator driving the engine;
//! * [`net`] — the real-socket runtime driving the *same* engine over
//!   non-blocking TCP, with an accelerated virtual clock;
//! * [`instrument`] — trace records and peer identification;
//! * [`obs`] — runtime telemetry: metrics registry (counters, gauges,
//!   histograms), span profiler, series, causal tracer and flight
//!   recorder — the types every run artifact is written from;
//! * [`stat`] — offline fleet analytics (`btstat`): reads those
//!   artifacts back into the same types, then merge / diff / bisect;
//! * [`analysis`] — entropy, replication, interarrival, fairness and
//!   unchoke-correlation metrics;
//! * [`torrents`] — the Table I scenarios and the scenario runner.
//!
//! ## Quickstart
//!
//! ```
//! use bt_repro::sim::{BehaviorProfile, Swarm, SwarmSpec};
//! use bt_repro::wire::time::Duration;
//!
//! let mut peers = vec![BehaviorProfile::seed()];
//! for _ in 0..4 {
//!     peers.push(BehaviorProfile::leecher(Duration::ZERO));
//! }
//! let spec = SwarmSpec {
//!     seed: 7,
//!     total_len: 4 * 256 * 1024,
//!     piece_len: 256 * 1024,
//!     duration: Duration::from_secs(3600),
//!     peers,
//!     local: Some(1),
//!     ..SwarmSpec::default()
//! };
//! let result = Swarm::new(spec).run();
//! assert_eq!(result.completed_peers, 4);
//! ```

#![warn(missing_docs)]

pub use bt_analysis as analysis;
pub use bt_choke as choke;
pub use bt_core as core;
pub use bt_instrument as instrument;
pub use bt_net as net;
pub use bt_obs as obs;
pub use bt_piece as piece;
pub use bt_sim as sim;
pub use bt_stat as stat;
pub use bt_torrents as torrents;
pub use bt_wire as wire;
