//! Named-parameter construction for [`Engine`].
//!
//! [`Engine::new`]'s eight positional arguments were easy to transpose
//! silently (three of them are plain integers). The builder names every
//! construction-time fact and folds the observers in — recorder,
//! metrics, profiler, choke audit — so an engine holds the same
//! observers from its first input to its last:
//!
//! ```
//! use bt_core::EngineBuilder;
//! use bt_piece::{Bitfield, Geometry};
//! use bt_wire::peer_id::{ClientKind, IpAddr, PeerId};
//!
//! let geometry = Geometry::new(4 * 262_144, 262_144);
//! let engine = EngineBuilder::new(geometry, [7u8; 20], PeerId::new(ClientKind::Mainline402, 1))
//!     .ip(IpAddr(0x0A00_0001))
//!     .initial_pieces(Bitfield::full(geometry.num_pieces()))
//!     .rng_seed(42)
//!     .build();
//! assert!(engine.is_seed());
//! ```

use crate::config::Config;
use crate::content::DataMode;
use crate::engine::Engine;
use crate::metrics::EngineMetrics;
use bt_instrument::trace::TraceMeta;
use bt_obs::Profiler;
use bt_piece::{Bitfield, Geometry};
use bt_wire::peer_id::{IpAddr, PeerId};
use bt_wire::sha1::Digest;

/// Builder for [`Engine`]; see the [module docs](self).
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    pub(crate) config: Config,
    pub(crate) geometry: Geometry,
    pub(crate) data: DataMode,
    pub(crate) info_hash: Digest,
    pub(crate) peer_id: PeerId,
    pub(crate) ip: IpAddr,
    pub(crate) initial_pieces: Option<Bitfield>,
    pub(crate) seed: u64,
    pub(crate) recorder: Option<TraceMeta>,
    pub(crate) metrics: Option<EngineMetrics>,
    pub(crate) profiler: Profiler,
    pub(crate) choke_audit: bool,
}

impl EngineBuilder {
    /// Start a builder from the three facts every engine needs: the
    /// torrent's geometry, its info-hash, and the local peer ID.
    ///
    /// Defaults: [`Config::default`], [`DataMode::Virtual`], IP `0`,
    /// an empty starting bitfield (fresh leecher), RNG seed `0`, no
    /// recorder, no metrics, [`Profiler::disabled`], no choke audit.
    pub fn new(geometry: Geometry, info_hash: Digest, peer_id: PeerId) -> EngineBuilder {
        EngineBuilder {
            config: Config::default(),
            geometry,
            data: DataMode::Virtual,
            info_hash,
            peer_id,
            ip: IpAddr(0),
            initial_pieces: None,
            seed: 0,
            recorder: None,
            metrics: None,
            profiler: Profiler::disabled(),
            choke_audit: false,
        }
    }

    /// Engine configuration (§III-C parameters and behaviour switches).
    pub fn config(mut self, config: Config) -> EngineBuilder {
        self.config = config;
        self
    }

    /// Content mode: verify real bytes or track metadata only.
    pub fn data(mut self, data: DataMode) -> EngineBuilder {
        self.data = data;
        self
    }

    /// The local peer's IP address (identity for the one-connection-per-
    /// address rule and for filtering the tracker's own-address echoes).
    pub fn ip(mut self, ip: IpAddr) -> EngineBuilder {
        self.ip = ip;
        self
    }

    /// Starting bitfield: full for a seed, empty for a fresh leecher,
    /// partial for a restarted or pre-populated peer.
    ///
    /// # Panics
    /// [`build`](Self::build) panics if the length does not match the
    /// geometry's piece count.
    pub fn initial_pieces(mut self, pieces: Bitfield) -> EngineBuilder {
        self.initial_pieces = Some(pieces);
        self
    }

    /// Seed for the engine's private PRNG (random-first picks, choke
    /// tie-breaks). Identical seeds + identical inputs ⇒ identical
    /// outputs.
    pub fn rng_seed(mut self, seed: u64) -> EngineBuilder {
        self.seed = seed;
        self
    }

    /// Attach a §III-C trace recorder; the built engine becomes the
    /// *local* (instrumented) peer.
    pub fn recorder(mut self, meta: TraceMeta) -> EngineBuilder {
        self.recorder = Some(meta);
        self
    }

    /// Report into runtime telemetry handles (see [`EngineMetrics`]):
    /// input, action and protocol-error counters plus choke-round and
    /// piece-pick latency histograms on the handles' registry.
    pub fn metrics(mut self, metrics: EngineMetrics) -> EngineBuilder {
        self.metrics = Some(metrics);
        self
    }

    /// Record hierarchical spans into `profiler`: `handle()` dispatch,
    /// choke rounds and piece picks. Like metrics, spans never touch
    /// the engine's RNG or trace, so profiling cannot perturb
    /// deterministic runs.
    pub fn profiler(mut self, profiler: Profiler) -> EngineBuilder {
        self.profiler = profiler;
        self
    }

    /// When `on`, keep the choke/picker audit trail: every rechoke
    /// round leaves a [`ChokeAudit`](crate::ChokeAudit) and every piece
    /// pick a [`PickEvent`](crate::PickEvent), until the driver calls
    /// [`Engine::clear_audit`]. Pure observation — it changes no
    /// decision and consumes no RNG draws.
    pub fn choke_audit(mut self, on: bool) -> EngineBuilder {
        self.choke_audit = on;
        self
    }

    /// Construct the engine.
    pub fn build(self) -> Engine {
        Engine::from_builder(self)
    }
}
