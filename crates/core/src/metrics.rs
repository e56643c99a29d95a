//! Engine-level runtime telemetry (`bt-obs` integration).
//!
//! [`EngineMetrics`] is a bundle of pre-registered handles into a
//! [`bt_obs::Registry`]: one counter per [`Input`](crate::Input)
//! variant, one per [`Action`](crate::Action) variant, one per
//! [`EngineError`](crate::EngineError) variant, per-round choke churn
//! counters (`core.choke.*`, fed by each
//! [`rechoke`](crate::Engine::rechoke) round), plus choke-round and
//! piece-pick latency histograms. An engine gets it once, at build,
//! through [`EngineBuilder::metrics`](crate::EngineBuilder::metrics);
//! cloning shares the same underlying instruments, so several
//! engines on one registry aggregate into a swarm-wide view, and a
//! per-engine `label` keeps them apart when the driver wants per-peer
//! numbers.
//!
//! Instrumentation never touches the engine's RNG or its §III-C trace,
//! so attaching metrics cannot perturb deterministic runs.

use crate::driver::Input;
use crate::engine::Action;
use crate::error::EngineError;
use bt_obs::{buckets, Counter, Histogram, Registry};

/// Pre-registered `bt-obs` handles for one engine (or one shared swarm
/// view); see the [module docs](self).
#[derive(Clone, Debug)]
pub struct EngineMetrics {
    pub(crate) registry: Registry,

    pub(crate) in_start: Counter,
    pub(crate) in_tick: Counter,
    pub(crate) in_tracker_response: Counter,
    pub(crate) in_peer_connected: Counter,
    pub(crate) in_connect_failed: Counter,
    pub(crate) in_peer_disconnected: Counter,
    pub(crate) in_message: Counter,
    pub(crate) in_block_sent: Counter,

    pub(crate) act_send: Counter,
    pub(crate) act_send_block: Counter,
    pub(crate) act_cancel_block: Counter,
    pub(crate) act_disconnect: Counter,
    pub(crate) act_announce: Counter,
    pub(crate) act_connect: Counter,
    pub(crate) act_set_timer: Counter,

    pub(crate) err_bad_bitfield: Counter,
    pub(crate) err_piece_out_of_range: Counter,
    pub(crate) err_malformed_block: Counter,

    pub(crate) pieces_completed: Counter,
    pub(crate) pieces_failed: Counter,

    pub(crate) choke_rounds: Counter,
    pub(crate) choke_flips: Counter,
    pub(crate) choke_unchoked_slots: Counter,
    pub(crate) choke_reciprocal_slots: Counter,

    pub(crate) choke_round_us: Histogram,
    pub(crate) piece_pick_us: Histogram,
}

impl EngineMetrics {
    /// Register (or re-acquire) the engine instruments on `registry`
    /// with an empty label.
    pub fn register(registry: &Registry) -> EngineMetrics {
        EngineMetrics::register_labeled(registry, "")
    }

    /// Register with a per-engine `label` (e.g. `"peer3"`) so several
    /// engines on one registry stay distinguishable.
    pub fn register_labeled(registry: &Registry, label: &str) -> EngineMetrics {
        EngineMetrics {
            registry: registry.clone(),
            in_start: registry.counter_with("core.inputs.start", label),
            in_tick: registry.counter_with("core.inputs.tick", label),
            in_tracker_response: registry.counter_with("core.inputs.tracker_response", label),
            in_peer_connected: registry.counter_with("core.inputs.peer_connected", label),
            in_connect_failed: registry.counter_with("core.inputs.connect_failed", label),
            in_peer_disconnected: registry.counter_with("core.inputs.peer_disconnected", label),
            in_message: registry.counter_with("core.inputs.message", label),
            in_block_sent: registry.counter_with("core.inputs.block_sent", label),
            act_send: registry.counter_with("core.actions.send", label),
            act_send_block: registry.counter_with("core.actions.send_block", label),
            act_cancel_block: registry.counter_with("core.actions.cancel_block", label),
            act_disconnect: registry.counter_with("core.actions.disconnect", label),
            act_announce: registry.counter_with("core.actions.announce", label),
            act_connect: registry.counter_with("core.actions.connect", label),
            act_set_timer: registry.counter_with("core.actions.set_timer", label),
            err_bad_bitfield: registry.counter_with("core.errors.bad_bitfield", label),
            err_piece_out_of_range: registry.counter_with("core.errors.piece_out_of_range", label),
            err_malformed_block: registry.counter_with("core.errors.malformed_block", label),
            pieces_completed: registry.counter_with("core.pieces_completed", label),
            pieces_failed: registry.counter_with("core.pieces_failed", label),
            choke_rounds: registry.counter_with("core.choke.rounds", label),
            choke_flips: registry.counter_with("core.choke.flips", label),
            choke_unchoked_slots: registry.counter_with("core.choke.unchoked_slots", label),
            choke_reciprocal_slots: registry.counter_with("core.choke.reciprocal_slots", label),
            choke_round_us: registry.histogram_with(
                "core.choke_round_us",
                label,
                buckets::LATENCY_US,
            ),
            piece_pick_us: registry.histogram_with(
                "core.piece_pick_us",
                label,
                buckets::LATENCY_US,
            ),
        }
    }

    /// The registry the handles live in (also the latency clock).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    pub(crate) fn count_input(&self, input: &Input) {
        match input {
            Input::Start => self.in_start.inc(),
            Input::Tick => self.in_tick.inc(),
            Input::TrackerResponse { .. } => self.in_tracker_response.inc(),
            Input::PeerConnected { .. } => self.in_peer_connected.inc(),
            Input::ConnectFailed => self.in_connect_failed.inc(),
            Input::PeerDisconnected { .. } => self.in_peer_disconnected.inc(),
            Input::Message { .. } => self.in_message.inc(),
            Input::BlockSent { .. } => self.in_block_sent.inc(),
        }
    }

    pub(crate) fn count_action(&self, action: &Action) {
        match action {
            Action::Send { .. } => self.act_send.inc(),
            Action::SendBlock { .. } => self.act_send_block.inc(),
            Action::CancelBlock { .. } => self.act_cancel_block.inc(),
            Action::Disconnect { .. } => self.act_disconnect.inc(),
            Action::Announce { .. } => self.act_announce.inc(),
            Action::Connect { .. } => self.act_connect.inc(),
            Action::SetTimer { .. } => self.act_set_timer.inc(),
        }
    }

    pub(crate) fn count_error(&self, err: &EngineError) {
        match err {
            EngineError::BadBitfield { .. } => self.err_bad_bitfield.inc(),
            EngineError::PieceOutOfRange { .. } => self.err_piece_out_of_range.inc(),
            EngineError::MalformedBlock { .. } => self.err_malformed_block.inc(),
        }
    }
}
