//! Fluent construction of [`SwarmSpec`]s.
//!
//! `SwarmSpec` grew past fifteen knobs; call sites that set them
//! positionally (struct literals with long `..Default::default()`
//! tails) read poorly and rot when fields move. [`SwarmSpecBuilder`]
//! names every knob, groups the network model behind
//! [`net`](SwarmSpecBuilder::net)/[`topology`](SwarmSpecBuilder::topology),
//! and is the only place new specs should be assembled.
//!
//! ```
//! use bt_sim::{BehaviorProfile, SwarmSpec};
//! use bt_wire::time::Duration;
//!
//! let spec = SwarmSpec::builder()
//!     .seed(7)
//!     .pieces(8, 256 * 1024)
//!     .peer(BehaviorProfile::seed())
//!     .peer(BehaviorProfile::leecher(Duration::ZERO))
//!     .local(1)
//!     .build();
//! assert_eq!(spec.total_len, 8 * 256 * 1024);
//! ```

use crate::behavior::BehaviorProfile;
use crate::links::NetModel;
use crate::swarm::SwarmSpec;
use crate::topology::TopologySpec;
use bt_core::Config;
use bt_wire::time::Duration;

/// Builder for [`SwarmSpec`] — see the module docs. Obtain one with
/// [`SwarmSpec::builder`]; every method mirrors a spec field and
/// returns `self` for chaining.
#[derive(Debug, Clone, Default)]
pub struct SwarmSpecBuilder {
    spec: SwarmSpec,
}

impl SwarmSpecBuilder {
    /// Start from the spec defaults.
    pub fn new() -> SwarmSpecBuilder {
        SwarmSpecBuilder::default()
    }

    /// Master PRNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Content size in bytes.
    #[must_use]
    pub fn total_len(mut self, bytes: u64) -> Self {
        self.spec.total_len = bytes;
        self
    }

    /// Piece length in bytes.
    #[must_use]
    pub fn piece_len(mut self, bytes: u32) -> Self {
        self.spec.piece_len = bytes;
        self
    }

    /// Content geometry as `count` pieces of `piece_len` bytes.
    #[must_use]
    pub fn pieces(mut self, count: u32, piece_len: u32) -> Self {
        self.spec.total_len = u64::from(count) * u64::from(piece_len);
        self.spec.piece_len = piece_len;
        self
    }

    /// Carry and verify real content bytes.
    #[must_use]
    pub fn real_data(mut self, on: bool) -> Self {
        self.spec.real_data = on;
        self
    }

    /// Simulated session length.
    #[must_use]
    pub fn duration(mut self, duration: Duration) -> Self {
        self.spec.duration = duration;
        self
    }

    /// Base engine configuration (per-peer profiles still override).
    #[must_use]
    pub fn base_config(mut self, config: Config) -> Self {
        self.spec.base_config = config;
        self
    }

    /// Edit the base engine configuration in place.
    #[must_use]
    pub fn configure(mut self, edit: impl FnOnce(&mut Config)) -> Self {
        edit(&mut self.spec.base_config);
        self
    }

    /// Replace the whole peer table.
    #[must_use]
    pub fn peers(mut self, peers: Vec<BehaviorProfile>) -> Self {
        self.spec.peers = peers;
        self
    }

    /// Append one peer.
    #[must_use]
    pub fn peer(mut self, profile: BehaviorProfile) -> Self {
        self.spec.peers.push(profile);
        self
    }

    /// Append `count` copies of a profile.
    #[must_use]
    pub fn peers_of(mut self, count: usize, profile: BehaviorProfile) -> Self {
        self.spec.peers.extend(std::iter::repeat_n(profile, count));
        self
    }

    /// Index of the instrumented peer.
    #[must_use]
    pub fn local(mut self, idx: usize) -> Self {
        self.spec.local = Some(idx);
        self
    }

    /// Fraction of pieces pre-seeded as *available*.
    #[must_use]
    pub fn available_fraction(mut self, fraction: f64) -> Self {
        self.spec.available_fraction = fraction;
        self
    }

    /// Upper bound on pre-populated leecher completion.
    #[must_use]
    pub fn prepop_completion_max(mut self, max: f64) -> Self {
        self.spec.prepop_completion_max = max;
        self
    }

    /// Typed network model (the `net` section).
    #[must_use]
    pub fn net(mut self, model: NetModel) -> Self {
        self.spec.net = Some(model);
        self
    }

    /// Shorthand: a [`NetModel::Uniform`] with explicit parameters.
    #[must_use]
    pub fn uniform_net(self, latency: Duration, jitter: Duration) -> Self {
        self.net(NetModel::uniform(latency, jitter))
    }

    /// Shorthand: a full-duplex [`NetModel`] over a topology.
    #[must_use]
    pub fn topology(self, spec: TopologySpec) -> Self {
        self.net(NetModel::FullDuplex(spec))
    }

    /// Transfer round length.
    #[must_use]
    pub fn transfer_round(mut self, round: Duration) -> Self {
        self.spec.transfer_round = round;
        self
    }

    /// Availability sampling period.
    #[must_use]
    pub fn sample_every(mut self, period: Duration) -> Self {
        self.spec.sample_every = period;
        self
    }

    /// In-flight block corruption probability.
    #[must_use]
    pub fn corrupt_block_prob(mut self, prob: f64) -> Self {
        self.spec.corrupt_block_prob = prob;
        self
    }

    /// Pre-handshake dial failure probability.
    #[must_use]
    pub fn dial_failure_prob(mut self, prob: f64) -> Self {
        self.spec.dial_failure_prob = prob;
        self
    }

    /// Cap on peers per tracker response.
    #[must_use]
    pub fn tracker_response_cap(mut self, cap: Option<usize>) -> Self {
        self.spec.tracker_response_cap = cap;
        self
    }

    /// Use the tracker's O(num_want) scalable sampling.
    #[must_use]
    pub fn scalable_tracker(mut self, on: bool) -> Self {
        self.spec.scalable_tracker = on;
        self
    }

    /// Record global replication snapshots.
    #[must_use]
    pub fn sample_global(mut self, on: bool) -> Self {
        self.spec.sample_global = on;
        self
    }

    /// Finish: returns the assembled spec.
    pub fn build(self) -> SwarmSpec {
        self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::BehaviorProfile;

    #[test]
    fn builder_defaults_match_spec_defaults() {
        let built = SwarmSpec::builder().build();
        let spec = SwarmSpec::default();
        assert_eq!(
            serde_json::to_string(&built).unwrap(),
            serde_json::to_string(&spec).unwrap()
        );
    }

    #[test]
    fn builder_sets_every_group() {
        let spec = SwarmSpec::builder()
            .seed(9)
            .pieces(16, 64 * 1024)
            .real_data(true)
            .duration(Duration::from_secs(1200))
            .configure(|c| c.max_peer_set = 12)
            .peer(BehaviorProfile::seed())
            .peers_of(3, BehaviorProfile::leecher(Duration::ZERO))
            .local(1)
            .available_fraction(0.25)
            .prepop_completion_max(0.5)
            .uniform_net(Duration::from_millis(40), Duration::from_millis(80))
            .transfer_round(Duration::from_secs(2))
            .sample_every(Duration::from_secs(10))
            .corrupt_block_prob(0.01)
            .dial_failure_prob(0.02)
            .tracker_response_cap(Some(10))
            .scalable_tracker(true)
            .sample_global(true)
            .build();
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.total_len, 16 * 64 * 1024);
        assert_eq!(spec.piece_len, 64 * 1024);
        assert!(spec.real_data);
        assert_eq!(spec.base_config.max_peer_set, 12);
        assert_eq!(spec.peers.len(), 4);
        assert_eq!(spec.local, Some(1));
        assert_eq!(
            spec.net,
            Some(NetModel::uniform(
                Duration::from_millis(40),
                Duration::from_millis(80)
            ))
        );
        assert_eq!(spec.tracker_response_cap, Some(10));
        assert!(spec.scalable_tracker && spec.sample_global);
    }

    #[test]
    fn explicit_uniform_net_resolves_like_the_default() {
        let unset = SwarmSpec::default();
        let typed = SwarmSpec::builder()
            .uniform_net(Duration::from_millis(50), Duration::from_millis(100))
            .build();
        assert_eq!(unset.net_model(), typed.net_model());
    }
}
