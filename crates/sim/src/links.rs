//! The per-link network model.
//!
//! Every simulated connection is backed by a pair of directed links
//! with independent parameters ([`LinkParams`]): a constant one-way
//! delay fixed at establishment, an optional per-direction bandwidth
//! cap, and a loss probability with deterministic
//! redelivery-after-timeout semantics. A [`LinkModel`] decides those
//! parameters per peer pair:
//!
//! * [`UniformLink`] is one flat latency plus one jitter draw per
//!   connection, shared by both directions, no loss, no link caps —
//!   the model every golden trace was recorded under;
//! * [`FullDuplexLink`] resolves a [`TopologySpec`]: peers map to
//!   classes, class pairs map to asymmetric per-direction parameters.
//!
//! [`NetModel`] is the serialisable selector stored on
//! [`SwarmSpec`](crate::swarm::SwarmSpec) (`net` section); build the
//! runtime model with [`NetModel::build`].
//!
//! ## Determinism contract
//!
//! `establish` is called exactly once per accepted connection, in
//! event order, with the swarm's master PRNG; any jitter draws happen
//! there and nowhere else. Loss draws happen per transmission on the
//! same PRNG, but only on links whose `loss > 0` — so a loss-free
//! model consumes no extra randomness and replays the golden traces
//! unchanged.

use crate::topology::TopologySpec;
use crate::tracker::PeerIdx;
use bt_wire::time::Duration;
use rand::rngs::SmallRng;
use rand::Rng;

/// Parameters of one direction of an established link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// Constant one-way delay (fixed at establishment, so TCP's
    /// in-order delivery holds without reordering logic).
    pub delay: Duration,
    /// Probability that a transmission is lost; a lost transmission is
    /// redelivered `rto` later (never dropped outright — the simulated
    /// transport is reliable, like TCP above a lossy path).
    pub loss: f64,
    /// Per-direction bandwidth cap in bytes/second (`None` = the link
    /// itself is never the bottleneck).
    pub bandwidth: Option<u64>,
    /// Retransmission timeout added to a lost transmission's delivery.
    pub rto: Duration,
}

impl LinkParams {
    /// A lossless, uncapped direction with the given delay — what
    /// [`UniformLink`] gives every connection.
    pub fn flat(delay: Duration) -> LinkParams {
        LinkParams {
            delay,
            loss: 0.0,
            bandwidth: None,
            rto: Duration::ZERO,
        }
    }
}

/// Decides per-connection link parameters. See the module docs for the
/// determinism contract.
pub trait LinkModel: Send {
    /// Control-plane one-way delay: dial setup and tracker responses.
    fn base_delay(&self) -> Duration;

    /// Parameters for a new connection, as `(from -> to, to -> from)`.
    /// Called once per accepted connection with the swarm's master
    /// PRNG; all establishment-time draws must happen here.
    fn establish(&self, from: PeerIdx, to: PeerIdx, rng: &mut SmallRng)
        -> (LinkParams, LinkParams);
}

/// The uniform network model: one flat latency plus a per-connection
/// jitter draw shared by both directions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformLink {
    /// Base one-way delay for every link and the control plane.
    pub latency: Duration,
    /// Per-connection extra delay drawn uniformly from `[0, jitter]`.
    pub jitter: Duration,
}

impl LinkModel for UniformLink {
    fn base_delay(&self) -> Duration {
        self.latency
    }

    fn establish(
        &self,
        _from: PeerIdx,
        _to: PeerIdx,
        rng: &mut SmallRng,
    ) -> (LinkParams, LinkParams) {
        // One sample, only when jitter is non-zero, shared by both
        // directions: the golden traces pin this draw sequence.
        let delay = self.latency
            + Duration(if self.jitter.0 > 0 {
                rng.random_range(0..=self.jitter.0)
            } else {
                0
            });
        let p = LinkParams::flat(delay);
        (p, p)
    }
}

/// A resolved [`TopologySpec`]: class membership per peer plus a dense
/// class-pair parameter matrix, queried in O(1) per establishment.
#[derive(Debug, Clone)]
pub struct FullDuplexLink {
    base_delay: Duration,
    rto: Duration,
    /// Class index per peer (resolved once from `(seed, index)`).
    class_of: Vec<u8>,
    /// Class names, for reporting.
    class_names: Vec<String>,
    /// Row-major `classes × classes` matrix of directed link specs.
    matrix: Vec<crate::topology::LinkSpec>,
    k: usize,
}

impl FullDuplexLink {
    /// Resolve `spec` over a swarm of `num_peers` peers. Class
    /// membership hashes `(seed, peer index)` — the master PRNG is
    /// untouched, so the rest of the run's draw sequence is unchanged
    /// by the choice of topology.
    ///
    /// # Panics
    /// If the spec fails [`TopologySpec::validate`] (more than 255
    /// classes also rejected).
    pub fn new(spec: &TopologySpec, num_peers: usize, seed: u64) -> FullDuplexLink {
        spec.validate().expect("valid topology");
        let k = spec.classes.len();
        assert!(k <= u8::MAX as usize + 1, "at most 256 peer classes");
        let mut matrix = Vec::with_capacity(k * k);
        for a in &spec.classes {
            for b in &spec.classes {
                matrix.push(
                    spec.resolve(&a.name, &b.name)
                        .expect("validate() covered every pair")
                        .clone(),
                );
            }
        }
        let class_of = (0..num_peers)
            .map(|i| spec.class_index(seed, i) as u8)
            .collect();
        FullDuplexLink {
            base_delay: spec.base_delay,
            rto: spec.rto,
            class_of,
            class_names: spec.classes.iter().map(|c| c.name.clone()).collect(),
            matrix,
            k,
        }
    }

    /// The class name a peer resolved to.
    pub fn class_name(&self, peer: PeerIdx) -> &str {
        &self.class_names[usize::from(self.class_of[peer])]
    }

    fn direction(&self, from: PeerIdx, to: PeerIdx, rng: &mut SmallRng) -> LinkParams {
        let spec = &self.matrix
            [usize::from(self.class_of[from]) * self.k + usize::from(self.class_of[to])];
        let delay = spec.delay
            + Duration(if spec.jitter.0 > 0 {
                rng.random_range(0..=spec.jitter.0)
            } else {
                0
            });
        LinkParams {
            delay,
            loss: spec.loss,
            bandwidth: spec.bandwidth,
            rto: self.rto,
        }
    }
}

impl LinkModel for FullDuplexLink {
    fn base_delay(&self) -> Duration {
        self.base_delay
    }

    fn establish(
        &self,
        from: PeerIdx,
        to: PeerIdx,
        rng: &mut SmallRng,
    ) -> (LinkParams, LinkParams) {
        // Per-direction draws, forward direction first — the defined
        // order is part of the determinism contract.
        let ab = self.direction(from, to, rng);
        let ba = self.direction(to, from, rng);
        (ab, ba)
    }
}

/// The serialisable network-model section of a
/// [`SwarmSpec`](crate::swarm::SwarmSpec). Absent (`None`) means a
/// [`UniformLink`] at the default delays (see
/// [`SwarmSpec::net_model`](crate::swarm::SwarmSpec::net_model)).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum NetModel {
    /// Flat latency/jitter on every link.
    Uniform {
        /// Base one-way delay.
        latency: Duration,
        /// Per-connection jitter bound.
        jitter: Duration,
    },
    /// Full-duplex per-link bandwidth/latency/loss over a topology.
    FullDuplex(TopologySpec),
}

impl NetModel {
    /// The uniform model with explicit parameters.
    pub fn uniform(latency: Duration, jitter: Duration) -> NetModel {
        NetModel::Uniform { latency, jitter }
    }

    /// A full-duplex model from a built-in topology preset name
    /// (see [`crate::topology::PRESET_NAMES`]).
    pub fn preset(name: &str) -> Option<NetModel> {
        TopologySpec::preset(name).map(NetModel::FullDuplex)
    }

    /// A short human label for logs and reports.
    pub fn label(&self) -> String {
        match self {
            NetModel::Uniform { latency, jitter } => {
                format!("uniform({}ms+{}ms)", latency.0 / 1000, jitter.0 / 1000)
            }
            NetModel::FullDuplex(spec) => format!("full-duplex({})", spec.name),
        }
    }

    /// Build the runtime model for a swarm of `num_peers` peers.
    pub fn build(&self, num_peers: usize, seed: u64) -> Box<dyn LinkModel> {
        match self {
            NetModel::Uniform { latency, jitter } => Box::new(UniformLink {
                latency: *latency,
                jitter: *jitter,
            }),
            NetModel::FullDuplex(spec) => Box::new(FullDuplexLink::new(spec, num_peers, seed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn uniform_link_draws_one_sample() {
        // The model must consume exactly one sample from the shared
        // stream: latency + U[0, jitter].
        let model = UniformLink {
            latency: Duration::from_millis(50),
            jitter: Duration::from_millis(100),
        };
        let mut a = SmallRng::seed_from_u64(99);
        let mut b = SmallRng::seed_from_u64(99);
        let (ab, ba) = model.establish(0, 1, &mut a);
        let expected =
            Duration::from_millis(50) + Duration(b.random_range(0..=Duration::from_millis(100).0));
        assert_eq!(ab.delay, expected);
        assert_eq!(ab, ba);
        assert_eq!(a.random_range(0..1u64 << 40), b.random_range(0..1u64 << 40));
    }

    #[test]
    fn uniform_link_zero_jitter_consumes_no_randomness() {
        let model = UniformLink {
            latency: Duration::from_millis(50),
            jitter: Duration::ZERO,
        };
        let mut a = SmallRng::seed_from_u64(5);
        let mut b = SmallRng::seed_from_u64(5);
        let (ab, _) = model.establish(3, 4, &mut a);
        assert_eq!(ab, LinkParams::flat(Duration::from_millis(50)));
        assert_eq!(a.random_range(0..1u64 << 40), b.random_range(0..1u64 << 40));
    }

    #[test]
    fn full_duplex_directions_differ_by_sender_class() {
        let spec = TopologySpec::asymmetric_dsl();
        let model = FullDuplexLink::new(&spec, 200, 11);
        let mut rng = SmallRng::seed_from_u64(1);
        // Find a dsl peer and a campus peer.
        let dsl = (0..200).find(|&i| model.class_name(i) == "dsl").unwrap();
        let campus = (0..200).find(|&i| model.class_name(i) == "campus").unwrap();
        let (up, down) = model.establish(dsl, campus, &mut rng);
        assert_eq!(up.bandwidth, Some(14_000), "dsl uplink is narrow");
        assert_eq!(down.bandwidth, Some(400_000), "campus uplink is wide");
        assert!(up.loss > down.loss);
        assert_eq!(up.rto, spec.rto);
    }

    #[test]
    fn net_model_json_roundtrip() {
        let uniform = NetModel::uniform(Duration::from_millis(40), Duration::from_millis(80));
        let wan = NetModel::preset("two_isp_bottleneck").unwrap();
        for model in [uniform, wan] {
            let text = serde_json::to_string(&model).unwrap();
            let back: NetModel = serde_json::from_str(&text).unwrap();
            assert_eq!(model, back);
        }
        assert!(NetModel::preset("missing").is_none());
    }
}
