//! Topology providers for the per-link network model.
//!
//! A [`TopologySpec`] describes a swarm's wide-area substrate as peer
//! *classes* (DSL homes, cable homes, campus boxes, ISP regions…) plus
//! directed class-pair *link rules*. The spec is plain data — JSON in,
//! JSON out — so WAN scenarios live in files and replay bit-for-bit,
//! in the spirit of topology-zoo generators. Named presets cover the
//! paper-adjacent cases; [`TopologySpec::from_json`] loads custom ones.
//!
//! Resolution is deterministic: peers are assigned to classes by a
//! seeded hash of their peer index (never the swarm's master PRNG, so
//! attaching a topology to an existing spec does not shift any other
//! random draw), and the first rule matching `(from_class, to_class)`
//! wins — put specific rules before the `*` catch-alls.

use bt_wire::time::Duration;

/// Names of the built-in topology presets, in presentation order.
pub const PRESET_NAMES: [&str; 3] = ["homogeneous", "asymmetric_dsl", "two_isp_bottleneck"];

/// A peer class: a name plus a selection weight. Peers are distributed
/// over classes proportionally to weight, deterministically per
/// `(seed, peer index)`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ClassSpec {
    /// Class name, referenced by [`LinkRule::from`]/[`LinkRule::to`].
    pub name: String,
    /// Relative share of the swarm assigned to this class.
    pub weight: u32,
}

/// One direction of a link: fixed one-way delay plus an establishment
/// jitter draw, an optional per-direction bandwidth cap, and a loss
/// probability.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LinkSpec {
    /// Fixed one-way delay for this direction.
    pub delay: Duration,
    /// Extra per-link delay drawn once, uniformly from `[0, jitter]`,
    /// when the connection is established (constant thereafter, so
    /// in-order delivery holds).
    pub jitter: Duration,
    /// Per-direction bandwidth cap in bytes/second (`None` = the
    /// direction is never the bottleneck; endpoint capacities rule).
    pub bandwidth: Option<u64>,
    /// Probability that a transmission is lost and redelivered one
    /// retransmission timeout late (see DESIGN.md §10: loss delays,
    /// it never drops protocol state).
    pub loss: f64,
}

impl LinkSpec {
    /// A symmetric, lossless, uncapped direction with the given delay.
    pub fn flat(delay: Duration) -> LinkSpec {
        LinkSpec {
            delay,
            jitter: Duration::ZERO,
            bandwidth: None,
            loss: 0.0,
        }
    }
}

/// A directed class-pair rule: `from`/`to` are class names or the
/// wildcard `"*"`. The first matching rule in [`TopologySpec::rules`]
/// decides the link parameters for that direction.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LinkRule {
    /// Sending-side class name, or `"*"`.
    pub from: String,
    /// Receiving-side class name, or `"*"`.
    pub to: String,
    /// Link parameters for the matching direction.
    pub link: LinkSpec,
}

/// A full WAN topology: classes, directed link rules, and the
/// control-plane constants shared by every peer.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TopologySpec {
    /// Preset or file identity, echoed in logs and reports.
    pub name: String,
    /// Control-plane one-way delay: dial setup and tracker responses.
    pub base_delay: Duration,
    /// Retransmission timeout: a lost transmission is redelivered this
    /// much later than its normal arrival.
    pub rto: Duration,
    /// Peer classes; must be non-empty with positive weights.
    pub classes: Vec<ClassSpec>,
    /// Directed link rules, first match wins. Must cover every ordered
    /// class pair (a trailing `*`/`*` rule is the usual backstop).
    pub rules: Vec<LinkRule>,
}

impl TopologySpec {
    /// Look up a built-in preset by name (see [`PRESET_NAMES`]).
    pub fn preset(name: &str) -> Option<TopologySpec> {
        match name {
            "homogeneous" => Some(Self::homogeneous()),
            "asymmetric_dsl" => Some(Self::asymmetric_dsl()),
            "two_isp_bottleneck" => Some(Self::two_isp_bottleneck()),
            _ => None,
        }
    }

    /// One class, identical full-duplex links everywhere: the WAN
    /// machinery with none of the heterogeneity. Useful as a control.
    pub fn homogeneous() -> TopologySpec {
        TopologySpec {
            name: "homogeneous".to_owned(),
            base_delay: Duration::from_millis(50),
            rto: Duration::from_secs(1),
            classes: vec![ClassSpec {
                name: "peer".to_owned(),
                weight: 1,
            }],
            rules: vec![LinkRule {
                from: "*".to_owned(),
                to: "*".to_owned(),
                link: LinkSpec::flat(Duration::from_millis(60)),
            }],
        }
    }

    /// The paper's real-world mix (§IV-A): mostly asymmetric DSL homes,
    /// some cable, a few campus boxes. Sender-side uplink dominates, so
    /// rules key on the *from* class: DSL uploads trickle through a
    /// narrow, lossy pipe while campus peers talk fast and clean.
    pub fn asymmetric_dsl() -> TopologySpec {
        TopologySpec {
            name: "asymmetric_dsl".to_owned(),
            base_delay: Duration::from_millis(50),
            rto: Duration::from_secs(1),
            classes: vec![
                ClassSpec {
                    name: "dsl".to_owned(),
                    weight: 70,
                },
                ClassSpec {
                    name: "cable".to_owned(),
                    weight: 25,
                },
                ClassSpec {
                    name: "campus".to_owned(),
                    weight: 5,
                },
            ],
            rules: vec![
                LinkRule {
                    from: "campus".to_owned(),
                    to: "campus".to_owned(),
                    link: LinkSpec {
                        delay: Duration::from_millis(15),
                        jitter: Duration::from_millis(10),
                        bandwidth: None,
                        loss: 0.0,
                    },
                },
                LinkRule {
                    from: "campus".to_owned(),
                    to: "*".to_owned(),
                    link: LinkSpec {
                        delay: Duration::from_millis(35),
                        jitter: Duration::from_millis(20),
                        bandwidth: Some(400_000),
                        loss: 0.001,
                    },
                },
                LinkRule {
                    from: "cable".to_owned(),
                    to: "*".to_owned(),
                    link: LinkSpec {
                        delay: Duration::from_millis(50),
                        jitter: Duration::from_millis(40),
                        bandwidth: Some(48_000),
                        loss: 0.005,
                    },
                },
                LinkRule {
                    from: "dsl".to_owned(),
                    to: "*".to_owned(),
                    link: LinkSpec {
                        delay: Duration::from_millis(70),
                        jitter: Duration::from_millis(60),
                        bandwidth: Some(14_000),
                        loss: 0.01,
                    },
                },
            ],
        }
    }

    /// Two equal ISP regions with fast clean intra-region links and a
    /// narrow, slow, slightly lossy inter-region bottleneck — the
    /// regime where rarest-first must keep both sides piece-diverse.
    pub fn two_isp_bottleneck() -> TopologySpec {
        TopologySpec {
            name: "two_isp_bottleneck".to_owned(),
            base_delay: Duration::from_millis(50),
            rto: Duration::from_secs(1),
            classes: vec![
                ClassSpec {
                    name: "isp_a".to_owned(),
                    weight: 1,
                },
                ClassSpec {
                    name: "isp_b".to_owned(),
                    weight: 1,
                },
            ],
            rules: vec![
                LinkRule {
                    from: "isp_a".to_owned(),
                    to: "isp_a".to_owned(),
                    link: LinkSpec {
                        delay: Duration::from_millis(20),
                        jitter: Duration::from_millis(10),
                        bandwidth: None,
                        loss: 0.0,
                    },
                },
                LinkRule {
                    from: "isp_b".to_owned(),
                    to: "isp_b".to_owned(),
                    link: LinkSpec {
                        delay: Duration::from_millis(20),
                        jitter: Duration::from_millis(10),
                        bandwidth: None,
                        loss: 0.0,
                    },
                },
                LinkRule {
                    from: "*".to_owned(),
                    to: "*".to_owned(),
                    link: LinkSpec {
                        delay: Duration::from_millis(95),
                        jitter: Duration::from_millis(20),
                        bandwidth: Some(24_000),
                        loss: 0.003,
                    },
                },
            ],
        }
    }

    /// Parse and validate a topology from its JSON form (the same shape
    /// [`to_json`](TopologySpec::to_json) writes; schema in DESIGN.md
    /// §10).
    pub fn from_json(text: &str) -> Result<TopologySpec, String> {
        let spec: TopologySpec =
            serde_json::from_str(text).map_err(|e| format!("topology JSON: {e}"))?;
        spec.validate()?;
        Ok(spec)
    }

    /// Serialise to pretty JSON (loadable by `from_json`).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("topology serialises")
    }

    /// Structural checks: between 1 and 256 classes with positive total
    /// weight, loss probabilities in `[0, 1)`, rule names resolving to
    /// classes (or `"*"`), and every ordered class pair covered by some
    /// rule.
    pub fn validate(&self) -> Result<(), String> {
        if self.classes.is_empty() {
            return Err("topology has no classes".to_owned());
        }
        if self.classes.len() > 256 {
            return Err(format!(
                "topology has {} classes, at most 256",
                self.classes.len()
            ));
        }
        if self
            .classes
            .iter()
            .map(|c| u64::from(c.weight))
            .sum::<u64>()
            == 0
        {
            return Err("topology class weights sum to zero".to_owned());
        }
        let known = |name: &str| name == "*" || self.classes.iter().any(|c| c.name == name);
        for rule in &self.rules {
            if !known(&rule.from) {
                return Err(format!("link rule names unknown class `{}`", rule.from));
            }
            if !known(&rule.to) {
                return Err(format!("link rule names unknown class `{}`", rule.to));
            }
            if !(0.0..1.0).contains(&rule.link.loss) {
                return Err(format!(
                    "loss probability {} outside [0, 1)",
                    rule.link.loss
                ));
            }
        }
        for a in &self.classes {
            for b in &self.classes {
                if self.resolve(&a.name, &b.name).is_none() {
                    return Err(format!("no link rule covers {} -> {}", a.name, b.name));
                }
            }
        }
        Ok(())
    }

    /// First rule matching the directed class pair, if any.
    pub fn resolve(&self, from: &str, to: &str) -> Option<&LinkSpec> {
        self.rules
            .iter()
            .find(|r| (r.from == "*" || r.from == from) && (r.to == "*" || r.to == to))
            .map(|r| &r.link)
    }

    /// Deterministic class index for a peer: a seeded hash of the peer
    /// index, weighted by class shares. Independent of the swarm's
    /// master PRNG by design — see the module docs.
    pub fn class_index(&self, seed: u64, peer: usize) -> usize {
        let total: u64 = self.classes.iter().map(|c| u64::from(c.weight)).sum();
        let mut pick = splitmix64(seed ^ (peer as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) % total;
        for (i, class) in self.classes.iter().enumerate() {
            let w = u64::from(class.weight);
            if pick < w {
                return i;
            }
            pick -= w;
        }
        self.classes.len() - 1
    }
}

/// SplitMix64 — the standard seeded index hash (also used by the
/// tracker's incremental shuffle).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for name in PRESET_NAMES {
            let spec = TopologySpec::preset(name).expect(name);
            assert_eq!(spec.name, name);
            spec.validate().expect(name);
        }
        assert!(TopologySpec::preset("nope").is_none());
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        for name in PRESET_NAMES {
            let spec = TopologySpec::preset(name).unwrap();
            let back = TopologySpec::from_json(&spec.to_json()).unwrap();
            assert_eq!(spec, back);
        }
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        // What `swarmrun --topology FILE` and `swarmrun SPEC.json` read.
        let bomb = "[".repeat(300_000);
        assert!(TopologySpec::from_json(&bomb).is_err());
        assert!(serde_json::from_str::<crate::SwarmSpec>(&bomb).is_err());
        let nested_spec = format!("{{\"net\":{}", "{\"FullDuplex\":".repeat(300_000));
        assert!(serde_json::from_str::<crate::SwarmSpec>(&nested_spec).is_err());
    }

    #[test]
    fn unknown_keys_are_rejected_by_name() {
        let json = TopologySpec::asymmetric_dsl().to_json();
        // A typo at the top level, and one inside a nested link rule.
        let top = json.replacen("\"rto\"", "\"rot\"", 1);
        let err = TopologySpec::from_json(&top).unwrap_err();
        assert_eq!(err, "topology JSON: unknown field `rot` in TopologySpec");
        let nested = json.replacen("\"loss\"", "\"los\"", 1);
        let err = TopologySpec::from_json(&nested).unwrap_err();
        assert_eq!(err, "topology JSON: unknown field `los` in LinkSpec");
    }

    #[test]
    fn validation_rejects_broken_specs() {
        let mut spec = TopologySpec::homogeneous();
        spec.rules[0].link.loss = 1.5;
        assert!(spec.validate().is_err());

        let mut spec = TopologySpec::homogeneous();
        spec.rules[0].from = "ghost".to_owned();
        assert!(spec.validate().is_err());

        let mut spec = TopologySpec::two_isp_bottleneck();
        spec.rules.pop(); // drop the *->* backstop: cross pairs uncovered
        assert!(spec.validate().is_err());

        // Peers store their class as a `u8`.
        let mut spec = TopologySpec::homogeneous();
        let class = spec.classes[0].clone();
        spec.classes = (0..257)
            .map(|i| ClassSpec {
                name: format!("c{i}"),
                ..class.clone()
            })
            .collect();
        assert_eq!(
            spec.validate(),
            Err("topology has 257 classes, at most 256".into())
        );
        spec.classes.pop();
        assert_eq!(spec.validate(), Ok(()));
    }

    #[test]
    fn rule_resolution_is_first_match() {
        let spec = TopologySpec::asymmetric_dsl();
        // campus->campus hits the specific rule, not campus->*.
        assert_eq!(
            spec.resolve("campus", "campus").unwrap().delay,
            Duration::from_millis(15)
        );
        assert_eq!(
            spec.resolve("campus", "dsl").unwrap().delay,
            Duration::from_millis(35)
        );
        assert_eq!(
            spec.resolve("dsl", "campus").unwrap().bandwidth,
            Some(14_000)
        );
    }

    #[test]
    fn class_assignment_is_deterministic_and_weighted() {
        let spec = TopologySpec::asymmetric_dsl();
        let a: Vec<usize> = (0..1000).map(|i| spec.class_index(7, i)).collect();
        let b: Vec<usize> = (0..1000).map(|i| spec.class_index(7, i)).collect();
        assert_eq!(a, b);
        // Weight 70/25/5 over 1000 peers: each class is populated and
        // roughly ordered by weight.
        let count = |k| a.iter().filter(|&&c| c == k).count();
        let (dsl, cable, campus) = (count(0), count(1), count(2));
        assert!(
            dsl > cable && cable > campus && campus > 0,
            "{dsl}/{cable}/{campus}"
        );
        // A different seed shuffles membership.
        let c: Vec<usize> = (0..1000).map(|i| spec.class_index(8, i)).collect();
        assert_ne!(a, c);
    }
}
