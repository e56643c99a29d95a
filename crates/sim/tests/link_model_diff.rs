//! Differential tests for the link-model layer.
//!
//! The redesign contract has two halves:
//!
//! 1. A spec without a `net` section and an explicit `UniformLink` at
//!    the default delays are the same run **event for event** — same
//!    traces, same digests. The repo-level golden suite
//!    (`tests/golden_traces.rs`) pins the Table I fingerprints and the
//!    `flash_crowd_10k` digest on top of this.
//! 2. Full-duplex topologies (per-direction bandwidth, loss,
//!    asymmetric delay) stay deterministic: same spec + seed ⇒ same
//!    digest, whatever thread count runs the swarms.

use bt_sim::swarm::{Swarm, SwarmSpec};
use bt_sim::topology::TopologySpec;
use bt_sim::{BehaviorProfile, LinkRule, LinkSpec, NetModel};
use bt_wire::time::Duration;

/// One seed and four leechers over eight pieces; peer 1 instrumented.
fn tiny_spec(seed: u64) -> SwarmSpec {
    let mut peers = vec![BehaviorProfile::seed()];
    peers.extend(std::iter::repeat_n(
        BehaviorProfile::leecher(Duration::ZERO),
        4,
    ));
    SwarmSpec {
        seed,
        total_len: 8 * 256 * 1024,
        piece_len: 256 * 1024,
        duration: Duration::from_secs(4000),
        peers,
        local: Some(1),
        ..SwarmSpec::default()
    }
}

/// [`tiny_spec`] over a full-duplex topology, run for `secs`.
fn over(seed: u64, topology: TopologySpec, secs: u64) -> SwarmSpec {
    SwarmSpec {
        net: Some(NetModel::FullDuplex(topology)),
        duration: Duration::from_secs(secs),
        ..tiny_spec(seed)
    }
}

/// An explicit `NetModel::Uniform` with the default parameters replays
/// the `net: None` run event for event — traces, completions and
/// digests all byte-identical.
#[test]
fn explicit_uniform_matches_unset_net_event_for_event() {
    for seed in [3, 7, 42] {
        let unset = Swarm::new(tiny_spec(seed)).run();
        let typed = Swarm::new(SwarmSpec {
            net: Some(NetModel::uniform(
                Duration::from_millis(50),
                Duration::from_millis(100),
            )),
            ..tiny_spec(seed)
        })
        .run();
        assert_eq!(unset.events_processed, typed.events_processed);
        assert_eq!(unset.completion, typed.completion);
        assert_eq!(
            unset.trace.as_ref().unwrap().events,
            typed.trace.as_ref().unwrap().events
        );
        assert_eq!(unset.digest(), typed.digest(), "seed {seed}");
    }
}

/// Specs serialized before the link layer carry no `net` section;
/// deserializing one must resolve to the same uniform model (and the
/// same run) as the original spec object.
#[test]
fn json_spec_without_net_section_replays_identically() {
    let spec = tiny_spec(11);
    let json = serde_json::to_string(&spec).unwrap();
    // Simulate such a file: strip the net section entirely.
    let stripped = json.replace(",\"net\":null", "");
    assert_ne!(json, stripped, "test must actually strip the field");
    let revived: SwarmSpec = serde_json::from_str(&stripped).unwrap();
    assert_eq!(revived.net, None);
    assert_eq!(spec.net_model(), revived.net_model());
    let a = Swarm::new(spec).run();
    let b = Swarm::new(revived).run();
    assert_eq!(a.digest(), b.digest());
}

/// A key the spec does not have — the removed `latency`, a misspelt
/// `sample_global` — is an error naming it, not a run on defaults.
#[test]
fn json_spec_with_an_unknown_key_is_rejected_by_name() {
    let json = serde_json::to_string(&tiny_spec(11)).unwrap();
    let _: SwarmSpec = serde_json::from_str(&json).expect("the spec itself loads");
    for (key, value) in [("latency", "80"), ("sample_gloabl", "true")] {
        let with_key = json.replacen('{', &format!("{{\"{key}\":{value},"), 1);
        let err = serde_json::from_str::<SwarmSpec>(&with_key).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!("unknown field `{key}` in SwarmSpec")
        );
    }
}

/// Full-duplex topologies are deterministic across repeat runs, and a
/// JSON round-trip of the topology changes nothing.
#[test]
fn topology_runs_are_deterministic_and_json_stable() {
    for name in bt_sim::PRESET_NAMES {
        let topo = TopologySpec::preset(name).unwrap();
        let build = |t: TopologySpec| over(5, t, 4000);
        let a = Swarm::new(build(topo.clone())).run();
        let b = Swarm::new(build(topo.clone())).run();
        let via_json = Swarm::new(build(TopologySpec::from_json(&topo.to_json()).unwrap())).run();
        assert_eq!(a.digest(), b.digest(), "{name}: repeat run diverged");
        assert_eq!(
            a.digest(),
            via_json.digest(),
            "{name}: JSON round-trip diverged"
        );
        assert!(a.completed_peers >= 3, "{name}: swarm fell apart");
    }
}

/// The lossy bottleneck topology stays deterministic when many swarms
/// run concurrently — the `--jobs` contract: worker threads share
/// nothing, so the digest is a pure function of spec + seed.
#[test]
fn lossy_topology_is_deterministic_across_jobs() {
    let spec = over(13, TopologySpec::two_isp_bottleneck(), 8000);
    let sequential = Swarm::new(spec.clone()).run().digest();
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let spec = spec.clone();
            std::thread::spawn(move || Swarm::new(spec).run().digest())
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), sequential);
    }
}

/// Heavy loss slows a swarm down but never wedges it: redelivery is
/// delay-only (reliable transport over a lossy path) and the per-link
/// watermark keeps deliveries in send order.
#[test]
fn heavy_loss_is_survivable() {
    let mut lossy = TopologySpec::homogeneous();
    lossy.name = "lossy".to_owned();
    lossy.rules[0].link.loss = 0.2;
    lossy.rules[0].link.jitter = Duration::from_millis(40);
    let result = Swarm::new(over(17, lossy, 12_000)).run();
    assert_eq!(result.completed_peers, 4, "loss must delay, not starve");
}

/// A narrow per-link bandwidth cap actually binds: the same swarm
/// takes longer to finish than with uncapped links.
#[test]
fn per_link_bandwidth_caps_bind() {
    let capped_topo = |bandwidth: Option<u64>| TopologySpec {
        name: "capped".to_owned(),
        base_delay: Duration::from_millis(50),
        rto: Duration::from_secs(1),
        classes: vec![bt_sim::ClassSpec {
            name: "peer".to_owned(),
            weight: 1,
        }],
        rules: vec![LinkRule {
            from: "*".to_owned(),
            to: "*".to_owned(),
            link: LinkSpec {
                delay: Duration::from_millis(30),
                jitter: Duration::ZERO,
                bandwidth,
                loss: 0.0,
            },
        }],
    };
    let run = |bw| Swarm::new(over(23, capped_topo(bw), 30_000)).run();
    let open = run(None);
    let capped = run(Some(4_000)); // 4 kB/s per link vs 20 kB/s peer uplink
    assert_eq!(open.completed_peers, 4);
    assert_eq!(capped.completed_peers, 4);
    let finish =
        |r: &bt_sim::swarm::SwarmResult| r.completion.iter().flatten().map(|t| t.0).max().unwrap();
    assert!(
        finish(&capped) > finish(&open) * 3 / 2,
        "4 kB/s links should stretch completion well past the open run \
         ({} vs {})",
        finish(&capped),
        finish(&open)
    );
}

/// Different topologies genuinely change the dynamics — the DSL mix
/// must not accidentally reduce to the uniform path.
#[test]
fn topologies_change_the_run() {
    let uniform = Swarm::new(tiny_spec(29)).run();
    let dsl = Swarm::new(over(29, TopologySpec::asymmetric_dsl(), 4000)).run();
    assert_ne!(uniform.digest(), dsl.digest());
}
