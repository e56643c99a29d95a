//! Choke-equilibrium analysis — the §IV-B.2 future-work item.
//!
//! "We have seen that the choke algorithm fosters reciprocation. One
//! important reason is that each peer elects a small subset of peers to
//! upload data to. This stability improves the level of reciprocation.
//! … Our guess is that the choke algorithm leads to an equilibrium in
//! the peer selection. The exploration of this equilibrium is
//! fundamental to the understanding of the choke algorithm efficiency."
//!
//! This module quantifies that stability from the §III-C choke log:
//! unchoke-slot *tenures* (how long a peer stays continuously unchoked),
//! the per-round churn of the active set, and the concentration of
//! unchoke time over peers. A stable leecher-state equilibrium shows as
//! long regular-slot tenures and low round-to-round churn; the new
//! seed-state algorithm shows the opposite by design (service-time
//! rotation).

use crate::intervals::{Interval, IntervalBuilder};
use crate::stats::Cdf;
use bt_instrument::trace::{Trace, TraceEvent};
use bt_wire::time::Instant;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Stability metrics for one local-peer state window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EquilibriumSummary {
    /// Number of unchoke tenures observed (one per continuous unchoke).
    pub tenures: usize,
    /// Tenure-length CDF in seconds.
    pub tenure_cdf: Cdf,
    /// Mean tenure in seconds.
    pub mean_tenure_secs: f64,
    /// Fraction of total unchoke-time held by the top 3 peers — the
    /// "small subset elected to upload to" (§IV-B.2).
    pub top3_unchoke_share: f64,
    /// Mean number of unchoke-set changes per 10-second rechoke round
    /// (0 = perfectly stable active set, ≥ 2 = heavy rotation).
    pub churn_per_round: f64,
}

fn summarise(
    tenures_by_peer: &HashMap<u32, Vec<Interval>>,
    window_start: Instant,
    window_end: Instant,
    transitions: usize,
) -> EquilibriumSummary {
    let mut lengths: Vec<f64> = Vec::new();
    let mut per_peer_total: Vec<f64> = Vec::new();
    for ivs in tenures_by_peer.values() {
        let mut total = 0.0;
        for iv in ivs {
            let s = iv.start.max(window_start);
            let e = iv.end.min(window_end);
            if e > s {
                let len = (e - s).as_secs_f64();
                lengths.push(len);
                total += len;
            }
        }
        if total > 0.0 {
            per_peer_total.push(total);
        }
    }
    lengths.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let mean = if lengths.is_empty() {
        0.0
    } else {
        lengths.iter().sum::<f64>() / lengths.len() as f64
    };
    per_peer_total.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
    let total_time: f64 = per_peer_total.iter().sum();
    let top3: f64 = per_peer_total.iter().take(3).sum();
    let rounds = ((window_end.saturating_since(window_start)).as_secs_f64() / 10.0).max(1.0);
    EquilibriumSummary {
        tenures: lengths.len(),
        mean_tenure_secs: mean,
        tenure_cdf: Cdf::new(lengths),
        top3_unchoke_share: if total_time > 0.0 {
            top3 / total_time
        } else {
            0.0
        },
        churn_per_round: transitions as f64 / rounds,
    }
}

/// Compute the equilibrium summary for the leecher-state and seed-state
/// windows of a trace.
pub fn equilibrium(trace: &Trace) -> (EquilibriumSummary, EquilibriumSummary) {
    let seed_at = trace.meta.seed_at.unwrap_or(trace.meta.session_end);
    let end = trace.meta.session_end;

    let mut builders: HashMap<u32, IntervalBuilder> = HashMap::new();
    let mut transitions_ls = 0usize;
    let mut transitions_ss = 0usize;
    for (t, ev) in trace.iter() {
        if let TraceEvent::LocalChoke { peer, choked, .. } = ev {
            builders.entry(*peer).or_default().transition(t, !*choked);
            if t < seed_at {
                transitions_ls += 1;
            } else {
                transitions_ss += 1;
            }
        }
    }
    let tenures: HashMap<u32, Vec<Interval>> = builders
        .into_iter()
        .map(|(h, b)| (h, b.finish(end)))
        .collect();

    let ls = summarise(&tenures, Instant::ZERO, seed_at, transitions_ls);
    let ss = summarise(&tenures, seed_at, end, transitions_ss);
    (ls, ss)
}

impl EquilibriumSummary {
    /// Median tenure in seconds.
    pub fn median_tenure_secs(&self) -> f64 {
        self.tenure_cdf.median()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_instrument::trace::{TraceMeta, UnchokeRole};

    fn meta(seed_at: u64) -> TraceMeta {
        TraceMeta {
            torrent: "q".into(),
            torrent_id: 7,
            num_pieces: 10,
            num_blocks: 160,
            initial_seeds: 1,
            initial_leechers: 5,
            session_end: Instant::from_secs(1000),
            seed_at: Some(Instant::from_secs(seed_at)),
        }
    }

    fn unchoke(tr: &mut Trace, t: u64, peer: u32) {
        tr.push(
            Instant::from_secs(t),
            TraceEvent::LocalChoke {
                peer,
                choked: false,
                role: Some(UnchokeRole::Regular),
            },
        );
    }

    fn choke(tr: &mut Trace, t: u64, peer: u32) {
        tr.push(
            Instant::from_secs(t),
            TraceEvent::LocalChoke {
                peer,
                choked: true,
                role: None,
            },
        );
    }

    #[test]
    fn stable_partner_shows_long_tenure() {
        let mut tr = Trace::new(meta(500));
        unchoke(&mut tr, 0, 1); // held for the entire 500 s leecher state
        unchoke(&mut tr, 100, 2);
        choke(&mut tr, 130, 2); // a brief optimistic visit
        let (ls, _ss) = equilibrium(&tr);
        assert_eq!(ls.tenures, 2);
        // Peer 1's open tenure is clamped to the LS window (500 s).
        assert_eq!(ls.tenure_cdf.quantile(1.0), 500.0);
        assert_eq!(ls.tenure_cdf.quantile(0.0), 30.0);
        assert!(ls.top3_unchoke_share > 0.99, "two peers → top3 covers all");
    }

    #[test]
    fn churn_counts_transitions_per_round() {
        let mut tr = Trace::new(meta(100)); // 10 rechoke rounds in LS
        for r in 0..10u64 {
            unchoke(&mut tr, r * 10, (r % 3) as u32);
            choke(&mut tr, r * 10 + 5, (r % 3) as u32);
        }
        let (ls, _) = equilibrium(&tr);
        assert_eq!(ls.tenures, 10);
        assert!(
            (ls.churn_per_round - 2.0).abs() < 1e-9,
            "{}",
            ls.churn_per_round
        );
        assert!((ls.mean_tenure_secs - 5.0).abs() < 1e-9);
    }

    #[test]
    fn windows_split_at_seed_transition() {
        let mut tr = Trace::new(meta(100));
        unchoke(&mut tr, 0, 1);
        choke(&mut tr, 50, 1); // LS tenure: 50 s
        unchoke(&mut tr, 200, 2);
        choke(&mut tr, 260, 2); // SS tenure: 60 s
        let (ls, ss) = equilibrium(&tr);
        assert_eq!(ls.tenures, 1);
        assert_eq!(ss.tenures, 1);
        assert_eq!(ls.tenure_cdf.quantile(0.5), 50.0);
        assert_eq!(ss.tenure_cdf.quantile(0.5), 60.0);
    }

    #[test]
    fn tenure_spanning_transition_counts_in_both() {
        let mut tr = Trace::new(meta(100));
        unchoke(&mut tr, 50, 3); // unchoked 50 → session end (1000)
        let (ls, ss) = equilibrium(&tr);
        assert_eq!(ls.tenure_cdf.quantile(0.5), 50.0); // 50..100
        assert_eq!(ss.tenure_cdf.quantile(0.5), 900.0); // 100..1000
    }

    #[test]
    fn empty_trace_is_quiet() {
        let tr = Trace::new(meta(100));
        let (ls, ss) = equilibrium(&tr);
        assert_eq!(ls.tenures, 0);
        assert_eq!(ss.tenures, 0);
        assert_eq!(ls.churn_per_round, 0.0);
        assert_eq!(ss.top3_unchoke_share, 0.0);
    }
}
