//! Transient-phase analysis (§IV-A.2).
//!
//! The paper's second headline finding: torrents in a startup phase have
//! low entropy, and "the duration of this phase depends only on the
//! upload capacity of the source of the content" — the initial seed must
//! push one copy of every piece at its constant upload rate, while
//! already-available pieces replicate exponentially. This module
//! estimates, from an instrumented trace:
//!
//! * the observed transient duration (how long some piece stayed absent
//!   from the peer set);
//! * the rare-piece drain rate from the rarest-set series' linear slope
//!   (figure 3's key observation), convertible to an implied seed upload
//!   rate to compare against the configured capacity.

use crate::replication::ReplicationSeries;
use serde::{Deserialize, Serialize};

/// Summary of a trace's transient phase.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransientSummary {
    /// Was the torrent ever observed in transient state (missing piece)?
    pub observed: bool,
    /// Last sample time (seconds) at which a piece was missing from the
    /// peer set; `None` if never. If this equals the series end, the
    /// torrent stayed transient throughout, like the paper's torrent 8.
    pub transient_until_secs: Option<f64>,
    /// Fraction of (non-empty-peer-set) samples with a missing piece.
    pub missing_fraction: f64,
    /// Slope of the rarest-set size over the transient window,
    /// pieces/second (negative = draining).
    pub drain_slope: f64,
    /// The drain slope converted to an implied source upload rate in
    /// bytes/second, given the piece size.
    pub implied_seed_rate: f64,
}

impl TransientSummary {
    /// Compute from a replication series and the torrent's piece size.
    pub fn from_series(series: &ReplicationSeries, piece_len: u32) -> TransientSummary {
        let informative: Vec<_> = series
            .points
            .iter()
            .filter(|p| p.peer_set_size > 0)
            .collect();
        let missing: Vec<_> = informative.iter().filter(|p| p.min == 0).collect();
        let observed = !missing.is_empty();
        let transient_until_secs = missing.last().map(|p| p.t_secs);
        let missing_fraction = if informative.is_empty() {
            0.0
        } else {
            missing.len() as f64 / informative.len() as f64
        };
        // Slope over the transient window only (afterwards the rarest set
        // reflects churn noise, not the drain).
        let window = ReplicationSeries {
            points: series
                .points
                .iter()
                .copied()
                .take_while(|p| transient_until_secs.is_some_and(|end| p.t_secs <= end))
                .collect(),
        };
        let drain_slope = window.rarest_set_slope();
        TransientSummary {
            observed,
            transient_until_secs,
            missing_fraction,
            drain_slope,
            implied_seed_rate: -drain_slope * f64::from(piece_len),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replication::ReplicationPoint;

    fn series(points: Vec<(f64, u32, u32, u32)>) -> ReplicationSeries {
        ReplicationSeries {
            points: points
                .into_iter()
                .map(|(t, min, rarest, ps)| ReplicationPoint {
                    t_secs: t,
                    min,
                    mean: 1.0,
                    max: 10,
                    rarest_set_size: rarest,
                    peer_set_size: ps,
                })
                .collect(),
        }
    }

    #[test]
    fn steady_torrent_has_no_transient() {
        let s = series(vec![(10.0, 1, 3, 40), (20.0, 2, 2, 40)]);
        let t = TransientSummary::from_series(&s, 256 * 1024);
        assert!(!t.observed);
        assert_eq!(t.transient_until_secs, None);
        assert_eq!(t.missing_fraction, 0.0);
    }

    #[test]
    fn linear_drain_implies_seed_rate() {
        // 100 rare pieces draining 1 piece / 10 s at 256 kB pieces
        // ⇒ implied rate ≈ 26.2 kB/s.
        let pts: Vec<(f64, u32, u32, u32)> = (0..100)
            .map(|i| (f64::from(i) * 10.0, 0, 100 - i, 40))
            .collect();
        let s = series(pts);
        let t = TransientSummary::from_series(&s, 256 * 1024);
        assert!(t.observed);
        assert!((t.drain_slope + 0.1).abs() < 1e-9);
        assert!((t.implied_seed_rate - 0.1 * 256.0 * 1024.0).abs() < 1.0);
        assert_eq!(t.missing_fraction, 1.0);
    }

    #[test]
    fn transient_then_steady_reports_transition() {
        let s = series(vec![
            (10.0, 0, 50, 40),
            (20.0, 0, 20, 40),
            (30.0, 1, 3, 40),
            (40.0, 2, 2, 40),
        ]);
        let t = TransientSummary::from_series(&s, 256 * 1024);
        assert!(t.observed);
        assert_eq!(t.transient_until_secs, Some(20.0));
        assert!((t.missing_fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_peer_set_samples_ignored() {
        let s = series(vec![(5.0, 0, 100, 0), (10.0, 1, 2, 40)]);
        let t = TransientSummary::from_series(&s, 256 * 1024);
        assert!(!t.observed, "empty-peer-set min=0 is vacuous");
    }
}
