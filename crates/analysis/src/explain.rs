//! Trace-driven post-mortem explanations.
//!
//! When a flight recorder dumps a bundle ([`bt_obs::FlightRecorder`]),
//! the reason is a tripped live-monitor invariant — but a verdict like
//! `starvation: 1200s > 900s` says *that* something is wrong, not *why*.
//! [`explain_unhealthy`] walks the bundle's causal trace — the tracer's
//! last events, `bt_obs::Tracer::recent` — and answers the two
//! questions the paper's pathologies reduce to:
//!
//! * **why is peer Y starved** — what did the choke audits around it
//!   decide (was it ranked, snubbed, optimistically unchoked, or simply
//!   never mentioned)?
//! * **why is piece X rare** — which sampled lifecycle is still open
//!   (`injected` but not `k_replicated`), how many verified copies does
//!   it have, and when did a block of it last move?
//!
//! The output is deterministic plain text for equal inputs: it is
//! embedded verbatim in flight-recorder bundles, which the determinism
//! tests byte-compare.

use crate::live::HealthReport;
use bt_instrument::UnchokeRole;
use bt_obs::trace::{TraceCat, TraceEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Look up a named integer in a trace event's payload.
fn arg(e: &TraceEvent, key: &str) -> Option<i64> {
    e.args.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
}

/// Build a human-readable explanation of an unhealthy [`HealthReport`]
/// from the bundle's trace.
///
/// `worst_starved` is the `(peer index, seconds without progress)` pair
/// the caller observed when the invariant tripped; `recent` is the
/// tracer's last events in recording order (oldest first). Both the
/// audit-history and rare-piece sections degrade gracefully when
/// sampling did not cover the relevant ids — the explanation says so
/// instead of guessing.
pub fn explain_unhealthy(
    report: &HealthReport,
    worst_starved: Option<(usize, u64)>,
    recent: &[TraceEvent],
) -> String {
    let mut out = String::new();
    let tripped: Vec<_> = report.monitors.iter().filter(|m| !m.healthy).collect();
    if tripped.is_empty() {
        out.push_str("all monitors healthy at dump time\n");
    }
    for m in &tripped {
        let _ = writeln!(
            out,
            "{}: value {:.4} vs threshold {:.4}",
            m.name, m.value, m.threshold
        );
    }

    if let Some((idx, secs)) = worst_starved {
        let _ = writeln!(out, "worst-starved peer: {idx} ({secs}s without progress)");
        let about: Vec<&TraceEvent> = recent
            .iter()
            .filter(|e| {
                e.cat == TraceCat::Choke && e.name == "audit" && arg(e, "peer") == Some(idx as i64)
            })
            .collect();
        if about.is_empty() {
            out.push_str(
                "no choke audit in the recent window mentions it \
                 (peer sampling may not cover its neighbours)\n",
            );
        } else {
            let choked = about
                .iter()
                .filter(|e| arg(e, "outcome") == Some(UnchokeRole::outcome_code(None)))
                .count();
            let last = about.last().expect("non-empty");
            let _ = writeln!(
                out,
                "choke audits mentioning it: {} ({choked} chose to choke); \
                 last: {} by peer {} at t={}us (rank {})",
                about.len(),
                UnchokeRole::outcome_name(arg(last, "outcome").unwrap_or(-1)),
                last.id,
                last.at_micros,
                arg(last, "rank").unwrap_or(-1),
            );
        }
        let own_rounds = recent
            .iter()
            .filter(|e| e.cat == TraceCat::Choke && e.name == "round" && e.id == idx as u64)
            .count();
        let _ = writeln!(out, "choke rounds run by the peer itself: {own_rounds}");
    }

    // Rarest open sampled lifecycle: injected but not k_replicated,
    // fewest verified copies; ties break toward the lower piece id via
    // BTreeMap iteration order.
    struct Life {
        copies: i64,
        closed: bool,
        last_block_us: Option<u64>,
    }
    let mut lives: BTreeMap<u64, Life> = BTreeMap::new();
    for e in recent.iter().filter(|e| e.cat == TraceCat::Piece) {
        let life = lives.entry(e.id).or_insert(Life {
            copies: 1,
            closed: false,
            last_block_us: None,
        });
        match e.name {
            "verified" | "k_replicated" => {
                life.copies = life.copies.max(arg(e, "copies").unwrap_or(1));
                life.closed |= e.name == "k_replicated";
            }
            "block_sent" => life.last_block_us = Some(e.at_micros),
            _ => {}
        }
    }
    let rarest = lives
        .iter()
        .filter(|(_, l)| !l.closed)
        .min_by_key(|(piece, l)| (l.copies, **piece));
    match rarest {
        Some((piece, life)) => {
            let moved = life
                .last_block_us
                .map_or("no block of it moved in the window".to_string(), |t| {
                    format!("last block_sent at t={t}us")
                });
            let _ = writeln!(
                out,
                "rarest open sampled piece: {piece} ({} verified copies, target not reached; {moved})",
                life.copies
            );
        }
        None => out.push_str("no sampled piece lifecycle is open in the recent window\n"),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::MonitorVerdict;

    fn ev(
        at: u64,
        cat: TraceCat,
        name: &'static str,
        id: u64,
        args: &[(&'static str, i64)],
    ) -> TraceEvent {
        TraceEvent {
            at_micros: at,
            cat,
            name,
            id,
            args: args.to_vec(),
        }
    }

    fn unhealthy_report() -> HealthReport {
        HealthReport {
            at_micros: 1_000_000,
            samples: 3,
            monitors: vec![MonitorVerdict {
                name: "starvation",
                healthy: false,
                value: 1200.0,
                threshold: 900.0,
            }],
        }
    }

    #[test]
    fn names_the_starved_peer_and_its_last_audit() {
        let recent = vec![
            ev(10, TraceCat::Choke, "round", 3, &[("peers", 2)]),
            ev(
                10,
                TraceCat::Choke,
                "audit",
                3,
                &[("peer", 7), ("rank", 5), ("outcome", 4)],
            ),
            ev(
                20,
                TraceCat::Choke,
                "audit",
                4,
                &[("peer", 7), ("rank", 2), ("outcome", 0)],
            ),
        ];
        let text = explain_unhealthy(&unhealthy_report(), Some((7, 1200)), &recent);
        assert!(text.contains("worst-starved peer: 7 (1200s"), "{text}");
        assert!(
            text.contains("audits mentioning it: 2 (1 chose to choke)"),
            "{text}"
        );
        assert!(
            text.contains("last: regular-unchoke by peer 4 at t=20us"),
            "{text}"
        );
    }

    #[test]
    fn finds_the_rarest_open_piece() {
        let recent = vec![
            ev(1, TraceCat::Piece, "injected", 5, &[("by", 0)]),
            ev(
                2,
                TraceCat::Piece,
                "verified",
                5,
                &[("peer", 1), ("copies", 2)],
            ),
            ev(3, TraceCat::Piece, "injected", 9, &[("by", 0)]),
            ev(
                4,
                TraceCat::Piece,
                "block_sent",
                9,
                &[("from", 0), ("to", 2)],
            ),
            ev(
                5,
                TraceCat::Piece,
                "verified",
                8,
                &[("peer", 1), ("copies", 3)],
            ),
            ev(6, TraceCat::Piece, "k_replicated", 8, &[("copies", 4)]),
        ];
        let text = explain_unhealthy(&unhealthy_report(), None, &recent);
        // Piece 8 is closed; pieces 5 (2 copies) and 9 (1 copy) are open.
        assert!(
            text.contains("rarest open sampled piece: 9 (1 verified copies"),
            "{text}"
        );
        assert!(text.contains("last block_sent at t=4us"), "{text}");
    }

    #[test]
    fn degrades_gracefully_with_an_empty_window() {
        let text = explain_unhealthy(&unhealthy_report(), Some((2, 999)), &[]);
        assert!(
            text.contains("no choke audit in the recent window"),
            "{text}"
        );
        assert!(
            text.contains("no sampled piece lifecycle is open"),
            "{text}"
        );
    }
}
