//! Transfer-rate estimation.
//!
//! The choke algorithm ranks peers by "their download rate to the local
//! peer" using "short term download estimations" (§IV-B.1). Mainline
//! estimates rates over a sliding window of recent transfers (20 s in the
//! 4.x series). [`RateEstimator`] reproduces that: it remembers
//! (timestamp, bytes) samples and reports bytes-per-second over the
//! window. The instrumented client logs these estimates (§III-C), so the
//! estimator is also what trace records carry.

use bt_wire::time::{Duration, Instant};
use std::collections::VecDeque;

/// Default estimation window used by mainline 4.x.
pub const DEFAULT_WINDOW: Duration = Duration(20_000_000);

/// Sliding-window rate estimator.
///
/// ```
/// use bt_choke::RateEstimator;
/// use bt_wire::time::{Duration, Instant};
/// let mut est = RateEstimator::new(Duration::from_secs(20));
/// est.record(Instant::from_secs(0), 20_000);
/// assert!(est.rate(Instant::from_secs(1)) > 0.0);
/// assert_eq!(est.rate(Instant::from_secs(60)), 0.0); // window slid past
/// assert_eq!(est.total(), 20_000); // lifetime counter survives
/// ```
#[derive(Debug, Clone)]
pub struct RateEstimator {
    window: Duration,
    samples: VecDeque<(Instant, u64)>,
    /// Sum of bytes currently inside the window.
    in_window: u64,
    /// Lifetime byte total (never pruned) — fairness analysis needs it.
    total: u64,
}

impl Default for RateEstimator {
    fn default() -> Self {
        Self::new(DEFAULT_WINDOW)
    }
}

impl RateEstimator {
    /// Create an estimator with the given window.
    pub fn new(window: Duration) -> RateEstimator {
        assert!(window.0 > 0, "window must be positive");
        RateEstimator {
            window,
            samples: VecDeque::new(),
            in_window: 0,
            total: 0,
        }
    }

    /// Record `bytes` transferred at `now`.
    ///
    /// Bytes recorded at the instant of the newest sample are added to
    /// it, so the window holds one sample per instant (in the simulator a
    /// link's blocks of one transfer round all arrive at one instant).
    /// Same-instant samples would be pruned together anyway, so the rate
    /// and total are those of one sample per call.
    ///
    /// Timestamps must be non-decreasing (the simulator's clock is
    /// monotonic); violating that only degrades accuracy, never panics.
    pub fn record(&mut self, now: Instant, bytes: u64) {
        match self.samples.back_mut() {
            Some((t, b)) if *t == now => *b += bytes,
            _ => self.samples.push_back((now, bytes)),
        }
        self.in_window += bytes;
        self.total += bytes;
        self.prune(now);
    }

    /// Estimated rate in bytes/second at `now`.
    pub fn rate(&mut self, now: Instant) -> f64 {
        self.prune(now);
        self.in_window as f64 / self.window.as_secs_f64()
    }

    /// Lifetime bytes recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    fn prune(&mut self, now: Instant) {
        let cutoff = Instant(now.0.saturating_sub(self.window.0));
        while let Some(&(t, bytes)) = self.samples.front() {
            if t < cutoff {
                self.samples.pop_front();
                self.in_window -= bytes;
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_rate() {
        let mut est = RateEstimator::new(Duration::from_secs(10));
        // 1000 bytes every second for 30 s → 100 B/s over a 10 s window.
        for s in 0..30 {
            est.record(Instant::from_secs(s), 1000);
        }
        let r = est.rate(Instant::from_secs(29));
        assert!((r - 1000.0).abs() < 150.0, "rate {r}");
        assert_eq!(est.total(), 30_000);
    }

    #[test]
    fn rate_decays_to_zero() {
        let mut est = RateEstimator::default();
        est.record(Instant::from_secs(0), 10_000);
        assert!(est.rate(Instant::from_secs(1)) > 0.0);
        assert_eq!(est.rate(Instant::from_secs(100)), 0.0);
        assert_eq!(est.total(), 10_000, "total survives pruning");
    }

    #[test]
    fn burst_then_silence() {
        let mut est = RateEstimator::new(Duration::from_secs(20));
        est.record(Instant::from_secs(0), 20_000);
        let early = est.rate(Instant::from_secs(1));
        assert!((early - 1000.0).abs() < 1.0);
        // Still inside the window at t=19.
        assert!(est.rate(Instant::from_secs(19)) > 0.0);
        // Outside at t=21.
        assert_eq!(est.rate(Instant::from_secs(21)), 0.0);
    }

    /// Number of maximal runs of equal adjacent instants.
    fn runs(samples: &VecDeque<(Instant, u64)>) -> usize {
        let mut prev = None;
        samples
            .iter()
            .filter(|&&(t, _)| prev.replace(t) != Some(t))
            .count()
    }

    proptest::proptest! {
        /// Against a reference that keeps one sample per call: the same
        /// rate and total at every step, and one sample per run of equal
        /// instants, which is one per distinct instant in the window while
        /// time does not go backwards.
        #[test]
        fn one_sample_per_instant_matches_one_per_call(
            steps in proptest::collection::vec((0u8..10, 0u64..4, 0u64..100_000), 1..300),
        ) {
            let window = Duration::from_secs(3);
            let mut est = RateEstimator::new(window);
            let mut reference = RateEstimator::new(window);
            let (mut now, mut monotone) = (10_000_000u64, true);
            for (kind, step, bytes) in steps {
                // Mostly repeats and small steps forward, some steps back.
                match kind {
                    0..=4 => {}
                    5..=8 => now += step * 700_000,
                    _ => {
                        now = now.saturating_sub(step * 300_000);
                        monotone &= step == 0;
                    }
                }
                let at = Instant(now);
                est.record(at, bytes);
                reference.samples.push_back((at, bytes));
                reference.in_window += bytes;
                reference.total += bytes;
                reference.prune(at);
                proptest::prop_assert_eq!(est.total(), reference.total());
                proptest::prop_assert_eq!(est.rate(at).to_bits(), reference.rate(at).to_bits());
                proptest::prop_assert_eq!(est.samples.len(), runs(&reference.samples));
                if monotone {
                    let mut distinct: Vec<Instant> =
                        reference.samples.iter().map(|&(t, _)| t).collect();
                    distinct.dedup();
                    proptest::prop_assert!(est.samples.len() <= distinct.len());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        let _ = RateEstimator::new(Duration::ZERO);
    }
}
