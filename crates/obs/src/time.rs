//! Time sources for the metrics registry.
//!
//! Every timestamp and latency measurement in `bt-obs` flows through a
//! [`TimeSource`] so the same instrumentation is *deterministic* under
//! a driver with a virtual clock (the simulator advances a
//! [`TimeSource::manual`] source to its event time) and *real* under a
//! wall-clock driver (`bt-net` uses [`TimeSource::wall`]).
//!
//! All readings are in microseconds, matching `bt_wire::time::Instant`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Clone, Debug)]
enum Source {
    /// Real elapsed time since the source was created.
    Wall(std::time::Instant),
    /// A manually-advanced virtual clock (monotonic, never rewinds).
    Manual(Arc<AtomicU64>),
}

/// A monotonic clock in microseconds; see the [module docs](self).
#[derive(Clone, Debug)]
pub struct TimeSource(Source);

impl TimeSource {
    /// Real wall-clock time, measured from now.
    pub fn wall() -> TimeSource {
        TimeSource(Source::Wall(std::time::Instant::now()))
    }

    /// A virtual clock starting at 0, advanced by [`advance_to`](Self::advance_to).
    pub fn manual() -> TimeSource {
        TimeSource(Source::Manual(Arc::new(AtomicU64::new(0))))
    }

    /// Current reading in microseconds.
    pub fn now_micros(&self) -> u64 {
        match &self.0 {
            Source::Wall(epoch) => epoch.elapsed().as_micros() as u64,
            Source::Manual(t) => t.load(Ordering::Relaxed),
        }
    }

    /// Advance a manual source to `micros` (monotonic max, so several
    /// drivers sharing one registry may all report their local time).
    /// No-op on a wall source.
    pub fn advance_to(&self, micros: u64) {
        if let Source::Manual(t) = &self.0 {
            t.fetch_max(micros, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_starts_at_zero_and_never_rewinds() {
        let t = TimeSource::manual();
        assert_eq!(t.now_micros(), 0);
        t.advance_to(500);
        t.advance_to(100); // rewind attempt ignored
        assert_eq!(t.now_micros(), 500);
    }

    #[test]
    fn manual_clones_share_state() {
        let a = TimeSource::manual();
        let b = a.clone();
        b.advance_to(77);
        assert_eq!(a.now_micros(), 77);
    }

    #[test]
    fn wall_advances() {
        let t = TimeSource::wall();
        let a = t.now_micros();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(t.now_micros() > a);
        t.advance_to(u64::MAX); // no-op on wall sources
    }
}
