//! Virtual time.
//!
//! The whole reproduction runs on a simulated clock so that 8-hour torrent
//! sessions replay deterministically in seconds. [`Instant`] is a
//! microsecond count since simulation start; [`Duration`] a microsecond
//! span. They live in `bt-wire` because every other crate (choke timers,
//! trace records, the simulator's event queue) shares them.

use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time (microseconds since simulation start).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Instant(pub u64);

/// A span of virtual time (microseconds).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Duration(pub u64);

impl Instant {
    /// The simulation epoch.
    pub const ZERO: Instant = Instant(0);

    /// Construct from whole seconds.
    pub fn from_secs(secs: u64) -> Instant {
        Instant(secs * 1_000_000)
    }

    /// Seconds since the epoch, as a float (for analysis output).
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Whole seconds since the epoch (truncating).
    pub fn as_secs(&self) -> u64 {
        self.0 / 1_000_000
    }

    /// Time elapsed since `earlier`; zero if `earlier` is later.
    pub fn saturating_since(&self, earlier: Instant) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// The empty span.
    pub const ZERO: Duration = Duration(0);

    /// Construct from whole seconds.
    pub fn from_secs(secs: u64) -> Duration {
        Duration(secs * 1_000_000)
    }

    /// Construct from whole milliseconds.
    pub fn from_millis(ms: u64) -> Duration {
        Duration(ms * 1_000)
    }

    /// Construct from a float of seconds (truncates below a microsecond).
    pub fn from_secs_f64(secs: f64) -> Duration {
        Duration((secs * 1e6).max(0.0) as u64)
    }

    /// The span in seconds, as a float.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e6
    }
}

impl Add<Duration> for Instant {
    type Output = Instant;
    fn add(self, rhs: Duration) -> Instant {
        Instant(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Instant {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Instant> for Instant {
    type Output = Duration;
    fn sub(self, rhs: Instant) -> Duration {
        debug_assert!(self.0 >= rhs.0, "negative duration");
        Duration(self.0 - rhs.0)
    }
}

impl Add<Duration> for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl Sub<Duration> for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl std::fmt::Display for Instant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = Instant::from_secs(10) + Duration::from_millis(500);
        assert_eq!(t.0, 10_500_000);
        assert_eq!((t - Instant::from_secs(10)).as_secs_f64(), 0.5);
        assert_eq!(t.as_secs(), 10);
    }

    #[test]
    fn saturating_since() {
        let a = Instant::from_secs(5);
        let b = Instant::from_secs(7);
        assert_eq!(b.saturating_since(a), Duration::from_secs(2));
        assert_eq!(a.saturating_since(b), Duration::ZERO);
    }

    #[test]
    fn float_conversions() {
        assert_eq!(Duration::from_secs_f64(1.5).0, 1_500_000);
        assert_eq!(Duration::from_secs_f64(-3.0).0, 0);
        assert!((Instant::from_secs(3).as_secs_f64() - 3.0).abs() < 1e-12);
    }
}
