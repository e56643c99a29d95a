//! Wall-clock to virtual-clock mapping.
//!
//! The engine reasons in virtual [`Instant`]s (microseconds). The
//! simulator advances them by event scheduling; the socket runtime maps
//! real elapsed wall time onto the same axis, optionally accelerated so
//! that protocol timescales (10 s choke rounds, 30 min announces)
//! compress into a test-friendly wall budget while every peer still
//! observes one consistent timeline.

use bt_wire::time::Instant;

/// Default acceleration: 1 ms of wall time is 1 s of virtual time.
pub const DEFAULT_ACCEL: u64 = 1000;

/// A shared, monotonically increasing virtual clock.
///
/// All peers of one swarm copy the same `AccelClock` so their traces
/// share a time base. `now()` is `elapsed_wall_µs × accel` since the
/// clock's epoch.
#[derive(Debug, Clone, Copy)]
pub struct AccelClock {
    epoch: std::time::Instant,
    accel: u64,
}

impl AccelClock {
    /// A clock whose virtual time zero is "now", running `accel`× faster
    /// than wall time. `accel == 1` is real time.
    pub fn new(accel: u64) -> AccelClock {
        AccelClock {
            epoch: std::time::Instant::now(),
            accel: accel.max(1),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Instant {
        let micros = self.epoch.elapsed().as_micros();
        Instant((micros as u64).saturating_mul(self.accel))
    }

    /// Wall time from now until the clock reads `at` or later; zero if
    /// it already does.
    pub fn wall_until(&self, at: Instant) -> std::time::Duration {
        let virtual_micros = at.0.saturating_sub(self.now().0);
        std::time::Duration::from_micros(virtual_micros.div_ceil(self.accel))
    }
}

impl Default for AccelClock {
    fn default() -> AccelClock {
        AccelClock::new(DEFAULT_ACCEL)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic_and_accelerated() {
        let clock = AccelClock::new(1000);
        let a = clock.now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = clock.now();
        assert!(b > a);
        // 2 ms of wall time is at least 2 virtual seconds at 1000x.
        assert!((b - a).as_secs_f64() >= 2.0);
    }

    #[test]
    fn wall_until_divides_by_the_acceleration() {
        let clock = AccelClock::new(1000);
        assert_eq!(clock.wall_until(Instant::ZERO), std::time::Duration::ZERO);
        let wait = clock.wall_until(Instant(10_000_000));
        // 10 virtual seconds at 1000x is 10 ms of wall time, less what
        // has passed since the epoch.
        assert!(wait <= std::time::Duration::from_millis(10));
        assert!(wait > std::time::Duration::from_millis(5), "{wait:?}");
        std::thread::sleep(wait);
        assert!(clock.now() >= Instant(10_000_000));
    }

    #[test]
    fn copies_share_a_time_base() {
        let clock = AccelClock::new(10);
        let copy = clock;
        std::thread::sleep(std::time::Duration::from_millis(1));
        let a = clock.now().0;
        let b = copy.now().0;
        // Same epoch: the two reads are within a few virtual ms.
        assert!(a.abs_diff(b) < 100_000);
    }
}
