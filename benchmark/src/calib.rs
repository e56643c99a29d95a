//! Host-speed calibration: what makes the timing metrics repeat on a
//! host whose speed does not.
//!
//! The sizing host (a 2-vCPU VM) changes speed under the benchmark:
//! arithmetic runs in one of two states 1.25× apart that flip every few
//! seconds, memory latency drifts between 1.4× and 2.6× its best on top,
//! neither shows in the guest's steal time, and how long each lasts
//! changes over the hour. Over ten 20 s runs a repetition's raw wall
//! time spread 3 % in a calm hour and 10–24 % in a rough one, whether
//! the run reported its median, a quartile or its best repetition.
//!
//! A fixed calibration loop run right before and right after every
//! repetition, on the thread that runs the repetition, sees about the
//! host state the repetition saw. The loop is half arithmetic (a
//! multiply-xorshift chain) and half memory (a pointer chase through a
//! 16 MiB cycle, four times the L2), because the program is both; the
//! factor is the geometric mean of the two halves' slow-downs against
//! the reference times below. Fitted over a few hundred repetitions,
//! the workloads' times went with arithmetic^0.4–0.9 × memory^0.3–0.7,
//! differently from hour to hour; the even split is the fixed choice
//! that was never far off. Dividing every repetition's wall time by the
//! mean of the factors on either side of it cut the ten-run spread of
//! the single-threaded workloads from 12–18 % to 3–5 %.
//!
//! Only time on a CPU goes with the host's speed, so only that is
//! divided ([`calibrated`]): the process's CPU seconds over the timed
//! region, shared among the threads the program computes on. The
//! simulator runs are busy from end to end and are scaled whole,
//! `table1_parallel`'s two workers nine tenths, `net_bulk`, whose
//! threads wait for each other most of the time, three tenths —
//! which is what its raw seconds did between two hours whose factors
//! were 1.77 and 1.50: they moved by 5 %, not 15 %. Nothing is switched
//! per workload. The factor is the measuring thread's, which is exact
//! where the program computes on that thread and approximate where it
//! starts threads of its own: their hardware threads share the host's
//! state only in part (`table1_parallel` 9.6 % → 4.6 % in a rough hour,
//! no change in a calmer one; a loop run on two threads at once did no
//! better). The serial sweep runs on the measuring thread itself for
//! this reason: through the pool's one worker thread, which may land on
//! the other hardware thread, its spread stayed at 16 %.
//!
//! A calibrated second is therefore a second of a reference host on
//! which the loop takes [`REF_SPIN_S`] and [`REF_CHASE_S`]: the sizing
//! host at its fastest. The loop is the benchmark's own code and calls
//! nothing of the program under test, so a change to the program moves
//! the calibrated metrics exactly as it moves raw ones. Every run
//! prints the factor and the busy share it applied it to.

use std::hint::black_box;
use std::time::Instant;

const SPIN_ITERS: u64 = 20_000_000;
const CHASE_STEPS: u64 = 600_000;
/// Entries of the pointer-chase cycle (`u32` each: 16 MiB).
const TABLE_LEN: usize = 4 << 20;

/// Seconds [`SPIN_ITERS`] take on the reference host (1.82 ns each).
pub const REF_SPIN_S: f64 = 0.0364;
/// Seconds [`CHASE_STEPS`] take on the reference host (63.7 ns each).
pub const REF_CHASE_S: f64 = 0.0382;

/// The calibration loop and its table.
pub struct Calibrator {
    /// One cycle through every index, in a fixed pseudo-random order.
    next: Vec<u32>,
    /// Where the chase stands: each call walks on, so no call finds the
    /// lines its predecessor left in cache.
    at: u32,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    /// Build the chase table: the same cycle in every process.
    pub fn new() -> Calibrator {
        // Sattolo's shuffle: swapping entry `i` with one strictly below
        // it leaves a permutation that is a single cycle.
        let mut next: Vec<u32> = (0..TABLE_LEN as u32).collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..TABLE_LEN).rev() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            next.swap(i, (state >> 33) as usize % i);
        }
        Calibrator { next, at: 0 }
    }

    /// How much slower than the reference host this thread's hardware
    /// thread is right now (1.0 = as fast; the sizing host reads 1.0 to
    /// 1.6): the slow-down of each half of the loop against its
    /// reference time, geometric mean.
    pub fn factor(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..black_box(SPIN_ITERS) {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
            x ^= x >> 29;
        }
        black_box(x);
        let spin_s = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        for _ in 0..black_box(CHASE_STEPS) {
            self.at = self.next[self.at as usize];
        }
        let chase_s = t1.elapsed().as_secs_f64();

        ((spin_s / REF_SPIN_S) * (chase_s / REF_CHASE_S)).sqrt()
    }
}

/// `wall_s` in calibrated seconds. Of the wall time, the `busy_s` the
/// program's threads spent on a CPU go with the host's speed and are
/// divided by the host factor; the rest they waited — for each other,
/// a socket, a timer — and stays as measured.
pub fn calibrated(wall_s: f64, busy_s: f64, factor: f64) -> f64 {
    let busy = busy_s.clamp(0.0, wall_s);
    wall_s - busy + busy / factor
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_is_one_cycle() {
        let c = Calibrator::new();
        let (mut at, mut steps) = (0u32, 0usize);
        loop {
            at = c.next[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, TABLE_LEN);
    }

    #[test]
    fn only_time_on_a_cpu_is_scaled() {
        assert_eq!(calibrated(2.0, 2.0, 1.25), 1.6);
        assert_eq!(calibrated(2.0, 0.0, 1.25), 2.0);
        assert_eq!(calibrated(2.0, 1.0, 2.0), 1.5);
        // CPU ticks are coarse: busier than the wall clock is all busy.
        assert_eq!(calibrated(2.0, 2.5, 2.0), 1.0);
    }
}
