//! `poll(2)`, declared by hand: std links libc but offers no readiness
//! wait, and no `libc` crate is vendored offline. This and `bt-wire`'s
//! SHA-NI compress are the tree's only `unsafe`; this one is the reason
//! `bt-net` is Unix-only.

use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_short};

pub(crate) const POLLIN: c_short = 0x001;
pub(crate) const POLLOUT: c_short = 0x004;

/// `struct pollfd`: the kernel reads `fd` and `events`, writes `revents`.
#[repr(C)]
#[allow(dead_code)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    pub(crate) fn new(socket: &impl AsRawFd, events: c_short) -> PollFd {
        PollFd {
            fd: socket.as_raw_fd(),
            events,
            revents: 0,
        }
    }
}

#[cfg(target_os = "linux")]
type NfdsT = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::os::raw::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
}

/// Block until a socket in `fds` is ready for what it was listed for
/// (or has failed), or `timeout` — rounded up to whole milliseconds,
/// `poll`'s unit — has passed. Returns how many are ready. A failed
/// call, `EINTR` included, reads as zero: a wake-up with nothing to do,
/// which the caller's loop already absorbs.
pub(crate) fn wait(fds: &mut [PollFd], timeout: std::time::Duration) -> usize {
    let millis = c_int::try_from(timeout.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX);
    // SAFETY: `fds` is an exclusive borrow of `fds.len()` initialised
    // `repr(C)` records laid out as `struct pollfd`; `poll` writes only
    // their `revents` and keeps no pointer past its return. A stale or
    // closed descriptor is reported in `revents`, not dereferenced.
    let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, millis) };
    usize::try_from(ready).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::time::{Duration, Instant};

    fn connected_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let dialled = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        (dialled, accepted)
    }

    #[test]
    fn a_write_from_another_thread_ends_the_wait_early() {
        let (mut writer, reader) = connected_pair();
        let started = Instant::now();
        let peer = std::thread::spawn(move || {
            // Long enough that the wait is usually already blocked; the
            // assertions hold in either order.
            std::thread::sleep(Duration::from_millis(20));
            writer.write_all(b"x").expect("write");
            writer
        });
        let ready = wait(&mut [PollFd::new(&reader, POLLIN)], Duration::from_secs(1));
        let waited = started.elapsed();
        let _writer = peer.join().expect("writer thread");
        assert_eq!(ready, 1);
        assert!(waited < Duration::from_millis(500), "waited {waited:?}");
    }

    #[test]
    fn an_idle_socket_waits_out_the_timeout() {
        let (_writer, reader) = connected_pair();
        let started = Instant::now();
        let ready = wait(
            &mut [PollFd::new(&reader, POLLIN)],
            Duration::from_millis(20),
        );
        assert_eq!(ready, 0);
        assert!(started.elapsed() >= Duration::from_millis(20));
        // A fraction of a millisecond is rounded up, not down to a spin.
        let started = Instant::now();
        wait(
            &mut [PollFd::new(&reader, POLLIN)],
            Duration::from_micros(300),
        );
        assert!(started.elapsed() >= Duration::from_micros(300));
    }

    #[test]
    fn a_writable_socket_is_ready_at_once() {
        let (writer, _reader) = connected_pair();
        let started = Instant::now();
        let ready = wait(
            &mut [PollFd::new(&writer, POLLIN | POLLOUT)],
            Duration::from_secs(1),
        );
        assert_eq!(ready, 1);
        assert!(started.elapsed() < Duration::from_millis(500));
    }

    /// `poll` refuses more entries than `RLIMIT_NOFILE` with `EINVAL`
    /// (negative descriptors are otherwise skipped): the one failure a
    /// test can provoke without raising a signal.
    #[test]
    fn a_failed_poll_is_a_wake_up_with_nothing_ready() {
        let Some(limit) = std::fs::read_to_string("/proc/self/limits")
            .ok()
            .and_then(|text| {
                let line = text.lines().find(|l| l.starts_with("Max open files"))?;
                line.split_whitespace().nth(3)?.parse::<usize>().ok()
            })
            .filter(|&limit| limit <= 1 << 22)
        else {
            return; // no procfs, or a table too large to overrun: nothing to provoke
        };
        let mut fds: Vec<PollFd> = (0..=limit)
            .map(|_| PollFd {
                fd: -1,
                events: POLLIN,
                revents: 0,
            })
            .collect();
        let started = Instant::now();
        assert_eq!(wait(&mut fds, Duration::from_secs(1)), 0);
        assert!(started.elapsed() < Duration::from_millis(500));
    }
}
