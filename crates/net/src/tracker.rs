//! In-process tracker for loopback swarms.
//!
//! The engine addresses peers by virtual [`IpAddr`] (its protocol-level
//! identity); TCP needs a real [`SocketAddr`]. The tracker keeps that
//! mapping, answers announces with the currently active peers, and
//! tallies `started` / `completed` events — the minimum a BEP 3 tracker
//! does. Every runtime of a swarm holds a shared handle; they all run on
//! one thread, so its one mutex is never contended.

use bt_wire::peer_id::IpAddr;
use bt_wire::tracker::{AnnounceEvent, PeerEntry};
use std::net::SocketAddr;
use std::sync::Mutex;

struct Entry {
    ip: IpAddr,
    addr: SocketAddr,
    /// Has announced `Started` and not yet `Stopped`.
    active: bool,
}

#[derive(Default)]
struct Inner {
    peers: Vec<Entry>,
    started: u64,
    completed: u64,
}

/// A loopback tracker, shared behind an [`std::sync::Arc`].
#[derive(Default)]
pub struct LoopbackTracker {
    inner: Mutex<Inner>,
}

impl LoopbackTracker {
    /// An empty tracker.
    pub fn new() -> LoopbackTracker {
        LoopbackTracker::default()
    }

    /// Register a peer's listening socket before its runtime starts, so
    /// every later `resolve` works whichever peer starts first. The peer
    /// stays invisible to announces until it announces `Started`.
    pub fn register(&self, ip: IpAddr, addr: SocketAddr) {
        let mut inner = self.inner.lock().unwrap();
        inner.peers.retain(|e| e.ip != ip);
        inner.peers.push(Entry {
            ip,
            addr,
            active: false,
        });
    }

    /// The real socket address behind a virtual peer address.
    pub fn resolve(&self, ip: IpAddr) -> Option<SocketAddr> {
        let inner = self.inner.lock().unwrap();
        inner.peers.iter().find(|e| e.ip == ip).map(|e| e.addr)
    }

    /// Handle one announce: update membership state, then return up to
    /// `num_want` *active* peers other than the caller. Only peers that
    /// have already announced are returned, which staggers dialing and
    /// avoids most simultaneous cross-connections between peer pairs.
    pub fn announce(&self, ip: IpAddr, event: AnnounceEvent, num_want: usize) -> Vec<PeerEntry> {
        let mut inner = self.inner.lock().unwrap();
        match event {
            AnnounceEvent::Started => {
                inner.started += 1;
                if let Some(e) = inner.peers.iter_mut().find(|e| e.ip == ip) {
                    e.active = true;
                }
            }
            AnnounceEvent::Completed => inner.completed += 1,
            AnnounceEvent::Stopped => {
                if let Some(e) = inner.peers.iter_mut().find(|e| e.ip == ip) {
                    e.active = false;
                }
            }
            AnnounceEvent::Periodic => {}
        }
        inner
            .peers
            .iter()
            .filter(|e| e.active && e.ip != ip)
            .take(num_want)
            .map(|e| PeerEntry {
                ip: e.ip,
                port: e.addr.port(),
            })
            .collect()
    }

    /// How many `Started` announces have been seen.
    pub fn started(&self) -> u64 {
        self.inner.lock().unwrap().started
    }

    /// How many `Completed` announces have been seen.
    pub fn completed(&self) -> u64 {
        self.inner.lock().unwrap().completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    #[test]
    fn announce_returns_only_active_others() {
        let t = LoopbackTracker::new();
        t.register(IpAddr(1), addr(6881));
        t.register(IpAddr(2), addr(6882));
        t.register(IpAddr(3), addr(6883));
        // Nobody active yet: first announce sees an empty swarm.
        assert!(t.announce(IpAddr(1), AnnounceEvent::Started, 50).is_empty());
        let seen = t.announce(IpAddr(2), AnnounceEvent::Started, 50);
        assert_eq!(
            seen,
            vec![PeerEntry {
                ip: IpAddr(1),
                port: 6881
            }]
        );
        // A periodic announce never includes the caller.
        let seen = t.announce(IpAddr(1), AnnounceEvent::Periodic, 50);
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].ip, IpAddr(2));
        assert_eq!(t.started(), 2);
    }

    #[test]
    fn resolve_and_lifecycle_counters() {
        let t = LoopbackTracker::new();
        t.register(IpAddr(7), addr(7000));
        assert_eq!(t.resolve(IpAddr(7)), Some(addr(7000)));
        assert_eq!(t.resolve(IpAddr(8)), None);
        t.announce(IpAddr(7), AnnounceEvent::Started, 50);
        t.announce(IpAddr(7), AnnounceEvent::Completed, 50);
        t.announce(IpAddr(7), AnnounceEvent::Stopped, 50);
        assert_eq!((t.started(), t.completed()), (1, 1));
        // Stopped peers vanish from announces but still resolve.
        t.register(IpAddr(9), addr(9000));
        assert!(t.announce(IpAddr(9), AnnounceEvent::Started, 50).is_empty());
        assert_eq!(t.resolve(IpAddr(7)), Some(addr(7000)));
    }
}
