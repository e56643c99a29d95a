//! Per-connection state.
//!
//! One [`Connection`] tracks the four BitTorrent state bits (am-choking,
//! am-interested, peer-choking, peer-interested), the remote bitfield,
//! rate estimators in both directions, and the counters the choke
//! algorithm and the fairness analysis need.

use bt_choke::{PeerSnapshot, RateEstimator};
use bt_piece::Bitfield;
use bt_wire::peer_id::{IpAddr, PeerId};
use bt_wire::time::Instant;

/// Dense connection handle within one engine (also the trace handle).
pub type ConnId = u32;

/// State of one remote peer connection.
#[derive(Debug)]
pub struct Connection {
    /// Handle of this connection.
    pub id: ConnId,
    /// Remote address.
    pub ip: IpAddr,
    /// Remote peer ID from the handshake.
    pub peer_id: PeerId,
    /// True if the local peer initiated the TCP connection.
    pub initiated_by_us: bool,
    /// The remote's advertised pieces.
    pub bitfield: Bitfield,
    /// Local → remote choke state (starts choked).
    pub am_choking: bool,
    /// Local → remote interest (starts not interested).
    pub am_interested: bool,
    /// Remote → local choke state (starts choked).
    pub peer_choking: bool,
    /// Remote → local interest (starts not interested).
    pub peer_interested: bool,
    /// Download-rate estimator (remote → local).
    pub download: RateEstimator,
    /// Upload-rate estimator (local → remote).
    pub upload: RateEstimator,
    /// When the local peer last unchoked this peer.
    pub last_unchoked: Option<Instant>,
    /// When any message was last sent on this connection (keep-alives).
    pub last_sent: Instant,
    /// When the connection entered the peer set.
    pub joined: Instant,
    /// Fast Extension negotiated on this connection (both sides set the
    /// reserved bit).
    pub fast: bool,
    /// Virtual time of the last block received from this peer, for
    /// snub detection.
    pub last_block_received: Option<Instant>,
    /// Extension protocol (BEP 10) negotiated on this connection.
    pub extended: bool,
    /// The remote has delivered its bitfield, so it is recorded as a
    /// peer-set member and counted in the engine's availability.
    pub in_peer_set: bool,
    /// Fast Extension, PEX and super-seed state; `None` until one of
    /// them first writes to it (see [`ext_mut`](Self::ext_mut)).
    pub ext: Option<Box<ConnExt>>,
}

/// The per-connection state only the Fast Extension, PEX and super
/// seeding use. A plain connection never allocates it, and
/// [`Connection`] stays within 256 bytes.
#[derive(Debug, Default)]
pub struct ConnExt {
    /// Pieces the local peer granted this peer as allowed-fast.
    pub allowed_fast_sent: Vec<u32>,
    /// Pieces this peer granted the local peer as allowed-fast.
    pub allowed_fast_received: std::collections::HashSet<u32>,
    /// The inner ID under which the remote accepts `ut_pex` gossip.
    pub remote_pex_id: Option<u8>,
    /// Peer addresses already gossiped to this peer (delta tracking).
    pub pex_sent: std::collections::HashSet<IpAddr>,
    /// When `ut_pex` was last sent on this connection.
    pub last_pex: Instant,
    /// Super seeding: pieces revealed to this peer so far.
    pub revealed: std::collections::HashSet<u32>,
}

impl Connection {
    /// Fresh connection in the initial protocol state (both sides choked,
    /// neither interested).
    pub fn new(
        id: ConnId,
        ip: IpAddr,
        peer_id: PeerId,
        initiated_by_us: bool,
        num_pieces: u32,
        now: Instant,
    ) -> Connection {
        Connection {
            id,
            ip,
            peer_id,
            initiated_by_us,
            bitfield: Bitfield::new(num_pieces),
            am_choking: true,
            am_interested: false,
            peer_choking: true,
            peer_interested: false,
            download: RateEstimator::default(),
            upload: RateEstimator::default(),
            last_unchoked: None,
            last_sent: now,
            joined: now,
            fast: false,
            last_block_received: None,
            extended: false,
            in_peer_set: false,
            ext: None,
        }
    }

    /// The extension state, allocated on first use.
    pub(crate) fn ext_mut(&mut self) -> &mut ConnExt {
        self.ext.get_or_insert_with(Box::default)
    }

    /// Snapshot for the choke algorithm.
    pub fn snapshot(&mut self, now: Instant) -> PeerSnapshot {
        PeerSnapshot {
            key: self.id,
            interested: self.peer_interested,
            unchoked: !self.am_choking,
            download_rate: self.download.rate(now),
            upload_rate: self.upload.rate(now),
            last_unchoked: self.last_unchoked,
            uploaded_to: self.upload.total(),
            downloaded_from: self.download.total(),
            snubbed: self.is_snubbing(now),
        }
    }

    /// Anti-snubbing (mainline): the remote has unchoked the local peer,
    /// the local peer is interested, and yet no block has arrived for
    /// [`bt_choke::choker::SNUB_THRESHOLD`].
    pub fn is_snubbing(&self, now: Instant) -> bool {
        if self.peer_choking || !self.am_interested {
            return false;
        }
        let last = self.last_block_received.unwrap_or(self.joined);
        now.saturating_since(last) >= bt_choke::choker::SNUB_THRESHOLD
    }

    /// This peer is in the active peer set (§II-A: unchoked by the local
    /// peer *and* interested in the local peer).
    pub fn in_active_set(&self) -> bool {
        !self.am_choking && self.peer_interested
    }

    /// The remote holds every piece (it is a seed).
    pub fn is_seed(&self) -> bool {
        self.bitfield.is_complete()
    }
}

/// The engine's open connections, indexed by [`ConnId`].
///
/// Ids are handed out in order and never reused, so the table is a
/// vector of slots: a lookup is one bounds check, iteration is ascending
/// `ConnId` — the order every run must reproduce — with nothing to sort,
/// and a closed connection leaves one empty pointer behind.
#[derive(Debug, Default)]
pub(crate) struct ConnTable {
    slots: Vec<Option<Box<Connection>>>,
    open: usize,
}

impl ConnTable {
    /// Number of open connections.
    pub(crate) fn len(&self) -> usize {
        self.open
    }

    /// The id the next [`insert`](Self::insert) must carry; every id
    /// ever issued is below it.
    pub(crate) fn next_id(&self) -> ConnId {
        self.slots.len() as ConnId
    }

    /// Add a connection built with id [`next_id`](Self::next_id).
    pub(crate) fn insert(&mut self, conn: Connection) {
        assert_eq!(
            conn.id,
            self.next_id(),
            "connection ids are issued in order"
        );
        self.slots.push(Some(Box::new(conn)));
        self.open += 1;
    }

    /// The open connection `id`; `None` if closed or never issued.
    pub(crate) fn get(&self, id: ConnId) -> Option<&Connection> {
        self.slots.get(id as usize)?.as_deref()
    }

    /// Mutable [`get`](Self::get).
    pub(crate) fn get_mut(&mut self, id: ConnId) -> Option<&mut Connection> {
        self.slots.get_mut(id as usize)?.as_deref_mut()
    }

    /// Close connection `id`, handing back its state.
    pub(crate) fn remove(&mut self, id: ConnId) -> Option<Box<Connection>> {
        let conn = self.slots.get_mut(id as usize)?.take()?;
        self.open -= 1;
        Some(conn)
    }

    /// Open connections in ascending `ConnId`.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Connection> {
        self.slots.iter().filter_map(|s| s.as_deref())
    }

    /// Mutable [`iter`](Self::iter).
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut Connection> {
        self.slots.iter_mut().filter_map(|s| s.as_deref_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_wire::peer_id::ClientKind;

    fn conn() -> Connection {
        Connection::new(
            3,
            IpAddr(0x0A000001),
            PeerId::new(ClientKind::Mainline402, 1),
            true,
            16,
            Instant::from_secs(5),
        )
    }

    #[test]
    fn initial_protocol_state() {
        let c = conn();
        assert!(c.am_choking && c.peer_choking);
        assert!(!c.am_interested && !c.peer_interested);
        assert!(!c.in_active_set());
        assert!(!c.is_seed());
        assert_eq!(c.joined, Instant::from_secs(5));
    }

    #[test]
    fn active_set_requires_unchoked_and_interested() {
        let mut c = conn();
        c.am_choking = false;
        assert!(!c.in_active_set());
        c.peer_interested = true;
        assert!(c.in_active_set());
        c.am_choking = true;
        assert!(!c.in_active_set());
    }

    #[test]
    fn snub_detection() {
        let mut c = conn();
        let t0 = Instant::from_secs(5);
        // Not snubbing while choked or uninterested.
        assert!(!c.is_snubbing(t0 + bt_wire::time::Duration::from_secs(300)));
        c.peer_choking = false;
        c.am_interested = true;
        // Unchoked + interested + silence ≥ 60 s → snubbed.
        assert!(!c.is_snubbing(t0 + bt_wire::time::Duration::from_secs(59)));
        assert!(c.is_snubbing(t0 + bt_wire::time::Duration::from_secs(61)));
        // A block resets the clock.
        c.last_block_received = Some(t0 + bt_wire::time::Duration::from_secs(100));
        assert!(!c.is_snubbing(t0 + bt_wire::time::Duration::from_secs(120)));
    }

    #[test]
    fn table_slots_are_never_reused_or_grown_by_lookups() {
        let conn_with = |id| {
            let mut c = conn();
            c.id = id;
            c
        };
        let mut table = ConnTable::default();
        for id in 0..3 {
            assert_eq!(table.next_id(), id);
            table.insert(conn_with(id));
        }
        assert_eq!(table.remove(1).map(|c| c.id), Some(1));
        assert!(table.remove(1).is_none(), "already closed");
        for id in [1, 3, 1_000_000, ConnId::MAX] {
            assert!(table.get(id).is_none());
            assert!(table.get_mut(id).is_none());
            assert!(table.remove(id).is_none());
        }
        assert_eq!((table.len(), table.next_id()), (2, 3));
        assert_eq!(table.iter().map(|c| c.id).collect::<Vec<_>>(), vec![0, 2]);
        table.insert(conn_with(3));
        assert_eq!(
            table.iter_mut().map(|c| c.id).collect::<Vec<_>>(),
            vec![0, 2, 3]
        );
    }

    #[test]
    fn a_connection_fits_in_256_bytes() {
        // The extension state lives behind one pointer; everything a
        // plain connection uses stays inline.
        let size = std::mem::size_of::<Connection>();
        assert!(size <= 256, "Connection is {size} bytes");
    }

    #[test]
    fn snapshot_reflects_counters() {
        let mut c = conn();
        c.download.record(Instant::from_secs(6), 2000);
        c.upload.record(Instant::from_secs(6), 500);
        let s = c.snapshot(Instant::from_secs(6));
        assert_eq!(s.key, 3);
        assert_eq!(s.downloaded_from, 2000);
        assert_eq!(s.uploaded_to, 500);
        assert!(s.download_rate > 0.0);
    }
}
