//! The engine's connection table is a slot vector indexed by `ConnId`:
//! ids are issued in order and never reused, inputs naming a closed or
//! never-issued id fall through untouched, and every per-connection
//! broadcast walks the table in ascending id with nothing to sort.
//! (ROADMAP item 5a, first slice: the engine's id handling under inputs
//! a driver can race or a hostile one can invent.)

use bt_core::{Action, ConnId, Engine, EngineBuilder, Input, PeerCaps};
use bt_piece::{Bitfield, Geometry};
use bt_wire::message::{BlockRef, Message};
use bt_wire::metainfo::BLOCK_LEN;
use bt_wire::peer_id::{ClientKind, IpAddr, PeerId};
use bt_wire::time::Instant;
use bytes::Bytes;

const PIECES: u32 = 4;

/// 4 pieces × 2 blocks, synthetic data (every completed piece verifies).
fn geometry() -> Geometry {
    Geometry::new(u64::from(PIECES * 2 * BLOCK_LEN), 2 * BLOCK_LEN)
}

fn engine(pieces: Bitfield) -> Engine {
    EngineBuilder::new(
        geometry(),
        [9u8; 20],
        PeerId::new(ClientKind::Mainline402, 1),
    )
    .ip(IpAddr(1))
    .initial_pieces(pieces)
    .rng_seed(1)
    .build()
}

fn connect(e: &mut Engine, ip: u32) -> ConnId {
    e.handle(
        Instant::ZERO,
        Input::PeerConnected {
            ip: IpAddr(ip),
            peer_id: PeerId::new(ClientKind::Azureus, u64::from(ip)),
            initiated_by_us: false,
            caps: PeerCaps::default(),
        },
    )
    .take_accepted()
    .expect("accepted")
}

fn feed(e: &mut Engine, conn: ConnId, msg: Message) {
    e.handle(Instant::ZERO, Input::Message { conn, msg });
}

fn disconnect(e: &mut Engine, conn: ConnId) {
    e.handle(Instant::ZERO, Input::PeerDisconnected { conn });
}

/// Ten peers, ids 0..=9 in connect order; 3 and 6 then leave and two
/// more arrive, so the open set `{0,1,2,4,5,7,8,9,10,11}` has holes.
fn engine_with_holes(pieces: Bitfield, remote: &Bitfield) -> (Engine, Vec<ConnId>) {
    let mut e = engine(pieces);
    for ip in 10..20 {
        connect(&mut e, ip);
    }
    disconnect(&mut e, 3);
    disconnect(&mut e, 6);
    connect(&mut e, 20);
    connect(&mut e, 21);
    let open: Vec<ConnId> = e.connections().map(|c| c.id).collect();
    assert_eq!(open, vec![0, 1, 2, 4, 5, 7, 8, 9, 10, 11]);
    for &id in &open {
        feed(&mut e, id, Message::Bitfield(remote.to_wire()));
    }
    let _ = e.drain_actions();
    (e, open)
}

/// The connections a run of `Send` actions carrying `want` went to, in
/// the order the engine emitted them.
fn recipients(actions: &[Action], want: impl Fn(&Message) -> bool) -> Vec<ConnId> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::Send { conn, msg } if want(msg) => Some(*conn),
            _ => None,
        })
        .collect()
}

fn assert_ascending(ids: &[ConnId]) {
    let mut sorted = ids.to_vec();
    sorted.sort_unstable();
    assert_eq!(ids, sorted, "not in ascending ConnId");
}

#[test]
fn ids_stay_monotonic_across_reconnects() {
    let mut e = engine(Bitfield::new(PIECES));
    assert_eq!(connect(&mut e, 7), 0);
    disconnect(&mut e, 0);
    assert_eq!(e.peer_set_size(), 0);
    // The same address again gets a new id; the old one stays closed.
    assert_eq!(connect(&mut e, 7), 1);
    assert_eq!(connect(&mut e, 8), 2);
    assert!(e.connection(0).is_none());
    assert_eq!(e.connection(1).map(|c| c.ip), Some(IpAddr(7)));
    assert_eq!(e.peer_set_size(), 2);
    assert_eq!(
        e.connections().map(|c| c.id).collect::<Vec<_>>(),
        vec![1, 2]
    );
}

#[test]
fn inputs_for_closed_or_unissued_ids_are_no_ops() {
    let mut e = engine(Bitfield::full(PIECES));
    let live = connect(&mut e, 7);
    let closed = connect(&mut e, 8);
    disconnect(&mut e, closed);
    let _ = e.drain_actions();
    let block = geometry().block_ref(0, 0);
    let off_grid = BlockRef {
        piece: 99,
        offset: 1,
        length: 5,
    };
    for conn in [closed, 2, 1_000_000, ConnId::MAX] {
        let messages = [
            Message::KeepAlive,
            Message::Bitfield(vec![0xFF; 64]), // malformed, were it read
            Message::Have(2),
            Message::Have(999),
            Message::Interested,
            Message::Unchoke,
            Message::Choke,
            Message::Request(block),
            Message::Request(off_grid),
            Message::Piece {
                block,
                data: Bytes::new(),
            },
            Message::Cancel(block),
            Message::HaveAll,
            Message::RejectRequest(block),
            Message::AllowedFast(1),
            Message::Extended {
                ext_id: 0,
                payload: Vec::new(),
            },
        ];
        for msg in messages {
            let actions = e.handle(Instant::ZERO, Input::Message { conn, msg });
            assert!(actions.take_error().is_none());
        }
        e.handle(Instant::ZERO, Input::BlockSent { conn, block });
        e.handle(Instant::ZERO, Input::PeerDisconnected { conn });
        assert_eq!(e.drain_actions(), vec![], "conn {conn} is not open");
        assert!(e.connection(conn).is_none());
    }
    // Nothing above touched the open connection or claimed an id: the
    // table did not grow towards the ids it was shown.
    assert_eq!(e.peer_set_size(), 1);
    assert!(e.connection(live).is_some());
    assert_eq!(connect(&mut e, 9), 2);
}

#[test]
fn have_broadcast_walks_connections_in_ascending_id() {
    let remote = Bitfield::full(PIECES);
    let (mut e, open) = engine_with_holes(Bitfield::new(PIECES), &remote);
    // Download piece by piece from connection 5 until the last piece,
    // which ends the download and closes the seeds instead.
    feed(&mut e, 5, Message::Unchoke);
    let mut broadcasts = 0;
    let mut pending: Vec<BlockRef> = Vec::new();
    while e.num_pieces_have() + 1 < PIECES {
        let actions = e.drain_actions();
        let have = recipients(&actions, |m| matches!(m, Message::Have(_)));
        if !have.is_empty() {
            broadcasts += 1;
            assert_ascending(&have);
            assert_eq!(have, open, "every open connection, once");
        }
        pending.extend(actions.iter().filter_map(|a| match a {
            Action::Send {
                msg: Message::Request(b),
                ..
            } => Some(*b),
            _ => None,
        }));
        let block = pending.remove(0);
        let data = Bytes::new();
        feed(&mut e, 5, Message::Piece { block, data });
    }
    assert!(broadcasts >= 2, "saw {broadcasts} Have broadcasts");
}

#[test]
fn rechoke_walks_connections_in_ascending_id() {
    let (mut e, open) = engine_with_holes(Bitfield::new(PIECES), &Bitfield::new(PIECES));
    for &id in &open {
        feed(&mut e, id, Message::Interested);
    }
    let _ = e.drain_actions();
    // The first round fills the four slots; the fourth (30 s on) moves
    // the optimistic unchoke, one choke and one unchoke in the same walk.
    let mut flips = 0;
    for round in 1..=4 {
        e.rechoke(Instant::from_secs(10 * round));
        let actions = e.drain_actions();
        let touched = recipients(&actions, |m| matches!(m, Message::Choke | Message::Unchoke));
        assert_ascending(&touched);
        assert!(touched.iter().all(|id| open.contains(id)));
        flips += touched.len();
    }
    assert_eq!(flips, 6, "four unchokes, then one slot handed over");
}
