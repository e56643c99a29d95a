//! Engine configuration.
//!
//! §III-C lists the main default parameters of the instrumented mainline
//! client:
//!
//! > "the maximum upload rate (default to 20 kB/s), the minimum number of
//! > peers in the peer set before requesting more peers to the tracker
//! > (default to 20), the maximum number of connections the local peer can
//! > initiate (default to 40), the maximum number of peers in the peer set
//! > (default to 80), the number of peers in the active peer set including
//! > the optimistic unchoke (default to 4), the block size (default to
//! > 2^14 Bytes), the number of pieces downloaded before switching from
//! > random to rarest first piece selection (default to 4)."
//!
//! [`Config`] holds the three peer-set bounds, which [`Config::default`]
//! sets to those values, and the strategy and behaviour switches callers
//! vary. Every other parameter has one definition, in the code that
//! enforces it: the active set is `bt_choke::REGULAR_SLOTS` regular
//! unchokes plus one optimistic, the random-first threshold
//! `bt_piece::RANDOM_FIRST_THRESHOLD`, the block size
//! `bt_wire::BLOCK_LEN`, and the upload cap is the simulator's per-peer
//! capacity class, not an engine setting.

use bt_choke::ChokerKind;
use bt_piece::PickerKind;
use serde::{Deserialize, Serialize};

/// Tunable parameters of a [`crate::engine::Engine`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Config {
    /// Maximum peer set size (default 80).
    pub max_peer_set: usize,
    /// Request more peers from the tracker when the peer set falls below
    /// this threshold (default 20).
    pub min_peer_set: usize,
    /// Maximum number of connections the local peer may initiate
    /// (default 40); the rest must be inbound.
    pub max_initiated: usize,
    /// Piece selection strategy.
    pub picker: PickerKind,
    /// Peer selection strategy.
    pub choker: ChokerKind,
    /// Behaviour switch: never serve blocks (free rider, §IV-B).
    pub upload_disabled: bool,
    /// Behaviour switch: super-seeding-style gradual piece advertisement
    /// (§IV-A.1 mentions clients with this option as an entropy artefact).
    pub super_seed: bool,
    /// End game mode (§II-C.1). Enabled by default, as in all the paper's
    /// experiments; the ablation bench turns it off.
    pub endgame_enabled: bool,
    /// Fast Extension (BEP 6). Off by default — the paper's mainline
    /// 4.0.2 client predates it. Implemented here as the protocol-level
    /// answer to the paper's §VI *first blocks problem*: peers grant each
    /// neighbour a small allowed-fast set requestable even while choked.
    pub fast_extension: bool,
    /// Peer exchange (BEP 10/11 `ut_pex`). Off by default — post-paper;
    /// decentralises the peer-set interconnection that §II-B attributes
    /// to the tracker's random lists.
    pub pex_enabled: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_peer_set: 80,
            min_peer_set: 20,
            max_initiated: 40,
            picker: PickerKind::RarestFirst,
            choker: ChokerKind::Standard,
            upload_disabled: false,
            super_seed: false,
            endgame_enabled: true,
            fast_extension: false,
            pex_enabled: false,
        }
    }
}

impl Config {
    /// A free-riding client: standard algorithms, upload refused.
    pub fn free_rider() -> Config {
        Config {
            upload_disabled: true,
            ..Config::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_section_iii_c() {
        // Each number is read where it is enforced.
        assert_eq!(bt_choke::REGULAR_SLOTS + 1, 4);
        assert_eq!(bt_piece::RANDOM_FIRST_THRESHOLD, 4);
        assert_eq!(
            bt_choke::RECHOKE_PERIOD,
            bt_wire::time::Duration::from_secs(10)
        );
        assert_eq!(bt_wire::BLOCK_LEN, 1 << 14);
        let c = Config::default();
        assert_eq!(c.min_peer_set, 20);
        assert_eq!(c.max_peer_set, 80);
        assert_eq!(c.max_initiated, 40);
        assert_eq!(c.picker, PickerKind::RarestFirst);
        assert_eq!(c.choker, ChokerKind::Standard);
        assert!(!c.upload_disabled);
    }

    #[test]
    fn free_rider_only_disables_upload() {
        let c = Config::free_rider();
        assert!(c.upload_disabled);
        assert_eq!(c.max_peer_set, Config::default().max_peer_set);
    }
}
