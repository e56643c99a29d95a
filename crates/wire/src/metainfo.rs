//! Torrent metainfo (`.torrent` files).
//!
//! A metainfo file is a bencoded dictionary carrying the tracker URL and an
//! `info` dictionary with the content name, piece length, concatenated
//! SHA-1 piece hashes and total length. The SHA-1 of the canonically
//! encoded `info` dictionary is the *info-hash* identifying the torrent.
//!
//! The paper's torrents use 256 kB pieces by default ("the file is split in
//! pieces of typically 256 kB, and each piece is split in blocks of
//! 16 kB" — §II-B); both values are configurable here.

use crate::bencode::{self, DictBuilder, Value};
use crate::content::fill_content;
use crate::sha1::{self, Digest, Sha1};

/// Default piece size used by the paper's torrents (256 kB).
pub const DEFAULT_PIECE_LEN: u32 = 256 * 1024;

/// BitTorrent's transmission unit: blocks of 16 kB (2^14, §III-C).
pub const BLOCK_LEN: u32 = 16 * 1024;

/// Errors when parsing a metainfo file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetainfoError {
    /// The outer bencoding was invalid.
    Bencode(bencode::BencodeError),
    /// A required key was absent or of the wrong type.
    MissingField(&'static str),
    /// `pieces` was not a multiple of 20 bytes.
    BadPiecesLength(usize),
    /// Zero piece length, zero pieces, or inconsistent length/piece count.
    InvalidGeometry(String),
}

impl std::fmt::Display for MetainfoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetainfoError::Bencode(e) => write!(f, "bencode error: {e}"),
            MetainfoError::MissingField(k) => write!(f, "missing or mistyped field `{k}`"),
            MetainfoError::BadPiecesLength(n) => {
                write!(f, "`pieces` length {n} is not a multiple of 20")
            }
            MetainfoError::InvalidGeometry(m) => write!(f, "invalid geometry: {m}"),
        }
    }
}

impl std::error::Error for MetainfoError {}

impl From<bencode::BencodeError> for MetainfoError {
    fn from(e: bencode::BencodeError) -> Self {
        MetainfoError::Bencode(e)
    }
}

/// Parsed torrent metainfo.
///
/// ```
/// use bt_wire::metainfo::{Metainfo, SyntheticContent};
/// let c = SyntheticContent::generate("demo", 1, 4 * 256 * 1024, 256 * 1024);
/// let encoded = c.metainfo.encode();           // a real .torrent file
/// let parsed = Metainfo::parse(&encoded).unwrap();
/// assert_eq!(parsed.num_pieces(), 4);
/// assert_eq!(parsed.info_hash, c.metainfo.info_hash);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metainfo {
    /// Tracker announce URL.
    pub announce: String,
    /// Content name.
    pub name: String,
    /// Bytes per piece (except possibly the last).
    pub piece_len: u32,
    /// Total content length in bytes.
    pub total_len: u64,
    /// SHA-1 digest of each piece, in order.
    pub piece_hashes: Vec<Digest>,
    /// SHA-1 of the canonical `info` dictionary.
    pub info_hash: Digest,
}

impl Metainfo {
    /// Number of pieces.
    pub fn num_pieces(&self) -> u32 {
        self.piece_hashes.len() as u32
    }

    /// Length in bytes of piece `index` (the final piece may be short).
    pub fn piece_size(&self, index: u32) -> u32 {
        debug_assert!(index < self.num_pieces());
        if index + 1 == self.num_pieces() {
            let rem = self.total_len - u64::from(self.piece_len) * u64::from(index);
            rem as u32
        } else {
            self.piece_len
        }
    }

    /// Number of 16 kB blocks in piece `index` (last block may be short).
    pub fn blocks_in_piece(&self, index: u32) -> u32 {
        self.piece_size(index).div_ceil(BLOCK_LEN)
    }

    /// Length of block `block` within piece `index`.
    pub fn block_size(&self, index: u32, block: u32) -> u32 {
        let piece = self.piece_size(index);
        debug_assert!(block < self.blocks_in_piece(index));
        if (block + 1) * BLOCK_LEN <= piece {
            BLOCK_LEN
        } else {
            piece - block * BLOCK_LEN
        }
    }

    /// Build the canonical bencoded `.torrent` file contents.
    pub fn encode(&self) -> Vec<u8> {
        let mut pieces = Vec::with_capacity(self.piece_hashes.len() * 20);
        for h in &self.piece_hashes {
            pieces.extend_from_slice(h);
        }
        let info = DictBuilder::new()
            .int("length", self.total_len as i64)
            .str("name", &self.name)
            .int("piece length", i64::from(self.piece_len))
            .bytes("pieces", pieces)
            .build();
        DictBuilder::new()
            .str("announce", &self.announce)
            .insert("info", info)
            .build()
            .encode()
    }

    /// Parse a bencoded `.torrent` file.
    pub fn parse(data: &[u8]) -> Result<Metainfo, MetainfoError> {
        let root = bencode::decode(data)?;
        let announce = root
            .get("announce")
            .and_then(Value::as_str)
            .ok_or(MetainfoError::MissingField("announce"))?
            .to_owned();
        let info = root
            .get("info")
            .ok_or(MetainfoError::MissingField("info"))?;
        let name = info
            .get("name")
            .and_then(Value::as_str)
            .ok_or(MetainfoError::MissingField("name"))?
            .to_owned();
        let piece_len = info
            .get("piece length")
            .and_then(Value::as_int)
            .filter(|v| *v > 0 && *v <= i64::from(u32::MAX))
            .ok_or(MetainfoError::MissingField("piece length"))? as u32;
        let total_len = info
            .get("length")
            .and_then(Value::as_int)
            .filter(|v| *v > 0)
            .ok_or(MetainfoError::MissingField("length"))? as u64;
        let pieces_raw = info
            .get("pieces")
            .and_then(Value::as_bytes)
            .ok_or(MetainfoError::MissingField("pieces"))?;
        if pieces_raw.len() % 20 != 0 || pieces_raw.is_empty() {
            return Err(MetainfoError::BadPiecesLength(pieces_raw.len()));
        }
        let piece_hashes: Vec<Digest> = pieces_raw
            .chunks_exact(20)
            .map(|c| {
                let mut d = [0u8; 20];
                d.copy_from_slice(c);
                d
            })
            .collect();
        let expected = total_len.div_ceil(u64::from(piece_len));
        if expected != piece_hashes.len() as u64 {
            return Err(MetainfoError::InvalidGeometry(format!(
                "length {total_len} / piece {piece_len} needs {expected} hashes, got {}",
                piece_hashes.len()
            )));
        }
        let info_hash = sha1::sha1(&info.encode());
        Ok(Metainfo {
            announce,
            name,
            piece_len,
            total_len,
            piece_hashes,
            info_hash,
        })
    }
}

/// Generate deterministic synthetic content and its metainfo.
///
/// The byte at offset `i` of torrent `seed` is a cheap keyed mix, so two
/// torrents with different seeds have unrelated content, and piece hashing
/// (and hash *failure* injection) exercises the real verification path.
pub struct SyntheticContent {
    /// Generated metainfo.
    pub metainfo: Metainfo,
    seed: u64,
}

/// Bytes of content filled and then hashed at a time: small enough to
/// stay in a core's L2 cache between the fill and the hash, and a
/// multiple of SHA-1's 64-byte block, so only a piece's last run leaves
/// a partial block in the hasher.
const RUN_LEN: u64 = 64 * 1024;

/// Content a hashing thread is given at least. On a 2-vCPU x86_64 host
/// asking for the core count takes about 14 µs (std reads the cgroup's
/// CPU quota from files) and starting and joining a scoped thread about
/// 18 µs: together the time it takes to fill and hash some 28 KiB there.
/// A 32 KiB content made on two threads took 0.07 ms where one thread
/// took 0.04; from 128 KiB a thread saves several times what it costs.
const MIN_THREAD_LEN: u64 = 128 * 1024;

/// The SHA-1 of every piece of the content keyed by `seed`, the pieces
/// split into `threads` contiguous ranges (at most one per piece). The
/// last range is hashed on the calling thread and each other one on a
/// scoped thread of its own, so one thread starts none. A piece's hash
/// does not depend on the split.
fn piece_hashes(seed: u64, total_len: u64, piece_len: u32, threads: usize) -> Vec<Digest> {
    let num_pieces = total_len.div_ceil(u64::from(piece_len)) as usize;
    let threads = threads.clamp(1, num_pieces);
    let mut hashes = vec![[0u8; sha1::DIGEST_LEN]; num_pieces];
    std::thread::scope(|scope| {
        let mut rest = &mut hashes[..];
        let mut first = 0;
        for t in 1..=threads {
            let end = t * num_pieces / threads;
            let (range, tail) = rest.split_at_mut(end - first);
            let first_piece = first as u64;
            if t == threads {
                hash_pieces(seed, total_len, piece_len, first_piece, range);
            } else {
                scope.spawn(move || hash_pieces(seed, total_len, piece_len, first_piece, range));
            }
            rest = tail;
            first = end;
        }
    });
    hashes
}

/// Hash pieces `first..first + out.len()` into `out`, filling each in
/// runs of at most [`RUN_LEN`] bytes through one reused run buffer.
fn hash_pieces(seed: u64, total_len: u64, piece_len: u32, first: u64, out: &mut [Digest]) {
    let piece_len = u64::from(piece_len);
    let mut run = vec![0u8; RUN_LEN.min(piece_len).min(total_len) as usize];
    for (p, digest) in (first..).zip(out) {
        let mut at = p * piece_len;
        let end = (at + piece_len).min(total_len);
        let mut hasher = Sha1::new();
        while at < end {
            let chunk = &mut run[..(end - at).min(RUN_LEN) as usize];
            fill_content(seed, at, chunk);
            hasher.update(chunk);
            at += chunk.len() as u64;
        }
        *digest = hasher.finalize();
    }
}

impl SyntheticContent {
    /// Build content of `total_len` bytes in `piece_len`-byte pieces.
    ///
    /// The pieces are filled and hashed on
    /// `std::thread::available_parallelism()` threads, never more than
    /// there are pieces nor one per 128 KiB of content: a one-piece
    /// content (the simulator's stub) or one under 256 KiB is made on
    /// the calling thread, which starts no thread and does not ask for
    /// the core count. Each thread holds one run buffer of at most
    /// 64 KiB, not a whole piece.
    ///
    /// # Panics
    /// Panics if `total_len == 0` or `piece_len == 0`.
    pub fn generate(name: &str, seed: u64, total_len: u64, piece_len: u32) -> SyntheticContent {
        assert!(total_len > 0, "content must be non-empty");
        assert!(piece_len > 0, "piece length must be non-zero");
        let most = (total_len / MIN_THREAD_LEN) as usize;
        let threads = if most > 1 && u64::from(piece_len) < total_len {
            std::thread::available_parallelism()
                .map_or(1, usize::from)
                .min(most)
        } else {
            1
        };
        let piece_hashes = piece_hashes(seed, total_len, piece_len, threads);
        let metainfo = Metainfo {
            announce: format!("sim://tracker/{name}"),
            name: name.to_owned(),
            piece_len,
            total_len,
            piece_hashes,
            info_hash: [0u8; 20],
        };
        // Fill in the real info-hash by round-tripping the canonical form.
        let encoded = metainfo.encode();
        let parsed = Metainfo::parse(&encoded).expect("self-generated metainfo parses");
        SyntheticContent {
            metainfo: parsed,
            seed,
        }
    }

    /// Materialise the bytes of one block (for wire-level transfers).
    pub fn block_bytes(&self, piece: u32, block: u32) -> Vec<u8> {
        let mut out = vec![0u8; self.metainfo.block_size(piece, block) as usize];
        self.fill_block(piece, block, &mut out);
        out
    }

    /// Write the bytes of one block into `out`, which holds exactly the
    /// block (shorter for a torrent's tail block): for a caller that
    /// frames the block itself and wants it written in place.
    ///
    /// # Panics
    /// If `out` is not the block's size.
    pub fn fill_block(&self, piece: u32, block: u32, out: &mut [u8]) {
        let len = self.metainfo.block_size(piece, block);
        assert_eq!(
            out.len(),
            len as usize,
            "block {piece}/{block} is {len} bytes"
        );
        let start =
            u64::from(piece) * u64::from(self.metainfo.piece_len) + u64::from(block * BLOCK_LEN);
        fill_content(self.seed, start, out);
    }

    /// Materialise a whole piece.
    pub fn piece_bytes(&self, piece: u32) -> Vec<u8> {
        let mut out = vec![0u8; self.metainfo.piece_size(piece) as usize];
        let start = u64::from(piece) * u64::from(self.metainfo.piece_len);
        fill_content(self.seed, start, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SyntheticContent {
        // 5 pieces of 32 KiB plus a short 10 KiB tail piece.
        SyntheticContent::generate("t", 7, 5 * 32 * 1024 + 10 * 1024, 32 * 1024)
    }

    #[test]
    fn geometry_basics() {
        let m = &small().metainfo;
        assert_eq!(m.num_pieces(), 6);
        assert_eq!(m.piece_size(0), 32 * 1024);
        assert_eq!(m.piece_size(5), 10 * 1024);
        assert_eq!(m.blocks_in_piece(0), 2);
        assert_eq!(m.blocks_in_piece(5), 1);
        assert_eq!(m.block_size(0, 0), BLOCK_LEN);
        assert_eq!(m.block_size(5, 0), 10 * 1024);
    }

    #[test]
    fn encode_parse_roundtrip() {
        let m = small().metainfo.clone();
        let parsed = Metainfo::parse(&m.encode()).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn info_hash_is_stable_and_distinguishes_content() {
        let a = SyntheticContent::generate("a", 1, 64 * 1024, 32 * 1024);
        let b = SyntheticContent::generate("a", 2, 64 * 1024, 32 * 1024);
        let a2 = SyntheticContent::generate("a", 1, 64 * 1024, 32 * 1024);
        assert_eq!(a.metainfo.info_hash, a2.metainfo.info_hash);
        assert_ne!(a.metainfo.info_hash, b.metainfo.info_hash);
    }

    #[test]
    fn piece_hashes_verify_generated_blocks() {
        let c = small();
        for p in 0..c.metainfo.num_pieces() {
            let mut assembled = Vec::new();
            for blk in 0..c.metainfo.blocks_in_piece(p) {
                assembled.extend_from_slice(&c.block_bytes(p, blk));
            }
            assert_eq!(assembled, c.piece_bytes(p));
            assert_eq!(sha1::sha1(&assembled), c.metainfo.piece_hashes[p as usize]);
        }
    }

    /// Every split of the pieces over threads gives each piece the SHA-1
    /// of its bytes: piece lengths below and above one run, neither a
    /// multiple of it, so a piece's last run is short, and a short tail
    /// piece.
    #[test]
    fn every_thread_split_gives_the_same_hashes() {
        let cases = [
            (1, 40_000),
            (2, 40_000),
            (7, 40_000),
            (37, 40_000),
            (7, 150_000),
        ];
        for (num_pieces, piece_len) in cases {
            let total = (num_pieces - 1) * u64::from(piece_len) + 777;
            let c = SyntheticContent::generate("split", 49, total, piece_len);
            let want: Vec<Digest> = (0..c.metainfo.num_pieces())
                .map(|p| sha1::sha1(&c.piece_bytes(p)))
                .collect();
            for threads in [1, 2, 3, 5] {
                assert_eq!(
                    piece_hashes(49, total, piece_len, threads),
                    want,
                    "{num_pieces} pieces of {piece_len} B on {threads} threads"
                );
            }
            assert_eq!(c.metainfo.piece_hashes, want);
        }
    }

    #[test]
    fn parse_rejects_missing_fields() {
        let m = small().metainfo.clone();
        let mut enc = m.encode();
        // Corrupt the announce key so it is missing.
        let pos = enc.windows(8).position(|w| w == b"announce").unwrap();
        enc[pos] = b'b';
        assert!(Metainfo::parse(&enc).is_err());
    }

    #[test]
    fn parse_rejects_wrong_hash_count() {
        let mut m = small().metainfo.clone();
        m.piece_hashes.pop();
        assert!(matches!(
            Metainfo::parse(&m.encode()),
            Err(MetainfoError::InvalidGeometry(_))
        ));
    }

    #[test]
    fn paper_default_geometry() {
        // Torrent 8 of Table I has 863 pieces. Generate it at a reduced
        // piece size (32 kB instead of the real 4 MB) so the test stays
        // fast; the piece *count* and block arithmetic are what matter.
        let c = SyntheticContent::generate("t8", 8, 863 * 32 * 1024, 32 * 1024);
        assert_eq!(c.metainfo.num_pieces(), 863);
        assert_eq!(c.metainfo.blocks_in_piece(0), 2);
        // And the real defaults: a 256 kB piece holds sixteen 16 kB blocks.
        let g = SyntheticContent::generate("d", 1, u64::from(DEFAULT_PIECE_LEN), DEFAULT_PIECE_LEN);
        assert_eq!(g.metainfo.blocks_in_piece(0), 16);
    }
}
