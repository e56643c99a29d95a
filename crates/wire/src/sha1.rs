//! A from-scratch SHA-1 implementation (FIPS 180-1).
//!
//! BitTorrent uses SHA-1 for piece verification and for the info-hash that
//! identifies a torrent. No external hashing crate is vendored offline, so
//! this module implements the digest directly. SHA-1 is cryptographically
//! broken for collision resistance, but the reproduction only needs it for
//! protocol fidelity (the paper's client, mainline 4.0.2, used SHA-1).
//!
//! Every piece a real-data run moves is hashed twice (at generation and
//! at receipt), so the compression is written for speed. [`Sha1::update`]
//! hands every run of whole 64-byte blocks to one dispatch point: on
//! x86_64 CPUs with the SHA extensions it goes to `sha1_ni`, which keeps
//! the state in registers for the whole run; everywhere else the scalar
//! `compress` (80 rounds as straight-line code over a 16-word schedule)
//! loops over it. The scalar path is the portable one and the oracle
//! the SHA-NI path is tested against; the textbook form it replaced is
//! the oracle in `tests/sha1_reference.rs`.

#[cfg(target_arch = "x86_64")]
#[path = "sha1_ni.rs"]
mod ni;

/// Length of a SHA-1 digest in bytes.
pub const DIGEST_LEN: usize = 20;

/// A 160-bit SHA-1 digest.
pub type Digest = [u8; DIGEST_LEN];

const H0: [u32; 5] = [
    0x6745_2301,
    0xEFCD_AB89,
    0x98BA_DCFE,
    0x1032_5476,
    0xC3D2_E1F0,
];

/// Incremental SHA-1 hasher.
///
/// ```
/// use bt_wire::sha1::Sha1;
/// let mut h = Sha1::new();
/// h.update(b"abc");
/// let d = h.finalize();
/// assert_eq!(&d[..4], &[0xa9, 0x99, 0x3e, 0x36]);
/// ```
#[derive(Clone)]
pub struct Sha1 {
    state: [u32; 5],
    /// Total message length in bytes.
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Create a fresh hasher.
    pub fn new() -> Self {
        Sha1 {
            state: H0,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Feed `data` into the hash.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                return;
            }
            compress_blocks(&mut self.state, std::slice::from_ref(&self.buf));
            self.buf_len = 0;
        }
        // Whole blocks are hashed where the caller left them.
        let (blocks, tail) = rest.as_chunks::<64>();
        if !blocks.is_empty() {
            compress_blocks(&mut self.state, blocks);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Consume the hasher and produce the digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.len.wrapping_mul(8);
        // Padding: 0x80, zeros up to 56 mod 64, then the 64-bit big-endian
        // length of the message proper — one or two blocks, fed at once.
        let zeros_end = (if self.buf_len < 56 { 56 } else { 120 }) - self.buf_len;
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        pad[zeros_end..zeros_end + 8].copy_from_slice(&bit_len.to_be_bytes());
        self.update(&pad[..zeros_end + 8]);
        debug_assert_eq!(self.buf_len, 0);
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Round functions of FIPS 180-1 §5, in their cheapest equivalent forms.
macro_rules! ch {
    ($b:expr, $c:expr, $d:expr) => {
        $d ^ ($b & ($c ^ $d))
    };
}
macro_rules! parity {
    ($b:expr, $c:expr, $d:expr) => {
        $b ^ $c ^ $d
    };
}
macro_rules! maj {
    ($b:expr, $c:expr, $d:expr) => {
        ($b & $c) | ($d & ($b | $c))
    };
}

/// Round `$i` with the registers in the roles given: instead of
/// shuffling `e = d; d = c; …` after every round, the caller rotates
/// which variable plays which role. `$i` is a literal, so the schedule
/// branch and the `& 15` indices are resolved at compile time.
macro_rules! round {
    ($w:ident, $i:literal, $f:ident, $k:literal, $a:ident, $b:ident, $c:ident, $d:ident, $e:ident) => {
        if $i >= 16 {
            $w[$i & 15] =
                ($w[($i + 13) & 15] ^ $w[($i + 8) & 15] ^ $w[($i + 2) & 15] ^ $w[$i & 15])
                    .rotate_left(1);
        }
        $e = $e
            .wrapping_add($a.rotate_left(5))
            .wrapping_add($f!($b, $c, $d))
            .wrapping_add($k)
            .wrapping_add($w[$i & 15]);
        $b = $b.rotate_left(30);
    };
}

/// Twenty rounds with one function and constant: four times through
/// the five register roles. The twenty round numbers are spelled out
/// because `macro_rules!` cannot do arithmetic on a literal.
macro_rules! rounds20 {
    ($w:ident, $f:ident, $k:literal, $a:ident, $b:ident, $c:ident, $d:ident, $e:ident;
     $($i0:literal $i1:literal $i2:literal $i3:literal $i4:literal),+) => {
        $(
            round!($w, $i0, $f, $k, $a, $b, $c, $d, $e);
            round!($w, $i1, $f, $k, $e, $a, $b, $c, $d);
            round!($w, $i2, $f, $k, $d, $e, $a, $b, $c);
            round!($w, $i3, $f, $k, $c, $d, $e, $a, $b);
            round!($w, $i4, $f, $k, $b, $c, $d, $e, $a);
        )+
    };
}

/// The SHA-1 compression function: 80 rounds as straight-line code over
/// a 16-word circular message schedule.
fn compress(state: &mut [u32; 5], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (word, bytes) in w.iter_mut().zip(block.as_chunks::<4>().0) {
        *word = u32::from_be_bytes(*bytes);
    }
    let [mut a, mut b, mut c, mut d, mut e] = *state;
    rounds20!(w, ch, 0x5A82_7999, a, b, c, d, e;
        0 1 2 3 4, 5 6 7 8 9, 10 11 12 13 14, 15 16 17 18 19);
    rounds20!(w, parity, 0x6ED9_EBA1, a, b, c, d, e;
        20 21 22 23 24, 25 26 27 28 29, 30 31 32 33 34, 35 36 37 38 39);
    rounds20!(w, maj, 0x8F1B_BCDC, a, b, c, d, e;
        40 41 42 43 44, 45 46 47 48 49, 50 51 52 53 54, 55 56 57 58 59);
    rounds20!(w, parity, 0xCA62_C1D6, a, b, c, d, e;
        60 61 62 63 64, 65 66 67 68 69, 70 71 72 73 74, 75 76 77 78 79);
    for (s, v) in state.iter_mut().zip([a, b, c, d, e]) {
        *s = s.wrapping_add(v);
    }
}

/// Compress a run of whole blocks: the one place that picks SHA-NI or
/// the scalar path.
fn compress_blocks(state: &mut [u32; 5], blocks: &[[u8; 64]]) {
    #[cfg(target_arch = "x86_64")]
    if has_sha_ni() {
        return ni::compress_blocks(state, blocks);
    }
    for block in blocks {
        compress(state, block);
    }
}

/// True when the CPU has the SHA extensions and the SSSE3 and SSE4.1
/// instructions `sha1_ni` uses with them. std caches the answer, so
/// asking per run of blocks costs a load or three.
#[cfg(target_arch = "x86_64")]
fn has_sha_ni() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// One-shot SHA-1 of `data`.
pub fn sha1(data: &[u8]) -> Digest {
    let mut h = Sha1::new();
    h.update(data);
    h.finalize()
}

/// Render a digest as lowercase hex (40 characters).
pub fn to_hex(d: &Digest) -> String {
    let mut s = String::with_capacity(DIGEST_LEN * 2);
    for b in d {
        use std::fmt::Write;
        let _ = write!(s, "{b:02x}");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(input: &[u8]) -> String {
        to_hex(&sha1(input))
    }

    #[test]
    fn empty_string() {
        assert_eq!(hex(b""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn abc() {
        assert_eq!(hex(b"abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(hex(&data), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
    }

    #[test]
    fn exact_block_boundary() {
        // 64-byte input exercises the padding-into-new-block path.
        let data = vec![0x61u8; 64];
        assert_eq!(hex(&data), "0098ba824b5c16427bd7a1122a5a442a25ec644d");
    }

    #[test]
    fn fifty_five_and_fifty_six_bytes() {
        // 55 bytes: length fits in same block as padding; 56: it does not.
        let d55 = vec![b'x'; 55];
        let d56 = vec![b'x'; 56];
        assert_ne!(sha1(&d55), sha1(&d56));
        assert_eq!(hex(&d55), hex(&d55));
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let oneshot = sha1(&data);
        for chunk_size in [1usize, 3, 7, 63, 64, 65, 100] {
            let mut h = Sha1::new();
            for chunk in data.chunks(chunk_size) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), oneshot, "chunk size {chunk_size}");
        }
    }

    /// The SHA-NI path against the scalar compress, from random states
    /// over random runs of 1–64 blocks.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sha_ni_matches_the_scalar_compress() {
        use rand::rngs::SmallRng;
        use rand::{Rng, RngCore, SeedableRng};
        if !has_sha_ni() {
            eprintln!("note: this CPU has no SHA extensions; SHA-NI path not tested");
            return;
        }
        let mut rng = SmallRng::seed_from_u64(0x5EA1);
        for _ in 0..500 {
            let start = [0; 5].map(|_: u32| rng.next_u32());
            let mut blocks = vec![[0u8; 64]; rng.random_range(1..=64usize)];
            for block in &mut blocks {
                rng.fill_bytes(block);
            }
            let mut scalar = start;
            for block in &blocks {
                compress(&mut scalar, block);
            }
            let mut vector = start;
            ni::compress_blocks(&mut vector, &blocks);
            assert_eq!(vector, scalar, "{} blocks from {start:08x?}", blocks.len());
        }
    }

    #[test]
    fn hex_rendering() {
        let d = sha1(b"abc");
        let h = to_hex(&d);
        assert_eq!(h.len(), 40);
        assert!(h.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
