//! The straightforward SHA-1 of FIPS 180-1, kept as the oracle for
//! `bt_wire::sha1`: an 80-word schedule, one `match` per round, padding
//! fed a byte at a time. It was the production hasher until the
//! compress was rewritten; the two must agree on every length, content
//! and `update` chunking, whichever compress (SHA-NI or scalar) the CPU
//! runs. Two torrents of synthetic content pin their info-hashes, so
//! the content generator, whichever copy of its fill the CPU runs,
//! keeps every byte too.

use bt_wire::metainfo::SyntheticContent;
use bt_wire::sha1::{sha1, to_hex, Digest, Sha1};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

struct ReferenceSha1 {
    state: [u32; 5],
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl ReferenceSha1 {
    fn new() -> Self {
        ReferenceSha1 {
            state: [
                0x6745_2301,
                0xEFCD_AB89,
                0x98BA_DCFE,
                0x1032_5476,
                0xC3D2_E1F0,
            ],
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        for &byte in data {
            self.buf[self.buf_len] = byte;
            self.buf_len += 1;
            if self.buf_len == 64 {
                let block = self.buf;
                self.process_block(&block);
                self.buf_len = 0;
            }
        }
    }

    fn finalize(mut self) -> Digest {
        let bit_len = self.len.wrapping_mul(8);
        self.update(&[0x80]);
        while self.buf_len != 56 {
            self.update(&[0]);
        }
        self.update(&bit_len.to_be_bytes());
        let mut out = [0u8; 20];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn process_block(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 80];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }
        let [mut a, mut b, mut c, mut d, mut e] = self.state;
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | ((!b) & d), 0x5A82_7999),
                20..=39 => (b ^ c ^ d, 0x6ED9_EBA1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1B_BCDC),
                _ => (b ^ c ^ d, 0xCA62_C1D6),
            };
            let tmp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
    }
}

fn reference(data: &[u8]) -> Digest {
    let mut h = ReferenceSha1::new();
    h.update(data);
    h.finalize()
}

/// Chunk sizes on both sides of the 64-byte block and its double.
const CHUNKS: [usize; 7] = [1, 3, 63, 64, 65, 127, 128];

#[test]
fn reference_reproduces_the_fips_vectors() {
    for (input, hex) in [
        (&b""[..], "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
        (&b"abc"[..], "a9993e364706816aba3e25717850c26c9cd0d89d"),
        (
            &b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"[..],
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
        ),
    ] {
        assert_eq!(to_hex(&reference(input)), hex);
        assert_eq!(to_hex(&sha1(input)), hex);
    }
    let million_a = vec![b'a'; 1_000_000];
    let hex = "34aa973cd4c4daa4f61eeb2bdbad27316534016f";
    assert_eq!(to_hex(&reference(&million_a)), hex);
    assert_eq!(to_hex(&sha1(&million_a)), hex);
}

#[test]
fn every_length_and_chunking_matches_the_reference() {
    let mut rng = SmallRng::seed_from_u64(0x5A1);
    for len in 0..=300usize {
        let mut data = vec![0u8; len];
        rng.fill_bytes(&mut data);
        let want = reference(&data);
        assert_eq!(sha1(&data), want, "one-shot, {len} bytes");
        for size in CHUNKS {
            let mut h = Sha1::new();
            for chunk in data.chunks(size) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), want, "{len} bytes in chunks of {size}");
        }
        // A different size for every `update`, so a block can start in
        // one call and end in another at any offset.
        let mut h = Sha1::new();
        let mut rest = &data[..];
        let mut sizes = Vec::new();
        while !rest.is_empty() {
            let size = CHUNKS[rng.random_range(0..CHUNKS.len())].min(rest.len());
            sizes.push(size);
            h.update(&rest[..size]);
            rest = &rest[size..];
        }
        assert_eq!(h.finalize(), want, "{len} bytes in chunks of {sizes:?}");
    }
}

/// `update` hands each run of whole blocks to the compress in one call:
/// split a ten-block message at every offset 0..=64 either side of a
/// block boundary, and start a five-block run at every offset in the
/// first block, so runs begin and end on both sides of the boundary.
#[test]
fn runs_split_at_every_offset_match_the_reference() {
    let mut rng = SmallRng::seed_from_u64(0x5A2);
    let mut data = vec![0u8; 10 * 64 + 17];
    rng.fill_bytes(&mut data);
    let want = reference(&data);
    for offset in 0..=64 {
        for split in [4 * 64 - offset, 4 * 64 + offset] {
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), want, "split at {split}");
        }
        let run = offset..offset + 5 * 64;
        let mut h = Sha1::new();
        h.update(&data[..run.start]);
        h.update(&data[run.clone()]);
        h.update(&data[run.end..]);
        assert_eq!(h.finalize(), want, "five-block run from {offset}");
    }
}

/// The default loopback swarm's torrent: 64 piece hashes and the
/// info-hash over them, as the straightforward compress produced it.
#[test]
fn loopback_content_keeps_its_info_hash() {
    let content = SyntheticContent::generate("net-loopback", 42, 2 << 20, 32 << 10);
    assert_eq!(
        to_hex(&content.metainfo.info_hash),
        "3cd32fc5ae77c6fe5cc89e1116aad8ae9d1c8072"
    );
    assert_eq!(
        content.metainfo.piece_hashes[17],
        reference(&content.piece_bytes(17))
    );
}

/// The content generator's formula, written out again as the oracle
/// for the bytes `SyntheticContent` serves.
fn reference_byte(seed: u64, offset: u64) -> u8 {
    let mut z = seed ^ offset.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as u8
}

/// `net_bulk`'s geometry, 1 MiB pieces, with a 1 000-byte tail piece:
/// the info-hash as the per-byte generator produced it, and the tail
/// block byte for byte.
#[test]
fn tailed_content_keeps_its_info_hash() {
    let content = SyntheticContent::generate("net-tail", 7, 3 << 20 | 1000, 1 << 20);
    assert_eq!(
        to_hex(&content.metainfo.info_hash),
        "8c3bd9c36bfa5ee2ddbd91451e2d5d346d7fd2bd"
    );
    assert_eq!(content.metainfo.num_pieces(), 4);
    let want: Vec<u8> = (3 << 20..3 << 20 | 1000)
        .map(|off| reference_byte(7, off))
        .collect();
    assert_eq!(content.block_bytes(3, 0), want);
    assert_eq!(content.metainfo.piece_hashes[3], reference(&want));
}

/// An odd piece count with a 777-byte tail, pieces that are not a whole
/// number of the generator's fill runs: the info-hash as one thread
/// filling whole pieces produced it, whatever split of the pieces over
/// threads the host now makes.
#[test]
fn odd_split_content_keeps_its_info_hash() {
    let content = SyntheticContent::generate("split", 49, 36 * 40_000 + 777, 40_000);
    assert_eq!(content.metainfo.num_pieces(), 37);
    assert_eq!(
        to_hex(&content.metainfo.info_hash),
        "274536de95e61d0cc0c17417fc6b5c4402fba940"
    );
    assert_eq!(
        content.metainfo.piece_hashes[36],
        reference(&content.piece_bytes(36))
    );
}
