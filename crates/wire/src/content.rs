//! The bytes of synthetic content: a keyed splitmix64 mix per offset.
//!
//! Every real-data run generates each byte of its torrent twice: once
//! to hash the pieces into the metainfo, once when the seed serves the
//! block. [`fill_content`] writes a run of bytes with one loop over the
//! slice, and on x86_64 CPUs with AVX-512 (F, DQ, BW and VL) it runs a
//! second copy of that same loop compiled for them, which LLVM turns
//! into eight-lane native 64-bit multiplies; everywhere else the
//! portable copy runs. Both are the one algorithm, [`content_byte`],
//! which stays the oracle they are tested against. This file, the
//! SHA-NI compress and `bt-net`'s `poll(2)` wrapper are the tree's only
//! `unsafe`.

/// The byte at `offset` of the content keyed by `seed`. Inlined into
/// the fill loop, which vectorises only then.
#[inline(always)]
fn content_byte(seed: u64, offset: u64) -> u8 {
    let mut z = seed ^ offset.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as u8
}

/// Write the bytes at offsets `start..start + out.len()` into `out`.
pub(crate) fn fill_content(seed: u64, start: u64, out: &mut [u8]) {
    #[cfg(target_arch = "x86_64")]
    if has_avx512() {
        return fill_avx512(seed, start, out);
    }
    fill(seed, start, out);
}

/// The one loop, compiled for the baseline target where it is inlined
/// into `fill_content` and for AVX-512 in `fill_avx512_body`.
#[inline(always)]
fn fill(seed: u64, start: u64, out: &mut [u8]) {
    for (i, byte) in out.iter_mut().enumerate() {
        *byte = content_byte(seed, start.wrapping_add(i as u64));
    }
}

/// True when the CPU has every feature `fill_avx512_body` is compiled
/// for. std caches the answer, so asking per fill costs a few loads.
#[cfg(target_arch = "x86_64")]
fn has_avx512() -> bool {
    is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512dq")
        && is_x86_feature_detected!("avx512bw")
        && is_x86_feature_detected!("avx512vl")
}

/// # Panics
///
/// If the CPU lacks any of the four features; the dispatch checks first.
#[cfg(target_arch = "x86_64")]
fn fill_avx512(seed: u64, start: u64, out: &mut [u8]) {
    assert!(has_avx512(), "AVX-512 fill on a CPU without it");
    // SAFETY: the assertion above established that the CPU supports
    // every feature `fill_avx512_body` is compiled for.
    unsafe { fill_avx512_body(seed, start, out) }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512bw,avx512vl")]
fn fill_avx512_body(seed: u64, start: u64, out: &mut [u8]) {
    fill(seed, start, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// Lengths on both sides of every vector width, a block and a
    /// 1 MiB piece.
    fn lengths() -> impl Iterator<Item = usize> {
        (0..=300).chain([16 << 10, 1 << 20])
    }

    /// Each compiled copy against `content_byte` one byte at a time,
    /// over random seeds, unaligned starts up to 2^40 and slices at
    /// random addresses.
    #[test]
    fn every_fill_matches_the_per_byte_oracle() {
        #[cfg(target_arch = "x86_64")]
        let avx512 = has_avx512();
        #[cfg(target_arch = "x86_64")]
        if !avx512 {
            eprintln!("note: this CPU has no AVX-512; the AVX-512 fill was not tested");
        }
        let mut rng = SmallRng::seed_from_u64(0xC0E7);
        let mut buf = vec![0u8; (1 << 20) + 64];
        for len in lengths() {
            let seed = rng.next_u64();
            let start = rng.random_range(0..1u64 << 40);
            let at = rng.random_range(0..64usize);
            let want: Vec<u8> = (0..len as u64)
                .map(|i| content_byte(seed, start + i))
                .collect();
            let out = &mut buf[at..at + len];
            out.fill(0xA5);
            fill(seed, start, out);
            assert_eq!(out, &want[..], "portable, {len} bytes from {start}");
            #[cfg(target_arch = "x86_64")]
            if avx512 {
                out.fill(0xA5);
                fill_avx512(seed, start, out);
                assert_eq!(out, &want[..], "AVX-512, {len} bytes from {start}");
            }
        }
    }
}
