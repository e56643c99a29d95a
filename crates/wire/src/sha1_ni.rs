//! SHA-1 block compression with the x86 SHA extensions (SHA-NI).
//!
//! One function hashes a whole run of 64-byte blocks with the state
//! held in two registers: `abcd` (A in the top lane) and the lane that
//! carries E. Each `sha1rnds4` does four rounds; `sha1nexte` derives
//! the next E from the previous `abcd` and adds the four schedule words;
//! `sha1msg1`/`sha1msg2` extend the schedule four words at a time.
//!
//! `super::compress_blocks` is the only caller and reaches it only when
//! `super::has_sha_ni` reports the features; the scalar `compress` is
//! the oracle it is tested against (`super::tests`). This file, the
//! AVX-512 content fill (`crate::content`) and `bt-net`'s `poll(2)`
//! wrapper are the tree's only `unsafe`.

use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_extract_epi32, _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x,
    _mm_sha1msg1_epu32, _mm_sha1msg2_epu32, _mm_sha1nexte_epu32, _mm_sha1rnds4_epu32,
    _mm_shuffle_epi8, _mm_xor_si128,
};

/// Compress `blocks` into `state`, in order.
///
/// # Panics
///
/// If the CPU lacks SHA, SSSE3 or SSE4.1; the dispatch checks first.
pub(super) fn compress_blocks(state: &mut [u32; 5], blocks: &[[u8; 64]]) {
    assert!(super::has_sha_ni(), "SHA-NI path on a CPU without it");
    // SAFETY: the assertion above established that the CPU supports
    // every feature `compress_run` is compiled for.
    unsafe { compress_run(state, blocks) }
}

/// Four rounds `$g * 4 ..= $g * 4 + 3` with round function `$f`
/// (0 = Ch, 1 = Parity, 2 = Maj, 3 = Parity): `e` becomes the E input
/// of the next four, derived from the `abcd` these four started from.
macro_rules! quad {
    ($abcd:ident, $e:ident, $w:ident, $g:literal, $f:literal) => {
        if $g >= 4 {
            // W[4g..4g+4] from the four quads before it.
            $w[$g & 3] = _mm_sha1msg2_epu32(
                _mm_xor_si128(
                    _mm_sha1msg1_epu32($w[$g & 3], $w[($g + 1) & 3]),
                    $w[($g + 2) & 3],
                ),
                $w[($g + 3) & 3],
            );
        }
        let start = $abcd;
        $abcd = _mm_sha1rnds4_epu32::<$f>($abcd, _mm_sha1nexte_epu32($e, $w[$g & 3]));
        $e = start;
    };
}

#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_run(state: &mut [u32; 5], blocks: &[[u8; 64]]) {
    // Reverses all 16 bytes: big-endian word 0 lands in the top lane.
    let byte_swap = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0A0B_0C0D_0E0F);
    let [a, b, c, d, e] = state.map(|v| v as i32);
    let mut abcd = _mm_set_epi32(a, b, c, d);
    let mut e0 = _mm_set_epi32(e, 0, 0, 0);
    for block in blocks {
        let ptr = block.as_ptr().cast::<__m128i>();
        // SAFETY: `block` is 64 readable bytes, four `__m128i` wide, and
        // `loadu` has no alignment requirement.
        let words = unsafe {
            [
                _mm_loadu_si128(ptr),
                _mm_loadu_si128(ptr.add(1)),
                _mm_loadu_si128(ptr.add(2)),
                _mm_loadu_si128(ptr.add(3)),
            ]
        };
        let mut w = [
            _mm_shuffle_epi8(words[0], byte_swap),
            _mm_shuffle_epi8(words[1], byte_swap),
            _mm_shuffle_epi8(words[2], byte_swap),
            _mm_shuffle_epi8(words[3], byte_swap),
        ];
        let (abcd_in, e_in) = (abcd, e0);
        // The first quad adds the state's E as it is; the later ones
        // derive theirs from the previous quad's start with `sha1nexte`.
        let mut e = abcd;
        abcd = _mm_sha1rnds4_epu32::<0>(abcd, _mm_add_epi32(e0, w[0]));
        quad!(abcd, e, w, 1, 0);
        quad!(abcd, e, w, 2, 0);
        quad!(abcd, e, w, 3, 0);
        quad!(abcd, e, w, 4, 0);
        quad!(abcd, e, w, 5, 1);
        quad!(abcd, e, w, 6, 1);
        quad!(abcd, e, w, 7, 1);
        quad!(abcd, e, w, 8, 1);
        quad!(abcd, e, w, 9, 1);
        quad!(abcd, e, w, 10, 2);
        quad!(abcd, e, w, 11, 2);
        quad!(abcd, e, w, 12, 2);
        quad!(abcd, e, w, 13, 2);
        quad!(abcd, e, w, 14, 2);
        quad!(abcd, e, w, 15, 3);
        quad!(abcd, e, w, 16, 3);
        quad!(abcd, e, w, 17, 3);
        quad!(abcd, e, w, 18, 3);
        quad!(abcd, e, w, 19, 3);
        abcd = _mm_add_epi32(abcd, abcd_in);
        e0 = _mm_sha1nexte_epu32(e, e_in);
    }
    *state = [
        _mm_extract_epi32::<3>(abcd),
        _mm_extract_epi32::<2>(abcd),
        _mm_extract_epi32::<1>(abcd),
        _mm_extract_epi32::<0>(abcd),
        _mm_extract_epi32::<3>(e0),
    ]
    .map(|v| v as u32);
}
