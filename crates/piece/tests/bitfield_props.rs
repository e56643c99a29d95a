//! Property tests for the word-packed [`Bitfield`] against a `Vec<bool>`
//! reference model.
//!
//! The word-level operations (`iter_ones_andnot`, `count_andnot`,
//! `is_interested_in`, `iter_zeros`) all mask or skip the padding bits
//! of a ragged final word; these tests deliberately draw lengths that
//! are not multiples of 64 (and exact multiples, and lengths under one
//! word) so every tail-mask branch is exercised against the
//! obviously-correct bit-by-bit answer.

use bt_piece::Bitfield;
use proptest::prelude::*;

/// Lengths chosen to land on word boundaries, just beside them, and deep
/// inside ragged territory.
fn arb_len() -> impl Strategy<Value = u32> {
    prop_oneof![
        3 => 1u32..200,
        1 => Just(63u32),
        1 => Just(64u32),
        1 => Just(65u32),
        1 => Just(128u32),
        1 => Just(129u32),
    ]
}

fn build(bits: &[bool]) -> Bitfield {
    let mut bf = Bitfield::new(bits.len() as u32);
    for (i, &b) in bits.iter().enumerate() {
        if b {
            bf.set(i as u32);
        }
    }
    bf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Single-bitfield queries match the reference model, including on
    /// the ragged final word.
    #[test]
    fn unary_ops_match_reference(
        len in arb_len(),
        seed_bits in proptest::collection::vec(any::<bool>(), 0..200),
    ) {
        let model: Vec<bool> = (0..len as usize)
            .map(|i| seed_bits.get(i).copied().unwrap_or(false))
            .collect();
        let bf = build(&model);

        let expect_ones: Vec<u32> = (0..len).filter(|&i| model[i as usize]).collect();
        let expect_zeros: Vec<u32> = (0..len).filter(|&i| !model[i as usize]).collect();

        prop_assert_eq!(bf.len(), len);
        prop_assert_eq!(bf.count_ones(), expect_ones.len() as u32);
        prop_assert_eq!(bf.is_complete(), expect_zeros.is_empty());
        prop_assert_eq!(bf.iter_ones().collect::<Vec<_>>(), expect_ones);
        prop_assert_eq!(bf.iter_zeros().collect::<Vec<_>>(), expect_zeros);
        for i in 0..len {
            prop_assert_eq!(bf.get(i), model[i as usize]);
        }
    }

    /// Pairwise word-level operations match per-index enumeration.
    #[test]
    fn binary_ops_match_reference(
        len in arb_len(),
        a_bits in proptest::collection::vec(any::<bool>(), 0..200),
        b_bits in proptest::collection::vec(any::<bool>(), 0..200),
    ) {
        let a_model: Vec<bool> = (0..len as usize)
            .map(|i| a_bits.get(i).copied().unwrap_or(false))
            .collect();
        let b_model: Vec<bool> = (0..len as usize)
            .map(|i| b_bits.get(i).copied().unwrap_or(false))
            .collect();
        let a = build(&a_model);
        let b = build(&b_model);

        let andnot: Vec<u32> = (0..len)
            .filter(|&i| a_model[i as usize] && !b_model[i as usize])
            .collect();

        prop_assert_eq!(a.count_andnot(&b), andnot.len() as u32);
        prop_assert_eq!(a.iter_ones_andnot(&b).collect::<Vec<_>>(), andnot);
        // Interest is "other has something I lack": b \ a non-empty.
        prop_assert_eq!(a.is_interested_in(&b), b.count_andnot(&a) > 0);
        prop_assert_eq!(b.iter_ones_andnot(&a).count() as u32, b.count_andnot(&a));
    }

    /// set/clear histories keep `count_ones` and membership exact, and
    /// the wire round-trip preserves the packed representation.
    #[test]
    fn mutation_history_and_wire_roundtrip(
        len in arb_len(),
        ops in proptest::collection::vec((any::<bool>(), 0u32..200), 0..120),
    ) {
        let mut model = vec![false; len as usize];
        let mut bf = Bitfield::new(len);
        for (set, raw) in ops {
            let i = raw % len;
            if set {
                prop_assert_eq!(bf.set(i), !model[i as usize]);
                model[i as usize] = true;
            } else {
                prop_assert_eq!(bf.clear(i), model[i as usize]);
                model[i as usize] = false;
            }
            prop_assert_eq!(
                bf.count_ones() as usize,
                model.iter().filter(|&&b| b).count()
            );
        }
        // Wire round-trip: padding bits in the final byte stay zero and
        // decoding restores an identical bitfield.
        let wire = bf.to_wire();
        prop_assert_eq!(wire.len(), (len as usize).div_ceil(8));
        prop_assert_eq!(Bitfield::from_wire(&wire, len), Some(bf));
    }
}
