//! Property tests pinning the runtime-dispatched SIMD kernels **bit-exact**
//! against the always-compiled scalar oracle, and the bit-plane structures
//! (which now route through those kernels) against per-bit walks — over
//! arbitrary densities, widths crossing `u64` word boundaries, and
//! all-silent rows.
//!
//! The dispatched level is whatever the host (and `SNN_SIMD`) resolves to;
//! CI runs this suite both with the default dispatch and with `SNN_SIMD=0`,
//! so every compiled path is pinned against the same oracle.

use proptest::prelude::*;
use snn_tensor::bitplane::{self, BitPlanes, Occupancy, WORD_BITS};
use snn_tensor::simd::{self, scalar};

/// Level rows with controllable spike density: `density` scales how many
/// positions carry non-zero levels (0 = all silent).
/// `density` in `0..=8` scales how many positions carry non-zero levels
/// (0 = all silent); `seed` makes the contents arbitrary but reproducible.
fn level_row(len: usize, density: u64, seed: u64) -> Vec<i64> {
    (0..len)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(seed)
                .wrapping_mul(0x2545_f491_4f6c_dd1d);
            if x % 8 < density {
                (x >> 32) as i64 & 0xff
            } else {
                0
            }
        })
        .collect()
}

/// Packed word rows with controllable density (0 = all zero).
fn word_row(len: usize, density: u64, seed: u64) -> Vec<u64> {
    (0..len)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(0xdead_beef_cafe_babe)
                .wrapping_add(seed)
                .wrapping_mul(0x2545_f491_4f6c_dd1d);
            match density {
                0 => 0,
                1 => x & x >> 7 & x >> 13, // sparse
                2 => x,
                3 => x | x >> 3, // dense
                _ => u64::MAX,
            }
        })
        .collect()
}

/// Bounded pseudo-random `i64` in `(-bound, bound)` from an index/seed pair.
fn small_i64(i: usize, seed: u64, bound: u64) -> i64 {
    ((i as u64)
        .wrapping_mul(2654435761)
        .wrapping_add(seed)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        % (2 * bound)) as i64
        - bound as i64
}

proptest! {
    /// Occupancy OR-reduction: the dispatched kernel equals the scalar
    /// word loop for any accumulator/source contents.
    #[test]
    fn or_accumulate_matches_scalar_oracle(
        len in 0usize..9,
        density in 0u64..5,
        seed in 0u64..u64::MAX,
    ) {
        let src = word_row(len, density, seed);
        let mut acc: Vec<u64> = (0..len as u64)
            .map(|i| i.wrapping_mul(seed))
            .collect();
        let mut oracle = acc.clone();
        simd::or_accumulate(&mut acc, &src);
        scalar::or_accumulate(&mut oracle, &src);
        prop_assert_eq!(acc, oracle);
    }

    /// Plane popcount: dispatched kernel equals the scalar sum for any
    /// density, including the empty slice.
    #[test]
    fn popcount_matches_scalar_oracle(
        len in 0usize..17,
        density in 0u64..5,
        seed in 0u64..u64::MAX,
    ) {
        let words = word_row(len, density, seed);
        prop_assert_eq!(simd::popcount(&words), scalar::popcount(&words));
    }

    /// Occupancy row packing: bit `x` set iff `levels[x] & mask != 0`,
    /// for widths crossing word boundaries and any mask — dispatched and
    /// scalar paths agree, and both match the per-position definition.
    #[test]
    fn pack_occupancy_row_matches_definition(
        len in 1usize..200,
        density in 0u64..=8,
        seed in 0u64..u64::MAX,
        time_steps in 0usize..65,
    ) {
        let levels = level_row(len, density, seed);
        let mask = bitplane::level_mask(time_steps);
        let words = bitplane::words_per_row(levels.len());
        let mut fast = vec![u64::MAX; words];
        let mut slow = vec![0u64; words];
        simd::pack_occupancy_row(&levels, mask, &mut fast);
        scalar::pack_occupancy_row(&levels, mask, &mut slow);
        prop_assert_eq!(&fast, &slow);
        for (x, &level) in levels.iter().enumerate() {
            let bit = fast[x / WORD_BITS] >> (x % WORD_BITS) & 1 == 1;
            prop_assert_eq!(bit, level & mask != 0, "x={}", x);
        }
    }

    /// Dense gather/accumulate (`out += c * x`): dispatched kernel equals
    /// the scalar loop for any length and coefficient.
    #[test]
    fn axpy_matches_scalar_oracle(
        x in prop::collection::vec(-1000i64..1000, 0..130),
        c in -1000i64..1000,
        seed in 0u64..u64::MAX,
    ) {
        let mut fast: Vec<i64> = (0..x.len()).map(|i| small_i64(i, seed, 1024)).collect();
        let mut slow = fast.clone();
        simd::axpy_i64(&mut fast, &x, c);
        scalar::axpy_i64(&mut slow, &x, c);
        prop_assert_eq!(fast, slow);
    }

    /// Dense dot product: dispatched kernel equals the scalar loop.
    #[test]
    fn dot_matches_scalar_oracle(
        a in prop::collection::vec(-1000i64..1000, 0..130),
        seed in 0u64..u64::MAX,
    ) {
        let b: Vec<i64> = (0..a.len()).map(|i| small_i64(i, seed, 1000)).collect();
        prop_assert_eq!(simd::dot_i64(&a, &b), scalar::dot_i64(&a, &b));
    }

    /// Bitmask expansion: the dispatched path yields the same positions,
    /// in the same (ascending) order, as the per-bit oracle walk for any
    /// base offset — and the closure-based `for_each_set_bit` agrees.
    #[test]
    fn set_bit_expansion_matches_plain_walk(
        len in 0usize..9,
        density in 0u64..5,
        seed in 0u64..u64::MAX,
        base in 0usize..100_000,
    ) {
        let words = word_row(len, density, seed);
        let mut dispatched = Vec::new();
        simd::collect_set_bits(&words, base, &mut dispatched);
        let mut plain = Vec::new();
        scalar::collect_set_bits(&words, base, &mut plain);
        prop_assert_eq!(&dispatched, &plain);
        let mut walked = Vec::new();
        bitplane::for_each_set_bit(&words, base, |p| walked.push(p as u32));
        prop_assert_eq!(&dispatched, &walked);
        let mut sorted = dispatched.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&dispatched, &sorted, "positions must ascend");
    }

    /// The bit-plane structures (routed through the SIMD kernels) keep
    /// their definitions: popcounts equal the masked-level popcounts and
    /// the one-pass occupancy equals the OR of the packed planes.
    #[test]
    fn bitplane_structures_keep_their_definitions(
        width in 1usize..150,
        density in 0u64..=8,
        seed in 0u64..u64::MAX,
        rows in 1usize..4,
        time_steps in 0usize..9,
    ) {
        let levels = level_row(width, density, seed);
        let mut all = Vec::with_capacity(rows * width);
        for r in 0..rows {
            all.extend(levels.iter().map(|&v| v.rotate_left(r as u32)));
        }
        let planes = BitPlanes::pack(&all, rows, width, time_steps);
        let mask = bitplane::level_mask(time_steps);
        let expected: u64 = all.iter().map(|&v| u64::from((v & mask).count_ones())).sum();
        prop_assert_eq!(planes.popcount(), expected);
        let per_plane: u64 = (0..time_steps).map(|t| planes.plane_popcount(t)).sum();
        prop_assert_eq!(per_plane, expected);
        let direct = Occupancy::from_levels(&all, rows, width, time_steps);
        prop_assert_eq!(&direct, &planes.occupancy());
        for r in 0..rows {
            let silent = (0..width).all(|x| all[r * width + x] & mask == 0);
            prop_assert_eq!(direct.row_is_silent(r), silent, "row {}", r);
        }
    }
}
