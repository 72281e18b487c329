//! Portable scalar kernels — the always-compiled oracle every SIMD path
//! is property-pinned against, and the dispatch target on hosts (or under
//! `SNN_SIMD=0`) where no vector path applies.

/// `acc[i] |= src[i]` over packed words.
pub fn or_accumulate(acc: &mut [u64], src: &[u64]) {
    for (a, &s) in acc.iter_mut().zip(src) {
        *a |= s;
    }
}

/// Total number of set bits across `words`.
pub fn popcount(words: &[u64]) -> u64 {
    words.iter().map(|w| u64::from(w.count_ones())).sum()
}

/// Packs one occupancy row: bit `x` of `out` set iff `levels[x] & mask != 0`.
pub fn pack_occupancy_row(levels: &[i64], mask: i64, out: &mut [u64]) {
    let needed = levels.len().div_ceil(64).max(1);
    for w in out.iter_mut().take(needed) {
        *w = 0;
    }
    for (x, &level) in levels.iter().enumerate() {
        if level & mask != 0 {
            out[x / 64] |= 1u64 << (x % 64);
        }
    }
}

/// `out[i] += c * x[i]` with the workspace's plain `i64` arithmetic.
pub fn axpy_i64(out: &mut [i64], x: &[i64], c: i64) {
    for (o, &v) in out.iter_mut().zip(x) {
        *o += c * v;
    }
}

/// Plain `i64` dot product.
pub fn dot_i64(a: &[i64], b: &[i64]) -> i64 {
    let mut sum = 0i64;
    for (&x, &y) in a.iter().zip(b) {
        sum += x * y;
    }
    sum
}

/// Per-bit expansion of set bits into ascending positions via the
/// `trailing_zeros`/`clear-lowest` walk: work proportional to the set
/// bits, which makes it the dispatched path for the sparse rows the
/// gather threshold routes here.
pub fn collect_set_bits(words: &[u64], base: usize, out: &mut Vec<u32>) {
    for (word_index, &word) in words.iter().enumerate() {
        let mut remaining = word;
        while remaining != 0 {
            let bit = remaining.trailing_zeros() as usize;
            out.push((base + word_index * 64 + bit) as u32);
            remaining &= remaining - 1;
        }
    }
}
