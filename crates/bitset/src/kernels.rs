//! Chunked `u64×4` word kernels — the hot inner loops of every bitset
//! operation, written with four explicit accumulators so the compiler
//! autovectorizes them (one 256-bit op per chunk on AVX2, two 128-bit
//! ops on NEON/SSE2), plus the original scalar loops retained as
//! `*_scalar` differential baselines.
//!
//! # Conventions
//!
//! * Every wide kernel has a `*_scalar` twin computing the same
//!   function with the plain one-word-at-a-time loop it replaced
//!   (mirroring `fastlive_core::baseline::is_live_in_scalar`).
//!   The property suite (`tests/kernel_differential.rs`) pins them
//!   bit-for-bit equal across word-boundary sweeps.
//! * Binary kernels use *zip semantics*: they operate on the common
//!   prefix `min(dst.len(), src.len())` like the `Iterator::zip` loops
//!   they replaced.
//! * Masked kernels take an **inclusive** bit interval `[lo, hi]` and a
//!   `len` bit bound, exactly like the former `union_words_masked`;
//!   empty (`lo > hi`) and out-of-universe intervals are no-ops.
//! * All mutating kernels report whether `dst` changed, accumulated as
//!   XOR deltas in the same four lanes (no per-word branch).

use crate::{interval_mask, WORD_BITS};

/// Chunk width of the wide kernels: 4 × u64 = 256 bits = half a cache
/// line per step.
pub const LANES: usize = 4;

/// `dst |= src`; returns `true` if `dst` changed. Wide kernel.
#[inline]
pub fn union_into(dst: &mut [u64], src: &[u64]) -> bool {
    let n = dst.len().min(src.len());
    union_words(&mut dst[..n], &src[..n]) != 0
}

/// `dst |= src` as the retained scalar baseline.
pub fn union_into_scalar(dst: &mut [u64], src: &[u64]) -> bool {
    let mut changed = false;
    for (a, &b) in dst.iter_mut().zip(src) {
        let new = *a | b;
        changed |= new != *a;
        *a = new;
    }
    changed
}

/// `dst |= src` over equal-length slices, returning the OR of all
/// changed bits (non-zero iff anything changed). The shared interior
/// of [`union_into`] and [`union_masked`].
#[inline]
fn union_words(dst: &mut [u64], src: &[u64]) -> u64 {
    let split = dst.len() - dst.len() % LANES;
    let mut delta = [0u64; LANES];
    for (d, s) in dst[..split]
        .chunks_exact_mut(LANES)
        .zip(src[..split].chunks_exact(LANES))
    {
        let n0 = d[0] | s[0];
        let n1 = d[1] | s[1];
        let n2 = d[2] | s[2];
        let n3 = d[3] | s[3];
        delta[0] |= d[0] ^ n0;
        delta[1] |= d[1] ^ n1;
        delta[2] |= d[2] ^ n2;
        delta[3] |= d[3] ^ n3;
        d[0] = n0;
        d[1] = n1;
        d[2] = n2;
        d[3] = n3;
    }
    let mut tail = 0u64;
    for (a, &b) in dst[split..].iter_mut().zip(&src[split..]) {
        let new = *a | b;
        tail |= *a ^ new;
        *a = new;
    }
    delta[0] | delta[1] | delta[2] | delta[3] | tail
}

/// `dst &= src`; returns `true` if `dst` changed. Wide kernel.
#[inline]
pub fn intersect_into(dst: &mut [u64], src: &[u64]) -> bool {
    let n = dst.len().min(src.len());
    let (dst, src) = (&mut dst[..n], &src[..n]);
    let split = n - n % LANES;
    let mut delta = [0u64; LANES];
    for (d, s) in dst[..split]
        .chunks_exact_mut(LANES)
        .zip(src[..split].chunks_exact(LANES))
    {
        let n0 = d[0] & s[0];
        let n1 = d[1] & s[1];
        let n2 = d[2] & s[2];
        let n3 = d[3] & s[3];
        delta[0] |= d[0] ^ n0;
        delta[1] |= d[1] ^ n1;
        delta[2] |= d[2] ^ n2;
        delta[3] |= d[3] ^ n3;
        d[0] = n0;
        d[1] = n1;
        d[2] = n2;
        d[3] = n3;
    }
    let mut tail = 0u64;
    for (a, &b) in dst[split..].iter_mut().zip(&src[split..]) {
        let new = *a & b;
        tail |= *a ^ new;
        *a = new;
    }
    (delta[0] | delta[1] | delta[2] | delta[3] | tail) != 0
}

/// `dst &= src` as the retained scalar baseline.
pub fn intersect_into_scalar(dst: &mut [u64], src: &[u64]) -> bool {
    let mut changed = false;
    for (a, &b) in dst.iter_mut().zip(src) {
        let new = *a & b;
        changed |= new != *a;
        *a = new;
    }
    changed
}

/// `dst &= !src` (set difference); returns `true` if `dst` changed.
/// Wide kernel.
#[inline]
pub fn difference_into(dst: &mut [u64], src: &[u64]) -> bool {
    let n = dst.len().min(src.len());
    let (dst, src) = (&mut dst[..n], &src[..n]);
    let split = n - n % LANES;
    let mut delta = [0u64; LANES];
    for (d, s) in dst[..split]
        .chunks_exact_mut(LANES)
        .zip(src[..split].chunks_exact(LANES))
    {
        let n0 = d[0] & !s[0];
        let n1 = d[1] & !s[1];
        let n2 = d[2] & !s[2];
        let n3 = d[3] & !s[3];
        delta[0] |= d[0] ^ n0;
        delta[1] |= d[1] ^ n1;
        delta[2] |= d[2] ^ n2;
        delta[3] |= d[3] ^ n3;
        d[0] = n0;
        d[1] = n1;
        d[2] = n2;
        d[3] = n3;
    }
    let mut tail = 0u64;
    for (a, &b) in dst[split..].iter_mut().zip(&src[split..]) {
        let new = *a & !b;
        tail |= *a ^ new;
        *a = new;
    }
    (delta[0] | delta[1] | delta[2] | delta[3] | tail) != 0
}

/// `dst &= !src` as the retained scalar baseline.
pub fn difference_into_scalar(dst: &mut [u64], src: &[u64]) -> bool {
    let mut changed = false;
    for (a, &b) in dst.iter_mut().zip(src) {
        let new = *a & !b;
        changed |= new != *a;
        *a = new;
    }
    changed
}

/// Total set-bit count of `words` — 4-wide `count_ones` accumulation.
#[inline]
pub fn popcount(words: &[u64]) -> usize {
    let split = words.len() - words.len() % LANES;
    let mut acc = [0usize; LANES];
    for c in words[..split].chunks_exact(LANES) {
        acc[0] += c[0].count_ones() as usize;
        acc[1] += c[1].count_ones() as usize;
        acc[2] += c[2].count_ones() as usize;
        acc[3] += c[3].count_ones() as usize;
    }
    let tail: usize = words[split..].iter().map(|w| w.count_ones() as usize).sum();
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// Set-bit count as the retained scalar baseline.
pub fn popcount_scalar(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// `a ∩ b ≠ ∅` over the common prefix — 4-wide AND with one combined
/// zero test per chunk, exiting on the first overlapping chunk.
#[inline]
pub fn intersects(a: &[u64], b: &[u64]) -> bool {
    let n = a.len().min(b.len());
    let split = n - n % LANES;
    for (ca, cb) in a[..split]
        .chunks_exact(LANES)
        .zip(b[..split].chunks_exact(LANES))
    {
        if (ca[0] & cb[0]) | (ca[1] & cb[1]) | (ca[2] & cb[2]) | (ca[3] & cb[3]) != 0 {
            return true;
        }
    }
    a[split..n]
        .iter()
        .zip(&b[split..n])
        .any(|(&x, &y)| x & y != 0)
}

/// `a ∩ b ≠ ∅` as the retained scalar baseline.
pub fn intersects_scalar(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(&x, &y)| x & y != 0)
}

/// `a ⊆ b` over the common prefix — 4-wide `a & !b` accumulation.
#[inline]
pub fn is_subset(a: &[u64], b: &[u64]) -> bool {
    let n = a.len().min(b.len());
    let split = n - n % LANES;
    for (ca, cb) in a[..split]
        .chunks_exact(LANES)
        .zip(b[..split].chunks_exact(LANES))
    {
        if (ca[0] & !cb[0]) | (ca[1] & !cb[1]) | (ca[2] & !cb[2]) | (ca[3] & !cb[3]) != 0 {
            return false;
        }
    }
    a[split..n]
        .iter()
        .zip(&b[split..n])
        .all(|(&x, &y)| x & !y == 0)
}

/// `a ⊆ b` as the retained scalar baseline.
pub fn is_subset_scalar(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(&x, &y)| x & !y == 0)
}

/// `dst |= src ∩ [lo, hi]` (inclusive bit interval) over slices
/// spanning `len` bits; returns `true` if `dst` changed. The two edge
/// words carry the interval masks; the interior runs through the
/// unmasked 4-wide [`union_into`] kernel — no per-word re-masking.
pub fn union_masked(dst: &mut [u64], src: &[u64], lo: u32, hi: u32, len: usize) -> bool {
    if len == 0 || lo > hi || lo as usize >= len {
        return false;
    }
    let lo = lo as usize;
    let hi = (hi as usize).min(len - 1);
    let (lw, hw) = (lo / WORD_BITS, hi / WORD_BITS);
    if lw == hw {
        let add = src[lw] & interval_mask(lo, hi, lw);
        let new = dst[lw] | add;
        let changed = new != dst[lw];
        dst[lw] = new;
        return changed;
    }
    let mut delta;
    {
        let add = src[lw] & (!0u64 << (lo % WORD_BITS));
        let new = dst[lw] | add;
        delta = dst[lw] ^ new;
        dst[lw] = new;
    }
    delta |= union_words(&mut dst[lw + 1..hw], &src[lw + 1..hw]);
    {
        let add = src[hw] & (!0u64 >> (WORD_BITS - 1 - hi % WORD_BITS));
        let new = dst[hw] | add;
        delta |= dst[hw] ^ new;
        dst[hw] = new;
    }
    delta != 0
}

/// `dst |= src ∩ [lo, hi]` as the retained scalar baseline: one
/// interval mask per word, exactly the loop [`union_masked`] replaced.
pub fn union_masked_scalar(dst: &mut [u64], src: &[u64], lo: u32, hi: u32, len: usize) -> bool {
    if len == 0 || lo > hi || lo as usize >= len {
        return false;
    }
    let lo = lo as usize;
    let hi = (hi as usize).min(len - 1);
    let (lw, hw) = (lo / WORD_BITS, hi / WORD_BITS);
    let mut changed = false;
    for wi in lw..=hw {
        let add = src[wi] & interval_mask(lo, hi, wi);
        let new = dst[wi] | add;
        changed |= new != dst[wi];
        dst[wi] = new;
    }
    changed
}

/// Any set bit of `words` in the inclusive bit interval `[lo, hi]`
/// (bits bounded by `len`)? Edge words are masked once; interior words
/// run 4-wide with a single combined zero test per chunk.
#[inline]
pub fn range_intersects(words: &[u64], lo: u32, hi: u32, len: usize) -> bool {
    if len == 0 || lo > hi || lo as usize >= len {
        return false;
    }
    let lo = lo as usize;
    let hi = (hi as usize).min(len - 1);
    let (lw, hw) = (lo / WORD_BITS, hi / WORD_BITS);
    if lw == hw {
        return words[lw] & interval_mask(lo, hi, lw) != 0;
    }
    if words[lw] & (!0u64 << (lo % WORD_BITS)) != 0 {
        return true;
    }
    let interior = &words[lw + 1..hw];
    let split = interior.len() - interior.len() % LANES;
    for c in interior[..split].chunks_exact(LANES) {
        if c[0] | c[1] | c[2] | c[3] != 0 {
            return true;
        }
    }
    if interior[split..].iter().any(|&w| w != 0) {
        return true;
    }
    words[hw] & (!0u64 >> (WORD_BITS - 1 - hi % WORD_BITS)) != 0
}

/// [`range_intersects`] as the retained scalar baseline: one masked
/// word test per interval word.
pub fn range_intersects_scalar(words: &[u64], lo: u32, hi: u32, len: usize) -> bool {
    if len == 0 || lo > hi || lo as usize >= len {
        return false;
    }
    let lo = lo as usize;
    let hi = (hi as usize).min(len - 1);
    let (lw, hw) = (lo / WORD_BITS, hi / WORD_BITS);
    (lw..=hw).any(|wi| words[wi] & interval_mask(lo, hi, wi) != 0)
}

/// The fused two-row interval test: `a ∩ b ∩ [lo, hi] ≠ ∅` in one pass
/// — each word of the interval is loaded once, ANDed across the two
/// rows, edge words masked once, interior 4-wide. This is the query
/// layer's fused `T_q` candidates kernel: with `a` a `T` row and `b` a
/// transposed-`R` row, it decides `∃ t ∈ T_q ∩ (def, maxnum(def)]`
/// with `use ∈ R_t` without materializing a single candidate.
#[inline]
pub fn range_intersects2(a: &[u64], b: &[u64], lo: u32, hi: u32, len: usize) -> bool {
    if len == 0 || lo > hi || lo as usize >= len {
        return false;
    }
    let lo = lo as usize;
    let hi = (hi as usize).min(len - 1);
    let (lw, hw) = (lo / WORD_BITS, hi / WORD_BITS);
    if lw == hw {
        return a[lw] & b[lw] & interval_mask(lo, hi, lw) != 0;
    }
    if a[lw] & b[lw] & (!0u64 << (lo % WORD_BITS)) != 0 {
        return true;
    }
    let (ia, ib) = (&a[lw + 1..hw], &b[lw + 1..hw]);
    let split = ia.len() - ia.len() % LANES;
    for (ca, cb) in ia[..split]
        .chunks_exact(LANES)
        .zip(ib[..split].chunks_exact(LANES))
    {
        if (ca[0] & cb[0]) | (ca[1] & cb[1]) | (ca[2] & cb[2]) | (ca[3] & cb[3]) != 0 {
            return true;
        }
    }
    if ia[split..]
        .iter()
        .zip(&ib[split..])
        .any(|(&x, &y)| x & y != 0)
    {
        return true;
    }
    a[hw] & b[hw] & (!0u64 >> (WORD_BITS - 1 - hi % WORD_BITS)) != 0
}

/// [`range_intersects2`] as the retained scalar baseline: one masked
/// two-row word test per interval word.
pub fn range_intersects2_scalar(a: &[u64], b: &[u64], lo: u32, hi: u32, len: usize) -> bool {
    if len == 0 || lo > hi || lo as usize >= len {
        return false;
    }
    let lo = lo as usize;
    let hi = (hi as usize).min(len - 1);
    let (lw, hw) = (lo / WORD_BITS, hi / WORD_BITS);
    (lw..=hw).any(|wi| a[wi] & b[wi] & interval_mask(lo, hi, wi) != 0)
}

/// Transposes a 64×64 bit tile in place: bit `c` of `a[r]` moves to
/// bit `r` of `a[c]`. The recursive block-swap of Hacker's Delight
/// §7-3 (log₂ 64 = 6 rounds of masked XOR swaps), with the shift roles
/// mirrored for the crate's LSB-first column convention.
pub fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32;
    let mut m = 0x0000_0000_ffff_ffffu64;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng_words(seed: u64, n: usize) -> Vec<u64> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect()
    }

    #[test]
    fn wide_binary_kernels_match_scalar_on_odd_lengths() {
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17] {
            for seed in 1..4u64 {
                let src = rng_words(seed * 0x9e37, n);
                let base = rng_words(seed * 0x51ab, n);
                for (wide, scalar) in [
                    (
                        union_into as fn(&mut [u64], &[u64]) -> bool,
                        union_into_scalar as fn(&mut [u64], &[u64]) -> bool,
                    ),
                    (intersect_into, intersect_into_scalar),
                    (difference_into, difference_into_scalar),
                ] {
                    let mut a = base.clone();
                    let mut b = base.clone();
                    assert_eq!(wide(&mut a, &src), scalar(&mut b, &src), "n={n}");
                    assert_eq!(a, b, "n={n}");
                    // Idempotent second application reports no change.
                    assert_eq!(wide(&mut a, &src), scalar(&mut b, &src), "n={n}");
                }
                assert_eq!(popcount(&src), popcount_scalar(&src), "n={n}");
                assert_eq!(intersects(&base, &src), intersects_scalar(&base, &src));
                assert_eq!(is_subset(&base, &src), is_subset_scalar(&base, &src));
                let mut sub = base.clone();
                intersect_into(&mut sub, &src);
                assert!(is_subset(&sub, &src));
            }
        }
    }

    #[test]
    fn transpose64_round_trips_and_transposes() {
        let mut a: [u64; 64] = rng_words(0xdead_beef, 64).try_into().unwrap();
        let orig = a;
        transpose64(&mut a);
        for (r, &row) in orig.iter().enumerate() {
            for (c, &col) in a.iter().enumerate() {
                assert_eq!(
                    col >> r & 1,
                    row >> c & 1,
                    "bit ({r},{c}) did not transpose"
                );
            }
        }
        transpose64(&mut a);
        assert_eq!(a, orig, "transpose is an involution");
    }
}
