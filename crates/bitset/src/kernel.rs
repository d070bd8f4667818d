//! Vectorized batch kernels for the candidate-generation hot path.
//!
//! The Nullspace Algorithm's inner loop streams one positive mode's pattern
//! pair (`pat`, tail support `sup`) against dense arrays of negative-side
//! patterns, computing for every pair the two prefilter bounds
//!
//! ```text
//! whole[i]  = popcount(pat | negs[i]) + popcount(sup ^ nsups[i])
//! masked[i] = popcount(pat | negs[i]) + popcount((sup ^ nsups[i]) & rev)
//! ```
//!
//! Because the positive side is fixed across a whole block, the sweep is a
//! pure data-parallel map over contiguous `[u64; W]` patterns — exactly the
//! shape SIMD wants. This module provides that sweep (and the prefilter
//! over it, [`prefilter_hits`]) plus the adjacency scan's batch subset
//! probe, [`is_subset_any`]: the only kernel calls the engine makes. Each
//! runs at two tiers, the portable scalar reference (every platform) and
//! an AVX2 path where the CPU has it, picked once per process by
//! [`detect_tier`]. There is no SSE2 tier: without `pshufb` or `popcnt`
//! its win was load width only, and it measured slower than scalar on
//! every primitive at every width.
//!
//! Both tiers are **bit-identical**: the AVX2 paths compute the same word
//! ops and popcounts as the scalar reference, so results never depend on
//! the host CPU. The property suite in `crates/bitset/tests/kernel_props.rs`
//! checks each primitive at both tiers against the plain `Pattern` ops
//! across widths 1–8 and ragged tails.
//!
//! Safety: the x86 paths view `&[Pattern<W>]` as a flat `&[u64]`, which is
//! sound because [`Pattern`] is `#[repr(transparent)]` over `[u64; W]`.
//! Tier clamping ([`KernelTier::clamp`]) guarantees a vector path is only
//! entered when the CPU reports the feature, so the `unsafe` intrinsic
//! blocks are never reached on unsupported hardware.

use crate::Pattern;
use std::fmt;
use std::sync::OnceLock;

/// Instruction-set tier a kernel call executes at.
///
/// Ordered by capability so [`KernelTier::clamp`] can take a `min` against
/// the detected tier: a caller may *request* a tier (e.g. a forced-scalar
/// differential run), but never executes above what the CPU supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KernelTier {
    /// Portable word-at-a-time reference path (always available).
    Scalar,
    /// 256-bit `std::arch` path with `vpshufb` nibble-LUT popcounts.
    Avx2,
}

impl KernelTier {
    /// Stable lowercase name, used in stats, traces and checkpoints.
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Avx2 => "avx2",
        }
    }

    /// The highest tier ≤ `self` that the running CPU actually supports.
    #[inline]
    pub fn clamp(self) -> KernelTier {
        self.min(detect_tier())
    }
}

impl fmt::Display for KernelTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Best tier the running CPU supports, detected once per process.
pub fn detect_tier() -> KernelTier {
    static TIER: OnceLock<KernelTier> = OnceLock::new();
    *TIER.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return KernelTier::Avx2;
        }
        KernelTier::Scalar
    })
}

/// Negative-side block length (in pairs) for a pattern of `pattern_bytes`.
///
/// Chosen so one block's `negs` + `nsups` streams stay within half of a
/// 32 KiB L1D (≤ 16 KiB combined), leaving the other half for the positive
/// row, the bounds buffer and the survivor output: 1024 pairs at W=1, 512
/// at W=2, 256 at W=4.
pub fn block_pairs(pattern_bytes: usize) -> usize {
    (8 * 1024 / pattern_bytes.max(1)).clamp(16, 4096)
}

/// Views a pattern slice as its flat word storage.
///
/// Sound because `Pattern<W>` is `#[repr(transparent)]` over `[u64; W]`:
/// `len` patterns are exactly `len * W` contiguous `u64`s with the same
/// alignment as `u64`.
#[inline]
fn flat<const W: usize>(pats: &[Pattern<W>]) -> &[u64] {
    // SAFETY: see above — repr(transparent) guarantees layout identity.
    unsafe { std::slice::from_raw_parts(pats.as_ptr().cast::<u64>(), pats.len() * W) }
}

/// The two prefilter bounds of one pair (or, passed to
/// [`prefilter_hits`], the largest value of each a pair may have).
///
/// `#[repr(C)]` so a vector lane `whole | masked << 32` stores as one
/// `PairBound` on little-endian x86.
#[repr(C)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairBound {
    /// `popcount(pat | neg) + popcount(sup ^ nsup)`.
    pub whole: u32,
    /// `popcount(pat | neg) + popcount((sup ^ nsup) & rev)`.
    pub masked: u32,
}

/// Both bounds of the pair given by the word slices of its operands.
#[inline]
fn pair_bound(pat: &[u64], sup: &[u64], rev: &[u64], neg: &[u64], nsup: &[u64]) -> PairBound {
    let mut b = PairBound::default();
    for k in 0..pat.len() {
        let u = (pat[k] | neg[k]).count_ones();
        let x = sup[k] ^ nsup[k];
        b.whole += u + x.count_ones();
        b.masked += u + (x & rev[k]).count_ones();
    }
    b
}

/// Fused bound sweep: `out[i]` holds both [`PairBound`]s of pair `i`,
/// `pat | negs[i]` counted once for the two of them.
///
/// `out` is cleared and resized to `negs.len()`.
pub fn bounds_sweep<const W: usize>(
    tier: KernelTier,
    pat: &Pattern<W>,
    sup: &Pattern<W>,
    rev: &Pattern<W>,
    negs: &[Pattern<W>],
    nsups: &[Pattern<W>],
    out: &mut Vec<PairBound>,
) {
    assert_eq!(negs.len(), nsups.len(), "pattern/support blocks must pair up");
    let n = negs.len();
    out.clear();
    out.resize(n, PairBound::default());
    let (p, s, r) = (pat.words(), sup.words(), rev.words());
    match tier.clamp() {
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 => {
            // SAFETY: clamp() verified AVX2 via is_x86_feature_detected;
            // all slices are in-bounds (flat() preserves lengths, out has n).
            unsafe { x86::bounds_avx2(p, s, r, flat(negs), flat(nsups), W, out) }
        }
        _ => {
            for i in 0..n {
                out[i] = pair_bound(p, s, r, negs[i].words(), nsups[i].words());
            }
        }
    }
}

/// Runs the generation prefilter over a block: computes [`bounds_sweep`]
/// into `bounds`, then appends `base + i` to `hits` for every pair whose
/// bounds are both within `max`. Returns the number of hits appended.
///
/// `bounds` is caller-provided scratch (arena-backed in the engine) so the
/// sweep allocates nothing in steady state; `hits` is appended to, not
/// cleared.
#[allow(clippy::too_many_arguments)] // hot-path API: scratch + output buffers ride alongside the block operands by design
pub fn prefilter_hits<const W: usize>(
    tier: KernelTier,
    pat: &Pattern<W>,
    sup: &Pattern<W>,
    rev: &Pattern<W>,
    negs: &[Pattern<W>],
    nsups: &[Pattern<W>],
    max: PairBound,
    base: u32,
    bounds: &mut Vec<PairBound>,
    hits: &mut Vec<u32>,
) -> usize {
    bounds_sweep(tier, pat, sup, rev, negs, nsups, bounds);
    let before = hits.len();
    for (i, b) in bounds.iter().enumerate() {
        if b.whole <= max.whole && b.masked <= max.masked {
            hits.push(base + i as u32);
        }
    }
    hits.len() - before
}

/// Whether any pattern in `cands` is a subset of `sup`.
///
/// The batch form of the naive adjacency scan's early-exit subset probe:
/// at `W = 1` four candidates are tested per 256-bit `andnot`.
pub fn is_subset_any<const W: usize>(
    tier: KernelTier,
    cands: &[Pattern<W>],
    sup: &Pattern<W>,
) -> bool {
    match tier.clamp() {
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 => {
            // SAFETY: AVX2 verified by clamp(); slices in-bounds.
            unsafe { x86::subset_any_avx2(flat(cands), sup.words(), W) }
        }
        _ => cands.iter().any(|c| c.is_subset_of(sup)),
    }
}

#[cfg(target_arch = "x86_64")]
// Index loops are kept deliberately: they mirror the `i * w + k` pointer
// arithmetic of the flat slabs, which iterator chains would obscure.
#[allow(clippy::needless_range_loop)]
mod x86 {
    //! `std::arch` implementations. Every function here is `unsafe fn`
    //! with `#[target_feature]`; callers must have verified the feature
    //! (done centrally by `KernelTier::clamp`) and pass slices whose
    //! lengths satisfy `pat.len() == sup.len() == rev.len() == w` and
    //! `negs.len() == nsups.len() == out.len() * w`.

    use super::{pair_bound, PairBound};
    use std::arch::x86_64::*;

    /// Per-byte popcount via the classic `vpshufb` nibble lookup.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn popcnt_bytes(v: __m256i) -> __m256i {
        #[rustfmt::skip]
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let low = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low);
        let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), low);
        _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi))
    }

    /// Sums the four 64-bit lanes of `v`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum_epi64(v: __m256i) -> u64 {
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), v);
        lanes[0].wrapping_add(lanes[1]).wrapping_add(lanes[2]).wrapping_add(lanes[3])
    }

    /// Stores the four 64-bit lanes of `v`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn lanes_epi64(v: __m256i) -> [u64; 4] {
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), v);
        lanes
    }

    /// Packs each 64-bit lane as `whole | masked << 32`: the layout of a
    /// `PairBound` stored from that lane.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn pack_bounds(u: __m256i, x: __m256i, rev: __m256i) -> __m256i {
        // Byte counts of the `or` and `xor` halves are added *before* the
        // `psadbw` reduction: each byte holds ≤ 8 + 8 = 16, far below
        // 255, so one `_mm256_sad_epu8` yields a fused per-lane sum.
        let zero = _mm256_setzero_si256();
        let cu = popcnt_bytes(u);
        let whole = _mm256_sad_epu8(_mm256_add_epi8(cu, popcnt_bytes(x)), zero);
        let xr = _mm256_and_si256(x, rev);
        let masked = _mm256_sad_epu8(_mm256_add_epi8(cu, popcnt_bytes(xr)), zero);
        _mm256_or_si256(whole, _mm256_slli_epi64::<32>(masked))
    }

    /// Splits a lane packed by `pack_bounds` (or a sum of such lanes,
    /// each half far below 2^32).
    #[inline]
    fn unpack(v: u64) -> PairBound {
        PairBound { whole: v as u32, masked: (v >> 32) as u32 }
    }

    /// AVX2 fused bound sweep. See `bounds_sweep` for the contract.
    #[target_feature(enable = "avx2")]
    pub unsafe fn bounds_avx2(
        pat: &[u64],
        sup: &[u64],
        rev: &[u64],
        negs: &[u64],
        nsups: &[u64],
        w: usize,
        out: &mut [PairBound],
    ) {
        let n = out.len();
        match w {
            1 => {
                // Four pairs per iteration: one 256-bit load per stream,
                // lane k of the packed result is pair i+k's bounds.
                let vp = _mm256_set1_epi64x(pat[0] as i64);
                let vs = _mm256_set1_epi64x(sup[0] as i64);
                let vr = _mm256_set1_epi64x(rev[0] as i64);
                let mut i = 0;
                while i + 4 <= n {
                    // SAFETY (loads/store): i+4 <= n and the flat slices
                    // hold exactly n words at w=1, so 32-byte loads at
                    // offset i stay in bounds, as does the 32-byte store
                    // of four 8-byte PairBounds. loadu/storeu tolerate any
                    // alignment.
                    let vn = _mm256_loadu_si256(negs.as_ptr().add(i).cast());
                    let vx = _mm256_loadu_si256(nsups.as_ptr().add(i).cast());
                    let packed = pack_bounds(_mm256_or_si256(vp, vn), _mm256_xor_si256(vs, vx), vr);
                    _mm256_storeu_si256(out.as_mut_ptr().add(i).cast(), packed);
                    i += 4;
                }
                while i < n {
                    out[i] = pair_bound(pat, sup, rev, &negs[i..i + 1], &nsups[i..i + 1]);
                    i += 1;
                }
            }
            2 => {
                // Two pairs per iteration: broadcast the 128-bit positive
                // side into both halves; lanes map to
                // [p_i.w0, p_i.w1, p_{i+1}.w0, p_{i+1}.w1].
                let vp = _mm256_broadcastsi128_si256(_mm_loadu_si128(pat.as_ptr().cast()));
                let vs = _mm256_broadcastsi128_si256(_mm_loadu_si128(sup.as_ptr().cast()));
                let vr = _mm256_broadcastsi128_si256(_mm_loadu_si128(rev.as_ptr().cast()));
                let mut i = 0;
                while i + 2 <= n {
                    let vn = _mm256_loadu_si256(negs.as_ptr().add(2 * i).cast());
                    let vx = _mm256_loadu_si256(nsups.as_ptr().add(2 * i).cast());
                    let packed = pack_bounds(_mm256_or_si256(vp, vn), _mm256_xor_si256(vs, vx), vr);
                    let lanes = lanes_epi64(packed);
                    out[i] = unpack(lanes[0] + lanes[1]);
                    out[i + 1] = unpack(lanes[2] + lanes[3]);
                    i += 2;
                }
                if i < n {
                    out[i] = pair_bound(pat, sup, rev, &negs[2 * i..], &nsups[2 * i..]);
                }
            }
            _ => {
                // Generic width: 4-word lane groups per pair, scalar tail
                // for w % 4 words. Packed group sums accumulate in 64-bit
                // lanes; each half stays far below 2^32 at any width.
                let zero = _mm256_setzero_si256();
                let g4 = w / 4 * 4;
                for i in 0..n {
                    let nb = &negs[i * w..(i + 1) * w];
                    let xb = &nsups[i * w..(i + 1) * w];
                    let mut acc = zero;
                    let mut k = 0;
                    while k < g4 {
                        let u = _mm256_or_si256(
                            _mm256_loadu_si256(pat.as_ptr().add(k).cast()),
                            _mm256_loadu_si256(nb.as_ptr().add(k).cast()),
                        );
                        let x = _mm256_xor_si256(
                            _mm256_loadu_si256(sup.as_ptr().add(k).cast()),
                            _mm256_loadu_si256(xb.as_ptr().add(k).cast()),
                        );
                        let r = _mm256_loadu_si256(rev.as_ptr().add(k).cast());
                        acc = _mm256_add_epi64(acc, pack_bounds(u, x, r));
                        k += 4;
                    }
                    let head = unpack(hsum_epi64(acc));
                    let tail = pair_bound(&pat[g4..], &sup[g4..], &rev[g4..], &nb[g4..], &xb[g4..]);
                    out[i] = PairBound {
                        whole: head.whole + tail.whole,
                        masked: head.masked + tail.masked,
                    };
                }
            }
        }
    }

    /// AVX2 any-subset probe: `cands[i] ⊆ sup` iff `cands[i] & !sup == 0`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn subset_any_avx2(cands: &[u64], sup: &[u64], w: usize) -> bool {
        let n = cands.len() / w.max(1);
        let zero = _mm256_setzero_si256();
        match w {
            1 => {
                let vs = _mm256_set1_epi64x(sup[0] as i64);
                let mut i = 0;
                while i + 4 <= n {
                    let vc = _mm256_loadu_si256(cands.as_ptr().add(i).cast());
                    // andnot(a, b) = !a & b: bits of the candidate missing
                    // from sup. A zero lane means that candidate is a subset.
                    let nots = _mm256_andnot_si256(vs, vc);
                    let eq = _mm256_cmpeq_epi64(nots, zero);
                    if _mm256_movemask_epi8(eq) != 0 {
                        return true;
                    }
                    i += 4;
                }
                while i < n {
                    if cands[i] & !sup[0] == 0 {
                        return true;
                    }
                    i += 1;
                }
                false
            }
            2 => {
                let vs = _mm256_broadcastsi128_si256(_mm_loadu_si128(sup.as_ptr().cast()));
                let mut i = 0;
                while i + 2 <= n {
                    let vc = _mm256_loadu_si256(cands.as_ptr().add(2 * i).cast());
                    let eq = _mm256_cmpeq_epi64(_mm256_andnot_si256(vs, vc), zero);
                    let mask = _mm256_movemask_epi8(eq) as u32;
                    // A candidate is a subset iff both of its 64-bit lanes
                    // compared equal-to-zero (16 mask bits each).
                    if mask & 0xffff == 0xffff || mask >> 16 == 0xffff {
                        return true;
                    }
                    i += 2;
                }
                if i < n && cands[2 * i] & !sup[0] == 0 && cands[2 * i + 1] & !sup[1] == 0 {
                    return true;
                }
                false
            }
            4 => {
                let vs = _mm256_loadu_si256(sup.as_ptr().cast());
                for i in 0..n {
                    let vc = _mm256_loadu_si256(cands.as_ptr().add(4 * i).cast());
                    // testc(s, c) = 1 iff (!s & c) == 0, i.e. c ⊆ s.
                    if _mm256_testc_si256(vs, vc) != 0 {
                        return true;
                    }
                }
                false
            }
            _ => {
                let g4 = w / 4 * 4;
                'cand: for i in 0..n {
                    let cb = cands.as_ptr().add(i * w);
                    let mut acc = zero;
                    let mut k = 0;
                    while k < g4 {
                        let vc = _mm256_loadu_si256(cb.add(k).cast());
                        let vs = _mm256_loadu_si256(sup.as_ptr().add(k).cast());
                        acc = _mm256_or_si256(acc, _mm256_andnot_si256(vs, vc));
                        k += 4;
                    }
                    if _mm256_testz_si256(acc, acc) == 0 {
                        continue 'cand;
                    }
                    for t in g4..w {
                        if *cb.add(t) & !sup[t] != 0 {
                            continue 'cand;
                        }
                    }
                    return true;
                }
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pat<const W: usize>(seed: u64, density: u64) -> Pattern<W> {
        // Cheap deterministic pattern generator (splitmix64 words).
        let mut p = Pattern::<W>::empty();
        let mut s = seed;
        for i in 0..Pattern::<W>::CAPACITY {
            s = s.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            if (z ^ (z >> 31)) % 100 < density {
                p.set(i);
            }
        }
        p
    }

    /// Bit by bit: positions of `rev` where exactly one of `a`, `b` is set.
    fn rev_xor_count<const W: usize>(a: &Pattern<W>, b: &Pattern<W>, rev: &Pattern<W>) -> u32 {
        rev.iter_ones().filter(|&i| a.get(i) != b.get(i)).count() as u32
    }

    fn tiers() -> Vec<KernelTier> {
        vec![KernelTier::Scalar, KernelTier::Avx2]
    }

    #[test]
    fn detect_tier_is_stable() {
        assert_eq!(detect_tier(), detect_tier());
    }

    #[test]
    fn block_pairs_by_width() {
        assert_eq!(block_pairs(8), 1024);
        assert_eq!(block_pairs(16), 512);
        assert_eq!(block_pairs(32), 256);
        assert_eq!(block_pairs(1 << 20), 16); // clamped floor
    }

    fn check_all<const W: usize>() {
        let pat_p = pat::<W>(1, 30);
        let sup_p = pat::<W>(2, 50);
        let rev = pat::<W>(3, 50);
        // Ragged length 7 exercises every vector tail path.
        let negs: Vec<Pattern<W>> = (0..7).map(|i| pat::<W>(10 + i, 40)).collect();
        let nsups: Vec<Pattern<W>> = (0..7).map(|i| pat::<W>(20 + i, 60)).collect();
        let want: Vec<PairBound> = negs
            .iter()
            .zip(&nsups)
            .map(|(n, x)| PairBound {
                whole: pat_p.union_count(n) + sup_p.xor_count(x),
                masked: pat_p.union_count(n) + rev_xor_count(&sup_p, x, &rev),
            })
            .collect();
        for tier in tiers() {
            let mut got = Vec::new();
            bounds_sweep(tier, &pat_p, &sup_p, &rev, &negs, &nsups, &mut got);
            assert_eq!(got, want, "bounds_sweep W={W} tier={tier}");

            assert_eq!(
                is_subset_any(tier, &negs, &sup_p),
                negs.iter().any(|c| c.is_subset_of(&sup_p)),
                "is_subset_any W={W} tier={tier}"
            );
            // Force a positive: a candidate equal to sup is a subset.
            let mut with_hit = negs.clone();
            with_hit.push(sup_p);
            assert!(is_subset_any(tier, &with_hit, &sup_p), "W={W} tier={tier}");
            assert!(!is_subset_any(tier, &[], &sup_p), "empty batch W={W} tier={tier}");
        }
    }

    #[test]
    fn tiers_agree_w1() {
        check_all::<1>();
    }

    #[test]
    fn tiers_agree_w2() {
        check_all::<2>();
    }

    #[test]
    fn tiers_agree_w4() {
        check_all::<4>();
    }

    #[test]
    fn tiers_agree_odd_widths() {
        check_all::<3>();
        check_all::<5>();
        check_all::<7>();
    }

    #[test]
    fn prefilter_hits_filters_and_offsets() {
        let pat_p = pat::<2>(3, 20);
        let sup_p = pat::<2>(4, 20);
        let rev = pat::<2>(5, 50);
        let negs: Vec<Pattern<2>> = (0..40).map(|i| pat::<2>(30 + i, 35)).collect();
        let nsups: Vec<Pattern<2>> = (0..40).map(|i| pat::<2>(70 + i, 35)).collect();
        let mut bounds = Vec::new();
        bounds_sweep(KernelTier::Scalar, &pat_p, &sup_p, &rev, &negs, &nsups, &mut bounds);
        // Each limit at its mean prunes roughly half on its own.
        let mean = |f: fn(&PairBound) -> u32| bounds.iter().map(f).sum::<u32>() / 40;
        let max = PairBound { whole: mean(|b| b.whole), masked: mean(|b| b.masked) };
        let want: Vec<u32> = (0..40)
            .filter(|&i| bounds[i].whole <= max.whole && bounds[i].masked <= max.masked)
            .map(|i| 100 + i as u32)
            .collect();
        assert!(!want.is_empty() && want.len() < 40);
        for tier in tiers() {
            let mut hits = Vec::new();
            let got = prefilter_hits(
                tier,
                &pat_p,
                &sup_p,
                &rev,
                &negs,
                &nsups,
                max,
                100,
                &mut bounds,
                &mut hits,
            );
            assert_eq!(hits, want, "tier={tier}");
            assert_eq!(got, want.len());
        }
    }
}
