//! SIMD vs scalar equivalence properties for the batch kernels.
//!
//! Every batched primitive — the fused two-bound sweep and the prefilter
//! over it (both limits, a rev-slot mask), the union popcount
//! batch (`union_counts` / `union_count_4`) and the any-subset probe —
//! must be bit-identical across every [`KernelTier`] the host supports,
//! for every pattern width 1–8 words and for ragged batch lengths that
//! exercise the vector tail paths. The scalar `Pattern` operations are
//! the oracle throughout.

use efm_bitset::kernel::{
    bounds_sweep, is_subset_any, prefilter_hits, union_count_4, union_counts, KernelTier, PairBound,
};
use efm_bitset::Pattern;
use proptest::prelude::*;

/// All tiers; calls clamp internally, so requesting AVX2 on a non-AVX2
/// host degrades to the best available path rather than failing.
const TIERS: [KernelTier; 3] = [KernelTier::Scalar, KernelTier::Sse2, KernelTier::Avx2];

fn words(n: usize) -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(any::<u64>(), n..=n)
}

fn to_pats<const W: usize>(raw: &[u64]) -> Vec<Pattern<W>> {
    raw.chunks_exact(W)
        .map(|c| {
            let mut p = Pattern::<W>::empty();
            for (wi, &w) in c.iter().enumerate() {
                for b in 0..64 {
                    if (w >> b) & 1 == 1 {
                        p.set(wi * 64 + b);
                    }
                }
            }
            p
        })
        .collect()
}

/// One generic check body per width; `len` is the ragged batch length,
/// `rev_len` the number of rev slots and `slack` how far above its
/// smallest value each prefilter limit sits.
fn check_width<const W: usize>(
    raw_a: &[u64],
    raw_b: &[u64],
    len: usize,
    rev_len: usize,
    slack: (u32, u32),
) -> Result<(), TestCaseError> {
    let a = to_pats::<W>(raw_a);
    let (pat, sup) = (a[0], a[1]);
    // A rev mask of the engine's shape: the value slots below `rev_len`.
    let rev = Pattern::<W>::first_n(rev_len);
    let all = to_pats::<W>(raw_b);
    let negs = &all[..len];
    let nsups = &all[len..2 * len];

    // Scalar oracle, computed bit by bit with the plain per-pattern ops.
    let rev_xor = |x: &Pattern<W>| rev.iter_ones().filter(|&i| sup.get(i) != x.get(i)).count();
    let want_bounds: Vec<PairBound> = negs
        .iter()
        .zip(nsups)
        .map(|(n, x)| PairBound {
            whole: pat.union_count(n) + sup.xor_count(x),
            masked: pat.union_count(n) + rev_xor(x) as u32,
        })
        .collect();
    let want_unions: Vec<u32> = negs.iter().map(|n| pat.union_count(n)).collect();
    let want_any = negs.iter().any(|c| c.is_subset_of(&sup));
    let least = |f: fn(&PairBound) -> u32| want_bounds.iter().map(f).min().unwrap_or(0);
    let max =
        PairBound { whole: least(|b| b.whole) + slack.0, masked: least(|b| b.masked) + slack.1 };
    let want_hits: Vec<u32> = want_bounds
        .iter()
        .enumerate()
        .filter(|(_, b)| b.whole <= max.whole && b.masked <= max.masked)
        .map(|(i, _)| 7 + i as u32)
        .collect();

    for tier in TIERS {
        let mut got = Vec::new();
        bounds_sweep(tier, &pat, &sup, &rev, negs, nsups, &mut got);
        prop_assert_eq!(&got, &want_bounds, "bounds_sweep W={} tier={}", W, tier);

        let mut uc = Vec::new();
        union_counts(tier, &pat, negs, &mut uc);
        prop_assert_eq!(&uc, &want_unions, "union_counts W={} tier={}", W, tier);

        if len >= 4 {
            let four = [negs[0], negs[1], negs[2], negs[3]];
            prop_assert_eq!(
                union_count_4(tier, &pat, &four).to_vec(),
                want_unions[..4].to_vec(),
                "union_count_4 W={} tier={}",
                W,
                tier
            );
        }

        prop_assert_eq!(
            is_subset_any(tier, negs, &sup),
            want_any,
            "is_subset_any W={} tier={}",
            W,
            tier
        );

        let mut bounds = Vec::new();
        let mut hits = Vec::new();
        let got_n =
            prefilter_hits(tier, &pat, &sup, &rev, negs, nsups, max, 7, &mut bounds, &mut hits);
        prop_assert_eq!(&hits, &want_hits, "prefilter_hits W={} tier={}", W, tier);
        prop_assert_eq!(got_n, want_hits.len());
    }
    Ok(())
}

macro_rules! kernel_props {
    ($name:ident, $w:expr) => {
        mod $name {
            use super::*;

            proptest! {
                #![proptest_config(ProptestConfig::with_cases(40))]

                /// Ragged lengths 0..=9 hit every remainder of the 4-, 2-
                /// and 1-pair vector strides; rev masks run from empty to
                /// the whole pattern, and either limit may be the one that
                /// binds.
                #[test]
                fn tiers_bit_identical(
                    raw_a in words(2 * $w),
                    raw_b in words(2 * 9 * $w),
                    len in 0usize..=9,
                    rev_len in 0usize..=64 * $w,
                    slack in (0u32..8, 0u32..8),
                ) {
                    check_width::<$w>(&raw_a, &raw_b, len, rev_len, slack)?;
                }

                /// Subset hits are found wherever they sit in the batch.
                #[test]
                fn planted_subset_found(
                    raw_a in words(2 * $w),
                    raw_b in words(2 * 9 * $w),
                    pos in 0usize..6,
                ) {
                    let sup = to_pats::<$w>(&raw_a)[1];
                    let mut cands = to_pats::<$w>(&raw_b);
                    cands.truncate(6);
                    cands[pos] = sup.intersect(&cands[pos]);
                    for tier in TIERS {
                        prop_assert!(is_subset_any(tier, &cands, &sup), "tier={}", tier);
                    }
                }
            }
        }
    };
}

kernel_props!(w1, 1);
kernel_props!(w2, 2);
kernel_props!(w3, 3);
kernel_props!(w4, 4);
kernel_props!(w5, 5);
kernel_props!(w6, 6);
kernel_props!(w7, 7);
kernel_props!(w8, 8);
