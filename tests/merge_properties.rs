//! Property test for the sorted-run merge: merging independently sorted
//! candidate runs must agree *exactly* with appending them and running a
//! whole-set sort+dedup, on arbitrary inputs.

use efm_bitset::Pattern1;
use efm_core::CandidateSet;
use proptest::prelude::*;

/// Deterministic pseudo-random pattern from a seed (SplitMix64 step).
fn pattern_from(mut x: u64, nbits: usize, density: u64) -> Pattern1 {
    let mut p = Pattern1::empty();
    for i in 0..nbits {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        if z % 100 < density {
            p.set(i);
        }
    }
    p
}

fn pattern_set(seed: u64, n: usize, nbits: usize, density: u64) -> Vec<Pattern1> {
    (0..n)
        .map(|i| pattern_from(seed.wrapping_add(i as u64 * 0x517C_C1B7), nbits, density))
        .collect()
}

/// Builds a candidate set with pseudo-random (pattern, val_sup) keys;
/// duplicates are likely at high density.
fn candidate_set(seed: u64, n: usize, nbits: usize, density: u64) -> CandidateSet<Pattern1> {
    let pats = pattern_set(seed, n, nbits, density);
    let sups = pattern_set(seed ^ 0xDEAD_BEEF, n, nbits, density);
    CandidateSet {
        patterns: pats,
        val_sups: sups,
        parents: (0..n as u32).map(|i| (i, i)).collect(),
    }
}

fn keys(set: &CandidateSet<Pattern1>) -> Vec<(Pattern1, Pattern1)> {
    set.patterns.iter().copied().zip(set.val_sups.iter().copied()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merging two independently sorted runs gives exactly the candidates
    /// (and order) of appending then whole-set sorting, duplicates removed.
    #[test]
    fn merge_sorted_matches_sort_dedup(
        seed in 0u64..10_000,
        na in 0usize..80,
        nb in 0usize..80,
        nbits in 1usize..32,
        density in 10u64..90,
    ) {
        let mut a = candidate_set(seed, na, nbits, density);
        let mut b = candidate_set(seed ^ 0x5150, nb, nbits, density);
        // Force cross-run duplicates occasionally: share a tail.
        if na > 4 && nb > 4 {
            for i in 0..3 {
                b.patterns[i] = a.patterns[i];
                b.val_sups[i] = a.val_sups[i];
            }
        }
        a.sort_dedup();
        b.sort_dedup();

        let mut reference = CandidateSet::default();
        reference.append(&mut a.clone());
        reference.append(&mut b.clone());
        reference.sort_dedup();

        let merged = CandidateSet::merge_sorted(a, b);
        prop_assert_eq!(keys(&merged), keys(&reference));
    }
}
