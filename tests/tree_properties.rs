//! Property tests for the bit-pattern-tree subsystem and the sorted-run
//! merge: both must agree *exactly* with their naive counterparts (linear
//! subset scans, whole-set sort+dedup) on arbitrary inputs, and the
//! tree-backed enumeration pipeline must reproduce the classical
//! linear-scan pipeline's EFM set byte for byte.

use efm_bitset::{Pattern1, PatternTree};
use efm_core::{enumerate_with, Backend, CandidateSet, CandidateTest, EfmOptions};
use efm_metnet::generator::{random_network, RandomNetworkParams};
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

fn naive_contains_subset_of(set: &[Pattern1], q: &Pattern1) -> bool {
    set.iter().any(|p| p.is_subset_of(q))
}

fn naive_contains_proper_subset_of(set: &[Pattern1], q: &Pattern1) -> bool {
    set.iter().any(|p| p != q && p.is_subset_of(q))
}

fn naive_contains_superset_of(set: &[Pattern1], q: &Pattern1) -> bool {
    set.iter().any(|p| q.is_subset_of(p))
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

    /// Tree subset/superset/membership queries agree with linear scans on
    /// arbitrary pattern sets and query patterns.
    #[test]
    fn tree_queries_match_naive_scan(
        seed in 0u64..10_000,
        n in 0usize..120,
        nbits in 1usize..64,
        density in 5u64..95,
    ) {
        let set = pattern_set(seed, n, nbits, density);
        let tree = PatternTree::from_patterns(set.clone());
        prop_assert_eq!(tree.len(), set.len());
        // Queries drawn from the same distribution plus the set's own
        // members (the exact-hit edge cases).
        let mut queries = pattern_set(seed ^ 0xABCD, 40, nbits, density);
        queries.extend(set.iter().take(20).copied());
        queries.push(Pattern1::empty());
        for q in &queries {
            prop_assert_eq!(
                tree.contains_subset_of(q),
                naive_contains_subset_of(&set, q),
                "subset query disagreed"
            );
            prop_assert_eq!(
                tree.contains_proper_subset_of(q),
                naive_contains_proper_subset_of(&set, q),
                "proper-subset query disagreed"
            );
            prop_assert_eq!(
                tree.contains_superset_of(q),
                naive_contains_superset_of(&set, q),
                "superset query disagreed"
            );
            prop_assert_eq!(tree.contains(q), set.contains(q), "membership disagreed");
        }
    }

    /// Incremental insertion reaches the same query answers as bulk build.
    #[test]
    fn tree_insert_matches_bulk_build(
        seed in 0u64..10_000,
        n in 0usize..80,
        nbits in 1usize..64,
    ) {
        let set = pattern_set(seed, n, nbits, 40);
        let bulk = PatternTree::from_patterns(set.clone());
        let mut incr = PatternTree::default();
        for p in &set {
            incr.insert(*p);
        }
        prop_assert_eq!(incr.len(), bulk.len());
        let queries = pattern_set(seed ^ 0x77, 30, nbits, 40);
        for q in &queries {
            prop_assert_eq!(incr.contains_subset_of(q), bulk.contains_subset_of(q));
            prop_assert_eq!(incr.contains(q), bulk.contains(q));
        }
    }

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

    /// End-to-end: the tree-backed pipeline and the classical linear-scan
    /// pipeline enumerate identical EFM sets in identical order, for both
    /// elementarity tests and on both shared-memory backends.
    #[test]
    fn pattern_trees_on_off_agree(seed in 0u64..3000) {
        let params = RandomNetworkParams {
            metabolites: 5,
            reactions: 9,
            reversible_prob: 0.35,
            mean_degree: 2.5,
            exchange_prob: 0.4,
            max_coeff: 2,
        };
        let net = random_network(&params, seed);
        for test in [CandidateTest::Rank, CandidateTest::Adjacency] {
            for backend in [Backend::Serial, Backend::Rayon] {
                let on = EfmOptions {
                    test,
                    pattern_trees: true,
                    max_modes: Some(20_000),
                    ..Default::default()
                };
                let off = EfmOptions { pattern_trees: false, ..on.clone() };
                let with_trees = enumerate_with(&net, &on, &backend).unwrap();
                let without = enumerate_with(&net, &off, &backend).unwrap();
                prop_assert_eq!(
                    with_trees.efms.as_support_sets(),
                    without.efms.as_support_sets(),
                    "tree/naive divergence: test={:?} seed={}", test, seed
                );
            }
        }
    }
}
