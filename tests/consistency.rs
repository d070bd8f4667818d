//! Cross-implementation consistency: every algorithm variant, backend,
//! scalar, and elementarity test must produce the identical EFM set, and it
//! must match the independent brute-force oracle.

use efm_core::{
    brute_force_efms, enumerate, enumerate_divide_conquer, enumerate_with, enumerate_with_scalar,
    Backend, CandidateTest, EfmOptions, RowOrdering,
};
use efm_metnet::generator::{random_network, RandomNetworkParams};
use efm_metnet::MetabolicNetwork;
use proptest::prelude::*;

fn small_params() -> RandomNetworkParams {
    RandomNetworkParams {
        metabolites: 5,
        reactions: 9,
        reversible_prob: 0.35,
        mean_degree: 2.5,
        exchange_prob: 0.4,
        max_coeff: 2,
    }
}

fn opts() -> EfmOptions {
    EfmOptions { max_modes: Some(20_000), ..Default::default() }
}

fn oracle_net(seed: u64) -> MetabolicNetwork {
    random_network(&small_params(), seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn serial_matches_oracle(seed in 0u64..5000) {
        let net = oracle_net(seed);
        let out = enumerate(&net, &opts()).unwrap();
        let oracle = brute_force_efms(&net, 12);
        prop_assert_eq!(out.efms.as_support_sets(), oracle.as_support_sets());
    }

    #[test]
    fn backends_agree(seed in 0u64..5000) {
        // Both elementarity tests: adjacency compares candidates across
        // the rayon chunks and the cluster stripes of the pair grid.
        let net = oracle_net(seed);
        for test in [CandidateTest::Rank, CandidateTest::Adjacency] {
            let o = EfmOptions { test, ..opts() };
            let serial = enumerate_with(&net, &o, &Backend::Serial).unwrap();
            let rayon = enumerate_with(&net, &o, &Backend::Rayon).unwrap();
            let cluster =
                enumerate_with(&net, &o, &Backend::Cluster(efm_cluster::ClusterConfig::new(3)))
                    .unwrap();
            prop_assert_eq!(serial.efms.as_support_sets(), rayon.efms.as_support_sets());
            prop_assert_eq!(serial.efms.as_support_sets(), cluster.efms.as_support_sets());
        }
    }

    #[test]
    fn adjacency_matches_rank(seed in 0u64..5000) {
        let net = oracle_net(seed);
        let rank = enumerate(&net, &opts()).unwrap();
        let adj = enumerate(
            &net,
            &EfmOptions { test: CandidateTest::Adjacency, ..opts() },
        )
        .unwrap();
        prop_assert_eq!(rank.efms.as_support_sets(), adj.efms.as_support_sets());
    }

    #[test]
    fn exact_rank_matches_float_rank(seed in 0u64..5000) {
        let net = oracle_net(seed);
        let float = enumerate(&net, &opts()).unwrap();
        let exact = enumerate(
            &net,
            &EfmOptions { exact_rank_test: true, ..opts() },
        )
        .unwrap();
        prop_assert_eq!(float.efms.as_support_sets(), exact.efms.as_support_sets());
    }

    #[test]
    fn orderings_agree(seed in 0u64..5000) {
        let net = oracle_net(seed);
        let base = enumerate(&net, &opts()).unwrap();
        for ordering in [RowOrdering::FewestNonzeros, RowOrdering::AsIs, RowOrdering::Random(seed)] {
            let out = enumerate(&net, &EfmOptions { ordering, ..opts() }).unwrap();
            prop_assert_eq!(base.efms.as_support_sets(), out.efms.as_support_sets());
        }
    }

    #[test]
    fn float_scalar_agrees(seed in 0u64..5000) {
        let net = oracle_net(seed);
        let exact = enumerate(&net, &opts()).unwrap();
        let float = enumerate_with_scalar::<efm_numeric::F64Tol>(&net, &opts(), &Backend::Serial)
            .unwrap();
        prop_assert_eq!(exact.efms.as_support_sets(), float.efms.as_support_sets());
    }

    #[test]
    fn compression_levels_preserve_the_efm_set(seed in 0u64..5000) {
        let net = oracle_net(seed);
        let full = enumerate(&net, &opts()).unwrap();
        for compression in [
            efm_metnet::CompressionOptions::none(),
            efm_metnet::CompressionOptions::kernel_only(),
        ] {
            let out = enumerate(&net, &EfmOptions { compression, ..opts() }).unwrap();
            prop_assert_eq!(full.efms.as_support_sets(), out.efms.as_support_sets());
        }
    }

    #[test]
    fn divide_conquer_agrees_on_any_reversible_partition(seed in 0u64..5000) {
        let net = oracle_net(seed);
        let base = enumerate(&net, &opts()).unwrap();
        // Partition on up to two reversible reactions that survive
        // compression as distinct reduced reactions.
        let mut names: Vec<String> = Vec::new();
        let mut seen_reduced = Vec::new();
        for (j, rxn) in net.reactions.iter().enumerate() {
            if names.len() == 2 {
                break;
            }
            if rxn.reversible {
                if let Some(r) = base.reduced.reduced_index_of(j) {
                    if base.reduced.reversible[r] && !seen_reduced.contains(&r) {
                        seen_reduced.push(r);
                        names.push(rxn.name.clone());
                    }
                }
            }
        }
        if names.is_empty() {
            return Ok(()); // no usable partition reaction in this draw
        }
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let dc = match enumerate_divide_conquer(&net, &opts(), &refs, &Backend::Serial) {
            Ok(dc) => dc,
            // Structurally unusable partition (e.g. parallel reversible
            // reactions whose columns are dependent): the paper notes that
            // partition reactions "can not be randomly selected".
            Err(efm_core::EfmError::PartitionNotPivotal(_)) => return Ok(()),
            Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
        };
        prop_assert_eq!(base.efms.as_support_sets(), dc.efms.as_support_sets());
        // Subsets must be disjoint: counts add up.
        let total: usize = dc.subsets.iter().map(|s| s.efm_count).sum();
        prop_assert_eq!(total, dc.efms.len());
    }
}

#[test]
fn divide_conquer_three_way_on_toy() {
    // qsub = 3 exercises the 8-subset path end to end. Partition reactions
    // must be linearly independent columns (they all need to be pivots), so
    // use branch reactions of a fan-out network.
    // Cross edges keep the branch reactions from being fully coupled to
    // their exports (which would merge them into parallel columns).
    let net = efm_metnet::parse_network(
        "up   : Sext <=> A\n\
         r1r  : A <=> B\n\
         r2r  : A <=> C\n\
         r3r  : A <=> D\n\
         bc   : B => C\n\
         cd   : C => D\n\
         exb  : B <=> Pext\n\
         exc  : C <=> Pext\n\
         exd  : D <=> Pext\n",
    )
    .unwrap();
    let base = enumerate(&net, &EfmOptions::default()).unwrap();
    let oracle = brute_force_efms(&net, 12);
    assert_eq!(base.efms.as_support_sets(), oracle.as_support_sets());
    let dc = enumerate_divide_conquer(
        &net,
        &EfmOptions::default(),
        &["r1r", "r2r", "r3r"],
        &Backend::Serial,
    )
    .unwrap();
    assert_eq!(dc.subsets.len(), 8);
    assert_eq!(base.efms.as_support_sets(), dc.efms.as_support_sets());
}
