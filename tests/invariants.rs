//! Mathematical invariants of every enumerated EFM set, checked on random
//! networks: steady state, sign feasibility, support minimality, the
//! nullity-1 characterization, and compression round-tripping.

use efm_core::{enumerate, recover_flux, verify_flux, EfmOptions};
use efm_linalg::{kernel_basis, nullity_of_cols};
use efm_metnet::generator::{random_network, RandomNetworkParams};
use efm_metnet::{compress, MetabolicNetwork};
use efm_numeric::Rational;
use proptest::prelude::*;

fn params() -> RandomNetworkParams {
    RandomNetworkParams {
        metabolites: 6,
        reactions: 11,
        reversible_prob: 0.3,
        mean_degree: 2.6,
        exchange_prob: 0.4,
        max_coeff: 3,
    }
}

fn net_for(seed: u64) -> MetabolicNetwork {
    random_network(&params(), seed)
}

fn opts() -> EfmOptions {
    EfmOptions { max_modes: Some(50_000), ..Default::default() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    #[test]
    fn every_mode_is_a_steady_state_flux(seed in 0u64..4000) {
        let net = net_for(seed);
        let out = enumerate(&net, &opts()).unwrap();
        let rev = net.reversibilities();
        for i in 0..out.efms.len() {
            let sup = out.efms.support(i);
            let flux = recover_flux(&out.reduced, &rev, &sup).unwrap();
            prop_assert!(verify_flux(&net, &flux).is_ok(), "mode {i}: {:?}", verify_flux(&net, &flux));
            // Reported support equals the actual support.
            let actual: Vec<usize> = flux
                .iter()
                .enumerate()
                .filter(|(_, v)| !v.is_zero())
                .map(|(j, _)| j)
                .collect();
            prop_assert_eq!(actual, sup);
        }
    }

    #[test]
    fn supports_are_pairwise_minimal(seed in 0u64..4000) {
        let net = net_for(seed);
        let out = enumerate(&net, &opts()).unwrap();
        let sets: Vec<Vec<usize>> = (0..out.efms.len()).map(|i| out.efms.support(i)).collect();
        for (i, a) in sets.iter().enumerate() {
            for (j, b) in sets.iter().enumerate() {
                if i != j {
                    let subset = a.iter().all(|x| b.binary_search(x).is_ok());
                    prop_assert!(
                        !subset,
                        "support {i} ⊆ support {j}: {a:?} ⊆ {b:?} — not elementary"
                    );
                }
            }
        }
    }

    #[test]
    fn nullity_one_characterization(seed in 0u64..4000) {
        let net = net_for(seed);
        let out = enumerate(&net, &opts()).unwrap();
        let n = net.stoichiometry();
        let mut scratch = Vec::new();
        for i in 0..out.efms.len() {
            let sup = out.efms.support(i);
            prop_assert_eq!(
                nullity_of_cols(&n, &sup, &mut scratch),
                1,
                "support of mode {} must have nullity 1",
                i
            );
        }
    }

    #[test]
    fn compression_preserves_kernel_and_roundtrips(seed in 0u64..4000) {
        let net = net_for(seed);
        let n = net.stoichiometry();
        let (red, _) = compress(&net);
        // Every original kernel dimension blocked by the reduction must be
        // sign-infeasible, which is exactly what the EFM counts check; here
        // verify the structural invariants instead.
        for (j, mem) in red.members.iter().enumerate() {
            // Members reference valid original reactions, with consistent
            // back-mapping.
            for (orig, coeff) in mem {
                prop_assert!(*orig < net.num_reactions());
                prop_assert!(!coeff.is_zero());
                prop_assert_eq!(red.reduced_index_of(*orig), Some(j));
            }
        }
        // Reduced columns expand to steady-state directions: N·(expanded
        // unit flux of reduced reaction j) must be reproducible from the
        // reduced stoichiometry — check via the reduced kernel instead:
        // every reduced kernel vector expands to an original kernel vector.
        let kb = kernel_basis(&red.stoich, &[]);
        for c in 0..kb.k.cols() {
            let reduced_flux: Vec<Rational> = (0..red.num_reduced())
                .map(|r| kb.k.get(r, c).clone())
                .collect();
            let full = red.expand_flux(&reduced_flux);
            let residual = n.matvec(&full);
            prop_assert!(
                residual.iter().all(|v| v.is_zero()),
                "expanded kernel vector must satisfy N·v = 0"
            );
        }
    }

    #[test]
    fn no_mode_uses_blocked_reactions(seed in 0u64..4000) {
        let net = net_for(seed);
        let out = enumerate(&net, &opts()).unwrap();
        let blocked: Vec<usize> = (0..net.num_reactions())
            .filter(|&j| out.reduced.reduced_index_of(j).is_none())
            .collect();
        for i in 0..out.efms.len() {
            for &b in &blocked {
                prop_assert!(!out.efms.uses(i, b), "mode {i} uses blocked reaction {b}");
            }
        }
    }

    #[test]
    fn enzyme_subsets_fire_together(seed in 0u64..4000) {
        let net = net_for(seed);
        let out = enumerate(&net, &opts()).unwrap();
        for mem in &out.reduced.members {
            if mem.len() < 2 {
                continue;
            }
            let members: Vec<usize> = mem.iter().map(|(o, _)| *o).collect();
            for i in 0..out.efms.len() {
                let used: Vec<bool> = members.iter().map(|&o| out.efms.uses(i, o)).collect();
                prop_assert!(
                    used.iter().all(|&u| u) || used.iter().all(|&u| !u),
                    "enzyme subset {members:?} must be all-or-nothing in mode {i}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Divide-and-conquer partition invariants (the paper's Proposition 1),
// checked on random valid partitions of random networks: the 2^qsub
// subsets are pairwise disjoint, their union is exactly the unsplit EFM
// set, and every EFM obeys its subset's zero/nonzero pattern.
// ---------------------------------------------------------------------------

/// Random valid partition of `red`: reversible, pivotal, distinct reduced
/// reactions (the same eligibility rule the product enforces), chosen by
/// `pick` as a rotation over the eligible set. Returns original-network
/// names, or an empty vector when the network has no eligible split.
fn random_partition(
    net: &MetabolicNetwork,
    red: &efm_metnet::ReducedNetwork,
    pick: u64,
    qsub: usize,
) -> Vec<String> {
    let Ok(problem) = efm_core::build_problem::<efm_numeric::DynInt>(red, &EfmOptions::default())
    else {
        return Vec::new();
    };
    let mut eligible: Vec<usize> = problem.row_order[problem.free_count..]
        .iter()
        .filter(|&&c| c < red.num_reduced())
        .map(|&c| problem.col_to_reduced[c])
        .filter(|&r| red.reversible[r])
        .collect();
    eligible.dedup();
    if eligible.len() < qsub {
        return Vec::new();
    }
    let start = (pick as usize) % eligible.len();
    (0..qsub)
        .map(|i| {
            let r = eligible[(start + i) % eligible.len()];
            let (orig, _) = red.members[r][0];
            net.reactions[orig].name.clone()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    #[test]
    fn partition_subsets_are_disjoint_complete_and_pattern_faithful(
        seed in 0u64..4000,
        pick in 0u64..64,
    ) {
        let net = net_for(seed);
        let (red, _) = compress(&net);
        let qsub = 2;
        let names = random_partition(&net, &red, pick, qsub);
        prop_assume!(names.len() == qsub);
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let partition = efm_core::resolve_partition(&net, &red, &refs).unwrap();

        let mut union: Vec<Vec<usize>> = Vec::new();
        let mut seen: Vec<Vec<usize>> = Vec::new();
        for id in 0..1usize << qsub {
            let Some((sups, _)) = efm_core::run_subset::<efm_numeric::DynInt>(
                &red,
                &partition,
                id,
                &opts(),
                &efm_core::Backend::Serial,
            )
            .unwrap() else {
                continue;
            };
            for sup in sups {
                // Proposition 1: the EFM is nonzero on exactly the
                // partition reactions whose bit in `id` is set.
                for (i, &r) in partition.reduced_indices.iter().enumerate() {
                    let must_use = id >> i & 1 == 1;
                    prop_assert_eq!(
                        sup.contains(&r),
                        must_use,
                        "subset {} violates its pattern on reaction {} ({:?})",
                        id,
                        &names[i],
                        &sup
                    );
                }
                let mut s = sup.clone();
                s.sort_unstable();
                // Pairwise disjoint: no support may appear under two ids
                // (or twice under one).
                prop_assert!(
                    !seen.contains(&s),
                    "support {:?} appeared in more than one subset",
                    &s
                );
                seen.push(s);
                let mut expanded = red.expand_support(&sup);
                expanded.sort_unstable();
                union.push(expanded);
            }
        }
        union.sort();

        // Union = the unsplit EFM set.
        let direct = enumerate(&net, &opts()).unwrap();
        let mut reference: Vec<Vec<usize>> =
            (0..direct.efms.len()).map(|i| direct.efms.support(i)).collect();
        reference.sort();
        prop_assert_eq!(union, reference, "subset union differs from the unsplit EFM set");
    }
}
