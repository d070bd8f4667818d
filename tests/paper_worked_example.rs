//! Golden tests against every number the paper prints for its worked
//! example (Fig. 1 network, Fig. 2 algorithm trace, Eq. (7) EFM matrix,
//! §II.E / §III.A divide-and-conquer subsets).

use efm_core::{
    build_problem, enumerate, recover_flux, serial_supports, verify_flux, Backend, EfmOptions, Run,
};
use efm_metnet::{compress, examples::toy_network};
use efm_numeric::{DynInt, Rational};

/// The eight EFMs of Eq. (7), as (reaction name, flux value) listings.
/// Values are the paper's columns up to positive scale.
fn expected_efms() -> Vec<Vec<(&'static str, i64)>> {
    vec![
        vec![("r1", 1), ("r2", 1), ("r3", 1), ("r4", 1), ("r9", 1)],
        vec![("r1", 1), ("r4", 2), ("r5", 1), ("r7", 1)],
        vec![("r1", 1), ("r3", 1), ("r4", 1), ("r5", 1), ("r6r", 1), ("r9", 1)],
        vec![("r1", 1), ("r2", 1), ("r4", 2), ("r6r", -1), ("r7", 1)],
        vec![("r1", 1), ("r5", 1), ("r8r", 1)],
        vec![("r1", 1), ("r2", 1), ("r6r", -1), ("r8r", 1)],
        vec![("r4", 2), ("r7", 1), ("r8r", -1)],
        vec![("r3", 1), ("r4", 1), ("r6r", 1), ("r8r", -1), ("r9", 1)],
    ]
}

#[test]
fn eq7_supports_and_coefficients() {
    let net = toy_network();
    let out = enumerate(&net, &EfmOptions::default()).unwrap();
    assert_eq!(out.efms.len(), 8, "Eq. (7) lists eight EFMs");

    let rev = net.reversibilities();
    let idx = |n: &str| net.reaction_index(n).unwrap();

    let got = out.efms.as_support_sets();
    for efm in expected_efms() {
        let mut sup: Vec<usize> = efm.iter().map(|(n, _)| idx(n)).collect();
        sup.sort_unstable();
        assert!(got.contains(&sup), "missing EFM with support {efm:?}");

        // Coefficients match up to positive scale.
        let flux = recover_flux(&out.reduced, &rev, &sup).unwrap();
        verify_flux(&net, &flux).unwrap();
        // Find the scale from the first entry and check proportionality.
        let (n0, v0) = efm[0];
        let scale = flux[idx(n0)].div(&Rational::from_i64(v0));
        assert!(scale.signum() > 0, "canonical sign for {efm:?}");
        for (n, v) in &efm {
            let expect = scale.mul(&Rational::from_i64(*v));
            assert_eq!(flux[idx(n)], expect, "coefficient of {n} in {efm:?}");
        }
    }
}

#[test]
fn fig2_iteration_trace() {
    // With the paper's identity block {r2, r4, r5, r7} the algorithm's
    // per-iteration mode counts follow Fig. 2: 4 → 4 → 4 → 5 → 8.
    let net = toy_network();
    let (red, _) = compress(&net);
    let force: Vec<usize> =
        ["r2", "r4", "r5", "r7"].iter().map(|n| net.reaction_index(n).unwrap()).collect();
    let opts = EfmOptions { force_free: Some(force), ..Default::default() };
    let problem = build_problem::<DynInt>(&red, &opts).unwrap();
    assert_eq!(problem.free_count, 4);
    assert_eq!(problem.kernel.cols(), 4, "initial nullspace has 4 columns");

    let (sups, stats) = serial_supports::<efm_bitset::Pattern1, DynInt>(&problem, &opts).unwrap();
    let trace: Vec<_> = stats
        .iterations
        .iter()
        .map(|it| (it.reaction.clone(), it.reversible, it.pairs, it.accepted, it.modes_after))
        .collect();
    assert_eq!(sups.len(), 8);
    assert_eq!(trace.len(), 4, "four R(2) rows are processed");

    // The paper's order: r1, r3 (irreversible) then r6r, r8r (reversible).
    let names: Vec<&str> = trace.iter().map(|(n, _, _, _, _)| n.as_str()).collect();
    assert_eq!(names, vec!["r1", "r3*r9", "r6r", "r8r"]);
    // r1: all entries nonnegative → no candidates (paper: "we skip").
    assert_eq!(trace[0].2, 0, "r1 generates no pairs");
    assert_eq!(trace[0].4, 4, "4 modes after r1");
    // r3: one pos × one neg → one candidate, accepted; neg removed.
    assert_eq!(trace[1].2, 1);
    assert_eq!(trace[1].3, 1);
    assert_eq!(trace[1].4, 4, "4 modes after r3 (paper's K^(3))");
    // r6r: reversible; one candidate accepted, negative column kept.
    assert!(trace[2].1);
    assert_eq!(trace[2].2, 1);
    assert_eq!(trace[2].3, 1);
    assert_eq!(trace[2].4, 5, "5 modes after r6r (paper's K^(4))");
    // r8r: 2 pos × 2 neg = 4 candidate pairs, 3 unique accepted → 8 modes.
    assert!(trace[3].1);
    assert_eq!(trace[3].2, 4, "four candidate pairs at r8r");
    assert_eq!(trace[3].3, 3, "two duplicates → three survive (paper §II.C)");
    assert_eq!(trace[3].4, 8, "final K^(5) has 8 columns");

    assert_eq!(stats.candidates_generated, 6, "1 + 1 + 4 pairs in total");
}

#[test]
fn section_3a_divide_and_conquer_subsets() {
    // §III.A: partitioning across {r6r, r8r} gives four subproblems with
    // exactly two EFMs each.
    let net = toy_network();
    let out = Run {
        opts: EfmOptions::default(),
        partition: vec!["r6r".into(), "r8r".into()],
        backend: Backend::Serial,
        ..Default::default()
    }
    .enumerate::<DynInt>(&net)
    .unwrap();
    assert_eq!(out.subsets.len(), 4);
    for s in &out.subsets {
        assert_eq!(s.efm_count, 2, "subset {} ({}) (paper finds two EFMs each)", s.id, s.pattern);
    }
    assert_eq!(out.efms.len(), 8);
    let direct = enumerate(&net, &EfmOptions::default()).unwrap();
    assert_eq!(out.efms, direct.efms);
}

#[test]
fn section_2e_partition_across_r8r_r9() {
    // §II.E: "the partitions across reactions r8r and r9 will be
    // {6,8}, {1,3,4}, {5,7}, {2}" — i.e. subset sizes 2, 3, 2, 1.
    // r9 folds into the enzyme subset {r3, r9}; partitioning uses the
    // merged reduced reaction. r9's reduced reaction is irreversible, so
    // the library rejects it as a partition reaction; verify the subset
    // *sizes* directly from the enumerated EFM set instead.
    let net = toy_network();
    let out = enumerate(&net, &EfmOptions::default()).unwrap();
    let r8 = net.reaction_index("r8r").unwrap();
    let r9 = net.reaction_index("r9").unwrap();
    let mut sizes = [0usize; 4];
    for i in 0..out.efms.len() {
        let uses_r8 = out.efms.uses(i, r8) as usize;
        let uses_r9 = out.efms.uses(i, r9) as usize;
        sizes[uses_r8 * 2 + uses_r9] += 1;
    }
    // The paper's subsets {6,8}, {1,3,4}, {5,7}, {2} use its own column
    // numbering; the invariant is the multiset of subset sizes {2,3,2,1}.
    sizes.sort_unstable();
    assert_eq!(sizes, [1, 2, 2, 3], "subset sizes of the paper's §II.E partition");
}
