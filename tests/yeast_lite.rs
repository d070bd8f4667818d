//! End-to-end checks on a trimmed S. cerevisiae Network I ("lite": the two
//! hub reactions R15 and R70 removed — a few thousand EFMs): exact and
//! floating-point arithmetic agree, divide-and-conquer partitions are
//! disjoint and complete, and the candidate-count reduction the paper
//! reports for the split shows up. Compression is pinned on all four yeast
//! networks and checked against a renumbering of their metabolites.

use efm_core::{Backend, CandidateTest, EfmOptions, Run, RunStats};
use efm_linalg::Mat;
use efm_metnet::{compress, parse_network, CompressionStats, MetabolicNetwork};
use efm_numeric::{DynInt, F64Tol, Rational};

/// `text` without the reactions named in `dropped`.
fn network_without(text: &str, dropped: &[&str]) -> MetabolicNetwork {
    let text: String = text
        .lines()
        .filter(|l| !dropped.contains(&l.split(':').next().unwrap_or("").trim()))
        .map(|l| format!("{l}\n"))
        .collect();
    parse_network(&text).unwrap()
}

fn network_i_lite() -> MetabolicNetwork {
    network_without(efm_metnet::yeast::NETWORK_I_TEXT, &["R15", "R70"])
}

/// Per-iteration `(pairs, accepted, modes_after)` of a run: equal series
/// mean equal intermediate mode sets, iteration by iteration.
fn mode_series(stats: &RunStats) -> Vec<(u64, u64, usize)> {
    stats.iterations.iter().map(|r| (r.pairs, r.accepted, r.modes_after)).collect()
}

#[test]
fn exact_and_float_agree_on_yeast_lite() {
    let net = network_i_lite();
    let opts = EfmOptions::default();
    let float = Run { opts: opts.clone(), backend: Backend::Serial, ..Default::default() }
        .enumerate::<F64Tol>(&net)
        .unwrap();
    let exact = Run { opts: opts.clone(), backend: Backend::Serial, ..Default::default() }
        .enumerate::<DynInt>(&net)
        .unwrap();
    assert_eq!(exact.efms.len(), float.efms.len());
    assert_eq!(exact.efms, float.efms, "exact and f64 EFM sets must coincide");
    assert_eq!(
        exact.stats.candidates_generated, float.stats.candidates_generated,
        "identical pipelines must generate identical candidate counts"
    );
    // Pinned per-iteration work: an equivalent elementarity test must
    // generate, test and accept exactly as many candidates. Elementarity
    // is decided over the processed rows; the generation prefilter cuts
    // every pair whose support bounds rule out nullity 1 before any exact
    // arithmetic, and the zero-row scan drops most remaining
    // non-elementary candidates before the rank test.
    assert_eq!(exact.stats.candidates_generated, 3_827_018);
    assert_eq!(exact.stats.kernel_pruned, 2_996_355);
    assert_eq!(exact.stats.rank_tests, 27_098);
    let accepted: u64 = exact.stats.iterations.iter().map(|r| r.accepted).sum();
    assert_eq!(accepted, 5617);
}

/// Certificate on real data: the default (kernel-row f64) rank test and
/// the exact Bareiss test on the stoichiometry take identical decisions on
/// every iteration of Network I-lite. The exact test takes about ten
/// seconds even in release, so this runs on request (`--ignored`) and in
/// CI.
#[test]
#[ignore = "exact rank test: about ten seconds in release"]
fn float_rank_test_matches_exact_on_every_iteration_of_yeast_lite() {
    let net = network_i_lite();
    let opts = EfmOptions::default();
    let float = Run { opts: opts.clone(), backend: Backend::Serial, ..Default::default() }
        .enumerate::<DynInt>(&net)
        .unwrap();
    let exact = Run {
        opts: EfmOptions { exact_rank_test: true, ..opts },
        backend: Backend::Serial,
        ..Default::default()
    }
    .enumerate::<DynInt>(&net)
    .unwrap();
    let series = |s: &efm_core::RunStats| -> Vec<(u64, u64, u64, usize)> {
        s.iterations.iter().map(|r| (r.pairs, r.deduped, r.accepted, r.modes_after)).collect()
    };
    assert_eq!(series(&float.stats), series(&exact.stats));
    assert_eq!(float.efms, exact.efms);
}

#[test]
fn divide_and_conquer_reduces_candidates_on_yeast_lite() {
    let net = network_i_lite();
    let opts = EfmOptions::default();
    let unsplit = Run { opts: opts.clone(), backend: Backend::Serial, ..Default::default() }
        .enumerate::<F64Tol>(&net)
        .unwrap();
    // The lite trimming fixes the direction of some of the paper's
    // partition reactions; pick two that are still reversible.
    let mut names: Vec<String> = Vec::new();
    let mut used = Vec::new();
    for rxn in &net.reactions {
        if names.len() == 2 {
            break;
        }
        if let Some(r) =
            net.reaction_index(&rxn.name).and_then(|o| unsplit.reduced.reduced_index_of(o))
        {
            if unsplit.reduced.reversible[r] && !used.contains(&r) {
                used.push(r);
                names.push(rxn.name.clone());
            }
        }
    }
    assert_eq!(names.len(), 2, "lite network must retain two reversible reactions");
    let split = Run {
        opts: opts.clone(),
        partition: names.clone(),
        backend: Backend::Serial,
        ..Default::default()
    }
    .enumerate::<F64Tol>(&net)
    .unwrap();
    // Same EFM set.
    assert_eq!(unsplit.efms, split.efms);
    // Disjoint subsets covering the union.
    let total: usize = split.subsets.iter().map(|s| s.efm_count).sum();
    assert_eq!(total, split.efms.len());
    assert_eq!(split.subsets.len(), 4);
    // The paper's Table II → III effect: fewer cumulative candidates.
    assert!(
        split.stats.candidates_generated < unsplit.stats.candidates_generated,
        "split candidates {} must be below unsplit {}",
        split.stats.candidates_generated,
        unsplit.stats.candidates_generated
    );
    // And a smaller peak mode matrix (the memory claim).
    let split_peak = split.subsets.iter().map(|s| s.stats.peak_modes).max().unwrap();
    assert!(
        split_peak <= unsplit.stats.peak_modes,
        "worst subset peak {} must not exceed unsplit peak {}",
        split_peak,
        unsplit.stats.peak_modes
    );
}

#[test]
fn cluster_backend_agrees_on_yeast_lite() {
    let net = network_i_lite();
    let opts = EfmOptions::default();
    let serial = Run { opts: opts.clone(), backend: Backend::Serial, ..Default::default() }
        .enumerate::<F64Tol>(&net)
        .unwrap();
    let cluster = Run {
        opts: opts.clone(),
        backend: Backend::Cluster(efm_cluster::ClusterConfig::new(4)),
        ..Default::default()
    }
    .enumerate::<F64Tol>(&net)
    .unwrap();
    assert_eq!(serial.efms, cluster.efms);
    assert_eq!(serial.stats.candidates_generated, cluster.stats.candidates_generated);
    // A survivor two ranks share is accepted once, not once per rank.
    assert_eq!(mode_series(&serial.stats), mode_series(&cluster.stats));
}

/// Both elementarity tests decide over the identity block and the
/// processed rows, so they keep the same intermediate modes on every
/// iteration, not only the same final set.
#[test]
fn rank_and_adjacency_agree_on_every_iteration() {
    let net = network_i_lite();
    let run = |test| {
        let opts = EfmOptions { test, ..Default::default() };
        Run { opts, backend: Backend::Serial, ..Default::default() }
            .enumerate::<F64Tol>(&net)
            .unwrap()
    };
    let rank = run(CandidateTest::Rank);
    let adjacency = run(CandidateTest::Adjacency);
    assert_eq!(mode_series(&rank.stats), mode_series(&adjacency.stats));
    assert_eq!(rank.stats.candidates_generated, 3_827_018);
}

/// The combinatorial test compares zero sets over the identity block and
/// the processed rows only; counting unprocessed rows lets 162 supersets
/// of rank-test EFMs through on this network.
#[test]
fn adjacency_matches_rank_on_yeast_lite() {
    let net = network_i_lite();
    let rank = Run { opts: EfmOptions::default(), backend: Backend::Serial, ..Default::default() }
        .enumerate::<F64Tol>(&net)
        .unwrap();
    assert_eq!(rank.efms.len(), 5194);
    let opts = EfmOptions { test: CandidateTest::Adjacency, ..Default::default() };
    for backend in [Backend::Serial, Backend::Cluster(efm_cluster::ClusterConfig::new(4))] {
        let adjacency = Run { opts: opts.clone(), backend: backend.clone(), ..Default::default() }
            .enumerate::<F64Tol>(&net)
            .unwrap();
        assert_eq!(adjacency.efms, rank.efms, "{backend:?}");
    }
}

/// The same on Network II-lite without R56, split over {R74r, R88r} on
/// rayon, subset by subset and iteration by iteration. Seconds in release
/// but minutes in a debug build, so this runs on request (`--ignored`, in
/// release) and in CI.
#[test]
#[ignore = "Network II-lite divide-and-conquer: run it in release"]
fn adjacency_matches_rank_on_network_ii_lite() {
    let net = network_without(efm_metnet::yeast::NETWORK_II_TEXT, &["R15", "R70", "R56"]);
    let run = |test| {
        let opts = EfmOptions { test, ..Default::default() };
        Run {
            opts: opts.clone(),
            partition: vec!["R74r".into(), "R88r".into()],
            backend: Backend::Rayon,
            ..Default::default()
        }
        .enumerate::<DynInt>(&net)
        .unwrap()
    };
    let rank = run(CandidateTest::Rank);
    assert_eq!(rank.efms.len(), 17_871);
    let adjacency = run(CandidateTest::Adjacency);
    assert_eq!(adjacency.efms, rank.efms);
    assert_eq!(adjacency.subsets.len(), rank.subsets.len());
    for (a, r) in adjacency.subsets.iter().zip(&rank.subsets) {
        assert_eq!(a.id, r.id);
        assert_eq!(mode_series(&a.stats), mode_series(&r.stats), "subset {}", r.pattern);
    }
}

/// The four yeast networks compression is pinned on: Network I-lite,
/// Network II-lite without R56, and the full Networks I and II.
fn yeast_networks() -> [(&'static str, &'static str, &'static [&'static str]); 4] {
    use efm_metnet::yeast::{NETWORK_II_TEXT, NETWORK_I_TEXT};
    [
        ("Network I-lite", NETWORK_I_TEXT, &["R15", "R70"]),
        ("Network II-lite without R56", NETWORK_II_TEXT, &["R15", "R70", "R56"]),
        ("Network I", NETWORK_I_TEXT, &[]),
        ("Network II", NETWORK_II_TEXT, &[]),
    ]
}

/// Reduced shapes and the full compression statistics, exact-LP solve
/// count included, on real data.
#[test]
fn compression_is_pinned_on_the_yeast_networks() {
    let stats =
        |rounds, blocked, merged, dropped_rows, sign_blocked, direction_fixed, lp_solves| {
            CompressionStats {
                rounds,
                blocked,
                merged,
                dropped_rows,
                sign_blocked,
                direction_fixed,
                lp_solves,
            }
        };
    let expect = [
        ((28, 47), stats(7, 13, 13, 34, 3, 10, 34)),
        ((30, 51), stats(7, 14, 12, 33, 3, 9, 34)),
        ((40, 65), stats(4, 3, 10, 22, 0, 11, 38)),
        ((42, 70), stats(5, 3, 10, 21, 0, 6, 34)),
    ];
    for ((name, text, dropped), (shape, want)) in yeast_networks().into_iter().zip(expect) {
        let (red, got) = compress(&network_without(text, dropped));
        assert_eq!((red.stoich.rows(), red.num_reduced()), shape, "{name}");
        assert_eq!(got, want, "{name}");
    }
}

/// `text` with the terms on each side of every reaction line in reverse
/// order, so the parser numbers the metabolites differently.
fn reversed_terms(text: &str) -> String {
    let reverse = |side: &str| side.split('+').map(str::trim).rev().collect::<Vec<_>>().join(" + ");
    text.lines()
        .map(|l| match l.split_once(':') {
            Some((name, eqn)) if !l.starts_with('#') => {
                let arrow = ["<=>", "=>"].into_iter().find(|a| eqn.contains(a)).unwrap();
                let (lhs, rhs) = eqn.split_once(arrow).unwrap();
                format!("{name}: {} {arrow} {}\n", reverse(lhs), reverse(rhs))
            }
            _ => format!("{l}\n"),
        })
        .collect()
}

/// Compression does not depend on how metabolites are numbered: the same
/// reduced reactions, and a stoichiometry with the same row space. The
/// benchmark's seeds, which reorder terms, rely on this.
#[test]
fn compression_is_invariant_under_metabolite_order() {
    for (name, text, dropped) in yeast_networks() {
        let net = network_without(text, dropped);
        let permuted = network_without(&reversed_terms(text), dropped);
        assert_eq!(permuted.num_reactions(), net.num_reactions(), "{name}");
        let names = |n: &MetabolicNetwork| -> Vec<String> {
            n.metabolites.iter().map(|m| m.name.clone()).collect()
        };
        assert_ne!(names(&permuted), names(&net), "{name}: metabolites renumbered");
        let (a, _) = compress(&net);
        let (b, _) = compress(&permuted);
        assert_eq!(a.names, b.names, "{name}");
        assert_eq!(a.reversible, b.reversible, "{name}");
        assert_eq!(a.members, b.members, "{name}");
        let mut both: Vec<Vec<Rational>> = Vec::new();
        for m in [&a.stoich, &b.stoich] {
            for r in 0..m.rows() {
                both.push((0..m.cols()).map(|c| m.get(r, c).clone()).collect());
            }
        }
        let rank_a = efm_linalg::rank(&a.stoich);
        assert_eq!(efm_linalg::rank(&b.stoich), rank_a, "{name}");
        assert_eq!(efm_linalg::rank(&Mat::from_rows(both)), rank_a, "{name}: same row space");
    }
}
