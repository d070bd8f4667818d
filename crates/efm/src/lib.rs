//! # efm-core — the Nullspace Algorithm for elementary flux modes
//!
//! Implementation of *Jevremovic, Boley & Sosa, "Divide-and-conquer approach
//! to the parallel computation of elementary flux modes in metabolic
//! networks"* (IPDPS Workshops 2011):
//!
//! * **Algorithm 1** — the serial Nullspace Algorithm ([`enumerate`]):
//!   binary nullspace representation, pos×neg candidate pairing, summary
//!   rejection, duplicate removal, and the algebraic rank test;
//! * **Algorithm 2** — the combinatorial parallel variant (a [`Run`] on
//!   [`Backend::Cluster`]): the pair grid of every iteration is striped
//!   across the ranks of a (simulated) distributed-memory cluster, with an
//!   allgather + merge per iteration;
//! * **Algorithm 3** — the combined divide-and-conquer algorithm (a [`Run`]
//!   with a [`partition`](Run::partition)): the EFM set is split across
//!   `2^qsub` zero/nonzero patterns of chosen reactions; each disjoint
//!   subset is an independent (parallel) subproblem stopped `qsub` rows
//!   early (Proposition 1).
//!
//! A shared-memory rayon variant ([`Backend::Rayon`]) covers the
//! EFMTools-style parallelism the paper cites as prior work, and a
//! brute-force oracle ([`brute_force_efms`]) provides an independent
//! correctness reference for small networks. A [`Run`] also carries
//! checkpoint/resume, escalation to divide-and-conquer on memory
//! exhaustion and the self-healing supervisor.
//!
//! ## Quick start
//!
//! ```
//! use efm_core::{enumerate, EfmOptions};
//! use efm_metnet::examples::toy_network;
//!
//! let net = toy_network();
//! let outcome = enumerate(&net, &EfmOptions::default()).unwrap();
//! assert_eq!(outcome.efms.len(), 8); // Eq. (7) of the paper
//! ```
//!
//! Algorithm 3 on the rayon pool, split across the paper's {r6r, r8r}:
//!
//! ```
//! use efm_core::{Backend, Run};
//! use efm_metnet::examples::toy_network;
//! use efm_numeric::DynInt;
//!
//! let run = Run {
//!     backend: Backend::Rayon,
//!     partition: vec!["r6r".into(), "r8r".into()],
//!     ..Default::default()
//! };
//! let outcome = run.enumerate::<DynInt>(&toy_network()).unwrap();
//! assert_eq!((outcome.efms.len(), outcome.subsets.len()), (8, 4));
//! ```

#![warn(missing_docs)]

mod api;
pub mod apps;
mod bridge;
pub mod checkpoint;
mod cluster_algo;
mod divide;
mod drivers;
mod engine;
mod escalate;
pub mod io;
mod metrics;
mod oracle;
mod problem;
mod recover;
mod schedule;
mod stripes;
mod supervise;
mod types;

pub use api::{enumerate, EfmOutcome, Run, MAX_REDUCED_REACTIONS};
pub use apps::{minimal_cut_sets, mode_yields, reaction_participation, suggest_partition};
pub use bridge::EfmScalar;
pub use checkpoint::{
    dnc_fingerprint, problem_fingerprint, CheckpointConfig, DncCheckpoint, DncSubsetResult,
    EngineCheckpoint,
};
pub use cluster_algo::{
    cluster_supports_resumable, cluster_supports_segment, ClusterNodeOutcome, ClusterOutcome,
};
pub use divide::{resolve_partition, run_subset, subset_pattern, Backend, Partition, SubsetReport};
pub use drivers::{rayon_supports, serial_supports, SupportsAndStats};
pub use engine::{
    CandidateSet, Engine, GenArena, ModeMatrix, SignPartition, StreamStats, RANK_TOL,
};
pub use escalate::EscalationAttempt;
pub use metrics::{Counter, Merge, Phase, COUNTERS};
pub use oracle::brute_force_efms;
pub use problem::{build_problem, build_subproblem, EfmProblem};
pub use recover::{recover_flux, verify_flux};
pub use schedule::{survivor_weights, DncConfig, DncSchedule};
pub use stripes::StripeStore;
pub use supervise::{classify_failure, SuperviseConfig};
pub use types::{
    CandidateTest, EfmError, EfmOptions, EfmSet, FailureClass, IterationStats, KernelKind,
    PhaseBreakdown, RecoveryAction, RecoveryEvent, RecoveryLog, RowOrdering, RunStats,
};

#[cfg(test)]
mod tests {
    use super::*;
    use efm_metnet::examples;
    use efm_numeric::DynInt;

    #[test]
    fn toy_network_eight_efms_serial() {
        let net = examples::toy_network();
        let out = enumerate(&net, &EfmOptions::default()).unwrap();
        assert_eq!(out.efms.len(), 8);
        assert_eq!(out.stats.final_modes, 8);
    }

    #[test]
    fn toy_network_matches_oracle() {
        let net = examples::toy_network();
        let out = enumerate(&net, &EfmOptions::default()).unwrap();
        let oracle = brute_force_efms(&net, 22);
        assert_eq!(out.efms, oracle);
    }

    #[test]
    fn all_backends_agree_on_toy() {
        let net = examples::toy_network();
        let opts = EfmOptions::default();
        let serial = Run { opts: opts.clone(), backend: Backend::Serial, ..Default::default() }
            .enumerate::<DynInt>(&net)
            .unwrap();
        let rayon = Run { opts: opts.clone(), backend: Backend::Rayon, ..Default::default() }
            .enumerate::<DynInt>(&net)
            .unwrap();
        let cluster = Run {
            opts: opts.clone(),
            backend: Backend::Cluster(efm_cluster::ClusterConfig::new(3)),
            ..Default::default()
        }
        .enumerate::<DynInt>(&net)
        .unwrap();
        assert_eq!(serial.efms, rayon.efms);
        assert_eq!(serial.efms, cluster.efms);
    }

    #[test]
    fn divide_conquer_toy_partition() {
        // The paper's §III.A example: partition across {r6r, r8r}.
        let net = examples::toy_network();
        let opts = EfmOptions::default();
        let out = Run {
            opts: opts.clone(),
            partition: vec!["r6r".into(), "r8r".into()],
            backend: Backend::Serial,
            ..Default::default()
        }
        .enumerate::<DynInt>(&net)
        .unwrap();
        assert_eq!(out.efms.len(), 8);
        assert_eq!(out.subsets.len(), 4);
        // Each of the four subsets contributes exactly two EFMs (§III.A).
        for s in &out.subsets {
            assert_eq!(s.efm_count, 2, "subset {} ({})", s.id, s.pattern);
        }
        let direct = enumerate(&net, &opts).unwrap();
        assert_eq!(out.efms, direct.efms);
    }

    #[test]
    fn adjacency_test_agrees_with_rank_test() {
        let net = examples::toy_network();
        let rank = enumerate(&net, &EfmOptions::default()).unwrap();
        let adj =
            enumerate(&net, &EfmOptions { test: CandidateTest::Adjacency, ..Default::default() })
                .unwrap();
        assert_eq!(rank.efms, adj.efms);
    }

    #[test]
    fn float_scalar_agrees_on_toy() {
        let net = examples::toy_network();
        let exact = enumerate(&net, &EfmOptions::default()).unwrap();
        let float =
            Run { opts: EfmOptions::default(), backend: Backend::Serial, ..Default::default() }
                .enumerate::<efm_numeric::F64Tol>(&net)
                .unwrap();
        assert_eq!(exact.efms, float.efms);
    }

    #[test]
    fn structured_counts() {
        use efm_metnet::generator::{layered_branches, linear_chain, parallel_branches};
        let opts = EfmOptions::default();
        assert_eq!(enumerate(&linear_chain(5), &opts).unwrap().efms.len(), 1);
        assert_eq!(enumerate(&parallel_branches(4), &opts).unwrap().efms.len(), 4);
        assert_eq!(enumerate(&layered_branches(3, 3), &opts).unwrap().efms.len(), 27);
    }

    #[test]
    fn every_efm_is_a_valid_flux_mode() {
        let net = examples::toy_network();
        let out = enumerate(&net, &EfmOptions::default()).unwrap();
        let rev = net.reversibilities();
        for i in 0..out.efms.len() {
            let sup = out.efms.support(i);
            let flux = recover_flux(&out.reduced, &rev, &sup).unwrap();
            verify_flux(&net, &flux).unwrap();
            // The recovered flux's support must equal the reported support.
            let actual: Vec<usize> =
                flux.iter().enumerate().filter(|(_, v)| !v.is_zero()).map(|(j, _)| j).collect();
            assert_eq!(actual, sup);
        }
    }

    #[test]
    fn mode_limit_is_enforced() {
        let net = efm_metnet::generator::layered_branches(4, 3);
        let opts = EfmOptions { max_modes: Some(10), ..Default::default() };
        let backends =
            [Backend::Serial, Backend::Rayon, Backend::Cluster(efm_cluster::ClusterConfig::new(2))];
        for backend in backends {
            let run = Run { opts: opts.clone(), backend: backend.clone(), ..Default::default() };
            match run.enumerate::<DynInt>(&net) {
                Err(EfmError::ModeLimitExceeded { limit: 10, .. }) => {}
                other => panic!("{backend:?}: expected mode limit error, got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_network_yields_no_efms() {
        let net = efm_metnet::parse_network("r1 : A => B\n").unwrap();
        // A and B are internal dead ends: everything is blocked.
        let out = enumerate(&net, &EfmOptions::default()).unwrap();
        assert_eq!(out.efms.len(), 0);
    }
}
