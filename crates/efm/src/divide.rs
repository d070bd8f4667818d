//! Divide-and-conquer — the combined parallel Nullspace Algorithm
//! (the paper's Algorithm 3).
//!
//! The EFM set is partitioned across `qsub` chosen reactions into `2^qsub`
//! disjoint subsets by their zero/nonzero flux pattern: subset `k` contains
//! exactly the EFMs that are nonzero on the partition reactions whose bit
//! in `k` is 1 and zero on the others. Each subset becomes an independent
//! subproblem:
//!
//! * must-be-zero reactions: their columns are removed from the reduced
//!   stoichiometry (lines 5–9 of Algorithm 3);
//! * must-be-nonzero reactions: made pivot columns, ordered last, and left
//!   unprocessed; by Proposition 1 the EFMs of the subset are precisely the
//!   final columns that are nonzero in all of those rows (lines 10–18).
//!
//! Per the paper, partition reactions must survive network reduction; this
//! implementation additionally validates that they are reversible in the
//! reduced network (every partition the paper uses — {R89r, R74r},
//! {R54r, R90r, R60r, R22r} — is), because an unprocessed irreversible row
//! has no sign guarantee.

use crate::api::{dispatch_width, supports, MAX_REDUCED_REACTIONS};
use crate::bridge::EfmScalar;
use crate::drivers::SupportsAndStats;
use crate::problem::{build_subproblem, EfmProblem};
use crate::types::{EfmError, EfmOptions, RunStats};
use efm_cluster::ClusterConfig;
use efm_metnet::ReducedNetwork;

/// Which execution backend runs each subproblem.
#[derive(Debug, Clone)]
pub enum Backend {
    /// Single-threaded (Algorithm 1 per subset).
    Serial,
    /// Shared-memory rayon pool.
    Rayon,
    /// Simulated distributed-memory cluster (Algorithm 2 per subset — the
    /// paper's combined algorithm).
    Cluster(ClusterConfig),
}

/// Report for one divide-and-conquer subset. Reports are always returned
/// in subset-id order, whatever order the schedule completed them in.
#[derive(Debug, Clone)]
pub struct SubsetReport {
    /// Subset id: bit `i` set ⇔ partition reaction `i` must be nonzero.
    pub id: usize,
    /// Human-readable pattern like `R89r≠0 R74r=0`.
    pub pattern: String,
    /// EFMs found in this subset.
    pub efm_count: usize,
    /// Whether the subset was skipped as provably empty.
    pub skipped_empty: bool,
    /// How many times this subset was restarted after retryable failures
    /// (see [`crate::DncConfig::max_retries`]); `0` on a clean run.
    pub retries: u32,
    /// Subset run statistics — from the successful attempt only, so
    /// aggregating over reports never double-counts retried work. The
    /// recovery events of failed attempts are in `stats.recovery`.
    pub stats: RunStats,
}

/// Validated divide-and-conquer partition over a reduced network.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Reduced-network indices of the partition reactions.
    pub reduced_indices: Vec<usize>,
    /// Display names.
    pub names: Vec<String>,
}

/// Resolves and validates partition reactions (by original-network name).
pub fn resolve_partition(
    net: &efm_metnet::MetabolicNetwork,
    red: &ReducedNetwork,
    partition_names: &[&str],
) -> Result<Partition, EfmError> {
    let mut reduced_indices = Vec::with_capacity(partition_names.len());
    let mut names: Vec<String> = Vec::with_capacity(partition_names.len());
    for &name in partition_names {
        let orig =
            net.reaction_index(name).ok_or_else(|| EfmError::UnknownReaction(name.to_string()))?;
        let redi = red
            .reduced_index_of(orig)
            .ok_or_else(|| EfmError::PartitionBlocked(name.to_string()))?;
        if let Some(prev) = reduced_indices.iter().position(|&r| r == redi) {
            return Err(EfmError::PartitionCollision(names[prev].clone(), name.to_string()));
        }
        if !red.reversible[redi] {
            return Err(EfmError::PartitionIrreversible(name.to_string()));
        }
        reduced_indices.push(redi);
        names.push(name.to_string());
    }
    Ok(Partition { reduced_indices, names })
}

/// Builds subset `subset_id`'s subproblem: the partition reactions whose
/// bit is 0 are removed, those whose bit is 1 must be nonzero. `None` when
/// the subset is provably empty.
pub(crate) fn subset_problem<S: EfmScalar>(
    red: &ReducedNetwork,
    partition: &Partition,
    subset_id: usize,
    opts: &EfmOptions,
) -> Result<Option<EfmProblem<S>>, EfmError> {
    let idx = &partition.reduced_indices;
    let nonzero: Vec<usize> =
        (0..idx.len()).filter(|i| subset_id >> i & 1 == 1).map(|i| idx[i]).collect();
    let keep: Vec<usize> =
        (0..red.num_reduced()).filter(|c| nonzero.contains(c) || !idx.contains(c)).collect();
    build_subproblem(red, &keep, &nonzero, opts)
}

/// Runs one subproblem of the partition at the pattern width it needs;
/// returns supports in reduced indices plus stats, or `None` when the
/// subset is provably empty.
pub fn run_subset<S: EfmScalar>(
    red: &ReducedNetwork,
    partition: &Partition,
    subset_id: usize,
    opts: &EfmOptions,
    backend: &Backend,
) -> Result<Option<SupportsAndStats>, EfmError> {
    debug_assert!(subset_id < 1usize << partition.reduced_indices.len());
    let Some(problem) = subset_problem::<S>(red, partition, subset_id, opts)? else {
        return Ok(None);
    };
    dispatch_width!(problem.num_cols(), supports(&problem, opts, backend, None, None)).map(Some)
}

/// Human-readable subset pattern, paper-style (overbar = zero flux is
/// rendered here as `=0`).
pub fn subset_pattern(partition: &Partition, subset_id: usize) -> String {
    partition
        .names
        .iter()
        .enumerate()
        .map(|(i, n)| if subset_id >> i & 1 == 1 { format!("{n}≠0") } else { format!("{n}=0") })
        .collect::<Vec<_>>()
        .join(" ")
}
