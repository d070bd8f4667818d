//! High-level entry points: network in, EFM set out.

use crate::bridge::EfmScalar;
use crate::checkpoint::{CheckpointConfig, EngineCheckpoint};
use crate::cluster_algo::cluster_supports_resumable;
use crate::divide::{divide_conquer_supports_with, Backend, SubsetReport};
use crate::drivers::{rayon_supports_resumable, serial_supports_resumable, SupportsAndStats};
use crate::problem::build_problem;
use crate::schedule::DncConfig;
use crate::types::{EfmError, EfmOptions, EfmSet, RunStats};
use efm_metnet::{compress_with, CompressionStats, MetabolicNetwork, ReducedNetwork};
use efm_numeric::DynInt;

/// Result of a full enumeration.
#[derive(Debug, Clone)]
pub struct EfmOutcome {
    /// The elementary flux modes, as supports over the original reactions.
    pub efms: EfmSet,
    /// Enumeration statistics.
    pub stats: RunStats,
    /// The compressed network used internally.
    pub reduced: ReducedNetwork,
    /// What compression did.
    pub compression: CompressionStats,
    /// Per-subset reports (divide-and-conquer runs only).
    pub subsets: Vec<SubsetReport>,
}

/// Maximum reduced-network size the pattern widths support.
pub const MAX_REDUCED_REACTIONS: usize = 256;

/// Dispatches a generic runner over the pattern width needed for `q` bits.
/// The scalar type `S` is taken from the expansion site.
macro_rules! dispatch_width {
    ($q:expr, $run:ident ( $($arg:expr),* $(,)? )) => {{
        let q = $q;
        if q <= 64 {
            $run::<efm_bitset::Pattern1, S>($($arg),*)
        } else if q <= 128 {
            $run::<efm_bitset::Pattern2, S>($($arg),*)
        } else if q <= 256 {
            $run::<efm_bitset::Pattern4, S>($($arg),*)
        } else {
            Err(EfmError::TooManyReactions { got: q, max: MAX_REDUCED_REACTIONS })
        }
    }};
}

fn assemble(
    net: &MetabolicNetwork,
    red: &ReducedNetwork,
    comp: CompressionStats,
    supports_reduced: Vec<Vec<usize>>,
    stats: RunStats,
    subsets: Vec<SubsetReport>,
) -> EfmOutcome {
    let mut efms = EfmSet::new(net.reaction_names());
    for sup in &supports_reduced {
        efms.push_support(&red.expand_support(sup));
    }
    efms.canonicalize();
    EfmOutcome { efms, stats, reduced: red.clone(), compression: comp, subsets }
}

/// Enumerates all EFMs with the chosen scalar and backend.
pub fn enumerate_with_scalar<S: EfmScalar>(
    net: &MetabolicNetwork,
    opts: &EfmOptions,
    backend: &Backend,
) -> Result<EfmOutcome, EfmError> {
    enumerate_resumable_with_scalar::<S>(net, opts, backend, None, None)
}

/// Enumerates all EFMs with optional checkpoint/resume: `resume` replays a
/// previously captured iteration-boundary snapshot (validated against the
/// problem before any work starts), `checkpoint` makes the run snapshot its
/// state after iterations so a later abort loses at most one iteration.
pub fn enumerate_resumable_with_scalar<S: EfmScalar>(
    net: &MetabolicNetwork,
    opts: &EfmOptions,
    backend: &Backend,
    resume: Option<&EngineCheckpoint>,
    checkpoint: Option<&CheckpointConfig>,
) -> Result<EfmOutcome, EfmError> {
    let (red, comp) = compress_with(net, &opts.compression);
    if red.num_reduced() == 0 {
        return Ok(assemble(net, &red, comp, Vec::new(), RunStats::default(), Vec::new()));
    }
    let problem = build_problem::<S>(&red, opts)?;
    let q = problem.num_cols();
    let (sups, stats): SupportsAndStats = match backend {
        Backend::Serial => {
            dispatch_width!(q, serial_supports_resumable(&problem, opts, resume, checkpoint))?
        }
        Backend::Rayon => {
            dispatch_width!(q, rayon_supports_resumable(&problem, opts, resume, checkpoint))?
        }
        Backend::Cluster(cfg) => {
            fn run_cluster_backend<P: efm_bitset::BitPattern, S: EfmScalar>(
                problem: &crate::problem::EfmProblem<S>,
                opts: &EfmOptions,
                cfg: &efm_cluster::ClusterConfig,
                resume: Option<&EngineCheckpoint>,
                checkpoint: Option<&CheckpointConfig>,
            ) -> Result<SupportsAndStats, EfmError> {
                let o = cluster_supports_resumable::<P, S>(problem, opts, cfg, resume, checkpoint)?;
                Ok((o.supports, o.stats))
            }
            dispatch_width!(q, run_cluster_backend(&problem, opts, cfg, resume, checkpoint))?
        }
    };
    Ok(assemble(net, &red, comp, sups, stats, Vec::new()))
}

/// Enumerates all EFMs serially with exact integer arithmetic — the
/// default, paper-faithful configuration (Algorithm 1).
pub fn enumerate(net: &MetabolicNetwork, opts: &EfmOptions) -> Result<EfmOutcome, EfmError> {
    enumerate_with_scalar::<DynInt>(net, opts, &Backend::Serial)
}

/// Enumerates all EFMs with a chosen backend and exact integer arithmetic.
pub fn enumerate_with(
    net: &MetabolicNetwork,
    opts: &EfmOptions,
    backend: &Backend,
) -> Result<EfmOutcome, EfmError> {
    enumerate_with_scalar::<DynInt>(net, opts, backend)
}

/// Divide-and-conquer enumeration (the paper's Algorithm 3) with exact
/// integer arithmetic: the EFM set is partitioned across `partition_names`
/// into `2^qsub` independent subproblems, each run on `backend`.
pub fn enumerate_divide_conquer(
    net: &MetabolicNetwork,
    opts: &EfmOptions,
    partition_names: &[&str],
    backend: &Backend,
) -> Result<EfmOutcome, EfmError> {
    enumerate_divide_conquer_with_scalar::<DynInt>(net, opts, partition_names, backend)
}

/// Divide-and-conquer enumeration generic over the scalar.
pub fn enumerate_divide_conquer_with_scalar<S: EfmScalar>(
    net: &MetabolicNetwork,
    opts: &EfmOptions,
    partition_names: &[&str],
    backend: &Backend,
) -> Result<EfmOutcome, EfmError> {
    enumerate_divide_conquer_scheduled_with_scalar::<S>(
        net,
        opts,
        partition_names,
        backend,
        &DncConfig::default(),
    )
}

/// Divide-and-conquer enumeration under an explicit subset-scheduler
/// configuration, with exact integer arithmetic.
pub fn enumerate_divide_conquer_scheduled(
    net: &MetabolicNetwork,
    opts: &EfmOptions,
    partition_names: &[&str],
    backend: &Backend,
    dnc: &DncConfig,
) -> Result<EfmOutcome, EfmError> {
    enumerate_divide_conquer_scheduled_with_scalar::<DynInt>(
        net,
        opts,
        partition_names,
        backend,
        dnc,
    )
}

/// Divide-and-conquer enumeration under an explicit subset-scheduler
/// configuration ([`DncConfig`]: subset order and concurrency, per-subset
/// restart budget, progress checkpointing and resume), generic
/// over the scalar. Every schedule yields the identical EFM set; reports
/// come back in subset-id order, each carrying only its successful
/// attempt's statistics, so the aggregation below never double-counts
/// concurrent or retried work.
pub fn enumerate_divide_conquer_scheduled_with_scalar<S: EfmScalar>(
    net: &MetabolicNetwork,
    opts: &EfmOptions,
    partition_names: &[&str],
    backend: &Backend,
    dnc: &DncConfig,
) -> Result<EfmOutcome, EfmError> {
    let (red, comp) = compress_with(net, &opts.compression);
    if red.num_reduced() == 0 {
        return Ok(assemble(net, &red, comp, Vec::new(), RunStats::default(), Vec::new()));
    }
    let q = red.num_reduced();
    fn run_dc<P: efm_bitset::BitPattern, S: EfmScalar>(
        net: &MetabolicNetwork,
        red: &ReducedNetwork,
        partition_names: &[&str],
        opts: &EfmOptions,
        backend: &Backend,
        dnc: &DncConfig,
    ) -> Result<(Vec<Vec<usize>>, Vec<SubsetReport>), EfmError> {
        divide_conquer_supports_with::<P, S>(net, red, partition_names, opts, backend, dnc)
    }
    let (sups, subsets) =
        dispatch_width!(q, run_dc(net, &red, partition_names, opts, backend, dnc))?;
    let mut stats = RunStats::default();
    for s in &subsets {
        stats.accumulate(&s.stats);
    }
    stats.final_modes = sups.len();
    Ok(assemble(net, &red, comp, sups, stats, subsets))
}
