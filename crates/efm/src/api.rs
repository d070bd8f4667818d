//! High-level entry points: network in, EFM set out.
//!
//! [`enumerate`] is the Algorithm 1 quick start. Everything else goes
//! through one [`Run`]: the backend (Algorithm 1 serially, the rayon pool,
//! or Algorithm 2 on the cluster), an optional divide-and-conquer partition
//! (Algorithm 3), checkpoint/resume, escalation on memory exhaustion and
//! supervision. [`Run::enumerate`] compresses the network once, builds the
//! problem once and picks the pattern width once, whatever path it takes.

use crate::bridge::EfmScalar;
use crate::checkpoint::{CheckpointConfig, EngineCheckpoint};
use crate::cluster_algo::cluster_supports_resumable;
use crate::divide::{Backend, SubsetReport};
use crate::drivers::{local_supports, SupportsAndStats};
use crate::escalate::{escalate, EscalationAttempt};
use crate::problem::{build_problem, EfmProblem};
use crate::schedule::{run_partition, DncConfig};
use crate::supervise::{supervise, SuperviseConfig};
use crate::types::{EfmError, EfmOptions, EfmSet, RunStats};
use efm_bitset::BitPattern;
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
    /// The escalation ladder, one entry per attempt in order, the last one
    /// the success: the failed direct run (`qsub = 0`), then each split.
    /// Empty when [`Run::escalate`] is `None` and when a supervised run
    /// never escalated; an unsupervised run whose direct attempt fits
    /// holds that one successful attempt.
    pub escalation: Vec<EscalationAttempt>,
}

/// Maximum reduced-network size the pattern widths support.
pub const MAX_REDUCED_REACTIONS: usize = 256;

/// Enumerates all EFMs serially with exact integer arithmetic — the
/// default, paper-faithful configuration (Algorithm 1).
pub fn enumerate(net: &MetabolicNetwork, opts: &EfmOptions) -> Result<EfmOutcome, EfmError> {
    Run { opts: opts.clone(), ..Default::default() }.enumerate::<DynInt>(net)
}

/// One enumeration: what to compute and how. Every field but `opts` and
/// `backend` selects an optional layer; [`Run::enumerate`] rejects the
/// combinations that exclude each other with [`EfmError::InvalidRun`].
#[derive(Debug, Clone)]
pub struct Run {
    /// Engine options (ordering, elementarity test, kernel, limits).
    pub opts: EfmOptions,
    /// Which backend runs the enumeration (or each subset of it).
    pub backend: Backend,
    /// Divide-and-conquer partition reactions by original name (the
    /// paper's Algorithm 3 over `2^len` subsets); empty for a direct run.
    pub partition: Vec<String>,
    /// Subset scheduler of partitioned and escalated runs, including their
    /// progress checkpoint and resume.
    pub dnc: DncConfig,
    /// Iteration-boundary snapshot a direct run resumes from.
    pub resume: Option<EngineCheckpoint>,
    /// Where a direct run writes iteration-boundary snapshots.
    pub checkpoint: Option<CheckpointConfig>,
    /// On a memory abort, re-run as divide-and-conquer over suggested
    /// splits of up to `2^k` subsets (direct runs only).
    pub escalate: Option<usize>,
    /// Run the cluster backend under the self-healing supervisor.
    pub supervise: Option<SuperviseConfig>,
}

impl Default for Run {
    fn default() -> Self {
        Run {
            opts: EfmOptions::default(),
            backend: Backend::Serial,
            partition: Vec::new(),
            dnc: DncConfig::default(),
            resume: None,
            checkpoint: None,
            escalate: None,
            supervise: None,
        }
    }
}

/// Supports in reduced-network indices, their statistics and per-subset
/// reports: what every execution path hands back for assembly.
#[derive(Default)]
pub(crate) struct Solved {
    pub sups: Vec<Vec<usize>>,
    pub stats: RunStats,
    pub subsets: Vec<SubsetReport>,
}

impl From<SupportsAndStats> for Solved {
    fn from((sups, stats): SupportsAndStats) -> Self {
        Solved { sups, stats, subsets: Vec::new() }
    }
}

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
pub(crate) use dispatch_width;

impl Run {
    /// Enumerates the EFMs of `net` with scalar `S` (`DynInt` for exact
    /// arithmetic, `F64Tol` for floating point).
    pub fn enumerate<S: EfmScalar>(&self, net: &MetabolicNetwork) -> Result<EfmOutcome, EfmError> {
        self.validate()?;
        let (red, compression) = {
            let _span = efm_obs::span("compress");
            let out = compress_with(net, &self.opts.compression);
            efm_obs::counter_add("lp solves", out.1.lp_solves as u64);
            out
        };
        let mut escalation = Vec::new();
        let solved = if red.num_reduced() == 0 {
            Solved::default()
        } else if self.partition.is_empty() {
            // A direct run's width counts the split twin columns too.
            let problem = {
                let _span = efm_obs::span("build problem");
                build_problem::<S>(&red, &self.opts)?
            };
            dispatch_width!(
                problem.num_cols(),
                run_width(self, net, &red, Some(&problem), &mut escalation)
            )?
        } else {
            dispatch_width!(red.num_reduced(), run_width(self, net, &red, None, &mut escalation))?
        };
        crate::metrics::trace(&solved.stats);
        let mut efms = EfmSet::new(net.reaction_names());
        for sup in &solved.sups {
            efms.push_support(&red.expand_support(sup));
        }
        efms.canonicalize();
        Ok(EfmOutcome {
            efms,
            stats: solved.stats,
            reduced: red,
            compression,
            subsets: solved.subsets,
            escalation,
        })
    }

    fn validate(&self) -> Result<(), EfmError> {
        let partitioned = !self.partition.is_empty();
        let engine_ckpt = self.resume.is_some() || self.checkpoint.is_some();
        let invalid = if self.supervise.is_some() {
            if partitioned || engine_ckpt {
                Some(
                    "supervision manages its own checkpoint and resume; it excludes a \
                     partition, a resume and an engine checkpoint",
                )
            } else if !matches!(self.backend, Backend::Cluster(_)) {
                Some("supervision requires the cluster backend")
            } else {
                None
            }
        } else if self.escalate.is_some() && (partitioned || engine_ckpt) {
            Some("escalation excludes a partition, a checkpoint and a resume")
        } else if partitioned && engine_ckpt {
            Some(
                "a partitioned run checkpoints per subset through `dnc.checkpoint` and \
                 `dnc.resume`, not through an engine checkpoint or resume",
            )
        } else {
            None
        };
        invalid.map_or(Ok(()), |m| Err(EfmError::InvalidRun(m)))
    }
}

/// The run at one pattern width: supervised, partitioned, or direct with
/// optional escalation. `problem` is the full problem of a direct run.
fn run_width<P: BitPattern, S: EfmScalar>(
    run: &Run,
    net: &MetabolicNetwork,
    red: &ReducedNetwork,
    problem: Option<&EfmProblem<S>>,
    escalation: &mut Vec<EscalationAttempt>,
) -> Result<Solved, EfmError> {
    let Some(problem) = problem else {
        return divided::<P, S>(net, red, &run.partition, &run.opts, &run.backend, &run.dnc);
    };
    if let Some(sup) = &run.supervise {
        return supervise::<P, S>(run, sup, net, red, problem, escalation);
    }
    let direct = supports::<P, S>(
        problem,
        &run.opts,
        &run.backend,
        run.resume.as_ref(),
        run.checkpoint.as_ref(),
    );
    match (direct, run.escalate) {
        (Err(e), Some(max_qsub)) if e.is_memory_exceeded() => {
            escalate::<P, S>(net, red, &run.opts, &run.backend, &run.dnc, max_qsub, e, escalation)
        }
        (Ok(out), Some(_)) => {
            escalation.push(EscalationAttempt { qsub: 0, partition: Vec::new(), error: None });
            Ok(out.into())
        }
        (direct, _) => direct.map(Solved::from),
    }
}

/// Runs one problem to completion on `backend`.
pub(crate) fn supports<P: BitPattern, S: EfmScalar>(
    problem: &EfmProblem<S>,
    opts: &EfmOptions,
    backend: &Backend,
    resume: Option<&EngineCheckpoint>,
    ckpt: Option<&CheckpointConfig>,
) -> Result<SupportsAndStats, EfmError> {
    match backend {
        Backend::Serial => local_supports::<P, S>(problem, opts, resume, ckpt, &mut || false),
        Backend::Rayon => local_supports::<P, S>(problem, opts, resume, ckpt, &mut || true),
        Backend::Cluster(cfg) => {
            let o = cluster_supports_resumable::<P, S>(problem, opts, cfg, resume, ckpt)?;
            Ok((o.supports, o.stats))
        }
    }
}

/// Divide-and-conquer over `partition` (Algorithm 3): every subset under
/// `dnc`, statistics summed over the subsets' successful attempts.
pub(crate) fn divided<P: BitPattern, S: EfmScalar>(
    net: &MetabolicNetwork,
    red: &ReducedNetwork,
    partition: &[String],
    opts: &EfmOptions,
    backend: &Backend,
    dnc: &DncConfig,
) -> Result<Solved, EfmError> {
    let (sups, subsets) = run_partition::<P, S>(net, red, partition, opts, backend, dnc)?;
    let mut stats = RunStats::default();
    for s in &subsets {
        stats.accumulate(&s.stats);
    }
    stats.final_modes = sups.len() as u64;
    Ok(Solved { sups, stats, subsets })
}
