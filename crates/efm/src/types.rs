//! Shared public types: options, statistics, results, errors.

use std::collections::BTreeSet;
use std::time::Duration;

/// Row-processing order for the `R(2)` block of the kernel matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowOrdering {
    /// The paper's heuristic: rows sorted by ascending nonzero count, with
    /// rows of reversible reactions processed last (§II.C).
    Paper,
    /// Ascending nonzero count only (no reversibility tie-break).
    FewestNonzeros,
    /// Natural column order (no heuristic) — ablation baseline.
    AsIs,
    /// Deterministic pseudo-random order — ablation worst-ish case.
    Random(u64),
}

/// Elementarity test applied to candidate modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateTest {
    /// The algebraic rank test of the paper (\[18\],\[30\]): the support
    /// submatrix of the stoichiometry matrix must have nullity 1.
    Rank,
    /// The classical combinatorial adjacency (support-superset) test of the
    /// double description method — the ablation alternative.
    Adjacency,
}

/// Which candidate-generation kernel the engine dispatches to.
///
/// Both choices enumerate bit-identical results; only speed differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// The best tier the CPU supports ([`efm_bitset::detect_tier`]: AVX2
    /// where present, scalar otherwise).
    Auto,
    /// Force the portable scalar reference path.
    Scalar,
}

impl Default for KernelKind {
    /// The kernel `EFM_KERNEL` names ([`KernelKind::from_env`], read once
    /// per process; this is how the forced-scalar CI lane pins every
    /// default-options run). An explicit `Auto` ignores the variable.
    ///
    /// # Panics
    ///
    /// If `EFM_KERNEL` holds anything but `auto` or `scalar`: a misspelt
    /// value must not quietly run another kernel. Front ends check
    /// [`KernelKind::from_env`] first to report it as a usage error.
    fn default() -> Self {
        use std::sync::OnceLock;
        static ENV: OnceLock<Result<KernelKind, String>> = OnceLock::new();
        ENV.get_or_init(KernelKind::from_env).clone().unwrap_or_else(|e| panic!("{e}"))
    }
}

impl KernelKind {
    /// Parses the `EFM_KERNEL` environment variable: unset, empty or `auto`
    /// is `Auto`, `scalar` is `Scalar`, and anything else an error naming
    /// the bad value and the valid ones.
    pub fn from_env() -> Result<Self, String> {
        let raw = std::env::var_os("EFM_KERNEL").unwrap_or_default();
        match raw.to_str() {
            Some("") => Ok(KernelKind::Auto),
            Some(v) => v.parse().map_err(|e| format!("EFM_KERNEL: {e}")),
            None => Err(format!("EFM_KERNEL: unknown kernel {raw:?} (expected auto|scalar)")),
        }
    }

    /// The instruction tier the engine will run at.
    pub fn resolve(self) -> efm_bitset::KernelTier {
        match self {
            KernelKind::Auto => efm_bitset::detect_tier(),
            KernelKind::Scalar => efm_bitset::KernelTier::Scalar,
        }
    }
}

impl std::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelKind::Auto => write!(f, "auto"),
            KernelKind::Scalar => write!(f, "scalar"),
        }
    }
}

impl std::str::FromStr for KernelKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(KernelKind::Auto),
            "scalar" => Ok(KernelKind::Scalar),
            other => Err(format!("unknown kernel {other:?} (expected auto|scalar)")),
        }
    }
}

/// Options shared by all algorithm variants.
#[derive(Debug, Clone)]
pub struct EfmOptions {
    /// Row ordering heuristic.
    pub ordering: RowOrdering,
    /// Candidate elementarity test.
    pub test: CandidateTest,
    /// Abort if the intermediate mode count exceeds this (safety valve for
    /// property tests on adversarial networks).
    pub max_modes: Option<usize>,
    /// Force these reactions (by original index) to be the *free* (identity)
    /// part of the kernel. Used by the golden tests that reproduce the
    /// paper's worked example exactly; `None` lets elimination choose.
    pub force_free: Option<Vec<usize>>,
    /// Run rank tests in exact (Bareiss) arithmetic on the stoichiometry's
    /// columns of the support and of the unprocessed rows instead of the
    /// default floating-point elimination the paper prescribes (which the
    /// engine runs on the kernel rows of each candidate's processed zero
    /// set; both decide the same nullity). Exact tests are orders of
    /// magnitude slower on genome-scale submatrices (intermediate integers
    /// grow to hundreds of digits) and exist as the reference for
    /// verification.
    pub exact_rank_test: bool,
    /// Which network-reduction stages run before enumeration (ablation
    /// hook; the default is the paper's full preprocessing).
    pub compression: efm_metnet::CompressionOptions,
    /// Candidate-generation kernel dispatch (`--kernel` on the CLI). Both
    /// choices are bit-identical; `Scalar` exists as the differential
    /// baseline and escape hatch. The default follows `EFM_KERNEL` (see
    /// [`KernelKind::default`]).
    pub kernel: KernelKind,
    /// Resident-byte budget for completed divide-and-conquer survivor
    /// stripes. `Some(b)` compresses each finished subset's supports
    /// (delta/run-length, [`efm_bitset::CompressedPattern`]) and spills
    /// whole stripes to a temporary file once the compressed residents
    /// exceed `b` bytes; assembly streams them back one stripe at a time.
    /// `None` (the default) keeps the legacy uncompressed in-memory lists.
    pub spill_budget: Option<u64>,
    /// Per-rank stripe weights for the cluster backend's candidate-pair
    /// split. `None` (the default) means the uniform `rank·pairs/nodes`
    /// stripes; `Some(w)` (length = node count) splits each iteration's
    /// pair range proportionally to `w`. Set by the failover path so a
    /// survivor inheriting a dead rank's share keeps the work balanced by
    /// the PR 5 cost model, and recorded in cluster checkpoints as stripe
    /// provenance.
    pub stripe_weights: Option<Vec<u64>>,
}

impl Default for EfmOptions {
    fn default() -> Self {
        EfmOptions {
            ordering: RowOrdering::Paper,
            test: CandidateTest::Rank,
            max_modes: None,
            force_free: None,
            exact_rank_test: false,
            compression: efm_metnet::CompressionOptions::default(),
            kernel: KernelKind::default(),
            spill_budget: None,
            stripe_weights: None,
        }
    }
}

/// Statistics for one iteration of the Nullspace Algorithm.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IterationStats {
    /// Position of the processed row within the ordered kernel matrix.
    pub position: usize,
    /// Name of the reduced reaction whose row was processed.
    pub reaction: String,
    /// Whether that reaction is reversible.
    pub reversible: bool,
    /// Modes with positive / negative / zero entry in the processed row.
    pub pos: usize,
    /// Negative-entry modes.
    pub neg: usize,
    /// Zero-entry modes.
    pub zero: usize,
    /// Candidate pairs generated (`pos × neg`) — the paper's "number of
    /// generated intermediate candidate modes".
    pub pairs: u64,
    /// Pairs that reached the numeric combination pass (cheap-bound hits).
    pub numeric_pass: u64,
    /// Candidates surviving the summary (too-many-nonzeros) rejection.
    pub prefiltered: u64,
    /// Candidates surviving duplicate removal and the zero-row scan: those
    /// the rank test eliminates over.
    pub deduped: u64,
    /// Candidates accepted by the elementarity test.
    pub accepted: u64,
    /// Modes alive after the iteration.
    pub modes_after: usize,
    /// Time spent per phase in this iteration (the cross-candidate half
    /// of the adjacency test included in `rank_test`).
    pub phases: PhaseBreakdown,
}

/// Time spent per algorithm phase (the paper's Table II rows).
///
/// Each number is the time spent in the phase summed over one process's
/// threads: a rayon run's workers add up, so a phase can exceed the wall
/// time. For a cluster run each phase is its slowest rank's (the
/// bulk-synchronous model of wall time). Indexed by
/// [`Phase`](crate::Phase), whose table declares the phases.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Candidate generation (pairing + summary rejection).
    pub generate: Duration,
    /// Sorting and duplicate removal (parallel drivers: merging per-chunk
    /// sorted runs — no longer a serial barrier).
    pub dedup: Duration,
    /// The zero-row scan: candidates whose masked support contains a
    /// zero-row mode's are dropped.
    pub tree_filter: Duration,
    /// Rank (or adjacency) tests.
    pub rank_test: Duration,
    /// Inter-node communication (cluster backend only).
    pub communicate: Duration,
    /// Merging exchanged candidate sets (cluster backend only), computing
    /// the survivors' values and advancing to the next mode matrix.
    pub merge: Duration,
}

/// How the supervisor classified an observed failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureClass {
    /// A programming or configuration error no restart can fix.
    Fatal,
    /// A transient infrastructure failure (crash, timeout, lost message) —
    /// a restart from the newest checkpoint can reasonably succeed.
    Retryable,
    /// Memory exhaustion — a restart hits the same wall; the recovery is
    /// divide-and-conquer escalation (a deeper `2^qsub` split).
    Memory,
    /// A single non-coordinator rank died (heartbeat went stale). The
    /// surviving ranks' work is intact, so the recovery is in-place
    /// failover — re-enter the run with N−1 ranks and the dead rank's
    /// stripe redistributed — rather than a full restart.
    RankLost,
}

impl std::fmt::Display for FailureClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureClass::Fatal => write!(f, "fatal"),
            FailureClass::Retryable => write!(f, "retryable"),
            FailureClass::Memory => write!(f, "memory"),
            FailureClass::RankLost => write!(f, "rank lost"),
        }
    }
}

/// What the supervisor did in response to a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Relaunched the run (from a checkpoint when one was valid).
    Restarted,
    /// Rerouted to divide-and-conquer escalation.
    Escalated,
    /// Discarded an unreadable or mismatched checkpoint before retrying.
    DiscardedCheckpoint,
    /// Exhausted the retry budget and surfaced the error.
    GaveUp,
    /// Continued in place with one fewer rank after a rank loss, the dead
    /// rank's stripe redistributed across survivors. Not a restart:
    /// [`RecoveryLog::restarts`] excludes these events.
    FailedOver,
}

impl std::fmt::Display for RecoveryAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryAction::Restarted => write!(f, "restarted"),
            RecoveryAction::Escalated => write!(f, "escalated"),
            RecoveryAction::DiscardedCheckpoint => write!(f, "discarded checkpoint"),
            RecoveryAction::GaveUp => write!(f, "gave up"),
            RecoveryAction::FailedOver => write!(f, "failed over"),
        }
    }
}

/// One failure the supervisor observed and the action it took.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// When the supervisor observed the failure, in microseconds on the
    /// process-wide monotonic clock ([`efm_obs::now_us`]) — the same
    /// timeline trace events are stamped with, so restarts can be lined
    /// up against the phase spans they interrupted.
    pub at_us: u64,
    /// 1-based attempt number that failed.
    pub attempt: u32,
    /// Display form of the observed error.
    pub error: String,
    /// How the failure was classified.
    pub class: FailureClass,
    /// What the supervisor did.
    pub action: RecoveryAction,
    /// Iteration the next attempt resumed from (`None` = fresh start or no
    /// further attempt).
    pub resumed_from: Option<u64>,
}

/// The supervisor's audit trail: every fault observed and action taken, in
/// order. Carried in [`RunStats`] on success and in
/// [`EfmError::RestartsExhausted`] on failure.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryLog {
    /// Events in observation order.
    pub events: Vec<RecoveryEvent>,
}

impl RecoveryLog {
    /// Number of restarts performed (excludes checkpoint discards).
    pub fn restarts(&self) -> u32 {
        self.events.iter().filter(|e| e.action == RecoveryAction::Restarted).count() as u32
    }

    /// Whether any fault was observed.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl std::fmt::Display for RecoveryLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.events.is_empty() {
            return write!(f, "no faults observed");
        }
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(
                f,
                "[{:>10.3}s] attempt {}: [{}] {} -> {}",
                e.at_us as f64 / 1e6,
                e.attempt,
                e.class,
                e.error,
                e.action
            )?;
            if let Some(it) = e.resumed_from {
                write!(f, " (resumed from iteration {it})")?;
            }
        }
        Ok(())
    }
}

/// Statistics of a whole run. Its scalar counters are declared in
/// [`COUNTERS`](crate::COUNTERS), its phases in [`Phase`](crate::Phase).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Per-iteration records, in processing order.
    pub iterations: Vec<IterationStats>,
    /// Total candidate pairs generated across all iterations.
    pub candidates_generated: u64,
    /// Candidate pairs eliminated by the bit-pattern prefilter (summary
    /// rejection) before any numeric work.
    pub tree_pruned: u64,
    /// Candidates removed before the elementarity test: duplicates within
    /// a batch (sort+dedup) and those the zero-row scan drops.
    pub dedup_hits: u64,
    /// Candidates submitted to the elementarity test (rank or adjacency).
    pub rank_tests: u64,
    /// Messages exchanged between cluster ranks (`0` off-cluster).
    pub comm_messages: u64,
    /// Payload bytes exchanged between cluster ranks (`0` off-cluster).
    /// Unlike the modeled estimates in the bench tables, this is summed
    /// from the actual buffers handed to the collectives.
    pub comm_bytes: u64,
    /// Peak number of intermediate modes.
    pub peak_modes: u64,
    /// Peak accounted memory in bytes, maximised over cluster ranks. It
    /// *includes* the bounded transient generation buffer — resident modes
    /// plus the charged batch-pipeline high water (DESIGN.md §13).
    pub peak_bytes: u64,
    /// Peak bytes of the *transient* generation buffer (accumulated
    /// survivors + in-flight batch + arena), maximised over ranks — the
    /// part of `peak_bytes` the streaming pipeline bounds, kept as its own
    /// gauge.
    pub peak_transient_bytes: u64,
    /// Bounded batches the streaming generation pipeline processed.
    pub stream_batches: u64,
    /// Cumulative bytes of survivor stripes written to spill storage by
    /// the stripe store (`0` when spilling never engaged).
    pub spill_bytes: u64,
    /// Final mode count.
    pub final_modes: u64,
    /// Instruction tier the generation kernel ran at (`"scalar"` or
    /// `"avx2"`; empty for stats that never ran an engine).
    /// A restored engine re-resolves it live. One engine runs exactly one
    /// tier, so together with `kernel_pruned` this gives the per-tier
    /// pruning attribution.
    pub kernel_tier: String,
    /// Cache blocks the blocked generation kernel processed.
    pub kernel_blocks: u64,
    /// Pairs rejected by the vectorized prefilter bound (before the
    /// numeric combination pass) at `kernel_tier`.
    pub kernel_pruned: u64,
    /// Peak resident bytes of the generation arenas, maximised over
    /// workers/ranks.
    pub arena_peak_bytes: u64,
    /// Phase time breakdown.
    pub phases: PhaseBreakdown,
    /// Total wall time of the enumeration core.
    pub total_time: Duration,
    /// In-place failovers performed (rank lost, survivors continued with
    /// the dead rank's stripe redistributed). `0` for runs without
    /// `--failover` or without rank deaths.
    pub failovers: u64,
    /// Ranks declared dead over the run's lifetime. Usually equals
    /// `failovers`; differs when a loss fell back to the restart ladder.
    pub ranks_lost: u64,
    /// Faults observed and recovery actions taken by the supervisor
    /// (empty for unsupervised or fault-free runs).
    pub recovery: RecoveryLog,
}

/// A set of elementary flux modes over a fixed reaction universe, stored as
/// packed support bit patterns (the paper's "bit-valued matrix of
/// elementary modes").
#[derive(Debug, Clone)]
pub struct EfmSet {
    /// Number of reactions in the universe (bits per mode).
    num_reactions: usize,
    /// Reaction names, indexed by bit position.
    reaction_names: Vec<String>,
    words: usize,
    bits: Vec<u64>,
}

impl EfmSet {
    /// Creates an empty set over `reaction_names`.
    pub fn new(reaction_names: Vec<String>) -> Self {
        let num_reactions = reaction_names.len();
        let words = num_reactions.div_ceil(64).max(1);
        EfmSet { num_reactions, reaction_names, words, bits: Vec::new() }
    }

    /// Number of reactions in the universe.
    pub fn num_reactions(&self) -> usize {
        self.num_reactions
    }

    /// Reaction names.
    pub fn reaction_names(&self) -> &[String] {
        &self.reaction_names
    }

    /// Number of modes.
    pub fn len(&self) -> usize {
        self.bits.len() / self.words
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Appends a mode given by its support (reaction indices).
    pub fn push_support(&mut self, support: &[usize]) {
        let base = self.bits.len();
        self.bits.resize(base + self.words, 0);
        for &r in support {
            assert!(r < self.num_reactions, "support index out of range");
            self.bits[base + r / 64] |= 1u64 << (r % 64);
        }
    }

    /// The support of mode `i`, ascending.
    pub fn support(&self, i: usize) -> Vec<usize> {
        let base = i * self.words;
        let mut out = Vec::new();
        for w in 0..self.words {
            let mut word = self.bits[base + w];
            while word != 0 {
                let b = word.trailing_zeros() as usize;
                out.push(w * 64 + b);
                word &= word - 1;
            }
        }
        out
    }

    /// Whether mode `i` uses reaction `r`.
    pub fn uses(&self, i: usize, r: usize) -> bool {
        (self.bits[i * self.words + r / 64] >> (r % 64)) & 1 == 1
    }

    /// Merges another set over the same universe into this one.
    pub fn extend_from(&mut self, other: &EfmSet) {
        assert_eq!(self.num_reactions, other.num_reactions, "universe mismatch");
        self.bits.extend_from_slice(&other.bits);
    }

    /// Sorts modes by their packed representation and removes duplicates.
    pub fn canonicalize(&mut self) {
        let words = self.words;
        let n = self.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by(|&a, &b| {
            self.bits[a * words..(a + 1) * words].cmp(&self.bits[b * words..(b + 1) * words])
        });
        order.dedup_by(|&mut a, &mut b| {
            self.bits[a * words..(a + 1) * words] == self.bits[b * words..(b + 1) * words]
        });
        let mut new_bits = Vec::with_capacity(order.len() * words);
        for &i in &order {
            new_bits.extend_from_slice(&self.bits[i * words..(i + 1) * words]);
        }
        self.bits = new_bits;
    }

    /// The supports as a set-of-sets (order independent) for comparisons.
    pub fn as_support_sets(&self) -> BTreeSet<Vec<usize>> {
        (0..self.len()).map(|i| self.support(i)).collect()
    }

    /// Iterates over the supports in storage order.
    pub fn iter(&self) -> impl Iterator<Item = Vec<usize>> + '_ {
        (0..self.len()).map(|i| self.support(i))
    }

    /// The raw packed support words (serialization backend).
    pub fn raw_words(&self) -> &[u64] {
        &self.bits
    }

    /// Rebuilds a set from raw packed words (serialization backend).
    /// Fails when the word count is not a multiple of the per-mode width.
    pub fn from_raw_words(reaction_names: Vec<String>, bits: Vec<u64>) -> Result<Self, String> {
        let num_reactions = reaction_names.len();
        let words = num_reactions.div_ceil(64).max(1);
        if !bits.len().is_multiple_of(words) {
            return Err(format!(
                "{} words is not a multiple of the {}-word mode width",
                bits.len(),
                words
            ));
        }
        Ok(EfmSet { num_reactions, reaction_names, words, bits })
    }
}

impl PartialEq for EfmSet {
    fn eq(&self, other: &Self) -> bool {
        self.num_reactions == other.num_reactions
            && self.as_support_sets() == other.as_support_sets()
    }
}

/// Errors of the EFM pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum EfmError {
    /// The (reduced) network has more reactions than the widest supported
    /// bit pattern.
    TooManyReactions {
        /// Reduced reaction count.
        got: usize,
        /// Supported maximum.
        max: usize,
    },
    /// A divide-and-conquer partition reaction is unknown.
    UnknownReaction(String),
    /// A partition reaction was removed (blocked) by compression.
    PartitionBlocked(String),
    /// A partition reaction is irreversible in the reduced network; the
    /// paper's scheme partitions on reversible reactions only.
    PartitionIrreversible(String),
    /// A partition reaction could not be made a pivot (dependent) column,
    /// so it cannot be ordered last (Proposition 1 does not apply).
    PartitionNotPivotal(String),
    /// Two partition reactions collapsed into the same reduced reaction.
    PartitionCollision(String, String),
    /// The intermediate mode count exceeded `EfmOptions::max_modes`.
    ModeLimitExceeded {
        /// The limit that was exceeded.
        limit: usize,
        /// Iteration position at which it happened.
        at_iteration: usize,
    },
    /// The simulated cluster failed (memory exhaustion, node panic).
    Cluster(efm_cluster::ClusterError),
    /// A checkpoint file could not be read, or does not match the problem
    /// being resumed.
    Checkpoint(String),
    /// A snapshot could not be written. Saves are atomic, so the previous
    /// snapshot on disk is intact.
    CheckpointWrite(String),
    /// The supervisor exhausted its restart budget; carries the last
    /// failure and the full recovery log.
    RestartsExhausted {
        /// The configured restart budget.
        max_restarts: u32,
        /// The failure that ended the run.
        last: Box<EfmError>,
        /// Every fault observed and action taken.
        log: RecoveryLog,
    },
    /// A [`Run`](crate::Run) combines settings that exclude each other
    /// (for example supervision with a partition); nothing was computed.
    InvalidRun(&'static str),
    /// Every attempt of the escalation ladder ran out of memory; carries
    /// the deepest attempt's memory error and every attempt in order.
    EscalationExhausted {
        /// The memory error of the deepest attempt.
        last: Box<EfmError>,
        /// The ladder, the unsplit attempt first.
        attempts: Vec<crate::EscalationAttempt>,
    },
}

impl EfmError {
    /// Whether this is a memory abort, directly or as the last error of an
    /// exhausted escalation ladder: the one failure a split can fix.
    pub fn is_memory_exceeded(&self) -> bool {
        match self {
            EfmError::Cluster(ce) => ce.is_memory_exceeded(),
            EfmError::EscalationExhausted { last, .. } => last.is_memory_exceeded(),
            _ => false,
        }
    }
}

impl std::fmt::Display for EfmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EfmError::TooManyReactions { got, max } => {
                write!(f, "reduced network has {got} reactions; at most {max} supported")
            }
            EfmError::UnknownReaction(n) => write!(f, "unknown partition reaction {n}"),
            EfmError::PartitionBlocked(n) => {
                write!(f, "partition reaction {n} is blocked (removed by compression)")
            }
            EfmError::PartitionIrreversible(n) => {
                write!(f, "partition reaction {n} is irreversible in the reduced network")
            }
            EfmError::PartitionNotPivotal(n) => {
                write!(f, "partition reaction {n} cannot be ordered last in the kernel")
            }
            EfmError::PartitionCollision(a, b) => {
                write!(f, "partition reactions {a} and {b} merged into one reduced reaction")
            }
            EfmError::ModeLimitExceeded { limit, at_iteration } => {
                write!(f, "mode limit {limit} exceeded at iteration {at_iteration}")
            }
            EfmError::Cluster(e) => write!(f, "cluster failure: {e}"),
            EfmError::Checkpoint(m) | EfmError::CheckpointWrite(m) => {
                write!(f, "checkpoint error: {m}")
            }
            EfmError::RestartsExhausted { max_restarts, last, log } => {
                write!(f, "supervisor exhausted {max_restarts} restarts; last error: {last}; recovery log:\n{log}")
            }
            EfmError::InvalidRun(m) => write!(f, "invalid run: {m}"),
            EfmError::EscalationExhausted { last, attempts } => {
                let qsub = attempts.last().map_or(0, |a| a.qsub);
                write!(f, "escalation exhausted at qsub {qsub}: {last}")
            }
        }
    }
}

impl std::error::Error for EfmError {}

impl From<efm_cluster::ClusterError> for EfmError {
    fn from(e: efm_cluster::ClusterError) -> Self {
        EfmError::Cluster(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("r{i}")).collect()
    }

    #[test]
    fn efmset_push_and_support() {
        let mut s = EfmSet::new(names(70));
        s.push_support(&[0, 63, 64, 69]);
        s.push_support(&[5]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.support(0), vec![0, 63, 64, 69]);
        assert_eq!(s.support(1), vec![5]);
        assert!(s.uses(0, 64));
        assert!(!s.uses(1, 0));
    }

    #[test]
    fn efmset_canonicalize_dedups() {
        let mut s = EfmSet::new(names(10));
        s.push_support(&[1, 2]);
        s.push_support(&[0]);
        s.push_support(&[1, 2]);
        s.canonicalize();
        assert_eq!(s.len(), 2);
        assert_eq!(s.as_support_sets().len(), 2);
    }

    #[test]
    fn efmset_equality_is_order_independent() {
        let mut a = EfmSet::new(names(8));
        a.push_support(&[1]);
        a.push_support(&[2, 3]);
        let mut b = EfmSet::new(names(8));
        b.push_support(&[2, 3]);
        b.push_support(&[1]);
        assert_eq!(a, b);
        b.push_support(&[4]);
        assert_ne!(a, b);
    }

    #[test]
    fn efmset_extend() {
        let mut a = EfmSet::new(names(6));
        a.push_support(&[0]);
        let mut b = EfmSet::new(names(6));
        b.push_support(&[1]);
        a.extend_from(&b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn errors_display() {
        let e = EfmError::PartitionIrreversible("R5".into());
        assert!(e.to_string().contains("R5"));
    }
}
