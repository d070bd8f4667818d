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
    /// The algebraic rank test of the paper ([18],[30]): the support
    /// submatrix of the stoichiometry matrix must have nullity 1.
    Rank,
    /// The classical combinatorial adjacency (support-superset) test of the
    /// double description method — the ablation alternative.
    Adjacency,
}

/// Which candidate-generation kernel the engine dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelKind {
    /// Pick the best tier the CPU supports (honours the `EFM_KERNEL`
    /// environment variable, so differential CI lanes can force a tier
    /// without plumbing options through every harness).
    #[default]
    Auto,
    /// Force the portable scalar reference path.
    Scalar,
    /// Use the best vectorized tier available (SSE2/AVX2); degrades to
    /// scalar on CPUs without vector support.
    Simd,
}

impl KernelKind {
    /// Resolves to the instruction tier the engine will run at. `Auto`
    /// consults `EFM_KERNEL` (`auto`/`scalar`/`simd`, read once per
    /// process) and then runtime CPU detection; all tiers produce
    /// bit-identical results, so this only affects speed.
    pub fn resolve(self) -> efm_bitset::KernelTier {
        use std::sync::OnceLock;
        static ENV: OnceLock<Option<KernelKind>> = OnceLock::new();
        let kind = match self {
            KernelKind::Auto => *ENV
                .get_or_init(|| std::env::var("EFM_KERNEL").ok().and_then(|v| v.parse().ok()))
                .as_ref()
                .unwrap_or(&KernelKind::Auto),
            other => other,
        };
        match kind {
            KernelKind::Scalar => efm_bitset::KernelTier::Scalar,
            _ => efm_bitset::detect_tier(),
        }
    }
}

impl std::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelKind::Auto => write!(f, "auto"),
            KernelKind::Scalar => write!(f, "scalar"),
            KernelKind::Simd => write!(f, "simd"),
        }
    }
}

impl std::str::FromStr for KernelKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(KernelKind::Auto),
            "scalar" => Ok(KernelKind::Scalar),
            "simd" => Ok(KernelKind::Simd),
            other => Err(format!("unknown kernel {other:?} (expected auto|scalar|simd)")),
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
    /// Run rank tests in exact (Bareiss) arithmetic on the support columns
    /// of the stoichiometry instead of the default floating-point
    /// elimination the paper prescribes (which the engine runs on the
    /// kernel rows of each candidate's zero set; both decide the same
    /// nullity). Exact tests are orders of magnitude slower on
    /// genome-scale submatrices (intermediate integers grow to hundreds of
    /// digits) and exist as the reference for verification.
    pub exact_rank_test: bool,
    /// Which network-reduction stages run before enumeration (ablation
    /// hook; the default is the paper's full preprocessing).
    pub compression: efm_metnet::CompressionOptions,
    /// Candidate-generation kernel dispatch (`--kernel` on the CLI). All
    /// choices are bit-identical; `Scalar` exists as the differential
    /// baseline and escape hatch.
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
            kernel: KernelKind::Auto,
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
    /// Candidates surviving duplicate removal.
    pub deduped: u64,
    /// Candidates accepted by the elementarity test.
    pub accepted: u64,
    /// Modes alive after the iteration.
    pub modes_after: usize,
    /// Wall time of candidate generation.
    pub t_generate: std::time::Duration,
    /// Wall time of duplicate removal: `t_merge + t_tree_filter`.
    pub t_dedup: std::time::Duration,
    /// Wall time of the per-batch sort + dedup and of merging the sorted
    /// survivor runs.
    pub t_merge: std::time::Duration,
    /// Wall time of the duplicate drop against zero-row modes.
    pub t_tree_filter: std::time::Duration,
    /// Wall time of the elementarity test (per batch for the rank test,
    /// on the merged survivors for the adjacency test).
    pub t_test: std::time::Duration,
}

/// Wall-clock time spent per algorithm phase (the paper's Table II rows).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Candidate generation (pairing + summary rejection).
    pub generate: Duration,
    /// Sorting and duplicate removal (parallel drivers: merging per-chunk
    /// sorted runs — no longer a serial barrier).
    pub dedup: Duration,
    /// Duplicate drop against zero-row modes.
    pub tree_filter: Duration,
    /// Rank (or adjacency) tests.
    pub rank_test: Duration,
    /// Inter-node communication (cluster backend only).
    pub communicate: Duration,
    /// Merging exchanged candidate sets (cluster backend only).
    pub merge: Duration,
}

impl PhaseBreakdown {
    /// Sum of all phases.
    pub fn total(&self) -> Duration {
        self.generate
            + self.dedup
            + self.tree_filter
            + self.rank_test
            + self.communicate
            + self.merge
    }

    /// Element-wise accumulation.
    pub fn accumulate(&mut self, other: &PhaseBreakdown) {
        self.generate += other.generate;
        self.dedup += other.dedup;
        self.tree_filter += other.tree_filter;
        self.rank_test += other.rank_test;
        self.communicate += other.communicate;
        self.merge += other.merge;
    }
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

/// Statistics of a whole run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Per-iteration records, in processing order.
    pub iterations: Vec<IterationStats>,
    /// Total candidate pairs generated across all iterations.
    pub candidates_generated: u64,
    /// Candidate pairs eliminated by the bit-pattern prefilter (summary
    /// rejection) before any numeric work.
    pub tree_pruned: u64,
    /// Duplicate candidates removed, both within a batch (sort+dedup) and
    /// by the duplicate drop against zero-row modes.
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
    pub peak_modes: usize,
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
    pub final_modes: usize,
    /// Instruction tier the generation kernel ran at (`"scalar"`,
    /// `"sse2"` or `"avx2"`; empty for stats that never ran an engine).
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
    pub failovers: u32,
    /// Ranks declared dead over the run's lifetime. Usually equals
    /// `failovers`; differs when a loss fell back to the restart ladder.
    pub ranks_lost: u32,
    /// Faults observed and recovery actions taken by the supervisor
    /// (empty for unsupervised or fault-free runs).
    pub recovery: RecoveryLog,
}

impl RunStats {
    /// Accumulates another run's statistics (used by divide-and-conquer to
    /// report cumulative numbers across subproblems).
    pub fn accumulate(&mut self, other: &RunStats) {
        self.candidates_generated += other.candidates_generated;
        self.tree_pruned += other.tree_pruned;
        self.dedup_hits += other.dedup_hits;
        self.rank_tests += other.rank_tests;
        self.comm_messages += other.comm_messages;
        self.comm_bytes += other.comm_bytes;
        self.peak_modes = self.peak_modes.max(other.peak_modes);
        self.peak_bytes = self.peak_bytes.max(other.peak_bytes);
        self.peak_transient_bytes = self.peak_transient_bytes.max(other.peak_transient_bytes);
        if self.kernel_tier.is_empty() {
            self.kernel_tier = other.kernel_tier.clone();
        }
        self.kernel_blocks += other.kernel_blocks;
        self.kernel_pruned += other.kernel_pruned;
        self.arena_peak_bytes = self.arena_peak_bytes.max(other.arena_peak_bytes);
        self.stream_batches += other.stream_batches;
        self.spill_bytes += other.spill_bytes;
        self.failovers += other.failovers;
        self.ranks_lost += other.ranks_lost;
        self.final_modes += other.final_modes;
        self.phases.accumulate(&other.phases);
        self.total_time += other.total_time;
        self.recovery.events.extend(other.recovery.events.iter().cloned());
    }
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
    /// A checkpoint file could not be written, read, or does not match the
    /// problem being resumed.
    Checkpoint(String),
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
            EfmError::Checkpoint(m) => write!(f, "checkpoint error: {m}"),
            EfmError::RestartsExhausted { max_restarts, last, log } => {
                write!(f, "supervisor exhausted {max_restarts} restarts; last error: {last}; recovery log:\n{log}")
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
    fn phase_breakdown_totals() {
        let mut p = PhaseBreakdown {
            generate: Duration::from_millis(10),
            rank_test: Duration::from_millis(5),
            ..Default::default()
        };
        let q = PhaseBreakdown { merge: Duration::from_millis(1), ..Default::default() };
        p.accumulate(&q);
        assert_eq!(p.total(), Duration::from_millis(16));
    }

    #[test]
    fn runstats_accumulate() {
        let mut a = RunStats {
            candidates_generated: 10,
            peak_modes: 5,
            final_modes: 2,
            ..Default::default()
        };
        let b = RunStats {
            candidates_generated: 7,
            peak_modes: 9,
            final_modes: 3,
            ..Default::default()
        };
        a.accumulate(&b);
        assert_eq!(a.candidates_generated, 17);
        assert_eq!(a.peak_modes, 9);
        assert_eq!(a.final_modes, 5);
    }

    #[test]
    fn errors_display() {
        let e = EfmError::PartitionIrreversible("R5".into());
        assert!(e.to_string().contains("R5"));
    }
}
