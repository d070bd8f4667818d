//! The iteration engine of the Nullspace Algorithm.
//!
//! State is a *binary-plus-numeric* representation of each intermediate
//! mode, following the structure of the paper's Fig. 2 columns:
//!
//! * a **bit pattern** over the rows whose sign can never change again —
//!   the identity block and every processed *irreversible* row (all live
//!   modes are nonnegative there and positive combinations cannot cancel);
//! * exact **numeric values** for the processed *reversible* rows (kept
//!   negative columns make cancellation possible there, so bits would
//!   overstate supports) and for the unprocessed tail rows.
//!
//! One iteration (Algorithm 1, loop body):
//!
//! 1. partition modes by the sign of the current row's value;
//! 2. pair every positive with every negative mode — `|pos|·|neg|` is the
//!    paper's "generated candidate modes" count;
//! 3. summary rejection: a candidate whose support exceeds `m+1` entries,
//!    or whose support on the identity block and the processed rows
//!    exceeds `cursor − d + 2`, cannot have nullity 1;
//! 4. sort + remove duplicate candidates (by support), then the zero-row
//!    scan: drop a candidate whose masked support contains a zero-row
//!    mode's;
//! 5. elementarity test over the processed positions (algebraic rank
//!    test, or the combinatorial support-minimality test);
//! 6. advance: keep zero and positive modes, keep negative modes only for
//!    reversible rows, append accepted candidates.
//!
//! The engine is driver-agnostic: candidate generation takes an explicit
//! pair-index range, so the serial driver passes the full grid, the rayon
//! driver splits it into chunks, and the cluster driver stripes it across
//! ranks exactly like the paper's combinatorial parallelization. Each
//! driver is a closure handed to `Engine::iterate`, which runs steps 5–6
//! on the merged survivors for all of them.

use crate::bridge::EfmScalar;
use crate::metrics::Phase;
use crate::problem::EfmProblem;
use crate::types::{CandidateTest, EfmError, EfmOptions, IterationStats, PhaseBreakdown, RunStats};
use efm_bitset::{BitPattern, KernelTier, PairBound};
use efm_linalg::{nullity_of_cols, Mat};
use std::collections::HashMap;
use std::ops::ControlFlow;

/// Absolute pivot tolerance of the floating-point rank test, which
/// eliminates over rows of the kernel `K = [I; R]` whose columns are
/// scaled to max |entry| 1 first.
pub const RANK_TOL: f64 = 1e-9;

/// Pairs per batch of the streaming pipeline ([`Engine::stream_range`]):
/// small enough to bound the transient buffer, large enough that the
/// per-batch sorted merge stays cheap.
pub(crate) const STREAM_BATCH_PAIRS: u64 = 1 << 16;

use efm_numeric::Scalar;

/// Struct-of-arrays storage for intermediate modes.
///
/// Each mode owns `rev_len + tail_len` numeric values: first the processed
/// reversible rows (in processing order), then the unprocessed rows (in
/// position order). The value of the *current* row is `vals[rev_len]`.
#[derive(Debug, Clone, Default)]
pub struct ModeMatrix<P, S> {
    /// Bit patterns over identity + processed irreversible rows.
    pub patterns: Vec<P>,
    /// Numeric sections, flattened with stride `rev_len + tail_len`.
    pub vals: Vec<S>,
    /// Number of processed reversible rows.
    pub rev_len: usize,
    /// Number of unprocessed rows.
    pub tail_len: usize,
}

impl<P: BitPattern, S: Scalar> ModeMatrix<P, S> {
    /// Values per mode.
    #[inline]
    pub fn stride(&self) -> usize {
        self.rev_len + self.tail_len
    }

    /// Number of modes.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Whether there are no modes.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// The numeric section of mode `i`.
    #[inline]
    pub fn vals(&self, i: usize) -> &[S] {
        let s = self.stride();
        &self.vals[i * s..(i + 1) * s]
    }

    /// Approximate resident bytes (for the cluster memory meter).
    pub fn approx_bytes(&self) -> u64 {
        (self.patterns.len() * std::mem::size_of::<P>()
            + self.vals.len() * std::mem::size_of::<S>()) as u64
    }
}

/// The materialized survivors of one iteration, struct-of-arrays: what
/// [`Engine::advance`] appends to the mode matrix.
#[derive(Debug, Clone)]
pub(crate) struct CandidateBuf<P, S> {
    /// Pattern over fixed rows (union of the parents').
    patterns: Vec<P>,
    /// Numeric sections, flattened with stride `stride`.
    vals: Vec<S>,
    /// Values per candidate.
    stride: usize,
}

impl<P: BitPattern, S: Scalar> CandidateBuf<P, S> {
    /// Approximate resident bytes.
    pub(crate) fn approx_bytes(&self) -> u64 {
        (self.patterns.len() * std::mem::size_of::<P>()
            + self.vals.len() * std::mem::size_of::<S>()) as u64
    }
}

/// Whether `keep` is a strictly ascending index list (the shape every
/// filter pass produces) — the trigger for allocation-free compaction.
#[inline]
fn is_strictly_ascending(keep: &[u32]) -> bool {
    keep.windows(2).all(|w| w[0] < w[1])
}

/// Debug check: the `(pattern, val_sup)` keys are sorted ascending.
fn is_sorted_by_key<P: BitPattern>(patterns: &[P], val_sups: &[P]) -> bool {
    (1..patterns.len()).all(|i| {
        patterns[i - 1].cmp(&patterns[i]).then_with(|| val_sups[i - 1].cmp(&val_sups[i])).is_le()
    })
}

/// Lightweight candidate records produced by the generation pass: support
/// information plus parent indices, **without** numeric values. Values are
/// recomputed only for the (few) candidates that survive deduplication and
/// the elementarity test, once per iteration in `Engine::iterate`, which
/// avoids writing kilobytes of exact integers per rejected candidate. The
/// records also cross the cluster fabric as they are: every rank holds
/// the same mode matrix, so parent indices mean the same everywhere.
#[derive(Debug, Clone, Default)]
pub struct CandidateSet<P> {
    /// Pattern over fixed rows (union of the parents').
    pub patterns: Vec<P>,
    /// Support bits of the numeric section.
    pub val_sups: Vec<P>,
    /// `(positive parent, negative parent)` mode indices.
    pub parents: Vec<(u32, u32)>,
}

impl<P: BitPattern> CandidateSet<P> {
    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Appends all candidates of `other`.
    pub fn append(&mut self, other: &mut CandidateSet<P>) {
        self.patterns.append(&mut other.patterns);
        self.val_sups.append(&mut other.val_sups);
        self.parents.append(&mut other.parents);
    }

    /// Sorts by `(pattern, value support)` and removes duplicates.
    pub fn sort_dedup(&mut self) {
        let n = self.len();
        if n <= 1 {
            return;
        }
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            self.patterns[a]
                .cmp(&self.patterns[b])
                .then_with(|| self.val_sups[a].cmp(&self.val_sups[b]))
        });
        order.dedup_by(|&mut a, &mut b| {
            let (a, b) = (a as usize, b as usize);
            self.patterns[a] == self.patterns[b] && self.val_sups[a] == self.val_sups[b]
        });
        self.gather(&order);
    }

    /// Keeps only the candidates at the given indices, in order. Strictly
    /// ascending index lists (every filter pass) compact in place without
    /// allocating; permutations (the sort path) rebuild.
    pub fn gather(&mut self, keep: &[u32]) {
        if is_strictly_ascending(keep) {
            for (dst, &src) in keep.iter().enumerate() {
                let src = src as usize;
                if src != dst {
                    self.patterns[dst] = self.patterns[src];
                    self.val_sups[dst] = self.val_sups[src];
                    self.parents[dst] = self.parents[src];
                }
            }
            self.patterns.truncate(keep.len());
            self.val_sups.truncate(keep.len());
            self.parents.truncate(keep.len());
            return;
        }
        let mut patterns = Vec::with_capacity(keep.len());
        let mut val_sups = Vec::with_capacity(keep.len());
        let mut parents = Vec::with_capacity(keep.len());
        for &i in keep {
            let i = i as usize;
            patterns.push(self.patterns[i]);
            val_sups.push(self.val_sups[i]);
            parents.push(self.parents[i]);
        }
        self.patterns = patterns;
        self.val_sups = val_sups;
        self.parents = parents;
    }

    /// Merges two sets sorted by `(pattern, value support)` into one,
    /// dropping key duplicates (keeping `a`'s copy). Linear in the combined
    /// length — the building block of the parallel run-merge that replaced
    /// the post-generation global sort.
    pub fn merge_sorted(a: CandidateSet<P>, b: CandidateSet<P>) -> CandidateSet<P> {
        debug_assert!(is_sorted_by_key(&a.patterns, &a.val_sups));
        debug_assert!(is_sorted_by_key(&b.patterns, &b.val_sups));
        if a.is_empty() {
            return b;
        }
        if b.is_empty() {
            return a;
        }
        let cap = a.len() + b.len();
        let mut out = CandidateSet {
            patterns: Vec::with_capacity(cap),
            val_sups: Vec::with_capacity(cap),
            parents: Vec::with_capacity(cap),
        };
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() || j < b.len() {
            let take_a = if i == a.len() {
                false
            } else if j == b.len() {
                true
            } else {
                match a.patterns[i]
                    .cmp(&b.patterns[j])
                    .then_with(|| a.val_sups[i].cmp(&b.val_sups[j]))
                {
                    std::cmp::Ordering::Less => true,
                    std::cmp::Ordering::Greater => false,
                    std::cmp::Ordering::Equal => {
                        j += 1; // duplicate key: skip b's copy
                        true
                    }
                }
            };
            let (src, k) = if take_a { (&a, i) } else { (&b, j) };
            out.patterns.push(src.patterns[k]);
            out.val_sups.push(src.val_sups[k]);
            out.parents.push(src.parents[k]);
            if take_a {
                i += 1;
            } else {
                j += 1;
            }
        }
        out
    }

    /// Approximate resident bytes.
    pub fn approx_bytes(&self) -> u64 {
        (self.patterns.len() * (2 * std::mem::size_of::<P>() + 8)) as u64
    }
}

/// Sign partition of the current row: indices of modes with positive,
/// negative, and zero value.
#[derive(Debug, Clone, Default)]
pub struct SignPartition<P> {
    /// The processed positions: the identity block, the processed rows
    /// and the current row. Elementarity is decided on supports
    /// intersected with this mask.
    pub mask: P,
    /// Modes with positive entry.
    pub pos: Vec<u32>,
    /// Modes with negative entry.
    pub neg: Vec<u32>,
    /// Modes with zero entry.
    pub zero: Vec<u32>,
    /// Patterns of the negative modes, gathered contiguously so the hot
    /// pair loop streams a dense slice instead of chasing indices.
    pub neg_pats: Vec<P>,
    /// Value-section supports of the negative modes (current-row slot
    /// excluded), aligned with `neg_pats`. Slots where exactly one parent
    /// is nonzero survive any positive combination, so
    /// `xor_count(pos_sup, neg_sup)` is a true lower bound on the
    /// candidate's tail nonzeros, and the same count on the rev slots
    /// alone one on its processed reversible rows. The exact pass starts
    /// from that XOR and combines only the slots of `pos_sup ∧ neg_sup`,
    /// stopping at the first nonzero one that passes a bound.
    pub neg_tail_sups: Vec<P>,
    /// Masked supports of the zero-row modes sorted by popcount: the slab
    /// the per-batch zero-row scan probes.
    pub zero_slab: Vec<P>,
    /// Popcounts of `zero_slab`, ascending.
    pub zero_counts: Vec<u32>,
}

impl<P> SignPartition<P> {
    /// Total candidate pairs of this iteration.
    pub fn pairs(&self) -> u64 {
        self.pos.len() as u64 * self.neg.len() as u64
    }
}

/// Bump-arena-style scratch for the candidate-generation kernel.
///
/// A driver owns one arena per worker and carries it across iterations:
/// every buffer is *reset* (cleared) at the start of a sweep, never freed,
/// so steady-state generation performs no heap allocation — the buffers
/// grow to the high-water mark of the run and stay there. The hoisted
/// positive-row data (`pos_*`) lets the cache-blocked sweep revisit a row
/// once per negative block without re-deriving its pattern, tail support
/// or combination coefficient each time.
#[derive(Debug)]
pub struct GenArena<P, S> {
    /// Hoisted patterns of the positive rows covered by the active range.
    pos_pats: Vec<P>,
    /// Hoisted tail supports of those rows.
    pos_sups: Vec<P>,
    /// Hoisted negative-parent coefficients (`−v_p` per positive row).
    pos_coeffs: Vec<S>,
    /// Positive row index the hoisted vectors start at.
    row_base: usize,
    /// Prefilter bound buffer (one pair of bounds per pair of the active
    /// block).
    bounds: Vec<PairBound>,
    /// Surviving pair indices of the active (row, block) sweep.
    hits: Vec<u32>,
}

impl<P, S> Default for GenArena<P, S> {
    fn default() -> Self {
        GenArena {
            pos_pats: Vec::new(),
            pos_sups: Vec::new(),
            pos_coeffs: Vec::new(),
            row_base: 0,
            bounds: Vec::new(),
            hits: Vec::new(),
        }
    }
}

impl<P, S> GenArena<P, S> {
    /// A fresh (empty) arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Approximate resident bytes across all buffers (capacities, since
    /// the arena's point is retained capacity).
    pub fn approx_bytes(&self) -> u64 {
        (self.pos_pats.capacity() * std::mem::size_of::<P>()
            + self.pos_sups.capacity() * std::mem::size_of::<P>()
            + self.pos_coeffs.capacity() * std::mem::size_of::<S>()
            + self.bounds.capacity() * std::mem::size_of::<PairBound>()
            + self.hits.capacity() * std::mem::size_of::<u32>()) as u64
    }
}

/// Counters and phase timings of one bounded streaming generation pass
/// ([`Engine::stream_range`]), and of the rest of the iteration that
/// follows it: a cluster rank's exchange and the merge.
///
/// The pass interleaves all pipeline phases per batch, so timings are
/// accumulated here and folded into the run statistics afterwards by
/// `Engine::iterate` (an RAII phase timer per batch would misattribute
/// the interleaving). This is the only phase clock: on every backend a
/// process's `RunStats::phases` is the sum of these.
#[derive(Debug, Clone, Default)]
pub struct StreamStats {
    /// Pairs of the grid the pass covered.
    pub pairs: u64,
    /// Bounded batches processed.
    pub batches: u64,
    /// Pairs that reached the numeric combination pass (prefilter hits).
    pub numeric_pass: u64,
    /// Cache blocks the generation kernel processed.
    pub blocks: u64,
    /// Resident bytes of the generation arena after the pass.
    pub arena_bytes: u64,
    /// Pairs that survived the summary rejection (raw candidates).
    pub prefiltered: u64,
    /// Candidates reaching the elementarity test after per-batch dedup and
    /// the zero-row scan (cross-batch duplicates count once per batch they
    /// appear in).
    pub tested: u64,
    /// High-water transient footprint in bytes: accumulated survivors +
    /// in-flight batch + generation arena, maximised over batches. This is
    /// exactly what the pass reports to its `charge` hook.
    pub transient_peak: u64,
    /// Messages a cluster rank sent its survivor stripe as (zero off the
    /// cluster).
    pub comm_messages: u64,
    /// Payload bytes of those messages.
    pub comm_bytes: u64,
    /// Time spent per phase.
    pub phases: PhaseBreakdown,
}

impl StreamStats {
    /// Folds in the stats of a pass that ran *concurrently* with this one
    /// (another worker's chunk of the same pair grid): counters and times
    /// add up, and so do the transient peaks, since both buffers were live
    /// at once; arenas are per worker, so their footprint is a maximum.
    pub(crate) fn absorb(&mut self, other: &StreamStats) {
        let transient = self.transient_peak + other.transient_peak;
        self.add_stripe(other);
        self.transient_peak = transient;
        self.phases.accumulate(&other.phases);
    }

    /// Folds in the counters of another cluster rank's stripe of the same
    /// pair grid: counts add up; that rank's transient and arena lived on
    /// another node, so footprints take the maximum; times are left alone
    /// (they stay rank-local).
    pub(crate) fn add_stripe(&mut self, other: &StreamStats) {
        self.pairs += other.pairs;
        self.batches += other.batches;
        self.numeric_pass += other.numeric_pass;
        self.blocks += other.blocks;
        self.arena_bytes = self.arena_bytes.max(other.arena_bytes);
        self.prefiltered += other.prefiltered;
        self.tested += other.tested;
        self.transient_peak = self.transient_peak.max(other.transient_peak);
        self.comm_messages += other.comm_messages;
        self.comm_bytes += other.comm_bytes;
    }

    /// Adds this pass's counts and times to `st`, the statistics of the
    /// run it belongs to: `resident_before` is the mode matrix's bytes
    /// when generation started, `modes` the matrix once the state
    /// advanced.
    fn add_to<P: BitPattern, S: Scalar>(
        &self,
        st: &mut RunStats,
        resident_before: u64,
        modes: &ModeMatrix<P, S>,
    ) {
        st.candidates_generated += self.pairs;
        st.tree_pruned += self.pairs - self.prefiltered;
        st.dedup_hits += self.prefiltered - self.tested;
        st.rank_tests += self.tested;
        st.comm_messages += self.comm_messages;
        st.comm_bytes += self.comm_bytes;
        st.stream_batches += self.batches;
        st.kernel_blocks += self.blocks;
        st.kernel_pruned += self.pairs - self.numeric_pass;
        st.arena_peak_bytes = st.arena_peak_bytes.max(self.arena_bytes);
        st.peak_transient_bytes = st.peak_transient_bytes.max(self.transient_peak);
        st.peak_modes = st.peak_modes.max(modes.len() as u64);
        // Honest charged peak: resident modes plus the bounded transient.
        let charged = resident_before + self.transient_peak;
        st.peak_bytes = st.peak_bytes.max(charged).max(modes.approx_bytes());
        st.phases.accumulate(&self.phases);
    }
}

/// One iteration's survivors as a driver hands them to `Engine::iterate`.
pub(crate) struct Survivors<P> {
    /// Survivors of the whole pair grid, sorted by `(pattern, val_sup)`
    /// with key duplicates dropped.
    pub set: CandidateSet<P>,
    /// Counters and phase times of the passes this process ran, the
    /// exchange and fold-merge included on a cluster rank.
    pub local: StreamStats,
    /// Counters of the passes other cluster ranks ran (their times stay
    /// theirs); empty off the cluster.
    pub remote: StreamStats,
}

impl<P> Survivors<P> {
    /// Survivors of passes that all ran in this process.
    pub(crate) fn local((set, local): (CandidateSet<P>, StreamStats)) -> Self {
        Survivors { set, local, remote: StreamStats::default() }
    }
}

/// The engine: problem data plus evolving mode matrix.
pub struct Engine<P: BitPattern, S: EfmScalar> {
    /// Stoichiometry of the (sub)problem. Only the exact reference rank
    /// test ([`EfmOptions::exact_rank_test`]) reads it; the default test
    /// runs on the kernel.
    pub stoich: Mat<S>,
    /// `m + 1`: maximum support size a nullity-1 candidate can have.
    pub max_support: usize,
    /// Position → column map (the kernel row order).
    pub row_order: Vec<usize>,
    /// Reversibility per *position*.
    pub reversible_at: Vec<bool>,
    /// Display names per position.
    pub name_at: Vec<String>,
    /// First processed position (identity block size).
    pub free_count: usize,
    /// One past the last position to process.
    pub stop_at: usize,
    /// Current position (next row to process).
    pub cursor: usize,
    /// Positions of the processed reversible rows, in processing order
    /// (indexes the `rev` section of every mode's numeric values).
    pub rev_positions: Vec<usize>,
    /// The evolving mode matrix.
    pub modes: ModeMatrix<P, S>,
    /// Elementarity test.
    pub test: CandidateTest,
    /// Whether rank tests run in exact arithmetic (see
    /// [`EfmOptions::exact_rank_test`]).
    pub exact_rank_test: bool,
    /// Instruction tier the generation kernel dispatches to, resolved once
    /// from [`EfmOptions::kernel`] + runtime CPU detection.
    pub kernel_tier: KernelTier,
    /// Run statistics.
    pub stats: RunStats,
    /// The kernel's non-identity rows in position order, as f64 with each
    /// column scaled to max |entry| 1 (`kernel_tail[(p − d)·d + j]` for
    /// position `p ≥ d` and kernel column `j`): the matrix the numerical
    /// rank test eliminates over.
    kernel_tail: Vec<f64>,
}

impl<P: BitPattern, S: EfmScalar> Engine<P, S> {
    /// Builds the start state from a problem. Fails when the pattern width
    /// cannot hold the subproblem's columns.
    pub fn new(problem: &EfmProblem<S>, opts: &EfmOptions) -> Result<Self, EfmError> {
        let q = problem.num_cols();
        if q > P::capacity() {
            return Err(EfmError::TooManyReactions { got: q, max: P::capacity() });
        }
        let d = problem.free_count;
        let tail_len = q - d;
        let mut patterns = Vec::with_capacity(d);
        let mut vals = Vec::with_capacity(d * tail_len);
        for j in 0..problem.kernel.cols() {
            let mut pat = P::empty();
            pat.set(j);
            patterns.push(pat);
            for k in 0..tail_len {
                let col = problem.row_order[d + k];
                vals.push(problem.kernel.get(col, j).clone());
            }
        }
        let reversible_at: Vec<bool> =
            problem.row_order.iter().map(|&c| problem.reversible[c]).collect();
        let name_at: Vec<String> =
            problem.row_order.iter().map(|&c| problem.names[c].clone()).collect();
        // The initial value sections hold exactly the kernel's non-identity
        // rows (mode j = kernel column j); transpose them into the scaled
        // f64 cache of the rank test.
        let mut kernel_tail = vec![0.0f64; tail_len * d];
        for j in 0..d {
            let col = &vals[j * tail_len..(j + 1) * tail_len];
            let maxabs = col.iter().map(|v| v.to_f64().abs()).fold(0.0, f64::max);
            let scale = if maxabs > 0.0 { maxabs } else { 1.0 };
            for (k, v) in col.iter().enumerate() {
                kernel_tail[k * d + j] = v.to_f64() / scale;
            }
        }
        let mut engine = Engine {
            stoich: problem.stoich.clone(),
            max_support: problem.num_rows() + 1,
            row_order: problem.row_order.clone(),
            reversible_at,
            name_at,
            free_count: d,
            stop_at: q - problem.stop_before,
            cursor: d,
            rev_positions: Vec::new(),
            modes: ModeMatrix { patterns, vals, rev_len: 0, tail_len },
            test: opts.test,
            exact_rank_test: opts.exact_rank_test,
            kernel_tier: opts.kernel.resolve(),
            stats: RunStats::default(),
            kernel_tail,
        };
        engine.stats.peak_modes = engine.modes.len() as u64;
        engine.stats.kernel_tier = engine.kernel_tier.name().to_string();
        if efm_obs::enabled() {
            efm_obs::meta_set("kernel_tier", engine.kernel_tier.name());
            efm_obs::meta_set("kernel_block_pairs", &P::block_pairs().to_string());
            efm_obs::meta_set("pattern_words", &(P::capacity() / 64).to_string());
        }
        Ok(engine)
    }

    /// Whether all rows have been processed.
    pub fn done(&self) -> bool {
        self.cursor >= self.stop_at
    }

    /// Number of iterations remaining.
    pub fn remaining(&self) -> usize {
        self.stop_at - self.cursor
    }

    /// Whether the current row is reversible.
    #[inline]
    pub fn current_reversible(&self) -> bool {
        self.reversible_at[self.cursor]
    }

    /// Stride candidates of the current iteration will have: unchanged for
    /// a reversible row (the zero entry stays, reinterpreted as part of the
    /// rev section), one less for an irreversible row.
    #[inline]
    pub fn candidate_stride(&self) -> usize {
        if self.current_reversible() {
            self.modes.stride()
        } else {
            self.modes.stride() - 1
        }
    }

    /// Sign-partitions the current row.
    pub fn partition(&self) -> SignPartition<P> {
        let mut p = SignPartition::default();
        let stride = self.modes.stride();
        let head = self.modes.rev_len;
        for i in 0..self.modes.len() {
            match self.modes.vals[i * stride + head].signum() {
                1 => p.pos.push(i as u32),
                -1 => p.neg.push(i as u32),
                _ => p.zero.push(i as u32),
            }
        }
        p.neg_pats = p.neg.iter().map(|&i| self.modes.patterns[i as usize]).collect();
        p.neg_tail_sups = p.neg.iter().map(|&i| self.val_support(i as usize)).collect();
        (0..=self.cursor).for_each(|pos| p.mask.set(pos));
        p.zero_slab =
            p.zero.iter().map(|&i| self.mode_support(i as usize).intersect(&p.mask)).collect();
        p.zero_slab.sort_unstable_by_key(P::count);
        p.zero_counts = p.zero_slab.iter().map(P::count).collect();
        p
    }

    /// Support bits of a mode's value section, current-row slot excluded.
    fn val_support(&self, i: usize) -> P {
        let head = self.modes.rev_len;
        let mut s = P::empty();
        for (t, v) in self.modes.vals(i).iter().enumerate() {
            if t != head && !v.is_zero() {
                s.set(t);
            }
        }
        s
    }

    /// Generates candidates for the pair-index range `[start, end)` of the
    /// `pos × neg` grid (pair `k` = `(pos[k / |neg|], neg[k % |neg|])`).
    /// Survivors of the summary rejection are appended to `out`; their
    /// number, the pairs that reached the numeric pass and the cache
    /// blocks swept are added to `stats`.
    ///
    /// The sweep is cache-blocked: the range decomposes into a leading
    /// partial row, a body of full rows and a trailing partial row; each
    /// piece is tiled into L1-sized negative-side blocks
    /// ([`BitPattern::block_pairs`] pairs wide) with the positive-side row
    /// data hoisted into the arena once per call, so the vectorized
    /// prefilter streams dense pattern slices block by block. Candidates
    /// come out block-major rather than row-major — every consumer
    /// sorts/dedups before use, so only the order within `out` differs
    /// from the classical sweep, never the surviving set.
    pub fn generate_range(
        &self,
        part: &SignPartition<P>,
        start: u64,
        end: u64,
        out: &mut CandidateSet<P>,
        arena: &mut GenArena<P, S>,
        stats: &mut StreamStats,
    ) {
        let nneg = part.neg.len() as u64;
        if nneg == 0 || start >= end {
            return;
        }
        let head = self.modes.rev_len;
        let a0 = (start / nneg) as usize;
        let a1 = ((end - 1) / nneg) as usize; // inclusive last row
        let b0 = (start % nneg) as usize;
        let b1 = ((end - 1) % nneg + 1) as usize; // exclusive col end of last row
                                                  // Hoist the positive-side data for all rows of the range: the
                                                  // blocked sweep revisits each row once per negative block, and
                                                  // recomputing the tail support there would re-scan the numeric
                                                  // section per block instead of once per call.
        arena.row_base = a0;
        arena.pos_pats.clear();
        arena.pos_sups.clear();
        arena.pos_coeffs.clear();
        for a in a0..=a1 {
            let pi = part.pos[a] as usize;
            arena.pos_pats.push(self.modes.patterns[pi]);
            arena.pos_sups.push(self.val_support(pi));
            arena.pos_coeffs.push(self.modes.vals(pi)[head].neg());
        }
        let nneg = nneg as usize;
        if a0 == a1 {
            self.generate_tiles(part, a0..a0 + 1, b0..b1, out, arena, stats);
        } else {
            self.generate_tiles(part, a0..a0 + 1, b0..nneg, out, arena, stats);
            self.generate_tiles(part, a0 + 1..a1, 0..nneg, out, arena, stats);
            self.generate_tiles(part, a1..a1 + 1, 0..b1, out, arena, stats);
        }
    }

    /// Cache-blocked sweep over rows `rows` × columns `cols` of the
    /// pair grid. The negative-side streams are cut into
    /// [`BitPattern::block_pairs`]-sized blocks; for each block every
    /// hoisted positive row runs the batched prefilter
    /// ([`BitPattern::prefilter_block`], SIMD for inline widths) and only
    /// surviving pairs reach the exact-arithmetic pass.
    ///
    /// A pair is cut by either of two support bounds. The whole support
    /// of a nullity-1 candidate has at most `m + 1` positions. Its masked
    /// support (the identity block and the processed rows) has at most
    /// `cursor − d + 2`: with fewer than `d − 1` zero positions there, the
    /// fluxes vanishing on them form a space of dimension at least 2, so
    /// both rank tests reject it (the count check of
    /// `Engine::nullity_is_one_kernel`), and so does the adjacency test,
    /// which keeps the same modes. Each bound is exact for settled rows
    /// (pattern union) and uses the one-parent-nonzero guarantee for value
    /// slots (XOR of tail supports); the masked one counts the rev slots
    /// only.
    ///
    /// The exact pass combines in exact arithmetic only the value slots
    /// where both parents are nonzero (`pos_sup ∧ neg_sup`). Every other
    /// slot is settled by word operations: a one-parent slot cannot
    /// cancel and a both-zero slot stays zero, so a candidate's value
    /// support is `pos_sup ⊕ neg_sup` plus the AND slots that combine to
    /// nonzero, and its two counts start at the sweep's bounds. Each
    /// nonzero AND slot adds to them in ascending slot order (rev slots
    /// first), and the pass stops as soon as either count is passed.
    /// Under `F64Tol` ([`Scalar::exact`] false) the same loop runs over
    /// `pos_sup ∨ neg_sup` from an empty support, so the tolerance still
    /// decides every slot either parent occupies; a slot both parents
    /// leave within tolerance is taken as zero. An irreversible row's
    /// slots above the current one are renumbered once per survivor.
    fn generate_tiles(
        &self,
        part: &SignPartition<P>,
        rows: std::ops::Range<usize>,
        cols: std::ops::Range<usize>,
        out: &mut CandidateSet<P>,
        arena: &mut GenArena<P, S>,
        stats: &mut StreamStats,
    ) {
        if rows.is_empty() || cols.is_empty() {
            return;
        }
        let head = self.modes.rev_len;
        let max = PairBound {
            whole: self.max_support as u32,
            masked: (self.cursor + 2 - self.free_count) as u32,
        };
        let mut rev = P::empty();
        (0..head).for_each(|t| rev.set(t));
        let reversible = self.current_reversible();
        let block = P::block_pairs();
        let GenArena { pos_pats, pos_sups, pos_coeffs, row_base, bounds, hits } = &mut *arena;
        let mut survivors = 0u64;
        let mut cs = cols.start;
        while cs < cols.end {
            let ce = (cs + block).min(cols.end);
            stats.blocks += 1;
            let negs = &part.neg_pats[cs..ce];
            let nsups = &part.neg_tail_sups[cs..ce];
            for a in rows.clone() {
                let r = a - *row_base;
                let pat_p = pos_pats[r];
                let pi = part.pos[a] as usize;
                let vals_p = self.modes.vals(pi);
                let sup_p = &pos_sups[r];
                let coeff_n = &pos_coeffs[r]; // multiplies the negative parent (−v_p)
                hits.clear();
                P::prefilter_block(
                    self.kernel_tier,
                    &pat_p,
                    sup_p,
                    &rev,
                    negs,
                    nsups,
                    max,
                    cs as u32,
                    bounds,
                    hits,
                );
                stats.numeric_pass += hits.len() as u64;
                // Numeric pass on prefilter survivors only: only the
                // support bits are recorded, the values are recomputed for
                // the accepted candidates (`Engine::materialize`).
                for &bidx in hits.iter() {
                    let ni = part.neg[bidx as usize] as usize;
                    let pat_n = &self.modes.patterns[ni];
                    let sup_n = &part.neg_tail_sups[bidx as usize];
                    let base = pat_p.union_count(pat_n);
                    // Exact scalars settle every one-parent slot (nonzero)
                    // and both-zero slot (zero) by word operations and
                    // combine only the slots where both parents are
                    // nonzero; `F64Tol` combines every slot either parent
                    // occupies, so its tolerance decides those.
                    let (mut sup, slots) = if S::exact() {
                        (sup_p.xor(sup_n), sup_p.intersect(sup_n))
                    } else {
                        (P::empty(), sup_p.union(sup_n))
                    };
                    let mut nz = base + sup.count();
                    let mut masked = base + sup.intersect(&rev).count();
                    debug_assert!(
                        nz <= max.whole && masked <= max.masked,
                        "the sweep cuts this pair"
                    );
                    let vals_n = self.modes.vals(ni);
                    let coeff_p = vals_n[head].neg(); // = −v_n > 0
                    let cut = slots.try_for_each_one(|t| {
                        if !S::fused_comb(&coeff_p, &vals_p[t], coeff_n, &vals_n[t]).is_zero() {
                            nz += 1;
                            masked += u32::from(t < head);
                            if nz > max.whole || masked > max.masked {
                                return ControlFlow::Break(());
                            }
                            sup.set(t);
                        }
                        ControlFlow::Continue(())
                    });
                    if cut.is_break() {
                        continue;
                    }
                    // On reversible rows the (zero) current-row slot stays
                    // part of the numeric section; on irreversible ones the
                    // slots after it move up.
                    if !reversible {
                        sup = sup.drop_bit(head);
                    }
                    out.patterns.push(pat_p.union(pat_n));
                    out.val_sups.push(sup);
                    out.parents.push((pi as u32, ni as u32));
                    survivors += 1;
                }
            }
            cs = ce;
        }
        stats.prefiltered += survivors;
    }

    /// The zero-row scan: drops every candidate whose masked support
    /// contains a zero-row mode's (equality included), probing only the
    /// prefix of the count-sorted slab that can be a subset.
    ///
    /// If `masked(z) ⊆ masked(c)`, the mode `z` vanishes wherever `c`
    /// does on the processed positions, so `c` either fails the masked
    /// elementarity test or is the ray `z` again — which cancellation at
    /// processed reversible rows can reproduce. Either way it goes, under
    /// both tests. Positive/negative modes carry the current-row position,
    /// which no candidate does, so they can never reject.
    fn drop_covered(&self, buf: &mut CandidateSet<P>, part: &SignPartition<P>) {
        let keep: Vec<u32> = (0..buf.len())
            .filter(|&i| {
                let cs = self.candidate_support(buf, i).intersect(&part.mask);
                let zp = part.zero_counts.partition_point(|&c| c <= cs.count());
                !P::subset_any(self.kernel_tier, &part.zero_slab[..zp], &cs)
            })
            .map(|i| i as u32)
            .collect();
        if keep.len() < buf.len() {
            buf.gather(&keep);
        }
    }

    /// The iteration's pipeline over the pair-index range `[start, end)`:
    /// the range is processed in bounded batches of at most `batch_pairs`
    /// pairs, and each batch flows through sort/dedup → the zero-row scan
    /// against the partition's slab (`Engine::drop_covered`) → (for the
    /// rank test) the per-candidate elementarity test *before* the next
    /// batch is generated. Only survivors accumulate in the returned set,
    /// sorted by key, so the transient footprint is one batch plus the
    /// accumulated survivor set — not the full materialized pair range.
    ///
    /// `charge` is invoked once per batch with the current transient
    /// footprint in bytes (survivors + in-flight batch + arena); a driver
    /// charges it against its memory meter and returns an error to abort
    /// generation with a typed failure instead of OOM-ing.
    ///
    /// Batch size never changes the surviving set, so one batch covering
    /// the whole range — materialize, then filter — is the reference the
    /// tests hold small batches to: the rank test is a per-candidate
    /// function of the support columns, so batch-local verdicts agree with
    /// global ones, and cross-batch duplicates receive equal verdicts and
    /// collapse in the sorted merge (which keeps the first copy, exactly
    /// like a global sort+dedup). The zero-row scan is per candidate too.
    /// The adjacency test's cross-candidate half cannot run batch-locally;
    /// `Engine::iterate` runs it on the merged set.
    pub fn stream_range(
        &self,
        part: &SignPartition<P>,
        start: u64,
        end: u64,
        batch_pairs: u64,
        arena: &mut GenArena<P, S>,
        charge: &mut dyn FnMut(u64) -> Result<(), EfmError>,
    ) -> Result<(CandidateSet<P>, StreamStats), EfmError> {
        use std::time::Instant;
        let mut out = CandidateSet::default();
        let mut ss = StreamStats::default();
        if start >= end || part.neg.is_empty() {
            return Ok((out, ss));
        }
        ss.pairs = end - start;
        let batch_pairs = batch_pairs.max(1);
        let per_batch_rank = matches!(self.test, CandidateTest::Rank);
        let mut s = start;
        while s < end {
            let e = (s + batch_pairs).min(end);
            ss.batches += 1;
            let t0 = Instant::now();
            let sp = efm_obs::span(Phase::Generate.span());
            let mut batch = CandidateSet::default();
            self.generate_range(part, s, e, &mut batch, arena, &mut ss);
            drop(sp);
            let t1 = Instant::now();
            let sp = efm_obs::span(Phase::Dedup.span());
            batch.sort_dedup();
            drop(sp);
            let t2 = Instant::now();
            let sp = efm_obs::span(Phase::TreeFilter.span());
            if !part.zero_slab.is_empty() {
                self.drop_covered(&mut batch, part);
            }
            drop(sp);
            let t3 = Instant::now();
            ss.tested += batch.len() as u64;
            if per_batch_rank {
                let sp = efm_obs::span(Phase::RankTest.span());
                let keep = self.rank_filter_range(&batch, 0..batch.len());
                batch.gather(&keep);
                drop(sp);
            }
            let t4 = Instant::now();
            let transient = out.approx_bytes() + batch.approx_bytes() + arena.approx_bytes();
            ss.transient_peak = ss.transient_peak.max(transient);
            charge(transient)?;
            out = CandidateSet::merge_sorted(out, batch);
            ss.phases.generate += t1 - t0;
            ss.phases.dedup += t2 - t1;
            ss.phases.tree_filter += t3 - t2;
            ss.phases.rank_test += t4 - t3;
            s = e;
        }
        ss.arena_bytes = arena.approx_bytes();
        Ok((out, ss))
    }

    /// The serial driver's pass: the whole pair grid in one
    /// [`Engine::stream_range`] with the caller's `arena`, uncharged.
    pub(crate) fn stream_whole(
        &self,
        part: &SignPartition<P>,
        arena: &mut GenArena<P, S>,
    ) -> Result<Survivors<P>, EfmError> {
        self.stream_range(part, 0, part.pairs(), STREAM_BATCH_PAIRS, arena, &mut |_| Ok(()))
            .map(Survivors::local)
    }

    /// Runs one iteration, the same way for every backend. `drive` gets
    /// the current row's sign partition, runs its pair grid however the
    /// backend splits it (one pass, worker chunks, or a cluster rank's
    /// stripe plus the exchange) and returns the merged survivors. The
    /// rest happens here, once: the cross-candidate half of the
    /// elementarity test (timed into the `rank_test` phase), recomputing
    /// the survivors' values, charging them through `charge` (with the
    /// survivor set they are computed from, both being live at that point)
    /// and advancing the state (timed into the `merge` phase), the
    /// iteration record and telemetry.
    pub(crate) fn iterate(
        &mut self,
        drive: impl FnOnce(&Self, &SignPartition<P>) -> Result<Survivors<P>, EfmError>,
        charge: &mut dyn FnMut(u64) -> Result<(), EfmError>,
    ) -> Result<IterationStats, EfmError> {
        debug_assert!(!self.done());
        let part = self.partition();
        let resident = self.modes.approx_bytes();
        let Survivors { mut set, mut local, remote } = drive(self, &part)?;
        let t_accept = std::time::Instant::now();
        let accepted = self.accept_survivors(&mut set, &part);
        local.phases.rank_test += t_accept.elapsed();
        let t_tail = std::time::Instant::now();
        let sp = efm_obs::span(Phase::Merge.span());
        let buf = self.materialize(&set);
        charge(set.approx_bytes() + buf.approx_bytes())?;
        drop(set);
        self.advance(&part, buf);
        drop(sp);
        local.phases.merge += t_tail.elapsed();
        local.add_stripe(&remote);
        let rec = self.record_iteration(&part, resident, accepted, &local);
        efm_obs::gauge_set("survivors", self.modes.len() as u64);
        Ok(rec)
    }

    /// Folds one finished iteration into the run statistics, pushes its
    /// record and returns it: `part` is the iteration's sign partition,
    /// `resident_before` the mode matrix's bytes when generation started,
    /// and `pass` the counters and phase times over the whole pair grid
    /// (the cross-candidate test's time included in `rank_test`).
    fn record_iteration(
        &mut self,
        part: &SignPartition<P>,
        resident_before: u64,
        accepted: u64,
        pass: &StreamStats,
    ) -> IterationStats {
        let position = self.cursor - 1;
        let rec = IterationStats {
            position,
            reaction: self.name_at[position].clone(),
            reversible: self.reversible_at[position],
            pos: part.pos.len(),
            neg: part.neg.len(),
            zero: part.zero.len(),
            pairs: pass.pairs,
            numeric_pass: pass.numeric_pass,
            prefiltered: pass.prefiltered,
            deduped: pass.tested,
            accepted,
            modes_after: self.modes.len(),
            phases: pass.phases.clone(),
        };
        pass.add_to(&mut self.stats, resident_before, &self.modes);
        self.stats.iterations.push(rec.clone());
        rec
    }

    /// Recomputes the numeric sections for the surviving candidates (their
    /// parents are still alive) and produces the buffer [`Engine::advance`]
    /// consumes. Values are gcd-normalized here, once per survivor.
    fn materialize(&self, set: &CandidateSet<P>) -> CandidateBuf<P, S> {
        let stride = self.modes.stride();
        let head = self.modes.rev_len;
        let reversible = self.current_reversible();
        let out_stride = self.candidate_stride();
        let mut vals = Vec::with_capacity(set.len() * out_stride);
        for &(pi, ni) in &set.parents {
            let vals_p = self.modes.vals(pi as usize);
            let vals_n = self.modes.vals(ni as usize);
            let coeff_n = vals_p[head].neg();
            let coeff_p = vals_n[head].neg();
            let vstart = vals.len();
            for t in 0..stride {
                if t == head {
                    if reversible {
                        vals.push(S::zero());
                    }
                    continue;
                }
                vals.push(S::fused_comb(&coeff_p, &vals_p[t], &coeff_n, &vals_n[t]));
            }
            S::normalize_vec(&mut vals[vstart..]);
        }
        CandidateBuf { patterns: set.patterns.clone(), vals, stride: out_stride }
    }

    /// Full support (positions) of a live mode.
    pub(crate) fn mode_support(&self, i: usize) -> P {
        let head = self.modes.rev_len;
        let mut s = self.modes.patterns[i];
        for (slot, v) in self.modes.vals(i).iter().enumerate() {
            if !v.is_zero() {
                let pos = if slot < head {
                    self.rev_positions[slot]
                } else {
                    self.cursor + (slot - head)
                };
                s.set(pos);
            }
        }
        s
    }

    /// Full support (positions) of a candidate.
    fn candidate_support(&self, buf: &CandidateSet<P>, i: usize) -> P {
        self.support_of(buf.patterns[i], &buf.val_sups[i])
    }

    /// Full support (positions) of the candidate with fixed-row pattern
    /// `pattern` and value support `val_sup`.
    fn support_of(&self, pattern: P, val_sup: &P) -> P {
        let head = self.modes.rev_len;
        let reversible = self.current_reversible();
        let mut s = pattern;
        val_sup.for_each_one(|slot| {
            let pos = if slot < head {
                self.rev_positions[slot]
            } else if reversible {
                self.cursor + (slot - head)
            } else {
                self.cursor + 1 + (slot - head)
            };
            s.set(pos);
        });
        s
    }

    /// The cross-candidate half of the elementarity test, run on an
    /// iteration's merged survivors: the rank test already ran per batch,
    /// so every survivor is accepted; the adjacency test's comparison of
    /// candidates with each other ([`Engine::adjacency_filter`], the
    /// count-sorted slab scan) runs here. Keeps only accepted candidates
    /// and returns their number.
    fn accept_survivors(&self, set: &mut CandidateSet<P>, part: &SignPartition<P>) -> u64 {
        let _sp = efm_obs::span(Phase::RankTest.span());
        match self.test {
            CandidateTest::Rank => set.len() as u64,
            CandidateTest::Adjacency => {
                let keep = self.adjacency_filter(set, &part.mask);
                set.gather(&keep);
                keep.len() as u64
            }
        }
    }

    /// Numerical nullity-1 test of a candidate with full support `sup`
    /// (positions), run on the kernel `K = [I; R]` instead of on `N`.
    ///
    /// Elementarity is decided over the processed positions only: the
    /// zero set `Z` is the identity block and processed rows (`d..=cursor`)
    /// outside `sup`, since a zero on an unprocessed row is not a
    /// constraint yet. Every steady-state flux is `K·λ`, so the fluxes
    /// vanishing on `Z` are the `λ` with `K[Z,:]·λ = 0`, a space of
    /// dimension `d − rank(K[Z,:])`. The identity rows in `Z` are
    /// multiples of unit rows; eliminating them leaves the test
    /// `rank(K[Z∖I, sup∩I]) == k − 1` with `k = |sup∩I|`: a `|Z∖I|×k`
    /// elimination, smaller than the `m×|sup|` one on `N`.
    fn nullity_is_one_kernel(
        &self,
        sup: &P,
        cols: &mut Vec<usize>,
        scratch: &mut Vec<f64>,
    ) -> bool {
        let d = self.free_count;
        cols.clear();
        sup.for_each_one(|p| {
            if p < d {
                cols.push(p);
            }
        });
        let k = cols.len();
        if k <= 1 {
            return k == 1;
        }
        let processed = d..self.cursor + 1;
        let zero_rows = processed.clone().filter(|&p| !sup.get(p)).count();
        // rank ≤ |Z∖I|: too few zero rows to reach rank k − 1.
        if zero_rows + 1 < k {
            return false;
        }
        scratch.clear();
        for p in processed.filter(|&p| !sup.get(p)) {
            let row = &self.kernel_tail[(p - d) * d..(p - d + 1) * d];
            scratch.extend(cols.iter().map(|&j| row[j]));
        }
        efm_linalg::gauss_rank_in_place_f64(scratch, zero_rows, k, RANK_TOL) + 1 == k
    }

    /// Rank test on a sub-range of candidates: returns indices (relative
    /// to the buffer) that pass. Used by parallel drivers.
    ///
    /// The exact reference ([`EfmOptions::exact_rank_test`]) decides the
    /// same masked question on `N`: `nullity(N[:, sup ∪ U]) == 1` with `U`
    /// the unprocessed positions, which leaves those columns free.
    pub fn rank_filter_range(
        &self,
        buf: &CandidateSet<P>,
        range: std::ops::Range<usize>,
    ) -> Vec<u32> {
        let mut cols = Vec::with_capacity(self.max_support);
        let mut keep = Vec::new();
        if self.exact_rank_test {
            let mut scratch = Vec::new();
            let unprocessed = self.cursor + 1..self.row_order.len();
            for i in range {
                cols.clear();
                let sup = self.candidate_support(buf, i);
                sup.for_each_one(|p| {
                    if p <= self.cursor {
                        cols.push(self.row_order[p]);
                    }
                });
                cols.extend(unprocessed.clone().map(|p| self.row_order[p]));
                if nullity_of_cols(&self.stoich, &cols, &mut scratch) == 1 {
                    keep.push(i as u32);
                }
            }
        } else {
            // The paper's rank test is numerical ("LU, QR or SVD"); exact
            // integer elimination would blow up on genome-scale entries.
            let mut scratch: Vec<f64> = Vec::new();
            for i in range {
                if self.nullity_is_one_kernel(
                    &self.candidate_support(buf, i),
                    &mut cols,
                    &mut scratch,
                ) {
                    keep.push(i as u32);
                }
            }
        }
        keep
    }

    /// The cross-candidate half of the combinatorial (support-minimality)
    /// test, the classical alternative to the rank test: a candidate
    /// survives iff no *other* mode of the next generation has support
    /// strictly contained in the candidate's.
    ///
    /// Modes kept with a nonzero current-row entry (positive, and negative
    /// on reversible rows) carry the current-row position in their support
    /// while candidates never do, so they cannot be subsets; zero-row
    /// modes already rejected their supersets in the per-batch zero-row
    /// scan ([`Engine::drop_covered`]), so only the other candidates are
    /// left to reject here.
    ///
    /// Supports are compared on the processed positions (`mask`) only —
    /// the identity block, the processed rows and the current row. A zero
    /// on an unprocessed row is not a constraint yet; counting it would
    /// accept modes whose masked support strictly contains another
    /// mode's. Distinct candidates can therefore share a masked support,
    /// and then neither is extreme: equality rejects too.
    ///
    /// Classical linear-scan adjacency test, slab-vectorized: subset
    /// probes run over a dense count-sorted support slab with the batched
    /// kernel. A *proper* subset has strictly fewer bits than its
    /// superset, so sorting the slab by popcount lets every probe scan
    /// only the prefix that can possibly reject, instead of the full
    /// `O(|cand|²)` pair grid.
    ///
    /// Returns the ascending indices of the surviving candidates.
    fn adjacency_filter(&self, set: &CandidateSet<P>, mask: &P) -> Vec<u32> {
        let tier = self.kernel_tier;
        let cand_sups: Vec<P> =
            (0..set.len()).map(|i| self.candidate_support(set, i).intersect(mask)).collect();
        let mut cand_sorted = cand_sups.clone();
        cand_sorted.sort_unstable_by_key(P::count);
        let cand_counts: Vec<u32> = cand_sorted.iter().map(P::count).collect();
        let mut multiplicity: HashMap<P, u32> = HashMap::new();
        for s in &cand_sups {
            *multiplicity.entry(*s).or_default() += 1;
        }
        let mut keep = Vec::new();
        for (i, cs) in cand_sups.iter().enumerate() {
            let k = cs.count();
            // Another candidate with the same masked support rejects.
            if multiplicity[cs] > 1 {
                continue;
            }
            // Any other rejecting candidate is a *proper* subset: count
            // < k. The strict prefix also excludes `cs` itself without an
            // index check.
            let cp = cand_counts.partition_point(|&c| c < k);
            if P::subset_any(tier, &cand_sorted[..cp], cs) {
                continue;
            }
            keep.push(i as u32);
        }
        keep
    }

    /// Completes the iteration: installs the survivor set and advances the
    /// cursor. `part` must be the partition used for generation,
    /// `accepted` the materialized accepted candidates.
    fn advance(&mut self, part: &SignPartition<P>, accepted: CandidateBuf<P, S>) {
        let stride = self.modes.stride();
        let head = self.modes.rev_len;
        let reversible = self.current_reversible();
        if reversible {
            // Nothing is dropped and no slot is removed: the current row's
            // value slot is reinterpreted as the last rev-section slot.
            debug_assert_eq!(accepted.stride, stride);
            self.modes.patterns.extend_from_slice(&accepted.patterns);
            self.modes.vals.extend_from_slice(&accepted.vals);
            self.modes.rev_len += 1;
            self.modes.tail_len -= 1;
            self.rev_positions.push(self.cursor);
        } else {
            // Rebuild: drop negatives, drop the current-row slot, set the
            // pattern bit on positives.
            let new_stride = stride - 1;
            let total = part.zero.len() + part.pos.len() + accepted.patterns.len();
            let mut patterns = Vec::with_capacity(total);
            let mut vals = Vec::with_capacity(total * new_stride);
            let push_old = |idx: u32, set_bit: bool, patterns: &mut Vec<P>, vals: &mut Vec<S>| {
                let i = idx as usize;
                let mut pat = self.modes.patterns[i];
                if set_bit {
                    pat.set(self.cursor);
                }
                patterns.push(pat);
                let v = self.modes.vals(i);
                vals.extend_from_slice(&v[..head]);
                vals.extend_from_slice(&v[head + 1..]);
            };
            for &i in &part.zero {
                push_old(i, false, &mut patterns, &mut vals);
            }
            for &i in &part.pos {
                push_old(i, true, &mut patterns, &mut vals);
            }
            patterns.extend_from_slice(&accepted.patterns);
            vals.extend_from_slice(&accepted.vals);
            self.modes =
                ModeMatrix { patterns, vals, rev_len: head, tail_len: self.modes.tail_len - 1 };
        }
        self.cursor += 1;
    }

    /// Runs one full iteration in-place with a throwaway arena and no
    /// memory charge — the one-shot entry for tests; drivers carry a
    /// persistent arena across iterations.
    pub fn step(&mut self) -> IterationStats {
        self.iterate(|eng, part| eng.stream_whole(part, &mut GenArena::new()), &mut |_| Ok(()))
            .expect("only the charge hooks can fail, and these never do")
    }

    /// Extracts the final supports as patterns over *positions*; when the
    /// run stopped early (divide-and-conquer), only modes whose remaining
    /// tail is everywhere nonzero are kept (Proposition 1), with all
    /// numeric-section positions added to the support.
    pub fn final_supports(&self) -> Vec<P> {
        let head = self.modes.rev_len;
        let mut out = Vec::new();
        'mode: for i in 0..self.modes.len() {
            let mut pat = self.modes.patterns[i];
            for (slot, v) in self.modes.vals(i).iter().enumerate() {
                if slot < head {
                    // Processed reversible row: nonzero → support member.
                    if !v.is_zero() {
                        pat.set(self.rev_positions[slot]);
                    }
                } else {
                    // Unprocessed forced row: must be nonzero.
                    if v.is_zero() {
                        continue 'mode;
                    }
                    pat.set(self.cursor + (slot - head));
                }
            }
            out.push(pat);
        }
        out
    }

    /// Maps a position-space support pattern to subproblem column indices.
    pub fn support_to_cols(&self, pat: &P) -> Vec<usize> {
        let mut v = Vec::new();
        pat.for_each_one(|p| v.push(self.row_order[p]));
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::build_problem;
    use crate::types::EfmOptions;
    use efm_bitset::Pattern1;
    use efm_metnet::compress;
    use efm_numeric::{DynInt, F64Tol};

    fn toy_engine() -> Engine<Pattern1, DynInt> {
        let net = efm_metnet::examples::toy_network();
        let (red, _) = compress(&net);
        let opts = EfmOptions::default();
        let problem = build_problem::<DynInt>(&red, &opts).unwrap();
        Engine::new(&problem, &opts).unwrap()
    }

    #[test]
    fn initial_state_is_identity_patterned() {
        let eng = toy_engine();
        assert_eq!(eng.modes.len(), 4, "kernel dimension of the reduced toy network");
        for j in 0..eng.modes.len() {
            assert!(eng.modes.patterns[j].get(j), "mode {j} carries its identity bit");
            assert_eq!(eng.modes.patterns[j].count(), 1);
        }
        assert_eq!(eng.modes.rev_len, 0);
        assert_eq!(eng.modes.tail_len, 4);
        assert_eq!(eng.cursor, eng.free_count);
        assert!(!eng.done());
        assert_eq!(eng.remaining(), 4);
    }

    #[test]
    fn partition_is_a_partition() {
        let eng = toy_engine();
        let p = eng.partition();
        assert_eq!(p.pos.len() + p.neg.len() + p.zero.len(), eng.modes.len());
        assert_eq!(p.neg_pats.len(), p.neg.len());
        assert_eq!(p.neg_tail_sups.len(), p.neg.len());
        let head = eng.modes.rev_len;
        for &i in &p.pos {
            assert_eq!(eng.modes.vals(i as usize)[head].signum(), 1);
        }
        for &i in &p.neg {
            assert_eq!(eng.modes.vals(i as usize)[head].signum(), -1);
        }
        for &i in &p.zero {
            assert_eq!(eng.modes.vals(i as usize)[head].signum(), 0);
        }
    }

    #[test]
    fn striped_generation_equals_full_generation() {
        // Run two iterations so pairs exist, then compare the full range
        // against a 3-way stripe at the same iteration.
        let mut eng = toy_engine();
        while !eng.done() {
            let part = eng.partition();
            if part.pairs() >= 2 {
                let mut full = CandidateSet::default();
                let mut arena = GenArena::new();
                let mut stats = StreamStats::default();
                let total = part.pairs();
                eng.generate_range(&part, 0, total, &mut full, &mut arena, &mut stats);
                assert!(stats.blocks >= 1, "full sweep records its blocks");
                let mut striped = CandidateSet::default();
                let bounds = [0, total / 3, 2 * total / 3, total];
                for w in bounds.windows(2) {
                    eng.generate_range(&part, w[0], w[1], &mut striped, &mut arena, &mut stats);
                }
                full.sort_dedup();
                striped.sort_dedup();
                assert_eq!(full.patterns, striped.patterns);
                assert_eq!(full.val_sups, striped.val_sups);
                assert!(arena.approx_bytes() > 0, "arena retains capacity after use");
                return; // compared once, done
            }
            eng.step();
        }
        panic!("toy network has an iteration with at least two pairs");
    }

    #[test]
    fn advance_reversible_keeps_negatives_and_grows_rev_section() {
        let mut eng = toy_engine();
        // Process until the first reversible row.
        while !eng.current_reversible() {
            eng.step();
        }
        let part = eng.partition();
        let before = eng.modes.len();
        let negs = part.neg.len();
        let rev_before = eng.modes.rev_len;
        eng.step();
        assert_eq!(eng.modes.rev_len, rev_before + 1);
        assert!(eng.modes.len() >= before.min(before), "negatives kept");
        let _ = negs;
        assert_eq!(eng.rev_positions.last().copied(), Some(eng.cursor - 1));
    }

    #[test]
    fn advance_irreversible_drops_negatives() {
        let mut eng = toy_engine();
        // Find an irreversible iteration with at least one negative mode.
        loop {
            assert!(!eng.done(), "toy run has an irreversible row with negatives");
            let part = eng.partition();
            if !eng.current_reversible() && !part.neg.is_empty() {
                let stride_before = eng.modes.stride();
                let rec = eng.step();
                assert_eq!(eng.modes.stride(), stride_before - 1);
                // zero + pos + accepted = survivors.
                assert_eq!(rec.modes_after, rec.zero + rec.pos + rec.accepted as usize);
                return;
            }
            eng.step();
        }
    }

    #[test]
    fn mode_limit_check_in_types() {
        // The engine itself has no limit; drivers enforce it. Covered in
        // lib tests; here assert peak tracking works.
        let mut eng = toy_engine();
        while !eng.done() {
            eng.step();
        }
        assert_eq!(eng.stats.peak_modes, 8);
        assert_eq!(eng.modes.len(), 8);
        assert_eq!(eng.final_supports().len(), 8);
    }

    /// Per-iteration `(pairs, accepted, modes_after)` of a run.
    fn series(eng: &Engine<Pattern1, DynInt>) -> Vec<(u64, u64, usize)> {
        eng.stats.iterations.iter().map(|r| (r.pairs, r.accepted, r.modes_after)).collect()
    }

    /// Runs `test` on the toy network twice: once with one batch covering
    /// each iteration's whole pair grid (materialize, then filter) and once
    /// with `tiny`-pair batches; both must agree on every iteration and on
    /// the final supports.
    fn one_batch_vs_tiny_batches(test: CandidateTest, tiny: u64) {
        let net = efm_metnet::examples::toy_network();
        let (red, _) = compress(&net);
        let opts = EfmOptions { test, ..Default::default() };
        let problem = build_problem::<DynInt>(&red, &opts).unwrap();
        let mut whole: Engine<Pattern1, DynInt> = Engine::new(&problem, &opts).unwrap();
        let mut batched: Engine<Pattern1, DynInt> = Engine::new(&problem, &opts).unwrap();
        let mut arena = GenArena::new();
        let mut run = |eng: &mut Engine<Pattern1, DynInt>,
                       batch_pairs: u64,
                       charge: &mut dyn FnMut(u64) -> Result<(), EfmError>| {
            eng.iterate(
                |eng, part| {
                    eng.stream_range(part, 0, part.pairs(), batch_pairs, &mut arena, charge)
                        .map(Survivors::local)
                },
                &mut |_| Ok(()),
            )
        };
        while !whole.done() {
            run(&mut whole, u64::MAX, &mut |_| Ok(())).unwrap();
        }
        let mut charges = 0u64;
        while !batched.done() {
            run(&mut batched, tiny, &mut |_| {
                charges += 1;
                Ok(())
            })
            .unwrap();
        }
        assert_eq!(whole.final_supports(), batched.final_supports());
        assert_eq!(series(&whole), series(&batched));
        assert!(
            batched.stats.stream_batches > whole.stats.stream_batches,
            "tiny batches must force several merge rounds"
        );
        assert_eq!(charges, batched.stats.stream_batches, "every batch is charged");
        assert!(batched.stats.peak_transient_bytes > 0);
        assert!(batched.stats.peak_bytes >= batched.modes.approx_bytes());
    }

    #[test]
    fn one_batch_and_tiny_batches_agree() {
        one_batch_vs_tiny_batches(CandidateTest::Rank, 2);
    }

    #[test]
    fn one_batch_and_tiny_batches_agree_adjacency() {
        one_batch_vs_tiny_batches(CandidateTest::Adjacency, 3);
    }

    #[test]
    fn streaming_charge_error_aborts_iteration() {
        let mut eng = toy_engine();
        let err = loop {
            assert!(!eng.done(), "toy run generates pairs before finishing");
            let mut charge = |bytes| {
                if bytes > 0 {
                    Err(EfmError::Checkpoint("cap".into()))
                } else {
                    Ok(())
                }
            };
            let drive = |eng: &Engine<Pattern1, DynInt>, part: &SignPartition<Pattern1>| {
                eng.stream_range(part, 0, part.pairs(), 1, &mut GenArena::new(), &mut charge)
                    .map(Survivors::local)
            };
            if let Err(e) = eng.iterate(drive, &mut |_| Ok(())) {
                break e;
            }
        };
        assert!(matches!(err, EfmError::Checkpoint(_)));
    }

    use crate::types::CandidateTest;

    /// Runs an engine over `problem` to its last iteration and, at every
    /// iteration, holds the kernel-row f64 verdict of every deduplicated
    /// candidate of the whole pair grid to the exact Bareiss-on-N verdict
    /// of the same engine. Returns the number of candidates compared.
    fn assert_rank_tests_agree(problem: &EfmProblem<DynInt>) -> usize {
        let mut eng: Engine<Pattern1, DynInt> =
            Engine::new(problem, &EfmOptions::default()).unwrap();
        let mut compared = 0;
        while !eng.done() {
            let part = eng.partition();
            let mut set = CandidateSet::default();
            let mut stats = StreamStats::default();
            eng.generate_range(&part, 0, part.pairs(), &mut set, &mut GenArena::new(), &mut stats);
            set.sort_dedup();
            let float = eng.rank_filter_range(&set, 0..set.len());
            eng.exact_rank_test = true;
            let exact = eng.rank_filter_range(&set, 0..set.len());
            eng.exact_rank_test = false;
            assert_eq!(float, exact, "verdicts differ at position {}", eng.cursor);
            compared += set.len();
            eng.step();
        }
        compared
    }

    /// Subproblem of `red` that leaves the reduced reaction `r` nonzero:
    /// ordered last and never processed (`stop_before == 1`).
    fn nonzero_subproblem<S: EfmScalar>(
        red: &efm_metnet::ReducedNetwork,
        r: usize,
    ) -> Option<EfmProblem<S>> {
        let keep: Vec<usize> = (0..red.num_reduced()).collect();
        let p =
            crate::problem::build_subproblem(red, &keep, &[r], &EfmOptions::default()).ok()??;
        assert_eq!(p.stop_before, 1);
        Some(p)
    }

    #[test]
    fn kernel_rank_test_matches_exact_on_every_toy_candidate() {
        let net = efm_metnet::examples::toy_network();
        let (red, _) = compress(&net);
        let full = build_problem::<DynInt>(&red, &EfmOptions::default()).unwrap();
        assert!(assert_rank_tests_agree(&full) > 0);
        // A divide-and-conquer subproblem: the trailing forced row stays
        // an unprocessed value slot, so zero sets include such slots.
        let r8 = red.reduced_index_of(net.reaction_index("r8r").unwrap()).unwrap();
        let sub = nonzero_subproblem(&red, r8).expect("r8r can be forced nonzero");
        assert!(assert_rank_tests_agree(&sub) > 0);
    }

    /// The full problem of a random 6×12 network and, when it has one,
    /// the same network split on its first reversible reaction.
    fn random_problems<S: EfmScalar>(seed: u64) -> Vec<EfmProblem<S>> {
        let params = efm_metnet::generator::RandomNetworkParams {
            metabolites: 6,
            reactions: 12,
            reversible_prob: 0.4,
            mean_degree: 2.5,
            exchange_prob: 0.4,
            max_coeff: 3,
        };
        let net = efm_metnet::generator::random_network(&params, seed);
        let (red, _) = compress(&net);
        if red.num_reduced() == 0 {
            return Vec::new();
        }
        let mut out = vec![build_problem::<S>(&red, &EfmOptions::default()).unwrap()];
        if let Some(r) = (0..red.num_reduced()).find(|&r| red.reversible[r]) {
            out.extend(nonzero_subproblem(&red, r));
        }
        out
    }

    /// Runs an engine with elementarity test `test` over `problem` and, at
    /// every iteration, checks the zero-row scan against a brute-force
    /// probe of the deduplicated candidates of the whole pair grid: the
    /// scan drops exactly the candidates whose masked support contains a
    /// zero-row mode's, each of them fails the masked exact rank test or
    /// has that mode's full support, and none of them survives
    /// [`Engine::stream_range`]. Returns how many candidates the scan had
    /// to drop.
    fn assert_zero_scan_sound(problem: &EfmProblem<DynInt>, test: CandidateTest) -> usize {
        let opts = EfmOptions { test, ..Default::default() };
        let mut eng: Engine<Pattern1, DynInt> = Engine::new(problem, &opts).unwrap();
        let mut dropped = 0;
        while !eng.done() {
            let part = eng.partition();
            let masked = |s: Pattern1| s.intersect(&part.mask);
            let zero_modes: Vec<Pattern1> =
                part.zero.iter().map(|&i| eng.mode_support(i as usize)).collect();
            let covered =
                |s: Pattern1| zero_modes.iter().any(|z| masked(*z).is_subset_of(&masked(s)));
            let mut set = CandidateSet::default();
            let mut stats = StreamStats::default();
            eng.generate_range(&part, 0, part.pairs(), &mut set, &mut GenArena::new(), &mut stats);
            set.sort_dedup();
            eng.exact_rank_test = true;
            let elementary = eng.rank_filter_range(&set, 0..set.len());
            eng.exact_rank_test = false;
            let mut scanned = set.clone();
            eng.drop_covered(&mut scanned, &part);
            let uncovered: Vec<u32> = (0..set.len() as u32)
                .filter(|&i| !covered(eng.candidate_support(&set, i as usize)))
                .collect();
            let mut expected = set.clone();
            expected.gather(&uncovered);
            assert_eq!(scanned.patterns, expected.patterns);
            assert_eq!(scanned.val_sups, expected.val_sups);
            for i in 0..set.len() {
                let sup = eng.candidate_support(&set, i);
                if covered(sup) {
                    dropped += 1;
                    assert!(
                        !elementary.contains(&(i as u32)) || zero_modes.contains(&sup),
                        "dropped an elementary new mode at position {}",
                        eng.cursor
                    );
                }
            }
            let (survivors, _) = eng
                .stream_range(&part, 0, part.pairs(), 3, &mut GenArena::new(), &mut |_| Ok(()))
                .unwrap();
            for i in 0..survivors.len() {
                assert!(!covered(eng.candidate_support(&survivors, i)), "{test:?} kept a superset");
            }
            eng.step();
        }
        dropped
    }

    #[test]
    fn zero_row_scan_drops_only_non_elementary_or_existing_modes() {
        let net = efm_metnet::examples::toy_network();
        let (red, _) = compress(&net);
        let r8 = red.reduced_index_of(net.reaction_index("r8r").unwrap()).unwrap();
        let mut problems = vec![build_problem::<DynInt>(&red, &EfmOptions::default()).unwrap()];
        problems.extend(nonzero_subproblem(&red, r8));
        problems.extend((0..8).flat_map(random_problems));
        for test in [CandidateTest::Rank, CandidateTest::Adjacency] {
            let dropped: usize = problems.iter().map(|p| assert_zero_scan_sound(p, test)).sum();
            assert!(dropped > 0, "{test:?}: the scan must have candidates to drop");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn kernel_rank_test_matches_exact_on_random_networks(seed in 0u64..5000) {
            for problem in random_problems(seed) {
                assert_rank_tests_agree(&problem);
            }
        }

        #[test]
        fn zero_row_scan_is_sound_on_random_networks(seed in 0u64..5000) {
            for problem in random_problems(seed) {
                for test in [CandidateTest::Rank, CandidateTest::Adjacency] {
                    assert_zero_scan_sound(&problem, test);
                }
            }
        }

        #[test]
        fn masked_bound_is_sound_on_random_networks(seed in 0u64..5000) {
            for problem in random_problems(seed) {
                for test in [CandidateTest::Rank, CandidateTest::Adjacency] {
                    assert_masked_bound_sound(&problem, test);
                }
            }
        }
    }

    /// Pattern and value support of the candidate of pair `(pi, ni)`,
    /// every value slot combined in `S` with no bound applied, and
    /// numbered as `Engine::generate_tiles` numbers them.
    fn exact_candidate<S: EfmScalar>(
        eng: &Engine<Pattern1, S>,
        pi: u32,
        ni: u32,
    ) -> (Pattern1, Pattern1) {
        let head = eng.modes.rev_len;
        let (vals_p, vals_n) = (eng.modes.vals(pi as usize), eng.modes.vals(ni as usize));
        let (coeff_n, coeff_p) = (vals_p[head].neg(), vals_n[head].neg());
        let mut sup = Pattern1::empty();
        for t in (0..vals_p.len()).filter(|&t| t != head) {
            if !S::fused_comb(&coeff_p, &vals_p[t], &coeff_n, &vals_n[t]).is_zero() {
                // A reversible row keeps its (zero) slot; an irreversible
                // one drops it.
                sup.set(if t > head && !eng.current_reversible() { t - 1 } else { t });
            }
        }
        (eng.modes.patterns[pi as usize].union(&eng.modes.patterns[ni as usize]), sup)
    }

    /// Runs an engine with elementarity test `test` over `problem` and, at
    /// every iteration, holds generation to a brute-force pass over the
    /// whole pair grid. A pair is generated iff its support has at most
    /// `m + 1` positions and at most `cursor − d + 2` on the identity block
    /// and the processed rows; every pair the second (masked) bound cuts,
    /// whether in the sweep or in the exact pass, fails the exact masked
    /// rank test; and the iteration accepts exactly what the same pipeline
    /// accepts when it is fed every pair within the whole-support bound.
    /// Returns how many pairs the masked bound cut.
    fn assert_masked_bound_sound(problem: &EfmProblem<DynInt>, test: CandidateTest) -> usize {
        let opts = EfmOptions { test, ..Default::default() };
        let mut eng: Engine<Pattern1, DynInt> = Engine::new(problem, &opts).unwrap();
        let mut cut_total = 0;
        while !eng.done() {
            let part = eng.partition();
            let head = eng.modes.rev_len;
            let masked_max = eng.cursor + 2 - eng.free_count;
            let (mut kept, mut cut) = (CandidateSet::default(), CandidateSet::default());
            for &pi in &part.pos {
                for &ni in &part.neg {
                    let (pat, sup) = exact_candidate(&eng, pi, ni);
                    if (pat.count() + sup.count()) as usize > eng.max_support {
                        continue;
                    }
                    let masked =
                        pat.count() as usize + sup.iter_ones().filter(|&t| t < head).count();
                    let into = if masked > masked_max { &mut cut } else { &mut kept };
                    into.patterns.push(pat);
                    into.val_sups.push(sup);
                    into.parents.push((pi, ni));
                }
            }
            let mut generated = CandidateSet::default();
            let mut stats = StreamStats::default();
            eng.generate_range(
                &part,
                0,
                part.pairs(),
                &mut generated,
                &mut GenArena::new(),
                &mut stats,
            );
            let mut got: Vec<_> = (0..generated.len())
                .map(|i| (generated.parents[i], generated.patterns[i], generated.val_sups[i]))
                .collect();
            got.sort_unstable();
            let want: Vec<_> = (0..kept.len())
                .map(|i| (kept.parents[i], kept.patterns[i], kept.val_sups[i]))
                .collect();
            assert_eq!(got, want, "generation at position {}", eng.cursor);
            eng.exact_rank_test = true;
            let elementary = eng.rank_filter_range(&cut, 0..cut.len());
            eng.exact_rank_test = false;
            assert!(
                elementary.is_empty(),
                "cut an elementary candidate at position {}",
                eng.cursor
            );
            cut_total += cut.len();

            // The pipeline fed the bound's cuts too accepts the same set.
            let mut reference = kept;
            reference.append(&mut cut);
            reference.sort_dedup();
            eng.drop_covered(&mut reference, &part);
            if test == CandidateTest::Rank {
                let keep = eng.rank_filter_range(&reference, 0..reference.len());
                reference.gather(&keep);
            }
            eng.accept_survivors(&mut reference, &part);
            let (mut survivors, _) = eng
                .stream_range(&part, 0, part.pairs(), 3, &mut GenArena::new(), &mut |_| Ok(()))
                .unwrap();
            eng.accept_survivors(&mut survivors, &part);
            assert_eq!(survivors.patterns, reference.patterns, "{test:?} at {}", eng.cursor);
            assert_eq!(survivors.val_sups, reference.val_sups, "{test:?} at {}", eng.cursor);
            eng.step();
        }
        cut_total
    }

    #[test]
    fn masked_bound_cuts_only_non_elementary_pairs() {
        let net = efm_metnet::examples::toy_network();
        let (red, _) = compress(&net);
        let r8 = red.reduced_index_of(net.reaction_index("r8r").unwrap()).unwrap();
        let mut problems = vec![build_problem::<DynInt>(&red, &EfmOptions::default()).unwrap()];
        problems.extend(nonzero_subproblem(&red, r8));
        problems.extend((0..8).flat_map(random_problems));
        for test in [CandidateTest::Rank, CandidateTest::Adjacency] {
            let cut: usize = problems.iter().map(|p| assert_masked_bound_sound(p, test)).sum();
            assert!(cut > 0, "{test:?}: the masked bound must have pairs to cut");
        }
    }

    /// Runs an `F64Tol` engine over `problem` and, at every iteration,
    /// holds generation to an all-slots tolerance reference: a pair is
    /// generated iff the sweep's bounds on its parents' value supports
    /// admit it and its candidate, every slot combined with the
    /// tolerance's zero test, is within both support bounds. Returns how
    /// many candidates were compared.
    fn assert_f64_generation_matches_all_slots(problem: &EfmProblem<F64Tol>) -> usize {
        let mut eng: Engine<Pattern1, F64Tol> =
            Engine::new(problem, &EfmOptions::default()).unwrap();
        let mut compared = 0;
        while !eng.done() {
            let part = eng.partition();
            let head = eng.modes.rev_len;
            let rev = Pattern1::first_n(head);
            let masked_max = (eng.cursor + 2 - eng.free_count) as u32;
            let whole_max = eng.max_support as u32;
            let mut want = Vec::new();
            for &pi in &part.pos {
                for &ni in &part.neg {
                    let (pat_p, pat_n) =
                        (eng.modes.patterns[pi as usize], eng.modes.patterns[ni as usize]);
                    let x = eng.val_support(pi as usize).xor(&eng.val_support(ni as usize));
                    let u = pat_p.union_count(&pat_n);
                    if u + x.count() > whole_max || u + x.intersect(&rev).count() > masked_max {
                        continue;
                    }
                    let (pat, sup) = exact_candidate(&eng, pi, ni);
                    let rev_nz = sup.iter_ones().filter(|&t| t < head).count() as u32;
                    if pat.count() + sup.count() <= whole_max && pat.count() + rev_nz <= masked_max
                    {
                        want.push(((pi, ni), pat, sup));
                    }
                }
            }
            let mut generated = CandidateSet::default();
            let mut stats = StreamStats::default();
            eng.generate_range(
                &part,
                0,
                part.pairs(),
                &mut generated,
                &mut GenArena::new(),
                &mut stats,
            );
            let mut got: Vec<_> = (0..generated.len())
                .map(|i| (generated.parents[i], generated.patterns[i], generated.val_sups[i]))
                .collect();
            got.sort_unstable();
            assert_eq!(got, want, "F64Tol generation at position {}", eng.cursor);
            compared += want.len();
            eng.step();
        }
        compared
    }

    #[test]
    fn f64_generation_matches_all_slots_reference() {
        let net = efm_metnet::examples::toy_network();
        let (red, _) = compress(&net);
        let r8 = red.reduced_index_of(net.reaction_index("r8r").unwrap()).unwrap();
        let mut problems = vec![build_problem::<F64Tol>(&red, &EfmOptions::default()).unwrap()];
        problems.extend(nonzero_subproblem(&red, r8));
        problems.extend((0..24).flat_map(random_problems));
        let compared: usize = problems.iter().map(assert_f64_generation_matches_all_slots).sum();
        assert!(compared > 0, "the reference must have candidates to compare");
    }

    #[test]
    fn candidate_set_sort_dedup_keeps_distinct_supports() {
        let mut s = CandidateSet::<Pattern1> {
            patterns: vec![
                Pattern1::from_indices([0]),
                Pattern1::from_indices([0]),
                Pattern1::from_indices([1]),
            ],
            val_sups: vec![
                Pattern1::from_indices([2]),
                Pattern1::from_indices([2]),
                Pattern1::from_indices([2]),
            ],
            parents: vec![(0, 1), (2, 3), (4, 5)],
        };
        s.sort_dedup();
        assert_eq!(s.len(), 2, "equal (pattern, val_sup) keys collapse");
    }
}
