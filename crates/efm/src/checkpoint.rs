//! Iteration-boundary checkpointing of the Nullspace Algorithm.
//!
//! The engine state between two iterations is exactly `(cursor,
//! rev_positions, mode matrix, statistics)` — everything else is derived
//! from the problem. A checkpoint captures that state at a row boundary so
//! an aborted run (memory cap, crash, Ctrl-C) can resume from the last
//! completed iteration instead of restarting the enumeration, the paper's
//! multi-hour Network II scenario.
//!
//! The file format is a hand-rolled little-endian binary layout in the
//! style of [`crate::io`]'s packed EFM format (`EFCK` magic, u32/u64
//! fields). Numeric values travel as text produced by
//! [`EfmScalar::encode_checkpoint`], which round-trips exactly for both
//! scalar backends (decimal digits for arbitrary-precision integers, raw
//! IEEE-754 bits for floats), so a resumed run replays *identical* state.
//! Bit patterns travel as set-bit index lists, making the file independent
//! of the pattern width the writer happened to monomorphize.
//!
//! A checkpoint is bound to its problem by a structural fingerprint
//! (dimensions, row order, reversibility, reaction names) plus the scalar
//! tag; [`EngineCheckpoint::restore`] rejects any mismatch instead of
//! resuming into a different enumeration.

use crate::bridge::EfmScalar;
use crate::engine::{Engine, ModeMatrix};
use crate::metrics::{Phase, COUNTERS};
use crate::problem::EfmProblem;
use crate::types::{
    EfmError, EfmOptions, FailureClass, IterationStats, PhaseBreakdown, RecoveryAction,
    RecoveryEvent, RunStats,
};
use efm_bitset::BitPattern;
use std::io::{self, Read, Write};
use std::path::Path;
use std::time::Duration;

const MAGIC: &[u8; 4] = b"EFCK";
/// The one format version this build writes and reads. Every record is
/// framed the same way: magic, this version word, a kind word, the body,
/// then a footer — body length (u64) + CRC-32 (u32) — so a file truncated
/// exactly on a field boundary or silently bit-flipped is rejected with a
/// typed error instead of restoring garbage state. Files of any other
/// version are rejected with an error naming it (DESIGN.md §9.4).
const VERSION: u32 = 8;

/// Record kind: an engine snapshot at an iteration boundary.
const KIND_ENGINE: u32 = 0;
/// Record kind: divide-and-conquer subset-completion progress.
const KIND_DNC: u32 = 1;

type SnapshotJob = Box<dyn FnOnce() -> EngineCheckpoint + Send>;

/// Checkpoint-writing policy for a resumable run.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Where snapshots are written (atomically, replacing the previous one).
    pub path: std::path::PathBuf,
    /// Snapshot every `every` completed iterations.
    pub every: usize,
    /// Skip a due snapshot while the previous one is still being written.
    /// The cadence then self-tunes to what the background writer can
    /// absorb: every iteration while states are small, as fast as the
    /// disk allows once they grow — bounding checkpoint overhead instead
    /// of the recovery replay distance. Off by default (an explicitly
    /// requested `--checkpoint` keeps strict every-`every` semantics);
    /// the supervisor turns it on.
    pub lazy: bool,
}

impl CheckpointConfig {
    /// Checkpoints to `path` after every iteration.
    pub fn new(path: impl Into<std::path::PathBuf>) -> Self {
        CheckpointConfig { path: path.into(), every: 1, lazy: false }
    }

    /// Sets the snapshot interval in iterations.
    pub fn every(mut self, n: usize) -> Self {
        self.every = n.max(1);
        self
    }

    /// Enables or disables backpressure-throttled (lazy) snapshots.
    pub fn lazy(mut self, on: bool) -> Self {
        self.lazy = on;
        self
    }

    /// Whether a snapshot is due after `iterations_done` iterations.
    pub(crate) fn due(&self, iterations_done: usize) -> bool {
        iterations_done.is_multiple_of(self.every)
    }
}

/// A width- and scalar-erased snapshot of an [`Engine`] at an iteration
/// boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineCheckpoint {
    /// Scalar backend that wrote the snapshot ([`EfmScalar::CHECKPOINT_TAG`]).
    pub scalar_tag: String,
    /// Bit capacity of the pattern width that wrote the snapshot.
    pub pattern_bits: u32,
    /// Structural fingerprint of the problem (see [`problem_fingerprint`]).
    pub fingerprint: u64,
    /// First processed position (identity block size).
    pub free_count: u64,
    /// One past the last position to process.
    pub stop_at: u64,
    /// Next row to process.
    pub cursor: u64,
    /// Positions of the processed reversible rows, in processing order.
    pub rev_positions: Vec<u64>,
    /// Number of processed reversible rows per mode.
    pub rev_len: u64,
    /// Number of unprocessed rows per mode.
    pub tail_len: u64,
    /// Per-mode set-bit indices of the fixed-row pattern.
    pub mode_patterns: Vec<Vec<u32>>,
    /// Encoded numeric sections, flattened with stride `rev_len + tail_len`.
    pub vals: Vec<String>,
    /// Run statistics accumulated up to the snapshot.
    pub stats: RunStats,
    /// Stripe provenance: the cost-model weights the writing group
    /// striped the candidate pair grid with, one entry per rank of the
    /// group that wrote the snapshot. Empty means uniform striping (serial
    /// and rayon snapshots, which have no stripes). On
    /// failover the supervisor recovers the dead rank's share from this
    /// vector and redistributes it across the survivors.
    pub stripe_weights: Vec<u64>,
}

/// Structural fingerprint binding a checkpoint to its problem: FNV-1a over
/// the dimensions, processing order, reversibility flags, and reaction
/// names. Scalar *values* are deliberately excluded — the scalar tag covers
/// the arithmetic, and the same network imports to different matrices under
/// different scalars.
pub fn problem_fingerprint<S: EfmScalar>(problem: &EfmProblem<S>) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(problem.num_rows() as u64);
    h.write_u64(problem.num_cols() as u64);
    h.write_u64(problem.free_count as u64);
    h.write_u64(problem.stop_before as u64);
    for &c in &problem.row_order {
        h.write_u64(c as u64);
    }
    for &r in &problem.reversible {
        h.write_u64(r as u64);
    }
    for n in &problem.names {
        h.write_bytes(n.as_bytes());
        h.write_u64(0xff); // name separator
    }
    h.finish()
}

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

impl EngineCheckpoint {
    /// Snapshots an engine at an iteration boundary.
    pub fn capture<P: BitPattern, S: EfmScalar>(eng: &Engine<P, S>, fingerprint: u64) -> Self {
        Self::capture_deferred(eng, fingerprint)()
    }

    /// Like [`EngineCheckpoint::capture`], but splits the work: the
    /// synchronous part is a plain clone of the engine state (memcpy-class
    /// for the hot vectors), and the returned closure finishes the
    /// per-value text encoding — the expensive half — wherever it is
    /// called, e.g. on the [`CheckpointWriter`]'s thread instead of the
    /// collective-synchronized iteration loop.
    pub fn capture_deferred<P: BitPattern, S: EfmScalar>(
        eng: &Engine<P, S>,
        fingerprint: u64,
    ) -> impl FnOnce() -> EngineCheckpoint + Send + 'static {
        let free_count = eng.free_count as u64;
        let stop_at = eng.stop_at as u64;
        let cursor = eng.cursor as u64;
        let rev_positions: Vec<u64> = eng.rev_positions.iter().map(|&p| p as u64).collect();
        let rev_len = eng.modes.rev_len as u64;
        let tail_len = eng.modes.tail_len as u64;
        let patterns: Vec<P> = eng.modes.patterns.clone();
        let vals: Vec<S> = eng.modes.vals.clone();
        let stats = eng.stats.clone();
        move || EngineCheckpoint {
            scalar_tag: S::CHECKPOINT_TAG.to_string(),
            pattern_bits: P::capacity() as u32,
            fingerprint,
            free_count,
            stop_at,
            cursor,
            rev_positions,
            rev_len,
            tail_len,
            mode_patterns: patterns
                .iter()
                .map(|p| p.ones().into_iter().map(|b| b as u32).collect())
                .collect(),
            vals: vals.iter().map(EfmScalar::encode_checkpoint).collect(),
            stats,
            stripe_weights: Vec::new(),
        }
    }

    /// Number of iterations the snapshot has completed.
    pub fn iterations_completed(&self) -> u64 {
        self.cursor - self.free_count
    }

    /// Rebuilds an engine from the snapshot, validating that the snapshot
    /// belongs to `problem`, the scalar backend, and the pattern width the
    /// caller is resuming with.
    pub fn restore<P: BitPattern, S: EfmScalar>(
        &self,
        problem: &EfmProblem<S>,
        opts: &EfmOptions,
    ) -> Result<Engine<P, S>, EfmError> {
        let bad = |m: String| EfmError::Checkpoint(m);
        if self.scalar_tag != S::CHECKPOINT_TAG {
            return Err(bad(format!(
                "scalar mismatch: checkpoint written with {:?}, resuming with {:?}",
                self.scalar_tag,
                S::CHECKPOINT_TAG
            )));
        }
        if self.pattern_bits as usize != P::capacity() {
            return Err(bad(format!(
                "pattern width mismatch: checkpoint uses {} bits, resume dispatched {}",
                self.pattern_bits,
                P::capacity()
            )));
        }
        let fp = problem_fingerprint(problem);
        if self.fingerprint != fp {
            return Err(bad(format!(
                "problem fingerprint mismatch ({:#018x} vs {:#018x}): the checkpoint \
                 was written for a different network, ordering, or compression",
                self.fingerprint, fp
            )));
        }
        let mut eng = Engine::<P, S>::new(problem, opts)?;
        if self.free_count != eng.free_count as u64 || self.stop_at != eng.stop_at as u64 {
            return Err(bad(format!(
                "processing bounds mismatch: checkpoint [{}, {}) vs problem [{}, {})",
                self.free_count, self.stop_at, eng.free_count, eng.stop_at
            )));
        }
        if self.cursor < self.free_count || self.cursor > self.stop_at {
            return Err(bad(format!(
                "cursor {} outside processing range [{}, {}]",
                self.cursor, self.free_count, self.stop_at
            )));
        }
        if self.rev_positions.len() as u64 != self.rev_len {
            return Err(bad(format!(
                "{} reversible positions recorded but rev_len is {}",
                self.rev_positions.len(),
                self.rev_len
            )));
        }
        let stride = (self.rev_len + self.tail_len) as usize;
        let nmodes = self.mode_patterns.len();
        if self.vals.len() != nmodes * stride {
            return Err(bad(format!(
                "{} values do not fill {} modes of stride {}",
                self.vals.len(),
                nmodes,
                stride
            )));
        }
        let mut patterns = Vec::with_capacity(nmodes);
        for bits in &self.mode_patterns {
            let mut pat = P::empty();
            for &b in bits {
                if b as usize >= P::capacity() {
                    return Err(bad(format!("pattern bit {b} out of range")));
                }
                pat.set(b as usize);
            }
            patterns.push(pat);
        }
        let mut vals = Vec::with_capacity(self.vals.len());
        for v in &self.vals {
            vals.push(S::decode_checkpoint(v).map_err(&bad)?);
        }
        eng.cursor = self.cursor as usize;
        eng.rev_positions = self.rev_positions.iter().map(|&p| p as usize).collect();
        eng.modes = ModeMatrix {
            patterns,
            vals,
            rev_len: self.rev_len as usize,
            tail_len: self.tail_len as usize,
        };
        eng.stats = self.stats.clone();
        // The tier is a property of the resuming host/options, not of the
        // snapshot: re-resolve it live.
        eng.stats.kernel_tier = eng.kernel_tier.name().to_string();
        Ok(eng)
    }

    /// Writes the binary checkpoint format (with the trailing length/CRC
    /// footer).
    pub fn write_to<W: Write>(&self, w: W) -> io::Result<()> {
        write_record(self, w)
    }

    /// Reads the binary checkpoint format (version 8, kind 0).
    pub fn read_from<R: Read>(r: R) -> io::Result<Self> {
        read_record(r)
    }

    /// Writes the checkpoint to `path` atomically (temp file + rename), so
    /// a crash mid-write never corrupts the previous checkpoint.
    pub fn save(&self, path: &Path) -> Result<(), EfmError> {
        save_record(self, path)
    }

    /// Loads a checkpoint from `path`.
    pub fn load(path: &Path) -> Result<Self, EfmError> {
        load_record(path)
    }
}

impl Record for EngineCheckpoint {
    const KIND: u32 = KIND_ENGINE;

    fn write_body(&self, w: &mut impl Write) -> io::Result<()> {
        put_str(w, &self.scalar_tag)?;
        put_u32(w, self.pattern_bits)?;
        put_u64(w, self.fingerprint)?;
        put_u64(w, self.free_count)?;
        put_u64(w, self.stop_at)?;
        put_u64(w, self.cursor)?;
        put_u64(w, self.rev_positions.len() as u64)?;
        for &p in &self.rev_positions {
            put_u64(w, p)?;
        }
        put_u64(w, self.rev_len)?;
        put_u64(w, self.tail_len)?;
        put_u64(w, self.mode_patterns.len() as u64)?;
        for bits in &self.mode_patterns {
            put_u32(w, bits.len() as u32)?;
            for &b in bits {
                put_u32(w, b)?;
            }
        }
        put_u64(w, self.vals.len() as u64)?;
        for v in &self.vals {
            put_str(w, v)?;
        }
        put_stats(w, &self.stats)?;
        put_u64(w, self.stripe_weights.len() as u64)?;
        for &sw in &self.stripe_weights {
            put_u64(w, sw)?;
        }
        Ok(())
    }

    fn read_body(r: &mut impl Read) -> io::Result<Self> {
        let scalar_tag = get_str(r)?;
        let pattern_bits = get_u32(r)?;
        let fingerprint = get_u64(r)?;
        let free_count = get_u64(r)?;
        let stop_at = get_u64(r)?;
        let cursor = get_u64(r)?;
        let nrev = checked_len(get_u64(r)?)?;
        let rev_positions = get_vec(r, nrev, get_u64)?;
        let rev_len = get_u64(r)?;
        let tail_len = get_u64(r)?;
        let nmodes = checked_len(get_u64(r)?)?;
        let mode_patterns = get_vec(r, nmodes, |r| {
            let nbits = get_u32(r)? as usize;
            get_vec(r, nbits, get_u32)
        })?;
        let nvals = checked_len(get_u64(r)?)?;
        let vals = get_vec(r, nvals, get_str)?;
        let stats = get_stats(r)?;
        let nw = checked_len(get_u64(r)?)?;
        let stripe_weights = get_vec(r, nw, get_u64)?;
        Ok(EngineCheckpoint {
            scalar_tag,
            pattern_bits,
            fingerprint,
            free_count,
            stop_at,
            cursor,
            rev_positions,
            rev_len,
            tail_len,
            mode_patterns,
            vals,
            stats,
            stripe_weights,
        })
    }
}

/// One finished divide-and-conquer subset as recorded in a
/// [`DncCheckpoint`]: its supports (reduced-network indices) and the run
/// statistics of the successful attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct DncSubsetResult {
    /// Subset id (bit `i` set ⇔ partition reaction `i` must be nonzero).
    pub id: usize,
    /// Whether the subset was skipped as provably empty.
    pub skipped_empty: bool,
    /// Supports in reduced-network reaction indices.
    pub supports: Vec<Vec<usize>>,
    /// Statistics of the attempt that produced `supports`.
    pub stats: RunStats,
}

/// Divide-and-conquer progress record (kind 1): which of the
/// `2^qsub` subsets have finished, plus their results, so a resumed run
/// re-enumerates only the unfinished subsets. Unlike [`EngineCheckpoint`]
/// this snapshots the *scheduler's* state, not one engine's: subsets
/// complete in any order under the concurrent schedules, and each
/// completion atomically rewrites this record.
#[derive(Debug, Clone, PartialEq)]
pub struct DncCheckpoint {
    /// Scalar backend that wrote the record ([`EfmScalar::CHECKPOINT_TAG`]).
    pub scalar_tag: String,
    /// Fingerprint binding the record to its reduced network + partition
    /// (see [`dnc_fingerprint`]).
    pub fingerprint: u64,
    /// Number of partition reactions (`2^qsub` subsets total).
    pub qsub: u32,
    /// Finished subsets, kept sorted by id.
    pub done: Vec<DncSubsetResult>,
}

/// Fingerprint binding a [`DncCheckpoint`] to its problem: FNV-1a over the
/// reduced network's shape, reversibility flags, and names, plus the
/// partition's reduced indices in order. A record written for a different
/// network, compression outcome, or partition is rejected at resume.
pub fn dnc_fingerprint(red: &efm_metnet::ReducedNetwork, partition_indices: &[usize]) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(red.stoich.rows() as u64);
    h.write_u64(red.num_reduced() as u64);
    for &r in &red.reversible {
        h.write_u64(r as u64);
    }
    for n in &red.names {
        h.write_bytes(n.as_bytes());
        h.write_u64(0xff); // name separator
    }
    for &i in partition_indices {
        h.write_u64(i as u64);
    }
    h.finish()
}

impl DncCheckpoint {
    /// An empty progress record (no subset finished yet).
    pub fn new(scalar_tag: &str, fingerprint: u64, qsub: u32) -> Self {
        DncCheckpoint { scalar_tag: scalar_tag.to_string(), fingerprint, qsub, done: Vec::new() }
    }

    /// Whether subset `id` is recorded as finished.
    pub fn is_done(&self, id: usize) -> bool {
        self.done.binary_search_by_key(&id, |s| s.id).is_ok()
    }

    /// Records a finished subset (idempotent: a re-recorded id replaces the
    /// previous entry), keeping `done` sorted by id.
    pub fn record(&mut self, result: DncSubsetResult) {
        match self.done.binary_search_by_key(&result.id, |s| s.id) {
            Ok(i) => self.done[i] = result,
            Err(i) => self.done.insert(i, result),
        }
    }

    /// The completion bitmap: bit `id` set ⇔ subset `id` finished.
    pub fn bitmap(&self) -> Vec<u64> {
        let subsets = 1usize << self.qsub;
        let mut words = vec![0u64; subsets.div_ceil(64)];
        for s in &self.done {
            words[s.id / 64] |= 1u64 << (s.id % 64);
        }
        words
    }

    /// Writes the binary record (kind 1, with the trailing length/CRC
    /// footer).
    pub fn write_to<W: Write>(&self, w: W) -> io::Result<()> {
        write_record(self, w)
    }

    /// Reads a divide-and-conquer progress record (kind 1 only — engine
    /// snapshots are rejected with a typed error).
    pub fn read_from<R: Read>(r: R) -> io::Result<Self> {
        read_record(r)
    }

    /// Writes the record to `path` atomically (temp file + rename).
    pub fn save(&self, path: &Path) -> Result<(), EfmError> {
        save_record(self, path)
    }

    /// Loads a progress record from `path`.
    pub fn load(path: &Path) -> Result<Self, EfmError> {
        load_record(path)
    }
}

impl Record for DncCheckpoint {
    const KIND: u32 = KIND_DNC;

    fn write_body(&self, w: &mut impl Write) -> io::Result<()> {
        put_str(w, &self.scalar_tag)?;
        put_u64(w, self.fingerprint)?;
        put_u32(w, self.qsub)?;
        let bitmap = self.bitmap();
        put_u64(w, bitmap.len() as u64)?;
        for word in bitmap {
            put_u64(w, word)?;
        }
        put_u64(w, self.done.len() as u64)?;
        for s in &self.done {
            put_u64(w, s.id as u64)?;
            put_u32(w, s.skipped_empty as u32)?;
            put_u64(w, s.supports.len() as u64)?;
            for sup in &s.supports {
                put_u64(w, sup.len() as u64)?;
                for &r in sup {
                    put_u64(w, r as u64)?;
                }
            }
            put_stats(w, &s.stats)?;
        }
        Ok(())
    }

    fn read_body(r: &mut impl Read) -> io::Result<Self> {
        let scalar_tag = get_str(r)?;
        let fingerprint = get_u64(r)?;
        let qsub = get_u32(r)?;
        if qsub > 20 {
            return Err(bad_data(format!("implausible qsub {qsub}")));
        }
        let nwords = checked_len(get_u64(r)?)?;
        let bitmap = get_vec(r, nwords, get_u64)?;
        let ndone = checked_len(get_u64(r)?)?;
        let done = get_vec(r, ndone, |r| {
            let id = get_u64(r)? as usize;
            let skipped_empty = get_u32(r)? != 0;
            let nsups = checked_len(get_u64(r)?)?;
            let supports = get_vec(r, nsups, |r| {
                let len = checked_len(get_u64(r)?)?;
                get_vec(r, len, |r| Ok(get_u64(r)? as usize))
            })?;
            let stats = get_stats(r)?;
            Ok(DncSubsetResult { id, skipped_empty, supports, stats })
        })?;
        let ck = DncCheckpoint { scalar_tag, fingerprint, qsub, done };
        if ck.done.iter().any(|s| s.id >= 1usize << ck.qsub) {
            return Err(bad_data("subset id out of range for qsub"));
        }
        if !ck.done.windows(2).all(|w| w[0].id < w[1].id) {
            return Err(bad_data("subset entries not sorted by id (corrupt or hand-edited file)"));
        }
        // The bitmap is redundant with the entry list; a mismatch means a
        // corrupted or hand-edited file that the CRC happened to cover.
        if bitmap != ck.bitmap() {
            return Err(bad_data("completion bitmap disagrees with subset entries"));
        }
        Ok(ck)
    }
}

/// Background checkpoint writer: snapshots are handed to a worker thread
/// so serialization, CRC computation, and disk I/O leave the iteration
/// critical path (the capture itself — a state clone — stays on it).
/// When the worker falls behind, a backlog collapses to the newest
/// snapshot; [`CheckpointWriter::finish`] and `Drop` drain the queue, so
/// the last submitted snapshot is always durable before the run returns —
/// including the error return the supervisor resumes from. The widened
/// crash window costs at most one extra iteration of replay beyond the
/// synchronous policy.
pub struct CheckpointWriter {
    tx: Option<std::sync::mpsc::Sender<SnapshotJob>>,
    worker: Option<std::thread::JoinHandle<Result<(), EfmError>>>,
    pending: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    busy_nanos: std::sync::Arc<std::sync::atomic::AtomicU64>,
    path: std::path::PathBuf,
}

impl CheckpointWriter {
    /// Fraction of run wall time lazy mode lets checkpointing consume.
    /// Snapshots are shed while the writer's cumulative busy time is above
    /// this share, so on a saturated machine (where "background" CPU is
    /// not free) the fault-free overhead of supervision stays bounded by
    /// construction rather than by luck.
    pub const LAZY_BUDGET: f64 = 0.03;
    /// Spawns the writer thread for `path`.
    pub fn spawn(path: impl Into<std::path::PathBuf>) -> Self {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let path: std::path::PathBuf = path.into();
        let (tx, rx) = std::sync::mpsc::channel::<SnapshotJob>();
        let pending = std::sync::Arc::new(AtomicUsize::new(0));
        let busy_nanos = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let dest = path.clone();
        let inflight = std::sync::Arc::clone(&pending);
        let busy = std::sync::Arc::clone(&busy_nanos);
        let worker = std::thread::Builder::new()
            .name("efck-writer".into())
            .spawn(move || -> Result<(), EfmError> {
                while let Ok(mut job) = rx.recv() {
                    while let Ok(newer) = rx.try_recv() {
                        job = newer; // collapse a backlog: older snapshots
                        inflight.fetch_sub(1, Ordering::Release); // never encode
                    }
                    let t = std::time::Instant::now();
                    let r = job().save(&dest);
                    busy.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    inflight.fetch_sub(1, Ordering::Release);
                    r?;
                }
                Ok(())
            })
            .expect("spawn checkpoint writer thread");
        CheckpointWriter { tx: Some(tx), worker: Some(worker), pending, busy_nanos, path }
    }

    /// Whether no snapshot is queued or being written right now.
    pub fn is_idle(&self) -> bool {
        self.pending.load(std::sync::atomic::Ordering::Acquire) == 0
    }

    /// Whether lazy mode may submit another snapshot: the writer is idle
    /// and its cumulative busy time is within [`Self::LAZY_BUDGET`] of the
    /// run's elapsed wall time.
    pub fn within_budget(&self, elapsed: Duration) -> bool {
        self.is_idle()
            && self.busy_nanos.load(std::sync::atomic::Ordering::Relaxed) as f64
                <= Self::LAZY_BUDGET * elapsed.as_nanos() as f64
    }

    /// Queues a snapshot job (see [`EngineCheckpoint::capture_deferred`])
    /// for encoding and writing. Surfaces the worker's error if a previous
    /// save already failed (the snapshot is then lost, exactly as a failed
    /// synchronous save would have lost it).
    pub fn submit(
        &mut self,
        job: impl FnOnce() -> EngineCheckpoint + Send + 'static,
    ) -> Result<(), EfmError> {
        self.pending.fetch_add(1, std::sync::atomic::Ordering::Release);
        if self.tx.as_ref().is_some_and(|tx| tx.send(Box::new(job)).is_ok()) {
            Ok(())
        } else {
            self.pending.fetch_sub(1, std::sync::atomic::Ordering::Release);
            self.join()
        }
    }

    /// Waits for every queued snapshot to reach disk.
    pub fn finish(mut self) -> Result<(), EfmError> {
        self.join()
    }

    fn join(&mut self) -> Result<(), EfmError> {
        self.tx = None; // close the channel: the worker drains and exits
        match self.worker.take() {
            Some(h) => h.join().unwrap_or_else(|_| {
                Err(EfmError::Checkpoint(format!(
                    "checkpoint writer panicked for {}",
                    self.path.display()
                )))
            }),
            None => Ok(()),
        }
    }
}

impl Drop for CheckpointWriter {
    fn drop(&mut self) {
        let _ = self.join();
    }
}

fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// One record kind of the EFCK container. Both kinds share the frame
/// below: header, body, footer, atomic save and load.
trait Record: Sized {
    /// The kind word written after the version.
    const KIND: u32;
    /// Writes everything between the header and the footer.
    fn write_body(&self, w: &mut impl Write) -> io::Result<()>;
    /// Reads what [`Record::write_body`] wrote.
    fn read_body(r: &mut impl Read) -> io::Result<Self>;
}

/// Writes `rec` framed: magic, version, kind, body, then the length/CRC
/// footer over everything before it.
fn write_record<T: Record, W: Write>(rec: &T, w: W) -> io::Result<()> {
    let mut cw = CrcWriter::new(w);
    cw.write_all(MAGIC)?;
    put_u32(&mut cw, VERSION)?;
    put_u32(&mut cw, T::KIND)?;
    rec.write_body(&mut cw)?;
    let (len, crc) = (cw.len, cw.crc.finish());
    let mut w = cw.into_inner();
    // The footer travels outside the checksummed region.
    put_u64(&mut w, len)?;
    put_u32(&mut w, crc)
}

/// Reads one framed record of kind `T`. Every malformed file — wrong
/// magic, version or kind, a short read, a footer that disagrees with the
/// body — is an `InvalidData` error.
fn read_record<T: Record, R: Read>(r: R) -> io::Result<T> {
    let mut cr = CrcReader::new(r);
    let rec = read_framed_body::<T, R>(&mut cr).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => bad_data("checkpoint truncated (corrupt file)"),
        _ => e,
    })?;
    // Validate the footer against what was actually read: a file truncated
    // exactly on a field boundary parses cleanly up to here but has no (or
    // a short) footer; a bit flip fails the CRC.
    let (body_len, body_crc) = (cr.len, cr.crc.finish());
    let footer_err =
        |what: &str| bad_data(format!("checkpoint {what} (truncated or corrupt file)"));
    let mut footer = [0u8; 12];
    // Read past the wrapper: the footer bytes must not enter the checksum.
    cr.inner.read_exact(&mut footer).map_err(|_| footer_err("footer missing"))?;
    if u64::from_le_bytes(footer[0..8].try_into().unwrap()) != body_len {
        return Err(footer_err("length mismatch"));
    }
    if u32::from_le_bytes(footer[8..12].try_into().unwrap()) != body_crc {
        return Err(footer_err("CRC mismatch"));
    }
    Ok(rec)
}

fn read_framed_body<T: Record, R: Read>(r: &mut CrcReader<R>) -> io::Result<T> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad_data("not an EFCK checkpoint file"));
    }
    let version = get_u32(r)?;
    if version != VERSION {
        return Err(bad_data(format!(
            "unsupported checkpoint version {version} (this build reads version {VERSION} only)"
        )));
    }
    match get_u32(r)? {
        k if k == T::KIND => T::read_body(r),
        KIND_ENGINE => Err(bad_data(
            "engine snapshot, not a divide-and-conquer progress record \
             (load it with EngineCheckpoint::load)",
        )),
        KIND_DNC => Err(bad_data(
            "divide-and-conquer progress checkpoint (load it with DncCheckpoint::load)",
        )),
        k => Err(bad_data(format!("unknown checkpoint kind {k}"))),
    }
}

/// Writes `rec` to `path` atomically (temp file + rename), so a crash
/// mid-write never corrupts the previous checkpoint. Records the
/// `checkpoint write us` histogram once per save.
fn save_record(rec: &impl Record, path: &Path) -> Result<(), EfmError> {
    let t0 = std::time::Instant::now();
    let tmp = path.with_extension("tmp");
    let write = || -> io::Result<()> {
        let f = std::fs::File::create(&tmp)?;
        // Megabyte-scale bodies: a large buffer keeps the syscall count
        // low enough that the write disappears into the background
        // thread's schedule.
        let mut w = std::io::BufWriter::with_capacity(256 << 10, f);
        write_record(rec, &mut w)?;
        w.flush()?;
        std::fs::rename(&tmp, path)
    };
    let out = write().map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        EfmError::Checkpoint(format!("cannot write {}: {e}", path.display()))
    });
    efm_obs::hist::record("checkpoint write us", t0.elapsed().as_micros() as u64);
    out
}

/// Loads a record of kind `T` from `path`.
fn load_record<T: Record>(path: &Path) -> Result<T, EfmError> {
    let f = std::fs::File::open(path)
        .map_err(|e| EfmError::Checkpoint(format!("cannot open {}: {e}", path.display())))?;
    read_record(std::io::BufReader::new(f))
        .map_err(|e| EfmError::Checkpoint(format!("cannot read {}: {e}", path.display())))
}

// The table-driven CRC-32 now lives in `efm_cluster::crc`, shared with the
// cluster data plane's per-frame checksums (same IEEE 802.3 polynomial, same
// table). The wrappers below keep the checkpoint-specific accounting.
use efm_cluster::crc::Crc32;

/// Writer wrapper accumulating the running CRC and byte count of the body.
struct CrcWriter<W> {
    inner: W,
    crc: Crc32,
    len: u64,
}

impl<W: Write> CrcWriter<W> {
    fn new(inner: W) -> Self {
        CrcWriter { inner, crc: Crc32::new(), len: 0 }
    }

    fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for CrcWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.crc.update(&buf[..n]);
        self.len += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Reader wrapper accumulating the running CRC and byte count of the body.
struct CrcReader<R> {
    inner: R,
    crc: Crc32,
    len: u64,
}

impl<R: Read> CrcReader<R> {
    fn new(inner: R) -> Self {
        CrcReader { inner, crc: Crc32::new(), len: 0 }
    }
}

impl<R: Read> Read for CrcReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.crc.update(&buf[..n]);
        self.len += n as u64;
        Ok(n)
    }
}

/// Guards length prefixes against absurd values from corrupt files.
fn checked_len(v: u64) -> io::Result<usize> {
    if v > (1 << 40) {
        return Err(bad_data(format!("implausible length {v}")));
    }
    Ok(v as usize)
}

/// Reads `len` items. `len` comes from the file, so the pre-allocation is
/// capped: a corrupt length runs into the end of the file (a typed error)
/// instead of requesting terabytes from the allocator.
fn get_vec<R: Read, T>(
    r: &mut R,
    len: usize,
    mut item: impl FnMut(&mut R) -> io::Result<T>,
) -> io::Result<Vec<T>> {
    let mut v = Vec::with_capacity(len.min(1 << 20));
    for _ in 0..len {
        v.push(item(r)?);
    }
    Ok(v)
}

fn put_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn put_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn put_str(w: &mut impl Write, s: &str) -> io::Result<()> {
    put_u32(w, s.len() as u32)?;
    w.write_all(s.as_bytes())
}

fn get_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn get_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn get_str(r: &mut impl Read) -> io::Result<String> {
    let len = get_u32(r)? as usize;
    // Grows with what is actually read, never with the file's length word.
    let mut buf = Vec::new();
    r.take(len as u64).read_to_end(&mut buf)?;
    if buf.len() != len {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    String::from_utf8(buf).map_err(|_| bad_data("non-UTF8 string"))
}

fn put_duration(w: &mut impl Write, d: Duration) -> io::Result<()> {
    put_u64(w, d.as_nanos().min(u64::MAX as u128) as u64)
}

fn get_duration(r: &mut impl Read) -> io::Result<Duration> {
    Ok(Duration::from_nanos(get_u64(r)?))
}

fn put_class(c: FailureClass) -> u32 {
    match c {
        FailureClass::Fatal => 0,
        FailureClass::Retryable => 1,
        FailureClass::Memory => 2,
        FailureClass::RankLost => 3,
    }
}

fn get_class(v: u32) -> io::Result<FailureClass> {
    Ok(match v {
        0 => FailureClass::Fatal,
        1 => FailureClass::Retryable,
        2 => FailureClass::Memory,
        3 => FailureClass::RankLost,
        other => return Err(bad_data(format!("unknown failure class {other}"))),
    })
}

fn put_action(a: RecoveryAction) -> u32 {
    match a {
        RecoveryAction::Restarted => 0,
        RecoveryAction::Escalated => 1,
        RecoveryAction::DiscardedCheckpoint => 2,
        RecoveryAction::GaveUp => 3,
        RecoveryAction::FailedOver => 4,
    }
}

fn get_action(v: u32) -> io::Result<RecoveryAction> {
    Ok(match v {
        0 => RecoveryAction::Restarted,
        1 => RecoveryAction::Escalated,
        2 => RecoveryAction::DiscardedCheckpoint,
        3 => RecoveryAction::GaveUp,
        4 => RecoveryAction::FailedOver,
        other => return Err(bad_data(format!("unknown recovery action {other}"))),
    })
}

fn put_stats(w: &mut impl Write, s: &RunStats) -> io::Result<()> {
    for c in COUNTERS {
        put_u64(w, (c.get)(s))?;
    }
    put_phases(w, &s.phases)?;
    put_duration(w, s.total_time)?;
    put_str(w, &s.kernel_tier)?;
    put_u64(w, s.iterations.len() as u64)?;
    for it in &s.iterations {
        put_u64(w, it.position as u64)?;
        put_str(w, &it.reaction)?;
        put_u32(w, it.reversible as u32)?;
        for v in [
            it.pos as u64,
            it.neg as u64,
            it.zero as u64,
            it.pairs,
            it.numeric_pass,
            it.prefiltered,
            it.deduped,
            it.accepted,
            it.modes_after as u64,
        ] {
            put_u64(w, v)?;
        }
        put_phases(w, &it.phases)?;
    }
    put_u64(w, s.recovery.events.len() as u64)?;
    for e in &s.recovery.events {
        put_u64(w, e.at_us)?;
        put_u32(w, e.attempt)?;
        put_str(w, &e.error)?;
        put_u32(w, put_class(e.class))?;
        put_u32(w, put_action(e.action))?;
        match e.resumed_from {
            Some(it) => {
                put_u32(w, 1)?;
                put_u64(w, it)?;
            }
            None => put_u32(w, 0)?,
        }
    }
    Ok(())
}

fn put_phases(w: &mut impl Write, p: &PhaseBreakdown) -> io::Result<()> {
    Phase::ALL.iter().try_for_each(|&phase| put_duration(w, p[phase]))
}

fn get_phases<R: Read>(r: &mut R) -> io::Result<PhaseBreakdown> {
    let mut p = PhaseBreakdown::default();
    for &phase in Phase::ALL {
        p[phase] = get_duration(r)?;
    }
    Ok(p)
}

fn get_stats<R: Read>(r: &mut R) -> io::Result<RunStats> {
    let mut s = RunStats::default();
    for c in COUNTERS {
        *(c.get_mut)(&mut s) = get_u64(r)?;
    }
    s.phases = get_phases(r)?;
    s.total_time = get_duration(r)?;
    s.kernel_tier = get_str(r)?;
    let niter = checked_len(get_u64(r)?)?;
    s.iterations = get_vec(r, niter, |r| {
        Ok(IterationStats {
            position: get_u64(r)? as usize,
            reaction: get_str(r)?,
            reversible: get_u32(r)? != 0,
            pos: get_u64(r)? as usize,
            neg: get_u64(r)? as usize,
            zero: get_u64(r)? as usize,
            pairs: get_u64(r)?,
            numeric_pass: get_u64(r)?,
            prefiltered: get_u64(r)?,
            deduped: get_u64(r)?,
            accepted: get_u64(r)?,
            modes_after: get_u64(r)? as usize,
            phases: get_phases(r)?,
        })
    })?;
    let nevents = checked_len(get_u64(r)?)?;
    s.recovery.events = get_vec(r, nevents, |r| {
        Ok(RecoveryEvent {
            at_us: get_u64(r)?,
            attempt: get_u32(r)?,
            error: get_str(r)?,
            class: get_class(get_u32(r)?)?,
            action: get_action(get_u32(r)?)?,
            resumed_from: if get_u32(r)? != 0 { Some(get_u64(r)?) } else { None },
        })
    })?;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::build_problem;
    use efm_bitset::{Pattern1, Pattern2};
    use efm_metnet::compress;
    use efm_numeric::{DynInt, F64Tol};

    fn toy_problem() -> EfmProblem<DynInt> {
        let net = efm_metnet::examples::toy_network();
        let (red, _) = compress(&net);
        build_problem::<DynInt>(&red, &EfmOptions::default()).unwrap()
    }

    #[test]
    fn capture_restore_resumes_identically() {
        let problem = toy_problem();
        let opts = EfmOptions::default();
        let fp = problem_fingerprint(&problem);

        // Run halfway, snapshot, and compare a resumed finish against an
        // uninterrupted run.
        let mut eng = Engine::<Pattern1, DynInt>::new(&problem, &opts).unwrap();
        let halfway = eng.remaining() / 2;
        for _ in 0..halfway {
            eng.step();
        }
        let ck = EngineCheckpoint::capture(&eng, fp);
        assert_eq!(ck.iterations_completed(), halfway as u64);

        let mut resumed = ck.restore::<Pattern1, DynInt>(&problem, &opts).unwrap();
        assert_eq!(resumed.cursor, eng.cursor);
        assert_eq!(resumed.modes.len(), eng.modes.len());
        while !eng.done() {
            eng.step();
            resumed.step();
        }
        let direct: Vec<_> = eng.final_supports();
        let from_ck: Vec<_> = resumed.final_supports();
        assert_eq!(direct, from_ck);
        assert_eq!(eng.stats.candidates_generated, resumed.stats.candidates_generated);
    }

    #[test]
    fn binary_roundtrip_is_exact() {
        let problem = toy_problem();
        let opts = EfmOptions::default();
        let mut eng = Engine::<Pattern1, DynInt>::new(&problem, &opts).unwrap();
        eng.step();
        eng.step();
        let ck = EngineCheckpoint::capture(&eng, problem_fingerprint(&problem));
        let mut buf = Vec::new();
        ck.write_to(&mut buf).unwrap();
        let back = EngineCheckpoint::read_from(&buf[..]).unwrap();
        assert_eq!(back, ck);
    }

    #[test]
    fn rejects_mismatches() {
        let problem = toy_problem();
        let opts = EfmOptions::default();
        let eng = Engine::<Pattern1, DynInt>::new(&problem, &opts).unwrap();
        let ck = EngineCheckpoint::capture(&eng, problem_fingerprint(&problem));

        // Wrong scalar backend.
        let fproblem = {
            let net = efm_metnet::examples::toy_network();
            let (red, _) = compress(&net);
            build_problem::<F64Tol>(&red, &opts).unwrap()
        };
        match ck.restore::<Pattern1, F64Tol>(&fproblem, &opts).err() {
            Some(EfmError::Checkpoint(m)) => assert!(m.contains("scalar"), "{m}"),
            other => panic!("expected scalar mismatch, got {other:?}"),
        }

        // Wrong pattern width.
        match ck.restore::<Pattern2, DynInt>(&problem, &opts).err() {
            Some(EfmError::Checkpoint(m)) => assert!(m.contains("width"), "{m}"),
            other => panic!("expected width mismatch, got {other:?}"),
        }

        // Wrong problem (perturbed fingerprint).
        let mut wrong = ck.clone();
        wrong.fingerprint ^= 1;
        match wrong.restore::<Pattern1, DynInt>(&problem, &opts).err() {
            Some(EfmError::Checkpoint(m)) => assert!(m.contains("fingerprint"), "{m}"),
            other => panic!("expected fingerprint mismatch, got {other:?}"),
        }
    }

    #[test]
    fn detects_corruption() {
        let problem = toy_problem();
        let opts = EfmOptions::default();
        let eng = Engine::<Pattern1, DynInt>::new(&problem, &opts).unwrap();
        let ck = EngineCheckpoint::capture(&eng, problem_fingerprint(&problem));
        let mut buf = Vec::new();
        ck.write_to(&mut buf).unwrap();
        buf[0] = b'X';
        assert!(EngineCheckpoint::read_from(&buf[..]).is_err());
        let mut buf2 = Vec::new();
        ck.write_to(&mut buf2).unwrap();
        buf2.truncate(buf2.len() - 5);
        assert!(EngineCheckpoint::read_from(&buf2[..]).is_err());
    }

    #[test]
    fn truncation_at_any_point_yields_typed_error() {
        // Every prefix of a valid file — including prefixes landing exactly
        // on record boundaries, which field-level read_exact alone cannot
        // notice — must fail to parse, never panic or restore garbage.
        let problem = toy_problem();
        let opts = EfmOptions::default();
        let mut eng = Engine::<Pattern1, DynInt>::new(&problem, &opts).unwrap();
        eng.step();
        let ck = EngineCheckpoint::capture(&eng, problem_fingerprint(&problem));
        let mut buf = Vec::new();
        ck.write_to(&mut buf).unwrap();
        for cut in 0..buf.len() {
            assert!(
                EngineCheckpoint::read_from(&buf[..cut]).is_err(),
                "prefix of {cut}/{} bytes parsed as a valid checkpoint",
                buf.len()
            );
        }
        assert!(EngineCheckpoint::read_from(&buf[..]).is_ok());
    }

    #[test]
    fn truncated_file_on_disk_yields_typed_checkpoint_error() {
        let problem = toy_problem();
        let opts = EfmOptions::default();
        let mut eng = Engine::<Pattern1, DynInt>::new(&problem, &opts).unwrap();
        eng.step();
        let ck = EngineCheckpoint::capture(&eng, problem_fingerprint(&problem));
        let dir = std::env::temp_dir().join(format!("efm-ckpt-trunc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trunc.efck");
        ck.save(&path).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Cut right before the footer: the body parses, the footer is gone.
        std::fs::write(&path, &full[..full.len() - 12]).unwrap();
        match EngineCheckpoint::load(&path) {
            Err(EfmError::Checkpoint(m)) => {
                assert!(m.contains("footer") || m.contains("truncat"), "{m}")
            }
            other => panic!("expected typed checkpoint error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_fails_the_crc() {
        let problem = toy_problem();
        let opts = EfmOptions::default();
        let mut eng = Engine::<Pattern1, DynInt>::new(&problem, &opts).unwrap();
        eng.step();
        let ck = EngineCheckpoint::capture(&eng, problem_fingerprint(&problem));
        let mut buf = Vec::new();
        ck.write_to(&mut buf).unwrap();
        // Flip a bit inside a numeric payload (past the header) — the field
        // parses fine, only the CRC notices.
        let mid = buf.len() / 2;
        buf[mid] ^= 0x01;
        let err = EngineCheckpoint::read_from(&buf[..]).unwrap_err();
        let msg = err.to_string();
        // Either an earlier length/utf8 check or the CRC must reject it.
        assert!(!msg.is_empty());
    }

    #[test]
    fn every_stats_field_roundtrips() {
        // Every declared counter and phase, of the run and of each
        // iteration record, the other `RunStats` fields, one recovery event
        // and the stripe weights set to distinct nonzero values: a field
        // the codec drops or swaps shows up as an inequality.
        let problem = toy_problem();
        let opts = EfmOptions::default();
        let mut eng = Engine::<Pattern1, DynInt>::new(&problem, &opts).unwrap();
        eng.step();
        eng.step();
        let mut ck = EngineCheckpoint::capture(&eng, problem_fingerprint(&problem));
        let ms = Duration::from_millis;
        let s = &mut ck.stats;
        for (i, c) in COUNTERS.iter().enumerate() {
            *(c.get_mut)(s) = 101 + i as u64;
        }
        let phases = |base: u64| {
            let mut p = PhaseBreakdown::default();
            for (i, &phase) in Phase::ALL.iter().enumerate() {
                p[phase] = ms(base + i as u64);
            }
            p
        };
        s.phases = phases(1);
        for (i, it) in s.iterations.iter_mut().enumerate() {
            it.phases = phases(100 * (i as u64 + 1));
        }
        s.total_time = ms(7);
        s.kernel_tier = "avx2".to_string();
        s.recovery.events.push(RecoveryEvent {
            at_us: 1_234_567,
            attempt: 2,
            error: "rank 1: injected crash at communicate[3]".to_string(),
            class: FailureClass::Retryable,
            action: RecoveryAction::Restarted,
            resumed_from: Some(3),
        });
        ck.stripe_weights = vec![3, 1, 2, 2];
        assert!(ck.stats.iterations.len() >= 2);
        let mut buf = Vec::new();
        ck.write_to(&mut buf).unwrap();
        assert_eq!(EngineCheckpoint::read_from(&buf[..]).unwrap(), ck);
    }

    #[test]
    fn other_versions_are_rejected_by_name() {
        let problem = toy_problem();
        let opts = EfmOptions::default();
        let eng = Engine::<Pattern1, DynInt>::new(&problem, &opts).unwrap();
        let mut engine_buf = Vec::new();
        EngineCheckpoint::capture(&eng, problem_fingerprint(&problem))
            .write_to(&mut engine_buf)
            .unwrap();
        let mut dnc_buf = Vec::new();
        DncCheckpoint::new("dynint", 1, 1).write_to(&mut dnc_buf).unwrap();
        for version in [7u32, 9] {
            let patch = |buf: &[u8]| {
                let mut b = buf.to_vec();
                b[4..8].copy_from_slice(&version.to_le_bytes());
                b
            };
            let errs = [
                EngineCheckpoint::read_from(&patch(&engine_buf)[..]).unwrap_err(),
                DncCheckpoint::read_from(&patch(&dnc_buf)[..]).unwrap_err(),
            ];
            for err in errs {
                assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                let msg = err.to_string();
                assert!(
                    msg.contains(&format!("unsupported checkpoint version {version}")),
                    "{msg}"
                );
            }
        }
    }

    #[test]
    fn forged_length_prefixes_yield_typed_errors() {
        // A length word the file cannot back must fail with a typed error,
        // never abort the process in the allocator.
        let problem = toy_problem();
        let opts = EfmOptions::default();
        let mut eng = Engine::<Pattern1, DynInt>::new(&problem, &opts).unwrap();
        eng.step();
        let ck = EngineCheckpoint::capture(&eng, problem_fingerprint(&problem));
        let mut engine_buf = Vec::new();
        ck.write_to(&mut engine_buf).unwrap();
        let mut dnc = DncCheckpoint::new("dynint", 1, 1);
        dnc.record(DncSubsetResult {
            id: 0,
            skipped_empty: false,
            supports: vec![vec![1, 2]],
            stats: RunStats::default(),
        });
        let mut dnc_buf = Vec::new();
        dnc.write_to(&mut dnc_buf).unwrap();

        // Offsets past the header (magic, version, kind) and scalar tag.
        let header = 12 + 4 + ck.scalar_tag.len();
        let nrev_at = header + 4 + 4 * 8;
        let nmodes_at = nrev_at + 8 + 8 * ck.rev_positions.len() + 2 * 8;
        let nbits_at = nmodes_at + 8;
        let nwords_at = 12 + 4 + dnc.scalar_tag.len() + 8 + 4;
        assert_eq!(engine_buf[nrev_at..nrev_at + 8], (ck.rev_positions.len() as u64).to_le_bytes());
        assert_eq!(
            engine_buf[nmodes_at..nmodes_at + 8],
            (ck.mode_patterns.len() as u64).to_le_bytes()
        );
        assert_eq!(
            engine_buf[nbits_at..nbits_at + 4],
            (ck.mode_patterns[0].len() as u32).to_le_bytes()
        );
        assert_eq!(dnc_buf[nwords_at..nwords_at + 8], 1u64.to_le_bytes());

        let forge = |buf: &[u8], at: usize, word: &[u8]| {
            let mut b = buf.to_vec();
            b[at..at + word.len()].copy_from_slice(word);
            b
        };
        let huge = (1u64 << 40).to_le_bytes();
        let forged_engine = [
            forge(&engine_buf, nrev_at, &huge),
            forge(&engine_buf, nmodes_at, &huge),
            forge(&engine_buf, nbits_at, &u32::MAX.to_le_bytes()),
        ];
        let dir = std::env::temp_dir().join(format!("efm-ckpt-forged-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("forged.efck");
        for bytes in &forged_engine {
            let err = EngineCheckpoint::read_from(&bytes[..]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            std::fs::write(&path, bytes).unwrap();
            assert!(matches!(EngineCheckpoint::load(&path), Err(EfmError::Checkpoint(_))));
        }
        let forged_dnc = forge(&dnc_buf, nwords_at, &huge);
        let err = DncCheckpoint::read_from(&forged_dnc[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        std::fs::write(&path, &forged_dnc).unwrap();
        assert!(matches!(DncCheckpoint::load(&path), Err(EfmError::Checkpoint(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dnc_checkpoint_roundtrips_with_bitmap() {
        let mut ck = DncCheckpoint::new("dynint", 0xfeed, 2);
        assert!(!ck.is_done(3));
        ck.record(DncSubsetResult {
            id: 3,
            skipped_empty: false,
            supports: vec![vec![0, 2, 5], vec![1, 4]],
            stats: RunStats { candidates_generated: 42, final_modes: 2, ..Default::default() },
        });
        ck.record(DncSubsetResult {
            id: 1,
            skipped_empty: true,
            supports: vec![],
            stats: RunStats::default(),
        });
        // Entries stay sorted by id whatever the completion order was.
        assert_eq!(ck.done.iter().map(|s| s.id).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(ck.bitmap(), vec![0b1010]);
        assert!(ck.is_done(1) && ck.is_done(3));
        assert!(!ck.is_done(0) && !ck.is_done(2));
        // Re-recording an id replaces, never duplicates.
        ck.record(DncSubsetResult {
            id: 3,
            skipped_empty: false,
            supports: vec![vec![7]],
            stats: RunStats::default(),
        });
        assert_eq!(ck.done.len(), 2);
        assert_eq!(ck.done[1].supports, vec![vec![7]]);

        let mut buf = Vec::new();
        ck.write_to(&mut buf).unwrap();
        let back = DncCheckpoint::read_from(&buf[..]).unwrap();
        assert_eq!(back, ck);
        // Every truncation fails with a typed error, as for engine files.
        for cut in 0..buf.len() {
            assert!(DncCheckpoint::read_from(&buf[..cut]).is_err(), "prefix {cut} parsed");
        }
        // A bit flip in the payload fails the CRC.
        let mid = buf.len() / 2;
        buf[mid] ^= 0x01;
        assert!(DncCheckpoint::read_from(&buf[..]).is_err());
    }

    #[test]
    fn dnc_checkpoint_saves_and_loads_on_disk() {
        let mut ck = DncCheckpoint::new("f64tol", 7, 1);
        ck.record(DncSubsetResult {
            id: 0,
            skipped_empty: false,
            supports: vec![vec![1, 2]],
            stats: RunStats::default(),
        });
        let dir = std::env::temp_dir().join(format!("efm-dnc-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("progress.efck");
        ck.save(&path).unwrap();
        assert_eq!(DncCheckpoint::load(&path).unwrap(), ck);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn engine_reader_rejects_dnc_records_with_typed_error() {
        // The two kinds share magic + version; each reader must name the
        // other's loader instead of mis-parsing the payload.
        let ck = DncCheckpoint::new("dynint", 1, 1);
        let mut buf = Vec::new();
        ck.write_to(&mut buf).unwrap();
        let err = EngineCheckpoint::read_from(&buf[..]).unwrap_err().to_string();
        assert!(err.contains("DncCheckpoint"), "{err}");

        let problem = toy_problem();
        let opts = EfmOptions::default();
        let eng = Engine::<Pattern1, DynInt>::new(&problem, &opts).unwrap();
        let eck = EngineCheckpoint::capture(&eng, problem_fingerprint(&problem));
        let mut ebuf = Vec::new();
        eck.write_to(&mut ebuf).unwrap();
        let err = DncCheckpoint::read_from(&ebuf[..]).unwrap_err().to_string();
        assert!(err.contains("EngineCheckpoint"), "{err}");
    }

    #[test]
    fn save_load_roundtrip_on_disk() {
        let problem = toy_problem();
        let opts = EfmOptions::default();
        let mut eng = Engine::<Pattern1, DynInt>::new(&problem, &opts).unwrap();
        eng.step();
        let ck = EngineCheckpoint::capture(&eng, problem_fingerprint(&problem));
        let dir = std::env::temp_dir().join(format!("efm-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.efck");
        ck.save(&path).unwrap();
        let back = EngineCheckpoint::load(&path).unwrap();
        assert_eq!(back, ck);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_distinguishes_problems() {
        let problem = toy_problem();
        let other = {
            let net = efm_metnet::generator::parallel_branches(4);
            let (red, _) = compress(&net);
            build_problem::<DynInt>(&red, &EfmOptions::default()).unwrap()
        };
        assert_ne!(problem_fingerprint(&problem), problem_fingerprint(&other));
    }
}
