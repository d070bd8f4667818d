//! Serial and shared-memory (rayon) drivers — the paper's Algorithm 1 and
//! the EFMTools-style multithreaded variant it cites as prior work — and
//! [`run_resumable`], the one loop these and every cluster rank iterate
//! an [`Engine`] through.

use crate::bridge::EfmScalar;
use crate::checkpoint::{
    problem_fingerprint, CheckpointConfig, CheckpointWriter, EngineCheckpoint,
};
use crate::engine::{
    CandidateSet, Engine, GenArena, SignPartition, StreamStats, Survivors, STREAM_BATCH_PAIRS,
};
use crate::metrics;
use crate::problem::EfmProblem;
use crate::types::{EfmError, EfmOptions, RunStats};
use efm_bitset::BitPattern;
use rayon::prelude::*;
use std::time::Instant;

/// Supports (in reduced-network reaction indices) plus run statistics.
pub type SupportsAndStats = (Vec<Vec<usize>>, RunStats);

fn check_limit<P: BitPattern, S: EfmScalar>(
    eng: &Engine<P, S>,
    opts: &EfmOptions,
) -> Result<(), EfmError> {
    if let Some(limit) = opts.max_modes {
        if eng.modes.len() > limit {
            return Err(EfmError::ModeLimitExceeded { limit, at_iteration: eng.cursor });
        }
    }
    Ok(())
}

/// Maps the engine's final position-space supports into reduced-network
/// reaction indices, dropping two-cycle artifacts of split reversible
/// columns (a mode using both direction twins of one reaction).
fn map_final_supports<P: BitPattern, S: EfmScalar>(
    problem: &EfmProblem<S>,
    eng: &Engine<P, S>,
) -> Vec<Vec<usize>> {
    let mut out: Vec<Vec<usize>> = eng
        .final_supports()
        .iter()
        .filter_map(|p| {
            let cols = eng.support_to_cols(p);
            let twin_pair = cols
                .iter()
                .any(|&c| problem.twin_of[c].is_some_and(|t| cols.binary_search(&t).is_ok()));
            if twin_pair {
                return None;
            }
            let mut sup: Vec<usize> = cols.iter().map(|&c| problem.col_to_reduced[c]).collect();
            sup.sort_unstable();
            sup.dedup();
            Some(sup)
        })
        .collect();
    // An all-reversible-support EFM is enumerated in both directions when a
    // split column is involved; the two directions share one support.
    out.sort_unstable();
    out.dedup();
    out
}

/// One iteration of [`run_resumable`], however the backend splits it.
type Step<'a, P, S> = dyn FnMut(&mut Engine<P, S>) -> Result<(), EfmError> + 'a;

/// Where one run of [`run_resumable`] starts and who snapshots it.
pub(crate) struct Segment<'a> {
    /// Snapshot to restore the engine from instead of building it fresh.
    pub resume: Option<&'a EngineCheckpoint>,
    /// Snapshot policy; `None` writes no snapshots.
    pub ckpt: Option<&'a CheckpointConfig>,
    /// Whether this process writes the snapshots and reports progress:
    /// the single process, or a cluster's rank 0 (the state is
    /// replicated, so its snapshot stands for all ranks).
    pub lead: bool,
    /// Stripe provenance stamped on every snapshot; empty off the cluster.
    pub stripes: Vec<u64>,
}

impl<'a> Segment<'a> {
    /// A whole run of a single process.
    pub fn new(resume: Option<&'a EngineCheckpoint>, ckpt: Option<&'a CheckpointConfig>) -> Self {
        Segment { resume, ckpt, lead: true, stripes: Vec::new() }
    }
}

/// The one loop every backend iterates an [`Engine`] through: builds or
/// restores the engine, then runs `step` (one iteration, however the
/// backend splits it) until the engine is done, checking `max_modes`
/// before every iteration and handing due snapshots to the background
/// [`CheckpointWriter`]. Every cluster rank runs it on the same replicated
/// state, so all ranks stop and fail the mode limit at the same boundary,
/// and none is left waiting in a collective. `step` (and
/// [`local_supports`]'s `grow`) are trait objects so that all backends
/// share one compiled copy of the loop per pattern width and scalar: a
/// generic copy per caller grew the binary's text by about 50 KB and the
/// cluster benchmark's peak RSS by about 0.2 MiB.
pub(crate) fn run_resumable<P: BitPattern, S: EfmScalar>(
    problem: &EfmProblem<S>,
    opts: &EfmOptions,
    seg: Segment<'_>,
    step: &mut Step<'_, P, S>,
) -> Result<SupportsAndStats, EfmError> {
    let t0 = Instant::now();
    let setup = efm_obs::span("setup");
    let mut eng = match seg.resume {
        Some(ck) => ck.restore::<P, S>(problem, opts)?,
        None => Engine::<P, S>::new(problem, opts)?,
    };
    let fingerprint = problem_fingerprint(problem);
    // Dropping the writer (success *or* error return) drains it, so the
    // newest snapshot is durable before the run returns.
    let mut writer = seg.ckpt.filter(|_| seg.lead).map(|c| CheckpointWriter::spawn(&c.path));
    drop(setup);
    while !eng.done() {
        check_limit(&eng, opts)?;
        {
            // Together with the setup and finalize spans, this covers a
            // rank's track wall to wall, which is what lets `efm-analyze`
            // attribute every microsecond.
            let _span = efm_obs::span("iteration");
            step(&mut eng)?;
        }
        if !seg.lead {
            continue;
        }
        note_progress(&eng);
        if let (Some(c), Some(w)) = (seg.ckpt, writer.as_mut()) {
            // Lazy mode sheds a due snapshot while the writer is busy or
            // over its time budget, so the loop never waits on encoding.
            if c.due(eng.cursor - eng.free_count) && (!c.lazy || w.within_budget(t0.elapsed())) {
                let _span = efm_obs::span("checkpoint");
                w.submit(EngineCheckpoint::capture_deferred(
                    &eng,
                    fingerprint,
                    seg.stripes.clone(),
                ))?;
            }
        }
    }
    if let Some(w) = writer {
        w.finish()?;
    }
    let _span = efm_obs::span("finalize");
    let sups = map_final_supports(problem, &eng);
    eng.stats.final_modes = sups.len() as u64;
    eng.stats.total_time = t0.elapsed();
    Ok((sups, eng.stats))
}

/// Records each iteration's rank-test time from a finished run's records:
/// once per process that ran the engine, and only when the whole run
/// finished. A failed attempt records nothing, and the run resuming it
/// holds the earlier iterations' records, so a replayed iteration is never
/// counted twice.
pub(crate) fn trace_rank_tests(stats: &RunStats) {
    if !efm_obs::enabled() {
        return;
    }
    for it in &stats.iterations {
        efm_obs::hist::record("rank test batch us", it.phases.rank_test.as_micros() as u64);
    }
}

/// Emits the human `--progress` line for the engine's latest iteration
/// (no-op unless progress reporting is enabled).
fn note_progress<P: BitPattern, S: EfmScalar>(eng: &Engine<P, S>) {
    if !efm_obs::progress::progress_enabled() {
        return;
    }
    let done = (eng.cursor - eng.free_count) as u64;
    let total = (eng.stop_at - eng.free_count) as u64;
    let last_pairs = eng.stats.iterations.last().map_or(0, |r| r.pairs);
    // Cumulative pairs *examined*, summed from the iteration records so
    // the ETA's cost-per-unit and remaining-work legs share one unit.
    // (Dividing by a passed-candidate total here once inflated the ETA
    // by the prefilter ratio.)
    let pairs_done: u64 = eng.stats.iterations.iter().map(|r| r.pairs).sum();
    efm_obs::progress::progress(done, total, eng.modes.len() as u64, last_pairs, pairs_done);
}

/// Runs the serial Nullspace Algorithm (Algorithm 1 of the paper).
pub fn serial_supports<P: BitPattern, S: EfmScalar>(
    problem: &EfmProblem<S>,
    opts: &EfmOptions,
) -> Result<SupportsAndStats, EfmError> {
    local_supports::<P, S>(problem, opts, None, None, &mut || false)
}

/// Runs the shared-memory parallel variant: the pair grid and the rank
/// tests of each iteration are split across the rayon pool.
pub fn rayon_supports<P: BitPattern, S: EfmScalar>(
    problem: &EfmProblem<S>,
    opts: &EfmOptions,
) -> Result<SupportsAndStats, EfmError> {
    local_supports::<P, S>(problem, opts, None, None, &mut || true)
}

/// Algorithm 1 in one process, with optional resume-from-checkpoint and
/// optional iteration-boundary snapshots. Each iteration's pair grid runs
/// in one pass until `grow()` first returns true, and is split across the
/// rayon pool from then on (`|| false` is the serial driver, `|| true` the
/// rayon one). The divide-and-conquer scheduler grows a serial subset this
/// way once workers go idle because its queue is drained: the survivors'
/// pair grids are re-split across the pool instead of leaving cores
/// parked. Both passes advance the engine through identical states, so
/// the switch point cannot change the modes, the EFM set or the per-
/// iteration pair, prefilter and acceptance counts. It does change the
/// counters that depend on how the grid is cut: rayon chunks dedup
/// separately, so duplicates across chunks reach the rank test, and
/// `dedup_hits`, `rank_tests`, `stream_batches`, `kernel_blocks` and the
/// transient, arena and charged peaks follow the first iteration that
/// runs grown. Under the scheduler's spare-worker probe that iteration
/// depends on timing, so those counters vary from run to run.
pub(crate) fn local_supports<P: BitPattern, S: EfmScalar>(
    problem: &EfmProblem<S>,
    opts: &EfmOptions,
    resume: Option<&EngineCheckpoint>,
    ckpt: Option<&CheckpointConfig>,
    grow: &mut dyn FnMut() -> bool,
) -> Result<SupportsAndStats, EfmError> {
    let mut grown = false;
    // One arena for the whole serial run: reset (not freed) each
    // iteration, so steady-state iterations perform no candidate-buffer
    // allocation.
    let mut arena = GenArena::new();
    let (sups, stats) =
        run_resumable::<P, S>(problem, opts, Segment::new(resume, ckpt), &mut |eng| {
            grown = grown || grow();
            let iteration = if grown {
                eng.iterate(rayon_pass, &mut |_| Ok(()))
            } else {
                eng.iterate(|eng, part| eng.stream_whole(part, &mut arena), &mut |_| Ok(()))
            };
            iteration.map(drop)
        })?;
    trace_rank_tests(&stats);
    Ok((sups, stats))
}

/// Merges sorted candidate runs by parallel pairwise rounds: each round
/// halves the number of runs, with every pair merged on its own worker.
/// `log2(runs)` rounds replace the serial whole-set sort the runs came
/// from; the final round is a single two-way merge, but by then each
/// element has been touched only `log2(runs)` times instead of the
/// `log(n)` comparisons of a full re-sort.
fn merge_runs_parallel<P: BitPattern>(mut runs: Vec<CandidateSet<P>>) -> CandidateSet<P> {
    while runs.len() > 1 {
        let mut pairs = Vec::with_capacity(runs.len().div_ceil(2));
        let mut it = runs.into_iter();
        while let Some(a) = it.next() {
            pairs.push((a, it.next()));
        }
        runs = pairs
            .into_par_iter()
            .map(|(a, b)| match b {
                Some(b) => CandidateSet::merge_sorted(a, b),
                None => a,
            })
            .collect();
    }
    runs.pop().unwrap_or_default()
}

/// The rayon driver's pass over one iteration's pair grid: each chunk
/// flows batch by batch through [`Engine::stream_range`] on its worker,
/// so no worker ever materializes its full chunk. The per-worker transient
/// peaks are *summed* into the charged footprint (chunks run
/// concurrently), and the sorted survivor runs merge in parallel pairwise
/// rounds. Phase times are the workers' own clocks, summed, with the
/// measured merge of the runs added to the `dedup` phase.
fn rayon_pass<P: BitPattern, S: EfmScalar>(
    eng: &Engine<P, S>,
    part: &SignPartition<P>,
) -> Result<Survivors<P>, EfmError> {
    let pairs = part.pairs();
    let nchunks = (rayon::current_num_threads() * 4).max(1) as u64;
    let chunk = pairs.div_ceil(nchunks).max(1);
    let results: Vec<Result<(CandidateSet<P>, StreamStats), EfmError>> = (0..nchunks)
        .into_par_iter()
        .map(|c| {
            let start = (c * chunk).min(pairs);
            let end = (start + chunk).min(pairs);
            eng.stream_range(
                part,
                start,
                end,
                STREAM_BATCH_PAIRS,
                &mut GenArena::new(),
                &mut |_| Ok(()),
            )
        })
        .collect();
    let mut runs = Vec::with_capacity(results.len());
    let mut pass = StreamStats::default();
    for r in results {
        let (set, ss) = r?;
        pass.absorb(&ss);
        runs.push(set);
    }
    let t_runs = Instant::now();
    let sp = efm_obs::span(metrics::Phase::Dedup.span());
    let set = merge_runs_parallel(runs);
    drop(sp);
    pass.phases.dedup += t_runs.elapsed();
    Ok(Survivors::local((set, pass)))
}
