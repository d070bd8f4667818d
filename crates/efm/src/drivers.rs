//! Serial and shared-memory (rayon) drivers — the paper's Algorithm 1 and
//! the EFMTools-style multithreaded variant it cites as prior work.

use crate::bridge::EfmScalar;
use crate::checkpoint::{problem_fingerprint, CheckpointConfig, EngineCheckpoint};
use crate::engine::{
    CandidateSet, Engine, GenArena, SignPartition, StreamStats, Survivors, STREAM_BATCH_PAIRS,
};
use crate::problem::EfmProblem;
use crate::types::{EfmError, EfmOptions, IterationStats, RunStats};
use efm_bitset::BitPattern;
use rayon::prelude::*;
use std::time::{Duration, Instant};

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
pub(crate) fn map_final_supports<P: BitPattern, S: EfmScalar>(
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

fn finalize<P: BitPattern, S: EfmScalar>(
    problem: &EfmProblem<S>,
    mut eng: Engine<P, S>,
    t0: Instant,
) -> SupportsAndStats {
    let sups = map_final_supports(problem, &eng);
    eng.stats.final_modes = sups.len();
    eng.stats.total_time = t0.elapsed();
    (sups, eng.stats)
}

/// Shared resumable loop: builds the engine (fresh or from a checkpoint),
/// runs `step` until done, snapshotting at iteration boundaries per `ckpt`.
fn run_resumable<P: BitPattern, S: EfmScalar>(
    problem: &EfmProblem<S>,
    opts: &EfmOptions,
    resume: Option<&EngineCheckpoint>,
    ckpt: Option<&CheckpointConfig>,
    mut step: impl FnMut(&mut Engine<P, S>) -> Result<(), EfmError>,
) -> Result<SupportsAndStats, EfmError> {
    let t0 = Instant::now();
    let fingerprint = problem_fingerprint(problem);
    let mut eng = match resume {
        Some(ck) => ck.restore::<P, S>(problem, opts)?,
        None => Engine::<P, S>::new(problem, opts)?,
    };
    while !eng.done() {
        check_limit(&eng, opts)?;
        {
            let _span = efm_obs::span("iteration");
            step(&mut eng)?;
        }
        note_progress(&eng);
        if let Some(c) = ckpt {
            if c.due(eng.cursor - eng.free_count) {
                let _span = efm_obs::span("checkpoint");
                EngineCheckpoint::capture(&eng, fingerprint).save(&c.path)?;
            }
        }
    }
    Ok(finalize(problem, eng, t0))
}

/// Emits the human `--progress` line for the engine's latest iteration
/// (no-op unless progress reporting is enabled). Shared by the serial and
/// rayon drivers here and by the cluster driver's rank 0.
pub(crate) fn note_progress<P: BitPattern, S: EfmScalar>(eng: &Engine<P, S>) {
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
    serial_supports_resumable::<P, S>(problem, opts, None, None)
}

/// Serial Algorithm 1 with optional resume-from-checkpoint and optional
/// iteration-boundary checkpoint writes.
pub fn serial_supports_resumable<P: BitPattern, S: EfmScalar>(
    problem: &EfmProblem<S>,
    opts: &EfmOptions,
    resume: Option<&EngineCheckpoint>,
    ckpt: Option<&CheckpointConfig>,
) -> Result<SupportsAndStats, EfmError> {
    // One arena for the whole run: reset (not freed) each iteration, so
    // steady-state iterations perform no candidate-buffer allocation.
    let mut arena = GenArena::new();
    run_resumable::<P, S>(problem, opts, resume, ckpt, move |eng| {
        eng.iterate(|eng, part| eng.stream_whole(part, &mut arena), &mut |_| Ok(())).map(drop)
    })
}

/// Runs the serial algorithm, invoking `on_iteration` after every step —
/// the trace hook used to reproduce the paper's Fig. 2 walk-through.
pub fn serial_supports_traced<P: BitPattern, S: EfmScalar>(
    problem: &EfmProblem<S>,
    opts: &EfmOptions,
    mut on_iteration: impl FnMut(&IterationStats),
) -> Result<SupportsAndStats, EfmError> {
    let mut arena = GenArena::new();
    run_resumable::<P, S>(problem, opts, None, None, move |eng| {
        on_iteration(
            &eng.iterate(|eng, part| eng.stream_whole(part, &mut arena), &mut |_| Ok(()))?,
        );
        Ok(())
    })
}

/// Serial Algorithm 1 that can *grow* mid-run: once `grow()` first returns
/// true the remaining iterations split their pair grids across the shared
/// pool like [`rayon_supports`]. The divide-and-conquer scheduler uses
/// this as its straggler path for the serial backend — while other
/// subsets are queued, each runs single-threaded (maximum throughput
/// across subsets); when workers go idle because the queue is drained,
/// the survivors' pair grids are re-split across the pool instead of
/// leaving cores parked. The serial and rayon passes advance the engine
/// through identical states, so the switch point cannot change the
/// result.
pub fn adaptive_supports<P: BitPattern, S: EfmScalar>(
    problem: &EfmProblem<S>,
    opts: &EfmOptions,
    mut grow: impl FnMut() -> bool,
) -> Result<SupportsAndStats, EfmError> {
    let mut grown = false;
    let mut arena = GenArena::new();
    run_resumable::<P, S>(problem, opts, None, None, move |eng| {
        if !grown && grow() {
            grown = true;
            efm_obs::instant("dnc grow to pool");
            efm_obs::counter_add("dnc resplits", 1);
        }
        let iteration = if grown {
            eng.iterate(rayon_pass, &mut |_| Ok(()))
        } else {
            eng.iterate(|eng, part| eng.stream_whole(part, &mut arena), &mut |_| Ok(()))
        };
        iteration.map(drop)
    })
}

/// Runs the shared-memory parallel variant: the pair grid and the rank
/// tests of each iteration are split across the rayon pool.
pub fn rayon_supports<P: BitPattern, S: EfmScalar>(
    problem: &EfmProblem<S>,
    opts: &EfmOptions,
) -> Result<SupportsAndStats, EfmError> {
    rayon_supports_resumable::<P, S>(problem, opts, None, None)
}

/// Shared-memory parallel variant with optional resume-from-checkpoint and
/// optional iteration-boundary checkpoint writes.
pub fn rayon_supports_resumable<P: BitPattern, S: EfmScalar>(
    problem: &EfmProblem<S>,
    opts: &EfmOptions,
    resume: Option<&EngineCheckpoint>,
    ckpt: Option<&CheckpointConfig>,
) -> Result<SupportsAndStats, EfmError> {
    run_resumable::<P, S>(problem, opts, resume, ckpt, |eng| {
        eng.iterate(rayon_pass, &mut |_| Ok(())).map(drop)
    })
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
/// rounds.
fn rayon_pass<P: BitPattern, S: EfmScalar>(
    eng: &Engine<P, S>,
    part: &SignPartition<P>,
) -> Result<Survivors<P>, EfmError> {
    let t0 = Instant::now();
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
    let t1 = Instant::now();
    let sp = efm_obs::span(crate::cluster_algo::phases::DEDUP);
    let set = merge_runs_parallel(runs);
    drop(sp);
    let t2 = Instant::now();
    // The streaming phases interleave inside the parallel section, so the
    // wall time of that section is attributed proportionally to the summed
    // per-worker phase durations.
    let wall = t1 - t0;
    let sums = pass.t_generate + pass.t_dedup + pass.t_tree + pass.t_test;
    let scale = |d: Duration| {
        if sums.is_zero() {
            Duration::ZERO
        } else {
            wall.mul_f64(d.as_secs_f64() / sums.as_secs_f64())
        }
    };
    pass.t_generate = scale(pass.t_generate);
    pass.t_dedup = scale(pass.t_dedup) + (t2 - t1);
    pass.t_tree = scale(pass.t_tree);
    pass.t_test = scale(pass.t_test);
    Ok(Survivors::local((set, pass)))
}
