//! The combinatorial parallel Nullspace Algorithm (the paper's Algorithm 2)
//! on the simulated distributed-memory cluster.
//!
//! Every rank keeps a **full copy** of the current mode matrix — exactly the
//! memory weakness the paper's divide-and-conquer addition attacks. Each
//! iteration:
//!
//! 1. `ParallelGenerateEFMCands` — the rank processes its contiguous stripe
//!    of the `pos × neg` pair grid in bounded batches;
//! 2. `Sort&RemoveDuplicates` — locally, per batch;
//! 3. `RankTests` — locally, per batch (the rank test; the adjacency test
//!    compares candidates across stripes and waits for step 4's merge);
//! 4. `Communicate&Merge` — the local survivor stripes are exchanged as
//!    index-only `(pattern, val_sup, parent pair)` records and folded into
//!    one sorted merge as they arrive (duplicates *across* ranks are
//!    possible and collapse there); each stripe travels with its rank's
//!    iteration counters. Parent indices mean the same on every rank,
//!    since the mode matrix is replicated;
//! 5. `RemoveNegColumns` + append — `Engine::iterate`, as on every
//!    backend: the adjacency test on the merged set, values recomputed
//!    for the survivors, and every rank advances to the identical next
//!    state with the whole cluster's counters in its statistics.
//!
//! So the run statistics are replicated like the mode matrix: every rank
//! holds whole-cluster totals. Phase wall-times and per-phase work
//! counters stay per rank and are recorded through the cluster's
//! instrumentation. The memory meter charges the replicated mode
//! matrix, every generation batch, the rank's **local survivor stripe**
//! (whose size varies across ranks), the fold of the exchange, and the
//! merged survivors with their values before the state advances; a
//! failing charge on any single rank aborts the whole run through the
//! cluster's cooperative abort propagation — peers blocked in the
//! allgather are woken with [`ClusterError::Aborted`] and `run_cluster`
//! reports the originating `MemoryExceeded`.
//!
//! Rank 0 can additionally write an iteration-boundary
//! [`EngineCheckpoint`](crate::checkpoint::EngineCheckpoint) after each
//! state advance (the state, statistics included, is identical on every
//! rank at that point), so an aborted run resumes from the last completed
//! iteration and counts like an uninterrupted one.

use crate::bridge::EfmScalar;
use crate::checkpoint::{problem_fingerprint, CheckpointConfig, EngineCheckpoint};
use crate::engine::{
    CandidateSet, Engine, SignPartition, StreamStats, Survivors, STREAM_BATCH_PAIRS,
};
use crate::problem::EfmProblem;
use crate::types::{EfmError, EfmOptions, RunStats};
use efm_bitset::BitPattern;
use efm_cluster::{run_cluster, ClusterConfig, ClusterError, NodeCtx};
use std::cell::Cell;
use std::time::{Duration, Instant};

/// Phase labels used with the cluster instrumentation (match Table II rows).
pub mod phases {
    /// Candidate generation.
    pub const GENERATE: &str = "gen cand";
    /// Local sort + duplicate removal.
    pub const DEDUP: &str = "sort/dedup";
    /// Duplicate drop against zero-row modes (traces and the benchmark read
    /// this label).
    pub const TREE: &str = "tree filter";
    /// Local rank tests.
    pub const RANK: &str = "rank test";
    /// Allgather of candidate buffers.
    pub const COMMUNICATE: &str = "communicate";
    /// Bytes shipped through allgather (work counter, not a timer).
    pub const COMM_BYTES: &str = "comm bytes";
    /// Global merge + dedup + state advance.
    pub const MERGE: &str = "merge";
}

/// Result of one rank of a cluster run.
#[derive(Debug, Clone)]
pub struct ClusterNodeOutcome {
    /// Supports in reduced-reaction indices (identical on every rank; only
    /// rank 0's copy is used by callers). Empty when the run paused at a
    /// segment boundary before finishing.
    pub supports: Vec<Vec<usize>>,
    /// Run statistics: whole-cluster totals, identical on every rank
    /// except for the rank-local times. A rank's own stripe share is in
    /// its report's `phase_work`.
    pub stats: RunStats,
    /// Rank 0's snapshot of the (replicated) engine state when a bounded
    /// segment paused before `eng.done()`; `None` on completion and on all
    /// other ranks.
    pub checkpoint: Option<EngineCheckpoint>,
}

/// Outcome of a cluster run plus per-rank reports.
#[derive(Debug, Clone)]
pub struct ClusterOutcome {
    /// Supports in reduced-reaction indices.
    pub supports: Vec<Vec<usize>>,
    /// Global statistics: pair counts are totals over the whole grid;
    /// phase times are the *maximum* over ranks per phase (the
    /// bulk-synchronous model of wall time).
    pub stats: RunStats,
    /// Per-rank phase times in seconds, keyed by phase label.
    pub per_rank: Vec<efm_cluster::NodeReport<ClusterNodeOutcome>>,
}

/// Runs Algorithm 2 on a simulated cluster of `cfg.nodes` ranks.
pub fn cluster_supports<P: BitPattern, S: EfmScalar>(
    problem: &EfmProblem<S>,
    opts: &EfmOptions,
    cfg: &ClusterConfig,
) -> Result<ClusterOutcome, EfmError> {
    cluster_supports_resumable::<P, S>(problem, opts, cfg, None, None)
}

/// Runs Algorithm 2 with optional resume-from-checkpoint and optional
/// iteration-boundary checkpoint writes (performed by rank 0; the state is
/// replicated, so one rank's snapshot is everyone's).
pub fn cluster_supports_resumable<P: BitPattern, S: EfmScalar>(
    problem: &EfmProblem<S>,
    opts: &EfmOptions,
    cfg: &ClusterConfig,
    resume: Option<&EngineCheckpoint>,
    ckpt: Option<&CheckpointConfig>,
) -> Result<ClusterOutcome, EfmError> {
    let (out, _paused) = cluster_supports_segment::<P, S>(problem, opts, cfg, resume, ckpt, None)?;
    Ok(out)
}

/// Runs Algorithm 2 up to an iteration bound: like
/// [`cluster_supports_resumable`], but when `stop_after` is `Some(k)` the
/// replicated engine pauses before executing absolute iteration `k` and
/// rank 0 captures the state as an [`EngineCheckpoint`], returned alongside
/// the (partial) outcome. The scheduler's straggler path uses this to
/// re-split a slow subset's pair grid mid-run: resume the returned
/// checkpoint under a `ClusterConfig` with more nodes and the stripes
/// re-balance automatically (`rank * pairs / nodes` is recomputed each
/// iteration). A `None` second element means the run finished.
pub fn cluster_supports_segment<P: BitPattern, S: EfmScalar>(
    problem: &EfmProblem<S>,
    opts: &EfmOptions,
    cfg: &ClusterConfig,
    resume: Option<&EngineCheckpoint>,
    ckpt: Option<&CheckpointConfig>,
    stop_after: Option<u64>,
) -> Result<(ClusterOutcome, Option<EngineCheckpoint>), EfmError> {
    // Surface width/checkpoint errors before spawning the cluster.
    match resume {
        Some(ck) => drop(ck.restore::<P, S>(problem, opts)?),
        None => drop(Engine::<P, S>::new(problem, opts)?),
    }

    let reports =
        run_cluster(cfg, |ctx| node_body::<P, S>(ctx, problem, opts, resume, ckpt, stop_after))?;

    // Every rank's statistics are whole-cluster totals (each survivor
    // stripe travels with its rank's counters), so rank 0's stand for the
    // run, resumed or not. Only the meters and the wall times are per rank.
    let mut stats = reports[0].value.stats.clone();
    // Rank 0's own peak includes a resumed checkpoint's high water, which
    // the segment's fresh meters know nothing about.
    stats.peak_bytes = reports.iter().map(|r| r.peak_memory).fold(stats.peak_bytes, u64::max);
    // Bulk-synchronous wall-time model: each phase costs its slowest rank.
    let phase_max = |label: &str| {
        reports.iter().filter_map(|r| r.phase_times.get(label).copied()).max().unwrap_or_default()
    };
    stats.phases.generate = phase_max(phases::GENERATE);
    stats.phases.dedup = phase_max(phases::DEDUP);
    stats.phases.tree_filter = phase_max(phases::TREE);
    stats.phases.rank_test = phase_max(phases::RANK);
    stats.phases.communicate = phase_max(phases::COMMUNICATE);
    stats.phases.merge = phase_max(phases::MERGE);
    stats.total_time = reports.iter().map(|r| r.value.stats.total_time).max().unwrap_or_default();
    stats.final_modes = reports[0].value.supports.len();
    let supports = reports[0].value.supports.clone();
    let paused = reports[0].value.checkpoint.clone();
    Ok((ClusterOutcome { supports, stats, per_rank: reports }, paused))
}

/// This rank's half-open slice of the iteration's `pos × neg` pair grid.
/// `None` (or a weight vector whose length does not match the group) gives
/// the paper's uniform `rank·pairs/nodes` stripes; otherwise the grid is
/// split proportionally to the weights — the failover path's mechanism for
/// spreading a dead rank's share across every survivor instead of doubling
/// one neighbour's load. The proportional split uses `u128` prefix sums so
/// it is exact for genome-scale pair counts, and with uniform weights it
/// reproduces the classic `rank·pairs/nodes` bounds bit for bit (so
/// fault-free runs are unchanged by passing explicit uniform weights).
fn stripe_bounds(pairs: u64, nodes: u64, rank: u64, weights: Option<&[u64]>) -> (u64, u64) {
    if let Some(w) = weights {
        if w.len() as u64 == nodes {
            let total: u128 = w.iter().map(|&x| x.max(1) as u128).sum();
            let prefix: u128 = w[..rank as usize].iter().map(|&x| x.max(1) as u128).sum();
            let mine = w[rank as usize].max(1) as u128;
            let start = (pairs as u128 * prefix / total) as u64;
            let end = (pairs as u128 * (prefix + mine) / total) as u64;
            return (start, end);
        }
    }
    (rank * pairs / nodes, (rank + 1) * pairs / nodes)
}

/// The stripe weights a rank-0 snapshot records as provenance:
/// the weights this run striped with, normalized to the explicit uniform
/// vector when none were supplied — a resumed failover then always has a
/// well-formed prior to carve the survivors' shares from.
fn stripe_provenance(opts: &EfmOptions, nodes: usize) -> Vec<u64> {
    match &opts.stripe_weights {
        Some(w) if w.len() == nodes => w.clone(),
        _ => vec![1; nodes],
    }
}

fn node_body<P: BitPattern, S: EfmScalar>(
    ctx: &NodeCtx,
    problem: &EfmProblem<S>,
    opts: &EfmOptions,
    resume: Option<&EngineCheckpoint>,
    ckpt: Option<&CheckpointConfig>,
    stop_after: Option<u64>,
) -> Result<ClusterNodeOutcome, ClusterError> {
    let t_run = Instant::now();
    let as_protocol = |e: EfmError| ClusterError::Protocol(e.to_string());
    let setup_span = efm_obs::span("setup");
    let mut eng = match resume {
        Some(ck) => ck.restore::<P, S>(problem, opts).map_err(as_protocol)?,
        None => Engine::<P, S>::new(problem, opts).map_err(as_protocol)?,
    };
    let fingerprint = problem_fingerprint(problem);
    // Rank 0 snapshots for everyone; the writes happen on a background
    // thread so the collective-synchronized iteration loop never waits on
    // disk. Dropping the writer (success *or* error return) drains it, so
    // the newest snapshot is durable before run_cluster reports back.
    let mut writer = match ckpt {
        Some(c) if ctx.rank() == 0 => Some(crate::checkpoint::CheckpointWriter::spawn(&c.path)),
        _ => None,
    };
    let rank = ctx.rank() as u64;
    let nodes = ctx.size() as u64;
    let my_rank = ctx.rank();
    // Bytes this rank's meter holds; both the iteration's driver and its
    // charge hook move it, hence the cell.
    let accounted = Cell::new(0u64);
    let track = |now: u64| -> Result<(), ClusterError> {
        ctx.memory().realloc(accounted.get(), now)?;
        accounted.set(now);
        Ok(())
    };
    track(eng.modes.approx_bytes())?;
    // Candidate-generation arena: lives for the whole run, reset (not
    // freed) each iteration, so steady-state iterations do not allocate
    // on the generation hot path.
    let mut arena = crate::engine::GenArena::new();
    drop(setup_span);

    while !eng.done() {
        // Absolute iteration index (checkpoint-stable): a resumed run
        // continues the numbering, so a fault planted at iteration k fires
        // at the same global point whether or not a restart happened.
        let iter_no = (eng.cursor - eng.free_count) as u64;
        // Segment bound: every rank computes the same iter_no from the
        // same replicated state, so all ranks pause together — no rank is
        // left blocked in a collective.
        if stop_after.is_some_and(|s| iter_no >= s) {
            break;
        }
        // One span per loop body: together with the phase spans nested
        // inside it, a rank track is covered wall-to-wall, which is what
        // lets `efm-analyze` attribute (rather than guess at) every
        // microsecond between setup and finalize.
        let _iter_span = efm_obs::span("iteration");
        ctx.fault_point("iteration", iter_no)?;
        let modes_bytes = eng.modes.approx_bytes();
        let mut stripe_bytes = 0;
        // `Engine::iterate` runs the tail after `drive` returns; these two
        // split its time between the rank-test and merge clocks.
        let mut t_stream_test = Duration::ZERO;
        let mut t_tail = Instant::now();
        let drive = |eng: &Engine<P, S>, part: &SignPartition<P>| {
            // --- Generation, sort/dedup, duplicate drop and the
            // per-candidate rank test run fused per bounded batch over
            // this rank's stripe of the pair grid, and every batch's
            // transient footprint is charged against the node capacity.
            let weights = opts.stripe_weights.as_deref();
            let (start, end) = stripe_bounds(part.pairs(), nodes, rank, weights);
            ctx.add_work(phases::GENERATE, end - start);
            let meter = ctx.memory();
            let mut transient_now = 0;
            let (local, pass) =
                eng.stream_range(part, start, end, STREAM_BATCH_PAIRS, &mut arena, &mut |t| {
                    meter.realloc(modes_bytes + transient_now, modes_bytes + t)?;
                    transient_now = t;
                    Ok(())
                })?;
            accounted.set(modes_bytes + transient_now);
            ctx.add_time(phases::GENERATE, pass.t_generate);
            ctx.add_time(phases::DEDUP, pass.t_dedup);
            ctx.add_time(phases::TREE, pass.t_tree);
            ctx.add_time(phases::RANK, pass.t_test);
            ctx.add_work(phases::RANK, pass.tested);
            t_stream_test = pass.t_test;
            ctx.fault_point("generate", iter_no)?;
            ctx.fault_point("dedup", iter_no)?;
            // The outgoing survivor stripe is this rank's private memory
            // load — it differs across ranks, so a capacity failure here
            // is *asymmetric* and relies on the abort propagation to
            // release the peers from the collectives below.
            let out_bytes = local.approx_bytes();
            track(modes_bytes + out_bytes)?;
            // --- RankTests: already applied per batch.
            ctx.fault_point("rank", iter_no)?;
            // --- Communicate & Merge, folded: stripes arrive one at a
            // time in rank order and merge into the accumulator as they
            // land, so no rank ever holds all `nodes` survivor stripes at
            // once. The high-water mark is the mode matrix plus the
            // growing merge plus ONE in-flight stripe — and every step of
            // it is charged against the memory meter. Cross-rank
            // duplicates collapse on key collision, the lower rank's copy
            // winning; parent indices mean the same on every rank, whose
            // mode matrices are identical.
            ctx.add_work(phases::COMM_BYTES, out_bytes * (nodes - 1));
            if efm_obs::enabled() {
                for dst in 0..nodes as usize {
                    if dst != my_rank {
                        ctx.note_traffic(dst, out_bytes);
                    }
                }
            }
            let t_comm = Instant::now();
            let mut t_merge = Duration::ZERO;
            // Each stripe travels with its rank's iteration counters, so
            // every rank sums the whole cluster's counts into its
            // `RunStats`, which then stay as replicated as the mode matrix
            // they describe.
            let mut remote = StreamStats::default();
            let mut charged = accounted.get();
            // The outgoing stripe is handed to the fabric and consumed
            // when the fold reaches `my_rank`; until then its bytes stay
            // charged on top of accumulator + incoming stripe.
            let held = |src: usize| if src < my_rank { out_bytes } else { 0 };
            let sp = efm_obs::span(phases::COMMUNICATE);
            let folded = ctx.allgather_fold(
                (local, pass.clone()),
                None::<CandidateSet<P>>,
                |acc, src, (incoming, counts)| {
                    stripe_bytes += incoming.approx_bytes();
                    if src != my_rank {
                        remote.add_stripe(&counts);
                    }
                    let Some(acc) = acc else {
                        let now = modes_bytes + incoming.approx_bytes() + held(src);
                        meter.realloc(charged, now)?;
                        charged = now;
                        return Ok(Some(incoming));
                    };
                    let now =
                        modes_bytes + acc.approx_bytes() + incoming.approx_bytes() + held(src);
                    meter.realloc(charged, now)?;
                    charged = now;
                    let t0 = Instant::now();
                    let msp = efm_obs::span(phases::MERGE);
                    let m = CandidateSet::merge_sorted(acc, incoming);
                    drop(msp);
                    t_merge += t0.elapsed();
                    let now = modes_bytes + m.approx_bytes() + held(src);
                    meter.realloc(charged, now)?;
                    charged = now;
                    Ok(Some(m))
                },
            )?;
            drop(sp);
            accounted.set(charged);
            ctx.add_time(phases::COMMUNICATE, t_comm.elapsed().saturating_sub(t_merge));
            ctx.add_time(phases::MERGE, t_merge);
            ctx.fault_point("communicate", iter_no)?;
            t_tail = Instant::now();
            let set = folded.expect("cluster size is at least one rank");
            Ok(Survivors { set, local: pass, remote })
        };
        // --- The adjacency test (on the merged set, so across stripes),
        // then RemoveNegColumns + append: every rank advances to the
        // identical next state, the merged survivors' values charged first.
        let mut charge = |bytes: u64| -> Result<(), EfmError> { Ok(track(modes_bytes + bytes)?) };
        let rec = eng.iterate(drive, &mut charge).map_err(|e| match e {
            EfmError::Cluster(c) => c,
            other => as_protocol(other),
        })?;
        let t_accept = rec.t_test.saturating_sub(t_stream_test);
        ctx.add_time(phases::RANK, t_accept);
        ctx.add_time(phases::MERGE, t_tail.elapsed().saturating_sub(t_accept));
        eng.stats.comm_messages += nodes * (nodes - 1);
        eng.stats.comm_bytes += stripe_bytes * (nodes - 1);
        track(eng.modes.approx_bytes())?;
        ctx.fault_point("merge", iter_no)?;
        if ctx.rank() == 0 {
            crate::drivers::note_progress(&eng);
        }
        // --- Iteration boundary: the state is again identical on every
        // rank, so rank 0's snapshot stands for all.
        if let (Some(c), Some(w)) = (ckpt, writer.as_mut()) {
            // Lazy mode sheds a due snapshot while the writer is busy or
            // over its time budget — the collective-synchronized loop
            // never waits on serialization, and checkpoint overhead stays
            // a bounded fraction of the run.
            if c.due(eng.cursor - eng.free_count) && (!c.lazy || w.within_budget(t_run.elapsed())) {
                // Stamp stripe provenance onto the deferred snapshot: the
                // serialization thread knows the engine state but not the
                // striping, which lives in the options.
                let weights = stripe_provenance(opts, nodes as usize);
                let job = EngineCheckpoint::capture_deferred(&eng, fingerprint);
                w.submit(move || {
                    let mut ck = job();
                    ck.stripe_weights = weights;
                    ck
                })
                .map_err(as_protocol)?;
            }
        }
    }
    if let Some(w) = writer.take() {
        w.finish().map_err(as_protocol)?;
    }

    if !eng.done() {
        // Paused at a segment boundary: no final supports yet. Rank 0's
        // snapshot (the state is replicated) lets the caller resume —
        // possibly on a differently-sized cluster.
        eng.stats.total_time = t_run.elapsed();
        let checkpoint = (ctx.rank() == 0).then(|| {
            let mut ck = EngineCheckpoint::capture(&eng, fingerprint);
            ck.stripe_weights = stripe_provenance(opts, nodes as usize);
            ck
        });
        let stats = eng.stats.clone();
        return Ok(ClusterNodeOutcome { supports: Vec::new(), stats, checkpoint });
    }

    let final_span = efm_obs::span("finalize");
    let supports: Vec<Vec<usize>> = crate::drivers::map_final_supports(problem, &eng);
    drop(final_span);
    eng.stats.final_modes = supports.len();
    eng.stats.total_time = t_run.elapsed();
    let stats = eng.stats.clone();
    Ok(ClusterNodeOutcome { supports, stats, checkpoint: None })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_weights_reproduce_classic_stripes() {
        // The weighted split must be bit-identical to `rank·pairs/nodes`
        // under uniform weights — fault-free runs see no change at all.
        for pairs in [0u64, 1, 7, 100, 12_345, u32::MAX as u64] {
            for nodes in 1u64..=8 {
                let w = vec![1u64; nodes as usize];
                for rank in 0..nodes {
                    let classic = (rank * pairs / nodes, (rank + 1) * pairs / nodes);
                    assert_eq!(stripe_bounds(pairs, nodes, rank, Some(&w)), classic);
                    assert_eq!(stripe_bounds(pairs, nodes, rank, None), classic);
                }
            }
        }
    }

    #[test]
    fn weighted_stripes_cover_the_grid_without_gaps() {
        let w = [3u64, 1, 2, 2];
        for pairs in [0u64, 1, 9, 1000, 99_991] {
            let mut cursor = 0;
            for rank in 0..4u64 {
                let (start, end) = stripe_bounds(pairs, 4, rank, Some(&w));
                assert_eq!(start, cursor, "stripe {rank} must abut its predecessor");
                assert!(end >= start);
                cursor = end;
            }
            assert_eq!(cursor, pairs, "stripes must cover the whole grid");
        }
        // Proportionality: rank 0 (weight 3) gets about 3/8 of the grid.
        let (s0, e0) = stripe_bounds(8000, 4, 0, Some(&w));
        assert_eq!((s0, e0), (0, 3000));
    }

    #[test]
    fn mismatched_weight_length_falls_back_to_uniform() {
        // A weight vector for a different group size (stale provenance)
        // must not skew the stripes.
        let stale = [5u64, 1];
        assert_eq!(stripe_bounds(900, 3, 1, Some(&stale)), (300, 600));
    }
}
