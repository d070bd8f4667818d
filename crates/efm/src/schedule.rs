//! Adaptive scheduling of divide-and-conquer subsets.
//!
//! The paper's Algorithm 3 splits enumeration into `2^qsub` independent
//! subproblems but runs them one after another; its own Table IV shows the
//! subsets are wildly imbalanced (candidate counts spread over orders of
//! magnitude), so a fixed execution order leaves most of the machine idle
//! behind the largest subset. This module runs the subsets through one
//! worker loop; [`DncSchedule::Serial`] is that loop with one worker taking
//! the subsets in id order (the paper's loop), [`DncSchedule::Steal`] runs
//! it *concurrently*:
//!
//! 1. **Probe.** Every subset's reduced subproblem is built up front (it is
//!    needed anyway), which both detects provably-empty subsets without
//!    spawning a worker and yields the inputs of a cost model — processed
//!    row count, kernel width, reversible-row count ([`estimate_cost`]).
//! 2. **Order + deal.** Runnable subsets are sorted longest-first and dealt
//!    round-robin into per-worker deques (the classic LPT heuristic).
//! 3. **Steal.** Under [`DncSchedule::Steal`] an idle worker steals from
//!    the *back* of the deque of the victim with the most estimated work
//!    remaining — the owner always holds its costliest subsets at the
//!    front, so steals take the cheapest task of the busiest worker. The
//!    per-worker remaining-cost tallies that guide victim choice are live
//!    telemetry: they are decremented as subsets finish, and the steal /
//!    re-split / imbalance figures are published as `efm-obs` counters.
//! 4. **Grow stragglers.** When the queues drain, idle capacity is fed
//!    back into the survivors instead of parking: a serial-backend subset
//!    switches its remaining iterations onto the shared rayon pool
//!    (`local_supports` in the drivers module). A cluster-backend subset
//!    keeps the node group it was dealt: the configured nodes are carved
//!    into one group per worker, so one worker runs on all of them.
//!
//! Failures are handled per subset, reusing the supervisor's
//! classification ([`crate::supervise::classify_failure`]): a retryable
//! failure (crashed rank, lost message, stale checkpoint) restarts *that
//! subset only*, from iteration 0, under a per-subset
//! [`DncConfig::max_retries`] budget, while its siblings keep running;
//! fatal and memory failures propagate. Every recovery action is recorded
//! as a [`RecoveryEvent`] in the subset's statistics.
//!
//! Progress is durable through [`DncCheckpoint`]: each completed
//! subset atomically rewrites a per-subset completion bitmap plus the
//! finished results, so a resumed run re-enumerates only unfinished
//! subsets regardless of the completion order the schedule produced.
//!
//! Every schedule produces the identical result: subset outcomes are
//! deterministic and results are assembled in subset-id order, so
//! [`DncSchedule::Serial`] (the default) and `Steal` differ only in
//! wall-clock shape — a property enforced by the differential suite in
//! `tests/backend_equivalence.rs`.

use crate::bridge::EfmScalar;
use crate::checkpoint::{dnc_fingerprint, DncCheckpoint, DncSubsetResult};
use crate::cluster_algo::cluster_supports_resumable;
use crate::divide::{
    resolve_partition, subset_pattern, subset_problem, Backend, Partition, SubsetReport,
};
use crate::drivers::{local_supports, SupportsAndStats};
use crate::problem::EfmProblem;
use crate::supervise::classify_failure;
use crate::types::{EfmError, EfmOptions, FailureClass, RecoveryAction, RecoveryEvent, RunStats};
use efm_bitset::BitPattern;
use efm_cluster::{ClusterConfig, FaultInjector, FaultPlan};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Execution order of the `2^qsub` divide-and-conquer subsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DncSchedule {
    /// The paper's sequential loop, subset 0 to `2^qsub − 1`: one worker
    /// with the whole machine. Default.
    #[default]
    Serial,
    /// Longest-first deal onto a worker pool (LPT), plus work stealing and
    /// straggler growth.
    Steal,
}

impl DncSchedule {
    /// Parses a CLI spelling (`serial`, `steal`).
    pub fn parse(s: &str) -> Option<DncSchedule> {
        match s {
            "serial" => Some(DncSchedule::Serial),
            "steal" => Some(DncSchedule::Steal),
            _ => None,
        }
    }
}

impl std::fmt::Display for DncSchedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DncSchedule::Serial => write!(f, "serial"),
            DncSchedule::Steal => write!(f, "steal"),
        }
    }
}

/// Configuration of the divide-and-conquer subset scheduler.
#[derive(Debug, Clone)]
pub struct DncConfig {
    /// Subset execution order.
    pub schedule: DncSchedule,
    /// Worker threads for the stealing schedule (`0` = one per
    /// available core, capped at the number of runnable subsets); the
    /// serial schedule always runs one.
    pub workers: usize,
    /// Per-subset restart budget: how many times one subset's *retryable*
    /// failures (crashed rank, lost message, stale checkpoint) are retried
    /// before the whole run fails. Fatal and memory failures are never
    /// retried here — they propagate to the supervisor / escalation layer.
    pub max_retries: u32,
    /// Divide-and-conquer progress checkpointing ([`DncCheckpoint`]):
    /// rewritten after every completed subset.
    pub checkpoint: Option<crate::checkpoint::CheckpointConfig>,
    /// Resume from `checkpoint.path` if it holds a matching progress
    /// record: completed subsets are skipped.
    pub resume: bool,
    /// Deterministic fault injection, per subset: subset `id` runs under a
    /// [`FaultInjector`] built from the plan (one-shot latches survive that
    /// subset's retries). Cluster backend only; used by the chaos suite.
    pub fault_plans: Vec<(usize, FaultPlan)>,
}

impl Default for DncConfig {
    fn default() -> Self {
        DncConfig {
            schedule: DncSchedule::Serial,
            workers: 0,
            max_retries: 3,
            checkpoint: None,
            resume: false,
            fault_plans: Vec::new(),
        }
    }
}

impl DncConfig {
    /// A concurrent work-stealing configuration with `workers` threads.
    pub fn steal(workers: usize) -> Self {
        DncConfig { schedule: DncSchedule::Steal, workers, ..Default::default() }
    }
}

/// Cost model seeding the longest-first order: processed-row count ×
/// kernel width² (candidate generation is pair-quadratic in the mode count,
/// which starts at the kernel width), inflated by the reversible-row count
/// (reversible rows keep both sign classes alive, so fewer modes settle per
/// iteration). Deliberately cheap and monotone rather than exact — the
/// stealing deque corrects mispredictions at run time.
fn estimate_cost<S: EfmScalar>(p: &EfmProblem<S>) -> u64 {
    let iters = (p.num_cols() - p.free_count - p.stop_before).max(1) as u64;
    let width = p.free_count.max(1) as u64;
    let rev = p.reversible.iter().filter(|&&r| r).count() as u64;
    (width * width * iters).saturating_mul(1 + rev).max(1)
}

/// Stripe weights for the N−1 survivors after rank `dead` is lost: the
/// dead rank's entry is removed and its share implicitly redistributed —
/// proportional striping over the remaining weights spreads the missing
/// capacity across every survivor instead of doubling one neighbour's
/// load (the same longest-first reasoning as the subset cost model).
pub fn survivor_weights(prior: &[u64], dead: usize) -> Vec<u64> {
    prior.iter().enumerate().filter(|&(r, _)| r != dead).map(|(_, &w)| w.max(1)).collect()
}

/// In-place failover after `err`: when it reports a lost non-coordinator
/// rank of the `*group`-rank cluster, the group shrinks by one and
/// `*weights` becomes the survivors' share of the prior striping, taken
/// from `provenance` (a checkpoint's record), else from `*weights`, else
/// uniform — whichever matches the group. The trace instant is named
/// after `label`. Returns the recovery event, or `None` (nothing changed)
/// when the loss cannot be absorbed in place: a lost coordinator, a
/// one-rank group, or any other error.
pub(crate) fn fail_over(
    label: &str,
    err: &EfmError,
    group: &mut usize,
    weights: &mut Option<Vec<u64>>,
    provenance: Option<&[u64]>,
    attempt: u32,
    resumed_from: Option<u64>,
) -> Option<RecoveryEvent> {
    let EfmError::Cluster(efm_cluster::ClusterError::RankLost { rank: dead, .. }) = err else {
        return None;
    };
    let (dead, n) = (*dead, *group);
    if n <= 1 || dead == 0 || dead >= n {
        return None;
    }
    let prior = provenance
        .filter(|w| w.len() == n)
        .map(<[u64]>::to_vec)
        .or_else(|| weights.take().filter(|w| w.len() == n))
        .unwrap_or_else(|| vec![1; n]);
    *weights = Some(survivor_weights(&prior, dead));
    *group = n - 1;
    if efm_obs::enabled() {
        efm_obs::instant_dyn(format!("{label}: rank {dead} lost, continuing on {} nodes", n - 1));
    }
    Some(RecoveryEvent {
        at_us: efm_obs::now_us(),
        attempt,
        error: err.to_string(),
        class: FailureClass::RankLost,
        action: RecoveryAction::FailedOver,
        resumed_from,
    })
}

/// Idle-node accounting for concurrent cluster subsets: the configured
/// `nodes` ranks are a shared machine, carved into per-subset groups of
/// one worker's share each (so one worker runs on all of them). Off the
/// cluster the pool is empty.
struct NodePool {
    free: Mutex<usize>,
    share: usize,
}

impl NodePool {
    fn new(total: usize, workers: usize) -> Self {
        NodePool { free: Mutex::new(total), share: total / workers }
    }

    /// Takes up to one worker's share of nodes; always returns a group of
    /// at least one rank (a fully-committed or empty pool gives a one-rank
    /// group rather than deadlocking). Returns `(group size, nodes
    /// charged)`.
    fn acquire(&self) -> (usize, usize) {
        let mut f = self.free.lock().unwrap();
        let take = self.share.max(1).min(*f);
        if take == 0 {
            (1, 0)
        } else {
            *f -= take;
            (take, take)
        }
    }

    fn release(&self, n: usize) {
        *self.free.lock().unwrap() += n;
    }
}

/// State shared by the workers of the subset loop.
struct Shared {
    /// Per-worker task deques (subset ids, costliest at the front).
    deques: Vec<Mutex<VecDeque<usize>>>,
    /// Per-worker estimated work remaining — the live signal steals are
    /// steered by.
    remaining: Vec<AtomicU64>,
    /// Workers that found every deque empty and exited; survivors treat a
    /// nonzero value as an invitation to grow onto the rayon pool.
    spare: AtomicUsize,
    /// First error wins; everyone else drains out.
    abort: AtomicBool,
    /// Idle cluster nodes (cluster backend only).
    pool: NodePool,
}

impl Shared {
    /// Whether a worker has gone spare, inviting a straggler onto the rayon
    /// pool; a yes is traced and counted as a re-split.
    fn grow_into_spare(&self) -> bool {
        let spare = self.spare.load(Ordering::Relaxed) > 0;
        if spare {
            efm_obs::instant("dnc grow to pool");
            efm_obs::counter_add("dnc resplits", 1);
        }
        spare
    }

    /// Pops the next subset for worker `w`: own front first, then the
    /// back of the victim with the most estimated work left.
    fn next_task(&self, w: usize, costs: &[u64]) -> Option<usize> {
        if let Some(id) = self.deques[w].lock().unwrap().pop_front() {
            self.remaining[w].fetch_sub(costs[id], Ordering::Relaxed);
            return Some(id);
        }
        loop {
            // Victim choice re-reads the tallies every round: a failed
            // steal (the victim drained between the read and the lock)
            // retries against the next-busiest worker.
            let victim = (0..self.deques.len())
                .filter(|&v| v != w)
                .max_by_key(|&v| self.remaining[v].load(Ordering::Relaxed))
                .filter(|&v| self.remaining[v].load(Ordering::Relaxed) > 0)?;
            if let Some(id) = self.deques[victim].lock().unwrap().pop_back() {
                self.remaining[victim].fetch_sub(costs[id], Ordering::Relaxed);
                efm_obs::counter_add("dnc steals", 1);
                if efm_obs::enabled() {
                    efm_obs::instant_dyn(format!("steal subset {id} from worker {victim}"));
                }
                return Some(id);
            }
            if self.remaining[victim].load(Ordering::Relaxed) == 0 {
                return None;
            }
        }
    }
}

/// Appends a retry decision for error `e`: `Ok(())` to run the subset
/// again (the event is logged), `Err(e)` to propagate.
fn retry_or_fail(
    e: EfmError,
    retries: &mut u32,
    max_retries: u32,
    log: &mut Vec<RecoveryEvent>,
) -> Result<(), EfmError> {
    let class = classify_failure(&e);
    if class != FailureClass::Retryable || *retries >= max_retries {
        return Err(e);
    }
    log.push(RecoveryEvent {
        at_us: efm_obs::now_us(),
        attempt: *retries + 1,
        error: e.to_string(),
        class,
        action: RecoveryAction::Restarted,
        resumed_from: None,
    });
    *retries += 1;
    efm_obs::counter_add("dnc retries", 1);
    Ok(())
}

/// Runs one (non-empty) subset to completion under the per-subset retry
/// budget, on a node group carved out of the shared pool. Returns the
/// supports, the stats of the successful attempt (with the recovery events
/// of failed attempts appended), and the retry count.
fn execute_subset<P: BitPattern, S: EfmScalar>(
    problem: &EfmProblem<S>,
    opts: &EfmOptions,
    backend: &Backend,
    dnc: &DncConfig,
    injector: Option<Arc<FaultInjector>>,
    shared: &Shared,
) -> Result<(SupportsAndStats, u32), EfmError> {
    let mut log: Vec<RecoveryEvent> = Vec::new();
    let mut retries = 0u32;
    let mut failed_over = 0u64;
    // Off the cluster the one-rank group is nominal.
    let (mut group, charged) = shared.pool.acquire();
    // Local copy so a failover can re-stripe the survivors.
    let mut sub_opts = opts.clone();
    let run = loop {
        let attempt = match backend {
            Backend::Serial | Backend::Rayon => {
                let rayon = matches!(backend, Backend::Rayon);
                // Straggler path: a serial subset switches its remaining
                // iterations onto the rayon pool once workers go spare.
                local_supports::<P, S>(problem, opts, None, None, &mut || {
                    rayon || shared.grow_into_spare()
                })
            }
            Backend::Cluster(base) => {
                let mut cfg = ClusterConfig::new(group).with_timeouts(base.timeouts.clone());
                cfg.memory_limit = base.memory_limit;
                cfg.failover = base.failover;
                cfg.heartbeat = base.heartbeat;
                if let Some(inj) = injector.clone().or_else(|| base.injector.clone()) {
                    cfg = cfg.with_injector(inj);
                }
                cluster_supports_resumable::<P, S>(problem, &sub_opts, &cfg, None, None)
                    .map(|out| (out.supports, out.stats))
            }
        };
        let e = match attempt {
            Ok(out) => break Ok(out),
            Err(e) => e,
        };
        // In-place failover: a lost non-coordinator rank degrades the group
        // instead of burning a retry — survivors restart with the dead
        // rank's stripe redistributed.
        let weights = &mut sub_opts.stripe_weights;
        if let Some(ev) = fail_over("failover", &e, &mut group, weights, None, retries + 1, None) {
            log.push(ev);
            failed_over += 1;
            continue;
        }
        if let Err(e) = retry_or_fail(e, &mut retries, dnc.max_retries, &mut log) {
            break Err(e);
        }
    };
    shared.pool.release(charged);
    let (sups, mut stats) = run?;
    stats.failovers += failed_over;
    stats.ranks_lost += failed_over;
    stats.recovery.events.extend(log);
    Ok(((sups, stats), retries))
}

/// Builds the per-subset fault injectors. The `Arc` is created once per
/// subset and reused across that subset's retries, so one-shot faults fire
/// exactly once per run, not once per attempt — the same latch-sharing
/// contract the supervisor uses.
fn build_injectors(dnc: &DncConfig) -> Vec<(usize, Arc<FaultInjector>)> {
    dnc.fault_plans
        .iter()
        .map(|(id, plan)| (*id, Arc::new(FaultInjector::new(plan.clone()))))
        .collect()
}

/// Loads (or initializes) the progress record and validates it against
/// this run's scalar, network, and partition.
fn load_progress<S: EfmScalar>(
    dnc: &DncConfig,
    fingerprint: u64,
    qsub: u32,
) -> Result<DncCheckpoint, EfmError> {
    let fresh = DncCheckpoint::new(S::CHECKPOINT_TAG, fingerprint, qsub);
    let Some(cfg) = &dnc.checkpoint else { return Ok(fresh) };
    if !dnc.resume || !cfg.path.exists() {
        return Ok(fresh);
    }
    let ck = DncCheckpoint::load(&cfg.path)?;
    if ck.scalar_tag != S::CHECKPOINT_TAG {
        return Err(EfmError::Checkpoint(format!(
            "progress record was written by scalar '{}', this run uses '{}'",
            ck.scalar_tag,
            S::CHECKPOINT_TAG
        )));
    }
    if ck.fingerprint != fingerprint || ck.qsub != qsub {
        return Err(EfmError::Checkpoint(
            "progress record belongs to a different network or partition".to_string(),
        ));
    }
    Ok(ck)
}

/// A finished subset as the scheduler tracks it before final assembly.
type SlotResult = (SubsetReport, Vec<Vec<usize>>);

/// Records subset completion: fills the result slot and, when a checkpoint
/// is configured, records the subset and atomically rewrites the progress
/// record. One lock covers both so the on-disk record never misses a
/// filled slot.
struct ProgressSink<'a> {
    slots: Mutex<(Vec<Option<SlotResult>>, DncCheckpoint)>,
    checkpoint: Option<&'a crate::checkpoint::CheckpointConfig>,
    /// With `EfmOptions::spill_budget` set, completed stripes move into
    /// this compressed, disk-spillable store instead of sitting in their
    /// slot uncompressed; the slot then carries an empty support list and
    /// assembly streams the stripe back out.
    store: Option<Mutex<crate::stripes::StripeStore>>,
}

impl ProgressSink<'_> {
    fn new<'a>(
        subsets: usize,
        progress: DncCheckpoint,
        dnc: &'a DncConfig,
        opts: &EfmOptions,
    ) -> ProgressSink<'a> {
        ProgressSink {
            slots: Mutex::new((vec![None; subsets], progress)),
            checkpoint: dnc.checkpoint.as_ref(),
            store: opts
                .spill_budget
                .map(|b| Mutex::new(crate::stripes::StripeStore::new(subsets, b))),
        }
    }

    fn complete(
        &self,
        id: usize,
        mut report: SubsetReport,
        sups: Vec<Vec<usize>>,
    ) -> Result<(), EfmError> {
        if let Some(store) = &self.store {
            let mut st = store.lock().unwrap();
            let spilled_before = st.spill_bytes();
            st.put(id, &sups)?;
            report.stats.spill_bytes += st.spill_bytes() - spilled_before;
        }
        let mut g = self.slots.lock().unwrap();
        // Only a configured checkpoint keeps (and saves) a copy of the
        // supports in the progress record.
        if let Some(cfg) = self.checkpoint {
            g.1.record(DncSubsetResult {
                id,
                skipped_empty: report.skipped_empty,
                supports: sups.clone(),
                stats: report.stats.clone(),
            });
            g.1.save(&cfg.path)?;
        }
        let inline = if self.store.is_some() { Vec::new() } else { sups };
        g.0[id] = Some((report, inline));
        Ok(())
    }

    /// Tears the sink down into its slots and (optional) stripe store.
    fn into_parts(self) -> (Vec<Option<SlotResult>>, Option<crate::stripes::StripeStore>) {
        (self.slots.into_inner().unwrap().0, self.store.map(|s| s.into_inner().unwrap()))
    }
}

/// Entry point: resolves the partition and runs all `2^qsub` subsets under
/// `dnc`, returning `(all supports in reduced indices, reports in
/// subset-id order)` — the same for every schedule.
pub(crate) fn run_partition<P: BitPattern, S: EfmScalar>(
    net: &efm_metnet::MetabolicNetwork,
    red: &efm_metnet::ReducedNetwork,
    partition_names: &[String],
    opts: &EfmOptions,
    backend: &Backend,
    dnc: &DncConfig,
) -> Result<(Vec<Vec<usize>>, Vec<SubsetReport>), EfmError> {
    let names: Vec<&str> = partition_names.iter().map(String::as_str).collect();
    let partition = resolve_partition(net, red, &names)?;
    let qsub = partition.reduced_indices.len();
    let subsets = 1usize << qsub;
    let fingerprint = dnc_fingerprint(red, &partition.reduced_indices);
    let progress = load_progress::<S>(dnc, fingerprint, qsub as u32)?;
    let sink = ProgressSink::new(subsets, progress, dnc, opts);
    run_subsets::<P, S>(red, &partition, opts, backend, dnc, &sink)?;
    let (results, mut store) = sink.into_parts();

    // Assembly in subset-id order, regardless of completion order: both
    // the concatenated support list and the report vector are identical
    // across schedules. With a stripe store active, completed stripes
    // stream back out of it (decompressed, possibly from disk) one subset
    // at a time; slots not in the store (resumed subsets) stay inline.
    let mut all = Vec::new();
    let mut reports = Vec::with_capacity(subsets);
    let mut times = Vec::new();
    for (id, slot) in results.into_iter().enumerate() {
        let (rep, sups) = slot.expect("every subset slot filled on success");
        let sups = match store.as_mut().map(|st| st.take(id)).transpose()? {
            Some(Some(stored)) => stored,
            _ => sups,
        };
        if !rep.skipped_empty {
            times.push(rep.stats.total_time.as_secs_f64());
        }
        all.extend(sups);
        reports.push(rep);
    }
    if !times.is_empty() {
        let max = times.iter().cloned().fold(0.0_f64, f64::max);
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        if mean > 0.0 {
            efm_obs::gauge_set("dnc imbalance x1000", (max / mean * 1000.0) as u64);
        }
    }
    Ok((all, reports))
}

/// The one subset loop: probe every subset, deal the runnable ones onto
/// the workers (one worker in id order under [`DncSchedule::Serial`],
/// longest-first under `Steal`), and run them with stealing and straggler
/// growth, each completion going into `sink`. Worker 0 runs on the calling
/// thread, whose trace track and `--progress` context it keeps.
fn run_subsets<P: BitPattern, S: EfmScalar>(
    red: &efm_metnet::ReducedNetwork,
    partition: &Partition,
    opts: &EfmOptions,
    backend: &Backend,
    dnc: &DncConfig,
    sink: &ProgressSink<'_>,
) -> Result<(), EfmError> {
    let subsets = 1usize << partition.reduced_indices.len();

    // --- Probe: build every subproblem not already done, estimate costs,
    // and fill the slots of empty and already-completed subsets.
    let mut problems: Vec<Option<EfmProblem<S>>> = Vec::with_capacity(subsets);
    let mut runnable: Vec<usize> = Vec::new();
    {
        let _span = efm_obs::span("dnc probe");
        for id in 0..subsets {
            let mut problem = None;
            if let Some(prev) = resume_slot(sink, id, &subset_pattern(partition, id)) {
                sink.slots.lock().unwrap().0[id] = Some(prev);
            } else if let Some(p) = subset_problem::<S>(red, partition, id, opts)? {
                problem = Some(p);
                runnable.push(id);
            } else {
                sink.complete(id, empty_report(id, subset_pattern(partition, id)), Vec::new())?;
            }
            problems.push(problem);
        }
    }
    efm_obs::counter_add("dnc subsets probed", subsets as u64);
    let costs: Vec<u64> = problems.iter().map(|p| p.as_ref().map_or(0, estimate_cost)).collect();

    // --- Order + deal: longest-first round-robin (LPT) when stealing.
    let workers = match dnc.schedule {
        DncSchedule::Serial => 1,
        DncSchedule::Steal => {
            runnable.sort_by_key(|&id| std::cmp::Reverse(costs[id]));
            match dnc.workers {
                0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
                n => n,
            }
            .min(runnable.len().max(1))
        }
    };
    let cluster_nodes = match backend {
        Backend::Cluster(cfg) => cfg.nodes,
        _ => 0,
    };
    let shared = Shared {
        deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
        remaining: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        spare: AtomicUsize::new(0),
        abort: AtomicBool::new(false),
        pool: NodePool::new(cluster_nodes, workers),
    };
    for (i, &id) in runnable.iter().enumerate() {
        shared.deques[i % workers].lock().unwrap().push_back(id);
        shared.remaining[i % workers].fetch_add(costs[id], Ordering::Relaxed);
    }

    // --- Run. First error wins; siblings drain and exit.
    let injectors = build_injectors(dnc);
    let first_error: Mutex<Option<EfmError>> = Mutex::new(None);
    let work = |w: usize| {
        let _wspan = if efm_obs::enabled() {
            efm_obs::span_dyn(format!("dnc worker {w}"))
        } else {
            efm_obs::Span::off()
        };
        while !shared.abort.load(Ordering::Relaxed) {
            let Some(id) = shared.next_task(w, &costs) else { break };
            let pattern = subset_pattern(partition, id);
            let _span = if efm_obs::enabled() {
                efm_obs::span_dyn(format!("subset {id}: {pattern}"))
            } else {
                efm_obs::Span::off()
            };
            if efm_obs::progress::progress_enabled() {
                efm_obs::progress::set_progress_context(Some(format!("subset {id}")));
            }
            let problem = problems[id].as_ref().expect("runnable ⇒ probed non-empty");
            let injector = injectors.iter().find(|(s, _)| *s == id).map(|(_, i)| i.clone());
            let done = execute_subset::<P, S>(problem, opts, backend, dnc, injector, &shared)
                .and_then(|((sups, stats), retries)| {
                    let efm_count = sups.len();
                    let report = SubsetReport {
                        id,
                        pattern,
                        efm_count,
                        skipped_empty: false,
                        retries,
                        stats,
                    };
                    sink.complete(id, report, sups)
                });
            if let Err(e) = done {
                shared.abort.store(true, Ordering::Relaxed);
                first_error.lock().unwrap().get_or_insert(e);
                break;
            }
        }
        shared.spare.fetch_add(1, Ordering::Relaxed);
    };
    std::thread::scope(|scope| {
        let work = &work;
        for w in 1..workers {
            scope.spawn(move || work(w));
        }
        work(0);
    });
    match first_error.into_inner().unwrap() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Report for a probed-empty subset.
fn empty_report(id: usize, pattern: String) -> SubsetReport {
    SubsetReport {
        id,
        pattern,
        efm_count: 0,
        skipped_empty: true,
        retries: 0,
        stats: RunStats::default(),
    }
}

/// A completed subset carried over from a resumed progress record, if any.
fn resume_slot(sink: &ProgressSink<'_>, id: usize, pattern: &str) -> Option<SlotResult> {
    let g = sink.slots.lock().unwrap();
    let i = g.1.done.binary_search_by_key(&id, |s| s.id).ok()?;
    let prev = &g.1.done[i];
    efm_obs::counter_add("dnc subsets resumed", 1);
    Some((
        SubsetReport {
            id,
            pattern: pattern.to_string(),
            efm_count: prev.supports.len(),
            skipped_empty: prev.skipped_empty,
            retries: 0,
            stats: prev.stats.clone(),
        },
        prev.supports.clone(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_parses_cli_spellings() {
        assert_eq!(DncSchedule::parse("serial"), Some(DncSchedule::Serial));
        assert_eq!(DncSchedule::parse("steal"), Some(DncSchedule::Steal));
        assert_eq!(DncSchedule::parse("static"), None);
        for s in [DncSchedule::Serial, DncSchedule::Steal] {
            assert_eq!(DncSchedule::parse(&s.to_string()), Some(s));
        }
    }

    #[test]
    fn steal_takes_cheapest_task_of_busiest_worker() {
        let costs = vec![100, 50, 40, 10];
        let shared = Shared {
            deques: vec![
                Mutex::new(VecDeque::new()),
                Mutex::new(VecDeque::from([0, 2])), // 140 remaining
                Mutex::new(VecDeque::from([1, 3])), // 60 remaining
            ],
            remaining: vec![AtomicU64::new(0), AtomicU64::new(140), AtomicU64::new(60)],
            spare: AtomicUsize::new(0),
            abort: AtomicBool::new(false),
            pool: NodePool::new(0, 3),
        };
        // Worker 0 is idle: it must steal from worker 1 (busiest), and
        // from the *back* (subset 2, the cheaper of worker 1's tasks).
        assert_eq!(shared.next_task(0, &costs), Some(2));
        assert_eq!(shared.remaining[1].load(Ordering::Relaxed), 100);
        // Next steal: worker 1 still busiest (100 > 60) — takes subset 0.
        assert_eq!(shared.next_task(0, &costs), Some(0));
        // Then worker 2's back task, then its front, then nothing.
        assert_eq!(shared.next_task(0, &costs), Some(3));
        assert_eq!(shared.next_task(0, &costs), Some(1));
        assert_eq!(shared.next_task(0, &costs), None);
    }

    #[test]
    fn node_pool_carves_and_releases() {
        let pool = NodePool::new(8, 2);
        let (g1, c1) = pool.acquire();
        assert_eq!((g1, c1), (4, 4));
        let (g2, c2) = pool.acquire();
        assert_eq!((g2, c2), (4, 4));
        // Pool exhausted: a third subset still gets a 1-rank group.
        let (g3, c3) = pool.acquire();
        assert_eq!((g3, c3), (1, 0));
        pool.release(c1);
        pool.release(c2);
        pool.release(c3);
        assert_eq!(*pool.free.lock().unwrap(), 8);
        // One worker gets the whole machine; an empty pool (off the
        // cluster) hands out a nominal group.
        assert_eq!(NodePool::new(5, 1).acquire(), (5, 5));
        assert_eq!(NodePool::new(0, 1).acquire(), (1, 0));
    }

    #[test]
    fn retry_budget_is_per_subset_and_class_aware() {
        let mut log = Vec::new();
        let mut retries = 0;
        let transient = || {
            EfmError::Cluster(efm_cluster::ClusterError::Timeout {
                rank: 0,
                phase: "barrier".into(),
            })
        };
        assert!(retry_or_fail(transient(), &mut retries, 2, &mut log).is_ok());
        assert!(retry_or_fail(transient(), &mut retries, 2, &mut log).is_ok());
        // Budget exhausted: the third transient failure propagates.
        assert!(retry_or_fail(transient(), &mut retries, 2, &mut log).is_err());
        assert_eq!(retries, 2);
        assert_eq!(log.len(), 2);
        assert_eq!(log[1].attempt, 2);
        assert!(log.iter().all(|e| e.action == RecoveryAction::Restarted));
        // Fatal failures are never retried, budget or not.
        let mut retries2 = 0;
        let fatal = EfmError::UnknownReaction("r".into());
        assert!(retry_or_fail(fatal, &mut retries2, 2, &mut Vec::new()).is_err());
        assert_eq!(retries2, 0);
    }

    /// Runs the toy network's {r6r, r8r} split through the subset loop and
    /// returns the progress record the sink kept, with the filled slots.
    fn toy_run(dnc: &DncConfig) -> (DncCheckpoint, usize) {
        let net = efm_metnet::examples::toy_network();
        let (red, _) = efm_metnet::compress(&net);
        let partition = resolve_partition(&net, &red, &["r6r", "r8r"]).unwrap();
        let opts = EfmOptions::default();
        let progress = DncCheckpoint::new("test", 0, 2);
        let sink = ProgressSink::new(4, progress, dnc, &opts);
        run_subsets::<efm_bitset::Pattern1, efm_numeric::DynInt>(
            &red,
            &partition,
            &opts,
            &Backend::Serial,
            dnc,
            &sink,
        )
        .unwrap();
        let (slots, record) = sink.slots.into_inner().unwrap();
        (record, slots.iter().filter(|s| s.is_some()).count())
    }

    #[test]
    fn progress_record_is_kept_only_with_a_checkpoint() {
        // Without a checkpoint nothing saves or reads the record, so it must
        // not hold a second copy of every subset's supports.
        let (record, filled) = toy_run(&DncConfig::default());
        assert_eq!(filled, 4);
        assert!(record.done.is_empty(), "{} subsets recorded", record.done.len());
        let path =
            std::env::temp_dir().join(format!("efm_schedule_record_{}.efck", std::process::id()));
        let checkpoint = Some(crate::checkpoint::CheckpointConfig::new(&path));
        let (record, filled) = toy_run(&DncConfig { checkpoint, ..DncConfig::default() });
        let _ = std::fs::remove_file(&path);
        assert_eq!((filled, record.done.len()), (4, 4));
    }

    #[test]
    fn survivor_weights_drop_the_dead_rank() {
        // Uniform prior: the survivors inherit equal shares.
        assert_eq!(survivor_weights(&[1, 1, 1, 1], 2), vec![1, 1, 1]);
        // Weighted prior: the other entries keep their proportions.
        assert_eq!(survivor_weights(&[3, 1, 2, 2], 0), vec![1, 2, 2]);
        assert_eq!(survivor_weights(&[3, 1, 2, 2], 3), vec![3, 1, 2]);
        // Zero weights are clamped so no survivor gets an empty stripe
        // forever.
        assert_eq!(survivor_weights(&[0, 5, 0], 1), vec![1, 1]);
    }
}
