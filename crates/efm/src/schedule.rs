//! Adaptive scheduling of divide-and-conquer subsets.
//!
//! The paper's Algorithm 3 splits enumeration into `2^qsub` independent
//! subproblems but runs them one after another; its own Table IV shows the
//! subsets are wildly imbalanced (candidate counts spread over orders of
//! magnitude), so a fixed execution order leaves most of the machine idle
//! behind the largest subset. This module runs the subsets *concurrently*:
//!
//! 1. **Probe.** Every subset's reduced subproblem is built up front (it is
//!    needed anyway), which both detects provably-empty subsets without
//!    spawning a worker and yields the inputs of a cost model — processed
//!    row count, kernel width, reversible-row count ([`estimate_cost`]).
//! 2. **Order + deal.** Runnable subsets are sorted longest-first and dealt
//!    round-robin into per-worker deques (the classic LPT heuristic);
//!    [`DncSchedule::Static`] stops there.
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
//!    ([`crate::drivers::adaptive_supports`]), and a cluster-backend
//!    subset runs in bounded *segments*
//!    ([`crate::cluster_algo::cluster_supports_segment`]) whose boundary
//!    checkpoints let it restart on a larger node group drawn from the
//!    idle-node pool — the pair grid is re-striped over the new group, the
//!    paper's mid-run re-split.
//!
//! Failures are handled per subset, reusing the supervisor's
//! classification ([`crate::supervise::classify_failure`]): a retryable
//! failure (crashed rank, lost message, stale checkpoint) restarts *that
//! subset only* — from its last segment boundary if it has one — under a
//! per-subset [`DncConfig::max_retries`] budget, while its siblings keep
//! running; fatal and memory failures propagate. Every recovery action is
//! recorded as a [`RecoveryEvent`] in the subset's statistics.
//!
//! Progress is durable through [`DncCheckpoint`]: each completed
//! subset atomically rewrites a per-subset completion bitmap plus the
//! finished results, so a resumed run re-enumerates only unfinished
//! subsets regardless of the completion order the schedule produced.
//!
//! Every schedule produces the identical result: subset outcomes are
//! deterministic and results are assembled in subset-id order, so
//! [`DncSchedule::Serial`] (the paper's loop, still the default), `Static`
//! and `Steal` differ only in wall-clock shape — a property enforced by
//! the differential suite in `tests/backend_equivalence.rs`.

use crate::bridge::EfmScalar;
use crate::checkpoint::{dnc_fingerprint, DncCheckpoint, DncSubsetResult, EngineCheckpoint};
use crate::cluster_algo::cluster_supports_segment;
use crate::divide::{resolve_partition, subset_pattern, Backend, Partition, SubsetReport};
use crate::drivers::{adaptive_supports, rayon_supports, serial_supports, SupportsAndStats};
use crate::problem::{build_subproblem, EfmProblem};
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
    /// The paper's sequential loop, subset 0 to `2^qsub − 1`. Default;
    /// bit-identical to the pre-scheduler behaviour.
    #[default]
    Serial,
    /// Longest-first static assignment onto the worker pool (LPT): no
    /// migration after the initial deal.
    Static,
    /// Static deal plus work stealing and straggler re-splitting.
    Steal,
}

impl DncSchedule {
    /// Parses a CLI spelling (`serial`, `static`, `steal`).
    pub fn parse(s: &str) -> Option<DncSchedule> {
        match s {
            "serial" => Some(DncSchedule::Serial),
            "static" => Some(DncSchedule::Static),
            "steal" => Some(DncSchedule::Steal),
            _ => None,
        }
    }
}

impl std::fmt::Display for DncSchedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DncSchedule::Serial => write!(f, "serial"),
            DncSchedule::Static => write!(f, "static"),
            DncSchedule::Steal => write!(f, "steal"),
        }
    }
}

/// Configuration of the divide-and-conquer subset scheduler.
#[derive(Debug, Clone)]
pub struct DncConfig {
    /// Subset execution order.
    pub schedule: DncSchedule,
    /// Worker threads for the concurrent schedules (`0` = one per
    /// available core, capped at the number of runnable subsets).
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
    /// Cluster-backend segment length in iterations for the concurrent
    /// schedules: a subset pauses at every `segment_iters` boundary so a
    /// straggler can absorb idle nodes (`0` = never pause; stealing then
    /// happens at whole-subset granularity only).
    pub segment_iters: u64,
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
            segment_iters: 0,
        }
    }
}

impl DncConfig {
    /// A concurrent work-stealing configuration with `workers` threads.
    pub fn steal(workers: usize) -> Self {
        DncConfig { schedule: DncSchedule::Steal, workers, ..Default::default() }
    }
}

/// Per-subset probe result: the prebuilt subproblem (`None` = provably
/// empty) and its estimated cost.
struct Probe<S: EfmScalar> {
    pattern: String,
    problem: Option<EfmProblem<S>>,
    cost: u64,
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
/// load (the same longest-first reasoning as [`estimate_cost`]).
pub fn survivor_weights(prior: &[u64], dead: usize) -> Vec<u64> {
    prior.iter().enumerate().filter(|&(r, _)| r != dead).map(|(_, &w)| w.max(1)).collect()
}

/// Builds subset `id`'s subproblem exactly as [`crate::divide::run_subset`]
/// does, plus the cost estimate.
fn probe_subset<S: EfmScalar>(
    red: &efm_metnet::ReducedNetwork,
    partition: &Partition,
    id: usize,
    opts: &EfmOptions,
) -> Result<Probe<S>, EfmError> {
    let qsub = partition.reduced_indices.len();
    let nonzero: Vec<usize> =
        (0..qsub).filter(|i| id >> i & 1 == 1).map(|i| partition.reduced_indices[i]).collect();
    let zero: Vec<usize> =
        (0..qsub).filter(|i| id >> i & 1 == 0).map(|i| partition.reduced_indices[i]).collect();
    let keep: Vec<usize> = (0..red.num_reduced()).filter(|c| !zero.contains(c)).collect();
    let problem: Option<EfmProblem<S>> = build_subproblem(red, &keep, &nonzero, opts)?;
    let cost = problem.as_ref().map_or(0, estimate_cost);
    Ok(Probe { pattern: subset_pattern(partition, id), problem, cost })
}

/// Idle-node accounting for concurrent cluster subsets: the configured
/// `nodes` ranks are a shared machine, carved into per-subset groups.
struct NodePool {
    free: Mutex<usize>,
}

impl NodePool {
    fn new(total: usize) -> Self {
        NodePool { free: Mutex::new(total) }
    }

    /// Takes up to `want` nodes; always returns a group of at least one
    /// rank (a fully-committed pool oversubscribes by one simulated rank
    /// rather than deadlocking). Returns `(group size, nodes charged)`.
    fn acquire(&self, want: usize) -> (usize, usize) {
        let mut f = self.free.lock().unwrap();
        let take = want.max(1).min(*f);
        if take == 0 {
            (1, 0)
        } else {
            *f -= take;
            (take, take)
        }
    }

    /// Takes up to `cap` additional nodes for a straggler (may be zero).
    fn try_grow(&self, cap: usize) -> usize {
        let mut f = self.free.lock().unwrap();
        let extra = (*f).min(cap);
        *f -= extra;
        extra
    }

    fn release(&self, n: usize) {
        *self.free.lock().unwrap() += n;
    }
}

/// State shared by the workers of a concurrent schedule.
struct Shared {
    /// Per-worker task deques (subset ids, costliest at the front).
    deques: Vec<Mutex<VecDeque<usize>>>,
    /// Per-worker estimated work remaining — the live signal steals and
    /// re-splits are steered by.
    remaining: Vec<AtomicU64>,
    /// Workers that found every deque empty and exited; survivors treat a
    /// nonzero value as an invitation to re-split.
    spare: AtomicUsize,
    /// First error wins; everyone else drains out.
    abort: AtomicBool,
    /// Idle cluster nodes (cluster backend only).
    pool: NodePool,
    /// Whether migration (stealing + re-splitting) is enabled.
    steal: bool,
}

impl Shared {
    /// Pops the next subset for worker `w`: own front first, then — under
    /// the stealing schedule — the back of the victim with the most
    /// estimated work left.
    fn next_task(&self, w: usize, costs: &[u64]) -> Option<usize> {
        if let Some(id) = self.deques[w].lock().unwrap().pop_front() {
            self.remaining[w].fetch_sub(costs[id], Ordering::Relaxed);
            return Some(id);
        }
        if !self.steal {
            return None;
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
    resumed_from: Option<u64>,
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
        resumed_from,
    });
    *retries += 1;
    efm_obs::counter_add("dnc retries", 1);
    Ok(())
}

/// Runs one (non-empty) subset to completion under the per-subset retry
/// budget, including the cluster segment/re-split loop. Returns the
/// supports, the stats of the successful attempt (with the recovery events
/// of failed attempts appended), and the retry count.
#[allow(clippy::too_many_arguments)]
fn execute_subset<P: BitPattern, S: EfmScalar>(
    problem: &EfmProblem<S>,
    opts: &EfmOptions,
    backend: &Backend,
    dnc: &DncConfig,
    injector: Option<Arc<FaultInjector>>,
    shared: Option<&Shared>,
) -> Result<(SupportsAndStats, u32), EfmError> {
    let mut log: Vec<RecoveryEvent> = Vec::new();
    let mut retries = 0u32;
    let mut failed_over = 0u32;
    let stealing = shared.is_some_and(|s| s.steal);
    let out = match backend {
        Backend::Serial => loop {
            let r = if stealing {
                // Straggler path: switch the remaining iterations onto the
                // rayon pool once workers go spare.
                let spare = shared.map(|s| &s.spare);
                adaptive_supports::<P, S>(problem, opts, || {
                    spare.is_some_and(|s| s.load(Ordering::Relaxed) > 0)
                })
            } else {
                serial_supports::<P, S>(problem, opts)
            };
            match r {
                Ok(out) => break out,
                Err(e) => retry_or_fail(e, &mut retries, dnc.max_retries, &mut log, None)?,
            }
        },
        Backend::Rayon => loop {
            match rayon_supports::<P, S>(problem, opts) {
                Ok(out) => break out,
                Err(e) => retry_or_fail(e, &mut retries, dnc.max_retries, &mut log, None)?,
            }
        },
        Backend::Cluster(base) => {
            // Carve a node group out of the shared pool (serial schedule:
            // the whole machine, exactly the pre-scheduler behaviour).
            let (mut group, mut charged) = match shared {
                Some(s) => s.pool.acquire(base.nodes / s.deques.len().max(1)),
                None => (base.nodes, 0),
            };
            // Segment progress survives retries: a crashed attempt resumes
            // from the last boundary snapshot, not from scratch.
            let mut seg_ck: Option<EngineCheckpoint> = None;
            // Local copy so a failover can re-stripe the survivors; the
            // group may also regrow at segment boundaries (re-split), which
            // resets the weights to uniform over the grown group.
            let mut sub_opts = opts.clone();
            let run = loop {
                let mut cfg = ClusterConfig::new(group).with_timeouts(base.timeouts.clone());
                cfg.memory_limit = base.memory_limit;
                cfg.failover = base.failover;
                cfg.heartbeat = base.heartbeat;
                if let Some(inj) = injector.clone().or_else(|| base.injector.clone()) {
                    cfg = cfg.with_injector(inj);
                }
                let stop = (stealing && dnc.segment_iters > 0).then(|| {
                    seg_ck.as_ref().map_or(0, |c| c.iterations_completed()) + dnc.segment_iters
                });
                match cluster_supports_segment::<P, S>(
                    problem,
                    &sub_opts,
                    &cfg,
                    seg_ck.as_ref(),
                    None,
                    stop,
                ) {
                    Ok((out, None)) => break Ok((out.supports, out.stats)),
                    Ok((_, Some(ck))) => {
                        seg_ck = Some(ck);
                        // Segment boundary: a straggler absorbs whatever
                        // the pool has freed — the next segment re-stripes
                        // its pair grid over the grown group.
                        if let Some(s) = shared {
                            let extra = s.pool.try_grow(base.nodes.saturating_sub(group));
                            if extra > 0 {
                                group += extra;
                                charged += extra;
                                sub_opts.stripe_weights = None;
                                efm_obs::counter_add("dnc resplits", 1);
                                if efm_obs::enabled() {
                                    efm_obs::instant_dyn(format!("resplit onto {group} nodes"));
                                }
                            }
                        }
                    }
                    Err(e) => {
                        let resumed = seg_ck.as_ref().map(|c| c.iterations_completed());
                        // In-place failover: a lost non-coordinator rank
                        // degrades the group instead of burning a retry —
                        // survivors re-enter from the last boundary with
                        // the dead rank's stripe redistributed.
                        if let EfmError::Cluster(efm_cluster::ClusterError::RankLost {
                            rank: dead,
                            ..
                        }) = &e
                        {
                            let dead = *dead;
                            if group > 1 && dead != 0 && dead < group {
                                let prior = sub_opts
                                    .stripe_weights
                                    .take()
                                    .filter(|w| w.len() == group)
                                    .unwrap_or_else(|| vec![1; group]);
                                sub_opts.stripe_weights = Some(survivor_weights(&prior, dead));
                                log.push(RecoveryEvent {
                                    at_us: efm_obs::now_us(),
                                    attempt: retries + 1,
                                    error: e.to_string(),
                                    class: FailureClass::RankLost,
                                    action: RecoveryAction::FailedOver,
                                    resumed_from: resumed,
                                });
                                group -= 1;
                                failed_over += 1;
                                efm_obs::counter_add("failovers", 1);
                                efm_obs::counter_add("ranks lost", 1);
                                if efm_obs::enabled() {
                                    efm_obs::instant_dyn(format!(
                                        "failover: rank {dead} lost, continuing on {group} nodes"
                                    ));
                                }
                                continue;
                            }
                        }
                        if let Err(e) =
                            retry_or_fail(e, &mut retries, dnc.max_retries, &mut log, resumed)
                        {
                            break Err(e);
                        }
                    }
                }
            };
            if let Some(s) = shared {
                s.pool.release(charged);
            }
            run?
        }
    };
    let (sups, mut stats) = out;
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

/// Records subset completion: fills the result slot and, when configured,
/// atomically rewrites the progress record. One lock covers both so the
/// on-disk record never misses a filled slot.
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
        let sups = match &self.store {
            Some(store) => {
                let mut st = store.lock().unwrap();
                let spilled_before = st.spill_bytes();
                st.put(id, &sups)?;
                report.stats.spill_bytes += st.spill_bytes() - spilled_before;
                // The progress record still needs the uncompressed list; it
                // is written out (or dropped) inside this call either way.
                if self.checkpoint.is_some() {
                    sups
                } else {
                    Vec::new()
                }
            }
            None => sups,
        };
        let mut g = self.slots.lock().unwrap();
        g.1.record(DncSubsetResult {
            id,
            skipped_empty: report.skipped_empty,
            supports: sups.clone(),
            stats: report.stats.clone(),
        });
        let stored = self.store.is_some();
        g.0[id] = Some((report, if stored { Vec::new() } else { sups }));
        if let Some(cfg) = self.checkpoint {
            g.1.save(&cfg.path)?;
        }
        Ok(())
    }

    /// Tears the sink down into its slots and (optional) stripe store.
    fn into_parts(self) -> (Vec<Option<SlotResult>>, Option<crate::stripes::StripeStore>) {
        (self.slots.into_inner().unwrap().0, self.store.map(|s| s.into_inner().unwrap()))
    }
}

/// Entry point: resolves the partition and runs all `2^qsub` subsets under
/// `dnc`, returning `(all supports in reduced indices, reports in
/// subset-id order)` — the same contract as the legacy serial loop, for
/// every schedule.
pub(crate) fn run_partition<P: BitPattern, S: EfmScalar>(
    net: &efm_metnet::MetabolicNetwork,
    red: &efm_metnet::ReducedNetwork,
    partition_names: &[&str],
    opts: &EfmOptions,
    backend: &Backend,
    dnc: &DncConfig,
) -> Result<(Vec<Vec<usize>>, Vec<SubsetReport>), EfmError> {
    let partition = resolve_partition(net, red, partition_names)?;
    let qsub = partition.reduced_indices.len();
    let subsets = 1usize << qsub;
    let fingerprint = dnc_fingerprint(red, &partition.reduced_indices);
    let progress = load_progress::<S>(dnc, fingerprint, qsub as u32)?;
    let injectors = build_injectors(dnc);

    let (results, mut store) = match dnc.schedule {
        DncSchedule::Serial => {
            serial_schedule::<P, S>(red, &partition, opts, backend, dnc, progress, &injectors)?
        }
        DncSchedule::Static | DncSchedule::Steal => {
            concurrent_schedule::<P, S>(red, &partition, opts, backend, dnc, progress, &injectors)?
        }
    };

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

/// The paper's sequential loop (bit-identical to the pre-scheduler
/// behaviour when no checkpoint/faults are configured), with resume-skip
/// and per-subset retry hooks.
fn serial_schedule<P: BitPattern, S: EfmScalar>(
    red: &efm_metnet::ReducedNetwork,
    partition: &Partition,
    opts: &EfmOptions,
    backend: &Backend,
    dnc: &DncConfig,
    progress: DncCheckpoint,
    injectors: &[(usize, Arc<FaultInjector>)],
) -> Result<(Vec<Option<SlotResult>>, Option<crate::stripes::StripeStore>), EfmError> {
    let subsets = 1usize << partition.reduced_indices.len();
    let sink = ProgressSink::new(subsets, progress, dnc, opts);
    for id in 0..subsets {
        let pattern = subset_pattern(partition, id);
        if let Some(prev) = resume_slot(&sink, id, &pattern) {
            sink.slots.lock().unwrap().0[id] = Some(prev);
            continue;
        }
        let _span = if efm_obs::enabled() {
            efm_obs::span_dyn(format!("subset {id}: {pattern}"))
        } else {
            efm_obs::Span::off()
        };
        if efm_obs::progress::progress_enabled() {
            efm_obs::progress::set_progress_context(Some(format!("subset {id}")));
        }
        let probe = probe_subset::<S>(red, partition, id, opts)?;
        let (report, sups) = match probe.problem {
            None => (empty_report(id, pattern), Vec::new()),
            Some(problem) => {
                let injector = injectors.iter().find(|(s, _)| *s == id).map(|(_, i)| i.clone());
                let ((sups, stats), retries) =
                    execute_subset::<P, S>(&problem, opts, backend, dnc, injector, None)?;
                (
                    SubsetReport {
                        id,
                        pattern,
                        efm_count: sups.len(),
                        skipped_empty: false,
                        retries,
                        stats,
                    },
                    sups,
                )
            }
        };
        sink.complete(id, report, sups)?;
    }
    Ok(sink.into_parts())
}

/// The concurrent schedules: probe, deal longest-first, run on a scoped
/// worker pool (with stealing and straggler growth under
/// [`DncSchedule::Steal`]).
fn concurrent_schedule<P: BitPattern, S: EfmScalar>(
    red: &efm_metnet::ReducedNetwork,
    partition: &Partition,
    opts: &EfmOptions,
    backend: &Backend,
    dnc: &DncConfig,
    progress: DncCheckpoint,
    injectors: &[(usize, Arc<FaultInjector>)],
) -> Result<(Vec<Option<SlotResult>>, Option<crate::stripes::StripeStore>), EfmError> {
    let subsets = 1usize << partition.reduced_indices.len();

    // --- Probe: build every subproblem, estimate costs, pre-fill the
    // slots of empty and already-completed subsets.
    let probes: Vec<Probe<S>> = {
        let _span = efm_obs::span("dnc probe");
        (0..subsets)
            .map(|id| probe_subset::<S>(red, partition, id, opts))
            .collect::<Result<Vec<_>, EfmError>>()?
    };
    let costs: Vec<u64> = probes.iter().map(|p| p.cost).collect();
    let sink = ProgressSink::new(subsets, progress, dnc, opts);
    let mut runnable: Vec<usize> = Vec::new();
    for (id, probe) in probes.iter().enumerate() {
        if let Some(prev) = resume_slot(&sink, id, &probe.pattern) {
            sink.slots.lock().unwrap().0[id] = Some(prev);
        } else if probe.problem.is_none() {
            sink.complete(id, empty_report(id, probe.pattern.clone()), Vec::new())?;
        } else {
            runnable.push(id);
        }
    }
    efm_obs::counter_add("dnc subsets probed", subsets as u64);

    // --- Order + deal: longest-first round-robin (LPT).
    runnable.sort_by_key(|&id| std::cmp::Reverse(costs[id]));
    let workers = match dnc.workers {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
    .min(runnable.len().max(1));
    let cluster_nodes = match backend {
        Backend::Cluster(cfg) => cfg.nodes,
        _ => 0,
    };
    let shared = Shared {
        deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
        remaining: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        spare: AtomicUsize::new(0),
        abort: AtomicBool::new(false),
        pool: NodePool::new(cluster_nodes),
        steal: dnc.schedule == DncSchedule::Steal,
    };
    for (i, &id) in runnable.iter().enumerate() {
        shared.deques[i % workers].lock().unwrap().push_back(id);
        shared.remaining[i % workers].fetch_add(costs[id], Ordering::Relaxed);
    }

    // --- Run. First error wins; siblings drain and exit.
    let first_error: Mutex<Option<EfmError>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for w in 0..workers {
            let shared = &shared;
            let probes = &probes;
            let costs = &costs;
            let sink = &sink;
            let first_error = &first_error;
            scope.spawn(move || {
                let _wspan = if efm_obs::enabled() {
                    efm_obs::span_dyn(format!("dnc worker {w}"))
                } else {
                    efm_obs::Span::off()
                };
                while !shared.abort.load(Ordering::Relaxed) {
                    let Some(id) = shared.next_task(w, costs) else { break };
                    let probe = &probes[id];
                    let _span = if efm_obs::enabled() {
                        efm_obs::span_dyn(format!("subset {id}: {}", probe.pattern))
                    } else {
                        efm_obs::Span::off()
                    };
                    if efm_obs::progress::progress_enabled() {
                        efm_obs::progress::set_progress_context(Some(format!("subset {id}")));
                    }
                    let problem = probe.problem.as_ref().expect("runnable ⇒ probed non-empty");
                    let injector = injectors.iter().find(|(s, _)| *s == id).map(|(_, i)| i.clone());
                    let done =
                        execute_subset::<P, S>(problem, opts, backend, dnc, injector, Some(shared))
                            .and_then(|((sups, stats), retries)| {
                                let report = SubsetReport {
                                    id,
                                    pattern: probe.pattern.clone(),
                                    efm_count: sups.len(),
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
            });
        }
    });
    if let Some(e) = first_error.into_inner().unwrap() {
        return Err(e);
    }
    Ok(sink.into_parts())
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
        assert_eq!(DncSchedule::parse("static"), Some(DncSchedule::Static));
        assert_eq!(DncSchedule::parse("steal"), Some(DncSchedule::Steal));
        assert_eq!(DncSchedule::parse("adaptive"), None);
        for s in [DncSchedule::Serial, DncSchedule::Static, DncSchedule::Steal] {
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
            pool: NodePool::new(0),
            steal: true,
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
    fn static_schedule_never_steals() {
        let costs = vec![7];
        let shared = Shared {
            deques: vec![Mutex::new(VecDeque::new()), Mutex::new(VecDeque::from([0]))],
            remaining: vec![AtomicU64::new(0), AtomicU64::new(7)],
            spare: AtomicUsize::new(0),
            abort: AtomicBool::new(false),
            pool: NodePool::new(0),
            steal: false,
        };
        assert_eq!(shared.next_task(0, &costs), None);
        assert_eq!(shared.next_task(1, &costs), Some(0));
    }

    #[test]
    fn node_pool_carves_grows_and_releases() {
        let pool = NodePool::new(8);
        let (g1, c1) = pool.acquire(4);
        assert_eq!((g1, c1), (4, 4));
        let (g2, c2) = pool.acquire(4);
        assert_eq!((g2, c2), (4, 4));
        // Pool exhausted: a third subset still gets a 1-rank group.
        let (g3, c3) = pool.acquire(4);
        assert_eq!((g3, c3), (1, 0));
        assert_eq!(pool.try_grow(2), 0);
        pool.release(c1);
        // A straggler absorbs the freed nodes, bounded by its cap.
        assert_eq!(pool.try_grow(3), 3);
        pool.release(c2 + 3);
        pool.release(c3);
        assert_eq!(*pool.free.lock().unwrap(), 8);
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
        assert!(retry_or_fail(transient(), &mut retries, 2, &mut log, None).is_ok());
        assert!(retry_or_fail(transient(), &mut retries, 2, &mut log, Some(4)).is_ok());
        // Budget exhausted: the third transient failure propagates.
        assert!(retry_or_fail(transient(), &mut retries, 2, &mut log, None).is_err());
        assert_eq!(retries, 2);
        assert_eq!(log.len(), 2);
        assert_eq!(log[1].resumed_from, Some(4));
        assert!(log.iter().all(|e| e.action == RecoveryAction::Restarted));
        // Fatal failures are never retried, budget or not.
        let mut retries2 = 0;
        let fatal = EfmError::UnknownReaction("r".into());
        assert!(retry_or_fail(fatal, &mut retries2, 2, &mut Vec::new(), None).is_err());
        assert_eq!(retries2, 0);
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
