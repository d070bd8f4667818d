//! Self-healing cluster supervision: run, detect, classify, recover.
//!
//! The paper assumes every node survives the whole run. PR 2's abort-safe
//! runtime reports failures promptly; this module makes the run *survive*
//! them. [`Run::supervise`] launches the cluster engine under a
//! watchdog (every blocking primitive carries a deadline from
//! [`ClusterTimeouts`](efm_cluster::ClusterTimeouts), so a dead rank
//! surfaces as a typed error instead of a hang), classifies each failure,
//! and acts:
//!
//! * **retryable** (injected crash, timeout, lost message, failed send,
//!   node panic, secondary abort) — restart from the newest valid
//!   [`EngineCheckpoint`], bounded by a restart budget; at most one
//!   iteration of work is lost per restart;
//! * **memory** — a restart would hit the same wall, so the failure is
//!   rerouted to the escalation ladder ([`Run::escalate`]): the run deepens
//!   the `2^qsub` divide-and-conquer ladder instead (the paper's Network II
//!   recovery, automated), starting at one split — the failed attempt is
//!   the ladder's unsplit rung, so it is not run again;
//! * **fatal** (protocol bugs, bad partitions, mode limits, a snapshot
//!   that cannot be written) — surfaced immediately; no restart can fix a
//!   broken program, and the newest snapshot, which an atomic save left
//!   intact, stays on disk for a later resume.
//!
//! Every observed fault and action is recorded in a [`RecoveryLog`] that
//! lands in [`RunStats::recovery`] on success and inside
//! [`EfmError::RestartsExhausted`] when the budget runs out.
//!
//! Deterministic chaos: a seeded [`FaultPlan`] installs a shared
//! [`FaultInjector`](efm_cluster::FaultInjector) that persists across
//! restarts, so one-shot faults (a crash planted at iteration k) fire once
//! per *supervised session*, not once per attempt — exactly the behaviour
//! of a real node that dies once and is replaced.

use crate::api::{supports, Run, Solved};
use crate::bridge::EfmScalar;
use crate::checkpoint::{CheckpointConfig, EngineCheckpoint};
use crate::divide::Backend;
use crate::escalate::{escalate, EscalationAttempt};
use crate::problem::EfmProblem;
use crate::schedule::{fail_over, DncConfig};
use crate::types::{EfmError, FailureClass, RecoveryAction, RecoveryEvent, RecoveryLog};
use efm_bitset::BitPattern;
use efm_cluster::{ClusterError, FaultInjector, FaultPlan};
use efm_metnet::{MetabolicNetwork, ReducedNetwork};
use std::sync::Arc;

/// Supervision policy: restart budget, checkpoint location, the (optional)
/// fault plan for reproducible chaos runs and the flight recorder. The
/// escalation depth is [`Run::escalate`] and the subset scheduler of
/// escalated runs is [`Run::dnc`].
#[derive(Debug, Clone)]
pub struct SuperviseConfig {
    /// Maximum restarts before giving up with
    /// [`EfmError::RestartsExhausted`]. Checkpoint discards count toward
    /// the budget so a persistently bad checkpoint cannot loop forever.
    /// Once the run escalates, the budget is per subset: the escalated
    /// run's `dnc.max_retries` is overridden with it, so one crashing
    /// subset is retried alone instead of restarting every sibling.
    pub max_restarts: u32,
    /// Where iteration-boundary snapshots are written and resumed from.
    pub checkpoint: CheckpointConfig,
    /// Deterministic faults to inject (chaos testing). `None` supervises a
    /// fault-free run.
    pub fault_plan: Option<FaultPlan>,
    /// Where crash postmortem bundles are written. Every recovery action
    /// (restart, failover, escalation, checkpoint discard) and every
    /// terminal failure dumps a self-contained bundle — trace tail,
    /// metrics/histograms, recovery log, checkpoint fingerprint — so a
    /// failed or degraded run can be diagnosed after the fact. `None`
    /// disables the flight recorder.
    pub postmortem_dir: Option<std::path::PathBuf>,
}

impl SuperviseConfig {
    /// A default policy: 3 restarts, checkpoint after every iteration at
    /// `path`, no injected faults.
    pub fn new(checkpoint_path: impl Into<std::path::PathBuf>) -> Self {
        SuperviseConfig {
            max_restarts: 3,
            // Lazy: shed a snapshot while the previous write is in
            // flight, trading a slightly staler resume point for bounded
            // checkpoint overhead on fault-free runs.
            checkpoint: CheckpointConfig::new(checkpoint_path).lazy(true),
            fault_plan: None,
            postmortem_dir: None,
        }
    }

    /// Sets the restart budget.
    pub fn max_restarts(mut self, n: u32) -> Self {
        self.max_restarts = n;
        self
    }

    /// Installs a fault plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Enables the flight recorder: postmortem bundles land under `dir`.
    pub fn with_postmortem_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.postmortem_dir = Some(dir.into());
        self
    }
}

/// Dumps a postmortem bundle for one supervision event. Best-effort: a
/// bundle that cannot be written must never turn a recoverable fault into
/// a fatal one, so I/O errors are swallowed (noted on stderr).
fn postmortem(sup: &SuperviseConfig, tag: &str, reason: &str, log: &RecoveryLog) {
    let Some(dir) = &sup.postmortem_dir else { return };
    let mut extra: Vec<(&str, String)> = vec![("recovery.txt", log.to_string())];
    extra.push(("checkpoint.txt", checkpoint_fingerprint(&sup.checkpoint.path)));
    match efm_obs::postmortem::write_bundle(dir, tag, reason, &extra) {
        Ok(path) => eprintln!("[postmortem] bundle written to {}", path.display()),
        Err(e) => eprintln!("[postmortem] failed to write bundle: {e}"),
    }
}

/// Identifies the checkpoint a recovery would resume from: path, byte
/// length, and CRC-32 of the contents — enough to tell two bundles apart
/// and to match a bundle to the on-disk file it describes.
fn checkpoint_fingerprint(path: &std::path::Path) -> String {
    match std::fs::read(path) {
        Ok(bytes) => format!(
            "path: {}\nlen: {}\ncrc32: {:08x}\n",
            path.display(),
            bytes.len(),
            efm_cluster::crc::crc32(&bytes)
        ),
        Err(e) => format!("path: {}\nunreadable: {e}\n", path.display()),
    }
}

/// Classifies a failed enumeration for the recovery state machine.
pub fn classify_failure(e: &EfmError) -> FailureClass {
    match e {
        e if e.is_memory_exceeded() => FailureClass::Memory,
        // A heartbeat-detected rank death: the survivors are intact, so
        // the recovery is in-place failover, not a restart.
        EfmError::Cluster(ClusterError::RankLost { .. }) => FailureClass::RankLost,
        EfmError::Cluster(ce) if ce.is_retryable() => FailureClass::Retryable,
        // An unreadable or mismatched checkpoint is recoverable by
        // discarding it and restarting fresh. A failed write is not: the
        // file it failed to replace is the run's valid progress.
        EfmError::Checkpoint(_) => FailureClass::Retryable,
        _ => FailureClass::Fatal,
    }
}

/// Supervised cluster enumeration of `problem` under `run`'s backend, which
/// validation has made a cluster. See the module docs for the recovery
/// state machine.
pub(crate) fn supervise<P: BitPattern, S: EfmScalar>(
    run: &Run,
    sup: &SuperviseConfig,
    net: &MetabolicNetwork,
    red: &ReducedNetwork,
    problem: &EfmProblem<S>,
    escalation: &mut Vec<EscalationAttempt>,
) -> Result<Solved, EfmError> {
    let Backend::Cluster(cluster) = &run.backend else {
        return Err(EfmError::InvalidRun("supervision requires the cluster backend"));
    };
    // One injector for the whole session: point faults fire once across
    // restarts (the `Arc` carries the one-shot latches through every
    // attempt's ClusterConfig).
    let injector: Option<Arc<FaultInjector>> =
        sup.fault_plan.clone().map(|p| Arc::new(FaultInjector::new(p)));

    let mut log = RecoveryLog::default();
    let mut restarts: u32 = 0;
    let mut attempt: u32 = 0;
    // Live membership: a failover shrinks `nodes` and re-stripes the
    // survivors via `run_opts.stripe_weights`; every later attempt
    // (including plain restarts) runs on the degraded group.
    let mut nodes = cluster.nodes;
    let mut run_opts = run.opts.clone();
    let mut failovers: u64 = 0;
    let finish = |mut solved: Solved, log: RecoveryLog, failovers: u64| {
        solved.stats.recovery = log;
        solved.stats.failovers += failovers;
        solved.stats.ranks_lost += failovers;
        solved
    };
    loop {
        attempt += 1;
        // The backend is rebuilt per attempt: failover changes the rank
        // count, so the config cannot be fixed up front.
        let mut cfg = cluster.clone();
        cfg.nodes = nodes;
        if let Some(inj) = &injector {
            cfg = cfg.with_injector(Arc::clone(inj));
        }
        let backend = Backend::Cluster(cfg);
        // Newest valid checkpoint, if any. An unreadable file is discarded
        // here (logged); a structurally mismatched one is rejected by the
        // engine below and discarded on the Checkpoint error path.
        let resume = load_checkpoint(&sup.checkpoint, attempt, &mut log)?;
        let resume_iter = resume.as_ref().map(|ck| ck.iterations_completed());
        let result =
            supports::<P, S>(problem, &run_opts, &backend, resume.as_ref(), Some(&sup.checkpoint));
        let err = match result {
            Ok(out) => return Ok(finish(out.into(), log, failovers)),
            Err(e) => e,
        };
        match classify_failure(&err) {
            FailureClass::Fatal => {
                postmortem(sup, "fatal", &err.to_string(), &log);
                return Err(err);
            }
            FailureClass::Memory => {
                // A restart replays into the same wall; deepen the
                // divide-and-conquer ladder instead, from its first split:
                // this failed attempt is the ladder's unsplit rung. The
                // subproblems are different enumerations, so the
                // checkpoint does not apply.
                if efm_obs::enabled() {
                    efm_obs::instant_dyn(format!("supervisor: escalate after {err}"));
                }
                log.events.push(RecoveryEvent {
                    at_us: efm_obs::now_us(),
                    attempt,
                    error: err.to_string(),
                    class: FailureClass::Memory,
                    action: RecoveryAction::Escalated,
                    resumed_from: None,
                });
                postmortem(sup, "escalate", &err.to_string(), &log);
                let Some(max_qsub) = run.escalate else {
                    log.events.push(give_up(attempt, &err));
                    postmortem(sup, "gave-up", &err.to_string(), &log);
                    return Err(exhausted(sup.max_restarts, err, log));
                };
                // The restart budget becomes per-subset: a crashed subset
                // is retried alone, up to `max_restarts` times, without
                // disturbing its siblings.
                let dnc = DncConfig { max_retries: sup.max_restarts, ..run.dnc.clone() };
                return match escalate::<P, S>(
                    net, red, &run_opts, &backend, &dnc, max_qsub, err, escalation,
                ) {
                    Ok(solved) => Ok(finish(solved, log, failovers)),
                    Err(e) => {
                        log.events.push(give_up(attempt, &e));
                        postmortem(sup, "gave-up", &e.to_string(), &log);
                        Err(exhausted(sup.max_restarts, e, log))
                    }
                };
            }
            FailureClass::RankLost => {
                // In-place failover: re-enter at the current boundary with
                // N−1 ranks, the dead rank's stripe redistributed across
                // survivors. Deliberately does not consume the restart
                // budget — the survivors' work is intact, nothing replays
                // beyond the current iteration. The checkpoint records the
                // weights the interrupted attempt striped with.
                let prior = resume.as_ref().map(|ck| ck.stripe_weights.as_slice());
                let ev = fail_over(
                    "supervisor: failover",
                    &err,
                    &mut nodes,
                    &mut run_opts.stripe_weights,
                    prior,
                    attempt,
                    resume_iter,
                );
                if let Some(ev) = ev {
                    log.events.push(ev);
                    postmortem(sup, "failover", &err.to_string(), &log);
                    failovers += 1;
                    continue;
                }
                // Cannot degrade further, or the loss is not a clean
                // non-coordinator death: fall back to the restart ladder,
                // burning budget like any retryable fault.
                restarts += 1;
                if restarts > sup.max_restarts {
                    log.events.push(give_up(attempt, &err));
                    postmortem(sup, "gave-up", &err.to_string(), &log);
                    return Err(exhausted(sup.max_restarts, err, log));
                }
                if efm_obs::enabled() {
                    efm_obs::instant_dyn(format!("supervisor: restart after {err}"));
                }
                log.events.push(RecoveryEvent {
                    at_us: efm_obs::now_us(),
                    attempt,
                    error: err.to_string(),
                    class: FailureClass::RankLost,
                    action: RecoveryAction::Restarted,
                    resumed_from: resume_iter,
                });
                postmortem(sup, "restart", &err.to_string(), &log);
            }
            FailureClass::Retryable => {
                let discard = matches!(err, EfmError::Checkpoint(_));
                restarts += 1;
                if restarts > sup.max_restarts {
                    log.events.push(give_up(attempt, &err));
                    postmortem(sup, "gave-up", &err.to_string(), &log);
                    return Err(exhausted(sup.max_restarts, err, log));
                }
                if discard {
                    // The checkpoint itself is the problem (stale network,
                    // different scalar/ordering): remove it and start over.
                    let _ = std::fs::remove_file(&sup.checkpoint.path);
                    log.events.push(RecoveryEvent {
                        at_us: efm_obs::now_us(),
                        attempt,
                        error: err.to_string(),
                        class: FailureClass::Retryable,
                        action: RecoveryAction::DiscardedCheckpoint,
                        resumed_from: None,
                    });
                    postmortem(sup, "discard-ckpt", &err.to_string(), &log);
                } else {
                    if efm_obs::enabled() {
                        efm_obs::instant_dyn(format!("supervisor: restart after {err}"));
                    }
                    log.events.push(RecoveryEvent {
                        at_us: efm_obs::now_us(),
                        attempt,
                        error: err.to_string(),
                        class: FailureClass::Retryable,
                        action: RecoveryAction::Restarted,
                        resumed_from: resume_iter,
                    });
                    postmortem(sup, "restart", &err.to_string(), &log);
                }
            }
        }
    }
}

/// Loads the newest checkpoint if one exists and is readable. A missing
/// file is a clean fresh start; an unreadable (truncated, corrupt) file is
/// discarded with a logged event rather than treated as fatal.
fn load_checkpoint(
    ckpt: &CheckpointConfig,
    attempt: u32,
    log: &mut RecoveryLog,
) -> Result<Option<EngineCheckpoint>, EfmError> {
    if !ckpt.path.exists() {
        return Ok(None);
    }
    match EngineCheckpoint::load(&ckpt.path) {
        Ok(ck) => Ok(Some(ck)),
        Err(e) => {
            let _ = std::fs::remove_file(&ckpt.path);
            log.events.push(RecoveryEvent {
                at_us: efm_obs::now_us(),
                attempt,
                error: e.to_string(),
                class: FailureClass::Retryable,
                action: RecoveryAction::DiscardedCheckpoint,
                resumed_from: None,
            });
            Ok(None)
        }
    }
}

fn give_up(attempt: u32, err: &EfmError) -> RecoveryEvent {
    RecoveryEvent {
        at_us: efm_obs::now_us(),
        attempt,
        error: err.to_string(),
        class: classify_failure(err),
        action: RecoveryAction::GaveUp,
        resumed_from: None,
    }
}

fn exhausted(max_restarts: u32, last: EfmError, log: RecoveryLog) -> EfmError {
    EfmError::RestartsExhausted { max_restarts, last: Box::new(last), log }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EfmOptions, EfmOutcome};
    use efm_cluster::{ClusterConfig, ClusterTimeouts};
    use efm_numeric::DynInt;
    use std::time::Duration;

    fn supervised(
        net: &MetabolicNetwork,
        opts: &EfmOptions,
        cluster: &ClusterConfig,
        sup: &SuperviseConfig,
    ) -> Result<EfmOutcome, EfmError> {
        let run = Run {
            opts: opts.clone(),
            backend: Backend::Cluster(cluster.clone()),
            supervise: Some(sup.clone()),
            ..Default::default()
        };
        run.enumerate::<DynInt>(net)
    }

    fn temp_ckpt(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("efm-supervise-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("run.efck")
    }

    #[test]
    fn fault_free_supervised_run_matches_direct() {
        let net = efm_metnet::examples::toy_network();
        let opts = EfmOptions::default();
        let direct = crate::enumerate(&net, &opts).unwrap();
        let path = temp_ckpt("fault-free");
        let sup = SuperviseConfig::new(&path);
        let out = supervised(&net, &opts, &ClusterConfig::new(2), &sup).unwrap();
        assert_eq!(out.efms, direct.efms);
        assert!(out.stats.recovery.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn crash_mid_run_recovers_to_identical_efm_set() {
        let net = efm_metnet::examples::toy_network();
        let opts = EfmOptions::default();
        let direct = crate::enumerate(&net, &opts).unwrap();
        let path = temp_ckpt("crash");
        let _ = std::fs::remove_file(&path);
        let sup = SuperviseConfig::new(&path).with_fault_plan(FaultPlan::new(11).crash(
            1,
            "communicate",
            2,
        ));
        let out = supervised(&net, &opts, &ClusterConfig::new(3), &sup).unwrap();
        assert_eq!(out.efms, direct.efms);
        assert_eq!(out.stats.recovery.restarts(), 1, "{}", out.stats.recovery);
        let ev = &out.stats.recovery.events[0];
        assert_eq!(ev.class, FailureClass::Retryable);
        assert_eq!(ev.action, RecoveryAction::Restarted);
        assert!(ev.error.contains("injected crash") || ev.error.contains("crash"), "{}", ev.error);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn exhausted_budget_returns_typed_error_with_log() {
        let net = efm_metnet::examples::toy_network();
        let opts = EfmOptions::default();
        let path = temp_ckpt("exhaust");
        let _ = std::fs::remove_file(&path);
        // Crash at every iteration on rank 0: more faults than the budget.
        let mut plan = FaultPlan::new(12);
        for it in 0..8 {
            plan = plan.crash(0, "iteration", it);
        }
        let sup = SuperviseConfig::new(&path).max_restarts(2).with_fault_plan(plan);
        let err = supervised(&net, &opts, &ClusterConfig::new(2), &sup).unwrap_err();
        match err {
            EfmError::RestartsExhausted { max_restarts: 2, last, log } => {
                assert!(matches!(*last, EfmError::Cluster(_)), "{last:?}");
                // 2 restarts + 1 give-up.
                assert_eq!(log.events.len(), 3, "{log}");
                assert_eq!(log.events.last().unwrap().action, RecoveryAction::GaveUp);
            }
            other => panic!("unexpected {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stale_checkpoint_is_discarded_not_fatal() {
        let net = efm_metnet::examples::toy_network();
        let opts = EfmOptions::default();
        let path = temp_ckpt("stale");
        // Seed the path with a checkpoint from a *different* problem by
        // running that problem supervised first (it snapshots every
        // iteration and leaves the final checkpoint behind).
        let other = efm_metnet::generator::parallel_branches(4);
        let sup_other = SuperviseConfig::new(&path);
        supervised(&other, &opts, &ClusterConfig::new(2), &sup_other).unwrap();
        assert!(path.exists(), "checkpoint must persist after the other run");
        let direct = crate::enumerate(&net, &opts).unwrap();
        let sup = SuperviseConfig::new(&path);
        let out = supervised(&net, &opts, &ClusterConfig::new(2), &sup).unwrap();
        assert_eq!(out.efms, direct.efms);
        assert!(
            out.stats
                .recovery
                .events
                .iter()
                .any(|e| e.action == RecoveryAction::DiscardedCheckpoint),
            "{}",
            out.stats.recovery
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn failed_snapshot_write_is_fatal_and_keeps_the_checkpoint() {
        let net = efm_metnet::examples::toy_network();
        let opts = EfmOptions::default();
        let path = temp_ckpt("unwritable");
        let tmp = path.with_extension("tmp");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&tmp);
        // A crash with no restart budget leaves a mid-run snapshot behind.
        let crash = SuperviseConfig::new(&path)
            .max_restarts(0)
            .with_fault_plan(FaultPlan::new(13).crash(1, "communicate", 2));
        supervised(&net, &opts, &ClusterConfig::new(2), &crash).unwrap_err();
        let before = std::fs::read(&path).expect("the crashed run left a snapshot");
        // A directory where the save's temp file goes makes every write
        // fail, whatever the process's privileges.
        std::fs::create_dir(&tmp).unwrap();
        let err = supervised(&net, &opts, &ClusterConfig::new(2), &SuperviseConfig::new(&path))
            .unwrap_err();
        assert!(matches!(err, EfmError::CheckpointWrite(_)), "{err:?}");
        assert_eq!(classify_failure(&err), FailureClass::Fatal);
        assert_eq!(std::fs::read(&path).unwrap(), before, "the resumed snapshot must survive");
        std::fs::remove_dir(&tmp).unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn memory_failure_escalates_through_supervisor() {
        let net = efm_metnet::examples::toy_network();
        let opts = EfmOptions::default();
        let direct = crate::enumerate(&net, &opts).unwrap();
        let path = temp_ckpt("memory");
        let _ = std::fs::remove_file(&path);
        // Find a cap that aborts the unsplit run (same probe as escalate's
        // test), then supervise with 4x that cap and a deep ladder.
        let mut cap = None;
        for bytes in [96u64, 128, 160, 192, 256, 320, 384] {
            let cfg = ClusterConfig::new(2).with_memory_limit(bytes);
            let run = Run { backend: Backend::Cluster(cfg), ..Default::default() };
            match run.enumerate::<DynInt>(&net) {
                Err(EfmError::Cluster(e)) if e.is_memory_exceeded() => {
                    cap = Some(bytes);
                    break;
                }
                _ => {}
            }
        }
        let Some(cap) = cap else { panic!("no cap tripped the unsplit toy run") };
        let cluster = ClusterConfig::new(2).with_memory_limit(cap * 4);
        let run = Run {
            opts,
            backend: Backend::Cluster(cluster),
            escalate: Some(2),
            supervise: Some(SuperviseConfig::new(&path)),
            ..Default::default()
        };
        match run.enumerate::<DynInt>(&net) {
            Ok(out) => {
                assert_eq!(out.efms, direct.efms);
                assert!(
                    out.stats.recovery.events.iter().any(|e| e.action == RecoveryAction::Escalated),
                    "{}",
                    out.stats.recovery
                );
            }
            Err(EfmError::RestartsExhausted { last, .. }) => {
                // Even the deepest rung did not fit under the cap — still a
                // clean typed exit, never a hang.
                assert!(
                    matches!(*last, EfmError::Cluster(_) | EfmError::EscalationExhausted { .. }),
                    "{last:?}"
                );
            }
            Err(other) => panic!("unexpected {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn killed_rank_fails_over_without_restart() {
        let net = efm_metnet::examples::toy_network();
        let opts = EfmOptions::default();
        let direct = crate::enumerate(&net, &opts).unwrap();
        let path = temp_ckpt("failover");
        let _ = std::fs::remove_file(&path);
        let sup = SuperviseConfig::new(&path).with_fault_plan(FaultPlan::new(21).kill_rank(
            2,
            "communicate",
            2,
        ));
        let cluster = ClusterConfig::new(3)
            .with_failover(true)
            .with_heartbeat(Duration::from_millis(5))
            .with_timeouts(ClusterTimeouts::uniform(Duration::from_secs(30)));
        let out = supervised(&net, &opts, &cluster, &sup).unwrap();
        assert_eq!(out.efms, direct.efms);
        assert_eq!(out.stats.recovery.restarts(), 0, "{}", out.stats.recovery);
        assert_eq!(out.stats.failovers, 1);
        assert_eq!(out.stats.ranks_lost, 1);
        let ev = out
            .stats
            .recovery
            .events
            .iter()
            .find(|e| e.action == RecoveryAction::FailedOver)
            .expect("failover event in the log");
        assert_eq!(ev.class, FailureClass::RankLost);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn killed_coordinator_recovers_via_restart_ladder() {
        let net = efm_metnet::examples::toy_network();
        let opts = EfmOptions::default();
        let direct = crate::enumerate(&net, &opts).unwrap();
        let path = temp_ckpt("failover-rank0");
        let _ = std::fs::remove_file(&path);
        // Rank 0 owns the checkpoint writer and the result slot; its death
        // cannot be failed over and must fall back to a full restart.
        let sup = SuperviseConfig::new(&path).with_fault_plan(FaultPlan::new(22).kill_rank(
            0,
            "communicate",
            2,
        ));
        let cluster = ClusterConfig::new(3)
            .with_failover(true)
            .with_heartbeat(Duration::from_millis(5))
            .with_timeouts(ClusterTimeouts::uniform(Duration::from_secs(30)));
        let out = supervised(&net, &opts, &cluster, &sup).unwrap();
        assert_eq!(out.efms, direct.efms);
        assert_eq!(out.stats.failovers, 0, "{}", out.stats.recovery);
        assert_eq!(out.stats.recovery.restarts(), 1, "{}", out.stats.recovery);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn two_killed_ranks_degrade_twice() {
        let net = efm_metnet::examples::toy_network();
        let opts = EfmOptions::default();
        let direct = crate::enumerate(&net, &opts).unwrap();
        let path = temp_ckpt("failover-twice");
        let _ = std::fs::remove_file(&path);
        // Two separate deaths: 4 -> 3 -> 2 ranks, zero full restarts. The
        // second plan entry names the rank index in the *degraded* group.
        let sup = SuperviseConfig::new(&path).with_fault_plan(
            FaultPlan::new(23).kill_rank(3, "generate", 1).kill_rank(1, "merge", 3),
        );
        let cluster = ClusterConfig::new(4)
            .with_failover(true)
            .with_heartbeat(Duration::from_millis(5))
            .with_timeouts(ClusterTimeouts::uniform(Duration::from_secs(30)));
        let out = supervised(&net, &opts, &cluster, &sup).unwrap();
        assert_eq!(out.efms, direct.efms);
        assert_eq!(out.stats.recovery.restarts(), 0, "{}", out.stats.recovery);
        assert_eq!(out.stats.failovers, 2);
        assert_eq!(out.stats.ranks_lost, 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn killed_rank_without_failover_restarts() {
        let net = efm_metnet::examples::toy_network();
        let opts = EfmOptions::default();
        let direct = crate::enumerate(&net, &opts).unwrap();
        let path = temp_ckpt("kill-no-failover");
        let _ = std::fs::remove_file(&path);
        // Without the liveness layer a kill surfaces through the abort
        // machinery as a retryable fault: the old restart behaviour.
        let sup = SuperviseConfig::new(&path).with_fault_plan(FaultPlan::new(24).kill_rank(
            1,
            "communicate",
            2,
        ));
        let cluster =
            ClusterConfig::new(3).with_timeouts(ClusterTimeouts::uniform(Duration::from_secs(30)));
        let out = supervised(&net, &opts, &cluster, &sup).unwrap();
        assert_eq!(out.efms, direct.efms);
        assert_eq!(out.stats.failovers, 0);
        assert_eq!(out.stats.recovery.restarts(), 1, "{}", out.stats.recovery);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn straggler_and_flaky_sends_finish_without_restart() {
        let net = efm_metnet::examples::toy_network();
        let opts = EfmOptions::default();
        let direct = crate::enumerate(&net, &opts).unwrap();
        let path = temp_ckpt("soft");
        let _ = std::fs::remove_file(&path);
        let plan = FaultPlan::new(13).straggler(1, 2).flaky_send(0, 3, 2).delay_send(1, 2, 3);
        let cluster =
            ClusterConfig::new(2).with_timeouts(ClusterTimeouts::uniform(Duration::from_secs(30)));
        let sup = SuperviseConfig::new(&path).with_fault_plan(plan);
        let out = supervised(&net, &opts, &cluster, &sup).unwrap();
        assert_eq!(out.efms, direct.efms);
        assert!(out.stats.recovery.is_empty(), "soft faults need no restart");
        let _ = std::fs::remove_file(&path);
    }
}
