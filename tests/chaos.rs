//! Chaos soak: sweep seeded fault plans over the supervised cluster and
//! assert every run converges to the exact fault-free EFM set.
//!
//! The matrix crosses crash faults at each instrumented collective phase
//! (`iteration`, `generate`, `dedup`, `rank`, `communicate`, `merge`) with
//! 2–4 ranks, plus a soft-fault sweep (stragglers, flaky and delayed
//! sends) that must finish with *zero* restarts. Every run executes under
//! a watchdog so a recovery bug shows up as a test failure, never a hang.

use efm_cluster::{ClusterConfig, ClusterTimeouts, FaultPlan};
use efm_core::{enumerate, EfmError, EfmOptions, Run, SuperviseConfig};
use efm_metnet::examples::toy_network;
use std::time::Duration;

const PHASES: [&str; 6] = ["iteration", "generate", "dedup", "rank", "communicate", "merge"];

/// Runs `f` on a watchdog thread; panics if it has not finished within
/// `secs` (a recovery bug must fail the suite, not hang the runner).
fn within_seconds<R: Send + 'static>(secs: u64, f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(secs)).expect("supervised run hung instead of recovering")
}

fn temp_ckpt(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("efm-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}.efck"))
}

/// One supervised run under `plan`; returns the outcome within the
/// watchdog window and removes its checkpoint.
fn supervised(
    tag: &str,
    nodes: usize,
    plan: FaultPlan,
    max_restarts: u32,
) -> Result<efm_core::EfmOutcome, EfmError> {
    let path = temp_ckpt(tag);
    let _ = std::fs::remove_file(&path);
    let p = path.clone();
    let out = within_seconds(120, move || {
        let net = toy_network();
        let opts = EfmOptions::default();
        // Short deadlines keep a (hypothetical) stuck collective from
        // eating the watchdog budget: detection is the product's job.
        let cluster = ClusterConfig::new(nodes)
            .with_timeouts(ClusterTimeouts::uniform(Duration::from_secs(30)));
        let sup = SuperviseConfig::new(&p).max_restarts(max_restarts).with_fault_plan(plan);
        Run {
            opts: opts.clone(),
            backend: Backend::Cluster(cluster.clone()),
            supervise: Some(sup.clone()),
            ..Default::default()
        }
        .enumerate::<efm_numeric::DynInt>(&net)
    });
    let _ = std::fs::remove_file(&path);
    out
}

#[test]
fn crash_sweep_over_every_phase_and_rank_count_recovers_exactly() {
    let direct = enumerate(&toy_network(), &EfmOptions::default()).unwrap();
    for (pi, phase) in PHASES.iter().enumerate() {
        for nodes in 2..=4usize {
            // Deterministic but varied placement: which rank dies and at
            // which iteration depend on the matrix cell, seeded per cell.
            let victim = (pi + nodes) % nodes;
            let iter = (pi % 3) as u64;
            let seed = (pi as u64) * 100 + nodes as u64;
            let plan = FaultPlan::new(seed).crash(victim, phase, iter);
            let tag = format!("crash-{phase}-{nodes}");
            let out = supervised(&tag, nodes, plan, 3).unwrap_or_else(|e| {
                panic!("phase={phase} nodes={nodes} victim={victim} iter={iter}: {e}")
            });
            assert_eq!(
                out.efms, direct.efms,
                "EFM set diverged after crash at {phase}[{iter}] on rank {victim}/{nodes}"
            );
            assert_eq!(
                out.stats.recovery.restarts(),
                1,
                "one crash must cost exactly one restart ({phase}, {nodes} ranks): {}",
                out.stats.recovery
            );
        }
    }
}

#[test]
fn double_crash_within_budget_still_recovers() {
    let direct = enumerate(&toy_network(), &EfmOptions::default()).unwrap();
    for nodes in 2..=4usize {
        let plan =
            FaultPlan::new(40 + nodes as u64).crash(0, "generate", 1).crash(nodes - 1, "merge", 3);
        let out = supervised(&format!("double-{nodes}"), nodes, plan, 3).unwrap();
        assert_eq!(out.efms, direct.efms, "{nodes} ranks");
        assert_eq!(out.stats.recovery.restarts(), 2, "{}", out.stats.recovery);
    }
}

#[test]
fn soft_fault_sweep_finishes_with_zero_restarts() {
    // Stragglers, dropped/duplicated/delayed/flaky sends: the runtime must
    // absorb all of these without the supervisor ever restarting. A
    // dropped data packet *is* fatal to that attempt (detected, not hung),
    // so drops are exercised in the restart sweep below instead.
    let direct = enumerate(&toy_network(), &EfmOptions::default()).unwrap();
    for nodes in 2..=4usize {
        let plan = FaultPlan::new(70 + nodes as u64)
            .straggler(nodes - 1, 2)
            .flaky_send(0, 2, 3)
            .delay_send(nodes / 2, 1, 5)
            .duplicate_send(0, 4);
        let out = supervised(&format!("soft-{nodes}"), nodes, plan, 0).unwrap();
        assert_eq!(out.efms, direct.efms, "{nodes} ranks");
        assert!(
            out.stats.recovery.is_empty(),
            "soft faults must not consume the restart budget ({nodes} ranks): {}",
            out.stats.recovery
        );
    }
}

#[test]
fn dropped_message_is_detected_and_survived_by_restart() {
    let direct = enumerate(&toy_network(), &EfmOptions::default()).unwrap();
    for nodes in 2..=3usize {
        let plan = FaultPlan::new(90 + nodes as u64).drop_send(0, 2);
        let out = supervised(&format!("drop-{nodes}"), nodes, plan, 3).unwrap();
        assert_eq!(out.efms, direct.efms, "{nodes} ranks");
        assert_eq!(
            out.stats.recovery.restarts(),
            1,
            "a lost packet costs one restart ({nodes} ranks): {}",
            out.stats.recovery
        );
    }
}

#[test]
fn overwhelming_crash_plan_exhausts_budget_with_full_log() {
    let mut plan = FaultPlan::new(99);
    for it in 0..10 {
        plan = plan.crash(0, "iteration", it);
    }
    let err = supervised("overwhelm", 2, plan, 2).unwrap_err();
    match err {
        EfmError::RestartsExhausted { max_restarts: 2, log, .. } => {
            assert_eq!(log.events.len(), 3, "2 restarts + 1 give-up: {log}");
        }
        other => panic!("expected RestartsExhausted, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Concurrent-subset crash matrix (PR 5): crash one divide-and-conquer
// subset while its siblings run under the work-stealing schedule. The
// per-subset supervisor must retry only the crashed subset, and the final
// EFM set must be byte-identical to the fault-free run.
// ---------------------------------------------------------------------------

use efm_core::{Backend, DncConfig, DncSchedule};

/// One divide-and-conquer run of the toy {r6r, r8r} split on the cluster
/// backend under the stealing schedule, with `plans` injected per subset.
fn dnc_run(
    tag: &str,
    plans: Vec<(usize, FaultPlan)>,
    max_retries: u32,
) -> Result<efm_core::EfmOutcome, EfmError> {
    let _ = tag;
    within_seconds(120, move || {
        let net = toy_network();
        let opts = EfmOptions::default();
        let cluster =
            ClusterConfig::new(2).with_timeouts(ClusterTimeouts::uniform(Duration::from_secs(30)));
        let dnc = DncConfig {
            schedule: DncSchedule::Steal,
            workers: 2,
            max_retries,
            fault_plans: plans,
            ..Default::default()
        };
        Run {
            opts: opts.clone(),
            partition: vec!["r6r".into(), "r8r".into()],
            backend: Backend::Cluster(cluster),
            dnc: dnc.clone(),
            ..Default::default()
        }
        .enumerate::<efm_numeric::DynInt>(&net)
    })
}

fn canon(out: &efm_core::EfmOutcome) -> Vec<Vec<usize>> {
    let mut v: Vec<Vec<usize>> = (0..out.efms.len()).map(|i| out.efms.support(i)).collect();
    v.sort();
    v
}

#[test]
fn crashed_subset_is_retried_alone_while_siblings_run() {
    let fault_free = dnc_run("dnc-clean", Vec::new(), 0).unwrap();
    assert!(fault_free.subsets.iter().all(|s| s.retries == 0));
    let victim = 3;
    let plan = FaultPlan::new(55).crash(0, "iteration", 0);
    let out = dnc_run("dnc-crash", vec![(victim, plan)], 2).unwrap();
    assert_eq!(canon(&out), canon(&fault_free), "EFM set diverged after subset crash");
    for s in &out.subsets {
        let expected = if s.id == victim { 1 } else { 0 };
        assert_eq!(s.retries, expected, "subset {} ({}) retries: {}", s.id, s.pattern, s.retries);
    }
    // The retry is visible in the crashed subset's own recovery log.
    let crashed = &out.subsets[victim];
    assert_eq!(crashed.stats.recovery.restarts(), 1, "{}", crashed.stats.recovery);
}

#[test]
fn crashed_subset_beyond_budget_fails_the_run_with_typed_error() {
    let mut plan = FaultPlan::new(56);
    for it in 0..10 {
        plan = plan.crash(0, "iteration", it);
    }
    let err = dnc_run("dnc-exhaust", vec![(1, plan)], 1).unwrap_err();
    assert!(
        matches!(err, EfmError::Cluster(_)),
        "expected the subset's cluster error to propagate, got {err:?}"
    );
}

// ---------------------------------------------------------------------------
// Hard memory cap (PR 7): a byte cap that trips mid-run must surface as a
// typed `MemoryExceeded` — never a hang, a panic, or a wrong answer — and
// the aborted run must resume from its last checkpoint to the byte-identical
// EFM set. With streaming generation (the default) the transient batch is
// charged against the meter, so the cap can fire inside generation itself.
// ---------------------------------------------------------------------------

use efm_core::{CheckpointConfig, EngineCheckpoint};

#[test]
fn hard_cap_mid_run_aborts_typed_and_resumes_byte_identical() {
    let net = toy_network();
    let opts = EfmOptions::default();
    let uncapped = Run {
        opts: opts.clone(),
        backend: Backend::Cluster(ClusterConfig::new(3)),
        ..Default::default()
    }
    .enumerate::<efm_numeric::DynInt>(&net)
    .unwrap();
    let peak = uncapped.stats.peak_bytes;
    assert!(peak > 0, "the cluster meter must charge real bytes");
    // One byte below the measured high-water mark: the deterministic replay
    // of whichever charge set the peak — a generation batch, a survivor
    // stripe, or a merge step — now trips the cap mid-run.
    let path = temp_ckpt("hard-cap");
    let _ = std::fs::remove_file(&path);
    let err = within_seconds(120, {
        let path = path.clone();
        move || {
            let net = toy_network();
            let capped = ClusterConfig::new(3).with_memory_limit(peak - 1);
            Run {
                opts: EfmOptions::default(),
                backend: Backend::Cluster(capped),
                checkpoint: Some(CheckpointConfig::new(&path)),
                ..Default::default()
            }
            .enumerate::<efm_numeric::DynInt>(&net)
        }
    })
    .unwrap_err();
    match err {
        EfmError::Cluster(efm_cluster::ClusterError::MemoryExceeded {
            requested,
            in_use,
            limit,
            ..
        }) => {
            assert!(in_use + requested > limit, "the typed abort must carry the breaching charge");
            assert_eq!(limit, peak - 1);
        }
        other => panic!("expected MemoryExceeded, got {other:?}"),
    }
    // The abort left the last completed iteration on disk; resuming on an
    // uncapped cluster recovers the exact set of the uninterrupted run.
    let ck = EngineCheckpoint::load(&path).expect("abort must leave an iteration snapshot");
    assert!(ck.iterations_completed() >= 1, "the cap tripped before the first checkpoint");
    let resumed = Run {
        opts: opts.clone(),
        backend: Backend::Cluster(ClusterConfig::new(3)),
        resume: Some(ck.clone()),
        ..Default::default()
    }
    .enumerate::<efm_numeric::DynInt>(&net)
    .unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(resumed.efms, uncapped.efms, "resumed EFM set diverged from the uncapped run");
}

// ---------------------------------------------------------------------------
// Degraded-mode kill matrix (PR 8): terminate one rank outright — it is
// gone for the rest of the attempt, not merely crashed-and-restartable.
// With failover enabled the survivors must re-stripe the dead rank's work
// and finish in place: byte-identical EFM set, a `FailedOver` entry in the
// recovery log, and *zero* full restarts. Killing the coordinator (rank 0)
// is the one case that must fall back to the restart ladder.
// ---------------------------------------------------------------------------

use efm_core::RecoveryAction;

/// One supervised run with failover enabled; the fault plan kills ranks
/// rather than crashing them.
fn supervised_failover(
    tag: &str,
    nodes: usize,
    plan: FaultPlan,
) -> Result<efm_core::EfmOutcome, EfmError> {
    let path = temp_ckpt(tag);
    let _ = std::fs::remove_file(&path);
    let p = path.clone();
    let out = within_seconds(120, move || {
        let net = toy_network();
        let opts = EfmOptions::default();
        let cluster = ClusterConfig::new(nodes)
            .with_failover(true)
            .with_heartbeat(Duration::from_millis(5))
            .with_timeouts(ClusterTimeouts::uniform(Duration::from_secs(30)));
        let sup = SuperviseConfig::new(&p).max_restarts(3).with_fault_plan(plan);
        Run {
            opts: opts.clone(),
            backend: Backend::Cluster(cluster.clone()),
            supervise: Some(sup.clone()),
            ..Default::default()
        }
        .enumerate::<efm_numeric::DynInt>(&net)
    });
    let _ = std::fs::remove_file(&path);
    out
}

#[test]
fn kill_sweep_over_every_phase_fails_over_without_restart() {
    let direct = enumerate(&toy_network(), &EfmOptions::default()).unwrap();
    for (pi, phase) in PHASES.iter().enumerate() {
        for nodes in 2..=4usize {
            // Deterministic non-zero victim: rank 0 owns the fallback path
            // and is exercised separately below.
            let victim = 1 + (pi + nodes) % (nodes - 1);
            let iter = (pi % 3) as u64;
            let seed = 800 + (pi as u64) * 100 + nodes as u64;
            let plan = FaultPlan::new(seed).kill_rank(victim, phase, iter);
            let tag = format!("kill-{phase}-{nodes}");
            let out = supervised_failover(&tag, nodes, plan).unwrap_or_else(|e| {
                panic!("phase={phase} nodes={nodes} victim={victim} iter={iter}: {e}")
            });
            assert_eq!(
                out.efms, direct.efms,
                "EFM set diverged after killing rank {victim}/{nodes} at {phase}[{iter}]"
            );
            assert_eq!(
                out.stats.recovery.restarts(),
                0,
                "a rank kill must fail over, never full-restart ({phase}, {nodes} ranks): {}",
                out.stats.recovery
            );
            assert_eq!(out.stats.failovers, 1, "{phase}, {nodes} ranks: {}", out.stats.recovery);
            assert_eq!(out.stats.ranks_lost, 1, "{phase}, {nodes} ranks");
            assert!(
                out.stats.recovery.events.iter().any(|e| e.action == RecoveryAction::FailedOver),
                "no FailedOver event ({phase}, {nodes} ranks): {}",
                out.stats.recovery
            );
        }
    }
}

#[test]
fn killed_coordinator_falls_back_to_the_restart_ladder() {
    let direct = enumerate(&toy_network(), &EfmOptions::default()).unwrap();
    let plan = FaultPlan::new(901).kill_rank(0, "communicate", 1);
    let out = supervised_failover("kill-rank0", 3, plan).unwrap();
    assert_eq!(out.efms, direct.efms);
    assert_eq!(out.stats.failovers, 0, "rank 0 cannot be failed over: {}", out.stats.recovery);
    assert_eq!(out.stats.recovery.restarts(), 1, "{}", out.stats.recovery);
}

/// Trimmed S. cerevisiae Network I (the yeast-lite of `tests/yeast_lite.rs`:
/// hubs R15 and R70 removed).
fn network_i_lite() -> efm_metnet::MetabolicNetwork {
    let text: String = efm_metnet::yeast::NETWORK_I_TEXT
        .lines()
        .filter(|l| {
            let name = l.split(':').next().unwrap_or("").trim();
            name != "R15" && name != "R70"
        })
        .map(|l| format!("{l}\n"))
        .collect();
    efm_metnet::parse_network(&text).unwrap()
}

/// One yeast-lite cell of the kill matrix stays in the default lane; the
/// full phase sweep below is soak-only.
#[test]
fn yeast_lite_survives_a_mid_run_rank_kill() {
    let net = network_i_lite();
    let opts = EfmOptions::default();
    let reference = Run { opts: opts.clone(), backend: Backend::Serial, ..Default::default() }
        .enumerate::<efm_numeric::F64Tol>(&net)
        .unwrap();
    let path = temp_ckpt("yeast-kill");
    let _ = std::fs::remove_file(&path);
    let out = within_seconds(300, {
        let path = path.clone();
        move || {
            let net = network_i_lite();
            let cluster = ClusterConfig::new(3)
                .with_failover(true)
                .with_heartbeat(Duration::from_millis(10))
                .with_timeouts(ClusterTimeouts::uniform(Duration::from_secs(60)));
            let plan = FaultPlan::new(1001).kill_rank(2, "communicate", 4);
            let sup = SuperviseConfig::new(&path).max_restarts(3).with_fault_plan(plan);
            Run {
                opts: EfmOptions::default(),
                backend: Backend::Cluster(cluster.clone()),
                supervise: Some(sup.clone()),
                ..Default::default()
            }
            .enumerate::<efm_numeric::F64Tol>(&net)
        }
    })
    .unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.efms, reference.efms, "yeast-lite EFM set diverged after rank kill");
    assert_eq!(out.stats.recovery.restarts(), 0, "{}", out.stats.recovery);
    assert_eq!(out.stats.failovers, 1, "{}", out.stats.recovery);
}

/// Acceptance matrix: killing any single non-zero rank at any engine phase
/// completes the yeast-lite run byte-identical with zero full restarts.
/// Soak lane (`--include-ignored`).
#[test]
#[ignore = "soak: 2 victims x 6 phases of supervised yeast-lite cluster runs; run via --include-ignored"]
fn yeast_lite_kill_matrix_fails_over_byte_identical() {
    let net = network_i_lite();
    let opts = EfmOptions::default();
    let reference = Run { opts: opts.clone(), backend: Backend::Serial, ..Default::default() }
        .enumerate::<efm_numeric::F64Tol>(&net)
        .unwrap();
    for victim in 1..3usize {
        for (pi, phase) in PHASES.iter().enumerate() {
            let path = temp_ckpt(&format!("yeast-kill-{victim}-{phase}"));
            let _ = std::fs::remove_file(&path);
            let out = within_seconds(300, {
                let path = path.clone();
                let seed = 1100 + (victim * PHASES.len() + pi) as u64;
                move || {
                    let net = network_i_lite();
                    let cluster = ClusterConfig::new(3)
                        .with_failover(true)
                        .with_heartbeat(Duration::from_millis(10))
                        .with_timeouts(ClusterTimeouts::uniform(Duration::from_secs(60)));
                    let plan = FaultPlan::new(seed).kill_rank(victim, phase, 2);
                    let sup = SuperviseConfig::new(&path).max_restarts(3).with_fault_plan(plan);
                    Run {
                        opts: EfmOptions::default(),
                        backend: Backend::Cluster(cluster.clone()),
                        supervise: Some(sup.clone()),
                        ..Default::default()
                    }
                    .enumerate::<efm_numeric::F64Tol>(&net)
                }
            })
            .unwrap_or_else(|e| panic!("victim={victim} phase={phase}: {e}"));
            let _ = std::fs::remove_file(&path);
            assert_eq!(out.efms, reference.efms, "victim={victim} phase={phase}");
            assert_eq!(
                out.stats.recovery.restarts(),
                0,
                "victim={victim} phase={phase}: {}",
                out.stats.recovery
            );
            assert_eq!(out.stats.failovers, 1, "victim={victim} phase={phase}");
        }
    }
}

/// Full matrix: every subset × every instrumented collective phase; the
/// crashed subset retries exactly once, siblings are untouched, and the
/// EFM set never changes. Soak lane (`--include-ignored`).
#[test]
#[ignore = "soak: 4 subsets x 6 phases of supervised cluster runs; run via --include-ignored"]
fn concurrent_subset_crash_matrix_recovers_exactly() {
    let fault_free = dnc_run("dnc-matrix-clean", Vec::new(), 0).unwrap();
    let reference = canon(&fault_free);
    for victim in 0..4usize {
        for (pi, phase) in PHASES.iter().enumerate() {
            let seed = 500 + (victim * PHASES.len() + pi) as u64;
            let plan = FaultPlan::new(seed).crash(0, phase, 0);
            let tag = format!("dnc-matrix-{victim}-{phase}");
            let out = dnc_run(&tag, vec![(victim, plan)], 2)
                .unwrap_or_else(|e| panic!("victim={victim} phase={phase}: {e}"));
            assert_eq!(canon(&out), reference, "victim={victim} phase={phase}");
            for s in &out.subsets {
                let expected = if s.id == victim { 1 } else { 0 };
                assert_eq!(s.retries, expected, "victim={victim} phase={phase} subset={}", s.id);
            }
        }
    }
}
