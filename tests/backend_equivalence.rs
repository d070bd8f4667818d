//! Differential backend/schedule equality suite.
//!
//! Every execution strategy — serial, rayon, simulated cluster, and the
//! two divide-and-conquer schedules (`serial`, `steal`) — must
//! enumerate the *identical* EFM set. Each comparison goes through one
//! shared canonical form ([`canon`]: sorted support sets over original
//! reactions) so there is exactly one notion of equality in the suite.
//!
//! The `DNC_SCHEDULE` environment variable filters the schedule axis
//! (`DNC_SCHEDULE=steal` checks only that mode) — this is how the CI
//! matrix runs one lane per schedule. Unset, all schedules are checked.

use efm_bench::{network_i, pick_partition, Scale};
use efm_core::{
    Backend, CandidateTest, DncConfig, DncSchedule, EfmOptions, EfmOutcome, KernelKind, Run,
};
use efm_metnet::examples::toy_network;
use efm_numeric::{DynInt, F64Tol};

/// The single canonical comparator of the suite: sorted support sets over
/// original reaction indices. All equality assertions go through this.
fn canon(out: &EfmOutcome) -> Vec<Vec<usize>> {
    let mut v: Vec<Vec<usize>> = (0..out.efms.len()).map(|i| out.efms.support(i)).collect();
    v.sort();
    v
}

/// The schedule axis, optionally filtered by `DNC_SCHEDULE` (CI matrix).
fn schedules() -> Vec<DncSchedule> {
    let all = [DncSchedule::Serial, DncSchedule::Steal];
    match std::env::var("DNC_SCHEDULE") {
        Ok(want) => all.iter().copied().filter(|m| m.to_string() == want).collect(),
        Err(_) => all.to_vec(),
    }
}

fn dnc(schedule: DncSchedule, workers: usize) -> DncConfig {
    DncConfig { schedule, workers, ..Default::default() }
}

#[test]
fn toy_paper_example_agrees_across_backends_and_schedules() {
    // The paper's §III.A worked example: partition across {r6r, r8r}.
    let net = toy_network();
    let opts = EfmOptions::default();
    let reference = canon(
        &Run { opts: opts.clone(), backend: Backend::Serial, ..Default::default() }
            .enumerate::<DynInt>(&net)
            .unwrap(),
    );
    let backends = [
        ("serial", Backend::Serial),
        ("rayon", Backend::Rayon),
        ("cluster", Backend::Cluster(efm_cluster::ClusterConfig::new(3))),
    ];
    for (bname, backend) in &backends {
        for schedule in schedules() {
            let out = Run {
                opts: opts.clone(),
                partition: vec!["r6r".into(), "r8r".into()],
                backend: backend.clone(),
                dnc: dnc(schedule, 2),
                ..Default::default()
            }
            .enumerate::<DynInt>(&net)
            .unwrap();
            assert_eq!(
                canon(&out),
                reference,
                "backend {bname} / schedule {schedule} diverged from the direct serial run"
            );
        }
    }
}

#[test]
fn yeast_lite_two_way_split_agrees_across_schedules() {
    let net = network_i(Scale::Lite);
    let opts = EfmOptions::default();
    let direct = Run { opts: opts.clone(), backend: Backend::Serial, ..Default::default() }
        .enumerate::<F64Tol>(&net)
        .unwrap();
    let reference = canon(&direct);
    let partition = pick_partition(&net, &direct.reduced, &["R89r", "R74r"], 2);
    assert_eq!(partition.len(), 2, "lite Network I must retain a 2-way split");
    for schedule in schedules() {
        let out = Run {
            opts: opts.clone(),
            partition: partition.clone(),
            backend: Backend::Serial,
            dnc: dnc(schedule, 2),
            ..Default::default()
        }
        .enumerate::<F64Tol>(&net)
        .unwrap();
        assert_eq!(canon(&out), reference, "schedule {schedule} diverged on yeast-lite");
    }
}

/// PR 5 acceptance: the 4-reaction yeast-lite partition under
/// `--dnc-schedule steal` at 4 workers yields the same EFM set as the
/// sequential schedule (the speedup half of the criterion is measured by
/// the `dnc_balance` bench, which records BENCH_pr5.json).
#[test]
fn yeast_lite_four_way_steal_matches_serial_schedule() {
    let net = network_i(Scale::Lite);
    let opts = EfmOptions::default();
    let (red, _) = efm_metnet::compress(&net);
    let partition = pick_partition(&net, &red, &["R89r", "R74r", "R90r", "R22r"], 4);
    assert_eq!(partition.len(), 4, "lite Network I must retain a 4-way split");
    let serial = Run {
        opts: opts.clone(),
        partition: partition.clone(),
        backend: Backend::Serial,
        dnc: dnc(DncSchedule::Serial, 1),
        ..Default::default()
    }
    .enumerate::<F64Tol>(&net)
    .unwrap();
    let steal = Run {
        opts: opts.clone(),
        partition: partition.clone(),
        backend: Backend::Serial,
        dnc: dnc(DncSchedule::Steal, 4),
        ..Default::default()
    }
    .enumerate::<F64Tol>(&net)
    .unwrap();
    assert_eq!(canon(&steal), canon(&serial));
    assert_eq!(steal.efms.len(), serial.efms.len());
}

/// Cluster-backend divide-and-conquer on yeast-lite is the heavyweight
/// corner of the matrix; it runs in the `--include-ignored` soak lane.
#[test]
#[ignore = "heavy: cluster backend on yeast-lite; run via --include-ignored"]
fn yeast_lite_cluster_backend_schedules_agree() {
    let net = network_i(Scale::Lite);
    let opts = EfmOptions::default();
    let direct = Run { opts: opts.clone(), backend: Backend::Serial, ..Default::default() }
        .enumerate::<F64Tol>(&net)
        .unwrap();
    let reference = canon(&direct);
    let partition = pick_partition(&net, &direct.reduced, &["R89r", "R74r"], 2);
    let backend = Backend::Cluster(efm_cluster::ClusterConfig::new(2));
    for schedule in schedules() {
        let out = Run {
            opts: opts.clone(),
            partition: partition.clone(),
            backend: backend.clone(),
            dnc: dnc(schedule, 2),
            ..Default::default()
        }
        .enumerate::<F64Tol>(&net)
        .unwrap();
        assert_eq!(canon(&out), reference, "cluster schedule {schedule} diverged");
    }
}

/// The compressed/spilled subset assembly is an *implementation* of the
/// in-memory one: with spilling off and on, every backend and schedule
/// must yield the identical canonical EFM set — a zero resident budget
/// forces every finished subset through the compress + spill + stream-back
/// path.
#[test]
fn streaming_and_spill_agree_across_backends_and_schedules() {
    let net = toy_network();
    let reference = canon(
        &Run { opts: EfmOptions::default(), backend: Backend::Serial, ..Default::default() }
            .enumerate::<DynInt>(&net)
            .unwrap(),
    );
    let backends = [
        ("serial", Backend::Serial),
        ("rayon", Backend::Rayon),
        ("cluster", Backend::Cluster(efm_cluster::ClusterConfig::new(3))),
    ];
    let variants = [
        ("in-memory", EfmOptions::default()),
        ("spill", EfmOptions { spill_budget: Some(0), ..Default::default() }),
    ];
    for (bname, backend) in &backends {
        for (vname, opts) in &variants {
            let direct = Run { opts: opts.clone(), backend: backend.clone(), ..Default::default() }
                .enumerate::<DynInt>(&net)
                .unwrap();
            assert_eq!(
                canon(&direct),
                reference,
                "backend {bname} / {vname}: direct run diverged from the default serial run"
            );
            for schedule in schedules() {
                let out = Run {
                    opts: opts.clone(),
                    partition: vec!["r6r".into(), "r8r".into()],
                    backend: backend.clone(),
                    dnc: dnc(schedule, 2),
                    ..Default::default()
                }
                .enumerate::<DynInt>(&net)
                .unwrap();
                assert_eq!(
                    canon(&out),
                    reference,
                    "backend {bname} / {vname} / schedule {schedule} diverged"
                );
                if opts.spill_budget.is_some() {
                    assert!(
                        out.stats.spill_bytes > 0,
                        "backend {bname} / {vname} / schedule {schedule}: zero budget must spill"
                    );
                }
            }
        }
    }
}

/// Serial, rayon and a 3-rank cluster advance the engine through the same
/// states: under both elementarity tests, every iteration accepts as many
/// candidates and leaves as many modes, and the final sets agree.
/// Per-iteration counts catch a non-elementary intermediate that a later
/// iteration happens to prune, which a final-set comparison alone would
/// miss.
#[test]
fn backends_agree_on_every_iteration_for_both_tests() {
    let net = toy_network();
    for test in [CandidateTest::Rank, CandidateTest::Adjacency] {
        let opts = EfmOptions { test, ..Default::default() };
        let run = |backend: &Backend| {
            let out = Run { opts: opts.clone(), backend: backend.clone(), ..Default::default() }
                .enumerate::<DynInt>(&net)
                .unwrap();
            let series: Vec<(u64, usize)> =
                out.stats.iterations.iter().map(|i| (i.accepted, i.modes_after)).collect();
            (series, canon(&out))
        };
        let reference = run(&Backend::Serial);
        assert!(!reference.0.is_empty(), "the toy run has iterations");
        for (bname, backend) in [
            ("rayon", Backend::Rayon),
            ("cluster", Backend::Cluster(efm_cluster::ClusterConfig::new(3))),
        ] {
            assert_eq!(run(&backend), reference, "{test:?}: {bname} diverged from serial");
        }
    }
}

/// PR 6 acceptance: the SIMD batch kernel is an *implementation* of the
/// scalar semantics, not a variant — with the kernel forced on and forced
/// off, every backend enumerates the identical EFM set (via [`canon`],
/// the suite's single comparator). The per-primitive bit-identity is
/// covered by the proptest suite in `crates/bitset/tests/kernel_props.rs`;
/// this is the whole-pipeline end of that argument.
#[test]
fn kernel_on_off_agree_across_backends() {
    let net = toy_network();
    let scalar_opts = EfmOptions { kernel: KernelKind::Scalar, ..Default::default() };
    let simd_opts = EfmOptions { kernel: KernelKind::Auto, ..Default::default() };
    let reference = canon(
        &Run { opts: scalar_opts.clone(), backend: Backend::Serial, ..Default::default() }
            .enumerate::<DynInt>(&net)
            .unwrap(),
    );
    let backends = [
        ("serial", Backend::Serial),
        ("rayon", Backend::Rayon),
        ("cluster", Backend::Cluster(efm_cluster::ClusterConfig::new(3))),
    ];
    for (bname, backend) in &backends {
        let simd = Run { opts: simd_opts.clone(), backend: backend.clone(), ..Default::default() }
            .enumerate::<DynInt>(&net)
            .unwrap();
        assert_eq!(canon(&simd), reference, "backend {bname}: simd kernel diverged from scalar");
        for schedule in schedules() {
            let out = Run {
                opts: simd_opts.clone(),
                partition: vec!["r6r".into(), "r8r".into()],
                backend: backend.clone(),
                dnc: dnc(schedule, 2),
                ..Default::default()
            }
            .enumerate::<DynInt>(&net)
            .unwrap();
            assert_eq!(
                canon(&out),
                reference,
                "backend {bname} / schedule {schedule}: simd kernel diverged from scalar"
            );
        }
    }
}

/// The kernel knob reaches the engine: a default-options run follows
/// `EFM_KERNEL` (scalar in the forced-scalar CI lane, the detected tier
/// otherwise), while an explicit `Auto` always runs the detected tier —
/// which is what keeps the on/off tests above comparing scalar with AVX2
/// in both lanes. Any other value of the variable fails the test, so a
/// stale lane setting cannot pass unnoticed.
#[test]
fn kernel_tier_follows_env_default_and_explicit_auto() {
    let net = toy_network();
    let tier = |opts: EfmOptions| {
        Run { opts, backend: Backend::Serial, ..Default::default() }
            .enumerate::<DynInt>(&net)
            .unwrap()
            .stats
            .kernel_tier
    };
    let detected = efm_bitset::detect_tier().name();
    let want_default = match std::env::var("EFM_KERNEL").as_deref() {
        Err(std::env::VarError::NotPresent) | Ok("" | "auto") => detected,
        Ok("scalar") => "scalar",
        other => panic!("EFM_KERNEL is {other:?}, neither auto nor scalar"),
    };
    assert_eq!(tier(EfmOptions::default()), want_default, "default-options run");
    let auto = EfmOptions { kernel: KernelKind::Auto, ..Default::default() };
    assert_eq!(tier(auto), detected, "explicit KernelKind::Auto");
}

/// Same argument on a real network: yeast-lite under the float scalar,
/// scalar vs SIMD kernel, serial and rayon backends.
#[test]
fn kernel_on_off_agree_on_yeast_lite() {
    let net = network_i(Scale::Lite);
    let scalar_opts = EfmOptions { kernel: KernelKind::Scalar, ..Default::default() };
    let simd_opts = EfmOptions { kernel: KernelKind::Auto, ..Default::default() };
    let reference = canon(
        &Run { opts: scalar_opts.clone(), backend: Backend::Serial, ..Default::default() }
            .enumerate::<F64Tol>(&net)
            .unwrap(),
    );
    for (bname, backend) in [("serial", Backend::Serial), ("rayon", Backend::Rayon)] {
        let simd = Run { opts: simd_opts.clone(), backend: backend.clone(), ..Default::default() }
            .enumerate::<F64Tol>(&net)
            .unwrap();
        assert_eq!(canon(&simd), reference, "backend {bname}: simd kernel diverged on yeast-lite");
    }
}

/// Regression (PR 5 satellite): whatever order a concurrent schedule
/// finishes subsets in, reports come back sorted by subset id, and
/// aggregated statistics count each subset exactly once — the totals are
/// identical across schedules because each report carries only its own
/// successful attempt. On the cluster input the serial schedule runs each
/// subset on all four ranks and the stealing one on a smaller group, so
/// the per-rank counts must add up to whole-cluster totals either way.
#[test]
fn reports_are_id_ordered_and_stats_never_double_count() {
    let net = toy_network();
    let opts = EfmOptions::default();
    let inputs = [
        ("serial", Backend::Serial),
        ("cluster-4", Backend::Cluster(efm_cluster::ClusterConfig::new(4))),
    ];
    for (bname, backend) in inputs {
        let mut totals = Vec::new();
        for schedule in [DncSchedule::Serial, DncSchedule::Steal] {
            let cfg = dnc(schedule, 3);
            let out = Run {
                opts: opts.clone(),
                partition: vec!["r6r".into(), "r8r".into()],
                backend: backend.clone(),
                dnc: cfg.clone(),
                ..Default::default()
            }
            .enumerate::<DynInt>(&net)
            .unwrap();
            let ids: Vec<usize> = out.subsets.iter().map(|s| s.id).collect();
            assert_eq!(ids, vec![0, 1, 2, 3], "{bname} {schedule}: reports out of id order");
            let report_sum: u64 = out.subsets.iter().map(|s| s.stats.candidates_generated).sum();
            assert_eq!(
                out.stats.candidates_generated, report_sum,
                "{bname} {schedule}: aggregate disagrees with per-report sum"
            );
            let efm_sum: usize = out.subsets.iter().map(|s| s.efm_count).sum();
            assert_eq!(out.efms.len(), efm_sum, "{bname} {schedule}: EFM counts disagree");
            totals.push((out.stats.candidates_generated, out.stats.rank_tests, canon(&out)));
        }
        // Identical subproblems generate identical counts whatever the
        // schedule; a double-counted concurrent subset would break this.
        assert_eq!(totals[0], totals[1], "{bname}: steal disagrees with serial");
    }
}

// ---------------------------------------------------------------------------
// PR 8: degraded-mode differential suite. A killed rank must *degrade* the
// run — survivors re-stripe and continue with N−1 ranks — never change the
// answer, and never trigger a full restart when failover is on.
// ---------------------------------------------------------------------------

/// Engine fault points, in iteration order (the six phases of Algorithm 2
/// plus the iteration boundary they bracket).
const KILL_PHASES: [&str; 6] = ["iteration", "generate", "dedup", "rank", "communicate", "merge"];

fn failover_cluster(nodes: usize) -> efm_cluster::ClusterConfig {
    efm_cluster::ClusterConfig::new(nodes)
        .with_failover(true)
        .with_heartbeat(std::time::Duration::from_millis(5))
        .with_timeouts(efm_cluster::ClusterTimeouts::uniform(std::time::Duration::from_secs(60)))
}

/// Kill every non-zero rank at every engine phase under the supervisor:
/// each degraded run must produce the set-identical EFM set with a
/// `RecoveryLog` showing failover and zero full restarts.
#[test]
fn killing_any_rank_at_any_phase_fails_over_to_identical_set() {
    use efm_core::{RecoveryAction, SuperviseConfig};
    let net = toy_network();
    let opts = EfmOptions::default();
    let reference = canon(
        &Run { opts: opts.clone(), backend: Backend::Serial, ..Default::default() }
            .enumerate::<DynInt>(&net)
            .unwrap(),
    );
    let nodes = 3;
    let dir = std::env::temp_dir().join(format!("efm-kill-matrix-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for victim in 1..nodes {
        for (pi, phase) in KILL_PHASES.iter().enumerate() {
            let path = dir.join(format!("kill-{victim}-{phase}.efck"));
            let _ = std::fs::remove_file(&path);
            let seed = (victim * 10 + pi) as u64;
            let sup = SuperviseConfig::new(&path)
                .with_fault_plan(efm_cluster::FaultPlan::new(seed).kill_rank(victim, phase, 1));
            let out = Run {
                opts: opts.clone(),
                backend: Backend::Cluster(failover_cluster(nodes)),
                supervise: Some(sup.clone()),
                ..Default::default()
            }
            .enumerate::<DynInt>(&net)
            .unwrap_or_else(|e| panic!("kill rank {victim} at {phase}: {e}"));
            assert_eq!(canon(&out), reference, "kill rank {victim} at {phase}: EFM set diverged");
            assert_eq!(
                out.stats.recovery.restarts(),
                0,
                "kill rank {victim} at {phase}: failover must not full-restart\n{}",
                out.stats.recovery
            );
            assert!(
                out.stats.recovery.events.iter().any(|e| e.action == RecoveryAction::FailedOver),
                "kill rank {victim} at {phase}: no failover recorded\n{}",
                out.stats.recovery
            );
            assert_eq!(out.stats.failovers, 1, "kill rank {victim} at {phase}");
            assert_eq!(out.stats.ranks_lost, 1, "kill rank {victim} at {phase}");
            let _ = std::fs::remove_file(&path);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same degradation argument through the divide-and-conquer scheduler:
/// under the `steal` schedule a killed subset rank fails
/// over inside its node group — the run completes with the identical set
/// and the per-subset recovery events show failover, not restart.
#[test]
fn dnc_schedules_fail_over_killed_ranks_to_identical_set() {
    use efm_core::RecoveryAction;
    let net = toy_network();
    let opts = EfmOptions::default();
    let reference = canon(
        &Run { opts: opts.clone(), backend: Backend::Serial, ..Default::default() }
            .enumerate::<DynInt>(&net)
            .unwrap(),
    );
    let schedule = DncSchedule::Steal;
    // One one-shot kill in the shared base injector: whichever subset
    // group's rank 1 reaches generate[0] first loses that rank.
    let plan = efm_cluster::FaultPlan::new(77).kill_rank(1, "generate", 0);
    let base = failover_cluster(4)
        .with_injector(std::sync::Arc::new(efm_cluster::FaultInjector::new(plan)));
    let out = Run {
        opts: opts.clone(),
        partition: vec!["r6r".into(), "r8r".into()],
        backend: Backend::Cluster(base),
        dnc: dnc(schedule, 2),
        ..Default::default()
    }
    .enumerate::<DynInt>(&net)
    .unwrap_or_else(|e| panic!("schedule {schedule}: {e}"));
    assert_eq!(canon(&out), reference, "schedule {schedule}: EFM set diverged");
    assert!(
        out.stats.recovery.events.iter().any(|e| e.action == RecoveryAction::FailedOver),
        "schedule {schedule}: no failover recorded\n{}",
        out.stats.recovery
    );
    assert_eq!(
        out.stats.recovery.restarts(),
        0,
        "schedule {schedule}: failover must not consume a retry\n{}",
        out.stats.recovery
    );
    assert!(out.stats.failovers >= 1, "schedule {schedule}");
}
