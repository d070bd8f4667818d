//! Behavioural tests of the combinatorial parallel algorithm on the
//! simulated cluster: balanced work split, identical per-rank results,
//! phase instrumentation, and the memory-capacity failure mode.

use efm_cluster::{ClusterConfig, ClusterError};
use efm_core::{
    build_problem, cluster_supports_resumable, phases, Backend, EfmError, EfmOptions, Run,
};
use efm_metnet::generator::layered_branches;
use efm_metnet::{compress, examples::toy_network};
use efm_numeric::DynInt;

#[test]
fn pair_grid_split_is_balanced() {
    // Each rank's generated pair count differs by at most the per-iteration
    // number of iterations (integer division remainder ≤ 1 per iteration).
    let net = layered_branches(4, 3);
    let (red, _) = compress(&net);
    let opts = EfmOptions::default();
    let problem = build_problem::<DynInt>(&red, &opts).unwrap();
    let out = cluster_supports_resumable::<efm_bitset::Pattern1, DynInt>(
        &problem,
        &opts,
        &ClusterConfig::new(5),
        None,
        None,
    )
    .unwrap();
    let iters = out.per_rank[0].value.stats.iterations.len() as u64;
    // Every rank's `stats` hold whole-cluster totals; its own stripe's
    // pair count is the generation phase's work counter.
    let counts: Vec<u64> = out.per_rank.iter().map(|r| r.phase_work[phases::GENERATE]).collect();
    let max = *counts.iter().max().unwrap();
    let min = *counts.iter().min().unwrap();
    assert!(
        max - min <= iters,
        "pair stripes must be balanced: {counts:?} over {iters} iterations"
    );
    let total: u64 = counts.iter().sum();
    assert_eq!(total, out.stats.candidates_generated);
}

#[test]
fn every_rank_reaches_identical_results() {
    let net = toy_network();
    let (red, _) = compress(&net);
    let opts = EfmOptions::default();
    let problem = build_problem::<DynInt>(&red, &opts).unwrap();
    let out = cluster_supports_resumable::<efm_bitset::Pattern1, DynInt>(
        &problem,
        &opts,
        &ClusterConfig::new(4),
        None,
        None,
    )
    .unwrap();
    let reference = &out.per_rank[0].value.supports;
    for rank in &out.per_rank[1..] {
        assert_eq!(&rank.value.supports, reference, "rank {} diverged", rank.rank);
    }
    assert_eq!(reference.len(), 8);
}

#[test]
fn phase_clocks_are_recorded() {
    let net = layered_branches(3, 3);
    let (red, _) = compress(&net);
    let opts = EfmOptions::default();
    let problem = build_problem::<DynInt>(&red, &opts).unwrap();
    let out = cluster_supports_resumable::<efm_bitset::Pattern1, DynInt>(
        &problem,
        &opts,
        &ClusterConfig::new(2),
        None,
        None,
    )
    .unwrap();
    for rank in &out.per_rank {
        for label in
            [phases::GENERATE, phases::DEDUP, phases::RANK, phases::COMMUNICATE, phases::MERGE]
        {
            assert!(
                rank.phase_times.contains_key(label),
                "rank {} missing phase {label}",
                rank.rank
            );
        }
        assert!(rank.phase_work.get(phases::GENERATE).copied().unwrap_or(0) > 0);
        assert!(rank.peak_memory > 0, "memory meter must account the mode matrix");
    }
}

#[test]
fn memory_cap_aborts_cluster_run() {
    let net = layered_branches(5, 3); // 243 EFMs → a few KB of modes
    let opts = EfmOptions::default();
    let tiny = ClusterConfig::new(2).with_memory_limit(512);
    let run = Run { opts: opts.clone(), backend: Backend::Cluster(tiny), ..Default::default() };
    match run.enumerate::<DynInt>(&net) {
        Err(EfmError::Cluster(ClusterError::MemoryExceeded { limit: 512, .. })) => {}
        other => panic!("expected memory abort, got {other:?}"),
    }
    // The same run fits with a generous cap and matches the serial result.
    let roomy = ClusterConfig::new(2).with_memory_limit(64 << 20);
    let capped = Run { opts: opts.clone(), backend: Backend::Cluster(roomy), ..Default::default() }
        .enumerate::<DynInt>(&net)
        .unwrap();
    let serial = Run { opts: opts.clone(), backend: Backend::Serial, ..Default::default() }
        .enumerate::<DynInt>(&net)
        .unwrap();
    assert_eq!(capped.efms, serial.efms);
}

#[test]
fn single_rank_cluster_equals_serial() {
    let net = layered_branches(4, 2);
    let opts = EfmOptions::default();
    let cluster = Run {
        opts: opts.clone(),
        backend: Backend::Cluster(ClusterConfig::new(1)),
        ..Default::default()
    }
    .enumerate::<DynInt>(&net)
    .unwrap();
    let serial = Run { opts: opts.clone(), backend: Backend::Serial, ..Default::default() }
        .enumerate::<DynInt>(&net)
        .unwrap();
    assert_eq!(cluster.efms, serial.efms);
    assert_eq!(
        cluster.stats.candidates_generated, serial.stats.candidates_generated,
        "a single rank owns the whole pair grid"
    );
}

/// Runs `f` on a watchdog thread; panics if it has not finished within
/// `secs` (the pre-fix deadlock would otherwise hang the test runner).
fn within_seconds<R: Send + 'static>(secs: u64, f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(std::time::Duration::from_secs(secs))
        .expect("cluster run deadlocked instead of aborting")
}

#[test]
fn one_rank_memory_abort_is_a_typed_error_not_a_hang() {
    // Regression: exactly one rank trips its cap on an asymmetric
    // allocation while its peers are already committed to collectives.
    // Pre-fix this deadlocked in `barrier()`/`allgather` forever.
    let err = within_seconds(30, || {
        let cfg = ClusterConfig::new(4).with_memory_limit(1024);
        efm_cluster::run_cluster(&cfg, |ctx| {
            if ctx.rank() == 2 {
                ctx.memory().alloc(4096)?; // only rank 2 exceeds the cap
            }
            ctx.barrier()?;
            let _ = ctx.allgather(vec![ctx.rank()])?;
            Ok(())
        })
        .unwrap_err()
    });
    match err {
        ClusterError::MemoryExceeded { rank: 2, limit: 1024, .. } => {}
        other => panic!("expected rank 2 memory abort, got {other:?}"),
    }
}

#[test]
fn panicking_rank_yields_node_panicked_with_peers_released() {
    let err = within_seconds(30, || {
        let cfg = ClusterConfig::new(3);
        efm_cluster::run_cluster::<(), _>(&cfg, |ctx| {
            if ctx.rank() == 1 {
                panic!("injected fault");
            }
            ctx.barrier()?; // peers must be woken, not stranded
            Ok(())
        })
        .unwrap_err()
    });
    match err {
        ClusterError::NodePanicked { rank: 1, message } => {
            assert!(message.contains("injected fault"), "{message}");
        }
        other => panic!("expected NodePanicked, got {other:?}"),
    }
}

#[test]
fn asymmetric_stripe_abort_during_enumeration_returns_promptly() {
    // End-to-end: a capacity chosen so the cap trips mid-enumeration on a
    // real workload must surface as an error from the public API within
    // the watchdog window.
    let err = within_seconds(60, || {
        let net = layered_branches(5, 3);
        let opts = EfmOptions::default();
        let tiny = ClusterConfig::new(3).with_memory_limit(2048);
        Run { opts: opts.clone(), backend: Backend::Cluster(tiny), ..Default::default() }
            .enumerate::<DynInt>(&net)
            .unwrap_err()
    });
    match err {
        EfmError::Cluster(ClusterError::MemoryExceeded { .. }) => {}
        other => panic!("expected memory abort, got {other:?}"),
    }
}
