//! Checkpoint/resume fidelity: a run interrupted at an arbitrary iteration
//! boundary and resumed from its last snapshot must reproduce the
//! uninterrupted enumeration byte-for-byte (identical `EfmSet` bit
//! matrices), across backends.

use efm_core::{
    enumerate_resumable_with_scalar, enumerate_with_scalar, Backend, CheckpointConfig, EfmOptions,
    EngineCheckpoint,
};
use efm_metnet::generator::{random_network, RandomNetworkParams};
use efm_metnet::MetabolicNetwork;
use efm_numeric::DynInt;
use proptest::prelude::*;
use std::path::PathBuf;

fn small_params() -> RandomNetworkParams {
    RandomNetworkParams {
        metabolites: 5,
        reactions: 9,
        reversible_prob: 0.35,
        mean_degree: 2.5,
        exchange_prob: 0.4,
        max_coeff: 2,
    }
}

fn net_for(seed: u64) -> MetabolicNetwork {
    random_network(&small_params(), seed)
}

/// Runs capped so the enumeration aborts partway (mode limit), leaving a
/// snapshot at the last completed iteration; returns the snapshot, if the
/// run got far enough to write one.
fn interrupted_checkpoint(
    net: &MetabolicNetwork,
    cap: usize,
    path: &PathBuf,
) -> Option<EngineCheckpoint> {
    let _ = std::fs::remove_file(path);
    let capped = EfmOptions { max_modes: Some(cap), ..Default::default() };
    let cfg = CheckpointConfig::new(path);
    // Err(ModeLimitExceeded) is the expected interruption; Ok means the
    // network fit under the cap and the snapshot is simply the final state.
    let _ =
        enumerate_resumable_with_scalar::<DynInt>(net, &capped, &Backend::Serial, None, Some(&cfg));
    EngineCheckpoint::load(path).ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn resume_reproduces_uninterrupted_set(seed in 0u64..5000, cap in 2usize..40) {
        let net = net_for(seed);
        let opts = EfmOptions::default();
        let full = enumerate_with_scalar::<DynInt>(&net, &opts, &Backend::Serial).unwrap();
        let path = std::env::temp_dir().join(format!("efm_resume_{seed}_{cap}.efck"));
        let resume = interrupted_checkpoint(&net, cap, &path);
        let resumed = enumerate_resumable_with_scalar::<DynInt>(
            &net,
            &opts,
            &Backend::Serial,
            resume.as_ref(),
            None,
        )
        .unwrap();
        let _ = std::fs::remove_file(&path);
        // Byte-for-byte: EfmSet equality compares the packed bit matrices.
        prop_assert_eq!(resumed.efms, full.efms);
    }

    #[test]
    fn serial_checkpoint_resumes_on_cluster(seed in 0u64..2000) {
        let net = net_for(seed);
        let opts = EfmOptions::default();
        let full = enumerate_with_scalar::<DynInt>(&net, &opts, &Backend::Serial).unwrap();
        let path = std::env::temp_dir().join(format!("efm_xresume_{seed}.efck"));
        let resume = interrupted_checkpoint(&net, 6, &path);
        let cluster = Backend::Cluster(efm_cluster::ClusterConfig::new(3));
        let resumed = enumerate_resumable_with_scalar::<DynInt>(
            &net,
            &opts,
            &cluster,
            resume.as_ref(),
            None,
        )
        .unwrap();
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(resumed.efms, full.efms);
    }

    #[test]
    fn checkpoint_file_roundtrip_is_lossless(seed in 0u64..2000) {
        let net = net_for(seed);
        let path = std::env::temp_dir().join(format!("efm_rt_{seed}.efck"));
        if let Some(ck) = interrupted_checkpoint(&net, 8, &path) {
            let reloaded = EngineCheckpoint::load(&path).unwrap();
            let _ = std::fs::remove_file(&path);
            prop_assert_eq!(ck, reloaded);
        } else {
            let _ = std::fs::remove_file(&path);
        }
    }
}

/// Regression: a resumed cluster run aggregates `peak_bytes` from the
/// segment's *fresh* memory meters, which know nothing about the
/// pre-checkpoint high water — the reported peaks must be maxed with the
/// checkpoint's, never silently lowered.
#[test]
fn resumed_cluster_run_carries_checkpoint_peaks() {
    let mut picked = None;
    for seed in 0..50u64 {
        let net = net_for(seed);
        let path = std::env::temp_dir().join(format!("efm_peak_carry_{seed}.efck"));
        let ck = interrupted_checkpoint(&net, 6, &path);
        let _ = std::fs::remove_file(&path);
        if let Some(ck) = ck {
            picked = Some((net, ck));
            break;
        }
    }
    let (net, mut ck) = picked.expect("some seed yields an interrupted checkpoint");
    // Simulate a pre-crash segment that peaked far above anything the short
    // resumed tail will reach.
    ck.stats.peak_bytes = ck.stats.peak_bytes.max(1 << 40);
    ck.stats.peak_transient_bytes = ck.stats.peak_transient_bytes.max(1 << 39);
    ck.stats.arena_peak_bytes = ck.stats.arena_peak_bytes.max(1 << 38);
    let opts = EfmOptions::default();
    let cluster = Backend::Cluster(efm_cluster::ClusterConfig::new(3));
    let resumed =
        enumerate_resumable_with_scalar::<DynInt>(&net, &opts, &cluster, Some(&ck), None).unwrap();
    assert!(
        resumed.stats.peak_bytes >= 1 << 40,
        "resumed peak_bytes {} lost the checkpoint high water",
        resumed.stats.peak_bytes
    );
    assert!(resumed.stats.peak_transient_bytes >= 1 << 39);
    assert!(resumed.stats.arena_peak_bytes >= 1 << 38);
}

/// The count fields of one iteration record (everything but the times).
fn iteration_counts(it: &efm_core::IterationStats) -> (usize, String, bool, [u64; 9]) {
    let counts = [
        it.pos as u64,
        it.neg as u64,
        it.zero as u64,
        it.pairs,
        it.numeric_pass,
        it.prefiltered,
        it.deduped,
        it.accepted,
        it.modes_after as u64,
    ];
    (it.position, it.reaction.clone(), it.reversible, counts)
}

/// Every counter of a run's statistics, and the replicated mode count's
/// peak. Times are left out, and so are the byte footprints: a resumed
/// segment starts with fresh meters and generation arenas, whose
/// allocation history differs.
fn run_counts(s: &efm_core::RunStats) -> Vec<u64> {
    vec![
        s.candidates_generated,
        s.tree_pruned,
        s.dedup_hits,
        s.rank_tests,
        s.comm_messages,
        s.comm_bytes,
        s.peak_modes as u64,
        s.final_modes as u64,
        s.stream_batches,
        s.spill_bytes,
        s.kernel_blocks,
        s.kernel_pruned,
        s.failovers as u64,
        s.ranks_lost as u64,
    ]
}

/// A cluster run paused halfway and resumed from rank 0's snapshot counts
/// exactly like the uninterrupted run: the snapshot holds whole-cluster
/// totals, because every rank's statistics do.
#[test]
fn resumed_cluster_run_counts_like_uninterrupted() {
    use efm_core::{build_problem, cluster_supports_resumable, cluster_supports_segment};
    use efm_metnet::compress;
    type P = efm_bitset::Pattern1;
    let opts = EfmOptions::default();
    let cfg = efm_cluster::ClusterConfig::new(3);
    let mut checked = 0;
    for seed in 0..16u64 {
        let (red, _) = compress(&net_for(seed));
        let problem = build_problem::<DynInt>(&red, &opts).unwrap();
        let full = cluster_supports_resumable::<P, DynInt>(&problem, &opts, &cfg, None, None)
            .unwrap()
            .stats;
        let half = full.iterations.len() as u64 / 2;
        if half == 0 {
            continue;
        }
        let (_, ck) =
            cluster_supports_segment::<P, DynInt>(&problem, &opts, &cfg, None, None, Some(half))
                .unwrap();
        let ck = ck.expect("a run paused halfway returns rank 0's snapshot");
        let resumed =
            cluster_supports_resumable::<P, DynInt>(&problem, &opts, &cfg, Some(&ck), None)
                .unwrap()
                .stats;
        assert_eq!(run_counts(&resumed), run_counts(&full), "seed {seed}: run counters");
        let iters = |s: &efm_core::RunStats| -> Vec<_> {
            s.iterations.iter().map(iteration_counts).collect()
        };
        assert_eq!(iters(&resumed), iters(&full), "seed {seed}: iteration records");
        checked += 1;
    }
    assert!(checked >= 8, "only {checked} seeds ran long enough to pause");
}

// ---------------------------------------------------------------------------
// Divide-and-conquer progress resume: a resumed run skips the
// subsets the checkpoint records as complete and re-enumerates the rest.
// ---------------------------------------------------------------------------

#[test]
fn dnc_resume_skips_completed_subsets() {
    use efm_core::{
        enumerate_divide_conquer_scheduled_with_scalar, DncCheckpoint, DncConfig, DncSubsetResult,
    };
    let net = efm_metnet::examples::toy_network();
    let opts = EfmOptions::default();
    let path = std::env::temp_dir().join(format!("efm_dnc_resume_{}.efck", std::process::id()));
    let _ = std::fs::remove_file(&path);

    // Full run, recording progress after every subset.
    let checkpointed =
        DncConfig { checkpoint: Some(CheckpointConfig::new(&path)), ..Default::default() };
    let full = enumerate_divide_conquer_scheduled_with_scalar::<DynInt>(
        &net,
        &opts,
        &["r6r", "r8r"],
        &Backend::Serial,
        &checkpointed,
    )
    .unwrap();
    let complete = DncCheckpoint::load(&path).unwrap();
    assert_eq!(complete.done.len(), 4, "every subset must be recorded");

    // Doctor a *partial* record whose completed subset carries a sentinel
    // (no supports): if resume truly skips it, the sentinel — not the
    // re-enumerated modes — lands in the output.
    let victim = complete.done[1].id;
    let mut partial = DncCheckpoint::new(&complete.scalar_tag, complete.fingerprint, complete.qsub);
    partial.record(DncSubsetResult {
        id: victim,
        skipped_empty: false,
        supports: Vec::new(),
        stats: Default::default(),
    });
    partial.save(&path).unwrap();
    let resumed = enumerate_divide_conquer_scheduled_with_scalar::<DynInt>(
        &net,
        &opts,
        &["r6r", "r8r"],
        &Backend::Serial,
        &DncConfig { resume: true, ..checkpointed.clone() },
    )
    .unwrap();
    assert_eq!(
        resumed.subsets[victim].efm_count, 0,
        "resume must take subset {victim} from the checkpoint, not re-run it"
    );
    assert_eq!(
        resumed.efms.len(),
        full.efms.len() - full.subsets[victim].efm_count,
        "only the skipped subset's modes may be missing"
    );

    // Resuming from the *complete* record reproduces the full set exactly
    // without re-running anything.
    complete.save(&path).unwrap();
    let replayed = enumerate_divide_conquer_scheduled_with_scalar::<DynInt>(
        &net,
        &opts,
        &["r6r", "r8r"],
        &Backend::Serial,
        &DncConfig { resume: true, ..checkpointed },
    )
    .unwrap();
    assert_eq!(replayed.efms, full.efms);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn dnc_resume_rejects_mismatched_partition() {
    use efm_core::{enumerate_divide_conquer_scheduled_with_scalar, DncConfig};
    let net = efm_metnet::examples::toy_network();
    let opts = EfmOptions::default();
    let path = std::env::temp_dir().join(format!("efm_dnc_mismatch_{}.efck", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let checkpointed =
        DncConfig { checkpoint: Some(CheckpointConfig::new(&path)), ..Default::default() };
    enumerate_divide_conquer_scheduled_with_scalar::<DynInt>(
        &net,
        &opts,
        &["r6r", "r8r"],
        &Backend::Serial,
        &checkpointed,
    )
    .unwrap();
    // Same file, different partition: the fingerprint must reject it.
    let err = enumerate_divide_conquer_scheduled_with_scalar::<DynInt>(
        &net,
        &opts,
        &["r8r"],
        &Backend::Serial,
        &DncConfig { resume: true, ..checkpointed },
    )
    .unwrap_err();
    assert!(
        matches!(err, efm_core::EfmError::Checkpoint(_)),
        "expected a typed checkpoint rejection, got {err:?}"
    );
    let _ = std::fs::remove_file(&path);
}
