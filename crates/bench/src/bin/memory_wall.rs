//! The §IV memory-failure narrative: the combinatorial parallel algorithm
//! (Algorithm 2) aborts when the per-node footprint exceeds local memory
//! ("the computation had to be abandoned at the 59th iteration, two
//! iterations before completion"), and three recoveries are demonstrated:
//!
//! 1. the manual recovery of the paper — re-run as Algorithm 3 over a
//!    given partition, every subset fitting under the cap;
//! 2. checkpoint/resume — the capped unsplit run snapshots every
//!    iteration, aborts with a typed `MemoryExceeded`, and is resumed from
//!    the last completed iteration on an uncapped cluster, byte-identical;
//! 3. automatic escalation — `enumerate_with_escalation` turns the abort
//!    into a divide-and-conquer re-launch without operator intervention.
//!
//! ```text
//! memory_wall [--scale toy|lite|full] [--limit BYTES] [--nodes 4]
//!             [--partition R54r,R90r,R60r]
//! ```
//!
//! Without `--limit`, the harness measures the charged per-node peak of
//! the unsplit run and of the worst split subset, and sets the cap halfway
//! between them: too tight for the replicated unsplit mode matrix, roomy
//! enough for every subset.

use efm_bench::{flag, harness_options, network_ii, parse_cli, pick_partition, Scale};
use efm_core::{
    enumerate_divide_conquer_with_scalar, enumerate_resumable_with_scalar,
    enumerate_with_escalation_scalar, enumerate_with_scalar, Backend, CheckpointConfig, EfmError,
    EngineCheckpoint,
};
use efm_numeric::F64Tol;

fn main() {
    let (flags, _) = parse_cli();
    let scale = Scale::parse(flag(&flags, "scale").unwrap_or("lite")).expect("bad --scale");
    let nodes: usize = flag(&flags, "nodes").unwrap_or("4").parse().expect("bad --nodes");
    let requested: Vec<String> = flag(&flags, "partition")
        .unwrap_or("R54r,R90r,R60r")
        .split(',')
        .map(|s| s.trim().to_string())
        .collect();
    let net = network_ii(scale);
    let (red, _) = efm_metnet::compress(&net);
    let preferred: Vec<&str> = requested.iter().map(String::as_str).collect();
    let partition = pick_partition(&net, &red, &preferred, requested.len());
    if partition != requested {
        println!("note: using partition {partition:?} (requested {requested:?})");
    }
    let names: Vec<&str> = partition.iter().map(String::as_str).collect();
    let opts = harness_options();
    let cluster = || Backend::Cluster(efm_cluster::ClusterConfig::new(nodes));

    // Phase 1: unlimited runs to measure the charged per-node peaks: the
    // replicated mode matrix plus the bounded generation batch, the
    // survivor stripe and the merge.
    println!("== phase 1: measure per-node peaks (no memory cap) ==");
    let unsplit =
        enumerate_with_scalar::<F64Tol>(&net, &opts, &cluster()).expect("unsplit run failed");
    println!(
        "unsplit: {} EFMs, peak {} accounted bytes/node \
         (transient high-water {} B, {} batches)",
        unsplit.efms.len(),
        unsplit.stats.peak_bytes,
        unsplit.stats.peak_transient_bytes,
        unsplit.stats.stream_batches
    );
    let split = enumerate_divide_conquer_with_scalar::<F64Tol>(&net, &opts, &names, &cluster())
        .expect("split run failed");
    assert_eq!(split.efms, unsplit.efms, "split and unsplit runs disagree on the EFM set");
    let split_bytes = split.subsets.iter().map(|s| s.stats.peak_bytes).max().unwrap_or(0);
    println!(
        "split {{{}}}: {} EFMs, worst subset peak {} accounted bytes/node",
        partition.join(","),
        split.efms.len(),
        split_bytes
    );

    // Phase 2: cap between the measured peaks (or user-provided). The cap
    // must admit every subset of the split, yet be breached by the unsplit
    // run; a degenerate measurement (the unsplit peak not above the worst
    // subset's, as on the toy scale) degrades to a loose-but-valid cap
    // instead of a zero or underflowed one.
    let limit: u64 = match flag(&flags, "limit") {
        Some(v) => v.parse().expect("bad --limit"),
        None if unsplit.stats.peak_bytes > split_bytes => {
            split_bytes + (unsplit.stats.peak_bytes - split_bytes) / 2
        }
        None => split_bytes.saturating_mul(2).max(1),
    };
    if unsplit.stats.peak_bytes <= split_bytes {
        println!(
            "note: the unsplit peak {} B does not exceed the worst subset's {split_bytes} B at \
             this scale; the cap {limit} B will not reproduce the abort",
            unsplit.stats.peak_bytes
        );
    }
    println!("\n== phase 2: per-node capacity {limit} bytes ==");
    let capped = efm_cluster::ClusterConfig::new(nodes).with_memory_limit(limit);
    let ck_path = std::env::temp_dir().join("memory_wall.efck");
    let _ = std::fs::remove_file(&ck_path);
    let ck_cfg = CheckpointConfig::new(&ck_path);
    let t0 = std::time::Instant::now();
    let mut aborted = false;
    match enumerate_resumable_with_scalar::<F64Tol>(
        &net,
        &opts,
        &Backend::Cluster(capped.clone()),
        None,
        Some(&ck_cfg),
    ) {
        Err(EfmError::Cluster(efm_cluster::ClusterError::MemoryExceeded {
            rank,
            in_use,
            limit,
            ..
        })) => {
            aborted = true;
            println!(
                "unsplit Algorithm 2:  ABORTED in {:.2}s — rank {rank} exceeded {limit} B \
                 (had {in_use} B) [reproduces the paper's abandoned run]",
                t0.elapsed().as_secs_f64()
            );
        }
        Ok(out) => println!(
            "unsplit Algorithm 2:  completed under the cap ({} EFMs) — lower --limit",
            out.efms.len()
        ),
        Err(e) => println!("unsplit Algorithm 2:  failed differently: {e}"),
    }
    match enumerate_divide_conquer_with_scalar::<F64Tol>(
        &net,
        &opts,
        &names,
        &Backend::Cluster(capped.clone()),
    ) {
        Ok(out) => {
            assert_eq!(out.efms, unsplit.efms, "capped split run diverged from the uncapped run");
            println!(
                "combined Algorithm 3: completed under the same cap ({} EFMs across {} \
                 subsets) [the paper's fix]",
                out.efms.len(),
                out.subsets.len()
            );
        }
        Err(e) => {
            println!("combined Algorithm 3: failed: {e} — refine the partition (paper adds R22r)")
        }
    }

    // Phase 3: resume the aborted run from its last checkpoint.
    println!("\n== phase 3: checkpoint/resume of the aborted run ==");
    if aborted {
        match EngineCheckpoint::load(&ck_path) {
            Ok(ck) => {
                println!(
                    "checkpoint at {} holds {} completed iterations",
                    ck_path.display(),
                    ck.iterations_completed()
                );
                let resumed = enumerate_resumable_with_scalar::<F64Tol>(
                    &net,
                    &opts,
                    &cluster(),
                    Some(&ck),
                    None,
                )
                .expect("resumed run failed");
                assert_eq!(
                    resumed.efms, unsplit.efms,
                    "resume-from-checkpoint diverged from the uninterrupted run"
                );
                println!(
                    "resumed run: {} EFMs — identical to the uninterrupted enumeration",
                    resumed.efms.len()
                );
            }
            Err(e) => println!("no usable checkpoint ({e}) — the cap tripped before iteration 1"),
        }
    } else {
        println!("skipped: the capped run did not abort");
    }

    // Phase 4: automatic escalation under the same cap — abort -> suggested
    // split -> complete, without operator intervention.
    println!("\n== phase 4: automatic divide-and-conquer escalation ({limit} B/node) ==");
    let t1 = std::time::Instant::now();
    match enumerate_with_escalation_scalar::<F64Tol>(
        &net,
        &opts,
        &Backend::Cluster(capped),
        partition.len().max(2),
    ) {
        Ok(out) => {
            for a in &out.attempts {
                let what = if a.qsub == 0 {
                    "direct run".to_string()
                } else {
                    format!("2^{} subsets over {{{}}}", a.qsub, a.partition.join(","))
                };
                match &a.error {
                    Some(e) => println!("  attempt {what}: {e}"),
                    None => println!("  attempt {what}: completed"),
                }
            }
            assert_eq!(
                out.outcome.efms, unsplit.efms,
                "escalated enumeration diverged from the uninterrupted run"
            );
            println!(
                "escalation recovered {} EFMs in {:.2}s (escalated: {}) — identical to the \
                 uninterrupted enumeration",
                out.outcome.efms.len(),
                t1.elapsed().as_secs_f64(),
                out.escalated()
            );
        }
        Err(e) => println!("escalation exhausted: {e} — raise --limit or deepen the ladder"),
    }
    let _ = std::fs::remove_file(&ck_path);
}
