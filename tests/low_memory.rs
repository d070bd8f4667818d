//! Low-memory lane: the yeast-lite differential under an enforced
//! per-node byte cap, plus the compressed/spilled divide-and-conquer
//! assembly. Heavy (several lite-scale cluster enumerations), so the
//! tests are `#[ignore]`d out of the default suite and run by the CI
//! `low-memory` job via `--include-ignored`.

use efm_core::{Backend, EfmOptions, Run};
use efm_metnet::{parse_network, MetabolicNetwork};
use efm_numeric::F64Tol;

fn network_i_lite() -> MetabolicNetwork {
    let text: String = efm_metnet::yeast::NETWORK_I_TEXT
        .lines()
        .filter(|l| {
            let name = l.split(':').next().unwrap_or("").trim();
            name != "R15" && name != "R70"
        })
        .map(|l| format!("{l}\n"))
        .collect();
    parse_network(&text).unwrap()
}

/// A capped cluster run completes under a cap set to its own measured
/// charged peak — every generation batch, survivor stripe and merge step
/// is charged, and the replay is deterministic — and yields the serial
/// reference set.
#[test]
#[ignore = "low-memory lane: several lite-scale cluster runs; run via --include-ignored"]
fn capped_cluster_run_fits_its_own_peak_and_matches_serial() {
    let net = network_i_lite();
    let opts = EfmOptions::default();
    let serial = Run { opts: opts.clone(), backend: Backend::Serial, ..Default::default() }
        .enumerate::<F64Tol>(&net)
        .unwrap();

    let uncapped = Run {
        opts: opts.clone(),
        backend: Backend::Cluster(efm_cluster::ClusterConfig::new(4)),
        ..Default::default()
    }
    .enumerate::<F64Tol>(&net)
    .unwrap();
    assert_eq!(uncapped.efms, serial.efms);
    let cap = uncapped.stats.peak_bytes;
    assert!(cap > 0, "the cluster meter must charge real bytes");

    // The deterministic replay fits exactly at its own high-water mark.
    let capped = Run {
        opts: opts.clone(),
        backend: Backend::Cluster(efm_cluster::ClusterConfig::new(4).with_memory_limit(cap)),
        ..Default::default()
    }
    .enumerate::<F64Tol>(&net)
    .unwrap();
    assert_eq!(capped.efms, serial.efms, "capped run diverged from serial");
    assert!(capped.stats.stream_batches > 0, "streaming pipeline must have run");
}

/// The compressed + spilled divide-and-conquer assembly is set-identical
/// to the inline path and actually spills under a zero resident budget.
#[test]
#[ignore = "low-memory lane: lite-scale divide-and-conquer runs; run via --include-ignored"]
fn spilled_dnc_assembly_is_set_identical_on_yeast_lite() {
    let net = network_i_lite();
    let opts = EfmOptions::default();
    // Two reversible reduced reactions make a 4-subset partition (same
    // selection logic as tests/yeast_lite.rs).
    let probe = Run { opts: opts.clone(), backend: Backend::Serial, ..Default::default() }
        .enumerate::<F64Tol>(&net)
        .unwrap();
    let mut names: Vec<String> = Vec::new();
    let mut used = Vec::new();
    for rxn in &net.reactions {
        if names.len() == 2 {
            break;
        }
        if let Some(r) =
            net.reaction_index(&rxn.name).and_then(|o| probe.reduced.reduced_index_of(o))
        {
            if probe.reduced.reversible[r] && !used.contains(&r) {
                used.push(r);
                names.push(rxn.name.clone());
            }
        }
    }
    assert_eq!(names.len(), 2, "lite network must retain two reversible reactions");
    let inline = Run {
        opts: opts.clone(),
        partition: names.clone(),
        backend: Backend::Serial,
        ..Default::default()
    }
    .enumerate::<F64Tol>(&net)
    .unwrap();
    let spill_opts = EfmOptions { spill_budget: Some(0), ..opts };
    let spilled = Run {
        opts: spill_opts.clone(),
        partition: names.clone(),
        backend: Backend::Serial,
        ..Default::default()
    }
    .enumerate::<F64Tol>(&net)
    .unwrap();
    assert_eq!(spilled.efms, inline.efms, "spilled assembly diverged from inline");
    assert_eq!(spilled.efms, probe.efms, "divide-and-conquer diverged from the direct run");
    assert!(
        spilled.stats.spill_bytes > 0,
        "a zero resident budget must spill every compressed stripe"
    );
    assert_eq!(inline.stats.spill_bytes, 0, "the inline path must not touch the spill file");
}
