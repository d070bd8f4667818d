//! Golden-snapshot digests of divide-and-conquer partition runs.
//!
//! Each case pins the canonical EFM set of a partitioned yeast-lite run to
//! a `(count, fnv1a)` digest: the mode count plus an FNV-1a hash over the
//! sorted support sets. Any change to compression, ordering, the engine,
//! or the subset scheduler that alters the enumerated set — even by one
//! support index — flips the digest.
//!
//! The partitions are the paper's, adapted by [`pick_partition`]: lite
//! trimming fixes the direction of some of the paper's partition reactions
//! (R89r, R90r), so the harness substitutes the nearest eligible
//! reactions and the test pins *which* substitution was made along with
//! the digest. To regenerate after an intentional semantic change, run
//! with `--nocapture` and copy the printed `(count, digest)` pair.

use efm_bench::{network_i, network_ii, pick_partition, Scale};
use efm_core::{Backend, DncConfig, DncSchedule, EfmOutcome, Run};
use efm_numeric::F64Tol;

/// FNV-1a over the canonical (sorted) support sets, length-prefixed so
/// support boundaries cannot alias.
fn digest(out: &EfmOutcome) -> (u64, u64) {
    let mut sups: Vec<Vec<usize>> = (0..out.efms.len()).map(|i| out.efms.support(i)).collect();
    sups.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for sup in &sups {
        mix(sup.len() as u64);
        for &j in sup {
            mix(j as u64);
        }
    }
    (sups.len() as u64, h)
}

fn run_case(
    net: &efm_metnet::MetabolicNetwork,
    preferred: &[&str],
    qsub: usize,
    schedule: DncSchedule,
) -> (Vec<String>, (u64, u64)) {
    let (red, _) = efm_metnet::compress(net);
    let partition = pick_partition(net, &red, preferred, qsub);
    assert_eq!(partition.len(), qsub, "network must retain a {qsub}-way split");
    let dnc = DncConfig { schedule, workers: 2, ..Default::default() };
    let out = Run {
        opts: efm_core::EfmOptions::default(),
        partition: partition.clone(),
        backend: Backend::Serial,
        dnc: dnc.clone(),
        ..Default::default()
    }
    .enumerate::<F64Tol>(net)
    .unwrap();
    (partition, digest(&out))
}

/// Network I, the paper's Table III partition {R89r, R74r} (lite
/// substitutes for R89r, whose direction the trimming fixes).
#[test]
fn network_i_lite_two_way_digest_is_stable() {
    let net = network_i(Scale::Lite);
    for schedule in [DncSchedule::Serial, DncSchedule::Steal] {
        let (partition, d) = run_case(&net, &["R89r", "R74r"], 2, schedule);
        println!("network_i lite {{{}}} {schedule}: {d:?}", partition.join(","));
        assert_eq!(partition, vec!["R74r", "R7r"], "partition substitution changed");
        assert_eq!(d, (5194, 1_506_135_395_104_561_618), "EFM-set digest changed ({schedule})");
    }
}

/// Network II, the paper's Table IV partition {R54r, R90r, R60r, R22r}
/// (lite substitutes for R90r). Heavy: ~113k EFMs; soak lane only.
#[test]
#[ignore = "heavy: ~2 min release / far more in debug; run via --include-ignored"]
fn network_ii_lite_four_way_digest_is_stable() {
    let net = network_ii(Scale::Lite);
    let (partition, d) = run_case(&net, &["R54r", "R90r", "R60r", "R22r"], 4, DncSchedule::Steal);
    println!("network_ii lite {{{}}}: {d:?}", partition.join(","));
    assert_eq!(partition, vec!["R54r", "R60r", "R22r", "R7r"], "partition substitution changed");
    assert_eq!(d, (113_105, 2_715_888_270_470_620_915), "EFM-set digest changed");
}
