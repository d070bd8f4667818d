//! PR 3 acceptance benchmark: fault-free overhead of the self-healing
//! supervisor over the bare cluster backend.
//!
//! ```text
//! supervise_overhead [--scale toy|lite|full] [--nodes 4] [--reps 3]
//!                    [--out BENCH_pr3.json]
//! ```
//!
//! The supervised run pays for the watchdog plumbing (deadline bookkeeping
//! on every collective, per-message sequence numbers) and an
//! every-iteration checkpoint write; the acceptance bar is ≤ 5% wall-time
//! overhead on a fault-free run. Both pipelines must produce the identical
//! EFM set. Results are written as JSON.

use efm_bench::{flag, harness_options, network_i, parse_cli, Overhead, Scale};
use efm_cluster::ClusterConfig;
use efm_core::{Backend, Run, SuperviseConfig};
use efm_numeric::F64Tol;

fn main() {
    let (flags, _) = parse_cli();
    let scale = Scale::parse(flag(&flags, "scale").unwrap_or("lite")).expect("bad --scale");
    let nodes: usize = flag(&flags, "nodes").unwrap_or("4").parse().expect("bad --nodes");
    let reps: usize = flag(&flags, "reps").unwrap_or("3").parse().expect("bad --reps");
    let out_path = flag(&flags, "out").unwrap_or("BENCH_pr3.json").to_string();

    let net = network_i(scale);
    let opts = harness_options();
    let ckpt = std::env::temp_dir().join(format!("efm-overhead-{}.efck", std::process::id()));
    let _ = std::fs::remove_file(&ckpt);

    println!("supervise_overhead — Network I ({scale:?}), {nodes} ranks, {reps} reps");

    let sup = SuperviseConfig::new(&ckpt);
    let ab = Overhead::measure(
        reps,
        |_| {},
        |supervised| {
            // Each supervised rep starts cold.
            let _ = std::fs::remove_file(&ckpt);
            Run {
                opts: opts.clone(),
                backend: Backend::Cluster(ClusterConfig::new(nodes)),
                supervise: supervised.then(|| sup.clone()),
                ..Default::default()
            }
            .enumerate::<F64Tol>(&net)
            .expect("run failed")
        },
    );
    let _ = std::fs::remove_file(&ckpt);
    let (bare, supervised) = (&ab.base, &ab.variant);
    println!("  bare cluster     : {:.3}s  ({} EFMs)", ab.base_s, bare.efms.len());
    println!("  supervised       : {:.3}s  ({} EFMs)", ab.variant_s, supervised.efms.len());

    assert_eq!(bare.efms, supervised.efms, "supervision must not change the EFM set");
    assert!(supervised.stats.recovery.is_empty(), "fault-free run must log no recovery events");

    let fields = [
        ("efms", supervised.efms.len().to_string()),
        ("bare_s", format!("{:.6}", ab.base_s)),
        ("supervised_s", format!("{:.6}", ab.variant_s)),
    ];
    ab.report(&out_path, "supervise_overhead", (scale, nodes, reps), &fields, 5.0);
}
