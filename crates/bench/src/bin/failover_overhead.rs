//! PR 8 acceptance benchmark: fault-free overhead of the heartbeat /
//! failover layer over the plain cluster backend.
//!
//! ```text
//! failover_overhead [--scale toy|lite|full] [--nodes 4] [--reps 3]
//!                   [--heartbeat-ms 10] [--max-pct 2]
//!                   [--out BENCH_pr8.json]
//! ```
//!
//! With `--failover` on, every rank runs a beater and a detector thread and
//! every data-plane frame carries an epoch tag and CRC; on a fault-free run
//! all of that must cost ≤ 2% wall time. Both pipelines must produce the
//! identical EFM set and an empty recovery log.

use efm_bench::{flag, harness_options, network_i, parse_cli, Overhead, Scale};
use efm_cluster::ClusterConfig;
use efm_core::{Backend, Run};
use efm_numeric::F64Tol;
use std::time::Duration;

fn main() {
    let (flags, _) = parse_cli();
    let scale = Scale::parse(flag(&flags, "scale").unwrap_or("lite")).expect("bad --scale");
    let nodes: usize = flag(&flags, "nodes").unwrap_or("4").parse().expect("bad --nodes");
    let reps: usize = flag(&flags, "reps").unwrap_or("3").parse().expect("bad --reps");
    let heartbeat_ms: u64 =
        flag(&flags, "heartbeat-ms").unwrap_or("10").parse().expect("bad --heartbeat-ms");
    let max_pct: f64 = flag(&flags, "max-pct").unwrap_or("2").parse().expect("bad --max-pct");
    let out_path = flag(&flags, "out").unwrap_or("BENCH_pr8.json").to_string();

    let net = network_i(scale);
    let opts = harness_options();
    let plain = Backend::Cluster(ClusterConfig::new(nodes));
    let guarded = Backend::Cluster(
        ClusterConfig::new(nodes)
            .with_failover(true)
            .with_heartbeat(Duration::from_millis(heartbeat_ms.max(1))),
    );

    println!(
        "failover_overhead — Network I ({scale:?}), {nodes} ranks, {reps} reps, \
         heartbeat {heartbeat_ms}ms"
    );

    let ab = Overhead::measure(
        reps,
        |_| {},
        |failover| {
            let backend = if failover { &guarded } else { &plain };
            Run { opts: opts.clone(), backend: backend.clone(), ..Default::default() }
                .enumerate::<F64Tol>(&net)
                .expect("run failed")
        },
    );
    let (base, watched) = (&ab.base, &ab.variant);
    println!("  plain cluster    : {:.3}s  ({} EFMs)", ab.base_s, base.efms.len());
    println!("  failover enabled : {:.3}s  ({} EFMs)", ab.variant_s, watched.efms.len());

    assert_eq!(base.efms, watched.efms, "the heartbeat layer must not change the EFM set");
    assert!(watched.stats.recovery.is_empty(), "fault-free run must log no recovery events");
    assert_eq!(watched.stats.failovers, 0, "fault-free run must not fail over");
    assert_eq!(watched.stats.ranks_lost, 0, "fault-free run must not lose ranks");

    let fields = [
        ("heartbeat_ms", heartbeat_ms.to_string()),
        ("efms", watched.efms.len().to_string()),
        ("plain_s", format!("{:.6}", ab.base_s)),
        ("failover_s", format!("{:.6}", ab.variant_s)),
    ];
    ab.report(&out_path, "failover_overhead", (scale, nodes, reps), &fields, max_pct);
}
