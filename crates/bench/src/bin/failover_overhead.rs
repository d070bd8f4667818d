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

use efm_bench::{flag, harness_options, network_i, parse_cli, Scale};
use efm_cluster::ClusterConfig;
use efm_core::{Backend, Run};
use efm_numeric::F64Tol;
use std::time::{Duration, Instant};

fn timed<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64(), r)
}

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

    let mut run_plain = || {
        Run { opts: opts.clone(), backend: plain.clone(), ..Default::default() }
            .enumerate::<F64Tol>(&net)
            .expect("plain run failed")
    };
    let mut run_guarded = || {
        Run { opts: opts.clone(), backend: guarded.clone(), ..Default::default() }
            .enumerate::<F64Tol>(&net)
            .expect("failover run failed")
    };

    // One warmup of each, then interleaved best-of-N pairs: run-to-run
    // drift on a shared box dwarfs the quantity under test.
    let _ = run_plain();
    let _ = run_guarded();
    let (mut plain_s, mut guarded_s) = (f64::INFINITY, f64::INFINITY);
    let (mut base, mut watched) = (None, None);
    for _ in 0..reps {
        let (s, r) = timed(&mut run_plain);
        if s < plain_s {
            (plain_s, base) = (s, Some(r));
        }
        let (s, r) = timed(&mut run_guarded);
        if s < guarded_s {
            (guarded_s, watched) = (s, Some(r));
        }
    }
    let (base, watched) = (base.unwrap(), watched.unwrap());
    println!("  plain cluster    : {plain_s:.3}s  ({} EFMs)", base.efms.len());
    println!("  failover enabled : {guarded_s:.3}s  ({} EFMs)", watched.efms.len());

    assert_eq!(base.efms, watched.efms, "the heartbeat layer must not change the EFM set");
    assert!(watched.stats.recovery.is_empty(), "fault-free run must log no recovery events");
    assert_eq!(watched.stats.failovers, 0, "fault-free run must not fail over");
    assert_eq!(watched.stats.ranks_lost, 0, "fault-free run must not lose ranks");

    let overhead_pct = (guarded_s / plain_s.max(1e-9) - 1.0) * 100.0;
    let within_budget = overhead_pct <= max_pct;
    println!(
        "  overhead: {overhead_pct:+.2}%  (budget ≤ {max_pct}%: {})",
        if within_budget { "PASS" } else { "FAIL" }
    );

    let json = format!(
        "{{\n  \"benchmark\": \"failover_overhead\",\n  \"network\": \"yeast_network_i\",\n  \
         \"scale\": \"{scale:?}\",\n  \"backend\": \"cluster\",\n  \"nodes\": {nodes},\n  \
         \"reps\": {reps},\n  \"heartbeat_ms\": {heartbeat_ms},\n  \"efms\": {efms},\n  \
         \"plain_s\": {plain_s:.6},\n  \"failover_s\": {guarded_s:.6},\n  \
         \"overhead_pct\": {overhead_pct:.4},\n  \"budget_pct\": {max_pct},\n  \
         \"within_budget\": {within_budget}\n}}\n",
        efms = watched.efms.len(),
    );
    std::fs::write(&out_path, json).expect("write benchmark json");
    println!("  wrote {out_path}");
    assert!(
        within_budget,
        "failover fault-free overhead {overhead_pct:.2}% exceeds the {max_pct}% budget"
    );
}
