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

use efm_bench::{flag, harness_options, network_i, parse_cli, Scale};
use efm_cluster::ClusterConfig;
use efm_core::{Backend, Run, SuperviseConfig};
use efm_numeric::F64Tol;
use std::time::Instant;

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
    let out_path = flag(&flags, "out").unwrap_or("BENCH_pr3.json").to_string();

    let net = network_i(scale);
    let opts = harness_options();
    let cluster = ClusterConfig::new(nodes);
    let ckpt = std::env::temp_dir().join(format!("efm-overhead-{}.efck", std::process::id()));
    let _ = std::fs::remove_file(&ckpt);

    println!("supervise_overhead — Network I ({scale:?}), {nodes} ranks, {reps} reps");

    let backend = Backend::Cluster(cluster.clone());
    let sup = SuperviseConfig::new(&ckpt);
    let mut run_bare = || {
        Run { opts: opts.clone(), backend: backend.clone(), ..Default::default() }
            .enumerate::<F64Tol>(&net)
            .expect("bare run failed")
    };
    let mut run_sup = || {
        let _ = std::fs::remove_file(&ckpt); // each rep starts cold
        Run {
            opts: opts.clone(),
            backend: Backend::Cluster(cluster.clone()),
            supervise: Some(sup.clone()),
            ..Default::default()
        }
        .enumerate::<F64Tol>(&net)
        .expect("supervised run failed")
    };

    // One warmup of each, then *interleaved* best-of-N pairs: run-to-run
    // drift on a shared box dwarfs the quantity under test, and measuring
    // all bare reps before all supervised reps folds that drift into the
    // overhead number.
    let _ = run_bare();
    let _ = run_sup();
    let (mut bare_s, mut sup_s) = (f64::INFINITY, f64::INFINITY);
    let (mut bare, mut supervised) = (None, None);
    for _ in 0..reps {
        let (s, r) = timed(&mut run_bare);
        if s < bare_s {
            (bare_s, bare) = (s, Some(r));
        }
        let (s, r) = timed(&mut run_sup);
        if s < sup_s {
            (sup_s, supervised) = (s, Some(r));
        }
    }
    let (bare, supervised) = (bare.unwrap(), supervised.unwrap());
    let _ = std::fs::remove_file(&ckpt);
    println!("  bare cluster     : {bare_s:.3}s  ({} EFMs)", bare.efms.len());
    println!("  supervised       : {sup_s:.3}s  ({} EFMs)", supervised.efms.len());

    assert_eq!(bare.efms, supervised.efms, "supervision must not change the EFM set");
    assert!(supervised.stats.recovery.is_empty(), "fault-free run must log no recovery events");

    let overhead_pct = (sup_s / bare_s.max(1e-9) - 1.0) * 100.0;
    let within_budget = overhead_pct <= 5.0;
    println!(
        "  overhead: {overhead_pct:+.2}%  (budget ≤ 5%: {})",
        if within_budget { "PASS" } else { "FAIL" }
    );

    let json = format!(
        "{{\n  \"benchmark\": \"supervise_overhead\",\n  \"network\": \"yeast_network_i\",\n  \
         \"scale\": \"{scale:?}\",\n  \"backend\": \"cluster\",\n  \"nodes\": {nodes},\n  \
         \"reps\": {reps},\n  \"efms\": {efms},\n  \"bare_s\": {bare_s:.6},\n  \
         \"supervised_s\": {sup_s:.6},\n  \"overhead_pct\": {overhead_pct:.4},\n  \
         \"budget_pct\": 5.0,\n  \"within_budget\": {within_budget}\n}}\n",
        efms = supervised.efms.len(),
    );
    std::fs::write(&out_path, json).expect("write benchmark json");
    println!("  wrote {out_path}");
    assert!(
        within_budget,
        "supervised fault-free overhead {overhead_pct:.2}% exceeds the 5% budget"
    );
}
