//! PR 4 acceptance benchmark: wall-time overhead of run telemetry
//! (spans + counters + per-link traffic accounting) over an untraced run.
//!
//! ```text
//! trace_overhead [--scale toy|lite|full] [--nodes 4] [--reps 5]
//!                [--out BENCH_pr4.json]
//! ```
//!
//! Two budgets from DESIGN.md §10: a *traced* run (telemetry globally
//! enabled, events recorded into the ring buffers) must stay within 2% of
//! the untraced wall time, and the *disabled* path must be a no-op (it is
//! measured here too, but its budget is the same 2% bar — the real
//! disabled-path guarantee, no allocation per event, is a code property
//! tested in `crates/obs`). Both runs must produce the identical EFM set.

use efm_bench::{flag, harness_options, network_i, parse_cli, Scale};
use efm_cluster::ClusterConfig;
use efm_core::{Backend, Run};
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
    let reps: usize = flag(&flags, "reps").unwrap_or("5").parse().expect("bad --reps");
    let out_path = flag(&flags, "out").unwrap_or("BENCH_pr4.json").to_string();

    let net = network_i(scale);
    let opts = harness_options();
    let backend = Backend::Cluster(ClusterConfig::new(nodes));

    println!("trace_overhead — Network I ({scale:?}), {nodes} ranks, {reps} reps");

    let mut run = || {
        Run { opts: opts.clone(), backend: backend.clone(), ..Default::default() }
            .enumerate::<F64Tol>(&net)
            .expect("run failed")
    };

    // Warm up both paths, then interleave best-of-N pairs: run-to-run
    // drift on a shared box dwarfs the quantity under test.
    efm_obs::set_enabled(false);
    let _ = run();
    efm_obs::set_enabled(true);
    efm_obs::reset();
    let _ = run();

    let (mut off_s, mut on_s) = (f64::INFINITY, f64::INFINITY);
    let (mut off, mut on) = (None, None);
    let mut events = 0usize;
    for _ in 0..reps {
        efm_obs::set_enabled(false);
        let (s, r) = timed(&mut run);
        if s < off_s {
            (off_s, off) = (s, Some(r));
        }
        efm_obs::set_enabled(true);
        efm_obs::reset();
        let (s, r) = timed(&mut run);
        if s < on_s {
            (on_s, on) = (s, Some(r));
        }
        events = efm_obs::snapshot().event_count();
    }
    efm_obs::set_enabled(false);
    let (off, on) = (off.unwrap(), on.unwrap());
    println!("  untraced : {off_s:.3}s  ({} EFMs)", off.efms.len());
    println!("  traced   : {on_s:.3}s  ({} EFMs, {events} events recorded)", on.efms.len());

    assert_eq!(off.efms, on.efms, "tracing must not change the EFM set");
    assert!(events > 0, "traced run recorded no events — instrumentation is dead");

    let overhead_pct = (on_s / off_s.max(1e-9) - 1.0) * 100.0;
    let within_budget = overhead_pct <= 2.0;
    println!(
        "  overhead: {overhead_pct:+.2}%  (budget ≤ 2%: {})",
        if within_budget { "PASS" } else { "FAIL" }
    );

    let json = format!(
        "{{\n  \"benchmark\": \"trace_overhead\",\n  \"network\": \"yeast_network_i\",\n  \
         \"scale\": \"{scale:?}\",\n  \"backend\": \"cluster\",\n  \"nodes\": {nodes},\n  \
         \"reps\": {reps},\n  \"efms\": {efms},\n  \"events\": {events},\n  \
         \"untraced_s\": {off_s:.6},\n  \"traced_s\": {on_s:.6},\n  \
         \"overhead_pct\": {overhead_pct:.4},\n  \"budget_pct\": 2.0,\n  \
         \"within_budget\": {within_budget}\n}}\n",
        efms = on.efms.len(),
    );
    std::fs::write(&out_path, json).expect("write benchmark json");
    println!("  wrote {out_path}");
    assert!(within_budget, "tracing overhead {overhead_pct:.2}% exceeds the 2% budget");
}
