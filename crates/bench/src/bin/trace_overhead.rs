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

use efm_bench::{flag, harness_options, network_i, parse_cli, Overhead, Scale};
use efm_cluster::ClusterConfig;
use efm_core::{Backend, Run};
use efm_numeric::F64Tol;

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

    // The variant arm runs traced against a freshly reset registry.
    let prepare = |traced: bool| {
        efm_obs::set_enabled(traced);
        if traced {
            efm_obs::reset();
        }
    };
    let ab = Overhead::measure(reps, prepare, |_| {
        Run { opts: opts.clone(), backend: backend.clone(), ..Default::default() }
            .enumerate::<F64Tol>(&net)
            .expect("run failed")
    });
    // The last run was a traced one.
    let events = efm_obs::snapshot().event_count();
    efm_obs::set_enabled(false);
    let (off, on) = (&ab.base, &ab.variant);
    println!("  untraced : {:.3}s  ({} EFMs)", ab.base_s, off.efms.len());
    println!(
        "  traced   : {:.3}s  ({} EFMs, {events} events recorded)",
        ab.variant_s,
        on.efms.len()
    );

    assert_eq!(off.efms, on.efms, "tracing must not change the EFM set");
    assert!(events > 0, "traced run recorded no events — instrumentation is dead");

    let fields = [
        ("efms", on.efms.len().to_string()),
        ("events", events.to_string()),
        ("untraced_s", format!("{:.6}", ab.base_s)),
        ("traced_s", format!("{:.6}", ab.variant_s)),
    ];
    ab.report(&out_path, "trace_overhead", (scale, nodes, reps), &fields, 2.0);
}
