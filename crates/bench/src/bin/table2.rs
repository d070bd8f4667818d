//! Table II — combinatorial parallel Nullspace Algorithm (Algorithm 2) on
//! S. cerevisiae Network I, phase-time breakdown over a node-count sweep.
//!
//! ```text
//! table2 [--scale toy|lite|full] [--nodes 1,2,4,8,16] [--float|--exact]
//! ```
//!
//! The paper ran 1–64 physical cores; this harness runs the same
//! bulk-synchronous program on the simulated cluster. On a machine with
//! fewer physical cores than ranks, per-phase wall times are reported under
//! the bulk-synchronous model (max over ranks per phase) and the *work
//! split* (pairs per rank) shows the combinatorial balance that drives the
//! paper's scaling. A `model(s)` column projects wall time onto an
//! idealized machine with one core per rank and an InfiniBand-class
//! α/β interconnect (α = 2 µs per message, β = 1 ns/byte): per-rank
//! compute work divides by the rank count, communication grows with it —
//! the crossover structure of the paper's Table II.

use efm_bench::{flag, harness_options, network_i, paper, parse_cli, secs, Scale, Table};
use efm_core::{Backend, EfmOutcome, Run};
use efm_numeric::{DynInt, F64Tol};

/// α/β interconnect model (InfiniBand-class, as on the paper's Calhoun).
const ALPHA_SECS: f64 = 2e-6;
const BETA_SECS_PER_BYTE: f64 = 1e-9;

/// Total allgather bytes for the α/β model: the measured traffic counter
/// when the cluster backend recorded one, else the old accepted-volume
/// approximation (serial runs ship nothing but still need a model input).
fn comm_bytes(out: &EfmOutcome) -> u64 {
    if out.stats.comm_bytes > 0 {
        return out.stats.comm_bytes;
    }
    out.stats.iterations.iter().map(|it| it.accepted * 64).sum()
}

fn main() {
    let (flags, _) = parse_cli();
    let scale = Scale::parse(flag(&flags, "scale").unwrap_or("lite")).expect("bad --scale");
    let nodes: Vec<usize> = flag(&flags, "nodes")
        .unwrap_or("1,2,4,8,16")
        .split(',')
        .map(|s| s.trim().parse().expect("bad --nodes"))
        .collect();
    let exact = flag(&flags, "exact").is_some();
    let net = network_i(scale);
    println!(
        "Table II reproduction — Algorithm 2 on Network I ({scale:?} scale, {} arithmetic)",
        if exact { "exact integer" } else { "f64" }
    );
    println!(
        "paper reference (full scale): {} EFMs, {} candidate modes, serial {:.2}s on 2008 Xeon\n",
        paper::NETWORK_I_EFMS,
        paper::NETWORK_I_CANDIDATES,
        paper::TABLE2_SERIAL_SECONDS
    );

    let opts = harness_options();
    let mut table = Table::new(&[
        "nodes",
        "EFMs",
        "candidates",
        "pruned",
        "dedup hits",
        "rank tests",
        "comm MB",
        "gen(s)",
        "dedup(s)",
        "tree(s)",
        "rank(s)",
        "comm(s)",
        "merge(s)",
        "total(s)",
        "model(s)",
        "model speedup",
    ]);
    let mut serial_total: Option<f64> = None;
    let mut serial_model: Option<f64> = None;
    for &n in &nodes {
        let backend = Backend::Cluster(efm_cluster::ClusterConfig::new(n));
        let out: EfmOutcome = if exact {
            Run { opts: opts.clone(), backend: backend.clone(), ..Default::default() }
                .enumerate::<DynInt>(&net)
                .expect("run failed")
        } else {
            Run { opts: opts.clone(), backend: backend.clone(), ..Default::default() }
                .enumerate::<F64Tol>(&net)
                .expect("run failed")
        };
        let total = out.stats.total_time.as_secs_f64();
        let _base = *serial_total.get_or_insert(total);
        // Modeled time on one core per rank: the single-rank run's compute
        // time divides by n (the pair stripes are balanced — asserted in
        // `stripe_bounds`' unit tests), communication follows the α/β model.
        let compute_this = (out.stats.phases.total() - out.stats.phases.communicate).as_secs_f64();
        let base_compute = *serial_model.get_or_insert(compute_this);
        let rounds = out.stats.iterations.len() as f64;
        let bytes = comm_bytes(&out);
        let comm_model =
            rounds * ALPHA_SECS * (n as f64 - 1.0).max(0.0) + bytes as f64 * BETA_SECS_PER_BYTE;
        let model = base_compute / n as f64 + comm_model;
        let mbase = base_compute; // n = 1 model has negligible comm
        table.row(vec![
            n.to_string(),
            out.efms.len().to_string(),
            out.stats.candidates_generated.to_string(),
            out.stats.tree_pruned.to_string(),
            out.stats.dedup_hits.to_string(),
            out.stats.rank_tests.to_string(),
            format!("{:.1}", bytes as f64 / 1e6),
            secs(out.stats.phases.generate),
            secs(out.stats.phases.dedup),
            secs(out.stats.phases.tree_filter),
            secs(out.stats.phases.rank_test),
            secs(out.stats.phases.communicate),
            secs(out.stats.phases.merge),
            format!("{total:.2}"),
            format!("{model:.2}"),
            format!("{:.2}x", mbase / model.max(1e-9)),
        ]);
    }
    table.print();
    println!("\nNote: wall-clock speedup requires as many physical cores as simulated ranks;");
    println!("on smaller machines the balanced 'candidates' split across ranks carries the");
    println!("paper's scaling claim (see DESIGN.md §4).");
}
