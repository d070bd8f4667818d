//! §IV.A — "Computation time is proportional to the number of generated
//! intermediate elementary modes."
//!
//! Sweeps a family of synthetic layered networks whose EFM count (and
//! hence candidate count) grows exponentially, printing candidates vs wall
//! time so the proportionality claim can be read off directly; then prints
//! the same comparison between the unsplit and split yeast runs.
//!
//! ```text
//! candidates_vs_time [--scale toy|lite|full] [--max-stages 7]
//! ```

use efm_bench::{flag, harness_options, network_i, parse_cli, pick_partition, Scale, Table};
use efm_core::{Backend, Run};
use efm_metnet::generator::layered_branches;
use efm_numeric::F64Tol;

fn main() {
    let (flags, _) = parse_cli();
    let scale = Scale::parse(flag(&flags, "scale").unwrap_or("lite")).expect("bad --scale");
    let max_stages: usize =
        flag(&flags, "max-stages").unwrap_or("7").parse().expect("bad --max-stages");
    let opts = harness_options();

    println!("== synthetic sweep: layered_branches(stages, 3) ==");
    let mut table = Table::new(&["stages", "EFMs", "candidates", "time(s)", "ns/candidate"]);
    for stages in 2..=max_stages {
        let net = layered_branches(stages, 3);
        let out = Run { opts: opts.clone(), backend: Backend::Serial, ..Default::default() }
            .enumerate::<F64Tol>(&net)
            .expect("synthetic run failed");
        let t = out.stats.total_time.as_secs_f64();
        let c = out.stats.candidates_generated.max(1);
        table.row(vec![
            stages.to_string(),
            out.efms.len().to_string(),
            out.stats.candidates_generated.to_string(),
            format!("{t:.3}"),
            format!("{:.1}", t * 1e9 / c as f64),
        ]);
    }
    table.print();
    println!("(a roughly constant ns/candidate column is the paper's proportionality claim)");

    println!("\n== yeast Network I: unsplit vs divide-and-conquer ==");
    let net = network_i(scale);
    let unsplit = Run { opts: opts.clone(), backend: Backend::Serial, ..Default::default() }
        .enumerate::<F64Tol>(&net)
        .expect("unsplit run failed");
    let partition = pick_partition(&net, &unsplit.reduced, &["R89r", "R74r"], 2);
    let split = Run {
        opts: opts.clone(),
        partition: partition.clone(),
        backend: Backend::Serial,
        ..Default::default()
    }
    .enumerate::<F64Tol>(&net)
    .expect("split run failed");
    let mut t2 = Table::new(&["variant", "EFMs", "candidates", "time(s)"]);
    t2.row(vec![
        "Algorithm 2 (unsplit)".into(),
        unsplit.efms.len().to_string(),
        unsplit.stats.candidates_generated.to_string(),
        format!("{:.2}", unsplit.stats.total_time.as_secs_f64()),
    ]);
    t2.row(vec![
        format!("Algorithm 3 {{{}}}", partition.join(",")),
        split.efms.len().to_string(),
        split.stats.candidates_generated.to_string(),
        format!("{:.2}", split.stats.total_time.as_secs_f64()),
    ]);
    t2.print();
    println!(
        "(the split run should generate fewer candidates and finish sooner — Tables II vs III)"
    );
}
