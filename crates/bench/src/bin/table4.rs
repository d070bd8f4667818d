//! Table IV — Algorithm 3 on S. cerevisiae Network II, partitioned across
//! {R54r, R90r, R60r}, with the paper's four-reaction refinement (adding
//! R22r) for the subsets that exceed memory at three reactions.
//!
//! ```text
//! table4 [--scale toy|lite|full] [--nodes 4] [--float|--exact]
//!        [--subset K]      run a single subset id (0..2^qsub)
//!        [--refine]        split subsets further with R22r (paper's move)
//! ```
//!
//! The paper's full-scale Table IV represents ≈3.5×10¹³ candidate modes
//! (three hours on 256 Blue Gene/P nodes); on a single-core machine run the
//! lite scale, or individual `--subset` rows at full scale (see
//! EXPERIMENTS.md for the recorded runs).

use efm_bench::{
    flag, harness_options, network_ii, paper, parse_cli, pick_partition, Scale, Table,
};
use efm_core::{resolve_partition, run_subset, subset_pattern, Backend};
use efm_metnet::compress;
use efm_numeric::{DynInt, F64Tol};

fn main() {
    let (flags, _) = parse_cli();
    let scale = Scale::parse(flag(&flags, "scale").unwrap_or("lite")).expect("bad --scale");
    let nodes: usize = flag(&flags, "nodes").unwrap_or("4").parse().expect("bad --nodes");
    let exact = flag(&flags, "exact").is_some();
    let refine = flag(&flags, "refine").is_some();
    let only: Option<usize> = flag(&flags, "subset").map(|s| s.parse().expect("bad --subset"));

    let base_partition = ["R54r", "R90r", "R60r"];
    let refine_partition = ["R54r", "R90r", "R60r", "R22r"];
    let requested: Vec<&str> =
        if refine { refine_partition.to_vec() } else { base_partition.to_vec() };

    let net = network_ii(scale);
    let (red, comp) = compress(&net);
    let picked = pick_partition(&net, &red, &requested, requested.len());
    if picked.iter().map(String::as_str).collect::<Vec<_>>() != requested {
        println!("note: using partition {picked:?} (requested {requested:?})");
    }
    let names: Vec<&str> = picked.iter().map(String::as_str).collect();
    println!(
        "Table IV reproduction — Algorithm 3 on Network II, partition {{{}}} ({scale:?} scale, {} ranks, {} arithmetic)",
        names.join(", "),
        nodes,
        if exact { "exact integer" } else { "f64" }
    );
    println!("reduced network {}x{} ({comp:?})", red.stoich.rows(), red.num_reduced());
    println!("paper reference (full scale): {} EFMs total\n", paper::NETWORK_II_EFMS);

    let partition = match resolve_partition(&net, &red, &names) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot build partition: {e}");
            std::process::exit(1);
        }
    };
    let backend = Backend::Cluster(efm_cluster::ClusterConfig::new(nodes));
    let qsub = partition.reduced_indices.len();
    let ids: Vec<usize> = match only {
        Some(k) => vec![k],
        None => (0..1usize << qsub).collect(),
    };

    let mut table = Table::new(&["subset", "binary pattern", "candidates", "EFMs", "time(s)"]);
    let mut total_efms: u64 = 0;
    let mut total_cands: u64 = 0;
    let mut total_secs = 0.0;
    for id in ids {
        let result = if exact {
            run_subset::<DynInt>(&red, &partition, id, &harness_options(), &backend)
        } else {
            run_subset::<F64Tol>(&red, &partition, id, &harness_options(), &backend)
        };
        match result {
            Ok(Some((sups, stats))) => {
                total_efms += sups.len() as u64;
                total_cands += stats.candidates_generated;
                total_secs += stats.total_time.as_secs_f64();
                table.row(vec![
                    id.to_string(),
                    subset_pattern(&partition, id),
                    stats.candidates_generated.to_string(),
                    sups.len().to_string(),
                    format!("{:.2}", stats.total_time.as_secs_f64()),
                ]);
            }
            Ok(None) => {
                table.row(vec![
                    id.to_string(),
                    subset_pattern(&partition, id),
                    "0".into(),
                    "0 (provably empty)".into(),
                    "0.00".into(),
                ]);
            }
            Err(e) => {
                table.row(vec![
                    id.to_string(),
                    subset_pattern(&partition, id),
                    "-".into(),
                    format!("failed: {e}"),
                    "-".into(),
                ]);
            }
        }
    }
    table.print();
    println!("\ntotals: {} EFMs, {} candidate modes, {:.2}s", total_efms, total_cands, total_secs);
}
