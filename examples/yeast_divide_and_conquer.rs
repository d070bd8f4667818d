//! The paper's headline workflow on the yeast network: run the
//! combinatorial parallel Nullspace Algorithm unsplit, then the combined
//! divide-and-conquer algorithm partitioned across {R89r, R74r} (the
//! paper's Table III split), and compare candidate counts, peak memory
//! pressure, and wall time.
//!
//! By default this runs a trimmed ("lite") Network I that finishes in
//! seconds on one core; pass `full` to run the complete 62×78 network
//! (minutes; see EXPERIMENTS.md for recorded full-scale results).
//!
//! ```text
//! cargo run --release --example yeast_divide_and_conquer [lite|full]
//! ```

use efm_suite::cluster::ClusterConfig;
use efm_suite::efm::{Backend, Run};
use efm_suite::numeric::F64Tol;

fn main() {
    let scale = std::env::args().nth(1).unwrap_or_else(|| "lite".into());
    let net = match scale.as_str() {
        "full" => efm_suite::metnet::yeast::network_i(),
        _ => {
            // Drop the two highest-degree hub reactions; preserves the
            // experiment's shape at ~1/50 of the mode count.
            let text: String = efm_suite::metnet::yeast::NETWORK_I_TEXT
                .lines()
                .filter(|l| {
                    let name = l.split(':').next().unwrap_or("").trim();
                    name != "R15" && name != "R70"
                })
                .map(|l| format!("{l}\n"))
                .collect();
            efm_suite::metnet::parse_network(&text).unwrap()
        }
    };
    println!(
        "S. cerevisiae Network I ({scale}): {} metabolites x {} reactions",
        net.num_internal(),
        net.num_reactions()
    );
    // One Run per algorithm: Algorithm 2 on four ranks, then the same run
    // with a partition, which makes it Algorithm 3.
    let algorithm_2 =
        Run { backend: Backend::Cluster(ClusterConfig::new(4)), ..Default::default() };

    println!("\n-- Algorithm 2 (combinatorial parallel, unsplit) --");
    let unsplit = algorithm_2.enumerate::<F64Tol>(&net).unwrap();
    println!(
        "EFMs: {}   candidates: {}   peak intermediate modes: {}   time: {:.2}s",
        unsplit.efms.len(),
        unsplit.stats.candidates_generated,
        unsplit.stats.peak_modes,
        unsplit.stats.total_time.as_secs_f64()
    );

    println!("\n-- Algorithm 3 (combined, partition {{R89r, R74r}}) --");
    let algorithm_3 = Run { partition: vec!["R89r".into(), "R74r".into()], ..algorithm_2 };
    let split = algorithm_3.enumerate::<F64Tol>(&net).unwrap();
    for s in &split.subsets {
        println!(
            "  subset {} [{}]: {} EFMs, {} candidates, peak {} modes, {:.2}s{}",
            s.id,
            s.pattern,
            s.efm_count,
            s.stats.candidates_generated,
            s.stats.peak_modes,
            s.stats.total_time.as_secs_f64(),
            if s.skipped_empty { " (provably empty)" } else { "" }
        );
    }
    println!(
        "union: {} EFMs   cumulative candidates: {}   worst subset peak: {} modes",
        split.efms.len(),
        split.stats.candidates_generated,
        split.subsets.iter().map(|s| s.stats.peak_modes).max().unwrap_or(0)
    );

    assert_eq!(unsplit.efms, split.efms, "the partition must recover the same EFM set");
    println!(
        "\ndivide-and-conquer generated {:.1}% of the unsplit candidates and peaked at {:.1}% of its modes",
        100.0 * split.stats.candidates_generated as f64
            / unsplit.stats.candidates_generated.max(1) as f64,
        100.0 * split.subsets.iter().map(|s| s.stats.peak_modes).max().unwrap_or(0) as f64
            / unsplit.stats.peak_modes.max(1) as f64
    );
}
