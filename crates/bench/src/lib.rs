//! Shared harness utilities for the table-reproduction binaries.
//!
//! Each binary in `src/bin/` regenerates one table of the paper's
//! evaluation (see DESIGN.md §5 for the experiment index). This library
//! provides the common pieces: scaled workload presets, paper reference
//! numbers, and table formatting.

use efm_core::EfmOptions;
use efm_metnet::{yeast, MetabolicNetwork};
use std::time::{Duration, Instant};

/// Paper reference numbers (Tables II–IV) for side-by-side reporting.
pub mod paper {
    /// Total EFMs of Network I (Tables II and III).
    pub const NETWORK_I_EFMS: u64 = 1_515_314;
    /// Total candidate modes of the unsplit Network I run (Table II).
    pub const NETWORK_I_CANDIDATES: u64 = 159_599_700_951;
    /// Total candidate modes of the {R89r, R74r} split (Table III).
    pub const NETWORK_I_SPLIT_CANDIDATES: u64 = 81_714_944_316;
    /// Per-subset EFM counts of Table III, in subset order
    /// (R̄89 R̄74, R̄89 R74, R89 R̄74, R89 R74 — overbar = zero flux).
    pub const TABLE3_SUBSET_EFMS: [u64; 4] = [274_919, 599_344, 207_533, 433_518];
    /// Total EFMs of Network II (Table IV).
    pub const NETWORK_II_EFMS: u64 = 49_764_544;
    /// Serial total time of Table II in seconds (1 core, Intel Xeon 2008).
    pub const TABLE2_SERIAL_SECONDS: f64 = 2894.40;
    /// Table II per-core totals: (cores, total seconds).
    pub const TABLE2_TOTALS: [(u32, f64); 7] = [
        (1, 2894.40),
        (2, 1490.85),
        (4, 761.29),
        (8, 404.33),
        (16, 208.98),
        (32, 115.46),
        (64, 61.87),
    ];
}

/// Workload scale presets for the harness binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The toy network of Fig. 1 (instant; smoke-test the harness).
    Toy,
    /// A shrunken yeast variant sized for seconds on one core.
    Lite,
    /// The full published workload (minutes to hours on one core).
    Full,
}

impl Scale {
    /// Parses `toy|lite|full`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "toy" => Some(Scale::Toy),
            "lite" => Some(Scale::Lite),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }
}

/// Network I at the requested scale.
///
/// The `lite` variant removes the pentose-phosphate shunt entry (R15) and
/// the lumped biomass reaction (R70): both are high-degree hubs that
/// multiply the mode count without changing the algorithmic structure, so
/// the lite workload preserves the shape of every experiment at ~1/50 the
/// EFM count.
pub fn network_i(scale: Scale) -> MetabolicNetwork {
    match scale {
        Scale::Toy => efm_metnet::examples::toy_network(),
        Scale::Full => yeast::network_i(),
        Scale::Lite => {
            let text: String = yeast::NETWORK_I_TEXT
                .lines()
                .filter(|l| {
                    let name = l.split(':').next().unwrap_or("").trim();
                    name != "R15" && name != "R70"
                })
                .map(|l| format!("{l}\n"))
                .collect();
            efm_metnet::parse_network(&text).expect("lite network is well-formed")
        }
    }
}

/// Network II at the requested scale (lite applies the same trimming).
pub fn network_ii(scale: Scale) -> MetabolicNetwork {
    match scale {
        Scale::Toy => efm_metnet::examples::toy_network(),
        Scale::Full => yeast::network_ii(),
        Scale::Lite => {
            let text: String = yeast::NETWORK_II_TEXT
                .lines()
                .filter(|l| {
                    let name = l.split(':').next().unwrap_or("").trim();
                    name != "R15" && name != "R70"
                })
                .map(|l| format!("{l}\n"))
                .collect();
            efm_metnet::parse_network(&text).expect("lite network is well-formed")
        }
    }
}

/// Chooses a usable divide-and-conquer partition: keeps the preferred
/// reactions that are still reversible, pivotal, and distinct in the
/// reduced network, topping up with further qualifying reduced reactions
/// until `k` are found. Scaled-down networks can turn the paper's
/// partition reactions irreversible (the LP sign analysis fixes their
/// direction) or non-pivotal (free kernel columns cannot be ordered last),
/// so harnesses fall back transparently and report what they used.
pub fn pick_partition(
    net: &MetabolicNetwork,
    red: &efm_metnet::ReducedNetwork,
    preferred: &[&str],
    k: usize,
) -> Vec<String> {
    // Pivot (dependent) columns of the unsplit kernel: only those can be
    // ordered last, which Proposition 1 requires of partition reactions.
    let pivotal: Vec<usize> =
        efm_core::build_problem::<efm_numeric::DynInt>(red, &EfmOptions::default())
            .map(|p| {
                p.row_order[p.free_count..]
                    .iter()
                    .filter(|&&c| c < red.num_reduced())
                    .map(|&c| p.col_to_reduced[c])
                    .collect()
            })
            .unwrap_or_default();
    let mut chosen: Vec<String> = Vec::new();
    let mut reduced_used: Vec<usize> = Vec::new();
    let consider = |name: &str, chosen: &mut Vec<String>, used: &mut Vec<usize>| {
        if chosen.len() >= k {
            return;
        }
        if let Some(orig) = net.reaction_index(name) {
            if let Some(r) = red.reduced_index_of(orig) {
                if red.reversible[r] && pivotal.contains(&r) && !used.contains(&r) {
                    used.push(r);
                    chosen.push(name.to_string());
                }
            }
        }
    };
    for name in preferred {
        consider(name, &mut chosen, &mut reduced_used);
    }
    if chosen.len() < k {
        for rxn in &net.reactions {
            consider(&rxn.name, &mut chosen, &mut reduced_used);
        }
    }
    chosen
}

/// Default options for harness runs.
pub fn harness_options() -> EfmOptions {
    EfmOptions::default()
}

/// Formats a `Duration` in seconds with two decimals (paper style).
pub fn secs(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

/// Simple fixed-width table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table { headers: headers.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Adds a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "table row width");
        self.rows.push(cells);
    }

    /// Renders the table to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", fmt_row(&self.headers));
        println!("{}", widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("  "));
        for row in &self.rows {
            println!("{}", fmt_row(row));
        }
    }
}

/// Parses `--key value` style arguments into (key, value) pairs plus
/// positional arguments.
pub fn parse_cli() -> (Vec<(String, String)>, Vec<String>) {
    let mut flags = Vec::new();
    let mut positional = Vec::new();
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        if let Some(key) = a.strip_prefix("--") {
            let val = if it.peek().is_some_and(|n| !n.starts_with("--")) {
                it.next().unwrap()
            } else {
                String::from("true")
            };
            flags.push((key.to_string(), val));
        } else {
            positional.push(a);
        }
    }
    (flags, positional)
}

/// Looks up a flag value.
pub fn flag<'a>(flags: &'a [(String, String)], key: &str) -> Option<&'a str> {
    flags.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
}

/// An A/B wall-time comparison for the overhead benchmarks: the best time
/// of a base and of a variant way to run the same enumeration, with the
/// result of each best run.
pub struct Overhead<R> {
    /// Best wall time of the base arm, seconds.
    pub base_s: f64,
    /// The base arm's result at its best time.
    pub base: R,
    /// Best wall time of the variant arm, seconds.
    pub variant_s: f64,
    /// The variant arm's result at its best time.
    pub variant: R,
}

impl<R> Overhead<R> {
    /// Runs one warm-up of each arm, then `reps` interleaved base/variant
    /// pairs: run-to-run drift on a shared box dwarfs the quantity under
    /// test, and measuring every base rep before every variant rep would
    /// fold that drift into the overhead. `run(variant)` is one timed run
    /// of an arm; `prepare(variant)` runs before it, off the clock.
    pub fn measure(
        reps: usize,
        mut prepare: impl FnMut(bool),
        mut run: impl FnMut(bool) -> R,
    ) -> Self {
        let mut timed = |variant: bool| {
            prepare(variant);
            let t = Instant::now();
            let r = run(variant);
            (t.elapsed().as_secs_f64(), r)
        };
        let _ = timed(false);
        let _ = timed(true);
        let mut best: [Option<(f64, R)>; 2] = [None, None];
        for _ in 0..reps {
            for arm in [false, true] {
                let (s, r) = timed(arm);
                if best[arm as usize].as_ref().is_none_or(|(b, _)| s < *b) {
                    best[arm as usize] = Some((s, r));
                }
            }
        }
        let [Some((base_s, base)), Some((variant_s, variant))] = best else {
            panic!("an overhead measurement needs at least one rep");
        };
        Overhead { base_s, base, variant_s, variant }
    }

    /// The variant's wall-time overhead over the base, percent.
    pub fn pct(&self) -> f64 {
        (self.variant_s / self.base_s.max(1e-9) - 1.0) * 100.0
    }

    /// Prints the overhead against `budget_pct`, writes `path` as one flat
    /// JSON object — `benchmark`, the Network I workload at `scale` on the
    /// cluster backend with `nodes` ranks and `reps`, then `fields`
    /// (values written verbatim), then `overhead_pct`, `budget_pct` and
    /// `within_budget` — and fails when the overhead is over budget.
    pub fn report(
        &self,
        path: &str,
        benchmark: &str,
        (scale, nodes, reps): (Scale, usize, usize),
        fields: &[(&str, String)],
        budget_pct: f64,
    ) {
        let pct = self.pct();
        let within = pct <= budget_pct;
        let verdict = if within { "PASS" } else { "FAIL" };
        println!("  overhead: {pct:+.2}%  (budget ≤ {budget_pct}%: {verdict})");
        let head = [
            ("benchmark", format!("\"{benchmark}\"")),
            ("network", "\"yeast_network_i\"".to_string()),
            ("scale", format!("\"{scale:?}\"")),
            ("backend", "\"cluster\"".to_string()),
            ("nodes", nodes.to_string()),
            ("reps", reps.to_string()),
        ];
        let tail = [
            ("overhead_pct", format!("{pct:.4}")),
            ("budget_pct", format!("{budget_pct:?}")),
            ("within_budget", within.to_string()),
        ];
        let body: Vec<String> = head
            .iter()
            .chain(fields)
            .chain(&tail)
            .map(|(k, v)| format!("  \"{k}\": {v}"))
            .collect();
        std::fs::write(path, format!("{{\n{}\n}}\n", body.join(",\n")))
            .expect("write benchmark json");
        println!("  wrote {path}");
        assert!(within, "{benchmark}: overhead {pct:.2}% exceeds the {budget_pct}% budget");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_parse() {
        assert_eq!(Scale::parse("toy"), Some(Scale::Toy));
        assert_eq!(Scale::parse("lite"), Some(Scale::Lite));
        assert_eq!(Scale::parse("full"), Some(Scale::Full));
        assert_eq!(Scale::parse("x"), None);
    }

    #[test]
    fn lite_networks_are_smaller_but_valid() {
        let full = network_i(Scale::Full);
        let lite = network_i(Scale::Lite);
        assert_eq!(full.num_reactions(), 78);
        assert_eq!(lite.num_reactions(), 76);
        assert!(lite.validate().is_empty());
        let lite2 = network_ii(Scale::Lite);
        assert_eq!(lite2.num_reactions(), 81);
        assert!(lite2.validate().is_empty());
    }

    #[test]
    fn table_renders() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.print();
    }
}
