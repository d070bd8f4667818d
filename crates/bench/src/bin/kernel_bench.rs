//! PR 6 acceptance benchmark: the SIMD + cache-blocked candidate kernel.
//!
//! ```text
//! kernel_bench [--scale toy|lite|full] [--reps 3] [--out BENCH_pr6.json]
//! ```
//!
//! Three layers, finest first:
//!
//! 1. **Lane ops** — throughput of each batched bitset primitive
//!    (`bounds_sweep`, `union_counts`, `is_subset_any`) at the scalar tier
//!    vs the best tier the host supports, on synthetic dense batches.
//! 2. **Whole block** — `prefilter_hits` over one L1-sized block exactly as
//!    [`efm_core::Engine`] issues it (bound sweep + compare + hit gather).
//! 3. **Whole run** — yeast-lite Network I end to end (`--kernel scalar`
//!    vs `--kernel simd`, adjacency test, shared-memory backend) through
//!    the kernel's slab pipeline: the count-pruned vectorized subset scan
//!    replaces the pattern-tree probes of PR 1. The recorded
//!    `BENCH_pr1.json` tree-pipeline phase times on the same host are the
//!    acceptance baseline (`speedup_vs_pr1_tree_pipeline`).
//!
//! Both kernels enumerate the identical EFM set (asserted here and by the
//! differential suite); only the wall time may differ. Results land in
//! `BENCH_pr6.json`.

use efm_bench::{flag, harness_options, network_i, parse_cli, Scale};
use efm_bitset::kernel::{bounds_sweep, is_subset_any, prefilter_hits, union_counts};
use efm_bitset::{detect_tier, KernelTier, Pattern2};
use efm_core::{enumerate_with_scalar, Backend, CandidateTest, EfmOptions, EfmOutcome, KernelKind};
use efm_numeric::F64Tol;
use std::time::Instant;

/// Pattern width used by the micro layers: two words (65–128 reactions)
/// is the width yeast-lite dispatches to.
type P = Pattern2;
const W: usize = 2;

/// Batch length for the micro layers — one engine block at this width.
const BATCH: usize = 512;

/// splitmix64, the same deterministic generator the kernel unit tests use.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn pattern(state: &mut u64, density_shift: u32) -> P {
    let mut p = P::empty();
    for w in 0..W * 64 {
        if splitmix(state) >> (64 - density_shift) == 0 {
            p.set(w);
        }
    }
    p
}

/// Best-of-`reps` wall time of `body`, each rep running `iters` times.
fn best_secs(reps: usize, iters: usize, mut body: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..iters {
            body();
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

struct LaneResult {
    name: &'static str,
    scalar_mpairs: f64,
    simd_mpairs: f64,
}

impl LaneResult {
    fn speedup(&self) -> f64 {
        self.simd_mpairs / self.scalar_mpairs.max(1e-12)
    }
}

/// Layer 1+2: per-primitive and whole-block throughput, scalar vs best.
fn micro(reps: usize, best: KernelTier) -> Vec<LaneResult> {
    let mut state = 0x1234_5678u64;
    let pat = pattern(&mut state, 2);
    let sup = pattern(&mut state, 2);
    let negs: Vec<P> = (0..BATCH).map(|_| pattern(&mut state, 2)).collect();
    let nsups: Vec<P> = (0..BATCH).map(|_| pattern(&mut state, 2)).collect();
    let iters = 2_000;
    let mpairs = |secs: f64| (iters as f64 * BATCH as f64) / secs.max(1e-12) / 1e6;

    // Deep-scan batch for the subset probe: every candidate agrees with
    // `sub_sup` on all but the final word, so neither tier can early-exit
    // before the last word — the throughput case a count-pruned slab scan
    // hits (the prefix is exactly the candidates that *could* reject).
    let mut sub_sup = P::empty();
    for b in 0..W * 64 - 1 {
        if splitmix(&mut state) & 1 == 1 {
            sub_sup.set(b);
        }
    }
    let sub_cands: Vec<P> = (0..BATCH)
        .map(|_| {
            let mut c = pattern(&mut state, 1).intersect(&sub_sup);
            c.set(W * 64 - 1); // outside `sub_sup`: violation in the final word
            c
        })
        .collect();

    let mut bounds = Vec::new();
    let mut hits: Vec<u32> = Vec::new();
    // A bound every block meets occasionally, so the compare loop does
    // real gather work without every pair surviving.
    let max_nz = (W as u32 * 64) / 2;

    let run = |name: &'static str, f: &mut dyn FnMut(KernelTier)| {
        let s = best_secs(reps, iters, || f(KernelTier::Scalar));
        let v = best_secs(reps, iters, || f(best));
        LaneResult { name, scalar_mpairs: mpairs(s), simd_mpairs: mpairs(v) }
    };

    vec![
        run("bounds_sweep", &mut |tier| {
            bounds_sweep(tier, &pat, &sup, &negs, &nsups, &mut bounds);
            std::hint::black_box(&bounds);
        }),
        run("union_counts", &mut |tier| {
            union_counts(tier, &pat, &negs, &mut bounds);
            std::hint::black_box(&bounds);
        }),
        run("is_subset_any", &mut |tier| {
            std::hint::black_box(is_subset_any(tier, &sub_cands, &sub_sup));
        }),
        run("prefilter_block", &mut |tier| {
            hits.clear();
            prefilter_hits(tier, &pat, &sup, &negs, &nsups, max_nz, 0, &mut bounds, &mut hits);
            std::hint::black_box(&hits);
        }),
    ]
}

struct Measured {
    generate: f64,
    dedup: f64,
    tree_filter: f64,
    elementarity: f64,
    total: f64,
    efms: usize,
    tier: String,
}

impl Measured {
    /// The BENCH_pr1 comparison basis: dedup + tree filter + elementarity.
    fn filtered(&self) -> f64 {
        self.dedup + self.tree_filter + self.elementarity
    }
}

/// Layer 3: whole run, best-of-`reps` on total time. The adjacency test is
/// the count-pruned slab scan (dense `subset_any` batches) that the kernel
/// accelerates.
fn run_whole(net: &efm_metnet::MetabolicNetwork, kernel: KernelKind, reps: usize) -> Measured {
    let opts = EfmOptions { test: CandidateTest::Adjacency, kernel, ..harness_options() };
    let mut best: Option<Measured> = None;
    for _ in 0..reps {
        let out: EfmOutcome =
            enumerate_with_scalar::<F64Tol>(net, &opts, &Backend::Rayon).expect("run failed");
        let m = Measured {
            generate: out.stats.phases.generate.as_secs_f64(),
            dedup: out.stats.phases.dedup.as_secs_f64(),
            tree_filter: out.stats.phases.tree_filter.as_secs_f64(),
            elementarity: out.stats.phases.rank_test.as_secs_f64(),
            total: out.stats.total_time.as_secs_f64(),
            efms: out.efms.len(),
            tier: out.stats.kernel_tier.clone(),
        };
        if best.as_ref().is_none_or(|b| m.total < b.total) {
            best = Some(m);
        }
    }
    best.expect("at least one rep")
}

/// `trees.combined_s` from a previously recorded `BENCH_pr1.json`, if one
/// exists next to the working directory (the PR 1 acceptance record for
/// this host). Hand-rolled scan — the file is our own fixed format.
fn pr1_combined(path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let trees = text.split("\"trees\"").nth(1)?;
    let combined = trees.split("\"combined_s\":").nth(1)?;
    combined.split([',', '}']).next()?.trim().parse().ok()
}

fn main() {
    let (flags, _) = parse_cli();
    let scale = Scale::parse(flag(&flags, "scale").unwrap_or("lite")).expect("bad --scale");
    let reps: usize = flag(&flags, "reps").unwrap_or("3").parse().expect("bad --reps");
    let out_path = flag(&flags, "out").unwrap_or("BENCH_pr6.json").to_string();
    let best = detect_tier();

    println!("kernel_bench — lane ops at {BATCH}-pair batches, width {W} words");
    println!("  detected tier: {best}");
    let lanes = micro(reps, best);
    for l in &lanes {
        println!(
            "  {:16} scalar {:8.1} Mpairs/s   {best} {:8.1} Mpairs/s   ({:.2}x)",
            l.name,
            l.scalar_mpairs,
            l.simd_mpairs,
            l.speedup()
        );
    }

    let net = network_i(scale);
    println!(
        "kernel_bench — Network I ({scale:?}), adjacency slab pipeline, rayon backend, {reps} reps"
    );
    let scalar = run_whole(&net, KernelKind::Scalar, reps);
    println!(
        "  scalar kernel: gen {:.3}s  dedup {:.3}s  tree {:.3}s  elem {:.3}s  (total {:.2}s, {} EFMs)",
        scalar.generate, scalar.dedup, scalar.tree_filter, scalar.elementarity, scalar.total,
        scalar.efms
    );
    let simd = run_whole(&net, KernelKind::Simd, reps);
    println!(
        "  {} kernel:   gen {:.3}s  dedup {:.3}s  tree {:.3}s  elem {:.3}s  (total {:.2}s, {} EFMs)",
        simd.tier, simd.generate, simd.dedup, simd.tree_filter, simd.elementarity, simd.total,
        simd.efms
    );
    assert_eq!(scalar.efms, simd.efms, "kernel tiers must enumerate the same EFM set");

    let total_speedup = scalar.total / simd.total.max(1e-9);
    let filtered_speedup = scalar.filtered() / simd.filtered().max(1e-9);
    println!(
        "  simd vs scalar kernel: dedup+tree+elementarity {filtered_speedup:.2}x, whole run {total_speedup:.2}x"
    );
    let pr1 = pr1_combined("BENCH_pr1.json");
    let pr1_speedup = pr1.map(|c| c / simd.filtered().max(1e-9));
    if let (Some(c), Some(s)) = (pr1, pr1_speedup) {
        println!(
            "  vs BENCH_pr1 tree pipeline (combined {c:.4}s): dedup+tree+elementarity {s:.2}x"
        );
    }

    let mut lanes_json = String::new();
    for (i, l) in lanes.iter().enumerate() {
        if i > 0 {
            lanes_json.push_str(",\n");
        }
        lanes_json.push_str(&format!(
            "    {{ \"op\": \"{}\", \"scalar_mpairs_s\": {:.2}, \"simd_mpairs_s\": {:.2}, \
             \"speedup\": {:.4} }}",
            l.name,
            l.scalar_mpairs,
            l.simd_mpairs,
            l.speedup()
        ));
    }
    let pr1_json = match (pr1, pr1_speedup) {
        (Some(c), Some(s)) => format!(
            ",\n  \"pr1_tree_combined_s\": {c:.6},\n  \"speedup_vs_pr1_tree_pipeline\": {s:.4}"
        ),
        _ => String::new(),
    };
    let json = format!(
        "{{\n  \"benchmark\": \"kernel_bench\",\n  \"network\": \"yeast_network_i\",\n  \
         \"scale\": \"{scale:?}\",\n  \"backend\": \"rayon\",\n  \"test\": \"adjacency\",\n  \
         \"reps\": {reps},\n  \"efms\": {efms},\n  \"detected_tier\": \"{best}\",\n  \
         \"lane_ops\": [\n{lanes_json}\n  ],\n  \
         \"scalar\": {{ \"generate_s\": {sg:.6}, \"dedup_s\": {sd:.6}, \"tree_filter_s\": \
         {st:.6}, \"elementarity_s\": {se:.6}, \"combined_s\": {sc:.6}, \"total_s\": {stot:.6} \
         }},\n  \
         \"simd\": {{ \"tier\": \"{vt}\", \"generate_s\": {vg:.6}, \"dedup_s\": {vd:.6}, \
         \"tree_filter_s\": {vtf:.6}, \"elementarity_s\": {ve:.6}, \"combined_s\": {vc:.6}, \
         \"total_s\": {vtot:.6} }},\n  \
         \"dedup_elementarity_speedup\": {filtered_speedup:.4},\n  \
         \"total_speedup\": {total_speedup:.4}{pr1_json}\n}}\n",
        efms = simd.efms,
        sg = scalar.generate,
        sd = scalar.dedup,
        st = scalar.tree_filter,
        se = scalar.elementarity,
        sc = scalar.filtered(),
        stot = scalar.total,
        vt = simd.tier,
        vg = simd.generate,
        vd = simd.dedup,
        vtf = simd.tree_filter,
        ve = simd.elementarity,
        vc = simd.filtered(),
        vtot = simd.total,
    );
    std::fs::write(&out_path, json).expect("write benchmark json");
    println!("  wrote {out_path}");
}
