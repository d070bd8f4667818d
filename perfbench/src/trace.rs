//! The traced run: one operation in-process, with a span around every
//! call into a layer's public functions, in the order `efm-compute` makes
//! them. Spans are timed here, from outside the library. Counts and the
//! times the program measures itself come from `RunStats`,
//! `IterationStats` and the program's own histograms, and are labelled as
//! program-reported in README.md.

use crate::workload::{BackendKind, Workload};
use efm_bitset::BitPattern;
use efm_core::{
    build_problem, build_subproblem, cluster_supports_resumable, io, rayon_supports,
    resolve_partition, serial_supports, CheckpointConfig, EfmError, EfmOptions, EfmProblem, EfmSet,
    RunStats, StripeStore, SupportsAndStats,
};
use efm_metnet::{compress_with, parse_network, ReducedNetwork};
use efm_numeric::DynInt;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times in seconds from the tracer's start.
#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

/// Records nested spans in memory.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { t0: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let start = self.t0.elapsed().as_secs_f64();
        self.spans.push(Span { name, start, end: start, parent: self.open.last().copied() });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.t0.elapsed().as_secs_f64();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Length of the union of `intervals`.
fn union_len(mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in intervals {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0.0, |(s, e)| e - s)
}

/// Time of span `id` covered by its direct children.
pub fn child_cover(spans: &[Span], id: usize) -> f64 {
    union_len(spans.iter().filter(|s| s.parent == Some(id)).map(|s| (s.start, s.end)).collect())
}

/// A span's length minus the time its child spans cover.
pub fn self_time(spans: &[Span], id: usize) -> f64 {
    spans[id].end - spans[id].start - child_cover(spans, id)
}

/// Summed lengths of the spans named `name`.
pub fn total(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(|s| s.end - s.start).sum()
}

/// Summed self times of the spans named `name`.
pub fn total_self(spans: &[Span], name: &str) -> f64 {
    (0..spans.len()).filter(|&i| spans[i].name == name).map(|i| self_time(spans, i)).sum()
}

/// What one traced operation produced besides its spans.
pub struct Traced {
    pub tracer: Tracer,
    pub efms: EfmSet,
    pub engine: EngineOut,
    pub reduced_reactions: usize,
    pub output_bytes: u64,
    pub checkpoint_bytes: u64,
}

/// Results of the engine layer, collected across subproblems.
pub struct EngineOut {
    supports: Vec<Vec<usize>>,
    pub stats: RunStats,
    /// Σ `accepted` over every iteration of every subproblem.
    pub accepted: u64,
    /// Largest kernel dimension (identity block) over the built problems.
    pub kernel_width: usize,
    pub subsets: usize,
    pub spill_bytes: u64,
}

fn accepted(stats: &RunStats) -> u64 {
    stats.iterations.iter().map(|it| it.accepted).sum()
}

fn run_backend<P: BitPattern>(
    w: &Workload,
    problem: &EfmProblem<DynInt>,
    opts: &EfmOptions,
    checkpoint: &Path,
) -> Result<SupportsAndStats, EfmError> {
    match w.backend {
        BackendKind::Serial => serial_supports::<P, DynInt>(problem, opts),
        BackendKind::Rayon => rayon_supports::<P, DynInt>(problem, opts),
        BackendKind::Cluster2 => {
            let ck = w.checkpoint.then(|| CheckpointConfig::new(checkpoint).every(1));
            let cfg = efm_cluster::ClusterConfig::new(2);
            let o =
                cluster_supports_resumable::<P, DynInt>(problem, opts, &cfg, None, ck.as_ref())?;
            Ok((o.supports, o.stats))
        }
    }
}

/// The unsplit path of `efm_core::enumerate_resumable_with_scalar`.
fn direct<P: BitPattern>(
    tr: &mut Tracer,
    w: &Workload,
    red: &ReducedNetwork,
    opts: &EfmOptions,
    checkpoint: &Path,
) -> Result<EngineOut, EfmError> {
    let problem = tr.span("problem.build", |_| build_problem::<DynInt>(red, opts))?;
    let (supports, stats) =
        tr.span("engine.run", |_| run_backend::<P>(w, &problem, opts, checkpoint))?;
    Ok(EngineOut {
        accepted: accepted(&stats),
        supports,
        stats,
        kernel_width: problem.free_count,
        subsets: 0,
        spill_bytes: 0,
    })
}

/// The serial subset schedule of `efm_core::enumerate_divide_conquer_*`
/// (Algorithm 3): per subset, build the subproblem, run it, and move the
/// finished stripe into the spillable store; then stream the stripes back
/// in subset order.
fn divide<P: BitPattern>(
    tr: &mut Tracer,
    w: &Workload,
    net: &efm_metnet::MetabolicNetwork,
    red: &ReducedNetwork,
    opts: &EfmOptions,
    checkpoint: &Path,
) -> Result<EngineOut, EfmError> {
    let partition = resolve_partition(net, red, w.partition)?;
    let subsets = 1usize << partition.reduced_indices.len();
    let mut store = StripeStore::new(subsets, w.spill_budget.unwrap_or(u64::MAX));
    let mut out = EngineOut {
        supports: Vec::new(),
        stats: RunStats::default(),
        accepted: 0,
        kernel_width: 0,
        subsets,
        spill_bytes: 0,
    };
    for id in 0..subsets {
        tr.span("divide.subset", |tr| -> Result<(), EfmError> {
            let bit = |i: usize| id >> i & 1 == 1;
            let idx = &partition.reduced_indices;
            let nonzero: Vec<usize> = (0..idx.len()).filter(|&i| bit(i)).map(|i| idx[i]).collect();
            let zero: Vec<usize> = (0..idx.len()).filter(|&i| !bit(i)).map(|i| idx[i]).collect();
            let keep: Vec<usize> = (0..red.num_reduced()).filter(|c| !zero.contains(c)).collect();
            let problem = tr.span("problem.build", |_| {
                build_subproblem::<DynInt>(red, &keep, &nonzero, opts)
            })?;
            let Some(problem) = problem else { return Ok(()) };
            let (sups, stats) =
                tr.span("engine.run", |_| run_backend::<P>(w, &problem, opts, checkpoint))?;
            tr.span("stripes.put", |_| store.put(id, &sups))?;
            out.accepted += accepted(&stats);
            out.kernel_width = out.kernel_width.max(problem.free_count);
            out.stats.accumulate(&stats);
            Ok(())
        })?;
    }
    out.spill_bytes = store.spill_bytes();
    tr.span("io.assemble", |tr| -> Result<(), EfmError> {
        for id in 0..subsets {
            if let Some(stripe) = tr.span("stripes.take", |_| store.take(id))? {
                out.supports.extend(stripe);
            }
        }
        Ok(())
    })?;
    Ok(out)
}

fn engine<P: BitPattern>(
    tr: &mut Tracer,
    w: &Workload,
    net: &efm_metnet::MetabolicNetwork,
    red: &ReducedNetwork,
    opts: &EfmOptions,
    checkpoint: &Path,
) -> Result<EngineOut, EfmError> {
    if w.partition.is_empty() {
        direct::<P>(tr, w, red, opts, checkpoint)
    } else {
        divide::<P>(tr, w, net, red, opts, checkpoint)
    }
}

/// Runs one operation of `w` on the network file `network`, writing the
/// packed EFM file (and checkpoint) into `dir`.
pub fn traced_operation(w: &Workload, network: &Path, dir: &Path) -> Result<Traced, String> {
    let opts = EfmOptions { spill_budget: w.spill_budget, ..Default::default() };
    let checkpoint = dir.join("trace.efck");
    let output = dir.join("trace.efms");
    let mut tr = Tracer::new();
    let res = tr.span("operation", |tr| -> Result<_, String> {
        let net = tr.span("metnet.parse", |_| {
            let text = std::fs::read_to_string(network).map_err(|e| e.to_string())?;
            parse_network(&text).map_err(|e| e.to_string())
        })?;
        let (red, _) = tr.span("metnet.compress", |_| compress_with(&net, &opts.compression));
        let q = red.num_reduced();
        let eo = match q {
            0..=64 => engine::<efm_bitset::Pattern1>(tr, w, &net, &red, &opts, &checkpoint),
            65..=128 => engine::<efm_bitset::Pattern2>(tr, w, &net, &red, &opts, &checkpoint),
            _ => engine::<efm_bitset::Pattern4>(tr, w, &net, &red, &opts, &checkpoint),
        }
        .map_err(|e| e.to_string())?;
        // `efm_core`'s assembly: expand reduced supports, canonicalize.
        let efms = tr.span("io.assemble", |_| {
            let mut efms = EfmSet::new(net.reaction_names());
            for sup in &eo.supports {
                efms.push_support(&red.expand_support(sup));
            }
            efms.canonicalize();
            efms
        });
        tr.span("io.write", |_| -> Result<(), String> {
            use std::io::Write;
            let f = std::fs::File::create(&output).map_err(|e| e.to_string())?;
            let mut bw = std::io::BufWriter::new(f);
            io::write_packed(&efms, &mut bw).map_err(|e| e.to_string())?;
            bw.flush().map_err(|e| e.to_string())
        })?;
        Ok((efms, eo, q))
    });
    let (efms, eo, q) = res?;
    let size = |p: &Path| std::fs::metadata(p).map_or(0, |m| m.len());
    Ok(Traced {
        tracer: tr,
        efms,
        engine: eo,
        reduced_reactions: q,
        output_bytes: size(&output),
        checkpoint_bytes: size(&checkpoint),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            s("root", 0.0, 10.0, None),
            s("a", 1.0, 4.0, Some(0)),
            s("b", 3.0, 5.0, Some(0)),
            s("c", 7.0, 8.0, Some(0)),
            s("a.inner", 1.0, 2.0, Some(1)),
        ];
        assert!((child_cover(&spans, 0) - 5.0).abs() < 1e-12);
        assert!((self_time(&spans, 0) - 5.0).abs() < 1e-12);
        assert!((self_time(&spans, 1) - 2.0).abs() < 1e-12);
        assert!((total(&spans, "a") - 3.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_spans() {
        let mut tr = Tracer::new();
        tr.span("root", |tr| {
            tr.span("child", |tr| tr.span("grandchild", |_| ()));
            tr.span("sibling", |_| ());
        });
        let parents: Vec<_> = tr.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            [("root", None), ("child", Some(0)), ("grandchild", Some(1)), ("sibling", Some(0))]
        );
    }
}
