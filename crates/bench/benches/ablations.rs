//! Criterion ablation benchmarks for the design decisions DESIGN.md calls
//! out: row-ordering heuristic, elementarity test, scalar arithmetic, and
//! execution backend.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use efm_core::{Backend, CandidateTest, EfmOptions, EfmScalar, RowOrdering, Run};
use efm_metnet::generator::{layered_branches, random_network, RandomNetworkParams};
use efm_metnet::MetabolicNetwork;
use efm_numeric::{DynInt, F64Tol};

fn midsize_network() -> MetabolicNetwork {
    // Reproducible medium workload: ~200 EFMs in milliseconds.
    let params = RandomNetworkParams {
        metabolites: 8,
        reactions: 16,
        reversible_prob: 0.3,
        mean_degree: 2.8,
        exchange_prob: 0.35,
        max_coeff: 2,
    };
    random_network(&params, 20260705)
}

/// EFM count of `net` under `opts` on `backend` with scalar `S`.
fn efms<S: EfmScalar>(net: &MetabolicNetwork, opts: &EfmOptions, backend: Backend) -> usize {
    let run = Run { opts: opts.clone(), backend, ..Default::default() };
    run.enumerate::<S>(net).unwrap().efms.len()
}

fn ordering_ablation(c: &mut Criterion) {
    let net = midsize_network();
    let mut g = c.benchmark_group("ordering");
    for (label, ordering) in [
        ("paper", RowOrdering::Paper),
        ("fewest-nonzeros", RowOrdering::FewestNonzeros),
        ("as-is", RowOrdering::AsIs),
        ("random", RowOrdering::Random(99)),
    ] {
        let opts = EfmOptions { ordering, ..Default::default() };
        g.bench_with_input(BenchmarkId::from_parameter(label), &opts, |b, opts| {
            b.iter(|| efms::<DynInt>(&net, opts, Backend::Serial))
        });
    }
    g.finish();
}

fn test_ablation(c: &mut Criterion) {
    let net = midsize_network();
    let mut g = c.benchmark_group("elementarity-test");
    for (label, test) in [("rank", CandidateTest::Rank), ("adjacency", CandidateTest::Adjacency)] {
        let opts = EfmOptions { test, ..Default::default() };
        g.bench_with_input(BenchmarkId::from_parameter(label), &opts, |b, opts| {
            b.iter(|| efms::<DynInt>(&net, opts, Backend::Serial))
        });
    }
    let opts = EfmOptions { exact_rank_test: true, ..Default::default() };
    g.bench_with_input(BenchmarkId::from_parameter("rank-exact"), &opts, |b, opts| {
        b.iter(|| efms::<DynInt>(&net, opts, Backend::Serial))
    });
    g.finish();
}

fn scalar_ablation(c: &mut Criterion) {
    let net = layered_branches(5, 3);
    let opts = EfmOptions::default();
    let mut g = c.benchmark_group("scalar");
    g.bench_function("exact-dynint", |b| b.iter(|| efms::<DynInt>(&net, &opts, Backend::Serial)));
    g.bench_function("f64-tolerance", |b| b.iter(|| efms::<F64Tol>(&net, &opts, Backend::Serial)));
    g.finish();
}

fn backend_ablation(c: &mut Criterion) {
    let net = midsize_network();
    let opts = EfmOptions::default();
    let mut g = c.benchmark_group("backend");
    g.bench_function("serial", |b| b.iter(|| efms::<DynInt>(&net, &opts, Backend::Serial)));
    g.bench_function("rayon", |b| b.iter(|| efms::<DynInt>(&net, &opts, Backend::Rayon)));
    for nodes in [1usize, 2, 4] {
        g.bench_with_input(BenchmarkId::new("cluster", nodes), &nodes, |b, &n| {
            let backend = Backend::Cluster(efm_cluster::ClusterConfig::new(n));
            b.iter(|| efms::<DynInt>(&net, &opts, backend.clone()))
        });
    }
    g.finish();
}

fn compression_ablation(c: &mut Criterion) {
    let net = midsize_network();
    let mut g = c.benchmark_group("compression");
    for (label, compression) in [
        ("full", efm_metnet::CompressionOptions::default()),
        ("kernel-only", efm_metnet::CompressionOptions::kernel_only()),
        ("none", efm_metnet::CompressionOptions::none()),
    ] {
        let opts = EfmOptions { compression, ..Default::default() };
        g.bench_with_input(BenchmarkId::from_parameter(label), &opts, |b, opts| {
            b.iter(|| efms::<DynInt>(&net, opts, Backend::Serial))
        });
    }
    g.finish();
}

criterion_group!(
    name = ablations;
    config = Criterion::default().sample_size(15);
    targets = ordering_ablation, test_ablation, scalar_ablation, backend_ablation,
        compression_ablation
);
criterion_main!(ablations);
