//! Criterion micro/meso benchmarks of the pipeline building blocks:
//! pattern operations, the engine's rank test on a real candidate batch
//! (f64 on kernel rows, and the exact reference), kernel construction,
//! compression, and whole-network enumeration at toy scale.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use efm_bitset::{Pattern1, Pattern2};
use efm_core::{
    build_problem, Backend, CandidateSet, EfmOptions, Engine, GenArena, Run, StreamStats,
};
use efm_linalg::{kernel_basis, Mat};
use efm_metnet::generator::{layered_branches, random_network, RandomNetworkParams};
use efm_metnet::{compress, examples::toy_network};
use efm_numeric::{DynInt, F64Tol, Rational};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_patterns(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let pats1: Vec<Pattern1> =
        (0..4096).map(|_| Pattern1::from_indices((0..64).filter(|_| rng.gen_bool(0.3)))).collect();
    let pats2: Vec<Pattern2> =
        (0..4096).map(|_| Pattern2::from_indices((0..128).filter(|_| rng.gen_bool(0.3)))).collect();
    c.bench_function("pattern1_union_count_sweep", |b| {
        b.iter(|| {
            let probe = pats1[0];
            let mut acc = 0u32;
            for p in &pats1 {
                acc += probe.union_count(black_box(p));
            }
            acc
        })
    });
    c.bench_function("pattern2_union_count_sweep", |b| {
        b.iter(|| {
            let probe = pats2[0];
            let mut acc = 0u32;
            for p in &pats2 {
                acc += probe.union_count(black_box(p));
            }
            acc
        })
    });
    c.bench_function("pattern2_subset_sweep", |b| {
        b.iter(|| {
            let probe = pats2[0];
            pats2.iter().filter(|p| p.is_subset_of(black_box(&probe))).count()
        })
    });
}

/// The rank-test input of one real iteration: the engine on Network I-lite
/// advanced to the first iteration whose deduplicated candidate batch
/// holds at least 4096 candidates, and that batch.
fn yeast_lite_rank_batch() -> (Engine<Pattern1, DynInt>, CandidateSet<Pattern1>) {
    let net = efm_bench::network_i(efm_bench::Scale::Lite);
    let (red, _) = compress(&net);
    let opts = EfmOptions::default();
    let problem = build_problem::<DynInt>(&red, &opts).unwrap();
    let mut eng: Engine<Pattern1, DynInt> = Engine::new(&problem, &opts).unwrap();
    while !eng.done() {
        let part = eng.partition();
        let mut set = CandidateSet::default();
        let mut stats = StreamStats::default();
        eng.generate_range(&part, 0, part.pairs(), &mut set, &mut GenArena::new(), &mut stats);
        set.sort_dedup();
        if set.len() >= 4096 {
            return (eng, set);
        }
        eng.step();
    }
    panic!("Network I-lite has an iteration with 4096 deduplicated candidates");
}

fn bench_rank_tests(c: &mut Criterion) {
    let (mut eng, batch) = yeast_lite_rank_batch();
    c.bench_function("rank_f64_yeast_batch", |b| {
        b.iter(|| eng.rank_filter_range(black_box(&batch), 0..batch.len()).len())
    });
    eng.exact_rank_test = true;
    c.bench_function("rank_exact_yeast_batch_256", |b| {
        b.iter(|| eng.rank_filter_range(black_box(&batch), 0..256).len())
    });
}

fn bench_kernel_and_compress(c: &mut Criterion) {
    let net = efm_metnet::yeast::network_i();
    let n: Mat<Rational> = net.stoichiometry();
    c.bench_function("kernel_basis_yeast", |b| {
        b.iter(|| kernel_basis(black_box(&n), &[]).k.cols())
    });
    c.bench_function("compress_yeast_network_i", |b| {
        b.iter(|| compress(black_box(&net)).0.num_reduced())
    });
    let params = RandomNetworkParams { metabolites: 12, reactions: 24, ..Default::default() };
    let rnet = random_network(&params, 3);
    c.bench_function("compress_random_12x24", |b| {
        b.iter(|| compress(black_box(&rnet)).0.num_reduced())
    });
}

fn bench_enumeration(c: &mut Criterion) {
    let toy = toy_network();
    let opts = EfmOptions::default();
    c.bench_function("enumerate_toy_exact", |b| {
        b.iter(|| {
            Run { opts: opts.clone(), backend: Backend::Serial, ..Default::default() }
                .enumerate::<DynInt>(&toy)
                .unwrap()
                .efms
                .len()
        })
    });
    c.bench_function("enumerate_toy_f64", |b| {
        b.iter(|| {
            Run { opts: opts.clone(), backend: Backend::Serial, ..Default::default() }
                .enumerate::<F64Tol>(&toy)
                .unwrap()
                .efms
                .len()
        })
    });
    let layered = layered_branches(5, 3);
    c.bench_function("enumerate_layered_5x3_exact", |b| {
        b.iter(|| {
            Run { opts: opts.clone(), backend: Backend::Serial, ..Default::default() }
                .enumerate::<DynInt>(&layered)
                .unwrap()
                .efms
                .len()
        })
    });
}

criterion_group!(
    name = pipeline;
    config = Criterion::default().sample_size(20);
    targets = bench_patterns, bench_rank_tests, bench_kernel_and_compress, bench_enumeration
);
criterion_main!(pipeline);
