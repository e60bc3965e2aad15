//! B1/T3 — GYO reduction scaling and the Corollary 3.2 treeifying relation.
//!
//! Expected shape: near-linear growth for the incremental engine on tree
//! families; the cyclic residue computation (`U(GR(D))`) costs the same as
//! a full reduction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gyo::reduce::treeifying_relation;
use gyo::{gyo_reduce, AttrSet};
use gyo_bench::{bench_rng, ring_with_fringe};
use gyo_workloads::{chain, random_tree_schema};
use std::hint::black_box;
use std::time::Duration;

fn bench_reduction_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("gyo/scaling");
    for n in [100usize, 400, 1600, 6400] {
        let d = chain(n);
        group.bench_with_input(BenchmarkId::new("chain", n), &d, |b, d| {
            b.iter(|| black_box(gyo_reduce(d, &AttrSet::empty()).trace.len()))
        });
        let mut rng = bench_rng();
        let rt = random_tree_schema(&mut rng, n, n, 0.3);
        group.bench_with_input(BenchmarkId::new("random_tree", n), &rt, |b, d| {
            b.iter(|| black_box(gyo_reduce(d, &AttrSet::empty()).trace.len()))
        });
    }
    group.finish();
}

fn bench_sacred_sets(c: &mut Criterion) {
    // Reductions with sacred attributes stop early: the larger X, the less
    // work — the fast path behind CC(D, X) = GR(D, X) on trees.
    let mut group = c.benchmark_group("gyo/sacred");
    let d = chain(1000);
    for sacred_count in [0usize, 10, 100, 1000] {
        let x = AttrSet::from_iter((0..sacred_count as u32).map(gyo::AttrId));
        group.bench_with_input(BenchmarkId::from_parameter(sacred_count), &x, |b, x| {
            b.iter(|| black_box(gyo_reduce(&d, x).result.len()))
        });
    }
    group.finish();
}

fn bench_treeifying_relation(c: &mut Criterion) {
    let mut group = c.benchmark_group("gyo/treeifying_relation");
    for pendants in [0usize, 100, 1000] {
        let d = ring_with_fringe(8, pendants);
        group.bench_with_input(BenchmarkId::from_parameter(pendants), &d, |b, d| {
            b.iter(|| black_box(treeifying_relation(d).len()))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900));
    targets = bench_reduction_scaling, bench_sacred_sets, bench_treeifying_relation
}
criterion_main!(benches);
