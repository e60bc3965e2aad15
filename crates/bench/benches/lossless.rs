//! T7 — lossless-join checking: the CC criterion vs. the semantic
//! (frozen-tableau) oracle, on tree and cyclic schemas.
//!
//! Expected shape: on tree schemas the CC route is a GYO reduction
//! (near-linear); the semantic oracle pays for join materialization. On
//! cyclic schemas the CC route pays for tableau minimization.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gyo::query::{implies_lossless, implies_lossless_semantic};
use gyo_workloads::{aring_n, chain};
use std::hint::black_box;
use std::time::Duration;

fn bench_tree_schemas(c: &mut Criterion) {
    let mut group = c.benchmark_group("lossless/tree");
    for n in [4usize, 8, 16, 32] {
        let d = chain(n);
        let sub: Vec<usize> = (0..n / 2).collect(); // a prefix subtree
        group.bench_with_input(
            BenchmarkId::new("cc_criterion", n),
            &(d.clone(), sub.clone()),
            |b, (d, sub)| b.iter(|| black_box(implies_lossless(d, sub))),
        );
        if n <= 16 {
            group.bench_with_input(BenchmarkId::new("semantic", n), &(d, sub), |b, (d, sub)| {
                b.iter(|| black_box(implies_lossless_semantic(d, sub)))
            });
        }
    }
    group.finish();
}

fn bench_cyclic_schemas(c: &mut Criterion) {
    let mut group = c.benchmark_group("lossless/cyclic");
    for n in [4usize, 6, 8] {
        let d = aring_n(n);
        let sub: Vec<usize> = (0..n - 1).collect(); // ring minus one edge
        group.bench_with_input(
            BenchmarkId::new("cc_criterion", n),
            &(d.clone(), sub.clone()),
            |b, (d, sub)| b.iter(|| black_box(implies_lossless(d, sub))),
        );
        group.bench_with_input(BenchmarkId::new("semantic", n), &(d, sub), |b, (d, sub)| {
            b.iter(|| black_box(implies_lossless_semantic(d, sub)))
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
    targets = bench_tree_schemas, bench_cyclic_schemas
}
criterion_main!(benches);
