//! T4/B2 — canonical connections: the Theorem 3.3 fast path vs. tableau
//! minimization.
//!
//! Expected shape: on tree schemas `CC = GR` turns an exponential
//! minimization into a near-linear reduction; on cyclic schemas the
//! minimization cost grows quickly with row count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gyo::tableau::{canonical_connection, cc_via_minimization};
use gyo::AttrSet;
use gyo_bench::bench_rng;
use gyo_workloads::{aring_n, chain, random_tree_schema};
use std::hint::black_box;
use std::time::Duration;

fn target_of(d: &gyo::DbSchema) -> AttrSet {
    // first two attributes of the universe
    AttrSet::from_iter(d.attributes().iter().take(2))
}

fn bench_tree_fast_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("cc/tree");
    for n in [4usize, 8, 16, 64] {
        let d = chain(n);
        let x = target_of(&d);
        group.bench_with_input(
            BenchmarkId::new("fast_path", n),
            &(d.clone(), x.clone()),
            |b, (d, x)| b.iter(|| black_box(canonical_connection(d, x).len())),
        );
        if n <= 16 {
            group.bench_with_input(BenchmarkId::new("minimization", n), &(d, x), |b, (d, x)| {
                b.iter(|| black_box(cc_via_minimization(d, x).len()))
            });
        }
    }
    group.finish();
}

fn bench_cyclic_minimization(c: &mut Criterion) {
    let mut group = c.benchmark_group("cc/cyclic");
    for n in [4usize, 6, 8, 10] {
        let d = aring_n(n);
        let x = target_of(&d);
        group.bench_with_input(BenchmarkId::new("aring", n), &(d, x), |b, (d, x)| {
            b.iter(|| black_box(canonical_connection(d, x).len()))
        });
    }
    group.finish();
}

fn bench_random_trees(c: &mut Criterion) {
    let mut group = c.benchmark_group("cc/random_tree");
    let mut rng = bench_rng();
    for n in [6usize, 10, 14] {
        let d = random_tree_schema(&mut rng, n, 2 * n, 0.4);
        let x = target_of(&d);
        group.bench_with_input(
            BenchmarkId::new("fast_path", n),
            &(d.clone(), x.clone()),
            |b, (d, x)| b.iter(|| black_box(canonical_connection(d, x).len())),
        );
        group.bench_with_input(BenchmarkId::new("minimization", n), &(d, x), |b, (d, x)| {
            b.iter(|| black_box(cc_via_minimization(d, x).len()))
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
    targets = bench_tree_fast_path, bench_cyclic_minimization, bench_random_trees
}
criterion_main!(benches);
