//! F3/B2 — tableau machinery: containment-mapping search and greedy
//! minimization.
//!
//! Expected shape: folding a long irrelevant tail (the §6 pattern) costs a
//! quadratic number of containment searches; each search is fast because
//! the distinguished-variable prefilter prunes candidates hard.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gyo::tableau::{find_containment, minimize};
use gyo::{AttrSet, Tableau};
use gyo_bench::pruning_family;
use gyo_workloads::chain;
use std::hint::black_box;
use std::time::Duration;

fn bench_containment(c: &mut Criterion) {
    let mut group = c.benchmark_group("tableau/containment");
    for n in [4usize, 8, 16] {
        let d = chain(n);
        let u: Vec<_> = d.attributes().iter().collect();
        let x = AttrSet::from_iter([u[0], u[u.len() - 1]]);
        let t = Tableau::standard(&d, &x);
        group.bench_with_input(BenchmarkId::new("identity", n), &t, |b, t| {
            b.iter(|| black_box(find_containment(t, t).is_some()))
        });
    }
    group.finish();
}

fn bench_minimization(c: &mut Criterion) {
    let mut group = c.benchmark_group("tableau/minimize");
    for tail in [2usize, 6, 12] {
        let (d, x) = pruning_family(tail);
        let t = Tableau::standard(&d, &x);
        group.bench_with_input(BenchmarkId::new("pruning_family", tail), &t, |b, t| {
            b.iter(|| black_box(minimize(t).tableau.row_count()))
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
    targets = bench_containment, bench_minimization
}
criterion_main!(benches);
