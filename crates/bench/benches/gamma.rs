//! F4–F6/T9 — γ-acyclicity testing and weak-γ-cycle extraction.
//!
//! Expected shape: the pairwise test (Theorem 5.3(ii)) is a polynomial
//! `O(n²)` sweep; cycle extraction adds one BFS. The exponential subtree
//! oracle is benchmarked at toy sizes only, to show *why* characterization
//! (ii) matters.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gyo::gamma::{find_weak_gamma_cycle, is_gamma_acyclic, is_gamma_acyclic_via_subtrees};
use gyo_workloads::{chain, grid, star};
use std::hint::black_box;
use std::time::Duration;

fn bench_pairwise_test(c: &mut Criterion) {
    let mut group = c.benchmark_group("gamma/pairwise");
    for n in [10usize, 40, 160] {
        group.bench_with_input(BenchmarkId::new("chain", n), &chain(n), |b, d| {
            b.iter(|| black_box(is_gamma_acyclic(d)))
        });
        group.bench_with_input(BenchmarkId::new("star", n), &star(n), |b, d| {
            b.iter(|| black_box(is_gamma_acyclic(d)))
        });
    }
    group.finish();
}

fn bench_cycle_extraction(c: &mut Criterion) {
    let mut group = c.benchmark_group("gamma/extract");
    for side in [2usize, 4, 8] {
        let d = grid(side, side);
        group.bench_with_input(BenchmarkId::new("grid", side), &d, |b, d| {
            b.iter(|| black_box(find_weak_gamma_cycle(d).map(|c| c.len())))
        });
    }
    group.finish();
}

fn bench_subtree_oracle(c: &mut Criterion) {
    let mut group = c.benchmark_group("gamma/subtree_oracle");
    for n in [4usize, 7, 10] {
        let d = chain(n);
        group.bench_with_input(BenchmarkId::new("chain", n), &d, |b, d| {
            b.iter(|| black_box(is_gamma_acyclic_via_subtrees(d)))
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
    targets = bench_pairwise_test, bench_cycle_extraction, bench_subtree_oracle
}
criterion_main!(benches);
