//! T6 — Theorem 4.2's empirical signature: exact fixed treefication blows
//! up exponentially; the Aclique-structured instances reduce to (tiny) bin
//! packing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gyo::treefy::{
    bin_packing_to_treefication, solve_aclique_treefication, solve_bin_packing,
    solve_treefication_exact, BinPacking,
};
use gyo_workloads::aring_n;
use std::hint::black_box;
use std::time::Duration;

fn bench_exact_blowup(c: &mut Criterion) {
    let mut group = c.benchmark_group("treefy/exact_blowup");
    for n in [4usize, 5, 6, 7] {
        let d = aring_n(n);
        // Feasible: two half-covers exist and the biggest-candidates-first
        // search finds them quickly.
        group.bench_with_input(BenchmarkId::new("ring_k2_feasible", n), &d, |b, d| {
            b.iter(|| black_box(solve_treefication_exact(d, 2, (d.len() - 1) as u64).is_some()))
        });
        // Infeasible: K = 1 with B = n − 1 (Theorem 3.2(iii) forbids it),
        // so the search must exhaust the whole 2^n candidate pool — the
        // exponential signature of Theorem 4.2.
        group.bench_with_input(BenchmarkId::new("ring_k1_infeasible", n), &d, |b, d| {
            b.iter(|| black_box(solve_treefication_exact(d, 1, (d.len() - 1) as u64).is_none()))
        });
        // Infeasible with K = 2 but B too small: quadratic in the pool.
        if n <= 6 {
            group.bench_with_input(BenchmarkId::new("ring_k2_infeasible", n), &d, |b, d| {
                b.iter(|| black_box(solve_treefication_exact(d, 2, 2).is_none()))
            });
        }
    }
    group.finish();
}

fn bench_structured_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("treefy/structured");
    for items in [3usize, 6, 9] {
        let sizes: Vec<u64> = (0..items).map(|i| 3 + (i as u64 % 3)).collect();
        let total: u64 = sizes.iter().sum();
        let inst = BinPacking::new(sizes, items.div_ceil(2), total.div_ceil(2) + 2);
        let (d, _) = bin_packing_to_treefication(&inst);
        group.bench_with_input(
            BenchmarkId::new("aclique_instances", items),
            &(d, inst.bins, inst.capacity),
            |b, (d, k, cap)| {
                b.iter(|| black_box(solve_aclique_treefication(d, *k, *cap).unwrap().is_some()))
            },
        );
    }
    group.finish();
}

fn bench_bin_packing_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("treefy/binpack");
    for items in [8usize, 12, 16] {
        let sizes: Vec<u64> = (0..items).map(|i| 3 + (i as u64 * 7 % 5)).collect();
        let total: u64 = sizes.iter().sum();
        let inst = BinPacking::new(sizes, items / 2, total.div_ceil((items / 2) as u64) + 3);
        group.bench_with_input(BenchmarkId::new("exact", items), &inst, |b, inst| {
            b.iter(|| black_box(solve_bin_packing(inst).is_some()))
        });
        group.bench_with_input(BenchmarkId::new("ffd", items), &inst, |b, inst| {
            b.iter(|| black_box(gyo::treefy::first_fit_decreasing(inst).is_some()))
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
    targets = bench_exact_blowup, bench_structured_solver, bench_bin_packing_solvers
}
criterion_main!(benches);
