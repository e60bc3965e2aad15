//! B5 — §4's cyclic-schema strategy: monolithic join vs. "add U(GR(D)),
//! then semijoin" treeification.
//!
//! Expected shape: the treeification strategy pays one core join (over the
//! GYO survivors only) and then runs linear semijoin passes, so it wins
//! when the acyclic fringe is large; the monolithic join pays for the
//! fringe inside one big join pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gyo::prelude::*;
use gyo_bench::{bench_rng, ring_with_fringe};
use gyo_workloads::random_universal;
use std::hint::black_box;
use std::time::Duration;

fn bench_fringe_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("treeify/fringe");
    for pendants in [0usize, 8, 32] {
        let d = ring_with_fringe(4, pendants);
        let x = AttrSet::from_raw(&[0, 2]);
        let mut rng = bench_rng();
        let i = random_universal(&mut rng, &d.attributes(), 300, 3_000);
        let state = DbState::from_universal(&i, &d);
        assert_eq!(
            solve_via_treeification(&d, &state, &x),
            state.eval_join_query(&x),
            "sanity"
        );
        group.bench_with_input(
            BenchmarkId::new("monolithic", pendants),
            &state,
            |b, state| b.iter(|| black_box(state.eval_join_query(&x).len())),
        );
        group.bench_with_input(
            BenchmarkId::new("treeified", pendants),
            &state,
            |b, state| b.iter(|| black_box(solve_via_treeification(&d, state, &x).len())),
        );
    }
    group.finish();
}

fn bench_data_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("treeify/data");
    let d = ring_with_fringe(4, 16);
    let x = AttrSet::from_raw(&[0, 2]);
    for rows in [100usize, 400, 1600] {
        let mut rng = bench_rng();
        let i = random_universal(&mut rng, &d.attributes(), rows, 10 * rows as u64);
        let state = DbState::from_universal(&i, &d);
        group.bench_with_input(BenchmarkId::new("monolithic", rows), &state, |b, state| {
            b.iter(|| black_box(state.eval_join_query(&x).len()))
        });
        group.bench_with_input(BenchmarkId::new("treeified", rows), &state, |b, state| {
            b.iter(|| black_box(solve_via_treeification(&d, state, &x).len()))
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
    targets = bench_fringe_sweep, bench_data_sweep
}
criterion_main!(benches);
