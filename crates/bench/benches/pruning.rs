//! X3/T5/B3 — the §6 payoff: CC-based irrelevant-relation pruning.
//!
//! Expected shape: the full join program pays for the irrelevant tail
//! (growing with tail length and data size); the CC-pruned program's cost
//! is flat in the tail length. "The UR property is helpful to the extent
//! that CC(D, X) is smaller than D." The `engine_tail` group replays the
//! sweep on a tree family through `TreeifyEngine`'s cached plans: even a
//! cached plan pays `2·(n−1)` semijoins for the unpruned chain, while the
//! pruned plan's cost is flat — pruning and plan caching compose.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gyo::prelude::*;
use gyo_bench::{bench_rng, pruning_family, tree_pruning_family};
use gyo_workloads::random_universal;
use std::hint::black_box;
use std::time::Duration;

fn bench_pruning_payoff(c: &mut Criterion) {
    let mut group = c.benchmark_group("pruning/tail_sweep");
    for tail in [2usize, 8, 32] {
        let (d, x) = pruning_family(tail);
        let mut rng = bench_rng();
        let i = random_universal(&mut rng, &d.attributes(), 400, 50_000);
        let state = DbState::from_universal(&i, &d);
        let q = JoinQuery::new(d.clone(), x.clone());
        let pruned = prune_irrelevant(&d, &x);
        assert_eq!(q.eval(&state), pruned.eval(&d, &state), "sanity");

        group.bench_with_input(
            BenchmarkId::new("full_join", tail),
            &(&q, &state),
            |b, (q, state)| b.iter(|| black_box(q.eval(state).len())),
        );
        group.bench_with_input(
            BenchmarkId::new("cc_pruned", tail),
            &(&pruned, &d, &state),
            |b, (p, d, state)| b.iter(|| black_box(p.eval(d, state).len())),
        );
    }
    group.finish();
}

fn bench_engine_tail(c: &mut Criterion) {
    let mut group = c.benchmark_group("pruning/engine_tail");
    let engine = TreeifyEngine::new();
    for tail in [2usize, 8, 32] {
        let (d, x) = tree_pruning_family(tail);
        let mut rng = bench_rng();
        let i = random_universal(&mut rng, &d.attributes(), 400, 50_000);
        let state = DbState::from_universal(&i, &d);
        let pruned = prune_irrelevant(&d, &x);
        // Materialize the pruned state once (what PrunedQuery::eval does
        // internally), so the bench isolates answering cost.
        let pruned_state = DbState::new(
            &pruned.schema,
            pruned
                .schema
                .iter()
                .zip(&pruned.hosts)
                .map(|(s, &h)| state.rel(h).project(s))
                .collect(),
        );
        let expected = state.eval_join_query(&x);
        assert_eq!(engine.answer(&d, &state, &x).unwrap(), expected, "sanity");
        assert_eq!(
            engine.answer(&pruned.schema, &pruned_state, &x).unwrap(),
            expected,
            "pruned sanity"
        );

        group.bench_with_input(BenchmarkId::new("engine_full", tail), &state, |b, state| {
            b.iter(|| black_box(engine.answer(&d, state, &x).unwrap().len()))
        });
        group.bench_with_input(
            BenchmarkId::new("engine_pruned", tail),
            &pruned_state,
            |b, pruned_state| {
                b.iter(|| {
                    black_box(
                        engine
                            .answer(&pruned.schema, pruned_state, &x)
                            .unwrap()
                            .len(),
                    )
                })
            },
        );
    }
    group.finish();
}

fn bench_data_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("pruning/data_sweep");
    let (d, x) = pruning_family(8);
    let q = JoinQuery::new(d.clone(), x.clone());
    let pruned = prune_irrelevant(&d, &x);
    for rows in [100usize, 400, 1600] {
        let mut rng = bench_rng();
        let i = random_universal(&mut rng, &d.attributes(), rows, 100 * rows as u64);
        let state = DbState::from_universal(&i, &d);
        group.bench_with_input(BenchmarkId::new("full_join", rows), &state, |b, state| {
            b.iter(|| black_box(q.eval(state).len()))
        });
        group.bench_with_input(BenchmarkId::new("cc_pruned", rows), &state, |b, state| {
            b.iter(|| black_box(pruned.eval(&d, state).len()))
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
    targets = bench_pruning_payoff, bench_engine_tail, bench_data_sweep
}
criterion_main!(benches);
