//! F1/B1 — tree-vs-cyclic classification across schema families.
//!
//! The paper's implicit claim: GYO reduction decides tree-ness cheaply.
//! Series: classification time vs. schema size for chains, stars, rings,
//! cliques, grids, and random tree schemas, comparing the incremental GYO
//! reduction, the naive fixpoint reduction, and the max-weight-spanning-tree
//! method — plus the full-reduction comparison (the naive join-all engine
//! vs. per-call Yannakakis vs. the cached plans of `TreeifyEngine`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gyo_bench::bench_rng;
use gyo_core::reduce::{gyo_reduce_naive, is_tree_schema};
use gyo_core::schema::qual::maximum_weight_join_tree;
use gyo_core::{
    full_reduce, reduce_via_treeification, solve_via_treeification, AttrSet, DbState, Engine,
    NaiveEngine, TreeifyEngine,
};
use gyo_workloads::{
    aclique_n, aring_n, chain, family_state, grid, random_tree_schema, random_universal, star,
    wide_chain,
};
use std::hint::black_box;
use std::time::Duration;

fn bench_families(c: &mut Criterion) {
    let mut group = c.benchmark_group("classify/gyo");
    for n in [10usize, 100, 1000] {
        let mut rng = bench_rng();
        let cases = [
            ("chain", chain(n)),
            ("star", star(n)),
            ("aring", aring_n(n.max(3))),
            ("aclique", aclique_n(n.clamp(3, 60))),
            ("random_tree", random_tree_schema(&mut rng, n, 2 * n, 0.4)),
        ];
        for (name, d) in cases {
            group.bench_with_input(BenchmarkId::new(name, n), &d, |b, d| {
                b.iter(|| black_box(is_tree_schema(d)))
            });
        }
    }
    group.finish();
}

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("classify/engines");
    for n in [8usize, 32, 128] {
        let d = chain(n);
        group.bench_with_input(BenchmarkId::new("gyo_reduce", n), &d, |b, d| {
            b.iter(|| black_box(gyo_core::gyo_reduce(d, &AttrSet::empty()).is_total()))
        });
        group.bench_with_input(BenchmarkId::new("gyo_reduce_naive", n), &d, |b, d| {
            b.iter(|| black_box(gyo_reduce_naive(d, &AttrSet::empty()).is_total()))
        });
        group.bench_with_input(BenchmarkId::new("mst", n), &d, |b, d| {
            b.iter(|| black_box(maximum_weight_join_tree(d).is_some()))
        });
    }
    group.finish();
}

/// Full reduction on noisy chain states: the naive engine pays a monolithic
/// `⋈D` per call, per-call Yannakakis (`full_reduce`, the
/// `reduce_incremental` ids) re-derives the join tree per call, and the
/// cached engine reuses the compiled semijoin plan.
/// The acceptance target of this suite: `reduce_cached` beats
/// `reduce_naive` by ≥10× at n = 128.
fn bench_reduction_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("classify/engines");
    let cached = TreeifyEngine::new();
    for n in [8usize, 32, 128] {
        let d = chain(n);
        let mut rng = bench_rng();
        // Domain tuned so the naive `⋈D` grows mildly but measurably along
        // the chain (≈ e^(2.2·n/128) ≈ 9× at n = 128) — the paper's point:
        // join intermediates grow with n, semijoin passes don't. Dangling
        // noise rows give the full reducer real filtering work.
        let state = family_state(&mut rng, &d, 256, 1 << 14, 32);
        let reference = NaiveEngine.reduce(&d, &state).expect("naive reduces");
        assert_eq!(
            cached.reduce(&d, &state).expect("chain is a tree schema"),
            reference,
            "sanity"
        );
        group.bench_with_input(BenchmarkId::new("reduce_naive", n), &state, |b, state| {
            b.iter(|| black_box(NaiveEngine.reduce(&d, state).unwrap().rel(0).len()))
        });
        group.bench_with_input(
            BenchmarkId::new("reduce_incremental", n),
            &state,
            |b, state| b.iter(|| black_box(full_reduce(&d, state).unwrap().rel(0).len())),
        );
        group.bench_with_input(BenchmarkId::new("reduce_cached", n), &state, |b, state| {
            b.iter(|| black_box(cached.reduce(&d, state).unwrap().rel(0).len()))
        });
    }
    // Wide-key ids: arity-6 chains overlapping in 3 attributes, so every
    // semijoin key is width 3 — packed into one u128 per row by the
    // kernels, where chains above only drive width-1 keys.
    for n in [8usize, 32] {
        let d = wide_chain(n, 6, 3);
        let mut rng = bench_rng();
        let state = family_state(&mut rng, &d, 256, 64, 32);
        assert_eq!(
            cached.reduce(&d, &state).expect("wide chain is a tree"),
            full_reduce(&d, &state).unwrap(),
            "sanity"
        );
        group.bench_with_input(
            BenchmarkId::new("reduce_incremental_wide", n),
            &state,
            |b, state| b.iter(|| black_box(full_reduce(&d, state).unwrap().rel(0).len())),
        );
        group.bench_with_input(
            BenchmarkId::new("reduce_cached_wide", n),
            &state,
            |b, state| b.iter(|| black_box(cached.reduce(&d, state).unwrap().rel(0).len())),
        );
    }
    group.finish();
}

/// Treeification on the cyclic families (rings and grids): the per-call
/// path (`solve_via_treeification` / `reduce_via_treeification` — the plan
/// compiled and every semijoin re-materialized per call) against
/// [`TreeifyEngine`], whose cached
/// [`TreeifyPlan`] pays the schema-dependent work once and runs the
/// selection-vector executor per call. Both paths share the one
/// data-dependent cost — materializing `state(W)` — so the ratio isolates
/// what the plan cache buys. The acceptance target of this family: the
/// cached plan beats per-call treeification by ≥2× on the ring at n = 128.
fn bench_treeify_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("classify/engines");
    let engine = TreeifyEngine::new();
    for n in [8usize, 32, 128] {
        let d = aring_n(n);
        let mut rng = bench_rng();
        // Mostly-UR data (64 shared rows + 16 dangling per relation) keeps
        // the ring's W-join nonempty — the core join does real work — while
        // the dangling rows give both full reducers real filtering to do.
        let state = family_state(&mut rng, &d, 64, 1 << 14, 16);
        // Target on the residue: W spans the whole ring, so the answer
        // projects the reduced W directly.
        let x = AttrSet::from_raw(&[0, (n / 2) as u32]);
        assert_eq!(
            engine.answer(&d, &state, &x).expect("treeify is total"),
            solve_via_treeification(&d, &state, &x),
            "sanity"
        );
        group.bench_with_input(
            BenchmarkId::new("treeify_answer_cached", n),
            &state,
            |b, state| b.iter(|| black_box(engine.answer(&d, state, &x).unwrap().len())),
        );
        group.bench_with_input(
            BenchmarkId::new("treeify_answer_percall", n),
            &state,
            |b, state| b.iter(|| black_box(solve_via_treeification(&d, state, &x).len())),
        );
        group.bench_with_input(
            BenchmarkId::new("treeify_reduce_cached", n),
            &state,
            |b, state| b.iter(|| black_box(engine.reduce(&d, state).unwrap().rel(0).len())),
        );
        group.bench_with_input(
            BenchmarkId::new("treeify_reduce_percall", n),
            &state,
            |b, state| b.iter(|| black_box(reduce_via_treeification(&d, state).rel(0).len())),
        );
    }
    // Grids: every unit square is a 4-ring, so the whole grid survives GYO
    // and W spans all vertices — the hardest residue shape per relation.
    for side in [3usize, 6] {
        let d = grid(side, side);
        let mut rng = bench_rng();
        let state = family_state(&mut rng, &d, 64, 1 << 12, 16);
        let x = AttrSet::from_raw(&[0, (side * side - 1) as u32]);
        assert_eq!(
            engine.answer(&d, &state, &x).expect("treeify is total"),
            solve_via_treeification(&d, &state, &x),
            "sanity"
        );
        group.bench_with_input(
            BenchmarkId::new("treeify_grid_cached", side),
            &state,
            |b, state| b.iter(|| black_box(engine.answer(&d, state, &x).unwrap().len())),
        );
        group.bench_with_input(
            BenchmarkId::new("treeify_grid_percall", side),
            &state,
            |b, state| b.iter(|| black_box(solve_via_treeification(&d, state, &x).len())),
        );
    }
    group.finish();
}

/// Materialization-dominated paths: projecting a universal relation into a
/// UR state (`from_universal`), and answering `(D, X)` with the cached
/// engine (reduce + join up the tree, materializing the answer). Unlike the
/// `reduce_*` series — whose masked executor never touches tuple storage —
/// these are bounded by per-row touch cost of the `Relation` layout, so
/// they are the acceptance family for storage-layout changes.
fn bench_materialize(c: &mut Criterion) {
    let mut group = c.benchmark_group("classify/materialize");
    let cached = TreeifyEngine::new();
    for n in [8usize, 32, 128] {
        let d = chain(n);
        let mut rng = bench_rng();
        let i = random_universal(&mut rng, &d.attributes(), 512, 1 << 14);
        let state = family_state(&mut rng, &d, 256, 1 << 14, 32);
        let u: Vec<_> = d.attributes().iter().collect();
        let x = AttrSet::from_iter([u[0], u[u.len() - 1]]);
        assert_eq!(
            cached
                .answer(&d, &state, &x)
                .expect("chain is a tree schema"),
            NaiveEngine.answer(&d, &state, &x).unwrap(),
            "sanity"
        );
        group.bench_with_input(BenchmarkId::new("from_universal", n), &i, |b, i| {
            b.iter(|| black_box(DbState::from_universal(i, &d).rel(0).len()))
        });
        group.bench_with_input(BenchmarkId::new("answer_cached", n), &state, |b, state| {
            b.iter(|| black_box(cached.answer(&d, state, &x).unwrap().len()))
        });
    }
    group.finish();
}

fn bench_grids(c: &mut Criterion) {
    let mut group = c.benchmark_group("classify/grid");
    for side in [3usize, 6, 12] {
        let d = grid(side, side);
        group.bench_with_input(BenchmarkId::from_parameter(side), &d, |b, d| {
            b.iter(|| black_box(is_tree_schema(d)))
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
    targets = bench_families, bench_engines, bench_reduction_engines, bench_treeify_engines, bench_materialize, bench_grids
}
criterion_main!(benches);
