//! T10/B4 — semijoin programs vs. monolithic joins on tree schemas.
//!
//! Expected shape (the §4 "tree case"): the full-reducer-then-join strategy
//! wins when joins are selective (semijoins shrink states before any join
//! blows up); the monolithic join catches up when everything matches
//! (nothing to filter). The crossover moves with the value-domain size.
//! The `cached_engine` series runs the same Yannakakis pipeline through
//! [`TreeifyEngine`], whose cached plan amortizes the per-call GYO
//! reduction and position derivations that `yannakakis` pays each time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gyo::prelude::*;
use gyo::relation::{semijoin_program_with, ExecScratch, SemijoinStep};
use gyo_bench::bench_rng;
use gyo_workloads::{chain, family_state, random_universal, tpch_like, wide_chain};
use std::hint::black_box;
use std::time::Duration;

fn target(d: &DbSchema) -> AttrSet {
    let u: Vec<AttrId> = d.attributes().iter().collect();
    AttrSet::from_iter([u[0], u[u.len() - 1]])
}

fn bench_selectivity_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("programs/selectivity");
    let d = chain(8);
    let x = target(&d);
    let engine = TreeifyEngine::new();
    // Small domains = dense joins (low selectivity); large domains =
    // selective joins.
    for domain in [600u64, 1200, 2400, 9600] {
        let mut rng = bench_rng();
        let i = random_universal(&mut rng, &d.attributes(), 600, domain);
        let state = DbState::from_universal(&i, &d);
        assert_eq!(
            solve_tree_query(&d, &state, &x).unwrap(),
            state.eval_join_query(&x),
            "sanity"
        );
        assert_eq!(
            engine.answer(&d, &state, &x).unwrap(),
            state.eval_join_query(&x),
            "engine sanity"
        );
        group.bench_with_input(BenchmarkId::new("join_only", domain), &state, |b, state| {
            b.iter(|| black_box(state.eval_join_query(&x).len()))
        });
        group.bench_with_input(
            BenchmarkId::new("yannakakis", domain),
            &state,
            |b, state| b.iter(|| black_box(solve_tree_query(&d, state, &x).unwrap().len())),
        );
        group.bench_with_input(
            BenchmarkId::new("cached_engine", domain),
            &state,
            |b, state| b.iter(|| black_box(engine.answer(&d, state, &x).unwrap().len())),
        );
    }
    group.finish();
}

fn bench_size_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("programs/size");
    let engine = TreeifyEngine::new();
    for n in [4usize, 8, 16] {
        let d = chain(n);
        let x = target(&d);
        let mut rng = bench_rng();
        let i = random_universal(&mut rng, &d.attributes(), 300, 3000);
        let state = DbState::from_universal(&i, &d);
        group.bench_with_input(BenchmarkId::new("join_only", n), &state, |b, state| {
            b.iter(|| black_box(state.eval_join_query(&x).len()))
        });
        group.bench_with_input(BenchmarkId::new("yannakakis", n), &state, |b, state| {
            b.iter(|| black_box(solve_tree_query(&d, state, &x).unwrap().len()))
        });
        group.bench_with_input(BenchmarkId::new("cached_engine", n), &state, |b, state| {
            b.iter(|| black_box(engine.answer(&d, state, &x).unwrap().len()))
        });
    }
    group.finish();
}

/// The dangling-tuple catastrophe, parameterized by the per-attribute value
/// count `m`: four dense m x m relations closed by a selective dead end.
/// Monolithic join cost grows like m^5; the full reducer stays ~m^2.
fn bench_dead_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("programs/dead_end");
    let engine = TreeifyEngine::new();
    for m in [4u64, 8, 12] {
        let d = chain(5);
        let x = target(&d);
        let dense: Vec<Vec<u64>> = (0..m)
            .flat_map(|a| (0..m).map(move |b| vec![a, b]))
            .collect();
        let mut rels: Vec<gyo::Relation> = (0..4)
            .map(|k| gyo::Relation::new(d.rel(k).clone(), dense.clone()))
            .collect();
        rels.push(gyo::Relation::new(
            d.rel(4).clone(),
            (0..m).map(|y| vec![0, y]).collect(),
        ));
        let state = DbState::new(&d, rels);
        group.bench_with_input(BenchmarkId::new("join_only", m), &state, |b, state| {
            b.iter(|| black_box(state.eval_join_query(&x).len()))
        });
        group.bench_with_input(BenchmarkId::new("yannakakis", m), &state, |b, state| {
            b.iter(|| black_box(solve_tree_query(&d, state, &x).unwrap().len()))
        });
        group.bench_with_input(BenchmarkId::new("cached_engine", m), &state, |b, state| {
            b.iter(|| black_box(engine.answer(&d, state, &x).unwrap().len()))
        });
    }
    group.finish();
}

/// Raw join/projection materialization on flat operands — no reducer in
/// the loop, just the `Relation` operators that write output tuples. The
/// domain equals the row count, so `R(a,b) ⋈ S(b,c)` keeps fanout ≈ 1 and
/// the cost is dominated by per-row materialization, not output blow-up.
fn bench_flat_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("programs/flat_join");
    for rows in [512usize, 2048] {
        let mut rng = bench_rng();
        let domain = rows as u64;
        let ab = random_universal(&mut rng, &AttrSet::from_raw(&[0, 1]), rows, domain);
        let bc = random_universal(&mut rng, &AttrSet::from_raw(&[1, 2]), rows, domain);
        let abcd = random_universal(&mut rng, &AttrSet::from_raw(&[0, 1, 2, 3]), rows, domain);
        let cdef = random_universal(&mut rng, &AttrSet::from_raw(&[2, 3, 4, 5]), rows, domain);
        let wide = random_universal(
            &mut rng,
            &AttrSet::from_raw(&[0, 1, 2, 3, 4, 5]),
            rows,
            domain,
        );
        let half = AttrSet::from_raw(&[0, 2, 4]);
        group.bench_with_input(BenchmarkId::new("join_narrow", rows), &(), |b, ()| {
            b.iter(|| black_box(ab.natural_join(&bc).len()))
        });
        group.bench_with_input(BenchmarkId::new("join_wide", rows), &(), |b, ()| {
            b.iter(|| black_box(abcd.natural_join(&cdef).len()))
        });
        group.bench_with_input(BenchmarkId::new("project_half", rows), &(), |b, ()| {
            b.iter(|| black_box(wide.project(&half).len()))
        });
    }
    group.finish();
}

/// A chain's full reducer: the upward pass, then the downward pass.
fn chain_reducer(d: &DbSchema) -> Vec<SemijoinStep> {
    let (n, schemas) = (d.len(), d.rels());
    let upward = (1..n).rev().map(|v| SemijoinStep::new(schemas, v - 1, v));
    let downward = (1..n).map(|v| SemijoinStep::new(schemas, v, v - 1));
    upward.chain(downward).collect()
}

/// The columnar kernel family: selection-vector program execution with a
/// reusable scratch (`program_chain`), the same over fresh relations of
/// three sizes (`fresh_program`) and over a warm state of small relations
/// (`program_chain_small`), a large hub reduced against small leaves, warm
/// and fresh (`hub_leaves`, `fresh_hub_leaves`), full reduction over the
/// wide-arity workloads whose semijoin keys stress the wide-key membership
/// path (`reduce_wide`, `reduce_tpch`), the gather-projection kernel on
/// scattered columns (`gather_scatter`), and one-shot wide-key semijoins
/// (`semijoin_wide`).
fn bench_columnar(c: &mut Criterion) {
    let mut group = c.benchmark_group("programs/columnar");

    // Raw selection-vector execution of a precompiled chain full reducer:
    // no plan lookup, no state cloning — just the kernels.
    for n in [16usize, 64] {
        let d = chain(n);
        let mut rng = bench_rng();
        let state = family_state(&mut rng, &d, 256, 1 << 14, 32);
        let steps = chain_reducer(&d);
        let mut scratch = ExecScratch::new();
        group.bench_with_input(BenchmarkId::new("program_chain", n), &state, |b, state| {
            b.iter(|| {
                let mut rels = state.rels().to_vec();
                semijoin_program_with(&mut rels, &steps, &mut scratch);
                black_box(rels[0].len())
            })
        });
    }

    // The ad hoc case: every iteration loads a chain of 12 fresh relations
    // (about `rows` UR rows plus one noisy row in eight each) from
    // pre-made row-major buffers and runs one full reducer over them, so
    // no key column is cached yet. At 8 rows the relations are the size of
    // `perfbench`'s `adhoc_fresh` ones.
    let d = chain(12);
    let steps = chain_reducer(&d);
    for rows in [8usize, 64, 512] {
        let mut rng = bench_rng();
        let state = family_state(&mut rng, &d, rows, 4 * rows as u64, rows.div_ceil(8));
        let buffers: Vec<(AttrSet, usize, Vec<u64>)> = state
            .rels()
            .iter()
            .map(|r| (r.attrs().clone(), r.len(), r.data().to_vec()))
            .collect();
        let mut scratch = ExecScratch::new();
        group.bench_with_input(BenchmarkId::new("fresh_program", rows), &(), |b, ()| {
            b.iter(|| {
                let mut rels: Vec<gyo::Relation> = buffers
                    .iter()
                    .map(|(attrs, len, data)| {
                        gyo::Relation::from_row_major(attrs.clone(), *len, data.clone())
                    })
                    .collect();
                semijoin_program_with(&mut rels, &steps, &mut scratch);
                black_box(rels[0].len())
            })
        });
    }

    // The same reducer re-run over one warm state of 8-row relations: the
    // known cost of chaining small relations' rows on every step where a
    // cached column would be read.
    {
        let mut rng = bench_rng();
        let state = family_state(&mut rng, &d, 8, 32, 1);
        let mut scratch = ExecScratch::new();
        group.bench_with_input(
            BenchmarkId::new("program_chain_small", 8usize),
            &state,
            |b, state| {
                b.iter(|| {
                    let mut rels = state.rels().to_vec();
                    semijoin_program_with(&mut rels, &steps, &mut scratch);
                    black_box(rels[0].len())
                })
            },
        );
    }

    // A fact table next to small dimension tables: a 512-row hub over
    // `a0..a3` and four 8-row leaves, three keyed on one hub attribute and
    // one on the pair `a0 a1`. The reducer filters the hub by every leaf,
    // then every leaf by the hub, so each step pairs a large side with a
    // small one. `hub_leaves` re-runs it over one warm state;
    // `fresh_hub_leaves` loads the five relations fresh on every iteration.
    {
        let mut rng = bench_rng();
        let hub = AttrSet::from_raw(&[0, 1, 2, 3]);
        let mut schemas = vec![hub.clone()];
        schemas.extend((1..4).map(|i| AttrSet::from_raw(&[i, 4 + i])));
        schemas.push(AttrSet::from_raw(&[0, 1, 8]));
        let rels: Vec<gyo::Relation> = schemas
            .iter()
            .map(|s| random_universal(&mut rng, s, if *s == hub { 512 } else { 8 }, 16))
            .collect();
        let leaves = 1..schemas.len();
        let steps: Vec<SemijoinStep> = leaves
            .clone()
            .map(|v| SemijoinStep::new(&schemas, 0, v))
            .chain(leaves.map(|v| SemijoinStep::new(&schemas, v, 0)))
            .collect();
        let buffers: Vec<(AttrSet, usize, Vec<u64>)> = rels
            .iter()
            .map(|r| (r.attrs().clone(), r.len(), r.data().to_vec()))
            .collect();
        let mut scratch = ExecScratch::new();
        group.bench_with_input(
            BenchmarkId::new("hub_leaves", 512usize),
            &rels,
            |b, rels| {
                b.iter(|| {
                    let mut rels = rels.clone();
                    semijoin_program_with(&mut rels, &steps, &mut scratch);
                    black_box(rels[0].len())
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("fresh_hub_leaves", 512usize),
            &(),
            |b, ()| {
                b.iter(|| {
                    let mut rels: Vec<gyo::Relation> = buffers
                        .iter()
                        .map(|(attrs, len, data)| {
                            gyo::Relation::from_row_major(attrs.clone(), *len, data.clone())
                        })
                        .collect();
                    semijoin_program_with(&mut rels, &steps, &mut scratch);
                    black_box(rels[0].len())
                })
            },
        );
    }

    // Wide-arity full reduction: arity-6 chains with width-3 semijoin keys
    // (packed into one u128 per row, 42 bits per value), and the TPC-H-like
    // snowflake.
    let cached = TreeifyEngine::new();
    for n in [8usize, 32] {
        let d = wide_chain(n, 6, 3);
        let mut rng = bench_rng();
        let state = family_state(&mut rng, &d, 256, 64, 32);
        assert!(cached.reduce(&d, &state).is_ok(), "wide chain is a tree");
        group.bench_with_input(BenchmarkId::new("reduce_wide", n), &state, |b, state| {
            b.iter(|| black_box(cached.reduce(&d, state).unwrap().rel(0).len()))
        });
    }
    {
        let d = tpch_like();
        let mut rng = bench_rng();
        let state = family_state(&mut rng, &d, 1024, 256, 128);
        assert!(cached.reduce(&d, &state).is_ok(), "tpch-like is a tree");
        group.bench_with_input(
            BenchmarkId::new("reduce_tpch", 1024usize),
            &state,
            |b, state| b.iter(|| black_box(cached.reduce(&d, state).unwrap().rel(0).len())),
        );
    }

    // Gather projection over scattered columns, and wide-key semijoins.
    for rows in [512usize, 2048] {
        let mut rng = bench_rng();
        let domain = rows as u64;
        let wide8 = random_universal(
            &mut rng,
            &AttrSet::from_raw(&[0, 1, 2, 3, 4, 5, 6, 7]),
            rows,
            domain,
        );
        let scattered = AttrSet::from_raw(&[0, 2, 5, 7]);
        group.bench_with_input(
            BenchmarkId::new("gather_scatter", rows),
            &wide8,
            |b, wide8| b.iter(|| black_box(wide8.project(&scattered).len())),
        );
        // Width-3 key: attrs {1,2,3} shared between two arity-5 relations.
        let r = random_universal(&mut rng, &AttrSet::from_raw(&[0, 1, 2, 3, 4]), rows, 8);
        let s = random_universal(&mut rng, &AttrSet::from_raw(&[1, 2, 3, 8, 9]), rows, 8);
        group.bench_with_input(BenchmarkId::new("semijoin_wide", rows), &(), |b, ()| {
            b.iter(|| black_box(r.semijoin(&s).len()))
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
    targets = bench_selectivity_sweep, bench_size_sweep, bench_dead_end, bench_flat_join, bench_columnar
}
criterion_main!(benches);
