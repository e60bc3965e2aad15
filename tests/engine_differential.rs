//! Differential engine suite: the naive engine, the per-call Yannakakis
//! functions (`full_reduce`, `solve_tree_query`), and the
//! treeification-backed engine must produce identical reduced states and
//! identical query answers on every workload family — chains, stars, rings,
//! grids, random trees, and the TPC-H-like snowflake in both its acyclic
//! and cyclic forms.
//!
//! Tree families: every path reduces and answers, and must agree with the
//! definitional results (`π_{Rᵢ}(⋈ state)` and `π_X(⋈ state)`).
//! Cyclic families (rings, non-degenerate grids, `tpch_cyclic`): the
//! tree-only paths (`full_reduce`, `solve_tree_query`, and
//! `TreeifyEngine::plan`) must *decline* with one [`EngineError::Cyclic`]
//! whose residue names the stuck cycle, while the naive AND treeify
//! engines — the two total ones — still answer, identically. The treeify
//! engine's per-call reference (`reduce_via_treeification`) is
//! cross-checked on the same states, so the cached plan and the per-call
//! path are held together too.
//!
//! Every case asks five answer targets: `∅`, one attribute, a two-attribute
//! span (first and last attribute), all of `U(D)`, and a seeded random
//! subset. The treeify engine joins up through the flat executor
//! (`gyo_relation::join_up_with`) while `solve_tree_query` keeps the
//! operator-at-a-time join-up, so every target compares two independent
//! join-up routes against the definitional answer.
//!
//! The treeify engine is shared across all cases (and test threads)
//! through a static instance, so its one plan cache (tree plans and
//! treeified plans alike) is exercised under heavy reuse — a disagreement
//! caused by a stale or miskeyed plan would surface here. Case counts
//! honor `PROPTEST_CASES` (CI caps at 32; nightly runs full).

use std::sync::OnceLock;

use gyo::{
    full_reduce, is_tree_schema, reduce_via_treeification, solve_tree_query, AttrSet, DbSchema,
    DbState, Engine, NaiveEngine, Relation, TreeifyEngine,
};
use gyo_workloads::{
    aring_n, chain, engine_families, family_state, grid, random_tree_schema, star,
    tpch_like_cyclic, wide_chain,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One treeify engine for the whole suite: reusing it across cases is the
/// point (plan-cache hits must not change any answer), and its plan cache
/// sees every schema this suite generates.
fn treeify_engine() -> &'static TreeifyEngine {
    static ENGINE: OnceLock<TreeifyEngine> = OnceLock::new();
    ENGINE.get_or_init(TreeifyEngine::new)
}

/// A two-attribute target spanning `U(D)` (first and last attribute).
fn span_target(d: &DbSchema) -> AttrSet {
    let u = d.attributes();
    let ends: Vec<_> = u
        .iter()
        .take(1)
        .chain(u.iter().skip(u.len().saturating_sub(1)))
        .collect();
    AttrSet::from_iter(ends)
}

/// The answer targets every case is checked on: `∅`, one attribute (drawn
/// from `seed`), [`span_target`], all of `U(D)`, and a subset of `U(D)`
/// drawn from `seed` (each attribute with probability ½).
fn answer_targets(d: &DbSchema, seed: u64) -> Vec<AttrSet> {
    let u = d.attributes();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7A46_E75E);
    let mut targets = vec![AttrSet::empty()];
    if !u.is_empty() {
        let one = u.as_slice()[rng.random_range(0..u.len())];
        targets.push(AttrSet::from_iter([one]));
    }
    targets.push(span_target(d));
    targets.push(u.clone());
    targets.push(AttrSet::from_iter(
        u.iter().filter(|_| rng.random_bool(0.5)),
    ));
    targets
}

/// Safety valve for randomized schemas: the naive ground truth materializes
/// the cross product across disconnected components (random tree schemas
/// can grow several private-attribute singletons), so cases with many
/// components are skipped — the engines' behavior there is covered by the
/// deterministic disjoint-schema cases elsewhere.
fn naive_is_tractable(d: &DbSchema) -> bool {
    d.connected_components().len() <= 3
}

/// The core differential check: reduced states of every path on
/// `(d, state)`, and their answers for every target in `targets`.
fn check_engines(label: &str, d: &DbSchema, state: &DbState, targets: &[AttrSet]) {
    let treeify = treeify_engine();
    let tree = is_tree_schema(d);

    let n_red = NaiveEngine
        .reduce(d, state)
        .expect("naive reduces every schema");
    let i_red = full_reduce(d, state);
    let t_red = treeify
        .reduce(d, state)
        .expect("treeify engine is total: every schema reduces");
    let plan = treeify.plan(d);
    assert_eq!(
        i_red.is_ok(),
        tree,
        "{label}: full_reduce supports iff tree"
    );
    assert_eq!(plan.is_ok(), tree, "{label}: a full-reducer plan iff tree");
    for k in 0..d.len() {
        assert_eq!(
            t_red.rel(k),
            n_red.rel(k),
            "{label}: treeify node {k} reaches global consistency"
        );
    }
    if tree {
        let i_red = i_red.unwrap();
        for k in 0..d.len() {
            assert_eq!(
                i_red.rel(k),
                n_red.rel(k),
                "{label}: full_reduce node {k} reaches global consistency"
            );
        }
    } else {
        // The declines must carry the cyclicity diagnostic: a nonempty
        // residue whose survivor list is parallel to it, drawn from D's
        // original indices — and the tree-only paths must agree on it.
        let i_err = i_red.unwrap_err();
        assert_eq!(
            plan.unwrap_err(),
            i_err,
            "{label}: the cached plan and full_reduce agree on the diagnostic"
        );
        let residue = i_err.residue().expect("a cyclic verdict");
        let survivors = i_err.survivors().expect("a cyclic verdict");
        assert!(
            residue.len() >= 3,
            "{label}: a cyclic residue has at least 3 relations"
        );
        assert_eq!(
            survivors.len(),
            residue.len(),
            "{label}: survivors parallel the residue"
        );
        assert!(
            survivors.iter().all(|&i| i < d.len()),
            "{label}: survivor indices point into D"
        );
        // The per-call treeified reduction agrees with the cached one.
        let p_red = reduce_via_treeification(d, state);
        assert_eq!(
            p_red, t_red,
            "{label}: per-call treeification matches the cached plan"
        );
    }

    // Ground truth computed definitionally here (join everything, project)
    // rather than through any engine's own code path, so the naive engine
    // is under test too instead of being compared against itself.
    let joined = state
        .rels()
        .iter()
        .fold(Relation::identity(), |acc, r| acc.natural_join(r));
    for x in targets {
        let label = format!("{label}, X = {:?}", x.as_slice());
        check_answers(&label, d, tree, state, &joined, x);
    }
}

/// The answers of every path for one target against `π_X(joined)`.
fn check_answers(
    label: &str,
    d: &DbSchema,
    tree: bool,
    state: &DbState,
    joined: &Relation,
    x: &AttrSet,
) {
    let expected = if joined.is_empty() {
        Relation::empty(x.clone())
    } else {
        joined.project(x)
    };
    assert_eq!(
        NaiveEngine
            .answer(d, state, x)
            .expect("naive answers everything"),
        expected,
        "{label}: naive answer"
    );
    let i_ans = solve_tree_query(d, state, x);
    assert_eq!(
        i_ans.is_ok(),
        tree,
        "{label}: solve_tree_query answers iff tree"
    );
    if tree {
        assert_eq!(i_ans.unwrap(), expected, "{label}: solve_tree_query answer");
    }
    assert_eq!(
        treeify_engine()
            .answer(d, state, x)
            .expect("treeify answers everything"),
        expected,
        "{label}: treeify answer"
    );
}

fn run_family(label: &str, d: &DbSchema, seed: u64, rows: usize, domain: u64, noise: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let state = family_state(&mut rng, d, rows, domain, noise);
    check_engines(label, d, &state, &answer_targets(d, seed));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The naive engine is the ground truth, and it materializes `⋈D` —
    // whose size grows like (rows/domain)^|D| along join paths. Long
    // schemas therefore get domains comfortably above the row count
    // (expected fanout ≤ 1); dense joins (domain ≪ rows) are exercised on
    // short schemas where the blow-up is bounded.

    #[test]
    fn chains_agree(n in 1usize..14, rows in 4usize..13, domain in 16u64..48, seed in any::<u64>()) {
        run_family("chain", &chain(n), seed, rows, domain, 6);
    }

    #[test]
    fn short_dense_chains_agree(n in 1usize..5, rows in 5usize..25, domain in 2u64..5, seed in any::<u64>()) {
        run_family("chain_dense", &chain(n), seed, rows, domain, 6);
    }

    #[test]
    fn stars_agree(n in 1usize..11, rows in 4usize..13, domain in 24u64..48, seed in any::<u64>()) {
        run_family("star", &star(n), seed, rows, domain, 4);
    }

    #[test]
    fn small_dense_stars_agree(n in 1usize..5, rows in 5usize..25, domain in 2u64..5, seed in any::<u64>()) {
        run_family("star_dense", &star(n), seed, rows, domain, 6);
    }

    #[test]
    fn rings_decline_semijoin_engines(n in 3usize..10, rows in 4usize..13, domain in 16u64..32, seed in any::<u64>()) {
        run_family("ring", &aring_n(n), seed, rows, domain, 4);
    }

    #[test]
    fn short_dense_rings_agree(n in 3usize..6, rows in 5usize..25, domain in 2u64..5, seed in any::<u64>()) {
        // Dense cyclic data: the W-join is large relative to the state, so
        // the treeify engine's core join does real work.
        run_family("ring_dense", &aring_n(n), seed, rows, domain, 6);
    }

    #[test]
    fn dense_grids_agree(rows in 5usize..20, domain in 2u64..4, seed in any::<u64>()) {
        // The 2×2 grid is the smallest cyclic grid; dense domains make its
        // unit-square join nontrivial.
        run_family("grid_dense", &grid(2, 2), seed, rows, domain, 5);
    }

    #[test]
    fn tpch_cyclic_agrees(rows in 4usize..13, domain in 4u64..32, seed in any::<u64>()) {
        // The snowflake's cyclic closure: W is a strict subset of U(D), so
        // answer targets routinely fall outside W and exercise the
        // join-up-the-extended-tree path.
        run_family("tpch_cyclic", &tpch_like_cyclic(), seed, rows, domain, 4);
    }

    #[test]
    fn grids_agree_or_decline(r in 1usize..4, c in 2usize..4, rows in 5usize..13, domain in 16u64..40, seed in any::<u64>()) {
        // 1×c grids are paths (tree); r,c ≥ 2 grids are cyclic — both sides
        // of the dichotomy get exercised.
        run_family("grid", &grid(r, c), seed, rows, domain, 4);
    }

    #[test]
    fn random_trees_agree(n in 1usize..11, rows in 5usize..13, domain in 16u64..32, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = random_tree_schema(&mut rng, n, 2 * n, 0.4);
        if naive_is_tractable(&d) {
            run_family("random_tree", &d, seed ^ 0x9E37, rows, domain, 4);
        }
    }

    #[test]
    fn engine_family_sweep(scale in 3usize..13, rows in 5usize..13, domain in 24u64..48, seed in any::<u64>()) {
        // End-to-end over the canonical family list the benches use.
        let mut rng = StdRng::seed_from_u64(seed);
        for fam in engine_families(&mut rng, scale) {
            if naive_is_tractable(&fam.schema) {
                run_family(fam.name, &fam.schema, seed ^ fam.schema.len() as u64, rows, domain, 4);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Storage equivalence: the flat row-major layout is invisible to
    /// semantics. Every relation of a reduced state round-trips unchanged
    /// through the `Vec<Vec<u64>>` shim (`to_vecs` → `Relation::new`), the
    /// masked executor's output (treeify engine, `filter_by_mask` path)
    /// matches the per-call semijoin path bit for bit, and answers over
    /// shim-reconstructed states equal answers over the originals.
    #[test]
    fn flat_storage_is_semantically_invisible(n in 1usize..10, rows in 4usize..13, domain in 8u64..32, seed in any::<u64>()) {
        let d = chain(n);
        let mut rng = StdRng::seed_from_u64(seed);
        let state = family_state(&mut rng, &d, rows, domain, 6);
        let x = span_target(&d);

        let reduced = treeify_engine().reduce(&d, &state).expect("treeify is total");
        prop_assert_eq!(
            &reduced,
            &full_reduce(&d, &state).unwrap(),
            "masked executor vs per-call semijoins"
        );
        for k in 0..d.len() {
            let r = reduced.rel(k);
            // normalized invariant: rows() is strictly increasing, stride-aligned
            prop_assert_eq!(r.data().len(), r.len() * r.arity());
            let round_tripped = Relation::new(r.attrs().clone(), r.to_vecs());
            prop_assert_eq!(&round_tripped, r, "node {} round-trips through the shim", k);
        }

        // Rebuild the whole state through the shim: answers must not move.
        let rebuilt = DbState::new(
            &d,
            state.rels().iter().map(|r| Relation::new(r.attrs().clone(), r.to_vecs())).collect(),
        );
        prop_assert_eq!(&rebuilt, &state);
        prop_assert_eq!(
            treeify_engine().answer(&d, &rebuilt, &x).unwrap(),
            NaiveEngine.answer(&d, &state, &x).unwrap()
        );
    }
}

#[test]
fn answers_are_stable_across_repeated_cached_calls() {
    // Plan-cache hits must be observationally identical to misses.
    let d = chain(6);
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    let state = family_state(&mut rng, &d, 30, 5, 8);
    let x = span_target(&d);
    let cached = treeify_engine();
    let first = cached.answer(&d, &state, &x).unwrap();
    for _ in 0..3 {
        assert_eq!(cached.answer(&d, &state, &x).unwrap(), first);
        assert_eq!(
            cached.reduce(&d, &state).unwrap(),
            NaiveEngine.reduce(&d, &state).unwrap()
        );
    }
}

#[test]
fn disconnected_tree_schema_joins_up_across_an_empty_key() {
    // Two components, `ab–bc` and `de–ef`: the join tree links them by an
    // edge with an empty key, so the join-up crosses it as a cross product.
    let d = DbSchema::new(vec![
        AttrSet::from_raw(&[0, 1]),
        AttrSet::from_raw(&[1, 2]),
        AttrSet::from_raw(&[3, 4]),
        AttrSet::from_raw(&[4, 5]),
    ]);
    assert!(is_tree_schema(&d));
    assert_eq!(d.connected_components().len(), 2);
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(0xD15C ^ seed);
        let state = family_state(&mut rng, &d, 8, 4, 3);
        let mut targets = answer_targets(&d, seed);
        // One attribute from each component: only the cross product
        // connects them.
        targets.push(AttrSet::from_raw(&[0, 5]));
        check_engines("disconnected", &d, &state, &targets);
    }
}

#[test]
fn wide_key_chain_joins_up_on_width_3_keys() {
    // Arity-6 links overlapping in 3 attributes: every join-up key has
    // width 3, the hash-then-compare build and dedup paths.
    let d = wide_chain(5, 6, 3);
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(0x3E1D ^ seed);
        // A small domain so the width-3 keys collide and fan out.
        let state = family_state(&mut rng, &d, 12, 2 + seed % 3, 4);
        check_engines("wide_chain", &d, &state, &answer_targets(&d, seed));
    }
}
