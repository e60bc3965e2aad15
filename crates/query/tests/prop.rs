//! Property tests for the query layer: programs, reducers, pruning, the
//! containment preorder, and answers over the kept subtree.

use gyo_query::{
    full_reduce, full_reducer_program, prune_irrelevant, weakly_contained_semantic, Engine,
    JoinQuery, NaiveEngine, Program, TreeifyEngine,
};
use gyo_relation::{join_up_with, DbState, ExecScratch, Relation};
use gyo_schema::{AttrSet, DbSchema, RootedTree};
use gyo_workloads::{
    noisy_ur_state, random_cyclic_schema, random_schema, random_tree_schema, random_universal,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn target_of(d: &DbSchema, k: usize) -> AttrSet {
    AttrSet::from_iter(d.attributes().iter().take(k.max(1)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Join-everything-then-project programs always solve their query; the
    /// counterexample search must come up empty.
    #[test]
    fn join_all_programs_solve(seed in any::<u64>(), n in 1usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = random_schema(&mut rng, n, 6, 3);
        let x = target_of(&d, 2);
        let q = JoinQuery::new(d.clone(), x.clone());
        let mut p = Program::new(d.clone());
        let mut acc = p.join(0, 0); // R₀ ⋈ R₀ = R₀ seeds the accumulator
        for i in 1..d.len() {
            acc = p.join(acc, i);
        }
        p.project(acc, x.clone());
        prop_assert!(p.find_counterexample(&q, &mut rng, 10, 15, 4).is_none());
    }

    /// The full-reducer *program* (§6 statements) reproduces the directly
    /// computed reduced states, node for node.
    #[test]
    fn reducer_program_matches_direct_reduction(seed in any::<u64>(), n in 2usize..7) {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = random_tree_schema(&mut rng, n, 2 * n, 0.4);
        let i = random_universal(&mut rng, &d.attributes(), 20, 4);
        let state = DbState::from_universal(&i, &d);
        let p = full_reducer_program(&d).expect("tree schema");
        prop_assert_eq!(p.len(), 2 * (n - 1), "2(n−1) semijoins");
        let rels = p.execute(&state);
        let reduced = full_reduce(&d, &state).expect("tree schema");
        // The final version of every node appears among the program's
        // relations; semijoins only shrink, so the *smallest* relation with
        // a node's schema that contains the reduced state IS the reduced
        // state.
        for k in 0..n {
            let target = reduced.rel(k);
            let found = rels.iter().enumerate().any(|(r, rel)| {
                p.schema_of(r) == d.rel(k) && rel == target
            });
            prop_assert!(found, "node {} reduced state not produced", k);
        }
    }

    /// Semijoin statements only ever shrink states (safety of reducers).
    #[test]
    fn semijoin_programs_shrink(seed in any::<u64>(), n in 2usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = random_tree_schema(&mut rng, n, 2 * n, 0.4);
        let i = random_universal(&mut rng, &d.attributes(), 15, 3);
        let state = DbState::from_universal(&i, &d);
        let p = full_reducer_program(&d).expect("tree schema");
        let rels = p.execute(&state);
        for (r, rel) in rels.iter().enumerate().skip(d.len()) {
            // every created relation has a base ancestor with the same
            // schema whose state contains it
            let base = (0..d.len()).find(|&k| d.rel(k) == p.schema_of(r));
            if let Some(k) = base {
                prop_assert!(rel.is_subset(state.rel(k)));
            }
        }
    }

    /// CC pruning never changes answers, on random tree schemas with
    /// arbitrary 1–3 attribute targets.
    #[test]
    fn pruning_preserves_answers(seed in any::<u64>(), n in 1usize..7, k in 1usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = random_tree_schema(&mut rng, n, 2 * n, 0.5);
        let x = target_of(&d, k);
        let q = JoinQuery::new(d.clone(), x.clone());
        let pruned = prune_irrelevant(&d, &x);
        prop_assert!(pruned.schema.len() <= d.len());
        let i = random_universal(&mut rng, &d.attributes(), 20, 4);
        let state = DbState::from_universal(&i, &d);
        prop_assert_eq!(q.eval(&state), pruned.eval(&d, &state));
    }

    /// Weak containment is a preorder: reflexive, and transitive across a
    /// chain of sub-schemas (dropping relations grows the answer).
    #[test]
    fn containment_is_a_preorder_on_subschema_chains(seed in any::<u64>(), n in 3usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = random_schema(&mut rng, n, 6, 3);
        let x = target_of(&d, 1);
        // build a chain D ⊇ D₁ ⊇ D₂ by dropping relations not holding X
        let keep1: Vec<usize> = (0..n).filter(|&i| i != n - 1 || d.rel(i).intersects(&x)).collect();
        let d1 = d.project_rels(&keep1);
        if !x.is_subset(&d1.attributes()) { return Ok(()); }
        let q = JoinQuery::new(d.clone(), x.clone());
        let q1 = JoinQuery::new(d1, x.clone());
        prop_assert!(weakly_contained_semantic(&q, &q));
        // fewer join constraints ⟹ larger answers: Q ⊑ Q₁
        prop_assert!(weakly_contained_semantic(&q, &q1));
    }
}

/// A state over `d` with dangling rows: the projections of 8 random
/// universal rows plus 4 noise rows per relation, values in `0..5`.
fn dangling_state(rng: &mut StdRng, d: &DbSchema) -> DbState {
    let i = random_universal(rng, &d.attributes(), 8, 5);
    noisy_ur_state(rng, &i, d, 4, 5)
}

/// A random subset of `from`, each attribute kept with probability ½.
fn random_subset(rng: &mut StdRng, from: &AttrSet) -> AttrSet {
    AttrSet::from_iter(from.iter().filter(|_| rng.random_bool(0.5)))
}

/// `∅`, one attribute, `U(D)` and a random subset of `U(D)`.
fn targets(rng: &mut StdRng, d: &DbSchema) -> Vec<AttrSet> {
    let u = d.attributes();
    let one = u
        .iter()
        .nth(rng.random_range(0..u.len()))
        .expect("U(D) ≠ ∅");
    vec![
        AttrSet::empty(),
        AttrSet::from_iter([one]),
        random_subset(rng, &u),
        u,
    ]
}

/// The engine's answer on `x`, which joins up only the subtree that spans
/// `x`, against `NaiveEngine` and against the flat join-up of every node of
/// the plan's tree `rooted` over its fully reduced relations `full`.
fn check_pruned_answer(
    engine: &TreeifyEngine,
    d: &DbSchema,
    state: &DbState,
    x: &AttrSet,
    rooted: &RootedTree,
    full: &[Relation],
) {
    let got = engine.answer(d, state, x).expect("the engine is total");
    prop_assert_eq!(
        &got,
        &NaiveEngine.answer(d, state, x).unwrap(),
        "X = {:?}",
        x
    );
    let all = vec![true; full.len()];
    let unpruned = join_up_with(full, rooted, &all, x, &mut ExecScratch::new());
    prop_assert_eq!(&got, &unpruned, "X = {:?}", x);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Tree schemas: the pruned answer equals the naive answer and the
    /// join-up of the whole fully reduced tree, for `X` = `∅`, one
    /// attribute, a random subset and `U(D)`.
    #[test]
    fn pruned_answers_match_naive_and_the_full_tree_on_tree_schemas(
        seed in any::<u64>(),
        n in 1usize..7,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = random_tree_schema(&mut rng, n, 2 * n, 0.4);
        let state = dangling_state(&mut rng, &d);
        let engine = TreeifyEngine::new();
        let plan = engine.plan(&d).expect("a tree schema");
        let full = engine.reduce(&d, &state).unwrap();
        for x in targets(&mut rng, &d) {
            check_pruned_answer(&engine, &d, &state, &x, plan.rooted(), full.rels());
        }
    }

    /// Cyclic schemas: the same over the extended tree `D ∪ (W)`, whose
    /// fully reduced `W` is `π_W(⋈D)`, with targets inside and outside `W`
    /// on top of the tree-schema ones.
    #[test]
    fn pruned_answers_match_naive_and_the_full_tree_on_cyclic_schemas(
        seed in any::<u64>(),
        n in 3usize..7,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = random_cyclic_schema(&mut rng, n, 6, 3, 20);
        let state = dangling_state(&mut rng, &d);
        let engine = TreeifyEngine::new();
        let err = engine.plan(&d).expect_err("a cyclic schema");
        let plan = engine.treeified_plan(&d, &err);
        let w = plan.w().clone();
        let total = state.join_all();
        let w_state = if total.is_empty() {
            Relation::empty(w.clone())
        } else {
            total.project(&w)
        };
        let mut full = engine.reduce(&d, &state).unwrap().rels().to_vec();
        full.push(w_state);
        let mut xs = targets(&mut rng, &d);
        xs.push(random_subset(&mut rng, &w));
        let outside = d.attributes().difference(&w);
        if let Some(a) = outside.iter().next() {
            let mut x = random_subset(&mut rng, &d.attributes());
            x.insert(a);
            xs.push(x);
        }
        for x in xs {
            check_pruned_answer(&engine, &d, &state, &x, plan.tree_plan().rooted(), &full);
        }
    }
}
