//! The plan one GYO reduction of `D` compiles to — the unit of
//! [`TreeifyEngine`](crate::TreeifyEngine)'s plan cache and of the per-call
//! [`solve_via_treeification`](crate::solve_via_treeification).
//!
//! Adding the single relation `W = U(GR(D))`, the attributes of the stuck
//! GYO residue, turns any schema into a tree schema (Theorem 3.2(ii)), and
//! no smaller relation does (Corollary 3.2); for a tree schema `W = ∅`. So a
//! tree schema's plan is the [`FullReducerPlan`] along the join tree its
//! reduction spells (Theorem 3.1), and a cyclic schema's is a
//! [`TreeifyPlan`]: `W`, a join order over the GYO survivors, the residue
//! for [`EngineError::Cyclic`], and the [`FullReducerPlan`] of `D ∪ (W)`,
//! built from the same reduction's trace — `D ∪ (W)` is never reduced. The
//! one data-dependent step cyclicity adds is
//! `state(W) = π_W(⋈ of the survivors' states)`.
//!
//! Correctness: `⋈(D ∪ (W)) = ⋈D`, because every tuple of `⋈D` restricted
//! to the survivors satisfies each survivor's relation, so its `W`
//! projection is in `state(W)` — the added relation filters nothing.
//! Full reduction of the extended tree state therefore leaves each original
//! relation at `π_{Rᵢ}(⋈D)` (global consistency), which is exactly
//! [`NaiveEngine`](crate::NaiveEngine)'s definitional reduce; the repo's
//! differential suite (`tests/engine_differential.rs`) holds the two
//! engines to identical results on every workload family.
//!
//! # Examples
//!
//! ```
//! use gyo_schema::{AttrSet, Catalog, DbSchema};
//! use gyo_relation::{DbState, Relation};
//! use gyo_query::{Engine, TreeifyEngine};
//!
//! let mut cat = Catalog::alphabetic();
//! let ring = DbSchema::parse("ab, bc, cd, da", &mut cat).unwrap();
//! let i = Relation::new(
//!     ring.attributes(),
//!     vec![vec![1, 1, 1, 1], vec![1, 2, 1, 2], vec![3, 3, 3, 3]],
//! );
//! let state = DbState::from_universal(&i, &ring);
//!
//! let engine = TreeifyEngine::new();
//! // The ring is cyclic — the tree-only paths decline it — yet the
//! // engine answers, and agrees with the definitional evaluation.
//! let x = AttrSet::parse("ac", &mut cat).unwrap();
//! let answer = engine.answer(&ring, &state, &x).unwrap();
//! assert_eq!(answer, state.eval_join_query(&x));
//!
//! // One treeified plan was compiled and cached; repeats hit it.
//! let err = engine.plan(&ring).unwrap_err();
//! assert_eq!(engine.treeified_plan(&ring, &err).w().to_notation(&cat), "abcd");
//! engine.answer(&ring, &state, &x).unwrap();
//! assert_eq!(engine.cached_treeified_count(), 1);
//! assert_eq!(engine.cache_stats(), (3, 1), "one miss, then hits");
//! ```

use std::sync::Arc;

use gyo_reduce::Reduction;
use gyo_relation::{DbState, Relation};
use gyo_schema::{AttrSet, DbSchema, JoinTree, QualGraph};

use crate::engine::{EngineError, FullReducerPlan};
use crate::yannakakis::compile_tree;

/// A compiled plan as the cache keeps it: what one GYO reduction of `D`
/// yields.
#[derive(Clone, Debug)]
pub(crate) enum Plan {
    /// `D` is a tree schema: its full-reducer plan.
    Tree(Arc<FullReducerPlan>),
    /// `D` is cyclic: the plan over `D ∪ (W)`.
    Cyclic(Arc<TreeifyPlan>),
}

impl Plan {
    /// The plan for `d`, from one GYO reduction of `d` and none of
    /// `D ∪ (W)`.
    pub(crate) fn compile(d: &DbSchema) -> Self {
        match compile_tree(d) {
            Ok(rooted) => Plan::Tree(Arc::new(FullReducerPlan::on_tree(d, rooted))),
            Err(red) => Plan::Cyclic(Arc::new(TreeifyPlan::compile(d, red))),
        }
    }

    /// The full-reducer plan the pipeline runs: over `D` for a tree
    /// schema, over `D ∪ (W)` for a cyclic one.
    pub(crate) fn tree(&self) -> &FullReducerPlan {
        match self {
            Plan::Tree(plan) => plan,
            Plan::Cyclic(plan) => &plan.tree,
        }
    }
}

/// A compiled treeification plan for one **cyclic** schema: everything
/// about `D ∪ (U(GR(D)))` that does not depend on data, compiled from the
/// stuck GYO reduction of `D` alone.
#[derive(Clone, Debug)]
pub struct TreeifyPlan {
    /// The extended tree schema `D ∪ (W)`; `W = U(GR(D))`, the treeifying
    /// relation (Corollary 3.2), is the last relation.
    extended: DbSchema,
    /// GYO-survivor indices in a connectivity-greedy join order (each
    /// next survivor shares attributes with the already-joined prefix
    /// whenever the residue permits, so `state(W)` materializes without
    /// intermediate cross products on connected residues), each paired
    /// with its projection onto `Rᵢ ∩ W` — `None` when the relation lies
    /// entirely inside `W`. Projecting *before* joining is sound because
    /// an attribute shared by two survivors can never be GYO-deleted
    /// (deletion requires isolation), so every non-`W` attribute is
    /// private to one survivor and contributes nothing to `π_W` — it
    /// would only inflate the join's intermediates.
    join_order: Vec<(usize, Option<AttrSet>)>,
    /// The compiled full-reducer plan for `extended`.
    tree: FullReducerPlan,
    /// `GR(D)`, the stuck residue, and its members' indices into `D`, in
    /// GYO order: the [`EngineError::Cyclic`] diagnostic.
    residue: DbSchema,
    survivors: Vec<usize>,
}

impl TreeifyPlan {
    /// Compiles the plan from the stuck reduction of `d`, with no second
    /// GYO reduction: the residue gives `W` and the survivors, and the
    /// reduction's own trace gives the join tree of `D ∪ (W)`.
    ///
    /// That tree is the proof of Theorem 3.2(ii). Every step of `D`'s trace
    /// stays legal in `D ∪ (W)`: a deleted attribute was isolated when
    /// deleted, so it is in no survivor and not in `W`, and `W` changes no
    /// holder count. After those steps every survivor is a subset of `W`,
    /// so eliminating each into `W` makes the reduction total, and by
    /// Theorem 3.1 its subset eliminations — the trace's edges plus one
    /// `(survivor, W)` edge per survivor — form a join tree. The edges
    /// still pass [`JoinTree::try_new`]'s hard check.
    fn compile(d: &DbSchema, red: Reduction) -> Self {
        let w = red.result.attributes();
        let join_order = connected_order(d, &red.survivors)
            .into_iter()
            .map(|i| {
                let core = d.rel(i).intersect(&w);
                let proj = (&core != d.rel(i)).then_some(core);
                (i, proj)
            })
            .collect();
        let extended = d.with_rel(w);
        let w_node = d.len();
        let edges = red
            .elimination_edges()
            .chain(red.survivors.iter().map(|&s| (s, w_node)));
        let tree = JoinTree::try_new(QualGraph::new(extended.len(), edges), &extended)
            .expect("Theorem 3.2(ii): the trace plus the W edges is a join tree of D ∪ (W)");
        let tree = FullReducerPlan::on_tree(&extended, tree.rooted_at(0));
        Self {
            extended,
            join_order,
            tree,
            residue: red.result,
            survivors: red.survivors,
        }
    }

    /// The treeifying relation `W = U(GR(D))`.
    pub fn w(&self) -> &AttrSet {
        self.extended.rels().last().expect("W is the last relation")
    }

    /// The extended tree schema `D ∪ (W)` the plan reduces over.
    pub fn extended(&self) -> &DbSchema {
        &self.extended
    }

    /// Survivor indices in the order their states are joined into
    /// `state(W)`.
    pub fn join_order(&self) -> Vec<usize> {
        self.join_order.iter().map(|&(i, _)| i).collect()
    }

    /// The compiled full-reducer plan for the extended schema.
    pub fn tree_plan(&self) -> &FullReducerPlan {
        &self.tree
    }

    /// The GYO survivors' indices into `D`, in GYO order.
    pub(crate) fn survivors(&self) -> &[usize] {
        &self.survivors
    }

    /// The cyclicity diagnostic the tree-only entry points report for `D`.
    pub(crate) fn error(&self) -> EngineError {
        EngineError::Cyclic {
            residue: self.residue.clone(),
            survivors: self.survivors.clone(),
        }
    }

    /// `state(W) = π_W(⋈ of the survivors' states)`, joined in the plan's
    /// connectivity order with each survivor pre-projected onto `Rᵢ ∩ W` —
    /// the one data-dependent step cyclicity forces. The accumulated
    /// attributes end up exactly `W` (the residue relations cover it), so
    /// no final projection is needed.
    pub(crate) fn materialize_w(&self, state: &DbState) -> Relation {
        let mut acc = Relation::identity();
        for (i, proj) in &self.join_order {
            acc = match proj {
                Some(core) => acc.natural_join(&state.rel(*i).project(core)),
                None => acc.natural_join(state.rel(*i)),
            };
            if acc.is_empty() {
                // The core join is empty: so is its projection — and so is
                // the whole query; skip the remaining survivor joins.
                return Relation::empty(self.w().clone());
            }
        }
        debug_assert_eq!(acc.attrs(), self.w(), "residue relations cover W");
        acc
    }
}

/// Orders `survivors` greedily by connectivity: start from the first, and
/// repeatedly append a survivor sharing an attribute with the accumulated
/// attribute set, falling back to the next unvisited one when the residue
/// is disconnected (where a cross product is inherent to `W` anyway).
fn connected_order(d: &DbSchema, survivors: &[usize]) -> Vec<usize> {
    let mut order = Vec::with_capacity(survivors.len());
    let mut remaining: Vec<usize> = survivors.to_vec();
    let mut seen = AttrSet::empty();
    while !remaining.is_empty() {
        let pick = remaining
            .iter()
            .position(|&i| d.rel(i).intersects(&seen))
            .unwrap_or(0);
        let i = remaining.remove(pick);
        seen = seen.union(d.rel(i));
        order.push(i);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{db, poison_plan_cache, random_state};
    use crate::{Engine, NaiveEngine, TreeifyEngine};
    use gyo_schema::Catalog;

    #[test]
    fn agrees_with_naive_on_cyclic_schemas() {
        let mut cat = Catalog::alphabetic();
        let engine = TreeifyEngine::new();
        for (s, xs) in [
            ("ab, bc, ca", "ab"),
            ("ab, bc, cd, da", "ac"),
            ("bcd, acd, abd, abc", "ab"),
            ("ab, bc, cd, da, ax, cy", "xy"),
        ] {
            let d = db(s, &mut cat);
            let x = AttrSet::parse(xs, &mut cat).unwrap();
            for seed in 0..4 {
                let state = random_state(&d, 0xBEEF ^ seed, 25, 3);
                let n_red = NaiveEngine.reduce(&d, &state).unwrap();
                assert_eq!(engine.reduce(&d, &state).unwrap(), n_red, "{s} seed {seed}");
                assert_eq!(
                    engine.answer(&d, &state, &x).unwrap(),
                    NaiveEngine.answer(&d, &state, &x).unwrap(),
                    "{s} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn tree_schemas_delegate_to_the_inner_engine() {
        // `inner()` is the engine itself: a tree schema's plan, compiled
        // by an answer, is the one `inner().plan` returns.
        let mut cat = Catalog::alphabetic();
        let engine = TreeifyEngine::new();
        let d = db("ab, bc, cd", &mut cat);
        let state = random_state(&d, 11, 20, 4);
        let x = AttrSet::parse("ad", &mut cat).unwrap();
        assert_eq!(
            engine.answer(&d, &state, &x).unwrap(),
            state.eval_join_query(&x)
        );
        assert_eq!(engine.cached_treeified_count(), 0);
        assert_eq!(engine.inner().cached_plan_count(), 1);
        assert_eq!(engine.inner().plan(&d).unwrap().steps().len(), 4);
        assert_eq!(engine.cache_stats(), (1, 1));
    }

    #[test]
    fn plan_exposes_the_treeification_structure() {
        let mut cat = Catalog::alphabetic();
        let engine = TreeifyEngine::new();
        // Ring with two pendants: survivors are the ring; W is its span.
        let d = db("ab, bc, cd, da, ax, cy", &mut cat);
        let err = engine.plan(&d).unwrap_err();
        let plan = engine.treeified_plan(&d, &err);
        assert_eq!(plan.w().to_notation(&cat), "abcd");
        assert_eq!(plan.extended().len(), d.len() + 1);
        // The join order covers exactly the survivors, connectedly.
        let mut sorted = plan.join_order();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
        let mut seen = AttrSet::empty();
        for (k, &i) in plan.join_order().iter().enumerate() {
            if k > 0 {
                assert!(
                    !d.rel(i).intersect(&seen).is_empty(),
                    "join order stays connected on a connected residue"
                );
            }
            seen = seen.union(d.rel(i));
        }
        // 2·(n−1) steps for the extended schema's full reducer.
        assert_eq!(plan.tree_plan().steps().len(), 2 * (d.len() + 1 - 1));
    }

    #[test]
    fn connected_order_handles_disconnected_residues() {
        let mut cat = Catalog::alphabetic();
        // Two disjoint triangles: the residue is disconnected; the order
        // must still cover every survivor once.
        let d = db("ab, bc, ca, xy, yz, zx", &mut cat);
        let engine = TreeifyEngine::new();
        let err = engine.plan(&d).unwrap_err();
        let plan = engine.treeified_plan(&d, &err);
        let mut sorted = plan.join_order();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4, 5]);
        // And the engine still answers (the W-state is the cross product
        // of the two triangle joins — inherent to U(GR(D)) here).
        let state = random_state(&d, 21, 8, 2);
        let x = AttrSet::parse("az", &mut cat).unwrap();
        assert_eq!(
            engine.answer(&d, &state, &x).unwrap(),
            NaiveEngine.answer(&d, &state, &x).unwrap()
        );
    }

    #[test]
    fn empty_core_join_short_circuits() {
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc, ca", &mut cat);
        // The parity instance: pairwise consistent, globally empty.
        let ab = AttrSet::parse("ab", &mut cat).unwrap();
        let bc = AttrSet::parse("bc", &mut cat).unwrap();
        let ca = AttrSet::parse("ac", &mut cat).unwrap();
        let state = DbState::new(
            &d,
            vec![
                Relation::new(ab, vec![vec![0, 1], vec![1, 0]]),
                Relation::new(bc, vec![vec![0, 1], vec![1, 0]]),
                Relation::new(ca, vec![vec![0, 1], vec![1, 0]]),
            ],
        );
        let engine = TreeifyEngine::new();
        let reduced = engine.reduce(&d, &state).unwrap();
        for k in 0..d.len() {
            assert!(
                reduced.rel(k).is_empty(),
                "empty join ⟹ empty reduced relations (node {k})"
            );
        }
        let x = AttrSet::parse("ab", &mut cat).unwrap();
        assert!(engine.answer(&d, &state, &x).unwrap().is_empty());
    }

    #[test]
    fn rejects_a_target_outside_the_schema() {
        let mut cat = Catalog::alphabetic();
        let engine = TreeifyEngine::new();
        let stray = AttrSet::parse("z", &mut cat).unwrap();
        let want = EngineError::TargetOutsideSchema { stray };
        // Cyclic and tree schemas alike: the target is checked first.
        for s in ["ab, bc, ca", "ab, bc"] {
            let d = db(s, &mut cat);
            let state = random_state(&d, 0x5A, 10, 3);
            let x = AttrSet::parse("az", &mut cat).unwrap();
            assert_eq!(engine.answer(&d, &state, &x).unwrap_err(), want, "{s}");
        }
        assert_eq!(engine.cached_treeified_count(), 0);
        assert_eq!(engine.cache_stats(), (0, 0), "checked before plan work");
    }

    #[test]
    fn rejects_a_state_for_another_schema() {
        let mut cat = Catalog::alphabetic();
        let engine = TreeifyEngine::new();
        // A tree and a cyclic schema, each given its neighbor's state
        // (relation 2 differs) or a state one relation too long — cold, and
        // again once the cyclic plan is cached, so the warm path checks too.
        let tree = db("ab, bc, cd", &mut cat);
        let ring = db("ab, bc, ca", &mut cat);
        let longer = db("ab, bc, ca, cd", &mut cat);
        let x = AttrSet::parse("ab", &mut cat).unwrap();
        for (d, other, index) in [(&tree, &ring, 2), (&ring, &tree, 2), (&ring, &longer, 3)] {
            let wrong = random_state(other, 0x5C, 10, 3);
            let want = EngineError::StateMismatch { index };
            assert_eq!(engine.reduce(d, &wrong).unwrap_err(), want);
            assert_eq!(engine.answer(d, &wrong, &x).unwrap_err(), want);
            let right = random_state(d, 0x5D, 10, 3);
            assert_eq!(
                engine.answer(d, &right, &x).unwrap(),
                right.eval_join_query(&x)
            );
        }
        // Only the three correct calls looked up a plan, and only the first
        // call on each schema missed.
        assert_eq!(engine.cache_stats(), (1, 2));
    }

    #[test]
    fn treeified_plan_cache_hits_and_misses() {
        // Cyclic schemas; `plan_cache_hits_and_misses` in the engine module
        // covers tree ones. A cyclic schema takes one entry, its treeify
        // plan, and every call on it is one lookup.
        let mut cat = Catalog::alphabetic();
        let engine = TreeifyEngine::new();
        let ring = db("ab, bc, cd, da", &mut cat);
        let state = random_state(&ring, 5, 15, 3);

        engine.reduce(&ring, &state).unwrap();
        assert_eq!(engine.cache_stats(), (0, 1), "first sight compiles");
        assert_eq!(engine.cached_treeified_count(), 1);
        assert_eq!(engine.inner().cached_plan_count(), 1, "D ∪ (W) takes none");

        engine.reduce(&ring, &state).unwrap();
        let x = AttrSet::parse("ac", &mut cat).unwrap();
        engine.answer(&ring, &state, &x).unwrap();
        let err = engine.inner().plan(&ring).unwrap_err();
        engine.treeified_plan(&ring, &err);
        assert_eq!(engine.cache_stats(), (4, 1), "repeats hit");
        assert_eq!(engine.cached_treeified_count(), 1);

        // A different cyclic schema compiles its own plan.
        let triangle = db("ab, bc, ca", &mut cat);
        let t_state = random_state(&triangle, 6, 10, 3);
        engine.reduce(&triangle, &t_state).unwrap();
        assert_eq!(engine.cache_stats(), (4, 2));
        assert_eq!(engine.cached_treeified_count(), 2);

        engine.clear_cache();
        assert_eq!(engine.cached_treeified_count(), 0);
        assert_eq!(engine.inner().cached_plan_count(), 0);
        engine.reduce(&ring, &state).unwrap();
        assert_eq!(engine.cache_stats(), (4, 3), "cleared cache recompiles");
    }

    #[test]
    fn a_poisoned_treeified_cache_lock_recovers() {
        // A cyclic schema; `a_poisoned_plan_cache_lock_recovers` in the
        // engine module covers a tree one.
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc, cd, da", &mut cat);
        let state = random_state(&d, 0x91, 20, 3);
        let x = AttrSet::parse("ac", &mut cat).unwrap();
        let engine = TreeifyEngine::new();
        let want = engine.answer(&d, &state, &x).unwrap();
        poison_plan_cache(&engine);
        assert_eq!(engine.answer(&d, &state, &x).unwrap(), want, "cached plan");
        assert_eq!(
            engine.reduce(&d, &state).unwrap(),
            NaiveEngine.reduce(&d, &state).unwrap()
        );
        assert_eq!(engine.cached_treeified_count(), 1);
        assert_eq!(engine.cache_stats(), (2, 1));
        engine.clear_cache();
        assert_eq!(
            engine.answer(&d, &state, &x).unwrap(),
            want,
            "recompiled plan"
        );
        assert_eq!(engine.cache_stats(), (2, 2));
    }

    #[test]
    fn answers_targets_outside_w() {
        // Pendant attributes are GYO-deleted, so they sit outside W; the
        // answer path must join up the extended tree rather than project W.
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc, cd, da, ax, cy", &mut cat);
        let engine = TreeifyEngine::new();
        let x = AttrSet::parse("xy", &mut cat).unwrap();
        let err = engine.plan(&d).unwrap_err();
        let plan = engine.treeified_plan(&d, &err);
        assert!(!x.is_subset(plan.w()), "precondition: X ⊄ W");
        for seed in 0..4 {
            let state = random_state(&d, 0xA11CE ^ seed, 30, 3);
            assert_eq!(
                engine.answer(&d, &state, &x).unwrap(),
                state.eval_join_query(&x),
                "seed {seed}"
            );
        }
    }
}
