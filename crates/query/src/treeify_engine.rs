//! The treeification-backed **total** engine: cyclic schemas answered
//! through a cached tree plan over `D ∪ (U(GR(D)))`.
//!
//! The paper's central move for cyclic schemas (§4, building on
//! Corollary 3.2) is that cyclicity is not a dead end: adding the single
//! relation `W = U(GR(D))` — the attributes of the stuck GYO residue —
//! turns *any* schema into a tree schema (Theorem 3.2(ii)), and `W` is the
//! least-cardinality relation that does so. The price is one data-dependent
//! join: `state(W) = π_W(⋈ of the residue's states)`. Everything before and
//! after that join is linear semijoin processing on a tree schema — exactly
//! what the cached full-reducer machinery already does well.
//!
//! [`TreeifyEngine`] packages that strategy as an [`Engine`] that **never
//! declines**:
//!
//! * **Tree schemas** delegate to an inner [`FullReducerEngine`] — same
//!   plan cache, same selection-vector kernels, zero overhead beyond the
//!   cache probes (one on the always-empty-for-trees treeified cache, one
//!   the full-reducer engine pays anyway).
//! * **Cyclic schemas** get a cached [`TreeifyPlan`]: the treeifying
//!   relation `W`, a connectivity-greedy join order over the GYO survivors
//!   (computed once at plan time, so per-call materialization avoids
//!   accidental cross products inside connected residues), and the
//!   compiled full-reducer plan for the extended schema `D ∪ (W)` — stored
//!   in the *shared* plan cache, compiled once, reused across calls.
//!   That plan's join tree comes from the verdict's own reduction trace,
//!   per Theorem 3.2(ii) (see [`TreeifyPlan`]): `D` is reduced once, and
//!   `D ∪ (W)` never.
//!   Per call, the engine materializes `state(W)`, runs the extended
//!   plan's semijoin program through the reusable
//!   [`SelVec`](gyo_relation::SelVec) scratch, and either projects the
//!   reduced `W` (when `X ⊆ W`) or joins up the extended tree through the
//!   flat join-up executor ([`gyo_relation::join_up_with`]).
//!
//! The cyclic verdict that routes a schema onto the treeify path is the
//! [`EngineError::Cyclic`] diagnostic the inner engine caches, and the
//! cache keeps the reduction's subset-elimination edges beside it. The
//! stuck residue gives `W` and the survivors, and those edges plus one
//! `(survivor, W)` edge per survivor give the extended join tree, so
//! nothing is recomputed.
//!
//! Correctness: `⋈(D ∪ (W)) = ⋈D`, because every tuple of `⋈D` restricted
//! to the survivors satisfies each survivor's relation, so its `W`
//! projection is in `state(W)` — the added relation filters nothing.
//! Full reduction of the extended tree state therefore leaves each original
//! relation at `π_{Rᵢ}(⋈D)` (global consistency), which is exactly
//! [`NaiveEngine`](crate::NaiveEngine)'s definitional reduce; the repo's
//! differential suite (`tests/engine_differential.rs`) holds the two
//! engines to identical results on every cyclic workload family.
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
//! // The ring is cyclic — the semijoin engines decline it — yet the
//! // treeify engine answers, and agrees with the definitional evaluation.
//! let x = AttrSet::parse("ac", &mut cat).unwrap();
//! let answer = engine.answer(&ring, &state, &x).unwrap();
//! assert_eq!(answer, state.eval_join_query(&x));
//!
//! // One treeified plan was compiled and cached; repeats hit it.
//! assert_eq!(engine.cached_treeified_count(), 1);
//! engine.answer(&ring, &state, &x).unwrap();
//! assert_eq!(engine.cached_treeified_count(), 1);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use gyo_relation::{lock_cache, DbState, Relation};
use gyo_schema::{AttrSet, DbSchema, FxHashMap};

use crate::engine::{CyclicVerdict, Engine, EngineError, FullReducerEngine, FullReducerPlan};

/// A compiled treeification plan for one **cyclic** schema: everything
/// about `D ∪ (U(GR(D)))` that does not depend on data. It is compiled
/// from `D`'s cyclic verdict alone: the extended join
/// tree is `D`'s reduction trace plus one `(survivor, W)` edge per
/// survivor, the construction in the proof of Theorem 3.2(ii).
#[derive(Clone, Debug)]
pub struct TreeifyPlan {
    /// The extended tree schema `D ∪ (W)`; `W` is the last relation.
    extended: DbSchema,
    /// `W = U(GR(D))` — the treeifying relation (Corollary 3.2).
    w: AttrSet,
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
    /// The compiled full-reducer plan for `extended` — owned by the
    /// engine's shared plan cache, referenced here.
    inner: Arc<FullReducerPlan>,
}

impl TreeifyPlan {
    /// Compiles the plan from the cyclic verdict of `d`, with no second
    /// GYO reduction: the residue gives `W` and the survivors, and the
    /// verdict's own trace gives the join tree of `D ∪ (W)`.
    ///
    /// That tree is the proof of Theorem 3.2(ii). Every step of `D`'s trace
    /// stays legal in `D ∪ (W)`: a deleted attribute was isolated when
    /// deleted, so it is in no survivor and not in `W`, and `W` changes no
    /// holder count. After those steps every survivor is a subset of `W`,
    /// so eliminating each into `W` makes the reduction total, and by
    /// Theorem 3.1 its subset eliminations — the trace's edges plus one
    /// `(survivor, W)` edge per survivor — form a join tree. The edges
    /// still pass [`JoinTree::try_new`](gyo_schema::JoinTree::try_new)'s
    /// hard check, and the plan along them is compiled into (or found in)
    /// `engine`'s shared plan cache.
    fn compile(d: &DbSchema, verdict: &CyclicVerdict, engine: &FullReducerEngine) -> Self {
        let w = verdict.residue.attributes();
        let join_order = connected_order(d, &verdict.survivors)
            .into_iter()
            .map(|i| {
                let core = d.rel(i).intersect(&w);
                let proj = (&core != d.rel(i)).then_some(core);
                (i, proj)
            })
            .collect();
        let extended = d.with_rel(w.clone());
        let w_node = d.len();
        let edges = verdict.edges.iter().copied();
        let inner = engine.plan_on_tree(
            &extended,
            edges.chain(verdict.survivors.iter().map(|&s| (s, w_node))),
        );
        Self {
            extended,
            w,
            join_order,
            inner,
        }
    }

    /// The treeifying relation `W = U(GR(D))`.
    pub fn w(&self) -> &AttrSet {
        &self.w
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
        &self.inner
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

/// The treeification-backed engine: **total** over all schemas.
///
/// Tree schemas run on the inner [`FullReducerEngine`] (shared plan
/// cache); cyclic schemas run over a cached [`TreeifyPlan`] — one
/// data-dependent core join to materialize `state(W)`, then the compiled
/// semijoin program and tree-join machinery of the extended schema. See
/// the [module docs](self) for the construction and its correctness
/// argument.
#[derive(Debug, Default)]
pub struct TreeifyEngine {
    inner: FullReducerEngine,
    treeified: Mutex<FxHashMap<Vec<AttrSet>, Arc<TreeifyPlan>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl TreeifyEngine {
    /// A fresh engine with empty plan caches.
    pub fn new() -> Self {
        Self::default()
    }

    /// The inner full-reducer engine (to share its plan cache, or to
    /// inspect it). Both the tree-schema plans *and* every treeified
    /// extended-schema plan live in this engine's cache.
    pub fn inner(&self) -> &FullReducerEngine {
        &self.inner
    }

    /// The cached treeify plan for `d`, counting a hit when present. The
    /// engine probes this **before** the inner plan cache, so warm cyclic
    /// calls never touch (or clone) the cached `EngineError` verdict.
    fn lookup_treeified(&self, d: &DbSchema) -> Option<Arc<TreeifyPlan>> {
        let plan = lock_cache(&self.treeified).get(d.rels()).cloned();
        if plan.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        plan
    }

    /// The cached treeify plan for a schema already known to be cyclic,
    /// compiling on first sight. `err` must be the cyclic verdict the
    /// inner engine produced for `d` (what `inner().plan(d)` returns); the
    /// plan is compiled from the reduction trace the inner cache keeps
    /// beside that verdict, so `d` is not reduced again.
    ///
    /// # Panics
    ///
    /// Panics if `err` is not [`EngineError::Cyclic`] or `d` is a tree
    /// schema.
    pub fn treeified_plan(&self, d: &DbSchema, err: &EngineError) -> Arc<TreeifyPlan> {
        assert!(
            err.residue().is_some(),
            "treeification needs a cyclic verdict, got: {err}"
        );
        if let Some(plan) = self.lookup_treeified(d) {
            return plan;
        }
        let verdict = self
            .inner
            .cyclic_verdict(d)
            .expect("treeification needs a cyclic schema");
        self.compile_treeified(d, &verdict)
    }

    /// Compiles, counts and caches the treeify plan for `d` from its
    /// verdict.
    fn compile_treeified(&self, d: &DbSchema, verdict: &CyclicVerdict) -> Arc<TreeifyPlan> {
        self.misses.fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(TreeifyPlan::compile(d, verdict, &self.inner));
        lock_cache(&self.treeified).insert(d.rels().to_vec(), plan.clone());
        plan
    }

    /// Runs the cyclic-schema pipeline over an already-known plan: the
    /// core join, the extended plan's semijoin program, truncation back
    /// to `D`'s relations.
    fn reduce_cyclic(&self, d: &DbSchema, state: &DbState, plan: &TreeifyPlan) -> DbState {
        let mut rels = self.reduce_extended(plan, state);
        rels.truncate(d.len());
        DbState::new(d, rels)
    }

    fn answer_cyclic(&self, state: &DbState, x: &AttrSet, plan: &TreeifyPlan) -> Relation {
        let rels = self.reduce_extended(plan, state);
        // After full reduction the W slot holds π_W(⋈D); when the target
        // fits inside W, one projection finishes the query.
        if x.is_subset(&plan.w) {
            let w_reduced = rels.last().expect("extended state is nonempty");
            return w_reduced.project(x);
        }
        self.inner.join_up(&rels, plan.inner.rooted(), x)
    }

    /// Number of cyclic schemas with a cached treeified plan.
    pub fn cached_treeified_count(&self) -> usize {
        lock_cache(&self.treeified).len()
    }

    /// Drops every cached plan, treeified and tree alike.
    pub fn clear_cache(&self) {
        lock_cache(&self.treeified).clear();
        self.inner.clear_cache();
    }

    /// `(hits, misses)` of the treeified-plan cache since construction.
    #[cfg(test)]
    pub(crate) fn treeified_cache_stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// `state(W) = π_W(⋈ of the survivors' states)`, joined in the plan's
    /// connectivity order with each survivor pre-projected onto `Rᵢ ∩ W` —
    /// the one data-dependent step cyclicity forces. The accumulated
    /// attributes end up exactly `W` (the residue relations cover it), so
    /// no final projection is needed.
    fn materialize_w(&self, plan: &TreeifyPlan, state: &DbState) -> Relation {
        let mut acc = Relation::identity();
        for (i, proj) in &plan.join_order {
            let joined = match proj {
                Some(core) => acc.natural_join(&state.rel(*i).project(core)),
                None => acc.natural_join(state.rel(*i)),
            };
            acc = joined;
            if acc.is_empty() {
                // The core join is empty: so is its projection — and so is
                // the whole query; skip the remaining survivor joins.
                return Relation::empty(plan.w.clone());
            }
        }
        debug_assert_eq!(acc.attrs(), &plan.w, "residue relations cover W");
        acc
    }

    /// Reduces the extended state `state ∪ (state(W))` with the compiled
    /// plan; returns the reduced relation list (original relations first,
    /// `W` last).
    fn reduce_extended(&self, plan: &TreeifyPlan, state: &DbState) -> Vec<Relation> {
        let mut rels = state.rels().to_vec();
        rels.push(self.materialize_w(plan, state));
        self.inner.run_steps(&mut rels, plan.inner.steps());
        rels
    }
}

impl Engine for TreeifyEngine {
    fn name(&self) -> &'static str {
        "treeify"
    }

    fn reduce(&self, d: &DbSchema, state: &DbState) -> Result<DbState, EngineError> {
        EngineError::check_state(d, state)?;
        // Warm cyclic schemas hit the treeified cache directly — the
        // cached cyclic verdict (and its residue clone) is only touched on
        // the compile path.
        if let Some(plan) = self.lookup_treeified(d) {
            return Ok(self.reduce_cyclic(d, state, &plan));
        }
        match self.inner.compiled(d) {
            Ok(plan) => Ok(self.inner.reduce_with_plan(d, state, &plan)),
            Err(verdict) => {
                let plan = self.compile_treeified(d, &verdict);
                Ok(self.reduce_cyclic(d, state, &plan))
            }
        }
    }

    fn answer(&self, d: &DbSchema, state: &DbState, x: &AttrSet) -> Result<Relation, EngineError> {
        EngineError::check_target(d, x)?;
        EngineError::check_state(d, state)?;
        if let Some(plan) = self.lookup_treeified(d) {
            return Ok(self.answer_cyclic(state, x, &plan));
        }
        match self.inner.compiled(d) {
            Ok(plan) => Ok(self.inner.answer_with_plan(d, state, x, &plan)),
            Err(verdict) => {
                let plan = self.compile_treeified(d, &verdict);
                Ok(self.answer_cyclic(state, x, &plan))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NaiveEngine;
    use gyo_schema::Catalog;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn db(s: &str, cat: &mut Catalog) -> DbSchema {
        DbSchema::parse(s, cat).unwrap()
    }

    fn random_state(d: &DbSchema, seed: u64, rows: usize, domain: u64) -> DbState {
        let mut rng = StdRng::seed_from_u64(seed);
        let i = gyo_workloads::random_universal(&mut rng, &d.attributes(), rows, domain);
        DbState::from_universal(&i, d)
    }

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
        let mut cat = Catalog::alphabetic();
        let engine = TreeifyEngine::new();
        let d = db("ab, bc, cd", &mut cat);
        let state = random_state(&d, 11, 20, 4);
        let x = AttrSet::parse("ad", &mut cat).unwrap();
        assert_eq!(
            engine.answer(&d, &state, &x).unwrap(),
            state.eval_join_query(&x)
        );
        // No treeified plan was compiled; the tree plan sits in the shared
        // inner cache.
        assert_eq!(engine.cached_treeified_count(), 0);
        assert_eq!(engine.inner().cached_plan_count(), 1);
        assert_eq!(engine.treeified_cache_stats(), (0, 0));
    }

    #[test]
    fn treeified_plan_cache_hits_and_misses() {
        let mut cat = Catalog::alphabetic();
        let engine = TreeifyEngine::new();
        let ring = db("ab, bc, cd, da", &mut cat);
        let state = random_state(&ring, 5, 15, 3);

        engine.reduce(&ring, &state).unwrap();
        assert_eq!(
            engine.treeified_cache_stats(),
            (0, 1),
            "first sight compiles"
        );
        // Both the cyclic verdict for the ring AND the tree plan for the
        // extended schema live in the shared inner cache.
        assert_eq!(engine.inner().cached_plan_count(), 2);

        engine.reduce(&ring, &state).unwrap();
        let x = AttrSet::parse("ac", &mut cat).unwrap();
        engine.answer(&ring, &state, &x).unwrap();
        assert_eq!(engine.treeified_cache_stats(), (2, 1), "repeats hit");
        assert_eq!(engine.cached_treeified_count(), 1);

        // A different cyclic schema compiles its own plan.
        let triangle = db("ab, bc, ca", &mut cat);
        let t_state = random_state(&triangle, 6, 10, 3);
        engine.reduce(&triangle, &t_state).unwrap();
        assert_eq!(engine.treeified_cache_stats(), (2, 2));
        assert_eq!(engine.cached_treeified_count(), 2);

        engine.clear_cache();
        assert_eq!(engine.cached_treeified_count(), 0);
        assert_eq!(engine.inner().cached_plan_count(), 0);
        engine.reduce(&ring, &state).unwrap();
        assert_eq!(
            engine.treeified_cache_stats(),
            (2, 3),
            "cleared cache recompiles"
        );
    }

    #[test]
    fn plan_exposes_the_treeification_structure() {
        let mut cat = Catalog::alphabetic();
        let engine = TreeifyEngine::new();
        // Ring with two pendants: survivors are the ring; W is its span.
        let d = db("ab, bc, cd, da, ax, cy", &mut cat);
        let err = engine.inner().plan(&d).unwrap_err();
        let plan = engine.treeified_plan(&d, &err);
        assert_eq!(plan.w().to_notation(&cat), "abcd");
        assert_eq!(plan.extended().len(), d.len() + 1);
        assert_eq!(plan.extended().rel(d.len()), plan.w());
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
        let err = engine.inner().plan(&d).unwrap_err();
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
        // Cyclic and tree schemas alike: the target is checked first.
        for s in ["ab, bc, ca", "ab, bc"] {
            let d = db(s, &mut cat);
            let state = random_state(&d, 0x5A, 10, 3);
            let x = AttrSet::parse("az", &mut cat).unwrap();
            assert_eq!(
                engine.answer(&d, &state, &x).unwrap_err(),
                EngineError::TargetOutsideSchema {
                    stray: stray.clone()
                },
                "{s}"
            );
        }
        assert_eq!(engine.cached_treeified_count(), 0);
    }

    #[test]
    fn rejects_a_state_for_another_schema() {
        let mut cat = Catalog::alphabetic();
        let engine = TreeifyEngine::new();
        // A tree and a cyclic schema, each given its neighbor's state
        // (relation 2 differs) — cold, and again once the cyclic plan is
        // cached, so the warm treeified path checks too.
        let tree = db("ab, bc, cd", &mut cat);
        let ring = db("ab, bc, ca", &mut cat);
        let x = AttrSet::parse("ab", &mut cat).unwrap();
        let want = EngineError::StateMismatch { index: 2 };
        for (d, other) in [(&tree, &ring), (&ring, &tree), (&ring, &tree)] {
            let wrong = random_state(other, 0x5C, 10, 3);
            assert_eq!(engine.reduce(d, &wrong).unwrap_err(), want);
            assert_eq!(engine.answer(d, &wrong, &x).unwrap_err(), want);
            let right = random_state(d, 0x5D, 10, 3);
            assert_eq!(
                engine.answer(d, &right, &x).unwrap(),
                right.eval_join_query(&x)
            );
        }
    }

    #[test]
    fn a_poisoned_treeified_cache_lock_recovers() {
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc, cd, da", &mut cat);
        let state = random_state(&d, 0x91, 20, 3);
        let x = AttrSet::parse("ac", &mut cat).unwrap();
        let engine = TreeifyEngine::new();
        let want = engine.answer(&d, &state, &x).unwrap();
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = engine.treeified.lock().unwrap();
                panic!("poison the treeified cache");
            })
            .join()
            .is_err()
        });
        assert!(panicked && engine.treeified.is_poisoned());
        assert_eq!(engine.answer(&d, &state, &x).unwrap(), want);
        assert_eq!(engine.cached_treeified_count(), 1);
        assert_eq!(engine.treeified_cache_stats(), (1, 1));
    }

    #[test]
    fn answers_targets_outside_w() {
        // Pendant attributes are GYO-deleted, so they sit outside W; the
        // answer path must join up the extended tree rather than project W.
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc, cd, da, ax, cy", &mut cat);
        let engine = TreeifyEngine::new();
        let x = AttrSet::parse("xy", &mut cat).unwrap();
        let err = engine.inner().plan(&d).unwrap_err();
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
