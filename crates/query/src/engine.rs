//! Query/reduction engines behind one trait: the naive oracle, and the
//! planned engine with its one plan type, [`TreeifyPlan`].
//!
//! A full reducer — `2·(n−1)` semijoins along a join tree — makes a tree
//! schema's state globally consistent, after which `(D, X)` is answered by
//! joining up the tree with early projection (Bernstein–Chiu \[5\],
//! Yannakakis \[18\]); adding `W = U(GR(D))` extends that to every schema
//! (Theorem 3.2(ii)). Two [`Engine`]s implement the trait, both **total**:
//!
//! * [`NaiveEngine`] — the definitional engine: materialize `⋈D`, project.
//!   It is the ground truth and the foil the planned engine is measured
//!   against.
//! * [`TreeifyEngine`] — the planned engine. Its one cache maps a schema's
//!   exact relation list to the [`TreeifyPlan`] one GYO reduction compiles,
//!   with `W = ∅` for a tree schema (see [`crate::treeify_engine`]).
//!   `reduce` and `answer` run one pipeline on one locked scratch: look the
//!   plan up once; copy the state, pushing `state(W)` when the plan is
//!   cyclic (built on the flat join-up executor, [`join_up_with`]); run
//!   semijoin steps of the plan on the selection-vector executor
//!   ([`semijoin_program_with`]); finish. `reduce` runs all `2·(n−1)` steps
//!   and truncates back to `D`.
//!
//! `answer` reads only the **kept subtree**: the nodes of the plan's rooted
//! join tree whose relations `π_X(⋈D)` needs. With the compile-time root,
//! a non-root node `v` is kept iff `X ∩ U(subtree(v)) ⊄ R_parent(v)`, and
//! the root always is. By running intersection the kept set is closed
//! under parents and its relations cover `X`: it is the subtree of the join
//! tree that spans `X` (on a tree schema, where `π_X(⋈D)` needs only
//! `CC(D, X)`, Theorem 3.3(ii) and `gyo-tableau::cc`) plus the path from it
//! up to the root.
//!
//! `answer` runs the whole upward pass, which fully reduces the root, then
//! only the downward steps into kept nodes, and joins up only the kept
//! nodes ([`join_up_with`]). `X = ∅` keeps the root alone: boolean
//! Yannakakis, `{()}` or `{}` after the upward pass. A cyclic plan is
//! rooted at `W`, so `X ⊆ W` is the same one-node case.
//!
//! The per-call, operator-at-a-time routes
//! ([`full_reduce`](crate::full_reduce),
//! [`solve_tree_query`](crate::solve_tree_query) and [`crate::treeify`]'s
//! functions) are plain functions. The differential suite
//! (`tests/engine_differential.rs`) holds them and both engines to
//! identical answers. The tree-only routes decline a cyclic schema with an
//! [`EngineError`] naming the stuck GYO residue.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, TryLockError};

use gyo_relation::{
    join_up_with, lock_cache, semijoin_program_with, DbState, ExecScratch, Relation, SemijoinStep,
};
use gyo_schema::{AttrSet, Catalog, DbSchema, FxHashMap};

use crate::treeify_engine::TreeifyPlan;

/// Why an engine (or any tree-only entry point of this crate) could not
/// serve a schema or a query.
///
/// A query whose target `X` names attributes outside `U(D)` is malformed
/// (the paper always takes `X ⊆ U(D)`); every engine returns
/// [`EngineError::TargetOutsideSchema`] for it, naming the stray
/// attributes. A state whose relations are not over `D`'s relation
/// schemas, position by position, is [`EngineError::StateMismatch`].
///
/// The only schema failure the paper's machinery admits is **cyclicity**: the
/// GYO reduction got stuck before collapsing the schema, so no join tree —
/// and hence no full reducer — exists (Corollary 3.1). Rather than a bare
/// decline, the error carries the evidence: the non-reducible residue
/// `GR(D)` (every relation of which still overlaps its neighbors in a way
/// neither GYO operation can break) and the original indices of the
/// surviving relations, so callers can show *which* cycle blocked the
/// tree-only paths — and the residue is exactly what [`TreeifyEngine`]
/// treeifies.
///
/// ```
/// use gyo_schema::{Catalog, DbSchema};
/// use gyo_relation::DbState;
/// use gyo_query::full_reduce;
///
/// let mut cat = Catalog::alphabetic();
/// // A 3-ring with a pendant: GYO strips the pendant, the ring remains.
/// let d = DbSchema::parse("ab, bc, ca, ax", &mut cat).unwrap();
/// let state = DbState::new(&d, d.iter().map(|r| {
///     gyo_relation::Relation::empty(r.clone())
/// }).collect());
/// let err = full_reduce(&d, &state).unwrap_err();
/// assert_eq!(err.residue().unwrap().to_notation(&cat), "(ab, bc, ac)");
/// assert_eq!(err.survivors(), Some(&[0, 1, 2][..]), "the pendant ax was reduced away");
/// assert!(err.to_string().contains("cyclic"));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The schema is cyclic: the GYO reduction stalled on a non-trivial
    /// residue, so tree-schema machinery (join trees, full reducers) does
    /// not apply.
    Cyclic {
        /// `GR(D, ∅)` — the stuck residue: the relation schemas (with
        /// already-deleted attributes removed) on which neither isolated-
        /// attribute deletion nor subset elimination applies. This is the
        /// offending cyclic core.
        residue: DbSchema,
        /// Original indices into `D` of the residue's relations (parallel
        /// to `residue.rels()`).
        survivors: Vec<usize>,
    },
    /// The query target is not a subset of `U(D)`.
    TargetOutsideSchema {
        /// `X − U(D)`: the target attributes no relation of `D` carries.
        stray: AttrSet,
    },
    /// The database state was not built for `D`: relation `index` of the
    /// state is missing, extra, or over other attributes than `Rᵢ`.
    StateMismatch {
        /// The first relation position at which state and schema disagree.
        index: usize,
    },
}

impl EngineError {
    /// [`EngineError::TargetOutsideSchema`] when `x ⊄ U(D)`.
    pub(crate) fn check_target(d: &DbSchema, x: &AttrSet) -> Result<(), EngineError> {
        let stray = x.difference(&d.attributes());
        if stray.is_empty() {
            Ok(())
        } else {
            Err(EngineError::TargetOutsideSchema { stray })
        }
    }

    /// [`EngineError::StateMismatch`] unless `state` holds one relation
    /// per relation schema of `d`, over exactly that schema's attributes.
    pub(crate) fn check_state(d: &DbSchema, state: &DbState) -> Result<(), EngineError> {
        let first_mismatch = d.iter().zip(state.rels()).position(|(r, s)| s.attrs() != r);
        match first_mismatch {
            Some(index) => Err(EngineError::StateMismatch { index }),
            None if d.len() != state.len() => Err(EngineError::StateMismatch {
                index: d.len().min(state.len()),
            }),
            None => Ok(()),
        }
    }

    /// The stuck GYO residue `GR(D)` — the offending cycle; `None` for an
    /// error that is not about cyclicity.
    pub fn residue(&self) -> Option<&DbSchema> {
        match self {
            EngineError::Cyclic { residue, .. } => Some(residue),
            EngineError::TargetOutsideSchema { .. } | EngineError::StateMismatch { .. } => None,
        }
    }

    /// Original relation indices of the residue's members; `None` for an
    /// error that is not about cyclicity.
    pub fn survivors(&self) -> Option<&[usize]> {
        match self {
            EngineError::Cyclic { survivors, .. } => Some(survivors),
            EngineError::TargetOutsideSchema { .. } | EngineError::StateMismatch { .. } => None,
        }
    }

    /// Renders the diagnostic with attribute names resolved through `cat`,
    /// e.g. `schema is cyclic: GYO stuck on R0, R1, R2 with residue
    /// (ab, bc, ac)`.
    pub fn display_with(&self, cat: &Catalog) -> String {
        match self {
            EngineError::Cyclic { residue, survivors } => {
                let rs: Vec<String> = survivors.iter().map(|i| format!("R{i}")).collect();
                format!(
                    "schema is cyclic: GYO stuck on {} with residue {}",
                    rs.join(", "),
                    residue.to_notation(cat)
                )
            }
            EngineError::TargetOutsideSchema { stray } => format!(
                "query target is not a subset of U(D): {} not in the schema",
                stray.to_notation(cat)
            ),
            EngineError::StateMismatch { .. } => self.to_string(),
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Cyclic { residue, survivors } => {
                write!(
                    f,
                    "schema is cyclic: GYO reduction stuck on {} residue relation(s) \
                     (original indices {:?})",
                    residue.len(),
                    survivors
                )
            }
            EngineError::TargetOutsideSchema { stray } => write!(
                f,
                "query target is not a subset of U(D): attribute id(s) {:?} not in the schema",
                stray.iter().map(|a| a.0).collect::<Vec<_>>()
            ),
            EngineError::StateMismatch { index } => write!(
                f,
                "database state does not match the schema at relation R{index}"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// A query/reduction engine: one strategy for making states globally
/// consistent and answering natural-join queries `(D, X)`.
///
/// Both engines, [`NaiveEngine`] and [`TreeifyEngine`], are **total** over
/// schemas — they never decline one, so an `Err` means the call is
/// malformed, and says why. Every engine's `answer` returns
/// [`EngineError::TargetOutsideSchema`] for a target `X ⊄ U(D)`, and both
/// methods return [`EngineError::StateMismatch`] for a state that was not
/// built for `d` (checked once, before any plan work).
pub trait Engine {
    /// A stable identifier for reports and benchmarks.
    fn name(&self) -> &'static str;

    /// Full reduction: returns a state with
    /// `result[i] = π_{Rᵢ}(⋈ state)` for every `i`, or the reason the
    /// engine cannot reduce `d`.
    fn reduce(&self, d: &DbSchema, state: &DbState) -> Result<DbState, EngineError>;

    /// Answers the query `(D, X)`: `π_X(⋈ state)`, or the reason the
    /// engine cannot solve on `d` — [`EngineError::TargetOutsideSchema`]
    /// when `x ⊄ U(D)`, checked before anything else.
    fn answer(&self, d: &DbSchema, state: &DbState, x: &AttrSet) -> Result<Relation, EngineError>;
}

/// The definitional engine: materializes the full join. Supports every
/// schema — tree or cyclic — at monolithic-join cost.
#[derive(Clone, Copy, Debug, Default)]
pub struct NaiveEngine;

impl Engine for NaiveEngine {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn reduce(&self, d: &DbSchema, state: &DbState) -> Result<DbState, EngineError> {
        EngineError::check_state(d, state)?;
        let total = state.join_all();
        Ok(DbState::new(
            d,
            d.iter()
                .map(|r| {
                    if total.is_empty() {
                        Relation::empty(r.clone())
                    } else {
                        total.project(r)
                    }
                })
                .collect(),
        ))
    }

    fn answer(&self, d: &DbSchema, state: &DbState, x: &AttrSet) -> Result<Relation, EngineError> {
        EngineError::check_target(d, x)?;
        EngineError::check_state(d, state)?;
        Ok(state.eval_join_query(x))
    }
}

/// Runs `f` on the reusable scratch behind `lock`, locked without waiting.
/// A poisoned lock is recovered: every use of a scratch resets what it
/// reads first, so one left mid-use by a panic is still valid. When another
/// call holds the lock, `f` runs on a fresh scratch instead of serializing
/// behind it.
fn with_scratch<T: Default, R>(lock: &Mutex<T>, f: impl FnOnce(&mut T) -> R) -> R {
    match lock.try_lock() {
        Ok(mut guard) => f(&mut guard),
        Err(TryLockError::Poisoned(poisoned)) => {
            lock.clear_poison();
            f(&mut poisoned.into_inner())
        }
        Err(TryLockError::WouldBlock) => f(&mut T::default()),
    }
}

/// The engine's reusable execution state: the one scratch of both
/// executors (the semijoin steps, and the join-ups of answers and
/// `state(W)`), and the kept-node mask (answers).
#[derive(Debug, Default)]
struct Scratch {
    exec: ExecScratch,
    kept: Vec<bool>,
}

/// The planned engine: **total** over all schemas, one plan per schema.
///
/// The cache key is the schema's **exact relation list** (order and
/// multiplicity included), not [`DbSchema`]'s multiset equality — a plan's
/// step indices refer to relation positions, so two multiset-equal schemas
/// with different relation orders get distinct plans. Any change to the
/// schema therefore misses the cache and compiles afresh; stale plans are
/// unreachable by construction. A warm call costs one lookup (one lock,
/// one hash of the relation list) for tree and cyclic schemas alike. See
/// the [module docs](self) for the pipeline, and [`crate::treeify_engine`]
/// for the plans and their correctness argument.
#[derive(Debug, Default)]
pub struct TreeifyEngine {
    plans: Mutex<FxHashMap<Vec<AttrSet>, Arc<TreeifyPlan>>>,
    /// Reusable execution state: after the first call at a given shape,
    /// program steps run with zero heap allocation (the
    /// `crates/relation/tests/alloc.rs` counter pins this down), and the
    /// join-ups reuse the same scratch's bucket chain, pair buffer, dedup
    /// sets and intermediate row buffers. Contended callers fall back to a
    /// per-call scratch rather than serialize; a poisoned lock is
    /// recovered, not bypassed.
    scratch: Mutex<Scratch>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl TreeifyEngine {
    /// A fresh engine with an empty plan cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The engine itself. Kept so that callers written against the former
    /// split into an outer engine and an inner full-reducer engine (the
    /// `perfbench` harness calls `inner().plan(d)` and
    /// `inner().cached_plan_count()`) still compile unchanged.
    #[doc(hidden)]
    pub fn inner(&self) -> &Self {
        self
    }

    /// The cached plan for `d`, compiled on first sight.
    fn lookup(&self, d: &DbSchema) -> Arc<TreeifyPlan> {
        if let Some(plan) = lock_cache(&self.plans).get(d.rels()) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(plan);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(TreeifyPlan::compile(d));
        lock_cache(&self.plans).insert(d.rels().to_vec(), Arc::clone(&plan));
        plan
    }

    /// The cached plan of the tree schema `d`, compiled on first sight;
    /// [`EngineError::Cyclic`] with the stuck residue when `d` is cyclic
    /// (its treeified plan is cached all the same).
    pub fn plan(&self, d: &DbSchema) -> Result<Arc<TreeifyPlan>, EngineError> {
        let plan = self.lookup(d);
        plan.check_tree()?;
        Ok(plan)
    }

    /// The cached plan of `d`, tree or cyclic, compiled on first sight.
    /// `err` is ignored. It is kept so that callers written against the
    /// former split, which passed the cyclic verdict of
    /// [`plan`](Self::plan) here (the `perfbench` harness does), still
    /// compile unchanged.
    pub fn treeified_plan(&self, d: &DbSchema, _err: &EngineError) -> Arc<TreeifyPlan> {
        self.lookup(d)
    }

    /// Drops every cached plan (the cache never *needs* manual
    /// invalidation — keys are schema identities — but long-lived engines
    /// can reclaim memory).
    pub fn clear_cache(&self) {
        lock_cache(&self.plans).clear();
    }

    /// Number of schemas with a cached plan, tree and cyclic alike.
    pub fn cached_plan_count(&self) -> usize {
        lock_cache(&self.plans).len()
    }

    /// Number of cyclic schemas with a cached treeify plan.
    pub fn cached_treeified_count(&self) -> usize {
        lock_cache(&self.plans)
            .values()
            .filter(|plan| plan.is_cyclic())
            .count()
    }

    /// `(hits, misses)` of the plan cache since construction.
    pub fn cache_stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// Copies the state (pushing `state(W)` for a cyclic plan) and runs
/// `steps` of the plan, both on `scratch`. Returns the relations, `D`'s
/// first and `W` last.
fn reduced<'a>(
    plan: &TreeifyPlan,
    state: &DbState,
    steps: impl IntoIterator<Item = &'a SemijoinStep>,
    scratch: &mut ExecScratch,
) -> Vec<Relation> {
    let mut rels = state.rels().to_vec();
    if plan.is_cyclic() {
        rels.push(plan.materialize_w(state, scratch));
    }
    semijoin_program_with(&mut rels, steps, scratch);
    rels
}

impl Engine for TreeifyEngine {
    fn name(&self) -> &'static str {
        "treeify"
    }

    fn reduce(&self, d: &DbSchema, state: &DbState) -> Result<DbState, EngineError> {
        EngineError::check_state(d, state)?;
        let plan = self.lookup(d);
        let mut rels = with_scratch(&self.scratch, |s| {
            reduced(&plan, state, plan.steps(), &mut s.exec)
        });
        rels.truncate(d.len());
        Ok(DbState::new(d, rels))
    }

    fn answer(&self, d: &DbSchema, state: &DbState, x: &AttrSet) -> Result<Relation, EngineError> {
        EngineError::check_target(d, x)?;
        EngineError::check_state(d, state)?;
        let plan = self.lookup(d);
        Ok(with_scratch(&self.scratch, |Scratch { exec, kept }| {
            plan.kept_nodes(d, x, kept);
            let rels = reduced(&plan, state, plan.answer_steps(kept), exec);
            join_up_with(&rels, plan.rooted(), kept, x, exec)
        }))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{full_reduce, solve_tree_query};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    pub(crate) fn db(s: &str, cat: &mut Catalog) -> DbSchema {
        DbSchema::parse(s, cat).unwrap()
    }

    pub(crate) fn random_state(d: &DbSchema, seed: u64, rows: usize, domain: u64) -> DbState {
        let mut rng = StdRng::seed_from_u64(seed);
        let i = gyo_workloads::random_universal(&mut rng, &d.attributes(), rows, domain);
        DbState::from_universal(&i, d)
    }

    #[test]
    fn engines_agree_on_tree_schemas() {
        let mut cat = Catalog::alphabetic();
        let cached = TreeifyEngine::new();
        for s in ["ab, bc, cd", "abc, cde, ace, afe", "ab, cd", "abc"] {
            let d = db(s, &mut cat);
            let state = random_state(&d, 0xE1, 25, 4);
            let x = AttrSet::from_iter([
                d.attributes().iter().next().unwrap(),
                d.attributes().iter().last().unwrap(),
            ]);
            let n_red = NaiveEngine.reduce(&d, &state).unwrap();
            assert_eq!(full_reduce(&d, &state).unwrap(), n_red, "{s}");
            assert_eq!(cached.reduce(&d, &state).unwrap(), n_red, "{s}");
            let n_ans = NaiveEngine.answer(&d, &state, &x).unwrap();
            assert_eq!(solve_tree_query(&d, &state, &x).unwrap(), n_ans, "{s}");
            assert_eq!(cached.answer(&d, &state, &x).unwrap(), n_ans, "{s}");
        }
    }

    #[test]
    fn semijoin_engines_decline_cyclic_schemas_with_diagnostics() {
        // The tree-only paths: the per-call solvers, and the engine's
        // full-reducer plan lookup.
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc, ca", &mut cat);
        let state = random_state(&d, 7, 10, 3);
        let x = AttrSet::parse("ab", &mut cat).unwrap();
        let err = full_reduce(&d, &state).unwrap_err();
        // The triangle is its own residue: nothing reduces.
        assert_eq!(err.residue(), Some(&d));
        assert_eq!(err.survivors(), Some(&[0, 1, 2][..]));
        assert_eq!(solve_tree_query(&d, &state, &x).unwrap_err(), err);
        assert_eq!(TreeifyEngine::new().plan(&d).unwrap_err(), err);
        assert!(NaiveEngine.reduce(&d, &state).is_ok(), "naive always works");
        assert_eq!(
            err.display_with(&cat),
            "schema is cyclic: GYO stuck on R0, R1, R2 with residue (ab, bc, ac)"
        );
    }

    #[test]
    fn cyclic_diagnostic_names_only_the_stuck_core() {
        // Ring with pendants: GYO strips the pendants; the error must point
        // at the surviving ring, not the whole schema.
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc, cd, da, ax, cy", &mut cat);
        let err = TreeifyEngine::new().plan(&d).unwrap_err();
        assert_eq!(
            err.survivors(),
            Some(&[0, 1, 2, 3][..]),
            "only the ring survives"
        );
        assert_eq!(err.residue().unwrap().to_notation(&cat), "(ab, bc, cd, ad)");
        assert!(err.to_string().contains("4 residue relation(s)"));
    }

    #[test]
    fn plan_cache_hits_and_misses() {
        // Tree schemas; `treeified_plan_cache_hits_and_misses` covers the
        // cyclic ones, which share the same cache and counters.
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc, cd", &mut cat);
        let e = TreeifyEngine::new();
        assert_eq!(e.cache_stats(), (0, 0));
        assert!(e.plan(&d).is_ok());
        assert_eq!(e.cache_stats(), (0, 1), "first sight compiles");
        assert!(e.plan(&d).is_ok());
        assert!(e.plan(&d.clone()).is_ok());
        assert_eq!(e.cache_stats(), (2, 1), "repeats hit");
        let state = random_state(&d, 5, 15, 3);
        e.reduce(&d, &state).unwrap();
        e.answer(&d, &state, &AttrSet::parse("ad", &mut cat).unwrap())
            .unwrap();
        assert_eq!(e.cache_stats(), (4, 1), "reduce and answer hit too");
        assert_eq!((e.cached_plan_count(), e.cached_treeified_count()), (1, 0));

        // A tree schema first seen by an answer: the plan it compiles is
        // the one `plan` returns; `inner()` is the engine itself.
        let e = TreeifyEngine::new();
        let state = random_state(&d, 11, 20, 4);
        let x = AttrSet::parse("ad", &mut cat).unwrap();
        assert_eq!(e.answer(&d, &state, &x).unwrap(), state.eval_join_query(&x));
        assert_eq!(e.cached_treeified_count(), 0);
        assert_eq!(e.inner().cached_plan_count(), 1);
        assert_eq!(e.inner().plan(&d).unwrap().steps().len(), 4);
        assert_eq!(e.cache_stats(), (1, 1));

        // Cyclic schemas: one takes one entry, its treeify plan, and every
        // call on it is one lookup.
        let e = TreeifyEngine::new();
        let ring = db("ab, bc, cd, da", &mut cat);
        let state = random_state(&ring, 5, 15, 3);

        e.reduce(&ring, &state).unwrap();
        assert_eq!(e.cache_stats(), (0, 1), "first sight compiles");
        assert_eq!(e.cached_treeified_count(), 1);
        assert_eq!(e.inner().cached_plan_count(), 1, "D ∪ (W) takes none");

        e.reduce(&ring, &state).unwrap();
        let x = AttrSet::parse("ac", &mut cat).unwrap();
        e.answer(&ring, &state, &x).unwrap();
        let err = e.inner().plan(&ring).unwrap_err();
        e.treeified_plan(&ring, &err);
        assert_eq!(e.cache_stats(), (4, 1), "repeats hit");
        assert_eq!(e.cached_treeified_count(), 1);

        // A different cyclic schema compiles its own plan.
        let triangle = db("ab, bc, ca", &mut cat);
        let t_state = random_state(&triangle, 6, 10, 3);
        e.reduce(&triangle, &t_state).unwrap();
        assert_eq!(e.cache_stats(), (4, 2));
        assert_eq!(e.cached_treeified_count(), 2);

        e.clear_cache();
        assert_eq!(e.cached_treeified_count(), 0);
        assert_eq!(e.inner().cached_plan_count(), 0);
        e.reduce(&ring, &state).unwrap();
        assert_eq!(e.cache_stats(), (4, 3), "cleared cache recompiles");
    }

    #[test]
    fn cyclic_outcome_is_cached_too() {
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc, ca", &mut cat);
        let e = TreeifyEngine::new();
        let first = e.plan(&d).unwrap_err();
        let second = e.plan(&d).unwrap_err();
        assert_eq!(first, second, "cached verdicts keep the diagnostic");
        assert_eq!(first.residue(), Some(&d), "the triangle is its own residue");
        assert_eq!(e.cache_stats(), (1, 1));
        assert_eq!(e.cached_plan_count(), 1);
    }

    #[test]
    fn a_cyclic_schema_and_its_extension_get_their_own_entries() {
        // `D ∪ (W)` spelled out as a schema of its own is a tree schema. It
        // is compiled and cached apart from the cyclic `D`, whose plan runs
        // over the same relation list.
        let mut cat = Catalog::alphabetic();
        let e = TreeifyEngine::new();
        let ring = db("ab, bc, cd, da, ax", &mut cat);
        let err = e.plan(&ring).unwrap_err();
        let extended = ring.with_rel(e.treeified_plan(&ring, &err).w().clone());
        assert_eq!(e.cached_plan_count(), 1, "the extension takes no entry");
        assert!(e.plan(&extended).is_ok(), "D ∪ (W) is a tree schema");
        assert_eq!((e.cached_plan_count(), e.cached_treeified_count()), (2, 1));
        let x = AttrSet::parse("cx", &mut cat).unwrap();
        for (d, seed) in [(&ring, 0xE7), (&extended, 0xE8), (&ring, 0xE9)] {
            let state = random_state(d, seed, 25, 3);
            assert_eq!(
                e.reduce(d, &state).unwrap(),
                NaiveEngine.reduce(d, &state).unwrap()
            );
            assert_eq!(
                e.answer(d, &state, &x).unwrap(),
                NaiveEngine.answer(d, &state, &x).unwrap()
            );
        }
        assert_eq!(e.cached_plan_count(), 2);
    }

    #[test]
    fn schema_change_misses_the_cache() {
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc", &mut cat);
        let e = TreeifyEngine::new();
        assert!(e.plan(&d).is_ok());
        let mut grown = d.clone();
        grown.push(AttrSet::parse("cd", &mut cat).unwrap());
        assert!(e.plan(&grown).is_ok());
        assert_eq!(e.cache_stats(), (0, 2), "changed schema compiles afresh");
        assert_eq!(e.cached_plan_count(), 2);
        e.clear_cache();
        assert_eq!(e.cached_plan_count(), 0);
        assert!(e.plan(&d).is_ok());
        assert_eq!(e.cache_stats(), (0, 3), "cleared cache recompiles");
    }

    #[test]
    fn plans_are_keyed_by_relation_order_not_multiset_equality() {
        // (ab, bc, cd) and (cd, bc, ab) are equal as multisets — DbSchema's
        // own Eq/Hash would collide — but a plan's step indices are
        // positional, so the cache must treat them as distinct schemas.
        let mut cat = Catalog::alphabetic();
        let d1 = db("ab, bc, cd", &mut cat);
        let d2 = db("cd, bc, ab", &mut cat);
        assert!(d1 == d2, "precondition: multiset-equal");
        let e = TreeifyEngine::new();
        assert!(e.plan(&d1).is_ok());
        assert!(e.plan(&d2).is_ok());
        assert_eq!(
            e.cache_stats(),
            (0, 2),
            "reordered schema is a distinct plan"
        );
        assert_eq!(e.cached_plan_count(), 2);
        // ... and both plans answer their own schema correctly.
        for d in [&d1, &d2] {
            let state = random_state(d, 0xAB, 20, 3);
            let x = AttrSet::parse("ad", &mut cat).unwrap();
            assert_eq!(e.answer(d, &state, &x).unwrap(), state.eval_join_query(&x));
        }
    }

    #[test]
    fn cached_plan_has_2n_minus_2_steps_and_matches_program() {
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc, cd, de", &mut cat);
        let plan = TreeifyEngine::new().plan(&d).unwrap();
        assert_eq!(plan.steps().len(), 2 * (4 - 1));
        assert_eq!(plan.program(&d).len(), 2 * (4 - 1));
        assert_eq!(
            plan.program(&d),
            crate::yannakakis::full_reducer_program(&d).unwrap()
        );
    }

    /// The nodes `plan` keeps for an answer on `x`.
    pub(crate) fn kept_of(plan: &TreeifyPlan, d: &DbSchema, x: &AttrSet) -> Vec<usize> {
        let mut kept = Vec::new();
        plan.kept_nodes(d, x, &mut kept);
        (0..kept.len()).filter(|&v| kept[v]).collect()
    }

    #[test]
    fn a_star_keeps_its_center_and_the_leaves_holding_x() {
        // star(64) = (A₀A₁, …, A₀A₆₄) joins as a star around its root, node
        // 0; A₁₇ is only in node 16 and A₆₄ only in node 63.
        let d = gyo_workloads::star(64);
        let plan = TreeifyPlan::compile(&d);
        let rooted = plan.rooted();
        assert_eq!(rooted.root, 0);
        assert!(rooted.parent.iter().all(|&p| p == 0), "a star join tree");
        let x = AttrSet::from_raw(&[17, 64]);
        assert_eq!(kept_of(&plan, &d, &x), vec![0, 16, 63]);
        // The answer runs the whole upward pass, then only the downward
        // steps into the two kept leaves.
        let mut kept = Vec::new();
        plan.kept_nodes(&d, &x, &mut kept);
        let targets: Vec<usize> = plan.answer_steps(&kept).map(SemijoinStep::target).collect();
        assert_eq!(targets.len(), 63 + 2);
        assert_eq!(targets[63..], [63, 16]);
        // The hub attribute is in the root: nothing below is needed.
        assert_eq!(kept_of(&plan, &d, &AttrSet::from_raw(&[0])), vec![0]);
    }

    #[test]
    fn a_chain_with_its_end_attributes_keeps_every_node() {
        let d = gyo_workloads::chain(64);
        let plan = TreeifyPlan::compile(&d);
        let x = AttrSet::from_raw(&[0, 64]);
        assert_eq!(kept_of(&plan, &d, &x), (0..64).collect::<Vec<_>>());
        let mut kept = Vec::new();
        plan.kept_nodes(&d, &x, &mut kept);
        assert_eq!(plan.answer_steps(&kept).count(), 2 * 63);
        // A middle attribute keeps the path from the root down to it.
        let mid = AttrSet::from_raw(&[10]);
        assert_eq!(kept_of(&plan, &d, &mid), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn an_empty_target_keeps_only_the_root() {
        for d in [
            gyo_workloads::star(6),
            gyo_workloads::chain(6),
            gyo_workloads::aring_n(5),
        ] {
            let plan = TreeifyPlan::compile(&d);
            let root = plan.rooted().root;
            assert_eq!(kept_of(&plan, &d, &AttrSet::empty()), vec![root]);
            // The answer is boolean: {()} for a nonempty join, {} if not.
            let state = random_state(&d, 0x0B, 20, 3);
            let e = TreeifyEngine::new();
            assert_eq!(
                e.answer(&d, &state, &AttrSet::empty()).unwrap(),
                NaiveEngine.answer(&d, &state, &AttrSet::empty()).unwrap()
            );
        }
        let d0 = DbSchema::empty();
        assert!(kept_of(&TreeifyPlan::compile(&d0), &d0, &AttrSet::empty()).is_empty());
    }

    #[test]
    fn single_and_empty_schemas() {
        let mut cat = Catalog::alphabetic();
        let e = TreeifyEngine::new();
        let d1 = db("abc", &mut cat);
        let state = random_state(&d1, 3, 8, 3);
        let x = AttrSet::parse("ac", &mut cat).unwrap();
        assert_eq!(
            e.answer(&d1, &state, &x).unwrap(),
            state.eval_join_query(&x)
        );
        let d0 = DbSchema::empty();
        let empty_state = DbState::new(&d0, vec![]);
        assert_eq!(
            e.answer(&d0, &empty_state, &AttrSet::empty()).unwrap(),
            Relation::identity()
        );
        assert!(e.reduce(&d0, &empty_state).unwrap().is_empty());
    }

    /// Poisons `e`'s plan cache lock by panicking while holding it.
    pub(crate) fn poison_plan_cache(e: &TreeifyEngine) {
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = e.plans.lock().unwrap();
                panic!("poison the plan cache");
            })
            .join()
            .is_err()
        });
        assert!(panicked && e.plans.is_poisoned());
    }

    #[test]
    fn a_poisoned_plan_cache_lock_recovers() {
        // A tree schema; `a_poisoned_treeified_cache_lock_recovers` covers a
        // cyclic one.
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc, cd", &mut cat);
        let state = random_state(&d, 0x90, 20, 3);
        let x = AttrSet::parse("ad", &mut cat).unwrap();
        let e = TreeifyEngine::new();
        let want = e.answer(&d, &state, &x).unwrap();
        poison_plan_cache(&e);
        assert_eq!(e.answer(&d, &state, &x).unwrap(), want, "cached plan");
        assert_eq!(e.cached_plan_count(), 1);
        e.clear_cache();
        assert_eq!(e.answer(&d, &state, &x).unwrap(), want, "recompiled plan");
        assert_eq!(e.cache_stats(), (1, 2));
    }

    /// `(D, X)` over `ab, bc` with `X = {a, z}`: `z` is in no relation.
    fn stray_target_case() -> (DbSchema, DbState, AttrSet, EngineError) {
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc", &mut cat);
        let state = random_state(&d, 0x57, 10, 3);
        let x = AttrSet::parse("az", &mut cat).unwrap();
        let stray = AttrSet::parse("z", &mut cat).unwrap();
        (d, state, x, EngineError::TargetOutsideSchema { stray })
    }

    #[test]
    fn naive_engine_rejects_a_target_outside_the_schema() {
        let (d, state, x, want) = stray_target_case();
        assert_eq!(NaiveEngine.answer(&d, &state, &x).unwrap_err(), want);
    }

    #[test]
    fn per_call_solver_rejects_a_target_outside_the_schema() {
        // The per-call Yannakakis path, called directly.
        let (d, state, x, want) = stray_target_case();
        assert_eq!(solve_tree_query(&d, &state, &x).unwrap_err(), want);
    }

    #[test]
    fn cached_engine_rejects_a_target_outside_the_schema() {
        let (d, state, x, want) = stray_target_case();
        let e = TreeifyEngine::new();
        let err = e.answer(&d, &state, &x).unwrap_err();
        assert_eq!(err, want);
        assert_eq!(err.residue(), None, "not a cyclicity verdict");
        assert!(err.to_string().contains("not a subset of U(D)"));
        assert_eq!(e.cached_plan_count(), 0, "checked before any plan work");
        // A cyclic schema with a stray target reports the target first.
        let mut cat = Catalog::alphabetic();
        let ring = db("ab, bc, ca", &mut cat);
        let ring_state = random_state(&ring, 9, 10, 3);
        let bad = AttrSet::parse("az", &mut cat).unwrap();
        let err = e.answer(&ring, &ring_state, &bad).unwrap_err();
        assert!(matches!(err, EngineError::TargetOutsideSchema { .. }));
        assert_eq!(
            err.display_with(&cat),
            "query target is not a subset of U(D): z not in the schema"
        );
        assert_eq!(e.cache_stats(), (0, 0), "no lookup for a stray target");
    }

    /// `ab, bc` with a state built for `ab, cd` (relation 1 differs) and
    /// one built for `ab, bc, cd` (one relation too many).
    fn mismatched_states() -> (DbSchema, AttrSet, [(DbState, usize); 2]) {
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc", &mut cat);
        let x = AttrSet::parse("ac", &mut cat).unwrap();
        let other = db("ab, cd", &mut cat);
        let longer = db("ab, bc, cd", &mut cat);
        let states = [
            (random_state(&other, 0x5A, 10, 3), 1),
            (random_state(&longer, 0x5B, 10, 3), 2),
        ];
        (d, x, states)
    }

    fn assert_state_mismatch(engine: &dyn Engine) {
        let (d, x, states) = mismatched_states();
        for (state, index) in states {
            let want = EngineError::StateMismatch { index };
            let err = engine.reduce(&d, &state).unwrap_err();
            assert_eq!(err, want, "{} reduce", engine.name());
            assert_eq!((err.residue(), err.survivors()), (None, None));
            assert_eq!(
                engine.answer(&d, &state, &x).unwrap_err(),
                want,
                "{} answer",
                engine.name()
            );
        }
    }

    #[test]
    fn naive_engine_rejects_a_state_for_another_schema() {
        assert_state_mismatch(&NaiveEngine);
    }

    #[test]
    fn per_call_solvers_reject_a_state_for_another_schema() {
        // The per-call Yannakakis path, called directly.
        let (d, x, states) = mismatched_states();
        for (state, index) in states {
            let want = EngineError::StateMismatch { index };
            let err = full_reduce(&d, &state).unwrap_err();
            assert_eq!(err, want, "full_reduce");
            assert_eq!((err.residue(), err.survivors()), (None, None));
            assert_eq!(solve_tree_query(&d, &state, &x).unwrap_err(), want);
        }
    }

    #[test]
    fn cached_engine_rejects_a_state_for_another_schema() {
        let e = TreeifyEngine::new();
        assert_state_mismatch(&e);
        assert_eq!(e.cached_plan_count(), 0, "checked before any plan work");
        let err = EngineError::StateMismatch { index: 1 };
        assert_eq!(
            err.to_string(),
            "database state does not match the schema at relation R1"
        );
    }

    #[test]
    fn poisoned_scratch_locks_recover() {
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc, cd", &mut cat);
        let state = random_state(&d, 0x92, 30, 3);
        let x = AttrSet::parse("ad", &mut cat).unwrap();
        let e = TreeifyEngine::new();
        let want = e.answer(&d, &state, &x).unwrap();
        // Another schema's data, so the scratch is left mid-use with state
        // that does not fit the next call.
        let other = db("ab, bc, ce, ef", &mut cat);
        let other_state = random_state(&other, 0x93, 40, 4);
        let other_x = AttrSet::parse("af", &mut cat).unwrap();
        let other_plan = e.plan(&other).unwrap();
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let mut scratch = e.scratch.lock().unwrap();
                let Scratch { exec, kept } = &mut *scratch;
                let mut rels = other_state.rels().to_vec();
                semijoin_program_with(&mut rels, other_plan.steps(), exec);
                other_plan.kept_nodes(&other, &other_x, kept);
                join_up_with(&rels, other_plan.rooted(), kept, &other_x, exec);
                panic!("poison the scratch");
            })
            .join()
            .is_err()
        });
        assert!(panicked && e.scratch.is_poisoned());
        assert_eq!(e.answer(&d, &state, &x).unwrap(), want);
        assert!(!e.scratch.is_poisoned(), "the scratch is recovered");
        assert_eq!(e.answer(&d, &state, &x).unwrap(), want);
        assert_eq!(
            e.reduce(&d, &state).unwrap(),
            NaiveEngine.reduce(&d, &state).unwrap()
        );
    }

    #[test]
    fn one_scratch_serves_tree_and_cyclic_calls_in_turn() {
        // Tree and cyclic schemas in turn on one engine and one thread, so
        // every call takes the engine's one scratch: `state(W)`'s join-up,
        // the semijoin steps and the answers' join-ups run on it one after
        // another, with key widths 1 to 3. (The differential suite shares
        // one engine across parallel tests, where a contended call runs on
        // a fresh scratch instead.)
        let mut cat = Catalog::alphabetic();
        let e = TreeifyEngine::new();
        let cases = [
            ("ab, bc, cd", "ad"),
            ("ab, bc, cd, da, ax", "cx"),
            ("abc, cde, ace, afe", "bf"),
            ("abcd, cdef, efab", "ae"),
            ("abcdef, defghi, ghiabc", "ag"),
        ];
        for round in 0..2u64 {
            for (k, (s, xs)) in cases.iter().enumerate() {
                let d = db(s, &mut cat);
                let state = random_state(&d, 0x95 + 8 * round + k as u64, 30, 3);
                let x = AttrSet::parse(xs, &mut cat).unwrap();
                assert_eq!(
                    e.answer(&d, &state, &x).unwrap(),
                    NaiveEngine.answer(&d, &state, &x).unwrap(),
                    "{s}, round {round}"
                );
                assert_eq!(
                    e.reduce(&d, &state).unwrap(),
                    NaiveEngine.reduce(&d, &state).unwrap(),
                    "{s}, round {round}"
                );
            }
        }
        assert_eq!((e.cached_plan_count(), e.cached_treeified_count()), (5, 3));
    }

    /// A state over `d` whose relation `i` holds `sizes[i]` distinct random
    /// rows, every value in `0..domain`.
    fn sized_state(d: &DbSchema, sizes: &[usize], domain: u64, seed: u64) -> DbState {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let rels = d
            .iter()
            .zip(sizes)
            .map(|(r, &n)| {
                let mut rows = std::collections::BTreeSet::new();
                while rows.len() < n {
                    rows.insert(
                        (0..r.len())
                            .map(|_| rng.random_range(0..domain))
                            .collect::<Vec<u64>>(),
                    );
                }
                Relation::new(r.clone(), rows.into_iter().collect())
            })
            .collect();
        DbState::new(d, rels)
    }

    #[test]
    fn states_mixing_small_and_large_relations_agree_cold_and_warm() {
        // A step between two relations under 64 rows (gyo-relation's
        // private CACHE_MIN_ROWS) chains both sides' rows, and a step with
        // a larger side reads key columns cached on both. Each state mixes both, with steps between them
        // either way, and is queried twice: cold (plan miss, nothing
        // cached) and then warm.
        const N: usize = 64;
        let mut cat = Catalog::alphabetic();
        let e = TreeifyEngine::new();
        let cases: [(&str, &str, Vec<usize>); 3] = [
            // A star: the center is large and every leaf is small.
            ("abcd, ae, bf, cg, dh", "eh", vec![N + 16, 10, N - 1, 40, 1]),
            // A chain whose sizes alternate across N.
            (
                "ab, bc, cd, de, ef, fg",
                "ag",
                vec![N + 6, 20, N, N - 1, N + 1, 10],
            ),
            // A ring with a pendant: a cyclic schema, answered through W.
            ("ab, bc, cd, da, ax", "cx", vec![N + 6, 30, N, N - 1, 12]),
        ];
        for (k, (s, xs, sizes)) in cases.iter().enumerate() {
            let d = db(s, &mut cat);
            let state = sized_state(&d, sizes, 9, 0x18 + k as u64);
            let x = AttrSet::parse(xs, &mut cat).unwrap();
            let want_reduced = NaiveEngine.reduce(&d, &state).unwrap();
            let want = NaiveEngine.answer(&d, &state, &x).unwrap();
            for run in ["cold", "warm"] {
                assert_eq!(e.reduce(&d, &state).unwrap(), want_reduced, "{s}, {run}");
                assert_eq!(e.answer(&d, &state, &x).unwrap(), want, "{s}, {run}");
            }
        }
        assert_eq!((e.cached_plan_count(), e.cached_treeified_count()), (3, 1));
    }

    #[test]
    fn a_contended_scratch_falls_back_to_a_fresh_one() {
        // This thread holds the scratch, so the engine's `try_lock` sees
        // `WouldBlock` and every call runs on a scratch of its own.
        let mut cat = Catalog::alphabetic();
        let e = TreeifyEngine::new();
        let held = e.scratch.lock().unwrap();
        assert!(matches!(
            e.scratch.try_lock(),
            Err(TryLockError::WouldBlock)
        ));
        for (s, xs) in [("ab, bc, cd", "ad"), ("ab, bc, cd, da, ax", "cx")] {
            let d = db(s, &mut cat);
            let state = random_state(&d, 0x94, 30, 3);
            let x = AttrSet::parse(xs, &mut cat).unwrap();
            assert_eq!(
                e.reduce(&d, &state).unwrap(),
                NaiveEngine.reduce(&d, &state).unwrap(),
                "{s}"
            );
            assert_eq!(
                e.answer(&d, &state, &x).unwrap(),
                NaiveEngine.answer(&d, &state, &x).unwrap(),
                "{s}"
            );
        }
        assert!(held.kept.is_empty(), "the held scratch was never used");
        assert_eq!((e.cached_plan_count(), e.cached_treeified_count()), (2, 1));
    }
}
