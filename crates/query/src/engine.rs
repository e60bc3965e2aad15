//! Query/reduction engines behind one trait: the naive oracle, and the
//! planned engine with its full-reducer plans.
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
//!   exact relation list to the plan one GYO reduction compiles (see
//!   [`crate::treeify_engine`]). `reduce` and `answer` run one pipeline:
//!   look the plan up once; copy the state, pushing `state(W)` when the
//!   plan is cyclic; run the plan's semijoin steps on the selection-vector
//!   executor ([`semijoin_program_with`]); finish by truncating back to
//!   `D` (reduce), by projecting the reduced `W` when `X ⊆ W`, or by
//!   joining up the plan's tree on the flat executor ([`join_up_with`]).
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
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};

use gyo_relation::{
    join_up_with, lock_cache, semijoin_program_with, DbState, ExecScratch, JoinUpScratch, Relation,
    SemijoinStep,
};
use gyo_schema::{AttrSet, Catalog, DbSchema, FxHashMap, RootedTree};

use crate::program::Program;
use crate::treeify_engine::{Plan, TreeifyPlan};
use crate::yannakakis::full_reducer_program_on_tree;

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

/// A compiled full-reducer plan for one tree schema: the rooted join tree
/// plus the `2·(n−1)` precompiled semijoin steps.
#[derive(Clone, Debug)]
pub struct FullReducerPlan {
    rooted: RootedTree,
    steps: Vec<SemijoinStep>,
}

impl FullReducerPlan {
    /// The plan along an already-rooted join tree of `d`.
    pub(crate) fn on_tree(d: &DbSchema, rooted: RootedTree) -> Self {
        let schemas = d.rels();
        let mut steps = Vec::with_capacity(2 * d.len().saturating_sub(1));
        for &v in &rooted.post_order {
            if v != rooted.root {
                steps.push(SemijoinStep::new(schemas, rooted.parent[v], v));
            }
        }
        for &v in rooted.post_order.iter().rev() {
            if v != rooted.root {
                steps.push(SemijoinStep::new(schemas, v, rooted.parent[v]));
            }
        }
        Self { rooted, steps }
    }

    /// The compiled semijoin steps, upward pass then downward pass.
    pub fn steps(&self) -> &[SemijoinStep] {
        &self.steps
    }

    /// The plan as a §6 semijoin [`Program`] (new-relation semantics) over
    /// `d`, the schema the plan was compiled for. Built on each call from
    /// the rooted tree; compiling a plan never builds one.
    ///
    /// # Panics
    ///
    /// Panics if `d` has another number of relations than the plan.
    pub fn program(&self, d: &DbSchema) -> Program {
        assert_eq!(
            d.len(),
            self.rooted.parent.len(),
            "a plan's program is over the schema it was compiled for"
        );
        full_reducer_program_on_tree(d, &self.rooted)
    }

    /// The rooted join tree the plan reduces along.
    ///
    /// For the **empty schema** the tree has no nodes: `parent` and
    /// `post_order` are empty and `root` is a placeholder `0` that must
    /// not be used as an index.
    pub fn rooted(&self) -> &RootedTree {
        &self.rooted
    }
}

/// Locks a reusable scratch without waiting. A poisoned lock is recovered:
/// every use of a scratch resets what it reads first, so one left mid-use
/// by a panic is still valid. `None` when another call holds it.
fn try_lock_scratch<T>(lock: &Mutex<T>) -> Option<MutexGuard<'_, T>> {
    match lock.try_lock() {
        Ok(guard) => Some(guard),
        Err(TryLockError::Poisoned(poisoned)) => {
            lock.clear_poison();
            Some(poisoned.into_inner())
        }
        Err(TryLockError::WouldBlock) => None,
    }
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
    plans: Mutex<FxHashMap<Vec<AttrSet>, Plan>>,
    /// Reusable selection-vector execution state: after the first reduction
    /// at a given shape, program steps run with zero heap allocation (the
    /// `crates/relation/tests/alloc.rs` counter pins this down). Contended
    /// callers fall back to a per-call scratch rather than serialize; a
    /// poisoned lock is recovered, not bypassed.
    scratch: Mutex<ExecScratch>,
    /// Reusable join-up state (bucket chains, pair buffer, dedup sets,
    /// intermediate row buffers), with the same contention fallback and
    /// poison recovery.
    joinup: Mutex<JoinUpScratch>,
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
    fn lookup(&self, d: &DbSchema) -> Plan {
        if let Some(plan) = lock_cache(&self.plans).get(d.rels()) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return plan.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let plan = Plan::compile(d);
        lock_cache(&self.plans).insert(d.rels().to_vec(), plan.clone());
        plan
    }

    /// The cached full-reducer plan of the tree schema `d`, compiled on
    /// first sight; [`EngineError::Cyclic`] with the stuck residue when `d`
    /// is cyclic (its treeified plan is cached all the same).
    pub fn plan(&self, d: &DbSchema) -> Result<Arc<FullReducerPlan>, EngineError> {
        match self.lookup(d) {
            Plan::Tree(plan) => Ok(plan),
            Plan::Cyclic(plan) => Err(plan.error()),
        }
    }

    /// The cached treeify plan of the cyclic schema `d`, compiled on first
    /// sight. `err` is the verdict [`plan`](Self::plan) returned for `d`.
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
        match self.lookup(d) {
            Plan::Cyclic(plan) => plan,
            Plan::Tree(_) => panic!("treeification needs a cyclic schema"),
        }
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
            .filter(|plan| matches!(plan, Plan::Cyclic(_)))
            .count()
    }

    /// `(hits, misses)` of the plan cache since construction.
    pub fn cache_stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Copies the state (pushing `state(W)` for a cyclic plan) and runs the
    /// plan's semijoin steps through the engine's reusable scratch (a
    /// per-call scratch under contention). Returns the reduced relations,
    /// `D`'s first and `W` last.
    fn reduced(&self, plan: &Plan, state: &DbState) -> Vec<Relation> {
        let mut rels = state.rels().to_vec();
        if let Plan::Cyclic(treeify) = plan {
            rels.push(treeify.materialize_w(state));
        }
        let steps = plan.tree().steps();
        match try_lock_scratch(&self.scratch) {
            Some(mut scratch) => semijoin_program_with(&mut rels, steps, &mut scratch),
            // Another thread is mid-reduction on this engine: run with a
            // fresh scratch instead of serializing behind the lock.
            None => semijoin_program_with(&mut rels, steps, &mut ExecScratch::new()),
        }
        rels
    }
}

impl Engine for TreeifyEngine {
    fn name(&self) -> &'static str {
        "treeify"
    }

    fn reduce(&self, d: &DbSchema, state: &DbState) -> Result<DbState, EngineError> {
        EngineError::check_state(d, state)?;
        let mut rels = self.reduced(&self.lookup(d), state);
        rels.truncate(d.len());
        Ok(DbState::new(d, rels))
    }

    fn answer(&self, d: &DbSchema, state: &DbState, x: &AttrSet) -> Result<Relation, EngineError> {
        EngineError::check_target(d, x)?;
        EngineError::check_state(d, state)?;
        let plan = self.lookup(d);
        let rels = self.reduced(&plan, state);
        if let Plan::Cyclic(treeify) = &plan {
            // After full reduction the W slot holds π_W(⋈D); when the
            // target fits inside W, one projection finishes the query.
            if x.is_subset(treeify.w()) {
                return Ok(rels.last().expect("W is the last relation").project(x));
            }
        }
        let rooted = plan.tree().rooted();
        Ok(match try_lock_scratch(&self.joinup) {
            Some(mut scratch) => join_up_with(&rels, rooted, x, &mut scratch),
            None => join_up_with(&rels, rooted, x, &mut JoinUpScratch::new()),
        })
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
        let extended = e.treeified_plan(&ring, &err).extended().clone();
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
    fn incremental_engine_rejects_a_target_outside_the_schema() {
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
    fn incremental_engine_rejects_a_state_for_another_schema() {
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
        // Another schema's data, so each scratch is left mid-use with
        // state that does not fit the next call.
        let other = db("ab, bc, ce, ef", &mut cat);
        let other_state = random_state(&other, 0x93, 40, 4);
        let other_x = AttrSet::parse("af", &mut cat).unwrap();
        let other_plan = e.plan(&other).unwrap();
        let panicked = std::thread::scope(|s| {
            let semijoin = s.spawn(|| {
                let mut scratch = e.scratch.lock().unwrap();
                let mut rels = other_state.rels().to_vec();
                semijoin_program_with(&mut rels, other_plan.steps(), &mut scratch);
                panic!("poison the semijoin scratch");
            });
            let joinup = s.spawn(|| {
                let mut scratch = e.joinup.lock().unwrap();
                join_up_with(
                    other_state.rels(),
                    other_plan.rooted(),
                    &other_x,
                    &mut scratch,
                );
                panic!("poison the join-up scratch");
            });
            semijoin.join().is_err() && joinup.join().is_err()
        });
        assert!(panicked && e.scratch.is_poisoned() && e.joinup.is_poisoned());
        assert_eq!(e.answer(&d, &state, &x).unwrap(), want);
        assert!(
            !e.scratch.is_poisoned(),
            "the semijoin scratch is recovered"
        );
        assert!(!e.joinup.is_poisoned(), "the join-up scratch is recovered");
        assert_eq!(e.answer(&d, &state, &x).unwrap(), want);
    }
}
