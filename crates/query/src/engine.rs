//! Query/reduction engines behind one trait, and the cached full-reducer
//! engine.
//!
//! The paper's payoff for tree schemas is that a full reducer — `2·(n−1)`
//! semijoins along a join tree — achieves global consistency, after which
//! `(D, X)` is answered by joining up the tree with early projection
//! (Bernstein–Chiu \[5\], Yannakakis \[18\]). This module promotes that
//! pipeline from test support to a first-class [`Engine`], alongside the
//! two reference paths it must agree with:
//!
//! * [`NaiveEngine`] — the definitional engine: materialize `⋈D`, project.
//!   Works on *every* schema; serves as the ground truth and as the foil
//!   the semijoin engines are measured against.
//! * [`IncrementalEngine`] — the per-call Yannakakis path: re-derives the
//!   join tree with the incremental GYO engine on every call, then runs the
//!   full reducer. Correct, tree-only, no reuse across calls.
//! * [`FullReducerEngine`] — the cached engine: compiles the join tree and
//!   the semijoin program **once per schema** into a [`FullReducerPlan`]
//!   (precompiled [`SemijoinStep`]s — shared attributes and column
//!   positions resolved ahead of time), keyed by the schema's exact
//!   relation-list identity, and reuses it across calls.
//!
//! A fourth engine lives in [`crate::treeify_engine`]:
//! [`TreeifyEngine`](crate::TreeifyEngine), which delegates tree schemas
//! to a [`FullReducerEngine`] and answers cyclic ones through a cached
//! treeification plan — making the trait **total**. Declines carry an
//! [`EngineError`] naming the stuck GYO residue, never a bare `None`.
//!
//! All four implement [`Engine`]; the repo-level differential suite
//! (`tests/engine_differential.rs`) holds them to identical answers on
//! every workload family.
//!
//! The two cached engines join up through `gyo-relation`'s flat executor
//! ([`join_up_with`]: unsorted duplicate-free intermediates, bucket-chain
//! builds, one normalization at the root), with its scratch held beside
//! the semijoin [`ExecScratch`]. [`IncrementalEngine`] keeps the per-call
//! operator-at-a-time join-up of [`solve_tree_query`], so the differential
//! suite compares two independent join-up routes.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};

use gyo_reduce::Reduction;
use gyo_relation::{
    join_up_with, lock_cache, semijoin_program_with, DbState, ExecScratch, JoinUpScratch, Relation,
    SemijoinStep,
};
use gyo_schema::{AttrSet, Catalog, DbSchema, FxHashMap, JoinTree, QualGraph, RootedTree};

use crate::program::Program;
use crate::yannakakis::{
    compile_tree, full_reduce, full_reducer_program_on_tree, root_at_zero, solve_tree_query,
};

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
/// semijoin engines — and so [`TreeifyEngine`](crate::TreeifyEngine) can
/// treeify exactly that residue without re-running the reduction.
///
/// ```
/// use gyo_schema::{AttrSet, Catalog, DbSchema};
/// use gyo_relation::DbState;
/// use gyo_query::{Engine, EngineError, FullReducerEngine};
///
/// let mut cat = Catalog::alphabetic();
/// // A 3-ring with a pendant: GYO strips the pendant, the ring remains.
/// let d = DbSchema::parse("ab, bc, ca, ax", &mut cat).unwrap();
/// let state = DbState::new(&d, d.iter().map(|r| {
///     gyo_relation::Relation::empty(r.clone())
/// }).collect());
/// let err = FullReducerEngine::new().reduce(&d, &state).unwrap_err();
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
    /// Builds the cyclic-schema error from a stuck reduction.
    ///
    /// # Panics
    ///
    /// Panics if `red` is total (a total reduction is not an error).
    pub fn cyclic(red: &Reduction) -> Self {
        assert!(!red.is_total(), "total GYO reductions are not errors");
        EngineError::Cyclic {
            residue: red.result.clone(),
            survivors: red.survivors.clone(),
        }
    }

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

/// A cyclic verdict as the plan cache keeps it: the stuck residue and its
/// survivors, plus the `(removed, witness)` edges of the reduction's subset
/// eliminations. The edges let [`TreeifyPlan`](crate::TreeifyPlan) build
/// the join tree of `D ∪ (W)` without reducing again.
#[derive(Debug)]
pub(crate) struct CyclicVerdict {
    pub(crate) residue: DbSchema,
    pub(crate) survivors: Vec<usize>,
    pub(crate) edges: Vec<(usize, usize)>,
}

impl CyclicVerdict {
    /// The verdict as the public diagnostic.
    pub(crate) fn error(&self) -> EngineError {
        EngineError::Cyclic {
            residue: self.residue.clone(),
            survivors: self.survivors.clone(),
        }
    }
}

/// A compile outcome as the plan cache keeps it.
pub(crate) type Compiled = Result<Arc<FullReducerPlan>, Arc<CyclicVerdict>>;

/// A query/reduction engine: one strategy for making states globally
/// consistent and answering natural-join queries `(D, X)`.
///
/// An `Err` means the engine does not support the schema, or the query is
/// malformed, and says why: the semijoin engines are tree-only (full
/// reducers do not exist for cyclic schemas), so they return
/// [`EngineError::Cyclic`] with the stuck residue attached. [`NaiveEngine`]
/// and [`TreeifyEngine`](crate::TreeifyEngine) are **total** over schemas —
/// they never decline one. Every engine's `answer` returns
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

/// The per-call Yannakakis engine: re-runs the incremental GYO reduction to
/// rebuild the join tree on every call, then full-reduces and answers along
/// it. Tree schemas only; nothing is cached between calls — this is the
/// baseline that quantifies what [`FullReducerEngine`]'s plan cache buys.
#[derive(Clone, Copy, Debug, Default)]
pub struct IncrementalEngine;

impl Engine for IncrementalEngine {
    fn name(&self) -> &'static str {
        "incremental"
    }

    fn reduce(&self, d: &DbSchema, state: &DbState) -> Result<DbState, EngineError> {
        EngineError::check_state(d, state)?;
        full_reduce(d, state)
    }

    fn answer(&self, d: &DbSchema, state: &DbState, x: &AttrSet) -> Result<Relation, EngineError> {
        EngineError::check_target(d, x)?;
        EngineError::check_state(d, state)?;
        solve_tree_query(d, state, x)
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
    /// Compiles the plan for `d` from one GYO reduction; the cyclic
    /// verdict, with the reduction's subset-elimination edges, when `d` is
    /// cyclic.
    fn compile(d: &DbSchema) -> Result<Self, CyclicVerdict> {
        compile_tree(d).map(|rooted| Self::on_tree(d, rooted))
    }

    /// The plan along an already-rooted join tree of `d`.
    fn on_tree(d: &DbSchema, rooted: RootedTree) -> Self {
        let mut steps = Vec::new();
        if d.len() > 1 {
            let schemas = d.rels();
            steps.reserve_exact(2 * (d.len() - 1));
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

/// The cached Yannakakis engine: full-reducer plans compiled once per
/// schema and reused across calls.
///
/// The cache key is the schema's **exact relation list** (order and
/// multiplicity included), not [`DbSchema`]'s multiset equality — a plan's
/// step indices refer to relation positions, so two multiset-equal schemas
/// with different relation orders get distinct plans. Any change to the
/// schema therefore misses the cache and compiles afresh; stale plans are
/// unreachable by construction. Cyclic outcomes are cached too — with the
/// full [`EngineError`] diagnostic (the stuck residue and its survivor
/// indices) — so repeatedly querying a cyclic schema costs one lookup, not
/// one GYO reduction per call, and every repeat reports *which* cycle
/// blocked it.
#[derive(Debug, Default)]
pub struct FullReducerEngine {
    plans: Mutex<FxHashMap<Vec<AttrSet>, Compiled>>,
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

impl FullReducerEngine {
    /// A fresh engine with an empty plan cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cached plan for `d`, compiling on first sight.
    /// [`EngineError::Cyclic`] when `d` is cyclic — this negative outcome
    /// is cached as well, diagnostic included.
    pub fn plan(&self, d: &DbSchema) -> Result<Arc<FullReducerPlan>, EngineError> {
        self.compiled(d).map_err(|verdict| verdict.error())
    }

    /// [`plan`](Self::plan) with the cyclic verdict as cached, trace edges
    /// included.
    pub(crate) fn compiled(&self, d: &DbSchema) -> Compiled {
        if let Some(cached) = lock_cache(&self.plans).get(d.rels()) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return cached.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let compiled = FullReducerPlan::compile(d).map(Arc::new).map_err(Arc::new);
        lock_cache(&self.plans).insert(d.rels().to_vec(), compiled.clone());
        compiled
    }

    /// The cyclic verdict for `d` — read from the cache without counting a
    /// lookup, compiled on a miss; `None` when `d` is a tree schema.
    pub(crate) fn cyclic_verdict(&self, d: &DbSchema) -> Option<Arc<CyclicVerdict>> {
        let cached = lock_cache(&self.plans).get(d.rels()).cloned();
        cached.unwrap_or_else(|| self.compiled(d)).err()
    }

    /// The cached plan for the tree schema `d`, or on a miss the plan along
    /// the join tree that `edges` spell, for callers that know a join tree
    /// without reducing `d`. The edges pass [`JoinTree::try_new`]'s hard
    /// check first.
    ///
    /// # Panics
    ///
    /// Panics if `edges` are not a join tree of `d`, or `d` holds a cached
    /// cyclic verdict.
    pub(crate) fn plan_on_tree(
        &self,
        d: &DbSchema,
        edges: impl IntoIterator<Item = (usize, usize)>,
    ) -> Arc<FullReducerPlan> {
        if let Some(cached) = lock_cache(&self.plans).get(d.rels()) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return cached
                .clone()
                .expect("a schema with a join tree is not cyclic");
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let tree = JoinTree::try_new(QualGraph::new(d.len(), edges), d)
            .expect("the edges are a join tree of the schema");
        let plan = Arc::new(FullReducerPlan::on_tree(d, root_at_zero(d, &tree)));
        lock_cache(&self.plans).insert(d.rels().to_vec(), Ok(plan.clone()));
        plan
    }

    /// Drops every cached plan (the cache never *needs* manual
    /// invalidation — keys are schema identities — but long-lived engines
    /// can reclaim memory).
    pub fn clear_cache(&self) {
        lock_cache(&self.plans).clear();
    }

    /// Number of schemas with a cached outcome (including cached cyclic
    /// verdicts).
    pub fn cached_plan_count(&self) -> usize {
        lock_cache(&self.plans).len()
    }

    /// `(hits, misses)` of the plan cache since construction.
    #[cfg(test)]
    pub(crate) fn cache_stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Runs a compiled semijoin program over `rels` through the engine's
    /// reusable selection-vector scratch (falling back to a per-call
    /// scratch under contention). Shared by the full-reducer path and the
    /// treeify engine's extended-schema path.
    pub(crate) fn run_steps(&self, rels: &mut [Relation], steps: &[SemijoinStep]) {
        match try_lock_scratch(&self.scratch) {
            Some(mut scratch) => semijoin_program_with(rels, steps, &mut scratch),
            // Another thread is mid-reduction on this engine: run with a
            // fresh scratch instead of serializing behind the lock.
            None => semijoin_program_with(rels, steps, &mut ExecScratch::new()),
        }
    }

    /// Joins fully reduced relations up `rooted` and projects onto `x`
    /// through the flat executor ([`join_up_with`]) and the engine's
    /// reusable join-up scratch (a per-call scratch under contention).
    /// Shared by the tree answer path and the treeify engine's `X ⊄ W`
    /// path.
    pub(crate) fn join_up(&self, rels: &[Relation], rooted: &RootedTree, x: &AttrSet) -> Relation {
        match try_lock_scratch(&self.joinup) {
            Some(mut scratch) => join_up_with(rels, rooted, x, &mut scratch),
            None => join_up_with(rels, rooted, x, &mut JoinUpScratch::new()),
        }
    }

    pub(crate) fn reduce_with_plan(
        &self,
        d: &DbSchema,
        state: &DbState,
        plan: &FullReducerPlan,
    ) -> DbState {
        let mut rels = state.rels().to_vec();
        self.run_steps(&mut rels, plan.steps());
        DbState::new(d, rels)
    }

    /// The full answer pipeline over an already-compiled plan: reduce, then
    /// join up the tree with early projection through the flat executor.
    /// Shared by [`Engine::answer`] and the treeify engine's delegation
    /// path.
    pub(crate) fn answer_with_plan(
        &self,
        d: &DbSchema,
        state: &DbState,
        x: &AttrSet,
        plan: &FullReducerPlan,
    ) -> Relation {
        if d.is_empty() {
            return if x.is_empty() {
                Relation::identity()
            } else {
                Relation::empty(x.clone())
            };
        }
        let mut rels = state.rels().to_vec();
        self.run_steps(&mut rels, plan.steps());
        self.join_up(&rels, plan.rooted(), x)
    }
}

impl Engine for FullReducerEngine {
    fn name(&self) -> &'static str {
        "full_reducer_cached"
    }

    fn reduce(&self, d: &DbSchema, state: &DbState) -> Result<DbState, EngineError> {
        EngineError::check_state(d, state)?;
        let plan = self.plan(d)?;
        Ok(self.reduce_with_plan(d, state, &plan))
    }

    fn answer(&self, d: &DbSchema, state: &DbState, x: &AttrSet) -> Result<Relation, EngineError> {
        EngineError::check_target(d, x)?;
        EngineError::check_state(d, state)?;
        let plan = self.plan(d)?;
        Ok(self.answer_with_plan(d, state, x, &plan))
    }
}

/// The four standard engines, boxed for differential harnesses: the three
/// tree-path strategies plus the treeification-backed total engine.
pub fn standard_engines() -> Vec<Box<dyn Engine + Send + Sync>> {
    vec![
        Box::new(NaiveEngine),
        Box::new(IncrementalEngine),
        Box::new(FullReducerEngine::new()),
        Box::new(crate::TreeifyEngine::new()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn engines_agree_on_tree_schemas() {
        let mut cat = Catalog::alphabetic();
        let cached = FullReducerEngine::new();
        for s in ["ab, bc, cd", "abc, cde, ace, afe", "ab, cd", "abc"] {
            let d = db(s, &mut cat);
            let state = random_state(&d, 0xE1, 25, 4);
            let x = AttrSet::from_iter([
                d.attributes().iter().next().unwrap(),
                d.attributes().iter().last().unwrap(),
            ]);
            let naive = NaiveEngine;
            let incr = IncrementalEngine;
            let n_red = naive.reduce(&d, &state).unwrap();
            assert_eq!(incr.reduce(&d, &state).unwrap(), n_red, "{s}");
            assert_eq!(cached.reduce(&d, &state).unwrap(), n_red, "{s}");
            let n_ans = naive.answer(&d, &state, &x).unwrap();
            assert_eq!(incr.answer(&d, &state, &x).unwrap(), n_ans, "{s}");
            assert_eq!(cached.answer(&d, &state, &x).unwrap(), n_ans, "{s}");
        }
    }

    #[test]
    fn semijoin_engines_decline_cyclic_schemas_with_diagnostics() {
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc, ca", &mut cat);
        let state = random_state(&d, 7, 10, 3);
        let x = AttrSet::parse("ab", &mut cat).unwrap();
        let err = IncrementalEngine.reduce(&d, &state).unwrap_err();
        // The triangle is its own residue: nothing reduces.
        assert_eq!(err.residue(), Some(&d));
        assert_eq!(err.survivors(), Some(&[0, 1, 2][..]));
        let cached = FullReducerEngine::new();
        assert_eq!(cached.reduce(&d, &state).unwrap_err(), err);
        assert_eq!(cached.answer(&d, &state, &x).unwrap_err(), err);
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
        let state = random_state(&d, 8, 5, 3);
        let err = FullReducerEngine::new().reduce(&d, &state).unwrap_err();
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
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc, cd", &mut cat);
        let e = FullReducerEngine::new();
        assert_eq!(e.cache_stats(), (0, 0));
        assert!(e.plan(&d).is_ok());
        assert_eq!(e.cache_stats(), (0, 1), "first sight compiles");
        assert!(e.plan(&d).is_ok());
        assert!(e.plan(&d.clone()).is_ok());
        assert_eq!(e.cache_stats(), (2, 1), "repeats hit");
        assert_eq!(e.cached_plan_count(), 1);
    }

    #[test]
    fn cyclic_outcome_is_cached_too() {
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc, ca", &mut cat);
        let e = FullReducerEngine::new();
        let first = e.plan(&d).unwrap_err();
        let second = e.plan(&d).unwrap_err();
        assert_eq!(first, second, "cached verdicts keep the diagnostic");
        assert_eq!(first.residue(), Some(&d), "the triangle is its own residue");
        assert_eq!(e.cache_stats(), (1, 1));
        assert_eq!(e.cached_plan_count(), 1);
    }

    #[test]
    fn schema_change_misses_the_cache() {
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc", &mut cat);
        let e = FullReducerEngine::new();
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
        let e = FullReducerEngine::new();
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
        let e = FullReducerEngine::new();
        let plan = e.plan(&d).unwrap();
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
        let e = FullReducerEngine::new();
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
        let (d, state, x, want) = stray_target_case();
        assert_eq!(IncrementalEngine.answer(&d, &state, &x).unwrap_err(), want);
    }

    #[test]
    fn cached_engine_rejects_a_target_outside_the_schema() {
        let (d, state, x, want) = stray_target_case();
        let e = FullReducerEngine::new();
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
        assert_state_mismatch(&IncrementalEngine);
    }

    #[test]
    fn cached_engine_rejects_a_state_for_another_schema() {
        let e = FullReducerEngine::new();
        assert_state_mismatch(&e);
        assert_eq!(e.cached_plan_count(), 0, "checked before any plan work");
        let err = EngineError::StateMismatch { index: 1 };
        assert_eq!(
            err.to_string(),
            "database state does not match the schema at relation R1"
        );
    }

    #[test]
    fn a_poisoned_plan_cache_lock_recovers() {
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc, cd", &mut cat);
        let state = random_state(&d, 0x90, 20, 3);
        let x = AttrSet::parse("ad", &mut cat).unwrap();
        let e = FullReducerEngine::new();
        let want = e.answer(&d, &state, &x).unwrap();
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = e.plans.lock().unwrap();
                panic!("poison the plan cache");
            })
            .join()
            .is_err()
        });
        assert!(panicked && e.plans.is_poisoned());
        assert_eq!(e.answer(&d, &state, &x).unwrap(), want, "cached plan");
        assert_eq!(e.cached_plan_count(), 1);
        e.clear_cache();
        assert_eq!(e.answer(&d, &state, &x).unwrap(), want, "recompiled plan");
        assert_eq!(e.cache_stats(), (1, 2));
    }

    #[test]
    fn poisoned_scratch_locks_recover() {
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc, cd", &mut cat);
        let state = random_state(&d, 0x92, 30, 3);
        let x = AttrSet::parse("ad", &mut cat).unwrap();
        let e = FullReducerEngine::new();
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

    #[test]
    fn standard_engines_cover_the_four_paths() {
        let names: Vec<&str> = standard_engines().iter().map(|e| e.name()).collect();
        assert_eq!(
            names,
            ["naive", "incremental", "full_reducer_cached", "treeify"]
        );
    }
}
