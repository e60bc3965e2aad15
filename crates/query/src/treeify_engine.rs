//! The plan one GYO reduction of `D` compiles to — the unit of
//! [`TreeifyEngine`](crate::TreeifyEngine)'s plan cache, of the per-call
//! [`solve_via_treeification`](crate::solve_via_treeification), and of the
//! tree-only [`full_reduce`](crate::full_reduce) and
//! [`solve_tree_query`](crate::solve_tree_query).
//!
//! Adding the single relation `W = U(GR(D))`, the attributes of the stuck
//! GYO residue, turns any schema into a tree schema (Theorem 3.2(ii)), and
//! no smaller relation does (Corollary 3.2); `W = ∅` exactly when `D` is a
//! tree schema. So every schema gets one [`TreeifyPlan`]: a rooted join
//! tree, its `2·(n−1)` semijoin steps and, for a cyclic schema, `W`, a join
//! order over the GYO survivors and the residue for
//! [`EngineError::Cyclic`]. A tree schema's plan is the `W = ∅` case: the
//! join tree its reduction's trace spells (Theorem 3.1), each eliminated
//! relation under its witness, rooted at the last survivor (node 0), with
//! no added node and an empty join order and residue. A cyclic schema's
//! tree is over `D ∪ (W)`, with `W` as node `d.len()`: the same trace, with
//! each survivor under `W` and `W` the root — `D ∪ (W)` is never reduced.
//! Trace order is already child-first, so the tree is rooted in one pass,
//! with no graph or search, and checked by
//! [`RootedTree::is_join_tree_of`]. The one data-dependent step cyclicity
//! adds is `state(W) = π_W(⋈ of the survivors' states)`.
//!
//! The tree of `D ∪ (W)` is rooted at `W`. An answer joins up only the
//! subtree that spans `X` (see [`crate::engine`]), so a target `X ⊆ W`
//! keeps `W` alone: the upward pass leaves `W` at `π_W(⋈D)`, and `π_X` of
//! it is the answer, with no downward pass and no join.
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
//! let plan = engine.treeified_plan(&ring, &err);
//! assert!(plan.is_cyclic());
//! assert_eq!(plan.w().to_notation(&cat), "abcd");
//! engine.answer(&ring, &state, &x).unwrap();
//! assert_eq!(engine.cached_treeified_count(), 1);
//! assert_eq!(engine.cache_stats(), (3, 1), "one miss, then hits");
//!
//! // A tree schema's plan is the W = ∅ case.
//! let chain = DbSchema::parse("ab, bc, cd", &mut cat).unwrap();
//! let plan = engine.plan(&chain).unwrap();
//! assert!(!plan.is_cyclic() && plan.w().is_empty());
//! assert_eq!(plan.steps().len(), 2 * (3 - 1));
//! ```

use gyo_reduce::gyo_reduce;
use gyo_relation::{join_up_with, DbState, ExecScratch, Relation, SemijoinStep};
use gyo_schema::{AttrSet, DbSchema, RootedTree};

use crate::engine::EngineError;
use crate::program::Program;

/// The compiled plan for one schema `D`, tree or cyclic: everything about
/// `D ∪ (U(GR(D)))` that does not depend on data, compiled from one GYO
/// reduction of `D`. Node `v` of the join tree has schema `d.rel(v)`, or
/// `W` for node `d.len()` of a cyclic plan.
#[derive(Clone, Debug)]
pub struct TreeifyPlan {
    /// `W = U(GR(D))`, the treeifying relation (Corollary 3.2); `∅` for a
    /// tree schema.
    w: AttrSet,
    /// The join tree the plan reduces along: of `D` rooted at node 0 for a
    /// tree schema, of `D ∪ (W)` rooted at `W` for a cyclic one.
    rooted: RootedTree,
    /// The full reducer along `rooted`: the upward pass, then the
    /// downward pass.
    steps: Vec<SemijoinStep>,
    /// Positions into `survivors` and `residue`, in a connectivity-greedy
    /// join order (each next survivor shares attributes with the
    /// already-joined prefix whenever the residue permits, so `state(W)`
    /// materializes without intermediate cross products on connected
    /// residues). Survivor `k`'s core `Rᵢ ∩ W` is its residue relation
    /// `residue.rel(k)`: an attribute GYO deleted from `Rᵢ` was isolated
    /// when deleted, so no other survivor holds it and it is not in `W`.
    /// Projecting onto the cores *before* joining is sound for the same
    /// reason: every non-`W` attribute is private to one survivor and
    /// contributes nothing to `π_W`, and would only inflate the join's
    /// intermediates. Empty for a tree schema.
    join_order: Vec<usize>,
    /// The join order as a path for [`join_up_with`]: node `k` is the
    /// `k`-th survivor and the child of node `k + 1`, and the last node is
    /// the root. Joining up this path is the left-deep join in that order.
    w_path: RootedTree,
    /// `GR(D)`, the stuck residue, and its members' indices into `D`, in
    /// GYO order: the [`EngineError::Cyclic`] diagnostic. Both empty for a
    /// tree schema.
    residue: DbSchema,
    survivors: Vec<usize>,
}

impl TreeifyPlan {
    /// Compiles the plan from one GYO reduction of `d`, with no second
    /// reduction: the reduction's own trace is the rooted join tree, and
    /// when it is stuck, the residue gives `W` and the survivors.
    ///
    /// A total reduction's subset eliminations, each eliminated relation
    /// under its witness, form a join tree of `D` rooted at the last
    /// survivor, node 0 (Theorem 3.1). A stuck one's eliminations plus each
    /// survivor under `W` form one of `D ∪ (W)` rooted at `W`, the proof of
    /// Theorem 3.2(ii): every step of `D`'s trace stays legal in `D ∪ (W)`,
    /// since a deleted attribute was isolated when deleted, so it is in no
    /// survivor and not in `W`, and `W` changes no holder count. After
    /// those steps every survivor is a subset of `W`, so eliminating each
    /// into `W` makes the reduction total. Either way the tree still passes
    /// [`RootedTree::is_join_tree_of`]'s hard check, in release builds too.
    pub(crate) fn compile(d: &DbSchema) -> Self {
        let red = gyo_reduce(d, &AttrSet::empty());
        let cyclic = !red.is_total();
        let w = if cyclic {
            red.result.attributes()
        } else {
            AttrSet::empty()
        };
        let extended;
        let schema = if cyclic {
            extended = d.with_rel(w.clone());
            &extended
        } else {
            d
        };
        // Trace order is child-first: a witness is alive when a relation is
        // eliminated into it. The survivors come next, under `W` when
        // cyclic, and `W` last. A total reduction's one survivor is the
        // root: its parent stays itself.
        let w_node = d.len();
        let mut parent: Vec<usize> = (0..schema.len()).collect();
        let mut post_order = Vec::with_capacity(schema.len());
        for (removed, witness) in red.elimination_edges() {
            parent[removed] = witness;
            post_order.push(removed);
        }
        post_order.extend_from_slice(&red.survivors);
        if cyclic {
            for &s in &red.survivors {
                parent[s] = w_node;
            }
            post_order.push(w_node);
        }
        let rooted = RootedTree {
            root: post_order.last().copied().unwrap_or(0),
            parent,
            post_order,
        };
        assert!(
            rooted.is_join_tree_of(|v| schema.rel(v)),
            "Theorems 3.1 and 3.2(ii): the trace (plus the W edges) is a join tree"
        );
        let schemas = schema.rels();
        let mut steps = Vec::with_capacity(2 * schemas.len().saturating_sub(1));
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
        let (residue, survivors) = if cyclic {
            (red.result, red.survivors)
        } else {
            Default::default()
        };
        let join_order = connected_order(&residue);
        let k = join_order.len();
        let w_path = RootedTree {
            root: k.saturating_sub(1),
            parent: (0..k).map(|v| (v + 1).min(k - 1)).collect(),
            post_order: (0..k).collect(),
        };
        Self {
            w,
            rooted,
            steps,
            join_order,
            w_path,
            residue,
            survivors,
        }
    }

    /// Whether `D` is cyclic, so the plan runs over `D ∪ (W)`.
    pub fn is_cyclic(&self) -> bool {
        !self.survivors.is_empty()
    }

    /// The treeifying relation `W = U(GR(D))`; empty for a tree schema.
    pub fn w(&self) -> &AttrSet {
        &self.w
    }

    /// Survivor indices in the order their states are joined into
    /// `state(W)`; empty for a tree schema.
    pub fn join_order(&self) -> Vec<usize> {
        self.join_order.iter().map(|&k| self.survivors[k]).collect()
    }

    /// The plan itself. Kept so that callers written against the former
    /// split into a treeify plan and the full-reducer plan it wrapped (the
    /// `perfbench` harness calls `tree_plan().steps()`) still compile
    /// unchanged.
    #[doc(hidden)]
    pub fn tree_plan(&self) -> &Self {
        self
    }

    /// The compiled semijoin steps, upward pass then downward pass: the
    /// full reducer of `D`, or of `D ∪ (W)` for a cyclic plan.
    pub fn steps(&self) -> &[SemijoinStep] {
        &self.steps
    }

    /// The rooted join tree the plan reduces along: of `D` rooted at node
    /// 0, or of `D ∪ (W)` rooted at `W` (node `d.len()`) for a cyclic plan.
    ///
    /// For the **empty schema** the tree has no nodes: `parent` and
    /// `post_order` are empty and `root` is a placeholder `0` that must
    /// not be used as an index.
    pub fn rooted(&self) -> &RootedTree {
        &self.rooted
    }

    /// The plan as a §6 semijoin [`Program`] (new-relation semantics) over
    /// `d`, the schema the plan was compiled for — over `D ∪ (W)` when the
    /// plan is cyclic. Built on each call from [`TreeifyPlan::steps`], one
    /// statement per step; compiling a plan never builds one.
    ///
    /// # Panics
    ///
    /// Panics if `d` has another number of relations than the plan's `D`.
    pub fn program(&self, d: &DbSchema) -> Program {
        assert_eq!(
            d.len() + usize::from(self.is_cyclic()),
            self.rooted.parent.len(),
            "a plan's program is over the schema it was compiled for"
        );
        let base = if self.is_cyclic() {
            d.with_rel(self.w.clone())
        } else {
            d.clone()
        };
        // current[v] = the latest program relation holding node v's state.
        let mut current: Vec<usize> = (0..base.len()).collect();
        let mut p = Program::new(base);
        for step in &self.steps {
            current[step.target()] = p.semijoin(current[step.target()], current[step.source()]);
        }
        p
    }

    /// The GYO survivors' indices into `D`, in GYO order; empty for a tree
    /// schema.
    pub(crate) fn survivors(&self) -> &[usize] {
        &self.survivors
    }

    /// [`EngineError::Cyclic`], the diagnostic the tree-only entry points
    /// report, when the plan is cyclic.
    pub(crate) fn check_tree(&self) -> Result<(), EngineError> {
        if self.is_cyclic() {
            Err(EngineError::Cyclic {
                residue: self.residue.clone(),
                survivors: self.survivors.clone(),
            })
        } else {
            Ok(())
        }
    }

    /// The schema of node `v`: `d.rel(v)`, or `W` for node `d.len()`.
    fn node_schema<'a>(&'a self, d: &'a DbSchema, v: usize) -> &'a AttrSet {
        d.rels().get(v).unwrap_or(&self.w)
    }

    /// Fills `kept` with the nodes an answer `π_X` reads: the root, and
    /// each non-root `v` with `X ∩ U(subtree(v)) ⊄ R_parent(v)`. `d` is the
    /// schema the plan was compiled for.
    ///
    /// On a join tree that condition says some node of `v`'s subtree is the
    /// topmost holder of an attribute of `X`: an attribute held both below
    /// `v` and by `v`'s parent is held by every node in between. So one
    /// post-order pass marks each topmost holder and its ancestors, with no
    /// per-node attribute set.
    pub(crate) fn kept_nodes(&self, d: &DbSchema, x: &AttrSet, kept: &mut Vec<bool>) {
        let rooted = &self.rooted;
        kept.clear();
        kept.resize(rooted.parent.len(), false);
        for &v in &rooted.post_order {
            let p = rooted.parent[v];
            let parent = self.node_schema(d, p);
            // A kept child has already marked `v`.
            kept[v] = kept[v]
                || v == rooted.root
                || self
                    .node_schema(d, v)
                    .iter()
                    .any(|a| x.contains(a) && !parent.contains(a));
            if kept[v] {
                kept[p] = true;
            }
        }
    }

    /// The steps of an answer over the `kept` nodes: the whole upward pass,
    /// which leaves the root fully reduced, then the downward steps into
    /// kept nodes. The downward pass visits parents first, so each kept
    /// node is semijoined with a fully reduced parent and ends fully
    /// reduced; the other nodes are never read.
    pub(crate) fn answer_steps<'a>(
        &'a self,
        kept: &'a [bool],
    ) -> impl Iterator<Item = &'a SemijoinStep> + 'a {
        let (up, down) = self.steps.split_at(self.steps.len() / 2);
        up.iter()
            .chain(down.iter().filter(move |step| kept[step.target()]))
    }

    /// `state(W) = π_W(⋈ of the survivors' states)`, joined in the plan's
    /// connectivity order with each survivor pre-projected onto its core
    /// `Rᵢ ∩ W`, its residue relation (a clone when the survivor lies
    /// inside `W`) — the one data-dependent step cyclicity forces. The
    /// joins run on the flat join-up executor along [`Self::w_path`]:
    /// intermediates stay unsorted in `scratch`'s reused buffers, an empty
    /// join ends the build early, and only the result is normalized. The
    /// cores cover `W` exactly, so no join-up projection drops anything.
    pub(crate) fn materialize_w(&self, state: &DbState, scratch: &mut ExecScratch) -> Relation {
        let cores: Vec<Relation> = self
            .join_order
            .iter()
            .map(|&k| state.rel(self.survivors[k]).project(self.residue.rel(k)))
            .collect();
        let kept = vec![true; cores.len()];
        join_up_with(&cores, &self.w_path, &kept, &self.w, scratch)
    }
}

/// Orders the `residue`'s relations greedily by connectivity, as
/// positions: start from the first, and repeatedly append one sharing an
/// attribute with the accumulated attribute set, falling back to the next
/// unvisited one when the residue is disconnected (where a cross product is
/// inherent to `W` anyway).
fn connected_order(residue: &DbSchema) -> Vec<usize> {
    let mut order = Vec::with_capacity(residue.len());
    let mut remaining: Vec<usize> = (0..residue.len()).collect();
    let mut seen = AttrSet::empty();
    while !remaining.is_empty() {
        let pick = remaining
            .iter()
            .position(|&k| residue.rel(k).intersects(&seen))
            .unwrap_or(0);
        let k = remaining.remove(pick);
        seen = seen.union(residue.rel(k));
        order.push(k);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crate::engine::tests::{db, kept_of, poison_plan_cache, random_state};
    use crate::{Engine, NaiveEngine, TreeifyEngine};
    use gyo_schema::{Catalog, JoinTree, QualGraph};
    use gyo_workloads::{aring_n, engine_families, grid, random_cyclic_schema, tpch_like_cyclic};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn w_is_empty_exactly_on_tree_schemas() {
        // Every engine family (tree and cyclic) at three scales, more
        // rings, grids and random cyclic draws, and degenerate tree
        // schemas: one relation, disconnected, duplicated, and empty.
        let mut rng = StdRng::seed_from_u64(0x13);
        let mut schemas: Vec<DbSchema> = [3, 8, 16]
            .into_iter()
            .flat_map(|scale| engine_families(&mut rng, scale))
            .map(|family| family.schema)
            .collect();
        schemas.extend([aring_n(3), aring_n(7), grid(2, 3), grid(3, 3)]);
        schemas.push(tpch_like_cyclic());
        schemas.extend((0..4).map(|_| random_cyclic_schema(&mut rng, 5, 6, 3, 20)));
        let mut cat = Catalog::alphabetic();
        schemas.extend(["abc", "ab, cd", "ab, ab, bc"].map(|s| db(s, &mut cat)));
        schemas.push(DbSchema::empty());

        let engine = TreeifyEngine::new();
        let (mut trees, mut cyclic) = (0, 0);
        for d in &schemas {
            let verdict = engine.plan(d);
            let plan = match &verdict {
                Ok(tree) => {
                    // `err` is ignored: a tree schema's plan comes back.
                    let ignored = EngineError::StateMismatch { index: 0 };
                    let plan = engine.treeified_plan(d, &ignored);
                    assert!(Arc::ptr_eq(&plan, tree), "{d:?}");
                    trees += 1;
                    plan
                }
                Err(err) => {
                    cyclic += 1;
                    engine.treeified_plan(d, err)
                }
            };
            // An independent GR computation.
            assert_eq!(plan.w(), &gyo_reduce::treeifying_relation(d), "{d:?}");
            assert_eq!(plan.w().is_empty(), !plan.is_cyclic(), "{d:?}");
            assert_eq!(plan.is_cyclic(), verdict.is_err(), "{d:?}");
            assert_eq!(plan.is_cyclic(), !gyo_reduce::is_tree_schema(d), "{d:?}");
            assert_eq!(plan.join_order().is_empty(), !plan.is_cyclic(), "{d:?}");
            let nodes = d.len() + usize::from(plan.is_cyclic());
            let rooted = plan.rooted();
            assert_eq!(rooted.parent.len(), nodes, "{d:?}");
            assert_eq!(plan.steps().len(), 2 * nodes.saturating_sub(1), "{d:?}");
            // The trace-rooted tree against the union-find check the
            // compile no longer runs: its edges are a join tree of D or of
            // D ∪ (W), rooted at node 0 or at W.
            let schema = if plan.is_cyclic() {
                d.with_rel(plan.w().clone())
            } else {
                d.clone()
            };
            let edges = (0..nodes)
                .filter(|&v| v != rooted.root)
                .map(|v| (v, rooted.parent[v]));
            let graph = QualGraph::new(nodes, edges);
            assert!(JoinTree::try_new(graph, &schema).is_some(), "{d:?}");
            let root = if plan.is_cyclic() { d.len() } else { 0 };
            assert_eq!(rooted.root, root, "{d:?}");
            // Each survivor's core is its residue relation.
            for (k, &i) in plan.survivors.iter().enumerate() {
                assert_eq!(&d.rel(i).intersect(plan.w()), plan.residue.rel(k), "{d:?}");
            }
        }
        assert!(
            trees >= 10 && cyclic >= 10,
            "{trees} trees, {cyclic} cyclic"
        );
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
    fn tree_schemas_share_the_one_plan_cache() {
        // A tree schema's plan, compiled by an answer, is the one `plan`
        // returns; `inner()` is the engine itself.
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
        assert!(plan.is_cyclic());
        let extended = d.with_rel(plan.w().clone());
        assert!(
            gyo_reduce::is_tree_schema(&extended),
            "D ∪ (W) is a tree schema"
        );
        assert_eq!(plan.rooted().parent.len(), extended.len());
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
        assert_eq!(plan.steps().len(), 2 * (extended.len() - 1));
        assert_eq!(plan.program(&d).len(), plan.steps().len());
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
    fn state_w_matches_the_operator_at_a_time_join() {
        // Residues with key widths 1, 2 and 3, survivors with private
        // attributes (projected onto their cores first), and a disconnected
        // residue (a cross product). Each state mixes two universal
        // relations, so some W-joins come out empty.
        let mut cat = Catalog::alphabetic();
        let engine = TreeifyEngine::new();
        let mut scratch = ExecScratch::new();
        let (mut empty, mut nonempty) = (0, 0);
        for s in [
            "ab, bc, ca",
            "ab, bc, cd, da, ax, cy",
            "abcd, cdef, efab",
            "abcdef, defghi, ghiabc",
            "abx, bcy, caz",
            "ab, bc, ca, xy, yz, zx",
        ] {
            let d = db(s, &mut cat);
            let plan = engine.treeified_plan(&d, &engine.plan(&d).unwrap_err());
            for seed in 0..8u64 {
                let mixed = (0..d.len())
                    .map(|i| {
                        random_state(&d, 2 * seed + i as u64 % 2, 12, 3)
                            .rel(i)
                            .clone()
                    })
                    .collect();
                let state = DbState::new(&d, mixed);
                let want = plan
                    .join_order()
                    .iter()
                    .fold(Relation::identity(), |acc, &i| {
                        acc.natural_join(&state.rel(i).project(&d.rel(i).intersect(plan.w())))
                    });
                let got = plan.materialize_w(&state, &mut scratch);
                assert_eq!(got, want, "{s}, seed {seed}");
                if got.is_empty() {
                    empty += 1;
                } else {
                    nonempty += 1;
                }
            }
        }
        assert!(empty > 0 && nonempty > 0, "{empty} empty, {nonempty} not");
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
    fn a_target_inside_w_keeps_only_w() {
        // The extended tree is rooted at W, so X ⊆ W keeps the root alone,
        // and a target reaching the pendants keeps the pendants too.
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc, cd, da, ax, cy", &mut cat);
        let plan = TreeifyPlan::compile(&d);
        let w_node = d.len();
        assert_eq!(plan.rooted().root, w_node, "rooted at W");
        for (xs, want) in [("ac", vec![w_node]), ("", vec![w_node])] {
            let x = AttrSet::parse(xs, &mut cat).unwrap();
            assert_eq!(kept_of(&plan, &d, &x), want, "X = {xs}");
        }
        // ax hangs below ab and cy below bc, both children of W.
        let x = AttrSet::parse("xy", &mut cat).unwrap();
        assert_eq!(kept_of(&plan, &d, &x), vec![0, 1, 4, 5, w_node]);
    }

    #[test]
    fn answers_targets_outside_w() {
        // Pendant attributes are GYO-deleted, so they sit outside W; the
        // answer must join the pendants' relations in rather than project W.
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
