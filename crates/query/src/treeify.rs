//! §4's strategy for cyclic schemas: add the Corollary 3.2 relation
//! `W = U(GR(D))`, materialize a state for it with joins and projects, and
//! solve the resulting *tree* schema with semijoins.
//!
//! Corollary 3.2 says `W` is the least-cardinality single relation schema
//! whose addition turns `D` into a tree schema (Theorem 3.2(ii)/(iii)). The
//! W-state is built by joining the original relations that correspond to
//! GYO survivors (the "cyclic core") and projecting onto `W` — the
//! expensive step that cyclicity forces; everything after is linear
//! semijoin processing.
//!
//! The functions here — [`solve_via_treeification`] for answers,
//! [`reduce_via_treeification`] for full reductions — are deliberately
//! **per-call**: every invocation compiles an uncached plan (one GYO
//! reduction of `D`, none of `D ∪ (W)`), joins `state(W)` from the
//! survivors' whole states, and runs operator-at-a-time along the plan's
//! rooted tree — one `Relation::semijoin` per step and the
//! `Relation::project` + `Relation::natural_join` join-up. They are the
//! reference implementations (and benchmark foils) for
//! [`TreeifyEngine`](crate::TreeifyEngine), which caches the same plan per
//! schema and runs it on the selection-vector and flat join-up executors;
//! the `classify/engines/treeify_*` bench family measures what the cache
//! and the executors buy.
//!
//! # Examples
//!
//! The 4-ring is cyclic, yet treeification answers it exactly:
//!
//! ```
//! use gyo_schema::{AttrSet, Catalog, DbSchema};
//! use gyo_relation::{DbState, Relation};
//! use gyo_query::{reduce_via_treeification, solve_via_treeification};
//!
//! let mut cat = Catalog::alphabetic();
//! let ring = DbSchema::parse("ab, bc, cd, da", &mut cat).unwrap();
//! let i = Relation::new(
//!     ring.attributes(),
//!     vec![vec![1, 1, 1, 1], vec![1, 2, 1, 2], vec![2, 2, 2, 2]],
//! );
//! let state = DbState::from_universal(&i, &ring);
//!
//! let x = AttrSet::parse("ac", &mut cat).unwrap();
//! assert_eq!(
//!     solve_via_treeification(&ring, &state, &x),
//!     state.eval_join_query(&x),
//! );
//!
//! // Full reduction via the same route: every relation drops to its
//! // projection of the total join — on any schema, cyclic included.
//! let reduced = reduce_via_treeification(&ring, &state);
//! let total = state.join_all();
//! for (k, r) in ring.iter().enumerate() {
//!     assert_eq!(reduced.rel(k), &total.project(r));
//! }
//! ```

use gyo_relation::{DbState, Relation};
use gyo_schema::{AttrSet, DbSchema};

use crate::engine::EngineError;
use crate::treeify_engine::TreeifyPlan;
use crate::yannakakis::join_up_tree;

/// Solves `(D, X)` on a cyclic (or tree) schema via treeification:
///
/// 1. compute `W = U(GR(D))` and the GYO survivors;
/// 2. `state(W) := π_W(⋈ of the survivors' original states)`;
/// 3. run the tree-query solver on `D ∪ (W)`.
///
/// For tree schemas `W = ∅` and the procedure degenerates to the plain
/// tree solver. Returns the query answer (always succeeds).
///
/// # Panics
///
/// Panics if `X ⊄ U(D)` or the state does not match `d`.
pub fn solve_via_treeification(d: &DbSchema, state: &DbState, x: &AttrSet) -> Relation {
    assert!(
        x.is_subset(&d.attributes()),
        "target X must be a subset of U(D)"
    );
    assert_state(d, state);
    let plan = TreeifyPlan::compile(d);
    join_up_tree(&reduced(&plan, state), x, plan.rooted())
}

/// Fully reduces a state over **any** schema — cyclic included — via
/// treeification: materialize `state(W)` for `W = U(GR(D))`, full-reduce
/// the extended tree state `D ∪ (W)`, and drop the `W` slot. The result is
/// globally consistent (`result[i] = π_{Rᵢ}(⋈ state)` for every `i`), the
/// same state [`NaiveEngine`](crate::NaiveEngine) reaches by materializing
/// the monolithic join — because `⋈(D ∪ (W)) = ⋈D` (the added relation is
/// a projection of a superset of the total join, so it filters nothing).
///
/// For tree schemas `W = ∅` and this is plain full reduction. Per-call,
/// like everything in this module; [`TreeifyEngine`](crate::TreeifyEngine)
/// is the cached counterpart.
///
/// # Panics
///
/// Panics if the state does not match `d`.
pub fn reduce_via_treeification(d: &DbSchema, state: &DbState) -> DbState {
    assert_state(d, state);
    let mut rels = reduced(&TreeifyPlan::compile(d), state);
    rels.truncate(d.len());
    DbState::new(d, rels)
}

/// Panics with the typed error's message if `state` does not match `d`.
fn assert_state(d: &DbSchema, state: &DbState) {
    if let Err(err) = EngineError::check_state(d, state) {
        panic!("{err}");
    }
}

/// The per-call pipeline: the state's relations, with `state(W)` pushed
/// last when `plan` is cyclic, fully reduced one `Relation::semijoin` at a
/// time along the plan's steps. The caller has checked that `state`
/// matches the plan's schema.
pub(crate) fn reduced(plan: &TreeifyPlan, state: &DbState) -> Vec<Relation> {
    let mut rels = state.rels().to_vec();
    if plan.is_cyclic() {
        // Join the survivors' whole states, then project onto W once.
        let joined = plan
            .survivors()
            .iter()
            .fold(Relation::identity(), |acc, &i| {
                acc.natural_join(state.rel(i))
            });
        rels.push(joined.project(plan.w()));
    }
    for step in plan.steps() {
        rels[step.target()] = rels[step.target()].semijoin(&rels[step.source()]);
    }
    rels
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

    #[test]
    fn ring_query_solved_correctly() {
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc, cd, da", &mut cat);
        let x = AttrSet::parse("ac", &mut cat).unwrap();
        let mut rng = StdRng::seed_from_u64(41);
        for round in 0..8 {
            let i = gyo_workloads::random_universal(&mut rng, &d.attributes(), 30, 3);
            let state = DbState::from_universal(&i, &d);
            assert_eq!(
                solve_via_treeification(&d, &state, &x),
                state.eval_join_query(&x),
                "round {round}"
            );
        }
    }

    #[test]
    fn clique_query_solved_correctly() {
        let mut cat = Catalog::alphabetic();
        let d = db("bcd, acd, abd, abc", &mut cat);
        let x = AttrSet::parse("ab", &mut cat).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        for round in 0..5 {
            let i = gyo_workloads::random_universal(&mut rng, &d.attributes(), 25, 3);
            let state = DbState::from_universal(&i, &d);
            assert_eq!(
                solve_via_treeification(&d, &state, &x),
                state.eval_join_query(&x),
                "round {round}"
            );
        }
    }

    #[test]
    fn reduce_via_treeification_reaches_global_consistency() {
        let mut cat = Catalog::alphabetic();
        let mut rng = StdRng::seed_from_u64(45);
        for s in ["ab, bc, ca", "ab, bc, cd, da", "ab, bc, cd, da, ax, cy"] {
            let d = db(s, &mut cat);
            for round in 0..4 {
                let i = gyo_workloads::random_universal(&mut rng, &d.attributes(), 25, 3);
                let state = DbState::from_universal(&i, &d);
                let reduced = reduce_via_treeification(&d, &state);
                let total = state.join_all();
                for (k, r) in d.iter().enumerate() {
                    let expected = if total.is_empty() {
                        Relation::empty(r.clone())
                    } else {
                        total.project(r)
                    };
                    assert_eq!(reduced.rel(k), &expected, "{s} round {round} node {k}");
                }
            }
        }
    }

    #[test]
    fn tree_schema_degenerates_to_tree_solver() {
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc, cd", &mut cat);
        let x = AttrSet::parse("ad", &mut cat).unwrap();
        let mut rng = StdRng::seed_from_u64(43);
        let i = gyo_workloads::random_universal(&mut rng, &d.attributes(), 20, 3);
        let state = DbState::from_universal(&i, &d);
        assert_eq!(
            solve_via_treeification(&d, &state, &x),
            state.eval_join_query(&x)
        );
    }

    #[test]
    fn partially_cyclic_schema_joins_only_the_core() {
        // A ring with two pendant relations: survivors are the ring, the
        // pendants are handled by semijoins.
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc, cd, da, ax, cy", &mut cat);
        let x = AttrSet::parse("xy", &mut cat).unwrap();
        let red = gyo_reduce::gyo_reduce(&d, &AttrSet::empty());
        assert_eq!(red.survivors.len(), 4, "only the ring survives GYO");
        let mut rng = StdRng::seed_from_u64(44);
        for round in 0..5 {
            let i = gyo_workloads::random_universal(&mut rng, &d.attributes(), 30, 3);
            let state = DbState::from_universal(&i, &d);
            assert_eq!(
                solve_via_treeification(&d, &state, &x),
                state.eval_join_query(&x),
                "round {round}"
            );
        }
    }
}
