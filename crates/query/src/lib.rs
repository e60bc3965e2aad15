//! Join queries over universal-relation databases: the algorithmic content
//! of §§4–6 of the paper.
//!
//! * [`query`] — the natural-join query `(D, X)` and its naive evaluation;
//! * [`equiv`] — weak containment/equivalence of queries over UR databases,
//!   decided three independent ways (canonical connections, containment
//!   mappings, and the frozen-tableau Chandra–Merlin oracle), plus the
//!   Theorem 4.1 / Corollary 4.1 join-only solvability criterion and the
//!   §6 irrelevant-relation pruning;
//! * [`lossless`] — lossless joins: `⋈D ⊨ ⋈D'` via Theorem 5.1 and the
//!   tree-schema subtree characterization (Corollary 5.2);
//! * [`program`] — §6 programs (join/project/semijoin statements), their
//!   schema mapping `P(D)`, execution, and empirical solvability checking;
//! * [`yannakakis`] — the full reducer and the tree-query solver that §4's
//!   "tree case" alludes to (semijoin programs à la Bernstein–Chiu);
//! * [`engine`] — the [`Engine`] trait over the definitional
//!   [`NaiveEngine`] and the planned, **total** [`TreeifyEngine`] (one
//!   plan cache and one scratch for every schema), and the [`EngineError`]
//!   diagnostics (the cyclicity one names the stuck GYO residue);
//! * [`treeify`] — §4's strategy for cyclic schemas, per call: materialize
//!   `U(GR(D))` (Corollary 3.2), then solve on the resulting tree schema;
//! * [`treeify_engine`] — the one plan type, [`TreeifyPlan`], that one GYO
//!   reduction compiles for any schema: a join tree over `D ∪ (W)` with its
//!   full reducer, where `W = U(GR(D))` is empty exactly on tree schemas;
//! * [`tp_solve`] — the Theorem 6.1/6.2 construction: augment a program
//!   holding a tree projection with ≤ 2·|D″| semijoins to solve `(D, X)`.

#![warn(missing_docs)]

pub mod engine;
pub mod equiv;
pub mod lossless;
pub mod optimize;
pub mod program;
pub mod query;
pub mod tp_solve;
pub mod treeify;
pub mod treeify_engine;
pub mod ujr;
pub mod ur_transform;
pub mod yannakakis;

pub use engine::{Engine, EngineError, NaiveEngine, TreeifyEngine};
pub use equiv::{
    joins_only_solvable, prune_irrelevant, weakly_contained_semantic, weakly_equivalent,
    weakly_equivalent_semantic, PrunedQuery,
};
pub use lossless::{implies_lossless, implies_lossless_semantic, min_equivalent_subschema};
pub use optimize::{eliminate_dead_statements, Slimmed};
pub use program::{Program, RelRef, Statement, StatementStats};
pub use query::JoinQuery;
pub use tp_solve::solve_with_tree_projection;
pub use treeify::{reduce_via_treeification, solve_via_treeification};
pub use treeify_engine::TreeifyPlan;
pub use ujr::{check_ujr, is_ujr, minimum_qual_graphs, UjrViolation};
pub use ur_transform::{is_ur_state, to_ur_state};
pub use yannakakis::{full_reduce, full_reducer_program, solve_tree_query};
