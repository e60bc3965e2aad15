//! # gyo
//!
//! A complete implementation of Goodman, Shmueli & Tay, *"GYO Reductions,
//! Canonical Connections, Tree and Cyclic Schemas, and Tree Projections"*
//! (PODS 1983 / JCSS 29:338–358, 1984) — the foundational theory of acyclic
//! join processing — together with the relational substrate needed to run
//! every construction on real data.
//!
//! Each module below re-exports one of the workspace's library crates; the
//! repository's examples, integration tests and benches all import this
//! one crate.
//!
//! ## Map of the library
//!
//! | Paper concept | Module / item |
//! |---|---|
//! | attributes, relation & database schemas (§2) | [`schema`]: [`AttrSet`], [`DbSchema`], [`Catalog`] |
//! | qual graphs, qual (join) trees (§3.1) | [`schema`]: [`QualGraph`], [`JoinTree`] |
//! | GYO reduction `GR(D, X)` (§3.3) | [`mod@reduce`]: [`fn@gyo_reduce`], [`gr`], [`Reduction`] |
//! | tree vs cyclic schemas (Cor. 3.1) | [`mod@reduce`]: [`is_tree_schema`], [`classify`] |
//! | Arings, Acliques, Lemma 3.1 | [`mod@reduce`]: [`aring`], [`aclique`], [`find_cyclic_core`] |
//! | treeifying relation `U(GR(D))` (Cor. 3.2) | [`mod@reduce`]: [`treeifying_relation`] |
//! | subtrees of tree schemas (Thm 3.1) | [`mod@reduce`]: [`is_subtree`], [`join_tree_from_trace`] |
//! | tableaux, containment mappings (§3.4) | [`tableau`]: [`Tableau`], [`find_containment`] |
//! | canonical connection `CC(D, X)` (§3.4, Thm 3.3) | [`tableau`]: [`canonical_connection`] |
//! | weak equivalence of join queries (§4, Thm 4.1) | [`query`]: [`weakly_equivalent`], [`joins_only_solvable`] |
//! | fixed treefication, NP-completeness (Thm 4.2) | [`treefy`] |
//! | lossless joins (§5, Thm 5.1, Cor. 5.2) | [`query`]: [`implies_lossless`] |
//! | γ-acyclicity (§5.2, Thm 5.3) | [`gamma`]: [`is_gamma_acyclic`], [`find_weak_gamma_cycle`] |
//! | programs, `P(D)` (§6) | [`query`]: [`Program`] |
//! | full reducers, tree queries (§4 "tree case") | [`query`]: [`full_reduce`], [`solve_tree_query`], [`TreeifyPlan`] |
//! | query engines; cyclic schemas via treeification (§4, Thm 3.2(ii), Cor. 3.2) | [`query`]: [`Engine`], [`NaiveEngine`], [`TreeifyEngine`], [`solve_via_treeification`] |
//! | cyclicity diagnostics (stuck GYO residue) | [`query`]: [`EngineError`] |
//! | tree projections (§3.2, Thms 6.1–6.4) | [`treeproj`], [`query`]: [`solve_with_tree_projection`] |
//! | relational algebra over UR databases | [`relation`]: [`Relation`], [`DbState`] |
//!
//! ## Quickstart
//!
//! ```
//! use gyo::prelude::*;
//!
//! let mut cat = Catalog::alphabetic();
//! let d = DbSchema::parse("ab, bc, cd, da", &mut cat).unwrap();
//!
//! // The 4-ring is cyclic…
//! assert_eq!(classify(&d), SchemaKind::Cyclic);
//! // …and the cheapest relation fixing that is all four attributes.
//! assert_eq!(treeifying_relation(&d).to_notation(&cat), "abcd");
//!
//! // Canonical connections prune joins: for the chain, only the spine
//! // between a and c matters.
//! let chain = DbSchema::parse("ab, bc, cd", &mut cat).unwrap();
//! let x = AttrSet::parse("ac", &mut cat).unwrap();
//! let cc = canonical_connection(&chain, &x);
//! assert_eq!(cc.to_notation(&cat), "(ab, bc)");
//! ```

#![warn(missing_docs)]

pub use gyo_gamma as gamma;
pub use gyo_query as query;
pub use gyo_reduce as reduce;
pub use gyo_relation as relation;
pub use gyo_schema as schema;
pub use gyo_tableau as tableau;
pub use gyo_treefy as treefy;
pub use gyo_treeproj as treeproj;

pub use gyo_gamma::{
    acyclicity_report, find_weak_gamma_cycle, is_beta_acyclic, is_gamma_acyclic, AcyclicityLevel,
    AcyclicityReport, GammaCycle,
};
pub use gyo_query::{
    full_reduce, implies_lossless, joins_only_solvable, prune_irrelevant, reduce_via_treeification,
    solve_tree_query, solve_via_treeification, solve_with_tree_projection, weakly_equivalent,
    Engine, EngineError, JoinQuery, NaiveEngine, Program, TreeifyEngine, TreeifyPlan,
};
pub use gyo_reduce::{
    aclique, aring, classify, find_cyclic_core, gr, gyo_reduce, is_subtree, is_tree_schema,
    join_tree_from_trace, treeifying_relation, CoreKind, Reduction, SchemaKind,
};
pub use gyo_relation::{DbState, Relation};
pub use gyo_schema::{AttrId, AttrSet, Catalog, DbSchema, JoinTree, QualGraph};
pub use gyo_tableau::{canonical_connection, evaluate, find_containment, minimize, Tableau};

/// Everything a typical user needs, importable in one line.
pub mod prelude {
    pub use gyo_gamma::{find_weak_gamma_cycle, is_gamma_acyclic};
    pub use gyo_query::{
        implies_lossless, joins_only_solvable, prune_irrelevant, solve_tree_query,
        solve_via_treeification, weakly_equivalent, Engine, EngineError, JoinQuery, NaiveEngine,
        Program, TreeifyEngine,
    };
    pub use gyo_reduce::{
        classify, find_cyclic_core, gr, gyo_reduce, is_subtree, is_tree_schema,
        treeifying_relation, SchemaKind,
    };
    pub use gyo_relation::{DbState, Relation};
    pub use gyo_schema::{AttrId, AttrSet, Catalog, DbSchema, JoinTree, QualGraph};
    pub use gyo_tableau::{canonical_connection, Tableau};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let mut cat = Catalog::alphabetic();
        let d = DbSchema::parse("abc, cde, ace, afe", &mut cat).unwrap();
        assert_eq!(classify(&d), SchemaKind::Tree);
        let x = AttrSet::parse("af", &mut cat).unwrap();
        let cc = canonical_connection(&d, &x);
        assert!(cc.le(&d));
    }
}
