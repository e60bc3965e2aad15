//! GYO reductions and the tree/cyclic schema dichotomy.
//!
//! Implements §3.1 and §3.3 of Goodman, Shmueli & Tay (1983/84):
//!
//! * [`reduce`] — the GYO reduction `GR(D, X)` with respect to a *sacred*
//!   attribute set `X` (isolated-attribute deletion + subset elimination),
//!   with full operation traces, an incremental engine over dense attribute
//!   bitsets, and a naive fixpoint
//!   engine kept as a test oracle. `GR(D, X)` is unique and reduced (Maier &
//!   Ullman), which the property tests verify by randomizing operation order.
//! * [`jointree`] — join trees rebuilt from reduction traces (the
//!   constructive content of Theorem 3.1) and the subtree characterization
//!   `D' is a subtree of D  ⇔  GR(D, U(D')) ⊆ D'`.
//! * [`cores`] — Arings and Acliques, the "building blocks" of cyclic
//!   schemas, and the Lemma 3.1 witness search: `D` is cyclic iff some
//!   attribute deletion turns it into an Aring or Aclique.
//! * [`oracle`] — exponential-time brute-force deciders (qual-tree
//!   enumeration) used to cross-validate the fast algorithms on small
//!   inputs.

#![warn(missing_docs)]

pub mod cores;
pub mod jointree;
pub mod oracle;
pub mod reduce;

pub use cores::{aclique, aring, classify_core, find_cyclic_core, CoreKind, CoreWitness};
pub use jointree::{is_subtree, join_tree_from_trace};
pub use reduce::{
    classify, gr, gyo_reduce, gyo_reduce_naive, is_tree_schema, treeifying_relation, GyoStep,
    Reduction, SchemaKind,
};
