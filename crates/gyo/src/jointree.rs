//! Join trees from GYO traces, and the subtree characterization of
//! Theorem 3.1.
//!
//! Theorem 3.1 links GYO reductions with qual trees:
//!
//! * the subset-elimination steps of a *total* reduction (each eliminated
//!   relation paired with its witness) form the edge set of a qual tree for
//!   `D` — the constructive half, implemented by [`join_tree_from_trace`];
//! * for a tree schema `D` and `D' ⊆ D`, the nodes of `D'` induce a
//!   connected subgraph of *some* qual tree for `D` (i.e. `D'` is a
//!   **subtree** of `D`) iff the GYO reduction of `D` with the attributes of
//!   `D'` held sacred eliminates everything except (copies of) `D'`'s
//!   relations: `GR(D, U(D')) ⊆ D'` — implemented by [`is_subtree`].

use gyo_schema::{DbSchema, JoinTree, QualGraph};

use crate::reduce::{gyo_reduce, Reduction};

/// Rebuilds a qual tree from the trace of a **total** GYO reduction: each
/// `RemoveSubset { removed, witness }` step contributes the tree edge
/// `{removed, witness}`.
///
/// Returns `None` if the reduction was not total (the schema is cyclic).
/// The edges then still pass [`JoinTree::try_new`]'s hard check, which
/// costs a union-find over the edges and one intersection count per edge
/// (no hashing). Theorem 3.1 says it cannot fail on a total reduction of
/// `d`, so a `None` from a total reduction means the reduction was not of
/// `d`.
pub fn join_tree_from_trace(d: &DbSchema, red: &Reduction) -> Option<JoinTree> {
    if !red.is_total() {
        return None;
    }
    JoinTree::try_new(QualGraph::new(d.len(), red.elimination_edges()), d)
}

/// Computes a join tree for `d` directly (GYO-reduce, then rebuild).
/// `None` iff `d` is cyclic.
pub fn join_tree(d: &DbSchema) -> Option<JoinTree> {
    let red = gyo_reduce(d, &gyo_schema::AttrSet::empty());
    join_tree_from_trace(d, &red)
}

/// Theorem 3.1(ii): for a **tree schema** `d`, decides whether the relation
/// schemas at `nodes` form a *subtree* of `d` — i.e. whether some qual tree
/// for `d` exists in which `nodes` induce a connected subgraph.
///
/// Criterion: every relation of `GR(D, U(D'))` occurs in `D'`.
///
/// Returns `false` when `d` is cyclic (no qual tree exists at all).
///
/// # Panics
///
/// Panics if any index in `nodes` is out of range.
pub fn is_subtree(d: &DbSchema, nodes: &[usize]) -> bool {
    if !crate::reduce::is_tree_schema(d) {
        return false;
    }
    if nodes.is_empty() {
        // The empty node set induces the empty subgraph, which is trivially
        // connected; GR(D, ∅) would collapse to (∅) and the generic check
        // below would wrongly demand ∅ ∈ D'.
        return true;
    }
    let d_prime = d.project_rels(nodes);
    let g = gyo_reduce(d, &d_prime.attributes()).result;
    let contained = g.iter().all(|r| d_prime.contains_rel(r));
    contained
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use gyo_schema::{AttrSet, Catalog};

    fn db(s: &str) -> DbSchema {
        let mut cat = Catalog::alphabetic();
        DbSchema::parse(s, &mut cat).unwrap()
    }

    #[test]
    fn trace_tree_for_chain() {
        let d = db("ab, bc, cd");
        let t = join_tree(&d).expect("chain is a tree schema");
        assert_eq!(t.node_count(), 3);
        assert!(t.attribute_connectivity_holds(&d));
    }

    #[test]
    fn trace_tree_for_fig1_row3() {
        let d = db("abc, cde, ace, afe");
        let t = join_tree(&d).expect("tree schema");
        assert!(t.graph().is_valid_for(&d));
    }

    #[test]
    fn no_tree_for_cyclic() {
        assert!(join_tree(&db("ab, bc, ac")).is_none());
        assert!(join_tree(&db("ab, bc, cd, da")).is_none());
    }

    #[test]
    fn trace_tree_with_duplicates_and_empties() {
        let d = DbSchema::new(vec![
            AttrSet::from_raw(&[0, 1]),
            AttrSet::from_raw(&[0, 1]),
            AttrSet::empty(),
        ]);
        let t = join_tree(&d).expect("duplicates + empty rel is a tree schema");
        assert_eq!(t.node_count(), 3);
    }

    #[test]
    fn subtree_section_5_1_example() {
        // D = (abc, ab, bc): D' = (ab, bc) is NOT a subtree (paper §5.1).
        let d = db("abc, ab, bc");
        assert!(!is_subtree(&d, &[1, 2]));
        assert!(is_subtree(&d, &[0, 1]));
        assert!(is_subtree(&d, &[0]));
        assert!(is_subtree(&d, &[1]));
        assert!(is_subtree(&d, &[0, 1, 2]));
    }

    #[test]
    fn subtree_matches_bruteforce_on_small_trees() {
        let cases = ["ab, bc, cd", "abc, cde, ace, afe", "abc, ab, bc", "ab, cd"];
        for s in cases {
            let d = db(s);
            let n = d.len();
            // every subset of nodes
            for mask in 0u32..(1 << n) {
                let nodes: Vec<usize> = (0..n).filter(|&i| mask >> i & 1 == 1).collect();
                assert_eq!(
                    is_subtree(&d, &nodes),
                    oracle::is_subtree_bruteforce(&d, &nodes),
                    "case {s}, nodes {nodes:?}"
                );
            }
        }
    }

    #[test]
    fn subtree_of_cyclic_schema_is_false() {
        let d = db("ab, bc, ac");
        assert!(!is_subtree(&d, &[0]));
    }

    #[test]
    fn empty_node_set_is_a_subtree_of_any_tree_schema() {
        assert!(is_subtree(&db("ab, bc"), &[]));
    }
}
