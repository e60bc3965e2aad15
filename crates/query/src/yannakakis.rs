//! Semijoin processing of tree queries (the "tree case" of §4, following
//! Bernstein–Chiu \[5\] and Yannakakis \[18\]).
//!
//! For a tree schema, a **full reducer** — one upward and one downward pass
//! of semijoins along a join tree, `2·(n−1)` semijoins total — makes every
//! relation state globally consistent (`Rᵢ = π_{Rᵢ}(⋈ D)`). The query
//! `(D, X)` is then answered by joining along the tree with early
//! projection, never materializing more columns than `X` plus the
//! attributes still needed by unjoined subtrees.
//!
//! Execution here is deliberately **per-call and operator-at-a-time**
//! (each semijoin/join/projection runs through `gyo_relation`'s columnar
//! kernels, but every step materializes its result as a normalized
//! [`Relation`]): this module is the reference path the cached engine is
//! differentially tested against — two independent routes to the same
//! reduced states and answers. Which join-up runs where:
//!
//! * [`solve_tree_query`] and
//!   [`solve_via_treeification`](crate::solve_via_treeification) join up
//!   here, one `Relation::project` and one `Relation::natural_join` per
//!   tree edge, each output sorted and deduplicated.
//! * [`TreeifyEngine`](crate::TreeifyEngine) reduces with the
//!   selection-vector executor ([`gyo_relation::semijoin_program`]) and
//!   joins up with the flat executor ([`gyo_relation::join_up_with`]):
//!   unsorted duplicate-free intermediates, bucket-chain builds, one
//!   normalization at the root.

use gyo_reduce::{gyo_reduce, join_tree_from_trace, Reduction};
use gyo_relation::{DbState, Relation};
use gyo_schema::{AttrSet, DbSchema, RootedTree};

use crate::engine::EngineError;
use crate::program::Program;

/// Builds a full-reducer semijoin [`Program`] for a tree schema: child→
/// parent semijoins in post-order, then parent→child in reverse. Returns
/// [`EngineError::Cyclic`] when `d` is cyclic (no join tree exists), with
/// the stuck GYO residue attached.
///
/// Note: semijoin statements create *new* relations (§6 semantics), so the
/// program threads the latest version of each node through the passes; the
/// final statements leave the root's and every node's reduced state as the
/// most recent versions.
pub fn full_reducer_program(d: &DbSchema) -> Result<Program, EngineError> {
    Ok(full_reducer_program_on_tree(d, &derive_rooted_tree(d)?))
}

/// The one GYO reduction behind every plan — the cached plans and the
/// per-call solvers alike: the join tree of `d` that the reduction's subset
/// eliminations spell (Theorem 3.1), rooted at node 0; the stuck reduction
/// when `d` is cyclic. For the empty schema, a tree with no nodes and the
/// placeholder root `0`.
pub(crate) fn compile_tree(d: &DbSchema) -> Result<RootedTree, Reduction> {
    let red = gyo_reduce(d, &AttrSet::empty());
    if !red.is_total() {
        return Err(red);
    }
    let tree = join_tree_from_trace(d, &red).expect("total GYO reduction yields a join tree");
    Ok(if d.is_empty() {
        RootedTree {
            root: 0,
            parent: Vec::new(),
            post_order: Vec::new(),
        }
    } else {
        tree.rooted_at(0)
    })
}

/// [`compile_tree`] with the public diagnostic; the decline path of the
/// tree-only solvers.
pub(crate) fn derive_rooted_tree(d: &DbSchema) -> Result<RootedTree, EngineError> {
    compile_tree(d).map_err(|red| EngineError::Cyclic {
        residue: red.result,
        survivors: red.survivors,
    })
}

/// The full-reducer [`Program`] along an already-rooted join tree.
pub(crate) fn full_reducer_program_on_tree(d: &DbSchema, rooted: &RootedTree) -> Program {
    let mut p = Program::new(d.clone());
    // current[v] = latest program relation holding node v's state
    let mut current: Vec<usize> = (0..d.len()).collect();
    // Upward pass: children before parents.
    for &v in &rooted.post_order {
        if v == rooted.root {
            continue;
        }
        let parent = rooted.parent[v];
        current[parent] = p.semijoin(current[parent], current[v]);
    }
    // Downward pass: parents before children.
    for &v in rooted.post_order.iter().rev() {
        if v == rooted.root {
            continue;
        }
        let parent = rooted.parent[v];
        current[v] = p.semijoin(current[v], current[parent]);
    }
    p
}

/// Fully reduces a state over a tree schema (returns the reduced state):
/// after this, `state[i] = π_{Rᵢ}(⋈ D)` for every `i`. Returns
/// [`EngineError::StateMismatch`] for a state not built for `d`, and
/// [`EngineError::Cyclic`] when `d` is cyclic.
pub fn full_reduce(d: &DbSchema, state: &DbState) -> Result<DbState, EngineError> {
    EngineError::check_state(d, state)?;
    let rooted = derive_rooted_tree(d)?;
    let mut rels = state.rels().to_vec();
    full_reduce_along(&mut rels, &rooted);
    Ok(DbState::new(d, rels))
}

/// Full reduction of `rels` in place, one `Relation::semijoin` per step,
/// along an already-rooted join tree of their schemas.
pub(crate) fn full_reduce_along(rels: &mut [Relation], rooted: &RootedTree) {
    for &v in &rooted.post_order {
        if v != rooted.root {
            let parent = rooted.parent[v];
            rels[parent] = rels[parent].semijoin(&rels[v]);
        }
    }
    for &v in rooted.post_order.iter().rev() {
        if v != rooted.root {
            let parent = rooted.parent[v];
            rels[v] = rels[v].semijoin(&rels[parent]);
        }
    }
}

/// Solves `(D, X)` on a tree schema: full reduction, then joins up the tree
/// with early projection onto `X ∪ (attributes shared with the not-yet-
/// joined part)`. Output-sensitive in the Yannakakis sense. Returns
/// [`EngineError::TargetOutsideSchema`] when `X ⊄ U(D)`,
/// [`EngineError::StateMismatch`] for a state not built for `d`, and
/// [`EngineError::Cyclic`] when `d` is cyclic.
pub fn solve_tree_query(
    d: &DbSchema,
    state: &DbState,
    x: &AttrSet,
) -> Result<Relation, EngineError> {
    EngineError::check_target(d, x)?;
    EngineError::check_state(d, state)?;
    let rooted = derive_rooted_tree(d)?;
    let mut rels = state.rels().to_vec();
    full_reduce_along(&mut rels, &rooted);
    Ok(join_up_tree(&rels, x, &rooted))
}

/// The join phase of the Yannakakis solver: joins **fully reduced**
/// relations up their rooted join tree with early projection onto
/// `X ∪ (attributes still needed by unjoined subtrees)`, then projects onto
/// `X` (`⊆ U(D)`). The operator-at-a-time reference for
/// [`gyo_relation::join_up_with`].
pub(crate) fn join_up_tree(reduced: &[Relation], x: &AttrSet, rooted: &RootedTree) -> Relation {
    // subtree_x[v] = attributes of X present in the subtree rooted at v
    // (used to prune columns as joins climb toward the root).
    let mut subtree_x: Vec<AttrSet> = reduced.iter().map(|r| r.attrs().intersect(x)).collect();
    for &v in &rooted.post_order {
        if v != rooted.root {
            let parent = rooted.parent[v];
            let merged = subtree_x[parent].union(&subtree_x[v]);
            subtree_x[parent] = merged;
        }
    }

    // acc[v]: the running join of v's subtree, projected onto
    // subtree_x[v] ∪ (Rᵥ ∩ parent's schema) — enough for X and for the
    // upcoming connection to the parent.
    let mut acc: Vec<Option<Relation>> = reduced.iter().cloned().map(Some).collect();
    for &v in &rooted.post_order {
        if v == rooted.root {
            continue;
        }
        let parent = rooted.parent[v];
        let keep = subtree_x[v].union(&reduced[v].attrs().intersect(reduced[parent].attrs()));
        let mine = acc[v].take().expect("each node joined once");
        let pruned = mine.project(&keep.intersect(mine.attrs()));
        let parent_acc = acc[parent].take().expect("parent still pending");
        acc[parent] = Some(parent_acc.natural_join(&pruned));
    }
    // The empty schema joins to the identity relation.
    let root_acc = match acc.get_mut(rooted.root) {
        Some(root) => root.take().expect("root accumulates everything"),
        None => Relation::identity(),
    };
    if root_acc.is_empty() {
        return Relation::empty(x.clone());
    }
    root_acc.project(x)
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
    fn full_reducer_program_has_2n_minus_2_semijoins() {
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc, cd, de", &mut cat);
        let p = full_reducer_program(&d).expect("chain");
        assert_eq!(p.len(), 2 * (4 - 1));
    }

    #[test]
    fn cyclic_schema_has_no_full_reducer() {
        let mut cat = Catalog::alphabetic();
        assert!(full_reducer_program(&db("ab, bc, ca", &mut cat)).is_err());
        assert!(full_reduce(
            &db("ab, bc, ca", &mut cat),
            &DbState::from_universal(
                &Relation::new(AttrSet::parse("abc", &mut cat).unwrap(), vec![]),
                &db("ab, bc, ca", &mut cat)
            )
        )
        .is_err());
    }

    #[test]
    fn full_reduce_reaches_global_consistency() {
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc, cd", &mut cat);
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..5 {
            let i = gyo_workloads::random_universal(&mut rng, &d.attributes(), 30, 4);
            let state = DbState::from_universal(&i, &d);
            let reduced = full_reduce(&d, &state).unwrap();
            let total = state.join_all();
            for (k, r) in d.iter().enumerate() {
                assert_eq!(reduced.rel(k), &total.project(r), "node {k}");
            }
        }
    }

    #[test]
    fn solve_tree_query_matches_naive() {
        let mut cat = Catalog::alphabetic();
        let mut rng = StdRng::seed_from_u64(78);
        for (s, xs) in [
            ("ab, bc, cd", "ad"),
            ("ab, bc, cd", "b"),
            ("abc, cde, ace, afe", "af"),
            ("abc, ab, bc", "ac"),
            ("ab, cd", "ad"),
        ] {
            let d = db(s, &mut cat);
            let x = AttrSet::parse(xs, &mut cat).unwrap();
            for round in 0..5 {
                let i = gyo_workloads::random_universal(&mut rng, &d.attributes(), 25, 3);
                let state = DbState::from_universal(&i, &d);
                let fast = solve_tree_query(&d, &state, &x).expect("tree schema");
                let naive = state.eval_join_query(&x);
                assert_eq!(fast, naive, "case ({s}, {xs}), round {round}");
            }
        }
    }

    #[test]
    fn reducer_program_execution_matches_direct_reduction() {
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc, cd", &mut cat);
        let mut rng = StdRng::seed_from_u64(79);
        let i = gyo_workloads::random_universal(&mut rng, &d.attributes(), 20, 3);
        let state = DbState::from_universal(&i, &d);
        let p = full_reducer_program(&d).unwrap();
        let rels = p.execute(&state);
        let reduced = full_reduce(&d, &state).unwrap();
        // The last version of each node in the program equals the directly
        // reduced state; the root is fully reduced after the upward pass.
        // Check via schema-matched comparison of the final relations.
        for k in 0..d.len() {
            // find the last program relation with node k's schema whose
            // lineage is node k: by construction the downward pass's
            // semijoin for node k (or the upward-pass result for the root)
            // is the latest relation with that schema.
            let last = (0..rels.len())
                .rev()
                .find(|&r| p.schema_of(r) == d.rel(k) && rels[r].is_subset(state.rel(k)))
                .expect("node version exists");
            assert_eq!(&rels[last], reduced.rel(k), "node {k}");
        }
    }

    #[test]
    fn empty_state_answers_empty() {
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc", &mut cat);
        let empty = Relation::empty(d.attributes());
        let state = DbState::from_universal(&empty, &d);
        let x = AttrSet::parse("ac", &mut cat).unwrap();
        let ans = solve_tree_query(&d, &state, &x).unwrap();
        assert!(ans.is_empty());
    }

    #[test]
    fn single_relation_schema() {
        let mut cat = Catalog::alphabetic();
        let d = db("abc", &mut cat);
        let i = Relation::new(d.attributes(), vec![vec![1, 2, 3], vec![4, 5, 6]]);
        let state = DbState::from_universal(&i, &d);
        let x = AttrSet::parse("ac", &mut cat).unwrap();
        assert_eq!(
            solve_tree_query(&d, &state, &x).unwrap(),
            state.eval_join_query(&x)
        );
        let (d0, x0) = (DbSchema::empty(), AttrSet::empty());
        let empty = DbState::new(&d0, vec![]);
        let identity = Relation::identity();
        assert_eq!(solve_tree_query(&d0, &empty, &x0).unwrap(), identity);
        assert_eq!(crate::solve_via_treeification(&d0, &empty, &x0), identity);
    }
}
