//! Property tests for the set algebra and schema combinators — the laws
//! every proof in the paper silently uses.

use gyo_schema::{AttrId, AttrSet, DbSchema, JoinTree, QualGraph};
use proptest::prelude::*;

fn attr_set() -> impl Strategy<Value = AttrSet> {
    proptest::collection::vec(0u32..12, 0..8).prop_map(|v| AttrSet::from_raw(&v))
}

fn schema() -> impl Strategy<Value = DbSchema> {
    proptest::collection::vec(attr_set(), 0..6).prop_map(DbSchema::new)
}

/// A random spanning tree over a random schema, valid or not. Node
/// `v > 0` hangs off a random earlier node and takes some of its parent's
/// attributes plus one fresh one, which makes the tree a join tree. Then a
/// few nodes get another node's fresh attribute, which may break that, and some
/// cases get an extra edge, so the graph is no longer a tree.
fn spanning_tree_case() -> impl Strategy<Value = (DbSchema, QualGraph)> {
    (1usize..=10).prop_flat_map(|n| {
        (
            proptest::collection::vec((0usize..64, proptest::collection::vec(0usize..8, 0..4)), n),
            proptest::collection::vec((0usize..n, 0usize..n), 0..3),
            (0usize..n, 0usize..n, 0u32..4),
        )
            .prop_map(move |(nodes, extra_attrs, (a, b, extra_edge))| {
                let mut rels: Vec<AttrSet> = Vec::with_capacity(n);
                let mut edges = Vec::with_capacity(n);
                for (v, (pick, inherit)) in nodes.into_iter().enumerate() {
                    let mut r = AttrSet::from_raw(&[v as u32]);
                    if v > 0 {
                        let parent = pick % v;
                        let from = rels[parent].as_slice();
                        for i in inherit {
                            r.insert(from[i % from.len()]);
                        }
                        edges.push((parent, v));
                    }
                    rels.push(r);
                }
                for (v, id) in extra_attrs {
                    rels[v].insert(AttrId(id as u32));
                }
                if extra_edge == 0 && a != b {
                    edges.push((a, b));
                }
                (DbSchema::new(rels), QualGraph::new(n, edges))
            })
    })
}

/// The §3.1 attribute-connectivity fact, checked on a plain graph: for
/// nodes `r`, `s` and every node `p` on the (first-found) path between
/// them, `R ∩ S ⊆ P`.
fn paths_carry_shared_attributes(g: &QualGraph, d: &DbSchema) -> bool {
    let adj = g.adjacency();
    let n = g.node_count();
    (0..n).all(|r| {
        let mut prev = vec![usize::MAX; n];
        prev[r] = r;
        let mut queue = std::collections::VecDeque::from([r]);
        while let Some(v) = queue.pop_front() {
            for &w in &adj[v] {
                if prev[w] == usize::MAX {
                    prev[w] = v;
                    queue.push_back(w);
                }
            }
        }
        (0..n).all(|s| {
            let shared = d.rel(r).intersect(d.rel(s));
            if shared.is_empty() {
                return true;
            }
            if prev[s] == usize::MAX {
                return false;
            }
            let mut p = s;
            loop {
                if !shared.is_subset(d.rel(p)) {
                    return false;
                }
                if p == r {
                    return true;
                }
                p = prev[p];
            }
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `JoinTree::try_new`'s counting check agrees with the per-attribute
    /// search of `QualGraph::is_valid_for` and with attribute connectivity
    /// along tree paths, on valid and invalid spanning trees alike.
    #[test]
    fn join_tree_count_check_matches_search_and_paths(case in spanning_tree_case()) {
        let (d, g) = case;
        let accepted = JoinTree::try_new(g.clone(), &d);
        let searched = g.is_tree() && g.is_valid_for(&d);
        prop_assert_eq!(accepted.is_some(), searched, "{:?} over {:?}", g, d);
        if g.is_tree() {
            prop_assert_eq!(searched, paths_carry_shared_attributes(&g, &d), "{:?}", d);
        }
        if let Some(t) = accepted {
            prop_assert!(t.attribute_connectivity_holds(&d));
        }
    }

    #[test]
    fn union_is_commutative_associative_idempotent(a in attr_set(), b in attr_set(), c in attr_set()) {
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
        prop_assert_eq!(a.union(&a), a);
    }

    #[test]
    fn intersection_laws(a in attr_set(), b in attr_set(), c in attr_set()) {
        prop_assert_eq!(a.intersect(&b), b.intersect(&a));
        prop_assert_eq!(a.intersect(&b).intersect(&c), a.intersect(&b.intersect(&c)));
        prop_assert_eq!(a.intersect(&a), a.clone());
        // absorption
        prop_assert_eq!(a.union(&a.intersect(&b)), a.clone());
        prop_assert_eq!(a.intersect(&a.union(&b)), a);
    }

    #[test]
    fn difference_laws(a in attr_set(), b in attr_set()) {
        let diff = a.difference(&b);
        prop_assert!(diff.is_subset(&a));
        prop_assert!(diff.is_disjoint(&b));
        prop_assert_eq!(diff.union(&a.intersect(&b)), a);
    }

    #[test]
    fn subset_is_a_partial_order(a in attr_set(), b in attr_set(), c in attr_set()) {
        prop_assert!(a.is_subset(&a));
        if a.is_subset(&b) && b.is_subset(&a) {
            prop_assert_eq!(&a, &b);
        }
        if a.is_subset(&b) && b.is_subset(&c) {
            prop_assert!(a.is_subset(&c));
        }
    }

    #[test]
    fn membership_matches_iteration(a in attr_set()) {
        for id in a.iter() {
            prop_assert!(a.contains(id));
        }
        prop_assert!(!a.contains(AttrId(999)));
        prop_assert_eq!(a.iter().count(), a.len());
    }

    #[test]
    fn disjoint_iff_empty_intersection(a in attr_set(), b in attr_set()) {
        prop_assert_eq!(a.is_disjoint(&b), a.intersect(&b).is_empty());
    }

    #[test]
    fn reduce_is_idempotent_and_le_equivalent(d in schema()) {
        let r = d.reduce();
        prop_assert!(r.is_reduced());
        prop_assert_eq!(r.reduce(), r.clone());
        // D and reduce(D) weakly include each other
        prop_assert!(r.le(&d));
        prop_assert!(d.le(&r));
        prop_assert_eq!(r.attributes(), d.attributes());
    }

    #[test]
    fn le_is_reflexive_transitive(d in schema(), e in schema()) {
        prop_assert!(d.le(&d));
        if d.le(&e) {
            // weak inclusion is preserved by reduction of the right side
            prop_assert!(d.le(&e.reduce()) || !e.reduce().is_reduced());
        }
    }

    #[test]
    fn sub_multiset_implies_le(d in schema()) {
        let n = d.len();
        if n == 0 { return Ok(()); }
        // any projection of indices is a sub-multiset and hence ≤ d
        let half: Vec<usize> = (0..n).step_by(2).collect();
        let sub = d.project_rels(&half);
        prop_assert!(sub.sub_multiset(&d));
        prop_assert!(sub.le(&d));
    }

    #[test]
    fn connected_components_partition_the_nodes(d in schema()) {
        let comps = d.connected_components();
        let mut seen = vec![false; d.len()];
        for comp in &comps {
            for &i in comp {
                prop_assert!(!seen[i], "node {} in two components", i);
                seen[i] = true;
            }
        }
        prop_assert!(seen.into_iter().all(|x| x));
        // nodes in different components never share attributes
        for (a, ca) in comps.iter().enumerate() {
            for cb in comps.iter().skip(a + 1) {
                for &i in ca {
                    for &j in cb {
                        prop_assert!(d.rel(i).is_disjoint(d.rel(j)));
                    }
                }
            }
        }
    }

    #[test]
    fn multiset_equality_is_order_invariant(d in schema()) {
        let mut rels: Vec<AttrSet> = d.iter().cloned().collect();
        rels.reverse();
        let e = DbSchema::new(rels);
        prop_assert_eq!(&d, &e);
    }

    #[test]
    fn complete_graph_is_always_a_qual_graph(d in schema()) {
        let n = d.len();
        if n == 0 { return Ok(()); }
        let edges: Vec<(usize, usize)> =
            (0..n).flat_map(|i| ((i + 1)..n).map(move |j| (i, j))).collect();
        let g = QualGraph::new(n, edges);
        prop_assert!(g.is_valid_for(&d));
    }

    #[test]
    fn notation_round_trips(d in schema()) {
        // render with a catalog naming a0..a11, reparse, compare
        let mut cat = gyo_schema::Catalog::new();
        for i in 0..12 {
            cat.intern(&format!("a{i}"));
        }
        let text = d.to_notation(&cat);
        let mut cat2 = cat.clone();
        let back = DbSchema::parse(&text, &mut cat2).unwrap();
        prop_assert_eq!(back, d);
    }

    #[test]
    fn delete_attrs_then_attributes_is_difference(d in schema(), x in attr_set()) {
        let deleted = d.delete_attrs(&x);
        prop_assert_eq!(deleted.attributes(), d.attributes().difference(&x));
        prop_assert_eq!(deleted.len(), d.len());
    }
}

/// The spanning-tree strategy reaches valid trees, invalid trees and
/// non-trees.
#[test]
fn spanning_tree_case_covers_valid_and_invalid() {
    let (mut valid, mut invalid, mut non_trees) = (0, 0, 0);
    for c in 0..300 {
        let mut rng = proptest::test_runner::TestRng::for_case("spanning_tree_coverage", c);
        let (d, g) = spanning_tree_case().generate(&mut rng);
        match (g.is_tree(), JoinTree::try_new(g, &d).is_some()) {
            (false, _) => non_trees += 1,
            (true, true) => valid += 1,
            (true, false) => invalid += 1,
        }
    }
    assert!(
        valid >= 60 && invalid >= 60 && non_trees >= 30,
        "{valid} {invalid} {non_trees}"
    );
}
