//! Property tests for the GYO engine: the §3.3 invariants the paper states
//! without proof ("operations preserve schema type", uniqueness of GR) and
//! the laws connecting GR to reduction.

use gyo_reduce::{
    classify, gr, gyo_reduce, gyo_reduce_naive, is_tree_schema, join_tree_from_trace, GyoStep,
    Reduction,
};
use gyo_schema::{AttrId, AttrSet, DbSchema, JoinTree, QualGraph};
use proptest::prelude::*;

fn attr_set() -> impl Strategy<Value = AttrSet> {
    proptest::collection::vec(0u32..10, 0..6).prop_map(|v| AttrSet::from_raw(&v))
}

fn schema() -> impl Strategy<Value = DbSchema> {
    proptest::collection::vec(
        proptest::collection::vec(0u32..10, 1..5).prop_map(|v| AttrSet::from_raw(&v)),
        0..6,
    )
    .prop_map(DbSchema::new)
}

/// Wide schemas for the bitset engine: a pool of 65–200 sparse attribute
/// ids below 2^20, so `U(D)` usually spans two to four 64-bit words, and up
/// to 40 relations. Most relations take a few attributes from a window of
/// the pool; the windows start evenly spaced, jittered, and the pool wraps,
/// so they overlap into chains, rings and branches; some are empty, and some copy an earlier
/// relation. The sacred set mixes pool ids with random ids, which mostly
/// lie outside `U(D)`.
fn wide_case() -> impl Strategy<Value = (DbSchema, AttrSet)> {
    (65usize..=200, 1usize..=40).prop_flat_map(|(m, n)| {
        (
            proptest::collection::vec(0u32..1 << 20, m),
            proptest::collection::vec(
                (
                    0usize..m,
                    proptest::collection::vec(0usize..24, 1..16),
                    0u32..16,
                ),
                n,
            ),
            proptest::collection::vec(0usize..m, 0..5),
            proptest::collection::vec(0u32..1 << 20, 0..4),
        )
            .prop_map(move |(pool, rels, sacred_pool, sacred_free)| {
                let mut out: Vec<AttrSet> = Vec::with_capacity(rels.len());
                for (j, (pick, offsets, kind)) in rels.into_iter().enumerate() {
                    // Windows start evenly spaced around the pool, jittered.
                    let center = j * m / n + pick % 8;
                    let r = match kind {
                        0 => AttrSet::empty(),
                        1 | 2 if !out.is_empty() => out[pick % out.len()].clone(),
                        _ => AttrSet::from_raw(
                            &offsets
                                .iter()
                                .map(|o| pool[(center + o) % m])
                                .collect::<Vec<_>>(),
                        ),
                    };
                    out.push(r);
                }
                let sacred = sacred_pool
                    .iter()
                    .map(|&i| AttrId(pool[i]))
                    .chain(sacred_free.into_iter().map(AttrId));
                (DbSchema::new(out), AttrSet::from_iter(sacred))
            })
    })
}

/// Replays `red`'s trace on `d`, checking each step is legal, and returns
/// the relations it leaves alive, by original index.
fn replay(d: &DbSchema, x: &AttrSet, red: &Reduction) -> Vec<(usize, AttrSet)> {
    let mut rels: Vec<AttrSet> = d.iter().cloned().collect();
    let mut alive = vec![true; rels.len()];
    for step in &red.trace {
        match *step {
            GyoStep::DeleteAttr { attr, rel } => {
                let holders = (0..rels.len())
                    .filter(|&j| alive[j] && rels[j].contains(attr))
                    .count();
                assert!(alive[rel] && holders == 1 && !x.contains(attr), "{step:?}");
                assert!(rels[rel].remove(attr));
            }
            GyoStep::RemoveSubset { removed, witness } => {
                assert!(alive[removed] && alive[witness] && removed != witness);
                assert!(rels[removed].is_subset(&rels[witness]), "{step:?}");
                alive[removed] = false;
            }
        }
    }
    (0..rels.len())
        .filter(|&i| alive[i])
        .map(|i| (i, rels[i].clone()))
        .collect()
}

/// Applies one legal GYO operation (if any) and returns the new schema.
fn apply_one_op(d: &DbSchema, x: &AttrSet) -> Option<DbSchema> {
    let red = gyo_reduce(d, x);
    let step = red.trace.first()?;
    let mut rels: Vec<AttrSet> = d.iter().cloned().collect();
    match *step {
        GyoStep::DeleteAttr { attr, rel } => {
            rels[rel].remove(attr);
        }
        GyoStep::RemoveSubset { removed, .. } => {
            rels.remove(removed);
        }
    }
    Some(DbSchema::new(rels))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// §3.3: "(1) and (2) preserve schema type" — applying one operation
    /// never flips tree ↔ cyclic.
    #[test]
    fn single_ops_preserve_schema_type(d in schema(), x in attr_set()) {
        if let Some(next) = apply_one_op(&d, &x) {
            prop_assert_eq!(classify(&d), classify(&next), "{:?} -> {:?}", d, next);
        }
    }

    /// Maier & Ullman: GR(D, X) is unique — engine order must not matter,
    /// including under input permutation (up to multiset equality).
    #[test]
    fn gr_is_unique_up_to_input_order(d in schema(), x in attr_set()) {
        let forward = gr(&d, &x);
        let mut rels: Vec<AttrSet> = d.iter().cloned().collect();
        rels.reverse();
        let backward = gr(&DbSchema::new(rels), &x);
        prop_assert_eq!(&forward, &backward);
        prop_assert_eq!(&forward, &gyo_reduce_naive(&d, &x).result);
        prop_assert!(forward.is_reduced());
    }

    /// GR with every attribute sacred degenerates to subset elimination:
    /// `GR(D, U(D)) = reduce(D)`.
    #[test]
    fn gr_with_full_sacred_set_is_reduce(d in schema()) {
        let u = d.attributes();
        prop_assert_eq!(gr(&d, &u), d.reduce());
    }

    /// Survivor attribute sets shrink monotonically with the sacred set:
    /// attributes of GR(D, X) outside X can only disappear when X grows.
    #[test]
    fn gr_attributes_contain_sacred_intersection(d in schema(), x in attr_set()) {
        let g = gr(&d, &x);
        // every surviving attribute is an original attribute
        prop_assert!(g.attributes().is_subset(&d.attributes()));
        // sacred attributes of U(D) always survive in some relation unless
        // their entire relations were subset-eliminated — they are never
        // *deleted*, so X ∩ U(D) ⊆ U(GR) ∪ (attrs of eliminated rels ⊆
        // witnesses ⊆ …) ⇒ in fact X ∩ U(D) ⊆ U(GR).
        let sacred_present = x.intersect(&d.attributes());
        prop_assert!(sacred_present.is_subset(&g.attributes()),
            "sacred {:?} lost from {:?} -> {:?}", sacred_present, d, g);
    }

    /// The reduction never grows: |GR| ≤ |D| and Σ|R| never increases.
    #[test]
    fn gr_shrinks(d in schema(), x in attr_set()) {
        let g = gr(&d, &x);
        prop_assert!(g.len() <= d.len());
        let total = |s: &DbSchema| s.iter().map(|r| r.len()).sum::<usize>();
        prop_assert!(total(&g) <= total(&d));
    }

    /// Classification agrees between direct GYO and GYO-after-reduce
    /// (subset elimination preserves type).
    #[test]
    fn classification_survives_reduction(d in schema()) {
        prop_assert_eq!(classify(&d), classify(&d.reduce()));
    }

    /// Adding the full attribute set always treeifies (Theorem 3.2(ii)
    /// upper bound), and adding U(GR(D)) is enough.
    #[test]
    fn treeifying_relation_works(d in schema()) {
        let w = gyo_reduce::treeifying_relation(&d);
        prop_assert!(is_tree_schema(&d.with_rel(w)));
        prop_assert!(is_tree_schema(&d.with_rel(d.attributes())));
    }

    /// Join trees from traces always validate for tree schemas.
    #[test]
    fn trace_join_trees_validate(d in schema()) {
        let red = gyo_reduce(&d, &AttrSet::empty());
        match gyo_reduce::join_tree_from_trace(&d, &red) {
            Some(t) => {
                prop_assert!(red.is_total());
                prop_assert!(t.graph().is_valid_for(&d));
                prop_assert!(t.attribute_connectivity_holds(&d));
            }
            None => prop_assert!(!red.is_total()),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The bitset engine agrees with the naive oracle on wide, sparse
    /// schemas: the same `GR` as a multiset, the same verdict, and a legal
    /// trace whose replay leaves exactly the reported survivors and
    /// schemas. Every subset elimination picks the lowest-index witness.
    #[test]
    fn bitset_engine_matches_the_oracle_on_wide_schemas(case in wide_case()) {
        let (d, x) = case;
        let fast = gyo_reduce(&d, &x);
        let slow = gyo_reduce_naive(&d, &x);
        prop_assert_eq!(&fast.result, &slow.result);
        prop_assert_eq!(fast.is_total(), slow.is_total());
        let survivors = replay(&d, &x, &fast);
        prop_assert_eq!(
            survivors.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            fast.survivors.clone()
        );
        prop_assert_eq!(
            survivors.into_iter().map(|(_, r)| r).collect::<Vec<_>>(),
            fast.result.rels().to_vec()
        );
        for (removed, witness) in fast.elimination_edges() {
            let lower = (0..witness).find(|&j| {
                j != removed
                    && replay_prefix_alive_superset(&d, &x, &fast, removed, j)
            });
            prop_assert_eq!(lower, None, "R{} had a lower witness than R{}", removed, witness);
        }
    }

    /// Trace join trees on wide schemas: a total reduction's eliminations
    /// pass `JoinTree::try_new` and attribute connectivity; a stuck one's,
    /// plus one `(survivor, W)` edge per survivor, do the same on
    /// `D ∪ (W)` (Theorem 3.2(ii)).
    #[test]
    fn wide_trace_join_trees_validate(case in wide_case()) {
        let (d, _) = case;
        let red = gyo_reduce(&d, &AttrSet::empty());
        if let Some(t) = join_tree_from_trace(&d, &red) {
            prop_assert!(red.is_total());
            prop_assert!(t.attribute_connectivity_holds(&d));
        } else {
            prop_assert!(!red.is_total());
            let extended = d.with_rel(red.result.attributes());
            let w = d.len();
            let edges = red
                .elimination_edges()
                .chain(red.survivors.iter().map(|&s| (s, w)));
            let t = JoinTree::try_new(QualGraph::new(extended.len(), edges), &extended);
            prop_assert!(t.is_some(), "extended tree rejected for {:?}", d);
            prop_assert!(t.unwrap().attribute_connectivity_holds(&extended));
        }
    }
}

/// Whether, at the moment `red` eliminated `removed`, relation `j` was
/// alive and contained it (replaying the trace up to that step).
fn replay_prefix_alive_superset(
    d: &DbSchema,
    x: &AttrSet,
    red: &Reduction,
    removed: usize,
    j: usize,
) -> bool {
    let at = red
        .trace
        .iter()
        .position(|s| matches!(*s, GyoStep::RemoveSubset { removed: r, .. } if r == removed))
        .expect("removed relation has a step");
    let prefix = Reduction {
        result: DbSchema::empty(),
        survivors: Vec::new(),
        trace: red.trace[..at].to_vec(),
    };
    let alive = replay(d, x, &prefix);
    let value = |i: usize| alive.iter().find(|(k, _)| *k == i).map(|(_, r)| r);
    matches!((value(removed), value(j)), (Some(a), Some(b)) if a.is_subset(b))
}

/// The wide strategy reaches what it is for: a second and third bitset
/// word, tree and cyclic verdicts, and duplicate and empty relations.
#[test]
fn wide_case_covers_multiword_schemas() {
    let cases: Vec<(DbSchema, AttrSet)> = (0..200)
        .map(|c| {
            let mut rng = proptest::test_runner::TestRng::for_case("wide_case_coverage", c);
            wide_case().generate(&mut rng)
        })
        .collect();
    let count = |f: &dyn Fn(&(DbSchema, AttrSet)) -> bool| cases.iter().filter(|c| f(c)).count();
    let words = |c: &(DbSchema, AttrSet)| c.0.attributes().len().div_ceil(64);
    assert!(count(&|c| words(c) >= 2) >= 100, "two words");
    assert!(count(&|c| words(c) >= 3) >= 3, "three words");
    assert!(
        count(&|c| gyo_reduce(&c.0, &AttrSet::empty()).is_total()) >= 40,
        "trees"
    );
    assert!(
        count(&|c| !gyo_reduce(&c.0, &AttrSet::empty()).is_total()) >= 40,
        "cyclic"
    );
    assert!(
        count(&|c| c.0.iter().any(AttrSet::is_empty)) >= 60,
        "empty relations"
    );
    assert!(
        count(&|c| c.0.len() > c.0.reduce().len()) >= 100,
        "duplicates or subsets"
    );
    assert!(
        count(&|c| !c.1.is_subset(&c.0.attributes())) >= 100,
        "sacred ids outside U(D)"
    );
}

/// The sacred-survival law above depends on a subtle fact worth one
/// concrete regression: a sacred attribute's holder can be subset-
/// eliminated, but only into a witness that also holds the attribute.
#[test]
fn sacred_attribute_survives_subset_elimination() {
    let mut cat = gyo_schema::Catalog::alphabetic();
    let d = DbSchema::parse("ab, abc", &mut cat).unwrap();
    let x = AttrSet::parse("a", &mut cat).unwrap();
    let g = gr(&d, &x);
    assert!(g.attributes().contains(cat.lookup("a").unwrap()));
}
