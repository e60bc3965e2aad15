//! Property tests for the relational algebra: the equational laws the
//! paper's query rewrites depend on, plus the flat-storage invariants
//! (round-trip through the `Vec<Vec<u64>>` shim, operator equivalence
//! against naive per-row reference implementations) and the columnar
//! kernel laws (gather projection, chunked key-compare semijoins for key
//! widths 1/2/wide, selection-vector program execution — each against a
//! per-row reference, on small and on pack-defeating huge values), and the
//! flat join-up executor against the operator-at-a-time
//! `natural_join` + `project` loop on random rooted trees. The kernel,
//! program and join-up laws run a second time on keys of width 2 to 9 whose
//! values sit on the packed encoding's fit boundary (`2^s − 1` and `2^s`
//! for `s = ⌊128/w⌋`).

use std::collections::BTreeSet;

use gyo_relation::{
    join_of_projections, join_up_with, satisfies_jd, semijoin_program, semijoin_program_with,
    DbState, ExecScratch, Relation, SemijoinStep,
};
use gyo_schema::{AttrSet, DbSchema, RootedTree};
use proptest::collection::SizeRange;
use proptest::prelude::*;

const W: usize = 4; // attribute universe 0..W

fn relation(attrs: Vec<u32>) -> impl Strategy<Value = Relation> {
    let set = AttrSet::from_raw(&attrs);
    let width = set.len();
    proptest::collection::vec(proptest::collection::vec(0u64..4, width), 0..12)
        .prop_map(move |tuples| Relation::new(set.clone(), tuples))
}

/// A value strategy that mixes small values with huge ones (near `u64::MAX`)
/// so normalization exercises both the packed-scalar sort and the
/// index-permutation fallback, and the stamp-table membership path declines
/// in favor of hashing.
fn any_value() -> impl Strategy<Value = u64> {
    prop_oneof![
        4 => 0u64..4,
        1 => (u64::MAX - 3)..=u64::MAX,
    ]
}

/// A relation over an explicit attribute list with mixed-magnitude values —
/// wide arities included (the caller controls the width).
fn relation_over(attrs: Vec<u32>) -> impl Strategy<Value = Relation> {
    let set = AttrSet::from_raw(&attrs);
    let width = set.len();
    proptest::collection::vec(proptest::collection::vec(any_value(), width), 0..12)
        .prop_map(move |tuples| Relation::new(set.clone(), tuples))
}

fn any_relation() -> impl Strategy<Value = Relation> {
    proptest::collection::vec(0u32..W as u32, 1..=W).prop_flat_map(relation)
}

fn universal() -> impl Strategy<Value = Relation> {
    relation((0..W as u32).collect())
}

fn schema() -> impl Strategy<Value = DbSchema> {
    proptest::collection::vec(
        proptest::collection::vec(0u32..W as u32, 1..=W).prop_map(|v| AttrSet::from_raw(&v)),
        1..4,
    )
    .prop_map(DbSchema::new)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn join_is_commutative(r in any_relation(), s in any_relation()) {
        prop_assert_eq!(r.natural_join(&s), s.natural_join(&r));
    }

    #[test]
    fn join_is_associative(r in any_relation(), s in any_relation(), t in any_relation()) {
        prop_assert_eq!(
            r.natural_join(&s).natural_join(&t),
            r.natural_join(&s.natural_join(&t))
        );
    }

    #[test]
    fn join_is_idempotent(r in any_relation()) {
        prop_assert_eq!(r.natural_join(&r), r);
    }

    #[test]
    fn join_identity_and_annihilator(r in any_relation()) {
        prop_assert_eq!(r.natural_join(&Relation::identity()), r.clone());
        let nothing = Relation::empty(AttrSet::empty());
        prop_assert!(r.natural_join(&nothing).is_empty());
    }

    #[test]
    fn semijoin_is_projected_join(r in any_relation(), s in any_relation()) {
        prop_assert_eq!(r.semijoin(&s), r.natural_join(&s).project(r.attrs()));
    }

    #[test]
    fn semijoin_shrinks_and_is_idempotent(r in any_relation(), s in any_relation()) {
        let sj = r.semijoin(&s);
        prop_assert!(sj.is_subset(&r));
        prop_assert_eq!(sj.semijoin(&s), sj);
    }

    #[test]
    fn projection_composes(r in universal()) {
        let outer = AttrSet::from_raw(&[0, 1, 2]);
        let inner = AttrSet::from_raw(&[0, 2]);
        prop_assert_eq!(r.project(&outer).project(&inner), r.project(&inner));
    }

    #[test]
    fn projection_monotone_under_join(r in any_relation(), s in any_relation()) {
        // π_R(R ⋈ S) ⊆ R (the join filters, never invents left tuples)
        let j = r.natural_join(&s).project(r.attrs());
        prop_assert!(j.is_subset(&r));
    }

    #[test]
    fn join_of_projections_is_extensive_and_idempotent(i in universal(), d in schema()) {
        let closed = join_of_projections(&i, &d);
        // extensive on the covered attributes
        prop_assert!(i.project(&d.attributes()).is_subset(&closed));
        // idempotent
        prop_assert_eq!(join_of_projections(&closed, &d), closed.clone());
        // the closure satisfies the jd
        prop_assert!(satisfies_jd(&closed, &d));
    }

    #[test]
    fn ur_state_join_contains_universal(i in universal(), d in schema()) {
        let state = DbState::from_universal(&i, &d);
        let joined = state.join_all();
        prop_assert!(i.project(&d.attributes()).is_subset(&joined));
    }

    #[test]
    fn union_laws(a in relation(vec![0, 1]), b in relation(vec![0, 1]), c in relation(vec![0, 1])) {
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
        prop_assert_eq!(a.union(&a), a.clone());
        prop_assert!(a.is_subset(&a.union(&b)));
    }

    #[test]
    fn join_distributes_over_semijoin_reduction(r in any_relation(), s in any_relation()) {
        // R ⋈ S = (R ⋉ S) ⋈ S — the identity every full reducer rests on.
        prop_assert_eq!(r.natural_join(&s), r.semijoin(&s).natural_join(&s));
    }

    /// Flat-layout round trip: `Relation::new(attrs, vecs)` ↔ `rows()`
    /// preserves the sorted-dedup normalization invariant in both
    /// directions, and the flat constructor agrees with the nested one.
    #[test]
    fn flat_storage_round_trips(attrs in proptest::collection::vec(0u32..W as u32, 1..=W),
                                rows in proptest::collection::vec(proptest::collection::vec(0u64..4, W), 0..12)) {
        let set = AttrSet::from_raw(&attrs);
        let width = set.len();
        let vecs: Vec<Vec<u64>> = rows.iter().map(|r| r[..width].to_vec()).collect();
        let r = Relation::new(set.clone(), vecs.clone());

        // rows() yields exactly the sorted, deduplicated input.
        let expected: Vec<Vec<u64>> = vecs.iter().cloned().collect::<BTreeSet<_>>().into_iter().collect();
        let via_rows: Vec<Vec<u64>> = r.rows().map(<[u64]>::to_vec).collect();
        prop_assert_eq!(&via_rows, &expected);
        prop_assert_eq!(r.to_vecs(), expected);
        prop_assert_eq!(r.len(), via_rows.len());

        // rows are strictly increasing slices of the flat buffer, stride = arity.
        prop_assert_eq!(r.data().len(), r.len() * r.arity());
        for w in via_rows.windows(2) {
            prop_assert!(w[0] < w[1], "rows not strictly sorted");
        }

        // rebuild from the shim and from the flat buffer: both identical.
        prop_assert_eq!(&Relation::new(set.clone(), r.to_vecs()), &r);
        let flat: Vec<u64> = vecs.iter().flatten().copied().collect();
        prop_assert_eq!(&Relation::from_row_major(set, vecs.len(), flat), &r);
    }

    /// Storage equivalence: the flat-buffer operators compute exactly the
    /// sets a naive per-row reference implementation produces.
    #[test]
    fn operators_match_reference_semantics(r in any_relation(), s in any_relation(), onto in proptest::collection::vec(0u32..W as u32, 0..=W)) {
        // projection reference (clip onto to r's schema)
        let onto = AttrSet::from_raw(&onto).intersect(r.attrs());
        let pos: Vec<usize> = onto.iter()
            .map(|a| r.attrs().iter().position(|b| b == a).unwrap())
            .collect();
        let expect_proj: BTreeSet<Vec<u64>> = r.rows()
            .map(|t| pos.iter().map(|&p| t[p]).collect())
            .collect();
        let proj = r.project(&onto);
        prop_assert_eq!(proj.to_vecs(), expect_proj.into_iter().collect::<Vec<_>>());

        // natural-join and semijoin references: nested loops over the rows
        let j = r.natural_join(&s);
        prop_assert_eq!(j.attrs(), &r.attrs().union(s.attrs()));
        prop_assert_eq!(j.to_vecs(), reference_join(&r, &s));
        prop_assert_eq!(r.semijoin(&s).to_vecs(), reference_semijoin(&r, &s));

        // union reference (same-schema only)
        if r.attrs() == s.attrs() {
            let expect_union: BTreeSet<Vec<u64>> = r.rows().chain(s.rows()).map(<[u64]>::to_vec).collect();
            prop_assert_eq!(r.union(&s).to_vecs(), expect_union.into_iter().collect::<Vec<_>>());
        }
    }
}

/// Whether rows `tr` of `r` and `ts` of `s` agree on every shared
/// attribute.
fn rows_agree(r: &Relation, tr: &[u64], s: &Relation, ts: &[u64]) -> bool {
    let col = |rel: &Relation, a| rel.attrs().iter().position(|b| b == a).unwrap();
    r.attrs()
        .intersect(s.attrs())
        .iter()
        .all(|a| tr[col(r, a)] == ts[col(s, a)])
}

/// Per-row reference semijoin: `r ⋉ s` by nested loops over the shim rows.
fn reference_semijoin(r: &Relation, s: &Relation) -> Vec<Vec<u64>> {
    r.rows()
        .filter(|tr| s.rows().any(|ts| rows_agree(r, tr, s, ts)))
        .map(<[u64]>::to_vec)
        .collect()
}

/// Per-row reference join: `r ⋈ s` by nested loops over the shim rows,
/// sorted and deduplicated.
fn reference_join(r: &Relation, s: &Relation) -> Vec<Vec<u64>> {
    let out_attrs = r.attrs().union(s.attrs());
    let mut out: BTreeSet<Vec<u64>> = BTreeSet::new();
    for tr in r.rows() {
        for ts in s.rows().filter(|ts| rows_agree(r, tr, s, ts)) {
            out.insert(
                out_attrs
                    .iter()
                    .map(|a| match r.attrs().iter().position(|b| b == a) {
                        Some(p) => tr[p],
                        None => ts[s.attrs().iter().position(|b| b == a).unwrap()],
                    })
                    .collect(),
            );
        }
    }
    out.into_iter().collect()
}

/// Schemas whose pairwise overlaps hit every key-width class: width-1
/// (`b`), width-2 (`bc`), wide/width-3 (`cde`-style), plus the empty key
/// (disjoint pair) and the degenerate `∅` schema for `{}`/`{()}` edges.
fn kernel_schemas() -> Vec<Vec<u32>> {
    vec![
        vec![0, 1],          // ab
        vec![1, 2],          // bc           (width-1 key vs ab)
        vec![1, 2, 3],       // bcd          (width-2 key vs bc)
        vec![1, 2, 3, 4, 5], // bcdef        (width-3 key vs bcd)
        vec![2, 3, 4, 5, 6], // cdefg        (width-4 key vs bcdef)
        vec![9],             // j            (empty key vs everything)
        vec![],              // ∅            ({} / {()} edge cases)
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Gather projection agrees with the per-row reference on wide arities
    /// and mixed-magnitude values (contiguous and scattered column maps).
    #[test]
    fn gather_projection_matches_reference_on_wide_rows(
        r in relation_over(vec![0, 1, 2, 3, 4, 5, 6, 7]),
        onto in proptest::collection::vec(0u32..8, 0..=8),
    ) {
        let onto = AttrSet::from_raw(&onto);
        let pos: Vec<usize> = onto.iter()
            .map(|a| r.attrs().iter().position(|b| b == a).unwrap())
            .collect();
        let expect: BTreeSet<Vec<u64>> = r.rows()
            .map(|t| pos.iter().map(|&p| t[p]).collect())
            .collect();
        let proj = r.project(&onto);
        prop_assert_eq!(proj.to_vecs(), expect.into_iter().collect::<Vec<_>>());
        prop_assert_eq!(proj.len() * proj.arity(), proj.data().len());
    }

    /// The chunked key-compare semijoin agrees with the per-row reference
    /// for every key width the schema pool produces (1, 2, wide, empty),
    /// on small and pack-defeating values.
    #[test]
    fn kernel_semijoin_matches_reference_for_all_key_widths(
        ra in proptest::sample::select(kernel_schemas()).prop_flat_map(relation_over),
        rb in proptest::sample::select(kernel_schemas()).prop_flat_map(relation_over),
    ) {
        check_semijoin(&ra, &rb);
    }

    /// Selection-vector program execution (`semijoin_program`, fresh and
    /// warm-scratch) agrees with a nested-loop semijoin per step on random
    /// programs over the width-mixed schema pool.
    #[test]
    fn selvec_program_matches_sequential_semijoins(
        rels0 in proptest::collection::vec(
            proptest::sample::select(kernel_schemas()).prop_flat_map(relation_over), 2..6),
        raw_steps in proptest::collection::vec((0usize..6, 0usize..6), 0..12),
        reuse in any::<bool>(),
    ) {
        check_program(&rels0, &raw_steps, reuse);
    }

    /// The bucket-chain `natural_join` agrees with nested loops on every
    /// pair of the width-mixed schema pool — join keys of width 0 to 4 —
    /// on small and pack-defeating values, in both argument orders.
    #[test]
    fn natural_join_matches_nested_loops_for_all_key_widths(
        ra in proptest::sample::select(kernel_schemas()).prop_flat_map(relation_over),
        rb in proptest::sample::select(kernel_schemas()).prop_flat_map(relation_over),
    ) {
        for (r, s) in [(&ra, &rb), (&rb, &ra)] {
            let j = r.natural_join(s);
            prop_assert_eq!(j.attrs(), &r.attrs().union(s.attrs()));
            prop_assert_eq!(j.to_vecs(), reference_join(r, s));
        }
    }

    /// `is_subset` (a merge of sorted buffers) and `contains` (a binary
    /// search) agree with a `BTreeSet` reference on pairs over one schema
    /// of the pool, `∅` included: unrelated pairs, a sub-relation of unequal
    /// length, and a union.
    #[test]
    fn subset_and_membership_match_a_btreeset_reference(
        pair in proptest::sample::select(kernel_schemas()).prop_flat_map(|attrs| (
            relation_over(attrs.clone()),
            relation_over(attrs),
            proptest::collection::vec(any::<bool>(), 12),
        )),
    ) {
        let (a, b, mask) = pair;
        check_subset_and_membership(&a, &b, &mask);
    }
}

/// [`subset_and_membership_match_a_btreeset_reference`]'s body, plus the
/// `{}`/`{()}` edge cases.
fn check_subset_and_membership(a: &Relation, b: &Relation, mask: &[bool]) {
    let nothing = Relation::empty(AttrSet::empty());
    let unit = Relation::identity();
    prop_assert!(nothing.is_subset(&unit), "{{}} ⊆ {{()}}");
    prop_assert!(!unit.is_subset(&nothing), "{{()}} ⊄ {{}}");
    prop_assert!(nothing.is_subset(&nothing) && unit.is_subset(&unit));

    let set = |r: &Relation| -> BTreeSet<Vec<u64>> { r.rows().map(<[u64]>::to_vec).collect() };
    let sub = Relation::new(
        a.attrs().clone(),
        a.rows()
            .zip(mask)
            .filter(|&(_, &m)| m)
            .map(|(t, _)| t.to_vec())
            .collect(),
    );
    let union = a.union(b);
    for (x, y) in [
        (a, b),
        (b, a),
        (&sub, a),
        (a, &sub),
        (a, &union),
        (&union, b),
    ] {
        prop_assert_eq!(
            x.is_subset(y),
            set(x).is_subset(&set(y)),
            "{:?} ⊆ {:?}",
            x.to_vecs(),
            y.to_vecs()
        );
    }
    let members = set(a);
    for t in a.rows().chain(b.rows()).chain(union.rows()) {
        prop_assert_eq!(a.contains(t), members.contains(t), "{:?}", t);
        prop_assert!(!a.contains(&[t, &[0]].concat()), "wrong width");
    }
}

/// `r ⋉ s` and `s ⋉ r` through the one-shot operator and through a
/// one-step program, against the per-row reference.
fn check_semijoin(ra: &Relation, rb: &Relation) {
    for (r, s) in [(ra, rb), (rb, ra)] {
        let want = reference_semijoin(r, s);
        prop_assert_eq!(r.semijoin(s).to_vecs(), want.clone());
        let schemas = [r.attrs().clone(), s.attrs().clone()];
        let mut rels = vec![r.clone(), s.clone()];
        semijoin_program(&mut rels, &[SemijoinStep::new(&schemas, 0, 1)]);
        prop_assert_eq!(rels[0].to_vecs(), want);
    }
    // Definition check against the (independently kernel-tested) join.
    prop_assert_eq!(ra.semijoin(rb), ra.natural_join(rb).project(ra.attrs()));
}

/// Runs the program `raw_steps` (slot indices taken modulo the slot count)
/// over `rels0` with a fresh scratch, or with a warmed one when `reuse`,
/// against one nested-loop semijoin per step.
fn check_program(rels0: &[Relation], raw_steps: &[(usize, usize)], reuse: bool) {
    let schemas: Vec<AttrSet> = rels0.iter().map(|r| r.attrs().clone()).collect();
    let steps: Vec<SemijoinStep> = raw_steps
        .iter()
        .map(|&(t, s)| SemijoinStep::new(&schemas, t % rels0.len(), s % rels0.len()))
        .collect();

    // Reference: one nested-loop semijoin per step, in order.
    let mut expect = rels0.to_vec();
    for st in &steps {
        let kept = reference_semijoin(&expect[st.target()], &expect[st.source()]);
        expect[st.target()] = Relation::new(schemas[st.target()].clone(), kept);
    }

    let mut got = rels0.to_vec();
    if reuse {
        // Warm the scratch on a first run, then re-run from the
        // original state: reused buffers must not change answers.
        let mut scratch = ExecScratch::new();
        let mut warm = rels0.to_vec();
        semijoin_program_with(&mut warm, &steps, &mut scratch);
        semijoin_program_with(&mut got, &steps, &mut scratch);
        prop_assert_eq!(&warm, &got, "warm-up run and reuse run agree");
    } else {
        semijoin_program(&mut got, &steps);
    }
    for (k, (g, e)) in got.iter().zip(&expect).enumerate() {
        prop_assert_eq!(g, e, "slot {}", k);
    }
}

/// Operator-at-a-time join-up over the `kept` nodes: per kept tree edge
/// one `Relation::project` onto `X ∩ U(kept subtree) ∪ (Rᵥ ∩ R_parent)`
/// and one `Relation::natural_join` into the parent, then `project` onto
/// `X` — the loop the flat executor replaces, every intermediate
/// normalized.
fn reference_join_up(
    rels: &[Relation],
    rooted: &RootedTree,
    kept: &[bool],
    x: &AttrSet,
) -> Relation {
    let mut subtree_x: Vec<AttrSet> = rels.iter().map(|r| r.attrs().intersect(x)).collect();
    for &v in &rooted.post_order {
        if v != rooted.root && kept[v] {
            let p = rooted.parent[v];
            subtree_x[p] = subtree_x[p].union(&subtree_x[v]);
        }
    }
    let mut acc: Vec<Relation> = rels.to_vec();
    for &v in &rooted.post_order {
        if v != rooted.root && kept[v] {
            let p = rooted.parent[v];
            let keep = subtree_x[v].union(&rels[v].attrs().intersect(rels[p].attrs()));
            let pruned = acc[v].project(&keep);
            acc[p] = acc[p].natural_join(&pruned);
        }
    }
    let root = &acc[rooted.root];
    if root.is_empty() {
        Relation::empty(x.clone())
    } else {
        root.project(x)
    }
}

/// A random rooted tree over nodes `0..n`: `order` is `0..n` rotated by
/// `shift` (so any node can be the root), and node `order[i]` hangs below
/// `order[raw[i] % i]`; the reverse of `order` is a post-order.
fn rooted_tree(n: usize, shift: usize, raw: &[usize]) -> RootedTree {
    let order: Vec<usize> = (0..n).map(|i| (i + shift) % n).collect();
    let mut parent = vec![order[0]; n];
    for i in 1..n {
        parent[order[i]] = order[raw[i] % i];
    }
    RootedTree {
        root: order[0],
        parent,
        post_order: order.into_iter().rev().collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The flat join-up executor (unsorted duplicate-free intermediates,
    /// bucket-chain builds, one normalization at the root) returns exactly
    /// the normalized relation the operator-at-a-time loop does, on random
    /// rooted trees over the width-mixed schema pool — join keys and kept
    /// projections of width 0, 1, 2 and ≥ 3, `{}`/`{()}` nodes, and values
    /// near `u64::MAX` that defeat packed normalization — with a fresh
    /// scratch and with a scratch reused across calls. Every node is kept,
    /// and then a random subtree hanging from the root.
    #[test]
    fn flat_join_up_matches_operator_at_a_time_reference(
        rels in proptest::collection::vec(
            proptest::sample::select(kernel_schemas()).prop_flat_map(relation_over), 1..6),
        shift in 0usize..6,
        raw in proptest::collection::vec(0usize..6, 6),
        cut in proptest::collection::vec(any::<bool>(), 6),
        xs in proptest::collection::vec(0u32..10, 0..6),
        ys in proptest::collection::vec(0u32..10, 0..6),
    ) {
        check_join_up(&rels, shift, &raw, &cut, &xs, &ys);
    }
}

/// The flat executor against the operator-at-a-time reference on the
/// rooted tree `rooted_tree(n, shift, raw)`, over every node and over the
/// subtree that drops each `cut` node's subtree, for `X` = `xs ∩ U`,
/// `ys ∩ U` and `U` (`U` the kept nodes' attributes), with a fresh scratch
/// and with one reused across the calls.
fn check_join_up(
    rels: &[Relation],
    shift: usize,
    raw: &[usize],
    cut: &[bool],
    xs: &[u32],
    ys: &[u32],
) {
    let n = rels.len();
    let rooted = rooted_tree(n, shift % n, raw);
    let mut pruned = vec![true; n];
    for &v in rooted.post_order.iter().rev() {
        pruned[v] = v == rooted.root || (pruned[rooted.parent[v]] && !cut[v]);
    }
    let mut scratch = ExecScratch::new();
    for kept in [vec![true; n], pruned] {
        let u = (0..n)
            .filter(|&v| kept[v])
            .fold(AttrSet::empty(), |acc, v| acc.union(rels[v].attrs()));
        for x in [
            AttrSet::from_raw(xs).intersect(&u),
            AttrSet::from_raw(ys).intersect(&u),
            u.clone(),
        ] {
            let want = reference_join_up(rels, &rooted, &kept, &x);
            prop_assert_eq!(
                &join_up_with(rels, &rooted, &kept, &x, &mut ExecScratch::new()),
                &want,
                "fresh scratch, kept {:?}, X = {:?}",
                kept,
                x
            );
            prop_assert_eq!(
                &join_up_with(rels, &rooted, &kept, &x, &mut scratch),
                &want,
                "reused scratch, kept {:?}, X = {:?}",
                kept,
                x
            );
        }
    }
}

/// Bits per value `s = ⌊128/w⌋` of a packed key of width `w`.
fn fit_shift(w: usize) -> u32 {
    (128 / w) as u32
}

/// Relations whose keys sit on the fit boundary of one random width
/// `w = 2..=9`. Every schema holds a shared core of `w` attributes
/// (`0..w`) — all of it, or all but attribute 0 — plus, mostly, one
/// private attribute, so any two relations join on a key of width `w` or
/// `w − 1` and never on an empty one.
///
/// Rows come from one pool. Each base row of 0/1 values has one perturbed
/// core column `c` and up to three copies: `c` set to `2^s − 1` (the largest
/// value that packs at width `w`), `c` set to `2^s` (the smallest that does
/// not; `u64::MAX` for `w = 2`, where every value packs), and column
/// `c − 1` incremented. Packed with shift `s + 1`, the `2^s` copy wraps
/// onto the base row when `c = 0`; packed without the fit check, it carries
/// onto the incremented copy. A correct encoding keeps every copy apart.
/// Each relation keeps a random quarter, half or three quarters of the
/// pool, so some sides hold no unfit value and pair with others that do.
fn boundary_rels(n: impl Into<SizeRange>) -> impl Strategy<Value = Vec<Relation>> {
    let n = n.into();
    (2usize..=9).prop_flat_map(move |w| {
        let perturbed = prop_oneof![1 => Just(0usize), 1 => Just(1usize), 2 => 0..w];
        let base = (proptest::collection::vec(0u64..2, w + 1), perturbed);
        let shape = (0u32..8, any::<u64>(), any::<u64>(), 0u32..3);
        (
            proptest::collection::vec(base, 1..=3),
            proptest::collection::vec(shape, n),
        )
            .prop_map(move |(bases, shapes)| boundary_state(w, &bases, &shapes))
    })
}

/// Builds [`boundary_rels`]' relations: the row pool (`w` core values plus
/// one tail value per row) and, per `(form, mask, mask2, density)` shape,
/// one relation over the chosen schema holding the masked pool rows.
fn boundary_state(
    w: usize,
    bases: &[(Vec<u64>, usize)],
    shapes: &[(u32, u64, u64, u32)],
) -> Vec<Relation> {
    let s = fit_shift(w);
    let top = ((1u128 << s) - 1) as u64;
    let over = if s < 64 { 1u64 << s } else { u64::MAX };
    let mut pool: Vec<Vec<u64>> = Vec::new();
    for (row, c) in bases {
        let c = *c;
        for v in [top, over] {
            let mut r = row.clone();
            r[c] = v;
            pool.push(r);
        }
        if c > 0 {
            let mut r = row.clone();
            r[c - 1] += 1;
            pool.push(r);
        }
        pool.push(row.clone());
    }
    let core = w as u32;
    shapes
        .iter()
        .enumerate()
        .map(|(i, &(form, m1, m2, density))| {
            // form 0: the core alone; 1: core minus attribute 0 plus a
            // private attribute; otherwise: core plus a private attribute.
            let lo = u32::from(form == 1);
            let mut attrs: Vec<u32> = (lo..core).collect();
            if form != 0 {
                attrs.push(core + i as u32);
            }
            let mask = match density {
                0 => m1 & m2,
                1 => m1,
                _ => m1 | m2,
            };
            let tuples = pool
                .iter()
                .enumerate()
                .filter(|&(j, _)| mask >> j & 1 == 1)
                .map(|(_, r)| {
                    let mut t = r[lo as usize..w].to_vec();
                    if form != 0 {
                        t.push(r[w]);
                    }
                    t
                })
                .collect();
            Relation::new(AttrSet::from_raw(&attrs), tuples)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// [`check_semijoin`] with keys of width 2 to 9 on the fit boundary.
    #[test]
    fn kernel_semijoin_matches_reference_at_the_fit_boundary(rels in boundary_rels(2..=2)) {
        check_semijoin(&rels[0], &rels[1]);
    }

    /// [`check_program`] with keys of width 2 to 9 on the fit boundary.
    #[test]
    fn selvec_program_matches_sequential_semijoins_at_the_fit_boundary(
        rels0 in boundary_rels(2..6),
        raw_steps in proptest::collection::vec((0usize..6, 0usize..6), 0..12),
        reuse in any::<bool>(),
    ) {
        check_program(&rels0, &raw_steps, reuse);
    }

    /// [`check_join_up`] with keys of width 2 to 9 on the fit boundary.
    #[test]
    fn flat_join_up_matches_operator_at_a_time_reference_at_the_fit_boundary(
        rels in boundary_rels(1..6),
        shift in 0usize..6,
        raw in proptest::collection::vec(0usize..6, 6),
        cut in proptest::collection::vec(any::<bool>(), 6),
        xs in proptest::collection::vec(0u32..16, 0..6),
        ys in proptest::collection::vec(0u32..16, 0..6),
    ) {
        check_join_up(&rels, shift, &raw, &cut, &xs, &ys);
    }
}

/// The fewest rows for which a relation caches its key columns: the
/// executor's private `CACHE_MIN_ROWS`, restated. A smaller relation's
/// keys are extracted into the scratch on every step.
const CACHE_MIN_ROWS: usize = 64;

/// The core attribute sets a threshold slot chooses from. Two slots'
/// cores meet in a key of width 0 to 3; the width-3 core is listed twice
/// so that width-3 steps are common.
const THRESHOLD_CORES: [&[u32]; 5] = [&[0], &[0, 1], &[0, 1, 2], &[0, 1, 2], &[1, 2]];

/// One threshold slot: its row count, its core (an index into
/// [`THRESHOLD_CORES`]), its value regime, and the raw cells of its core
/// columns.
type ThresholdSlot = (usize, usize, u8, Vec<u64>);

/// A slot of `size` rows (see [`threshold_relation`]).
fn threshold_slot(size: impl Strategy<Value = usize>) -> impl Strategy<Value = ThresholdSlot> {
    (
        size,
        0..THRESHOLD_CORES.len(),
        0u8..3,
        proptest::collection::vec(0u64..4, 3 * 2 * CACHE_MIN_ROWS),
    )
}

/// Sizes on both sides of the threshold: just under it, at it, just over
/// it, or anywhere in `1..2·CACHE_MIN_ROWS`.
fn straddling_size() -> impl Strategy<Value = usize> {
    prop_oneof![
        1 => Just(CACHE_MIN_ROWS - 1),
        1 => Just(CACHE_MIN_ROWS),
        1 => Just(CACHE_MIN_ROWS + 1),
        3 => 1..2 * CACHE_MIN_ROWS,
    ]
}

/// Slot `k`'s relation: `size` rows over its core plus the private
/// attribute `10 + k`, which holds the row number, so that the rows are
/// distinct and the relation has exactly `size` rows. A raw cell `c < 4`
/// becomes, by regime:
/// - 0: `c` — width-1 keys fill the stamp table, wider keys pack;
/// - 1: `c · 2^40` — width-1 keys span too wide a range for the stamp
///   table and go to the `u128` set, and width-3 keys still pack (every
///   value is below `2^42`);
/// - 2: `c`, or `2^42 + c` for every third row — width-3 keys do not pack
///   and the step takes the bucket chain; width-2 keys pack all the same.
fn threshold_relation(k: usize, slot: &ThresholdSlot) -> Relation {
    let (size, core, regime, cells) = slot;
    let core = THRESHOLD_CORES[*core];
    let mut attrs = core.to_vec();
    attrs.push(10 + k as u32);
    let mut data = Vec::with_capacity(size * attrs.len());
    for i in 0..*size {
        data.extend(core.iter().enumerate().map(|(j, _)| {
            let c = cells[3 * i + j];
            match regime {
                0 => c,
                1 => c << 40,
                _ if i % 3 == 0 => (1 << 42) + c,
                _ => c,
            }
        }));
        data.push(i as u64);
    }
    Relation::from_row_major(AttrSet::from_raw(&attrs), *size, data)
}

thread_local! {
    /// The one scratch every case of the threshold property runs on, so
    /// each case starts from the buffers an earlier case of another shape
    /// left behind.
    static THRESHOLD_SCRATCH: std::cell::RefCell<ExecScratch> =
        std::cell::RefCell::new(ExecScratch::new());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Programs whose slots straddle the key-column caching threshold agree
    /// with one nested-loop semijoin per step. Slot 0 has fewer than
    /// `CACHE_MIN_ROWS` rows and slot 1 at least as many, and every program
    /// starts with `0 ⋉ 1` and `1 ⋉ 0`, so both a small source against a
    /// large target and a large source against a small target occur; the
    /// other slots take any size on either side. Keys of width 1 to 3 in
    /// three value regimes reach every membership arm: the stamp table,
    /// the `u128` set for wide-range width-1 keys and for packed keys of
    /// width 2 and 3, and the bucket chain for width-3 keys that do not
    /// pack. Each program runs twice on one scratch shared by all cases:
    /// cold, then over the columns the large slots cached.
    #[test]
    fn selvec_program_matches_sequential_semijoins_across_the_cache_threshold(
        small in threshold_slot(prop_oneof![1 => Just(CACHE_MIN_ROWS - 1), 1 => 1..CACHE_MIN_ROWS]),
        large in threshold_slot(prop_oneof![
            1 => Just(CACHE_MIN_ROWS),
            1 => Just(CACHE_MIN_ROWS + 1),
            1 => CACHE_MIN_ROWS..2 * CACHE_MIN_ROWS,
        ]),
        rest in proptest::collection::vec(threshold_slot(straddling_size()), 0..4),
        raw_steps in proptest::collection::vec((0usize..6, 0usize..6), 0..12),
    ) {
        let rels0: Vec<Relation> = [small, large]
            .iter()
            .chain(&rest)
            .enumerate()
            .map(|(k, slot)| threshold_relation(k, slot))
            .collect();
        let raw: Vec<(usize, usize)> = [(0, 1), (1, 0)].into_iter().chain(raw_steps).collect();
        check_threshold_program(&rels0, &raw);
    }
}

/// Runs the program `raw_steps` (slot indices taken modulo the slot count)
/// over `rels0` twice on the shared threshold scratch, against one
/// nested-loop semijoin per step.
fn check_threshold_program(rels0: &[Relation], raw_steps: &[(usize, usize)]) {
    let schemas: Vec<AttrSet> = rels0.iter().map(|r| r.attrs().clone()).collect();
    let steps: Vec<SemijoinStep> = raw_steps
        .iter()
        .map(|&(t, s)| SemijoinStep::new(&schemas, t % rels0.len(), s % rels0.len()))
        .collect();
    let mut expect = rels0.to_vec();
    for st in &steps {
        let kept = reference_semijoin(&expect[st.target()], &expect[st.source()]);
        expect[st.target()] = Relation::new(schemas[st.target()].clone(), kept);
    }
    THRESHOLD_SCRATCH.with(|scratch| {
        let scratch = &mut scratch.borrow_mut();
        for run in ["cold", "warm"] {
            let mut got = rels0.to_vec();
            semijoin_program_with(&mut got, &steps, scratch);
            for (k, (g, e)) in got.iter().zip(&expect).enumerate() {
                prop_assert_eq!(
                    g.to_vecs(),
                    e.to_vecs(),
                    "{} run, slot {} of {} rows, steps {:?}",
                    run,
                    k,
                    rels0[k].len(),
                    raw_steps
                );
            }
        }
    });
}
