//! The flat join-up executor: the join phase of the tree case over
//! unsorted, duplicate-free intermediates.
//!
//! After a full reducer no tuple dangles, so joining a tree schema's
//! reduced relations up a rooted join tree with early projection — each
//! child projected onto the attributes the rest of the query still needs,
//! then joined into its parent — is output-bounded (Yannakakis). Run
//! operator-at-a-time (`Relation::project`, then `Relation::natural_join`,
//! per edge), that loop normalizes every intermediate twice — a sort after
//! the projection and another after the join — and builds a fresh
//! `KeyIndex` behind the relation cache on every edge. [`join_up_with`]
//! runs the same edge sequence without any of that:
//!
//! * Intermediates are flat row-major buffers that are **duplicate-free
//!   but unsorted**. Leaves borrow the input relations' buffers.
//! * A projection deduplicates through a hash set on packed keys: `u64`
//!   for width 1, `u128` for width 2, hash-then-compare for wider rows.
//!   Join keys are chained the same way. Wider keys are not packed into
//!   the fixed-shift `u128` encoding of the semijoin key columns (see
//!   [`crate::exec`]): on the `perfbench` `tree_reuse` families that did
//!   not make this executor faster.
//! * A join builds a **bucket chain** on its smaller side — `head: key →
//!   first row`, `next[row] → the next row with the same key` — so a build
//!   allocates nothing per key. A width-0 key is a cross product. Output
//!   rows are assembled by [`kernels::gather_pairs`]. A join of two
//!   duplicate-free inputs is duplicate-free, so nothing is sorted between
//!   edges.
//! * Only the final `π_X` goes through [`Relation::from_row_major`], which
//!   normalizes once.
//!
//! The bucket chains, the pair list, the dedup sets and the intermediate
//! row buffers live in a caller-owned [`JoinUpScratch`] that is reused
//! across edges and across calls.
//!
//! The cached engine in `gyo-query` answers through this executor. The
//! per-call solvers there keep the operator-at-a-time loop as an
//! independent reference, and `tests/prop.rs` holds the two to identical
//! answers on random rooted trees with every key width.

use std::hash::Hasher;

use gyo_schema::{AttrSet, FxHashMap, FxHashSet, FxHasher, RootedTree};

use crate::kernels::{self, ColumnarView, PAIR_FLUSH};
use crate::relation::{pack2, Relation};

/// End of a bucket chain. Row indices are `u32`, so a build side must hold
/// fewer than `u32::MAX` rows.
const NIL: u32 = u32::MAX;

/// Reusable state for [`join_up_with`]: the bucket-chain arrays, the
/// matched-pair buffer, the projection dedup sets, per-edge column maps, and
/// a pool of row buffers for intermediates. Everything is grow-only.
///
/// Every use resets what it reads before reading it: each join clears its
/// chain heads, `next` links, pair buffer and column maps, each projection
/// its dedup set, position lists are rebuilt, and pooled buffers are
/// cleared when taken. So a scratch left mid-join by a panic is still valid
/// for the next join.
#[derive(Debug, Default)]
pub struct JoinUpScratch {
    /// Bucket-chain heads for width-1 keys.
    head1: FxHashMap<u64, u32>,
    /// Bucket-chain heads for packed width-2 keys.
    head2: FxHashMap<u128, u32>,
    /// Bucket-chain heads for wider keys, by key hash (chains re-compare).
    head_wide: FxHashMap<u64, u32>,
    /// `next[row]`: the next row of `row`'s chain, or [`NIL`].
    next: Vec<u32>,
    /// Projection dedup for width-1 rows.
    seen1: FxHashSet<u64>,
    /// Projection dedup for packed width-2 rows.
    seen2: FxHashSet<u128>,
    /// Matched `(probe, build)` row pairs awaiting assembly.
    pairs: Vec<(u32, u32)>,
    /// Key positions on the build and probe sides, and projection positions.
    build_key: Vec<usize>,
    probe_key: Vec<usize>,
    keep_pos: Vec<usize>,
    /// Output column maps `(out col, source pos)` per join side.
    build_cols: Vec<(usize, usize)>,
    probe_cols: Vec<(usize, usize)>,
    /// Free row buffers for intermediates.
    pool: Vec<Vec<u64>>,
}

impl JoinUpScratch {
    /// A fresh scratch (everything warms up on first use).
    pub fn new() -> Self {
        Self::default()
    }

    fn take_buf(&mut self) -> Vec<u64> {
        let mut buf = self.pool.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    fn recycle(&mut self, acc: Acc<'_>) {
        if let Acc::Flat { data, .. } = acc {
            self.pool.push(data);
        }
    }
}

/// A join-up intermediate: a borrowed input relation, or a flat buffer of
/// duplicate-free rows in no particular order.
enum Acc<'a> {
    Leaf(&'a Relation),
    Flat {
        attrs: AttrSet,
        len: usize,
        data: Vec<u64>,
    },
}

impl Acc<'_> {
    fn attrs(&self) -> &AttrSet {
        match self {
            Acc::Leaf(r) => r.attrs(),
            Acc::Flat { attrs, .. } => attrs,
        }
    }

    fn len(&self) -> usize {
        match self {
            Acc::Leaf(r) => r.len(),
            Acc::Flat { len, .. } => *len,
        }
    }

    fn data(&self) -> &[u64] {
        match self {
            Acc::Leaf(r) => r.data(),
            Acc::Flat { data, .. } => data,
        }
    }

    /// Row `i` (the empty slice for arity 0).
    #[inline]
    fn row(&self, i: usize) -> &[u64] {
        let a = self.attrs().len();
        &self.data()[i * a..(i + 1) * a]
    }
}

/// Positions of `sub`'s attributes within `sup`'s columns (both sorted).
fn positions_into(sub: &AttrSet, sup: &AttrSet, out: &mut Vec<usize>) {
    out.clear();
    let cols = sup.as_slice();
    out.extend(sub.iter().map(|a| {
        cols.binary_search(&a)
            .expect("attribute belongs to the intermediate")
    }));
}

/// FxHash of a wide key, value by value.
#[inline]
fn hash_key(key: impl Iterator<Item = u64>) -> u64 {
    let mut h = FxHasher::default();
    key.for_each(|v| h.write_u64(v));
    h.finish()
}

/// Joins `rels` up the rooted tree with early projection and returns
/// `π_X` of the result, normalized.
///
/// `rels[v]` is node `v`'s relation. For every non-root `v` in post-order,
/// `v`'s accumulated subtree join is projected onto `X ∩ U(subtree(v)) ∪
/// (Rᵥ ∩ R_parent(v))` and joined into its parent's accumulator. On a
/// join tree over a fully reduced state this is the output-bounded
/// Yannakakis join phase; on any other input it computes exactly what the
/// same loop over `Relation::project` and `Relation::natural_join` would.
/// With no relations the answer is `{()}` for `X = ∅` and empty otherwise.
///
/// # Panics
///
/// Panics if `rooted` does not have one node per relation, if `X` is not
/// covered by `rels`, or if a join side holds `u32::MAX` rows or more.
pub fn join_up_with(
    rels: &[Relation],
    rooted: &RootedTree,
    x: &AttrSet,
    scratch: &mut JoinUpScratch,
) -> Relation {
    let n = rels.len();
    if n == 0 {
        return if x.is_empty() {
            Relation::identity()
        } else {
            Relation::empty(x.clone())
        };
    }
    assert_eq!(rooted.parent.len(), n, "one tree node per relation");
    // subtree_x[v]: the attributes of X in the subtree rooted at v.
    let mut subtree_x: Vec<AttrSet> = rels.iter().map(|r| r.attrs().intersect(x)).collect();
    for &v in &rooted.post_order {
        if v != rooted.root {
            let p = rooted.parent[v];
            subtree_x[p] = subtree_x[p].union(&subtree_x[v]);
        }
    }

    let mut acc: Vec<Option<Acc<'_>>> = rels.iter().map(|r| Some(Acc::Leaf(r))).collect();
    for &v in &rooted.post_order {
        if v == rooted.root {
            continue;
        }
        let p = rooted.parent[v];
        let keep = subtree_x[v].union(&rels[v].attrs().intersect(rels[p].attrs()));
        let child = acc[v].take().expect("each node joined once");
        let child = project_dedup(child, &keep, scratch);
        let parent = acc[p].take().expect("parent still pending");
        let joined = join(&parent, &child, scratch);
        scratch.recycle(parent);
        scratch.recycle(child);
        if joined.len() == 0 {
            // An empty join empties the whole answer.
            scratch.recycle(joined);
            for rest in acc.into_iter().flatten() {
                scratch.recycle(rest);
            }
            return Relation::empty(x.clone());
        }
        acc[p] = Some(joined);
    }
    let root = acc[rooted.root]
        .take()
        .expect("root accumulates everything");
    finish(root, x, scratch)
}

/// `π_keep(acc)`, duplicate-free; `acc` itself when nothing is dropped.
fn project_dedup<'a>(acc: Acc<'a>, keep: &AttrSet, scratch: &mut JoinUpScratch) -> Acc<'a> {
    debug_assert!(keep.is_subset(acc.attrs()), "projection onto a subset");
    if keep.len() == acc.attrs().len() {
        return acc;
    }
    let w = keep.len();
    let mut pos = std::mem::take(&mut scratch.keep_pos);
    positions_into(keep, acc.attrs(), &mut pos);
    let mut out = scratch.take_buf();
    let src = acc.data().chunks_exact(acc.attrs().len());
    let len = match *pos {
        [] => acc.len().min(1),
        [p] => {
            let seen = &mut scratch.seen1;
            seen.clear();
            for row in src {
                if seen.insert(row[p]) {
                    out.push(row[p]);
                }
            }
            out.len()
        }
        [p, q] => {
            let seen = &mut scratch.seen2;
            seen.clear();
            for row in src {
                if seen.insert(pack2(row[p], row[q])) {
                    out.extend_from_slice(&[row[p], row[q]]);
                }
            }
            out.len() / 2
        }
        _ => {
            // Hash-then-compare: a bucket chain over the kept rows, keyed
            // by hash, re-comparing the rows themselves on every hit.
            let (head, next) = (&mut scratch.head_wide, &mut scratch.next);
            head.clear();
            next.clear();
            for row in src {
                let start = out.len();
                out.extend(pos.iter().map(|&q| row[q]));
                let h = hash_key(out[start..].iter().copied());
                let first = head.get(&h).copied().unwrap_or(NIL);
                let mut b = first;
                while b != NIL && out[b as usize * w..(b as usize + 1) * w] != out[start..] {
                    b = next[b as usize];
                }
                if b == NIL {
                    head.insert(h, next.len() as u32);
                    next.push(first);
                } else {
                    out.truncate(start);
                }
            }
            next.len()
        }
    };
    scratch.keep_pos = pos;
    scratch.recycle(acc);
    Acc::Flat {
        attrs: keep.clone(),
        len,
        data: out,
    }
}

/// `a ⋈ b` for duplicate-free inputs: a bucket-chain build on the smaller
/// side, a probe of the other, and column assembly over the matched pairs.
fn join<'a>(a: &Acc<'_>, b: &Acc<'_>, scratch: &mut JoinUpScratch) -> Acc<'a> {
    let (build, probe) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    assert!(
        build.len() < NIL as usize && probe.len() <= u32::MAX as usize,
        "join-up: row indices are u32, but the inputs hold {} and {} rows",
        build.len(),
        probe.len()
    );
    let out_attrs = build.attrs().union(probe.attrs());
    let shared = build.attrs().intersect(probe.attrs());
    let out_arity = out_attrs.len();
    scratch.probe_cols.clear();
    scratch.build_cols.clear();
    for (j, attr) in out_attrs.iter().enumerate() {
        match probe.attrs().as_slice().binary_search(&attr) {
            Ok(p) => scratch.probe_cols.push((j, p)),
            Err(_) => scratch.build_cols.push((
                j,
                build
                    .attrs()
                    .as_slice()
                    .binary_search(&attr)
                    .expect("output attribute comes from one side"),
            )),
        }
    }
    positions_into(&shared, build.attrs(), &mut scratch.build_key);
    positions_into(&shared, probe.attrs(), &mut scratch.probe_key);

    let mut out = scratch.take_buf();
    let mut rows = 0usize;
    let JoinUpScratch {
        head1,
        head2,
        head_wide,
        next,
        pairs,
        build_key,
        probe_key,
        build_cols,
        probe_cols,
        ..
    } = scratch;
    let mut flush = |pairs: &mut Vec<(u32, u32)>, out: &mut Vec<u64>| {
        rows += pairs.len();
        kernels::gather_pairs(
            probe.data(),
            probe.attrs().len(),
            build.data(),
            build.attrs().len(),
            probe_cols,
            build_cols,
            pairs,
            out_arity,
            out,
        );
        pairs.clear();
    };
    pairs.clear();
    if build.len() > 0 {
        next.clear();
        next.resize(build.len(), NIL);
        // Build, then probe: `$bkey`/`$pkey` map a build/probe row to its
        // chain key; `$same` confirms a chain hit (wide keys chain by hash).
        #[allow(clippy::redundant_closure_call)]
        macro_rules! chain_join {
            ($head:expr, $bkey:expr, $pkey:expr, $same:expr) => {{
                let head = $head;
                head.clear();
                for bi in 0..build.len() {
                    if let Some(prev) = head.insert($bkey(build.row(bi)), bi as u32) {
                        next[bi] = prev;
                    }
                }
                for pi in 0..probe.len() {
                    let prow = probe.row(pi);
                    let Some(&first) = head.get(&$pkey(prow)) else {
                        continue;
                    };
                    let mut bi = first;
                    while bi != NIL {
                        if $same(build.row(bi as usize), prow) {
                            pairs.push((pi as u32, bi));
                        }
                        bi = next[bi as usize];
                    }
                    if pairs.len() >= PAIR_FLUSH {
                        flush(pairs, &mut out);
                    }
                }
            }};
        }
        let exact = |_: &[u64], _: &[u64]| true;
        match (build_key.as_slice(), probe_key.as_slice()) {
            ([], []) => {
                // Disjoint schemas: cross product.
                for pi in 0..probe.len() as u32 {
                    pairs.extend((0..build.len() as u32).map(|bi| (pi, bi)));
                    if pairs.len() >= PAIR_FLUSH {
                        flush(pairs, &mut out);
                    }
                }
            }
            (&[bp], &[pp]) => chain_join!(head1, |r: &[u64]| r[bp], |r: &[u64]| r[pp], exact),
            (&[bp, bq], &[pp, pq]) => chain_join!(
                head2,
                |r: &[u64]| pack2(r[bp], r[bq]),
                |r: &[u64]| pack2(r[pp], r[pq]),
                exact
            ),
            // Wide keys chain by hash; every hit re-compares the key
            // columns, so a hash collision never matches.
            (bk, pk) => chain_join!(
                head_wide,
                |r: &[u64]| hash_key(bk.iter().map(|&p| r[p])),
                |r: &[u64]| hash_key(pk.iter().map(|&p| r[p])),
                |b: &[u64], r: &[u64]| bk.iter().zip(pk).all(|(&x, &y)| b[x] == r[y])
            ),
        }
        flush(pairs, &mut out);
    }
    debug_assert_eq!(out.len(), rows * out_arity);
    Acc::Flat {
        attrs: out_attrs,
        len: rows,
        data: out,
    }
}

/// `π_X(root)`, normalized once by [`Relation::from_row_major`].
fn finish(root: Acc<'_>, x: &AttrSet, scratch: &mut JoinUpScratch) -> Relation {
    assert!(
        x.is_subset(root.attrs()),
        "target X must be covered by the joined relations"
    );
    if root.len() == 0 {
        scratch.recycle(root);
        return Relation::empty(x.clone());
    }
    match root {
        Acc::Leaf(r) => r.project(x),
        Acc::Flat { attrs, len, data } if attrs == *x => Relation::from_row_major(attrs, len, data),
        Acc::Flat { attrs, len, data } => {
            positions_into(x, &attrs, &mut scratch.keep_pos);
            let mut out = Vec::with_capacity(len * x.len());
            ColumnarView::new(&data, attrs.len(), len).gather_into(&scratch.keep_pos, &mut out);
            scratch.pool.push(data);
            Relation::from_row_major(x.clone(), len, out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attrs(raw: &[u32]) -> AttrSet {
        AttrSet::from_raw(raw)
    }

    fn join_up(rels: &[Relation], rooted: &RootedTree, x: &AttrSet) -> Relation {
        join_up_with(rels, rooted, x, &mut JoinUpScratch::new())
    }

    /// The chain `0 – 1 – … – n−1` rooted at node 0.
    fn chain_tree(n: usize) -> RootedTree {
        RootedTree {
            root: 0,
            parent: (0..n).map(|v| v.saturating_sub(1)).collect(),
            post_order: (0..n).rev().collect(),
        }
    }

    #[test]
    fn chain_join_projects_early_and_normalizes_once() {
        let rels = vec![
            Relation::new(attrs(&[0, 1]), vec![vec![1, 10], vec![2, 20], vec![3, 10]]),
            Relation::new(attrs(&[1, 2]), vec![vec![10, 100], vec![20, 200]]),
            Relation::new(
                attrs(&[2, 3]),
                vec![vec![100, 7], vec![100, 8], vec![200, 9]],
            ),
        ];
        let x = attrs(&[0, 3]);
        let got = join_up(&rels, &chain_tree(3), &x);
        assert_eq!(
            got.to_vecs(),
            vec![vec![1, 7], vec![1, 8], vec![2, 9], vec![3, 7], vec![3, 8]]
        );
    }

    #[test]
    fn every_key_width_and_the_cross_product() {
        // Edge keys of width 0 (disjoint), 1, 2 and 3 on one chain.
        let rels = vec![
            Relation::new(
                attrs(&[0, 1, 2, 3]),
                vec![vec![1, 2, 3, 4], vec![5, 6, 7, 8]],
            ),
            Relation::new(
                attrs(&[1, 2, 3, 9]),
                vec![vec![2, 3, 4, 0], vec![6, 7, 0, 0]],
            ),
            Relation::new(attrs(&[3, 9, 10]), vec![vec![4, 0, 11], vec![4, 0, 12]]),
            Relation::new(attrs(&[10, 11]), vec![vec![11, 1], vec![12, 2]]),
            Relation::new(attrs(&[20]), vec![vec![5], vec![6]]),
        ];
        let x = attrs(&[0, 11, 20]);
        let got = join_up(&rels, &chain_tree(5), &x);
        let mut want = Vec::new();
        for (y, z) in [(1, 5), (1, 6), (2, 5), (2, 6)] {
            want.push(vec![1, y, z]);
        }
        assert_eq!(got.to_vecs(), want);
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let x = attrs(&[0]);
        assert_eq!(
            join_up(&[], &chain_tree(0), &AttrSet::empty()),
            Relation::identity()
        );
        assert!(join_up(&[], &chain_tree(0), &x).is_empty());
        // A dangling pair joins to nothing: the answer is empty over X.
        let rels = vec![
            Relation::new(attrs(&[0, 1]), vec![vec![1, 10]]),
            Relation::new(attrs(&[1, 2]), vec![vec![20, 100]]),
        ];
        let got = join_up(&rels, &chain_tree(2), &x);
        assert!(got.is_empty());
        assert_eq!(got.attrs(), &x);
        // X = ∅ over a nonempty join is {()}.
        let rels = vec![
            Relation::new(attrs(&[0, 1]), vec![vec![1, 10], vec![2, 10]]),
            Relation::new(attrs(&[1, 2]), vec![vec![10, 100]]),
        ];
        assert_eq!(
            join_up(&rels, &chain_tree(2), &AttrSet::empty()),
            Relation::identity()
        );
        // A single node is a plain projection.
        assert_eq!(
            join_up(&rels[..1], &chain_tree(1), &x).to_vecs(),
            vec![vec![1], vec![2]]
        );
    }

    #[test]
    fn scratch_reuse_across_calls_is_sound() {
        let mut scratch = JoinUpScratch::new();
        let a = vec![
            Relation::new(attrs(&[0, 1]), vec![vec![1, 10], vec![2, 20]]),
            Relation::new(attrs(&[1, 2]), vec![vec![10, 5], vec![20, 6], vec![20, 7]]),
        ];
        let b = vec![
            Relation::new(attrs(&[0, 1, 2]), vec![vec![1, 2, 3], vec![4, 5, 6]]),
            Relation::new(attrs(&[0, 1, 2, 3]), vec![vec![1, 2, 3, 9]]),
        ];
        let xa = attrs(&[0, 2]);
        let xb = attrs(&[3]);
        let first = join_up_with(&a, &chain_tree(2), &xa, &mut scratch);
        let other = join_up_with(&b, &chain_tree(2), &xb, &mut scratch);
        assert_eq!(other.to_vecs(), vec![vec![9]]);
        assert_eq!(join_up_with(&a, &chain_tree(2), &xa, &mut scratch), first);
        assert_eq!(first.to_vecs(), vec![vec![1, 5], vec![2, 6], vec![2, 7]]);
    }
}
