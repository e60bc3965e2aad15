//! The flat join-up executor: the join phase of the tree case over
//! unsorted, duplicate-free intermediates, and the one join kernel —
//! [`Relation::natural_join`] is this module's join over two leaves.
//!
//! After a full reducer no tuple dangles, so joining a tree schema's
//! reduced relations up a rooted join tree with early projection — each
//! child projected onto the attributes the rest of the query still needs,
//! then joined into its parent — is output-bounded (Yannakakis). Run
//! operator-at-a-time (`Relation::project`, then `Relation::natural_join`,
//! per edge), that loop normalizes every intermediate twice — a sort after
//! the projection and another after the join — and starts every join on a
//! cold scratch. [`join_up_with`] runs the same edge sequence without any
//! of that:
//!
//! * Intermediates are flat row-major buffers that are **duplicate-free
//!   but unsorted**. Leaves borrow the input relations' buffers.
//! * A projection deduplicates through a hash set on packed keys: `u64`
//!   for width 1, `u128` for width 2. Wider rows go through the bucket
//!   chain, keyed by hash, re-comparing the rows on every hit. Wider keys
//!   are not packed into the fixed-shift `u128` encoding of the semijoin
//!   key columns (see [`crate::exec`]): on the `perfbench` `tree_reuse`
//!   families that did not make this executor faster.
//! * A join builds a **bucket chain** (the kernels' `ChainIndex`, which
//!   semijoin steps on keys that do not pack share) on its smaller side —
//!   `head: key → first row`, `next[row] → the next row with the same
//!   key` — so a build allocates nothing per key. Chains list their rows
//!   in ascending order. A width-0 key is a cross product. Output rows are
//!   assembled in one pass over the matched row pairs. A join of two
//!   duplicate-free inputs is duplicate-free, so nothing is sorted between
//!   edges.
//! * Only the final `π_X` goes through [`Relation::from_row_major`], which
//!   normalizes once.
//!
//! The chain index, the pair list, the dedup sets and the intermediate
//! row buffers live in the caller-owned [`ExecScratch`] the semijoin
//! program runs on too, reused across edges, calls and both executors: the
//! `u128` set that holds a step's packed keys dedups width-2 projections
//! here, and the one chain serves both. `Relation::natural_join` runs the
//! same join on a cold scratch of its own. When its probe side is
//! normalized and leads the output columns, as in a left-deep
//! `acc.natural_join(r)`, the ascending chains make the output sorted
//! already and normalization only scans it.
//!
//! [`join_up_with`] joins only the nodes its `kept` mask names, a subtree
//! hanging from the root. The cached engine in `gyo-query` builds the
//! `state(W)` of a cyclic plan through this executor, joining the
//! survivors' cores along a path, and answers through it. An answer keeps
//! the **subtree that spans `X`**: the root, and
//! each node `v` with `X ∩ U(subtree(v)) ⊄ R_parent(v)`. After a full
//! reduction of those nodes, the nodes left out hold no attribute of `X`
//! their kept ancestor lacks, so they cannot change `π_X`. The per-call
//! solvers keep the operator-at-a-time loop over every node as an
//! independent reference, and `tests/prop.rs` holds the executor to that
//! loop over the same nodes — every node, and random root subtrees — on
//! random rooted trees with every key width.

use gyo_schema::{AttrSet, RootedTree};

use crate::exec::ExecScratch;
use crate::kernels::{self, NIL, PAIR_FLUSH};
use crate::relation::{pack2, positions_into, Relation};

impl ExecScratch {
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

/// Joins the `kept` nodes of `rels` up the rooted tree with early
/// projection and returns `π_X` of the result, normalized.
///
/// `rels[v]` is node `v`'s relation, and `kept[v]` says whether node `v`
/// takes part: the kept nodes must include the root and each kept node's
/// parent, so they form a subtree hanging from the root. For every kept
/// non-root `v` in post-order, `v`'s accumulated join is projected onto
/// `X ∩ U(kept subtree of v) ∪ (Rᵥ ∩ R_parent(v))` and joined into its
/// parent's accumulator. On a join tree over a fully reduced state, with
/// every node kept, this is the output-bounded Yannakakis join phase; the
/// cached engine keeps only the subtree that spans `X`. On any other input
/// it computes exactly what the same loop over `Relation::project` and
/// `Relation::natural_join` on the same nodes would. With no relations the
/// answer is `{()}` for `X = ∅` and empty otherwise.
///
/// # Panics
///
/// Panics if `rooted` or `kept` does not have one entry per relation, if
/// the kept nodes miss the root or the parent of a kept node, if `X` is
/// not covered by the kept relations, or if a join side holds `u32::MAX`
/// rows or more.
pub fn join_up_with(
    rels: &[Relation],
    rooted: &RootedTree,
    kept: &[bool],
    x: &AttrSet,
    scratch: &mut ExecScratch,
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
    assert_eq!(kept.len(), n, "one kept flag per relation");
    assert!(
        kept[rooted.root] && (0..n).all(|v| !kept[v] || kept[rooted.parent[v]]),
        "the kept nodes form a subtree hanging from the root"
    );

    let mut acc: Vec<Option<Acc<'_>>> = rels.iter().map(|r| Some(Acc::Leaf(r))).collect();
    for &v in &rooted.post_order {
        if v == rooted.root || !kept[v] {
            continue;
        }
        let p = rooted.parent[v];
        let child = acc[v].take().expect("each node joined once");
        // The child's columns already hold X ∩ U(kept subtree of v): every
        // join below v kept its own share of X.
        let keep = AttrSet::from_iter(child.attrs().iter().filter(|&a| {
            x.contains(a) || (rels[v].attrs().contains(a) && rels[p].attrs().contains(a))
        }));
        let child = project_dedup(child, &keep, scratch);
        let parent = acc[p].take().expect("parent still pending");
        let (attrs, len, data) = join(&parent, &child, scratch);
        let joined = Acc::Flat { attrs, len, data };
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
fn project_dedup<'a>(acc: Acc<'a>, keep: &AttrSet, scratch: &mut ExecScratch) -> Acc<'a> {
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
            let seen = &mut scratch.packed;
            seen.clear();
            for row in src {
                if seen.insert(pack2(row[p], row[q])) {
                    out.extend_from_slice(&[row[p], row[q]]);
                }
            }
            out.len() / 2
        }
        _ => {
            // A bucket chain over the kept rows, keyed by hash, re-comparing
            // the rows themselves on every hit.
            let chain = &mut scratch.chain;
            chain.begin_wide(acc.len());
            for row in src {
                let start = out.len();
                out.extend(pos.iter().map(|&q| row[q]));
                let key = &out[start..];
                let seen = |b: usize| out[b * w..(b + 1) * w] == *key;
                if chain.rows_wide(key.iter().copied()).any(seen) {
                    out.truncate(start);
                } else {
                    chain.link_wide(key.iter().copied(), start / w);
                }
            }
            out.len() / w
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

/// `a ⋈ b` for duplicate-free inputs, as a flat buffer not yet normalized:
/// a bucket-chain build on the smaller side (`b` on a tie) into the
/// scratch's index, then a probe that walks the other side in row order
/// and assembles the output row of each matched pair. Chains list their rows
/// in ascending order, so a normalized probe side whose columns come first
/// in the output yields sorted output rows.
fn join(a: &Acc<'_>, b: &Acc<'_>, scratch: &mut ExecScratch) -> (AttrSet, usize, Vec<u64>) {
    let (build, probe) = if b.len() <= a.len() { (b, a) } else { (a, b) };
    assert!(
        build.len() < NIL as usize && probe.len() <= u32::MAX as usize,
        "join: row indices are u32, but the inputs hold {} and {} rows",
        build.len(),
        probe.len()
    );
    let out_attrs = build.attrs().union(probe.attrs());
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
    let shared = build.attrs().intersect(probe.attrs());
    positions_into(&shared, build.attrs(), &mut scratch.build_key);
    positions_into(&shared, probe.attrs(), &mut scratch.probe_key);
    scratch
        .chain
        .build(build.data(), build.attrs().len(), &scratch.build_key);

    let mut out = scratch.take_buf();
    let mut rows = 0usize;
    let ExecScratch {
        chain,
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
        // `$rows` lists the build rows chained under a probe row's key;
        // `$same` confirms a hit (wide keys chain by hash). A keyed join has
        // columns on both sides, so the row slices below are nonempty.
        #[allow(clippy::redundant_closure_call)]
        macro_rules! probe_join {
            ($rows:expr, $same:expr) => {{
                let rows = probe.data().chunks_exact(probe.attrs().len());
                for (pi, prow) in rows.enumerate() {
                    for bi in $rows(prow) {
                        if $same(bi, prow) {
                            pairs.push((pi as u32, bi as u32));
                        }
                    }
                    if pairs.len() >= PAIR_FLUSH {
                        flush(pairs, &mut out);
                    }
                }
            }};
        }
        let exact = |_: usize, _: &[u64]| true;
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
            (&[_], &[pp]) => probe_join!(|r: &[u64]| chain.rows1(r[pp]), exact),
            (&[_, _], &[pp, pq]) => {
                probe_join!(|r: &[u64]| chain.rows2(pack2(r[pp], r[pq])), exact)
            }
            // Wide keys chain by hash; every hit re-compares the key
            // columns, so a hash collision never matches.
            (bk, pk) => probe_join!(
                |r: &[u64]| chain.rows_wide(pk.iter().map(|&p| r[p])),
                |bi: usize, r: &[u64]| {
                    let b = build.row(bi);
                    bk.iter().zip(pk).all(|(&x, &y)| b[x] == r[y])
                }
            ),
        }
        flush(pairs, &mut out);
    }
    debug_assert_eq!(out.len(), rows * out_arity);
    (out_attrs, rows, out)
}

/// `a ⋈ b` on a cold scratch, normalized once: the kernel of
/// [`Relation::natural_join`].
pub(crate) fn join_once(a: &Relation, b: &Relation) -> Relation {
    let mut scratch = ExecScratch::new();
    let (attrs, len, data) = join(&Acc::Leaf(a), &Acc::Leaf(b), &mut scratch);
    Relation::from_row_major(attrs, len, data)
}

/// `π_X(root)`, normalized once by [`Relation::from_row_major`]. A flat
/// root is gathered into a fresh exact-size buffer and its own buffer goes
/// back to the pool, so no pooled buffer leaves with the answer.
fn finish(root: Acc<'_>, x: &AttrSet, scratch: &mut ExecScratch) -> Relation {
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
        Acc::Flat { attrs, len, data } => {
            positions_into(x, &attrs, &mut scratch.keep_pos);
            let mut out = Vec::new();
            kernels::gather(&data, attrs.len(), &scratch.keep_pos, &mut out);
            scratch.pool.push(data);
            Relation::from_row_major(x.clone(), len, out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{semijoin_program, semijoin_program_with, SemijoinStep};

    fn attrs(raw: &[u32]) -> AttrSet {
        AttrSet::from_raw(raw)
    }

    fn join_up(rels: &[Relation], rooted: &RootedTree, x: &AttrSet) -> Relation {
        join_up_with(
            rels,
            rooted,
            &vec![true; rels.len()],
            x,
            &mut ExecScratch::new(),
        )
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
    fn only_the_kept_subtree_is_joined() {
        // Node 2 matches nothing of node 1, so the whole chain joins to
        // nothing; without node 2, nodes 0 and 1 join to two rows.
        let rels = vec![
            Relation::new(attrs(&[0, 1]), vec![vec![1, 10], vec![2, 20]]),
            Relation::new(attrs(&[1, 2]), vec![vec![10, 100], vec![20, 200]]),
            Relation::new(attrs(&[2, 3]), vec![vec![999, 7]]),
        ];
        let tree = chain_tree(3);
        let x = attrs(&[0, 2]);
        let mut scratch = ExecScratch::new();
        assert!(join_up_with(&rels, &tree, &[true; 3], &x, &mut scratch).is_empty());
        assert_eq!(
            join_up_with(&rels, &tree, &[true, true, false], &x, &mut scratch).to_vecs(),
            vec![vec![1, 100], vec![2, 200]]
        );
        // The root alone is a plain projection.
        assert_eq!(
            join_up_with(
                &rels,
                &tree,
                &[true, false, false],
                &attrs(&[0]),
                &mut scratch
            )
            .to_vecs(),
            vec![vec![1], vec![2]]
        );
    }

    #[test]
    #[should_panic(expected = "subtree hanging from the root")]
    fn a_kept_node_needs_its_parent() {
        let rels = vec![
            Relation::new(attrs(&[0, 1]), vec![vec![1, 10]]),
            Relation::new(attrs(&[1, 2]), vec![vec![10, 100]]),
            Relation::new(attrs(&[2, 3]), vec![vec![100, 7]]),
        ];
        let mask = [true, false, true];
        join_up_with(
            &rels,
            &chain_tree(3),
            &mask,
            &attrs(&[0]),
            &mut ExecScratch::new(),
        );
    }

    #[test]
    fn a_normalized_probe_side_yields_sorted_join_output() {
        // R(a, b) normalized and larger, S(b, c) smaller: S builds, R
        // probes, and R's columns lead the output (a, b, c).
        let r = Relation::from_row_major(
            attrs(&[0, 1]),
            60,
            (0..60u64).flat_map(|i| [i % 13, i % 4]).collect(),
        );
        let s = Relation::from_row_major(
            attrs(&[1, 2]),
            12,
            (0..12u64).flat_map(|i| [i % 4, 100 - i]).collect(),
        );
        assert!(s.len() < r.len());
        let sorted = |data: &[u64]| {
            let rows: Vec<&[u64]> = data.chunks_exact(3).collect();
            !rows.is_empty() && rows.windows(2).all(|w| w[0] < w[1])
        };
        // Either argument order, on a warm scratch and on the cold one of
        // `natural_join`.
        let mut warm = ExecScratch::new();
        for (a, b) in [(&r, &s), (&s, &r)] {
            for scratch in [&mut warm, &mut ExecScratch::new()] {
                let (out, rows, data) = join(&Acc::Leaf(a), &Acc::Leaf(b), scratch);
                assert_eq!(out, attrs(&[0, 1, 2]));
                assert_eq!(rows, r.len() * 3, "each b matches three rows of S");
                assert!(sorted(&data), "join output already sorted");
                assert_eq!(a.natural_join(b).data(), &data[..]);
            }
        }
        // On a tie the first argument probes, so a left-deep
        // `acc.natural_join(r)` over a normalized `acc` stays sorted.
        let t = Relation::from_row_major(
            attrs(&[1, 2]),
            r.len(),
            (0..r.len() as u64).flat_map(|i| [i % 4, 200 - i]).collect(),
        );
        assert_eq!(t.len(), r.len());
        let (_, _, data) = join(&Acc::Leaf(&r), &Acc::Leaf(&t), &mut warm);
        assert!(sorted(&data), "the first argument probes on a tie");
    }

    #[test]
    fn scratch_reuse_across_calls_is_sound() {
        let mut scratch = ExecScratch::new();
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
        let all = [true; 2];
        let first = join_up_with(&a, &chain_tree(2), &all, &xa, &mut scratch);
        let other = join_up_with(&b, &chain_tree(2), &all, &xb, &mut scratch);
        assert_eq!(other.to_vecs(), vec![vec![9]]);
        assert_eq!(
            join_up_with(&a, &chain_tree(2), &all, &xa, &mut scratch),
            first
        );
        assert_eq!(first.to_vecs(), vec![vec![1, 5], vec![2, 6], vec![2, 7]]);
    }

    /// A chain `0 – 1 – 2` whose join-up with `X = {0}` projects node 2
    /// onto {4, 5} (width 2) and node 1's accumulator onto {1, 2, 3}
    /// (wide), and with `X = {0, 4}` onto {4, 5} and {1, 2, 3, 4}.
    fn projecting_chain() -> Vec<Relation> {
        let rel = |raw: &[u32], rows: u64, row: &dyn Fn(u64) -> Vec<u64>| {
            let data: Vec<u64> = (0..rows).flat_map(row).collect();
            Relation::from_row_major(attrs(raw), rows as usize, data)
        };
        vec![
            rel(&[0, 1, 2, 3], 6, &|i| vec![i, i % 3, i % 2, 7]),
            rel(&[1, 2, 3, 4, 5], 8, &|i| {
                vec![i % 3, i % 2, 7, i % 4, 10 + i % 2]
            }),
            rel(&[4, 5, 6], 8, &|j| vec![j % 4, 10 + j % 2, j]),
        ]
    }

    /// Runs a semijoin program with packed and unfit width-3 keys, then the
    /// [`projecting_chain`] join-up with `X = {0, 4}`, both on `scratch`,
    /// and checks each against a run on a fresh scratch.
    fn semijoin_then_join_up(scratch: &mut ExecScratch) {
        // s = 42: slots 0 and 1 pack, slot 2 holds 2^42, so `0 ⋉ 2` takes
        // the chain and the other steps the u128 set.
        let big = 1u64 << 42;
        let schemas = [
            attrs(&[0, 1, 2, 3]),
            attrs(&[0, 1, 2, 9]),
            attrs(&[0, 1, 2, 8]),
        ];
        let sj = vec![
            Relation::new(
                schemas[0].clone(),
                vec![vec![1, 2, 3, 4], vec![5, 6, 7, 8], vec![big - 1, 0, 0, 1]],
            ),
            Relation::new(
                schemas[1].clone(),
                vec![vec![1, 2, 3, 0], vec![big - 1, 0, 0, 0], vec![9, 9, 9, 9]],
            ),
            Relation::new(
                schemas[2].clone(),
                vec![vec![1, 2, 3, 0], vec![0, big, 0, 0]],
            ),
        ];
        let steps = [
            SemijoinStep::new(&schemas, 0, 1),
            SemijoinStep::new(&schemas, 0, 2),
            SemijoinStep::new(&schemas, 1, 0),
        ];
        let mut fresh = sj.clone();
        semijoin_program(&mut fresh, &steps);
        let mut reduced = sj;
        semijoin_program_with(&mut reduced, &steps, scratch);
        assert_eq!(reduced, fresh);
        assert_eq!(reduced[0].to_vecs(), vec![vec![1, 2, 3, 4]]);
        assert_eq!(reduced[1].to_vecs(), vec![vec![1, 2, 3, 0]]);

        let rels = projecting_chain();
        let x = attrs(&[0, 4]);
        let got = join_up_with(&rels, &chain_tree(3), &[true; 3], &x, scratch);
        assert_eq!(got, join_up(&rels, &chain_tree(3), &x));
        assert_eq!(got.len(), 8);
    }

    #[test]
    fn one_scratch_serves_both_executors_interleaved() {
        // A join-up, a semijoin program and a second join-up on one
        // scratch, so its chain, its u128 set and its key positions pass
        // from one executor to the other.
        let rels = projecting_chain();
        let x = attrs(&[0]);
        let mut scratch = ExecScratch::new();
        let first = join_up_with(&rels, &chain_tree(3), &[true; 3], &x, &mut scratch);
        assert_eq!(first, join_up(&rels, &chain_tree(3), &x));
        assert_eq!(first.len(), 6);
        semijoin_then_join_up(&mut scratch);
    }

    #[test]
    fn a_scratch_left_by_a_panicking_join_up_serves_both_executors() {
        // Attribute 42 is in no relation, so the join-up panics at the
        // root, after its joins have filled the chain, the pairs, the dedup
        // sets and the pool.
        let rels = projecting_chain();
        let stray = attrs(&[0, 42]);
        let mut scratch = ExecScratch::new();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            join_up_with(&rels, &chain_tree(3), &[true; 3], &stray, &mut scratch)
        }));
        assert!(panicked.is_err());
        semijoin_then_join_up(&mut scratch);
    }
}
