//! Compiled semijoin programs over relation vectors — selection-vector
//! execution.
//!
//! A full-reducer semijoin program applies `2·(n−1)` semijoins whose key
//! attributes depend only on the relation *schemas*, never on the data.
//! [`SemijoinStep`] precompiles the shared attribute set once per schema,
//! and [`semijoin_program`] executes a whole step sequence without
//! materializing intermediate relations: semijoins only ever *remove*
//! tuples, so the executor tracks one reusable selection vector per slot
//! (the surviving row indices) and runs every step over the relations'
//! flat key columns; a step whose key is empty derives none, since a
//! nonempty source then keeps every target row. [`Relation::semijoin`]
//! is a one-step program, so the one-shot operator and the engines share
//! this kernel.
//!
//! Keys of every width `w ≥ 2` share one scalar encoding: when all of a
//! column's values fit in `s = ⌊128/w⌋` bits, the cached column holds one
//! `u128` per row, value `j` at shift `s·(w−1−j)` (for `w = 2`, the two
//! 64-bit halves). `s` depends only on `w`, so both sides of a step pack
//! alike without consulting each other. A column with a value `≥ 2^s`
//! records only that it does not pack.
//!
//! Every step is two columnar kernels:
//!
//! 1. **Build** a membership structure over the *selected* source keys —
//!    a generation-stamped direct-map table (one store per key) when the
//!    width-1 key range is small, and otherwise one reused `u128` hash set
//!    that holds width-1 keys as they are and wider keys packed.
//! 2. **Probe** the target's key column through the selection vector's
//!    retain loop: fixed-size chunks, branchless mask accumulation, no
//!    per-row branching.
//!
//! When either side's keys do not pack, the step runs on the bucket chain
//! the join-up's joins build: the selected source rows are chained on the
//! hash of their key, and each target row probes it through the same
//! retain loop, re-comparing the key columns on every hit, so a hash
//! collision never matches.
//!
//! All scratch state lives in an [`ExecScratch`] that is reused across
//! steps, across whole program runs *and* by the join-up executor
//! ([`crate::joinup`]), which takes the same scratch. After warm-up (first
//! run at a given shape) a full-reducer pass over k relations performs
//! **zero heap allocation per step** — the repo-level allocation-counter test
//! (`crates/relation/tests/alloc.rs`) pins this down. Surviving tuples are
//! materialized once, at the end, and only for slots that actually lost
//! tuples.
//!
//! A relation of `CACHE_MIN_ROWS` (64) rows or more caches its key columns
//! *on the relation* (shared by clones), so repeated executions over the
//! same state — the plan-cache usage pattern of the cached engine — pay
//! its column extraction only once. A smaller relation caches nothing: its
//! key column is extracted into the scratch on every step that reads it,
//! so a never-seen state of small relations — the ad hoc query — pays no
//! lock, map insert or allocation for its keys.

use std::sync::Arc;

use gyo_schema::{AttrSet, FxHashSet};

use crate::kernels::{ChainIndex, SelVec, StampTable};
use crate::relation::{extract_key, positions_into, KeyColumn, KeyView, Relation};

/// The fewest rows a relation holds for a semijoin step to read its key
/// column from the relation's cache ([`Relation::key_column`]). A smaller
/// relation's key column is extracted into the scratch on every step that
/// reads it, and never cached.
///
/// A cached column pays only when the same relation is stepped over again;
/// deriving and caching it costs a lock, a cloned `AttrSet` key, a map
/// insert, an `Arc` and a `Vec`. Extraction costs one pass over the rows
/// per step. The criterion ids in `crates/bench/benches/programs.rs` set
/// the value:
/// - `programs/columnar/fresh_program/{8,64,512}` load fresh relations and
///   run one chain reducer. This is the ad hoc case: below this value
///   extraction wins, while at 512 rows re-extracting on every step loses
///   to the cache;
/// - `programs/columnar/program_chain_small/8` re-runs a chain reducer over
///   one warm state of 8-row relations, where a cache hit would do: the
///   known cost of extracting, within noise of the cached read.
///
/// The tests that straddle this value (`tests/prop.rs`, `tests/alloc.rs`
/// and the mixed-size engine test in `gyo-query`) restate it.
pub(crate) const CACHE_MIN_ROWS: usize = 64;

/// One precompiled semijoin statement
/// `rels[target] := rels[target] ⋉ rels[source]`, with the shared (key)
/// attribute set derived ahead of execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SemijoinStep {
    target: usize,
    source: usize,
    shared: AttrSet,
}

impl SemijoinStep {
    /// Compiles the step for fixed relation schemas (`schemas[i]` is the
    /// attribute set of slot `i`).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn new(schemas: &[AttrSet], target: usize, source: usize) -> Self {
        let shared = schemas[target].intersect(&schemas[source]);
        Self {
            target,
            source,
            shared,
        }
    }

    /// Slot of the relation being filtered (and overwritten).
    #[inline]
    pub fn target(&self) -> usize {
        self.target
    }

    /// Slot of the relation filtered against.
    #[inline]
    pub fn source(&self) -> usize {
        self.source
    }

    /// The semijoin key: `schema(target) ∩ schema(source)`.
    #[inline]
    pub fn key(&self) -> &AttrSet {
        &self.shared
    }
}

/// Reusable execution state for both executors, [`semijoin_program_with`]
/// and [`join_up_with`](crate::join_up_with): one selection vector per
/// slot, the stamp table, one `u128` hash set, one bucket chain, the key
/// and projection positions, a key column per semijoin side for relations
/// too small to cache theirs, and the join-up's matched pairs, column maps
/// and pool of intermediate row buffers. Everything is grow-only — steps
/// and joins after warm-up allocate nothing but their outputs.
///
/// Every use resets what it reads before reading it: a run resets the
/// selection vector of each slot it uses, each step or join re-arms the
/// stamp table or clears the set, chain, pairs or maps it fills, position
/// lists and key columns are refilled, and pooled buffers are cleared when
/// taken. So a scratch left mid-run by a panic is still valid for the next
/// run, of either executor.
#[derive(Debug, Default)]
pub struct ExecScratch {
    /// Per-slot liveness (index `i` tracks `rels[i]`).
    sel: Vec<SelVec>,
    /// Direct-map membership for small-range width-1 keys.
    stamp: StampTable,
    /// Semijoin membership for width-1 keys with a large value range and
    /// for packed keys of every width ≥ 2; the join-up's dedup of
    /// projected width-2 rows.
    pub(crate) packed: FxHashSet<u128>,
    /// The join-up's dedup of projected width-1 rows.
    pub(crate) seen1: FxHashSet<u64>,
    /// A join's build side, chained on its key; a semijoin's selected
    /// source rows when some side's keys do not pack; the join-up's dedup
    /// of projected wider rows.
    pub(crate) chain: ChainIndex,
    /// Key positions on the build side (a semijoin's source) and the probe
    /// side (its target), and the join-up's projection positions.
    pub(crate) build_key: Vec<usize>,
    pub(crate) probe_key: Vec<usize>,
    pub(crate) keep_pos: Vec<usize>,
    /// A semijoin's source (index 0) and target (index 1) key columns,
    /// when that relation has fewer than [`CACHE_MIN_ROWS`] rows: width-1
    /// keys in `key_vals`, packed keys in `key_packed`.
    key_vals: [Vec<u64>; 2],
    key_packed: [Vec<u128>; 2],
    /// Matched `(probe, build)` row pairs awaiting assembly.
    pub(crate) pairs: Vec<(u32, u32)>,
    /// Output column maps `(out col, source pos)` per join side.
    pub(crate) build_cols: Vec<(usize, usize)>,
    pub(crate) probe_cols: Vec<(usize, usize)>,
    /// Free row buffers for join-up intermediates.
    pub(crate) pool: Vec<Vec<u64>>,
}

impl ExecScratch {
    /// A fresh scratch (everything warms up on first use).
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure_slots(&mut self, n: usize) {
        if self.sel.len() < n {
            self.sel.resize_with(n, SelVec::default);
        }
    }
}

/// Clears `set`, reserves room for every selected source key (so a cold
/// build allocates the same whatever the key count), inserts the key of
/// every selected source row, and hands the set back for probing.
fn fill_packed<'a>(
    set: &'a mut FxHashSet<u128>,
    ssel: &SelVec,
    mut key: impl FnMut(usize) -> u128,
) -> &'a FxHashSet<u128> {
    set.clear();
    set.reserve(ssel.len());
    ssel.for_each(|i| {
        set.insert(key(i));
    });
    set
}

/// Executes a compiled semijoin program in place:
/// `rels[step.target] := rels[step.target] ⋉ rels[step.source]` for each
/// step, in order. Unlike §6 program semantics (every statement creates a
/// new relation), slots are overwritten — which is exactly the
/// Bernstein–Chiu reading where each site updates its own state.
///
/// Allocates a fresh [`ExecScratch`] per call; callers that execute
/// programs repeatedly (the cached engine) should hold one
/// scratch and use [`semijoin_program_with`].
///
/// # Panics
///
/// Panics if a step's indices are out of range; debug builds also check
/// that each step's compiled key matches the slot schemas.
pub fn semijoin_program(rels: &mut [Relation], steps: &[SemijoinStep]) {
    let mut scratch = ExecScratch::new();
    semijoin_program_with(rels, steps, &mut scratch);
}

/// [`semijoin_program`] with caller-owned scratch: selection vectors and
/// membership buffers are reused across calls, making every step
/// allocation-free after the first run at a given shape.
///
/// `steps` is any sequence of step references — a slice, or a filtered
/// view of one such as the cached engine's answer program (the upward pass
/// plus the downward steps into the subtree an answer reads).
pub fn semijoin_program_with<'s>(
    rels: &mut [Relation],
    steps: impl IntoIterator<Item = &'s SemijoinStep>,
    scratch: &mut ExecScratch,
) {
    scratch.ensure_slots(rels.len());
    for (sel, rel) in scratch.sel.iter_mut().zip(rels.iter()) {
        sel.reset(rel.len());
    }
    for step in steps {
        debug_assert!(
            step.shared.is_subset(rels[step.target].attrs())
                && step.shared.is_subset(rels[step.source].attrs()),
            "step compiled for different schemas"
        );
        apply_step(rels, scratch, step);
    }
    for (rel, sel) in rels.iter_mut().zip(&scratch.sel) {
        if sel.len() < rel.len() {
            *rel = rel.gather_selected(sel);
        }
    }
}

fn apply_step(rels: &[Relation], scratch: &mut ExecScratch, step: &SemijoinStep) {
    let target = &rels[step.target];
    let source = &rels[step.source];
    if step.target == step.source {
        return; // R ⋉ R = R
    }
    if scratch.sel[step.target].is_empty() {
        return; // ∅ ⋉ S = ∅
    }
    if scratch.sel[step.source].is_empty() {
        // R ⋉ ∅ = ∅: kill the whole target.
        scratch.sel[step.target].clear();
        return;
    }
    if step.shared.is_empty() {
        return; // nonempty source, empty key: every target tuple matches
    }

    let (mut held_source, mut held_target) = (None, None);
    let [source_vals, target_vals] = &mut scratch.key_vals;
    let [source_packed, target_packed] = &mut scratch.key_packed;
    let source_col = side_column(
        source,
        &step.shared,
        &mut scratch.build_key,
        (source_vals, source_packed),
        &mut held_source,
    );
    let target_col = side_column(
        target,
        &step.shared,
        &mut scratch.probe_key,
        (target_vals, target_packed),
        &mut held_target,
    );

    // The target's SelVec is mutated by the probe while the source's is
    // only read during the build.
    let [tsel, ssel] = scratch
        .sel
        .get_disjoint_mut([step.target, step.source])
        .expect("target and source are distinct slots");

    // Build membership over the *selected* source keys, then probe the
    // target's key column through the chunked retain loop.
    match (source_col, target_col) {
        (
            KeyView::One {
                vals: svals,
                min,
                max,
            },
            KeyView::One { vals: tvals, .. },
        ) => {
            // The column's precomputed range bounds the *selected* keys, so
            // a small span gets the direct-map table (one store per insert,
            // one load per probe) with no range rescan.
            if scratch.stamp.begin(min, max) {
                let stamp = &mut scratch.stamp;
                ssel.for_each(|i| stamp.insert(svals[i]));
                let stamp = &scratch.stamp;
                tsel.retain(|i| stamp.contains(tvals[i]));
            } else {
                let set = fill_packed(&mut scratch.packed, ssel, |i| svals[i].into());
                tsel.retain(|i| set.contains(&u128::from(tvals[i])));
            }
        }
        (KeyView::Packed(svals), KeyView::Packed(tvals)) => {
            let set = fill_packed(&mut scratch.packed, ssel, |i| svals[i]);
            tsel.retain(|i| set.contains(&tvals[i]));
        }
        // Some side does not pack: chain the selected source rows on their
        // key's hash, and re-compare the key columns on every hit.
        _ => {
            positions_into(&step.shared, source.attrs(), &mut scratch.build_key);
            positions_into(&step.shared, target.attrs(), &mut scratch.probe_key);
            let (spos, tpos) = (&scratch.build_key, &scratch.probe_key);
            let chain = &mut scratch.chain;
            chain.begin_wide(source.len());
            ssel.for_each(|i| {
                let s = source.row(i);
                chain.link_wide(spos.iter().map(|&p| s[p]), i);
            });
            tsel.retain(|i| {
                let t = target.row(i);
                let same = |j: usize| {
                    let s = source.row(j);
                    spos.iter().zip(tpos).all(|(&p, &q)| s[p] == t[q])
                };
                chain.rows_wide(tpos.iter().map(|&q| t[q])).any(same)
            });
        }
    }
}

/// One side's key column for a step over `key`: the relation's cached
/// column (kept alive in `held`) from [`CACHE_MIN_ROWS`] rows up, else the
/// relation's keys extracted into the side's scratch buffers `bufs` at
/// positions found in `pos`.
fn side_column<'a>(
    rel: &Relation,
    key: &AttrSet,
    pos: &mut Vec<usize>,
    bufs: (&'a mut Vec<u64>, &'a mut Vec<u128>),
    held: &'a mut Option<Arc<KeyColumn>>,
) -> KeyView<'a> {
    if rel.len() < CACHE_MIN_ROWS {
        positions_into(key, rel.attrs(), pos);
        extract_key(rel, pos, bufs.0, bufs.1)
    } else {
        held.insert(rel.key_column(key)).view()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attrs(raw: &[u32]) -> AttrSet {
        AttrSet::from_raw(raw)
    }

    /// `r ⋉ s` by nested loops over the rows — an oracle independent of
    /// the kernel, which `Relation::semijoin` itself runs on.
    fn nested_semijoin(r: &Relation, s: &Relation) -> Relation {
        let shared = r.attrs().intersect(s.attrs());
        let pos = |rel: &Relation| -> Vec<usize> {
            let cols = rel.attrs().as_slice();
            shared
                .iter()
                .map(|a| cols.binary_search(&a).unwrap())
                .collect()
        };
        let (rp, sp) = (pos(r), pos(s));
        let kept = r
            .rows()
            .filter(|t| {
                s.rows()
                    .any(|u| rp.iter().zip(&sp).all(|(&p, &q)| t[p] == u[q]))
            })
            .map(<[u64]>::to_vec)
            .collect();
        Relation::new(r.attrs().clone(), kept)
    }

    #[test]
    fn step_compiles_shared_attributes() {
        let schemas = vec![attrs(&[0, 1]), attrs(&[1, 2])];
        let step = SemijoinStep::new(&schemas, 0, 1);
        assert_eq!(step.target(), 0);
        assert_eq!(step.source(), 1);
        assert_eq!(step.key(), &attrs(&[1]));
    }

    #[test]
    fn program_matches_sequential_semijoins() {
        let schemas = vec![attrs(&[0, 1]), attrs(&[1, 2]), attrs(&[2, 3])];
        let mut rels = vec![
            Relation::new(
                schemas[0].clone(),
                vec![vec![1, 10], vec![2, 20], vec![3, 30]],
            ),
            Relation::new(schemas[1].clone(), vec![vec![10, 100], vec![20, 200]]),
            Relation::new(schemas[2].clone(), vec![vec![100, 7]]),
        ];
        let expected = {
            let mut r = rels.clone();
            r[1] = nested_semijoin(&r[1], &r[2]);
            r[0] = nested_semijoin(&r[0], &r[1]);
            r
        };
        let steps = vec![
            SemijoinStep::new(&schemas, 1, 2),
            SemijoinStep::new(&schemas, 0, 1),
        ];
        semijoin_program(&mut rels, &steps);
        assert_eq!(rels, expected);
        assert_eq!(rels[0].to_vecs(), vec![vec![1, 10]]);
    }

    #[test]
    fn masked_execution_respects_earlier_filtering() {
        // The same slot is filtered twice; the second step must see the
        // first step's surviving tuples, not the original relation.
        let schemas = vec![attrs(&[0, 1]), attrs(&[1]), attrs(&[0])];
        let mut rels = vec![
            Relation::new(
                schemas[0].clone(),
                vec![vec![1, 10], vec![2, 10], vec![2, 20]],
            ),
            Relation::new(schemas[1].clone(), vec![vec![10]]),
            // After step 1, slot 0 = {(1,10), (2,10)}; its a-values {1, 2}
            // both hit slot 2, but slot 2 is then filtered by slot 0 too.
            Relation::new(schemas[2].clone(), vec![vec![1], vec![3]]),
        ];
        let steps = vec![
            SemijoinStep::new(&schemas, 0, 1), // drop (2,20)
            SemijoinStep::new(&schemas, 2, 0), // keep a=1, drop a=3
            SemijoinStep::new(&schemas, 0, 2), // keep only a=1 rows
        ];
        semijoin_program(&mut rels, &steps);
        assert_eq!(rels[0].to_vecs(), vec![vec![1, 10]]);
        assert_eq!(rels[2].to_vecs(), vec![vec![1]]);
    }

    #[test]
    fn disjoint_step_keeps_or_empties() {
        let schemas = vec![attrs(&[0]), attrs(&[5])];
        let mut rels = vec![
            Relation::new(schemas[0].clone(), vec![vec![1]]),
            Relation::new(schemas[1].clone(), vec![vec![9]]),
        ];
        let step = SemijoinStep::new(&schemas, 0, 1);
        assert!(step.key().is_empty());
        semijoin_program(&mut rels, std::slice::from_ref(&step));
        assert_eq!(rels[0].len(), 1, "disjoint nonempty source keeps tuples");

        rels[1] = Relation::empty(attrs(&[5]));
        semijoin_program(&mut rels, std::slice::from_ref(&step));
        assert!(rels[0].is_empty(), "disjoint empty source annihilates");
    }

    #[test]
    fn wide_keys_fall_back_correctly() {
        let schemas = vec![attrs(&[0, 1, 2, 3]), attrs(&[0, 1, 2, 9])];
        let mut rels = vec![
            Relation::new(
                schemas[0].clone(),
                vec![vec![1, 2, 3, 4], vec![1, 2, 9, 4], vec![5, 6, 7, 8]],
            ),
            Relation::new(schemas[1].clone(), vec![vec![1, 2, 3, 0], vec![5, 6, 0, 0]]),
        ];
        semijoin_program(&mut rels, &[SemijoinStep::new(&schemas, 0, 1)]);
        assert_eq!(rels[0].to_vecs(), vec![vec![1, 2, 3, 4]]);
    }

    #[test]
    fn packed_mixed_and_unpackable_pairs_match_the_operator() {
        // The operator here is the definitional one, by nested loops.
        // Width-3 keys: s = 42. `fit` packs; `unfit` holds 2^42 in a key
        // column, which unchecked packing would carry into (1, 0, 0).
        // Each case runs `1 ⋉ 2`, then `0 ⋉ 1`: slot 2 filters the source
        // on attribute 9 before the source is read.
        let schemas = vec![attrs(&[0, 1, 2, 3]), attrs(&[0, 1, 2, 9]), attrs(&[9])];
        let big = 1u64 << 42;
        let fit = |k: usize| {
            Relation::new(
                schemas[k].clone(),
                vec![vec![1, 0, 0, 5], vec![2, 3, 4, 5], vec![big - 1, 0, 7, 5]],
            )
        };
        let unfit = |k: usize| {
            Relation::new(
                schemas[k].clone(),
                vec![vec![0, big, 0, 5], vec![2, 3, 4, 6], vec![big, big, 1, 5]],
            )
        };
        let nines = |vals: &[u64]| {
            Relation::new(schemas[2].clone(), vals.iter().map(|&v| vec![v]).collect())
        };
        let steps = [
            SemijoinStep::new(&schemas, 1, 2),
            SemijoinStep::new(&schemas, 0, 1),
        ];
        let cases = [
            ("packed x packed", fit(0), fit(1), nines(&[5, 6])),
            (
                "wide target, packed source",
                unfit(0),
                fit(1),
                nines(&[5, 6]),
            ),
            (
                "packed target, wide source",
                fit(0),
                unfit(1),
                nines(&[5, 6]),
            ),
            ("wide x wide", unfit(0), unfit(1), nines(&[5, 6])),
            // The filter drops the source row (2, 3, 4, 6), whose key is the
            // target's (2, 3, 4, 5): the chain must hold only selected rows.
            (
                "packed target, filtered wide source",
                fit(0),
                unfit(1),
                nines(&[5]),
            ),
        ];
        for (label, target, source, filter) in cases {
            let expected = nested_semijoin(&target, &nested_semijoin(&source, &filter));
            let mut rels = vec![target, source, filter];
            semijoin_program(&mut rels, &steps);
            assert_eq!(rels[0], expected, "{label}");
        }
        // The mixed pairs keep exactly the shared all-fit key, unless the
        // source row holding it was filtered out first.
        let mut rels = vec![unfit(0), fit(1)];
        semijoin_program(&mut rels, &steps[1..]);
        assert_eq!(rels[0].to_vecs(), vec![vec![2, 3, 4, 6]]);
        let mut rels = vec![fit(0), unfit(1)];
        semijoin_program(&mut rels, &steps[1..]);
        assert_eq!(rels[0].to_vecs(), vec![vec![2, 3, 4, 5]]);
        let mut rels = vec![fit(0), unfit(1), nines(&[5])];
        semijoin_program(&mut rels, &steps);
        assert!(rels[0].is_empty());
    }

    #[test]
    fn empty_target_short_circuits() {
        let schemas = vec![attrs(&[0, 1]), attrs(&[1, 2])];
        let mut rels = vec![
            Relation::empty(schemas[0].clone()),
            Relation::new(schemas[1].clone(), vec![vec![1, 2]]),
        ];
        semijoin_program(&mut rels, &[SemijoinStep::new(&schemas, 0, 1)]);
        assert!(rels[0].is_empty());
    }

    #[test]
    fn large_key_range_uses_the_hash_fallback() {
        // Keys straddling the whole u64 range exceed StampTable::MAX_RANGE,
        // forcing the u128 hash set; semantics must not move.
        let schemas = vec![attrs(&[0, 1]), attrs(&[1, 2])];
        let huge = u64::MAX - 3;
        let mut rels = vec![
            Relation::new(
                schemas[0].clone(),
                vec![vec![1, 0], vec![2, huge], vec![3, 500]],
            ),
            Relation::new(schemas[1].clone(), vec![vec![huge, 9], vec![0, 9]]),
        ];
        semijoin_program(&mut rels, &[SemijoinStep::new(&schemas, 0, 1)]);
        assert_eq!(rels[0].to_vecs(), vec![vec![1, 0], vec![2, huge]]);
    }

    #[test]
    fn stamp_range_boundary_matches_nested_loops() {
        // Width-1 source keys spanning max − min = MAX_RANGE − 1 still fit
        // the stamp table; one more and they go into the u128 set. Either
        // way the step is the nested-loop semijoin.
        let schemas = vec![attrs(&[0, 1]), attrs(&[1, 2])];
        let lo = 1000;
        for (span, stamped) in [
            (StampTable::MAX_RANGE - 1, true),
            (StampTable::MAX_RANGE, false),
        ] {
            let hi = lo + span;
            let target = Relation::new(
                schemas[0].clone(),
                [lo - 1, lo, lo + 1, hi - 1, hi, hi + 1]
                    .iter()
                    .enumerate()
                    .map(|(a, &b)| vec![a as u64, b])
                    .collect(),
            );
            let source = Relation::new(
                schemas[1].clone(),
                vec![vec![lo, 0], vec![lo + 1, 0], vec![hi, 0]],
            );
            let expected = nested_semijoin(&target, &source);
            assert_eq!(expected.len(), 3, "span {span}");
            let mut rels = vec![target, source];
            let mut scratch = ExecScratch::new();
            semijoin_program_with(
                &mut rels,
                &[SemijoinStep::new(&schemas, 0, 1)],
                &mut scratch,
            );
            assert_eq!(rels[0], expected, "span {span}");
            assert_eq!(scratch.packed.is_empty(), stamped, "span {span}");
        }
    }

    #[test]
    fn scratch_reuse_across_programs_is_sound() {
        // Run two different programs through one scratch: stale selections
        // or stale membership from run 1 must not leak into run 2.
        let mut scratch = ExecScratch::new();
        let schemas = vec![attrs(&[0, 1]), attrs(&[1, 2]), attrs(&[2, 3])];
        let mk = |tuples: Vec<Vec<u64>>, k: usize| Relation::new(schemas[k].clone(), tuples);
        let mut rels = vec![
            mk(vec![vec![1, 10], vec![2, 20], vec![3, 30]], 0),
            mk(vec![vec![10, 100], vec![20, 200]], 1),
            mk(vec![vec![100, 7]], 2),
        ];
        let steps = vec![
            SemijoinStep::new(&schemas, 1, 2),
            SemijoinStep::new(&schemas, 0, 1),
        ];
        let mut expected = rels.clone();
        expected[1] = nested_semijoin(&expected[1], &expected[2]);
        expected[0] = nested_semijoin(&expected[0], &expected[1]);
        semijoin_program_with(&mut rels, &steps, &mut scratch);
        assert_eq!(rels, expected);

        // Second program: different shape, previously-dead slots revive.
        let mut rels2 = vec![
            mk(vec![vec![7, 70], vec![8, 80]], 0),
            mk(vec![vec![70, 1], vec![80, 1], vec![90, 1]], 1),
            mk(vec![vec![1, 1]], 2),
        ];
        let mut expected2 = rels2.clone();
        expected2[1] = nested_semijoin(&expected2[1], &expected2[0]);
        let steps2 = vec![SemijoinStep::new(&schemas, 1, 0)];
        semijoin_program_with(&mut rels2, &steps2, &mut scratch);
        assert_eq!(rels2, expected2);
        assert_eq!(rels2[1].len(), 2);
    }
}
