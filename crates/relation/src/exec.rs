//! Compiled semijoin programs over relation vectors — selection-vector
//! execution.
//!
//! A full-reducer semijoin program applies `2·(n−1)` semijoins whose key
//! attributes depend only on the relation *schemas*, never on the data.
//! [`SemijoinStep`] precompiles the shared attribute set once per schema,
//! and [`semijoin_program`] executes a whole step sequence without
//! materializing intermediate relations: semijoins only ever *remove*
//! tuples, so the executor tracks one reusable [`SelVec`] per slot (the
//! surviving row indices plus a generation-stamped bitset) and runs every
//! step over the relations' cached flat key columns.
//!
//! Keys of every width `w ≥ 2` share one scalar encoding: when all of a
//! column's values fit in `s = ⌊128/w⌋` bits, the cached column holds one
//! `u128` per row, value `j` at shift `s·(w−1−j)` (for `w = 2`, the two
//! 64-bit halves). `s` depends only on `w`, so both sides of a step pack
//! alike without consulting each other. A column with a value `≥ 2^s`
//! keeps its keys row-major instead.
//!
//! Every step is two columnar kernels:
//!
//! 1. **Build** a membership structure over the *selected* source keys —
//!    a [`StampTable`] (direct-map, one store per key) when the width-1
//!    key range is small, and a reused hash set otherwise: `u64` for
//!    width 1, `u128` for packed keys of every wider width.
//! 2. **Probe** the target's key column through the selection-vector
//!    retain kernels ([`SelVec::retain_u64`]&c.): fixed-size chunks,
//!    branchless mask accumulation, no per-row branching.
//!
//! Two fallbacks cover values too wide to pack. When only one side of a
//! step holds such a value, the step stays on the `u128` set by
//! *pack-or-reject*: an unfit key cannot equal any key of the all-fit side,
//! so unfit target keys are rejected and unfit source keys skipped. Only
//! when both sides hold unfit values does the step build a reused sorted
//! `(hash, row)` spine; its probes re-compare the actual key slices (a
//! chunked memcmp), so hash collisions cannot lie.
//!
//! All scratch state lives in an [`ExecScratch`] that is reused across
//! steps *and* across whole program runs, so after warm-up (first run at a
//! given shape) a full-reducer pass over k relations performs **zero heap
//! allocation per step** — the repo-level allocation-counter test
//! (`crates/relation/tests/alloc.rs`) pins this down. Surviving tuples are
//! materialized once, at the end, and only for slots that actually lost
//! tuples.
//!
//! Because the key columns are cached *on the relations* (and shared by
//! clones), repeated executions over the same state — the plan-cache usage
//! pattern of the cached engine — pay the column extraction only once.

use std::hash::{Hash, Hasher};

use gyo_schema::{AttrSet, FxHashSet, FxHasher};

use crate::kernels::{SelVec, StampTable};
use crate::relation::{pack_key, pack_shift, KeyColumn, Relation};

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

/// Reusable execution state for [`semijoin_program_with`]: one selection
/// vector per slot plus the per-step membership scratch (stamp table, the
/// `u64` and packed `u128` hash sets, the wide-key hash spine). Everything
/// is grow-only — steps after warm-up allocate nothing.
///
/// Every use resets what it reads before reading it: a run resets the
/// selection vector of each slot it uses, and each step re-arms the stamp
/// table or clears the set or spine it fills. So a scratch left mid-run by
/// a panic is still valid for the next run.
#[derive(Debug, Default)]
pub struct ExecScratch {
    /// Per-slot liveness (index `i` tracks `rels[i]`).
    sel: Vec<SelVec>,
    /// Direct-map membership for small-range width-1 keys.
    stamp: StampTable,
    /// Hash-set fallback for width-1 keys with a large value range.
    one: FxHashSet<u64>,
    /// Membership for packed (`u128`) keys of every width ≥ 2.
    packed: FxHashSet<u128>,
    /// Membership spine for keys too wide to pack on both sides:
    /// `(fxhash(key), source row)`, sorted by hash; probes binary-search
    /// the hash then memcmp the key slices.
    wide: Vec<(u64, u32)>,
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

/// Clears `set`, inserts the packed key of every selected source row that
/// has one (`key(i)` is `None` for a key too wide to pack), and hands the
/// set back for probing.
fn fill_packed<'a>(
    set: &'a mut FxHashSet<u128>,
    ssel: &SelVec,
    mut key: impl FnMut(usize) -> Option<u128>,
) -> &'a FxHashSet<u128> {
    set.clear();
    ssel.for_each(|i| {
        if let Some(k) = key(i) {
            set.insert(k);
        }
    });
    set
}

#[inline]
fn hash_wide(key: &[u64]) -> u64 {
    let mut h = FxHasher::default();
    key.hash(&mut h);
    h.finish()
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
pub fn semijoin_program_with(
    rels: &mut [Relation],
    steps: &[SemijoinStep],
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

    let source_col = source.key_column(&step.shared);
    if matches!(*source_col, KeyColumn::Empty) {
        return; // nonempty source, empty key: every target tuple matches
    }
    let target_col = target.key_column(&step.shared);

    // Split borrows: the target's SelVec is mutated by the probe while the
    // source's is only read during the build.
    let (sel_lo, sel_hi) = scratch.sel.split_at_mut(step.target.max(step.source));
    let (tsel, ssel): (&mut SelVec, &SelVec) = if step.target > step.source {
        (&mut sel_hi[0], &sel_lo[step.source])
    } else {
        (&mut sel_lo[step.target], &sel_hi[0])
    };

    // Build membership over the *selected* source keys, then probe the
    // target's key column through the chunked retain kernels.
    match (&*source_col, &*target_col) {
        (
            KeyColumn::One {
                vals: svals,
                min,
                max,
            },
            KeyColumn::One { vals: tvals, .. },
        ) => {
            // The column's precomputed range bounds the *selected* keys, so
            // a small span gets the direct-map table (one store per insert,
            // one load per probe) with no range rescan.
            if scratch.stamp.begin(*min, *max) {
                let stamp = &mut scratch.stamp;
                ssel.for_each(|i| stamp.insert(svals[i]));
                let stamp = &scratch.stamp;
                tsel.retain_u64(tvals, |k| stamp.contains(k));
            } else {
                scratch.one.clear();
                let set = &mut scratch.one;
                ssel.for_each(|i| {
                    set.insert(svals[i]);
                });
                let set = &scratch.one;
                tsel.retain_u64(tvals, |k| set.contains(&k));
            }
        }
        (
            KeyColumn::Packed { width, keys: svals },
            KeyColumn::Packed {
                width: twidth,
                keys: tvals,
            },
        ) => {
            debug_assert_eq!(width, twidth, "key widths match across a step");
            let set = fill_packed(&mut scratch.packed, ssel, |i| Some(svals[i]));
            tsel.retain_u128(tvals, |k| set.contains(&k));
        }
        // Mixed pairs, by pack-or-reject: a key with a value too wide to
        // pack cannot equal any key of an all-fit side, so it is rejected
        // (target) or skipped (source) instead of compared.
        (KeyColumn::Packed { keys: svals, .. }, KeyColumn::Wide { width, keys: tkeys }) => {
            let shift = pack_shift(*width);
            let set = fill_packed(&mut scratch.packed, ssel, |i| Some(svals[i]));
            tsel.retain_wide(tkeys, *width, |key| {
                pack_key(key.iter().copied(), shift).is_some_and(|k| set.contains(&k))
            });
        }
        (KeyColumn::Wide { width, keys: skeys }, KeyColumn::Packed { keys: tvals, .. }) => {
            let (w, shift) = (*width, pack_shift(*width));
            let set = fill_packed(&mut scratch.packed, ssel, |i| {
                pack_key(skeys[i * w..(i + 1) * w].iter().copied(), shift)
            });
            tsel.retain_u128(tvals, |k| set.contains(&k));
        }
        // Both sides hold unfit values: the sorted hash spine.
        (
            KeyColumn::Wide { width, keys: skeys },
            KeyColumn::Wide {
                width: twidth,
                keys: tkeys,
            },
        ) => {
            debug_assert_eq!(width, twidth, "key widths match across a step");
            let w = *width;
            scratch.wide.clear();
            let spine = &mut scratch.wide;
            ssel.for_each(|i| spine.push((hash_wide(&skeys[i * w..(i + 1) * w]), i as u32)));
            spine.sort_unstable_by_key(|&(h, _)| h);
            let spine = &scratch.wide;
            tsel.retain_wide(tkeys, w, |key| {
                let h = hash_wide(key);
                let mut at = spine.partition_point(|&(sh, _)| sh < h);
                // Collisions re-compare the actual key slices (chunked
                // memcmp under slice ==), so a hash match never lies.
                while let Some(&(sh, si)) = spine.get(at) {
                    if sh != h {
                        break;
                    }
                    let si = si as usize;
                    if &skeys[si * w..(si + 1) * w] == key {
                        return true;
                    }
                    at += 1;
                }
                false
            });
        }
        _ => unreachable!("key widths match across a step"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attrs(raw: &[u32]) -> AttrSet {
        AttrSet::from_raw(raw)
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
            r[1] = r[1].semijoin(&r[2]);
            r[0] = r[0].semijoin(&r[1]);
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
        let expected = rels[0].semijoin(&rels[1]);
        semijoin_program(&mut rels, &[SemijoinStep::new(&schemas, 0, 1)]);
        assert_eq!(rels[0], expected);
        assert_eq!(rels[0].len(), 1);
    }

    #[test]
    fn packed_mixed_and_unpackable_pairs_match_the_operator() {
        // Width-3 keys: s = 42. `fit` packs; `unfit` holds 2^42 in a key
        // column, which unchecked packing would carry into (1, 0, 0).
        let schemas = vec![attrs(&[0, 1, 2, 3]), attrs(&[0, 1, 2, 9])];
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
        let cases = [
            ("packed x packed", fit(0), fit(1)),
            ("wide target, packed source", unfit(0), fit(1)),
            ("packed target, wide source", fit(0), unfit(1)),
            ("wide x wide", unfit(0), unfit(1)),
        ];
        for (label, target, source) in cases {
            let expected = target.semijoin(&source);
            let mut rels = vec![target, source];
            semijoin_program(&mut rels, &[SemijoinStep::new(&schemas, 0, 1)]);
            assert_eq!(rels[0], expected, "{label}");
        }
        // The mixed pairs keep exactly the shared all-fit key.
        let mut rels = vec![unfit(0), fit(1)];
        semijoin_program(&mut rels, &[SemijoinStep::new(&schemas, 0, 1)]);
        assert_eq!(rels[0].to_vecs(), vec![vec![2, 3, 4, 6]]);
        let mut rels = vec![fit(0), unfit(1)];
        semijoin_program(&mut rels, &[SemijoinStep::new(&schemas, 0, 1)]);
        assert_eq!(rels[0].to_vecs(), vec![vec![2, 3, 4, 5]]);
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
        // forcing the hash-set membership path; semantics must not move.
        let schemas = vec![attrs(&[0, 1]), attrs(&[1, 2])];
        let huge = u64::MAX - 3;
        let mut rels = vec![
            Relation::new(
                schemas[0].clone(),
                vec![vec![1, 0], vec![2, huge], vec![3, 500]],
            ),
            Relation::new(schemas[1].clone(), vec![vec![huge, 9], vec![0, 9]]),
        ];
        let expected = rels[0].semijoin(&rels[1]);
        semijoin_program(&mut rels, &[SemijoinStep::new(&schemas, 0, 1)]);
        assert_eq!(rels[0], expected);
        assert_eq!(rels[0].len(), 2);
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
        expected[1] = expected[1].semijoin(&expected[2]);
        expected[0] = expected[0].semijoin(&expected[1]);
        semijoin_program_with(&mut rels, &steps, &mut scratch);
        assert_eq!(rels, expected);

        // Second program: different shape, previously-dead slots revive.
        let mut rels2 = vec![
            mk(vec![vec![7, 70], vec![8, 80]], 0),
            mk(vec![vec![70, 1], vec![80, 1], vec![90, 1]], 1),
            mk(vec![vec![1, 1]], 2),
        ];
        let mut expected2 = rels2.clone();
        expected2[1] = expected2[1].semijoin(&expected2[0]);
        let steps2 = vec![SemijoinStep::new(&schemas, 1, 0)];
        semijoin_program_with(&mut rels2, &steps2, &mut scratch);
        assert_eq!(rels2, expected2);
        assert_eq!(rels2[1].len(), 2);
    }
}
