//! Allocation accounting for the selection-vector executor: after a warm-up
//! run, executing a whole semijoin program must perform **zero heap
//! allocation per step** — the SelVecs, the stamp table, the hash-set
//! fallbacks, and the wide-key spine are all reused from the
//! [`ExecScratch`], and key columns are cached on the relations. Every
//! membership path is covered: width-1 stamp and hash, packed `u128` keys,
//! the pack-or-reject mixed pairs, and the spine for keys too wide to pack.
//!
//! The file installs a counting global allocator, so it contains exactly
//! one `#[test]` (parallel tests would pollute the counter).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use gyo_relation::{semijoin_program_with, ExecScratch, Relation, SemijoinStep};
use gyo_schema::AttrSet;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// A globally consistent (UR) state for `schemas`: every relation is a
/// projection of one universal relation, so a full reducer drops nothing
/// and the executor's end-of-run materialization is skipped — isolating
/// the per-step cost. `value(v)` post-processes the raw cell values (used
/// to push keys outside the stamp table's range).
fn ur_rels(schemas: &[AttrSet], rows: usize, value: impl Fn(u64) -> u64) -> Vec<Relation> {
    let all = schemas.iter().fold(AttrSet::empty(), |acc, s| acc.union(s));
    let width = all.len();
    let data: Vec<u64> = (0..rows)
        .flat_map(|r| (0..width).map(move |c| (r * 31 + c * 7) as u64 % 97))
        .map(&value)
        .collect();
    let u = Relation::from_row_major(all, rows, data);
    schemas.iter().map(|s| u.project(s)).collect()
}

/// Chain-shaped full-reducer steps (upward then downward pass) over
/// arbitrary slot schemas.
fn chain_reducer_steps(schemas: &[AttrSet]) -> Vec<SemijoinStep> {
    let n = schemas.len();
    let mut steps = Vec::new();
    for v in (1..n).rev() {
        steps.push(SemijoinStep::new(schemas, v - 1, v));
    }
    for v in 1..n {
        steps.push(SemijoinStep::new(schemas, v, v - 1));
    }
    steps
}

/// A wide-chain slot schema: relation `i` spans `arity` attributes with
/// `overlap`-attribute keys between neighbors (width-1/2/wide keys come
/// from `overlap` = 1/2/3).
fn wide_chain_schemas(n: usize, arity: u32, overlap: u32) -> Vec<AttrSet> {
    let step = arity - overlap;
    (0..n as u32)
        .map(|i| AttrSet::from_iter((i * step..i * step + arity).map(gyo_schema::AttrId)))
        .collect()
}

#[test]
fn warm_program_steps_allocate_nothing() {
    // One scenario per membership path: width-1 stamp table, width-1 hash
    // fallback (huge key range), width-2 packed set, width-3 keys packed
    // into the same u128 set, and width-3 keys with every value ≥ 2^42
    // (too wide for the 42-bit fields), which take the hash spine.
    let scenarios: Vec<(&str, Vec<AttrSet>, Box<dyn Fn(u64) -> u64>)> = vec![
        (
            "width-1 stamp",
            wide_chain_schemas(6, 2, 1),
            Box::new(|v| v),
        ),
        (
            "width-1 hash fallback",
            wide_chain_schemas(6, 2, 1),
            Box::new(|v| v.wrapping_mul(1 << 40)),
        ),
        (
            "width-2 packed",
            wide_chain_schemas(5, 4, 2),
            Box::new(|v| v),
        ),
        ("wide keys", wide_chain_schemas(5, 6, 3), Box::new(|v| v)),
        (
            "wide keys, unpackable",
            wide_chain_schemas(5, 6, 3),
            Box::new(|v| v + (1 << 42)),
        ),
    ];
    for (label, schemas, value) in scenarios {
        let steps = chain_reducer_steps(&schemas);
        let mut rels = ur_rels(&schemas, 64, value);
        let reference = rels.clone();
        let mut scratch = ExecScratch::new();

        // Warm-up: sizes every reusable buffer and the relations' cached
        // key columns. A UR state is already globally consistent, so
        // nothing is dropped and no slot is re-materialized.
        semijoin_program_with(&mut rels, &steps, &mut scratch);
        assert_eq!(rels, reference, "{label}: UR state is a fixpoint");

        let before = allocs();
        semijoin_program_with(&mut rels, &steps, &mut scratch);
        let after = allocs();
        assert_eq!(
            after - before,
            0,
            "{label}: warm program run must not allocate (steps: {})",
            steps.len()
        );
        assert_eq!(rels, reference, "{label}: still a fixpoint");

        // With real filtering the steps themselves stay allocation-free;
        // only the end-of-run materialization of *changed* slots allocates
        // (a handful of allocations per slot, independent of step count).
        let mut noisy = reference.clone();
        let arity0 = schemas[0].len();
        let mut data = noisy[0].data().to_vec();
        data.extend((0..arity0).map(|c| 1_000_000 + c as u64)); // dangling row
        noisy[0] = Relation::from_row_major(schemas[0].clone(), noisy[0].len() + 1, data);
        let mut run = noisy.clone();
        semijoin_program_with(&mut run, &steps, &mut scratch); // warm at this shape
        let mut run = noisy.clone();
        let before = allocs();
        semijoin_program_with(&mut run, &steps, &mut scratch);
        let after = allocs();
        assert_eq!(run[0].len(), reference[0].len(), "{label}: dangler dropped");
        assert!(
            after - before <= 4,
            "{label}: a filtering run allocates only to materialize the one \
             changed slot, got {} allocations",
            after - before
        );
    }

    // "wide keys, mixed fit": slot 0 alone holds a row with values ≥ 2^42
    // in its width-3 key, so its key column is row-major while slot 1's
    // packs. The downward pass only ever reads slot 0 as a source (its
    // unfit keys are skipped, nothing is dropped): zero allocations when
    // warm. The full reducer then filters slot 0 against packed keys and
    // rejects the unfit row: only that slot's materialization allocates.
    let label = "wide keys, mixed fit";
    let schemas = wide_chain_schemas(5, 6, 3);
    let reference = ur_rels(&schemas, 64, |v| v);
    let mut mixed = reference.clone();
    let mut data = mixed[0].data().to_vec();
    data.extend((0..schemas[0].len()).map(|c| (1 << 42) + c as u64));
    mixed[0] = Relation::from_row_major(schemas[0].clone(), mixed[0].len() + 1, data);
    let down: Vec<SemijoinStep> = (1..schemas.len())
        .map(|v| SemijoinStep::new(&schemas, v, v - 1))
        .collect();
    let mut scratch = ExecScratch::new();
    let mut rels = mixed.clone();
    semijoin_program_with(&mut rels, &down, &mut scratch);
    assert_eq!(rels, mixed, "{label}: the downward pass drops nothing");
    let before = allocs();
    semijoin_program_with(&mut rels, &down, &mut scratch);
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "{label}: warm program run must not allocate (steps: {})",
        down.len()
    );
    assert_eq!(rels, mixed, "{label}: still unchanged");

    let steps = chain_reducer_steps(&schemas);
    let mut run = mixed.clone();
    semijoin_program_with(&mut run, &steps, &mut scratch); // warm at this shape
    let mut run = mixed.clone();
    let before = allocs();
    semijoin_program_with(&mut run, &steps, &mut scratch);
    let after = allocs();
    assert_eq!(run, reference, "{label}: the unfit row is rejected");
    assert!(
        after - before <= 4,
        "{label}: a filtering run allocates only to materialize the one \
         changed slot, got {} allocations",
        after - before
    );
}
