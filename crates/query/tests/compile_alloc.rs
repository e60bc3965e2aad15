//! Allocation accounting for cold plan compilation: on a fresh engine, one
//! compile of a 12-relation tree schema, and of a 12-relation cyclic schema
//! (a ring with pendants) together with its treeified plan, each stays
//! under a fixed number of heap allocations. The compile path is one GYO
//! reduction over dense bitsets, one counting validation of the join tree,
//! and for the cyclic schema the extended tree built from the same
//! reduction's trace, all cached as one entry per schema; the bounds sit a
//! little above what that costs.
//!
//! The file installs a counting global allocator, so it contains exactly
//! one `#[test]` (parallel tests would pollute the counter).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use gyo_query::TreeifyEngine;
use gyo_schema::{AttrSet, DbSchema};

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

fn schema(rels: &[&[u32]]) -> DbSchema {
    DbSchema::new(rels.iter().map(|r| AttrSet::from_raw(r)).collect())
}

/// Heap allocations made by `f`.
fn count(f: impl FnOnce()) -> u64 {
    let before = allocs();
    f();
    allocs() - before
}

#[test]
fn cold_compiles_stay_under_their_allocation_bounds() {
    // A 12-relation tree schema: branching, with keys of width 1-3 and
    // attribute ids spread over more than one 64-bit word.
    let tree = schema(&[
        &[0, 1, 2],
        &[1, 2, 3],
        &[3, 4],
        &[3, 5, 70],
        &[5, 6],
        &[6, 7, 8],
        &[2, 9],
        &[9, 10, 130],
        &[10, 11],
        &[0, 12],
        &[12, 13, 14],
        &[14, 15],
    ]);
    // A 12-relation cyclic schema: an 8-ring with four pendants.
    let ring = schema(&[
        &[0, 1],
        &[1, 2],
        &[2, 3],
        &[3, 4],
        &[4, 5],
        &[5, 6],
        &[6, 7],
        &[7, 0],
        &[0, 100],
        &[2, 101],
        &[4, 102],
        &[6, 103],
    ]);

    let engine = TreeifyEngine::new();
    let tree_allocs = count(|| {
        engine.plan(&tree).expect("a tree schema");
    });
    let cyclic_allocs = count(|| {
        let err = engine.plan(&ring).expect_err("a cyclic schema");
        engine.treeified_plan(&ring, &err);
    });
    eprintln!("cold compile allocations: tree {tree_allocs}, cyclic {cyclic_allocs}");
    // One entry per schema: the cyclic one holds its treeify plan, and
    // the extended schema takes no entry of its own.
    assert_eq!(engine.cached_plan_count(), 2);
    assert_eq!(engine.cached_treeified_count(), 1);
    // About 10% above the counts measured when the bounds were set (64 and
    // 119), so a change that adds work per relation or per edge trips them.
    assert!(tree_allocs <= 70, "tree compile: {tree_allocs} allocations");
    assert!(
        cyclic_allocs <= 131,
        "cyclic compile: {cyclic_allocs} allocations"
    );
}
