//! Allocation accounting for the engine.
//!
//! **Cold plan compilation.** On a fresh engine, one compile of a
//! 12-relation tree schema, and of a 12-relation cyclic schema (a ring
//! with pendants) together with its treeified plan, each stays under a
//! fixed number of heap allocations. The compile path is one GYO reduction
//! over dense bitsets, one counting validation of the join tree, and for
//! the cyclic schema the extended tree built from the same reduction's
//! trace, all cached as one entry per schema; the bounds sit a little
//! above what that costs.
//!
//! **A warm `TreeifyEngine::answer`.** Once the plan is cached and the
//! scratches are warm, an answer allocates only for the state copy, the
//! relations its semijoins shrink, the join-up's intermediate schemas and
//! the answer itself. An answer reads only the subtree of the join tree
//! that spans `X`, so on `star(64)` with two leaf attributes as the target
//! (three nodes kept) it allocates less than on `chain(64)` with its two
//! end attributes (every node kept). The kept-node mask lives in the
//! engine's reusable answer scratch, so deriving it allocates nothing per
//! node.
//!
//! The file installs a counting global allocator that counts per thread,
//! so each test sees only its own allocations — not those of tests running
//! beside it, nor the harness reporting their results.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gyo_query::{solve_tree_query, Engine, TreeifyEngine};
use gyo_schema::{AttrSet, DbSchema};
use gyo_workloads::{chain, family_state, star};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. A `const`-initialized `Cell` needs
    /// no lazy set-up and no destructor, so the allocator can touch it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only while the thread is torn down; those
    // allocations are nobody's to count.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Heap allocations made by `f`.
fn count(f: impl FnOnce()) -> u64 {
    let before = allocs();
    f();
    allocs() - before
}

fn schema(rels: &[&[u32]]) -> DbSchema {
    DbSchema::new(rels.iter().map(|r| AttrSet::from_raw(r)).collect())
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
    // The bounds sit 7-10% above the measured counts, 64 (tree) and 122
    // (cyclic), so a change that adds work per relation or per edge trips
    // them.
    assert!(tree_allocs <= 70, "tree compile: {tree_allocs} allocations");
    assert!(
        cyclic_allocs <= 131,
        "cyclic compile: {cyclic_allocs} allocations"
    );
}

/// Heap allocations made by one answer of `d` on `x`, after two warm-up
/// answers on the same engine; the answer is checked against the per-call
/// Yannakakis solver outside the count.
fn warm_answer_allocs(d: &DbSchema, x: &AttrSet, seed: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let state = family_state(&mut rng, d, 64, 1 << 10, 16);
    let engine = TreeifyEngine::new();
    engine.answer(d, &state, x).unwrap();
    engine.answer(d, &state, x).unwrap();
    let before = allocs();
    let got = engine.answer(d, &state, x).unwrap();
    let counted = allocs() - before;
    assert_eq!(got, solve_tree_query(d, &state, x).unwrap());
    counted
}

#[test]
fn a_warm_answer_allocates_only_along_the_kept_subtree() {
    let star_allocs = warm_answer_allocs(&star(64), &AttrSet::from_raw(&[17, 64]), 0x57A2);
    let chain_allocs = warm_answer_allocs(&chain(64), &AttrSet::from_raw(&[0, 64]), 0xC4A1);
    eprintln!("warm answer allocations: star {star_allocs}, chain {chain_allocs}");
    // About 10% above the counts measured when the bounds were set (28 and
    // 456), so a change that adds work per node or per edge trips them. A
    // relation is one `Arc`, so a state copy allocates its vector and no
    // schema per relation; when every clone still copied its attribute set
    // the counts were 92 and 520. Join-output assembly allocates nothing
    // per pair flush; with two allocations per flush the chain answer made
    // 144 more.
    assert!(star_allocs <= 31, "star answer: {star_allocs} allocations");
    assert!(
        chain_allocs <= 502,
        "chain answer: {chain_allocs} allocations"
    );
    assert!(
        star_allocs < chain_allocs,
        "star {star_allocs} vs chain {chain_allocs}"
    );
}
