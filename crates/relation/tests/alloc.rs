//! Allocation accounting for the selection-vector executor: after a warm-up
//! run, executing a whole semijoin program must perform **zero heap
//! allocation per step** — the selection vectors, the stamp table, the
//! `u128` hash set and the bucket chain for keys that do not pack are all
//! reused from the [`ExecScratch`], and key columns are cached on the
//! relations. Every membership path is covered: the width-1 stamp table,
//! width-1 keys too far apart for it (which share the `u128` set), packed
//! `u128` keys, and the chain for steps where some side's keys do not pack.
//!
//! Relations under the executor's caching threshold cache no key column,
//! so a warm scratch runs a program over freshly built small relations
//! without allocating at all.
//!
//! A warm join-up along a path of cores, as a cyclic plan builds
//! `state(W)`, allocates a bounded count per edge plus its output.
//!
//! The one-shot operators are pinned too: a cold `natural_join`,
//! `semijoin` or `is_subset` allocates a bounded count, whatever the number
//! of distinct keys — no allocation per key. A cold semijoin is pinned at
//! its exact count.
//!
//! The file installs a counting global allocator that counts per thread,
//! so each test sees only its own allocations — not those of tests running
//! beside it, nor the harness reporting their results.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gyo_relation::{join_up_with, semijoin_program_with, ExecScratch, Relation, SemijoinStep};
use gyo_schema::AttrSet;

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
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = allocs();
    let out = f();
    (allocs() - before, out)
}

/// A scenario of the program test: its label, slot schemas, and the map
/// applied to every cell value.
type Scenario = (&'static str, Vec<AttrSet>, Box<dyn Fn(u64) -> u64>);

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

/// One scenario per membership path: width-1 stamp table, width-1 keys in
/// the u128 set (huge key range), width-2 packed set, width-3 keys packed
/// into the same u128 set, and width-3 keys with every value ≥ 2^42 (too
/// wide for the 42-bit fields), which take the bucket chain.
fn scenarios() -> Vec<Scenario> {
    vec![
        (
            "width-1 stamp",
            wide_chain_schemas(6, 2, 1),
            Box::new(|v| v),
        ),
        (
            "width-1 u128 set",
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
    ]
}

#[test]
fn warm_program_steps_allocate_nothing() {
    for (label, schemas, value) in scenarios() {
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
    // in its width-3 key, so its key column does not pack while slot 1's
    // does. Every step that reads slot 0 runs on the bucket chain. The
    // downward pass only ever reads slot 0 as a source (its unfit row
    // matches nothing, and nothing is dropped): zero allocations when warm.
    // The full reducer then filters slot 0 against slot 1 and drops the
    // unfit row: only that slot's materialization allocates.
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

/// The fewest rows for which a relation caches its key columns: the
/// executor's private `CACHE_MIN_ROWS`, restated.
const CACHE_MIN_ROWS: usize = 64;

#[test]
fn warm_steps_over_fresh_small_relations_allocate_nothing() {
    // A relation under CACHE_MIN_ROWS rows caches no key column: every step
    // extracts its keys into the scratch. So a warm scratch runs a chain
    // reducer over relations it has never seen, freshly built as an ad hoc
    // query's are, without one allocation, on every membership path. A UR
    // state drops no row, so no slot is re-materialized.
    for (label, schemas, value) in scenarios() {
        let steps = chain_reducer_steps(&schemas);
        let mut scratch = ExecScratch::new();
        let mut warm = ur_rels(&schemas, CACHE_MIN_ROWS - 1, &value);
        semijoin_program_with(&mut warm, &steps, &mut scratch);

        let mut fresh = ur_rels(&schemas, CACHE_MIN_ROWS - 1, &value);
        assert!(
            fresh.iter().all(|r| r.len() == CACHE_MIN_ROWS - 1),
            "{label}: every relation is just under the threshold"
        );
        let reference = fresh.clone();
        let (n, ()) = counted(|| semijoin_program_with(&mut fresh, &steps, &mut scratch));
        assert_eq!(
            n,
            0,
            "{label}: a warm scratch over fresh small relations must not \
             allocate (steps: {})",
            steps.len()
        );
        assert_eq!(fresh, reference, "{label}: UR state is a fixpoint");
    }
}

/// 1000 rows over `attrs`, row `i` built by `row(i, i mod keys)`.
fn keyed(attrs: &[u32], keys: u64, row: impl Fn(u64, u64) -> Vec<u64>) -> Relation {
    let data: Vec<u64> = (0..1000).flat_map(|i| row(i, i % keys)).collect();
    Relation::from_row_major(AttrSet::from_raw(attrs), 1000, data)
}

#[test]
fn one_shot_operators_allocate_a_bounded_count_whatever_the_key_count() {
    // At most this many allocations per cold call. A cache build that
    // allocates per distinct key (one bucket per key) needs 1000+ here.
    const BOUND: u64 = 32;
    // A cold one-shot semijoin, pinned at its count: the slots' set-up, the
    // two key columns and the membership build. One that drops rows makes
    // `GATHER` more: the survivors' buffer, their shared `Arc` and their
    // attribute set.
    const SEMIJOIN: u64 = 18;
    const GATHER: u64 = 3;
    let semijoin_bound = |kept: &Relation| SEMIJOIN + if kept.len() < 1000 { GATHER } else { 0 };
    for keys in [10u64, 1000] {
        // Every relation is built fresh, so each call starts cold: no key
        // column or chain is cached yet.
        // R(a, b) has 1000 distinct b; S(b, c) has `keys` distinct b, each
        // matching one row of R, so the join keeps 1000 rows either way.
        let r = || keyed(&[0, 1], keys, |i, _| vec![i, i]);
        let s = || keyed(&[1, 2], keys, |i, k| vec![k, i]);
        // Width-3 key (1, 2, 3); S4 holds only the even keys.
        let r4 = || keyed(&[0, 1, 2, 3], keys, |i, k| vec![i, k, 2 * k, 3 * k]);
        let s4 = || {
            keyed(&[1, 2, 3, 4], keys, |i, k| {
                vec![k & !1, 2 * (k & !1), 3 * (k & !1), i]
            })
        };

        let (rel_r, rel_s) = (r(), s());
        let (n, joined) = counted(|| rel_r.natural_join(&rel_s));
        assert_eq!(joined.len(), 1000);
        assert!(n <= BOUND, "{keys} keys: natural_join made {n} allocations");

        let (rel_r, rel_s) = (r(), s());
        let (n, kept) = counted(|| rel_r.semijoin(&rel_s));
        assert_eq!(kept.len(), keys as usize);
        let bound = semijoin_bound(&kept);
        assert!(
            n <= bound,
            "{keys} keys: width-1 semijoin made {n} allocations, bound {bound}"
        );

        let (rel_r4, rel_s4) = (r4(), s4());
        let (n, kept) = counted(|| rel_r4.semijoin(&rel_s4));
        assert_eq!(kept.len(), 1000 / keys as usize * keys.div_ceil(2) as usize);
        let bound = semijoin_bound(&kept);
        assert!(
            n <= bound,
            "{keys} keys: width-3 semijoin made {n} allocations, bound {bound}"
        );

        let (rel_r, same) = (r(), r());
        let (n, subset) = counted(|| rel_r.is_subset(&same));
        assert!(subset);
        assert_eq!(n, 0, "{keys} keys: is_subset allocates nothing");
    }
}

/// The cores of a cyclic residue's survivors as `state(W)` joins them: a
/// ring of `k` binary relations `Rᵢ(aᵢ, aᵢ₊₁ mod k)`, each holding the
/// value pairs `(x, y)` with `y − x mod m ∈ {0, 1}`. Returns the cores,
/// the path `0 → 1 → … → k−1` (node `i` the child of node `i + 1`, the
/// last node the root) and `W`, every ring attribute. Every edge keys on
/// one attribute except the one into the root, which closes the ring on
/// two.
fn ring_cores(k: u32, m: u64) -> (Vec<Relation>, gyo_schema::RootedTree, AttrSet) {
    let pairs: Vec<u64> = (0..m).flat_map(|x| [x, x, x, (x + 1) % m]).collect();
    let cores = (0..k)
        .map(|i| {
            let attrs = AttrSet::from_raw(&[i, (i + 1) % k]);
            Relation::from_row_major(attrs, 2 * m as usize, pairs.clone())
        })
        .collect();
    let k = k as usize;
    let path = gyo_schema::RootedTree {
        root: k - 1,
        parent: (0..k).map(|v| (v + 1).min(k - 1)).collect(),
        post_order: (0..k).collect(),
    };
    let w = AttrSet::from_raw(&(0..k as u32).collect::<Vec<_>>());
    (cores, path, w)
}

#[test]
fn warm_join_up_allocates_a_bounded_count_per_edge() {
    // Per edge: the intermediate's schemas — the kept attributes, the
    // projection's and the join's output attributes, and the join key.
    // Assembling the output rows of a join allocates nothing per flush of
    // its pair list. The output: the root gathered into a fresh exact-size
    // buffer, its normalization, and the relation itself. The root's pooled
    // buffer goes back to the pool, so no buffer regrows with the output's
    // size and the bound is the same at every `m`.
    const PER_EDGE: u64 = 4;
    const OUTPUT: u64 = 4;
    for k in [3u32, 8] {
        for m in [16u64, 1024] {
            let (cores, path, w) = ring_cores(k, m);
            let kept = vec![true; cores.len()];
            let mut scratch = ExecScratch::new();
            let cold = join_up_with(&cores, &path, &kept, &w, &mut scratch);
            let (n, warm) = counted(|| join_up_with(&cores, &path, &kept, &w, &mut scratch));
            assert_eq!(warm, cold, "k {k}, m {m}: a warm scratch changes nothing");
            let edges = u64::from(k - 1);
            let bound = PER_EDGE * edges + OUTPUT;
            assert!(
                n <= bound,
                "k {k}, m {m}: a warm join-up made {n} allocations, bound {bound}"
            );
        }
    }
}
