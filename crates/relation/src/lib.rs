//! A small in-memory relational engine — the execution substrate for the
//! paper's queries.
//!
//! The paper reasons about *universal relation (UR) databases*: collections
//! `D = {π_R(I) | R ∈ D}` of projections of a single universal relation `I`,
//! queried with natural joins (`⋈`), projections (`π_X`) and semijoins
//! (`⋉`, where `R ⋉ S ≝ π_R(R ⋈ S)`). This crate implements exactly that
//! algebra:
//!
//! * [`Relation`] — a set of tuples over an attribute set, with `⋈`, `π`,
//!   `⋉`, and set operations;
//! * [`DbState`] — a database state: one relation per relation schema of a
//!   [`DbSchema`](gyo_schema::DbSchema);
//! * [`universal`] — universal relations, the join-of-projections operator
//!   `m_D` (the chase for join dependencies), and join-dependency
//!   satisfaction `I ⊨ ⋈D`;
//! * [`exec`] — precompiled semijoin steps ([`SemijoinStep`]) and the
//!   selection-vector [`semijoin_program`] executor used by the cached
//!   engine;
//! * [`joinup`] — the flat join-up executor ([`join_up_with`]) the cached
//!   engine answers through, over the reduced subtree that spans `X`, and
//!   the bucket-chain join [`Relation::natural_join`] runs on.
//!
//! A private `kernels` module holds the loops these operators share:
//! gather projection, join-output assembly, the chunked selection-vector
//! retain, a generation-stamped direct-map key table, and packed row
//! sorting.
//!
//! # Flat row-major storage
//!
//! Every [`Relation`] keeps its tuples in **one flat `Vec<u64>` buffer**
//! with stride = arity: row `i` lives at `data[i·arity..(i+1)·arity]` and
//! is read as a `&[u64]` slice ([`Relation::row`], [`Relation::rows`],
//! [`Relation::data`]). Normalization (sort + dedup) runs directly on the
//! flat buffer with stride-aware comparison, and every operator —
//! projection, hash join, semijoin, union, the batched mask executor —
//! both reads and writes flat buffers, so **no operator allocates per
//! row**. The buffer and the lazily built derivation cache (packed key
//! columns, cached only by relations of at least 64 rows) sit behind one
//! `Arc`: cloning a relation is O(1), and every clone shares both, whether
//! taken before a derivation or after.
//!
//! Nested tuple vectors appear in exactly two places, both boundaries: the
//! ergonomic constructor [`Relation::new`] (input conversion) and the test
//! shim [`Relation::to_vecs`] (assertion output). Use
//! [`Relation::from_row_major`] everywhere performance matters; the nested
//! forms are acceptable only in tests, doc examples, and one-off input
//! conversion — never inside operators, engines, or generators.
//!
//! # Selection-vector execution
//!
//! Projection copies each row's projected columns in one pre-sized pass,
//! join outputs are assembled in one pass over a matched-pair list, and
//! semijoin filtering — both the one-shot operator, which is a one-step
//! program, and whole compiled programs — runs through reusable
//! **selection vectors** (ascending `u32` survivor indices) probed in
//! fixed-size chunks with branchless mask accumulation. The
//! [`semijoin_program`] executor threads one selection vector per relation
//! slot through an entire full-reducer program: no intermediate relation
//! is materialized and, with a caller-owned [`exec::ExecScratch`]
//! ([`exec::semijoin_program_with`]), no step allocates after warm-up.
//! [`join_up_with`] takes the same scratch, so an engine keeps one for
//! both phases of a query: its bucket chain, its `u128` set and its key
//! positions serve the semijoin steps and the joins alike.
//!
//! # One key encoding
//!
//! Semijoin steps key on one scalar encoding. A width-1 key is its `u64`.
//! A key of width `w ≥ 2` whose values all fit in `s = ⌊128/w⌋` bits packs
//! into one `u128`, value `j` at shift `s·(w−1−j)` — for `w = 2` the two
//! 64-bit halves, so every width-2 key packs. Each relation caches its semijoin key columns in this form, one
//! scalar per row. Because `s` depends on `w` alone, both sides of a step
//! pack alike without consulting each other, and a key with a value
//! `≥ 2^s` can never equal one that fits. So the fallbacks are narrow:
//!
//! * a width-1 key range too large for the direct-map table goes into the
//!   same `u128` hash set as the packed keys;
//! * when either side of a semijoin step holds an unfit value, the step
//!   chains the selected source rows on the bucket chain the join-up's
//!   joins build, and re-compares the key columns on every hit.
//!
//! The join-up executor packs width-1 and width-2 keys the same way and
//! hashes-then-compares wider ones through that one bucket chain.
//!
//! Two join-ups run over these operators, deliberately:
//!
//! * the **flat executor** ([`join_up_with`]) in the cached engine
//!   (`TreeifyEngine`, over the subtree of its plan's join tree that spans
//!   `X`, and along a path of survivor cores to build `state(W)`):
//!   unsorted duplicate-free intermediates in reused buffers, bucket-chain
//!   builds, one normalization at the root;
//! * the **operator-at-a-time reference** in the per-call routes
//!   (`solve_tree_query`, `solve_via_treeification`):
//!   one [`Relation::project`] and one [`Relation::natural_join`] per
//!   tree edge, every intermediate a normalized `Relation`. The
//!   differential suite compares the two routes.
//!
//! Each relation caches one derivation per key attribute set, and nothing
//! else: the packed key column that both sides of a semijoin step read. So
//! repeated reductions over one state pay each extraction once. A join's
//! bucket chain is not cached: on the `perfbench` workloads at most 1% of
//! one-shot joins build on a relation they have built on before. A chain
//! reserves its head map for every row it links, so a cold join allocates a
//! bounded count whatever the number of distinct keys.
//!
//! Values are plain `u64`; the library's semantic oracles only need equality
//! on values, never arithmetic or ordering semantics.

#![warn(missing_docs)]

pub mod database;
pub mod exec;
pub mod joinup;
mod kernels;
pub mod relation;
pub mod universal;

pub use database::DbState;
pub use exec::{semijoin_program, semijoin_program_with, ExecScratch, SemijoinStep};
pub use joinup::join_up_with;
pub use relation::{lock_cache, Relation};
pub use universal::{join_of_projections, satisfies_jd};
