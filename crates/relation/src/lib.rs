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
//!   engine answers through after full reduction;
//! * [`kernels`] — the columnar kernel layer: gather projection, chunked
//!   branchless key-probe kernels over [`SelVec`] selection vectors, the
//!   generation-stamped [`kernels::StampTable`], and packed row sorting.
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
//! row**. The buffer is `Arc`-shared: cloning a relation is O(1), and
//! clones share the storage *and* the lazily built derivation caches
//! (column positions, hash-join build tables, packed key columns).
//!
//! Nested tuple vectors appear in exactly two places, both boundaries: the
//! ergonomic constructor [`Relation::new`] (input conversion) and the test
//! shim [`Relation::to_vecs`] (assertion output). Use
//! [`Relation::from_row_major`] everywhere performance matters; the nested
//! forms are acceptable only in tests, doc examples, and one-off input
//! conversion — never inside operators, engines, or generators.
//!
//! # Columnar kernels and the SelVec execution model
//!
//! On top of the flat layout sits the [`kernels`] layer: projection moves
//! values in column-strided blocks ([`kernels::ColumnarView::gather_into`]),
//! join outputs are assembled column-at-a-time over a matched-pair list,
//! and semijoin filtering — both the one-shot operator and whole compiled
//! programs — runs through reusable [`SelVec`] **selection vectors**
//! (`u32` survivor indices plus a generation-stamped bitset) probed in
//! fixed-size chunks with branchless mask accumulation. The
//! [`semijoin_program`] executor threads one `SelVec` per relation slot
//! through an entire full-reducer program: no intermediate relation is
//! materialized and, with a caller-owned [`exec::ExecScratch`]
//! ([`exec::semijoin_program_with`]), no step allocates after warm-up.
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
//! * when one side of a semijoin step holds an unfit value, its unfit keys
//!   are rejected (as targets) or skipped (as sources), and the step stays
//!   on the `u128` hash set (*pack-or-reject*);
//! * only when both sides hold unfit values does the step compare
//!   row-major keys behind a sorted `(hash, row)` spine.
//!
//! The join-up executor packs width-1 and width-2 keys the same way and
//! hashes-then-compares wider ones.
//!
//! Row-at-a-time execution remains in exactly the places where a column
//! decomposition has nothing to offer: hash-*building* (`KeyIndex`
//! construction and the join-up bucket chains walk rows once), the probe
//! halves of `natural_join` and of the join-up joins (match fan-out is
//! data-dependent), the join-up's projection dedup, normalization of rows
//! whose values are too wide to pack into `u64`/`u128` scalars
//! ([`kernels::sort_dedup_packed`] falls back to an index-permutation
//! sort), and the `Vec<Vec<u64>>` boundary shims.
//!
//! Two join-ups run over these operators, deliberately:
//!
//! * the **flat executor** ([`join_up_with`]) in the cached engine
//!   (`TreeifyEngine`, for tree schemas and for targets outside `W`):
//!   unsorted duplicate-free intermediates in reused buffers, bucket-chain
//!   builds, one normalization at the root;
//! * the **operator-at-a-time reference** in the per-call routes
//!   (`solve_tree_query`, `solve_via_treeification`):
//!   one [`Relation::project`] and one [`Relation::natural_join`] per
//!   tree edge, every intermediate a normalized `Relation`. The
//!   differential suite compares the two routes.
//!
//! The hot paths are cache-assisted: every [`Relation`] lazily memoizes, per
//! key attribute set, its column positions and its hash-join build table, so
//! repeated joins and semijoins against the same relation (or clones of it)
//! skip the rebuild.
//!
//! Values are plain `u64`; the library's semantic oracles only need equality
//! on values, never arithmetic or ordering semantics.

#![warn(missing_docs)]

pub mod database;
pub mod exec;
pub mod joinup;
pub mod kernels;
pub mod relation;
pub mod universal;

pub use database::DbState;
pub use exec::{semijoin_program, semijoin_program_with, ExecScratch, SemijoinStep};
pub use joinup::{join_up_with, JoinUpScratch};
pub use kernels::{ColumnarView, SelVec};
pub use relation::{lock_cache, Relation};
pub use universal::{join_of_projections, satisfies_jd};
