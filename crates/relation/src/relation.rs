//! Relations (sets of tuples) and the natural-join algebra.
//!
//! # Storage layout
//!
//! A [`Relation`] stores its tuples in a **single flat row-major buffer**:
//! one `Vec<u64>` holding `len · arity` values, where row `i` occupies
//! `data[i·arity .. (i+1)·arity]` (the stride is the arity). There is no
//! per-tuple allocation anywhere on the operator paths — rows are read as
//! `&[u64]` slices straight out of the buffer ([`Relation::row`],
//! [`Relation::rows`]), and `project`/`natural_join`/`semijoin`/`union`
//! write their outputs into flat buffers, pre-sized wherever the output
//! size is bounded up front (joins grow theirs — the output size is not
//! knowable in advance).
//!
//! The buffer is normalized (rows strictly increasing in lexicographic
//! order, duplicates removed) at construction, so equality is set equality
//! and binary search works on row indices. Normalization itself is
//! stride-aware and allocation-free per row: width-1 and width-2 rows sort
//! as packed scalars, wider rows sort through an index permutation.
//!
//! A relation is one `Arc` and nothing else. Behind it sit the attribute
//! set, the row count, the buffer and the derivation cache (per key
//! attribute set, the packed key column the semijoin kernel reads), so a
//! clone is one reference-count increment that allocates nothing, and every
//! clone shares the tuples and each column derived from them, whether it
//! was taken before the derivation or after.
//! A semijoin step between two relations of fewer than 64 rows (the
//! executor's `CACHE_MIN_ROWS`) chains the rows of both, and derives and
//! caches no column on either side; a step with a larger side caches
//! both.
//!
//! Each operator has one kernel. `natural_join` is the join-up's join
//! ([`crate::joinup`]) over two relations, building a bucket chain on the
//! smaller side, and `semijoin` is a one-step [`semijoin_program`]. Both
//! share their code with the engines' executors.
//!
//! The only nested-vector conversions left are **boundaries**:
//! [`Relation::new`] accepts nested vectors for ergonomic construction, and
//! [`Relation::to_vecs`] materializes them for test assertions. Neither is
//! acceptable on a hot path — operators and engines must stay on the flat
//! buffer.

use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use gyo_schema::{AttrSet, Catalog, FxHashMap};

use crate::exec::{semijoin_program, SemijoinStep};
use crate::joinup;
use crate::kernels::{self, SelVec};

/// Packs a width-2 key into one scalar. The first column lands in the high
/// half, so `u128` ordering equals lexicographic row ordering — every
/// width-2 build, probe, and sort site must agree on this encoding. This is
/// the `width = 2` case of [`pack_key`] (`s = 64`, every value fits).
#[inline]
pub(crate) fn pack2(a: u64, b: u64) -> u128 {
    (a as u128) << 64 | b as u128
}

/// Bits per value in a packed key of `width ≥ 2` values: `s = ⌊128/width⌋`.
/// It depends on the width alone, so the two sides of a semijoin step pack
/// their keys identically without consulting each other.
#[inline]
pub(crate) fn pack_shift(width: usize) -> u32 {
    debug_assert!(width >= 2, "width-1 keys are plain u64 columns");
    (128 / width) as u32
}

/// The canonical key encoding: packs the `w` values of a key into one
/// `u128`, value `j` at shift `s·(w−1−j)` with `s` = [`pack_shift`]`(w)`,
/// or `None` when some value needs more than `s` bits. Packing is
/// injective on the keys that fit.
#[inline]
pub(crate) fn pack_key(vals: impl IntoIterator<Item = u64>, shift: u32) -> Option<u128> {
    let mut acc = 0u128;
    for v in vals {
        if shift < 64 && v >> shift != 0 {
            return None;
        }
        acc = acc << shift | v as u128;
    }
    Some(acc)
}

/// Positions of `sub`'s attributes within `sup`'s columns (both sorted).
///
/// # Panics
///
/// Panics if some attribute of `sub` is not in `sup`.
pub(crate) fn positions_into(sub: &AttrSet, sup: &AttrSet, out: &mut Vec<usize>) {
    out.clear();
    let cols = sup.as_slice();
    out.extend(sub.iter().map(|a| {
        cols.binary_search(&a)
            .expect("attribute belongs to the schema")
    }));
}

/// Inverse of [`pack2`].
#[inline]
fn unpack2(p: u128) -> (u64, u64) {
    ((p >> 64) as u64, p as u64)
}

/// A relation's key values over one key-attribute set, extracted into flat,
/// cache-friendly storage (row `i` of the column is tuple `i`'s key), so
/// the batched executor's inner loops never chase per-tuple heap pointers.
///
/// Keys of width `w ≥ 2` use one canonical encoding ([`pack_key`]): when
/// every value fits in `s = ⌊128/w⌋` bits the column is one `u128` per
/// tuple, value `j` at shift `s·(w−1−j)` ([`KeyColumn::Packed`]; for `w = 2`
/// that is [`pack2`]). A column holding a value `≥ 2^s` caches only that
/// it does not pack ([`KeyColumn::Unfit`]): a semijoin step with such a
/// side chains the relations' rows themselves. Since `s` depends on `w`
/// alone, both sides of a step pack alike.
#[derive(Debug)]
pub(crate) enum KeyColumn {
    /// Width-1 key: the single key value per tuple, with the value range
    /// precomputed (the batched executor arms its stamp table from the
    /// range without rescanning the column).
    One {
        /// The key value per tuple.
        vals: Vec<u64>,
        /// Smallest key (0 for an empty relation).
        min: u64,
        /// Largest key (0 for an empty relation).
        max: u64,
    },
    /// Width ≥ 2, every value below `2^s`: the packed key per tuple.
    Packed(Vec<u128>),
    /// Width ≥ 3 with some value `≥ 2^s`: the keys do not pack.
    Unfit,
}

impl KeyColumn {
    /// `rel`'s key column at the nonempty positions `pos`, in one pass over
    /// the rows.
    fn extract(rel: &Relation, pos: &[usize]) -> Self {
        // A nonempty key makes the arity nonzero.
        let mut rows = rel.data().chunks_exact(rel.arity());
        match *pos {
            [p] => {
                let (mut min, mut max) = (u64::MAX, 0);
                let vals = rows
                    .map(|t| {
                        let v = t[p];
                        (min, max) = (min.min(v), max.max(v));
                        v
                    })
                    .collect();
                // An empty relation reads min = u64::MAX > max = 0 here.
                KeyColumn::One {
                    vals,
                    min: min.min(max),
                    max,
                }
            }
            _ => {
                let shift = pack_shift(pos.len());
                let mut keys = Vec::with_capacity(rel.len());
                let packed = rows.try_for_each(|t| {
                    keys.push(pack_key(pos.iter().map(|&p| t[p]), shift)?);
                    Some(())
                });
                match packed {
                    Some(()) => KeyColumn::Packed(keys),
                    None => KeyColumn::Unfit,
                }
            }
        }
    }
}

/// Locks a mutex that guards only derivable data — a cache whose entries
/// can all be rebuilt from their keys — and recovers the guard if an
/// earlier holder panicked. A panic under the lock can at worst lose an
/// entry, which is just a later miss, so poisoning carries no information;
/// `expect`-ing on it would turn one failed call into a failure of every
/// later caller. The relation caches and the engines' plan caches lock
/// through this.
pub fn lock_cache<T>(cache: &Mutex<T>) -> MutexGuard<'_, T> {
    cache.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A relation state: a *set* of tuples over an attribute set, stored
/// row-major in one flat buffer (see the [module docs](self) for the
/// layout).
///
/// Column order follows the sorted order of [`AttrSet`] ids; rows are kept
/// sorted and deduplicated, so equality is set equality and all operations
/// are deterministic.
///
/// The one field is an `Arc` of the schema, the rows and their derived key
/// columns, so a clone allocates nothing, and two clones compare equal by
/// pointer before any row is read.
///
/// The degenerate relations over the empty attribute set follow standard
/// convention: `{}` (the empty relation, a join annihilator) and `{()}` (the
/// single empty tuple, the join identity).
///
/// # Examples
///
/// ```
/// use gyo_schema::{AttrSet, Catalog};
/// use gyo_relation::Relation;
///
/// let mut cat = Catalog::alphabetic();
/// let ab = AttrSet::parse("ab", &mut cat).unwrap();
/// let bc = AttrSet::parse("bc", &mut cat).unwrap();
/// let r = Relation::new(ab, vec![vec![1, 10], vec![2, 20]]);
/// let s = Relation::new(bc, vec![vec![10, 100], vec![30, 300]]);
/// let j = r.natural_join(&s);
/// assert_eq!(j.len(), 1); // only b=10 matches
/// assert_eq!(j.row(0), &[1, 10, 100]);
/// ```
#[derive(Clone)]
pub struct Relation {
    /// Everything the relation holds, shared by every clone.
    shared: Arc<Shared>,
}

/// What every clone of a relation shares: its schema, the tuples, and the
/// key columns derived from them. A relation never changes after
/// construction, so a derivation stays valid for the relation's whole
/// life. A clone taken before a derivation sees it all the same, and
/// equality ignores the columns.
struct Shared {
    /// The schema; its length is the arity, the buffer stride.
    attrs: AttrSet,
    /// Row count. Kept apart from the buffer because arity-0 relations
    /// (`{}` vs `{()}`) have no data to count rows from.
    len: usize,
    /// Row-major tuple values, `len · arity` of them, rows strictly
    /// increasing.
    data: Vec<u64>,
    /// Per key attribute set, the packed key column of the semijoin steps
    /// that read this relation on either side.
    columns: Mutex<FxHashMap<AttrSet, Arc<KeyColumn>>>,
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&*self.shared, &*other.shared);
        Arc::ptr_eq(&self.shared, &other.shared)
            || (a.attrs == b.attrs && a.len == b.len && a.data == b.data)
    }
}

impl Eq for Relation {}

/// Iterator over a relation's rows as `&[u64]` slices of the flat buffer
/// (see [`Relation::rows`]).
#[derive(Clone, Debug)]
pub struct Rows<'a> {
    data: &'a [u64],
    arity: usize,
    front: usize,
    back: usize,
}

impl<'a> Iterator for Rows<'a> {
    type Item = &'a [u64];

    #[inline]
    fn next(&mut self) -> Option<&'a [u64]> {
        if self.front == self.back {
            return None;
        }
        let i = self.front;
        self.front += 1;
        Some(if self.arity == 0 {
            &[]
        } else {
            &self.data[i * self.arity..(i + 1) * self.arity]
        })
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.back - self.front;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Rows<'_> {}

/// Sorts and deduplicates a row-major buffer in place (stride-aware);
/// returns the surviving row count and buffer. Detects the already-sorted
/// common case with one linear scan, packs width ≤ 2 rows into scalars,
/// packs wider rows into `u64`/`u128` scalars whenever the value bits fit
/// (see [`kernels::sort_dedup_packed`]), and only falls back to an index
/// permutation for genuinely wide rows — no per-row heap allocation for
/// any arity.
fn normalize(arity: usize, rows: usize, mut data: Vec<u64>) -> (usize, Vec<u64>) {
    if arity == 0 {
        // All empty tuples are equal: the set has at most one element.
        return (rows.min(1), data);
    }
    debug_assert_eq!(data.len(), rows * arity);
    let row = |i: usize| &data[i * arity..(i + 1) * arity];
    if (1..rows).all(|i| row(i - 1) < row(i)) {
        return (rows, data);
    }
    match arity {
        1 => {
            data.sort_unstable();
            data.dedup();
            (data.len(), data)
        }
        2 => {
            let mut packed: Vec<u128> = data.chunks_exact(2).map(|c| pack2(c[0], c[1])).collect();
            packed.sort_unstable();
            packed.dedup();
            data.clear();
            for &p in &packed {
                let (a, b) = unpack2(p);
                data.push(a);
                data.push(b);
            }
            (packed.len(), data)
        }
        _ => {
            // Columnar fast path: rows whose values fit pack into scalars
            // and sort as machine words.
            let data = match kernels::sort_dedup_packed(arity, rows, data) {
                Ok(done) => return done,
                Err(data) => data,
            };
            // Row-at-a-time fallback (values too wide to pack): sort an
            // index permutation, then gather the surviving rows.
            let mut idx: Vec<usize> = (0..rows).collect();
            idx.sort_unstable_by(|&a, &b| {
                data[a * arity..(a + 1) * arity].cmp(&data[b * arity..(b + 1) * arity])
            });
            idx.dedup_by(|a, b| {
                data[*a * arity..(*a + 1) * arity] == data[*b * arity..(*b + 1) * arity]
            });
            let mut out = Vec::with_capacity(idx.len() * arity);
            for i in idx {
                out.extend_from_slice(&data[i * arity..(i + 1) * arity]);
            }
            (out.len() / arity, out)
        }
    }
}

impl Relation {
    /// Creates a relation from nested tuple vectors, validating arity and
    /// normalizing (sort + dedup). This is the ergonomic **boundary**
    /// constructor; hot paths should build flat buffers and use
    /// [`Relation::from_row_major`] instead.
    ///
    /// # Panics
    ///
    /// Panics if any tuple's arity differs from `attrs.len()`.
    pub fn new(attrs: AttrSet, tuples: Vec<Vec<u64>>) -> Self {
        let arity = attrs.len();
        let mut data = Vec::with_capacity(tuples.len() * arity);
        for t in &tuples {
            assert_eq!(
                t.len(),
                arity,
                "tuple arity {} does not match schema arity {}",
                t.len(),
                arity
            );
            data.extend_from_slice(t);
        }
        Self::from_row_major(attrs, tuples.len(), data)
    }

    /// Creates a relation from a flat row-major buffer of `rows · arity`
    /// values (row `i` at `data[i·arity..(i+1)·arity]`), normalizing
    /// (sort + dedup) with stride-aware comparison — the zero-per-row-
    /// allocation constructor every operator output goes through.
    ///
    /// For `attrs = ∅` the buffer is empty and `rows` alone distinguishes
    /// `{}` (`rows == 0`) from `{()}` (`rows ≥ 1`).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * attrs.len()`.
    pub fn from_row_major(attrs: AttrSet, rows: usize, data: Vec<u64>) -> Self {
        assert_eq!(
            data.len(),
            rows * attrs.len(),
            "flat buffer length {} does not match {} rows of arity {}",
            data.len(),
            rows,
            attrs.len()
        );
        let (len, data) = normalize(attrs.len(), rows, data);
        Self::from_normalized(attrs, len, data)
    }

    /// Internal constructor for a buffer already sorted and deduplicated.
    fn from_normalized(attrs: AttrSet, len: usize, data: Vec<u64>) -> Self {
        let arity = attrs.len();
        debug_assert_eq!(data.len(), len * arity);
        debug_assert!(
            arity == 0
                || (1..len)
                    .all(|i| data[(i - 1) * arity..i * arity] < data[i * arity..(i + 1) * arity]),
            "not normalized"
        );
        debug_assert!(arity != 0 || len <= 1, "arity-0 relations hold ≤ 1 row");
        Self {
            shared: Arc::new(Shared {
                attrs,
                len,
                data,
                columns: Mutex::default(),
            }),
        }
    }

    /// The empty relation over `attrs` (no tuples).
    pub fn empty(attrs: AttrSet) -> Self {
        Self::from_normalized(attrs, 0, Vec::new())
    }

    /// The join identity: the relation over `∅` holding the single empty
    /// tuple.
    pub fn identity() -> Self {
        Self::from_normalized(AttrSet::empty(), 1, Vec::new())
    }

    /// The relation's attribute set.
    #[inline]
    pub fn attrs(&self) -> &AttrSet {
        &self.shared.attrs
    }

    /// Tuple width — the number of columns, and the stride of the flat
    /// buffer.
    #[inline]
    pub fn arity(&self) -> usize {
        self.shared.attrs.len()
    }

    /// Row `i` as a slice of the flat buffer (column order = sorted
    /// [`AttrSet`] order).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[u64] {
        let (len, arity) = (self.len(), self.arity());
        assert!(i < len, "row {i} out of range ({len} rows)");
        if arity == 0 {
            &[]
        } else {
            &self.data()[i * arity..(i + 1) * arity]
        }
    }

    /// Iterates the normalized rows as `&[u64]` slices — the zero-copy
    /// replacement for the old `&[Vec<u64>]` accessor.
    #[inline]
    pub fn rows(&self) -> Rows<'_> {
        Rows {
            data: self.data(),
            arity: self.arity(),
            front: 0,
            back: self.len(),
        }
    }

    /// The raw flat row-major buffer (`len() · arity()` values, rows
    /// strictly increasing). Useful for bulk transfers into new flat
    /// buffers without per-row indirection.
    #[inline]
    pub fn data(&self) -> &[u64] {
        &self.shared.data
    }

    /// Materializes the rows as nested vectors. **Test/assert boundary
    /// shim only** — one heap allocation per row, exactly what the flat
    /// layout exists to avoid; never call this on an operator or engine
    /// path.
    pub fn to_vecs(&self) -> Vec<Vec<u64>> {
        self.rows().map(<[u64]>::to_vec).collect()
    }

    /// Number of tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.shared.len
    }

    /// Whether the relation holds no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test (`tuple` in column order): a binary search over the
    /// sorted rows.
    pub fn contains(&self, tuple: &[u64]) -> bool {
        if tuple.len() != self.arity() {
            return false; // a tuple of the wrong width is never a member
        }
        if self.arity() == 0 {
            return !self.is_empty();
        }
        let (mut lo, mut hi) = (0usize, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.row(mid).cmp(tuple) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// Positions (column indices) of `attrs` within this relation's columns.
    ///
    /// # Panics
    ///
    /// Panics if some attribute is not part of this relation.
    fn positions_of(&self, attrs: &AttrSet) -> Vec<usize> {
        let mut pos = Vec::with_capacity(attrs.len());
        positions_into(attrs, self.attrs(), &mut pos);
        pos
    }

    /// The flat key column over a nonempty `key ⊆ attrs(self)` (see
    /// [`KeyColumn`]), extracted once and cached — the batched semijoin
    /// executor reads these instead of chasing per-tuple heap pointers.
    /// An empty key has no column: its semijoin needs no key comparison.
    ///
    /// The executor asks both sides of a step for their columns when some
    /// side has [`CACHE_MIN_ROWS`](crate::exec::CACHE_MIN_ROWS) rows or
    /// more. A step between two smaller relations chains both relations'
    /// rows, so neither side derives one.
    pub(crate) fn key_column(&self, key: &AttrSet) -> Arc<KeyColumn> {
        debug_assert!(!key.is_empty(), "an empty key has no column");
        if let Some(col) = lock_cache(&self.shared.columns).get(key) {
            return Arc::clone(col);
        }
        let pos = self.positions_of(key);
        let col = Arc::new(KeyColumn::extract(self, &pos));
        lock_cache(&self.shared.columns)
            .entry(key.clone())
            .or_insert_with(|| Arc::clone(&col))
            .clone()
    }

    /// The relation restricted to the rows a [`SelVec`] selected. Returns a
    /// plain clone when everything survives. Surviving rows are gathered
    /// contiguously (selection order is ascending), so no re-normalization
    /// happens.
    pub(crate) fn gather_selected(&self, sel: &SelVec) -> Relation {
        debug_assert!(sel.len() <= self.len());
        if sel.len() == self.len() {
            return self.clone();
        }
        let mut data = Vec::new();
        kernels::gather_rows(self.data(), self.arity(), sel, &mut data);
        Relation::from_normalized(self.attrs().clone(), sel.len(), data)
    }

    /// Projection `π_X(self)`, via the gather kernel: the column-index map
    /// is computed once, then one pre-sized pass copies each row's
    /// projected columns.
    ///
    /// # Panics
    ///
    /// Panics if `x ⊄ attrs`; the paper always projects onto subsets.
    pub fn project(&self, x: &AttrSet) -> Relation {
        assert!(
            x.is_subset(self.attrs()),
            "projection target must be a subset of the relation schema"
        );
        if x == self.attrs() {
            return self.clone();
        }
        let pos = self.positions_of(x);
        let mut data = Vec::new();
        kernels::gather(self.data(), self.arity(), &pos, &mut data);
        Relation::from_row_major(x.clone(), self.len(), data)
    }

    /// Natural join `self ⋈ other` (a cross product when the schemas are
    /// disjoint): the join-up's bucket-chain join. The smaller side is the
    /// build side, chained on the shared attributes; the other side probes
    /// it in row order, and the output is normalized once. On a tie `self`
    /// probes, so a left-deep `acc.natural_join(r)` whose columns come first
    /// hands over output that is already sorted.
    pub fn natural_join(&self, other: &Relation) -> Relation {
        joinup::join_once(self, other)
    }

    /// Natural semijoin `self ⋉ other = π_self(self ⋈ other)`: a one-step
    /// [`semijoin_program`], so it runs the engines' semijoin kernel — on
    /// both sides' cached key columns when either side has 64 rows or
    /// more, and on the bucket chain over both sides' rows otherwise.
    pub fn semijoin(&self, other: &Relation) -> Relation {
        let schemas = [self.attrs().clone(), other.attrs().clone()];
        let mut rels = [self.clone(), other.clone()];
        semijoin_program(&mut rels, &[SemijoinStep::new(&schemas, 0, 1)]);
        let [filtered, _] = rels;
        filtered
    }

    /// Set union of two relations over the same attribute set, computed as
    /// a sorted merge of the two flat buffers (both inputs are normalized).
    ///
    /// # Panics
    ///
    /// Panics if the attribute sets differ.
    pub fn union(&self, other: &Relation) -> Relation {
        assert_eq!(self.attrs(), other.attrs(), "union requires equal schemas");
        let mut data = Vec::with_capacity((self.len() + other.len()) * self.arity());
        let mut rows = 0usize;
        let mut a = self.rows().peekable();
        let mut b = other.rows().peekable();
        loop {
            let take_a = match (a.peek(), b.peek()) {
                (Some(x), Some(y)) => match x.cmp(y) {
                    std::cmp::Ordering::Less => true,
                    std::cmp::Ordering::Greater => false,
                    std::cmp::Ordering::Equal => {
                        b.next();
                        true
                    }
                },
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let t = if take_a { a.next() } else { b.next() }.expect("peeked");
            data.extend_from_slice(t);
            rows += 1;
        }
        Relation::from_normalized(self.attrs().clone(), rows, data)
    }

    /// Whether `self ⊆ other` as tuple sets (same attribute set required):
    /// one merge over the two sorted buffers.
    pub fn is_subset(&self, other: &Relation) -> bool {
        assert_eq!(
            self.attrs(),
            other.attrs(),
            "comparison requires equal schemas"
        );
        if self.len() > other.len() {
            return false;
        }
        let mut theirs = other.rows();
        self.rows().all(|t| theirs.find(|u| *u >= t) == Some(t))
    }

    /// Renders a small relation as an ASCII table for diagnostics.
    pub fn to_table(&self, cat: &Catalog) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let header: Vec<&str> = self.attrs().iter().map(|a| cat.name(a)).collect();
        writeln!(out, "| {} |", header.join(" | ")).expect("write to string");
        for t in self.rows() {
            let row: Vec<String> = t.iter().map(|v| v.to_string()).collect();
            writeln!(out, "| {} |", row.join(" | ")).expect("write to string");
        }
        out
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Relation({:?}, {} tuples)", self.attrs(), self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::CACHE_MIN_ROWS;

    fn attrs(raw: &[u32]) -> AttrSet {
        AttrSet::from_raw(raw)
    }

    #[test]
    fn a_relation_is_one_pointer() {
        assert_eq!(size_of::<Relation>(), size_of::<usize>());
    }

    #[test]
    fn construction_normalizes() {
        let r = Relation::new(attrs(&[0, 1]), vec![vec![2, 2], vec![1, 1], vec![2, 2]]);
        assert_eq!(r.to_vecs(), vec![vec![1, 1], vec![2, 2]]);
        assert!(r.contains(&[2, 2]));
        assert!(!r.contains(&[3, 3]));
    }

    #[test]
    fn flat_construction_matches_nested() {
        let nested = Relation::new(
            attrs(&[0, 1, 2]),
            vec![vec![3, 1, 2], vec![1, 1, 1], vec![3, 1, 2]],
        );
        let flat = Relation::from_row_major(attrs(&[0, 1, 2]), 3, vec![3, 1, 2, 1, 1, 1, 3, 1, 2]);
        assert_eq!(nested, flat);
        assert_eq!(flat.len(), 2);
        assert_eq!(flat.data(), &[1, 1, 1, 3, 1, 2]);
        assert_eq!(flat.arity(), 3);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        Relation::new(attrs(&[0, 1]), vec![vec![1]]);
    }

    #[test]
    #[should_panic(expected = "flat buffer length")]
    fn flat_length_mismatch_panics() {
        Relation::from_row_major(attrs(&[0, 1]), 2, vec![1, 2, 3]);
    }

    #[test]
    fn rows_iterator_is_exact_and_flat() {
        let r = Relation::new(attrs(&[0, 1]), vec![vec![2, 20], vec![1, 10]]);
        let rows: Vec<&[u64]> = r.rows().collect();
        assert_eq!(rows, vec![&[1u64, 10][..], &[2, 20]]);
        assert_eq!(r.rows().len(), 2);
        assert_eq!(r.row(1), &[2, 20]);
    }

    #[test]
    fn arity_zero_rows() {
        let id = Relation::identity();
        assert_eq!(id.len(), 1);
        assert_eq!(id.rows().collect::<Vec<_>>(), vec![&[] as &[u64]]);
        assert!(id.contains(&[]));
        let nothing = Relation::empty(AttrSet::empty());
        assert_eq!(nothing.rows().count(), 0);
        assert!(!nothing.contains(&[]));
        // Many empty tuples collapse to the identity.
        let collapsed = Relation::new(AttrSet::empty(), vec![vec![], vec![], vec![]]);
        assert_eq!(collapsed, id);
    }

    #[test]
    fn projection_dedups() {
        let r = Relation::new(attrs(&[0, 1]), vec![vec![1, 10], vec![1, 20], vec![2, 10]]);
        let p = r.project(&attrs(&[0]));
        assert_eq!(p.to_vecs(), vec![vec![1], vec![2]]);
    }

    #[test]
    fn projection_onto_empty_set() {
        let r = Relation::new(attrs(&[0]), vec![vec![7]]);
        let p = r.project(&AttrSet::empty());
        assert_eq!(p, Relation::identity());
        let e = Relation::empty(attrs(&[0]));
        assert!(e.project(&AttrSet::empty()).is_empty());
    }

    #[test]
    fn join_on_shared_attribute() {
        let r = Relation::new(attrs(&[0, 1]), vec![vec![1, 10], vec![2, 20]]);
        let s = Relation::new(attrs(&[1, 2]), vec![vec![10, 100], vec![10, 101]]);
        let j = r.natural_join(&s);
        assert_eq!(j.attrs(), &attrs(&[0, 1, 2]));
        assert_eq!(j.to_vecs(), vec![vec![1, 10, 100], vec![1, 10, 101]]);
    }

    #[test]
    fn join_is_commutative() {
        let r = Relation::new(attrs(&[0, 1]), vec![vec![1, 10], vec![2, 20], vec![3, 20]]);
        let s = Relation::new(attrs(&[1, 2]), vec![vec![20, 9], vec![10, 8]]);
        assert_eq!(r.natural_join(&s), s.natural_join(&r));
    }

    #[test]
    fn disjoint_join_is_cross_product() {
        let r = Relation::new(attrs(&[0]), vec![vec![1], vec![2]]);
        let s = Relation::new(attrs(&[1]), vec![vec![10], vec![20]]);
        let j = r.natural_join(&s);
        assert_eq!(j.len(), 4);
    }

    #[test]
    fn join_identities() {
        let r = Relation::new(attrs(&[0]), vec![vec![1], vec![2]]);
        assert_eq!(r.natural_join(&Relation::identity()), r);
        let annihilator = Relation::empty(AttrSet::empty());
        assert!(r.natural_join(&annihilator).is_empty());
    }

    #[test]
    fn self_join_is_idempotent() {
        let r = Relation::new(attrs(&[0, 1]), vec![vec![1, 10], vec![2, 20]]);
        assert_eq!(r.natural_join(&r), r);
    }

    #[test]
    fn semijoin_filters_left_side() {
        let r = Relation::new(attrs(&[0, 1]), vec![vec![1, 10], vec![2, 20]]);
        let s = Relation::new(attrs(&[1, 2]), vec![vec![10, 5]]);
        let sj = r.semijoin(&s);
        assert_eq!(sj.attrs(), r.attrs());
        assert_eq!(sj.to_vecs(), vec![vec![1, 10]]);
        // definition check: R ⋉ S = π_R(R ⋈ S)
        assert_eq!(sj, r.natural_join(&s).project(r.attrs()));
    }

    #[test]
    fn semijoin_with_disjoint_nonempty_relation_is_identity() {
        let r = Relation::new(attrs(&[0]), vec![vec![1]]);
        let s = Relation::new(attrs(&[5]), vec![vec![9]]);
        assert_eq!(r.semijoin(&s), r);
        // An empty key compares nothing, so neither side derives a column.
        assert!(lock_cache(&r.shared.columns).is_empty());
        assert!(lock_cache(&s.shared.columns).is_empty());
        // ... and with an empty disjoint relation it empties out.
        let nothing = Relation::empty(attrs(&[5]));
        assert!(r.semijoin(&nothing).is_empty());
    }

    #[test]
    fn packed_keys_use_a_fixed_shift_per_width() {
        // Width 2 is pack2: the whole u64 range fits.
        assert_eq!(pack_shift(2), 64);
        assert_eq!(pack_key([u64::MAX, 7], 64), Some(pack2(u64::MAX, 7)));
        // Width 3: 42 bits per value, value j at shift 42·(2−j).
        assert_eq!(pack_shift(3), 42);
        let top = (1u64 << 42) - 1;
        assert_eq!(
            pack_key([top, 1, 2], 42),
            Some((top as u128) << 84 | 1 << 42 | 2)
        );
        assert_eq!(pack_key([0, 1 << 42, 0], 42), None, "2^s does not fit");
        // Unchecked, (0, 2^42, 0) would carry into (1, 0, 0): the fit check
        // is what keeps packing injective.
        assert_eq!(pack_key([1, 0, 0], 42), Some(1 << 84));
        assert_eq!(pack_shift(9), 14);
        assert_eq!(pack_key([(1 << 14) - 1; 9], 14), Some((1u128 << 126) - 1));
        assert_eq!(pack_key([1 << 14; 9], 14), None);
    }

    #[test]
    fn key_columns_pack_when_every_value_fits() {
        let key = attrs(&[0, 1, 2]);
        let fit = Relation::new(
            attrs(&[0, 1, 2, 3]),
            vec![vec![1, 2, 3, 4], vec![(1 << 42) - 1, 0, 0, 9]],
        );
        let packed = |t: [u64; 3]| pack_key(t, pack_shift(3)).unwrap();
        let want = [packed([1, 2, 3]), packed([(1 << 42) - 1, 0, 0])];
        assert!(
            matches!(*fit.key_column(&key), KeyColumn::Packed(ref keys) if *keys == want),
            "one packed key per row, in row order"
        );
        let unfit = Relation::new(
            attrs(&[0, 1, 2, 3]),
            vec![vec![1, 2, 3, 4], vec![0, 1 << 42, 0, 9]],
        );
        assert!(matches!(*unfit.key_column(&key), KeyColumn::Unfit));
        // Width 2 always packs, even at u64::MAX.
        let two = Relation::new(attrs(&[0, 1]), vec![vec![u64::MAX, u64::MAX]]);
        assert!(matches!(
            *two.key_column(&attrs(&[0, 1])),
            KeyColumn::Packed(_)
        ));
    }

    #[test]
    fn a_poisoned_relation_cache_recovers() {
        // Both sides are large enough to read their key columns through
        // the cache. S holds every even b of R, and T every even c of S.
        let n = CACHE_MIN_ROWS as u64;
        let r = rows_of(&[0, 1], n, |i| vec![i, 10 * i]);
        let s = rows_of(&[1, 2], n, |i| vec![20 * i, i]);
        let t = rows_of(&[2, 3], n, |i| vec![2 * i, 0]);
        let want = r.semijoin(&s);
        assert_eq!(want.len(), CACHE_MIN_ROWS / 2);
        let panicked = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _held = s.shared.columns.lock().unwrap();
                    panic!("poison the relation cache");
                })
                .join()
                .is_err()
        });
        assert!(panicked && s.shared.columns.is_poisoned());
        assert_eq!(r.semijoin(&s), want, "cached build still served");
        assert_eq!(s.semijoin(&t).len(), CACHE_MIN_ROWS / 2);
        assert!(
            lock_cache(&s.shared.columns).contains_key(&attrs(&[2])),
            "new derivations still cached"
        );
    }

    #[test]
    fn wide_key_join_and_semijoin() {
        // Shared attribute sets of width ≥ 3 exercise the packed wide-key
        // index paths.
        let r = Relation::new(
            attrs(&[0, 1, 2, 3]),
            vec![vec![1, 2, 3, 4], vec![1, 2, 9, 4], vec![5, 6, 7, 8]],
        );
        let s = Relation::new(
            attrs(&[0, 1, 2, 9]),
            vec![vec![1, 2, 3, 0], vec![5, 6, 0, 0]],
        );
        let sj = r.semijoin(&s);
        assert_eq!(sj.to_vecs(), vec![vec![1, 2, 3, 4]]);
        let j = r.natural_join(&s);
        assert_eq!(j.to_vecs(), vec![vec![1, 2, 3, 4, 0]]);
        assert_eq!(sj, j.project(r.attrs()));
    }

    #[test]
    fn union_and_subset() {
        let r = Relation::new(attrs(&[0]), vec![vec![1]]);
        let s = Relation::new(attrs(&[0]), vec![vec![2]]);
        let u = r.union(&s);
        assert_eq!(u.len(), 2);
        assert!(r.is_subset(&u));
        assert!(!u.is_subset(&r));
    }

    #[test]
    fn union_merges_overlapping_sorted_inputs() {
        let r = Relation::new(attrs(&[0, 1]), vec![vec![1, 1], vec![3, 3], vec![5, 5]]);
        let s = Relation::new(attrs(&[0, 1]), vec![vec![2, 2], vec![3, 3], vec![6, 6]]);
        let u = r.union(&s);
        assert_eq!(
            u.to_vecs(),
            vec![vec![1, 1], vec![2, 2], vec![3, 3], vec![5, 5], vec![6, 6]]
        );
        assert_eq!(Relation::identity().union(&Relation::identity()).len(), 1);
    }

    #[test]
    fn clones_share_storage_and_derivation_caches() {
        let r = Relation::new(attrs(&[0, 1]), vec![vec![1, 10], vec![2, 20]]);
        let key = attrs(&[1]);
        let col = r.key_column(&key);
        let clone = r.clone();
        assert!(
            Arc::ptr_eq(&col, &clone.key_column(&key)),
            "clone reuses the build"
        );
        assert_eq!(clone.data(), r.data(), "clones share the flat buffer");
    }

    #[test]
    fn a_clone_taken_before_the_first_derivation_shares_it() {
        // The engines copy a state's relations before any step derives a
        // key column, and rely on the originals keeping what the copies
        // derive.
        let r = Relation::new(attrs(&[0, 1]), vec![vec![1, 10], vec![2, 20]]);
        let key = attrs(&[1]);
        let early = r.clone();
        let col = early.key_column(&key);
        assert!(Arc::ptr_eq(&col, &r.key_column(&key)), "original sees it");
        let later = early.clone();
        assert!(Arc::ptr_eq(&col, &later.key_column(&key)), "so do clones");
        assert!(Arc::ptr_eq(&r.shared, &later.shared));
    }

    /// `n` rows over `attrs`, row `i` being `row(i)`.
    fn rows_of(attrs_raw: &[u32], n: u64, row: impl Fn(u64) -> Vec<u64>) -> Relation {
        Relation::new(attrs(attrs_raw), (0..n).map(row).collect())
    }

    #[test]
    fn a_semijoin_that_drops_nothing_shares_its_input() {
        // The step derives the input's key column on a copy; the result
        // and the input keep it, with the rows, in one `Arc`. Both sides
        // are large enough to cache their key columns.
        let n = CACHE_MIN_ROWS as u64;
        let r = rows_of(&[0, 1], n, |i| vec![i, 10 * i]);
        let s = rows_of(&[1, 2], n, |i| vec![10 * i, i]);
        let key = attrs(&[1]);
        let kept = r.semijoin(&s);
        assert_eq!(kept, r);
        assert!(Arc::ptr_eq(&kept.shared, &r.shared));
        assert!(lock_cache(&r.shared.columns).contains_key(&key));
        assert!(lock_cache(&s.shared.columns).contains_key(&key));
        // A semijoin that drops rows gathers the survivors afresh.
        let fewer = r.semijoin(&Relation::new(attrs(&[1, 2]), vec![vec![10, 5]]));
        assert_eq!(fewer.to_vecs(), vec![vec![1, 10]]);
        assert!(!Arc::ptr_eq(&fewer.shared, &r.shared));
    }

    #[test]
    fn a_semijoin_over_small_relations_caches_no_column() {
        // A step between two relations under CACHE_MIN_ROWS rows chains
        // their rows and caches no column on either; when some side has at
        // least CACHE_MIN_ROWS rows, both cache. Either way the semijoin is
        // the same.
        let key = attrs(&[1]);
        let cached = |rel: &Relation| lock_cache(&rel.shared.columns).contains_key(&key);
        for (r_rows, s_rows) in [
            (CACHE_MIN_ROWS - 1, CACHE_MIN_ROWS - 1),
            (CACHE_MIN_ROWS, CACHE_MIN_ROWS - 1),
            (CACHE_MIN_ROWS - 1, CACHE_MIN_ROWS),
            (CACHE_MIN_ROWS, CACHE_MIN_ROWS),
        ] {
            // S holds every even b of R, so half of R survives.
            let r = rows_of(&[0, 1], r_rows as u64, |i| vec![i, i]);
            let s = rows_of(&[1, 2], s_rows as u64, |i| vec![2 * i, 7]);
            let kept = r.semijoin(&s);
            let want: Vec<Vec<u64>> = r
                .rows()
                .filter(|t| t[1] % 2 == 0)
                .map(<[u64]>::to_vec)
                .collect();
            assert_eq!(kept.to_vecs(), want, "{r_rows} ⋉ {s_rows}");
            let both_small = r_rows.max(s_rows) < CACHE_MIN_ROWS;
            assert_eq!(cached(&r), !both_small, "R in {r_rows} ⋉ {s_rows}");
            assert_eq!(cached(&s), !both_small, "S in {r_rows} ⋉ {s_rows}");
            if both_small {
                assert!(lock_cache(&r.shared.columns).is_empty());
                assert!(lock_cache(&s.shared.columns).is_empty());
            }
        }
    }

    #[test]
    fn equality_ignores_caches() {
        let a = Relation::new(attrs(&[0, 1]), vec![vec![1, 2]]);
        let b = Relation::new(attrs(&[0, 1]), vec![vec![1, 2]]);
        let _ = a.key_column(&attrs(&[0]));
        assert_eq!(a, b);
        assert_eq!(b, a);
    }

    #[test]
    fn cached_build_survives_repeated_semijoins() {
        // The hub is large enough to cache its key column, and its b
        // values are 10, 30, 50, …
        let r = Relation::new(attrs(&[0, 1]), vec![vec![1, 10], vec![2, 20]]);
        let hub = rows_of(&[1, 2], CACHE_MIN_ROWS as u64, |i| vec![10 + 20 * i, i]);
        let key = attrs(&[1]);
        let first = r.semijoin(&hub);
        let col = hub.key_column(&key);
        let second = r.semijoin(&hub); // hits hub's cached key column
        assert_eq!(first, second);
        assert_eq!(first.to_vecs(), vec![vec![1, 10]]);
        assert!(Arc::ptr_eq(&col, &hub.key_column(&key)));
        assert_eq!(lock_cache(&hub.shared.columns).len(), 1);
    }

    #[test]
    fn table_rendering() {
        let mut cat = Catalog::alphabetic();
        let ab = AttrSet::parse("ab", &mut cat).unwrap();
        let r = Relation::new(ab, vec![vec![1, 2]]);
        let t = r.to_table(&cat);
        assert!(t.contains("| a | b |"));
        assert!(t.contains("| 1 | 2 |"));
    }
}
