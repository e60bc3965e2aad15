//! Columnar kernels over the flat row-major buffer, private to the crate.
//!
//! Every kernel works on raw `&[u64]` buffers (stride = arity), is one loop,
//! and never allocates per row:
//!
//! * [`gather`] — **gather projection**: the column-index map is computed
//!   once by the caller, then one pre-sized pass copies each row's
//!   projected columns.
//! * [`gather_pairs`] — join-output assembly: one pass over the matched
//!   `(probe, build)` row pairs, each output row filled from both sides'
//!   column maps.
//! * [`SelVec`] — a reusable **selection vector**: a bitmap of the
//!   surviving rows, one bit per row, resettable in O(1) to "every row"
//!   without writing a word. Its one [`SelVec::retain`] loop drives
//!   semijoin probes: it walks each word's set bits and folds every row's
//!   verdict into the word's new mask (**branchless mask accumulation**),
//!   so the inner loop has no per-row branch, and a dropped row costs
//!   later steps nothing.
//! * [`StampTable`] — generation-stamped direct-map membership for width-1
//!   keys from a small value range: insert is one store, the probe is one
//!   load + compare. The semijoin executor uses it whenever the key range
//!   fits [`StampTable::MAX_RANGE`] and hashes otherwise.
//! * [`gather_rows`] — materializes the rows a [`SelVec`] selected into a
//!   flat buffer, in one loop over the selection (which preserves row
//!   order, so the output is already normalized).
//! * [`sort_dedup_packed`] — normalization support: rows of arity ≥ 3 whose
//!   values fit `arity · bits ≤ 128` are packed into `u64`/`u128` scalars,
//!   sorted as scalars, deduplicated, and unpacked. Genuinely wide values
//!   are handed back for the caller's index-permutation sort.
//! * [`ChainIndex`] — the **bucket chain**, the crate's one structure that
//!   hashes keys and compares them: `head: key → first row` and
//!   `next[row] → the next row with the same key`. Width-1 and width-2 keys
//!   chain on their value; wider keys chain on their hash, and every hit
//!   re-compares the key columns. The join-up's joins and projections and
//!   the semijoin steps whose keys do not pack all chain through it.
//!
//! The kernels are semantically invisible: the operators built on them are
//! held to naive per-row references (see `tests/prop.rs`), and the engine
//! differential suite holds the engines to the definitional engine.

use std::hash::{Hash, Hasher};

use gyo_schema::{FxHashMap, FxHasher};

use crate::relation::pack2;

/// Matched row pairs a join buffers before one [`gather_pairs`] pass:
/// bounds the pair list on huge join outputs.
pub(crate) const PAIR_FLUSH: usize = 1024;

/// **Gather projection**: appends, row-major, the columns `pos` of every
/// row of `data` (stride `arity`) to `out`. `pos` may repeat or reorder
/// columns.
pub(crate) fn gather(data: &[u64], arity: usize, pos: &[usize], out: &mut Vec<u64>) {
    let w = pos.len();
    if w == 0 {
        return;
    }
    let start = out.len();
    out.resize(start + data.len() / arity * w, 0);
    for (d, s) in out[start..]
        .chunks_exact_mut(w)
        .zip(data.chunks_exact(arity))
    {
        for (d, &p) in d.iter_mut().zip(pos) {
            *d = s[p];
        }
    }
}

/// A reusable selection vector: which rows of a relation survive, stored as
/// a bitmap — bit `i % 64` of word `i / 64` is row `i`.
///
/// A reset `SelVec` is **dense**: every row `0..len` is selected and no
/// word is touched, so resetting costs O(1) and writes nothing. The first
/// [`SelVec::retain`] writes the `⌈len/64⌉` full words; every later one
/// rewrites only them. The word buffer is reused across program runs,
/// which is what makes whole-program execution allocation-free after
/// warm-up.
#[derive(Debug, Default)]
pub(crate) struct SelVec {
    /// One bit per row, the last word's bits past the row count clear;
    /// valid when not dense.
    words: Vec<u64>,
    /// Selected count (dense: the row count itself).
    n: usize,
    /// Dense ⇒ selection is exactly `0..n`.
    dense: bool,
}

impl SelVec {
    /// Re-aims the selection at a relation of `len` rows, selecting all of
    /// them. O(1): no word is written.
    pub(crate) fn reset(&mut self, len: usize) {
        self.n = len;
        self.dense = true;
    }

    /// Number of selected rows.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// Whether nothing is selected.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Whether no filtering step has dropped a row yet.
    #[cfg(test)]
    pub(crate) fn is_dense(&self) -> bool {
        self.dense
    }

    /// Calls `f` with each selected row index, ascending.
    #[inline]
    pub(crate) fn for_each(&self, mut f: impl FnMut(usize)) {
        if self.dense {
            (0..self.n).for_each(f);
        } else {
            for (w, &word) in self.words.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    f(w * 64 + bits.trailing_zeros() as usize);
                    bits &= bits - 1;
                }
            }
        }
    }

    /// Drops every row from the selection.
    pub(crate) fn clear(&mut self) {
        self.words.clear();
        self.n = 0;
        self.dense = false;
    }

    /// The semijoin probe kernel: keeps exactly the selected rows `i` with
    /// `keep(i)`. One loop over each word's set bits folds every row's
    /// verdict into the word's new mask, with no branch on the verdict.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        if self.dense {
            self.dense = false;
            self.words.clear();
            self.words.resize(self.n.div_ceil(64), u64::MAX);
            if !self.n.is_multiple_of(64) {
                self.words[self.n / 64] = (1 << (self.n % 64)) - 1;
            }
        }
        let mut n = 0;
        for (w, word) in self.words.iter_mut().enumerate() {
            let (mut bits, mut kept) = (*word, 0u64);
            while bits != 0 {
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                kept |= (keep(w * 64 + b as usize) as u64) << b;
            }
            *word = kept;
            n += kept.count_ones() as usize;
        }
        self.n = n;
    }
}

/// Generation-stamped direct-map membership over width-1 keys from a
/// bounded value range: `contains` is one load + compare — the cheapest key
/// comparison there is, and branch-free inside the probe kernel.
///
/// [`StampTable::begin`] re-arms the table for a new key set in O(1) (bump
/// the generation); the slot buffer grows to the largest range ever seen
/// and is then reused forever — no allocation after warm-up.
#[derive(Debug, Default)]
pub(crate) struct StampTable {
    base: u64,
    stamps: Vec<u32>,
    gen: u32,
}

impl StampTable {
    /// Largest key range (max − min + 1) the table direct-maps; beyond it
    /// callers fall back to hashing. 2²² slots = 16 MiB of `u32` stamps at
    /// the very worst — normally far less, since the buffer only ever grows
    /// to the largest range actually seen.
    pub(crate) const MAX_RANGE: u64 = 1 << 22;

    /// Re-arms the table for keys in `[min, max]`. Returns `false` (table
    /// unusable for this key set) when the range exceeds
    /// [`StampTable::MAX_RANGE`].
    pub(crate) fn begin(&mut self, min: u64, max: u64) -> bool {
        debug_assert!(min <= max);
        // Compare spans before adding 1: `max - min + 1` overflows when the
        // keys straddle the whole u64 range (e.g. 0 and u64::MAX mixed).
        if max - min >= Self::MAX_RANGE {
            return false;
        }
        let range = max - min + 1;
        self.base = min;
        if (self.stamps.len() as u64) < range {
            self.stamps.resize(range as usize, 0);
        }
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            self.stamps.fill(0);
            self.gen = 1;
        }
        true
    }

    /// How many times [`StampTable::begin`] armed the table (wrapping).
    #[cfg(test)]
    pub(crate) fn generation(&self) -> u32 {
        self.gen
    }

    /// Marks `k` present (must lie inside the `begin` range).
    #[inline]
    pub(crate) fn insert(&mut self, k: u64) {
        self.stamps[(k - self.base) as usize] = self.gen;
    }

    /// Whether `k` was inserted since the last `begin`. Keys outside the
    /// armed range are simply absent.
    #[inline]
    pub(crate) fn contains(&self, k: u64) -> bool {
        self.stamps
            .get(k.wrapping_sub(self.base) as usize)
            .is_some_and(|&s| s == self.gen)
    }
}

/// Join-output assembly: materializes one output row per `(probe, build)`
/// row pair. Each `(out_col, src_pos)` entry of `probe_cols`/`build_cols`
/// names one output column and where it reads from on that side.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gather_pairs(
    probe_data: &[u64],
    probe_arity: usize,
    build_data: &[u64],
    build_arity: usize,
    probe_cols: &[(usize, usize)],
    build_cols: &[(usize, usize)],
    pairs: &[(u32, u32)],
    out_arity: usize,
    out: &mut Vec<u64>,
) {
    debug_assert_eq!(probe_cols.len() + build_cols.len(), out_arity);
    if out_arity == 0 {
        return;
    }
    let start = out.len();
    out.resize(start + pairs.len() * out_arity, 0);
    for (row, &(pi, bi)) in out[start..].chunks_exact_mut(out_arity).zip(pairs) {
        let prow = &probe_data[pi as usize * probe_arity..][..probe_arity];
        let brow = &build_data[bi as usize * build_arity..][..build_arity];
        for &(j, p) in probe_cols {
            row[j] = prow[p];
        }
        for &(j, p) in build_cols {
            row[j] = brow[p];
        }
    }
}

/// Materializes the selected rows into `out` (row-major, same stride).
/// Selection order is ascending, so if `data` was normalized the gathered
/// buffer is normalized too.
pub(crate) fn gather_rows(data: &[u64], arity: usize, sel: &SelVec, out: &mut Vec<u64>) {
    out.reserve(sel.len() * arity);
    sel.for_each(|i| out.extend_from_slice(&data[i * arity..(i + 1) * arity]));
}

/// Packs rows into scalar keys and sorts/dedups them, when the values fit:
/// with `bits` = bit width of the largest value, rows pack into `u64`
/// scalars when `arity · bits ≤ 64` and into `u128` when `≤ 128` (each
/// column a fixed `bits`-wide field, first column highest — scalar order =
/// lexicographic row order). Returns the surviving row count and the
/// rebuilt buffer, or gives the buffer back unchanged (`Err`) when the
/// values are too wide to pack — the caller's index-permutation sort is the
/// row-at-a-time fallback for that case.
///
/// Pack, sort, dedup, and unpack are all columnar tight loops; the sort
/// compares machine scalars instead of walking row slices.
pub(crate) fn sort_dedup_packed(
    arity: usize,
    rows: usize,
    mut data: Vec<u64>,
) -> Result<(usize, Vec<u64>), Vec<u64>> {
    debug_assert!(arity >= 2, "arity <= 2 rows already sort as scalars");
    debug_assert_eq!(data.len(), rows * arity);
    let _ = rows;
    let max = data.iter().copied().max().unwrap_or(0);
    let bits = 64 - max.leading_zeros().min(63) as usize; // 1..=64; arity >= 2 keeps every shift below the scalar width

    // One pack/sort/dedup/unpack implementation, instantiated per scalar
    // width so the two width classes cannot drift apart.
    macro_rules! pack_sort_unpack {
        ($scalar:ty) => {{
            let shift = bits;
            let mut packed: Vec<$scalar> = data
                .chunks_exact(arity)
                .map(|row| {
                    row.iter()
                        .fold(0 as $scalar, |acc, &v| (acc << shift) | v as $scalar)
                })
                .collect();
            packed.sort_unstable();
            packed.dedup();
            let kept = packed.len();
            data.clear();
            let mask = ((1 as $scalar) << shift) - 1;
            for &p in &packed {
                let start = data.len();
                data.resize(start + arity, 0);
                let mut p = p;
                for j in (0..arity).rev() {
                    data[start + j] = (p & mask) as u64;
                    p >>= shift;
                }
            }
            Ok((kept, data))
        }};
    }

    if arity * bits <= 64 {
        pack_sort_unpack!(u64)
    } else if arity * bits <= 128 {
        pack_sort_unpack!(u128)
    } else {
        Err(data)
    }
}

/// End of a bucket chain. Row indices are `u32`, so a chained buffer must
/// hold fewer than `u32::MAX` rows.
pub(crate) const NIL: u32 = u32::MAX;

/// A bucket-chain index over one key of a row-major buffer: `head: key →
/// first row` and `next[row] → the next row with the same key`, so linking
/// allocates nothing per key. Width-1 keys chain on their value, width-2
/// keys on [`pack2`], wider keys on their hash: a wide chain may hold rows
/// of other keys, so its users re-compare the key columns on every hit.
///
/// Every head map is reserved for all the rows it may link, so a cold build
/// allocates the same whatever the key count, and a warm one nothing.
#[derive(Debug, Default)]
pub(crate) struct ChainIndex {
    /// Chain heads for width-1 keys.
    head1: FxHashMap<u64, u32>,
    /// Chain heads for packed width-2 keys.
    head2: FxHashMap<u128, u32>,
    /// Chain heads for wider keys, by key hash.
    head_wide: FxHashMap<u64, u32>,
    /// `next[row]`: the next row of `row`'s chain, or [`NIL`]. Only linked
    /// rows are ever read, so a re-aimed index leaves the rest stale.
    next: Vec<u32>,
}

/// FxHash of a wide key, value by value.
#[inline]
fn hash_key(key: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = FxHasher::default();
    key.into_iter().for_each(|v| h.write_u64(v));
    h.finish()
}

/// Empties `head` and makes room for `len` rows in it and in `next`.
fn reset<K: Hash + Eq>(head: &mut FxHashMap<K, u32>, next: &mut Vec<u32>, len: usize) {
    assert!(
        len < NIL as usize,
        "chain: row indices are u32, but the buffer holds {len} rows"
    );
    head.clear();
    head.reserve(len);
    if next.len() < len {
        next.resize(len, NIL);
    }
}

/// Links `row` at the head of `k`'s chain.
#[inline]
fn link<K: Hash + Eq>(head: &mut FxHashMap<K, u32>, next: &mut [u32], k: K, row: usize) {
    next[row] = head.insert(k, row as u32).unwrap_or(NIL);
}

impl ChainIndex {
    /// Re-aims the index at every row of `data` (row-major, `arity` values
    /// per row), chained on the columns `key`. Rows are linked from the last
    /// to the first, so every chain lists its rows in ascending order. A
    /// width-0 key builds nothing: its join is a cross product.
    ///
    /// # Panics
    ///
    /// Panics if the buffer holds `u32::MAX` rows or more.
    pub(crate) fn build(&mut self, data: &[u64], arity: usize, key: &[usize]) {
        if key.is_empty() {
            return;
        }
        // A nonempty key has columns, so `arity ≥ 1`.
        let len = data.len() / arity;
        let rows = data.chunks_exact(arity).enumerate().rev();
        let next = &mut self.next;
        match *key {
            [p] => {
                reset(&mut self.head1, next, len);
                rows.for_each(|(i, r)| link(&mut self.head1, next, r[p], i));
            }
            [p, q] => {
                reset(&mut self.head2, next, len);
                rows.for_each(|(i, r)| link(&mut self.head2, next, pack2(r[p], r[q]), i));
            }
            _ => {
                self.begin_wide(len);
                rows.for_each(|(i, r)| self.link_wide(key.iter().map(|&p| r[p]), i));
            }
        }
    }

    /// Re-aims the wide chains at a buffer of `len` rows, none linked yet.
    pub(crate) fn begin_wide(&mut self, len: usize) {
        reset(&mut self.head_wide, &mut self.next, len);
    }

    /// Links `row` at the head of the wide chain of `key`'s hash.
    #[inline]
    pub(crate) fn link_wide(&mut self, key: impl IntoIterator<Item = u64>, row: usize) {
        link(&mut self.head_wide, &mut self.next, hash_key(key), row);
    }

    /// The rows chained under the width-1 key `k`.
    #[inline]
    pub(crate) fn rows1(&self, k: u64) -> ChainRows<'_> {
        self.walk(self.head1.get(&k))
    }

    /// The rows chained under the packed width-2 key `k`.
    #[inline]
    pub(crate) fn rows2(&self, k: u128) -> ChainRows<'_> {
        self.walk(self.head2.get(&k))
    }

    /// The rows chained under `key`'s hash: every linked row whose key
    /// equals `key`, and perhaps rows of other keys.
    #[inline]
    pub(crate) fn rows_wide(&self, key: impl IntoIterator<Item = u64>) -> ChainRows<'_> {
        self.walk(self.head_wide.get(&hash_key(key)))
    }

    #[inline]
    fn walk(&self, head: Option<&u32>) -> ChainRows<'_> {
        ChainRows {
            next: &self.next,
            at: head.copied().unwrap_or(NIL),
        }
    }
}

/// The rows of one bucket chain, in chain order (see [`ChainIndex`]).
pub(crate) struct ChainRows<'a> {
    next: &'a [u32],
    at: u32,
}

impl Iterator for ChainRows<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        let row = self.at;
        if row == NIL {
            return None;
        }
        self.at = self.next[row as usize];
        Some(row as usize)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;

    use super::*;

    #[test]
    fn gather_contiguous_and_scattered() {
        // 3 rows of arity 4
        let data: Vec<u64> = vec![0, 1, 2, 3, 10, 11, 12, 13, 20, 21, 22, 23];
        let mut out = Vec::new();
        gather(&data, 4, &[1, 2], &mut out); // contiguous window
        assert_eq!(out, vec![1, 2, 11, 12, 21, 22]);
        out.clear();
        gather(&data, 4, &[3, 0], &mut out); // scattered + reordered
        assert_eq!(out, vec![3, 0, 13, 10, 23, 20]);
        out.clear();
        gather(&data, 4, &[0, 1, 2, 3], &mut out); // identity
        assert_eq!(out, data);
        out.clear();
        gather(&data, 4, &[2, 2], &mut out); // repeated
        assert_eq!(out, vec![2, 2, 12, 12, 22, 22]);
        gather(&data, 4, &[], &mut out); // empty projection appends nothing
        assert_eq!(out, vec![2, 2, 12, 12, 22, 22]);
    }

    #[test]
    fn gather_blocked_matches_per_row() {
        // Many rows of arity 5, against a per-row reference; `gather`
        // appends to what `out` already holds.
        let (rows, arity) = (300, 5);
        let data: Vec<u64> = (0..rows * arity).map(|i| (i * 7 % 1000) as u64).collect();
        let cases: [&[usize]; 5] = [
            &[1, 2, 3],
            &[0, 1, 2, 3, 4],
            &[0, 2, 4],
            &[4, 0, 2],
            &[3, 3, 1, 3],
        ];
        for pos in cases {
            let mut out = vec![42];
            gather(&data, arity, pos, &mut out);
            let expect: Vec<u64> = std::iter::once(42)
                .chain(
                    data.chunks_exact(arity)
                        .flat_map(|row| pos.iter().map(|&p| row[p])),
                )
                .collect();
            assert_eq!(out, expect, "{pos:?}");
        }
    }

    /// A selection over `len` rows with every row selected.
    fn full(len: usize) -> SelVec {
        let mut sel = SelVec::default();
        sel.reset(len);
        sel
    }

    fn selected(sel: &SelVec) -> Vec<usize> {
        let mut got = Vec::new();
        sel.for_each(|i| got.push(i));
        got
    }

    #[test]
    fn selvec_dense_then_sparse_retain() {
        let keys: Vec<u64> = (0..200).map(|i| i % 10).collect();
        let mut sel = full(200);
        assert!(sel.is_dense());
        sel.retain(|i| keys[i] < 5);
        assert_eq!(sel.len(), 100);
        assert!(!sel.is_dense());
        let got = selected(&sel);
        assert_eq!(&got[..6], &[0, 1, 2, 3, 4, 10]);
        // Second (sparse) retain narrows further.
        sel.retain(|i| keys[i] == 3);
        assert_eq!(sel.len(), 20);
        let got = selected(&sel);
        assert_eq!(&got[..2], &[3, 13]);
        assert!(got.windows(2).all(|w| w[0] < w[1]), "ascending");
        assert!(got.iter().all(|&i| keys[i] == 3));
    }

    #[test]
    fn selvec_reset_reuses_buffers() {
        let keys: Vec<u64> = (0..100).collect();
        let mut sel = full(100);
        sel.retain(|i| keys[i].is_multiple_of(2));
        assert_eq!(sel.len(), 50);
        assert_eq!(selected(&sel)[..2], [0, 2]);
        sel.clear();
        assert!(selected(&sel).is_empty(), "clear drops every row");
        sel.reset(80);
        assert!(sel.is_dense());
        assert_eq!(sel.len(), 80);
        assert_eq!(selected(&sel), (0..80).collect::<Vec<_>>());
        // A sparse retain after the reset sees all 80 rows again.
        sel.retain(|i| keys[i] >= 78);
        assert_eq!(selected(&sel), vec![78, 79]);
        sel.clear();
        assert!(sel.is_empty());
        assert!(selected(&sel).is_empty());
    }

    #[test]
    fn selvec_chunk_boundaries() {
        // Lengths straddling the 64-row bitmap word boundary.
        for len in [0usize, 1, 63, 64, 65, 127, 128, 129] {
            let keys: Vec<u64> = (0..len as u64).collect();
            let mut sel = full(len);
            sel.retain(|i| !keys[i].is_multiple_of(3));
            let expect: Vec<usize> = (0..len).filter(|i| i % 3 != 0).collect();
            let mut got = Vec::new();
            sel.for_each(|i| got.push(i));
            assert_eq!(got, expect, "len {len}");
        }
    }

    /// A mixed `u64` per row and salt, for reproducible random verdicts.
    fn mix(salt: u64, i: usize) -> u64 {
        let mut h = (salt ^ i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 31;
        h.wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 32
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A `SelVec` behaves as a `BTreeSet` of row indices under random
        /// sequences of `retain`, `clear` and `reset`, at row counts that
        /// end inside a word and on a word boundary: `retain` asks about
        /// exactly the selected rows, ascending, and `for_each`, `len`,
        /// `is_empty` and `gather_rows` all report the set.
        #[test]
        fn selvec_matches_a_btreeset(
            len in 0usize..=300,
            ops in proptest::collection::vec((0u8..8, any::<u64>()), 0..16),
        ) {
            let lens = [63, 64, 65, 128, 129, len];
            let data: Vec<u64> = (0..300u64).flat_map(|i| [i, 7 * i]).collect();
            for start in lens {
                let mut sel = SelVec::default();
                sel.reset(start);
                let mut model: BTreeSet<usize> = (0..start).collect();
                for &(kind, salt) in &ops {
                    match kind {
                        0..=5 => {
                            // Keeps none, a quarter, half, three quarters or all.
                            let keep = |i: usize| mix(salt, i) % 4 < salt % 5;
                            let mut asked = Vec::new();
                            sel.retain(|i| {
                                asked.push(i);
                                keep(i)
                            });
                            prop_assert!(
                                asked.iter().eq(&model),
                                "retain asks about exactly the selected rows"
                            );
                            model.retain(|&i| keep(i));
                        }
                        6 => {
                            sel.clear();
                            model.clear();
                        }
                        _ => {
                            let n = lens[salt as usize % lens.len()];
                            sel.reset(n);
                            model = (0..n).collect();
                        }
                    }
                    let want: Vec<usize> = model.iter().copied().collect();
                    prop_assert_eq!(selected(&sel), want);
                    prop_assert_eq!(sel.len(), model.len());
                    prop_assert_eq!(sel.is_empty(), model.is_empty());
                    let mut out = vec![9];
                    gather_rows(&data, 2, &sel, &mut out);
                    let rows = model.iter().flat_map(|&i| [i as u64, 7 * i as u64]);
                    prop_assert_eq!(out, std::iter::once(9).chain(rows).collect::<Vec<_>>());
                }
            }
        }
    }

    #[test]
    fn stamp_table_membership_and_rearm() {
        let mut t = StampTable::default();
        assert!(t.begin(100, 200));
        t.insert(100);
        t.insert(150);
        assert!(t.contains(100) && t.contains(150));
        assert!(!t.contains(101) && !t.contains(99) && !t.contains(201));
        assert!(!t.contains(0) && !t.contains(u64::MAX));
        // Re-arm invalidates everything in O(1).
        assert!(t.begin(100, 120));
        assert!(!t.contains(100));
        // Oversized ranges are declined.
        assert!(!t.begin(0, StampTable::MAX_RANGE + 5));
    }

    #[test]
    fn gather_rows_dense_and_sparse() {
        let data: Vec<u64> = vec![1, 2, 3, 4, 5, 6];
        let mut sel = full(3);
        let mut out = Vec::new();
        gather_rows(&data, 2, &sel, &mut out);
        assert_eq!(out, data);
        sel.retain(|i| [9, 7, 9][i] == 9);
        out.clear();
        gather_rows(&data, 2, &sel, &mut out);
        assert_eq!(out, vec![1, 2, 5, 6]);
    }

    #[test]
    fn packed_sort_matches_permutation_semantics() {
        // arity 3, small values: packs into u64.
        let data = vec![2, 1, 1, 0, 5, 5, 2, 1, 1, 0, 5, 5, 1, 0, 0];
        let (kept, out) = sort_dedup_packed(3, 5, data).expect("fits u64");
        assert_eq!(kept, 3);
        assert_eq!(out, vec![0, 5, 5, 1, 0, 0, 2, 1, 1]);
        // Values forcing the u128 path (bits ~ 40, arity 3).
        let big = 1u64 << 39;
        let data = vec![big, 0, 1, 0, big, 2, 0, big, 2];
        let (kept, out) = sort_dedup_packed(3, 3, data).expect("fits u128");
        assert_eq!(kept, 2);
        assert_eq!(out, vec![0, big, 2, big, 0, 1]);
        // Genuinely too wide: handed back unchanged.
        let data = vec![u64::MAX, 1, 2, 0, 1, 2];
        assert!(sort_dedup_packed(3, 2, data.clone()).is_err());
    }

    #[test]
    fn packed_sort_zero_values() {
        let (kept, out) = sort_dedup_packed(4, 3, vec![0u64; 12]).expect("all zero");
        assert_eq!((kept, out), (1, vec![0, 0, 0, 0]));
    }

    #[test]
    fn chains_visit_each_keys_rows_in_ascending_order() {
        // 40 rows over (a, b, c, d); the keys repeat with periods 3, 5, 7.
        let data: Vec<u64> = (0..40u64).flat_map(|i| [i % 3, i % 5, i % 7, i]).collect();
        let mut chain = ChainIndex::default();
        for key in [vec![1], vec![0, 2], vec![0, 1, 2]] {
            chain.build(&data, 4, &key);
            for (i, row) in data.chunks_exact(4).enumerate() {
                let vals = key.iter().map(|&p| row[p]);
                let got: Vec<usize> = match *key {
                    [p] => chain.rows1(row[p]).collect(),
                    [p, q] => chain.rows2(pack2(row[p], row[q])).collect(),
                    _ => chain.rows_wide(vals.clone()).collect(),
                };
                let want: Vec<usize> = (0..40)
                    .filter(|&j| key.iter().map(|&p| data[j * 4 + p]).eq(vals.clone()))
                    .collect();
                assert_eq!(got, want, "key {key:?}, row {i}");
            }
        }
    }
}
