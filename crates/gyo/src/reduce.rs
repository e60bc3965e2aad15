//! The GYO reduction engine (§3.3).
//!
//! Given a database schema `D` and a *sacred* attribute set `X ⊆ U(D)`, the
//! GYO reduction repeatedly applies two operations until neither applies:
//!
//! 1. **Isolated attribute deletion** — delete an attribute `A ∉ X` that
//!    belongs to exactly one relation schema of `D`;
//! 2. **Subset elimination** — delete a relation schema contained in another
//!    relation schema (equal schemas count; one copy of a duplicate pair may
//!    be deleted).
//!
//! Any maximal sequence yields the same result `GR(D, X)` (Maier & Ullman
//! \[16\]); the result is reduced. Both operations preserve schema type
//! (tree/cyclic), which yields the classical decision procedure: `D` is a
//! tree schema iff `GR(D, ∅)` collapses to the single empty relation schema
//! (Corollary 3.1).
//!
//! [`gyo_reduce`] runs the incremental engine on dense attribute bitsets
//! (see its docs for the layout, the cost and the lowest-index witness
//! rule); [`gyo_reduce_naive`] is the fixpoint oracle it is tested against.

use gyo_schema::{AttrId, AttrSet, DbSchema};

/// One GYO operation, recorded against *original* relation indices of the
/// input schema (indices never shift as relations are eliminated).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GyoStep {
    /// Deleted attribute `attr` from relation `rel`, where it was isolated
    /// (appeared in no other surviving relation) and not sacred.
    DeleteAttr {
        /// The deleted attribute.
        attr: AttrId,
        /// Original index of the relation it was deleted from.
        rel: usize,
    },
    /// Eliminated relation `removed` because (its current value) was a
    /// subset of relation `witness`'s current value.
    RemoveSubset {
        /// Original index of the eliminated relation.
        removed: usize,
        /// Original index of the containing relation.
        witness: usize,
    },
}

/// The outcome of a GYO reduction: the reduced schema, the surviving
/// original indices, and the full operation trace.
#[derive(Clone, Debug)]
pub struct Reduction {
    /// `GR(D, X)` — surviving relation schemas with deleted attributes
    /// removed, in original multiset order.
    pub result: DbSchema,
    /// Original indices of the surviving relations (parallel to
    /// `result.rels()`).
    pub survivors: Vec<usize>,
    /// Operations applied, in order.
    pub trace: Vec<GyoStep>,
}

impl Reduction {
    /// Whether the reduction ran to the single empty relation schema — the
    /// Corollary 3.1 criterion for tree schemas (an empty input schema also
    /// counts).
    pub fn is_total(&self) -> bool {
        self.result.is_empty() || (self.result.len() == 1 && self.result.rel(0).is_empty())
    }

    /// The `(removed, witness)` pair of every subset elimination, in trace
    /// order. For a total reduction these are the edges of a join tree
    /// (Theorem 3.1, [`join_tree_from_trace`](crate::join_tree_from_trace)).
    pub fn elimination_edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.trace.iter().filter_map(|s| match *s {
            GyoStep::RemoveSubset { removed, witness } => Some((removed, witness)),
            GyoStep::DeleteAttr { .. } => None,
        })
    }

    /// Pretty-prints the operation trace, one step per line, in the
    /// vocabulary of §3.3 (attribute names resolved through `cat`).
    pub fn display(&self, cat: &gyo_schema::Catalog) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for step in &self.trace {
            match *step {
                GyoStep::DeleteAttr { attr, rel } => writeln!(
                    out,
                    "delete isolated attribute {} from R{rel}",
                    cat.name(attr)
                ),
                GyoStep::RemoveSubset { removed, witness } => {
                    writeln!(out, "eliminate R{removed} (⊆ R{witness})")
                }
            }
            .expect("write to string");
        }
        write!(out, "result: {}", self.result.to_notation(cat)).expect("write to string");
        out
    }
}

/// Tree vs cyclic — the paper's fundamental dichotomy (§3.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SchemaKind {
    /// Some qual graph for the schema is a tree ("α-acyclic" in the wider
    /// literature).
    Tree,
    /// No qual graph for the schema is a tree.
    Cyclic,
}

/// Computes `GR(D, X)` with the incremental engine.
///
/// `U(D)` is numbered densely (one sort of the `Σ|R|` attribute
/// occurrences), and each relation becomes a bitset over those numbers: the
/// nonzero words of its `⌈|U(D)|/64⌉`-word bitset, which is all of them
/// when `|U(D)| ≤ 64`, so memory stays `O(Σ|R|)` on long chains too. One
/// holder list per attribute, built once, and one count of its alive
/// holders make isolated-attribute deletion a counter test. A relation is
/// re-checked only when it shrinks or one of its attributes drops to a sole
/// holder; subset elimination then probes only the alive holders of its
/// rarest attribute, word by word. That is `O(Σ|R| · log Σ|R|)` to set up
/// plus `O(w)` per subset probe, for relations of at most `w` words, with
/// no hashing.
///
/// **Witness rule:** a subset elimination records the *lowest-index* alive
/// relation that contains the eliminated one. Relations are re-checked in a
/// fixed order too, so the trace, and every join tree built from it, is a
/// function of the relation list alone.
///
/// # Examples
///
/// ```
/// use gyo_schema::{Catalog, DbSchema, AttrSet};
/// use gyo_reduce::gyo_reduce;
///
/// let mut cat = Catalog::alphabetic();
/// let d = DbSchema::parse("ab, bc, cd", &mut cat).unwrap();
/// let red = gyo_reduce(&d, &AttrSet::empty());
/// assert!(red.is_total()); // chains are tree schemas
///
/// let ring = DbSchema::parse("ab, bc, cd, da", &mut cat).unwrap();
/// assert!(!gyo_reduce(&ring, &AttrSet::empty()).is_total());
/// ```
pub fn gyo_reduce(d: &DbSchema, x: &AttrSet) -> Reduction {
    Engine::new(d, x).run(d)
}

/// Computes just the reduced schema `GR(D, X)`.
pub fn gr(d: &DbSchema, x: &AttrSet) -> DbSchema {
    gyo_reduce(d, x).result
}

/// A deliberately simple fixpoint engine: scan for the first applicable
/// operation, apply it, repeat. `O(n³·w)` worst case; retained as the test
/// oracle for the incremental engine (both must agree — GR is unique).
pub fn gyo_reduce_naive(d: &DbSchema, x: &AttrSet) -> Reduction {
    let mut rels: Vec<AttrSet> = d.iter().cloned().collect();
    let mut alive: Vec<bool> = vec![true; rels.len()];
    let mut trace = Vec::new();
    loop {
        let mut progressed = false;
        // Operation (1): isolated attribute deletion.
        'attrs: for i in 0..rels.len() {
            if !alive[i] {
                continue;
            }
            for a in rels[i].clone().iter() {
                if x.contains(a) {
                    continue;
                }
                let occurrences = rels
                    .iter()
                    .zip(&alive)
                    .filter(|(r, &al)| al && r.contains(a))
                    .count();
                if occurrences == 1 {
                    rels[i].remove(a);
                    trace.push(GyoStep::DeleteAttr { attr: a, rel: i });
                    progressed = true;
                    break 'attrs;
                }
            }
        }
        if progressed {
            continue;
        }
        // Operation (2): subset elimination.
        'subsets: for i in 0..rels.len() {
            if !alive[i] {
                continue;
            }
            for j in 0..rels.len() {
                if i == j || !alive[j] {
                    continue;
                }
                let removable = rels[i].is_subset(&rels[j]) && (rels[i] != rels[j] || i > j);
                if removable {
                    alive[i] = false;
                    trace.push(GyoStep::RemoveSubset {
                        removed: i,
                        witness: j,
                    });
                    progressed = true;
                    break 'subsets;
                }
            }
        }
        if !progressed {
            break;
        }
    }
    let survivors: Vec<usize> = (0..rels.len()).filter(|&i| alive[i]).collect();
    Reduction {
        result: DbSchema::new(survivors.iter().map(|&i| rels[i].clone()).collect()),
        survivors,
        trace,
    }
}

/// Decides whether `D` is a tree schema (Corollary 3.1: `D` is a tree schema
/// iff the unrestricted GYO reduction is total).
pub fn is_tree_schema(d: &DbSchema) -> bool {
    gyo_reduce(d, &AttrSet::empty()).is_total()
}

/// Classifies `D` as [`SchemaKind::Tree`] or [`SchemaKind::Cyclic`].
pub fn classify(d: &DbSchema) -> SchemaKind {
    if is_tree_schema(d) {
        SchemaKind::Tree
    } else {
        SchemaKind::Cyclic
    }
}

/// `U(GR(D))` — by Corollary 3.2 the relation schema of least cardinality
/// whose addition to `D` makes it a tree schema. For a tree schema this is
/// the empty set (adding `∅` changes nothing relevant).
pub fn treeifying_relation(d: &DbSchema) -> AttrSet {
    gr(d, &AttrSet::empty()).attributes()
}

// ---------------------------------------------------------------------------
// Incremental engine
// ---------------------------------------------------------------------------

/// One nonzero word of a relation's attribute bitset: dense attribute `a`
/// is bit `a % 64` of the word with `index == a / 64`.
#[derive(Clone, Copy)]
struct Word {
    index: u32,
    bits: u64,
}

/// Relation flags: still in the schema, and queued for a re-check.
const ALIVE: u8 = 1;
const DIRTY: u8 = 2;

struct Engine {
    /// Every attribute occurrence as `(id << 32) | relation`, sorted. Runs
    /// of equal ids number `U(D)` densely; run `a` lists the holders of
    /// dense attribute `a` in ascending relation order.
    holders: Vec<u64>,
    /// Run `a` is `holders[start[a]..start[a + 1]]`.
    start: Vec<u32>,
    /// Alive holders per dense attribute; `0` once the attribute is deleted.
    count: Vec<u32>,
    /// Relation `i`'s bitset is `words[row[i]..row[i + 1]]`, ascending
    /// `index`, fixed at construction (bits only ever get cleared).
    row: Vec<u32>,
    words: Vec<Word>,
    /// Current size of each relation.
    len: Vec<u32>,
    flags: Vec<u8>,
    alive_count: usize,
    /// Sacred dense attributes, as a plain `⌈k/64⌉`-word bitset.
    sacred: Vec<u64>,
    /// Relations whose content changed and must be re-checked (a stack).
    dirty: Vec<u32>,
    trace: Vec<GyoStep>,
}

/// The set bits of `words`, as dense attribute numbers, ascending.
fn bits_of(words: &[Word]) -> impl Iterator<Item = usize> + '_ {
    words.iter().flat_map(|w| {
        let base = w.index as usize * 64;
        let mut m = w.bits;
        std::iter::from_fn(move || {
            (m != 0).then(|| {
                let b = m.trailing_zeros() as usize;
                m &= m - 1;
                base + b
            })
        })
    })
}

/// Whether `a ⊆ b`, word by word; both are ascending by `index`.
fn words_subset(a: &[Word], b: &[Word]) -> bool {
    let mut q = 0;
    for w in a.iter().filter(|w| w.bits != 0) {
        while q < b.len() && b[q].index < w.index {
            q += 1;
        }
        if q == b.len() || b[q].index != w.index || w.bits & !b[q].bits != 0 {
            return false;
        }
    }
    true
}

impl Engine {
    fn new(d: &DbSchema, sacred: &AttrSet) -> Self {
        let n = d.len();
        let u32_of = |i: usize| {
            u32::try_from(i)
                .expect("GYO reduction: 2^32 or more relations or attribute occurrences")
        };
        let total: usize = d.iter().map(AttrSet::len).sum();
        let mut holders: Vec<u64> = Vec::with_capacity(total);
        for (i, r) in d.iter().enumerate() {
            let i = u64::from(u32_of(i));
            holders.extend(r.iter().map(|a| (u64::from(a.0) << 32) | i));
        }
        holders.sort_unstable();
        let mut start: Vec<u32> = Vec::with_capacity(total + 1);
        for (p, &o) in holders.iter().enumerate() {
            if p == 0 || o >> 32 != holders[p - 1] >> 32 {
                start.push(u32_of(p));
            }
        }
        start.push(u32_of(total));
        let count: Vec<u32> = start.windows(2).map(|s| s[1] - s[0]).collect();
        let mut engine = Engine {
            holders,
            start,
            count,
            row: Vec::with_capacity(n + 1),
            words: Vec::with_capacity(total),
            len: Vec::with_capacity(n),
            flags: vec![ALIVE | DIRTY; n],
            alive_count: n,
            sacred: Vec::new(),
            dirty: (0..n).map(u32_of).collect(),
            trace: Vec::with_capacity(total + n),
        };
        // Each relation's attributes are ascending, and so are their dense
        // numbers: consecutive numbers in one word share one `Word`.
        for r in d.iter() {
            let first = engine.words.len();
            engine.row.push(u32_of(first));
            engine.len.push(u32_of(r.len()));
            for id in r.iter() {
                let a = engine.dense(id);
                let (index, bit) = ((a / 64) as u32, 1u64 << (a % 64));
                match engine.words[first..].last_mut() {
                    Some(w) if w.index == index => w.bits |= bit,
                    _ => engine.words.push(Word { index, bits: bit }),
                }
            }
        }
        engine.row.push(u32_of(engine.words.len()));
        let mut sacred_bits = vec![0u64; engine.count.len().div_ceil(64)];
        for a in sacred.iter() {
            if let Some(a) = engine.try_dense(a) {
                sacred_bits[a / 64] |= 1 << (a % 64);
            }
        }
        engine.sacred = sacred_bits;
        engine
    }

    /// The attribute id of dense attribute `a`.
    fn id(&self, a: usize) -> AttrId {
        AttrId((self.holders[self.start[a] as usize] >> 32) as u32)
    }

    /// The dense number of `id`, if some relation holds it.
    fn try_dense(&self, id: AttrId) -> Option<usize> {
        let k = self.count.len();
        let a =
            self.start[..k].partition_point(|&s| ((self.holders[s as usize] >> 32) as u32) < id.0);
        (a < k && self.id(a) == id).then_some(a)
    }

    fn dense(&self, id: AttrId) -> usize {
        self.try_dense(id)
            .expect("every attribute of D is numbered")
    }

    fn rel_words(&self, i: usize) -> &[Word] {
        &self.words[self.row[i] as usize..self.row[i + 1] as usize]
    }

    /// The alive relations holding dense attribute `a`, ascending.
    fn alive_holders(&self, a: usize) -> impl Iterator<Item = usize> + '_ {
        self.holders[self.start[a] as usize..self.start[a + 1] as usize]
            .iter()
            .map(|&o| o as u32 as usize)
            .filter(|&j| self.flags[j] & ALIVE != 0)
    }

    fn mark_dirty(&mut self, i: usize) {
        if self.flags[i] == ALIVE {
            self.flags[i] |= DIRTY;
            self.dirty.push(i as u32);
        }
    }

    /// Deletes every currently-isolated non-sacred attribute of relation
    /// `i`, ascending; returns whether any was deleted.
    fn delete_isolated(&mut self, i: usize) -> bool {
        let before = self.trace.len();
        for p in self.row[i] as usize..self.row[i + 1] as usize {
            let Word { index, bits } = self.words[p];
            let mut m = bits & !self.sacred[index as usize];
            while m != 0 {
                let b = m.trailing_zeros() as usize;
                m &= m - 1;
                let a = index as usize * 64 + b;
                if self.count[a] == 1 {
                    self.words[p].bits &= !(1 << b);
                    self.count[a] = 0;
                    self.len[i] -= 1;
                    self.trace.push(GyoStep::DeleteAttr {
                        attr: self.id(a),
                        rel: i,
                    });
                }
            }
        }
        self.trace.len() != before
    }

    /// The lowest-index alive `j ≠ i` with `rels[i] ⊆ rels[j]`. Every such
    /// `j` holds the rarest attribute of `i`, so only that attribute's
    /// holders are probed, in ascending order. An empty relation takes the
    /// lowest-index other alive relation.
    fn find_witness(&self, i: usize) -> Option<usize> {
        let mine = self.rel_words(i);
        let Some(rarest) = bits_of(mine).min_by_key(|&a| self.count[a]) else {
            return (0..self.flags.len()).find(|&j| j != i && self.flags[j] & ALIVE != 0);
        };
        self.alive_holders(rarest).find(|&j| {
            j != i && self.len[j] >= self.len[i] && words_subset(mine, self.rel_words(j))
        })
    }

    fn remove_rel(&mut self, i: usize, witness: usize) {
        self.flags[i] &= !ALIVE;
        self.alive_count -= 1;
        self.trace.push(GyoStep::RemoveSubset {
            removed: i,
            witness,
        });
        for p in self.row[i] as usize..self.row[i + 1] as usize {
            let Word { index, mut bits } = self.words[p];
            while bits != 0 {
                let a = index as usize * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.count[a] -= 1;
                if self.count[a] == 1 {
                    // The attribute may have become isolated in its sole
                    // remaining holder.
                    let sole = self.alive_holders(a).next().expect("count is 1");
                    self.mark_dirty(sole);
                }
            }
        }
    }

    fn run(mut self, d: &DbSchema) -> Reduction {
        while let Some(i) = self.dirty.pop() {
            let i = i as usize;
            self.flags[i] &= !DIRTY;
            if self.flags[i] & ALIVE == 0 {
                continue;
            }
            if self.delete_isolated(i) {
                // A shrunken relation may now be a subset of a neighbor, and
                // *it* is the only relation whose subset status changed.
                self.mark_dirty(i);
            }
            if self.alive_count > 1 {
                if let Some(w) = self.find_witness(i) {
                    // The witness did not change, but relations that shared
                    // attributes with `i` may now hold isolated attributes;
                    // remove_rel marks exactly those.
                    self.remove_rel(i, w);
                }
            }
        }
        debug_assert!(self.fixpoint_reached());
        let survivors: Vec<usize> = (0..d.len())
            .filter(|&i| self.flags[i] & ALIVE != 0)
            .collect();
        let result = survivors
            .iter()
            .map(|&i| {
                if self.len[i] as usize == d.rel(i).len() {
                    d.rel(i).clone()
                } else {
                    AttrSet::from_iter(bits_of(self.rel_words(i)).map(|a| self.id(a)))
                }
            })
            .collect();
        Reduction {
            result: DbSchema::new(result),
            survivors,
            trace: self.trace,
        }
    }

    /// Debug check: no operation applies any more.
    fn fixpoint_reached(&self) -> bool {
        let n = self.flags.len();
        let alive = |j: usize| self.flags[j] & ALIVE != 0;
        (0..n).filter(|&i| alive(i)).all(|i| {
            let mine = self.rel_words(i);
            let isolated = bits_of(mine).any(|a| {
                self.sacred[a / 64] >> (a % 64) & 1 == 0 && self.alive_holders(a).count() == 1
            });
            let covered =
                (0..n).any(|j| j != i && alive(j) && words_subset(mine, self.rel_words(j)));
            !isolated && !covered
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gyo_schema::Catalog;

    fn db(s: &str) -> (DbSchema, Catalog) {
        let mut cat = Catalog::alphabetic();
        let d = DbSchema::parse(s, &mut cat).unwrap();
        (d, cat)
    }

    fn set(s: &str, cat: &mut Catalog) -> AttrSet {
        AttrSet::parse(s, cat).unwrap()
    }

    #[test]
    fn fig1_classifications() {
        // Fig. 1 of the paper.
        assert_eq!(classify(&db("ab, bc, cd").0), SchemaKind::Tree);
        assert_eq!(classify(&db("ab, bc, ac").0), SchemaKind::Cyclic);
        assert_eq!(classify(&db("abc, cde, ace, afe").0), SchemaKind::Tree);
    }

    #[test]
    fn fig2_aring_and_aclique_are_cyclic() {
        // Fig. 2a and 2b.
        assert_eq!(classify(&db("ab, bc, cd, da").0), SchemaKind::Cyclic);
        assert_eq!(classify(&db("bcd, acd, abd, abc").0), SchemaKind::Cyclic);
    }

    #[test]
    fn empty_and_trivial_schemas_are_trees() {
        assert!(is_tree_schema(&DbSchema::empty()));
        assert!(is_tree_schema(&db("abc").0));
        assert!(is_tree_schema(&db("ab, ab").0)); // duplicates collapse
        let empty_rel = DbSchema::new(vec![AttrSet::empty()]);
        assert!(is_tree_schema(&empty_rel));
    }

    #[test]
    fn reduction_result_is_reduced_and_respects_sacred_attrs() {
        let (d, mut cat) = db("abc, ab, bc");
        let x = set("abc", &mut cat);
        let red = gyo_reduce(&d, &x);
        assert!(red.result.is_reduced());
        // With all attributes sacred only subset elimination applies.
        assert_eq!(red.result, db("abc").0);
        assert_eq!(red.survivors, vec![0]);
    }

    #[test]
    fn gr_with_partial_sacred_set() {
        // GR((ab, bc, cd), ab): d isolated -> (ab, bc, c); c sacred? no —
        // X = ab, so c deletable once isolated: bc stays (b,c shared)…
        let (d, mut cat) = db("ab, bc, cd");
        let x = set("ab", &mut cat);
        let g = gr(&d, &x);
        // cd loses d, becomes c ⊆ bc, removed; bc loses c (now isolated),
        // becomes b ⊆ ab, removed. Result: (ab).
        assert_eq!(g, db("ab").0);
    }

    #[test]
    fn incremental_agrees_with_naive_on_examples() {
        let cases = [
            "ab, bc, cd",
            "ab, bc, ac",
            "abc, cde, ace, afe",
            "ab, bc, cd, da",
            "bcd, acd, abd, abc",
            "abc, ab, bc, abc",
            "a, b, c",
            "abcde",
            "ab, ab, ab",
        ];
        for s in cases {
            let (d, mut cat) = db(s);
            for xs in ["", "a", "ab", "abc"] {
                let x = set(xs, &mut cat);
                let fast = gyo_reduce(&d, &x);
                let slow = gyo_reduce_naive(&d, &x);
                assert_eq!(fast.result, slow.result, "case {s} X={xs}");
            }
        }
    }

    #[test]
    fn trace_replay_reproduces_result() {
        let (d, _) = db("abc, cde, ace, afe");
        let red = gyo_reduce(&d, &AttrSet::empty());
        // Replay the trace naively and verify it is a legal op sequence.
        let mut rels: Vec<AttrSet> = d.iter().cloned().collect();
        let mut alive = vec![true; rels.len()];
        for step in &red.trace {
            match *step {
                GyoStep::DeleteAttr { attr, rel } => {
                    assert!(alive[rel]);
                    let holders = rels
                        .iter()
                        .zip(&alive)
                        .filter(|(r, &al)| al && r.contains(attr))
                        .count();
                    assert_eq!(holders, 1, "attribute must be isolated");
                    assert!(rels[rel].remove(attr));
                }
                GyoStep::RemoveSubset { removed, witness } => {
                    assert!(alive[removed] && alive[witness]);
                    assert!(rels[removed].is_subset(&rels[witness]));
                    alive[removed] = false;
                }
            }
        }
        let survivors: Vec<AttrSet> = rels
            .iter()
            .zip(&alive)
            .filter(|(_, &al)| al)
            .map(|(r, _)| r.clone())
            .collect();
        assert_eq!(DbSchema::new(survivors), red.result);
    }

    #[test]
    fn corollary_3_2_treeifying_relation() {
        // Aring of size 4: GR is the ring itself, so the treeifying relation
        // is all four attributes.
        let (ring, cat) = db("ab, bc, cd, da");
        assert_eq!(treeifying_relation(&ring).to_notation(&cat), "abcd");
        // Adding it indeed yields a tree schema (Theorem 3.2(ii)).
        let fixed = ring.with_rel(treeifying_relation(&ring));
        assert!(is_tree_schema(&fixed));
        // Tree schemas need nothing.
        let (chain, _) = db("ab, bc");
        assert!(treeifying_relation(&chain).is_empty());
    }

    #[test]
    fn theorem_3_2_iii_any_treeifying_single_relation_covers_u_gr() {
        // If D ∪ (S) is a tree schema then S ⊇ U(GR(D)).
        let (ring, mut cat) = db("ab, bc, cd, da");
        let need = treeifying_relation(&ring);
        // abc misses d: adding it must NOT treeify.
        let s = set("abc", &mut cat);
        assert!(!need.is_subset(&s));
        assert!(!is_tree_schema(&ring.with_rel(s)));
        // any superset of abcd treeifies
        let s2 = set("abcd", &mut cat);
        assert!(is_tree_schema(&ring.with_rel(s2)));
    }

    #[test]
    fn survivors_point_at_original_indices() {
        let (d, mut cat) = db("ab, abc, bc");
        let x = set("abc", &mut cat);
        let red = gyo_reduce(&d, &x);
        assert_eq!(red.survivors, vec![1]);
        assert_eq!(red.result.rel(0), d.rel(1));
    }

    #[test]
    fn sacred_attributes_never_deleted() {
        let (d, mut cat) = db("ab, cd");
        let x = set("ad", &mut cat);
        let red = gyo_reduce(&d, &x);
        for step in &red.trace {
            if let GyoStep::DeleteAttr { attr, .. } = step {
                assert!(!x.contains(*attr));
            }
        }
        // b and c are deletable; a and d sacred: result (a, d).
        let mut expect_cat = Catalog::alphabetic();
        let expect = DbSchema::new(vec![
            AttrSet::parse("a", &mut expect_cat).unwrap(),
            AttrSet::parse("d", &mut expect_cat).unwrap(),
        ]);
        assert_eq!(red.result, expect);
    }

    #[test]
    fn trace_display_is_readable() {
        let (d, cat) = db("abc, ab, bc");
        let red = gyo_reduce(&d, &AttrSet::empty());
        let text = red.display(&cat);
        assert!(text.contains("eliminate"), "{text}");
        assert!(text.ends_with("result: (∅)"), "{text}");
    }

    #[test]
    fn big_chain_reduces_quickly() {
        // a cheap smoke test that the incremental engine is not quadratic in
        // an obvious way: 2000-relation chain.
        let n = 2000u32;
        let rels: Vec<AttrSet> = (0..n).map(|i| AttrSet::from_raw(&[i, i + 1])).collect();
        let d = DbSchema::new(rels);
        assert!(is_tree_schema(&d));
    }
}
