//! Deterministic and randomized schema families.

use gyo_reduce::{aclique, aring, is_tree_schema};
use gyo_schema::{AttrId, AttrSet, Catalog, DbSchema};
use rand::Rng;

/// A catalog naming attributes `a0, a1, …, a{n-1}`, for displaying schemas
/// produced by the raw-id generators in this module.
pub fn numbered_catalog(n: usize) -> Catalog {
    let mut cat = Catalog::new();
    for i in 0..n {
        cat.intern(&format!("a{i}"));
    }
    cat
}

/// The chain (path) schema `(A₀A₁, A₁A₂, …, A_{n-1}A_n)` — the simplest
/// tree-schema family (Fig. 1 row 1 generalized). `n` is the number of
/// relations; `n + 1` attributes are used.
pub fn chain(n: usize) -> DbSchema {
    DbSchema::new(
        (0..n as u32)
            .map(|i| AttrSet::from_raw(&[i, i + 1]))
            .collect(),
    )
}

/// The star schema: a hub relation `{A₀}` extended pairwise,
/// `(A₀A₁, A₀A₂, …, A₀Aₙ)` — a tree-schema family whose join tree is a
/// star.
pub fn star(n: usize) -> DbSchema {
    DbSchema::new((1..=n as u32).map(|i| AttrSet::from_raw(&[0, i])).collect())
}

/// The Aring of size `n` over attributes `0..n` (§3.1). Cyclic for `n ≥ 3`.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn aring_n(n: usize) -> DbSchema {
    let attrs: Vec<AttrId> = (0..n as u32).map(AttrId).collect();
    aring(&attrs)
}

/// The Aclique of size `n` over attributes `0..n` (§3.1). Cyclic for
/// `n ≥ 3`.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn aclique_n(n: usize) -> DbSchema {
    let attrs: Vec<AttrId> = (0..n as u32).map(AttrId).collect();
    aclique(&attrs)
}

/// The grid schema: one binary relation per edge of the `rows × cols` grid
/// graph (attributes are grid vertices). Cyclic whenever the grid contains a
/// square (`rows ≥ 2 && cols ≥ 2`), since every unit square is an Aring of
/// size 4.
pub fn grid(rows: usize, cols: usize) -> DbSchema {
    let at = |r: usize, c: usize| (r * cols + c) as u32;
    let mut rels = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                rels.push(AttrSet::from_raw(&[at(r, c), at(r, c + 1)]));
            }
            if r + 1 < rows {
                rels.push(AttrSet::from_raw(&[at(r, c), at(r + 1, c)]));
            }
        }
    }
    DbSchema::new(rels)
}

/// Generates a random **tree schema** with `n_rels` relation schemas over at
/// most `n_attrs` attributes.
///
/// Construction: draw a uniformly random labeled tree `T` on the relation
/// nodes, then scatter each attribute over a random connected subtree of `T`
/// (grown edge-by-edge with probability `spread`). Every attribute's holder
/// set is connected in `T` by construction, so `T` is a qual tree and the
/// schema is guaranteed to be a tree schema. Relations left empty receive a
/// fresh private attribute.
pub fn random_tree_schema<R: Rng + ?Sized>(
    rng: &mut R,
    n_rels: usize,
    n_attrs: usize,
    spread: f64,
) -> DbSchema {
    if n_rels == 0 {
        return DbSchema::empty();
    }
    let adj = random_tree_adjacency(rng, n_rels);
    let mut rels: Vec<Vec<AttrId>> = vec![Vec::new(); n_rels];
    for a in 0..n_attrs as u32 {
        let start = rng.random_range(0..n_rels);
        // Grow a connected subtree from `start`.
        let mut chosen = vec![false; n_rels];
        let mut frontier = vec![start];
        chosen[start] = true;
        rels[start].push(AttrId(a));
        while let Some(v) = frontier.pop() {
            for &w in &adj[v] {
                if !chosen[w] && rng.random_bool(spread) {
                    chosen[w] = true;
                    rels[w].push(AttrId(a));
                    frontier.push(w);
                }
            }
        }
    }
    // Give empty relations a private attribute so every schema is nonempty.
    let mut next_private = n_attrs as u32;
    for r in &mut rels {
        if r.is_empty() {
            r.push(AttrId(next_private));
            next_private += 1;
        }
    }
    DbSchema::new(rels.into_iter().map(AttrSet::from_iter).collect())
}

/// Generates an unconstrained random hypergraph: `n_rels` relation schemas,
/// each a uniform sample of `1..=max_arity` attributes from `0..n_attrs`.
/// May be a tree or cyclic schema.
pub fn random_schema<R: Rng + ?Sized>(
    rng: &mut R,
    n_rels: usize,
    n_attrs: usize,
    max_arity: usize,
) -> DbSchema {
    assert!(n_attrs > 0 || n_rels == 0, "attributes required");
    let mut rels = Vec::with_capacity(n_rels);
    for _ in 0..n_rels {
        let arity = rng.random_range(1..=max_arity.min(n_attrs));
        let mut attrs = Vec::with_capacity(arity);
        while attrs.len() < arity {
            let a = AttrId(rng.random_range(0..n_attrs as u32));
            if !attrs.contains(&a) {
                attrs.push(a);
            }
        }
        rels.push(AttrSet::from_iter(attrs));
    }
    DbSchema::new(rels)
}

/// Generates a random **cyclic** schema: rejection-samples [`random_schema`]
/// and, if `max_attempts` samples all come out acyclic, overlays an Aring on
/// the first three attributes (guaranteeing cyclicity).
pub fn random_cyclic_schema<R: Rng + ?Sized>(
    rng: &mut R,
    n_rels: usize,
    n_attrs: usize,
    max_arity: usize,
    max_attempts: usize,
) -> DbSchema {
    assert!(n_attrs >= 3, "a cyclic schema needs at least 3 attributes");
    assert!(n_rels >= 3, "a cyclic schema needs at least 3 relations");
    for _ in 0..max_attempts {
        let d = random_schema(rng, n_rels, n_attrs, max_arity);
        if !is_tree_schema(&d) {
            return d;
        }
    }
    // Fall back: overlay a triangle on three FRESH attributes (attributes
    // within 0..n_attrs could be covered by a random relation ⊇ {A,B,C},
    // which would let GYO absorb the triangle and leave a tree schema).
    let mut d = random_schema(rng, n_rels.saturating_sub(3), n_attrs, max_arity);
    let (a, b, c) = (n_attrs as u32, n_attrs as u32 + 1, n_attrs as u32 + 2);
    d.push(AttrSet::from_raw(&[a, b]));
    d.push(AttrSet::from_raw(&[b, c]));
    d.push(AttrSet::from_raw(&[a, c]));
    debug_assert!(!is_tree_schema(&d));
    d
}

/// A ring of `cliques` Acliques of size `clique_size` glued in a cycle by
/// binary "bridge" relations — a cyclic family whose GYO residue is large
/// and structured (used to stress witness search and treeification).
///
/// # Panics
///
/// Panics if `cliques < 1` or `clique_size < 3`.
pub fn ring_of_cliques(cliques: usize, clique_size: usize) -> DbSchema {
    assert!(cliques >= 1 && clique_size >= 3);
    let mut rels: Vec<AttrSet> = Vec::new();
    let block = clique_size as u32;
    for c in 0..cliques as u32 {
        let attrs: Vec<AttrId> = (0..block).map(|k| AttrId(c * block + k)).collect();
        for r in aclique(&attrs).iter() {
            rels.push(r.clone());
        }
        // bridge: first attribute of this clique to first of the next
        let next = ((c + 1) % cliques as u32) * block;
        rels.push(AttrSet::from_raw(&[c * block, next]));
    }
    DbSchema::new(rels)
}

/// A **wide chain**: `n` relations of `arity` attributes each, consecutive
/// relations overlapping in `overlap` attributes — the wide-arity
/// generalization of [`chain`] (`chain(n) = wide_chain(n, 2, 1)`). Always a
/// tree schema (the running intersection property holds along the chain by
/// construction), and the semijoin keys between neighbors have width
/// exactly `overlap`, so `overlap ≥ 3` drives the wide-key kernel paths
/// (fixed-shift `u128` key columns when the values fit, the bucket chain
/// when they do not).
///
/// # Panics
///
/// Panics if `overlap >= arity` (neighbors would collapse) or `arity == 0`.
pub fn wide_chain(n: usize, arity: usize, overlap: usize) -> DbSchema {
    assert!(arity > 0, "relations need at least one attribute");
    assert!(
        overlap < arity,
        "overlap must leave fresh attributes per link"
    );
    let step = (arity - overlap) as u32;
    DbSchema::new(
        (0..n as u32)
            .map(|i| {
                let start = i * step;
                AttrSet::from_iter((start..start + arity as u32).map(AttrId))
            })
            .collect(),
    )
}

/// A TPC-H-like **acyclic join graph** over arity-4…6 relations: a
/// fact-table snowflake (lineitem at the center; orders, part, supplier
/// branching off; customer behind orders; two separate nation dimensions
/// behind customer and supplier so the hypergraph stays a tree — sharing
/// one nation attribute would close the classic customer↔supplier cycle).
/// The wide/hard acyclic shape Greco–Scarcello-style instances stress:
/// high-arity relations, single-attribute join keys, fan-out at the fact
/// table.
///
/// Attribute ids (all distinct unless named identically):
/// `orderkey=0, custkey=1, partkey=2, suppkey=3`, the rest private.
pub fn tpch_like() -> DbSchema {
    const ORDERKEY: u32 = 0;
    const CUSTKEY: u32 = 1;
    const PARTKEY: u32 = 2;
    const SUPPKEY: u32 = 3;
    const C_NATION: u32 = 4;
    const S_NATION: u32 = 5;
    // private attributes start at 6
    DbSchema::new(vec![
        // lineitem(orderkey, partkey, suppkey, lineno, qty, price)
        AttrSet::from_raw(&[ORDERKEY, PARTKEY, SUPPKEY, 6, 7, 8]),
        // orders(orderkey, custkey, odate, ostatus)
        AttrSet::from_raw(&[ORDERKEY, CUSTKEY, 9, 10]),
        // customer(custkey, c_nation, mktsegment, acctbal)
        AttrSet::from_raw(&[CUSTKEY, C_NATION, 11, 12]),
        // part(partkey, brand, ptype, psize, container)
        AttrSet::from_raw(&[PARTKEY, 13, 14, 15, 16]),
        // supplier(suppkey, s_nation, sphone, sacctbal)
        AttrSet::from_raw(&[SUPPKEY, S_NATION, 17, 18]),
        // nation_c(c_nation, c_regionkey, c_nname, c_ncomment) — customer's dimension
        AttrSet::from_raw(&[C_NATION, 19, 20, 25]),
        // nation_s(s_nation, s_regionkey, s_nname, s_ncomment) — supplier's dimension
        AttrSet::from_raw(&[S_NATION, 21, 22, 26]),
        // partsupp(partkey, suppkey, availqty, supplycost)
        AttrSet::from_raw(&[PARTKEY, SUPPKEY, 23, 24]),
    ])
}

/// The **cyclic** variant of [`tpch_like`]: one extra binary relation
/// sharing the customer and supplier nation attributes, closing the
/// classic customer↔supplier cycle the two-nation split of [`tpch_like`]
/// exists to avoid. The GYO residue is the cycle through
/// lineitem–orders–customer–nation-bridge–supplier, while part, partsupp,
/// and the two nation dimensions reduce away — a cyclic schema whose
/// treeifying relation `W` is a *strict subset* of `U(D)`, unlike rings
/// and grids where `W` spans every attribute.
pub fn tpch_like_cyclic() -> DbSchema {
    let mut d = tpch_like();
    // nation_bridge(c_nation, s_nation): customers and suppliers now share
    // nation info, closing the cycle.
    d.push(AttrSet::from_raw(&[4, 5]));
    d
}

/// A "caterpillar" tree schema: a spine chain of `spine` relations, each
/// carrying `legs` pendant relations — the worst case for naive subset
/// scans, the friendly case for the incremental GYO engine.
pub fn caterpillar(spine: usize, legs: usize) -> DbSchema {
    let mut rels: Vec<AttrSet> = Vec::new();
    for s in 0..spine as u32 {
        rels.push(AttrSet::from_raw(&[s, s + 1]));
    }
    let mut next = spine as u32 + 1;
    for s in 0..spine as u32 {
        for _ in 0..legs {
            rels.push(AttrSet::from_raw(&[s, next]));
            next += 1;
        }
    }
    DbSchema::new(rels)
}

/// Uniformly random labeled tree on `n` nodes (via a random Prüfer
/// sequence), returned as adjacency lists.
fn random_tree_adjacency<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<Vec<usize>> {
    let mut adj = vec![Vec::new(); n];
    if n <= 1 {
        return adj;
    }
    if n == 2 {
        adj[0].push(1);
        adj[1].push(0);
        return adj;
    }
    let seq: Vec<usize> = (0..n - 2).map(|_| rng.random_range(0..n)).collect();
    let mut degree = vec![1usize; n];
    for &s in &seq {
        degree[s] += 1;
    }
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..n)
        .filter(|&v| degree[v] == 1)
        .map(std::cmp::Reverse)
        .collect();
    for &s in &seq {
        let std::cmp::Reverse(leaf) = heap.pop().expect("tree has a leaf");
        adj[leaf].push(s);
        adj[s].push(leaf);
        degree[s] -= 1;
        if degree[s] == 1 {
            heap.push(std::cmp::Reverse(s));
        }
    }
    let std::cmp::Reverse(u) = heap.pop().expect("two leaves remain");
    let std::cmp::Reverse(v) = heap.pop().expect("two leaves remain");
    adj[u].push(v);
    adj[v].push(u);
    adj
}

#[cfg(test)]
mod tests {
    use super::*;
    use gyo_reduce::{classify, SchemaKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn chains_and_stars_are_tree_schemas() {
        for n in 0..20 {
            assert!(is_tree_schema(&chain(n)), "chain {n}");
            assert!(is_tree_schema(&star(n)), "star {n}");
        }
    }

    #[test]
    fn rings_cliques_grids_are_cyclic() {
        for n in 3..10 {
            assert_eq!(classify(&aring_n(n)), SchemaKind::Cyclic);
            assert_eq!(classify(&aclique_n(n)), SchemaKind::Cyclic);
        }
        assert_eq!(classify(&grid(2, 2)), SchemaKind::Cyclic);
        assert_eq!(classify(&grid(3, 4)), SchemaKind::Cyclic);
        // Degenerate grids are paths => tree schemas.
        assert!(is_tree_schema(&grid(1, 5)));
        assert!(is_tree_schema(&grid(4, 1)));
    }

    #[test]
    fn random_tree_schema_is_always_a_tree_schema() {
        let mut rng = StdRng::seed_from_u64(42);
        for n_rels in [1usize, 2, 5, 12, 30] {
            for _ in 0..5 {
                let d = random_tree_schema(&mut rng, n_rels, n_rels * 2, 0.5);
                assert_eq!(d.len(), n_rels);
                assert!(is_tree_schema(&d), "n_rels={n_rels} d={d:?}");
                assert!(d.iter().all(|r| !r.is_empty()));
            }
        }
    }

    #[test]
    fn random_cyclic_schema_is_always_cyclic() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10 {
            let d = random_cyclic_schema(&mut rng, 6, 8, 3, 5);
            assert_eq!(classify(&d), SchemaKind::Cyclic);
        }
    }

    #[test]
    fn random_schema_respects_shape_parameters() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = random_schema(&mut rng, 10, 6, 3);
        assert_eq!(d.len(), 10);
        for r in d.iter() {
            assert!((1..=3).contains(&r.len()));
            assert!(r.iter().all(|a| a.0 < 6));
        }
    }

    #[test]
    fn grid_edge_count() {
        // rows*(cols-1) horizontal + (rows-1)*cols vertical edges
        let d = grid(3, 4);
        assert_eq!(d.len(), 3 * 3 + 2 * 4);
        assert_eq!(d.attributes().len(), 12);
    }

    #[test]
    fn ring_of_cliques_is_cyclic_with_structured_residue() {
        let d = ring_of_cliques(3, 3);
        assert_eq!(classify(&d), SchemaKind::Cyclic);
        // 3 cliques x 3 faces + 3 bridges
        assert_eq!(d.len(), 12);
        let single = ring_of_cliques(1, 4);
        assert_eq!(classify(&single), SchemaKind::Cyclic);
    }

    #[test]
    fn wide_chain_is_a_tree_schema_with_exact_overlap() {
        for (n, arity, overlap) in [(1usize, 4usize, 2usize), (3, 4, 3), (8, 6, 3), (5, 8, 5)] {
            let d = wide_chain(n, arity, overlap);
            assert_eq!(d.len(), n);
            assert!(is_tree_schema(&d), "n={n} arity={arity} overlap={overlap}");
            for w in d.rels().windows(2) {
                assert_eq!(w[0].len(), arity);
                assert_eq!(w[0].intersect(&w[1]).len(), overlap);
            }
        }
        assert_eq!(wide_chain(4, 2, 1), chain(4), "chain is the arity-2 case");
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn wide_chain_rejects_full_overlap() {
        wide_chain(3, 4, 4);
    }

    #[test]
    fn tpch_like_is_a_wide_acyclic_snowflake() {
        let d = tpch_like();
        assert!(is_tree_schema(&d), "the two-nation snowflake is acyclic");
        assert_eq!(d.len(), 8);
        assert!(d.iter().all(|r| (4..=6).contains(&r.len())));
        // Closing the customer↔supplier cycle through one shared nation
        // attribute must flip the classification — the schema is acyclic
        // *because* the dimensions are split.
        assert_eq!(classify(&tpch_like_cyclic()), SchemaKind::Cyclic);
    }

    #[test]
    fn tpch_like_cyclic_residue_is_the_customer_supplier_cycle() {
        use gyo_reduce::gyo_reduce;
        let d = tpch_like_cyclic();
        let red = gyo_reduce(&d, &gyo_schema::AttrSet::empty());
        assert!(!red.is_total());
        // The cycle: lineitem(0), orders(1), customer(2), supplier(4), and
        // the closing bridge (8). Part/partsupp/nations reduce away.
        assert_eq!(red.survivors, vec![0, 1, 2, 4, 8]);
        // W is a strict subset of U(D): only the join keys on the cycle.
        let w = red.result.attributes();
        assert!(w.len() < d.attributes().len());
        for a in [0u32, 1, 3, 4, 5] {
            assert!(w.contains(gyo_schema::AttrId(a)), "cycle key {a} in W");
        }
        assert!(!w.contains(gyo_schema::AttrId(2)), "partkey reduced away");
    }

    #[test]
    fn caterpillar_is_a_tree_schema() {
        for (s, l) in [(1usize, 0usize), (3, 2), (5, 4)] {
            let d = caterpillar(s, l);
            assert!(is_tree_schema(&d), "spine {s} legs {l}");
            assert_eq!(d.len(), s + s * l);
        }
    }

    #[test]
    fn numbered_catalog_names() {
        let cat = numbered_catalog(3);
        assert_eq!(cat.name(AttrId(2)), "a2");
    }

    #[test]
    fn tiny_random_trees() {
        let mut rng = StdRng::seed_from_u64(1);
        let d0 = random_tree_schema(&mut rng, 0, 5, 0.5);
        assert!(d0.is_empty());
        let d1 = random_tree_schema(&mut rng, 1, 5, 0.5);
        assert_eq!(d1.len(), 1);
    }
}
