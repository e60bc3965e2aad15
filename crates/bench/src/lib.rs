//! Shared helpers for the benchmark suite and the experiment harness.
//!
//! The paper is a theory paper: its "evaluation" consists of eight figures,
//! three worked inline examples, and a body of effective theorems. The
//! binary [`experiments`](../bin/experiments.rs) regenerates all of them
//! and prints paper-claim vs. machine-checked outcome; the Criterion
//! benches measure the algorithmic content (GYO scaling, tableau
//! minimization cost, CC pruning payoff, semijoin programs vs. monolithic
//! joins, the exponential blow-up of exact treefication).

#![warn(missing_docs)]

use gyo_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deterministic RNG for benches (fixed seed ⟹ stable workloads across
/// runs).
pub fn bench_rng() -> StdRng {
    StdRng::seed_from_u64(0xF1A5_C0DE)
}

/// A ring of `n` binary relations padded with `pendants` tree-shaped
/// appendages — the "cyclic core with acyclic fringe" workload used by the
/// treeification benches.
pub fn ring_with_fringe(n: usize, pendants: usize) -> DbSchema {
    let mut rels: Vec<AttrSet> = (0..n as u32)
        .map(|i| AttrSet::from_raw(&[i, (i + 1) % n as u32]))
        .collect();
    for p in 0..pendants as u32 {
        let anchor = p % n as u32;
        rels.push(AttrSet::from_raw(&[anchor, n as u32 + p]));
    }
    DbSchema::new(rels)
}

/// The §6 running-example schema family, scaled: a "core" of `k` relations
/// sharing target attributes plus an irrelevant tail of `tail` relations
/// (a path hanging off the core), generalizing
/// `D = (abg, bcg, acf, ad, de, ea)`.
///
/// Returns `(schema, target)`: the target touches only the core, so
/// `CC(D, X)` prunes the entire tail.
pub fn pruning_family(tail: usize) -> (DbSchema, AttrSet) {
    // attrs: 0=a 1=b 2=c 3=g 4=f, tail attrs start at 5
    let mut rels = vec![
        AttrSet::from_raw(&[0, 1, 3]), // abg
        AttrSet::from_raw(&[1, 2, 3]), // bcg
        AttrSet::from_raw(&[0, 2, 4]), // acf
    ];
    let mut prev = 0u32; // tail hangs off attribute a
    for t in 0..tail as u32 {
        let next = 5 + t;
        rels.push(AttrSet::from_iter([AttrId(prev), AttrId(next)]));
        prev = next;
    }
    (DbSchema::new(rels), AttrSet::from_raw(&[0, 1, 2]))
}

/// A tree variant of the §6 pruning family: a chain of `2 + tail` relations
/// queried at its head (`X = {A₀, A₂}`), so `CC(D, X)` keeps only the first
/// two relations and the whole tail is irrelevant. Unlike
/// [`pruning_family`], whose core is cyclic, every sub-schema here is a
/// tree schema — so both the pruned and the unpruned query run on a cached
/// full-reducer plan, quantifying how CC pruning composes with plan
/// caching.
pub fn tree_pruning_family(tail: usize) -> (DbSchema, AttrSet) {
    (gyo_workloads::chain(2 + tail), AttrSet::from_raw(&[0, 2]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_with_fringe_is_cyclic_with_acyclic_fringe() {
        let d = ring_with_fringe(4, 3);
        assert_eq!(d.len(), 7);
        assert_eq!(classify(&d), SchemaKind::Cyclic);
        let red = gyo_reduce(&d, &AttrSet::empty());
        assert_eq!(red.survivors.len(), 4, "fringe reduces away");
    }

    #[test]
    fn pruning_family_matches_section6_shape() {
        let (d, x) = pruning_family(3);
        assert_eq!(d.len(), 6);
        let pruned = prune_irrelevant(&d, &x);
        assert_eq!(pruned.schema.len(), 3, "tail is irrelevant");
    }

    #[test]
    fn tree_pruning_family_prunes_to_the_head() {
        let (d, x) = tree_pruning_family(5);
        assert_eq!(d.len(), 7);
        assert_eq!(classify(&d), SchemaKind::Tree);
        let pruned = prune_irrelevant(&d, &x);
        assert_eq!(pruned.schema.len(), 2, "only the head spine matters");
        assert!(gyo_core::is_tree_schema(&pruned.schema));
    }
}
