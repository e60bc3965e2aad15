//! Seeded workload generation: the (schema, state, target) pool and the
//! fixed op sequence each workload replays.
//!
//! Inputs depend only on `(workload, seed, scale)`, never on timing, so op
//! counts, per-op layer counts and memory repeat exactly for a seed.

use gyo_reduce::gyo_reduce;
use gyo_relation::{DbState, Relation};
use gyo_schema::{AttrSet, DbSchema};
use gyo_workloads::{
    engine_families, family_state, grid, random_cyclic_schema, random_tree_schema, tpch_like_cyclic,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["tree_reuse", "cyclic_treeify", "adhoc_fresh"];

/// Seed of the schemas and states of `tree_reuse`.
const FAMILY_SEED: u64 = 0x7472_6565;

/// Input size: `Full` is what the benchmark measures, `Tiny` keeps the
/// package's own tests fast.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The measured sizes (see `perfbench/README.md`).
    Full,
    /// A few relations and rows per schema, for smoke tests.
    Tiny,
}

/// One engine call.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// `Engine::reduce`.
    Reduce,
    /// `Engine::answer` with the item's `xs[i]` as the target.
    Answer(usize),
}

/// A relation state before loading: row-major values in shuffled row order,
/// so loading pays the normalisation (sort + dedup) a real load would.
#[derive(Clone, Debug)]
pub struct RawRel {
    attrs: AttrSet,
    rows: usize,
    data: Vec<u64>,
}

/// One (schema, state) pair of the pool with its answer targets.
#[derive(Clone, Debug)]
pub struct Item {
    /// The generator family (`chain`, `ring_pendants`, `adhoc_cyclic`, ...).
    pub family: &'static str,
    /// The schema.
    pub schema: DbSchema,
    /// The state, not yet loaded.
    pub raw: Vec<RawRel>,
    /// Answer targets.
    pub xs: Vec<AttrSet>,
    /// Whether GYO reduces the schema totally (no treeification needed).
    pub is_tree: bool,
}

impl Item {
    /// Builds the `DbState`: copies the raw buffers and normalises them
    /// through `Relation::from_row_major`.
    pub fn load(&self) -> DbState {
        let rels = self
            .raw
            .iter()
            .map(|r| Relation::from_row_major(r.attrs.clone(), r.rows, r.data.clone()))
            .collect();
        DbState::new(&self.schema, rels)
    }

    /// Rows over all relations of the unloaded state.
    pub fn raw_rows(&self) -> usize {
        self.raw.iter().map(|r| r.rows).sum()
    }
}

/// One op of the sequence: which item, and which call.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Op {
    /// Index into [`Workload::items`].
    pub item: usize,
    /// The call.
    pub kind: OpKind,
}

/// A generated workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Its name (one of [`WORKLOADS`]).
    pub name: &'static str,
    /// The (schema, state) pool.
    pub items: Vec<Item>,
    /// One pass: the ops in replay order.
    pub ops: Vec<Op>,
    /// Whether every pass needs a fresh engine and freshly loaded states, so
    /// that every plan lookup misses and every relation cache starts cold.
    pub fresh_per_pass: bool,
}

/// Generates workload `name` from `seed`; `None` for an unknown name.
pub fn generate(name: &str, seed: u64, scale: Scale) -> Option<Workload> {
    let index = WORKLOADS.iter().position(|w| *w == name)?;
    // Salt the seed per workload so equal seeds give unrelated streams.
    let mut rng = StdRng::seed_from_u64(mix(seed ^ mix(index as u64)));
    Some(match index {
        0 => tree_reuse(&mut rng, scale),
        1 => cyclic_treeify(&mut rng, scale),
        _ => adhoc_fresh(&mut rng, scale),
    })
}

/// The tree families of `engine_families`, each with a fixed pool of noisy
/// states (rows from one universal relation plus dangling rows), queried
/// over and over; answers target the two farthest attributes.
fn tree_reuse(rng: &mut StdRng, scale: Scale) -> Workload {
    let (n, rows, dangling, states) = match scale {
        Scale::Full => (64, 256, 32, 4),
        Scale::Tiny => (8, 16, 4, 1),
    };
    // The pool is fixed; the seed draws the row order of the unloaded states
    // and the op order. Drawn per seed, a random tree moved the answer tail
    // by 3x from one seed to the next, and the states (with the op order)
    // moved the reduce median by up to 1.8x.
    let mut fixed = StdRng::seed_from_u64(FAMILY_SEED);
    let mut items = Vec::new();
    for fam in engine_families(&mut fixed, n) {
        if !["chain", "star", "random_tree", "wide_chain", "tpch"].contains(&fam.name) {
            continue;
        }
        // Width-3 keys need a small domain to join at all; the classify
        // benches use the same two domains.
        let domain = if fam.name == "wide_chain" {
            64
        } else {
            1 << 14
        };
        for _ in 0..states {
            let state = family_state(&mut fixed, &fam.schema, rows, domain, dangling);
            let x = farthest_pair(&fam.schema, &fam.schema.attributes());
            items.push(item(rng, fam.name, &fam.schema, &state, vec![x]));
        }
    }
    let ops = sequence(rng, &items, |_| {
        vec![
            OpKind::Reduce,
            OpKind::Reduce,
            OpKind::Answer(0),
            OpKind::Answer(0),
        ]
    });
    Workload {
        name: "tree_reuse",
        items,
        ops,
        fresh_per_pass: false,
    }
}

/// A ring with pendants, a square grid and the cyclic TPC-H-like snowflake,
/// as fixed pools. Three of every four answers target two attributes inside
/// `W = U(GR(D))`, one targets two outside it where the schema has any, so
/// the answer median sits in the inside-`W` mode.
fn cyclic_treeify(rng: &mut StdRng, scale: Scale) -> Workload {
    let (ring, side, rows, dangling, states) = match scale {
        Scale::Full => (64, 8, 64, 16, 8),
        Scale::Tiny => (6, 3, 12, 3, 1),
    };
    let schemas = [
        ("ring_pendants", ring_with_pendants(ring, ring / 2)),
        ("grid", grid(side, side)),
        ("tpch_cyclic", tpch_like_cyclic()),
    ];
    let mut items = Vec::new();
    for (family, d) in schemas {
        let w = gyo_reduce(&d, &AttrSet::empty()).result.attributes();
        let outside = d.attributes().difference(&w);
        let mut xs = vec![farthest_pair(&d, &w)];
        if outside.len() >= 2 {
            xs.push(farthest_pair(&d, &outside));
        }
        for _ in 0..states {
            let state = family_state(rng, &d, rows, 1 << 16, dangling);
            items.push(item(rng, family, &d, &state, xs.clone()));
        }
    }
    let ops = sequence(rng, &items, |it| {
        let out = if it.xs.len() > 1 { 1 } else { 0 };
        vec![
            OpKind::Reduce,
            OpKind::Reduce,
            OpKind::Answer(0),
            OpKind::Answer(0),
            OpKind::Answer(0),
            OpKind::Answer(out),
        ]
    });
    Workload {
        name: "cyclic_treeify",
        items,
        ops,
        fresh_per_pass: false,
    }
}

/// Every op on its own never-seen schema (random tree or random cyclic, ~12
/// relations) with a tiny state; each pass starts a fresh engine.
fn adhoc_fresh(rng: &mut StdRng, scale: Scale) -> Workload {
    let (count, rels) = match scale {
        Scale::Full => (1024, 12),
        Scale::Tiny => (16, 5),
    };
    // Five of every eight schemas are cyclic: an even split would put each
    // median in the gap between the tree and the cyclic latency modes.
    let mut shapes: Vec<(bool, OpKind)> = (0..count)
        .map(|k| {
            let kind = if k % 2 == 0 {
                OpKind::Reduce
            } else {
                OpKind::Answer(0)
            };
            ((k / 2) % 8 < 3, kind)
        })
        .collect();
    shuffle(rng, &mut shapes);
    let mut items = Vec::with_capacity(count);
    let mut ops = Vec::with_capacity(count);
    for (k, (tree, kind)) in shapes.into_iter().enumerate() {
        let (family, d) = if tree {
            ("adhoc_tree", random_tree_schema(rng, rels, 2 * rels, 0.4))
        } else {
            (
                "adhoc_cyclic",
                random_cyclic_schema(rng, rels, rels + rels / 3, 3, 16),
            )
        };
        let state = family_state(rng, &d, 8, 1 << 16, 2);
        let x = farthest_pair(&d, &d.attributes());
        items.push(item(rng, family, &d, &state, vec![x]));
        ops.push(Op { item: k, kind });
    }
    Workload {
        name: "adhoc_fresh",
        items,
        ops,
        fresh_per_pass: true,
    }
}

/// The Aring of `n` over attributes `0..n` plus `pendants` binary relations
/// hanging off every other ring attribute; GYO strips the pendants, so they
/// lie outside `W`.
fn ring_with_pendants(n: usize, pendants: usize) -> DbSchema {
    let mut d = gyo_workloads::aring_n(n);
    for k in 0..pendants {
        d.push(AttrSet::from_raw(&[(2 * k % n) as u32, (n + k) as u32]));
    }
    d
}

fn item(
    rng: &mut StdRng,
    family: &'static str,
    d: &DbSchema,
    state: &DbState,
    xs: Vec<AttrSet>,
) -> Item {
    let raw = state.rels().iter().map(|r| shuffled_raw(rng, r)).collect();
    Item {
        family,
        schema: d.clone(),
        raw,
        xs,
        is_tree: gyo_reduce(d, &AttrSet::empty()).is_total(),
    }
}

fn shuffled_raw(rng: &mut StdRng, r: &Relation) -> RawRel {
    let mut order: Vec<usize> = (0..r.len()).collect();
    shuffle(rng, &mut order);
    let mut data = Vec::with_capacity(r.data().len());
    for i in order {
        data.extend_from_slice(r.row(i));
    }
    RawRel {
        attrs: r.attrs().clone(),
        rows: r.len(),
        data,
    }
}

/// Every item's ops (from `per_item`) in one pass: all reduces in a shuffled
/// order, then all answers in a shuffled order. Interleaved, a reduce right
/// after an answer ran up to 2x slower than after a reduce (the answer's
/// intermediates evict the caches), so the reduce median moved with the
/// seed's interleaving.
fn sequence(rng: &mut StdRng, items: &[Item], per_item: impl Fn(&Item) -> Vec<OpKind>) -> Vec<Op> {
    let mut ops: Vec<Op> = items
        .iter()
        .enumerate()
        .flat_map(|(i, it)| {
            per_item(it)
                .into_iter()
                .map(move |kind| Op { item: i, kind })
        })
        .collect();
    shuffle(rng, &mut ops);
    ops.sort_by_key(|op| op.kind != OpKind::Reduce);
    ops
}

fn shuffle<T>(rng: &mut StdRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.random_range(0..=i));
    }
}

/// SplitMix64 finaliser.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Two attributes of `within` far apart in the schema's attribute graph
/// (attributes adjacent when they share a relation): a double BFS sweep from
/// the smallest attribute of `within`. Ties go to the smaller id.
pub fn farthest_pair(d: &DbSchema, within: &AttrSet) -> AttrSet {
    let Some(first) = within.iter().next() else {
        return AttrSet::empty();
    };
    let size = d
        .attributes()
        .iter()
        .map(|a| a.0 as usize + 1)
        .max()
        .unwrap_or(0);
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); size];
    for r in d.iter() {
        for a in r.iter() {
            adj[a.0 as usize].extend(r.iter().map(|b| b.0 as usize));
        }
    }
    let farthest = |from: usize| {
        let mut dist = vec![usize::MAX; size];
        let mut queue = std::collections::VecDeque::from([from]);
        dist[from] = 0;
        while let Some(v) = queue.pop_front() {
            for &w in &adj[v] {
                if dist[w] == usize::MAX {
                    dist[w] = dist[v] + 1;
                    queue.push_back(w);
                }
            }
        }
        within
            .iter()
            .map(|a| a.0 as usize)
            .filter(|&a| dist[a] != usize::MAX)
            .max_by_key(|&a| (dist[a], std::cmp::Reverse(a)))
            .unwrap_or(from)
    };
    let u = farthest(first.0 as usize);
    let v = farthest(u);
    AttrSet::from_raw(&[u as u32, v as u32])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for name in WORKLOADS {
            let a = generate(name, 7, Scale::Tiny).unwrap();
            let b = generate(name, 7, Scale::Tiny).unwrap();
            assert_eq!(a.ops, b.ops, "{name}");
            for (x, y) in a.items.iter().zip(&b.items) {
                assert_eq!(x.schema.rels(), y.schema.rels());
                assert_eq!(x.load(), y.load());
            }
        }
        assert!(generate("nope", 7, Scale::Tiny).is_none());
    }

    #[test]
    fn farthest_pair_spans_a_chain() {
        let d = gyo_workloads::chain(5);
        assert_eq!(
            farthest_pair(&d, &d.attributes()),
            AttrSet::from_raw(&[0, 5])
        );
    }

    #[test]
    fn cyclic_targets_lie_inside_and_outside_w() {
        let w = generate("cyclic_treeify", 1, Scale::Tiny).unwrap();
        let ring = w
            .items
            .iter()
            .find(|i| i.family == "ring_pendants")
            .unwrap();
        let gr = gyo_reduce(&ring.schema, &AttrSet::empty())
            .result
            .attributes();
        assert!(ring.xs[0].is_subset(&gr));
        assert!(ring.xs[1].is_disjoint(&gr));
        assert!(w.items.iter().all(|i| !i.is_tree));
    }
}
