//! The experiment harness: regenerates every figure, worked example, and
//! effective theorem of the paper, printing paper-claim vs. measured
//! outcome. `crates/bench/experiments.expected` records a run of this
//! binary; its output matches that file byte for byte.
//!
//! Run with `cargo run --release -p gyo-bench --bin experiments`.

use gyo::gamma::cycles::contract_cycle;
use gyo::gamma::{is_gamma_acyclic_via_subtrees, GammaCycle};
use gyo::prelude::*;
use gyo::query::{
    implies_lossless_semantic, solve_with_tree_projection, weakly_equivalent_semantic,
};
use gyo::reduce::cores::{classify_core, CoreKind};
use gyo::reduce::oracle;
use gyo::tableau::{cc_via_minimization, minimize};
use gyo::treefy::{
    bin_packing_to_treefication, solve_aclique_treefication, solve_bin_packing,
    solve_treefication_exact, treefication_witness_to_packing, BinPacking,
};
use gyo::treeproj::{find_tree_projection, validate};
use rand::rngs::StdRng;
use rand::SeedableRng;

type CheckResult = Result<String, String>;

struct Experiment {
    id: &'static str,
    title: &'static str,
    claim: &'static str,
    check: fn() -> CheckResult,
}

fn main() {
    let experiments: Vec<Experiment> = vec![
        Experiment {
            id: "F1",
            title: "Fig. 1 — tree and cyclic schemas",
            claim: "(ab,bc,cd) tree; (ab,bc,ac) cyclic; (abc,cde,ace,afe) tree",
            check: f1,
        },
        Experiment {
            id: "F2",
            title: "Fig. 2 — Arings/Acliques as building blocks",
            claim: "size-4 ring & clique recognized; deletion witnesses expose cores",
            check: f2,
        },
        Experiment {
            id: "F3",
            title: "Fig. 3 — containment mappings compose",
            claim: "h ∘ h1 is again a containment mapping",
            check: f3,
        },
        Experiment {
            id: "F4",
            title: "Fig. 4 — path shortening",
            claim: "chorded connecting paths shorten",
            check: f4,
        },
        Experiment {
            id: "F5",
            title: "Fig. 5 — γ-cycle contraction",
            claim: "nested adjacent intersections contract the cycle",
            check: f5,
        },
        Experiment {
            id: "F6",
            title: "Fig. 6 — deleting R'₁∩R'ₘ keeps the path connected",
            claim: "contracted cycles witness violation of Thm 5.3(ii)",
            check: f6,
        },
        Experiment {
            id: "F7",
            title: "Fig. 7 — cores survive pairwise deletion",
            claim: "Aring/Aclique: deleting R∩S never disconnects the residues",
            check: f7,
        },
        Experiment {
            id: "F8",
            title: "Fig. 8 — qual-tree extension",
            claim: "γ-acyclic ⟹ every connected subset is a subtree",
            check: f8,
        },
        Experiment {
            id: "X1",
            title: "§3.2 worked example — tree projection",
            claim: "D″=(ab,abch,cdgh,defg,ef) ∈ TP(D′,D); D, D′ cyclic",
            check: x1,
        },
        Experiment {
            id: "X2",
            title: "§5.1 worked example — lossless join failure",
            claim: "⋈(abc,ab,bc) ⊭ ⋈(ab,bc); (ab,bc) not a subtree",
            check: x2,
        },
        Experiment {
            id: "X3",
            title: "§6 worked example — irrelevant relations",
            claim: "CC(D,abc) = (abg,bcg,ac); ad, de, ea and column f pruned",
            check: x3,
        },
        Experiment {
            id: "T1",
            title: "Lemma 3.1 — cyclic cores",
            claim: "cyclic ⟺ some deletion set exposes an Aring/Aclique",
            check: t1,
        },
        Experiment {
            id: "T2",
            title: "Theorem 3.1 — subtree characterization",
            claim: "subtree ⟺ GR(D, U(D')) ⊆ D' (vs. brute-force qual trees)",
            check: t2,
        },
        Experiment {
            id: "T3",
            title: "Theorem 3.2 / Cor. 3.1–3.2 — GR and treeification",
            claim: "tree ⟺ GR(D)=∅̄; U(GR(D)) is the least treeifying relation",
            check: t3,
        },
        Experiment {
            id: "T4",
            title: "Theorem 3.3 — CC vs GR",
            claim: "CC ≤ GR always; CC = GR on trees and when U(GR)⊆X",
            check: t4,
        },
        Experiment {
            id: "T5",
            title: "Theorem 4.1 / Cor. 4.1 — join-only solvability",
            claim: "(D,X) ≡ (D',X) ⟺ CC(D,X) ≤ D' (semantic oracle agrees)",
            check: t5,
        },
        Experiment {
            id: "T6",
            title: "Theorem 4.2 — fixed treefication ≡ bin packing",
            claim: "reduction preserves feasibility in both directions",
            check: t6,
        },
        Experiment {
            id: "T7",
            title: "Theorem 5.1 / Cor. 5.2 — lossless joins",
            claim: "⋈D ⊨ ⋈D' ⟺ CC(D,U(D')) ⊆ D'; trees: ⟺ subtree",
            check: t7,
        },
        Experiment {
            id: "T8",
            title: "Theorem 5.2 / Cor. 5.3 — minimum equivalent sub-schemas",
            claim: "CC(D,X) is minimum-cardinality equivalent and lossless",
            check: t8,
        },
        Experiment {
            id: "T9",
            title: "Theorem 5.3 / Cor. 5.3 — γ-acyclicity",
            claim: "the three characterizations and Fagin's (*) agree",
            check: t9,
        },
        Experiment {
            id: "T10",
            title: "Theorems 6.1–6.4 — tree projections and programs",
            claim: "TP + 2|D| semijoins solves; no TP ⟹ counterexample exists",
            check: t10,
        },
        Experiment {
            id: "E1",
            title: "Extension: Fagin's acyclicity ladder (γ ⊂ β ⊂ α)",
            claim: "one separating schema per rung; hierarchy holds on random schemas",
            check: e1,
        },
        Experiment {
            id: "E2",
            title: "Extension: ultra join reduction (§5.1 / [11])",
            claim: "tree UR states are UJR; every cyclic core admits a non-UJR UR state",
            check: e2,
        },
    ];

    println!("GYO reproduction experiments — Goodman, Shmueli & Tay (1983/84)");
    println!("{:=<100}", "");
    let mut failures = 0;
    for e in &experiments {
        let outcome = (e.check)();
        let (status, detail) = match &outcome {
            Ok(d) => ("PASS", d.clone()),
            Err(d) => {
                failures += 1;
                ("FAIL", d.clone())
            }
        };
        println!("[{:>4}] {:<58} {}", e.id, e.title, status);
        println!("       claim   : {}", e.claim);
        println!("       measured: {}", detail);
        println!("{:-<100}", "");
    }
    println!("{} experiments, {} failures", experiments.len(), failures);
    if failures > 0 {
        std::process::exit(1);
    }
}

fn parse(s: &str, cat: &mut Catalog) -> DbSchema {
    DbSchema::parse(s, cat).unwrap()
}

fn f1() -> CheckResult {
    let mut cat = Catalog::alphabetic();
    let rows = [
        ("ab, bc, cd", SchemaKind::Tree),
        ("ab, bc, ac", SchemaKind::Cyclic),
        ("abc, cde, ace, afe", SchemaKind::Tree),
    ];
    let mut out = Vec::new();
    for (s, expected) in rows {
        let d = parse(s, &mut cat);
        let got = classify(&d);
        if got != expected {
            return Err(format!("{s}: expected {expected:?}, got {got:?}"));
        }
        out.push(format!("{s} ⇒ {got:?}"));
    }
    // Also regenerate the qual trees for the two tree schemas.
    let chain = parse("ab, bc, cd", &mut cat);
    let red = gyo_reduce(&chain, &AttrSet::empty());
    let tree = gyo::join_tree_from_trace(&chain, &red).ok_or("no qual tree for chain")?;
    out.push(format!("chain qual tree edges: {:?}", tree.edges()));
    Ok(out.join("; "))
}

fn f2() -> CheckResult {
    let mut cat = Catalog::alphabetic();
    let ring = parse("ab, bc, cd, da", &mut cat);
    let clique = parse("bcd, acd, abd, abc", &mut cat);
    if classify_core(&ring) != Some(CoreKind::Aring(4)) {
        return Err("4-ring not recognized".into());
    }
    if classify_core(&clique) != Some(CoreKind::Aclique(4)) {
        return Err("4-clique not recognized".into());
    }
    // Fig. 2c in spirit: one schema exposing both cores under different
    // deletion sets.
    let d = parse("abce, bef, dif, cda, dab, bcd, cg", &mut cat);
    let x_ring = AttrSet::parse("abgi", &mut cat).unwrap();
    let x_clique = AttrSet::parse("efgi", &mut cat).unwrap();
    let k1 = classify_core(&d.delete_attrs(&x_ring).reduce());
    let k2 = classify_core(&d.delete_attrs(&x_clique).reduce());
    if k1 != Some(CoreKind::Aring(4)) || k2 != Some(CoreKind::Aclique(4)) {
        return Err(format!("witness classification failed: {k1:?} {k2:?}"));
    }
    let found = find_cyclic_core(&d).ok_or("search found no witness")?;
    Ok(format!(
        "ring & clique recognized; X=abgi ⇒ Aring(4), X=efgi ⇒ Aclique(4); search found {:?} deleting {}",
        found.kind,
        found.deleted.to_notation(&cat)
    ))
}

fn f3() -> CheckResult {
    let mut cat = Catalog::alphabetic();
    let d = parse("abc, ab, bc", &mut cat);
    let x = AttrSet::parse("b", &mut cat).unwrap();
    let t = Tableau::standard(&d, &x);
    let mid = t.subtableau(&[0, 1]);
    let small = t.subtableau(&[0]);
    let f = gyo::find_containment(&t, &mid).ok_or("no T→T'")?;
    let g = gyo::find_containment(&mid, &small).ok_or("no T'→T''")?;
    let composed: Vec<usize> = f.row_map.iter().map(|&j| g.row_map[j]).collect();
    // replay to confirm the composition is itself a containment mapping
    let mut sym: std::collections::HashMap<_, _> = std::collections::HashMap::new();
    for (i, &j) in composed.iter().enumerate() {
        for c in 0..t.attrs().len() {
            let from = t.rows()[i][c];
            let to = small.rows()[j][c];
            if from.is_distinguished() {
                if from != to {
                    return Err("composition broke a distinguished variable".into());
                }
            } else if let Some(prev) = sym.insert(from, to) {
                if prev != to {
                    return Err("composition is symbol-inconsistent".into());
                }
            }
        }
    }
    Ok(format!(
        "composed row map {composed:?} verified as containment mapping"
    ))
}

fn f4() -> CheckResult {
    let mut cat = Catalog::alphabetic();
    let d = parse("ab, bc, acd, de", &mut cat);
    let shortened = gyo::gamma::cycles::shorten_path(&d, &[0, 1, 2, 3]);
    if shortened == vec![0, 2, 3] {
        Ok("path 0-1-2-3 with chord (0,2) shortened to 0-2-3".into())
    } else {
        Err(format!("unexpected shortening: {shortened:?}"))
    }
}

fn f5() -> CheckResult {
    let mut cat = Catalog::alphabetic();
    let d = parse("acd, ab, bc, cd", &mut cat);
    let cycle = GammaCycle {
        rels: vec![0, 1, 2, 3],
        attrs: vec![AttrId(0), AttrId(1), AttrId(2), AttrId(3)],
    };
    if !cycle.verify(&d) {
        return Err("seed 4-cycle does not verify".into());
    }
    let contracted = contract_cycle(&d, &cycle);
    if contracted.len() == 3 && contracted.verify(&d) {
        Ok("4-cycle contracted to verified 3-cycle (acd, a, ab, b, bc, c)".into())
    } else {
        Err(format!("contraction failed: {contracted:?}"))
    }
}

fn f6() -> CheckResult {
    // The contracted cycle of F5 witnesses the (ii)-violation: deleting
    // R'₁ ∩ R'ₘ keeps the residues connected.
    let mut cat = Catalog::alphabetic();
    let d = parse("acd, ab, bc, cd", &mut cat);
    let (i, j) = gyo::gamma::violating_pair(&d).ok_or("no violating pair")?;
    let x = d.rel(i).intersect(d.rel(j));
    let deleted = d.delete_attrs(&x);
    let comps = deleted.connected_components();
    let connected = comps.iter().any(|c| c.contains(&i) && c.contains(&j));
    if connected {
        Ok(format!(
            "pair ({i},{j}) with X={} stays connected after deletion",
            x.to_notation(&cat)
        ))
    } else {
        Err("expected residues to stay connected".into())
    }
}

fn f7() -> CheckResult {
    let mut cat = Catalog::alphabetic();
    let mut out = Vec::new();
    for s in ["ab, bc, cd, da", "bcd, acd, abd, abc"] {
        let d = parse(s, &mut cat);
        let (i, j) =
            gyo::gamma::violating_pair(&d).ok_or_else(|| format!("{s}: no violating pair"))?;
        out.push(format!("{s}: pair ({i},{j}) stays connected"));
    }
    Ok(out.join("; "))
}

fn f8() -> CheckResult {
    // For a γ-acyclic schema, extend subtrees one relation at a time: every
    // connected subset must be a subtree (the Fig. 8 induction).
    let mut cat = Catalog::alphabetic();
    let d = parse("ab, abc, cd, ce", &mut cat);
    if !is_gamma_acyclic(&d) {
        return Err("example schema should be γ-acyclic".into());
    }
    let n = d.len();
    let mut checked = 0;
    for mask in 1u32..(1 << n) {
        let nodes: Vec<usize> = (0..n).filter(|&i| mask >> i & 1 == 1).collect();
        if !d.project_rels(&nodes).is_connected() {
            continue;
        }
        if !is_subtree(&d, &nodes) {
            return Err(format!("connected subset {nodes:?} is not a subtree"));
        }
        checked += 1;
    }
    Ok(format!("{checked} connected subsets, all subtrees"))
}

fn x1() -> CheckResult {
    let mut cat = Catalog::alphabetic();
    let d = parse("ab, bc, cd, de, ef, fg, gh, ha", &mut cat);
    let d_pp = parse("ab, abch, cdgh, defg, ef", &mut cat);
    let d_p = parse("abef, abch, cdgh, defg, ef", &mut cat);
    if classify(&d) != SchemaKind::Cyclic || classify(&d_p) != SchemaKind::Cyclic {
        return Err("D and D′ must be cyclic".into());
    }
    validate(&d_pp, &d_p, &d).ok_or("paper's D″ failed to validate")?;
    let found = find_tree_projection(&d_p, &d, 2, 2_000_000).ok_or("search found no TP")?;
    Ok(format!(
        "paper's D″ validates; search found a TP with {} members",
        found.schema.len()
    ))
}

fn x2() -> CheckResult {
    let mut cat = Catalog::alphabetic();
    let d = parse("abc, ab, bc", &mut cat);
    let lossless = implies_lossless(&d, &[1, 2]);
    let lossless_sem = implies_lossless_semantic(&d, &[1, 2]);
    let subtree = is_subtree(&d, &[1, 2]);
    if !lossless && !lossless_sem && !subtree {
        Ok("⋈D ⊭ ⋈D' by CC criterion, by semantic oracle, and (ab,bc) is not a subtree".into())
    } else {
        Err(format!(
            "expected all false: cc={lossless} sem={lossless_sem} subtree={subtree}"
        ))
    }
}

fn x3() -> CheckResult {
    let mut cat = Catalog::alphabetic();
    let d = parse("abg, bcg, acf, ad, de, ea", &mut cat);
    let x = AttrSet::parse("abc", &mut cat).unwrap();
    let cc = canonical_connection(&d, &x);
    let expected = parse("abg, bcg, ac", &mut cat);
    if cc != expected {
        return Err(format!("CC = {}", cc.to_notation(&cat)));
    }
    // Executable: pruned and full agree on random UR states.
    let pruned = prune_irrelevant(&d, &x);
    let q = JoinQuery::new(d.clone(), x.clone());
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..5 {
        let i = gyo_workloads::random_universal(&mut rng, &d.attributes(), 40, 4);
        let state = DbState::from_universal(&i, &d);
        if q.eval(&state) != pruned.eval(&d, &state) {
            return Err("pruned query diverged on a UR state".into());
        }
    }
    Ok(format!(
        "CC = {} (f column dropped, ad/de/ea pruned); agrees on 5 random UR states",
        cc.to_notation(&cat)
    ))
}

fn t1() -> CheckResult {
    let mut rng = StdRng::seed_from_u64(1);
    let mut cyclic_found = 0;
    for _ in 0..20 {
        let d = gyo_workloads::random_cyclic_schema(&mut rng, 5, 7, 3, 10);
        let w = find_cyclic_core(&d).ok_or("cyclic schema without witness")?;
        let check = d.delete_attrs(&w.deleted).reduce();
        if classify_core(&check) != Some(w.kind) {
            return Err("witness does not re-verify".into());
        }
        cyclic_found += 1;
    }
    for _ in 0..20 {
        let d = gyo_workloads::random_tree_schema(&mut rng, 6, 10, 0.5);
        if find_cyclic_core(&d).is_some() {
            return Err("tree schema produced a witness".into());
        }
    }
    Ok(format!(
        "{cyclic_found}/20 random cyclic schemas yielded verified witnesses; 20/20 tree schemas yielded none"
    ))
}

fn t2() -> CheckResult {
    let mut rng = StdRng::seed_from_u64(2);
    let mut checked = 0;
    for _ in 0..15 {
        let d = gyo_workloads::random_tree_schema(&mut rng, 5, 8, 0.5);
        let n = d.len();
        for mask in 0u32..(1 << n) {
            let nodes: Vec<usize> = (0..n).filter(|&i| mask >> i & 1 == 1).collect();
            let fast = is_subtree(&d, &nodes);
            let slow = oracle::is_subtree_bruteforce(&d, &nodes);
            if fast != slow {
                return Err(format!("mismatch on {d:?} nodes {nodes:?}"));
            }
            checked += 1;
        }
    }
    Ok(format!(
        "{checked} (schema, subset) pairs agree with brute force"
    ))
}

fn t3() -> CheckResult {
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..25 {
        let d = gyo_workloads::random_cyclic_schema(&mut rng, 5, 7, 3, 10);
        let w = treeifying_relation(&d);
        if !is_tree_schema(&d.with_rel(w.clone())) {
            return Err("U(GR(D)) failed to treeify".into());
        }
        // Any single relation missing an attribute of U(GR(D)) must fail.
        if !w.is_empty() {
            let mut smaller = w.clone();
            let first = smaller.iter().next().unwrap();
            smaller.remove(first);
            if is_tree_schema(&d.with_rel(smaller)) {
                return Err("a proper subset of U(GR(D)) treeified".into());
            }
        }
    }
    Ok("25/25 random cyclic schemas: U(GR(D)) treeifies, proper subsets do not".into())
}

fn t4() -> CheckResult {
    let mut rng = StdRng::seed_from_u64(4);
    let mut tree_eq = 0;
    let mut le_checked = 0;
    for round in 0..20 {
        let d = if round % 2 == 0 {
            gyo_workloads::random_tree_schema(&mut rng, 4, 7, 0.5)
        } else {
            gyo_workloads::random_cyclic_schema(&mut rng, 4, 6, 3, 10)
        };
        let u: Vec<AttrId> = d.attributes().iter().collect();
        let x = AttrSet::from_iter(u.iter().take(2).copied());
        let cc = cc_via_minimization(&d, &x);
        let g = gr(&d, &x);
        if !cc.le(&g) {
            return Err(format!("CC ≰ GR for {d:?}, X={x:?}"));
        }
        le_checked += 1;
        if is_tree_schema(&d) {
            if cc != canonical_connection(&d, &x) {
                return Err("fast path diverged from minimization on a tree".into());
            }
            tree_eq += 1;
        }
    }
    Ok(format!(
        "CC ≤ GR on {le_checked} random schemas; CC = GR on {tree_eq} tree schemas"
    ))
}

fn t5() -> CheckResult {
    let mut cat = Catalog::alphabetic();
    let d = parse("abg, bcg, acf, ad, de, ea", &mut cat);
    let x = AttrSet::parse("abc", &mut cat).unwrap();
    let full = JoinQuery::new(d.clone(), x.clone());
    let n = d.len();
    let mut agreements = 0;
    for mask in 1u32..(1 << n) {
        let nodes: Vec<usize> = (0..n).filter(|&i| mask >> i & 1 == 1).collect();
        let d_sub = d.project_rels(&nodes);
        if !x.is_subset(&d_sub.attributes()) {
            continue;
        }
        let sub = JoinQuery::new(d_sub, x.clone());
        let by_cc = joins_only_solvable(&d, &x, &nodes);
        let by_sem = weakly_equivalent_semantic(&full, &sub);
        if by_cc != by_sem {
            return Err(format!("mismatch on subset {nodes:?}"));
        }
        agreements += 1;
    }
    Ok(format!(
        "{agreements} sub-schemas: CC criterion ≡ frozen-tableau semantics"
    ))
}

fn t6() -> CheckResult {
    let instances = [
        (vec![3, 3], 1, 6, true),
        (vec![3, 3], 1, 5, false),
        (vec![3, 3], 2, 3, true),
        (vec![3, 4, 3], 2, 7, true),
        (vec![4, 4, 5], 2, 7, false),
        (vec![3, 3, 3, 3], 2, 6, true),
    ];
    for (sizes, k, b, feasible) in instances {
        let inst = BinPacking::new(sizes.clone(), k, b);
        let direct = solve_bin_packing(&inst).is_some();
        if direct != feasible {
            return Err(format!("bin packing {sizes:?} K={k} B={b}: got {direct}"));
        }
        let (d, blocks) = bin_packing_to_treefication(&inst);
        let via_schema =
            solve_aclique_treefication(&d, k, b).map_err(|e| format!("structured solver: {e}"))?;
        if via_schema.is_some() != feasible {
            return Err(format!("treefication side disagrees on {sizes:?}"));
        }
        if let Some(added) = via_schema {
            let back = treefication_witness_to_packing(&blocks, &added)
                .ok_or("witness did not cover all blocks")?;
            if !inst.is_valid(&back) {
                return Err("mapped-back packing invalid".into());
            }
        }
        // Cross-check the generic exact solver on the small instances.
        if d.attributes().len() <= 7 {
            let generic = solve_treefication_exact(&d, k, b);
            if generic.is_some() != feasible {
                return Err(format!("generic exact solver disagrees on {sizes:?}"));
            }
        }
    }
    Ok("6/6 instances agree across bin packing, structured, and generic solvers".into())
}

fn t7() -> CheckResult {
    let mut rng = StdRng::seed_from_u64(7);
    let mut checked = 0;
    for round in 0..12 {
        let d = if round % 2 == 0 {
            gyo_workloads::random_tree_schema(&mut rng, 4, 7, 0.5)
        } else {
            gyo_workloads::random_cyclic_schema(&mut rng, 4, 6, 3, 10)
        };
        let n = d.len();
        for mask in 1u32..(1 << n) {
            let nodes: Vec<usize> = (0..n).filter(|&i| mask >> i & 1 == 1).collect();
            let by_cc = implies_lossless(&d, &nodes);
            let by_sem = implies_lossless_semantic(&d, &nodes);
            if by_cc != by_sem {
                return Err(format!("CC vs semantic mismatch on {d:?} {nodes:?}"));
            }
            if is_tree_schema(&d) && by_cc != is_subtree(&d, &nodes) {
                return Err(format!("Cor 5.2 violated on {d:?} {nodes:?}"));
            }
            checked += 1;
        }
    }
    Ok(format!(
        "{checked} (schema, sub-schema) pairs agree (CC ≡ semantics ≡ subtree on trees)"
    ))
}

fn t8() -> CheckResult {
    let mut cat = Catalog::alphabetic();
    for (s, xs) in [
        ("abg, bcg, acf, ad, de, ea", "abc"),
        ("ab, bc, cd", "ad"),
        ("ab, bc, cd, da", "ac"),
    ] {
        let d = parse(s, &mut cat);
        let x = AttrSet::parse(xs, &mut cat).unwrap();
        let cc = gyo::query::min_equivalent_subschema(&d, &x);
        // Theorem 5.2: CC(D, U(D')) = D' for D' = CC(D, X).
        let again = canonical_connection(&d, &cc.attributes());
        if again != cc {
            return Err(format!("Thm 5.2 failed for ({s}, {xs})"));
        }
        // Minimality: the minimal tableau has |CC| rows.
        let t = Tableau::standard(&d, &x);
        if minimize(&t).tableau.row_count() != cc.len() {
            return Err(format!("CC size ≠ minimal tableau rows for ({s}, {xs})"));
        }
    }
    Ok("3/3 queries: CC(D, U(CC)) = CC and |CC| = minimal tableau size".into())
}

fn t9() -> CheckResult {
    let mut rng = StdRng::seed_from_u64(9);
    let mut checked = 0;
    for round in 0..30 {
        let d = if round % 2 == 0 {
            gyo_workloads::random_tree_schema(&mut rng, 4, 6, 0.5)
        } else {
            gyo_workloads::random_schema(&mut rng, 4, 6, 3)
        };
        let by_pairs = is_gamma_acyclic(&d);
        let by_cycle = find_weak_gamma_cycle(&d).is_none();
        let by_subtrees = is_gamma_acyclic_via_subtrees(&d);
        if by_pairs != by_cycle || by_pairs != by_subtrees {
            return Err(format!(
                "characterizations disagree on {d:?}: pairs={by_pairs} cycle={by_cycle} subtrees={by_subtrees}"
            ));
        }
        // Fagin (*): γ-acyclic ⟺ all connected sub-schemas lossless.
        let n = d.len();
        let mut all_lossless = true;
        for mask in 1u32..(1 << n) {
            let nodes: Vec<usize> = (0..n).filter(|&i| mask >> i & 1 == 1).collect();
            if d.project_rels(&nodes).is_connected() && !implies_lossless(&d, &nodes) {
                all_lossless = false;
                break;
            }
        }
        if all_lossless != by_pairs {
            return Err(format!("Fagin (*) violated on {d:?}"));
        }
        checked += 1;
    }
    Ok(format!(
        "{checked} random schemas: 3 characterizations + Fagin (*) all agree"
    ))
}

fn t10() -> CheckResult {
    let mut cat = Catalog::alphabetic();
    let d = parse("ab, bc, cd, da", &mut cat);
    let x = AttrSet::parse("ac", &mut cat).unwrap();
    let q = JoinQuery::new(d.clone(), x.clone());
    let cc = canonical_connection(&d, &x);
    let goal = cc.with_rel(x.clone());

    // Sufficiency: triangulating program + ≤ 2|D| semijoins solves.
    let mut p = Program::new(d.clone());
    p.join(0, 1);
    p.join(2, 3);
    let tp = find_tree_projection(&p.p_of_d(), &goal, 2, 1_000_000)
        .ok_or("triangulated program should admit a TP")?;
    let mut rng = StdRng::seed_from_u64(10);
    for _ in 0..8 {
        let i = gyo_workloads::random_universal(&mut rng, &d.attributes(), 30, 3);
        let state = DbState::from_universal(&i, &d);
        if solve_with_tree_projection(&p, &tp, &state, &x) != q.eval(&state) {
            return Err("TP-based solver diverged from naive".into());
        }
    }
    let semijoins = 2 * (tp.schema.len() - 1);

    // Necessity (contrapositive): a program without a TP fails somewhere.
    let mut bad = Program::new(d.clone());
    let j = bad.join(0, 1);
    bad.project(j, x.clone());
    if find_tree_projection(&bad.p_of_d(), &goal, 2, 1_000_000).is_some() {
        return Err("partial program unexpectedly has a TP".into());
    }
    if bad.find_counterexample(&q, &mut rng, 60, 30, 3).is_none() {
        return Err("no counterexample found for the TP-less program".into());
    }
    Ok(format!(
        "sufficiency: solved with {semijoins} ≤ {} semijoins on 8 UR states; necessity: TP-less program refuted",
        2 * d.len()
    ))
}

fn e1() -> CheckResult {
    use gyo::gamma::{acyclicity_report, is_beta_acyclic, AcyclicityLevel};
    let mut cat = Catalog::alphabetic();
    let rungs = [
        ("ab, bc, cd", AcyclicityLevel::Gamma),
        ("abc, ab, bc", AcyclicityLevel::Beta),
        ("abc, ab, bc, ac", AcyclicityLevel::Alpha),
        ("ab, bc, cd, da", AcyclicityLevel::Cyclic),
    ];
    for (s, expected) in rungs {
        let d = parse(s, &mut cat);
        let got = acyclicity_report(&d).level;
        if got != expected {
            return Err(format!("{s}: expected {expected:?}, got {got:?}"));
        }
    }
    // hierarchy on random schemas
    let mut rng = StdRng::seed_from_u64(101);
    for _ in 0..30 {
        let d = gyo_workloads::random_schema(&mut rng, 4, 6, 3);
        let alpha = is_tree_schema(&d);
        let beta = is_beta_acyclic(&d);
        let gamma = is_gamma_acyclic(&d);
        if (gamma && !beta) || (beta && !alpha) {
            return Err(format!("hierarchy violated on {d:?}"));
        }
    }
    Ok("4 separating rungs verified; γ ⟹ β ⟹ α on 30 random schemas".into())
}

fn e2() -> CheckResult {
    use gyo::query::is_ujr;
    let mut cat = Catalog::alphabetic();
    let mut rng = StdRng::seed_from_u64(102);
    // trees: UR states are UJR
    for s in ["ab, bc, cd", "abc, cde, ace", "ab, ac, ad"] {
        let d = parse(s, &mut cat);
        for _ in 0..4 {
            let i = gyo_workloads::random_universal(&mut rng, &d.attributes(), 20, 4);
            let state = DbState::from_universal(&i, &d);
            if !is_ujr(&d, &state) {
                return Err(format!("tree UR state not UJR for {s}"));
            }
        }
    }
    // cyclic cores: sampling finds a non-UJR UR state
    for s in ["ab, bc, ac", "ab, bc, cd, da"] {
        let d = parse(s, &mut cat);
        let mut found = false;
        for _ in 0..60 {
            let i = gyo_workloads::random_universal(&mut rng, &d.attributes(), 6, 2);
            let state = DbState::from_universal(&i, &d);
            if !is_ujr(&d, &state) {
                found = true;
                break;
            }
        }
        if !found {
            return Err(format!("no non-UJR UR state found for {s}"));
        }
    }
    Ok("3 tree families UJR on all samples; triangle & 4-ring yielded non-UJR UR states".into())
}
