//! F2/T1 — Lemma 3.1 witness search cost.
//!
//! Expected shape: instant when the schema already *is* a core (X = ∅
//! found first); exponential in the residue's attribute count when
//! deletions must be discovered — the search is over subsets of `U(GR(D))`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gyo::reduce::find_cyclic_core;
use gyo::{Catalog, DbSchema};
use gyo_workloads::{aclique_n, aring_n};
use std::hint::black_box;
use std::time::Duration;

fn bench_core_instances(c: &mut Criterion) {
    let mut group = c.benchmark_group("witness/cores");
    for n in [4usize, 8, 16] {
        group.bench_with_input(BenchmarkId::new("aring", n), &aring_n(n), |b, d| {
            b.iter(|| black_box(find_cyclic_core(d).is_some()))
        });
        group.bench_with_input(BenchmarkId::new("aclique", n), &aclique_n(n), |b, d| {
            b.iter(|| black_box(find_cyclic_core(d).is_some()))
        });
    }
    group.finish();
}

fn bench_smeared_instances(c: &mut Criterion) {
    // Schemas where the core is hidden behind deletions (Fig. 2c style):
    // residues of growing attribute count.
    let mut group = c.benchmark_group("witness/smeared");
    let mut cat = Catalog::alphabetic();
    let cases = [
        ("fig2c", "abce, bef, dif, cda, dab, bcd, cg"),
        ("pentagon", "abc, bcd, cde, dea, eab"),
        ("hexagon", "abc, bcd, cde, def, efa, fab"),
    ];
    for (name, s) in cases {
        let d = DbSchema::parse(s, &mut cat).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(name), &d, |b, d| {
            b.iter(|| black_box(find_cyclic_core(d).is_some()))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900));
    targets = bench_core_instances, bench_smeared_instances
}
criterion_main!(benches);
