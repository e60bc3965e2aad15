//! X1 — tree-projection existence search.
//!
//! Expected shape: trivial when `reduce(D′)` is already a tree; the
//! cover-driven search cost grows with ring size and with how many
//! connector members are allowed (existence is NP-hard in general).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gyo::treeproj::find_tree_projection;
use gyo::{AttrSet, Catalog, DbSchema};
use gyo_workloads::aring_n;
use std::hint::black_box;
use std::time::Duration;

/// D = n-ring; D′ = consecutive triangles (a fan triangulation), which
/// admits a TP.
fn triangulated_ring(n: usize) -> (DbSchema, DbSchema) {
    let d = aring_n(n);
    let tris: Vec<AttrSet> = (1..n as u32 - 1)
        .map(|i| AttrSet::from_raw(&[0, i, i + 1]))
        .collect();
    (d, DbSchema::new(tris))
}

fn bench_triangulated_rings(c: &mut Criterion) {
    let mut group = c.benchmark_group("treeproj/triangulated_ring");
    for n in [4usize, 6, 8] {
        let (d, d_p) = triangulated_ring(n);
        assert!(
            find_tree_projection(&d_p, &d, 2, 5_000_000).is_some(),
            "fan triangulation admits a TP"
        );
        group.bench_with_input(BenchmarkId::from_parameter(n), &(d, d_p), |b, (d, d_p)| {
            b.iter(|| black_box(find_tree_projection(d_p, d, 2, 5_000_000).is_some()))
        });
    }
    group.finish();
}

fn bench_paper_example(c: &mut Criterion) {
    let mut cat = Catalog::alphabetic();
    let d = DbSchema::parse("ab, bc, cd, de, ef, fg, gh, ha", &mut cat).unwrap();
    let d_p = DbSchema::parse("abef, abch, cdgh, defg, ef", &mut cat).unwrap();
    let mut group = c.benchmark_group("treeproj/section_3_2");
    group.bench_function("search", |b| {
        b.iter(|| black_box(find_tree_projection(&d, &d, 0, 10_000).is_some()));
        // the negative case (D against itself) is the costly direction
    });
    group.bench_function("paper_instance", |b| {
        b.iter(|| black_box(find_tree_projection(&d_p, &d, 2, 5_000_000).is_some()))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900));
    targets = bench_triangulated_rings, bench_paper_example
}
criterion_main!(benches);
