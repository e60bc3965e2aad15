//! The benchmark's own checks, at tiny scale: every workload runs clean in
//! both modes, a corrupted result counts as failed, the plan-cache miss
//! ratio separates the cold workload from the warm ones, and
//! `BENCHMARK.json` names exactly the metrics the runner prints.

use perfbench::{generate, run, Config, Report, Scale, END_TO_END, PER_LAYER, WORKLOADS};

fn tiny(name: &str, trace: bool) -> Report {
    let w = generate(name, 3, Scale::Tiny).expect("known workload");
    run(&w, &Config::new(0.05, trace))
}

fn names(r: &Report) -> Vec<&str> {
    r.metrics.iter().map(|m| m.0).collect()
}

#[test]
fn every_workload_runs_clean_in_both_modes() {
    for name in WORKLOADS {
        let r = tiny(name, false);
        assert!(r.correct(), "{name}: {:?}", r.notes);
        assert!(r.attempted > 0);
        assert_eq!(names(&r), END_TO_END.map(|m| m.0), "{name}");
        for (metric, value, _) in &r.metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{name} {metric} = {value}"
            );
        }
        let last = r.json();
        assert!(last.starts_with("{\"correct\": true, \"attempted\": "));
        assert!(!last.contains('\n'));

        let t = tiny(name, true);
        assert!(t.correct(), "{name} traced: {:?}", t.notes);
        assert_eq!(names(&t), PER_LAYER.map(|m| m.0), "{name}");
        assert!(t.metrics.iter().all(|m| m.1.is_finite()), "{name}");
        assert!(t.metric("exec.steps").unwrap() > 0.0, "{name}");
    }
}

#[test]
fn corrupted_results_count_as_failed() {
    let w = generate("tree_reuse", 3, Scale::Tiny).unwrap();
    let mut cfg = Config::new(0.05, false);
    cfg.corrupt_every = 3;
    let r = run(&w, &cfg);
    assert!(!r.correct());
    assert!(
        r.failed > 0 && r.failed < r.attempted,
        "{} of {}",
        r.failed,
        r.attempted
    );
    assert!(r.json().starts_with("{\"correct\": false"));
}

#[test]
fn plan_cache_misses_on_every_adhoc_op_and_never_on_warm_ops() {
    let miss = |name| tiny(name, true).metric("plan.miss_ratio").unwrap();
    assert_eq!(miss("adhoc_fresh"), 1.0);
    assert_eq!(miss("tree_reuse"), 0.0);
    assert_eq!(miss("cyclic_treeify"), 0.0);
}

#[test]
fn treeify_layer_runs_only_on_cyclic_schemas() {
    let tree = tiny("tree_reuse", true);
    assert_eq!(tree.metric("treeify.w_join_us"), Some(0.0));
    let cyclic = tiny("cyclic_treeify", true);
    assert!(cyclic.metric("treeify.w_join_us").unwrap() > 0.0);
    assert!(cyclic.metric("treeify.w_rows").unwrap() > 0.0);
}

#[test]
fn benchmark_json_names_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "missing {entry}");
    }
    // Every gated workload is one the runner knows; not every runnable one
    // is gated (see README).
    let gated = WORKLOADS
        .iter()
        .filter(|name| text.contains(&format!("\"name\": \"{name}\"")))
        .count();
    assert!(gated >= 2);
    assert_eq!(text.matches("\"why\": ").count(), gated);
    let listed = text.matches("\"unit\": ").count();
    assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
}
