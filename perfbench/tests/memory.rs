//! Peak memory must not depend on how long a run is, and so on how fast the
//! engine is: the latencies are kept in a fixed amount of memory. A file of
//! its own, so no other test shares the process and its peak.

use perfbench::{generate, run, Config, Scale};

#[test]
fn peak_rss_does_not_grow_with_run_length() {
    let w = generate("adhoc_fresh", 5, Scale::Tiny).expect("known workload");
    let peak = |seconds| {
        let r = run(&w, &Config::new(seconds, false));
        assert!(r.correct(), "{:?}", r.notes);
        r.metric("peak_rss_mb").expect("end-to-end metric")
    };
    let short = peak(0.1);
    let long = peak(3.0);
    assert!(
        long - short < 0.5,
        "peak RSS grew from {short} MB to {long} MB with a longer run"
    );
}
