//! Compares bench baseline files captured via the criterion shim's
//! `GYO_BENCH_SAVE` hook (one JSON object per line:
//! `{"id": …, "median_ns": …, …}`).
//!
//! ```text
//! bench_compare BASELINE CURRENT [--filter SUBSTRING] [--fail-above FACTOR]
//!               [--summary]
//!     Per-id table of baseline vs. current medians with ratios; with
//!     --fail-above, exits nonzero if any shared id regressed by more than
//!     FACTOR× (e.g. 2.0). --filter restricts the table (and the gate) to
//!     ids containing SUBSTRING — CI uses it to hold specific bench
//!     families (e.g. classify/materialize) to their own thresholds.
//!     --summary appends one line per bench *family* (the `group/subgroup`
//!     id prefix) with the geometric mean of its current/baseline ratios —
//!     the one-screen view of where a change helped and where it cost.
//!
//! bench_compare --ratio FILE NUMERATOR_ID DENOMINATOR_ID [MIN]
//!     Prints median(NUMERATOR_ID) / median(DENOMINATOR_ID) from one file;
//!     with MIN, exits nonzero if the ratio falls below it. Used by CI to
//!     assert the cached full-reducer plan's ≥10× win over the naive
//!     engine stays real.
//! ```
//!
//! The parser is deliberately hand-rolled for exactly the shim's flat
//! one-object-per-line output — no JSON dependency exists offline.

use std::collections::BTreeMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--ratio") => ratio_mode(&args[1..]),
        Some(_) if args.len() >= 2 && !args[0].starts_with("--") => compare_mode(&args),
        _ => {
            eprintln!(
                "usage: bench_compare BASELINE CURRENT [--filter SUBSTRING] [--fail-above FACTOR]\n\
                        bench_compare --ratio FILE NUMERATOR_ID DENOMINATOR_ID [MIN]"
            );
            ExitCode::from(2)
        }
    }
}

fn compare_mode(args: &[String]) -> ExitCode {
    let mut baseline = load(&args[0]);
    let mut current = load(&args[1]);
    let mut fail_above: Option<f64> = None;
    let mut filter: Option<String> = None;
    let mut summary = false;
    let mut rest = args[2..].iter();
    while let Some(flag) = rest.next() {
        match flag.as_str() {
            "--fail-above" => {
                fail_above = Some(
                    rest.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--fail-above needs a numeric FACTOR")),
                )
            }
            "--filter" => {
                filter = Some(
                    rest.next()
                        .cloned()
                        .unwrap_or_else(|| die("--filter needs a SUBSTRING")),
                )
            }
            "--summary" => summary = true,
            other => die(&format!("unknown flag {other}")),
        }
    }
    if let Some(f) = &filter {
        baseline.retain(|id, _| id.contains(f.as_str()));
        current.retain(|id, _| id.contains(f.as_str()));
        if baseline.is_empty() && current.is_empty() {
            die::<()>(&format!("--filter {f:?} matches no bench ids"));
        }
    }

    let mut worst: f64 = 0.0;
    let mut shared = 0usize;
    println!(
        "{:<55} {:>12} {:>12} {:>8}",
        "id", "baseline", "current", "ratio"
    );
    for (id, base_ns) in &baseline {
        let Some(cur_ns) = current.get(id) else {
            println!("{id:<55} {:>12} {:>12} {:>8}", fmt_ns(*base_ns), "-", "-");
            continue;
        };
        shared += 1;
        let ratio = cur_ns / base_ns;
        worst = worst.max(ratio);
        let marker = if ratio > 1.5 {
            " <-- slower"
        } else if ratio < 0.67 {
            " <-- faster"
        } else {
            ""
        };
        println!(
            "{id:<55} {:>12} {:>12} {:>7.2}x{marker}",
            fmt_ns(*base_ns),
            fmt_ns(*cur_ns),
            ratio
        );
    }
    for id in current.keys().filter(|id| !baseline.contains_key(*id)) {
        println!(
            "{id:<55} {:>12} {:>12} {:>8}",
            "-",
            fmt_ns(current[id]),
            "new"
        );
    }
    println!("\n{shared} shared ids; worst current/baseline ratio: {worst:.2}x");
    if summary {
        print_summary(&baseline, &current);
    }
    if let Some(limit) = fail_above {
        // A gate over zero shared ids would pass vacuously — e.g. after a
        // bench id rename leaves the baseline and current sides disjoint —
        // so an empty intersection is itself a failure.
        if shared == 0 {
            eprintln!("FAIL: --fail-above has no shared ids to compare");
            return ExitCode::FAILURE;
        }
        if worst > limit {
            eprintln!("FAIL: regression above {limit:.2}x");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Per-family geomean summary: ids group by their `group/subgroup` prefix
/// (everything before the third-to-last `/`-separated segment, i.e. the
/// criterion group name), and each family line reports the geometric mean
/// of the shared ids' current/baseline ratios. The geomean — not the
/// arithmetic mean — because ratios compose multiplicatively: a 2× win and
/// a 2× loss must cancel to 1.00x, not average to 1.25x.
fn print_summary(baseline: &BTreeMap<String, f64>, current: &BTreeMap<String, f64>) {
    let family_of = |id: &str| -> String {
        // ids look like `group/subgroup/function/param`; the criterion
        // group name is everything up to the last two segments.
        let parts: Vec<&str> = id.split('/').collect();
        if parts.len() > 2 {
            parts[..parts.len() - 2].join("/")
        } else {
            parts[0].to_string()
        }
    };
    let mut families: BTreeMap<String, (f64, usize)> = BTreeMap::new();
    for (id, base_ns) in baseline {
        if let Some(cur_ns) = current.get(id) {
            let e = families.entry(family_of(id)).or_insert((0.0, 0));
            e.0 += (cur_ns / base_ns).ln();
            e.1 += 1;
        }
    }
    if families.is_empty() {
        println!("\nno shared ids to summarize");
        return;
    }
    println!("\nper-family geomean (current/baseline):");
    println!("{:<40} {:>5} {:>9}", "family", "ids", "geomean");
    for (family, (log_sum, n)) in &families {
        let geomean = (log_sum / *n as f64).exp();
        let marker = if geomean > 1.1 {
            " <-- slower"
        } else if geomean < 0.9 {
            " <-- faster"
        } else {
            ""
        };
        println!("{family:<40} {n:>5} {geomean:>8.2}x{marker}");
    }
}

fn ratio_mode(args: &[String]) -> ExitCode {
    if args.len() < 3 {
        die::<()>("--ratio needs FILE NUMERATOR_ID DENOMINATOR_ID [MIN]");
    }
    let results = load(&args[0]);
    let lookup = |id: &str| -> f64 {
        *results
            .get(id)
            .unwrap_or_else(|| die(&format!("id {id:?} not found in {}", args[0])))
    };
    let (num, den) = (lookup(&args[1]), lookup(&args[2]));
    let ratio = num / den;
    println!(
        "{} / {} = {:.2}x  ({} / {})",
        args[1],
        args[2],
        ratio,
        fmt_ns(num),
        fmt_ns(den)
    );
    if let Some(min) = args.get(3) {
        let min: f64 = min.parse().unwrap_or_else(|_| die("MIN must be a number"));
        if ratio < min {
            eprintln!("FAIL: ratio {ratio:.2}x is below the required {min:.2}x");
            return ExitCode::FAILURE;
        }
        println!("OK: ratio {ratio:.2}x >= {min:.2}x");
    }
    ExitCode::SUCCESS
}

/// Loads `{"id": "...", "median_ns": N, ...}` lines into id → median. Later
/// lines win, so re-running a bench into the same file self-corrects.
fn load(path: &str) -> BTreeMap<String, f64> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    let mut out = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let id = field_str(line, "id")
            .unwrap_or_else(|| die(&format!("{path}:{}: no \"id\" field", lineno + 1)));
        let median = field_num(line, "median_ns")
            .unwrap_or_else(|| die(&format!("{path}:{}: no \"median_ns\" field", lineno + 1)));
        out.insert(id, median);
    }
    if out.is_empty() {
        die::<()>(&format!("{path}: no bench results"));
    }
    out
}

/// Extracts `"key":"value"` from a flat JSON object line (values never
/// contain escapes: bench ids are `[A-Za-z0-9_/]+`).
fn field_str(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\":\"");
    let start = line.find(&tag)? + tag.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

/// Extracts `"key":<number>` from a flat JSON object line.
fn field_num(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

fn die<T>(msg: &str) -> T {
    eprintln!("bench_compare: {msg}");
    std::process::exit(2);
}
