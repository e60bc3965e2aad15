//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable lines, then one JSON result as the last line of
//! standard output. Exits 1 when any op failed, 2 on bad arguments.

use std::process::ExitCode;

use perfbench::{generate, run, Config, Scale, WORKLOADS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .map(|v| seconds = v)
                .is_ok_and(|_| seconds > 0.0),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    trace = value == "1";
                    true
                }
                _ => false,
            },
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if !ok {
            return usage(&format!("bad value {value} for {flag}"));
        }
    }
    let Some(name) = workload else {
        return usage("--workload is required");
    };
    let Some(w) = generate(&name, seed, Scale::Full) else {
        return usage(&format!("unknown workload {name}"));
    };

    let mut cfg = Config::new(seconds, trace);
    if trace {
        cfg.trace_out = Some(
            [env!("CARGO_MANIFEST_DIR"), "traces", &format!("{name}.tsv")]
                .iter()
                .collect(),
        );
    }
    let report = run(&w, &cfg);
    println!(
        "workload {name}: seed {seed}, {} items, {} ops per pass, one client, closed loop",
        w.items.len(),
        w.ops.len()
    );
    for note in &report.notes {
        println!("{note}");
    }
    for (n, v, u) in &report.metrics {
        println!("{n} = {v} {u}");
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}
