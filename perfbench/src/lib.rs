//! End-to-end query benchmark for the GYO workspace.
//!
//! Generates a workload from a seed, drives one `TreeifyEngine` through the
//! public `Engine::{reduce, answer}` trait in a closed loop, checks every
//! result against an independently computed reference, and reports
//! end-to-end metrics, or, in the traced run, per-layer metrics. See
//! `README.md` in this directory for the workloads and what each metric
//! should move.

pub mod gen;
pub mod run;
pub mod stats;
pub mod trace;

pub use gen::{generate, Scale, WORKLOADS};
pub use run::{run, Config, Report, END_TO_END, PER_LAYER};
