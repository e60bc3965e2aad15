//! The closed-loop runner: set-up, correctness reference, the timed phase,
//! and the traced phase with per-layer attribution.
//!
//! One client drives one `TreeifyEngine` through `Engine::{reduce, answer}`
//! from one thread; the next op starts only after the previous one returned
//! and its result was checked. Per-layer numbers come from a separate traced
//! run that times, from outside, calls into each layer's public functions.

use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use gyo_query::{
    full_reduce, reduce_via_treeification, solve_tree_query, solve_via_treeification, Engine,
    NaiveEngine, TreeifyEngine, TreeifyPlan,
};
use gyo_reduce::gyo_reduce;
use gyo_relation::{semijoin_program_with, DbState, ExecScratch, Relation};
use gyo_schema::AttrSet;

use crate::gen::{mix, Item, Op, OpKind, Workload};
use crate::stats::{median, peak_rss_mb, tail, Hist};
use crate::trace::{SpanId, Tracer};

/// End-to-end metrics (untraced run): name and unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("answer_p50_ms", "ms"),
    ("answer_tail_ms", "ms"),
    ("reduce_p50_ms", "ms"),
    ("reduce_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run): name and unit.
pub const PER_LAYER: [(&str, &str); 23] = [
    ("plan.lookup_us", "us"),
    ("plan.compile_us", "us"),
    ("plan.miss_ratio", "ratio"),
    ("plan.cached", "count"),
    ("gyo.reduce_us", "us"),
    ("gyo.residue_rels", "count"),
    ("exec.semijoin_us", "us"),
    ("exec.steps", "count"),
    ("exec.rows_in", "count"),
    ("exec.rows_out", "count"),
    ("exec.survival", "ratio"),
    ("exec.ns_per_row_in", "ns"),
    ("exec.reduce_share", "ratio"),
    ("joinup.us", "us"),
    ("joinup.share", "ratio"),
    ("joinup.out_rows", "count"),
    ("treeify.w_join_us", "us"),
    ("treeify.w_rows", "count"),
    ("treeify.w_survival", "ratio"),
    ("treeify.ext_semijoin_us", "us"),
    ("treeify.reduce_share", "ratio"),
    ("relation.load_us", "us"),
    ("trace.overhead_frac", "ratio"),
];

/// How many of the least-disturbed untraced passes the end-to-end latencies
/// and `ops_per_s` pool: on a shared 2-vCPU host, other tenants slow
/// memory-heavy code by up to 60% for stretches of seconds to minutes. A
/// fixed count keeps the sample count, so the tail percentile, and the
/// memory holding the samples the same however fast the engine is.
const CALM_PASSES: usize = 16;

/// How many times set-up is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 15;

/// Run settings.
#[derive(Clone, Debug)]
pub struct Config {
    /// Length of the measured phase, in seconds.
    pub seconds: f64,
    /// Run the traced phase and report per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Where the traced run writes its spans (`None`: keep them in memory).
    pub trace_out: Option<PathBuf>,
    /// Self-test of the checker: when nonzero, every `corrupt_every`-th op
    /// result is altered before it is checked, so it must count as failed.
    pub corrupt_every: usize,
}

impl Config {
    /// Settings for a run of `seconds`.
    pub fn new(seconds: f64, trace: bool) -> Self {
        Self {
            seconds,
            trace,
            trace_out: None,
            corrupt_every: 0,
        }
    }
}

/// What a run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops run and checked.
    pub attempted: u64,
    /// Ops that returned `Err`, panicked, or returned a wrong result.
    pub failed: u64,
    /// `(name, value, unit)` in the order of [`END_TO_END`] or [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Whether every op returned the reference result.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// A metric's value by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Row count plus an order-independent hash of the rows (and attributes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    rows: u64,
    hash: u64,
}

fn fingerprint_rel(r: &Relation) -> Fingerprint {
    let mut hash = r.attrs().iter().fold(0, |h, a| mix(h ^ u64::from(a.0)));
    for row in r.rows() {
        hash = hash.wrapping_add(mix(row.iter().fold(0x5EED, |h, &v| mix(h ^ v))));
    }
    Fingerprint {
        rows: r.len() as u64,
        hash,
    }
}

/// An op's result.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// From `Engine::reduce`.
    Reduced(DbState),
    /// From `Engine::answer`.
    Answered(Relation),
}

impl Outcome {
    /// The result's fingerprint.
    pub fn fingerprint(&self) -> Fingerprint {
        match self {
            Outcome::Answered(r) => fingerprint_rel(r),
            Outcome::Reduced(s) => {
                s.rels()
                    .iter()
                    .enumerate()
                    .fold(Fingerprint { rows: 0, hash: 0 }, |acc, (i, r)| {
                        let f = fingerprint_rel(r);
                        Fingerprint {
                            rows: acc.rows + f.rows,
                            hash: acc.hash.wrapping_add(mix(f.hash ^ mix(i as u64))),
                        }
                    })
            }
        }
    }

    /// The same result with one row dropped (or, if empty, one added) from
    /// the answer or from the first reduced relation.
    pub fn corrupted(self) -> Outcome {
        fn tweak(r: &Relation) -> Relation {
            let arity = r.arity();
            if r.is_empty() {
                Relation::from_row_major(r.attrs().clone(), 1, vec![u64::MAX; arity])
            } else {
                let rows = r.len() - 1;
                Relation::from_row_major(r.attrs().clone(), rows, r.data()[..rows * arity].to_vec())
            }
        }
        match self {
            Outcome::Answered(r) => Outcome::Answered(tweak(&r)),
            Outcome::Reduced(mut s) => {
                let first = tweak(s.rel(0));
                *s.rel_mut(0) = first;
                Outcome::Reduced(s)
            }
        }
    }
}

/// One engine call through the public trait; `Err` and panics become
/// failure messages.
fn call(
    engine: &TreeifyEngine,
    item: &Item,
    state: &DbState,
    kind: OpKind,
) -> Result<Outcome, String> {
    let run = || match kind {
        OpKind::Reduce => Engine::reduce(engine, &item.schema, state).map(Outcome::Reduced),
        OpKind::Answer(x) => {
            Engine::answer(engine, &item.schema, state, &item.xs[x]).map(Outcome::Answered)
        }
    };
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(Ok(out)) => Ok(out),
        Ok(Err(e)) => Err(e.to_string()),
        Err(_) => Err("panicked".to_string()),
    }
}

/// The reference result, by a route independent of the engine under test:
/// the naive full join where it stays small, else the per-call tree or
/// treeification solvers (operator-at-a-time semijoins).
fn reference(item: &Item, state: &DbState, kind: OpKind) -> Fingerprint {
    let d = &item.schema;
    // `⋈D` joins left to right, so a relation sharing no attribute with
    // the ones before it makes a cross product; allow none.
    let mut seen = AttrSet::empty();
    let prefix_connected = d.iter().enumerate().all(|(i, r)| {
        let ok = i == 0 || r.intersects(&seen);
        seen = seen.union(r);
        ok
    });
    let naive = item.raw_rows() <= 512 && prefix_connected;
    let out = match kind {
        OpKind::Reduce => Outcome::Reduced(if naive {
            NaiveEngine
                .reduce(d, state)
                .expect("the naive engine is total")
        } else if item.is_tree {
            full_reduce(d, state).expect("tree schema")
        } else {
            reduce_via_treeification(d, state)
        }),
        OpKind::Answer(x) => {
            let x = &item.xs[x];
            Outcome::Answered(if naive {
                state.eval_join_query(x)
            } else if item.is_tree {
                solve_tree_query(d, state, x).expect("tree schema")
            } else {
                solve_via_treeification(d, state, x)
            })
        }
    };
    out.fingerprint()
}

/// Attempted/failed counts, keeping the first failure for the report.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl Tally {
    fn check(&mut self, out: &Result<Outcome, String>, want: Fingerprint, op: &Op) {
        self.attempted += 1;
        let problem = match out {
            Ok(o) if o.fingerprint() == want => return,
            Ok(_) => "result differs from the reference".to_string(),
            Err(e) => e.clone(),
        };
        self.failed += 1;
        self.first_failure
            .get_or_insert_with(|| format!("op {op:?}: {problem}"));
    }
}

/// Per-op layer counts, summed over the traced ops.
#[derive(Debug, Default)]
struct Counts {
    traced_ops: f64,
    misses: f64,
    cached: f64,
    residue_rels: f64,
    exec_probes: f64,
    steps: f64,
    rows_in: f64,
    rows_out: f64,
    exec_ns: f64,
    answers: f64,
    answer_us: f64,
    joinup_us: f64,
    out_rows: f64,
    w_joins: f64,
    w_rows: f64,
    w_reduced: f64,
    engine_traced_s: f64,
    /// Engine time of the traced reduce ops, and the probe times of the
    /// semijoin program and the `state(W)` join on their inputs.
    reduce_us: f64,
    reduce_exec_us: f64,
    reduce_w_join_us: f64,
}

/// A traced engine call whose layer calls are still to run.
struct TracedCall {
    k: usize,
    op: Op,
    span: SpanId,
    out: Result<Outcome, String>,
}

/// One untraced pass: the time spent inside engine calls, and the latency
/// (ms) of each op, `ms[k]` for `w.ops[k]`.
#[derive(Clone, Debug)]
struct Pass {
    busy_s: f64,
    ms: Vec<f64>,
}

/// The untraced passes, kept in a fixed amount of memory: the calmest
/// [`CALM_PASSES`] in full, and every pass in histograms and sums.
#[derive(Debug, Default)]
struct Passes {
    /// The calmest passes so far (least busy time), in no order.
    calm: Vec<Pass>,
    /// The buffer the next pass is recorded into.
    next: Option<Pass>,
    count: usize,
    busy_s: f64,
    reduce_ms: Hist,
    answer_ms: Hist,
}

impl Passes {
    /// Counts `pass` and keeps it if it is among the calmest so far; the
    /// buffer it displaces records the next pass.
    fn keep(&mut self, mut pass: Pass) {
        self.count += 1;
        self.busy_s += pass.busy_s;
        if self.calm.len() < CALM_PASSES {
            self.calm.push(pass.clone());
        } else if let Some(worst) = self
            .calm
            .iter_mut()
            .max_by(|a, b| a.busy_s.total_cmp(&b.busy_s))
            .filter(|worst| pass.busy_s < worst.busy_s)
        {
            std::mem::swap(worst, &mut pass);
        }
        self.next = Some(pass);
    }
}

struct Runner<'w> {
    w: &'w Workload,
    cfg: &'w Config,
    /// `refs[k]` is the reference for `w.ops[k]`.
    refs: Vec<Fingerprint>,
    tally: Tally,
    passes: Passes,
    tracer: Tracer,
    counts: Counts,
    joinup_us: Vec<f64>,
    scratch: ExecScratch,
    next_op: u64,
}

/// Runs workload `w` with `cfg`.
pub fn run(w: &Workload, cfg: &Config) -> Report {
    let mut r = Runner {
        w,
        cfg,
        refs: Vec::new(),
        tally: Tally::default(),
        passes: Passes::default(),
        tracer: Tracer::default(),
        counts: Counts::default(),
        joinup_us: Vec::new(),
        scratch: ExecScratch::new(),
        next_op: 0,
    };

    // Set-up: load every state, then make the first (cold) call of every
    // distinct op on a fresh engine. The first set-up serves the measured
    // phase, so plans and relation caches start warm.
    let distinct = distinct_ops(&w.ops);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let (mut engine, mut states) = r.setup(&distinct, cfg.trace, &mut setup_s);

    // The correctness reference, outside all timing.
    let mut by_op: HashMap<Op, Fingerprint> = HashMap::new();
    for op in &distinct {
        let item = &w.items[op.item];
        by_op.insert(*op, reference(item, &states[op.item], op.kind));
    }
    r.refs = w.ops.iter().map(|op| by_op[op]).collect();

    // The measured phase: whole passes until the time is up. The traced run
    // alternates untraced and traced passes, so the two see the same ops.
    // The other set-ups are spread evenly over the phase: the host's speed
    // drifts over seconds, and so their median sees the host the passes saw.
    let start = Instant::now();
    loop {
        if w.fresh_per_pass {
            engine = TreeifyEngine::new();
            states = r.load(false);
        }
        r.untraced_pass(&engine, &states);
        if cfg.trace {
            if w.fresh_per_pass {
                engine = TreeifyEngine::new();
                states = r.load(true);
            }
            r.traced_pass(&engine, &states);
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= cfg.seconds {
            break;
        }
        if elapsed >= cfg.seconds * setup_s.len() as f64 / SETUP_REPS as f64 {
            r.setup(&distinct, false, &mut setup_s);
        }
    }
    // Wall time of the passes, without the set-ups spread over them.
    let wall_s = start.elapsed().as_secs_f64() - setup_s[1..].iter().sum::<f64>();
    while setup_s.len() < SETUP_REPS {
        r.setup(&distinct, false, &mut setup_s);
    }
    r.counts.cached = cached(&engine) as f64;
    r.report(&mut setup_s, wall_s)
}

fn distinct_ops(ops: &[Op]) -> Vec<Op> {
    let mut seen = std::collections::HashSet::new();
    ops.iter().copied().filter(|op| seen.insert(*op)).collect()
}

/// Plans cached by the engine: tree plans, cyclic verdicts and extended
/// plans in the inner cache, plus treeified plans.
fn cached(engine: &TreeifyEngine) -> usize {
    engine.inner().cached_plan_count() + engine.cached_treeified_count()
}

/// `state(W)`, replayed from the plan's join order with the same early
/// projection onto `Rᵢ ∩ W` and the same empty-join exit as the engine.
fn replay_w(plan: &TreeifyPlan, item: &Item, state: &DbState) -> Relation {
    let w = plan.w();
    let mut acc = Relation::identity();
    for i in plan.join_order() {
        let core = item.schema.rel(i).intersect(w);
        acc = if &core == item.schema.rel(i) {
            acc.natural_join(state.rel(i))
        } else {
            acc.natural_join(&state.rel(i).project(&core))
        };
        if acc.is_empty() {
            return Relation::empty(w.clone());
        }
    }
    acc
}

impl Runner<'_> {
    /// One set-up, timed into `setup_s`: a fresh engine and freshly loaded
    /// states, with the cold first call of every op in `distinct` made.
    fn setup(
        &mut self,
        distinct: &[Op],
        traced: bool,
        setup_s: &mut Vec<f64>,
    ) -> (TreeifyEngine, Vec<DbState>) {
        let t0 = Instant::now();
        let states = self.load(traced);
        let engine = TreeifyEngine::new();
        for op in distinct {
            let _ = call(&engine, &self.w.items[op.item], &states[op.item], op.kind);
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        (engine, states)
    }

    fn load(&mut self, traced: bool) -> Vec<DbState> {
        let mut states = Vec::with_capacity(self.w.items.len());
        for item in &self.w.items {
            states.push(if traced {
                self.tracer
                    .time("relation.load", None, u64::MAX, || item.load())
            } else {
                item.load()
            });
        }
        states
    }

    fn check(&mut self, k: usize, out: Result<Outcome, String>) {
        let every = self.cfg.corrupt_every;
        let out = if every > 0 && k.is_multiple_of(every) {
            out.map(Outcome::corrupted)
        } else {
            out
        };
        self.tally.check(&out, self.refs[k], &self.w.ops[k]);
    }

    fn untraced_pass(&mut self, engine: &TreeifyEngine, states: &[DbState]) {
        let mut pass = self.passes.next.take().unwrap_or_else(|| Pass {
            busy_s: 0.0,
            ms: vec![0.0; self.w.ops.len()],
        });
        pass.busy_s = 0.0;
        for (k, op) in self.w.ops.iter().enumerate() {
            let t = Instant::now();
            let out = call(engine, &self.w.items[op.item], &states[op.item], op.kind);
            let dt = t.elapsed().as_secs_f64();
            pass.busy_s += dt;
            pass.ms[k] = dt * 1e3;
            match op.kind {
                OpKind::Reduce => self.passes.reduce_ms.add(dt * 1e3),
                OpKind::Answer(_) => self.passes.answer_ms.add(dt * 1e3),
            }
            self.check(k, out);
        }
        self.passes.keep(pass);
    }

    /// A traced pass. Each op's engine call gets a span; the calls into the
    /// layers on the same inputs run after the *next* op's engine call, so
    /// they meet caches as disturbed as the engine call did, not warmed by
    /// it.
    fn traced_pass(&mut self, engine: &TreeifyEngine, states: &[DbState]) {
        let mut pending = None;
        for (k, op) in self.w.ops.iter().enumerate() {
            let traced = self.traced_call(k, *op, engine, &states[op.item]);
            if let Some(prev) = pending.replace(traced) {
                self.probe_layers(prev, engine, states);
            }
        }
        if let Some(last) = pending {
            self.probe_layers(last, engine, states);
        }
    }

    /// The engine call of op `k`, in a span of its own.
    fn traced_call(
        &mut self,
        k: usize,
        op: Op,
        engine: &TreeifyEngine,
        state: &DbState,
    ) -> TracedCall {
        let id = self.next_op;
        self.next_op += 1;
        let before = cached(engine);
        let name = match op.kind {
            OpKind::Reduce => "engine.reduce",
            OpKind::Answer(_) => "engine.answer",
        };
        let span = self.tracer.begin(name, None, id);
        let out = call(engine, &self.w.items[op.item], state, op.kind);
        self.tracer.end(span);
        let c = &mut self.counts;
        c.engine_traced_s += self.tracer.spans[span].us() / 1e6;
        c.traced_ops += 1.0;
        if cached(engine) > before {
            c.misses += 1.0;
        }
        TracedCall { k, op, span, out }
    }

    /// Calls into each layer's public function on the inputs of a traced op,
    /// in spans whose parent is the op's engine call; then checks the op's
    /// result.
    fn probe_layers(&mut self, traced: TracedCall, engine: &TreeifyEngine, states: &[DbState]) {
        let TracedCall {
            k,
            op,
            span: root,
            out,
        } = traced;
        let item = &self.w.items[op.item];
        let state = &states[op.item];
        let d = &item.schema;
        let tr = &mut self.tracer;
        let c = &mut self.counts;
        let id = tr.spans[root].op;
        let engine_us = tr.spans[root].us();

        // plan: a compile on a fresh engine here, a warm lookup below.
        let fresh = TreeifyEngine::new();
        tr.time("plan.compile", Some(root), id, || {
            if let Err(err) = fresh.inner().plan(d) {
                fresh.treeified_plan(d, &err);
            }
        });
        drop(fresh);

        // gyo: the reduction every compile starts from.
        let red = tr.time("gyo.reduce", Some(root), id, || {
            gyo_reduce(d, &AttrSet::empty())
        });
        if !red.is_total() {
            c.residue_rels += red.result.len() as f64;
        }

        // exec (and treeify on cyclic schemas): the semijoin program over an
        // O(1) clone of the state.
        let mut rels = state.rels().to_vec();
        let mut replay_ok = true;
        let (parent, steps) = if item.is_tree {
            let plan = tr
                .time("plan.lookup", Some(root), id, || engine.inner().plan(d))
                .expect("tree schemas compile to a full-reducer plan");
            (root, plan.steps().to_vec())
        } else {
            let err = engine
                .inner()
                .plan(d)
                .expect_err("cyclic schemas carry a cached verdict");
            let plan = tr.time("plan.lookup", Some(root), id, || {
                engine.treeified_plan(d, &err)
            });
            let t = tr.begin("treeify", Some(root), id);
            let j = tr.begin("treeify.w_join", Some(t), id);
            let w_state = replay_w(&plan, item, state);
            tr.end(j);
            if op.kind == OpKind::Reduce {
                c.reduce_w_join_us += tr.spans[j].us();
            }
            replay_ok = w_state.attrs() == plan.w();
            c.w_joins += 1.0;
            c.w_rows += w_state.len() as f64;
            rels.push(w_state);
            (t, plan.tree_plan().steps().to_vec())
        };
        let rows_in: usize = rels.iter().map(Relation::len).sum();
        let e = tr.begin("exec.semijoin", Some(parent), id);
        semijoin_program_with(&mut rels, &steps, &mut self.scratch);
        tr.end(e);
        if parent != root {
            tr.end(parent);
            c.w_reduced += rels.last().map_or(0, Relation::len) as f64;
        }
        c.exec_probes += 1.0;
        c.steps += steps.len() as f64;
        c.rows_in += rows_in as f64;
        c.rows_out += rels.iter().map(Relation::len).sum::<usize>() as f64;
        c.exec_ns += tr.spans[e].us() * 1e3;
        if op.kind == OpKind::Reduce {
            c.reduce_us += engine_us;
            c.reduce_exec_us += tr.spans[e].us();
        }

        // joinup: answer − reduce on identical inputs (no public entry point).
        if let OpKind::Answer(_) = op.kind {
            let s = tr.begin("joinup.reduce_ref", Some(root), id);
            let _ = call(engine, item, state, OpKind::Reduce);
            tr.end(s);
            let joinup = engine_us - tr.spans[s].us();
            self.joinup_us.push(joinup);
            c.answers += 1.0;
            c.answer_us += engine_us;
            c.joinup_us += joinup;
            if let Ok(Outcome::Answered(a)) = &out {
                c.out_rows += a.len() as f64;
            }
        }
        self.check(
            k,
            out.and_then(|o| {
                replay_ok
                    .then_some(o)
                    .ok_or_else(|| "the state(W) replay is not over W".to_string())
            }),
        );
    }

    fn report(mut self, setup_s: &mut [f64], wall_s: f64) -> Report {
        // Read first, so nothing built below counts toward the peak.
        let peak_mb = peak_rss_mb();
        let mut rep = Report {
            attempted: self.tally.attempted,
            failed: self.tally.failed,
            ..Report::default()
        };
        let failed_frac = self.tally.failed as f64 / self.tally.attempted.max(1) as f64;
        rep.notes.push(format!(
            "failed_frac = {failed_frac} ({} of {} ops)",
            self.tally.failed, self.tally.attempted
        ));
        if let Some(f) = &self.tally.first_failure {
            rep.notes.push(format!("first failure: {f}"));
        }

        // End-to-end numbers come from the untraced passes in both modes.
        // Every pass runs the same ops, so passes differ only by how much
        // other tenants of the machine disturbed them. The p50s and
        // ops_per_s pool the calmest passes (least busy time). A tail is the
        // highest percentile with ten samples beyond it within one pass, and
        // its median over the calm passes: every pass has the same ops, so
        // the percentile never changes, and one disturbed op cannot set it.
        // A line of notes gives the plain figures over every pass.
        let p = &self.passes;
        let calm_busy_s: f64 = p.calm.iter().map(|c| c.busy_s).sum();
        let (mut reduce_ms, mut answer_ms) = (Vec::new(), Vec::new());
        let (mut reduce_tails, mut answer_tails) = (Vec::new(), Vec::new());
        let (mut reduce_p, mut answer_p) = (0.0, 0.0);
        let mut by_family: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
        for pass in &p.calm {
            let (mut reduces, mut answers) = (Vec::new(), Vec::new());
            for (op, &ms) in self.w.ops.iter().zip(&pass.ms) {
                let kind = match op.kind {
                    OpKind::Reduce => {
                        reduces.push(ms);
                        "reduce"
                    }
                    OpKind::Answer(_) => {
                        answers.push(ms);
                        "answer"
                    }
                };
                let family = self.w.items[op.item].family;
                by_family.entry((family, kind)).or_default().push(ms);
            }
            reduce_ms.extend_from_slice(&reduces);
            answer_ms.extend_from_slice(&answers);
            let (pct, value, _) = tail(&mut reduces);
            reduce_p = pct;
            reduce_tails.push(value);
            let (pct, value, _) = tail(&mut answers);
            answer_p = pct;
            answer_tails.push(value);
        }
        let reduces = self
            .w
            .ops
            .iter()
            .filter(|o| o.kind == OpKind::Reduce)
            .count();
        let e2e = [
            median(&mut answer_ms),
            median(&mut answer_tails),
            median(&mut reduce_ms),
            median(&mut reduce_tails),
            (p.calm.len() * self.w.ops.len()) as f64 / calm_busy_s,
            median(setup_s),
            peak_mb,
        ];
        rep.notes.push(format!(
            "latencies and ops_per_s from the calmest {} of {} untraced passes; \
             answer_tail_ms is the median over them of each pass's p{answer_p} of {} answers, \
             reduce_tail_ms of each pass's p{reduce_p} of {} reduces",
            p.calm.len(),
            p.count,
            self.w.ops.len() - reduces,
            reduces
        ));
        let ops = (p.count * self.w.ops.len()) as f64;
        rep.notes.push(format!(
            "over all untraced passes: answer_p50_ms {} answer_tail_ms {} \
             reduce_p50_ms {} reduce_tail_ms {} ops_per_s {} (in engine calls){}",
            p.answer_ms.quantile(0.5),
            p.answer_ms.quantile(answer_p / 100.0),
            p.reduce_ms.quantile(0.5),
            p.reduce_ms.quantile(reduce_p / 100.0),
            ops / p.busy_s,
            if self.cfg.trace {
                String::new()
            } else {
                format!(" {} (over the timed phase's wall time)", ops / wall_s)
            }
        ));
        rep.notes.push(format!(
            "setup_s is the median of {SETUP_REPS} set-ups, {} s to {} s",
            setup_s[0],
            setup_s[setup_s.len() - 1]
        ));
        for ((family, kind), v) in &mut by_family {
            let n = v.len();
            rep.notes.push(format!(
                "{family} {kind}: p50 {} ms over {n} calm-pass ops",
                median(v)
            ));
        }
        let e2e: Vec<_> = END_TO_END
            .iter()
            .zip(e2e)
            .map(|(&(n, u), v)| (n, v, u))
            .collect();
        if !self.cfg.trace {
            rep.metrics = e2e;
            return rep;
        }
        for (n, v, u) in &e2e {
            rep.notes.push(format!("untraced {n} = {v} {u}"));
        }
        rep.notes.push(
            "joinup.us is derived as answer - reduce on identical inputs: \
             join_up_tree has no public entry point"
                .to_string(),
        );
        let c = &self.counts;
        let tr = &self.tracer;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let med = |name: &str, parent: Option<&str>| {
            let mut v: Vec<f64> = tr
                .spans
                .iter()
                .filter(|s| s.name == name)
                .filter(|s| parent.is_none_or(|p| s.parent.is_some_and(|i| tr.spans[i].name == p)))
                .map(|s| s.us())
                .collect();
            median(&mut v)
        };
        let values = [
            med("plan.lookup", None),
            med("plan.compile", None),
            ratio(c.misses, c.traced_ops),
            c.cached,
            med("gyo.reduce", None),
            ratio(c.residue_rels, c.traced_ops),
            med("exec.semijoin", None),
            ratio(c.steps, c.exec_probes),
            ratio(c.rows_in, c.exec_probes),
            ratio(c.rows_out, c.exec_probes),
            ratio(c.rows_out, c.rows_in),
            ratio(c.exec_ns, c.rows_in),
            ratio(c.reduce_exec_us, c.reduce_us),
            median(&mut self.joinup_us),
            ratio(c.joinup_us, c.answer_us),
            ratio(c.out_rows, c.answers),
            med("treeify.w_join", None),
            ratio(c.w_rows, c.w_joins),
            ratio(c.w_reduced, c.w_rows),
            med("exec.semijoin", Some("treeify")),
            ratio(c.reduce_w_join_us, c.reduce_us),
            med("relation.load", None),
            // The traced passes ran the same ops as the untraced ones.
            ratio(c.engine_traced_s, self.passes.busy_s) - 1.0,
        ];
        rep.metrics = PER_LAYER
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, v, u))
            .collect();
        if let Some(path) = &self.cfg.trace_out {
            let counts = [
                ("traced_ops", c.traced_ops),
                ("plan.misses", c.misses),
                ("exec.probes", c.exec_probes),
                ("exec.steps", c.steps),
                ("exec.rows_in", c.rows_in),
                ("exec.rows_out", c.rows_out),
                ("answers", c.answers),
                ("joinup.out_rows", c.out_rows),
                ("treeify.w_joins", c.w_joins),
                ("treeify.w_rows", c.w_rows),
                ("treeify.w_reduced_rows", c.w_reduced),
            ];
            match tr.write(path, &counts) {
                Ok(()) => rep.notes.push(format!(
                    "{} spans written to {}",
                    tr.spans.len(),
                    path.display()
                )),
                Err(e) => rep
                    .notes
                    .push(format!("could not write {}: {e}", path.display())),
            }
        }
        rep
    }
}
