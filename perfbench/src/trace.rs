//! In-memory span recorder for the traced run. Spans are kept in a `Vec`
//! and written out once, after the run, as a tab-separated file.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in the recorder.
pub type SpanId = usize;

/// One timed call: its name, start and end (ns since the recorder was made),
/// the span that caused it, and the op it belongs to.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call name, e.g. `exec.semijoin`.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin (0 while open).
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// The op the span belongs to (`u64::MAX` for set-up work).
    pub op: u64,
}

impl Span {
    /// Duration in µs.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// All spans, in start order.
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Opens a span.
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, op: u64) -> SpanId {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Closes a span.
    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Runs `f` inside a span; returns its result.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, op);
        let out = f();
        self.end(id);
        out
    }

    /// Writes the spans as tab-separated lines under a header (`-` marks
    /// a missing parent or op), then one `#count` line per count.
    pub fn write(&self, path: &Path, counts: &[(&str, f64)]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\top")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let op = if s.op == u64::MAX {
                "-".to_string()
            } else {
                s.op.to_string()
            };
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{parent}\t{op}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        for (name, value) in counts {
            writeln!(out, "#count\t{name}\t{value}")?;
        }
        out.flush()
    }
}
