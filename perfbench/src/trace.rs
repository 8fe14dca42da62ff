//! In-memory span recorder for the traced replay.
//!
//! Spans are opened and closed around calls into the program's public API
//! from the benchmark's own code; nothing inside the program is
//! instrumented. The replay is single-threaded, so the open spans form a
//! stack and a span's children never overlap: a span's self time is its
//! duration minus the sum of its children's.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `costmodel.build`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin (equal to `start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The job (or ingest event) the span belongs to.
    pub job: usize,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    /// Summed durations, children included.
    pub total_ns: u64,
    /// Summed self times (duration minus children).
    pub self_ns: u64,
}

/// The recorder: an append-only span list plus the stack of open spans.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: usize,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the job id stamped on spans opened from now on.
    pub fn set_job(&mut self, job: usize) {
        self.job = job;
    }

    /// Opens a span under the innermost open one; close it with
    /// [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            job: self.job,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close in stack order");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Drops every recorded span (used after an untraced warm-up pass).
    pub fn clear(&mut self) {
        assert!(self.open.is_empty(), "cannot clear while spans are open");
        self.spans.clear();
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let totals = out.entry(span.name).or_default();
            totals.total_ns += span.duration_ns();
            totals.self_ns += span.duration_ns().saturating_sub(children);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"job\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.name, s.job, s.start_ns, s.end_ns, parent
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let root = t.enter("job");
        t.leaf("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.leaf("b", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(root);
        let totals = t.totals();
        let job = totals["job"];
        let children = totals["a"].total_ns + totals["b"].total_ns;
        assert_eq!(job.self_ns, job.total_ns - children);
        assert_eq!(totals["a"].self_ns, totals["a"].total_ns);
        assert_eq!(t.spans()[1].parent, Some(0));
    }
}
