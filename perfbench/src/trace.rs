//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions (never inside the library). A span has a name,
//! start and end offsets from the recorder's origin, the span that was open
//! when it started (its parent) and the id of the operation it served.
//! Everything stays in memory until [`Tracer::write_tsv`] at the end of the
//! run. The traced code is single-threaded, so children never overlap and a
//! span's self time is its duration minus the sum of its children's.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified span name, e.g. `topk.ta`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's origin (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation (query, tick, update batch, probe) the span served.
    pub op: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Totals of all spans with one name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanTotals {
    /// Number of spans.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times (duration minus children).
    pub self_ns: u64,
}

impl SpanTotals {
    /// Mean duration in milliseconds (0 when no span was recorded).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e6
        }
    }

    /// Mean self time in milliseconds (0 when no span was recorded).
    pub fn mean_self_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e6
        }
    }
}

/// Records nested spans of one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 14),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, op: u64) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            op,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` and any span left open inside it.
    pub fn exit(&mut self, id: usize) {
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, op);
        let out = f();
        self.exit(id);
        out
    }

    /// Count, total and self time of the spans named `name`.
    pub fn totals(&self, name: &str) -> SpanTotals {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut totals = SpanTotals::default();
        for (i, span) in self.spans.iter().enumerate() {
            if span.name == name {
                totals.count += 1;
                totals.total_ns += span.duration_ns();
                totals.self_ns += span.duration_ns().saturating_sub(child_ns[i]);
            }
        }
        totals
    }

    /// Writes every span as a tab-separated line: id, name, start, end,
    /// parent (or `-`), operation id.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\top")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.op
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
        let outer = t.enter("outer", 0);
        t.span("inner", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(outer);
        let outer = t.totals("outer");
        let inner = t.totals("inner");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert_eq!(outer.self_ns + inner.total_ns, outer.total_ns);
        assert!(inner.total_ns >= 2_000_000);
        assert_eq!(t.spans[1].parent, Some(0));
    }
}
