//! The traced run's span store: every span the benchmark times around a
//! call into the program, kept in memory and written as JSONL at the end.

use std::io::Write;
use std::time::Instant;

struct Span {
    name: String,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
    request: Option<u64>,
}

/// Spans in creation order; a span's id is its index.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span now; close it with [`SpanLog::close`].
    pub fn open(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> usize {
        let now = Instant::now();
        self.record(name, parent, request, now, now)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = Instant::now();
    }

    /// Adds a span whose ends were measured elsewhere.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            start,
            end,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn duration_us(&self, id: usize) -> f64 {
        let span = &self.spans[id];
        span.end.saturating_duration_since(span.start).as_secs_f64() * 1e6
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        request: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let id = self.open(name, parent, request);
        let value = f();
        self.close(id);
        (value, id)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// One JSON object per line: `span`, `name`, `parent`, `request`,
    /// `start_us`, `end_us` (µs since the log was created).
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
        for (id, span) in self.spans.iter().enumerate() {
            let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
            writeln!(
                out,
                "{{\"span\": {id}, \"name\": \"{}\", \"parent\": {}, \"request\": {}, \
                 \"start_us\": {:.1}, \"end_us\": {:.1}}}",
                span.name,
                opt(span.parent.map(|p| p as u64)),
                opt(span.request),
                at(span.start),
                at(span.end),
            )?;
        }
        out.flush()
    }
}
