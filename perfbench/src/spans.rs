//! Benchmark-side span recorder. Spans are kept in memory during the
//! traced run and written at the end as Chrome trace-event JSON, which
//! Perfetto and `chrome://tracing` open. With tracing off nothing is
//! recorded.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Span id; `0` means "no parent".
pub type SpanId = u64;

struct Span {
    name: String,
    cat: &'static str,
    tid: u32,
    start: Instant,
    end: Instant,
    id: SpanId,
    parent: SpanId,
}

pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    next: SpanId,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            next: 1,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Records a finished span on track `tid` and returns its id (0 when
    /// tracing is off).
    pub fn record(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        tid: u32,
        start: Instant,
        end: Instant,
        parent: SpanId,
    ) -> SpanId {
        if !self.on {
            return 0;
        }
        let id = self.next;
        self.next += 1;
        self.spans.push(Span {
            name: name.into(),
            cat,
            tid,
            start,
            end,
            id,
            parent,
        });
        id
    }

    /// Writes every span as a Chrome trace-event file; returns the span
    /// count.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<usize> {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let ts = s.start.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
            let dur = s.end.saturating_duration_since(s.start).as_secs_f64() * 1e6;
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \
                 \"ts\": {ts:.3}, \"dur\": {dur:.3}, \"args\": {{\"id\": {}, \"parent\": {}}}}}{sep}",
                s.name, s.cat, s.tid, s.id, s.parent
            );
        }
        out.push_str("]}\n");
        let mut f = std::fs::File::create(path)?;
        f.write_all(out.as_bytes())?;
        f.flush()?;
        Ok(self.spans.len())
    }
}
