//! The benchmark's own span store: std-only, unbounded, in memory, written
//! out when the run ends. It is deliberately independent of the program's
//! `obs` crate so that a change to the system's tracing never changes the
//! ruler that measures it.

use std::io::Write;
use std::time::Instant;

/// Index of a span in its store.
pub type SpanRef = usize;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanRef>,
    /// Groups the spans of one request (a batch, or one replayed message).
    pub request: u64,
    /// Calls the span covers; per-call figures divide by it.
    pub reps: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Duration per covered call.
    pub fn per_call_ns(&self) -> f64 {
        self.dur_ns() as f64 / f64::from(self.reps)
    }
}

pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans { epoch: Instant::now(), spans: Vec::new() }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Spans::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanRef>, request: u64) -> SpanRef {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request, reps: 1 });
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: SpanRef) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Times `reps` calls of `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanRef>,
        request: u64,
        reps: u32,
        mut f: impl FnMut() -> T,
    ) -> T {
        let s = self.begin(name, parent, request);
        let mut out = f();
        for _ in 1..reps {
            out = std::hint::black_box(f());
        }
        self.end(s);
        self.spans[s].reps = reps;
        out
    }

    /// Per-call durations of every span with this name.
    pub fn per_call(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::per_call_ns).collect()
    }

    pub fn get(&self, span: SpanRef) -> &Span {
        &self.spans[span]
    }

    /// Writes every span as one JSON array per line, after a first line
    /// that names the columns.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"columns\":[\"id\",\"name\",\"start_ns\",\"end_ns\",\"parent\",\"request\",\"reps\"]}}"
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "[{i},\"{}\",{},{},{parent},{},{}]",
                s.name, s.start_ns, s.end_ns, s.request, s.reps
            )?;
        }
        out.flush()
    }
}
