//! In-memory span recorder. Spans are taken by the benchmark around its
//! own calls into each layer's public functions (the program itself is
//! not instrumented) and written out once the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique within a run.
    pub id: u64,
    /// The span that caused this one (`0` for a root).
    pub parent: u64,
    /// Layer call, e.g. `serve.push`.
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Session or segment the call served.
    pub key: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// A per-thread recorder; disabled recorders keep nothing.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// High bits of every id this recorder mints, so ids stay unique
    /// when per-thread recorders merge.
    tag: u64,
    next: u64,
    spans: Option<Vec<Span>>,
}

impl Tracer {
    /// A recorder on `epoch`; `tag` distinguishes threads.
    pub fn new(epoch: Instant, tag: u64, enabled: bool) -> Tracer {
        Tracer {
            epoch,
            tag,
            next: 0,
            spans: enabled.then(Vec::new),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span that ran from `start` to `end`; returns its id
    /// (`0` when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        key: u64,
    ) -> u64 {
        if self.spans.is_none() {
            return 0;
        }
        self.next += 1;
        let id = (self.tag << 40) | self.next;
        let span = Span {
            id,
            parent,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            key,
        };
        if let Some(spans) = &mut self.spans {
            spans.push(span);
        }
        id
    }

    /// Runs `f` inside a span (just runs it when disabled).
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        key: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if self.spans.is_none() {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, key);
        out
    }

    /// Moves another thread's spans into this recorder.
    pub fn absorb(&mut self, other: Tracer) {
        if let (Some(mine), Some(theirs)) = (&mut self.spans, other.spans) {
            mine.extend(theirs);
        }
    }

    /// Durations (µs) of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .flatten()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    /// Writes every span as CSV (`id,parent,name,start_ns,end_ns,key`),
    /// in start order.
    pub fn write_csv(&mut self, path: &Path) -> std::io::Result<()> {
        let Some(spans) = &mut self.spans else {
            return Ok(());
        };
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,name,start_ns,end_ns,key")?;
        for s in spans.iter() {
            writeln!(
                out,
                "{},{},{},{},{},{}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.key
            )?;
        }
        out.flush()
    }
}
