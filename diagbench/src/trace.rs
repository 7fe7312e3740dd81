//! In-memory span recorder for the traced replay.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each layer's public functions. Every span carries its name, start,
//! end, the span that was open when it began (its parent) and the
//! request it belongs to. Spans stay in memory while the replay runs and
//! are written out once at the end ([`Tracer::write_tsv`]).
//!
//! A layer's *self time* is its span minus the time its direct child
//! spans cover ([`self_times`]); the replay is single-threaded, so
//! children never overlap.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent id of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span (times in nanoseconds since the tracer started).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer function the span wraps (`"http.parse"`, `"voi.rank"`, ...).
    pub name: &'static str,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Request the span belongs to (shared by every span of one request).
    pub request: u32,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span (ignored when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct Open(usize);

/// The recorder. With tracing off every call is a branch and nothing
/// more, so the same replay code serves the untraced oracle.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    request: u32,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// Tags every following span with `request`.
    pub fn set_request(&mut self, request: u32) {
        self.request = request;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(usize::MAX);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            request: self.request,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack
            .push(u32::try_from(index).expect("fewer than 2^32 spans"));
        Open(index)
    }

    /// Closes a span opened by [`Tracer::begin`] (innermost first).
    pub fn end(&mut self, open: Open) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        self.spans[open.0].end_ns = end;
        let popped = self.stack.pop();
        debug_assert_eq!(
            popped.map(|i| i as usize),
            Some(open.0),
            "spans close innermost first"
        );
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Every span recorded so far, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration (µs) of the spans named `name` recorded at or after
    /// index `from` — the per-request sum the replay's derived metrics use.
    pub fn sum_us_since(&self, from: usize, name: &str) -> f64 {
        self.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e3)
            .sum()
    }

    /// Writes every span as tab-separated `request id parent name
    /// start_ns end_ns` lines.
    ///
    /// # Errors
    ///
    /// Propagates file errors.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "request\tid\tparent\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{}\t{id}\t{parent}\t{}\t{}\t{}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time (ns) of every span: its duration minus the durations of its
/// direct children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize] += s.ns();
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| s.ns().saturating_sub(c))
        .collect()
}

/// Durations (µs) of every span named `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.ns() as f64 / 1e3)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            request: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("request", NO_PARENT, 0, 100),
            span("a", 0, 10, 40),
            span("a.inner", 1, 15, 35),
            span("b", 0, 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 10, 20, 40]);
    }

    #[test]
    fn nesting_follows_the_open_stack_and_off_records_nothing() {
        let mut on = Tracer::new(true);
        on.set_request(7);
        let outer = on.begin("outer");
        on.span("inner", || std::hint::black_box(3));
        on.end(outer);
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert!(spans
            .iter()
            .all(|s| s.request == 7 && s.end_ns >= s.start_ns));
        let mut off = Tracer::new(false);
        let open = off.begin("outer");
        off.end(open);
        assert!(off.spans().is_empty());
    }
}
