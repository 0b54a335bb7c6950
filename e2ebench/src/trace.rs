//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a layer's public function
//! in a span; nothing inside the crates is instrumented. Spans nest
//! through the recorder's stack, so a span opened inside another's
//! closure records it as its parent. They stay in memory until the run
//! ends and are then written out as JSON lines.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.aggregate`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by the spans of one request or batch.
    pub request: u64,
}

/// Per-name aggregate over the recorded spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Total {
    /// Number of spans with this name.
    pub calls: u64,
    /// Summed self time, in nanoseconds.
    pub self_ns: u64,
}

/// Span recorder. With `enabled == false` it runs the wrapped calls and
/// records nothing, which gives the untraced reference for the overhead.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Calls and summed self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Total> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.self_ns += self_time((s.start_ns, s.end_ns), kids);
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"request":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        w.flush()
    }
}

/// A span's duration minus the part of it that its children cover.
/// Children are clipped to the span and overlapping children count once.
pub fn self_time(span: (u64, u64), children: &mut [(u64, u64)]) -> u64 {
    let (start, end) = span;
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(c0, c1) in children.iter() {
        let (c0, c1) = (c0.max(reach), c1.min(end));
        if c1 > c0 {
            covered += c1 - c0;
            reach = c1;
        }
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_part_once() {
        assert_eq!(self_time((0, 100), &mut []), 100);
        assert_eq!(self_time((0, 100), &mut [(10, 20), (30, 50)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time((0, 100), &mut [(10, 40), (20, 50)]), 60);
        // A child nested inside another adds nothing.
        assert_eq!(self_time((0, 100), &mut [(10, 60), (20, 30)]), 50);
        // Children are clipped to the parent's interval.
        assert_eq!(self_time((10, 100), &mut [(0, 20), (90, 120)]), 70);
        // Fully covered.
        assert_eq!(self_time((0, 100), &mut [(0, 100)]), 0);
    }

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut t = Tracer::new(true);
        t.span("root", 7, |t| {
            t.span("child", 7, |t| t.span("grandchild", 7, |_| std::hint::black_box(1)));
            t.span("child", 7, |_| ());
        });
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[3].parent, Some(0));
        assert!(s.iter().all(|s| s.request == 7 && s.end_ns >= s.start_ns));
        let totals = t.totals();
        assert_eq!(totals["child"].calls, 2);
        // Self times partition the root span exactly.
        let sum: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(sum, s[0].end_ns - s[0].start_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 0, |t| t.span("y", 0, |_| 5)), 5);
        assert!(t.spans().is_empty());
    }
}
