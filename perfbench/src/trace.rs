//! An in-memory span recorder for the traced runs.
//!
//! The benchmark wraps each call it makes into a layer's public function
//! in a span: name, start, end, the enclosing span and an operation id
//! shared by every span of one operation (one fit, one stream pass, one
//! replayed request). Spans stay in memory until the run ends, when
//! [`Tracer::write_jsonl`] writes them out. A span's *self time* is its
//! duration minus the part of it that its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified stage name, e.g. `grid.quantize`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation this span belongs to.
    pub op: u64,
}

impl Span {
    /// Wall time from start to end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans against one monotonic epoch.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A tracer with no spans, its clock starting now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Start a new operation: spans recorded from now on carry its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span called `name`, nested under the innermost
    /// open span. `f` gets the tracer back to record child spans.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let op = self.op;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per operation, the total duration of the spans called `name`, in
    /// seconds: one value for each operation that recorded such a span.
    pub fn per_op_seconds(&self, name: &str) -> Vec<f64> {
        let mut per_op: BTreeMap<u64, u64> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            *per_op.entry(span.op).or_default() += span.duration_ns();
        }
        per_op.values().map(|&ns| ns as f64 * 1e-9).collect()
    }

    /// Durations in seconds of every span called `name`, in start order.
    pub fn call_seconds(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// Write every span as one JSON object per line, with its self time.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let self_ns = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (span, own)) in self.spans.iter().zip(&self_ns).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                span.name, span.op, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Run `f` inside a span called `name` when a tracer is given, bare
/// otherwise: one code path serves the traced and the untraced run.
pub fn in_span<R>(t: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match t {
        Some(t) => t.span(name, |_| f()),
        None => f(),
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, clipped to the span itself (so overlapping or
/// overhanging children are not subtracted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent.filter(|&p| p < spans.len()) {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("fit", 0, 100, None),
            span("a", 10, 30, Some(0)),
            // Overlaps `a` by 10 ns: the union covers 10..50.
            span("b", 20, 50, Some(0)),
            // A grandchild only reduces its own parent.
            span("b.inner", 25, 35, Some(2)),
            // Overhangs the parent's end: only 90..100 counts.
            span("c", 90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 10, 30]);
    }

    #[test]
    fn span_nesting_and_per_op_totals() {
        let mut tracer = Tracer::new();
        for _ in 0..2 {
            tracer.next_op();
            tracer.span("outer", |t| {
                t.span("inner", |_| std::hint::black_box(1 + 1));
                t.span("inner", |_| ());
            });
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert_eq!(spans[4].op, 2);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(tracer.per_op_seconds("inner").len(), 2);
        let own = self_times(spans);
        let inner: u64 = spans[1].duration_ns() + spans[2].duration_ns();
        assert_eq!(own[0], spans[0].duration_ns() - inner);
    }
}
