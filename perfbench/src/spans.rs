//! In-memory span recording for the traced run.
//!
//! A span is a named interval on the wall clock with an optional parent
//! and an operation count. Spans are kept in memory while the benchmark
//! runs and written as JSON once at exit, so recording costs one clock
//! read per boundary and nothing else.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span. Times are nanoseconds since the
/// recorder was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `mapreduce.try_assign`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start: u64,
    /// End, ns since the recorder's epoch (equal to `start` while open).
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Operations the span covers (calls, events, blocks...).
    pub ops: u64,
}

impl Span {
    /// Wall-clock duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Collects spans; nesting follows the order of `open` and `close`.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> usize {
        let now = self.now();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.stack.last().copied(),
            ops: 0,
        });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span, recording
    /// the operations it covered.
    pub fn close(&mut self, id: usize, ops: u64) {
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        let now = self.now();
        let span = &mut self.spans[id];
        span.end = now;
        span.ops = ops;
    }

    /// Runs `f` inside a span named `name`; `f` returns its result and the
    /// operation count.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> (T, u64)) -> T {
        let id = self.open(name);
        let (out, ops) = f(self);
        self.close(id, ops);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Overlapping children count once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.duration() - covered(s.start, s.end, kids))
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Per-name totals: `(name, spans, total ns, self ns, ops)`, in first-seen
/// order.
pub fn totals(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: Vec<(&'static str, u64, u64, u64, u64)> = Vec::new();
    for (s, own) in spans.iter().zip(selfs) {
        match out.iter_mut().find(|t| t.0 == s.name) {
            Some(t) => {
                t.1 += 1;
                t.2 += s.duration();
                t.3 += own;
                t.4 += s.ops;
            }
            None => out.push((s.name, 1, s.duration(), own, s.ops)),
        }
    }
    out
}

/// Total duration and operations of every span named `name`.
pub fn sum_of(spans: &[Span], name: &str) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(d, n), s| (d + s.duration(), n + s.ops))
}

/// The spans as a JSON document: one object per span with its index,
/// name, parent, start, end, self time and operation count.
pub fn to_json(spans: &[Span], header: &[(&str, String)]) -> String {
    let selfs = self_times(spans);
    let mut s = String::from("{\n");
    for (k, v) in header {
        let _ = writeln!(s, "  \"{k}\": \"{v}\",");
    }
    s.push_str("  \"spans\": [\n");
    for (i, (sp, own)) in spans.iter().zip(&selfs).enumerate() {
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            s,
            "    {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \
             \"end_ns\": {}, \"self_ns\": {own}, \"ops\": {}}}",
            sp.name, sp.start, sp.end, sp.ops
        );
        s.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            ops: 1,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 70, Some(0)),
            span("a.inner", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 12, 30, 8]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("root", 10, 100, None),
            span("x", 0, 30, Some(0)),
            span("y", 20, 50, Some(0)),
            span("z", 90, 120, Some(0)),
        ];
        // Covered: [10, 50] and [90, 100] = 50 ns of a 90 ns span.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let spans = vec![span("only", 5, 17, None)];
        assert_eq!(self_times(&spans), vec![12]);
    }

    #[test]
    fn recorder_nests_and_totals() {
        let mut r = Recorder::new();
        let got = r.span("outer", |r| {
            r.span("inner", |_| ((), 3));
            r.span("inner", |_| ((), 4));
            (7, 1)
        });
        assert_eq!(got, 7);
        let spans = r.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let t = totals(spans);
        assert_eq!(t[1].0, "inner");
        assert_eq!(t[1].1, 2);
        assert_eq!(t[1].4, 7);
        let selfs = self_times(spans);
        assert_eq!(
            selfs[0],
            spans[0].duration() - spans[1].duration() - spans[2].duration()
        );
        assert_eq!(sum_of(spans, "inner").1, 7);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_panics() {
        let mut r = Recorder::new();
        let a = r.open("a");
        let _b = r.open("b");
        r.close(a, 0);
    }
}
