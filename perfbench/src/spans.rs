//! In-memory spans around the benchmark's calls into each layer.
//!
//! Each span has a name, a start, an end, the span that caused it and the
//! id of the op it belongs to. Spans stay in memory while the run measures
//! and are written out when it ends. A layer's self time is its span's
//! duration minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds from the recorder's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The layer call this span wraps (e.g. `runtime.session.feed`).
    pub name: &'static str,
    /// Start, ns from the origin.
    pub start: u64,
    /// End, ns from the origin.
    pub end: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
}

/// A span recorder for one thread; a recorder that is off records nothing.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// An empty recorder whose times count from `origin`.
    pub fn new(origin: Instant) -> Spans {
        Spans { origin, on: true, spans: Vec::new(), open: Vec::new() }
    }

    /// A recorder that records nothing: untraced runs pass this one.
    pub fn off() -> Spans {
        Spans { on: false, ..Spans::new(Instant::now()) }
    }

    /// Run `f` inside a span named `name` of op `op`, nested under the
    /// innermost span still open.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent, op });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.now();
        out
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line, in recording order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op\": {}}}",
                s.name, s.start, s.end, s.op
            );
        }
        out
    }
}

/// Each span's self time in ns: its duration minus the union of its
/// children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Per span name: (count, total ns, self ns), sorted by name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end - s.start;
        e.2 += own;
    }
    out
}

/// Durations in seconds of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| (s.end - s.start) as f64 * 1e-9).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent, op: 0 }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("op", 0, 100, None),
            span("feed", 10, 30, Some(0)),
            span("feed", 40, 70, Some(0)),
            span("scan", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 12, 30, 8]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 55, 58, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span("op", 10, 20, None), span("late", 15, 40, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 25]);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = vec![
            span("op", 0, 100, None),
            span("feed", 10, 30, Some(0)),
            span("feed", 40, 70, Some(0)),
        ];
        let t = totals_by_name(&spans);
        assert_eq!(t["feed"], (2, 50, 50));
        assert_eq!(t["op"], (1, 100, 50));
    }

    #[test]
    fn recorder_nests_and_off_records_nothing() {
        let mut a = Spans::new(Instant::now());
        a.span("op", 1, |s| s.span("feed", 1, |_| ()));
        a.span("op", 2, |s| s.span("finish", 2, |_| ()));
        let s = a.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent, s[3].parent),
            (None, Some(0), None, Some(2))
        );
        assert_eq!(s[3].op, 2);
        assert!(s.iter().all(|s| s.start <= s.end));
        assert_eq!(a.to_jsonl().lines().count(), 4);
        let mut off = Spans::off();
        assert_eq!(off.span("op", 1, |s| s.span("feed", 1, |_| 7)), 7);
        assert!(off.spans().is_empty());
    }
}
