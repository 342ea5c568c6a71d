//! In-memory spans and the interval arithmetic the per-layer figures derive from.
//!
//! The benchmark wraps each call into a layer's public functions in a span: a
//! name (`graph.generate`, `engine.step`, `shard.execute`, ...), a start and end on
//! the [`crate::clock`], the span that caused it, the cell or simulation it belongs
//! to, and a tag (the protocol arm, where one applies). Spans stay in memory until
//! the run ends. Alongside them the tracer keeps work counts recorded at the same
//! call sites. A disabled tracer records nothing and costs one branch per call.

use crate::clock;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

/// Identifies a span; [`SpanId::ROOT`] is the parent of top-level spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpanId(pub u32);

impl SpanId {
    /// The parent of spans that no other span caused.
    pub const ROOT: SpanId = SpanId(0);
}

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// This span's id (never [`SpanId::ROOT`]).
    pub id: SpanId,
    /// The span that caused this one.
    pub parent: SpanId,
    /// Layer call or benchmark phase, e.g. `graph.from_edges` or `pass`.
    pub name: &'static str,
    /// Protocol arm the work belongs to, or `""`.
    pub tag: &'static str,
    /// Cell, simulation or shard index the span belongs to.
    pub unit: u64,
    /// Start, in [`clock::now_ns`] nanoseconds.
    pub start_ns: u64,
    /// End, in [`clock::now_ns`] nanoseconds.
    pub end_ns: u64,
}

impl Span {
    /// The span's length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// True for spans around calls into the program's layers, as opposed to the
    /// benchmark's own phase and pass spans.
    pub fn is_layer(&self) -> bool {
        LAYER_PREFIXES
            .iter()
            .any(|prefix| self.name.starts_with(prefix))
    }
}

/// Name prefixes of the spans that wrap calls into the program.
pub const LAYER_PREFIXES: [&str; 4] = ["graph.", "engine.", "core.", "shard."];

/// Records spans and work counts from any thread of the pool.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, u64>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A tracer that records every span and count.
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }

    /// Allocates an id for a span whose interval is recorded later with
    /// [`Tracer::record`], so its children can name it as their parent.
    pub fn reserve(&self) -> SpanId {
        if !self.enabled {
            return SpanId::ROOT;
        }
        SpanId(self.next_id.fetch_add(1, Ordering::SeqCst))
    }

    /// Records the interval of a span reserved with [`Tracer::reserve`].
    pub fn record(
        &self,
        id: SpanId,
        name: &'static str,
        parent: SpanId,
        tag: &'static str,
        unit: u64,
        (start_ns, end_ns): (u64, u64),
    ) {
        if !self.enabled {
            return;
        }
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(Span {
                id,
                parent,
                name,
                tag,
                unit,
                start_ns,
                end_ns,
            });
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id to pass to
    /// the spans it causes.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: SpanId,
        tag: &'static str,
        unit: u64,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        if !self.enabled {
            return f(SpanId::ROOT);
        }
        let id = self.reserve();
        let start = clock::now_ns();
        let out = f(id);
        self.record(id, name, parent, tag, unit, (start, clock::now_ns()));
        out
    }

    /// Adds `value` to the work count `key`.
    pub fn add(&self, key: &'static str, value: u64) {
        if !self.enabled {
            return;
        }
        *self
            .counts
            .lock()
            .expect("a thread panicked while recording a count")
            .entry(key)
            .or_insert(0) += value;
    }

    /// The recorded spans (in start order) and counts.
    pub fn finish(self) -> (Vec<Span>, BTreeMap<&'static str, u64>) {
        let mut spans = self
            .spans
            .into_inner()
            .expect("a thread panicked while recording a span");
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let counts = self
            .counts
            .into_inner()
            .expect("a thread panicked while recording a count");
        (spans, counts)
    }
}

/// Total length of the union of `intervals` (half-open `[start, end)`).
pub fn union_ns(intervals: impl IntoIterator<Item = (u64, u64)>) -> u64 {
    let mut sorted: Vec<(u64, u64)> = intervals.into_iter().filter(|(s, e)| e > s).collect();
    sorted.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in sorted {
        match current {
            Some((s, e)) if start <= e => current = Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Self time of the interval `span`: its length minus the part of it that the
/// `children` intervals cover (each child is clipped to the span first, and
/// overlapping children count once).
pub fn self_ns(span: (u64, u64), children: impl IntoIterator<Item = (u64, u64)>) -> u64 {
    let (start, end) = span;
    let covered = union_ns(
        children
            .into_iter()
            .map(|(s, e)| (s.max(start), e.min(end))),
    );
    (end - start) - covered
}

/// Summed duration of the spans accepted by `keep`.
pub fn busy_ns<'a>(spans: impl IntoIterator<Item = &'a Span>, keep: impl Fn(&Span) -> bool) -> u64 {
    spans
        .into_iter()
        .filter(|s| keep(s))
        .map(Span::duration_ns)
        .sum()
}

/// Per-name totals: `(count, busy ns, self ns)`, where a span's self time excludes
/// the intervals of the spans it caused.
pub fn summarise(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        children
            .entry(span.parent)
            .or_default()
            .push((span.start_ns, span.end_ns));
    }
    let mut totals: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for span in spans {
        let own = children.get(&span.id).map_or(&[][..], Vec::as_slice);
        let entry = totals.entry(span.name).or_insert((0, 0, 0));
        entry.0 += 1;
        entry.1 += span.duration_ns();
        entry.2 += self_ns((span.start_ns, span.end_ns), own.iter().copied());
    }
    totals
}

/// Renders spans and counts as JSON lines: one `span` object per span, then one
/// `summary` object per span name, then one `count` object per count.
pub fn to_json_lines(spans: &[Span], counts: &BTreeMap<&'static str, u64>) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"tag\":\"{}\",\"unit\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id.0, s.parent.0, s.name, s.tag, s.unit, s.start_ns, s.end_ns
        );
    }
    for (name, (count, busy, own)) in summarise(spans) {
        let _ = writeln!(
            out,
            "{{\"type\":\"summary\",\"name\":\"{name}\",\"spans\":{count},\"busy_ns\":{busy},\"self_ns\":{own}}}"
        );
    }
    for (key, value) in counts {
        let _ = writeln!(
            out,
            "{{\"type\":\"count\",\"name\":\"{key}\",\"value\":{value}}}"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_skips_gaps() {
        assert_eq!(union_ns([]), 0);
        assert_eq!(union_ns([(0, 10)]), 10);
        assert_eq!(union_ns([(0, 10), (5, 15)]), 15);
        assert_eq!(union_ns([(0, 10), (10, 20)]), 20, "touching intervals");
        assert_eq!(union_ns([(20, 30), (0, 10)]), 20, "a gap is not covered");
        assert_eq!(union_ns([(0, 100), (10, 20), (30, 40)]), 100, "nested");
        assert_eq!(union_ns([(5, 5), (7, 3)]), 0, "empty intervals");
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals_once() {
        // Two children on different threads overlap each other: the covered part
        // is their union, not their sum.
        assert_eq!(self_ns((0, 100), [(10, 30), (20, 40)]), 70);
        // A child that outlives its parent only covers the part inside it.
        assert_eq!(self_ns((0, 100), [(90, 150)]), 90);
        assert_eq!(self_ns((50, 100), [(0, 60)]), 40);
        // A child entirely outside covers nothing.
        assert_eq!(self_ns((0, 100), [(200, 300)]), 100);
        // Fully covered.
        assert_eq!(self_ns((0, 100), [(0, 50), (50, 100)]), 0);
        assert_eq!(self_ns((0, 100), []), 100);
    }

    #[test]
    fn summary_reports_busy_and_self_time_per_name() {
        let span = |id, parent, name, start_ns, end_ns| Span {
            id: SpanId(id),
            parent: SpanId(parent),
            name,
            tag: "",
            unit: 0,
            start_ns,
            end_ns,
        };
        let spans = vec![
            span(1, 0, "pass", 0, 100),
            span(2, 1, "cell", 0, 60),
            span(3, 1, "cell", 40, 100),
            span(4, 2, "core.trial", 10, 50),
            span(5, 3, "core.trial", 50, 90),
        ];
        let summary = summarise(&spans);
        assert_eq!(summary["pass"], (1, 100, 0), "the two cells cover the pass");
        assert_eq!(summary["cell"], (2, 120, 20 + 20));
        assert_eq!(summary["core.trial"], (2, 80, 80));
        assert_eq!(busy_ns(&spans, Span::is_layer), 80);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_still_runs_the_work() {
        let tracer = Tracer::off();
        assert_eq!(tracer.span("core.trial", SpanId::ROOT, "", 0, |_| 7), 7);
        tracer.add("engine.rounds", 3);
        let (spans, counts) = tracer.finish();
        assert!(spans.is_empty() && counts.is_empty());
    }

    #[test]
    fn enabled_tracer_links_children_to_parents() {
        let tracer = Tracer::on();
        tracer.span("pass", SpanId::ROOT, "", 0, |pass| {
            tracer.span("graph.generate", pass, "", 1, |_| ());
            tracer.add("graph.edges", 5);
            tracer.add("graph.edges", 6);
        });
        let (spans, counts) = tracer.finish();
        assert_eq!(spans.len(), 2);
        let pass = spans.iter().find(|s| s.name == "pass").unwrap();
        let child = spans.iter().find(|s| s.name == "graph.generate").unwrap();
        assert_eq!(child.parent, pass.id);
        assert!(pass.start_ns <= child.start_ns && child.end_ns <= pass.end_ns);
        assert!(child.is_layer() && !pass.is_layer());
        assert_eq!(counts["graph.edges"], 11);
        assert!(to_json_lines(&spans, &counts).contains("\"name\":\"graph.edges\",\"value\":11"));
    }
}
