//! In-memory spans recorded by the benchmark around its calls into each
//! layer, and the self times derived from them.
//!
//! A span has a name (the layer), a start and an end, its parent span,
//! and a group: all spans of one job or one session share the group id.
//! Nothing is written while the run measures; [`Tracer::chrome_trace`]
//! dumps every span when the run ends.

use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `data.csv.read`.
    pub name: &'static str,
    /// Job or session the span belongs to.
    pub group: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. When disabled every call is a no-op returning a dummy
/// id, so untraced runs pay only the branch.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records an interval whose ends were already taken.
    pub fn record(
        &mut self,
        name: &'static str,
        group: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return usize::MAX;
        }
        let span = Span {
            name,
            group,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, group: u64, parent: Option<SpanId>) -> SpanId {
        let now = Instant::now();
        self.record(name, group, parent, now, now)
    }

    /// Closes a span opened with [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId, at: Instant) {
        let ns = self.ns(at);
        if let Some(span) = self.spans.get_mut(id) {
            span.end_ns = ns;
        }
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a Chrome trace-event document (one complete event
    /// per span; `pid` is the group, so each job or session gets its own
    /// track in Perfetto).
    pub fn chrome_trace(&self) -> Value {
        let events = self.spans.iter().enumerate().map(|(i, s)| {
            crate::object([
                ("name", crate::text(s.name)),
                ("cat", crate::text("perfbench")),
                ("ph", crate::text("X")),
                ("ts", Value::Number(s.start_ns as f64 / 1e3)),
                ("dur", Value::Number(s.duration_ns() as f64 / 1e3)),
                ("pid", Value::Number(s.group as f64)),
                ("tid", Value::Number(0.0)),
                (
                    "args",
                    crate::object([
                        ("span", Value::Number(i as f64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Number(p as f64)),
                        ),
                    ]),
                ),
            ])
        });
        crate::object([("traceEvents", Value::Array(events.collect()))])
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Sum of self time per span name per group, in milliseconds:
/// `name → (group → ms)`.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, BTreeMap<u64, f64>> {
    let mut out: BTreeMap<&'static str, BTreeMap<u64, f64>> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.name).or_default().entry(s.group).or_default() += self_ns as f64 / 1e6;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start: u64, end: u64) -> Span {
        Span {
            name,
            group: 0,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("job", None, 0, 100),
            span("read", Some(0), 10, 30),
            span("exec", Some(0), 30, 90),
            // A grandchild is subtracted from its parent, not the root.
            span("kernel", Some(2), 40, 60),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 40, 20]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("session", None, 0, 100),
            span("a", Some(0), 10, 50),
            span("b", Some(0), 40, 70),
            // Clipped to the parent's interval.
            span("c", Some(0), 90, 150),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn self_ms_aggregates_per_name_and_group() {
        let mut spans = vec![
            span("job", None, 0, 3_000_000),
            span("read", Some(0), 0, 1_000_000),
            span("read", Some(0), 1_000_000, 2_000_000),
        ];
        spans.push(Span {
            group: 1,
            ..span("read", None, 0, 500_000)
        });
        let by = self_ms_by_name(&spans);
        assert_eq!(by["read"][&0], 2.0);
        assert_eq!(by["read"][&1], 0.5);
        assert_eq!(by["job"][&0], 1.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", 0, None);
        t.end(id, Instant::now());
        assert!(t.spans().is_empty());
        let mut t = Tracer::new(true);
        let root = t.begin("job", 7, None);
        let now = Instant::now();
        t.record("read", 7, Some(root), now, now);
        t.end(root, Instant::now());
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(root));
        let trace = t.chrome_trace();
        let events = trace["traceEvents"].as_array().unwrap();
        assert_eq!(events[1]["name"].as_str(), Some("read"));
        assert_eq!(events[1]["args"]["parent"].as_u64(), Some(root as u64));
    }
}
