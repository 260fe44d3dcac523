//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded from the benchmark's own files only (nothing inside
//! the simulator is instrumented), kept in memory and written out as one
//! JSON object per line when the run ends. A span's *self time* is its
//! duration minus the part its direct children cover, so the self times of
//! a trace sum to the durations of its root spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// `cell` value of a span that belongs to no single cell.
pub const NO_CELL: u32 = u32::MAX;

/// One recorded interval. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one; `None` for a root.
    pub parent: Option<u32>,
    pub name: &'static str,
    /// Execution mode of a `core.run_window` span, else empty.
    pub tag: &'static str,
    /// Index of the cell within the workload: spans of one cell share it.
    pub cell: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans against one monotonic origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; it stays zero-length until [`close`](Self::close).
    pub fn open(
        &mut self,
        name: &'static str,
        tag: &'static str,
        parent: Option<u32>,
        cell: u32,
    ) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            tag,
            cell,
            start_ns: now,
            end_ns: now,
        });
        id
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, in span order: duration minus the overlap of
/// each direct child with the span's own interval. Children are taken not
/// to overlap each other, which sequential code guarantees.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for child in spans {
        let Some(&p) = child.parent.and_then(|p| index.get(&p)) else {
            continue;
        };
        let parent = &spans[p];
        let start = child.start_ns.max(parent.start_ns);
        let end = child.end_ns.min(parent.end_ns);
        own[p] = own[p].saturating_sub(end.saturating_sub(start));
    }
    own
}

/// Self time summed by `(name, tag)`.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), u64> {
    let mut by_name = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        *by_name.entry((span.name, span.tag)).or_insert(0) += own;
    }
    by_name
}

/// The spans as JSON lines (`parent` is `null` for a root, `cell` is
/// `null` for a span outside any cell).
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let cell = if s.cell == NO_CELL {
            "null".to_string()
        } else {
            s.cell.to_string()
        };
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"tag\":\"{}\",\"cell\":{cell},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.name, s.tag, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            tag: "",
            cell: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(0, None, "cell", 0, 100),
            span(1, Some(0), "core.system_new", 5, 15),
            span(2, Some(0), "core.run_window", 20, 90),
            // A grandchild comes off its parent, not off the root.
            span(3, Some(2), "inner", 30, 50),
        ];
        assert_eq!(self_times(&spans), vec![20, 10, 50, 20]);
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 100, "self times sum to the root's duration");
    }

    #[test]
    fn zero_length_and_unclosed_spans_cost_nothing() {
        let spans = [
            span(0, None, "cell", 10, 40),
            span(1, Some(0), "instant", 20, 20),
            // An unclosed span keeps end == start.
            span(2, Some(0), "unclosed", 30, 30),
        ];
        assert_eq!(self_times(&spans), vec![30, 0, 0]);
    }

    #[test]
    fn a_child_is_clipped_to_its_parent() {
        let spans = [
            span(0, None, "cell", 10, 20),
            span(1, Some(0), "late", 15, 50),
        ];
        assert_eq!(self_times(&spans), vec![5, 35]);
    }

    #[test]
    fn roots_and_orphans_keep_their_whole_duration() {
        let spans = [
            span(0, None, "a", 0, 10),
            span(1, None, "b", 10, 25),
            span(7, Some(99), "orphan", 0, 4),
        ];
        assert_eq!(self_times(&spans), vec![10, 15, 4]);
    }

    #[test]
    fn by_name_groups_on_name_and_tag() {
        let mut spans = vec![
            span(0, None, "cell", 0, 100),
            span(1, Some(0), "core.run_window", 0, 30),
            span(2, Some(0), "core.run_window", 30, 70),
        ];
        spans[1].tag = "reunion";
        spans[2].tag = "non-redundant";
        let by = self_time_by_name(&spans);
        assert_eq!(by[&("cell", "")], 30);
        assert_eq!(by[&("core.run_window", "reunion")], 30);
        assert_eq!(by[&("core.run_window", "non-redundant")], 40);
    }

    #[test]
    fn tracer_nests_and_serializes() {
        let mut t = Tracer::new();
        let root = t.open("cell", "", None, 3);
        let child = t.open("core.system_new", "", Some(root), 3);
        t.close(child);
        t.close(root);
        let outside = t.open("sim.merge", "", None, NO_CELL);
        t.close(outside);
        let spans = t.spans();
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let text = to_jsonl(spans);
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            reunion_sim::parse_json(line).expect("each line is a JSON object");
        }
        assert!(text.contains("\"parent\":null") && text.contains("\"parent\":0"));
        assert!(text.contains("\"cell\":null"));
    }
}
