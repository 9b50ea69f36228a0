//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded by the benchmark's own code only (spans inside the
//! crates are a later change), kept in memory, and written out as JSON when
//! the run ends.  End-to-end metrics never come from a traced repetition.

use crate::json::Json;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span in the tracer's list.
    pub parent: Option<usize>,
    /// The repetition the span belongs to (spans of one rep share it).
    pub rep: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A stack-disciplined span recorder; a disabled tracer records nothing.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    rep: usize,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled,
            rep: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn set_rep(&mut self, rep: usize) {
        self.rep = rep;
    }

    /// Runs `f` inside a span named `name`, child of the innermost open one.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            rep: self.rep,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Records a span measured elsewhere (a phase boundary observed on
    /// another thread), as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.push(Span {
                name,
                parent: self.open.last().copied(),
                rep: self.rep,
                start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
                end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self, workload: &str) -> Json {
        let selfs = self_times(&self.spans);
        Json::object([
            ("workload", Json::from(workload)),
            ("unit", Json::from("ns")),
            (
                "spans",
                Json::Array(
                    self.spans
                        .iter()
                        .zip(selfs)
                        .enumerate()
                        .map(|(id, (s, self_ns))| {
                            Json::object([
                                ("id", Json::from(id as f64)),
                                ("name", Json::from(s.name)),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| Json::from(p as f64)),
                                ),
                                ("rep", Json::from(s.rep as f64)),
                                ("start", Json::from(s.start_ns as f64)),
                                ("end", Json::from(s.end_ns as f64)),
                                ("self", Json::from(self_ns as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Self time of every span: its duration minus the part of that interval its
/// direct children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let clipped = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
            if clipped.0 < clipped.1 {
                children[parent].push(clipped);
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut frontier = span.start_ns;
            for (start, end) in kids {
                if end > frontier {
                    covered += end - start.max(frontier);
                    frontier = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            parent,
            rep: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(0), 30, 60),  // overlaps the previous child by 10
            span(Some(2), 35, 45),  // grandchild: charged to span 2 only
            span(Some(0), 90, 120), // sticks out past the parent: clipped
        ];
        assert_eq!(self_times(&spans), vec![40, 30, 20, 10, 30]);
    }

    #[test]
    fn tracer_nests_by_call_structure_and_tags_reps() {
        let mut tracer = Tracer::new(true);
        tracer.set_rep(3);
        tracer.span("outer", |t| {
            t.span("inner", |_| ());
            let now = Instant::now();
            t.record("phase", now, now);
        });
        let names: Vec<_> = tracer.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![("outer", None), ("inner", Some(0)), ("phase", Some(0))]
        );
        assert!(tracer.spans().iter().all(|s| s.rep == 3));
        assert!(tracer.spans()[0].end_ns >= tracer.spans()[1].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", |_| 7), 7);
        assert!(tracer.spans().is_empty());
    }
}
