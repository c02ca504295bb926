//! Spans around the public calls the workload drivers make.
//!
//! A [`Tracer`] keeps spans in a `Vec` allocated once up front, so the
//! traced run adds two clock reads and a store per span and never
//! allocates mid-measurement. When the buffer is full further spans are
//! counted as dropped. A disabled tracer records nothing; the untraced run
//! pays one branch per call site.

use std::time::Instant;

use memento_bench::gate::Json;

/// Index of a recorded span, or `None` when nothing was recorded (tracer
/// disabled or full).
pub type SpanId = Option<usize>;

/// One timed call: what ran, inside which span, and when (nanoseconds
/// since the tracer was created).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// The wrapped call, e.g. `memento.update_batch`.
    pub name: &'static str,
    /// The span this call ran inside.
    pub parent: SpanId,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin (0 while the span is open).
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans into a preallocated buffer.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// A tracer with room for `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Opens a span named `name` inside `parent`.
    #[inline]
    pub fn begin(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.enabled {
            return None;
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return None;
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: 0,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Self::begin`].
    #[inline]
    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans that did not fit in the buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Durations in nanoseconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// The spans as report JSON: one `[name, parent, start_ns, end_ns]`
    /// row per span (`parent` is -1 for a root).
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::Arr(vec![
                        Json::Str(s.name.to_string()),
                        Json::Num(s.parent.map_or(-1.0, |p| p as f64)),
                        Json::Num(s.start_ns as f64),
                        Json::Num(s.end_ns as f64),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its children cover. Children never outlive their parent (spans nest),
/// so this is the duration minus the children's durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p] += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_children() {
        let spans = [
            span("rep", None, 0, 100),
            span("ingest", Some(0), 10, 40),
            span("read", Some(0), 50, 60),
            span("inner", Some(1), 15, 20),
        ];
        assert_eq!(self_times(&spans), vec![60, 25, 10, 5]);
    }

    #[test]
    fn tracer_nests_and_counts_what_does_not_fit() {
        let mut tracer = Tracer::with_capacity(2);
        let root = tracer.begin("rep", None);
        let child = tracer.begin("ingest", root);
        tracer.end(child);
        let lost = tracer.begin("ingest", root);
        assert_eq!(lost, None);
        tracer.end(lost);
        tracer.end(root);
        assert_eq!(tracer.spans().len(), 2);
        assert_eq!(tracer.dropped(), 1);
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(tracer.durations("ingest").len(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::disabled();
        let id = tracer.begin("rep", None);
        tracer.end(id);
        assert!(id.is_none() && tracer.spans().is_empty() && tracer.dropped() == 0);
    }
}
