//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's side, around the calls into
//! each layer's public functions, kept in memory and written out once the
//! run ends.

use std::time::Instant;

use pdf_telemetry::Json;

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was timed (a layer call, a job, or a replay probe).
    pub name: &'static str,
    /// The job it belongs to.
    pub job: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Seconds since the recorder was created.
    pub start: f64,
    /// Seconds since the recorder was created.
    pub end: f64,
}

impl Span {
    /// The span's length in seconds.
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans when enabled; does nothing (not even read the clock)
/// when disabled, so untraced jobs run the same code path at no cost.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

/// A handle to an open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

impl Tracer {
    /// A recorder; spans are kept only while `enabled`.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled: false,
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans that follow.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens a span.
    pub fn begin(&mut self, name: &'static str, job: usize, parent: SpanId) -> SpanId {
        if !self.enabled {
            return None;
        }
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            job,
            parent,
            start: now,
            end: now,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end = self.origin.elapsed().as_secs_f64();
        }
    }

    /// Times `f` as a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        job: usize,
        parent: SpanId,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, job, parent);
        let r = f();
        self.end(id);
        r
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, span)| {
                    Json::object()
                        .field("id", i)
                        .field("name", span.name)
                        .field("job", span.job)
                        .field("parent", span.parent.map_or(Json::Null, Json::from))
                        .field("start", span.start)
                        .field("end", span.end)
                })
                .collect(),
        )
    }
}

/// The direct children of `parent`.
pub fn children(spans: &[Span], parent: usize) -> impl Iterator<Item = &Span> {
    spans.iter().filter(move |s| s.parent == Some(parent))
}

/// Checks that every child lies inside its parent and that the children
/// of each span together take no longer than it.
pub fn reconcile(spans: &[Span]) -> Result<(), String> {
    for (i, parent) in spans.iter().enumerate() {
        let mut covered = 0.0;
        for child in children(spans, i) {
            if child.start < parent.start || child.end > parent.end {
                return Err(format!(
                    "span `{}` of job {} lies outside its parent `{}`",
                    child.name, child.job, parent.name
                ));
            }
            covered += child.seconds();
        }
        if covered > parent.seconds() {
            return Err(format!(
                "the children of `{}` (job {}) take {covered:.6} s, more than its {:.6} s",
                parent.name,
                parent.job,
                parent.seconds()
            ));
        }
    }
    Ok(())
}

/// The share of span `i` that none of its children covers.
pub fn unattributed_share(spans: &[Span], i: usize) -> f64 {
    let total = spans[i].seconds();
    if total <= 0.0 {
        return 0.0;
    }
    let covered: f64 = children(spans, i).map(Span::seconds).sum();
    (total - covered) / total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name,
            job: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn reconciliation_rejects_children_outside_or_over_their_parent() {
        let ok = [
            span("job", None, 0.0, 1.0),
            span("a", Some(0), 0.0, 0.5),
            span("b", Some(0), 0.5, 0.9),
        ];
        reconcile(&ok).unwrap();
        assert!((unattributed_share(&ok, 0) - 0.1).abs() < 1e-9);
        let outside = [span("job", None, 0.0, 1.0), span("a", Some(0), 0.5, 1.5)];
        assert!(reconcile(&outside).is_err());
        let over = [
            span("job", None, 0.0, 1.0),
            span("a", Some(0), 0.0, 0.7),
            span("b", Some(0), 0.3, 1.0),
        ];
        assert!(reconcile(&over).is_err());
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        assert_eq!(t.span("x", 0, None, || 7), 7);
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        let job = t.begin("job", 0, None);
        t.span("x", 0, job, || ());
        t.end(job);
        assert_eq!(t.spans().len(), 2);
        reconcile(t.spans()).unwrap();
    }
}
