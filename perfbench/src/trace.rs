//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions. The program itself carries no tracing.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call: which layer call it wraps, which operation (frame or
/// request) it belongs to, and the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Opens a span; close it with [`Trace::end`].
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.spans.push(Span {
            name,
            op,
            parent,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end = Instant::now();
    }

    /// Times `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, op, parent);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span in ms: its duration minus its children's.
    /// Children that the benchmark re-runs outside the parent's interval
    /// (the pyramid and quantize calls inside `detect_on_features`) are
    /// subtracted all the same.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self.spans.iter().map(Span::ms).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                out[p] -= span.ms();
            }
        }
        out
    }

    /// Per-operation sums of self time by span name.
    pub fn self_ms_by_op(&self) -> BTreeMap<&'static str, BTreeMap<u64, f64>> {
        let selfs = self.self_ms();
        let mut out: BTreeMap<&'static str, BTreeMap<u64, f64>> = BTreeMap::new();
        for (span, ms) in self.spans.iter().zip(selfs) {
            *out.entry(span.name)
                .or_default()
                .entry(span.op)
                .or_default() += ms;
        }
        out
    }

    /// Median over operations of the per-operation self time of `name`,
    /// with the number of operations it ran in (0 and 0 when it never
    /// ran).
    pub fn median_self_ms(&self, name: &str) -> (f64, usize) {
        let by_op = self.self_ms_by_op();
        by_op.get(name).map_or((0.0, 0), |ops| {
            let values: Vec<f64> = ops.values().copied().collect();
            (crate::stats::median(&values), values.len())
        })
    }
}
