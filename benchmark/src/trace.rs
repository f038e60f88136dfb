//! Harness-side span recording for the traced run.
//!
//! Spans are recorded around the calls into each layer, from outside:
//! name, start, end, the span that caused it, and a trace id (round,
//! activation chunk or epoch). They stay in memory until the run ends.
//! An inactive tracer records nothing, so the untraced run pays one
//! branch per scope.

use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.sim.round`.
    pub name: String,
    /// Index of the enclosing span within its epoch, if any.
    pub parent: Option<u64>,
    /// Round / activation chunk / epoch the span belongs to.
    pub trace_id: u64,
    /// Start, microseconds since the tracer was created.
    pub start_us: f64,
    /// End, microseconds since the tracer was created.
    pub end_us: f64,
    /// Duration minus the part its direct children cover.
    pub self_us: f64,
}

/// In-memory span recorder with an explicit open-span stack.
pub struct Tracer {
    origin: Instant,
    active: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`active`) or ignores every scope.
    pub fn new(active: bool) -> Self {
        Self {
            origin: Instant::now(),
            active,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        trace_id: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.active {
            return f(self);
        }
        let idx = self.spans.len();
        let start_us = self.origin.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().map(|&p| p as u64),
            trace_id,
            start_us,
            end_us: start_us,
            self_us: 0.0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_us = self.origin.elapsed().as_secs_f64() * 1e6;
        out
    }

    /// Every recorded span, self times filled in.
    pub fn spans(&self) -> Vec<Span> {
        let own = self_times(&self.spans);
        self.spans
            .iter()
            .zip(own)
            .map(|(s, self_us)| Span {
                self_us,
                ..s.clone()
            })
            .collect()
    }
}

/// A span's self time: its duration minus the part of that interval its
/// direct children cover (overlapping children are not counted twice).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.map(|p| p as usize) {
            let (lo, hi) = (spans[p].start_us, spans[p].end_us);
            children[p].push((s.start_us.clamp(lo, hi), s.end_us.clamp(lo, hi)));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_us - s.start_us) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<u64>, start_us: f64, end_us: f64) -> Span {
        Span {
            name: name.into(),
            parent,
            trace_id: 0,
            start_us,
            end_us,
            self_us: 0.0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children_cover() {
        let spans = vec![
            span("epoch", None, 0.0, 100.0),
            span("round", Some(0), 10.0, 40.0),
            span("probe", Some(0), 50.0, 70.0),
            span("leaf", Some(2), 55.0, 60.0),
        ];
        assert_eq!(self_times(&spans), vec![50.0, 30.0, 15.0, 5.0]);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clamped_to_the_parent() {
        let spans = vec![
            span("p", None, 0.0, 100.0),
            span("a", Some(0), 10.0, 60.0),
            span("b", Some(0), 40.0, 80.0),
            span("c", Some(0), 90.0, 130.0),
        ];
        // cover = [10,80] ∪ [90,100] = 80
        assert_eq!(self_times(&spans)[0], 20.0);
    }

    #[test]
    fn scopes_nest_and_inactive_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let got = t.scope("outer", 7, |t| t.scope("inner", 7, |_| 5));
        assert_eq!(got, 5);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].parent, None);
        assert!(t.spans[0].end_us >= t.spans[1].end_us);
        let spans = t.spans();
        assert!(spans[0].self_us <= spans[0].end_us - spans[0].start_us);

        let mut off = Tracer::new(false);
        off.scope("outer", 0, |t| t.scope("inner", 0, |_| ()));
        assert!(off.spans.is_empty());
    }
}
