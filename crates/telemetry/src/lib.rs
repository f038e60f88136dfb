//! # lt-telemetry — tracing, counters, and ledger-health metrics
//!
//! Observability for the learning-tangle simulators, in three layers:
//!
//! 1. **Metrics** ([`Counter`], [`Histogram`], [`Metrics`]): monotonic
//!    counters and fixed-bucket histograms with atomic recording and
//!    plain-data, mergeable [`MetricsSnapshot`]s.
//! 2. **Span timers** ([`Telemetry::span`], [`PhaseRecorder`]): RAII
//!    wall-clock timers for hot paths (tip draws, the walk-table build
//!    that yields confidence, local training, wire encode/decode),
//!    recorded into histograms in microseconds.
//! 3. **Structured events** ([`Event`], [`TelemetrySink`]): per-round
//!    and per-step JSONL records of ledger health — tip counts, approved
//!    tips, reference confidence × rating, publish accept/reject, lost
//!    publications, tip-draw counts, and per-phase wall time.
//!
//! Everything hangs off a cheaply clonable [`Telemetry`] handle. The
//! default handle is **disabled**: every operation is a single `Option`
//! check and no allocation, so instrumented code pays nothing when
//! nobody is listening. Span timings are additionally gated by a
//! `timings` flag (off by default) because wall-clock values are the one
//! non-deterministic output — with timings off, a fixed seed produces
//! byte-identical JSONL across runs.

pub mod events;
pub mod metrics;
pub mod sink;

pub use events::{Event, FaultEvent, ReferenceEntry, RoundEvent, StepEvent};
pub use metrics::{Counter, Histogram, HistogramSnapshot, Metrics, MetricsSnapshot};
pub use sink::{JsonlSink, MemorySink, NoopSink, TelemetrySink};

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

struct Inner {
    sink: Box<dyn TelemetrySink>,
    metrics: Metrics,
    timings: bool,
}

/// The shared observability handle threaded through the simulators.
///
/// Cloning shares the sink and metrics registry. [`Telemetry::default`]
/// (= [`Telemetry::disabled`]) is the no-op handle.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled())
            .field("timings", &self.timings())
            .finish()
    }
}

impl Telemetry {
    /// The no-op handle: every operation returns immediately.
    pub const fn disabled() -> Self {
        Self { inner: None }
    }

    /// An active handle over `sink`, with span timings off (deterministic
    /// output).
    pub fn new(sink: impl TelemetrySink + 'static) -> Self {
        Self::with_timings(sink, false)
    }

    /// An active handle with explicit span-timing behaviour. Timings are
    /// wall-clock and therefore non-deterministic; leave them off when
    /// output bytes must reproduce.
    pub fn with_timings(sink: impl TelemetrySink + 'static, timings: bool) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                sink: Box::new(sink),
                metrics: Metrics::new(),
                timings,
            })),
        }
    }

    /// Is anything listening?
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Are wall-clock span timings being recorded?
    pub fn timings(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.timings)
    }

    /// Emit a structured event. The closure only runs when a sink is
    /// attached, so callers can build events lazily.
    pub fn emit(&self, build: impl FnOnce() -> Event) {
        if let Some(inner) = &self.inner {
            inner.sink.record(&build());
        }
    }

    /// Add `n` to the counter registered under `name`.
    pub fn count(&self, name: &str, n: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.counter(name).add(n);
        }
    }

    /// Record `value` into the histogram registered under `name`.
    pub fn record(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.histogram(name).record(value);
        }
    }

    /// Start an RAII span timer; on drop it records the elapsed wall
    /// time in microseconds into the histogram `name`. Returns an inert
    /// guard unless the handle is enabled *and* timings are on.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        let start = self.timings().then(Instant::now);
        Span {
            telemetry: self,
            name,
            start,
        }
    }

    /// A per-round phase-time collector feeding [`RoundEvent::phase_us`].
    /// Inert (and `finish()` returns `None`) unless timings are on.
    pub fn phases(&self) -> PhaseRecorder<'_> {
        PhaseRecorder {
            telemetry: self,
            active: self.timings(),
            times: BTreeMap::new(),
            prefix: String::new(),
        }
    }

    /// Snapshot the metrics registry (`None` when disabled).
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        self.inner.as_ref().map(|i| i.metrics.snapshot())
    }

    /// The current value of a counter (0 when disabled or unregistered).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.metrics.counter(name).get())
    }

    /// Cumulative `(count, sum)` of a histogram (zeros when disabled).
    pub fn histogram_totals(&self, name: &str) -> (u64, u64) {
        self.inner.as_ref().map_or((0, 0), |i| {
            let s = i.metrics.histogram(name).snapshot();
            (s.count, s.sum)
        })
    }
}

/// RAII wall-clock timer created by [`Telemetry::span`].
pub struct Span<'a> {
    telemetry: &'a Telemetry,
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.telemetry
                .record(self.name, start.elapsed().as_micros() as u64);
        }
    }
}

/// Collects named phase durations for one round (see
/// [`Telemetry::phases`]). Each phase is also recorded into the span
/// histogram `span.<name>`. A phase measured inside another is keyed
/// `<outer>.<name>`, so its time is part of the outer phase's.
pub struct PhaseRecorder<'a> {
    telemetry: &'a Telemetry,
    active: bool,
    times: BTreeMap<String, u64>,
    /// The key prefix of phases measured now: each enclosing phase's key
    /// followed by a `.`; empty at the top.
    prefix: String,
}

impl PhaseRecorder<'static> {
    /// A recorder that times nothing, for work outside a round.
    pub fn inert() -> Self {
        static OFF: Telemetry = Telemetry::disabled();
        OFF.phases()
    }
}

impl PhaseRecorder<'_> {
    /// Run `f`, attributing its wall time to phase `name`. Phases that `f`
    /// measures on the recorder it is handed nest inside `name`.
    pub fn measure<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.active {
            return f(self);
        }
        let key = format!("{}{name}", self.prefix);
        let outer = std::mem::replace(&mut self.prefix, format!("{key}."));
        let start = Instant::now();
        let out = f(self);
        let us = start.elapsed().as_micros() as u64;
        self.prefix = outer;
        self.telemetry.record(&format!("span.{key}"), us);
        *self.times.entry(key).or_insert(0) += us;
        out
    }

    /// Add `us` to phase `name` without timing it here: for busy time
    /// summed over threads, which may exceed any wall-time phase.
    pub fn add(&mut self, name: &str, us: u64) {
        if self.active {
            *self
                .times
                .entry(format!("{}{name}", self.prefix))
                .or_insert(0) += us;
        }
    }

    /// Whether phases are being timed (span timings are on).
    pub fn active(&self) -> bool {
        self.active
    }

    /// The collected phase map — `None` when timings are off, so the
    /// emitted event stays byte-stable across runs.
    pub fn finish(self) -> Option<BTreeMap<String, u64>> {
        self.active.then_some(self.times)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let tel = Telemetry::disabled();
        tel.count("x", 3);
        tel.record("h", 5);
        tel.emit(|| panic!("emit closure must not run when disabled"));
        let _span = tel.span("s");
        assert!(!tel.enabled());
        assert!(tel.metrics_snapshot().is_none());
        assert_eq!(tel.counter_value("x"), 0);
    }

    #[test]
    fn counters_and_histograms_accumulate() {
        let tel = Telemetry::new(NoopSink);
        tel.count("pubs", 2);
        tel.count("pubs", 1);
        tel.record("walk", 4);
        tel.record("walk", 6);
        assert_eq!(tel.counter_value("pubs"), 3);
        assert_eq!(tel.histogram_totals("walk"), (2, 10));
    }

    #[test]
    fn events_reach_the_sink() {
        let sink = Arc::new(MemorySink::new());
        let tel = Telemetry::new(sink.clone());
        tel.emit(|| {
            Event::Fault(FaultEvent {
                at: 3,
                peer: 2,
                kind: "crash".to_string(),
            })
        });
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn spans_respect_the_timings_flag() {
        let off = Telemetry::new(NoopSink);
        {
            let _s = off.span("work");
        }
        assert_eq!(off.histogram_totals("work").0, 0);

        let on = Telemetry::with_timings(NoopSink, true);
        {
            let _s = on.span("work");
        }
        assert_eq!(on.histogram_totals("work").0, 1);
    }

    #[test]
    fn phase_recorder_only_reports_with_timings() {
        let off = Telemetry::new(NoopSink);
        let mut p = off.phases();
        assert_eq!(p.measure("a", |_| 41) + 1, 42);
        assert!(p.finish().is_none());

        let on = Telemetry::with_timings(NoopSink, true);
        let mut p = on.phases();
        p.measure("a", |_| ());
        p.measure("a", |_| ());
        let map = p.finish().expect("timings on");
        assert!(map.contains_key("a"));
        assert_eq!(on.histogram_totals("span.a").0, 2);
    }

    #[test]
    fn nested_phases_are_keyed_under_their_parent() {
        let on = Telemetry::with_timings(NoopSink, true);
        let mut p = on.phases();
        p.measure("a", |p| {
            p.measure("b", |p| p.measure("c", |_| ()));
            p.add("busy", 7);
        });
        p.measure("d", |_| ());
        let map = p.finish().expect("timings on");
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(keys, ["a", "a.b", "a.b.c", "a.busy", "d"]);
        assert_eq!(map["a.busy"], 7);
        assert!(map["a.b.c"] <= map["a.b"] && map["a.b"] <= map["a"]);
        assert_eq!(on.histogram_totals("span.a.b.c").0, 1);
    }

    #[test]
    fn clones_share_state() {
        let tel = Telemetry::new(NoopSink);
        let clone = tel.clone();
        clone.count("c", 1);
        assert_eq!(tel.counter_value("c"), 1);
    }
}
