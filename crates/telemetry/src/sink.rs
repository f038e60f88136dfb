//! Event sinks: where emitted [`Event`]s go.

use crate::events::Event;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};

/// A destination for structured events. Implementations must be
/// thread-safe: the parallel simulators emit from worker threads.
pub trait TelemetrySink: Send + Sync {
    /// Persist one event.
    fn record(&self, event: &Event);
}

/// Discards everything. Useful to measure instrumentation overhead
/// separately from serialization cost.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopSink;

impl TelemetrySink for NoopSink {
    fn record(&self, _event: &Event) {}
}

/// Writes one compact JSON object per line.
///
/// Lines are flushed as they are written, so the file is complete even
/// if the process exits without dropping the sink (the experiment CLI
/// keeps its telemetry handle in a process-wide static).
pub struct JsonlSink {
    out: Mutex<BufWriter<std::fs::File>>,
}

impl JsonlSink {
    /// Create (truncating) the JSONL file at `path`.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self {
            out: Mutex::new(BufWriter::new(file)),
        })
    }
}

impl TelemetrySink for JsonlSink {
    fn record(&self, event: &Event) {
        let line = serde_json::to_string(event).expect("events always serialize");
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        // A failed telemetry write must not kill a simulation; drop it.
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    }
}

/// Collects events in memory, for tests and programmatic consumers.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of everything recorded so far.
    pub fn events(&self) -> Vec<Event> {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TelemetrySink for MemorySink {
    fn record(&self, event: &Event) {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(event.clone());
    }
}

impl<S: TelemetrySink> TelemetrySink for Arc<S> {
    fn record(&self, event: &Event) {
        (**self).record(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{Event, FaultEvent};

    fn ev(n: u64) -> Event {
        Event::Fault(FaultEvent {
            at: n,
            peer: n + 1,
            kind: "crash".to_string(),
        })
    }

    #[test]
    fn memory_sink_collects_in_order() {
        let sink = MemorySink::new();
        sink.record(&ev(1));
        sink.record(&ev(2));
        assert_eq!(sink.events(), vec![ev(1), ev(2)]);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let path = std::env::temp_dir().join("lt_telemetry_sink_test.jsonl");
        let sink = JsonlSink::create(&path).unwrap();
        sink.record(&ev(7));
        sink.record(&ev(8));
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for (line, n) in lines.iter().zip([7u64, 8]) {
            let back: Event = serde_json::from_str(line).unwrap();
            assert_eq!(back, ev(n));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn arc_sink_shares_storage() {
        let sink = Arc::new(MemorySink::new());
        let clone = sink.clone();
        TelemetrySink::record(&clone, &ev(1));
        assert_eq!(sink.len(), 1);
    }
}
