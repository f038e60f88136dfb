//! Monotonic counters and fixed-bucket histograms with lock-free
//! recording and mergeable snapshots.
//!
//! Recording is atomic (`Ordering::Relaxed` — counts need no ordering
//! with other memory), so workers in the parallel simulators can share
//! one registry without contention on a lock. Snapshots are plain data:
//! serializable, comparable, and mergeable across runs or shards.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub(crate) fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A histogram over fixed, strictly increasing upper bucket bounds.
///
/// A value `v` lands in the first bucket whose bound satisfies
/// `v <= bound`; values above the last bound land in an implicit
/// overflow bucket, so `buckets.len() == bounds.len() + 1`.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// A histogram with explicit upper bounds (must be strictly
    /// increasing and non-empty).
    pub(crate) fn new(bounds: Vec<u64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Self {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Exponential bounds `base, base*2, base*4, ...` (`levels` of them) —
    /// the default shape for durations and walk lengths, where relative
    /// resolution matters more than absolute.
    pub fn exponential(base: u64, levels: usize) -> Self {
        assert!(base >= 1 && levels >= 1, "need base >= 1 and levels >= 1");
        let bounds = (0..levels as u32)
            .map(|i| base.saturating_mul(1u64 << i.min(63)))
            .collect();
        Self::new(bounds)
    }

    /// Record one observation.
    pub fn record(&self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data copy of a [`Histogram`]: serializable and mergeable.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Upper bucket bounds (exclusive of the overflow bucket).
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts (`bounds.len() + 1` entries).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot over the given bounds.
    pub fn empty(bounds: Vec<u64>) -> Self {
        let buckets = vec![0; bounds.len() + 1];
        Self {
            bounds,
            buckets,
            count: 0,
            sum: 0,
        }
    }

    /// Merge another snapshot in (bucket-wise addition).
    ///
    /// # Panics
    /// Panics if the bucket bounds differ — merging histograms of
    /// different shape is a logic error, not data.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bounds"
        );
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// A named registry of counters and histograms.
///
/// Lookup takes a short read lock; the returned `Arc` handles record
/// lock-free, so hot paths should hold on to them.
#[derive(Debug, Default)]
pub struct Metrics {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

/// Default histogram shape: 24 exponential buckets from 1 — covers
/// microsecond spans up to ~16s and walk lengths up to ~8M hops.
fn default_histogram() -> Histogram {
    Histogram::exponential(1, 24)
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `name`, created at zero if absent.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self
            .counters
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
        {
            return c.clone();
        }
        self.counters
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(name.to_owned())
            .or_default()
            .clone()
    }

    /// The histogram registered under `name`, created with the default
    /// exponential bounds if absent.
    pub(crate) fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self
            .histograms
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
        {
            return h.clone();
        }
        self.histograms
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(name.to_owned())
            .or_insert_with(|| Arc::new(default_histogram()))
            .clone()
    }

    /// Snapshot every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time copy of a whole [`Metrics`] registry.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Merge another snapshot in: counters add, histograms merge
    /// bucket-wise, names union.
    pub fn merge(&mut self, other: &Self) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(h) => h.merge(v),
                None => {
                    self.histograms.insert(k.clone(), v.clone());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn histogram_buckets_values() {
        let h = Histogram::new(vec![1, 10, 100]);
        for v in [0, 1, 5, 10, 11, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![2, 2, 1, 1]); // <=1, <=10, <=100, overflow
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1027);
    }

    #[test]
    fn snapshot_merge_adds() {
        let h = Histogram::new(vec![2, 4]);
        h.record(1);
        h.record(3);
        let mut a = h.snapshot();
        h.record(100);
        let b = h.snapshot();
        a.merge(&b);
        assert_eq!(a.count, 5);
        assert_eq!(a.buckets, vec![2, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn merge_rejects_shape_mismatch() {
        let mut a = HistogramSnapshot::empty(vec![1, 2]);
        let b = HistogramSnapshot::empty(vec![1, 3]);
        a.merge(&b);
    }

    #[test]
    fn registry_reuses_instruments() {
        let m = Metrics::new();
        m.counter("x").inc();
        m.counter("x").inc();
        assert_eq!(m.counter("x").get(), 2);
        m.histogram("h").record(7);
        let snap = m.snapshot();
        assert_eq!(snap.counters["x"], 2);
        assert_eq!(snap.histograms["h"].count, 1);
    }

    #[test]
    fn exponential_bounds_double() {
        let h = Histogram::exponential(1, 5);
        assert_eq!(h.snapshot().bounds, vec![1, 2, 4, 8, 16]);
    }
}
