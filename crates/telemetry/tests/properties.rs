//! Property-based tests of the telemetry primitives: histogram merges
//! behave like an abelian monoid, counter snapshots are monotone, and
//! structured events survive a JSON round trip.

use lt_telemetry::{
    Event, Histogram, HistogramSnapshot, Metrics, ReferenceEntry, RoundEvent, StepEvent,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Build a snapshot over doubling bounds from raw values.
fn snapshot_of(values: &[u64]) -> HistogramSnapshot {
    let h = Histogram::exponential(1, 12);
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn histogram_merge_is_commutative(
        xs in prop::collection::vec(0u64..10_000, 0..40),
        ys in prop::collection::vec(0u64..10_000, 0..40),
    ) {
        let (a, b) = (snapshot_of(&xs), snapshot_of(&ys));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn histogram_merge_is_associative(
        xs in prop::collection::vec(0u64..10_000, 0..30),
        ys in prop::collection::vec(0u64..10_000, 0..30),
        zs in prop::collection::vec(0u64..10_000, 0..30),
    ) {
        let (a, b, c) = (snapshot_of(&xs), snapshot_of(&ys), snapshot_of(&zs));
        // (a + b) + c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a + (b + c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn histogram_merge_equals_recording_everything_at_once(
        xs in prop::collection::vec(0u64..100_000, 0..50),
        ys in prop::collection::vec(0u64..100_000, 0..50),
    ) {
        let mut merged = snapshot_of(&xs);
        merged.merge(&snapshot_of(&ys));
        let mut all = xs.clone();
        all.extend_from_slice(&ys);
        prop_assert_eq!(merged, snapshot_of(&all));
    }

    #[test]
    fn empty_snapshot_is_the_merge_identity(
        xs in prop::collection::vec(0u64..10_000, 0..40),
    ) {
        let a = snapshot_of(&xs);
        let mut merged = HistogramSnapshot::empty(a.bounds.clone());
        merged.merge(&a);
        prop_assert_eq!(merged, a);
    }

    #[test]
    fn histogram_totals_match_inputs(
        xs in prop::collection::vec(0u64..1_000_000, 0..60),
    ) {
        let s = snapshot_of(&xs);
        prop_assert_eq!(s.count, xs.len() as u64);
        prop_assert_eq!(s.sum, xs.iter().sum::<u64>());
        prop_assert_eq!(s.buckets.iter().sum::<u64>(), xs.len() as u64);
    }

    #[test]
    fn counter_snapshots_are_monotone(
        increments in prop::collection::vec(0u64..1_000, 1..30),
    ) {
        let metrics = Metrics::new();
        let mut previous = 0u64;
        for (i, inc) in increments.iter().enumerate() {
            metrics.counter("events").add(*inc);
            let snap = metrics.snapshot();
            let now = snap.counters["events"];
            prop_assert!(now >= previous, "counter went backwards at step {}", i);
            prop_assert_eq!(now, increments[..=i].iter().sum::<u64>());
            previous = now;
        }
    }

    #[test]
    fn metrics_snapshot_merge_adds_counters(
        a in 0u64..1_000_000,
        b in 0u64..1_000_000,
    ) {
        let (ma, mb) = (Metrics::new(), Metrics::new());
        ma.counter("x").add(a);
        mb.counter("x").add(b);
        mb.counter("only_b").inc();
        let mut merged = ma.snapshot();
        merged.merge(&mb.snapshot());
        prop_assert_eq!(merged.counters["x"], a + b);
        prop_assert_eq!(merged.counters["only_b"], 1);
    }

    #[test]
    fn step_events_roundtrip_through_json(
        round in any::<u64>(),
        node in 0u64..10_000,
        accepted in any::<bool>(),
        parents in prop::collection::vec(0u32..100_000, 0..6),
        new_loss in prop::option::of(0.0f64..100.0),
        reference_loss in prop::option::of(0.0f64..100.0),
    ) {
        let ev = Event::Step(StepEvent {
            round,
            node,
            accepted,
            parents,
            new_loss: new_loss.map(|v| v as f32),
            reference_loss: reference_loss.map(|v| v as f32),
        });
        let line = serde_json::to_string(&ev).unwrap();
        prop_assert!(!line.contains('\n'), "JSONL events must be single-line");
        let back: Event = serde_json::from_str(&line).unwrap();
        prop_assert_eq!(back, ev);
    }

    #[test]
    fn round_events_roundtrip_through_json(
        round in any::<u64>(),
        sampled in 0u64..1_000,
        published in 0u64..1_000,
        tip_count in 0u64..1_000,
        tangle_len in 0u64..1_000_000,
        confs in prop::collection::vec(0.0f64..1.0, 0..5),
        with_phases in any::<bool>(),
    ) {
        let reference: Vec<ReferenceEntry> = confs
            .iter()
            .enumerate()
            .map(|(i, &c)| ReferenceEntry {
                tx: i as u32,
                confidence: c as f32,
                rating: (i * 3) as u32,
            })
            .collect();
        let phase_us = with_phases.then(|| {
            let mut m = BTreeMap::new();
            m.insert("analysis".to_string(), round % 977);
            m.insert("step".to_string(), round % 1009);
            m
        });
        let ev = Event::Round(RoundEvent {
            round,
            sampled,
            published,
            rejected: sampled.saturating_sub(published),
            malicious_published: 0,
            lost_publications: round % 7,
            tip_count,
            tangle_len,
            reference,
            walk_count: sampled * 2,
            phase_us,
        });
        let line = serde_json::to_string(&ev).unwrap();
        prop_assert!(!line.contains('\n'), "JSONL events must be single-line");
        let back: Event = serde_json::from_str(&line).unwrap();
        prop_assert_eq!(back, ev);
    }
}
