//! Structured simulator events, one JSON object per line on the wire.
//!
//! Each event is an externally tagged enum variant, so a JSONL line looks
//! like `{"Round":{...}}` and a consumer can dispatch on the single key.
//! All fields are plain values — no wall-clock timestamps — so that a
//! run with span timings disabled emits **byte-identical** JSONL for a
//! fixed seed (the deterministic-replay regression test relies on this).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One reference-model constituent: Algorithm 1 picks the transactions
/// maximizing `confidence × rating`; this records the factors.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReferenceEntry {
    /// Transaction id within the snapshot.
    pub tx: u32,
    /// Exact walk confidence (the chance that a walk from the genesis
    /// passes the transaction) at selection time.
    pub confidence: f32,
    /// Past-cone rating at selection time.
    pub rating: u32,
}

/// One node's Algorithm 2 execution within a round.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StepEvent {
    /// Round (or activation slot) index.
    pub round: u64,
    /// Node id.
    pub node: u64,
    /// Did the publish gate accept the trained model?
    pub accepted: bool,
    /// The approved parent tips (empty when rejected or lost).
    pub parents: Vec<u32>,
    /// Local validation loss of the freshly trained model.
    pub new_loss: Option<f32>,
    /// Local validation loss of the consensus reference.
    pub reference_loss: Option<f32>,
}

/// End-of-round ledger health summary.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RoundEvent {
    /// Round index (1-based).
    pub round: u64,
    /// Nodes sampled this round.
    pub sampled: u64,
    /// Publications accepted into the ledger.
    pub published: u64,
    /// Steps whose publish gate rejected the trained model.
    pub rejected: u64,
    /// Publications issued by currently-malicious nodes.
    pub malicious_published: u64,
    /// Publications dropped by the lossy network so far (cumulative).
    pub lost_publications: u64,
    /// Tip count after the round barrier.
    pub tip_count: u64,
    /// Ledger size after the round barrier.
    pub tangle_len: u64,
    /// The reference set used this round (empty under per-node stale
    /// views, where no single shared reference exists).
    pub reference: Vec<ReferenceEntry>,
    /// Tips drawn so far by the emitting simulation (cumulative).
    pub walk_count: u64,
    /// Wall time per phase in microseconds; `None` unless span timings
    /// are enabled (they are off by default to keep output deterministic).
    /// The round simulator's phases are `analysis`, `step` and `publish`.
    /// A part measured inside a phase is keyed `<phase>.<part>`:
    /// `analysis.refresh`, `analysis.walk_table` and `analysis.reference`
    /// on the ideal network, `analysis.full` and `analysis.walk_table`
    /// under a network model. `evaluate` and `train` are the step's busy
    /// time summed over threads, so they may exceed `step`.
    pub phase_us: Option<BTreeMap<String, u64>>,
}

/// One fault-engine transition: a peer crash, restart or recovery.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Simulated tick of the gossip network.
    pub at: u64,
    /// Affected peer id.
    pub peer: u64,
    /// Transition kind: `"crash"`, `"restart"` or `"recovered"`.
    pub kind: String,
}

/// Every event the simulators emit.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A node-level Algorithm 2 outcome.
    Step(StepEvent),
    /// A round-level ledger summary.
    Round(RoundEvent),
    /// A fault-engine lifecycle transition.
    Fault(FaultEvent),
}

impl Event {
    /// The round the event belongs to, when it has one.
    pub fn round(&self) -> Option<u64> {
        match self {
            Event::Step(e) => Some(e.round),
            Event::Round(e) => Some(e.round),
            Event::Fault(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_event_roundtrips_through_json() {
        let ev = Event::Round(RoundEvent {
            round: 3,
            sampled: 5,
            published: 4,
            rejected: 1,
            malicious_published: 0,
            lost_publications: 2,
            tip_count: 6,
            tangle_len: 40,
            reference: vec![ReferenceEntry {
                tx: 17,
                confidence: 0.75,
                rating: 12,
            }],
            walk_count: 90,
            phase_us: None,
        });
        let line = serde_json::to_string(&ev).unwrap();
        assert!(line.starts_with("{\"Round\":{"));
        let back: Event = serde_json::from_str(&line).unwrap();
        assert_eq!(back, ev);
    }

    #[test]
    fn step_event_roundtrips_through_json() {
        let ev = Event::Step(StepEvent {
            round: 1,
            node: 9,
            accepted: true,
            parents: vec![3, 3],
            new_loss: Some(0.5),
            reference_loss: Some(0.9),
        });
        let back: Event = serde_json::from_str(&serde_json::to_string(&ev).unwrap()).unwrap();
        assert_eq!(back, ev);
    }

    #[test]
    fn fault_event_roundtrips_through_json() {
        let ev = Event::Fault(FaultEvent {
            at: 42,
            peer: 3,
            kind: "restart".to_string(),
        });
        let line = serde_json::to_string(&ev).unwrap();
        assert!(line.starts_with("{\"Fault\":{"));
        let back: Event = serde_json::from_str(&line).unwrap();
        assert_eq!(back, ev);
        assert_eq!(ev.round(), None);
    }

    #[test]
    fn phase_map_serializes_sorted() {
        let mut phase_us = BTreeMap::new();
        phase_us.insert("train".to_string(), 100u64);
        phase_us.insert("analysis".to_string(), 50u64);
        let ev = RoundEvent {
            round: 1,
            sampled: 0,
            published: 0,
            rejected: 0,
            malicious_published: 0,
            lost_publications: 0,
            tip_count: 1,
            tangle_len: 1,
            reference: vec![],
            walk_count: 0,
            phase_us: Some(phase_us),
        };
        let line = serde_json::to_string(&ev).unwrap();
        let analysis = line.find("analysis").unwrap();
        let train = line.find("train").unwrap();
        assert!(analysis < train, "BTreeMap keys must serialize sorted");
    }
}
