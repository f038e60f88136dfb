//! Deterministic fault injection for the gossip network.
//!
//! The paper's §VI outlook asks for the tangle to be benchmarked under
//! "faults introduced by real-world network conditions". This module is
//! the schedule for those faults: a [`FaultPlan`] describes per-peer
//! crash/restart events and per-link perturbations (extra drops,
//! duplicated deliveries, payload corruption, reordering jitter), all
//! driven by a dedicated RNG seeded from [`FaultPlan::seed`] so the same
//! plan reproduces the same fault sequence byte-for-byte — and so a
//! benign plan (all rates zero, no crashes) consumes no randomness and
//! leaves a run bit-identical to one with no plan installed at all.
//!
//! Recovery is protocol-driven, not harness-driven: [`RepairConfig`]
//! parameterizes the retries of the pull protocol (see
//! [`crate::protocol::NodeProtocol`]) through which peers re-solidify
//! after losses and restarts — bounded re-requests, plus settled and
//! link-up head advertisements.

use crate::transport::ProtocolMsg;
use rand::RngExt;
use serde::{Deserialize, Serialize};
use std::ops::RangeInclusive;
use tinynn::rng::Rng;

/// How a crashed peer comes back.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Recovery {
    /// Rejoin with a fresh replica holding only the genesis.
    Empty,
    /// Restore the replica from the peer's last persisted checkpoint
    /// (falls back to [`Recovery::Empty`] when no checkpoint exists or
    /// the checkpoint fails validation).
    FromCheckpoint,
}

/// One scheduled crash (and optional restart) of a peer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashEvent {
    /// Peer to crash.
    pub peer: usize,
    /// Simulated tick at which the peer goes down.
    pub at: u64,
    /// Tick at which the peer comes back up (`None` = stays down).
    pub restart_at: Option<u64>,
    /// State the peer restarts from.
    pub recovery: Recovery,
}

/// A deterministic schedule of faults, installed with
/// [`crate::network::Network::install_faults`]. Serializable so a fault
/// schedule can be archived next to the run it perturbed and replayed
/// byte-for-byte (the `lt-net` `ChaosPlan` reuses these types for its
/// kill schedule).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for the fault RNG. Separate from the network seed so
    /// enabling fault injection never perturbs the base latency/loss
    /// randomness.
    pub seed: u64,
    /// Extra per-hop drop probability, applied after the base loss model.
    pub drop: f64,
    /// Per-hop probability that a delivery is duplicated (the copy takes
    /// its own independently drawn latency).
    pub duplicate: f64,
    /// Per-hop probability that a transaction payload has one byte
    /// flipped in flight (caught by the wire checksum at the receiver).
    pub corrupt: f64,
    /// Extra uniformly drawn latency in `0..=reorder_jitter` ticks added
    /// per hop, shuffling delivery order (0 = off).
    pub reorder_jitter: u64,
    /// Scheduled crash/restart events.
    pub crashes: Vec<CrashEvent>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            drop: 0.0,
            duplicate: 0.0,
            corrupt: 0.0,
            reorder_jitter: 0,
            crashes: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// Does this plan perturb anything at all? A benign plan is
    /// guaranteed not to consume fault randomness, so installing it
    /// leaves the simulation bit-identical to running without one.
    pub fn is_benign(&self) -> bool {
        self.drop == 0.0
            && self.duplicate == 0.0
            && self.corrupt == 0.0
            && self.reorder_jitter == 0
            && self.crashes.is_empty()
    }

    /// Perturb one hop — the only implementation of the link faults,
    /// called by [`Links`](crate::network::Links), the one in-memory
    /// transport (the simulator's link layer; stand-alone in protocol
    /// tests, as `lt_net::MockTransport`).
    /// `rng` is the fault RNG (seeded from [`FaultPlan::seed`]) and is
    /// consulted only for non-zero rates; `base_delay` is the hop's
    /// latency as the transport already drew it from `latency`. Returns
    /// `None` when the hop is dropped, otherwise the delivery delay and,
    /// when the hop is duplicated, the copy's independently drawn delay;
    /// `pkt`'s payload may have had one bit flipped.
    ///
    /// The order of draws is frozen (tests pin whole runs to it): drop,
    /// duplicate, corrupt (+ byte and bit), jitter, then for a copy one
    /// unused jitter draw, its latency and its jitter.
    pub fn perturb_hop(
        &self,
        rng: &mut Rng,
        pkt: &mut ProtocolMsg,
        base_delay: u64,
        latency: RangeInclusive<u64>,
    ) -> Option<(u64, Option<u64>)> {
        if self.drop > 0.0 && rng.random_range(0.0..1.0) < self.drop {
            return None;
        }
        let duplicated = self.duplicate > 0.0 && rng.random_range(0.0..1.0) < self.duplicate;
        if self.corrupt > 0.0 {
            if let ProtocolMsg::Publish(msg) | ProtocolMsg::Delta(msg) = pkt {
                if rng.random_range(0.0..1.0) < self.corrupt && !msg.payload.is_empty() {
                    let idx = rng.random_range(0..msg.payload.len());
                    let bit = 1u8 << rng.random_range(0..8u32);
                    let mut bytes = msg.payload.to_vec();
                    bytes[idx] ^= bit;
                    msg.payload = bytes.into();
                }
            }
        }
        let jitter = |rng: &mut Rng| match self.reorder_jitter {
            0 => 0,
            j => rng.random_range(0..=j),
        };
        let delay = base_delay + jitter(rng);
        let copy = duplicated.then(|| {
            jitter(rng); // the frozen order's unused draw
            rng.random_range(latency) + jitter(rng)
        });
        Some((delay, copy))
    }

    /// Build a churn schedule: `cycles` crash/restart events spread
    /// evenly over `horizon` ticks, each hitting a deterministically
    /// derived peer, down for `downtime` ticks, recovering from its
    /// checkpoint. Peer 0 is never crashed so experiments always keep a
    /// stable observer to evaluate.
    pub fn churn(peers: usize, cycles: usize, horizon: u64, downtime: u64, seed: u64) -> Self {
        assert!(peers >= 2, "churn needs at least two peers");
        let mut crashes = Vec::with_capacity(cycles);
        for k in 0..cycles {
            let at = horizon * (k as u64 + 1) / (cycles as u64 + 1);
            let peer = 1 + (tinynn::rng::derive(seed, k as u64) as usize) % (peers - 1);
            crashes.push(CrashEvent {
                peer,
                at: at.max(1),
                restart_at: Some(at.max(1) + downtime.max(1)),
                recovery: Recovery::FromCheckpoint,
            });
        }
        Self {
            seed,
            crashes,
            ..Self::default()
        }
    }
}

/// Parameters of the pull protocol's retries.
#[derive(Clone, Copy, Debug)]
pub struct RepairConfig {
    /// Ticks a requested transaction may take to arrive before it is
    /// asked for again, from the next neighbour known to hold it; for a
    /// missing parent nobody claims to hold, the base of an exponential
    /// backoff (attempt `a` waits `backoff_base << a` ticks).
    pub backoff_base: u64,
    /// Re-requests per wanted transaction before giving up (a fresh
    /// announcement or a head advertisement re-arms it), and re-sends of
    /// a settled head advertisement.
    pub max_retries: u32,
}

impl Default for RepairConfig {
    fn default() -> Self {
        Self {
            backoff_base: 8,
            max_retries: 6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_benign() {
        assert!(FaultPlan::default().is_benign());
    }

    #[test]
    fn any_perturbation_breaks_benignity() {
        for plan in [
            FaultPlan {
                drop: 0.1,
                ..FaultPlan::default()
            },
            FaultPlan {
                duplicate: 0.1,
                ..FaultPlan::default()
            },
            FaultPlan {
                corrupt: 0.1,
                ..FaultPlan::default()
            },
            FaultPlan {
                reorder_jitter: 3,
                ..FaultPlan::default()
            },
            FaultPlan {
                crashes: vec![CrashEvent {
                    peer: 1,
                    at: 5,
                    restart_at: None,
                    recovery: Recovery::Empty,
                }],
                ..FaultPlan::default()
            },
        ] {
            assert!(!plan.is_benign());
        }
    }

    #[test]
    fn churn_schedule_is_deterministic_and_spread() {
        let a = FaultPlan::churn(8, 4, 100, 10, 7);
        let b = FaultPlan::churn(8, 4, 100, 10, 7);
        assert_eq!(a.crashes.len(), 4);
        for (x, y) in a.crashes.iter().zip(&b.crashes) {
            assert_eq!(x.peer, y.peer);
            assert_eq!(x.at, y.at);
            assert_eq!(x.restart_at, y.restart_at);
        }
        // spread over the horizon, never peer 0, always restarting later
        for c in &a.crashes {
            assert!(c.peer >= 1 && c.peer < 8);
            assert!(c.at >= 1 && c.at <= 100);
            assert!(c.restart_at.unwrap() > c.at);
            assert_eq!(c.recovery, Recovery::FromCheckpoint);
        }
        let times: Vec<u64> = a.crashes.iter().map(|c| c.at).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        // a different seed picks different peers (overwhelmingly likely)
        let c = FaultPlan::churn(8, 4, 100, 10, 8);
        assert!(
            a.crashes
                .iter()
                .zip(&c.crashes)
                .any(|(x, y)| x.peer != y.peer),
            "derived peers should vary with the seed"
        );
    }
}
