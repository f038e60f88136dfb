//! Deterministic in-memory transport for socket-free protocol tests.
//!
//! [`MockTransport`] implements [`Transport`] as a seeded discrete-event
//! queue with an explicit clock: sends are scheduled with drawn latency
//! and — when a [`FaultPlan`] is armed — perturbed by
//! [`FaultPlan::perturb_hop`], the same function the in-process
//! simulator's link layer calls. Tests pop due deliveries and feed them
//! into [`crate::NodeProtocol`]s by hand, so every interleaving is
//! replayable from the seed alone.

use rand::RngExt;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use tangle_gossip::{FaultPlan, ProtocolMsg, Transport};
use tinynn::rng::{derive, seeded, Rng};

/// One scheduled delivery.
pub struct Delivery {
    /// Delivery time on the mock clock.
    pub at: u64,
    /// Sending node.
    pub from: usize,
    /// Receiving node.
    pub to: usize,
    /// The message.
    pub msg: ProtocolMsg,
}

/// Seeded, clock-explicit mock transport.
pub struct MockTransport {
    now: u64,
    seq: u64,
    queue: BinaryHeap<Reverse<(u64, u64)>>,
    pending: HashMap<u64, Delivery>,
    latency: (u64, u64),
    plan: FaultPlan,
    rng: Rng,
    fault_rng: Rng,
    /// Sends attempted via [`Transport::send`].
    pub sent: u64,
    /// Sends the loss model (or fault drop rate) discarded.
    pub dropped: u64,
}

impl MockTransport {
    /// A mock with per-hop latency drawn from `latency.0..=latency.1`
    /// ticks and a benign fault plan.
    pub fn new(seed: u64, latency: (u64, u64)) -> Self {
        Self {
            now: 0,
            seq: 0,
            queue: BinaryHeap::new(),
            pending: HashMap::new(),
            latency: (latency.0, latency.1.max(latency.0)),
            plan: FaultPlan::default(),
            rng: seeded(derive(seed, 0x30C4)),
            fault_rng: seeded(derive(seed, 0xFA017)),
            sent: 0,
            dropped: 0,
        }
    }

    /// Arm a fault plan (crash events are ignored — the mock has no
    /// peer lifecycle; drop/duplicate/corrupt/reorder apply per hop).
    pub fn install_faults(&mut self, plan: FaultPlan) {
        self.fault_rng = seeded(derive(plan.seed, 0xFA017));
        self.plan = plan;
    }

    /// Current mock time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Deliveries still in flight.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Time of the next scheduled delivery, if any.
    pub fn next_at(&self) -> Option<u64> {
        self.queue.peek().map(|Reverse((at, _))| *at)
    }

    /// Pop the next delivery, advancing the clock to it.
    pub fn pop_next(&mut self) -> Option<Delivery> {
        let Reverse((at, key)) = self.queue.pop()?;
        let d = self.pending.remove(&key).expect("delivery recorded");
        self.now = self.now.max(at);
        Some(d)
    }

    /// Pop the next delivery only if it is due by `deadline`.
    pub fn pop_due(&mut self, deadline: u64) -> Option<Delivery> {
        if self.next_at()? > deadline {
            return None;
        }
        self.pop_next()
    }

    /// Advance the clock without delivering (models idle waiting).
    pub fn advance_to(&mut self, at: u64) {
        self.now = self.now.max(at);
    }

    fn schedule(&mut self, from: usize, to: usize, delay: u64, msg: ProtocolMsg) {
        let at = self.now + delay;
        self.seq += 1;
        self.queue.push(Reverse((at, self.seq)));
        self.pending
            .insert(self.seq, Delivery { at, from, to, msg });
    }
}

impl Transport for MockTransport {
    fn send(&mut self, from: usize, to: usize, mut msg: ProtocolMsg) -> bool {
        self.sent += 1;
        let latency = self.latency.0..=self.latency.1;
        let base_delay = self.rng.random_range(latency.clone());
        let Some((mut delay, copy)) =
            self.plan
                .perturb_hop(&mut self.fault_rng, &mut msg, base_delay, latency)
        else {
            self.dropped += 1;
            return false;
        };
        if let Some(copy_delay) = copy {
            self.schedule(from, to, delay, msg.clone());
            delay = copy_delay;
        }
        self.schedule(from, to, delay, msg);
        true
    }
}
