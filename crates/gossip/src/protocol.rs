//! One peer's protocol engine, written against the transport boundary.
//!
//! [`NodeProtocol`] is the only implementation of the gossip protocol in
//! this repository: receive-and-forward flooding, advertise / request /
//! delta repair, bounded re-requests with exponential backoff
//! (`backoff_base << attempt`, shift capped at 16) and rotating
//! neighbour selection (`nbrs[(attempt + cid) % len]`) over an
//! `attempts: missing cid → (attempt, next_at)` map. The simulated
//! [`Network`](crate::network::Network) owns one engine per peer and
//! drives them from its event queue; the `lt-node` daemon owns one and
//! drives it from its socket threads; `lt_net::MockTransport` tests drive
//! a handful by hand. A verdict reached in one of them is a verdict about
//! the same code in the others.
//!
//! Time is an explicit `u64` the embedder advances: the daemon feeds
//! milliseconds since start, the simulator and the mock feed ticks. The
//! engine never schedules itself — after every call the embedder reads
//! [`NodeProtocol::next_wake`] and arranges for [`NodeProtocol::tick`].

use crate::fault::RepairConfig;
use crate::message::{ContentId, TxMessage};
use crate::peer::{Peer, ReceiveOutcome};
use crate::transport::{LinkState, ProtocolMsg, Transport};
use std::collections::BTreeMap;

/// Per-node gossip + repair protocol state machine.
pub struct NodeProtocol {
    id: usize,
    peer: Peer,
    neighbours: Vec<usize>,
    repair_cfg: RepairConfig,
    /// Missing content id → (re-requests issued, next re-request time).
    attempts: BTreeMap<ContentId, (u32, u64)>,
    /// Earliest pending repair wake-up, if any.
    next_tick: Option<u64>,
    now: u64,
    telemetry: lt_telemetry::Telemetry,
}

impl NodeProtocol {
    /// A protocol engine for peer `id` starting from the shared genesis.
    pub fn new(id: usize, genesis: &TxMessage, pow_difficulty: u32, orphan_cap: usize) -> Self {
        Self::from_peer(Peer::new(id, genesis, pow_difficulty).with_orphan_cap(orphan_cap))
    }

    /// A protocol engine wrapped around an already-built replica —
    /// the restore path: the daemon and the simulator rebuild a [`Peer`]
    /// from an LTCP checkpoint and resume gossiping from that prefix.
    /// Repair state starts empty; head advertisement rounds re-arm it as
    /// live neighbours reveal what the checkpoint missed.
    pub fn from_peer(peer: Peer) -> Self {
        Self {
            id: peer.id,
            peer,
            neighbours: Vec::new(),
            repair_cfg: RepairConfig::default(),
            attempts: BTreeMap::new(),
            next_tick: None,
            now: 0,
            telemetry: lt_telemetry::Telemetry::disabled(),
        }
    }

    /// Override the repair parameters.
    pub fn set_repair(&mut self, cfg: RepairConfig) {
        self.repair_cfg = cfg;
    }

    /// Attach an observability handle: deliveries are then mirrored into
    /// `net.delivered` / `net.duplicates` / `net.orphaned` /
    /// `net.rejected_rx` / `net.rerequests`. The simulator leaves its
    /// engines' handles disabled and counts the same points as `gossip.*`
    /// from the values [`NodeProtocol::on_message`] and
    /// [`NodeProtocol::tick`] return.
    pub fn set_telemetry(&mut self, telemetry: lt_telemetry::Telemetry) {
        self.telemetry = telemetry;
    }

    /// Replace the neighbour set: the connected peer ids (daemon) or the
    /// topology's adjacency (simulator). Floods and rotations follow its
    /// order.
    pub fn set_neighbours(&mut self, neighbours: Vec<usize>) {
        self.neighbours = neighbours;
    }

    /// The current neighbour set.
    pub fn neighbours(&self) -> &[usize] {
        &self.neighbours
    }

    /// This node's id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The underlying replica holder.
    pub fn peer(&self) -> &Peer {
        &self.peer
    }

    /// Write access for the simulator's anti-entropy oracle, which
    /// teleports state past the protocol.
    pub(crate) fn peer_mut(&mut self) -> &mut Peer {
        &mut self.peer
    }

    /// Advance the protocol clock (monotonic; going backwards is a no-op).
    pub fn set_now(&mut self, now: u64) {
        self.now = self.now.max(now);
    }

    /// Current protocol clock.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// When [`NodeProtocol::tick`] next wants to run, if ever.
    pub fn next_wake(&self) -> Option<u64> {
        self.next_tick
    }

    /// Publish a locally created transaction: insert it into the replica
    /// and flood it to every neighbour. Returns the receive outcome (a
    /// self-publish is normally [`ReceiveOutcome::Accepted`]).
    pub fn publish(&mut self, msg: TxMessage, t: &mut impl Transport) -> ReceiveOutcome {
        let outcome = self.peer.receive(&msg);
        if outcome == ReceiveOutcome::Accepted || outcome == ReceiveOutcome::OrphanBuffered {
            self.forward(usize::MAX, msg, t);
        }
        outcome
    }

    /// Advertise this node's heads to every neighbour the transport does
    /// not know to be down (the push half of anti-entropy; the replies
    /// carry whatever the neighbours hold that we provably lack, and our
    /// unknown-head registrations pull the rest).
    pub fn advertise_heads(&mut self, t: &mut impl Transport) {
        let heads = self.peer.heads();
        for &nb in &self.neighbours {
            if t.link_state(self.id, nb) == LinkState::Down {
                continue;
            }
            t.send(
                self.id,
                nb,
                ProtocolMsg::Advertise {
                    heads: heads.clone(),
                },
            );
        }
    }

    /// Handle one protocol message arriving from neighbour `from`.
    /// Returns the receive outcome for transaction-carrying messages.
    pub fn on_message(
        &mut self,
        from: usize,
        msg: ProtocolMsg,
        t: &mut impl Transport,
    ) -> Option<ReceiveOutcome> {
        match msg {
            // Publish and Delta carry the same payload and are handled
            // identically; only the wire-level intent differs.
            ProtocolMsg::Publish(m) | ProtocolMsg::Delta(m) => {
                self.telemetry.count("net.delivered", 1);
                let outcome = self.peer.receive(&m);
                match outcome {
                    ReceiveOutcome::Accepted => self.forward(from, m, t),
                    ReceiveOutcome::OrphanBuffered => {
                        self.telemetry.count("net.orphaned", 1);
                        self.forward(from, m, t);
                        if self.repair_cfg.enabled {
                            self.schedule_tick(self.now + self.repair_cfg.delay);
                        }
                    }
                    ReceiveOutcome::Duplicate => self.telemetry.count("net.duplicates", 1),
                    ReceiveOutcome::InvalidPow | ReceiveOutcome::Corrupt => {
                        self.telemetry.count("net.rejected_rx", 1)
                    }
                }
                Some(outcome)
            }
            ProtocolMsg::Advertise { heads } => {
                let unknown: Vec<ContentId> = heads
                    .iter()
                    .copied()
                    .filter(|h| !self.peer.has_seen(*h))
                    .collect();
                for m in self.peer.delta_for(&heads) {
                    t.send(self.id, from, ProtocolMsg::Delta(m));
                }
                if !unknown.is_empty() && self.repair_cfg.enabled {
                    let first_due = self.now + self.repair_cfg.delay;
                    for cid in unknown {
                        let entry = self.attempts.entry(cid).or_insert((0, first_due));
                        if entry.0 >= self.repair_cfg.max_retries {
                            // fresh evidence the tx exists: retry anew
                            *entry = (0, first_due);
                        }
                    }
                    self.schedule_tick(first_due);
                }
                None
            }
            ProtocolMsg::Request { wants } => {
                let msgs: Vec<TxMessage> = wants
                    .iter()
                    .filter_map(|w| self.peer.message_for(*w).cloned())
                    .collect();
                for m in msgs {
                    t.send(self.id, from, ProtocolMsg::Delta(m));
                }
                None
            }
        }
    }

    /// One round of the pull protocol: re-request every due missing
    /// transaction from a rotating neighbour with an open link, back off
    /// exponentially per transaction, and remember the earliest future
    /// retry in [`NodeProtocol::next_wake`]. Returns the number of
    /// re-requests issued.
    pub fn tick(&mut self, now: u64, t: &mut impl Transport) -> u64 {
        self.set_now(now);
        if self.next_tick.is_some_and(|due| due <= self.now) {
            self.next_tick = None;
        }
        if !self.repair_cfg.enabled {
            return 0;
        }
        let now = self.now;
        let cfg = self.repair_cfg;
        let missing: Vec<ContentId> = self.peer.missing().iter().copied().collect();
        self.attempts
            .retain(|cid, _| missing.binary_search(cid).is_ok());
        for cid in &missing {
            self.attempts.entry(*cid).or_insert((0, now));
        }
        let nbrs: Vec<usize> = self
            .neighbours
            .iter()
            .copied()
            .filter(|&nb| t.link_state(self.id, nb) == LinkState::Open)
            .collect();
        if nbrs.is_empty() {
            return 0;
        }
        let mut sends: BTreeMap<usize, Vec<ContentId>> = BTreeMap::new();
        let mut next_due: Option<u64> = None;
        for (cid, (attempt, next_at)) in self.attempts.iter_mut() {
            if *attempt >= cfg.max_retries {
                continue;
            }
            if *next_at > now {
                next_due = Some(next_due.map_or(*next_at, |d| d.min(*next_at)));
                continue;
            }
            let nb = nbrs[(*attempt as usize + cid.0 as usize) % nbrs.len()];
            sends.entry(nb).or_default().push(*cid);
            *attempt += 1;
            *next_at = now + (cfg.backoff_base << (*attempt).min(16));
            if *attempt < cfg.max_retries {
                next_due = Some(next_due.map_or(*next_at, |d| d.min(*next_at)));
            }
        }
        let total: u64 = sends.values().map(|v| v.len() as u64).sum();
        if total > 0 {
            self.telemetry.count("net.rerequests", total);
        }
        for (nb, wants) in sends {
            t.send(self.id, nb, ProtocolMsg::Request { wants });
        }
        if let Some(due) = next_due {
            self.schedule_tick(due);
        }
        total
    }

    /// Re-request attempts issued so far for `cid` (test observability).
    pub fn attempts_for(&self, cid: ContentId) -> u32 {
        self.attempts.get(&cid).map_or(0, |(a, _)| *a)
    }

    fn schedule_tick(&mut self, at: u64) {
        if self.next_tick.is_none_or(|due| at < due) {
            self.next_tick = Some(at);
        }
    }

    /// Flood a first-seen transaction to every neighbour except the one
    /// it arrived from.
    fn forward(&mut self, came_from: usize, msg: TxMessage, t: &mut impl Transport) {
        for &nb in &self.neighbours {
            if nb == came_from {
                continue;
            }
            t.send(self.id, nb, ProtocolMsg::Publish(msg.clone()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinynn::ParamVec;

    /// Records sends; `states[to]` is what it claims to know about a link.
    struct Wire {
        sent: Vec<(usize, ProtocolMsg)>,
        states: Vec<LinkState>,
    }

    impl Transport for Wire {
        fn send(&mut self, _from: usize, to: usize, msg: ProtocolMsg) -> bool {
            self.sent.push((to, msg));
            true
        }

        fn link_state(&self, _from: usize, to: usize) -> LinkState {
            self.states[to]
        }
    }

    fn tx(parents: Vec<ContentId>, v: f32) -> TxMessage {
        TxMessage::create(&ParamVec(vec![v]), parents, 0, 0, 0)
    }

    /// Engine 0 with neighbours 1 (open), 2 (cut) and 3 (down), holding an
    /// orphan whose parent nobody will ever send.
    fn orphaned() -> (NodeProtocol, Wire, ContentId) {
        let genesis = tx(vec![], 0.0);
        let mut e = NodeProtocol::new(0, &genesis, 0, 16);
        e.set_neighbours(vec![1, 2, 3]);
        let mut wire = Wire {
            sent: Vec::new(),
            states: vec![
                LinkState::Open,
                LinkState::Open,
                LinkState::Cut,
                LinkState::Down,
            ],
        };
        let parent = tx(vec![genesis.content_id()], 1.0);
        let child = tx(vec![parent.content_id()], 2.0);
        let outcome = e.on_message(1, ProtocolMsg::Publish(child), &mut wire);
        assert_eq!(outcome, Some(ReceiveOutcome::OrphanBuffered));
        (e, wire, parent.content_id())
    }

    fn targets(wire: &mut Wire) -> Vec<usize> {
        wire.sent.drain(..).map(|(to, _)| to).collect()
    }

    #[test]
    fn link_state_narrows_advertising_and_rerequests_but_not_flooding() {
        let (mut e, mut wire, _) = orphaned();
        // first-seen from 1: flooded on, whatever the links look like
        assert_eq!(targets(&mut wire), [2, 3]);
        e.advertise_heads(&mut wire);
        assert_eq!(targets(&mut wire), [1, 2], "down neighbours are skipped");
        // every retry of the rotation lands on the only open link, and
        // `tick` reports each
        let mut retries = 0;
        while let Some(due) = e.next_wake() {
            assert_eq!(e.tick(due, &mut wire), 1);
            retries += 1;
        }
        assert_eq!(retries, RepairConfig::default().max_retries);
        assert_eq!(targets(&mut wire), vec![1; retries as usize]);
        assert_eq!(e.tick(e.now() + 1, &mut wire), 0, "retries exhausted");
    }

    #[test]
    fn advertised_unknown_head_rearms_exhausted_retries() {
        let (mut e, mut wire, parent) = orphaned();
        while let Some(due) = e.next_wake() {
            e.tick(due, &mut wire);
        }
        let heads = vec![parent];
        e.on_message(1, ProtocolMsg::Advertise { heads }, &mut wire);
        assert_eq!(e.attempts_for(parent), 0);
        assert_eq!(e.next_wake(), Some(e.now() + RepairConfig::default().delay));
    }
}
