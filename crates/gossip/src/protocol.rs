//! One peer's protocol engine, written against the transport boundary.
//!
//! [`NodeProtocol`] is the only implementation of the gossip protocol in
//! this repository. A transaction body crosses the network once per peer,
//! not once per link:
//!
//! * **eager** — the issuer pushes `Publish(body)` to each of its
//!   neighbours, and every peer that sees a transaction for the first
//!   time tells its other neighbours so with an 8-byte id
//!   (`Announce { issuer, ids }`), never with the body;
//! * **lazy** — a peer that is told of an id it has not seen records who
//!   holds it (`wanted: id → holders`) and pulls it with `Request`,
//!   answered by `Delta(body)`. An announcer, an advertiser of heads and
//!   the sender of an orphan (for the orphan's unseen parents) are all
//!   holders, and the first of them is asked at once — unless the issuer
//!   is a neighbour, whose push is already on its way;
//! * **repair** — a wanted id still missing after `backoff_base` is
//!   re-requested at that interval from its holders in rotation
//!   (`holders[(attempt + cid) % len]`), a missing parent nobody claims
//!   with exponential backoff (`backoff_base << attempt`, shift capped at
//!   16) from all neighbours in rotation, each at most `max_retries`
//!   times. Fresh evidence re-arms what gave up: an announcement, a head
//!   advertisement, or the next orphan (its sender is evidently ahead);
//! * **settled advertisement** — nothing names a lost or evicted final
//!   tip again, so every admission that changes the replica arms one
//!   head advertisement, sent by [`NodeProtocol::tick`] after
//!   `SETTLE_PATIENCES` quiet re-request intervals once no orphan's
//!   parent is still being re-requested, and re-sent at that interval up
//!   to `max_retries` times: a neighbour that admitted nothing never
//!   advertises back, so one lost copy would leave it behind for good. A
//!   link that opens gets one at once ([`NodeProtocol::on_link_up`]).
//!   The replies (`Delta` of what our heads do not cover, `Request` of
//!   heads never seen) refill the gap — anti-entropy in the sense of
//!   Demers et al. (PODC 1987).
//!
//! The simulated [`Network`](crate::network::Network) owns one engine per
//! peer and drives them from its event queue; the `lt-node` daemon owns
//! one and drives it from its socket threads; protocol tests drive a
//! handful by hand over a stand-alone [`Links`](crate::network::Links)
//! (`lt_net::MockTransport`). None advertises on the engine's behalf, so
//! a verdict reached in one of them is a verdict about the others.
//!
//! Time is an explicit `u64` the embedder advances: the daemon feeds
//! milliseconds since start, the simulator and the mock feed ticks. The
//! engine never schedules itself — after every call the embedder reads
//! [`NodeProtocol::next_wake`] and arranges for [`NodeProtocol::tick`].

use crate::fault::RepairConfig;
use crate::message::{ContentId, TxMessage};
use crate::peer::{Peer, ReceiveOutcome};
use crate::transport::{LinkState, ProtocolMsg, Transport};
use std::collections::{BTreeMap, VecDeque};

/// Re-request intervals (`backoff_base + 1`: 36 ticks in the simulator,
/// 104 ms in the daemon) without an admission before the settled head
/// advertisement, and between its re-sends. At 1, `gossip_flood` seed 19
/// advertised 56 times mid-run (duplicates 6 → 1 343, wire bytes +3.4 %);
/// at 4 only `ticks` moves.
pub(crate) const SETTLE_PATIENCES: u64 = 4;

/// Per-node gossip + repair protocol state machine.
pub struct NodeProtocol {
    id: usize,
    peer: Peer,
    neighbours: Vec<usize>,
    repair_cfg: RepairConfig,
    /// Unseen content id → the neighbours that said they hold it, in the
    /// order they said so. Bounded by the peer's orphan cap and by
    /// `neighbours.len()` per id; a neighbour can make us want an id
    /// nobody holds, which costs `1 + max_retries` small requests to it.
    wanted: BTreeMap<ContentId, Vec<usize>>,
    /// The ids of `wanted`, oldest first (what the cap drops). May hold
    /// ids that have arrived since; the front is trimmed to a live one.
    wanted_order: VecDeque<ContentId>,
    /// Wanted or missing content id → (re-requests issued, next
    /// re-request time).
    attempts: BTreeMap<ContentId, (u32, u64)>,
    /// Earliest pending repair wake-up, if any.
    next_tick: Option<u64>,
    /// When the armed settled head advertisement is due, and how often it
    /// has gone out since the replica last changed.
    advertise_at: Option<(u64, u32)>,
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
    /// Repair state starts empty; head advertisements over the links that
    /// open re-arm it as live neighbours reveal what the checkpoint missed.
    pub fn from_peer(peer: Peer) -> Self {
        Self {
            id: peer.id,
            peer,
            neighbours: Vec::new(),
            repair_cfg: RepairConfig::default(),
            wanted: BTreeMap::new(),
            wanted_order: VecDeque::new(),
            attempts: BTreeMap::new(),
            next_tick: None,
            advertise_at: None,
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
    /// `net.rejected_rx` / `net.rerequests`, orphans evicted by the
    /// buffer cap into `net.evicted`, announced ids into
    /// `net.announced` and ids asked for in first requests into
    /// `net.requested`. The simulator leaves its engines' handles
    /// disabled and counts the same points as `gossip.*` from what it
    /// sees pass and the values [`NodeProtocol::on_message`] and
    /// [`NodeProtocol::tick`] return.
    pub fn set_telemetry(&mut self, telemetry: lt_telemetry::Telemetry) {
        self.telemetry = telemetry;
    }

    /// Replace the neighbour set: the connected peer ids (daemon) or the
    /// topology's adjacency (simulator). Pushes, announcements and
    /// rotations follow its order; holders that are gone are forgotten.
    pub fn set_neighbours(&mut self, neighbours: Vec<usize>) {
        self.neighbours = neighbours;
        let nbrs = &self.neighbours;
        self.wanted.retain(|_, holders| {
            holders.retain(|h| nbrs.contains(h));
            !holders.is_empty()
        });
    }

    /// The current neighbour set.
    pub(crate) fn neighbours(&self) -> &[usize] {
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

    /// Content ids a neighbour said it holds that have not arrived yet,
    /// retries exhausted or not. A peer with a pending pull is not
    /// quiescent, whatever its orphan buffer says.
    pub fn pending(&self) -> usize {
        self.wanted.len()
    }

    /// Content ids this peer is still waiting for: the unseen parents of
    /// its orphans together with the ids it is pulling
    /// ([`NodeProtocol::pending`]), each counted once. Zero, with no
    /// orphans, is quiescence.
    pub fn waiting_for(&self) -> usize {
        let missing = self.peer.missing();
        let pulled_only = self.wanted.keys().filter(|cid| !missing.contains(cid));
        missing.len() + pulled_only.count()
    }

    /// Publish a locally created transaction: insert it into the replica
    /// and push it to every neighbour — the only place a body is sent
    /// unasked. Returns the receive outcome (a self-publish is normally
    /// [`ReceiveOutcome::Accepted`]). One buffered as an orphan, its
    /// issuer lacking a parent, makes a wake due now, so that the next
    /// [`NodeProtocol::tick`] asks for the parent.
    pub fn publish(&mut self, msg: TxMessage, t: &mut impl Transport) -> ReceiveOutcome {
        let cid = msg.content_id();
        let outcome = self.admit(cid, &msg);
        if outcome == ReceiveOutcome::OrphanBuffered {
            self.schedule_tick(self.now);
        }
        if outcome == ReceiveOutcome::Accepted || outcome == ReceiveOutcome::OrphanBuffered {
            self.forget(cid);
            for &nb in &self.neighbours {
                t.send(self.id, nb, ProtocolMsg::Publish(msg.clone()));
            }
        }
        outcome
    }

    /// The link to `peer` has (re)opened: advertise our heads to it at
    /// once, and arm the settled advertisement as an admission does, in
    /// case that one copy is lost.
    pub fn on_link_up(&mut self, peer: usize, t: &mut impl Transport) {
        let heads = self.peer.heads();
        t.send(self.id, peer, ProtocolMsg::Advertise { heads });
        self.arm_settle();
    }

    /// Advertise this node's heads to every neighbour not known to be down.
    fn advertise_heads(&mut self, t: &mut impl Transport) {
        let heads = self.peer.heads();
        for &nb in &self.neighbours {
            if t.link_state(self.id, nb) != LinkState::Down {
                let heads = heads.clone();
                t.send(self.id, nb, ProtocolMsg::Advertise { heads });
            }
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
                let cid = m.content_id();
                let outcome = self.admit(cid, &m);
                match outcome {
                    ReceiveOutcome::Accepted => {
                        self.forget(cid);
                        self.announce(from, m.issuer, cid, t);
                    }
                    ReceiveOutcome::OrphanBuffered => {
                        self.telemetry.count("net.orphaned", 1);
                        self.forget(cid);
                        self.announce(from, m.issuer, cid, t);
                        // Whoever sends a child can be asked for its parents,
                        // and, being ahead of us, for what we gave up on.
                        let mut ask = m.parents.clone();
                        let gave_up =
                            |c: &&ContentId| self.attempts_for(**c) >= self.repair_cfg.max_retries;
                        ask.extend(self.peer.missing().iter().filter(gave_up));
                        self.learn_holder(from, false, &ask, t);
                    }
                    ReceiveOutcome::Duplicate => {
                        self.telemetry.count("net.duplicates", 1);
                        self.forget(cid);
                    }
                    ReceiveOutcome::InvalidPow | ReceiveOutcome::Corrupt => {
                        self.telemetry.count("net.rejected_rx", 1)
                    }
                }
                Some(outcome)
            }
            ProtocolMsg::Announce { issuer, ids } => {
                self.telemetry.count("net.announced", ids.len() as u64);
                // A neighbouring issuer pushes to us itself: pulling as
                // well would fetch the body twice. A false `issuer`
                // therefore delays the victim's first request by one
                // `backoff_base` (and a tick), no more.
                let pushed =
                    issuer != from as u64 && self.neighbours.iter().any(|&nb| nb as u64 == issuer);
                self.learn_holder(from, pushed, &ids, t);
                None
            }
            ProtocolMsg::Advertise { heads } => {
                // Our replica is the closure of our heads: an advertiser
                // holding them all lacks nothing of ours.
                if !self.peer.heads().iter().all(|h| heads.contains(h)) {
                    for m in self.peer.delta_for(&heads) {
                        t.send(self.id, from, ProtocolMsg::Delta(m));
                    }
                }
                self.learn_holder(from, false, &heads, t);
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

    /// One round of repair: re-request every due wanted or missing id over
    /// an open link (see the module doc), remember the earliest future
    /// retry in [`NodeProtocol::next_wake`], then send the settled head
    /// advertisement if it may go out, or wake for it. A retry with no open
    /// link still counts against `max_retries`, so a cut-off peer gives up
    /// rather than waking forever. Returns the number of re-requests.
    pub fn tick(&mut self, now: u64, t: &mut impl Transport) -> u64 {
        self.set_now(now);
        if self.next_tick.is_some_and(|due| due <= self.now) {
            self.next_tick = None;
        }
        let now = self.now;
        let cfg = self.repair_cfg;
        let patience = self.patience();
        let peer = &self.peer;
        // (the simulator's oracle admits bodies behind the engine's back)
        self.wanted.retain(|cid, _| !peer.has_seen(*cid));
        let (missing, wanted) = (peer.missing(), &self.wanted);
        self.attempts
            .retain(|cid, _| missing.contains(cid) || wanted.contains_key(cid));
        for cid in missing {
            self.attempts.entry(*cid).or_insert((0, now));
        }
        let open: Vec<usize> = self
            .neighbours
            .iter()
            .copied()
            .filter(|&nb| t.link_state(self.id, nb) == LinkState::Open)
            .collect();
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
            let rotate = (*attempt as usize).wrapping_add(cid.0 as usize);
            let pick = |from: &[usize]| from.get(rotate % from.len().max(1)).copied();
            *attempt += 1;
            let target = match wanted.get(cid) {
                Some(holders) => {
                    let holders: Vec<usize> = holders
                        .iter()
                        .copied()
                        .filter(|h| open.contains(h))
                        .collect();
                    *next_at = now + patience;
                    pick(&holders)
                }
                None => {
                    *next_at = now + (cfg.backoff_base << (*attempt).min(16));
                    pick(&open)
                }
            };
            if let Some(nb) = target {
                sends.entry(nb).or_default().push(*cid);
            }
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
        if let Some((_, sent)) = self.advertise_at.filter(|&(at, _)| at <= now) {
            if self.settled() {
                self.advertise_heads(t);
                let again = now + SETTLE_PATIENCES * patience;
                self.advertise_at = (sent < cfg.max_retries).then_some((again, sent + 1));
            }
        }
        self.schedule_settle();
        total
    }

    /// Re-request attempts issued so far for `cid` (test observability).
    pub fn attempts_for(&self, cid: ContentId) -> u32 {
        self.attempts.get(&cid).map_or(0, |(a, _)| *a)
    }

    /// How long a wanted body may take before it is asked for again. One
    /// that arrives exactly `backoff_base` after the request is on time
    /// (a request and its answer each taking half of it), so the retry
    /// waits for the clock to move past that.
    fn patience(&self) -> u64 {
        self.repair_cfg.backoff_base + 1
    }

    /// Admit `msg` into the replica; one that changes it (an eviction
    /// follows a buffered orphan) arms the settled advertisement anew, and
    /// a wake comes due for it if nothing is being re-requested.
    fn admit(&mut self, cid: ContentId, msg: &TxMessage) -> ReceiveOutcome {
        let before = self.peer.evictions();
        let outcome = self.peer.admit(cid, msg);
        let evicted = self.peer.evictions() - before;
        if evicted > 0 {
            self.telemetry.count("net.evicted", evicted);
        }
        if [ReceiveOutcome::Accepted, ReceiveOutcome::OrphanBuffered].contains(&outcome) {
            self.arm_settle();
        }
        outcome
    }

    /// (Re)arm the settled advertisement a full quiet spell from now.
    fn arm_settle(&mut self) {
        self.advertise_at = Some((self.now + SETTLE_PATIENCES * self.patience(), 0));
        self.schedule_settle();
    }

    /// No orphan's parent is still being re-requested: it may yet come,
    /// while one whose retries ran out will not (an advertisement may).
    fn settled(&self) -> bool {
        let max = self.repair_cfg.max_retries;
        self.peer
            .missing()
            .iter()
            .all(|c| self.attempts_for(*c) >= max)
    }

    /// Wake for the armed settled advertisement, once settled.
    fn schedule_settle(&mut self) {
        if let Some((at, _)) = self.advertise_at.filter(|_| self.settled()) {
            self.schedule_tick(at);
        }
    }

    fn schedule_tick(&mut self, at: u64) {
        if self.next_tick.is_none_or(|due| at < due) {
            self.next_tick = Some(at);
        }
    }

    /// Tell every neighbour except the one it arrived from that we now
    /// hold `cid`. Never the body: who wants it asks.
    fn announce(&mut self, came_from: usize, issuer: u64, cid: ContentId, t: &mut impl Transport) {
        for &nb in &self.neighbours {
            if nb == came_from {
                continue;
            }
            let ids = vec![cid];
            t.send(self.id, nb, ProtocolMsg::Announce { issuer, ids });
        }
    }

    /// Neighbour `from` holds `ids`. Record it as a holder of each one we
    /// have not seen, and start pulling those we are not already
    /// fetching (new, or given up on: fresh evidence re-arms): the first
    /// `Request` goes to `from` at once unless the body is being `pushed`
    /// to us anyway, the retries follow from [`NodeProtocol::tick`]. The
    /// want-set is capped at the peer's orphan cap (at least one id); the
    /// oldest id makes room and can be announced again.
    fn learn_holder(
        &mut self,
        from: usize,
        pushed: bool,
        ids: &[ContentId],
        t: &mut impl Transport,
    ) {
        let cfg = self.repair_cfg;
        let first_retry = self.now + self.patience();
        let mut wants = Vec::new();
        let mut armed = false;
        for &cid in ids {
            if self.peer.has_seen(cid) {
                continue;
            }
            let fetching = match self.wanted.get_mut(&cid) {
                Some(holders) => {
                    if !holders.contains(&from) {
                        holders.push(from);
                    }
                    self.attempts
                        .get(&cid)
                        .is_some_and(|(attempt, _)| *attempt < cfg.max_retries)
                }
                None => {
                    self.wanted.insert(cid, vec![from]);
                    self.wanted_order.push_back(cid);
                    false
                }
            };
            if fetching {
                continue;
            }
            self.attempts.insert(cid, (0, first_retry));
            armed = true;
            if !pushed {
                wants.push(cid);
            }
        }
        while self.wanted.len() > self.peer.orphan_cap().max(1) {
            let Some(oldest) = self.wanted_order.pop_front() else {
                break;
            };
            if self.wanted.remove(&oldest).is_some() {
                self.attempts.remove(&oldest);
            }
        }
        wants.retain(|cid| self.wanted.contains_key(cid));
        if armed {
            self.schedule_tick(first_retry);
        }
        if !wants.is_empty() {
            self.telemetry.count("net.requested", wants.len() as u64);
            t.send(self.id, from, ProtocolMsg::Request { wants });
        }
    }

    /// `cid` is here: stop wanting it.
    fn forget(&mut self, cid: ContentId) {
        if self.wanted.remove(&cid).is_some() {
            self.attempts.remove(&cid);
            while let Some(front) = self.wanted_order.front() {
                if self.wanted.contains_key(front) {
                    break;
                }
                self.wanted_order.pop_front();
            }
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

    impl Wire {
        fn open(n: usize) -> Self {
            Wire {
                sent: Vec::new(),
                states: vec![LinkState::Open; n],
            }
        }

        /// `(to, "publish" | "announce" | …, ids named)` of everything
        /// sent since the last call.
        fn take(&mut self) -> Vec<(usize, &'static str, Vec<ContentId>)> {
            self.sent
                .drain(..)
                .map(|(to, msg)| match msg {
                    ProtocolMsg::Publish(m) => (to, "publish", vec![m.content_id()]),
                    ProtocolMsg::Delta(m) => (to, "delta", vec![m.content_id()]),
                    ProtocolMsg::Announce { ids, .. } => (to, "announce", ids),
                    ProtocolMsg::Advertise { heads } => (to, "advertise", heads),
                    ProtocolMsg::Request { wants } => (to, "request", wants),
                })
                .collect()
        }
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
        TxMessage::create(&ParamVec(vec![v]), parents, 9, 0, 0)
    }

    /// Engine 0 with neighbours `1..=n`, orphan cap 16.
    fn engine(n: usize) -> (NodeProtocol, ContentId) {
        let genesis = tx(vec![], 0.0);
        let mut e = NodeProtocol::new(0, &genesis, 0, 16);
        e.set_neighbours((1..=n).collect());
        (e, genesis.content_id())
    }

    /// Engine 0 with neighbours 1 (open), 2 (cut) and 3 (down), holding an
    /// orphan whose parent nobody will ever send.
    fn orphaned() -> (NodeProtocol, Wire, ContentId) {
        let (mut e, genesis) = engine(3);
        let mut wire = Wire {
            sent: Vec::new(),
            states: vec![
                LinkState::Open,
                LinkState::Open,
                LinkState::Cut,
                LinkState::Down,
            ],
        };
        let parent = tx(vec![genesis], 1.0);
        let child = tx(vec![parent.content_id()], 2.0);
        let outcome = e.on_message(1, ProtocolMsg::Publish(child), &mut wire);
        assert_eq!(outcome, Some(ReceiveOutcome::OrphanBuffered));
        (e, wire, parent.content_id())
    }

    fn announce(issuer: u64, ids: &[ContentId]) -> ProtocolMsg {
        ProtocolMsg::Announce {
            issuer,
            ids: ids.to_vec(),
        }
    }

    #[test]
    fn issuer_pushes_bodies_to_all_neighbours_and_a_forwarder_sends_none() {
        let (mut e, genesis) = engine(3);
        let mut wire = Wire::open(4);
        let a = tx(vec![genesis], 1.0);
        let b = tx(vec![genesis], 2.0);
        let (ida, idb) = (a.content_id(), b.content_id());
        // whatever `issuer` the message names, `publish` pushes the body
        assert_eq!(e.publish(a, &mut wire), ReceiveOutcome::Accepted);
        assert_eq!(
            wire.take(),
            [1, 2, 3].map(|to| (to, "publish", vec![ida])).to_vec()
        );
        // first seen from 2: ids to everyone else, and no body at all
        let outcome = e.on_message(2, ProtocolMsg::Publish(b.clone()), &mut wire);
        assert_eq!(outcome, Some(ReceiveOutcome::Accepted));
        assert_eq!(
            wire.take(),
            [1, 3].map(|to| (to, "announce", vec![idb])).to_vec()
        );
        // a pulled body is announced like a pushed one; a duplicate is not
        let c = tx(vec![ida], 3.0);
        let idc = c.content_id();
        e.on_message(3, ProtocolMsg::Delta(c), &mut wire);
        assert_eq!(
            wire.take(),
            [1, 2].map(|to| (to, "announce", vec![idc])).to_vec()
        );
        let outcome = e.on_message(1, ProtocolMsg::Publish(b), &mut wire);
        assert_eq!(outcome, Some(ReceiveOutcome::Duplicate));
        assert!(wire.take().is_empty());
    }

    #[test]
    fn an_issuer_that_publishes_an_orphan_requests_its_parent_at_the_next_tick() {
        let (mut e, genesis) = engine(1);
        let mut wire = Wire::open(2);
        e.set_now(7);
        let parent = tx(vec![genesis], 1.0);
        let child = tx(vec![parent.content_id()], 2.0);
        let idc = child.content_id();
        assert_eq!(e.publish(child, &mut wire), ReceiveOutcome::OrphanBuffered);
        assert_eq!(wire.take(), [(1, "publish", vec![idc])]);
        // no other event arrives: the wake for the parent is due at once
        assert_eq!(e.next_wake(), Some(7));
        assert_eq!(e.tick(7, &mut wire), 1);
        assert_eq!(wire.take(), [(1, "request", vec![parent.content_id()])]);
    }

    #[test]
    fn one_request_per_unseen_id_however_many_neighbours_announce_it() {
        let (mut e, genesis) = engine(3);
        let mut wire = Wire::open(4);
        let x = ContentId(77);
        e.on_message(1, announce(9, &[x, genesis, x]), &mut wire);
        // the genesis is here already, and x is asked for once
        assert_eq!(wire.take(), [(1, "request", vec![x])]);
        e.on_message(2, announce(9, &[x]), &mut wire);
        e.on_message(1, announce(9, &[x]), &mut wire);
        e.on_message(3, ProtocolMsg::Advertise { heads: vec![x] }, &mut wire);
        assert!(wire.take().is_empty(), "already being fetched");
        assert_eq!(e.wanted[&x], [1, 2, 3]);
        assert_eq!(e.pending(), 1);
        // an id stops being wanted when its body arrives
        let body = tx(vec![genesis], 1.0);
        e.on_message(2, announce(9, &[body.content_id()]), &mut wire);
        assert_eq!(e.pending(), 2);
        e.on_message(2, ProtocolMsg::Delta(body), &mut wire);
        assert_eq!(e.pending(), 1);
        assert_eq!(e.attempts.len(), 1);
    }

    /// An id being pulled is waited for although no orphan names it — the
    /// state in which counting `peer().missing()` alone reads as solid.
    #[test]
    fn an_announced_id_is_waited_for_until_its_body_arrives() {
        let (mut e, genesis) = engine(2);
        let mut wire = Wire::open(3);
        let body = tx(vec![genesis], 1.0);
        e.on_message(1, announce(9, &[body.content_id()]), &mut wire);
        assert!(e.peer().missing().is_empty());
        assert_eq!(e.waiting_for(), 1);
        e.on_message(1, ProtocolMsg::Delta(body), &mut wire);
        assert_eq!(e.waiting_for(), 0);
    }

    #[test]
    fn neighbouring_issuer_suppresses_the_request_and_a_lost_push_is_pulled_at_the_first_retry() {
        let (mut e, _) = engine(3);
        let mut wire = Wire::open(4);
        let x = ContentId(78);
        // issuer 2 is a neighbour: its own push is on the way
        e.on_message(1, announce(2, &[x]), &mut wire);
        assert!(wire.take().is_empty());
        assert_eq!(e.pending(), 1);
        let due = e.now() + e.patience();
        assert_eq!(e.next_wake(), Some(due));
        // ...but it never arrives, so the announcer is asked
        assert_eq!(e.tick(due, &mut wire), 1);
        assert_eq!(wire.take(), [(1, "request", vec![x])]);
        // the issuer announcing its own transaction is not pushing it
        let y = ContentId(79);
        e.on_message(2, announce(2, &[y]), &mut wire);
        assert_eq!(wire.take(), [(2, "request", vec![y])]);
    }

    #[test]
    fn an_orphans_parents_are_requested_from_its_sender() {
        let (e, mut wire, parent) = orphaned();
        let sent = wire.take();
        assert_eq!(sent.len(), 3);
        assert_eq!((sent[0].0, sent[0].1), (2, "announce"));
        assert_eq!((sent[1].0, sent[1].1), (3, "announce"));
        assert_eq!(sent[2], (1, "request", vec![parent]));
        assert_eq!(e.wanted[&parent], [1]);
    }

    #[test]
    fn retries_rotate_over_holders_only_stop_at_max_retries_and_a_fresh_announcement_rearms() {
        let cfg = RepairConfig::default();
        let (mut e, _) = engine(4);
        let mut wire = Wire::open(5);
        let x = ContentId(80);
        e.on_message(1, announce(9, &[x]), &mut wire);
        e.on_message(3, announce(9, &[x]), &mut wire);
        assert_eq!(wire.take(), [(1, "request", vec![x])]);
        let holders = [1, 3];
        let mut last = e.now();
        for attempt in 0..cfg.max_retries {
            let due = e.next_wake().expect("retry pending");
            assert_eq!(due, last + cfg.backoff_base + 1, "fixed interval");
            last = due;
            assert_eq!(e.tick(due, &mut wire), 1);
            let to = holders[(attempt as usize + x.0 as usize) % 2];
            assert_eq!(wire.take(), [(to, "request", vec![x])]);
        }
        assert_eq!(e.next_wake(), None, "gave up");
        assert_eq!(e.tick(e.now() + 1000, &mut wire), 0);
        assert_eq!(e.attempts_for(x), cfg.max_retries);
        assert_eq!(e.pending(), 1, "still wanted");
        // fresh evidence: asked at once, retries re-armed
        e.on_message(2, announce(9, &[x]), &mut wire);
        assert_eq!(wire.take(), [(2, "request", vec![x])]);
        assert_eq!(e.attempts_for(x), 0);
        assert_eq!(e.next_wake(), Some(e.now() + e.patience()));
        assert_eq!(e.wanted[&x], [1, 3, 2]);
    }

    #[test]
    fn link_state_narrows_advertising_and_rerequests_but_not_flooding() {
        let (mut e, mut wire, parent) = orphaned();
        // first-seen from 1: announced on, whatever the links look like,
        // and the parent asked for where the child came from
        let to: Vec<usize> = wire.take().iter().map(|s| s.0).collect();
        assert_eq!(to, [2, 3, 1]);
        e.advertise_heads(&mut wire);
        let to: Vec<usize> = wire.take().iter().map(|s| s.0).collect();
        assert_eq!(to, [1, 2], "down neighbours are skipped");
        // 2 (cut) and 3 (down) claim the parent too: recorded, never tried
        e.on_message(2, announce(9, &[parent]), &mut wire);
        e.on_message(3, announce(9, &[parent]), &mut wire);
        assert_eq!(e.wanted[&parent], [1, 2, 3]);
        let retries = RepairConfig::default().max_retries;
        for _ in 0..retries {
            let due = e.next_wake().expect("retry pending");
            assert_eq!(e.tick(due, &mut wire), 1);
        }
        let mut sent = vec![(1, "request", vec![parent]); retries as usize];
        // retries spent, the stalled replica advertises, skipping 3 again
        let heads = e.peer().heads();
        sent.extend([1, 2].map(|to| (to, "advertise", heads.clone())));
        assert_eq!(wire.take(), sent);
        assert_eq!(e.tick(e.now() + 1, &mut wire), 0, "retries exhausted");
    }

    #[test]
    fn a_retry_with_no_open_holder_is_spent_not_sent() {
        let (mut e, mut wire, parent) = orphaned();
        wire.take();
        wire.states[1] = LinkState::Cut;
        let retries = RepairConfig::default().max_retries;
        for _ in 0..retries {
            let due = e.next_wake().expect("retry pending");
            assert_eq!(e.tick(due, &mut wire), 0);
        }
        let sent: Vec<_> = wire.take().into_iter().map(|s| (s.0, s.1)).collect();
        assert_eq!(
            sent,
            [(1, "advertise"), (2, "advertise")],
            "only the stall's"
        );
        assert_eq!(e.attempts_for(parent), retries);
    }

    #[test]
    fn the_next_orphan_rearms_what_a_stalled_replica_gave_up_on() {
        let (mut e, mut wire, parent) = orphaned();
        wire.states[2] = LinkState::Open;
        while let Some(due) = e.next_wake() {
            e.tick(due, &mut wire);
        }
        wire.take();
        // another orphan, of other parentage, from another neighbour: its
        // sender is ahead of us, so it is asked for both missing parents
        let other = tx(vec![ContentId(5)], 3.0);
        e.on_message(2, ProtocolMsg::Publish(other), &mut wire);
        let sent = wire.take();
        assert_eq!(sent[2], (2, "request", vec![ContentId(5), parent]));
        assert_eq!(e.attempts_for(parent), 0);
        assert_eq!(e.wanted[&parent], [1, 2]);
        // a third orphan while both are being fetched asks for nothing
        let third = tx(vec![ContentId(5)], 4.0);
        e.on_message(2, ProtocolMsg::Publish(third), &mut wire);
        assert!(wire.take().iter().all(|s| s.1 == "announce"));
    }

    #[test]
    fn advertised_unknown_head_rearms_exhausted_retries() {
        let (mut e, mut wire, parent) = orphaned();
        while let Some(due) = e.next_wake() {
            e.tick(due, &mut wire);
        }
        wire.take();
        let heads = vec![parent];
        e.on_message(1, ProtocolMsg::Advertise { heads }, &mut wire);
        assert_eq!(e.attempts_for(parent), 0);
        assert_eq!(wire.take(), [(1, "request", vec![parent])]);
        assert_eq!(e.next_wake(), Some(e.now() + e.patience()));
    }

    /// The pull half of head advertisement: an unknown head must be asked
    /// for and must survive `tick`, which keeps an `attempts` entry only
    /// for an orphan's parent or a wanted id.
    #[test]
    fn advertised_unknown_head_that_is_nobodys_orphan_parent_is_requested() {
        let (mut e, _) = engine(2);
        let mut wire = Wire::open(3);
        let head = ContentId(81);
        e.on_message(2, ProtocolMsg::Advertise { heads: vec![head] }, &mut wire);
        assert_eq!(wire.take(), [(2, "request", vec![head])]);
        assert!(e.peer().missing().is_empty());
        assert_eq!(e.pending(), 1);
        let due = e.next_wake().expect("retry armed");
        assert_eq!(e.tick(due, &mut wire), 1, "and it survives the tick");
        assert_eq!(wire.take(), [(2, "request", vec![head])]);
    }

    #[test]
    fn an_unannounced_missing_parent_backs_off_exponentially_over_all_open_neighbours() {
        let cfg = RepairConfig::default();
        let (mut e, mut wire, parent) = orphaned();
        wire.take();
        wire.states[2] = LinkState::Open;
        // the child's sender goes away and takes its claim with it
        e.set_neighbours(vec![2, 3]);
        assert_eq!(e.pending(), 0);
        assert!(e.peer().missing().contains(&parent));
        let mut at = Vec::new();
        for _ in 0..cfg.max_retries {
            let due = e.next_wake().expect("retry pending");
            assert_eq!(e.tick(due, &mut wire), 1);
            at.push(due);
        }
        for (k, w) in at.windows(2).enumerate() {
            assert_eq!(w[1] - w[0], cfg.backoff_base << (k + 1));
        }
        // 3 is down: every retry of the rotation lands on 2, and so does
        // the stalled replica's advertisement
        let mut sent = vec![(2, "request", vec![parent]); cfg.max_retries as usize];
        sent.push((2, "advertise", e.peer().heads()));
        assert_eq!(wire.take(), sent);
    }

    #[test]
    fn an_orphan_eviction_arms_one_head_advertisement_once_the_buffer_drains() {
        let (mut e, genesis) = engine(2);
        let tel = lt_telemetry::Telemetry::new(lt_telemetry::NoopSink);
        e.set_telemetry(tel.clone());
        let mut wire = Wire::open(3);
        let parent = tx(vec![genesis], 1.0);
        // Seventeen children of an unseen parent: the last one evicts the
        // first, which nothing will ever name again.
        let cap = e.peer().orphan_cap();
        for k in 0..=cap {
            let child = tx(vec![parent.content_id()], 10.0 + k as f32);
            e.on_message(1, ProtocolMsg::Publish(child), &mut wire);
        }
        assert_eq!(e.peer().evictions(), 1);
        assert_eq!(tel.counter_value("net.evicted"), 1);
        // Not while orphans are buffered: their parents are still coming.
        let mut sent = Vec::new();
        let due = e.next_wake().expect("the parent's retry");
        e.tick(due, &mut wire);
        sent.extend(wire.take());
        assert!(sent.iter().all(|s| s.1 != "advertise"));
        e.on_message(1, ProtocolMsg::Delta(parent), &mut wire);
        assert_eq!(e.peer().orphan_count(), 0);
        while let Some(due) = e.next_wake() {
            e.tick(due, &mut wire);
        }
        sent.extend(wire.take());
        let heads = e.peer().heads();
        let advertised: Vec<_> = sent.into_iter().filter(|s| s.1 == "advertise").collect();
        // One advertisement per eviction episode, re-sent `max_retries` times.
        let round = [(1, "advertise", heads.clone()), (2, "advertise", heads)];
        let rounds = 1 + RepairConfig::default().max_retries as usize;
        assert_eq!(
            advertised,
            round
                .iter()
                .cycle()
                .take(2 * rounds)
                .cloned()
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn admissions_arm_one_head_advertisement_sent_after_a_quiet_spell() {
        let (mut e, genesis) = engine(2);
        let mut wire = Wire::open(3);
        let settle = SETTLE_PATIENCES * e.patience();
        let a = tx(vec![genesis], 1.0);
        let b = tx(vec![a.content_id()], 2.0);
        e.on_message(1, ProtocolMsg::Publish(a.clone()), &mut wire);
        assert_eq!(e.next_wake(), Some(settle));
        // a later admission pushes it back; a duplicate does not
        e.set_now(20);
        e.on_message(2, ProtocolMsg::Publish(b), &mut wire);
        e.set_now(30);
        e.on_message(2, ProtocolMsg::Publish(a), &mut wire);
        wire.take();
        assert_eq!(e.tick(settle, &mut wire), 0);
        assert!(wire.take().is_empty(), "not yet quiet");
        assert_eq!(e.next_wake(), Some(20 + settle));
        let heads = e.peer().heads();
        let round = [1, 2].map(|to| (to, "advertise", heads.clone())).to_vec();
        // sent once the spell is quiet, then re-sent at that interval, in
        // case a copy is lost, `max_retries` times
        let mut due = 20 + settle;
        for _ in 0..=RepairConfig::default().max_retries {
            assert_eq!(e.next_wake(), Some(due));
            e.tick(due, &mut wire);
            assert_eq!(wire.take(), round);
            due += settle;
        }
        assert_eq!(e.next_wake(), None, "one advertisement per quiet spell");
    }

    #[test]
    fn a_link_that_comes_up_gets_our_heads_at_once_and_arms_the_settled_advertisement() {
        let (mut e, _) = engine(3);
        let mut wire = Wire::open(4);
        e.set_now(50);
        e.on_link_up(2, &mut wire);
        assert_eq!(wire.take(), [(2, "advertise", e.peer().heads())]);
        assert_eq!(e.next_wake(), Some(50 + SETTLE_PATIENCES * e.patience()));
    }

    #[test]
    fn what_one_neighbour_can_make_us_want_is_bounded() {
        let cfg = RepairConfig::default();
        let (mut e, _) = engine(2);
        let cap = e.peer().orphan_cap();
        let mut wire = Wire::open(3);
        let ids: Vec<ContentId> = (0..10_000).map(|i| ContentId(1000 + i)).collect();
        e.on_message(1, announce(9, &ids), &mut wire);
        assert_eq!(e.pending(), cap);
        assert_eq!(e.attempts.len(), cap);
        assert!(e.wanted_order.len() <= cap);
        // one request, for the ids that were kept (the newest), each once
        let sent = wire.take();
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].2, ids[ids.len() - cap..]);
        // their retries stop after `max_retries` rounds
        let mut rounds = 0;
        let mut rerequests = 0;
        while let Some(due) = e.next_wake() {
            rerequests += e.tick(due, &mut wire);
            rounds += 1;
        }
        assert_eq!(rounds, cfg.max_retries);
        assert_eq!(rerequests, (cap as u64) * u64::from(cfg.max_retries));
        assert_eq!(wire.take().len(), rounds as usize);
        // a dropped id can be announced again
        e.on_message(2, announce(9, &ids[..1]), &mut wire);
        assert_eq!(wire.take(), [(2, "request", vec![ids[0]])]);
        assert_eq!(e.pending(), cap);
        // a neighbour that goes away takes its claims with it
        e.set_neighbours(vec![2]);
        assert_eq!(e.pending(), 1);
        e.set_neighbours(vec![]);
        assert_eq!(e.pending(), 0);
    }
}
