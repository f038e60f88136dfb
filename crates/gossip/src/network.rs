//! Discrete-event gossip network simulator: a link layer with
//! deterministic fault injection — the in-memory [`Transport`] — that
//! drives one [`NodeProtocol`] per peer from its event queue, plus what
//! only a simulator has: peer crash/recovery, checkpoint cadence,
//! partitions, and omniscient consistency checks.
//!
//! What travels: a body eagerly from its issuer to the issuer's
//! neighbours (`Publish`), lazily to everyone else (`Delta`, on
//! `Request`); ids everywhere (`Announce`, `Advertise`).
//! [`NetStats::delivered`] counts the bodies — the §III-C communication
//! cost the benchmark multiplies by the message size — and
//! [`NetStats::announced`] / [`NetStats::requested`] /
//! [`NetStats::rerequests`] the ids, 8 bytes each plus framing.

use crate::fault::{FaultPlan, Recovery, RepairConfig};
use crate::message::TxMessage;
use crate::peer::{Peer, ReceiveOutcome};
use crate::protocol::NodeProtocol;
use crate::transport::{LinkState, ProtocolMsg, Transport};
use rand::RngExt;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::path::PathBuf;
use tangle_ledger::TxId;
use tinynn::rng::{derive, seeded};

/// Connection structure between peers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// Every peer connects to every other peer.
    FullMesh,
    /// Peers form a cycle (worst-case diameter).
    Ring,
    /// Each peer gets `degree` random distinct neighbours (undirected).
    RandomRegular {
        /// Neighbour count per peer (approximate: construction is by
        /// repeated random matching, self-loops and duplicates skipped).
        degree: usize,
    },
}

/// Per-link latency range in ticks (inclusive).
#[derive(Clone, Copy, Debug)]
pub struct Latency {
    /// Minimum delivery delay.
    pub min: u64,
    /// Maximum delivery delay.
    pub max: u64,
}

/// Network configuration.
#[derive(Clone, Copy, Debug)]
pub struct NetworkConfig {
    /// Connection structure.
    pub topology: Topology,
    /// Per-hop latency.
    pub latency: Latency,
    /// Per-hop message loss probability.
    pub loss: f64,
    /// Required proof-of-work difficulty for admission (0 = off).
    pub pow_difficulty: u32,
    /// Seed for latency, loss, and topology randomness.
    pub seed: u64,
    /// Bound on each peer's orphan buffer; the oldest orphan is evicted
    /// (and forgotten, so repair can re-fetch it) past this size.
    pub orphan_cap: usize,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        Self {
            topology: Topology::FullMesh,
            latency: Latency { min: 1, max: 3 },
            loss: 0.0,
            pow_difficulty: 0,
            seed: 0,
            orphan_cap: crate::peer::DEFAULT_ORPHAN_CAP,
        }
    }
}

/// What the network's queue holds: link deliveries and the simulator's
/// own lifecycle, repair and link-up events, all in one `(at, seq)` order.
enum Event {
    Deliver(Delivery),
    Crash { peer: usize },
    Restart { peer: usize, recovery: Recovery },
    RepairTick { peer: usize },
    LinkUp { peer: usize, to: usize },
}

impl From<Delivery> for Event {
    fn from(d: Delivery) -> Self {
        Event::Deliver(d)
    }
}

/// Running statistics of the simulated network.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Transaction bodies (`Publish` / `Delta`) delivered to a peer.
    /// Announcements and requests carry no body and are counted in
    /// [`NetStats::announced`] / [`NetStats::requested`].
    pub delivered: u64,
    /// Messages dropped by the loss model, a partition, or fault drops.
    pub dropped: u64,
    /// Deliveries that were duplicates at the receiver.
    pub duplicates: u64,
    /// Deliveries buffered as orphans.
    pub orphaned: u64,
    /// Deliveries rejected by the receiver (invalid proof-of-work or a
    /// payload that failed checksum validation).
    pub rejected: u64,
    /// Deliveries discarded because the destination peer was down.
    pub discarded: u64,
    /// Repair-protocol re-requests issued for missing transactions.
    pub rerequests: u64,
    /// Orphans evicted by the per-peer buffer cap.
    pub evicted: u64,
    /// Content ids delivered to a peer in `Announce` messages.
    pub announced: u64,
    /// Content ids asked for in first `Request`s (retries are
    /// [`NetStats::rerequests`]).
    pub requested: u64,
}

/// One scheduled delivery of the link layer.
pub struct Delivery {
    /// Delivery time on the link layer's clock.
    pub at: u64,
    /// Sending peer.
    pub from: usize,
    /// Receiving peer.
    pub to: usize,
    /// The message.
    pub msg: ProtocolMsg,
}

/// A queued event, ordered by `(at, seq)` alone.
struct Scheduled<E> {
    at: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

struct FaultState {
    plan: FaultPlan,
    rng: tinynn::rng::Rng,
}

/// The in-memory [`Transport`]: a simulated clock, one event queue, the
/// base and fault RNGs, partition groups and up/down flags. A send draws
/// its latency and then [`FaultPlan::perturb_hop`], and queues the
/// delivery; events come off the queue in `(at, seq)` order, so the
/// order of latency draws is replayable from the seed alone.
///
/// [`Links::new`] builds a stand-alone link layer whose events are
/// [`Delivery`]s, for tests that feed a handful of [`NodeProtocol`]s by
/// hand (`lt_net::MockTransport` is this type). [`Network`] runs one
/// whose queue also carries its crash, restart, repair wake-up and
/// link-up events. A peer past the end of the partition groups and
/// up/down flags counts as group 0 and up.
pub struct Links<E = Delivery> {
    queue: BinaryHeap<Reverse<Scheduled<E>>>,
    now: u64,
    seq: u64,
    rng: tinynn::rng::Rng,
    loss: f64,
    latency: Latency,
    faults: Option<FaultState>,
    /// Partition group per peer; messages crossing groups are dropped.
    groups: Vec<usize>,
    /// Lifecycle per peer: `false` while crashed.
    up: Vec<bool>,
    /// Sends attempted via [`Transport::send`].
    pub sent: u64,
    /// Sends lost at send time to the loss model, a partition or a fault
    /// drop. [`Network`] moves them into [`NetStats::dropped`] after each
    /// engine call.
    pub dropped: u64,
    /// Content ids named in `Request`s at send time, until
    /// [`Network::drive`] moves them into [`NetStats::requested`].
    asked: u64,
}

impl Links {
    /// A link layer with per-hop latency drawn from `latency.0..=latency.1`
    /// ticks, no loss and no faults.
    pub fn new(seed: u64, latency: (u64, u64)) -> Self {
        let latency = Latency {
            min: latency.0,
            max: latency.1,
        };
        Links::with_rng(seeded(derive(seed, 0x30C4)), 0.0, latency, 0)
    }
}

impl<E> Links<E> {
    fn with_rng(rng: tinynn::rng::Rng, loss: f64, latency: Latency, peers: usize) -> Self {
        Self {
            queue: BinaryHeap::new(),
            now: 0,
            seq: 0,
            rng,
            loss,
            latency,
            faults: None,
            groups: vec![0; peers],
            up: vec![true; peers],
            sent: 0,
            dropped: 0,
            asked: 0,
        }
    }

    /// Arm a fault plan's link perturbations (drop / duplicate / corrupt /
    /// reorder) for every later hop, driven by an RNG derived from
    /// [`FaultPlan::seed`]. The plan's crashes are the caller's to
    /// schedule; [`Network::install_faults`] does.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        let rng = seeded(derive(plan.seed, 0xFA017));
        self.faults = Some(FaultState { plan, rng });
    }

    /// Current time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Time of the next queued event, if any.
    pub fn next_at(&self) -> Option<u64> {
        self.queue.peek().map(|Reverse(s)| s.at)
    }

    /// Pop the next event, advancing the clock to it.
    pub fn pop_next(&mut self) -> Option<E> {
        let Reverse(s) = self.queue.pop()?;
        self.now = self.now.max(s.at);
        Some(s.event)
    }

    /// Advance the clock without popping (models idle waiting).
    pub fn advance_to(&mut self, at: u64) {
        self.now = self.now.max(at);
    }

    fn push(&mut self, at: u64, event: E) {
        self.seq += 1;
        let seq = self.seq;
        self.queue.push(Reverse(Scheduled { at, seq, event }));
    }

    fn group(&self, p: usize) -> usize {
        self.groups.get(p).copied().unwrap_or(0)
    }

    /// The fate of one hop: the partition, the base loss/latency model,
    /// and — when a fault plan is armed — its drop / duplicate / corrupt /
    /// reorder perturbations. The fault RNG is only consulted for
    /// non-zero rates, so a benign plan leaves the base randomness stream
    /// untouched. `None` = lost; otherwise the delay and a duplicate's.
    fn draw_hop(
        &mut self,
        from: usize,
        to: usize,
        pkt: &mut ProtocolMsg,
    ) -> Option<(u64, Option<u64>)> {
        if self.group(from) != self.group(to) {
            return None;
        }
        if self.loss > 0.0 && self.rng.random_range(0.0..1.0) < self.loss {
            return None;
        }
        let latency = self.latency.min..=self.latency.max.max(self.latency.min);
        let base_delay = self.rng.random_range(latency.clone());
        match &mut self.faults {
            Some(f) => f.plan.perturb_hop(&mut f.rng, pkt, base_delay, latency),
            None => Some((base_delay, None)),
        }
    }
}

impl<E: From<Delivery>> Links<E> {
    fn deliver_after(&mut self, delay: u64, from: usize, to: usize, msg: ProtocolMsg) {
        let at = self.now + delay;
        self.push(at, Delivery { at, from, to, msg }.into());
    }
}

impl<E: From<Delivery>> Transport for Links<E> {
    fn send(&mut self, from: usize, to: usize, mut pkt: ProtocolMsg) -> bool {
        self.sent += 1;
        if let ProtocolMsg::Request { wants } = &pkt {
            self.asked += wants.len() as u64;
        }
        let Some((mut delay, copy)) = self.draw_hop(from, to, &mut pkt) else {
            self.dropped += 1;
            return false;
        };
        if let Some(copy_delay) = copy {
            self.deliver_after(delay, from, to, pkt.clone());
            delay = copy_delay;
        }
        self.deliver_after(delay, from, to, pkt);
        true
    }

    fn link_state(&self, from: usize, to: usize) -> LinkState {
        if !self.up.get(to).copied().unwrap_or(true) {
            LinkState::Down
        } else if self.group(from) != self.group(to) {
            LinkState::Cut
        } else {
            LinkState::Open
        }
    }
}

/// A gossip network of peers, each holding its own tangle replica.
///
/// Every peer is a [`NodeProtocol`] — the same engine the `lt-node`
/// daemon runs — and the network is the transport under them: a
/// publisher pushes its message to its neighbours, every peer announces
/// a first-seen valid message by content id to all neighbours except
/// the link it arrived on, and who lacks it pulls the body from an
/// announcer. Delivery order is randomized by per-hop latency, so
/// replicas see different insertion orders (and rely on orphan
/// buffering), yet converge to the same transaction set.
///
/// # Faults and repair
///
/// [`Network::install_faults`] arms a deterministic [`FaultPlan`]: peers
/// crash and restart on schedule (discarding traffic while down, then
/// rejoining empty or from a [`Network::set_checkpointing`] checkpoint),
/// and links additionally drop, duplicate, corrupt, or reorder traffic,
/// all driven by a dedicated fault RNG so runs reproduce per fault seed.
/// Losses are healed by protocol, not by fiat: the engines re-request
/// announced and missing transactions from neighbours with bounded
/// retries, and advertise their heads once settled and over every link
/// that opens, so neighbours push back the delta and pull the heads they
/// lack. Nothing outside the engines advertises or re-requests (see
/// [`Network::repair_to_quiescence`]). The omniscient
/// [`Network::anti_entropy`] survives only as a test ground truth.
pub struct Network {
    /// One engine per peer; each owns its replica and its adjacency.
    protos: Vec<NodeProtocol>,
    links: Links<Event>,
    cfg: NetworkConfig,
    /// The shared genesis message (for empty rejoins and checkpoint
    /// validation).
    genesis: TxMessage,
    /// Statistics.
    pub stats: NetStats,
    telemetry: lt_telemetry::Telemetry,
    repair_cfg: RepairConfig,
    /// Restart time per peer, until it is observed fully re-solidified.
    recovering_since: Vec<Option<u64>>,
    /// Eviction counts already mirrored into `stats.evicted`.
    evicted_synced: Vec<u64>,
    checkpoint_every: u64,
    next_checkpoint_at: u64,
    checkpoints: Vec<Option<Vec<u8>>>,
    checkpoint_dir: Option<PathBuf>,
}

impl Network {
    /// Build a network of `n` peers sharing the same `genesis` message.
    pub fn new(n: usize, genesis: &TxMessage, cfg: NetworkConfig) -> Self {
        assert!(n >= 2, "need at least two peers");
        let mut rng = seeded(derive(cfg.seed, 0x6055));
        let protos = build_topology(n, cfg.topology, &mut rng)
            .into_iter()
            .enumerate()
            .map(|(i, nbrs)| {
                let mut e = NodeProtocol::new(i, genesis, cfg.pow_difficulty, cfg.orphan_cap);
                e.set_neighbours(nbrs);
                e
            })
            .collect();
        Self {
            protos,
            links: Links::with_rng(rng, cfg.loss, cfg.latency, n),
            cfg,
            genesis: genesis.clone(),
            stats: NetStats::default(),
            telemetry: lt_telemetry::Telemetry::disabled(),
            repair_cfg: RepairConfig::default(),
            recovering_since: vec![None; n],
            evicted_synced: vec![0; n],
            checkpoint_every: 0,
            next_checkpoint_at: u64::MAX,
            checkpoints: vec![None; n],
            checkpoint_dir: None,
        }
    }

    /// Attach an observability handle. The network then mirrors its
    /// [`NetStats`] bookkeeping into the `gossip.delivered`,
    /// `gossip.dropped`, `gossip.duplicates`, `gossip.orphaned`,
    /// `gossip.rejected`, `gossip.rerequests`, `gossip.announced`,
    /// `gossip.requested` and `gossip.orphan_evictions` counters
    /// (incremented at exactly the same points), records fault-engine
    /// activity under `fault.crash`, `fault.restart`, `fault.recovered`,
    /// `fault.discarded`, and `fault.checkpoint`, emits a structured `Fault` event per
    /// transition, and fills the `fault.recovery_ticks` histogram with
    /// restart-to-resolidified latencies. The engines' own `net.*`
    /// counters stay off: they are the daemon's names for the same points.
    pub fn set_telemetry(&mut self, telemetry: lt_telemetry::Telemetry) {
        self.telemetry = telemetry;
    }

    /// Arm a deterministic fault schedule: crash/restart events enter the
    /// event queue, and link perturbations apply to every subsequent hop,
    /// driven by an RNG derived from [`FaultPlan::seed`] (independent of
    /// the network seed, so a benign plan changes nothing).
    pub fn install_faults(&mut self, plan: FaultPlan) {
        for c in &plan.crashes {
            assert!(c.peer < self.len(), "crash peer out of range");
            self.links.push(c.at, Event::Crash { peer: c.peer });
            if let Some(r) = c.restart_at {
                assert!(r > c.at, "restart must follow its crash");
                let (peer, recovery) = (c.peer, c.recovery);
                self.links.push(r, Event::Restart { peer, recovery });
            }
        }
        self.links.install_faults(plan);
    }

    /// Override the repair-protocol parameters (on by default).
    pub fn set_repair(&mut self, cfg: RepairConfig) {
        self.repair_cfg = cfg;
        for e in &mut self.protos {
            e.set_repair(cfg);
        }
    }

    /// Periodically snapshot every live peer's replica (every `every`
    /// ticks; 0 disables). Snapshots are kept in memory and, when `dir`
    /// is given, also written to `dir/peer<i>.ckpt` as the `LTCP` image of
    /// [`Peer::checkpoint_bytes`] so a restart can recover them even
    /// across processes. Crashed peers restarting with
    /// [`Recovery::FromCheckpoint`] resume from their latest snapshot.
    pub fn set_checkpointing(&mut self, every: u64, dir: Option<PathBuf>) {
        self.checkpoint_every = every;
        self.next_checkpoint_at = if every > 0 {
            self.links.now + every
        } else {
            u64::MAX
        };
        if let Some(d) = &dir {
            std::fs::create_dir_all(d).expect("create checkpoint dir");
        }
        self.checkpoint_dir = dir;
    }

    /// Current simulated time (ticks).
    pub fn now(&self) -> u64 {
        self.links.now
    }

    /// Number of peers (fixed at construction, at least two).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.protos.len()
    }

    /// One peer (and its replica).
    pub fn peer(&self, i: usize) -> &Peer {
        self.protos[i].peer()
    }

    fn peers(&self) -> impl Iterator<Item = &Peer> {
        self.protos.iter().map(NodeProtocol::peer)
    }

    /// Is peer `i` currently up?
    pub fn is_up(&self, i: usize) -> bool {
        self.links.up[i]
    }

    /// Neighbours of peer `i`.
    pub fn neighbours(&self, i: usize) -> &[usize] {
        self.protos[i].neighbours()
    }

    /// Publish a message from `origin`: the origin inserts it immediately
    /// and pushes it to its neighbours. A crashed origin publishes
    /// nothing.
    pub fn publish(&mut self, origin: usize, msg: TxMessage) {
        if self.links.up[origin] {
            self.drive(origin, |e, links| e.publish(msg, links));
        }
    }

    /// Every call into an engine goes through here: bring its clock up
    /// to date, hand it the links, then push a `RepairTick` event if the
    /// call moved the engine's wake-up (after the hops the call enqueued,
    /// as event order decides the order of latency draws) and account for
    /// the hops lost at send time.
    fn drive<R>(
        &mut self,
        p: usize,
        call: impl FnOnce(&mut NodeProtocol, &mut Links<Event>) -> R,
    ) -> R {
        let e = &mut self.protos[p];
        e.set_now(self.links.now);
        let wake = e.next_wake();
        let out = call(e, &mut self.links);
        if let Some(at) = e.next_wake().filter(|&at| Some(at) != wake) {
            self.links.push(at, Event::RepairTick { peer: p });
        }
        let dropped = std::mem::take(&mut self.links.dropped);
        if dropped > 0 {
            self.stats.dropped += dropped;
            self.telemetry.count("gossip.dropped", dropped);
        }
        let asked = std::mem::take(&mut self.links.asked);
        if asked > 0 {
            self.stats.requested += asked;
            self.telemetry.count("gossip.requested", asked);
        }
        out
    }

    /// Deliver the next scheduled event. Returns `false` when idle.
    pub fn step(&mut self) -> bool {
        let Some(at) = self.links.next_at() else {
            return false;
        };
        self.take_due_checkpoints(at);
        let tel = self.telemetry.clone();
        let _span = tel.span("gossip.deliver_us");
        match self.links.pop_next().expect("event queued") {
            Event::Deliver(d) => self.deliver(d.from, d.to, d.msg),
            Event::Crash { peer } => self.crash(peer),
            Event::Restart { peer, recovery } => self.restart(peer, recovery),
            Event::RepairTick { peer } => self.wake(peer),
            Event::LinkUp { peer, to } => {
                if self.links.up[peer] && self.links.up[to] {
                    self.drive(peer, |e, links| e.on_link_up(to, links));
                }
            }
        }
        true
    }

    /// Snapshot all live peers when simulated time crosses a checkpoint
    /// boundary. Only the last crossed boundary materializes a snapshot:
    /// nothing was delivered in between, so earlier intermediate
    /// snapshots would be byte-identical anyway.
    fn take_due_checkpoints(&mut self, upto: u64) {
        if self.checkpoint_every == 0 || upto < self.next_checkpoint_at {
            return;
        }
        for i in 0..self.len() {
            if !self.links.up[i] {
                continue;
            }
            let bytes = self.peer(i).checkpoint_bytes();
            if let Some(dir) = &self.checkpoint_dir {
                let _ = std::fs::write(dir.join(format!("peer{i}.ckpt")), &bytes);
            }
            self.checkpoints[i] = Some(bytes);
        }
        let periods = (upto - self.next_checkpoint_at) / self.checkpoint_every + 1;
        self.next_checkpoint_at += periods * self.checkpoint_every;
        self.telemetry.count("fault.checkpoint", 1);
    }

    /// A repair wake-up came due: one round of the engine's pull protocol.
    fn wake(&mut self, p: usize) {
        if !self.links.up[p] {
            return;
        }
        let now = self.links.now;
        // what a tick asks for, it asks for again
        let rerequests = self.drive(p, |e, links| {
            let again = e.tick(now, links);
            links.asked -= again;
            again
        });
        if rerequests > 0 {
            self.stats.rerequests += rerequests;
            self.telemetry.count("gossip.rerequests", rerequests);
        }
    }

    /// Hand one arrived packet to its destination's engine and count
    /// what the engine made of it.
    fn deliver(&mut self, from: usize, to: usize, pkt: ProtocolMsg) {
        if !self.links.up[to] {
            self.stats.discarded += 1;
            self.telemetry.count("fault.discarded", 1);
            return;
        }
        if let ProtocolMsg::Announce { ids, .. } = &pkt {
            self.stats.announced += ids.len() as u64;
            self.telemetry.count("gossip.announced", ids.len() as u64);
        }
        let Some(outcome) = self.drive(to, |e, links| e.on_message(from, pkt, links)) else {
            return; // announce / advertise / request: no body arrived
        };
        self.stats.delivered += 1;
        self.telemetry.count("gossip.delivered", 1);
        match outcome {
            ReceiveOutcome::Accepted => self.after_receive(to),
            ReceiveOutcome::OrphanBuffered => {
                self.stats.orphaned += 1;
                self.telemetry.count("gossip.orphaned", 1);
                self.after_receive(to);
            }
            ReceiveOutcome::Duplicate => {
                self.stats.duplicates += 1;
                self.telemetry.count("gossip.duplicates", 1);
            }
            ReceiveOutcome::InvalidPow | ReceiveOutcome::Corrupt => {
                self.stats.rejected += 1;
                self.telemetry.count("gossip.rejected", 1);
            }
        }
    }

    /// Bookkeeping after a peer absorbed data: mirror orphan evictions
    /// into the stats and close out crash recovery once the peer is
    /// fully re-solidified (no orphans, and nothing it waits for: no
    /// missing parent, no announced body still being pulled).
    fn after_receive(&mut self, p: usize) {
        let peer = self.protos[p].peer();
        let e = peer.evictions();
        if e > self.evicted_synced[p] {
            let d = e - self.evicted_synced[p];
            self.stats.evicted += d;
            self.telemetry.count("gossip.orphan_evictions", d);
            self.evicted_synced[p] = e;
        }
        if self.recovering_since[p].is_some()
            && peer.orphan_count() == 0
            && self.protos[p].waiting_for() == 0
        {
            let t0 = self.recovering_since[p].take().expect("checked");
            let now = self.links.now;
            self.telemetry.record("fault.recovery_ticks", now - t0);
            self.telemetry.count("fault.recovered", 1);
            self.emit_fault(p, "recovered");
        }
    }

    fn emit_fault(&self, p: usize, kind: &str) {
        let at = self.links.now;
        self.telemetry.emit(|| {
            lt_telemetry::Event::Fault(lt_telemetry::FaultEvent {
                at,
                peer: p as u64,
                kind: kind.to_string(),
            })
        });
    }

    /// A crashed peer's engine is never called again — deliveries are
    /// discarded, wake-ups skipped — so its repair state is dead from
    /// here on; [`Network::restart`] replaces the engine wholesale.
    fn crash(&mut self, p: usize) {
        if !self.links.up[p] {
            return;
        }
        self.links.up[p] = false;
        self.recovering_since[p] = None;
        self.telemetry.count("fault.crash", 1);
        self.emit_fault(p, "crash");
    }

    fn restart(&mut self, p: usize, recovery: Recovery) {
        if self.links.up[p] {
            return;
        }
        let restored = match recovery {
            Recovery::FromCheckpoint => self.restore_from_checkpoint(p),
            Recovery::Empty => None,
        };
        let mut engine = NodeProtocol::from_peer(restored.unwrap_or_else(|| {
            Peer::new(p, &self.genesis, self.cfg.pow_difficulty)
                .with_orphan_cap(self.cfg.orphan_cap)
        }));
        engine.set_repair(self.repair_cfg);
        engine.set_neighbours(self.protos[p].neighbours().to_vec());
        self.protos[p] = engine;
        self.evicted_synced[p] = 0;
        self.links.up[p] = true;
        self.recovering_since[p] = Some(self.links.now);
        self.telemetry.count("fault.restart", 1);
        self.emit_fault(p, "restart");
        // Re-solidify by pull: our (stale) heads go over every link that opens.
        let mut up = self.protos[p].neighbours().to_vec();
        up.retain(|&nb| self.links.up[nb]);
        self.drive(p, |e, links| {
            up.iter().for_each(|&nb| e.on_link_up(nb, links))
        });
    }

    /// Latest checkpoint for `p`, from memory or the checkpoint
    /// directory; `None` when absent, unparsable, or from a different
    /// genesis (never trust a checkpoint blindly).
    fn restore_from_checkpoint(&self, p: usize) -> Option<Peer> {
        let from_file;
        let bytes = match &self.checkpoints[p] {
            Some(image) => image,
            None => {
                let dir = self.checkpoint_dir.as_ref()?;
                from_file = std::fs::read(dir.join(format!("peer{p}.ckpt"))).ok()?;
                &from_file
            }
        };
        let peer =
            Peer::from_checkpoint(p, bytes, self.cfg.pow_difficulty, self.cfg.orphan_cap).ok()?;
        (peer.content_id_of(TxId(0)) == self.genesis.content_id()).then_some(peer)
    }

    /// Deliver everything currently in flight (and whatever it triggers,
    /// including scheduled faults and repair retries).
    pub fn run_to_quiescence(&mut self) -> u64 {
        let mut steps = 0;
        while self.step() {
            steps += 1;
        }
        steps
    }

    /// Advance simulated time by `ticks`, delivering only the messages due
    /// in that window (later messages stay in flight — this is what makes
    /// peer views genuinely stale during learning).
    pub fn advance(&mut self, ticks: u64) -> u64 {
        let horizon = self.links.now + ticks;
        let mut steps = 0;
        while self.links.next_at().is_some_and(|at| at <= horizon) {
            self.step();
            steps += 1;
        }
        self.links.advance_to(horizon);
        steps
    }

    /// Run the network until nothing is due (the engines schedule their
    /// own retries and advertisements; `_max_rounds` is unused) and report
    /// whether every up peer is clean: no orphans and nothing waited for
    /// ([`NodeProtocol::waiting_for`]).
    ///
    /// This replaces [`Network::anti_entropy`] as the sanctioned way to
    /// reconcile after loss, churn, or a healed partition: every byte
    /// still travels peer-to-peer over the simulated links.
    pub fn repair_to_quiescence(&mut self, _max_rounds: usize) -> bool {
        self.run_to_quiescence();
        self.protos
            .iter()
            .zip(&self.links.up)
            .all(|(e, &up)| !up || (e.peer().orphan_count() == 0 && e.waiting_for() == 0))
    }

    /// Split the network: peers keep talking only within their group.
    /// `group_of[i]` assigns peer `i` to a group.
    pub fn partition(&mut self, group_of: Vec<usize>) {
        assert_eq!(group_of.len(), self.len());
        self.links.groups = group_of;
    }

    /// Remove the partition, queueing a `LinkUp` event now for each
    /// direction of every link it reopens ([`NodeProtocol::on_link_up`]
    /// if both ends are up); [`Self::repair_to_quiescence`] reconciles.
    pub fn heal(&mut self) {
        let now = self.links.now;
        for peer in 0..self.len() {
            for &to in self.protos[peer].neighbours() {
                if self.links.group(peer) != self.links.group(to) {
                    self.links.push(now, Event::LinkUp { peer, to });
                }
            }
        }
        self.links.groups = vec![0; self.len()];
    }

    /// Pairwise anti-entropy: every peer offers every neighbour all
    /// transactions the neighbour has not seen. Runs until no new
    /// transaction moves (handles multi-hop repair on sparse topologies).
    ///
    /// This is an *omniscient oracle* — it teleports state without using
    /// the simulated links or the protocol engines — kept only as a
    /// ground truth for tests. Protocol-faithful reconciliation is
    /// [`Self::repair_to_quiescence`].
    pub fn anti_entropy(&mut self) {
        loop {
            let mut moved = false;
            for a in 0..self.len() {
                if !self.links.up[a] {
                    continue;
                }
                for bi in 0..self.neighbours(a).len() {
                    let b = self.neighbours(a)[bi];
                    if self.links.link_state(a, b) != LinkState::Open {
                        continue;
                    }
                    let to_send: Vec<TxMessage> = self
                        .peer(a)
                        .export_messages()
                        .into_iter()
                        .filter(|m| !self.peer(b).has_seen(m.content_id()))
                        .collect();
                    for m in to_send {
                        if self.protos[b].peer_mut().receive(&m) == ReceiveOutcome::Accepted {
                            moved = true;
                        }
                    }
                }
            }
            if !moved {
                return;
            }
        }
    }

    /// Are all replicas identical as transaction sets?
    pub fn replicas_consistent(&self) -> bool {
        let n0 = self.peer(0).len();
        if self.peers().any(|p| p.len() != n0) {
            return false;
        }
        for i in 0..n0 {
            let cid = self.peer(0).content_id_of(tangle_ledger::TxId(i as u32));
            if self.peers().any(|p| p.lookup(cid).is_none()) {
                return false;
            }
        }
        true
    }
}

fn build_topology(n: usize, topology: Topology, rng: &mut tinynn::rng::Rng) -> Vec<Vec<usize>> {
    let mut adj = vec![Vec::new(); n];
    let connect = |a: usize, b: usize, adj: &mut Vec<Vec<usize>>| {
        if a != b && !adj[a].contains(&b) {
            adj[a].push(b);
            adj[b].push(a);
        }
    };
    match topology {
        Topology::FullMesh => {
            for a in 0..n {
                for b in (a + 1)..n {
                    connect(a, b, &mut adj);
                }
            }
        }
        Topology::Ring => {
            for a in 0..n {
                connect(a, (a + 1) % n, &mut adj);
            }
        }
        Topology::RandomRegular { degree } => {
            // Ring backbone guarantees connectivity, then random chords.
            for a in 0..n {
                connect(a, (a + 1) % n, &mut adj);
            }
            for a in 0..n {
                while adj[a].len() < degree.max(2) {
                    let b = rng.random_range(0..n);
                    if b == a || adj[a].contains(&b) {
                        // avoid infinite loops on tiny networks
                        if adj[a].len() + 1 >= n {
                            break;
                        }
                        continue;
                    }
                    connect(a, b, &mut adj);
                }
            }
        }
    }
    adj
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::CrashEvent;
    use crate::message::ContentId;
    use tinynn::ParamVec;

    fn genesis() -> TxMessage {
        TxMessage::create(&ParamVec(vec![0.0]), vec![], u64::MAX, 0, 0)
    }

    fn msg(parents: Vec<ContentId>, issuer: u64, v: f32) -> TxMessage {
        TxMessage::create(&ParamVec(vec![v]), parents, issuer, 0, 0)
    }

    /// Publish a chain of `k` transactions from peer 0, draining between
    /// publications.
    fn publish_chain(net: &mut Network, k: u64) {
        for i in 0..k {
            let tip = net.peer(0).replica().tips()[0];
            let cid = net.peer(0).content_id_of(tip);
            net.publish(0, msg(vec![cid], i, i as f32));
            net.run_to_quiescence();
        }
    }

    #[test]
    fn flood_reaches_every_peer_on_mesh() {
        let g = genesis();
        let mut net = Network::new(6, &g, NetworkConfig::default());
        let a = msg(vec![g.content_id()], 0, 1.0);
        net.publish(0, a.clone());
        net.run_to_quiescence();
        for p in net.peers() {
            assert_eq!(p.len(), 2, "peer {} missing the broadcast", p.id);
            assert!(p.lookup(a.content_id()).is_some());
        }
        assert!(net.replicas_consistent());
        // the issuer is everyone's neighbour: five pushes, one body per
        // peer, each receiver tells the four others, and nobody needs to
        // ask
        assert_eq!(
            net.stats,
            NetStats {
                delivered: 5,
                announced: 20,
                ..NetStats::default()
            }
        );
    }

    #[test]
    fn ring_topology_converges_despite_diameter() {
        let g = genesis();
        let mut net = Network::new(
            8,
            &g,
            NetworkConfig {
                topology: Topology::Ring,
                ..NetworkConfig::default()
            },
        );
        // chain of three transactions published from different peers
        let a = msg(vec![g.content_id()], 0, 1.0);
        let b = msg(vec![a.content_id()], 3, 2.0);
        net.publish(0, a);
        net.publish(3, b); // peer 3 buffers b as orphan until a arrives
        net.run_to_quiescence();
        assert!(net.replicas_consistent());
        assert_eq!(net.peer(5).len(), 3);
    }

    #[test]
    fn out_of_order_delivery_handled_by_orphans() {
        let g = genesis();
        let mut net = Network::new(
            4,
            &g,
            NetworkConfig {
                latency: Latency { min: 1, max: 20 },
                seed: 9,
                ..NetworkConfig::default()
            },
        );
        let a = msg(vec![g.content_id()], 0, 1.0);
        let b = msg(vec![a.content_id()], 0, 2.0);
        let c = msg(vec![b.content_id()], 0, 3.0);
        net.publish(0, a);
        net.publish(0, b);
        net.publish(0, c);
        net.run_to_quiescence();
        assert!(net.replicas_consistent());
        for p in net.peers() {
            assert_eq!(p.len(), 4);
            assert_eq!(p.orphan_count(), 0);
        }
    }

    #[test]
    fn loss_repaired_by_anti_entropy() {
        let g = genesis();
        let mut net = Network::new(
            5,
            &g,
            NetworkConfig {
                topology: Topology::Ring,
                loss: 0.6,
                seed: 4,
                ..NetworkConfig::default()
            },
        );
        publish_chain(&mut net, 6);
        assert!(net.stats.dropped > 0, "loss model should drop something");
        net.anti_entropy();
        assert!(net.replicas_consistent(), "anti-entropy must repair losses");
        assert_eq!(net.peer(4).len(), 7);
    }

    #[test]
    fn loss_repaired_by_pull_protocol_alone() {
        let g = genesis();
        let mut net = Network::new(
            5,
            &g,
            NetworkConfig {
                topology: Topology::Ring,
                loss: 0.4,
                seed: 11,
                ..NetworkConfig::default()
            },
        );
        publish_chain(&mut net, 6);
        assert!(net.stats.dropped > 0, "loss model should drop something");
        assert!(net.repair_to_quiescence(64), "repair should quiesce");
        assert!(
            net.replicas_consistent(),
            "head advertisement + pull must repair losses without the oracle"
        );
        assert_eq!(net.peer(4).len(), 7);
    }

    #[test]
    fn partition_diverges_then_heals() {
        let g = genesis();
        let mut net = Network::new(6, &g, NetworkConfig::default());
        net.partition(vec![0, 0, 0, 1, 1, 1]);
        let a = msg(vec![g.content_id()], 0, 1.0);
        let b = msg(vec![g.content_id()], 5, 2.0);
        net.publish(0, a.clone());
        net.publish(5, b.clone());
        net.run_to_quiescence();
        // each side only has its own transaction
        assert!(net.peer(1).lookup(a.content_id()).is_some());
        assert!(net.peer(1).lookup(b.content_id()).is_none());
        assert!(net.peer(4).lookup(b.content_id()).is_some());
        assert!(net.peer(4).lookup(a.content_id()).is_none());
        assert!(!net.replicas_consistent());
        net.heal();
        assert!(net.repair_to_quiescence(32));
        assert!(net.replicas_consistent(), "heal + repair must reconcile");
        assert_eq!(net.peer(0).len(), 3);
    }

    #[test]
    fn random_regular_topology_is_connected() {
        let g = genesis();
        let mut net = Network::new(
            10,
            &g,
            NetworkConfig {
                topology: Topology::RandomRegular { degree: 3 },
                seed: 2,
                ..NetworkConfig::default()
            },
        );
        for i in 0..10 {
            assert!(!net.neighbours(i).is_empty());
        }
        let a = msg(vec![g.content_id()], 0, 1.0);
        net.publish(0, a);
        net.run_to_quiescence();
        assert!(net.replicas_consistent());
    }

    #[test]
    fn benign_fault_plan_changes_nothing() {
        let g = genesis();
        let cfg = NetworkConfig {
            topology: Topology::RandomRegular { degree: 3 },
            latency: Latency { min: 1, max: 7 },
            loss: 0.2,
            seed: 5,
            ..NetworkConfig::default()
        };
        let mut plain = Network::new(8, &g, cfg);
        let mut armed = Network::new(8, &g, cfg);
        armed.install_faults(FaultPlan::default());
        publish_chain(&mut plain, 5);
        publish_chain(&mut armed, 5);
        assert_eq!(plain.stats, armed.stats, "benign plan must be invisible");
        for (a, b) in plain.peers().zip(armed.peers()) {
            assert_eq!(a.len(), b.len());
        }
    }

    #[test]
    fn crashed_peer_discards_traffic_and_rejoins_empty() {
        let g = genesis();
        let mut net = Network::new(4, &g, NetworkConfig::default());
        net.install_faults(FaultPlan {
            crashes: vec![CrashEvent {
                peer: 2,
                at: 1,
                restart_at: Some(40),
                recovery: Recovery::Empty,
            }],
            ..FaultPlan::default()
        });
        let a = msg(vec![g.content_id()], 0, 1.0);
        let b = msg(vec![a.content_id()], 0, 2.0);
        net.publish(0, a.clone());
        net.publish(0, b.clone());
        net.advance(30);
        assert!(!net.is_up(2));
        assert!(net.stats.discarded > 0, "down peer must discard deliveries");
        assert!(net.peer(2).lookup(a.content_id()).is_none());
        // restart fires at t=40; the advertise/pull exchange refills it
        assert!(net.repair_to_quiescence(32));
        assert!(net.is_up(2));
        assert!(net.replicas_consistent(), "rejoined peer must re-solidify");
        assert_eq!(net.peer(2).len(), 3);
    }

    #[test]
    fn crashed_peer_restores_from_checkpoint() {
        let g = genesis();
        let mut net = Network::new(4, &g, NetworkConfig::default());
        net.set_checkpointing(5, None);
        net.install_faults(FaultPlan {
            crashes: vec![CrashEvent {
                peer: 3,
                at: 20,
                restart_at: Some(30),
                recovery: Recovery::FromCheckpoint,
            }],
            ..FaultPlan::default()
        });
        let a = msg(vec![g.content_id()], 0, 1.0);
        net.publish(0, a.clone());
        net.advance(15); // a delivered everywhere; checkpoints at 5/10/15
        assert!(net.is_up(3));
        assert!(net.peer(3).lookup(a.content_id()).is_some());
        net.advance(7); // crash fires at t=20
        assert!(!net.is_up(3));
        let b = msg(vec![a.content_id()], 0, 2.0);
        net.publish(0, b.clone());
        net.advance(5); // b spreads while 3 is down
        assert!(net.peer(3).lookup(b.content_id()).is_none());
        net.advance(10); // restart at t=30 restores the checkpoint
        assert!(net.is_up(3));
        assert!(
            net.peer(3).lookup(a.content_id()).is_some(),
            "checkpointed transaction must survive the crash"
        );
        assert!(net.repair_to_quiescence(32));
        assert!(net.replicas_consistent());
        assert!(net.peer(3).lookup(b.content_id()).is_some());
    }

    #[test]
    fn corruption_is_rejected_counted_and_repaired() {
        let g = genesis();
        let mut net = Network::new(
            5,
            &g,
            NetworkConfig {
                topology: Topology::Ring,
                seed: 3,
                ..NetworkConfig::default()
            },
        );
        net.install_faults(FaultPlan {
            seed: 9,
            corrupt: 0.35,
            ..FaultPlan::default()
        });
        publish_chain(&mut net, 6);
        assert!(net.stats.rejected > 0, "corrupted payloads must be counted");
        assert!(net.repair_to_quiescence(64));
        assert!(
            net.replicas_consistent(),
            "intact copies must be re-pulled after corruption"
        );
    }

    #[test]
    fn duplicate_injection_shows_up_as_duplicates() {
        let g = genesis();
        let cfg = NetworkConfig {
            topology: Topology::Ring,
            seed: 6,
            ..NetworkConfig::default()
        };
        let mut base = Network::new(5, &g, cfg);
        let mut dup = Network::new(5, &g, cfg);
        dup.install_faults(FaultPlan {
            seed: 2,
            duplicate: 0.5,
            ..FaultPlan::default()
        });
        publish_chain(&mut base, 4);
        publish_chain(&mut dup, 4);
        assert!(
            dup.stats.duplicates > base.stats.duplicates,
            "duplication faults must surface as receiver-side duplicates"
        );
        assert!(dup.replicas_consistent());
    }

    #[test]
    fn rerequests_back_off_and_stay_bounded() {
        let g = genesis();
        let mut net = Network::new(
            4,
            &g,
            NetworkConfig {
                topology: Topology::Ring,
                ..NetworkConfig::default()
            },
        );
        net.set_repair(RepairConfig {
            max_retries: 3,
            ..RepairConfig::default()
        });
        // publish a child whose parent no peer will ever hold
        let phantom = msg(vec![g.content_id()], 9, 99.0);
        let child = msg(vec![phantom.content_id()], 0, 1.0);
        net.publish(0, child);
        net.run_to_quiescence();
        assert!(net.stats.rerequests > 0, "missing parent must be requested");
        // 4 peers × ≤3 retries each; bounded even though the tx is gone
        assert!(net.stats.rerequests <= 12, "{}", net.stats.rerequests);
        assert!(net.peer(1).orphan_count() > 0);
    }

    /// A restarted peer that was told of a body and is still pulling it has
    /// not recovered, even when another body lands first and leaves it
    /// with no orphan and no missing parent.
    #[test]
    fn recovery_waits_for_bodies_still_being_pulled() {
        let g = genesis();
        let mut net = Network::new(
            4,
            &g,
            NetworkConfig {
                topology: Topology::Ring,
                latency: Latency { min: 1, max: 1 },
                ..NetworkConfig::default()
            },
        );
        let tel = lt_telemetry::Telemetry::new(lt_telemetry::NoopSink);
        net.set_telemetry(tel.clone());
        net.install_faults(FaultPlan {
            crashes: vec![CrashEvent {
                peer: 3,
                at: 1,
                restart_at: Some(2),
                recovery: Recovery::Empty,
            }],
            ..FaultPlan::default()
        });
        net.advance(2); // down at t=1, back at t=2 with nothing to re-fetch
        assert!(net.is_up(3));
        // Peer 1 is not a neighbour of peer 3 on the ring, so `x` reaches
        // peer 3 only as an announcement (t=4), which it pulls: the
        // request lands at t=5 and the body at t=6.
        let x = msg(vec![g.content_id()], 1, 1.0);
        net.publish(1, x.clone());
        net.advance(2);
        assert_eq!(net.protos[3].waiting_for(), 1);
        assert!(net.peer(3).missing().is_empty());
        // `y` is pushed straight to peer 3 and lands at t=5, in between.
        let y = msg(vec![g.content_id()], 0, 2.0);
        net.publish(0, y.clone());
        net.advance(1);
        assert!(net.peer(3).lookup(y.content_id()).is_some());
        assert!(net.peer(3).lookup(x.content_id()).is_none());
        assert_eq!(net.peer(3).orphan_count(), 0);
        assert_eq!(tel.counter_value("fault.recovered"), 0, "x still pulled");
        net.run_to_quiescence();
        assert!(net.peer(3).lookup(x.content_id()).is_some());
        assert_eq!(tel.counter_value("fault.recovered"), 1);
    }

    /// The one scenario where pushing and announcing (whole adjacency),
    /// advertising (up neighbours) and re-requesting (up *and* reachable
    /// holders) pick three different neighbour sets: a peer restarting
    /// inside a partition, whose heal then reopens links one by one. The
    /// counters are exact: one changed RNG draw, send or event order in
    /// the engine or the link layer moves them.
    #[test]
    fn restart_inside_a_partition_repairs_over_reachable_neighbours_only() {
        let g = genesis();
        let mut net = Network::new(
            6,
            &g,
            NetworkConfig {
                seed: 21,
                ..NetworkConfig::default()
            },
        );
        net.set_checkpointing(5, None);
        net.install_faults(FaultPlan {
            crashes: vec![CrashEvent {
                peer: 1,
                at: 12,
                restart_at: Some(30),
                recovery: Recovery::FromCheckpoint,
            }],
            ..FaultPlan::default()
        });
        let a = msg(vec![g.content_id()], 0, 1.0);
        net.publish(0, a.clone());
        net.advance(15); // a everywhere and checkpointed; peer 1 down since t=12
        assert!(!net.is_up(1));
        net.partition(vec![0, 0, 0, 1, 1, 1]);
        let b = msg(vec![a.content_id()], 0, 2.0);
        net.publish(0, b.clone());
        // Restart at t=30 from the checkpoint, still partitioned: the head
        // advertisement goes to all five (up) neighbours, three copies die
        // at the cut, peers 0 and 2 push b back.
        net.advance(25);
        assert!(net.is_up(1));
        assert!(net.peer(1).lookup(a.content_id()).is_some());
        assert!(net.peer(1).lookup(b.content_id()).is_some());
        // `mid` exists only on the far side, its child only on the near
        // side: peers 0, 1 and 2 orphan the child and re-request `mid`
        // until their retries run out. A request sent across the cut
        // would show up as an extra drop.
        let mid = msg(vec![a.content_id()], 3, 3.0);
        let child = msg(vec![mid.content_id()], 0, 4.0);
        net.publish(3, mid.clone());
        net.publish(0, child);
        net.run_to_quiescence();
        assert_eq!(net.peer(1).orphan_count(), 1);
        assert!(net.peer(1).missing().contains(&mid.content_id()));
        // 165 drops = 3 cut-crossing copies × (b pushed by 0 and announced
        // by 2 and 1, the restart's advertisement, mid pushed by 3 and
        // announced by 4 and 5, the child pushed by 0 and announced by 1
        // and 2, and 45 settled advertisements: 3, 4 and 5 once `a` has
        // settled (t=37) and, once `mid` has, at t=76–78 and 6 re-sends 36
        // ticks apart; 1 and 2 when their retries for `mid` run out (t=97)
        // and 6 times more; 0 when its own do (t=547) and 6 times more);
        // 12 bodies = a ×5, b to 2 and (pushed back by 0 and 2, hence the
        // duplicate) twice to 1, mid ×2, the child ×2; 18 re-requests,
        // none dropped: peers 1 and 2 each ask 0, who sent them the
        // child, for `mid` at once and 6 more times, and 0, whose own
        // publication is the orphan, asks 1 and 2 in turn 6 times with
        // exponential backoff; its last re-sent advertisement lands at
        // t=764.
        assert_eq!(net.now(), 764);
        assert_eq!(
            net.stats,
            NetStats {
                delivered: 12,
                dropped: 165,
                duplicates: 1,
                orphaned: 2,
                rejected: 0,
                discarded: 2,
                rerequests: 18,
                evicted: 0,
                announced: 25,
                requested: 2,
            }
        );
        // Healed, each of the 9 reopened links carries one advertisement
        // each way: the near side's heads do not cover `mid`, so the far
        // side pushes it back and the orphaned child resolves; each side
        // also asks the advertisers for the heads it has never seen (9
        // ids, with the settled round below). Every neighbour that can tell a peer lacks a body pushes
        // it back, which is where the duplicates come from. The link-ups
        // arm every peer's settled advertisement too: its first round
        // (t=802–805) reaches 3, 4 and 5 while they are still taking in
        // the near side's bodies, and the re-sends run to t=1059.
        net.heal();
        assert!(net.repair_to_quiescence(32));
        assert!(net.replicas_consistent());
        assert_eq!(net.peer(1).len(), 5);
        assert_eq!(net.now(), 1062);
        assert_eq!(
            net.stats,
            NetStats {
                delivered: 76,
                dropped: 165,
                duplicates: 56,
                orphaned: 2,
                rejected: 0,
                discarded: 2,
                rerequests: 18,
                evicted: 0,
                announced: 61,
                requested: 11,
            }
        );
    }
}
