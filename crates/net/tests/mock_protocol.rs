//! Protocol state-machine tests over the deterministic mock transport:
//! push / announce / pull convergence, orphan repair with retries and
//! backoff, rotating holder selection, duplicate delivery, fault-plan
//! determinism, and a property test over random topologies, faults and
//! publication schedules — all without a single socket.

use lt_net::{MockTransport, NodeProtocol};
use tangle_gossip::{ContentId, FaultPlan, ProtocolMsg, ReceiveOutcome, RepairConfig, TxMessage};
use tinynn::ParamVec;

const POW: u32 = 0;
const ORPHAN_CAP: usize = 16;

fn genesis() -> TxMessage {
    TxMessage::create(&ParamVec(vec![0.5, -0.5, 0.25]), vec![], u64::MAX, 0, POW)
}

fn mesh(n: usize) -> Vec<NodeProtocol> {
    let g = genesis();
    (0..n)
        .map(|i| {
            let mut p = NodeProtocol::new(i, &g, POW, ORPHAN_CAP);
            p.set_neighbours((0..n).filter(|&j| j != i).collect());
            p
        })
        .collect()
}

/// A transaction extending `parents`, payload varied by `k`.
fn tx(parents: Vec<ContentId>, issuer: u64, slot: u64, k: f32) -> TxMessage {
    TxMessage::create(
        &ParamVec(vec![k, k + 1.0, k - 1.0]),
        parents,
        issuer,
        slot,
        POW,
    )
}

/// One event of the discrete-event loop — the due repair ticks or the
/// next delivery, whichever is earlier; `observe` sees a delivery before
/// its receiver does. `false` when neither exists.
fn step(
    nodes: &mut [NodeProtocol],
    t: &mut MockTransport,
    mut observe: impl FnMut(&lt_net::mock::Delivery),
) -> bool {
    let next_tick = nodes.iter().filter_map(|n| n.next_wake()).min();
    let at = match (t.next_at(), next_tick) {
        (None, None) => return false,
        (d, w) => d.unwrap_or(u64::MAX).min(w.unwrap_or(u64::MAX)),
    };
    if next_tick.is_some_and(|w| w <= at) {
        t.advance_to(at);
        for n in nodes.iter_mut() {
            if n.next_wake().is_some_and(|w| w <= at) {
                n.tick(at, t);
            }
        }
    } else {
        let d = t.pop_next().expect("delivery scheduled");
        observe(&d);
        let node = &mut nodes[d.to];
        node.set_now(d.at);
        node.on_message(d.from, d.msg, t);
    }
    true
}

/// Run the discrete-event loop to quiescence: interleave due repair
/// ticks with deliveries in timestamp order until neither exists.
fn drain(nodes: &mut [NodeProtocol], t: &mut MockTransport) {
    for _ in 0..100_000 {
        if !step(nodes, t, |_| ()) {
            return;
        }
    }
    panic!("event loop did not quiesce");
}

fn archive_ids(n: &NodeProtocol) -> Vec<u64> {
    n.peer()
        .export_messages()
        .iter()
        .map(|m| m.content_id().0)
        .collect()
}

#[test]
fn flood_converges_full_mesh() {
    let mut nodes = mesh(4);
    let mut t = MockTransport::new(11, (1, 4));
    let g = nodes[0].peer().heads();
    let a = tx(g.clone(), 0, 1, 1.0);
    let b = tx(vec![a.content_id()], 1, 2, 2.0);
    assert_eq!(nodes[0].publish(a, &mut t), ReceiveOutcome::Accepted);
    drain(&mut nodes, &mut t);
    assert_eq!(nodes[1].publish(b, &mut t), ReceiveOutcome::Accepted);
    drain(&mut nodes, &mut t);
    let want = archive_ids(&nodes[0]);
    assert_eq!(want.len(), 2);
    for n in &nodes {
        assert_eq!(archive_ids(n), want, "replica {} diverged", n.id());
        assert_eq!(n.peer().orphan_count(), 0);
        assert!(n.peer().missing().is_empty());
    }
}

#[test]
fn duplicate_delivery_is_idempotent() {
    let mut nodes = mesh(2);
    let mut t = MockTransport::new(3, (1, 1));
    let a = tx(nodes[0].peer().heads(), 0, 1, 3.0);
    assert_eq!(
        nodes[1].on_message(0, ProtocolMsg::Publish(a.clone()), &mut t),
        Some(ReceiveOutcome::Accepted)
    );
    assert_eq!(
        nodes[1].on_message(0, ProtocolMsg::Publish(a), &mut t),
        Some(ReceiveOutcome::Duplicate)
    );
    assert_eq!(nodes[1].peer().len(), 2); // genesis + a
}

/// An orphaned child triggers the pull protocol: request the parent from
/// a neighbour that has it, receive the delta, and de-orphan.
#[test]
fn orphan_repair_recovers_missing_parent() {
    let mut nodes = mesh(2);
    let mut t = MockTransport::new(7, (1, 2));
    let parent = tx(nodes[0].peer().heads(), 0, 1, 4.0);
    let child = tx(vec![parent.content_id()], 0, 2, 5.0);
    // node 0 has both; node 1 sees only the child (parent "lost").
    assert_eq!(
        nodes[0].publish(parent.clone(), &mut MockTransport::new(0, (1, 1))),
        ReceiveOutcome::Accepted
    );
    assert_eq!(
        nodes[0].publish(child.clone(), &mut MockTransport::new(0, (1, 1))),
        ReceiveOutcome::Accepted
    );
    assert_eq!(
        nodes[1].on_message(0, ProtocolMsg::Publish(child), &mut t),
        Some(ReceiveOutcome::OrphanBuffered)
    );
    assert_eq!(nodes[1].peer().orphan_count(), 1);
    assert!(nodes[1].next_wake().is_some(), "repair tick scheduled");
    drain(&mut nodes, &mut t);
    assert_eq!(nodes[1].peer().orphan_count(), 0);
    assert!(nodes[1].peer().missing().is_empty());
    assert_eq!(archive_ids(&nodes[1]), archive_ids(&nodes[0]));
}

/// An orphan evicted by the buffer cap is forgotten, and a final tip is
/// named by no later transaction: nothing would make the receiver want it
/// again. The eviction arms one head advertisement, sent once the buffer
/// drains, and the sender's delta refills the gap.
#[test]
fn an_evicted_final_tip_comes_back_through_the_resync() {
    let g = genesis();
    let mut sender = NodeProtocol::new(0, &g, POW, ORPHAN_CAP);
    sender.set_neighbours(vec![1]);
    let mut receiver = NodeProtocol::new(1, &g, POW, 2);
    receiver.set_neighbours(vec![0]);
    // The sender holds a chain a <- b <- c <- d; d is the final tip.
    let mut chain = Vec::new();
    let mut head = g.content_id();
    for k in 0..4u64 {
        let m = tx(vec![head], 0, k + 1, k as f32);
        head = m.content_id();
        let quiet = &mut MockTransport::new(0, (1, 1));
        assert_eq!(sender.publish(m.clone(), quiet), ReceiveOutcome::Accepted);
        chain.push(m);
    }
    // The receiver gets d, c and b in reverse: b overflows its cap of two
    // and evicts d, the oldest orphan.
    let mut t = MockTransport::new(5, (1, 3));
    for m in chain[1..].iter().rev() {
        let outcome = receiver.on_message(0, ProtocolMsg::Publish(m.clone()), &mut t);
        assert_eq!(outcome, Some(ReceiveOutcome::OrphanBuffered));
    }
    assert_eq!(receiver.peer().evictions(), 1);
    assert!(!receiver.peer().has_seen(chain[3].content_id()));
    let mut nodes = [sender, receiver];
    drain(&mut nodes, &mut t);
    let [sender, receiver] = &nodes;
    assert_eq!(receiver.waiting_for(), 0);
    assert_eq!(receiver.peer().orphan_count(), 0);
    assert_eq!(archive_ids(receiver), archive_ids(sender));
    assert_eq!(receiver.peer().len(), 5);
}

/// The pull of a transaction a neighbour claims to hold is retried at a
/// fixed interval — one tick past `backoff_base`, so an answer that took
/// exactly that long is not asked for twice — and stops at `max_retries`;
/// fresh evidence re-arms it. A missing parent whose only claimed holder
/// is gone keeps the older schedule: exponential (`backoff_base <<
/// attempt`) over whoever is left.
#[test]
fn rerequests_back_off_and_cap() {
    let cfg = RepairConfig {
        backoff_base: 8,
        max_retries: 4,
    };
    let mut nodes = mesh(3);
    nodes[1].set_repair(cfg);
    nodes[2].set_repair(cfg);
    let mut t = MockTransport::new(9, (1, 1));
    let parent = tx(nodes[0].peer().heads(), 0, 1, 6.0);
    let child = tx(vec![parent.content_id()], 0, 2, 7.0);
    let missing = parent.content_id();

    /// Swallow what is in flight; every `Request` must go to `to`.
    fn requests(t: &mut MockTransport, to: usize) -> usize {
        let mut n = 0;
        while let Some(d) = t.pop_next() {
            if let ProtocolMsg::Request { wants } = &d.msg {
                assert_eq!((d.to, wants.len()), (to, 1));
                n += 1;
            }
        }
        n
    }

    // Node 0 never gets the parent either: node 1 asks it, the sender of
    // the child, at once and then `max_retries` more times, in vain.
    nodes[1].on_message(0, ProtocolMsg::Publish(child.clone()), &mut t);
    assert_eq!(requests(&mut t, 0), 1, "asked where the child came from");
    let mut last = nodes[1].now();
    for _ in 0..cfg.max_retries {
        let due = nodes[1].next_wake().expect("retry pending");
        assert_eq!(due - last, cfg.backoff_base + 1, "fixed spacing");
        last = due;
        assert_eq!(nodes[1].tick(due, &mut t), 1);
        assert_eq!(requests(&mut t, 0), 1);
    }
    assert_eq!(nodes[1].attempts_for(missing), cfg.max_retries);
    assert_eq!(nodes[1].next_wake(), None, "gave up after max_retries");
    assert_eq!(nodes[1].pending(), 1, "but still knows what it lacks");

    // Fresh evidence (an Advertise naming the missing cid) resets the
    // attempt counter, asks at once and re-arms the retries.
    let now = nodes[1].now();
    let heads = vec![missing];
    nodes[1].on_message(0, ProtocolMsg::Advertise { heads }, &mut t);
    assert_eq!(nodes[1].attempts_for(missing), 0);
    assert_eq!(nodes[1].next_wake(), Some(now + cfg.backoff_base + 1));
    assert_eq!(requests(&mut t, 0), 1);

    // Node 2 loses the neighbour that sent it the child, and with it the
    // only claim to the parent: exponential spacing over who is left.
    nodes[2].on_message(0, ProtocolMsg::Publish(child), &mut t);
    nodes[2].set_neighbours(vec![1]);
    assert_eq!(nodes[2].pending(), 0);
    requests(&mut t, 0);
    let mut at = Vec::new();
    while let Some(due) = nodes[2].next_wake() {
        assert_eq!(nodes[2].tick(due, &mut t), 1);
        assert_eq!(requests(&mut t, 1), 1);
        at.push(due);
    }
    assert_eq!(at.len(), cfg.max_retries as usize);
    for (k, w) in at.windows(2).enumerate() {
        assert_eq!(w[1] - w[0], cfg.backoff_base << (k + 1));
    }

    // Give node 0 the parent; node 1's re-armed pull now completes.
    nodes[0].publish(parent, &mut MockTransport::new(0, (1, 1)));
    drain(&mut nodes, &mut t);
    assert_eq!(nodes[1].peer().orphan_count(), 0);
    assert!(nodes[1].peer().missing().is_empty());
    assert_eq!(nodes[1].pending(), 0);
}

/// Re-request targets rotate deterministically: attempt `k` for cid `c`
/// goes to `holders[(k + c) % len]` — the neighbours that claimed `c`,
/// in the order they did, and nobody else.
#[test]
fn rerequest_neighbour_rotation() {
    let mut nodes = mesh(4);
    let mut t = MockTransport::new(5, (1, 1));
    let cid = ContentId(0x5eed);
    // node 3's neighbours are [0, 1, 2]; 2 and 0 say they hold `cid`
    // (its issuer, 9, is nobody's neighbour)
    for from in [2, 0] {
        let ids = vec![cid];
        nodes[3].on_message(from, ProtocolMsg::Announce { issuer: 9, ids }, &mut t);
    }
    let first = t.pop_next().expect("asked at once");
    assert!(matches!(first.msg, ProtocolMsg::Request { .. }));
    assert_eq!(first.to, 2, "the first announcer");
    assert!(t.pop_next().is_none(), "and only it");
    let holders = [2, 0];
    for attempt in 0..4u32 {
        let due = nodes[3].next_wake().expect("retry pending");
        nodes[3].tick(due, &mut t);
        let expect = holders[(attempt as usize + cid.0 as usize) % holders.len()];
        let mut targets = Vec::new();
        while let Some(d) = t.pop_next() {
            assert!(matches!(d.msg, ProtocolMsg::Request { .. }));
            targets.push(d.to);
        }
        assert_eq!(targets, vec![expect], "attempt {attempt} target");
    }
}

/// Corrupted transaction payloads are rejected at the replica, not
/// accepted or panicked on.
#[test]
fn corrupt_in_flight_payload_is_rejected() {
    let mut nodes = mesh(2);
    let mut t = MockTransport::new(13, (1, 1));
    t.install_faults(FaultPlan {
        seed: 13,
        corrupt: 1.0,
        ..FaultPlan::default()
    });
    let a = tx(nodes[0].peer().heads(), 0, 1, 10.0);
    nodes[0].publish(a, &mut t);
    let d = t.pop_next().expect("delivery");
    let outcome = nodes[1].on_message(d.from, d.msg, &mut t).expect("tx msg");
    assert_eq!(outcome, ReceiveOutcome::Corrupt);
    assert_eq!(nodes[1].peer().len(), 1, "corrupt tx not inserted");
}

/// The same seed replays the same run — byte-identical archives and
/// identical transport accounting — under drop + duplicate + reorder
/// faults, with repair recovering every loss.
#[test]
fn faulty_run_is_deterministic_and_recovers() {
    fn run(seed: u64) -> (Vec<Vec<u64>>, u64, u64) {
        let mut nodes = mesh(3);
        let mut t = MockTransport::new(seed, (1, 6));
        t.install_faults(FaultPlan {
            seed: seed ^ 0xF417,
            drop: 0.25,
            duplicate: 0.2,
            reorder_jitter: 9,
            ..FaultPlan::default()
        });
        let mut heads = nodes[0].peer().heads();
        for slot in 1..=6u64 {
            let issuer = (slot % 3) as usize;
            let m = tx(heads.clone(), issuer as u64, slot, slot as f32);
            heads = vec![m.content_id()];
            nodes[issuer].publish(m, &mut t);
            drain(&mut nodes, &mut t);
            // anti-entropy: advertised heads re-arm any pull that gave up
            for node in nodes.iter_mut() {
                node.advertise_heads(&mut t);
            }
            drain(&mut nodes, &mut t);
        }
        let archives: Vec<Vec<u64>> = nodes.iter().map(archive_ids).collect();
        (archives, t.sent, t.dropped)
    }
    let (a1, sent1, dropped1) = run(42);
    let (a2, sent2, dropped2) = run(42);
    assert_eq!(a1, a2, "same seed, same archives");
    assert_eq!((sent1, dropped1), (sent2, dropped2), "same accounting");
    assert!(dropped1 > 0, "fault plan actually dropped something");
    // every replica holds all 6 transactions despite the losses
    for archive in &a1 {
        assert_eq!(archive.len(), 6);
    }
}

/// Engines over one mock transport, stepped event by event, with a record
/// of who asked whom for what.
struct World {
    nodes: Vec<NodeProtocol>,
    t: MockTransport,
    /// `(asker, asked, cid)` of every `Request` delivered so far.
    asked: std::collections::HashSet<(usize, usize, u64)>,
    /// Bodies that arrived neither from their issuer as a push nor as the
    /// answer to a request of the receiver's.
    unasked: usize,
}

impl World {
    /// `n` engines on a ring (`shape` 0), a full mesh (1) or a ring with
    /// `seed`-derived chords (2).
    fn new(n: usize, shape: u8, seed: u64, plan: FaultPlan) -> Self {
        let g = genesis();
        let mut adj = vec![Vec::new(); n];
        let mut connect = |a: usize, b: usize| {
            if a != b && !adj[a].contains(&b) {
                adj[a].push(b);
                adj[b].push(a);
            }
        };
        for a in 0..n {
            connect(a, (a + 1) % n);
            match shape {
                0 => {}
                1 => (0..n).for_each(|b| connect(a, b)),
                _ => connect(a, (a + 2 + (seed as usize + a) % n.max(3)) % n),
            }
        }
        let nodes = adj
            .into_iter()
            .enumerate()
            .map(|(i, nbrs)| {
                let mut p = NodeProtocol::new(i, &g, POW, 64);
                p.set_neighbours(nbrs);
                p
            })
            .collect();
        let mut t = MockTransport::new(seed, (1, 4));
        t.install_faults(plan);
        Self {
            nodes,
            t,
            asked: Default::default(),
            unasked: 0,
        }
    }

    /// One event, with the bookkeeping of who asked whom for what.
    fn step(&mut self) -> bool {
        let (asked, unasked) = (&mut self.asked, &mut self.unasked);
        step(&mut self.nodes, &mut self.t, |d| match &d.msg {
            ProtocolMsg::Request { wants } => {
                asked.extend(wants.iter().map(|w| (d.from, d.to, w.0)));
            }
            ProtocolMsg::Publish(m) if m.issuer == d.from as u64 => {}
            ProtocolMsg::Delta(m) if asked.contains(&(d.to, d.from, m.content_id().0)) => {}
            ProtocolMsg::Publish(_) | ProtocolMsg::Delta(_) => *unasked += 1,
            _ => {}
        })
    }

    fn drain(&mut self) {
        for _ in 0..1_000_000 {
            if !self.step() {
                return;
            }
        }
        panic!("event loop did not quiesce");
    }

    /// Every replica holds the same transactions, buffers no orphan and
    /// wants nothing.
    fn settled(&self) -> bool {
        let sorted = |n: &NodeProtocol| {
            let mut ids = archive_ids(n);
            ids.sort_unstable();
            ids
        };
        let want = sorted(&self.nodes[0]);
        self.nodes.iter().all(|n| {
            sorted(n) == want
                && n.peer().orphan_count() == 0
                && n.peer().missing().is_empty()
                && n.pending() == 0
        })
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

    /// Whatever the topology, the faults and the publication schedule:
    /// after head advertisement rounds every replica holds every
    /// transaction and no engine wants anything — and while nothing is
    /// lost, no body travels that was not pushed by its issuer or asked
    /// for by its receiver, and every peer has it before any
    /// advertisement.
    #[test]
    fn announce_pull_converges_on_any_topology_under_faults(
        n in 3usize..=8,
        shape in 0u8..3,
        seed in 0u64..1_000_000,
        // a third of the cases lose nothing
        loss_raw in 0u32..=45,
        duplicate_pct in 0u32..=20,
        reorder_jitter in 0u64..=6,
        script in proptest::collection::vec((0usize..8, 0u32..12), 1..=30),
    ) {
        let loss_pct = loss_raw.saturating_sub(15);
        let plan = FaultPlan {
            seed: seed ^ 0xFA17,
            drop: f64::from(loss_pct) / 100.0,
            duplicate: f64::from(duplicate_pct) / 100.0,
            reorder_jitter,
            ..FaultPlan::default()
        };
        let mut w = World::new(n, shape, seed, plan);
        for (slot, &(issuer, steps)) in script.iter().enumerate() {
            let issuer = issuer % n;
            // extend what the issuer sees now, stale or not
            let mut parents = w.nodes[issuer].peer().heads();
            parents.truncate(2);
            let m = tx(parents, issuer as u64, slot as u64 + 1, slot as f32);
            let outcome = w.nodes[issuer].publish(m, &mut w.t);
            proptest::prop_assert_eq!(outcome, ReceiveOutcome::Accepted);
            // let the network run a little, rarely to the end
            for _ in 0..steps * 3 {
                w.step();
            }
        }
        w.drain();
        if loss_pct == 0 {
            proptest::prop_assert_eq!(w.unasked, 0, "a body nobody pushed or asked for");
            proptest::prop_assert!(w.settled(), "lossless dissemination left a gap");
        }
        let mut rounds = 0;
        while !w.settled() {
            rounds += 1;
            proptest::prop_assert!(rounds <= 64, "advertisement rounds did not converge");
            for node in w.nodes.iter_mut() {
                node.advertise_heads(&mut w.t);
            }
            w.drain();
        }
        let len = w.nodes[0].peer().len();
        proptest::prop_assert_eq!(len, script.len() + 1);
    }
}
