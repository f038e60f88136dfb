//! A peer's local replica of the tangle.
//!
//! A [`Peer`] keeps every message it admitted, verbatim and in insertion
//! order, and that archive is also its crash-recovery checkpoint: the
//! `LTCP` version-2 image ([`Peer::checkpoint_bytes`]) is the archive
//! written out as a message list, and [`Peer::from_checkpoint`] is
//! [`Peer::new`] on the first message plus [`Peer::receive`] on the rest.
//! There is no second description of the ledger to keep in step with the
//! first, and a restore re-validates proof-of-work and payload checksums
//! exactly as a delivery does. Version-1 images are rejected as
//! `unsupported checkpoint version`; a checkpoint is scratch for the next
//! restart, not an archival format.
//!
//! A replica holds the payload a message decodes to through the message's
//! memo (`TxMessage::shared_params`), never a decode of its own: the
//! replicas of one process that admit clones of one message share one
//! `Arc<ParamVec>`, and the memo is checked against the message's fields
//! on every read, so a message whose payload was swapped after it was
//! hashed is decoded afresh (and refused as `Corrupt` if it fails its
//! checksum). A peer restored from checkpoint bytes decodes fresh messages
//! and so holds payloads of its own.

use crate::message::{ContentId, TxMessage};
use learning_tangle::node::ModelParams;
use learning_tangle::persist::PersistError;
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use tangle_ledger::{Tangle, TxId};
use tinynn::wire::Reader;

/// Default bound on the per-peer orphan buffer (see
/// [`Peer::with_orphan_cap`]).
pub const DEFAULT_ORPHAN_CAP: usize = 1024;

/// What happened when a peer processed an incoming message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReceiveOutcome {
    /// Inserted into the replica (possibly flushing buffered orphans).
    Accepted,
    /// Already known (replica or orphan buffer) — do not re-gossip.
    Duplicate,
    /// Parents missing; buffered until they arrive.
    OrphanBuffered,
    /// Proof-of-work below the required difficulty — dropped.
    InvalidPow,
    /// Payload failed checksum validation — dropped.
    Corrupt,
}

/// One network participant's view of the ledger.
pub struct Peer {
    /// Peer index (= the node id it trains as).
    pub id: usize,
    replica: Tangle<ModelParams>,
    /// content id → local transaction id.
    by_content: HashMap<ContentId, TxId>,
    /// local id → content id (for re-gossip and sync).
    content_of: Vec<ContentId>,
    /// Original wire messages in insertion order (index 0 = genesis),
    /// kept verbatim so sync re-sends byte-identical messages (content
    /// ids cover the PoW nonce).
    archive: Vec<TxMessage>,
    /// Messages waiting for missing parents, keyed by their own id.
    orphans: HashMap<ContentId, TxMessage>,
    /// Orphan arrival order: drives bounded eviction (oldest first). May
    /// hold stale ids of orphans that have since flushed; eviction skips
    /// ids absent from `orphans`.
    orphan_order: VecDeque<ContentId>,
    /// Parent not yet in the replica → the buffered orphans that name it,
    /// in arrival order: what an admission unblocks, found without
    /// scanning the buffer. Lists hold live orphans only (eviction
    /// removes its victim), so the keys are exactly the parents the
    /// buffer waits for.
    waiting_on: HashMap<ContentId, Vec<ContentId>>,
    /// Maximum buffered orphans before the oldest is evicted.
    orphan_cap: usize,
    /// Orphans evicted by the cap so far.
    evictions: u64,
    /// Parents referenced by buffered orphans that this peer has never
    /// seen — the pull targets of the repair protocol. Ordered so repair
    /// traffic is deterministic.
    missing: BTreeSet<ContentId>,
    /// Everything ever seen (replica + orphans), to suppress gossip loops.
    seen: HashSet<ContentId>,
    /// Required proof-of-work difficulty (0 = disabled).
    pow_difficulty: u32,
}

impl Peer {
    /// Create a peer whose replica starts from the shared genesis message.
    ///
    /// All peers must be constructed from the *same* genesis message so
    /// their content ids agree.
    pub fn new(id: usize, genesis: &TxMessage, pow_difficulty: u32) -> Self {
        let params = genesis
            .shared_params()
            .expect("genesis payload must be valid");
        let replica = Tangle::new(params);
        let gid = genesis.content_id();
        let mut by_content = HashMap::new();
        by_content.insert(gid, replica.genesis());
        let mut seen = HashSet::new();
        seen.insert(gid);
        Self {
            id,
            replica,
            by_content,
            content_of: vec![gid],
            archive: vec![genesis.clone()],
            orphans: HashMap::new(),
            orphan_order: VecDeque::new(),
            waiting_on: HashMap::new(),
            orphan_cap: DEFAULT_ORPHAN_CAP,
            evictions: 0,
            missing: BTreeSet::new(),
            seen,
            pow_difficulty,
        }
    }

    /// Bound the orphan buffer to `cap` entries (oldest evicted first; a
    /// cap of 0 means orphans are never buffered). Evicted transactions
    /// are forgotten entirely, so the repair protocol can re-fetch them.
    pub fn with_orphan_cap(mut self, cap: usize) -> Self {
        self.orphan_cap = cap;
        self
    }

    /// Restore a peer from checkpoint bytes produced by
    /// [`Peer::checkpoint_bytes`] by replaying them: the first message
    /// seeds [`Peer::new`], every further one goes through
    /// [`Peer::receive`] — the one admission path, so proof-of-work and
    /// payload checksums are re-validated — and must be `Accepted` there.
    /// Anything else (a duplicate, a parent that comes later, damage,
    /// trailing bytes, a count the bytes cannot back, a version-1 image)
    /// fails closed. The orphan buffer starts empty (an orphan is by
    /// definition not yet part of the ledger).
    pub fn from_checkpoint(
        id: usize,
        bytes: &[u8],
        pow_difficulty: u32,
        orphan_cap: usize,
    ) -> Result<Self, PersistError> {
        let mut r = Reader::new(bytes);
        if r.take(4) != Ok(&CHECKPOINT_MAGIC[..]) {
            return Err(PersistError::Malformed("bad checkpoint magic"));
        }
        if r.u8()? != CHECKPOINT_VERSION {
            return Err(PersistError::Malformed("unsupported checkpoint version"));
        }
        // Nothing is sized from `count`: it only bounds the replay loop,
        // and only after the bytes present could hold that many messages.
        let count = r
            .count(4 + MIN_MESSAGE_LEN)
            .map_err(|_| PersistError::Malformed("implausible message count"))?;
        if count == 0 {
            return Err(PersistError::Malformed("empty checkpoint"));
        }
        let genesis = next_message(&mut r)?;
        if !genesis.parents.is_empty() || genesis.shared_params().is_err() {
            return Err(PersistError::Malformed("invalid genesis message"));
        }
        let mut peer = Peer::new(id, &genesis, pow_difficulty).with_orphan_cap(orphan_cap);
        for _ in 1..count {
            if peer.receive(&next_message(&mut r)?) != ReceiveOutcome::Accepted {
                return Err(PersistError::Malformed("checkpoint message not admissible"));
            }
        }
        if r.remaining() != 0 {
            return Err(PersistError::Malformed("trailing checkpoint bytes"));
        }
        Ok(peer)
    }

    /// Serialize this peer's replica for crash recovery. A checkpoint *is*
    /// the archive: `b"LTCP"`, version 2, `count u32`, then per archived
    /// message in insertion order `len u32` + its [`TxMessage::encode`]
    /// bytes (the list layout of the `Archive` frame). The messages are
    /// the verbatim originals, so content ids, nonces and wire parent
    /// order survive without a second description of the ledger.
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        let body: usize = self.archive.iter().map(|m| 4 + m.encoded_len()).sum();
        let mut out = Vec::with_capacity(4 + 1 + 4 + body);
        out.extend_from_slice(CHECKPOINT_MAGIC);
        out.push(CHECKPOINT_VERSION);
        out.extend_from_slice(&(self.archive.len() as u32).to_le_bytes());
        for m in &self.archive {
            m.write_prefixed(&mut out);
        }
        out
    }

    /// This peer's current replica.
    pub fn replica(&self) -> &Tangle<ModelParams> {
        &self.replica
    }

    /// Number of transactions in the replica.
    pub fn len(&self) -> usize {
        self.replica.len()
    }

    /// Replicas always contain the genesis.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of buffered orphans.
    pub fn orphan_count(&self) -> usize {
        self.orphans.len()
    }

    /// The bound on buffered orphans (see [`Peer::with_orphan_cap`]).
    pub(crate) fn orphan_cap(&self) -> usize {
        self.orphan_cap
    }

    /// Orphans evicted by the buffer cap so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Parents referenced by buffered orphans that this peer has never
    /// seen — what the repair protocol should pull from neighbours.
    pub fn missing(&self) -> &BTreeSet<ContentId> {
        &self.missing
    }

    /// Content ids of the replica's current tips — the heads advertised
    /// to neighbours by the repair protocol.
    pub fn heads(&self) -> Vec<ContentId> {
        self.replica
            .tips()
            .into_iter()
            .map(|id| self.content_of[id.index()])
            .collect()
    }

    /// Content id of a local transaction.
    pub fn content_id_of(&self, id: TxId) -> ContentId {
        self.content_of[id.index()]
    }

    /// Local id of a content id, if present in the replica.
    pub fn lookup(&self, cid: ContentId) -> Option<TxId> {
        self.by_content.get(&cid).copied()
    }

    /// Does this peer know `cid` (replica or orphan buffer)?
    pub fn has_seen(&self, cid: ContentId) -> bool {
        self.seen.contains(&cid)
    }

    /// The verbatim wire message for `cid`, if this peer holds it in its
    /// replica archive or orphan buffer (served to repair requests).
    pub(crate) fn message_for(&self, cid: ContentId) -> Option<&TxMessage> {
        if let Some(id) = self.by_content.get(&cid) {
            return self.archive.get(id.index());
        }
        self.orphans.get(&cid)
    }

    /// All messages this peer can re-send during sync, in topological
    /// (insertion) order, skipping the genesis. These are the verbatim
    /// originals, so content ids (and proofs-of-work) survive.
    pub fn export_messages(&self) -> Vec<TxMessage> {
        self.archive[1..].to_vec()
    }

    /// Messages in this replica that are *not* ancestors of any of the
    /// advertised `heads` — i.e. what a neighbour advertising those heads
    /// is provably missing. Returned in insertion (topological) order.
    /// Heads unknown locally are ignored (the advertiser is ahead there;
    /// the pull side of the protocol handles that direction).
    pub(crate) fn delta_for(&self, heads: &[ContentId]) -> Vec<TxMessage> {
        let mut in_closure = vec![false; self.replica.len()];
        let mut stack: Vec<TxId> = heads
            .iter()
            .filter_map(|h| self.by_content.get(h).copied())
            .collect();
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut in_closure[id.index()], true) {
                continue;
            }
            stack.extend(self.replica.get(id).parents.iter().copied());
        }
        (1..self.replica.len())
            .filter(|&i| !in_closure[i])
            .map(|i| self.archive[i].clone())
            .collect()
    }

    /// Process an incoming message.
    pub fn receive(&mut self, msg: &TxMessage) -> ReceiveOutcome {
        self.admit(msg.content_id(), msg)
    }

    /// [`Peer::receive`] for a caller that already hashed the message
    /// (`cid` must be `msg.content_id()`): the protocol engine needs the
    /// id to announce the message and hashes the payload once.
    pub(crate) fn admit(&mut self, cid: ContentId, msg: &TxMessage) -> ReceiveOutcome {
        debug_assert_eq!(cid, msg.content_id());
        if self.seen.contains(&cid) {
            return ReceiveOutcome::Duplicate;
        }
        if self.pow_difficulty > 0 && !msg.verify_pow(self.pow_difficulty) {
            return ReceiveOutcome::InvalidPow;
        }
        let Ok(params) = msg.shared_params() else {
            return ReceiveOutcome::Corrupt;
        };
        self.seen.insert(cid);
        self.missing.remove(&cid);
        if msg.parents.iter().all(|p| self.by_content.contains_key(p)) {
            self.insert(cid, msg, params);
            self.flush_orphans(cid);
            ReceiveOutcome::Accepted
        } else {
            for p in &msg.parents {
                if self.by_content.contains_key(p) {
                    continue;
                }
                if !self.seen.contains(p) {
                    self.missing.insert(*p);
                }
                let waiting = self.waiting_on.entry(*p).or_default();
                // a parent named twice lists its child once
                if waiting.last() != Some(&cid) {
                    waiting.push(cid);
                }
            }
            self.orphans.insert(cid, msg.clone());
            self.orphan_order.push_back(cid);
            self.enforce_orphan_cap();
            ReceiveOutcome::OrphanBuffered
        }
    }

    /// Evict oldest orphans until the buffer respects the cap. Evicted
    /// entries are forgotten (removed from `seen` and from the lists of
    /// the parents they waited for) so a re-delivery or a repair re-fetch
    /// can buffer them again. Nothing here remembers them — neither
    /// [`Peer::missing`] nor a want-set — so an evicted transaction that no
    /// later one references (a final tip) comes back only through the
    /// settled head advertisement that the protocol engine arms on every
    /// admission ([`crate::protocol::NodeProtocol::tick`]).
    fn enforce_orphan_cap(&mut self) {
        let mut evicted = false;
        while self.orphans.len() > self.orphan_cap {
            let Some(victim) = self.orphan_order.pop_front() else {
                break;
            };
            let Some(msg) = self.orphans.remove(&victim) else {
                continue; // stale id of an already-flushed orphan
            };
            for p in &msg.parents {
                if let Some(waiting) = self.waiting_on.get_mut(p) {
                    waiting.retain(|c| *c != victim);
                    if waiting.is_empty() {
                        self.waiting_on.remove(p);
                    }
                }
            }
            self.seen.remove(&victim);
            self.evictions += 1;
            evicted = true;
        }
        if evicted {
            self.recompute_missing();
        }
    }

    /// Rebuild `missing` from the parents the surviving orphans wait for
    /// (eviction may both re-miss the victim and orphan references that
    /// only it held).
    fn recompute_missing(&mut self) {
        self.missing = self
            .waiting_on
            .keys()
            .filter(|p| !self.seen.contains(p))
            .copied()
            .collect();
    }

    /// The one place a transaction enters the replica; `params` is the
    /// message's shared payload, which `receive` validated.
    fn insert(&mut self, cid: ContentId, msg: &TxMessage, params: ModelParams) {
        let parents: Vec<TxId> = msg.parents.iter().map(|p| self.by_content[p]).collect();
        let local = self
            .replica
            .add_meta(params, parents, msg.issuer, msg.slot)
            .expect("parents resolved");
        self.by_content.insert(cid, local);
        self.content_of.push(cid);
        self.archive.push(msg.clone());
        debug_assert_eq!(self.content_of.len(), self.replica.len());
        debug_assert_eq!(self.archive.len(), self.replica.len());
    }

    /// Insert the orphans that the admission of `arrived` unblocks, then
    /// what those unblock in turn: breadth-first over `waiting_on`, each
    /// list in arrival order (deterministic across runs, unlike map
    /// iteration), touching only orphans that name an admitted parent.
    fn flush_orphans(&mut self, arrived: ContentId) {
        let mut admitted = VecDeque::from([arrived]);
        while let Some(parent) = admitted.pop_front() {
            for cid in self.waiting_on.remove(&parent).unwrap_or_default() {
                let ready = self
                    .orphans
                    .get(&cid)
                    .is_some_and(|m| m.parents.iter().all(|p| self.by_content.contains_key(p)));
                if !ready {
                    continue; // still listed under the parent it lacks
                }
                let msg = self.orphans.remove(&cid).expect("checked above");
                let params = msg.shared_params().expect("validated in receive");
                self.insert(cid, &msg, params);
                admitted.push_back(cid);
            }
        }
        // drop stale front entries so eviction targets live orphans
        while let Some(front) = self.orphan_order.front() {
            if self.orphans.contains_key(front) {
                break;
            }
            self.orphan_order.pop_front();
        }
    }
}

const CHECKPOINT_MAGIC: &[u8; 4] = b"LTCP";
const CHECKPOINT_VERSION: u8 = 2;
/// Encoded length of a message with no parents and an empty payload.
const MIN_MESSAGE_LEN: usize = 4 + 8 + 8 + 8 + 4;

/// The next `len u32` + [`TxMessage::encode`] entry of a checkpoint.
fn next_message(r: &mut Reader<'_>) -> Result<TxMessage, PersistError> {
    TxMessage::decode(r.len_prefixed()?)
        .ok_or(PersistError::Malformed("checkpoint message framing"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinynn::ParamVec;

    fn genesis() -> TxMessage {
        TxMessage::create(&ParamVec(vec![0.0, 0.0]), vec![], u64::MAX, 0, 0)
    }

    fn msg(parents: Vec<ContentId>, issuer: u64, v: f32) -> TxMessage {
        TxMessage::create(&ParamVec(vec![v, v]), parents, issuer, 0, 0)
    }

    #[test]
    fn in_order_insertion() {
        let g = genesis();
        let mut p = Peer::new(0, &g, 0);
        let a = msg(vec![g.content_id()], 1, 1.0);
        assert_eq!(p.receive(&a), ReceiveOutcome::Accepted);
        assert_eq!(p.len(), 2);
        assert_eq!(p.receive(&a), ReceiveOutcome::Duplicate);
        assert_eq!(p.len(), 2);
        assert_eq!(p.lookup(a.content_id()), Some(tangle_ledger::TxId(1)));
    }

    #[test]
    fn orphans_buffer_and_flush_transitively() {
        let g = genesis();
        let mut p = Peer::new(0, &g, 0);
        let a = msg(vec![g.content_id()], 1, 1.0);
        let b = msg(vec![a.content_id()], 2, 2.0);
        let c = msg(vec![b.content_id()], 3, 3.0);
        // deliver in reverse order
        assert_eq!(p.receive(&c), ReceiveOutcome::OrphanBuffered);
        assert_eq!(p.receive(&b), ReceiveOutcome::OrphanBuffered);
        assert_eq!(p.orphan_count(), 2);
        assert_eq!(p.len(), 1);
        // only `a` is truly missing — b is buffered, hence "seen"
        assert_eq!(p.missing().len(), 1);
        assert!(p.missing().contains(&a.content_id()));
        // the arrival of `a` flushes b then c
        assert_eq!(p.receive(&a), ReceiveOutcome::Accepted);
        assert_eq!(p.len(), 4);
        assert_eq!(p.orphan_count(), 0);
        assert!(p.missing().is_empty());
    }

    #[test]
    fn orphan_cap_evicts_oldest_and_allows_refetch() {
        let g = genesis();
        let mut p = Peer::new(0, &g, 0).with_orphan_cap(2);
        let a = msg(vec![g.content_id()], 1, 1.0);
        let b = msg(vec![a.content_id()], 2, 2.0);
        let c = msg(vec![a.content_id()], 3, 3.0);
        let d = msg(vec![a.content_id()], 4, 4.0);
        assert_eq!(p.receive(&b), ReceiveOutcome::OrphanBuffered);
        assert_eq!(p.receive(&c), ReceiveOutcome::OrphanBuffered);
        assert_eq!(p.receive(&d), ReceiveOutcome::OrphanBuffered);
        // b (oldest) was evicted and forgotten
        assert_eq!(p.orphan_count(), 2);
        assert_eq!(p.evictions(), 1);
        assert!(!p.has_seen(b.content_id()));
        // a re-delivery of b buffers it again (not a duplicate)
        assert_eq!(p.receive(&b), ReceiveOutcome::OrphanBuffered);
        assert_eq!(p.evictions(), 2, "re-buffering b evicts c in turn");
        // once `a` arrives, the surviving orphans flush
        assert_eq!(p.receive(&a), ReceiveOutcome::Accepted);
        assert_eq!(p.orphan_count(), 0);
        assert_eq!(p.len(), 4); // genesis, a, d, b (c was evicted)
    }

    #[test]
    fn orphan_chain_delivered_in_reverse_flushes_at_once() {
        let g = genesis();
        let mut p = Peer::new(0, &g, 0);
        let mut chain = vec![msg(vec![g.content_id()], 0, 0.5)];
        for i in 1..=200 {
            let parent = chain[i - 1].content_id();
            chain.push(msg(vec![parent], i as u64, i as f32));
        }
        for m in chain[1..].iter().rev() {
            assert_eq!(p.receive(m), ReceiveOutcome::OrphanBuffered);
        }
        assert_eq!(p.orphan_count(), 200);
        // each orphan is listed under its one parent, so the flush visits
        // every orphan once; only the chain's root is truly missing
        assert_eq!(p.waiting_on.len(), 200);
        assert!(p.waiting_on.values().all(|w| w.len() == 1));
        assert_eq!(p.missing().len(), 1);
        assert_eq!(p.receive(&chain[0]), ReceiveOutcome::Accepted);
        assert_eq!(p.len(), 202);
        assert_eq!(p.orphan_count(), 0);
        assert!(p.missing().is_empty());
        assert!(p.waiting_on.is_empty());
        assert!(p.orphan_order.is_empty());
        // admitted root first, parents before children
        for (i, m) in chain.iter().enumerate() {
            assert_eq!(p.lookup(m.content_id()), Some(TxId(i as u32 + 1)));
        }
    }

    #[test]
    fn orphan_evicted_then_redelivered_is_listed_once() {
        let g = genesis();
        let mut p = Peer::new(0, &g, 0).with_orphan_cap(1);
        let a = msg(vec![g.content_id()], 1, 1.0);
        let b = msg(vec![a.content_id()], 2, 2.0);
        let c = msg(vec![a.content_id(), b.content_id()], 3, 3.0);
        assert_eq!(p.receive(&c), ReceiveOutcome::OrphanBuffered);
        // b evicts c: nothing of c stays listed, and only b's parent is
        // missing (c's reference to b went with it)
        assert_eq!(p.receive(&b), ReceiveOutcome::OrphanBuffered);
        assert_eq!(p.evictions(), 1);
        assert_eq!(p.waiting_on.len(), 1);
        assert_eq!(p.waiting_on[&a.content_id()], [b.content_id()]);
        assert_eq!(
            p.missing().iter().copied().collect::<Vec<_>>(),
            [a.content_id()]
        );
        // c again evicts b in turn; c waits for a (missing) and b (missing
        // again, since the eviction forgot it)
        assert_eq!(p.receive(&c), ReceiveOutcome::OrphanBuffered);
        assert_eq!(p.waiting_on[&a.content_id()], [c.content_id()]);
        assert_eq!(p.waiting_on[&b.content_id()], [c.content_id()]);
        assert_eq!(p.missing().len(), 2);
        // a alone does not admit c; b after it does, exactly once
        assert_eq!(p.receive(&a), ReceiveOutcome::Accepted);
        assert_eq!(p.len(), 2);
        assert_eq!(p.receive(&b), ReceiveOutcome::Accepted);
        assert_eq!(p.len(), 4);
        assert_eq!(p.orphan_count(), 0);
        assert!(p.waiting_on.is_empty());
        assert!(p.missing().is_empty());
    }

    #[test]
    fn checkpoint_roundtrip_preserves_content_ids() {
        let g = genesis();
        let mut p = Peer::new(3, &g, 0);
        let a = msg(vec![g.content_id()], 1, 1.0);
        let b = msg(vec![a.content_id(), g.content_id()], 2, 2.0);
        p.receive(&a);
        p.receive(&b);
        let bytes = p.checkpoint_bytes();
        let r = Peer::from_checkpoint(3, &bytes, 0, 16).expect("valid checkpoint");
        assert_eq!(r.len(), 3);
        assert_eq!(r.content_id_of(TxId(0)), g.content_id());
        assert!(r.lookup(a.content_id()).is_some());
        assert!(r.lookup(b.content_id()).is_some());
        // the restored archive is byte-identical, so re-gossip still works
        for (x, y) in p.export_messages().iter().zip(r.export_messages()) {
            assert_eq!(x.encode(), y.encode());
        }
        // and a corrupted checkpoint is rejected, not trusted
        let mut bad = bytes.clone();
        let n = bad.len();
        bad[0] ^= 0x10; // magic
        assert!(Peer::from_checkpoint(3, &bad, 0, 16).is_err());
        assert!(Peer::from_checkpoint(3, &bytes[..n - 3], 0, 16).is_err());
    }

    #[test]
    fn heads_and_delta_drive_repair() {
        let g = genesis();
        let mut p = Peer::new(0, &g, 0);
        let a = msg(vec![g.content_id()], 1, 1.0);
        let b = msg(vec![a.content_id()], 2, 2.0);
        let c = msg(vec![g.content_id()], 3, 3.0);
        p.receive(&a);
        p.receive(&b);
        p.receive(&c);
        let heads = p.heads();
        assert!(heads.contains(&b.content_id()));
        assert!(heads.contains(&c.content_id()));
        // a neighbour advertising only `a` as head is missing b and c
        let delta = p.delta_for(&[a.content_id()]);
        let ids: Vec<ContentId> = delta.iter().map(|m| m.content_id()).collect();
        assert_eq!(ids, vec![b.content_id(), c.content_id()]);
        // advertising the full frontier yields nothing
        assert!(p.delta_for(&heads).is_empty());
        // an empty (genesis-only) advertiser gets everything
        assert_eq!(p.delta_for(&[g.content_id()]).len(), 3);
    }

    #[test]
    fn message_for_serves_archive_and_orphans() {
        let g = genesis();
        let mut p = Peer::new(0, &g, 0);
        let a = msg(vec![g.content_id()], 1, 1.0);
        let b = msg(vec![a.content_id()], 2, 2.0);
        p.receive(&b); // orphan
        assert!(p.message_for(b.content_id()).is_some());
        assert!(p.message_for(a.content_id()).is_none());
        p.receive(&a);
        assert!(p.message_for(a.content_id()).is_some());
        assert_eq!(
            p.message_for(g.content_id()).map(|m| m.content_id()),
            Some(g.content_id())
        );
    }

    #[test]
    fn pow_enforced_when_configured() {
        let g = TxMessage::create(&ParamVec(vec![0.0]), vec![], u64::MAX, 0, 8);
        let mut p = Peer::new(0, &g, 8);
        let mut weak = TxMessage::create(&ParamVec(vec![1.0]), vec![g.content_id()], 1, 0, 0);
        weak.nonce = 0;
        // nonce 0 almost surely fails difficulty 8; if it happens to pass,
        // the message is simply accepted — tolerate both but require that a
        // properly solved message always passes.
        let _ = p.receive(&weak);
        let strong = TxMessage::create(&ParamVec(vec![2.0]), vec![g.content_id()], 1, 0, 8);
        assert_eq!(p.receive(&strong), ReceiveOutcome::Accepted);
    }

    #[test]
    fn corrupt_payload_rejected() {
        let g = genesis();
        let mut p = Peer::new(0, &g, 0);
        let a = msg(vec![g.content_id()], 1, 1.0);
        let mut enc = a.encode().to_vec();
        let n = enc.len();
        enc[n - 6] ^= 0x11;
        let corrupted = TxMessage::decode(&enc).expect("framing intact");
        assert_eq!(p.receive(&corrupted), ReceiveOutcome::Corrupt);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn replicas_agree_on_content_ids() {
        let g = genesis();
        let mut p1 = Peer::new(0, &g, 0);
        let mut p2 = Peer::new(1, &g, 0);
        let a = msg(vec![g.content_id()], 1, 1.0);
        let b = msg(vec![a.content_id(), g.content_id()], 2, 2.0);
        p1.receive(&a);
        p1.receive(&b);
        p2.receive(&b); // out of order on p2
        p2.receive(&a);
        assert_eq!(p1.len(), p2.len());
        for i in 0..p1.len() {
            // replicas may insert in different orders; compare by content
            let cid = p1.content_id_of(tangle_ledger::TxId(i as u32));
            assert!(p2.lookup(cid).is_some(), "peer 2 missing {cid}");
        }
    }

    #[test]
    fn export_messages_reimport_elsewhere() {
        let g = genesis();
        let mut p1 = Peer::new(0, &g, 0);
        let a = msg(vec![g.content_id()], 1, 1.0);
        let b = msg(vec![a.content_id()], 2, 2.0);
        p1.receive(&a);
        p1.receive(&b);
        let mut p2 = Peer::new(1, &g, 0);
        for m in p1.export_messages() {
            p2.receive(&m);
        }
        assert_eq!(p2.len(), 3);
        assert!(p2.lookup(a.content_id()).is_some());
        assert!(p2.lookup(b.content_id()).is_some());
    }
}
