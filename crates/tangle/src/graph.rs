//! The append-only tangle DAG.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Identifier of a transaction inside one [`Tangle`] — its insertion index.
///
/// Because a transaction can only approve transactions that already exist,
/// insertion order is always a topological order of the DAG: every parent id
/// is strictly smaller than its child's id.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TxId(pub u32);

impl TxId {
    /// The index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for TxId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tx{}", self.0)
    }
}

/// A transaction in the tangle: a payload plus the parents it approves.
///
/// In the learning tangle the payload is a full set of model parameters
/// (paper §III: "each transaction consists of a full set of parameters for a
/// shared machine learning model").
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Transaction<P> {
    /// This transaction's id.
    pub id: TxId,
    /// Directly approved parent transactions (empty only for the genesis).
    /// Duplicates are collapsed at insertion ("two not necessarily distinct
    /// tips" — approving the same tip twice is a single edge).
    pub parents: Vec<TxId>,
    /// Issuing node (opaque to the ledger; used by analysis/attack tooling).
    pub issuer: u64,
    /// Simulation round or wall-clock slot in which this was published.
    pub round: u64,
    /// The carried payload.
    pub payload: P,
}

/// The payload-free structural identity of one transaction: everything
/// that determines ledger semantics (id, issuer, round, parent edges) and
/// nothing model-specific. Produced by [`Tangle::structure`]; ordinary
/// `==` on two views (or view vectors) is the conformance harness's
/// cross-executor comparison.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TxView {
    /// Transaction id (insertion index).
    pub id: u32,
    /// Issuing node (`u64::MAX` for the genesis).
    pub issuer: u64,
    /// Round / slot of publication.
    pub round: u64,
    /// Parent ids, sorted and deduplicated (as stored).
    pub parents: Vec<u32>,
}

/// Signature of one transaction's structural identity (id + parent set),
/// used to detect diverged histories without storing them. SplitMix64-style
/// avalanche fold — not cryptographic, but two replicas that restored from
/// different checkpoints will not collide in practice.
pub(crate) fn tx_sig(id: u32, parents: &[TxId]) -> u64 {
    let mut h = 0x243F_6A88_85A3_08D3u64 ^ u64::from(id);
    for p in parents {
        let mut z = h
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(p.0) << 1);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h = z ^ (z >> 31);
    }
    h
}

/// Fold one transaction's signature into a running whole-history
/// signature: `chain_sig(sig(first k txs), tx_k)` = sig of the first
/// `k + 1` txs. Two histories agree on a prefix iff their chained
/// signatures at that length agree (modulo 64-bit collisions) — unlike a
/// tail-only check, interior divergence cannot cancel out.
pub(crate) fn chain_sig(prev: u64, id: u32, parents: &[TxId]) -> u64 {
    let mut z = prev
        .wrapping_add(tx_sig(id, parents))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Errors returned when appending to the tangle.
#[derive(Debug, PartialEq, Eq)]
pub enum TxError {
    /// A parent id does not exist in this tangle.
    UnknownParent(TxId),
    /// A non-genesis transaction must approve at least one parent.
    NoParents,
    /// The tangle is full (`u32` id space exhausted).
    Full,
}

impl std::fmt::Display for TxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxError::UnknownParent(id) => write!(f, "unknown parent {id}"),
            TxError::NoParents => write!(f, "transaction approves no parents"),
            TxError::Full => write!(f, "tangle id space exhausted"),
        }
    }
}

impl std::error::Error for TxError {}

/// An append-only DAG ledger. `tangle.add(payload, parents)` publishes a
/// transaction approving `parents`; [`Tangle::tips`] are the transactions
/// not yet approved by anyone.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Tangle<P> {
    txs: Vec<Transaction<P>>,
    /// `approvers[i]` = ids of transactions directly approving `i`.
    approvers: Vec<Vec<TxId>>,
    /// Current tips, kept sorted for determinism.
    tips: BTreeSet<TxId>,
    /// `hist_sigs[i]` = chained signature of the first `i + 1`
    /// transactions (see [`chain_sig`]); lets [`Tangle::history_sig`]
    /// answer "is that cache's history a prefix of mine?" in O(1).
    hist_sigs: Vec<u64>,
}

impl<P> Tangle<P> {
    /// Create a tangle containing only the genesis transaction carrying
    /// `genesis_payload`.
    pub fn new(genesis_payload: P) -> Self {
        let genesis = Transaction {
            id: TxId(0),
            parents: Vec::new(),
            issuer: u64::MAX,
            round: 0,
            payload: genesis_payload,
        };
        let mut tips = BTreeSet::new();
        tips.insert(TxId(0));
        Self {
            txs: vec![genesis],
            approvers: vec![Vec::new()],
            tips,
            hist_sigs: vec![chain_sig(0, 0, &[])],
        }
    }

    /// The genesis transaction id (always `TxId(0)`).
    pub fn genesis(&self) -> TxId {
        TxId(0)
    }

    /// Number of transactions, including the genesis.
    pub fn len(&self) -> usize {
        self.txs.len()
    }

    /// Always `false`: a tangle at least contains its genesis.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Does `id` exist in this tangle?
    pub(crate) fn contains(&self, id: TxId) -> bool {
        id.index() < self.txs.len()
    }

    /// Borrow a transaction.
    ///
    /// # Panics
    /// Panics if `id` is unknown.
    pub fn get(&self, id: TxId) -> &Transaction<P> {
        &self.txs[id.index()]
    }

    /// All transactions in insertion (= topological) order.
    pub fn transactions(&self) -> &[Transaction<P>] {
        &self.txs
    }

    /// Ids of the transactions directly approving `id`.
    pub fn approvers(&self, id: TxId) -> &[TxId] {
        &self.approvers[id.index()]
    }

    /// Current tips (unapproved transactions) in ascending id order.
    pub fn tips(&self) -> Vec<TxId> {
        self.tips.iter().copied().collect()
    }

    /// Number of current tips.
    pub fn tip_count(&self) -> usize {
        self.tips.len()
    }

    /// Is `id` currently a tip?
    pub fn is_tip(&self, id: TxId) -> bool {
        self.tips.contains(&id)
    }

    /// Publish a transaction with default issuer/round metadata.
    pub fn add(&mut self, payload: P, parents: Vec<TxId>) -> Result<TxId, TxError> {
        self.add_meta(payload, parents, u64::MAX, 0)
    }

    /// Publish a transaction carrying `payload`, approving `parents`,
    /// issued by `issuer` during `round`.
    ///
    /// Duplicate parent ids are collapsed. Returns the new id.
    pub fn add_meta(
        &mut self,
        payload: P,
        parents: Vec<TxId>,
        issuer: u64,
        round: u64,
    ) -> Result<TxId, TxError> {
        if parents.is_empty() {
            return Err(TxError::NoParents);
        }
        for &p in &parents {
            if !self.contains(p) {
                return Err(TxError::UnknownParent(p));
            }
        }
        if self.txs.len() > u32::MAX as usize {
            return Err(TxError::Full);
        }
        let mut parents = parents;
        parents.sort_unstable();
        parents.dedup();
        let id = TxId(self.txs.len() as u32);
        for &p in &parents {
            self.approvers[p.index()].push(id);
            self.tips.remove(&p);
        }
        self.tips.insert(id);
        self.hist_sigs
            .push(chain_sig(*self.hist_sigs.last().unwrap(), id.0, &parents));
        self.txs.push(Transaction {
            id,
            parents,
            issuer,
            round,
            payload,
        });
        self.approvers.push(Vec::new());
        Ok(id)
    }

    /// Iterate over the past cone of `id` (its ancestors, excluding itself)
    /// in descending id order.
    pub fn past_cone(&self, id: TxId) -> Vec<TxId> {
        let mut seen = vec![false; self.txs.len()];
        let mut stack: Vec<TxId> = self.get(id).parents.clone();
        let mut out = Vec::new();
        while let Some(t) = stack.pop() {
            if seen[t.index()] {
                continue;
            }
            seen[t.index()] = true;
            out.push(t);
            stack.extend_from_slice(&self.get(t).parents);
        }
        out.sort_unstable_by(|a, b| b.cmp(a));
        out
    }

    /// Is `ancestor` directly or indirectly approved by `descendant`?
    pub fn approves(&self, descendant: TxId, ancestor: TxId) -> bool {
        if ancestor >= descendant {
            return false;
        }
        let mut seen = vec![false; self.txs.len()];
        let mut stack = vec![descendant];
        while let Some(t) = stack.pop() {
            for &p in &self.get(t).parents {
                if p == ancestor {
                    return true;
                }
                // ids are topological: no parent below `ancestor` can reach it
                if p > ancestor && !seen[p.index()] {
                    seen[p.index()] = true;
                    stack.push(p);
                }
            }
        }
        false
    }

    /// The tangle as it looked when it held only its first `len`
    /// transactions — a *stale view* of the ledger, as seen by a node whose
    /// network connection lags behind (every historical state of an
    /// append-only ledger is a prefix).
    ///
    /// # Panics
    /// Panics if `len` is zero or exceeds the current length.
    pub fn prefix(&self, len: usize) -> Tangle<P>
    where
        P: Clone,
    {
        assert!(
            len >= 1 && len <= self.txs.len(),
            "prefix length {len} out of range 1..={}",
            self.txs.len()
        );
        let txs: Vec<Transaction<P>> = self.txs[..len].to_vec();
        let mut approvers = vec![Vec::new(); len];
        let mut tips: BTreeSet<TxId> = (0..len as u32).map(TxId).collect();
        for tx in &txs {
            for &p in &tx.parents {
                approvers[p.index()].push(tx.id);
                tips.remove(&p);
            }
        }
        Tangle {
            txs,
            approvers,
            tips,
            hist_sigs: self.hist_sigs[..len].to_vec(),
        }
    }

    /// Chained signature of this ledger's first `len` transactions. Two
    /// tangles agree on their first `len` transactions (ids + parent
    /// edges) iff their signatures at `len` agree — the O(1) staleness
    /// check behind `AnalysisCache::validate`.
    ///
    /// # Panics
    /// Panics if `len` is zero or exceeds the current length.
    pub(crate) fn history_sig(&self, len: usize) -> u64 {
        assert!(
            len >= 1 && len <= self.txs.len(),
            "history length {len} out of range 1..={}",
            self.txs.len()
        );
        self.hist_sigs[len - 1]
    }

    /// The payload-free structural identity of this ledger: one
    /// [`TxView`] per transaction, in insertion (= topological) order.
    ///
    /// Two ledgers with equal views hold the same history regardless of
    /// payload type or how they were produced — this is the comparison
    /// key the conformance harness uses to check differential agreement
    /// between executors, and the input format of its abstract reference
    /// model (which replays structure without payloads).
    pub fn structure(&self) -> Vec<TxView> {
        self.txs
            .iter()
            .map(|t| TxView {
                id: t.id.0,
                issuer: t.issuer,
                round: t.round,
                parents: t.parents.iter().map(|p| p.0).collect(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn genesis_only() {
        let t = Tangle::new(0u8);
        assert_eq!(t.len(), 1);
        assert_eq!(t.tips(), vec![TxId(0)]);
        assert!(t.is_tip(t.genesis()));
        assert!(!t.is_empty());
    }

    #[test]
    fn add_updates_tips() {
        let mut t = Tangle::new(0u8);
        let a = t.add(1, vec![t.genesis()]).unwrap();
        assert_eq!(t.tips(), vec![a]);
        let b = t.add(2, vec![t.genesis()]).unwrap();
        // approving the genesis again does not resurrect it as a tip
        assert_eq!(t.tips(), vec![a, b]);
        let c = t.add(3, vec![a, b]).unwrap();
        assert_eq!(t.tips(), vec![c]);
        assert_eq!(t.approvers(t.genesis()), &[a, b]);
    }

    #[test]
    fn duplicate_parents_collapse() {
        let mut t = Tangle::new(0u8);
        let a = t.add(1, vec![t.genesis(), t.genesis()]).unwrap();
        assert_eq!(t.get(a).parents, vec![TxId(0)]);
        assert_eq!(t.approvers(t.genesis()).len(), 1);
    }

    #[test]
    fn unknown_parent_rejected() {
        let mut t = Tangle::new(0u8);
        assert_eq!(
            t.add(1, vec![TxId(5)]),
            Err(TxError::UnknownParent(TxId(5)))
        );
        assert_eq!(t.add(1, vec![]), Err(TxError::NoParents));
    }

    #[test]
    fn past_cone_and_approves() {
        let mut t = Tangle::new(0u8);
        let a = t.add(1, vec![t.genesis()]).unwrap();
        let b = t.add(2, vec![t.genesis()]).unwrap();
        let c = t.add(3, vec![a, b]).unwrap();
        let d = t.add(4, vec![c, b]).unwrap();
        assert_eq!(t.past_cone(d), vec![c, b, a, TxId(0)]);
        assert!(t.approves(d, t.genesis()));
        assert!(t.approves(c, a));
        assert!(!t.approves(a, b));
        assert!(!t.approves(a, d), "approval follows edge direction");
        assert!(!t.approves(a, a), "no self approval");
    }

    #[test]
    fn metadata_recorded() {
        let mut t = Tangle::new(0u8);
        let a = t.add_meta(1, vec![t.genesis()], 42, 7).unwrap();
        let tx = t.get(a);
        assert_eq!(tx.issuer, 42);
        assert_eq!(tx.round, 7);
    }

    #[test]
    fn ids_are_topological() {
        let mut t = Tangle::new(0u8);
        let mut prev = t.genesis();
        for i in 0..10 {
            prev = t.add(i, vec![prev]).unwrap();
        }
        for tx in t.transactions() {
            for p in &tx.parents {
                assert!(*p < tx.id);
            }
        }
    }

    #[test]
    fn prefix_replays_history() {
        let mut t = Tangle::new(0u8);
        let a = t.add(1, vec![t.genesis()]).unwrap();
        let snapshot_after_a = t.clone();
        let b = t.add(2, vec![t.genesis(), a]).unwrap();
        let _c = t.add(3, vec![b]).unwrap();
        let p = t.prefix(2);
        assert_eq!(p.len(), snapshot_after_a.len());
        assert_eq!(p.tips(), snapshot_after_a.tips());
        assert_eq!(
            p.approvers(t.genesis()),
            snapshot_after_a.approvers(t.genesis())
        );
        // full prefix equals the tangle itself
        let full = t.prefix(t.len());
        assert_eq!(full.tips(), t.tips());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn prefix_zero_rejected() {
        Tangle::new(0u8).prefix(0);
    }

    #[test]
    fn serde_roundtrip_preserves_ledger() {
        let mut t = Tangle::new(7u32);
        let a = t.add_meta(8, vec![t.genesis()], 1, 1).unwrap();
        let b = t.add_meta(9, vec![a, t.genesis()], 2, 2).unwrap();
        let json = serde_json::to_string(&t).unwrap();
        let r: Tangle<u32> = serde_json::from_str(&json).unwrap();
        assert_eq!(r.len(), t.len());
        assert_eq!(r.tips(), t.tips());
        assert_eq!(r.get(b).parents, t.get(b).parents);
        assert_eq!(r.get(a).payload, 8);
        assert_eq!(r.approvers(t.genesis()), t.approvers(t.genesis()));
    }
}
