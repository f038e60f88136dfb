//! Read-only access to a tangle, and zero-copy prefix views.
//!
//! [`TangleRead`] abstracts the read surface that analysis, tip selection,
//! and the learning round logic need, so they can run either over a full
//! [`Tangle`] or over a [`TangleView`] — a borrowed, length-bounded view of
//! a tangle's prefix. The view replaces the `Tangle::prefix` clone on the
//! delayed-network hot path: where `prefix(len)` copies `len` transactions
//! (including full model payloads) per node per round, `TangleView::new`
//! is O(1) and reads through to the base ledger.

use crate::graph::{Tangle, Transaction, TxId};

/// Read-only view of an append-only tangle: everything consensus analysis
/// and tip selection need, with no mutation surface.
///
/// Implemented by [`Tangle`] itself (the whole ledger) and by
/// [`TangleView`] (a length-bounded borrowed prefix). Generic consumers —
/// the weight/rating/depth DPs, the random walks, `AnalysisCache`,
/// `TangleAnalysis` — take `T: TangleRead` so the same code serves both.
pub trait TangleRead {
    /// The transaction payload type.
    type Payload;

    /// Number of transactions, including the genesis.
    fn len(&self) -> usize;

    /// Always `false`: a tangle at least contains its genesis.
    fn is_empty(&self) -> bool {
        false
    }

    /// The genesis transaction id (always `TxId(0)`).
    fn genesis(&self) -> TxId {
        TxId(0)
    }

    /// Does `id` exist in this view?
    fn contains(&self, id: TxId) -> bool {
        id.index() < self.len()
    }

    /// Borrow a transaction.
    ///
    /// # Panics
    /// Panics if `id` is outside this view.
    fn get(&self, id: TxId) -> &Transaction<Self::Payload>;

    /// All transactions in insertion (= topological) order.
    fn transactions(&self) -> &[Transaction<Self::Payload>];

    /// Ids of the transactions directly approving `id`, ascending.
    fn approvers(&self, id: TxId) -> &[TxId];

    /// Current tips (unapproved transactions) in ascending id order.
    fn tips(&self) -> Vec<TxId>;

    /// Number of current tips.
    fn tip_count(&self) -> usize;

    /// Is `id` currently a tip?
    fn is_tip(&self, id: TxId) -> bool;

    /// Chained signature of the first `len` transactions (see
    /// `Tangle::history_sig`). A prefix view shares its base ledger's
    /// signature chain, so signatures taken through a view remain valid
    /// against the full ledger.
    ///
    /// # Panics
    /// Panics if `len` is zero or exceeds this view's length.
    fn history_sig(&self, len: usize) -> u64;

    /// The past cone of `id` (its ancestors, excluding itself) in
    /// descending id order.
    fn past_cone(&self, id: TxId) -> Vec<TxId> {
        let mut seen = vec![false; self.len()];
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
}

impl<P> TangleRead for Tangle<P> {
    type Payload = P;

    fn len(&self) -> usize {
        Tangle::len(self)
    }

    fn get(&self, id: TxId) -> &Transaction<P> {
        Tangle::get(self, id)
    }

    fn transactions(&self) -> &[Transaction<P>] {
        Tangle::transactions(self)
    }

    fn approvers(&self, id: TxId) -> &[TxId] {
        Tangle::approvers(self, id)
    }

    fn tips(&self) -> Vec<TxId> {
        Tangle::tips(self)
    }

    fn tip_count(&self) -> usize {
        Tangle::tip_count(self)
    }

    fn is_tip(&self, id: TxId) -> bool {
        Tangle::is_tip(self, id)
    }

    fn history_sig(&self, len: usize) -> u64 {
        Tangle::history_sig(self, len)
    }

    fn past_cone(&self, id: TxId) -> Vec<TxId> {
        Tangle::past_cone(self, id)
    }
}

/// A borrowed, zero-copy view of a tangle's first `len` transactions — the
/// ledger as it looked at an earlier point in time (every historical state
/// of an append-only ledger is a prefix).
///
/// Construction is O(1): no transactions, payloads, or approver lists are
/// copied. Approver lists are truncated lazily — they are pushed in
/// ascending child-id order by `Tangle::add_meta`, so the members visible
/// to this view are exactly a `partition_point` prefix of each list — and
/// tips fall out of the truncation (a transaction is a tip of the prefix
/// iff it has no approver below `len`).
///
/// This replaces `Tangle::prefix` (an O(len) deep clone including model
/// payloads) on the delayed-network round hot path; `prefix` remains for
/// callers that need an owned ledger.
pub struct TangleView<'a, P> {
    base: &'a Tangle<P>,
    len: usize,
}

impl<'a, P> TangleView<'a, P> {
    /// View the first `len` transactions of `base`.
    ///
    /// # Panics
    /// Panics if `len` is zero or exceeds the base tangle's length.
    pub fn new(base: &'a Tangle<P>, len: usize) -> Self {
        assert!(
            len >= 1 && len <= Tangle::len(base),
            "view length {len} out of range 1..={}",
            Tangle::len(base)
        );
        Self { base, len }
    }
}

impl<'a, P> Clone for TangleView<'a, P> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<'a, P> Copy for TangleView<'a, P> {}

impl<'a, P> TangleRead for TangleView<'a, P> {
    type Payload = P;

    fn len(&self) -> usize {
        self.len
    }

    fn get(&self, id: TxId) -> &Transaction<P> {
        assert!(
            id.index() < self.len,
            "{id} outside view of length {}",
            self.len
        );
        self.base.get(id)
    }

    fn transactions(&self) -> &[Transaction<P>] {
        &Tangle::transactions(self.base)[..self.len]
    }

    fn approvers(&self, id: TxId) -> &[TxId] {
        assert!(
            id.index() < self.len,
            "{id} outside view of length {}",
            self.len
        );
        let all = self.base.approvers(id);
        // Approver lists are ascending by construction: the visible members
        // are exactly the prefix below the view boundary.
        &all[..all.partition_point(|a| a.index() < self.len)]
    }

    fn tips(&self) -> Vec<TxId> {
        (0..self.len as u32)
            .map(TxId)
            .filter(|&id| TangleRead::is_tip(self, id))
            .collect()
    }

    fn tip_count(&self) -> usize {
        (0..self.len as u32)
            .map(TxId)
            .filter(|&id| TangleRead::is_tip(self, id))
            .count()
    }

    fn is_tip(&self, id: TxId) -> bool {
        id.index() < self.len && TangleRead::approvers(self, id).is_empty()
    }

    fn history_sig(&self, len: usize) -> u64 {
        assert!(
            len >= 1 && len <= self.len,
            "history length {len} out of range 1..={}",
            self.len
        );
        self.base.history_sig(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt as _;
    use rand::SeedableRng;

    /// A pseudo-random tangle: each tx approves 1–2 earlier txs.
    fn random_tangle(n: usize, seed: u64) -> Tangle<u32> {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut t = Tangle::new(0u32);
        for i in 1..n {
            let a = TxId(rng.random_range(0..i as u32));
            let b = TxId(rng.random_range(0..i as u32));
            t.add(i as u32, vec![a, b]).unwrap();
        }
        t
    }

    #[test]
    fn view_matches_prefix_clone_at_every_length() {
        let t = random_tangle(40, 11);
        for len in 1..=t.len() {
            let cloned = t.prefix(len);
            let view = TangleView::new(&t, len);
            assert_eq!(TangleRead::len(&view), cloned.len());
            assert_eq!(TangleRead::tips(&view), cloned.tips(), "len {len}");
            assert_eq!(TangleRead::tip_count(&view), cloned.tip_count());
            for i in 0..len as u32 {
                let id = TxId(i);
                assert_eq!(
                    TangleRead::approvers(&view, id),
                    cloned.approvers(id),
                    "approvers of {id} at len {len}"
                );
                assert_eq!(TangleRead::is_tip(&view, id), cloned.is_tip(id));
                assert_eq!(
                    TangleRead::past_cone(&view, id),
                    cloned.past_cone(id),
                    "past cone of {id} at len {len}"
                );
            }
            assert_eq!(TangleRead::history_sig(&view, len), cloned.history_sig(len));
        }
    }

    #[test]
    fn view_shares_the_base_signature_chain() {
        let t = random_tangle(20, 3);
        let view = TangleView::new(&t, 10);
        for k in 1..=10 {
            assert_eq!(TangleRead::history_sig(&view, k), t.history_sig(k));
        }
    }

    #[test]
    fn full_view_equals_the_tangle() {
        let t = random_tangle(25, 7);
        let view = TangleView::new(&t, t.len());
        assert_eq!(TangleRead::len(&view), t.len());
        assert_eq!(TangleRead::tips(&view), t.tips());
        assert_eq!(TangleRead::transactions(&view).len(), t.len());
    }

    #[test]
    fn view_is_zero_copy_for_payload_reads() {
        let t = random_tangle(10, 5);
        let view = TangleView::new(&t, 6);
        // Same allocation: the view reads through to the base ledger.
        assert!(std::ptr::eq(
            TangleRead::get(&view, TxId(3)),
            Tangle::get(&t, TxId(3))
        ));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_length_view_rejected() {
        let t = Tangle::new(0u8);
        TangleView::new(&t, 0);
    }

    #[test]
    #[should_panic(expected = "outside view")]
    fn reads_beyond_the_view_boundary_panic() {
        let t = random_tangle(10, 9);
        let view = TangleView::new(&t, 4);
        TangleRead::get(&view, TxId(7));
    }
}
