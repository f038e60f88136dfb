//! Memoized candidate evaluation for the round hot path.
//!
//! Algorithm 2 makes local validation the inner loop: each node scores the
//! reference model and every sampled candidate tip (§III-E) — and, with
//! `accuracy_bias`, every transaction in the ledger — on its held-out
//! data. A transaction's payload never changes and neither does the
//! node's data, so the loss/accuracy pair is a pure function of
//! `(transaction, dataset)`.
//!
//! [`EvalCache`] memoizes those pairs, keyed by transaction id and data
//! tag. An id names one transaction only as long as the ledger it indexes
//! lives, so the memo must not outlive it: a `Simulation` node keeps one
//! for the whole run (its `Tangle` only ever appends, and a `TangleView`
//! is a prefix of that same ledger), while a gossip activation starts
//! from an empty one (a replica can be replaced wholesale on restart).
//! The reference model is an average of a ranked id set that rarely
//! repeats, so it is never memoized.
//!
//! A miss costs one in-place evaluation: `Sequential::evaluate_params`
//! reads the transaction's payload where the ledger holds it, under the
//! one architecture every worker shares, so no model is built, checked
//! out or loaded per evaluation.
//!
//! Cache behaviour is observable through the `eval_cache.hits` /
//! `eval_cache.misses` counters — metrics registry only, never the JSONL
//! event stream, which stays byte-deterministic whatever the memo holds.

use rayon::prelude::*;
use std::collections::HashMap;
use tangle_ledger::TxId;

/// One node's memo of `(transaction, data tag) → (loss, accuracy)`. The
/// data tag discriminates the node's datasets (0 = clean local data,
/// 1 = poisoned replacement data), so a node that switches behaviour
/// mid-run cannot alias entries across them.
#[derive(Default)]
pub struct EvalCache {
    entries: HashMap<(TxId, u64), (f32, f32)>,
}

impl EvalCache {
    /// `(loss, accuracy)` of every transaction in `ids` on the dataset
    /// tagged `data_tag`, in the order of `ids`. Memoized pairs are
    /// served; the rest are computed by `eval` in parallel (evaluation
    /// draws no randomness, so the split cannot perturb the run) and
    /// memoized. Counts the batch's hits and misses once each.
    pub(crate) fn evaluate(
        &mut self,
        ids: &[TxId],
        data_tag: u64,
        eval: impl Fn(TxId) -> (f32, f32) + Sync,
        telemetry: &lt_telemetry::Telemetry,
    ) -> Vec<(f32, f32)> {
        let mut evals = vec![(0.0f32, 0.0f32); ids.len()];
        let mut misses: Vec<usize> = Vec::new();
        for (slot, &id) in ids.iter().enumerate() {
            match self.entries.get(&(id, data_tag)) {
                Some(&e) => evals[slot] = e,
                None => misses.push(slot),
            }
        }
        telemetry.count("eval_cache.hits", (ids.len() - misses.len()) as u64);
        telemetry.count("eval_cache.misses", misses.len() as u64);
        let computed: Vec<(f32, f32)> = misses.par_iter().map(|&slot| eval(ids[slot])).collect();
        for (&slot, &e) in misses.iter().zip(&computed) {
            self.entries.insert((ids[slot], data_tag), e);
            evals[slot] = e;
        }
        evals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_telemetry::Telemetry;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tel() -> Telemetry {
        Telemetry::new(lt_telemetry::NoopSink)
    }

    #[test]
    fn hit_after_insert_and_counters() {
        let tel = tel();
        let calls = AtomicU64::new(0);
        let eval = |id: TxId| {
            calls.fetch_add(1, Ordering::Relaxed);
            (id.0 as f32, 0.5)
        };
        let mut c = EvalCache::default();
        let ids = [TxId(3), TxId(1), TxId(3)];
        assert_eq!(
            c.evaluate(&ids[..2], 0, eval, &tel),
            vec![(3.0, 0.5), (1.0, 0.5)]
        );
        assert_eq!(
            c.evaluate(&ids, 0, eval, &tel),
            vec![(3.0, 0.5), (1.0, 0.5), (3.0, 0.5)]
        );
        assert_eq!(
            calls.load(Ordering::Relaxed),
            2,
            "each pair is computed once"
        );
        assert_eq!(tel.counter_value("eval_cache.hits"), 3);
        assert_eq!(tel.counter_value("eval_cache.misses"), 2);
    }

    #[test]
    fn data_tags_separate_entries() {
        // The same transaction scored on the node's clean and poisoned
        // data are two entries, never one.
        let tel = tel();
        let mut c = EvalCache::default();
        c.evaluate(&[TxId(5)], 0, |_| (0.1, 0.9), &tel);
        assert_eq!(
            c.evaluate(&[TxId(5)], 1, |_| (0.7, 0.2), &tel),
            vec![(0.7, 0.2)]
        );
        assert_eq!(
            c.evaluate(&[TxId(5)], 0, |_| unreachable!(), &tel),
            vec![(0.1, 0.9)]
        );
        assert_eq!(tel.counter_value("eval_cache.misses"), 2);
    }
}
