//! Memoized model evaluation for the round hot path.
//!
//! Algorithm 2 makes local validation the inner loop of everything: each
//! node evaluates the reference model, every sampled candidate tip
//! (§III-E), and — with `accuracy_bias` — every transaction in the ledger,
//! on its held-out data, every round. The same transactions are
//! re-evaluated by the same node across rounds with unchanged parameters
//! and unchanged validation data, so the loss/accuracy pair is a pure
//! function of `(transaction, node dataset)` — as long as the node's view
//! of history has not been replaced.
//!
//! [`EvalCache`] memoizes those pairs per node. Every entry is guarded by
//! the chained history signature (`Tangle::history_sig`) of the prefix
//! that determines the evaluated parameters: a hit is served only when the
//! stored signature matches the current view's, so a diverged or regrown
//! history (checkpoint restore, gossip repair in a different arrival
//! order) can never serve a stale loss. The signature covers ledger
//! *structure*, not payloads — a regrown replica can agree structurally
//! while carrying swapped payloads at the same local ids — so owners of
//! replica-backed caches (the gossip learner) additionally clear the
//! cache outright on crash/restore (see `Network::restarts`).
//!
//! [`ScratchPool`] removes the other fixed cost of `node_step`: instead of
//! rebuilding a fresh `Sequential` per node per round, workers check
//! models out of a shared pool and `ParamVec::assign_to` overwrites every
//! parameter before use (layers keep no other state between calls), so
//! reuse is bit-identical to rebuilding.
//!
//! Cache behaviour is observable through the `eval_cache.hits` /
//! `eval_cache.misses` / `eval_cache.evictions` /
//! `eval_cache.invalidations` counters — metrics registry only, never the
//! JSONL event stream, which stays byte-deterministic whatever the caches
//! hold.

use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};
use tangle_ledger::TxId;
use tinynn::Sequential;

/// Default per-node entry capacity. Sized for the experiment-scale runs
/// (thousands of transactions per ledger): one entry per transaction a
/// node has ever validated, plus reference combinations.
pub const DEFAULT_EVAL_CACHE_CAPACITY: usize = 8192;

/// High bit distinguishing hashed reference-set keys from plain
/// transaction-id keys (which keep bit 63 clear).
const REF_TAG: u64 = 1 << 63;

/// SplitMix64 finalizer (same avalanche as the ledger's signature fold).
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Cache key for one transaction's evaluation on one of the node's
/// datasets. `data_tag` discriminates the dataset (0 = clean local data,
/// 1 = poisoned replacement data) so a node that switches behaviour
/// mid-run cannot alias entries across datasets.
pub fn tx_key(id: TxId, data_tag: u64) -> u64 {
    u64::from(id.0) | (data_tag << 48)
}

/// Cache key for the averaged reference model built from `ids`. Hashed
/// (the id set is variable-length) and tagged into its own key space.
pub fn reference_key(ids: &[TxId], data_tag: u64) -> u64 {
    let mut h = 0x243F_6A88_85A3_08D3u64 ^ data_tag;
    for id in ids {
        h = splitmix(h ^ u64::from(id.0));
    }
    h | REF_TAG
}

#[derive(Clone, Copy)]
struct Entry {
    /// Chained history signature of the prefix that determines the
    /// evaluated parameters; a mismatch at probe time drops the entry.
    sig: u64,
    loss: f32,
    acc: f32,
    /// Last-touch tick for LRU eviction.
    tick: u64,
}

/// A per-node memo of `(transaction / reference) → (loss, accuracy)` on
/// that node's held-out data, guarded by history signatures and bounded
/// by LRU eviction. See the module docs for the invalidation rule.
pub struct EvalCache {
    entries: HashMap<u64, Entry>,
    cap: usize,
    tick: u64,
}

impl EvalCache {
    /// An empty cache holding at most `cap` entries.
    pub fn new(cap: usize) -> Self {
        Self {
            entries: HashMap::new(),
            cap: cap.max(1),
            tick: 0,
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Probe for `key` under history signature `sig`.
    ///
    /// A stored entry whose signature differs from `sig` belongs to a
    /// replaced history: it is dropped (counted under
    /// `eval_cache.invalidations`) and the probe is a miss. Hits refresh
    /// the entry's LRU tick.
    pub fn get(
        &mut self,
        key: u64,
        sig: u64,
        telemetry: &lt_telemetry::Telemetry,
    ) -> Option<(f32, f32)> {
        match self.entries.get_mut(&key) {
            Some(e) if e.sig == sig => {
                self.tick += 1;
                e.tick = self.tick;
                telemetry.count("eval_cache.hits", 1);
                Some((e.loss, e.acc))
            }
            Some(_) => {
                self.entries.remove(&key);
                telemetry.count("eval_cache.invalidations", 1);
                telemetry.count("eval_cache.misses", 1);
                None
            }
            None => {
                telemetry.count("eval_cache.misses", 1);
                None
            }
        }
    }

    /// Store `(loss, acc)` for `key` under history signature `sig`,
    /// evicting the least-recently-used eighth of the cache when full
    /// (batch eviction keeps the amortized cost O(1) without an intrusive
    /// LRU list; the order is deterministic, by tick).
    pub fn insert(
        &mut self,
        key: u64,
        sig: u64,
        loss: f32,
        acc: f32,
        telemetry: &lt_telemetry::Telemetry,
    ) {
        if self.entries.len() >= self.cap && !self.entries.contains_key(&key) {
            let mut by_age: Vec<(u64, u64)> =
                self.entries.iter().map(|(&k, e)| (e.tick, k)).collect();
            by_age.sort_unstable();
            let drop = (self.cap / 8).max(1);
            for &(_, k) in by_age.iter().take(drop) {
                self.entries.remove(&k);
            }
            telemetry.count("eval_cache.evictions", drop as u64);
        }
        self.tick += 1;
        self.entries.insert(
            key,
            Entry {
                sig,
                loss,
                acc,
                tick: self.tick,
            },
        );
    }

    /// Drop every entry — the owner knows the backing history was replaced
    /// wholesale (e.g. a gossip peer crashed and restored). Counted under
    /// `eval_cache.invalidations`, one per dropped entry.
    pub fn invalidate_all(&mut self, telemetry: &lt_telemetry::Telemetry) {
        let n = self.entries.len();
        if n > 0 {
            telemetry.count("eval_cache.invalidations", n as u64);
        }
        self.entries.clear();
    }
}

/// Maximum idle models retained by a [`ScratchPool`]; beyond the worker
/// count there is nothing to reuse.
const MAX_POOLED: usize = 64;

/// A shared pool of scratch [`Sequential`] models of one architecture.
///
/// `node_step` needs a mutable model to evaluate candidates and train on,
/// but every use starts with `ParamVec::assign_to`, which overwrites all
/// parameters — and layers carry no other state between calls (forward
/// activations live in explicit per-call caches). Checking a model out of
/// the pool is therefore bit-identical to building a fresh one, at zero
/// allocation cost after warm-up.
pub struct ScratchPool<'a> {
    build: Box<dyn Fn() -> Sequential + Sync + 'a>,
    free: Mutex<Vec<Sequential>>,
}

impl<'a> ScratchPool<'a> {
    /// A pool that manufactures models with `build` on demand.
    pub fn new(build: Box<dyn Fn() -> Sequential + Sync + 'a>) -> Self {
        Self {
            build,
            free: Mutex::new(Vec::new()),
        }
    }

    /// Construct a model outside the pool (for callers that need the raw
    /// architecture, e.g. dataset-wide evaluation helpers).
    pub fn fresh(&self) -> Sequential {
        (self.build)()
    }

    /// Check a scratch model out (reused if available, built otherwise).
    /// Callers must assign parameters before use.
    pub fn take(&self) -> Sequential {
        self.free
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop()
            .unwrap_or_else(|| (self.build)())
    }

    /// Return a model to the pool.
    pub fn put(&self, model: Sequential) {
        let mut free = self.free.lock().unwrap_or_else(PoisonError::into_inner);
        if free.len() < MAX_POOLED {
            free.push(model);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_telemetry::Telemetry;

    fn tel() -> Telemetry {
        Telemetry::new(lt_telemetry::NoopSink)
    }

    #[test]
    fn hit_after_insert_and_counters() {
        let tel = tel();
        let mut c = EvalCache::new(16);
        let key = tx_key(TxId(3), 0);
        assert_eq!(c.get(key, 77, &tel), None);
        c.insert(key, 77, 0.5, 0.9, &tel);
        assert_eq!(c.get(key, 77, &tel), Some((0.5, 0.9)));
        assert_eq!(tel.counter_value("eval_cache.hits"), 1);
        assert_eq!(tel.counter_value("eval_cache.misses"), 1);
    }

    #[test]
    fn signature_mismatch_invalidates() {
        let tel = tel();
        let mut c = EvalCache::new(16);
        let key = tx_key(TxId(3), 0);
        c.insert(key, 77, 0.5, 0.9, &tel);
        // Same key, different history: the entry must die, not be served.
        assert_eq!(c.get(key, 78, &tel), None);
        assert_eq!(tel.counter_value("eval_cache.invalidations"), 1);
        // And it is really gone, even for the original signature.
        assert_eq!(c.get(key, 77, &tel), None);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let tel = tel();
        let mut c = EvalCache::new(8);
        for i in 0..8u32 {
            c.insert(tx_key(TxId(i), 0), 1, i as f32, 0.0, &tel);
        }
        // Touch entry 0 so it is the most recently used.
        assert!(c.get(tx_key(TxId(0), 0), 1, &tel).is_some());
        c.insert(tx_key(TxId(99), 0), 1, 9.0, 0.0, &tel);
        assert_eq!(tel.counter_value("eval_cache.evictions"), 1);
        assert!(c.len() <= 8);
        // The freshly touched entry survived; the oldest (1) did not.
        assert!(c.get(tx_key(TxId(0), 0), 1, &tel).is_some());
        assert!(c.get(tx_key(TxId(1), 0), 1, &tel).is_none());
    }

    #[test]
    fn invalidate_all_clears_and_counts() {
        let tel = tel();
        let mut c = EvalCache::new(16);
        c.insert(tx_key(TxId(1), 0), 1, 0.1, 0.2, &tel);
        c.insert(tx_key(TxId(2), 0), 1, 0.3, 0.4, &tel);
        c.invalidate_all(&tel);
        assert!(c.is_empty());
        assert_eq!(tel.counter_value("eval_cache.invalidations"), 2);
    }

    #[test]
    fn key_spaces_are_disjoint() {
        // Transaction keys keep bit 63 clear; reference keys set it.
        assert_eq!(tx_key(TxId(u32::MAX), 1) >> 63, 0);
        assert_eq!(reference_key(&[TxId(0)], 0) >> 63, 1);
        // Dataset tags separate entries for the same transaction.
        assert_ne!(tx_key(TxId(5), 0), tx_key(TxId(5), 1));
        assert_ne!(
            reference_key(&[TxId(1), TxId(2)], 0),
            reference_key(&[TxId(2), TxId(1)], 0),
            "reference keys are order-sensitive (choose_reference output is ranked)"
        );
    }

    #[test]
    fn scratch_pool_reuses_models() {
        let mut built = 0usize;
        let counter = std::sync::Mutex::new(&mut built);
        // Count constructions through a side channel.
        let pool = ScratchPool::new(Box::new(|| {
            **counter.lock().unwrap() += 1;
            tinynn::zoo::mlp(4, &[3], 2, &mut tinynn::rng::seeded(1))
        }));
        let a = pool.take();
        pool.put(a);
        let _b = pool.take(); // reused, not rebuilt
        drop(pool);
        assert_eq!(built, 1);
    }
}
