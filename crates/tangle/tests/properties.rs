//! Property-based tests of the ledger substrate.

use proptest::prelude::*;
use rand::SeedableRng;
use tangle_ledger::analysis::{cumulative_weights, depths, ratings, TangleAnalysis};
use tangle_ledger::walk::RandomWalk;
use tangle_ledger::{AnalysisCache, Tangle, TangleRead, TangleView, TxId};

use lt_conformance::gen::tangle_from_script;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any walk configuration always terminates at a tip, and every tip
    /// draw, plain, windowed or biased, is one — with weights and depths
    /// from the analysis cache, as production reads them.
    #[test]
    fn walks_end_at_tips(
        script in prop::collection::vec((any::<u8>(), any::<u8>()), 0..40),
        alpha in 0.0f64..10.0,
        bias in prop::collection::vec(-20.0f64..20.0, 41),
        seed in any::<u64>(),
    ) {
        let t = tangle_from_script(&script);
        let cache = AnalysisCache::new(&t);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let walk = RandomWalk::new(alpha);
        let tip = walk.select_tip_with_weights(&t, cache.weights(), &mut rng);
        prop_assert!(t.is_tip(tip));
        let tip2 = walk.table(&t, cache.weights()).draw_tip(&mut rng);
        prop_assert!(t.is_tip(tip2));
        let windowed = walk.windowed_table(&t, cache.weights(), cache.depths(), 2);
        prop_assert!(t.is_tip(windowed.draw_tip(&mut rng)));
        let biased = walk.biased_table(&t, cache.weights(), &bias[..t.len()]);
        prop_assert!(t.is_tip(biased.draw_tip(&mut rng)));
    }

    /// Confidence values are probabilities, the genesis has confidence 1,
    /// and flow conservation holds: every walk that visits a transaction
    /// entered through one of its parents, so a child's confidence cannot
    /// exceed the *sum* of its parents' confidences (it can exceed each
    /// individual parent when walk paths merge).
    #[test]
    fn confidence_properties(
        script in prop::collection::vec((any::<u8>(), any::<u8>()), 1..30),
        seed in any::<u64>(),
    ) {
        let t = tangle_from_script(&script);
        let analysis = TangleAnalysis::compute(&t);
        let walk = RandomWalk::new(0.2).table(&t, &analysis.cumulative_weight);
        let conf = walk.walk_confidence(&t, 48, seed);
        prop_assert!((conf[0] - 1.0).abs() < 1e-6);
        for c in &conf {
            prop_assert!((0.0..=1.0).contains(c));
        }
        for tx in t.transactions().iter().skip(1) {
            let parent_sum: f32 = tx.parents.iter().map(|p| conf[p.index()]).sum();
            prop_assert!(
                conf[tx.id.index()] <= parent_sum + 1e-5,
                "child {} more confident than its parents combined",
                tx.id
            );
        }
    }

    /// Cumulative weight is monotone along approval edges: a parent's
    /// weight strictly exceeds any single child's contribution and is at
    /// least child_weight + ... well, at least as large as any child's.
    #[test]
    fn cumulative_weight_monotone(script in prop::collection::vec((any::<u8>(), any::<u8>()), 1..40)) {
        let t = tangle_from_script(&script);
        let w = cumulative_weights(&t);
        for tx in t.transactions() {
            for p in &tx.parents {
                prop_assert!(
                    w[p.index()] > w[tx.id.index()] - 1,
                    "parent weight must dominate child"
                );
                prop_assert!(w[p.index()] >= w[tx.id.index()] + 1 - 1); // >= child
            }
        }
        // every weight at least 1 (own weight)
        prop_assert!(w.iter().all(|&x| x >= 1));
    }

    /// Ratings are monotone the other way: children approve strictly more.
    #[test]
    fn rating_monotone(script in prop::collection::vec((any::<u8>(), any::<u8>()), 1..40)) {
        let t = tangle_from_script(&script);
        let r = ratings(&t);
        for tx in t.transactions() {
            for p in &tx.parents {
                prop_assert!(r[tx.id.index()] > r[p.index()]);
            }
        }
    }

    /// Depth is 0 exactly at tips and parents are strictly deeper.
    #[test]
    fn depth_properties(script in prop::collection::vec((any::<u8>(), any::<u8>()), 0..40)) {
        let t = tangle_from_script(&script);
        let d = depths(&t);
        for tx in t.transactions() {
            if t.is_tip(tx.id) {
                prop_assert_eq!(d[tx.id.index()], 0);
            } else {
                prop_assert!(d[tx.id.index()] > 0);
            }
            for p in &tx.parents {
                prop_assert!(d[p.index()] > d[tx.id.index()]);
            }
        }
    }

    /// `prefix(k)` equals the tangle that existed after `k` insertions.
    #[test]
    fn prefix_equals_history(script in prop::collection::vec((any::<u8>(), any::<u8>()), 1..30), k in 1usize..31) {
        let t = tangle_from_script(&script);
        let k = k.min(t.len());
        let p = t.prefix(k);
        // rebuild directly
        let q = tangle_from_script(&script[..k - 1]);
        prop_assert_eq!(p.len(), q.len());
        prop_assert_eq!(p.tips(), q.tips());
        for i in 0..k {
            let id = TxId(i as u32);
            prop_assert_eq!(&p.get(id).parents, &q.get(id).parents);
            prop_assert_eq!(p.approvers(id), q.approvers(id));
        }
    }

    /// Differential test of the tentpole cache: grow a random DAG one tx
    /// at a time and, after *every* insertion, the cache's weights,
    /// ratings, depths, and tips must equal the from-scratch batch DPs.
    #[test]
    fn analysis_cache_equals_batch_after_every_add(
        script in prop::collection::vec((any::<u8>(), any::<u8>()), 0..40),
    ) {
        let mut t = Tangle::new(0u32);
        let mut cache = tangle_ledger::AnalysisCache::new(&t);
        for (i, &(a, b)) in script.iter().enumerate() {
            let n = t.len() as u32;
            let id = t
                .add(i as u32 + 1, vec![TxId(a as u32 % n), TxId(b as u32 % n)])
                .unwrap();
            cache.on_add(&t, id).unwrap();
            prop_assert_eq!(cache.weights().to_vec(), cumulative_weights(&t));
            prop_assert_eq!(cache.ratings().to_vec(), ratings(&t));
            prop_assert_eq!(cache.depths().to_vec(), depths(&t));
            prop_assert_eq!(cache.tips(), t.tips());
            prop_assert!(cache.validate(&t).is_ok());
        }
        let fresh = TangleAnalysis::compute(&t);
        let cached = cache.analysis();
        prop_assert_eq!(cached.cumulative_weight, fresh.cumulative_weight);
        prop_assert_eq!(cached.rating, fresh.rating);
    }

    /// Refreshing in batches (every executor's usage pattern: several
    /// transactions land between two context builds) is equivalent to
    /// per-add maintenance, for lags on both sides of the cache's 64-lane
    /// chunk: a short lag is one partial chunk, a long one (gossip
    /// catch-up) spans several. Parents come from the whole history, so
    /// members of one chunk approve each other, and `[a, a]` collapses to
    /// a single parent.
    #[test]
    fn analysis_cache_refresh_equals_batch(
        script in prop::collection::vec((any::<u16>(), any::<u16>()), 0..300),
        lags in prop::collection::vec((any::<bool>(), 1usize..200), 1..6),
    ) {
        let mut t = Tangle::new(0u32);
        let mut cache = tangle_ledger::AnalysisCache::new(&t);
        let mut lags = lags
            .iter()
            .map(|&(short, lag)| if short { 1 + lag % 6 } else { lag })
            .cycle();
        let mut due = lags.next().unwrap();
        for (i, &(a, b)) in script.iter().enumerate() {
            let n = t.len() as u32;
            let a = TxId(a as u32 % n);
            let b = if b % 8 == 0 { a } else { TxId(b as u32 % n) };
            t.add(i as u32 + 1, vec![a, b]).unwrap();
            let appended = t.len() - cache.len();
            if appended == due || i + 1 == script.len() {
                due = lags.next().unwrap();
                prop_assert_eq!(
                    cache.refresh(&t),
                    tangle_ledger::RefreshOutcome::Extended(appended)
                );
                prop_assert_eq!(cache.weights().to_vec(), cumulative_weights(&t));
                prop_assert_eq!(cache.ratings().to_vec(), ratings(&t));
                prop_assert_eq!(cache.depths().to_vec(), depths(&t));
                prop_assert_eq!(cache.tips(), t.tips());
                prop_assert!(cache.validate(&t).is_ok());
            }
        }
        prop_assert_eq!(cache.refresh(&t), tangle_ledger::RefreshOutcome::Fresh);
        prop_assert_eq!(cache.len(), t.len());
    }

    /// Cache invalidation: skipped or out-of-order ids are rejected with an
    /// error, leaving the cache bit-identical to before the attempt.
    #[test]
    fn analysis_cache_rejects_skips_and_out_of_order(
        script in prop::collection::vec((any::<u8>(), any::<u8>()), 2..40),
        probe in any::<u8>(),
    ) {
        let t = tangle_from_script(&script);
        let mut cache = tangle_ledger::AnalysisCache::new(&t.prefix(t.len() - 1));
        let expected = (t.len() - 1) as u32;
        // Any id other than the exactly-next one must be refused.
        let wrong = probe as u32 % (t.len() as u32 + 8);
        prop_assume!(wrong != expected);
        let before = (cache.weights().to_vec(), cache.ratings().to_vec(), cache.depths().to_vec(), cache.tips());
        let err = cache.on_add(&t, TxId(wrong)).unwrap_err();
        match err {
            tangle_ledger::CacheError::OutOfOrder { expected: e, got } => {
                prop_assert_eq!(e, expected);
                prop_assert_eq!(got, wrong);
            }
            other => prop_assert!(false, "unexpected error {:?}", other),
        }
        prop_assert_eq!(
            (cache.weights().to_vec(), cache.ratings().to_vec(), cache.depths().to_vec(), cache.tips()),
            before
        );
        // The exactly-next id is accepted and lands on the batch values.
        cache.on_add(&t, TxId(expected)).unwrap();
        prop_assert_eq!(cache.weights().to_vec(), cumulative_weights(&t));
    }

    /// Cache invalidation: a shorter or diverged tangle never yields stale
    /// values — validate errors and refresh answers with a full rebuild
    /// that matches the batch DPs on the *new* history.
    #[test]
    fn analysis_cache_never_serves_stale_history(
        script in prop::collection::vec((any::<u8>(), any::<u8>()), 2..40),
        cut in 1usize..40,
    ) {
        let t = tangle_from_script(&script);
        let mut cache = tangle_ledger::AnalysisCache::new(&t);
        let cut = cut.min(t.len() - 1);
        let shorter = t.prefix(cut);
        prop_assert!(cache.validate(&shorter).is_err());
        prop_assert_eq!(cache.refresh(&shorter), tangle_ledger::RefreshOutcome::Rebuilt);
        prop_assert_eq!(cache.weights().to_vec(), cumulative_weights(&shorter));
        prop_assert_eq!(cache.ratings().to_vec(), ratings(&shorter));
        prop_assert_eq!(cache.depths().to_vec(), depths(&shorter));
        prop_assert_eq!(cache.tips(), shorter.tips());
    }

    /// Reference choice returns distinct ids, at most n, ordered by score.
    #[test]
    fn choose_reference_is_sane(
        script in prop::collection::vec((any::<u8>(), any::<u8>()), 1..30),
        n in 1usize..8,
        seed in any::<u64>(),
    ) {
        let t = tangle_from_script(&script);
        let analysis = TangleAnalysis::compute(&t);
        let walk = RandomWalk::new(0.2).table(&t, &analysis.cumulative_weight);
        let conf = walk.walk_confidence(&t, 16, seed);
        let top = analysis.choose_reference(&conf, n);
        prop_assert!(top.len() <= n);
        prop_assert!(!top.is_empty());
        let mut dedup = top.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), top.len(), "reference ids must be distinct");
        let score = |id: TxId| conf[id.index()] as f64 * analysis.rating[id.index()] as f64;
        for pair in top.windows(2) {
            prop_assert!(score(pair[0]) >= score(pair[1]) - 1e-9);
        }
    }

    /// Selecting the best `n` and sorting only those returns exactly the
    /// first `n` of the full sort, over scores with many ties (a handful
    /// of confidence and rating levels) and `n` around the ledger size.
    #[test]
    fn choose_reference_matches_full_sort_oracle(
        levels in prop::collection::vec((0u8..4, 0u32..5), 1..300),
        pick in 0usize..5,
    ) {
        let conf: Vec<f32> = levels.iter().map(|&(c, _)| f32::from(c) * 0.25).collect();
        let rating: Vec<u32> = levels.iter().map(|&(_, r)| r).collect();
        let v = levels.len();
        let n = [1, 10, v.saturating_sub(1).max(1), v, v + 5][pick];
        let analysis = TangleAnalysis {
            cumulative_weight: vec![1; v],
            rating: rating.clone(),
        };
        let mut oracle: Vec<(f64, u32)> = (0..v)
            .map(|i| (conf[i] as f64 * rating[i] as f64, i as u32))
            .collect();
        oracle.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(b.1.cmp(&a.1)));
        let want: Vec<TxId> = oracle.into_iter().take(n).map(|(_, i)| TxId(i)).collect();
        prop_assert_eq!(analysis.choose_reference(&conf, n), want);
    }
}

/// A snapshot's table walk and the one-off walk over `tangle`, on equal
/// generators: same tip, and the same generator state after. (The
/// windowed table is pinned against the step-loop oracle in the crate's
/// own tests, draw for draw.)
fn table_walk_matches_one_off<T: TangleRead>(
    tangle: &T,
    alpha: f64,
    seed: u64,
) -> Result<(), TestCaseError> {
    use rand::RngExt as _;
    let rng = || rand::rngs::SmallRng::seed_from_u64(seed);
    let w = cumulative_weights(tangle);
    let walk = RandomWalk::new(alpha);
    let (mut a, mut b) = (rng(), rng());
    let tip = walk
        .table(tangle, &w)
        .walk(tangle, tangle.genesis(), &mut a, |_| {});
    prop_assert_eq!(tip, walk.select_tip_with_weights(tangle, &w, &mut b));
    prop_assert_eq!(a.random::<u64>(), b.random::<u64>());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Through the public API only (the crate's own tests hold the old
    /// step loop as the oracle): a snapshot's `WalkTable` and the one-off
    /// walk pick the same tips from the same draws, over a whole ledger
    /// and over a zero-copy prefix of it.
    #[test]
    fn walk_table_matches_context_free_selectors(
        script in prop::collection::vec((any::<u8>(), any::<u8>()), 0..120),
        alpha in 0usize..5,
        cut in any::<usize>(),
        seed in any::<u64>(),
    ) {
        let alpha = [0.0, 0.05, 0.5, 8.0, 1000.0][alpha];
        let t = tangle_from_script(&script);
        table_walk_matches_one_off(&t, alpha, seed)?;
        let view = TangleView::new(&t, 1 + cut % t.len());
        table_walk_matches_one_off(&view, alpha, seed)?;
    }
}
