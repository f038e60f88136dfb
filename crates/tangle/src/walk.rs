//! Tip-selection algorithms.
//!
//! The paper uses "the widespread algorithm of a weighted random walk from
//! the genesis transaction ... where the weights are the number of approvers
//! for a given transaction" (§II-C). [`RandomWalk`] implements the IOTA
//! MCMC walk with transition probabilities
//! `P(x→y) ∝ exp(α · (w(y) − max_z w(z)))` over the approvers `y` of the
//! current particle `x`, where `w` is the cumulative weight and `α` the
//! randomness parameter of Gal's "alpha" article cited by the paper (\[32\]).
//! `α = 0` is the unbiased walk; large `α` is greedy.
//!
//! # Rows
//!
//! A *row* is what one step at `x` needs: the unnormalised weights
//! `exp(α · (eff(y) − max))` of `x`'s approvers, in approver order, followed
//! by their left-to-right sum (`eff` is the cumulative weight, plus the
//! caller's bias in a [`RandomWalk::biased_table`]). A step draws `r`
//! uniformly in `[0, sum)` and scans the row subtracting each weight until
//! `r` falls inside one. It is a subtraction scan on purpose: a prefix-sum
//! search or an alias table rounds differently and would map some draws to
//! another approver, and the one-off walk is pinned draw for draw against
//! the original step loop. Transactions with a single approver are
//! followed without a draw and have no row.
//!
//! A [`WalkTable`] computes the row of every transaction of one ledger
//! snapshot once — one `exp` per approval edge — to push the walk's
//! pass-through mass through it (below), and keeps the mass, not the rows.
//! A table is valid only for the snapshot, α and bias it was built from.
//! The one-off walk, [`RandomWalk::select_tip_with_weights`], computes the
//! rows it visits with the same row function and draws with the same draw
//! function.
//!
//! Nothing here computes weights or depths: the caller passes them in,
//! from an [`crate::AnalysisCache`] that follows the ledger or, for an
//! older prefix, from the batch DPs of [`crate::analysis`].
//!
//! # Pass-through mass: tip draws and confidence
//!
//! Over one snapshot the walk is a Markov chain on a DAG whose ids are
//! already in topological order (an approver is always newer than what it
//! approves), as Popov's "The Tangle" defines tip selection. So the chance
//! `h(x)` that a walk passes through `x` comes out of one ascending pass:
//! `h(genesis) = 1` (or `1/|entries|` on each window entry), and each `x`
//! pushes `h(x) · p_y / sum` to each approver `y` of its row. A walk ends
//! at tip `τ` with probability `h(τ)`. [`WalkTable`]'s build runs this pass
//! in the loop that computes the rows, and [`WalkTable::draw_tip`] draws a
//! tip with one uniform draw against the tips' cumulative mass: the same
//! distribution as a walk, in O(log tips) instead of O(depth) steps, but
//! not the same tip for the same generator. Every tip is drawn this way:
//! plain and windowed tips from the table of a round's snapshot, and
//! accuracy-biased tips from a table a node step builds over its own bias
//! (an `exp` per edge, next to evaluating every transaction for that bias).
//!
//! The genesis-started `h` is also the paper's *confidence* (§III-A), "how
//! often a given transaction is hit during the random walk" from the
//! genesis: exactly the fraction that Monte-Carlo walks estimate
//! ([`WalkTable::confidence`]). A windowed walk enters at the window, so a
//! windowed table's build pushes a second, genesis-started mass through
//! the same rows for its confidence; any other table reads its own.

use crate::graph::TxId;
use crate::view::TangleRead;
use rand::RngExt as _;

/// The row arithmetic of one walk configuration: α and the effective
/// weight of a transaction.
struct Rows<F> {
    alpha: f64,
    eff: F,
}

impl<F: Fn(TxId) -> f64> Rows<F> {
    /// # Panics
    /// Panics unless `alpha` is finite and non-negative: anything else
    /// makes some row sum NaN or infinite (`∞ · 0`, `exp` overflow).
    fn new(alpha: f64, eff: F) -> Self {
        assert!(
            alpha.is_finite() && alpha >= 0.0,
            "walk alpha must be finite and non-negative, got {alpha}"
        );
        Self { alpha, eff }
    }

    /// The row of a transaction that `approvers` (at least two) approve,
    /// computed into `row`.
    fn row<'a>(&self, approvers: &[TxId], row: &'a mut Vec<f64>) -> &'a [f64] {
        row.clear();
        let max = approvers
            .iter()
            .map(|&a| (self.eff)(a))
            .fold(f64::NEG_INFINITY, f64::max);
        let mut total = 0.0f64;
        for &a in approvers {
            let p = (self.alpha * ((self.eff)(a) - max)).exp();
            row.push(p);
            total += p;
        }
        // The heaviest approver contributes exp(0) = 1.
        debug_assert!(total.is_finite() && total >= 1.0, "row sum {total}");
        row.push(total);
        row
    }
}

/// One weighted draw among `approvers` by their `row`.
fn draw(approvers: &[TxId], row: &[f64], rng: &mut dyn rand::Rng) -> TxId {
    let (total, probs) = row.split_last().expect("a row ends with its sum");
    let mut r = rng.random_range(0.0..*total);
    for (a, &p) in approvers.iter().zip(probs) {
        if r < p {
            return *a;
        }
        r -= p;
    }
    approvers[approvers.len() - 1]
}

/// Transactions whose depth lies in `[window, 2·window]`, ascending — the
/// entry particles of a windowed walk.
fn window_entries(depths: &[u32], window: u32) -> Vec<TxId> {
    let range = window..=window.saturating_mul(2);
    (0..depths.len())
        .filter(|&i| range.contains(&depths[i]))
        .map(|i| TxId(i as u32))
        .collect()
}

/// Push `mass[at]` on to `at`'s approvers: all of it to a single approver,
/// `p / sum` of it to each of several by `row`.
fn push_mass(mass: &mut [f64], at: TxId, approvers: &[TxId], row: &[f64]) {
    let h = mass[at.index()];
    match approvers {
        [a] => mass[a.index()] += h,
        _ if h > 0.0 => {
            let (sum, probs) = row.split_last().expect("a row ends with its sum");
            for (a, &p) in approvers.iter().zip(probs) {
                mass[a.index()] += h * p / sum;
            }
        }
        _ => {}
    }
}

/// The walk over one ledger snapshot: its exit distribution over the tips
/// and the confidence of every transaction (see the module docs). Built by
/// [`RandomWalk::table`], [`RandomWalk::windowed_table`] or
/// [`RandomWalk::biased_table`]; valid only for that snapshot (and bias).
#[derive(Debug)]
pub struct WalkTable {
    /// The tips a walk ends at with positive probability, ascending, and
    /// the running sum of those probabilities (`cdf[k]` covers `tips[..=k]`).
    tips: Vec<TxId>,
    cdf: Vec<f64>,
    /// The genesis-started pass-through mass of every transaction.
    confidence: Vec<f32>,
}

impl WalkTable {
    /// One ascending pass over `tangle` that computes the row of every
    /// transaction with at least two approvers and pushes the walk's
    /// pass-through mass through it, started on the genesis or, for a
    /// windowed walk (`entries` is `Some`), spread uniformly over the
    /// window entries (the genesis when there is none). Ids are
    /// topologically ordered, so a transaction's mass is complete when the
    /// loop reaches it. A walk entered at the window carries a second,
    /// genesis-started mass for its confidence.
    fn build<T: TangleRead>(
        tangle: &T,
        rows: &Rows<impl Fn(TxId) -> f64>,
        entries: Option<&[TxId]>,
    ) -> Self {
        let (n, genesis) = (tangle.len(), tangle.genesis().index());
        let mut scratch = Vec::new();
        let mut mass = vec![0.0f64; n];
        let mut from_genesis = None;
        match entries {
            Some(e) if !e.is_empty() => {
                let share = 1.0 / e.len() as f64;
                for x in e {
                    mass[x.index()] = share;
                }
                let mut g = vec![0.0f64; n];
                g[genesis] = 1.0;
                from_genesis = Some(g);
            }
            _ => mass[genesis] = 1.0,
        }
        let (mut tips, mut cdf, mut total) = (Vec::new(), Vec::new(), 0.0f64);
        for i in 0..n as u32 {
            let at = TxId(i);
            let approvers = tangle.approvers(at);
            let row = match approvers.len() {
                0 => {
                    let h = mass[i as usize];
                    if h > 0.0 {
                        total += h;
                        tips.push(at);
                        cdf.push(total);
                    }
                    continue;
                }
                1 => &[][..],
                _ => rows.row(approvers, &mut scratch),
            };
            push_mass(&mut mass, at, approvers, row);
            if let Some(g) = &mut from_genesis {
                push_mass(g, at, approvers, row);
            }
        }
        let confidence = from_genesis.as_ref().unwrap_or(&mass);
        Self {
            tips,
            cdf,
            confidence: confidence.iter().map(|&h| h as f32).collect(),
        }
    }

    /// The confidence of every transaction (paper §III-A): the exact chance
    /// that a walk from the genesis passes through it, which the paper
    /// estimates by counting the hits of repeated walks. The genesis has
    /// confidence 1; on a tip of a table that is not windowed it is the
    /// tip's exit mass. Windowed or not, the table of one snapshot and α
    /// gives the same confidence, bit for bit.
    pub fn confidence(&self) -> &[f32] {
        &self.confidence
    }

    /// Draw the tip a tip-selection walk ends at: one uniform draw against
    /// the tips' cumulative exit mass and a binary search. Same
    /// distribution as a walk from the genesis (or, for a windowed table,
    /// from a uniformly drawn window entry), not the same tip per
    /// generator.
    pub fn draw_tip(&self, rng: &mut dyn rand::Rng) -> TxId {
        let total = *self.cdf.last().expect("a snapshot has a tip");
        let r = rng.random_range(0.0..total);
        self.tips[self.cdf.partition_point(|&c| c <= r)]
    }
}

/// The weighted MCMC random walk from the genesis.
#[derive(Clone, Copy, Debug)]
pub struct RandomWalk {
    /// Randomness parameter: 0 = unbiased, larger = greedier toward heavy
    /// subtangles. Must be finite and non-negative.
    pub alpha: f64,
}

impl Default for RandomWalk {
    /// `α = 0.5`, a middle ground that keeps the walk weight-following but
    /// still randomized (the paper stresses that robustness depends on this
    /// "randomness factor of the tip selection algorithm").
    fn default() -> Self {
        Self { alpha: 0.5 }
    }
}

impl RandomWalk {
    /// Construct with an explicit α.
    pub fn new(alpha: f64) -> Self {
        Self { alpha }
    }

    fn rows<'w>(&self, len: usize, weights: &'w [u32]) -> Rows<impl Fn(TxId) -> f64 + 'w> {
        assert_eq!(weights.len(), len, "weights/tangle length mismatch");
        Rows::new(self.alpha, move |a: TxId| weights[a.index()] as f64)
    }

    /// The walk table of `tangle` under its cumulative `weights`, with the
    /// exit distribution of a walk from the genesis: build it once
    /// per snapshot, read the snapshot's confidence from it
    /// ([`WalkTable::confidence`]) and draw every tip from it
    /// ([`WalkTable::draw_tip`]).
    ///
    /// # Panics
    /// Panics if α is not finite and non-negative.
    pub fn table<T: TangleRead>(&self, tangle: &T, weights: &[u32]) -> WalkTable {
        WalkTable::build(tangle, &self.rows(tangle.len(), weights), None)
    }

    /// The table of [`Self::table`] with its exit distribution started
    /// uniformly on the transactions whose depth (see
    /// [`crate::analysis::depths`]) lies in `[window, 2·window]`, or on the
    /// genesis while the tangle is shallower than that. This is windowed
    /// tip selection: instead of walking from the genesis every time (which
    /// the paper's prototype does, §IV, at the cost of scalability), enter
    /// at a uniformly chosen such transaction — the optimization the
    /// original tangle authors propose and the paper defers to future work.
    ///
    /// # Panics
    /// Panics if `window` is 0 or α is not finite and non-negative.
    pub fn windowed_table<T: TangleRead>(
        &self,
        tangle: &T,
        weights: &[u32],
        depths: &[u32],
        window: u32,
    ) -> WalkTable {
        assert!(window >= 1, "window must be at least 1");
        assert_eq!(depths.len(), tangle.len(), "depths/tangle length mismatch");
        let entries = window_entries(depths, window);
        WalkTable::build(tangle, &self.rows(tangle.len(), weights), Some(&entries))
    }

    /// The genesis-started table of the walk whose transition weight is
    /// `cumulative_weight + bias`, the bias (finite, in cumulative-weight
    /// units) supplied per transaction by the caller — the paper's §VI
    /// outlook of "introducing model performance as a bias in the weighted
    /// random walk".
    ///
    /// # Panics
    /// Panics if α is not finite and non-negative.
    pub fn biased_table<T: TangleRead>(
        &self,
        tangle: &T,
        weights: &[u32],
        bias: &[f64],
    ) -> WalkTable {
        let len = tangle.len();
        assert_eq!(weights.len(), len, "weights/tangle length mismatch");
        assert_eq!(bias.len(), len, "bias/tangle length mismatch");
        let rows = Rows::new(self.alpha, |a: TxId| {
            weights[a.index()] as f64 + bias[a.index()]
        });
        WalkTable::build(tangle, &rows, None)
    }

    /// Walk once from the genesis to a tip with precomputed cumulative
    /// weights, computing only the rows the walk visits: follow approvers
    /// until a tip, with one weighted draw by the particle's row wherever
    /// it has several approvers and none elsewhere. A one-off walk:
    /// production draws every tip from a table ([`WalkTable::draw_tip`]).
    ///
    /// # Panics
    /// Panics if α is not finite and non-negative.
    pub fn select_tip_with_weights<T: TangleRead>(
        &self,
        tangle: &T,
        weights: &[u32],
        rng: &mut dyn rand::Rng,
    ) -> TxId {
        let rows = self.rows(tangle.len(), weights);
        let mut scratch = Vec::new();
        let mut cur = tangle.genesis();
        loop {
            let approvers = tangle.approvers(cur);
            cur = match approvers.len() {
                0 => return cur,
                1 => approvers[0],
                _ => draw(approvers, rows.row(approvers, &mut scratch), rng),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{cumulative_weights, depths};
    use crate::graph::Tangle;
    use crate::view::TangleView;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::SmallRng {
        rand::rngs::SmallRng::seed_from_u64(seed)
    }

    /// The walk as it stood before [`WalkTable`] — max, `exp` and sum
    /// recomputed at every step, draw and scan inline — kept verbatim as
    /// the oracle: the one-off walk must match it draw for draw, and a
    /// table's confidence and exit masses must match where its walks pass
    /// and end. Returns the particle path, `start` first.
    fn reference_walk<T: TangleRead>(
        tangle: &T,
        start: TxId,
        alpha: f64,
        eff: impl Fn(TxId) -> f64,
        rng: &mut dyn rand::Rng,
    ) -> Vec<TxId> {
        let mut path = vec![start];
        let mut cur = start;
        let mut probs: Vec<f64> = Vec::new();
        loop {
            let approvers = tangle.approvers(cur);
            match approvers.len() {
                0 => return path,
                1 => cur = approvers[0],
                _ => {
                    probs.clear();
                    let max_w = approvers
                        .iter()
                        .map(|&a| eff(a))
                        .fold(f64::NEG_INFINITY, f64::max);
                    let mut total = 0.0f64;
                    for &a in approvers {
                        let p = (alpha * (eff(a) - max_w)).exp();
                        probs.push(p);
                        total += p;
                    }
                    let mut r = rng.random_range(0.0..total);
                    let mut chosen = approvers[approvers.len() - 1];
                    for (a, &p) in approvers.iter().zip(&probs) {
                        if r < p {
                            chosen = *a;
                            break;
                        }
                        r -= p;
                    }
                    cur = chosen;
                }
            }
            path.push(cur);
        }
    }

    /// Entry `i` appends transaction `i + 1` approving `a` and `b` modulo
    /// the current length; equal parents (`[a, a]`) collapse to one.
    fn scripted(script: &[(u8, u8)]) -> Tangle<u32> {
        let mut t = Tangle::new(0);
        for (i, &(a, b)) in script.iter().enumerate() {
            let n = t.len() as u32;
            t.add(i as u32 + 1, vec![TxId(a as u32 % n), TxId(b as u32 % n)])
                .unwrap();
        }
        t
    }

    const ALPHAS: [f64; 5] = [0.0, 0.05, 0.5, 8.0, 1000.0];

    /// One walk over `tangle` from the genesis, two ways on equal
    /// generators: the reference loop and the one-off walk, whose rows come
    /// from the row function a table's build pushes its mass through. Same
    /// tip, and the same next output of the generator (which pins the
    /// number of draws the walk consumed).
    fn check_draw_for_draw<T: TangleRead>(tangle: &T, alpha: f64, seed: u64) {
        let w = cumulative_weights(tangle);
        let mut r = rng(seed);
        let path = reference_walk(
            tangle,
            tangle.genesis(),
            alpha,
            |a| w[a.index()] as f64,
            &mut r,
        );
        let next = r.random::<u64>();
        let mut r = rng(seed);
        let tip = RandomWalk::new(alpha).select_tip_with_weights(tangle, &w, &mut r);
        assert_eq!((tip, r.random::<u64>()), (*path.last().unwrap(), next));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn walk_table_rows_match_reference_draw_for_draw(
            script in prop::collection::vec((any::<u8>(), any::<u8>()), 0..120),
            alpha in 0usize..5,
            cut in any::<usize>(),
            seed in any::<u64>(),
        ) {
            let t = scripted(&script);
            check_draw_for_draw(&t, ALPHAS[alpha], seed);
            let view = TangleView::new(&t, 1 + cut % t.len());
            check_draw_for_draw(&view, ALPHAS[alpha], seed);
        }
    }

    /// The exit distribution by an independent descending DP: `e[x][τ]` is
    /// the chance that a walk from `x` ends at tip `τ`, with `e[τ] = δ_τ`
    /// and `e[x] = Σ_y P(x→y) · e[y]`, the transition probabilities
    /// recomputed here from the effective weights `eff`.
    fn exit_dp<T: TangleRead>(tangle: &T, alpha: f64, eff: impl Fn(TxId) -> f64) -> Vec<Vec<f64>> {
        let n = tangle.len();
        let mut e = vec![vec![0.0f64; n]; n];
        for x in (0..n).rev() {
            let approvers = tangle.approvers(TxId(x as u32));
            let mut here = vec![0.0f64; n];
            if approvers.is_empty() {
                here[x] = 1.0;
            }
            let max = approvers
                .iter()
                .map(|&a| eff(a))
                .fold(f64::NEG_INFINITY, f64::max);
            let p: Vec<f64> = approvers
                .iter()
                .map(|&a| (alpha * (eff(a) - max)).exp())
                .collect();
            let sum: f64 = p.iter().sum();
            for (a, pa) in approvers.iter().zip(&p) {
                for (h, ea) in here.iter_mut().zip(&e[a.index()]) {
                    *h += pa / sum * ea;
                }
            }
            e[x] = here;
        }
        e
    }

    /// The exit mass per transaction id that `table` draws from.
    fn exit_mass(table: &WalkTable, n: usize) -> Vec<f64> {
        let mut mass = vec![0.0f64; n];
        let mut below = 0.0;
        for (tip, &c) in table.tips.iter().zip(&table.cdf) {
            mass[tip.index()] = c - below;
            below = c;
        }
        mass
    }

    /// The plain, a windowed and a biased table's exit masses against the
    /// DP under their effective weights, to 1e-12, and the window's entries
    /// against a scan of the depths.
    fn check_exit_masses<T: TangleRead>(
        tangle: &T,
        alpha: f64,
        window: u32,
        bias: &[f64],
    ) -> Result<(), TestCaseError> {
        let (w, d) = (cumulative_weights(tangle), depths(tangle));
        let e = exit_dp(tangle, alpha, |a| w[a.index()] as f64);
        let biased = exit_dp(tangle, alpha, |a| w[a.index()] as f64 + bias[a.index()]);
        let walk = RandomWalk::new(alpha);
        let entries = window_entries(&d, window);
        let scan: Vec<TxId> = (0..tangle.len())
            .filter(|&i| (window..=2 * window).contains(&d[i]))
            .map(|i| TxId(i as u32))
            .collect();
        prop_assert_eq!(&entries, &scan);
        let windowed: Vec<f64> = match entries.len() {
            0 => e[tangle.genesis().index()].clone(),
            k => (0..tangle.len())
                .map(|t| entries.iter().map(|x| e[x.index()][t]).sum::<f64>() / k as f64)
                .collect(),
        };
        let g = tangle.genesis().index();
        let tables = [
            (walk.table(tangle, &w), &e[g]),
            (walk.windowed_table(tangle, &w, &d, window), &windowed),
            (walk.biased_table(tangle, &w, bias), &biased[g]),
        ];
        for (table, want) in &tables {
            let got = exit_mass(table, tangle.len());
            for (i, (g, x)) in got.iter().zip(want.iter()).enumerate() {
                prop_assert!((g - x).abs() <= 1e-12, "tx {i}: table {g}, DP {x}");
            }
            for tip in &table.tips {
                prop_assert!(tangle.approvers(*tip).is_empty(), "{tip} is not a tip");
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn walk_table_exit_masses_match_a_descending_dp(
            script in prop::collection::vec((any::<u8>(), any::<u8>()), 0..120),
            bias in prop::collection::vec(-40.0f64..40.0, 121),
            window in 1u32..6,
            cut in any::<usize>(),
        ) {
            let t = scripted(&script);
            let view = TangleView::new(&t, 1 + cut % t.len());
            for alpha in ALPHAS {
                check_exit_masses(&t, alpha, window, &bias[..t.len()])?;
                check_exit_masses(&view, alpha, window, &bias[..view.len()])?;
            }
        }
    }

    /// `hits` out of `n` trials against `mass`, within 5σ of the binomial.
    fn assert_binomial(hits: &[u64], mass: &[f64], n: u64, what: &str) {
        for (i, (&k, &m)) in hits.iter().zip(mass).enumerate() {
            let (mean, sd) = (n as f64 * m, (n as f64 * m * (1.0 - m)).sqrt());
            assert!(
                (k as f64 - mean).abs() <= 5.0 * sd,
                "{what}: tx {i} hit {k} times, mass {m} expects {mean:.1} ± {sd:.1}"
            );
        }
    }

    /// Every table of `tangle` (plain, windowed and biased) against `N`
    /// reference walks under its effective weights, at three α: how often
    /// walks from the genesis pass each transaction — the Monte-Carlo
    /// walk-hit count of §III-A — against the confidence, and where walks
    /// end (a windowed table's from a uniformly drawn window entry) and
    /// where tip draws land against the exit mass.
    fn check_walks_and_draws<T: TangleRead>(tangle: &T, bias: &[f64]) {
        const N: u64 = 200_000;
        const WINDOW: u32 = 2;
        let (n, g) = (tangle.len(), tangle.genesis());
        let (w, d) = (cumulative_weights(tangle), depths(tangle));
        let (entries, zero) = (window_entries(&d, WINDOW), vec![0.0; n]);
        assert!(!entries.is_empty(), "the window must have entries");
        for (seed, alpha) in [(1, 0.05), (2, 0.5), (3, 8.0)] {
            let walk = RandomWalk::new(alpha);
            let tables = [
                ("plain", walk.table(tangle, &w)),
                ("windowed", walk.windowed_table(tangle, &w, &d, WINDOW)),
                ("biased", walk.biased_table(tangle, &w, bias)),
            ];
            let mut r = rng(seed);
            for (what, table) in &tables {
                assert!(
                    table.tips.len() >= 2,
                    "{what}, α = {alpha}: too few reachable tips"
                );
                let b = if *what == "biased" { bias } else { &zero };
                let eff = |a: TxId| w[a.index()] as f64 + b[a.index()];
                let (mut hits, mut ends, mut draws) = (vec![0u64; n], vec![0u64; n], vec![0u64; n]);
                for _ in 0..N {
                    let path = reference_walk(tangle, g, alpha, eff, &mut r);
                    for x in &path {
                        hits[x.index()] += 1;
                    }
                    let tip = if *what == "windowed" {
                        let entry = entries[r.random_range(0..entries.len())];
                        *reference_walk(tangle, entry, alpha, eff, &mut r)
                            .last()
                            .unwrap()
                    } else {
                        *path.last().unwrap()
                    };
                    ends[tip.index()] += 1;
                    draws[table.draw_tip(&mut r).index()] += 1;
                }
                let at = format!("{what}, α = {alpha}");
                let confidence: Vec<f64> = table.confidence().iter().map(|&c| c.into()).collect();
                assert_binomial(&hits, &confidence, N, &format!("{at}: walk hits"));
                let mass = exit_mass(table, n);
                assert_binomial(&ends, &mass, N, &format!("{at}: walks"));
                assert_binomial(&draws, &mass, N, &format!("{at}: draws"));
            }
        }
    }

    #[test]
    fn walk_table_exit_mass_is_where_walks_and_draws_land() {
        let mut script_rng = rng(0x5EED);
        let script: Vec<(u8, u8)> = (0..60)
            .map(|_| (script_rng.random(), script_rng.random()))
            .collect();
        let t = scripted(&script);
        let bias: Vec<f64> = (0..t.len())
            .map(|_| script_rng.random_range(-3.0..3.0))
            .collect();
        check_walks_and_draws(&t, &bias);
        let view = TangleView::new(&t, 45);
        check_walks_and_draws(&view, &bias[..view.len()]);
    }

    #[test]
    fn walk_table_exit_zero_mass_tip_is_never_drawn() {
        // At α = 1000 the genesis never steps to the light b: its exit mass
        // is exactly zero and it is not among the drawable tips.
        let (t, _, b, c) = forked();
        let table = RandomWalk::new(1000.0).table(&t, &cumulative_weights(&t));
        assert_eq!(
            (table.tips.as_slice(), table.cdf.as_slice()),
            (&[c][..], &[1.0][..])
        );
        let mut r = rng(10);
        assert!((0..1000).all(|_| table.draw_tip(&mut r) == c), "drew {b}");
        // A genesis-only snapshot draws the genesis, plain, windowed or
        // biased.
        let g = Tangle::new(0u8);
        let (w, d) = (cumulative_weights(&g), depths(&g));
        let walk = RandomWalk::default();
        let windowed = walk.windowed_table(&g, &w, &d, 2);
        let biased = walk.biased_table(&g, &w, &[7.0]);
        for table in [walk.table(&g, &w), windowed, biased] {
            assert_eq!(table.draw_tip(&mut r), g.genesis());
        }
    }

    #[test]
    fn walk_table_single_approver_chain_consumes_no_draw() {
        let mut t = Tangle::new(0u8);
        let mut prev = t.genesis();
        for i in 0..10 {
            prev = t.add(i, vec![prev]).unwrap();
        }
        let w = cumulative_weights(&t);
        let table = RandomWalk::default().table(&t, &w);
        assert_eq!(table.confidence(), &[1.0; 11][..]);
        assert_eq!(
            (table.tips.as_slice(), table.cdf.as_slice()),
            (&[prev][..], &[1.0][..])
        );
        let mut r = rng(5);
        assert_eq!(
            RandomWalk::default().select_tip_with_weights(&t, &w, &mut r),
            prev
        );
        assert_eq!(
            r.random::<u64>(),
            rng(5).random::<u64>(),
            "the walk drew from its generator"
        );
    }

    #[test]
    fn walk_table_tip_only_genesis() {
        let t = Tangle::new(0u8);
        let table = RandomWalk::default().table(&t, &cumulative_weights(&t));
        assert_eq!(table.confidence(), &[1.0]);
        assert_eq!(
            (table.tips.as_slice(), table.cdf.as_slice()),
            (&[t.genesis()][..], &[1.0][..])
        );
    }

    #[test]
    fn walk_table_all_equal_weights() {
        // A star: every approver of the genesis weighs 1, at any α, so each
        // gets exactly a fifth of the walk.
        let mut t = Tangle::new(0u8);
        for i in 0..5 {
            t.add(i, vec![t.genesis()]).unwrap();
        }
        for alpha in ALPHAS {
            let table = RandomWalk::new(alpha).table(&t, &cumulative_weights(&t));
            assert_eq!(table.confidence(), &[1.0, 0.2, 0.2, 0.2, 0.2, 0.2]);
        }
    }

    #[test]
    fn walk_table_alpha_1000_underflows_to_exact_zero() {
        let (t, a, _, c) = forked();
        let w = cumulative_weights(&t);
        // The genesis row: a (weight 2) is the max, b (weight 1) is
        // exp(-1000) = 0 exactly, so b gets no confidence at all.
        let table = RandomWalk::new(1000.0).table(&t, &w);
        let mut want = [0.0f32; 4];
        for x in [t.genesis(), a, c] {
            want[x.index()] = 1.0;
        }
        assert_eq!(table.confidence(), &want[..]);
        let mut r = rng(0);
        for _ in 0..50 {
            // A zero weight is skipped: `r < 0.0` never holds.
            assert_eq!(
                RandomWalk::new(1000.0).select_tip_with_weights(&t, &w, &mut r),
                c
            );
        }
    }

    #[test]
    fn walk_table_row_is_unnormalised_and_summed_left_to_right() {
        let eff = [3.0, 0.3, 1.7, 2.9, 0.1, 2.2];
        let approvers: Vec<TxId> = (0..6).map(TxId).collect();
        let mut row = Vec::new();
        Rows::new(0.7, |a: TxId| eff[a.index()]).row(&approvers, &mut row);
        let p: Vec<f64> = eff.iter().map(|e| (0.7 * (e - 3.0)).exp()).collect();
        let forward = p.iter().fold(0.0, |s, x| s + x);
        let backward = p.iter().rev().fold(0.0, |s, x| s + x);
        assert_ne!(forward, backward, "the sum must be order-sensitive");
        assert_eq!(row[..6], p[..]);
        assert_eq!(row[6], forward);
    }

    #[test]
    #[should_panic(expected = "walk alpha must be finite and non-negative")]
    fn walk_rejects_non_finite_alpha() {
        let (t, _, _, _) = forked();
        // A literal bypasses `new`: the check sits where rows are made.
        RandomWalk { alpha: f64::NAN }.select_tip_with_weights(
            &t,
            &cumulative_weights(&t),
            &mut rng(1),
        );
    }

    #[test]
    #[should_panic(expected = "walk alpha must be finite and non-negative")]
    fn walk_table_rejects_negative_alpha() {
        let (t, _, _, _) = forked();
        RandomWalk::new(-0.5).table(&t, &cumulative_weights(&t));
    }

    #[test]
    #[should_panic(expected = "window must be at least 1")]
    fn walk_table_rejects_a_zero_window() {
        let (t, _, _, _) = forked();
        RandomWalk::default().windowed_table(&t, &cumulative_weights(&t), &depths(&t), 0);
    }

    #[test]
    fn windowed_walk_huge_window_starts_at_the_genesis() {
        // `2 * window` used to overflow for window > u32::MAX / 2.
        let (t, _, b, c) = forked();
        let (w, d) = (cumulative_weights(&t), depths(&t));
        let walk = RandomWalk::default();
        let table = walk.windowed_table(&t, &w, &d, u32::MAX);
        assert!(window_entries(&d, u32::MAX).is_empty());
        let plain = walk.table(&t, &w);
        assert_eq!((&table.tips, &table.cdf), (&plain.tips, &plain.cdf));
        let tip = table.draw_tip(&mut rng(4));
        assert!(tip == b || tip == c);
    }

    /// genesis -> {a, b}; c approves a; the a-branch is heavier.
    fn forked() -> (Tangle<u8>, TxId, TxId, TxId) {
        let mut t = Tangle::new(0u8);
        let a = t.add(1, vec![t.genesis()]).unwrap();
        let b = t.add(2, vec![t.genesis()]).unwrap();
        let c = t.add(3, vec![a]).unwrap();
        (t, a, b, c)
    }

    #[test]
    fn walk_reaches_a_tip() {
        let (t, _, b, c) = forked();
        let w = cumulative_weights(&t);
        let mut r = rng(1);
        for _ in 0..20 {
            let tip = RandomWalk::default().select_tip_with_weights(&t, &w, &mut r);
            assert!(tip == b || tip == c);
            assert!(t.is_tip(tip));
        }
    }

    #[test]
    fn high_alpha_is_greedy() {
        let (t, _, _b, c) = forked();
        let w = cumulative_weights(&t);
        let mut r = rng(2);
        let walk = RandomWalk::new(1000.0);
        for _ in 0..50 {
            // a has cumulative weight 2 (itself + c); b has 1 → always go a → c.
            assert_eq!(walk.select_tip_with_weights(&t, &w, &mut r), c);
        }
    }

    #[test]
    fn zero_alpha_is_roughly_uniform() {
        let (t, _, b, _c) = forked();
        let w = cumulative_weights(&t);
        let mut r = rng(3);
        let walk = RandomWalk::new(0.0);
        let mut hits_b = 0;
        let n = 2000;
        for _ in 0..n {
            if walk.select_tip_with_weights(&t, &w, &mut r) == b {
                hits_b += 1;
            }
        }
        let frac = hits_b as f64 / n as f64;
        assert!((0.42..0.58).contains(&frac), "b fraction {frac}");
    }

    #[test]
    fn walk_table_bias_can_overcome_weight() {
        let (t, _, b, _c) = forked();
        let w = cumulative_weights(&t);
        // Heavily bias the light b-branch.
        let mut bias = vec![0.0f64; t.len()];
        bias[b.index()] = 100.0;
        let table = RandomWalk::new(10.0).biased_table(&t, &w, &bias);
        let mut r = rng(6);
        for _ in 0..30 {
            assert_eq!(table.draw_tip(&mut r), b);
        }
    }

    #[test]
    fn windowed_walk_reaches_a_tip() {
        // Long chain with a fork at the end.
        let mut t = Tangle::new(0u8);
        let mut prev = t.genesis();
        for i in 0..20 {
            prev = t.add(i, vec![prev]).unwrap();
        }
        let x = t.add(99, vec![prev]).unwrap();
        let y = t.add(100, vec![prev]).unwrap();
        let mut r = rng(8);
        let table =
            RandomWalk::default().windowed_table(&t, &cumulative_weights(&t), &depths(&t), 3);
        for _ in 0..20 {
            let tip = table.draw_tip(&mut r);
            assert!(tip == x || tip == y, "windowed walk ended at {tip}");
        }
    }

    #[test]
    fn windowed_walk_falls_back_to_genesis_when_shallow() {
        let t = Tangle::new(0u8);
        let mut r = rng(9);
        let table =
            RandomWalk::default().windowed_table(&t, &cumulative_weights(&t), &depths(&t), 5);
        assert_eq!(table.draw_tip(&mut r), t.genesis());
    }

    #[test]
    fn depths_measure_longest_path_to_tip() {
        let (t, a, b, c) = forked();
        let d = crate::analysis::depths(&t);
        // tips c, b have depth 0; a has depth 1 (via c); genesis depth 2.
        assert_eq!(d[c.index()], 0);
        assert_eq!(d[b.index()], 0);
        assert_eq!(d[a.index()], 1);
        assert_eq!(d[t.genesis().index()], 2);
    }

    #[test]
    fn genesis_only_tangle_selects_genesis() {
        let t = Tangle::new(0u8);
        let mut r = rng(7);
        let tip =
            RandomWalk::default().select_tip_with_weights(&t, &cumulative_weights(&t), &mut r);
        assert_eq!(tip, t.genesis());
    }
}
