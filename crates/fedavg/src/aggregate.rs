//! Robust aggregation rules for the centralized baseline.
//!
//! The paper's related-work section (§II-A) points at median-based
//! byzantine-fault-tolerant aggregation — in particular Krum (Blanchard et
//! al.) — as the standard server-side poisoning defense, and notes its
//! weakness on non-IID data. These rules let the FedAvg baseline be run
//! with the same defenses the paper compares against conceptually.

use tinynn::ParamVec;

/// Server-side aggregation rule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Aggregator {
    /// Sample-count-weighted mean — classic FedAvg.
    Mean,
    /// Krum: select the single update whose summed squared distance to its
    /// `n − f − 2` nearest neighbours is smallest. Tolerates up to `f`
    /// byzantine clients.
    Krum {
        /// Assumed maximum number of byzantine updates per round.
        f: usize,
    },
    /// Multi-Krum: average the `m` updates with the best Krum scores.
    MultiKrum {
        /// Assumed maximum number of byzantine updates per round.
        f: usize,
        /// Number of selected updates to average.
        m: usize,
    },
    /// Coordinate-wise median.
    Median,
    /// Coordinate-wise trimmed mean: drop the `beta` fraction of extreme
    /// values on each side per coordinate, average the rest.
    TrimmedMean {
        /// Fraction trimmed from each side, in `[0, 0.5)`.
        beta: f32,
    },
}

impl Aggregator {
    /// Aggregate a round of client updates. `weights` (local sample
    /// counts) are only used by [`Aggregator::Mean`]; the robust rules are
    /// unweighted, as in the literature.
    ///
    /// # Panics
    /// Panics if `params` is empty, lengths mismatch, or the rule's
    /// preconditions fail (e.g. Krum with `n ≤ f + 2`).
    pub fn aggregate(&self, params: &[&ParamVec], weights: &[f32]) -> ParamVec {
        assert!(!params.is_empty(), "cannot aggregate zero updates");
        match *self {
            Aggregator::Mean => ParamVec::weighted_average(params, weights),
            Aggregator::Krum { f } => {
                let scores = krum_scores(params, f);
                let best = argmin(&scores);
                params[best].clone()
            }
            Aggregator::MultiKrum { f, m } => {
                let m = m.clamp(1, params.len());
                let scores = krum_scores(params, f);
                let mut order: Vec<usize> = (0..params.len()).collect();
                order.sort_by(|&a, &b| scores[a].partial_cmp(&scores[b]).expect("finite scores"));
                let selected: Vec<&ParamVec> = order[..m].iter().map(|&i| params[i]).collect();
                ParamVec::average(&selected)
            }
            Aggregator::Median => coordinate_median(params),
            Aggregator::TrimmedMean { beta } => trimmed_mean(params, beta),
        }
    }
}

fn argmin(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x < xs[best] {
            best = i;
        }
    }
    best
}

/// Krum scores: for each update, the sum of its `n − f − 2` smallest
/// squared distances to the other updates.
pub fn krum_scores(params: &[&ParamVec], f: usize) -> Vec<f64> {
    let n = params.len();
    assert!(n > f + 2, "Krum requires n > f + 2 (got n = {n}, f = {f})");
    let keep = n - f - 2;
    // Pairwise squared distances.
    let mut d = vec![0.0f64; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let dist = params[i]
                .as_slice()
                .iter()
                .zip(params[j].as_slice())
                .map(|(a, b)| {
                    let x = (a - b) as f64;
                    x * x
                })
                .sum::<f64>();
            d[i * n + j] = dist;
            d[j * n + i] = dist;
        }
    }
    (0..n)
        .map(|i| {
            let mut row: Vec<f64> = (0..n).filter(|&j| j != i).map(|j| d[i * n + j]).collect();
            row.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
            row[..keep.min(row.len())].iter().sum()
        })
        .collect()
}

/// Coordinate-wise median of the updates.
pub fn coordinate_median(params: &[&ParamVec]) -> ParamVec {
    let dim = params[0].len();
    for p in params {
        assert_eq!(p.len(), dim, "parameter dimension mismatch");
    }
    let n = params.len();
    let mut out = Vec::with_capacity(dim);
    let mut col = vec![0.0f32; n];
    for c in 0..dim {
        for (k, p) in params.iter().enumerate() {
            col[k] = p.as_slice()[c];
        }
        col.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
        let med = if n % 2 == 1 {
            col[n / 2]
        } else {
            0.5 * (col[n / 2 - 1] + col[n / 2])
        };
        out.push(med);
    }
    ParamVec(out)
}

/// Coordinate-wise `beta`-trimmed mean.
pub fn trimmed_mean(params: &[&ParamVec], beta: f32) -> ParamVec {
    assert!((0.0..0.5).contains(&beta), "beta must be in [0, 0.5)");
    let dim = params[0].len();
    for p in params {
        assert_eq!(p.len(), dim, "parameter dimension mismatch");
    }
    let n = params.len();
    let trim = ((n as f32) * beta).floor() as usize;
    assert!(2 * trim < n, "trimming removes every update");
    let mut out = Vec::with_capacity(dim);
    let mut col = vec![0.0f32; n];
    for c in 0..dim {
        for (k, p) in params.iter().enumerate() {
            col[k] = p.as_slice()[c];
        }
        col.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
        let kept = &col[trim..n - trim];
        out.push(kept.iter().sum::<f32>() / kept.len() as f32);
    }
    ParamVec(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn updates() -> Vec<ParamVec> {
        // Five benign updates near [1, 1] plus one wild outlier.
        vec![
            ParamVec(vec![1.0, 1.0]),
            ParamVec(vec![1.1, 0.9]),
            ParamVec(vec![0.9, 1.1]),
            ParamVec(vec![1.05, 1.0]),
            ParamVec(vec![0.95, 1.0]),
            ParamVec(vec![100.0, -100.0]),
        ]
    }

    fn refs(v: &[ParamVec]) -> Vec<&ParamVec> {
        v.iter().collect()
    }

    #[test]
    fn mean_is_pulled_by_outlier() {
        let v = updates();
        let w = vec![1.0; 6];
        let mean = Aggregator::Mean.aggregate(&refs(&v), &w);
        assert!(mean.as_slice()[0] > 10.0, "mean should be dragged away");
    }

    #[test]
    fn krum_rejects_outlier() {
        let v = updates();
        let w = vec![1.0; 6];
        let krum = Aggregator::Krum { f: 1 }.aggregate(&refs(&v), &w);
        assert!(
            (krum.as_slice()[0] - 1.0).abs() < 0.2,
            "krum picked {:?}",
            krum.as_slice()
        );
    }

    #[test]
    fn multi_krum_averages_benign_cluster() {
        let v = updates();
        let w = vec![1.0; 6];
        let mk = Aggregator::MultiKrum { f: 1, m: 3 }.aggregate(&refs(&v), &w);
        assert!((mk.as_slice()[0] - 1.0).abs() < 0.2);
        assert!((mk.as_slice()[1] - 1.0).abs() < 0.2);
    }

    #[test]
    fn median_robust_to_minority() {
        let v = updates();
        let w = vec![1.0; 6];
        let med = Aggregator::Median.aggregate(&refs(&v), &w);
        assert!((med.as_slice()[0] - 1.0).abs() < 0.15);
        assert!((med.as_slice()[1] - 1.0).abs() < 0.15);
    }

    #[test]
    fn trimmed_mean_drops_extremes() {
        let v = updates();
        let w = vec![1.0; 6];
        let tm = Aggregator::TrimmedMean { beta: 0.2 }.aggregate(&refs(&v), &w);
        assert!((tm.as_slice()[0] - 1.0).abs() < 0.15, "{:?}", tm.as_slice());
    }

    #[test]
    fn median_even_count_interpolates() {
        let v = vec![ParamVec(vec![0.0]), ParamVec(vec![2.0])];
        let med = coordinate_median(&refs(&v));
        assert_eq!(med.as_slice(), &[1.0]);
    }

    #[test]
    #[should_panic(expected = "n > f + 2")]
    fn krum_needs_enough_updates() {
        let v = vec![
            ParamVec(vec![0.0]),
            ParamVec(vec![1.0]),
            ParamVec(vec![2.0]),
        ];
        krum_scores(&refs(&v), 1);
    }

    #[test]
    fn krum_scores_rank_outlier_last() {
        let v = updates();
        let scores = krum_scores(&refs(&v), 1);
        let worst = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(worst, 5, "outlier should have the worst Krum score");
    }
}
