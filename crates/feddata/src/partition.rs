//! Non-IID partitioning utilities.
//!
//! Federated datasets are characterized by label-skewed client
//! distributions. The standard construction, used here, is a per-class
//! Dirichlet allocation (smaller α → more skew).

use rand::RngExt;
use rand_distr::{Distribution, Gamma};

/// Sample a probability vector from `Dirichlet(alpha, ..., alpha)` of
/// dimension `k`, via normalized Gamma draws.
pub(crate) fn dirichlet_proportions(alpha: f64, k: usize, rng: &mut impl RngExt) -> Vec<f64> {
    assert!(alpha > 0.0 && k > 0, "invalid Dirichlet parameters");
    let gamma = Gamma::new(alpha, 1.0).expect("valid gamma parameters");
    let mut draws: Vec<f64> = (0..k).map(|_| gamma.sample(rng).max(1e-300)).collect();
    let total: f64 = draws.iter().sum();
    for d in &mut draws {
        *d /= total;
    }
    draws
}

/// Partition sample indices across `users` with per-class Dirichlet skew:
/// for every class, a `Dirichlet(alpha)` draw decides what fraction of that
/// class's samples each user receives.
///
/// Returns `users` index lists covering all input indices exactly once.
pub fn dirichlet_partition(
    labels: &[u32],
    classes: usize,
    users: usize,
    alpha: f64,
    rng: &mut impl RngExt,
) -> Vec<Vec<usize>> {
    assert!(users > 0, "need at least one user");
    let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); classes];
    for (i, &l) in labels.iter().enumerate() {
        assert!((l as usize) < classes, "label {l} out of range");
        by_class[l as usize].push(i);
    }
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); users];
    for class_indices in by_class {
        if class_indices.is_empty() {
            continue;
        }
        let props = dirichlet_proportions(alpha, users, rng);
        // Convert proportions to integer counts that sum to the class size.
        let n = class_indices.len();
        let mut counts: Vec<usize> = props.iter().map(|p| (p * n as f64) as usize).collect();
        let mut assigned: usize = counts.iter().sum();
        // Distribute the remainder to the largest fractional parts (here:
        // round-robin over users by proportion order, deterministic).
        let mut order: Vec<usize> = (0..users).collect();
        order.sort_unstable_by(|&a, &b| {
            props[b].partial_cmp(&props[a]).expect("finite proportions")
        });
        let mut oi = 0;
        while assigned < n {
            counts[order[oi % users]] += 1;
            assigned += 1;
            oi += 1;
        }
        let mut offset = 0;
        for (u, &c) in counts.iter().enumerate() {
            out[u].extend_from_slice(&class_indices[offset..offset + c]);
            offset += c;
        }
    }
    out
}

/// Herfindahl-style label-concentration score of one user's labels:
/// 1/classes (uniform) .. 1.0 (single class). Used in tests to verify that
/// small α produces more skew.
#[cfg(test)]
pub(crate) fn label_concentration(labels: &[u32], classes: usize) -> f64 {
    if labels.is_empty() {
        return 0.0;
    }
    let mut counts = vec![0usize; classes];
    for &l in labels {
        counts[l as usize] += 1;
    }
    let n = labels.len() as f64;
    counts.iter().map(|&c| (c as f64 / n).powi(2)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::SmallRng {
        rand::rngs::SmallRng::seed_from_u64(seed)
    }

    fn labels(n: usize, classes: usize) -> Vec<u32> {
        (0..n).map(|i| (i % classes) as u32).collect()
    }

    #[test]
    fn proportions_sum_to_one() {
        let mut r = rng(1);
        let p = dirichlet_proportions(0.5, 10, &mut r);
        assert_eq!(p.len(), 10);
        let s: f64 = p.iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn dirichlet_partition_covers_everything() {
        let mut r = rng(2);
        let ls = labels(300, 5);
        let parts = dirichlet_partition(&ls, 5, 7, 0.5, &mut r);
        assert_eq!(parts.len(), 7);
        let mut all: Vec<usize> = parts.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..300).collect::<Vec<_>>());
    }

    #[test]
    fn small_alpha_more_skewed_than_large() {
        let mut r = rng(3);
        let ls = labels(2000, 10);
        let skewed = dirichlet_partition(&ls, 10, 10, 0.1, &mut r);
        let uniform = dirichlet_partition(&ls, 10, 10, 100.0, &mut r);
        let mean_conc = |parts: &[Vec<usize>]| {
            let cs: Vec<f64> = parts
                .iter()
                .filter(|p| !p.is_empty())
                .map(|p| {
                    let user_labels: Vec<u32> = p.iter().map(|&i| ls[i]).collect();
                    label_concentration(&user_labels, 10)
                })
                .collect();
            cs.iter().sum::<f64>() / cs.len() as f64
        };
        assert!(
            mean_conc(&skewed) > mean_conc(&uniform) + 0.05,
            "alpha=0.1 should be visibly more skewed: {} vs {}",
            mean_conc(&skewed),
            mean_conc(&uniform)
        );
    }

    #[test]
    fn concentration_extremes() {
        assert!((label_concentration(&[1, 1, 1], 4) - 1.0).abs() < 1e-12);
        assert!((label_concentration(&[0, 1, 2, 3], 4) - 0.25).abs() < 1e-12);
        assert_eq!(label_concentration(&[], 4), 0.0);
    }
}
