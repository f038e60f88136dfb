//! Linkability analysis (paper §III-D).
//!
//! The paper leaves open "the relatedness of transactions published by the
//! same participant": if updates from one node look alike, an attacker can
//! link anonymous transactions back to a participant (Orekondy et al., the
//! paper's reference \[6\]). This module operationalizes that question:
//!
//! * [`linkability_report`] measures how much more similar same-issuer
//!   publications are than cross-issuer ones, and
//! * [`linkability_attack_accuracy`] runs the attack itself — assign each
//!   transaction to the issuer of its most similar predecessor — and
//!   reports how often it is right.
//!
//! Applying [`crate::dp`] noise before publishing is the mitigation the
//! paper points to; the report quantifies how much it helps.

use crate::node::ModelParams;
use tangle_ledger::Tangle;
use tinynn::ParamVec;

/// Cosine similarity between two parameter vectors.
pub(crate) fn cosine(a: &ParamVec, b: &ParamVec) -> f32 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut dot = 0.0f64;
    let mut na = 0.0f64;
    let mut nb = 0.0f64;
    for (&x, &y) in a.as_slice().iter().zip(b.as_slice()) {
        dot += (x as f64) * (y as f64);
        na += (x as f64) * (x as f64);
        nb += (y as f64) * (y as f64);
    }
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dot / (na.sqrt() * nb.sqrt())) as f32
}

/// Similarity statistics of a ledger's publications.
#[derive(Clone, Copy, Debug)]
pub struct LinkabilityReport {
    /// Mean cosine similarity between *consecutive publications of the
    /// same issuer* (the linkability signal).
    pub same_issuer_mean: f32,
    /// Mean cosine similarity between publications of *different issuers*
    /// adjacent in ledger order (the background level).
    pub cross_issuer_mean: f32,
    /// Number of same-issuer pairs measured.
    pub same_pairs: usize,
    /// Number of cross-issuer pairs measured.
    pub cross_pairs: usize,
}

impl LinkabilityReport {
    /// `same − cross`: > 0 means same-issuer updates are distinguishable.
    pub fn signal(&self) -> f32 {
        self.same_issuer_mean - self.cross_issuer_mean
    }
}

/// Measure raw-parameter linkability. Uses the *update* (difference to the
/// averaged parents) rather than the full parameters — full parameter
/// vectors are dominated by the shared consensus and would look similar
/// for everyone.
pub fn linkability_report(tangle: &Tangle<ModelParams>) -> LinkabilityReport {
    let updates = updates_by_tx(tangle);
    let mut same = Vec::new();
    let mut cross = Vec::new();
    // Consecutive publications per issuer.
    let mut last_of_issuer: std::collections::HashMap<u64, usize> =
        std::collections::HashMap::new();
    let mut prev_any: Option<(u64, usize)> = None;
    for (i, (issuer, upd)) in updates.iter().enumerate() {
        if upd.is_none() {
            continue;
        }
        if let Some(&j) = last_of_issuer.get(issuer) {
            if let (Some(a), Some(b)) = (&updates[j].1, upd) {
                same.push(cosine(a, b));
            }
        }
        if let Some((prev_issuer, j)) = prev_any {
            if prev_issuer != *issuer {
                if let (Some(a), Some(b)) = (&updates[j].1, upd) {
                    cross.push(cosine(a, b));
                }
            }
        }
        last_of_issuer.insert(*issuer, i);
        prev_any = Some((*issuer, i));
    }
    let mean = |v: &[f32]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f32>() / v.len() as f32
        }
    };
    LinkabilityReport {
        same_issuer_mean: mean(&same),
        cross_issuer_mean: mean(&cross),
        same_pairs: same.len(),
        cross_pairs: cross.len(),
    }
}

/// Run the linkability attack: for every transaction whose issuer has
/// published before, guess that its issuer is the issuer of the most
/// similar *earlier* update. Returns `(accuracy, decisions)`; chance level
/// is roughly `1 / distinct_issuers`.
pub fn linkability_attack_accuracy(tangle: &Tangle<ModelParams>) -> (f32, usize) {
    let updates = updates_by_tx(tangle);
    let mut hits = 0usize;
    let mut total = 0usize;
    for i in 1..updates.len() {
        let (truth, Some(upd)) = (&updates[i].0, &updates[i].1) else {
            continue;
        };
        // Only score transactions whose issuer appeared before (otherwise
        // the attack cannot possibly be right).
        let seen_before = updates[..i]
            .iter()
            .any(|(iss, u)| iss == truth && u.is_some());
        if !seen_before {
            continue;
        }
        let mut best: Option<(f32, u64)> = None;
        for (iss, u) in &updates[..i] {
            if let Some(u) = u {
                let s = cosine(upd, u);
                if best.is_none_or(|(bs, _)| s > bs) {
                    best = Some((s, *iss));
                }
            }
        }
        if let Some((_, guessed)) = best {
            total += 1;
            if guessed == *truth {
                hits += 1;
            }
        }
    }
    (
        if total == 0 {
            0.0
        } else {
            hits as f32 / total as f32
        },
        total,
    )
}

/// Per transaction: `(issuer, update)` where the update is the difference
/// to the averaged parents (None for the genesis).
fn updates_by_tx(tangle: &Tangle<ModelParams>) -> Vec<(u64, Option<ParamVec>)> {
    tangle
        .transactions()
        .iter()
        .map(|tx| {
            if tx.parents.is_empty() {
                return (tx.issuer, None);
            }
            let parents: Vec<&ParamVec> = tx
                .parents
                .iter()
                .map(|p| tangle.get(*p).payload.as_ref())
                .collect();
            let base = ParamVec::average(&parents);
            let delta = ParamVec(
                tx.payload
                    .as_slice()
                    .iter()
                    .zip(base.as_slice())
                    .map(|(a, b)| a - b)
                    .collect(),
            );
            (tx.issuer, Some(delta))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn cosine_basics() {
        let a = ParamVec(vec![1.0, 0.0]);
        let b = ParamVec(vec![2.0, 0.0]);
        let c = ParamVec(vec![0.0, 1.0]);
        let d = ParamVec(vec![-1.0, 0.0]);
        assert!((cosine(&a, &b) - 1.0).abs() < 1e-6);
        assert!(cosine(&a, &c).abs() < 1e-6);
        assert!((cosine(&a, &d) + 1.0).abs() < 1e-6);
        assert_eq!(cosine(&a, &ParamVec(vec![0.0, 0.0])), 0.0);
    }

    /// Two issuers with characteristic update directions: the report must
    /// find strong same-issuer similarity, and the attack must link them.
    #[test]
    fn distinct_signatures_are_linkable() {
        let mut t = Tangle::new(Arc::new(ParamVec(vec![0.0, 0.0])));
        let dirs = [(1.0f32, 0.1f32), (0.1, 1.0)]; // issuer 0, issuer 1
        let mut cur = vec![0.0f32, 0.0];
        for step in 0..8u64 {
            let issuer = (step % 2) as usize;
            cur[0] += dirs[issuer].0;
            cur[1] += dirs[issuer].1;
            let tips = t.tips();
            t.add_meta(Arc::new(ParamVec(cur.clone())), tips, issuer as u64, step)
                .unwrap();
        }
        let report = linkability_report(&t);
        assert!(report.same_pairs > 0 && report.cross_pairs > 0);
        assert!(
            report.signal() > 0.2,
            "distinct directions should be linkable: {report:?}"
        );
        let (acc, n) = linkability_attack_accuracy(&t);
        assert!(n > 0);
        assert!(acc > 0.6, "attack should beat 2-issuer chance: {acc}");
    }

    /// Identical update directions are not linkable: the signal collapses.
    #[test]
    fn identical_behaviour_is_not_linkable() {
        let mut t = Tangle::new(Arc::new(ParamVec(vec![0.0, 0.0])));
        let mut cur = vec![0.0f32, 0.0];
        for step in 0..8u64 {
            cur[0] += 1.0; // everyone moves the same way
            let tips = t.tips();
            t.add_meta(Arc::new(ParamVec(cur.clone())), tips, step % 2, step)
                .unwrap();
        }
        let report = linkability_report(&t);
        assert!(
            report.signal().abs() < 0.05,
            "identical updates should not be linkable: {report:?}"
        );
    }

    #[test]
    fn genesis_only_ledger_is_trivial() {
        let t: Tangle<ModelParams> = Tangle::new(Arc::new(ParamVec(vec![1.0])));
        let r = linkability_report(&t);
        assert_eq!(r.same_pairs, 0);
        assert_eq!(linkability_attack_accuracy(&t), (0.0, 0));
    }
}
