//! Classification metrics beyond plain accuracy: confusion matrices,
//! per-class precision/recall/F1 — used by the attack analysis (which
//! misclassification did the label flip cause?) and by downstream users.

use crate::loss::predictions;
use crate::tensor::Tensor;

/// A `classes × classes` confusion matrix: `m[true][pred]` counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfusionMatrix {
    classes: usize,
    counts: Vec<u32>,
}

impl ConfusionMatrix {
    /// An empty matrix over `classes` classes.
    pub fn new(classes: usize) -> Self {
        Self {
            classes,
            counts: vec![0; classes * classes],
        }
    }

    /// Build from model logits and targets.
    pub fn from_logits(logits: &Tensor, targets: &[u32], classes: usize) -> Self {
        let mut m = Self::new(classes);
        for (p, &t) in predictions(logits).iter().zip(targets) {
            m.record(t, *p);
        }
        m
    }

    /// Record one observation.
    pub(crate) fn record(&mut self, truth: u32, pred: u32) {
        assert!(
            (truth as usize) < self.classes && (pred as usize) < self.classes,
            "class out of range"
        );
        self.counts[truth as usize * self.classes + pred as usize] += 1;
    }

    /// Merge another matrix into this one.
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        assert_eq!(self.classes, other.classes);
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Count at `(truth, pred)`.
    #[cfg(test)]
    fn get(&self, truth: u32, pred: u32) -> u32 {
        self.counts[truth as usize * self.classes + pred as usize]
    }

    /// Total observations.
    pub(crate) fn total(&self) -> u32 {
        self.counts.iter().sum()
    }

    /// Overall accuracy.
    pub fn accuracy(&self) -> f32 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let correct: u32 = (0..self.classes)
            .map(|c| self.counts[c * self.classes + c])
            .sum();
        correct as f32 / total as f32
    }

    /// Precision of one class: `tp / (tp + fp)` (0 when undefined).
    pub(crate) fn precision(&self, class: u32) -> f32 {
        let c = class as usize;
        let tp = self.counts[c * self.classes + c] as f32;
        let predicted: u32 = (0..self.classes)
            .map(|t| self.counts[t * self.classes + c])
            .sum();
        if predicted == 0 {
            0.0
        } else {
            tp / predicted as f32
        }
    }

    /// Recall of one class: `tp / (tp + fn)` (0 when undefined).
    pub(crate) fn recall(&self, class: u32) -> f32 {
        let c = class as usize;
        let tp = self.counts[c * self.classes + c] as f32;
        let actual: u32 = self.counts[c * self.classes..(c + 1) * self.classes]
            .iter()
            .sum();
        if actual == 0 {
            0.0
        } else {
            tp / actual as f32
        }
    }

    /// F1 score of one class (harmonic mean of precision and recall).
    pub fn f1(&self, class: u32) -> f32 {
        let p = self.precision(class);
        let r = self.recall(class);
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Macro-averaged F1 over all classes.
    pub fn macro_f1(&self) -> f32 {
        (0..self.classes as u32).map(|c| self.f1(c)).sum::<f32>() / self.classes as f32
    }
}

impl std::fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "true\\pred")?;
        for c in 0..self.classes {
            write!(f, " {c:>5}")?;
        }
        writeln!(f)?;
        for t in 0..self.classes {
            write!(f, "{t:>9}")?;
            for p in 0..self.classes {
                write!(f, " {:>5}", self.counts[t * self.classes + p])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ConfusionMatrix {
        // 2 classes: 3 correct 0s, 1 (0 -> 1), 2 correct 1s, 2 (1 -> 0)
        let mut m = ConfusionMatrix::new(2);
        for _ in 0..3 {
            m.record(0, 0);
        }
        m.record(0, 1);
        for _ in 0..2 {
            m.record(1, 1);
        }
        for _ in 0..2 {
            m.record(1, 0);
        }
        m
    }

    #[test]
    fn accuracy_and_counts() {
        let m = sample();
        assert_eq!(m.total(), 8);
        assert_eq!(m.get(0, 0), 3);
        assert_eq!(m.get(1, 0), 2);
        assert!((m.accuracy() - 5.0 / 8.0).abs() < 1e-6);
    }

    #[test]
    fn precision_recall_f1() {
        let m = sample();
        // class 0: tp=3, fp=2, fn=1
        assert!((m.precision(0) - 3.0 / 5.0).abs() < 1e-6);
        assert!((m.recall(0) - 3.0 / 4.0).abs() < 1e-6);
        let p = 0.6f32;
        let r = 0.75f32;
        assert!((m.f1(0) - 2.0 * p * r / (p + r)).abs() < 1e-6);
        assert!(m.macro_f1() > 0.0);
    }

    #[test]
    fn from_logits_and_merge() {
        let logits = Tensor::from_vec(vec![3, 2], vec![2.0, 0.0, 0.0, 2.0, 2.0, 0.0]);
        let m1 = ConfusionMatrix::from_logits(&logits, &[0, 1, 1], 2);
        assert_eq!(m1.get(0, 0), 1);
        assert_eq!(m1.get(1, 1), 1);
        assert_eq!(m1.get(1, 0), 1);
        let mut m2 = m1.clone();
        m2.merge(&m1);
        assert_eq!(m2.total(), 6);
    }

    #[test]
    fn display_renders_grid() {
        let m = sample();
        let s = m.to_string();
        assert!(s.contains("true\\pred"));
        assert!(s.lines().count() >= 3);
    }

    #[test]
    fn empty_matrix_edge_cases() {
        let m = ConfusionMatrix::new(4);
        assert_eq!(m.accuracy(), 0.0);
        assert_eq!(m.precision(0), 0.0);
        assert_eq!(m.recall(0), 0.0);
        assert_eq!(m.f1(0), 0.0);
    }
}
