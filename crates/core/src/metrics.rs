//! Experiment metrics: per-round series and Table II helpers.

use serde::{Deserialize, Serialize};

/// One evaluation point of a run.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MetricPoint {
    /// Training round at which the evaluation happened.
    pub round: u64,
    /// Consensus-model accuracy on the pooled evaluation data.
    pub accuracy: f32,
    /// Consensus-model loss on the pooled evaluation data.
    pub loss: f32,
    /// Fraction of `src`-class evaluation samples predicted as `dst`
    /// (only recorded during targeted-attack runs — Fig. 6b).
    pub target_misclassification: Option<f32>,
    /// Number of tips at evaluation time (None for FedAvg baselines).
    pub tips: Option<usize>,
}

/// A named series of evaluation points, serializable for EXPERIMENTS.md.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct MetricsLog {
    /// Label of the run (e.g. "tangle-opt-35nodes").
    pub label: String,
    /// The evaluation points, in round order.
    pub points: Vec<MetricPoint>,
}

impl MetricsLog {
    /// Create an empty log with a label.
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Append a point.
    pub fn push(&mut self, p: MetricPoint) {
        self.points.push(p);
    }

    /// The last recorded accuracy.
    pub fn final_accuracy(&self) -> Option<f32> {
        self.points.last().map(|p| p.accuracy)
    }
}

/// Table II metric: the first round at which the accuracy reached
/// `threshold`, or `None` if it never did.
pub fn rounds_to_reach(log: &MetricsLog, threshold: f32) -> Option<u64> {
    log.points
        .iter()
        .find(|p| p.accuracy >= threshold)
        .map(|p| p.round)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log() -> MetricsLog {
        let mut l = MetricsLog::new("test");
        for (r, a) in [(20u64, 0.3f32), (40, 0.55), (60, 0.72), (80, 0.70)] {
            l.push(MetricPoint {
                round: r,
                accuracy: a,
                loss: 1.0 - a,
                target_misclassification: None,
                tips: Some(5),
            });
        }
        l
    }

    #[test]
    fn rounds_to_reach_finds_first_crossing() {
        let l = log();
        assert_eq!(rounds_to_reach(&l, 0.7), Some(60));
        assert_eq!(rounds_to_reach(&l, 0.1), Some(20));
        assert_eq!(rounds_to_reach(&l, 0.9), None);
    }

    #[test]
    fn accessors() {
        let l = log();
        assert_eq!(l.final_accuracy(), Some(0.70));
        assert_eq!(MetricsLog::new("x").final_accuracy(), None);
    }

    #[test]
    fn serializes_roundtrip() {
        let l = log();
        let json = serde_json::to_string(&l).unwrap();
        let back: MetricsLog = serde_json::from_str(&json).unwrap();
        assert_eq!(back.points.len(), 4);
        assert_eq!(back.label, "test");
    }
}
