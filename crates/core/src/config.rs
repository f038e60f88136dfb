//! Hyperparameters of the learning tangle.

use serde::{Deserialize, Serialize};

/// Tangle-learning hyperparameters (the quantities swept in the paper's
/// Table II and fixed for the attack experiments in §V-B).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TangleHyperParams {
    /// `n`: number of tips averaged as the training base and approved by
    /// the published transaction (paper: 2, optimized: 3).
    pub num_tips: usize,
    /// Number of random-walk samples drawn when choosing candidate tips.
    /// With [`Self::tip_validation`] enabled, candidates are validated on
    /// local data and the best `num_tips` are kept (§III-E). Without it,
    /// the first `num_tips` walks are used directly (basic Algorithm 2).
    pub sample_size: usize,
    /// Number of top `confidence × rating` transactions averaged into the
    /// reference model (paper Table II: 1, 2, 10 or 50).
    pub reference_avg: usize,
    /// Read by nothing: confidence is computed exactly from the walk
    /// table, where it was once estimated by this many Monte-Carlo walks
    /// (the paper sets it to the number of active nodes per round). Kept
    /// so that struct literals naming it still compile.
    #[deprecated(note = "read by nothing: confidence is exact, not sampled")]
    pub confidence_samples: usize,
    /// Randomness parameter α of the weighted random walk.
    pub alpha: f64,
    /// Enable the §III-E defense: validate each sampled candidate tip's
    /// model locally and average the best-performing ones.
    pub tip_validation: bool,
    /// Windowed tip selection (§IV): start walks from particles whose
    /// depth lies in `[w, 2w]` instead of the genesis, as the original
    /// tangle authors propose for scalability. `None` = walk from genesis
    /// (the paper prototype's behaviour).
    pub window: Option<u32>,
    /// §VI outlook: weight the random walk by local model performance.
    /// When > 0, each node evaluates every transaction's model on its local
    /// validation data and adds `accuracy_bias · accuracy` (in
    /// cumulative-weight units) to the walk weights. Expensive — intended
    /// for small networks / the sub-tangle clustering study.
    pub accuracy_bias: f64,
}

impl TangleHyperParams {
    /// The paper's basic configuration: "2 selected tips and a single model
    /// chosen as consensus model", no candidate validation.
    #[allow(deprecated)]
    pub fn basic() -> Self {
        Self {
            num_tips: 2,
            sample_size: 2,
            reference_avg: 1,
            confidence_samples: 35,
            alpha: 0.05,
            tip_validation: false,
            window: None,
            accuracy_bias: 0.0,
        }
    }

    /// The paper's hyperparameter-optimized configuration: "nodes selected
    /// 3 tips and used a reference model averaged from 10 models".
    #[allow(deprecated)]
    pub fn optimized() -> Self {
        Self {
            num_tips: 3,
            sample_size: 3,
            reference_avg: 10,
            confidence_samples: 35,
            alpha: 0.05,
            tip_validation: false,
            window: None,
            accuracy_bias: 0.0,
        }
    }

    /// The §V-B attack-experiment configuration: sampling rounds for both
    /// consensus and parent selection equal to the active nodes per round,
    /// with local candidate validation enabled.
    #[allow(deprecated)]
    pub fn robust(nodes_per_round: usize) -> Self {
        Self {
            num_tips: 2,
            sample_size: nodes_per_round,
            reference_avg: 10,
            confidence_samples: nodes_per_round,
            alpha: 0.05,
            tip_validation: true,
            window: None,
            accuracy_bias: 0.0,
        }
    }
}

/// Simulated network conditions (the paper's §VI outlook: "considering
/// faults introduced by real-world network conditions").
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct NetworkModel {
    /// Maximum propagation delay in rounds: each participating node sees
    /// the ledger as of `d` rounds ago, `d ~ U(0..=max_delay_rounds)`
    /// (0 = the usual one-round visibility barrier).
    pub max_delay_rounds: u64,
    /// Probability that a node's publication is lost in transit and never
    /// reaches the ledger.
    pub publish_loss: f64,
}

/// Full simulation configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SimConfig {
    /// Active (sampled) nodes per round.
    pub nodes_per_round: usize,
    /// Local SGD epochs per participation (paper Table I: 1).
    pub local_epochs: usize,
    /// Local SGD learning rate.
    pub lr: f32,
    /// Local mini-batch size.
    pub batch_size: usize,
    /// Fraction of nodes whose held-out data is pooled for evaluation
    /// (paper: 10%).
    pub eval_fraction: f32,
    /// Master seed: all node sampling, walks and shuffles derive from it.
    pub seed: u64,
    /// Tangle hyperparameters.
    pub hyper: TangleHyperParams,
    /// Optional lossy-network simulation; `None` = ideal network with the
    /// standard one-round visibility barrier.
    pub network: Option<NetworkModel>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            nodes_per_round: 10,
            local_epochs: 1,
            lr: 0.06,
            batch_size: 16,
            eval_fraction: 0.1,
            seed: 0,
            hyper: TangleHyperParams::basic(),
            network: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper() {
        let b = TangleHyperParams::basic();
        assert_eq!((b.num_tips, b.reference_avg), (2, 1));
        assert!(!b.tip_validation);
        let o = TangleHyperParams::optimized();
        assert_eq!((o.num_tips, o.reference_avg), (3, 10));
        let r = TangleHyperParams::robust(35);
        assert_eq!(r.sample_size, 35);
        assert!(r.tip_validation);
    }

    #[test]
    fn config_serializes() {
        let cfg = SimConfig::default();
        let json = serde_json::to_string(&cfg).unwrap();
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.nodes_per_round, cfg.nodes_per_round);
        assert_eq!(back.hyper.num_tips, cfg.hyper.num_tips);
    }
}
