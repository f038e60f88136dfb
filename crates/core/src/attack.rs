//! Adversary construction: declare a fraction of the population malicious
//! (paper §V-B: p ∈ {0.1, 0.2, 0.25, 0.3}), activated after a benign
//! pre-training phase.

use crate::node::{Node, NodeKind};
use feddata::poison::label_flip_client;
use feddata::ClientData;
use rand::RngExt;
use tinynn::rng::seeded;

/// The two poisoning attacks evaluated in the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttackKind {
    /// Indiscriminate: publish standard-normal random parameters (Fig. 5).
    RandomNoise,
    /// Targeted: train on `src`-class samples labelled `dst` (Fig. 6,
    /// paper instance: 3 → 8).
    LabelFlip {
        /// True class of the mislabeled samples.
        src: u32,
        /// Label assigned by the attacker.
        dst: u32,
    },
    /// Backdoor: train on clean data plus trigger-stamped copies labelled
    /// `target` (the paper outlook's "different classes of poisoning
    /// attacks"; requires image data `[N, C, H, W]`).
    Backdoor {
        /// Class the trigger activates.
        target: u32,
        /// Side length of the corner trigger patch.
        patch: usize,
    },
}

/// Select `⌊fraction · n⌋` (at least 1 when `fraction > 0`) random nodes
/// and turn them into attackers of `kind`, active from `from_round`.
///
/// For [`AttackKind::LabelFlip`], each attacker's dataset is replaced using
/// `flip_source`; pass [`default_flip_source`] to carve the mislabeled set
/// out of the node's own data, or a custom closure.
///
/// Returns the chosen node indices.
pub fn assign_malicious(
    nodes: &mut [Node],
    fraction: f64,
    from_round: u64,
    kind: AttackKind,
    seed: u64,
    flip_source: impl Fn(&Node) -> Option<ClientData>,
) -> Vec<usize> {
    assert!((0.0..=1.0).contains(&fraction), "fraction out of range");
    let n = nodes.len();
    let mut count = (fraction * n as f64).floor() as usize;
    if fraction > 0.0 {
        count = count.max(1);
    }
    let mut rng = seeded(seed);
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        idx.swap(i, j);
    }
    idx.truncate(count);
    for &i in &idx {
        match kind {
            AttackKind::RandomNoise => {
                nodes[i].kind = NodeKind::RandomPoisoner { from_round };
            }
            AttackKind::LabelFlip { src, dst } => {
                let poisoned = flip_source(&nodes[i]).unwrap_or_else(|| {
                    // Fallback: the attacker relabels everything it owns.
                    let mut d = nodes[i].data.clone();
                    d.train_y.iter_mut().for_each(|y| *y = dst);
                    d.test_y.iter_mut().for_each(|y| *y = dst);
                    d
                });
                nodes[i].poisoned_data = Some(poisoned);
                nodes[i].kind = NodeKind::LabelFlipper {
                    from_round,
                    src,
                    dst,
                };
            }
            AttackKind::Backdoor { target, patch } => {
                nodes[i].poisoned_data = Some(feddata::poison::backdoor_client(
                    &nodes[i].data,
                    target,
                    patch,
                    1.0,
                ));
                nodes[i].kind = NodeKind::Backdoor { from_round, target };
            }
        }
    }
    idx.sort_unstable();
    idx
}

/// The default label-flip source: keep the node's own `src`-class samples,
/// relabelled `dst` (paper §III-E).
pub fn default_flip_source(src: u32, dst: u32) -> impl Fn(&Node) -> Option<ClientData> {
    move |node: &Node| label_flip_client(&node.data, src, dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use feddata::blobs::{self, BlobsConfig};

    fn nodes() -> Vec<Node> {
        let ds = blobs::generate(
            &BlobsConfig {
                users: 10,
                ..BlobsConfig::default()
            },
            3,
        );
        ds.clients
            .into_iter()
            .enumerate()
            .map(|(i, c)| Node::honest(i, c))
            .collect()
    }

    #[test]
    fn fraction_counts() {
        let mut ns = nodes();
        let chosen = assign_malicious(&mut ns, 0.3, 5, AttackKind::RandomNoise, 1, |_| None);
        assert_eq!(chosen.len(), 3);
        for &i in &chosen {
            assert_eq!(ns[i].kind, NodeKind::RandomPoisoner { from_round: 5 });
        }
        let honest = ns.iter().filter(|n| n.kind == NodeKind::Honest).count();
        assert_eq!(honest, 7);
    }

    #[test]
    fn zero_fraction_selects_nobody() {
        let mut ns = nodes();
        let chosen = assign_malicious(&mut ns, 0.0, 5, AttackKind::RandomNoise, 1, |_| None);
        assert!(chosen.is_empty());
    }

    #[test]
    fn small_positive_fraction_selects_at_least_one() {
        let mut ns = nodes();
        let chosen = assign_malicious(&mut ns, 0.01, 5, AttackKind::RandomNoise, 1, |_| None);
        assert_eq!(chosen.len(), 1);
    }

    #[test]
    fn label_flip_installs_poisoned_data() {
        let mut ns = nodes();
        let kind = AttackKind::LabelFlip { src: 0, dst: 3 };
        let chosen = assign_malicious(&mut ns, 0.2, 7, kind, 2, default_flip_source(0, 3));
        assert_eq!(chosen.len(), 2);
        for &i in &chosen {
            let d = ns[i].poisoned_data.as_ref().expect("poisoned data set");
            assert!(d.train_y.iter().all(|&y| y == 3));
            assert!(d.test_y.iter().all(|&y| y == 3));
        }
    }

    #[test]
    fn fallback_relabels_everything() {
        let mut ns = nodes();
        // Source class 99 does not exist, so every flipper hits the fallback.
        let kind = AttackKind::LabelFlip { src: 99, dst: 1 };
        let chosen = assign_malicious(&mut ns, 0.2, 7, kind, 4, default_flip_source(99, 1));
        for &i in &chosen {
            let d = ns[i].poisoned_data.as_ref().unwrap();
            assert_eq!(d.train_len(), ns[i].data.train_len());
            assert!(d.train_y.iter().all(|&y| y == 1));
        }
    }

    #[test]
    fn selection_is_deterministic() {
        let mut a = nodes();
        let mut b = nodes();
        let ka = assign_malicious(&mut a, 0.3, 1, AttackKind::RandomNoise, 9, |_| None);
        let kb = assign_malicious(&mut b, 0.3, 1, AttackKind::RandomNoise, 9, |_| None);
        assert_eq!(ka, kb);
    }
}
