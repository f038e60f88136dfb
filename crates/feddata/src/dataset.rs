//! Core federated-dataset types shared by all generators.

use serde::{Deserialize, Serialize};
use tinynn::Tensor;

/// What kind of task the dataset encodes — determines how many target rows
/// each input sample produces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TaskKind {
    /// One label per sample (images, vectors).
    Classification,
    /// One label per timestep (next-character prediction): a `[N, T]` input
    /// has `N·T` target rows.
    SequencePrediction,
}

/// Dataset-level metadata (the quantities reported in the paper's Table I).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DatasetMeta {
    /// Human-readable dataset name.
    pub name: String,
    /// Number of target classes (62 for FEMNIST, vocabulary size for text).
    pub classes: usize,
    /// Number of users (clients).
    pub users: usize,
    /// Train fraction of each user's local data.
    pub train_split: f32,
    /// Minimum samples a user was required to have.
    pub min_samples_per_user: usize,
    /// Task kind.
    pub task: TaskKind,
    /// Shape of one input sample (e.g. `[1, 16, 16]` or `[seq_len]`).
    pub sample_shape: Vec<usize>,
}

/// One client's local data: a private train set and a private held-out set.
///
/// The held-out set plays the role of the paper's "local validation data" —
/// it gates whether a trained model is published (Algorithm 2) — and is
/// also what the global evaluation samples from.
#[derive(Clone, Debug)]
pub struct ClientData {
    /// Training inputs, leading axis = samples.
    pub train_x: Tensor,
    /// Training targets (one per target row, see [`TaskKind`]).
    pub train_y: Vec<u32>,
    /// Held-out inputs.
    pub test_x: Tensor,
    /// Held-out targets.
    pub test_y: Vec<u32>,
}

impl ClientData {
    /// Number of training samples (leading axis of `train_x`).
    pub fn train_len(&self) -> usize {
        if self.train_x.is_empty() {
            0
        } else {
            self.train_x.shape()[0]
        }
    }

    /// Number of held-out samples.
    pub fn test_len(&self) -> usize {
        if self.test_x.is_empty() {
            0
        } else {
            self.test_x.shape()[0]
        }
    }
}

/// A complete federated dataset: per-client local data plus metadata.
#[derive(Clone, Debug)]
pub struct FederatedDataset {
    /// Dataset-level metadata.
    pub meta: DatasetMeta,
    /// One entry per client.
    pub clients: Vec<ClientData>,
}

impl FederatedDataset {
    /// Number of clients.
    pub fn num_clients(&self) -> usize {
        self.clients.len()
    }

    /// Total training samples across clients.
    pub fn total_train_samples(&self) -> usize {
        self.clients.iter().map(ClientData::train_len).sum()
    }

    /// Total held-out samples across clients.
    pub fn total_test_samples(&self) -> usize {
        self.clients.iter().map(ClientData::test_len).sum()
    }

    /// Table I-style one-line summary.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} users, {} classes, {} train / {} test samples, split {:.2}, min/user {}",
            self.meta.name,
            self.meta.users,
            self.meta.classes,
            self.total_train_samples(),
            self.total_test_samples(),
            self.meta.train_split,
            self.meta.min_samples_per_user,
        )
    }
}

/// Split `n` sample indices into train/test by `train_split`, deterministic
/// per `rng`. Every client keeps at least one sample on each side whenever
/// `n >= 2`.
pub(crate) fn train_test_split(
    n: usize,
    train_split: f32,
    rng: &mut impl rand::RngExt,
) -> (Vec<usize>, Vec<usize>) {
    let mut idx: Vec<usize> = (0..n).collect();
    // Fisher-Yates shuffle
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        idx.swap(i, j);
    }
    let mut cut = ((n as f32) * train_split).round() as usize;
    if n >= 2 {
        cut = cut.clamp(1, n - 1);
    } else {
        cut = n;
    }
    let test = idx.split_off(cut);
    (idx, test)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::SmallRng {
        rand::rngs::SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn split_covers_all_indices() {
        let mut r = rng(1);
        let (train, test) = train_test_split(10, 0.8, &mut r);
        assert_eq!(train.len(), 8);
        assert_eq!(test.len(), 2);
        let mut all: Vec<usize> = train.iter().chain(test.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn split_keeps_both_sides_nonempty() {
        let mut r = rng(2);
        let (train, test) = train_test_split(2, 0.99, &mut r);
        assert_eq!(train.len(), 1);
        assert_eq!(test.len(), 1);
        let (train, test) = train_test_split(2, 0.01, &mut r);
        assert_eq!(train.len(), 1);
        assert_eq!(test.len(), 1);
    }

    #[test]
    fn split_single_sample_goes_to_train() {
        let mut r = rng(3);
        let (train, test) = train_test_split(1, 0.5, &mut r);
        assert_eq!(train.len(), 1);
        assert!(test.is_empty());
    }

    #[test]
    fn client_data_lengths() {
        let c = ClientData {
            train_x: Tensor::zeros(&[3, 4]),
            train_y: vec![0, 1, 2],
            test_x: Tensor::zeros(&[2, 4]),
            test_y: vec![0, 1],
        };
        assert_eq!(c.train_len(), 3);
        assert_eq!(c.test_len(), 2);
    }

    #[test]
    fn dataset_summary_counts() {
        let c = ClientData {
            train_x: Tensor::zeros(&[3, 4]),
            train_y: vec![0, 1, 2],
            test_x: Tensor::zeros(&[2, 4]),
            test_y: vec![0, 1],
        };
        let ds = FederatedDataset {
            meta: DatasetMeta {
                name: "toy".into(),
                classes: 3,
                users: 2,
                train_split: 0.6,
                min_samples_per_user: 0,
                task: TaskKind::Classification,
                sample_shape: vec![4],
            },
            clients: vec![c.clone(), c],
        };
        assert_eq!(ds.num_clients(), 2);
        assert_eq!(ds.total_train_samples(), 6);
        assert_eq!(ds.total_test_samples(), 4);
        assert!(ds.summary().contains("toy"));
    }
}
