//! Local-training primitives shared by FedAvg and the learning tangle.

use feddata::{ClientData, FederatedDataset};
use rand::RngExt;
use tinynn::{ParamVec, Sequential, Sgd, Tensor};

/// Gather rows of `x` (leading axis) by index.
pub fn gather_rows(x: &Tensor, idx: &[usize]) -> Tensor {
    let stride: usize = x.shape()[1..].iter().product();
    let mut out = Vec::with_capacity(idx.len() * stride);
    for &i in idx {
        out.extend_from_slice(&x.as_slice()[i * stride..(i + 1) * stride]);
    }
    let mut shape = x.shape().to_vec();
    shape[0] = idx.len();
    Tensor::from_vec(shape, out)
}

/// Gather the target rows corresponding to sample indices, accounting for
/// sequence tasks where each sample carries several target rows.
fn gather_targets(y: &[u32], idx: &[usize], rows_per_sample: usize) -> Vec<u32> {
    let mut out = Vec::with_capacity(idx.len() * rows_per_sample);
    for &i in idx {
        out.extend_from_slice(&y[i * rows_per_sample..(i + 1) * rows_per_sample]);
    }
    out
}

/// Run `epochs` epochs of mini-batch SGD on a client's training data,
/// starting from the parameters already loaded in `model`. Mutates `model`
/// in place and returns the final average training loss of the last epoch.
///
/// This is the `Train(w, epochs, lr)` step of the paper's Algorithm 2.
pub fn local_train(
    model: &mut Sequential,
    client: &ClientData,
    epochs: usize,
    lr: f32,
    batch_size: usize,
    rng: &mut impl RngExt,
) -> f32 {
    let n = client.train_len();
    if n == 0 {
        return 0.0;
    }
    let rows_per_sample = client.train_y.len() / n;
    let mut sgd = Sgd::new(lr);
    let mut idx: Vec<usize> = (0..n).collect();
    let mut last_epoch_loss = 0.0;
    for _ in 0..epochs.max(1) {
        // Fisher-Yates shuffle per epoch.
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            idx.swap(i, j);
        }
        let mut loss_sum = 0.0f32;
        let mut batches = 0;
        for batch in idx.chunks(batch_size.max(1)) {
            let xb = gather_rows(&client.train_x, batch);
            let yb = gather_targets(&client.train_y, batch, rows_per_sample);
            let (loss, grads) = model.loss_and_grads(&xb, &yb);
            sgd.step(model, &grads);
            loss_sum += loss;
            batches += 1;
        }
        last_epoch_loss = loss_sum / batches.max(1) as f32;
    }
    last_epoch_loss
}

/// Evaluate a parameter vector on the pooled held-out data of `clients`,
/// in place under `model`'s architecture. Returns `(loss, accuracy)`.
pub fn evaluate_params(
    model: &Sequential,
    params: &ParamVec,
    clients: &[&ClientData],
) -> (f32, f32) {
    let mut loss_sum = 0.0f64;
    let mut hit_sum = 0.0f64;
    let mut rows = 0usize;
    for c in clients {
        if c.test_len() == 0 {
            continue;
        }
        let (loss, acc) = model.evaluate_params(params.as_slice(), &c.test_x, &c.test_y);
        let r = c.test_y.len();
        loss_sum += loss as f64 * r as f64;
        hit_sum += acc as f64 * r as f64;
        rows += r;
    }
    if rows == 0 {
        return (0.0, 0.0);
    }
    (
        (loss_sum / rows as f64) as f32,
        (hit_sum / rows as f64) as f32,
    )
}

/// Pick a random `frac` of all clients for evaluation (at least one), the
/// paper's "test datasets of a random selection of 10% of all nodes".
pub fn sample_eval_clients<'a>(
    data: &'a FederatedDataset,
    frac: f32,
    rng: &mut impl RngExt,
) -> Vec<&'a ClientData> {
    let n = data.num_clients();
    let k = (((n as f32) * frac).round() as usize).clamp(1, n);
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        idx.swap(i, j);
    }
    idx.truncate(k);
    idx.into_iter().map(|i| &data.clients[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use feddata::blobs::{self, BlobsConfig};
    use tinynn::rng::seeded;

    #[test]
    fn gather_rows_picks_and_orders() {
        let x = Tensor::from_fn(&[4, 2], |i| i as f32);
        let g = gather_rows(&x, &[2, 0]);
        assert_eq!(g.shape(), &[2, 2]);
        assert_eq!(g.as_slice(), &[4., 5., 0., 1.]);
    }

    #[test]
    fn local_train_reduces_loss() {
        let ds = blobs::generate(
            &BlobsConfig {
                users: 1,
                samples_per_user: (60, 60),
                label_skew_alpha: None,
                noise_std: 0.5,
                ..BlobsConfig::default()
            },
            1,
        );
        let c = &ds.clients[0];
        let mut rng = seeded(0);
        let mut model = tinynn::zoo::mlp(8, &[16], 4, &mut rng);
        let (loss0, _) = model.evaluate(&c.train_x, &c.train_y);
        let mut train_rng = seeded(1);
        for _ in 0..10 {
            local_train(&mut model, c, 1, 0.2, 16, &mut train_rng);
        }
        let (loss1, _) = model.evaluate(&c.train_x, &c.train_y);
        assert!(loss1 < loss0 * 0.7, "loss {loss0} -> {loss1}");
    }

    #[test]
    fn evaluate_params_weighted_by_rows() {
        let ds = blobs::generate(&BlobsConfig::default(), 2);
        let mut rng = seeded(3);
        let model = tinynn::zoo::mlp(8, &[16], 4, &mut rng);
        let params = ParamVec::from_model(&model);
        let clients: Vec<&ClientData> = ds.clients.iter().collect();
        let (loss, acc) = evaluate_params(&model, &params, &clients);
        assert!(loss > 0.0);
        assert!((0.0..=1.0).contains(&acc));
        assert_eq!(evaluate_params(&model, &params, &[]), (0.0, 0.0));
    }

    #[test]
    fn sample_eval_clients_fraction() {
        let ds = blobs::generate(&BlobsConfig::default(), 4);
        let mut rng = seeded(5);
        let sel = sample_eval_clients(&ds, 0.1, &mut rng);
        assert_eq!(sel.len(), 2); // 10% of 20
        let sel = sample_eval_clients(&ds, 0.0, &mut rng);
        assert_eq!(sel.len(), 1, "at least one");
        let sel = sample_eval_clients(&ds, 2.0, &mut rng);
        assert_eq!(sel.len(), 20, "capped at all");
    }
}
