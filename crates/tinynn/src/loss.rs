//! Softmax cross-entropy loss and classification metrics.

use crate::tensor::Tensor;

/// Numerically-stable softmax of one row, in place.
fn softmax_row(row: &mut [f32]) {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    let inv = 1.0 / sum;
    for v in row.iter_mut() {
        *v *= inv;
    }
}

/// View logits as `[rows, classes]` regardless of leading batch structure
/// (`[B, C]` or `[B, T, C]`).
fn rows_classes(logits: &Tensor) -> (usize, usize) {
    let classes = *logits
        .shape()
        .last()
        .expect("logits must have a class axis");
    (logits.len() / classes, classes)
}

/// Mean softmax cross-entropy over all rows, plus the gradient w.r.t. the
/// logits (`(softmax − one_hot) / rows`, reshaped like the input).
///
/// `targets[i]` is the class index of row `i`; its length must equal the
/// number of rows.
pub fn softmax_cross_entropy(logits: &Tensor, targets: &[u32]) -> (f32, Tensor) {
    let (rows, classes) = rows_classes(logits);
    assert_eq!(rows, targets.len(), "targets length must match logit rows");
    let mut probs = logits.clone().reshape(vec![rows, classes]);
    let mut loss = 0.0f64;
    let inv_rows = 1.0 / rows as f32;
    for (i, &target) in targets.iter().enumerate() {
        let row = probs.row_mut(i);
        softmax_row(row);
        let t = target as usize;
        assert!(t < classes, "target {t} out of range for {classes} classes");
        loss -= (row[t].max(1e-12) as f64).ln();
        row[t] -= 1.0;
        for v in row.iter_mut() {
            *v *= inv_rows;
        }
    }
    (
        (loss / rows as f64) as f32,
        probs.reshape(logits.shape().to_vec()),
    )
}

/// Mean cross-entropy without the gradient (for validation).
pub fn cross_entropy(logits: &Tensor, targets: &[u32]) -> f32 {
    let (rows, classes) = rows_classes(logits);
    assert_eq!(rows, targets.len(), "targets length must match logit rows");
    let mut loss = 0.0f64;
    let mut row = vec![0.0f32; classes];
    for i in 0..rows {
        row.copy_from_slice(&logits.as_slice()[i * classes..(i + 1) * classes]);
        softmax_row(&mut row);
        loss -= (row[targets[i] as usize].max(1e-12) as f64).ln();
    }
    (loss / rows as f64) as f32
}

/// Index of a row's largest value (the first, on ties).
fn argmax(row: &[f32]) -> usize {
    let mut best = 0usize;
    for (j, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = j;
        }
    }
    best
}

/// Arg-max class prediction per row.
pub fn predictions(logits: &Tensor) -> Vec<u32> {
    let (_, classes) = rows_classes(logits);
    logits
        .as_slice()
        .chunks_exact(classes)
        .map(|row| argmax(row) as u32)
        .collect()
}

/// Fraction of rows whose arg-max matches the target.
pub fn accuracy(logits: &Tensor, targets: &[u32]) -> f32 {
    let (rows, classes) = rows_classes(logits);
    assert_eq!(rows, targets.len());
    if targets.is_empty() {
        return 0.0;
    }
    let hits = logits
        .as_slice()
        .chunks_exact(classes)
        .zip(targets)
        .filter(|(row, &t)| argmax(row) == t as usize)
        .count();
    hits as f32 / targets.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_c() {
        let logits = Tensor::zeros(&[4, 10]);
        let targets = [0u32, 1, 2, 3];
        let (loss, grad) = softmax_cross_entropy(&logits, &targets);
        assert!((loss - (10.0f32).ln()).abs() < 1e-5);
        assert_eq!(grad.shape(), &[4, 10]);
        // gradient rows sum to zero
        for i in 0..4 {
            let s: f32 = grad.as_slice()[i * 10..(i + 1) * 10].iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn confident_correct_prediction_has_small_loss() {
        let mut logits = Tensor::zeros(&[1, 3]);
        logits.as_mut_slice()[1] = 20.0;
        let (loss, _) = softmax_cross_entropy(&logits, &[1]);
        assert!(loss < 1e-4);
    }

    #[test]
    fn gradient_direction_pushes_target_up() {
        let logits = Tensor::zeros(&[1, 3]);
        let (_, grad) = softmax_cross_entropy(&logits, &[2]);
        // gradient for target class is negative (decreasing loss increases logit)
        assert!(grad.as_slice()[2] < 0.0);
        assert!(grad.as_slice()[0] > 0.0);
    }

    #[test]
    fn cross_entropy_matches_grad_version() {
        let logits = Tensor::from_vec(vec![2, 3], vec![0.3, -0.2, 1.0, 2.0, 0.1, -1.0]);
        let targets = [2u32, 0];
        let (l1, _) = softmax_cross_entropy(&logits, &targets);
        let l2 = cross_entropy(&logits, &targets);
        assert!((l1 - l2).abs() < 1e-6);
    }

    #[test]
    fn rank3_logits_treated_per_timestep() {
        let logits = Tensor::zeros(&[2, 3, 5]);
        let targets = [0u32; 6];
        let (loss, grad) = softmax_cross_entropy(&logits, &targets);
        assert!((loss - (5.0f32).ln()).abs() < 1e-5);
        assert_eq!(grad.shape(), &[2, 3, 5]);
    }

    #[test]
    fn accuracy_and_predictions() {
        let logits = Tensor::from_vec(vec![3, 2], vec![2.0, 1.0, 0.0, 5.0, 1.0, 0.0]);
        assert_eq!(predictions(&logits), vec![0, 1, 0]);
        assert_eq!(accuracy(&logits, &[0, 1, 1]), 2.0 / 3.0);
        assert_eq!(accuracy(&Tensor::zeros(&[0, 2]), &[]), 0.0);
    }
}
