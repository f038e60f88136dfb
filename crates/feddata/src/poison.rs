//! Dataset-level poisoning transforms.
//!
//! The paper's targeted attack is *label flipping* (§III-E): "malicious
//! clients possess a local training dataset entirely consisting of
//! mislabeled samples ... samples of class 3, which are labeled as 8s".

use crate::dataset::ClientData;
use tinynn::Tensor;

/// Extract the rows of `x` whose label equals `keep`.
fn filter_rows(x: &Tensor, y: &[u32], keep: u32) -> (Tensor, usize) {
    let n = x.shape()[0];
    assert_eq!(n, y.len(), "labels/rows mismatch");
    let stride: usize = x.shape()[1..].iter().product();
    let mut rows = Vec::new();
    let mut count = 0;
    for (i, &label) in y.iter().enumerate() {
        if label == keep {
            rows.extend_from_slice(&x.as_slice()[i * stride..(i + 1) * stride]);
            count += 1;
        }
    }
    let mut shape = x.shape().to_vec();
    shape[0] = count;
    (Tensor::from_vec(shape, rows), count)
}

/// Build a label-flipping attacker's dataset from a client's own data:
/// keep only samples of class `src` and label them all `dst`. Applied to
/// both the train and held-out sides (the attacker *wants* the
/// misclassification, so its publish gate must reward it too).
///
/// Returns `None` if the client owns no samples of class `src` at all.
pub fn label_flip_client(client: &ClientData, src: u32, dst: u32) -> Option<ClientData> {
    let (train_x, ntr) = filter_rows(&client.train_x, &client.train_y, src);
    let (test_x, nte) = filter_rows(&client.test_x, &client.test_y, src);
    if ntr == 0 && nte == 0 {
        return None;
    }
    // If one side is empty, mirror the other so both gates exist.
    let (train_x, ntr, test_x, nte) = if ntr == 0 {
        (test_x.clone(), nte, test_x, nte)
    } else if nte == 0 {
        (train_x.clone(), ntr, train_x, ntr)
    } else {
        (train_x, ntr, test_x, nte)
    };
    Some(ClientData {
        train_x,
        train_y: vec![dst; ntr],
        test_x,
        test_y: vec![dst; nte],
    })
}

/// Stamp a backdoor trigger — a bright `patch × patch` square in the
/// top-left corner — onto every image of a `[N, C, H, W]` tensor.
///
/// Backdoor attacks (Bagdasaryan et al., cited as the paper's targeted-
/// attack reference \[29\]) poison with *triggered* inputs so the model
/// behaves normally except when the trigger is present.
pub fn apply_trigger(x: &mut Tensor, patch: usize, intensity: f32) {
    assert_eq!(x.rank(), 4, "trigger expects [N, C, H, W] images");
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let patch = patch.min(h).min(w);
    let data = x.as_mut_slice();
    for i in 0..n {
        for ch in 0..c {
            let base = (i * c + ch) * h * w;
            for y in 0..patch {
                for xx in 0..patch {
                    data[base + y * w + xx] = intensity;
                }
            }
        }
    }
}

/// Build a backdoor attacker's dataset from a client's own data: the
/// original samples stay (the attacker wants to look benign) and a
/// triggered, `target`-labelled copy of every sample is appended. Both
/// the train and the held-out side are poisoned, so the attacker's local
/// publish gate rewards models that carry the backdoor.
pub fn backdoor_client(
    client: &ClientData,
    target: u32,
    patch: usize,
    intensity: f32,
) -> ClientData {
    let poison_side = |x: &Tensor, y: &[u32]| {
        let mut triggered = x.clone();
        apply_trigger(&mut triggered, patch, intensity);
        let stride: usize = x.shape()[1..].iter().product();
        let mut data = x.as_slice().to_vec();
        data.extend_from_slice(triggered.as_slice());
        let mut labels = y.to_vec();
        labels.extend(std::iter::repeat_n(target, y.len()));
        let mut shape = x.shape().to_vec();
        shape[0] = 2 * y.len();
        debug_assert_eq!(shape[0] * stride, data.len());
        (Tensor::from_vec(shape, data), labels)
    };
    let (train_x, train_y) = poison_side(&client.train_x, &client.train_y);
    let (test_x, test_y) = poison_side(&client.test_x, &client.test_y);
    ClientData {
        train_x,
        train_y,
        test_x,
        test_y,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client() -> ClientData {
        // 4 train samples with labels [3, 1, 3, 2]; 2 test with [3, 0]
        ClientData {
            train_x: Tensor::from_fn(&[4, 2], |i| i as f32),
            train_y: vec![3, 1, 3, 2],
            test_x: Tensor::from_fn(&[2, 2], |i| 100.0 + i as f32),
            test_y: vec![3, 0],
        }
    }

    #[test]
    fn label_flip_client_keeps_only_source_class() {
        let c = client();
        let p = label_flip_client(&c, 3, 8).expect("has class-3 samples");
        assert_eq!(p.train_y, vec![8, 8]);
        assert_eq!(p.test_y, vec![8]);
        // rows 0 and 2 of train kept
        assert_eq!(p.train_x.as_slice(), &[0., 1., 4., 5.]);
        assert_eq!(p.test_x.as_slice(), &[100., 101.]);
    }

    #[test]
    fn label_flip_client_without_source_class_is_none() {
        let c = client();
        assert!(label_flip_client(&c, 7, 8).is_none());
    }

    fn image_client() -> ClientData {
        ClientData {
            train_x: Tensor::zeros(&[3, 1, 4, 4]),
            train_y: vec![0, 1, 2],
            test_x: Tensor::zeros(&[2, 1, 4, 4]),
            test_y: vec![1, 2],
        }
    }

    #[test]
    fn trigger_stamps_corner_patch() {
        let mut x = Tensor::zeros(&[2, 1, 4, 4]);
        apply_trigger(&mut x, 2, 1.0);
        for i in 0..2 {
            let img = &x.as_slice()[i * 16..(i + 1) * 16];
            assert_eq!(img[0], 1.0);
            assert_eq!(img[1], 1.0);
            assert_eq!(img[4], 1.0);
            assert_eq!(img[5], 1.0);
            assert_eq!(img[2], 0.0, "outside the patch untouched");
            assert_eq!(img[10], 0.0);
        }
    }

    #[test]
    fn trigger_patch_clamped_to_image() {
        let mut x = Tensor::zeros(&[1, 1, 2, 2]);
        apply_trigger(&mut x, 10, 0.5);
        assert!(x.as_slice().iter().all(|&v| v == 0.5));
    }

    #[test]
    fn backdoor_client_doubles_and_labels() {
        let c = image_client();
        let p = backdoor_client(&c, 7, 2, 1.0);
        assert_eq!(p.train_len(), 6);
        assert_eq!(p.train_y, vec![0, 1, 2, 7, 7, 7]);
        assert_eq!(p.test_y, vec![1, 2, 7, 7]);
        // first half untouched, second half triggered
        assert_eq!(p.train_x.as_slice()[0], 0.0);
        let triggered_base = 3 * 16;
        assert_eq!(p.train_x.as_slice()[triggered_base], 1.0);
    }

    #[test]
    fn label_flip_mirrors_missing_side() {
        let mut c = client();
        c.test_y = vec![0, 0]; // no class-3 test samples
        let p = label_flip_client(&c, 3, 8).expect("train has class 3");
        assert_eq!(p.train_y, p.test_y);
        assert_eq!(p.train_x.as_slice(), p.test_x.as_slice());
    }
}
