//! Synthetic FEMNIST: procedural glyph images partitioned by writer.
//!
//! Each class is a fixed arrangement of strokes in a unit square (a
//! "glyph"). Each *writer* (user) renders glyphs with a personal style —
//! translation, scale, shear, stroke intensity — plus per-sample jitter and
//! pixel noise. Writers additionally hold label-skewed class mixtures
//! (Dirichlet). This reproduces FEMNIST's essential structure: the task is
//! the same everywhere, but every client's data looks different (feature
//! skew) and covers classes unevenly (label skew).

use crate::dataset::{train_test_split, ClientData, DatasetMeta, FederatedDataset, TaskKind};
use crate::partition::dirichlet_proportions;
use rand::RngExt;
use rand::SeedableRng;
use rand_distr::{Distribution, Normal};
use rayon::prelude::*;
use tinynn::rng::derive;
use tinynn::Tensor;

/// Configuration of the synthetic FEMNIST generator.
#[derive(Clone, Debug)]
pub struct FemnistConfig {
    /// Number of glyph classes.
    pub classes: usize,
    /// Image side length (must be divisible by 4 for the paper's CNN).
    pub img: usize,
    /// Number of writers (users).
    pub users: usize,
    /// Inclusive range of per-user sample counts (unbalanced clients).
    pub samples_per_user: (usize, usize),
    /// Fraction of each user's data used for training (paper Table I: 0.8).
    pub train_split: f32,
    /// Dirichlet α for per-user label skew; `None` = uniform labels.
    pub label_skew_alpha: Option<f64>,
    /// Std of additive pixel noise.
    pub noise_std: f32,
    /// Strokes per glyph.
    pub strokes: usize,
}

impl FemnistConfig {
    /// Scaled-down default used by tests and the default experiment runs:
    /// 10 classes, 16×16 images, 100 writers. Noise and stroke counts are
    /// tuned so a scaled CNN converges gradually over ~100 federated
    /// rounds (mirroring the paper's 200-round FEMNIST curves) instead of
    /// saturating immediately.
    pub fn scaled() -> Self {
        Self {
            classes: 10,
            img: 16,
            users: 100,
            samples_per_user: (10, 30),
            train_split: 0.8,
            label_skew_alpha: Some(0.5),
            noise_std: 0.25,
            strokes: 3,
        }
    }

    /// Paper-scale parameters (Table I): 62 classes, 3500 writers, 28×28.
    pub fn paper() -> Self {
        Self {
            classes: 62,
            img: 28,
            users: 3500,
            samples_per_user: (8, 120),
            train_split: 0.8,
            label_skew_alpha: Some(0.5),
            noise_std: 0.08,
            strokes: 5,
        }
    }
}

/// A glyph template: stroke endpoints in the unit square.
#[derive(Clone, Debug)]
struct Glyph {
    /// `(x0, y0, x1, y1)` per stroke.
    strokes: Vec<(f32, f32, f32, f32)>,
}

fn glyph_for_class(dataset_seed: u64, class: usize, strokes: usize) -> Glyph {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(derive(dataset_seed, 1_000 + class as u64));
    let strokes = (0..strokes)
        .map(|_| {
            (
                rng.random_range(0.1..0.9f32),
                rng.random_range(0.1..0.9f32),
                rng.random_range(0.1..0.9f32),
                rng.random_range(0.1..0.9f32),
            )
        })
        .collect();
    Glyph { strokes }
}

/// A writer's personal rendering style.
#[derive(Clone, Copy, Debug)]
struct WriterStyle {
    dx: f32,
    dy: f32,
    sx: f32,
    sy: f32,
    shear: f32,
    intensity: f32,
}

fn style_for_writer(dataset_seed: u64, user: usize) -> WriterStyle {
    let mut rng =
        rand::rngs::SmallRng::seed_from_u64(derive(dataset_seed, 2_000_000 + user as u64));
    WriterStyle {
        dx: rng.random_range(-0.08..0.08),
        dy: rng.random_range(-0.08..0.08),
        sx: rng.random_range(0.85..1.15),
        sy: rng.random_range(0.85..1.15),
        shear: rng.random_range(-0.25..0.25),
        intensity: rng.random_range(0.7..1.0),
    }
}

/// Rasterize one glyph with a writer style and per-sample jitter into an
/// `img × img` buffer (values in `[0, 1]`).
fn render(
    glyph: &Glyph,
    style: &WriterStyle,
    img: usize,
    jitter: (f32, f32),
    noise_std: f32,
    rng: &mut impl RngExt,
) -> Vec<f32> {
    let mut px = vec![0.0f32; img * img];
    let steps = img * 2;
    for &(x0, y0, x1, y1) in &glyph.strokes {
        for s in 0..=steps {
            let t = s as f32 / steps as f32;
            // Point on the stroke, then writer transform + sample jitter.
            let ux = x0 + t * (x1 - x0);
            let uy = y0 + t * (y1 - y0);
            let tx = style.sx * ux + style.shear * uy + style.dx + jitter.0;
            let ty = style.sy * uy + style.dy + jitter.1;
            // Bilinear splat.
            let fx = tx * (img as f32 - 1.0);
            let fy = ty * (img as f32 - 1.0);
            if !(0.0..=(img as f32 - 1.001)).contains(&fx)
                || !(0.0..=(img as f32 - 1.001)).contains(&fy)
            {
                continue;
            }
            let (x, y) = (fx as usize, fy as usize);
            let (ax, ay) = (fx - x as f32, fy - y as f32);
            let w = style.intensity;
            px[y * img + x] += w * (1.0 - ax) * (1.0 - ay);
            px[y * img + x + 1] += w * ax * (1.0 - ay);
            px[(y + 1) * img + x] += w * (1.0 - ax) * ay;
            px[(y + 1) * img + x + 1] += w * ax * ay;
        }
    }
    if noise_std > 0.0 {
        let normal = Normal::new(0.0f32, noise_std).expect("valid noise std");
        for v in &mut px {
            *v += normal.sample(rng);
        }
    }
    for v in &mut px {
        *v = v.clamp(0.0, 1.0);
    }
    px
}

/// Generate the full federated dataset. Deterministic per `(cfg, seed)`.
pub fn generate(cfg: &FemnistConfig, seed: u64) -> FederatedDataset {
    assert!(cfg.classes >= 2, "need at least two classes");
    assert_eq!(cfg.img % 4, 0, "image side must be divisible by 4");
    assert!(
        cfg.samples_per_user.0 >= 2,
        "users need >= 2 samples to split"
    );
    let glyphs: Vec<Glyph> = (0..cfg.classes)
        .map(|c| glyph_for_class(seed, c, cfg.strokes))
        .collect();
    let clients: Vec<ClientData> = (0..cfg.users)
        .into_par_iter()
        .map(|user| {
            let mut rng =
                rand::rngs::SmallRng::seed_from_u64(derive(seed, 3_000_000 + user as u64));
            let style = style_for_writer(seed, user);
            let n = rng.random_range(cfg.samples_per_user.0..=cfg.samples_per_user.1);
            // Per-user class mixture.
            let mix: Vec<f64> = match cfg.label_skew_alpha {
                Some(alpha) => dirichlet_proportions(alpha, cfg.classes, &mut rng),
                None => vec![1.0 / cfg.classes as f64; cfg.classes],
            };
            let mut labels = Vec::with_capacity(n);
            let mut pixels = Vec::with_capacity(n * cfg.img * cfg.img);
            for _ in 0..n {
                let mut r = rng.random_range(0.0..1.0f64);
                let mut class = cfg.classes - 1;
                for (c, &p) in mix.iter().enumerate() {
                    if r < p {
                        class = c;
                        break;
                    }
                    r -= p;
                }
                let jitter = (
                    rng.random_range(-0.03..0.03f32),
                    rng.random_range(-0.03..0.03f32),
                );
                pixels.extend(render(
                    &glyphs[class],
                    &style,
                    cfg.img,
                    jitter,
                    cfg.noise_std,
                    &mut rng,
                ));
                labels.push(class as u32);
            }
            let sample_len = cfg.img * cfg.img;
            let (train_idx, test_idx) = train_test_split(n, cfg.train_split, &mut rng);
            let take = |idx: &[usize]| {
                let mut x = Vec::with_capacity(idx.len() * sample_len);
                let mut y = Vec::with_capacity(idx.len());
                for &i in idx {
                    x.extend_from_slice(&pixels[i * sample_len..(i + 1) * sample_len]);
                    y.push(labels[i]);
                }
                (Tensor::from_vec(vec![idx.len(), 1, cfg.img, cfg.img], x), y)
            };
            let (train_x, train_y) = take(&train_idx);
            let (test_x, test_y) = take(&test_idx);
            ClientData {
                train_x,
                train_y,
                test_x,
                test_y,
            }
        })
        .collect();
    FederatedDataset {
        meta: DatasetMeta {
            name: format!("synthetic-femnist-{}c-{}px", cfg.classes, cfg.img),
            classes: cfg.classes,
            users: cfg.users,
            train_split: cfg.train_split,
            min_samples_per_user: cfg.samples_per_user.0,
            task: TaskKind::Classification,
            sample_shape: vec![1, cfg.img, cfg.img],
        },
        clients,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` rendered samples of a fixed `class` as seen by `user`.
    fn class_samples(
        cfg: &FemnistConfig,
        dataset_seed: u64,
        user: usize,
        class: usize,
        n: usize,
        sample_seed: u64,
    ) -> Tensor {
        assert!(class < cfg.classes, "class out of range");
        let glyph = glyph_for_class(dataset_seed, class, cfg.strokes);
        let style = style_for_writer(dataset_seed, user);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(derive(dataset_seed, sample_seed));
        let mut data = Vec::with_capacity(n * cfg.img * cfg.img);
        for _ in 0..n {
            let jitter = (
                rng.random_range(-0.03..0.03f32),
                rng.random_range(-0.03..0.03f32),
            );
            data.extend(render(
                &glyph,
                &style,
                cfg.img,
                jitter,
                cfg.noise_std,
                &mut rng,
            ));
        }
        Tensor::from_vec(vec![n, 1, cfg.img, cfg.img], data)
    }

    fn tiny() -> FemnistConfig {
        FemnistConfig {
            classes: 4,
            img: 8,
            users: 6,
            samples_per_user: (6, 10),
            train_split: 0.8,
            label_skew_alpha: Some(0.5),
            noise_std: 0.05,
            strokes: 3,
        }
    }

    #[test]
    fn shapes_and_ranges() {
        let ds = generate(&tiny(), 1);
        assert_eq!(ds.num_clients(), 6);
        for c in &ds.clients {
            assert_eq!(c.train_x.shape()[1..], [1, 8, 8]);
            assert_eq!(c.train_x.shape()[0], c.train_y.len());
            assert_eq!(c.test_x.shape()[0], c.test_y.len());
            assert!(c.train_len() >= 1 && c.test_len() >= 1);
            assert!(c
                .train_x
                .as_slice()
                .iter()
                .all(|&v| (0.0..=1.0).contains(&v)));
            assert!(c.train_y.iter().all(|&l| l < 4));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&tiny(), 7);
        let b = generate(&tiny(), 7);
        assert_eq!(
            a.clients[0].train_x.as_slice(),
            b.clients[0].train_x.as_slice()
        );
        let c = generate(&tiny(), 8);
        assert_ne!(
            a.clients[0].train_x.as_slice(),
            c.clients[0].train_x.as_slice()
        );
    }

    #[test]
    fn writers_render_differently() {
        let cfg = tiny();
        let a = class_samples(&cfg, 1, 0, 2, 1, 99);
        let b = class_samples(&cfg, 1, 1, 2, 1, 99);
        assert_ne!(a.as_slice(), b.as_slice(), "writer styles must differ");
    }

    #[test]
    fn classes_render_differently() {
        let cfg = tiny();
        let a = class_samples(&cfg, 1, 0, 0, 1, 99);
        let b = class_samples(&cfg, 1, 0, 1, 1, 99);
        assert_ne!(a.as_slice(), b.as_slice(), "glyphs must differ per class");
    }

    #[test]
    fn images_are_not_blank() {
        let cfg = tiny();
        let x = class_samples(&cfg, 3, 0, 0, 4, 5);
        for i in 0..4 {
            let img = &x.as_slice()[i * 64..(i + 1) * 64];
            let mass: f32 = img.iter().sum();
            assert!(mass > 1.0, "glyph {i} nearly blank: mass {mass}");
        }
    }

    #[test]
    fn label_skew_produces_concentrated_users() {
        let mut cfg = tiny();
        cfg.label_skew_alpha = Some(0.1);
        cfg.users = 12;
        let ds = generate(&cfg, 2);
        let conc: f64 = ds
            .clients
            .iter()
            .map(|c| crate::partition::label_concentration(&c.train_y, 4))
            .sum::<f64>()
            / ds.clients.len() as f64;
        assert!(conc > 0.4, "expected strong label skew, got {conc}");
    }

    #[test]
    fn a_cnn_can_learn_it() {
        // End-to-end sanity: pooled data from a few writers is learnable
        // well above chance by the scaled CNN within a few epochs.
        use tinynn::zoo::{femnist_cnn, CnnConfig};
        use tinynn::{ParamVec, Sgd};
        let mut cfg = tiny();
        cfg.users = 8;
        cfg.samples_per_user = (20, 24);
        cfg.noise_std = 0.03;
        let ds = generate(&cfg, 11);
        // Pool train/test across users.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let mut xt = Vec::new();
        let mut yt = Vec::new();
        for c in &ds.clients {
            xs.extend_from_slice(c.train_x.as_slice());
            ys.extend_from_slice(&c.train_y);
            xt.extend_from_slice(c.test_x.as_slice());
            yt.extend_from_slice(&c.test_y);
        }
        let x = Tensor::from_vec(vec![ys.len(), 1, 8, 8], xs);
        let xtest = Tensor::from_vec(vec![yt.len(), 1, 8, 8], xt);
        let mut rng = tinynn::rng::seeded(0);
        let mut model = femnist_cnn(
            8,
            4,
            CnnConfig {
                conv1: 4,
                conv2: 8,
                dense: 16,
            },
            &mut rng,
        );
        let mut sgd = Sgd::new(0.1);
        for _ in 0..30 {
            let (_, g) = model.loss_and_grads(&x, &ys);
            sgd.step(&mut model, &g);
        }
        let (_, acc) = model.evaluate(&xtest, &yt);
        assert!(
            acc > 0.5,
            "CNN should beat chance (0.25) clearly, got {acc}"
        );
        // keep the trained params exercised
        let _ = ParamVec::from_model(&model);
    }
}
