//! Synthetic edge-sensor activity recognition.
//!
//! The paper motivates decentralized learning with "IoT and Edge computing
//! nodes" analysing privacy-sensitive data at its origin. This generator
//! produces that workload: windows of accelerometer-like readings, one
//! *activity* per class (distinct frequency/amplitude signatures), one
//! *device* per user with its own calibration (gain, offset, phase, noise
//! floor) — feature skew exactly like FEMNIST's writers — plus Dirichlet
//! label skew (not everyone runs, not everyone cycles).

use crate::dataset::{train_test_split, ClientData, DatasetMeta, FederatedDataset, TaskKind};
use crate::partition::dirichlet_proportions;
use rand::RngExt;
use rand::SeedableRng;
use rand_distr::{Distribution, Normal};
use tinynn::rng::derive;
use tinynn::Tensor;

/// Configuration of the sensor-window generator.
#[derive(Clone, Debug)]
pub struct SensorsConfig {
    /// Number of activity classes.
    pub classes: usize,
    /// Readings per window.
    pub window: usize,
    /// Number of devices (users).
    pub users: usize,
    /// Inclusive range of windows per device.
    pub samples_per_user: (usize, usize),
    /// Train fraction.
    pub train_split: f32,
    /// Dirichlet α for per-device label skew; `None` = uniform.
    pub label_skew_alpha: Option<f64>,
    /// Sensor noise floor (std of additive Gaussian noise).
    pub noise_std: f32,
}

impl Default for SensorsConfig {
    fn default() -> Self {
        Self {
            classes: 5,
            window: 32,
            users: 50,
            samples_per_user: (10, 30),
            train_split: 0.8,
            label_skew_alpha: Some(0.5),
            noise_std: 0.15,
        }
    }
}

/// One activity's waveform signature.
#[derive(Clone, Copy, Debug)]
struct Activity {
    freq: f32,
    amp: f32,
    harmonic: f32,
}

fn activity(dataset_seed: u64, class: usize) -> Activity {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(derive(dataset_seed, 9_000 + class as u64));
    Activity {
        // well-separated base frequencies: 1..=classes cycles per window,
        // jittered so classes are not perfectly aligned
        freq: (class + 1) as f32 + rng.random_range(-0.2..0.2),
        amp: rng.random_range(0.6..1.4),
        harmonic: rng.random_range(0.1..0.5),
    }
}

/// One device's calibration.
#[derive(Clone, Copy, Debug)]
struct Device {
    gain: f32,
    offset: f32,
    phase: f32,
}

fn device(dataset_seed: u64, user: usize) -> Device {
    let mut rng =
        rand::rngs::SmallRng::seed_from_u64(derive(dataset_seed, 4_000_000 + user as u64));
    Device {
        gain: rng.random_range(0.8..1.2),
        offset: rng.random_range(-0.3..0.3),
        phase: rng.random_range(0.0..std::f32::consts::TAU),
    }
}

fn window(
    act: &Activity,
    dev: &Device,
    len: usize,
    noise_std: f32,
    rng: &mut impl RngExt,
) -> Vec<f32> {
    let noise = Normal::new(0.0f32, noise_std).expect("valid noise std");
    let jitter = rng.random_range(0.0..std::f32::consts::TAU);
    (0..len)
        .map(|t| {
            let x = t as f32 / len as f32 * std::f32::consts::TAU;
            let base = act.amp * (act.freq * x + dev.phase + jitter).sin()
                + act.harmonic * act.amp * (2.0 * act.freq * x + dev.phase).sin();
            dev.offset + dev.gain * base + noise.sample(rng)
        })
        .collect()
}

/// Generate the full federated dataset. Deterministic per `(cfg, seed)`.
/// Inputs have shape `[N, window]`.
pub fn generate(cfg: &SensorsConfig, seed: u64) -> FederatedDataset {
    assert!(cfg.classes >= 2 && cfg.window >= 4);
    assert!(cfg.samples_per_user.0 >= 2);
    let activities: Vec<Activity> = (0..cfg.classes).map(|c| activity(seed, c)).collect();
    let clients: Vec<ClientData> = (0..cfg.users)
        .map(|user| {
            let mut rng =
                rand::rngs::SmallRng::seed_from_u64(derive(seed, 5_000_000 + user as u64));
            let dev = device(seed, user);
            let n = rng.random_range(cfg.samples_per_user.0..=cfg.samples_per_user.1);
            let mix: Vec<f64> = match cfg.label_skew_alpha {
                Some(a) => dirichlet_proportions(a, cfg.classes, &mut rng),
                None => vec![1.0 / cfg.classes as f64; cfg.classes],
            };
            let mut xs = Vec::with_capacity(n * cfg.window);
            let mut ys = Vec::with_capacity(n);
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
                xs.extend(window(
                    &activities[class],
                    &dev,
                    cfg.window,
                    cfg.noise_std,
                    &mut rng,
                ));
                ys.push(class as u32);
            }
            let (train_idx, test_idx) = train_test_split(n, cfg.train_split, &mut rng);
            let take = |idx: &[usize]| {
                let mut x = Vec::with_capacity(idx.len() * cfg.window);
                let mut y = Vec::with_capacity(idx.len());
                for &i in idx {
                    x.extend_from_slice(&xs[i * cfg.window..(i + 1) * cfg.window]);
                    y.push(ys[i]);
                }
                (Tensor::from_vec(vec![idx.len(), cfg.window], x), y)
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
            name: format!("synthetic-sensors-{}act-{}w", cfg.classes, cfg.window),
            classes: cfg.classes,
            users: cfg.users,
            train_split: cfg.train_split,
            min_samples_per_user: cfg.samples_per_user.0,
            task: TaskKind::Classification,
            sample_shape: vec![cfg.window],
        },
        clients,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One device's rendering of one activity.
    fn activity_window(
        cfg: &SensorsConfig,
        dataset_seed: u64,
        user: usize,
        class: usize,
        sample_seed: u64,
    ) -> Vec<f32> {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(derive(dataset_seed, sample_seed));
        window(
            &activity(dataset_seed, class),
            &device(dataset_seed, user),
            cfg.window,
            cfg.noise_std,
            &mut rng,
        )
    }

    fn tiny() -> SensorsConfig {
        SensorsConfig {
            classes: 3,
            window: 16,
            users: 8,
            samples_per_user: (8, 14),
            ..SensorsConfig::default()
        }
    }

    #[test]
    fn shapes_and_labels() {
        let ds = generate(&tiny(), 1);
        assert_eq!(ds.num_clients(), 8);
        for c in &ds.clients {
            assert_eq!(c.train_x.shape()[1], 16);
            assert_eq!(c.train_x.shape()[0], c.train_y.len());
            assert!(c.train_y.iter().all(|&y| y < 3));
        }
    }

    #[test]
    fn deterministic() {
        let a = generate(&tiny(), 4);
        let b = generate(&tiny(), 4);
        assert_eq!(
            a.clients[3].train_x.as_slice(),
            b.clients[3].train_x.as_slice()
        );
    }

    #[test]
    fn devices_calibrate_differently() {
        let cfg = tiny();
        let a = activity_window(&cfg, 1, 0, 1, 9);
        let b = activity_window(&cfg, 1, 5, 1, 9);
        assert_ne!(a, b, "device calibration must alter the waveform");
    }

    #[test]
    fn activities_have_distinct_signatures() {
        let cfg = SensorsConfig {
            noise_std: 0.0,
            ..tiny()
        };
        let a = activity_window(&cfg, 1, 0, 0, 9);
        let b = activity_window(&cfg, 1, 0, 2, 9);
        // different base frequency → different number of zero crossings
        let crossings = |w: &[f32]| {
            w.windows(2)
                .filter(|p| (p[0] >= 0.0) != (p[1] >= 0.0))
                .count()
        };
        assert_ne!(crossings(&a), crossings(&b));
    }

    #[test]
    fn an_mlp_learns_the_pooled_task() {
        let cfg = SensorsConfig {
            users: 6,
            samples_per_user: (30, 40),
            label_skew_alpha: None,
            noise_std: 0.1,
            ..tiny()
        };
        let ds = generate(&cfg, 7);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for c in &ds.clients {
            xs.extend_from_slice(c.train_x.as_slice());
            ys.extend_from_slice(&c.train_y);
        }
        let x = Tensor::from_vec(vec![ys.len(), 16], xs);
        let mut rng = tinynn::rng::seeded(0);
        let mut model = tinynn::zoo::mlp(16, &[32], 3, &mut rng);
        let mut sgd = tinynn::Sgd::new(0.1);
        for _ in 0..120 {
            let (_, g) = model.loss_and_grads(&x, &ys);
            sgd.step(&mut model, &g);
        }
        let (_, acc) = model.evaluate(&x, &ys);
        assert!(acc > 0.65, "sensor task should beat chance (0.33): {acc}");
    }
}
