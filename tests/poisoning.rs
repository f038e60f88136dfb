//! Integration tests of the poisoning attacks and the §III-E defense —
//! the qualitative claims behind Fig. 5 and Fig. 6, at test scale.

use tangle_learning::data::blobs::{self, BlobsConfig};
use tangle_learning::learning::{
    assign_malicious, AttackKind, SimConfig, Simulation, TangleHyperParams,
};
use tangle_learning::nn::rng::seeded;
use tangle_learning::nn::zoo::mlp;
use tangle_learning::nn::Sequential;

const PRETRAIN: u64 = 15;
const ATTACK: u64 = 15;

fn dataset(seed: u64) -> tangle_learning::data::FederatedDataset {
    blobs::generate(
        &BlobsConfig {
            users: 24,
            samples_per_user: (24, 36),
            noise_std: 0.6,
            ..BlobsConfig::default()
        },
        seed,
    )
}

fn build() -> Sequential {
    mlp(8, &[16], 4, &mut seeded(1))
}

fn cfg(defended: bool, seed: u64) -> SimConfig {
    let nodes = 8;
    SimConfig {
        nodes_per_round: nodes,
        lr: 0.15,
        batch_size: 8,
        eval_fraction: 0.5,
        seed,
        hyper: TangleHyperParams {
            sample_size: if defended { nodes } else { 2 },
            reference_avg: 5,
            alpha: 0.5,
            tip_validation: defended,
            ..TangleHyperParams::basic()
        },
        ..SimConfig::default()
    }
}

fn run_attacked(defended: bool, fraction: f64, kind: AttackKind, seed: u64) -> (f32, f32) {
    let mut sim = Simulation::new(dataset(5), cfg(defended, seed), build);
    assign_malicious(
        sim.nodes_mut(),
        fraction,
        PRETRAIN + 1,
        kind,
        seed,
        match kind {
            AttackKind::LabelFlip { src, dst } => Box::new(
                tangle_learning::learning::attack::default_flip_source(src, dst),
            )
                as Box<
                    dyn Fn(
                        &tangle_learning::learning::node::Node,
                    ) -> Option<tangle_learning::data::ClientData>,
                >,
            _ => Box::new(|_: &tangle_learning::learning::node::Node| None),
        },
    );
    for _ in 0..PRETRAIN {
        sim.round();
    }
    let pre_acc = sim.evaluate(0).accuracy;
    for _ in 0..ATTACK {
        sim.round();
    }
    let post_acc = sim.evaluate(1).accuracy;
    (pre_acc, post_acc)
}

/// With the §III-E defense active, 20% random-noise poisoners must not
/// destroy the consensus (Fig. 5, p ≤ 0.2 sustained).
#[test]
fn defended_tangle_survives_20pct_noise() {
    let (pre, post) = run_attacked(true, 0.2, AttackKind::RandomNoise, 101);
    assert!(pre > 0.7, "pre-training failed: {pre}");
    assert!(
        post > pre - 0.15,
        "defended tangle lost too much accuracy: {pre} -> {post}"
    );
}

/// Without the defense, a heavy noise attack visibly degrades the
/// consensus (the self-reinforcing takeover of §III-B).
#[test]
fn undefended_tangle_degrades_under_heavy_noise() {
    // Average over three seeds: individual undefended runs are noisy
    // (sometimes the poison happens to never win the walk).
    let mut degraded = 0;
    for seed in [102, 202, 302] {
        let (pre, post) = run_attacked(false, 0.4, AttackKind::RandomNoise, seed);
        if post < pre - 0.2 {
            degraded += 1;
        }
    }
    assert!(
        degraded >= 1,
        "40% undefended poisoning never degraded the model across 3 seeds"
    );
}

/// A defended tangle holds the targeted misclassification rate down at
/// p = 0.1 (Fig. 6: "In the case of p = 0.1, the label-flipping attack
/// fails").
#[test]
fn defended_tangle_resists_small_label_flip() {
    let kind = AttackKind::LabelFlip { src: 0, dst: 3 };
    let mut sim = Simulation::new(dataset(5), cfg(true, 103), build);
    assign_malicious(
        sim.nodes_mut(),
        0.1,
        PRETRAIN + 1,
        kind,
        103,
        tangle_learning::learning::attack::default_flip_source(0, 3),
    );
    for _ in 0..(PRETRAIN + ATTACK) {
        sim.round();
    }
    let mis = sim.target_misclassification(0, 3, 0);
    assert!(
        mis < 0.5,
        "p=0.1 flip attack should fail against the defense: {mis}"
    );
}

/// Backdoor attack (extension): with half the population stamping
/// triggers and no §III-E defense, the consensus model learns the
/// backdoor — triggered images flip to the target class while a benign
/// run stays clean.
#[test]
fn backdoor_attack_installs_and_is_measured() {
    use tangle_learning::data::femnist::{self, FemnistConfig};
    let fcfg = FemnistConfig {
        classes: 4,
        img: 8,
        users: 10,
        samples_per_user: (10, 16),
        noise_std: 0.05,
        strokes: 3,
        ..FemnistConfig::scaled()
    };
    let data = femnist::generate(&fcfg, 9);
    let build = move || {
        tangle_learning::nn::zoo::femnist_cnn(
            8,
            4,
            tangle_learning::nn::zoo::CnnConfig {
                conv1: 4,
                conv2: 8,
                dense: 16,
            },
            &mut seeded(2),
        )
    };
    let sim_cfg = SimConfig {
        nodes_per_round: 5,
        lr: 0.15,
        batch_size: 8,
        eval_fraction: 0.5,
        seed: 21,
        hyper: TangleHyperParams {
            reference_avg: 3,
            ..TangleHyperParams::basic()
        },
        ..SimConfig::default()
    };
    let target = 1u32;
    let patch = 3usize;

    // Benign run: the trigger should not systematically map to `target`.
    let mut clean = Simulation::new(data.clone(), sim_cfg.clone(), build);
    for _ in 0..12 {
        clean.round();
    }
    let clean_asr = clean.backdoor_success(target, patch, 0);
    assert!((0.0..=1.0).contains(&clean_asr));

    // Attacked run: 50% backdoor nodes from the start, no defense.
    let mut attacked = Simulation::new(data, sim_cfg, build);
    let chosen = assign_malicious(
        attacked.nodes_mut(),
        0.5,
        0,
        AttackKind::Backdoor { target, patch },
        3,
        |_| None,
    );
    for &i in &chosen {
        let d = attacked.nodes()[i]
            .poisoned_data
            .as_ref()
            .expect("backdoor data installed");
        assert_eq!(d.train_len(), 2 * attacked.nodes()[i].data.train_len());
    }
    for _ in 0..12 {
        attacked.round();
    }
    let attacked_asr = attacked.backdoor_success(target, patch, 0);
    assert!(
        attacked_asr > clean_asr + 0.2 || attacked_asr > 0.6,
        "backdoor should measurably raise the attack success rate: clean {clean_asr} vs attacked {attacked_asr}"
    );
}

/// The attack metrics themselves behave: a model trained *only* on flipped
/// data drives the 6b metric toward 1.
#[test]
fn flip_metric_detects_a_fully_poisoned_model() {
    let data = dataset(7);
    // Train a model exclusively on flipped data pooled from all clients.
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for c in &data.clients {
        let stride: usize = c.train_x.shape()[1..].iter().product();
        for (i, &y) in c.train_y.iter().enumerate() {
            if y == 0 {
                xs.extend_from_slice(&c.train_x.as_slice()[i * stride..(i + 1) * stride]);
                ys.push(3u32); // flipped label
            }
        }
    }
    assert!(ys.len() > 10, "need class-0 samples");
    let x = tangle_learning::nn::Tensor::from_vec(vec![ys.len(), 8], xs);
    let mut model = build();
    let mut sgd = tangle_learning::nn::Sgd::new(0.3);
    for _ in 0..60 {
        let (_, g) = model.loss_and_grads(&x, &ys);
        sgd.step(&mut model, &g);
    }
    // Evaluate the 6b metric directly.
    let mut total = 0;
    let mut hit = 0;
    for c in &data.clients {
        let logits = model.predict(&c.test_x);
        let preds = tangle_learning::nn::loss::predictions(&logits);
        for (p, &t) in preds.iter().zip(&c.test_y) {
            if t == 0 {
                total += 1;
                if *p == 3 {
                    hit += 1;
                }
            }
        }
    }
    let mis = hit as f32 / total.max(1) as f32;
    assert!(
        mis > 0.8,
        "fully poisoned model should misclassify 0 as 3: {mis}"
    );
}
