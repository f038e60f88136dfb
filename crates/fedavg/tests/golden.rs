//! Golden digests of trained weights, recorded at commit `975dfae` while
//! `tinynn` still carried the chunked gradient path, momentum and weight
//! decay. A failure here means `local_train` no longer does the same
//! arithmetic: one `loss_and_grads` per mini-batch, then `p -= lr·g`.

use fedavg::local_train;
use feddata::blobs::{self, BlobsConfig};
use feddata::femnist::{self, FemnistConfig};
use feddata::shakespeare::{self, ShakespeareConfig};
use feddata::ClientData;
use tinynn::rng::seeded;
use tinynn::zoo::{self, CnnConfig};
use tinynn::{wire, Dense, LayerInit, ParamVec, Sequential, Sgd, Tensor};

/// Train `model` for 2 epochs on `client` and digest the flat parameters.
fn trained_digest(mut model: Sequential, client: &ClientData, lr: f32, batch: usize) -> u64 {
    local_train(&mut model, client, 2, lr, batch, &mut seeded(17));
    let bytes: Vec<u8> = ParamVec::from_model(&model)
        .as_slice()
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    wire::fnv1a(&bytes)
}

#[test]
fn golden_local_train_mlp() {
    let ds = blobs::generate(&BlobsConfig::default(), 3);
    let model = zoo::mlp(8, &[16], 4, &mut seeded(5));
    let digest = trained_digest(model, &ds.clients[0], 0.2, 8);
    assert_eq!(digest, 0x736a_88a4_e24a_c9f6, "{digest:#018x}");
}

#[test]
fn golden_local_train_cnn() {
    let cfg = FemnistConfig::scaled();
    let ds = femnist::generate(&cfg, 3);
    let model = zoo::femnist_cnn(cfg.img, cfg.classes, CnnConfig::scaled(), &mut seeded(5));
    let digest = trained_digest(model, &ds.clients[0], 0.06, 10);
    assert_eq!(digest, 0xd089_a101_7772_a761, "{digest:#018x}");
}

#[test]
fn golden_local_train_lstm() {
    let cfg = ShakespeareConfig::scaled();
    let ds = shakespeare::generate(&cfg, 3);
    let model = zoo::char_lstm(cfg.vocab, 8, 32, 2, &mut seeded(5));
    let digest = trained_digest(model, &ds.clients[0], 3.0, 10);
    assert_eq!(digest, 0xee8e_5fe4_dca4_3377, "{digest:#018x}");
}

#[test]
fn golden_sgd_step_signed_zero_gradients() {
    // Every sign of zero against every sign of parameter: the update must
    // be `p - lr·g` exactly, including the sign of a zero result.
    let p = [0.0f32, -0.0, 1.5, -1.5];
    let g = [0.0f32, -0.0];
    let weight: Vec<f32> = p.iter().flat_map(|&v| [v, v]).collect();
    let mut model = Sequential::new(vec![LayerInit::new(
        Dense::new(4, 2),
        &[Tensor::from_vec(vec![4, 2], weight), Tensor::zeros(&[2])],
    )]);
    let mut grads = vec![0.0f32; model.param_count()];
    for (i, v) in grads[..8].iter_mut().enumerate() {
        *v = g[i % 2];
    }
    Sgd::new(0.5).step(&mut model, &grads);
    let bits: Vec<u32> = model.params()[..8].iter().map(|v| v.to_bits()).collect();
    let want = [
        0x0000_0000u32, // +0 - 0.5·(+0)
        0x0000_0000,    // +0 - 0.5·(-0)
        0x8000_0000,    // -0 - 0.5·(+0)
        0x0000_0000,    // -0 - 0.5·(-0)
        0x3fc0_0000,    // 1.5
        0x3fc0_0000,
        0xbfc0_0000, // -1.5
        0xbfc0_0000,
    ];
    assert_eq!(bits, want, "{bits:#010x?}");
}
