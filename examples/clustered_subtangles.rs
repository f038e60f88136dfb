//! Sub-tangle formation for clustered populations (paper §VI outlook).
//!
//! Two halves of the population hold *disjoint* tasks: cluster A only ever
//! sees classes 0/1, cluster B only 2/3. With the plain weighted walk every
//! node approves whatever the consensus favors; with the accuracy-biased
//! walk ("evaluate the model on local data during the tip selection
//! algorithm") nodes drift toward tips that work on *their* data — and the
//! ledger splits into sub-tangles. We measure that with approval-edge
//! homophily.
//!
//! ```text
//! cargo run --release --example clustered_subtangles
//! ```

use tangle_learning::data::blobs::{self, BlobsConfig};
use tangle_learning::data::ClientData;
use tangle_learning::learning::cluster::edge_homophily;
use tangle_learning::learning::{SimConfig, Simulation, TangleHyperParams};
use tangle_learning::nn::rng::seeded;
use tangle_learning::nn::zoo::mlp;
use tangle_learning::nn::Tensor;

/// Keep only the samples of `keep` classes in a client's data.
fn restrict(client: &ClientData, keep: &[u32]) -> ClientData {
    let filter = |x: &Tensor, y: &[u32]| {
        let stride: usize = x.shape()[1..].iter().product();
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (i, &label) in y.iter().enumerate() {
            if keep.contains(&label) {
                xs.extend_from_slice(&x.as_slice()[i * stride..(i + 1) * stride]);
                ys.push(label);
            }
        }
        let mut shape = x.shape().to_vec();
        shape[0] = ys.len();
        (Tensor::from_vec(shape, xs), ys)
    };
    let (train_x, train_y) = filter(&client.train_x, &client.train_y);
    let (test_x, test_y) = filter(&client.test_x, &client.test_y);
    ClientData {
        train_x,
        train_y,
        test_x,
        test_y,
    }
}

fn run(bias: f64) -> f32 {
    let users = 16;
    let mut data = blobs::generate(
        &BlobsConfig {
            users,
            samples_per_user: (30, 40),
            noise_std: 0.6,
            label_skew_alpha: None,
            ..BlobsConfig::default()
        },
        5,
    );
    // Split the population into two disjoint-task clusters.
    for (i, c) in data.clients.iter_mut().enumerate() {
        *c = restrict(c, if i < users / 2 { &[0, 1] } else { &[2, 3] });
    }
    let cfg = SimConfig {
        nodes_per_round: 8,
        lr: 0.15,
        eval_fraction: 0.5,
        seed: 7,
        hyper: TangleHyperParams {
            reference_avg: 3,
            accuracy_bias: bias,
            alpha: 1.0,
            ..TangleHyperParams::basic()
        },
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(data, cfg, || mlp(8, &[16], 4, &mut seeded(1)));
    for _ in 0..25 {
        sim.round();
    }
    let clusters: Vec<usize> = (0..users).map(|i| usize::from(i >= users / 2)).collect();
    let h = edge_homophily(sim.tangle(), &clusters);
    println!(
        "  bias {bias:>5.1}: homophily {:.3} (random mixing would give {:.3}, lift {:+.3}, {} edges)",
        h.observed,
        h.expected,
        h.lift(),
        h.edges
    );
    h.lift()
}

fn main() {
    println!("approval-edge homophily of a two-cluster population:");
    let plain = run(0.0);
    let biased = run(50.0);
    if biased > plain {
        println!(
            "\nthe accuracy-biased walk increased cluster homophily by {:+.3} — sub-tangles form",
            biased - plain
        );
    } else {
        println!("\nno homophily increase at this scale (try more rounds or stronger bias)");
    }
}
