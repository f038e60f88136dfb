//! Decentralized activity recognition on edge devices — the paper's IoT
//! motivation, end to end: fifty devices with individually calibrated
//! sensors jointly train an activity classifier over the tangle without
//! any data (or any server) leaving the edge.
//!
//! The consensus model is analysed with a confusion matrix and per-class
//! F1, so you can see exactly what the federation learned.
//!
//! ```text
//! cargo run --release --example edge_sensors
//! ```

use tangle_learning::data::sensors::{self, SensorsConfig};
use tangle_learning::learning::{SimConfig, Simulation, TangleHyperParams};
use tangle_learning::nn::rng::seeded;
use tangle_learning::nn::zoo::mlp;
use tangle_learning::nn::{ConfusionMatrix, ParamVec};

const ACTIVITIES: [&str; 5] = ["sit", "walk", "jog", "cycle", "stairs"];

fn main() {
    let cfg = SensorsConfig::default(); // 5 activities, 50 devices, 32-sample windows
    let data = sensors::generate(&cfg, 99);
    println!("dataset: {}", data.summary());
    let window = cfg.window;
    let classes = cfg.classes;
    let build = move || mlp(window, &[32, 16], classes, &mut seeded(2));

    let sim_cfg = SimConfig {
        nodes_per_round: 10,
        lr: 0.1,
        eval_fraction: 0.3,
        seed: 4,
        hyper: TangleHyperParams {
            confidence_samples: 10,
            reference_avg: 5,
            ..TangleHyperParams::basic()
        },
        ..SimConfig::default()
    };
    let eval_clients: Vec<tangle_learning::data::ClientData> = data.clients.clone();
    let mut sim = Simulation::new(data, sim_cfg, build);
    for r in 1..=40u64 {
        sim.round();
        if r % 10 == 0 {
            let ev = sim.evaluate(r);
            println!("round {r:>3}  consensus accuracy {:.3}", ev.accuracy);
        }
    }

    // Confusion analysis of the final consensus model over all devices.
    let consensus: ParamVec = sim.consensus_params();
    let model = build().with_params(consensus.0);
    let mut cm = ConfusionMatrix::new(classes);
    for c in &eval_clients {
        if c.test_len() > 0 {
            cm.merge(&ConfusionMatrix::from_logits(
                &model.predict(&c.test_x),
                &c.test_y,
                classes,
            ));
        }
    }
    println!("\nconfusion matrix over all devices' held-out windows:");
    print!("{cm}");
    println!("\nper-activity F1:");
    for (i, name) in ACTIVITIES.iter().enumerate() {
        println!("  {name:<8} {:.3}", cm.f1(i as u32));
    }
    println!(
        "\noverall accuracy {:.3}, macro-F1 {:.3}",
        cm.accuracy(),
        cm.macro_f1()
    );
}
