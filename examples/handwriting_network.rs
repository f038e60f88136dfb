//! A small decentralized handwriting-recognition network (the paper's
//! FEMNIST scenario, shrunk to run in seconds).
//!
//! Forty "writers" each hold glyph images in their personal handwriting
//! style; a CNN is trained collaboratively over the tangle. The example
//! prints convergence, the Fig. 2 ledger structure, and exports the tangle
//! as Graphviz DOT.
//!
//! ```text
//! cargo run --release --example handwriting_network
//! ```

use tangle_learning::data::femnist::{self, FemnistConfig};
use tangle_learning::learning::{SimConfig, Simulation, TangleHyperParams};
use tangle_learning::ledger::analysis::{ConsensusView, TxClass};
use tangle_learning::nn::rng::seeded;
use tangle_learning::nn::zoo::{femnist_cnn, CnnConfig};

fn main() {
    let cfg = FemnistConfig {
        classes: 6,
        img: 12,
        users: 40,
        samples_per_user: (12, 30),
        ..FemnistConfig::scaled()
    };
    let data = femnist::generate(&cfg, 2024);
    println!("dataset: {}", data.summary());
    let img = cfg.img;
    let classes = cfg.classes;
    let build = move || {
        femnist_cnn(
            img,
            classes,
            CnnConfig {
                conv1: 4,
                conv2: 8,
                dense: 24,
            },
            &mut seeded(9),
        )
    };
    let sim_cfg = SimConfig {
        nodes_per_round: 10,
        lr: 0.08,
        eval_fraction: 0.25,
        seed: 5,
        hyper: TangleHyperParams {
            reference_avg: 5,
            ..TangleHyperParams::optimized()
        },
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(data, sim_cfg, build);
    for r in 1..=30u64 {
        sim.round();
        if r % 5 == 0 {
            let ev = sim.evaluate(r);
            println!(
                "round {r:>3}  consensus accuracy {:.3}  loss {:.3}",
                ev.accuracy, ev.loss
            );
        }
    }

    let view = ConsensusView::compute(sim.tangle());
    let count = |c: TxClass| view.classes.iter().filter(|x| **x == c).count();
    println!(
        "\nledger: {} transactions — {} confirmed, {} tips, {} pending",
        sim.tangle().len(),
        count(TxClass::Confirmed),
        count(TxClass::Tip),
        count(TxClass::Pending)
    );
    let dot = tangle_learning::ledger::dot::to_dot(sim.tangle());
    std::fs::write("handwriting_tangle.dot", dot).expect("write dot file");
    println!("wrote handwriting_tangle.dot (render with `dot -Tpng`)");
}
