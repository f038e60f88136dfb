//! Fig. 2: the structure of a live learning tangle — genesis, consensus
//! (approved by all tips), tips, and pending transactions — exported as a
//! Graphviz DOT file.

use crate::common::{sim_config, Opts};
use feddata::blobs::BlobsConfig;
use learning_tangle::{Simulation, TangleHyperParams};
use std::io::Write as _;
use tangle_ledger::analysis::{ConsensusView, TxClass};

/// Build a small tangle and report its Fig. 2 classification.
pub fn run(opts: &Opts) {
    let data = feddata::blobs::generate(
        &BlobsConfig {
            users: 12,
            samples_per_user: (20, 30),
            ..BlobsConfig::default()
        },
        opts.seed,
    );
    let build = || tinynn::zoo::mlp(8, &[12], 4, &mut tinynn::rng::seeded(5));
    let hyper = TangleHyperParams::basic();
    let mut sim = Simulation::new(data, sim_config(5, 0.15, opts.seed, hyper), build);
    let rounds = opts.rounds.unwrap_or(12);
    for _ in 0..rounds {
        sim.round();
    }
    let view = ConsensusView::compute(sim.tangle());
    let count = |class: TxClass| view.classes.iter().filter(|c| **c == class).count();
    println!("\n=== Fig. 2: tangle structure after {rounds} rounds ===");
    println!("transactions : {}", sim.tangle().len());
    println!("genesis      : {}", count(TxClass::Genesis));
    println!(
        "confirmed    : {} (approved by all tips — dark gray)",
        count(TxClass::Confirmed)
    );
    println!("tips         : {} (light gray)", count(TxClass::Tip));
    println!("pending      : {} (white)", count(TxClass::Pending));
    std::fs::create_dir_all(&opts.out).expect("create output dir");
    let path = opts.out.join("fig2.dot");
    let mut f = std::fs::File::create(&path).expect("create dot file");
    f.write_all(tangle_ledger::dot::to_dot(sim.tangle()).as_bytes())
        .expect("write dot");
    println!("wrote {} (render with `dot -Tpng`)", path.display());
}
