//! Fig. 4: Shakespeare (stacked LSTM) convergence — FedAvg vs basic
//! tangle, 10 active nodes per round.

use crate::common::{print_series_table, run_fedavg, run_tangle, sim_config, write_json, Opts};
use crate::presets;
use fedavg::FedAvgConfig;
use learning_tangle::{Simulation, TangleHyperParams};

/// Run the Fig. 4 experiment.
pub fn run(opts: &Opts) {
    let (mut rounds, eval_every) = presets::convergence_rounds(opts.scale);
    if let Some(r) = opts.rounds {
        rounds = r;
    }
    let data = feddata::shakespeare::generate(&presets::shakespeare_cfg(opts.scale), opts.seed);
    println!("dataset: {}", data.summary());
    let lr = presets::shakespeare_lr(opts.scale);
    let build = presets::shakespeare_model(opts.scale, opts.seed ^ 0x54A6);
    let nodes = 10;
    let fedavg_log = run_fedavg(
        &data,
        FedAvgConfig {
            nodes_per_round: nodes,
            local_epochs: 1,
            lr,
            batch_size: 8,
            seed: opts.seed,
            aggregator: fedavg::Aggregator::Mean,
        },
        build.clone(),
        rounds,
        eval_every,
        0.1,
        "FedAvg",
        false,
    );
    let basic = TangleHyperParams::basic();
    let mut cfg = sim_config(nodes, lr, opts.seed, basic);
    cfg.batch_size = 8;
    let (tangle_log, _) = run_tangle(
        Simulation::new(data.clone(), cfg, build.clone()),
        rounds,
        eval_every,
        "Tangle",
        None,
        false,
    );
    let logs = vec![fedavg_log, tangle_log];
    print_series_table(
        "Fig. 4: Shakespeare next-char accuracy, 10 nodes/round",
        &logs,
    );
    write_json(&opts.out, "fig4", &logs);
}
