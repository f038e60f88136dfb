//! Fig. 3: FEMNIST convergence — FedAvg vs basic tangle vs optimized
//! tangle at 10 / 35 / 50 active nodes per round.

use crate::common::{print_series_table, run_fedavg, run_tangle, sim_config, write_json, Opts};
use crate::presets;
use fedavg::FedAvgConfig;
use learning_tangle::{Simulation, TangleHyperParams};

/// Run one Fig. 3 panel (a fixed node count); `which` filters panels:
/// `None` runs 10, 35 and 50.
pub fn run(opts: &Opts, which: Option<usize>) {
    let (mut rounds, eval_every) = presets::convergence_rounds(opts.scale);
    if let Some(r) = opts.rounds {
        rounds = r;
    }
    let data = feddata::femnist::generate(&presets::femnist_cfg(opts.scale), opts.seed);
    println!("dataset: {}", data.summary());
    let lr = presets::femnist_lr(opts.scale);
    let build = presets::femnist_model(opts.scale, opts.seed ^ 0xB111);
    let panels: Vec<usize> = match which {
        Some(n) => vec![n],
        None => vec![10, 35, 50],
    };
    for nodes in panels {
        println!("\n--- Fig. 3: {nodes} nodes per round ---");
        let fedavg_log = run_fedavg(
            &data,
            FedAvgConfig {
                nodes_per_round: nodes,
                local_epochs: 1,
                lr,
                batch_size: 16,
                seed: opts.seed,
                aggregator: fedavg::Aggregator::Mean,
            },
            build.clone(),
            rounds,
            eval_every,
            0.1,
            &format!("FedAvg-{nodes}"),
            false,
        );
        let basic = TangleHyperParams::basic();
        let (tangle_log, _) = run_tangle(
            Simulation::new(
                data.clone(),
                sim_config(nodes, lr, opts.seed, basic),
                build.clone(),
            ),
            rounds,
            eval_every,
            &format!("Tangle-{nodes}"),
            None,
            false,
        );
        let optimized = TangleHyperParams::optimized();
        let (opt_log, _) = run_tangle(
            Simulation::new(
                data.clone(),
                sim_config(nodes, lr, opts.seed, optimized),
                build.clone(),
            ),
            rounds,
            eval_every,
            &format!("Tangle-opt-{nodes}"),
            None,
            false,
        );
        let logs = vec![fedavg_log, tangle_log, opt_log];
        print_series_table(
            &format!("Fig. 3: FEMNIST accuracy, {nodes} nodes/round"),
            &logs,
        );
        write_json(&opts.out, &format!("fig3_{nodes}nodes"), &logs);
    }
}
