//! Table II: effect of tangle hyperparameters on convergence speed —
//! rounds needed to reach 70% of the reference (FedAvg) accuracy, swept
//! over `n_tips × sample_size × reference_avg`.

use crate::common::{run_fedavg, run_tangle, sim_config, write_json, Opts, Scale};
use crate::presets;
use fedavg::FedAvgConfig;
use learning_tangle::metrics::rounds_to_reach;
use learning_tangle::{Simulation, TangleHyperParams};

/// Run the Table II sweep.
pub fn run(opts: &Opts) {
    // Finer evaluation stride than Fig. 3, since the metric is a crossing
    // round.
    let (cap, _) = presets::convergence_rounds(opts.scale);
    let cap = opts.rounds.unwrap_or(cap);
    let eval_every = 4;
    let nodes = match opts.scale {
        Scale::Scaled => 20,
        Scale::Paper => 35,
    };
    let mut fcfg = presets::femnist_cfg(opts.scale);
    if opts.scale == Scale::Scaled {
        fcfg.users = 60; // smaller population keeps the 24-run sweep fast
    }
    let data = feddata::femnist::generate(&fcfg, opts.seed);
    println!("dataset: {}", data.summary());
    let lr = presets::femnist_lr(opts.scale);
    let build = presets::femnist_model(opts.scale, opts.seed ^ 0x7AB2);

    // Reference: FedAvg's accuracy after the same budget.
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
        cap,
        eval_every,
        0.1,
        "FedAvg-reference",
        true,
    );
    let ref_acc = fedavg_log.final_accuracy().expect("fedavg ran");
    let threshold = 0.7 * ref_acc;
    println!("FedAvg reference accuracy {ref_acc:.3} -> threshold {threshold:.3}");

    let tip_options = [2usize, 3];
    let sample_mults = [1usize, 2, 5];
    let ref_options = [1usize, 2, 10, 50];
    let mut logs = Vec::new();
    let mut table: Vec<Vec<Option<u64>>> = Vec::new();
    for &n in &tip_options {
        for &m in &sample_mults {
            let mut row = Vec::new();
            for &r in &ref_options {
                let hyper = TangleHyperParams {
                    num_tips: n,
                    sample_size: n * m,
                    reference_avg: r,
                    alpha: 0.5,
                    tip_validation: m > 1,
                    ..TangleHyperParams::basic()
                };
                let label = format!("tips{n}-sample{}-ref{r}", n * m);
                let (log, _) = run_tangle(
                    Simulation::new(
                        data.clone(),
                        sim_config(nodes, lr, opts.seed, hyper),
                        build.clone(),
                    ),
                    cap,
                    eval_every,
                    &label,
                    None,
                    true,
                );
                let rounds = rounds_to_reach(&log, threshold);
                println!(
                    "  {label:<24} -> {}",
                    rounds
                        .map(|r| r.to_string())
                        .unwrap_or_else(|| format!(">{cap}"))
                );
                row.push(rounds);
                logs.push(log);
            }
            table.push(row);
        }
    }

    println!("\n=== Table II: rounds to reach 70% of reference accuracy ===");
    println!(
        "{:<10} {:<12} {:>8} {:>8} {:>8} {:>8}",
        "# tips", "sample", "ref=1", "ref=2", "ref=10", "ref=50"
    );
    let mut i = 0;
    for &n in &tip_options {
        for &m in &sample_mults {
            print!("{:<10} {:<12}", n, format!("{}n = {}", m, n * m));
            for cell in &table[i] {
                match cell {
                    Some(r) => print!(" {r:>8}"),
                    None => print!(" {:>8}", format!(">{cap}")),
                }
            }
            println!();
            i += 1;
        }
    }
    write_json(&opts.out, "table2", &logs);
}
