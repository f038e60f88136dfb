//! `lt-experiments` — regenerate every table and figure of *Tangle Ledger
//! for Decentralized Learning*.
//!
//! ```text
//! lt-experiments <experiment> [--paper] [--seed=N] [--rounds=N] [--out=DIR]
//!                [--telemetry <path.jsonl>] [--telemetry-timings]
//!                [--churn=N] [--fault-seed=N] [--checkpoint-every=N]
//!                [--schedules=N] [--replay=PATH] [--mutate=stale-cache]
//!
//! experiments:
//!   table1   dataset characteristics and training parameters
//!   fig2     tangle structure classification + DOT export
//!   fig3     FEMNIST convergence, FedAvg vs tangle vs optimized tangle
//!   fig3a/b/c  single panel (10 / 35 / 50 nodes per round)
//!   fig4     Shakespeare convergence, FedAvg vs tangle
//!   table2   hyperparameter sweep: rounds to 70% of reference accuracy
//!   fig5     random-noise poisoning, p in {0.1, 0.2, 0.25, 0.3}
//!   fig6     label-flipping 3->8, p in {0.1, 0.2, 0.3} (accuracy + 6b)
//!   backdoor corner-trigger backdoor attack (extension), p in {0.1, 0.2, 0.3}
//!   gossipnet distributed gossip implementation vs message loss (extension)
//!   net      multi-process networking: N lt-node daemons over localhost
//!            TCP; lockstep byte-agreement with the in-process executor,
//!            then sustained-publish throughput/latency (--nodes=N).
//!            With --soak-secs=N: a long-haul chaos soak instead —
//!            rolling partitions/latency/corruption/resets plus SIGKILL
//!            + checkpoint-restore cycles, asserting reconvergence and
//!            invariant-clean archives (--chaos-seed=N)
//!   churn    fault injection: accuracy/consistency vs crash-restart churn
//!   linkability update-linkability attack vs DP noise (extension, §III-D)
//!   ablate   design-choice ablations (defense, alpha, bias, network)
//!   conformance model-based schedule exploration across the three
//!            executors; shrinks failures to JSON repro artifacts and
//!            replays them (--schedules / --replay / --mutate)
//!   all      everything above, in order
//!   benchcmp FILE  summarise a BENCH_*.json pairs record (per workload and
//!            end-to-end metric: medians and IQRs of both sides, pairs
//!            won, exact sign-test p-value, failed checks and runs)
//! ```
//!
//! The default (scaled-down) configuration finishes on a single CPU core;
//! `--paper` restores the paper-scale populations and round counts.

mod ablate;
mod attacks;
mod benchcmp;
mod churn;
mod common;
mod conformance;
mod fig2;
mod fig3;
mod fig4;
mod gossipnet;
mod linkability;
mod net;
mod presets;
mod table1;
mod table2;

use common::Opts;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|c| c == "benchcmp") {
        let [_, file] = args.as_slice() else {
            eprintln!("usage: lt-experiments benchcmp FILE");
            std::process::exit(2);
        };
        if let Err(e) = benchcmp::summarise(std::path::Path::new(file)) {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        return;
    }
    let Some(cmd) = args.first() else {
        eprintln!("usage: lt-experiments <table1|fig2|fig3|fig3a|fig3b|fig3c|fig4|table2|fig5|fig6|backdoor|gossipnet|net|churn|linkability|ablate|conformance|all|benchcmp FILE> [--nodes=N] [--soak-secs=N] [--chaos-seed=N] [--paper] [--seed=N] [--rounds=N] [--out=DIR] [--telemetry <path.jsonl>] [--telemetry-timings] [--churn=N] [--fault-seed=N] [--checkpoint-every=N] [--schedules=N] [--replay=PATH] [--mutate=stale-cache]");
        std::process::exit(2);
    };
    let opts = match Opts::parse(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    common::init_telemetry(&opts);
    let t0 = std::time::Instant::now();
    match cmd.as_str() {
        "table1" => table1::run(&opts),
        "fig2" => fig2::run(&opts),
        "fig3" => fig3::run(&opts, None),
        "fig3a" => fig3::run(&opts, Some(10)),
        "fig3b" => fig3::run(&opts, Some(35)),
        "fig3c" => fig3::run(&opts, Some(50)),
        "fig4" => fig4::run(&opts),
        "table2" => table2::run(&opts),
        "fig5" => attacks::fig5(&opts),
        "fig6" => attacks::fig6(&opts),
        "backdoor" => attacks::backdoor(&opts),
        "gossipnet" => gossipnet::run(&opts),
        "net" => net::run(&opts),
        "churn" => churn::run(&opts),
        "linkability" => linkability::run(&opts),
        "ablate" => ablate::run(&opts),
        "conformance" => conformance::run(&opts),
        "all" => {
            table1::run(&opts);
            fig2::run(&opts);
            fig3::run(&opts, None);
            fig4::run(&opts);
            table2::run(&opts);
            attacks::fig5(&opts);
            attacks::fig6(&opts);
            attacks::backdoor(&opts);
            gossipnet::run(&opts);
            churn::run(&opts);
            linkability::run(&opts);
            ablate::run(&opts);
        }
        other => {
            eprintln!("unknown experiment: {other}");
            std::process::exit(2);
        }
    }
    println!("\ndone in {:.1?}", t0.elapsed());
}
