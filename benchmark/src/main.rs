//! `lt-benchmark` — the repository's macro-benchmark.
//!
//! ```text
//! lt-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>] [--smoke]
//! lt-benchmark [--seed <n>] [--seconds <s>] [--sets <k>] [--runs <r>] [--out <dir>] [--smoke]
//! ```
//!
//! With `--workload` it runs that workload once and prints one line
//! per metric (`workload metric value unit`), then one JSON object the
//! driver reads. Without, it runs the whole suite by starting itself
//! once per workload and trace mode (so every run has its own peak
//! memory), and with `--sets` prints the A/A table. A run in turn
//! starts itself with `--epoch <untraced|traced|setup>` for each of its
//! epochs, which prints the epoch as one JSON line.

mod host;
mod probes;
mod run;
mod spec;
mod stats;
mod suite;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use run::{EpochKind, RunConfig};
use std::path::PathBuf;
use workloads::Size;

/// Parsed command line.
pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: usize,
    runs: usize,
    out: PathBuf,
    smoke: bool,
    /// Set on the processes a run starts for its epochs.
    epoch: Option<EpochKind>,
}

fn usage(problem: &str) -> ! {
    eprintln!("lt-benchmark: {problem}");
    eprintln!(
        "usage: lt-benchmark [--workload <name> --trace <0|1>] [--seed <n>] [--seconds <s>] \
         [--sets <k>] [--runs <r>] [--out <dir>] [--smoke]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 11,
        seconds: 10.0,
        trace: false,
        sets: 1,
        runs: 1,
        out: PathBuf::from("benchmark/out"),
        smoke: false,
        epoch: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        fn num<T: std::str::FromStr>(flag: &str, s: String) -> T {
            s.parse()
                .unwrap_or_else(|_| usage(&format!("bad value for {flag}: {s:?}")))
        }
        match flag.as_str() {
            "--workload" => args.workload = Some(value()),
            "--seed" => args.seed = num(&flag, value()),
            "--seconds" => args.seconds = num(&flag, value()),
            "--trace" => args.trace = num::<u8>(&flag, value()) != 0,
            "--sets" => args.sets = num(&flag, value()),
            "--runs" => args.runs = num(&flag, value()),
            "--out" => args.out = PathBuf::from(value()),
            "--smoke" => args.smoke = true,
            "--epoch" => {
                let kind = value();
                args.epoch = Some(
                    EpochKind::parse(&kind)
                        .unwrap_or_else(|| usage(&format!("bad epoch kind {kind}"))),
                );
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if args.sets == 0 || args.runs == 0 {
        usage("--sets and --runs must be at least 1");
    }
    args
}

fn main() {
    let args = parse_args();
    let Some(name) = args.workload.clone() else {
        std::process::exit(suite::run(&args));
    };
    let cfg = RunConfig {
        name: name.clone(),
        size: if args.smoke { Size::Smoke } else { Size::Full },
        seed: args.seed,
        seconds: if args.smoke { 0.0 } else { args.seconds },
        trace: args.trace,
    };
    if let Some(kind) = args.epoch {
        let Some(epoch) = run::epoch_here(&cfg, kind, args.seed) else {
            usage(&format!("unknown workload {name}"));
        };
        println!(
            "{}",
            serde_json::to_string(&epoch).expect("epochs serialize")
        );
        return;
    }
    let outcome = run::run(&cfg, &run::epoch_in_child).unwrap_or_else(|e| {
        eprintln!("lt-benchmark: {name}: {e}");
        std::process::exit(1);
    });
    for m in &outcome.metrics {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
    }
    for (count, value) in &outcome.exact {
        println!("# exact {name} {count} {value}");
    }
    for c in &outcome.checks {
        println!(
            "# check {} [{}] {}",
            if c.ok { "ok" } else { "FAILED" },
            c.name,
            c.detail
        );
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    let file = args.out.join(format!(
        "{name}{}.json",
        if args.trace { ".trace" } else { "" }
    ));
    let written = std::fs::create_dir_all(&args.out).and_then(|()| {
        std::fs::write(
            &file,
            serde_json::to_string_pretty(&outcome.file).expect("values serialize"),
        )
    });
    if let Err(e) = written {
        eprintln!("lt-benchmark: cannot write {}: {e}", file.display());
        std::process::exit(1);
    }
    println!("{}", outcome.result_line());
    std::process::exit(outcome.exit_code());
}
