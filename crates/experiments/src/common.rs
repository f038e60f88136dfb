//! Shared experiment infrastructure: scale selection, run loops, output.

use fedavg::{FedAvg, FedAvgConfig};
use feddata::FederatedDataset;
use learning_tangle::metrics::{MetricPoint, MetricsLog};
use learning_tangle::{SimConfig, Simulation};
use lt_telemetry::{JsonlSink, Telemetry};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use tinynn::Sequential;

/// Whether to run the paper-scale or the laptop-scale configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Scaled-down defaults (minutes on one CPU core).
    Scaled,
    /// The paper's population / image / round sizes (hours).
    Paper,
}

/// Global CLI options shared by all experiments.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Scale preset.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
    /// Output directory for JSON/DOT artifacts.
    pub out: PathBuf,
    /// Optional round-count override.
    pub rounds: Option<u64>,
    /// Structured-event JSONL output path (`--telemetry <path>`).
    pub telemetry: Option<PathBuf>,
    /// Record wall-clock span timings into the telemetry stream
    /// (`--telemetry-timings`; makes the JSONL non-deterministic).
    pub telemetry_timings: bool,
    /// Crash/restart cycles for the churn experiment (`--churn=N`).
    pub churn: u64,
    /// Seed of the fault-injection RNG (`--fault-seed=N`), independent of
    /// the master seed so faults can vary while learning stays fixed.
    pub fault_seed: u64,
    /// Ticks between peer checkpoints (`--checkpoint-every=N`, 0 = off).
    pub checkpoint_every: u64,
    /// Schedules to explore in the conformance harness (`--schedules=N`).
    pub schedules: usize,
    /// Replay a conformance repro artifact instead of exploring
    /// (`--replay=PATH`).
    pub replay: Option<PathBuf>,
    /// Inject a documented bug into the conformance harness to prove it
    /// is caught (`--mutate=stale-cache`).
    pub mutate: Option<String>,
    /// Daemon count for the `net` experiment (`--nodes=N`).
    pub nodes: Option<usize>,
    /// Run the `net` experiment as a chaos soak of this many seconds
    /// (`--soak-secs=N`) instead of lockstep + throughput.
    pub soak_secs: Option<u64>,
    /// Seed of the soak's rolling chaos schedule (`--chaos-seed=N`),
    /// independent of the master seed so the fault pattern can vary
    /// while dataset/model/genesis stay fixed.
    pub chaos_seed: u64,
}

impl Opts {
    /// Parse from the raw CLI args following the subcommand.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = Opts {
            scale: Scale::Scaled,
            seed: 42,
            out: PathBuf::from("results"),
            rounds: None,
            telemetry: None,
            telemetry_timings: false,
            churn: 4,
            fault_seed: 7,
            checkpoint_every: 64,
            schedules: 256,
            replay: None,
            mutate: None,
            nodes: None,
            soak_secs: None,
            chaos_seed: 7,
        };
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if a == "--paper" {
                opts.scale = Scale::Paper;
            } else if a == "--telemetry-timings" {
                opts.telemetry_timings = true;
            } else if let Some(v) = a.strip_prefix("--seed=") {
                opts.seed = v.parse().map_err(|e| format!("bad --seed: {e}"))?;
            } else if let Some(v) = a.strip_prefix("--out=") {
                opts.out = PathBuf::from(v);
            } else if let Some(v) = a.strip_prefix("--rounds=") {
                opts.rounds = Some(v.parse().map_err(|e| format!("bad --rounds: {e}"))?);
            } else if let Some(v) = a.strip_prefix("--churn=") {
                opts.churn = v.parse().map_err(|e| format!("bad --churn: {e}"))?;
            } else if let Some(v) = a.strip_prefix("--fault-seed=") {
                opts.fault_seed = v.parse().map_err(|e| format!("bad --fault-seed: {e}"))?;
            } else if let Some(v) = a.strip_prefix("--checkpoint-every=") {
                opts.checkpoint_every = v
                    .parse()
                    .map_err(|e| format!("bad --checkpoint-every: {e}"))?;
            } else if let Some(v) = a.strip_prefix("--schedules=") {
                opts.schedules = v.parse().map_err(|e| format!("bad --schedules: {e}"))?;
            } else if let Some(v) = a.strip_prefix("--replay=") {
                opts.replay = Some(PathBuf::from(v));
            } else if let Some(v) = a.strip_prefix("--mutate=") {
                opts.mutate = Some(v.to_string());
            } else if let Some(v) = a.strip_prefix("--nodes=") {
                opts.nodes = Some(v.parse().map_err(|e| format!("bad --nodes: {e}"))?);
            } else if let Some(v) = a.strip_prefix("--soak-secs=") {
                opts.soak_secs = Some(v.parse().map_err(|e| format!("bad --soak-secs: {e}"))?);
            } else if let Some(v) = a.strip_prefix("--chaos-seed=") {
                opts.chaos_seed = v.parse().map_err(|e| format!("bad --chaos-seed: {e}"))?;
            } else if let Some(v) = a.strip_prefix("--telemetry=") {
                opts.telemetry = Some(PathBuf::from(v));
            } else if a == "--telemetry" {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or_else(|| "missing path after --telemetry".to_string())?;
                opts.telemetry = Some(PathBuf::from(v));
            } else if matches!(
                a.as_str(),
                "--seed" | "--schedules" | "--replay" | "--mutate"
            ) {
                // Space-separated forms of the value flags above.
                let key = a.clone();
                i += 1;
                let v = args
                    .get(i)
                    .ok_or_else(|| format!("missing value after {key}"))?;
                match key.as_str() {
                    "--seed" => opts.seed = v.parse().map_err(|e| format!("bad --seed: {e}"))?,
                    "--schedules" => {
                        opts.schedules = v.parse().map_err(|e| format!("bad --schedules: {e}"))?
                    }
                    "--replay" => opts.replay = Some(PathBuf::from(v)),
                    _ => opts.mutate = Some(v.clone()),
                }
            } else {
                return Err(format!("unknown option {a}"));
            }
            i += 1;
        }
        Ok(opts)
    }
}

/// The process-wide telemetry handle. Lives in a static (never dropped) so
/// the JSONL sink stays valid for the whole run; the sink flushes every
/// line, so the file is complete at exit regardless.
static TELEMETRY: OnceLock<Telemetry> = OnceLock::new();

/// Initialize the global telemetry handle from the CLI options. Call once,
/// before any experiment runs; later calls are no-ops.
pub fn init_telemetry(opts: &Opts) {
    let handle = match &opts.telemetry {
        None => Telemetry::disabled(),
        Some(path) => {
            let sink = JsonlSink::create(path)
                .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
            eprintln!("  telemetry -> {}", path.display());
            Telemetry::with_timings(sink, opts.telemetry_timings)
        }
    };
    let _ = TELEMETRY.set(handle);
}

/// The global telemetry handle (disabled when `--telemetry` was not given
/// or [`init_telemetry`] has not run).
pub fn telemetry() -> Telemetry {
    TELEMETRY.get().cloned().unwrap_or_default()
}

/// Run a learning-tangle simulation for `rounds`, evaluating the consensus
/// model every `eval_every` rounds (and once at the end).
///
/// `attack_target` enables the Fig. 6b misclassification metric.
pub fn run_tangle<'a>(
    mut sim: Simulation<'a>,
    rounds: u64,
    eval_every: u64,
    label: &str,
    attack_target: Option<(u32, u32)>,
    quiet: bool,
) -> (MetricsLog, Simulation<'a>) {
    let mut log = MetricsLog::new(label);
    sim.set_telemetry(telemetry());
    for r in 1..=rounds {
        let stats = sim.round();
        if r % eval_every == 0 || r == rounds {
            let ev = sim.evaluate(r);
            let mis = attack_target.map(|(s, d)| sim.target_misclassification(s, d, r));
            log.push(MetricPoint {
                round: r,
                accuracy: ev.accuracy,
                loss: ev.loss,
                target_misclassification: mis,
                tips: Some(stats.tips),
            });
            if !quiet {
                println!(
                    "  [{label}] round {r:>4}  acc {:.3}  loss {:.3}  tips {:>3}  published {}/{}{}",
                    ev.accuracy,
                    ev.loss,
                    stats.tips,
                    stats.published,
                    stats.sampled,
                    mis.map(|m| format!("  3->8 {:.1}%", m * 100.0)).unwrap_or_default()
                );
            }
        }
    }
    (log, sim)
}

/// Run the FedAvg baseline for `rounds`, evaluating every `eval_every`.
#[allow(clippy::too_many_arguments)]
pub fn run_fedavg(
    data: &FederatedDataset,
    cfg: FedAvgConfig,
    build: impl Fn() -> Sequential + Sync,
    rounds: u64,
    eval_every: u64,
    eval_fraction: f32,
    label: &str,
    quiet: bool,
) -> MetricsLog {
    let mut log = MetricsLog::new(label);
    let mut fa = FedAvg::new(data, cfg, build);
    for r in 1..=rounds {
        fa.round();
        if r % eval_every == 0 || r == rounds {
            let (loss, acc) = fa.evaluate(eval_fraction, r);
            log.push(MetricPoint {
                round: r,
                accuracy: acc,
                loss,
                target_misclassification: None,
                tips: None,
            });
            if !quiet {
                println!("  [{label}] round {r:>4}  acc {acc:.3}  loss {loss:.3}");
            }
        }
    }
    log
}

/// Write a collection of metric series as JSON under `out/<name>.json`.
pub fn write_json(out: &Path, name: &str, logs: &[MetricsLog]) {
    std::fs::create_dir_all(out).expect("create output dir");
    let path = out.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(logs).expect("serializable logs");
    let mut f = std::fs::File::create(&path).expect("create json file");
    f.write_all(json.as_bytes()).expect("write json");
    println!("  wrote {}", path.display());
}

/// Print a paper-style series table: one row per evaluated round, one
/// column per series.
pub fn print_series_table(title: &str, logs: &[MetricsLog]) {
    println!("\n=== {title} ===");
    print!("{:>7}", "round");
    for l in logs {
        print!("  {:>18}", truncate(&l.label, 18));
    }
    println!();
    let rounds: Vec<u64> = logs
        .first()
        .map(|l| l.points.iter().map(|p| p.round).collect())
        .unwrap_or_default();
    for (i, r) in rounds.iter().enumerate() {
        print!("{r:>7}");
        for l in logs {
            match l.points.get(i) {
                Some(p) => print!("  {:>18.3}", p.accuracy),
                None => print!("  {:>18}", "-"),
            }
        }
        println!();
    }
}

fn truncate(s: &str, n: usize) -> &str {
    if s.len() <= n {
        s
    } else {
        &s[..n]
    }
}

/// Build a `SimConfig` shared by the tangle runs.
pub fn sim_config(
    nodes_per_round: usize,
    lr: f32,
    seed: u64,
    hyper: learning_tangle::TangleHyperParams,
) -> SimConfig {
    SimConfig {
        nodes_per_round,
        lr,
        seed,
        hyper,
        ..SimConfig::default()
    }
}
