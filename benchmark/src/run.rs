//! One run of one workload: epochs until the time budget is used,
//! medians over them, output checks, and the run file.

use crate::host;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, tail_percentile};
use crate::workloads::gossip::GossipSpec;
use crate::workloads::net::NetSpec;
use crate::workloads::sim::{Kind, SimSpec};
use crate::workloads::{Check, Epoch, Size};
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::process::Command;
use std::time::Instant;

/// A workload with its sizes.
#[derive(Clone, Copy, Debug)]
pub enum Workload {
    /// `sim_cnn`, `sim_ledger`, `sim_stale`.
    Sim(SimSpec),
    /// `gossip_flood`, `gossip_churn`.
    Gossip(GossipSpec),
    /// `net_cluster`.
    Net(NetSpec),
}

impl Workload {
    /// The workload called `name`, at `size`.
    pub fn parse(name: &str, size: Size) -> Option<Self> {
        Some(match name {
            "sim_cnn" => Self::Sim(SimSpec::new(Kind::Cnn, size)),
            "sim_ledger" => Self::Sim(SimSpec::new(Kind::Ledger, size)),
            "sim_stale" => Self::Sim(SimSpec::new(Kind::Stale, size)),
            "gossip_flood" => Self::Gossip(GossipSpec::new(false, size)),
            "gossip_churn" => Self::Gossip(GossipSpec::new(true, size)),
            "net_cluster" => Self::Net(NetSpec::new(size)),
            _ => return None,
        })
    }

    fn epoch(&self, seed: u64, traced: bool) -> Epoch {
        match self {
            Self::Sim(s) => s.epoch(seed, traced),
            Self::Gossip(s) => s.epoch(seed, traced),
            Self::Net(s) => s.epoch(seed, traced),
        }
    }

    fn setup_only(&self, seed: u64) -> f64 {
        match self {
            Self::Sim(s) => s.setup_only(seed),
            Self::Gossip(s) => s.setup_only(seed),
            Self::Net(s) => s.setup_only(seed),
        }
    }
}

/// What to run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Workload name.
    pub name: String,
    /// Full or smoke sizes.
    pub size: Size,
    /// Every input derives from this.
    pub seed: u64,
    /// Measure for about this long.
    pub seconds: f64,
    /// Attach telemetry, record spans, run the probes, and report the
    /// per-layer metrics instead of the end-to-end ones.
    pub trace: bool,
}

/// What one epoch process is asked to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EpochKind {
    /// Set up and measure, nothing attached.
    Untraced,
    /// Set up and measure with telemetry, spans and probes.
    Traced,
    /// Set up only: one more `setup_s` sample.
    SetupOnly,
}

impl EpochKind {
    /// The word that selects this kind on the command line.
    pub fn flag(self) -> &'static str {
        match self {
            Self::Untraced => "untraced",
            Self::Traced => "traced",
            Self::SetupOnly => "setup",
        }
    }

    /// The kind `flag` selects.
    pub fn parse(flag: &str) -> Option<Self> {
        [Self::Untraced, Self::Traced, Self::SetupOnly]
            .into_iter()
            .find(|k| k.flag() == flag)
    }
}

/// Do one epoch on the inputs of `input_seed` in this process. `None`
/// for an unknown workload name.
pub fn epoch_here(cfg: &RunConfig, kind: EpochKind, input_seed: u64) -> Option<Epoch> {
    let workload = Workload::parse(&cfg.name, cfg.size)?;
    Some(match kind {
        EpochKind::SetupOnly => Epoch {
            setup_s: workload.setup_only(input_seed),
            ..Epoch::default()
        },
        _ => workload.epoch(input_seed, kind == EpochKind::Traced),
    })
}

/// Do one epoch in a fresh process of this binary, so that it starts
/// with a cold allocator and an unspawned thread pool, as a user's run
/// does, and so that its peak memory is its own.
pub fn epoch_in_child(cfg: &RunConfig, kind: EpochKind, input_seed: u64) -> Result<Epoch, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--epoch", kind.flag(), "--workload", &cfg.name])
        .args(["--seed", &input_seed.to_string()]);
    if cfg.size == Size::Smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "epoch process failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    serde_json::from_str(stdout.lines().last().unwrap_or_default()).map_err(|e| e.to_string())
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value, all digits.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The result of a run.
pub struct Outcome {
    /// Every output check held.
    pub correct: bool,
    /// Operations attempted over all epochs.
    pub attempted: u64,
    /// Operations failed over all epochs.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Counts that must repeat exactly for the seed.
    pub exact: BTreeMap<String, u64>,
    /// Every check made.
    pub checks: Vec<Check>,
    /// Human-readable notes: sample counts, drift flag.
    pub notes: Vec<String>,
    /// The run file.
    pub file: Value,
}

fn metrics_value(metrics: &[Metric]) -> Value {
    Value::Map(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Value::Map(vec![
                        ("value".into(), Value::F64(m.value)),
                        ("unit".into(), Value::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

impl Outcome {
    /// Process exit code: non-zero when an output check failed.
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.correct)
    }

    /// The last line of standard output the driver reads.
    pub fn result_line(&self) -> String {
        let line = Value::Map(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::U64(self.attempted)),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), metrics_value(&self.metrics)),
        ]);
        serde_json::to_string(&line).expect("values serialize")
    }
}

/// How a run gets one epoch done: `(config, kind, input seed)`.
pub type Exec<'a> = &'a dyn Fn(&RunConfig, EpochKind, u64) -> Result<Epoch, String>;

/// Run `cfg.name` for about `cfg.seconds` seconds, getting each epoch
/// done through `exec`.
///
/// Epoch `i` runs on the inputs of seed `cfg.seed + i`, so that one run
/// already takes the median over several generated inputs: how much a
/// transaction costs depends on how many activations pass the publish
/// gate, which varies with the data by more than any regression bound.
/// In a traced run epochs come in pairs on the same inputs, untraced
/// then traced.
pub fn run(cfg: &RunConfig, exec: Exec<'_>) -> Result<Outcome, String> {
    // Daemons on real threads and sockets interleave differently every
    // time: for them no seed fixes an output byte or a count.
    let is_net = matches!(
        Workload::parse(&cfg.name, cfg.size)
            .ok_or_else(|| format!("unknown workload {}", cfg.name))?,
        Workload::Net(_)
    );
    let calib_before = host::calib_ms();
    // (traced, epoch); the untraced epochs of a traced run are the
    // baseline the traced outputs and wall times are held against.
    let mut epochs: Vec<(bool, Epoch)> = Vec::new();
    let mut measured = 0.0;
    loop {
        let traced = cfg.trace && epochs.len() % 2 == 1;
        let input = epochs.len() as u64 / if cfg.trace { 2 } else { 1 };
        let t = Instant::now();
        let epoch = exec(
            cfg,
            if traced {
                EpochKind::Traced
            } else {
                EpochKind::Untraced
            },
            cfg.seed.wrapping_add(input),
        )?;
        let took = t.elapsed().as_secs_f64() - epoch.setup_s;
        measured += took;
        epochs.push((traced, epoch));
        let enough = !cfg.trace || epochs.len().is_multiple_of(2);
        // Stop at the epoch count nearest the budget.
        if enough && measured + took / 2.0 >= cfg.seconds {
            break;
        }
    }
    let mut setups: Vec<f64> = epochs.iter().map(|(_, e)| e.setup_s).collect();
    let t = Instant::now();
    while setups.len() < 9 && t.elapsed().as_secs_f64() < 0.5 {
        setups.push(
            exec(
                cfg,
                EpochKind::SetupOnly,
                cfg.seed.wrapping_add(setups.len() as u64),
            )?
            .setup_s,
        );
    }
    let calib_after = host::calib_ms();
    let drift_pct = 100.0 * (calib_after / calib_before - 1.0).abs();

    let all = |f: fn(&Epoch) -> f64| -> Vec<f64> { epochs.iter().map(|(_, e)| f(e)).collect() };
    let commits: Vec<f64> = epochs
        .iter()
        .flat_map(|(_, e)| e.commit_us.iter().copied())
        .collect();
    let attempted = epochs.iter().map(|(_, e)| e.attempted).sum::<u64>().max(1);
    let failed = epochs.iter().map(|(_, e)| e.failed).sum();

    // Each distinct check once: its first failure, else its last pass.
    let mut checks: Vec<Check> = Vec::new();
    for c in epochs.iter().flat_map(|(_, e)| &e.checks) {
        match checks.iter_mut().find(|seen| seen.name == c.name) {
            Some(seen) if seen.ok => *seen = c.clone(),
            Some(_) => {}
            None => checks.push(c.clone()),
        }
    }
    let first = &epochs[0].1;
    if cfg.trace && !is_net {
        let same = epochs
            .chunks(2)
            .all(|pair| pair[0].1.digest == pair[1].1.digest && pair[0].1.exact == pair[1].1.exact);
        checks.push(Check::new(
            "traced and untraced epochs end byte-identical",
            same,
            format!(
                "{} pairs, first digest {:016x}",
                epochs.len() / 2,
                first.digest
            ),
        ));
    }
    let correct = checks.iter().all(|c| c.ok);

    let mut notes = vec![
        format!(
            "{} epochs, {} set-up samples, {} commit samples",
            epochs.len(),
            setups.len(),
            commits.len()
        ),
        format!(
            "epoch wall_s: {}",
            all(|e| e.wall_s)
                .iter()
                .map(|w| format!("{w:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        ),
    ];
    if drift_pct > 5.0 {
        notes.push(format!(
            "SUSPECT: calibration kernel drifted {drift_pct:.1} % ({calib_before:.2} -> {calib_after:.2} ms)"
        ));
    }

    let metrics: Vec<Metric> = if cfg.trace {
        let side = |want: bool| -> Vec<&Epoch> {
            epochs
                .iter()
                .filter(|(t, _)| *t == want)
                .map(|(_, e)| e)
                .collect()
        };
        let (traced, plain) = (side(true), side(false));
        let over = |of: &[&Epoch], f: fn(&Epoch) -> f64| {
            median(&of.iter().map(|e| f(e)).collect::<Vec<_>>())
        };
        let tail = tail_percentile(commits.len());
        if let Some(p) = tail {
            notes.push(format!("commit tail is p{p} of {} samples", commits.len()));
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| {
                let value = match name {
                    "telemetry.overhead_pct" => {
                        100.0 * (over(&traced, |e| e.wall_s) / over(&plain, |e| e.wall_s) - 1.0)
                    }
                    "bench.calib_ms" => (calib_before + calib_after) / 2.0,
                    "bench.calib_drift_pct" => drift_pct,
                    "bench.sys_share" => over(&traced, |e| e.sys_share),
                    "net.driver.commit_tail_us" if is_net => {
                        tail.map_or(0.0, |p| percentile(&commits, p))
                    }
                    _ => median(
                        &traced
                            .iter()
                            .map(|e| e.layer.get(name).copied().unwrap_or(0.0))
                            .collect::<Vec<_>>(),
                    ),
                };
                Metric { name, value, unit }
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit, _, _)| {
                let value = match name {
                    "setup_s" => median(&setups),
                    "acts_per_s" => median(&all(|e| e.acts_per_s)),
                    "commit_p50_us" => median(&commits),
                    "cpu_us_per_act" => median(&all(|e| e.cpu_us_per_act)),
                    "wire_bytes_per_tx" => median(&all(|e| e.wire_bytes_per_tx)),
                    "peak_rss_mb" => median(&all(|e| e.peak_rss_mb)),
                    other => unreachable!("end-to-end metric {other} has no source"),
                };
                Metric { name, value, unit }
            })
            .collect()
    };

    let mut file = vec![
        ("workload".to_string(), Value::Str(cfg.name.clone())),
        ("seed".into(), Value::U64(cfg.seed)),
        ("seconds".into(), Value::F64(cfg.seconds)),
        ("traced".into(), Value::Bool(cfg.trace)),
        ("host".into(), host::fingerprint()),
        ("epochs".into(), Value::U64(epochs.len() as u64)),
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(attempted)),
        ("failed".into(), Value::U64(failed)),
        (
            "calib_ms".into(),
            vec![calib_before, calib_after].to_value(),
        ),
        ("suspect".into(), Value::Bool(drift_pct > 5.0)),
        ("metrics".into(), metrics_value(&metrics)),
        ("exact".into(), first.exact.to_value()),
        ("checks".into(), checks.to_value()),
        ("ledger_series".into(), first.series.to_value()),
    ];
    if cfg.trace {
        // One list of spans per traced epoch; `parent` indexes into the
        // same list.
        let mut self_time_us: BTreeMap<String, f64> = BTreeMap::new();
        for (_, e) in &epochs {
            for s in &e.spans {
                *self_time_us.entry(s.name.clone()).or_default() += s.self_us;
            }
        }
        file.push(("self_time_us".into(), self_time_us.to_value()));
        file.push((
            "spans".into(),
            Value::Seq(
                epochs
                    .iter()
                    .filter(|(t, _)| *t)
                    .map(|(_, e)| e.spans.to_value())
                    .collect(),
            ),
        ));
    }

    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
        exact: first.exact.clone(),
        checks,
        notes,
        file: Value::Map(file),
    })
}
