//! Long-haul soak runs: a daemon cluster under rolling chaos.
//!
//! A soak run drives steady publish traffic into a cluster whose links
//! and processes are being actively damaged by a [`ChaosPlan`] — the
//! real-socket analogue of the churn experiment. When the schedule ends
//! the cluster is healed ([`crate::driver::Supervisor::heal`]) and the
//! run asserts *reconvergence through the repair protocol*:
//!
//! 1. every daemon settles on the same replica length with no orphans
//!    and nothing missing, stable across consecutive polls;
//! 2. the repair machinery goes quiescent (`net.rerequests` stops
//!    growing) — bounded repair, not a runaway re-request loop;
//! 3. final archives byte-agree across daemons as *sets* (insertion
//!    order may differ per daemon under concurrent gossip).
//!
//! Ledger-invariant checking on replicas rebuilt from those archives is
//! the caller's job (`lt-experiments net --soak-secs` wires in
//! `lt_conformance::check_ledger_invariants`), keeping `lt-net` free of
//! a conformance dependency.

use crate::chaos::ChaosPlan;
use crate::driver::{Cluster, ClusterOptions, Supervisor};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tangle_gossip::TxMessage;

/// Parameters of one soak run.
#[derive(Clone, Debug)]
pub struct SoakConfig {
    /// Daemon count.
    pub nodes: usize,
    /// Preset seed (dataset/model/genesis).
    pub seed: u64,
    /// How long to drive traffic under chaos, ms.
    pub duration_ms: u64,
    /// The fault schedule (see [`ChaosPlan::rolling`]).
    pub chaos: ChaosPlan,
    /// Directory for per-daemon checkpoint files.
    pub checkpoint_dir: PathBuf,
    /// Daemon checkpoint cadence, ms.
    pub checkpoint_every_ms: u64,
    /// Pause between activations, ms (paces publish traffic so the
    /// run exercises repair, not just raw throughput).
    pub activation_gap_ms: u64,
    /// How long reconvergence may take after the heal, ms.
    pub converge_timeout_ms: u64,
}

impl SoakConfig {
    /// A `nodes`-daemon soak of `duration_ms` under a rolling schedule
    /// seeded by `chaos_seed`, checkpointing into `checkpoint_dir`.
    pub fn new(nodes: usize, seed: u64, duration_ms: u64, chaos_seed: u64, dir: &Path) -> Self {
        Self {
            nodes,
            seed,
            duration_ms,
            chaos: ChaosPlan::rolling(nodes, duration_ms, chaos_seed),
            checkpoint_dir: dir.to_path_buf(),
            checkpoint_every_ms: 100,
            activation_gap_ms: 40,
            converge_timeout_ms: 30_000,
        }
    }
}

/// Everything a soak run measured, serializable as `results/soak.json`.
/// The embedded [`ChaosPlan`] makes the run replayable: feed it back
/// through the same seed and the same schedule unfolds.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SoakReport {
    /// Daemon count.
    pub nodes: u64,
    /// Preset seed.
    pub seed: u64,
    /// Driving phase length, ms.
    pub duration_ms: u64,
    /// Activations attempted (includes ones skipped on dead daemons).
    pub activations: u64,
    /// Activations that published a transaction.
    pub published: u64,
    /// Activations skipped because the target daemon was killed.
    pub skipped_down: u64,
    /// SIGKILLs executed by the supervisor.
    pub kills: u64,
    /// Respawns executed by the supervisor.
    pub respawns: u64,
    /// Did every daemon reach the same stable, fully-solid length?
    pub converged: bool,
    /// Wall-clock the reconvergence took after the heal, ms.
    pub converge_ms: u64,
    /// The common final replica length (genesis included).
    pub final_len: u64,
    /// Did `net.rerequests` stop growing after convergence?
    pub repair_quiescent: bool,
    /// Sum of `net.rerequests` over all daemons at the end.
    pub rerequests: u64,
    /// Do the final archives byte-agree across daemons (as sets)?
    pub archives_agree: bool,
    /// Whole-cluster counter totals (every `net.*` counter summed).
    pub counters: BTreeMap<String, u64>,
    /// The schedule this run executed — the replay artifact.
    pub plan: ChaosPlan,
}

impl SoakReport {
    /// Serialize for `results/soak.json`.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("SoakReport is always serializable")
    }
}

/// Run one soak. Returns the report plus each daemon's final archive
/// (insertion order, genesis excluded) so callers can rebuild replicas
/// and run invariant checks. The cluster is shut down before returning.
pub fn run_soak(bin: &Path, cfg: &SoakConfig) -> io::Result<(SoakReport, Vec<Vec<TxMessage>>)> {
    std::fs::create_dir_all(&cfg.checkpoint_dir)?;
    let mut opts = ClusterOptions::new(cfg.nodes, cfg.seed);
    opts.checkpoint_dir = Some(cfg.checkpoint_dir.clone());
    opts.checkpoint_every_ms = cfg.checkpoint_every_ms;
    opts.chaos = Some(cfg.chaos.clone());
    let mut cluster = Cluster::spawn_with(bin, opts)?;
    let mut supervisor = Supervisor::new(&cfg.chaos);

    // ---- drive traffic while the schedule burns ----
    let mut activations = 0u64;
    let mut published = 0u64;
    let mut skipped_down = 0u64;
    let mut slot = 0u64;
    while cluster.elapsed_ms() < cfg.duration_ms {
        supervisor.poll(&mut cluster)?;
        slot += 1;
        let target = (slot as usize) % cfg.nodes;
        activations += 1;
        if cluster.alive(target) {
            match cluster.activate(target, slot) {
                Ok(did) => published += u64::from(did),
                // an activation can race a partition-era control hiccup;
                // the soak's job is to keep driving, not to die with it
                Err(_) => skipped_down += 1,
            }
        } else {
            skipped_down += 1;
        }
        if cfg.activation_gap_ms > 0 {
            std::thread::sleep(Duration::from_millis(cfg.activation_gap_ms));
        }
    }

    // ---- heal and watch the repair protocol reconverge ----
    supervisor.heal(&mut cluster)?;
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_millis(cfg.converge_timeout_ms);
    let mut converged = false;
    let mut final_len = 0u64;
    let mut last = None;
    while Instant::now() < deadline {
        let st = cluster.status()?;
        let solid = st.iter().all(|s| s.orphans == 0 && s.missing == 0);
        let len = st[0].len;
        let all_equal = st.iter().all(|s| s.len == len);
        if solid && all_equal && last == Some(len) {
            converged = true;
            final_len = len as u64;
            break;
        }
        last = (solid && all_equal).then_some(len);
        std::thread::sleep(Duration::from_millis(200));
    }
    let converge_ms = t0.elapsed().as_millis() as u64;

    // ---- bounded repair: the counters must go quiescent ----
    let rerequests_now = |cluster: &mut Cluster| -> io::Result<u64> {
        Ok(sum_counter(&cluster.metrics()?, "net.rerequests"))
    };
    let before = rerequests_now(&mut cluster)?;
    std::thread::sleep(Duration::from_millis(500));
    let rerequests = rerequests_now(&mut cluster)?;
    let repair_quiescent = converged && rerequests == before;

    // ---- archive agreement (set equality of encoded messages) ----
    let archives = cluster.archives()?;
    let mut encoded: Vec<Vec<Vec<u8>>> = archives
        .iter()
        .map(|a| a.iter().map(|m| m.encode().to_vec()).collect())
        .collect();
    for e in &mut encoded {
        e.sort();
    }
    let archives_agree = encoded.windows(2).all(|w| w[0] == w[1]);

    let metrics = cluster.metrics()?;
    let mut counters = BTreeMap::new();
    for (cs, _) in &metrics {
        for (name, v) in cs {
            *counters.entry(name.clone()).or_insert(0) += *v;
        }
    }

    let report = SoakReport {
        nodes: cfg.nodes as u64,
        seed: cfg.seed,
        duration_ms: cfg.duration_ms,
        activations,
        published,
        skipped_down,
        kills: supervisor.kills,
        respawns: supervisor.respawns,
        converged,
        converge_ms,
        final_len,
        repair_quiescent,
        rerequests,
        archives_agree,
        counters,
        plan: cfg.chaos.clone(),
    };
    cluster.shutdown()?;
    Ok((report, archives))
}

/// One daemon's snapshot as returned by `Cluster::metrics`:
/// `(counters, histograms)`.
type MetricsSnapshot = (Vec<(String, u64)>, Vec<(String, u64, u64)>);

fn sum_counter(metrics: &[MetricsSnapshot], name: &str) -> u64 {
    metrics
        .iter()
        .flat_map(|(c, _)| c.iter())
        .filter(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .sum()
}
