//! The six workloads. Each runs as a sequence of identical epochs: set
//! up from the seed, do a fixed amount of work, check the outputs.

pub mod gossip;
pub mod net;
pub mod sim;

use crate::probes::Layer;
use crate::trace::{Span, Tracer};
use lt_telemetry::Telemetry;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One output check; a failed one makes the run incorrect.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The observed values, for the report.
    pub detail: String,
}

impl Check {
    /// A check named `name` that holds iff `ok`.
    pub fn new(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ok,
            detail: detail.into(),
        }
    }
}

/// Ledger size at one checkpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LedgerPoint {
    /// Transactions, genesis included.
    pub len: u64,
    /// Unapproved transactions.
    pub tips: u64,
}

/// Everything one epoch measured. Each epoch runs in a process of its
/// own and comes back to the run as one JSON line.
#[derive(Default, Serialize, Deserialize)]
pub struct Epoch {
    /// Dataset generation, model build, genesis, executor construction
    /// (and daemon spawn + mesh-up for `net_cluster`), seconds.
    pub setup_s: f64,
    /// The interval `acts_per_s` was taken over, seconds (probes,
    /// evaluations and set-up excluded).
    pub wall_s: f64,
    /// Node activations per second of `wall_s`.
    pub acts_per_s: f64,
    /// CPU microseconds (user + system) per activation.
    pub cpu_us_per_act: f64,
    /// Bytes moved or stored per published transaction.
    pub wire_bytes_per_tx: f64,
    /// One latency per closed-loop operation, microseconds.
    pub commit_us: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Peak resident set of the epoch's process plus its daemons, MiB.
    pub peak_rss_mb: f64,
    /// System share of the epoch process's own CPU time.
    pub sys_share: f64,
    /// Digest of the final ledger (or of the daemons' archives).
    pub digest: u64,
    /// Counts that must repeat exactly for a seed, traced or not.
    pub exact: BTreeMap<String, u64>,
    /// Per-layer values (probe and telemetry values in traced epochs
    /// only).
    pub layer: BTreeMap<String, f64>,
    /// Ledger size at every checkpoint.
    pub series: Vec<LedgerPoint>,
    /// Output checks of this epoch.
    pub checks: Vec<Check>,
    /// Harness spans (traced epochs only).
    pub spans: Vec<Span>,
}

impl Epoch {
    /// Fill in what every epoch reports the same way, once its work is
    /// done: the layer values and exact counts under owned names, the
    /// process's memory and CPU split, and the recorded spans.
    pub fn finish(mut self, layer: Layer, exact: &[(&str, u64)], tracer: &Tracer) -> Self {
        self.layer = layer.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        self.exact = exact.iter().map(|&(k, v)| (k.to_string(), v)).collect();
        self.peak_rss_mb += crate::host::peak_rss_mb(None);
        let (user, sys) = crate::host::cpu_ticks(None);
        self.sys_share = sys as f64 / (user + sys).max(1) as f64;
        self.spans = tracer.spans();
        self
    }
}

/// Full size for measurement, or the tiny sizes of `--smoke`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` was measured at.
    Full,
    /// A few rounds / activations: checks the plumbing, not the speed.
    Smoke,
}

/// The telemetry handle of an epoch: timings on when traced, the
/// disabled no-op handle otherwise.
pub fn telemetry(traced: bool) -> Telemetry {
    if traced {
        Telemetry::with_timings(lt_telemetry::MemorySink::new(), true)
    } else {
        Telemetry::disabled()
    }
}

/// Counters and span totals every in-process executor feeds, read from
/// the telemetry registry into per-layer names.
pub fn telemetry_layers(tel: &Telemetry, layer: &mut Layer) {
    let count = |name: &str| tel.counter_value(name) as f64;
    let busy_ms = |name: &str| tel.histogram_totals(name).1 as f64 / 1e3;
    let calls = |name: &str| tel.histogram_totals(name).0 as f64;
    let mean = |name: &str| {
        let (n, sum) = tel.histogram_totals(name);
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    };
    layer.insert("tinynn.model.train_n", calls("node.local_train_us"));
    layer.insert("tinynn.model.train_busy_ms", busy_ms("node.local_train_us"));
    layer.insert("tangle.analysis.appends_n", count("tangle.cache_appends"));
    layer.insert("tangle.analysis.hits_n", count("tangle.cache_hits"));
    layer.insert("tangle.analysis.rebuilds_n", count("tangle.cache_rebuilds"));
    layer.insert(
        "tangle.analysis.confidence_busy_ms",
        busy_ms("tangle.confidence_us"),
    );
    layer.insert(
        "tangle.analysis.confidence_walks_n",
        count("tangle.confidence_walks"),
    );
    layer.insert(
        "tangle.analysis.full_busy_ms",
        busy_ms("tangle.analysis_us"),
    );
    layer.insert("tangle.analysis.full_n", calls("tangle.analysis_us"));
    layer.insert("tangle.walk.walks_n", count("tangle.walks"));
    layer.insert("tangle.walk.len_mean", mean("tangle.walk_len"));
    layer.insert("tangle.walk.busy_ms", busy_ms("tangle.tip_selection_us"));
    let (hits, misses) = (count("eval_cache.hits"), count("eval_cache.misses"));
    layer.insert("core.eval_cache.hits_n", hits);
    layer.insert("core.eval_cache.misses_n", misses);
    layer.insert(
        "core.eval_cache.hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    layer.insert("core.eval_cache.evictions_n", count("eval_cache.evictions"));
    layer.insert(
        "core.eval_cache.invalidations_n",
        count("eval_cache.invalidations"),
    );
    layer.insert("core.sim.analysis_ms", busy_ms("span.analysis"));
    layer.insert("core.sim.step_ms", busy_ms("span.step"));
    layer.insert("core.sim.publish_ms", busy_ms("span.publish"));
    layer.insert("gossip.message.create_busy_ms", busy_ms("wire.encode_us"));
    layer.insert(
        "gossip.network.deliver_busy_ms",
        busy_ms("gossip.deliver_us"),
    );
    layer.insert("gossip.fault.crashes_n", count("fault.crash"));
    layer.insert("gossip.fault.restarts_n", count("fault.restart"));
    layer.insert("gossip.fault.checkpoints_n", count("fault.checkpoint"));
    layer.insert(
        "gossip.fault.recovery_ticks_mean",
        mean("fault.recovery_ticks"),
    );
}

/// CPU seconds this process spent between two [`crate::host::cpu_ns`]
/// readings.
pub fn cpu_s_since(start_ns: u64) -> f64 {
    crate::host::cpu_ns(None).saturating_sub(start_ns) as f64 / 1e9
}
