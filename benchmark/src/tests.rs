//! Tests of the harness as a whole: the names it prints, the result
//! line, determinism per seed, and the exit code of a failed check.

use crate::run::{epoch_here, run, EpochKind, Outcome, RunConfig};
use crate::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::workloads::sim::{Kind, SimSpec};
use crate::workloads::{Epoch, Size};
use serde::Value;
use std::sync::Once;

/// `net_cluster` needs the `lt-node` binary next to the test binary's
/// directory (where `run.sh --self-test` puts it) or in `LT_NODE_BIN`;
/// build it there if it is in neither place.
fn ensure_node_bin() {
    static BUILT: Once = Once::new();
    BUILT.call_once(|| {
        if lt_net::default_node_bin().is_file() {
            return;
        }
        let exe = std::env::current_exe().expect("test binary path");
        let mut cmd = std::process::Command::new("cargo");
        cmd.args([
            "build",
            "--offline",
            "--quiet",
            "-p",
            "lt-net",
            "--bin",
            "lt-node",
        ])
        .current_dir(env!("CARGO_MANIFEST_DIR"));
        if exe.components().any(|c| c.as_os_str() == "release") {
            cmd.arg("--release");
        }
        assert!(
            cmd.status().expect("run cargo").success(),
            "building lt-node failed"
        );
        assert!(
            lt_net::default_node_bin().is_file(),
            "lt-node still missing"
        );
    });
}

fn smoke(name: &str, seed: u64, trace: bool) -> RunConfig {
    RunConfig {
        name: name.into(),
        size: Size::Smoke,
        seed,
        seconds: 0.0,
        trace,
    }
}

fn here(cfg: &RunConfig, kind: EpochKind, input_seed: u64) -> Result<Epoch, String> {
    epoch_here(cfg, kind, input_seed).ok_or_else(|| format!("unknown workload {}", cfg.name))
}

fn smoke_run(name: &str, trace: bool) -> Outcome {
    ensure_node_bin();
    run(&smoke(name, 11, trace), &here).expect("smoke run")
}

fn get<'a>(map: &'a Value, key: &str) -> &'a Value {
    map.as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("no key {key}"))
}

fn seq(v: &Value) -> &[Value] {
    match v {
        Value::Seq(s) => s,
        other => panic!("expected a list, got {}", other.kind()),
    }
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_lists_exactly_the_names_in_spec() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let json: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = json
        .as_map()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let text_of = |v: &Value, key: &str| get(v, key).as_str().expect("a string").to_string();

    let workloads: Vec<(String, String)> = seq(get(&json, "workloads"))
        .iter()
        .map(|w| (text_of(w, "name"), text_of(w, "why")))
        .collect();
    let want: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|(n, w)| (n.to_string(), w.to_string()))
        .collect();
    assert_eq!(workloads, want);
    assert!(workloads
        .iter()
        .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));

    let end_to_end: Vec<(String, String, String, f64)> = seq(get(&json, "end_to_end"))
        .iter()
        .map(|m| {
            let bound = match get(m, "bound") {
                Value::F64(b) => *b,
                other => panic!("bound is {}", other.kind()),
            };
            (
                text_of(m, "name"),
                text_of(m, "unit"),
                text_of(m, "better"),
                bound,
            )
        })
        .collect();
    let want: Vec<(String, String, String, f64)> = END_TO_END
        .iter()
        .map(|&(n, u, b, x)| (n.into(), u.into(), b.into(), x))
        .collect();
    assert_eq!(end_to_end, want);
    assert!(end_to_end.iter().all(|m| m.3 > 0.0 && m.3 <= 0.25));
    assert!(end_to_end
        .iter()
        .any(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == "lower"));

    let per_layer: Vec<(String, String, String)> = seq(get(&json, "per_layer"))
        .iter()
        .map(|m| (text_of(m, "name"), text_of(m, "unit"), text_of(m, "better")))
        .collect();
    let want: Vec<(String, String, String)> = PER_LAYER
        .iter()
        .map(|&(n, u, b)| (n.into(), u.into(), b.into()))
        .collect();
    assert_eq!(per_layer, want);
    assert!(per_layer.len() <= 128);

    let mut names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.0)
        .chain(END_TO_END.iter().map(|m| m.0))
        .chain(PER_LAYER.iter().map(|m| m.0))
        .collect();
    assert!(
        names.iter().all(|n| valid_name(n)),
        "names match [A-Za-z0-9][A-Za-z0-9_.-]*"
    );
    names.sort_unstable();
    let before = names.len();
    names.dedup();
    assert_eq!(names.len(), before, "every name is used once");
}

/// One smoke run per workload and trace mode prints every metric of
/// `BENCHMARK.json` by name with its unit, in a result line of exactly
/// the four keys the driver reads, with every output check passing.
#[test]
fn smoke_runs_print_every_metric_and_pass_every_check() {
    for (name, _) in WORKLOADS {
        for trace in [false, true] {
            let outcome = smoke_run(name, trace);
            let failed: Vec<_> = outcome.checks.iter().filter(|c| !c.ok).collect();
            assert!(outcome.correct, "{name} trace {trace}: {failed:?}");
            assert_eq!(outcome.failed, 0, "{name} trace {trace}");
            assert!(outcome.attempted >= 1);
            assert_eq!(outcome.exit_code(), 0);

            let got: Vec<(&str, &str)> = outcome.metrics.iter().map(|m| (m.name, m.unit)).collect();
            let want: Vec<(&str, &str)> = if trace {
                PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
            } else {
                END_TO_END.iter().map(|m| (m.0, m.1)).collect()
            };
            assert_eq!(got, want, "{name} trace {trace}");
            assert!(
                outcome.metrics.iter().all(|m| m.value.is_finite()),
                "{name} trace {trace}"
            );
            if !trace {
                // End-to-end metrics are never 0.
                assert!(
                    outcome.metrics.iter().all(|m| m.value > 0.0),
                    "{name}: {:?}",
                    outcome.metrics
                );
            }

            let line: Value =
                serde_json::from_str(&outcome.result_line()).expect("result line parses");
            let keys: Vec<&str> = line
                .as_map()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(get(&line, "metrics").as_map().unwrap().len(), want.len());

            let host = get(&outcome.file, "host");
            for field in ["cores", "rayon_num_threads", "rustc", "commit", "kernel"] {
                get(host, field);
            }
            let spans = outcome
                .file
                .as_map()
                .unwrap()
                .iter()
                .find(|(k, _)| k == "spans");
            assert_eq!(spans.is_some_and(|(_, s)| !seq(s).is_empty()), trace);
        }
    }
}

/// The layers a workload was chosen to bypass read 0 there, and the
/// ones it was chosen for do not.
#[test]
fn bypassed_layers_read_zero() {
    let value = |o: &Outcome, name: &str| o.metrics.iter().find(|m| m.name == name).unwrap().value;
    let flood = smoke_run("gossip_flood", true);
    let churn = smoke_run("gossip_churn", true);
    for name in [
        "gossip.fault.crashes_n",
        "gossip.fault.checkpoints_n",
        "tangle.analysis.rebuilds_n",
        "core.eval_cache.invalidations_n",
        "gossip.network.dropped_n",
        "net.protocol.delivered_n",
        "core.sim.step_ms",
    ] {
        assert_eq!(value(&flood, name), 0.0, "{name} on gossip_flood");
    }
    assert!(value(&flood, "gossip.network.delivered_n") > 0.0);
    assert!(value(&flood, "gossip.peer.receive_us") > 0.0);
    assert!(value(&churn, "gossip.fault.crashes_n") > 0.0);
    assert!(value(&churn, "gossip.fault.checkpoints_n") > 0.0);

    let ledger = smoke_run("sim_ledger", true);
    let stale = smoke_run("sim_stale", true);
    assert_eq!(value(&ledger, "tangle.analysis.full_n"), 0.0);
    assert!(value(&ledger, "tangle.analysis.appends_n") > 0.0);
    assert!(value(&stale, "tangle.analysis.full_n") > 0.0);
    assert_eq!(value(&stale, "tangle.analysis.appends_n"), 0.0);
    assert_eq!(value(&ledger, "gossip.network.delivered_n"), 0.0);
}

#[test]
fn a_seed_fixes_the_schedule_and_another_seed_changes_it() {
    for name in ["sim_stale", "gossip_churn"] {
        let epoch = |seed| here(&smoke(name, 0, false), EpochKind::Untraced, seed).unwrap();
        let (a, b, c) = (epoch(11), epoch(11), epoch(12));
        assert_eq!(a.digest, b.digest, "{name}");
        assert_eq!(a.exact, b.exact, "{name}");
        assert!(!a.exact.is_empty());
        assert_ne!(a.digest, c.digest, "{name}");
    }
}

/// Deliberately failing checks: an output that differs between the
/// traced and the untraced epoch, and an accuracy floor no model
/// reaches, each make the run incorrect and the exit code non-zero.
#[test]
fn a_failed_output_check_makes_the_exit_code_non_zero() {
    let tampered = |cfg: &RunConfig, kind: EpochKind, input_seed: u64| {
        let mut epoch = here(cfg, kind, input_seed)?;
        if kind == EpochKind::Traced {
            epoch.digest ^= 1;
        }
        Ok(epoch)
    };
    let outcome = run(&smoke("sim_ledger", 11, true), &tampered).unwrap();
    assert!(!outcome.correct);
    assert_ne!(outcome.exit_code(), 0);
    let failed: Vec<&str> = outcome
        .checks
        .iter()
        .filter(|c| !c.ok)
        .map(|c| c.name.as_str())
        .collect();
    assert_eq!(failed, ["traced and untraced epochs end byte-identical"]);
    assert!(outcome.result_line().starts_with("{\"correct\":false,"));

    let impossible = SimSpec {
        min_final_accuracy: 1.5,
        ..SimSpec::new(Kind::Ledger, Size::Smoke)
    };
    let epoch = impossible.epoch(11, false);
    assert!(epoch
        .checks
        .iter()
        .any(|c| !c.ok && c.name == "final consensus accuracy"));
}

#[test]
fn an_epoch_survives_the_trip_between_processes() {
    let epoch = here(&smoke("gossip_flood", 11, true), EpochKind::Traced, 11).unwrap();
    let line = serde_json::to_string(&epoch).unwrap();
    assert!(!line.contains('\n'));
    let back: Epoch = serde_json::from_str(&line).unwrap();
    assert_eq!(back.digest, epoch.digest);
    assert_eq!(back.exact, epoch.exact);
    assert_eq!(back.layer, epoch.layer);
    assert_eq!(back.commit_us, epoch.commit_us);
    assert_eq!(back.spans, epoch.spans);
    assert_eq!(back.series, epoch.series);
}
