//! The whole suite, and the A/A comparison of several sets of it.
//!
//! Every run is a child process of this binary, exactly as the driver
//! starts it, so peak memory and thread pools never carry over from
//! one workload to the next.

use crate::spec::{END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles, spread};
use crate::Args;
use serde::Deserialize;
use std::collections::BTreeMap;
use std::process::Command;

/// The result line of a run, as the driver reads it.
#[derive(Deserialize)]
struct ResultLine {
    correct: bool,
    failed: u64,
    metrics: BTreeMap<String, MetricValue>,
}

#[derive(Deserialize)]
struct MetricValue {
    value: f64,
}

/// What one child run reported.
struct Report {
    result: ResultLine,
    /// `# exact` lines: counts that must repeat for the seed.
    exact: Vec<String>,
}

fn child(args: &Args, workload: &str, seed: u64, trace: bool) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in &lines {
        println!("{line}");
    }
    let mut result: ResultLine = serde_json::from_str(last).map_err(|e| {
        format!(
            "{workload} printed no result ({e}); stderr: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        )
    })?;
    result.correct &= out.status.success();
    Ok(Report {
        result,
        exact: lines
            .iter()
            .filter(|l| l.starts_with("# exact "))
            .map(|l| l.to_string())
            .collect(),
    })
}

/// Is `second` worse than `first` by more than `bound` of `first`?
pub fn regressed(better: &str, first: f64, second: f64, bound: f64) -> bool {
    let worse_by = if better == "higher" {
        first - second
    } else {
        second - first
    };
    worse_by > bound * first.abs()
}

/// Run the suite `args.sets` times and return the process exit code.
pub fn run(args: &Args) -> i32 {
    let mut ok = true;
    // (workload, metric) -> one vector of run values per set
    let mut values: BTreeMap<(&str, String), Vec<Vec<f64>>> = BTreeMap::new();
    // (workload, seed, traced) -> the exact-count lines of each set
    let mut exact: BTreeMap<(&str, u64, bool), Vec<Vec<String>>> = BTreeMap::new();
    for set in 0..args.sets {
        for (workload, _) in WORKLOADS {
            // Untraced runs on `runs` seeds give the end-to-end numbers;
            // one traced run on the first seed gives the layers.
            let plan = (0..args.runs as u64)
                .map(|r| (args.seed + r, false))
                .chain([(args.seed, true)]);
            for (seed, trace) in plan {
                println!(
                    "# set {set} {workload} seed {seed} trace {}",
                    u8::from(trace)
                );
                match child(args, workload, seed, trace) {
                    Ok(Report {
                        result,
                        exact: counts,
                    }) => {
                        if !result.correct || result.failed > 0 {
                            println!(
                                "# FAILED {workload}: correct {} failed {}",
                                result.correct, result.failed
                            );
                            ok = false;
                        }
                        exact
                            .entry((workload, seed, trace))
                            .or_default()
                            .push(counts);
                        if !trace {
                            for (name, metric) in result.metrics {
                                let sets = values.entry((workload, name)).or_default();
                                sets.resize(set + 1, Vec::new());
                                sets[set].push(metric.value);
                            }
                        }
                    }
                    Err(e) => {
                        println!("# FAILED {e}");
                        ok = false;
                    }
                }
            }
        }
    }
    if args.sets > 1 {
        ok &= print_aa(&values, &exact);
    }
    i32::from(!ok)
}

fn print_aa(
    values: &BTreeMap<(&str, String), Vec<Vec<f64>>>,
    exact: &BTreeMap<(&str, u64, bool), Vec<Vec<String>>>,
) -> bool {
    let mut ok = true;
    println!("\n# A/A: per workload and end-to-end metric, each set's q1 / median / q3, spread = (q3-q1)/median");
    println!("| workload | metric | set | q1 | median | q3 | spread | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|");
    for (workload, _) in WORKLOADS {
        for (metric, _, better, bound) in END_TO_END {
            let Some(sets) = values.get(&(workload, metric.to_string())) else {
                continue;
            };
            let medians: Vec<f64> = sets.iter().map(|s| median(s)).collect();
            for (i, set) in sets.iter().enumerate() {
                let q = quartiles(set);
                let sp = spread(set);
                // The spread of set-up time is reported, not judged.
                let steady = metric == "setup_s" || sp.is_none_or(|s| s <= bound);
                let held = i == 0 || !regressed(better, medians[0], medians[i], bound);
                ok &= steady && held;
                println!(
                    "| {workload} | {metric} | {i} | {} | {:.6} | {} | {} | {bound} | {} |",
                    q.map_or("-".into(), |q| format!("{:.6}", q[0])),
                    medians[i],
                    q.map_or("-".into(), |q| format!("{:.6}", q[2])),
                    sp.map_or("-".into(), |s| format!("{s:.4}")),
                    match (steady, held) {
                        (true, true) => "pass",
                        (false, _) => "FAIL spread",
                        (_, false) => "FAIL median",
                    }
                );
            }
        }
    }
    println!("\n# exact counts: identical across sets for the same workload, seed and trace mode");
    for ((workload, seed, trace), sets) in exact {
        let same = sets.iter().all(|s| *s == sets[0]);
        ok &= same;
        println!(
            "# exact {workload} seed {seed} trace {}: {} counts, {}",
            u8::from(*trace),
            sets[0].len(),
            if same { "identical" } else { "DIFFER" }
        );
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::regressed;

    #[test]
    fn regression_respects_direction_and_bound() {
        assert!(!regressed("lower", 100.0, 104.0, 0.05));
        assert!(regressed("lower", 100.0, 106.0, 0.05));
        assert!(!regressed("lower", 100.0, 50.0, 0.05));
        assert!(!regressed("higher", 100.0, 96.0, 0.05));
        assert!(regressed("higher", 100.0, 94.0, 0.05));
        assert!(!regressed("higher", 100.0, 200.0, 0.05));
    }
}
