//! `lt-experiments benchcmp FILE`: summarise a benchmark pairs record.
//!
//! `FILE` is a `BENCH_*.json` written by `scripts/bench_pairs.sh`: a JSON
//! array of runs, each `{side, commit, pair, seed, workload, exit,
//! result}`. Runs are paired as the script appends them: two adjacent runs
//! of one workload, seed and pair number, one per side. Pairs are grouped
//! by workload, seed and the two commits, in the order they first appear.
//! For every group and every end-to-end metric of the `BENCHMARK.json`
//! beside `FILE` (or in the working directory) it prints each side's
//! median and interquartile range, the pairs the change won (ties count
//! for neither side), and the exact two-sided sign-test p-value; then
//! the `exact` keys that moved (`key parent → change`) or `exact lines
//! equal`; then every failed check and incorrect run, verbatim.

use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// `key`'s value in map `v`, if `v` is a map holding it.
fn field<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
    v.as_map()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// `v` as a number, if it is one.
fn num(v: &Value) -> Option<f64> {
    match *v {
        Value::U64(u) => Some(u as f64),
        Value::I64(i) => Some(i as f64),
        Value::F32(f) => Some(f64::from(f)),
        Value::F64(f) => Some(f),
        _ => None,
    }
}

/// One end-to-end metric of `BENCHMARK.json`.
struct Metric {
    name: String,
    higher_is_better: bool,
}

/// One run of the record.
struct Run<'a> {
    side: &'a str,
    commit: &'a str,
    pair: Option<f64>,
    seed: Option<f64>,
    workload: &'a str,
    raw: &'a Value,
}

impl<'a> Run<'a> {
    fn new(raw: &'a Value) -> Self {
        let text = |k| field(raw, k).and_then(Value::as_str).unwrap_or("?");
        Run {
            side: text("side"),
            commit: text("commit"),
            pair: field(raw, "pair").and_then(num),
            seed: field(raw, "seed").and_then(num),
            workload: text("workload"),
            raw,
        }
    }

    fn result(&self) -> Option<&'a Value> {
        field(self.raw, "result").filter(|r| r.as_map().is_some())
    }

    /// The value of end-to-end metric `name`, if the run wrote one.
    fn metric(&self, name: &str) -> Option<f64> {
        let m = field(self.result()?, "metrics")?;
        field(field(m, name)?, "value").and_then(num)
    }

    fn header(&self) -> String {
        let short = &self.commit[..self.commit.len().min(7)];
        let pair = self.pair.map_or("?".into(), |p| p.to_string());
        format!("{} {short} pair {pair}", self.side)
    }
}

/// The pairs of one workload, seed, parent and change: `(parent, change)`.
struct Group<'a> {
    workload: &'a str,
    seed: Option<f64>,
    parent: &'a str,
    change: &'a str,
    pairs: Vec<(Run<'a>, Run<'a>)>,
}

/// Pair adjacent runs of one workload, seed and pair number, one of each
/// side, and group the pairs; also return the runs left unpaired.
fn group(runs: Vec<Run<'_>>) -> (Vec<Group<'_>>, Vec<Run<'_>>) {
    let mut groups: Vec<Group> = Vec::new();
    let mut unpaired = Vec::new();
    let mut it = runs.into_iter().peekable();
    while let Some(a) = it.next() {
        let pairs_with = |b: &Run| {
            a.workload == b.workload
                && a.seed == b.seed
                && a.pair == b.pair
                && matches!(
                    (a.side, b.side),
                    ("parent", "change") | ("change", "parent")
                )
        };
        if !it.peek().is_some_and(pairs_with) {
            unpaired.push(a);
            continue;
        }
        let b = it.next().expect("peeked");
        let (p, c) = if a.side == "parent" { (a, b) } else { (b, a) };
        let at = groups.iter().position(|g| {
            (g.workload, g.seed, g.parent, g.change) == (p.workload, p.seed, p.commit, c.commit)
        });
        let at = at.unwrap_or_else(|| {
            groups.push(Group {
                workload: p.workload,
                seed: p.seed,
                parent: p.commit,
                change: c.commit,
                pairs: Vec::new(),
            });
            groups.len() - 1
        });
        groups[at].pairs.push((p, c));
    }
    (groups, unpaired)
}

/// The `q`-quantile of sorted `v`, interpolating linearly between ranks.
fn quantile(v: &[f64], q: f64) -> f64 {
    let at = q * (v.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

/// Median and interquartile range of `v`, or `None` if it is empty.
fn median_iqr(mut v: Vec<f64>) -> Option<(f64, f64)> {
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    Some((quantile(&v, 0.5), quantile(&v, 0.75) - quantile(&v, 0.25)))
}

/// The exact two-sided sign-test p-value of `wins` out of `n` untied
/// pairs: twice the probability, under a fair coin, of a split at least
/// as lopsided as the one seen, capped at 1.
pub fn sign_test(wins: u64, n: u64) -> f64 {
    if n == 0 {
        return 1.0;
    }
    let k = wins.min(n - wins);
    // Σ_{i ≤ k} C(n, i), built term by term; exact in f64 for n ≤ 1000.
    let (mut term, mut tail) = (1.0f64, 1.0f64);
    for i in 1..=k {
        term = term * (n - i + 1) as f64 / i as f64;
        tail += term;
    }
    (2.0 * tail / 2f64.powi(n as i32)).min(1.0)
}

/// The end-to-end metrics of the `BENCHMARK.json` beside `file`, or in the
/// working directory.
fn metrics(file: &Path) -> Result<Vec<Metric>, String> {
    let beside = file
        .parent()
        .unwrap_or(Path::new("."))
        .join("BENCHMARK.json");
    let path = [beside.as_path(), Path::new("BENCHMARK.json")]
        .into_iter()
        .find(|p| p.exists())
        .ok_or_else(|| format!("no BENCHMARK.json beside {}", file.display()))?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let spec: Value =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(Value::Seq(list)) = field(&spec, "end_to_end") else {
        return Err(format!("{}: no end_to_end list", path.display()));
    };
    list.iter()
        .map(|m| {
            let name = field(m, "name").and_then(Value::as_str);
            let better = field(m, "better").and_then(Value::as_str);
            match (name, better) {
                (Some(name), Some(b @ ("higher" | "lower"))) => Ok(Metric {
                    name: name.to_string(),
                    higher_is_better: b == "higher",
                }),
                _ => Err(format!("{}: malformed end_to_end entry", path.display())),
            }
        })
        .collect()
}

/// Print the summary of the record at `file`.
pub fn summarise(file: &Path) -> Result<(), String> {
    let metrics = metrics(file)?;
    let text = std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
    let record: Value =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", file.display()))?;
    let Value::Seq(raw) = &record else {
        return Err(format!("{}: not an array of runs", file.display()));
    };
    let (groups, unpaired) = group(raw.iter().map(Run::new).collect());
    println!(
        "{}: {} runs, {} pairs",
        file.display(),
        raw.len(),
        (raw.len() - unpaired.len()) / 2
    );
    for g in &groups {
        let seed = g.seed.map_or("?".into(), |s| s.to_string());
        println!(
            "\n{} seed {seed}: parent {} vs change {}, {} pairs",
            g.workload,
            &g.parent[..g.parent.len().min(7)],
            &g.change[..g.change.len().min(7)],
            g.pairs.len()
        );
        println!(
            "  {:<18} {:>24} {:>24} {:>8} {:>7} {:>8}",
            "metric", "parent median (IQR)", "change median (IQR)", "change", "won/n", "p"
        );
        for m in &metrics {
            let side = |change: bool| {
                let v = g.pairs.iter().map(|(p, c)| if change { c } else { p });
                median_iqr(v.filter_map(|r| r.metric(&m.name)).collect())
            };
            let (Some((pm, pq)), Some((cm, cq))) = (side(false), side(true)) else {
                continue;
            };
            let (mut won, mut lost) = (0, 0);
            for (p, c) in &g.pairs {
                if let (Some(p), Some(c)) = (p.metric(&m.name), c.metric(&m.name)) {
                    let better = if m.higher_is_better { c > p } else { c < p };
                    let worse = if m.higher_is_better { c < p } else { c > p };
                    won += u64::from(better);
                    lost += u64::from(worse);
                }
            }
            let rel = if pm != 0.0 {
                format!("{:+.1}%", 100.0 * (cm - pm) / pm.abs())
            } else {
                "-".into()
            };
            println!(
                "  {:<18} {:>24} {:>24} {rel:>8} {:>7} {:>8.5}",
                m.name,
                format!("{} ({})", short(pm), short(pq)),
                format!("{} ({})", short(cm), short(cq)),
                format!("{won}/{}", won + lost),
                sign_test(won, won + lost)
            );
        }
        for line in exact_diff(&g.pairs) {
            println!("  {line}");
        }
        let runs = g.pairs.iter().flat_map(|(p, c)| [p, c]);
        print_failures(runs);
    }
    if !unpaired.is_empty() {
        println!("\nunpaired runs: {}", unpaired.len());
        for r in &unpaired {
            println!("  {} {} seed {:?}", r.header(), r.workload, r.seed);
        }
        print_failures(unpaired.iter());
    }
    Ok(())
}

/// The `exact` keys whose values differ between the sides (a side's values
/// joined by `/` as they first appear, `-` if absent), or `exact lines equal`.
fn exact_diff(pairs: &[(Run, Run)]) -> Vec<String> {
    let mut keys: BTreeMap<&str, [Vec<String>; 2]> = BTreeMap::new();
    for (side, run) in pairs.iter().flat_map(|(p, c)| [(0, p), (1, c)]) {
        let exact = run.result().and_then(|r| field(r, "exact"));
        for (k, v) in exact.and_then(Value::as_map).unwrap_or(&[]) {
            let (v, values) = (to_json(v), &mut keys.entry(k).or_default()[side]);
            if !values.contains(&v) {
                values.push(v);
            }
        }
    }
    let show = |vs: &[String]| match vs {
        [] => "-".to_string(),
        _ => vs.join("/"),
    };
    let mut moved: Vec<String> = (keys.iter().filter(|(_, [p, c])| p != c))
        .map(|(k, [p, c])| format!("exact {k}: {} → {}", show(p), show(c)))
        .collect();
    if moved.is_empty() {
        moved.push("exact lines equal".into());
    }
    moved
}

/// Print every failed check and every run that was not correct, verbatim.
fn print_failures<'r, 'a: 'r>(runs: impl Iterator<Item = &'r Run<'a>>) {
    let mut any = false;
    for r in runs {
        let Some(result) = r.result() else {
            any = true;
            println!(
                "  {}: no result file, exit {:?}",
                r.header(),
                field(r.raw, "exit").and_then(num)
            );
            continue;
        };
        if !matches!(field(result, "correct"), Some(Value::Bool(true))) {
            any = true;
            let correct = field(result, "correct").map(to_json);
            println!(
                "  {}: \"correct\": {}",
                r.header(),
                correct.unwrap_or_default()
            );
        }
        if let Some(Value::Seq(checks)) = field(result, "checks") {
            for c in checks {
                if !matches!(field(c, "ok"), Some(Value::Bool(true))) {
                    any = true;
                    println!("  {}: failed check {}", r.header(), to_json(c));
                }
            }
        }
    }
    if !any {
        println!("  every run correct, every check passed");
    }
}

/// `v` with at least four significant digits and at most four decimals.
fn short(v: f64) -> String {
    let decimals = 3 - (v.abs().log10().floor() as i32).clamp(-1, 3);
    format!("{v:.*}", decimals as usize)
}

fn to_json(v: &Value) -> String {
    serde_json::to_string(v).unwrap_or_else(|e| format!("<{e}>"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_test_is_exact() {
        assert_eq!(sign_test(10, 10), 2.0 / 1024.0);
        assert_eq!(sign_test(9, 10), 22.0 / 1024.0);
        assert_eq!(sign_test(1, 10), 22.0 / 1024.0);
        assert_eq!(sign_test(5, 10), 1.0);
        assert_eq!(sign_test(0, 0), 1.0);
    }

    #[test]
    fn short_keeps_four_digits() {
        assert_eq!(short(46255.478), "46255");
        assert_eq!(short(749.3993), "749.4");
        assert_eq!(short(0.01421), "0.0142");
        assert_eq!(short(0.0), "0.0000");
    }

    #[test]
    fn quartiles_interpolate() {
        assert_eq!(median_iqr(vec![4.0, 1.0, 3.0, 2.0]), Some((2.5, 1.5)));
        assert_eq!(median_iqr(vec![7.0]), Some((7.0, 0.0)));
        assert_eq!(median_iqr(Vec::new()), None);
    }

    #[test]
    fn exact_lines_that_moved_are_listed_per_side() {
        let run = |side: &str, pair: u64, exact: &str| -> Value {
            let commit = if side == "parent" { "a" } else { "b" };
            serde_json::from_str(&format!(
                r#"{{"side":"{side}","commit":"{commit}","pair":{pair},"seed":11,"workload":"w","result":{{"exact":{exact}}}}}"#
            ))
            .unwrap()
        };
        let raw = [
            run("parent", 1, r#"{"ticks":1230,"published":902}"#),
            run("change", 1, r#"{"ticks":1258,"published":902}"#),
            run("change", 2, r#"{"ticks":1258,"published":902,"new":1}"#),
            run("parent", 2, r#"{"ticks":1231,"published":902}"#),
        ];
        let (groups, _) = group(raw.iter().map(Run::new).collect());
        assert_eq!(
            exact_diff(&groups[0].pairs),
            ["exact new: - → 1", "exact ticks: 1230/1231 → 1258"]
        );
        let exact = r#"{"ticks":1230,"published":902}"#;
        let same = [run("parent", 1, exact), run("change", 1, exact)];
        let (groups, _) = group(same.iter().map(Run::new).collect());
        assert_eq!(exact_diff(&groups[0].pairs), ["exact lines equal"]);
    }

    #[test]
    fn runs_pair_by_adjacency_and_group_by_commits() {
        let run = |side: &str, commit: &str, pair: u64| -> Value {
            serde_json::from_str(&format!(
                r#"{{"side":"{side}","commit":"{commit}","pair":{pair},"seed":11,"workload":"w","result":null}}"#
            ))
            .unwrap()
        };
        let raw = [
            run("parent", "a", 1),
            run("change", "b", 1),
            run("change", "b", 2),
            run("parent", "a", 2),
            run("change", "c", 1),
            run("parent", "a", 1),
            run("parent", "a", 3),
        ];
        let (groups, unpaired) = group(raw.iter().map(Run::new).collect());
        let shape: Vec<_> = groups
            .iter()
            .map(|g| (g.parent, g.change, g.pairs.len()))
            .collect();
        assert_eq!(shape, [("a", "b", 2), ("a", "c", 1)]);
        assert_eq!(unpaired.len(), 1);
        assert!(groups.iter().all(|g| g
            .pairs
            .iter()
            .all(|(p, c)| p.side == "parent" && c.side == "change")));
    }
}
