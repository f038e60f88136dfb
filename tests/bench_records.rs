//! The committed benchmark records at the repository root (`BENCH_*.json`,
//! written by `scripts/bench_pairs.sh`) stay readable: each is a JSON
//! array of runs. Every run names the commit it measured and its side of
//! the pair, and carries its benchmark result file, which names the host
//! it ran on and says whether the run was correct.

use serde_json::Value;

/// `key`'s value in map `v`, if `v` is a map holding it.
fn field<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
    v.as_map()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Every `BENCH_*.json` at the repository root: its file name and runs.
fn records() -> Vec<(String, Vec<Value>)> {
    let root = env!("CARGO_MANIFEST_DIR");
    let mut records = Vec::new();
    for entry in std::fs::read_dir(root).expect("repository root") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable record");
        let runs: Value = serde_json::from_str(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let Value::Seq(runs) = runs else {
            panic!("{name}: not an array of runs");
        };
        assert!(!runs.is_empty(), "{name}: no run");
        records.push((name.to_string(), runs));
    }
    assert!(!records.is_empty(), "no BENCH_*.json record at {root}");
    records
}

#[test]
fn bench_records_name_a_host_and_say_correct() {
    for (name, runs) in records() {
        for (i, run) in runs.iter().enumerate() {
            let result = field(run, "result").unwrap_or(&Value::Null);
            let host = field(result, "host").and_then(Value::as_map);
            assert!(
                host.is_some_and(|h| !h.is_empty()),
                "{name}: run {i} names no host"
            );
            assert!(
                matches!(field(result, "correct"), Some(Value::Bool(_))),
                "{name}: run {i} does not say whether it was correct"
            );
        }
    }
}

#[test]
fn bench_records_name_a_commit_and_a_side() {
    for (name, runs) in records() {
        for (i, run) in runs.iter().enumerate() {
            let commit = field(run, "commit").and_then(Value::as_str);
            assert!(
                commit.is_some_and(|c| c.len() == 40 && c.bytes().all(|b| b.is_ascii_hexdigit())),
                "{name}: run {i} names no 40-hex-digit commit: {commit:?}"
            );
            let side = field(run, "side").and_then(Value::as_str);
            assert!(
                matches!(side, Some("parent" | "change")),
                "{name}: run {i} has side {side:?}, not parent or change"
            );
        }
    }
}
