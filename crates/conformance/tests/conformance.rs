//! End-to-end conformance harness tests: the healthy protocol explores
//! clean, a deliberately injected stale-cache bug is caught and shrinks
//! to a small replayable artifact, and every checked-in artifact still
//! reproduces its recorded violation.

use lt_conformance::{check_schedule, explore, shrink, Artifact, Mutation, Schedule};
use std::path::Path;

/// Every regression artifact in `tests/artifacts/`, with the mutation it
/// was recorded under. A new artifact needs a row here.
const ARTIFACTS: &[(&str, Mutation)] = &[
    ("stale-cache-a.json", Mutation::StaleCache),
    ("stale-cache-b.json", Mutation::StaleCache),
];

#[test]
fn healthy_protocol_explores_clean() {
    let failures = explore(6, 7, Mutation::None);
    assert!(
        failures.is_empty(),
        "healthy protocol must have zero violations, got: {:?}",
        failures
            .iter()
            .map(|(_, v)| v.invariant.as_str())
            .collect::<Vec<_>>()
    );
}

#[test]
fn injected_stale_cache_bug_is_caught_shrunk_and_replayable() {
    // Explore until the mutated shadow cache serves stale weights. The
    // bug needs churn (crash + empty restart + regrowth), so scan a few
    // seeds' worth of schedules.
    let failures = explore(24, 11, Mutation::StaleCache);
    let (schedule, violation) = failures
        .iter()
        .find(|(_, v)| v.invariant == "stale-shadow-cache")
        .expect("the length-only cache validation must be caught");

    let (small, _spent) = shrink(schedule, violation, Mutation::StaleCache, 150);
    assert!(
        small.ops.len() <= 10,
        "shrunk repro should be near-minimal, got {} ops: {:?}",
        small.ops.len(),
        small.ops
    );
    let replayed = check_schedule(&small, Mutation::StaleCache)
        .expect_err("the shrunk schedule must still reproduce the bug");
    assert_eq!(replayed.invariant, violation.invariant);

    // Artifact round-trip: the repro survives serialization, and the
    // same schedule is clean against the unmutated protocol (which is
    // exactly the regression-artifact contract in tests/artifacts/).
    let path = std::env::temp_dir().join("lt_conformance_stale_cache_repro.json");
    Artifact::new(small, &replayed).save(&path).unwrap();
    let loaded = Artifact::load(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        loaded.replay(Mutation::StaleCache).unwrap_err().invariant,
        "stale-shadow-cache"
    );
    loaded
        .replay(Mutation::None)
        .expect("the healthy protocol must replay the artifact clean");
}

#[test]
fn schedules_shrink_stably_across_reruns() {
    // Determinism of the whole loop: same seed, same failure, same
    // shrunk schedule.
    let run = || {
        let failures = explore(24, 11, Mutation::StaleCache);
        let (schedule, violation) = failures
            .iter()
            .find(|(_, v)| v.invariant == "stale-shadow-cache")
            .expect("mutation must be caught")
            .clone();
        shrink(&schedule, &violation, Mutation::StaleCache, 150).0
    };
    assert_eq!(run(), run());
}

#[test]
fn single_activation_schedule_matches_across_executors() {
    // The smallest interesting schedule: one activation per node, one
    // barrier. Differential agreement here is the base case everything
    // else builds on.
    let s = Schedule {
        seed: 5,
        nodes: 4,
        ops: (0..4)
            .map(|n| lt_conformance::Op::Activate { node: n })
            .collect(),
    };
    check_schedule(&s, Mutation::None).expect("base case must be clean");
}

#[test]
fn checked_in_artifacts_reproduce_under_their_mutation_and_replay_clean() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/artifacts");
    let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
        .expect("tests/artifacts exists")
        .map(|e| {
            e.expect("readable entry")
                .file_name()
                .into_string()
                .unwrap()
        })
        .filter(|name| name.ends_with(".json"))
        .collect();
    on_disk.sort();
    let mut rows: Vec<&str> = ARTIFACTS.iter().map(|&(file, _)| file).collect();
    rows.sort();
    assert_eq!(
        on_disk, rows,
        "every tests/artifacts/*.json needs exactly one row"
    );

    for &(file, mutation) in ARTIFACTS {
        let artifact =
            Artifact::load(&dir.join(file)).unwrap_or_else(|e| panic!("cannot load {file}: {e}"));
        // The invariant is the verdict; the detail is evidence that may
        // legitimately move with the protocol.
        match artifact.replay(mutation) {
            Err(v) => assert_eq!(
                v.invariant, artifact.invariant,
                "{file} under {mutation:?} fails another invariant: {}",
                v.detail
            ),
            Ok(()) => panic!(
                "{file}: the recorded `{}` no longer reproduces under {mutation:?}; \
                 re-find it with `lt-experiments conformance --schedules=64 --mutate=...`",
                artifact.invariant
            ),
        }
        if let Err(v) = artifact.replay(Mutation::None) {
            panic!(
                "{file}: the healthy protocol violates [{}] {}",
                v.invariant, v.detail
            );
        }
    }
}
