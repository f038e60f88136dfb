//! `conformance` — model-based conformance harness over the two
//! in-process protocol executors (round sim, gossip network).
//!
//! Explore mode (default): generate `--schedules=N` seeded schedules,
//! check differential agreement + standalone invariants on each, shrink
//! any failure to a near-minimal repro and save it as a JSON artifact
//! under `--out`. Exit code 1 if a genuine violation was found.
//!
//! Replay mode (`--replay=PATH`): re-run a saved artifact's schedule and
//! report whether its recorded violation still reproduces. With
//! `--mutate=stale-cache` the documented stale-cache bug is injected
//! first; a checked-in regression artifact is then *expected* to
//! reproduce, and the exit code is 1 when it does not.

use crate::common::Opts;
use lt_conformance::{check_schedule, explore, shrink, Artifact, Mutation};

/// Candidate re-executions granted to the shrinker per failure.
const SHRINK_BUDGET: usize = 200;

fn parse_mutation(opts: &Opts) -> Mutation {
    match opts.mutate.as_deref() {
        None | Some("none") => Mutation::None,
        Some("stale-cache") => Mutation::StaleCache,
        Some(other) => {
            eprintln!("unknown --mutate value: {other} (expected stale-cache)");
            std::process::exit(2);
        }
    }
}

pub fn run(opts: &Opts) {
    let mutation = parse_mutation(opts);
    match &opts.replay {
        Some(path) => replay(path, mutation),
        None => explore_mode(opts, mutation),
    }
}

fn replay(path: &std::path::Path, mutation: Mutation) {
    let artifact = Artifact::load(path)
        .unwrap_or_else(|e| panic!("cannot load artifact {}: {e}", path.display()));
    println!(
        "replaying {} ({} ops, recorded invariant `{}`{})",
        path.display(),
        artifact.schedule.ops.len(),
        artifact.invariant,
        match mutation {
            Mutation::None => String::new(),
            Mutation::StaleCache => ", mutation stale-cache injected".to_string(),
        }
    );
    match artifact.replay(mutation) {
        Err(v) if v.invariant == artifact.invariant => {
            println!("  reproduced: [{}] {}", v.invariant, v.detail);
            if mutation == Mutation::None {
                // A clean build violating a recorded invariant is a live bug.
                std::process::exit(1);
            }
        }
        Err(v) => {
            println!(
                "  DIVERGED: expected `{}`, got [{}] {}",
                artifact.invariant, v.invariant, v.detail
            );
            std::process::exit(1);
        }
        Ok(()) => {
            println!("  clean: the recorded violation does not reproduce");
            if mutation != Mutation::None {
                // The injected bug was supposed to fire on this schedule.
                std::process::exit(1);
            }
        }
    }
}

fn explore_mode(opts: &Opts, mutation: Mutation) {
    println!(
        "exploring {} schedules (seed {}{})",
        opts.schedules,
        opts.seed,
        match mutation {
            Mutation::None => String::new(),
            Mutation::StaleCache => ", mutation stale-cache injected".to_string(),
        }
    );
    let failures = explore(opts.schedules, opts.seed, mutation);
    if failures.is_empty() {
        println!("  {} schedules checked, zero violations", opts.schedules);
        if mutation != Mutation::None {
            eprintln!("  ERROR: the injected bug was not caught");
            std::process::exit(1);
        }
        return;
    }
    std::fs::create_dir_all(&opts.out).expect("create output dir");
    for (i, (schedule, violation)) in failures.iter().enumerate() {
        println!(
            "  violation [{}] on schedule seed {}: {}",
            violation.invariant, schedule.seed, violation.detail
        );
        let (minimal, spent) = shrink(schedule, violation, mutation, SHRINK_BUDGET);
        // Record the shrunk schedule's own evidence, which is what a
        // replay of the artifact prints.
        let shrunk = check_schedule(&minimal, mutation).expect_err("a shrunk schedule still fails");
        let path = opts
            .out
            .join(format!("conformance-{}-{i}.json", violation.invariant));
        Artifact::new(minimal.clone(), &shrunk)
            .save(&path)
            .expect("write artifact");
        println!(
            "    shrunk {} -> {} ops in {spent} executions, saved {}",
            schedule.ops.len(),
            minimal.ops.len(),
            path.display()
        );
    }
    println!(
        "  {} violations across {} schedules",
        failures.len(),
        opts.schedules
    );
    // Finding violations is the *expected* outcome under an injected
    // mutation; without one it means a real conformance bug.
    if mutation == Mutation::None {
        std::process::exit(1);
    }
}
