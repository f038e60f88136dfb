//! Replayable repro artifacts: a failing (usually shrunk) schedule plus
//! the violation it triggered, as JSON.
//!
//! Artifacts serve two roles: a failing exploration writes one so the bug
//! can be replayed (`lt-experiments conformance --replay <file>`), and
//! once fixed the artifact is checked into `tests/artifacts/` as a
//! regression test — replaying it against the healthy protocol must find
//! no violation.

use crate::explore::{check_schedule, Mutation, Violation};
use crate::schedule::Schedule;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Artifact format version (bump on schema changes).
pub(crate) const ARTIFACT_VERSION: u32 = 1;

/// A serialized conformance failure.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Artifact {
    /// Schema version.
    pub version: u32,
    /// The invariant that failed when the artifact was produced.
    pub invariant: String,
    /// Evidence captured at failure time.
    pub detail: String,
    /// The (shrunk) schedule to replay.
    pub schedule: Schedule,
}

impl Artifact {
    /// Bundle a failing schedule and its violation.
    pub fn new(schedule: Schedule, violation: &Violation) -> Self {
        Self {
            version: ARTIFACT_VERSION,
            invariant: violation.invariant.clone(),
            detail: violation.detail.clone(),
            schedule,
        }
    }

    /// Write as pretty-printed JSON.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        std::fs::write(path, json + "\n")
    }

    /// Load from JSON, rejecting unknown schema versions.
    pub fn load(path: &Path) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        let artifact: Self = serde_json::from_str(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        if artifact.version != ARTIFACT_VERSION {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unsupported artifact version {}", artifact.version),
            ));
        }
        Ok(artifact)
    }

    /// Re-run the schedule. `Ok(())` means the protocol is healthy (the
    /// recorded bug no longer reproduces); `Err` returns the violation.
    pub fn replay(&self, mutation: Mutation) -> Result<(), Violation> {
        check_schedule(&self.schedule, mutation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Op;

    #[test]
    fn artifact_roundtrips_through_json() {
        let artifact = Artifact {
            version: ARTIFACT_VERSION,
            invariant: "stale-shadow-cache".into(),
            detail: "example".into(),
            schedule: Schedule {
                seed: 11,
                nodes: 4,
                ops: vec![
                    Op::Activate { node: 1 },
                    Op::Crash { peer: 2 },
                    Op::Deliver { ticks: 3 },
                    Op::Restart {
                        peer: 2,
                        from_checkpoint: true,
                    },
                ],
            },
        };
        let dir = std::env::temp_dir().join("lt_conformance_artifact_test.json");
        artifact.save(&dir).unwrap();
        let loaded = Artifact::load(&dir).unwrap();
        let _ = std::fs::remove_file(&dir);
        assert_eq!(loaded, artifact);
    }
}
