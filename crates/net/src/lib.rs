//! # lt-net — the learning tangle over real sockets
//!
//! [`tangle_gossip`] holds the protocol engine
//! ([`NodeProtocol`]) and one [`Transport`](tangle_gossip::Transport)
//! under it: the link layer of the discrete-event
//! [`Network`](tangle_gossip::Network), all peers in one process. This
//! crate is the other implementation of that boundary — a length-framed
//! TCP wire protocol and the `lt-node` daemon, one engine per process:
//!
//! * `frame` — the versioned `LTNT` frame format: header, payload,
//!   FNV-1a trailer; total decoding (malformed input is an error, never a
//!   panic; oversized length prefixes are rejected before allocation).
//!   [`WireMsg`] maps 1:1 onto the five
//!   [`ProtocolMsg`](tangle_gossip::ProtocolMsg) variants plus liveness
//!   probes and the control plane the scale harness drives daemons with.
//! * [`NodeProtocol`] — re-exported from [`tangle_gossip::protocol`]:
//!   the same state machine runs over TCP here
//!   and over the simulator's in-memory link layer, which socket-free
//!   protocol tests drive stand-alone as [`MockTransport`] (an alias of
//!   [`tangle_gossip::Links`], not a second transport).
//! * `preset` — the shared conformance experiment (dataset, model,
//!   config, genesis) every executor of a cross-process differential run
//!   reconstructs independently.
//! * [`daemon`] — the `lt-node` daemon: listener, per-connection
//!   read/write loops, reconnect with decorrelated-jitter backoff,
//!   telemetry counters, and periodic `LTND` crash-recovery checkpoints
//!   with a `--restore` startup path.
//! * [`driver`] — spawns N local daemons and drives them: a lockstep
//!   schedule for byte-agreement with the in-process executors, a
//!   sustained-publish throughput/latency benchmark, and a
//!   supervisor that SIGKILLs and respawns daemons on a
//!   chaos schedule.
//! * `chaos` — socket-level fault injection: a seeded, serializable
//!   [`ChaosPlan`] of link partitions, latency/jitter, throttling, byte
//!   corruption, and resets, armed via per-pair TCP proxies.
//! * `soak` — long-haul runs under rolling chaos, asserting
//!   reconvergence, bounded repair, and cross-daemon archive agreement.

mod chaos;
pub mod daemon;
pub mod driver;
mod frame;
mod preset;
mod soak;

pub use chaos::{ChaosPlan, KillEvent, LinkChaos, LinkFault};
pub use driver::{default_node_bin, Cluster};
pub use frame::{
    decode_frame, encode_frame, read_frame, write_frame, StatusReport, WireMsg, MAX_PAYLOAD,
};
pub use preset::{Preset, ORPHAN_CAP};
pub use soak::{run_soak, SoakConfig};
pub use tangle_gossip::protocol::NodeProtocol;

/// The simulator's link layer, stand-alone: socket-free protocol tests
/// feed [`NodeProtocol`]s from its queue by hand.
pub type MockTransport = tangle_gossip::Links;
