//! # tangle-gossip — the learning tangle over a simulated P2P network
//!
//! The paper's prototype keeps one global tangle and round-based
//! visibility; its outlook (§VI) asks for the concept to be "translated
//! into a distributed implementation which can be benchmarked in a
//! simulation environment, thereby considering faults introduced by
//! real-world network conditions". This crate is that simulation:
//!
//! * [`message`] — content-addressed wire transactions: the payload is the
//!   checksummed `tinynn::wire` encoding of the parameters, the id is a
//!   digest over payload + parents + issuer + nonce, and publication can be
//!   gated by hashcash proof-of-work (the Sybil defense of §IV).
//! * [`peer`] — each peer maintains its own [`tangle_ledger::Tangle`]
//!   replica, translating content ids to local ids, buffering *orphans*
//!   (transactions whose parents haven't arrived yet) and rejecting
//!   duplicates, malformed payloads, and invalid proofs-of-work.
//! * [`transport`] — the protocol vocabulary ([`ProtocolMsg`]:
//!   publish / announce / advertise / request / delta) and the
//!   [`Transport`] abstraction over how those messages move between peers.
//! * [`protocol`] — [`NodeProtocol`], the one protocol engine: the issuer
//!   pushes a transaction, every other peer announces its content id and
//!   pulls the body on a miss, plus the repair protocol (head
//!   advertisement + bounded re-requests from the announcers in
//!   rotation), written against [`Transport`]. The simulator below and
//!   the `lt-net` daemon both run it.
//! * [`network`] — a discrete-event message simulator: one engine per
//!   peer over an in-memory link layer with configurable topology (full
//!   mesh / ring / random regular), per-link latency, message loss, and
//!   partitions, plus peer crash/restart; the omniscient anti-entropy
//!   oracle survives only as a test ground truth. The link layer,
//!   [`Links`], is public: the one in-memory [`Transport`], which
//!   protocol tests also drive stand-alone.
//! * [`fault`] — deterministic fault injection: a seeded [`FaultPlan`]
//!   schedules peer crash/restart cycles (recovering empty or from an
//!   `LTCP` checkpoint, [`Peer::checkpoint_bytes`]) and perturbs hops
//!   (drop/duplicate/corrupt/reorder) in the in-memory link layer.
//! * [`learn`] — decentralized training over the gossip network: peers run
//!   the paper's Algorithm 2 against their *own replica* and publish the
//!   result as a gossip broadcast; replicas converge to a common consensus
//!   model despite latency, loss, partitions, and churn.

pub mod fault;
pub mod learn;
pub mod message;
pub mod network;
pub mod peer;
pub mod protocol;
pub mod transport;

pub use fault::{CrashEvent, FaultPlan, Recovery, RepairConfig};
pub use message::{ContentId, TxMessage};
pub use network::{Delivery, Latency, Links, NetStats, Network, NetworkConfig, Topology};
pub use peer::{Peer, ReceiveOutcome};
pub use protocol::NodeProtocol;
pub use transport::{LinkState, ProtocolMsg, Transport};
