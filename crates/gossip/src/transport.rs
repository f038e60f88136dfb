//! The gossip wire-protocol vocabulary and the transport abstraction.
//!
//! The protocol speaks exactly five messages, captured here as
//! [`ProtocolMsg`]: a transaction body travels in `Publish` (pushed by its
//! issuer, eagerly) or `Delta` (sent on request, lazily); everything else
//! — `Announce`, `Advertise`, `Request` — names transactions by their
//! 8-byte content id. What a peer does with them is
//! [`NodeProtocol`](crate::protocol::NodeProtocol); how they move between
//! peers is a [`Transport`] concern: the link layer of the discrete-event
//! [`Network`](crate::network::Network) is one implementation (latency,
//! loss, partitions, fault injection on a simulated clock), public as
//! [`Links`](crate::network::Links) so protocol tests can drive it
//! stand-alone; `lt-net` provides the other, a real length-framed TCP
//! transport over the same vocabulary.

use crate::message::{ContentId, TxMessage};

/// One protocol message between two peers.
///
/// [`Publish`](ProtocolMsg::Publish) and [`Delta`](ProtocolMsg::Delta)
/// both carry a full transaction and are handled identically on
/// receipt; the distinction records *why* the transaction is on the
/// wire (the issuer's push vs the answer to a pull), which matters for
/// telemetry and wire-level accounting but never for replica state.
#[derive(Clone, Debug)]
pub enum ProtocolMsg {
    /// A transaction pushed by its publisher to each of its neighbours.
    Publish(TxMessage),
    /// "I hold these transactions" — sent by every peer that sees a
    /// transaction for the first time, to every neighbour but the one it
    /// came from. The receiver pulls what it has not seen with
    /// [`ProtocolMsg::Request`].
    Announce {
        /// Issuer of the announced transactions. A receiver that has the
        /// issuer for a neighbour waits for its push instead of pulling.
        issuer: u64,
        /// Content ids the announcer holds.
        ids: Vec<ContentId>,
    },
    /// "These are my current heads" — the receiver pushes back whatever
    /// provably lies outside their closure and pulls any head it has
    /// never seen.
    Advertise {
        /// Content ids of the advertiser's current tips.
        heads: Vec<ContentId>,
    },
    /// "Send me these transactions" — answered from archive or orphan
    /// buffer with [`ProtocolMsg::Delta`] replies.
    Request {
        /// Content ids the requester is missing.
        wants: Vec<ContentId>,
    },
    /// A transaction re-sent in response to an advertise or request.
    Delta(TxMessage),
}

/// What a transport knows about one link at send time (see
/// [`Transport::link_state`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkState {
    /// Nothing known against the link.
    Open,
    /// The far end is up but traffic on the link is being lost (a
    /// partition): a send is attempted and counted as dropped.
    Cut,
    /// The far end is down.
    Down,
}

/// How protocol messages travel between peers.
///
/// `from`/`to` are peer indices in a fixed population. A transport is
/// free to delay, reorder, or drop traffic — the protocol above it is
/// built to heal — but must report a drop it can already observe at
/// send time by returning `false` (and counting it, so accounting
/// tests can reconcile counters against ground truth).
pub trait Transport {
    /// Queue `msg` for delivery from `from` to `to`. Returns whether
    /// the transport accepted the message.
    fn send(&mut self, from: usize, to: usize, msg: ProtocolMsg) -> bool;

    /// What this transport knows about the `from → to` link. The engine
    /// pushes and announces to every neighbour regardless (the transport
    /// accounts for what it loses), advertises heads to every neighbour
    /// not `LinkState::Down`, and spends re-request retries only on
    /// `LinkState::Open` ones. A transport that cannot tell — a socket
    /// whose neighbour list already is "whoever is connected" — keeps the
    /// default.
    fn link_state(&self, _from: usize, _to: usize) -> LinkState {
        LinkState::Open
    }
}
