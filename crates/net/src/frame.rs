//! Length-framed, versioned, checksummed wire format for `lt-node`.
//!
//! Every frame on a socket is:
//!
//! ```text
//! magic    b"LTNT"   (4 bytes)
//! version  u8        (currently 1)
//! kind     u8        (message discriminant)
//! len      u32 LE    (payload byte count, ≤ MAX_PAYLOAD)
//! payload  len bytes (kind-specific, see below)
//! checksum u64 LE    (FNV-1a over the kind byte then the payload)
//! ```
//!
//! Kinds 0–18 are as first released; kind 19 ([`WireMsg::Announce`]) was
//! added after them, so every older frame keeps its bytes.
//!
//! Transaction-carrying frames ([`WireMsg::Publish`], [`WireMsg::Delta`],
//! [`WireMsg::Archive`]) embed [`TxMessage::encode`] bytes verbatim
//! (written in place by [`TxMessage::write_to`]), whose
//! parameter payload is itself the checksummed `tinynn::wire` LTPV
//! encoding — so parameter corruption is caught twice (frame checksum at
//! the transport, payload checksum at the replica).
//!
//! Decoding is total: malformed input of any kind returns a
//! [`FrameError`], never panics, and an oversized length prefix is
//! rejected *before* any allocation happens. Every payload is parsed with
//! the workspace's one bounds-checked reader, [`tinynn::wire::Reader`]
//! (its `Truncated` maps to [`FrameError::Truncated`]), and checksummed
//! with the one [`tinynn::wire::fnv1a`].

use tangle_gossip::{ContentId, ProtocolMsg, TxMessage};
use tinynn::wire::{fnv1a, fnv1a_update, Reader, Truncated};

/// Frame magic bytes.
pub(crate) const MAGIC: &[u8; 4] = b"LTNT";
/// Current protocol version.
pub(crate) const VERSION: u8 = 1;
/// Header length: magic + version + kind + payload length.
pub(crate) const HEADER_LEN: usize = 4 + 1 + 1 + 4;
/// Checksum trailer length.
pub(crate) const TRAILER_LEN: usize = 8;
/// Hard bound on a frame payload — anything larger is rejected before
/// allocation (a hostile peer cannot make us reserve gigabytes).
pub const MAX_PAYLOAD: usize = 64 << 20;

/// Peer id that marks a control connection in [`WireMsg::Hello`].
pub(crate) const CONTROL_PEER: u64 = u64::MAX;

/// Errors produced while decoding a frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Not enough bytes for the declared structure.
    Truncated,
    /// Magic bytes did not match.
    BadMagic,
    /// Unknown protocol version.
    BadVersion(u8),
    /// Unknown message kind.
    BadKind(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    TooLarge(u64),
    /// Frame checksum mismatch.
    BadChecksum,
    /// Payload structure invalid for the declared kind.
    Malformed(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::BadMagic => write!(f, "bad frame magic"),
            FrameError::BadVersion(v) => write!(f, "unsupported frame version {v}"),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::TooLarge(n) => write!(f, "payload of {n} bytes exceeds the frame bound"),
            FrameError::BadChecksum => write!(f, "frame checksum mismatch"),
            FrameError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<Truncated> for FrameError {
    fn from(_: Truncated) -> Self {
        FrameError::Truncated
    }
}

/// One peer's snapshot of its own state, served to `StatusReq`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatusReport {
    /// Replica length (including the genesis).
    pub len: u32,
    /// Buffered orphans.
    pub orphans: u32,
    /// Content ids the peer is still waiting for
    /// ([`NodeProtocol::waiting_for`](tangle_gossip::NodeProtocol::waiting_for)):
    /// its orphans' unseen parents and the announced ids it is pulling,
    /// each counted once.
    pub missing: u32,
    /// Established data-plane connections.
    pub connected: u32,
    /// Highest activation slot processed so far.
    pub last_slot: u64,
}

/// Every message that can travel over an `lt-node` socket: the five
/// gossip protocol messages (mapped 1:1 onto
/// [`ProtocolMsg`]), liveness probes, and the
/// control plane the scale harness drives daemons with.
#[derive(Clone, Debug)]
pub enum WireMsg {
    /// Connection preamble: protocol version check plus the sender's
    /// peer id (`CONTROL_PEER` for a control connection) and genesis
    /// content id (refuse to gossip across different ledgers).
    Hello {
        /// Sender peer id.
        peer: u64,
        /// Content id of the sender's genesis.
        genesis: u64,
    },
    /// A freshly published transaction, pushed by its issuer.
    Publish(TxMessage),
    /// Repair protocol: "these are my current heads".
    Advertise {
        /// Content ids of the sender's tips.
        heads: Vec<ContentId>,
    },
    /// Repair protocol: "send me these transactions".
    Request {
        /// Content ids the sender is missing.
        wants: Vec<ContentId>,
    },
    /// A transaction re-sent in response to an advertise or request.
    Delta(TxMessage),
    /// Liveness probe; `sent_us` is the sender's monotonic clock.
    Ping {
        /// Correlates the pong.
        nonce: u64,
        /// Sender send time (echoed back for RTT measurement).
        sent_us: u64,
    },
    /// Probe reply, echoing the ping verbatim.
    Pong {
        /// Echoed nonce.
        nonce: u64,
        /// Echoed send time.
        sent_us: u64,
    },
    /// Control: run one training activation at global slot `slot`.
    Activate {
        /// Global activation slot (= round in lockstep schedules).
        slot: u64,
    },
    /// Control reply: the activation ran.
    Activated {
        /// Echoed slot.
        slot: u64,
        /// Whether the publish gate passed.
        published: bool,
        /// Replica length after the activation.
        len: u32,
    },
    /// Control: report current peer state.
    StatusReq,
    /// Control reply to [`WireMsg::StatusReq`].
    Status(StatusReport),
    /// Control: send the full replica archive (excluding the genesis).
    ArchiveReq,
    /// Control reply: verbatim archived transactions in insertion order.
    Archive(Vec<TxMessage>),
    /// Control: evaluate the consensus model of the daemon's replica.
    EvalReq {
        /// Total rounds driven so far. The daemon does not read it: the
        /// consensus is a function of the replica alone.
        slot: u64,
        /// Picks the shared evaluation pool.
        eval_seed: u64,
    },
    /// Control reply: consensus `(loss, accuracy)` as exact f32 bits.
    Eval {
        /// `loss.to_bits()`.
        loss_bits: u32,
        /// `accuracy.to_bits()`.
        acc_bits: u32,
    },
    /// Control: report telemetry counters and histogram totals.
    MetricsReq,
    /// Control reply: counter values and histogram `(count, sum)`s.
    Metrics {
        /// Counter name → value.
        counters: Vec<(String, u64)>,
        /// Histogram name → (count, sum).
        histograms: Vec<(String, u64, u64)>,
    },
    /// Control: the full peer address book; the daemon dials every peer
    /// with a higher id than its own (one socket per unordered pair).
    Connect {
        /// `(peer id, host:port)` for every daemon in the cluster.
        peers: Vec<(u64, String)>,
    },
    /// Control: exit cleanly.
    Shutdown,
    /// Gossip: "I hold these transactions" — ids only; a receiver that
    /// lacks one pulls it with [`WireMsg::Request`].
    Announce {
        /// Issuer of the announced transactions.
        issuer: u64,
        /// Content ids the sender holds.
        ids: Vec<ContentId>,
    },
}

const K_HELLO: u8 = 0;
const K_PUBLISH: u8 = 1;
const K_ADVERTISE: u8 = 2;
const K_REQUEST: u8 = 3;
const K_DELTA: u8 = 4;
const K_PING: u8 = 5;
const K_PONG: u8 = 6;
const K_ACTIVATE: u8 = 7;
const K_ACTIVATED: u8 = 8;
const K_STATUS_REQ: u8 = 9;
const K_STATUS: u8 = 10;
const K_ARCHIVE_REQ: u8 = 11;
const K_ARCHIVE: u8 = 12;
const K_EVAL_REQ: u8 = 13;
const K_EVAL: u8 = 14;
const K_METRICS_REQ: u8 = 15;
const K_METRICS: u8 = 16;
const K_CONNECT: u8 = 17;
const K_SHUTDOWN: u8 = 18;
const K_ANNOUNCE: u8 = 19;

/// Frame checksum: FNV-1a chained over the kind byte then the payload,
/// so a bit flip that turns one message kind into another with the same
/// payload layout (e.g. `Advertise` → `Request`) still fails the check.
fn frame_check(kind: u8, payload: &[u8]) -> u64 {
    fnv1a_update(fnv1a(&[kind]), payload)
}

fn string(r: &mut Reader<'_>) -> Result<String, FrameError> {
    let n = r.u16()? as usize;
    String::from_utf8(r.take(n)?.to_vec()).map_err(|_| FrameError::Malformed("non-utf8 string"))
}

fn tx(b: &[u8]) -> Result<TxMessage, FrameError> {
    TxMessage::decode(b).ok_or(FrameError::Malformed("transaction framing"))
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_cids(out: &mut Vec<u8>, cids: &[ContentId]) {
    out.extend_from_slice(&(cids.len() as u32).to_le_bytes());
    for c in cids {
        out.extend_from_slice(&c.0.to_le_bytes());
    }
}

fn cids(c: &mut Reader<'_>) -> Result<Vec<ContentId>, FrameError> {
    let n = c.count(8)?;
    (0..n).map(|_| Ok(ContentId(c.u64()?))).collect()
}

impl WireMsg {
    fn kind(&self) -> u8 {
        match self {
            WireMsg::Hello { .. } => K_HELLO,
            WireMsg::Publish(_) => K_PUBLISH,
            WireMsg::Advertise { .. } => K_ADVERTISE,
            WireMsg::Request { .. } => K_REQUEST,
            WireMsg::Delta(_) => K_DELTA,
            WireMsg::Ping { .. } => K_PING,
            WireMsg::Pong { .. } => K_PONG,
            WireMsg::Activate { .. } => K_ACTIVATE,
            WireMsg::Activated { .. } => K_ACTIVATED,
            WireMsg::StatusReq => K_STATUS_REQ,
            WireMsg::Status(_) => K_STATUS,
            WireMsg::ArchiveReq => K_ARCHIVE_REQ,
            WireMsg::Archive(_) => K_ARCHIVE,
            WireMsg::EvalReq { .. } => K_EVAL_REQ,
            WireMsg::Eval { .. } => K_EVAL,
            WireMsg::MetricsReq => K_METRICS_REQ,
            WireMsg::Metrics { .. } => K_METRICS,
            WireMsg::Connect { .. } => K_CONNECT,
            WireMsg::Shutdown => K_SHUTDOWN,
            WireMsg::Announce { .. } => K_ANNOUNCE,
        }
    }

    /// Append this message's kind-specific payload to `out`.
    fn write_payload(&self, out: &mut Vec<u8>) {
        match self {
            WireMsg::Hello { peer, genesis } => {
                out.extend_from_slice(&peer.to_le_bytes());
                out.extend_from_slice(&genesis.to_le_bytes());
            }
            WireMsg::Publish(m) | WireMsg::Delta(m) => m.write_to(out),
            WireMsg::Advertise { heads } => put_cids(out, heads),
            WireMsg::Request { wants } => put_cids(out, wants),
            WireMsg::Announce { issuer, ids } => {
                out.extend_from_slice(&issuer.to_le_bytes());
                put_cids(out, ids);
            }
            WireMsg::Ping { nonce, sent_us } | WireMsg::Pong { nonce, sent_us } => {
                out.extend_from_slice(&nonce.to_le_bytes());
                out.extend_from_slice(&sent_us.to_le_bytes());
            }
            WireMsg::Activate { slot } => out.extend_from_slice(&slot.to_le_bytes()),
            WireMsg::Activated {
                slot,
                published,
                len,
            } => {
                out.extend_from_slice(&slot.to_le_bytes());
                out.push(*published as u8);
                out.extend_from_slice(&len.to_le_bytes());
            }
            WireMsg::StatusReq | WireMsg::ArchiveReq | WireMsg::MetricsReq | WireMsg::Shutdown => {}
            WireMsg::Status(s) => {
                out.extend_from_slice(&s.len.to_le_bytes());
                out.extend_from_slice(&s.orphans.to_le_bytes());
                out.extend_from_slice(&s.missing.to_le_bytes());
                out.extend_from_slice(&s.connected.to_le_bytes());
                out.extend_from_slice(&s.last_slot.to_le_bytes());
            }
            WireMsg::Archive(msgs) => {
                out.extend_from_slice(&(msgs.len() as u32).to_le_bytes());
                for m in msgs {
                    m.write_prefixed(out);
                }
            }
            WireMsg::EvalReq { slot, eval_seed } => {
                out.extend_from_slice(&slot.to_le_bytes());
                out.extend_from_slice(&eval_seed.to_le_bytes());
            }
            WireMsg::Eval {
                loss_bits,
                acc_bits,
            } => {
                out.extend_from_slice(&loss_bits.to_le_bytes());
                out.extend_from_slice(&acc_bits.to_le_bytes());
            }
            WireMsg::Metrics {
                counters,
                histograms,
            } => {
                out.extend_from_slice(&(counters.len() as u32).to_le_bytes());
                for (name, v) in counters {
                    put_string(out, name);
                    out.extend_from_slice(&v.to_le_bytes());
                }
                out.extend_from_slice(&(histograms.len() as u32).to_le_bytes());
                for (name, count, sum) in histograms {
                    put_string(out, name);
                    out.extend_from_slice(&count.to_le_bytes());
                    out.extend_from_slice(&sum.to_le_bytes());
                }
            }
            WireMsg::Connect { peers } => {
                out.extend_from_slice(&(peers.len() as u32).to_le_bytes());
                for (id, addr) in peers {
                    out.extend_from_slice(&id.to_le_bytes());
                    put_string(out, addr);
                }
            }
        }
    }

    fn decode_payload(kind: u8, b: &[u8]) -> Result<Self, FrameError> {
        let mut c = Reader::new(b);
        let msg = match kind {
            K_HELLO => WireMsg::Hello {
                peer: c.u64()?,
                genesis: c.u64()?,
            },
            K_PUBLISH => return tx(b).map(WireMsg::Publish),
            K_DELTA => return tx(b).map(WireMsg::Delta),
            K_ADVERTISE => WireMsg::Advertise {
                heads: cids(&mut c)?,
            },
            K_REQUEST => WireMsg::Request {
                wants: cids(&mut c)?,
            },
            K_PING => WireMsg::Ping {
                nonce: c.u64()?,
                sent_us: c.u64()?,
            },
            K_PONG => WireMsg::Pong {
                nonce: c.u64()?,
                sent_us: c.u64()?,
            },
            K_ACTIVATE => WireMsg::Activate { slot: c.u64()? },
            K_ACTIVATED => WireMsg::Activated {
                slot: c.u64()?,
                published: match c.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(FrameError::Malformed("boolean out of range")),
                },
                len: c.u32()?,
            },
            K_STATUS_REQ => WireMsg::StatusReq,
            K_STATUS => WireMsg::Status(StatusReport {
                len: c.u32()?,
                orphans: c.u32()?,
                missing: c.u32()?,
                connected: c.u32()?,
                last_slot: c.u64()?,
            }),
            K_ARCHIVE_REQ => WireMsg::ArchiveReq,
            K_ARCHIVE => {
                let n = c.count(4)?;
                let msgs = (0..n)
                    .map(|_| tx(c.len_prefixed()?))
                    .collect::<Result<_, _>>()?;
                WireMsg::Archive(msgs)
            }
            K_EVAL_REQ => WireMsg::EvalReq {
                slot: c.u64()?,
                eval_seed: c.u64()?,
            },
            K_EVAL => WireMsg::Eval {
                loss_bits: c.u32()?,
                acc_bits: c.u32()?,
            },
            K_METRICS_REQ => WireMsg::MetricsReq,
            K_METRICS => {
                let nc = c.count(3)?;
                let counters = (0..nc)
                    .map(|_| Ok((string(&mut c)?, c.u64()?)))
                    .collect::<Result<_, FrameError>>()?;
                let nh = c.count(3)?;
                let histograms = (0..nh)
                    .map(|_| Ok((string(&mut c)?, c.u64()?, c.u64()?)))
                    .collect::<Result<_, FrameError>>()?;
                WireMsg::Metrics {
                    counters,
                    histograms,
                }
            }
            K_CONNECT => {
                let n = c.count(10)?;
                let peers = (0..n)
                    .map(|_| Ok((c.u64()?, string(&mut c)?)))
                    .collect::<Result<_, FrameError>>()?;
                WireMsg::Connect { peers }
            }
            K_SHUTDOWN => WireMsg::Shutdown,
            K_ANNOUNCE => WireMsg::Announce {
                issuer: c.u64()?,
                ids: cids(&mut c)?,
            },
            other => return Err(FrameError::BadKind(other)),
        };
        if c.remaining() != 0 {
            return Err(FrameError::Malformed("trailing payload bytes"));
        }
        Ok(msg)
    }

    /// Map a gossip [`ProtocolMsg`] onto its wire frame.
    pub fn from_protocol(msg: ProtocolMsg) -> Self {
        match msg {
            ProtocolMsg::Publish(m) => WireMsg::Publish(m),
            ProtocolMsg::Announce { issuer, ids } => WireMsg::Announce { issuer, ids },
            ProtocolMsg::Advertise { heads } => WireMsg::Advertise { heads },
            ProtocolMsg::Request { wants } => WireMsg::Request { wants },
            ProtocolMsg::Delta(m) => WireMsg::Delta(m),
        }
    }

    /// The gossip [`ProtocolMsg`] this frame carries, if it is one of
    /// the five data-plane messages.
    pub(crate) fn into_protocol(self) -> Option<ProtocolMsg> {
        match self {
            WireMsg::Publish(m) => Some(ProtocolMsg::Publish(m)),
            WireMsg::Announce { issuer, ids } => Some(ProtocolMsg::Announce { issuer, ids }),
            WireMsg::Advertise { heads } => Some(ProtocolMsg::Advertise { heads }),
            WireMsg::Request { wants } => Some(ProtocolMsg::Request { wants }),
            WireMsg::Delta(m) => Some(ProtocolMsg::Delta(m)),
            _ => None,
        }
    }
}

/// Encode one frame (header + payload + checksum trailer). The payload
/// is written straight into the frame buffer and its length patched in.
pub fn encode_frame(msg: &WireMsg) -> Vec<u8> {
    // exact for the frames that carry a model; the small ones just grow
    let payload_hint = match msg {
        WireMsg::Publish(m) | WireMsg::Delta(m) => m.encoded_len(),
        _ => 0,
    };
    let mut out = Vec::with_capacity(HEADER_LEN + payload_hint + TRAILER_LEN);
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out.push(msg.kind());
    out.extend_from_slice(&[0; 4]);
    msg.write_payload(&mut out);
    let len = out.len() - HEADER_LEN;
    debug_assert!(len <= MAX_PAYLOAD, "oversized frame payload");
    out[6..HEADER_LEN].copy_from_slice(&(len as u32).to_le_bytes());
    let check = frame_check(msg.kind(), &out[HEADER_LEN..]);
    out.extend_from_slice(&check.to_le_bytes());
    out
}

/// Validate a frame header. Returns `(kind, payload_len)`, rejecting an
/// oversized length prefix before the caller allocates anything.
pub(crate) fn decode_header(h: &[u8; HEADER_LEN]) -> Result<(u8, usize), FrameError> {
    let mut r = Reader::new(h);
    if r.take(4)? != MAGIC {
        return Err(FrameError::BadMagic);
    }
    let (version, kind, len) = (r.u8()?, r.u8()?, r.u32()? as usize);
    if version != VERSION {
        return Err(FrameError::BadVersion(version));
    }
    if len > MAX_PAYLOAD {
        return Err(FrameError::TooLarge(len as u64));
    }
    Ok((kind, len))
}

/// Decode the payload + trailer that followed a validated header.
pub(crate) fn decode_body(kind: u8, body: &[u8]) -> Result<WireMsg, FrameError> {
    let mut r = Reader::new(body);
    let payload = r.take(body.len().saturating_sub(TRAILER_LEN))?;
    let check = r.u64()?;
    if frame_check(kind, payload) != check {
        return Err(FrameError::BadChecksum);
    }
    WireMsg::decode_payload(kind, payload)
}

/// Decode one whole frame from the front of `buf`. Returns the message
/// and the total bytes consumed. `Err(Truncated)` means "feed me more
/// bytes" when the prefix so far is valid.
pub fn decode_frame(buf: &[u8]) -> Result<(WireMsg, usize), FrameError> {
    if buf.len() < HEADER_LEN {
        return Err(FrameError::Truncated);
    }
    let header: &[u8; HEADER_LEN] = buf[..HEADER_LEN].try_into().expect("checked");
    let (kind, len) = decode_header(header)?;
    let total = HEADER_LEN + len + TRAILER_LEN;
    if buf.len() < total {
        return Err(FrameError::Truncated);
    }
    let msg = decode_body(kind, &buf[HEADER_LEN..total])?;
    Ok((msg, total))
}

/// Read one frame from a blocking stream. Returns the message and its
/// total on-wire byte count.
///
/// `Ok(None)` means the stream closed cleanly *between* frames; an EOF
/// mid-frame is an error. Frame-level decode failures are surfaced as
/// `io::ErrorKind::InvalidData` carrying the `FrameError`.
pub fn read_frame(r: &mut impl std::io::Read) -> std::io::Result<Option<(WireMsg, usize)>> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0;
    while filled < HEADER_LEN {
        let n = r.read(&mut header[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "eof inside frame header",
            ));
        }
        filled += n;
    }
    let (kind, len) = decode_header(&header)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    let mut body = vec![0u8; len + TRAILER_LEN];
    r.read_exact(&mut body)?;
    let msg = decode_body(kind, &body)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    Ok(Some((msg, HEADER_LEN + body.len())))
}

/// Write one frame to a blocking stream.
pub fn write_frame(w: &mut impl std::io::Write, msg: &WireMsg) -> std::io::Result<()> {
    w.write_all(&encode_frame(msg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinynn::ParamVec;

    fn tx() -> TxMessage {
        TxMessage::create(&ParamVec(vec![1.0, -2.0]), vec![ContentId(7)], 3, 4, 0)
    }

    #[test]
    fn all_kinds_roundtrip() {
        let msgs = vec![
            WireMsg::Hello {
                peer: 2,
                genesis: 99,
            },
            WireMsg::Publish(tx()),
            WireMsg::Advertise {
                heads: vec![ContentId(1), ContentId(2)],
            },
            WireMsg::Request {
                wants: vec![ContentId(3)],
            },
            WireMsg::Delta(tx()),
            WireMsg::Ping {
                nonce: 5,
                sent_us: 6,
            },
            WireMsg::Pong {
                nonce: 5,
                sent_us: 6,
            },
            WireMsg::Activate { slot: 9 },
            WireMsg::Activated {
                slot: 9,
                published: true,
                len: 4,
            },
            WireMsg::StatusReq,
            WireMsg::Status(StatusReport {
                len: 4,
                orphans: 1,
                missing: 2,
                connected: 3,
                last_slot: 9,
            }),
            WireMsg::ArchiveReq,
            WireMsg::Archive(vec![tx(), tx()]),
            WireMsg::EvalReq {
                slot: 4,
                eval_seed: 7,
            },
            WireMsg::Eval {
                loss_bits: 1,
                acc_bits: 2,
            },
            WireMsg::MetricsReq,
            WireMsg::Metrics {
                counters: vec![("net.frames_sent".into(), 10)],
                histograms: vec![("net.rtt_us".into(), 2, 300)],
            },
            WireMsg::Connect {
                peers: vec![(0, "127.0.0.1:1234".into()), (1, "127.0.0.1:9".into())],
            },
            WireMsg::Shutdown,
            WireMsg::Announce {
                issuer: 3,
                ids: vec![ContentId(4), ContentId(5)],
            },
        ];
        for m in msgs {
            let enc = encode_frame(&m);
            let (dec, used) = decode_frame(&enc).expect("roundtrip");
            assert_eq!(used, enc.len());
            // structural equality via re-encoding (TxMessage lacks Eq)
            assert_eq!(encode_frame(&dec), enc);
        }
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut h = Vec::new();
        h.extend_from_slice(MAGIC);
        h.push(VERSION);
        h.push(0);
        h.extend_from_slice(&u32::MAX.to_le_bytes());
        let header: [u8; HEADER_LEN] = h.try_into().expect("header");
        assert!(matches!(
            decode_header(&header),
            Err(FrameError::TooLarge(_))
        ));
    }

    #[test]
    fn corrupt_frame_fails_checksum() {
        let mut enc = encode_frame(&WireMsg::Activate { slot: 3 });
        let at = HEADER_LEN; // first payload byte
        enc[at] ^= 0x01;
        assert!(matches!(decode_frame(&enc), Err(FrameError::BadChecksum)));
    }

    #[test]
    fn stream_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &WireMsg::Activate { slot: 3 }).expect("write");
        write_frame(&mut buf, &WireMsg::StatusReq).expect("write");
        let mut r = &buf[..];
        let (first, n1) = read_frame(&mut r).expect("io").expect("frame");
        assert!(matches!(first, WireMsg::Activate { slot: 3 }));
        let (second, n2) = read_frame(&mut r).expect("io").expect("frame");
        assert!(matches!(second, WireMsg::StatusReq));
        assert_eq!(n1 + n2, buf.len(), "byte accounting must cover the stream");
        assert!(read_frame(&mut r).expect("eof").is_none());
    }
}
