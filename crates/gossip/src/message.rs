//! Content-addressed wire transactions.
//!
//! A [`TxMessage`] carries a private memo of what its content determines:
//! the nonce-independent proof-of-work digest behind
//! [`TxMessage::content_id`] and [`TxMessage::verify_pow`], and the decoded
//! payload `TxMessage::shared_params`. The memo is built on first use
//! (a message decoded from bytes allocates nothing until it is hashed),
//! [`TxMessage::create`] seeds it with the digest its proof-of-work was
//! solved over, and every clone made after it is built shares it, so the
//! replicas of one process hash and decode each transaction once and hold
//! one payload between them.
//!
//! The memo never serves a stale value. It holds a clone of the payload
//! `Arc`, which keeps those bytes alive and unchanged, and checks it with
//! `Arc::ptr_eq`; `parents`, `issuer` and `slot` it compares by value. A
//! write to a `pub` field (a corrupted payload swapped in, a forged nonce)
//! therefore only makes the next call recompute, and the nonce is outside
//! the memo altogether.

use learning_tangle::node::ModelParams;
use std::sync::{Arc, OnceLock};
use tangle_ledger::pow;
use tinynn::wire::{self, Reader, Truncated, WireError};
use tinynn::ParamVec;

/// Globally unique, content-derived transaction identifier. Unlike the
/// per-replica [`tangle_ledger::TxId`] (an insertion index), a `ContentId`
/// is identical on every peer, so peers can reference parents before
/// inserting them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentId(pub u64);

impl std::fmt::Display for ContentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cid:{:016x}", self.0)
    }
}

/// A transaction as it travels the network.
#[derive(Clone)]
pub struct TxMessage {
    /// Parents referenced by content id (empty only for the genesis).
    pub parents: Vec<ContentId>,
    /// Issuing node.
    pub issuer: u64,
    /// Issuer-local logical time (diagnostic only).
    pub slot: u64,
    /// `tinynn::wire`-encoded model parameters, shared so that the
    /// per-neighbour clone on every gossip hop copies no body.
    pub payload: Arc<[u8]>,
    /// Hashcash nonce over the message digest.
    pub nonce: u64,
    /// What the fields above (bar the nonce) determine, once built.
    memo: OnceLock<Arc<Memo>>,
}

/// The memo of one message's content: the fields it was built from, and
/// what they determine.
struct Memo {
    /// A clone of the payload `Arc` it was built from, compared by pointer.
    payload: Arc<[u8]>,
    parents: Box<[ContentId]>,
    issuer: u64,
    slot: u64,
    /// The digest the proof-of-work covers.
    pow_digest: u64,
    /// The payload decoded and checksummed, on first demand.
    params: OnceLock<Result<ModelParams, WireError>>,
}

impl Memo {
    fn new(m: &TxMessage, pow_digest: u64) -> Self {
        Self {
            payload: m.payload.clone(),
            parents: m.parents.as_slice().into(),
            issuer: m.issuer,
            slot: m.slot,
            pow_digest,
            params: OnceLock::new(),
        }
    }

    /// Was this memo built from `m`'s current content?
    fn describes(&self, m: &TxMessage) -> bool {
        Arc::ptr_eq(&self.payload, &m.payload)
            && *self.parents == *m.parents
            && self.issuer == m.issuer
            && self.slot == m.slot
    }
}

impl std::fmt::Debug for TxMessage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxMessage")
            .field("parents", &self.parents)
            .field("issuer", &self.issuer)
            .field("slot", &self.slot)
            .field("payload", &self.payload)
            .field("nonce", &self.nonce)
            .finish()
    }
}

impl TxMessage {
    /// A message from its fields, as they would be read off the wire.
    pub fn new(
        parents: Vec<ContentId>,
        issuer: u64,
        slot: u64,
        payload: Arc<[u8]>,
        nonce: u64,
    ) -> Self {
        Self {
            parents,
            issuer,
            slot,
            payload,
            nonce,
            memo: OnceLock::new(),
        }
    }

    /// Build a message from parameters, solving proof-of-work at
    /// `difficulty` leading zero bits (0 = disabled). The memo starts with
    /// the digest the work was solved over.
    pub fn create(
        params: &ParamVec,
        parents: Vec<ContentId>,
        issuer: u64,
        slot: u64,
        difficulty: u32,
    ) -> Self {
        let mut m = Self::new(parents, issuer, slot, wire::encode(params).into(), 0);
        let pow_digest = m.hash_pow_digest();
        m.nonce = pow::solve(pow_digest, difficulty);
        m.memo = Arc::new(Memo::new(&m, pow_digest)).into();
        m
    }

    /// The memo of this message's current content, built on first use;
    /// `None` if a field it covers was written since it was built.
    fn memo(&self) -> Option<&Memo> {
        let memo = self
            .memo
            .get_or_init(|| Arc::new(Memo::new(self, self.hash_pow_digest())));
        memo.describes(self).then_some(&**memo)
    }

    /// Hash the digest the proof-of-work covers: everything except the
    /// nonce.
    fn hash_pow_digest(&self) -> u64 {
        let mut buf = Vec::with_capacity(8 * (self.parents.len() + 2) + self.payload.len());
        for p in &self.parents {
            buf.extend_from_slice(&p.0.to_le_bytes());
        }
        buf.extend_from_slice(&self.issuer.to_le_bytes());
        buf.extend_from_slice(&self.slot.to_le_bytes());
        buf.extend_from_slice(&self.payload);
        pow::digest(&buf)
    }

    /// The digest the proof-of-work covers, from the memo when it is current.
    fn pow_digest(&self) -> u64 {
        self.memo()
            .map_or_else(|| self.hash_pow_digest(), |memo| memo.pow_digest)
    }

    /// Content id: digest over the full message including the nonce, so
    /// identical content hashes identically on every peer.
    pub fn content_id(&self) -> ContentId {
        let mut buf = [0u8; 16];
        buf[..8].copy_from_slice(&self.pow_digest().to_le_bytes());
        buf[8..].copy_from_slice(&self.nonce.to_le_bytes());
        ContentId(pow::digest(&buf))
    }

    /// Check the proof-of-work at the given difficulty.
    pub fn verify_pow(&self, difficulty: u32) -> bool {
        pow::verify(self.pow_digest(), self.nonce, difficulty)
    }

    /// Decode the carried parameters, validating the payload checksum.
    pub fn decode_params(&self) -> Result<ParamVec, WireError> {
        wire::decode(&self.payload)
    }

    /// The carried parameters, decoded and checksummed once per memo:
    /// every clone that shares the memo gets the same allocation.
    pub(crate) fn shared_params(&self) -> Result<ModelParams, WireError> {
        match self.memo() {
            Some(memo) => memo
                .params
                .get_or_init(|| self.decode_params().map(Arc::new))
                .clone(),
            None => self.decode_params().map(Arc::new),
        }
    }

    /// Exact byte length of the encoded message.
    pub fn encoded_len(&self) -> usize {
        4 + 8 * self.parents.len() + 8 + 8 + 8 + 4 + self.payload.len()
    }

    /// Append the encoded message (length-prefixed fields) to `out`: the
    /// one writer behind [`TxMessage::encode`], every transaction-carrying
    /// `LTNT` frame and the `LTCP` checkpoint.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        out.reserve(self.encoded_len());
        out.extend_from_slice(&(self.parents.len() as u32).to_le_bytes());
        for p in &self.parents {
            out.extend_from_slice(&p.0.to_le_bytes());
        }
        out.extend_from_slice(&self.issuer.to_le_bytes());
        out.extend_from_slice(&self.slot.to_le_bytes());
        out.extend_from_slice(&self.nonce.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.payload);
    }

    /// Append `len u32` + the encoded message: one entry of a message
    /// list (the `Archive` frame, the `LTCP` checkpoint). Read it back
    /// with `TxMessage::decode(reader.len_prefixed()?)`.
    pub fn write_prefixed(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.encoded_len() as u32).to_le_bytes());
        self.write_to(out);
    }

    /// Serialize the whole message to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_to(&mut out);
        out
    }

    /// Deserialize a message; `None` on malformed framing (a field cut
    /// short, or bytes left over after the payload).
    pub fn decode(b: &[u8]) -> Option<Self> {
        let mut r = Reader::new(b);
        let msg = Self::read_from(&mut r).ok()?;
        (r.remaining() == 0).then_some(msg)
    }

    fn read_from(r: &mut Reader<'_>) -> Result<Self, Truncated> {
        let np = r.count(8)?;
        let parents = (0..np)
            .map(|_| r.u64().map(ContentId))
            .collect::<Result<_, _>>()?;
        // fields are read in the order written here, which is wire order
        let (issuer, slot, nonce) = (r.u64()?, r.u64()?, r.u64()?);
        Ok(Self::new(
            parents,
            issuer,
            slot,
            r.len_prefixed()?.into(),
            nonce,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ParamVec {
        ParamVec(vec![1.0, -2.0, 3.5])
    }

    #[test]
    fn content_id_is_deterministic_and_content_sensitive() {
        let a = TxMessage::create(&params(), vec![ContentId(1)], 7, 0, 0);
        let b = TxMessage::create(&params(), vec![ContentId(1)], 7, 0, 0);
        assert_eq!(a.content_id(), b.content_id());
        let c = TxMessage::create(&params(), vec![ContentId(2)], 7, 0, 0);
        assert_ne!(a.content_id(), c.content_id());
        let d = TxMessage::create(&ParamVec(vec![9.0]), vec![ContentId(1)], 7, 0, 0);
        assert_ne!(a.content_id(), d.content_id());
    }

    #[test]
    fn pow_gating() {
        let m = TxMessage::create(&params(), vec![], 1, 0, 10);
        assert!(m.verify_pow(10));
        assert!(m.verify_pow(0));
        let mut forged = m.clone();
        forged.nonce += 1;
        // overwhelmingly likely to fail at difficulty 10
        assert!(!forged.verify_pow(10) || forged.nonce == m.nonce);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let m = TxMessage::create(&params(), vec![ContentId(5), ContentId(9)], 3, 11, 4);
        let enc = m.encode();
        let d = TxMessage::decode(&enc).expect("valid frame");
        assert_eq!(d.parents, m.parents);
        assert_eq!(d.issuer, 3);
        assert_eq!(d.slot, 11);
        assert_eq!(d.nonce, m.nonce);
        assert_eq!(d.content_id(), m.content_id());
        assert_eq!(d.decode_params().unwrap(), params());
    }

    #[test]
    fn malformed_frames_rejected() {
        let m = TxMessage::create(&params(), vec![ContentId(5)], 3, 0, 0);
        let enc = m.encode();
        assert!(TxMessage::decode(&enc[..3]).is_none());
        assert!(TxMessage::decode(&enc[..enc.len() - 1]).is_none());
        assert!(TxMessage::decode(&[]).is_none());
    }

    #[test]
    fn tx_message_memo_never_serves_a_stale_value() {
        use crate::peer::{Peer, ReceiveOutcome};
        let g = TxMessage::create(&ParamVec(vec![0.0]), vec![], u64::MAX, 0, 0);
        let made = TxMessage::create(&params(), vec![g.content_id()], 3, 11, 8);
        // what a message fresh off the wire computes for `m`'s fields
        let agrees = |m: &TxMessage| {
            let fresh = TxMessage::decode(&m.encode()).expect("valid frame");
            assert_eq!(m.content_id(), fresh.content_id());
            assert_eq!(m.verify_pow(8), fresh.verify_pow(8));
            assert_eq!(m.shared_params(), fresh.shared_params());
        };

        let m = TxMessage::decode(&made.encode()).unwrap();
        let before = m.clone();
        assert_eq!(m.content_id(), made.content_id());
        assert!(m.verify_pow(8));
        let shared = m.shared_params().unwrap();
        let after = m.clone();
        assert!(Arc::ptr_eq(&after.shared_params().unwrap(), &shared));
        let own = before.shared_params().unwrap();
        assert!(!Arc::ptr_eq(&own, &shared), "a clone taken before the fill");
        assert_eq!((own, before.content_id()), (shared, m.content_id()));
        agrees(&after);

        // a one-bit flip swapped in, as `FaultPlan::perturb_hop` does
        let mut corrupt = after.clone();
        let mut bytes = corrupt.payload.to_vec();
        let n = bytes.len();
        bytes[n - 10] ^= 0x20;
        corrupt.payload = bytes.into();
        agrees(&corrupt);
        assert!(corrupt.shared_params().is_err());
        let mut peer = Peer::new(0, &g, 0);
        assert_eq!(peer.receive(&corrupt), ReceiveOutcome::Corrupt);
        assert_eq!(peer.receive(&after), ReceiveOutcome::Accepted);

        let mut parent = after.clone();
        parent.parents[0] = ContentId(10);
        let mut issuer = after.clone();
        issuer.issuer += 1;
        let mut slot = after.clone();
        slot.slot += 1;
        let mut nonce = after.clone();
        nonce.nonce += 1;
        for changed in [&parent, &issuer, &slot, &nonce] {
            agrees(changed);
            assert_ne!(changed.content_id(), m.content_id());
        }
        // the clones that share the memo still read the original
        assert_eq!(m.content_id(), made.content_id());
        agrees(&m);
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let m = TxMessage::create(&params(), vec![], 1, 0, 0);
        let mut enc = m.encode().to_vec();
        let n = enc.len();
        enc[n - 10] ^= 0x20; // inside the wire payload values
        let d = TxMessage::decode(&enc).expect("framing still valid");
        assert!(d.decode_params().is_err(), "checksum must catch corruption");
    }
}
