//! Content-addressed wire transactions.

use std::sync::Arc;
use tangle_ledger::pow;
use tinynn::wire::{self, Reader, Truncated};
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
#[derive(Clone, Debug)]
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
}

impl TxMessage {
    /// Build a message from parameters, solving proof-of-work at
    /// `difficulty` leading zero bits (0 = disabled).
    pub fn create(
        params: &ParamVec,
        parents: Vec<ContentId>,
        issuer: u64,
        slot: u64,
        difficulty: u32,
    ) -> Self {
        let base = Self {
            parents,
            issuer,
            slot,
            payload: wire::encode(params).into(),
            nonce: 0,
        };
        let nonce = pow::solve(base.pow_digest(), difficulty);
        Self { nonce, ..base }
    }

    /// The digest the proof-of-work covers: everything except the nonce.
    fn pow_digest(&self) -> u64 {
        let mut buf = Vec::with_capacity(8 * (self.parents.len() + 2) + self.payload.len());
        for p in &self.parents {
            buf.extend_from_slice(&p.0.to_le_bytes());
        }
        buf.extend_from_slice(&self.issuer.to_le_bytes());
        buf.extend_from_slice(&self.slot.to_le_bytes());
        buf.extend_from_slice(&self.payload);
        pow::digest(&buf)
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
    pub fn decode_params(&self) -> Result<ParamVec, wire::WireError> {
        wire::decode(&self.payload)
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
        Ok(Self {
            parents,
            issuer: r.u64()?,
            slot: r.u64()?,
            nonce: r.u64()?,
            payload: r.len_prefixed()?.into(),
        })
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
        let forged = TxMessage {
            nonce: m.nonce + 1,
            ..m.clone()
        };
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
    fn corrupted_payload_fails_checksum() {
        let m = TxMessage::create(&params(), vec![], 1, 0, 0);
        let mut enc = m.encode().to_vec();
        let n = enc.len();
        enc[n - 10] ^= 0x20; // inside the wire payload values
        let d = TxMessage::decode(&enc).expect("framing still valid");
        assert!(d.decode_params().is_err(), "checksum must catch corruption");
    }
}
