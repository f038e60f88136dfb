//! Ledger persistence.
//!
//! The paper envisions "a long-lived, evolving learning network" (§II-B)
//! whose global model "over time adapts to shifts in the underlying data
//! distribution". Long-lived means restartable: this module serializes a
//! model-carrying tangle to compact bytes ([`to_bytes`]) and restores it
//! ([`from_bytes`], then [`crate::Simulation::resume`]), so a training
//! network can stop and resume without losing its ledger. Where the bytes
//! are kept is the caller's business.
//!
//! Format (little-endian):
//! ```text
//! magic  b"LTGL"   version u8 (1)   tx_count u32
//! per transaction:
//!   issuer u64   round u64   parent_count u16   parents (u32 local id) ×
//!   payload_len u32   payload bytes (tinynn::wire encoding, checksummed)
//! ```
//!
//! Parsing goes through [`tinynn::wire::Reader`]; running off the end of
//! the input in any field is `Malformed("truncated")`. This is the image
//! of a *ledger* (local ids, sorted parents). A gossip peer's checkpoint
//! (`LTCP`, `tangle_gossip::Peer::checkpoint_bytes`) does not contain one:
//! it stores the wire messages themselves.

use crate::node::ModelParams;
use std::sync::Arc;
use tangle_ledger::{Tangle, TxId};
use tinynn::wire::{self, Reader, Truncated};

const MAGIC: &[u8; 4] = b"LTGL";
const VERSION: u8 = 1;

/// Errors while loading a persisted ledger.
#[derive(Debug)]
pub enum PersistError {
    /// Structural problem in the file.
    Malformed(&'static str),
    /// A payload failed its checksum.
    Payload(wire::WireError),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Malformed(m) => write!(f, "malformed ledger file: {m}"),
            PersistError::Payload(e) => write!(f, "payload error: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

/// Running off the end of the bytes is one structural error, whichever
/// field it happened in.
impl From<Truncated> for PersistError {
    fn from(_: Truncated) -> Self {
        PersistError::Malformed("truncated")
    }
}

/// Serialize a tangle to bytes.
pub fn to_bytes(tangle: &Tangle<ModelParams>) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out.extend_from_slice(&(tangle.len() as u32).to_le_bytes());
    for tx in tangle.transactions() {
        out.extend_from_slice(&tx.issuer.to_le_bytes());
        out.extend_from_slice(&tx.round.to_le_bytes());
        out.extend_from_slice(&(tx.parents.len() as u16).to_le_bytes());
        for p in &tx.parents {
            out.extend_from_slice(&p.0.to_le_bytes());
        }
        let payload = wire::encode(&tx.payload);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
    }
    out
}

/// Reconstruct a tangle from bytes.
pub fn from_bytes(b: &[u8]) -> Result<Tangle<ModelParams>, PersistError> {
    let mut r = Reader::new(b);
    if r.take(4) != Ok(&MAGIC[..]) {
        return Err(PersistError::Malformed("bad magic"));
    }
    if r.u8()? != VERSION {
        return Err(PersistError::Malformed("unsupported version"));
    }
    // Every transaction occupies at least 22 bytes (issuer 8 + round 8 +
    // parent count 2 + payload length 4), so a count the remaining buffer
    // cannot possibly hold is a lie — reject it up front instead of
    // looping on it.
    let count = r
        .count(22)
        .map_err(|_| PersistError::Malformed("implausible transaction count"))?;
    let mut tangle: Option<Tangle<ModelParams>> = None;
    for _ in 0..count {
        let (issuer, round) = (r.u64()?, r.u64()?);
        let parents = (0..r.u16()?)
            .map(|_| r.u32().map(TxId))
            .collect::<Result<Vec<_>, _>>()?;
        let params = Arc::new(wire::decode(r.len_prefixed()?).map_err(PersistError::Payload)?);
        match &mut tangle {
            None if !parents.is_empty() => {
                return Err(PersistError::Malformed("genesis has parents"));
            }
            None => tangle = Some(Tangle::new(params)),
            Some(t) => {
                t.add_meta(params, parents, issuer, round)
                    .map_err(|_| PersistError::Malformed("invalid parent reference"))?;
            }
        }
    }
    if r.remaining() != 0 {
        return Err(PersistError::Malformed("trailing bytes"));
    }
    tangle.ok_or(PersistError::Malformed("empty ledger"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinynn::ParamVec;

    fn sample_tangle() -> Tangle<ModelParams> {
        let mut t = Tangle::new(Arc::new(ParamVec(vec![0.5, -0.5])));
        let a = t
            .add_meta(Arc::new(ParamVec(vec![1.0, 2.0])), vec![t.genesis()], 3, 1)
            .unwrap();
        t.add_meta(
            Arc::new(ParamVec(vec![3.0, 4.0])),
            vec![a, t.genesis()],
            4,
            2,
        )
        .unwrap();
        t
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = sample_tangle();
        let b = to_bytes(&t);
        let r = from_bytes(&b).unwrap();
        assert_eq!(r.len(), t.len());
        assert_eq!(r.tips(), t.tips());
        for (x, y) in t.transactions().iter().zip(r.transactions()) {
            assert_eq!(x.parents, y.parents);
            assert_eq!(x.issuer, y.issuer);
            assert_eq!(x.round, y.round);
            assert_eq!(x.payload.as_ref(), y.payload.as_ref());
        }
    }

    #[test]
    fn corruption_detected() {
        let t = sample_tangle();
        let mut b = to_bytes(&t);
        // flip a payload byte (inside the last payload's values)
        let n = b.len();
        b[n - 12] ^= 0x40;
        assert!(matches!(from_bytes(&b), Err(PersistError::Payload(_))));
    }

    #[test]
    fn truncation_detected() {
        let t = sample_tangle();
        let b = to_bytes(&t);
        assert!(from_bytes(&b[..b.len() - 3]).is_err());
        assert!(from_bytes(&b[..6]).is_err());
        assert!(from_bytes(b"XXXXX").is_err());
    }

    #[test]
    fn trailing_garbage_detected() {
        let t = sample_tangle();
        let mut b = to_bytes(&t);
        b.push(0);
        assert!(matches!(
            from_bytes(&b),
            Err(PersistError::Malformed("trailing bytes"))
        ));
    }
}
