//! Ledger persistence.
//!
//! The paper envisions "a long-lived, evolving learning network" (§II-B)
//! whose global model "over time adapts to shifts in the underlying data
//! distribution". Long-lived means restartable: this module serializes a
//! model-carrying tangle to a compact binary file and restores it, so a
//! training network can stop and resume without losing its ledger.
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
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;
use tangle_ledger::{Tangle, TxId};
use tinynn::wire::{self, Reader, Truncated};

const MAGIC: &[u8; 4] = b"LTGL";
const VERSION: u8 = 1;

/// Errors while loading a persisted ledger.
#[derive(Debug)]
pub enum PersistError {
    /// I/O failure.
    Io(std::io::Error),
    /// Structural problem in the file.
    Malformed(&'static str),
    /// A payload failed its checksum.
    Payload(wire::WireError),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
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

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
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

/// Write a ledger to a file.
pub fn save(path: impl AsRef<Path>, tangle: &Tangle<ModelParams>) -> Result<(), PersistError> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(&to_bytes(tangle))?;
    Ok(())
}

/// Read a ledger from a file.
pub fn load(path: impl AsRef<Path>) -> Result<Tangle<ModelParams>, PersistError> {
    let mut buf = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut buf)?;
    from_bytes(&buf)
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
    fn file_roundtrip() {
        let t = sample_tangle();
        let path = std::env::temp_dir().join("lt_persist_test.tangle");
        save(&path, &t).unwrap();
        let r = load(&path).unwrap();
        assert_eq!(r.len(), 3);
        std::fs::remove_file(&path).ok();
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
