//! Binary wire format for parameter vectors.
//!
//! In a deployed tangle every transaction is broadcast between peers, so the
//! payload needs a compact, versioned encoding. The format is:
//!
//! ```text
//! magic  b"LTPV"      (4 bytes)
//! version u8          (currently 1)
//! count  u32 LE       (number of f32 values)
//! values f32 LE × count
//! checksum u64 LE     (FNV-1a over the value bytes)
//! ```

use crate::params::ParamVec;
use bytes::{Buf, BufMut, Bytes, BytesMut};

const MAGIC: &[u8; 4] = b"LTPV";
const VERSION: u8 = 1;

/// Errors produced while decoding a parameter payload.
#[derive(Debug, PartialEq, Eq)]
pub enum WireError {
    /// Payload too short for the declared structure.
    Truncated,
    /// Magic bytes did not match.
    BadMagic,
    /// Unknown format version.
    BadVersion(u8),
    /// Checksum mismatch (corrupt or tampered payload).
    BadChecksum,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::BadMagic => write!(f, "bad magic bytes"),
            WireError::BadVersion(v) => write!(f, "unsupported version {v}"),
            WireError::BadChecksum => write!(f, "checksum mismatch"),
        }
    }
}

impl std::error::Error for WireError {}

/// FNV-1a over a byte slice.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Encode a parameter vector into its wire representation.
pub fn encode(params: &ParamVec) -> Bytes {
    let n = params.len();
    let mut buf = BytesMut::with_capacity(4 + 1 + 4 + n * 4 + 8);
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u32_le(n as u32);
    let start = buf.len();
    for &v in params.as_slice() {
        buf.put_f32_le(v);
    }
    let checksum = fnv1a(&buf[start..]);
    buf.put_u64_le(checksum);
    buf.freeze()
}

/// Decode a wire payload back into a parameter vector.
pub fn decode(mut payload: &[u8]) -> Result<ParamVec, WireError> {
    if payload.len() < 4 + 1 + 4 + 8 {
        return Err(WireError::Truncated);
    }
    let mut magic = [0u8; 4];
    payload.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = payload.get_u8();
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let count = payload.get_u32_le() as usize;
    if payload.len() != count * 4 + 8 {
        return Err(WireError::Truncated);
    }
    let value_bytes = &payload[..count * 4];
    let expect = fnv1a(value_bytes);
    let mut values = Vec::with_capacity(count);
    for _ in 0..count {
        values.push(payload.get_f32_le());
    }
    let checksum = payload.get_u64_le();
    if checksum != expect {
        return Err(WireError::BadChecksum);
    }
    Ok(ParamVec(values))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let p = ParamVec(vec![1.0, -2.5, 3.25, f32::MIN_POSITIVE]);
        let enc = encode(&p);
        assert_eq!(decode(&enc).unwrap(), p);
    }

    #[test]
    fn empty_roundtrip() {
        let p = ParamVec(Vec::new());
        assert_eq!(decode(&encode(&p)).unwrap(), p);
    }

    #[test]
    fn truncated_rejected() {
        let p = ParamVec(vec![1.0; 8]);
        let enc = encode(&p);
        assert_eq!(decode(&enc[..enc.len() - 1]), Err(WireError::Truncated));
        assert_eq!(decode(&enc[..4]), Err(WireError::Truncated));
    }

    #[test]
    fn bad_magic_rejected() {
        let p = ParamVec(vec![1.0]);
        let mut enc = encode(&p).to_vec();
        enc[0] = b'X';
        assert_eq!(decode(&enc), Err(WireError::BadMagic));
    }

    #[test]
    fn bad_version_rejected() {
        let p = ParamVec(vec![1.0]);
        let mut enc = encode(&p).to_vec();
        enc[4] = 99;
        assert_eq!(decode(&enc), Err(WireError::BadVersion(99)));
    }

    #[test]
    fn corruption_detected() {
        let p = ParamVec(vec![1.0, 2.0, 3.0]);
        let mut enc = encode(&p).to_vec();
        enc[10] ^= 0x40; // flip a bit inside the value region
        assert_eq!(decode(&enc), Err(WireError::BadChecksum));
    }

    #[test]
    fn overhead_is_constant_17_bytes() {
        let p = ParamVec(vec![0.0; 100]);
        assert_eq!(encode(&p).len(), 100 * 4 + 17);
    }
}
