//! Binary wire format for parameter vectors, and the two primitives every
//! binary format in the workspace is built from: [`fnv1a`] and the
//! bounds-checked little-endian [`Reader`] (`LTPV` here, the `TxMessage`
//! body and `LTCP` in `tangle-gossip`, `LTGL` in `learning-tangle`, `LTNT`
//! and `LTND` in `lt-net` all parse through it and checksum with it).
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

const MAGIC: &[u8; 4] = b"LTPV";
const VERSION: u8 = 1;

/// Errors produced while decoding a parameter payload.
#[derive(Clone, Debug, PartialEq, Eq)]
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

impl From<Truncated> for WireError {
    fn from(_: Truncated) -> Self {
        WireError::Truncated
    }
}

/// FNV-1a (64-bit) over a byte slice: the one checksum of every format.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_update(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continue an FNV-1a digest `h` over more bytes, so a checksum can
/// chain over parts that are not contiguous in memory.
pub fn fnv1a_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The input ended before the field being read. Each format maps this
/// one [`Reader`] error into its own error type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Truncated;

/// Bounds-checked little-endian reader over a byte slice. Reading never
/// panics and never allocates; a length or count taken from the input is
/// checked against the bytes that are really there before anything is
/// sized from it.
pub struct Reader<'a> {
    b: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Start reading at the front of `b`.
    pub fn new(b: &'a [u8]) -> Self {
        Self { b }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.b.len()
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        if self.b.len() < n {
            return Err(Truncated);
        }
        let (head, rest) = self.b.split_at(n);
        self.b = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], Truncated> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, Truncated> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, Truncated> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, Truncated> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, Truncated> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A `u32` element count, rejected unless the bytes remaining could
    /// hold that many elements of at least `min_elem_bytes` each — a
    /// hostile count cannot drive a huge reservation or a long loop.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, Truncated> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.b.len() {
            return Err(Truncated);
        }
        Ok(n)
    }

    /// A `u32` byte length followed by that many bytes.
    pub fn len_prefixed(&mut self) -> Result<&'a [u8], Truncated> {
        let n = self.u32()? as usize;
        self.take(n)
    }
}

/// Encode a parameter vector into its wire representation.
pub fn encode(params: &ParamVec) -> Vec<u8> {
    let n = params.len();
    let mut buf = Vec::with_capacity(4 + 1 + 4 + n * 4 + 8);
    buf.extend_from_slice(MAGIC);
    buf.push(VERSION);
    buf.extend_from_slice(&(n as u32).to_le_bytes());
    let start = buf.len();
    for &v in params.as_slice() {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    let checksum = fnv1a(&buf[start..]);
    buf.extend_from_slice(&checksum.to_le_bytes());
    buf
}

/// Decode a wire payload back into a parameter vector.
pub fn decode(payload: &[u8]) -> Result<ParamVec, WireError> {
    if payload.len() < 4 + 1 + 4 + 8 {
        return Err(WireError::Truncated);
    }
    let mut r = Reader::new(payload);
    if r.take(4)? != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = r.u8()?;
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let count = r.u32()? as usize;
    if r.remaining() != count * 4 + 8 {
        return Err(WireError::Truncated);
    }
    let value_bytes = r.take(count * 4)?;
    if r.u64()? != fnv1a(value_bytes) {
        return Err(WireError::BadChecksum);
    }
    let values = value_bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("chunks of 4")))
        .collect();
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
    fn reader_is_bounds_checked_and_keeps_its_place_on_error() {
        let mut r = Reader::new(&[1, 2, 0, 3, 0, 0, 0]);
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.u16(), Ok(2));
        assert_eq!(r.u64(), Err(Truncated));
        assert_eq!(r.u32(), Ok(3));
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.u8(), Err(Truncated));
        assert_eq!(r.take(0), Ok(&[][..]));
    }

    #[test]
    fn reader_counts_and_lengths_are_bounded_by_the_bytes_present() {
        let mut b = 2u32.to_le_bytes().to_vec();
        b.extend_from_slice(&[9; 8]);
        assert_eq!(Reader::new(&b).count(4), Ok(2));
        assert_eq!(Reader::new(&b).count(5), Err(Truncated));
        assert_eq!(Reader::new(&b).len_prefixed(), Ok(&[9, 9][..]));
        b[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Reader::new(&b).count(0), Err(Truncated));
        assert_eq!(Reader::new(&b).len_prefixed(), Err(Truncated));
    }

    #[test]
    fn fnv1a_update_chains_over_split_input() {
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_update(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }

    #[test]
    fn overhead_is_constant_17_bytes() {
        let p = ParamVec(vec![0.0; 100]);
        assert_eq!(encode(&p).len(), 100 * 4 + 17);
    }
}
