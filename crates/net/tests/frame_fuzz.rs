//! Adversarial wire-codec tests: `decode_frame` must reject truncated,
//! bit-flipped, wrong-magic, and garbage inputs with an `Err` — never a
//! panic, and never an allocation driven by an attacker-controlled
//! length prefix.

use lt_net::{decode_frame, encode_frame, FrameError, WireMsg, MAX_PAYLOAD};
use proptest::prelude::*;
use tangle_gossip::{ContentId, TxMessage};
use tinynn::ParamVec;

/// A small pool of structurally diverse messages; `pick` selects one.
fn sample_msg(pick: usize, k: u64) -> WireMsg {
    let tx = TxMessage::create(&ParamVec(vec![k as f32, -1.5, 0.25]), vec![], k, k + 1, 0);
    match pick % 9 {
        0 => WireMsg::Hello {
            peer: k,
            genesis: k.wrapping_mul(31),
        },
        1 => WireMsg::Publish(tx),
        2 => WireMsg::Advertise {
            heads: (0..(k % 5)).map(|i| ContentId(k ^ i)).collect(),
        },
        3 => WireMsg::Request {
            wants: (0..(k % 4)).map(|i| ContentId(k + i)).collect(),
        },
        4 => WireMsg::Delta(tx),
        5 => WireMsg::Activate { slot: k },
        6 => WireMsg::Status(lt_net::StatusReport {
            len: k as u32,
            orphans: 1,
            missing: 2,
            connected: 3,
            last_slot: k,
        }),
        7 => WireMsg::Metrics {
            counters: vec![("net.frames_sent".into(), k)],
            histograms: vec![("net.rtt_us".into(), k, k * 10)],
        },
        _ => WireMsg::Announce {
            issuer: k,
            ids: (0..(k % 6))
                .map(|i| ContentId(k.rotate_left(7) ^ i))
                .collect(),
        },
    }
}

/// Structural equality via re-encoding (TxMessage has no `Eq`).
fn same(a: &WireMsg, b: &WireMsg) -> bool {
    encode_frame(a) == encode_frame(b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every message round-trips byte-exactly through the codec.
    #[test]
    fn roundtrip_all_kinds(pick in 0usize..9, k in 0u64..1000) {
        let msg = sample_msg(pick, k);
        let enc = encode_frame(&msg);
        let (dec, used) = decode_frame(&enc).expect("valid frame decodes");
        prop_assert_eq!(used, enc.len());
        prop_assert!(same(&msg, &dec));
    }

    /// Any strict prefix fails with `Truncated` — never panics, never
    /// decodes.
    #[test]
    fn truncation_always_errs(pick in 0usize..9, k in 0u64..1000, cut in 0usize..10_000) {
        let enc = encode_frame(&sample_msg(pick, k));
        let cut = cut % enc.len();
        prop_assert!(matches!(decode_frame(&enc[..cut]), Err(FrameError::Truncated)));
    }

    /// Flipping any single bit of a valid frame is rejected (magic,
    /// version, kind, length, payload, or checksum — all covered).
    #[test]
    fn bit_flips_always_err(pick in 0usize..9, k in 0u64..1000, pos in 0usize..10_000, bit in 0u8..8) {
        let mut enc = encode_frame(&sample_msg(pick, k));
        let pos = pos % enc.len();
        enc[pos] ^= 1 << bit;
        // The checksum covers the kind byte and payload; magic, version,
        // and length flips are caught structurally. No flip survives.
        prop_assert!(decode_frame(&enc).is_err(), "corrupted frame decoded");
    }

    /// Random garbage never panics; it errs unless it happens to spell a
    /// full valid frame (vanishingly unlikely with a 64-bit checksum).
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(0u8..=255, 0..200)) {
        let _ = decode_frame(&bytes);
    }

    /// A hostile length prefix is rejected *before* any allocation: a
    /// 10-byte header claiming a huge payload errs with `TooLarge`
    /// rather than attempting to reserve it.
    #[test]
    fn oversized_length_rejected_before_allocation(extra in 1u64..u32::MAX as u64) {
        let claimed = MAX_PAYLOAD as u64 + extra;
        let mut buf = Vec::new();
        buf.extend_from_slice(b"LTNT");
        buf.push(1); // version
        buf.push(2); // kind: Advertise
        buf.extend_from_slice(&(claimed as u32).to_le_bytes());
        if claimed <= u32::MAX as u64 {
            prop_assert!(matches!(
                decode_frame(&buf),
                Err(FrameError::TooLarge(n)) if n == claimed
            ));
        }
    }

    /// The same for an `Announce`: an id count the 8 + 4 + 16 payload
    /// bytes cannot back fails in the count guard.
    #[test]
    fn hostile_announce_count_rejected(issuer in 0u64..u64::MAX, count in 3u32..u32::MAX) {
        let mut body = issuer.to_le_bytes().to_vec();
        body.extend_from_slice(&count.to_le_bytes());
        body.extend_from_slice(&[0u8; 16]);
        let mut buf = Vec::new();
        buf.extend_from_slice(b"LTNT");
        buf.push(1);
        buf.push(19); // Announce
        buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
        buf.extend_from_slice(&body);
        buf.extend_from_slice(&forge_check(19, &body).to_le_bytes());
        prop_assert!(matches!(decode_frame(&buf), Err(FrameError::Truncated)));
    }

    /// Hostile element counts inside a payload (e.g. an `Advertise`
    /// claiming 2^32-ish heads in a 20-byte body) are rejected by the
    /// count guard, not by attempting the allocation.
    #[test]
    fn hostile_element_count_rejected(count in 1_000_000u32..u32::MAX) {
        // body: u32 head-count with far too few bytes behind it
        let mut body = count.to_le_bytes().to_vec();
        body.extend_from_slice(&[0u8; 16]);
        let mut buf = Vec::new();
        buf.extend_from_slice(b"LTNT");
        buf.push(1);
        buf.push(2); // Advertise
        buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
        buf.extend_from_slice(&body);
        buf.extend_from_slice(&forge_check(2, &body).to_le_bytes());
        prop_assert!(decode_frame(&buf).is_err());
    }
}

/// The wire checksum (FNV-1a over kind then payload), reproduced here so
/// the hostile-count test can forge a frame whose *checksum* is valid but
/// whose body lies about its element count.
fn forge_check(kind: u8, payload: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in std::iter::once(kind).chain(payload.iter().copied()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}
