//! Golden bytes of the `LTPV` parameter payload, recorded at commit
//! `7db9e55` before `wire.rs` was moved onto the shared `Reader`. A
//! failure here means the on-wire bytes of every transaction changed.

use tinynn::{wire, ParamVec};

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

/// Independent FNV-1a, so the digest does not lean on the code under test.
fn reference_fnv(b: &[u8]) -> u64 {
    b.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &x| {
        (h ^ x as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[test]
fn golden_ltpv_payload() {
    let p = ParamVec(vec![1.0, -2.5, 3.25, f32::MIN_POSITIVE]);
    let enc = wire::encode(&p);
    assert_eq!(
        hex(&enc),
        "4c54505601040000000000803f000020c00000504000008000e83ae3eac5c99270"
    );
    assert_eq!(reference_fnv(&enc), 0xaac2_b662_f221_18c4);
    assert_eq!(wire::decode(&enc), Ok(p));
}

#[test]
fn golden_fnv1a_known_answers() {
    // Published FNV-1a 64 test vectors: the checksum every format shares.
    assert_eq!(reference_fnv(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(reference_fnv(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(reference_fnv(b"foobar"), 0x8594_4171_f739_67e8);
}
