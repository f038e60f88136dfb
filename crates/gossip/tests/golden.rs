//! Golden bytes of the formats `tangle-gossip` owns. The `TxMessage`
//! vector was recorded at commit `7db9e55`, before the codec moved onto
//! the shared `Reader` / `write_to`; the `LTCP` version-2 vector was
//! recorded when that format was introduced.

use tangle_gossip::{ContentId, Peer, ReceiveOutcome, TxMessage};
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

fn message(parents: Vec<ContentId>, issuer: u64, slot: u64, v: f32, nonce: u64) -> TxMessage {
    let payload = wire::encode(&ParamVec(vec![v, -v])).into();
    TxMessage::new(parents, issuer, slot, payload, nonce)
}

const TX_MESSAGE: &str = concat!(
    "020000008877665544332211050000000000000003000000000000000b000000",
    "000000000807060504030201190000004c54505601020000000000c03f0000c0",
    "bff58e5cb3324c6ee6",
);

#[test]
fn golden_tx_message_two_parents() {
    let m = message(
        vec![ContentId(0x1122_3344_5566_7788), ContentId(5)],
        3,
        11,
        1.5,
        0x0102_0304_0506_0708,
    );
    let enc = m.encode();
    assert_eq!(hex(&enc), TX_MESSAGE);
    assert_eq!(reference_fnv(&enc), 0x80c0_ef42_127e_b6ca);
    assert_eq!(m.content_id(), ContentId(0x7c64_4d92_6436_863c));
    let back = TxMessage::decode(&enc).expect("golden message parses");
    assert_eq!(back.encode(), enc);
    assert_eq!(back.content_id(), m.content_id());
}

const LTCP_V2: &str = concat!(
    "4c54435002030000003900000000000000ffffffffffffffff00000000000000",
    "000000000000000000190000004c545056010200000000000000000000804560",
    "19283278c7a841000000010000000fb0867b6868547401000000000000000100",
    "0000000000000700000000000000190000004c54505601020000000000803f00",
    "0080bff552152feed82d0b49000000020000007087efa216efd3de0fb0867b68",
    "685474020000000000000002000000000000000900000000000000190000004c",
    "545056010200000000000040000000c0458cf37bd10280d4",
);

#[test]
fn golden_ltcp_v2_checkpoint() {
    let g = message(vec![], u64::MAX, 0, 0.0, 0);
    let a = message(vec![g.content_id()], 1, 1, 1.0, 7);
    // wire parent order (child of `a` first) is not the sorted local order
    let b = message(vec![a.content_id(), g.content_id()], 2, 2, 2.0, 9);
    let mut peer = Peer::new(0, &g, 0);
    assert_eq!(peer.receive(&a), ReceiveOutcome::Accepted);
    assert_eq!(peer.receive(&b), ReceiveOutcome::Accepted);
    let image = peer.checkpoint_bytes();
    assert_eq!(hex(&image), LTCP_V2);
    assert_eq!(reference_fnv(&image), 0xa963_a2ef_c7c0_ec7f);
    let back = Peer::from_checkpoint(0, &image, 0, 16).expect("golden image restores");
    assert_eq!(back.checkpoint_bytes(), image);
    assert_eq!(back.heads(), vec![b.content_id()]);
}
