//! Golden bytes of the formats `lt-net` owns — one `LTNT` frame of every
//! `WireMsg` kind and the `LTND` checkpoint envelope — recorded at commit
//! `7db9e55`, before `frame.rs` / `daemon.rs` moved onto the shared
//! `Reader`; kind 19 (`Announce`) was added after that and has a vector
//! of its own, assembled by hand. A failure here means two builds can no
//! longer talk to each other or read each other's files.

use lt_net::daemon::{daemon_checkpoint_bytes, decode_daemon_checkpoint};
use lt_net::{decode_frame, encode_frame, StatusReport, WireMsg, ORPHAN_CAP};
use tangle_gossip::{ContentId, Peer, ReceiveOutcome, TxMessage};
use tinynn::{wire, ParamVec};

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len() / 2)
        .map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).expect("hex digit"))
        .collect()
}

/// Independent FNV-1a, so the digest does not lean on the code under test.
fn reference_fnv(b: &[u8]) -> u64 {
    b.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &x| {
        (h ^ x as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn tx() -> TxMessage {
    let payload = wire::encode(&ParamVec(vec![1.0, -2.0])).into();
    TxMessage::new(
        vec![ContentId(7), ContentId(0x0a0b_0c0d)],
        3,
        4,
        payload,
        0x1234,
    )
}

/// One message of every kind, in kind-byte order, with its frame bytes.
fn every_kind() -> Vec<(WireMsg, &'static str)> {
    vec![
        (
            WireMsg::Hello {
                peer: 2,
                genesis: 99,
            },
            "4c544e5401001000000002000000000000006300000000000000dee4009d1445ee30",
        ),
        (
            WireMsg::Publish(tx()),
            concat!(
                "4c544e540101490000000200000007000000000000000d0c0b0a000000000300",
                "00000000000004000000000000003412000000000000190000004c5450560102",
                "0000000000803f000000c05828a22deee979097f6d23122d39c376"
            ),
        ),
        (
            WireMsg::Advertise {
                heads: vec![ContentId(1), ContentId(2)],
            },
            "4c544e54010214000000020000000100000000000000020000000000000074808062c0a910e3",
        ),
        (
            WireMsg::Request {
                wants: vec![ContentId(3)],
            },
            "4c544e5401030c000000010000000300000000000000409845e99ea0daa4",
        ),
        (
            WireMsg::Delta(tx()),
            concat!(
                "4c544e540104490000000200000007000000000000000d0c0b0a000000000300",
                "00000000000004000000000000003412000000000000190000004c5450560102",
                "0000000000803f000000c05828a22deee979094e4324e549d68c36"
            ),
        ),
        (
            WireMsg::Ping {
                nonce: 5,
                sent_us: 6,
            },
            "4c544e5401051000000005000000000000000600000000000000636c49fbfbd7c610",
        ),
        (
            WireMsg::Pong {
                nonce: 5,
                sent_us: 6,
            },
            "4c544e54010610000000050000000000000006000000000000003adfa71b5578505f",
        ),
        (
            WireMsg::Activate { slot: 9 },
            "4c544e540107080000000900000000000000afe228c972819642",
        ),
        (
            WireMsg::Activated {
                slot: 9,
                published: true,
                len: 4,
            },
            "4c544e5401080d00000009000000000000000104000000193fcbfab405dd15",
        ),
        (WireMsg::StatusReq, "4c544e54010900000000c4c301864cc463af"),
        (
            WireMsg::Status(StatusReport {
                len: 4,
                orphans: 1,
                missing: 2,
                connected: 3,
                last_slot: 9,
            }),
            concat!(
                "4c544e54010a1800000004000000010000000200000003000000090000000000",
                "00001058ff3e3f3697e1"
            ),
        ),
        (WireMsg::ArchiveReq, "4c544e54010b000000002ac701864cc663af"),
        (
            WireMsg::Archive(vec![tx(), tx()]),
            concat!(
                "4c544e54010c9e00000002000000490000000200000007000000000000000d0c",
                "0b0a000000000300000000000000040000000000000034120000000000001900",
                "00004c54505601020000000000803f000000c05828a22deee979094900000002",
                "00000007000000000000000d0c0b0a0000000003000000000000000400000000",
                "0000003412000000000000190000004c54505601020000000000803f000000c0",
                "5828a22deee97909fd32900725016cbd"
            ),
        ),
        (
            WireMsg::EvalReq {
                slot: 4,
                eval_seed: 7,
            },
            "4c544e54010d1000000004000000000000000700000000000000db51e55900a97d57",
        ),
        (
            WireMsg::Eval {
                loss_bits: 1,
                acc_bits: 2,
            },
            "4c544e54010e080000000100000002000000321dae4173137d7b",
        ),
        (WireMsg::MetricsReq, "4c544e54010f000000005ec001864cc263af"),
        (
            WireMsg::Metrics {
                counters: vec![("net.frames_sent".into(), 10)],
                histograms: vec![("net.rtt_us".into(), 2, 300)],
            },
            concat!(
                "4c544e5401103d000000010000000f006e65742e6672616d65735f73656e740a",
                "00000000000000010000000a006e65742e7274745f757302000000000000002c",
                "01000000000000df1211d23660f126"
            ),
        ),
        (
            WireMsg::Connect {
                peers: vec![(0, "127.0.0.1:1234".into()), (1, "127.0.0.1:9".into())],
            },
            concat!(
                "4c544e540111310000000200000000000000000000000e003132372e302e302e",
                "313a3132333401000000000000000b003132372e302e302e313a39e5909ea471",
                "e1cd7b"
            ),
        ),
        (WireMsg::Shutdown, "4c544e5401120000000075d601864ccf63af"),
    ]
}

#[test]
fn golden_ltnt_frame_of_every_kind() {
    let mut all = Vec::new();
    for (kind, (msg, expect)) in every_kind().into_iter().enumerate() {
        let enc = encode_frame(&msg);
        assert_eq!(enc[5] as usize, kind, "kind byte of {msg:?}");
        assert_eq!(hex(&enc), expect, "frame bytes of {msg:?}");
        // the recorded bytes parse, and parse to the same message
        let (dec, used) = decode_frame(&unhex(expect)).expect("golden frame parses");
        assert_eq!(used, enc.len());
        assert_eq!(encode_frame(&dec), enc);
        all.extend_from_slice(&enc);
    }
    assert_eq!(
        reference_fnv(&all),
        0x845c_9f46_ae11_3b89,
        "digest over all 19 frames"
    );
}

#[test]
fn golden_ltnt_announce_frame() {
    // header (kind 19, 28 payload bytes), issuer u64, count u32, two ids,
    // FNV-1a over the kind byte then the payload
    let expect = concat!(
        "4c544e5401131c000000",
        "0300000000000000",
        "02000000",
        "0400000000000000",
        "0d0c0b0a00000000",
        "577e34f4bc92d3cd"
    );
    let msg = WireMsg::Announce {
        issuer: 3,
        ids: vec![ContentId(4), ContentId(0x0a0b_0c0d)],
    };
    let enc = encode_frame(&msg);
    assert_eq!(hex(&enc), expect);
    // the trailer is FNV-1a over the kind byte then the payload
    let body = enc.len() - 8;
    let checked: Vec<u8> = [&[19u8][..], &enc[10..body]].concat();
    assert_eq!(reference_fnv(&checked).to_le_bytes(), enc[body..]);
    let (dec, used) = decode_frame(&unhex(expect)).expect("golden frame parses");
    assert_eq!(used, enc.len());
    assert!(matches!(
        dec,
        WireMsg::Announce { issuer: 3, ref ids } if ids[..] == [ContentId(4), ContentId(0x0a0b_0c0d)]
    ));
}

#[test]
fn golden_ltnd_envelope_around_a_fixed_inner() {
    // Reader: a hand-assembled envelope (slot 42, inner b"inner", valid
    // whole-file checksum) must get through the envelope and fail only
    // in the inner `LTCP` parser.
    let envelope = unhex("4c544e44012a0000000000000005000000696e6e6572cffb8e1b63532473");
    let body = envelope.len() - 8;
    assert_eq!(&envelope[17..body], b"inner");
    assert_eq!(
        reference_fnv(&envelope[..body]).to_le_bytes(),
        envelope[body..]
    );
    let err = decode_daemon_checkpoint(0, &envelope, 0, ORPHAN_CAP)
        .err()
        .expect("inner is not an LTCP image");
    assert_eq!(
        err.to_string(),
        "malformed ledger file: bad checkpoint magic"
    );
    let mut torn = envelope.clone();
    torn[body] ^= 1;
    let err = decode_daemon_checkpoint(0, &torn, 0, ORPHAN_CAP)
        .err()
        .expect("checksum must fail");
    assert_eq!(
        err.to_string(),
        "malformed ledger file: daemon checkpoint checksum mismatch"
    );

    // Writer: the same header and trailer around whatever the peer's
    // checkpoint is.
    let genesis = tx_genesis();
    let mut peer = Peer::new(0, &genesis, 0);
    let child = TxMessage::create(&ParamVec(vec![2.0]), vec![genesis.content_id()], 1, 1, 0);
    assert_eq!(peer.receive(&child), ReceiveOutcome::Accepted);
    let inner = peer.checkpoint_bytes();
    let out = daemon_checkpoint_bytes(&peer, 42);
    assert_eq!(hex(&out[..13]), hex(&envelope[..13]));
    assert_eq!(out[13..17], (inner.len() as u32).to_le_bytes());
    assert_eq!(out[17..17 + inner.len()], inner[..]);
    assert_eq!(
        out[17 + inner.len()..],
        reference_fnv(&out[..17 + inner.len()]).to_le_bytes()
    );
    let (back, slot) = decode_daemon_checkpoint(0, &out, 0, ORPHAN_CAP).expect("roundtrip");
    assert_eq!((back.len(), slot), (2, 42));
}

fn tx_genesis() -> TxMessage {
    TxMessage::create(&ParamVec(vec![0.0]), vec![], u64::MAX, 0, 0)
}
