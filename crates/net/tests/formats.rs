//! One fuzz harness for every binary format of the workspace, one row per
//! format. [`check`] runs five properties over a row, exhaustively over
//! its small samples:
//!
//! 1. every sample decodes and re-encodes to exactly its own bytes;
//! 2. every strict prefix of a sample errs;
//! 3. every single-bit flip errs inside the row's strict prefix (all of
//!    the image for a format checksummed end to end); elsewhere it errs or
//!    decodes to a value whose re-encoding decodes to itself;
//! 4. random bytes err without panicking, with and without the row's
//!    magic and version stapled on;
//! 5. every hostile image errs with its stated error.
//!
//! The daemon's checkpoint-file protocol is tested at the bottom.

use learning_tangle::persist;
use lt_net::daemon::{
    daemon_checkpoint_bytes, decode_daemon_checkpoint, load_checkpoint, write_checkpoint_atomic,
};
use lt_net::{decode_frame, encode_frame, Preset, WireMsg, MAX_PAYLOAD, ORPHAN_CAP};
use proptest::prelude::*;
use rand::RngExt;
use std::path::PathBuf;
use std::sync::OnceLock;
use tangle_gossip::{ContentId, Peer, ReceiveOutcome, TxMessage};
use tangle_ledger::TxId;
use tinynn::rng::seeded;
use tinynn::wire::{self, fnv1a, fnv1a_update};
use tinynn::ParamVec;

/// One binary format under test.
struct Format {
    name: &'static str,
    /// Magic and version, stapled onto random bytes by property 4.
    header: &'static [u8],
    /// Leading bytes in which every bit flip must err: `usize::MAX` for a
    /// format checksummed end to end, the fixed header otherwise.
    strict: usize,
    samples: fn() -> Vec<Vec<u8>>,
    /// Decode, then re-encode what was decoded.
    decode: fn(&[u8]) -> Result<Vec<u8>, String>,
    hostile: fn() -> Vec<(Vec<u8>, &'static str)>,
}

fn check(f: &Format) {
    let decode = f.decode;
    for (i, s) in (f.samples)().iter().enumerate() {
        let at = |what: String| format!("{} sample {i}: {what}", f.name);
        assert_eq!(decode(s).as_ref(), Ok(s), "{}", at("roundtrip".into()));
        for cut in 0..s.len() {
            assert!(decode(&s[..cut]).is_err(), "{}", at(format!("cut {cut}")));
        }
        let mut b = s.clone();
        for bit in 0..b.len() * 8 {
            b[bit / 8] ^= 1 << (bit % 8);
            if let Ok(e) = decode(&b) {
                assert!(bit / 8 >= f.strict, "{}", at(format!("flip {bit} decoded")));
                assert_eq!(decode(&e).as_ref(), Ok(&e), "{}", at(format!("flip {bit}")));
            }
            b[bit / 8] ^= 1 << (bit % 8);
        }
    }
    let mut rng = seeded(0x6A7B);
    for case in 0..512 {
        let mut b = [f.header, &[]][case % 2].to_vec();
        b.extend((0..rng.random_range(0..=256usize)).map(|_| rng.random::<u8>()));
        assert!(decode(&b).is_err(), "{} garbage decoded: {b:?}", f.name);
    }
    for (image, want) in (f.hostile)() {
        assert_eq!(decode(&image), Err(want.to_string()), "{}", f.name);
    }
}

/// A row's `decode`: re-encode what decoded, or display why not.
fn via<T, E: ToString>(r: Result<T, E>, encode: impl Fn(&T) -> Vec<u8>) -> Result<Vec<u8>, String> {
    r.map(|t| encode(&t)).map_err(|e| e.to_string())
}

/// A `PersistError::Malformed` as it displays.
macro_rules! malformed {
    ($what:literal) => {
        concat!("malformed ledger file: ", $what)
    };
}

// ---- the shared generator: peers grown from random scripts ----------------

/// Proof-of-work the peers are grown and restored at: nonzero so a weak
/// nonce has a hostile row, low enough that half of all metadata flips
/// still pass it and reach the self-consistency check.
const POW: u32 = 1;

fn genesis() -> TxMessage {
    TxMessage::create(&ParamVec(vec![0.0, 0.0]), vec![], u64::MAX, 0, 0)
}

fn child(parents: Vec<ContentId>, issuer: u64, v: f32) -> TxMessage {
    TxMessage::create(&ParamVec(vec![v, -v]), parents, issuer, issuer + 1, POW)
}

fn restore(image: &[u8], pow: u32) -> Result<Peer, String> {
    Peer::from_checkpoint(0, image, pow, ORPHAN_CAP).map_err(|e| e.to_string())
}

/// The `LTCP` version-2 layout written by hand: magic, version, `count`,
/// then `len u32` + message bytes for each of `msgs`.
fn image(version: u8, count: u32, msgs: &[&TxMessage]) -> Vec<u8> {
    let mut out = b"LTCP".to_vec();
    out.push(version);
    out.extend_from_slice(&count.to_le_bytes());
    for m in msgs {
        m.write_prefixed(&mut out);
    }
    out
}

/// `b` is `a`, field for field, as far as the public surface shows.
fn assert_same_peer(a: &Peer, b: &Peer) {
    assert_eq!(a.len(), b.len());
    let txs = a.replica().transactions().iter();
    for (i, (x, y)) in txs.zip(b.replica().transactions()).enumerate() {
        assert_eq!(x.parents, y.parents);
        assert_eq!((x.issuer, x.round), (y.issuer, y.round));
        let bits = |p: &ParamVec| p.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&x.payload), bits(&y.payload));
        let cid = a.content_id_of(TxId(i as u32));
        assert_eq!(cid, b.content_id_of(TxId(i as u32)));
        assert_eq!(b.lookup(cid), Some(TxId(i as u32)));
        assert!(b.has_seen(cid));
    }
    let (ea, eb) = (a.export_messages(), b.export_messages());
    assert_eq!(encode_all(&ea), encode_all(&eb));
    assert_eq!(a.heads(), b.heads());
    assert!(b.missing().is_empty());
    assert_eq!((b.orphan_count(), b.evictions()), (0, 0));
}

/// Peers of 0–7 messages beyond the genesis. Message `i` takes 1–3
/// parents, each any earlier message, so parent lists repeat a parent and
/// come in any order (the wire order is part of the content id). Each
/// peer's checkpoint matches [`image`] and restores to an equal peer.
fn peers() -> Vec<Peer> {
    let mut rng = seeded(0x17C9);
    let g = genesis();
    let grow = |len: u64| {
        let mut peer = Peer::new(0, &g, POW).with_orphan_cap(ORPHAN_CAP);
        let mut msgs = vec![g.clone()];
        for i in 0..len {
            let parents = (0..rng.random_range(1..=3))
                .map(|_| msgs[rng.random_range(0..msgs.len())].content_id())
                .collect();
            let m = child(parents, i, rng.random_range(-9.0..9.0));
            assert_eq!(peer.receive(&m), ReceiveOutcome::Accepted);
            msgs.push(m);
        }
        let (bytes, refs) = (peer.checkpoint_bytes(), msgs.iter().collect::<Vec<_>>());
        assert_eq!(bytes, image(2, refs.len() as u32, &refs));
        let back = restore(&bytes, POW).expect("own checkpoint restores");
        assert_same_peer(&peer, &back);
        peer
    };
    [0, 1, 2, 4, 7].into_iter().map(grow).collect()
}

/// One sample image per grown peer.
fn from_peers(image: impl Fn(&Peer) -> Vec<u8>) -> Vec<Vec<u8>> {
    peers().iter().map(image).collect()
}

// ---- LTPV: a parameter vector, its values checksummed ---------------------

const LTPV: Format = Format {
    name: "LTPV",
    header: b"LTPV\x01",
    strict: usize::MAX,
    samples: || {
        let vs = [vec![], vec![1.0], vec![-2.5, f32::NAN, f32::MIN_POSITIVE]];
        vs.map(|v| wire::encode(&ParamVec(v)).to_vec()).into()
    },
    decode: |b| via(wire::decode(b), |p| wire::encode(p).to_vec()),
    hostile: || {
        let lying = [&b"LTPV\x01"[..], &u32::MAX.to_le_bytes(), &[0; 8]].concat();
        let mut v2 = wire::encode(&ParamVec(vec![1.0])).to_vec();
        v2[4] = 2;
        vec![(lying, "payload truncated"), (v2, "unsupported version 2")]
    },
};

// ---- TxMessage: a transaction on the wire, no magic and no checksum -------

const TX_MESSAGE: Format = Format {
    name: "TxMessage",
    header: b"",
    strict: 0,
    samples: || {
        let msgs = peers().pop().expect("a peer").export_messages();
        let all = std::iter::once(genesis()).chain(msgs);
        all.map(|m| m.encode().to_vec()).collect()
    },
    decode: |b| {
        let m = TxMessage::decode(b).ok_or("framing");
        via(m, |m| m.encode().to_vec())
    },
    hostile: || vec![([&genesis().encode()[..], &[0]].concat(), "framing")],
};

// ---- LTGL: a ledger image, metadata unchecksummed, LTPV payloads ----------

const LTGL: Format = Format {
    name: "LTGL",
    header: b"LTGL\x01",
    strict: 9,
    samples: || from_peers(|p| persist::to_bytes(p.replica())),
    decode: |b| via(persist::from_bytes(b), persist::to_bytes),
    // nowhere near `count` × 22 bytes behind the count
    hostile: || {
        let lying = |count: u32| [&b"LTGL\x01"[..], &count.to_le_bytes(), &[0; 64]].concat();
        let why = malformed!("implausible transaction count");
        [3, 1024, u32::MAX].map(|n| (lying(n), why)).into()
    },
};

// ---- LTCP: a peer's checkpoint, its archive replayed through receive ------

const LTCP: Format = Format {
    name: "LTCP",
    header: b"LTCP\x02",
    strict: 9,
    samples: || from_peers(Peer::checkpoint_bytes),
    decode: |b| via(restore(b, POW), Peer::checkpoint_bytes),
    hostile: || {
        let g = genesis();
        let a = child(vec![g.content_id()], 1, 1.0);
        let b = child(vec![a.content_id(), g.content_id()], 2, 2.0);
        let weak = (0..)
            .map(|nonce| {
                let mut m = a.clone();
                m.nonce = nonce;
                m
            })
            .find(|m| !m.verify_pow(POW))
            .expect("half of all nonces fail");
        let weak = image(2, 2, &[&g, &weak]);
        assert!(restore(&weak, 0).is_ok(), "only the proof-of-work is wrong");
        let mut undecodable = g.clone();
        undecodable.payload = g.payload[1..].to_vec().into();
        let bad = malformed!("checkpoint message not admissible");
        let trailing = malformed!("trailing checkpoint bytes");
        let absurd = malformed!("implausible message count");
        let bad_genesis = malformed!("invalid genesis message");
        let v1 = malformed!("unsupported checkpoint version");
        vec![
            (image(2, 3, &[&g, &b, &a]), bad), // a parent after its child
            (image(2, 3, &[&g, &a, &a]), bad),
            (image(2, 2, &[&g, &g]), bad),
            (weak, bad),
            (image(2, 4, &[&g, &a, &b]), malformed!("truncated")),
            (image(2, 2, &[&g, &a, &b]), trailing),
            (image(2, u32::MAX, &[]), absurd),
            (image(2, 0, &[]), malformed!("empty checkpoint")),
            (image(2, 1, &[&a]), bad_genesis),
            (image(2, 1, &[&undecodable]), bad_genesis),
            (image(1, 3, &[&g, &a, &b]), v1),
        ]
    },
};

// ---- LTND: the daemon's envelope around LTCP, whole-file checksum ---------

const LTND: Format = Format {
    name: "LTND",
    header: b"LTND\x01",
    strict: usize::MAX,
    samples: || from_peers(|p| daemon_checkpoint_bytes(p, u64::MAX - p.len() as u64)),
    decode: |b| {
        let restored = decode_daemon_checkpoint(0, b, 0, ORPHAN_CAP);
        via(restored, |(p, slot)| daemon_checkpoint_bytes(p, *slot))
    },
    // a sound envelope around a version-1 `LTCP` image
    hostile: || {
        let mut inner = peers()[2].checkpoint_bytes();
        inner[4] = 1;
        let len = (inner.len() as u32).to_le_bytes();
        let mut b = [&b"LTND\x01"[..], &7u64.to_le_bytes(), &len, &inner].concat();
        b.extend_from_slice(&fnv1a(&b).to_le_bytes());
        vec![(b, malformed!("unsupported checkpoint version"))]
    },
};

// ---- LTNT: a socket frame, checksummed over kind and payload --------------

/// A frame assembled by hand, its checksum forged to match.
fn frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let len = (payload.len() as u32).to_le_bytes();
    let check = fnv1a_update(fnv1a(&[kind]), payload).to_le_bytes();
    [&b"LTNT\x01"[..], &[kind], &len, payload, &check].concat()
}

/// One frame of most kinds, carrying a grown peer's messages.
fn frames() -> Vec<Vec<u8>> {
    let msgs = peers().pop().expect("a peer").export_messages();
    let ids: Vec<ContentId> = msgs.iter().map(TxMessage::content_id).collect();
    let counters = vec![("net.frames_sent".into(), 4)];
    let histograms = vec![("net.rtt_us".into(), 2, 300)];
    let addrs = vec![(1, "127.0.0.1:9".into())];
    let (peer, genesis, heads) = (3, ids[0].0, ids[..2].to_vec());
    [
        WireMsg::Hello { peer, genesis },
        WireMsg::Publish(msgs[0].clone()),
        WireMsg::Delta(msgs[6].clone()),
        WireMsg::Archive(msgs[..3].to_vec()),
        WireMsg::Advertise { heads },
        WireMsg::Request { wants: ids.clone() },
        WireMsg::Announce { issuer: 3, ids },
        WireMsg::Activate { slot: 9 },
        WireMsg::Metrics {
            counters,
            histograms,
        },
        WireMsg::Connect { peers: addrs },
        WireMsg::Shutdown,
    ]
    .iter()
    .map(encode_frame)
    .collect()
}

const LTNT: Format = Format {
    name: "LTNT",
    header: b"LTNT\x01",
    strict: usize::MAX,
    samples: frames,
    decode: |b| via(decode_frame(b), |(m, _)| encode_frame(m)),
    hostile: || {
        let huge = |n: u32| [&b"LTNT\x01\x02"[..], &n.to_le_bytes()].concat();
        let lying = |head: &[u8], n: u32| [head, &n.to_le_bytes(), &[0; 16]].concat();
        let over = "payload of 67108865 bytes exceeds the frame bound";
        let max = "payload of 4294967295 bytes exceeds the frame bound";
        let short = "frame truncated";
        let mut rows = vec![
            (huge(MAX_PAYLOAD as u32 + 1), over),
            (huge(u32::MAX), max),
            (frame(2, &lying(&[], 1_000_000)), short), // Advertise
            (frame(2, &lying(&[], u32::MAX)), short),
            (frame(19, &lying(&9u64.to_le_bytes(), 3)), short), // Announce
        ];
        // a stream decoder's "feed me more bytes": every strict prefix
        for f in frames() {
            rows.extend((0..f.len()).map(|n| (f[..n].to_vec(), short)));
        }
        rows
    },
};

// One test per row, named after it.
macro_rules! rows {
    ($($test:ident: $row:ident),*) => {
        $(#[test] fn $test() { check(&$row); })*
    };
}
rows!(ltpv: LTPV, tx_message: TX_MESSAGE, ltgl: LTGL, ltcp: LTCP, ltnd: LTND, ltnt: LTNT);

// ---- the LTND checkpoint file: kills, torn writes, missing files ----------

fn preset() -> Preset {
    Preset { nodes: 3, seed: 7 }
}

/// A peer that accepted `n` transactions beyond genesis, plus those
/// messages in insertion order (the ground-truth history).
fn peer_with(n: usize) -> (Peer, Vec<TxMessage>) {
    let genesis = preset().genesis();
    let mut peer = Peer::new(0, &genesis, 0).with_orphan_cap(ORPHAN_CAP);
    let mut msgs = Vec::new();
    let mut prev = genesis.content_id();
    for i in 0..n as u64 {
        let params = ParamVec(vec![i as f32, -1.0]);
        let m = TxMessage::create(&params, vec![prev, genesis.content_id()], i % 3, i + 1, 0);
        assert_eq!(peer.receive(&m), ReceiveOutcome::Accepted);
        prev = m.content_id();
        msgs.push(m);
    }
    (peer, msgs)
}

/// One valid checkpoint, shared across cases (building the preset peer
/// per case would dominate the fuzz time).
fn sample_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| daemon_checkpoint_bytes(&peer_with(5).0, 5))
}

fn encode_all(msgs: &[TxMessage]) -> Vec<Vec<u8>> {
    msgs.iter().map(|m| m.encode().to_vec()).collect()
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ltnd-fuzz-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Simulated SIGKILL mid-checkpoint: the atomic tmp+rename protocol
    /// means the real file still holds the *previous* checkpoint while
    /// the tmp holds an arbitrary prefix of the new one. Restore must
    /// ignore the tmp and come back with the older — valid — prefix of
    /// history, never a torn or diverged ledger.
    #[test]
    fn kill_during_checkpoint_restores_previous_prefix(
        k in 0usize..4,
        extra in 1usize..4,
        cut in 0usize..100_000,
    ) {
        let (full_peer, msgs) = peer_with(k + extra);
        let (old_peer, _) = peer_with(k); // same deterministic history
        let old = daemon_checkpoint_bytes(&old_peer, k as u64);
        let new = daemon_checkpoint_bytes(&full_peer, (k + extra) as u64);

        let path = scratch(&format!("kill-{k}-{extra}.ltnd"));
        write_checkpoint_atomic(&path, &old).unwrap();
        // the torn tmp a mid-write SIGKILL leaves behind
        let tmp = path.with_extension("ltnd.tmp");
        std::fs::write(&tmp, &new[..cut % new.len()]).unwrap();

        let (back, slot) = load_checkpoint(&path, 0, &preset().genesis()).unwrap();
        prop_assert_eq!(slot, k as u64);
        prop_assert_eq!(back.len(), k + 1);
        // the restored archive is a byte-exact prefix of the full history
        prop_assert_eq!(encode_all(&back.export_messages()), encode_all(&msgs[..k]));
    }

    /// Had a torn write reached the real file anyway (no atomicity), the
    /// decode-or-empty restore path errs cleanly — the daemon then starts
    /// from genesis and lets pull-based repair refill the ledger.
    #[test]
    fn torn_file_fails_open(cut in 0usize..100_000) {
        let b = sample_bytes();
        let cut = cut % b.len(); // strictly shorter
        let path = scratch(&format!("torn-{cut}.ltnd"));
        std::fs::write(&path, &b[..cut]).unwrap();
        prop_assert!(load_checkpoint(&path, 0, &preset().genesis()).is_err());
    }
}

/// Missing checkpoint files surface as a clean error (the daemon's
/// `--restore` treats it as cold start), not a panic.
#[test]
fn missing_file_errs_cleanly() {
    let path = scratch("never-written.ltnd");
    assert!(load_checkpoint(&path, 0, &preset().genesis()).is_err());
}
