//! The raw `LTCP` checkpoint, without the daemon's `LTND` envelope around
//! it (whose whole-file checksum would catch damage before the parser
//! here sees it). A checkpoint is the peer's archive, restored by
//! replaying it through `Peer::receive`; these tests pin that a restored
//! peer equals the original field for field and that nothing but an
//! exact, admissible, in-order archive restores at all.

use proptest::prelude::*;
use tangle_gossip::{ContentId, Peer, ReceiveOutcome, TxMessage};
use tangle_ledger::TxId;
use tinynn::ParamVec;

const CAP: usize = 16;

fn genesis() -> TxMessage {
    TxMessage::create(&ParamVec(vec![0.0, 0.0]), vec![], u64::MAX, 0, 0)
}

fn child(parents: Vec<ContentId>, issuer: u64, v: f32) -> TxMessage {
    TxMessage::create(&ParamVec(vec![v, -v]), parents, issuer, issuer + 1, 0)
}

/// A peer that accepted one message per script entry. Entry `i` takes
/// its first `n` (1–3) parents from `[a, b, c]`, each an index into the
/// messages so far — so parent lists repeat a parent, and list them in
/// any order (the wire order is part of the content id).
fn peer_from_script(script: &[(u8, u8, u8, u8, i16)]) -> Peer {
    let g = genesis();
    let mut peer = Peer::new(0, &g, 0).with_orphan_cap(CAP);
    let mut ids = vec![g.content_id()];
    for (i, &(a, b, c, n, v)) in script.iter().enumerate() {
        let parents = [a, b, c][..1 + n as usize % 3]
            .iter()
            .map(|&k| ids[k as usize % ids.len()])
            .collect();
        let m = TxMessage::create(
            &ParamVec(vec![v as f32, i as f32]),
            parents,
            v as u64,
            i as u64,
            0,
        );
        assert_eq!(peer.receive(&m), ReceiveOutcome::Accepted);
        ids.push(m.content_id());
    }
    peer
}

fn restore(image: &[u8]) -> Result<Peer, String> {
    Peer::from_checkpoint(0, image, 0, CAP).map_err(|e| e.to_string())
}

/// Why `image` does not restore (panics if it does).
fn rejection(image: &[u8]) -> String {
    restore(image).err().expect("image must not restore")
}

/// `b` is `a`, field for field, as far as the public surface shows.
fn assert_same_peer(a: &Peer, b: &Peer) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a
        .replica()
        .transactions()
        .iter()
        .zip(b.replica().transactions())
        .enumerate()
    {
        assert_eq!(
            (&x.parents, x.issuer, x.round),
            (&y.parents, y.issuer, y.round)
        );
        let bits = |p: &ParamVec| p.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&x.payload), bits(&y.payload));
        let cid = a.content_id_of(TxId(i as u32));
        assert_eq!(cid, b.content_id_of(TxId(i as u32)));
        assert_eq!(b.lookup(cid), Some(TxId(i as u32)));
        assert!(b.has_seen(cid));
    }
    let bytes = |p: &Peer| {
        p.export_messages()
            .iter()
            .map(|m| m.encode())
            .collect::<Vec<_>>()
    };
    assert_eq!(bytes(a), bytes(b));
    assert_eq!(a.heads(), b.heads());
    assert!(b.missing().is_empty());
    assert_eq!((b.orphan_count(), b.evictions()), (0, 0));
}

/// The version-2 layout written by hand: magic, version, `count`, then
/// `len u32` + message bytes for each of `msgs`.
fn image(version: u8, count: u32, msgs: &[&TxMessage]) -> Vec<u8> {
    let mut out = b"LTCP".to_vec();
    out.push(version);
    out.extend_from_slice(&count.to_le_bytes());
    for m in msgs {
        let enc = m.encode();
        out.extend_from_slice(&(enc.len() as u32).to_le_bytes());
        out.extend_from_slice(&enc);
    }
    out
}

/// Genesis, `a` on the genesis, `b` on `a` then the genesis.
fn chain() -> (TxMessage, TxMessage, TxMessage) {
    let g = genesis();
    let a = child(vec![g.content_id()], 1, 1.0);
    let b = child(vec![a.content_id(), g.content_id()], 2, 2.0);
    (g, a, b)
}

type Script = Vec<(u8, u8, u8, u8, i16)>;

fn script(len: std::ops::Range<usize>) -> impl Strategy<Value = Script> {
    prop::collection::vec(
        (
            any::<u8>(),
            any::<u8>(),
            any::<u8>(),
            any::<u8>(),
            any::<i16>(),
        ),
        len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Ledgers of 1–40 messages restore to an equal peer.
    #[test]
    fn checkpoint_restores_an_equal_peer(script in script(0..40)) {
        let p = peer_from_script(&script);
        let r = restore(&p.checkpoint_bytes()).expect("own checkpoint restores");
        assert_same_peer(&p, &r);
        prop_assert_eq!(r.checkpoint_bytes(), p.checkpoint_bytes());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// No proper prefix of a checkpoint restores.
    #[test]
    fn checkpoint_truncated_at_every_cut_is_rejected(script in script(0..8)) {
        let image = peer_from_script(&script).checkpoint_bytes();
        for cut in 0..image.len() {
            prop_assert!(restore(&image[..cut]).is_err(), "cut at {} of {}", cut, image.len());
        }
    }

    /// A flipped bit is either caught or gives some other valid ledger
    /// (no checksum covers the nonce of a leaf, say) — never a panic,
    /// never a peer whose tables disagree with each other.
    #[test]
    fn checkpoint_with_any_bit_flipped_errs_or_is_self_consistent(script in script(0..6)) {
        let mut image = peer_from_script(&script).checkpoint_bytes();
        for bit in 0..image.len() * 8 {
            image[bit / 8] ^= 1 << (bit % 8);
            if let Ok(r) = restore(&image) {
                let again = restore(&r.checkpoint_bytes()).expect("self-consistent");
                assert_same_peer(&r, &again);
            }
            image[bit / 8] ^= 1 << (bit % 8);
        }
    }
}

#[test]
fn checkpoint_image_helper_matches_the_writer() {
    let (g, a, b) = chain();
    let mut p = Peer::new(0, &g, 0);
    p.receive(&a);
    p.receive(&b);
    assert_eq!(image(2, 3, &[&g, &a, &b]), p.checkpoint_bytes());
}

#[test]
fn checkpoint_rejects_forward_parent_reference() {
    let (g, a, b) = chain();
    // `b` before its parent `a`: as a delivery it would be buffered as
    // an orphan; in a checkpoint it is damage.
    assert_eq!(
        rejection(&image(2, 3, &[&g, &b, &a])),
        "malformed ledger file: checkpoint message not admissible"
    );
}

#[test]
fn checkpoint_rejects_repeated_message() {
    let (g, a, _) = chain();
    assert!(rejection(&image(2, 3, &[&g, &a, &a])).contains("not admissible"));
    assert!(rejection(&image(2, 2, &[&g, &g])).contains("not admissible"));
}

#[test]
fn checkpoint_rejects_count_larger_than_messages() {
    let (g, a, b) = chain();
    assert!(rejection(&image(2, 4, &[&g, &a, &b])).contains("truncated"));
}

#[test]
fn checkpoint_rejects_count_smaller_than_messages() {
    let (g, a, b) = chain();
    assert!(rejection(&image(2, 2, &[&g, &a, &b])).contains("trailing checkpoint bytes"));
}

#[test]
fn checkpoint_rejects_absurd_count_at_once() {
    // nine bytes: nothing behind the count, so nothing to loop over and
    // nothing to reserve
    assert!(rejection(&image(2, u32::MAX, &[])).contains("implausible message count"));
}

#[test]
fn checkpoint_rejects_zero_messages() {
    assert!(rejection(&image(2, 0, &[])).contains("empty checkpoint"));
}

#[test]
fn checkpoint_rejects_genesis_with_parents() {
    let (_, a, _) = chain();
    assert!(rejection(&image(2, 1, &[&a])).contains("invalid genesis"));
}

#[test]
fn checkpoint_rejects_genesis_with_undecodable_payload() {
    let mut g = genesis().encode().to_vec();
    let n = g.len();
    g[n - 10] ^= 0x20; // inside the payload's checksummed values
    let g = TxMessage::decode(&g).expect("framing intact");
    assert!(rejection(&image(2, 1, &[&g])).contains("invalid genesis"));
}

#[test]
fn checkpoint_rejects_message_below_the_pow_difficulty() {
    let (g, a, _) = chain();
    // `a` was mined at difficulty 0; find a nonce that fails difficulty 8
    let weak = (0..)
        .map(|nonce| TxMessage { nonce, ..a.clone() })
        .find(|m| !m.verify_pow(8))
        .expect("most nonces fail");
    let bytes = image(2, 2, &[&g, &weak]);
    assert!(Peer::from_checkpoint(0, &bytes, 0, CAP).is_ok());
    let err = Peer::from_checkpoint(0, &bytes, 8, CAP)
        .err()
        .expect("pow is re-validated");
    assert!(err.to_string().contains("not admissible"));
}

#[test]
fn checkpoint_rejects_version_1_header() {
    let (g, a, b) = chain();
    assert_eq!(
        rejection(&image(1, 3, &[&g, &a, &b])),
        "malformed ledger file: unsupported checkpoint version"
    );
}
