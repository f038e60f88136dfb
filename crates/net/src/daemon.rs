//! The `lt-node` daemon: one gossip peer behind a TCP socket.
//!
//! Process layout:
//!
//! * the **protocol thread** (this module's main loop) owns the
//!   [`NodeProtocol`], the training state, and the [`Router`]; it takes
//!   no protocol decision (connections go to [`NodeProtocol::on_link_up`],
//!   frames to `on_message`, due wake-ups to `tick`) and is the only
//!   thread that mutates the replica, so no locking is needed;
//! * one **reader thread** per connection parses frames and forwards
//!   them to the protocol thread over a channel (counting
//!   `net.frames_recv` / `net.bytes_recv` at the socket);
//! * one **writer thread** per connection drains that connection's
//!   `Outbox` channel (counting `net.frames_sent` / `net.bytes_sent`
//!   after each successful write);
//! * one **dialer thread** per higher-id peer keeps the outgoing
//!   connection alive, reconnecting with exponential backoff (counted
//!   under `net.reconnects`).
//!
//! No frame is dropped on the send path: a send to a peer with no live
//! connection counts as `net.rejected`, and every frame accepted for a
//! registered connection ends in exactly one of `net.frames_sent` (written)
//! and `net.conn_lost` (queued behind a socket that died mid-stream).
//!
//! Crash safety: with `--checkpoint <path>` the protocol thread
//! periodically persists an `LTND` envelope (last activated slot +
//! [`Peer::checkpoint_bytes`] + whole-file checksum) via atomic
//! tmp-and-rename writes; `--restore` rebuilds the replica from that
//! file at startup by replaying its messages through [`Peer::receive`],
//! falling back to an empty replica (repair refills it) when the file is
//! missing, truncated, or corrupt.
//!
//! On startup the daemon prints `LISTEN <addr>` on stdout — the contract
//! the [`crate::driver`] uses to find the ephemeral port.

use crate::frame::{read_frame, StatusReport, WireMsg, CONTROL_PEER};
use crate::preset::{Preset, ORPHAN_CAP};
use crate::NodeProtocol;
use learning_tangle::node::Node;
use learning_tangle::persist::PersistError;
use learning_tangle::SimConfig;
use rand::RngExt;
use std::collections::HashMap;
use std::fs;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};
use tangle_gossip::learn::{consensus_eval, train_step};
use tangle_gossip::{Peer, ProtocolMsg, Transport, TxMessage};
use tangle_ledger::{AnalysisCache, TxId};
use tinynn::rng::{derive, seeded, Rng};
use tinynn::wire::{fnv1a, Reader};

/// Configuration of one daemon process.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// This daemon's peer id (also its training node id).
    pub id: usize,
    /// Cluster population (= dataset clients).
    pub nodes: usize,
    /// Shared experiment seed (see [`Preset`]).
    pub seed: u64,
    /// Listen address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub listen: String,
    /// Interval between liveness pings to each connected peer, in
    /// milliseconds (0 = off; keep off for deterministic frame counts).
    pub ping_interval_ms: u64,
    /// Where to persist crash-recovery checkpoints (None = off).
    pub checkpoint: Option<PathBuf>,
    /// Interval between periodic checkpoints, in milliseconds.
    pub checkpoint_every_ms: u64,
    /// Restore the replica from `checkpoint` at startup. A missing or
    /// invalid file is not fatal: the daemon starts from genesis and
    /// the repair protocol refills it.
    pub restore: bool,
}

impl DaemonConfig {
    /// Defaults for `id` of `nodes` peers at `seed`.
    pub fn new(id: usize, nodes: usize, seed: u64) -> Self {
        Self {
            id,
            nodes,
            seed,
            listen: "127.0.0.1:0".to_string(),
            ping_interval_ms: 0,
            checkpoint: None,
            checkpoint_every_ms: 250,
            restore: false,
        }
    }
}

/// Magic prefix of the daemon checkpoint envelope. The envelope wraps
/// the gossip-layer `LTCP` image with daemon-level state (the last
/// activated slot) and a whole-file checksum so a kill mid-write is
/// detected as corruption, never read as a shorter valid history.
pub(crate) const DAEMON_CKPT_MAGIC: &[u8; 4] = b"LTND";
/// Envelope version.
pub(crate) const DAEMON_CKPT_VERSION: u8 = 1;

/// Serialize a daemon checkpoint:
///
/// ```text
/// magic     b"LTND"  (4 bytes)
/// version   u8       (currently 1)
/// last_slot u64 LE   (last activated training slot)
/// inner_len u32 LE   (LTCP image byte count)
/// inner     bytes    (Peer::checkpoint_bytes: the archived messages)
/// check     u64 LE   (FNV-1a over all preceding bytes)
/// ```
pub fn daemon_checkpoint_bytes(peer: &Peer, last_slot: u64) -> Vec<u8> {
    let inner = peer.checkpoint_bytes();
    let mut out = Vec::with_capacity(4 + 1 + 8 + 4 + inner.len() + 8);
    out.extend_from_slice(DAEMON_CKPT_MAGIC);
    out.push(DAEMON_CKPT_VERSION);
    out.extend_from_slice(&last_slot.to_le_bytes());
    out.extend_from_slice(&(inner.len() as u32).to_le_bytes());
    out.extend_from_slice(&inner);
    let check = fnv1a(&out);
    out.extend_from_slice(&check.to_le_bytes());
    out
}

/// Parse and validate a daemon checkpoint produced by
/// [`daemon_checkpoint_bytes`]. Any truncation, bit flip, or version
/// skew fails closed with an error — never a panic, never a silently
/// shorter history. The inner `LTCP` image is replayed through
/// [`Peer::from_checkpoint`], so every message is admitted again
/// (payload checksum, proof-of-work at `pow_difficulty`, parents first);
/// an envelope around a version-1 `LTCP` image is an error like any other.
pub fn decode_daemon_checkpoint(
    id: usize,
    b: &[u8],
    pow_difficulty: u32,
    orphan_cap: usize,
) -> Result<(Peer, u64), PersistError> {
    let mut r = Reader::new(b);
    if r.take(4) != Ok(&DAEMON_CKPT_MAGIC[..]) {
        return Err(PersistError::Malformed("bad daemon checkpoint header"));
    }
    if r.u8()? != DAEMON_CKPT_VERSION {
        return Err(PersistError::Malformed(
            "unsupported daemon checkpoint version",
        ));
    }
    let last_slot = r.u64()?;
    let inner = r.len_prefixed()?;
    let check = r.u64()?;
    if r.remaining() != 0 {
        return Err(PersistError::Malformed("daemon checkpoint length mismatch"));
    }
    if fnv1a(&b[..b.len() - 8]) != check {
        return Err(PersistError::Malformed(
            "daemon checkpoint checksum mismatch",
        ));
    }
    let peer = Peer::from_checkpoint(id, inner, pow_difficulty, orphan_cap)?;
    Ok((peer, last_slot))
}

/// Crash-safe checkpoint write: the bytes land in `<path>.tmp` first and
/// are renamed into place, so a SIGKILL mid-write leaves either the old
/// complete checkpoint or a stray tmp file — never a torn `<path>`.
pub fn write_checkpoint_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("ltnd.tmp");
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path)
}

/// Load and validate a checkpoint file for daemon `id`, additionally
/// checking the restored genesis against the preset's — a checkpoint
/// from a different experiment must not be served as this ledger.
pub fn load_checkpoint(
    path: &Path,
    id: usize,
    genesis: &TxMessage,
) -> Result<(Peer, u64), PersistError> {
    let bytes =
        fs::read(path).map_err(|_| PersistError::Malformed("unreadable checkpoint file"))?;
    let (peer, slot) = decode_daemon_checkpoint(id, &bytes, 0, ORPHAN_CAP)?;
    if peer.content_id_of(TxId(0)) != genesis.content_id() {
        return Err(PersistError::Malformed(
            "checkpoint from a different genesis",
        ));
    }
    Ok((peer, slot))
}

/// One connection's send side: encoded frames for its writer thread, which
/// owns the `Receiver` and ends once the last `Outbox` drops.
///
/// Unbounded, so a send to a live connection never fails. The protocol
/// engine bounds the backlog: per connection it sends at most one `Publish`
/// per own transaction, one announcement per first-seen id, `max_retries`
/// `Request`s per wanted id, `1 + max_retries` head advertisements per
/// admission or opened link (the settled one and its re-sends, the
/// link-up one), and `Delta`s only in answer to a received `Request` or
/// head advertisement — a small multiple of the ledger the daemon already
/// holds in memory.
pub(crate) type Outbox = Sender<Vec<u8>>;

/// Routes outbound frames to per-connection `Outbox`es. The daemon's
/// [`Transport`]: a gossip send becomes an encoded frame on the target
/// connection's channel. Dropping an entry (on `detach`, or when a
/// reconnect replaces it) lets that connection's writer drain and exit.
pub struct Router {
    outboxes: HashMap<usize, (u64, Outbox)>,
    telemetry: lt_telemetry::Telemetry,
}

impl Router {
    /// An empty router counting into `telemetry`.
    pub fn new(telemetry: lt_telemetry::Telemetry) -> Self {
        Self {
            outboxes: HashMap::new(),
            telemetry,
        }
    }

    /// Register the live connection `token` to `peer`.
    pub fn attach(&mut self, peer: usize, token: u64, outbox: Outbox) {
        self.outboxes.insert(peer, (token, outbox));
    }

    /// Drop the connection to `peer`, but only if `token` still names the
    /// current one (a reconnect may already have replaced it).
    pub(crate) fn detach(&mut self, peer: usize, token: u64) {
        if self.outboxes.get(&peer).is_some_and(|(t, _)| *t == token) {
            self.outboxes.remove(&peer);
        }
    }

    /// Currently connected peer ids, ascending.
    pub(crate) fn peer_ids(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = self.outboxes.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Live connection count.
    pub(crate) fn len(&self) -> usize {
        self.outboxes.len()
    }

    /// No live connections?
    pub(crate) fn is_empty(&self) -> bool {
        self.outboxes.is_empty()
    }

    /// Enqueue one frame for `to`. `false` — with the loss accounted
    /// under `net.rejected` — when no connection to `to` is registered.
    /// (A closed channel, reachable only if its writer panicked, counts
    /// under `net.conn_lost`.)
    pub fn send_wire(&mut self, to: usize, msg: &WireMsg) -> bool {
        let Some((_, outbox)) = self.outboxes.get(&to) else {
            self.telemetry.count("net.rejected", 1);
            return false;
        };
        let sent = outbox.send(crate::frame::encode_frame(msg)).is_ok();
        if !sent {
            self.telemetry.count("net.conn_lost", 1);
        }
        sent
    }
}

impl Transport for Router {
    fn send(&mut self, _from: usize, to: usize, msg: ProtocolMsg) -> bool {
        self.send_wire(to, &WireMsg::from_protocol(msg))
    }
}

enum Event {
    /// A data connection to `peer` came up.
    PeerUp {
        peer: usize,
        token: u64,
        outbox: Outbox,
    },
    /// The data connection `token` to `peer` went down.
    PeerDown { peer: usize, token: u64 },
    /// A frame arrived from data peer `from`.
    Peer { from: usize, msg: WireMsg },
    /// A frame arrived on a control connection; replies go to `reply`.
    Control { reply: Outbox, msg: WireMsg },
}

/// Socket-level counter names for one direction of a connection class.
/// Data connections (peer gossip) and control connections (the harness)
/// are accounted separately so daemon-to-daemon totals stay symmetric:
/// after quiescence, the data frames one daemon sent are exactly the
/// data frames its peers received.
#[derive(Clone, Copy)]
struct WireCounters {
    frames_sent: &'static str,
    bytes_sent: &'static str,
    frames_recv: &'static str,
    bytes_recv: &'static str,
    conn_lost: &'static str,
}

const DATA_COUNTERS: WireCounters = WireCounters {
    frames_sent: "net.frames_sent",
    bytes_sent: "net.bytes_sent",
    frames_recv: "net.frames_recv",
    bytes_recv: "net.bytes_recv",
    conn_lost: "net.conn_lost",
};

const CTL_COUNTERS: WireCounters = WireCounters {
    frames_sent: "net.ctl_frames_sent",
    bytes_sent: "net.ctl_bytes_sent",
    frames_recv: "net.ctl_frames_recv",
    bytes_recv: "net.ctl_bytes_recv",
    conn_lost: "net.ctl_conn_lost",
};

/// Spawn the writer thread draining `rx` into `stream` until the last
/// [`Outbox`] drops. Once a write fails the socket is dead, but the
/// channel keeps accepting frames until the reader side notices and the
/// protocol thread detaches the connection — those frames were accepted
/// for delivery and then lost to the partition, so the writer keeps
/// draining and counts each one under `conn_lost`. Every frame received
/// here is counted exactly once: `frames_sent` on a successful write,
/// `conn_lost` after the socket died.
fn spawn_writer(
    stream: TcpStream,
    rx: Receiver<Vec<u8>>,
    telemetry: lt_telemetry::Telemetry,
    counters: WireCounters,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut w = BufWriter::new(stream);
        let mut dead = false;
        while let Ok(frame) = rx.recv() {
            if !dead {
                if w.write_all(&frame).and_then(|_| w.flush()).is_ok() {
                    telemetry.count(counters.frames_sent, 1);
                    telemetry.count(counters.bytes_sent, frame.len() as u64);
                    continue;
                }
                dead = true;
            }
            telemetry.count(counters.conn_lost, 1);
        }
    })
}

/// The connection writer thread with data-plane counters, exposed so
/// ground-truth telemetry tests can drive a writer against a real dead
/// socket and check the `frames_sent + conn_lost = pushed` ledger.
pub fn spawn_data_writer(
    stream: TcpStream,
    rx: Receiver<Vec<u8>>,
    telemetry: lt_telemetry::Telemetry,
) -> std::thread::JoinHandle<()> {
    spawn_writer(stream, rx, telemetry, DATA_COUNTERS)
}

/// Read frames from `r` until EOF or error, counting socket-level
/// receive totals and handing each message to `deliver` (which returns
/// `false` once the protocol thread is gone).
fn read_loop(
    r: &mut impl std::io::Read,
    telemetry: &lt_telemetry::Telemetry,
    counters: WireCounters,
    mut deliver: impl FnMut(WireMsg) -> bool,
) {
    loop {
        match read_frame(r) {
            Ok(Some((msg, bytes))) => {
                telemetry.count(counters.frames_recv, 1);
                telemetry.count(counters.bytes_recv, bytes as u64);
                if !deliver(msg) {
                    return;
                }
            }
            Ok(None) => return,
            Err(_) => {
                telemetry.count("net.recv_errors", 1);
                return;
            }
        }
    }
}

/// Handle one freshly accepted connection: classify by its `Hello`,
/// register it, and pump its frames into the protocol thread. The writer
/// ends once every [`Outbox`] of the connection is gone: for a control
/// connection after the last reply, for a data connection when the
/// protocol thread handles its `PeerDown` — which is therefore sent
/// before the writer is joined.
fn serve_conn(
    stream: TcpStream,
    genesis_id: u64,
    token: u64,
    events: Sender<Event>,
    telemetry: lt_telemetry::Telemetry,
) {
    let write_half = stream.try_clone().expect("clone accepted socket");
    // ONE buffered reader for the connection's whole life: bytes past the
    // Hello may already sit in its buffer.
    let mut r = BufReader::new(stream);
    let (hello, hello_bytes) = match read_frame(&mut r) {
        Ok(Some((WireMsg::Hello { peer, genesis }, bytes))) => {
            if genesis != genesis_id {
                // refuse to gossip across different ledgers
                return;
            }
            (peer, bytes)
        }
        _ => return,
    };
    let counters = if hello == CONTROL_PEER {
        CTL_COUNTERS
    } else {
        DATA_COUNTERS
    };
    telemetry.count(counters.frames_recv, 1);
    telemetry.count(counters.bytes_recv, hello_bytes as u64);
    let (outbox, rx) = mpsc::channel();
    let writer = spawn_writer(write_half, rx, telemetry.clone(), counters);
    if hello == CONTROL_PEER {
        read_loop(&mut r, &telemetry, counters, |msg| {
            events
                .send(Event::Control {
                    reply: outbox.clone(),
                    msg,
                })
                .is_ok()
        });
        drop(outbox);
    } else {
        let peer = hello as usize;
        if events
            .send(Event::PeerUp {
                peer,
                token,
                outbox,
            })
            .is_err()
        {
            return;
        }
        read_loop(&mut r, &telemetry, counters, |msg| {
            events.send(Event::Peer { from: peer, msg }).is_ok()
        });
        let _ = events.send(Event::PeerDown { peer, token });
    }
    let _ = writer.join();
}

/// Everything a dialer thread needs to know about one outgoing link.
struct Dial {
    self_id: usize,
    peer: usize,
    addr: String,
    genesis_id: u64,
    token_base: u64,
    /// Experiment seed; each dialer derives its own jitter stream.
    seed: u64,
}

/// Reconnect backoff floor, in milliseconds.
pub(crate) const BACKOFF_BASE_MS: u64 = 25;
/// Reconnect backoff ceiling, in milliseconds.
pub(crate) const BACKOFF_CAP_MS: u64 = 1600;

/// Decorrelated-jitter reconnect backoff: the next sleep is drawn
/// uniformly from `[base, min(cap, prev * 3)]`. Expected growth stays
/// exponential, but dialers that watched the same partition heal wake
/// at *different* times — pure exponential backoff (the previous
/// scheme) synchronizes every dialer in the cluster onto the same
/// schedule and slams a healed peer with a thundering herd of
/// simultaneous redials.
pub(crate) fn decorrelated_backoff(prev_ms: u64, rng: &mut Rng) -> u64 {
    let hi = prev_ms
        .saturating_mul(3)
        .clamp(BACKOFF_BASE_MS, BACKOFF_CAP_MS);
    rng.random_range(BACKOFF_BASE_MS..=hi)
}

/// Keep the outgoing connection to `peer` alive: dial, handshake,
/// register, pump inbound frames, then report `PeerDown` and join the
/// writer (which ends once the protocol thread drops the connection's
/// [`Outbox`]); on failure back off with decorrelated jitter and redial
/// (counted under `net.reconnects`). Gives up once the protocol thread
/// is gone.
fn dial_loop(dial: Dial, events: Sender<Event>, telemetry: lt_telemetry::Telemetry) {
    let Dial {
        self_id,
        peer,
        addr,
        genesis_id,
        token_base,
        seed,
    } = dial;
    let link = ((self_id as u64) << 32) | peer as u64;
    let mut rng = seeded(derive(derive(seed, 0x0BAC_00FF), link));
    let mut backoff_ms = BACKOFF_BASE_MS;
    let mut conn_seq: u64 = 0;
    loop {
        if let Ok(stream) = TcpStream::connect(&addr) {
            let _ = stream.set_nodelay(true);
            let hello = crate::frame::encode_frame(&WireMsg::Hello {
                peer: self_id as u64,
                genesis: genesis_id,
            });
            let mut write_half = stream.try_clone().expect("clone dialed socket");
            if write_half.write_all(&hello).is_ok() {
                telemetry.count("net.frames_sent", 1);
                telemetry.count("net.bytes_sent", hello.len() as u64);
                backoff_ms = BACKOFF_BASE_MS;
                conn_seq += 1;
                // distinct odd token per connection incarnation
                let token = token_base + (conn_seq << 32);
                let (outbox, rx) = mpsc::channel();
                let writer = spawn_writer(write_half, rx, telemetry.clone(), DATA_COUNTERS);
                if events
                    .send(Event::PeerUp {
                        peer,
                        token,
                        outbox,
                    })
                    .is_err()
                {
                    return;
                }
                let mut r = BufReader::new(stream);
                read_loop(&mut r, &telemetry, DATA_COUNTERS, |msg| {
                    events.send(Event::Peer { from: peer, msg }).is_ok()
                });
                let down = events.send(Event::PeerDown { peer, token });
                let _ = writer.join();
                if down.is_err() {
                    return;
                }
            }
        }
        // the connection failed or died: reconnect with backoff
        telemetry.count("net.reconnects", 1);
        backoff_ms = decorrelated_backoff(backoff_ms, &mut rng);
        std::thread::sleep(Duration::from_millis(backoff_ms));
        // cheap liveness probe: a detach for a token that was never
        // attached is a no-op, but a closed channel ends the dialer
        if events
            .send(Event::PeerDown {
                peer,
                token: token_base,
            })
            .is_err()
        {
            return;
        }
    }
}

/// Per-daemon training state: the full (deterministically regenerated)
/// node population, of which this daemon trains as node `id`.
struct Learner {
    nodes: Vec<Node>,
    cache: AnalysisCache,
    /// [`Preset::build`]'s architecture, shared by every evaluation and
    /// training step.
    model: tinynn::Sequential,
    cfg: SimConfig,
    last_slot: u64,
}

/// Run the daemon until a `Shutdown` control frame arrives. Blocks the
/// calling thread; this is the whole life of an `lt-node` process.
pub fn run_daemon(cfg: DaemonConfig) -> std::io::Result<()> {
    assert!(cfg.id < cfg.nodes, "daemon id out of range");
    let preset = Preset {
        nodes: cfg.nodes,
        seed: cfg.seed,
    };
    let genesis = preset.genesis();
    let genesis_id = genesis.content_id().0;
    let telemetry = lt_telemetry::Telemetry::new(lt_telemetry::MemorySink::new());

    let mut restored_slot = 0u64;
    let mut proto = NodeProtocol::new(cfg.id, &genesis, 0, ORPHAN_CAP);
    if cfg.restore {
        if let Some(path) = cfg.checkpoint.as_deref() {
            match load_checkpoint(path, cfg.id, &genesis) {
                Ok((peer, slot)) => {
                    telemetry.count("net.restores", 1);
                    telemetry.count("net.restored_len", peer.len() as u64);
                    restored_slot = slot;
                    proto = NodeProtocol::from_peer(peer);
                }
                Err(_) => {
                    // fail open: start from genesis, let repair refill
                    telemetry.count("net.restore_failed", 1);
                }
            }
        }
    }
    proto.set_telemetry(telemetry.clone());
    proto.set_repair(Preset::repair_cfg());
    let mut learner = Learner {
        nodes: preset.population(),
        cache: AnalysisCache::new(proto.peer().replica()),
        model: Preset::build(),
        cfg: preset.sim_cfg(),
        last_slot: restored_slot,
    };
    let mut router = Router::new(telemetry.clone());

    let listener = TcpListener::bind(&cfg.listen)?;
    let addr = listener.local_addr()?;
    // the spawn contract: the driver parses this line for the port
    println!("LISTEN {addr}");
    std::io::stdout().flush()?;

    let (events_tx, events_rx): (Sender<Event>, Receiver<Event>) = mpsc::channel();
    {
        let tx = events_tx.clone();
        let tel = telemetry.clone();
        std::thread::spawn(move || {
            for (i, stream) in listener.incoming().enumerate() {
                let Ok(stream) = stream else { continue };
                let _ = stream.set_nodelay(true);
                let tx = tx.clone();
                let tel = tel.clone();
                // even tokens for accepted connections, odd for dialed
                let token = (i as u64) << 1;
                std::thread::spawn(move || serve_conn(stream, genesis_id, token, tx, tel));
            }
        });
    }

    let start = Instant::now();
    let now_ms = |start: &Instant| start.elapsed().as_millis() as u64;
    let now_us = |start: &Instant| start.elapsed().as_micros() as u64;
    let mut dialed: HashMap<usize, String> = HashMap::new();
    let mut dial_tokens: u64 = 1;
    let mut next_ping = u64::MAX;
    let mut ping_nonce: u64 = 0;
    let ckpt_every = match &cfg.checkpoint {
        Some(_) if cfg.checkpoint_every_ms > 0 => cfg.checkpoint_every_ms,
        _ => 0,
    };
    let mut next_ckpt = if ckpt_every > 0 { ckpt_every } else { u64::MAX };
    // (len, last_slot) at the last write: skip checkpoints with no news
    let mut ckpt_state = (proto.peer().len(), restored_slot);

    loop {
        let now = now_ms(&start);
        let mut deadline = now + 50;
        if let Some(wake) = proto.next_wake() {
            deadline = deadline.min(wake.max(now));
        }
        deadline = deadline.min(next_ping.max(now));
        deadline = deadline.min(next_ckpt.max(now));
        let event = match events_rx.recv_timeout(Duration::from_millis(deadline - now)) {
            Ok(ev) => Some(ev),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        let now = now_ms(&start);
        proto.set_now(now);

        match event {
            Some(Event::PeerUp {
                peer,
                token,
                outbox,
            }) => {
                router.attach(peer, token, outbox);
                proto.set_neighbours(router.peer_ids());
                proto.on_link_up(peer, &mut router);
                if cfg.ping_interval_ms > 0 && next_ping == u64::MAX {
                    next_ping = now + cfg.ping_interval_ms;
                }
            }
            Some(Event::PeerDown { peer, token }) => {
                router.detach(peer, token);
                proto.set_neighbours(router.peer_ids());
            }
            Some(Event::Peer { from, msg }) => match msg {
                WireMsg::Ping { nonce, sent_us } => {
                    router.send_wire(from, &WireMsg::Pong { nonce, sent_us });
                }
                WireMsg::Pong { sent_us, .. } => {
                    telemetry.record("net.rtt_us", now_us(&start).saturating_sub(sent_us));
                }
                other => {
                    if let Some(pm) = other.into_protocol() {
                        proto.on_message(from, pm, &mut router);
                    }
                }
            },
            Some(Event::Control { reply, msg }) => {
                let quit = handle_control(
                    &msg,
                    &reply,
                    &mut proto,
                    &mut learner,
                    &mut router,
                    &telemetry,
                    &cfg,
                    genesis_id,
                    &mut dialed,
                    &mut dial_tokens,
                    &events_tx,
                );
                if quit {
                    if let Some(path) = cfg.checkpoint.as_deref() {
                        save_checkpoint(path, &proto, learner.last_slot, &telemetry);
                    }
                    break;
                }
            }
            None => {}
        }

        let now = now_ms(&start);
        if proto.next_wake().is_some_and(|wake| wake <= now) {
            proto.tick(now, &mut router);
        }
        if cfg.ping_interval_ms > 0 && now >= next_ping && !router.is_empty() {
            ping_nonce += 1;
            let ping = WireMsg::Ping {
                nonce: ping_nonce,
                sent_us: now_us(&start),
            };
            for id in router.peer_ids() {
                router.send_wire(id, &ping);
            }
            next_ping = now + cfg.ping_interval_ms;
        }
        if ckpt_every > 0 && now >= next_ckpt {
            let state = (proto.peer().len(), learner.last_slot);
            if state != ckpt_state {
                let path = cfg.checkpoint.as_deref().expect("ckpt_every implies path");
                if save_checkpoint(path, &proto, learner.last_slot, &telemetry) {
                    ckpt_state = state;
                }
            }
            next_ckpt = now + ckpt_every;
        }
    }
    Ok(())
}

/// Persist the current replica; `true` on success. Failures are
/// counted, not fatal: a daemon that cannot checkpoint still gossips,
/// it just restores from an older prefix after a crash.
fn save_checkpoint(
    path: &Path,
    proto: &NodeProtocol,
    last_slot: u64,
    telemetry: &lt_telemetry::Telemetry,
) -> bool {
    let bytes = daemon_checkpoint_bytes(proto.peer(), last_slot);
    match write_checkpoint_atomic(path, &bytes) {
        Ok(()) => {
            telemetry.count("net.checkpoints", 1);
            true
        }
        Err(_) => {
            telemetry.count("net.checkpoint_errors", 1);
            false
        }
    }
}

/// Handle one control-plane request; `true` means shut down.
#[allow(clippy::too_many_arguments)]
fn handle_control(
    msg: &WireMsg,
    reply: &Outbox,
    proto: &mut NodeProtocol,
    learner: &mut Learner,
    router: &mut Router,
    telemetry: &lt_telemetry::Telemetry,
    cfg: &DaemonConfig,
    genesis_id: u64,
    dialed: &mut HashMap<usize, String>,
    dial_tokens: &mut u64,
    events_tx: &Sender<Event>,
) -> bool {
    let respond = |m: &WireMsg| {
        if reply.send(crate::frame::encode_frame(m)).is_err() {
            telemetry.count("net.ctl_conn_lost", 1);
        }
    };
    match msg {
        WireMsg::Activate { slot } => {
            let outcome = {
                let _span = telemetry.span("net.activate_us");
                train_step(
                    proto.peer().replica(),
                    &mut learner.cache,
                    &learner.nodes[proto.id()],
                    proto.id(),
                    *slot,
                    &learner.model,
                    &learner.cfg,
                    telemetry,
                )
            };
            let published = match outcome.publish {
                Some(p) => {
                    let parents = p
                        .parents
                        .iter()
                        .map(|id| proto.peer().content_id_of(*id))
                        .collect();
                    let msg = TxMessage::create(&p.params, parents, proto.id() as u64, *slot, 0);
                    proto.publish(msg, router);
                    telemetry.count("net.published", 1);
                    true
                }
                None => {
                    telemetry.count("net.discarded", 1);
                    false
                }
            };
            learner.last_slot = *slot;
            respond(&WireMsg::Activated {
                slot: *slot,
                published,
                len: proto.peer().len() as u32,
            });
        }
        WireMsg::StatusReq => {
            respond(&WireMsg::Status(StatusReport {
                len: proto.peer().len() as u32,
                orphans: proto.peer().orphan_count() as u32,
                missing: proto.waiting_for() as u32,
                connected: router.len() as u32,
                last_slot: learner.last_slot,
            }));
        }
        WireMsg::ArchiveReq => {
            respond(&WireMsg::Archive(proto.peer().export_messages()));
        }
        WireMsg::EvalReq { eval_seed, .. } => {
            let (loss, acc) = consensus_eval(
                proto.peer().replica(),
                &learner.cache,
                &learner.nodes,
                &learner.model,
                &learner.cfg,
                *eval_seed,
            );
            respond(&WireMsg::Eval {
                loss_bits: loss.to_bits(),
                acc_bits: acc.to_bits(),
            });
        }
        WireMsg::MetricsReq => {
            let (counters, histograms) = match telemetry.metrics_snapshot() {
                Some(snap) => (
                    snap.counters.into_iter().collect(),
                    snap.histograms
                        .into_iter()
                        .map(|(name, h)| (name, h.count, h.sum))
                        .collect(),
                ),
                None => (Vec::new(), Vec::new()),
            };
            respond(&WireMsg::Metrics {
                counters,
                histograms,
            });
        }
        WireMsg::Connect { peers } => {
            // dial every higher-id peer (one socket per unordered pair)
            for (pid, addr) in peers {
                let pid = *pid as usize;
                if pid <= cfg.id || pid >= cfg.nodes || dialed.contains_key(&pid) {
                    continue;
                }
                dialed.insert(pid, addr.clone());
                *dial_tokens += 2; // odd tokens for dialed connections
                let token_base = *dial_tokens | 1;
                let tx = events_tx.clone();
                let tel = telemetry.clone();
                let dial = Dial {
                    self_id: cfg.id,
                    peer: pid,
                    addr: addr.clone(),
                    genesis_id,
                    token_base,
                    seed: cfg.seed,
                };
                std::thread::spawn(move || dial_loop(dial, tx, tel));
            }
        }
        WireMsg::Ping { nonce, sent_us } => {
            respond(&WireMsg::Pong {
                nonce: *nonce,
                sent_us: *sent_us,
            });
        }
        WireMsg::Shutdown => return true,
        _ => {}
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decorrelated_backoff_stays_in_bounds_and_decorrelates() {
        let mut rng = seeded(7);
        let mut prev = BACKOFF_BASE_MS;
        for _ in 0..200 {
            let next = decorrelated_backoff(prev, &mut rng);
            assert!((BACKOFF_BASE_MS..=BACKOFF_CAP_MS).contains(&next));
            assert!(next <= prev.saturating_mul(3).max(BACKOFF_BASE_MS));
            prev = next;
        }
        // two dialers over the same link seed draw identical streams...
        let mut a = seeded(derive(derive(1, 0x0BAC_00FF), 5));
        let mut b = seeded(derive(derive(1, 0x0BAC_00FF), 5));
        assert_eq!(
            decorrelated_backoff(400, &mut a),
            decorrelated_backoff(400, &mut b)
        );
        // ...but different links desynchronize (the thundering-herd fix)
        let mut c = seeded(derive(derive(1, 0x0BAC_00FF), 6));
        let xs: Vec<u64> = (0..8).map(|_| decorrelated_backoff(400, &mut a)).collect();
        let ys: Vec<u64> = (0..8).map(|_| decorrelated_backoff(400, &mut c)).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn daemon_checkpoint_roundtrips_and_rejects_damage() {
        let preset = Preset { nodes: 3, seed: 9 };
        let genesis = preset.genesis();
        let peer = Peer::new(1, &genesis, 0).with_orphan_cap(ORPHAN_CAP);
        let bytes = daemon_checkpoint_bytes(&peer, 42);
        let (back, slot) = decode_daemon_checkpoint(1, &bytes, 0, ORPHAN_CAP).unwrap();
        assert_eq!(slot, 42);
        assert_eq!(back.len(), peer.len());
        assert_eq!(back.content_id_of(TxId(0)), genesis.content_id());
        // any truncation fails closed
        for cut in [0, 1, 4, 12, bytes.len() - 1] {
            assert!(decode_daemon_checkpoint(1, &bytes[..cut], 0, ORPHAN_CAP).is_err());
        }
        // any single bit flip fails the whole-file checksum (or a
        // deeper validation layer)
        for pos in [0, 4, 5, 9, 16, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            assert!(decode_daemon_checkpoint(1, &bad, 0, ORPHAN_CAP).is_err());
        }
    }

    #[test]
    fn load_checkpoint_rejects_foreign_genesis() {
        let dir = std::env::temp_dir().join(format!("ltnd-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.ltnd");
        let preset = Preset { nodes: 3, seed: 9 };
        // the preset genesis is seed-invariant, so a truly foreign
        // ledger needs a different genesis nonce
        let foreign = TxMessage::create(
            &tinynn::ParamVec::from_model(&Preset::build()),
            vec![],
            u64::MAX,
            0,
            1,
        );
        assert_ne!(foreign.content_id(), preset.genesis().content_id());
        let peer = Peer::new(1, &foreign, 0).with_orphan_cap(ORPHAN_CAP);
        write_checkpoint_atomic(&path, &daemon_checkpoint_bytes(&peer, 1)).unwrap();
        assert!(load_checkpoint(&path, 1, &foreign).is_ok());
        assert!(load_checkpoint(&path, 1, &preset.genesis()).is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
