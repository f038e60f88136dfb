//! Socket-level chaos engineering for `lt-net`.
//!
//! PR 2's `FaultPlan` perturbs the in-process mock network; this module
//! does the same at the stream boundary of a *real* daemon cluster. A
//! [`ChaosPlan`] is a seeded, serializable schedule of per-link faults
//! (partitions, latency/jitter, bandwidth throttling, byte corruption,
//! mid-stream resets) plus a SIGKILL/restore schedule for daemons. The
//! driver arms it by interposing one tiny TCP proxy per unordered daemon
//! pair ([`ChaosProxies`]): daemons are handed proxy addresses in their
//! `Connect` address book, so every data-plane byte crosses the injector
//! while control connections stay direct.
//!
//! The decision logic lives in [`LinkDirection`], a pure state machine
//! over `(now_ms, chunk)` that the proxy pumps consult — unit-testable
//! without sockets, and deterministic per `(plan.seed, from, to)` so the
//! same plan replays the same schedule. (Byte-level corruption draws
//! depend on how the OS chunks the stream, so corrupted *bytes* can
//! differ across replays; the fault windows, targets, and kill schedule
//! are exact.)

use rand::RngExt;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};
use tangle_gossip::{FaultPlan, Recovery};
use tinynn::rng::{derive, seeded, Rng};

/// One fault applied to a link for the duration of its window.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum LinkFault {
    /// No bytes cross the link. Bidirectional partitions sever the
    /// proxied connection and refuse redials until the window heals;
    /// unidirectional partitions stall one direction (delivery resumes
    /// at heal, exercising a writer backlog instead of the reconnect
    /// path).
    Partition,
    /// Add `ms` (+ uniform `0..=jitter_ms`) of delay to each chunk.
    Latency { ms: u64, jitter_ms: u64 },
    /// Cap throughput at `bytes_per_ms` via token-bucket delays.
    Throttle { bytes_per_ms: u64 },
    /// Flip one random bit in a byte with probability `per_byte_ppm` /
    /// 1e6 per byte. The receiver's frame checksum catches the damage,
    /// kills the connection, and forces a redial.
    Corrupt { per_byte_ppm: u32 },
    /// Sever the connection once when the window opens (a mid-stream
    /// RST), then let redials through immediately.
    Reset,
}

/// A fault scheduled on one link for `[from_ms, until_ms)`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LinkChaos {
    /// Source daemon (for unidirectional faults, the stalled direction
    /// is `a → b`).
    pub a: usize,
    /// Destination daemon.
    pub b: usize,
    /// Apply to both directions of the pair?
    pub bidirectional: bool,
    /// Window start, ms since the chaos epoch (proxy spawn).
    pub from_ms: u64,
    /// Window end (exclusive); the link heals here.
    pub until_ms: u64,
    /// What the window does to traffic.
    pub fault: LinkFault,
}

impl LinkChaos {
    fn applies(&self, from: usize, to: usize) -> bool {
        (self.a == from && self.b == to) || (self.bidirectional && self.a == to && self.b == from)
    }

    fn active(&self, now_ms: u64) -> bool {
        self.from_ms <= now_ms && now_ms < self.until_ms
    }
}

/// One scheduled SIGKILL (and restore) of a daemon, executed by the
/// driver's supervisor — the daemon is killed hard, never gracefully.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct KillEvent {
    /// Daemon to kill.
    pub daemon: usize,
    /// Kill time, ms since the chaos epoch.
    pub at_ms: u64,
    /// Respawn time (same listen address, `--restore`).
    pub restore_at_ms: u64,
    /// Restart from checkpoint or from genesis (both must reconverge;
    /// `FromCheckpoint` additionally exercises the LTCP restore path).
    pub recovery: Recovery,
}

/// A deterministic, replayable chaos schedule for a daemon cluster —
/// the real-socket analogue of [`tangle_gossip::FaultPlan`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChaosPlan {
    /// Seed for per-link fault RNGs (jitter draws, corruption draws).
    pub seed: u64,
    /// Scheduled link faults.
    pub links: Vec<LinkChaos>,
    /// Scheduled daemon kills.
    pub kills: Vec<KillEvent>,
}

impl ChaosPlan {
    /// A plan that does nothing — running under it is equivalent to
    /// running without proxies (modulo one extra localhost hop).
    #[cfg(test)]
    fn benign(seed: u64) -> Self {
        Self {
            seed,
            links: Vec::new(),
            kills: Vec::new(),
        }
    }

    pub fn is_benign(&self) -> bool {
        self.links.is_empty() && self.kills.is_empty()
    }

    /// Sanity-check a plan against a cluster size before arming it.
    pub fn validate(&self, nodes: usize) -> Result<(), String> {
        for l in &self.links {
            if l.a >= nodes || l.b >= nodes {
                return Err(format!(
                    "link {}→{} out of range for {nodes} nodes",
                    l.a, l.b
                ));
            }
            if l.a == l.b {
                return Err(format!("self-link {} is not a link", l.a));
            }
            if l.from_ms >= l.until_ms {
                return Err(format!("empty window [{}, {})", l.from_ms, l.until_ms));
            }
        }
        for k in &self.kills {
            if k.daemon >= nodes {
                return Err(format!("kill of daemon {} out of range", k.daemon));
            }
            if k.daemon == 0 {
                return Err("daemon 0 is the stable observer; never kill it".into());
            }
            if k.restore_at_ms <= k.at_ms {
                return Err(format!(
                    "kill at {} restores at {}",
                    k.at_ms, k.restore_at_ms
                ));
            }
        }
        Ok(())
    }

    /// Build a rolling chaos schedule for an `nodes`-daemon soak of
    /// `horizon_ms`: back-to-back link-fault windows cycling through the
    /// fault catalog on deterministically drawn pairs, plus a
    /// churn-derived kill schedule (reusing [`FaultPlan::churn`] so the
    /// mock and socket harnesses agree on what "churn" means). The last
    /// fifth of the horizon is left fault-free so the cluster has
    /// headroom to reconverge before the final audit.
    pub fn rolling(nodes: usize, horizon_ms: u64, seed: u64) -> Self {
        assert!(nodes >= 2, "chaos needs at least two daemons");
        let mut rng = seeded(derive(seed, 0xC7A0_5C7A));
        let active_until = horizon_ms - horizon_ms / 5;
        let mut links = Vec::new();
        let mut t = 500u64; // let the mesh come up first
        let mut k = 0usize;
        while t + 800 <= active_until {
            let len = rng.random_range(600..=1400u64).min(active_until - t);
            let a = rng.random_range(0..nodes);
            let mut b = rng.random_range(0..nodes - 1);
            if b >= a {
                b += 1;
            }
            let fault = match k % 5 {
                0 | 1 => LinkFault::Partition,
                2 => LinkFault::Latency {
                    ms: rng.random_range(5..=25u64),
                    jitter_ms: rng.random_range(0..=10u64),
                },
                3 => LinkFault::Corrupt { per_byte_ppm: 200 },
                _ => LinkFault::Reset,
            };
            links.push(LinkChaos {
                a,
                b,
                bidirectional: k.is_multiple_of(5),
                from_ms: t,
                until_ms: t + len,
                fault,
            });
            t += len + rng.random_range(200..=600u64);
            k += 1;
        }
        let cycles = ((active_until / 5000) as usize).max(1);
        let churn = FaultPlan::churn(nodes, cycles, active_until, 900, derive(seed, 0x0517));
        let kills = churn
            .crashes
            .iter()
            .map(|c| {
                let at_ms = c.at.max(1000);
                KillEvent {
                    daemon: c.peer,
                    at_ms,
                    restore_at_ms: c.restart_at.unwrap_or(c.at + 900).max(at_ms + 500),
                    recovery: c.recovery,
                }
            })
            .collect();
        Self { seed, links, kills }
    }

    /// Serialize for replay (`results/soak.json` embeds this).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("ChaosPlan is always serializable")
    }

    /// Parse a plan previously emitted by [`ChaosPlan::to_json`].
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| format!("bad ChaosPlan JSON: {e:?}"))
    }
}

/// What the injector decided for a chunk (or for an idle poll).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ChaosAction {
    /// Deliver after `delay_ms` (0 = immediately).
    Forward { delay_ms: u64 },
    /// Stall delivery until the window heals at `until_ms`.
    Hold { until_ms: u64 },
    /// Tear the connection down (both half-streams).
    Sever,
}

/// The pure per-direction fault state machine. One instance per directed
/// link `(from → to)`; the proxy pumps feed it wall-clock-relative
/// `now_ms` and mutable chunks, and obey the returned [`ChaosAction`].
pub(crate) struct LinkDirection {
    faults: Vec<LinkChaos>,
    /// Reset windows fire exactly once; parallel to `faults`.
    fired: Vec<bool>,
    /// Token-bucket state per throttle window: bytes already forwarded.
    throttled: HashMap<usize, u64>,
    rng: Rng,
}

impl LinkDirection {
    pub(crate) fn new(plan: &ChaosPlan, from: usize, to: usize) -> Self {
        let faults: Vec<LinkChaos> = plan
            .links
            .iter()
            .filter(|l| l.applies(from, to))
            .copied()
            .collect();
        let fired = vec![false; faults.len()];
        let salt = 0xD12E_C700u64 ^ ((from as u64) << 32) ^ to as u64;
        Self {
            faults,
            fired,
            throttled: HashMap::new(),
            rng: seeded(derive(plan.seed, salt)),
        }
    }

    /// Faults that act even on an idle link: bidirectional partitions
    /// sever standing connections, resets fire once when their window
    /// opens. Pumps call this on every poll so a partition takes effect
    /// without waiting for traffic.
    pub(crate) fn idle_action(&mut self, now_ms: u64) -> ChaosAction {
        for i in 0..self.faults.len() {
            let f = self.faults[i];
            if !f.active(now_ms) {
                continue;
            }
            match f.fault {
                LinkFault::Partition if f.bidirectional => return ChaosAction::Sever,
                LinkFault::Reset if !self.fired[i] => {
                    self.fired[i] = true;
                    return ChaosAction::Sever;
                }
                _ => {}
            }
        }
        ChaosAction::Forward { delay_ms: 0 }
    }

    /// Decide the fate of `chunk` read off the wire at `now_ms`. May
    /// mutate the chunk (corruption). Overlapping windows compose:
    /// sever wins, then stall, then latency/throttle delays add up.
    pub(crate) fn on_chunk(&mut self, now_ms: u64, chunk: &mut [u8]) -> ChaosAction {
        if self.idle_action(now_ms) == ChaosAction::Sever {
            return ChaosAction::Sever;
        }
        let mut hold_until: Option<u64> = None;
        let mut delay = 0u64;
        for i in 0..self.faults.len() {
            let f = self.faults[i];
            if !f.active(now_ms) {
                continue;
            }
            match f.fault {
                // bidirectional partitions already severed above
                LinkFault::Partition => {
                    hold_until = Some(hold_until.map_or(f.until_ms, |u| u.max(f.until_ms)));
                }
                LinkFault::Latency { ms, jitter_ms } => {
                    delay += ms;
                    if jitter_ms > 0 {
                        delay += self.rng.random_range(0..=jitter_ms);
                    }
                }
                LinkFault::Throttle { bytes_per_ms } => {
                    let rate = bytes_per_ms.max(1);
                    let sent = self.throttled.entry(i).or_insert(0);
                    *sent += chunk.len() as u64;
                    let budget = (now_ms - f.from_ms + 1) * rate;
                    if *sent > budget {
                        delay += (*sent - budget) / rate;
                    }
                }
                LinkFault::Corrupt { per_byte_ppm } => {
                    for byte in chunk.iter_mut() {
                        if self.rng.random_range(0..1_000_000u32) < per_byte_ppm {
                            *byte ^= 1 << self.rng.random_range(0..8u32);
                        }
                    }
                }
                LinkFault::Reset => {}
            }
        }
        if let Some(until_ms) = hold_until {
            return ChaosAction::Hold { until_ms };
        }
        ChaosAction::Forward { delay_ms: delay }
    }

    /// Should a fresh dial across this link be refused right now? Only
    /// bidirectional partitions refuse dials — everything else lets the
    /// connection form and perturbs the stream instead.
    pub(crate) fn refuse_dial(&self, now_ms: u64) -> bool {
        self.faults
            .iter()
            .any(|f| f.bidirectional && f.active(now_ms) && f.fault == LinkFault::Partition)
    }
}

/// One chaos proxy per unordered daemon pair. Daemon `i` dials daemon
/// `j > i` through `addr_for(i, j)`; both directions of the proxied
/// stream pass through their [`LinkDirection`] injectors.
pub(crate) struct ChaosProxies {
    addrs: HashMap<(usize, usize), String>,
    stop: Arc<AtomicBool>,
    acceptors: Vec<JoinHandle<()>>,
}

impl ChaosProxies {
    /// Bind one proxy listener per pair `(i, j<i..)`, forwarding to
    /// `real_addrs[j]`. `epoch` anchors the plan's ms clock.
    pub(crate) fn spawn(
        plan: &ChaosPlan,
        epoch: Instant,
        real_addrs: &[String],
    ) -> io::Result<Self> {
        let n = real_addrs.len();
        let stop = Arc::new(AtomicBool::new(false));
        let mut addrs = HashMap::new();
        let mut acceptors = Vec::new();
        for i in 0..n {
            for (j, real) in real_addrs.iter().enumerate().skip(i + 1) {
                let listener = TcpListener::bind("127.0.0.1:0")?;
                listener.set_nonblocking(true)?;
                addrs.insert((i, j), listener.local_addr()?.to_string());
                let fwd = Arc::new(Mutex::new(LinkDirection::new(plan, i, j)));
                let rev = Arc::new(Mutex::new(LinkDirection::new(plan, j, i)));
                let target = real.clone();
                let stop = Arc::clone(&stop);
                acceptors.push(thread::spawn(move || {
                    accept_loop(listener, target, fwd, rev, epoch, stop)
                }));
            }
        }
        Ok(Self {
            addrs,
            stop,
            acceptors,
        })
    }

    /// The address daemon `dialer` should use to reach `target`
    /// (daemons only dial upward, so `dialer < target`).
    pub(crate) fn addr_for(&self, dialer: usize, target: usize) -> Option<&String> {
        self.addrs.get(&(dialer, target))
    }

    /// Stop accepting and tear down all pump threads.
    pub(crate) fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        for h in self.acceptors {
            let _ = h.join();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    target: String,
    fwd: Arc<Mutex<LinkDirection>>,
    rev: Arc<Mutex<LinkDirection>>,
    epoch: Instant,
    stop: Arc<AtomicBool>,
) {
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((client, _)) => {
                let now = epoch.elapsed().as_millis() as u64;
                if fwd.lock().unwrap().refuse_dial(now) {
                    // refuse-by-close: the dialer sees a dead link and
                    // backs off, exactly like a blackholed route
                    drop(client);
                    continue;
                }
                match TcpStream::connect(&target) {
                    Ok(server) => {
                        let (Ok(c2), Ok(s2)) = (client.try_clone(), server.try_clone()) else {
                            continue;
                        };
                        let (f, r) = (Arc::clone(&fwd), Arc::clone(&rev));
                        let (st1, st2) = (Arc::clone(&stop), Arc::clone(&stop));
                        thread::spawn(move || pump(client, server, f, epoch, st1));
                        thread::spawn(move || pump(s2, c2, r, epoch, st2));
                    }
                    Err(_) => drop(client), // target down: refuse the dial
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => return,
        }
    }
}

/// Copy `src → dst` through the injector. Short read timeouts keep the
/// pump polling `idle_action` so partitions sever even silent links.
fn pump(
    mut src: TcpStream,
    mut dst: TcpStream,
    dir: Arc<Mutex<LinkDirection>>,
    epoch: Instant,
    stop: Arc<AtomicBool>,
) {
    let _ = src.set_read_timeout(Some(Duration::from_millis(20)));
    let sever = |src: &TcpStream, dst: &TcpStream| {
        let _ = src.shutdown(Shutdown::Both);
        let _ = dst.shutdown(Shutdown::Both);
    };
    let mut buf = [0u8; 4096];
    loop {
        if stop.load(Ordering::SeqCst) {
            sever(&src, &dst);
            return;
        }
        let now = epoch.elapsed().as_millis() as u64;
        if dir.lock().unwrap().idle_action(now) == ChaosAction::Sever {
            sever(&src, &dst);
            return;
        }
        match src.read(&mut buf) {
            Ok(0) => {
                sever(&src, &dst);
                return;
            }
            Ok(n) => {
                let now = epoch.elapsed().as_millis() as u64;
                let action = dir.lock().unwrap().on_chunk(now, &mut buf[..n]);
                match action {
                    ChaosAction::Forward { delay_ms } => {
                        if delay_ms > 0 {
                            thread::sleep(Duration::from_millis(delay_ms.min(250)));
                        }
                        if dst.write_all(&buf[..n]).is_err() {
                            sever(&src, &dst);
                            return;
                        }
                    }
                    ChaosAction::Hold { until_ms } => {
                        // stall, but keep checking for sever/stop so a
                        // partition upgrade still tears the link down
                        loop {
                            let now = epoch.elapsed().as_millis() as u64;
                            if now >= until_ms {
                                break;
                            }
                            if stop.load(Ordering::SeqCst)
                                || dir.lock().unwrap().idle_action(now) == ChaosAction::Sever
                            {
                                sever(&src, &dst);
                                return;
                            }
                            thread::sleep(Duration::from_millis(20));
                        }
                        if dst.write_all(&buf[..n]).is_err() {
                            sever(&src, &dst);
                            return;
                        }
                    }
                    ChaosAction::Sever => {
                        sever(&src, &dst);
                        return;
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(_) => {
                sever(&src, &dst);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan_with(links: Vec<LinkChaos>) -> ChaosPlan {
        ChaosPlan {
            seed: 7,
            links,
            kills: Vec::new(),
        }
    }

    #[test]
    fn benign_plan_forwards_everything() {
        let plan = ChaosPlan::benign(1);
        assert!(plan.is_benign());
        let mut d = LinkDirection::new(&plan, 0, 1);
        let mut chunk = [1u8, 2, 3];
        for now in [0, 100, 10_000] {
            assert_eq!(d.idle_action(now), ChaosAction::Forward { delay_ms: 0 });
            assert_eq!(
                d.on_chunk(now, &mut chunk),
                ChaosAction::Forward { delay_ms: 0 }
            );
        }
        assert_eq!(chunk, [1, 2, 3]);
        assert!(!d.refuse_dial(0));
    }

    #[test]
    fn bidirectional_partition_severs_both_ways_and_refuses_dials() {
        let plan = plan_with(vec![LinkChaos {
            a: 0,
            b: 1,
            bidirectional: true,
            from_ms: 100,
            until_ms: 200,
            fault: LinkFault::Partition,
        }]);
        for (from, to) in [(0, 1), (1, 0)] {
            let mut d = LinkDirection::new(&plan, from, to);
            assert_eq!(d.idle_action(50), ChaosAction::Forward { delay_ms: 0 });
            assert_eq!(d.idle_action(100), ChaosAction::Sever);
            assert_eq!(d.idle_action(199), ChaosAction::Sever);
            assert_eq!(d.idle_action(200), ChaosAction::Forward { delay_ms: 0 });
            assert!(!d.refuse_dial(99));
            assert!(d.refuse_dial(150));
            assert!(!d.refuse_dial(200));
        }
        // an unrelated link is untouched
        let mut other = LinkDirection::new(&plan, 0, 2);
        assert_eq!(other.idle_action(150), ChaosAction::Forward { delay_ms: 0 });
    }

    #[test]
    fn unidirectional_partition_stalls_one_direction_only() {
        let plan = plan_with(vec![LinkChaos {
            a: 0,
            b: 1,
            bidirectional: false,
            from_ms: 100,
            until_ms: 300,
            fault: LinkFault::Partition,
        }]);
        let mut fwd = LinkDirection::new(&plan, 0, 1);
        let mut rev = LinkDirection::new(&plan, 1, 0);
        let mut chunk = [0u8; 8];
        assert_eq!(
            fwd.on_chunk(150, &mut chunk),
            ChaosAction::Hold { until_ms: 300 }
        );
        // idle polls do not sever a stalled link
        assert_eq!(fwd.idle_action(150), ChaosAction::Forward { delay_ms: 0 });
        assert!(!fwd.refuse_dial(150));
        assert_eq!(
            rev.on_chunk(150, &mut chunk),
            ChaosAction::Forward { delay_ms: 0 }
        );
    }

    #[test]
    fn reset_fires_exactly_once_per_window() {
        let plan = plan_with(vec![LinkChaos {
            a: 0,
            b: 1,
            bidirectional: true,
            from_ms: 100,
            until_ms: 200,
            fault: LinkFault::Reset,
        }]);
        let mut d = LinkDirection::new(&plan, 0, 1);
        assert_eq!(d.idle_action(120), ChaosAction::Sever);
        // fired: the redial goes through for the rest of the window
        assert_eq!(d.idle_action(150), ChaosAction::Forward { delay_ms: 0 });
        let mut chunk = [0u8; 4];
        assert_eq!(
            d.on_chunk(160, &mut chunk),
            ChaosAction::Forward { delay_ms: 0 }
        );
        assert!(!d.refuse_dial(150));
    }

    #[test]
    fn latency_and_throttle_delays_accumulate() {
        let plan = plan_with(vec![
            LinkChaos {
                a: 0,
                b: 1,
                bidirectional: false,
                from_ms: 0,
                until_ms: 1000,
                fault: LinkFault::Latency {
                    ms: 10,
                    jitter_ms: 0,
                },
            },
            LinkChaos {
                a: 0,
                b: 1,
                bidirectional: false,
                from_ms: 0,
                until_ms: 1000,
                fault: LinkFault::Throttle { bytes_per_ms: 1 },
            },
        ]);
        let mut d = LinkDirection::new(&plan, 0, 1);
        let mut chunk = [0u8; 100];
        // 100 bytes at 1 byte/ms with a 1-byte budget: ~99ms throttle + 10ms latency
        match d.on_chunk(0, &mut chunk) {
            ChaosAction::Forward { delay_ms } => assert!(delay_ms >= 100, "delay {delay_ms}"),
            other => panic!("expected forward, got {other:?}"),
        }
        // jitter draws are deterministic per seed/direction
        let plan2 = plan_with(vec![LinkChaos {
            a: 0,
            b: 1,
            bidirectional: false,
            from_ms: 0,
            until_ms: 1000,
            fault: LinkFault::Latency {
                ms: 5,
                jitter_ms: 10,
            },
        }]);
        let mut x = LinkDirection::new(&plan2, 0, 1);
        let mut y = LinkDirection::new(&plan2, 0, 1);
        let mut c1 = [0u8; 4];
        let mut c2 = [0u8; 4];
        for now in 0..20 {
            assert_eq!(x.on_chunk(now, &mut c1), y.on_chunk(now, &mut c2));
        }
    }

    #[test]
    fn corruption_flips_bits_deterministically_per_seed() {
        let plan = plan_with(vec![LinkChaos {
            a: 0,
            b: 1,
            bidirectional: false,
            from_ms: 0,
            until_ms: 1000,
            fault: LinkFault::Corrupt {
                per_byte_ppm: 500_000,
            },
        }]);
        let mut d1 = LinkDirection::new(&plan, 0, 1);
        let mut d2 = LinkDirection::new(&plan, 0, 1);
        let mut a = [0u8; 256];
        let mut b = [0u8; 256];
        d1.on_chunk(10, &mut a);
        d2.on_chunk(10, &mut b);
        assert_eq!(a, b, "same seed + chunking → same flips");
        assert!(a.iter().any(|&x| x != 0), "50% ppm must flip something");
        // a different direction draws an independent stream
        let mut rev = LinkDirection::new(&plan, 1, 0);
        let mut c = [0u8; 256];
        rev.on_chunk(10, &mut c);
        assert_eq!(c, [0u8; 256], "unidirectional fault leaves reverse alone");
    }

    #[test]
    fn rolling_plan_is_deterministic_valid_and_replayable() {
        let a = ChaosPlan::rolling(4, 60_000, 42);
        let b = ChaosPlan::rolling(4, 60_000, 42);
        assert_eq!(a, b);
        assert!(!a.is_benign());
        a.validate(4).unwrap();
        assert!(!a.links.is_empty());
        assert!(!a.kills.is_empty());
        // windows stay clear of the final re-convergence headroom
        for l in &a.links {
            assert!(l.until_ms <= 48_000);
        }
        for k in &a.kills {
            assert!(k.daemon != 0, "observer daemon must survive");
            assert!(k.restore_at_ms > k.at_ms);
        }
        // JSON roundtrip reproduces the plan exactly
        let json = a.to_json();
        let back = ChaosPlan::from_json(&json).unwrap();
        assert_eq!(a, back);
        // different seed → different schedule
        let c = ChaosPlan::rolling(4, 60_000, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn validate_rejects_malformed_plans() {
        let mut p = ChaosPlan::benign(1);
        p.links.push(LinkChaos {
            a: 0,
            b: 9,
            bidirectional: false,
            from_ms: 0,
            until_ms: 10,
            fault: LinkFault::Partition,
        });
        assert!(p.validate(4).is_err());
        let mut p = ChaosPlan::benign(1);
        p.kills.push(KillEvent {
            daemon: 0,
            at_ms: 10,
            restore_at_ms: 20,
            recovery: Recovery::FromCheckpoint,
        });
        assert!(p.validate(4).is_err());
        let mut p = ChaosPlan::benign(1);
        p.links.push(LinkChaos {
            a: 1,
            b: 2,
            bidirectional: false,
            from_ms: 10,
            until_ms: 10,
            fault: LinkFault::Partition,
        });
        assert!(p.validate(4).is_err());
    }

    #[test]
    fn proxies_forward_and_partition_real_sockets() {
        use std::io::{Read as _, Write as _};
        // echo server standing in for a daemon
        let server = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr0 = "127.0.0.1:1".to_string(); // daemon 0 never dialed here
        let addr1 = server.local_addr().unwrap().to_string();
        thread::spawn(move || {
            for conn in server.incoming().flatten() {
                thread::spawn(move || {
                    let mut conn = conn;
                    let mut buf = [0u8; 64];
                    while let Ok(n) = conn.read(&mut buf) {
                        if n == 0 || conn.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        let plan = plan_with(vec![LinkChaos {
            a: 0,
            b: 1,
            bidirectional: true,
            from_ms: 400,
            until_ms: 100_000,
            fault: LinkFault::Partition,
        }]);
        let epoch = Instant::now();
        let proxies = ChaosProxies::spawn(&plan, epoch, &[addr0, addr1]).unwrap();
        let paddr = proxies.addr_for(0, 1).unwrap().clone();
        // before the window: bytes flow both ways through the proxy
        let mut c = TcpStream::connect(&paddr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        c.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        c.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        // window opens: the standing connection is severed...
        while epoch.elapsed().as_millis() < 450 {
            thread::sleep(Duration::from_millis(10));
        }
        let died = match c.read(&mut buf) {
            Ok(0) | Err(_) => true,
            Ok(_) => false,
        };
        assert!(died, "partition must sever the proxied connection");
        // ...and redials are refused (connect succeeds, then closes
        // without ever echoing)
        let mut c2 = TcpStream::connect(&paddr).unwrap();
        c2.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let _ = c2.write_all(b"ping");
        let refused = match c2.read(&mut buf) {
            Ok(0) | Err(_) => true,
            Ok(_) => false,
        };
        assert!(refused, "dials during a partition must be refused");
        proxies.shutdown();
    }
}
