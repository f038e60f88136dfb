//! Spawn and drive a cluster of local `lt-node` daemons.
//!
//! The driver is the control plane of a multi-process run: it launches
//! one daemon per peer, wires them into a full mesh via `Connect`, and
//! then drives activations over the control connections. Two modes:
//!
//! * [`Cluster::lockstep`] — one activation at a time, waiting for full
//!   convergence (equal replica lengths, no orphans, nothing missing)
//!   after each publish. Under lockstep, every replica inserts every
//!   transaction in publish order, so the run is byte-comparable with
//!   the in-process executors on the same schedule.
//! * [`Cluster::throughput`] — sustained publish traffic on a scripted
//!   slot-striped schedule, one driver thread per daemon, reporting
//!   wall-clock throughput plus the daemons' socket-level frame/byte
//!   counters and RTT histograms.
//!
//! With `ClusterOptions::chaos` set, the driver interposes one
//! `ChaosProxies` TCP proxy per daemon pair (data-plane links cross
//! the fault injector; control connections stay direct) and a
//! `Supervisor` executes the plan's kill schedule: SIGKILL on
//! schedule, respawn on the *same* listen address (surviving dialers
//! keep redialing it, so the mesh heals without re-plumbing), restoring
//! from checkpoint when the plan says so.

use crate::chaos::{ChaosPlan, ChaosProxies, KillEvent};
use crate::frame::{read_frame, write_frame, StatusReport, WireMsg, CONTROL_PEER};
use crate::preset::Preset;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use tangle_gossip::{Recovery, TxMessage};

/// One synchronous request/response control connection to a daemon.
pub struct ControlConn {
    writer: BufWriter<TcpStream>,
    reader: BufReader<TcpStream>,
}

impl ControlConn {
    /// Connect to a daemon's control plane and identify as the harness.
    pub fn connect(addr: &str, genesis_id: u64) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut conn = Self {
            writer: BufWriter::new(stream.try_clone()?),
            reader: BufReader::new(stream),
        };
        conn.send(&WireMsg::Hello {
            peer: CONTROL_PEER,
            genesis: genesis_id,
        })?;
        Ok(conn)
    }

    /// Fire-and-forget (used for `Connect` and `Shutdown`).
    pub fn send(&mut self, msg: &WireMsg) -> io::Result<()> {
        write_frame(&mut self.writer, msg)?;
        self.writer.flush()
    }

    /// Send a request and block for the daemon's next reply frame.
    pub fn request(&mut self, msg: &WireMsg) -> io::Result<WireMsg> {
        self.send(msg)?;
        match read_frame(&mut self.reader)? {
            Some((reply, _)) => Ok(reply),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the control connection",
            )),
        }
    }
}

fn bad_reply(expected: &str, got: &WireMsg) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("expected {expected} reply, got {got:?}"),
    )
}

/// Locate the `lt-node` binary: `$LT_NODE_BIN` if set, else a sibling of
/// the current executable (the cargo target directory).
pub fn default_node_bin() -> PathBuf {
    if let Ok(p) = std::env::var("LT_NODE_BIN") {
        return PathBuf::from(p);
    }
    let mut p = std::env::current_exe().unwrap_or_else(|_| PathBuf::from("lt-node"));
    p.pop();
    // integration tests live in target/debug/deps; the binary one up
    for candidate in [
        p.join("lt-node"),
        p.parent().map(|d| d.join("lt-node")).unwrap_or_default(),
    ] {
        if candidate.is_file() {
            return candidate;
        }
    }
    PathBuf::from("lt-node")
}

/// Summary of a lockstep run.
#[derive(Clone, Copy, Debug)]
pub struct LockstepReport {
    /// Activations driven.
    pub activations: usize,
    /// Activations that published.
    pub published: u64,
    /// Final replica length on every daemon (genesis included).
    pub final_len: usize,
}

/// Summary of a throughput run.
#[derive(Clone, Debug)]
pub struct ThroughputReport {
    /// Activations driven (all daemons).
    pub activations: usize,
    /// Activations that published.
    pub published: u64,
    /// Driving wall-clock.
    pub wall: Duration,
    /// Extra wall-clock spent waiting for replica convergence afterwards.
    pub drain: Duration,
    /// Final replica length on every daemon.
    pub final_len: usize,
    /// Sum of `net.frames_sent` over all daemons.
    pub frames_sent: u64,
    /// Sum of `net.bytes_sent` over all daemons.
    pub bytes_sent: u64,
    /// Sum of `net.frames_recv` over all daemons.
    pub frames_recv: u64,
    /// Sum of `net.bytes_recv` over all daemons.
    pub bytes_recv: u64,
    /// Pooled `net.rtt_us` histogram totals `(count, sum_us)`.
    pub rtt: (u64, u64),
    /// Sum of `net.conn_lost` (frames queued behind a socket that died)
    /// over all daemons.
    pub conn_lost: u64,
    /// Sum of `net.rejected` (peer down) over all daemons.
    pub rejected: u64,
}

impl ThroughputReport {
    /// Activations per second of driving wall-clock.
    pub fn activations_per_sec(&self) -> f64 {
        self.activations as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Mean measured peer-to-peer RTT, if any pings flowed.
    pub fn mean_rtt_us(&self) -> Option<f64> {
        (self.rtt.0 > 0).then(|| self.rtt.1 as f64 / self.rtt.0 as f64)
    }
}

/// Everything [`Cluster::spawn_with`] needs beyond the binary path.
#[derive(Clone, Debug)]
pub(crate) struct ClusterOptions {
    /// Daemon count (= preset population).
    pub nodes: usize,
    /// Shared experiment seed.
    pub seed: u64,
    /// Daemon liveness-ping interval (0 = off).
    pub ping_interval_ms: u64,
    /// Directory for per-daemon checkpoint files (None = no
    /// checkpoints, so kills recover empty).
    pub checkpoint_dir: Option<PathBuf>,
    /// Daemon checkpoint cadence, ms.
    pub checkpoint_every_ms: u64,
    /// Fault schedule; when set, data-plane links run through
    /// [`ChaosProxies`] and a [`Supervisor`] can execute the kills.
    pub chaos: Option<ChaosPlan>,
}

impl ClusterOptions {
    /// A healthy-network cluster of `nodes` daemons at `seed`.
    pub(crate) fn new(nodes: usize, seed: u64) -> Self {
        Self {
            nodes,
            seed,
            ping_interval_ms: 0,
            checkpoint_dir: None,
            checkpoint_every_ms: 250,
            chaos: None,
        }
    }
}

/// A running cluster of `lt-node` daemons plus control connections.
/// Slots of killed daemons hold `None` until the supervisor respawns
/// them.
pub struct Cluster {
    bin: PathBuf,
    opts: ClusterOptions,
    genesis_id: u64,
    procs: Vec<Option<Child>>,
    controls: Vec<Option<ControlConn>>,
    /// Real (post-bind) listen address per daemon; a respawn reuses it.
    addrs: Vec<String>,
    /// The chaos clock's zero point.
    epoch: Instant,
    proxies: Option<ChaosProxies>,
}

impl Cluster {
    /// Spawn `nodes` daemons of the `(nodes, seed)` preset from `bin`,
    /// wire them into a full mesh, and wait until every daemon reports
    /// all its data connections up.
    pub fn spawn(bin: &Path, nodes: usize, seed: u64, ping_interval_ms: u64) -> io::Result<Self> {
        let mut opts = ClusterOptions::new(nodes, seed);
        opts.ping_interval_ms = ping_interval_ms;
        Self::spawn_with(bin, opts)
    }

    /// [`Cluster::spawn`] with full options: checkpoints, ping interval,
    /// and an armed chaos plan.
    pub(crate) fn spawn_with(bin: &Path, opts: ClusterOptions) -> io::Result<Self> {
        if let Some(plan) = &opts.chaos {
            plan.validate(opts.nodes)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        }
        let preset = Preset {
            nodes: opts.nodes,
            seed: opts.seed,
        };
        let genesis_id = preset.genesis().content_id().0;
        let mut cluster = Self {
            bin: bin.to_path_buf(),
            genesis_id,
            procs: Vec::with_capacity(opts.nodes),
            controls: Vec::with_capacity(opts.nodes),
            addrs: Vec::with_capacity(opts.nodes),
            epoch: Instant::now(),
            proxies: None,
            opts,
        };
        for id in 0..cluster.opts.nodes {
            let (child, addr) = cluster.spawn_daemon(id, "127.0.0.1:0", false)?;
            cluster.procs.push(Some(child));
            cluster.addrs.push(addr);
        }
        // the chaos clock starts once every daemon is listening
        cluster.epoch = Instant::now();
        if let Some(plan) = cluster.opts.chaos.clone() {
            cluster.proxies = Some(ChaosProxies::spawn(&plan, cluster.epoch, &cluster.addrs)?);
        }
        for addr in &cluster.addrs {
            cluster
                .controls
                .push(Some(ControlConn::connect(addr, genesis_id)?));
        }
        for id in 0..cluster.opts.nodes {
            let peers = cluster.address_book(id);
            cluster.control(id)?.send(&WireMsg::Connect { peers })?;
        }
        cluster.wait_mesh(Duration::from_secs(10))?;
        Ok(cluster)
    }

    /// Launch one `lt-node` process and parse its `LISTEN` line.
    fn spawn_daemon(&self, id: usize, listen: &str, restore: bool) -> io::Result<(Child, String)> {
        let mut cmd = Command::new(&self.bin);
        cmd.args([
            "--id",
            &id.to_string(),
            "--nodes",
            &self.opts.nodes.to_string(),
            "--seed",
            &self.opts.seed.to_string(),
            "--listen",
            listen,
            "--ping-ms",
            &self.opts.ping_interval_ms.to_string(),
        ]);
        if let Some(dir) = &self.opts.checkpoint_dir {
            let path = dir.join(format!("daemon-{id}.ltnd"));
            cmd.args(["--checkpoint".as_ref(), path.as_os_str()]);
            cmd.args([
                "--checkpoint-every-ms",
                &self.opts.checkpoint_every_ms.to_string(),
            ]);
        }
        if restore {
            cmd.arg("--restore");
        }
        let mut child = cmd
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout piped");
        match read_listen_line(stdout) {
            Ok(addr) => Ok((child, addr)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    /// The address book daemon `dialer` should use: peers it will dial
    /// (higher ids) routed through the chaos proxies when armed.
    fn address_book(&self, dialer: usize) -> Vec<(u64, String)> {
        (0..self.opts.nodes)
            .map(|j| {
                let addr = self
                    .proxies
                    .as_ref()
                    .and_then(|p| p.addr_for(dialer, j))
                    .unwrap_or(&self.addrs[j]);
                (j as u64, addr.clone())
            })
            .collect()
    }

    /// Milliseconds since the chaos epoch (daemons all listening).
    pub(crate) fn elapsed_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Daemon count (including currently killed ones).
    pub(crate) fn len(&self) -> usize {
        self.controls.len()
    }

    /// The control connection to daemon `i`, or an error if it is
    /// currently killed.
    fn control(&mut self, i: usize) -> io::Result<&mut ControlConn> {
        self.controls[i].as_mut().ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotConnected, format!("daemon {i} is down"))
        })
    }

    /// Liveness per daemon: the process exists and has not exited.
    /// (A health check on the OS process, not the protocol — a wedged
    /// daemon still pings via [`ControlConn::ping`].)
    pub(crate) fn health(&mut self) -> Vec<bool> {
        self.procs
            .iter_mut()
            .map(|p| match p {
                Some(child) => matches!(child.try_wait(), Ok(None)),
                None => false,
            })
            .collect()
    }

    /// Is daemon `i` currently up (not killed, process alive)?
    pub(crate) fn alive(&mut self, i: usize) -> bool {
        self.health()[i]
    }

    /// SIGKILL daemon `i` — no graceful shutdown, no final checkpoint;
    /// whatever the daemon last persisted is what a restore gets.
    pub(crate) fn kill(&mut self, i: usize) -> io::Result<()> {
        let Some(mut child) = self.procs[i].take() else {
            return Ok(()); // already down
        };
        child.kill()?;
        child.wait()?;
        self.controls[i] = None;
        Ok(())
    }

    /// Respawn a killed daemon on its original listen address
    /// (`restore` = rebuild from its checkpoint file). Surviving peers'
    /// dialers are already redialing that address, so the mesh heals on
    /// its own; only the respawned daemon needs a fresh `Connect` book
    /// for the peers *it* dials.
    pub(crate) fn respawn(&mut self, i: usize, restore: bool) -> io::Result<()> {
        if self.procs[i].is_some() {
            return Ok(()); // already up
        }
        let listen = self.addrs[i].clone();
        // the freed port can lag a SIGKILL by a moment; retry the bind
        let mut last_err = None;
        for _ in 0..20 {
            match self.spawn_daemon(i, &listen, restore) {
                Ok((child, addr)) => {
                    debug_assert_eq!(addr, listen);
                    self.procs[i] = Some(child);
                    self.controls[i] = Some(ControlConn::connect(&addr, self.genesis_id)?);
                    let peers = self.address_book(i);
                    return self.control(i)?.send(&WireMsg::Connect { peers });
                }
                Err(e) => {
                    last_err = Some(e);
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
        Err(last_err.expect("retry loop ran"))
    }

    fn wait_mesh(&mut self, timeout: Duration) -> io::Result<()> {
        let want = (self.controls.len() - 1) as u32;
        let deadline = Instant::now() + timeout;
        loop {
            let st = self.status()?;
            if st.iter().all(|s| s.connected >= want) {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("mesh not up: {st:?}"),
                ));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Poll each daemon's status once (errors if any daemon is down).
    pub(crate) fn status(&mut self) -> io::Result<Vec<StatusReport>> {
        (0..self.controls.len())
            .map(|i| match self.control(i)?.request(&WireMsg::StatusReq)? {
                WireMsg::Status(s) => Ok(s),
                other => Err(bad_reply("Status", &other)),
            })
            .collect()
    }

    /// Wait until every replica reports length `len` with no orphans and
    /// nothing missing.
    pub(crate) fn wait_converged(&mut self, len: usize, timeout: Duration) -> io::Result<()> {
        let deadline = Instant::now() + timeout;
        loop {
            let st = self.status()?;
            if st
                .iter()
                .all(|s| s.len as usize == len && s.orphans == 0 && s.missing == 0)
            {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("no convergence to len {len}: {st:?}"),
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Activate daemon `target` at `slot`; `true` if it published.
    /// (The soak loop drives single activations without lockstep.)
    pub(crate) fn activate(&mut self, target: usize, slot: u64) -> io::Result<bool> {
        match self.control(target)?.request(&WireMsg::Activate { slot })? {
            WireMsg::Activated { published, .. } => Ok(published),
            other => Err(bad_reply("Activated", &other)),
        }
    }

    /// Drive `schedule` in lockstep: activation `k` runs at global slot
    /// `k + 1` on daemon `schedule[k]`, and the cluster must fully
    /// converge before the next activation fires.
    pub fn lockstep(&mut self, schedule: &[usize]) -> io::Result<LockstepReport> {
        let mut expected_len = 1usize; // genesis
        let mut published = 0u64;
        for (k, &peer) in schedule.iter().enumerate() {
            let slot = (k + 1) as u64;
            match self.control(peer)?.request(&WireMsg::Activate { slot })? {
                WireMsg::Activated { published: did, .. } => {
                    if did {
                        expected_len += 1;
                        published += 1;
                    }
                }
                other => return Err(bad_reply("Activated", &other)),
            }
            self.wait_converged(expected_len, Duration::from_secs(20))?;
        }
        Ok(LockstepReport {
            activations: schedule.len(),
            published,
            final_len: expected_len,
        })
    }

    /// Drive sustained publish traffic: `per_node` activations on every
    /// daemon concurrently (one driver thread each), slots striped so
    /// daemon `i`'s `k`-th activation runs at global slot
    /// `k * nodes + i + 1`. Returns throughput plus the daemons' own
    /// socket-level accounting.
    pub fn throughput(&mut self, per_node: usize) -> io::Result<ThroughputReport> {
        let n = self.controls.len();
        let conns: Vec<&mut ControlConn> = self
            .controls
            .iter_mut()
            .enumerate()
            .map(|(i, c)| {
                c.as_mut().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::NotConnected, format!("daemon {i} is down"))
                })
            })
            .collect::<io::Result<_>>()?;
        let t0 = Instant::now();
        let published: u64 = std::thread::scope(|scope| {
            let handles: Vec<_> = conns
                .into_iter()
                .enumerate()
                .map(|(i, conn)| {
                    scope.spawn(move || -> io::Result<u64> {
                        let mut published = 0;
                        for k in 0..per_node {
                            let slot = (k * n + i + 1) as u64;
                            match conn.request(&WireMsg::Activate { slot })? {
                                WireMsg::Activated { published: did, .. } => {
                                    published += u64::from(did)
                                }
                                other => return Err(bad_reply("Activated", &other)),
                            }
                        }
                        Ok(published)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("driver thread panicked"))
                .sum::<io::Result<u64>>()
        })?;
        let wall = t0.elapsed();
        // drain: converge on the common final length
        let final_len = 1 + published as usize;
        let t1 = Instant::now();
        self.wait_converged(final_len, Duration::from_secs(60))?;
        let drain = t1.elapsed();
        let metrics = self.metrics()?;
        let counter = |name: &str| -> u64 {
            metrics
                .iter()
                .flat_map(|(c, _)| c.iter())
                .filter(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .sum()
        };
        let rtt = metrics
            .iter()
            .flat_map(|(_, h)| h.iter())
            .filter(|(n, _, _)| n == "net.rtt_us")
            .fold((0, 0), |acc, (_, c, s)| (acc.0 + c, acc.1 + s));
        Ok(ThroughputReport {
            activations: per_node * n,
            published,
            wall,
            drain,
            final_len,
            frames_sent: counter("net.frames_sent"),
            bytes_sent: counter("net.bytes_sent"),
            frames_recv: counter("net.frames_recv"),
            bytes_recv: counter("net.bytes_recv"),
            rtt,
            conn_lost: counter("net.conn_lost"),
            rejected: counter("net.rejected"),
        })
    }

    /// Fetch every daemon's replica archive (insertion order, genesis
    /// excluded).
    pub fn archives(&mut self) -> io::Result<Vec<Vec<TxMessage>>> {
        (0..self.controls.len())
            .map(|i| match self.control(i)?.request(&WireMsg::ArchiveReq)? {
                WireMsg::Archive(msgs) => Ok(msgs),
                other => Err(bad_reply("Archive", &other)),
            })
            .collect()
    }

    /// Ask every daemon for its consensus evaluation at `slot`.
    pub fn evaluate(&mut self, slot: u64, eval_seed: u64) -> io::Result<Vec<(u32, u32)>> {
        (0..self.controls.len())
            .map(|i| {
                match self
                    .control(i)?
                    .request(&WireMsg::EvalReq { slot, eval_seed })?
                {
                    WireMsg::Eval {
                        loss_bits,
                        acc_bits,
                    } => Ok((loss_bits, acc_bits)),
                    other => Err(bad_reply("Eval", &other)),
                }
            })
            .collect()
    }

    /// Fetch every daemon's telemetry counters and histogram totals.
    #[allow(clippy::type_complexity)]
    pub fn metrics(&mut self) -> io::Result<Vec<(Vec<(String, u64)>, Vec<(String, u64, u64)>)>> {
        (0..self.controls.len())
            .map(|i| match self.control(i)?.request(&WireMsg::MetricsReq)? {
                WireMsg::Metrics {
                    counters,
                    histograms,
                } => Ok((counters, histograms)),
                other => Err(bad_reply("Metrics", &other)),
            })
            .collect()
    }

    /// Shut every daemon down and reap the processes.
    pub fn shutdown(mut self) -> io::Result<()> {
        for c in self.controls.iter_mut().flatten() {
            let _ = c.send(&WireMsg::Shutdown);
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        for child in self.procs.iter_mut().flatten() {
            loop {
                match child.try_wait()? {
                    Some(_) => break,
                    None if Instant::now() > deadline => {
                        child.kill()?;
                        child.wait()?;
                        break;
                    }
                    None => std::thread::sleep(Duration::from_millis(5)),
                }
            }
        }
        if let Some(p) = self.proxies.take() {
            p.shutdown();
        }
        Ok(())
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for c in self.controls.iter_mut().flatten() {
            let _ = c.send(&WireMsg::Shutdown);
        }
        for child in self.procs.iter_mut().flatten() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(p) = self.proxies.take() {
            p.shutdown();
        }
    }
}

/// Executes a [`ChaosPlan`]'s kill schedule against a live cluster:
/// SIGKILL at `at_ms`, respawn (optionally `--restore`) at
/// `restore_at_ms`, with the cluster's own clock as the schedule's
/// clock. Call [`Supervisor::poll`] from the driving loop; call
/// [`Supervisor::heal`] once driving ends to bring every remaining
/// corpse back up so the final audit sees a full cluster.
pub(crate) struct Supervisor {
    /// Kills not yet executed, ascending `at_ms`.
    pending_kills: Vec<KillEvent>,
    /// Kills executed but not yet restored.
    pending_restores: Vec<KillEvent>,
    /// Kills performed so far.
    pub kills: u64,
    /// Respawns performed so far.
    pub respawns: u64,
}

impl Supervisor {
    /// A supervisor for `plan`'s kill schedule.
    pub(crate) fn new(plan: &ChaosPlan) -> Self {
        let mut pending_kills = plan.kills.clone();
        pending_kills.sort_by_key(|k| k.at_ms);
        Self {
            pending_kills,
            pending_restores: Vec::new(),
            kills: 0,
            respawns: 0,
        }
    }

    /// Execute every kill and restore that is due at the cluster's
    /// current clock. Health-checks before killing: a daemon that
    /// already died on its own is only respawned.
    pub(crate) fn poll(&mut self, cluster: &mut Cluster) -> io::Result<()> {
        let now = cluster.elapsed_ms();
        while self.pending_kills.first().is_some_and(|k| k.at_ms <= now) {
            let ev = self.pending_kills.remove(0);
            if cluster.alive(ev.daemon) {
                cluster.kill(ev.daemon)?;
                self.kills += 1;
            }
            self.pending_restores.push(ev);
        }
        let due: Vec<KillEvent> = {
            let mut due = Vec::new();
            self.pending_restores.retain(|ev| {
                if ev.restore_at_ms <= now {
                    due.push(*ev);
                    false
                } else {
                    true
                }
            });
            due
        };
        for ev in due {
            let restore = ev.recovery == Recovery::FromCheckpoint;
            cluster.respawn(ev.daemon, restore)?;
            self.respawns += 1;
        }
        Ok(())
    }

    /// Respawn everything still scheduled or still down, regardless of
    /// time — the end-of-run heal before the convergence audit.
    pub(crate) fn heal(&mut self, cluster: &mut Cluster) -> io::Result<()> {
        self.pending_kills.clear(); // never executed: nothing to restore
        for ev in self.pending_restores.drain(..).collect::<Vec<_>>() {
            cluster.respawn(ev.daemon, ev.recovery == Recovery::FromCheckpoint)?;
            self.respawns += 1;
        }
        // belt and braces: anything else that died comes back too
        for i in 0..cluster.len() {
            if !cluster.alive(i) {
                cluster.respawn(i, true)?;
                self.respawns += 1;
            }
        }
        Ok(())
    }
}

/// Parse the daemon's `LISTEN <addr>` startup line.
fn read_listen_line(stdout: impl Read) -> io::Result<String> {
    let mut r = BufReader::new(stdout);
    let mut line = String::new();
    // std's read_line
    std::io::BufRead::read_line(&mut r, &mut line)?;
    let addr = line
        .trim()
        .strip_prefix("LISTEN ")
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("daemon did not announce its port: {line:?}"),
            )
        })?
        .to_string();
    Ok(addr)
}
