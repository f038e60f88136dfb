//! `net_cluster`: four `lt-node` daemons over localhost TCP.
//!
//! The harness spawns the daemons from their CLI contract (the
//! `LISTEN <addr>` line) and drives them over its own control
//! connections. No delay is injected between daemons: every latency
//! here is processor and kernel time only.

use super::{Check, Epoch, LedgerPoint, Size};
use crate::host;
use crate::probes::{Layer, ModelCtx, Probes};
use crate::stats::{fnv1a, median};
use crate::trace::Tracer;
use lt_net::driver::ControlConn;
use lt_net::{default_node_bin, Preset, StatusReport, WireMsg};
use std::io::{self, BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use tangle_gossip::{Peer, TxMessage};

/// Daemons in the cluster.
const NODES: usize = 4;
/// An activation must be solid on every replica within this.
const COMMIT_LIMIT: Duration = Duration::from_secs(2);
/// Past this the epoch is abandoned.
const HARD_LIMIT: Duration = Duration::from_secs(30);

/// Sizes of the daemon workload.
#[derive(Clone, Copy, Debug)]
pub struct NetSpec {
    /// Lockstep activations per epoch (one client, round-robin).
    pub lockstep: usize,
    /// Saturation activations per daemon per epoch (two clients).
    pub per_daemon: usize,
}

impl NetSpec {
    /// The workload's sizes for the 2-core reference host. Epochs are
    /// short and run on fresh clusters so the ledger stays small and the
    /// socket path keeps its share of the time.
    pub fn new(size: Size) -> Self {
        match size {
            Size::Full => Self {
                lockstep: 600,
                per_daemon: 300,
            },
            Size::Smoke => Self {
                lockstep: 24,
                per_daemon: 8,
            },
        }
    }

    /// Spawn a cluster and shut it down again: an extra `setup_s`
    /// sample.
    pub fn setup_only(&self, seed: u64) -> f64 {
        let t = Instant::now();
        let cluster = Daemons::spawn(seed).expect("spawn lt-node cluster");
        let s = t.elapsed().as_secs_f64();
        drop(cluster);
        s
    }

    /// One epoch on a fresh cluster; an I/O error on a control
    /// connection abandons it.
    pub fn epoch(&self, seed: u64, traced: bool) -> Epoch {
        match self.try_epoch(seed, traced) {
            Ok(epoch) => epoch,
            Err(e) => Epoch {
                attempted: (self.lockstep + NODES * self.per_daemon) as u64,
                failed: (self.lockstep + NODES * self.per_daemon) as u64,
                checks: vec![Check::new("control plane", false, e.to_string())],
                ..Epoch::default()
            },
        }
    }

    fn try_epoch(&self, seed: u64, traced: bool) -> io::Result<Epoch> {
        let mut tracer = Tracer::new(traced);
        let t_setup = Instant::now();
        let mut cluster = tracer.scope("net.driver.setup", seed, |_| Daemons::spawn(seed))?;
        let setup_s = t_setup.elapsed().as_secs_f64();

        let cpu0: u64 = cluster.pids().map(|p| host::cpu_ns(Some(p))).sum();
        let ticks0 = cluster.cpu_ticks();
        let mut activate_us = Vec::with_capacity(self.lockstep);
        let mut propagate_us = Vec::new();
        let mut commit_us = Vec::new();
        let mut status_us = Vec::new();
        let mut expected_len = 1u32; // genesis
        let mut late = 0u64;

        // (a) lockstep: one client, one activation at a time, each timed
        // from the request until every replica is solid.
        tracer.scope("net.driver.lockstep", seed, |_| -> io::Result<()> {
            for k in 0..self.lockstep {
                let target = k % NODES;
                let t0 = Instant::now();
                let published = activate(&mut cluster.conns[target], (k + 1) as u64)?;
                let rtt = t0.elapsed();
                activate_us.push(rtt.as_secs_f64() * 1e6);
                expected_len += u32::from(published);
                cluster.wait_solid(expected_len, t0, &mut status_us)?;
                let commit = t0.elapsed();
                if published {
                    commit_us.push(commit.as_secs_f64() * 1e6);
                    propagate_us.push((commit - rtt).as_secs_f64() * 1e6);
                }
                late += u64::from(commit > COMMIT_LIMIT);
            }
            Ok(())
        })?;

        // (b) saturation: two closed-loop clients (fixed at two, not
        // read from the machine), each alternating between two daemons.
        let base = self.lockstep as u64;
        let per_daemon = self.per_daemon;
        let t_sat = Instant::now();
        let sat_published = tracer.scope("net.driver.saturate", seed, |_| -> io::Result<u32> {
            let (left, right) = cluster.conns.split_at_mut(NODES / 2);
            std::thread::scope(|scope| {
                let clients: Vec<_> = [(0usize, left), (NODES / 2, right)]
                    .into_iter()
                    .map(|(first, conns)| {
                        scope.spawn(move || -> io::Result<u32> {
                            let mut published = 0;
                            for k in 0..per_daemon {
                                for (i, conn) in conns.iter_mut().enumerate() {
                                    let slot = base + (k * NODES + first + i + 1) as u64;
                                    published += u32::from(activate(conn, slot)?);
                                }
                            }
                            Ok(published)
                        })
                    })
                    .collect();
                clients
                    .into_iter()
                    .map(|c| c.join().expect("saturation client panicked"))
                    .sum()
            })
        })?;
        expected_len += sat_published;
        let t_drain = Instant::now();
        tracer.scope("net.driver.drain", seed, |_| {
            cluster.wait_solid(expected_len, t_drain, &mut status_us)
        })?;
        let drain_s = t_drain.elapsed().as_secs_f64();
        let sat_s = t_sat.elapsed().as_secs_f64();

        let cpu_s = cluster
            .pids()
            .map(|p| host::cpu_ns(Some(p)))
            .sum::<u64>()
            .saturating_sub(cpu0) as f64
            / 1e9;
        let ticks1 = cluster.cpu_ticks();
        let (user_ticks, sys_ticks) = (ticks1.0 - ticks0.0, ticks1.1 - ticks0.1);

        // Outputs: the same transactions, byte for byte, on every daemon.
        // Under saturation replicas insert in different orders, so the
        // archives are compared sorted.
        let archives = cluster.archives()?;
        let images: Vec<Vec<u8>> = archives
            .iter()
            .map(|a| {
                let mut encoded: Vec<Vec<u8>> = a.iter().map(|m| m.encode().to_vec()).collect();
                encoded.sort_unstable();
                encoded.concat()
            })
            .collect();
        let equal = images.iter().all(|i| *i == images[0]);
        let counters = cluster.counters()?;
        let counter = |name: &str| -> f64 {
            counters
                .iter()
                .filter(|(n, _)| n == name)
                .map(|(_, v)| *v as f64)
                .sum()
        };
        let daemons_rss_mb = cluster.pids().map(|p| host::peak_rss_mb(Some(p))).sum();
        let threads: u64 = cluster.pids().map(host::threads).sum();
        let (spawn_ms, mesh_up_ms) = (cluster.spawn_ms, cluster.mesh_up_ms);
        let genesis = cluster.genesis.clone();
        drop(cluster);

        let sat_acts = (NODES * self.per_daemon) as u64;
        let acts = self.lockstep as u64 + sat_acts;
        let published = (expected_len - 1) as f64;
        let lost = (counter("net.dropped") + counter("net.conn_lost")) as u64;

        // The daemons' state lives in other processes: replay one
        // archive into a local replica, for the tip count and the probes.
        let mut peer = Peer::new(0, &genesis, 0);
        for m in &archives[0] {
            peer.receive(m);
        }
        let mut layer = Layer::new();
        if traced {
            let preset = Preset { nodes: NODES, seed };
            let (client, cfg) = (preset.dataset().clients.swap_remove(0), preset.sim_cfg());
            let build = Preset::build;
            let model = ModelCtx {
                client: &client,
                build: &build,
                lr: cfg.lr,
                batch: cfg.batch_size,
            };
            let mut probes = Probes::new(peer.replica());
            probes.checkpoint(&mut tracer, 0, peer.replica(), &model);
            probes.final_ledger(&mut tracer, peer.replica());
            probes.archive(&mut tracer, &genesis, &archives[0]);
            probes.finish(&mut layer);
            // The daemons keep span timings off, so the program itself
            // attributes none of their time.
            layer.insert("bench.coverage_pct", 0.0);
        }
        layer.insert("core.node.publish_ratio", published / acts as f64);
        layer.insert("tangle.graph.ledger_len", expected_len as f64);
        layer.insert("tangle.graph.tip_count", peer.replica().tip_count() as f64);
        layer.insert("net.protocol.delivered_n", counter("net.delivered"));
        layer.insert("net.protocol.duplicates_n", counter("net.duplicates"));
        layer.insert("net.protocol.orphaned_n", counter("net.orphaned"));
        layer.insert("net.protocol.rerequests_n", counter("net.rerequests"));
        layer.insert("net.queue.dropped_n", counter("net.dropped"));
        layer.insert(
            "net.daemon.frames_per_tx",
            counter("net.frames_sent") / published.max(1.0),
        );
        layer.insert("net.daemon.bytes_sent_n", counter("net.bytes_sent"));
        layer.insert("net.daemon.cpu_user_s", user_ticks as f64 / 100.0);
        layer.insert("net.daemon.cpu_sys_s", sys_ticks as f64 / 100.0);
        layer.insert(
            "net.daemon.sys_share",
            sys_ticks as f64 / (user_ticks + sys_ticks).max(1) as f64,
        );
        layer.insert("net.daemon.threads_n", threads as f64);
        layer.insert("net.daemon.reconnects_n", counter("net.reconnects"));
        layer.insert("net.daemon.conn_lost_n", counter("net.conn_lost"));
        layer.insert("net.driver.activate_rtt_us", median(&activate_us));
        layer.insert("net.driver.propagate_us", median(&propagate_us));
        layer.insert("net.driver.status_rtt_us", median(&status_us));
        layer.insert("net.driver.spawn_ms", spawn_ms);
        layer.insert("net.driver.mesh_up_ms", mesh_up_ms);
        layer.insert("net.driver.drain_ms", drain_s * 1e3);

        Ok(Epoch {
            setup_s,
            wall_s: sat_s,
            acts_per_s: sat_acts as f64 / sat_s,
            cpu_us_per_act: cpu_s * 1e6 / acts as f64,
            wire_bytes_per_tx: counter("net.bytes_sent") / published.max(1.0),
            commit_us,
            attempted: acts,
            failed: late + lost,
            peak_rss_mb: daemons_rss_mb,
            digest: fnv1a(&images[0]),
            series: vec![LedgerPoint {
                len: expected_len as u64,
                tips: peer.replica().tip_count() as u64,
            }],
            checks: vec![
                Check::new(
                    "byte-equal archives on every daemon",
                    equal && archives[0].len() as u32 == expected_len - 1,
                    format!("{} transactions", archives[0].len()),
                ),
                Check::new(
                    "no frame dropped, no connection lost",
                    lost == 0,
                    format!("{lost}"),
                ),
            ],
            ..Epoch::default()
        }
        // Real threads and sockets: no count repeats exactly.
        .finish(layer, &[], &tracer))
    }
}

fn bad_reply(expected: &str, got: &WireMsg) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("expected {expected} reply, got {got:?}"),
    )
}

fn activate(conn: &mut ControlConn, slot: u64) -> io::Result<bool> {
    match conn.request(&WireMsg::Activate { slot })? {
        WireMsg::Activated { published, .. } => Ok(published),
        other => Err(bad_reply("Activated", &other)),
    }
}

fn status(conn: &mut ControlConn) -> io::Result<StatusReport> {
    match conn.request(&WireMsg::StatusReq)? {
        WireMsg::Status(s) => Ok(s),
        other => Err(bad_reply("Status", &other)),
    }
}

/// A running cluster. Dropping it stops every daemon and waits for it.
struct Daemons {
    procs: Vec<Child>,
    conns: Vec<ControlConn>,
    genesis: TxMessage,
    spawn_ms: f64,
    mesh_up_ms: f64,
}

impl Daemons {
    /// Spawn the `Preset { nodes: 4, seed }` cluster, wire the full
    /// mesh and wait until every data connection is up.
    fn spawn(seed: u64) -> io::Result<Self> {
        let bin = default_node_bin();
        let genesis = Preset { nodes: NODES, seed }.genesis();
        let mut cluster = Self {
            procs: Vec::with_capacity(NODES),
            conns: Vec::with_capacity(NODES),
            genesis,
            spawn_ms: 0.0,
            mesh_up_ms: 0.0,
        };
        let t = Instant::now();
        let mut addrs = Vec::with_capacity(NODES);
        for id in 0..NODES {
            let mut child = Command::new(&bin)
                .args(["--id", &id.to_string()])
                .args(["--nodes", &NODES.to_string()])
                .args(["--seed", &seed.to_string()])
                .args(["--listen", "127.0.0.1:0", "--ping-ms", "0"])
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", bin.display())))?;
            let stdout = child.stdout.take().expect("stdout piped");
            cluster.procs.push(child);
            let mut line = String::new();
            BufReader::new(stdout).read_line(&mut line)?;
            let addr = line.trim().strip_prefix("LISTEN ").ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("daemon did not announce its port: {line:?}"),
                )
            })?;
            addrs.push(addr.to_string());
        }
        cluster.spawn_ms = t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        let genesis_id = cluster.genesis.content_id().0;
        for addr in &addrs {
            cluster.conns.push(ControlConn::connect(addr, genesis_id)?);
        }
        let peers: Vec<(u64, String)> = addrs
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, a)| (i as u64, a))
            .collect();
        for conn in &mut cluster.conns {
            conn.send(&WireMsg::Connect {
                peers: peers.clone(),
            })?;
        }
        while !cluster
            .statuses()?
            .iter()
            .all(|s| s.connected as usize >= NODES - 1)
        {
            if t.elapsed() > HARD_LIMIT {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "mesh not up"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        cluster.mesh_up_ms = t.elapsed().as_secs_f64() * 1e3;
        Ok(cluster)
    }

    fn pids(&self) -> impl Iterator<Item = u32> + '_ {
        self.procs.iter().map(Child::id)
    }

    /// Summed `(user, system)` ticks of the daemons.
    fn cpu_ticks(&self) -> (u64, u64) {
        self.pids()
            .map(|p| host::cpu_ticks(Some(p)))
            .fold((0, 0), |a, t| (a.0 + t.0, a.1 + t.1))
    }

    fn statuses(&mut self) -> io::Result<Vec<StatusReport>> {
        self.conns.iter_mut().map(status).collect()
    }

    /// Poll every daemon, without sleeping, until each reports `len`
    /// transactions with no orphans and nothing missing. Each status
    /// round trip is recorded: it is the floor under every latency this
    /// loop observes.
    fn wait_solid(&mut self, len: u32, since: Instant, status_us: &mut Vec<f64>) -> io::Result<()> {
        for conn in &mut self.conns {
            loop {
                let t = Instant::now();
                let s = status(conn)?;
                status_us.push(t.elapsed().as_secs_f64() * 1e6);
                if s.len == len && s.orphans == 0 && s.missing == 0 {
                    break;
                }
                if since.elapsed() > HARD_LIMIT {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("no convergence to length {len}: {s:?}"),
                    ));
                }
            }
        }
        Ok(())
    }

    fn archives(&mut self) -> io::Result<Vec<Vec<TxMessage>>> {
        self.conns
            .iter_mut()
            .map(|c| match c.request(&WireMsg::ArchiveReq)? {
                WireMsg::Archive(msgs) => Ok(msgs),
                other => Err(bad_reply("Archive", &other)),
            })
            .collect()
    }

    /// Every daemon's telemetry counters, concatenated.
    fn counters(&mut self) -> io::Result<Vec<(String, u64)>> {
        let mut all = Vec::new();
        for c in &mut self.conns {
            match c.request(&WireMsg::MetricsReq)? {
                WireMsg::Metrics { counters, .. } => all.extend(counters),
                other => return Err(bad_reply("Metrics", &other)),
            }
        }
        Ok(all)
    }

    /// Ask every daemon to exit, then reap them (killing stragglers).
    fn stop(&mut self) {
        for c in &mut self.conns {
            let _ = c.send(&WireMsg::Shutdown);
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        for child in &mut self.procs {
            while matches!(child.try_wait(), Ok(None)) {
                if Instant::now() > deadline {
                    let _ = child.kill();
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            let _ = child.wait();
        }
        self.procs.clear();
        self.conns.clear();
    }
}

impl Drop for Daemons {
    fn drop(&mut self) {
        self.stop();
    }
}
