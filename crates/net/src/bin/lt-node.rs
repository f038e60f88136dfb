//! `lt-node` — one tangle-learning gossip peer behind a TCP socket.
//!
//! ```text
//! lt-node --id 0 --nodes 3 --seed 7 [--listen 127.0.0.1:0]
//!         [--ping-ms 0]
//!         [--checkpoint <path>] [--checkpoint-every-ms 250] [--restore]
//! ```
//!
//! Prints `LISTEN <addr>` on stdout once the socket is bound, then serves
//! the wire protocol until a control connection sends `Shutdown`.
//! `--checkpoint` enables periodic crash-recovery checkpoints;
//! `--restore` rebuilds the replica from that file at startup (falling
//! back to genesis when the file is missing or corrupt).

use lt_net::daemon::{run_daemon, DaemonConfig};

fn usage() -> ! {
    eprintln!(
        "usage: lt-node --id <i> --nodes <n> --seed <s> \
         [--listen <addr>] [--ping-ms <ms>] \
         [--checkpoint <path>] [--checkpoint-every-ms <ms>] [--restore]"
    );
    std::process::exit(2);
}

fn main() {
    let mut id: Option<usize> = None;
    let mut nodes: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut listen: Option<String> = None;
    let mut ping_ms: Option<u64> = None;
    let mut checkpoint: Option<String> = None;
    let mut checkpoint_every_ms: Option<u64> = None;
    let mut restore = false;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut take = |what: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("lt-node: {flag} needs a {what}");
                usage()
            })
        };
        match flag.as_str() {
            "--id" => id = Some(parse(&flag, &take("index"))),
            "--nodes" => nodes = Some(parse(&flag, &take("count"))),
            "--seed" => seed = Some(parse(&flag, &take("seed"))),
            "--listen" => listen = Some(take("address")),
            "--ping-ms" => ping_ms = Some(parse(&flag, &take("interval"))),
            "--checkpoint" => checkpoint = Some(take("path")),
            "--checkpoint-every-ms" => checkpoint_every_ms = Some(parse(&flag, &take("interval"))),
            "--restore" => restore = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("lt-node: unknown flag {other}");
                usage();
            }
        }
    }

    let (Some(id), Some(nodes), Some(seed)) = (id, nodes, seed) else {
        eprintln!("lt-node: --id, --nodes and --seed are required");
        usage();
    };
    if id >= nodes {
        eprintln!("lt-node: --id must be < --nodes");
        std::process::exit(2);
    }
    if restore && checkpoint.is_none() {
        eprintln!("lt-node: --restore needs --checkpoint");
        std::process::exit(2);
    }

    let mut cfg = DaemonConfig::new(id, nodes, seed);
    if let Some(l) = listen {
        cfg.listen = l;
    }
    if let Some(p) = ping_ms {
        cfg.ping_interval_ms = p;
    }
    if let Some(path) = checkpoint {
        cfg.checkpoint = Some(path.into());
    }
    if let Some(ms) = checkpoint_every_ms {
        cfg.checkpoint_every_ms = ms;
    }
    cfg.restore = restore;

    if let Err(e) = run_daemon(cfg) {
        eprintln!("lt-node: {e}");
        std::process::exit(1);
    }
}

fn parse<T: std::str::FromStr>(flag: &str, s: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("lt-node: bad value for {flag}: {s:?}");
        usage()
    })
}
