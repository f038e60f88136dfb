//! What the harness reads from the host: a fingerprint for every run
//! file, CPU and memory accounting from `/proc`, and a calibration
//! kernel that contains no repository code.

use serde::Value;
use std::hint::black_box;
use std::time::Instant;

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Cores, pool width, compiler, commit and kernel of this run. The
/// commit comes from `LT_BENCH_COMMIT` (set by `run.sh` when the
/// checkout is a git repository) and reads `unknown` elsewhere.
pub fn fingerprint() -> Value {
    let text = |s: Option<String>| Value::Str(s.unwrap_or_else(|| "unknown".into()));
    Value::Map(vec![
        (
            "cores".into(),
            Value::U64(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        (
            "rayon_num_threads".into(),
            text(Some(
                std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "default".into()),
            )),
        ),
        ("rustc".into(), text(command_line("rustc", &["--version"]))),
        ("commit".into(), text(std::env::var("LT_BENCH_COMMIT").ok())),
        (
            "kernel".into(),
            text(read("/proc/sys/kernel/osrelease").map(|s| s.trim().to_string())),
        ),
    ])
}

/// `/proc/<pid>` directory name: a daemon's pid, or `self`.
fn proc_dir(pid: Option<u32>) -> String {
    pid.map_or_else(|| "self".to_string(), |p| p.to_string())
}

/// Nanoseconds on a CPU, summed over the live threads of a process
/// (first field of each `/proc/<pid>/task/<tid>/schedstat`). Exact to
/// the nanosecond, unlike the 10 ms ticks of `/proc/<pid>/stat`, but a
/// thread that has exited is no longer counted: read it while the
/// threads that did the work are still alive.
pub fn cpu_ns(pid: Option<u32>) -> u64 {
    let dir = format!("/proc/{}/task", proc_dir(pid));
    let Ok(tasks) = std::fs::read_dir(&dir) else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| read(&format!("{}/schedstat", t.path().display())))
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// `(user, system)` clock ticks of a process from `/proc/<pid>/stat`,
/// all threads, exited ones included. Tick resolution (10 ms): good for
/// the user/system split, too coarse for a per-activation cost.
pub fn cpu_ticks(pid: Option<u32>) -> (u64, u64) {
    let Some(stat) = read(&format!("/proc/{}/stat", proc_dir(pid))) else {
        return (0, 0);
    };
    // The command name may hold spaces; fields resume after the ")".
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return (0, 0);
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|s| s.parse().ok()).unwrap_or(0);
    (tick(11), tick(12))
}

fn status_kb(pid: Option<u32>, key: &str) -> u64 {
    read(&format!("/proc/{}/status", proc_dir(pid)))
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key)?.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

/// Peak resident set of a process in MiB (`VmHWM`).
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    status_kb(pid, "VmHWM:") as f64 / 1024.0
}

/// Live thread count of a process.
pub fn threads(pid: u32) -> u64 {
    status_kb(Some(pid), "Threads:")
}

/// A fixed integer kernel (xorshift over a 4 KiB table) that calls no
/// repository code, timed in milliseconds, best of three. Run before and
/// after every workload: if the two disagree, the host changed speed
/// under the run.
pub fn calib_ms() -> f64 {
    (0..3).map(|_| calib_once()).fold(f64::INFINITY, f64::min)
}

fn calib_once() -> f64 {
    let mut table = [0u64; 512];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let t = Instant::now();
    for i in 0..6_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x as usize) & 511;
        table[slot] = table[slot].wrapping_add(x ^ i);
    }
    black_box(&table);
    t.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        assert!(cpu_ns(None) > 0);
        assert!(peak_rss_mb(None) > 0.0);
        assert!(threads(std::process::id()) >= 1);
        let (u, s) = cpu_ticks(None);
        let _ = u + s; // may still be 0 ticks this early
        assert_eq!(cpu_ns(Some(u32::MAX)), 0);
    }

    #[test]
    fn fingerprint_names_every_field() {
        let fp = fingerprint();
        let keys: Vec<&str> = fp
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            ["cores", "rayon_num_threads", "rustc", "commit", "kernel"]
        );
    }

    #[test]
    fn calibration_kernel_takes_measurable_time() {
        assert!(calib_ms() > 0.1);
    }
}
