//! Host context: what machine and toolchain produced a measurement, how
//! busy the host was before each round, and a fixed probe loop that
//! never touches the simulator, so host drift can be told apart from a
//! regression. Every host-time read goes through
//! `noiselab_bench::wall_clock()`.

use noiselab_bench::wall_clock;
use serde::Value;
use std::process::Command;
use std::time::{Duration, Instant};

/// Seconds elapsed since `t0`.
pub fn secs_since(t0: Instant) -> f64 {
    wall_clock().duration_since(t0).as_secs_f64()
}

/// `struct rusage` on 64-bit Linux: two `struct timeval`s, then
/// fourteen `long`s, of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

/// CPU seconds and peak resident set (KiB) of this process and, for
/// the children, of every descendant that has been waited for.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub cpu_s: f64,
    pub self_maxrss_kib: i64,
    pub children_maxrss_kib: i64,
}

fn rusage(who: i32) -> RUsage {
    let mut ru = RUsage::default();
    // SAFETY: `ru` is a live, writable value laid out as the C `struct
    // rusage` of 64-bit Linux, and getrusage writes only within it.
    let rc = unsafe { getrusage(who, &mut ru) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    ru
}

pub fn usage() -> Usage {
    let cpu = |ru: &RUsage| {
        (ru.utime[0] + ru.stime[0]) as f64 + (ru.utime[1] + ru.stime[1]) as f64 * 1e-6
    };
    let (me, kids) = (rusage(RUSAGE_SELF), rusage(RUSAGE_CHILDREN));
    Usage {
        cpu_s: cpu(&me) + cpu(&kids),
        self_maxrss_kib: me.maxrss,
        children_maxrss_kib: kids.maxrss,
    }
}

/// Idle plus iowait jiffies, and all jiffies, from the first line of
/// /proc/stat.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    let idle = fields.get(3)? + fields.get(4).copied().unwrap_or(0);
    Some((idle, fields.iter().sum()))
}

/// The host's state just before a round: idle share over a short
/// window, the 1-minute load average, and the probe time. Recorded
/// only; the benchmark never waits for a quiet host.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub idle_pct: f64,
    pub load1: f64,
    pub probe_ms: f64,
}

const IDLE_WINDOW: Duration = Duration::from_millis(50);

/// Map operations in one probe.
const PROBE_OPS: u64 = 400_000;

/// Probe time, in ms, that defines the reference host (a quiet 2-vCPU
/// Xeon VM). Host-time metrics are scaled to it:
/// `reference seconds = seconds * PROBE_REF_MS / probe ms`.
pub const PROBE_REF_MS: f64 = 65.0;

/// Time a fixed loop of ordered-map inserts and removes over pseudo-
/// random keys. It shares no code with the simulator but stresses what
/// the simulator's hot path stresses (allocation, branches, pointer
/// chasing through cache), so its time tracks host speed. On a shared
/// 2-vCPU Xeon VM whose speed drifted 1.9x within eight minutes, a
/// fixed simulation batch divided by this probe spread 5-12 %
/// (interquartile range over median), against 15-35 % raw and 15-19 %
/// divided by a plain xorshift loop.
pub fn probe_ms() -> f64 {
    let t0 = wall_clock();
    let mut map = std::collections::BTreeMap::new();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for k in 0..PROBE_OPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 100_000, k);
        if k % 3 == 0 {
            map.remove(&(x % 50_000));
        }
    }
    std::hint::black_box(map.len());
    secs_since(t0) * 1e3
}

pub fn sample() -> Sample {
    let before = cpu_jiffies();
    std::thread::sleep(IDLE_WINDOW);
    let idle_pct = match (before, cpu_jiffies()) {
        (Some((i0, t0)), Some((i1, t1))) if t1 > t0 => (i1 - i0) as f64 / (t1 - t0) as f64 * 100.0,
        _ => 0.0,
    };
    let load1 = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0);
    Sample {
        idle_pct,
        load1,
        probe_ms: probe_ms(),
    }
}

/// First line of a command's stdout, or "unknown" when it cannot run.
fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Commit, toolchain, CPU model and CPU count, as a JSON object.
pub fn context() -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Value::Object(vec![
        (
            "commit".into(),
            Value::Str(first_line("git", &["rev-parse", "--short=12", "HEAD"])),
        ),
        ("rustc".into(), Value::Str(first_line("rustc", &["-V"]))),
        ("cpu_model".into(), Value::Str(cpu_model)),
        ("nproc".into(), Value::UInt(nproc() as u128)),
    ])
}
