//! Shared plumbing for the bench targets: result persistence so the
//! aggregate benches (Tables 6 and 7) can reuse the outcomes of the
//! per-workload injection benches (Tables 3-5) instead of re-running
//! them, a tee helper writing each rendered table to disk, and the host
//! probe that host-time figures are normalized by.
//!
//! Everything here degrades instead of panicking: a missing or
//! unwritable results directory costs the cache and the on-disk copy,
//! never the bench run. The fallible plumbing is exposed as `try_*`
//! variants with typed `io::Error`s.

#![forbid(unsafe_code)]
#![deny(clippy::ref_as_ptr)]

use noiselab_core::experiments::inject::InjectionTable;
use std::fs;
use std::io;
use std::path::PathBuf;

/// Host-side timing for bench banners, routed through the workspace's
/// single host-clock site in `noiselab_telemetry`. Simulated
/// time never touches this — it lives in `noiselab_sim::SimTime`.
pub fn wall_clock() -> std::time::Instant {
    noiselab_telemetry::wall_clock()
}

/// Directory where bench results are cached and rendered tables are
/// written (`NOISELAB_RESULTS`, default `target/noiselab-results`,
/// resolved relative to the bench cwd (the package directory under
/// `cargo bench`)).
#[expect(
    clippy::disallowed_methods,
    reason = "NOISELAB_RESULTS only moves the results cache on disk"
)]
pub fn try_results_dir() -> io::Result<PathBuf> {
    let dir = std::env::var("NOISELAB_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/noiselab-results"));
    fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Persist an injection table outcome as JSON.
pub fn try_save_table(name: &str, table: &InjectionTable) -> io::Result<()> {
    let path = try_results_dir()?.join(format!("{name}.json"));
    let json = serde_json::to_string(table)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    fs::write(&path, json)
}

/// [`try_save_table`], downgraded to a warning on failure: losing the
/// cache must not lose the bench run.
pub fn save_table(name: &str, table: &InjectionTable) {
    if let Err(e) = try_save_table(name, table) {
        eprintln!("noiselab-bench: {name}: result cache not written: {e}");
    }
}

/// Load a previously persisted injection table, if present and parseable.
pub fn load_table(name: &str) -> Option<InjectionTable> {
    let path = try_results_dir().ok()?.join(format!("{name}.json"));
    let data = fs::read_to_string(path).ok()?;
    serde_json::from_str(&data).ok()
}

/// Write a rendered table next to the JSON cache.
pub fn try_write_rendered(name: &str, rendered: &str) -> io::Result<()> {
    let path = try_results_dir()?.join(format!("{name}.txt"));
    fs::write(path, rendered)
}

/// Print a rendered table and also write it next to the JSON cache
/// (with a warning, not a panic, if the disk copy fails).
pub fn emit(name: &str, rendered: &str) {
    println!("{rendered}");
    if let Err(e) = try_write_rendered(name, rendered) {
        eprintln!("noiselab-bench: {name}: rendered table not written: {e}");
    }
}

/// Map operations in one host probe.
const PROBE_OPS: u64 = 400_000;

/// Probe time, in ms, that defines the reference host (a quiet 2-vCPU
/// Xeon VM). A host-time figure `x` measured while the probe took `p`
/// ms reads `x * PROBE_REF_MS / p` on the reference host.
pub const PROBE_REF_MS: f64 = 65.0;

/// Time a fixed loop of ordered-map inserts and removes over pseudo-
/// random keys, in ms. It shares no code with the simulator but stresses
/// what the simulator's hot path stresses (allocation, branches, pointer
/// chasing through cache), so its time tracks host speed. The same loop
/// as `noiselab-benchmark`'s `host::probe_ms`, so both harnesses
/// normalize to one reference host.
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
    t0.elapsed().as_secs_f64() * 1e3
}

/// Wall-clock banner helper.
pub fn finish(name: &str, t0: std::time::Instant) {
    println!("[{name}: {:.1}s]", t0.elapsed().as_secs_f64());
}
