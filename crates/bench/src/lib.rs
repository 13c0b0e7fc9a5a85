//! Shared plumbing for the bench targets: result persistence so the
//! aggregate benches (Tables 6 and 7) can reuse the outcomes of the
//! per-workload injection benches (Tables 3-5) instead of re-running
//! them, plus a tee helper writing each rendered table to disk.
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

/// Wall-clock banner helper.
pub fn finish(name: &str, t0: std::time::Instant) {
    println!("[{name}: {:.1}s]", t0.elapsed().as_secs_f64());
}
