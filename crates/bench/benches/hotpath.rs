//! Hot-path cost sweep: host ns/event for every workload × scheduling
//! config, in all four observation modes, consolidated into
//! `BENCH_hotpath.json` at the repository root.
//!
//! The file keeps a history so an optimization trajectory stays
//! honest: the first run on a tree writes the `baseline` snapshot;
//! every later run appends a labelled snapshot to `steps` (label from
//! `NOISELAB_BENCH_LABEL`, default `step-N`). CI runs the same binary
//! in check mode (`NOISELAB_BENCH_CHECK=1`), which re-measures at low
//! reps and fails on a >25 % bare-ns/event regression against the last
//! committed snapshot instead of writing anything.
//!
//! Env knobs:
//! * `NOISELAB_BENCH_REPS`  — reps per mode (default 5; nightly uses 9)
//! * `NOISELAB_BENCH_LABEL` — snapshot label for the history
//! * `NOISELAB_BENCH_CHECK` — compare, don't write; exit 1 on regression

use noiselab_bench::PROBE_REF_MS;
use noiselab_core::experiments::suite;
use noiselab_core::{measure_overhead, ExecConfig, Mitigation, Model, Platform};
use noiselab_workloads::Workload;
use serde::{Deserialize, Serialize};

const OUT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
/// Allowed bare-path regression before the check mode fails the run.
const GATE_PCT: f64 = 25.0;

/// One (workload, config) cell's per-mode cost.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Cell {
    workload: String,
    config: String,
    events_per_run: u64,
    bare_ns_per_event: f64,
    telemetry_ns_per_event: f64,
    telemetry_overhead_pct: f64,
    tracer_overhead_pct: f64,
    both_overhead_pct: f64,
}

/// One labelled measurement of the whole sweep, with the commit,
/// toolchain and CPU it was taken on and the median host probe over the
/// sweep (empty, or 0, in snapshots that predate those fields).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Snapshot {
    label: String,
    reps: u32,
    #[serde(default)]
    commit: String,
    #[serde(default)]
    rustc: String,
    #[serde(default)]
    cpu_model: String,
    /// Median of `noiselab_bench::probe_ms` taken before each cell and
    /// after the last; `advise` normalizes ns by it.
    #[serde(default)]
    probe_ms: f64,
    cells: Vec<Cell>,
}

/// First line a command prints, or `"unknown"`.
fn first_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
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
        .unwrap_or_else(|| "unknown".into())
}

/// The host's CPU model from `/proc/cpuinfo`, or `"unknown"`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The on-disk history: baseline first, then one snapshot per
/// optimization step.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct History {
    bench: String,
    baseline: Snapshot,
    steps: Vec<Snapshot>,
}

impl History {
    fn latest(&self) -> &Snapshot {
        self.steps.last().unwrap_or(&self.baseline)
    }
}

fn sweep(reps: u32, label: String) -> Snapshot {
    let platform = Platform::intel();
    let workloads: Vec<Box<dyn Workload + Sync>> = vec![
        Box::new(suite::nbody_for(&platform)),
        Box::new(suite::babelstream_for(&platform)),
        Box::new(suite::minife_for(&platform)),
    ];
    // Roam (the paper's default placement) and pinned.
    let configs = [
        ExecConfig::new(Model::Omp, Mitigation::Rm),
        ExecConfig::new(Model::Omp, Mitigation::Tp),
    ];
    let mut cells = Vec::new();
    let mut probes = Vec::new();
    for w in &workloads {
        for cfg in &configs {
            probes.push(noiselab_bench::probe_ms());
            let rep = measure_overhead(&platform, w.as_ref(), cfg, 1, reps)
                .expect("hotpath bench cell failed");
            let row = |mode: &str| {
                rep.rows
                    .iter()
                    .find(|r| r.mode == mode)
                    .unwrap_or_else(|| panic!("mode {mode} missing"))
            };
            cells.push(Cell {
                workload: rep.workload.clone(),
                config: rep.config.clone(),
                events_per_run: rep.events,
                bare_ns_per_event: row("bare").host_ns_per_event,
                telemetry_ns_per_event: row("+telemetry").host_ns_per_event,
                telemetry_overhead_pct: row("+telemetry").overhead_pct,
                tracer_overhead_pct: row("+tracer").overhead_pct,
                both_overhead_pct: row("+both").overhead_pct,
            });
            println!(
                "{:<12} {:<8} {:>7} ev  bare {:>7.1} ns/ev  tel {:>+6.1}%  trc {:>+6.1}%  both {:>+6.1}%",
                cells.last().unwrap().workload,
                cells.last().unwrap().config,
                cells.last().unwrap().events_per_run,
                cells.last().unwrap().bare_ns_per_event,
                cells.last().unwrap().telemetry_overhead_pct,
                cells.last().unwrap().tracer_overhead_pct,
                cells.last().unwrap().both_overhead_pct,
            );
        }
    }
    probes.push(noiselab_bench::probe_ms());
    let probe_ms = noiselab_stats::median(&probes);
    println!("host probe: median {probe_ms:.1} ms (reference {PROBE_REF_MS} ms)");
    Snapshot {
        label,
        reps,
        commit: first_line("git", &["describe", "--always", "--dirty", "--abbrev=12"]),
        rustc: first_line("rustc", &["-V"]),
        cpu_model: cpu_model(),
        probe_ms,
        cells,
    }
}

/// Compare a fresh sweep against the committed history; returns the
/// regressions as `(workload/config key, human-readable line)` pairs.
fn check(history: &History, fresh: &Snapshot) -> Vec<(String, String)> {
    let committed = history.latest();
    let mut bad = Vec::new();
    for cell in &fresh.cells {
        let Some(prev) = committed
            .cells
            .iter()
            .find(|c| c.workload == cell.workload && c.config == cell.config)
        else {
            continue;
        };
        let pct =
            (cell.bare_ns_per_event - prev.bare_ns_per_event) / prev.bare_ns_per_event * 100.0;
        if pct > GATE_PCT {
            bad.push((
                format!("{}/{}", cell.workload, cell.config),
                format!(
                    "{} / {}: bare {:.1} -> {:.1} ns/event ({:+.1}% > {:.0}% gate)",
                    cell.workload,
                    cell.config,
                    prev.bare_ns_per_event,
                    cell.bare_ns_per_event,
                    pct,
                    GATE_PCT
                ),
            ));
        }
    }
    bad
}

/// Stop before measuring anything: the history or the rep count is unusable.
fn refuse(why: &str) -> ! {
    eprintln!("noiselab-bench: hotpath: {why}");
    std::process::exit(2)
}

fn main() {
    let t0 = noiselab_bench::wall_clock();
    #[expect(
        clippy::disallowed_methods,
        reason = "the rep count only sets how often a cell is timed"
    )]
    let reps: u32 = match std::env::var("NOISELAB_BENCH_REPS") {
        Err(std::env::VarError::NotPresent) => 5,
        Ok(v) => v.parse().unwrap_or_else(|_| {
            refuse(&format!(
                "NOISELAB_BENCH_REPS wants a count of reps, got '{v}'"
            ))
        }),
        Err(e) => refuse(&format!("NOISELAB_BENCH_REPS: {e}")),
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "selects gate mode over snapshot mode; no cell reads it"
    )]
    let check_mode = std::env::var("NOISELAB_BENCH_CHECK").is_ok_and(|v| v == "1");
    // A missing history starts a new one; an unreadable one is refused,
    // never overwritten by a fresh baseline.
    let existing: Option<History> = match std::fs::read_to_string(OUT) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => refuse(&format!("cannot read {OUT}: {e}")),
        Ok(text) => Some(
            serde_json::from_str(&text)
                .unwrap_or_else(|e| refuse(&format!("{OUT} is not a hot-path history: {e}"))),
        ),
    };

    if check_mode {
        let history = existing.expect("check mode needs a committed BENCH_hotpath.json");
        let fresh = sweep(reps, "check".into());
        let mut bad = check(&history, &fresh);
        if !bad.is_empty() {
            // A genuine regression reproduces; a transient load spike
            // on a shared host does not. Re-measure once and keep only
            // the cells that exceed the gate in both sweeps.
            let retry = sweep(reps, "check-retry".into());
            let confirmed = check(&history, &retry);
            bad.retain(|(key, _)| confirmed.iter().any(|(k, _)| k == key));
        }
        if bad.is_empty() {
            println!(
                "hotpath perf gate: OK vs '{}' ({} cells within {:.0}%)",
                history.latest().label,
                fresh.cells.len(),
                GATE_PCT
            );
        } else {
            eprintln!("hotpath perf gate: REGRESSION");
            for (_, line) in &bad {
                eprintln!("  {line}");
            }
            std::process::exit(1);
        }
        noiselab_bench::finish("hotpath", t0);
        return;
    }

    let history = match existing {
        None => {
            #[expect(
                clippy::disallowed_methods,
                reason = "the label only names the snapshot step"
            )]
            let label = std::env::var("NOISELAB_BENCH_LABEL").unwrap_or_else(|_| "baseline".into());
            History {
                bench: "hotpath".into(),
                baseline: sweep(reps, label),
                steps: Vec::new(),
            }
        }
        Some(mut h) => {
            #[expect(
                clippy::disallowed_methods,
                reason = "the label only names the snapshot step"
            )]
            let label = std::env::var("NOISELAB_BENCH_LABEL")
                .unwrap_or_else(|_| format!("step-{}", h.steps.len() + 1));
            h.steps.push(sweep(reps, label));
            h
        }
    };
    match serde_json::to_string_pretty(&history) {
        Ok(json) => {
            if let Err(e) = std::fs::write(OUT, json + "\n") {
                eprintln!("noiselab-bench: hotpath history not written: {e}");
            } else {
                println!("wrote {OUT} (snapshot '{}')", history.latest().label);
            }
        }
        Err(e) => eprintln!("noiselab-bench: hotpath history not serialized: {e}"),
    }
    noiselab_bench::finish("hotpath", t0);
}
