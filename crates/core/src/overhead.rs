//! Observation-overhead report: what does observing a run cost, in
//! virtual time and in host time?
//!
//! The paper's Table 1 quantifies the osnoise tracer's overhead on real
//! hardware; this module produces the simulator-side analogue, and the
//! two observers deliberately behave differently:
//!
//! * the **tracer** models ftrace: the kernel charges
//!   `trace_event_overhead` per record, so tracing has a real,
//!   reportable *virtual*-time effect (the Table 1 effect; the shifted
//!   interleaving can move `exec` in either direction);
//! * **telemetry** is a pure observer: `exec` and `stream_hash` are
//!   bit-identical with it on or off (asserted here for both tracing
//!   modes, proven property-style in the purity suite).
//!
//! Host cost is real for both and is measured through the workspace's
//! single host-clock site, [`wall_clock`], under a clippy `#[expect]`.
//! A host-time phase profile (event dispatch / scheduler / tracer /
//! stats) rides along so regressions can be localised.

use crate::execconfig::ExecConfig;
use crate::failure::RunFailure;
use crate::harness::{run, RunSpec};
use crate::platform::Platform;
use noiselab_telemetry::{wall_clock, PhaseProfiler, PhaseReport, TelemetryConfig};
use noiselab_workloads::Workload;
use serde::{Deserialize, Serialize};

/// One observation mode's measured cost.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OverheadRow {
    /// "bare", "+telemetry", "+tracer" or "+both".
    pub mode: String,
    /// Virtual workload execution time (seconds). Telemetry never
    /// moves it; the tracer's per-record cost does.
    pub exec_s: f64,
    /// Event-stream hash — identical with telemetry on or off.
    pub stream_hash: u64,
    /// Virtual-time overhead relative to the bare run, percent (the
    /// Table 1 analogue; nonzero only for traced modes).
    pub virt_overhead_pct: f64,
    /// Best-of-`reps` host wall time for one run (nanoseconds).
    pub host_ns: u64,
    /// Host nanoseconds per dispatched kernel event.
    pub host_ns_per_event: f64,
    /// Host-time overhead relative to the bare run, percent.
    pub overhead_pct: f64,
}

/// The full observation-overhead report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OverheadReport {
    pub workload: String,
    pub config: String,
    pub seed: u64,
    /// Repetitions per mode; each row reports the minimum.
    pub reps: u32,
    /// Kernel events dispatched per run, as the sanitizer counts them
    /// (the last mode, tracer and telemetry attached).
    pub events: u64,
    pub rows: Vec<OverheadRow>,
    /// Host self-time per simulator phase, from one profiled run with
    /// telemetry and tracer attached.
    pub profile: PhaseReport,
}

impl OverheadReport {
    /// Plain-text table, one mode per line, then the phase profile.
    pub fn render(&self) -> String {
        let mut out = format!(
            "observation overhead: {} / {} seed {} ({} events/run, best of {})\n\
             {:<12} {:>12} {:>10} {:>12} {:>14} {:>10}\n",
            self.workload,
            self.config,
            self.seed,
            self.events,
            self.reps,
            "mode",
            "virtual",
            "virt ovh",
            "host",
            "host ns/event",
            "host ovh"
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<12} {:>11.6}s {:>+9.3}% {:>12} {:>14.1} {:>+9.1}%\n",
                r.mode,
                r.exec_s,
                r.virt_overhead_pct,
                noiselab_stats::fmt_ns(r.host_ns as f64),
                r.host_ns_per_event,
                r.overhead_pct,
            ));
        }
        out.push_str(&self.profile.render());
        out
    }
}

/// Measure one (workload, config, seed) point in all four observation
/// modes. Telemetry must leave virtual results bit-identical within
/// each tracing mode; a mismatch is a purity bug and panics rather
/// than producing a report that understates observer effects.
pub fn measure_overhead(
    platform: &Platform,
    workload: &(dyn Workload + Sync),
    cfg: &ExecConfig,
    seed: u64,
    reps: u32,
) -> Result<OverheadReport, RunFailure> {
    let bare = RunSpec::new(platform, workload, cfg, seed);
    let reps = reps.max(1);
    let mut rows = Vec::new();
    let mut events = 0u64;
    for (mode, tracing, telemetry) in [
        ("bare", false, false),
        ("+telemetry", false, true),
        ("+tracer", true, false),
        ("+both", true, true),
    ] {
        let mut best_ns = u64::MAX;
        let mut exec_s = 0.0;
        let mut stream_hash = 0u64;
        for _ in 0..reps {
            let spec = RunSpec {
                tracing,
                telemetry: telemetry.then(TelemetryConfig::default),
                ..bare.clone()
            };
            #[expect(
                clippy::disallowed_methods,
                reason = "host time only fills the report's ns column"
            )]
            let t0 = wall_clock();
            let inst = run(&spec, None)?;
            #[expect(
                clippy::disallowed_methods,
                reason = "host time only fills the report's ns column"
            )]
            let ns = wall_clock().duration_since(t0).as_nanos() as u64;
            best_ns = best_ns.min(ns);
            exec_s = inst.output.exec.as_secs_f64();
            stream_hash = inst.output.stream_hash;
            events = inst.sanitizer.events;
        }
        rows.push(OverheadRow {
            mode: mode.to_string(),
            exec_s,
            stream_hash,
            virt_overhead_pct: 0.0,
            host_ns: best_ns,
            host_ns_per_event: 0.0,
            overhead_pct: 0.0,
        });
    }

    // Telemetry purity: within each tracing mode, telemetry on vs off
    // must not move a single virtual bit.
    for (off, on) in [(0, 1), (2, 3)] {
        assert_eq!(
            (rows[off].exec_s, rows[off].stream_hash),
            (rows[on].exec_s, rows[on].stream_hash),
            "telemetry perturbed the {} simulation — observer purity violated",
            rows[off].mode
        );
    }
    let bare_ns = rows[0].host_ns.max(1) as f64;
    let bare_exec = rows[0].exec_s;
    for r in &mut rows {
        r.virt_overhead_pct = (r.exec_s - bare_exec) / bare_exec * 100.0;
        r.host_ns_per_event = r.host_ns as f64 / events.max(1) as f64;
        r.overhead_pct = (r.host_ns as f64 - bare_ns) / bare_ns * 100.0;
    }

    // One profiled run (everything attached) for the phase breakdown.
    let profiler = PhaseProfiler::new();
    let spec = RunSpec {
        tracing: true,
        telemetry: Some(TelemetryConfig::default()),
        ..bare
    };
    run(&spec, Some(&profiler))?;

    Ok(OverheadReport {
        workload: workload.name().to_string(),
        config: cfg.label(),
        seed,
        reps,
        events,
        rows,
        profile: profiler.report(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execconfig::{Mitigation, Model};
    use noiselab_workloads::NBody;

    #[test]
    fn overhead_report_covers_all_modes_and_stays_pure() {
        let p = Platform::intel();
        let w = NBody {
            bodies: 2_048,
            steps: 2,
            sycl_kernel_efficiency: 1.3,
        };
        let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm);
        let rep = measure_overhead(&p, &w, &cfg, 7, 1).expect("runs succeed");
        assert_eq!(rep.rows.len(), 4);
        assert!(rep.events > 0, "the sanitizer must count kernel events");
        // Telemetry is pure within each tracing mode...
        assert_eq!(rep.rows[0].exec_s, rep.rows[1].exec_s);
        assert_eq!(rep.rows[0].stream_hash, rep.rows[1].stream_hash);
        assert_eq!(rep.rows[2].exec_s, rep.rows[3].exec_s);
        assert_eq!(rep.rows[2].stream_hash, rep.rows[3].stream_hash);
        assert_eq!(rep.rows[1].virt_overhead_pct, 0.0);
        for r in &rep.rows {
            assert!(r.host_ns > 0);
        }
        let text = rep.render();
        assert!(text.contains("+tracer"));
        assert!(text.contains("dispatch"));
        let json = serde_json::to_string_pretty(&rep).expect("serialize");
        assert!(json.contains("overhead_pct"));
    }
}
