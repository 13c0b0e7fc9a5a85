//! Dual-run event-stream divergence localisation.
//!
//! The determinism contract says two runs of the same (platform,
//! workload, config, seed) dispatch bit-identical event streams. When
//! the contract breaks, a single mismatched hash says *that* the runs
//! diverged but not *where*. This module localises the break: both runs
//! re-execute with periodic hash checkpoints, a binary search over the
//! checkpoint prefix finds the first mismatching checkpoint, and a
//! final pair of runs logs full event digests inside that one
//! checkpoint window so the report can name the first divergent event —
//! its index, virtual time, kind and CPU/thread.
//!
//! The runs are arbitrary [`StreamRunner`]s; the harness-backed
//! [`dual_run_harness`] compares two executions of the same cell, with
//! an optional deliberate perturbation of the second run (the chaos
//! hook used by the test suite and the CLI smoke check to prove the
//! pipeline localises correctly).

use crate::execconfig::ExecConfig;
use crate::harness::{run, RunSpec};
use crate::platform::Platform;
use noiselab_kernel::{LoggedEvent, SanitizerConfig, SanitizerReport};
use noiselab_workloads::Workload;

/// Default checkpoint cadence for dual runs: small enough that the
/// localisation window stays a handful of events, large enough that the
/// checkpoint vector stays negligible next to the run itself.
pub const DEFAULT_CADENCE: u64 = 64;

/// One side's view of the first divergent event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivergentEvent {
    /// 0-based event index in the dispatch order.
    pub index: u64,
    /// Rendered digest (`#idx t=..ms cpuN kind`), or a note that this
    /// run's stream had already ended.
    pub digest: String,
}

/// Where and how two event streams first disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivergenceReport {
    pub hash_a: u64,
    pub hash_b: u64,
    pub events_a: u64,
    pub events_b: u64,
    /// The checkpoint window `[lo, hi)` the bisection narrowed to.
    pub window: (u64, u64),
    /// Run A's event at the first divergent index.
    pub first_a: DivergentEvent,
    /// Run B's event at the same index.
    pub first_b: DivergentEvent,
}

impl DivergenceReport {
    /// Multi-line human rendering for CLI and CI output.
    pub fn render(&self) -> String {
        format!(
            "event streams diverge: hash {:016x} vs {:016x} ({} vs {} events)\n\
             bisection window: events [{}, {})\n\
             first divergent event at index {}:\n\
               run A: {}\n\
               run B: {}",
            self.hash_a,
            self.hash_b,
            self.events_a,
            self.events_b,
            self.window.0,
            self.window.1,
            self.first_a.index,
            self.first_a.digest,
            self.first_b.digest,
        )
    }
}

/// Outcome of a dual run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DualRunOutcome {
    /// The streams are bit-identical: same hash, same length.
    Identical { events: u64, hash: u64 },
    /// The streams differ; the report names the first divergent event.
    Diverged(Box<DivergenceReport>),
}

impl DualRunOutcome {
    pub fn is_identical(&self) -> bool {
        matches!(self, DualRunOutcome::Identical { .. })
    }
}

/// A side of a dual run: executes the simulation once under the given
/// sanitizer configuration and returns the sanitizer report. Errors are
/// strings: a run that cannot finish cannot be bisected.
pub trait StreamRunner {
    fn run(&self, sanitizer: SanitizerConfig) -> Result<SanitizerReport, String>;
}

impl<F> StreamRunner for F
where
    F: Fn(SanitizerConfig) -> Result<SanitizerReport, String>,
{
    fn run(&self, sanitizer: SanitizerConfig) -> Result<SanitizerReport, String> {
        self(sanitizer)
    }
}

/// Compare two streams, localising the first divergent event when they
/// differ. Each runner executes at most twice: once with checkpoints,
/// once more with a log window if the first pass found a divergence.
pub fn dual_run(
    a: &dyn StreamRunner,
    b: &dyn StreamRunner,
    cadence: u64,
) -> Result<DualRunOutcome, String> {
    let cadence = cadence.max(1);
    let ra = a.run(SanitizerConfig::with_cadence(cadence))?;
    let rb = b.run(SanitizerConfig::with_cadence(cadence))?;
    if ra.hash == rb.hash && ra.events == rb.events {
        return Ok(DualRunOutcome::Identical {
            events: ra.events,
            hash: ra.hash,
        });
    }

    // Bisect the checkpoint prefix. Divergence is monotone — once the
    // streams disagree, every later running hash disagrees (modulo a
    // 2^-64 collision) — so binary search applies.
    let n = ra.checkpoints.len().min(rb.checkpoints.len());
    let k = partition_point(n, |i| ra.checkpoints[i] == rb.checkpoints[i]);
    let lo = if k == 0 {
        0
    } else {
        ra.checkpoints[k - 1].index
    };
    let hi = if k < n {
        ra.checkpoints[k].index
    } else {
        // Divergence after the last shared checkpoint: window runs to
        // the longer stream's end.
        ra.events.max(rb.events)
    };

    // Localisation pass: log full digests inside the window.
    let window = Some((lo, hi));
    let la = a.run(SanitizerConfig {
        cadence: 0,
        window,
        perturb_at: None,
    })?;
    let lb = b.run(SanitizerConfig {
        cadence: 0,
        window,
        perturb_at: None,
    })?;
    let (first_a, first_b) = first_difference(lo, &la.log, &lb.log);

    Ok(DualRunOutcome::Diverged(Box::new(DivergenceReport {
        hash_a: ra.hash,
        hash_b: rb.hash,
        events_a: ra.events,
        events_b: rb.events,
        window: (lo, hi),
        first_a,
        first_b,
    })))
}

/// `std`-style partition point over `0..n` for a prefix predicate.
fn partition_point(n: usize, pred: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0usize, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// First index at which the two window logs disagree (or one ends).
fn first_difference(
    window_lo: u64,
    a: &[LoggedEvent],
    b: &[LoggedEvent],
) -> (DivergentEvent, DivergentEvent) {
    let describe = |e: Option<&LoggedEvent>, index: u64| match e {
        Some(e) => DivergentEvent {
            index,
            digest: e.render(),
        },
        None => DivergentEvent {
            index,
            digest: "<stream ended>".into(),
        },
    };
    let n = a.len().max(b.len());
    for i in 0..n {
        let (ea, eb) = (a.get(i), b.get(i));
        if ea != eb {
            let index = ea.or(eb).map(|e| e.index).unwrap_or(window_lo + i as u64);
            return (describe(ea, index), describe(eb, index));
        }
    }
    // Logs agree over the whole window — the divergence is a pure
    // length difference past it; point at the first unlogged index.
    let index = window_lo + n as u64;
    (describe(None, index), describe(None, index))
}

/// Harness-backed dual run of one experiment cell at one seed. With
/// `perturb_b = Some(i)`, run B injects a synthetic device IRQ after
/// dispatching event `i`, deliberately breaking determinism so the
/// pipeline's localisation can be validated end to end.
pub fn dual_run_harness(
    platform: &Platform,
    workload: &(dyn Workload + Sync),
    cfg: &ExecConfig,
    seed: u64,
    perturb_b: Option<u64>,
    cadence: u64,
) -> Result<DualRunOutcome, String> {
    let run_side = |perturb_at: Option<u64>, sanitizer: SanitizerConfig| {
        let spec = RunSpec {
            sanitizer: SanitizerConfig {
                perturb_at,
                ..sanitizer
            },
            ..RunSpec::new(platform, workload, cfg, seed)
        };
        run(&spec, None)
            .map(|r| r.sanitizer)
            .map_err(|f| format!("run failed: {f:?}"))
    };
    let a = |sanitizer: SanitizerConfig| run_side(None, sanitizer);
    let b = |sanitizer: SanitizerConfig| run_side(perturb_b, sanitizer);
    dual_run(&a, &b, cadence)
}

#[cfg(test)]
mod tests {
    use super::*;
    use noiselab_sim::SimTime;

    /// A synthetic runner replaying a fixed stream of (time, kind, cpu)
    /// triples through a real `EventSanitizer`.
    struct Replay(Vec<(u64, u8, u32)>);

    impl StreamRunner for Replay {
        fn run(&self, sanitizer: SanitizerConfig) -> Result<SanitizerReport, String> {
            use noiselab_kernel::{EventKind, EventRecord, EventSanitizer};
            let mut s = EventSanitizer::new(sanitizer);
            for &(t, k, c) in &self.0 {
                let kind = match k {
                    0 => EventKind::Tick,
                    1 => EventKind::IrqDone,
                    _ => EventKind::DeviceIrq,
                };
                s.observe(&EventRecord {
                    kind,
                    cpu: Some(c),
                    thread: None,
                    time: SimTime(t),
                    duration_ns: 0,
                    source: None,
                });
            }
            Ok(s.into_report())
        }
    }

    fn stream(n: u64) -> Vec<(u64, u8, u32)> {
        (0..n)
            .map(|i| (i * 10, (i % 2) as u8, (i % 4) as u32))
            .collect()
    }

    #[test]
    fn identical_streams_report_identical() {
        let a = Replay(stream(500));
        let b = Replay(stream(500));
        let out = dual_run(&a, &b, 64).unwrap();
        assert!(out.is_identical());
    }

    #[test]
    fn single_event_edit_is_localised_exactly() {
        let mut edited = stream(500);
        edited[237].2 += 1; // different CPU at index 237
        let a = Replay(stream(500));
        let b = Replay(edited);
        let DualRunOutcome::Diverged(report) = dual_run(&a, &b, 64).unwrap() else {
            panic!("edit not detected");
        };
        assert_eq!(report.first_a.index, 237);
        assert_eq!(report.first_b.index, 237);
        assert_ne!(report.first_a.digest, report.first_b.digest);
        assert!(report.window.0 <= 237 && 237 < report.window.1);
        // The window is one cadence interval, not the whole run.
        assert!(report.window.1 - report.window.0 <= 64);
    }

    #[test]
    fn truncated_stream_points_past_the_common_prefix() {
        let a = Replay(stream(500));
        let b = Replay(stream(450));
        let DualRunOutcome::Diverged(report) = dual_run(&a, &b, 64).unwrap() else {
            panic!("truncation not detected");
        };
        assert_eq!(report.events_a, 500);
        assert_eq!(report.events_b, 450);
        assert_eq!(report.first_a.index, 450);
        assert_eq!(report.first_b.digest, "<stream ended>");
    }

    #[test]
    fn divergence_in_the_first_window_is_found() {
        let mut edited = stream(500);
        edited[3].0 += 1;
        let a = Replay(stream(500));
        let b = Replay(edited);
        let DualRunOutcome::Diverged(report) = dual_run(&a, &b, 64).unwrap() else {
            panic!("early edit not detected");
        };
        assert_eq!(report.first_a.index, 3);
        assert_eq!(report.window.0, 0);
    }

    #[test]
    fn report_renders_all_fields() {
        let mut edited = stream(200);
        edited[100].1 = 2;
        let a = Replay(stream(200));
        let b = Replay(edited);
        let DualRunOutcome::Diverged(report) = dual_run(&a, &b, 32).unwrap() else {
            panic!("edit not detected");
        };
        let text = report.render();
        assert!(text.contains("first divergent event at index 100"));
        assert!(text.contains("run A: "));
        assert!(text.contains("run B: "));
    }
}
