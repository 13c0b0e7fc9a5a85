//! The `osnoise`-style trace data model.
//!
//! Mirrors the schema of paper Fig. 3: each event records the logical
//! CPU, the event type (`irq_noise` / `softirq_noise` / `thread_noise`),
//! the source (process or interrupt name), the start timestamp relative
//! to the beginning of the trace, and the duration.

use noiselab_kernel::NoiseClass;
use noiselab_machine::CpuId;
use noiselab_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// One `osnoise` event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    pub cpu: CpuId,
    pub class: NoiseClass,
    /// Originating source, e.g. `local_timer:236`, `RCU:9`,
    /// `kworker/13:1`.
    pub source: String,
    /// Start time relative to the beginning of the trace.
    pub start: SimTime,
    pub duration: SimDuration,
}

impl TraceEvent {
    pub fn end(&self) -> SimTime {
        self.start + self.duration
    }

    /// Does this event overlap `other` in time (same CPU not required)?
    pub fn overlaps(&self, other: &TraceEvent) -> bool {
        self.start < other.end() && other.start < self.end()
    }
}

/// The full trace of one workload execution plus the measured execution
/// time — the unit the injector's pipeline consumes (1000 of these per
/// configuration in the paper).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunTrace {
    /// Which repetition produced this trace.
    pub run_index: usize,
    /// Workload execution time of this run.
    pub exec_time: SimDuration,
    /// All noise events observed during the run, in record order.
    pub events: Vec<TraceEvent>,
    /// Events the bounded tracer ring buffer could not record (like a
    /// real ftrace buffer under pressure). Zero for intact traces.
    #[serde(default)]
    pub dropped_events: u64,
    /// Per-CPU breakdown of `dropped_events` as `(cpu, dropped)` pairs,
    /// only for CPUs that dropped anything.
    #[serde(default)]
    pub dropped_by_cpu: Vec<(u32, u64)>,
    /// True when the ring buffer overflowed: per-source noise totals
    /// under-report actual interference, so analysis and worst-case
    /// selection down-weight this trace.
    #[serde(default)]
    pub degraded: bool,
}

impl RunTrace {
    /// An intact (no drops) trace.
    pub fn new(run_index: usize, exec_time: SimDuration, events: Vec<TraceEvent>) -> RunTrace {
        RunTrace {
            run_index,
            exec_time,
            events,
            dropped_events: 0,
            dropped_by_cpu: Vec::new(),
            degraded: false,
        }
    }

    /// Fraction of emitted events actually recorded, in `[0, 1]`.
    pub fn completeness(&self) -> f64 {
        let recorded = self.events.len() as u64;
        let emitted = recorded + self.dropped_events;
        if emitted == 0 {
            1.0
        } else {
            recorded as f64 / emitted as f64
        }
    }

    /// Total noise duration per class, for quick characterisation.
    pub fn noise_by_class(&self) -> [SimDuration; 3] {
        let mut out = [SimDuration::ZERO; 3];
        for e in &self.events {
            let idx = match e.class {
                NoiseClass::Irq => 0,
                NoiseClass::Softirq => 1,
                NoiseClass::Thread => 2,
            };
            out[idx] += e.duration;
        }
        out
    }

    /// Total noise duration attributed to `source`.
    pub fn noise_of_source(&self, source: &str) -> SimDuration {
        self.events
            .iter()
            .filter(|e| e.source == source)
            .map(|e| e.duration)
            .fold(SimDuration::ZERO, |a, b| a + b)
    }

    /// Distinct sources present in the trace, sorted.
    pub fn sources(&self) -> Vec<String> {
        let mut v: Vec<String> = self.events.iter().map(|e| e.source.clone()).collect();
        v.sort();
        v.dedup();
        v
    }
}

/// A set of baseline traces for one workload configuration.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceSet {
    pub runs: Vec<RunTrace>,
}

impl TraceSet {
    /// Index of the worst-case (longest) execution. Degraded traces
    /// (truncated by the tracer ring buffer) are only considered when
    /// every trace in the set is degraded: a truncated trace would
    /// feed the injection generator an under-reported noise profile.
    pub fn worst_index(&self) -> Option<usize> {
        let pick = |degraded_ok: bool| {
            self.runs
                .iter()
                .enumerate()
                .filter(|(_, r)| degraded_ok || !r.degraded)
                .max_by_key(|(_, r)| r.exec_time)
                .map(|(i, _)| i)
        };
        pick(false).or_else(|| pick(true))
    }

    /// How many traces in the set are degraded.
    pub fn degraded_count(&self) -> usize {
        self.runs.iter().filter(|r| r.degraded).count()
    }

    pub fn worst(&self) -> Option<&RunTrace> {
        self.worst_index().map(|i| &self.runs[i])
    }

    /// Mean execution time across runs.
    pub fn mean_exec(&self) -> Option<SimDuration> {
        if self.runs.is_empty() {
            return None;
        }
        let total: u64 = self.runs.iter().map(|r| r.exec_time.nanos()).sum();
        Some(SimDuration(total / self.runs.len() as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cpu: u32, class: NoiseClass, source: &str, start: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            cpu: CpuId(cpu),
            class,
            source: source.into(),
            start: SimTime(start),
            duration: SimDuration(dur),
        }
    }

    #[test]
    fn overlap_detection() {
        let a = ev(0, NoiseClass::Irq, "x", 100, 50);
        let b = ev(0, NoiseClass::Irq, "y", 120, 10);
        let c = ev(0, NoiseClass::Irq, "z", 150, 10);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c)); // [100,150) vs [150,160): touching, no overlap
    }

    #[test]
    fn noise_by_class_partitions() {
        let t = RunTrace::new(
            0,
            SimDuration(1_000_000),
            vec![
                ev(0, NoiseClass::Irq, "local_timer:236", 0, 300),
                ev(1, NoiseClass::Softirq, "RCU:9", 10, 140),
                ev(2, NoiseClass::Thread, "kworker/2:1", 20, 3760),
                ev(3, NoiseClass::Irq, "local_timer:236", 30, 200),
            ],
        );
        let [irq, soft, thr] = t.noise_by_class();
        assert_eq!(irq, SimDuration(500));
        assert_eq!(soft, SimDuration(140));
        assert_eq!(thr, SimDuration(3760));
        assert_eq!(t.noise_of_source("local_timer:236"), SimDuration(500));
        assert_eq!(t.sources(), vec!["RCU:9", "kworker/2:1", "local_timer:236"]);
    }

    #[test]
    fn worst_index_is_longest_run() {
        let mk = |i, ns| RunTrace::new(i, SimDuration(ns), vec![]);
        let set = TraceSet {
            runs: vec![mk(0, 100), mk(1, 900), mk(2, 300)],
        };
        assert_eq!(set.worst_index(), Some(1));
        assert_eq!(set.mean_exec(), Some(SimDuration(433)));
    }

    #[test]
    fn worst_index_skips_degraded_traces() {
        let mk = |i, ns, degraded| {
            let mut t = RunTrace::new(i, SimDuration(ns), vec![]);
            if degraded {
                t.dropped_events = 10;
                t.degraded = true;
            }
            t
        };
        // The longest run is degraded: the intact runner-up wins.
        let set = TraceSet {
            runs: vec![mk(0, 100, false), mk(1, 900, true), mk(2, 300, false)],
        };
        assert_eq!(set.worst_index(), Some(2));
        assert_eq!(set.degraded_count(), 1);
        // All degraded: fall back to the longest anyway.
        let all = TraceSet {
            runs: vec![mk(0, 100, true), mk(1, 900, true)],
        };
        assert_eq!(all.worst_index(), Some(1));
    }

    #[test]
    fn completeness_reflects_drops() {
        let mut t = RunTrace::new(0, SimDuration(1), vec![ev(0, NoiseClass::Irq, "x", 0, 1)]);
        assert_eq!(t.completeness(), 1.0);
        t.dropped_events = 3;
        t.degraded = true;
        assert_eq!(t.completeness(), 0.25);
        let empty = RunTrace::new(0, SimDuration(1), vec![]);
        assert_eq!(empty.completeness(), 1.0);
    }

    #[test]
    fn json_roundtrip() {
        let mut t = RunTrace::new(
            3,
            SimDuration(42),
            vec![ev(5, NoiseClass::Thread, "kworker/5:0", 255, 310)],
        );
        t.dropped_events = 2;
        t.dropped_by_cpu = vec![(5, 2)];
        t.degraded = true;
        let s = serde_json::to_string(&t).unwrap();
        let back: RunTrace = serde_json::from_str(&s).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn old_trace_json_still_deserialises() {
        // Traces serialised before drop accounting existed have no
        // dropped/degraded fields; they read back as intact.
        let s = r#"{"run_index":1,"exec_time":99,"events":[]}"#;
        let t: RunTrace = serde_json::from_str(s).unwrap();
        assert_eq!(t.dropped_events, 0);
        assert!(!t.degraded);
    }
}
