//! Noise configuration generation (paper §4.2).
//!
//! From the set of baseline traces this module:
//!
//! 1. computes the *average system noise*: per-source average event
//!    frequency (events per run) and average duration — the inherent
//!    noise floor that will still be present during injection;
//! 2. takes the worst-case trace (longest execution) and subtracts the
//!    inherent noise from it: for each expected occurrence of a source,
//!    the event whose duration is closest to the source's average is
//!    reduced by the average duration (removed if nothing remains) —
//!    leaving only the residual "delta" noise to inject;
//! 3. maps each remaining event to a replay policy (`thread_noise` →
//!    `SCHED_OTHER`, `irq/softirq_noise` → `SCHED_FIFO`);
//! 4. merges events that overlap on the same CPU. Two strategies are
//!    implemented, mirroring the paper's §5.2 finding: the original
//!    *pessimistic* merge collapses everything that overlaps into one
//!    segment replayed under FIFO (which the paper found compromised a
//!    trace, 25.74 % accuracy error), and the *improved* merge keeps
//!    interrupt-based and thread-based noise separate and boosts the
//!    priority of thread-based noise (restoring accuracy to 5.70 %).

use crate::config::{
    policy_for_class, CpuNoiseList, InjectPolicy, InjectionConfig, NoiseEventSpec,
};
use noiselab_kernel::NoiseClass;
use noiselab_machine::CpuId;
use noiselab_noise::{RunTrace, TraceEvent, TraceSet};
use noiselab_sim::SimDuration;
use std::collections::{BTreeMap, BTreeSet};

/// Per-source inherent-noise statistics across the baseline runs.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceStats {
    /// Average number of occurrences per run.
    pub avg_count: f64,
    /// Average event duration.
    pub avg_duration: SimDuration,
    /// Total events observed over all runs.
    pub total_count: usize,
}

/// Average frequency and duration of every noise source across all runs
/// (step 1). Deterministic ordering via `BTreeMap`.
pub fn source_statistics(traces: &TraceSet) -> BTreeMap<String, SourceStats> {
    let mut sums: BTreeMap<String, (usize, u128)> = BTreeMap::new();
    for run in &traces.runs {
        for e in &run.events {
            let entry = sums.entry(e.source.clone()).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += e.duration.nanos() as u128;
        }
    }
    let n_runs = traces.runs.len().max(1);
    sums.into_iter()
        .map(|(src, (count, dur))| {
            let stats = SourceStats {
                avg_count: count as f64 / n_runs as f64,
                avg_duration: SimDuration((dur / count.max(1) as u128) as u64),
                total_count: count,
            };
            (src, stats)
        })
        .collect()
}

/// Merge strategy for overlapping events on one CPU (paper §5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MergeStrategy {
    /// Original behaviour: merge *all* overlapping events into a single
    /// segment and pessimistically replay it under `SCHED_FIFO` if any
    /// constituent was FIFO. Produces long RT segments from diverse
    /// noise and compromised one of the paper's traces.
    NaivePessimistic,
    /// Improved behaviour: never merge interrupt-based with thread-based
    /// noise; boost the initial priority of thread-based noise (nice −5)
    /// so the scheduler replays it aggressively enough.
    Improved,
}

use serde::{Deserialize, Serialize};

/// Knobs for configuration generation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneratorOptions {
    pub merge: MergeStrategy,
    /// Drop residual events shorter than this after delta subtraction
    /// (they are indistinguishable from inherent noise).
    pub min_residual: SimDuration,
    /// Gap-bridging threshold of the naive merge: events on one CPU
    /// separated by less than this are glued into one segment. This is
    /// the pessimistic part — on a contended CPU, noise fragments from
    /// different sources alternate with the workload's own timeslices,
    /// and bridging injects those workload turns as noise too.
    pub naive_gap_bridge: SimDuration,
}

impl Default for GeneratorOptions {
    fn default() -> Self {
        GeneratorOptions {
            merge: MergeStrategy::Improved,
            min_residual: SimDuration::from_nanos(500),
            naive_gap_bridge: SimDuration::from_millis(5),
        }
    }
}

impl GeneratorOptions {
    fn thread_nice(&self) -> i8 {
        match self.merge {
            MergeStrategy::NaivePessimistic => 0,
            MergeStrategy::Improved => -5,
        }
    }
}

/// Step 2: subtract the inherent (average) noise from the worst-case
/// trace. Returns the surviving residual events.
///
/// For each source, `round(avg_count)` occurrences are expected to recur
/// naturally during injection; for each expected occurrence, the event
/// with duration closest to the source average is reduced by the average
/// duration (dropped if nothing meaningful remains).
pub fn subtract_average(
    worst: &RunTrace,
    stats: &BTreeMap<String, SourceStats>,
    min_residual: SimDuration,
) -> Vec<TraceEvent> {
    let mut events: Vec<TraceEvent> = worst.events.clone();
    let mut alive: Vec<bool> = vec![true; events.len()];

    // Per source, its live events keyed by (distance from the average,
    // index): the first key is the closest event, lowest index on ties.
    let mut live: BTreeMap<&str, BTreeSet<(u64, usize)>> = BTreeMap::new();
    for (i, e) in worst.events.iter().enumerate() {
        if let Some(s) = stats.get(&e.source) {
            let diff = e.duration.nanos().abs_diff(s.avg_duration.nanos());
            live.entry(&e.source).or_default().insert((diff, i));
        }
    }

    for (source, s) in stats {
        let Some(set) = live.get_mut(source.as_str()) else {
            continue;
        };
        let expected = s.avg_count.round() as usize;
        for _ in 0..expected {
            // Closest-to-average live event of this source.
            let Some((_, i)) = set.pop_first() else { break };
            if events[i].duration > s.avg_duration {
                events[i].duration -= s.avg_duration;
                if events[i].duration < min_residual {
                    alive[i] = false;
                } else {
                    let diff = events[i].duration.nanos().abs_diff(s.avg_duration.nanos());
                    set.insert((diff, i));
                }
            } else {
                alive[i] = false;
            }
        }
    }

    events
        .into_iter()
        .zip(alive)
        .filter_map(|(e, a)| (a && e.duration >= min_residual).then_some(e))
        .collect()
}

/// Steps 3–4: assign policies and merge per-CPU overlaps, producing the
/// final configuration.
pub fn build_config(
    origin: impl Into<String>,
    anomaly_exec: SimDuration,
    residual: Vec<TraceEvent>,
    opts: &GeneratorOptions,
) -> InjectionConfig {
    // Group events per CPU.
    let mut per_cpu: BTreeMap<u32, Vec<TraceEvent>> = BTreeMap::new();
    for e in residual {
        per_cpu.entry(e.cpu.0).or_default().push(e);
    }

    let mut lists = Vec::new();
    for (cpu, mut events) in per_cpu {
        events.sort_by_key(|e| (e.start, e.duration));
        let merged = match opts.merge {
            MergeStrategy::NaivePessimistic => {
                merge_all_pessimistic(&events, opts.naive_gap_bridge)
            }
            MergeStrategy::Improved => merge_by_category(&events, opts.thread_nice()),
        };
        if !merged.is_empty() {
            lists.push(CpuNoiseList {
                cpu: CpuId(cpu),
                events: merged,
            });
        }
    }
    InjectionConfig {
        origin: origin.into(),
        anomaly_exec,
        lists,
    }
}

/// The complete pipeline: statistics → worst-case selection → delta
/// subtraction → policy mapping and merging.
pub fn generate(
    origin: impl Into<String>,
    traces: &TraceSet,
    opts: &GeneratorOptions,
) -> Option<InjectionConfig> {
    let worst = traces.worst()?;
    let stats = source_statistics(traces);
    let residual = subtract_average(worst, &stats, opts.min_residual);
    Some(build_config(origin, worst.exec_time, residual, opts))
}

fn is_rt_class(class: NoiseClass) -> bool {
    matches!(class, NoiseClass::Irq | NoiseClass::Softirq)
}

/// Naive merge: any chain of overlapping (or nearly adjacent, within
/// `bridge`) events becomes one segment spanning first start to last
/// end; if any member was IRQ-based the whole segment replays under
/// FIFO. This reproduces the paper's original compromised behaviour.
fn merge_all_pessimistic(events: &[TraceEvent], bridge: SimDuration) -> Vec<NoiseEventSpec> {
    let mut out: Vec<NoiseEventSpec> = Vec::new();
    for e in events {
        let policy = policy_for_class(e.class, 0);
        match out.last_mut() {
            Some(last) if e.start < last.end() + bridge => {
                // Extend the segment; escalate to FIFO if needed.
                let new_end = last.end().max(e.end());
                last.duration = new_end - last.start;
                if policy == InjectPolicy::Fifo {
                    last.policy = InjectPolicy::Fifo;
                }
                if !last.source.contains(&e.source) {
                    last.source.push('+');
                    last.source.push_str(&e.source);
                }
            }
            _ => out.push(NoiseEventSpec {
                start: e.start,
                duration: e.duration,
                policy,
                source: e.source.clone(),
            }),
        }
    }
    out
}

/// Improved merge: interrupt-based and thread-based noise are merged
/// independently (so thread noise is never escalated to FIFO), and
/// thread noise gets a boosted priority.
fn merge_by_category(events: &[TraceEvent], thread_nice: i8) -> Vec<NoiseEventSpec> {
    let (rt, fair): (Vec<&TraceEvent>, Vec<&TraceEvent>) =
        events.iter().partition(|e| is_rt_class(e.class));

    let merge_one = |subset: &[&TraceEvent], policy: InjectPolicy| -> Vec<NoiseEventSpec> {
        let mut out: Vec<NoiseEventSpec> = Vec::new();
        for e in subset {
            match out.last_mut() {
                Some(last) if e.start < last.end() => {
                    let new_end = last.end().max(e.end());
                    last.duration = new_end - last.start;
                    if !last.source.contains(&e.source) {
                        last.source.push('+');
                        last.source.push_str(&e.source);
                    }
                }
                _ => out.push(NoiseEventSpec {
                    start: e.start,
                    duration: e.duration,
                    policy,
                    source: e.source.clone(),
                }),
            }
        }
        out
    };

    let mut merged = merge_one(&rt, InjectPolicy::Fifo);
    merged.extend(merge_one(&fair, InjectPolicy::Other { nice: thread_nice }));
    merged.sort_by_key(|e| (e.start, e.duration));
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use noiselab_sim::SimTime;

    fn ev(cpu: u32, class: NoiseClass, source: &str, start: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            cpu: CpuId(cpu),
            class,
            source: source.into(),
            start: SimTime(start),
            duration: SimDuration(dur),
        }
    }

    fn run(idx: usize, exec_ns: u64, events: Vec<TraceEvent>) -> RunTrace {
        RunTrace::new(idx, SimDuration(exec_ns), events)
    }

    #[test]
    fn statistics_average_counts_and_durations() {
        let set = TraceSet {
            runs: vec![
                run(0, 100, vec![ev(0, NoiseClass::Thread, "kworker", 0, 100)]),
                run(
                    1,
                    120,
                    vec![
                        ev(0, NoiseClass::Thread, "kworker", 0, 300),
                        ev(1, NoiseClass::Irq, "timer", 5, 50),
                    ],
                ),
            ],
        };
        let stats = source_statistics(&set);
        assert_eq!(stats["kworker"].avg_count, 1.0);
        assert_eq!(stats["kworker"].avg_duration, SimDuration(200));
        assert_eq!(stats["timer"].avg_count, 0.5);
        assert_eq!(stats["timer"].total_count, 1);
    }

    #[test]
    fn subtract_removes_expected_occurrences() {
        // Average: 1 kworker event of 200ns per run. Worst trace has two
        // kworker events (150ns, 5000ns): the one closest to 200ns is
        // reduced (150-200 <= 0 -> removed); the outlier survives.
        let mut stats = BTreeMap::new();
        stats.insert(
            "kworker".to_string(),
            SourceStats {
                avg_count: 1.0,
                avg_duration: SimDuration(200),
                total_count: 2,
            },
        );
        let worst = run(
            0,
            1000,
            vec![
                ev(0, NoiseClass::Thread, "kworker", 0, 150),
                ev(0, NoiseClass::Thread, "kworker", 500, 5000),
            ],
        );
        let res = subtract_average(&worst, &stats, SimDuration(100));
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].duration, SimDuration(5000));
    }

    #[test]
    fn subtract_reduces_durations() {
        let mut stats = BTreeMap::new();
        stats.insert(
            "kworker".to_string(),
            SourceStats {
                avg_count: 1.0,
                avg_duration: SimDuration(1000),
                total_count: 1,
            },
        );
        let worst = run(0, 1000, vec![ev(0, NoiseClass::Thread, "kworker", 0, 4000)]);
        let res = subtract_average(&worst, &stats, SimDuration(100));
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].duration, SimDuration(3000));
    }

    #[test]
    fn subtract_conserves_noise_mass() {
        // Total residual == total worst - subtracted amounts (within the
        // dropped small events).
        let mut stats = BTreeMap::new();
        stats.insert(
            "a".to_string(),
            SourceStats {
                avg_count: 2.0,
                avg_duration: SimDuration(100),
                total_count: 4,
            },
        );
        let worst = run(
            0,
            1000,
            vec![
                ev(0, NoiseClass::Thread, "a", 0, 500),
                ev(0, NoiseClass::Thread, "a", 600, 90),
                ev(0, NoiseClass::Thread, "a", 800, 700),
            ],
        );
        let res = subtract_average(&worst, &stats, SimDuration(1));
        // Events closest to 100: the 90 (removed), then the 500 -> 400.
        let total: u64 = res.iter().map(|e| e.duration.nanos()).sum();
        assert_eq!(total, 400 + 700);
    }

    #[test]
    fn pessimistic_merge_escalates_to_fifo() {
        let events = vec![
            ev(0, NoiseClass::Thread, "kworker", 0, 1000),
            ev(0, NoiseClass::Irq, "timer", 500, 100),
            ev(0, NoiseClass::Thread, "kworker2", 550, 2000),
        ];
        let merged = merge_all_pessimistic(&events, SimDuration::ZERO);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].policy, InjectPolicy::Fifo);
        assert_eq!(merged[0].start, SimTime(0));
        assert_eq!(merged[0].duration, SimDuration(2550));
    }

    #[test]
    fn improved_merge_keeps_thread_noise_fair() {
        let events = vec![
            ev(0, NoiseClass::Thread, "kworker", 0, 1000),
            ev(0, NoiseClass::Irq, "timer", 500, 100),
            ev(0, NoiseClass::Thread, "kworker2", 550, 2000),
        ];
        let merged = merge_by_category(&events, -5);
        // Thread chain merged (0..2550 overlap), IRQ separate.
        assert_eq!(merged.len(), 2);
        let fair: Vec<_> = merged
            .iter()
            .filter(|e| matches!(e.policy, InjectPolicy::Other { .. }))
            .collect();
        let rt: Vec<_> = merged
            .iter()
            .filter(|e| e.policy == InjectPolicy::Fifo)
            .collect();
        assert_eq!(fair.len(), 1);
        assert_eq!(fair[0].policy, InjectPolicy::Other { nice: -5 });
        assert_eq!(fair[0].duration, SimDuration(2550));
        assert_eq!(rt.len(), 1);
        assert_eq!(rt[0].duration, SimDuration(100));
    }

    #[test]
    fn non_overlapping_events_not_merged() {
        let events = vec![
            ev(0, NoiseClass::Thread, "a", 0, 100),
            ev(0, NoiseClass::Thread, "b", 200, 100),
        ];
        assert_eq!(merge_all_pessimistic(&events, SimDuration::ZERO).len(), 2);
        // With a bridge wider than the gap, the naive merge glues them.
        assert_eq!(merge_all_pessimistic(&events, SimDuration(150)).len(), 1);
        assert_eq!(merge_by_category(&events, 0).len(), 2);
    }

    #[test]
    fn full_pipeline_produces_sorted_valid_config() {
        // Four runs so the anomaly-only sources (storm, nvme) have an
        // average frequency that rounds to zero and survive subtraction.
        let set = TraceSet {
            runs: vec![
                run(
                    0,
                    1_000,
                    vec![ev(0, NoiseClass::Thread, "kworker", 10, 200)],
                ),
                run(
                    1,
                    1_010,
                    vec![ev(0, NoiseClass::Thread, "kworker", 12, 190)],
                ),
                run(2, 990, vec![ev(0, NoiseClass::Thread, "kworker", 9, 205)]),
                run(
                    3,
                    5_000,
                    vec![
                        ev(0, NoiseClass::Thread, "kworker", 10, 210),
                        ev(0, NoiseClass::Thread, "storm", 100, 4_000),
                        ev(1, NoiseClass::Irq, "nvme:64", 50, 900),
                    ],
                ),
            ],
        };
        let cfg = generate("test", &set, &GeneratorOptions::default()).unwrap();
        cfg.validate().unwrap();
        assert_eq!(cfg.anomaly_exec, SimDuration(5_000));
        // The average kworker event is subtracted; storm + irq survive.
        assert_eq!(cfg.event_count(), 2);
        let sources: Vec<_> = cfg
            .lists
            .iter()
            .flat_map(|l| l.events.iter().map(|e| e.source.clone()))
            .collect();
        assert!(sources.contains(&"storm".to_string()));
        assert!(sources.contains(&"nvme:64".to_string()));
    }

    #[test]
    fn empty_traceset_yields_none() {
        assert!(generate("x", &TraceSet::default(), &GeneratorOptions::default()).is_none());
    }
}
