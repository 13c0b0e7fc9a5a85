//! Property tests for the injector's configuration-generation pipeline:
//! delta subtraction conserves noise mass, never produces negative
//! durations, matches the plain rescanning formulation exactly, and
//! both merge strategies preserve per-CPU noise coverage.

use noiselab_injector::{
    build_config, source_statistics, subtract_average, GeneratorOptions, MergeStrategy, SourceStats,
};
use noiselab_kernel::NoiseClass;
use noiselab_machine::CpuId;
use noiselab_noise::{RunTrace, TraceEvent, TraceSet};
use noiselab_sim::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn class_strategy() -> impl Strategy<Value = NoiseClass> {
    prop_oneof![
        Just(NoiseClass::Irq),
        Just(NoiseClass::Softirq),
        Just(NoiseClass::Thread),
    ]
}

fn event_strategy() -> impl Strategy<Value = TraceEvent> {
    (
        0u32..4,
        class_strategy(),
        prop_oneof![Just("kworker"), Just("timer"), Just("storm"), Just("rcu")],
        0u64..1_000_000,
        1_000u64..5_000_000,
    )
        .prop_map(|(cpu, class, source, start, dur)| TraceEvent {
            cpu: CpuId(cpu),
            class,
            source: source.to_string(),
            start: SimTime(start),
            duration: SimDuration(dur),
        })
}

fn traceset_strategy() -> impl Strategy<Value = TraceSet> {
    proptest::collection::vec(
        (
            proptest::collection::vec(event_strategy(), 0..30),
            1_000u64..10_000_000,
        ),
        1..8,
    )
    .prop_map(|runs| TraceSet {
        runs: runs
            .into_iter()
            .enumerate()
            .map(|(i, (events, exec))| RunTrace::new(i, SimDuration(exec), events))
            .collect(),
    })
}

/// The delta subtraction as first written: for each expected
/// occurrence, rescan the whole trace for the live event of the source
/// closest to its average (lowest index on ties). Quadratic, kept as
/// the oracle for `subtract_average`.
fn subtract_average_scan(
    worst: &RunTrace,
    stats: &BTreeMap<String, SourceStats>,
    min_residual: SimDuration,
) -> Vec<TraceEvent> {
    let mut events: Vec<TraceEvent> = worst.events.clone();
    let mut alive: Vec<bool> = vec![true; events.len()];

    for (source, s) in stats {
        let expected = s.avg_count.round() as usize;
        for _ in 0..expected {
            let mut best: Option<(usize, u64)> = None;
            for (i, e) in events.iter().enumerate() {
                if !alive[i] || e.source != *source {
                    continue;
                }
                let diff = e.duration.nanos().abs_diff(s.avg_duration.nanos());
                if best.is_none_or(|(_, d)| diff < d) {
                    best = Some((i, diff));
                }
            }
            let Some((i, _)) = best else { break };
            if events[i].duration > s.avg_duration {
                events[i].duration -= s.avg_duration;
                if events[i].duration < min_residual {
                    alive[i] = false;
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

const SOURCES: [&str; 5] = ["timer", "rcu", "kworker", "ghost", "unlisted"];

/// A worst trace and hand-set statistics on a 250 ns grid: durations
/// repeat, residuals land exactly on `min_residual`, and high expected
/// counts pick one long event again and again. `ghost` may have no
/// events; `unlisted` events have no statistics.
fn subtraction_case_strategy(
) -> impl Strategy<Value = (RunTrace, BTreeMap<String, SourceStats>, SimDuration)> {
    (
        proptest::collection::vec((0usize..5, 0u64..24, 0u32..3), 0..40),
        proptest::collection::vec((0u64..8, 0u64..6), 4..5),
        0u64..4,
    )
        .prop_map(|(events, per_source, min_k)| {
            let events = events
                .into_iter()
                .enumerate()
                .map(|(i, (src, k, cpu))| TraceEvent {
                    cpu: CpuId(cpu),
                    class: NoiseClass::Irq,
                    source: SOURCES[src].to_string(),
                    start: SimTime(i as u64 * 100),
                    duration: SimDuration(k * 250),
                })
                .collect();
            let stats = per_source
                .into_iter()
                .zip(SOURCES)
                .map(|((count2, avg_k), src)| {
                    let stats = SourceStats {
                        // Halves, so `round` sees .5 too.
                        avg_count: count2 as f64 * 1.5,
                        avg_duration: SimDuration(avg_k * 250),
                        total_count: 0,
                    };
                    (src.to_string(), stats)
                })
                .collect();
            (
                RunTrace::new(0, SimDuration(1), events),
                stats,
                SimDuration(min_k * 250),
            )
        })
}

#[test]
fn subtraction_picks_one_long_event_repeatedly() {
    let event = |source: &str, dur: u64| TraceEvent {
        cpu: CpuId(0),
        class: NoiseClass::Thread,
        source: source.to_string(),
        start: SimTime(0),
        duration: SimDuration(dur),
    };
    let worst = RunTrace::new(0, SimDuration(1), vec![event("k", 10_000), event("k", 900)]);
    let stats = BTreeMap::from([(
        "k".to_string(),
        SourceStats {
            avg_count: 5.0,
            avg_duration: SimDuration(1_000),
            total_count: 10,
        },
    )]);
    // 900 is closest first and dies; 10 000 is then reduced four times.
    let residual = subtract_average(&worst, &stats, SimDuration(500));
    assert_eq!(residual, vec![event("k", 6_000)]);
    assert_eq!(
        residual,
        subtract_average_scan(&worst, &stats, SimDuration(500))
    );
}

proptest! {
    /// The ordered-set subtraction leaves exactly the residual of the
    /// rescanning oracle: same events, durations and order.
    #[test]
    fn subtraction_matches_rescanning_oracle(case in subtraction_case_strategy()) {
        let (worst, stats, min_residual) = case;
        prop_assert_eq!(
            subtract_average(&worst, &stats, min_residual),
            subtract_average_scan(&worst, &stats, min_residual)
        );
    }

    /// The same on traces drawn like the other properties here, with
    /// statistics computed from the set.
    #[test]
    fn subtraction_matches_rescanning_oracle_on_trace_sets(set in traceset_strategy()) {
        let worst = set.worst().unwrap().clone();
        let stats = source_statistics(&set);
        let min_residual = SimDuration(500);
        prop_assert_eq!(
            subtract_average(&worst, &stats, min_residual),
            subtract_average_scan(&worst, &stats, min_residual)
        );
    }

    /// Residual events never grow: every surviving event's duration is
    /// bounded by its original, and total residual mass is bounded by
    /// the worst trace's total mass.
    #[test]
    fn subtraction_never_inflates(set in traceset_strategy()) {
        let worst = set.worst().unwrap().clone();
        let stats = source_statistics(&set);
        let min_residual = SimDuration(500);
        let residual = subtract_average(&worst, &stats, min_residual);

        let orig_total: u64 = worst.events.iter().map(|e| e.duration.nanos()).sum();
        let res_total: u64 = residual.iter().map(|e| e.duration.nanos()).sum();
        prop_assert!(res_total <= orig_total);
        for e in &residual {
            prop_assert!(e.duration >= min_residual);
            // Each residual event corresponds to an original at the same
            // (cpu, start) with >= duration.
            let orig = worst
                .events
                .iter()
                .find(|o| o.cpu == e.cpu && o.start == e.start && o.source == e.source);
            prop_assert!(orig.is_some());
            prop_assert!(orig.unwrap().duration >= e.duration);
        }
    }

    /// Both merge strategies produce valid, sorted configurations whose
    /// per-CPU noise mass is at least the residual mass on that CPU
    /// (merging can only bridge gaps, never lose noise).
    #[test]
    fn merges_preserve_noise_mass(set in traceset_strategy(), improved in any::<bool>()) {
        let worst = set.worst().unwrap().clone();
        let stats = source_statistics(&set);
        let opts = GeneratorOptions {
            merge: if improved { MergeStrategy::Improved } else { MergeStrategy::NaivePessimistic },
            ..GeneratorOptions::default()
        };
        let residual = subtract_average(&worst, &stats, opts.min_residual);
        let config = build_config("prop", worst.exec_time, residual.clone(), &opts);
        prop_assert!(config.validate().is_ok());

        // Merging may collapse overlapping events (an IRQ inside a
        // thread interval) to their union, so the conserved quantity is
        // the union length of the residual intervals per CPU.
        let union_len = |mut spans: Vec<(u64, u64)>| -> u64 {
            spans.sort_unstable();
            let mut total = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (s, e) in spans {
                match cur {
                    Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
                    Some((cs, ce)) => {
                        total += ce - cs;
                        cur = Some((s, e));
                        let _ = cs;
                    }
                    None => cur = Some((s, e)),
                }
            }
            if let Some((cs, ce)) = cur {
                total += ce - cs;
            }
            total
        };
        for list in &config.lists {
            let cfg_total: u64 = list.events.iter().map(|e| e.duration.nanos()).sum();
            let res_union = union_len(
                residual
                    .iter()
                    .filter(|e| e.cpu == list.cpu)
                    .map(|e| (e.start.nanos(), e.end().nanos()))
                    .collect(),
            );
            prop_assert!(
                cfg_total >= res_union,
                "cpu {}: config {} < residual union {}",
                list.cpu.0,
                cfg_total,
                res_union
            );
        }
        // Every residual CPU appears in the config.
        for e in &residual {
            prop_assert!(config.lists.iter().any(|l| l.cpu == e.cpu));
        }
    }

    /// The improved merge never replays thread noise under FIFO.
    #[test]
    fn improved_merge_keeps_thread_noise_fair(set in traceset_strategy()) {
        let worst = set.worst().unwrap().clone();
        let stats = source_statistics(&set);
        let opts = GeneratorOptions::default();
        let residual = subtract_average(&worst, &stats, opts.min_residual);
        let only_thread: Vec<_> = residual
            .into_iter()
            .filter(|e| e.class == NoiseClass::Thread)
            .collect();
        let config = build_config("prop", worst.exec_time, only_thread, &opts);
        for list in &config.lists {
            for e in &list.events {
                prop_assert!(
                    matches!(e.policy, noiselab_injector::InjectPolicy::Other { .. }),
                    "thread noise escalated to FIFO by the improved merge"
                );
            }
        }
    }

    /// Configurations round-trip through their JSON file format.
    #[test]
    fn config_json_roundtrip(set in traceset_strategy()) {
        let opts = GeneratorOptions::default();
        if let Some(config) = noiselab_injector::generate("prop", &set, &opts) {
            let json = config.to_json().unwrap();
            let back = noiselab_injector::InjectionConfig::from_json(&json).unwrap();
            prop_assert_eq!(config, back);
        }
    }
}
