//! End-to-end acceptance tests for the advisor: a seeded campaign with
//! one injected high-variance cell must be diagnosed by name, blamed
//! on the right noise source and CPU, and rendered byte-identically
//! regardless of input order; the bench watch must flag a synthetic 2x
//! regression and accept honest history.

use noiselab_advise::input::{HotpathCell, HotpathHistory, HotpathSnapshot};
use noiselab_advise::{
    advise, hotpath_checks, AdviseConfig, AdviseInputs, Severity, SmellKind, Verdict,
};
use noiselab_core::{CampaignState, CellKey, CellRecord, QuarantineRecord};
use noiselab_kernel::NoiseClass;
use noiselab_machine::CpuId;
use noiselab_noise::{RunTrace, TraceEvent, TraceSet};
use noiselab_sim::{SimDuration, SimTime};
use noiselab_telemetry::{CounterEntry, MetricsSnapshot};

fn cell(label: &str, seed: u64, samples: &[f64]) -> CellRecord {
    CellRecord {
        key: CellKey {
            label: label.to_string(),
            seed,
        },
        samples: samples.to_vec(),
        failures: Vec::new(),
        attempts: samples.len() as u64,
        stream_hash: 0xC0FFEE ^ seed,
        metrics: MetricsSnapshot::default(),
    }
}

/// Four-cell campaign: three tight cells and one injected
/// high-variance cell (`TP-SYCL`).
fn seeded_state() -> CampaignState {
    let mut state =
        CampaignState::new("v2|intel|nbody|[Rm-OMP,TP-OMP,Rm-SYCL,TP-SYCL]|runs=8".to_string());
    state.cells = vec![
        cell(
            "Rm-OMP",
            1,
            &[1.000, 1.001, 0.999, 1.002, 0.998, 1.000, 1.001, 0.999],
        ),
        cell(
            "TP-OMP",
            9,
            &[0.950, 0.951, 0.949, 0.952, 0.948, 0.950, 0.951, 0.949],
        ),
        cell(
            "Rm-SYCL",
            17,
            &[1.050, 1.051, 1.049, 1.052, 1.048, 1.050, 1.051, 1.049],
        ),
        cell(
            "TP-SYCL",
            25,
            &[0.80, 1.90, 0.85, 2.40, 0.90, 1.70, 0.82, 2.10],
        ),
    ];
    state
}

fn event(cpu: u32, class: NoiseClass, source: &str, dur_us: u64) -> TraceEvent {
    TraceEvent {
        cpu: CpuId(cpu),
        class,
        source: source.to_string(),
        start: SimTime::ZERO,
        duration: SimDuration::from_micros(dur_us),
    }
}

/// Trace evidence for the volatile cell: a constant timer on CPU 0
/// (identical every run — zero excess), a barely-varying softirq on
/// CPU 1, and a kworker on CPU 3 that hammers some runs and not
/// others. The kworker owns essentially all excess osnoise.
fn volatile_traces() -> TraceSet {
    let kworker_us = [0u64, 0, 400, 0, 900, 100];
    let rcu_us = [10u64, 12, 11, 10, 13, 11];
    let runs = kworker_us
        .iter()
        .zip(rcu_us)
        .enumerate()
        .map(|(i, (&kw, rcu))| {
            let mut events = vec![
                event(0, NoiseClass::Irq, "local_timer:236", 50),
                event(1, NoiseClass::Softirq, "RCU:9", rcu),
            ];
            if kw > 0 {
                events.push(event(3, NoiseClass::Thread, "kworker/3:1", kw));
            }
            RunTrace::new(i, SimDuration::from_millis(450 + kw / 10), events)
        })
        .collect();
    TraceSet { runs }
}

fn inputs_with_traces() -> AdviseInputs {
    let mut inputs = AdviseInputs {
        checkpoint: Some(seeded_state()),
        ..Default::default()
    };
    inputs
        .traces
        .insert("TP-SYCL".to_string(), volatile_traces());
    inputs
}

#[test]
fn names_the_injected_cell_and_blames_the_right_source_and_cpu() {
    let report = advise(&inputs_with_traces(), &AdviseConfig::default());

    let variance: Vec<_> = report
        .smells
        .iter()
        .filter(|s| s.kind == SmellKind::HighVariance)
        .collect();
    assert_eq!(
        variance.len(),
        1,
        "exactly the injected cell should smell: {:#?}",
        report.smells
    );
    assert_eq!(variance[0].cell, "TP-SYCL");
    assert_eq!(variance[0].severity, Severity::Critical);

    assert_eq!(report.blames.len(), 1, "{:#?}", report.blames);
    let b = &report.blames[0];
    assert_eq!(b.cell, "TP-SYCL");
    assert_eq!(b.source, "kworker/3:1");
    assert_eq!(b.cpu, 3);
    assert_eq!(b.class, "thread");
    assert!(!b.uniform);
    assert!(
        b.share_pct > 95.0,
        "kworker owns essentially all excess, got {:.1}%",
        b.share_pct
    );
    assert!(b.summary.contains("kworker/3:1"), "{}", b.summary);
    assert!(b.summary.contains("CPU 3"), "{}", b.summary);

    // Thread-class blame maps to the paper's scheduling-policy axis.
    assert!(
        report
            .recommendations
            .iter()
            .any(|r| r.topic == "sched-policy" && r.pick == "SCHED_FIFO"),
        "{:#?}",
        report.recommendations
    );
    assert_eq!(report.workload, "nbody");
    assert!(report.has_critical());
}

#[test]
fn reports_are_byte_identical_across_runs_and_input_orders() {
    let cfg = AdviseConfig::default();
    let first = advise(&inputs_with_traces(), &cfg);
    let second = advise(&inputs_with_traces(), &cfg);
    assert_eq!(first.render_human(), second.render_human());
    assert_eq!(first.render_markdown(), second.render_markdown());
    assert_eq!(first.to_json(), second.to_json());

    // Same evidence visited in a different order: cells reversed in
    // the checkpoint, extra trace sets inserted around the real one.
    let mut shuffled = inputs_with_traces();
    shuffled.checkpoint.as_mut().unwrap().cells.reverse();
    shuffled
        .traces
        .insert("AA-first".to_string(), TraceSet::default());
    shuffled
        .traces
        .insert("zz-last".to_string(), TraceSet::default());
    let third = advise(&shuffled, &cfg);
    assert_eq!(first.render_human(), third.render_human());
    assert_eq!(first.to_json(), third.to_json());
}

#[test]
fn tight_campaign_is_trustworthy_and_recommends_with_significance() {
    let mut state = seeded_state();
    // Replace the volatile cell with a tight one so nothing smells.
    state.cells[3] = cell(
        "TP-SYCL",
        25,
        &[0.900, 0.901, 0.899, 0.902, 0.898, 0.900, 0.901, 0.899],
    );
    let inputs = AdviseInputs {
        checkpoint: Some(state),
        ..Default::default()
    };
    let report = advise(&inputs, &AdviseConfig::default());
    assert!(report.smells.is_empty(), "{:#?}", report.smells);
    assert!(!report.check_failed());
    // TP-SYCL (0.9) beats every OMP cell with non-overlapping samples:
    // the runtime row must be significant and pick the SYCL side.
    let runtime = report
        .recommendations
        .iter()
        .find(|r| r.topic == "runtime")
        .expect("runtime row");
    assert!(runtime.significant, "{runtime:#?}");
    assert_eq!(runtime.pick, "TP-SYCL");
    assert!(runtime.p < 0.01);
}

/// The DVFS mitigation matrix: governor cells rank within their
/// (mitigation, model) family, pinned-vs-roaming is re-asked per
/// governor, throttling blame lands on `dvfs:throttle` by (source,
/// CPU), and governor cells never shadow the frequency-free cells of
/// the same mitigation.
#[test]
fn dvfs_matrix_ranks_governors_and_blames_throttling() {
    let mut state = CampaignState::new(
        "v2|intel-dvfs|nbody|[Rm-OMP,TP-OMP,TP-OMP-PERF,TP-OMP-SAVE,Rm-OMP-PERF,\
         Rm-OMP-SAVE,Rm-OMP-UTIL]|runs=8"
            .to_string(),
    );
    state.cells = vec![
        // Frequency-free reference cells keep the classic topics alive.
        cell(
            "Rm-OMP",
            1,
            &[1.000, 1.001, 0.999, 1.002, 0.998, 1.000, 1.001, 0.999],
        ),
        cell(
            "TP-OMP",
            9,
            &[0.950, 0.951, 0.949, 0.952, 0.948, 0.950, 0.951, 0.949],
        ),
        // The governor matrix: pinned and roaming under PERF and SAVE
        // (tight samples, PERF clearly faster), plus a throttling
        // roaming UTIL cell whose runs swing wildly.
        cell(
            "TP-OMP-PERF",
            33,
            &[0.900, 0.901, 0.899, 0.902, 0.898, 0.900, 0.901, 0.899],
        ),
        cell(
            "TP-OMP-SAVE",
            41,
            &[1.400, 1.401, 1.399, 1.402, 1.398, 1.400, 1.401, 1.399],
        ),
        cell(
            "Rm-OMP-PERF",
            49,
            &[0.970, 0.971, 0.969, 0.972, 0.968, 0.970, 0.971, 0.969],
        ),
        cell(
            "Rm-OMP-SAVE",
            57,
            &[1.480, 1.481, 1.479, 1.482, 1.478, 1.480, 1.481, 1.479],
        ),
        cell(
            "Rm-OMP-UTIL",
            65,
            &[0.80, 1.90, 0.85, 2.40, 0.90, 1.70, 0.82, 2.10],
        ),
    ];
    // Trace evidence for the volatile UTIL cell: a constant timer
    // (zero excess) and throttle windows on CPU 2 that hit some runs
    // and spare others — `dvfs:throttle` owns the excess.
    let throttle_us = [0u64, 600, 0, 1_100, 0, 500];
    let runs = throttle_us
        .iter()
        .enumerate()
        .map(|(i, &th)| {
            let mut events = vec![event(0, NoiseClass::Irq, "local_timer:236", 50)];
            if th > 0 {
                events.push(event(2, NoiseClass::Thread, "dvfs:throttle", th));
            }
            RunTrace::new(i, SimDuration::from_millis(450 + th / 10), events)
        })
        .collect();
    let mut inputs = AdviseInputs {
        checkpoint: Some(state),
        ..Default::default()
    };
    inputs
        .traces
        .insert("Rm-OMP-UTIL".to_string(), TraceSet { runs });

    let report = advise(&inputs, &AdviseConfig::default());

    // Governor ranking within each family, with rank-sum significance.
    let tp_row = report
        .recommendations
        .iter()
        .find(|r| r.topic == "governor" && r.pick == "TP-OMP-PERF")
        .unwrap_or_else(|| panic!("TP governor row missing: {:#?}", report.recommendations));
    assert_eq!(tp_row.against, "TP-OMP-SAVE");
    assert!(tp_row.significant, "{tp_row:#?}");
    assert!(tp_row.delta_pct < -0.3, "{tp_row:#?}");
    assert!(report
        .recommendations
        .iter()
        .any(|r| r.topic == "governor" && r.pick == "Rm-OMP-PERF"));

    // Placement re-asked per governor: pinning wins under PERF here.
    let placement = report
        .recommendations
        .iter()
        .find(|r| r.topic == "governor-placement" && r.pick == "TP-OMP-PERF")
        .expect("governor-placement row");
    assert_eq!(placement.against, "Rm-OMP-PERF");
    assert!(placement.rationale.contains("PERF"), "{placement:#?}");

    // Governor cells must not shadow the frequency-free matrix: the
    // classic placement row still compares TP-OMP against Rm-OMP.
    let classic = report
        .recommendations
        .iter()
        .find(|r| r.topic == "placement")
        .expect("classic placement row");
    assert_eq!(classic.pick, "TP-OMP");
    assert_eq!(classic.against, "Rm-OMP");

    // The volatile cell smells, and its blame names dvfs:throttle on
    // the CPU that throttled.
    let b = report
        .blames
        .iter()
        .find(|b| b.cell == "Rm-OMP-UTIL")
        .unwrap_or_else(|| panic!("throttle blame missing: {:#?}", report.blames));
    assert_eq!(b.source, "dvfs:throttle");
    assert_eq!(b.cpu, 2);
    assert_eq!(b.class, "thread");
    assert!(b.share_pct > 90.0, "{:.1}%", b.share_pct);
    assert!(b.summary.contains("dvfs:throttle"), "{}", b.summary);
}

fn snapshot(label: &str, bare: f64, telemetry: f64) -> HotpathSnapshot {
    HotpathSnapshot {
        label: label.to_string(),
        reps: 5,
        cells: vec![HotpathCell {
            workload: "nbody".to_string(),
            config: "Rm-OMP".to_string(),
            events_per_run: 2131,
            bare_ns_per_event: bare,
            telemetry_ns_per_event: telemetry,
            telemetry_overhead_pct: (telemetry / bare - 1.0) * 100.0,
            tracer_overhead_pct: 20.0,
            both_overhead_pct: 40.0,
        }],
    }
}

fn history(last_bare: f64) -> HotpathHistory {
    HotpathHistory {
        bench: "hotpath".to_string(),
        baseline: snapshot("baseline", 200.0, 250.0),
        steps: vec![
            snapshot("step1", 204.0, 251.0),
            snapshot("step2", 198.0, 249.0),
            snapshot("step3", last_bare, 250.0),
        ],
    }
}

#[test]
fn synthetic_2x_regression_is_flagged_and_honest_history_passes() {
    let cfg = AdviseConfig::default();
    let checks = hotpath_checks("BENCH_hotpath.json", &history(396.0), &cfg);
    let bare = checks
        .iter()
        .find(|c| c.metric == "bare_ns_per_event")
        .expect("bare row");
    assert_eq!(bare.verdict, Verdict::Regression, "{bare:#?}");
    assert!(bare.change > 0.9, "{:.3}", bare.change);
    assert!(bare.z > cfg.z_threshold, "{:.1}", bare.z);

    let honest = hotpath_checks("BENCH_hotpath.json", &history(201.0), &cfg);
    assert!(
        honest.iter().all(|c| c.verdict != Verdict::Regression),
        "{honest:#?}"
    );
}

#[test]
fn supervisor_health_and_quarantine_surface_as_smells() {
    let mut state = seeded_state();
    state.cells.truncate(3); // keep it otherwise clean
    state.supervisor = MetricsSnapshot {
        runs: 0,
        counters: vec![
            CounterEntry {
                name: "campaignd.worker_crashes".to_string(),
                value: 2,
            },
            CounterEntry {
                name: "campaignd.workers_spawned".to_string(),
                value: 5,
            },
        ],
        gauges: Vec::new(),
        histograms: Vec::new(),
    };
    state.quarantined = vec![QuarantineRecord {
        shard: 7,
        cells: vec![CellKey {
            label: "TPHK2-SYCL".to_string(),
            seed: 33,
        }],
        crashes: 3,
        reason: "exit status 9".to_string(),
    }];
    let inputs = AdviseInputs {
        checkpoint: Some(state),
        ..Default::default()
    };
    let report = advise(&inputs, &AdviseConfig::default());

    let lost = report
        .smells
        .iter()
        .find(|s| s.kind == SmellKind::LostCells)
        .expect("lost-cells smell");
    assert_eq!(lost.severity, Severity::Critical);
    assert_eq!(lost.cell, "shard 7");
    assert!(lost.summary.contains("TPHK2-SYCL"), "{}", lost.summary);

    let sup = report
        .smells
        .iter()
        .find(|s| s.kind == SmellKind::SupervisorInstability)
        .expect("supervisor smell");
    assert_eq!(sup.severity, Severity::Warning);
    assert!(sup.summary.contains("2 unplanned worker crash(es)"));
    assert!(report.check_failed());
}
