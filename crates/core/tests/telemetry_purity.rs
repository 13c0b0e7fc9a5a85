//! The telemetry layer's acceptance property: attaching the span
//! recorder, the metrics registry and the host-time phase profiler is
//! *provably pure* — a telemetry-enabled run produces the same
//! dispatched event stream (`stream_hash`) and the same virtual
//! execution time as a disabled one, bit for bit, across seeds,
//! models and tracing modes.

use noiselab_core::{run, run_many, ExecConfig, Mitigation, Model, Platform, RetryPolicy, RunSpec};
use noiselab_kernel::{CpuStallSpec, FaultPlan, SanitizerConfig, SpuriousIrqSpec};
use noiselab_sim::SimDuration;
use noiselab_telemetry::{PhaseProfiler, TelemetryConfig};
use noiselab_testutil::run_fresh;
use noiselab_workloads::NBody;
use proptest::prelude::*;

// Small but long enough (several ms) to cross timer ticks, noise
// activations and migrations.
fn tiny_nbody() -> NBody {
    noiselab_testutil::tiny_nbody(3)
}

/// (stream_hash, exec ns) of a fully instrumented run: telemetry with
/// timeline on, plus the phase profiler.
fn instrumented(cfg: &ExecConfig, seed: u64, tracing: bool) -> (u64, u64) {
    let (p, w) = (Platform::intel(), tiny_nbody());
    let spec = RunSpec {
        tracing,
        telemetry: Some(TelemetryConfig::default()),
        ..RunSpec::new(&p, &w, cfg, seed)
    };
    let out = run(&spec, Some(&PhaseProfiler::new()))
        .expect("instrumented run failed")
        .output;
    assert!(
        out.metrics.is_some(),
        "telemetry-enabled run must snapshot metrics"
    );
    (out.stream_hash, out.exec.nanos())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn telemetry_and_profiler_never_perturb_a_run(
        seed in 1u64..50_000,
        sycl in any::<bool>(),
        tracing in any::<bool>(),
        dvfs in any::<bool>(),
    ) {
        let model = if sycl { Model::Sycl } else { Model::Omp };
        // Half the cases run with the DVFS axis on: frequency-transition
        // and throttle records flow through the observer wire path, so
        // the purity property must hold across the new record kinds too.
        let mut cfg = ExecConfig::new(model, Mitigation::Rm);
        cfg.governor = dvfs.then_some(noiselab_machine::Governor::Schedutil);
        let (p, w) = (Platform::intel(), tiny_nbody());
        let bare = run_fresh(&RunSpec { tracing, ..RunSpec::new(&p, &w, &cfg, seed) })
            .expect("bare run failed");
        let (hash, exec_ns) = instrumented(&cfg, seed, tracing);
        // Telemetry must not change the dispatched event stream or
        // virtual execution time.
        prop_assert_eq!(bare.stream_hash, hash);
        prop_assert_eq!(bare.exec.nanos(), exec_ns);
    }
}

#[test]
fn instrumented_ledger_matches_bare_ledger_bit_for_bit() {
    let p = Platform::intel();
    let w = tiny_nbody();
    let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm);
    let spec = RunSpec::new(&p, &w, &cfg, 300);
    let bare = run_many(&spec, 6, RetryPolicy::none());
    let inst = run_many(
        &RunSpec {
            telemetry: Some(TelemetryConfig::metrics_only()),
            ..spec
        },
        6,
        RetryPolicy::none(),
    );
    assert_eq!(
        bare.stream_hash(),
        inst.stream_hash(),
        "metrics-only telemetry must leave the whole ledger bit-identical"
    );
    for rec in &inst.records {
        let m = rec
            .result
            .as_ref()
            .expect("run failed")
            .metrics
            .as_ref()
            .expect("metrics snapshot missing");
        assert_eq!(m.runs, 1);
        // Acceptance floor: at least 6 distinct registered metrics per
        // run snapshot.
        assert!(m.len() >= 6, "only {} metrics registered", m.len());
        assert!(m.counter("sched.context_switches") > 0);
        assert!(m.counter("kernel.events") > 0);
        assert!(m.hist("sched.runq_depth").is_some());
        assert!(m.gauge("cpu.util.mean").is_some());
    }
}

#[test]
fn tracer_drop_counters_surface_in_metrics() {
    let p = Platform::intel();
    let w = tiny_nbody();
    let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm);
    let spec = RunSpec {
        tracing: true,
        telemetry: Some(TelemetryConfig::metrics_only()),
        ..RunSpec::new(&p, &w, &cfg, 11)
    };
    let out = run_fresh(&spec).expect("traced run failed");
    let m = out.metrics.expect("metrics");
    let trace = out.trace.expect("trace");
    assert_eq!(
        m.counter("trace.emitted"),
        trace.events.len() as u64 + trace.dropped_events,
        "metrics registry must mirror the tracer's ring-buffer accounting"
    );
    assert_eq!(m.counter("trace.dropped"), trace.dropped_events);
}

/// `kernel.events` is the sanitizer's count of dispatched events, so
/// the two agree exactly on plain, faulted and perturbed runs, traced
/// or not. The perturbed run's synthetic IRQ is a dispatched event and
/// counts on both sides.
#[test]
fn kernel_events_is_the_sanitizer_event_count() {
    let p = Platform::intel();
    let w = tiny_nbody();
    let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm);
    // Every fault kind that leaves the run alive: lost and late ticks,
    // spurious IRQs and a CPU stall.
    let plan = FaultPlan {
        seed: 0xFA17,
        lost_tick_prob: 0.02,
        late_tick_prob: 0.05,
        late_tick_max: SimDuration::from_micros(50),
        spurious: Some(SpuriousIrqSpec {
            rate_per_sec: 2_000.0,
            service_mean: SimDuration::from_micros(5),
            window: SimDuration::from_millis(20),
        }),
        stall: Some(CpuStallSpec {
            start: (SimDuration::ZERO, SimDuration::from_millis(2)),
            duration: (SimDuration::from_micros(100), SimDuration::from_micros(300)),
        }),
        ..FaultPlan::default()
    };
    let plain = RunSpec {
        telemetry: Some(TelemetryConfig::metrics_only()),
        ..RunSpec::new(&p, &w, &cfg, 21)
    };
    let specs = [
        ("plain", plain.clone()),
        (
            "faulted",
            RunSpec {
                faults: Some(&plan),
                ..plain.clone()
            },
        ),
        (
            "perturbed",
            RunSpec {
                sanitizer: SanitizerConfig {
                    perturb_at: Some(40),
                    ..SanitizerConfig::hash_only()
                },
                ..plain.clone()
            },
        ),
    ];
    for tracing in [false, true] {
        let mut hashes = Vec::new();
        for (label, spec) in &specs {
            let inst = run(
                &RunSpec {
                    tracing,
                    ..spec.clone()
                },
                None,
            )
            .unwrap_or_else(|e| panic!("{label} run failed: {e}"));
            let m = inst.output.metrics.as_ref().expect("metrics snapshot");
            assert_eq!(
                m.counter("kernel.events"),
                inst.sanitizer.events,
                "{label} run, tracing {tracing}"
            );
            hashes.push(inst.output.stream_hash);
        }
        // The faults and the perturbation really moved the stream.
        assert_ne!(hashes[0], hashes[1], "fault plan did not fire");
        assert_ne!(hashes[0], hashes[2], "perturbation did not fire");
    }
}

/// The run loop takes every event off the queue inside the profiler's
/// `queue` phase, so a profiled run reports queue calls and time next to
/// dispatch: one call per dispatched event.
#[test]
fn a_profiled_run_reports_queue_calls() {
    let p = Platform::intel();
    let w = noiselab_core::experiments::suite::workload_by_name(&p, "nbody-tiny")
        .expect("nbody-tiny is a suite workload");
    let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm);
    let profiler = PhaseProfiler::new();
    let inst =
        run(&RunSpec::new(&p, w.as_ref(), &cfg, 1), Some(&profiler)).expect("profiled run failed");
    let report = profiler.report();
    let row = |name: &str| {
        report
            .phases
            .iter()
            .find(|r| r.phase == name)
            .unwrap_or_else(|| panic!("no {name} row"))
            .clone()
    };
    let (queue, dispatch) = (row("queue"), row("dispatch"));
    assert!(inst.sanitizer.events > 0);
    assert_eq!(queue.calls, inst.sanitizer.events);
    assert_eq!(dispatch.calls, inst.sanitizer.events);
    assert!(queue.self_ns > 0, "queue time must be measured");
    assert_eq!(report.unbalanced, 0);
    assert!(report.render().contains("queue"));
}
