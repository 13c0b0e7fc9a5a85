//! The DVFS axis's acceptance property: with `enabled = false` (every
//! shipped preset except `intel-dvfs`), the frequency subsystem does
//! not exist — a run is bit-identical to today's whatever garbage the
//! other `DvfsConfig` fields hold. Enabling it must visibly change the
//! dispatched stream, and governor cells must replay exactly.

use noiselab_core::{run, ExecConfig, Mitigation, Model, Platform, RunSpec};
use noiselab_machine::{DvfsConfig, Governor};
use noiselab_telemetry::TelemetryConfig;
use noiselab_testutil::run_fresh;
use proptest::prelude::*;

fn workload() -> noiselab_workloads::NBody {
    noiselab_testutil::tiny_nbody(2)
}

fn gov(i: u8) -> Governor {
    Governor::ALL[i as usize % Governor::ALL.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Scrambling every disabled-DVFS field leaves a run bit-identical:
    /// stream hash, virtual exec time, metrics snapshot and trace.
    #[test]
    fn disabled_dvfs_fields_are_inert(
        seed in 1u64..50_000,
        sycl in any::<bool>(),
        g in any::<u8>(),
        min in 1u32..10_000_000,
        base in 1u32..10_000_000,
        turbo in 1u32..10_000_000,
        slots in 1u32..8,
    ) {
        let model = if sycl { Model::Sycl } else { Model::Omp };
        let cfg = ExecConfig::new(model, Mitigation::Rm);
        let (intel, w) = (Platform::intel(), workload());
        let traced = |p| RunSpec { tracing: true, ..RunSpec::new(p, &w, &cfg, seed) };
        let reference = run_fresh(&traced(&intel)).expect("reference run failed");

        let mut p = Platform::intel();
        p.machine.dvfs = DvfsConfig {
            enabled: false,
            governor: gov(g),
            min_khz: min,
            base_khz: base,
            turbo_khz: turbo,
            turbo_slots: slots,
            ..DvfsConfig::default()
        };
        let scrambled = run_fresh(&traced(&p)).expect("scrambled run failed");

        // A mismatch here means a disabled config leaked into the stream.
        prop_assert_eq!(reference.stream_hash, scrambled.stream_hash);
        prop_assert_eq!(reference.exec, scrambled.exec);
        prop_assert_eq!(&reference.trace, &scrambled.trace);
    }

    /// Governor cells replay bit for bit, and every governor is its own
    /// cell: distinct governors dispatch distinct streams on a workload
    /// long enough to heat up.
    #[test]
    fn governor_cells_replay_and_differ(
        seed in 1u64..50_000,
        pinned in any::<bool>(),
    ) {
        let mit = if pinned { Mitigation::Tp } else { Mitigation::Rm };
        let (p, w) = (Platform::intel(), workload());
        let mut hashes = Vec::new();
        for g in Governor::ALL {
            let cfg = ExecConfig::new(Model::Omp, mit).with_governor(g);
            let spec = RunSpec::new(&p, &w, &cfg, seed);
            let a = run_fresh(&spec).expect("run failed");
            let b = run_fresh(&spec).expect("run failed");
            prop_assert_eq!(a.stream_hash, b.stream_hash);
            prop_assert_eq!(a.exec, b.exec);
            hashes.push(a.stream_hash);
        }
        // Performance and Powersave bound the frequency range; their
        // streams cannot coincide.
        prop_assert!(hashes[0] != hashes[1],
            "performance and powersave dispatched the same stream");
    }
}

/// The `intel-dvfs` preset actually exercises the axis: its stream
/// differs from plain `intel`, and its telemetry carries frequency
/// samples and throttle/transition counters.
#[test]
fn intel_dvfs_preset_emits_frequency_telemetry() {
    let cfg = ExecConfig::new(Model::Omp, Mitigation::Tp);
    let (intel, dvfs, w) = (Platform::intel(), Platform::intel_dvfs(), workload());
    let plain = run_fresh(&RunSpec::new(&intel, &w, &cfg, 7)).unwrap();
    let spec = RunSpec {
        telemetry: Some(TelemetryConfig::default()),
        ..RunSpec::new(&dvfs, &w, &cfg, 7)
    };
    let done = run(&spec, None).expect("dvfs run failed");
    assert_ne!(plain.stream_hash, done.output.stream_hash);
    let report = done.telemetry.expect("telemetry attached");
    assert!(
        !report.freq.is_empty(),
        "an enabled-DVFS run must record frequency samples"
    );
    let m = done.output.metrics.expect("metrics");
    assert!(
        m.counter("dvfs.freq_transitions") > 0,
        "frequency transitions must surface in metrics"
    );
}
