//! Shared fixture for the golden exporter tests: a small, fully
//! deterministic telemetry report exercising every record kind (run
//! and noise spans, hard and soft IRQ spans, preemption / migration /
//! policy-switch instants, runqueue counter samples) across two CPUs.
//!
//! Both golden tests regenerate their fixture from this report when
//! run with `UPDATE_GOLDEN=1`, so the fixture and the builder can
//! never drift apart silently.

use noiselab_kernel::{SchedRecord, ThreadKind, ThreadState};
use noiselab_sim::SimTime;
use noiselab_telemetry::{Telemetry, TelemetryConfig, TelemetryReport};
use std::path::PathBuf;

#[allow(dead_code)] // each test binary compiles its own copy of this module
pub fn fixture_report() -> TelemetryReport {
    let tele = Telemetry::new(TelemetryConfig::default());
    {
        let mut obs = tele.observer();
        for rec in [
            SchedRecord::Enqueue {
                cpu: 0,
                thread: 1,
                time: SimTime(100),
                depth: 1,
            },
            SchedRecord::SwitchIn {
                cpu: 0,
                thread: 1,
                name: "omp-worker-1",
                kind: ThreadKind::Workload,
                time: SimTime(250),
                runq_depth: 1,
            },
            SchedRecord::IrqSpan {
                cpu: 0,
                time: SimTime(1_000),
                duration_ns: 300,
                source: "local_timer:236",
                softirq: false,
            },
            SchedRecord::Preempt {
                cpu: 0,
                thread: 1,
                time: SimTime(2_000),
            },
            SchedRecord::SwitchOut {
                cpu: 0,
                thread: 1,
                time: SimTime(2_000),
                state: ThreadState::Ready,
            },
            SchedRecord::SwitchIn {
                cpu: 1,
                thread: 5,
                name: "osnoise/5",
                kind: ThreadKind::Noise,
                time: SimTime(500),
                runq_depth: 0,
            },
            SchedRecord::IrqSpan {
                cpu: 1,
                time: SimTime(900),
                duration_ns: 150,
                source: "RCU:9",
                softirq: true,
            },
            SchedRecord::Migrate {
                thread: 1,
                to_cpu: 1,
                time: SimTime(2_100),
                cross_numa: true,
            },
            SchedRecord::SwitchOut {
                cpu: 1,
                thread: 5,
                time: SimTime(2_500),
                state: ThreadState::Blocked,
            },
            SchedRecord::PolicySwitch {
                thread: 5,
                time: SimTime(2_600),
                rt: true,
            },
        ] {
            obs.sched(&rec);
        }
    }
    tele.take_report(SimTime(3_000))
}

/// Path of a fixture file under this crate's `tests/fixtures/`.
pub fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// True when the caller asked to rewrite fixtures
/// (`UPDATE_GOLDEN=1 cargo test -p noiselab-telemetry`).
#[expect(
    clippy::disallowed_methods,
    reason = "a test-only switch that rewrites fixtures; it never reaches a simulated value"
)]
pub fn update_golden() -> bool {
    std::env::var_os("UPDATE_GOLDEN").is_some()
}

/// A second fixture with the DVFS axis hot: boost, throttle-drop and
/// recovery transitions plus throttle enter/exit events on two CPUs,
/// alongside an ordinary workload span. Non-empty frequency samples
/// make [`noiselab_telemetry::binary::encode`] emit NLTB **v3**, and
/// the Chrome exporter grow per-CPU `freq_mhz` counter tracks — both
/// pinned by `golden_dvfs.rs`.
#[allow(dead_code)] // each test binary compiles its own copy of this module
pub fn dvfs_fixture_report() -> TelemetryReport {
    let tele = Telemetry::new(TelemetryConfig::default());
    {
        let mut obs = tele.observer();
        for rec in [
            SchedRecord::SwitchIn {
                cpu: 0,
                thread: 1,
                name: "omp-worker-0",
                kind: ThreadKind::Workload,
                time: SimTime(100),
                runq_depth: 0,
            },
            // Boost both CPUs out of the boot floor.
            SchedRecord::FreqTransition {
                cpu: 0,
                time: SimTime(150),
                from_khz: 800_000,
                to_khz: 5_200_000,
            },
            SchedRecord::FreqTransition {
                cpu: 1,
                time: SimTime(200),
                from_khz: 800_000,
                to_khz: 3_600_000,
            },
            // CPU 0 overheats: throttle entry pins it to the floor.
            SchedRecord::Throttle {
                cpu: 0,
                time: SimTime(1_000),
                heat_milli: 2_600_000,
                entered: true,
            },
            SchedRecord::FreqTransition {
                cpu: 0,
                time: SimTime(1_000),
                from_khz: 5_200_000,
                to_khz: 800_000,
            },
            // ... cools past the release point and recovers to base.
            SchedRecord::Throttle {
                cpu: 0,
                time: SimTime(1_800),
                heat_milli: 1_900_000,
                entered: false,
            },
            SchedRecord::FreqTransition {
                cpu: 0,
                time: SimTime(1_850),
                from_khz: 800_000,
                to_khz: 3_600_000,
            },
            SchedRecord::SwitchOut {
                cpu: 0,
                thread: 1,
                time: SimTime(2_000),
                state: ThreadState::Ready,
            },
        ] {
            obs.sched(&rec);
        }
    }
    tele.take_report(SimTime(2_500))
}
