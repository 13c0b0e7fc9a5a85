//! Golden test for the OsNoiseTracer per-CPU summary: a deterministic
//! event stream is pushed through a deliberately tiny ring buffer so
//! every column of the accounting (recorded, dropped, per-class noise,
//! the degraded flag) is exercised, and the rendered table is pinned
//! byte-for-byte in `tests/fixtures/per_cpu_summary.txt`. Regenerate
//! with `UPDATE_GOLDEN=1 cargo test -p noiselab-noise` after a
//! deliberate format change.

use noiselab_kernel::{NoiseClass, ThreadId, TraceSink};
use noiselab_machine::CpuId;
use noiselab_noise::analysis::{per_cpu_summary, render_per_cpu_summary};
use noiselab_noise::{OsNoiseTracer, RunTrace};
use noiselab_sim::{SimDuration, SimTime};
use std::path::PathBuf;

const FIXTURE: &str = "per_cpu_summary.txt";

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(FIXTURE)
}

/// A three-CPU run through a capacity-6 buffer: cpu0 gets irq + thread
/// noise recorded, cpu1 gets all three classes, cpu2's events arrive
/// after the buffer fills so it appears only in the drop counters.
fn fixture_trace() -> RunTrace {
    let (mut tracer, buf) = OsNoiseTracer::with_capacity(6);
    let events: [(u32, NoiseClass, &str, u64, u64); 9] = [
        (0, NoiseClass::Irq, "local_timer:236", 1_000, 4_100),
        (1, NoiseClass::Softirq, "timer:1", 2_000, 9_500),
        (0, NoiseClass::Thread, "kworker/u129:5", 5_000, 1_203_000),
        (1, NoiseClass::Irq, "nic:77", 8_000, 12_250),
        (1, NoiseClass::Thread, "migration/1", 9_000, 48_000),
        (0, NoiseClass::Irq, "local_timer:236", 20_000, 3_900),
        // The buffer is full from here: two drops on cpu2, one on cpu0.
        (2, NoiseClass::Thread, "Xorg", 25_000, 7_000),
        (0, NoiseClass::Softirq, "rcu:9", 30_000, 800),
        (2, NoiseClass::Irq, "nic:77", 31_000, 600),
    ];
    for (cpu, class, source, start, dur) in events {
        tracer.record(
            CpuId(cpu),
            class,
            source,
            Some(ThreadId(0)),
            SimTime(start),
            SimDuration(dur),
        );
    }
    buf.take_trace(3, SimDuration(2_000_000_000))
}

#[expect(
    clippy::disallowed_methods,
    reason = "UPDATE_GOLDEN rewrites the fixture; it never reaches the rendered summary"
)]
fn golden() -> String {
    let rendered = render_per_cpu_summary(&fixture_trace());
    let path = fixture_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir fixtures");
        std::fs::write(&path, &rendered).expect("write fixture");
    }
    rendered
}

#[test]
fn per_cpu_summary_matches_golden_fixture() {
    let rendered = golden();
    let want = std::fs::read_to_string(fixture_path())
        .expect("fixture missing — regenerate with UPDATE_GOLDEN=1 cargo test");
    assert_eq!(
        rendered, want,
        "per-CPU summary drifted from the golden fixture; if the change \
         is deliberate, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn per_cpu_accounting_is_conserved() {
    let trace = fixture_trace();
    let rows = per_cpu_summary(&trace);

    // Every emitted event lands in exactly one row, recorded or dropped.
    let recorded: u64 = rows.iter().map(|r| r.recorded).sum();
    let dropped: u64 = rows.iter().map(|r| r.dropped).sum();
    assert_eq!(recorded, trace.events.len() as u64);
    assert_eq!(dropped, trace.dropped_events);
    assert_eq!(recorded + dropped, 9);
    assert!(trace.degraded);

    // cpu2 was offered events only after the buffer filled: it must
    // still get a row, with nothing recorded.
    let cpu2 = rows.iter().find(|r| r.cpu == 2).expect("cpu2 row");
    assert_eq!((cpu2.recorded, cpu2.dropped, cpu2.emitted()), (0, 2, 2));
    assert_eq!(cpu2.by_class, [SimDuration::ZERO; 3]);

    // cpu1 recorded all three classes; the split must match the events.
    let cpu1 = rows.iter().find(|r| r.cpu == 1).expect("cpu1 row");
    assert_eq!(
        cpu1.by_class,
        [SimDuration(12_250), SimDuration(9_500), SimDuration(48_000)]
    );
}
