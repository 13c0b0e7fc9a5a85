//! Bit-identity gate for the wide machines. The main battery
//! (`stream_identity.rs`) pins only the 8-CPU Intel platform, which has
//! no SMT; this one pins the 48-CPU A64FX (with and without reserved OS
//! cores) and the 32-CPU AMD SMT machine, where the rate layer's
//! unsaturated and SMT paths carry most of the work. Each cell's stream
//! hash and exec time are pinned at seeds 1 and 2.
//!
//! Regenerate (only when a *semantic* change is intended and called
//! out in EXPERIMENTS.md) with:
//!
//! ```text
//! NOISELAB_UPDATE_FIXTURES=1 cargo test -p noiselab-core --test wide_identity
//! ```

use noiselab_core::experiments::suite;
use noiselab_core::{ExecConfig, Mitigation, Model, Platform, RunSpec};
use noiselab_runtime::omp::OmpSchedule;
use noiselab_testutil::run_fresh;
use noiselab_workloads::{Babelstream, SchedBench, Workload};
use std::collections::BTreeMap;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/wide_stream_hashes.json"
);

/// Schedbench region repetitions per run (Figure 1 uses more; the
/// fine-chunk paths are all reached within a few).
const SCHEDBENCH_REPEATS: usize = 5;

fn platform(name: &str) -> Platform {
    Platform::by_name(name).expect("a named platform")
}

fn cells() -> Vec<(String, Platform, Box<dyn Workload + Sync>, ExecConfig)> {
    let mut cells: Vec<(String, Platform, Box<dyn Workload + Sync>, ExecConfig)> = Vec::new();
    for pname in ["a64fx", "a64fx-reserved"] {
        for (tag, schedule) in [
            ("st:1", OmpSchedule::Static { chunk: Some(1) }),
            ("dy:1", OmpSchedule::Dynamic { chunk: 1 }),
        ] {
            let mut sb = SchedBench::with_schedule(schedule);
            sb.repeats = SCHEDBENCH_REPEATS;
            let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm).with_schedule(schedule);
            cells.push((
                format!("{pname}/schedbench/Rm-OMP/{tag}"),
                platform(pname),
                Box::new(sb),
                cfg,
            ));
        }
    }
    // The Figure 2 instance at the full machine width.
    cells.push((
        "a64fx/babelstream-dot/Rm-OMP/t48".into(),
        platform("a64fx"),
        Box::new(Babelstream::dot_only(33_554_432, 200)),
        ExecConfig::new(Model::Omp, Mitigation::Rm).with_threads(48),
    ));
    let amd = platform("amd");
    let minife = suite::workload_by_name(&amd, "minife").expect("a suite workload");
    cells.push((
        "amd/minife/TPHK-SYCL-SMT".into(),
        amd,
        minife,
        ExecConfig::new(Model::Sycl, Mitigation::TpHK).with_smt(),
    ));
    cells
}

fn battery() -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for (label, platform, workload, cfg) in cells() {
        for seed in [1u64, 2] {
            let run = run_fresh(&RunSpec::new(&platform, workload.as_ref(), &cfg, seed))
                .expect("battery run failed");
            out.insert(
                format!("{label}/seed{seed}"),
                format!("{:016x}:{}", run.stream_hash, run.exec.nanos()),
            );
        }
    }
    out
}

#[test]
fn wide_machine_streams_match_committed_fixture() {
    noiselab_testutil::assert_matches_fixture(FIXTURE, &battery());
}
