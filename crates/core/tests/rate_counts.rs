//! Work-count pins for the rate layer. The two cells that dominate the
//! omp-saturated benchmark, babelstream and miniFE under Rm-OMP on the
//! Intel platform, are run at seed 1 and every `RateCounts` figure is
//! pinned, so a change that adds a pass, a walk or a timer arm fails
//! here even when every stream hash still matches.

use noiselab_core::experiments::suite;
use noiselab_core::{run, ExecConfig, Mitigation, Model, Platform, RunArena, RunSpec};
use noiselab_kernel::RateCounts;
use noiselab_workloads::Workload;

fn check(workload: &(dyn Workload + Sync), want: RateCounts, want_events: u64) {
    let platform = Platform::intel();
    let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm);
    let r = run(
        &RunSpec::new(&platform, workload, &cfg, 1),
        &mut RunArena::default(),
    )
    .expect("the cell runs to completion");
    assert_eq!((r.rates, r.sanitizer.events), (want, want_events));
}

#[test]
fn babelstream_rm_omp_rate_work_is_pinned() {
    let platform = Platform::intel();
    let want = RateCounts {
        full: 14_410,
        local: 3_054,
        neutral: 5_568,
        pair: 5_298,
        closing_fallbacks: 0,
        walks: 12_087,
        walks_skipped: 11_445,
        arms: 91_876,
        repairs_sift: 1_985,
        repairs_heapify: 11_520,
    };
    check(&suite::babelstream_for(&platform), want, 13_645);
}

#[test]
fn minife_rm_omp_rate_work_is_pinned() {
    let platform = Platform::intel();
    let want = RateCounts {
        full: 20_072,
        local: 7_242,
        neutral: 11_396,
        pair: 4_866,
        closing_fallbacks: 0,
        walks: 14_168,
        walks_skipped: 25_743,
        arms: 109_211,
        repairs_sift: 2_528,
        repairs_heapify: 12_874,
    };
    check(&suite::minife_for(&platform), want, 15_487);
}
