//! Work-count pins for the rate layer. The two cells that dominate the
//! omp-saturated benchmark, babelstream and miniFE under Rm-OMP on the
//! Intel platform, and a fine-chunk Figure 1 cell on the 48-CPU A64FX
//! are run at seed 1 and every `RateCounts` figure is pinned, so a
//! change that adds a pass, a walk, a lane step, a timer arm or a lane
//! rescan fails here even when every stream hash still matches.

use noiselab_core::experiments::suite;
use noiselab_core::{run, ExecConfig, Mitigation, Model, Platform, RunSpec};
use noiselab_kernel::RateCounts;
use noiselab_runtime::omp::OmpSchedule;
use noiselab_workloads::{SchedBench, Workload};

fn check_on(
    platform: &Platform,
    workload: &(dyn Workload + Sync),
    cfg: &ExecConfig,
    want: RateCounts,
    want_events: u64,
) {
    let r =
        run(&RunSpec::new(platform, workload, cfg, 1), None).expect("the cell runs to completion");
    assert_eq!((r.rates, r.sanitizer.events), (want, want_events));
}

fn check(workload: &(dyn Workload + Sync), want: RateCounts, want_events: u64) {
    let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm);
    check_on(&Platform::intel(), workload, &cfg, want, want_events);
}

#[test]
fn babelstream_rm_omp_rate_work_is_pinned() {
    let platform = Platform::intel();
    let want = RateCounts {
        full: 14_410,
        local: 3_054,
        local_certified: 3,
        neutral: 5_568,
        pair: 5_298,
        closing_fallbacks: 0,
        walks: 12_087,
        walks_skipped: 11_445,
        arms: 91_876,
        rearms_skipped: 134,
        repairs_sift: 8_314,
        repairs_heapify: 601,
        lane_compares: 121_266,
        lane_steps: 93_094,
    };
    check(&suite::babelstream_for(&platform), want, 13_645);
}

#[test]
fn minife_rm_omp_rate_work_is_pinned() {
    let platform = Platform::intel();
    let want = RateCounts {
        full: 20_072,
        local: 7_242,
        local_certified: 0,
        neutral: 11_396,
        pair: 4_866,
        closing_fallbacks: 0,
        walks: 14_168,
        walks_skipped: 25_743,
        arms: 109_211,
        rearms_skipped: 80,
        repairs_sift: 10_736,
        repairs_heapify: 1_203,
        lane_compares: 138_492,
        lane_steps: 102_481,
    };
    check(&suite::minife_for(&platform), want, 15_487);
}

#[test]
fn a64fx_schedbench_dynamic_1_rate_work_is_pinned() {
    let platform = Platform::a64fx(false);
    let schedule = OmpSchedule::Dynamic { chunk: 1 };
    let mut sb = SchedBench::with_schedule(schedule);
    sb.repeats = 5;
    let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm).with_schedule(schedule);
    let want = RateCounts {
        full: 5,
        local: 82_565,
        local_certified: 82_565,
        neutral: 0,
        pair: 165,
        closing_fallbacks: 0,
        walks: 33_610,
        walks_skipped: 48_960,
        arms: 41_108,
        rearms_skipped: 47,
        repairs_sift: 330,
        repairs_heapify: 5,
        lane_compares: 577_512,
        lane_steps: 7_563,
    };
    check_on(&platform, &sb, &cfg, want, 41_252);
}
