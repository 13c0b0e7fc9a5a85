//! Cross-crate integration tests: the full §4 pipeline (trace
//! collection → configuration generation → injection) and the headline
//! mitigation behaviours, at smoke scale.

use noiselab::core::experiments::suite;
use noiselab::core::{
    run, run_baseline, run_many, ExecConfig, Injected, Mitigation, Model, Platform, RetryPolicy,
    RunArena, RunSpec,
};
use noiselab::injector::InjectionConfig;
use noiselab::injector::{generate, GeneratorOptions};
use noiselab::noise::{AnomalyKind, AnomalySpec};
use noiselab::sim::SimDuration;
use noiselab::workloads::NBody;

/// The injection stage: `runs` runs from `seed` replaying `config`.
fn inject(
    platform: &Platform,
    w: &NBody,
    cfg: &ExecConfig,
    config: &InjectionConfig,
    runs: usize,
    seed: u64,
) -> Injected {
    let spec = RunSpec {
        inject: Some(config),
        ..RunSpec::new(platform, w, cfg, seed)
    };
    Injected::from_ledger(&spec, run_many(&spec, runs, RetryPolicy::none()))
}

fn fast_nbody() -> NBody {
    NBody {
        bodies: 8_192,
        steps: 3,
        sycl_kernel_efficiency: 1.3,
    }
}

/// A platform whose every run contains a deterministic CPU storm, so
/// smoke-scale runs exercise worst-case paths.
fn stormy_intel() -> Platform {
    let mut p = Platform::intel();
    p.noise.anomaly_prob = 1.0;
    p.noise.anomalies = vec![AnomalySpec {
        name: "test-storm".into(),
        kind: AnomalyKind::ThreadStorm {
            threads: 2,
            median_burst: SimDuration::from_millis(2),
            sigma: 0.4,
            mean_gap: SimDuration::from_micros(500),
        },
        window: (SimDuration::from_millis(30), SimDuration::from_millis(60)),
        start: (SimDuration::from_millis(1), SimDuration::from_millis(5)),
    }];
    p
}

#[test]
fn full_pipeline_trace_generate_inject() {
    let platform = stormy_intel();
    let w = fast_nbody();
    let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm);

    // Stage 1: traced baseline.
    let traced = run_baseline(&platform, &w, &cfg, 6, 100, true);
    assert_eq!(traced.traces.runs.len(), 6);
    assert!(traced.traces.runs.iter().all(|t| !t.events.is_empty()));

    // Stage 2: configuration generation.
    let config = generate("it", &traced.traces, &GeneratorOptions::default()).unwrap();
    config.validate().unwrap();
    assert!(
        config.event_count() > 0,
        "storm must survive delta subtraction"
    );
    assert!(config.anomaly_exec > SimDuration::ZERO);

    // Stage 3: injection measurably slows the workload vs a quiet
    // baseline.
    let quiet = Platform::intel();
    let base = run_baseline(&quiet, &w, &cfg, 5, 300, false);
    let injected = inject(&quiet, &w, &cfg, &config, 5, 400);
    assert!(
        injected.summary.mean > base.summary.mean * 1.02,
        "injection should slow the workload: {} vs {}",
        injected.summary.mean,
        base.summary.mean
    );
}

#[test]
fn housekeeping_absorbs_cpu_storm() {
    // Under a persistent 2-thread storm, RmHK2 (2 housekeeping cores on
    // Intel) should be much closer to its quiet baseline than Rm is.
    let stormy = stormy_intel();
    let quiet = Platform::intel();
    let w = fast_nbody();

    let degradation = |mit: Mitigation| {
        let cfg = ExecConfig::new(Model::Omp, mit);
        let noisy = run_baseline(&stormy, &w, &cfg, 5, 77, false).summary.mean;
        let base = run_baseline(&quiet, &w, &cfg, 5, 77, false).summary.mean;
        noisy / base - 1.0
    };
    let rm = degradation(Mitigation::Rm);
    let hk2 = degradation(Mitigation::RmHK2);
    assert!(
        hk2 < rm * 0.6,
        "housekeeping should absorb the storm: Rm +{:.1}% vs RmHK2 +{:.1}%",
        rm * 100.0,
        hk2 * 100.0
    );
}

#[test]
fn sycl_more_resilient_than_omp_under_storm() {
    let stormy = stormy_intel();
    let quiet = Platform::intel();
    let w = fast_nbody();
    let degradation = |model: Model| {
        let cfg = ExecConfig::new(model, Mitigation::Rm);
        let noisy = run_baseline(&stormy, &w, &cfg, 5, 55, false).summary.mean;
        let base = run_baseline(&quiet, &w, &cfg, 5, 55, false).summary.mean;
        noisy / base - 1.0
    };
    let omp = degradation(Model::Omp);
    let sycl = degradation(Model::Sycl);
    assert!(
        sycl < omp,
        "dynamic dispatch should absorb noise better: OMP +{:.1}% vs SYCL +{:.1}%",
        omp * 100.0,
        sycl * 100.0
    );
}

#[test]
fn injection_config_roundtrips_through_json_file() {
    let platform = stormy_intel();
    let w = fast_nbody();
    let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm);
    let traced = run_baseline(&platform, &w, &cfg, 4, 900, true);
    let config = generate("rt", &traced.traces, &GeneratorOptions::default()).unwrap();

    let json = config.to_json().unwrap();
    let back = noiselab::injector::InjectionConfig::from_json(&json).unwrap();
    assert_eq!(config, back);

    // Injecting the deserialised config gives identical results.
    let quiet = Platform::intel();
    let a = inject(&quiet, &w, &cfg, &config, 3, 1_000);
    let b = inject(&quiet, &w, &cfg, &back, 3, 1_000);
    assert_eq!(a.summary.mean, b.summary.mean);
}

#[test]
fn tracing_overhead_is_small() {
    let platform = Platform::intel();
    let w = fast_nbody();
    let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm);
    let off = run_baseline(&platform, &w, &cfg, 5, 42, false).summary.mean;
    let on = run_baseline(&platform, &w, &cfg, 5, 42, true).summary.mean;
    let inc = on / off - 1.0;
    assert!(inc.abs() < 0.02, "tracing overhead {:+.2}%", inc * 100.0);
}

#[test]
fn per_platform_suite_baselines_match_paper_scale() {
    // Calibration guard: the Intel baselines should stay within 15 % of
    // the paper's Table 1 / Tables 3-5 values.
    let intel = Platform::intel();
    for (w, paper, model) in [
        (
            Box::new(suite::nbody_for(&intel)) as Box<dyn noiselab::workloads::Workload + Sync>,
            0.451,
            Model::Omp,
        ),
        (Box::new(suite::babelstream_for(&intel)), 1.902, Model::Omp),
        (Box::new(suite::minife_for(&intel)), 1.059, Model::Omp),
    ] {
        let cfg = ExecConfig::new(model, Mitigation::Rm);
        let spec = RunSpec::new(&intel, w.as_ref(), &cfg, 5);
        let out = run(&spec, &mut RunArena::default()).unwrap().output;
        let ratio = out.exec.as_secs_f64() / paper;
        assert!(
            (0.85..1.25).contains(&ratio),
            "{} baseline drifted: sim {:.3}s vs paper {:.3}s",
            w.name(),
            out.exec.as_secs_f64(),
            paper
        );
    }
}
