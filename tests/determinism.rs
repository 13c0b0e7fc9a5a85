//! Determinism guarantees across the whole stack: the reproducibility
//! claim of the paper's methodology rests on these.

use noiselab::core::{
    run, ExecConfig, Mitigation, Model, Platform, RunFailure, RunOutput, RunSpec,
};
use noiselab::injector::{generate, GeneratorOptions};
use noiselab::workloads::{Babelstream, NBody};

fn run_once(spec: &RunSpec) -> Result<RunOutput, RunFailure> {
    run(spec, None).map(|r| r.output)
}

fn nbody() -> NBody {
    NBody {
        bodies: 8_192,
        steps: 2,
        sycl_kernel_efficiency: 1.3,
    }
}

#[test]
fn identical_seeds_identical_exec_times() {
    let p = Platform::intel();
    let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm);
    let w = nbody();
    for seed in [1u64, 99, 12345] {
        let spec = RunSpec::new(&p, &w, &cfg, seed);
        let a = run_once(&spec).unwrap();
        let b = run_once(&spec).unwrap();
        assert_eq!(a.exec, b.exec, "seed {seed} not reproducible");
        assert_eq!(a.anomaly, b.anomaly);
    }
}

#[test]
fn identical_seeds_identical_traces() {
    let mut p = Platform::intel();
    p.noise.anomaly_prob = 0.5; // exercise the anomaly path too
    let cfg = ExecConfig::new(Model::Sycl, Mitigation::RmHK);
    let w = nbody();
    let spec = RunSpec {
        tracing: true,
        ..RunSpec::new(&p, &w, &cfg, 7)
    };
    let a = run_once(&spec).unwrap();
    let b = run_once(&spec).unwrap();
    let (ta, tb) = (a.trace.unwrap(), b.trace.unwrap());
    assert_eq!(ta.events.len(), tb.events.len());
    assert_eq!(ta.events, tb.events);
}

#[test]
fn different_seeds_differ() {
    let p = Platform::intel();
    let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm);
    let w = nbody();
    let times: Vec<_> = (0..5)
        .map(|s| run_once(&RunSpec::new(&p, &w, &cfg, s)).unwrap().exec)
        .collect();
    let distinct: std::collections::BTreeSet<_> = times.iter().map(|t| t.nanos()).collect();
    assert!(
        distinct.len() >= 4,
        "seeds produce too-similar runs: {times:?}"
    );
}

#[test]
fn config_generation_is_deterministic() {
    let mut p = Platform::intel();
    p.noise.anomaly_prob = 1.0;
    let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm);
    let w = Babelstream {
        elements: 1 << 18,
        iterations: 10,
        ..Default::default()
    };

    let collect = || {
        let mut set = noiselab::noise::TraceSet::default();
        for seed in 0..4 {
            let spec = RunSpec {
                tracing: true,
                ..RunSpec::new(&p, &w, &cfg, seed)
            };
            let out = run_once(&spec).unwrap();
            let mut t = out.trace.unwrap();
            t.run_index = seed as usize;
            set.runs.push(t);
        }
        generate("det", &set, &GeneratorOptions::default()).unwrap()
    };
    assert_eq!(collect(), collect());
}

#[test]
fn injection_runs_are_deterministic() {
    let mut stormy = Platform::intel();
    stormy.noise.anomaly_prob = 1.0;
    let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm);
    let w = nbody();
    let traced = noiselab::core::run_baseline(&stormy, &w, &cfg, 3, 50, true);
    let config = generate("det", &traced.traces, &GeneratorOptions::default()).unwrap();
    let quiet = Platform::intel();
    let spec = RunSpec {
        inject: Some(&config),
        ..RunSpec::new(&quiet, &w, &cfg, 9)
    };
    let a = run_once(&spec).unwrap();
    let b = run_once(&spec).unwrap();
    assert_eq!(a.exec, b.exec);
}
