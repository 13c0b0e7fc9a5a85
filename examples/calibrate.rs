//! Calibration probe: run each workload once per platform/model and
//! compare the virtual execution time against the paper's baselines.
//! Also reports host wall-clock per simulated run, which sizes the
//! bench scales.

use noiselab::core::{run, ExecConfig, Mitigation, Model, Platform, RunSpec};
use noiselab::workloads::{Babelstream, MiniFE, NBody, Workload};

fn probe(platform: &Platform, w: &(dyn Workload + Sync), model: Model, paper: f64) {
    let cfg = ExecConfig::new(model, Mitigation::Rm);
    #[expect(
        clippy::disallowed_methods,
        reason = "host time only labels the printed output"
    )]
    let t0 = std::time::Instant::now();
    let out = run(&RunSpec::new(platform, w, &cfg, 1), None)
        .expect("calibration run failed")
        .output;
    let wall = t0.elapsed().as_secs_f64();
    println!(
        "{:<22} {:<11} {:>6} sim={:.3}s paper={:.3}s ratio={:.2} wall={:.2}s",
        platform.label(),
        w.name(),
        cfg.label(),
        out.exec.as_secs_f64(),
        paper,
        out.exec.as_secs_f64() / paper,
        wall
    );
}

fn main() {
    let intel = Platform::intel();
    let amd = Platform::amd();

    // Paper baselines (derived from Tables 1, 3-5: baseline = avg / (1 + pct)).
    probe(&intel, &NBody::default(), Model::Omp, 0.451);
    probe(&intel, &NBody::default(), Model::Sycl, 0.602);
    probe(&intel, &Babelstream::default(), Model::Omp, 1.902);
    probe(&intel, &Babelstream::default(), Model::Sycl, 2.141);
    probe(&intel, &MiniFE::default(), Model::Omp, 1.059);
    probe(&intel, &MiniFE::default(), Model::Sycl, 2.007);

    probe(&amd, &NBody::default(), Model::Omp, 0.674);
    probe(&amd, &NBody::default(), Model::Sycl, 0.777);
    probe(&amd, &Babelstream::default(), Model::Omp, 0.793);
    probe(&amd, &Babelstream::default(), Model::Sycl, 0.994);
    probe(&amd, &MiniFE::default(), Model::Omp, 0.723);
    probe(&amd, &MiniFE::default(), Model::Sycl, 1.350);
}
