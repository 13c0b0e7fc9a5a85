//! Quickstart: the paper's three-stage pipeline on one workload.
//!
//! 1. run the workload repeatedly with the osnoise-style tracer on;
//! 2. generate a noise-injection configuration from the worst run;
//! 3. re-run the workload while the injector replays that noise.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use noiselab::core::{
    run_baseline, run_many, ExecConfig, Injected, Mitigation, Model, Platform, RetryPolicy, RunSpec,
};
use noiselab::injector::{generate, GeneratorOptions};
use noiselab::workloads::NBody;

fn main() {
    // The Intel desktop platform from the paper, with its background
    // noise (kworkers, daemons, GUI, rare anomalies). Boost the anomaly
    // probability so this small demo reliably catches a worst case.
    let mut platform = Platform::intel();
    platform.noise.anomaly_prob = 0.2;

    let workload = NBody::default();
    let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm);

    // Stage 1: system trace collection (paper §4.1). The paper uses
    // 1000 runs; 40 keeps the demo quick.
    println!("collecting traces (40 runs)...");
    let traced = run_baseline(&platform, &workload, &cfg, 40, 1, true);
    println!(
        "baseline: mean {:.3}s, sd {:.1}ms, worst {:.3}s",
        traced.summary.mean,
        traced.summary.sd * 1e3,
        traced.summary.max
    );

    // Stage 2: noise configuration generation (paper §4.2) — average
    // inherent noise subtracted from the worst-case trace, policies
    // assigned, per-CPU overlaps merged.
    let config = generate("quickstart", &traced.traces, &GeneratorOptions::default())
        .expect("traces collected");
    println!(
        "config: {} events on {} cpus, {:.1}ms total noise, {:.0}% under SCHED_FIFO",
        config.event_count(),
        config.lists.len(),
        config.total_noise().as_millis_f64(),
        config.fifo_fraction() * 100.0
    );

    // Stage 3: noise injection during workload execution (paper §4.3).
    let quiet = Platform::intel();
    let base = run_baseline(&quiet, &workload, &cfg, 20, 1_000, false);
    let spec = RunSpec {
        inject: Some(&config),
        ..RunSpec::new(&quiet, &workload, &cfg, 2_000)
    };
    let injected = Injected::from_ledger(&spec, run_many(&spec, 20, RetryPolicy::none()));
    println!(
        "un-injected mean {:.3}s -> injected mean {:.3}s ({:+.1}%)",
        base.summary.mean,
        injected.summary.mean,
        (injected.summary.mean / base.summary.mean - 1.0) * 100.0
    );
    println!(
        "replication accuracy vs recorded anomaly ({:.3}s): {:+.1}%",
        config.anomaly_exec.as_secs_f64(),
        (injected.summary.mean / config.anomaly_exec.as_secs_f64() - 1.0) * 100.0
    );
}
