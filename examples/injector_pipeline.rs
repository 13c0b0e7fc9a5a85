//! A transparent walk through the injector internals (paper §4),
//! showing the intermediate artifacts of every stage: per-source
//! inherent-noise statistics, the worst-case trace, the delta-subtracted
//! residual, both merge strategies, and the JSON configuration file
//! written to disk (paper Fig. 5).
//!
//! ```sh
//! cargo run --release --example injector_pipeline
//! ```

use noiselab::core::{
    run_baseline, run_many, ExecConfig, Injected, Mitigation, Model, Platform, RetryPolicy, RunSpec,
};
use noiselab::injector::{
    build_config, source_statistics, subtract_average, GeneratorOptions, InjectionConfig,
    MergeStrategy,
};
use noiselab::workloads::MiniFE;

fn main() {
    let mut platform = Platform::intel();
    platform.noise.anomaly_prob = 0.25;
    let workload = MiniFE {
        nx: 48,
        cg_iterations: 100,
        ..Default::default()
    };
    let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm);

    // ---- Stage 1: trace collection -------------------------------------
    println!("== stage 1: system trace collection ==");
    let traced = run_baseline(&platform, &workload, &cfg, 30, 7, true);
    let worst = traced.traces.worst().unwrap();
    println!(
        "{} runs traced; mean {:.3}s; worst run #{} at {:.3}s with {} events",
        traced.traces.runs.len(),
        traced.summary.mean,
        worst.run_index,
        worst.exec_time.as_secs_f64(),
        worst.events.len()
    );
    let [irq, softirq, thread] = worst.noise_by_class();
    println!(
        "worst-run noise by class: irq {:.2}ms, softirq {:.2}ms, thread {:.2}ms",
        irq.as_millis_f64(),
        softirq.as_millis_f64(),
        thread.as_millis_f64()
    );

    // ---- Stage 2: configuration generation ------------------------------
    println!("\n== stage 2: configuration generation ==");
    let stats = source_statistics(&traced.traces);
    println!("top recurring sources (avg occurrences/run, avg duration):");
    let mut by_count: Vec<_> = stats.iter().collect();
    by_count.sort_by(|a, b| b.1.avg_count.partial_cmp(&a.1.avg_count).unwrap());
    for (src, s) in by_count.iter().take(6) {
        println!(
            "  {:<22} {:>8.1}/run  {:>9.2}us",
            src,
            s.avg_count,
            s.avg_duration.as_micros_f64()
        );
    }

    let opts = GeneratorOptions::default();
    let residual = subtract_average(worst, &stats, opts.min_residual);
    let worst_total: u64 = worst.events.iter().map(|e| e.duration.nanos()).sum();
    let res_total: u64 = residual.iter().map(|e| e.duration.nanos()).sum();
    println!(
        "delta subtraction: {} events ({:.2}ms) -> {} residual events ({:.2}ms)",
        worst.events.len(),
        worst_total as f64 / 1e6,
        residual.len(),
        res_total as f64 / 1e6
    );

    let improved = build_config("pipeline", worst.exec_time, residual.clone(), &opts);
    let naive = build_config(
        "pipeline-naive",
        worst.exec_time,
        residual,
        &GeneratorOptions {
            merge: MergeStrategy::NaivePessimistic,
            ..opts
        },
    );
    println!(
        "improved merge: {} events, {:.0}% FIFO | naive merge: {} events, {:.0}% FIFO",
        improved.event_count(),
        improved.fifo_fraction() * 100.0,
        naive.event_count(),
        naive.fifo_fraction() * 100.0
    );

    // The configuration file of paper Fig. 5.
    let path = std::env::temp_dir().join("noiselab_injection_config.json");
    std::fs::write(&path, improved.to_json().expect("serialise config")).expect("write config");
    println!("configuration written to {}", path.display());
    let reloaded = InjectionConfig::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(reloaded, improved);

    // ---- Stage 3: injection ---------------------------------------------
    println!("\n== stage 3: injection ==");
    let quiet = Platform::intel();
    let base = run_baseline(&quiet, &workload, &cfg, 10, 600, false);
    for (name, config) in [("improved", &reloaded), ("naive", &naive)] {
        let spec = RunSpec {
            inject: Some(config),
            ..RunSpec::new(&quiet, &workload, &cfg, 800)
        };
        let inj = Injected::from_ledger(&spec, run_many(&spec, 10, RetryPolicy::none()));
        println!(
            "{name:<9} injected mean {:.3}s ({:+.1}% vs baseline, accuracy {:+.1}% vs anomaly)",
            inj.summary.mean,
            (inj.summary.mean / base.summary.mean - 1.0) * 100.0,
            (inj.summary.mean / config.anomaly_exec.as_secs_f64() - 1.0) * 100.0
        );
    }
}
