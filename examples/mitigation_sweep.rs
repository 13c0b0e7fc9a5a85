//! Sweep every mitigation strategy × programming model for one workload
//! under worst-case noise injection — the core decision the paper
//! supports: which configuration should you deploy when noise matters?
//!
//! ```sh
//! cargo run --release --example mitigation_sweep [nbody|babelstream|minife] [intel|amd]
//! ```

use noiselab::core::experiments::suite;
use noiselab::core::{
    run_baseline, run_many, ExecConfig, Injected, Mitigation, Model, Platform, RetryPolicy, RunSpec,
};
use noiselab::injector::{generate, GeneratorOptions};
use noiselab::stats::{fmt_pct, fmt_secs, TextTable};
use noiselab::workloads::Workload;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let which = args.get(1).map(String::as_str).unwrap_or("nbody");
    let plat = args.get(2).map(String::as_str).unwrap_or("intel");

    let platform = match plat {
        "amd" => Platform::amd(),
        _ => Platform::intel(),
    };
    let workload: Box<dyn Workload + Sync> = match which {
        "babelstream" => Box::new(suite::babelstream_for(&platform)),
        "minife" => Box::new(suite::minife_for(&platform)),
        _ => Box::new(suite::nbody_for(&platform)),
    };
    println!("workload: {} on {}", workload.name(), platform.label());

    // Collect a worst-case trace from Rm-OMP (boosted anomaly rate for
    // demo brevity) and build the injection config.
    let mut collection = platform.clone();
    collection.noise.anomaly_prob = 0.2;
    let source = ExecConfig::new(Model::Omp, Mitigation::Rm);
    let traced = run_baseline(&collection, workload.as_ref(), &source, 30, 1, true);
    let config = generate("sweep", &traced.traces, &GeneratorOptions::default()).unwrap();
    println!(
        "worst-case trace: {:.3}s ({:+.1}% over mean); injecting {} events\n",
        config.anomaly_exec.as_secs_f64(),
        (config.anomaly_exec.as_secs_f64() / traced.summary.mean - 1.0) * 100.0,
        config.event_count()
    );

    let mut table = TextTable::new("mitigation sweep under worst-case injection").header(&[
        "config",
        "baseline",
        "injected",
        "degradation",
        "base sd(ms)",
    ]);
    for model in [Model::Omp, Model::Sycl] {
        for mit in Mitigation::ALL {
            let cfg = ExecConfig::new(model, mit);
            let base = run_baseline(&platform, workload.as_ref(), &cfg, 12, 500, false);
            let spec = RunSpec {
                inject: Some(&config),
                ..RunSpec::new(&platform, workload.as_ref(), &cfg, 900)
            };
            let inj = Injected::from_ledger(&spec, run_many(&spec, 10, RetryPolicy::none()));
            table.row(&[
                cfg.label(),
                fmt_secs(base.summary.mean),
                fmt_secs(inj.summary.mean),
                fmt_pct(inj.summary.mean / base.summary.mean - 1.0),
                format!("{:.2}", base.summary.sd * 1e3),
            ]);
        }
    }
    println!("{}", table.render());
    println!("reading guide: housekeeping (HK/HK2) should show the smallest");
    println!("degradations; SYCL rows should degrade less than OMP rows but");
    println!("start from slower baselines (paper §5.2).");
}
