//! The noiselab command-line tool: drive the paper's pipeline stage by
//! stage, with JSON artifacts on disk between stages.
//!
//! ```text
//! noiselab baseline --platform intel --workload nbody [--model omp] [--mitigation Rm] [--runs 40]
//! noiselab trace    --platform intel --workload nbody --out traces.json [--boost 10]
//! noiselab trace    --run <seed> --out trace.json [--binary trace.nltb]   # Perfetto timeline
//! noiselab metrics  [--runs 5] [--tracing true] [--json] [--profile] [--overhead [--reps 3]]
//! noiselab metrics  --checkpoint state.json [--json]   # merged campaign + supervisor metrics
//! noiselab advise   [--checkpoint state.json] [--traces <file|dir>] [--check]
//!                   [--bench-hotpath BENCH_hotpath.json]
//!                   [--json] [--markdown <path|->] [--cv-threshold 0.05] [--alpha 0.01]
//!                   [--resamples 800] [--advise-seed N]
//! noiselab generate --traces traces.json --out config.json [--merge improved|naive]
//! noiselab inject   --platform intel --workload nbody --config config.json [--runs 20]
//! noiselab analyze  --traces traces.json [--top 10]
//! noiselab report   --what table1|table2|fig1|fig2|merge|memory|runlevel3 [--scale smoke|bench|paper]
//! noiselab campaign --platform intel --workload nbody [--runs 20] [--checkpoint state.json]
//!                   [--resume true] [--crash-prob 0.05] [--crash-window-ms 2]
//!                   [--fault-seed 1] [--retries 0] [--limit N] [--verify-resume true]
//!                   [--dvfs true]   # grow the grid by the governor mitigation matrix
//! noiselab campaign --workers N [--queue DIR] [--shard-size 2] [--heartbeat-secs 120]
//!                   [--shard-timeout-secs 3600] [--max-shard-crashes 3] [--chaos-kills 0]
//! noiselab audit    [--dual-run] [--json]
//!                   [--platform intel] [--workload nbody] [--model omp] [--mitigation Rm]
//!                   [--seed 1] [--perturb N] [--cadence 64]
//! noiselab conform  [--fuzz N] [--seed S] [--corpus <dir>] [--json]
//!                   [--mutate swap-pick|drop-irq-span|affinity-break|ghost-run
//!                             |turbo-leak|throttle-early|ghost-turbo|throttle-stuck]
//! noiselab conform  --replay <case.json | repro-line-file | '// conform:repro {...}'>
//! ```
//!
//! `trace --run <seed>` runs one seed with the telemetry recorder and
//! writes a Chrome trace-event JSON timeline (one track per logical
//! CPU) loadable in ui.perfetto.dev or chrome://tracing; `--binary`
//! additionally writes the compact NLTB timeline. `metrics` aggregates
//! the metrics registry over a few runs; `--profile` adds the host-time
//! phase profile and `--overhead` the Table-1-style observation
//! overhead report.
//!
//! `campaign` sweeps every model x mitigation cell, checkpointing after
//! each completed cell; a killed campaign resumes bit-identical with
//! `--resume true` and the same flags (`--verify-resume true`, the
//! default, re-runs the last completed cell and requires its event
//! stream hash to match the checkpoint before continuing).
//! `campaign --workers N` runs the same sweep on the sharded
//! multi-process engine (crates/campaignd): cells are partitioned into
//! shards on an on-disk work queue, claimed under lease files by N
//! supervised worker processes, and merged with per-shard hash
//! verification into a state bit-identical to the single-process path;
//! killed workers are respawned with backoff, repeat-lethal shards are
//! quarantined and reported by name, and re-running the command against
//! the same `--queue` resumes at cell granularity.
//!
//! `conform` runs the scheduler conformance suite: a coverage-guided
//! fuzz campaign whose every scenario is re-derived by a naive
//! differential oracle and checked against the metamorphic invariants
//! (work conservation, FIFO supremacy, affinity, osnoise conservation,
//! bounded fairness). Failures are shrunk to one-line
//! `// conform:repro` cases replayable with `--replay`; `--mutate`
//! seeds a known scheduler bug to prove the suite catches it (the exit
//! code flips: a mutated campaign that PASSES is the failure).
//!
//! `audit` is the dynamic half of the determinism contract: it executes
//! the same cell twice and bisects the event streams, naming the first
//! divergent event if they differ (`--perturb N` deliberately forks run
//! B after event N to exercise the pipeline; `--dual-run` is accepted
//! and is the only mode). The static half is clippy: the lists in the
//! root `clippy.toml` and the lint levels on each crate root. The
//! removed `--static`, `--sarif` and `--root` flags are errors that
//! point there. Flags given without a value (`--dual-run --json`) are
//! booleans.
//!
//! `advise` is the measurement-quality advisor (crates/advise): it
//! reads whatever artifacts exist — a campaign checkpoint, per-cell
//! trace sets (a single JSON file, or a directory of
//! `<cell-label>.json` files), and the committed `BENCH_*.json`
//! history — and prints the ranked diagnosis: measurement smells
//! (high-CV cells by seeded bootstrap CI, retry/degraded clusters,
//! quarantined cells, supervisor instability), per-cell noise blame
//! (dominant source and CPU by share of excess osnoise), the bench
//! regression watch (robust z against the trajectory's own step
//! noise), and the mitigation recommendation table. `--check` exits
//! nonzero when any critical smell or significant regression is
//! present (the CI gate); `--markdown <path|->` writes the report as
//! markdown. Bench files with a missing or foreign schema tag are
//! refused with an error naming the file.

use noiselab::core::experiments::{
    ablation, fig1, fig2, numa, runlevel, suite, table1, table2, Scale,
};
use noiselab::core::{
    run_baseline, run_batch, Baseline, ExecConfig, Injected, Mitigation, Model, Platform,
    RetryPolicy, RunLedger, RunSpec,
};
use noiselab::injector::{generate, GeneratorOptions, InjectionConfig, MergeStrategy};
use noiselab::noise::TraceSet;
use noiselab::workloads::Workload;
use std::collections::BTreeMap;
use std::process::ExitCode;

struct Args {
    cmd: String,
    opts: BTreeMap<String, String>,
}

fn parse_args() -> Option<Args> {
    let mut it = std::env::args().skip(1).peekable();
    let cmd = it.next()?;
    let mut opts = BTreeMap::new();
    while let Some(key) = it.next() {
        let key = key.strip_prefix("--")?.to_string();
        // A flag followed by another flag (or the end of the line) is a
        // bare boolean: `--dual-run --json` means dual-run=true json=true.
        let value = match it.peek() {
            Some(next) if !next.starts_with("--") => it.next()?,
            _ => "true".to_string(),
        };
        opts.insert(key, value);
    }
    Some(Args { cmd, opts })
}

impl Args {
    fn get(&self, key: &str, default: &str) -> String {
        self.opts
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    fn required(&self, key: &str) -> Result<String, String> {
        self.opts
            .get(key)
            .cloned()
            .ok_or_else(|| format!("missing required --{key}"))
    }

    /// Platform/workload names resolve through the same tables the
    /// sharded campaign workers use, so `--workers N` and the
    /// single-process path can never disagree on what a name means.
    fn platform(&self) -> Result<Platform, String> {
        let name = self.get("platform", "intel");
        Platform::by_name(&name)
            .ok_or_else(|| format!("unknown platform '{name}' ({})", Platform::NAMES.join("|")))
    }

    fn workload(&self, platform: &Platform) -> Result<Box<dyn Workload + Sync>, String> {
        let name = self.get("workload", "nbody");
        suite::workload_by_name(platform, &name).ok_or_else(|| {
            format!(
                "unknown workload '{name}' ({})",
                suite::WORKLOAD_NAMES.join("|")
            )
        })
    }

    fn exec_config(&self) -> Result<ExecConfig, String> {
        let model = match self.get("model", "omp").as_str() {
            "omp" => Model::Omp,
            "sycl" => Model::Sycl,
            other => return Err(format!("unknown model '{other}' (omp|sycl)")),
        };
        let mitigation = match self.get("mitigation", "Rm").as_str() {
            "Rm" => Mitigation::Rm,
            "RmHK" => Mitigation::RmHK,
            "RmHK2" => Mitigation::RmHK2,
            "TP" => Mitigation::Tp,
            "TPHK" => Mitigation::TpHK,
            "TPHK2" => Mitigation::TpHK2,
            other => {
                return Err(format!(
                    "unknown mitigation '{other}' (Rm|RmHK|RmHK2|TP|TPHK|TPHK2)"
                ))
            }
        };
        let mut cfg = ExecConfig::new(model, mitigation);
        if self.get("smt", "off") == "on" {
            cfg = cfg.with_smt();
        }
        Ok(cfg)
    }

    fn runs(&self, default: usize) -> usize {
        self.get("runs", &default.to_string())
            .parse()
            .unwrap_or(default)
    }

    fn seed(&self) -> u64 {
        self.get("seed", "1").parse().unwrap_or(1)
    }

    fn scale(&self) -> Scale {
        match self.get("scale", "bench").as_str() {
            "smoke" => Scale::smoke(),
            "paper" => Scale::paper(),
            _ => Scale::bench(),
        }
    }
}

fn cmd_baseline(args: &Args) -> Result<(), String> {
    let platform = args.platform()?;
    let workload = args.workload(&platform)?;
    let cfg = args.exec_config()?;
    let runs = args.runs(40);
    let base = run_baseline(&platform, workload.as_ref(), &cfg, runs, args.seed(), false);
    println!(
        "{} {} {}: {} runs, mean {:.4}s, sd {:.2}ms, min {:.4}s, max {:.4}s, p99 {:.4}s",
        platform.label(),
        workload.name(),
        cfg.label(),
        runs,
        base.summary.mean,
        base.summary.sd * 1e3,
        base.summary.min,
        base.summary.max,
        base.summary.p99
    );
    Ok(())
}

/// `trace --run <seed>`: run one seed with the telemetry recorder and
/// export a Perfetto-loadable Chrome trace (and optionally the compact
/// NLTB binary timeline).
fn cmd_trace_timeline(args: &Args, run_seed: u64) -> Result<(), String> {
    use noiselab::core::{run, RunArena};
    use noiselab::telemetry::{chrome_trace, encode, TelemetryConfig};

    let platform = args.platform()?;
    let workload = args.workload(&platform)?;
    let cfg = args.exec_config()?;
    let out = args.required("out")?;
    let spec = RunSpec {
        telemetry: Some(TelemetryConfig::default()),
        ..RunSpec::new(&platform, workload.as_ref(), &cfg, run_seed)
    };
    let done = run(&spec, &mut RunArena::default()).map_err(|e| format!("run failed: {e}"))?;
    let report = done.telemetry.expect("telemetry was attached");
    let label = format!(
        "{} {} {} seed {}",
        platform.label(),
        workload.name(),
        cfg.label(),
        run_seed
    );
    std::fs::write(&out, chrome_trace(&report, &label)).map_err(|e| e.to_string())?;
    if let Some(bin) = args.opts.get("binary") {
        std::fs::write(bin, encode(&report)).map_err(|e| e.to_string())?;
    }
    println!(
        "{label}: exec {:.4}s, {} spans, {} instants on {} cpus ({} dropped) -> {} \
         (load in ui.perfetto.dev)",
        done.output.exec.as_secs_f64(),
        report.spans.len(),
        report.instants.len(),
        report.n_cpus,
        report.dropped,
        out
    );
    Ok(())
}

fn cmd_trace(args: &Args) -> Result<(), String> {
    // `--run <seed>` switches to single-run timeline export; without it
    // this is the legacy TraceSet pipeline stage `generate` consumes.
    if let Some(seed) = args.opts.get("run") {
        let seed = seed
            .parse()
            .map_err(|_| format!("--run wants a seed (got {seed:?})"))?;
        return cmd_trace_timeline(args, seed);
    }
    let mut platform = args.platform()?;
    if let Ok(boost) = args.get("boost", "1").parse::<f64>() {
        platform.noise.anomaly_prob = (platform.noise.anomaly_prob * boost).min(0.5);
    }
    let workload = args.workload(&platform)?;
    let cfg = args.exec_config()?;
    let out = args.required("out")?;
    let runs = args.runs(40);
    let base = run_baseline(&platform, workload.as_ref(), &cfg, runs, args.seed(), true);
    let json = serde_json::to_string(&base.traces).map_err(|e| e.to_string())?;
    std::fs::write(&out, json).map_err(|e| e.to_string())?;
    println!(
        "traced {} runs (mean {:.4}s, worst {:.4}s, {} anomalous) -> {}",
        runs,
        base.summary.mean,
        base.summary.max,
        base.anomaly_runs.len(),
        out
    );
    Ok(())
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let traces_path = args.required("traces")?;
    let out = args.required("out")?;
    let data = std::fs::read_to_string(&traces_path).map_err(|e| e.to_string())?;
    let traces: TraceSet = serde_json::from_str(&data).map_err(|e| e.to_string())?;
    let merge = match args.get("merge", "improved").as_str() {
        "naive" => MergeStrategy::NaivePessimistic,
        _ => MergeStrategy::Improved,
    };
    let opts = GeneratorOptions {
        merge,
        ..GeneratorOptions::default()
    };
    let config =
        generate(traces_path.clone(), &traces, &opts).ok_or("trace set is empty".to_string())?;
    let json = config.to_json().map_err(|e| e.to_string())?;
    std::fs::write(&out, json).map_err(|e| e.to_string())?;
    println!(
        "config: {} events on {} cpus, total noise {:.2}ms, {:.0}% FIFO, anomaly {:.4}s -> {}",
        config.event_count(),
        config.lists.len(),
        config.total_noise().as_millis_f64(),
        config.fifo_fraction() * 100.0,
        config.anomaly_exec.as_secs_f64(),
        out
    );
    Ok(())
}

fn cmd_inject(args: &Args) -> Result<(), String> {
    let platform = args.platform()?;
    let workload = args.workload(&platform)?;
    let cfg = args.exec_config()?;
    let config_path = args.required("config")?;
    let data = std::fs::read_to_string(&config_path).map_err(|e| e.to_string())?;
    let config = InjectionConfig::from_json(&data).map_err(|e| e.to_string())?;
    let runs = args.runs(20);
    // Both halves share one run pool: neither waits for the other to
    // finish before its runs start.
    let base_spec = RunSpec::new(&platform, workload.as_ref(), &cfg, args.seed() + 10_000);
    let inj_spec = RunSpec {
        inject: Some(&config),
        ..RunSpec::new(&platform, workload.as_ref(), &cfg, args.seed())
    };
    let [base, inj]: [RunLedger; 2] = run_batch(
        &[(&base_spec, runs), (&inj_spec, runs)],
        RetryPolicy::none(),
    )
    .try_into()
    .map_err(|_| "run pool returned the wrong number of ledgers".to_string())?;
    let base = Baseline::from_ledger(&base_spec, base);
    let inj = Injected::from_ledger(&inj_spec, inj);
    println!(
        "{} {} {}: baseline {:.4}s -> injected {:.4}s ({:+.1}%), accuracy {:+.1}%",
        platform.label(),
        workload.name(),
        cfg.label(),
        base.summary.mean,
        inj.summary.mean,
        (inj.summary.mean / base.summary.mean - 1.0) * 100.0,
        (inj.summary.mean / config.anomaly_exec.as_secs_f64() - 1.0) * 100.0
    );
    for (seed, cause) in base.failures.iter().chain(&inj.failures) {
        println!("  failed run: seed {seed}: {cause}");
    }
    Ok(())
}

fn cmd_report(args: &Args) -> Result<(), String> {
    let scale = args.scale();
    match args.get("what", "table1").as_str() {
        "table1" => print!("{}", table1::run(scale).render()),
        "table2" => print!("{}", table2::run(scale).render()),
        "fig1" => print!("{}", fig1::run(scale, false).render()),
        "fig2" => print!("{}", fig2::run(scale, false).render()),
        "merge" => print!("{}", ablation::merge_ablation(scale, false).render()),
        "memory" => print!("{}", ablation::memory_noise_ablation(scale, false).render()),
        "runlevel3" => print!("{}", runlevel::run(scale, false).render()),
        "numa" => print!("{}", numa::run(scale.baseline_runs, false).render()),
        other => {
            return Err(format!(
                "unknown report '{other}' (table1|table2|fig1|fig2|merge|memory|runlevel3|numa; \
                 tables 3-7 via cargo bench)"
            ))
        }
    }
    Ok(())
}

/// The model x mitigation sweep both campaign engines run. With
/// `dvfs`, the grid also grows the frequency mitigation matrix —
/// pinned and roaming cells under every governor — so `advise` can
/// rank governors and re-ask the placement question under a shared
/// turbo budget and thermal throttling.
fn campaign_cells(dvfs: bool) -> Vec<(String, ExecConfig)> {
    let mut cells: Vec<(String, ExecConfig)> = Mitigation::ALL
        .iter()
        .flat_map(|&mit| {
            [Model::Omp, Model::Sycl].map(|model| {
                let cfg = ExecConfig::new(model, mit);
                (cfg.label(), cfg)
            })
        })
        .collect();
    if dvfs {
        for mit in [Mitigation::Rm, Mitigation::Tp] {
            for g in noiselab::machine::Governor::ALL {
                let cfg = ExecConfig::new(Model::Omp, mit).with_governor(g);
                cells.push((cfg.label(), cfg));
            }
        }
    }
    cells
}

/// The optional deterministic fault plan shared by both engines:
/// `--crash-prob p` with `--crash-window-ms w` and `--fault-seed s`.
fn campaign_faults(args: &Args) -> Option<noiselab::kernel::FaultPlan> {
    let crash_prob: f64 = args.get("crash-prob", "0").parse().unwrap_or(0.0);
    let fault_seed: u64 = args.get("fault-seed", "1").parse().unwrap_or(1);
    let window_ms: u64 = args.get("crash-window-ms", "2").parse().unwrap_or(2);
    (crash_prob > 0.0)
        .then(|| noiselab::kernel::FaultPlan::crashy(fault_seed, crash_prob, window_ms))
}

fn cmd_campaign(args: &Args) -> Result<(), String> {
    use noiselab::core::campaign::{render_campaign_report, run_campaign, CampaignPlan};

    // `--workers N` switches to the sharded multi-process engine.
    if args.opts.contains_key("workers") {
        return cmd_campaign_sharded(args);
    }

    let platform = args.platform()?;
    let workload = args.workload(&platform)?;
    let runs = args.runs(20);
    let checkpoint = args.opts.get("checkpoint").map(std::path::PathBuf::from);
    if args.get("resume", "false") == "true" && checkpoint.is_none() {
        return Err("--resume true requires --checkpoint <path>".into());
    }
    if args.get("resume", "false") != "true" {
        // A fresh campaign must not silently continue an old one.
        if let Some(p) = &checkpoint {
            if p.exists() {
                return Err(format!(
                    "checkpoint {} already exists; pass --resume true to continue it \
                     or delete it to start over",
                    p.display()
                ));
            }
        }
    }

    let faults = campaign_faults(args);
    let retry = RetryPolicy::retries(args.get("retries", "0").parse().unwrap_or(0));
    let cells = campaign_cells(args.get("dvfs", "false") == "true");
    let n_cells = cells.len();

    let plan = CampaignPlan {
        platform: &platform,
        workload: workload.as_ref(),
        cells,
        runs_per_cell: runs,
        seed_base: args.seed(),
        faults,
        retry,
        checkpoint,
        limit: args.opts.get("limit").and_then(|v| v.parse().ok()),
        verify_resume: args.get("verify-resume", "true") == "true",
    };
    let state = run_campaign(&plan).map_err(|e| e.to_string())?;
    print!("{}", render_campaign_report(&state.report(n_cells)));
    for cell in &state.cells {
        for f in &cell.failures {
            println!(
                "  {}: failed run seed {}: {}",
                cell.key.label, f.seed, f.cause
            );
        }
    }
    Ok(())
}

/// `campaign --workers N`: the sharded multi-process engine. The cell
/// space is partitioned into shards on an on-disk work queue
/// (`--queue DIR`), N worker processes (this same binary, re-invoked
/// with the hidden `campaign-worker` subcommand) claim and execute
/// them under lease files, and the supervisor merges the verified
/// shard ledgers into a state bit-identical to `campaign` without
/// `--workers`. Re-running the same command against the same queue
/// resumes; shards that repeatedly kill workers are quarantined and
/// reported by name instead of aborting the campaign.
fn cmd_campaign_sharded(args: &Args) -> Result<(), String> {
    use noiselab::campaignd::{
        run_supervised, CampaignSpec, CellSpec, SupervisorConfig, WorkQueue,
    };
    use noiselab::core::campaign::render_campaign_report;
    use noiselab::core::RetryPolicy;
    use std::time::Duration;

    let workers: usize = args
        .get("workers", "4")
        .parse()
        .map_err(|_| "--workers wants a count".to_string())?;
    let spec = CampaignSpec {
        platform: args.get("platform", "intel"),
        workload: args.get("workload", "nbody"),
        cells: campaign_cells(args.get("dvfs", "false") == "true")
            .into_iter()
            .map(|(label, config)| CellSpec { label, config })
            .collect(),
        runs_per_cell: args.runs(20),
        seed_base: args.seed(),
        faults: campaign_faults(args),
        retry: RetryPolicy::retries(args.get("retries", "0").parse().unwrap_or(0)),
    };
    spec.resolve().map_err(|e| e.to_string())?;
    let n_cells = spec.cells.len();

    let queue_root = std::path::PathBuf::from(args.get("queue", "campaign.queue"));
    let shard_size: usize = args.get("shard-size", "2").parse().unwrap_or(2);
    let (_queue, manifest) =
        WorkQueue::init(&queue_root, &spec, shard_size).map_err(|e| e.to_string())?;
    eprintln!(
        "noiselab: sharded campaign: {} cell(s) in {} shard(s), {workers} worker(s), queue {}",
        n_cells,
        manifest.shards.len(),
        queue_root.display()
    );

    let secs = |key: &str, default: u64| {
        Duration::from_secs(
            args.get(key, &default.to_string())
                .parse()
                .unwrap_or(default),
        )
    };
    let cfg = SupervisorConfig {
        workers,
        heartbeat_timeout: secs("heartbeat-secs", 120),
        shard_timeout: secs("shard-timeout-secs", 3600),
        max_shard_crashes: args.get("max-shard-crashes", "3").parse().unwrap_or(3),
        max_respawns_per_slot: args.get("max-respawns", "16").parse().unwrap_or(16),
        chaos_kills: args.get("chaos-kills", "0").parse().unwrap_or(0),
        ..SupervisorConfig::default()
    };
    let binary = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let report = run_supervised(&binary, &queue_root, &cfg)?;

    print!("{}", render_campaign_report(&report.state.report(n_cells)));
    for cell in &report.state.cells {
        for f in &cell.failures {
            println!(
                "  {}: failed run seed {}: {}",
                cell.key.label, f.seed, f.cause
            );
        }
    }
    println!(
        "merged ledger hash {:016x} ({} worker(s) spawned, {} crash(es), \
         {} chaos kill(s), {} timeout(s), {} shard(s) quarantined)",
        report.state_hash,
        report.spawned,
        report.crashes,
        report.chaos_kills,
        report.timeouts,
        report.quarantined_shards.len()
    );
    if let Some(path) = args.opts.get("checkpoint") {
        let path = std::path::Path::new(path);
        // Fold the supervisor health record in only at save time, after
        // the deterministic merge: the merged ledger (and its
        // state_hash) stays bit-identical to the single-process path,
        // while the checkpoint carries the campaignd.* counters for
        // `noiselab metrics --checkpoint` and `noiselab advise`.
        let mut state = report.state.clone();
        state.supervisor = report.health_metrics();
        state.save(path).map_err(|e| e.to_string())?;
        eprintln!("noiselab: merged state saved to {}", path.display());
    }
    Ok(())
}

/// Hidden subcommand: one sharded-campaign worker process. Spawned by
/// the supervisor, never by hand; claims shards from `--queue` until
/// the queue is drained, streaming progress frames on stdout.
fn cmd_campaign_worker(args: &Args) -> Result<(), String> {
    use noiselab::campaignd::{worker_main, WorkerConfig};
    let queue = std::path::PathBuf::from(args.required("queue")?);
    let worker_id = args.get("id", &format!("pid{}", std::process::id()));
    worker_main(&WorkerConfig { queue, worker_id })
}

/// `metrics`: aggregate the telemetry metrics registry over a few runs
/// (counters summed, histograms merged, gauges averaged), optionally
/// with the host-time phase profile or the full observation-overhead
/// report.
fn cmd_metrics(args: &Args) -> Result<(), String> {
    use noiselab::core::{measure_overhead, run, run_many, RunArena};
    use noiselab::telemetry::{MetricsSnapshot, PhaseProfiler, TelemetryConfig};

    // `--checkpoint <path>` is a read-only mode: render the merged
    // per-cell metrics and the supervisor health record of a saved
    // campaign checkpoint instead of running anything.
    if let Some(path) = args.opts.get("checkpoint") {
        return cmd_metrics_checkpoint(
            std::path::Path::new(path),
            args.get("json", "false") == "true",
        );
    }

    let platform = args.platform()?;
    let workload = args.workload(&platform)?;
    let cfg = args.exec_config()?;
    let json = args.get("json", "false") == "true";

    if args.get("overhead", "false") == "true" {
        let reps: u32 = args.get("reps", "3").parse().unwrap_or(3);
        let report = measure_overhead(&platform, workload.as_ref(), &cfg, args.seed(), reps)
            .map_err(|e| format!("run failed: {e}"))?;
        if json {
            println!(
                "{}",
                serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
            );
        } else {
            print!("{}", report.render());
        }
        return Ok(());
    }

    let runs = args.runs(5);
    let tracing = args.get("tracing", "false") == "true";
    let spec = RunSpec {
        tracing,
        telemetry: Some(TelemetryConfig::metrics_only()),
        ..RunSpec::new(&platform, workload.as_ref(), &cfg, args.seed())
    };
    let ledger = run_many(&spec, runs, RetryPolicy::none());
    let mut merged = MetricsSnapshot::default();
    for out in ledger.outputs() {
        if let Some(m) = &out.metrics {
            merged.merge(m);
        }
    }
    if merged.runs == 0 {
        return Err(format!("all {runs} runs failed: {:?}", ledger.failures()));
    }

    let profile = if args.get("profile", "false") == "true" {
        let profiler = PhaseProfiler::new();
        run(&spec, &mut RunArena::profiled(profiler.clone()))
            .map_err(|e| format!("profiled run failed: {e}"))?;
        Some(profiler.report())
    } else {
        None
    };

    if json {
        use serde::Serialize as _;
        let mut doc = vec![("metrics".to_string(), merged.to_value())];
        if let Some(p) = &profile {
            doc.push(("profile".to_string(), p.to_value()));
        }
        println!("{}", serde::write_json(&serde::Value::Object(doc), true));
    } else {
        println!(
            "{} {} {}: {} run(s)",
            platform.label(),
            workload.name(),
            cfg.label(),
            merged.runs
        );
        print!("{}", merged.render());
        if let Some(p) = &profile {
            print!("{}", p.render());
        }
    }
    Ok(())
}

/// `advise`: the measurement-quality advisor. Consumes whatever
/// artifacts exist — a campaign checkpoint, trace sets (file or
/// directory of `<cell-label>.json`), and the committed BENCH_*.json
/// history — and emits the ranked diagnosis: smells, blame, bench
/// regression verdicts, and the mitigation recommendation table.
/// `--check` exits nonzero on any critical smell or significant bench
/// regression (the CI gate).
fn cmd_advise(args: &Args) -> Result<(), String> {
    use noiselab::advise::{advise, load_hotpath, load_traces, AdviseConfig, AdviseInputs};
    use noiselab::core::CampaignState;
    use std::path::Path;

    let mut cfg = AdviseConfig::default();
    let parse_f64 = |key: &str, into: &mut f64| -> Result<(), String> {
        if let Some(v) = args.opts.get(key) {
            *into = v.parse().map_err(|_| format!("--{key} wants a number"))?;
        }
        Ok(())
    };
    parse_f64("cv-threshold", &mut cfg.cv_threshold)?;
    parse_f64("alpha", &mut cfg.alpha)?;
    if let Some(v) = args.opts.get("resamples") {
        cfg.resamples = v
            .parse()
            .map_err(|_| "--resamples wants a count".to_string())?;
    }
    if let Some(v) = args.opts.get("advise-seed") {
        cfg.seed = v
            .parse()
            .map_err(|_| "--advise-seed wants a u64".to_string())?;
    }

    let mut inputs = AdviseInputs::default();
    if let Some(p) = args.opts.get("checkpoint") {
        inputs.checkpoint = Some(CampaignState::load(Path::new(p)).map_err(|e| e.to_string())?);
    }
    if let Some(p) = args.opts.get("traces") {
        inputs.traces = load_traces(Path::new(p)).map_err(|e| e.to_string())?;
    }
    // Bench files: an explicit flag must load (a schema mismatch is a
    // hard, clearly-worded refusal); the default path loads only when
    // the file exists.
    let bench_path = |flag: &str, default: &str| -> Option<std::path::PathBuf> {
        match args.opts.get(flag) {
            Some(p) => Some(std::path::PathBuf::from(p)),
            None => {
                let p = std::path::PathBuf::from(default);
                p.exists().then_some(p)
            }
        }
    };
    if let Some(p) = bench_path("bench-hotpath", "BENCH_hotpath.json") {
        let history = load_hotpath(&p).map_err(|e| e.to_string())?;
        inputs.hotpath = Some((p.display().to_string(), history));
    }
    if inputs.checkpoint.is_none() && inputs.traces.is_empty() && inputs.hotpath.is_none() {
        return Err(
            "nothing to advise on: pass --checkpoint <state.json>, --traces <file|dir>, \
             or --bench-hotpath <BENCH_hotpath.json>"
                .into(),
        );
    }

    let report = advise(&inputs, &cfg);
    let markdown_on_stdout = args.opts.get("markdown").is_some_and(|p| p == "-");
    if let Some(md) = args.opts.get("markdown") {
        if md == "-" {
            println!("{}", report.render_markdown());
        } else {
            std::fs::write(md, report.render_markdown())
                .map_err(|e| format!("advise: write {md}: {e}"))?;
            eprintln!("noiselab: markdown report saved to {md}");
        }
    }
    if args.get("json", "false") == "true" && !markdown_on_stdout {
        println!("{}", report.to_json());
    } else if !markdown_on_stdout {
        print!("{}", report.render_human());
    }
    if args.get("check", "false") == "true" && report.check_failed() {
        return Err("advise --check: measurements are not trustworthy as-is \
             (critical smell or significant bench regression; see report)"
            .into());
    }
    Ok(())
}

/// `metrics --checkpoint <path>`: the merged campaign metrics plus the
/// `campaignd.*` supervisor health counters a sharded run folded into
/// the saved checkpoint.
fn cmd_metrics_checkpoint(path: &std::path::Path, json: bool) -> Result<(), String> {
    use noiselab::campaignd::merged_metrics;
    use noiselab::core::CampaignState;
    use serde::Serialize as _;

    let state = CampaignState::load(path).map_err(|e| e.to_string())?;
    let merged = merged_metrics(&state);
    if json {
        let mut doc = vec![("metrics".to_string(), merged.to_value())];
        if !state.supervisor.counters.is_empty() {
            doc.push(("supervisor".to_string(), state.supervisor.to_value()));
        }
        println!("{}", serde::write_json(&serde::Value::Object(doc), true));
    } else {
        println!(
            "checkpoint {}: {} cell(s), {} quarantined",
            path.display(),
            state.cells.len(),
            state.quarantined.len()
        );
        print!("{}", merged.render());
        if !state.supervisor.counters.is_empty() {
            println!("supervisor health:");
            print!("{}", state.supervisor.render());
        }
    }
    Ok(())
}

/// Flags `audit` rejects: the static checks they selected are clippy
/// lints, and naming one must fail rather than fall through to a dual
/// run that exits 0.
const REMOVED_AUDIT_FLAGS: [&str; 3] = ["static", "sarif", "root"];

fn cmd_audit(args: &Args) -> Result<(), String> {
    use noiselab::core::divergence::{dual_run_harness, DualRunOutcome, DEFAULT_CADENCE};

    if let Some(flag) = REMOVED_AUDIT_FLAGS
        .iter()
        .find(|f| args.opts.contains_key(**f))
    {
        return Err(format!(
            "audit: --{flag} was removed; the static determinism checks are clippy lints: \
             run `cargo clippy --workspace --all-targets -- -D warnings`"
        ));
    }
    let json = args.get("json", "false") == "true";
    let number = |key: &str| -> Result<Option<u64>, String> {
        args.opts
            .get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("audit: --{key} wants a non-negative integer, got '{v}'"))
            })
            .transpose()
    };
    let perturb = number("perturb")?;
    let cadence = number("cadence")?.unwrap_or(DEFAULT_CADENCE);

    let platform = args.platform()?;
    let workload = args.workload(&platform)?;
    let cfg = args.exec_config()?;
    let outcome = dual_run_harness(
        &platform,
        workload.as_ref(),
        &cfg,
        args.seed(),
        perturb,
        cadence,
    )?;
    match outcome {
        DualRunOutcome::Identical { events, hash } => {
            if json {
                println!(
                    "{{\"dual_run\": \"identical\", \"events\": {events}, \
                     \"hash\": \"{hash:016x}\"}}"
                );
            } else {
                println!("dual run identical: {events} events, stream hash {hash:016x}");
            }
        }
        DualRunOutcome::Diverged(report) => {
            if json {
                println!(
                    "{{\"dual_run\": \"diverged\", \"hash_a\": \"{:016x}\", \
                     \"hash_b\": \"{:016x}\", \"events_a\": {}, \"events_b\": {}, \
                     \"first_index\": {}, \"first_a\": {:?}, \"first_b\": {:?}}}",
                    report.hash_a,
                    report.hash_b,
                    report.events_a,
                    report.events_b,
                    report.first_a.index,
                    report.first_a.digest,
                    report.first_b.digest,
                );
            } else {
                println!("{}", report.render());
            }
            return Err("audit: dual run diverged".into());
        }
    }
    Ok(())
}

/// Campaign seeds read naturally in either base: `--seed 0xC0DE` or
/// `--seed 49374`.
fn parse_seed(s: &str) -> u64 {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).unwrap_or(0xC0DE),
        None => s.parse().unwrap_or(0xC0DE),
    }
}

/// `conform`: drive the scheduler conformance suite — either a fuzz
/// campaign (oracle + invariants over generated scenarios, shrunk
/// repros on failure) or a single-case replay of a shrunk repro.
fn cmd_conform(args: &Args) -> Result<(), String> {
    use noiselab::conform::{
        check_scenario, fuzz, render_json, render_text, FuzzConfig, Mutation, Scenario,
        REPRO_MARKER,
    };

    let json = args.get("json", "false") == "true";
    let mutation = match args.opts.get("mutate") {
        None => None,
        Some(name) => Some(Mutation::from_name(name).ok_or_else(|| {
            format!(
                "unknown mutation '{name}' ({})",
                Mutation::ALL.map(|m| m.name()).join("|")
            )
        })?),
    };

    if let Some(case) = args.opts.get("replay") {
        // Accept a corpus case file (scenario JSON), a file holding a
        // `// conform:repro` line, or the repro line pasted directly.
        let text = match std::fs::read_to_string(case) {
            Ok(contents) => contents,
            Err(_) if case.contains(REPRO_MARKER) || case.trim_start().starts_with('{') => {
                case.clone()
            }
            Err(e) => return Err(format!("cannot read replay case {case}: {e}")),
        };
        let sc: Scenario = if text.contains(REPRO_MARKER) {
            let line = text
                .lines()
                .find(|l| l.contains(REPRO_MARKER))
                .expect("marker present");
            Scenario::from_repro_line(line)?
        } else {
            serde_json::from_str(text.trim()).map_err(|e| format!("bad scenario JSON: {e}"))?
        };
        match check_scenario(&sc, mutation) {
            None => {
                if json {
                    println!("{{\"replay\": \"pass\"}}");
                } else {
                    println!("replay PASS: oracle and invariants agree");
                    println!("  {}", sc.repro_line());
                }
                Ok(())
            }
            Some(v) => {
                if json {
                    println!(
                        "{{\"replay\": \"fail\", \"violation\": {}}}",
                        serde::write_json(&serde::Value::Str(v.to_string()), false)
                    );
                } else {
                    println!("replay FAIL: {v}");
                    println!("  {}", sc.repro_line());
                }
                Err("conformance replay failed".into())
            }
        }
    } else {
        let iterations: u64 = args.get("fuzz", "500").parse().unwrap_or(500);
        let cfg = FuzzConfig {
            iterations,
            seed: parse_seed(&args.get("seed", "0xC0DE")),
            corpus_dir: args.opts.get("corpus").map(std::path::PathBuf::from),
            mutation,
            ..FuzzConfig::default()
        };
        let report = fuzz(&cfg);
        if json {
            println!("{}", render_json(&report));
        } else {
            print!("{}", render_text(&report));
        }
        match (report.ok(), mutation) {
            // A clean campaign must pass; a mutated campaign must fail,
            // proving the suite detects the seeded scheduler bug.
            (true, None) => Ok(()),
            (false, None) => Err(format!(
                "conformance campaign failed with {} violation(s)",
                report.failures.len()
            )),
            (false, Some(m)) => {
                if !json {
                    println!(
                        "mutation '{}' detected as intended ({} failure(s) shrunk)",
                        m.name(),
                        report.failures.len()
                    );
                }
                Ok(())
            }
            (true, Some(m)) => Err(format!(
                "mutation '{}' went UNDETECTED across {iterations} scenarios",
                m.name()
            )),
        }
    }
}

fn cmd_analyze(args: &Args) -> Result<(), String> {
    let traces_path = args.required("traces")?;
    let data = std::fs::read_to_string(&traces_path).map_err(|e| e.to_string())?;
    let traces: TraceSet = serde_json::from_str(&data).map_err(|e| e.to_string())?;
    let top_k: usize = args.get("top", "10").parse().unwrap_or(10);
    let summary = noiselab::noise::analysis::summarize_set(&traces, top_k)
        .ok_or("trace set is empty".to_string())?;
    print!(
        "{}",
        noiselab::noise::analysis::render_set_summary(&summary)
    );
    let worst = &traces.runs[summary.worst_index];
    let ws = noiselab::noise::analysis::summarize_run(worst);
    let [irq, softirq, thread] = ws.by_class;
    println!(
        "worst run: {} events; irq {:.3}ms, softirq {:.3}ms, thread {:.3}ms; \
         busiest cpu {:?}; outlier: {}",
        ws.events,
        irq.as_millis_f64(),
        softirq.as_millis_f64(),
        thread.as_millis_f64(),
        ws.busiest_cpu
            .map(|(c, d)| format!("cpu{c} ({:.3}ms)", d.as_millis_f64())),
        noiselab::noise::analysis::is_outlier(worst, &traces)
    );
    Ok(())
}

fn usage() {
    eprintln!(
        "noiselab <baseline|trace|generate|inject|analyze|report|campaign|metrics|advise|audit|conform> \
         [--key value ...]\n\
         see the module docs (src/bin/noiselab.rs) for the full flag list"
    );
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        usage();
        return ExitCode::FAILURE;
    };
    let result = match args.cmd.as_str() {
        "baseline" => cmd_baseline(&args),
        "trace" => cmd_trace(&args),
        "generate" => cmd_generate(&args),
        "inject" => cmd_inject(&args),
        "analyze" => cmd_analyze(&args),
        "report" => cmd_report(&args),
        "campaign" => cmd_campaign(&args),
        // Hidden: spawned by `campaign --workers N`, not user-facing.
        "campaign-worker" => cmd_campaign_worker(&args),
        "metrics" => cmd_metrics(&args),
        "advise" => cmd_advise(&args),
        "audit" => cmd_audit(&args),
        "conform" => cmd_conform(&args),
        _ => {
            usage();
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
