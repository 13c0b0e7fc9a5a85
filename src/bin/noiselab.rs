//! The noiselab command-line tool: drive the paper's pipeline stage by
//! stage, with JSON artifacts on disk between stages.
//!
//! ```text
//! noiselab baseline <cell> [--runs 40] [--seed 1]
//! noiselab trace    <cell> --out traces.json [--boost 1] [--runs 40] [--seed 1]
//! noiselab trace    <cell> --run <seed> --out trace.json [--binary trace.nltb]   # Perfetto timeline
//! noiselab metrics  <cell> [--seed 1] [--json] [--runs 5] [--tracing] [--profile]
//! noiselab metrics  <cell> [--seed 1] [--json] --overhead [--reps 3]
//! noiselab metrics  --checkpoint state.json [--json]   # merged campaign + supervisor metrics
//! noiselab advise   [--checkpoint state.json] [--traces <file|dir>] [--check]
//!                   [--bench-hotpath BENCH_hotpath.json]
//!                   [--json] [--markdown <path|->] [--cv-threshold 0.05] [--alpha 0.01]
//!                   [--resamples 800] [--advise-seed N]
//! noiselab generate --traces traces.json --out config.json [--merge improved|naive]
//! noiselab inject   <cell> --config config.json [--runs 20] [--seed 1]
//! noiselab analyze  --traces traces.json [--top 10]
//! noiselab report   [--what table1..table7|fig1|fig2|merge|memory|runlevel3|numa|fwq|all]
//!                   [--scale bench|smoke|paper]
//! noiselab campaign [--platform intel] [--workload nbody] [--runs 20] [--seed 1]
//!                   [--dvfs]   # grow the grid by the governor mitigation matrix
//!                   [--crash-prob 0] [--crash-window-ms 2] [--fault-seed 1] [--retries 0]
//!                   [--checkpoint state.json]
//!                   [--resume] [--limit N] [--verify-resume true]   # single process only
//! noiselab campaign ... --workers N [--queue campaign.queue] [--shard-size 2]
//!                   [--heartbeat-secs 120] [--shard-timeout-secs 3600]
//!                   [--max-shard-crashes 3] [--max-respawns 16] [--chaos-kills 0]
//! noiselab campaign-worker --queue DIR [--id NAME]   # spawned by campaign --workers
//! noiselab audit    <cell> [--dual-run] [--json] [--seed 1] [--perturb N] [--cadence 64]
//! noiselab conform  [--fuzz 500] [--seed 0xC0DE] [--corpus <dir>] [--json] [--mutate <bug>]
//! noiselab conform  --replay <case.json | repro-line-file | '// conform:repro {...}'>
//!                   [--json] [--mutate <bug>]
//!
//! <cell> = [--platform intel] [--workload nbody] [--model omp|sycl]
//!          [--mitigation Rm|RmHK|RmHK2|TP|TPHK|TPHK2] [--smt off|on]
//! <bug>  = swap-pick|drop-irq-span|affinity-break|ghost-run
//!          |turbo-leak|throttle-early|ghost-turbo|throttle-stuck
//! ```
//!
//! A flag given without a value (`--dual-run --json`) is the boolean
//! `true`; booleans otherwise take `true` or `false`, integers decimal
//! or `0x` hex. A malformed value, or a flag the subcommand does not
//! read, is an error that names the flag; nothing runs.
//!
//! `trace --run <seed>` runs one seed with the telemetry recorder and
//! writes a Chrome trace-event JSON timeline (one track per logical
//! CPU) loadable in ui.perfetto.dev or chrome://tracing; `--binary`
//! additionally writes the compact NLTB timeline. `metrics` aggregates
//! the metrics registry over a few runs; `--profile` adds the host-time
//! phase profile and `--overhead` the Table-1-style observation
//! overhead report.
//!
//! `report` regenerates the paper's evaluation: each table or figure
//! (`--what all` runs every one, Tables 3-5 once for their own sections
//! and both aggregates), printed and then checked against the paper's
//! shape claim. A violated shape goes to stderr and makes the exit
//! status nonzero. Every section asked for builds a plan of run sets
//! and its reduction (`noiselab_core::experiments::plan`): each traced
//! collection runs in a pool of its own, then all other sets in one
//! pool. A set whose every run failed is an error naming its section,
//! workload and config.
//!
//! `campaign` sweeps every model x mitigation cell, checkpointing after
//! each completed cell; a killed campaign resumes bit-identical with
//! `--resume` and the same flags (`--verify-resume true`, the
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
//! point there.
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

use noiselab::campaignd::{CampaignSpec, CellSpec};
use noiselab::core::experiments::{self, suite, Scale};
use noiselab::core::{
    run_baseline, run_batch, seeds_fit, Baseline, CampaignState, ExecConfig, Injected, Mitigation,
    Model, Platform, RetryPolicy, RunLedger, RunSpec,
};
use noiselab::injector::{generate, GeneratorOptions, InjectionConfig, MergeStrategy};
use noiselab::noise::TraceSet;
use noiselab::workloads::Workload;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::ExitCode;

/// One subcommand's `--key value` options. Every option is read through
/// one of the typed readers below, which records the key; [`Args::finish`]
/// then refuses any key the subcommand never read, so a misspelt flag or
/// one of another mode is an error instead of a silent default.
struct Args {
    cmd: String,
    opts: BTreeMap<String, String>,
    read: BTreeSet<String>,
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
    Some(Args {
        cmd,
        opts,
        read: BTreeSet::new(),
    })
}

const MODELS: [(&str, Model); 2] = [("omp", Model::Omp), ("sycl", Model::Sycl)];

/// What every integer flag wants; the audit tests match this wording.
const INTEGER: &str = "a non-negative integer";

/// A non-negative integer, decimal or `0x` hex, that fits `T`.
fn integer<T: TryFrom<u64>>(v: &str) -> Option<T> {
    let n = match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    T::try_from(n.ok()?).ok()
}

impl Args {
    /// The raw value of `--key`, recording the key as read.
    fn raw(&mut self, key: &str) -> Option<String> {
        self.read.insert(key.to_string());
        self.opts.get(key).cloned()
    }

    /// Every typed reader ends here: an absent flag is `default`, and a
    /// present one parses or is an error naming the flag.
    fn parsed<T>(
        &mut self,
        key: &str,
        default: T,
        wants: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, String> {
        match self.raw(key) {
            None => Ok(default),
            Some(v) => parse(&v).ok_or_else(|| format!("--{key} wants {wants}, got '{v}'")),
        }
    }

    fn string(&mut self, key: &str, default: &str) -> String {
        match self.raw(key) {
            Some(v) => v,
            None => default.to_string(),
        }
    }

    fn path(&mut self, key: &str) -> Option<PathBuf> {
        self.raw(key).map(PathBuf::from)
    }

    fn required(&mut self, key: &str) -> Result<String, String> {
        self.raw(key)
            .ok_or_else(|| format!("missing required --{key}"))
    }

    /// An integer flag of any width: `u64`, `usize` or `u32`.
    fn int<T: TryFrom<u64>>(&mut self, key: &str, default: T) -> Result<T, String> {
        self.parsed(key, default, INTEGER, integer)
    }

    /// `--runs`: how many runs a command makes, at least one (a
    /// command with no runs has nothing to summarize).
    fn runs(&mut self, default: usize) -> Result<usize, String> {
        self.parsed("runs", default, "a positive integer", |v| {
            integer(v).filter(|&n: &usize| n > 0)
        })
    }

    fn opt_int<T: TryFrom<u64>>(&mut self, key: &str) -> Result<Option<T>, String> {
        self.parsed(key, None, INTEGER, |v| integer(v).map(Some))
    }

    fn f64(&mut self, key: &str, default: f64) -> Result<f64, String> {
        self.parsed(key, default, "a number", |v| v.parse().ok())
    }

    /// `--seed`: the first of the `runs` consecutive seeds a command
    /// runs, refused when the last of them would pass `u64::MAX`.
    fn seed(&mut self, runs: usize) -> Result<u64, String> {
        let seed = self.int("seed", 1)?;
        if seeds_fit(seed, runs as u64) {
            Ok(seed)
        } else {
            Err(format!(
                "--seed {seed}: {runs} runs from it run past the largest seed, {}",
                u64::MAX
            ))
        }
    }

    /// `--key true|false`, or a bare `--key`.
    fn flag(&mut self, key: &str, default: bool) -> Result<bool, String> {
        self.parsed(key, default, "true or false", |v| v.parse().ok())
    }

    /// A choice flag, resolved from the table that defines its names.
    fn pick<T: Copy>(&mut self, key: &str, default: T, table: &[(&str, T)]) -> Result<T, String> {
        let names: Vec<&str> = table.iter().map(|(name, _)| *name).collect();
        let wants = format!("one of {}", names.join("|"));
        self.parsed(key, default, &wants, |v| {
            table.iter().find(|(name, _)| *name == v).map(|(_, t)| *t)
        })
    }

    /// Refuse any flag the subcommand never read. Called once every
    /// option is read, before anything runs.
    fn finish(&self) -> Result<(), String> {
        match self.opts.keys().find(|key| !self.read.contains(*key)) {
            None => Ok(()),
            Some(key) => Err(format!(
                "{}: --{key} is not a flag of this command (or of this mode of it)",
                self.cmd
            )),
        }
    }

    /// `--platform` and `--workload`, checked against the name tables
    /// the sharded campaign workers resolve through too, so `--workers N`
    /// and the single-process path can never disagree on a name.
    fn target_names(&mut self) -> Result<(&'static str, &'static str), String> {
        Ok((
            self.pick("platform", "intel", &Platform::NAMES.map(|n| (n, n)))?,
            self.pick("workload", "nbody", &suite::WORKLOAD_NAMES.map(|n| (n, n)))?,
        ))
    }

    /// The one cell `baseline`, `trace`, `inject`, `metrics` and `audit` run.
    fn cell(&mut self) -> Result<(Platform, Box<dyn Workload + Sync>, ExecConfig), String> {
        let (platform, workload) = self.target_names()?;
        let platform = Platform::by_name(platform).expect("every Platform::NAMES entry resolves");
        let workload = suite::workload_by_name(&platform, workload)
            .expect("every WORKLOAD_NAMES entry resolves");
        let model = self.pick("model", Model::Omp, &MODELS)?;
        let mitigations = Mitigation::ALL.map(|m| (m.label(), m));
        let mitigation = self.pick("mitigation", Mitigation::Rm, &mitigations)?;
        let smt = self.pick("smt", false, &[("off", false), ("on", true)])?;
        let cfg = ExecConfig::new(model, mitigation);
        Ok((platform, workload, if smt { cfg.with_smt() } else { cfg }))
    }
}

fn cmd_baseline(args: &mut Args) -> Result<(), String> {
    let (platform, workload, cfg) = args.cell()?;
    let runs = args.runs(40)?;
    let seed = args.seed(runs)?;
    args.finish()?;
    let base = run_baseline(&platform, workload.as_ref(), &cfg, runs, seed, false);
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
fn cmd_trace_timeline(args: &mut Args, run_seed: u64) -> Result<(), String> {
    use noiselab::core::run;
    use noiselab::telemetry::{chrome_trace, encode, TelemetryConfig};

    let (platform, workload, cfg) = args.cell()?;
    let out = args.required("out")?;
    let binary = args.path("binary");
    args.finish()?;
    let spec = RunSpec {
        telemetry: Some(TelemetryConfig::default()),
        ..RunSpec::new(&platform, workload.as_ref(), &cfg, run_seed)
    };
    let done = run(&spec, None).map_err(|e| format!("run failed: {e}"))?;
    let report = done.telemetry.expect("telemetry was attached");
    let label = format!(
        "{} {} {} seed {}",
        platform.label(),
        workload.name(),
        cfg.label(),
        run_seed
    );
    std::fs::write(&out, chrome_trace(&report, &label)).map_err(|e| e.to_string())?;
    if let Some(bin) = binary {
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

fn cmd_trace(args: &mut Args) -> Result<(), String> {
    // `--run <seed>` switches to single-run timeline export; without it
    // this is the legacy TraceSet pipeline stage `generate` consumes.
    if let Some(seed) = args.opt_int("run")? {
        return cmd_trace_timeline(args, seed);
    }
    let (mut platform, workload, cfg) = args.cell()?;
    let boost = args.f64("boost", 1.0)?;
    // The workload is sized by the machine alone, so boosting after
    // building it changes nothing but the noise.
    platform.noise.anomaly_prob = (platform.noise.anomaly_prob * boost).min(0.5);
    let out = args.required("out")?;
    let runs = args.runs(40)?;
    let seed = args.seed(runs)?;
    args.finish()?;
    let base = run_baseline(&platform, workload.as_ref(), &cfg, runs, seed, true);
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

fn cmd_generate(args: &mut Args) -> Result<(), String> {
    let traces_path = args.required("traces")?;
    let out = args.required("out")?;
    let merges = [
        ("improved", MergeStrategy::Improved),
        ("naive", MergeStrategy::NaivePessimistic),
    ];
    let merge = args.pick("merge", MergeStrategy::Improved, &merges)?;
    args.finish()?;
    let data = std::fs::read_to_string(&traces_path).map_err(|e| e.to_string())?;
    let traces: TraceSet = serde_json::from_str(&data).map_err(|e| e.to_string())?;
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

fn cmd_inject(args: &mut Args) -> Result<(), String> {
    let (platform, workload, cfg) = args.cell()?;
    let config_path = args.required("config")?;
    let runs = args.runs(20)?;
    // The baseline half runs the `runs` seeds from `seed + 10_000`.
    let seed = args.seed(runs.saturating_add(10_000))?;
    args.finish()?;
    let data = std::fs::read_to_string(&config_path).map_err(|e| e.to_string())?;
    let config = InjectionConfig::from_json(&data).map_err(|e| e.to_string())?;
    config
        .validate()
        .map_err(|e| format!("--config {config_path}: {e}"))?;
    // Both halves share one run pool: neither waits for the other to
    // finish before its runs start.
    let base_seed = seed
        .checked_add(10_000)
        .expect("--seed range checked above");
    let base_spec = RunSpec::new(&platform, workload.as_ref(), &cfg, base_seed);
    let inj_spec = RunSpec {
        inject: Some(&config),
        ..RunSpec::new(&platform, workload.as_ref(), &cfg, seed)
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

fn cmd_report(args: &mut Args) -> Result<(), String> {
    let scales = [
        ("smoke", Scale::smoke()),
        ("bench", Scale::bench()),
        ("paper", Scale::paper()),
    ];
    let scale = args.pick("scale", Scale::bench(), &scales)?;
    let whats: Vec<(&str, &str)> = experiments::names().map(|r| (r, r)).collect();
    let what = args.pick("what", "table1", &whats)?;
    args.finish()?;
    let mut violated = 0;
    for (n, (rendered, shape)) in experiments::report(what, scale)?.into_iter().enumerate() {
        if n > 0 {
            println!();
        }
        // Printed before the check, so a violation still shows its numbers.
        print!("{rendered}");
        if let Err(e) = shape {
            eprintln!("shape violated: {e}");
            violated += 1;
        }
    }
    match violated {
        0 => Ok(()),
        n => Err(format!("{n} of the paper's shapes violated")),
    }
}

/// The model x mitigation sweep both campaign engines run. With
/// `dvfs`, the grid also grows the frequency mitigation matrix —
/// pinned and roaming cells under every governor — so `advise` can
/// rank governors and re-ask the placement question under a shared
/// turbo budget and thermal throttling.
fn campaign_cells(dvfs: bool) -> Vec<CellSpec> {
    let cell = |config: ExecConfig| CellSpec {
        label: config.label(),
        config,
    };
    let mut cells: Vec<CellSpec> = Mitigation::ALL
        .iter()
        .flat_map(|&mit| MODELS.map(|(_, model)| cell(ExecConfig::new(model, mit))))
        .collect();
    if dvfs {
        for mit in [Mitigation::Rm, Mitigation::Tp] {
            for g in noiselab::machine::Governor::ALL {
                cells.push(cell(ExecConfig::new(Model::Omp, mit).with_governor(g)));
            }
        }
    }
    cells
}

/// The optional deterministic crash plan both engines run:
/// `--crash-prob p` with `--crash-window-ms w` and `--fault-seed s`.
fn campaign_faults(args: &mut Args) -> Result<Option<noiselab::kernel::FaultPlan>, String> {
    let prob = args.f64("crash-prob", 0.0)?;
    let seed = args.int("fault-seed", 1)?;
    let window_ms = args.int("crash-window-ms", 2)?;
    if noiselab::sim::SimDuration::checked_from_millis(window_ms).is_none() {
        return Err(format!(
            "--crash-window-ms {window_ms}: its nanoseconds overflow u64"
        ));
    }
    if prob == 0.0 {
        return Ok(None);
    }
    let plan = noiselab::kernel::FaultPlan::crashy(seed, prob, window_ms);
    plan.validate()
        .map_err(|e| format!("--crash-prob {prob} --crash-window-ms {window_ms}: {e}"))?;
    Ok(Some(plan))
}

/// `campaign`: both engines run the one [`CampaignSpec`] its shared
/// flags build; only the engine-specific flags differ.
fn cmd_campaign(args: &mut Args) -> Result<(), String> {
    use noiselab::core::campaign::{run_campaign, CampaignPlan};

    let (platform, workload) = args.target_names()?;
    let spec = CampaignSpec {
        platform: platform.into(),
        workload: workload.into(),
        cells: campaign_cells(args.flag("dvfs", false)?),
        runs_per_cell: args.runs(20)?,
        seed_base: args.int("seed", 1)?,
        faults: campaign_faults(args)?,
        retry: RetryPolicy::retries(args.int("retries", 0)?),
    };
    let checkpoint = args.path("checkpoint");
    // `--workers N` switches to the sharded multi-process engine.
    if let Some(workers) = args.opt_int("workers")? {
        return cmd_campaign_sharded(args, &spec, workers, checkpoint);
    }
    let resume = args.flag("resume", false)?;
    let limit = args.opt_int("limit")?;
    let verify_resume = args.flag("verify-resume", true)?;
    args.finish()?;
    match &checkpoint {
        None if resume => return Err("--resume true requires --checkpoint <path>".into()),
        // A fresh campaign must not silently continue an old one.
        Some(p) if !resume && p.exists() => {
            return Err(format!(
                "checkpoint {} already exists; pass --resume true to continue it \
                 or delete it to start over",
                p.display()
            ))
        }
        _ => {}
    }
    let resolved = spec.resolve().map_err(|e| e.to_string())?;
    let state = run_campaign(&CampaignPlan {
        checkpoint,
        limit,
        verify_resume,
        ..spec.plan(&resolved)
    })
    .map_err(|e| e.to_string())?;
    print_campaign(&state, spec.cells.len());
    Ok(())
}

/// The report and failure lines both campaign engines print.
fn print_campaign(state: &CampaignState, n_cells: usize) {
    use noiselab::core::campaign::render_campaign_report;
    print!("{}", render_campaign_report(&state.report(n_cells)));
    for cell in &state.cells {
        for f in &cell.failures {
            println!(
                "  {}: failed run seed {}: {}",
                cell.key.label, f.seed, f.cause
            );
        }
    }
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
fn cmd_campaign_sharded(
    args: &mut Args,
    spec: &CampaignSpec,
    workers: usize,
    checkpoint: Option<PathBuf>,
) -> Result<(), String> {
    use noiselab::campaignd::{run_supervised, SupervisorConfig, WorkQueue};
    use std::time::Duration;

    let queue_root = PathBuf::from(args.string("queue", "campaign.queue"));
    let shard_size = args.int("shard-size", 2)?;
    let cfg = SupervisorConfig {
        workers,
        heartbeat_timeout: Duration::from_secs(args.int("heartbeat-secs", 120)?),
        shard_timeout: Duration::from_secs(args.int("shard-timeout-secs", 3600)?),
        max_shard_crashes: args.int("max-shard-crashes", 3)?,
        max_respawns_per_slot: args.int("max-respawns", 16)?,
        chaos_kills: args.int("chaos-kills", 0)?,
        ..SupervisorConfig::default()
    };
    args.finish()?;
    let n_cells = spec.cells.len();
    let (_queue, manifest) =
        WorkQueue::init(&queue_root, spec, shard_size).map_err(|e| e.to_string())?;
    eprintln!(
        "noiselab: sharded campaign: {} cell(s) in {} shard(s), {workers} worker(s), queue {}",
        n_cells,
        manifest.shards.len(),
        queue_root.display()
    );
    let binary = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let report = run_supervised(&binary, &queue_root, &cfg)?;

    print_campaign(&report.state, n_cells);
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
    if let Some(path) = checkpoint {
        // Fold the supervisor health record in only at save time, after
        // the deterministic merge: the merged ledger (and its
        // state_hash) stays bit-identical to the single-process path,
        // while the checkpoint carries the campaignd.* counters for
        // `noiselab metrics --checkpoint` and `noiselab advise`.
        let mut state = report.state.clone();
        state.supervisor = report.health_metrics();
        state.save(&path).map_err(|e| e.to_string())?;
        eprintln!("noiselab: merged state saved to {}", path.display());
    }
    Ok(())
}

/// Hidden subcommand: one sharded-campaign worker process. Spawned by
/// the supervisor, never by hand; claims shards from `--queue` until
/// the queue is drained, streaming progress frames on stdout.
fn cmd_campaign_worker(args: &mut Args) -> Result<(), String> {
    use noiselab::campaignd::{worker_main, WorkerConfig};
    let queue = PathBuf::from(args.required("queue")?);
    let worker_id = args.string("id", &format!("pid{}", std::process::id()));
    args.finish()?;
    worker_main(&WorkerConfig { queue, worker_id })
}

/// `metrics`: aggregate the telemetry metrics registry over a few runs
/// (counters summed, histograms merged, gauges averaged), optionally
/// with the host-time phase profile or the full observation-overhead
/// report.
fn cmd_metrics(args: &mut Args) -> Result<(), String> {
    use noiselab::core::{measure_overhead, run, run_many};
    use noiselab::telemetry::{MetricsSnapshot, PhaseProfiler, TelemetryConfig};

    let json = args.flag("json", false)?;
    // `--checkpoint <path>` is a read-only mode: render the merged
    // per-cell metrics and the supervisor health record of a saved
    // campaign checkpoint instead of running anything.
    if let Some(path) = args.path("checkpoint") {
        args.finish()?;
        return cmd_metrics_checkpoint(&path, json);
    }

    let (platform, workload, cfg) = args.cell()?;

    if args.flag("overhead", false)? {
        let seed = args.seed(1)?;
        let reps = args.int("reps", 3)?;
        args.finish()?;
        let report = measure_overhead(&platform, workload.as_ref(), &cfg, seed, reps)
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

    let runs = args.runs(5)?;
    let seed = args.seed(runs)?;
    let tracing = args.flag("tracing", false)?;
    let profile = args.flag("profile", false)?;
    args.finish()?;
    let spec = RunSpec {
        tracing,
        telemetry: Some(TelemetryConfig::metrics_only()),
        ..RunSpec::new(&platform, workload.as_ref(), &cfg, seed)
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

    let profile = if profile {
        let profiler = PhaseProfiler::new();
        run(&spec, Some(&profiler)).map_err(|e| format!("profiled run failed: {e}"))?;
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
fn cmd_advise(args: &mut Args) -> Result<(), String> {
    use noiselab::advise::{advise, load_hotpath, load_traces, AdviseConfig, AdviseInputs};

    let defaults = AdviseConfig::default();
    let cfg = AdviseConfig {
        cv_threshold: args.f64("cv-threshold", defaults.cv_threshold)?,
        alpha: args.f64("alpha", defaults.alpha)?,
        resamples: args.int("resamples", defaults.resamples)?,
        seed: args.int("advise-seed", defaults.seed)?,
        ..defaults
    };
    let checkpoint = args.path("checkpoint");
    let traces = args.path("traces");
    // Bench files: an explicit flag must load (a schema mismatch is a
    // hard, clearly-worded refusal); the default path loads only when
    // the file exists.
    let hotpath = args.path("bench-hotpath").or_else(|| {
        let p = PathBuf::from("BENCH_hotpath.json");
        p.exists().then_some(p)
    });
    let markdown = args.raw("markdown");
    let json = args.flag("json", false)?;
    let check = args.flag("check", false)?;
    args.finish()?;

    let mut inputs = AdviseInputs::default();
    if let Some(p) = checkpoint {
        inputs.checkpoint = Some(CampaignState::load(&p).map_err(|e| e.to_string())?);
    }
    if let Some(p) = traces {
        inputs.traces = load_traces(&p).map_err(|e| e.to_string())?;
    }
    if let Some(p) = hotpath {
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
    let markdown_on_stdout = markdown.as_deref() == Some("-");
    if let Some(md) = markdown {
        if md == "-" {
            println!("{}", report.render_markdown());
        } else {
            std::fs::write(&md, report.render_markdown())
                .map_err(|e| format!("advise: write {md}: {e}"))?;
            eprintln!("noiselab: markdown report saved to {md}");
        }
    }
    if json && !markdown_on_stdout {
        println!("{}", report.to_json());
    } else if !markdown_on_stdout {
        print!("{}", report.render_human());
    }
    if check && report.check_failed() {
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

fn cmd_audit(args: &mut Args) -> Result<(), String> {
    use noiselab::core::divergence::{dual_run_harness, DualRunOutcome, DEFAULT_CADENCE};

    // The static checks these removed flags selected are clippy lints;
    // naming one must fail rather than fall through to a dual run.
    if let Some(flag) = ["static", "sarif", "root"]
        .into_iter()
        .find(|f| args.raw(f).is_some())
    {
        return Err(format!(
            "audit: --{flag} was removed; the static determinism checks are clippy lints: \
             run `cargo clippy --workspace --all-targets -- -D warnings`"
        ));
    }
    if !args.flag("dual-run", true)? {
        return Err("audit: --dual-run is the only mode; it cannot be false".into());
    }
    let json = args.flag("json", false)?;
    let perturb = args.opt_int("perturb")?;
    let cadence = args.int("cadence", DEFAULT_CADENCE)?;
    let (platform, workload, cfg) = args.cell()?;
    let seed = args.int("seed", 1)?;
    args.finish()?;

    let outcome = dual_run_harness(&platform, workload.as_ref(), &cfg, seed, perturb, cadence)?;
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

/// `conform`: drive the scheduler conformance suite — either a fuzz
/// campaign (oracle + invariants over generated scenarios, shrunk
/// repros on failure) or a single-case replay of a shrunk repro.
fn cmd_conform(args: &mut Args) -> Result<(), String> {
    use noiselab::conform::{
        check_scenario, fuzz, render_json, render_text, FuzzConfig, Mutation, Scenario,
        REPRO_MARKER,
    };

    let json = args.flag("json", false)?;
    let mutation = args.pick("mutate", None, &Mutation::ALL.map(|m| (m.name(), Some(m))))?;

    if let Some(case) = args.raw("replay") {
        args.finish()?;
        // Accept a corpus case file (scenario JSON), a file holding a
        // `// conform:repro` line, or the repro line pasted directly.
        let text = match std::fs::read_to_string(&case) {
            Ok(contents) => contents,
            Err(_) if case.contains(REPRO_MARKER) || case.trim_start().starts_with('{') => case,
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
        let iterations = args.int("fuzz", 500)?;
        let cfg = FuzzConfig {
            iterations,
            seed: args.int("seed", 0xC0DE)?,
            corpus_dir: args.path("corpus"),
            mutation,
            ..FuzzConfig::default()
        };
        args.finish()?;
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

fn cmd_analyze(args: &mut Args) -> Result<(), String> {
    let traces_path = args.required("traces")?;
    let top_k = args.int("top", 10)?;
    args.finish()?;
    let data = std::fs::read_to_string(&traces_path).map_err(|e| e.to_string())?;
    let traces: TraceSet = serde_json::from_str(&data).map_err(|e| e.to_string())?;
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
    let Some(mut args) = parse_args() else {
        usage();
        return ExitCode::FAILURE;
    };
    let result = match args.cmd.as_str() {
        "baseline" => cmd_baseline(&mut args),
        "trace" => cmd_trace(&mut args),
        "generate" => cmd_generate(&mut args),
        "inject" => cmd_inject(&mut args),
        "analyze" => cmd_analyze(&mut args),
        "report" => cmd_report(&mut args),
        "campaign" => cmd_campaign(&mut args),
        // Hidden: spawned by `campaign --workers N`, not user-facing.
        "campaign-worker" => cmd_campaign_worker(&mut args),
        "metrics" => cmd_metrics(&mut args),
        "advise" => cmd_advise(&mut args),
        "audit" => cmd_audit(&mut args),
        "conform" => cmd_conform(&mut args),
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
