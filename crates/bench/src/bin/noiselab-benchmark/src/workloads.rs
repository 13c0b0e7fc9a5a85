//! The four workloads. Each is a closed loop of identical rounds: the
//! same cells with the same seeds every round, so every round's digest
//! must be identical. Sizes are per round and target about 3 s on a
//! 2-vCPU host; see README.md for why each workload exists.

use crate::round::{fail, CliOut, Ctx, Failure};
use noiselab_core::experiments::suite;
use noiselab_core::{
    measure_overhead, run_baseline, CampaignState, ExecConfig, Mitigation, Model, OverheadReport,
    Platform,
};
use noiselab_injector::InjectionConfig;
use noiselab_noise::TraceSet;
use noiselab_workloads::{Babelstream, SchedBench, Workload};
use std::collections::BTreeSet;
use std::path::Path;
use std::rc::Rc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    OmpSaturated,
    WideMachines,
    PaperPipeline,
    CampaignSharded,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::OmpSaturated,
        Kind::WideMachines,
        Kind::PaperPipeline,
        Kind::CampaignSharded,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::OmpSaturated => "omp-saturated",
            Kind::WideMachines => "wide-machines",
            Kind::PaperPipeline => "paper-pipeline",
            Kind::CampaignSharded => "campaign-sharded",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Expected round digests for workload seeds 1 and 2. Any change to
    /// a simulated bit, a CLI artifact or a CLI stdout line moves them.
    pub fn pinned(self) -> [(u64, u64); 2] {
        match self {
            Kind::OmpSaturated => [(1, 0x8c62_c060_d941_10db), (2, 0x1211_dc89_4d70_f5bd)],
            Kind::WideMachines => [(1, 0xb772_a85c_9ac4_e751), (2, 0x35a3_3524_5c45_f31b)],
            Kind::PaperPipeline => [(1, 0xf2e7_1922_8972_108d), (2, 0x73c2_bfd3_2dd6_1707)],
            Kind::CampaignSharded => [(1, 0x7db5_c105_6491_4dfe), (2, 0x631f_6cdd_27da_4331)],
        }
    }
}

/// Reject a digest that differs from the expected one in any bit.
pub fn check_digest(check: &str, expected: u64, got: u64) -> Result<(), Failure> {
    if expected == got {
        Ok(())
    } else {
        fail(check, format!("expected {expected:016x}, got {got:016x}"))
    }
}

/// One in-process `run_baseline` cell.
pub struct Cell {
    pub platform_name: &'static str,
    pub platform: Platform,
    pub workload: Rc<dyn Workload + Sync>,
    pub cfg: ExecConfig,
    pub runs: usize,
    pub label: String,
}

impl Cell {
    fn new(
        platform_name: &'static str,
        workload: Rc<dyn Workload + Sync>,
        cfg: ExecConfig,
        runs: usize,
        tag: &str,
    ) -> Cell {
        let platform =
            Platform::by_name(platform_name).expect("platform name from Platform::NAMES");
        let label = format!("{platform_name}/{}/{}{tag}", workload.name(), cfg.label());
        Cell {
            platform_name,
            platform,
            workload,
            cfg,
            runs,
            label,
        }
    }
}

/// Runs per cell of omp-saturated, for nbody, babelstream and minife.
pub const OMP_SATURATED_RUNS: [usize; 3] = [200, 40, 40];

/// Intel i7-9700KF, OMP: {nbody, babelstream, minife} x {Rm, TP, RmHK,
/// TPHK2} through untraced `run_baseline`.
pub fn omp_saturated_cells(runs: [usize; 3]) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (name, n) in PIPELINE_WORKLOADS.into_iter().zip(runs) {
        let w = suite_workload("intel", name);
        for mit in [
            Mitigation::Rm,
            Mitigation::Tp,
            Mitigation::RmHK,
            Mitigation::TpHK2,
        ] {
            let cfg = ExecConfig::new(Model::Omp, mit);
            cells.push(Cell::new("intel", Rc::clone(&w), cfg, n, ""));
        }
    }
    cells
}

/// Schedbench region repetitions per run on the A64FX.
const SCHEDBENCH_REPEATS: usize = 50;
/// Babelstream `dot` size on the A64FX (the Figure 2 instance).
const DOT_ELEMENTS: usize = 33_554_432;
const DOT_ITERATIONS: usize = 200;

/// A64FX with and without reserved OS cores (schedbench over every
/// Figure 1 schedule, Babelstream `dot` over thread counts) and the AMD
/// 9950X3D under TPHK-SMT in both programming models.
fn wide_machine_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for platform in ["a64fx", "a64fx-reserved"] {
        for (tag, schedule) in SchedBench::figure1_configs() {
            let mut sb = SchedBench::with_schedule(schedule);
            sb.repeats = SCHEDBENCH_REPEATS;
            let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm).with_schedule(schedule);
            cells.push(Cell::new(platform, Rc::new(sb), cfg, 2, &format!("/{tag}")));
        }
        for threads in [6, 12, 24, 48] {
            let dot = Babelstream::dot_only(DOT_ELEMENTS, DOT_ITERATIONS);
            let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm).with_threads(threads);
            cells.push(Cell::new(
                platform,
                Rc::new(dot),
                cfg,
                3,
                &format!("/t{threads}"),
            ));
        }
    }
    for name in ["nbody", "minife"] {
        let w = suite_workload("amd", name);
        for model in [Model::Omp, Model::Sycl] {
            let cfg = ExecConfig::new(model, Mitigation::TpHK).with_smt();
            cells.push(Cell::new("amd", Rc::clone(&w), cfg, 2, ""));
        }
    }
    cells
}

/// A suite workload sized for the named platform.
fn suite_workload(platform: &str, name: &str) -> Rc<dyn Workload + Sync> {
    let platform = Platform::by_name(platform).expect("platform name from Platform::NAMES");
    suite::workload_by_name(&platform, name)
        .expect("workload name from suite::WORKLOAD_NAMES")
        .into()
}

fn model_key(model: Model) -> &'static str {
    match model {
        Model::Omp => "omp",
        Model::Sycl => "sycl",
    }
}

/// First seed of cell `i`'s run range: cells never share seeds, and the
/// workload seed only moves the range the simulator draws from.
fn cell_seed(seed: u64, i: usize) -> u64 {
    (seed % 1_000_000) * 1_000_000 + i as u64 * 1_000
}

/// Run every cell once through `run_baseline`, folding each summary
/// into the digest.
pub fn run_cells(ctx: &mut Ctx, cells: &[Cell]) -> Result<(), Failure> {
    for (i, c) in cells.iter().enumerate() {
        let seed_base = cell_seed(ctx.seed, i);
        let (base, secs) = ctx.call("run_baseline", &c.label, || {
            run_baseline(
                &c.platform,
                c.workload.as_ref(),
                &c.cfg,
                c.runs,
                seed_base,
                false,
            )
        });
        if let Some((seed, cause)) = base.failures.first() {
            return fail(
                "baseline.no-failed-runs",
                format!("{}: seed {seed}: {cause}", c.label),
            );
        }
        let s = &base.summary;
        ctx.absorb(&(s.n as u64).to_le_bytes());
        for v in [s.mean, s.sd, s.min, s.max, s.median, s.p95, s.p99] {
            ctx.absorb(&v.to_bits().to_le_bytes());
        }
        ctx.add("core.run_baseline.calls", 1.0);
        ctx.add("core.run_baseline.busy_s", secs);
        ctx.add(&format!("core.busy_s.{}", c.platform_name), secs);
        ctx.add(&format!("runtime.{}.busy_s", model_key(c.cfg.model)), secs);
        ctx.add("core.runs", c.runs as f64);
        ctx.add("core.attempts", c.runs as f64);
    }
    Ok(())
}

/// Inputs built during set-up, reused by every round.
pub struct Bench {
    kind: Kind,
    /// The in-process workloads' round cells.
    cells: Vec<Cell>,
    /// One cell per distinct (platform, workload, model) the round
    /// simulates, in process or through the CLI (at Rm for the CLI
    /// workloads): what set-up warms and `measure_overhead` profiles.
    distinct: Vec<Cell>,
}

/// Runs per distinct cell in the set-up warm-up.
const WARM_RUNS: usize = 1;

/// Build a workload's inputs in a fresh work directory and warm up the
/// paths every round takes: one `noiselab` launch, and a short
/// in-process baseline of every distinct cell.
pub fn setup(kind: Kind, ctx: &mut Ctx) -> Result<Bench, Failure> {
    std::fs::create_dir_all(&ctx.work)
        .or_else(|e| fail("setup.work-dir", format!("{}: {e}", ctx.work.display())))?;
    let at_rm = |p: &'static str, w: &str, model| {
        let cfg = ExecConfig::new(model, Mitigation::Rm);
        Cell::new(p, suite_workload(p, w), cfg, WARM_RUNS, "")
    };
    let (cells, mut distinct) = match kind {
        Kind::OmpSaturated => (omp_saturated_cells(OMP_SATURATED_RUNS), Vec::new()),
        Kind::WideMachines => (wide_machine_cells(), Vec::new()),
        Kind::PaperPipeline => (
            Vec::new(),
            PIPELINE_WORKLOADS
                .iter()
                .flat_map(|w| [Model::Omp, Model::Sycl].map(|m| at_rm("intel", w, m)))
                .collect(),
        ),
        Kind::CampaignSharded => (
            Vec::new(),
            [Model::Omp, Model::Sycl]
                .map(|m| at_rm("intel-dvfs", "minife", m))
                .into(),
        ),
    };
    let mut seen = BTreeSet::new();
    for c in &cells {
        if seen.insert((c.platform_name, c.workload.name(), model_key(c.cfg.model))) {
            let w = Rc::clone(&c.workload);
            distinct.push(Cell::new(c.platform_name, w, c.cfg.clone(), WARM_RUNS, ""));
        }
    }
    ctx.cli(
        "warm-up",
        &["baseline", "--workload", "nbody-tiny", "--runs", "4"],
        2,
    )?;
    for c in &distinct {
        ctx.call("run_baseline", &c.label, || {
            run_baseline(&c.platform, c.workload.as_ref(), &c.cfg, c.runs, 1, false)
        });
    }
    Ok(Bench {
        kind,
        cells,
        distinct,
    })
}

impl Bench {
    pub fn run_round(&self, ctx: &mut Ctx) -> Result<(), Failure> {
        match self.kind {
            Kind::OmpSaturated | Kind::WideMachines => run_cells(ctx, &self.cells),
            Kind::PaperPipeline => paper_pipeline(ctx),
            Kind::CampaignSharded => campaign(ctx),
        }
    }

    /// `measure_overhead` once per distinct cell: the kernel phase
    /// profile and the observer overheads.
    pub fn overheads(
        &self,
        ctx: &mut Ctx,
        reps: u32,
    ) -> Result<Vec<(Model, OverheadReport)>, Failure> {
        let mut out = Vec::new();
        for c in &self.distinct {
            let seed = cell_seed(ctx.seed, 0);
            let (rep, _) = ctx.call("measure_overhead", &c.label, || {
                measure_overhead(&c.platform, c.workload.as_ref(), &c.cfg, seed, reps)
            });
            let rep = rep.or_else(|e| fail("overhead.run", format!("{}: {e}", c.label)))?;
            ctx.add("kernel.events", rep.events as f64);
            out.push((c.cfg.model, rep));
        }
        Ok(out)
    }
}

const PIPELINE_WORKLOADS: [&str; 3] = ["nbody", "babelstream", "minife"];
const MITIGATIONS: [&str; 6] = ["Rm", "RmHK", "RmHK2", "TP", "TPHK", "TPHK2"];
/// Traced runs per workload. The trace stage runs at the platform's
/// natural anomaly rate: at `--boost 10` about a third of the seeds drew
/// a 20,000-event anomaly whose replay doubled the round, which made
/// round cost a property of the seed rather than of the code.
const TRACE_RUNS: usize = 16;
const INJECT_RUNS: usize = 1;

/// The `accuracy` figure an `inject` stage prints, in percent.
fn inject_accuracy(out: &CliOut) -> Result<f64, Failure> {
    out.stdout
        .split("accuracy ")
        .nth(1)
        .and_then(|s| s.trim().trim_end_matches('%').parse().ok())
        .map_or_else(
            || {
                fail(
                    "inject.accuracy",
                    format!("no accuracy in {:?}", out.stdout),
                )
            },
            Ok,
        )
}

/// The paper's method through the CLI: trace, analyze, generate, and
/// inject under every mitigation and model, for each workload; then one
/// Perfetto timeline whose NLTB and Chrome exports must agree.
fn paper_pipeline(ctx: &mut Ctx) -> Result<(), Failure> {
    let seed = cell_seed(ctx.seed, 0).to_string();
    let mut err_sum = 0.0;
    for w in PIPELINE_WORKLOADS {
        ctx.enter("pipeline", w);
        let traces = format!("traces-{w}.json");
        let config = format!("config-{w}.json");
        let runs = TRACE_RUNS.to_string();
        let (out, secs) = ctx.cli(
            w,
            &[
                "trace",
                "--platform",
                "intel",
                "--workload",
                w,
                "--runs",
                &runs,
                "--seed",
                &seed,
                "--out",
                &traces,
            ],
            2,
        )?;
        ctx.absorb(out.stdout.as_bytes());
        ctx.add("noise.trace_stage_s", secs);
        ctx.add("core.busy_s.intel", secs);
        ctx.add("core.runs", TRACE_RUNS as f64);
        ctx.add("core.attempts", TRACE_RUNS as f64);

        let bytes = ctx.read(&traces)?;
        ctx.absorb(&bytes);
        let text = String::from_utf8_lossy(&bytes);
        let (set, secs) = ctx.call("serde:TraceSet", w, || {
            serde_json::from_str::<TraceSet>(&text)
        });
        let set = set.or_else(|e| fail("decode.traces-json", format!("{traces}: {e}")))?;
        ctx.add("noise.trace_json.decode_s", secs);
        ctx.add("noise.trace_json.bytes", bytes.len() as f64);
        ctx.add(
            "noise.trace_events",
            set.runs.iter().map(|r| r.events.len()).sum::<usize>() as f64,
        );
        ctx.add(
            "noise.degraded_runs",
            set.runs.iter().filter(|r| r.degraded).count() as f64,
        );

        let (out, secs) = ctx.cli(w, &["analyze", "--traces", &traces, "--top", "3"], 2)?;
        ctx.absorb(out.stdout.as_bytes());
        ctx.add("noise.analyze_s", secs);

        let (out, secs) = ctx.cli(w, &["generate", "--traces", &traces, "--out", &config], 2)?;
        ctx.absorb(out.stdout.as_bytes());
        ctx.add("injector.generate_s", secs);
        let bytes = ctx.read(&config)?;
        ctx.absorb(&bytes);
        let cfg = InjectionConfig::from_json(&String::from_utf8_lossy(&bytes))
            .or_else(|e| fail("decode.config-json", format!("{config}: {e}")))?;
        ctx.add("injector.config_events", cfg.event_count() as f64);
        ctx.add("injector.config_json.bytes", bytes.len() as f64);

        let runs = INJECT_RUNS.to_string();
        for mit in MITIGATIONS {
            for model in ["omp", "sycl"] {
                let (out, secs) = ctx.cli(
                    &format!("{w}/{mit}-{model}"),
                    &[
                        "inject",
                        "--platform",
                        "intel",
                        "--workload",
                        w,
                        "--config",
                        &config,
                        "--runs",
                        &runs,
                        "--mitigation",
                        mit,
                        "--model",
                        model,
                        "--seed",
                        &seed,
                    ],
                    2,
                )?;
                ctx.absorb(out.stdout.as_bytes());
                ctx.add("injector.inject_s", secs);
                ctx.add("injector.inject.calls", 1.0);
                ctx.add(&format!("runtime.{model}.busy_s"), secs);
                ctx.add("core.busy_s.intel", secs);
                ctx.add("core.runs", 2.0 * INJECT_RUNS as f64);
                ctx.add("core.attempts", 2.0 * INJECT_RUNS as f64);
                if (mit, model) == ("Rm", "omp") {
                    err_sum += inject_accuracy(&out)?.abs();
                }
            }
        }
        ctx.exit();
    }
    ctx.add(
        "injector.err_pct",
        err_sum / PIPELINE_WORKLOADS.len() as f64,
    );
    timeline(ctx, &seed)
}

/// Export one minife run as Chrome JSON and NLTB, decode both in
/// process, and require the same span and instant counts.
fn timeline(ctx: &mut Ctx, seed: &str) -> Result<(), Failure> {
    ctx.enter("timeline", "minife");
    let (out, secs) = ctx.cli(
        "minife",
        &[
            "trace",
            "--run",
            seed,
            "--platform",
            "intel",
            "--workload",
            "minife",
            "--out",
            "t.json",
            "--binary",
            "t.nltb",
        ],
        2,
    )?;
    ctx.absorb(out.stdout.as_bytes());
    ctx.add("telemetry.export_s", secs);
    ctx.add("core.busy_s.intel", secs);
    let chrome = ctx.read("t.json")?;
    let nltb = ctx.read("t.nltb")?;
    ctx.absorb(&chrome);
    ctx.absorb(&nltb);
    ctx.add("telemetry.chrome.bytes", chrome.len() as f64);
    ctx.add("telemetry.nltb.bytes", nltb.len() as f64);

    let (bin, secs) = ctx.call("telemetry::decode", "minife", || {
        noiselab_telemetry::decode(&nltb)
    });
    let bin = bin.or_else(|e| fail("decode.nltb", e.to_string()))?;
    ctx.add("telemetry.nltb.decode_s", secs);
    ctx.add("telemetry.spans", bin.spans.len() as f64);

    let text = String::from_utf8_lossy(&chrome);
    let (doc, _) = ctx.call("serde:parse_json", "minife", || serde::parse_json(&text));
    let doc = doc.or_else(|e| fail("decode.chrome-json", e.to_string()))?;
    let phase_count = |ph: &str| {
        doc.get("traceEvents")
            .and_then(|e| e.as_array())
            .map_or(0, |evs| {
                evs.iter()
                    .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some(ph))
                    .count()
            })
    };
    let (x, i) = (phase_count("X"), phase_count("i"));
    if (bin.spans.len(), bin.instants.len()) != (x, i) {
        return fail(
            "telemetry.nltb-matches-chrome",
            format!(
                "NLTB has {} spans and {} instants, Chrome JSON {x} and {i}",
                bin.spans.len(),
                bin.instants.len()
            ),
        );
    }
    ctx.exit();
    Ok(())
}

const CAMPAIGN_RUNS: usize = 4;

/// Total bytes of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .filter_map(Result::ok)
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    })
}

/// The DVFS mitigation matrix on intel-dvfs/minife with seeded crash
/// faults, through the sharded engine (2 workers at 1 thread each) and
/// the single-process engine (2 threads), then resume, metrics and
/// advise over the checkpoints.
fn campaign(ctx: &mut Ctx) -> Result<(), Failure> {
    let seed = cell_seed(ctx.seed, 0).to_string();
    let runs = CAMPAIGN_RUNS.to_string();
    let spec = [
        "--platform",
        "intel-dvfs",
        "--workload",
        "minife",
        "--dvfs",
        "true",
        "--runs",
        &runs,
        "--crash-prob",
        "0.05",
        "--retries",
        "1",
        "--seed",
        &seed,
    ];
    let with = |extra: &[&'static str]| -> Vec<&str> {
        let mut v = vec!["campaign"];
        v.extend_from_slice(&spec);
        v.extend_from_slice(extra);
        v
    };
    for stale in ["queue", "sharded.json", "single.json"] {
        ctx.remove(stale)?;
    }
    ctx.enter("campaign", "intel-dvfs/minife");

    let sharded = with(&[
        "--workers",
        "2",
        "--shard-size",
        "2",
        "--queue",
        "queue",
        "--checkpoint",
        "sharded.json",
    ]);
    let (_, sharded_s) = ctx.cli("sharded", &sharded, 1)?;
    ctx.add("campaignd.campaign_s", sharded_s);
    ctx.add(
        "campaignd.ledger_bytes",
        dir_bytes(&ctx.work.join("queue")) as f64,
    );

    let (_, secs) = ctx.cli(
        "sharded",
        &["metrics", "--checkpoint", "sharded.json", "--json"],
        2,
    )?;
    ctx.add("core.metrics_read_s", secs);

    let (out, single_s) = ctx.cli("single", &with(&["--checkpoint", "single.json"]), 2)?;
    ctx.absorb(out.stdout.as_bytes());
    ctx.add("core.campaign_s", single_s);
    ctx.add("core.busy_s.intel-dvfs", sharded_s + single_s);

    let resume = with(&["--checkpoint", "single.json", "--resume", "true"]);
    let (out, secs) = ctx.cli("single", &resume, 2)?;
    if !out.stderr.contains("resume verified") {
        return fail("campaign.resume-verified", out.stderr);
    }
    ctx.absorb(out.stdout.as_bytes());
    ctx.add("core.resume_verify_s", secs);

    let (out, secs) = ctx.cli(
        "single",
        &["advise", "--checkpoint", "single.json", "--json"],
        2,
    )?;
    ctx.absorb(out.stdout.as_bytes());
    ctx.add("advise_s", secs);

    let mut states = Vec::new();
    for name in ["sharded.json", "single.json"] {
        let path = ctx.work.join(name);
        let (state, secs) = ctx.call("CampaignState::load", name, || CampaignState::load(&path));
        states.push(state.or_else(|e| fail("checkpoint.load", e.to_string()))?);
        ctx.add("core.checkpoint.load_s", secs);
    }
    ctx.exit();
    let (sharded, single) = (&states[0], &states[1]);
    if sharded.cells != single.cells || sharded.fingerprint != single.fingerprint {
        return fail(
            "campaign.sharded-equals-single",
            "per-cell state of the sharded and single-process campaigns differs",
        );
    }
    ctx.add(
        "core.checkpoint.bytes",
        std::fs::metadata(ctx.work.join("single.json")).map_or(0, |m| m.len()) as f64,
    );

    let cells = single.cells.len() as f64;
    ctx.add("core.campaign.cells", cells);
    ctx.add("campaignd.cells", cells);
    for key in ["workers_spawned", "worker_crashes"] {
        let n = sharded.supervisor.counter(&format!("campaignd.{key}"));
        ctx.add(&format!("campaignd.{key}"), n as f64);
    }
    for cell in &single.cells {
        ctx.absorb(cell.key.label.as_bytes());
        ctx.absorb(&cell.key.seed.to_le_bytes());
        ctx.absorb(&cell.attempts.to_le_bytes());
        ctx.absorb(&cell.stream_hash.to_le_bytes());
        for s in &cell.samples {
            ctx.absorb(&s.to_bits().to_le_bytes());
        }
        for f in &cell.failures {
            ctx.absorb(&f.seed.to_le_bytes());
            ctx.absorb(f.cause.cause().as_bytes());
        }
        for name in [
            "sched.context_switches",
            "sched.migrations",
            "sched.preemptions",
            "irq.timer",
            "dvfs.freq_transitions",
            "dvfs.throttle_enters",
        ] {
            ctx.add(name, cell.metrics.counter(name) as f64);
        }
    }
    // Both engines ran every cell.
    for state in &states {
        let requested = (state.cells.len() * CAMPAIGN_RUNS) as f64;
        let attempts: u64 = state.cells.iter().map(|c| c.attempts).sum();
        let failed: usize = state.cells.iter().map(|c| c.failures.len()).sum();
        ctx.add("core.runs", requested);
        ctx.add("core.attempts", attempts as f64);
        ctx.add("core.retries", attempts as f64 - requested);
        ctx.add("core.runs_failed", failed as f64);
    }
    Ok(())
}
