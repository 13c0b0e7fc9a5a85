//! noiselab-benchmark: the end-to-end benchmark of the noiselab
//! simulator, with a traced mode that breaks host time down by layer.
//!
//! ```text
//! noiselab-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A workload is a closed loop of identical rounds, run one at a time
//! from this process, until `--seconds` have passed. End-to-end metrics
//! are medians over the untraced rounds, with host times scaled to a
//! reference host speed by a probe loop timed around every round (see
//! `host::probe_ms`). With `--trace 1` the loop gets part of the time,
//! then one more round records a span around every public call and CLI
//! stage, and the per-layer metrics are printed. Every round's
//! simulated digest must be identical, and seeds 1 and 2 must reproduce
//! the digests pinned in `workloads.rs`; any failed check exits 1 and
//! names the check. See README.md.

mod host;
mod round;
mod spans;
mod workloads;

use noiselab_bench::wall_clock;
use noiselab_core::{Model, OverheadReport};
use noiselab_stats::{median, percentile};
use round::{fail, remove_path, Ctx, Failure};
use serde::Value;
use spans::SpanLog;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{check_digest, Kind};

const USAGE: &str = "usage: noiselab-benchmark --workload \
    <omp-saturated|wide-machines|paper-pipeline|campaign-sharded> \
    --seed <n> --seconds <s> --trace <0|1>";

/// Set-ups per invocation; `setup_s` is their median.
const SETUPS: usize = 5;
/// Rounds run even when `--seconds` is already used up.
const MIN_ROUNDS: usize = 3;
/// Share of `--seconds` the untraced rounds get in a traced invocation;
/// the traced round and the overhead measurements take the rest.
const UNTRACED_SHARE: f64 = 0.6;
/// `measure_overhead` repetitions per cell.
const OVERHEAD_REPS: u32 = 3;
/// Simulation threads everywhere: the benchmark is sized for two vCPUs.
const HOST_THREADS: &str = "2";
/// Where work directories and traces go, relative to the working
/// directory.
const OUT_DIR: &str = ".noiselab-benchmark";

/// End-to-end metrics, from the untraced rounds, in reference-host
/// seconds. Peak RSS is a per-layer metric instead: in the in-process
/// workloads it follows the heaviest simulated run of the round, so its
/// spread across seeds (20-23 %) leaves no room for a bound.
const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s")];

/// Per-layer metrics, from the traced round. A workload that bypasses
/// a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 68] = [
    ("core.run_baseline.calls", "count"),
    ("core.run_baseline.busy_s", "s"),
    ("core.runs", "count"),
    ("core.runs_failed", "count"),
    ("core.retries", "count"),
    ("core.ok_per_attempt", "ratio"),
    ("core.busy_s.intel", "s"),
    ("core.busy_s.amd", "s"),
    ("core.busy_s.a64fx", "s"),
    ("core.busy_s.a64fx-reserved", "s"),
    ("core.busy_s.intel-dvfs", "s"),
    ("core.stats.ns_per_event", "ns"),
    ("core.stats.calls", "count"),
    ("kernel.events", "count"),
    ("kernel.ns_per_event", "ns"),
    ("kernel.dispatch.ns_per_event", "ns"),
    ("kernel.dispatch.calls", "count"),
    ("kernel.scheduler.ns_per_event", "ns"),
    ("kernel.scheduler.calls", "count"),
    ("kernel.tracer.ns_per_event", "ns"),
    ("kernel.tracer.calls", "count"),
    ("runtime.omp.busy_s", "s"),
    ("runtime.sycl.busy_s", "s"),
    ("runtime.sycl_per_omp", "ratio"),
    ("noise.trace_stage_s", "s"),
    ("noise.trace_events", "count"),
    ("noise.degraded_runs", "count"),
    ("noise.trace_json.bytes", "bytes"),
    ("noise.trace_json.decode_s", "s"),
    ("noise.analyze_s", "s"),
    ("noise.tracer_overhead_pct", "%"),
    ("noise.tracer_virt_overhead_pct", "%"),
    ("injector.generate_s", "s"),
    ("injector.config_events", "count"),
    ("injector.config_json.bytes", "bytes"),
    ("injector.inject_s", "s"),
    ("injector.inject.calls", "count"),
    ("injector.err_pct", "%"),
    ("telemetry.observer_overhead_pct", "%"),
    ("telemetry.export_s", "s"),
    ("telemetry.chrome.bytes", "bytes"),
    ("telemetry.nltb.bytes", "bytes"),
    ("telemetry.nltb.decode_s", "s"),
    ("telemetry.spans", "count"),
    ("core.campaign_s", "s"),
    ("core.campaign.cells_per_s", "1/s"),
    ("core.checkpoint.bytes", "bytes"),
    ("core.checkpoint.load_s", "s"),
    ("core.resume_verify_s", "s"),
    ("core.metrics_read_s", "s"),
    ("campaignd.campaign_s", "s"),
    ("campaignd.cells_per_s", "1/s"),
    ("campaignd.sharded_per_single", "ratio"),
    ("campaignd.workers_spawned", "count"),
    ("campaignd.worker_crashes", "count"),
    ("campaignd.ledger_bytes", "bytes"),
    ("advise_s", "s"),
    ("sched.context_switches", "count"),
    ("sched.migrations", "count"),
    ("sched.preemptions", "count"),
    ("irq.timer", "count"),
    ("dvfs.freq_transitions", "count"),
    ("dvfs.throttle_enters", "count"),
    ("host.cpu_util", "ratio"),
    ("host.idle_pct", "%"),
    ("host.probe_ms", "ms"),
    ("host.peak_rss_mb", "MB"),
    ("trace_overhead_pct", "%"),
];

/// Per-round sums that only feed derived metrics.
const RAW_ONLY: [&str; 3] = ["core.attempts", "core.campaign.cells", "campaignd.cells"];

struct Args {
    workload: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} wants a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Kind::from_name(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                seconds = Some(s).filter(|s| *s > 0.0 && s.is_finite());
                seconds.ok_or_else(bad)?;
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Host cost and host state of one untraced round.
struct RoundStat {
    wall_s: f64,
    cpu_s: f64,
    /// Mean probe time just before and just after the round.
    probe_ms: f64,
    sample: host::Sample,
}

/// One printed metric: name, value, unit.
type Metric = (String, f64, &'static str);

struct Outcome {
    end_to_end: Vec<Metric>,
    /// The unscaled host seconds behind the end-to-end times.
    raw: Vec<Metric>,
    per_layer: Option<Vec<Metric>>,
    context: Value,
}

/// First, second and third quartile.
fn quartiles(xs: &[f64]) -> [f64; 3] {
    [percentile(xs, 25.0), median(xs), percentile(xs, 75.0)]
}

fn metric_value(name: &str, value: f64, unit: &str) -> (String, Value) {
    let value = if value.is_finite() { value } else { 0.0 };
    (
        name.to_string(),
        Value::Object(vec![
            ("value".into(), Value::Float(value)),
            ("unit".into(), Value::Str(unit.into())),
        ]),
    )
}

/// The one-line JSON summary the benchmark ends with.
fn summary_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|(n, v, u)| metric_value(n, *v, u))
        .collect();
    serde::write_json(
        &Value::Object(vec![
            ("correct".into(), Value::Bool(correct)),
            ("attempted".into(), Value::UInt(attempted as u128)),
            ("failed".into(), Value::UInt(failed as u128)),
            ("metrics".into(), Value::Object(metrics)),
        ]),
        false,
    )
}

fn mode_median(
    reps: &[(Model, OverheadReport)],
    mode: &str,
    f: fn(&noiselab_core::OverheadRow) -> f64,
) -> f64 {
    let xs: Vec<f64> = reps
        .iter()
        .flat_map(|(_, r)| r.rows.iter().filter(|row| row.mode == mode))
        .map(f)
        .collect();
    if xs.is_empty() {
        0.0
    } else {
        median(&xs)
    }
}

/// Host ns per event of the bare (unobserved) runs, over the cells of
/// one model or of all models; 0 when there are none.
fn bare_ns_per_event(reps: &[(Model, OverheadReport)], model: Option<Model>) -> f64 {
    let (mut ns, mut events) = (0.0, 0u64);
    for (_, r) in reps
        .iter()
        .filter(|(m, _)| model.is_none_or(|want| *m == want))
    {
        ns += r
            .rows
            .iter()
            .filter(|row| row.mode == "bare")
            .map(|row| row.host_ns as f64)
            .sum::<f64>();
        events += r.events;
    }
    if events == 0 {
        0.0
    } else {
        ns / events as f64
    }
}

/// Assemble the per-layer metrics from the traced round's sums, the
/// overhead reports and the untraced rounds' host samples.
fn per_layer(
    layer: &BTreeMap<String, f64>,
    overheads: &[(Model, OverheadReport)],
    rounds: &[RoundStat],
    traced_s: f64,
) -> BTreeMap<String, f64> {
    let mut m: BTreeMap<String, f64> = PER_LAYER
        .iter()
        .map(|(n, _)| (n.to_string(), 0.0))
        .collect();
    m.extend(layer.iter().map(|(k, v)| (k.clone(), *v)));
    let get = |m: &BTreeMap<String, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let attempts = get(&m, "core.attempts");
    let ok = get(&m, "core.runs") - get(&m, "core.runs_failed");
    m.insert("core.ok_per_attempt".into(), ratio(ok, attempts));
    let (single, sharded) = (get(&m, "core.campaign_s"), get(&m, "campaignd.campaign_s"));
    m.insert(
        "core.campaign.cells_per_s".into(),
        ratio(get(&m, "core.campaign.cells"), single),
    );
    m.insert(
        "campaignd.cells_per_s".into(),
        ratio(get(&m, "campaignd.cells"), sharded),
    );
    m.insert(
        "campaignd.sharded_per_single".into(),
        ratio(sharded, single),
    );
    for k in RAW_ONLY {
        m.remove(k);
    }

    let events: f64 = overheads.iter().map(|(_, r)| r.events as f64).sum();
    m.insert(
        "kernel.ns_per_event".into(),
        bare_ns_per_event(overheads, None),
    );
    // Phases are iterated as the profiler reports them, so a new phase
    // shows up as its own metric.
    let mut phases: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    for (_, r) in overheads {
        for p in &r.profile.phases {
            let e = phases.entry(p.phase.clone()).or_default();
            e.0 += p.self_ns as f64;
            e.1 += p.calls as f64;
        }
    }
    for (phase, (ns, calls)) in phases {
        let layer = if phase == "stats" { "core" } else { "kernel" };
        m.insert(format!("{layer}.{phase}.ns_per_event"), ratio(ns, events));
        m.insert(format!("{layer}.{phase}.calls"), calls);
    }
    m.insert(
        "noise.tracer_overhead_pct".into(),
        mode_median(overheads, "+tracer", |r| r.overhead_pct),
    );
    m.insert(
        "noise.tracer_virt_overhead_pct".into(),
        mode_median(overheads, "+tracer", |r| r.virt_overhead_pct),
    );
    m.insert(
        "telemetry.observer_overhead_pct".into(),
        mode_median(overheads, "+telemetry", |r| r.overhead_pct),
    );
    m.insert(
        "runtime.sycl_per_omp".into(),
        ratio(
            bare_ns_per_event(overheads, Some(Model::Sycl)),
            bare_ns_per_event(overheads, Some(Model::Omp)),
        ),
    );

    let of = |f: fn(&RoundStat) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let nproc = host::nproc() as f64;
    m.insert("host.cpu_util".into(), of(|r| r.cpu_s / r.wall_s) / nproc);
    m.insert("host.idle_pct".into(), of(|r| r.sample.idle_pct));
    m.insert("host.probe_ms".into(), of(|r| r.probe_ms));
    m.insert(
        "trace_overhead_pct".into(),
        (traced_s / of(|r| reference_s(r.wall_s, r.probe_ms)) - 1.0) * 100.0,
    );
    m
}

fn unit_of(name: &str) -> &'static str {
    PER_LAYER.iter().find(|(n, _)| *n == name).map_or(
        if name.ends_with("calls") {
            "count"
        } else {
            "ns"
        },
        |(_, u)| u,
    )
}

/// Host seconds scaled to the reference host: `secs` measured while
/// the probe took `probe_ms`.
fn reference_s(secs: f64, probe_ms: f64) -> f64 {
    secs * host::PROBE_REF_MS / probe_ms
}

fn bench(args: &Args, ctx: &mut Ctx) -> Result<Outcome, Failure> {
    let kind = args.workload;
    let (mut setup_raw, mut setup_s) = (Vec::new(), Vec::new());
    let mut bench = None;
    for _ in 0..SETUPS {
        remove_path(&ctx.work).or_else(|e| fail("setup.work-dir", e.to_string()))?;
        let probe_before = host::probe_ms();
        let t0 = wall_clock();
        bench = Some(workloads::setup(kind, ctx)?);
        let raw = host::secs_since(t0);
        setup_raw.push(raw);
        setup_s.push(reference_s(raw, (probe_before + host::probe_ms()) / 2.0));
    }
    let bench = bench.expect("at least one set-up");
    let setup_ops = ctx.ops();

    let origin = wall_clock();
    let budget = args.seconds * if args.trace { UNTRACED_SHARE } else { 1.0 };
    let mut rounds: Vec<RoundStat> = Vec::new();
    let mut digest = None;
    loop {
        let sample = host::sample();
        ctx.begin_round(rounds.len() as u32, None);
        let (u0, t0) = (host::usage(), wall_clock());
        bench.run_round(ctx)?;
        let wall_s = host::secs_since(t0);
        let cpu_s = host::usage().cpu_s - u0.cpu_s;
        let probe_ms = (sample.probe_ms + host::probe_ms()) / 2.0;
        match digest {
            None => digest = Some(ctx.digest()),
            Some(d) => check_digest("digest.rounds", d, ctx.digest())?,
        }
        rounds.push(RoundStat {
            wall_s,
            cpu_s,
            probe_ms,
            sample,
        });
        if rounds.len() >= MIN_ROUNDS && host::secs_since(origin) + wall_s > budget {
            break;
        }
    }
    let digest = digest.expect("at least one round");
    for (seed, pinned) in kind.pinned() {
        if seed == args.seed {
            check_digest("digest.pinned", pinned, digest)?;
        }
    }
    let usage = host::usage();
    let peak_rss_mb = usage.self_maxrss_kib.max(usage.children_maxrss_kib) as f64 / 1024.0;

    let of = |f: fn(&RoundStat) -> f64| rounds.iter().map(f).collect::<Vec<_>>();
    let values = [
        median(&setup_s),
        median(&of(|r| reference_s(r.wall_s, r.probe_ms))),
        median(&of(|r| reference_s(r.cpu_s, r.probe_ms))),
    ];
    let end_to_end: Vec<Metric> = END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit), v)| (name.to_string(), v, *unit))
        .collect();
    let raw = vec![
        ("setup_raw_s".into(), median(&setup_raw), "s"),
        ("wall_raw_s".into(), median(&of(|r| r.wall_s)), "s"),
        ("cpu_raw_s".into(), median(&of(|r| r.cpu_s)), "s"),
    ];

    let mut trace_path = Value::Null;
    let per_layer = if args.trace {
        let probe_before = host::probe_ms();
        let t0 = wall_clock();
        ctx.begin_round(rounds.len() as u32, Some(SpanLog::starting_at(t0)));
        ctx.enter("round", kind.name());
        bench.run_round(ctx)?;
        ctx.exit();
        let traced_s = reference_s(
            host::secs_since(t0),
            (probe_before + host::probe_ms()) / 2.0,
        );
        check_digest("digest.traced-round", digest, ctx.digest())?;
        let overheads = bench.overheads(ctx, OVERHEAD_REPS)?;
        let mut layer = per_layer(ctx.layer(), &overheads, &rounds, traced_s);
        layer.insert("host.peak_rss_mb".into(), peak_rss_mb);
        let spans = ctx.take_spans().expect("the traced round records spans");
        let path =
            PathBuf::from(OUT_DIR).join(format!("{}-seed{}.trace.json", kind.name(), args.seed));
        let label = format!("noiselab-benchmark {} seed {}", kind.name(), args.seed);
        std::fs::write(&path, spans.chrome_json(&label))
            .or_else(|e| fail("trace.write", format!("{}: {e}", path.display())))?;
        trace_path = Value::Str(path.display().to_string());
        Some(
            layer
                .into_iter()
                .map(|(n, v)| {
                    let unit = unit_of(&n);
                    (n, v, unit)
                })
                .collect(),
        )
    } else {
        None
    };

    let samples = rounds
        .iter()
        .map(|r| {
            Value::Object(vec![
                ("wall_s".into(), Value::Float(r.wall_s)),
                ("cpu_s".into(), Value::Float(r.cpu_s)),
                ("idle_pct".into(), Value::Float(r.sample.idle_pct)),
                ("load1".into(), Value::Float(r.sample.load1)),
                ("probe_ms".into(), Value::Float(r.probe_ms)),
            ])
        })
        .collect();
    let [q1, q2, q3] = quartiles(&of(|r| r.wall_s));
    let context = Value::Object(vec![
        ("workload".into(), Value::Str(kind.name().into())),
        ("seed".into(), Value::UInt(args.seed as u128)),
        ("digest".into(), Value::Str(format!("{digest:016x}"))),
        ("attempted_setup".into(), Value::UInt(setup_ops as u128)),
        (
            "setup_raw_s".into(),
            Value::Array(setup_raw.into_iter().map(Value::Float).collect()),
        ),
        (
            "wall_raw_s_quartiles".into(),
            Value::Array([q1, q2, q3].into_iter().map(Value::Float).collect()),
        ),
        ("rounds".into(), Value::Array(samples)),
        ("trace".into(), trace_path),
        ("host".into(), host::context()),
    ]);
    Ok(Outcome {
        end_to_end,
        raw,
        per_layer,
        context,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("noiselab-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Before any thread exists: every simulation in this process and in
    // the CLI stages runs on at most two host threads.
    std::env::set_var("NOISELAB_HOST_THREADS", HOST_THREADS);
    let cli = std::env::current_exe()
        .map(|exe| exe.with_file_name("noiselab"))
        .unwrap_or_default();
    let work = PathBuf::from(OUT_DIR).join(format!(
        "work-{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let mut ctx = Ctx::new(cli.clone(), work.clone(), args.seed);
    let result = if cli.is_file() {
        bench(&args, &mut ctx)
    } else {
        fail(
            "setup.cli",
            format!(
                "no `noiselab` executable at {}; build it first",
                cli.display()
            ),
        )
    };
    match result {
        Ok(out) => {
            let _ = remove_path(&work);
            let lines = out.end_to_end.iter().chain(&out.raw);
            for (name, value, unit) in lines.chain(out.per_layer.iter().flatten()) {
                println!("{name} {value} {unit}");
            }
            println!("{}", serde::write_json(&out.context, false));
            let metrics = out.per_layer.unwrap_or(out.end_to_end);
            let metrics: Vec<Metric> = if args.trace {
                metrics
                    .into_iter()
                    .filter(|(n, _, _)| PER_LAYER.iter().any(|(p, _)| p == n))
                    .collect()
            } else {
                metrics
            };
            println!("{}", summary_json(true, ctx.ops(), 0, &metrics));
            ExitCode::SUCCESS
        }
        Err(f) => {
            eprintln!(
                "noiselab-benchmark: check failed: {}: {} (work directory kept: {})",
                f.check,
                f.detail,
                work.display()
            );
            println!("{}", summary_json(false, ctx.ops().max(1), 1, &[]));
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_use_the_allowed_charset() {
        let names = END_TO_END.iter().chain(PER_LAYER.iter()).map(|(n, _)| *n);
        let mut seen = std::collections::BTreeSet::new();
        for name in names {
            assert!(!name.is_empty() && name.len() <= 64, "{name}");
            assert!(
                name.chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(seen.insert(name), "{name} declared twice");
        }
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn quartiles_interpolate_between_ranks() {
        assert_eq!(quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]), [2.0, 3.0, 4.0]);
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), [1.75, 2.5, 3.25]);
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
    }

    #[test]
    fn digest_check_rejects_a_flipped_bit() {
        let d = 0x0123_4567_89ab_cdefu64;
        assert!(check_digest("t", d, d).is_ok());
        for bit in [0, 17, 63] {
            let err = check_digest("digest.pinned", d, d ^ (1 << bit)).unwrap_err();
            assert_eq!(err.check, "digest.pinned");
        }
    }

    #[test]
    fn summary_json_round_trips() {
        let metrics: Vec<Metric> = vec![
            ("wall_s".into(), 1.234_567_890_123_456_7, "s"),
            ("setup_s".into(), 0.1, "s"),
        ];
        let line = summary_json(true, 42, 0, &metrics);
        assert!(!line.contains('\n'));
        let v = serde::parse_json(&line).expect("valid JSON");
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(v.get("attempted"), Some(&Value::UInt(42)));
        let wall = v.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(
            wall.get("value"),
            Some(&Value::Float(1.234_567_890_123_456_7))
        );
        assert_eq!(wall.get("unit").and_then(Value::as_str), Some("s"));
    }

    #[test]
    fn args_need_every_flag_and_reject_unknown_ones() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload paper-pipeline --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Kind::PaperPipeline, 7, 20.0, true)
        );
        assert!(parse("--workload paper-pipeline --seed 7 --seconds 20").is_err());
        assert!(parse("--workload nope --seed 7 --seconds 20 --trace 0").is_err());
        assert!(parse("--workload omp-saturated --seed 7 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload omp-saturated --seed 7 --seconds 2 --trace 0 --x 1").is_err());
    }

    /// Runs per cell of the tiny omp-saturated round.
    const TINY: [usize; 3] = [1, 1, 1];

    #[test]
    fn tiny_omp_saturated_rounds_repeat_their_digest() {
        let cells = workloads::omp_saturated_cells(TINY);
        let mut ctx = Ctx::new(PathBuf::from("noiselab"), PathBuf::from("."), 1);
        let mut digests = Vec::new();
        for round in 0..2 {
            ctx.begin_round(round, None);
            workloads::run_cells(&mut ctx, &cells).expect("tiny round runs");
            digests.push(ctx.digest());
        }
        assert_eq!(digests[0], digests[1]);
        assert_ne!(digests[0], round::DIGEST_BASIS);
        assert_eq!(ctx.ops(), 2 * cells.len() as u64);
        assert_eq!(ctx.layer()["core.run_baseline.calls"], cells.len() as f64);
        ctx.begin_round(2, None);
        ctx.seed = 2;
        workloads::run_cells(&mut ctx, &cells).expect("tiny round runs");
        assert_ne!(ctx.digest(), digests[0], "the seed must move the inputs");
    }
}
