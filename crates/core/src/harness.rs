//! The experiment harness: run a workload under a platform and
//! execution configuration — baseline, traced, with noise injection, or
//! under a fault plan — and repeat across seeds (in parallel on host
//! threads; each simulated run stays fully deterministic in its own
//! kernel instance).
//!
//! A [`RunSpec`] names everything one run depends on; [`run`] executes
//! it once. [`run_batch`] executes several run sets — each a spec
//! repeated over consecutive seeds — in one pool of host threads, so a
//! small set never leaves a thread idle while another set has runs
//! left; [`run_many`] is its one-set case.
//!
//! Crash-proofing: a single run returns `Result<_, RunFailure>`
//! instead of panicking, the pool contains host panics with
//! `catch_unwind` so one bad run cannot poison a campaign, and the
//! [`RunLedger`] each set gets back records exactly which (seed, cause)
//! pairs produced no measurement.

use crate::execconfig::{ExecConfig, Model};
use crate::failure::{RetryPolicy, RunFailure};
use crate::platform::Platform;
use noiselab_injector::{spawn_injectors, InjectionConfig};
use noiselab_kernel::{
    FaultPlan, Kernel, KernelConfig, KernelStorage, RateCounts, RunError, SanitizerConfig,
    SanitizerReport,
};
use noiselab_noise::{
    install, OsNoiseTracer, RunTrace, TraceBuffer, TraceSet, DEFAULT_TRACE_CAPACITY,
};
use noiselab_runtime::{omp, sycl};
use noiselab_sim::{Rng, SimDuration, SimTime};
use noiselab_stats::Summary;
use noiselab_telemetry::{
    MetricsSnapshot, PhaseProfiler, Telemetry, TelemetryConfig, TelemetryReport,
};
use noiselab_workloads::Workload;
use std::panic::{catch_unwind, AssertUnwindSafe};
#[expect(
    clippy::disallowed_types,
    reason = "the run pool's work counter only decides which host thread takes a run; \
              results are stored by run index"
)]
use std::sync::atomic::{AtomicUsize, Ordering};

/// Virtual-time safety horizon per run.
const HORIZON: SimTime = SimTime(600 * noiselab_sim::NANOS_PER_SEC);

/// Stream constant separating the harness fault RNG from all other
/// per-seed streams (noise, jitter). Also used to mix the run seed into
/// the plan seed so the same plan fires on different runs of a campaign.
const FAULT_STREAM: u64 = 0x9E37_79B9_7F4A_7C15;

/// Outcome of a single run.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Workload execution time (spawn of the team to last worker exit).
    pub exec: SimDuration,
    /// The osnoise trace, when tracing was enabled.
    pub trace: Option<RunTrace>,
    /// Name of the natural anomaly active in this run, if any.
    pub anomaly: Option<String>,
    /// FNV-1a hash of the full dispatched event stream: the run's
    /// determinism fingerprint. Two runs of the same inputs must agree
    /// on it bit for bit (see `noiselab_kernel::sanitize`).
    pub stream_hash: u64,
    /// Per-run metrics snapshot, when telemetry was attached. Absent
    /// (not empty) on uninstrumented runs so existing consumers pay
    /// nothing.
    pub metrics: Option<MetricsSnapshot>,
}

/// Everything one run depends on. A run is a pure function of its spec:
/// the same spec dispatches a bit-identical event stream.
#[derive(Clone)]
pub struct RunSpec<'a> {
    pub platform: &'a Platform,
    pub workload: &'a (dyn Workload + Sync),
    pub cfg: &'a ExecConfig,
    /// Kernel configuration — ablations such as the eager-vs-tickless
    /// equivalence suite change it.
    pub kconfig: KernelConfig,
    /// The run's seed; [`run_many`] runs seeds `seed..seed + n_runs`.
    pub seed: u64,
    /// Attach the osnoise tracer and return its trace.
    pub tracing: bool,
    /// Replay this noise-injection config alongside the workload.
    pub inject: Option<&'a InjectionConfig>,
    /// Install this fault plan. The fault RNG is a separate stream
    /// derived from `plan.seed ^ f(seed)`, so `None` (or a no-op plan)
    /// leaves the run bit-identical to the unfaulted one, and the same
    /// (plan, seed) pair always fails the same way.
    pub faults: Option<&'a FaultPlan>,
    /// Event-stream sanitizer configuration. A pure observer unless
    /// `perturb_at` is armed, which deliberately forks the stream (see
    /// [`crate::divergence`]).
    pub sanitizer: SanitizerConfig,
    /// Attach a telemetry recorder (spans + metrics) with this
    /// configuration. Pure: `stream_hash` and `exec` are bit-identical
    /// with or without it (the purity suite proves it).
    pub telemetry: Option<TelemetryConfig>,
}

impl<'a> RunSpec<'a> {
    /// A plain run: default kernel, hash-only sanitizer, nothing else
    /// attached. Set the other fields with struct-update syntax.
    pub fn new(
        platform: &'a Platform,
        workload: &'a (dyn Workload + Sync),
        cfg: &'a ExecConfig,
        seed: u64,
    ) -> Self {
        RunSpec {
            platform,
            workload,
            cfg,
            kconfig: KernelConfig::default(),
            seed,
            tracing: false,
            inject: None,
            faults: None,
            sanitizer: SanitizerConfig::hash_only(),
            telemetry: None,
        }
    }
}

/// Everything a run hands back.
pub struct InstrumentedRun {
    pub output: RunOutput,
    pub sanitizer: SanitizerReport,
    /// Present when [`RunSpec::telemetry`] was set.
    pub telemetry: Option<TelemetryReport>,
    /// The rate layer's work counts for the run; no simulated value
    /// reads them.
    pub rates: RateCounts,
}

/// Reusable per-run state for repetition loops: the kernel's growable
/// buffers, the tracer ring, and the telemetry pipeline, all kept warm
/// between runs so back-to-back reps (overhead measurement, campaign
/// cells, the hot-path bench) stop paying allocation churn per run.
/// One arena serves one host thread; [`run_batch`] keeps one per worker.
/// Reuse is observationally pure: the arena conformance suite asserts
/// a run through a dirty arena is bit-identical (stream hash, metrics,
/// trace) to a run through a fresh one.
#[derive(Default)]
pub struct RunArena {
    kernel: KernelStorage,
    tracer: TraceBuffer,
    telemetry: Telemetry,
    /// Host-time phase profiler attached to every run through this
    /// arena. It lives here rather than on [`RunSpec`] because it is
    /// single-threaded (`Rc`) while a spec is shared across threads.
    profiler: Option<PhaseProfiler>,
}

impl RunArena {
    /// An arena whose runs attach `profiler` to the kernel and bracket
    /// the harness stats phase with it.
    pub fn profiled(profiler: PhaseProfiler) -> Self {
        RunArena {
            profiler: Some(profiler),
            ..RunArena::default()
        }
    }
}

/// Execute one run, drawing all per-run state from `arena`: sanitizer
/// always, tracer, injector, fault plan and telemetry as `spec` asks.
pub fn run(spec: &RunSpec, arena: &mut RunArena) -> Result<InstrumentedRun, RunFailure> {
    let RunSpec {
        platform,
        workload,
        cfg,
        seed,
        tracing,
        inject,
        faults,
        ..
    } = *spec;
    // SMT toggling (paper §5): rows without the SMT label run with SMT
    // disabled at firmware level, so the sibling hardware threads do not
    // exist — neither for the workload nor for noise to hide on.
    let mut machine = platform.machine.clone();
    if !cfg.smt && machine.smt > 1 {
        machine.smt = 1;
    }
    // DVFS governor cells: `Some(governor)` switches the frequency axis
    // on under that governor (keeping the platform's frequency/thermal
    // parameters when the platform already enables DVFS); `None` leaves
    // the platform untouched, so every existing cell stays bit-identical.
    if let Some(g) = cfg.governor {
        if machine.dvfs.enabled {
            machine.dvfs.governor = g;
        } else {
            machine.dvfs = noiselab_machine::DvfsConfig::enabled_default(g);
        }
    }
    // Per-run machine speed jitter (frequency/thermal/layout effects):
    // the mitigation-independent component of baseline variability.
    if platform.run_jitter_sd > 0.0 {
        let mut jrng = Rng::new(seed ^ 0x51E5_71FF_00AA_22EE);
        let f = (1.0 + jrng.normal(0.0, platform.run_jitter_sd)).clamp(0.9, 1.1);
        machine.perf.flops_per_ns *= f;
        machine.perf.per_core_bw *= f;
        machine.perf.socket_bw *= f;
    }
    let mut kernel = Kernel::new_in(
        machine.clone(),
        spec.kconfig.clone(),
        seed,
        &mut arena.kernel,
    );
    kernel.attach_sanitizer(spec.sanitizer);

    // Telemetry and profiling are write-only observers: attaching them
    // cannot perturb the simulation (the purity suite proves it).
    let telemetry = spec.telemetry.map(|tcfg| {
        arena.telemetry.reset(tcfg);
        arena.telemetry.clone()
    });
    if let Some(tele) = &telemetry {
        kernel.attach_observer(tele.observer());
    }
    if let Some(prof) = &arena.profiler {
        kernel.attach_host_profiler(prof.hook());
    }

    // Natural background noise; the anomaly dice use an independent
    // stream so they do not correlate with intra-run event jitter.
    let mut noise_rng = Rng::new(seed ^ 0xA5A5_5A5A_0F0F_F0F0);
    let installed = install(&mut kernel, &platform.noise, &mut noise_rng);

    let buffer = if tracing {
        // The retained ring may hold leftovers if the previous run
        // failed before its drain.
        arena.tracer.reset(DEFAULT_TRACE_CAPACITY);
        kernel.attach_tracer(Box::new(OsNoiseTracer::from_buffer(arena.tracer.clone())));
        Some(arena.tracer.clone())
    } else {
        None
    };

    // Fault injection shares no RNG state with the streams above: an
    // absent or no-op plan leaves the event sequence untouched.
    let mut fault_rng = faults.map(|plan| {
        let mut frng = Rng::new(plan.seed ^ seed.wrapping_mul(FAULT_STREAM));
        kernel.install_faults(plan, frng.fork(0));
        frng
    });

    let nthreads = cfg.nthreads(&machine);
    let affinities = cfg.affinities(&machine);

    let start_barrier = inject.map(|config| {
        let bar = kernel.new_barrier(config.lists.len() + nthreads);
        let _ = spawn_injectors(&mut kernel, config, bar);
        bar
    });

    let team = match cfg.model {
        Model::Omp => {
            let program = workload.omp_program(nthreads, cfg.schedule);
            let mut opts = omp::OmpLaunch::new(nthreads, affinities[0]);
            if affinities.len() > 1 {
                opts = omp::OmpLaunch::pinned(nthreads, affinities);
            }
            opts.start_barrier = start_barrier;
            omp::launch(&mut kernel, program, opts)
        }
        Model::Sycl => {
            let program = workload.sycl_program(nthreads);
            let mut opts = sycl::SyclLaunch::new(nthreads, affinities[0]);
            if affinities.len() > 1 {
                opts = sycl::SyclLaunch::pinned(nthreads, affinities);
            }
            opts.start_barrier = start_barrier;
            sycl::launch(&mut kernel, program, opts)
        }
    };

    // Thread-abort faults need the spawned team: draw the victim and
    // abort time now, from the same fault stream (fork keeps the draw
    // independent of how many spurious-IRQ draws the install consumed).
    if let (Some(frng), Some(plan)) = (fault_rng.as_mut(), faults) {
        if let Some(ab) = &plan.abort {
            let mut arng = frng.fork(1);
            if ab.prob > 0.0 && arng.chance(ab.prob) && !team.workers.is_empty() {
                let victim = team.workers[arng.index(team.workers.len())];
                let lo = ab.window.0.nanos();
                let hi = ab.window.1.nanos().max(lo + 1);
                let at = SimTime(lo + arng.below(hi - lo));
                kernel.schedule_abort(victim, at);
            }
        }
    }

    let mut end = SimTime::ZERO;
    let mut failure: Option<RunFailure> = None;
    for w in &team.workers {
        match kernel.run_until_exit(*w, HORIZON) {
            Ok(t) => end = end.max(t),
            Err(RunError::Horizon(_)) => {
                failure = Some(RunFailure::Horizon {
                    limit_secs: HORIZON.0 as f64 / noiselab_sim::NANOS_PER_SEC as f64,
                });
                break;
            }
            Err(RunError::Drained) => {
                failure = Some(RunFailure::Deadlock);
                break;
            }
        }
    }
    // An aborted workload thread invalidates the measurement even when
    // every surviving worker ran to completion, and it is the root cause
    // behind any Drained/Horizon error its blocked peers produced.
    if let Some(&tid) = kernel.aborted_threads().first() {
        let thread = kernel.thread(tid).name.clone();
        kernel.retire(&mut arena.kernel);
        return Err(RunFailure::WorkloadAborted { thread });
    }
    if let Some(f) = failure {
        kernel.retire(&mut arena.kernel);
        return Err(f);
    }
    let exec = end.since(SimTime::ZERO);

    // Post-run bookkeeping is the harness's "stats" phase in the
    // host-time profile.
    if let Some(prof) = &arena.profiler {
        prof.enter(noiselab_kernel::Phase::Stats);
    }
    let trace = buffer.map(|b| {
        kernel.detach_tracer();
        // Surface the tracer's ring-buffer accounting through the
        // metrics registry before the drain resets it.
        if let Some(tele) = &telemetry {
            tele.counter_add("trace.emitted", b.emitted());
            tele.counter_add("trace.dropped", b.dropped());
        }
        let tr = b.take_trace(0, exec);
        if let Some(tele) = &telemetry {
            if tr.degraded {
                tele.counter_add("trace.degraded_runs", 1);
            }
        }
        tr
    });

    let report = kernel
        .take_sanitizer_report()
        .expect("sanitizer attached at kernel construction");
    let rates = kernel.rate_counts();
    // The sanitizer folds every dispatched event, so its count is the
    // telemetry's `kernel.events`.
    let tele_report = telemetry.map(|tele| {
        tele.counter_add("kernel.events", report.events);
        tele.take_report(end)
    });
    kernel.retire(&mut arena.kernel);
    if let Some(prof) = &arena.profiler {
        prof.exit(noiselab_kernel::Phase::Stats);
    }
    Ok(InstrumentedRun {
        output: RunOutput {
            exec,
            trace,
            anomaly: installed.anomaly,
            stream_hash: report.hash,
            metrics: tele_report.as_ref().map(|r| r.metrics.clone()),
        },
        sanitizer: report,
        telemetry: tele_report,
        rates,
    })
}

/// One row of a [`RunLedger`]: the original seed, how many attempts were
/// consumed (1 = no retry), and the final outcome.
#[derive(Debug, Clone)]
pub struct RunRecord {
    pub seed: u64,
    pub attempts: u32,
    pub result: Result<RunOutput, RunFailure>,
}

/// Per-run results of a multi-run campaign stage, ordered by seed.
/// Failed runs stay in the ledger as typed causes instead of aborting
/// the stage.
#[derive(Debug, Clone, Default)]
pub struct RunLedger {
    pub records: Vec<RunRecord>,
}

impl RunLedger {
    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Successful outputs, in seed order.
    pub fn outputs(&self) -> impl Iterator<Item = &RunOutput> {
        self.records.iter().filter_map(|r| r.result.as_ref().ok())
    }

    /// Execution times (seconds) of the successful runs.
    pub fn samples(&self) -> Vec<f64> {
        self.outputs().map(|o| o.exec.as_secs_f64()).collect()
    }

    /// The (seed, cause) pairs that produced no measurement.
    pub fn failures(&self) -> Vec<(u64, RunFailure)> {
        self.records
            .iter()
            .filter_map(|r| r.result.as_ref().err().map(|f| (r.seed, f.clone())))
            .collect()
    }

    pub fn ok_count(&self) -> usize {
        self.records.iter().filter(|r| r.result.is_ok()).count()
    }

    /// Determinism fingerprint of the whole ledger: FNV-1a over every
    /// record's (seed, attempts, outcome) — the per-run event-stream
    /// hash for successes, the cause string for failures. Two ledgers
    /// of the same inputs must agree bit for bit; the campaign driver
    /// checkpoints this and re-verifies it on resume.
    pub fn stream_hash(&self) -> u64 {
        use noiselab_kernel::sanitize::fnv1a_extend;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for r in &self.records {
            h = fnv1a_extend(h, &r.seed.to_le_bytes());
            h = fnv1a_extend(h, &r.attempts.to_le_bytes());
            match &r.result {
                Ok(o) => h = fnv1a_extend(h, &o.stream_hash.to_le_bytes()),
                Err(f) => h = fnv1a_extend(h, f.cause().as_bytes()),
            }
        }
        h
    }

    pub fn failed_count(&self) -> usize {
        self.records.len() - self.ok_count()
    }
}

/// Most host threads one run pool uses: the `NOISELAB_HOST_THREADS` env
/// var when set to a positive integer, else the detected host
/// parallelism, else a documented fallback of 4. Malformed values are
/// ignored with a note on stderr rather than silently coerced.
#[expect(
    clippy::disallowed_methods,
    reason = "the run pool's width, from NOISELAB_HOST_THREADS or the host's parallelism, \
              only decides which host thread runs a run, never its result"
)]
fn host_threads() -> usize {
    if let Ok(v) = std::env::var("NOISELAB_HOST_THREADS") {
        match parse_host_threads(&v) {
            Some(n) => return n,
            None => eprintln!(
                "noiselab: ignoring malformed NOISELAB_HOST_THREADS={v:?} \
                 (want a positive integer); auto-detecting"
            ),
        }
    }
    match std::thread::available_parallelism() {
        Ok(n) => n.get(),
        Err(e) => {
            eprintln!("noiselab: available_parallelism failed ({e}); using 4 host threads");
            4
        }
    }
}

/// Parse a `NOISELAB_HOST_THREADS` value: a positive integer,
/// surrounding whitespace allowed; `None` for anything else.
fn parse_host_threads(v: &str) -> Option<usize> {
    v.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `spec` at `seed`, retrying a failed attempt up to
/// `retry.max_retries` times with [`RetryPolicy::reseed`]. Host panics
/// inside an attempt are caught and recorded as [`RunFailure::Panic`].
fn run_with_retry(
    spec: &RunSpec,
    seed: u64,
    retry: RetryPolicy,
    arena: &mut RunArena,
) -> RunRecord {
    let mut attempt = RunSpec {
        seed,
        ..spec.clone()
    };
    let mut attempt_run = |attempt: &RunSpec| -> Result<RunOutput, RunFailure> {
        catch_unwind(AssertUnwindSafe(|| run(attempt, arena).map(|r| r.output))).unwrap_or_else(
            |payload| {
                Err(RunFailure::Panic {
                    message: panic_message(payload),
                })
            },
        )
    };
    let mut attempts = 1u32;
    let mut result = attempt_run(&attempt);
    while result.is_err() && attempts <= retry.max_retries {
        let reseed = RetryPolicy::reseed(seed, attempts);
        eprintln!(
            "noiselab: run seed {seed} failed ({}); retry {attempts}/{} \
             with seed {reseed}",
            result.as_ref().err().map(|f| f.cause()).unwrap_or("?"),
            retry.max_retries
        );
        attempt.seed = reseed;
        result = attempt_run(&attempt);
        attempts += 1;
    }
    RunRecord {
        seed,
        attempts,
        result,
    }
}

/// Execute several independent run sets in one host-thread pool. Job
/// `(spec, n)` runs seeds `spec.seed..spec.seed + n`; the result holds
/// one [`RunLedger`] per job, in job order, each ordered by seed and
/// equal to what [`run_many`] returns for that job alone. Host panics
/// inside a run are caught per run and recorded as
/// [`RunFailure::Panic`], so failed runs appear in the ledger instead
/// of panicking the harness; a retried run re-executes with
/// [`RetryPolicy::reseed`] so every ledger is a pure function of its
/// inputs.
pub fn run_batch(jobs: &[(&RunSpec, usize)], retry: RetryPolicy) -> Vec<RunLedger> {
    // The runs of all jobs form one index space; job j owns indices
    // `starts[j]..starts[j] + n_j`.
    let starts: Vec<usize> = jobs
        .iter()
        .scan(0, |next, &(_, n)| {
            let start = *next;
            *next += n;
            Some(start)
        })
        .collect();
    let total: usize = jobs.iter().map(|&(_, n)| n).sum();
    // The job owning global index `g`: the last one starting at or
    // before it (an empty job shares its start with the next one).
    let locate = |g: usize| -> (usize, u64) {
        let j = starts.partition_point(|&s| s <= g) - 1;
        let offset = (g - starts[j]) as u64;
        let seed = jobs[j].0.seed.checked_add(offset);
        let seed = seed.expect("run seeds overflow u64; callers refuse such a --seed");
        (j, seed)
    };
    let mut results: Vec<Option<RunRecord>> = Vec::new();
    results.resize_with(total, || None);

    // Host threads claim run indices one at a time from a shared
    // counter over every job, so a slow run (an anomaly, a retry)
    // delays only the thread running it, and no thread idles while any
    // job has runs left. Each run is a pure function of its spec and
    // seed, so which thread runs it, and which arena it reuses, does
    // not matter; records come back tagged by index and land in seed
    // order below.
    let next = AtomicUsize::new(0);
    let (next, locate) = (&next, &locate);
    #[expect(
        clippy::disallowed_methods,
        reason = "the run pool: each run stays a pure function of its spec and seed"
    )]
    let claimed: Vec<Vec<(usize, RunRecord)>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..host_threads().min(total))
            .map(|_| {
                scope.spawn(move || {
                    // One arena per worker: its runs recycle the same
                    // kernel/tracer/telemetry buffers, across jobs too.
                    let mut arena = RunArena::default();
                    let mut out = Vec::new();
                    loop {
                        let g = next.fetch_add(1, Ordering::SeqCst);
                        if g >= total {
                            break out;
                        }
                        let (j, seed) = locate(g);
                        out.push((g, run_with_retry(jobs[j].0, seed, retry, &mut arena)));
                    }
                })
            })
            .collect();
        // A worker can only die outside the per-run `catch_unwind`;
        // re-raise that, as an unjoined scope would.
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    for (g, record) in claimed.into_iter().flatten() {
        results[g] = Some(record);
    }

    // Every claimed index gets a record above; an empty slot can only
    // mean a harness bug, which we record instead of unwrapping so the
    // rest of the campaign's results survive.
    let mut slots = results.into_iter().enumerate();
    jobs.iter()
        .map(|&(_, n)| {
            let records = slots
                .by_ref()
                .take(n)
                .map(|(g, r)| {
                    r.unwrap_or_else(|| {
                        let seed = locate(g).1;
                        eprintln!(
                            "noiselab: internal error: no result recorded for seed {seed}; \
                             counting it as a failed run"
                        );
                        RunRecord {
                            seed,
                            attempts: 0,
                            result: Err(RunFailure::Panic {
                                message: "host thread produced no result".into(),
                            }),
                        }
                    })
                })
                .collect();
            RunLedger { records }
        })
        .collect()
}

/// Whether the `n` seeds `seed..seed + n` all fit u64: the last one
/// does not wrap.
pub fn seeds_fit(seed: u64, n: u64) -> bool {
    seed.checked_add(n.saturating_sub(1)).is_some()
}

/// Execute `n_runs` runs of `spec` with seeds `spec.seed..spec.seed +
/// n_runs`, parallelised over host threads: the one-job
/// [`run_batch`].
pub fn run_many(spec: &RunSpec, n_runs: usize, retry: RetryPolicy) -> RunLedger {
    run_batch(&[(spec, n_runs)], retry)
        .pop()
        .unwrap_or_default()
}

/// `Err` naming `stage`, the workload and the config when no run in
/// `ledger`, the runs of `spec`, produced a measurement: the stage then
/// has nothing to report.
pub fn measured(stage: &str, spec: &RunSpec, ledger: &RunLedger) -> Result<(), String> {
    if ledger.ok_count() > 0 {
        return Ok(());
    }
    Err(format!(
        "{stage} {}/{}: all {} runs failed: {:?}",
        spec.workload.name(),
        spec.cfg.label(),
        ledger.len(),
        ledger.failures()
    ))
}

/// Summary and failures of one stage's ledger. Panics only if *every*
/// run failed.
fn summarize(stage: &str, spec: &RunSpec, ledger: &RunLedger) -> (Summary, Vec<(u64, RunFailure)>) {
    if let Err(e) = measured(stage, spec, ledger) {
        panic!("{e}");
    }
    (Summary::of(&ledger.samples()), ledger.failures())
}

/// Baseline measurement of one configuration.
#[derive(Debug, Clone)]
pub struct Baseline {
    pub summary: Summary,
    pub traces: TraceSet,
    /// Indices of runs with an active natural anomaly.
    pub anomaly_runs: Vec<usize>,
    /// Seeds (with causes) that produced no measurement.
    pub failures: Vec<(u64, RunFailure)>,
}

impl Baseline {
    /// The baseline stage's result from the ledger of `spec`'s runs.
    /// Panics only if every run failed.
    pub fn from_ledger(spec: &RunSpec, ledger: RunLedger) -> Baseline {
        let (summary, failures) = summarize("baseline", spec, &ledger);
        let mut traces = TraceSet::default();
        let mut anomaly_runs = Vec::new();
        for (i, record) in ledger.records.into_iter().enumerate() {
            let Ok(o) = record.result else { continue };
            if o.anomaly.is_some() {
                anomaly_runs.push(i);
            }
            if let Some(mut t) = o.trace {
                t.run_index = i;
                traces.runs.push(t);
            }
        }
        Baseline {
            summary,
            traces,
            anomaly_runs,
            failures,
        }
    }
}

/// Run the baseline (optionally traced) stage of the pipeline. Panics
/// only if *every* run failed (there is no baseline to report).
pub fn run_baseline(
    platform: &Platform,
    workload: &(dyn Workload + Sync),
    cfg: &ExecConfig,
    n_runs: usize,
    seed_base: u64,
    tracing: bool,
) -> Baseline {
    let spec = RunSpec {
        tracing,
        ..RunSpec::new(platform, workload, cfg, seed_base)
    };
    Baseline::from_ledger(&spec, run_many(&spec, n_runs, RetryPolicy::none()))
}

/// Result of the injection stage: the replayed-noise summary plus the
/// runs that produced no measurement.
#[derive(Debug, Clone)]
pub struct Injected {
    pub summary: Summary,
    pub failures: Vec<(u64, RunFailure)>,
}

impl Injected {
    /// The injection stage's result from the ledger of `spec`'s runs.
    /// Panics only if every run failed.
    pub fn from_ledger(spec: &RunSpec, ledger: RunLedger) -> Injected {
        let (summary, failures) = summarize("injected", spec, &ledger);
        Injected { summary, failures }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execconfig::Mitigation;
    use noiselab_workloads::NBody;

    // Small but long enough (several ms) to span multiple timer ticks.
    fn tiny_nbody() -> NBody {
        NBody {
            bodies: 4_096,
            steps: 3,
            sycl_kernel_efficiency: 1.3,
        }
    }

    fn run_once(spec: &RunSpec) -> RunOutput {
        run(spec, &mut RunArena::default()).unwrap().output
    }

    #[test]
    fn run_once_is_deterministic() {
        let p = Platform::intel();
        let w = tiny_nbody();
        let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm);
        let a = run_once(&RunSpec::new(&p, &w, &cfg, 42));
        let b = run_once(&RunSpec::new(&p, &w, &cfg, 42));
        assert_eq!(a.exec, b.exec);
        assert_eq!(
            a.stream_hash, b.stream_hash,
            "same seed must dispatch a bit-identical event stream"
        );
        let c = run_once(&RunSpec::new(&p, &w, &cfg, 43));
        assert_ne!(
            a.exec, c.exec,
            "different seeds should give different noise"
        );
        assert_ne!(a.stream_hash, c.stream_hash);
    }

    /// One FIFO noise event on CPU 1, early in the run.
    fn tiny_injection() -> InjectionConfig {
        use noiselab_injector::{CpuNoiseList, InjectPolicy, NoiseEventSpec};
        InjectionConfig {
            lists: vec![CpuNoiseList {
                cpu: noiselab_machine::CpuId(1),
                events: vec![NoiseEventSpec {
                    start: SimTime(200_000),
                    duration: SimDuration::from_micros(300),
                    policy: InjectPolicy::Fifo,
                    source: "irq/test".into(),
                }],
            }],
            ..InjectionConfig::default()
        }
    }

    #[test]
    fn run_many_matches_run_once() {
        let p = Platform::intel();
        let w = tiny_nbody();
        let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm);
        let noop = FaultPlan {
            seed: 999,
            ..FaultPlan::default()
        };
        let inject = tiny_injection();
        let plain = RunSpec::new(&p, &w, &cfg, 100);
        let specs = [
            ("plain", plain.clone()),
            (
                "traced",
                RunSpec {
                    tracing: true,
                    ..plain.clone()
                },
            ),
            (
                "noop-faults",
                RunSpec {
                    faults: Some(&noop),
                    ..plain.clone()
                },
            ),
            (
                "injected",
                RunSpec {
                    inject: Some(&inject),
                    ..plain.clone()
                },
            ),
            (
                "metrics",
                RunSpec {
                    telemetry: Some(TelemetryConfig::metrics_only()),
                    ..plain.clone()
                },
            ),
        ];
        let plain_ledger = run_many(&plain, 4, RetryPolicy::none());
        for (name, spec) in &specs {
            let many = run_many(spec, 4, RetryPolicy::none());
            assert_eq!(many.failed_count(), 0, "{name}");
            for (i, record) in many.records.iter().enumerate() {
                let seed = 100 + i as u64;
                assert_eq!((record.seed, record.attempts), (seed, 1), "{name}");
                let out = record.result.as_ref().unwrap();
                let single = run_once(&RunSpec {
                    seed,
                    ..spec.clone()
                });
                assert_eq!(out.exec, single.exec, "{name}: run {i} differs");
                assert_eq!(out.stream_hash, single.stream_hash, "{name}: run {i}");
                assert_eq!(out.metrics, single.metrics, "{name}: run {i}");
                assert_eq!(out.metrics.is_some(), *name == "metrics", "{name}");
                if *name == "noop-faults" {
                    let bare = plain_ledger.records[i].result.as_ref().unwrap();
                    assert_eq!(
                        (out.exec, out.stream_hash),
                        (bare.exec, bare.stream_hash),
                        "no-op plan must not perturb run {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn run_batch_matches_run_many_per_job() {
        use noiselab_kernel::ThreadAbortSpec;
        let p = Platform::intel();
        let w = tiny_nbody();
        let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm);
        let inject = tiny_injection();
        // Aborts a worker in most runs, so the retry loop runs and some
        // seeds may exhaust their retries.
        let abort = FaultPlan {
            seed: 5,
            abort: Some(ThreadAbortSpec {
                prob: 0.7,
                window: (SimDuration::ZERO, SimDuration::from_millis(2)),
            }),
            ..FaultPlan::default()
        };
        let plain = RunSpec::new(&p, &w, &cfg, 100);
        let injected = RunSpec {
            inject: Some(&inject),
            ..RunSpec::new(&p, &w, &cfg, 300)
        };
        let faulted = RunSpec {
            faults: Some(&abort),
            ..RunSpec::new(&p, &w, &cfg, 500)
        };
        let jobs = [
            (&plain, 3),
            (&injected, 0),
            (&faulted, 3),
            (&injected, 1),
            (&plain, 1),
            (&faulted, 0),
            (&injected, 3),
            (&faulted, 1),
        ];
        let retry = RetryPolicy::retries(2);
        let batched = run_batch(&jobs, retry);
        assert_eq!(batched.len(), jobs.len());
        let mut retried = false;
        for (j, (&(spec, n), got)) in jobs.iter().zip(&batched).enumerate() {
            let want = run_many(spec, n, retry);
            assert_eq!((got.len(), want.len()), (n, n), "job {j}");
            assert_eq!(got.stream_hash(), want.stream_hash(), "job {j}");
            for (a, b) in got.records.iter().zip(&want.records) {
                assert_eq!((a.seed, a.attempts), (b.seed, b.attempts), "job {j}");
                match (&a.result, &b.result) {
                    (Ok(x), Ok(y)) => {
                        assert_eq!((x.exec, x.stream_hash), (y.exec, y.stream_hash), "job {j}");
                        assert_eq!(x.anomaly, y.anomaly, "job {j}");
                    }
                    (Err(x), Err(y)) => assert_eq!(x, y, "job {j}"),
                    _ => panic!("job {j}: seed {} outcome differs", a.seed),
                }
                retried |= a.attempts > 1;
            }
        }
        assert!(retried, "the faulted jobs must exercise the retry loop");
    }

    #[test]
    fn batched_inject_halves_match_separate_stages() {
        let p = Platform::intel();
        let w = tiny_nbody();
        let cfg = ExecConfig::new(Model::Sycl, Mitigation::Rm);
        let inject = tiny_injection();
        let base_spec = RunSpec::new(&p, &w, &cfg, 10_007);
        let inj_spec = RunSpec {
            inject: Some(&inject),
            ..RunSpec::new(&p, &w, &cfg, 7)
        };
        let [base, inj]: [RunLedger; 2] =
            run_batch(&[(&base_spec, 3), (&inj_spec, 3)], RetryPolicy::none())
                .try_into()
                .expect("one ledger per job");
        let base = Baseline::from_ledger(&base_spec, base);
        let inj = Injected::from_ledger(&inj_spec, inj);
        let want_base = run_baseline(&p, &w, &cfg, 3, 10_007, false);
        let want_inj =
            Injected::from_ledger(&inj_spec, run_many(&inj_spec, 3, RetryPolicy::none()));
        assert_eq!(base.summary, want_base.summary);
        assert_eq!(base.failures, want_base.failures);
        assert_eq!(base.anomaly_runs, want_base.anomaly_runs);
        assert_eq!(inj.summary, want_inj.summary);
        assert_eq!(inj.failures, want_inj.failures);
        assert_ne!(
            base.summary, inj.summary,
            "the halves run different specs and seeds"
        );
    }

    #[test]
    fn tracing_produces_traces() {
        let p = Platform::intel();
        let w = tiny_nbody();
        let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm);
        let base = run_baseline(&p, &w, &cfg, 3, 7, true);
        assert_eq!(base.traces.runs.len(), 3);
        assert!(base.failures.is_empty());
        for (i, t) in base.traces.runs.iter().enumerate() {
            assert_eq!(t.run_index, i);
            assert!(!t.events.is_empty(), "trace {i} has no events");
            assert!(t.exec_time > SimDuration::ZERO);
        }
    }

    #[test]
    fn sycl_slower_than_omp_raw() {
        let p = Platform::intel();
        let w = tiny_nbody();
        let omp_cfg = ExecConfig::new(Model::Omp, Mitigation::Rm);
        let sycl_cfg = ExecConfig::new(Model::Sycl, Mitigation::Rm);
        let omp = run_once(&RunSpec::new(&p, &w, &omp_cfg, 1));
        let sycl = run_once(&RunSpec::new(&p, &w, &sycl_cfg, 1));
        assert!(
            sycl.exec.nanos() as f64 > omp.exec.nanos() as f64 * 1.1,
            "sycl {} vs omp {}",
            sycl.exec,
            omp.exec
        );
    }

    #[test]
    fn governor_cells_change_the_run_and_stay_deterministic() {
        use noiselab_machine::Governor;
        let p = Platform::intel();
        let w = tiny_nbody();
        let base = ExecConfig::new(Model::Omp, Mitigation::Tp);
        let perf = base.clone().with_governor(Governor::Performance);
        let plain = run_once(&RunSpec::new(&p, &w, &base, 5));
        let a = run_once(&RunSpec::new(&p, &w, &perf, 5));
        let b = run_once(&RunSpec::new(&p, &w, &perf, 5));
        assert_eq!(a.stream_hash, b.stream_hash, "governor cells must replay");
        assert_eq!(a.exec, b.exec);
        assert_ne!(
            a.stream_hash, plain.stream_hash,
            "enabling DVFS must change the dispatched stream"
        );
        // Powersave holds every CPU at the floor frequency: the same
        // workload must take visibly longer than under Performance.
        let save = base.clone().with_governor(Governor::Powersave);
        let slow = run_once(&RunSpec::new(&p, &w, &save, 5));
        assert!(
            slow.exec > a.exec,
            "powersave {} should be slower than performance {}",
            slow.exec,
            a.exec
        );
    }

    #[test]
    fn host_threads_env_override_is_validated() {
        // The parser alone: setting the variable here would race with
        // sibling tests whose `run_many` reads it.
        assert_eq!(parse_host_threads("3"), Some(3));
        assert_eq!(parse_host_threads(" 12\n"), Some(12));
        for bad in ["zero", "0", "", "-1", "2.5", "3 threads"] {
            assert_eq!(parse_host_threads(bad), None, "{bad:?} must be refused");
        }
    }
}
