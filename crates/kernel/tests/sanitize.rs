//! Event-stream sanitizer integration: the running hash is a stable
//! fingerprint of a run (same seed → same hash, different seed →
//! different hash), attaching one is observation-free, and the chaos
//! hook verifiably forks the stream.

use noiselab_kernel::{
    Action, Kernel, KernelConfig, SanitizerConfig, SanitizerReport, ScriptBehavior, ThreadKind,
    ThreadSpec,
};
use noiselab_machine::{Machine, WorkUnit};
use noiselab_sim::{SimDuration, SimTime};

/// Barrier-synchronised iteration script: `rounds` rounds of compute +
/// sleep with a barrier each round, so the event stream interleaves
/// wakes, compute completions, spins, ticks and barrier releases.
fn script(bar: noiselab_kernel::BarrierId, rounds: usize, flops: f64) -> Vec<Action> {
    let mut v = Vec::new();
    for _ in 0..rounds {
        v.push(Action::Compute(WorkUnit::compute(flops)));
        v.push(Action::SleepFor(SimDuration::from_micros(150)));
        v.push(Action::Barrier {
            id: bar,
            spin: SimDuration::from_micros(50),
        });
    }
    v
}

/// A two-thread scenario run to completion with the given sanitizer
/// config. Returns the exit time and the sanitizer report.
fn run(seed: u64, config: SanitizerConfig) -> (SimTime, SanitizerReport) {
    let mut k = Kernel::new(Machine::intel_9700kf(), KernelConfig::default(), seed);
    k.attach_sanitizer(config);
    let bar = k.new_barrier(2);
    let _helper = k.spawn(
        ThreadSpec::new("helper", ThreadKind::Workload),
        Box::new(ScriptBehavior::new(script(bar, 20, 2.0e7))),
    );
    let main = k.spawn(
        ThreadSpec::new("main", ThreadKind::Workload),
        Box::new(ScriptBehavior::new(script(bar, 20, 3.0e7))),
    );
    let end = k
        .run_until_exit(main, SimTime::from_secs_f64(1.0))
        .expect("scenario must finish");
    let report = k.take_sanitizer_report().expect("sanitizer was attached");
    (end, report)
}

#[test]
fn same_seed_same_hash_different_seed_different_hash() {
    let (end_a, rep_a) = run(7, SanitizerConfig::hash_only());
    let (end_b, rep_b) = run(7, SanitizerConfig::hash_only());
    let (_, rep_c) = run(8, SanitizerConfig::hash_only());
    assert_eq!(end_a, end_b);
    assert_eq!(rep_a.hash, rep_b.hash);
    assert_eq!(rep_a.events, rep_b.events);
    assert!(
        rep_a.events > 10,
        "scenario dispatched {} events",
        rep_a.events
    );
    assert_ne!(rep_a.hash, rep_c.hash, "seeds 7 and 8 collided");
}

#[test]
fn sanitizer_is_a_pure_observer() {
    // Same run without any sanitizer: identical exit time.
    let mut k = Kernel::new(Machine::intel_9700kf(), KernelConfig::default(), 7);
    let bar = k.new_barrier(2);
    k.spawn(
        ThreadSpec::new("helper", ThreadKind::Workload),
        Box::new(ScriptBehavior::new(script(bar, 20, 2.0e7))),
    );
    let main = k.spawn(
        ThreadSpec::new("main", ThreadKind::Workload),
        Box::new(ScriptBehavior::new(script(bar, 20, 3.0e7))),
    );
    let bare = k.run_until_exit(main, SimTime::from_secs_f64(1.0)).unwrap();
    let (sanitized, _) = run(7, SanitizerConfig::hash_only());
    assert_eq!(bare, sanitized);
}

#[test]
fn checkpoints_prefix_match_between_identical_runs() {
    let (_, a) = run(7, SanitizerConfig::with_cadence(16));
    let (_, b) = run(7, SanitizerConfig::with_cadence(16));
    assert!(!a.checkpoints.is_empty());
    assert_eq!(a.checkpoints, b.checkpoints);
}

#[test]
fn perturbation_forks_the_stream_at_its_index() {
    let cadence = 8u64;
    let (_, clean) = run(7, SanitizerConfig::with_cadence(cadence));
    let perturb_at = 20u64;
    let (_, forked) = run(
        7,
        SanitizerConfig {
            cadence,
            window: None,
            perturb_at: Some(perturb_at),
        },
    );
    assert_ne!(
        clean.hash, forked.hash,
        "perturbation did not change the stream"
    );
    // Checkpoints up to and including the perturbation index still
    // match (the synthetic IRQ is scheduled *after* event #20 is
    // folded); some later checkpoint must diverge.
    let mut diverged = None;
    for (i, (c, f)) in clean
        .checkpoints
        .iter()
        .zip(&forked.checkpoints)
        .enumerate()
    {
        if c.index <= perturb_at {
            assert_eq!(c, f, "checkpoint {i} diverged before the perturbation");
        } else if c.hash != f.hash {
            diverged = Some(c.index);
            break;
        }
    }
    let first_bad = diverged.expect("no checkpoint diverged after the perturbation");
    assert!(first_bad > perturb_at);
}

#[test]
fn window_log_names_the_injected_event() {
    // Log a window around the perturbation; the synthetic IRQ must
    // appear in it with its marker source.
    let perturb_at = 20u64;
    let (_, rep) = run(
        7,
        SanitizerConfig {
            cadence: 0,
            window: Some((perturb_at, perturb_at + 16)),
            perturb_at: Some(perturb_at),
        },
    );
    assert!(
        rep.log.iter().any(|e| e.kind.contains("sanitizer:perturb")),
        "window log does not contain the injected IRQ: {:?}",
        rep.log.iter().map(|e| e.render()).collect::<Vec<_>>()
    );
}

/// A waiter that a notify schedules a delayed wake-up for and a direct
/// `Wake` then releases early: its next sleep re-arms the wake-up timer
/// while the first one is still pending. That first timer must stay
/// live, fire on its own, and, once fired, leave the newer timer
/// uncancellable, exactly as the token-based queue behaved. The
/// scenario's stream hash and end time are pinned.
///
/// The stale timer is a kernel defect: `Action::Wake` on a blocked
/// thread does not cancel the wake-up timer `resume_waiter` armed for
/// it. No pinned stream hash or benchmark digest reaches the queue's
/// demotion path; this scenario does (ROADMAP.md, "Stale wake
/// timers").
#[test]
fn rearmed_pending_wake_timer_keeps_its_pinned_stream() {
    let mut k = Kernel::new(Machine::intel_9700kf(), KernelConfig::default(), 3);
    k.attach_sanitizer(SanitizerConfig::hash_only());
    let wq = k.new_waitq();
    let waiter = k.spawn(
        ThreadSpec::new("waiter", ThreadKind::Workload),
        Box::new(ScriptBehavior::new(vec![
            Action::WaitOn {
                wq,
                spin: SimDuration::ZERO,
            },
            Action::SleepFor(SimDuration::from_micros(200)),
            Action::Compute(WorkUnit::compute(2.0e6)),
            Action::SleepFor(SimDuration::from_micros(300)),
            Action::Compute(WorkUnit::compute(2.0e6)),
        ])),
    );
    let waker = k.spawn(
        ThreadSpec::new("waker", ThreadKind::Workload),
        Box::new(ScriptBehavior::new(vec![
            Action::Compute(WorkUnit::compute(1.0e5)),
            Action::Notify { wq, count: 1 },
            Action::Wake(waiter),
            Action::SleepFor(SimDuration::from_micros(20)),
            Action::Wake(waiter),
            Action::SleepFor(SimDuration::from_micros(400)),
            Action::Wake(waiter),
            Action::SleepFor(SimDuration::from_micros(100)),
            Action::Wake(waiter),
        ])),
    );
    let end = k
        .run_until_exit(waiter, SimTime::from_secs_f64(1.0))
        .expect("scenario must finish");
    k.run_until_exit(waker, SimTime::from_secs_f64(1.0))
        .expect("waker must finish");
    let report = k.take_sanitizer_report().expect("sanitizer was attached");
    // Stale timer fires and the waker's direct wakes cut both sleeps
    // short, hence the early exit.
    assert_eq!(end, SimTime(276_001));
    assert_eq!(report.events, 12);
    assert_eq!(report.hash, 0x77f0_9cc9_0d45_3b5e);
}
