//! Criterion micro-benchmarks of the simulation substrate itself:
//! event-queue throughput, a full scheduler-saturated kernel run, and
//! one end-to-end workload run. These track the simulator's own
//! performance (the experiments above run hundreds of thousands of
//! simulated seconds).

use criterion::{criterion_group, criterion_main, Criterion};
use noiselab_core::{run, ExecConfig, Mitigation, Model, Platform, RunArena, RunSpec};
use noiselab_kernel::{Action, Kernel, KernelConfig, ScriptBehavior, ThreadKind, ThreadSpec};
use noiselab_machine::{Machine, WorkUnit};
use noiselab_sim::{EventQueue, Fired, SimDuration, SimTime};
use noiselab_workloads::NBody;

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                q.schedule(SimTime(i * 7 % 9_999), i);
            }
            let mut acc = 0u64;
            while let Some((_, Fired::Event(v))) = q.pop() {
                acc = acc.wrapping_add(v);
            }
            acc
        })
    });

    // Cancellation-heavy churn: the kernel's re-prediction pattern
    // (arm a completion, cancel it, arm a new one) over 64 timer keys,
    // every one of which is cancelled and re-armed in batches.
    c.bench_function("event_queue_schedule_cancel_churn_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::<u64>::new();
            for round in 0..10_000u64 {
                q.arm((round % 64) as usize, SimTime(round * 13 % 65_536));
                if round % 64 == 63 {
                    for key in 0..64 {
                        q.cancel(key);
                    }
                }
            }
            let mut acc = 0u64;
            while let Some((_, fired)) = q.pop() {
                if let Fired::Timer(key) = fired {
                    acc = acc.wrapping_add(key as u64);
                }
            }
            acc
        })
    });

    c.bench_function("event_queue_reschedule_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::<u64>::new();
            q.arm(0, SimTime(1));
            for i in 1..10_000u64 {
                q.rearm(0, SimTime(i % 4_096 + 1));
            }
            q.pop()
        })
    });
}

/// One busy CPU on a 48-core machine over 200 ms of virtual time: the
/// paper-scale shape (most CPUs idle most of the time) where tickless
/// idle pays off. Eager mode processes ~2400 idle ticks per simulated
/// 100 ms; tickless parks them all.
fn dispatch_scenario(tickless: bool) {
    let machine = Machine::a64fx(false);
    let cfg = KernelConfig {
        tickless,
        ..KernelConfig::default()
    };
    let mut k = Kernel::new(machine, cfg, 1);
    let t = k.spawn(
        ThreadSpec::new("w", ThreadKind::Workload),
        Box::new(ScriptBehavior::new(vec![
            Action::Compute(WorkUnit::compute(100_000_000.0)),
            Action::SleepFor(SimDuration::from_millis(50)),
            Action::Compute(WorkUnit::compute(100_000_000.0)),
        ])),
    );
    k.run_until_exit(t, SimTime::from_secs_f64(1.0)).unwrap();
}

fn bench_kernel_dispatch(c: &mut Criterion) {
    c.bench_function("kernel_dispatch_mostly_idle_eager", |b| {
        b.iter(|| dispatch_scenario(false))
    });
    c.bench_function("kernel_dispatch_mostly_idle_tickless", |b| {
        b.iter(|| dispatch_scenario(true))
    });
}

/// Rate-recompute churn: threads alternating short computes and sleeps
/// force a recompute_rates call every few microseconds of virtual time.
fn bench_rate_churn(c: &mut Criterion) {
    c.bench_function("kernel_rate_churn_8_threads", |b| {
        b.iter(|| {
            let mut k = Kernel::new(Machine::intel_9700kf(), KernelConfig::default(), 2);
            let tids: Vec<_> = (0..8)
                .map(|i| {
                    let script: Vec<Action> = (0..200)
                        .flat_map(|_| {
                            [
                                Action::Compute(WorkUnit::compute(20_000.0)),
                                Action::SleepFor(SimDuration::from_micros(5)),
                            ]
                        })
                        .collect();
                    k.spawn(
                        ThreadSpec::new(format!("w{i}"), ThreadKind::Workload),
                        Box::new(ScriptBehavior::new(script)),
                    )
                })
                .collect();
            for t in tids {
                k.run_until_exit(t, SimTime::from_secs_f64(1.0)).unwrap();
            }
        })
    });
}

fn bench_saturated_kernel(c: &mut Criterion) {
    c.bench_function("kernel_16_threads_8_cpus_10ms", |b| {
        b.iter(|| {
            let mut k = Kernel::new(Machine::intel_9700kf(), KernelConfig::default(), 1);
            let tids: Vec<_> = (0..16)
                .map(|i| {
                    k.spawn(
                        ThreadSpec::new(format!("w{i}"), ThreadKind::Workload),
                        Box::new(ScriptBehavior::new(vec![Action::Compute(
                            WorkUnit::compute(150_000_000.0),
                        )])),
                    )
                })
                .collect();
            for t in tids {
                k.run_until_exit(t, SimTime::from_secs_f64(1.0)).unwrap();
            }
        })
    });
}

fn bench_run_once(c: &mut Criterion) {
    let platform = Platform::intel();
    let w = NBody {
        bodies: 8_192,
        steps: 3,
        sycl_kernel_efficiency: 1.3,
    };
    let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm);
    let mut seed = 0u64;
    c.bench_function("run_once_nbody_small_intel", |b| {
        b.iter(|| {
            seed += 1;
            let spec = RunSpec::new(&platform, &w, &cfg, seed);
            run(&spec, &mut RunArena::default())
                .expect("bench run failed")
                .output
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_event_queue, bench_kernel_dispatch, bench_rate_churn,
        bench_saturated_kernel, bench_run_once
);
criterion_main!(benches);
