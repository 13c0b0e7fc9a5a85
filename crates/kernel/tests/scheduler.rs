//! Behavioural tests for the simulated kernel: scheduling classes,
//! preemption, barriers, SMT and bandwidth contention, migration and
//! determinism.

use noiselab_kernel::{
    Action, Kernel, KernelConfig, NoiseClass, Policy, ScriptBehavior, ThreadKind, ThreadSpec,
};
use noiselab_machine::{CpuId, CpuSet, WorkUnit};
use noiselab_sim::{SimDuration, SimTime};
use noiselab_testutil::{
    horizon, quiet_config, quiet_kernel as kernel, quiet_machine, recorder, spawn_compute,
};

#[test]
fn single_compute_takes_solo_time() {
    let mut k = kernel(4, 1);
    // 1 Mflop at 1 flop/ns = 1 ms, plus tiny tick IRQ stalls.
    let tid = spawn_compute(&mut k, "w", 1_000_000.0, Policy::NORMAL);
    let end = k.run_until_exit(tid, horizon()).unwrap();
    let t = end.as_secs_f64();
    assert!((0.001..0.00102).contains(&t), "t={t}");
}

#[test]
fn two_threads_two_cpus_run_in_parallel() {
    let mut k = kernel(4, 1);
    let a = spawn_compute(&mut k, "a", 1_000_000.0, Policy::NORMAL);
    let b = spawn_compute(&mut k, "b", 1_000_000.0, Policy::NORMAL);
    let ea = k.run_until_exit(a, horizon()).unwrap();
    let eb = k.run_until_exit(b, horizon()).unwrap();
    assert!(ea.as_secs_f64() < 0.00102);
    assert!(eb.as_secs_f64() < 0.00102);
}

#[test]
fn two_fair_threads_one_cpu_share_equally() {
    let mut k = kernel(1, 1);
    let a = spawn_compute(&mut k, "a", 10_000_000.0, Policy::NORMAL);
    let b = spawn_compute(&mut k, "b", 10_000_000.0, Policy::NORMAL);
    let ea = k.run_until_exit(a, horizon()).unwrap().as_secs_f64();
    let eb = k.run_until_exit(b, horizon()).unwrap().as_secs_f64();
    // Each is 10 ms of work; sharing one CPU both finish ~20 ms.
    let last = ea.max(eb);
    assert!((0.0195..0.0215).contains(&last), "last={last}");
    // Fair sharing: both finish within a few timeslices of each other.
    assert!((ea - eb).abs() < 0.009, "ea={ea} eb={eb}");
}

#[test]
fn fifo_preempts_fair_immediately_and_runs_to_completion() {
    let mut k = kernel(1, 1);
    let w = spawn_compute(&mut k, "w", 10_000_000.0, Policy::NORMAL); // 10 ms
                                                                      // FIFO noise arrives at t=2ms, burns 5 ms of CPU.
    let n = k.spawn(
        ThreadSpec::new("noise", ThreadKind::Noise)
            .policy(Policy::Fifo { prio: 50 })
            .start_at(SimTime::from_secs_f64(0.002)),
        Box::new(ScriptBehavior::new(vec![Action::Burn(
            SimDuration::from_millis(5),
        )])),
    );
    let en = k.run_until_exit(n, horizon()).unwrap().as_secs_f64();
    let ew = k.run_until_exit(w, horizon()).unwrap().as_secs_f64();
    // Noise runs 2..7 ms uninterrupted.
    assert!((0.00695..0.00715).contains(&en), "en={en}");
    // Workload: 10 ms of work + 5 ms stolen = ~15 ms.
    assert!((0.0149..0.0152).contains(&ew), "ew={ew}");
}

#[test]
fn higher_fifo_prio_preempts_lower() {
    let mut k = kernel(1, 1);
    let low = k.spawn(
        ThreadSpec::new("low", ThreadKind::Noise).policy(Policy::Fifo { prio: 10 }),
        Box::new(ScriptBehavior::new(vec![Action::Burn(
            SimDuration::from_millis(10),
        )])),
    );
    let high = k.spawn(
        ThreadSpec::new("high", ThreadKind::Noise)
            .policy(Policy::Fifo { prio: 60 })
            .start_at(SimTime::from_secs_f64(0.001)),
        Box::new(ScriptBehavior::new(vec![Action::Burn(
            SimDuration::from_millis(2),
        )])),
    );
    let eh = k.run_until_exit(high, horizon()).unwrap().as_secs_f64();
    let el = k.run_until_exit(low, horizon()).unwrap().as_secs_f64();
    assert!((0.00295..0.00315).contains(&eh), "eh={eh}");
    assert!((0.0119..0.0122).contains(&el), "el={el}");
}

#[test]
fn equal_fifo_prio_does_not_preempt() {
    let mut k = kernel(1, 1);
    let first = k.spawn(
        ThreadSpec::new("first", ThreadKind::Noise).policy(Policy::Fifo { prio: 50 }),
        Box::new(ScriptBehavior::new(vec![Action::Burn(
            SimDuration::from_millis(4),
        )])),
    );
    let second = k.spawn(
        ThreadSpec::new("second", ThreadKind::Noise)
            .policy(Policy::Fifo { prio: 50 })
            .start_at(SimTime::from_secs_f64(0.001)),
        Box::new(ScriptBehavior::new(vec![Action::Burn(
            SimDuration::from_millis(1),
        )])),
    );
    let e1 = k.run_until_exit(first, horizon()).unwrap().as_secs_f64();
    let e2 = k.run_until_exit(second, horizon()).unwrap().as_secs_f64();
    assert!(e1 < e2, "FIFO must not round-robin: e1={e1} e2={e2}");
    assert!((0.00395..0.00415).contains(&e1), "e1={e1}");
}

#[test]
fn smt_siblings_slow_each_other() {
    // 2 cores x 2 SMT. Pin both threads to siblings of core 0.
    let mut k = kernel(2, 2);
    let a = k.spawn(
        ThreadSpec::new("a", ThreadKind::Workload).affinity(CpuSet::single(CpuId(0))),
        Box::new(ScriptBehavior::new(vec![Action::Compute(
            WorkUnit::compute(1_000_000.0),
        )])),
    );
    let b = k.spawn(
        ThreadSpec::new("b", ThreadKind::Workload).affinity(CpuSet::single(CpuId(2))), // sibling of cpu0 (2 cores)
        Box::new(ScriptBehavior::new(vec![Action::Compute(
            WorkUnit::compute(1_000_000.0),
        )])),
    );
    let ea = k.run_until_exit(a, horizon()).unwrap().as_secs_f64();
    let eb = k.run_until_exit(b, horizon()).unwrap().as_secs_f64();
    // smt_factor 0.5: both take ~2 ms instead of 1 ms.
    assert!((0.00195..0.00215).contains(&ea), "ea={ea}");
    assert!((0.00195..0.00215).contains(&eb), "eb={eb}");
}

#[test]
fn bandwidth_contention_scales_memory_bound_threads() {
    // 4 cores, per-core bw 10, socket bw 20. Four pure-stream threads
    // each demanding 10 -> each gets 5 -> run at half speed.
    let mut k = kernel(4, 1);
    let tids: Vec<_> = (0..4)
        .map(|i| {
            k.spawn(
                ThreadSpec::new(format!("s{i}"), ThreadKind::Workload)
                    .affinity(CpuSet::single(CpuId(i))),
                Box::new(ScriptBehavior::new(vec![Action::Compute(
                    WorkUnit::stream(
                        10_000_000.0, // 1 ms solo at 10 B/ns
                    ),
                )])),
            )
        })
        .collect();
    for t in tids {
        let e = k.run_until_exit(t, horizon()).unwrap().as_secs_f64();
        assert!((0.00195..0.00215).contains(&e), "e={e}");
    }
}

#[test]
fn compute_bound_threads_unaffected_by_bandwidth() {
    let mut k = kernel(4, 1);
    let a = spawn_compute(&mut k, "c", 1_000_000.0, Policy::NORMAL);
    let s = k.spawn(
        ThreadSpec::new("s", ThreadKind::Workload),
        Box::new(ScriptBehavior::new(vec![Action::Compute(
            WorkUnit::stream(50_000_000.0),
        )])),
    );
    let ea = k.run_until_exit(a, horizon()).unwrap().as_secs_f64();
    assert!((0.00095..0.00106).contains(&ea), "ea={ea}");
    k.run_until_exit(s, horizon()).unwrap();
}

#[test]
fn barrier_releases_all_parties() {
    let mut k = kernel(4, 1);
    let bar = k.new_barrier(3);
    let mk = |k: &mut Kernel, name: &str, work: f64| {
        k.spawn(
            ThreadSpec::new(name, ThreadKind::Workload),
            Box::new(ScriptBehavior::new(vec![
                Action::Compute(WorkUnit::compute(work)),
                Action::Barrier {
                    id: bar,
                    spin: SimDuration::from_millis(1),
                },
                Action::Compute(WorkUnit::compute(1_000_000.0)),
            ])),
        )
    };
    let a = mk(&mut k, "a", 1_000_000.0); // 1 ms
    let b = mk(&mut k, "b", 2_000_000.0); // 2 ms
    let c = mk(&mut k, "c", 5_000_000.0); // 5 ms: last arrival
    let ea = k.run_until_exit(a, horizon()).unwrap().as_secs_f64();
    let eb = k.run_until_exit(b, horizon()).unwrap().as_secs_f64();
    let ec = k.run_until_exit(c, horizon()).unwrap().as_secs_f64();
    // All finish ~6 ms: barrier at 5 ms + 1 ms tail.
    for (name, e) in [("a", ea), ("b", eb), ("c", ec)] {
        assert!((0.0059..0.0063).contains(&e), "{name}={e}");
    }
}

#[test]
fn barrier_blocked_waiter_wakes_with_latency() {
    // Spin time 0 -> waiters block immediately; machine has zero wake
    // latency so release is still prompt.
    let mut k = kernel(2, 1);
    let bar = k.new_barrier(2);
    let early = k.spawn(
        ThreadSpec::new("early", ThreadKind::Workload),
        Box::new(ScriptBehavior::new(vec![
            Action::Barrier {
                id: bar,
                spin: SimDuration::ZERO,
            },
            Action::Compute(WorkUnit::compute(1_000.0)),
        ])),
    );
    let late = k.spawn(
        ThreadSpec::new("late", ThreadKind::Workload).start_at(SimTime::from_secs_f64(0.003)),
        Box::new(ScriptBehavior::new(vec![Action::Barrier {
            id: bar,
            spin: SimDuration::ZERO,
        }])),
    );
    let ee = k.run_until_exit(early, horizon()).unwrap().as_secs_f64();
    let el = k.run_until_exit(late, horizon()).unwrap().as_secs_f64();
    assert!((0.00295..0.0032).contains(&ee), "ee={ee}");
    assert!((0.00295..0.0032).contains(&el), "el={el}");
}

#[test]
fn pinned_thread_never_migrates() {
    let mut k = kernel(2, 1);
    let pinned = k.spawn(
        ThreadSpec::new("pinned", ThreadKind::Workload).affinity(CpuSet::single(CpuId(0))),
        Box::new(ScriptBehavior::new(vec![Action::Compute(
            WorkUnit::compute(10_000_000.0),
        )])),
    );
    // A FIFO hog occupies cpu0 for 5 ms; cpu1 stays idle but the pinned
    // thread cannot move there.
    let _hog = k.spawn(
        ThreadSpec::new("hog", ThreadKind::Noise)
            .policy(Policy::Fifo { prio: 50 })
            .affinity(CpuSet::single(CpuId(0)))
            .start_at(SimTime::from_secs_f64(0.001)),
        Box::new(ScriptBehavior::new(vec![Action::Burn(
            SimDuration::from_millis(5),
        )])),
    );
    let e = k.run_until_exit(pinned, horizon()).unwrap();
    let t = e.as_secs_f64();
    assert!((0.0149..0.0152).contains(&t), "t={t}");
    assert_eq!(k.thread(pinned).stats.migrations, 0);
}

#[test]
fn roaming_thread_escapes_to_idle_cpu() {
    let mut k = kernel(2, 1);
    let roam = k.spawn(
        ThreadSpec::new("roam", ThreadKind::Workload),
        Box::new(ScriptBehavior::new(vec![Action::Compute(
            WorkUnit::compute(10_000_000.0),
        )])),
    );
    let _hog = k.spawn(
        ThreadSpec::new("hog", ThreadKind::Noise)
            .policy(Policy::Fifo { prio: 50 })
            .affinity(CpuSet::single(CpuId(0)))
            .start_at(SimTime::from_secs_f64(0.001)),
        Box::new(ScriptBehavior::new(vec![Action::Burn(
            SimDuration::from_millis(5),
        )])),
    );
    let e = k.run_until_exit(roam, horizon()).unwrap().as_secs_f64();
    // Escapes to cpu1 at the next idle-balance tick (within 4 ms of the
    // preemption), well before the hog's 5 ms burn ends: ~12 ms total vs
    // 15 ms pinned.
    assert!(e < 0.0125, "roaming thread should escape: e={e}");
    assert!(k.thread(roam).stats.migrations >= 1);
}

#[test]
fn set_policy_demotion_yields_to_rt() {
    let mut k = kernel(1, 1);
    // Thread starts FIFO, demotes itself to OTHER; a queued FIFO thread
    // must take over immediately.
    let demoter = k.spawn(
        ThreadSpec::new("demoter", ThreadKind::Noise).policy(Policy::Fifo { prio: 50 }),
        Box::new(ScriptBehavior::new(vec![
            Action::Burn(SimDuration::from_millis(1)),
            Action::SetPolicy(Policy::NORMAL),
            Action::Burn(SimDuration::from_millis(1)),
        ])),
    );
    let rt = k.spawn(
        ThreadSpec::new("rt", ThreadKind::Noise)
            .policy(Policy::Fifo { prio: 10 })
            .start_at(SimTime::from_secs_f64(0.0005)),
        Box::new(ScriptBehavior::new(vec![Action::Burn(
            SimDuration::from_millis(2),
        )])),
    );
    let ert = k.run_until_exit(rt, horizon()).unwrap().as_secs_f64();
    let ed = k.run_until_exit(demoter, horizon()).unwrap().as_secs_f64();
    // rt runs 1..3 ms (after demoter's FIFO burn ends at 1 ms).
    assert!((0.00295..0.0032).contains(&ert), "ert={ert}");
    assert!((0.00395..0.0042).contains(&ed), "ed={ed}");
}

#[test]
fn sleep_wakes_at_requested_time() {
    let mut k = kernel(1, 1);
    let t = k.spawn(
        ThreadSpec::new("sleeper", ThreadKind::Workload),
        Box::new(ScriptBehavior::new(vec![
            Action::SleepUntil(SimTime::from_secs_f64(0.005)),
            Action::Compute(WorkUnit::compute(1_000.0)),
        ])),
    );
    let e = k.run_until_exit(t, horizon()).unwrap().as_secs_f64();
    assert!((0.005..0.0051).contains(&e), "e={e}");
}

#[test]
fn nice_weights_bias_fair_sharing() {
    let mut k = kernel(1, 1);
    let heavy = spawn_compute(&mut k, "heavy", 10_000_000.0, Policy::Other { nice: -10 });
    let light = spawn_compute(&mut k, "light", 10_000_000.0, Policy::Other { nice: 10 });
    let eh = k.run_until_exit(heavy, horizon()).unwrap().as_secs_f64();
    let el = k.run_until_exit(light, horizon()).unwrap().as_secs_f64();
    // The nice -10 thread should finish well before the nice 10 thread.
    // (Slicing granularity is the 4 ms tick, so the bias is coarser than
    // real CFS; the ordering and a sane bound are what matter.)
    assert!(eh < el, "eh={eh} el={el}");
    assert!(eh < 0.0145, "heavy thread starved: eh={eh}");
    assert!((0.0195..0.0215).contains(&el), "el={el}");
}

#[test]
fn determinism_same_seed_same_times() {
    let run = |seed: u64| -> Vec<u64> {
        let mut k = Kernel::new(quiet_machine(4, 2), KernelConfig::default(), seed);
        let bar = k.new_barrier(4);
        let tids: Vec<_> = (0..4)
            .map(|i| {
                k.spawn(
                    ThreadSpec::new(format!("w{i}"), ThreadKind::Workload),
                    Box::new(ScriptBehavior::new(vec![
                        Action::Compute(WorkUnit::new(2_000_000.0, 1_000_000.0)),
                        Action::Barrier {
                            id: bar,
                            spin: SimDuration::from_micros(50),
                        },
                        Action::Compute(WorkUnit::compute(1_000_000.0)),
                    ])),
                )
            })
            .collect();
        tids.iter()
            .map(|&t| {
                let mut kk_end = 0;
                if let Ok(e) = k.run_until_exit(t, SimTime::from_secs_f64(10.0)) {
                    kk_end = e.nanos();
                }
                kk_end
            })
            .collect()
    };
    assert_eq!(run(7), run(7));
    assert_ne!(
        run(7),
        run(8),
        "different seeds should differ via IRQ jitter"
    );
}

#[test]
fn exited_thread_frees_cpu() {
    let mut k = kernel(1, 1);
    let a = spawn_compute(&mut k, "a", 1_000_000.0, Policy::NORMAL);
    let b = k.spawn(
        ThreadSpec::new("b", ThreadKind::Workload).start_at(SimTime::from_secs_f64(0.0005)),
        Box::new(ScriptBehavior::new(vec![Action::Compute(
            WorkUnit::compute(1_000_000.0),
        )])),
    );
    let ea = k.run_until_exit(a, horizon()).unwrap().as_secs_f64();
    let eb = k.run_until_exit(b, horizon()).unwrap().as_secs_f64();
    assert!(ea < eb);
    // b: waits ~until a finishes (sharing), then completes.
    assert!(eb < 0.0023, "eb={eb}");
}

#[test]
fn tracer_records_timer_irqs() {
    // Only a busy CPU takes the timer IRQ: 20 ms of compute on one of
    // two CPUs at 4 ms ticks is five `local_timer` records on that CPU,
    // one tick period apart, each the quiet config's fixed 200 ns.
    // Softirqs (probability 0.5 here) follow their tick's service.
    let mut cfg = quiet_config();
    cfg.softirq_prob = 0.5;
    let mut k = Kernel::new(quiet_machine(2, 1), cfg, 3);
    let (sink, store) = recorder();
    k.attach_tracer(Box::new(sink));
    let t = spawn_compute(&mut k, "w", 20_000_000.0, Policy::NORMAL);
    k.run_until_exit(t, horizon()).unwrap();
    assert!(k.detach_tracer().is_some());

    let events = store.borrow();
    let ticks: Vec<_> = events
        .iter()
        .filter(|(_, c, s, _, _)| *c == NoiseClass::Irq && s == "local_timer:236")
        .collect();
    assert_eq!(ticks.len(), 5, "{events:?}");
    for (a, b) in ticks.iter().zip(ticks.iter().skip(1)) {
        assert_eq!(a.0, b.0, "ticks moved CPU: {events:?}");
        assert_eq!(b.3 - a.3, 4_000_000, "ticks off the 4 ms grid: {events:?}");
    }
    assert!(ticks.iter().all(|t| t.4 == 200), "{events:?}");
    let softirqs: Vec<_> = events
        .iter()
        .filter(|(_, c, _, _, _)| *c == NoiseClass::Softirq)
        .collect();
    assert!(!softirqs.is_empty(), "{events:?}");
    assert!(softirqs
        .iter()
        .all(|s| ticks.iter().any(|t| t.0 == s.0 && t.3 + t.4 == s.3)));
    assert_eq!(events.len(), ticks.len() + softirqs.len(), "{events:?}");
}

#[test]
fn thread_noise_interval_traced() {
    let (sink, store) = recorder();
    let mut k = kernel(1, 1);
    k.attach_tracer(Box::new(sink));
    let w = spawn_compute(&mut k, "w", 5_000_000.0, Policy::NORMAL);
    let noise = k.spawn(
        ThreadSpec::new("kworker/0:1", ThreadKind::Noise).start_at(SimTime::from_secs_f64(0.001)),
        Box::new(ScriptBehavior::new(vec![Action::Burn(
            SimDuration::from_micros(500),
        )])),
    );
    k.run_until_exit(w, horizon()).unwrap();
    // The interval is recorded when the kworker deschedules (exits).
    k.run_until_exit(noise, horizon()).unwrap();
    let events = store.borrow();
    let thread_noise: Vec<_> = events
        .iter()
        .filter(|(_, c, _, _, _)| *c == NoiseClass::Thread)
        .collect();
    assert!(!thread_noise.is_empty(), "kworker interval not traced");
    let total: u64 = thread_noise.iter().map(|(_, _, _, _, d)| d).sum();
    assert!(
        (450_000..700_000).contains(&total),
        "kworker noise total {total} ns, expected ~500us"
    );
    assert!(thread_noise
        .iter()
        .any(|(_, _, s, _, _)| s == "kworker/0:1"));
}

#[test]
fn burnwall_duration_is_wall_time_under_smt() {
    // Two SMT siblings: a Burn stretches by the SMT factor, a BurnWall
    // does not (occupancy is occupancy).
    let mut k = kernel(2, 2);
    let wall = k.spawn(
        ThreadSpec::new("wall", ThreadKind::Injector).affinity(CpuSet::single(CpuId(0))),
        Box::new(ScriptBehavior::new(vec![Action::BurnWall(
            SimDuration::from_millis(4),
        )])),
    );
    let _sibling_load = k.spawn(
        ThreadSpec::new("load", ThreadKind::Workload).affinity(CpuSet::single(CpuId(2))),
        Box::new(ScriptBehavior::new(vec![Action::Compute(
            WorkUnit::compute(20_000_000.0),
        )])),
    );
    let e = k.run_until_exit(wall, horizon()).unwrap().as_secs_f64();
    assert!(
        (0.0039..0.0043).contains(&e),
        "BurnWall stretched under SMT: {e}"
    );

    let mut k2 = kernel(2, 2);
    let burn = k2.spawn(
        ThreadSpec::new("burn", ThreadKind::Injector).affinity(CpuSet::single(CpuId(0))),
        Box::new(ScriptBehavior::new(vec![Action::Burn(
            SimDuration::from_millis(4),
        )])),
    );
    let _sibling_load2 = k2.spawn(
        ThreadSpec::new("load", ThreadKind::Workload).affinity(CpuSet::single(CpuId(2))),
        Box::new(ScriptBehavior::new(vec![Action::Compute(
            WorkUnit::compute(20_000_000.0),
        )])),
    );
    let e2 = k2.run_until_exit(burn, horizon()).unwrap().as_secs_f64();
    // smt_factor 0.5 -> 4 ms of CPU work takes ~8 ms of wall time.
    assert!(
        (0.0078..0.0084).contains(&e2),
        "Burn should stretch under SMT: {e2}"
    );
}

#[test]
fn burnwall_pauses_while_preempted() {
    let mut k = kernel(1, 1);
    let wall = k.spawn(
        ThreadSpec::new("wall", ThreadKind::Injector),
        Box::new(ScriptBehavior::new(vec![Action::BurnWall(
            SimDuration::from_millis(6),
        )])),
    );
    // A FIFO hog takes the CPU from 1 ms to 4 ms.
    let _hog = k.spawn(
        ThreadSpec::new("hog", ThreadKind::Noise)
            .policy(Policy::Fifo { prio: 50 })
            .start_at(SimTime::from_secs_f64(0.001)),
        Box::new(ScriptBehavior::new(vec![Action::Burn(
            SimDuration::from_millis(3),
        )])),
    );
    let e = k.run_until_exit(wall, horizon()).unwrap().as_secs_f64();
    // 6 ms occupancy + 3 ms preempted = ~9 ms.
    assert!((0.0089..0.0093).contains(&e), "e={e}");
}

#[test]
fn device_irq_stalls_running_thread_and_is_traced() {
    let (sink, store) = recorder();
    let mut k = kernel(1, 1);
    k.attach_tracer(Box::new(sink));
    let w = spawn_compute(&mut k, "w", 5_000_000.0, Policy::NORMAL);
    // 2 ms of device IRQ at t=1ms.
    k.inject_irq(
        CpuId(0),
        SimTime::from_secs_f64(0.001),
        SimDuration::from_millis(2),
        "nvme0q1:130",
    );
    let e = k.run_until_exit(w, horizon()).unwrap().as_secs_f64();
    assert!((0.0069..0.0073).contains(&e), "e={e}");
    let events = store.borrow();
    assert!(events
        .iter()
        .any(|(_, c, s, _, d)| *c == NoiseClass::Irq && s == "nvme0q1:130" && *d == 2_000_000));
}

#[test]
fn wake_placement_prefers_fully_idle_core() {
    // 2 cores x 2 SMT: core 0's primary busy. A woken thread must land
    // on core 1 (fully idle), not on cpu2 (core 0's sibling).
    let mut k = kernel(2, 2);
    let _busy = k.spawn(
        ThreadSpec::new("busy", ThreadKind::Workload).affinity(CpuSet::single(CpuId(0))),
        Box::new(ScriptBehavior::new(vec![Action::Compute(
            WorkUnit::compute(20_000_000.0),
        )])),
    );
    let newcomer = k.spawn(
        ThreadSpec::new("new", ThreadKind::Noise).start_at(SimTime::from_secs_f64(0.001)),
        Box::new(ScriptBehavior::new(vec![Action::Burn(
            SimDuration::from_millis(2),
        )])),
    );
    let e = k.run_until_exit(newcomer, horizon()).unwrap().as_secs_f64();
    // On a fully idle core it runs at full speed: 1 ms + 2 ms = 3 ms.
    // On the busy sibling it would take ~5 ms (smt factor 0.5).
    assert!(
        (0.0029..0.0033).contains(&e),
        "placed on busy sibling? e={e}"
    );
    // And the pinned thread must not have been slowed at all.
}

#[test]
fn rt_throttling_disabled_allows_full_occupancy() {
    // A FIFO thread may occupy the CPU indefinitely (the paper disables
    // the RT fail-safe); a fair workload makes zero progress meanwhile.
    let mut k = kernel(1, 1);
    let w = spawn_compute(&mut k, "w", 1_000_000.0, Policy::NORMAL);
    let _hog = k.spawn(
        ThreadSpec::new("hog", ThreadKind::Noise).policy(Policy::Fifo { prio: 50 }),
        Box::new(ScriptBehavior::new(vec![Action::Burn(
            SimDuration::from_millis(50),
        )])),
    );
    let e = k.run_until_exit(w, horizon()).unwrap().as_secs_f64();
    assert!(
        e > 0.050,
        "fair thread ran before the FIFO hog finished: {e}"
    );
}

#[test]
fn yield_with_competitor_round_robins() {
    let mut k = kernel(1, 1);
    let a = k.spawn(
        ThreadSpec::new("a", ThreadKind::Workload),
        Box::new(ScriptBehavior::new(vec![
            Action::Compute(WorkUnit::compute(1_000_000.0)),
            Action::Yield,
            Action::Compute(WorkUnit::compute(1_000_000.0)),
        ])),
    );
    let b = spawn_compute(&mut k, "b", 1_000_000.0, Policy::NORMAL);
    let ea = k.run_until_exit(a, horizon()).unwrap().as_secs_f64();
    let eb = k.run_until_exit(b, horizon()).unwrap().as_secs_f64();
    // a yields after 1 ms; b (queued) runs to completion; a finishes last.
    assert!(eb < ea, "yield should hand over the cpu: ea={ea} eb={eb}");
    assert!((0.0029..0.0034).contains(&ea), "ea={ea}");
}
