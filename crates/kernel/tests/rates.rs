//! The rate layer's cheap passes against their one known hazard.
//!
//! Under a saturated bandwidth fill, a change that leaves the touched
//! CPU's water-fill demand as it was re-rates only that CPU. That is
//! exact only if no other CPU's factor moved in the meantime, and one
//! can: an IRQ window that closes at `now` lifts its CPU's factor from
//! zero before its `IrqDone` has fired. The scenario below lines up
//! exactly that case. In debug builds the rate layer then checks every
//! rate against a from-scratch full pass. In every build the run must
//! match, exit time for exit time and event for event, a kernel that
//! runs the full pass on every saturated change, and the rate counts
//! must show the fallback taken once.

use noiselab_kernel::{
    Action, Kernel, KernelConfig, SanitizerConfig, ScriptBehavior, ThreadKind, ThreadSpec,
};
use noiselab_machine::{CpuId, CpuSet, Machine, WorkUnit};
use noiselab_sim::{SimDuration, SimTime};

#[test]
fn an_irq_window_closing_before_its_irq_done_forces_a_full_pass() {
    let mut k = Kernel::new(Machine::intel_9700kf(), KernelConfig::default(), 3);
    k.attach_sanitizer(SanitizerConfig::hash_only());
    // Seven bandwidth-bound streams on CPUs 0-6 saturate the socket.
    let streams: Vec<_> = (0..7)
        .map(|c| {
            k.spawn(
                ThreadSpec::new(format!("stream{c}"), ThreadKind::Workload)
                    .affinity(CpuSet::single(CpuId(c))),
                Box::new(ScriptBehavior::new(vec![Action::Compute(WorkUnit::new(
                    1.0e5, 2.0e8,
                ))])),
            )
        })
        .collect();
    // CPU 7 burns without bandwidth, so an IRQ there leaves its demand
    // at zero: a demand-neutral change.
    let burner = k.spawn(
        ThreadSpec::new("burn", ThreadKind::Workload).affinity(CpuSet::single(CpuId(7))),
        Box::new(ScriptBehavior::new(vec![Action::Burn(
            SimDuration::from_millis(5),
        )])),
    );
    // CPU 1's window closes at 1.6 ms. The IRQ on CPU 7 at that instant
    // was queued first, so it is handled before CPU 1's `IrqDone`.
    let close = SimTime::from_secs_f64(1.6e-3);
    k.inject_irq(CpuId(7), close, SimDuration(1_000), "test:neutral");
    k.inject_irq(
        CpuId(1),
        SimTime::from_secs_f64(1.5e-3),
        SimDuration::from_micros(100),
        "test:closing",
    );
    let horizon = SimTime::from_secs_f64(1.0);
    let burn_end = k.run_until_exit(burner, horizon).expect("the burner exits");
    assert!(burn_end > close);
    let exits: Vec<u64> = streams
        .iter()
        .map(|&t| {
            k.run_until_exit(t, horizon)
                .expect("every stream completes")
                .0
        })
        .collect();
    let hash = k.take_sanitizer_report().expect("sanitizer attached").hash;
    // The burner's and the streams' exit times and the stream hash of a
    // kernel whose every saturated pass is the full pass.
    assert_eq!(
        (burn_end.0, exits, hash),
        (
            5_010_569,
            vec![
                38_875_992, 38_914_483, 38_875_151, 38_874_014, 38_870_760, 38_873_147, 38_871_870
            ],
            0x7917_4f4f_943b_57c0
        )
    );
    // The IRQ at the window's close is the one change that falls back.
    let counts = k.rate_counts();
    assert_eq!(counts.closing_fallbacks, 1, "{counts:?}");
    assert!(counts.neutral > 0, "{counts:?}");
}
