//! Arena-reuse conformance: running through a *dirty* [`RunArena`] —
//! one that already carried a different run (different seed, model,
//! tracing mode, telemetry mode, injection replay) — must be
//! observationally identical to running through a fresh one: same
//! dispatched event stream, same virtual execution time, same metrics
//! snapshot, same trace. This is the property that lets repetition
//! loops (overhead reps, campaign cells, the run pool's workers)
//! recycle kernel/tracer/telemetry buffers without any risk of state
//! leaking across runs.

use noiselab_core::{run, ExecConfig, Mitigation, Model, Platform, RunArena, RunOutput, RunSpec};
use noiselab_telemetry::TelemetryConfig;
use proptest::prelude::*;

struct Cell {
    seed: u64,
    model: Model,
    tracing: bool,
    telemetry: bool,
    /// `Some(g)` runs the cell with the DVFS axis enabled under that
    /// governor — frequency state lives in the kernel arena too, so
    /// reuse must be clean across the dimension in both directions.
    governor: Option<noiselab_machine::Governor>,
    /// Replay a small injection config alongside the workload: the run
    /// pool carries one arena from baseline runs to injected ones.
    inject: bool,
}

fn run_in(arena: &mut RunArena, cell: &Cell) -> RunOutput {
    let p = Platform::intel();
    let mut cfg = ExecConfig::new(cell.model, Mitigation::Rm);
    cfg.governor = cell.governor;
    let w = noiselab_testutil::tiny_nbody(2);
    let inject = noiselab_testutil::small_injection();
    let spec = RunSpec {
        tracing: cell.tracing,
        telemetry: cell.telemetry.then(TelemetryConfig::default),
        inject: cell.inject.then_some(&inject),
        ..RunSpec::new(&p, &w, &cfg, cell.seed)
    };
    run(&spec, arena).expect("arena run failed").output
}

fn assert_identical(fresh: &RunOutput, reused: &RunOutput) {
    assert_eq!(fresh.stream_hash, reused.stream_hash, "event stream moved");
    assert_eq!(fresh.exec, reused.exec, "virtual exec time moved");
    assert_eq!(fresh.metrics, reused.metrics, "metrics snapshot moved");
    assert_eq!(fresh.trace, reused.trace, "trace moved");
    assert_eq!(fresh.anomaly, reused.anomaly);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A run through an arena dirtied by a *different* run equals the
    /// same run through a fresh arena, bit for bit.
    #[test]
    fn dirty_arena_is_bit_identical_to_fresh(
        seed in 1u64..50_000,
        dirty_seed in 1u64..50_000,
        sycl in any::<bool>(),
        dirty_sycl in any::<bool>(),
        tracing in any::<bool>(),
        telemetry in any::<bool>(),
        dvfs in any::<bool>(),
        dirty_dvfs in any::<bool>(),
        inject in any::<bool>(),
        dirty_inject in any::<bool>(),
    ) {
        use noiselab_machine::Governor;
        let cell = Cell {
            seed,
            model: if sycl { Model::Sycl } else { Model::Omp },
            tracing,
            telemetry,
            governor: dvfs.then_some(Governor::Schedutil),
            inject,
        };
        // Dirty the arena with the most stateful observation mode
        // (tracer + telemetry both on) of an unrelated cell — with the
        // DVFS and injection dimensions flipped independently, so
        // enabled-after-disabled and disabled-after-enabled both get
        // exercised.
        let dirty = Cell {
            seed: dirty_seed,
            model: if dirty_sycl { Model::Sycl } else { Model::Omp },
            tracing: true,
            telemetry: true,
            governor: dirty_dvfs.then_some(Governor::Performance),
            inject: dirty_inject,
        };

        let fresh = run_in(&mut RunArena::default(), &cell);

        let mut arena = RunArena::default();
        let _ = run_in(&mut arena, &dirty);
        let reused = run_in(&mut arena, &cell);

        prop_assert_eq!(fresh.stream_hash, reused.stream_hash);
        prop_assert_eq!(fresh.exec, reused.exec);
        prop_assert_eq!(&fresh.metrics, &reused.metrics);
        prop_assert_eq!(&fresh.trace, &reused.trace);
    }
}

/// Determinism across many consecutive reuses: rep N through one arena
/// equals a fresh run, for every N — the overhead-measurement loop's
/// exact access pattern.
#[test]
fn repeated_reuse_never_drifts() {
    let cell = Cell {
        seed: 42,
        model: Model::Omp,
        tracing: true,
        telemetry: true,
        governor: None,
        inject: false,
    };
    let fresh = run_in(&mut RunArena::default(), &cell);
    let mut arena = RunArena::default();
    for rep in 0..5 {
        let reused = run_in(&mut arena, &cell);
        assert_identical(&fresh, &reused);
        // Interleave a different cell so reuse isn't trivially same-run
        // — a DVFS-enabled one, so frequency state must wash out too.
        if rep % 2 == 0 {
            let other = Cell {
                seed: 7 + rep,
                model: Model::Sycl,
                tracing: false,
                telemetry: rep % 4 == 0,
                governor: Some(noiselab_machine::Governor::Performance),
                inject: rep % 4 == 2,
            };
            let _ = run_in(&mut arena, &other);
        }
    }
}

/// A failed run must not poison the arena for the next one. A seed
/// whose fault plan aborts a worker returns an error; the arena then
/// carries whatever the aborted kernel left behind.
#[test]
fn arena_survives_mode_flips_after_partial_state() {
    let cell = Cell {
        seed: 1234,
        model: Model::Omp,
        tracing: false,
        telemetry: false,
        governor: None,
        inject: false,
    };
    let fresh = run_in(&mut RunArena::default(), &cell);
    let mut arena = RunArena::default();
    // Dirty with every observation mode in sequence, alternating the
    // DVFS axis so stale frequency state gets a chance to leak.
    for (i, (tracing, telemetry)) in [(true, true), (true, false), (false, true)]
        .into_iter()
        .enumerate()
    {
        let _ = run_in(
            &mut arena,
            &Cell {
                seed: 999,
                model: Model::Sycl,
                tracing,
                telemetry,
                governor: (i % 2 == 0).then_some(noiselab_machine::Governor::Powersave),
                inject: i == 1,
            },
        );
    }
    let reused = run_in(&mut arena, &cell);
    assert_identical(&fresh, &reused);
}
