//! Resilience suite: the campaign harness must survive injected
//! crashes, host panics, and being killed mid-campaign — and come back
//! with exactly the same numbers.
//!
//! This is the fault-injection gate CI runs: a ~5 % crashy 200-run
//! campaign must complete without panicking and report exactly the
//! failed (seed, cause) pairs; a checkpoint-interrupted campaign must
//! resume bit-identical to an uninterrupted one.

use noiselab_core::campaign::{run_campaign, CampaignPlan, CampaignState};
use noiselab_core::{
    run_many, ExecConfig, Mitigation, Model, Platform, RetryPolicy, RunFailure, RunSpec,
};
use noiselab_runtime::{omp::OmpSchedule, Program};
use noiselab_testutil::{crashy_plan as crashy, omp_rm as cfg, run_fresh};
use noiselab_workloads::{NBody, Workload};
use std::path::PathBuf;

fn tiny_nbody() -> NBody {
    noiselab_testutil::tiny_nbody(2)
}

fn tmp_path(name: &str) -> PathBuf {
    noiselab_testutil::tmp_path("noiselab-resilience", name)
}

// ---------------------------------------------------------------------
// Crashy campaigns.
// ---------------------------------------------------------------------

#[test]
fn crashy_campaign_completes_and_reports_failures() {
    let p = Platform::intel();
    let w = tiny_nbody();
    let (plan, cfg) = (crashy(), cfg());
    let plain = RunSpec::new(&p, &w, &cfg, 9_000);
    let faulted = RunSpec {
        faults: Some(&plan),
        ..plain.clone()
    };
    let ledger = run_many(&faulted, 200, RetryPolicy::none());
    assert_eq!(ledger.len(), 200);
    assert_eq!(ledger.ok_count() + ledger.failed_count(), 200);

    let failures = ledger.failures();
    assert!(
        (2..=25).contains(&failures.len()),
        "~5% of 200 runs should crash, got {}",
        failures.len()
    );
    for (seed, cause) in &failures {
        assert!((9_000..9_200).contains(seed));
        assert!(
            matches!(cause, RunFailure::WorkloadAborted { .. }),
            "seed {seed}: unexpected cause {cause}"
        );
    }
    // Survivors are untouched by the plan: bit-identical to unfaulted
    // runs at the same seeds.
    for record in ledger.records.iter().take(20) {
        if let Ok(out) = &record.result {
            let seed = record.seed;
            let plain = run_fresh(&RunSpec {
                seed,
                ..plain.clone()
            })
            .unwrap();
            assert_eq!(out.exec, plain.exec, "seed {seed} perturbed");
        }
    }
}

#[test]
fn crashy_campaign_is_deterministic() {
    let p = Platform::intel();
    let w = tiny_nbody();
    let (plan, cfg) = (crashy(), cfg());
    let spec = RunSpec {
        faults: Some(&plan),
        ..RunSpec::new(&p, &w, &cfg, 500)
    };
    let run = || run_many(&spec, 60, RetryPolicy::none()).failures();
    let (a, b) = (run(), run());
    assert!(!a.is_empty(), "expected at least one crash in 60 runs");
    assert_eq!(a, b, "same plan + seeds must fail identically");
}

#[test]
fn retry_with_reseed_recovers_crashed_runs_deterministically() {
    let p = Platform::intel();
    let w = tiny_nbody();
    let (plan, cfg) = (crashy(), cfg());
    let spec = RunSpec {
        faults: Some(&plan),
        ..RunSpec::new(&p, &w, &cfg, 500)
    };
    let run = |retry| run_many(&spec, 60, retry);
    let no_retry = run(RetryPolicy::none());
    let with_retry = run(RetryPolicy::retries(3));
    assert!(no_retry.failed_count() > 0);
    // With a fresh seed per attempt and a 5 % crash rate, 3 retries
    // recover everything at this scale.
    assert_eq!(with_retry.failed_count(), 0, "retries should recover");
    for record in &with_retry.records {
        let crashed_first = no_retry
            .records
            .iter()
            .find(|r| r.seed == record.seed)
            .is_some_and(|r| r.result.is_err());
        if crashed_first {
            assert!(
                record.attempts > 1,
                "seed {} should have retried",
                record.seed
            );
            // The recovered measurement equals a plain run at the
            // deterministic reseed.
            let seed = RetryPolicy::reseed(record.seed, record.attempts - 1);
            let expect = run_fresh(&RunSpec {
                seed,
                ..spec.clone()
            });
            assert_eq!(record.result.as_ref().unwrap().exec, expect.unwrap().exec);
        } else {
            assert_eq!(record.attempts, 1);
        }
    }
    // Retried ledgers are reproducible too.
    let again = run(RetryPolicy::retries(3));
    let execs = |l: &noiselab_core::RunLedger| {
        l.records
            .iter()
            .map(|r| r.result.as_ref().unwrap().exec)
            .collect::<Vec<_>>()
    };
    assert_eq!(execs(&with_retry), execs(&again));
}

// ---------------------------------------------------------------------
// Host-panic containment.
// ---------------------------------------------------------------------

/// A workload whose OpenMP lowering panics — the deliberately crashing
/// workload of the CI gate. The harness must contain it.
struct PanickingWorkload;

impl Workload for PanickingWorkload {
    fn name(&self) -> &'static str {
        "panicker"
    }
    fn omp_program(&self, _nthreads: usize, _schedule: Option<OmpSchedule>) -> Program {
        panic!("deliberate workload bug for the resilience gate")
    }
    fn sycl_program(&self, _nthreads: usize) -> Program {
        panic!("deliberate workload bug for the resilience gate")
    }
}

#[test]
fn host_panic_is_contained_as_a_failed_run() {
    let (p, cfg) = (Platform::intel(), cfg());
    let spec = RunSpec::new(&p, &PanickingWorkload, &cfg, 0);
    let ledger = run_many(&spec, 4, RetryPolicy::none());
    assert_eq!(ledger.len(), 4);
    assert_eq!(ledger.ok_count(), 0);
    for (_, cause) in ledger.failures() {
        match cause {
            RunFailure::Panic { message } => {
                assert!(message.contains("deliberate workload bug"), "{message}");
            }
            other => panic!("expected Panic, got {other}"),
        }
    }
}

#[test]
fn mixed_fleet_panics_do_not_poison_good_runs() {
    // Half the host threads hit the panicking workload, the other runs
    // must still produce measurements (no propagation across runs).
    let (p, w, cfg) = (Platform::intel(), tiny_nbody(), cfg());
    let spec = RunSpec::new(&p, &w, &cfg, 40);
    let good = run_many(&spec, 3, RetryPolicy::none());
    let bad = run_many(
        &RunSpec {
            workload: &PanickingWorkload,
            ..spec.clone()
        },
        3,
        RetryPolicy::none(),
    );
    assert_eq!(good.ok_count(), 3);
    assert_eq!(bad.ok_count(), 0);
    for (i, r) in good.records.iter().enumerate() {
        let seed = 40 + i as u64;
        let single = run_fresh(&RunSpec {
            seed,
            ..spec.clone()
        })
        .unwrap();
        assert_eq!(r.result.as_ref().unwrap().exec, single.exec);
    }
}

// ---------------------------------------------------------------------
// Checkpoint / resume.
// ---------------------------------------------------------------------

fn campaign_cells() -> Vec<(String, ExecConfig)> {
    vec![
        ("omp/RM".into(), ExecConfig::new(Model::Omp, Mitigation::Rm)),
        ("omp/TP".into(), ExecConfig::new(Model::Omp, Mitigation::Tp)),
        (
            "sycl/RM".into(),
            ExecConfig::new(Model::Sycl, Mitigation::Rm),
        ),
        (
            "omp/RMHK".into(),
            ExecConfig::new(Model::Omp, Mitigation::RmHK),
        ),
    ]
}

fn plan<'a>(
    p: &'a Platform,
    w: &'a (dyn Workload + Sync),
    checkpoint: Option<PathBuf>,
    limit: Option<usize>,
) -> CampaignPlan<'a> {
    CampaignPlan {
        platform: p,
        workload: w,
        cells: campaign_cells(),
        runs_per_cell: 12,
        seed_base: 31_000,
        faults: Some(crashy()),
        retry: RetryPolicy::none(),
        checkpoint,
        limit,
        verify_resume: false,
    }
}

#[test]
fn interrupted_campaign_resumes_bit_identical() {
    let p = Platform::intel();
    let w = tiny_nbody();

    // Reference: uninterrupted, no checkpointing.
    let reference = run_campaign(&plan(&p, &w, None, None)).unwrap();
    assert_eq!(reference.cells.len(), 4);

    // Interrupted: run 2 cells, "crash" (drop everything), then resume
    // from the checkpoint file only.
    let ckpt = tmp_path("resume.json");
    std::fs::remove_file(&ckpt).ok();
    let partial = run_campaign(&plan(&p, &w, Some(ckpt.clone()), Some(2))).unwrap();
    assert_eq!(partial.cells.len(), 2);
    drop(partial);

    let on_disk = CampaignState::load(&ckpt).unwrap();
    assert_eq!(on_disk.cells.len(), 2, "checkpoint holds completed cells");

    let resumed = run_campaign(&plan(&p, &w, Some(ckpt.clone()), None)).unwrap();
    assert_eq!(resumed.cells.len(), 4);

    // Bit-identical: every sample, failure, and key matches the
    // uninterrupted campaign exactly (f64s compared exactly via
    // PartialEq on the whole state).
    assert_eq!(resumed, reference);
    for (a, b) in resumed.cells.iter().zip(&reference.cells) {
        for (x, y) in a.samples.iter().zip(&b.samples) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn campaign_reports_failed_cells_and_counts() {
    let p = Platform::intel();
    let w = tiny_nbody();
    let state = run_campaign(&plan(&p, &w, None, None)).unwrap();
    let report = state.report(4);
    assert!(report.complete);
    assert_eq!(report.total_ok + report.total_failed, 4 * 12);
    let text = noiselab_core::campaign::render_campaign_report(&report);
    assert!(text.contains("campaign complete"), "{text}");
}

#[test]
fn resume_with_different_inputs_is_refused() {
    let p = Platform::intel();
    let w = tiny_nbody();
    let ckpt = tmp_path("mismatch.json");
    std::fs::remove_file(&ckpt).ok();
    run_campaign(&plan(&p, &w, Some(ckpt.clone()), Some(1))).unwrap();

    let mut other = plan(&p, &w, Some(ckpt.clone()), None);
    other.runs_per_cell = 13; // different campaign identity
    let err = run_campaign(&other).expect_err("fingerprint mismatch must refuse");
    assert!(err.to_string().contains("fingerprint"), "{err}");
    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn verified_resume_passes_and_catches_tampering() {
    let p = Platform::intel();
    let w = tiny_nbody();
    let ckpt = tmp_path("verify.json");
    std::fs::remove_file(&ckpt).ok();

    // Two cells done, then "crash".
    run_campaign(&plan(&p, &w, Some(ckpt.clone()), Some(2))).unwrap();

    // Honest resume with verification on: the last completed cell
    // re-runs bit-identical and the campaign finishes.
    let mut verified = plan(&p, &w, Some(ckpt.clone()), None);
    verified.verify_resume = true;
    let resumed = run_campaign(&verified).unwrap();
    assert_eq!(resumed.cells.len(), 4);
    assert!(
        resumed.cells.iter().all(|c| c.stream_hash != 0),
        "every cell must carry its event-stream hash"
    );

    // Tamper with the checkpointed stream hash of the last completed
    // cell: a verified resume must refuse it.
    std::fs::remove_file(&ckpt).ok();
    run_campaign(&plan(&p, &w, Some(ckpt.clone()), Some(2))).unwrap();
    let mut state = CampaignState::load(&ckpt).unwrap();
    state.cells.last_mut().unwrap().stream_hash ^= 1;
    state.save(&ckpt).unwrap();
    let mut tampered = plan(&p, &w, Some(ckpt.clone()), None);
    tampered.verify_resume = true;
    let err = run_campaign(&tampered).expect_err("hash mismatch must refuse resume");
    assert!(
        err.to_string().contains("resume verification failed"),
        "{err}"
    );
    std::fs::remove_file(&ckpt).ok();
}
