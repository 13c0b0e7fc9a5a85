//! Determinism-equivalence gate for the tickless-idle kernel: for every
//! workload × runtime model × platform cell, an eager-tick run and a
//! tickless run at the same seed must produce identical execution times
//! and identical busy-CPU traces. This is what licenses shipping
//! tickless as the default for paper-scale (1000-run) replication.

use noiselab_core::{ExecConfig, Mitigation, Model, Platform, RunSpec};
use noiselab_kernel::KernelConfig;
use noiselab_testutil::{
    platforms, run_fresh, scaled_nbody, scaled_workloads as workloads, tickless_config,
};
use noiselab_workloads::Workload;

fn eager() -> KernelConfig {
    tickless_config(false)
}

fn tickless() -> KernelConfig {
    let cfg = KernelConfig::default();
    assert!(cfg.tickless, "tickless must be the default kernel mode");
    cfg
}

fn assert_cell_equivalent(
    platform: &Platform,
    pname: &str,
    workload: &(dyn Workload + Sync),
    wname: &str,
    cfg: &ExecConfig,
    seed: u64,
) {
    let traced = |kconfig| RunSpec {
        kconfig,
        tracing: true,
        ..RunSpec::new(platform, workload, cfg, seed)
    };
    let e = run_fresh(&traced(eager())).unwrap();
    let t = run_fresh(&traced(tickless())).unwrap();
    assert_eq!(
        e.exec,
        t.exec,
        "exec time diverged: {pname}/{wname}/{} seed {seed}",
        cfg.label()
    );
    // Busy CPUs must record exactly the same noise events; idle CPUs
    // record none in either mode, so the whole trace must match.
    assert_eq!(
        e.trace,
        t.trace,
        "trace diverged: {pname}/{wname}/{} seed {seed}",
        cfg.label()
    );
    assert_eq!(
        e.anomaly, t.anomaly,
        "anomaly diverged: {pname}/{wname} seed {seed}"
    );
}

#[test]
fn every_cell_is_equivalent_omp() {
    for (pname, p) in platforms() {
        for (wname, w) in workloads() {
            let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm);
            assert_cell_equivalent(&p, pname, w.as_ref(), wname, &cfg, 21);
        }
    }
}

#[test]
fn every_cell_is_equivalent_sycl() {
    for (pname, p) in platforms() {
        for (wname, w) in workloads() {
            let cfg = ExecConfig::new(Model::Sycl, Mitigation::Rm);
            assert_cell_equivalent(&p, pname, w.as_ref(), wname, &cfg, 22);
        }
    }
}

#[test]
fn mitigations_and_smt_cells_are_equivalent() {
    // The mitigation axis changes which CPUs idle (housekeeping sets,
    // SMT siblings) — exactly the CPUs whose ticks park. Cover the
    // remaining configuration shapes on one platform/workload.
    let p = Platform::intel();
    let w = scaled_nbody();
    for mitigation in [Mitigation::RmHK, Mitigation::Tp, Mitigation::TpHK] {
        let cfg = ExecConfig::new(Model::Omp, mitigation);
        assert_cell_equivalent(&p, "intel", &w, "nbody", &cfg, 23);
    }
    let smt = ExecConfig::new(Model::Omp, Mitigation::Rm).with_smt();
    assert_cell_equivalent(&p, "intel", &w, "nbody", &smt, 24);
}

#[test]
fn equivalence_holds_across_seeds() {
    let p = Platform::amd();
    let w = scaled_nbody();
    let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm);
    for seed in 100..110 {
        assert_cell_equivalent(&p, "amd", &w, "nbody", &cfg, seed);
    }
}
