//! Bit-identity gate for hot-path work: the dispatched event stream of
//! a battery of reference cells is pinned in a committed fixture, so a
//! "host-cost-only" optimization that moves a single virtual bit fails
//! here instead of silently changing results.
//!
//! Regenerate (only when a *semantic* change is intended and called
//! out in EXPERIMENTS.md) with:
//!
//! ```text
//! NOISELAB_UPDATE_FIXTURES=1 cargo test -p noiselab-core --test stream_identity
//! ```

use noiselab_core::{ExecConfig, Mitigation, Model, Platform, RunSpec};
use noiselab_kernel::{CpuStallSpec, FaultPlan, SpuriousIrqSpec, ThreadAbortSpec};
use noiselab_sim::SimDuration;
use noiselab_testutil::run_fresh;
use noiselab_workloads::{Babelstream, MiniFE, NBody, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/stream_hashes.json"
);

fn workloads() -> Vec<(&'static str, Box<dyn Workload + Sync>)> {
    vec![
        ("nbody", Box::new(noiselab_testutil::tiny_nbody(3))),
        (
            "babelstream",
            Box::new(Babelstream {
                elements: 200_000,
                iterations: 10,
                ..Babelstream::default()
            }),
        ),
        (
            "minife",
            Box::new(MiniFE {
                nx: 20,
                cg_iterations: 20,
                ..MiniFE::default()
            }),
        ),
        (
            "nbody-large",
            Box::new(NBody {
                bodies: 8_192,
                steps: 2,
                sycl_kernel_efficiency: 1.3,
            }),
        ),
    ]
}

/// Every fault kind at once. The abort fires in about half the runs, so
/// the battery pins failed cells (by cause) as well as perturbed ones.
fn fault_plan() -> FaultPlan {
    FaultPlan {
        seed: 0xFA17,
        lost_tick_prob: 0.02,
        late_tick_prob: 0.05,
        late_tick_max: SimDuration::from_micros(50),
        spurious: Some(SpuriousIrqSpec {
            rate_per_sec: 2_000.0,
            service_mean: SimDuration::from_micros(5),
            window: SimDuration::from_millis(20),
        }),
        stall: Some(CpuStallSpec {
            start: (SimDuration::ZERO, SimDuration::from_millis(2)),
            duration: (SimDuration::from_micros(100), SimDuration::from_micros(300)),
        }),
        abort: Some(ThreadAbortSpec {
            prob: 0.5,
            window: (SimDuration::ZERO, SimDuration::from_millis(2)),
        }),
    }
}

fn battery() -> BTreeMap<String, String> {
    let p = Platform::intel();
    let configs = [
        ("Rm-OMP", ExecConfig::new(Model::Omp, Mitigation::Rm)),
        ("TP-OMP", ExecConfig::new(Model::Omp, Mitigation::Tp)),
        ("Rm-SYCL", ExecConfig::new(Model::Sycl, Mitigation::Rm)),
    ];
    let plan = fault_plan();
    let inject = noiselab_testutil::small_injection();
    let mut out = BTreeMap::new();
    for (wname, w) in workloads() {
        for (cname, cfg) in &configs {
            for seed in [1u64, 2] {
                let plain = RunSpec::new(&p, w.as_ref(), cfg, seed);
                for tracing in [false, true] {
                    let run = run_fresh(&RunSpec {
                        tracing,
                        ..plain.clone()
                    })
                    .expect("battery run failed");
                    let key = format!(
                        "{wname}/{cname}/seed{seed}/{}",
                        if tracing { "traced" } else { "plain" }
                    );
                    out.insert(
                        key,
                        format!("{:016x}:{}", run.stream_hash, run.exec.nanos()),
                    );
                }
                let faulted = RunSpec {
                    faults: Some(&plan),
                    ..plain.clone()
                };
                let injected = RunSpec {
                    inject: Some(&inject),
                    ..plain
                };
                for (kind, spec) in [("faulted", faulted), ("injected", injected)] {
                    let run = run_fresh(&spec);
                    let value = match run {
                        Ok(run) => format!("{:016x}:{}", run.stream_hash, run.exec.nanos()),
                        Err(f) => format!("failed:{f}"),
                    };
                    out.insert(format!("{wname}/{cname}/seed{seed}/{kind}"), value);
                }
            }
        }
    }
    out
}

#[test]
fn event_streams_match_committed_fixture() {
    let got = battery();
    if std::env::var("NOISELAB_UPDATE_FIXTURES").is_ok_and(|v| v == "1") {
        let mut json = String::from("{\n");
        for (i, (k, v)) in got.iter().enumerate() {
            let comma = if i + 1 == got.len() { "" } else { "," };
            writeln!(json, "  \"{k}\": \"{v}\"{comma}").unwrap();
        }
        json.push_str("}\n");
        std::fs::write(FIXTURE, json).expect("write fixture");
        eprintln!(
            "stream_identity: fixture regenerated with {} cells",
            got.len()
        );
        return;
    }
    let raw = std::fs::read_to_string(FIXTURE)
        .expect("missing stream-hash fixture; run with NOISELAB_UPDATE_FIXTURES=1 to create it");
    // Flat `"key": "value"` map written by the update branch above;
    // parsed by hand because the vendored serde stub has no map
    // deserializer.
    let mut want = BTreeMap::new();
    for line in raw.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some(rest) = line.strip_prefix('"') else {
            continue;
        };
        let Some((key, rest)) = rest.split_once("\": \"") else {
            continue;
        };
        let Some(value) = rest.strip_suffix('"') else {
            continue;
        };
        want.insert(key.to_string(), value.to_string());
    }
    assert!(!want.is_empty(), "fixture parse failed");
    let mut bad = Vec::new();
    for (k, v) in &want {
        match got.get(k) {
            Some(g) if g == v => {}
            Some(g) => bad.push(format!("{k}: fixture {v} != current {g}")),
            None => bad.push(format!("{k}: cell missing from battery")),
        }
    }
    for k in got.keys() {
        if !want.contains_key(k) {
            bad.push(format!("{k}: not in fixture (regenerate)"));
        }
    }
    assert!(
        bad.is_empty(),
        "event-stream identity violated ({} cells):\n  {}",
        bad.len(),
        bad.join("\n  ")
    );
}
