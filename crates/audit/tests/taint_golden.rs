//! Golden tests for the taint rules: every rule has a positive, a
//! negative, and an allowed section in its fixture, plus a
//! cross-function pair and the seeded laundered-wall-clock bug that no
//! API ban can see.

use noiselab_audit::{analyze_sources, RuleId, SourceSpec};
use proptest::prelude::*;

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Analyze a set of fixtures together.
fn analyze_taint(names: &[&str]) -> noiselab_audit::AuditReport {
    let srcs: Vec<SourceSpec> = names
        .iter()
        .map(|n| SourceSpec {
            path: (*n).to_string(),
            src: fixture(n),
            rules: &RuleId::ALL,
        })
        .collect();
    analyze_sources(&srcs)
}

/// Each single-file fixture must report exactly one finding — the one
/// from its `pos` function — under the expected rule, with a non-empty
/// source→sink path, and no stale allows (the `allowed` section uses
/// its annotation).
#[test]
fn taint_fixtures_trigger_exactly_their_rule() {
    let cases = [
        ("taint_wall_clock.rs", RuleId::TaintWallClock),
        ("taint_hash_order.rs", RuleId::TaintHashOrder),
        ("taint_addr.rs", RuleId::TaintAddr),
        ("taint_env.rs", RuleId::TaintEnv),
        ("taint_relaxed.rs", RuleId::TaintRelaxed),
        ("taint_float_order.rs", RuleId::TaintFloatOrder),
        ("taint_thread_id.rs", RuleId::TaintThreadId),
        // DVFS axis: float-derived frequency state must never reach a
        // checkpoint sink; the integer kHz/milli-heat path is clean.
        ("taint_freq_checkpoint.rs", RuleId::TaintFloatOrder),
    ];
    for (file, rule) in cases {
        let report = analyze_taint(&[file]);
        let rules: Vec<RuleId> = report.violations.iter().map(|v| v.rule).collect();
        assert_eq!(
            rules,
            vec![rule],
            "{file}: expected exactly one {} finding, got {:?}",
            rule.name(),
            report
                .violations
                .iter()
                .map(|v| format!("{}:{} {}", v.file, v.line, v.rule.name()))
                .collect::<Vec<_>>()
        );
        let v = &report.violations[0];
        assert!(
            !v.path.is_empty(),
            "{file}: taint finding must carry a source→sink path"
        );
        assert!(
            report.stale_allows.is_empty(),
            "{file}: allowed section should use its annotation, got stale {:?}",
            report.stale_allows
        );
    }
}

/// Taint born in one file reaches sinks defined in another: the
/// summary pass must carry `param_sinks` across the file boundary,
/// and the hop chain must name both files.
#[test]
fn cross_file_fixture_reports_both_flows() {
    let report = analyze_taint(&["taint_cross_fn_app.rs", "taint_cross_fn_lib.rs"]);
    let mut rules: Vec<RuleId> = report.violations.iter().map(|v| v.rule).collect();
    rules.sort();
    assert_eq!(
        rules,
        vec![RuleId::TaintWallClock, RuleId::TaintRelaxed],
        "expected one relaxed-atomic and one wall-clock cross-file flow, got {:?}",
        report
            .violations
            .iter()
            .map(|v| format!("{}:{} {}", v.file, v.line, v.rule.name()))
            .collect::<Vec<_>>()
    );
    for v in &report.violations {
        let files: std::collections::BTreeSet<&str> =
            v.path.iter().map(|h| h.file.as_str()).collect();
        assert!(
            files.contains("taint_cross_fn_app.rs") && files.contains("taint_cross_fn_lib.rs"),
            "hop chain should span both fixture files, got {:?}",
            v.path
        );
    }
}

/// The seeded bug: a wall-clock read laundered through TWO
/// intermediate function calls before reaching the stream-hash fold.
/// No banned API appears in the fixture (it calls the approved
/// `wall_clock()` wrapper), so only the taint analyzer can see it; it
/// reports the full path.
#[test]
fn taint_catches_laundered_wall_clock() {
    // One wall-clock → stream-hash finding, whose path crosses both
    // intermediate calls.
    let report = analyze_taint(&["laundered_wall_clock.rs"]);
    assert_eq!(report.violations.len(), 1, "{}", report.render_human());
    let v = &report.violations[0];
    assert_eq!(v.rule, RuleId::TaintWallClock);
    assert!(
        v.path.len() >= 4,
        "expected source + two intermediate returns + sink, got {:?}",
        v.path
    );
    let notes = v
        .path
        .iter()
        .map(|h| h.note.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(
        notes.contains("read_host_timer") && notes.contains("jitter_estimate"),
        "path should name both intermediates:\n{notes}"
    );
}

/// Every fixture that participates in the order-stability property.
const ORDER_FIXTURES: [&str; 10] = [
    "laundered_wall_clock.rs",
    "taint_wall_clock.rs",
    "taint_hash_order.rs",
    "taint_addr.rs",
    "taint_env.rs",
    "taint_relaxed.rs",
    "taint_float_order.rs",
    "taint_thread_id.rs",
    "taint_cross_fn_app.rs",
    "taint_cross_fn_lib.rs",
];

fn analyze_in_order(order: &[usize]) -> String {
    let srcs: Vec<SourceSpec> = order
        .iter()
        .map(|&i| SourceSpec {
            path: ORDER_FIXTURES[i].to_string(),
            src: fixture(ORDER_FIXTURES[i]),
            rules: &RuleId::ALL,
        })
        .collect();
    analyze_sources(&srcs).render_json()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The analyzer is byte-deterministic: JSON output over a set of
    /// files must not depend on the order the files are visited in.
    /// (The analyzer itself must pass its own audit, so it may not
    /// lean on hash-map iteration anywhere on this path.)
    #[test]
    fn audit_output_is_byte_stable_across_file_order(seed in 0u64..u64::MAX) {
        let baseline = analyze_in_order(&(0..ORDER_FIXTURES.len()).collect::<Vec<_>>());

        // Fisher-Yates driven by a splitmix64 stream off the seed.
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut order: Vec<usize> = (0..ORDER_FIXTURES.len()).collect();
        for i in (1..order.len()).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }

        let shuffled = analyze_in_order(&order);
        prop_assert!(
            baseline == shuffled,
            "visit order {:?} changed the report",
            order
        );
    }
}
