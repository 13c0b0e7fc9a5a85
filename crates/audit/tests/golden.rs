//! The `audit:allow` grammar's golden cases, plus the live gate: the
//! actual workspace must sweep clean.

use noiselab_audit::{analyze_sources, audit_workspace, AuditReport, RuleId, SourceSpec};
use std::path::{Path, PathBuf};

fn analyze(name: &str, src: String) -> AuditReport {
    analyze_sources(&[SourceSpec {
        path: name.to_string(),
        src,
        rules: &RuleId::ALL,
    }])
}

fn fixture(name: &str) -> AuditReport {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    analyze(name, src)
}

fn hits(report: &AuditReport) -> Vec<(RuleId, u32)> {
    report.violations.iter().map(|v| (v.rule, v.line)).collect()
}

/// Reasonless and unknown-rule annotations fail as bad-allow — the
/// acceptance bar is "every audit:allow carrying a reason" — and an
/// allow that covers nothing is reported stale.
#[test]
fn malformed_allows_are_bad_allow() {
    let report = fixture("bad_allow.rs");
    assert_eq!(
        hits(&report),
        vec![(RuleId::BadAllow, 3), (RuleId::BadAllow, 7)],
        "{}",
        report.render_human()
    );
    assert_eq!(report.stale_allows.len(), 1, "{:?}", report.stale_allows);
    assert_eq!(report.stale_allows[0].rule, "taint-env");
    assert_eq!(report.stale_allows[0].line, 10);
}

/// The rules that moved to clippy no longer exist here: naming one in
/// an allow is an unknown rule, so a leftover annotation cannot pass
/// silently — and it suppresses nothing.
#[test]
fn removed_rule_names_are_unknown() {
    for name in [
        "hash-iteration",
        "wall-clock",
        "entropy",
        "host-thread",
        "static-mut",
        "panic-path",
    ] {
        let report = analyze(
            "old.rs",
            format!(
                "pub fn stamp(seed: u64) -> u64 {{\n\
                 // audit:allow({name}): written for the old lexical rule\n\
                 fnv1a_extend(seed, std::time::Instant::now().elapsed().as_nanos() as u64)\n}}\n"
            ),
        );
        assert_eq!(
            hits(&report),
            vec![(RuleId::BadAllow, 2), (RuleId::TaintWallClock, 3)],
            "{name}: {}",
            report.render_human()
        );
        assert!(
            report.violations[0]
                .message
                .contains(&format!("unknown rule '{name}'")),
            "{name}: {}",
            report.violations[0].message
        );
        assert!(report.stale_allows.is_empty(), "{name}");
    }
}

/// The live gate: the workspace this test runs in must sweep clean,
/// with no stale allow. This is the same pass CI runs via
/// `noiselab audit --static`.
#[test]
fn workspace_sweeps_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("audit crate lives two levels under the workspace root");
    let report = audit_workspace(root).expect("sweep must succeed");
    assert!(report.files_scanned > 30, "suspiciously small sweep");
    assert!(
        report.clean() && report.stale_allows.is_empty(),
        "workspace has unannotated determinism violations or stale allows:\n{}",
        report.render_human()
    );
}
