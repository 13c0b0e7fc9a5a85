//! `noiselab audit` refuses what it cannot honour: a flag of the removed
//! static pass, or a `--perturb`/`--cadence` that is not a number, is an
//! error, never a silent dual run that exits 0.

use std::process::{Command, Output};

fn audit(extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_noiselab"))
        .args(["audit", "--workload", "nbody-tiny", "--seed", "7"])
        .args(extra)
        .output()
        .expect("spawn noiselab")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn static_pass_flags_are_errors_that_name_clippy() {
    for extra in [
        &["--static"][..],
        &["--static", "--json"],
        &["--sarif", "audit.sarif"],
        &["--root", "."],
        &["--dual-run", "--static"],
    ] {
        let out = audit(extra);
        assert!(!out.status.success(), "{extra:?} must fail");
        assert!(out.stdout.is_empty(), "{extra:?} must not run the dual run");
        let err = stderr(&out);
        assert!(err.contains("cargo clippy"), "{extra:?}: {err}");
    }
}

#[test]
fn malformed_numbers_are_errors() {
    for extra in [
        &["--perturb", "ten"][..],
        &["--perturb", "-1"],
        &["--perturb"],
        &["--cadence", "fast"],
        &["--cadence", "6.4"],
    ] {
        let out = audit(extra);
        assert!(!out.status.success(), "{extra:?} must fail");
        assert!(out.stdout.is_empty(), "{extra:?} must not run the dual run");
        let key = extra[0].trim_start_matches("--");
        let err = stderr(&out);
        assert!(
            err.contains(&format!("--{key} wants a non-negative integer")),
            "{extra:?}: {err}"
        );
    }
}

#[test]
fn well_formed_dual_runs_still_pass_and_diverge() {
    for extra in [&[][..], &["--dual-run"], &["--dual-run", "--cadence", "8"]] {
        let out = audit(extra);
        assert!(out.status.success(), "{extra:?}: {}", stderr(&out));
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.starts_with("dual run identical"), "{extra:?}: {text}");
    }
    let out = audit(&["--dual-run", "--perturb", "10"]);
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("first divergent event"), "{text}");
    assert!(text.contains("sanitizer:perturb"), "{text}");
}
