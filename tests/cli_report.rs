//! `noiselab report` refuses what it cannot honour: an unknown `--scale`
//! or `--what` is an error naming every accepted value, never a silent
//! run at some other size. A well-formed report prints its section, byte
//! for byte as in the committed golden transcript, and exits 0 when the
//! paper's shape holds. The sections checked here are the quick ones;
//! CI's `paper-shapes` job diffs the whole transcript.

use std::process::{Command, Output};

fn report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_noiselab"))
        .arg("report")
        .args(args)
        .output()
        .expect("spawn noiselab")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unknown_scale_is_an_error_naming_the_scales() {
    for scale in ["smok", "Smoke", ""] {
        let out = report(&["--what", "table1", "--scale", scale]);
        assert!(!out.status.success(), "--scale '{scale}' must fail");
        assert!(out.stdout.is_empty(), "--scale '{scale}' must not run");
        let err = stderr(&out);
        assert!(err.contains("smoke|bench|paper"), "{scale}: {err}");
    }
}

#[test]
fn unknown_report_is_an_error_naming_every_report() {
    let out = report(&["--what", "table8", "--scale", "smoke"]);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
    let err = stderr(&out);
    for name in [
        "table1",
        "table2",
        "table3",
        "table4",
        "table5",
        "table6",
        "table7",
        "fig1",
        "fig2",
        "merge",
        "memory",
        "runlevel3",
        "numa",
        "fwq",
        "all",
    ] {
        assert!(err.contains(name), "'{name}' missing from: {err}");
    }
    assert!(!err.contains("cargo bench"), "{err}");
}

/// The committed stdout of `report --what all --scale smoke`. CI's
/// `paper-shapes` job diffs the whole transcript against it; sections
/// are separated by one blank line.
const GOLDEN: &str = include_str!("fixtures/report_all_smoke.txt");

/// `report --what <what> --scale smoke` passes its shape and prints the
/// golden transcript's `n`-th section byte for byte.
fn prints_its_golden_section(what: &str, n: usize) {
    let out = report(&["--what", what, "--scale", "smoke"]);
    assert!(out.status.success(), "{what}: {}", stderr(&out));
    let section = GOLDEN.split("\n\n").nth(n).unwrap_or_default();
    let golden = format!("{}\n", section.trim_end_matches('\n'));
    let printed = String::from_utf8_lossy(&out.stdout);
    assert_eq!(printed, golden, "{what} moved from its golden section");
}

#[test]
fn table1_at_smoke_scale_prints_and_passes_its_shape() {
    prints_its_golden_section("table1", 0);
}

#[test]
fn merge_at_smoke_scale_matches_its_golden_section() {
    prints_its_golden_section("merge", 9);
}

#[test]
fn memory_at_smoke_scale_matches_its_golden_section() {
    prints_its_golden_section("memory", 10);
}

#[test]
fn runlevel3_at_smoke_scale_matches_its_golden_section() {
    prints_its_golden_section("runlevel3", 11);
}

#[test]
fn numa_at_smoke_scale_matches_its_golden_section() {
    prints_its_golden_section("numa", 12);
}

#[test]
fn fwq_at_smoke_scale_matches_its_golden_section() {
    prints_its_golden_section("fwq", 13);
}
