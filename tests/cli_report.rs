//! `noiselab report` refuses what it cannot honour: an unknown `--scale`
//! or `--what` is an error naming every accepted value, never a silent
//! run at some other size. A well-formed report prints its table, byte
//! for byte as in the committed golden transcript, and exits 0 when the
//! paper's shape holds.

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

#[test]
fn table1_at_smoke_scale_prints_and_passes_its_shape() {
    let out = report(&["--what", "table1", "--scale", "smoke"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(table.contains("Table 1"), "{table}");
    let golden = GOLDEN.split("\n\n").next().unwrap_or_default().to_string() + "\n";
    assert_eq!(table, golden, "Table 1 moved from its golden section");
}
