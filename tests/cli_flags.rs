//! Every `noiselab` flag is read through one typed reader: a malformed
//! value, a misspelt flag, or a flag of the other campaign engine is an
//! error that names the flag before anything runs, never a silent
//! default.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A scratch directory per test, so nothing a refused command might have
/// written lands in the source tree.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("noiselab-cli-flags-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn noiselab(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_noiselab"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn noiselab")
}

/// `cmd` (split on whitespace) exits nonzero, prints nothing on stdout,
/// and names `flag` on stderr.
fn assert_refused(dir: &PathBuf, cmd: &str, flag: &str) {
    let args: Vec<&str> = cmd.split_whitespace().collect();
    let out = noiselab(dir, &args);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{cmd} must fail");
    assert!(
        out.stdout.is_empty(),
        "{cmd} must not run: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(err.contains(flag), "{cmd} must name {flag}: {err}");
}

#[test]
fn malformed_values_are_errors_naming_the_flag() {
    let dir = scratch("malformed");
    for (cmd, flag) in [
        ("baseline --workload nbody-tiny --runs abc", "--runs"),
        ("baseline --workload nbody-tiny --seed xyz", "--seed"),
        ("conform --seed 0xZZ", "--seed"),
        ("audit --workload nbody-tiny --json maybe", "--json"),
        ("baseline --workload nbody-tiny --smt yes", "--smt"),
        (
            "generate --traces t.json --out c.json --merge naiv",
            "--merge",
        ),
        (
            "trace --workload nbody-tiny --out t.json --boost lots",
            "--boost",
        ),
    ] {
        assert_refused(&dir, cmd, flag);
    }
}

#[test]
fn unread_flags_are_errors_naming_the_flag() {
    let dir = scratch("unread");
    assert_refused(&dir, "baseline --workload nbody-tiny --runz 3", "--runz");
    // `--limit` belongs to the single-process engine only.
    let cmd = "campaign --workload nbody-tiny --workers 2 --limit 1";
    assert_refused(&dir, cmd, "--limit");
    assert!(
        !dir.join("campaign.queue").exists(),
        "a refused campaign must not create its queue"
    );
}

#[test]
fn crash_probabilities_outside_zero_to_one_are_errors() {
    let dir = scratch("crash-prob");
    for p in ["1.5", "-1", "nan"] {
        let cmd = format!("campaign --workload nbody-tiny --crash-prob {p}");
        assert_refused(&dir, &cmd, "--crash-prob");
    }
}

#[test]
fn crash_windows_that_are_empty_or_overflow_are_errors() {
    let dir = scratch("crash-window");
    for ms in ["0", "18446744073709551615"] {
        let cmd = format!("campaign --workload nbody-tiny --crash-prob 0.5 --crash-window-ms {ms}");
        assert_refused(&dir, &cmd, "--crash-window-ms");
    }
}

#[test]
fn seed_ranges_past_u64_max_are_errors() {
    let dir = scratch("seed-range");
    let max = "0xffffffffffffffff";
    for cmd in [
        format!("baseline --workload nbody-tiny --runs 2 --seed {max}"),
        format!("metrics --workload nbody-tiny --runs 2 --seed {max}"),
        format!("inject --workload nbody-tiny --runs 1 --config c.json --seed {max}"),
        format!("campaign --workload nbody-tiny --runs 1 --seed {max}"),
        format!("campaign --workload nbody-tiny --runs 1 --workers 2 --seed {max}"),
    ] {
        assert_refused(&dir, &cmd, "--seed");
    }
    assert!(
        !dir.join("campaign.queue").exists(),
        "a refused campaign must not create its queue"
    );
}

#[test]
fn inject_refuses_an_invalid_config() {
    let dir = scratch("inject-config");
    let event = |start: u64, duration: u64| {
        format!(
            r#"{{"start": {start}, "duration": {duration}, "policy": "Fifo", "source": "hand"}}"#
        )
    };
    for (name, events) in [
        ("unsorted", [event(500_000, 10_000), event(100_000, 10_000)]),
        ("zero", [event(100_000, 0), event(500_000, 10_000)]),
    ] {
        let config = format!(
            r#"{{"origin": "hand", "anomaly_exec": 4000000,
                "lists": [{{"cpu": 0, "events": [{}, {}]}}]}}"#,
            events[0], events[1]
        );
        std::fs::write(dir.join(format!("{name}.json")), config).unwrap();
        let cmd = format!("inject --workload nbody-tiny --runs 2 --config {name}.json");
        assert_refused(&dir, &cmd, "--config");
    }
}

#[test]
fn zero_runs_are_refused_naming_runs() {
    let dir = scratch("zero-runs");
    for cmd in [
        "baseline --workload nbody-tiny --runs 0",
        "trace --workload nbody-tiny --runs 0 --out t.json",
        "inject --workload nbody-tiny --runs 0 --config c.json",
        "metrics --workload nbody-tiny --runs 0",
        "campaign --workload nbody-tiny --runs 0 --checkpoint state.json",
        "campaign --workload nbody-tiny --runs 0 --workers 2 --checkpoint state.json",
    ] {
        assert_refused(&dir, cmd, "--runs");
    }
    for artifact in ["t.json", "state.json", "campaign.queue"] {
        assert!(
            !dir.join(artifact).exists(),
            "a refused command must not create {artifact}"
        );
    }
}
