//! The state one benchmark round threads through its calls: the
//! running digest of everything simulated, the operation count, the
//! per-layer sums, and (in the traced round only) the span log.

use crate::spans::SpanLog;
use noiselab_bench::wall_clock;
use noiselab_kernel::sanitize::fnv1a_extend;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// FNV-1a offset basis: the digest of an empty round.
pub const DIGEST_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// A failed correctness check: which one, and what was seen.
#[derive(Debug)]
pub struct Failure {
    pub check: String,
    pub detail: String,
}

pub fn fail<T>(check: &str, detail: impl Into<String>) -> Result<T, Failure> {
    Err(Failure {
        check: check.to_string(),
        detail: detail.into(),
    })
}

/// Captured output of one CLI stage.
pub struct CliOut {
    pub stdout: String,
    pub stderr: String,
}

pub struct Ctx {
    /// The `noiselab` executable the CLI stages run.
    cli: PathBuf,
    /// Directory the CLI stages run in; artifact names are relative to
    /// it, so artifacts are byte-stable across rounds.
    pub work: PathBuf,
    /// Workload seed the round's inputs derive from.
    pub seed: u64,
    round: u32,
    digest: u64,
    ops: u64,
    layer: BTreeMap<String, f64>,
    spans: Option<SpanLog>,
}

impl Ctx {
    pub fn new(cli: PathBuf, work: PathBuf, seed: u64) -> Self {
        Ctx {
            cli,
            work,
            seed,
            round: 0,
            digest: DIGEST_BASIS,
            ops: 0,
            layer: BTreeMap::new(),
            spans: None,
        }
    }

    /// Start round `round`, recording spans into `spans` when given.
    pub fn begin_round(&mut self, round: u32, spans: Option<SpanLog>) {
        self.round = round;
        self.digest = DIGEST_BASIS;
        self.layer.clear();
        self.spans = spans;
    }

    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Operations attempted since the context was made.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    pub fn layer(&self) -> &BTreeMap<String, f64> {
        &self.layer
    }

    pub fn take_spans(&mut self) -> Option<SpanLog> {
        self.spans.take()
    }

    /// Fold simulated output into the round digest.
    pub fn absorb(&mut self, bytes: &[u8]) {
        self.digest = fnv1a_extend(self.digest, bytes);
    }

    /// Add `value` to a per-layer sum and record it as a count on the
    /// span opened last, which is the call it describes.
    pub fn add(&mut self, key: &str, value: f64) {
        *self.layer.entry(key.to_string()).or_insert(0.0) += value;
        if let Some(s) = self.spans.as_mut() {
            s.count(key, value);
        }
    }

    /// Open a grouping span (no-op outside the traced round).
    pub fn enter(&mut self, name: &str, cell: &str) {
        let round = self.round;
        if let Some(s) = self.spans.as_mut() {
            s.open(name, cell, round);
        }
    }

    pub fn exit(&mut self) {
        if let Some(s) = self.spans.as_mut() {
            s.close();
        }
    }

    /// Run one operation under a span; returns its result and seconds.
    pub fn call<T>(&mut self, name: &str, cell: &str, f: impl FnOnce() -> T) -> (T, f64) {
        self.ops += 1;
        self.enter(name, cell);
        let t0 = wall_clock();
        let out = f();
        let secs = wall_clock().duration_since(t0).as_secs_f64();
        self.exit();
        (out, secs)
    }

    /// Run one `noiselab` CLI stage in the work directory with
    /// `threads` simulation threads; a non-zero exit fails the check
    /// named after the stage.
    pub fn cli(
        &mut self,
        cell: &str,
        args: &[&str],
        threads: u32,
    ) -> Result<(CliOut, f64), Failure> {
        let stage = format!("cli:{}", args[0]);
        let mut cmd = Command::new(&self.cli);
        cmd.args(args)
            .current_dir(&self.work)
            .env("NOISELAB_HOST_THREADS", threads.to_string())
            .stdin(Stdio::null());
        let (out, secs) = self.call(&stage, cell, || cmd.output());
        let out = match out {
            Ok(o) => o,
            Err(e) => return fail(&stage, format!("cannot run {}: {e}", self.cli.display())),
        };
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        if !out.status.success() {
            return fail(
                &stage,
                format!("`noiselab {}` {}: {stderr}", args.join(" "), out.status),
            );
        }
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        Ok((CliOut { stdout, stderr }, secs))
    }

    /// Read an artifact the round wrote into the work directory.
    pub fn read(&self, name: &str) -> Result<Vec<u8>, Failure> {
        let path = self.work.join(name);
        std::fs::read(&path).or_else(|e| fail("artifact", format!("{}: {e}", path.display())))
    }

    /// Remove an artifact (file or directory) left by the previous round.
    pub fn remove(&self, name: &str) -> Result<(), Failure> {
        remove_path(&self.work.join(name))
            .or_else(|e| fail("artifact", format!("remove {name}: {e}")))
    }
}

/// Remove a file or directory tree; a missing path is not an error.
pub fn remove_path(path: &Path) -> std::io::Result<()> {
    let res = match std::fs::symlink_metadata(path) {
        Ok(m) if m.is_dir() => std::fs::remove_dir_all(path),
        Ok(_) => std::fs::remove_file(path),
        Err(e) => Err(e),
    };
    match res {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        other => other,
    }
}
