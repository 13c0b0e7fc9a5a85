//! The worker loop: claim a shard, execute its cells through the exact
//! single-process [`noiselab_core::run_cell`] path, checkpoint after
//! every cell, publish the finalized ledger, repeat until the queue is
//! drained.
//!
//! A worker is deliberately stateless between claims — everything it
//! knows is re-derived from the queue manifest, so a replacement worker
//! spawned after a SIGKILL resumes a half-done shard from its wip
//! checkpoint at cell granularity and produces the byte-identical
//! ledger the dead worker would have.

use crate::proto::{frame, WorkerMsg};
use crate::queue::WorkQueue;
use crate::shard::{IndexedCell, ShardResult};
use std::io::Write;
use std::path::PathBuf;

/// Test/chaos hook: a worker that claims the shard id named by this
/// environment variable aborts on the spot (raising SIGABRT — from the
/// supervisor's point of view, indistinguishable from a crash). The
/// quarantine tests use it to make one shard lethal deterministically.
pub const CRASH_SHARD_ENV: &str = "NOISELAB_WORKER_CRASH_SHARD";

/// What a worker process needs to start.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Queue root directory.
    pub queue: PathBuf,
    /// Identity recorded in leases and frames (diagnostics only).
    pub worker_id: String,
}

/// Write one protocol frame, flushed — a piped stdout is block-buffered
/// and every frame is a heartbeat, so buffering a frame is lying to the
/// supervisor's liveness clock. A write failure means the supervisor
/// went away (EPIPE); the worker winds down rather than running
/// unsupervised.
fn emit(msg: &WorkerMsg) -> Result<(), String> {
    let line = frame(msg);
    let mut out = std::io::stdout().lock();
    out.write_all(line.as_bytes())
        .and_then(|_| out.write_all(b"\n"))
        .and_then(|_| out.flush())
        .map_err(|e| format!("worker stdout closed: {e}"))
}

/// Entry point of the hidden `campaign-worker` subcommand. Exits `Ok`
/// when the queue has nothing left to claim; a final `Fault` frame is
/// emitted (best effort) before any error return.
pub fn worker_main(cfg: &WorkerConfig) -> Result<(), String> {
    run(cfg).inspect_err(|e| {
        let _ = emit(&WorkerMsg::Fault {
            shard: None,
            message: e.clone(),
        });
    })
}

fn run(cfg: &WorkerConfig) -> Result<(), String> {
    let (queue, manifest) = WorkQueue::open(&cfg.queue).map_err(|e| e.to_string())?;
    let resolved = manifest.spec.resolve().map_err(|e| e.to_string())?;
    let plan = manifest.spec.plan(&resolved);
    #[expect(
        clippy::disallowed_methods,
        reason = "a test hook that kills this worker on one shard; the merged ledger must not change"
    )]
    let crash_shard: Option<u32> = std::env::var(CRASH_SHARD_ENV)
        .ok()
        .and_then(|v| v.parse().ok());
    emit(&WorkerMsg::Hello {
        worker: cfg.worker_id.clone(),
        pid: std::process::id(),
    })?;

    while let Some(shard) = queue
        .claim(&cfg.worker_id, &manifest.shards)
        .map_err(|e| e.to_string())?
    {
        emit(&WorkerMsg::Claimed {
            worker: cfg.worker_id.clone(),
            shard: shard.id,
        })?;
        if crash_shard == Some(shard.id) {
            // Crash as abruptly as a SIGKILL would: no unwinding, no
            // lease release, wip left as-is.
            std::process::abort();
        }

        let fingerprint = shard.fingerprint(&manifest.fingerprint);
        let mut result = match queue.load_wip(shard.id) {
            Ok(Some(r)) if r.is_resumable_prefix_of(&shard, fingerprint) => {
                eprintln!(
                    "noiselab: worker {}: resuming shard {} from cell {}/{}",
                    cfg.worker_id,
                    shard.id,
                    r.cells.len(),
                    shard.len
                );
                r
            }
            Ok(Some(_)) => {
                eprintln!(
                    "noiselab: worker {}: shard {} wip belongs to a different \
                     campaign or geometry; restarting the shard",
                    cfg.worker_id, shard.id
                );
                ShardResult::new(shard.id, fingerprint)
            }
            Ok(None) => ShardResult::new(shard.id, fingerprint),
            Err(e) => {
                // A corrupt wip checkpoint (torn by a host crash sworn
                // impossible, or hand-edited) costs a shard restart,
                // never the campaign.
                eprintln!(
                    "noiselab: worker {}: {e}; restarting the shard",
                    cfg.worker_id
                );
                ShardResult::new(shard.id, fingerprint)
            }
        };

        for i in shard.cell_indices().skip(result.cells.len()) {
            let (label, cell_cfg) = &plan.cells[i];
            let record = noiselab_core::run_cell(&plan, i, label, cell_cfg);
            let done = WorkerMsg::CellDone {
                shard: shard.id,
                index: i,
                label: label.clone(),
                ok: record.samples.len() as u64,
                failed: record.failures.len() as u64,
                stream_hash: record.stream_hash,
            };
            result.cells.push(IndexedCell { index: i, record });
            // Checkpoint before the frame: `CellDone` promises the cell
            // is durable, so a kill right after the frame loses nothing.
            queue.save_wip(&result).map_err(|e| e.to_string())?;
            emit(&done)?;
        }

        result.finalize();
        queue.complete(&result).map_err(|e| e.to_string())?;
        emit(&WorkerMsg::ShardDone {
            shard: shard.id,
            hash: result.hash,
            cells: result.cells.len() as u64,
        })?;
    }

    emit(&WorkerMsg::Idle {
        worker: cfg.worker_id.clone(),
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::QuarantineNote;
    use crate::spec::tiny_spec;

    #[test]
    fn in_process_worker_drains_queue_and_skips_quarantined() {
        let root = std::env::temp_dir().join("noiselab-worker-unit");
        let _ = std::fs::remove_dir_all(&root);
        let spec = tiny_spec();
        let (queue, manifest) = WorkQueue::init(&root, &spec, 1).unwrap();
        // Quarantine one shard up front: the worker must leave it alone.
        queue
            .quarantine(&QuarantineNote {
                shard: 2,
                crashes: 3,
                reason: "pre-quarantined".into(),
            })
            .unwrap();
        let cfg = WorkerConfig {
            queue: root.clone(),
            worker_id: "unit".into(),
        };
        worker_main(&cfg).unwrap();
        let status = queue.status(&manifest);
        assert!(status.settled());
        assert_eq!((status.done, status.quarantined), (3, 1));
        // Ledgers hold the right cells with verifiable hashes.
        for shard in &manifest.shards {
            if shard.id == 2 {
                continue;
            }
            let r = queue.load_done(shard.id).unwrap().unwrap();
            assert_eq!(r.cells.len(), shard.len);
            assert_eq!(r.hash, r.fold_hash());
            assert_eq!(r.fingerprint, shard.fingerprint(&manifest.fingerprint));
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn wip_resume_completes_a_half_done_shard_identically() {
        let spec = tiny_spec();
        // Reference: a full run in one pass.
        let ref_root = std::env::temp_dir().join("noiselab-worker-ref");
        let _ = std::fs::remove_dir_all(&ref_root);
        let (ref_q, _) = WorkQueue::init(&ref_root, &spec, 4).unwrap();
        worker_main(&WorkerConfig {
            queue: ref_root.clone(),
            worker_id: "ref".into(),
        })
        .unwrap();
        let reference = ref_q.load_done(0).unwrap().unwrap();

        // Interrupted: run the full queue once, then surgically rewind
        // the shard to a 2-cell wip prefix and let a "replacement"
        // worker finish it.
        let root = std::env::temp_dir().join("noiselab-worker-resume");
        let _ = std::fs::remove_dir_all(&root);
        let (queue, _) = WorkQueue::init(&root, &spec, 4).unwrap();
        worker_main(&WorkerConfig {
            queue: root.clone(),
            worker_id: "first".into(),
        })
        .unwrap();
        let full = queue.load_done(0).unwrap().unwrap();
        let mut half = full.clone();
        half.cells.truncate(2);
        half.hash = 0;
        queue.save_wip(&half).unwrap();
        std::fs::remove_file(queue.done_path(0)).unwrap();
        worker_main(&WorkerConfig {
            queue: root.clone(),
            worker_id: "second".into(),
        })
        .unwrap();
        let resumed = queue.load_done(0).unwrap().unwrap();
        assert_eq!(resumed, full, "resume is bit-identical to one pass");
        assert_eq!(resumed, reference, "and to an independent queue");
        std::fs::remove_dir_all(&ref_root).ok();
        std::fs::remove_dir_all(&root).ok();
    }
}
