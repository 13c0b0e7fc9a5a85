//! Worker → supervisor stream protocol: one framed JSON message per
//! line on the worker's stdout.
//!
//! Frames are ordinary lines prefixed with [`FRAME_PREFIX`]; anything
//! else on stdout passes through untouched (workload prints, stray
//! diagnostics), so the protocol coexists with arbitrary output.
//! Every frame doubles as a **heartbeat** — the supervisor resets a
//! worker's liveness clock on any frame, which is why workers emit
//! `CellDone` eagerly (and flushed: a piped stdout is block-buffered,
//! and an unflushed frame is an unreported heartbeat).
//!
//! The frame format is versioned in the prefix itself (`@nlshard1`);
//! a future v2 changes the prefix and old supervisors simply pass the
//! unknown lines through instead of misparsing them.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Line prefix marking a protocol frame (version 1), trailing space
/// included.
pub const FRAME_PREFIX: &str = "@nlshard1 ";

/// Messages a worker streams while executing shards.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkerMsg {
    /// First frame after startup.
    Hello { worker: String, pid: u32 },
    /// A shard lease was won.
    Claimed { worker: String, shard: u32 },
    /// One cell finished (and its wip checkpoint is durable).
    CellDone {
        shard: u32,
        index: usize,
        label: String,
        ok: u64,
        failed: u64,
        stream_hash: u64,
    },
    /// A shard ledger was finalized into `done/`.
    ShardDone { shard: u32, hash: u64, cells: u64 },
    /// No claimable shards remain; the worker is about to exit 0.
    Idle { worker: String },
    /// The worker hit a fatal error and is about to exit nonzero.
    Fault { shard: Option<u32>, message: String },
}

/// A line that carried the frame prefix but not a valid frame — typed,
/// with the byte offset of the first bad input inside the payload.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameError {
    /// Byte offset into the *line* (prefix included) when known.
    pub offset: Option<usize>,
    pub message: String,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad worker frame")?;
        if let Some(o) = self.offset {
            write!(f, " at byte {o}")?;
        }
        write!(f, ": {}", self.message)
    }
}

impl std::error::Error for FrameError {}

/// Encode a message as a frame line (no trailing newline).
pub fn frame(msg: &WorkerMsg) -> String {
    let json = serde_json::to_string(msg).expect("WorkerMsg serializes");
    format!("{FRAME_PREFIX}{json}")
}

/// Decode one stdout line. `Ok(None)` for ordinary (non-frame) lines,
/// `Err` only for lines that claim to be frames and fail to parse.
pub fn parse_frame(line: &str) -> Result<Option<WorkerMsg>, FrameError> {
    let Some(payload) = line.strip_prefix(FRAME_PREFIX) else {
        return Ok(None);
    };
    serde_json::from_str::<WorkerMsg>(payload)
        .map(Some)
        .map_err(|e| FrameError {
            offset: e.offset().map(|o| o + FRAME_PREFIX.len()),
            message: e.to_string(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_round_trip() {
        let msgs = [
            WorkerMsg::Hello {
                worker: "w0".into(),
                pid: 4242,
            },
            WorkerMsg::Claimed {
                worker: "w0".into(),
                shard: 3,
            },
            WorkerMsg::CellDone {
                shard: 3,
                index: 17,
                label: "Rm-OMP".into(),
                ok: 30,
                failed: 2,
                stream_hash: u64::MAX,
            },
            WorkerMsg::ShardDone {
                shard: 3,
                hash: 0xDEAD_BEEF,
                cells: 4,
            },
            WorkerMsg::Idle {
                worker: "w0".into(),
            },
            WorkerMsg::Fault {
                shard: None,
                message: "queue vanished".into(),
            },
        ];
        for msg in &msgs {
            let line = frame(msg);
            assert!(line.starts_with(FRAME_PREFIX));
            assert!(!line.contains('\n'), "frames are single lines");
            assert_eq!(parse_frame(&line).unwrap().as_ref(), Some(msg));
        }
    }

    #[test]
    fn ordinary_lines_pass_through() {
        assert_eq!(parse_frame("plain workload output").unwrap(), None);
        assert_eq!(parse_frame("").unwrap(), None);
        // Near-miss prefixes are not frames either.
        assert_eq!(parse_frame("@nlshard2 {}").unwrap(), None);
    }

    #[test]
    fn corrupt_frames_are_typed_errors_with_offsets() {
        let err = parse_frame("@nlshard1 {\"Hello\": {").unwrap_err();
        assert!(err.offset.is_some(), "syntax errors carry offsets");
        assert!(err.offset.unwrap() >= FRAME_PREFIX.len());
        assert!(err.to_string().contains("at byte"), "{err}");
        // Wrong shape (valid JSON) still errors, just without offset.
        assert!(parse_frame("@nlshard1 {\"NoSuchVariant\": {}}").is_err());
    }
}
