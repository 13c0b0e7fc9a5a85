//! The compact wire record: one fixed-width encoding shared by every
//! high-volume event store in the workspace — the osnoise tracer's ring
//! buffer, the telemetry span recorder's timeline, and the NLTB binary
//! trace format (schema v2). The kernel's dispatched events are not
//! among them: the event sanitizer folds those in place, unencoded.
//!
//! A [`WireRecord`] is 29 bytes, little-endian, with string payloads
//! replaced by indices into an [`InternTable`] carried alongside the
//! records. Compared to the owned-`String` record structs it replaces,
//! recording one is a fixed-size push with no heap traffic, and a
//! buffer of them encodes to bytes with a bump of the write cursor per
//! record — no per-field varint branching.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Sentinel for "no thread" in [`WireRecord::thread`].
pub const WIRE_NO_THREAD: u32 = u32::MAX;

/// Encoded size of one record, in bytes.
pub const WIRE_RECORD_BYTES: usize = 29;

/// One fixed-width event/span record. Field meaning is assigned by the
/// producer: the tracer stores noise-class tags and interned source
/// names, the telemetry exporter stores span categories and interned
/// span names. The layout is shared so one encoder/decoder serves both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireRecord {
    /// Interval start (virtual ns).
    pub start: u64,
    /// Interval length (virtual ns).
    pub dur_ns: u64,
    /// CPU track the interval belongs to.
    pub cpu: u32,
    /// Occupying thread, or [`WIRE_NO_THREAD`].
    pub thread: u32,
    /// Index into the accompanying [`InternTable`].
    pub name: u32,
    /// Producer-defined discriminator (noise class / span category).
    pub tag: u8,
}

impl WireRecord {
    /// Append the fixed-width little-endian encoding to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.start.to_le_bytes());
        out.extend_from_slice(&self.dur_ns.to_le_bytes());
        out.extend_from_slice(&self.cpu.to_le_bytes());
        out.extend_from_slice(&self.thread.to_le_bytes());
        out.extend_from_slice(&self.name.to_le_bytes());
        out.push(self.tag);
    }

    /// Decode one record from `buf` at `offset`. Returns `None` when
    /// fewer than [`WIRE_RECORD_BYTES`] bytes remain.
    pub fn decode_from(buf: &[u8], offset: usize) -> Option<WireRecord> {
        let b = buf.get(offset..offset + WIRE_RECORD_BYTES)?;
        let u64_at =
            |i: usize| u64::from_le_bytes(b[i..i + 8].try_into().expect("an 8-byte slice"));
        let u32_at = |i: usize| u32::from_le_bytes(b[i..i + 4].try_into().expect("a 4-byte slice"));
        Some(WireRecord {
            start: u64_at(0),
            dur_ns: u64_at(8),
            cpu: u32_at(16),
            thread: u32_at(20),
            name: u32_at(24),
            tag: b[28],
        })
    }
}

/// Append-only string intern table: each distinct string is stored once
/// and addressed by a dense `u32` id. Lookup is a `BTreeMap` walk (never
/// a hash map — hash iteration order is a nondeterminism hazard clippy
/// bans), and allocation happens only on first sight of a string.
#[derive(Debug, Default, Clone)]
pub struct InternTable {
    strings: Vec<String>,
    index: BTreeMap<String, u32>,
}

impl InternTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Id of `s`, interning it on first sight.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&i) = self.index.get(s) {
            return i;
        }
        let i = self.strings.len() as u32;
        self.strings.push(s.to_string());
        self.index.insert(s.to_string(), i);
        i
    }

    /// The string behind `id`; None for ids this table never issued.
    pub fn get(&self, id: u32) -> Option<&str> {
        self.strings.get(id as usize).map(String::as_str)
    }

    pub fn strings(&self) -> &[String] {
        &self.strings
    }

    pub fn len(&self) -> usize {
        self.strings.len()
    }

    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Forget every string but keep the id vector's capacity.
    pub fn clear(&mut self) {
        self.strings.clear();
        self.index.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips_fixed_width() {
        let r = WireRecord {
            start: u64::MAX - 7,
            dur_ns: 123_456_789,
            cpu: 17,
            thread: WIRE_NO_THREAD,
            name: 3,
            tag: 2,
        };
        let mut buf = Vec::new();
        r.encode_into(&mut buf);
        assert_eq!(buf.len(), WIRE_RECORD_BYTES);
        assert_eq!(WireRecord::decode_from(&buf, 0), Some(r));
        assert_eq!(WireRecord::decode_from(&buf, 1), None, "truncated tail");
    }

    #[test]
    fn intern_is_stable_and_dense() {
        let mut t = InternTable::new();
        let a = t.intern("local_timer:236");
        let b = t.intern("kworker/3:1");
        assert_eq!(t.intern("local_timer:236"), a);
        assert_eq!((a, b), (0, 1));
        assert_eq!(t.get(b), Some("kworker/3:1"));
        assert_eq!(t.get(99), None);
        assert_eq!(t.len(), 2);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.intern("fresh"), 0, "ids restart after clear");
    }
}
