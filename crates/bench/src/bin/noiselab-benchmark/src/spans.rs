//! Host-time spans around every public call and CLI stage of the traced
//! round. Spans stay in memory and are written once, at exit, as Chrome
//! trace-event JSON (opens in ui.perfetto.dev).

use crate::host::secs_since;
use serde::Value;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub cell: String,
    pub round: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Seconds since the log was created.
    pub start: f64,
    pub end: f64,
    /// Counts taken at this boundary (runs, bytes, events, ...).
    pub counts: Vec<(String, f64)>,
}

/// An in-memory span log: a stack of open spans over a flat list.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    pub fn starting_at(origin: Instant) -> Self {
        SpanLog {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn open(&mut self, name: &str, cell: &str, round: u32) {
        let now = secs_since(self.origin);
        self.spans.push(Span {
            name: name.to_string(),
            cell: cell.to_string(),
            round,
            parent: self.open.last().copied(),
            start: now,
            end: now,
            counts: Vec::new(),
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn close(&mut self) {
        let id = self.open.pop().expect("close without a matching open");
        self.spans[id].end = secs_since(self.origin);
    }

    /// Attach a count to the span opened last.
    pub fn count(&mut self, key: &str, value: f64) {
        if let Some(s) = self.spans.last_mut() {
            s.counts.push((key.to_string(), value));
        }
    }

    /// Chrome trace-event JSON: one `X` event per span on a single
    /// benchmark track, with its id, parent, round, cell and counts.
    pub fn chrome_json(&self, label: &str) -> String {
        let us = |s: f64| Value::Float(s * 1e6);
        let mut events = vec![Value::Object(vec![
            ("ph".into(), Value::Str("M".into())),
            ("pid".into(), Value::UInt(1)),
            ("tid".into(), Value::UInt(1)),
            ("name".into(), Value::Str("process_name".into())),
            (
                "args".into(),
                Value::Object(vec![("name".into(), Value::Str(label.into()))]),
            ),
        ])];
        for (id, s) in self.spans.iter().enumerate() {
            let mut args = vec![
                ("id".into(), Value::UInt(id as u128)),
                (
                    "parent".into(),
                    s.parent.map_or(Value::Null, |p| Value::UInt(p as u128)),
                ),
                ("round".into(), Value::UInt(s.round as u128)),
                ("cell".into(), Value::Str(s.cell.clone())),
            ];
            args.extend(s.counts.iter().map(|(k, v)| (k.clone(), Value::Float(*v))));
            events.push(Value::Object(vec![
                ("ph".into(), Value::Str("X".into())),
                ("pid".into(), Value::UInt(1)),
                ("tid".into(), Value::UInt(1)),
                ("ts".into(), us(s.start)),
                ("dur".into(), us(s.end - s.start)),
                ("name".into(), Value::Str(s.name.clone())),
                ("args".into(), Value::Object(args)),
            ]));
        }
        serde::write_json(
            &Value::Object(vec![
                ("traceEvents".into(), Value::Array(events)),
                ("displayTimeUnit".into(), Value::Str("ms".into())),
            ]),
            false,
        )
    }
}
