//! The metrics registry: named counters, gauges and log2-bucketed
//! histograms, snapshotted per run and merged per campaign cell.
//!
//! Registry keys are `&'static str` so the hot recording path never
//! allocates; storage is `BTreeMap` (never `HashMap` — hash iteration
//! order is a nondeterminism hazard clippy bans), so snapshots
//! enumerate metrics in a stable order and two identical runs produce
//! byte-identical snapshot JSON.

use noiselab_stats::Log2Hist;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Live registry owned by a run's telemetry pipeline.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    hists: BTreeMap<&'static str, Log2Hist>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn counter_add(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    #[inline]
    pub fn gauge_set(&mut self, name: &'static str, v: f64) {
        self.gauges.insert(name, v);
    }

    #[inline]
    pub fn hist_record(&mut self, name: &'static str, v: u64) {
        self.hists.entry(name).or_default().record(v);
    }

    /// Merge a pre-accumulated histogram in (exact, bucket-wise) — the
    /// flush path for recorders that batch hot-path samples locally.
    pub fn hist_merge(&mut self, name: &'static str, h: &Log2Hist) {
        self.hists.entry(name).or_default().merge(h);
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Freeze the registry into a serializable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            runs: 1,
            counters: self
                .counters
                .iter()
                .map(|(k, v)| CounterEntry {
                    name: k.to_string(),
                    value: *v,
                })
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(k, v)| GaugeEntry {
                    name: k.to_string(),
                    value: *v,
                })
                .collect(),
            histograms: self
                .hists
                .iter()
                .map(|(k, v)| HistEntry {
                    name: k.to_string(),
                    hist: v.clone(),
                })
                .collect(),
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterEntry {
    pub name: String,
    pub value: u64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeEntry {
    pub name: String,
    pub value: f64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistEntry {
    pub name: String,
    pub hist: Log2Hist,
}

/// A frozen, serializable view of a registry. `runs` counts how many
/// per-run snapshots were merged in (1 for a single run); counters and
/// histograms merge exactly, gauges merge as the runs-weighted mean.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    pub runs: u64,
    pub counters: Vec<CounterEntry>,
    pub gauges: Vec<GaugeEntry>,
    pub histograms: Vec<HistEntry>,
}

impl MetricsSnapshot {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
            .unwrap_or(0)
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    pub fn hist(&self, name: &str) -> Option<&Log2Hist> {
        self.histograms
            .iter()
            .find(|h| h.name == name)
            .map(|h| &h.hist)
    }

    /// Number of distinct metrics in the snapshot.
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Merge another snapshot in: counters sum, histograms merge
    /// bucket-wise (both exact), gauges combine as the runs-weighted
    /// mean. Metric names present in only one side are kept.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for c in &other.counters {
            match self.counters.iter_mut().find(|e| e.name == c.name) {
                Some(e) => e.value += c.value,
                None => self.counters.push(c.clone()),
            }
        }
        let (a, b) = (self.runs as f64, other.runs as f64);
        for g in &other.gauges {
            match self.gauges.iter_mut().find(|e| e.name == g.name) {
                Some(e) => {
                    if a + b > 0.0 {
                        e.value = (e.value * a + g.value * b) / (a + b);
                    }
                }
                None => self.gauges.push(g.clone()),
            }
        }
        for h in &other.histograms {
            match self.histograms.iter_mut().find(|e| e.name == h.name) {
                Some(e) => e.hist.merge(&h.hist),
                None => self.histograms.push(h.clone()),
            }
        }
        self.runs += other.runs;
        self.counters.sort_by(|x, y| x.name.cmp(&y.name));
        self.gauges.sort_by(|x, y| x.name.cmp(&y.name));
        self.histograms.sort_by(|x, y| x.name.cmp(&y.name));
    }

    /// Human rendering for `noiselab metrics`, one metric per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("metrics over {} run(s)\n", self.runs));
        for c in &self.counters {
            out.push_str(&format!("  {:<28} {}\n", c.name, c.value));
        }
        for g in &self.gauges {
            out.push_str(&format!("  {:<28} {:.4}\n", g.name, g.value));
        }
        for h in &self.histograms {
            out.push_str(&format!("  {:<28} {}\n", h.name, h.hist.render_ns()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_snapshot_is_sorted_and_complete() {
        let mut r = MetricsRegistry::new();
        r.counter_add("z.last", 2);
        r.counter_add("a.first", 1);
        r.counter_add("z.last", 3);
        r.gauge_set("util", 0.5);
        r.hist_record("lat", 100);
        let s = r.snapshot();
        assert_eq!(s.runs, 1);
        assert_eq!(s.counters[0].name, "a.first");
        assert_eq!(s.counters[1].value, 5);
        assert_eq!(s.gauge("util"), Some(0.5));
        assert_eq!(s.hist("lat").map(|h| h.count), Some(1));
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn merge_sums_counters_and_averages_gauges() {
        let mut a = MetricsRegistry::new();
        a.counter_add("n", 10);
        a.gauge_set("util", 0.2);
        a.hist_record("lat", 8);
        let mut sa = a.snapshot();

        let mut b = MetricsRegistry::new();
        b.counter_add("n", 5);
        b.counter_add("only_b", 1);
        b.gauge_set("util", 0.6);
        b.hist_record("lat", 64);
        let sb = b.snapshot();

        sa.merge(&sb);
        assert_eq!(sa.runs, 2);
        assert_eq!(sa.counter("n"), 15);
        assert_eq!(sa.counter("only_b"), 1);
        let util = sa.gauge("util").expect("gauge kept");
        assert!((util - 0.4).abs() < 1e-12);
        assert_eq!(sa.hist("lat").map(|h| h.count), Some(2));
    }

    #[test]
    fn snapshot_serde_round_trip() {
        let mut r = MetricsRegistry::new();
        r.counter_add("events", 123);
        r.gauge_set("util", 0.75);
        r.hist_record("lat", 4096);
        let s = r.snapshot();
        let json = serde_json::to_string(&s).expect("serialize");
        let back: MetricsSnapshot = serde_json::from_str(&json).expect("parse");
        assert_eq!(s, back);
    }

    #[test]
    fn merge_into_default_is_identity() {
        let mut r = MetricsRegistry::new();
        r.counter_add("events", 7);
        r.gauge_set("util", 0.9);
        let s = r.snapshot();
        let mut acc = MetricsSnapshot::default();
        acc.merge(&s);
        assert_eq!(acc.runs, 1);
        assert_eq!(acc.counter("events"), 7);
        assert_eq!(acc.gauge("util"), Some(0.9));
    }
}
