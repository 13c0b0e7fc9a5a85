//! The direct JSON codec against the `Value` tree path, on the types the
//! pipeline and the campaign engines persist: trace sets, injection
//! configs, campaign checkpoints, shard ledgers and worker frames.
//!
//! For random values of each type, compact and pretty output must be
//! byte-identical to `write_json(&x.to_value(), ..)`, and decoding must
//! equal `from_value(&parse_json(..))`. Seeded mutations of the text
//! (byte flips, truncation, inserted bytes, duplicated keys) must then
//! give the same outcome on both paths: the same value when both
//! accept, a rejection by both otherwise, and from `serde_json::from_str`
//! the tree path's error text and offset.

use noiselab::campaignd::{IndexedCell, ShardResult, WorkerMsg};
use noiselab::core::{
    CampaignState, CellKey, CellRecord, FailureRecord, QuarantineRecord, RunFailure,
};
use noiselab::injector::{CpuNoiseList, InjectPolicy, InjectionConfig, NoiseEventSpec};
use noiselab::kernel::NoiseClass;
use noiselab::machine::CpuId;
use noiselab::noise::{RunTrace, TraceEvent, TraceSet};
use noiselab::sim::{SimDuration, SimTime};
use noiselab::stats::Log2Hist;
use noiselab::telemetry::{CounterEntry, GaugeEntry, HistEntry, MetricsSnapshot};
use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};
use std::fmt::Debug;

/// SplitMix64: the values and mutations are a pure function of the
/// case seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn len(&mut self, max: u64) -> usize {
        self.below(max + 1) as usize
    }

    fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize].clone()
    }

    /// Small, huge and boundary integers.
    fn u64(&mut self) -> u64 {
        match self.below(4) {
            0 => self.below(10),
            1 => self.below(1_000_000_000),
            2 => self.pick(&[0, 1, u64::from(u32::MAX), i64::MAX as u64, u64::MAX]),
            _ => self.next(),
        }
    }

    /// Finite floats: integral ones (written with a trailing `.0`),
    /// signed zero, fractions, tiny and huge magnitudes.
    fn f64(&mut self) -> f64 {
        match self.below(4) {
            0 => self.below(100) as f64,
            1 => self.pick(&[-0.0, 0.1, 1e-300, 6.02e23, f64::MAX, -2.5]),
            2 => self.below(1 << 40) as f64 / 1024.0,
            _ => f64::from_bits(self.next() >> 2),
        }
    }

    fn string(&mut self) -> String {
        let pieces = [
            "kworker/13:1",
            "local_timer:236",
            "RCU:9",
            "q\"uote",
            "back\\slash",
            "new\nline",
            "tab\t",
            "ctl\u{1}",
            "é∀😀",
            "",
            "Fifo",
        ];
        (0..self.len(2)).map(|_| self.pick(&pieces)).collect()
    }
}

fn trace_set(rng: &mut Rng) -> TraceSet {
    let runs = (0..rng.len(3))
        .map(|run_index| {
            let events = (0..rng.len(6))
                .map(|_| TraceEvent {
                    cpu: CpuId(rng.below(64) as u32),
                    class: rng.pick(&[NoiseClass::Irq, NoiseClass::Softirq, NoiseClass::Thread]),
                    source: rng.string(),
                    start: SimTime(rng.u64()),
                    duration: SimDuration(rng.u64()),
                })
                .collect();
            RunTrace {
                run_index,
                exec_time: SimDuration(rng.u64()),
                events,
                dropped_events: rng.u64(),
                dropped_by_cpu: (0..rng.len(2))
                    .map(|_| (rng.below(64) as u32, rng.u64()))
                    .collect(),
                degraded: rng.below(2) == 0,
            }
        })
        .collect();
    TraceSet { runs }
}

fn injection_config(rng: &mut Rng) -> InjectionConfig {
    InjectionConfig {
        origin: rng.string(),
        anomaly_exec: SimDuration(rng.u64()),
        lists: (0..rng.len(3))
            .map(|_| CpuNoiseList {
                cpu: CpuId(rng.below(64) as u32),
                events: (0..rng.len(4))
                    .map(|_| NoiseEventSpec {
                        start: SimTime(rng.u64()),
                        duration: SimDuration(rng.u64()),
                        policy: if rng.below(2) == 0 {
                            InjectPolicy::Fifo
                        } else {
                            InjectPolicy::Other {
                                nice: rng.next() as i8,
                            }
                        },
                        source: rng.string(),
                    })
                    .collect(),
            })
            .collect(),
    }
}

fn metrics(rng: &mut Rng) -> MetricsSnapshot {
    MetricsSnapshot {
        runs: rng.u64(),
        counters: (0..rng.len(2))
            .map(|_| CounterEntry {
                name: rng.string(),
                value: rng.u64(),
            })
            .collect(),
        gauges: (0..rng.len(2))
            .map(|_| GaugeEntry {
                name: rng.string(),
                value: rng.f64(),
            })
            .collect(),
        histograms: (0..rng.len(1))
            .map(|_| {
                let mut hist = Log2Hist::new();
                for _ in 0..rng.len(5) {
                    hist.record(rng.u64());
                }
                HistEntry {
                    name: rng.string(),
                    hist,
                }
            })
            .collect(),
    }
}

fn cell_key(rng: &mut Rng) -> CellKey {
    CellKey {
        label: rng.string(),
        seed: rng.u64(),
    }
}

fn cell_record(rng: &mut Rng) -> CellRecord {
    CellRecord {
        key: cell_key(rng),
        samples: (0..rng.len(4)).map(|_| rng.f64()).collect(),
        failures: (0..rng.len(2))
            .map(|_| FailureRecord {
                seed: rng.u64(),
                cause: match rng.below(4) {
                    0 => RunFailure::Horizon {
                        limit_secs: rng.f64(),
                    },
                    1 => RunFailure::Deadlock,
                    2 => RunFailure::WorkloadAborted {
                        thread: rng.string(),
                    },
                    _ => RunFailure::Panic {
                        message: rng.string(),
                    },
                },
            })
            .collect(),
        attempts: rng.u64(),
        stream_hash: rng.u64(),
        metrics: metrics(rng),
    }
}

fn campaign_state(rng: &mut Rng) -> CampaignState {
    CampaignState {
        schema: rng.below(3) as u32,
        fingerprint: rng.string(),
        cells: (0..rng.len(3)).map(|_| cell_record(rng)).collect(),
        quarantined: (0..rng.len(1))
            .map(|_| QuarantineRecord {
                shard: rng.below(100) as u32,
                cells: (0..rng.len(2)).map(|_| cell_key(rng)).collect(),
                crashes: rng.below(5) as u32,
                reason: rng.string(),
            })
            .collect(),
        supervisor: metrics(rng),
    }
}

fn shard_result(rng: &mut Rng) -> ShardResult {
    ShardResult {
        shard: rng.below(100) as u32,
        fingerprint: rng.u64(),
        cells: (0..rng.len(2))
            .map(|_| IndexedCell {
                index: rng.below(1000) as usize,
                record: cell_record(rng),
            })
            .collect(),
        hash: rng.u64(),
    }
}

fn worker_msg(rng: &mut Rng) -> WorkerMsg {
    match rng.below(6) {
        0 => WorkerMsg::Hello {
            worker: rng.string(),
            pid: rng.next() as u32,
        },
        1 => WorkerMsg::Claimed {
            worker: rng.string(),
            shard: rng.next() as u32,
        },
        2 => WorkerMsg::CellDone {
            shard: rng.next() as u32,
            index: rng.below(1000) as usize,
            label: rng.string(),
            ok: rng.u64(),
            failed: rng.u64(),
            stream_hash: rng.u64(),
        },
        3 => WorkerMsg::ShardDone {
            shard: rng.next() as u32,
            hash: rng.u64(),
            cells: rng.u64(),
        },
        4 => WorkerMsg::Idle {
            worker: rng.string(),
        },
        _ => WorkerMsg::Fault {
            shard: (rng.below(2) == 0).then(|| rng.next() as u32),
            message: rng.string(),
        },
    }
}

/// Re-render `v` with one object entry duplicated: a copy of a random
/// entry (or of it with a new value) is put before or after the
/// original, so either the first occurrence changes or a later one is
/// added.
fn duplicate_a_key(v: &Value, rng: &mut Rng) -> Option<String> {
    fn objects(v: &Value, out: &mut usize) {
        match v {
            Value::Object(fields) => {
                *out += usize::from(!fields.is_empty());
                fields.iter().for_each(|(_, f)| objects(f, out));
            }
            Value::Array(items) => items.iter().for_each(|i| objects(i, out)),
            _ => {}
        }
    }
    fn edit(v: &mut Value, target: &mut usize, rng: &mut Rng) {
        match v {
            Value::Object(fields) if !fields.is_empty() => {
                if *target == 0 {
                    let at = rng.below(fields.len() as u64) as usize;
                    let mut dup = fields[at].clone();
                    if rng.below(2) == 0 {
                        dup.1 = rng.pick(&[
                            Value::Null,
                            Value::UInt(7),
                            Value::Str("x".into()),
                            Value::Array(vec![]),
                        ]);
                    }
                    let pos = if rng.below(2) == 0 { at } else { at + 1 };
                    fields.insert(pos, dup);
                    *target = usize::MAX;
                    return;
                }
                *target -= 1;
                for (_, f) in fields.iter_mut() {
                    edit(f, target, rng);
                }
            }
            Value::Object(fields) => fields.iter_mut().for_each(|(_, f)| edit(f, target, rng)),
            Value::Array(items) => items.iter_mut().for_each(|i| edit(i, target, rng)),
            _ => {}
        }
    }
    let mut count = 0;
    objects(v, &mut count);
    if count == 0 {
        return None;
    }
    let mut copy = v.clone();
    let mut target = rng.below(count as u64) as usize;
    edit(&mut copy, &mut target, rng);
    Some(serde::write_json(&copy, rng.below(2) == 0))
}

/// One seeded mutation of a JSON document.
fn mutate(text: &str, rng: &mut Rng) -> String {
    const BYTES: &[u8] = b"{}[],:\"\\ -+.0123456789eEnultrfasx";
    const SNIPPETS: &[&str] = &[
        ",",
        "\"x\":1,",
        "[",
        "]",
        "{",
        "}",
        "null",
        " ",
        "\\u00e9",
        "\\ud800\\u0041",
        "1.0",
        "-",
        "1e999",
        "\"",
        "\\",
    ];
    let mut bytes = text.as_bytes().to_vec();
    let at = rng.below(bytes.len() as u64 + 1) as usize;
    match rng.below(4) {
        0 if at < bytes.len() => bytes[at] = rng.pick(BYTES),
        1 => bytes.truncate(at),
        2 => {
            let snippet = rng.pick(SNIPPETS).as_bytes();
            bytes.splice(at..at, snippet.iter().copied());
        }
        _ => {
            if let Some(dup) = serde::parse_json(text)
                .ok()
                .and_then(|v| duplicate_a_key(&v, rng))
            {
                return dup;
            }
            bytes.insert(at, rng.pick(BYTES));
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Decode `text` as `T` on the tree path, on the bare direct path and
/// through `serde_json::from_str`. All three must agree; the value is
/// `None` when they all reject the text.
fn check_decode<T: Deserialize + PartialEq + Debug>(text: &str) -> Result<Option<T>, String> {
    let tree = serde::parse_json(text).and_then(|v| T::from_value(&v));
    let direct = serde::from_json_direct::<T>(text);
    match (&tree, &direct) {
        (Ok(a), Ok(b)) if a == b => {}
        (Err(_), Err(_)) => {}
        _ => {
            return Err(format!(
                "paths disagree on {text:?}: tree {tree:?}, direct {direct:?}"
            ))
        }
    }
    let via = serde_json::from_str::<T>(text);
    match (&tree, &via) {
        (Ok(a), Ok(b)) if a == b => Ok(()),
        (Err(a), Err(b)) if a.to_string() == b.to_string() && a.pos() == b.offset() => Ok(()),
        _ => Err(format!(
            "from_str differs from the tree path on {text:?}: tree {tree:?}, from_str {via:?}"
        )),
    }?;
    Ok(tree.ok())
}

/// The full check for one value: writer bytes, round trip, mutations.
fn check_codec<T>(x: &T, rng: &mut Rng) -> Result<(), String>
where
    T: Serialize + Deserialize + PartialEq + Debug,
{
    for pretty in [false, true] {
        let direct = serde::to_json(x, pretty);
        let tree = serde::write_json(&x.to_value(), pretty);
        if direct != tree {
            return Err(format!("writer bytes differ:\n{direct}\n{tree}"));
        }
        let want = if pretty {
            serde_json::to_string_pretty(x)
        } else {
            serde_json::to_string(x)
        };
        if want.ok().as_deref() != Some(direct.as_str()) {
            return Err("serde_json writer differs".into());
        }
        let back = check_decode::<T>(&direct)?;
        if back.as_ref() != Some(x) {
            return Err(format!("round trip changed {x:?} into {back:?}"));
        }
    }
    let text = serde::to_json(x, rng.below(2) == 0);
    for _ in 0..8 {
        let mut mutated = mutate(&text, rng);
        if rng.below(3) == 0 {
            mutated = mutate(&mutated, rng);
        }
        check_decode::<T>(&mutated)?;
    }
    Ok(())
}

proptest! {
    #[test]
    fn direct_codec_matches_value_path(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let checks = [
            check_codec(&trace_set(&mut rng), &mut Rng(seed ^ 1)),
            check_codec(&injection_config(&mut rng), &mut Rng(seed ^ 2)),
            check_codec(&campaign_state(&mut rng), &mut Rng(seed ^ 3)),
            check_codec(&shard_result(&mut rng), &mut Rng(seed ^ 4)),
            check_codec(&worker_msg(&mut rng), &mut Rng(seed ^ 5)),
        ];
        for check in checks {
            prop_assert!(check.is_ok(), "{}", check.unwrap_err());
        }
    }
}

/// Documents that once crashed the process or decoded wrongly, in every
/// reader the pipeline uses.
#[test]
fn hostile_documents_are_typed_errors() {
    let deep = "[".repeat(200_000);
    let e = serde_json::from_str::<TraceSet>(&deep).unwrap_err();
    assert_eq!(e.offset(), Some(serde::MAX_DEPTH));
    assert!(serde_json::from_str::<CampaignState>(&deep).is_err());
    assert!(serde_json::from_str::<WorkerMsg>(&"{\"Hello\":".repeat(100_000)).is_err());

    let bad_pair = r#"{"origin":"\ud800\u0041","anomaly_exec":1,"lists":[]}"#;
    let e = serde_json::from_str::<InjectionConfig>(bad_pair).unwrap_err();
    assert_eq!(
        (e.to_string().as_str(), e.offset()),
        ("invalid low surrogate", Some(17))
    );
}
