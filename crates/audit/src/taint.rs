//! Intra-procedural taint dataflow over the CFGs built by
//! [`crate::cfg`].
//!
//! Values carry *witnesses*: where a nondeterministic quantity was
//! born (a wall-clock read, a hash-iteration, an address cast, …) and
//! the hop chain it travelled. A finding is produced when a witnessed
//! value reaches a *sink* — a call whose result feeds the determinism
//! contract (stream hash, fingerprint, checkpoint, metrics merge,
//! event-queue ordering key).
//!
//! Cross-function flow is handled by [`crate::summary`]: parameters
//! are seeded with `Origin::Param(i)` markers, and the per-function
//! summary records which parameters reach sinks and which taints (or
//! parameters) flow to the return value.
//!
//! The analysis itself must satisfy the contract it polices: every
//! container here is a `BTreeMap`/`BTreeSet`, witness sets are
//! hop-normalized (one witness per origin, shortest chain wins) so the
//! fixpoint is deterministic and terminating.

use std::collections::{BTreeMap, BTreeSet};

use crate::cfg::{Cfg, Instr, Rv};
use crate::rules::RuleId;
use crate::summary::{FnSummary, SinkTrace};

/// How many hops a witness chain may record before it stops growing.
pub const MAX_HOPS: usize = 12;
/// How many distinct witnesses a single value may carry.
pub const MAX_WITNESSES: usize = 8;
/// Hard cap on intra-function fixpoint passes.
const MAX_PASSES: usize = 24;

/// The seven nondeterminism source families the analyzer tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TaintKind {
    WallClock,
    HashOrder,
    Addr,
    Env,
    Relaxed,
    FloatOrder,
    ThreadId,
}

impl TaintKind {
    pub const ALL: [TaintKind; 7] = [
        TaintKind::WallClock,
        TaintKind::HashOrder,
        TaintKind::Addr,
        TaintKind::Env,
        TaintKind::Relaxed,
        TaintKind::FloatOrder,
        TaintKind::ThreadId,
    ];

    pub fn rule(self) -> RuleId {
        match self {
            TaintKind::WallClock => RuleId::TaintWallClock,
            TaintKind::HashOrder => RuleId::TaintHashOrder,
            TaintKind::Addr => RuleId::TaintAddr,
            TaintKind::Env => RuleId::TaintEnv,
            TaintKind::Relaxed => RuleId::TaintRelaxed,
            TaintKind::FloatOrder => RuleId::TaintFloatOrder,
            TaintKind::ThreadId => RuleId::TaintThreadId,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            TaintKind::WallClock => "wall-clock",
            TaintKind::HashOrder => "hash-iteration-order",
            TaintKind::Addr => "address-as-value",
            TaintKind::Env => "environment",
            TaintKind::Relaxed => "relaxed-atomic",
            TaintKind::FloatOrder => "float-reduction-order",
            TaintKind::ThreadId => "thread-id",
        }
    }
}

/// The determinism-contract surfaces taint must not reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SinkKind {
    StreamHash,
    Fingerprint,
    Checkpoint,
    MetricsMerge,
    EventKey,
}

impl SinkKind {
    pub const ALL: [SinkKind; 5] = [
        SinkKind::StreamHash,
        SinkKind::Fingerprint,
        SinkKind::Checkpoint,
        SinkKind::MetricsMerge,
        SinkKind::EventKey,
    ];

    pub fn name(self) -> &'static str {
        match self {
            SinkKind::StreamHash => "stream-hash",
            SinkKind::Fingerprint => "fingerprint",
            SinkKind::Checkpoint => "checkpoint",
            SinkKind::MetricsMerge => "metrics-merge",
            SinkKind::EventKey => "event-key",
        }
    }
}

/// One step of a source→sink path.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Hop {
    pub file: String,
    pub line: u32,
    pub note: String,
}

/// Where a witness was born: a concrete source, or "whatever the
/// caller passes for parameter `i`" (resolved by the summary pass).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Origin {
    Source(TaintKind),
    Param(usize),
}

/// A tracked taint on a value. `carrier` marks latent hash-order
/// taint: a `HashMap` value itself is fine to store or query; only
/// observing its iteration order converts the carrier into a
/// reportable witness.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Witness {
    pub origin: Origin,
    pub carrier: bool,
    pub hops: Vec<Hop>,
}

/// A confirmed source→sink flow.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct TaintFinding {
    pub rule: RuleId,
    pub kind: TaintKind,
    pub sink: SinkKind,
    /// Sink location (where the report points).
    pub file: String,
    pub line: u32,
    pub message: String,
    /// Full path; `hops[0]` is the source site.
    pub hops: Vec<Hop>,
}

impl TaintFinding {
    /// The source site (first hop), used for allow-matching.
    pub fn source(&self) -> (&str, u32) {
        self.hops
            .first()
            .map(|h| (h.file.as_str(), h.line))
            .unwrap_or((self.file.as_str(), self.line))
    }
}

/// Result of analyzing one function body.
pub struct FnAnalysis {
    pub findings: Vec<TaintFinding>,
    pub summary: FnSummary,
}

fn push_hop(hops: &[Hop], hop: Hop) -> Vec<Hop> {
    let mut out = hops.to_vec();
    if out.len() < MAX_HOPS {
        out.push(hop);
    }
    out
}

/// Insert a witness, keeping at most one per `(origin, carrier)` key
/// (shortest hop chain wins) and at most [`MAX_WITNESSES`] total.
/// Returns whether the set changed.
pub fn absorb(set: &mut BTreeSet<Witness>, w: Witness) -> bool {
    if let Some(existing) = set
        .iter()
        .find(|e| e.origin == w.origin && e.carrier == w.carrier)
        .cloned()
    {
        if existing.hops.len() <= w.hops.len() {
            return false;
        }
        set.remove(&existing);
    }
    set.insert(w);
    while set.len() > MAX_WITNESSES {
        let last = set.iter().next_back().cloned();
        if let Some(last) = last {
            set.remove(&last);
        }
    }
    true
}

/// Methods that observe a hash container's iteration order.
const ITER_METHODS: &[&str] = &[
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "iter",
    "iter_mut",
    "keys",
    "retain",
    "values",
    "values_mut",
];

/// Calls whose result is known not to carry its inputs' taint.
const PROPAGATION_STOPS: &[&str] = &["capacity", "is_empty", "len"];

/// Atomic read-modify-write / load names that take an `Ordering`.
const ATOMIC_OPS: &[&str] = &[
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_and",
    "fetch_max",
    "fetch_min",
    "fetch_or",
    "fetch_sub",
    "fetch_update",
    "fetch_xor",
    "load",
    "swap",
];

const INT_CAST_TYPES: &[&str] = &["i64", "isize", "u128", "u64", "usize"];

fn is_relaxed_const(rv: &Rv) -> bool {
    match rv {
        Rv::Const(p) => p.ends_with("::Relaxed"),
        Rv::Var(n) => n == "Relaxed",
        Rv::Tmp(_) => false,
    }
}

/// Is this call itself a taint source? Returns kind, a human note for
/// the first hop, and whether the taint starts latent (carrier).
fn source_of(name: &str, full: &str, args: &[Rv]) -> Option<(TaintKind, String, bool)> {
    if name == "now" && (full.contains("Instant") || full.contains("SystemTime")) {
        return Some((
            TaintKind::WallClock,
            format!("wall-clock read `{full}()`"),
            false,
        ));
    }
    if name == "elapsed" || name == "duration_since" || name == "wall_clock" {
        return Some((
            TaintKind::WallClock,
            format!("wall-clock read `{name}()`"),
            false,
        ));
    }
    if name == "current" && full.contains("thread") {
        return Some((
            TaintKind::ThreadId,
            format!("thread identity read `{full}()`"),
            false,
        ));
    }
    if matches!(name, "var" | "var_os" | "vars" | "vars_os") && full.contains("env::") {
        return Some((
            TaintKind::Env,
            format!("environment read `{full}()`"),
            false,
        ));
    }
    for carrier in ["HashMap::", "HashSet::", "RandomState::"] {
        if full.contains(carrier) {
            return Some((
                TaintKind::HashOrder,
                format!(
                    "`{}` built here (iteration order is seeded per-process)",
                    carrier.trim_end_matches("::")
                ),
                true,
            ));
        }
    }
    if matches!(
        name,
        "par_iter" | "into_par_iter" | "par_bridge" | "par_chunks"
    ) {
        return Some((
            TaintKind::FloatOrder,
            format!("unordered parallel reduction source `{name}()`"),
            false,
        ));
    }
    if ATOMIC_OPS.contains(&name) && args.iter().any(is_relaxed_const) {
        return Some((
            TaintKind::Relaxed,
            format!("`Ordering::Relaxed` atomic `{name}`"),
            false,
        ));
    }
    None
}

fn sink_of(name: &str) -> Option<SinkKind> {
    match name {
        "fnv1a" | "fnv1a_extend" => Some(SinkKind::StreamHash),
        "fingerprint" | "fingerprint_v2" => Some(SinkKind::Fingerprint),
        "write_atomic" | "save" | "save_checkpoint" => Some(SinkKind::Checkpoint),
        "merge" => Some(SinkKind::MetricsMerge),
        "schedule" | "arm" => Some(SinkKind::EventKey),
        _ => None,
    }
}

/// Dedup key for findings: one report per (rule, sink site, source
/// site); shortest hop chain wins.
type FindingKey = (&'static str, String, u32, String, u32);

struct Analyzer<'a> {
    file: &'a str,
    summaries: &'a BTreeMap<String, FnSummary>,
    state: BTreeMap<Rv, BTreeSet<Witness>>,
    findings: BTreeMap<FindingKey, TaintFinding>,
    summary: FnSummary,
    report_sinks: bool,
    changed: bool,
}

impl<'a> Analyzer<'a> {
    fn taints(&self, rv: &Rv) -> BTreeSet<Witness> {
        self.state.get(rv).cloned().unwrap_or_default()
    }

    fn add(&mut self, rv: &Rv, w: Witness) {
        if matches!(rv, Rv::Const(_)) {
            return;
        }
        let set = self.state.entry(rv.clone()).or_default();
        if absorb(set, w) {
            self.changed = true;
        }
    }

    fn record_finding(&mut self, kind: TaintKind, sink: SinkKind, callee: &str, hops: Vec<Hop>) {
        let (sfile, sline) = hops
            .first()
            .map(|h| (h.file.clone(), h.line))
            .unwrap_or_else(|| (self.file.to_string(), 0));
        let (file, line) = hops
            .last()
            .map(|h| (h.file.clone(), h.line))
            .unwrap_or_else(|| (self.file.to_string(), 0));
        let key: FindingKey = (kind.rule().name(), file.clone(), line, sfile, sline);
        let message = format!(
            "{} value reaches {} sink `{}`",
            kind.label(),
            sink.name(),
            callee
        );
        let finding = TaintFinding {
            rule: kind.rule(),
            kind,
            sink,
            file,
            line,
            message,
            hops,
        };
        match self.findings.get(&key) {
            Some(old) if old.hops.len() <= finding.hops.len() => {}
            _ => {
                self.findings.insert(key, finding);
            }
        }
    }

    /// A witnessed value hit a sink call in this function.
    fn hit_sink(&mut self, sink: SinkKind, callee: &str, line: u32, w: &Witness) {
        if w.carrier {
            return;
        }
        let hops = push_hop(
            &w.hops,
            Hop {
                file: self.file.to_string(),
                line,
                note: format!("passed to `{callee}` ({} sink)", sink.name()),
            },
        );
        match w.origin {
            Origin::Source(kind) => {
                if self.report_sinks {
                    self.record_finding(kind, sink, callee, hops);
                }
            }
            Origin::Param(i) => {
                let traces = self.summary.param_sinks.entry(i).or_default();
                let trace = SinkTrace {
                    sink,
                    callee: callee.to_string(),
                    hops,
                };
                if traces.len() < MAX_WITNESSES && traces.insert(trace) {
                    self.changed = true;
                }
            }
        }
    }

    fn step(&mut self, instr: &Instr) {
        match instr {
            Instr::Copy { dst, srcs, .. } => {
                let mut gathered: Vec<Witness> = Vec::new();
                for s in srcs {
                    gathered.extend(self.taints(s));
                }
                for w in gathered {
                    self.add(dst, w);
                }
            }
            Instr::Cast {
                dst,
                src,
                ty,
                addr_like,
                line,
            } => {
                for w in self.taints(src) {
                    self.add(dst, w);
                }
                if *addr_like && INT_CAST_TYPES.contains(&ty.as_str()) {
                    let w = Witness {
                        origin: Origin::Source(TaintKind::Addr),
                        carrier: false,
                        hops: vec![Hop {
                            file: self.file.to_string(),
                            line: *line,
                            note: format!("address observed as integer (`as {ty}`)"),
                        }],
                    };
                    self.add(dst, w);
                }
            }
            Instr::Ret { src, .. } => {
                if let Some(src) = src {
                    for w in self.taints(src) {
                        if absorb(&mut self.summary.ret, w) {
                            self.changed = true;
                        }
                    }
                }
            }
            Instr::Call {
                dst,
                name,
                full,
                recv,
                args,
                line,
                is_method,
            } => self.call(dst, name, full, recv.as_ref(), args, *line, *is_method),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn call(
        &mut self,
        dst: &Rv,
        name: &str,
        full: &str,
        recv: Option<&Rv>,
        args: &[Rv],
        line: u32,
        is_method: bool,
    ) {
        // 1. Is the call itself a source?
        if let Some((kind, note, carrier)) = source_of(name, full, args) {
            let w = Witness {
                origin: Origin::Source(kind),
                carrier,
                hops: vec![Hop {
                    file: self.file.to_string(),
                    line,
                    note,
                }],
            };
            self.add(dst, w);
        }

        // 2. Iterating a hash carrier makes its order observable.
        if is_method && ITER_METHODS.contains(&name) {
            if let Some(recv) = recv {
                let carriers: Vec<Witness> = self
                    .taints(recv)
                    .into_iter()
                    .filter(|w| w.carrier)
                    .collect();
                for w in carriers {
                    let hops = push_hop(
                        &w.hops,
                        Hop {
                            file: self.file.to_string(),
                            line,
                            note: format!("iteration order observed via `.{name}()`"),
                        },
                    );
                    self.add(
                        dst,
                        Witness {
                            origin: w.origin,
                            carrier: false,
                            hops,
                        },
                    );
                }
            }
        }

        // 3. Sink check on receiver and every argument.
        if let Some(sink) = sink_of(name) {
            let mut inputs: Vec<Rv> = Vec::new();
            if let Some(recv) = recv {
                inputs.push(recv.clone());
            }
            inputs.extend(args.iter().cloned());
            for rv in &inputs {
                for w in self.taints(rv) {
                    self.hit_sink(sink, name, line, &w);
                }
            }
        }

        // 4. Apply the callee's summary if we have one.
        let summary = self.summaries.get(name).cloned();
        if let Some(s) = &summary {
            for w in &s.ret {
                match w.origin {
                    Origin::Source(_) => {
                        let hops = push_hop(
                            &w.hops,
                            Hop {
                                file: self.file.to_string(),
                                line,
                                note: format!("returned by `{name}`"),
                            },
                        );
                        self.add(
                            dst,
                            Witness {
                                origin: w.origin.clone(),
                                carrier: w.carrier,
                                hops,
                            },
                        );
                    }
                    Origin::Param(i) => {
                        if let Some(arg) = args.get(i) {
                            for aw in self.taints(arg) {
                                let hops = push_hop(
                                    &aw.hops,
                                    Hop {
                                        file: self.file.to_string(),
                                        line,
                                        note: format!("through `{name}`"),
                                    },
                                );
                                self.add(
                                    dst,
                                    Witness {
                                        origin: aw.origin,
                                        carrier: aw.carrier || w.carrier,
                                        hops,
                                    },
                                );
                            }
                        }
                    }
                }
            }
            for (i, traces) in &s.param_sinks {
                let Some(arg) = args.get(*i) else { continue };
                for aw in self.taints(arg) {
                    if aw.carrier {
                        continue;
                    }
                    for trace in traces {
                        let mut hops = push_hop(
                            &aw.hops,
                            Hop {
                                file: self.file.to_string(),
                                line,
                                note: format!("passed to `{name}`"),
                            },
                        );
                        for h in &trace.hops {
                            if hops.len() < MAX_HOPS {
                                hops.push(h.clone());
                            }
                        }
                        match aw.origin {
                            Origin::Source(kind) => {
                                if self.report_sinks {
                                    self.record_finding(kind, trace.sink, &trace.callee, hops);
                                }
                            }
                            Origin::Param(j) => {
                                let own = self.summary.param_sinks.entry(j).or_default();
                                let t = SinkTrace {
                                    sink: trace.sink,
                                    callee: trace.callee.clone(),
                                    hops,
                                };
                                if own.len() < MAX_WITNESSES && own.insert(t) {
                                    self.changed = true;
                                }
                            }
                        }
                    }
                }
            }
        }

        // 5. Default propagation through unknown callees: the result
        //    is assumed to derive from receiver and arguments.
        if summary.is_none() && !PROPAGATION_STOPS.contains(&name) {
            let mut inputs: Vec<Rv> = Vec::new();
            if let Some(recv) = recv {
                inputs.push(recv.clone());
            }
            inputs.extend(args.iter().cloned());
            let keep_carrier = matches!(name, "clone" | "to_owned");
            let mut gathered: Vec<Witness> = Vec::new();
            for rv in &inputs {
                for w in self.taints(rv) {
                    if w.carrier && !keep_carrier {
                        continue;
                    }
                    gathered.push(w);
                }
            }
            for w in gathered {
                self.add(dst, w);
            }
        }
    }
}

/// Analyze one function against the current summary environment.
pub fn analyze_fn(cfg: &Cfg, file: &str, summaries: &BTreeMap<String, FnSummary>) -> FnAnalysis {
    let mut a = Analyzer {
        file,
        summaries,
        state: BTreeMap::new(),
        findings: BTreeMap::new(),
        summary: FnSummary::default(),
        report_sinks: !cfg.in_test,
        changed: false,
    };
    for (i, p) in cfg.params.iter().enumerate() {
        a.state
            .entry(Rv::Var(p.clone()))
            .or_default()
            .insert(Witness {
                origin: Origin::Param(i),
                carrier: false,
                hops: Vec::new(),
            });
    }
    for _pass in 0..MAX_PASSES {
        a.changed = false;
        for block in &cfg.blocks {
            for instr in &block.instrs {
                a.step(instr);
            }
        }
        if !a.changed {
            break;
        }
    }
    FnAnalysis {
        findings: a.findings.into_values().collect(),
        summary: a.summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::lower_fn;
    use crate::lexer::lex;
    use crate::parse::parse_file;

    fn analyze(src: &str) -> FnAnalysis {
        let fns = parse_file(&lex(src));
        assert_eq!(fns.len(), 1, "{fns:#?}");
        let cfg = lower_fn(&fns[0]);
        analyze_fn(&cfg, "t.rs", &BTreeMap::new())
    }

    #[test]
    fn wall_clock_to_stream_hash_is_found() {
        let a = analyze(
            "fn f() -> u64 { let t = std::time::Instant::now(); let n = t.as_nanos() as u64; fnv1a(&n.to_le_bytes()) }",
        );
        assert_eq!(a.findings.len(), 1, "{:#?}", a.findings);
        let f = &a.findings[0];
        assert_eq!(f.kind, TaintKind::WallClock);
        assert_eq!(f.sink, SinkKind::StreamHash);
        assert!(f.hops.len() >= 2);
    }

    #[test]
    fn hash_carrier_only_fires_on_iteration() {
        let quiet = analyze(
            "fn f(m: u64) -> u64 { let h = HashMap::new(); h.insert(m, m); fnv1a(&m.to_le_bytes()) }",
        );
        assert!(quiet.findings.is_empty(), "{:#?}", quiet.findings);
        let loud = analyze(
            "fn f() -> u64 { let h = HashMap::new(); let mut acc = 0u64; for k in h.keys() { acc = fnv1a_extend(acc, k); } acc }",
        );
        assert_eq!(loud.findings.len(), 1, "{:#?}", loud.findings);
        assert_eq!(loud.findings[0].kind, TaintKind::HashOrder);
    }

    #[test]
    fn param_taint_lands_in_summary_not_findings() {
        let a = analyze("fn f(x: u64) -> u64 { fnv1a(&x.to_le_bytes()) }");
        assert!(a.findings.is_empty());
        assert!(a.summary.param_sinks.contains_key(&0), "{:#?}", a.summary);
    }

    #[test]
    fn addr_cast_to_event_key_is_found() {
        let a = analyze(
            "fn f(q: &mut Q, e: &E) { let key = e as *const E as usize; q.schedule(key as u64, 0); }",
        );
        assert_eq!(a.findings.len(), 1, "{:#?}", a.findings);
        assert_eq!(a.findings[0].kind, TaintKind::Addr);
        assert_eq!(a.findings[0].sink, SinkKind::EventKey);
    }

    #[test]
    fn relaxed_load_to_fingerprint_is_found() {
        let a = analyze(
            "fn f(c: &AtomicU64) -> u64 { let v = c.load(Ordering::Relaxed); fingerprint(v) }",
        );
        assert_eq!(a.findings.len(), 1, "{:#?}", a.findings);
        assert_eq!(a.findings[0].kind, TaintKind::Relaxed);
    }

    #[test]
    fn env_read_to_checkpoint_is_found() {
        let a = analyze(
            "fn f(p: &Path) { let v = std::env::var(\"SEED\").unwrap_or_default(); write_atomic(p, v.as_bytes()); }",
        );
        assert!(
            a.findings
                .iter()
                .any(|f| f.kind == TaintKind::Env && f.sink == SinkKind::Checkpoint),
            "{:#?}",
            a.findings
        );
    }

    #[test]
    fn test_functions_do_not_report() {
        let fns = parse_file(&lex(
            "#[cfg(test)] mod tests { fn f() -> u64 { let t = Instant::now(); fnv1a(&(t.elapsed().as_nanos() as u64).to_le_bytes()) } }",
        ));
        assert_eq!(fns.len(), 1);
        assert!(fns[0].in_test);
        let cfg = lower_fn(&fns[0]);
        let a = analyze_fn(&cfg, "t.rs", &BTreeMap::new());
        assert!(a.findings.is_empty(), "{:#?}", a.findings);
    }

    #[test]
    fn len_stops_propagation() {
        let a = analyze(
            "fn f() -> u64 { let h = HashMap::new(); let n = h.len() as u64; fnv1a(&n.to_le_bytes()) }",
        );
        assert!(a.findings.is_empty(), "{:#?}", a.findings);
    }
}
