//! The span recorder: a pure [`KernelObserver`] that turns scheduling
//! records into virtual-time spans, instants and counter samples, and
//! feeds the metrics registry.
//!
//! Because [`noiselab_kernel::Kernel::attach_observer`] takes a boxed
//! trait object, the recorder shares its state through an
//! `Rc<RefCell<..>>` handle (the same pattern as the noise tracer's
//! `TraceBuffer`), so the harness can snapshot metrics and take the
//! timeline after the run without downcasting.
//!
//! Spans are keyed by logical CPU (one timeline track per CPU) and
//! carry the occupying thread where applicable. Span and instant names
//! are interned into a string table so the recording path allocates
//! only the first time a name is seen.

use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use noiselab_kernel::{KernelObserver, SchedRecord, ThreadKind, ThreadState};
use noiselab_sim::SimTime;
use noiselab_stats::Log2Hist;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Default cap on stored spans/instants/samples per collection. Far
/// above what paper-scale runs emit; hitting it increments a drop
/// counter instead of growing without bound (mirroring the tracer's
/// bounded ring buffer).
pub const DEFAULT_MAX_EVENTS: usize = 1 << 20;

/// Telemetry configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Cap on stored spans, instants and counter samples (each).
    pub max_events: usize,
    /// Record the timeline (spans/instants/counter samples). Metrics
    /// are always on; campaigns disable the timeline to keep memory
    /// flat while still aggregating metrics.
    pub timeline: bool,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            max_events: DEFAULT_MAX_EVENTS,
            timeline: true,
        }
    }
}

impl TelemetryConfig {
    /// Metrics only — the campaign-aggregation mode.
    pub fn metrics_only() -> Self {
        TelemetryConfig {
            max_events: DEFAULT_MAX_EVENTS,
            timeline: false,
        }
    }
}

/// Span category; doubles as the Chrome trace-event `cat` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanCat {
    /// A workload thread on-CPU.
    Run,
    /// A noise/injector thread on-CPU.
    Noise,
    /// Hardware interrupt service.
    Irq,
    /// Softirq service.
    Softirq,
}

impl SpanCat {
    pub fn name(self) -> &'static str {
        match self {
            SpanCat::Run => "run",
            SpanCat::Noise => "noise",
            SpanCat::Irq => "irq",
            SpanCat::Softirq => "softirq",
        }
    }

    pub fn tag(self) -> u8 {
        match self {
            SpanCat::Run => 0,
            SpanCat::Noise => 1,
            SpanCat::Irq => 2,
            SpanCat::Softirq => 3,
        }
    }

    pub fn from_tag(t: u8) -> Option<SpanCat> {
        match t {
            0 => Some(SpanCat::Run),
            1 => Some(SpanCat::Noise),
            2 => Some(SpanCat::Irq),
            3 => Some(SpanCat::Softirq),
            _ => None,
        }
    }
}

/// A closed virtual-time span on one CPU track.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub cpu: u32,
    /// Occupying thread for run/noise spans.
    pub thread: Option<u32>,
    /// Index into the report's string table.
    pub name: u32,
    pub cat: SpanCat,
    pub start: SimTime,
    pub dur_ns: u64,
}

/// A point event (migration, preemption, policy switch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstantMark {
    pub cpu: u32,
    pub name: u32,
    pub time: SimTime,
}

/// One runqueue-depth sample on a CPU's counter track.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSample {
    pub cpu: u32,
    pub time: SimTime,
    pub depth: u32,
}

/// One frequency sample on a CPU's DVFS counter track, emitted at each
/// `FreqTransition` record. Empty (and absent from the binary
/// encoding) unless the machine's DVFS axis is enabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreqSample {
    pub cpu: u32,
    pub time: SimTime,
    pub khz: u32,
}

/// Everything a finished recorder hands back.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryReport {
    pub spans: Vec<Span>,
    pub instants: Vec<InstantMark>,
    pub counters: Vec<CounterSample>,
    /// Per-CPU frequency samples (DVFS runs only; otherwise empty).
    pub freq: Vec<FreqSample>,
    /// Interned span/instant names; `Span::name` indexes this.
    pub strings: Vec<String>,
    /// Highest CPU index seen, plus one.
    pub n_cpus: u32,
    /// End of the observed window (run exit time).
    pub end: SimTime,
    /// Events not stored because a collection hit its cap.
    pub dropped: u64,
    pub metrics: MetricsSnapshot,
}

struct OpenSpan {
    thread: u32,
    name: u32,
    cat: SpanCat,
    start: SimTime,
}

/// Counters and histograms touched on every scheduling record,
/// kept as plain fields instead of registry entries: the recording path
/// is a field increment, and the names are resolved once at
/// [`HotMetrics::flush`] time. Flushing only materializes metrics that
/// actually fired, matching the registry's create-on-first-add behavior.
#[derive(Default)]
struct HotMetrics {
    context_switches: u64,
    blocks: u64,
    preemptions: u64,
    enqueues: u64,
    dequeues: u64,
    decisions: u64,
    migrations: u64,
    numa_migrations: u64,
    policy_switches: u64,
    irq_timer: u64,
    irq_device: u64,
    irq_softirq: u64,
    freq_transitions: u64,
    throttle_enters: u64,
    throttle_exits: u64,
    runq_depth: Log2Hist,
    latency_ns: Log2Hist,
    irq_service_ns: Log2Hist,
    run_span_ns: Log2Hist,
    noise_span_ns: Log2Hist,
}

impl HotMetrics {
    fn flush(&self, m: &mut MetricsRegistry) {
        let counters = [
            ("sched.context_switches", self.context_switches),
            ("sched.blocks", self.blocks),
            ("sched.preemptions", self.preemptions),
            ("sched.enqueues", self.enqueues),
            ("sched.dequeues", self.dequeues),
            ("sched.decisions", self.decisions),
            ("sched.migrations", self.migrations),
            ("sched.numa_migrations", self.numa_migrations),
            ("sched.policy_switches", self.policy_switches),
            ("irq.timer", self.irq_timer),
            ("irq.device", self.irq_device),
            ("irq.softirq", self.irq_softirq),
            ("dvfs.freq_transitions", self.freq_transitions),
            ("dvfs.throttle_enters", self.throttle_enters),
            ("dvfs.throttle_exits", self.throttle_exits),
        ];
        for (name, v) in counters {
            if v > 0 {
                m.counter_add(name, v);
            }
        }
        let hists = [
            ("sched.runq_depth", &self.runq_depth),
            ("sched.latency_ns", &self.latency_ns),
            ("irq.service_ns", &self.irq_service_ns),
            ("run.span_ns", &self.run_span_ns),
            ("noise.span_ns", &self.noise_span_ns),
        ];
        for (name, h) in hists {
            if h.count > 0 {
                m.hist_merge(name, h);
            }
        }
    }
}

#[derive(Default)]
struct Inner {
    cfg: TelemetryConfig,
    spans: Vec<Span>,
    instants: Vec<InstantMark>,
    counters: Vec<CounterSample>,
    freq: Vec<FreqSample>,
    strings: Vec<String>,
    intern: BTreeMap<String, u32>,
    /// Per-CPU currently-open run/noise span.
    open: Vec<Option<OpenSpan>>,
    /// Per-CPU on-CPU nanoseconds (run + noise spans), kept outside the
    /// span store so utilization survives metrics-only mode and caps.
    busy: Vec<u64>,
    /// Enqueue time per thread (dense, grown on demand), consumed at
    /// switch-in for the scheduling-latency histogram.
    enqueued_at: Vec<Option<SimTime>>,
    /// Interned name id per thread, so repeat switch-ins of the same
    /// thread skip the intern-table walk. Valid because a thread's name
    /// never changes after spawn (debug-checked below).
    name_of_thread: Vec<u32>,
    /// Hot-path counters/histograms, folded into `metrics` at finish.
    hot: HotMetrics,
    n_cpus: u32,
    dropped: u64,
    metrics: MetricsRegistry,
}

impl Inner {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&i) = self.intern.get(s) {
            return i;
        }
        let i = self.strings.len() as u32;
        self.strings.push(s.to_string());
        self.intern.insert(s.to_string(), i);
        i
    }

    fn saw_cpu(&mut self, cpu: u32) {
        self.n_cpus = self.n_cpus.max(cpu + 1);
        if self.open.len() <= cpu as usize {
            self.open.resize_with(cpu as usize + 1, || None);
            self.busy.resize(cpu as usize + 1, 0);
        }
    }

    fn push_span(&mut self, s: Span) {
        if !self.cfg.timeline {
            return;
        }
        if self.spans.len() >= self.cfg.max_events {
            self.dropped += 1;
        } else {
            self.spans.push(s);
        }
    }

    fn push_instant(&mut self, cpu: u32, name: &'static str, time: SimTime) {
        if !self.cfg.timeline {
            return;
        }
        if self.instants.len() >= self.cfg.max_events {
            self.dropped += 1;
        } else {
            let name = self.intern(name);
            self.instants.push(InstantMark { cpu, name, time });
        }
    }

    fn close_open(&mut self, cpu: u32, end: SimTime) {
        let Some(open) = self.open[cpu as usize].take() else {
            return;
        };
        let dur_ns = end.since(open.start).nanos();
        match open.cat {
            SpanCat::Run => self.hot.run_span_ns.record(dur_ns),
            _ => self.hot.noise_span_ns.record(dur_ns),
        }
        self.busy[cpu as usize] += dur_ns;
        self.push_span(Span {
            cpu,
            thread: Some(open.thread),
            name: open.name,
            cat: open.cat,
            start: open.start,
            dur_ns,
        });
    }

    fn sched(&mut self, rec: &SchedRecord<'_>) {
        match *rec {
            SchedRecord::SwitchIn {
                cpu,
                thread,
                name,
                kind,
                time,
                runq_depth,
            } => {
                self.saw_cpu(cpu);
                // Defensive: a switch-in over a still-open span closes it.
                self.close_open(cpu, time);
                self.hot.context_switches += 1;
                self.hot.runq_depth.record(runq_depth as u64);
                if let Some(enq) = self
                    .enqueued_at
                    .get_mut(thread as usize)
                    .and_then(Option::take)
                {
                    self.hot.latency_ns.record(time.since(enq).nanos());
                }
                let cat = if kind == ThreadKind::Workload {
                    SpanCat::Run
                } else {
                    SpanCat::Noise
                };
                let ti = thread as usize;
                if self.name_of_thread.len() <= ti {
                    self.name_of_thread.resize(ti + 1, u32::MAX);
                }
                let name = if self.name_of_thread[ti] != u32::MAX {
                    let id = self.name_of_thread[ti];
                    debug_assert_eq!(self.strings[id as usize], name, "thread renamed mid-run");
                    id
                } else {
                    let id = self.intern(name);
                    self.name_of_thread[ti] = id;
                    id
                };
                self.open[cpu as usize] = Some(OpenSpan {
                    thread,
                    name,
                    cat,
                    start: time,
                });
            }
            SchedRecord::SwitchOut {
                cpu, time, state, ..
            } => {
                self.saw_cpu(cpu);
                self.close_open(cpu, time);
                if state == ThreadState::Blocked {
                    self.hot.blocks += 1;
                }
            }
            SchedRecord::Preempt { cpu, time, .. } => {
                self.saw_cpu(cpu);
                self.hot.preemptions += 1;
                self.push_instant(cpu, "preempt", time);
            }
            SchedRecord::Enqueue {
                cpu,
                thread,
                time,
                depth,
            } => {
                self.saw_cpu(cpu);
                self.hot.enqueues += 1;
                let ti = thread as usize;
                if self.enqueued_at.len() <= ti {
                    self.enqueued_at.resize(ti + 1, None);
                }
                self.enqueued_at[ti] = Some(time);
                if self.cfg.timeline {
                    if self.counters.len() >= self.cfg.max_events {
                        self.dropped += 1;
                    } else {
                        self.counters.push(CounterSample { cpu, time, depth });
                    }
                }
            }
            SchedRecord::Migrate {
                to_cpu,
                time,
                cross_numa,
                ..
            } => {
                self.saw_cpu(to_cpu);
                self.hot.migrations += 1;
                if cross_numa {
                    self.hot.numa_migrations += 1;
                    self.push_instant(to_cpu, "migrate-numa", time);
                } else {
                    self.push_instant(to_cpu, "migrate", time);
                }
            }
            SchedRecord::IrqSpan {
                cpu,
                time,
                duration_ns,
                source,
                softirq,
            } => {
                self.saw_cpu(cpu);
                if softirq {
                    self.hot.irq_softirq += 1;
                } else if source == "local_timer:236" {
                    self.hot.irq_timer += 1;
                } else {
                    self.hot.irq_device += 1;
                }
                self.hot.irq_service_ns.record(duration_ns);
                let cat = if softirq {
                    SpanCat::Softirq
                } else {
                    SpanCat::Irq
                };
                let name = self.intern(source);
                self.push_span(Span {
                    cpu,
                    thread: None,
                    name,
                    cat,
                    start: time,
                    dur_ns: duration_ns,
                });
            }
            SchedRecord::PolicySwitch { time, .. } => {
                self.hot.policy_switches += 1;
                self.push_instant(0, "policy-switch", time);
            }
            // Decision points are high-frequency conformance breadcrumbs;
            // count them, but emit no timeline events (a span per pick
            // would swamp the Perfetto track).
            SchedRecord::Decision { .. } => {
                self.hot.decisions += 1;
            }
            SchedRecord::Dequeue { .. } => {
                self.hot.dequeues += 1;
            }
            SchedRecord::FreqTransition {
                cpu, time, to_khz, ..
            } => {
                self.saw_cpu(cpu);
                self.hot.freq_transitions += 1;
                if self.cfg.timeline {
                    if self.freq.len() >= self.cfg.max_events {
                        self.dropped += 1;
                    } else {
                        self.freq.push(FreqSample {
                            cpu,
                            time,
                            khz: to_khz,
                        });
                    }
                }
            }
            SchedRecord::Throttle {
                cpu, time, entered, ..
            } => {
                self.saw_cpu(cpu);
                if entered {
                    self.hot.throttle_enters += 1;
                    self.push_instant(cpu, "throttle-enter", time);
                } else {
                    self.hot.throttle_exits += 1;
                    self.push_instant(cpu, "throttle-exit", time);
                }
            }
        }
    }

    fn finish(&mut self, end: SimTime) -> TelemetryReport {
        for cpu in 0..self.open.len() as u32 {
            self.close_open(cpu, end);
        }
        let hot = std::mem::take(&mut self.hot);
        hot.flush(&mut self.metrics);
        // Per-CPU utilization: busy (run + noise span) time over the
        // observed window.
        let window = end.0.max(1) as f64;
        if self.n_cpus > 0 {
            let utils: Vec<f64> = self.busy.iter().map(|&b| b as f64 / window).collect();
            let mean = utils.iter().sum::<f64>() / utils.len() as f64;
            let max = utils.iter().cloned().fold(0.0, f64::max);
            self.metrics.gauge_set("cpu.util.mean", mean);
            self.metrics.gauge_set("cpu.util.max", max);
        }
        if self.dropped > 0 {
            self.metrics.counter_add("telemetry.dropped", self.dropped);
        }
        TelemetryReport {
            spans: std::mem::take(&mut self.spans),
            instants: std::mem::take(&mut self.instants),
            counters: std::mem::take(&mut self.counters),
            freq: std::mem::take(&mut self.freq),
            strings: self.strings.clone(),
            n_cpus: self.n_cpus,
            end,
            dropped: self.dropped,
            metrics: self.metrics.snapshot(),
        }
    }
}

/// Shared telemetry pipeline handle for one run. Hand
/// [`Telemetry::observer`] to the kernel, run, then call
/// [`Telemetry::take_report`].
#[derive(Clone)]
pub struct Telemetry {
    inner: Rc<RefCell<Inner>>,
}

impl Telemetry {
    pub fn new(cfg: TelemetryConfig) -> Self {
        Telemetry {
            inner: Rc::new(RefCell::new(Inner {
                cfg,
                ..Inner::default()
            })),
        }
    }

    /// The boxed observer to attach to a kernel. Cloning the handle
    /// first keeps this end readable after the kernel takes the box.
    pub fn observer(&self) -> Box<dyn KernelObserver> {
        Box::new(Recorder {
            inner: Rc::clone(&self.inner),
        })
    }

    /// Add to a counter from outside the kernel (e.g. the harness
    /// surfacing tracer ring-buffer drops).
    pub fn counter_add(&self, name: &'static str, n: u64) {
        self.inner.borrow_mut().metrics.counter_add(name, n);
    }

    pub fn gauge_set(&self, name: &'static str, v: f64) {
        self.inner.borrow_mut().metrics.gauge_set(name, v);
    }

    /// Close open spans at `end`, compute utilization gauges, and take
    /// the report. The handle is spent afterwards (collections empty).
    pub fn take_report(&self, end: SimTime) -> TelemetryReport {
        self.inner.borrow_mut().finish(end)
    }
}

/// The boxed observer end of a [`Telemetry`] handle.
struct Recorder {
    inner: Rc<RefCell<Inner>>,
}

impl KernelObserver for Recorder {
    fn sched(&mut self, rec: &SchedRecord<'_>) {
        self.inner.borrow_mut().sched(rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(tele: &Telemetry, recs: &[SchedRecord<'_>]) {
        let mut obs = tele.observer();
        for r in recs {
            obs.sched(r);
        }
    }

    #[test]
    fn switch_pairs_become_spans_with_latency() {
        let tele = Telemetry::new(TelemetryConfig::default());
        feed(
            &tele,
            &[
                SchedRecord::Enqueue {
                    cpu: 0,
                    thread: 3,
                    time: SimTime(100),
                    depth: 1,
                },
                SchedRecord::SwitchIn {
                    cpu: 0,
                    thread: 3,
                    name: "worker-3",
                    kind: ThreadKind::Workload,
                    time: SimTime(400),
                    runq_depth: 0,
                },
                SchedRecord::SwitchOut {
                    cpu: 0,
                    thread: 3,
                    time: SimTime(1400),
                    state: ThreadState::Sleeping,
                },
            ],
        );
        let rep = tele.take_report(SimTime(2000));
        assert_eq!(rep.spans.len(), 1);
        let s = &rep.spans[0];
        assert_eq!(s.cpu, 0);
        assert_eq!(s.thread, Some(3));
        assert_eq!(s.cat, SpanCat::Run);
        assert_eq!(s.dur_ns, 1000);
        assert_eq!(rep.strings[s.name as usize], "worker-3");
        let lat = rep.metrics.hist("sched.latency_ns").expect("latency hist");
        assert_eq!(lat.count, 1);
        assert_eq!(lat.min, 300);
        assert_eq!(rep.metrics.counter("sched.context_switches"), 1);
        assert_eq!(rep.counters.len(), 1);
        assert_eq!(rep.n_cpus, 1);
    }

    #[test]
    fn noise_and_irq_spans_are_classified() {
        let tele = Telemetry::new(TelemetryConfig::default());
        feed(
            &tele,
            &[
                SchedRecord::SwitchIn {
                    cpu: 1,
                    thread: 9,
                    name: "kworker/1:1",
                    kind: ThreadKind::Noise,
                    time: SimTime(0),
                    runq_depth: 2,
                },
                SchedRecord::IrqSpan {
                    cpu: 1,
                    time: SimTime(500),
                    duration_ns: 2400,
                    source: "local_timer:236",
                    softirq: false,
                },
                SchedRecord::IrqSpan {
                    cpu: 1,
                    time: SimTime(2900),
                    duration_ns: 800,
                    source: "RCU:9",
                    softirq: true,
                },
                SchedRecord::SwitchOut {
                    cpu: 1,
                    thread: 9,
                    time: SimTime(5000),
                    state: ThreadState::Ready,
                },
            ],
        );
        let rep = tele.take_report(SimTime(10_000));
        assert_eq!(rep.spans.len(), 3);
        assert_eq!(rep.metrics.counter("irq.timer"), 1);
        assert_eq!(rep.metrics.counter("irq.softirq"), 1);
        let cats: Vec<SpanCat> = rep.spans.iter().map(|s| s.cat).collect();
        assert!(cats.contains(&SpanCat::Noise));
        assert!(cats.contains(&SpanCat::Irq));
        assert!(cats.contains(&SpanCat::Softirq));
        assert_eq!(rep.n_cpus, 2);
    }

    #[test]
    fn open_span_is_closed_at_report_end() {
        let tele = Telemetry::new(TelemetryConfig::default());
        feed(
            &tele,
            &[SchedRecord::SwitchIn {
                cpu: 0,
                thread: 0,
                name: "main",
                kind: ThreadKind::Workload,
                time: SimTime(100),
                runq_depth: 0,
            }],
        );
        let rep = tele.take_report(SimTime(600));
        assert_eq!(rep.spans.len(), 1);
        assert_eq!(rep.spans[0].dur_ns, 500);
        let util = rep.metrics.gauge("cpu.util.mean").expect("util gauge");
        assert!(util > 0.8, "util={util}");
    }

    #[test]
    fn event_cap_counts_drops_instead_of_growing() {
        let tele = Telemetry::new(TelemetryConfig {
            max_events: 2,
            timeline: true,
        });
        for i in 0..5u64 {
            feed(
                &tele,
                &[SchedRecord::IrqSpan {
                    cpu: 0,
                    time: SimTime(i * 100),
                    duration_ns: 10,
                    source: "nvme0q7:130",
                    softirq: false,
                }],
            );
        }
        let rep = tele.take_report(SimTime(1000));
        assert_eq!(rep.spans.len(), 2);
        assert_eq!(rep.dropped, 3);
        assert_eq!(rep.metrics.counter("telemetry.dropped"), 3);
        // Metrics keep counting past the cap.
        assert_eq!(rep.metrics.counter("irq.device"), 5);
    }

    #[test]
    fn metrics_only_mode_stores_no_timeline() {
        let tele = Telemetry::new(TelemetryConfig::metrics_only());
        feed(
            &tele,
            &[
                SchedRecord::SwitchIn {
                    cpu: 0,
                    thread: 1,
                    name: "w",
                    kind: ThreadKind::Workload,
                    time: SimTime(0),
                    runq_depth: 0,
                },
                SchedRecord::SwitchOut {
                    cpu: 0,
                    thread: 1,
                    time: SimTime(100),
                    state: ThreadState::Exited,
                },
            ],
        );
        let rep = tele.take_report(SimTime(100));
        assert!(rep.spans.is_empty());
        assert_eq!(rep.metrics.counter("sched.context_switches"), 1);
        assert_eq!(rep.metrics.hist("run.span_ns").map(|h| h.count), Some(1));
    }
}
