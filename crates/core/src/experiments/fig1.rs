//! Figure 1: schedbench execution-time variability on the two A64FX
//! systems — with firmware-reserved OS cores (BSC) and without (MACC) —
//! across schedule methods (st/dy/gd) and chunk sizes.
//!
//! The figure is rendered as a spread table (median, p10-p90 band,
//! s.d.) per x-axis label; the paper's claim is that the unreserved
//! system shows far larger spreads.

use crate::execconfig::{ExecConfig, Mitigation, Model};
use crate::experiments::plan::{Outcome, Plan, Reduce, RunSet, SetId};
use crate::experiments::{Scale, Section};
use crate::platform::Platform;
use noiselab_stats::{percentile, Summary, TextTable};
use noiselab_workloads::{SchedBench, Workload};
use std::rc::Rc;

/// Median, p10-p90 band and s.d. of one set's execution times, in ms:
/// a point of Figure 1 or Figure 2.
#[derive(Debug, Clone)]
pub struct Spread {
    pub median_ms: f64,
    pub p10_ms: f64,
    pub p90_ms: f64,
    pub sd_ms: f64,
}

impl Spread {
    pub fn of(secs: &[f64]) -> Spread {
        let summary = Summary::of(secs);
        Spread {
            median_ms: summary.median * 1e3,
            p10_ms: percentile(secs, 10.0) * 1e3,
            p90_ms: percentile(secs, 90.0) * 1e3,
            sd_ms: summary.sd * 1e3,
        }
    }
}

/// One spread table per A64FX system, `key` naming the x axis: the
/// reserved system's rows, then the unreserved one's.
pub fn render_spreads<'a, R>(figure: &str, key: &str, systems: [R; 2]) -> String
where
    R: Iterator<Item = (String, &'a Spread)>,
{
    let mut out = String::new();
    for (name, rows) in ["A64FX:reserved", "A64FX:w/o"].into_iter().zip(systems) {
        let mut t = TextTable::new(format!("{figure} on {name}")).header(&[
            key,
            "median(ms)",
            "p10(ms)",
            "p90(ms)",
            "s.d.(ms)",
        ]);
        for (label, p) in rows {
            t.row(&[
                label,
                format!("{:.1}", p.median_ms),
                format!("{:.1}", p.p10_ms),
                format!("{:.1}", p.p90_ms),
                format!("{:.2}", p.sd_ms),
            ]);
        }
        out.push_str(&t.render());
    }
    out
}

/// One point per keyed set of each A64FX system, as [`a64fx_systems`]
/// orders them.
pub fn spreads<K>(out: &Outcome, systems: [Vec<(K, SetId)>; 2]) -> [Vec<(K, Spread)>; 2] {
    systems.map(|sets| {
        let spread = |set| Spread::of(&out.ledger(set).samples());
        sets.into_iter()
            .map(|(key, set)| (key, spread(set)))
            .collect()
    })
}

/// The two A64FX systems, anomaly-boosted: reserved OS cores first.
pub fn a64fx_systems(scale: Scale) -> [Rc<Platform>; 2] {
    [true, false].map(|reserved| Rc::new(scale.boost(&Platform::a64fx(reserved))))
}

#[derive(Debug, Clone)]
pub struct SpreadPoint {
    pub label: String,
    pub spread: Spread,
}

#[derive(Debug, Clone)]
pub struct Fig1 {
    pub reserved: Vec<SpreadPoint>,
    pub unreserved: Vec<SpreadPoint>,
}

impl Fig1 {
    pub fn render(&self) -> String {
        let rows = [&self.reserved, &self.unreserved]
            .map(|points| points.iter().map(|p| (p.label.clone(), &p.spread)));
        let mut out = render_spreads("Figure 1: schedbench", "sched", rows);
        // Headline comparison.
        out.push_str(&format!(
            "average s.d.: reserved {:.2} ms vs w/o {:.2} ms\n",
            Fig1::avg_sd(&self.reserved),
            Fig1::avg_sd(&self.unreserved)
        ));
        out
    }

    pub fn avg_sd(points: &[SpreadPoint]) -> f64 {
        points.iter().map(|p| p.spread.sd_ms).sum::<f64>() / points.len().max(1) as f64
    }

    /// The paper's shape: the unreserved system is markedly noisier.
    pub fn check_shape(&self) -> Result<(), String> {
        let reserved = Fig1::avg_sd(&self.reserved);
        let unreserved = Fig1::avg_sd(&self.unreserved);
        if unreserved > reserved * 1.5 {
            Ok(())
        } else {
            Err(format!(
                "Figure 1: unreserved system should be markedly noisier: \
                 {unreserved:.2} vs {reserved:.2} ms"
            ))
        }
    }
}

/// Figure 1: every schedule of [`SchedBench::figure1_configs`] on each
/// A64FX system.
pub fn build(scale: Scale) -> (Plan, Reduce<Section>) {
    let mut plan = Plan::default();
    let systems = a64fx_systems(scale).map(|platform| {
        let configs = SchedBench::figure1_configs().into_iter();
        let set = |(label, schedule)| {
            let mut sb = SchedBench::with_schedule(schedule);
            // ~0.3 s per run on the A64FX, long enough for anomaly
            // windows to overlap the measurement.
            sb.repeats = 200;
            let sb: Rc<dyn Workload + Sync> = Rc::new(sb);
            let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm).with_schedule(schedule);
            let set = RunSet::new(&platform, &sb, cfg, 3_000, scale.baseline_runs);
            (label, plan.set(set))
        };
        configs.map(set).collect()
    });
    let reduce = move |out: &Outcome| {
        let [reserved, unreserved] = spreads(out, systems).map(|points| {
            let point = |(label, spread)| SpreadPoint { label, spread };
            points.into_iter().map(point).collect()
        });
        checked!(Fig1 {
            reserved,
            unreserved
        })
    };
    (plan, Box::new(reduce))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(sd_ms: f64) -> SpreadPoint {
        SpreadPoint {
            label: "st:1".into(),
            spread: Spread {
                median_ms: 100.0,
                p10_ms: 99.0,
                p90_ms: 105.0,
                sd_ms,
            },
        }
    }

    #[test]
    fn shape_needs_unreserved_half_again_noisier() {
        let fig = |reserved, unreserved| Fig1 {
            reserved: vec![point(reserved)],
            unreserved: vec![point(unreserved)],
        };
        assert_eq!(fig(2.0, 3.1).check_shape(), Ok(()));
        let err = fig(2.0, 3.0).check_shape().unwrap_err();
        assert!(err.contains("Figure 1"), "{err}");
    }

    #[test]
    fn render_lists_nine_configs_per_system() {
        let p = point(2.0);
        let f = Fig1 {
            reserved: vec![p.clone()],
            unreserved: vec![p],
        };
        let s = f.render();
        assert!(s.contains("A64FX:reserved"));
        assert!(s.contains("A64FX:w/o"));
        assert!(s.contains("st:1"));
    }
}
