//! Figure 2: variability of the Babelstream `dot` kernel versus thread
//! count on the two A64FX systems. The paper's observation: without
//! reserved OS cores, variability explodes when all 48 cores are used
//! (no spare core can absorb OS interference).

use crate::execconfig::{ExecConfig, Mitigation, Model};
use crate::experiments::fig1::{a64fx_systems, render_spreads, spreads, Spread};
use crate::experiments::plan::{Outcome, Plan, Reduce, RunSet};
use crate::experiments::{Scale, Section};
use noiselab_workloads::{Babelstream, Workload};
use std::rc::Rc;

/// The thread counts on the figure's x axis.
const THREADS: [usize; 5] = [6, 12, 24, 36, 48];

#[derive(Debug, Clone)]
pub struct ThreadPoint {
    pub threads: usize,
    pub spread: Spread,
}

#[derive(Debug, Clone)]
pub struct Fig2 {
    pub reserved: Vec<ThreadPoint>,
    pub unreserved: Vec<ThreadPoint>,
}

impl Fig2 {
    pub fn render(&self) -> String {
        let rows = [&self.reserved, &self.unreserved]
            .map(|points| points.iter().map(|p| (p.threads.to_string(), &p.spread)));
        render_spreads("Figure 2: Babelstream dot", "threads", rows)
    }

    /// s.d. at the maximum thread count of each system.
    pub fn full_occupancy_sd(points: &[ThreadPoint]) -> f64 {
        points
            .iter()
            .max_by_key(|p| p.threads)
            .map(|p| p.spread.sd_ms)
            .unwrap_or(0.0)
    }

    /// The paper's shape: at full occupancy the unreserved system is
    /// noisier.
    pub fn check_shape(&self) -> Result<(), String> {
        let r = Fig2::full_occupancy_sd(&self.reserved);
        let u = Fig2::full_occupancy_sd(&self.unreserved);
        if u > r {
            Ok(())
        } else {
            Err(format!(
                "Figure 2: full occupancy on the unreserved system should be noisier: \
                 {u:.2} vs {r:.2} ms"
            ))
        }
    }
}

/// Figure 2: the `dot` kernel at every thread count on each A64FX
/// system.
pub fn build(scale: Scale) -> (Plan, Reduce<Section>) {
    // ~0.2 s per run so anomaly windows overlap the measurement (the
    // dot kernel itself is very fast on HBM).
    let bs: Rc<dyn Workload + Sync> = Rc::new(Babelstream::dot_only(33_554_432, 200));
    let mut plan = Plan::default();
    let systems = a64fx_systems(scale).map(|platform| {
        let set = |n| {
            let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm).with_threads(n);
            let set = RunSet::new(&platform, &bs, cfg, 4_000, scale.baseline_runs);
            (n, plan.set(set))
        };
        THREADS.into_iter().map(set).collect()
    });
    let reduce = move |out: &Outcome| {
        let [reserved, unreserved] = spreads(out, systems).map(|points| {
            let point = |(threads, spread)| ThreadPoint { threads, spread };
            points.into_iter().map(point).collect()
        });
        checked!(Fig2 {
            reserved,
            unreserved
        })
    };
    (plan, Box::new(reduce))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(threads: usize, sd_ms: f64) -> ThreadPoint {
        ThreadPoint {
            threads,
            spread: Spread {
                median_ms: 0.0,
                p10_ms: 0.0,
                p90_ms: 0.0,
                sd_ms,
            },
        }
    }

    #[test]
    fn full_occupancy_picks_max_threads() {
        let pts = vec![mk(12, 1.0), mk(48, 9.0), mk(24, 2.0)];
        assert_eq!(Fig2::full_occupancy_sd(&pts), 9.0);
    }

    #[test]
    fn shape_needs_unreserved_noisier_at_full_occupancy() {
        let fig = |reserved, unreserved| Fig2 {
            reserved: vec![mk(12, 9.0), mk(48, reserved)],
            unreserved: vec![mk(12, 0.0), mk(48, unreserved)],
        };
        assert_eq!(fig(2.0, 2.5).check_shape(), Ok(()));
        let err = fig(2.0, 2.0).check_shape().unwrap_err();
        assert!(err.contains("Figure 2"), "{err}");
    }

    #[test]
    fn render_contains_thread_counts() {
        let p = mk(48, 2.0);
        let f = Fig2 {
            reserved: vec![p.clone()],
            unreserved: vec![p],
        };
        assert!(f.render().contains("48"));
    }
}
