//! Figure 2: variability of the Babelstream `dot` kernel versus thread
//! count on the two A64FX systems. The paper's observation: without
//! reserved OS cores, variability explodes when all 48 cores are used
//! (no spare core can absorb OS interference).

use crate::execconfig::{ExecConfig, Mitigation, Model};
use crate::experiments::Scale;
use crate::failure::RetryPolicy;
use crate::harness::{run_many, RunSpec};
use crate::platform::Platform;
use noiselab_stats::{percentile, Summary, TextTable};
use noiselab_workloads::Babelstream;

#[derive(Debug, Clone)]
pub struct ThreadPoint {
    pub threads: usize,
    pub median_ms: f64,
    pub p10_ms: f64,
    pub p90_ms: f64,
    pub sd_ms: f64,
}

#[derive(Debug, Clone)]
pub struct Fig2 {
    pub reserved: Vec<ThreadPoint>,
    pub unreserved: Vec<ThreadPoint>,
}

impl Fig2 {
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, points) in [
            ("A64FX:reserved", &self.reserved),
            ("A64FX:w/o", &self.unreserved),
        ] {
            let mut t = TextTable::new(format!("Figure 2: Babelstream dot on {name}")).header(&[
                "threads",
                "median(ms)",
                "p10(ms)",
                "p90(ms)",
                "s.d.(ms)",
            ]);
            for p in points {
                t.row(&[
                    p.threads.to_string(),
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

    /// s.d. at the maximum thread count of each system.
    pub fn full_occupancy_sd(points: &[ThreadPoint]) -> f64 {
        points
            .iter()
            .max_by_key(|p| p.threads)
            .map(|p| p.sd_ms)
            .unwrap_or(0.0)
    }
}

fn measure(platform: &Platform, scale: Scale, small: bool, threads: &[usize]) -> Vec<ThreadPoint> {
    // ~0.2 s per run at full scale so anomaly windows overlap the
    // measurement (the dot kernel itself is very fast on HBM).
    let elements = if small { 1 << 21 } else { 33_554_432 };
    let iterations = if small { 20 } else { 200 };
    let bs = Babelstream::dot_only(elements, iterations);
    let mut points = Vec::new();
    for &n in threads {
        let cfg = ExecConfig::new(Model::Omp, Mitigation::Rm).with_threads(n);
        let spec = RunSpec::new(platform, &bs, &cfg, 4_000);
        let ledger = run_many(&spec, scale.baseline_runs, RetryPolicy::none());
        let secs = ledger.samples();
        for (seed, cause) in ledger.failures() {
            eprintln!("fig2: run seed {seed} failed ({cause}); excluded from spread");
        }
        let summary = Summary::of(&secs);
        points.push(ThreadPoint {
            threads: n,
            median_ms: percentile(&secs, 50.0) * 1e3,
            p10_ms: percentile(&secs, 10.0) * 1e3,
            p90_ms: percentile(&secs, 90.0) * 1e3,
            sd_ms: summary.sd * 1e3,
        });
    }
    points
}

/// Run the Figure 2 experiment.
pub fn run(scale: Scale, small: bool) -> Fig2 {
    let threads: &[usize] = if small {
        &[12, 48]
    } else {
        &[6, 12, 24, 36, 48]
    };
    let reserved = scale.boost(&Platform::a64fx(true));
    let unreserved = scale.boost(&Platform::a64fx(false));
    Fig2 {
        reserved: measure(&reserved, scale, small, threads),
        unreserved: measure(&unreserved, scale, small, threads),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_occupancy_picks_max_threads() {
        let mk = |threads, sd_ms| ThreadPoint {
            threads,
            median_ms: 0.0,
            p10_ms: 0.0,
            p90_ms: 0.0,
            sd_ms,
        };
        let pts = vec![mk(12, 1.0), mk(48, 9.0), mk(24, 2.0)];
        assert_eq!(Fig2::full_occupancy_sd(&pts), 9.0);
    }

    #[test]
    fn render_contains_thread_counts() {
        let p = ThreadPoint {
            threads: 48,
            median_ms: 5.0,
            p10_ms: 4.0,
            p90_ms: 9.0,
            sd_ms: 2.0,
        };
        let f = Fig2 {
            reserved: vec![p.clone()],
            unreserved: vec![p],
        };
        assert!(f.render().contains("48"));
    }
}
