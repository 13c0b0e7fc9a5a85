//! Per-table experiment definitions (the evaluation section of the
//! paper). Each submodule regenerates one table or figure; the bench
//! harness in `noiselab-bench` runs them and prints the result next to
//! the paper's numbers.

pub mod ablation;
pub mod fig1;
pub mod fig2;
pub mod inject;
pub mod numa;
pub mod runlevel;
pub mod suite;
pub mod table1;
pub mod table2;
pub mod table6;
pub mod table7;

use crate::platform::Platform;

/// Replication counts. The paper uses 1000 baseline and 200 injection
/// repetitions; on a single-CPU simulation host the default bench scale
/// trades statistical resolution for runtime while keeping the pipeline
/// identical. `NOISELAB_SCALE=smoke|bench|paper` selects at runtime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Traced baseline runs per trace collection (paper: 1000).
    pub traced_runs: usize,
    /// Untraced baseline runs per configuration cell (paper: 1000).
    pub baseline_runs: usize,
    /// Injection runs per cell (paper: 200).
    pub inject_runs: usize,
    /// Multiplier on the natural anomaly probability, so small trace
    /// collections still contain a worst-case outlier (the paper's 1000
    /// runs catch anomalies at natural rates).
    pub anomaly_boost: f64,
}

impl Scale {
    /// Minimal scale for integration tests.
    pub fn smoke() -> Scale {
        Scale {
            traced_runs: 10,
            baseline_runs: 8,
            inject_runs: 5,
            anomaly_boost: 30.0,
        }
    }

    /// Default scale for `cargo bench`.
    pub fn bench() -> Scale {
        Scale {
            traced_runs: 30,
            baseline_runs: 20,
            inject_runs: 12,
            anomaly_boost: 10.0,
        }
    }

    /// The paper's replication counts.
    pub fn paper() -> Scale {
        Scale {
            traced_runs: 1000,
            baseline_runs: 1000,
            inject_runs: 200,
            anomaly_boost: 1.0,
        }
    }

    /// Scale selected by `NOISELAB_SCALE` (default: bench).
    #[expect(
        clippy::disallowed_methods,
        reason = "picks how many runs a table repeats; every run stays a function of its seed"
    )]
    pub fn from_env() -> Scale {
        match std::env::var("NOISELAB_SCALE").as_deref() {
            Ok("smoke") => Scale::smoke(),
            Ok("paper") => Scale::paper(),
            _ => Scale::bench(),
        }
    }

    /// Apply the anomaly boost to a platform's noise profile.
    pub fn boost(&self, platform: &Platform) -> Platform {
        let mut p = platform.clone();
        p.noise.anomaly_prob = (p.noise.anomaly_prob * self.anomaly_boost).min(0.5);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boost_caps_probability() {
        let s = Scale {
            anomaly_boost: 1000.0,
            ..Scale::smoke()
        };
        let p = s.boost(&Platform::intel());
        assert!(p.noise.anomaly_prob <= 0.5);
    }

    #[test]
    fn paper_scale_matches_paper() {
        let p = Scale::paper();
        assert_eq!(p.traced_runs, 1000);
        assert_eq!(p.inject_runs, 200);
        assert_eq!(p.anomaly_boost, 1.0);
    }
}
