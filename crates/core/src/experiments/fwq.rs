//! FWQ extension: the classic fixed-work-quantum jitter probe, used to
//! cross-validate the noise model — the interference FWQ detects must
//! be consistent with what the osnoise tracer records in the same run.

use noiselab_kernel::{Kernel, KernelConfig};
use noiselab_machine::Machine;
use noiselab_noise::{install, NoiseProfile, OsNoiseTracer};
use noiselab_sim::{Rng, SimDuration};
use noiselab_workloads::fwq::{measure, Fwq, FwqReport};

/// FWQ's view of one run next to the tracer's view of the same run.
#[derive(Debug, Clone)]
pub struct FwqValidation {
    pub report: FwqReport,
    /// Noise the osnoise tracer recorded, in ms.
    pub traced_ms: f64,
    pub traced_events: usize,
}

impl FwqValidation {
    pub fn render(&self) -> String {
        let r = &self.report;
        format!(
            "== FWQ cross-validation (Intel, desktop noise + forced anomaly) ==\n\
             quanta: {} x {:.1}us  disturbed: {} ({:.2}%)\n\
             FWQ-detected noise: {:.3}ms  max detention: {:.3}ms\n\
             osnoise-traced noise: {:.3}ms ({} events)\n",
            r.total_samples,
            r.min_quantum.as_micros_f64(),
            r.disturbed_samples,
            r.disturbed_samples as f64 / r.total_samples as f64 * 100.0,
            r.total_noise.as_millis_f64(),
            r.max_detention.as_millis_f64(),
            self.traced_ms,
            self.traced_events
        )
    }

    /// FWQ must see noise, and the traced-to-detected ratio must lie in
    /// `[0.2, 20)`.
    pub fn check_shape(&self) -> Result<(), String> {
        if self.report.total_noise.nanos() == 0 {
            return Err("FWQ cross-validation: FWQ saw no noise".into());
        }
        let ratio = self.traced_ms / self.report.total_noise.as_millis_f64();
        if !(0.2..20.0).contains(&ratio) {
            return Err(format!(
                "FWQ cross-validation: tracer and FWQ disagree wildly: ratio {ratio:.2}"
            ));
        }
        Ok(())
    }
}

/// Run FWQ on every CPU of the Intel machine under desktop noise with a
/// forced anomaly, with the osnoise tracer attached.
pub fn run() -> FwqValidation {
    let mut kernel = Kernel::new(Machine::intel_9700kf(), KernelConfig::default(), 11);
    let mut rng = Rng::new(111);
    let mut profile = NoiseProfile::desktop();
    profile.anomaly_prob = 1.0;
    install(&mut kernel, &profile, &mut rng);
    let (tracer, buffer) = OsNoiseTracer::new();
    kernel.attach_tracer(Box::new(tracer));

    let report = measure(&mut kernel, &Fwq::default());
    let trace = buffer.take_trace(0, SimDuration::ZERO);
    let traced_ns: u64 = trace.events.iter().map(|e| e.duration.nanos()).sum();
    FwqValidation {
        report,
        traced_ms: traced_ns as f64 / 1e6,
        traced_events: trace.events.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn validation(noise_ms: u64, traced_ms: f64) -> FwqValidation {
        FwqValidation {
            report: FwqReport {
                min_quantum: SimDuration::from_micros(1_000),
                total_noise: SimDuration::from_millis(noise_ms),
                max_detention: SimDuration::from_millis(noise_ms),
                disturbed_samples: 1,
                total_samples: 100,
            },
            traced_ms,
            traced_events: 3,
        }
    }

    #[test]
    fn shape_holds_when_tracer_and_fwq_agree() {
        assert_eq!(validation(10, 12.0).check_shape(), Ok(()));
    }

    #[test]
    fn shape_fails_without_noise() {
        let err = validation(0, 1.0).check_shape().unwrap_err();
        assert!(
            err.contains("FWQ cross-validation") && err.contains("no noise"),
            "{err}"
        );
    }

    #[test]
    fn shape_fails_when_tracer_and_fwq_disagree() {
        for traced in [1.0, 250.0] {
            let err = validation(10, traced).check_shape().unwrap_err();
            assert!(
                err.contains("FWQ cross-validation") && err.contains("ratio"),
                "{err}"
            );
        }
    }
}
