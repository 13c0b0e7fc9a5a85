//! Dynamic voltage/frequency scaling: the machine-level half of the
//! DVFS noise axis.
//!
//! Real CPUs do not run at one frequency. Cores boost into a shared
//! turbo budget, governors move frequency with load, and sustained work
//! accumulates heat until the package throttles — all of which shows up
//! as run-to-run performance variance that the paper's platforms could
//! only suppress (the Intel testbed pins 4.7 GHz precisely to kill this
//! axis). This module describes that machinery *deterministically*: a
//! [`DvfsConfig`] carried by [`crate::Machine`] names three discrete
//! frequency levels, a per-package turbo budget, and an integer
//! fixed-point thermal model. The kernel advances the state in virtual
//! time; nothing here draws randomness, touches floats in state that is
//! hashed, or depends on host behavior.
//!
//! Frequency reaches the roofline model as a multiplier on the compute
//! roof only: a throttled compute-bound unit slows proportionally while
//! a memory-bound unit keeps streaming at DRAM speed (frequency barely
//! moves the memory roof on real parts). Turbo is normalized to factor
//! 1.0, so `flops_per_ns` in [`crate::PerfModel`] is the turbo-speed
//! rate and lower levels are exact fractions of it.
//!
//! Thermal state is integer-only by construction. Heat accumulates in
//! units of milli-heat x nanoseconds (`heat_x1000` in the kernel's
//! runtime): each busy nanosecond at level L adds `heat rate of L`
//! (milli-heat per busy microsecond) to the scaled accumulator, and
//! each wall nanosecond removes `cool_per_us`. No division happens on
//! the accumulation path, so the value is exact regardless of how the
//! kernel slices charges — a requirement of the determinism contract
//! (an order-dependent float sum must never reach `state_hash`).

use serde::{Deserialize, Serialize};

/// Frequency-selection policy, mirroring the cpufreq governors the
/// paper's Ubuntu testbeds expose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Governor {
    /// Race-to-idle: request turbo whenever the CPU is busy, fall back
    /// to base when the package's turbo budget is exhausted.
    Performance,
    /// Never leave the minimum frequency.
    Powersave,
    /// Load-following, schedutil-like: turbo only when work is queued
    /// behind the running thread, base for a lone runner, min when
    /// idle.
    Schedutil,
}

impl Governor {
    pub const ALL: [Governor; 3] = [
        Governor::Performance,
        Governor::Powersave,
        Governor::Schedutil,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Governor::Performance => "performance",
            Governor::Powersave => "powersave",
            Governor::Schedutil => "schedutil",
        }
    }

    /// Short uppercase tag used in campaign cell labels ("Rm-OMP-PERF").
    pub fn tag(self) -> &'static str {
        match self {
            Governor::Performance => "PERF",
            Governor::Powersave => "SAVE",
            Governor::Schedutil => "UTIL",
        }
    }

    pub fn from_name(s: &str) -> Option<Governor> {
        Governor::ALL.iter().copied().find(|g| g.name() == s)
    }
}

/// One of the three discrete frequency levels a CPU can occupy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FreqLevel {
    Min,
    Base,
    Turbo,
}

impl FreqLevel {
    pub fn name(self) -> &'static str {
        match self {
            FreqLevel::Min => "min",
            FreqLevel::Base => "base",
            FreqLevel::Turbo => "turbo",
        }
    }
}

/// The machine's DVFS description. Disabled by default: a machine with
/// `enabled == false` behaves bit-identically to one built before this
/// field existed (every preset ships it disabled, and the kernel skips
/// the subsystem entirely — no events, no rate scaling, no state).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DvfsConfig {
    pub enabled: bool,
    pub governor: Governor,
    /// Throttle / idle frequency in kHz.
    pub min_khz: u32,
    /// Sustained all-core frequency in kHz.
    pub base_khz: u32,
    /// Boost frequency in kHz; the roofline's `flops_per_ns` is the
    /// rate *at this level* (factor 1.0).
    pub turbo_khz: u32,
    /// Logical CPUs per package — the turbo-budget and (future) power
    /// domain. 0 means one package spanning the whole machine.
    pub package_cpus: u32,
    /// Maximum CPUs concurrently at turbo per package.
    pub turbo_slots: u32,
    /// Milli-heat added per busy microsecond at turbo.
    pub heat_turbo: u64,
    /// Milli-heat added per busy microsecond at or below base.
    pub heat_base: u64,
    /// Milli-heat removed per wall microsecond (always-on cooling).
    pub cool: u64,
    /// Heat (milli-heat) at which a CPU throttles to `min_khz`.
    pub throttle_at: u64,
    /// Heat (milli-heat) a throttled CPU must cool below before it may
    /// leave `min_khz` again. Must be `< throttle_at` (hysteresis).
    pub release_at: u64,
}

impl Default for DvfsConfig {
    fn default() -> Self {
        // Desktop-flavored numbers: ~100 ms of sustained turbo heats a
        // core to its throttle point, ~100 ms at min cools it back to
        // the release point. Disabled, so inert unless a scenario or
        // platform switches the axis on.
        DvfsConfig {
            enabled: false,
            governor: Governor::Performance,
            min_khz: 800_000,
            base_khz: 3_600_000,
            turbo_khz: 5_200_000,
            package_cpus: 0,
            turbo_slots: 2,
            heat_turbo: 40,
            heat_base: 10,
            cool: 15,
            throttle_at: 2_500_000,
            release_at: 2_000_000,
        }
    }
}

impl DvfsConfig {
    /// An enabled config with the default desktop numbers.
    pub fn enabled_default(governor: Governor) -> Self {
        DvfsConfig {
            enabled: true,
            governor,
            ..DvfsConfig::default()
        }
    }

    /// Frequency of a level in kHz.
    pub fn khz(&self, level: FreqLevel) -> u32 {
        match level {
            FreqLevel::Min => self.min_khz,
            FreqLevel::Base => self.base_khz,
            FreqLevel::Turbo => self.turbo_khz,
        }
    }

    /// Compute-roof multiplier for a level: `khz / turbo_khz`, so turbo
    /// is exactly 1.0 and every level is a fraction in (0, 1]. The
    /// value is a pure function of two integers — identical on every
    /// host and safe to feed the rate path.
    pub fn freq_factor(&self, level: FreqLevel) -> f64 {
        self.khz(level) as f64 / self.turbo_khz as f64
    }

    /// Milli-heat per busy microsecond at a level.
    pub fn heat_rate(&self, level: FreqLevel) -> u64 {
        match level {
            FreqLevel::Turbo => self.heat_turbo,
            _ => self.heat_base,
        }
    }

    /// Package (turbo-budget domain) of a logical CPU.
    pub fn package_of(&self, cpu: u32) -> u32 {
        cpu.checked_div(self.package_cpus).unwrap_or(0)
    }

    /// Number of packages for a machine with `n_cpus` logical CPUs.
    pub fn n_packages(&self, n_cpus: u32) -> u32 {
        if self.package_cpus == 0 {
            1
        } else {
            n_cpus.div_ceil(self.package_cpus).max(1)
        }
    }

    /// Clamp the config into a well-formed state: frequency levels
    /// ordered, hysteresis open (release strictly below throttle), and
    /// at least one turbo slot. Scenario sanitization and platform
    /// construction both funnel through here.
    pub fn sanitize(&mut self) {
        self.min_khz = self.min_khz.max(1);
        self.base_khz = self.base_khz.max(self.min_khz);
        self.turbo_khz = self.turbo_khz.max(self.base_khz);
        self.turbo_slots = self.turbo_slots.max(1);
        self.throttle_at = self.throttle_at.max(1);
        if self.release_at >= self.throttle_at {
            self.release_at = self.throttle_at - 1;
        }
    }

    /// True when the config is already well-formed (what [`sanitize`]
    /// enforces).
    ///
    /// [`sanitize`]: DvfsConfig::sanitize
    pub fn is_sane(&self) -> bool {
        let mut c = self.clone();
        c.sanitize();
        c == *self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled_and_sane() {
        let c = DvfsConfig::default();
        assert!(!c.enabled);
        assert!(c.is_sane());
        assert_eq!(c.khz(FreqLevel::Turbo), c.turbo_khz);
    }

    #[test]
    fn freq_factor_normalizes_turbo_to_one() {
        let c = DvfsConfig::default();
        assert_eq!(c.freq_factor(FreqLevel::Turbo), 1.0);
        let base = c.freq_factor(FreqLevel::Base);
        let min = c.freq_factor(FreqLevel::Min);
        assert!(min < base && base < 1.0);
        assert_eq!(base, 3_600_000.0 / 5_200_000.0);
    }

    #[test]
    fn packages_partition_cpus() {
        let mut c = DvfsConfig {
            package_cpus: 4,
            ..DvfsConfig::default()
        };
        assert_eq!(c.package_of(0), 0);
        assert_eq!(c.package_of(3), 0);
        assert_eq!(c.package_of(4), 1);
        assert_eq!(c.n_packages(10), 3);
        c.package_cpus = 0;
        assert_eq!(c.package_of(31), 0);
        assert_eq!(c.n_packages(32), 1);
    }

    #[test]
    fn sanitize_repairs_inverted_levels_and_closed_hysteresis() {
        let mut c = DvfsConfig {
            min_khz: 4_000_000,
            base_khz: 2_000_000,
            turbo_khz: 1_000_000,
            throttle_at: 100,
            release_at: 100,
            turbo_slots: 0,
            ..DvfsConfig::default()
        };
        assert!(!c.is_sane());
        c.sanitize();
        assert!(c.min_khz <= c.base_khz && c.base_khz <= c.turbo_khz);
        assert!(c.release_at < c.throttle_at);
        assert!(c.turbo_slots >= 1);
        assert!(c.is_sane());
    }

    #[test]
    fn governor_names_round_trip() {
        for g in Governor::ALL {
            assert_eq!(Governor::from_name(g.name()), Some(g));
        }
        assert_eq!(Governor::from_name("ondemand"), None);
    }

    #[test]
    fn serde_default_field_round_trip() {
        let c = DvfsConfig::enabled_default(Governor::Schedutil);
        let j = serde_json::to_string(&c).unwrap();
        let back: DvfsConfig = serde_json::from_str(&j).unwrap();
        assert_eq!(back, c);
    }
}
