//! Per-platform workload calibration.
//!
//! The paper reports different absolute baselines per platform but does
//! not state problem sizes; as on the real testbeds, sizes are chosen
//! per platform so baseline execution times match the paper's Tables
//! 1/3-5 (see EXPERIMENTS.md for the measured residuals). The *shape*
//! results never depend on these constants.

use crate::platform::Platform;
use noiselab_workloads::{Babelstream, MiniFE, NBody, Workload};
use std::rc::Rc;

fn is_amd(platform: &Platform) -> bool {
    platform.machine.name.contains("AMD")
}

/// N-body sized to the platform (Intel ~0.45 s, AMD ~0.67 s OMP-Rm).
pub fn nbody_for(platform: &Platform) -> NBody {
    if is_amd(platform) {
        NBody {
            bodies: 76_800,
            ..NBody::default()
        }
    } else {
        NBody::default()
    }
}

/// Babelstream sized to the platform (Intel ~1.9 s, AMD ~0.79 s OMP-Rm).
pub fn babelstream_for(platform: &Platform) -> Babelstream {
    if is_amd(platform) {
        Babelstream {
            elements: 5_280_000,
            ..Babelstream::default()
        }
    } else {
        Babelstream {
            elements: 7_100_000,
            ..Babelstream::default()
        }
    }
}

/// MiniFE sized to the platform (Intel ~1.06 s, AMD ~0.72 s OMP-Rm).
pub fn minife_for(platform: &Platform) -> MiniFE {
    if is_amd(platform) {
        MiniFE {
            nx: 74,
            ..MiniFE::default()
        }
    } else {
        MiniFE {
            nx: 70,
            ..MiniFE::default()
        }
    }
}

/// The paper's three workloads sized for `platform`, in table order:
/// N-body, Babelstream, MiniFE.
pub fn paper_workloads(platform: &Platform) -> [Rc<dyn Workload + Sync>; 3] {
    [
        Rc::new(nbody_for(platform)),
        Rc::new(babelstream_for(platform)),
        Rc::new(minife_for(platform)),
    ]
}

/// Construct a workload from its CLI/spec name, sized for `platform`.
/// The single source of truth for workload-name resolution, shared by
/// the `noiselab` binary and the sharded campaign workers — a worker
/// process must resolve "nbody" to exactly the instance the supervisor
/// fingerprinted. `*-small` names select the proportionally reduced
/// instances of [`small`]; `nbody-tiny` is a milliseconds-scale
/// instance for integration tests and chaos gates.
pub fn workload_by_name(
    platform: &Platform,
    name: &str,
) -> Option<Box<dyn noiselab_workloads::Workload + Sync>> {
    Some(match name {
        "nbody" => Box::new(nbody_for(platform)),
        "babelstream" => Box::new(babelstream_for(platform)),
        "minife" => Box::new(minife_for(platform)),
        "nbody-small" => Box::new(small::nbody_for(platform)),
        "babelstream-small" => Box::new(small::babelstream_for(platform)),
        "minife-small" => Box::new(small::minife_for(platform)),
        "nbody-tiny" => Box::new(NBody {
            bodies: 4_096,
            steps: 3,
            ..NBody::default()
        }),
        _ => return None,
    })
}

/// Names accepted by [`workload_by_name`], for error messages.
pub const WORKLOAD_NAMES: [&str; 7] = [
    "nbody",
    "babelstream",
    "minife",
    "nbody-small",
    "babelstream-small",
    "minife-small",
    "nbody-tiny",
];

/// Proportionally reduced instances (~10x smaller) behind the `*-small`
/// workload names and fast tests, preserving each workload's phase
/// structure.
pub mod small {
    use super::*;

    pub fn nbody_for(platform: &Platform) -> NBody {
        let mut w = super::nbody_for(platform);
        w.bodies /= 4; // force cost scales quadratically -> ~16x faster
        w
    }

    pub fn babelstream_for(platform: &Platform) -> Babelstream {
        let mut w = super::babelstream_for(platform);
        w.elements /= 4;
        w.iterations = 25;
        w
    }

    pub fn minife_for(platform: &Platform) -> MiniFE {
        let mut w = super::minife_for(platform);
        w.nx = (w.nx * 6) / 10;
        w.cg_iterations = 60;
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amd_sizes_differ_from_intel() {
        let i = Platform::intel();
        let a = Platform::amd();
        assert!(nbody_for(&a).bodies > nbody_for(&i).bodies);
        assert!(babelstream_for(&a).elements < babelstream_for(&i).elements);
        assert_ne!(minife_for(&a).nx, minife_for(&i).nx);
    }

    #[test]
    fn small_instances_are_smaller() {
        let p = Platform::intel();
        assert!(small::nbody_for(&p).bodies < nbody_for(&p).bodies);
        assert!(small::minife_for(&p).cg_iterations < minife_for(&p).cg_iterations);
    }
}
