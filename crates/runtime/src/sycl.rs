//! SYCL-style runtime model (DPC++ CPU backend).
//!
//! Mirrors the behaviour of a SYCL CPU runtime as it matters to noise
//! resilience: every kernel is an ND-range decomposed into work-groups
//! that a worker pool claims *dynamically* — so when noise stalls one
//! worker, the others absorb its remaining work-groups and the kernel's
//! critical path degrades by roughly `stall / nthreads` instead of
//! `stall` — at the price of per-kernel submission latency and
//! per-work-group dispatch cost that make raw execution slower than the
//! OpenMP model, exactly the trade-off the paper measures.
//!
//! A `kernel_efficiency` factor (≥ 1) scales kernel work to account for
//! the less specialised code generation the paper observes for SYCL
//! (consistently longer raw execution times than OpenMP for the same
//! benchmark); each workload documents its factor.

use crate::program::{ChunkPolicy, Phase, Program, RuntimeParams, WorkFn};
use noiselab_machine::WorkUnit;
use noiselab_sim::SimDuration;
use std::rc::Rc;

/// Runtime overheads of the modelled SYCL CPU backend.
pub fn default_params() -> RuntimeParams {
    RuntimeParams {
        // Per modelled work-group batch (see `SyclQueue::submit`).
        chunk_overhead: SimDuration::from_micros(2),
        // Kernel submission: host-side queue processing + dispatch.
        phase_gap: SimDuration::from_micros(18),
        // TBB-style dispatcher spins briefly before parking.
        barrier_spin: SimDuration::from_micros(50),
        startup: SimDuration::from_micros(80),
    }
}

/// An in-order SYCL queue under construction: `submit` appends kernels;
/// `finish` produces the [`Program`].
pub struct SyclQueue {
    program: Program,
    nthreads_hint: usize,
    kernel_efficiency: f64,
    bandwidth_efficiency: f64,
}

impl SyclQueue {
    /// `nthreads_hint` sizes the modelled work-group batches;
    /// `kernel_efficiency >= 1` scales kernel cost relative to the
    /// OpenMP-compiled equivalent.
    pub fn new(nthreads_hint: usize, kernel_efficiency: f64) -> Self {
        assert!(kernel_efficiency >= 1.0);
        SyclQueue {
            program: Program::new(),
            nthreads_hint: nthreads_hint.max(1),
            kernel_efficiency,
            bandwidth_efficiency: 1.0,
        }
    }

    /// Fraction (0, 1] of the machine's streaming bandwidth the SYCL
    /// backend sustains. Generic ND-range code vectorises gather/scatter
    /// less aggressively than OpenMP-compiled loops, so memory-bound
    /// kernels run below the machine's STREAM rate; effective traffic is
    /// scaled by `1 / efficiency`.
    pub fn with_bandwidth_efficiency(mut self, efficiency: f64) -> Self {
        assert!(efficiency > 0.0 && efficiency <= 1.0);
        self.bandwidth_efficiency = efficiency;
        self
    }

    /// Submit an ND-range kernel of `global` items with the given
    /// work-group size.
    ///
    /// Work-groups are claimed dynamically by the pool. To keep event
    /// counts tractable, consecutive work-groups are modelled in batches
    /// targeting ~8 batches per worker, while the dispatch overhead is
    /// charged per *real* work-group so the runtime cost is preserved.
    pub fn submit(
        &mut self,
        name: impl Into<String>,
        global: usize,
        wg_size: usize,
        work: WorkFn,
    ) -> &mut Self {
        let wg_size = wg_size.max(1);
        let n_wgs = global.div_ceil(wg_size);
        let target_batches = self.nthreads_hint * 8;
        let wgs_per_batch = n_wgs.div_ceil(target_batches).max(1);
        let batch_items = (wgs_per_batch * wg_size).min(global.max(1));

        // Fold the per-work-group dispatch cost into the work function:
        // each batch carries `wgs_in_batch * wg_dispatch` of pure-CPU
        // overhead, expressed in flops at program-build time via the
        // efficiency-scaled work below (the engine also charges the
        // per-chunk overhead from `RuntimeParams`, calibrated for one
        // batch).
        let eff = self.kernel_efficiency;
        let bw_scale = 1.0 / self.bandwidth_efficiency;
        let scaled: WorkFn = Rc::new(move |start, n| {
            let w = work(start, n);
            WorkUnit {
                flops: w.flops * eff,
                bytes: w.bytes * bw_scale,
            }
        });

        self.program.push(Phase {
            name: name.into(),
            items: global,
            policy: ChunkPolicy::Dynamic { chunk: batch_items },
            work: scaled,
        });
        self
    }

    pub fn finish(self) -> Program {
        self.program
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_batches_workgroups() {
        let mut q = SyclQueue::new(4, 1.0);
        q.submit(
            "k",
            32_768,
            256,
            Rc::new(|_, n| WorkUnit::compute(n as f64)),
        );
        let p = q.finish();
        assert_eq!(p.phases.len(), 1);
        // 128 wgs into ~32 batches -> 4 wgs/batch -> 1024 items.
        match p.phases[0].policy {
            ChunkPolicy::Dynamic { chunk } => assert_eq!(chunk, 1024),
            _ => panic!("expected dynamic"),
        }
    }

    #[test]
    fn efficiency_scales_flops_not_bytes() {
        let mut q = SyclQueue::new(4, 1.5);
        q.submit(
            "k",
            100,
            10,
            Rc::new(|_, n| WorkUnit::new(n as f64, n as f64 * 8.0)),
        );
        let p = q.finish();
        let w = (p.phases[0].work)(0, 100);
        assert_eq!(w.flops, 150.0);
        assert_eq!(w.bytes, 800.0);
    }

    #[test]
    fn bandwidth_efficiency_inflates_bytes() {
        let mut q = SyclQueue::new(4, 1.0).with_bandwidth_efficiency(0.8);
        q.submit(
            "k",
            100,
            10,
            Rc::new(|_, n| WorkUnit::new(n as f64, n as f64 * 8.0)),
        );
        let p = q.finish();
        let w = (p.phases[0].work)(0, 100);
        assert_eq!(w.flops, 100.0);
        assert!((w.bytes - 1000.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "kernel_efficiency")]
    fn efficiency_below_one_rejected() {
        SyclQueue::new(4, 0.9);
    }

    #[test]
    fn tiny_kernels_get_single_batch() {
        let mut q = SyclQueue::new(8, 1.0);
        q.submit("k", 5, 256, Rc::new(|_, n| WorkUnit::compute(n as f64)));
        let p = q.finish();
        match p.phases[0].policy {
            ChunkPolicy::Dynamic { chunk } => assert!(chunk >= 5),
            _ => panic!(),
        }
    }
}
