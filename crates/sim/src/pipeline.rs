//! Discrete pipeline simulation of the overlap-centric design (Sec. 6.2).
//!
//! The analytic model in [`crate::throughput`] approximates overlap as
//! `max(compute, comm)`. This module simulates the actual three-hop
//! pipeline the paper describes — `nc` (NVMe→CPU), `cg` (CPU→GPU), `gg`
//! (allgather) per module, overlapped with per-module compute — as a
//! resource-constrained schedule:
//!
//! * each hop is a serial channel (one transfer at a time, FIFO);
//! * GPU compute is a serial resource;
//! * with prefetch depth `d`, module `i`'s transfers may begin once
//!   module `i - d` has *started* computing (the paper's "invoke nc, cg
//!   and gg-transfer for parameters required by i+3, i+2, i+1");
//! * module `i`'s compute needs its own `gg` hop finished.
//!
//! The schedule reduces to a deterministic recurrence (all queues are
//! FIFO), so no event heap is needed.

/// One module's resource demands (seconds on each channel).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ModuleCost {
    /// NVMe→CPU transfer time for the module's parameter shards.
    pub nc: f64,
    /// CPU→GPU transfer time.
    pub cg: f64,
    /// GPU–GPU allgather time.
    pub gg: f64,
    /// Compute time of the module itself.
    pub compute: f64,
}

/// Resulting schedule statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PipelineResult {
    /// Wall-clock time for the whole module sequence.
    pub total: f64,
    /// Time the GPU spent idle waiting for parameters.
    pub compute_stall: f64,
}

/// Simulate the forward pass of `modules` with the given prefetch depth.
///
/// `depth == 0` means fully synchronous: every transfer starts only when
/// its own module is reached (the no-prefetch baseline of Fig. 6d).
pub(crate) fn simulate(modules: &[ModuleCost], depth: usize) -> PipelineResult {
    let n = modules.len();
    if n == 0 {
        return PipelineResult { total: 0.0, compute_stall: 0.0 };
    }
    // Per-channel next-free times.
    let mut nc_free = 0.0f64;
    let mut cg_free = 0.0f64;
    let mut gg_free = 0.0f64;
    let mut gpu_free = 0.0f64;
    // compute_start[i] recorded to gate transfers of module i + depth.
    let mut compute_start = vec![0.0f64; n];
    let mut stall = 0.0f64;
    let mut gg_done = vec![0.0f64; n];

    // Transfers are issued in module order (FIFO per channel). A
    // module's transfers become eligible when module (i - depth) starts
    // computing; the first `depth` modules are eligible at time 0.
    for i in 0..n {
        let eligible = if depth == 0 {
            // Synchronous: wait until the GPU actually reaches module i
            // (i.e. the previous module finished computing).
            if i == 0 {
                0.0
            } else {
                gpu_free
            }
        } else if i < depth {
            0.0
        } else {
            compute_start[i - depth]
        };
        let m = &modules[i];
        let nc_start = nc_free.max(eligible);
        let nc_done = nc_start + m.nc;
        nc_free = nc_done;
        let cg_start = cg_free.max(nc_done);
        let cg_done = cg_start + m.cg;
        cg_free = cg_done;
        let gg_start = gg_free.max(cg_done);
        gg_done[i] = gg_start + m.gg;
        gg_free = gg_done[i];

        let start = gpu_free.max(gg_done[i]);
        stall += start - gpu_free;
        compute_start[i] = start;
        gpu_free = start + m.compute;
    }
    PipelineResult { total: gpu_free, compute_stall: stall }
}

/// Speedup of prefetch depth `d` over the synchronous schedule.
pub(crate) fn prefetch_speedup(modules: &[ModuleCost], depth: usize) -> f64 {
    let sync = simulate(modules, 0).total;
    let over = simulate(modules, depth).total;
    sync / over
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: usize, nc: f64, cg: f64, gg: f64, compute: f64) -> Vec<ModuleCost> {
        vec![ModuleCost { nc, cg, gg, compute }; n]
    }

    #[test]
    fn synchronous_is_sum_of_stages() {
        let mods = uniform(5, 1.0, 0.5, 0.25, 2.0);
        let r = simulate(&mods, 0);
        // Each module serializes all four stages.
        assert!((r.total - 5.0 * 3.75).abs() < 1e-9, "{}", r.total);
        assert!((r.compute_stall - 5.0 * 1.75).abs() < 1e-9);
    }

    #[test]
    fn deep_prefetch_reaches_bottleneck_bound() {
        // Compute-dominant workload: with enough prefetch depth, total
        // time approaches first-fill + n * compute.
        let mods = uniform(20, 0.3, 0.2, 0.1, 1.0);
        let r = simulate(&mods, 3);
        let lower_bound = 20.0 * 1.0;
        assert!(r.total >= lower_bound);
        assert!(
            r.total < lower_bound + 2.0,
            "pipeline should hide transfers: {} vs bound {lower_bound}",
            r.total
        );
        // Stall confined to the pipeline fill.
        assert!(r.compute_stall < 1.0, "stall {}", r.compute_stall);
    }

    #[test]
    fn transfer_bound_workload_is_nc_limited() {
        // NVMe-dominant: total approaches n * nc no matter the depth.
        let mods = uniform(20, 2.0, 0.1, 0.1, 0.5);
        let r = simulate(&mods, 3);
        assert!(r.total >= 20.0 * 2.0);
        assert!(r.total < 20.0 * 2.0 + 2.0, "{}", r.total);
    }

    #[test]
    fn speedup_increases_with_depth_then_saturates() {
        let mods = uniform(16, 0.5, 0.4, 0.3, 1.0);
        let s1 = prefetch_speedup(&mods, 1);
        let s2 = prefetch_speedup(&mods, 2);
        let s3 = prefetch_speedup(&mods, 3);
        let s6 = prefetch_speedup(&mods, 6);
        assert!(s1 > 1.0);
        assert!(s2 >= s1);
        assert!(s3 >= s2);
        // Depth 3 covers the three hops; deeper barely helps.
        assert!(s6 - s3 < 0.2, "s3={s3} s6={s6}");
        // The three-hop pipeline at depth 3 approaches the ideal ratio
        // (sum of stages) / (bottleneck stage).
        assert!(s3 > 1.8, "s3={s3}");
    }

    #[test]
    fn matches_analytic_max_model_asymptotically() {
        // For long sequences the analytic `max(compute, comm)` model and
        // the pipeline simulation agree per module.
        let n = 200;
        let m = ModuleCost { nc: 0.4, cg: 0.3, gg: 0.2, compute: 0.35 };
        let mods = vec![m; n];
        let r = simulate(&mods, 3);
        let per_module = r.total / n as f64;
        let analytic = m.nc.max(m.cg).max(m.gg).max(m.compute);
        assert!(
            (per_module - analytic).abs() / analytic < 0.05,
            "simulated {per_module} vs analytic {analytic}"
        );
    }

    #[test]
    fn empty_and_single_module() {
        assert_eq!(simulate(&[], 3).total, 0.0);
        let one = [ModuleCost { nc: 1.0, cg: 1.0, gg: 1.0, compute: 1.0 }];
        let r = simulate(&one, 3);
        assert!((r.total - 4.0).abs() < 1e-9);
    }

    #[test]
    fn fig6d_shape_from_first_principles() {
        // As per-module compute grows (bigger batch), the prefetch
        // speedup shrinks — the Fig. 6d claim derived from the pipeline
        // rather than asserted.
        let mk = |compute: f64| uniform(12, 0.5, 0.3, 0.2, compute);
        let small_batch = prefetch_speedup(&mk(0.4), 3);
        let large_batch = prefetch_speedup(&mk(4.0), 3);
        assert!(small_batch > 1.5, "small-batch speedup {small_batch}");
        assert!(large_batch < 1.3, "large-batch speedup {large_batch}");
        assert!(small_batch > large_batch);
    }
}
