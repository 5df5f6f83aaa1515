//! One function per paper figure/table, producing typed rows.
//!
//! The `zi-bench` repro binary prints these; the tests in this module and
//! in `throughput`/`capacity` assert the shapes the paper reports.

use crate::capacity::max_model_size;
use crate::cluster::ClusterSpec;
use crate::memory::{GRAD_BYTES, PARAM_BYTES};
use crate::model_cfg::{
    fig1_family, fig6a_family, fig6c_model, fig6e_model, table1_512gpu, table1_single_node,
    SimModel, SimStrategy,
};
use crate::pipeline::{prefetch_speedup, ModuleCost};
use crate::throughput::{iteration_time, SimOptions, IMPL_EFFICIENCY};

/// Fig. 1 / Fig. 6a row: a strategy and the largest model it trains.
#[derive(Debug, Clone)]
pub struct CeilingRow {
    /// Strategy compared.
    pub strategy: SimStrategy,
    /// Largest trainable parameter count.
    pub max_params: u64,
    /// Name of the largest fitting configuration.
    pub model_name: &'static str,
}

fn ceilings(
    cluster: &ClusterSpec,
    family: &[SimModel],
    strategies: Vec<SimStrategy>,
) -> Vec<CeilingRow> {
    strategies
        .into_iter()
        .map(|s| {
            let m = max_model_size(s, cluster, family);
            CeilingRow {
                strategy: s,
                max_params: m.map(|m| m.shape.model.params()).unwrap_or(0),
                model_name: m.map(|m| m.name).unwrap_or("-"),
            }
        })
        .collect()
}

/// Fig. 1: maximum trainable model size on 32 DGX-2 nodes (3D parallelism
/// vs ZeRO-Infinity, 512 GPUs).
pub fn fig1() -> Vec<CeilingRow> {
    let strategies = vec![SimStrategy::ThreeD, SimStrategy::InfinityNvme];
    ceilings(&ClusterSpec::dgx2(32), &fig1_family(), strategies)
}

/// A throughput point for the Fig. 5 family.
#[derive(Debug, Clone)]
pub struct ThroughputRow {
    /// Configuration label ("500B", "1T", ...).
    pub model: &'static str,
    /// Strategy evaluated.
    pub strategy: SimStrategy,
    /// GPUs used.
    pub gpus: u64,
    /// Achieved TFlops per GPU.
    pub tflops_per_gpu: f64,
    /// Aggregate petaflops.
    pub pflops_total: f64,
    /// Whether the configuration fits in memory at all.
    pub fits: bool,
}

fn throughput_row(strategy: SimStrategy, cluster: &ClusterSpec, model: &SimModel) -> ThroughputRow {
    let fits = crate::capacity::fits(strategy, cluster, model);
    let t = iteration_time(strategy, cluster, model, &SimOptions::default());
    ThroughputRow {
        model: model.name,
        strategy,
        gpus: cluster.total_gpus(),
        tflops_per_gpu: if fits { t.tflops_per_gpu } else { 0.0 },
        pflops_total: if fits {
            t.tflops_per_gpu * cluster.total_gpus() as f64 / 1000.0
        } else {
            0.0
        },
        fits,
    }
}

/// Fig. 5a: 500B–20T on 512 GPUs, ZeRO-Infinity vs 3D parallelism.
pub fn fig5a() -> Vec<ThroughputRow> {
    let cluster = ClusterSpec::dgx2(32);
    let mut rows = Vec::new();
    for m in table1_512gpu() {
        rows.push(throughput_row(SimStrategy::InfinityNvme, &cluster, &m));
        rows.push(throughput_row(SimStrategy::ThreeD, &cluster, &m));
    }
    rows
}

/// Fig. 5b: weak scaling of a 1T model from 4 to 32 nodes.
pub fn fig5b() -> Vec<ThroughputRow> {
    let mut model = table1_512gpu()[1];
    model.shape.batch = 8.0;
    [4u64, 8, 16, 32]
        .into_iter()
        .map(|nodes| throughput_row(SimStrategy::InfinityNvme, &ClusterSpec::dgx2(nodes), &model))
        .collect()
}

/// Fig. 5c: 10B–1T on a single DGX-2 node, no model parallelism.
pub fn fig5c() -> Vec<ThroughputRow> {
    let cluster = ClusterSpec::dgx2(1);
    table1_single_node()
        .into_iter()
        .map(|m| {
            // Placement ladder from Table 1: GPU for 10B, CPU/NVMe mix
            // beyond; the sim picks the cheapest tier that fits.
            let strategy = if crate::capacity::fits(SimStrategy::Zero3, &cluster, &m) {
                SimStrategy::Zero3
            } else if crate::capacity::fits(SimStrategy::InfinityCpu, &cluster, &m) {
                SimStrategy::InfinityCpu
            } else {
                SimStrategy::InfinityNvme
            };
            throughput_row(strategy, &cluster, &m)
        })
        .collect()
}

/// Fig. 6a: max model size per strategy on one DGX-2 node, in Table 2
/// order.
pub fn fig6a() -> Vec<CeilingRow> {
    ceilings(&ClusterSpec::dgx2(1), &fig6a_family(), SimStrategy::fig6a_order())
}

/// Fig. 6c row: backward time at a GPU count.
#[derive(Debug, Clone)]
pub struct Fig6cRow {
    /// GPUs used.
    pub gpus: u64,
    /// ZeRO-Offload backward seconds (single-PCIe gradient path).
    pub offload_bwd_s: f64,
    /// ZeRO-Infinity backward seconds (aggregate-PCIe gradient path).
    pub infinity_bwd_s: f64,
    /// Speedup of ZeRO-Infinity.
    pub speedup: f64,
}

/// Fig. 6c: gradient-offload backward time, 8B model, 4–64 GPUs.
///
/// Isolates the *gradient* offload path, as the paper does: both systems
/// keep parameters wherever their strategy dictates, but the measured
/// difference is ZeRO-Offload's single-PCIe gradient transfer versus
/// ZeRO-Infinity's bandwidth-centric transfer across all links.
pub fn fig6c() -> Vec<Fig6cRow> {
    let opts = SimOptions { overlap: false, act_ckpt_offload: false };
    [4u64, 16, 32, 64]
        .into_iter()
        .map(|gpus| {
            let cluster = if gpus < 16 {
                ClusterSpec { gpus_per_node: gpus, ..ClusterSpec::dgx2(1) }
            } else {
                ClusterSpec::dgx2(gpus / 16)
            };
            let m = fig6c_model(2.0);
            let grad_bytes = (GRAD_BYTES * m.shape.model.params()) as f64;
            // Backward compute is ~2/3 of the iteration's compute.
            let compute =
                2.0 / 3.0 * iteration_time(SimStrategy::Zero3, &cluster, &m, &opts).compute;
            let off = compute + grad_bytes / cluster.pcie_single;
            let inf = compute + grad_bytes / (gpus as f64 * cluster.cpu_bw_per_gpu);
            Fig6cRow { gpus, offload_bwd_s: off, infinity_bwd_s: inf, speedup: off / inf }
        })
        .collect()
}

/// Fig. 6d row: throughput with and without communication overlap.
#[derive(Debug, Clone)]
pub struct Fig6dRow {
    /// Batch size per GPU.
    pub batch_per_gpu: f64,
    /// TFlops/GPU with prefetch + overlap.
    pub with_overlap: f64,
    /// TFlops/GPU without.
    pub without_overlap: f64,
    /// Relative speedup.
    pub speedup: f64,
}

/// Fig. 6d: prefetch/overlap ablation, 8B model on 64 GPUs.
pub fn fig6d() -> Vec<Fig6dRow> {
    let cluster = ClusterSpec::dgx2(4);
    [2.0f64, 4.0, 8.0, 10.0, 14.0, 16.0]
        .into_iter()
        .map(|bsz| {
            let m = fig6c_model(bsz);
            let on = iteration_time(
                SimStrategy::InfinityNvme,
                &cluster,
                &m,
                &SimOptions { overlap: true, act_ckpt_offload: false },
            );
            let off = iteration_time(
                SimStrategy::InfinityNvme,
                &cluster,
                &m,
                &SimOptions { overlap: false, act_ckpt_offload: false },
            );
            Fig6dRow {
                batch_per_gpu: bsz,
                with_overlap: on.tflops_per_gpu,
                without_overlap: off.tflops_per_gpu,
                speedup: on.tflops_per_gpu / off.tflops_per_gpu,
            }
        })
        .collect()
}

/// Fig. 6e row: activation checkpoint offload overhead at a hidden size.
#[derive(Debug, Clone)]
pub struct Fig6eRow {
    /// Hidden dimension.
    pub hidden: u64,
    /// Iteration time ratio (offload / no offload); 1.0 = free.
    pub slowdown: f64,
}

/// Fig. 6e: activation checkpoint CPU offload overhead vs hidden size.
pub fn fig6e() -> Vec<Fig6eRow> {
    let cluster = ClusterSpec::dgx2(2);
    [2048u64, 8192, 16384, 32768, 65536]
        .into_iter()
        .map(|hidden| {
            let m = fig6e_model(hidden, 4.0);
            let with = iteration_time(
                SimStrategy::InfinityCpu,
                &cluster,
                &m,
                &SimOptions { overlap: false, act_ckpt_offload: true },
            );
            let without = iteration_time(
                SimStrategy::InfinityCpu,
                &cluster,
                &m,
                &SimOptions { overlap: false, act_ckpt_offload: false },
            );
            Fig6eRow { hidden, slowdown: with.total / without.total }
        })
        .collect()
}

/// Prefetch-depth sweep on the discrete pipeline simulator: the Fig. 6d
/// mechanism derived from first principles rather than the analytic
/// `max()` model. Uses an 8B-like module sequence on DGX-2 channel
/// bandwidths.
pub fn fig6d_pipeline_depths() -> Vec<(usize, f64)> {
    let cluster = ClusterSpec::dgx2(4);
    // Small-batch regime (gradient accumulation with micro-batch 0.5):
    // the setting where Fig. 6d shows prefetching matters most.
    let m = fig6c_model(0.5);
    let layers = m.shape.model.layers;
    // nc/cg move this rank's shard; the allgather delivers the full layer.
    let full_bytes = (PARAM_BYTES * m.shape.model.params()) as f64 / layers as f64;
    let shard_bytes = full_bytes / cluster.total_gpus() as f64;
    let per_layer_compute =
        m.shape.flops_per_iter() / layers as f64 / (cluster.gpu_peak * IMPL_EFFICIENCY);
    let cost = ModuleCost {
        nc: shard_bytes / cluster.nvme_bw_per_gpu,
        cg: shard_bytes / cluster.cpu_bw_per_gpu,
        gg: full_bytes / cluster.gg_bw,
        compute: per_layer_compute,
    };
    let modules = vec![cost; layers as usize];
    [0usize, 1, 2, 3, 4].into_iter().map(|d| (d, prefetch_speedup(&modules, d))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_leap_is_about_50x() {
        let rows = fig1();
        assert_eq!(rows.len(), 2);
        let threed = rows[0].max_params as f64;
        let inf = rows[1].max_params as f64;
        let leap = inf / threed;
        assert!((20.0..100.0).contains(&leap), "leap {leap}x (paper ~50x)");
    }

    #[test]
    fn fig5a_infinity_runs_where_3d_ooms() {
        let rows = fig5a();
        // 500B: both fit.
        assert!(rows[0].fits && rows[1].fits);
        // 5T and beyond: 3D parallelism OOMs, ZeRO-Infinity still trains.
        for pair in rows.chunks(2).skip(2) {
            assert!(pair[0].fits, "{} must fit under Infinity", pair[0].model);
            assert!(!pair[1].fits, "{} must OOM under 3D", pair[1].model);
        }
    }

    #[test]
    fn fig5a_peak_throughput_matches_paper_scale() {
        // Paper: ZeRO-Infinity sustains over 25 pflops on 512 GPUs.
        let rows = fig5a();
        let best = rows
            .iter()
            .filter(|r| r.strategy == SimStrategy::InfinityNvme)
            .map(|r| r.pflops_total)
            .fold(0.0f64, f64::max);
        assert!(best > 20.0, "peak {best} pflops (paper > 25)");
    }

    #[test]
    fn fig5b_is_superlinear() {
        let rows = fig5b();
        for w in rows.windows(2) {
            assert!(
                w[1].tflops_per_gpu > w[0].tflops_per_gpu,
                "per-GPU throughput must grow with nodes"
            );
        }
    }

    #[test]
    fn fig5c_all_single_node_configs_run() {
        let rows = fig5c();
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|r| r.fits), "every Fig. 5c config must fit on one node");
        // 100B stays above 30 TFlops (paper: >40 up to 100B).
        assert!(rows[2].tflops_per_gpu > 30.0);
    }

    #[test]
    fn fig6a_is_monotone_ladder() {
        let rows = fig6a();
        assert_eq!(rows.len(), 7);
        for w in rows.windows(2) {
            assert!(
                w[1].max_params >= w[0].max_params,
                "{:?} ({}) < {:?} ({})",
                w[1].strategy,
                w[1].max_params,
                w[0].strategy,
                w[0].max_params
            );
        }
    }

    #[test]
    fn fig6c_speedup_grows() {
        let rows = fig6c();
        for w in rows.windows(2) {
            assert!(w[1].speedup >= w[0].speedup);
        }
        assert!(rows.last().unwrap().speedup > 1.5);
    }

    #[test]
    fn fig6d_speedup_diminishes_with_batch() {
        let rows = fig6d();
        assert!(rows[0].speedup > rows.last().unwrap().speedup);
        assert!(rows[0].speedup > 1.3);
    }

    #[test]
    fn fig6e_overhead_bounded_and_vanishing() {
        let rows = fig6e();
        assert!(rows[0].slowdown > 1.0 && rows[0].slowdown < 1.6);
        assert!(rows.last().unwrap().slowdown < 1.05);
        for w in rows.windows(2) {
            assert!(w[1].slowdown <= w[0].slowdown + 1e-9);
        }
    }
}

#[cfg(test)]
mod pipeline_figure_tests {
    use super::*;

    #[test]
    fn pipeline_speedup_monotone_in_depth() {
        let rows = fig6d_pipeline_depths();
        assert_eq!(rows[0], (0, 1.0));
        for w in rows.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-9, "{rows:?}");
        }
        // Depth 3 (covering the three hops) yields a real speedup.
        assert!(rows[3].1 > 1.2, "{rows:?}");
    }
}
