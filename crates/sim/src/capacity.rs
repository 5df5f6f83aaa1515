//! Per-strategy device memory requirements and the max-model-size solver
//! (Fig. 1 and Fig. 6a).

use crate::cluster::ClusterSpec;
use crate::memory::{GRAD_BYTES, OPTIM_BYTES, PARAM_BYTES};
use crate::model_cfg::{SimModel, SimStrategy};

/// Bytes a training configuration needs on each tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MemoryRequirement {
    /// Per-GPU HBM bytes.
    pub gpu_per_gpu: f64,
    /// Per-node CPU DRAM bytes.
    pub cpu_per_node: f64,
    /// Per-node NVMe bytes.
    pub nvme_per_node: f64,
}

/// Fraction of GPU memory usable for model states under 3D parallelism
/// (the rest goes to activations, pipeline buffers and fragmentation).
pub(crate) const THREED_USABLE: f64 = 0.8;

/// Compute where the 20 bytes/parameter of model states (Sec. 3) plus
/// activations and working memory land for each strategy of Table 2.
pub(crate) fn memory_requirement(
    strategy: SimStrategy,
    cluster: &ClusterSpec,
    model: &SimModel,
) -> MemoryRequirement {
    let shape = &model.shape;
    let n = cluster.total_gpus() as f64;
    let nodes = cluster.nodes as f64;
    let mp = model.mp as f64;

    // Working memory (Eq. 4–5), divided by the tensor-slicing degree.
    let work = shape.model.mswm_bytes() as f64 / mp + shape.awm_bytes() / mp;

    // Activation checkpoints (Eq. 3), per GPU and per node.
    let act_per_gpu = shape.activation_checkpoint_bytes() / mp;
    let act_per_node = act_per_gpu * cluster.gpus_per_node as f64;

    // Model state components in bytes (Eq. 2).
    let [params_b, grads_b, optim_b] =
        [PARAM_BYTES, GRAD_BYTES, OPTIM_BYTES].map(|b| (b * shape.model.params()) as f64);

    match strategy {
        SimStrategy::DataParallel => MemoryRequirement {
            gpu_per_gpu: params_b + grads_b + optim_b + act_per_gpu + work,
            cpu_per_node: 0.0,
            nvme_per_node: 0.0,
        },
        SimStrategy::Zero1 => MemoryRequirement {
            gpu_per_gpu: params_b + grads_b + optim_b / n + act_per_gpu + work,
            cpu_per_node: 0.0,
            nvme_per_node: 0.0,
        },
        SimStrategy::Zero2 => MemoryRequirement {
            gpu_per_gpu: params_b + (grads_b + optim_b) / n + act_per_gpu + work,
            cpu_per_node: 0.0,
            nvme_per_node: 0.0,
        },
        SimStrategy::ZeroOffload => MemoryRequirement {
            gpu_per_gpu: params_b + act_per_gpu + work,
            cpu_per_node: (grads_b + optim_b) / nodes,
            nvme_per_node: 0.0,
        },
        SimStrategy::Zero3 => MemoryRequirement {
            gpu_per_gpu: (params_b + grads_b + optim_b) / n + act_per_gpu + work,
            cpu_per_node: 0.0,
            nvme_per_node: 0.0,
        },
        SimStrategy::InfinityCpu => MemoryRequirement {
            gpu_per_gpu: work,
            cpu_per_node: (params_b + grads_b + optim_b) / nodes + act_per_node,
            nvme_per_node: 0.0,
        },
        SimStrategy::InfinityNvme => MemoryRequirement {
            gpu_per_gpu: work,
            cpu_per_node: act_per_node,
            nvme_per_node: (params_b + grads_b + optim_b) / nodes,
        },
        SimStrategy::ThreeD => MemoryRequirement {
            // 3D parallelism spreads model states over all GPUs; the
            // usable fraction accounts for activations and pipeline
            // buffers.
            gpu_per_gpu: (params_b + grads_b + optim_b) / n / THREED_USABLE,
            cpu_per_node: 0.0,
            nvme_per_node: 0.0,
        },
    }
}

/// Does this configuration fit on the cluster?
pub fn fits(strategy: SimStrategy, cluster: &ClusterSpec, model: &SimModel) -> bool {
    let req = memory_requirement(strategy, cluster, model);
    req.gpu_per_gpu <= cluster.gpu_mem as f64
        && req.cpu_per_node <= cluster.cpu_mem as f64
        && req.nvme_per_node <= cluster.nvme as f64
}

/// Largest model in `family` that fits; `None` if even the smallest OOMs.
pub fn max_model_size<'a>(
    strategy: SimStrategy,
    cluster: &ClusterSpec,
    family: &'a [SimModel],
) -> Option<&'a SimModel> {
    family.iter().rev().find(|m| fits(strategy, cluster, m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model_cfg::{fig1_family, fig6a_family};

    fn node() -> ClusterSpec {
        ClusterSpec::dgx2(1)
    }

    fn max_params(strategy: SimStrategy, cluster: &ClusterSpec, fam: &[SimModel]) -> u64 {
        max_model_size(strategy, cluster, fam).map(|m| m.shape.model.params()).unwrap_or(0)
    }

    /// Fig. 6a: the strategy ladder on a single DGX-2.
    #[test]
    fn fig6a_ladder_matches_paper() {
        let fam = fig6a_family();
        let c = node();
        let dp = max_params(SimStrategy::DataParallel, &c, &fam);
        let z2 = max_params(SimStrategy::Zero2, &c, &fam);
        let off = max_params(SimStrategy::ZeroOffload, &c, &fam);
        let z3 = max_params(SimStrategy::Zero3, &c, &fam);
        let icpu = max_params(SimStrategy::InfinityCpu, &c, &fam);
        let invme = max_params(SimStrategy::InfinityNvme, &c, &fam);

        // Paper: DP 1.4B; ZeRO-2/Offload ~13B; ZeRO-3 20B; Inf-CPU ~70B
        // ("almost 100B"); Inf-NVMe 1T.
        assert!((1.0e9..2.8e9).contains(&(dp as f64)), "DP ceiling {dp}");
        assert!((8e9..16e9).contains(&(z2 as f64)), "ZeRO-2 ceiling {z2}");
        assert!((10e9..20e9).contains(&(off as f64)), "Offload ceiling {off}");
        assert!((18e9..32e9).contains(&(z3 as f64)), "ZeRO-3 ceiling {z3}");
        assert!((5e10..1.1e11).contains(&(icpu as f64)), "Inf-CPU ceiling {icpu}");
        assert!((7e11..1.5e12).contains(&(invme as f64)), "Inf-NVMe ceiling {invme}");

        // Ordering is strict: each rung beats the previous.
        assert!(dp < z2 && z2 <= off && off < z3 && z3 < icpu && icpu < invme);

        // Paper headline: 700x from data parallelism to Inf-NVMe.
        let factor = invme as f64 / dp as f64;
        assert!((300.0..1500.0).contains(&factor), "DP→Inf-NVMe factor {factor}");
    }

    /// Fig. 1: 32-node ceilings — 3D parallelism ~0.65T, ZeRO-Infinity
    /// ~32T, a ~50x leap.
    #[test]
    fn fig1_ceilings_match_paper() {
        let c = ClusterSpec::dgx2(32);
        let fam = fig1_family();
        let threed = max_params(SimStrategy::ThreeD, &c, &fam);
        let inf = max_params(SimStrategy::InfinityNvme, &c, &fam);
        assert!((4e11..8e11).contains(&(threed as f64)), "3D ceiling {threed} (paper ~650B)");
        assert!((2e13..4.5e13).contains(&(inf as f64)), "Infinity ceiling {inf} (paper 32T)");
        let leap = inf as f64 / threed as f64;
        assert!((20.0..100.0).contains(&leap), "scale leap {leap}x (paper ~50x)");
    }

    /// Per-node ZeRO-Infinity supports ~1T parameters (Sec. 5.1): the
    /// trillion-per-node headline.
    #[test]
    fn one_trillion_per_node() {
        let fam = fig1_family();
        for nodes in [1u64, 2, 4] {
            let c = ClusterSpec::dgx2(nodes);
            let inf = max_params(SimStrategy::InfinityNvme, &c, &fam) as f64;
            let per_node = inf / nodes as f64;
            assert!((0.6e12..1.6e12).contains(&per_node), "{nodes} nodes: {per_node} params/node");
        }
    }

    #[test]
    fn nothing_fits_returns_none() {
        let mut c = node();
        c.gpu_mem = 1 << 20; // 1 MiB GPUs
        c.cpu_mem = 1 << 20;
        c.nvme = 1 << 20;
        assert!(max_model_size(SimStrategy::DataParallel, &c, &fig6a_family()).is_none());
        assert!(max_model_size(SimStrategy::InfinityNvme, &c, &fig6a_family()).is_none());
    }

    #[test]
    fn gpu_memory_freed_by_offload() {
        let c = node();
        let m = fig6a_family()[7]; // 20B
        let z3 = memory_requirement(SimStrategy::Zero3, &c, &m);
        let icpu = memory_requirement(SimStrategy::InfinityCpu, &c, &m);
        assert!(icpu.gpu_per_gpu < z3.gpu_per_gpu / 2.0);
        assert!(icpu.cpu_per_node > 0.0);
        let invme = memory_requirement(SimStrategy::InfinityNvme, &c, &m);
        assert!(invme.nvme_per_node > 0.0);
        assert!(invme.cpu_per_node < icpu.cpu_per_node);
    }
}
