//! Model configurations and strategies used in the evaluation.
//!
//! Encodes the paper's Table 1 (main experiments) and Tables 4–8
//! (appendix) configurations, plus a dense "model family" the capacity
//! solver searches over.

use crate::memory::{ModelShape, TrainingShape};

/// Strategy choices evaluated in the paper (simulation-side view).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimStrategy {
    /// Classic data parallelism.
    DataParallel,
    /// ZeRO-1 (optimizer partitioned).
    Zero1,
    /// ZeRO-2 (optimizer + gradients partitioned).
    Zero2,
    /// ZeRO-Offload (ZeRO-2 with grads/optim in CPU memory).
    ZeroOffload,
    /// ZeRO-3 (all model states partitioned, GPU resident).
    Zero3,
    /// ZeRO-Infinity offloading to CPU memory.
    InfinityCpu,
    /// ZeRO-Infinity offloading to NVMe.
    InfinityNvme,
    /// 3D parallelism (tensor-slicing × pipeline × data).
    ThreeD,
}

impl SimStrategy {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            SimStrategy::DataParallel => "Data parallel",
            SimStrategy::Zero1 => "ZeRO 1",
            SimStrategy::Zero2 => "ZeRO 2",
            SimStrategy::ZeroOffload => "ZeRO-Offload",
            SimStrategy::Zero3 => "ZeRO 3",
            SimStrategy::InfinityCpu => "ZeRO-Inf-CPU",
            SimStrategy::InfinityNvme => "ZeRO-Inf-NVMe",
            SimStrategy::ThreeD => "3D Parallelism",
        }
    }

    /// The Fig. 6a sweep (Table 2 order).
    pub(crate) fn fig6a_order() -> Vec<SimStrategy> {
        vec![
            SimStrategy::DataParallel,
            SimStrategy::Zero1,
            SimStrategy::Zero2,
            SimStrategy::ZeroOffload,
            SimStrategy::Zero3,
            SimStrategy::InfinityCpu,
            SimStrategy::InfinityNvme,
        ]
    }
}

/// One model/training configuration, as rows of Table 1 specify.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimModel {
    /// Label, e.g. "1T".
    pub name: &'static str,
    /// Architecture and training shape; `batch` is the micro-batch per
    /// GPU (fractional for grad accumulation < 1).
    pub shape: TrainingShape,
    /// Model-parallel (tensor-slicing) degree.
    pub mp: u64,
}

impl SimModel {
    /// A configuration at sequence length 1024 with a checkpoint after
    /// every layer, the setting of all the paper's tables.
    fn from_shape(
        name: &'static str,
        layers: u64,
        hidden: u64,
        attn_heads: u64,
        batch_per_gpu: f64,
        mp: u64,
    ) -> Self {
        let model = ModelShape { layers, hidden, attn_heads };
        let shape = TrainingShape { model, batch: batch_per_gpu, seq: 1024, ckpt_interval: 1 };
        SimModel { name, shape, mp }
    }
}

/// Table 1 rows for the 512-GPU experiments (Fig. 5a).
pub fn table1_512gpu() -> Vec<SimModel> {
    vec![
        SimModel::from_shape("500B", 124, 18 * 1024, 256, 7.0, 4),
        SimModel::from_shape("1T", 128, 25 * 1024, 256, 5.0, 4),
        SimModel::from_shape("5T", 174, 48 * 1024, 512, 3.0, 4),
        SimModel::from_shape("10T", 200, 64 * 1024, 512, 2.0, 4),
        SimModel::from_shape("20T", 205, 88 * 1024, 1024, 1.25, 8),
    ]
}

/// Table 1 rows for the single-node experiments (Fig. 5c).
pub(crate) fn table1_single_node() -> Vec<SimModel> {
    vec![
        SimModel::from_shape("10B", 50, 4 * 1024, 16, 8.0, 1),
        SimModel::from_shape("50B", 62, 8 * 1024, 32, 26.0, 1),
        SimModel::from_shape("100B", 125, 8 * 1024, 32, 24.0, 1),
        SimModel::from_shape("0.5T", 124, 18 * 1024, 256, 8.0, 1),
        SimModel::from_shape("1T", 128, 25 * 1024, 256, 7.0, 1),
    ]
}

/// Table 4 model family for the Fig. 6a max-model-size sweep plus denser
/// interpolations so the solver resolves each strategy's ceiling.
pub fn fig6a_family() -> Vec<SimModel> {
    vec![
        SimModel::from_shape("0.7B", 25, 1536, 16, 1.0, 1),
        SimModel::from_shape("1.4B", 50, 1536, 16, 1.0, 1),
        SimModel::from_shape("2.8B", 50, 2176, 16, 1.0, 1),
        SimModel::from_shape("5B", 44, 3072, 16, 1.0, 1),
        SimModel::from_shape("8B", 40, 4096, 16, 1.0, 1),
        SimModel::from_shape("10B", 50, 4096, 16, 1.0, 1),
        SimModel::from_shape("13B", 64, 4096, 16, 1.0, 1),
        SimModel::from_shape("20B", 98, 4096, 32, 1.0, 1),
        SimModel::from_shape("40B", 72, 6784, 32, 1.0, 1),
        SimModel::from_shape("70B", 125, 6784, 32, 1.0, 1),
        SimModel::from_shape("100B", 125, 8192, 32, 1.0, 1),
        SimModel::from_shape("200B", 126, 11520, 64, 1.0, 1),
        SimModel::from_shape("500B", 124, 18432, 256, 1.0, 1),
        SimModel::from_shape("1T", 128, 25600, 256, 1.0, 1),
        SimModel::from_shape("2T", 160, 32512, 512, 1.0, 1),
    ]
}

/// Model family for the Fig. 1 cluster-scale ceiling (32 nodes), denser
/// in the multi-trillion range.
pub fn fig1_family() -> Vec<SimModel> {
    let mut v = fig6a_family();
    v.extend([
        SimModel::from_shape("5T", 174, 49152, 512, 1.0, 4),
        SimModel::from_shape("10T", 200, 65536, 512, 1.0, 4),
        SimModel::from_shape("20T", 205, 90112, 1024, 1.0, 8),
        SimModel::from_shape("32T", 240, 105472, 1024, 1.0, 8),
        SimModel::from_shape("50T", 280, 122368, 1024, 1.0, 8),
        SimModel::from_shape("100T", 315, 163840, 1024, 1.0, 8),
    ]);
    v
}

/// Figure 6c configuration: 8B model, hidden 8192, 10 layers.
pub fn fig6c_model(batch_per_gpu: f64) -> SimModel {
    SimModel::from_shape("8B", 10, 8192, 16, batch_per_gpu, 1)
}

/// Figure 6e configurations: 5 layers, varying hidden size (Table 8).
pub fn fig6e_model(hidden: u64, batch_per_gpu: f64) -> SimModel {
    SimModel::from_shape("fig6e", 5, hidden, 16, batch_per_gpu, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_parameter_counts() {
        // Table 1: (128 layers, 25K hidden) is the 1T configuration.
        let t = table1_512gpu();
        let one_t = t.iter().find(|m| m.name == "1T").unwrap();
        assert!((one_t.shape.model.params() as f64 / 1e12 - 1.0).abs() < 0.05);
        let twenty_t = t.iter().find(|m| m.name == "20T").unwrap();
        assert!((twenty_t.shape.model.params() as f64 / 1e12 - 20.0).abs() < 1.0);
    }

    #[test]
    fn families_are_sorted_by_size() {
        for fam in [fig6a_family(), fig1_family()] {
            for w in fam.windows(2) {
                let (lo, hi) = (w[0].shape.model.params(), w[1].shape.model.params());
                assert!(hi > lo, "{} ({hi}) !> {} ({lo})", w[1].name, w[0].name);
            }
        }
    }

    #[test]
    fn named_sizes_are_accurate() {
        for m in fig1_family() {
            let billions = m.shape.model.params() as f64 / 1e9;
            let label = m.name;
            let expect: f64 = if let Some(t) = label.strip_suffix('T') {
                t.parse::<f64>().unwrap() * 1000.0
            } else {
                label.strip_suffix('B').unwrap().parse::<f64>().unwrap()
            };
            assert!((billions - expect).abs() / expect < 0.12, "{label}: {billions}B vs {expect}B");
        }
    }
}
