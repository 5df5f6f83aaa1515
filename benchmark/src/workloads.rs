//! The five training workloads, as plain data. `bind.rs` turns a
//! [`RigSpec`] into the program's own types; nothing here names one.
//!
//! Each workload exists to make one layer the bottleneck, so that an
//! optimisation of that layer has a place to show and — on the others —
//! a place where the prediction is "no change".

/// GPT dimensions (the seed comes from `--seed`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelDims {
    pub vocab: usize,
    pub hidden: usize,
    pub layers: usize,
    pub heads: usize,
    pub seq: usize,
}

/// Which Table-2 strategy the engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// Everything replicated on GPU.
    DataParallel,
    /// Parameters + optimizer state on NVMe, gradients in CPU memory.
    InfinityNvme,
    /// `InfinityNvme` with half of every optimizer shard striped onto
    /// the CPU-DRAM path (500 ‰).
    InfinityNvmeSplit,
}

/// What stands in for the NVMe device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// RAM, answers instantly.
    Mem,
    /// RAM behind [`THROTTLE_BYTES_PER_SEC`] and [`THROTTLE_LATENCY_US`]
    /// per request.
    Throttled,
    /// A real file under `benchmark/out/` (page-cache speed).
    File,
}

/// Per-request line rate of the throttled device.
pub const THROTTLE_BYTES_PER_SEC: f64 = 0.25e9;
/// Per-request access latency of the throttled device.
pub const THROTTLE_LATENCY_US: u64 = 200;

/// Everything needed to build one training rig.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RigSpec {
    pub model: ModelDims,
    pub strategy: StrategyKind,
    pub backend: BackendKind,
    pub world: usize,
    pub micro_batch: usize,
    pub grad_accumulation: usize,
    pub activation_checkpointing: bool,
}

impl RigSpec {
    /// Tokens one optimizer step consumes across all ranks.
    pub fn tokens_per_step(&self) -> usize {
        self.world * self.micro_batch * self.grad_accumulation * self.model.seq
    }
}

pub struct Workload {
    pub name: &'static str,
    pub rig: RigSpec,
    /// Run with `ZI_KERNEL_THREADS=0`: the rank threads already fill
    /// the box, a kernel pool on top would oversubscribe it.
    pub no_kernel_pool: bool,
}

/// The "wide" model of the offload workloads: 2.1 M parameters, most of
/// them in two fat embedding/projection matrices, so optimizer-state
/// streaming (29.5 MB on the NVMe tier) outweighs the arithmetic.
const WIDE: ModelDims = ModelDims {
    vocab: 2048,
    hidden: 256,
    layers: 2,
    heads: 4,
    seq: 16,
};

/// The compute model of the dense baseline: small vocabulary, long
/// sequence, so matmul/attention kernels are ~90 % of the step.
const DEEP: ModelDims = ModelDims {
    vocab: 256,
    hidden: 192,
    layers: 4,
    heads: 6,
    seq: 64,
};

const INF_NVME_SIM: RigSpec = RigSpec {
    model: WIDE,
    strategy: StrategyKind::InfinityNvme,
    backend: BackendKind::Throttled,
    world: 1,
    micro_batch: 1,
    grad_accumulation: 1,
    activation_checkpointing: false,
};

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "dense_dp1",
        rig: RigSpec {
            model: DEEP,
            strategy: StrategyKind::DataParallel,
            backend: BackendKind::Mem,
            world: 1,
            micro_batch: 2,
            grad_accumulation: 1,
            activation_checkpointing: false,
        },
        no_kernel_pool: false,
    },
    Workload {
        name: "inf_nvme_sim",
        rig: INF_NVME_SIM,
        no_kernel_pool: false,
    },
    Workload {
        name: "inf_nvme_file",
        rig: RigSpec {
            backend: BackendKind::File,
            ..INF_NVME_SIM
        },
        no_kernel_pool: false,
    },
    Workload {
        name: "inf_nvme_fetch",
        rig: RigSpec {
            grad_accumulation: 4,
            activation_checkpointing: true,
            ..INF_NVME_SIM
        },
        no_kernel_pool: false,
    },
    Workload {
        name: "inf_split_dp2",
        rig: RigSpec {
            strategy: StrategyKind::InfinityNvmeSplit,
            world: 2,
            ..INF_NVME_SIM
        },
        no_kernel_pool: true,
    },
];

/// The spec `core.trainer.env_overhead_share` compares the program's
/// own trainer against.
pub const TRAINER_PROBE_RIG: RigSpec = INF_NVME_SIM;

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
