//! Strategy and placement configuration (paper Table 2).

use zi_types::{DType, DeviceKind};

/// Where each class of model state lives when not in active use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Device holding fp16 parameter shards/replicas.
    pub params: DeviceKind,
    /// Device holding gradient shards.
    pub grads: DeviceKind,
    /// Device holding optimizer state (fp32 master + momentum + variance).
    pub optimizer: DeviceKind,
}

impl Placement {
    /// Everything on GPU.
    pub const GPU: Placement = Placement {
        params: DeviceKind::Gpu,
        grads: DeviceKind::Gpu,
        optimizer: DeviceKind::Gpu,
    };
}

/// A full training strategy: what is partitioned and where it lives.
///
/// Mirrors Table 2 of the paper. `partition_*` false means the state is
/// replicated on every data-parallel rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Strategy {
    /// Human-readable name.
    pub name: &'static str,
    /// Partition fp16 parameters across ranks (ZeRO-3 and up).
    pub partition_params: bool,
    /// Partition gradients across ranks (ZeRO-2 and up).
    pub partition_grads: bool,
    /// Partition optimizer state across ranks (ZeRO-1 and up).
    pub partition_optimizer: bool,
    /// Device placement of each state class.
    pub placement: Placement,
    /// Storage dtype for parameters (fp16 in the paper's recipe; fp32 is
    /// used by exactness tests to isolate the partitioning machinery from
    /// quantization effects).
    pub param_dtype: DType,
    /// Elements per chunk when streaming optimizer state through CPU
    /// memory during the step (Sec. 5.2.2); `usize::MAX` = monolithic.
    pub optimizer_chunk: usize,
    /// Dynamic-prefetcher look-ahead (Sec. 6.2): the prefetcher runs
    /// exactly when it is above 0, and only for partitioned parameters.
    /// Like the CPU share below, it changes no numerics and is fixed for
    /// an engine's lifetime.
    pub prefetch_window: usize,
    /// Share of each optimizer shard's records placed in CPU DRAM instead
    /// of NVMe, in permille (0 = all-NVMe, 1000 = all-CPU); ignored unless
    /// the optimizer placement is NVMe.
    pub optimizer_cpu_permille: usize,
}

impl Strategy {
    /// Classic data parallelism: everything replicated on GPU.
    pub fn data_parallel() -> Strategy {
        Strategy {
            name: "DataParallel",
            partition_params: false,
            partition_grads: false,
            partition_optimizer: false,
            placement: Placement::GPU,
            param_dtype: DType::F16,
            optimizer_chunk: usize::MAX,
            prefetch_window: 3,
            optimizer_cpu_permille: 0,
        }
    }

    /// ZeRO-1: optimizer state partitioned.
    pub(crate) fn zero_1() -> Strategy {
        Strategy {
            name: "ZeRO-1",
            partition_optimizer: true,
            ..Strategy::data_parallel()
        }
    }

    /// ZeRO-2: optimizer state + gradients partitioned.
    pub fn zero_2() -> Strategy {
        Strategy { name: "ZeRO-2", partition_grads: true, ..Strategy::zero_1() }
    }

    /// ZeRO-Offload: ZeRO-2 with gradients and optimizer state in CPU
    /// memory; parameters stay replicated on GPU.
    pub fn zero_offload() -> Strategy {
        Strategy {
            name: "ZeRO-Offload",
            placement: Placement {
                params: DeviceKind::Gpu,
                grads: DeviceKind::Cpu,
                optimizer: DeviceKind::Cpu,
            },
            ..Strategy::zero_2()
        }
    }

    /// ZeRO-3: all three states partitioned, all on GPU.
    pub fn zero_3() -> Strategy {
        Strategy {
            name: "ZeRO-3",
            partition_params: true,
            ..Strategy::zero_2()
        }
    }

    /// ZeRO-Infinity with CPU offload: ZeRO-3 with parameters, gradients
    /// and optimizer state in CPU memory.
    pub fn infinity_cpu() -> Strategy {
        Strategy {
            name: "ZeRO-Inf-CPU",
            placement: Placement {
                params: DeviceKind::Cpu,
                grads: DeviceKind::Cpu,
                optimizer: DeviceKind::Cpu,
            },
            ..Strategy::zero_3()
        }
    }

    /// ZeRO-Infinity with NVMe offload: ZeRO-3 with parameters and
    /// optimizer state on NVMe, gradients staged in CPU memory.
    pub fn infinity_nvme() -> Strategy {
        Strategy {
            name: "ZeRO-Inf-NVMe",
            placement: Placement {
                params: DeviceKind::Nvme,
                grads: DeviceKind::Cpu,
                optimizer: DeviceKind::Nvme,
            },
            optimizer_chunk: 1 << 16,
            ..Strategy::zero_3()
        }
    }

    /// The Fig. 6a sweep, in the paper's order.
    pub fn table2() -> Vec<Strategy> {
        vec![
            Strategy::data_parallel(),
            Strategy::zero_1(),
            Strategy::zero_2(),
            Strategy::zero_offload(),
            Strategy::zero_3(),
            Strategy::infinity_cpu(),
            Strategy::infinity_nvme(),
        ]
    }

    /// Use fp32 parameter storage (for bit-exactness tests).
    pub fn with_f32_params(self) -> Strategy {
        Strategy { param_dtype: DType::F32, ..self }
    }

    /// Override the optimizer streaming chunk size (elements).
    pub fn with_optimizer_chunk(self, elems: usize) -> Strategy {
        Strategy { optimizer_chunk: elems, ..self }
    }

    /// Override the dynamic-prefetch look-ahead window.
    pub fn with_prefetch_window(self, window: usize) -> Strategy {
        Strategy { prefetch_window: window, ..self }
    }

    /// Override the CPU-DRAM share of NVMe-tier optimizer shards,
    /// permille (clamped to 1000).
    pub fn with_optimizer_cpu_permille(self, permille: usize) -> Strategy {
        Strategy { optimizer_cpu_permille: permille.min(1000), ..self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_paper_partitioning() {
        let t = Strategy::table2();
        assert_eq!(t.len(), 7);
        // DP: nothing partitioned.
        assert!(!t[0].partition_optimizer && !t[0].partition_grads && !t[0].partition_params);
        // ZeRO-2: optimizer+grads partitioned, params not.
        assert!(t[2].partition_optimizer && t[2].partition_grads && !t[2].partition_params);
        // ZeRO-Offload keeps params on GPU but moves grads+optim to CPU.
        assert_eq!(t[3].placement.params, DeviceKind::Gpu);
        assert_eq!(t[3].placement.optimizer, DeviceKind::Cpu);
        assert!(!t[3].partition_params);
        // ZeRO-3 partitions everything on GPU.
        assert!(t[4].partition_params);
        assert_eq!(t[4].placement.params, DeviceKind::Gpu);
        // Inf-NVMe puts params and optimizer on NVMe.
        assert_eq!(t[6].placement.params, DeviceKind::Nvme);
        assert_eq!(t[6].placement.optimizer, DeviceKind::Nvme);
        assert!(t[6].partition_params);
    }

    #[test]
    fn builders_compose() {
        let s = Strategy::infinity_nvme().with_f32_params();
        assert_eq!(s.param_dtype, DType::F32);
        assert_eq!(s.name, "ZeRO-Inf-NVMe");
        let s = s.with_prefetch_window(5).with_optimizer_chunk(16);
        let s = s.with_optimizer_cpu_permille(1500);
        assert_eq!((s.prefetch_window, s.optimizer_chunk), (5, 16));
        assert_eq!(s.optimizer_cpu_permille, 1000);
    }
}
