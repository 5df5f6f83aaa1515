//! Per-node memory hierarchy: one pool per device tier.

use zi_sync::Mutex;
use zi_types::{ByteSize, Device, DeviceKind, Rank, Result};

use crate::pool::{Block, MemoryPool, PoolStats};

/// Capacities of one node's memory tiers.
///
/// Defaults follow the DGX-2 row of Fig. 2b: 16 GPUs × 32 GB HBM,
/// 1.5 TB CPU DRAM, 28 TB NVMe.
#[derive(Debug, Clone, Copy)]
pub struct NodeMemorySpec {
    /// Number of GPUs on the node.
    pub gpus: usize,
    /// HBM capacity per GPU.
    pub gpu_mem: ByteSize,
    /// CPU DRAM capacity.
    pub cpu_mem: ByteSize,
    /// NVMe capacity.
    pub nvme_mem: ByteSize,
}

impl NodeMemorySpec {
    /// NVIDIA DGX-2 node (Fig. 2b row 2).
    pub fn dgx2() -> Self {
        NodeMemorySpec {
            gpus: 16,
            gpu_mem: ByteSize::gib(32),
            cpu_mem: ByteSize::tib(1) + ByteSize::gib(512),
            nvme_mem: ByteSize::tib(28),
        }
    }

    /// Tiny spec for unit tests (sizes in bytes).
    pub fn test_spec(gpus: usize, gpu: u64, cpu: u64, nvme: u64) -> Self {
        NodeMemorySpec {
            gpus,
            gpu_mem: ByteSize(gpu),
            cpu_mem: ByteSize(cpu),
            nvme_mem: ByteSize(nvme),
        }
    }
}

/// Thread-safe set of pools for one node: one per GPU, one CPU, one NVMe.
pub struct MemoryHierarchy {
    gpu: Vec<Mutex<MemoryPool>>,
    cpu: Mutex<MemoryPool>,
    nvme: Mutex<MemoryPool>,
}

impl MemoryHierarchy {
    /// Build pools from a node spec.
    pub fn new(spec: &NodeMemorySpec) -> Self {
        MemoryHierarchy {
            gpu: (0..spec.gpus)
                .map(|r| Mutex::new(MemoryPool::new(Device::gpu(r), spec.gpu_mem.as_u64())))
                .collect(),
            cpu: Mutex::new(MemoryPool::new(Device::cpu(), spec.cpu_mem.as_u64())),
            nvme: Mutex::new(MemoryPool::new(Device::nvme(), spec.nvme_mem.as_u64())),
        }
    }

    /// Number of GPU pools.
    pub fn gpu_count(&self) -> usize {
        self.gpu.len()
    }

    fn with_pool<T>(&self, device: Device, f: impl FnOnce(&mut MemoryPool) -> T) -> T {
        match device.kind {
            DeviceKind::Gpu => {
                let pool = self
                    .gpu
                    .get(device.index)
                    .unwrap_or_else(|| panic!("no GPU pool for rank {}", device.index));
                f(&mut pool.lock())
            }
            DeviceKind::Cpu => f(&mut self.cpu.lock()),
            DeviceKind::Nvme => f(&mut self.nvme.lock()),
        }
    }

    /// Allocate on the given device.
    pub fn alloc(&self, device: Device, len: u64) -> Result<Block> {
        self.with_pool(device, |p| p.alloc(len))
    }

    /// Charge capacity on the given device without placing it (see
    /// [`MemoryPool::reserve`]).
    pub fn reserve(&self, device: Device, len: u64) -> Result<()> {
        self.with_pool(device, |p| p.reserve(len))
    }

    /// Hand back capacity charged with [`Self::reserve`].
    pub fn unreserve(&self, device: Device, len: u64) {
        self.with_pool(device, |p| p.unreserve(len))
    }

    /// Free on the given device.
    pub fn free(&self, device: Device, block: Block) {
        self.with_pool(device, |p| p.free(block))
    }

    /// Stats snapshot for the given device.
    pub fn stats(&self, device: Device) -> PoolStats {
        self.with_pool(device, |p| p.stats())
    }

    /// Pre-fragment one GPU's pool (Fig. 6b setup).
    pub fn prefragment_gpu(&self, rank: Rank, chunk: u64) {
        self.with_pool(Device::gpu(rank), |p| p.prefragment(chunk));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dgx2_spec_matches_paper() {
        let spec = NodeMemorySpec::dgx2();
        assert_eq!(spec.gpus, 16);
        // Fig 2b: 0.5 TB aggregate GPU memory per node.
        assert_eq!(spec.gpu_mem.as_u64() * 16, ByteSize::gib(512).as_u64());
        assert_eq!(spec.cpu_mem.as_gib_f64(), 1536.0);
        assert_eq!(spec.nvme_mem.as_tib_f64(), 28.0);
    }

    #[test]
    fn per_device_allocation_is_independent() {
        let h = MemoryHierarchy::new(&NodeMemorySpec::test_spec(2, 100, 200, 300));
        assert_eq!(h.gpu_count(), 2);
        let g0 = h.alloc(Device::gpu(0), 100).unwrap();
        // Exhausting GPU 0 leaves GPU 1, CPU and NVMe untouched.
        assert!(h.alloc(Device::gpu(0), 1).is_err());
        assert!(h.alloc(Device::gpu(1), 100).is_ok());
        assert!(h.alloc(Device::cpu(), 200).is_ok());
        assert!(h.alloc(Device::nvme(), 300).is_ok());
        h.free(Device::gpu(0), g0);
        assert_eq!(h.stats(Device::gpu(0)).in_use, 0);
    }

    #[test]
    fn prefragment_targets_one_gpu() {
        let h = MemoryHierarchy::new(&NodeMemorySpec::test_spec(2, 1000, 0, 0));
        h.prefragment_gpu(0, 100);
        assert!(h.alloc(Device::gpu(0), 200).is_err());
        assert!(h.alloc(Device::gpu(1), 200).is_ok());
    }

    #[test]
    #[should_panic(expected = "no GPU pool")]
    fn unknown_gpu_rank_panics() {
        let h = MemoryHierarchy::new(&NodeMemorySpec::test_spec(1, 10, 10, 10));
        let _ = h.alloc(Device::gpu(5), 1);
    }
}
