//! CPU offload for activation checkpoints (paper Sec. 5.1.2, 5.2.3).
//!
//! Checkpointed block inputs are written to CPU memory (through the
//! capacity-accounted pool) as the forward pass produces them and read
//! back when the backward pass recomputes each block. GPU memory holds at
//! most one checkpoint at a time; a 10-trillion-parameter model's 0.76 TB
//! of checkpoints fits in a DGX-2's 1.5 TB of DRAM this way.

use std::collections::HashMap;

use zi_memory::PlacementPolicy;
use zi_model::ActivationStore;
use zi_tensor::{FlatBuffer, Tensor};
use zi_types::{DType, Device, Error, Result};

use crate::offload::{OffloadManager, PlacedBuf};

/// Activation store backed by CPU (or any tier's) placed buffers.
pub struct OffloadActStore {
    mgr: OffloadManager,
    device: Device,
    slots: HashMap<usize, (Vec<usize>, PlacedBuf)>,
    /// Total bytes written over the store's lifetime.
    bytes_saved: u64,
    /// Total bytes read back.
    bytes_loaded: u64,
}

impl OffloadActStore {
    /// Store offloading to CPU memory (the paper's placement).
    pub fn cpu(mgr: OffloadManager) -> Self {
        Self::on_device(mgr, Device::cpu())
    }

    /// Store offloading to an arbitrary tier (NVMe offload of activation
    /// checkpoints is the "future implementation" the paper suggests for
    /// the 20T case).
    pub fn on_device(mgr: OffloadManager, device: Device) -> Self {
        OffloadActStore { mgr, device, slots: HashMap::new(), bytes_saved: 0, bytes_loaded: 0 }
    }

    /// Lifetime traffic counters `(bytes_saved, bytes_loaded)`.
    pub fn traffic(&self) -> (u64, u64) {
        (self.bytes_saved, self.bytes_loaded)
    }

    /// Checkpoints currently resident on the offload tier.
    pub fn resident(&self) -> usize {
        self.slots.len()
    }

    /// Free any checkpoints left over (e.g. after an aborted step).
    pub fn clear(&mut self) {
        for (_, (_, buf)) in self.slots.drain() {
            self.mgr.free_placed(buf);
        }
    }
}

impl Drop for OffloadActStore {
    fn drop(&mut self) {
        self.clear();
    }
}

impl ActivationStore for OffloadActStore {
    fn save(&mut self, key: usize, t: Tensor) -> Result<()> {
        if self.slots.contains_key(&key) {
            return Err(Error::Internal(format!("activation {key} saved twice")));
        }
        let shape = t.shape().to_vec();
        let buf = FlatBuffer::from_f32(DType::F32, t.data());
        self.bytes_saved += buf.size_in_bytes() as u64;
        let stored = self.mgr.store_placed(self.device, &PlacementPolicy::all_nvme(), buf)?;
        self.slots.insert(key, (shape, stored));
        Ok(())
    }

    fn load(&mut self, key: usize) -> Result<Tensor> {
        let (shape, buf) = self
            .slots
            .remove(&key)
            .ok_or_else(|| Error::Internal(format!("activation {key} not offloaded")))?;
        let data = self.mgr.take_placed(buf)?;
        self.bytes_loaded += data.size_in_bytes() as u64;
        Tensor::from_vec(&shape, data.to_f32_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offload::NodeResources;
    use zi_memory::NodeMemorySpec;

    fn store() -> (NodeResources, OffloadActStore) {
        let spec = NodeMemorySpec::test_spec(1, 1 << 20, 1 << 22, 1 << 22);
        let node = NodeResources::in_memory(&spec, 1);
        let s = OffloadActStore::cpu(node.offload_manager());
        (node, s)
    }

    #[test]
    fn save_load_round_trip() {
        let (node, mut s) = store();
        let t = Tensor::randn_seeded(&[4, 8], 3, 1.0);
        s.save(0, t.clone()).unwrap();
        assert_eq!(s.resident(), 1);
        assert!(node.hierarchy.stats(Device::cpu()).in_use > 0);
        let back = s.load(0).unwrap();
        assert_eq!(back.shape(), t.shape());
        assert_eq!(back.data(), t.data());
        assert_eq!(s.resident(), 0);
        assert_eq!(node.hierarchy.stats(Device::cpu()).in_use, 0);
        assert_eq!(s.traffic(), (4 * 8 * 4, 4 * 8 * 4));
    }

    #[test]
    fn duplicate_and_missing_keys_error() {
        let (_node, mut s) = store();
        s.save(1, Tensor::zeros(&[2])).unwrap();
        assert!(s.save(1, Tensor::zeros(&[2])).is_err());
        assert!(s.load(9).is_err());
    }

    #[test]
    fn cpu_capacity_is_enforced() {
        let spec = NodeMemorySpec::test_spec(1, 1 << 20, 64, 1 << 22);
        let node = NodeResources::in_memory(&spec, 1);
        let mut s = OffloadActStore::cpu(node.offload_manager());
        // 32 f32 = 128 bytes > 64-byte CPU pool.
        let err = s.save(0, Tensor::zeros(&[32])).unwrap_err();
        assert!(err.is_oom());
    }

    #[test]
    fn drop_releases_offloaded_checkpoints() {
        let (node, mut s) = store();
        s.save(0, Tensor::zeros(&[16])).unwrap();
        s.save(1, Tensor::zeros(&[16])).unwrap();
        drop(s);
        assert_eq!(node.hierarchy.stats(Device::cpu()).in_use, 0);
    }

    #[test]
    fn nvme_placement_works_too() {
        let spec = NodeMemorySpec::test_spec(1, 1 << 20, 1 << 22, 1 << 22);
        let node = NodeResources::in_memory(&spec, 1);
        let mut s = OffloadActStore::on_device(node.offload_manager(), Device::nvme());
        let t = Tensor::randn_seeded(&[3, 3], 9, 0.5);
        s.save(0, t.clone()).unwrap();
        assert!(node.hierarchy.stats(Device::nvme()).in_use > 0);
        assert_eq!(s.load(0).unwrap().data(), t.data());
    }
}
