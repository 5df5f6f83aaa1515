//! Device identities for the heterogeneous memory hierarchy.

use std::fmt;

/// Data-parallel rank of a worker.
pub type Rank = usize;

/// Number of data-parallel workers in a process group.
pub type WorldSize = usize;

/// The tier a piece of memory lives on.
///
/// Mirrors the paper's three-tier hierarchy (Fig. 2b): fast but small GPU
/// HBM, larger CPU DRAM, and massive but slow NVMe storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DeviceKind {
    /// GPU high-bandwidth memory.
    Gpu,
    /// Host CPU DRAM.
    Cpu,
    /// NVMe flash storage.
    Nvme,
}

impl DeviceKind {
    /// All tiers from fastest to slowest.
    pub const ALL: [DeviceKind; 3] = [DeviceKind::Gpu, DeviceKind::Cpu, DeviceKind::Nvme];
}

impl fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceKind::Gpu => write!(f, "gpu"),
            DeviceKind::Cpu => write!(f, "cpu"),
            DeviceKind::Nvme => write!(f, "nvme"),
        }
    }
}

/// A concrete device: a tier plus an index within that tier.
///
/// GPUs are indexed by data-parallel rank; CPU and NVMe are per-node
/// resources and use index 0 in single-node setups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Device {
    /// Memory tier.
    pub kind: DeviceKind,
    /// Index within the tier.
    pub index: usize,
}

impl Device {
    /// GPU device for data-parallel rank `rank`.
    #[inline]
    pub const fn gpu(rank: Rank) -> Self {
        Device { kind: DeviceKind::Gpu, index: rank }
    }

    /// Node-local CPU memory.
    #[inline]
    pub const fn cpu() -> Self {
        Device { kind: DeviceKind::Cpu, index: 0 }
    }

    /// Node-local NVMe storage.
    #[inline]
    pub const fn nvme() -> Self {
        Device { kind: DeviceKind::Nvme, index: 0 }
    }
}

impl fmt::Display for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.kind, self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_ordering_reflects_speed() {
        assert!(DeviceKind::Cpu > DeviceKind::Gpu);
        assert!(DeviceKind::Nvme > DeviceKind::Cpu);
        assert!(DeviceKind::Gpu < DeviceKind::Nvme);
    }

    #[test]
    fn constructors() {
        assert_eq!(Device::gpu(3), Device { kind: DeviceKind::Gpu, index: 3 });
        assert_eq!(Device::nvme().kind, DeviceKind::Nvme);
    }

    #[test]
    fn display_format() {
        assert_eq!(Device::gpu(2).to_string(), "gpu:2");
        assert_eq!(Device::cpu().to_string(), "cpu:0");
    }
}
