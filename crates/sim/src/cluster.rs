//! Cluster hardware descriptions (paper Fig. 2b).

/// Hardware characteristics of a GPU cluster, per the paper's DGX-2
/// SuperPOD numbers (Fig. 2b and Sec. 4.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    /// Number of nodes.
    pub nodes: u64,
    /// GPUs per node.
    pub gpus_per_node: u64,
    /// HBM per GPU, bytes.
    pub gpu_mem: u64,
    /// CPU DRAM per node, bytes.
    pub cpu_mem: u64,
    /// NVMe per node, bytes.
    pub nvme: u64,
    /// Achievable peak per GPU, flops/s (70 TF for V100, Sec. 4.2).
    pub gpu_peak: f64,
    /// Per-GPU GPU↔GPU collective bandwidth, bytes/s (~70 GB/s usable).
    pub gg_bw: f64,
    /// Per-GPU CPU-memory bandwidth when all GPUs read in parallel,
    /// bytes/s (3 GB/s on DGX-2, Fig. 2b).
    pub cpu_bw_per_gpu: f64,
    /// Per-GPU NVMe bandwidth when all GPUs read in parallel, bytes/s
    /// (1.6 GB/s on DGX-2, Fig. 2b).
    pub nvme_bw_per_gpu: f64,
    /// Single PCIe link bandwidth, bytes/s (12 GB/s) — what a
    /// broadcast-based fetch or single-link offload is limited to.
    pub pcie_single: f64,
}

impl ClusterSpec {
    /// A DGX-2 SuperPOD slice of `nodes` nodes.
    pub fn dgx2(nodes: u64) -> Self {
        ClusterSpec {
            nodes,
            gpus_per_node: 16,
            gpu_mem: 32 << 30,
            cpu_mem: 1536 << 30,
            nvme: 28 * (1 << 40),
            gpu_peak: 70e12,
            gg_bw: 70e9,
            cpu_bw_per_gpu: 3e9,
            nvme_bw_per_gpu: 1.6e9,
            pcie_single: 12e9,
        }
    }

    /// Total GPUs.
    pub fn total_gpus(&self) -> u64 {
        self.nodes * self.gpus_per_node
    }

    /// Aggregate GPU memory, bytes.
    pub(crate) fn total_gpu_mem(&self) -> u64 {
        self.total_gpus() * self.gpu_mem
    }

    /// Aggregate CPU memory, bytes.
    pub(crate) fn total_cpu_mem(&self) -> u64 {
        self.nodes * self.cpu_mem
    }

    /// Aggregate NVMe, bytes.
    pub fn total_nvme(&self) -> u64 {
        self.nodes * self.nvme
    }
}

/// One row of the Fig. 2b table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig2bRow {
    /// Nodes in this configuration.
    pub nodes: u64,
    /// Total GPUs.
    pub gpus: u64,
    /// Aggregate GPU memory, TB.
    pub gpu_tb: f64,
    /// Aggregate CPU memory, TB.
    pub cpu_tb: f64,
    /// Aggregate NVMe, TB.
    pub nvme_tb: f64,
    /// Per-GPU CPU bandwidth, GB/s.
    pub cpu_bw_gbps: f64,
    /// Per-GPU NVMe bandwidth, GB/s.
    pub nvme_bw_gbps: f64,
}

/// Reproduce the Fig. 2b cluster table.
pub fn fig2b_rows() -> Vec<Fig2bRow> {
    [1u64, 4, 16, 64, 96]
        .iter()
        .map(|&nodes| {
            let c = ClusterSpec::dgx2(nodes);
            Fig2bRow {
                nodes,
                gpus: c.total_gpus(),
                gpu_tb: c.total_gpu_mem() as f64 / 1e12,
                cpu_tb: c.total_cpu_mem() as f64 / 1e12,
                nvme_tb: c.total_nvme() as f64 / 1e12,
                cpu_bw_gbps: c.cpu_bw_per_gpu / 1e9,
                nvme_bw_gbps: c.nvme_bw_per_gpu / 1e9,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dgx2_matches_fig2b() {
        let c = ClusterSpec::dgx2(1);
        assert_eq!(c.total_gpus(), 16);
        // Fig. 2b row "1 node / 16 GPUs": 0.5 TB GPU, 1.5 TB CPU, 28 TB NVMe.
        assert!((c.total_gpu_mem() as f64 / 1e12 - 0.55).abs() < 0.05);
        assert!((c.total_cpu_mem() as f64 / 1e12 - 1.65).abs() < 0.1);
        assert!((c.total_nvme() as f64 / 1e12 - 30.8).abs() < 1.0);
    }

    #[test]
    fn superpod_96_nodes() {
        let c = ClusterSpec::dgx2(96);
        assert_eq!(c.total_gpus(), 1536);
        // Fig. 2b: 48 TB GPU, 144 TB CPU, 2688 TB NVMe (decimal-ish).
        assert!((c.total_gpu_mem() as f64 / 1e12 - 52.8).abs() < 2.0);
        assert!((c.total_nvme() as f64 / 1e12 - 2956.0).abs() < 100.0);
    }

    #[test]
    fn fig2b_table_shape() {
        let rows = fig2b_rows();
        assert_eq!(rows.len(), 5);
        // Memory scales linearly with node count.
        assert!((rows[3].nvme_tb / rows[1].nvme_tb - 16.0).abs() < 1e-9);
        // Per-GPU slow-memory bandwidth is constant across scales.
        assert!(rows.iter().all(|r| (r.cpu_bw_gbps - 3.0).abs() < 1e-9));
        assert!(rows.iter().all(|r| (r.nvme_bw_gbps - 1.6).abs() < 1e-9));
    }
}
