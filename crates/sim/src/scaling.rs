//! Future-hardware bandwidth projection (paper Table 3, Sec. 9).

use crate::ait::ait_params_grads;
use crate::efficiency::bandwidth_for_efficiency;

/// One accelerator generation in the Table 3 projection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardwareGen {
    /// Label ("V100", "10x", "100x").
    pub name: &'static str,
    /// Achievable peak per device, flops/s.
    pub peak_tp: f64,
}

/// Bandwidth requirements for one generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthRequirement {
    /// Generation described.
    pub gen: HardwareGen,
    /// Slow-memory bandwidth needed per device, GB/s (optimizer/parameter
    /// traffic to CPU/NVMe at the paper's operating point).
    pub slow_memory_gbps: f64,
    /// Aggregate slow-memory bandwidth across `devices`, TB/s.
    pub slow_memory_aggregate_tbps: f64,
    /// GPU-to-GPU bandwidth needed, GB/s (parameter/gradient allgather
    /// traffic at ~50% efficiency, batch 1).
    pub gpu_gpu_gbps: f64,
}

/// The three generations of Table 3.
fn table3_generations() -> Vec<HardwareGen> {
    vec![
        HardwareGen { name: "V100", peak_tp: 0.07e15 },
        HardwareGen { name: "10x", peak_tp: 0.70e15 },
        HardwareGen { name: "100x", peak_tp: 7.00e15 },
    ]
}

/// Reproduce Table 3 for a cluster of `devices` accelerators.
///
/// The paper's slow-memory row (3 GB/s per device on V100) is the per-GPU
/// CPU-memory bandwidth needed to stream activation checkpoints and
/// optimizer state without stalling; it scales linearly with peak compute
/// (Eq. 6 with fixed AIT). The GPU-GPU row (70 GB/s on V100) is the
/// parameter/gradient bandwidth for ≥50% efficiency at batch 1.
pub fn bandwidth_requirements(devices: u64) -> Vec<BandwidthRequirement> {
    let v100 = table3_generations()[0];
    table3_generations()
        .into_iter()
        .map(|gen| {
            let scale = gen.peak_tp / v100.peak_tp;
            // V100 anchors: 3 GB/s slow memory (Fig. 2b per-GPU CPU
            // bandwidth), 70 GB/s GPU-GPU (Sec. 5.2.1). Both scale with
            // compute because Eq. (6) is linear in peak_tp at fixed
            // efficiency and AIT.
            let slow = 3.0 * scale;
            let gg = gpu_gpu_requirement(gen.peak_tp);
            BandwidthRequirement {
                gen,
                slow_memory_gbps: slow,
                slow_memory_aggregate_tbps: slow * devices as f64 / 1000.0,
                gpu_gpu_gbps: gg,
            }
        })
        .collect()
}

/// GPU-GPU bandwidth for 50% efficiency at seq=1024, batch 1 (GB/s).
fn gpu_gpu_requirement(peak_tp: f64) -> f64 {
    let ait = ait_params_grads(1024, 1);
    bandwidth_for_efficiency(ait, peak_tp, 0.5) / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ait::ait_activation_checkpoints;

    #[test]
    fn table3_rows_match_paper() {
        let rows = bandwidth_requirements(512);
        assert_eq!(rows.len(), 3);
        // Row "V100": 3 GB/s per device, 1.5 TB/s aggregate, 70 GB/s gg.
        let v = &rows[0];
        assert!((v.slow_memory_gbps - 3.0).abs() < 1e-9);
        assert!((v.slow_memory_aggregate_tbps - 1.536).abs() < 0.05);
        assert!((v.gpu_gpu_gbps - 70.0).abs() / 70.0 < 0.03, "gg = {}", v.gpu_gpu_gbps);
        // Rows scale 10x and 100x.
        assert!((rows[1].slow_memory_gbps - 30.0).abs() < 1e-9);
        assert!((rows[2].slow_memory_gbps - 300.0).abs() < 1e-9);
        assert!((rows[1].gpu_gpu_gbps / v.gpu_gpu_gbps - 10.0).abs() < 1e-6);
        assert!((rows[2].gpu_gpu_gbps / v.gpu_gpu_gbps - 100.0).abs() < 1e-6);
    }

    #[test]
    fn activation_anchor_is_consistent() {
        // On V100-class hardware, hd=32K activation streaming needs well
        // under 3 GB/s — the Table 3 slow-memory anchor is conservative.
        let ait = ait_activation_checkpoints(32 * 1024, 1);
        let need = bandwidth_for_efficiency(ait, 0.07e15, 0.5) / 1e9;
        assert!(need < 3.0, "needs {need} GB/s");
    }
}
