//! The efficiency metric, Eq. (6), and the Fig. 3 curves.

/// One point on an efficiency-vs-bandwidth curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EfficiencyPoint {
    /// Available data-movement bandwidth in GB/s.
    pub bandwidth_gbps: f64,
    /// Predicted efficiency in `[0, 1]`.
    pub efficiency: f64,
}

/// Eq. (6): `efficiency = ait * bw / (ait * bw + peak_tp)`.
///
/// `ait` is dimensionless flops/byte, `bw` in bytes/s, `peak_tp` in
/// flops/s.
pub fn efficiency(ait: f64, bw_bytes_per_s: f64, peak_tp_flops: f64) -> f64 {
    let num = ait * bw_bytes_per_s;
    num / (num + peak_tp_flops)
}

/// Sweep a bandwidth range (GB/s) and produce the Fig. 3 curve for a
/// given AIT and achievable peak (flops/s).
pub fn efficiency_curve(
    ait: f64,
    peak_tp_flops: f64,
    bandwidths_gbps: &[f64],
) -> Vec<EfficiencyPoint> {
    bandwidths_gbps
        .iter()
        .map(|&gb| EfficiencyPoint {
            bandwidth_gbps: gb,
            efficiency: efficiency(ait, gb * 1e9, peak_tp_flops),
        })
        .collect()
}

/// Bandwidth (bytes/s) needed to reach a target efficiency — the inverse
/// of Eq. (6); used for the Sec. 5.2 thresholds and Table 3.
pub fn bandwidth_for_efficiency(ait: f64, peak_tp_flops: f64, target: f64) -> f64 {
    assert!((0.0..1.0).contains(&target), "target efficiency must be in [0,1)");
    // eff = ait*bw / (ait*bw + peak) ⇒ bw = peak * eff / (ait * (1 - eff)).
    peak_tp_flops * target / (ait * (1.0 - target))
}

/// The empirical achievable peak the paper uses for its V100 analysis:
/// 70 TFlops/GPU (Sec. 4.2).
pub const V100_PEAK_TP: f64 = 70e12;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ait::{ait_activation_checkpoints, ait_optimizer_states, ait_params_grads};

    #[test]
    fn efficiency_limits() {
        assert_eq!(efficiency(100.0, 0.0, V100_PEAK_TP), 0.0);
        let e = efficiency(1024.0, 1e15, V100_PEAK_TP);
        assert!(e > 0.9);
        // Monotone in bandwidth.
        let lo = efficiency(1024.0, 1e9, V100_PEAK_TP);
        let hi = efficiency(1024.0, 1e10, V100_PEAK_TP);
        assert!(hi > lo);
    }

    /// Sec. 5.2.1: ~70 GB/s for params/grads gives >=50% efficiency even at
    /// batch size 1 (ait = seq * bsz = 1024).
    #[test]
    fn params_threshold_70gbps() {
        let ait = ait_params_grads(1024, 1);
        let e = efficiency(ait, 70e9, V100_PEAK_TP);
        assert!(e >= 0.5, "70 GB/s at bsz=1 gives {e}");
        // And well below 50% at 10 GB/s (single PCIe link).
        let e_pcie = efficiency(ait, 12e9, V100_PEAK_TP);
        assert!(e_pcie < 0.2, "single PCIe gives {e_pcie}");
    }

    /// Sec. 5.2.2: ~1.5 TB/s for optimizer states at batch 2 for 90%.
    #[test]
    fn optimizer_threshold_1_5tbps() {
        let ait = ait_optimizer_states(1024, 2);
        let bw = bandwidth_for_efficiency(ait, V100_PEAK_TP, 0.9);
        let tbps = bw / 1e12;
        assert!((1.0..2.0).contains(&tbps), "90% efficiency needs {tbps} TB/s, paper says ~1.5");
    }

    /// Sec. 5.2.3 / Fig. 3c: ~2 GB/s sustains >=50% for hidden 2K, and
    /// under 1 GB/s suffices for hidden >= 8K.
    #[test]
    fn activation_thresholds() {
        let ait_2k = ait_activation_checkpoints(2048, 1);
        assert!(efficiency(ait_2k, 2e9, V100_PEAK_TP) >= 0.5);
        let ait_8k = ait_activation_checkpoints(8192, 1);
        let need = bandwidth_for_efficiency(ait_8k, V100_PEAK_TP, 0.5);
        assert!(need < 1e9, "hd=8K needs {} GB/s", need / 1e9);
    }

    #[test]
    fn inverse_round_trips() {
        for target in [0.1, 0.5, 0.9, 0.99] {
            let ait = 512.0;
            let bw = bandwidth_for_efficiency(ait, V100_PEAK_TP, target);
            let e = efficiency(ait, bw, V100_PEAK_TP);
            assert!((e - target).abs() < 1e-9);
        }
    }

    #[test]
    fn curve_is_sorted_and_bounded() {
        let c = efficiency_curve(1024.0, V100_PEAK_TP, &[1.0, 10.0, 100.0, 1000.0]);
        assert_eq!(c.len(), 4);
        for w in c.windows(2) {
            assert!(w[1].efficiency > w[0].efficiency);
        }
        assert!(c.iter().all(|p| (0.0..=1.0).contains(&p.efficiency)));
    }
}
