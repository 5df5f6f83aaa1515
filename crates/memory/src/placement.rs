//! Tier placement: which records of one logical shard stay in CPU DRAM.
//!
//! ZeRO-Infinity's offload chain treats CPU DRAM and NVMe as one serial
//! hierarchy; MLP-Offload-style multi-path tiering instead *splits* each
//! optimizer shard across both and drives the two paths concurrently, so
//! the aggregate optimizer-step bandwidth approaches the sum of the
//! tiers rather than the best single one. A [`PlacementPolicy`] names the
//! record width and the DRAM-resident share (integer permille, so
//! policies stay `Eq`/hashable); [`PlacementPolicy::in_dram`] deals each
//! record to one path.
//!
//! A shard's placement is fixed when it is stored; the only later move
//! is degraded-mode collapse, which brings every record to CPU DRAM.

/// Permille denominator: a [`PlacementPolicy`] expresses the
/// DRAM-resident fraction in thousandths.
const PERMILLE: u32 = 1000;

/// How shards split across the CPU and NVMe paths, record by record.
///
/// `stripe` is the record: the unit the deal hands out, in elements.
/// Records go to DRAM at rate `cpu_permille/1000` by Bresenham-style
/// accumulation, so the two paths alternate throughout the shard instead
/// of splitting it into one CPU prefix and one NVMe suffix — a streamed
/// pass over the shard keeps *both* paths busy the whole time, which is
/// what makes the concurrent aggregate bandwidth real.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlacementPolicy {
    /// Thousandths of each shard resident in CPU DRAM (0 = all NVMe,
    /// 1000 = all DRAM).
    pub cpu_permille: u32,
    /// The record, in elements (0 is treated as 1).
    pub stripe: usize,
}

impl PlacementPolicy {
    /// Everything on NVMe — the classic single-backing-store layout.
    pub fn all_nvme() -> Self {
        PlacementPolicy { cpu_permille: 0, stripe: usize::MAX }
    }

    /// Everything in CPU DRAM.
    pub fn all_cpu() -> Self {
        PlacementPolicy { cpu_permille: PERMILLE, stripe: usize::MAX }
    }

    /// A two-path split placing `cpu_permille`/1000 of each shard in
    /// DRAM, dealt in records of `stripe` elements. The share is rounded
    /// down per shard: the deal starts on the device below 1000‰, so a
    /// shard of one record lies wholly on NVMe, and one of two at 500‰
    /// puts its second record in DRAM.
    pub fn split(cpu_permille: u32, stripe: usize) -> Self {
        PlacementPolicy { cpu_permille: cpu_permille.min(PERMILLE), stripe: stripe.max(1) }
    }

    /// True when record `record` of a shard lives in CPU DRAM: exactly
    /// when the cumulative DRAM quota crosses an integer boundary on it,
    /// so DRAM records appear evenly at rate `cpu_permille/1000` — none
    /// at 0‰, every one at 1000‰.
    pub fn in_dram(&self, record: u64) -> bool {
        let p = u64::from(self.cpu_permille.min(PERMILLE));
        (record + 1) * p / u64::from(PERMILLE) > record * p / u64::from(PERMILLE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_are_dealt_evenly_at_the_requested_rate() {
        // The records of an `n`-record shard dealt to DRAM at `p`‰.
        let dram = |p: u32, n: u64| -> Vec<u64> {
            let policy = PlacementPolicy::split(p, 8);
            (0..n).filter(|&k| policy.in_dram(k)).collect()
        };
        assert!(dram(0, 4097).is_empty());
        assert_eq!(dram(1000, 4097).len(), 4097);
        assert!((0..4097).all(|k| PlacementPolicy::all_cpu().in_dram(k)));
        assert!(!(0..4097).any(|k| PlacementPolicy::all_nvme().in_dram(k)));
        for permille in [1u32, 125, 250, 333, 500, 750, 999] {
            for n in [1u64, 7, 64, 1000, 4097] {
                let want = (n * permille as u64 / 1000) as usize;
                assert_eq!(dram(permille, n).len(), want, "p={permille} n={n}");
            }
        }
        // At 500‰ the paths alternate rather than partition the shard.
        assert_eq!(dram(500, 64), (1..64).step_by(2).collect::<Vec<_>>());
    }
}
