//! Tier-placement plans: how one logical shard splits across backing
//! paths.
//!
//! ZeRO-Infinity's offload chain treats CPU DRAM and NVMe as one serial
//! hierarchy; MLP-Offload-style multi-path tiering instead *splits* each
//! optimizer shard across both and drives the two paths concurrently, so
//! the aggregate optimizer-step bandwidth approaches the sum of the
//! tiers rather than the best single one. This module is the policy and
//! plan layer for that split:
//!
//! * [`PathKind`] — the backing path of one plan segment (CPU DRAM or
//!   NVMe).
//! * [`PlacementPolicy`] — the knob-level description: what fraction of
//!   each shard is DRAM-resident (integer permille, so policies stay
//!   `Eq`/hashable) and the stripe width the two paths interleave at.
//! * [`PlacementPlan`] — a policy resolved against a concrete shard
//!   length: a sorted, disjoint, exhaustive list of [`PlanSegment`]s.
//! * [`PlanCell`] — a versioned publish/read cell for the node's
//!   current policy, so re-tiering (the `zi-adapt` placement knob) and
//!   degraded-mode collapse hand a *whole* policy to readers, never a
//!   torn one (model-checked by the `plan-cell-handoff` harness in
//!   `crates/check`).

use zi_sync::{Condvar, Mutex};

/// Permille denominator: a [`PlacementPolicy`] expresses the
/// DRAM-resident fraction in thousandths.
pub const PERMILLE: u32 = 1000;

/// Which backing path a plan segment lives on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathKind {
    /// CPU DRAM (the cp path): synchronous, low latency.
    Cpu,
    /// NVMe (the nc path): asynchronous, queue-depth driven.
    Nvme,
}

impl PathKind {
    /// Stable short label (`"cpu"` / `"nvme"`), used in reports.
    pub fn label(self) -> &'static str {
        match self {
            PathKind::Cpu => "cpu",
            PathKind::Nvme => "nvme",
        }
    }
}

/// How shards should split across the CPU and NVMe paths.
///
/// `cpu_permille` is clamped to `0..=1000` at plan time; `stripe` is the
/// interleave width in elements. Stripes are dealt to the CPU path at
/// rate `cpu_permille/1000` by Bresenham-style accumulation, so the two
/// paths alternate throughout the shard instead of splitting it into one
/// CPU prefix and one NVMe suffix — a streamed pass over the shard keeps
/// *both* paths busy the whole time, which is what makes the concurrent
/// aggregate bandwidth real.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlacementPolicy {
    /// Thousandths of each shard resident in CPU DRAM (0 = all NVMe,
    /// 1000 = all DRAM).
    pub cpu_permille: u32,
    /// Interleave stripe width, in elements (0 is treated as 1).
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
    /// DRAM, interleaved at `stripe` elements. The share is rounded down
    /// per shard: the deal starts on the device below 1000‰, so a shard
    /// of one stripe lies wholly on NVMe, and one of two at 500‰ puts its
    /// second stripe in DRAM.
    pub fn split(cpu_permille: u32, stripe: usize) -> Self {
        PlacementPolicy { cpu_permille: cpu_permille.min(PERMILLE), stripe: stripe.max(1) }
    }

    /// True when every element lands on one path (no split).
    pub fn is_single_path(&self) -> bool {
        self.cpu_permille == 0 || self.cpu_permille >= PERMILLE
    }

    /// Resolve the policy against a shard of `total` elements.
    pub fn plan(&self, total: usize) -> PlacementPlan {
        let p = self.cpu_permille.min(PERMILLE) as u64;
        if total == 0 || p == 0 || p == PERMILLE as u64 {
            let path = if p >= PERMILLE as u64 { PathKind::Cpu } else { PathKind::Nvme };
            let segments = if total == 0 {
                Vec::new()
            } else {
                vec![PlanSegment { path, start: 0, len: total }]
            };
            return PlacementPlan { total, segments };
        }
        let stripe = self.stripe.max(1);
        let mut segments: Vec<PlanSegment> = Vec::new();
        let mut start = 0usize;
        let mut window = 0u64;
        while start < total {
            let len = stripe.min(total - start);
            // Bresenham deal: window w goes to the CPU path exactly when
            // the cumulative CPU quota crosses an integer boundary, so
            // CPU windows appear evenly at rate p/1000.
            let path = if (window + 1) * p / PERMILLE as u64 > window * p / PERMILLE as u64 {
                PathKind::Cpu
            } else {
                PathKind::Nvme
            };
            match segments.last_mut() {
                Some(seg) if seg.path == path => seg.len += len,
                _ => segments.push(PlanSegment { path, start, len }),
            }
            start += len;
            window += 1;
        }
        PlacementPlan { total, segments }
    }
}

/// One contiguous element range of a plan, on one path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanSegment {
    /// Backing path for this range.
    pub path: PathKind,
    /// First element (inclusive) of the range within the shard.
    pub start: usize,
    /// Range length in elements.
    pub len: usize,
}

impl PlanSegment {
    /// One past the last element of the range.
    pub fn end(&self) -> usize {
        self.start + self.len
    }
}

/// A policy resolved against a concrete shard: sorted, disjoint
/// segments covering exactly `0..total`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementPlan {
    total: usize,
    segments: Vec<PlanSegment>,
}

impl PlacementPlan {
    /// Shard length the plan covers, in elements.
    pub fn total(&self) -> usize {
        self.total
    }

    /// The segments, sorted by `start`, disjoint and exhaustive.
    pub fn segments(&self) -> &[PlanSegment] {
        &self.segments
    }

    /// Elements placed on `path`.
    pub fn elems_on(&self, path: PathKind) -> usize {
        self.segments.iter().filter(|s| s.path == path).map(|s| s.len).sum()
    }

    /// True when every element lives on one path.
    pub fn is_single_path(&self) -> bool {
        self.segments.len() <= 1
    }
}

/// A versioned publish cell carrying the node's current
/// [`PlacementPolicy`] from whoever re-tiers (the adaptive controller's
/// placement knob, or degraded-mode collapse on an NVMe death) to every
/// reader that builds plans from it.
///
/// The hazard this removes is the *torn policy read*: a policy is two
/// fields, and a reader that combined `cpu_permille` from one publish
/// with `stripe` from another would build plans no publisher ever chose
/// — two ranks could then disagree about a shard's layout. Every
/// publish replaces the whole policy under one lock and bumps a
/// version; every read snapshots `(version, policy)` under the same
/// lock. Mirrors `zi-adapt`'s `KnobCell`; the `plan-cell-handoff`
/// zi-check harness model-checks the protocol.
pub struct PlanCell {
    slot: Mutex<(u64, PlacementPolicy)>,
    published: Condvar,
}

impl PlanCell {
    /// A cell holding `initial` at version 1.
    pub fn new(initial: PlacementPolicy) -> Self {
        PlanCell { slot: Mutex::new((1, initial)), published: Condvar::new() }
    }

    /// Atomically replace the policy, bump the version, and wake every
    /// waiter. Returns the new version.
    pub fn publish(&self, policy: PlacementPolicy) -> u64 {
        let mut slot = self.slot.lock();
        slot.0 += 1;
        slot.1 = policy;
        let version = slot.0;
        drop(slot);
        self.published.notify_all();
        version
    }

    /// Snapshot the current `(version, policy)` tuple.
    pub fn read(&self) -> (u64, PlacementPolicy) {
        *self.slot.lock()
    }

    /// Snapshot only if something newer than `seen` has been published.
    pub fn read_if_newer(&self, seen: u64) -> Option<(u64, PlacementPolicy)> {
        let slot = self.slot.lock();
        (slot.0 > seen).then_some(*slot)
    }

    /// Block until a version newer than `seen` is published, then
    /// snapshot it.
    pub fn wait_past(&self, seen: u64) -> (u64, PlacementPolicy) {
        let mut slot = self.slot.lock();
        while slot.0 <= seen {
            self.published.wait(&mut slot);
        }
        *slot
    }
}

impl std::fmt::Debug for PlanCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (v, p) = self.read();
        write!(f, "PlanCell(v{v}: cpu={}‰ stripe={})", p.cpu_permille, p.stripe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_path_policies_produce_one_segment() {
        let nvme = PlacementPolicy::all_nvme().plan(100);
        assert_eq!(nvme.segments(), &[PlanSegment { path: PathKind::Nvme, start: 0, len: 100 }]);
        let cpu = PlacementPolicy::all_cpu().plan(100);
        assert_eq!(cpu.segments(), &[PlanSegment { path: PathKind::Cpu, start: 0, len: 100 }]);
        assert!(nvme.is_single_path() && cpu.is_single_path());
        assert!(PlacementPolicy::all_cpu().plan(0).segments().is_empty());
    }

    #[test]
    fn split_plans_cover_exactly_and_hit_the_ratio() {
        for permille in [1u32, 125, 250, 333, 500, 750, 999] {
            for total in [1usize, 7, 64, 1000, 4097] {
                let plan = PlacementPolicy::split(permille, 8).plan(total);
                // Exhaustive and disjoint in order.
                let mut cursor = 0usize;
                for seg in plan.segments() {
                    assert_eq!(seg.start, cursor, "p={permille} n={total}");
                    cursor = seg.end();
                }
                assert_eq!(cursor, total);
                // CPU share within one stripe of the requested ratio.
                let want = (total as u64 * permille as u64 / 1000) as isize;
                let got = plan.elems_on(PathKind::Cpu) as isize;
                assert!(
                    (got - want).abs() <= 8,
                    "p={permille} n={total}: cpu elems {got}, want ~{want}"
                );
            }
        }
    }

    #[test]
    fn split_interleaves_rather_than_partitions() {
        // A 50% split over many stripes must alternate paths, not put
        // one contiguous half on each.
        let plan = PlacementPolicy::split(500, 4).plan(64);
        assert!(plan.segments().len() >= 8, "expected interleave: {:?}", plan.segments());
        assert_eq!(plan.elems_on(PathKind::Cpu), 32);
        assert_eq!(plan.elems_on(PathKind::Nvme), 32);
    }

    #[test]
    fn plan_cell_publishes_whole_policies_with_versions() {
        let cell = PlanCell::new(PlacementPolicy::all_nvme());
        let (v0, p0) = cell.read();
        assert_eq!((v0, p0), (1, PlacementPolicy::all_nvme()));
        assert!(cell.read_if_newer(v0).is_none());
        let v1 = cell.publish(PlacementPolicy::split(250, 64));
        assert!(v1 > v0);
        let (v, p) = cell.read_if_newer(v0).expect("publish visible");
        assert_eq!((v, p), (v1, PlacementPolicy::split(250, 64)));
        // Lagging readers land on the newest policy.
        cell.publish(PlacementPolicy::all_cpu());
        let (_, p) = cell.read_if_newer(v0).unwrap();
        assert_eq!(p, PlacementPolicy::all_cpu());
    }

    #[test]
    fn plan_cell_wait_past_wakes_on_publish() {
        let cell = zi_sync::Arc::new(PlanCell::new(PlacementPolicy::all_nvme()));
        let waiter = {
            let cell = zi_sync::Arc::clone(&cell);
            zi_sync::thread::spawn(move || cell.wait_past(1))
        };
        cell.publish(PlacementPolicy::split(500, 8));
        let (v, p) = waiter.join().expect("waiter");
        assert!(v > 1);
        assert_eq!(p, PlacementPolicy::split(500, 8));
    }
}
