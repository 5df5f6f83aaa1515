//! Dynamic prefetcher (paper Sec. 6.2).
//!
//! Two cooperating pieces:
//!
//! * [`TraceMap`] — an operator-sequence map built on the fly: it records
//!   the order parameters are consumed each iteration and predicts which
//!   parameters follow the current position, re-synchronizing when the
//!   workflow changes between iterations (the paper's "dynamic workflow"
//!   support).
//! * [`Prefetcher`] — tracks in-flight asynchronous shard loads
//!   (`nc-transfer`: NVMe→CPU) started either from runner hints or from
//!   trace predictions, so the demand fetch finds the slow hop already
//!   done and only pays the gather.

use std::collections::HashMap;

use zi_model::ParamId;
use zi_trace::Counter;
use zi_types::Result;

use crate::offload::{LoadedBytes, OffloadManager, PlacedBuf, PlacedPending};

/// Operator-sequence map with on-the-fly re-synchronization.
#[derive(Debug, Default)]
pub(crate) struct TraceMap {
    prev: Vec<ParamId>,
    cur: Vec<ParamId>,
    cursor: usize,
}

impl TraceMap {
    /// New, empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a parameter access in the current iteration and advance the
    /// predictor position within the previous iteration's trace.
    pub fn record(&mut self, id: ParamId) {
        self.cur.push(id);
        if self.cursor < self.prev.len() && self.prev[self.cursor] == id {
            self.cursor += 1;
            return;
        }
        // Workflow diverged: re-synchronize on the access we just saw.
        // Prefer the nearest occurrence at or ahead of the cursor (the
        // common skip-forward divergence, and what keeps repeated
        // ParamIds within one iteration advancing instead of snapping
        // back to their first occurrence) ...
        let from = self.cursor.min(self.prev.len());
        if let Some(pos) = self.prev[from..].iter().position(|&p| p == id) {
            self.cursor = from + pos + 1;
        } else if let Some(pos) = self.prev[..from].iter().position(|&p| p == id) {
            // ... and wrap to the start when the access lies behind the
            // cursor (a restarted or re-ordered sequence). Leaving the
            // cursor where it was made `predict_next` keep serving a
            // window the runner had already passed.
            self.cursor = pos + 1;
        }
        // An id absent from `prev` entirely (a brand-new parameter)
        // leaves the cursor in place: the rest of the old window is
        // still the best guess.
    }

    /// Predict up to `k` parameter accesses following the current position.
    pub fn predict_next(&self, k: usize) -> Vec<ParamId> {
        let end = (self.cursor + k).min(self.prev.len());
        self.prev[self.cursor..end].to_vec()
    }

    /// Finish the iteration: the recorded sequence becomes the prediction
    /// source for the next one.
    pub(crate) fn end_iteration(&mut self) {
        self.prev = std::mem::take(&mut self.cur);
        self.cursor = 0;
    }

    /// True once at least one full iteration has been traced.
    pub(crate) fn has_history(&self) -> bool {
        !self.prev.is_empty()
    }
}

/// Prefetch effectiveness counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Asynchronous loads started ahead of demand.
    pub issued: u64,
    /// Demand fetches that found their shard load already in flight or
    /// complete.
    pub hits: u64,
    /// Demand fetches that had to start the load synchronously.
    pub misses: u64,
    /// Hits whose load had not completed yet when demanded — the
    /// prefetch was issued too late to fully hide the nc-transfer
    /// (`late <= hits`).
    pub late: u64,
    /// Hints for a parameter whose load was already in flight, folded
    /// onto the pending read instead of issuing a second one.
    pub coalesced: u64,
}

/// Upper bound on simultaneously in-flight prefetch loads. Bounds both
/// NVMe queue depth and the memory held by completed-but-unconsumed
/// reads.
const MAX_PENDING: usize = 16;

/// In-flight asynchronous shard loads, keyed by parameter. One engine
/// owns the prefetcher and clears it every iteration, and a parameter's
/// shard is placed once, when that engine lays the model out: a pending
/// load always reads the buffer its demand fetch resolves.
#[derive(Default)]
pub(crate) struct Prefetcher {
    pending: HashMap<ParamId, Vec<PlacedPending>>,
    stats: PrefetchStats,
}

impl Prefetcher {
    /// New, idle prefetcher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Begin an asynchronous load for `id`'s shard unless one is already
    /// in flight. Only asynchronous sources (NVMe) are tracked; loads that
    /// resolve immediately — RAM-resident shards, and NVMe shards the
    /// shard cache holds — are left for the demand path.
    pub fn prefetch(&mut self, mgr: &OffloadManager, id: ParamId, shard: &PlacedBuf) {
        if mgr.cached(shard, false).is_some() {
            return;
        }
        if self.pending.contains_key(&id) {
            // Coalesce onto the in-flight nc-transfer: a second device
            // read for the same shard would waste bandwidth and staging,
            // and would double-count the eventual hit.
            self.stats.coalesced += 1;
            mgr.tracer().count(Counter::PrefetchCoalesced, 1);
            return;
        }
        // RAM-resident shards resolve instantly (and copy-free) on the
        // demand path: there is nothing to start.
        if self.pending.len() >= MAX_PENDING || !shard.is_offloaded() {
            return;
        }
        // A failure (a write-back the device refused) is the demand
        // fetch's to surface.
        let Ok(pieces) = mgr.begin_load(shard) else { return };
        self.pending.insert(id, pieces);
        self.stats.issued += 1;
        mgr.tracer().count(Counter::PrefetchIssued, 1);
    }

    /// Resolve `id`'s shard to its bytes: consume the in-flight load if
    /// present (prefetch hit), else fetch it through the manager — the
    /// shard cache's copy (neither a hit nor a miss: hits and misses count
    /// device-served fetches), or a load now (miss). A RAM-resident shard
    /// is borrowed, never cloned, and starts no load: no miss either.
    ///
    /// A failed in-flight load never hands out a poisoned buffer: the
    /// typed error is surfaced, and if it is transient (e.g. a checksum
    /// mismatch the re-read loop could not clear in time) one synchronous
    /// demand load is attempted before giving up.
    pub fn fetch<'a>(
        &mut self,
        mgr: &OffloadManager,
        id: ParamId,
        shard: &'a PlacedBuf,
    ) -> Result<LoadedBytes<'a>> {
        let Some(pieces) = self.pending.remove(&id) else {
            if shard.is_offloaded() && mgr.cached(shard, false).is_none() {
                self.stats.misses += 1;
                mgr.tracer().count(Counter::PrefetchMisses, 1);
            }
            return mgr.fetch_placed(shard);
        };
        self.stats.hits += 1;
        mgr.tracer().count(Counter::PrefetchHits, 1);
        if !pieces.iter().all(|piece| piece.ready(mgr)) {
            // Still in flight: issued too late to fully hide the
            // transfer, so the wait below is exposed to compute.
            self.stats.late += 1;
            mgr.tracer().count(Counter::PrefetchLate, 1);
        }
        match mgr.finish_load(shard, pieces, true) {
            Err(e) if e.is_transient() => mgr.fetch_placed(shard),
            loaded => loaded,
        }
    }

    /// True if a load for `id` is in flight.
    pub(crate) fn is_pending(&self, id: ParamId) -> bool {
        self.pending.contains_key(&id)
    }

    /// Effectiveness counters.
    pub fn stats(&self) -> PrefetchStats {
        self.stats
    }

    /// Drop all in-flight loads (end of iteration housekeeping). Each
    /// read is reaped — its staging buffer goes back to the scratch pool
    /// rather than leaking mid-flight — and both its data and any error
    /// are discarded: the data was never handed out, and the demand path
    /// will retry (or surface the error) when the shard is actually
    /// needed.
    pub fn clear(&mut self, mgr: &OffloadManager) {
        for piece in self.pending.drain().flat_map(|(_, pieces)| pieces) {
            piece.discard(mgr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offload::{NodeEnv, NodeResources};
    use zi_memory::{NodeMemorySpec, PlacementPolicy};
    use zi_tensor::FlatBuffer;
    use zi_types::{DType, Device};

    /// `vals` stored whole on `device`: the one-segment plan.
    fn shard_on(mgr: &OffloadManager, device: Device, vals: &[f32]) -> PlacedBuf {
        let data = FlatBuffer::from_f32(DType::F32, vals);
        mgr.store_placed(device, &PlacementPolicy::all_nvme(), data).unwrap()
    }

    fn f32s(loaded: &LoadedBytes<'_>) -> Vec<f32> {
        FlatBuffer::from_bytes(DType::F32, loaded.as_bytes().to_vec()).unwrap().to_f32_vec()
    }

    fn ids(v: &[usize]) -> Vec<ParamId> {
        v.iter().map(|&i| ParamId(i)).collect()
    }

    #[test]
    fn trace_predicts_repeating_sequence() {
        let mut t = TraceMap::new();
        for &i in &[0usize, 1, 2, 3] {
            t.record(ParamId(i));
        }
        t.end_iteration();
        assert!(t.has_history());
        // Start of next iteration: everything is still ahead.
        assert_eq!(t.predict_next(2), ids(&[0, 1]));
        t.record(ParamId(0));
        assert_eq!(t.predict_next(2), ids(&[1, 2]));
        t.record(ParamId(1));
        t.record(ParamId(2));
        assert_eq!(t.predict_next(5), ids(&[3]));
    }

    #[test]
    fn trace_resynchronizes_on_divergence() {
        let mut t = TraceMap::new();
        for &i in &[0usize, 1, 2, 3, 4] {
            t.record(ParamId(i));
        }
        t.end_iteration();
        // The new iteration skips 0 and 1 (dynamic control flow).
        t.record(ParamId(2));
        assert_eq!(t.predict_next(2), ids(&[3, 4]));
    }

    #[test]
    fn trace_cursor_resets_when_the_access_lies_behind() {
        let mut t = TraceMap::new();
        for &i in &[0usize, 1, 2, 3, 4] {
            t.record(ParamId(i));
        }
        t.end_iteration();
        // Jump ahead (skip 0..=2), cursor lands past 3 ...
        t.record(ParamId(3));
        assert_eq!(t.predict_next(1), ids(&[4]));
        // ... then the runner restarts from the top (e.g. a re-run
        // micro-batch). The old logic found no `0` ahead of the cursor
        // and left it stale, predicting the already-passed [4].
        t.record(ParamId(0));
        assert_eq!(t.predict_next(2), ids(&[1, 2]));
    }

    #[test]
    fn repeated_param_ids_advance_past_the_nearest_occurrence() {
        // A parameter consumed twice per iteration (e.g. tied
        // embeddings): prev = [0, 1, 0, 2].
        let mut t = TraceMap::new();
        for &i in &[0usize, 1, 0, 2] {
            t.record(ParamId(i));
        }
        t.end_iteration();
        // Start mid-sequence: re-sync onto the occurrence *ahead*, not
        // the duplicate behind the cursor.
        t.record(ParamId(1));
        t.record(ParamId(0));
        assert_eq!(t.predict_next(2), ids(&[2]));
        // Diverge to an id only found behind the cursor: wrap around
        // instead of sticking to a stale position.
        t.record(ParamId(1));
        assert_eq!(t.predict_next(2), ids(&[0, 2]));
    }

    #[test]
    fn empty_trace_predicts_nothing() {
        let t = TraceMap::new();
        assert!(!t.has_history());
        assert!(t.predict_next(4).is_empty());
    }

    #[test]
    fn prefetch_hit_and_miss_accounting() {
        let spec = NodeMemorySpec::test_spec(1, 1 << 20, 1 << 20, 1 << 20);
        let node = NodeResources::in_memory(&spec, 1);
        let mgr = node.offload_manager();
        let shard_a = shard_on(&mgr, Device::nvme(), &[1.0; 16]);
        let shard_b = shard_on(&mgr, Device::nvme(), &[2.0; 16]);
        let mut pf = Prefetcher::new();
        pf.prefetch(&mgr, ParamId(0), &shard_a);
        assert!(pf.is_pending(ParamId(0)));
        // Duplicate prefetch is a no-op.
        pf.prefetch(&mgr, ParamId(0), &shard_a);
        assert_eq!(pf.stats().issued, 1);

        let a = pf.fetch(&mgr, ParamId(0), &shard_a).unwrap();
        assert_eq!(f32s(&a), vec![1.0; 16]);
        let b = pf.fetch(&mgr, ParamId(1), &shard_b).unwrap();
        assert_eq!(f32s(&b), vec![2.0; 16]);
        let st = pf.stats();
        assert_eq!((st.issued, st.hits, st.misses), (1, 1, 1));
        mgr.free_placed(shard_a);
        mgr.free_placed(shard_b);
    }

    #[test]
    fn a_cached_shard_is_neither_prefetched_nor_counted() {
        let spec = NodeMemorySpec::test_spec(1, 1 << 20, 1 << 20, 1 << 20);
        let node = NodeResources::in_memory(&spec, 1);
        let mgr = node.offload_manager();
        let shard = shard_on(&mgr, Device::nvme(), &[5.0; 16]);
        let mut pf = Prefetcher::new();
        // The first demand fetch is a miss; its verified buffer becomes
        // the cache entry.
        assert_eq!(f32s(&pf.fetch(&mgr, ParamId(0), &shard).unwrap()), vec![5.0; 16]);
        let (stats, reads) = (pf.stats(), mgr.nvme().stats().reads);
        assert_eq!((stats.hits, stats.misses), (0, 1));
        // From here on the shard costs no device read, no pending entry
        // and no prefetch count: hits ÷ (hits + misses) keeps describing
        // device-served fetches only.
        for _ in 0..2 {
            pf.prefetch(&mgr, ParamId(0), &shard);
            assert!(!pf.is_pending(ParamId(0)));
            let data = pf.fetch(&mgr, ParamId(0), &shard).unwrap();
            assert!(matches!(data, LoadedBytes::Cached(_)));
            assert_eq!(f32s(&data), vec![5.0; 16]);
        }
        assert_eq!(pf.stats(), stats);
        assert_eq!(mgr.nvme().stats().reads, reads);
        assert_eq!(mgr.health().shard_cache_hits, 2);
        mgr.free_placed(shard);
    }

    #[test]
    fn second_hint_coalesces_onto_the_inflight_load() {
        use zi_sync::Arc;
        use std::time::Duration;
        let spec = NodeMemorySpec::test_spec(1, 1 << 20, 1 << 20, 1 << 20);
        let plan = zi_nvme::FaultPlan::new();
        let backend = Arc::new(zi_nvme::FaultyBackend::new(zi_nvme::MemBackend::new(), plan.clone()));
        let node = NodeResources::new(&spec, 1, NodeEnv::new(backend));
        let mgr = node.offload_manager();
        let shard = shard_on(&mgr, Device::nvme(), &[6.0; 32]);
        let reads_before = mgr.nvme().stats().reads;

        // Keep the first nc-transfer in flight while the second hint and
        // the demand fetch arrive.
        plan.delay_next_ops(1, Duration::from_millis(100));
        let mut pf = Prefetcher::new();
        pf.prefetch(&mgr, ParamId(0), &shard);
        pf.prefetch(&mgr, ParamId(0), &shard);
        let st = pf.stats();
        assert_eq!((st.issued, st.coalesced), (1, 1));

        let data = pf.fetch(&mgr, ParamId(0), &shard).unwrap();
        assert_eq!(f32s(&data), vec![6.0; 32]);
        let st = pf.stats();
        // Two hints, one fetch: exactly one hit (late, since the read
        // was still in flight) and exactly one device read.
        assert_eq!((st.hits, st.misses, st.late), (1, 0, 1));
        assert_eq!(mgr.nvme().stats().reads - reads_before, 1);
        mgr.free_placed(shard);
    }

    #[test]
    fn repeated_hints_for_ram_shards_do_not_reissue_loads() {
        let spec = NodeMemorySpec::test_spec(1, 1 << 20, 1 << 20, 1 << 20);
        let node = NodeResources::in_memory(&spec, 1);
        let mgr = node.offload_manager();
        let shard = shard_on(&mgr, Device::cpu(), &[4.0; 8]);
        let mut pf = Prefetcher::new();
        for _ in 0..3 {
            pf.prefetch(&mgr, ParamId(0), &shard);
        }
        let st = pf.stats();
        assert_eq!((st.issued, st.coalesced), (0, 0));
        mgr.free_placed(shard);
    }

    #[test]
    fn cpu_shards_are_not_tracked() {
        let spec = NodeMemorySpec::test_spec(1, 1 << 20, 1 << 20, 1 << 20);
        let node = NodeResources::in_memory(&spec, 1);
        let mgr = node.offload_manager();
        let shard = shard_on(&mgr, Device::cpu(), &[3.0; 4]);
        let mut pf = Prefetcher::new();
        pf.prefetch(&mgr, ParamId(0), &shard);
        assert!(!pf.is_pending(ParamId(0)));
        assert_eq!(pf.stats().issued, 0);
        // A resident shard starts no load on demand either: no miss.
        assert_eq!(f32s(&pf.fetch(&mgr, ParamId(0), &shard).unwrap()), vec![3.0; 4]);
        assert_eq!((pf.stats().hits, pf.stats().misses), (0, 0));
        mgr.free_placed(shard);
    }

    #[test]
    fn clear_drains_pending() {
        let spec = NodeMemorySpec::test_spec(1, 1 << 20, 1 << 20, 1 << 20);
        let node = NodeResources::in_memory(&spec, 1);
        let mgr = node.offload_manager();
        let shard = shard_on(&mgr, Device::nvme(), &[0.0; 8]);
        let mut pf = Prefetcher::new();
        pf.prefetch(&mgr, ParamId(0), &shard);
        pf.clear(&mgr);
        assert!(!pf.is_pending(ParamId(0)));
        mgr.free_placed(shard);
    }
}
