//! Recycled, f32-aligned staging buffers for chunk-streaming hot paths.
//!
//! The pipelined optimizer step moves one record per chunk (master,
//! momentum and variance, interleaved) between the device and the Adam
//! kernel, and the published parameter out. One [`ScratchVec`] carries
//! a record the whole round trip: the NVMe worker reads the device
//! *into* it, the CRC is checked over it, Adam updates it in place
//! through its f32 view, and ownership moves to the write request, which
//! hands it back here when the write is reaped. This is the f32-typed
//! sibling of [`crate::PinnedBufferPool`]'s "reuse a small amount for
//! the entire model states" discipline (paper Sec. 6.3).
//!
//! Unlike the pinned pool, acquisition never blocks: a miss allocates a
//! fresh buffer that joins the pool when dropped, so the pool converges
//! to the working set of the pipeline (read depth + the write-behind
//! window) and then never allocates again. Reuse is observable via
//! [`ScratchPool::stats`].
//!
//! Buffers are `Vec<f32>`-backed, so the byte view handed to the device
//! is always 4-byte aligned and the f32 view needs no fallback path.

use zi_sync::Arc;

use zi_sync::Mutex;

#[cfg(target_endian = "big")]
compile_error!("staging buffers alias f32 state with the device's little-endian bytes");

/// Reuse counters for a [`ScratchPool`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchStats {
    /// Acquisitions served by a returned buffer that was large enough.
    pub reused: u64,
    /// Acquisitions that had to allocate (a fresh buffer, or growing a
    /// returned one that was too small).
    pub allocated: u64,
    /// High-water mark of simultaneously checked-out buffers.
    pub peak_outstanding: u64,
}

#[derive(Default)]
struct State {
    free: Vec<Vec<f32>>,
    outstanding: u64,
    /// Capacity bytes of every buffer the pool owns, idle or checked out.
    held: u64,
    stats: ScratchStats,
}

/// The bytes `words` f32 of capacity take.
fn capacity_bytes(words: usize) -> u64 {
    (words * std::mem::size_of::<f32>()) as u64
}

/// Pool of reusable staging buffers.
#[derive(Clone, Default)]
pub struct ScratchPool {
    shared: Arc<Mutex<State>>,
}

/// A staging buffer checked out of a [`ScratchPool`]; returned (with its
/// capacity) to the pool on drop, wherever that happens — on the caller,
/// on an NVMe worker, or inside a failed request's completion.
pub struct ScratchVec {
    data: Vec<f32>,
    bytes: usize,
    /// `None` once [`ScratchVec::detach`]ed: the buffer is freed on drop.
    pool: Option<Arc<Mutex<State>>>,
}

impl ScratchPool {
    /// New, empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Check out a staging buffer whose byte view is exactly `bytes`
    /// long, recycling a returned one when possible. Contents are
    /// unspecified (a recycled buffer keeps its previous bytes): callers
    /// fill it — from the device or an encoder — before reading it.
    pub fn acquire(&self, bytes: usize) -> ScratchVec {
        let words = bytes.div_ceil(4);
        let mut st = self.shared.lock();
        // Prefer the smallest returned buffer that already fits, so a
        // small request never takes the buffer a large one is about to
        // need and the pool settles on the sizes actually in use;
        // otherwise grow the largest returned one before allocating from
        // nothing.
        let capacity = |i: &usize| st.free[*i].capacity();
        let pick = (0..st.free.len()).filter(|i| capacity(i) >= words).min_by_key(capacity);
        let index = pick.or_else(|| (0..st.free.len()).max_by_key(capacity));
        let recycled = index.map(|i| st.free.swap_remove(i));
        if pick.is_some() {
            st.stats.reused += 1;
        } else {
            st.stats.allocated += 1;
        }
        st.outstanding += 1;
        st.stats.peak_outstanding = st.stats.peak_outstanding.max(st.outstanding);
        drop(st);
        let mut data = recycled.unwrap_or_default();
        if data.len() < words {
            let before = data.capacity();
            data.resize(words, 0.0);
            self.shared.lock().held += capacity_bytes(data.capacity() - before);
        }
        ScratchVec { data, bytes, pool: Some(Arc::clone(&self.shared)) }
    }

    /// Top the pool up to `count` idle buffers of at least `bytes` each:
    /// the fixed, up-front staging set of Sec. 6.3 for a caller that
    /// knows its bound (read depth + the write-behind window).
    /// With the set in place no acquisition within that bound allocates,
    /// whatever order the device completes requests in; without it the
    /// pool only approaches its working set, one timing-dependent miss at
    /// a time. A no-op once the buffers exist.
    pub fn reserve(&self, count: usize, bytes: usize) {
        let words = bytes.div_ceil(4);
        let idle = self.shared.lock().free.iter().filter(|v| v.capacity() >= words).count();
        let fresh: Vec<Vec<f32>> = (idle..count).map(|_| vec![0.0; words]).collect();
        let mut st = self.shared.lock();
        st.stats.allocated += fresh.len() as u64;
        st.held += fresh.iter().map(|v| capacity_bytes(v.capacity())).sum::<u64>();
        st.free.extend(fresh);
    }

    /// Reuse counters.
    pub fn stats(&self) -> ScratchStats {
        self.shared.lock().stats
    }

    /// Buffers currently parked in the pool.
    pub fn idle(&self) -> usize {
        self.shared.lock().free.len()
    }

    /// Buffers currently checked out.
    pub fn outstanding(&self) -> u64 {
        self.shared.lock().outstanding
    }

    /// Bytes the pool holds: the capacity of every buffer it owns, idle
    /// or checked out.
    pub fn held_bytes(&self) -> u64 {
        self.shared.lock().held
    }
}

impl ScratchVec {
    /// Leave the pool for good, keeping the contents: the buffer no
    /// longer counts as checked out, is cut down to the bytes it holds,
    /// and is freed — not parked — when dropped. For a consumer that
    /// keeps what a read delivered (the shard cache) without a copy, and
    /// without pinning a pool-sized buffer behind a small shard.
    pub fn detach(mut self) -> ScratchVec {
        if let Some(pool) = self.pool.take() {
            let mut st = pool.lock();
            st.outstanding -= 1;
            st.held -= capacity_bytes(self.data.capacity());
            drop(st);
            self.data.truncate(self.bytes.div_ceil(4));
            self.data.shrink_to_fit();
        }
        self
    }

    /// The buffer as bytes — what the device reads and writes.
    pub fn as_bytes(&self) -> &[u8] {
        // SAFETY: the backing `Vec<f32>` holds at least `bytes.div_ceil(4)`
        // initialized words (`acquire` sized it), u8 has alignment 1, and
        // every f32 bit pattern is valid as four bytes.
        unsafe { std::slice::from_raw_parts(self.data.as_ptr().cast::<u8>(), self.bytes) }
    }

    /// Mutable byte view.
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        // SAFETY: as in `as_bytes`, plus every byte pattern is a valid
        // f32, so writes through this view cannot invalidate the backing.
        unsafe { std::slice::from_raw_parts_mut(self.data.as_mut_ptr().cast::<u8>(), self.bytes) }
    }

    /// The whole f32 words of the buffer (`bytes / 4` of them).
    pub fn as_f32(&self) -> &[f32] {
        &self.data[..self.bytes / 4]
    }

    /// Mutable f32 view — the Adam kernel updates a chunk in place here.
    pub fn as_f32_mut(&mut self) -> &mut [f32] {
        &mut self.data[..self.bytes / 4]
    }
}

impl Drop for ScratchVec {
    fn drop(&mut self) {
        let Some(pool) = &self.pool else { return };
        let mut st = pool.lock();
        st.outstanding -= 1;
        st.free.push(std::mem::take(&mut self.data));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_is_recycled_across_acquisitions() {
        let pool = ScratchPool::new();
        let ptr = {
            let mut a = pool.acquire(256);
            a.as_f32_mut().fill(1.0);
            a.as_bytes().as_ptr() as usize
        };
        assert_eq!(pool.idle(), 1);
        let b = pool.acquire(256);
        assert_eq!(b.as_bytes().as_ptr() as usize, ptr, "same backing allocation");
        let st = pool.stats();
        assert_eq!((st.allocated, st.reused), (1, 1));
    }

    #[test]
    fn concurrent_misses_allocate_then_converge() {
        let pool = ScratchPool::new();
        {
            let _a = pool.acquire(32);
            let _b = pool.acquire(32);
            assert_eq!(pool.stats().allocated, 2);
            assert_eq!(pool.outstanding(), 2);
        }
        // Working set of 2 established; further pairs only reuse.
        for _ in 0..5 {
            let _a = pool.acquire(32);
            let _b = pool.acquire(32);
        }
        let st = pool.stats();
        assert_eq!((st.allocated, st.reused, st.peak_outstanding), (2, 10, 2));
        assert_eq!((pool.outstanding(), pool.idle()), (0, 2));
    }

    #[test]
    fn a_reserved_set_serves_its_bound_without_allocating() {
        let pool = ScratchPool::new();
        drop(pool.acquire(16)); // a small buffer that must not be grown
        pool.reserve(3, 64);
        assert_eq!((pool.idle(), pool.stats().allocated), (4, 4));
        pool.reserve(3, 64); // already in place
        assert_eq!(pool.stats().allocated, 4);
        let held: Vec<_> = (0..3).map(|_| pool.acquire(64)).collect();
        let small = pool.acquire(16);
        assert_eq!(pool.stats().allocated, 4, "the whole bound came from the reserved set");
        drop((held, small));
        assert_eq!((pool.outstanding(), pool.idle()), (0, 4));
    }

    #[test]
    fn held_bytes_count_idle_and_checked_out_buffers_until_one_leaves() {
        let pool = ScratchPool::new();
        pool.reserve(2, 64);
        let a = pool.acquire(64);
        assert_eq!((pool.held_bytes(), pool.outstanding(), pool.idle()), (128, 1, 1));
        drop(a.detach());
        assert_eq!(pool.held_bytes(), 64, "a detached buffer left the pool");
        let (_b, _c) = (pool.acquire(32), pool.acquire(32));
        assert_eq!(pool.held_bytes(), 64 + 32, "a miss adds what it allocates");
    }

    #[test]
    fn a_detached_buffer_keeps_its_bytes_and_never_comes_back() {
        let pool = ScratchPool::new();
        drop(pool.acquire(4096)); // the buffer the small request below reuses
        let mut a = pool.acquire(6);
        a.as_bytes_mut().copy_from_slice(&[1, 2, 3, 4, 5, 6]);
        let kept = a.detach();
        assert_eq!(kept.as_bytes(), &[1, 2, 3, 4, 5, 6]);
        assert_eq!(kept.data.capacity(), 2, "cut down to the words it holds");
        assert_eq!((pool.outstanding(), pool.idle()), (0, 0));
        drop(kept.detach()); // idempotent, and freed rather than parked
        assert_eq!((pool.outstanding(), pool.idle()), (0, 0));
    }

    #[test]
    fn byte_and_f32_views_alias_and_odd_lengths_round_up() {
        let pool = ScratchPool::new();
        let mut a = pool.acquire(8);
        a.as_f32_mut().copy_from_slice(&[1.5, -2.0]);
        assert_eq!(&a.as_bytes()[..4], &1.5f32.to_le_bytes());
        assert_eq!(a.as_bytes().as_ptr() as usize % 4, 0, "byte view is f32-aligned");
        drop(a);
        // Six bytes (three f16 values): two backing words, one whole f32.
        let mut h = pool.acquire(6);
        assert_eq!((h.as_bytes().len(), h.as_f32().len()), (6, 1));
        h.as_bytes_mut().copy_from_slice(&[1, 2, 3, 4, 5, 6]);
        assert_eq!(h.as_bytes(), &[1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn a_too_small_buffer_grows_once_and_fitting_ones_are_preferred() {
        let pool = ScratchPool::new();
        drop(pool.acquire(16));
        drop(pool.acquire(64)); // grows the only buffer: counted as an allocation
        assert_eq!(pool.stats().allocated, 2);
        let big = pool.acquire(64);
        let small = pool.acquire(16); // fresh: the only buffer is out
        drop(big);
        drop(small);
        // Both parked; a large request must pick the large buffer, not
        // grow the small one that was returned last.
        let before = pool.stats();
        let _again = pool.acquire(64);
        let after = pool.stats();
        assert_eq!((after.allocated, after.reused), (before.allocated, before.reused + 1));
    }
}
