//! A rank's staging set: a fixed number of recycled, f32-aligned buffers
//! for every device transfer of the offload path, sized once and charged
//! to the CPU pool (the pinned-memory layer of paper Sec. 6.3: "reusing a
//! small amount" of host memory "for offloading the entire model states").
//!
//! The set is a few *shelves*, each a count of buffers of one size: a
//! caller names the shelf it stages through, so each use — optimizer
//! records, publish pieces, parameter shards — is bounded on its own. One
//! [`ScratchVec`] carries a record the whole round trip of the pipelined
//! optimizer step: the NVMe worker reads the device *into* it, the CRC is
//! checked over it, Adam updates it in place through its f32 view, and
//! ownership moves to the write request, which hands it back here when the
//! write is reaped.
//!
//! Nothing is allocated after [`ScratchPool::new`]: an acquisition takes
//! an idle buffer of its shelf, and when the shelf has none it waits for
//! one to come home, counting the wait ([`ScratchStats::waits`], the
//! tracer's `PinnedWaits`). Callers size the set so that no wait happens
//! (DESIGN.md §7 proves it per acquisition site); a request no buffer of
//! the shelf can hold is a typed error, never a wait.
//!
//! Buffers are `Vec<f32>`-backed, so the byte view handed to the device
//! is always 4-byte aligned and the f32 view needs no fallback path.

use zi_sync::Arc;

use zi_sync::{Condvar, Mutex};
use zi_trace::{Counter, Tracer};
use zi_types::{Device, Error, Result};

use crate::MemoryHierarchy;

#[cfg(target_endian = "big")]
compile_error!("staging buffers alias f32 state with the device's little-endian bytes");

/// Counters of a [`ScratchPool`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchStats {
    /// Acquisitions, each served by a buffer of the set.
    pub reused: u64,
    /// Buffers the set was built with: nothing is allocated later.
    pub allocated: u64,
    /// High-water mark of simultaneously checked-out buffers.
    pub peak_outstanding: u64,
    /// Acquisitions that found their shelf empty and waited.
    pub waits: u64,
}

/// One size of buffer in the set.
struct Shelf {
    words: usize,
    count: usize,
    free: Vec<Vec<f32>>,
}

#[derive(Default)]
struct State {
    shelves: Vec<Shelf>,
    outstanding: u64,
    stats: ScratchStats,
}

#[derive(Default)]
struct Shared {
    state: Mutex<State>,
    returned: Condvar,
    /// The CPU pool the set is charged to, and the bytes: handed back when
    /// the last handle and the last buffer are gone.
    charge: Option<(Arc<MemoryHierarchy>, u64)>,
    tracer: Tracer,
}

impl Drop for Shared {
    fn drop(&mut self) {
        if let Some((hierarchy, bytes)) = &self.charge {
            hierarchy.unreserve(Device::cpu(), *bytes);
        }
    }
}

/// The bytes `words` f32 of capacity take.
fn capacity_bytes(words: usize) -> u64 {
    (words * std::mem::size_of::<f32>()) as u64
}

/// A fixed set of staging buffers. The default set is empty: every
/// acquisition from it is an error.
#[derive(Clone, Default)]
pub struct ScratchPool {
    shared: Arc<Shared>,
}

/// A staging buffer checked out of a [`ScratchPool`]; returned to its
/// shelf on drop, wherever that happens — on the caller, on an NVMe
/// worker, or inside a failed request's completion.
pub struct ScratchVec {
    data: Vec<f32>,
    bytes: usize,
    /// The pool and shelf the buffer goes home to.
    home: (Arc<Shared>, usize),
}

impl ScratchPool {
    /// The set: shelf `k` holds `shelves[k].0` buffers of `shelves[k].1`
    /// bytes (rounded up to whole f32 words). Their bytes are charged to
    /// `hierarchy`'s CPU pool, like any tenant's, until the pool and every
    /// buffer of it are dropped: [`Error::OutOfMemory`] for the
    /// `"staging set"` when the pool has no room for them.
    pub fn new(
        shelves: &[(usize, usize)],
        hierarchy: &Arc<MemoryHierarchy>,
        tracer: Tracer,
    ) -> Result<ScratchPool> {
        Self::with_reserve(shelves, hierarchy, tracer, |held| hierarchy.reserve(Device::cpu(), held))
    }

    /// [`Self::new`], the set's bytes charged by `reserve` — a caller that
    /// makes room under locks of its own takes them only for the charge:
    /// the buffers are allocated once it has returned.
    pub fn with_reserve(
        shelves: &[(usize, usize)],
        hierarchy: &Arc<MemoryHierarchy>,
        tracer: Tracer,
        reserve: impl FnOnce(u64) -> Result<()>,
    ) -> Result<ScratchPool> {
        let words = |bytes: usize| bytes.div_ceil(4);
        let held = shelves.iter().map(|&(count, bytes)| count as u64 * capacity_bytes(words(bytes)));
        let held = held.sum::<u64>();
        reserve(held).map_err(|e| match e {
            Error::OutOfMemory { device, requested, largest_free, total_free, .. } => {
                Error::OutOfMemory { device, requested, largest_free, total_free, tenant: "staging set" }
            }
            e => e,
        })?;
        let shelves: Vec<Shelf> = shelves
            .iter()
            .map(|&(count, bytes)| Shelf {
                words: words(bytes),
                count,
                free: (0..count).map(|_| vec![0.0; words(bytes)]).collect(),
            })
            .collect();
        let allocated = shelves.iter().map(|shelf| shelf.free.len() as u64).sum();
        let stats = ScratchStats { allocated, ..ScratchStats::default() };
        let state = Mutex::new(State { shelves, outstanding: 0, stats });
        let charge = Some((Arc::clone(hierarchy), held));
        Ok(ScratchPool { shared: Arc::new(Shared { state, returned: Condvar::new(), charge, tracer }) })
    }

    /// Check out a buffer of `shelf` whose byte view is exactly `bytes`
    /// long, waiting for one to come home when the shelf has none idle.
    /// Contents are unspecified (a buffer keeps its previous bytes):
    /// callers fill it — from the device or an encoder — before reading
    /// it. A request longer than the shelf's buffers, or of a shelf the
    /// set does not have or holds none of, is [`Error::Internal`]: no wait
    /// could serve it.
    pub fn acquire(&self, shelf: usize, bytes: usize) -> Result<ScratchVec> {
        let mut st = self.shared.state.lock();
        let fits = st.shelves.get(shelf).filter(|s| s.count > 0 && s.words >= bytes.div_ceil(4));
        let Some(&Shelf { words, .. }) = fits else {
            return Err(Error::Internal(format!(
                "no staging buffer of shelf {shelf} holds {bytes} B ({} in the set)",
                st.stats.allocated
            )));
        };
        if st.shelves[shelf].free.is_empty() {
            st.stats.waits += 1;
            self.shared.tracer.count(Counter::PinnedWaits, 1);
        }
        let data = loop {
            if let Some(data) = st.shelves[shelf].free.pop() {
                break data;
            }
            self.shared.returned.wait(&mut st);
        };
        debug_assert_eq!(data.len(), words);
        st.stats.reused += 1;
        st.outstanding += 1;
        st.stats.peak_outstanding = st.stats.peak_outstanding.max(st.outstanding);
        Ok(ScratchVec { data, bytes, home: (Arc::clone(&self.shared), shelf) })
    }

    /// Counters.
    pub fn stats(&self) -> ScratchStats {
        self.shared.state.lock().stats
    }

    /// Buffers of `shelf` currently idle (0 for a shelf the set lacks).
    pub fn idle(&self, shelf: usize) -> usize {
        self.shared.state.lock().shelves.get(shelf).map_or(0, |s| s.free.len())
    }

    /// Bytes each buffer of `shelf` holds (0 for a shelf the set lacks).
    pub fn buffer_bytes(&self, shelf: usize) -> usize {
        self.shared.state.lock().shelves.get(shelf).map_or(0, |s| 4 * s.words)
    }

    /// Buffers currently checked out.
    pub fn outstanding(&self) -> u64 {
        self.shared.state.lock().outstanding
    }

    /// Bytes the set holds, idle or checked out: what it charges the CPU
    /// pool.
    pub fn held_bytes(&self) -> u64 {
        self.shared.charge.as_ref().map_or(0, |&(_, bytes)| bytes)
    }
}

impl ScratchVec {
    /// The buffer as bytes — what the device reads and writes.
    pub fn as_bytes(&self) -> &[u8] {
        // SAFETY: the backing `Vec<f32>` holds at least `bytes.div_ceil(4)`
        // initialized words (its shelf's buffers are that long), u8 has
        // alignment 1, and every f32 bit pattern is valid as four bytes.
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
        let (shared, shelf) = &self.home;
        let mut st = shared.state.lock();
        st.outstanding -= 1;
        st.shelves[*shelf].free.push(std::mem::take(&mut self.data));
        shared.returned.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeMemorySpec;

    fn cpu_pool(bytes: u64) -> Arc<MemoryHierarchy> {
        Arc::new(MemoryHierarchy::new(&NodeMemorySpec::test_spec(1, 0, bytes, 0)))
    }

    fn in_use(hierarchy: &MemoryHierarchy) -> u64 {
        hierarchy.stats(Device::cpu()).in_use
    }

    #[test]
    fn the_set_is_recycled_and_charged_until_its_last_buffer_goes() {
        let cpu = cpu_pool(1 << 10);
        let pool = ScratchPool::new(&[(2, 256), (1, 6)], &cpu, Tracer::new()).unwrap();
        assert_eq!((pool.held_bytes(), in_use(&cpu)), (520, 520), "six bytes take two words");
        let ptr = {
            let mut a = pool.acquire(0, 256).unwrap();
            a.as_f32_mut().fill(1.0);
            a.as_bytes().as_ptr() as usize
        };
        assert_eq!(pool.idle(0), 2);
        let b = pool.acquire(0, 100).unwrap();
        assert_eq!(b.as_bytes().as_ptr() as usize, ptr, "same backing allocation");
        assert_eq!(b.as_bytes().len(), 100, "the view is the request, the buffer its shelf's");
        let st = pool.stats();
        assert_eq!((st.allocated, st.reused, st.peak_outstanding, st.waits), (3, 2, 1, 0));
        drop(pool);
        assert_eq!(in_use(&cpu), 520, "a buffer still out keeps the set charged");
        drop(b);
        assert_eq!(in_use(&cpu), 0);
    }

    #[test]
    fn a_set_the_cpu_pool_cannot_hold_is_out_of_memory() {
        let cpu = cpu_pool(1 << 10);
        let refused = ScratchPool::new(&[(5, 256)], &cpu, Tracer::new());
        assert!(matches!(refused, Err(Error::OutOfMemory { requested: 1280, tenant: "staging set", .. })));
        assert_eq!(in_use(&cpu), 0);
    }

    #[test]
    fn a_request_no_buffer_of_its_shelf_holds_is_an_error_not_a_wait() {
        let cpu = cpu_pool(1 << 10);
        let pool = ScratchPool::new(&[(1, 64)], &cpu, Tracer::new()).unwrap();
        assert!(pool.acquire(0, 65).is_err(), "longer than the shelf's buffers");
        assert!(pool.acquire(1, 4).is_err(), "a shelf the set lacks");
        let none = ScratchPool::new(&[(0, 64)], &cpu, Tracer::new()).unwrap();
        assert!(none.acquire(0, 4).is_err(), "a shelf of no buffers");
        assert!(ScratchPool::default().acquire(0, 0).is_err(), "the empty set");
        assert_eq!((pool.outstanding(), pool.stats().waits), (0, 0));
    }

    #[test]
    fn an_empty_shelf_waits_for_a_buffer_to_come_home_and_counts_the_wait() {
        use std::time::Duration;
        let (cpu, tracer) = (cpu_pool(1 << 10), Tracer::new());
        let pool = ScratchPool::new(&[(1, 16), (1, 16)], &cpu, tracer.clone()).unwrap();
        let held = pool.acquire(0, 16).unwrap();
        let other = pool.acquire(1, 16).unwrap();
        let waiter = {
            let pool = pool.clone();
            zi_sync::thread::spawn(move || pool.acquire(0, 16).map(drop))
        };
        zi_sync::thread::sleep(Duration::from_millis(30));
        drop(held);
        waiter.join().expect("waiter").unwrap();
        drop(other);
        assert_eq!((pool.stats().waits, tracer.snapshot().pinned_waits), (1, 1));
        assert_eq!((pool.outstanding(), pool.idle(0), pool.idle(1)), (0, 1, 1));
    }

    #[test]
    fn byte_and_f32_views_alias_and_odd_lengths_round_up() {
        let cpu = cpu_pool(1 << 10);
        let pool = ScratchPool::new(&[(1, 8)], &cpu, Tracer::new()).unwrap();
        let mut a = pool.acquire(0, 8).unwrap();
        a.as_f32_mut().copy_from_slice(&[1.5, -2.0]);
        assert_eq!(&a.as_bytes()[..4], &1.5f32.to_le_bytes());
        assert_eq!(a.as_bytes().as_ptr() as usize % 4, 0, "byte view is f32-aligned");
        drop(a);
        // Six bytes (three f16 values): two backing words, one whole f32.
        let mut h = pool.acquire(0, 6).unwrap();
        assert_eq!((h.as_bytes().len(), h.as_f32().len()), (6, 1));
        h.as_bytes_mut().copy_from_slice(&[1, 2, 3, 4, 5, 6]);
        assert_eq!(h.as_bytes(), &[1, 2, 3, 4, 5, 6]);
    }
}
