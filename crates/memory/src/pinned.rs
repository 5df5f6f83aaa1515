//! Pinned-buffer management layer of the infinity offload engine.
//!
//! Pinned (page-locked) host memory is the staging area for every
//! NVMe↔CPU↔GPU transfer. The paper's engine "manages the limited supply of
//! pinned memory by reusing a small amount (tens of GBs) for offloading the
//! entire model states (up to tens of TBs)" (Sec. 6.3). This module
//! reproduces that: a fixed set of equally sized buffers, handed out and
//! returned, never growing, with reuse statistics so benches can show the
//! fragmentation-avoidance claim.

use zi_sync::Arc;

use zi_sync::{Condvar, Mutex};
use zi_trace::{Counter, Tracer};

/// A transfer buffer checked out of a [`PinnedBufferPool`].
///
/// Returned to the pool automatically on drop.
pub struct PinnedBuffer {
    data: Option<Vec<u8>>,
    pool: Arc<Shared>,
}

impl PinnedBuffer {
    /// Buffer contents.
    pub fn as_slice(&self) -> &[u8] {
        self.data.as_ref().expect("buffer present until drop")
    }

    /// Mutable buffer contents.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        self.data.as_mut().expect("buffer present until drop")
    }

    /// Capacity of this buffer in bytes.
    pub fn capacity(&self) -> usize {
        self.as_slice().len()
    }
}

impl Drop for PinnedBuffer {
    fn drop(&mut self) {
        if let Some(buf) = self.data.take() {
            self.pool.release(buf);
        }
    }
}

struct Shared {
    state: Mutex<State>,
    available: Condvar,
    buffer_size: usize,
    tracer: Tracer,
}

#[derive(Debug)]
struct State {
    free: Vec<Vec<u8>>,
    total_acquires: u64,
    outstanding: usize,
}

impl Shared {
    fn release(&self, buf: Vec<u8>) {
        let mut st = self.state.lock();
        st.free.push(buf);
        st.outstanding -= 1;
        self.available.notify_one();
    }
}

/// Fixed pool of reusable transfer buffers.
#[derive(Clone)]
pub struct PinnedBufferPool {
    shared: Arc<Shared>,
}

impl PinnedBufferPool {
    /// Create `count` buffers of `buffer_size` bytes each.
    pub fn new(count: usize, buffer_size: usize) -> Self {
        Self::with_tracer(count, buffer_size, Tracer::new())
    }

    /// [`PinnedBufferPool::new`] recording acquire/contention counters into
    /// an externally owned tracer.
    pub fn with_tracer(count: usize, buffer_size: usize, tracer: Tracer) -> Self {
        assert!(count > 0, "pinned pool needs at least one buffer");
        let free = (0..count).map(|_| vec![0u8; buffer_size]).collect();
        PinnedBufferPool {
            shared: Arc::new(Shared {
                state: Mutex::new(State { free, total_acquires: 0, outstanding: 0 }),
                available: Condvar::new(),
                buffer_size,
                tracer,
            }),
        }
    }

    /// Block until a buffer is available and check it out.
    pub fn acquire(&self) -> PinnedBuffer {
        let mut st = self.shared.state.lock();
        if st.free.is_empty() {
            // Pinned memory is the scarce resource the engine recycles;
            // count the stalls so the trace report can show contention.
            self.shared.tracer.count(Counter::PinnedWaits, 1);
        }
        while st.free.is_empty() {
            self.shared.available.wait(&mut st);
        }
        let buf = st.free.pop().expect("non-empty after wait");
        st.total_acquires += 1;
        st.outstanding += 1;
        self.shared.tracer.count(Counter::PinnedAcquires, 1);
        PinnedBuffer { data: Some(buf), pool: Arc::clone(&self.shared) }
    }

    /// Size of each buffer in bytes.
    pub fn buffer_size(&self) -> usize {
        self.shared.buffer_size
    }

    /// Buffers currently checked out.
    pub fn outstanding(&self) -> usize {
        self.shared.state.lock().outstanding
    }

    /// Lifetime count of acquisitions; per buffer in the pool, it is
    /// the reuse factor the paper's design relies on.
    pub fn total_acquires(&self) -> u64 {
        self.shared.state.lock().total_acquires
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zi_sync::thread;
    use std::time::Duration;

    #[test]
    fn acquire_release_cycle() {
        let pool = PinnedBufferPool::new(2, 64);
        assert_eq!(pool.buffer_size(), 64);
        {
            let mut a = pool.acquire();
            let _b = pool.acquire();
            a.as_mut_slice()[0] = 7;
            assert_eq!(pool.outstanding(), 2);
        }
        assert_eq!(pool.outstanding(), 0);
        drop(pool.acquire());
        assert_eq!(pool.total_acquires(), 3);
    }

    #[test]
    fn acquire_blocks_until_release() {
        let pool = PinnedBufferPool::new(1, 16);
        let held = pool.acquire();
        let p2 = pool.clone();
        let handle = thread::spawn(move || {
            // This blocks until the main thread drops `held`.
            let _b = p2.acquire();
            p2.total_acquires()
        });
        thread::sleep(Duration::from_millis(30));
        drop(held);
        let acquires = handle.join().expect("waiter thread");
        assert_eq!(acquires, 2);
    }

    #[test]
    fn buffers_are_reused_not_reallocated() {
        let pool = PinnedBufferPool::new(1, 8);
        {
            let mut b = pool.acquire();
            b.as_mut_slice().copy_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        }
        // The same backing storage comes back (contents preserved is the
        // observable proxy for reuse).
        let b = pool.acquire();
        assert_eq!(b.as_slice(), &[1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn many_threads_share_small_pool() {
        let pool = PinnedBufferPool::new(3, 32);
        let mut handles = Vec::new();
        for _ in 0..12 {
            let p = pool.clone();
            handles.push(thread::spawn(move || {
                for _ in 0..20 {
                    let mut b = p.acquire();
                    b.as_mut_slice()[0] ^= 0xff;
                }
            }));
        }
        for h in handles {
            h.join().expect("worker");
        }
        assert_eq!(pool.outstanding(), 0);
        assert_eq!(pool.total_acquires(), 12 * 20);
    }
}
