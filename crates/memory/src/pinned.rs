//! A fixed set of equally sized byte buffers, handed out and returned,
//! never growing; acquisitions and waits are counted into a tracer.
//!
//! No transfer uses it: the engine stages every transfer through each
//! rank's staging set ([`crate::ScratchPool`]), the paper's pinned-memory
//! layer (Sec. 6.3). The pool is kept only because the perf ledger's
//! probes name it (`MemoryProbe`'s checkout timing, `OffloadProbe`'s raw
//! request size); it goes once they stop.

use zi_sync::Arc;

use zi_sync::{Condvar, Mutex};
use zi_trace::{Counter, Tracer};

/// A buffer checked out of a [`PinnedBufferPool`], returned to the pool
/// on drop.
pub struct PinnedBuffer {
    data: Vec<u8>,
    pool: Arc<Shared>,
}

impl Drop for PinnedBuffer {
    fn drop(&mut self) {
        self.pool.free.lock().push(std::mem::take(&mut self.data));
        self.pool.available.notify_one();
    }
}

struct Shared {
    free: Mutex<Vec<Vec<u8>>>,
    available: Condvar,
    buffer_size: usize,
    tracer: Tracer,
}

/// Fixed pool of reusable buffers.
#[derive(Clone)]
pub struct PinnedBufferPool {
    shared: Arc<Shared>,
}

impl PinnedBufferPool {
    /// `count` buffers of `buffer_size` bytes each, counting acquisitions
    /// and waits into `tracer`.
    pub fn with_tracer(count: usize, buffer_size: usize, tracer: Tracer) -> Self {
        assert!(count > 0, "pinned pool needs at least one buffer");
        let free = Mutex::new((0..count).map(|_| vec![0u8; buffer_size]).collect());
        let shared = Shared { free, available: Condvar::new(), buffer_size, tracer };
        PinnedBufferPool { shared: Arc::new(shared) }
    }

    /// Block until a buffer is available and check it out.
    pub fn acquire(&self) -> PinnedBuffer {
        let mut free = self.shared.free.lock();
        if free.is_empty() {
            self.shared.tracer.count(Counter::PinnedWaits, 1);
        }
        let data = loop {
            if let Some(data) = free.pop() {
                break data;
            }
            self.shared.available.wait(&mut free);
        };
        self.shared.tracer.count(Counter::PinnedAcquires, 1);
        PinnedBuffer { data, pool: Arc::clone(&self.shared) }
    }

    /// Size of each buffer in bytes.
    pub fn buffer_size(&self) -> usize {
        self.shared.buffer_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use zi_sync::thread;

    #[test]
    fn buffers_are_checked_out_and_returned() {
        let tracer = Tracer::new();
        let pool = PinnedBufferPool::with_tracer(2, 64, tracer.clone());
        assert_eq!(pool.buffer_size(), 64);
        {
            let (a, _b) = (pool.acquire(), pool.acquire());
            assert_eq!(a.data.len(), 64);
        }
        drop(pool.acquire());
        let counts = tracer.snapshot();
        assert_eq!((counts.pinned_acquires, counts.pinned_waits), (3, 0));
    }

    #[test]
    fn acquire_blocks_until_release() {
        let tracer = Tracer::new();
        let pool = PinnedBufferPool::with_tracer(1, 16, tracer.clone());
        let held = pool.acquire();
        let p2 = pool.clone();
        // This blocks until the main thread drops `held`.
        let handle = thread::spawn(move || drop(p2.acquire()));
        thread::sleep(Duration::from_millis(30));
        drop(held);
        handle.join().expect("waiter thread");
        assert_eq!(tracer.snapshot().pinned_acquires, 2);
    }

    #[test]
    fn many_threads_share_small_pool() {
        let tracer = Tracer::new();
        let pool = PinnedBufferPool::with_tracer(3, 32, tracer.clone());
        let handles: Vec<_> = (0..12)
            .map(|_| {
                let p = pool.clone();
                thread::spawn(move || (0..20).for_each(|_| drop(p.acquire())))
            })
            .collect();
        for h in handles {
            h.join().expect("worker");
        }
        assert_eq!(tracer.snapshot().pinned_acquires, 12 * 20);
        assert_eq!(pool.shared.free.lock().len(), 3, "every buffer came home");
    }
}
