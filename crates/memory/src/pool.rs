//! Contiguous first-fit memory pool.
//!
//! The pool is an *accounting* allocator over a simulated address space: it
//! tracks which byte ranges of a device's memory are in use, fails with
//! [`zi_types::Error::OutOfMemory`] when no contiguous extent can satisfy a
//! request, and supports pre-fragmentation so the Fig. 6b experiment ("all
//! memory allocation requests larger than 2 GB will fail") can be staged.

use zi_types::{Device, Error, Result};

/// An allocated range within a pool's address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// Byte offset of the block.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
}

/// Point-in-time usage statistics of a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Total pool capacity in bytes.
    pub capacity: u64,
    /// Bytes currently allocated.
    pub in_use: u64,
    /// Bytes currently free (may be fragmented).
    pub total_free: u64,
    /// Largest single contiguous free extent.
    pub largest_free: u64,
    /// High-water mark of `in_use` over the pool's lifetime.
    pub peak_in_use: u64,
    /// Number of allocations served.
    pub alloc_count: u64,
}

/// First-fit allocator over a contiguous address space.
#[derive(Debug)]
pub struct MemoryPool {
    device: Device,
    capacity: u64,
    /// Sorted, non-overlapping, coalesced free extents `(offset, len)`.
    free: Vec<(u64, u64)>,
    in_use: u64,
    /// The part of `in_use` charged by [`MemoryPool::reserve`]: capacity
    /// without an address.
    reserved: u64,
    peak_in_use: u64,
    alloc_count: u64,
}

impl MemoryPool {
    /// Pool with `capacity` bytes on `device`.
    pub fn new(device: Device, capacity: u64) -> Self {
        let free = if capacity > 0 { vec![(0, capacity)] } else { Vec::new() };
        MemoryPool { device, capacity, free, in_use: 0, reserved: 0, peak_in_use: 0, alloc_count: 0 }
    }

    /// Device this pool belongs to.
    pub fn device(&self) -> Device {
        self.device
    }

    /// Allocate `len` contiguous bytes (first fit).
    pub fn alloc(&mut self, len: u64) -> Result<Block> {
        if len == 0 {
            return Ok(Block { offset: 0, len: 0 });
        }
        // Reserved bytes occupy no extent, so capacity is checked apart.
        let slot = self.free.iter().position(|&(_, flen)| flen >= len);
        match slot.filter(|_| len <= self.capacity - self.in_use) {
            Some(i) => {
                let (off, flen) = self.free[i];
                if flen == len {
                    self.free.remove(i);
                } else {
                    self.free[i] = (off + len, flen - len);
                }
                self.in_use += len;
                self.peak_in_use = self.peak_in_use.max(self.in_use);
                self.alloc_count += 1;
                Ok(Block { offset: off, len })
            }
            None => Err(self.oom(len)),
        }
    }

    /// Charge `len` bytes of capacity without placing them in the address
    /// space: room for a reclaimable tenant (the shard cache) that must
    /// not disturb where first-fit places everyone else. The bytes count
    /// as in use — an [`Self::alloc`] they leave no capacity for fails,
    /// and succeeds, at the offset it would always have had, once they
    /// are handed back with [`Self::unreserve`].
    pub fn reserve(&mut self, len: u64) -> Result<()> {
        if len > self.capacity - self.in_use {
            return Err(self.oom(len));
        }
        self.reserved += len;
        self.in_use += len;
        self.peak_in_use = self.peak_in_use.max(self.in_use);
        Ok(())
    }

    /// Hand back `len` bytes charged with [`Self::reserve`].
    pub fn unreserve(&mut self, len: u64) {
        assert!(len <= self.reserved, "unreserve of more than was reserved");
        self.reserved -= len;
        self.in_use -= len;
    }

    fn oom(&self, len: u64) -> Error {
        let stats = self.stats();
        Error::OutOfMemory {
            device: self.device,
            requested: len as usize,
            largest_free: stats.largest_free as usize,
            total_free: stats.total_free as usize,
        }
    }

    /// Return a block to the pool, coalescing with neighbours.
    ///
    /// Panics if the block overlaps an already-free range or exceeds the
    /// pool bounds — both indicate double-free bugs in the caller.
    pub fn free(&mut self, block: Block) {
        if block.len == 0 {
            return;
        }
        assert!(
            block.offset + block.len <= self.capacity,
            "free of block beyond pool capacity"
        );
        let pos = self.free.partition_point(|&(off, _)| off < block.offset);
        // Validate against neighbours.
        if pos > 0 {
            let (poff, plen) = self.free[pos - 1];
            assert!(poff + plen <= block.offset, "double free detected (left overlap)");
        }
        if pos < self.free.len() {
            let (noff, _) = self.free[pos];
            assert!(block.offset + block.len <= noff, "double free detected (right overlap)");
        }
        self.free.insert(pos, (block.offset, block.len));
        self.coalesce_around(pos);
        self.in_use -= block.len;
    }

    fn coalesce_around(&mut self, pos: usize) {
        // Merge with right neighbour first so indices stay valid.
        if pos + 1 < self.free.len() {
            let (off, len) = self.free[pos];
            let (noff, nlen) = self.free[pos + 1];
            if off + len == noff {
                self.free[pos] = (off, len + nlen);
                self.free.remove(pos + 1);
            }
        }
        if pos > 0 {
            let (poff, plen) = self.free[pos - 1];
            let (off, len) = self.free[pos];
            if poff + plen == off {
                self.free[pos - 1] = (poff, plen + len);
                self.free.remove(pos);
            }
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> PoolStats {
        let extents: u64 = self.free.iter().map(|&(_, l)| l).sum();
        let total_free = extents - self.reserved;
        let largest_free = self.free.iter().map(|&(_, l)| l).max().unwrap_or(0).min(total_free);
        PoolStats {
            capacity: self.capacity,
            in_use: self.in_use,
            total_free,
            largest_free,
            peak_in_use: self.peak_in_use,
            alloc_count: self.alloc_count,
        }
    }

    /// Pre-fragment the address space so that no free extent exceeds
    /// `chunk` bytes, by permanently reserving one byte between chunks.
    ///
    /// Reproduces the Fig. 6b experimental setup: with `chunk = 2 GiB`,
    /// every allocation larger than 2 GiB fails even though most of the
    /// pool is free.
    pub fn prefragment(&mut self, chunk: u64) {
        assert!(chunk > 0, "prefragment chunk must be positive");
        let mut new_free = Vec::new();
        let mut reserved = 0u64;
        for &(off, len) in &self.free {
            let mut cur = off;
            let mut remaining = len;
            while remaining > chunk {
                new_free.push((cur, chunk));
                // One reserved byte acts as the immovable allocation
                // separating the chunks.
                cur += chunk + 1;
                reserved += 1;
                remaining -= chunk + 1;
            }
            if remaining > 0 {
                new_free.push((cur, remaining));
            }
        }
        self.free = new_free;
        self.in_use += reserved;
        self.peak_in_use = self.peak_in_use.max(self.in_use);
    }

    /// Number of distinct free extents (fragmentation indicator).
    pub fn fragment_count(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(cap: u64) -> MemoryPool {
        MemoryPool::new(Device::gpu(0), cap)
    }

    #[test]
    fn alloc_and_free_round_trip() {
        let mut p = pool(100);
        let a = p.alloc(40).unwrap();
        let b = p.alloc(60).unwrap();
        assert_eq!(p.stats().in_use, 100);
        assert!(p.alloc(1).is_err());
        p.free(a);
        p.free(b);
        let s = p.stats();
        assert_eq!(s.in_use, 0);
        assert_eq!(s.total_free, 100);
        assert_eq!(s.largest_free, 100, "freed blocks must coalesce");
        assert_eq!(p.fragment_count(), 1);
    }

    #[test]
    fn first_fit_reuses_earliest_hole() {
        let mut p = pool(100);
        let a = p.alloc(30).unwrap();
        let _b = p.alloc(30).unwrap();
        p.free(a);
        let c = p.alloc(10).unwrap();
        assert_eq!(c.offset, 0, "first fit should use the leading hole");
    }

    #[test]
    fn oom_reports_fragmentation() {
        let mut p = pool(100);
        let a = p.alloc(40).unwrap();
        let _b = p.alloc(20).unwrap();
        let _c = p.alloc(40).unwrap();
        p.free(a);
        // 40 free at the front, but request 50 -> fragmentation OOM.
        let err = p.alloc(50).unwrap_err();
        match err {
            Error::OutOfMemory { requested, largest_free, total_free, .. } => {
                assert_eq!(requested, 50);
                assert_eq!(largest_free, 40);
                assert_eq!(total_free, 40);
            }
            other => panic!("expected OOM, got {other}"),
        }
    }

    #[test]
    fn reserved_bytes_never_move_a_first_fit_block() {
        // The same first-fit requests with and without a reclaimable
        // tenant: every one lands at the same offset or fails, and a
        // failure succeeds at that offset once the reservation is gone.
        let requests = [30u64, 20, 25, 10];
        let mut plain = pool(100);
        let want: Vec<u64> = requests.iter().map(|&len| plain.alloc(len).unwrap().offset).collect();
        let mut shared = pool(100);
        shared.reserve(25).unwrap();
        let mut reserved = 25;
        assert_eq!((shared.stats().in_use, shared.stats().total_free), (25, 75));
        for (&len, &offset) in requests.iter().zip(&want) {
            let block = shared.alloc(len).or_else(|_| {
                shared.unreserve(std::mem::take(&mut reserved));
                shared.alloc(len)
            });
            assert_eq!(block.unwrap().offset, offset, "request of {len}");
        }
        assert_eq!(reserved, 0, "the last request needed the reserved room");
        let stats = shared.stats();
        assert_eq!((stats.in_use, stats.peak_in_use), (85, 100));
        assert!(shared.reserve(16).is_err());
        shared.reserve(15).unwrap();
        assert_eq!((shared.stats().total_free, shared.stats().largest_free), (0, 0));
        assert!(shared.alloc(1).is_err(), "reserved capacity is in use");
    }

    #[test]
    fn zero_sized_alloc_is_free() {
        let mut p = pool(10);
        let b = p.alloc(0).unwrap();
        assert_eq!(b.len, 0);
        p.free(b);
        assert_eq!(p.stats().in_use, 0);
    }

    #[test]
    fn peak_tracking() {
        let mut p = pool(100);
        let a = p.alloc(70).unwrap();
        p.free(a);
        let _b = p.alloc(10).unwrap();
        assert_eq!(p.stats().peak_in_use, 70);
        assert_eq!(p.stats().alloc_count, 2);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_detected() {
        let mut p = pool(100);
        let a = p.alloc(10).unwrap();
        p.free(a);
        p.free(a);
    }

    #[test]
    fn prefragment_caps_largest_extent() {
        let mut p = pool(1000);
        p.prefragment(100);
        let s = p.stats();
        assert!(s.largest_free <= 100);
        assert!(p.alloc(100).is_ok());
        assert!(p.alloc(101).is_err());
        // Most of the space is still usable in ≤100-byte pieces.
        assert!(s.total_free >= 900);
    }

    #[test]
    fn prefragment_respects_existing_allocations() {
        let mut p = pool(1000);
        let keep = p.alloc(500).unwrap();
        p.prefragment(50);
        assert!(p.alloc(51).is_err());
        p.free(keep);
        // The freed 500-byte block coalesces into one big extent again,
        // since prefragment only split extents that were free at the time.
        assert!(p.alloc(400).is_ok());
    }

    #[test]
    fn middle_free_coalesces_both_sides() {
        let mut p = pool(90);
        let a = p.alloc(30).unwrap();
        let b = p.alloc(30).unwrap();
        let c = p.alloc(30).unwrap();
        p.free(a);
        p.free(c);
        assert_eq!(p.fragment_count(), 2);
        p.free(b);
        assert_eq!(p.fragment_count(), 1);
        assert_eq!(p.stats().largest_free, 90);
    }
}
