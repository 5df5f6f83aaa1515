//! Index math for partitioning flat tensors across data-parallel ranks.
//!
//! ZeRO-Infinity partitions *every individual parameter* across all ranks
//! (bandwidth-centric partitioning, Sec. 6.1). Parameters are padded so
//! each rank owns an equal-length shard; these helpers centralize the
//! padding and range arithmetic.

use std::ops::Range;

use zi_types::{Rank, WorldSize};

/// Range of elements owned by `rank` when `total` elements are split as
/// evenly as possible across `world` ranks (remainder goes to the first
/// ranks).
pub fn partition_range(total: usize, world: WorldSize, rank: Rank) -> Range<usize> {
    assert!(world > 0, "world size must be positive");
    assert!(rank < world, "rank {rank} out of world {world}");
    let base = total / world;
    let rem = total % world;
    let start = rank * base + rank.min(rem);
    let len = base + usize::from(rank < rem);
    start..start + len
}

/// Equal-shard partitioner with padding, as used for parameter shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partitioner {
    /// Number of data-parallel ranks.
    pub world: WorldSize,
}

impl Partitioner {
    /// New partitioner for `world` ranks.
    pub fn new(world: WorldSize) -> Self {
        assert!(world > 0, "world size must be positive");
        Partitioner { world }
    }

    /// Per-rank shard length after padding `total` up to a multiple of the
    /// world size.
    pub fn shard_len(&self, total: usize) -> usize {
        total.div_ceil(self.world)
    }

    /// Padded total length (`shard_len * world`).
    pub fn padded_len(&self, total: usize) -> usize {
        self.shard_len(total) * self.world
    }

    /// Element range of `rank`'s shard within the padded flat tensor.
    pub fn shard_range(&self, total: usize, rank: Rank) -> Range<usize> {
        assert!(rank < self.world, "rank {rank} out of world {}", self.world);
        let s = self.shard_len(total);
        rank * s..(rank + 1) * s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_split() {
        assert_eq!(partition_range(12, 4, 0), 0..3);
        assert_eq!(partition_range(12, 4, 3), 9..12);
        assert_eq!(partition_range(12, 4, 2).len(), 3);
    }

    #[test]
    fn remainder_goes_to_first_ranks() {
        // 10 over 4 -> 3,3,2,2
        assert_eq!(partition_range(10, 4, 0), 0..3);
        assert_eq!(partition_range(10, 4, 1), 3..6);
        assert_eq!(partition_range(10, 4, 2), 6..8);
        assert_eq!(partition_range(10, 4, 3), 8..10);
    }

    #[test]
    fn ranges_tile_the_whole() {
        for total in [0usize, 1, 7, 16, 100] {
            for world in [1usize, 2, 3, 5, 16] {
                let mut cursor = 0;
                for rank in 0..world {
                    let r = partition_range(total, world, rank);
                    assert_eq!(r.start, cursor, "total={total} world={world} rank={rank}");
                    cursor = r.end;
                }
                assert_eq!(cursor, total);
            }
        }
    }

    #[test]
    fn partitioner_padding() {
        let p = Partitioner::new(4);
        assert_eq!(p.shard_len(10), 3);
        assert_eq!(p.padded_len(10), 12);
        assert_eq!(p.shard_range(10, 3), 9..12);
        // Exact multiples need no padding.
        assert_eq!(p.padded_len(8), 8);
        assert_eq!(p.shard_len(8), 2);
    }

    #[test]
    #[should_panic(expected = "out of world")]
    fn rank_bounds_checked() {
        partition_range(10, 2, 2);
    }
}
