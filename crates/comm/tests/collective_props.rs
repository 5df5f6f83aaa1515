//! Property tests: every collective must match a scalar reference
//! implementation for arbitrary world sizes and payloads, and the
//! deliver-into-the-consumer (`_with`) forms must agree bit for bit with
//! the `Vec`-returning ones — padding, hostile floats, injected faults
//! and the borrowed contribution of a one-rank world included.

use std::time::{Duration, Instant};

use zi_sync::Arc;
use zi_sync::thread;

use proptest::prelude::*;
use zi_comm::{partition_range, CommConfig, CommFaultPlan, CommGroup};
use zi_types::Error;

fn run_ranks<T: Send + 'static>(
    world: usize,
    f: impl Fn(usize, zi_comm::Communicator) -> T + Send + Sync + 'static,
) -> Vec<T> {
    run_planned(world, CommFaultPlan::new(), f)
}

/// [`run_ranks`] on a group consulting `plan` at every collective entry.
fn run_planned<T: Send + 'static>(
    world: usize,
    plan: CommFaultPlan,
    f: impl Fn(usize, zi_comm::Communicator) -> T + Send + Sync + 'static,
) -> Vec<T> {
    let config = CommConfig { faults: plan, ..CommConfig::default() };
    let group = CommGroup::with_config(world, config);
    let f = Arc::new(f);
    let handles: Vec<_> = group
        .communicators()
        .into_iter()
        .enumerate()
        .map(|(rank, comm)| {
            let f = Arc::clone(&f);
            thread::spawn(move || f(rank, comm))
        })
        .collect();
    handles.into_iter().map(|h| h.join().expect("rank thread")).collect()
}

/// A fresh plan that corrupts `victim`'s next contribution, or nothing
/// when `victim` is past the world. Fresh plans draw the same salt.
fn corrupting(victim: usize, world: usize) -> CommFaultPlan {
    let plan = CommFaultPlan::new();
    if victim < world {
        plan.corrupt_next_ops(victim, 1);
    }
    plan
}

/// Rank `rank`'s contribution: ordinary values salted with the floats
/// that break a careless reduction.
fn hostile(rank: usize, len: usize, seed: u64) -> Vec<f32> {
    const SPECIALS: [f32; 7] =
        [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1.0e-40, f32::MAX];
    (0..len)
        .map(|i| {
            let draw = (seed + rank as u64 * 131 + i as u64 * 17) % 23;
            SPECIALS.get(draw as usize).copied().unwrap_or(draw as f32 - 15.5)
        })
        .collect()
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Allgather concatenates per-rank shards in rank order, regardless
    /// of shard lengths.
    #[test]
    fn allgather_matches_reference(
        world in 1usize..5,
        lens in proptest::collection::vec(0usize..16, 1..5),
    ) {
        let lens: Vec<usize> = (0..world).map(|r| lens[r % lens.len()]).collect();
        let expect: Vec<u8> = (0..world)
            .flat_map(|r| std::iter::repeat_n(r as u8, lens[r]))
            .collect();
        let lens2 = lens.clone();
        let results = run_ranks(world, move |rank, comm| {
            let shard = vec![rank as u8; lens2[rank]];
            comm.allgather_bytes(&shard).unwrap()
        });
        for r in results {
            prop_assert_eq!(&r, &expect);
        }
    }

    /// Reduce-scatter returns each rank's partition of the element-wise
    /// sum.
    #[test]
    fn reduce_scatter_matches_reference(
        world in 1usize..5,
        len in 0usize..40,
        seed in 0u64..1000,
    ) {
        // Deterministic per-rank contributions.
        let contrib = move |rank: usize| -> Vec<f32> {
            (0..len)
                .map(|i| ((seed + rank as u64 * 31 + i as u64 * 7) % 13) as f32 - 6.0)
                .collect()
        };
        let mut total = vec![0f32; len];
        for r in 0..world {
            for (t, v) in total.iter_mut().zip(contrib(r)) {
                *t += v;
            }
        }
        let results = run_ranks(world, move |rank, comm| {
            (rank, comm.reduce_scatter_sum(&contrib(rank)).unwrap())
        });
        for (rank, part) in results {
            let range = partition_range(len, world, rank);
            prop_assert_eq!(&part, &total[range].to_vec(), "rank {}", rank);
        }
    }

    /// Allreduce leaves the identical full sum on every rank.
    #[test]
    fn allreduce_matches_reference(
        world in 1usize..5,
        len in 0usize..40,
        seed in 0u64..1000,
    ) {
        let contrib = move |rank: usize| -> Vec<f32> {
            (0..len).map(|i| ((seed + rank as u64 * 17 + i as u64) % 11) as f32).collect()
        };
        let mut total = vec![0f32; len];
        for r in 0..world {
            for (t, v) in total.iter_mut().zip(contrib(r)) {
                *t += v;
            }
        }
        let results = run_ranks(world, move |rank, comm| {
            let mut data = contrib(rank);
            comm.allreduce_sum(&mut data).unwrap();
            data
        });
        for r in results {
            prop_assert_eq!(&r, &total);
        }
    }

    /// Broadcast delivers exactly the root's payload to all.
    #[test]
    fn broadcast_matches_reference(
        world in 1usize..5,
        root_seed in 0usize..100,
        payload in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let root = root_seed % world;
        let expect = payload.clone();
        let results = run_ranks(world, move |rank, comm| {
            let mine = if rank == root { payload.clone() } else { vec![0xEE; 3] };
            comm.broadcast_bytes(root, &mine).unwrap()
        });
        for r in results {
            prop_assert_eq!(&r, &expect);
        }
    }

    /// `reduce_scatter_with` over unpadded contributions is bit-identical
    /// to `reduce_scatter_sum` over explicitly zero-padded ones, and to
    /// the rank-order scalar sum — with a contribution corrupted in
    /// transit at any one rank, too (the same bit of the same padded
    /// contribution flips either way).
    #[test]
    fn reduce_scatter_with_matches_the_padded_wrapper(
        world in 1usize..5,
        len in 0usize..70,
        seed in 0u64..1000,
        victim in 0usize..5,
    ) {
        let padded_len = len.div_ceil(world) * world;
        let padded = move |rank: usize| {
            let mut data = hostile(rank, len, seed);
            data.resize(padded_len, 0.0);
            data
        };
        let wrapper = run_planned(world, corrupting(victim, world), move |rank, comm| {
            comm.reduce_scatter_sum(&padded(rank)).unwrap()
        });
        let with = run_planned(world, corrupting(victim, world), move |rank, comm| {
            let mut out = Vec::new();
            comm.reduce_scatter_with(&hostile(rank, len, seed), padded_len, |at, sums| {
                assert_eq!(at, out.len(), "blocks arrive in order, without gaps");
                out.extend_from_slice(sums);
                Ok(())
            })
            .unwrap();
            out
        });
        for (rank, (a, b)) in wrapper.iter().zip(&with).enumerate() {
            prop_assert_eq!(bits(a), bits(b), "rank {}", rank);
            prop_assert_eq!(a.len(), padded_len / world);
        }
        if victim >= world {
            // Element i is ((0.0 + s0[i]) + s1[i]) + ..., in rank order.
            let mut total = vec![0f32; padded_len];
            for rank in 0..world {
                for (t, v) in total.iter_mut().zip(padded(rank)) {
                    *t += v;
                }
            }
            for (rank, part) in with.iter().enumerate() {
                let range = partition_range(padded_len, world, rank);
                prop_assert_eq!(bits(part), bits(&total[range]), "rank {}", rank);
            }
        }
    }

    /// `allreduce_with` hands every rank the vector `allreduce_sum`
    /// leaves in place.
    #[test]
    fn allreduce_with_matches_the_wrapper(
        world in 1usize..5,
        len in 0usize..70,
        seed in 0u64..1000,
        victim in 0usize..5,
    ) {
        let wrapper = run_planned(world, corrupting(victim, world), move |rank, comm| {
            let mut data = hostile(rank, len, seed);
            comm.allreduce_sum(&mut data).unwrap();
            data
        });
        let with = run_planned(world, corrupting(victim, world), move |rank, comm| {
            let mut out = vec![7.0f32; len];
            comm.allreduce_with(&hostile(rank, len, seed), |at, sums| {
                out[at..at + sums.len()].copy_from_slice(sums);
                Ok(())
            })
            .unwrap();
            out
        });
        for (a, b) in wrapper.iter().zip(&with) {
            prop_assert_eq!(bits(a), bits(b));
            prop_assert_eq!(bits(a), bits(&wrapper[0]), "every rank holds the same sum");
        }
    }

    /// `allgather_with` visits every rank's shard once, in rank order,
    /// and sees the bytes `allgather_bytes` concatenates — empty shards
    /// and a corrupted one included.
    #[test]
    fn allgather_with_matches_the_wrapper(
        world in 1usize..5,
        lens in proptest::collection::vec(0usize..16, 1..5),
        victim in 0usize..5,
    ) {
        let shard = move |rank: usize| -> Vec<u8> {
            (0..lens[rank % lens.len()]).map(|i| (rank * 37 + i * 11) as u8).collect()
        };
        let shard2 = shard.clone();
        let wrapper = run_planned(world, corrupting(victim, world), move |rank, comm| {
            comm.allgather_bytes(&shard(rank)).unwrap()
        });
        let with = run_planned(world, corrupting(victim, world), move |rank, comm| {
            let (mut out, mut visited) = (Vec::new(), Vec::new());
            comm.allgather_with(&shard2(rank), |from, bytes| {
                visited.push(from);
                out.extend_from_slice(bytes);
                Ok(())
            })
            .unwrap();
            (out, visited)
        });
        for (a, (b, visited)) in wrapper.iter().zip(&with) {
            prop_assert_eq!(a, b);
            prop_assert_eq!(visited, &(0..world).collect::<Vec<_>>());
        }
    }

    /// Composition: reduce_scatter followed by allgather equals allreduce
    /// (the classic identity ZeRO exploits).
    #[test]
    fn reduce_scatter_then_allgather_is_allreduce(
        world in 1usize..5,
        len in 1usize..24,
    ) {
        let contrib = move |rank: usize| -> Vec<f32> {
            (0..len).map(|i| (rank * 3 + i) as f32).collect()
        };
        let results = run_ranks(world, move |rank, comm| {
            // Path A: reduce-scatter then gather the shards back.
            let shard = comm.reduce_scatter_sum(&contrib(rank)).unwrap();
            let bytes: Vec<u8> = shard.iter().flat_map(|v| v.to_le_bytes()).collect();
            let gathered = comm.allgather_bytes(&bytes).unwrap();
            let a: Vec<f32> = gathered
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
                .collect();
            // Path B: allreduce.
            let mut b = contrib(rank);
            comm.allreduce_sum(&mut b).unwrap();
            (a, b)
        });
        for (a, b) in results {
            prop_assert_eq!(a, b);
        }
    }
}

/// A world of one borrows the caller's slice instead of depositing it —
/// but every fault the plan schedules still fires, on the same
/// collective, with the same effect.
#[test]
fn one_rank_world_does_not_skip_the_fault_hook() {
    let plan = CommFaultPlan::new();
    let group = CommGroup::with_config(1, CommConfig { faults: plan.clone(), ..CommConfig::default() });
    let comm = group.communicator(0);
    let gather = |shard: &[u8]| {
        let mut seen = Vec::new();
        comm.allgather_with(shard, |_, bytes| {
            seen.extend_from_slice(bytes);
            Ok(())
        })
        .map(|()| seen)
    };
    assert_eq!(gather(&[0u8; 16]).unwrap(), vec![0u8; 16], "clean: the borrowed slice itself");

    plan.corrupt_next_ops(0, 2);
    let dirty = gather(&[0u8; 16]).unwrap();
    assert_eq!(dirty.iter().map(|b| b.count_ones()).sum::<u32>(), 1, "exactly one bit flipped");
    let mut reduced = Vec::new();
    comm.reduce_scatter_with(&[0.0; 5], 8, |_, sums| {
        reduced.extend_from_slice(sums);
        Ok(())
    })
    .unwrap();
    assert_eq!(reduced.len(), 8, "the corrupted contribution is the padded one");
    assert_eq!(reduced.iter().filter(|v| v.to_bits() != 0).count(), 1);
    assert_eq!(plan.injected().corruptions, 2);

    plan.delay_next_ops(0, 1, Duration::from_millis(20));
    let start = Instant::now();
    assert_eq!(comm.sum_scalar(2.5).unwrap(), 2.5);
    assert!(start.elapsed() >= Duration::from_millis(15));
    assert_eq!(plan.injected().delays, 1);

    plan.kill_rank(0);
    let err = gather(&[1, 2, 3]).unwrap_err();
    assert!(matches!(err, Error::RankFailed { rank: 0, .. }), "got {err}");
    assert_eq!(group.failed_rank(), Some(0));
}

/// A rank whose contribution has the wrong length used to panic inside
/// the exchange while its peer sat out the whole collective deadline.
/// Now the mismatch is a typed error on every rank, at once, and the
/// group is latched failed.
#[test]
fn a_length_mismatch_is_a_typed_error_on_every_rank_within_the_deadline() {
    type Collective = fn(usize, &zi_comm::Communicator) -> zi_types::Result<()>;
    let cases: [(&str, Collective); 3] = [
        ("reduce_scatter", |rank, comm| {
            comm.reduce_scatter_sum(&vec![1.0; 8 + 4 * rank]).map(drop)
        }),
        ("allreduce", |rank, comm| comm.allreduce_sum(&mut vec![1.0; 8 + 4 * rank])),
        ("allgather", |rank, comm| {
            // The ZeRO shard rule: every contribution is as long as mine.
            let mine = vec![rank as u8; 8 + 4 * rank];
            comm.allgather_with(&mine, |_, bytes| {
                if bytes.len() == mine.len() {
                    return Ok(());
                }
                Err(Error::shape(format!("shard of {} bytes, expected {}", bytes.len(), mine.len())))
            })
        }),
    ];
    for (name, collective) in cases {
        let group = CommGroup::new(2); // 30 s deadline
        let start = Instant::now();
        let handles: Vec<_> = group
            .communicators()
            .into_iter()
            .enumerate()
            .map(|(rank, comm)| thread::spawn(move || collective(rank, &comm)))
            .collect();
        for (rank, handle) in handles.into_iter().enumerate() {
            let err = handle.join().expect("a mismatch must not panic").unwrap_err();
            assert!(
                matches!(err, Error::ShapeMismatch { .. } | Error::RankFailed { .. }),
                "{name}: rank {rank} got {err}"
            );
        }
        assert!(start.elapsed() < Duration::from_secs(5), "{name}: peers waited out the deadline");
        assert!(group.failed_rank().is_some(), "{name}: the group must be latched failed");
        let late = group.communicator(0).barrier().unwrap_err();
        assert!(matches!(late, Error::RankFailed { .. }), "{name}: got {late}");
    }
}
