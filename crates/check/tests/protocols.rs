//! Model-check harnesses for the workspace's real concurrency
//! protocols: the generation barrier under scripted rank death, the
//! membership join handshake racing that death and the collectives'
//! slot table (`zi-comm`), the write-behind engine's completion barrier and
//! staging-buffer hand-back and the checkpoint store's
//! `save_async`/crash/`open` recovery (`zi-nvme`), the buffer pools
//! (`zi-memory`), and the node's host write-back cache — parameter images
//! and the optimizer step's kept records in one map — the kept set's
//! write-back and two ranks' staging sets (`zero-infinity`).
//!
//! Under `RUSTFLAGS="--cfg zi_check"` each body is explored across
//! thousands of distinct interleavings with deadlock, lost-wakeup, and
//! data-race detection; failures print a replayable seed/trace. In a
//! passthrough build the same bodies run once on real primitives, so
//! this file doubles as a plain concurrency smoke test.

use zi_sync::Arc;
use std::time::Duration;

use zi_check::{Checker, Report};
use zi_comm::{partition_range, CommConfig, CommFaultPlan, CommGroup, Membership};
use zi_memory::{MemoryHierarchy, NodeMemorySpec, PinnedBufferPool, PlacementPolicy, ScratchPool};
use zi_nvme::{
    CheckpointStore, FaultPlan, FaultyBackend, MemBackend, NvmeEngine, RetryPolicy, StorageBackend,
};
use zi_sync::thread;
use zi_trace::{Category, Event, Ring, Tracer};
use zi_types::Error;

/// Distinct-schedule floor each harness must reach (or exhaust the
/// bounded space) in model-checking builds.
const DISTINCT_TARGET: usize = 1000;

fn drive(name: &str, checker: Checker, body: impl Fn() + Send + Sync + 'static) -> Report {
    let report = checker.check(name, body);
    eprintln!(
        "harness `{name}`: {} distinct / {} schedules, {} steps, exhausted={}",
        report.distinct, report.schedules, report.steps, report.exhausted
    );
    if let Some(f) = &report.failure {
        panic!("harness `{name}` failed after {} schedules\n{f}", report.schedules);
    }
    if zi_check::enabled() {
        assert!(
            report.covered(DISTINCT_TARGET),
            "harness `{name}` explored only {} distinct schedules \
             (target {DISTINCT_TARGET}, exhausted={})",
            report.distinct,
            report.exhausted,
        );
    }
    report
}

/// Random sampling for protocols whose interleaving space dwarfs the
/// distinct-schedule target.
fn run(name: &str, body: impl Fn() + Send + Sync + 'static) -> Report {
    drive(name, Checker { schedules: 2500, ..Checker::default() }, body)
}

/// Exhaustive (unbounded-preemption) DFS for protocols whose full space
/// is smaller than the sampling target — complete enumeration is the
/// stronger guarantee there.
fn run_exhaustive(name: &str, body: impl Fn() + Send + Sync + 'static) -> Report {
    let checker = Checker {
        mode: zi_check::Mode::Dfs,
        schedules: 200_000,
        preemptions: usize::MAX,
        ..Checker::default()
    };
    drive(name, checker, body)
}

// ---------------------------------------------------------------------------
// Protocol 1: generation barrier under scripted rank death.
//
// Invariant: a rank dying mid-sequence never hangs the group — every
// rank (victim and survivor) gets a typed `RankFailed{victim}` promptly,
// and the group latches exactly one failed rank, forever.

fn barrier_rank_death_body() {
    let plan = CommFaultPlan::new();
    plan.kill_rank_after_ops(1, 1); // dies entering its 2nd collective
    let group = CommGroup::with_config_tracer(
        2,
        CommConfig { deadline: Duration::from_secs(30), faults: plan },
        Tracer::new(),
    );
    let handles: Vec<_> = group
        .communicators()
        .into_iter()
        .map(|comm| {
            thread::spawn(move || {
                for i in 0..4u32 {
                    if let Err(e) = comm.barrier() {
                        return (i, e);
                    }
                }
                panic!("rank {} survived a broken group", comm.rank());
            })
        })
        .collect();
    let results: Vec<(u32, Error)> =
        handles.into_iter().map(|h| h.join().expect("rank thread")).collect();
    for (rank, (i, e)) in results.iter().enumerate() {
        assert!(
            matches!(e, Error::RankFailed { rank: 1, .. }),
            "rank {rank} got {e} instead of RankFailed{{1}}"
        );
        assert!(*i >= 1, "the first barrier precedes the kill, so it must succeed");
    }
    assert_eq!(results[1].0, 1, "victim dies entering its 2nd collective");
    assert_eq!(group.failed_rank(), Some(1), "exactly one failure generation latched");
}

#[test]
fn barrier_survives_scripted_rank_death() {
    run("barrier-rank-death", barrier_rank_death_body);
}

// ---------------------------------------------------------------------------
// Protocol 2: write-behind engine — the completion barrier and the
// staging-buffer hand-back.
//
// Invariants, in every interleaving of submitter, worker, and reaper:
// after `barrier`/`flush` returns, every previously submitted write has
// reached the backend, nothing is in flight, and each outcome waits for
// its ticket; and every staging buffer that rode a request — served,
// failed on the device, or refused because the worker pool is gone —
// is handed back exactly once (the set ends with nothing outstanding
// and every buffer of it parked).

fn engine_flush_body() {
    let backend = Arc::new(MemBackend::new());
    let eng = NvmeEngine::new(Arc::clone(&backend) as Arc<dyn StorageBackend>, 1);
    let tickets = [eng.submit_write(0, vec![1u8; 8]), eng.submit_write(64, vec![2u8; 8])];
    eng.flush().expect("flush cannot fail on a healthy backend");
    assert_eq!(eng.in_flight(), 0, "flush left requests in flight");
    assert_eq!(backend.bytes_written(), 16, "flush returned before the writes completed");
    for ticket in tickets {
        assert!(eng.is_ready(ticket), "flush returned before a completion was posted");
        assert!(eng.wait(ticket).expect("ticketed write").is_none());
    }
    drop(eng); // must join the worker without hanging in any schedule
}

#[test]
fn engine_flush_is_a_completion_barrier() {
    run("engine-flush-drain", engine_flush_body);
}

fn engine_handback_body() {
    let plan = FaultPlan::new();
    let backend = Arc::new(FaultyBackend::new(MemBackend::new(), plan.clone()));
    let eng = Arc::new(NvmeEngine::with_policy_tracer(
        backend as Arc<dyn StorageBackend>,
        1,
        RetryPolicy::none(),
        Tracer::new(),
    ));
    // Three writes in flight at once, each on a buffer of its own.
    let pool = ScratchPool::new(&[(3, 8)], &cpu_pool(), Tracer::new()).expect("staging set");
    // The single worker serves FIFO, so the scripted failure lands on
    // the first write; giving up latches the device, so the rest fail
    // fast — every buffer must come home on each of those paths.
    plan.fail_next_writes(1);
    let (tx, rx) = zi_sync::channel::unbounded();
    let reaper = {
        let eng = Arc::clone(&eng);
        thread::spawn(move || {
            let mut failed = 0;
            while let Ok(ticket) = rx.recv() {
                match eng.wait_buf(ticket) {
                    Ok(buf) => drop(buf.into_staging().expect("staging in, staging out")),
                    Err(_) => failed += 1,
                }
            }
            failed
        })
    };
    for i in 0..3u64 {
        let ticket = eng.submit_write_from(i * 8, pool.acquire(0, 8).expect("a buffer of the set"));
        tx.send(ticket).expect("reaper is alive");
    }
    drop(tx);
    eng.barrier().expect("a barrier leaves errors to the tickets");
    assert_eq!(eng.in_flight(), 0, "barrier returned with requests in flight");
    assert_eq!(reaper.join().expect("reaper thread"), 3, "scripted failure, then fail-fast");
    // With the worker pool gone a submission cannot be delivered: it
    // resolves as a typed failure and still returns its buffer.
    let mut eng = Arc::try_unwrap(eng).ok().expect("reaper dropped its handle");
    eng.shutdown();
    let refused = eng.submit_read_into(0, pool.acquire(0, 8).expect("a buffer of the set"));
    assert!(matches!(eng.wait_buf(refused), Err(Error::Internal(_))));
    eng.barrier().expect("barrier on a stopped engine");
    assert_eq!(pool.outstanding(), 0, "a staging buffer was never handed back");
    assert_eq!(pool.idle(0) as u64, pool.stats().allocated, "a staging buffer was lost");
    assert_eq!(pool.stats().waits, 0, "three buffers serve three writes without a wait");
}

/// A CPU pool for a staging set of a few buffers to be charged to.
fn cpu_pool() -> Arc<MemoryHierarchy> {
    Arc::new(MemoryHierarchy::new(&NodeMemorySpec::test_spec(1, 0, 1 << 10, 0)))
}

#[test]
fn engine_hands_every_staging_buffer_back_exactly_once() {
    run("engine-buffer-handback", engine_handback_body);
}

// ---------------------------------------------------------------------------
// Protocol 3: checkpoint store — concurrent `save_async` + torn-write
// crash + reopen recovery.
//
// Invariant: whatever interleaving of the queuing thread, the
// background writer, and the draining thread plays out, reopening the
// device never offers the torn version: recovery always lands on the
// last durable checkpoint with an intact payload.

fn store_crash_recovery_body() {
    let plan = FaultPlan::new();
    let backend: Arc<dyn StorageBackend> =
        Arc::new(FaultyBackend::new(MemBackend::new(), plan.clone()));
    {
        let store =
            CheckpointStore::new(Arc::clone(&backend), 1, 2).expect("create store");
        store.save(0, 1, b"version-one").expect("sync save v1");
        // The very next write — v2's slot invalidation — tears partway
        // through, so v2 can never be published.
        plan.torn_next_writes(1);
        let queued = store.clone();
        let t = thread::spawn(move || {
            let _ = queued.save_async(0, 2, b"version-two".to_vec());
        });
        // Race the durability barrier against the queue and the writer:
        // depending on the schedule it observes the failure or returns
        // before the save is even queued. Either is legal; recovery
        // below must not depend on it.
        let _ = store.drain();
        t.join().expect("queuing thread");
        let _ = store.drain();
    } // drop joins the background writer
    let store = CheckpointStore::open(Arc::clone(&backend)).expect("reopen device");
    assert_eq!(
        store.latest_complete(1).expect("scan"),
        Some(1),
        "torn v2 must never be offered for recovery"
    );
    assert_eq!(store.load(0, 1).expect("latest durable payload"), b"version-one".to_vec());
}

#[test]
fn store_recovery_never_sees_torn_manifests() {
    run("store-crash-recovery", store_crash_recovery_body);
}

// ---------------------------------------------------------------------------
// Protocol 4: buffer pools — checkout/return under contention.
//
// Invariant: a single-buffer pinned pool and a staging set of one buffer
// each hand their buffer to both threads (one blocks on the condvar until
// the other returns it), bookkeeping balances, and every buffer comes
// home — no deadlock, no lost wakeup, no race on the counters. The space
// is small enough to enumerate whole.
//
// A staging set of two shelves, one buffer each, for four holders — two
// per shelf, each holding one at a time, twice — hands each shelf's
// buffer to its holders although both shelves' waiters share one
// condvar (a waiter woken by the other shelf's buffer waits again), and
// the set's charge to the CPU pool is handed back with its last handle.
// Sampled.

fn pool_checkout_body() {
    let tracer = Tracer::new();
    let pinned = PinnedBufferPool::with_tracer(1, 4, tracer.clone());
    let scratch = ScratchPool::new(&[(1, 4)], &cpu_pool(), Tracer::new()).expect("staging set");
    let (p2, s2) = (pinned.clone(), scratch.clone());
    let t = thread::spawn(move || {
        drop(p2.acquire());
        s2.acquire(0, 4).expect("the set's buffer").as_f32_mut()[0] = 1.0;
    });
    drop(pinned.acquire());
    scratch.acquire(0, 4).expect("the set's buffer").as_f32_mut()[0] = 2.0;
    t.join().expect("contending thread");
    // A buffer that never came home would block this forever.
    drop(pinned.acquire());
    assert_eq!(tracer.snapshot().pinned_acquires, 3);
    let st = scratch.stats();
    assert_eq!((st.allocated, st.reused, st.peak_outstanding), (1, 2, 1));
    assert_eq!((scratch.outstanding(), scratch.idle(0)), (0, 1), "the set's buffer came home");
}

#[test]
fn pools_checkout_return_race_free() {
    run_exhaustive("pool-checkout-return", pool_checkout_body);
}

fn staging_shelves_body() {
    let cpu = cpu_pool();
    let scratch = ScratchPool::new(&[(1, 4), (1, 4)], &cpu, Tracer::new()).expect("staging set");
    let threads: Vec<_> = (0..4)
        .map(|k| {
            let scratch = scratch.clone();
            thread::spawn(move || {
                for _ in 0..2 {
                    let mut v = scratch.acquire(k % 2, 4).expect("the shelf's buffer");
                    v.as_f32_mut()[0] = k as f32;
                }
            })
        })
        .collect();
    threads.into_iter().for_each(|t| t.join().expect("holder thread"));
    let st = scratch.stats();
    assert_eq!((st.allocated, st.reused), (2, 8));
    assert!(st.peak_outstanding <= 2 && st.waits <= 6, "{st:?}");
    assert_eq!((scratch.idle(0), scratch.idle(1)), (1, 1), "a shelf's buffer was lost");
    drop(scratch);
    assert_eq!(cpu.stats(zi_types::Device::cpu()).in_use, 0, "the set's charge was not handed back");
}

#[test]
fn staging_shelves_wake_their_own_waiters() {
    run("staging-shelves", staging_shelves_body);
}

// ---------------------------------------------------------------------------
// Protocol 5: tracer event ring — the SPSC push/drain hand-off.
//
// The ring's slots are deliberately unordered `RaceCell`s; only the
// release-store of `head` (producer) and `tail` (consumer) make slot
// access safe, so the race detector verifies exactly that protocol.
//
// Invariant: with a consumer draining *while* the producer pushes into a
// deliberately tiny ring, every event is either drained intact or
// counted as dropped — accepted + dropped == produced, nothing is lost,
// and no drained slot is torn (every field still matches what the
// producer derived from the event id).

fn trace_ring_drain_body() {
    const EVENTS: u64 = 4;
    const TID: u64 = 7;
    let ring = Arc::new(Ring::new(TID, 2)); // capacity 2 forces the full-ring drop path
    let producer_ring = Arc::clone(&ring);
    let producer = thread::spawn(move || {
        let mut accepted = 0u64;
        for i in 0..EVENTS {
            let ev = Event {
                cat: Category::NcTransfer,
                name: "nc.read",
                start_ns: i,
                dur_ns: i * 3,
                bytes: i * 5 + 1,
                flops: 0,
                id: i,
                tid: 0, // push stamps the ring's tid
            };
            if producer_ring.push(ev) {
                accepted += 1;
            }
        }
        accepted
    });
    let mut drained = Vec::new();
    ring.drain_into(&mut drained); // races the producer
    let accepted = producer.join().expect("producer thread");
    ring.drain_into(&mut drained); // post-join: collect whatever is left
    assert!(ring.is_empty(), "a final drain must empty the ring");
    assert_eq!(drained.len() as u64, accepted, "an accepted event was lost");
    assert_eq!(accepted + ring.dropped(), EVENTS, "accept/drop bookkeeping leaks events");
    assert!(accepted >= 2, "a capacity-2 ring accepts at least the first two events");
    let mut last_id = None;
    for ev in &drained {
        let i = ev.id;
        assert!(last_id.is_none_or(|l| l < i), "events must drain in push order");
        last_id = Some(i);
        assert_eq!(
            (ev.start_ns, ev.dur_ns, ev.bytes, ev.tid),
            (i, i * 3, i * 5 + 1, TID),
            "drained slot torn: fields disagree with event id {i}"
        );
    }
}

#[test]
fn trace_ring_drain_race_free() {
    run_exhaustive("trace-ring-drain", trace_ring_drain_body);
}

// ---------------------------------------------------------------------------
// Protocol 7: kernel worker pool — job submission, index claiming and
// the per-job completion barrier.
//
// Invariants: every index of every job runs exactly once (no lost or
// double-claimed tiles); `run` does not return before all of its
// indices completed (the completion mutex provides the happens-before
// edge, so the submitter's reads of task output are race-free); a
// panicking task still releases the submitter; and pool shutdown never
// deadlocks against in-flight jobs.

fn kernel_pool_tiling_body() {
    use zi_tensor::pool::KernelPool;

    let pool = KernelPool::new(2);
    // Two jobs back-to-back from the same submitter, writing disjoint
    // slots. Plain (non-atomic) writes: if two tasks ever claimed the
    // same index, or `run` returned early, the race detector and the
    // assertions below would fire.
    let mut out = vec![0u32; 5];
    {
        let base = zi_tensor::pool::SendPtr::new(out.as_mut_ptr());
        pool.run(5, &move |i| {
            // SAFETY: each index is claimed exactly once, so writes are
            // disjoint; `run` returns only after all of them finish.
            unsafe { *base.get().add(i) = i as u32 + 1 };
        });
    }
    assert_eq!(out, vec![1, 2, 3, 4, 5], "job 1: every tile exactly once");
    {
        let base = zi_tensor::pool::SendPtr::new(out.as_mut_ptr());
        pool.run(3, &move |i| {
            // SAFETY: same disjoint-index argument as job 1.
            unsafe { *base.get().add(i) += 10 };
        });
    }
    assert_eq!(out, vec![11, 12, 13, 4, 5], "job 2: reuses the same pool");
    drop(pool); // shutdown must join both workers without deadlock
}

#[test]
fn kernel_pool_tiling_is_race_free() {
    run("kernel-pool-tiling", kernel_pool_tiling_body);
}

// ---------------------------------------------------------------------------
// Protocol 8: membership join handshake racing a scripted rank death.
//
// A joiner requests admission while a 2-rank group runs collectives and
// a comm fault plan scripts rank 1's death entering its 3rd barrier.
// Whichever latches first wins, and the precedence rule keeps the
// outcome coherent:
//
//   * resize first — rank 1's fatal admit is preempted by the retirement
//     check, the kill never fires, and every rank gets a voluntary
//     `MembershipChange`; the group latches no failure.
//   * failure first — `mark_resize` is a no-op on a failed group, so
//     the resize never latches and the victim gets `RankFailed{1}`; the
//     join request itself survives in the ledger for the next
//     generation.
//
// The two planes are *not* one atomic step: a survivor can be retired
// by the resize in the same instant the victim's scripted kill fires,
// so a survivor's classification may race (`MembershipChange` vs
// `RankFailed`). What must hold in every interleaving: no rank ever
// hangs; every halt is one of the two typed errors; the victim of a
// fired kill always reports its own death; the latched group state
// agrees with the strongest class any rank observed (failure outranks
// resize); and folding the next generation accounts for the join
// exactly once (`pending_joins` drains to zero, world = base + 1).

fn join_handshake_vs_rank_death_body() {
    let plan = CommFaultPlan::new();
    plan.kill_rank_after_ops(1, 2); // dies entering its 3rd collective
    let membership = Membership::new(2);
    let group = CommGroup::with_membership_tracer(
        2,
        CommConfig { deadline: Duration::from_secs(30), faults: plan },
        Tracer::new(),
        &membership,
    );
    let joiner = {
        let membership = membership.clone();
        thread::spawn(move || membership.request_join())
    };
    let handles: Vec<_> = group
        .communicators()
        .into_iter()
        .map(|comm| {
            thread::spawn(move || {
                for i in 0..6u32 {
                    if let Err(e) = comm.barrier() {
                        return (i, e);
                    }
                }
                panic!("rank {} outlived both the kill and the retirement", comm.rank());
            })
        })
        .collect();
    let results: Vec<(u32, Error)> =
        handles.into_iter().map(|h| h.join().expect("rank thread")).collect();
    joiner.join().expect("joiner thread");

    let mut saw_failure = false;
    for (rank, (i, e)) in results.iter().enumerate() {
        match e {
            Error::MembershipChange { joining: 1, .. } => {}
            Error::RankFailed { rank: 1, .. } => saw_failure = true,
            other => panic!("rank {rank} got untyped halt {other}"),
        }
        assert!(*i <= 2, "rank {rank} survived past the kill threshold ({i})");
    }
    if saw_failure {
        // Only the victim's scripted admit can latch the failure, so it
        // must have reported its own death even when the survivor's
        // classification raced the resize.
        assert!(
            matches!(results[1].1, Error::RankFailed { rank: 1, .. }),
            "failure latched but the victim reported {:?}",
            results[1].1
        );
        assert_eq!(group.failed_rank(), Some(1), "observed failure never latched");
        assert_eq!(group.pending_resize(), None, "failure must outrank the resize latch");
    } else {
        assert_eq!(group.failed_rank(), None, "voluntary retirement latched a failure");
        assert_eq!(group.pending_resize(), Some(1), "retirement without a latched resize");
    }
    // The generation fold: survivors (1 after a death, both otherwise)
    // plus the one join, with the ledger drained.
    assert_eq!(membership.pending_joins(), 1, "join request lost before the fold");
    let base = if saw_failure { 1 } else { 2 };
    assert_eq!(membership.next_generation(base), (1, base + 1));
    assert_eq!(membership.pending_joins(), 0, "fold must drain the join ledger");
}

#[test]
fn join_handshake_survives_racing_rank_death() {
    run("join-handshake-vs-rank-death", join_handshake_vs_rank_death_body);
}

// ---------------------------------------------------------------------------
// Protocol 9: the collectives' slot table — deposit, barrier, consume,
// barrier — over back-to-back collectives on two ranks.
//
// Every collective deposits into the rank's own slot, crosses a barrier,
// hands the slots to the caller's consumer as borrowed slices, and
// crosses a second barrier before any slot may be rewritten. A
// reduce-scatter deposits no copy: it lends the caller's own storage to
// the slot, and the owner takes it back after the second barrier.
// Invariants, in every interleaving:
//
//   * a consumer of collective k sees exactly collective k's
//     contributions — no rank reads before every deposit landed (first
//     barrier), and no owner rewrites its slot for k+1, or takes back a
//     lent contribution, while a peer is still reading k (second
//     barrier); the rounds differ in every byte and in length, so a
//     misordered read cannot go unnoticed;
//   * once a reduce-scatter returns, the slot no longer holds the
//     contribution: the caller owns its storage alone again;
//   * the consume phases of one collective overlap: in some schedule
//     both ranks are reading the *same* slot at once (between the
//     barriers the slots are only read, under shared locks — an
//     exclusive lock, around the table or per slot, would serialize the
//     decode/reduce work);
//   * a rank that fails inside its consumer, i.e. between the barriers,
//     latches the group failed, so its peer unwinds with
//     `RankFailed` instead of sitting at the second barrier until the
//     deadline (`CollectiveTimeout`).

fn slot_table_body(overlapped: &zi_sync::OnceLock<()>) {
    use zi_sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    let round_shard = |round: u8, rank: usize| vec![0x10 * (round + 1) + rank as u8; 2 + round as usize];
    let group = CommGroup::with_config_tracer(
        2,
        CommConfig { deadline: Duration::from_secs(30), faults: CommFaultPlan::new() },
        Tracer::new(),
    );
    let consuming = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
    let both = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = group
        .communicators()
        .into_iter()
        .map(|comm| {
            let (consuming, both) = (Arc::clone(&consuming), Arc::clone(&both));
            thread::spawn(move || {
                let rank = comm.rank();
                for round in 0..2u8 {
                    let mut seen = Vec::new();
                    comm.allgather_with(&round_shard(round, rank), |from, bytes| {
                        if consuming[from].fetch_add(1, Ordering::SeqCst) == 1 {
                            both.store(true, Ordering::SeqCst);
                        }
                        seen.push((from, bytes.to_vec()));
                        // A scheduling point inside the consumer: the
                        // peer may enter its own while this one is open.
                        thread::yield_now();
                        consuming[from].fetch_sub(1, Ordering::SeqCst);
                        Ok(())
                    })
                    .expect("a healthy round");
                    let expect: Vec<_> = (0..2).map(|from| (from, round_shard(round, from))).collect();
                    assert_eq!(seen, expect, "rank {rank} round {round} read another collective's slot");
                }
                for round in 0..2usize {
                    let len = 2 + 2 * round;
                    let value = |rank: usize, i: usize| (100 * rank + 10 * round + i) as f32;
                    let contrib = Arc::new((0..len).map(|i| value(rank, i)).collect::<Vec<f32>>());
                    let mut sums = Vec::new();
                    comm.reduce_scatter_with(&contrib, len, |_, block| {
                        sums.extend_from_slice(block);
                        thread::yield_now();
                        Ok(())
                    })
                    .expect("a healthy round");
                    let expect: Vec<f32> =
                        partition_range(len, 2, rank).map(|i| 0.0 + value(0, i) + value(1, i)).collect();
                    assert_eq!(sums, expect, "rank {rank} reduce {round} read another collective's slot");
                    assert_eq!(Arc::strong_count(&contrib), 1, "rank {rank} reduce {round}: still lent");
                }
                // Rank 1 dies mid-consume; rank 0 consumes cleanly.
                comm.reduce_scatter_with(&Arc::new(vec![1.0, 2.0]), 2, |_, sums| {
                    assert_eq!(sums, [2.0 + rank as f32 * 2.0], "rank {rank}");
                    if rank == 1 {
                        return Err(Error::Internal("dies mid-consume".into()));
                    }
                    Ok(())
                })
                .expect_err("no rank can complete a collective whose peer never reaches the second barrier")
            })
        })
        .collect();
    let errors: Vec<Error> = handles.into_iter().map(|h| h.join().expect("rank thread")).collect();
    assert!(
        matches!(errors[0], Error::RankFailed { rank: 1, .. }),
        "the survivor got {} instead of RankFailed{{1}}",
        errors[0]
    );
    assert!(matches!(errors[1], Error::Internal(_)), "the victim reports its own error: {}", errors[1]);
    assert_eq!(group.failed_rank(), Some(1));
    if both.load(Ordering::SeqCst) {
        let _ = overlapped.set(());
    }
}

#[test]
fn collective_slot_table_orders_writers_and_overlaps_readers() {
    let overlapped = Arc::new(zi_sync::OnceLock::new());
    let seen = Arc::clone(&overlapped);
    run("collective-slot-table", move || slot_table_body(&seen));
    if zi_check::enabled() {
        assert!(
            overlapped.get().is_some(),
            "no schedule had both ranks reading one slot at once: the consume phase serializes"
        );
    }
}

// ---------------------------------------------------------------------------
// Protocol 10: the node's host write-back cache — one map of parameter
// images and kept optimizer records: admit, publish, write back, evict.
//
// Rank C's engine steps first: its one optimizer record on the device is
// kept, updated and unwritten, as an entry of the map, where it stays
// while the two others race. Rank A owns a parameter shard on the NVMe
// tier: it fetches it (a miss fills the cache by moving the verified
// staging buffer in), fetches it again, and publishes new values over it.
// While the pool has room the publish is write-back: its image takes over
// the old entry's charge and becomes a dirty entry, the only current
// copy, the device still holding the bytes it superseded; without room it
// is written through. A's first publish is dropped halfway, after a
// fetch of the shard while it is in flight, which finds room beside the
// publish's image but must not fill the cache with the bytes the publish
// supersedes. Rank B meanwhile stores a CPU tenant the pool has no room
// for while the cache holds A's shard, so in some schedules its store
// must evict — writing A's dirty image back first, or taking the charge
// of A's publish in flight, which then writes its image back as it
// finishes — and never C's kept record, which holds no room it could
// return. Invariants, in every interleaving:
//
//   * a fetch outside a publish returns the shard's current image, whole
//     — never a torn entry, never the image a publish has superseded —
//     whether the cache serves it or the device after a write-back: the
//     last publish, as far as it was pushed, is current, and every device
//     read of it verifies;
//   * bytes a reader holds stay intact across an eviction or an
//     invalidation of their entry (no use-after-evict);
//   * B's store succeeds — by eviction when the cache is in its way —
//     and is never `Error::OutOfMemory`; it evicts A's entry at most, and
//     C's next step finds its record where it kept it, moving no byte;
//   * when all are done every pool is back at zero: no charge is lost
//     between the cache's lock, the checksum registry's and the pool's.

fn shard_cache_body(seen: &[zi_sync::OnceLock<()>; 3]) {
    use zero_infinity::{NodeEnv, NodeResources, Placement, Strategy, WriteBehind, ZeroEngine};
    use zi_memory::NodeMemorySpec;
    use zi_model::{ParamRegistry, ParamStore};
    use zi_tensor::{FlatBuffer, Tensor};
    use zi_types::{DType, Device, DeviceKind};

    const ELEMS: usize = 8;
    let image = |round: usize| -> Vec<f32> { (0..ELEMS).map(|i| (round * 100 + i) as f32).collect() };
    let stored = |vals: &[f32]| FlatBuffer::from_f32(DType::F32, vals);
    let shard_bytes = (ELEMS * 4) as u64;
    // Rank A's staging set: two publish pieces (a window of one
    // write-through piece and the one being staged) and one shard buffer
    // for a fetch.
    let set = [(0, 0), (2, ELEMS / 2 * 4), (1, ELEMS * 4)];
    let a_set = 2 * 16 + shard_bytes;
    // Rank C: one f32 parameter of four elements in DRAM, its optimizer
    // record of 48 B on the device, four record buffers in its set (one
    // device worker: a pipeline one deep, a window of two, and the
    // construction bound of the window plus two).
    let (c_param, c_set) = (16, 4 * 48);
    // Beside every other tenant at its peak, room for two images or for
    // B's tenant of 48 B, but not for an image and the tenant.
    let room = 2 * shard_bytes + 8;
    let spec = NodeMemorySpec::test_spec(2, 1 << 10, c_set + c_param + a_set + room, 1 << 12);
    let env = NodeEnv { nvme_workers: 1, ..NodeEnv::in_memory() };
    let node = Arc::new(NodeResources::new(&spec, 2, env));

    let mut reg = ParamRegistry::new();
    reg.register("c", &[4], 3, 0.2, 0.0);
    let c = reg.find("c").expect("c");
    let (params, grads, optimizer) = (DeviceKind::Cpu, DeviceKind::Cpu, DeviceKind::Nvme);
    let placement = Placement { params, grads, optimizer };
    let strategy = Strategy { placement, ..Strategy::infinity_nvme() }
        .with_f32_params()
        .with_prefetch_window(0)
        .with_optimizer_chunk(4);
    // A rank of its own data-parallel group.
    let (mgr, comm) = (node.offload_manager(), CommGroup::new(1).communicator(0));
    let mut rank_c = ZeroEngine::new(&reg, strategy, mgr, comm, Default::default()).expect("rank C");
    let c_grad = || Tensor::from_vec(&[4], vec![0.25; 4]).expect("grad");
    rank_c.add_grad(c, &c_grad()).expect("deposit");
    assert!(rank_c.step().expect("rank C's step"), "rank C's step skipped");
    let c_staging = rank_c.offload_manager().staging().clone();
    assert_eq!(c_staging.outstanding(), 1, "rank C keeps its record");
    let cpu = || node.hierarchy.stats(Device::cpu()).in_use;
    assert_eq!((c_staging.held_bytes(), cpu()), (c_set, c_set + c_param), "rank C's footprint");

    // B's tenant arrives once the cache holds A's shard: from then on its
    // store races everything A does.
    let (filled, wait_filled) = zi_sync::channel::unbounded::<()>();
    let rank_a = {
        let node = Arc::clone(&node);
        thread::spawn(move || {
            let mut mgr = node.offload_manager();
            mgr.provision_staging(set).expect("rank A's staging set");
            let policy = PlacementPolicy::all_nvme();
            let mut shard = mgr.store_placed(Device::nvme(), &policy, stored(&image(0))).expect("store");
            // Before B can come: a fill, then a publish dropped after its
            // first half, a fetch racing it in the pool's room beside its
            // image. What the publish pushed is current after it.
            drop(mgr.fetch_placed(&shard).expect("fetch"));
            let mut wb = WriteBehind::new(1);
            let mut publish = mgr.begin_publish(&shard);
            let half = &image(7)[..ELEMS / 2];
            publish.push_values(&mut wb, &mut shard, 0, half).expect("push");
            wb.drain(&mgr).expect("drain");
            drop(mgr.fetch_placed(&shard).expect("a fetch racing the publish"));
            drop(publish);
            let mut current = stored(&[half, &image(0)[ELEMS / 2..]].concat());
            for round in 0..2 {
                let want = current;
                for _ in 0..2 {
                    let got = mgr.fetch_placed(&shard).expect("fetch");
                    assert_eq!(got.as_bytes(), want.as_bytes(), "round {round}: torn or stale fetch");
                    // B may evict the entry while these bytes are held.
                    let _ = filled.send(());
                    thread::yield_now();
                    assert_eq!(got.as_bytes(), want.as_bytes(), "round {round}: use after evict");
                }
                let mut wb = WriteBehind::new(1);
                let mut publish = mgr.begin_publish(&shard);
                let pushed = image(round + 1).chunks(ELEMS / 2).enumerate().try_for_each(
                    |(k, c)| publish.push_values(&mut wb, &mut shard, k * (ELEMS / 2), c),
                );
                wb.drain(&mgr).expect("drain");
                pushed.and_then(|()| publish.finish(&shard)).expect("publish");
                current = stored(&image(round + 1));
            }
            let last = mgr.fetch_placed(&shard).expect("fetch");
            assert_eq!(last.as_bytes(), current.as_bytes(), "the last publish is current");
            drop(last);
            mgr.free_placed(shard);
            assert_eq!(mgr.health().staging_waits, 0, "rank A waited for a staging buffer");
        })
    };
    let rank_b = {
        let node = Arc::clone(&node);
        thread::spawn(move || {
            let mgr = node.offload_manager();
            wait_filled.recv().expect("rank A fills first");
            let tenant = mgr
                .store_placed(Device::cpu(), &PlacementPolicy::all_nvme(), stored(&[0.0; 12]))
                .expect("a store that fits without the cache fits with it");
            thread::yield_now();
            mgr.free_placed(tenant);
        })
    };
    rank_a.join().expect("rank A");
    rank_b.join().expect("rank B");
    // C's record is where it kept it: the next step neither reads nor
    // writes it.
    let before = node.nvme.stats();
    rank_c.add_grad(c, &c_grad()).expect("deposit");
    assert!(rank_c.step().expect("rank C's step"), "rank C's step skipped");
    let after = node.nvme.stats();
    assert_eq!((after.reads, after.writes), (before.reads, before.writes), "rank C lost its record");
    rank_c.dispose().expect("dispose");
    assert_eq!(c_staging.outstanding(), 0, "a staging buffer of rank C was never handed back");
    drop(c_staging);
    for device in [Device::cpu(), Device::nvme()] {
        assert_eq!(node.hierarchy.stats(device).in_use, 0, "{device}: a charge was lost");
    }
    let health = node.offload_manager().health();
    assert!(health.shard_cache_evictions <= 1, "one tenant evicts at most the one entry");
    assert_eq!(health.corruptions_recovered + health.corruptions_unrecovered, 0);
    let happened =
        [health.shard_cache_evictions, health.shard_cache_hits, health.shard_cache_write_backs];
    for (seen, happened) in seen.iter().zip(happened) {
        if happened > 0 {
            let _ = seen.set(());
        }
    }
}

#[test]
fn shard_cache_admit_invalidate_evict_is_race_free() {
    let seen = Arc::new([(); 3].map(|()| zi_sync::OnceLock::new()));
    let body_seen = Arc::clone(&seen);
    // ~450 scheduling points per run: half the usual sample still clears
    // the distinct-schedule floor.
    let checker = Checker { schedules: 1250, ..Checker::default() };
    drive("shard-cache", checker, move || shard_cache_body(&body_seen));
    if zi_check::enabled() {
        assert!(seen[0].get().is_some(), "no schedule made rank B's store evict rank A's entry");
        assert!(seen[1].get().is_some(), "no schedule let rank A hit its entry before B evicted it");
        assert!(seen[2].get().is_some(), "no schedule made rank B write rank A's publish back");
    }
}

fn kernel_pool_panic_release_body() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use zi_tensor::pool::KernelPool;

    let pool = KernelPool::new(1);
    let result = catch_unwind(AssertUnwindSafe(|| {
        pool.run(2, &|i| {
            if i == 1 {
                panic!("tile panic");
            }
        });
    }));
    assert!(result.is_err(), "task panic must propagate to the submitter");
    // The pool must remain serviceable after a panicked job.
    let counter = zi_sync::atomic::AtomicU32::new(0);
    pool.run(3, &|_| {
        counter.fetch_add(1, zi_sync::atomic::Ordering::SeqCst);
    });
    assert_eq!(counter.load(zi_sync::atomic::Ordering::SeqCst), 3, "pool usable after panic");
}

#[test]
fn kernel_pool_panic_releases_submitter() {
    run("kernel-pool-panic-release", kernel_pool_panic_release_body);
}

// ---------------------------------------------------------------------------
// Protocol 11: the optimizer step's kept records and their write-back —
// a step keeps its last records in their staging buffers, updated and not
// written, and the next step takes them without a read; a changed set of
// buffers to update drops them, written back as plain writes, and the
// step returns with every write it issued landed.
//
// Two parameters, `u` then `w`, of two records each on a two-worker
// device that serves a read before a write already on it whenever the
// scheduler lets it; depth 2 plus a write-behind window of 4 keep every
// record a step updates. Two steps in opposite orders, then a checkpoint
// export. In the first geometry `u` joins in step 1: step 1 drops the
// records step 0 kept of `w` alone, writes them back first and reads
// `w` — descending, `w` comes first — once the write-back has landed,
// which the step waits out before its first read. In the second both
// leave: step 0 updates both, and step 1, with no gradient, writes back
// the four records step 0 kept and reads nothing after them; the export
// after it reads every record.
//
// Invariants, in every interleaving:
//
//   * no read overtakes a write of its extent: no read is verified
//     against a checksum its bytes do not match (a read that overtook
//     the write-back of its record would be), and every schedule ends in
//     the same state;
//   * no write outlives its step: in the second geometry step 1 returns
//     with its four write-backs landed;
//   * each staging buffer is handed back exactly once: after dispose
//     nothing is checked out and every buffer of the rank's set — sized
//     at its proven bound, DESIGN.md §7 — is parked, and no acquisition
//     waited;
//   * no schedule deadlocks.

/// An in-memory device on which a write yields to the scheduler before it
/// lands — up to 64 times, until a read has been served since it arrived:
/// a read issued while a write of its extent is on the device overtakes
/// it in every schedule that lets a worker serve it.
#[derive(Default)]
struct ReadsFirst {
    dev: MemBackend,
    reads: zi_sync::atomic::AtomicU64,
    /// Writes landed.
    writes: zi_sync::atomic::AtomicU64,
    /// `writes` as the first read since this was last cleared found it.
    first_read: zi_sync::Mutex<Option<u64>>,
}

impl StorageBackend for ReadsFirst {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> zi_types::Result<()> {
        let landed = self.writes.load(zi_sync::atomic::Ordering::SeqCst);
        self.first_read.lock().get_or_insert(landed);
        let read = self.dev.read_at(offset, buf);
        self.reads.fetch_add(1, zi_sync::atomic::Ordering::SeqCst);
        read
    }
    fn write_at(&self, offset: u64, data: &[u8]) -> zi_types::Result<()> {
        let arrived = self.reads.load(zi_sync::atomic::Ordering::SeqCst);
        for _ in 0..64 {
            if self.reads.load(zi_sync::atomic::Ordering::SeqCst) != arrived {
                break;
            }
            thread::yield_now();
        }
        let written = self.dev.write_at(offset, data);
        self.writes.fetch_add(1, zi_sync::atomic::Ordering::SeqCst);
        written
    }
    fn sync(&self) -> zi_types::Result<()> {
        self.dev.sync()
    }
    fn len(&self) -> zi_types::Result<u64> {
        self.dev.len()
    }
}

/// Protocol 11's body; with `seen`, the first geometry — `u` joins in step
/// 1, and `seen` is set when its write-back landed before its first read
/// — else both leave.
fn kept_set_body(seen: Option<&zi_sync::OnceLock<()>>, state: &zi_sync::OnceLock<Vec<u8>>) {
    use zero_infinity::{NodeEnv, NodeResources, Strategy, ZeroEngine};
    use zi_memory::NodeMemorySpec;
    use zi_model::{ParamRegistry, ParamStore};
    use zi_tensor::Tensor;

    let late = seen.is_some();
    let mut reg = ParamRegistry::new();
    reg.register("u", &[8], 6, 0.2, 0.0);
    reg.register("w", &[8], 5, 0.2, 0.0);
    let (u, w) = (reg.find("u").expect("u"), reg.find("w").expect("w"));
    let spec = NodeMemorySpec::test_spec(1, 1 << 12, 1 << 12, 1 << 12);
    let device = Arc::new(ReadsFirst::default());
    let env = NodeEnv { nvme_workers: 2, ..NodeEnv::new(device.clone()) };
    let node = NodeResources::new(&spec, 1, env);
    // Records of four elements; two device workers make the step two
    // reads ahead with a write-behind window of four: the step keeps
    // every record it updates.
    let strategy = Strategy::infinity_nvme()
        .with_f32_params()
        .with_prefetch_window(0)
        .with_optimizer_chunk(4);
    let (mgr, comm) = (node.offload_manager(), node.group.communicator(0));
    let mut eng = ZeroEngine::new(&reg, strategy, mgr, comm, Default::default()).expect("engine");
    let staging = eng.offload_manager().staging().clone();
    for step in 0..2 {
        let grad = Tensor::from_vec(&[8], (0..8).map(|i| (i + step) as f32 * 0.125).collect());
        let grad = grad.expect("grad");
        if late || step == 0 {
            eng.add_grad(w, &grad).expect("deposit");
        }
        if late == (step == 1) {
            eng.add_grad(u, &grad).expect("deposit");
        }
        // Between steps no write is on the device: the two counts agree.
        let writes = node.nvme.stats().writes;
        *device.first_read.lock() = None;
        assert!(eng.step().expect("step"), "step {step} skipped");
        match seen {
            // Both write-backs had landed when the first read of `w` began.
            Some(seen) if step == 1 && device.first_read.lock().is_some_and(|at| at >= writes + 2) => {
                let _ = seen.set(());
            }
            None if step == 1 => {
                let landed = node.nvme.stats().writes - writes;
                assert_eq!(landed, 4, "the step returned before its write-back landed");
            }
            _ => {}
        }
    }
    let saved = eng.save_state().expect("save");
    let health = eng.offload_manager().health();
    assert_eq!(
        (health.corruptions_recovered, health.corruptions_unrecovered),
        (0, 0),
        "a read saw bytes other than the written ones"
    );
    assert_eq!(state.get_or_init(|| saved.clone()), &saved, "schedules disagree on the state");
    eng.dispose().expect("dispose");
    assert_eq!(staging.outstanding(), 0, "a staging buffer was never handed back");
    let idle = (0..3).map(|shelf| staging.idle(shelf) as u64).sum::<u64>();
    assert_eq!(idle, staging.stats().allocated, "a staging buffer was lost");
    assert_eq!(staging.stats().waits, 0, "an acquisition waited: the set is below its bound");
}

#[test]
fn a_dropped_kept_set_lands_before_the_step_reads_it() {
    let seen = Arc::new(zi_sync::OnceLock::new());
    let state = Arc::new(zi_sync::OnceLock::new());
    let (body_seen, body_state) = (Arc::clone(&seen), Arc::clone(&state));
    let checker = Checker { schedules: 1250, ..Checker::default() };
    drive("kept-set-write-back", checker, move || kept_set_body(Some(&body_seen), &body_state));
    if zi_check::enabled() {
        assert!(seen.get().is_some(), "no schedule read after a landed write-back");
    }
}

#[test]
fn a_step_returns_with_its_write_back_landed() {
    let state = Arc::new(zi_sync::OnceLock::new());
    let body_state = Arc::clone(&state);
    let checker = Checker { schedules: 1250, ..Checker::default() };
    drive("write-back-in-step", checker, move || kept_set_body(None, &body_state));
}

// ---------------------------------------------------------------------------
// Protocol 12: two ranks' staging sets — each rank's fetches, prefetches
// and optimizer step staged through a fixed set of its own, sized at its
// proven bound (DESIGN.md §7), the two ranks racing on one device and
// meeting in every collective.
//
// Two ranks of a model of three parameters, one iteration each: a
// prefetch of `w` (the set's one shard buffer beyond the demand fetch's),
// a fetch of each, gradients, a step. `b1` and `b2` share a packed record
// that construction holds while it writes `w`'s three records, so
// construction reaches the record bound (the window, the record being
// filled and the one staged); the CPU pool holds both sets and the
// gradients; once both engines are built, a CPU tenant as large as the
// gradients comes and goes, evicting the images construction cached:
// the shard cache has no room from then on, so the fetches and the
// prefetch read the device and the step publishes through to it.
// Invariants, in every interleaving:
//
//   * no schedule deadlocks, and no acquisition of either set waits;
//   * every schedule ends in the same parameters, on both ranks;
//   * after dispose every buffer of both sets is home and every pool is
//     back at zero.

fn rank_sets_body(seen: &zi_sync::OnceLock<()>, state: &zi_sync::OnceLock<Vec<Vec<u32>>>) {
    use zero_infinity::{NodeEnv, NodeResources, Strategy, ZeroEngine};
    use zi_model::{ParamRegistry, ParamStore};
    use zi_tensor::Tensor;

    // One worker: a pipeline one record deep and a window of two. Records
    // of four elements; a rank's shard of `w` is twelve f32 (three
    // records), of `b1` and `b2` two each (one packed record): four record
    // buffers of 48 B, three pieces of 16 B and two shard buffers of 48 B.
    const SET: u64 = 4 * 48 + 3 * 16 + 2 * 48;
    const GRADS: u64 = 2 * (2 + 12 + 2) * 4;
    let mut reg = ParamRegistry::new();
    reg.register("b1", &[4], 6, 0.0, 1.0);
    reg.register("w", &[24], 5, 0.2, 0.0);
    reg.register("b2", &[4], 7, 0.1, 0.0);
    let reg = Arc::new(reg);
    let spec = NodeMemorySpec::test_spec(2, 1 << 12, GRADS + 2 * SET, 1 << 12);
    let env = NodeEnv { nvme_workers: 1, ..NodeEnv::in_memory() };
    let node = Arc::new(NodeResources::new(&spec, 2, env));
    let strategy = Strategy::infinity_nvme()
        .with_f32_params()
        .with_prefetch_window(1)
        .with_optimizer_chunk(4);
    let ranks: Vec<_> = (0..2)
        .map(|rank| {
            let (node, reg) = (Arc::clone(&node), Arc::clone(&reg));
            thread::spawn(move || {
                let (mgr, comm) = (node.offload_manager(), node.group.communicator(rank));
                let mut eng =
                    ZeroEngine::new(&reg, strategy, mgr, comm, Default::default()).expect("engine");
                let staging = eng.offload_manager().staging().clone();
                assert_eq!(staging.held_bytes(), SET, "rank {rank}: the set is not at its bound");
                let comm = node.group.communicator(rank);
                comm.barrier().expect("barrier");
                if rank == 0 {
                    let tenant = zi_tensor::FlatBuffer::zeros(zi_types::DType::F32, GRADS as usize / 4);
                    let policy = PlacementPolicy::all_nvme();
                    let tenant = eng.offload_manager().store_placed(zi_types::Device::cpu(), &policy, tenant);
                    eng.offload_manager().free_placed(tenant.expect("the gradients' room"));
                }
                comm.barrier().expect("barrier");
                let ids: Vec<_> = reg.iter().map(|meta| (meta.id, meta.numel())).collect();
                eng.hint_upcoming(&[ids[1].0]);
                for &(id, _) in &ids {
                    drop(eng.get(id).expect("fetch"));
                    eng.release(id).expect("release");
                }
                for &(id, n) in &ids {
                    let grad = Tensor::from_vec(&[n], vec![0.25; n]).expect("grad");
                    eng.add_grad(id, &grad).expect("deposit");
                }
                let prefetched = eng.stats().prefetch.issued;
                assert!(eng.step().expect("step"), "rank {rank}: the step was skipped");
                let params: Vec<Vec<u32>> = ids
                    .iter()
                    .map(|&(id, _)| {
                        let values = eng.export_param(id).expect("export");
                        values.data().iter().map(|v| v.to_bits()).collect()
                    })
                    .collect();
                assert_eq!(eng.offload_manager().health().staging_waits, 0, "rank {rank} waited");
                eng.dispose().expect("dispose");
                assert_eq!(staging.outstanding(), 0, "rank {rank}: a buffer was never handed back");
                (params, prefetched)
            })
        })
        .collect();
    let ranks: Vec<_> = ranks.into_iter().map(|rank| rank.join().expect("rank thread")).collect();
    assert_eq!(ranks[0].0, ranks[1].0, "the ranks disagree on the parameters");
    assert_eq!(state.get_or_init(|| ranks[0].0.clone()), &ranks[0].0, "schedules disagree");
    if ranks.iter().any(|(_, prefetched)| *prefetched > 0) {
        let _ = seen.set(());
    }
    for device in [zi_types::Device::cpu(), zi_types::Device::nvme()] {
        assert_eq!(node.hierarchy.stats(device).in_use, 0, "{device}: a charge was lost");
    }
}

#[test]
fn two_ranks_fetch_and_prefetch_through_their_own_staging_sets() {
    let seen = Arc::new(zi_sync::OnceLock::new());
    let state = Arc::new(zi_sync::OnceLock::new());
    let (body_seen, body_state) = (Arc::clone(&seen), Arc::clone(&state));
    // ~3 300 scheduling points per run: 1 100 samples clear the floor.
    let checker = Checker { schedules: 1100, ..Checker::default() };
    drive("rank-staging-sets", checker, move || rank_sets_body(&body_seen, &body_state));
    if zi_check::enabled() {
        assert!(seen.get().is_some(), "no schedule issued a prefetch");
    }
}
