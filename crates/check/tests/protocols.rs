//! Model-check harnesses for the workspace's real concurrency
//! protocols: the generation barrier under scripted rank death, the
//! membership join handshake racing that death and the collectives'
//! slot table (`zi-comm`), the write-behind engine's completion barrier and
//! staging-buffer hand-back and the checkpoint store's
//! `save_async`/crash/`open` recovery (`zi-nvme`), the buffer pools
//! (`zi-memory`), and the node-shared shard cache (`zero-infinity`).
//!
//! Under `RUSTFLAGS="--cfg zi_check"` each body is explored across
//! thousands of distinct interleavings with deadlock, lost-wakeup, and
//! data-race detection; failures print a replayable seed/trace. In a
//! passthrough build the same bodies run once on real primitives, so
//! this file doubles as a plain concurrency smoke test.

use zi_sync::Arc;
use std::time::Duration;

use zi_check::{Checker, Report};
use zi_comm::{CommConfig, CommFaultPlan, CommGroup, Membership};
use zi_memory::{PinnedBufferPool, PlacementPolicy, ScratchPool};
use zi_nvme::{
    CheckpointStore, FaultPlan, FaultyBackend, MemBackend, NvmeEngine, RetryPolicy, StorageBackend,
};
use zi_sync::thread;
use zi_trace::{Category, Event, Ring};
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
    let group = CommGroup::with_config(
        2,
        CommConfig { deadline: Duration::from_secs(30), faults: plan },
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
// is handed back exactly once (the pool ends with nothing outstanding
// and every buffer it ever allocated parked).

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
    let eng = Arc::new(NvmeEngine::with_policy(
        backend as Arc<dyn StorageBackend>,
        1,
        RetryPolicy::none(),
    ));
    let pool = ScratchPool::new();
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
        let ticket = eng.submit_write_from(i * 8, pool.acquire(8));
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
    let refused = eng.submit_read_into(0, pool.acquire(8));
    assert!(matches!(eng.wait_buf(refused), Err(Error::Internal(_))));
    eng.barrier().expect("barrier on a stopped engine");
    assert_eq!(pool.outstanding(), 0, "a staging buffer was never handed back");
    assert_eq!(pool.idle() as u64, pool.stats().allocated, "a staging buffer was lost");
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
// Invariant: a single-buffer pinned pool hands its buffer to both
// threads (one blocks on the condvar until the other returns it),
// bookkeeping balances, and the scratch pool recycles without losing
// vectors — no deadlock, no lost wakeup, no race on the counters.

fn pool_checkout_body() {
    let pool = PinnedBufferPool::new(1, 4);
    let scratch = ScratchPool::new();
    let (p2, s2) = (pool.clone(), scratch.clone());
    let t = thread::spawn(move || {
        let mut b = p2.acquire();
        b.as_mut_slice()[0] ^= 0xff;
        let mut v = s2.acquire(4);
        v.as_f32_mut()[0] = 1.0;
    });
    {
        let mut b = pool.acquire();
        b.as_mut_slice()[0] ^= 0xff;
        let mut v = scratch.acquire(4);
        v.as_f32_mut()[0] = 2.0;
    }
    t.join().expect("contending thread");
    assert_eq!(pool.outstanding(), 0, "a checkout was never returned");
    assert_eq!(pool.total_acquires(), 2);
    assert_eq!(pool.acquire().as_slice()[0], 0, "both threads saw the same buffer");
    let st = scratch.stats();
    assert_eq!(st.allocated + st.reused, 2);
    assert_eq!(scratch.idle(), st.allocated as usize, "every scratch vector came home");
}

#[test]
fn pools_checkout_return_race_free() {
    run_exhaustive("pool-checkout-return", pool_checkout_body);
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
    let group = CommGroup::with_membership(
        2,
        CommConfig { deadline: Duration::from_secs(30), faults: plan },
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
// crosses a second barrier before any slot may be rewritten. Invariants,
// in every interleaving:
//
//   * a consumer of collective k sees exactly collective k's
//     contributions — no rank reads before every deposit landed (first
//     barrier), and no owner rewrites its slot for k+1 while a peer is
//     still reading k (second barrier); the rounds differ in every byte
//     and in length, so a misordered read cannot go unnoticed;
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
    let group = CommGroup::with_config(
        2,
        CommConfig { deadline: Duration::from_secs(30), faults: CommFaultPlan::new() },
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
                // Rank 1 dies mid-consume; rank 0 consumes cleanly.
                comm.reduce_scatter_with(&[1.0, 2.0], 2, |_, sums| {
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
// Protocol 10: the node-shared shard cache — admit, publish, write back,
// evict.
//
// Rank A owns a parameter shard on the NVMe tier: it fetches it (a miss
// fills the cache by moving the verified staging buffer in), fetches it
// again, and publishes new values over it. While the pool has room the
// publish is write-back: its image takes over the old entry's charge and
// becomes a dirty entry, the only current copy, the device still holding
// the bytes it superseded; without room it is written through. Rank B
// meanwhile stores a CPU tenant the pool has no room for while the cache
// holds A's shard, so in some schedules its store must evict — writing
// A's dirty image back first, or taking the charge of A's publish in
// flight, which then writes its image back as it finishes.
// Invariants, in every interleaving:
//
//   * a fetch returns the shard's current image, whole — never a torn
//     entry, never the image a publish has superseded — whether the cache
//     serves it or the device after a write-back: the last publish is
//     current, and every device read of it verifies;
//   * bytes a reader holds stay intact across an eviction or an
//     invalidation of their entry (no use-after-evict);
//   * B's store succeeds — by eviction when the cache is in its way —
//     and is never `Error::OutOfMemory`;
//   * when both are done every pool is back at zero: no charge is lost
//     between the cache's lock, the checksum registry's and the pool's.

fn shard_cache_body(seen: &[zi_sync::OnceLock<()>; 3]) {
    use zero_infinity::{NodeEnv, NodeResources, WriteBehind};
    use zi_memory::NodeMemorySpec;
    use zi_tensor::FlatBuffer;
    use zi_types::{DType, Device};

    const ELEMS: usize = 8;
    let image = |round: usize| -> Vec<f32> { (0..ELEMS).map(|i| (round * 100 + i) as f32).collect() };
    let stored = |vals: &[f32]| FlatBuffer::from_f32(DType::F32, vals);
    // Room for the shard's cache entry or for B's tenant, not for both.
    let shard_bytes = (ELEMS * 4) as u64;
    let spec = NodeMemorySpec::test_spec(2, 1 << 10, shard_bytes + 8, 1 << 12);
    let env = NodeEnv { pinned: (2, 64), nvme_workers: 1, ..NodeEnv::in_memory() };
    let node = Arc::new(NodeResources::new(&spec, 2, env));
    // B's tenant arrives once the cache holds A's shard: from then on its
    // store races everything A does.
    let (filled, wait_filled) = zi_sync::channel::unbounded::<()>();

    let rank_a = {
        let node = Arc::clone(&node);
        thread::spawn(move || {
            let mgr = node.offload_manager();
            let policy = PlacementPolicy::all_nvme();
            let mut shard = mgr.store_placed(Device::nvme(), &policy, stored(&image(0))).expect("store");
            for round in 0..2 {
                let want = stored(&image(round));
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
                let pushed = image(round + 1)
                    .chunks(ELEMS / 2)
                    .try_for_each(|c| publish.push_values(&mut wb, &mut shard, c));
                wb.drain(&mgr).expect("drain");
                pushed.and_then(|()| publish.finish(&shard)).expect("publish");
            }
            let last = mgr.fetch_placed(&shard).expect("fetch");
            assert_eq!(last.as_bytes(), stored(&image(2)).as_bytes(), "the last publish is current");
            drop(last);
            mgr.free_placed(shard);
        })
    };
    let rank_b = {
        let node = Arc::clone(&node);
        thread::spawn(move || {
            let mgr = node.offload_manager();
            wait_filled.recv().expect("rank A fills first");
            let tenant = mgr
                .store_placed(Device::cpu(), &PlacementPolicy::all_nvme(), stored(&[0.0; ELEMS]))
                .expect("a store that fits without the cache fits with it");
            thread::yield_now();
            mgr.free_placed(tenant);
        })
    };
    rank_a.join().expect("rank A");
    rank_b.join().expect("rank B");
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
