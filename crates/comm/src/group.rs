//! Shared-memory process group and collectives.
//!
//! One OS thread per data-parallel rank. Every collective is a two-barrier
//! exchange through a shared slot table: ranks deposit their contribution,
//! synchronize, read what they need, and synchronize again before the slots
//! can be reused. As in MPI/NCCL, all ranks must issue the same collectives
//! in the same order.
//!
//! The data plane delivers into the consumer's buffer: the `_with` forms
//! hand every rank's contribution (allgather) or the rank-order sum
//! (reduce-scatter, allreduce) to a caller closure as borrowed slices, so
//! a parameter is decoded straight into its compute tensor and a gradient
//! summed straight into its shard. A deposit reuses its slot's capacity;
//! between the two barriers no slot is written, so ranks read under
//! shared locks, concurrently; a world of one borrows the caller's own
//! slice and deposits nothing. The `Vec`-returning forms are thin
//! wrappers over the same bodies.
//!
//! Unlike the first iteration of this module, a rank that *stops* issuing
//! collectives no longer deadlocks the group. Every synchronization point
//! carries a deadline, and the group keeps a shared failed-rank latch:
//!
//! * a rank that dies (fault injection, storage error, panic guard) marks
//!   the group failed, and every in-flight and subsequent collective on
//!   every other rank returns [`zi_types::Error::RankFailed`] immediately
//!   (coordinated abort);
//! * a rank whose peers simply stop arriving times out after the
//!   configured deadline, returns
//!   [`zi_types::Error::CollectiveTimeout`], and marks *itself* failed so
//!   the rest of the group unwinds too.
//!
//! Once failed, a group is permanently broken — recovery means building a
//! new group (see the elastic trainer in `zi-core`), exactly as a real
//! NCCL communicator is torn down and re-initialized after a fault.
//!
//! Groups also retire *voluntarily*: when a [`Membership`](crate::Membership)
//! queues a joining rank, the group latches a resize on the same barrier
//! and every collective returns [`zi_types::Error::MembershipChange`] —
//! same coordinated-unwind mechanics as a failure, but typed so recovery
//! grows the world instead of shrinking it. A failure latched first wins:
//! a broken group never reports a benign resize.

use zi_sync::Arc;
use std::time::Duration;

use zi_sync::time::Instant;
use zi_sync::{Condvar, Mutex, RwLock};
use zi_trace::{Category, Counter, Tracer};
use zi_types::{Error, Rank, Result, WorldSize};

use crate::fault::{CommFaultPlan, CommVerdict};
use crate::membership::Membership;
use crate::partition::{partition_len, partition_range};
use crate::traffic::TrafficStats;

/// Default per-synchronization deadline. Generous: fault-free training
/// never waits anywhere near this long at a barrier, while a wedged peer
/// still surfaces as a typed error instead of an infinite hang.
pub const DEFAULT_COLLECTIVE_DEADLINE: Duration = Duration::from_secs(30);

/// Configuration for a [`CommGroup`]: the per-synchronization deadline
/// and the fault-injection plan consulted at every collective entry.
#[derive(Clone)]
pub struct CommConfig {
    /// Deadline for each barrier crossing inside a collective (a
    /// collective crosses at most two, so a caller waits at most twice
    /// this before a wedged peer surfaces as `CollectiveTimeout`).
    pub deadline: Duration,
    /// Fault plan; the default injects nothing.
    pub faults: CommFaultPlan,
}

impl Default for CommConfig {
    fn default() -> Self {
        CommConfig { deadline: DEFAULT_COLLECTIVE_DEADLINE, faults: CommFaultPlan::new() }
    }
}

/// Deadline-aware generation barrier with a failed-rank latch.
struct SyncState {
    state: Mutex<BarrierState>,
    cv: Condvar,
}

struct BarrierState {
    /// Incremented each time all ranks meet; waiters key on it.
    generation: u64,
    /// Ranks arrived at the current generation.
    arrived: usize,
    /// First rank to die/abort/time out. Latched forever: once set, the
    /// group is broken and every sync returns `RankFailed`.
    failed: Option<Rank>,
    /// Number of ranks queued to join at the next generation. Latched
    /// forever like `failed` (the group is generation-scoped): once set,
    /// every sync returns `MembershipChange` so the whole group retires
    /// and rebuilds at the grown world. `failed` takes precedence.
    resize: Option<usize>,
}

/// One rank's deposit for the collective in flight. Written only by its
/// owner before the first barrier, read by anyone between the barriers.
#[derive(Default)]
struct Slot {
    bytes: Vec<u8>,
    f32s: Vec<f32>,
    /// Logical length of the f32 contribution: `f32s` may be shorter, in
    /// which case it ends in implicit zeros.
    padded_len: usize,
}

/// Elements reduced per consume call: the running sums of one block stay
/// in L1 while every contribution streams through once.
const REDUCE_BLOCK: usize = 1024;

struct Shared {
    world: WorldSize,
    sync: SyncState,
    slots: Vec<RwLock<Slot>>,
    traffic: TrafficStats,
    deadline: Duration,
    faults: CommFaultPlan,
    /// gg-hop spans for every collective, fault-gate events, and
    /// per-tier byte counters.
    tracer: Tracer,
}

impl Shared {
    /// Latch `rank` as failed (first failure wins) and wake all waiters
    /// so they observe it.
    fn mark_failed(&self, rank: Rank) {
        let mut st = self.sync.state.lock();
        if st.failed.is_none() {
            st.failed = Some(rank);
        }
        self.sync.cv.notify_all();
    }

    fn failed(&self) -> Option<Rank> {
        self.sync.state.lock().failed
    }

    /// Latch a membership resize (first one wins) and wake all waiters.
    /// A no-op on a group that already failed: failure precedence means
    /// shrink recovery runs first and the join folds into the generation
    /// after it.
    fn mark_resize(&self, joining: usize) {
        let mut st = self.sync.state.lock();
        if st.failed.is_some() {
            return;
        }
        if st.resize.is_none() {
            st.resize = Some(joining);
        }
        self.sync.cv.notify_all();
    }

    /// Typed error if the group is broken or retiring, checked on every
    /// collective entry. Locks once; failure outranks resize.
    fn halted(&self, context: &str) -> Result<()> {
        let st = self.sync.state.lock();
        match halt_error(&st, context) {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// The error a halted group surfaces, if any: a latched failure first
/// (the group is broken), else a latched resize (the group is retiring).
fn halt_error(st: &BarrierState, context: &str) -> Option<Error> {
    if let Some(r) = st.failed {
        return Some(rank_failed(r, context));
    }
    if let Some(joining) = st.resize {
        return Some(Error::MembershipChange { joining, context: context.into() });
    }
    None
}

fn rank_failed(rank: Rank, context: &str) -> Error {
    Error::RankFailed { rank, context: context.into() }
}

/// A communicator group spanning `world` ranks.
#[derive(Clone)]
pub struct CommGroup {
    shared: Arc<Shared>,
}

impl CommGroup {
    /// Create a group for `world` ranks with the default configuration
    /// (30 s sync deadline, no fault injection).
    pub fn new(world: WorldSize) -> Self {
        Self::with_config(world, CommConfig::default())
    }

    /// Create a group with an explicit deadline and fault plan.
    pub fn with_config(world: WorldSize, config: CommConfig) -> Self {
        Self::with_config_tracer(world, config, Tracer::new())
    }

    /// [`CommGroup::with_config`] recording collective spans and traffic
    /// counters into an externally owned tracer.
    pub fn with_config_tracer(world: WorldSize, config: CommConfig, tracer: Tracer) -> Self {
        assert!(world > 0, "world size must be positive");
        CommGroup {
            shared: Arc::new(Shared {
                world,
                sync: SyncState {
                    state: Mutex::new(BarrierState {
                        generation: 0,
                        arrived: 0,
                        failed: None,
                        resize: None,
                    }),
                    cv: Condvar::new(),
                },
                slots: (0..world).map(|_| RwLock::new(Slot::default())).collect(),
                traffic: TrafficStats::default(),
                deadline: config.deadline,
                faults: config.faults,
                tracer,
            }),
        }
    }

    /// Create a group registered with a [`Membership`]: joins queued on
    /// the membership latch a resize on this group's barrier, retiring it
    /// with [`zi_types::Error::MembershipChange`] on every rank. If joins
    /// are already pending when the group is built (a join raced the
    /// teardown of the previous generation), the resize latches
    /// immediately so the very first collective surfaces it.
    pub fn with_membership(world: WorldSize, config: CommConfig, membership: &Membership) -> Self {
        Self::with_membership_tracer(world, config, Tracer::new(), membership)
    }

    /// [`CommGroup::with_membership`] with an externally owned tracer.
    pub fn with_membership_tracer(
        world: WorldSize,
        config: CommConfig,
        tracer: Tracer,
        membership: &Membership,
    ) -> Self {
        let group = Self::with_config_tracer(world, config, tracer);
        let weak = Arc::downgrade(&group.shared);
        membership.set_observer(Arc::new(move |joining: usize| {
            // Stale observers (a retired generation's group) upgrade to
            // nothing once dropped; a live retired group latching again
            // is harmless — the latch is idempotent.
            if let Some(shared) = weak.upgrade() {
                shared.mark_resize(joining);
            }
        }));
        let pending = membership.pending_joins();
        if pending > 0 {
            group.shared.mark_resize(pending);
        }
        group
    }

    /// Handle for one rank. Each rank's handle must be used by exactly one
    /// thread.
    pub fn communicator(&self, rank: Rank) -> Communicator {
        assert!(rank < self.shared.world, "rank {rank} out of world {}", self.shared.world);
        Communicator { shared: Arc::clone(&self.shared), rank }
    }

    /// All communicators, in rank order — convenient for spawning.
    pub fn communicators(&self) -> Vec<Communicator> {
        (0..self.shared.world).map(|r| self.communicator(r)).collect()
    }

    /// Shared traffic counters.
    pub fn traffic(&self) -> &TrafficStats {
        &self.shared.traffic
    }

    /// World size of the group.
    pub fn world_size(&self) -> WorldSize {
        self.shared.world
    }

    /// The rank whose failure broke this group, if any.
    pub fn failed_rank(&self) -> Option<Rank> {
        self.shared.failed()
    }

    /// Number of joiners whose arrival retired this group, if a resize
    /// latched (and no failure outranked it).
    pub fn pending_resize(&self) -> Option<usize> {
        let st = self.shared.sync.state.lock();
        if st.failed.is_some() { None } else { st.resize }
    }

    /// Mark `rank` as failed on behalf of its thread (coordinated abort
    /// from outside the collectives — e.g. the trainer's panic guard, or
    /// a rank bailing on a storage error mid-step). Peers blocked in a
    /// collective wake immediately with `RankFailed`.
    pub fn abort_rank(&self, rank: Rank) {
        assert!(rank < self.shared.world, "rank {rank} out of world {}", self.shared.world);
        self.shared.mark_failed(rank);
    }
}

/// Per-rank endpoint of a [`CommGroup`].
pub struct Communicator {
    shared: Arc<Shared>,
    rank: Rank,
}

impl Communicator {
    /// This rank.
    #[inline]
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Number of ranks in the group.
    #[inline]
    pub fn world_size(&self) -> WorldSize {
        self.shared.world
    }

    /// Mark this rank failed so every peer unwinds (coordinated abort).
    /// Idempotent; an already-failed group keeps its first failed rank.
    pub fn abort(&self) {
        self.shared.mark_failed(self.rank);
    }

    /// Consult the halt latches (failure, then resize) and the fault plan
    /// before entering a collective. Returns the corruption salt if the
    /// plan wants this rank's contribution corrupted. Latch-before-plan
    /// order means a resize that lands before a scripted fault silently
    /// preempts it — the group is already retiring, so the fault is moot.
    fn admit(&self, context: &'static str) -> Result<Option<u64>> {
        self.shared.halted(context)?;
        let (verdict, delay) = self.shared.faults.judge(self.rank);
        if let Some(d) = delay {
            self.shared.tracer.instant(Category::Retry, "comm.delay", 0, self.rank as u64);
            zi_sync::thread::sleep(d);
        }
        match verdict {
            CommVerdict::Proceed => Ok(None),
            CommVerdict::Corrupt { salt } => {
                self.shared.tracer.instant(Category::Retry, "comm.corrupt", 0, self.rank as u64);
                Ok(Some(salt))
            }
            CommVerdict::Die => {
                self.shared.tracer.instant(Category::Retry, "comm.rank_death", 0, self.rank as u64);
                self.shared.mark_failed(self.rank);
                Err(rank_failed(self.rank, context))
            }
        }
    }

    /// One deadline-aware barrier crossing. On success all `world` ranks
    /// passed together. On failure the group is (now) broken: either a
    /// peer was already latched failed, or this rank timed out waiting
    /// and latched itself.
    fn sync(&self, context: &'static str) -> Result<()> {
        let sh = &self.shared;
        let mut st = sh.sync.state.lock();
        if let Some(e) = halt_error(&st, context) {
            return Err(e);
        }
        st.arrived += 1;
        if st.arrived == sh.world {
            st.arrived = 0;
            st.generation = st.generation.wrapping_add(1);
            sh.sync.cv.notify_all();
            return Ok(());
        }
        let gen = st.generation;
        let deadline = Instant::now() + sh.deadline;
        loop {
            if st.generation != gen {
                // The barrier completed; a failure or resize latched
                // *after* it does not retract data already exchanged —
                // the next collective will surface it.
                return Ok(());
            }
            if let Some(e) = halt_error(&st, context) {
                return Err(e);
            }
            let now = Instant::now();
            if now >= deadline {
                // Coordinated abort: latch ourselves failed so the peers
                // that *are* still alive unwind instead of waiting out
                // their own deadlines one collective at a time.
                if st.failed.is_none() {
                    st.failed = Some(self.rank);
                }
                sh.sync.cv.notify_all();
                return Err(Error::CollectiveTimeout {
                    context: context.into(),
                    deadline: sh.deadline,
                });
            }
            sh.sync.cv.wait_for(&mut st, deadline - now);
        }
    }

    /// Synchronize all ranks.
    pub fn barrier(&self) -> Result<()> {
        self.admit("barrier")?;
        self.sync("barrier")
    }

    /// The two-barrier exchange under every collective: `deposit` this
    /// rank's contribution into its slot (when some rank will read it
    /// from there), synchronize, `consume` the slots, and synchronize
    /// again before any slot can be rewritten. A failing `consume`
    /// latches the group failed: this rank will never reach the second
    /// barrier, and its peers must not wait out the deadline to learn it.
    fn exchange<T>(
        &self,
        context: &'static str,
        deposit: Option<impl FnOnce(&mut Slot)>,
        consume: impl FnOnce(&[RwLock<Slot>]) -> Result<T>,
    ) -> Result<T> {
        let sh = &self.shared;
        if let Some(deposit) = deposit {
            deposit(&mut sh.slots[self.rank].write());
        }
        self.sync(context)?;
        let out = consume(&sh.slots).inspect_err(|_| sh.mark_failed(self.rank))?;
        self.sync(context)?;
        Ok(out)
    }

    /// True when this rank's contribution must go through its slot: a
    /// peer will read it, or the fault plan wants it corrupted in place.
    /// Otherwise (a world of one) the caller's own slice is the only
    /// contribution and is borrowed as is.
    fn deposits(&self, corrupt: Option<u64>) -> bool {
        self.shared.world > 1 || corrupt.is_some()
    }

    /// Broadcast `data` from `root` to every rank. Non-root callers pass
    /// any slice (ignored) and receive the root's bytes.
    pub fn broadcast_bytes(&self, root: Rank, data: &[u8]) -> Result<Vec<u8>> {
        assert!(root < self.shared.world, "broadcast root out of range");
        let mut span = self.shared.tracer.span(Category::Allgather, "gg.broadcast");
        span.set_id(self.rank as u64);
        let corrupt = self.admit("broadcast")?;
        let deposit = (self.rank == root).then(|| deposit_bytes(data, corrupt));
        let out = self.exchange("broadcast", deposit, |slots| Ok(slots[root].read().bytes.clone()))?;
        if self.rank == root {
            // Logical ring broadcast: root's payload traverses w-1 links.
            let bytes = out.len() as u64 * (self.shared.world as u64 - 1);
            self.shared.traffic.record(&self.shared.traffic.broadcast_bytes, bytes);
            span.set_bytes(bytes);
            self.shared.tracer.count(Counter::GgBytes, bytes);
        }
        Ok(out)
    }

    /// Gather every rank's `shard`: `consume(rank, bytes)` is called once
    /// per rank, in rank order, with that rank's contribution borrowed —
    /// the caller decodes or copies it straight into its own buffer. An
    /// error from `consume` (say, a contribution of the wrong length)
    /// fails the collective on every rank.
    pub fn allgather_with(
        &self,
        shard: &[u8],
        mut consume: impl FnMut(Rank, &[u8]) -> Result<()>,
    ) -> Result<()> {
        let mut span = self.shared.tracer.span(Category::Allgather, "gg.allgather");
        span.set_id(self.rank as u64);
        let corrupt = self.admit("allgather")?;
        let deposit = self.deposits(corrupt).then(|| deposit_bytes(shard, corrupt));
        let deposited = deposit.is_some();
        // Each rank receives (w-1) shards; count this rank's received bytes.
        let mut bytes = 0u64;
        self.exchange("allgather", deposit, |slots| {
            if !deposited {
                return consume(self.rank, shard);
            }
            for (rank, slot) in slots.iter().enumerate() {
                let slot = slot.read();
                if rank != self.rank {
                    bytes += slot.bytes.len() as u64;
                }
                consume(rank, &slot.bytes)?;
            }
            Ok(())
        })?;
        self.shared.traffic.record(&self.shared.traffic.allgather_bytes, bytes);
        span.set_bytes(bytes);
        self.shared.tracer.count(Counter::GgBytes, bytes);
        Ok(())
    }

    /// Gather every rank's `shard` and concatenate in rank order.
    pub fn allgather_bytes(&self, shard: &[u8]) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(shard.len() * self.shared.world);
        self.allgather_with(shard, |_, bytes| {
            out.extend_from_slice(bytes);
            Ok(())
        })?;
        Ok(out)
    }

    /// The body of reduce-scatter (`scatter`) and allreduce: element `i`
    /// of the result is `((0.0 + s₀[i]) + s₁[i]) + …` over the ranks'
    /// contributions in rank order. `consume(at, sums)` receives the
    /// reduced elements `[at, at + sums.len())` of this rank's range —
    /// its partition of `padded_len` when scattering, everything
    /// otherwise — one block at a time, in order. Every rank must pass
    /// the same `padded_len`; a contribution shorter than that ends in
    /// implicit zeros.
    fn reduce_with(
        &self,
        scatter: bool,
        data: &[f32],
        padded_len: usize,
        mut consume: impl FnMut(usize, &[f32]) -> Result<()>,
    ) -> Result<()> {
        let sh = &self.shared;
        let (name, context) =
            if scatter { ("gg.reduce_scatter", "reduce_scatter") } else { ("gg.allreduce", "allreduce") };
        let mut span = sh.tracer.span(Category::ReduceScatter, name);
        span.set_id(self.rank as u64);
        let corrupt = self.admit(context)?;
        let deposit = self.deposits(corrupt).then_some(|slot: &mut Slot| {
            slot.f32s.clear();
            slot.f32s.extend_from_slice(data);
            slot.padded_len = padded_len;
            if let Some(salt) = corrupt {
                // The flipped bit is chosen over the padded contribution.
                slot.f32s.resize(padded_len, 0.0);
                corrupt_f32s(&mut slot.f32s, salt);
            }
        });
        let deposited = deposit.is_some();
        let range = if scatter { partition_range(padded_len, sh.world, self.rank) } else { 0..padded_len };
        self.exchange(context, deposit, |slots| {
            if data.len() > padded_len {
                return Err(Error::shape(format!(
                    "{context}: contribution of {} elements exceeds its padded length {padded_len}",
                    data.len()
                )));
            }
            let guards: Vec<_> =
                if deposited { slots.iter().map(|slot| slot.read()).collect() } else { Vec::new() };
            if let Some(peer) = guards.iter().position(|slot| slot.padded_len != padded_len) {
                return Err(Error::shape(format!(
                    "{context}: rank {peer} contributes {} elements, rank {} expects {padded_len}",
                    guards[peer].padded_len, self.rank
                )));
            }
            let contribs: Vec<&[f32]> =
                if deposited { guards.iter().map(|slot| &slot.f32s[..]).collect() } else { vec![data] };
            let mut sums = [0f32; REDUCE_BLOCK];
            for at in range.clone().step_by(REDUCE_BLOCK) {
                let end = range.end.min(at + REDUCE_BLOCK);
                let sums = &mut sums[..end - at];
                sums.fill(0.0);
                for contrib in &contribs {
                    let present = &contrib[at.min(contrib.len())..end.min(contrib.len())];
                    for (sum, v) in sums.iter_mut().zip(present) {
                        *sum += v;
                    }
                }
                consume(at - range.start, sums)?;
            }
            Ok(())
        })?;
        let moved = (padded_len * 4) as u64 * (sh.world as u64 - 1) / sh.world as u64;
        let (counter, bytes) = if scatter {
            (&sh.traffic.reduce_scatter_bytes, moved)
        } else {
            (&sh.traffic.allreduce_bytes, 2 * moved)
        };
        sh.traffic.record(counter, bytes);
        span.set_bytes(bytes);
        sh.tracer.count(Counter::RsBytes, bytes);
        Ok(())
    }

    /// Element-wise sum of every rank's `data` (at most `padded_len`
    /// elements, implicitly zero-padded to it; every rank passes the same
    /// `padded_len`), delivering this rank's partition of the reduced
    /// vector (per [`partition_range`]) to `consume(at, sums)` block by
    /// block, in order — the caller accumulates it straight into its own
    /// buffer. A length disagreement, or an error from `consume`, fails
    /// the collective on every rank.
    pub fn reduce_scatter_with(
        &self,
        data: &[f32],
        padded_len: usize,
        consume: impl FnMut(usize, &[f32]) -> Result<()>,
    ) -> Result<()> {
        self.reduce_with(true, data, padded_len, consume)
    }

    /// Element-wise sum of every rank's equal-length `data`, delivering
    /// the whole reduced vector to `consume(at, sums)` block by block,
    /// in order, on every rank.
    pub fn allreduce_with(
        &self,
        data: &[f32],
        consume: impl FnMut(usize, &[f32]) -> Result<()>,
    ) -> Result<()> {
        self.reduce_with(false, data, data.len(), consume)
    }

    /// Element-wise sum of every rank's equal-length `data`, returning this
    /// rank's partition of the reduced vector (per [`partition_range`]).
    pub fn reduce_scatter_sum(&self, data: &[f32]) -> Result<Vec<f32>> {
        let mut out = Vec::with_capacity(partition_len(data.len(), self.shared.world, self.rank));
        self.reduce_scatter_with(data, data.len(), |_, sums| {
            out.extend_from_slice(sums);
            Ok(())
        })?;
        Ok(out)
    }

    /// Element-wise sum across ranks, leaving the full reduced vector in
    /// `data` on every rank. On error `data` is left unchanged.
    pub fn allreduce_sum(&self, data: &mut [f32]) -> Result<()> {
        let mut out = Vec::with_capacity(data.len());
        self.allreduce_with(data, |_, sums| {
            out.extend_from_slice(sums);
            Ok(())
        })?;
        data.copy_from_slice(&out);
        Ok(())
    }

    /// Sum a scalar across ranks (e.g. for loss averaging).
    pub fn sum_scalar(&self, v: f32) -> Result<f32> {
        let mut out = 0.0;
        self.allreduce_with(&[v], |_, sums| {
            out = sums[0];
            Ok(())
        })?;
        Ok(out)
    }

    /// Shared traffic counters.
    pub fn traffic_total_bytes(&self) -> u64 {
        self.shared.traffic.total_bytes()
    }
}

/// The deposit of a byte contribution: into the slot's reused capacity,
/// with the fault plan's bit flip applied to the deposited copy.
fn deposit_bytes(data: &[u8], corrupt: Option<u64>) -> impl FnOnce(&mut Slot) + '_ {
    move |slot| {
        slot.bytes.clear();
        slot.bytes.extend_from_slice(data);
        if let Some(salt) = corrupt {
            corrupt_bytes(&mut slot.bytes, salt);
        }
    }
}

/// Flip one bit of `data` chosen from `salt` (injected silent corruption).
fn corrupt_bytes(data: &mut [u8], salt: u64) {
    if data.is_empty() {
        return;
    }
    let byte = (salt as usize / 8) % data.len();
    data[byte] ^= 1 << (salt % 8);
}

/// Flip one mantissa/sign bit of one element of `data`.
fn corrupt_f32s(data: &mut [f32], salt: u64) {
    if data.is_empty() {
        return;
    }
    let i = (salt as usize / 32) % data.len();
    data[i] = f32::from_bits(data[i].to_bits() ^ (1 << (salt % 32)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use zi_sync::atomic::{AtomicU64, Ordering};
    use zi_sync::thread;

    /// Run `f(rank, comm)` on one thread per rank of `group` and collect
    /// results in rank order.
    fn run_group<T: Send + 'static>(
        group: &CommGroup,
        f: impl Fn(Rank, Communicator) -> T + Send + Sync + 'static,
    ) -> Vec<T> {
        let f = Arc::new(f);
        let mut handles = Vec::new();
        for (rank, comm) in group.communicators().into_iter().enumerate() {
            let f = Arc::clone(&f);
            handles.push(thread::spawn(move || f(rank, comm)));
        }
        handles.into_iter().map(|h| h.join().expect("rank thread")).collect()
    }

    /// Run `f(rank, comm)` on one thread per rank of a default group.
    fn run_ranks<T: Send + 'static>(
        world: usize,
        f: impl Fn(Rank, Communicator) -> T + Send + Sync + 'static,
    ) -> Vec<T> {
        run_group(&CommGroup::new(world), f)
    }

    #[test]
    fn broadcast_delivers_root_payload() {
        let results = run_ranks(4, |rank, comm| {
            let payload = if rank == 2 { vec![9u8, 8, 7] } else { vec![] };
            comm.broadcast_bytes(2, &payload).unwrap()
        });
        for r in results {
            assert_eq!(r, vec![9, 8, 7]);
        }
    }

    #[test]
    fn allgather_concatenates_in_rank_order() {
        let results = run_ranks(3, |rank, comm| {
            let shard = vec![rank as u8; 2];
            comm.allgather_bytes(&shard).unwrap()
        });
        for r in results {
            assert_eq!(r, vec![0, 0, 1, 1, 2, 2]);
        }
    }

    #[test]
    fn reduce_scatter_sums_and_partitions() {
        let world = 4;
        let results = run_ranks(world, move |rank, comm| {
            // Each rank contributes [rank, rank, ...] of length 8.
            let data = vec![rank as f32; 8];
            (rank, comm.reduce_scatter_sum(&data).unwrap())
        });
        // Sum over ranks of constant vectors = 0+1+2+3 = 6 everywhere;
        // each rank gets 2 elements.
        for (rank, part) in results {
            assert_eq!(part.len(), 2, "rank {rank}");
            assert!(part.iter().all(|&v| v == 6.0));
        }
    }

    #[test]
    fn allreduce_gives_identical_full_vectors() {
        let results = run_ranks(3, |rank, comm| {
            let mut data: Vec<f32> = (0..5).map(|i| (rank * 10 + i) as f32).collect();
            comm.allreduce_sum(&mut data).unwrap();
            data
        });
        let expect: Vec<f32> = (0..5).map(|i| (10 + 20 + 3 * i) as f32).collect();
        for r in results {
            assert_eq!(r, expect);
        }
    }

    #[test]
    fn sum_scalar_across_ranks() {
        let results = run_ranks(5, |rank, comm| comm.sum_scalar(rank as f32).unwrap());
        for r in results {
            assert_eq!(r, 10.0);
        }
    }

    #[test]
    fn consecutive_collectives_do_not_interfere() {
        let results = run_ranks(4, |rank, comm| {
            let mut out = Vec::new();
            for round in 0..10u8 {
                let shard = vec![rank as u8 ^ round; 1];
                out.push(comm.allgather_bytes(&shard).unwrap());
                let mut v = vec![1.0f32];
                comm.allreduce_sum(&mut v).unwrap();
                assert_eq!(v[0], 4.0);
            }
            out
        });
        for r in results {
            for (round, gathered) in r.iter().enumerate() {
                let expect: Vec<u8> = (0..4).map(|k| k as u8 ^ round as u8).collect();
                assert_eq!(gathered, &expect);
            }
        }
    }

    #[test]
    fn world_of_one_is_trivial() {
        let results = run_ranks(1, |_, comm| {
            let g = comm.allgather_bytes(&[5, 6]).unwrap();
            let rs = comm.reduce_scatter_sum(&[1.0, 2.0]).unwrap();
            let mut ar = vec![3.0];
            comm.allreduce_sum(&mut ar).unwrap();
            (g, rs, ar)
        });
        assert_eq!(results[0], (vec![5, 6], vec![1.0, 2.0], vec![3.0]));
    }

    #[test]
    fn traffic_counters_accumulate() {
        let group = CommGroup::new(2);
        let comms = group.communicators();
        let mut handles = Vec::new();
        for comm in comms {
            handles.push(thread::spawn(move || {
                comm.allgather_bytes(&[0u8; 100]).unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Each of the 2 ranks received 100 bytes from the other.
        let (ag, _, _, _, n) = group.traffic().snapshot();
        assert_eq!(ag, 200);
        assert_eq!(n, 2);
    }

    #[test]
    fn barrier_orders_phases() {
        // All ranks increment a counter before the barrier; after it, every
        // rank must observe the full count.
        let counter = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&counter);
        let results = run_ranks(8, move |_, comm| {
            c2.fetch_add(1, Ordering::SeqCst);
            comm.barrier().unwrap();
            c2.load(Ordering::SeqCst)
        });
        assert!(results.iter().all(|&v| v == 8));
    }

    #[test]
    fn scripted_rank_kill_surfaces_on_every_rank() {
        // Kill rank 1 at its 3rd collective: every rank — victim and
        // survivors alike — gets a typed RankFailed{1}, promptly, with a
        // deadline far longer than the test is allowed to run.
        let plan = CommFaultPlan::new();
        plan.kill_rank_after_ops(1, 2);
        let group = CommGroup::with_config(
            3,
            CommConfig { deadline: Duration::from_secs(30), faults: plan },
        );
        assert_eq!(group.failed_rank(), None);
        let start = Instant::now();
        let results = run_group(&group, |_, comm| {
            for i in 0..10 {
                let mut v = vec![1.0f32; 4];
                if let Err(e) = comm.allreduce_sum(&mut v) {
                    return (i, e);
                }
            }
            panic!("the kill must surface within 10 collectives");
        });
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "failure must propagate without waiting out the deadline"
        );
        for (_, e) in &results {
            match e {
                Error::RankFailed { rank: 1, .. } => {}
                other => panic!("expected RankFailed{{1}}, got {other}"),
            }
        }
        // The victim dies on entry to its 3rd collective; survivors
        // discover the failure at the same collective's barrier.
        assert_eq!(results[1].0, 2, "victim dies at its 3rd collective");
        assert_eq!(group.failed_rank(), Some(1));
    }

    #[test]
    fn broken_group_fails_fast_forever() {
        let group = CommGroup::new(2);
        group.abort_rank(0);
        let results = run_group(&group, |_, comm| {
            let a = comm.barrier().unwrap_err();
            let b = comm.allgather_bytes(&[1]).unwrap_err();
            let c = comm.sum_scalar(1.0).unwrap_err();
            [a, b, c]
        });
        for errs in results {
            for e in errs {
                assert!(matches!(e, Error::RankFailed { rank: 0, .. }), "got {e}");
            }
        }
    }

    #[test]
    fn deserted_rank_times_out_and_latches_failure() {
        // Rank 1 never shows up: rank 0 must time out with a typed error
        // (not hang) and latch itself failed for coordinated abort.
        let deadline = Duration::from_millis(100);
        let group = CommGroup::with_config(
            2,
            CommConfig { deadline, faults: CommFaultPlan::new() },
        );
        let comm = group.communicator(0);
        let start = Instant::now();
        let err = comm.barrier().unwrap_err();
        assert!(start.elapsed() >= deadline);
        assert!(
            matches!(err, Error::CollectiveTimeout { .. }),
            "expected CollectiveTimeout, got {err}"
        );
        assert_eq!(group.failed_rank(), Some(0), "timed-out rank latches itself failed");
        // The deserter, were it to arrive now, fails fast.
        let late = group.communicator(1);
        assert!(matches!(late.barrier().unwrap_err(), Error::RankFailed { rank: 0, .. }));
    }

    #[test]
    fn abort_wakes_blocked_peers() {
        // Rank 0 blocks in a barrier; rank 1 aborts without ever entering
        // a collective. Rank 0 must wake with RankFailed{1} well before
        // its deadline.
        let group = CommGroup::with_config(
            2,
            CommConfig { deadline: Duration::from_secs(30), faults: CommFaultPlan::new() },
        );
        let c0 = group.communicator(0);
        let c1 = group.communicator(1);
        let h = thread::spawn(move || c0.barrier());
        thread::sleep(Duration::from_millis(20));
        c1.abort();
        let err = h.join().unwrap().unwrap_err();
        assert!(matches!(err, Error::RankFailed { rank: 1, .. }), "got {err}");
    }

    #[test]
    fn join_retires_group_without_failure() {
        // A join queued mid-run surfaces as MembershipChange on every
        // rank — promptly, typed, and without marking anything failed.
        let membership = Membership::new(3);
        let group = CommGroup::with_membership(
            3,
            CommConfig { deadline: Duration::from_secs(30), faults: CommFaultPlan::new() },
            &membership,
        );
        let m2 = membership.clone();
        let gate = Arc::new(AtomicU64::new(0));
        let g2 = Arc::clone(&gate);
        let start = Instant::now();
        let results = run_group(&group, move |rank, comm| {
            for i in 0..100 {
                // One rank injects the join after the second round has
                // definitely started everywhere.
                if rank == 0 && i == 2 && g2.swap(1, Ordering::SeqCst) == 0 {
                    m2.request_join();
                }
                let mut v = vec![1.0f32; 4];
                if let Err(e) = comm.allreduce_sum(&mut v) {
                    return e;
                }
            }
            panic!("the join must retire the group well within 100 collectives");
        });
        assert!(start.elapsed() < Duration::from_secs(5), "resize must not wait out deadlines");
        for e in &results {
            assert!(e.is_membership_change(), "expected MembershipChange, got {e}");
            assert!(!e.is_rank_failure(), "a grow must not classify as a rank death");
        }
        assert_eq!(group.failed_rank(), None);
        assert_eq!(group.pending_resize(), Some(1));
        // Recovery folds the join into the next generation.
        assert_eq!(membership.next_generation(3), (1, 4));
    }

    #[test]
    fn pending_join_latches_at_group_construction() {
        // A join that raced the previous generation's teardown is caught
        // when the next group is built: its first collective retires it.
        let membership = Membership::new(2);
        membership.request_join();
        let group = CommGroup::with_membership(2, CommConfig::default(), &membership);
        assert_eq!(group.pending_resize(), Some(1));
        let err = group.communicator(0).barrier().unwrap_err();
        assert!(matches!(err, Error::MembershipChange { joining: 1, .. }), "got {err}");
    }

    #[test]
    fn join_wakes_blocked_peers() {
        // Rank 0 blocks in a barrier; a join arrives from outside. Rank 0
        // must wake with MembershipChange well before its deadline.
        let membership = Membership::new(2);
        let group = CommGroup::with_membership(
            2,
            CommConfig { deadline: Duration::from_secs(30), faults: CommFaultPlan::new() },
            &membership,
        );
        let c0 = group.communicator(0);
        let h = thread::spawn(move || c0.barrier());
        thread::sleep(Duration::from_millis(20));
        let start = Instant::now();
        membership.request_join();
        let err = h.join().unwrap().unwrap_err();
        assert!(start.elapsed() < Duration::from_secs(5));
        assert!(err.is_membership_change(), "got {err}");
    }

    #[test]
    fn failure_outranks_resize() {
        // A group broken by a rank death stays broken: a join queued
        // afterwards does not relabel the error, and the queue survives
        // for the generation after the shrink.
        let membership = Membership::new(2);
        let group = CommGroup::with_membership(2, CommConfig::default(), &membership);
        group.abort_rank(1);
        membership.request_join();
        let err = group.communicator(0).barrier().unwrap_err();
        assert!(matches!(err, Error::RankFailed { rank: 1, .. }), "got {err}");
        assert_eq!(group.pending_resize(), None);
        assert_eq!(membership.pending_joins(), 1, "the join stays queued across the shrink");
        // Shrink to 1 survivor, then the join folds in: world is 2 again.
        assert_eq!(membership.next_generation(1), (1, 2));
    }

    #[test]
    fn scripted_delay_is_benign() {
        let plan = CommFaultPlan::new();
        plan.delay_next_ops(0, 1, Duration::from_millis(20));
        let group = CommGroup::with_config(
            2,
            CommConfig { deadline: Duration::from_secs(30), faults: plan.clone() },
        );
        let start = Instant::now();
        let results = run_group(&group, |rank, comm| comm.sum_scalar(rank as f32).unwrap());
        assert_eq!(results, vec![1.0, 1.0]);
        assert!(start.elapsed() >= Duration::from_millis(15));
        assert_eq!(plan.injected().delays, 1);
    }

    #[test]
    fn scripted_corruption_changes_the_payload() {
        // A corrupted contribution silently changes the collective's
        // result on every rank — the taxonomy's "silent" class, which
        // end-to-end checks (loss-scale overflow skips, checkpoint CRCs)
        // must catch downstream. Uses allgather so the flipped bit cannot
        // be absorbed by float rounding.
        let run = |corrupt: bool| {
            let plan = CommFaultPlan::new();
            if corrupt {
                plan.corrupt_next_ops(0, 1);
            }
            let group = CommGroup::with_config(
                2,
                CommConfig { deadline: Duration::from_secs(30), faults: plan.clone() },
            );
            let out = run_group(&group, |_, comm| comm.allgather_bytes(&[0u8; 16]).unwrap());
            (out, plan.injected().corruptions)
        };
        let (clean, n0) = run(false);
        let (dirty, n1) = run(true);
        assert_eq!(n0, 0);
        assert_eq!(n1, 1);
        assert_eq!(clean[0], clean[1], "allgather output identical across ranks");
        assert_eq!(dirty[0], dirty[1], "corruption is consistent across ranks");
        assert_ne!(clean, dirty, "a flipped contribution bit must change the gather");
        assert_eq!(
            dirty[0].iter().filter(|&&b| b != 0).count(),
            1,
            "exactly one bit flipped in exactly one byte"
        );
    }
}
