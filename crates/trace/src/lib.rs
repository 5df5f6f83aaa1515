#![warn(missing_docs)]

//! `zi-trace`: lightweight, always-on structured tracing for the
//! three-hop offload pipeline.
//!
//! The paper's performance story is overlap-centric: the nc (NVMe→CPU),
//! cg (CPU→GPU), and gg (allgather) hops must hide behind compute
//! (Sec. 6). This crate is the measurement layer that makes overlap
//! *observable*: every concurrent subsystem records typed spans into a
//! lock-free per-thread ring buffer, a [`Tracer`] drains the rings into
//! a [`TraceSink`], and [`report::OverlapReport`] folds the spans into
//! per-step overlap efficiency (`io_hidden / io_busy` per hop) and
//! effective per-tier bandwidth. [`export::chrome_trace_json`] emits the
//! same spans as `chrome://tracing` JSON.
//!
//! Design constraints, in order:
//!
//! * **Cheap enough to leave on.** Recording a span is two atomic
//!   operations plus one slot write into a fixed-capacity ring owned by
//!   the recording thread — no locks, no allocation, no syscalls. A full
//!   ring drops (and counts) events rather than blocking the hot path.
//! * **Virtual-clock friendly.** Timestamps come from
//!   [`zi_sync::time::Instant`], so spans recorded inside a `zi-check`
//!   model run use the model's deterministic virtual clock.
//! * **Model-checkable.** The ring's single-producer/single-consumer
//!   hand-off is written against [`zi_sync::RaceCell`] slots and
//!   `zi_sync` atomics, so the `zi-check` race detector verifies the
//!   acquire/release protocol that makes draining safe (see the
//!   `trace_ring_drain` harness in `crates/check`).

use std::cell::RefCell;
use zi_sync::{Arc, Weak};

use zi_sync::atomic::{AtomicU64, Ordering};
use zi_sync::{Mutex, RaceCell};

pub mod export;
pub mod report;

/// Name of the per-step envelope span the trainer records around one
/// optimizer step (category [`Category::Compute`], `id` = step number).
///
/// Envelope spans delimit steps for [`report::OverlapReport`] and are
/// *excluded* from the compute union there — they contain the step's
/// I/O, so counting them as compute would make every hop look perfectly
/// hidden.
pub const STEP_SPAN: &str = "train_step";

/// Default per-thread ring capacity, in events.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// Typed event categories, one per pipeline hop plus the phases that
/// hide them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Category {
    /// NVMe↔CPU transfer (the nc hop); reads and writes.
    NcTransfer,
    /// CPU↔GPU transfer (the cg hop).
    CgTransfer,
    /// Allgather-family collective traffic (the gg hop).
    Allgather,
    /// Reduce-scatter-family collective traffic (gradient reduction).
    ReduceScatter,
    /// Forward/backward or optimizer arithmetic.
    #[default]
    Compute,
    /// Optimizer-step phase marker.
    OptimStep,
    /// Durable-checkpoint store traffic.
    Checkpoint,
    /// Fault handling: retried I/O, fault-gate hits, degradations.
    Retry,
    /// CPU-DRAM placement-path traffic (the cp hop): the DRAM-resident
    /// half of a split optimizer shard moving under a placement plan,
    /// concurrently with the nc hop.
    CpTransfer,
}

impl Category {
    /// Every category, in declaration order.
    pub const ALL: [Category; 9] = [
        Category::NcTransfer,
        Category::CgTransfer,
        Category::Allgather,
        Category::ReduceScatter,
        Category::Compute,
        Category::OptimStep,
        Category::Checkpoint,
        Category::Retry,
        Category::CpTransfer,
    ];

    /// Stable string label (used by the Chrome-trace exporter).
    pub fn label(self) -> &'static str {
        match self {
            Category::NcTransfer => "NcTransfer",
            Category::CgTransfer => "CgTransfer",
            Category::Allgather => "Allgather",
            Category::ReduceScatter => "ReduceScatter",
            Category::Compute => "Compute",
            Category::OptimStep => "OptimStep",
            Category::Checkpoint => "Checkpoint",
            Category::Retry => "Retry",
            Category::CpTransfer => "CpTransfer",
        }
    }

    /// Inverse of [`Category::label`].
    pub fn from_label(s: &str) -> Option<Category> {
        Category::ALL.iter().copied().find(|c| c.label() == s)
    }
}

/// One recorded span (or instantaneous event, when `dur_ns == 0` and it
/// was recorded via [`Tracer::instant`]).
///
/// Events are plain `Copy` data: a span is recorded *once*, complete, at
/// guard drop — there are no begin/end pairs to match up, and a span
/// never crosses threads (async I/O is spanned on the worker thread that
/// serves it).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Event {
    /// Event category.
    pub cat: Category,
    /// Static event name, e.g. `"nc.read"`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for instantaneous events).
    pub dur_ns: u64,
    /// Payload size in bytes, when the event moves data.
    pub bytes: u64,
    /// Floating-point operations performed, when the event computes.
    pub flops: u64,
    /// Free-form correlation id (step number, ticket, param id, …).
    pub id: u64,
    /// Trace-local thread id of the recording thread.
    pub tid: u64,
}

/// Lock-free single-producer/single-consumer event ring.
///
/// The owning thread pushes; whoever holds the tracer's ring registry
/// (e.g. [`Tracer::flush`]) drains. The hand-off protocol is exactly:
/// producer publishes slots with a release store of `head`, consumer
/// acknowledges reads with a release store of `tail`, and each side
/// acquires the other's index before touching slots. Slots themselves
/// are [`RaceCell`]s — deliberately unordered — so a `zi-check` build
/// verifies the index protocol is what makes this race-free.
///
/// A full ring drops new events (counted in [`Ring::dropped`]) instead
/// of blocking or growing: tracing must never add back-pressure to the
/// I/O paths it measures.
pub struct Ring {
    tid: u64,
    slots: Vec<RaceCell<Event>>,
    /// Next slot to write; owned by the producer, published with Release.
    head: AtomicU64,
    /// Next slot to read; owned by the consumer, published with Release.
    tail: AtomicU64,
    dropped: AtomicU64,
}

impl Ring {
    /// New ring for trace-thread `tid` holding up to `capacity` events.
    pub fn new(tid: u64, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Ring {
            tid,
            slots: (0..capacity).map(|_| RaceCell::new(Event::default())).collect(),
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Trace-local id of the owning thread.
    pub fn tid(&self) -> u64 {
        self.tid
    }

    /// Append an event. Producer-side only (the owning thread). Returns
    /// `false` — and counts a drop — when the ring is full.
    pub fn push(&self, mut ev: Event) -> bool {
        // Acquire the consumer's progress so reuse of a drained slot
        // happens-after the consumer's read of it.
        let tail = self.tail.load(Ordering::Acquire);
        let head = self.head.load(Ordering::Relaxed); // producer-owned
        if head - tail >= self.slots.len() as u64 {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        ev.tid = self.tid;
        self.slots[(head % self.slots.len() as u64) as usize].set(ev);
        // Publish the slot write.
        self.head.store(head + 1, Ordering::Release);
        true
    }

    /// Drain every published event into `out`. Consumer-side only; the
    /// caller must serialize consumers (the tracer's ring registry lock
    /// does).
    pub fn drain_into(&self, out: &mut Vec<Event>) {
        // Acquire the producer's publications.
        let head = self.head.load(Ordering::Acquire);
        let mut tail = self.tail.load(Ordering::Relaxed); // consumer-owned
        while tail < head {
            out.push(self.slots[(tail % self.slots.len() as u64) as usize].get());
            tail += 1;
        }
        // Release the drained slots back to the producer.
        self.tail.store(tail, Ordering::Release);
    }

    /// Events discarded because the ring was full (cumulative).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        let head = self.head.load(Ordering::Acquire);
        let tail = self.tail.load(Ordering::Acquire);
        (head - tail) as usize
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Monotonic counter identifiers; see [`CounterSnapshot`] for meanings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // the snapshot fields below document each counter
pub enum Counter {
    NcReadBytes,
    NcWriteBytes,
    CpReadBytes,
    CpWriteBytes,
    CgBytes,
    GgBytes,
    RsBytes,
    CkptBytes,
    PrefetchIssued,
    PrefetchHits,
    PrefetchMisses,
    PrefetchLate,
    PrefetchCoalesced,
    Retries,
    DegradedTransitions,
    WbStalls,
    PinnedWaits,
    PinnedAcquires,
    ShardCacheBytes,
}

/// Monotonic counters and gauges shared by every subsystem a tracer is
/// wired through.
#[derive(Default)]
struct Counters {
    nc_read_bytes: AtomicU64,
    nc_write_bytes: AtomicU64,
    cp_read_bytes: AtomicU64,
    cp_write_bytes: AtomicU64,
    cg_bytes: AtomicU64,
    gg_bytes: AtomicU64,
    rs_bytes: AtomicU64,
    ckpt_bytes: AtomicU64,
    prefetch_issued: AtomicU64,
    prefetch_hits: AtomicU64,
    prefetch_misses: AtomicU64,
    prefetch_late: AtomicU64,
    prefetch_coalesced: AtomicU64,
    retries: AtomicU64,
    degraded_transitions: AtomicU64,
    wb_stalls: AtomicU64,
    pinned_waits: AtomicU64,
    pinned_acquires: AtomicU64,
    shard_cache_bytes: AtomicU64,
    io_in_flight: AtomicU64,
    io_in_flight_peak: AtomicU64,
}

impl Counters {
    fn cell(&self, which: Counter) -> &AtomicU64 {
        match which {
            Counter::NcReadBytes => &self.nc_read_bytes,
            Counter::NcWriteBytes => &self.nc_write_bytes,
            Counter::CpReadBytes => &self.cp_read_bytes,
            Counter::CpWriteBytes => &self.cp_write_bytes,
            Counter::CgBytes => &self.cg_bytes,
            Counter::GgBytes => &self.gg_bytes,
            Counter::RsBytes => &self.rs_bytes,
            Counter::CkptBytes => &self.ckpt_bytes,
            Counter::PrefetchIssued => &self.prefetch_issued,
            Counter::PrefetchHits => &self.prefetch_hits,
            Counter::PrefetchMisses => &self.prefetch_misses,
            Counter::PrefetchLate => &self.prefetch_late,
            Counter::PrefetchCoalesced => &self.prefetch_coalesced,
            Counter::Retries => &self.retries,
            Counter::DegradedTransitions => &self.degraded_transitions,
            Counter::WbStalls => &self.wb_stalls,
            Counter::PinnedWaits => &self.pinned_waits,
            Counter::PinnedAcquires => &self.pinned_acquires,
            Counter::ShardCacheBytes => &self.shard_cache_bytes,
        }
    }
}

/// Point-in-time copy of every counter and gauge a [`Tracer`] maintains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Bytes read NVMe→CPU (nc hop).
    pub nc_read_bytes: u64,
    /// Bytes written CPU→NVMe (nc hop).
    pub nc_write_bytes: u64,
    /// Bytes read from the CPU-DRAM placement path (cp hop).
    pub cp_read_bytes: u64,
    /// Bytes written to the CPU-DRAM placement path (cp hop).
    pub cp_write_bytes: u64,
    /// Bytes uploaded CPU→GPU (cg hop).
    pub cg_bytes: u64,
    /// Allgather-family collective bytes received (gg hop).
    pub gg_bytes: u64,
    /// Reduce-scatter-family collective bytes processed.
    pub rs_bytes: u64,
    /// Durable-checkpoint payload bytes saved.
    pub ckpt_bytes: u64,
    /// Prefetch loads issued ahead of demand.
    pub prefetch_issued: u64,
    /// Demand fetches answered by a pending prefetch.
    pub prefetch_hits: u64,
    /// Demand fetches that found nothing pending.
    pub prefetch_misses: u64,
    /// Hits whose transfer was still in flight at demand time (the
    /// prefetch was issued but had not finished: late).
    pub prefetch_late: u64,
    /// Redundant prefetch hints coalesced onto an in-flight load.
    pub prefetch_coalesced: u64,
    /// I/O operations that needed at least one retry.
    pub retries: u64,
    /// NVMe→CPU degradations (device given up on).
    pub degraded_transitions: u64,
    /// Write-behind submissions that stalled on a full window.
    pub wb_stalls: u64,
    /// Pinned-buffer acquisitions that had to block (pool pressure).
    pub pinned_waits: u64,
    /// Total pinned-buffer acquisitions through traced pools.
    pub pinned_acquires: u64,
    /// Parameter-shard bytes served from the CPU shard cache instead of
    /// a device read (the nc reads that no longer exist).
    pub shard_cache_bytes: u64,
    /// Offload I/O requests in flight right now (gauge).
    pub io_in_flight: u64,
    /// High-water mark of `io_in_flight`.
    pub io_in_flight_peak: u64,
    /// Events discarded because a per-thread ring was full.
    pub events_dropped: u64,
}

/// The accumulator per-thread rings drain into; owned by a [`Tracer`].
#[derive(Default)]
struct TraceSink {
    events: Mutex<Vec<Event>>,
}

struct Inner {
    id: u64,
    enabled: bool,
    epoch: zi_sync::time::Instant,
    ring_capacity: usize,
    rings: Mutex<Vec<Arc<Ring>>>,
    sink: TraceSink,
    counters: Counters,
    next_tid: AtomicU64,
}

/// Distinguishes tracers in thread-local ring lookup. A plain `std`
/// atomic: id allocation is not part of any protocol under test.
static NEXT_TRACER_ID: zi_sync::atomic::AtomicU64 = zi_sync::atomic::AtomicU64::new(1);

thread_local! {
    static TLS_RINGS: RefCell<Vec<TlsEntry>> = const { RefCell::new(Vec::new()) };
}

struct TlsEntry {
    tracer_id: u64,
    tracer: Weak<Inner>,
    ring: Arc<Ring>,
}

/// Handle to one trace session; cheap to clone (an `Arc`).
///
/// A tracer is **on by default** — [`Tracer::new`], [`Default`], and
/// every subsystem constructor that makes its own all produce an active
/// tracer. Use [`Tracer::noop`] for a disabled one whose `span`/`count`
/// calls are branch-and-return.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<Inner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// New active tracer with the default per-thread ring capacity.
    pub fn new() -> Self {
        Tracer::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// New active tracer with an explicit per-thread ring capacity.
    pub fn with_capacity(ring_capacity: usize) -> Self {
        Tracer::build(true, ring_capacity)
    }

    /// A disabled tracer: records nothing, counts nothing.
    pub fn noop() -> Self {
        Tracer::build(false, 1)
    }

    fn build(enabled: bool, ring_capacity: usize) -> Self {
        Tracer {
            inner: Arc::new(Inner {
                id: NEXT_TRACER_ID.fetch_add(1, zi_sync::atomic::Ordering::Relaxed),
                enabled,
                epoch: zi_sync::time::Instant::now(),
                ring_capacity: ring_capacity.max(1),
                rings: Mutex::new(Vec::new()),
                sink: TraceSink::default(),
                counters: Counters::default(),
                next_tid: AtomicU64::new(0),
            }),
        }
    }

    /// Whether this tracer records anything.
    pub fn enabled(&self) -> bool {
        self.inner.enabled
    }

    /// Nanoseconds elapsed since this tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.inner.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; it records itself when the returned guard drops.
    pub fn span(&self, cat: Category, name: &'static str) -> Span<'_> {
        if !self.inner.enabled {
            return Span { tracer: None, cat, name, start_ns: 0, bytes: 0, flops: 0, id: 0 };
        }
        Span { tracer: Some(self), cat, name, start_ns: self.now_ns(), bytes: 0, flops: 0, id: 0 }
    }

    /// Record an instantaneous (zero-duration) event.
    pub fn instant(&self, cat: Category, name: &'static str, bytes: u64, id: u64) {
        if !self.inner.enabled {
            return;
        }
        let ev = Event { cat, name, start_ns: self.now_ns(), dur_ns: 0, bytes, flops: 0, id, tid: 0 };
        self.record(ev);
    }

    /// Bump monotonic counter `which` by `v`.
    pub fn count(&self, which: Counter, v: u64) {
        if self.inner.enabled && v > 0 {
            self.inner.counters.cell(which).fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Raise the in-flight I/O gauge (and its high-water mark).
    pub fn io_inflight_inc(&self) {
        if !self.inner.enabled {
            return;
        }
        let c = &self.inner.counters;
        let now = c.io_in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        c.io_in_flight_peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Lower the in-flight I/O gauge.
    pub fn io_inflight_dec(&self) {
        if self.inner.enabled {
            self.inner.counters.io_in_flight.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Copy every counter and gauge, including ring-drop totals.
    pub fn snapshot(&self) -> CounterSnapshot {
        let c = &self.inner.counters;
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let events_dropped = self.inner.rings.lock().iter().map(|r| r.dropped()).sum();
        CounterSnapshot {
            nc_read_bytes: ld(&c.nc_read_bytes),
            nc_write_bytes: ld(&c.nc_write_bytes),
            cp_read_bytes: ld(&c.cp_read_bytes),
            cp_write_bytes: ld(&c.cp_write_bytes),
            cg_bytes: ld(&c.cg_bytes),
            gg_bytes: ld(&c.gg_bytes),
            rs_bytes: ld(&c.rs_bytes),
            ckpt_bytes: ld(&c.ckpt_bytes),
            prefetch_issued: ld(&c.prefetch_issued),
            prefetch_hits: ld(&c.prefetch_hits),
            prefetch_misses: ld(&c.prefetch_misses),
            prefetch_late: ld(&c.prefetch_late),
            prefetch_coalesced: ld(&c.prefetch_coalesced),
            retries: ld(&c.retries),
            degraded_transitions: ld(&c.degraded_transitions),
            wb_stalls: ld(&c.wb_stalls),
            pinned_waits: ld(&c.pinned_waits),
            pinned_acquires: ld(&c.pinned_acquires),
            shard_cache_bytes: ld(&c.shard_cache_bytes),
            io_in_flight: ld(&c.io_in_flight),
            io_in_flight_peak: ld(&c.io_in_flight_peak),
            events_dropped,
        }
    }

    /// Drain every per-thread ring into the sink. Callable from any
    /// thread, any time; concurrent flushes serialize on the registry.
    pub fn flush(&self) {
        if !self.inner.enabled {
            return;
        }
        let rings = self.inner.rings.lock();
        let mut sink = self.inner.sink.events.lock();
        for ring in rings.iter() {
            ring.drain_into(&mut sink);
        }
    }

    /// Flush, then take every event recorded so far, sorted by start
    /// time. The sink is left empty (and any [`Tracer::events_from`]
    /// cursor is invalidated — clamped, not UB).
    pub fn take_events(&self) -> Vec<Event> {
        self.flush();
        let mut events = std::mem::take(&mut *self.inner.sink.events.lock());
        events.sort_by_key(|e| (e.start_ns, e.dur_ns, e.tid));
        events
    }

    /// Flush, then copy the events recorded since `cursor` (a value
    /// previously returned by this method; 0 for "everything") without
    /// disturbing the sink. Returns `(next_cursor, new_events)`.
    ///
    /// This is the cheap per-step extraction path for the adaptive
    /// controller: each call copies only the step's own events, and the
    /// full trace stays intact for end-of-run reports and Chrome-trace
    /// export. Events come back in ring-drain order, not time order —
    /// fine for [`report::OverlapReport::from_events`], which sorts
    /// internally. Pass `usize::MAX` to skip to the present (an empty
    /// slice positioned at "now"). Interleaving [`Tracer::take_events`]
    /// empties the sink and resets outstanding cursors to its start.
    pub fn events_from(&self, cursor: usize) -> (usize, Vec<Event>) {
        if !self.inner.enabled {
            return (0, Vec::new());
        }
        self.flush();
        let sink = self.inner.sink.events.lock();
        let cursor = cursor.min(sink.len());
        (sink.len(), sink[cursor..].to_vec())
    }

    fn record(&self, ev: Event) {
        let ring = self.thread_ring();
        let _ = ring.push(ev); // a full ring drops and counts
    }

    /// This thread's ring for this tracer, creating and registering it
    /// on first use.
    fn thread_ring(&self) -> Arc<Ring> {
        let inner = &self.inner;
        TLS_RINGS.with(|cell| {
            let mut entries = cell.borrow_mut();
            if let Some(e) = entries.iter().find(|e| e.tracer_id == inner.id) {
                return Arc::clone(&e.ring);
            }
            // Drop cached rings of tracers that no longer exist.
            entries.retain(|e| e.tracer.strong_count() > 0);
            let tid = inner.next_tid.fetch_add(1, Ordering::Relaxed);
            let ring = Arc::new(Ring::new(tid, inner.ring_capacity));
            inner.rings.lock().push(Arc::clone(&ring));
            entries.push(TlsEntry {
                tracer_id: inner.id,
                tracer: Arc::downgrade(inner),
                ring: Arc::clone(&ring),
            });
            ring
        })
    }
}

/// An open span; records one [`Event`] when dropped.
pub struct Span<'a> {
    tracer: Option<&'a Tracer>,
    cat: Category,
    name: &'static str,
    start_ns: u64,
    bytes: u64,
    flops: u64,
    id: u64,
}

impl Span<'_> {
    /// Attach a payload size to the span.
    pub fn set_bytes(&mut self, bytes: u64) {
        self.bytes = bytes;
    }

    /// Attach a floating-point operation count to the span, so reports
    /// can derive effective GFLOP/s for compute kernels.
    pub fn set_flops(&mut self, flops: u64) {
        self.flops = flops;
    }

    /// Attach a correlation id to the span.
    pub fn set_id(&mut self, id: u64) {
        self.id = id;
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(tracer) = self.tracer {
            let end = tracer.now_ns();
            tracer.record(Event {
                cat: self.cat,
                name: self.name,
                start_ns: self.start_ns,
                dur_ns: end.saturating_sub(self.start_ns),
                bytes: self.bytes,
                flops: self.flops,
                id: self.id,
                tid: 0,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_on_drop_with_bytes_and_id() {
        let t = Tracer::new();
        {
            let mut s = t.span(Category::NcTransfer, "nc.read");
            s.set_bytes(4096);
            s.set_id(7);
        }
        t.instant(Category::Retry, "io.retry", 0, 3);
        let evs = t.take_events();
        assert_eq!(evs.len(), 2);
        let span = evs.iter().find(|e| e.name == "nc.read").unwrap();
        assert_eq!((span.cat, span.bytes, span.id), (Category::NcTransfer, 4096, 7));
        let inst = evs.iter().find(|e| e.name == "io.retry").unwrap();
        assert_eq!((inst.cat, inst.dur_ns, inst.id), (Category::Retry, 0, 3));
        // The sink was emptied.
        assert!(t.take_events().is_empty());
    }

    #[test]
    fn noop_tracer_records_and_counts_nothing() {
        let t = Tracer::noop();
        {
            let mut s = t.span(Category::Compute, "x");
            s.set_bytes(1);
        }
        t.instant(Category::Retry, "y", 1, 1);
        t.count(Counter::Retries, 5);
        t.io_inflight_inc();
        assert!(t.take_events().is_empty());
        assert_eq!(t.snapshot(), CounterSnapshot::default());
    }

    #[test]
    fn full_ring_drops_and_counts_instead_of_blocking() {
        let t = Tracer::with_capacity(4);
        for i in 0..10 {
            t.instant(Category::Compute, "e", 0, i);
        }
        assert_eq!(t.snapshot().events_dropped, 6);
        let evs = t.take_events();
        assert_eq!(evs.len(), 4);
        // The oldest events won the slots.
        assert_eq!(evs.iter().map(|e| e.id).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        // Drained capacity is reusable.
        t.instant(Category::Compute, "e", 0, 99);
        assert_eq!(t.take_events().len(), 1);
    }

    #[test]
    fn events_from_many_threads_carry_distinct_tids() {
        let t = Tracer::new();
        let mut handles = Vec::new();
        for i in 0..4u64 {
            let t = t.clone();
            handles.push(zi_sync::thread::spawn(move || {
                t.instant(Category::Compute, "worker", 0, i);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        t.instant(Category::Compute, "main", 0, 100);
        let evs = t.take_events();
        assert_eq!(evs.len(), 5);
        let mut tids: Vec<u64> = evs.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 5, "each thread gets its own ring/tid");
    }

    #[test]
    fn counters_accumulate_and_gauge_tracks_peak() {
        let t = Tracer::new();
        t.count(Counter::NcReadBytes, 100);
        t.count(Counter::NcReadBytes, 28);
        t.io_inflight_inc();
        t.io_inflight_inc();
        t.io_inflight_dec();
        let s = t.snapshot();
        assert_eq!(s.nc_read_bytes, 128);
        assert_eq!(s.io_in_flight, 1);
        assert_eq!(s.io_in_flight_peak, 2);
    }

    #[test]
    fn events_from_cursor_is_incremental_and_non_destructive() {
        let t = Tracer::new();
        t.instant(Category::Compute, "a", 0, 1);
        let (c1, batch1) = t.events_from(0);
        assert_eq!(batch1.len(), 1);
        // Nothing new: empty slice, cursor unchanged.
        let (c2, batch2) = t.events_from(c1);
        assert_eq!((c2, batch2.len()), (c1, 0));
        t.instant(Category::Compute, "b", 0, 2);
        let (c3, batch3) = t.events_from(c2);
        assert_eq!(batch3.len(), 1);
        assert_eq!(batch3[0].id, 2, "only the new event is returned");
        // The sink was never drained: a full take still sees both.
        assert_eq!(t.take_events().len(), 2);
        // Cursors from before the take clamp instead of panicking, and
        // usize::MAX skips to the present.
        let (c4, batch4) = t.events_from(c3);
        assert_eq!((c4, batch4.len()), (0, 0));
        t.instant(Category::Compute, "c", 0, 3);
        let (c5, skipped) = t.events_from(usize::MAX);
        assert_eq!((c5, skipped.len()), (1, 0));
    }

    #[test]
    fn same_thread_two_tracers_do_not_cross_streams() {
        let a = Tracer::new();
        let b = Tracer::new();
        a.instant(Category::Compute, "a", 0, 1);
        b.instant(Category::Compute, "b", 0, 2);
        assert_eq!(a.take_events().len(), 1);
        assert_eq!(b.take_events().len(), 1);
    }
}
