//! Asynchronous I/O engine with worker-pool parallelism.
//!
//! The engine accepts bulk read/write submissions, executes them on a pool
//! of worker threads (the analogue of DeepNVMe's parallelized I/O request
//! handling), and lets callers either wait on individual tickets or issue a
//! completion `barrier` that drains every outstanding request — the
//! "explicit synchronization requests to flush ongoing read/writes" of
//! Sec. 6.3 (`flush` adds a durability sync on top). Requests carry
//! caller-owned buffers both ways ([`IoBuf`]): a read fills the buffer it
//! was given and a write hands its buffer back when waited, so the
//! staging path neither allocates nor frees per request.
//!
//! Every request runs under a [`RetryPolicy`]: transient backend errors
//! are retried with bounded, jittered backoff and a per-request deadline.
//! When a request gives up (attempts exhausted or deadline exceeded) the
//! engine latches a *device failed* flag — subsequent requests fail fast
//! with [`Error::DeviceFailed`] instead of burning their own retry
//! budgets, and the offload layer above uses the flag to fail over new
//! shards to CPU memory.

use std::collections::HashMap;
use zi_sync::Arc;

use zi_memory::ScratchVec;
use zi_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use zi_sync::channel::{unbounded, SendError, Sender};
use zi_sync::thread::JoinHandle;
use zi_sync::{Condvar, Mutex};
use zi_trace::{Category, Counter, Tracer};
use zi_types::{Error, Result};

use crate::backend::StorageBackend;
use crate::retry::RetryPolicy;

/// Handle for one submitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket(u64);

/// Aggregate I/O statistics for an engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Completed read requests.
    pub reads: u64,
    /// Completed write requests.
    pub writes: u64,
    /// Bytes moved device→host.
    pub bytes_read: u64,
    /// Bytes moved host→device.
    pub bytes_written: u64,
    /// Requests that completed with an error.
    pub errors: u64,
    /// Individual attempt retries across all requests (a request that
    /// succeeded on its third attempt contributes 2).
    pub retries: u64,
    /// Requests whose retry budget was exhausted or deadline exceeded.
    pub gave_up: u64,
    /// High-water mark of simultaneously in-flight requests — the proof
    /// that overlap-centric callers (prefetcher, pipelined optimizer
    /// step) actually kept the device queue busy.
    pub in_flight_peak: u64,
}

/// A caller-owned buffer that rides a request to the worker and back:
/// reads fill it, writes drain it, and either way [`NvmeEngine::wait_buf`]
/// hands it back — the engine never allocates or frees payload memory
/// on the staging path.
pub enum IoBuf {
    /// Plain heap bytes (the `submit_read` / `submit_write` surface).
    Bytes(Vec<u8>),
    /// A recycled, f32-aligned staging buffer; dropping it anywhere
    /// (including inside a failed request) returns it to its pool.
    Staging(ScratchVec),
}

impl IoBuf {
    /// The payload bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match self {
            IoBuf::Bytes(v) => v,
            IoBuf::Staging(s) => s.as_bytes(),
        }
    }

    fn as_bytes_mut(&mut self) -> &mut [u8] {
        match self {
            IoBuf::Bytes(v) => v,
            IoBuf::Staging(s) => s.as_bytes_mut(),
        }
    }

    /// The heap bytes, if this is the [`IoBuf::Bytes`] kind.
    pub fn into_bytes(self) -> Option<Vec<u8>> {
        match self {
            IoBuf::Bytes(v) => Some(v),
            IoBuf::Staging(_) => None,
        }
    }

    /// The staging buffer, if this is the [`IoBuf::Staging`] kind.
    pub fn into_staging(self) -> Option<ScratchVec> {
        match self {
            IoBuf::Bytes(_) => None,
            IoBuf::Staging(s) => Some(s),
        }
    }
}

impl std::fmt::Debug for IoBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = if matches!(self, IoBuf::Bytes(_)) { "Bytes" } else { "Staging" };
        write!(f, "IoBuf::{kind}({} B)", self.as_bytes().len())
    }
}

struct Request {
    ticket: Ticket,
    /// Reads carry the length to fill; writes send the whole buffer.
    read_len: Option<usize>,
    offset: u64,
    buf: IoBuf,
}

/// A served request awaiting its owner: the result and the buffer.
struct Outcome {
    result: Result<()>,
    is_read: bool,
    buf: IoBuf,
}

struct Shared {
    completions: Mutex<HashMap<u64, Outcome>>,
    done: Condvar,
    in_flight: AtomicU64,
    in_flight_peak: AtomicU64,
    stats: Mutex<IoStats>,
    /// Latched when any request gives up; later requests fail fast.
    device_failed: AtomicBool,
    /// Structured tracing: nc-transfer spans for every served request,
    /// retry/give-up events, per-tier byte counters, in-flight gauge.
    tracer: Tracer,
}

impl Shared {
    /// Count a new submission and fold the resulting queue depth into the
    /// in-flight high-water mark.
    fn note_submit(&self) {
        let now = self.in_flight.fetch_add(1, Ordering::AcqRel) + 1;
        self.tracer.io_inflight_inc();
        // A statistic that publishes no other data.
        self.in_flight_peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Undo one submission's in-flight accounting (request completed or
    /// could not be enqueued).
    fn note_done(&self) {
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
        self.tracer.io_inflight_dec();
    }

    /// Run `op` under `policy` with fail-fast once the device is dead,
    /// recording retry/give-up stats. `context` is rendered only if the
    /// request fails.
    fn execute(
        &self,
        policy: &RetryPolicy,
        context: std::fmt::Arguments<'_>,
        op: impl FnMut() -> Result<()>,
    ) -> Result<()> {
        if self.device_failed.load(Ordering::Acquire) {
            self.stats.lock().errors += 1;
            return Err(Error::DeviceFailed(format!(
                "{context}: device previously declared failed"
            )));
        }
        let report = policy.run(context, op);
        if report.retries > 0 || report.gave_up || report.result.is_err() {
            let mut st = self.stats.lock();
            st.retries += report.retries as u64;
            st.gave_up += report.gave_up as u64;
            st.errors += report.result.is_err() as u64;
        }
        if report.retries > 0 {
            self.tracer.count(Counter::Retries, report.retries as u64);
            self.tracer.instant(Category::Retry, "io.retry", 0, report.retries as u64);
        }
        if report.gave_up {
            // Only the first give-up is a transition; later ones find the
            // latch already set.
            if !self.device_failed.swap(true, Ordering::Release) {
                self.tracer.count(Counter::DegradedTransitions, 1);
            }
            self.tracer.instant(Category::Retry, "io.gave_up", 0, 0);
        }
        report.result
    }

    /// Hand a finished request to whoever owns it: the outcome, with its
    /// buffer, waits in the completion map for the ticket's wait.
    fn complete(&self, ticket: Ticket, outcome: Outcome) {
        self.completions.lock().insert(ticket.0, outcome);
    }
}

/// Asynchronous NVMe I/O engine.
pub struct NvmeEngine {
    backend: Arc<dyn StorageBackend>,
    tx: Option<Sender<Request>>,
    workers: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
    next_ticket: AtomicU64,
    policy: RetryPolicy,
}

impl NvmeEngine {
    /// Spawn an engine with `num_workers` I/O threads over `backend`,
    /// using the default [`RetryPolicy`].
    pub fn new(backend: Arc<dyn StorageBackend>, num_workers: usize) -> Self {
        Self::with_policy(backend, num_workers, RetryPolicy::default())
    }

    /// Spawn an engine with an explicit retry policy and a private
    /// (always-on) tracer.
    pub fn with_policy(
        backend: Arc<dyn StorageBackend>,
        num_workers: usize,
        policy: RetryPolicy,
    ) -> Self {
        Self::with_policy_tracer(backend, num_workers, policy, Tracer::new())
    }

    /// Spawn an engine recording its nc-transfer spans and I/O counters
    /// into an externally owned `tracer` (one tracer is typically shared
    /// by every subsystem of a node).
    pub fn with_policy_tracer(
        backend: Arc<dyn StorageBackend>,
        num_workers: usize,
        policy: RetryPolicy,
        tracer: Tracer,
    ) -> Self {
        assert!(num_workers > 0, "engine needs at least one worker");
        let (tx, rx) = unbounded::<Request>();
        let shared = Arc::new(Shared {
            completions: Mutex::new(HashMap::new()),
            done: Condvar::new(),
            in_flight: AtomicU64::new(0),
            in_flight_peak: AtomicU64::new(0),
            stats: Mutex::new(IoStats::default()),
            device_failed: AtomicBool::new(false),
            tracer,
        });
        let mut workers = Vec::with_capacity(num_workers);
        for i in 0..num_workers {
            let rx = rx.clone();
            let backend = Arc::clone(&backend);
            let shared = Arc::clone(&shared);
            workers.push(
                zi_sync::thread::Builder::new()
                    .name(format!("zi-nvme-{i}"))
                    .spawn(move || {
                        while let Ok(req) = rx.recv() {
                            Self::serve(req, &backend, &shared, &policy);
                            // Decrement under the completions lock: the
                            // barrier checks `in_flight` while holding
                            // that lock, so a decrement+notify slipped
                            // between its check and its wait would be a
                            // lost wakeup (it sleeps forever on an
                            // already-drained engine).
                            let _comps = shared.completions.lock();
                            shared.note_done();
                            shared.done.notify_all();
                        }
                    })
                    .expect("spawn nvme worker"),
            );
        }
        NvmeEngine { backend, tx: Some(tx), workers, shared, next_ticket: AtomicU64::new(0), policy }
    }

    /// Execute one request on a worker thread and record its outcome.
    fn serve(req: Request, backend: &Arc<dyn StorageBackend>, shared: &Shared, policy: &RetryPolicy) {
        let Request { ticket, read_len, offset, mut buf } = req;
        let name = if read_len.is_some() { "nc.read" } else { "nc.write" };
        if let (Some(len), IoBuf::Bytes(v)) = (read_len, &mut buf) {
            v.resize(len, 0);
        }
        let len = buf.as_bytes().len() as u64;
        let mut span = shared.tracer.span(Category::NcTransfer, name);
        span.set_bytes(len);
        span.set_id(ticket.0);
        let result = match read_len {
            Some(_) => shared.execute(policy, format_args!("read {len} B at {offset:#x}"), || {
                backend.read_at(offset, buf.as_bytes_mut())
            }),
            None => shared.execute(policy, format_args!("write {len} B at {offset:#x}"), || {
                backend.write_at(offset, buf.as_bytes())
            }),
        };
        if result.is_ok() {
            let is_read = read_len.is_some();
            shared.tracer.count(if is_read { Counter::NcReadBytes } else { Counter::NcWriteBytes }, len);
            let mut st = shared.stats.lock();
            if is_read {
                st.reads += 1;
                st.bytes_read += len;
            } else {
                st.writes += 1;
                st.bytes_written += len;
            }
        }
        drop(span);
        shared.complete(ticket, Outcome { result, is_read: read_len.is_some(), buf });
    }

    /// Enqueue `req`. A submission that cannot reach the worker pool
    /// (every worker exited — a bug, a panic storm, or [`Self::shutdown`],
    /// not a device fault) resolves as a typed failure the owner's wait
    /// will surface — buffer included — instead of panicking here.
    fn submit(&self, req: Request) {
        self.shared.note_submit();
        let req = match &self.tx {
            Some(tx) => match tx.send(req) {
                Ok(()) => return,
                Err(SendError(req)) => req,
            },
            None => req,
        };
        let err = Error::Internal("nvme worker pool is gone; request dropped".into());
        let outcome = Outcome { result: Err(err), is_read: req.read_len.is_some(), buf: req.buf };
        self.shared.complete(req.ticket, outcome);
        let _comps = self.shared.completions.lock();
        self.shared.note_done();
        self.shared.done.notify_all();
    }

    fn submit_ticketed(&self, read_len: Option<usize>, offset: u64, buf: IoBuf) -> Ticket {
        let ticket = Ticket(self.next_ticket.fetch_add(1, Ordering::Relaxed));
        self.submit(Request { ticket, read_len, offset, buf });
        ticket
    }

    /// Submit an asynchronous read at `offset` that fills all of `buf`;
    /// [`Self::wait_buf`] hands the filled buffer back.
    pub fn submit_read_into(&self, offset: u64, buf: ScratchVec) -> Ticket {
        self.submit_ticketed(Some(buf.as_bytes().len()), offset, IoBuf::Staging(buf))
    }

    /// Submit an asynchronous write of all of `buf` at `offset`;
    /// [`Self::wait_buf`] hands the buffer back for reuse.
    pub fn submit_write_from(&self, offset: u64, buf: ScratchVec) -> Ticket {
        self.submit_ticketed(None, offset, IoBuf::Staging(buf))
    }

    /// Submit an asynchronous read of `len` bytes at `offset` into a
    /// fresh buffer (allocated on the worker).
    pub fn submit_read(&self, offset: u64, len: usize) -> Ticket {
        self.submit_ticketed(Some(len), offset, IoBuf::Bytes(Vec::new()))
    }

    /// Submit an asynchronous write of `data` at `offset`.
    pub fn submit_write(&self, offset: u64, data: Vec<u8>) -> Ticket {
        self.submit_ticketed(None, offset, IoBuf::Bytes(data))
    }

    /// Submit a bulk batch of reads: `(offset, len)` pairs.
    pub fn submit_read_bulk(&self, requests: &[(u64, usize)]) -> Vec<Ticket> {
        requests.iter().map(|&(off, len)| self.submit_read(off, len)).collect()
    }

    /// True once `ticket`'s outcome is waiting to be collected: a
    /// [`Self::wait`] on it would return without blocking. Used by the
    /// prefetcher to tell a *timely* hit (transfer already finished at
    /// demand time) from a *late* one (still in flight).
    pub fn is_ready(&self, ticket: Ticket) -> bool {
        self.shared.completions.lock().contains_key(&ticket.0)
    }

    fn wait_outcome(&self, ticket: Ticket) -> Outcome {
        let mut comps = self.shared.completions.lock();
        loop {
            if let Some(outcome) = comps.remove(&ticket.0) {
                return outcome;
            }
            self.shared.done.wait(&mut comps);
        }
    }

    /// Block until `ticket` completes and take its buffer back: filled
    /// for a read, ready for reuse after a write. A failed request drops
    /// its buffer here (a staging buffer goes home to its pool).
    pub fn wait_buf(&self, ticket: Ticket) -> Result<IoBuf> {
        let Outcome { result, buf, .. } = self.wait_outcome(ticket);
        result.map(|()| buf)
    }

    /// Block until `ticket` completes. Reads return `Some(buffer)`, writes
    /// return `None`.
    pub fn wait(&self, ticket: Ticket) -> Result<Option<Vec<u8>>> {
        let Outcome { result, is_read, buf } = self.wait_outcome(ticket);
        result?;
        Ok(buf.into_bytes().filter(|_| is_read))
    }

    /// Wait until every outstanding request has completed, whoever
    /// submitted it — the paper's "explicit synchronization requests to
    /// flush ongoing read/writes", node-wide: the quiesce tests and tools
    /// take before reading the device's books. A completion barrier, not
    /// a durability one: nothing is synced. Completions awaiting their
    /// owner's `wait` are left untouched, so concurrent users of a shared
    /// engine are unaffected: a failed request's error belongs to its
    /// ticket, and the barrier reports none.
    pub fn barrier(&self) -> Result<()> {
        // An instant, not a span: the barrier's wait is idle time, and a
        // duration here would pollute the nc hop's busy union.
        self.shared.tracer.instant(Category::NcTransfer, "nc.flush", 0, 0);
        let mut comps = self.shared.completions.lock();
        while self.shared.in_flight.load(Ordering::Acquire) > 0 {
            self.shared.done.wait(&mut comps);
        }
        Ok(())
    }

    /// [`Self::barrier`], then a durability sync on the backend — for
    /// callers whose bytes must survive a crash.
    pub fn flush(&self) -> Result<()> {
        self.barrier()?;
        self.backend.sync()
    }

    /// Number of requests submitted but not yet completed.
    pub fn in_flight(&self) -> u64 {
        self.shared.in_flight.load(Ordering::Acquire)
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> IoStats {
        let in_flight_peak = self.shared.in_flight_peak.load(Ordering::Relaxed);
        IoStats { in_flight_peak, ..*self.shared.stats.lock() }
    }

    /// True once any request has exhausted its retry budget — the device
    /// is considered dead and new requests fail fast. The offload layer
    /// uses this to degrade gracefully to CPU memory.
    pub fn device_failed(&self) -> bool {
        self.shared.device_failed.load(Ordering::Acquire)
    }

    /// The retry policy requests run under.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// The tracer this engine records into.
    pub fn tracer(&self) -> &Tracer {
        &self.shared.tracer
    }

    /// Close the submission channel and join the workers (queued
    /// requests are served first). Later submissions resolve as typed
    /// `Error::Internal` failures. Dropping the engine does the same.
    pub fn shutdown(&mut self) {
        self.tx.take();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for NvmeEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::fault::{FaultPlan, FaultyBackend};

    fn engine(workers: usize) -> (Arc<MemBackend>, NvmeEngine) {
        let backend = Arc::new(MemBackend::new());
        let eng = NvmeEngine::new(Arc::clone(&backend) as Arc<dyn StorageBackend>, workers);
        (backend, eng)
    }

    /// Engine over a faulty in-memory device with a fast test policy.
    fn faulty_engine(workers: usize, policy: RetryPolicy) -> (FaultPlan, NvmeEngine) {
        let plan = FaultPlan::new();
        let backend = Arc::new(FaultyBackend::new(MemBackend::new(), plan.clone()));
        let eng = NvmeEngine::with_policy(backend as Arc<dyn StorageBackend>, workers, policy);
        (plan, eng)
    }

    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: std::time::Duration::from_micros(200),
            max_backoff: std::time::Duration::from_millis(2),
            deadline: std::time::Duration::from_secs(5),
            jitter_seed: 11,
        }
    }

    #[test]
    fn write_then_read_round_trip() {
        let (_, eng) = engine(4);
        let w = eng.submit_write(64, vec![7u8; 32]);
        assert!(eng.wait(w).unwrap().is_none());
        let r = eng.submit_read(64, 32);
        let buf = eng.wait(r).unwrap().expect("read returns data");
        assert_eq!(buf, vec![7u8; 32]);
        let st = eng.stats();
        assert_eq!(st.reads, 1);
        assert_eq!(st.writes, 1);
        assert_eq!(st.bytes_read, 32);
        assert_eq!(st.bytes_written, 32);
        assert_eq!(st.retries, 0);
        assert_eq!(st.gave_up, 0);
    }

    #[test]
    fn bulk_reads_complete_in_any_order() {
        let (_, eng) = engine(8);
        for i in 0u8..16 {
            let w = eng.submit_write(i as u64 * 8, vec![i; 8]);
            eng.wait(w).unwrap();
        }
        let reqs: Vec<(u64, usize)> = (0..16).map(|i| (i as u64 * 8, 8)).collect();
        let tickets = eng.submit_read_bulk(&reqs);
        // Wait in reverse order to exercise out-of-order completion.
        for (i, t) in tickets.into_iter().enumerate().rev() {
            let buf = eng.wait(t).unwrap().unwrap();
            assert_eq!(buf, vec![i as u8; 8]);
        }
    }

    #[test]
    fn in_flight_peak_tracks_queue_depth() {
        use crate::backend::ThrottledBackend;
        // A slow device guarantees a burst of submissions piles up before
        // any worker completes, so the high-water mark is deterministic.
        let backend = Arc::new(ThrottledBackend::new(
            MemBackend::new(),
            1e9,
            std::time::Duration::from_millis(2),
        ));
        let eng = NvmeEngine::new(backend as Arc<dyn StorageBackend>, 4);
        let tickets: Vec<Ticket> =
            (0..4u64).map(|i| eng.submit_write(i * 32, vec![i as u8; 32])).collect();
        for t in tickets {
            eng.wait(t).unwrap();
        }
        assert!(
            eng.stats().in_flight_peak >= 2,
            "burst of 4 writes over a 2 ms device must overlap: {:?}",
            eng.stats()
        );
    }

    #[test]
    fn flush_drains_everything() {
        let (backend, eng) = engine(4);
        for i in 0..64u64 {
            eng.submit_write(i * 128, vec![i as u8; 128]);
        }
        eng.flush().unwrap();
        assert_eq!(eng.in_flight(), 0);
        assert_eq!(backend.bytes_written(), 64 * 128);
        assert_eq!(eng.stats().writes, 64);
    }

    #[test]
    fn transient_read_faults_are_retried_to_success() {
        let (plan, eng) = faulty_engine(1, fast_policy());
        let w = eng.submit_write(0, vec![3u8; 8]);
        eng.wait(w).unwrap();
        plan.fail_next_reads(2); // < max_attempts − 1
        let r = eng.submit_read(0, 8);
        let buf = eng.wait(r).unwrap().unwrap();
        assert_eq!(buf, vec![3u8; 8]);
        let st = eng.stats();
        assert_eq!(st.retries, 2);
        assert_eq!(st.gave_up, 0);
        assert_eq!(st.errors, 0);
        assert!(!eng.device_failed());
    }

    #[test]
    fn torn_write_is_healed_by_retry() {
        let (plan, eng) = faulty_engine(1, fast_policy());
        plan.torn_next_writes(1);
        let w = eng.submit_write(0, vec![0xcd; 256]);
        eng.wait(w).unwrap(); // retry rewrote the full extent
        let r = eng.submit_read(0, 256);
        assert_eq!(eng.wait(r).unwrap().unwrap(), vec![0xcd; 256]);
        assert_eq!(eng.stats().retries, 1);
        assert_eq!(plan.injected().torn_writes, 1);
    }

    #[test]
    fn exhausted_retries_latch_device_failed_and_fail_fast() {
        let (plan, eng) = faulty_engine(1, fast_policy());
        let w = eng.submit_write(0, vec![1u8; 4]);
        eng.wait(w).unwrap();
        plan.kill();
        let r = eng.submit_read(0, 4);
        let err = eng.wait(r).unwrap_err();
        // Scripted death injects DeviceFailed (permanent) — no retry loop.
        assert!(err.is_device_failure());
        // Permanent backend errors don't trip the give-up latch; a
        // transient storm that exhausts the budget does.
        plan.revive();
        plan.fail_next_reads(u32::MAX);
        let r = eng.submit_read(0, 4);
        let err = eng.wait(r).unwrap_err();
        assert!(matches!(err, Error::DeviceFailed(_)));
        assert!(eng.device_failed());
        let st = eng.stats();
        assert_eq!(st.gave_up, 1);
        assert_eq!(st.retries, 3);
        // Fail-fast path: no further retries are burned.
        plan.fail_next_reads(0);
        let r = eng.submit_read(0, 4);
        assert!(matches!(eng.wait(r).unwrap_err(), Error::DeviceFailed(_)));
        assert_eq!(eng.stats().retries, 3);
    }

    #[test]
    fn read_error_surfaces_at_wait() {
        let (plan, eng) = faulty_engine(2, RetryPolicy::none());
        plan.fail_next_reads(1);
        let t = eng.submit_read(0, 8);
        let err = eng.wait(t).unwrap_err();
        assert!(err.to_string().contains("injected read failure"));
        assert_eq!(eng.stats().errors, 1);
    }

    #[test]
    fn a_write_error_waits_for_its_ticket_not_the_flush() {
        let (plan, eng) = faulty_engine(2, RetryPolicy::none());
        plan.fail_next_writes(1);
        let t = eng.submit_write(0, vec![1, 2, 3]);
        // The flush completes the write; its error is the ticket's.
        eng.flush().unwrap();
        assert_eq!(eng.in_flight(), 0);
        let err = eng.wait(t).unwrap_err();
        assert!(err.to_string().contains("injected write failure"));
        eng.flush().unwrap();
    }

    /// A staging buffer holding `vals`.
    fn staged(pool: &zi_memory::ScratchPool, vals: &[f32]) -> ScratchVec {
        let mut buf = pool.acquire(vals.len() * 4);
        buf.as_f32_mut().copy_from_slice(vals);
        buf
    }

    #[test]
    fn staging_buffers_ride_requests_both_ways_and_come_home() {
        let (_, eng) = engine(2);
        let pool = zi_memory::ScratchPool::new();
        let vals = [1.5f32, -2.0, 3.25, 8.0];
        let w = eng.submit_write_from(128, staged(&pool, &vals));
        // The write hands its buffer back; the read fills the same one.
        let buf = eng.wait_buf(w).unwrap().into_staging().expect("staging in, staging out");
        assert_eq!(pool.outstanding(), 1, "the reaped buffer is the caller's again");
        let r = eng.submit_read_into(128, buf);
        let buf = eng.wait_buf(r).unwrap().into_staging().expect("staging in, staging out");
        assert_eq!(buf.as_f32(), vals);
        drop(buf);
        let st = pool.stats();
        assert_eq!((st.allocated, pool.idle(), pool.outstanding()), (1, 1, 0));
        assert_eq!((eng.stats().bytes_written, eng.stats().bytes_read), (16, 16));
    }

    #[test]
    fn failed_and_undeliverable_requests_return_their_buffers() {
        let (plan, mut eng) = faulty_engine(1, RetryPolicy::none());
        let pool = zi_memory::ScratchPool::new();
        let good = eng.submit_write_from(64, staged(&pool, &[2.0; 8]));
        drop(eng.wait_buf(good).unwrap());
        plan.fail_next_writes(1);
        let bad = eng.submit_write_from(0, staged(&pool, &[1.0; 8]));
        assert!(eng.wait_buf(bad).unwrap_err().to_string().contains("injected write failure"));
        assert_eq!(pool.outstanding(), 0, "the failed write's buffer was not leaked");
        // With the worker pool gone a submission resolves as a typed
        // failure at its wait — and still gives the buffer back.
        eng.shutdown();
        let dead = eng.submit_read_into(0, pool.acquire(32));
        assert!(matches!(eng.wait_buf(dead).unwrap_err(), Error::Internal(_)));
        eng.barrier().unwrap();
        assert_eq!(eng.in_flight(), 0);
        assert_eq!((pool.outstanding(), pool.idle() as u64), (0, pool.stats().allocated));
    }

    #[test]
    fn barrier_completes_without_syncing_and_flush_syncs() {
        struct CountSync(MemBackend, AtomicU64);
        impl StorageBackend for CountSync {
            fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
                self.0.read_at(offset, buf)
            }
            fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
                self.0.write_at(offset, data)
            }
            fn sync(&self) -> Result<()> {
                self.1.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            fn len(&self) -> Result<u64> {
                self.0.len()
            }
        }
        let backend = Arc::new(CountSync(MemBackend::new(), AtomicU64::new(0)));
        let eng = NvmeEngine::new(Arc::clone(&backend) as Arc<dyn StorageBackend>, 2);
        let tickets: Vec<Ticket> =
            (0..16u64).map(|i| eng.submit_write(i * 8, vec![i as u8; 8])).collect();
        eng.barrier().unwrap();
        assert_eq!(eng.in_flight(), 0);
        assert_eq!(backend.0.bytes_written(), 128, "barrier returned with writes outstanding");
        assert_eq!(backend.1.load(Ordering::Relaxed), 0, "the barrier is not a durability sync");
        eng.flush().unwrap();
        assert_eq!(backend.1.load(Ordering::Relaxed), 1);
        for t in tickets {
            assert!(eng.is_ready(t) && eng.wait(t).unwrap().is_none());
        }
    }

    #[test]
    fn concurrent_submitters() {
        let (_, eng) = engine(4);
        let eng = Arc::new(eng);
        let mut handles = Vec::new();
        for tnum in 0..4u64 {
            let e = Arc::clone(&eng);
            handles.push(zi_sync::thread::spawn(move || {
                for i in 0..32u64 {
                    let off = (tnum * 32 + i) * 16;
                    let w = e.submit_write(off, vec![(tnum * 32 + i) as u8; 16]);
                    e.wait(w).unwrap();
                    let r = e.submit_read(off, 16);
                    let buf = e.wait(r).unwrap().unwrap();
                    assert_eq!(buf[0], (tnum * 32 + i) as u8);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(eng.stats().writes, 128);
        assert_eq!(eng.stats().reads, 128);
    }

    #[test]
    fn drop_joins_workers_cleanly() {
        let (_, eng) = engine(3);
        let w = eng.submit_write(0, vec![1u8; 4]);
        eng.wait(w).unwrap();
        drop(eng); // must not hang or panic
    }

    #[test]
    fn file_backend_through_engine() {
        let dir = std::env::temp_dir().join(format!("zi_nvme_eng_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let backend =
            Arc::new(crate::backend::FileBackend::create(&dir.join("dev.bin")).unwrap());
        let eng = NvmeEngine::new(backend as Arc<dyn StorageBackend>, 4);
        let payload: Vec<u8> = (0..255u8).collect();
        let w = eng.submit_write(4096, payload.clone());
        eng.wait(w).unwrap();
        eng.flush().unwrap();
        let r = eng.submit_read(4096, payload.len());
        assert_eq!(eng.wait(r).unwrap().unwrap(), payload);
        drop(eng);
        std::fs::remove_dir_all(&dir).ok();
    }
}
