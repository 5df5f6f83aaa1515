//! The model-checking runtime behind `zi-sync` (compiled only under
//! `--cfg zi_check`).
//!
//! Execution model: every `zi-sync` operation is a *yield point*. The
//! calling thread publishes the operation it is about to perform and
//! parks; a scheduler (running on the checker's driver thread) waits
//! until every live thread is parked, computes the set of threads whose
//! pending operation is *enabled*, picks one (an exploration decision),
//! applies the operation's effect on the modeled object state — vector
//! clocks included — and grants that thread the baton. Exactly one model
//! thread runs at any instant, so the real `std::sync` primitives the
//! `zi-sync` wrappers keep underneath never contend; they only preserve
//! memory safety if the model is ever wrong.
//!
//! Time is virtual: it advances only when no thread is enabled, waking
//! the earliest timed wait (`Condvar::wait_for`, `sleep`). A state where
//! nothing is enabled and no timed wait remains is a deadlock (or lost
//! wakeup); the runtime reports the wait-for cycle with the backtrace
//! captured when each thread blocked.

use std::backtrace::Backtrace;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, OnceLock};
use std::time::Duration;

use crate::explore::{self, Chooser};
use crate::{Checker, Failure, FailureKind, Mode, Report};

/// Model-thread identifier (index into the run's thread table).
pub(crate) type ThreadId = usize;
/// Modeled-object identifier (index into the run's object table).
pub type ObjId = usize;

const MAX_THREADS: usize = 128;

// ---------------------------------------------------------------------------
// Globals

struct Rt {
    g: StdMutex<Global>,
    sched: StdCondvar,
}

struct Global {
    gen: u32,
    run: Option<Run>,
}

static RT: OnceLock<Rt> = OnceLock::new();
/// Mirror of the active run generation for the cheap `in_model` check
/// (0 = no active run).
static CURRENT_GEN: AtomicU32 = AtomicU32::new(0);
/// Serializes concurrent `model()` calls from parallel test threads.
static DRIVE_LOCK: OnceLock<StdMutex<()>> = OnceLock::new();

fn rt() -> &'static Rt {
    RT.get_or_init(|| Rt { g: StdMutex::new(Global { gen: 0, run: None }), sched: StdCondvar::new() })
}

thread_local! {
    /// (run generation, model thread id) for model threads.
    static TLS: std::cell::Cell<Option<(u32, ThreadId)>> = const { std::cell::Cell::new(None) };
    /// Panic hook drops the rendered panic (message + location + backtrace)
    /// here for `thread_finish` to pick up.
    static PANIC_SLOT: std::cell::RefCell<Option<String>> =
        const { std::cell::RefCell::new(None) };
}

/// Panic payload used to unwind model threads when a run aborts. Public
/// so `zi-sync` can rethrow it out of blocking operations.
pub struct AbortToken;

/// True when the calling thread is a model thread of the active run.
pub(crate) fn in_model() -> bool {
    let gen = CURRENT_GEN.load(Ordering::Acquire);
    gen != 0 && TLS.with(|t| t.get().map(|(g, _)| g) == Some(gen))
}

fn tls_ids() -> Option<(u32, ThreadId)> {
    let gen = CURRENT_GEN.load(Ordering::Acquire);
    if gen == 0 {
        return None;
    }
    TLS.with(|t| t.get()).filter(|(g, _)| *g == gen)
}

// ---------------------------------------------------------------------------
// Vector clocks

#[derive(Debug, Clone, Default)]
struct VClock(Vec<u64>);

impl VClock {
    fn get(&self, tid: ThreadId) -> u64 {
        self.0.get(tid).copied().unwrap_or(0)
    }

    fn incr(&mut self, tid: ThreadId) {
        if self.0.len() <= tid {
            self.0.resize(tid + 1, 0);
        }
        self.0[tid] += 1;
    }

    fn join(&mut self, other: &VClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a = (*a).max(*b);
        }
    }
}

// ---------------------------------------------------------------------------
// Threads, objects, pending operations

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// OS thread created, not yet parked at its first yield point.
    Spawning,
    /// Holds the baton.
    Running,
    /// Parked at a yield point with a pending op.
    Parked,
    Finished,
}

/// Atomic access class (orderings collapsed to their synchronization
/// strength; `SeqCst` maps to the strongest class).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acc {
    /// Load with acquire (or seq-cst) ordering.
    LoadAcq,
    /// Load with relaxed ordering.
    LoadRlx,
    /// Store with release (or seq-cst) ordering.
    StoreRel,
    /// Store with relaxed ordering.
    StoreRlx,
    /// Read-modify-write with acquire-release (or seq-cst) ordering.
    RmwAcqRel,
    /// Read-modify-write with relaxed ordering.
    RmwRlx,
}

#[derive(Debug, Clone)]
enum Pend {
    /// First yield of a freshly spawned thread.
    Start,
    MutexLock { m: ObjId, from_cv: Option<bool> },
    MutexUnlock { m: ObjId },
    RwLock { l: ObjId, write: bool },
    RwUnlock { l: ObjId, write: bool },
    /// First phase of a condvar wait: always enabled; its *effect*
    /// releases the mutex and registers the waiter, then leaves the
    /// thread parked as `CondWaiting`. Making the wait-entry a scheduled
    /// step (instead of applying it at publish) is what lets the checker
    /// order another thread's notify *between* a waiter's predicate
    /// check and its registration — the lost-wakeup window.
    CondEnter { cv: ObjId, m: ObjId, until: Option<u64> },
    /// Disabled until a notify or timeout transitions it to `MutexLock`.
    CondWaiting { cv: ObjId, m: ObjId, until: Option<u64> },
    Notify { cv: ObjId, all: bool },
    Atomic { a: ObjId, acc: Acc },
    CellAccess { c: ObjId, write: bool },
    Send { c: ObjId },
    Recv { c: ObjId },
    Join { t: ThreadId },
    Sleep { until: u64 },
    Yield,
}

impl Pend {
    /// Objects this op touches, for the independence reduction. `None`
    /// means "conservatively dependent with everything".
    fn objects(&self) -> Option<(ObjId, Option<ObjId>)> {
        match self {
            Pend::MutexLock { m, .. } | Pend::MutexUnlock { m } => Some((*m, None)),
            Pend::RwLock { l, .. } | Pend::RwUnlock { l, .. } => Some((*l, None)),
            Pend::CondEnter { cv, m, .. } | Pend::CondWaiting { cv, m, .. } => {
                Some((*cv, Some(*m)))
            }
            Pend::Notify { cv, .. } => Some((*cv, None)),
            Pend::Atomic { a, .. } => Some((*a, None)),
            Pend::CellAccess { c, .. } => Some((*c, None)),
            Pend::Send { c } | Pend::Recv { c } => Some((*c, None)),
            Pend::Start | Pend::Join { .. } | Pend::Sleep { .. } | Pend::Yield => None,
        }
    }

    /// Ops that are always enabled, touch exactly their listed objects,
    /// and never change another thread's enabledness when the objects
    /// are disjoint — safe to run without a branch point when
    /// independent of every other enabled op.
    fn is_local(&self) -> bool {
        matches!(
            self,
            Pend::MutexUnlock { .. }
                | Pend::RwUnlock { .. }
                | Pend::Atomic { .. }
                | Pend::CellAccess { .. }
        )
    }

    fn describe(&self) -> String {
        match self {
            Pend::Start => "starting".into(),
            Pend::MutexLock { m, from_cv: None } => format!("lock mutex #{m}"),
            Pend::MutexLock { m, from_cv: Some(_) } => {
                format!("re-lock mutex #{m} after condvar wake")
            }
            Pend::MutexUnlock { m } => format!("unlock mutex #{m}"),
            Pend::RwLock { l, write: true } => format!("write-lock rwlock #{l}"),
            Pend::RwLock { l, write: false } => format!("read-lock rwlock #{l}"),
            Pend::RwUnlock { l, .. } => format!("unlock rwlock #{l}"),
            Pend::CondEnter { cv, m, .. } => {
                format!("enter wait on condvar #{cv} (mutex #{m})")
            }
            Pend::CondWaiting { cv, m, until: None } => {
                format!("wait on condvar #{cv} (mutex #{m}, no timeout)")
            }
            Pend::CondWaiting { cv, m, until: Some(u) } => {
                format!("wait on condvar #{cv} (mutex #{m}, timeout at t={u}ns)")
            }
            Pend::Notify { cv, all: true } => format!("notify_all condvar #{cv}"),
            Pend::Notify { cv, all: false } => format!("notify_one condvar #{cv}"),
            Pend::Atomic { a, acc } => format!("atomic {acc:?} on #{a}"),
            Pend::CellAccess { c, write: true } => format!("write shared cell #{c}"),
            Pend::CellAccess { c, write: false } => format!("read shared cell #{c}"),
            Pend::Send { c } => format!("send on channel #{c}"),
            Pend::Recv { c } => format!("receive on channel #{c}"),
            Pend::Join { t } => format!("join thread {t}"),
            Pend::Sleep { until } => format!("sleep until t={until}ns"),
            Pend::Yield => "yield".into(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Resume {
    Go,
    /// Condvar wake: `true` = timed out, `false` = notified.
    CondResumed(bool),
    SendOk { receivers_alive: bool },
    RecvData,
    RecvDisconnected,
    Aborted,
}

#[derive(Debug, Clone)]
struct Access {
    tid: ThreadId,
    clk: u64,
    bt: Option<Arc<Backtrace>>,
}

enum Obj {
    Mutex { owner: Option<ThreadId>, vc: VClock },
    Cond { waiters: Vec<ThreadId> },
    Rw { writer: Option<ThreadId>, readers: usize, vc: VClock },
    Atomic { vc: VClock },
    Chan { len: usize, cap: Option<usize>, senders: usize, receivers: usize, msg_vc: VecDeque<VClock> },
    Cell { write: Option<Access>, reads: Vec<Access> },
}

type Go = Arc<(StdMutex<bool>, StdCondvar)>;

struct Th {
    name: String,
    status: Status,
    pending: Option<Pend>,
    resume: Option<Resume>,
    vc: VClock,
    go: Go,
    blocked_bt: Option<Arc<Backtrace>>,
}

struct RunFailure {
    kind: FailureKind,
    message: String,
}

struct Run {
    gen: u32,
    threads: Vec<Th>,
    objects: Vec<Obj>,
    time_ns: u64,
    steps: u64,
    max_steps: u64,
    abort: bool,
    failure: Option<RunFailure>,
    chooser: Chooser,
    last_granted: Option<ThreadId>,
    preemptions_used: usize,
    preemption_bound: usize,
    capture_backtraces: bool,
}

impl Run {
    fn new_thread(&mut self, name: String, vc: VClock, status: Status) -> ThreadId {
        let tid = self.threads.len();
        assert!(tid < MAX_THREADS, "zi-check: more than {MAX_THREADS} model threads");
        let mut vc = vc;
        vc.incr(tid);
        self.threads.push(Th {
            name,
            status,
            pending: None,
            resume: None,
            vc,
            go: Arc::new((StdMutex::new(false), StdCondvar::new())),
            blocked_bt: None,
        });
        tid
    }

    fn fail(&mut self, kind: FailureKind, message: String) {
        if self.failure.is_none() {
            self.failure = Some(RunFailure { kind, message });
        }
        self.abort = true;
    }
}

// ---------------------------------------------------------------------------
// Lazy per-run object registration

/// One modeled object's registration slot, embedded in each `zi-sync`
/// primitive. Packs `(run generation << 32) | (object id + 1)` so a
/// primitive created in one schedule re-registers cleanly in the next.
pub struct ObjCell(AtomicU64);

impl ObjCell {
    /// A fresh, unregistered slot (const so primitives stay const-new).
    pub const fn new() -> Self {
        ObjCell(AtomicU64::new(0))
    }
}

impl Default for ObjCell {
    fn default() -> Self {
        Self::new()
    }
}

/// Register (or look up) `cell` in the active run. Only call from a
/// model thread while holding the global lock.
fn ensure_obj(run: &mut Run, cell: &ObjCell, mk: impl FnOnce() -> Obj) -> ObjId {
    let packed = cell.0.load(Ordering::Relaxed);
    let (gen, id1) = ((packed >> 32) as u32, (packed & 0xffff_ffff) as usize);
    if gen == run.gen && id1 > 0 {
        return id1 - 1;
    }
    let id = run.objects.len();
    run.objects.push(mk());
    cell.0.store(((run.gen as u64) << 32) | (id as u64 + 1), Ordering::Relaxed);
    id
}

// ---------------------------------------------------------------------------
// The yield-point protocol

/// Capture an unresolved backtrace cheaply; symbol resolution happens
/// lazily only when a report renders it.
fn capture_bt() -> Option<Arc<Backtrace>> {
    Some(Arc::new(Backtrace::force_capture()))
}

/// Publish `p` as the calling thread's pending op, park until granted,
/// and return the scheduler's resume value. Returns `Resume::Aborted`
/// when the run is tearing down.
fn step(p: Pend) -> Resume {
    let (gen, tid) = match tls_ids() {
        Some(ids) => ids,
        None => return Resume::Aborted,
    };
    let r = rt();
    let go;
    {
        let mut g = r.g.lock().unwrap_or_else(|e| e.into_inner());
        let run = match g.run.as_mut() {
            Some(run) if run.gen == gen => run,
            _ => return Resume::Aborted,
        };
        if run.abort {
            return Resume::Aborted;
        }
        // Capture the park-site backtrace on the thread's own stack for
        // ops that may block: anything not immediately enabled, plus
        // wait-entry (which becomes a disabled `CondWaiting` after its
        // effect applies).
        let may_block =
            matches!(p, Pend::CondEnter { .. }) || !op_enabled(run, &p, tid);
        if run.capture_backtraces && may_block {
            run.threads[tid].blocked_bt = capture_bt();
        }
        let th = &mut run.threads[tid];
        th.pending = Some(p);
        th.status = Status::Parked;
        go = th.go.clone();
        r.sched.notify_all();
    }
    // Park outside the global lock.
    {
        let (m, cv) = &*go;
        let mut flag = m.lock().unwrap_or_else(|e| e.into_inner());
        while !*flag {
            flag = cv.wait(flag).unwrap_or_else(|e| e.into_inner());
        }
        *flag = false;
    }
    let mut g = r.g.lock().unwrap_or_else(|e| e.into_inner());
    match g.run.as_mut() {
        Some(run) if run.gen == gen => {
            run.threads[tid].resume.take().unwrap_or(Resume::Aborted)
        }
        _ => Resume::Aborted,
    }
}

/// Non-yielding state mutation (channel endpoint clone/drop): applies
/// directly under the global lock without a scheduling decision.
fn with_run<T>(f: impl FnOnce(&mut Run, ThreadId) -> T) -> Option<T> {
    let (gen, tid) = tls_ids()?;
    let r = rt();
    let mut g = r.g.lock().unwrap_or_else(|e| e.into_inner());
    let run = g.run.as_mut().filter(|run| run.gen == gen)?;
    let out = f(run, tid);
    r.sched.notify_all();
    Some(out)
}

/// Raise the abort unwind out of a blocking `zi-sync` op. Never called
/// while the thread is already panicking (that would escalate to a
/// process abort); abort-during-unwind paths degrade to real primitives
/// instead.
fn raise_abort() -> ! {
    std::panic::panic_any(AbortToken)
}

// ---------------------------------------------------------------------------
// Public op API consumed by zi-sync

/// Model a mutex acquisition; returns the object id to release with
/// [`mutex_unlock`], or `None` when not running under the model.
pub fn mutex_lock(cell: &ObjCell) -> Option<ObjId> {
    if !in_model() {
        return None;
    }
    let m = with_run(|run, _| {
        ensure_obj(run, cell, || Obj::Mutex { owner: None, vc: VClock::default() })
    })?;
    match step(Pend::MutexLock { m, from_cv: None }) {
        Resume::Aborted if !std::thread::panicking() => raise_abort(),
        Resume::Aborted => None, // unwinding: fall back to the real lock
        _ => Some(m),
    }
}

/// Model releasing mutex `m`. Never raises: release must stay safe on
/// abort-unwind paths.
pub fn mutex_unlock(m: ObjId) {
    if !in_model() {
        return;
    }
    let _ = step(Pend::MutexUnlock { m });
}

/// Model `Condvar::wait[_for]`: releases `m`, parks as a waiter, and
/// returns `true` if the wake was a timeout. The modeled mutex is
/// re-acquired before this returns.
pub fn cond_wait(cell: &ObjCell, m: ObjId, timeout: Option<Duration>) -> bool {
    if !in_model() {
        return false;
    }
    let Some((cv, until)) = with_run(|run, _| {
        let cv = ensure_obj(run, cell, || Obj::Cond { waiters: Vec::new() });
        let until = timeout.map(|d| run.time_ns.saturating_add(d.as_nanos() as u64));
        (cv, until)
    }) else {
        return false;
    };
    match step(Pend::CondEnter { cv, m, until }) {
        Resume::Aborted if !std::thread::panicking() => raise_abort(),
        Resume::CondResumed(timed_out) => timed_out,
        _ => false,
    }
}

/// Model a notify; wakes one (exploration-chosen) or all waiters.
pub fn cond_notify(cell: &ObjCell, all: bool) {
    if !in_model() {
        return;
    }
    let Some(cv) = with_run(|run, _| ensure_obj(run, cell, || Obj::Cond { waiters: Vec::new() }))
    else {
        return;
    };
    if matches!(step(Pend::Notify { cv, all }), Resume::Aborted) {
        // Notifies can sit on unwind paths; swallow the abort here and
        // let the next blocking op raise it.
    }
}

/// Model an rwlock acquisition; returns the id for [`rw_unlock`].
pub fn rw_lock(cell: &ObjCell, write: bool) -> Option<ObjId> {
    if !in_model() {
        return None;
    }
    let l = with_run(|run, _| {
        ensure_obj(run, cell, || Obj::Rw { writer: None, readers: 0, vc: VClock::default() })
    })?;
    match step(Pend::RwLock { l, write }) {
        Resume::Aborted if !std::thread::panicking() => raise_abort(),
        Resume::Aborted => None,
        _ => Some(l),
    }
}

/// Model an rwlock release.
pub fn rw_unlock(l: ObjId, write: bool) {
    if !in_model() {
        return;
    }
    let _ = step(Pend::RwUnlock { l, write });
}

/// Model an atomic access (the value itself lives in the real atomic the
/// wrapper keeps; the model tracks ordering-dependent happens-before).
pub fn atomic_access(cell: &ObjCell, acc: Acc) {
    if !in_model() {
        return;
    }
    let Some(a) = with_run(|run, _| ensure_obj(run, cell, || Obj::Atomic { vc: VClock::default() }))
    else {
        return;
    };
    if matches!(step(Pend::Atomic { a, acc }), Resume::Aborted) && !std::thread::panicking() {
        raise_abort();
    }
}

/// Model an access to a plain shared cell (`zi_sync::RaceCell`); the
/// happens-before race detector runs here.
pub fn cell_access(cell: &ObjCell, write: bool) {
    if !in_model() {
        return;
    }
    let Some(c) = with_run(|run, _| {
        ensure_obj(run, cell, || Obj::Cell { write: None, reads: Vec::new() })
    }) else {
        return;
    };
    if matches!(step(Pend::CellAccess { c, write }), Resume::Aborted) && !std::thread::panicking() {
        raise_abort();
    }
}

/// Register a channel's live endpoint counts on first model contact.
fn ensure_chan(run: &mut Run, cell: &ObjCell, senders: usize, receivers: usize, len: usize, cap: Option<usize>) -> ObjId {
    ensure_obj(run, cell, || Obj::Chan {
        len,
        cap,
        senders,
        receivers,
        msg_vc: VecDeque::new(),
    })
}

/// Model a (possibly bounded) send. `Some(receivers_alive)`; when
/// `false` the caller must return its value as a send error without
/// enqueuing.
pub fn chan_send(cell: &ObjCell, senders: usize, receivers: usize, len: usize, cap: Option<usize>) -> Option<bool> {
    if !in_model() {
        return None;
    }
    let c = with_run(|run, _| ensure_chan(run, cell, senders, receivers, len, cap))?;
    match step(Pend::Send { c }) {
        Resume::Aborted if !std::thread::panicking() => raise_abort(),
        Resume::Aborted => Some(false),
        Resume::SendOk { receivers_alive } => Some(receivers_alive),
        _ => Some(true),
    }
}

/// Outcome of a modeled blocking receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvOutcome {
    /// A message is available in the real queue.
    Data,
    /// Queue empty and every sender is gone.
    Disconnected,
}

/// Model a blocking receive.
pub fn chan_recv(cell: &ObjCell, senders: usize, receivers: usize, len: usize, cap: Option<usize>) -> Option<RecvOutcome> {
    if !in_model() {
        return None;
    }
    let c = with_run(|run, _| ensure_chan(run, cell, senders, receivers, len, cap))?;
    match step(Pend::Recv { c }) {
        Resume::Aborted if !std::thread::panicking() => raise_abort(),
        Resume::RecvData => Some(RecvOutcome::Data),
        Resume::RecvDisconnected => Some(RecvOutcome::Disconnected),
        _ => Some(RecvOutcome::Disconnected),
    }
}

/// Endpoint clone/drop bookkeeping (non-yielding; enabledness of parked
/// receivers is re-evaluated at the next scheduling decision).
pub fn chan_update_peers(cell: &ObjCell, d_senders: isize, d_receivers: isize) {
    if !in_model() {
        return;
    }
    let _ = with_run(|run, _| {
        let packed = cell.0.load(Ordering::Relaxed);
        let (gen, id1) = ((packed >> 32) as u32, (packed & 0xffff_ffff) as usize);
        if gen != run.gen || id1 == 0 {
            // Never touched by a model op this run: nothing to update —
            // registration will read the real counts when it happens.
            return;
        }
        if let Obj::Chan { senders, receivers, .. } = &mut run.objects[id1 - 1] {
            *senders = senders.saturating_add_signed(d_senders);
            *receivers = receivers.saturating_add_signed(d_receivers);
        }
    });
}

/// Virtual now, or `None` outside a model run.
pub fn now_ns() -> Option<u64> {
    if !in_model() {
        return None;
    }
    with_run(|run, _| run.time_ns)
}

/// Model a sleep; returns `false` when the caller should really sleep.
pub fn sleep(d: Duration) -> bool {
    if !in_model() {
        return false;
    }
    let Some(until) = with_run(|run, _| run.time_ns.saturating_add(d.as_nanos() as u64)) else {
        return false;
    };
    match step(Pend::Sleep { until }) {
        Resume::Aborted if !std::thread::panicking() => raise_abort(),
        _ => true,
    }
}

/// Model a yield; returns `false` outside a model run.
pub fn yield_now() -> bool {
    if !in_model() {
        return false;
    }
    match step(Pend::Yield) {
        Resume::Aborted if !std::thread::panicking() => raise_abort(),
        _ => true,
    }
}

/// Handle a model-thread spawn: `(parent runs this)` creates the child
/// record and returns the token the child attaches with.
#[derive(Debug, Clone, Copy)]
pub struct SpawnToken {
    gen: u32,
    tid: ThreadId,
}

impl SpawnToken {
    /// The child's model thread id.
    pub fn tid(&self) -> ThreadId {
        self.tid
    }
}

/// Model spawning a child thread (a yield point). `None` outside a run.
pub fn spawn_begin(name: &str) -> Option<SpawnToken> {
    if !in_model() {
        return None;
    }
    let gen = tls_ids()?.0;
    // `Start` reused as the pre-spawn yield so the scheduler can
    // interleave before the child exists.
    if matches!(step(Pend::Start), Resume::Aborted) {
        if std::thread::panicking() {
            return None; // unwinding: caller real-spawns unmodeled
        }
        raise_abort();
    }
    let tid = with_run(|run, me| {
        let vc = run.threads[me].vc.clone();
        run.new_thread(name.to_string(), vc, Status::Spawning)
    })?;
    Some(SpawnToken { gen, tid })
}

/// Attach the freshly spawned OS thread to its model record, then park
/// at the initial yield point.
pub fn spawn_attach(tok: SpawnToken) {
    TLS.with(|t| t.set(Some((tok.gen, tok.tid))));
    if matches!(step(Pend::Start), Resume::Aborted) {
        raise_abort();
    }
}

/// How a model thread's body ended.
pub enum FinishKind {
    /// Ran to completion.
    Ok,
    /// Unwound with [`AbortToken`] during run teardown.
    Abort,
    /// Panicked; the argument is the payload rendered as text (the
    /// panic-hook capture, with location and backtrace, wins over it).
    Panic(String),
}

/// Record a model thread's completion.
pub fn thread_finish(kind: FinishKind) {
    let Some((gen, tid)) = tls_ids() else {
        return;
    };
    let r = rt();
    let mut g = r.g.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(run) = g.run.as_mut().filter(|run| run.gen == gen) {
        run.threads[tid].status = Status::Finished;
        run.threads[tid].pending = None;
        if let FinishKind::Panic(payload) = kind {
            let detail = PANIC_SLOT.with(|s| s.borrow_mut().take()).unwrap_or(payload);
            let name = run.threads[tid].name.clone();
            run.fail(FailureKind::Panic, format!("thread `{name}` panicked:\n{detail}"));
            wake_all_parked(run);
        }
    }
    TLS.with(|t| t.set(None));
    r.sched.notify_all();
}

/// Model joining thread `t`; parks until it finishes.
pub fn join(t: ThreadId) {
    if !in_model() {
        return;
    }
    if matches!(step(Pend::Join { t }), Resume::Aborted) && !std::thread::panicking() {
        raise_abort();
    }
}

// ---------------------------------------------------------------------------
// Enabledness, effects, scheduling

fn op_enabled(run: &Run, p: &Pend, tid: ThreadId) -> bool {
    match p {
        Pend::MutexLock { m, .. } => {
            matches!(&run.objects[*m], Obj::Mutex { owner: None, .. })
        }
        Pend::CondWaiting { .. } => false,
        Pend::RwLock { l, write } => match &run.objects[*l] {
            Obj::Rw { writer, readers, .. } => {
                if *write {
                    writer.is_none() && *readers == 0
                } else {
                    writer.is_none()
                }
            }
            _ => true,
        },
        Pend::Send { c } => match &run.objects[*c] {
            Obj::Chan { len, cap, receivers, .. } => {
                *receivers == 0 || cap.map(|cp| *len < cp).unwrap_or(true)
            }
            _ => true,
        },
        Pend::Recv { c } => match &run.objects[*c] {
            Obj::Chan { len, senders, .. } => *len > 0 || *senders == 0,
            _ => true,
        },
        Pend::Join { t } => run.threads[*t].status == Status::Finished,
        Pend::Sleep { until } => run.time_ns >= *until,
        _ => {
            let _ = tid;
            true
        }
    }
}

/// Wake every parked thread with an abort resume (failure teardown).
fn wake_all_parked(run: &mut Run) {
    run.abort = true;
    for th in &mut run.threads {
        if th.status == Status::Parked {
            th.resume = Some(Resume::Aborted);
            th.status = Status::Running;
            let (m, cv) = &*th.go;
            let mut flag = m.lock().unwrap_or_else(|e| e.into_inner());
            *flag = true;
            cv.notify_all();
        }
    }
}

/// Apply the effect of `tid`'s pending op. `Some(resume)` grants the
/// thread the baton; `None` (wait-entry) leaves it parked as a condvar
/// waiter. Called by the scheduler with the global lock held.
fn apply_effect(run: &mut Run, tid: ThreadId) -> Option<Resume> {
    let p = run.threads[tid].pending.take().expect("granted thread has a pending op");
    run.threads[tid].vc.incr(tid);
    Some(match p {
        Pend::CondEnter { cv, m, until } => {
            let tvc = run.threads[tid].vc.clone();
            if let Obj::Mutex { owner, vc } = &mut run.objects[m] {
                debug_assert_eq!(*owner, Some(tid), "condvar wait without holding the mutex");
                *owner = None;
                *vc = tvc;
            }
            if let Obj::Cond { waiters } = &mut run.objects[cv] {
                waiters.push(tid);
            }
            run.threads[tid].pending = Some(Pend::CondWaiting { cv, m, until });
            return None;
        }
        Pend::Start | Pend::Yield => Resume::Go,
        Pend::MutexLock { m, from_cv } => {
            let ovc = match &mut run.objects[m] {
                Obj::Mutex { owner, vc } => {
                    *owner = Some(tid);
                    vc.clone()
                }
                _ => VClock::default(),
            };
            run.threads[tid].vc.join(&ovc);
            match from_cv {
                Some(timed_out) => Resume::CondResumed(timed_out),
                None => Resume::Go,
            }
        }
        Pend::MutexUnlock { m } => {
            let tvc = run.threads[tid].vc.clone();
            if let Obj::Mutex { owner, vc } = &mut run.objects[m] {
                *owner = None;
                *vc = tvc;
            }
            Resume::Go
        }
        Pend::RwLock { l, write } => {
            let ovc = match &mut run.objects[l] {
                Obj::Rw { writer, readers, vc } => {
                    if write {
                        *writer = Some(tid);
                    } else {
                        *readers += 1;
                    }
                    vc.clone()
                }
                _ => VClock::default(),
            };
            run.threads[tid].vc.join(&ovc);
            Resume::Go
        }
        Pend::RwUnlock { l, write } => {
            let tvc = run.threads[tid].vc.clone();
            if let Obj::Rw { writer, readers, vc } = &mut run.objects[l] {
                if write {
                    *writer = None;
                    *vc = tvc;
                } else {
                    *readers = readers.saturating_sub(1);
                    vc.join(&tvc);
                }
            }
            Resume::Go
        }
        Pend::CondWaiting { .. } => unreachable!("CondWaiting is never granted directly"),
        Pend::Notify { cv, all } => {
            let woken: Vec<ThreadId> = match &mut run.objects[cv] {
                Obj::Cond { waiters } if !waiters.is_empty() => {
                    if all {
                        std::mem::take(waiters)
                    } else {
                        let n = waiters.len();
                        let pick = if n == 1 { 0 } else { run.chooser.choose(n) };
                        vec![waiters.remove(pick)]
                    }
                }
                _ => Vec::new(),
            };
            for w in woken {
                if let Some(Pend::CondWaiting { m, .. }) = run.threads[w].pending.clone() {
                    run.threads[w].pending = Some(Pend::MutexLock { m, from_cv: Some(false) });
                }
            }
            Resume::Go
        }
        Pend::Atomic { a, acc } => {
            if let Obj::Atomic { vc } = &mut run.objects[a] {
                match acc {
                    Acc::LoadAcq => {
                        let ovc = vc.clone();
                        run.threads[tid].vc.join(&ovc);
                    }
                    Acc::StoreRel => vc.join(&run.threads[tid].vc),
                    Acc::RmwAcqRel => {
                        let ovc = vc.clone();
                        run.threads[tid].vc.join(&ovc);
                        vc.join(&run.threads[tid].vc);
                    }
                    Acc::LoadRlx | Acc::StoreRlx | Acc::RmwRlx => {}
                }
            }
            Resume::Go
        }
        Pend::CellAccess { c, write } => {
            let me = Access {
                tid,
                clk: run.threads[tid].vc.get(tid),
                bt: if run.capture_backtraces { capture_bt() } else { None },
            };
            let tvc = run.threads[tid].vc.clone();
            let mut race: Option<(String, Access)> = None;
            if let Obj::Cell { write: w, reads } = &mut run.objects[c] {
                if let Some(prev) = w.as_ref() {
                    if prev.tid != tid && prev.clk > tvc.get(prev.tid) {
                        race = Some(("write".into(), prev.clone()));
                    }
                }
                if write && race.is_none() {
                    for prev in reads.iter() {
                        if prev.tid != tid && prev.clk > tvc.get(prev.tid) {
                            race = Some(("read".into(), prev.clone()));
                            break;
                        }
                    }
                }
                if race.is_none() {
                    if write {
                        *w = Some(me);
                        reads.clear();
                    } else {
                        reads.retain(|a| a.tid != tid);
                        reads.push(me);
                    }
                }
            }
            if let Some((prev_kind, prev)) = race {
                let cur_kind = if write { "write" } else { "read" };
                let cur_name = run.threads[tid].name.clone();
                let prev_name = run.threads[prev.tid].name.clone();
                let mut msg = format!(
                    "unsynchronized {cur_kind} of shared cell #{c} by thread `{cur_name}` \
                     races with a prior {prev_kind} by thread `{prev_name}` \
                     (no happens-before edge)\n"
                );
                if let Some(bt) = &prev.bt {
                    msg.push_str(&format!("--- prior {prev_kind} by `{prev_name}`:\n{bt}\n"));
                }
                msg.push_str(&format!(
                    "--- racing {cur_kind} is thread `{cur_name}`'s current operation\n"
                ));
                run.fail(FailureKind::DataRace, msg);
            }
            Resume::Go
        }
        Pend::Send { c } => {
            let tvc = run.threads[tid].vc.clone();
            match &mut run.objects[c] {
                Obj::Chan { len, receivers, msg_vc, .. } => {
                    if *receivers == 0 {
                        Resume::SendOk { receivers_alive: false }
                    } else {
                        *len += 1;
                        msg_vc.push_back(tvc);
                        Resume::SendOk { receivers_alive: true }
                    }
                }
                _ => Resume::SendOk { receivers_alive: true },
            }
        }
        Pend::Recv { c } => match &mut run.objects[c] {
            Obj::Chan { len, msg_vc, .. } if *len > 0 => {
                *len -= 1;
                if let Some(vc) = msg_vc.pop_front() {
                    run.threads[tid].vc.join(&vc);
                }
                Resume::RecvData
            }
            _ => Resume::RecvDisconnected,
        },
        Pend::Join { t } => {
            let tvc = run.threads[t].vc.clone();
            run.threads[tid].vc.join(&tvc);
            Resume::Go
        }
        Pend::Sleep { .. } => Resume::Go,
    })
}

/// Describe the wait-for graph at a stuck state: every blocked thread,
/// what it waits for, who holds it, any ownership cycle, and the
/// backtrace captured when the thread blocked.
fn deadlock_report(run: &Run) -> String {
    let mut msg = String::from("no thread can make progress and no timed wait remains\n");
    let mut edges: Vec<Option<ThreadId>> = vec![None; run.threads.len()];
    let mut has_cv_waiter = false;
    for (tid, th) in run.threads.iter().enumerate() {
        if th.status == Status::Finished {
            continue;
        }
        let Some(p) = &th.pending else { continue };
        let holder = match p {
            Pend::MutexLock { m, .. } => match &run.objects[*m] {
                Obj::Mutex { owner, .. } => *owner,
                _ => None,
            },
            Pend::RwLock { l, .. } => match &run.objects[*l] {
                Obj::Rw { writer, .. } => *writer,
                _ => None,
            },
            Pend::Join { t } => Some(*t),
            Pend::CondWaiting { .. } => {
                has_cv_waiter = true;
                None
            }
            _ => None,
        };
        edges[tid] = holder;
        msg.push_str(&format!("  thread `{}` (#{tid}): {}", th.name, p.describe()));
        if let Some(h) = holder {
            msg.push_str(&format!(" — held by thread `{}` (#{h})", run.threads[h].name));
        }
        msg.push('\n');
    }
    // Walk ownership edges for a cycle.
    for start in 0..run.threads.len() {
        let mut seen = vec![false; run.threads.len()];
        let mut cur = start;
        let mut path = vec![start];
        while let Some(next) = edges[cur] {
            if next == start {
                let names: Vec<String> = path
                    .iter()
                    .chain(std::iter::once(&start))
                    .map(|&t| format!("`{}`", run.threads[t].name))
                    .collect();
                msg.push_str(&format!("  wait-for cycle: {}\n", names.join(" → ")));
                break;
            }
            if seen[next] {
                break;
            }
            seen[next] = true;
            path.push(next);
            cur = next;
        }
        if msg.contains("wait-for cycle") {
            break;
        }
    }
    if has_cv_waiter && !msg.contains("wait-for cycle") {
        msg.push_str(
            "  (a condvar waiter with no pending notify and no timeout: lost wakeup)\n",
        );
    }
    for (tid, th) in run.threads.iter().enumerate() {
        if th.status != Status::Finished {
            if let Some(bt) = &th.blocked_bt {
                msg.push_str(&format!(
                    "--- backtrace of thread `{}` (#{tid}) at its blocking operation:\n{bt}\n",
                    th.name
                ));
            }
        }
    }
    msg
}

/// One full scheduling pass over an already-initialized run. Returns
/// when every thread finished or a failure latched.
fn scheduler_loop(r: &Rt) {
    loop {
        let mut g = r.g.lock().unwrap_or_else(|e| e.into_inner());
        // Wait until the world is quiescent: every thread parked or done.
        loop {
            let run = g.run.as_mut().expect("active run");
            let quiescent = run
                .threads
                .iter()
                .all(|t| matches!(t.status, Status::Parked | Status::Finished));
            if quiescent || run.failure.is_some() {
                break;
            }
            let (ng, timeout) = r
                .sched
                .wait_timeout(g, Duration::from_secs(30))
                .unwrap_or_else(|e| e.into_inner());
            g = ng;
            if timeout.timed_out() {
                let run = g.run.as_mut().expect("active run");
                run.fail(
                    FailureKind::TooDeep,
                    "zi-check internal: model threads failed to park within 30s (a \
                     model thread is blocked outside zi-sync primitives?)"
                        .into(),
                );
                wake_all_parked(run);
                return;
            }
        }
        let run = g.run.as_mut().expect("active run");
        if run.failure.is_some() {
            wake_all_parked(run);
            return;
        }
        if run.threads.iter().all(|t| t.status == Status::Finished) {
            return;
        }
        // Enabled set, in thread-id order for determinism.
        let mut enabled: Vec<ThreadId> = Vec::new();
        for (tid, th) in run.threads.iter().enumerate() {
            if th.status == Status::Parked {
                if let Some(p) = &th.pending {
                    if op_enabled(run, p, tid) {
                        enabled.push(tid);
                    }
                }
            }
        }
        if enabled.is_empty() {
            // Virtual time: wake the earliest timed wait, else deadlock.
            let mut earliest: Option<u64> = None;
            for th in &run.threads {
                let until = match (&th.status, &th.pending) {
                    (Status::Parked, Some(Pend::CondWaiting { until: Some(u), .. })) => Some(*u),
                    (Status::Parked, Some(Pend::Sleep { until })) => Some(*until),
                    _ => None,
                };
                if let Some(u) = until {
                    earliest = Some(earliest.map_or(u, |e: u64| e.min(u)));
                }
            }
            match earliest {
                Some(t) => {
                    run.time_ns = run.time_ns.max(t);
                    let now = run.time_ns;
                    let expired: Vec<(ThreadId, ObjId, ObjId)> = run
                        .threads
                        .iter()
                        .enumerate()
                        .filter_map(|(tid, th)| match th.pending {
                            Some(Pend::CondWaiting { cv, m, until: Some(u) }) if u <= now => {
                                Some((tid, cv, m))
                            }
                            _ => None,
                        })
                        .collect();
                    for (tid, cv, m) in expired {
                        // Leave the waiter list too, or a later notify
                        // would be swallowed by an already-woken thread.
                        if let Obj::Cond { waiters } = &mut run.objects[cv] {
                            waiters.retain(|&w| w != tid);
                        }
                        run.threads[tid].pending =
                            Some(Pend::MutexLock { m, from_cv: Some(true) });
                    }
                    continue;
                }
                None => {
                    let report = deadlock_report(run);
                    run.fail(FailureKind::Deadlock, report);
                    wake_all_parked(run);
                    return;
                }
            }
        }
        run.steps += 1;
        if run.steps > run.max_steps {
            run.fail(
                FailureKind::TooDeep,
                format!(
                    "schedule exceeded {} decisions (livelock or unbounded retry loop?)",
                    run.max_steps
                ),
            );
            wake_all_parked(run);
            return;
        }
        // Independence reduction: keep running the last-granted thread
        // without a branch point when its next op is purely local and
        // touches no object any other enabled op touches.
        let chosen = pick_thread(run, &enabled);
        let resume = apply_effect(run, chosen);
        if run.failure.is_some() {
            wake_all_parked(run);
            return;
        }
        run.last_granted = Some(chosen);
        let Some(resume) = resume else {
            // Wait-entry applied: the thread stays parked as a waiter.
            continue;
        };
        let th = &mut run.threads[chosen];
        th.resume = Some(resume);
        th.status = Status::Running;
        th.blocked_bt = None;
        let go = th.go.clone();
        drop(g);
        let (m, cv) = &*go;
        let mut flag = m.lock().unwrap_or_else(|e| e.into_inner());
        *flag = true;
        cv.notify_all();
    }
}

fn pick_thread(run: &mut Run, enabled: &[ThreadId]) -> ThreadId {
    if enabled.len() == 1 {
        return enabled[0];
    }
    // DPOR-style local-op reduction.
    if let Some(prev) = run.last_granted {
        if enabled.contains(&prev) {
            let pp = run.threads[prev].pending.as_ref();
            if let Some(p) = pp {
                if p.is_local() {
                    if let Some((o1, o2)) = p.objects() {
                        let conflicts = enabled.iter().any(|&t| {
                            if t == prev {
                                return false;
                            }
                            match run.threads[t].pending.as_ref().and_then(|q| q.objects()) {
                                Some((q1, q2)) => {
                                    q1 == o1
                                        || Some(q1) == o2
                                        || q2 == Some(o1)
                                        || (q2.is_some() && q2 == o2)
                                }
                                None => true,
                            }
                        });
                        if !conflicts {
                            return prev;
                        }
                    }
                }
            }
        }
    }
    // Preemption (context-switch) bound: once spent, stay on the running
    // thread while it remains enabled.
    let options: Vec<ThreadId> = if run.preemptions_used >= run.preemption_bound {
        match run.last_granted {
            Some(prev) if enabled.contains(&prev) => vec![prev],
            _ => enabled.to_vec(),
        }
    } else {
        enabled.to_vec()
    };
    let idx = if options.len() == 1 { 0 } else { run.chooser.choose(options.len()) };
    let chosen = options[idx];
    if let Some(prev) = run.last_granted {
        if chosen != prev && enabled.contains(&prev) {
            run.preemptions_used += 1;
        }
    }
    chosen
}

// ---------------------------------------------------------------------------
// Panic hook

fn install_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<AbortToken>() {
                return; // teardown unwind: silent by design
            }
            if in_model() {
                let bt = Backtrace::force_capture();
                let msg = crate::panic_message(info.payload());
                let loc = info
                    .location()
                    .map(|l| format!("{}:{}:{}", l.file(), l.line(), l.column()))
                    .unwrap_or_else(|| "<unknown>".into());
                PANIC_SLOT.with(|s| {
                    *s.borrow_mut() = Some(format!("{msg}\n  at {loc}\nbacktrace:\n{bt}"));
                });
                return;
            }
            prev(info);
        }));
    });
}

// ---------------------------------------------------------------------------
// The driver

struct RunOutcome {
    record: Vec<explore::Decision>,
    steps: u64,
    failure: Option<RunFailure>,
}

fn run_one(cfg: &Checker, name: &str, body: Arc<dyn Fn() + Send + Sync>, chooser: Chooser) -> RunOutcome {
    let r = rt();
    let gen;
    {
        let mut g = r.g.lock().unwrap_or_else(|e| e.into_inner());
        assert!(g.run.is_none(), "zi-check: nested model runs");
        g.gen = g.gen.wrapping_add(1).max(1);
        gen = g.gen;
        let mut run = Run {
            gen,
            threads: Vec::new(),
            objects: Vec::new(),
            time_ns: 0,
            steps: 0,
            max_steps: cfg.max_steps,
            abort: false,
            failure: None,
            chooser,
            last_granted: None,
            preemptions_used: 0,
            preemption_bound: if cfg.mode == Mode::Dfs { cfg.preemptions } else { usize::MAX },
            capture_backtraces: std::env::var("ZI_CHECK_BACKTRACE").as_deref() != Ok("0"),
        };
        run.new_thread(format!("{name}::main"), VClock::default(), Status::Spawning);
        g.run = Some(run);
        CURRENT_GEN.store(gen, Ordering::Release);
    }
    let root = std::thread::Builder::new()
        .name(format!("zi-check-{name}"))
        .spawn(move || {
            TLS.with(|t| t.set(Some((gen, 0))));
            if matches!(step(Pend::Start), Resume::Aborted) {
                thread_finish(FinishKind::Abort);
                return;
            }
            let res = catch_unwind(AssertUnwindSafe(|| body()));
            match res {
                Ok(()) => thread_finish(FinishKind::Ok),
                Err(p) if p.is::<AbortToken>() => thread_finish(FinishKind::Abort),
                Err(p) => thread_finish(FinishKind::Panic(crate::panic_message(p.as_ref()))),
            }
        })
        .expect("spawn model root thread");
    scheduler_loop(r);
    // Teardown: wake stragglers until every model thread has finished.
    loop {
        let mut g = r.g.lock().unwrap_or_else(|e| e.into_inner());
        let run = g.run.as_mut().expect("active run");
        wake_all_parked(run);
        if run.threads.iter().all(|t| t.status == Status::Finished) {
            break;
        }
        let (ng, to) = r
            .sched
            .wait_timeout(g, Duration::from_secs(30))
            .unwrap_or_else(|e| e.into_inner());
        drop(ng);
        assert!(!to.timed_out(), "zi-check internal: teardown stalled (model thread stuck)");
    }
    let run = {
        let mut g = r.g.lock().unwrap_or_else(|e| e.into_inner());
        CURRENT_GEN.store(0, Ordering::Release);
        g.run.take().expect("active run")
    };
    let _ = root.join();
    RunOutcome { record: run.chooser.record, steps: run.steps, failure: run.failure }
}

fn replay(
    cfg: &Checker,
    name: &str,
    body: Arc<dyn Fn() + Send + Sync>,
    chooser: Chooser,
    seed: Option<u64>,
) -> Report {
    install_hook();
    let lock = DRIVE_LOCK.get_or_init(|| StdMutex::new(()));
    let _serial = lock.lock().unwrap_or_else(|e| e.into_inner());
    let out = run_one(cfg, name, body, chooser);
    Report {
        schedules: 1,
        distinct: 1,
        steps: out.steps,
        exhausted: false,
        failure: out.failure.map(|f| Failure {
            kind: f.kind,
            message: f.message,
            seed,
            trace: explore::encode_trace(&out.record),
        }),
    }
}

/// Programmatic `ZI_CHECK_TRACE` replay (see [`Checker::replay_trace`]).
pub(crate) fn replay_trace(
    cfg: &Checker,
    name: &str,
    trace: &str,
    body: Arc<dyn Fn() + Send + Sync>,
) -> Report {
    replay(cfg, name, body, Chooser::scripted(explore::decode_trace(trace)), None)
}

/// Programmatic `ZI_CHECK_SEED` replay (see [`Checker::replay_seed`]).
pub(crate) fn replay_seed(
    cfg: &Checker,
    name: &str,
    seed: u64,
    body: Arc<dyn Fn() + Send + Sync>,
) -> Report {
    replay(cfg, name, body, Chooser::random(seed), Some(seed))
}

/// Explore `body` under `cfg`, producing the public [`Report`]. Entry
/// point used by [`Checker::check`] in `zi_check` builds.
pub(crate) fn drive(cfg: &Checker, name: &str, body: Arc<dyn Fn() + Send + Sync>) -> Report {
    install_hook();
    let lock = DRIVE_LOCK.get_or_init(|| StdMutex::new(()));
    let _serial = lock.lock().unwrap_or_else(|e| e.into_inner());

    let mut distinct = std::collections::HashSet::new();
    let mut report =
        Report { schedules: 0, distinct: 0, steps: 0, exhausted: false, failure: None };

    let finish_failure = |out: &RunOutcome, seed: Option<u64>| {
        out.failure.as_ref().map(|f| Failure {
            kind: f.kind.clone(),
            message: f.message.clone(),
            seed,
            trace: explore::encode_trace(&out.record),
        })
    };

    // Replay short-circuits.
    if let Ok(trace) = std::env::var("ZI_CHECK_TRACE") {
        let out = run_one(cfg, name, body, Chooser::scripted(explore::decode_trace(&trace)));
        report.schedules = 1;
        report.distinct = 1;
        report.steps = out.steps;
        report.failure = finish_failure(&out, None);
        return report;
    }
    if let Ok(seed) = std::env::var("ZI_CHECK_SEED") {
        if let Ok(seed) = seed.parse::<u64>() {
            let out = run_one(cfg, name, body.clone(), Chooser::random(seed));
            report.schedules = 1;
            report.distinct = 1;
            report.steps = out.steps;
            report.failure = finish_failure(&out, Some(seed));
            return report;
        }
    }

    match cfg.mode {
        Mode::Random => {
            for i in 0..cfg.schedules {
                let seed = explore::iter_seed(cfg.seed, i as u64);
                let out = run_one(cfg, name, body.clone(), Chooser::random(seed));
                report.schedules += 1;
                report.steps += out.steps;
                let fp = explore::fingerprint_record(&out.record);
                if distinct.insert(fp) {
                    report.distinct += 1;
                }
                if out.failure.is_some() {
                    report.failure = finish_failure(&out, Some(seed));
                    break;
                }
            }
        }
        Mode::Dfs => {
            let mut script: Vec<u32> = Vec::new();
            loop {
                let out = run_one(cfg, name, body.clone(), Chooser::scripted(script.clone()));
                report.schedules += 1;
                report.steps += out.steps;
                report.distinct += 1; // DFS schedules are distinct by construction
                if out.failure.is_some() {
                    report.failure = finish_failure(&out, None);
                    break;
                }
                match explore::dfs_next(&out.record) {
                    Some(next) => script = next,
                    None => {
                        report.exhausted = true;
                        break;
                    }
                }
                if report.schedules >= cfg.schedules {
                    break;
                }
            }
        }
    }
    report
}
