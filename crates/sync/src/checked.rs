//! Instrumented primitives for `cfg(zi_check)` builds. Each type keeps a
//! real primitive inside (uncontended while the model serializes
//! execution) plus a [`zi_check::rt::ObjCell`] registering it with the
//! active model run. Outside a run every operation degrades to the real
//! primitive, so ordinary tests still work in `zi_check` builds.
//!
//! Ordering discipline everywhere: perform the *model* side first for
//! acquisitions (the scheduler decides who may proceed, then the real
//! lock is taken while provably free) and the *real* side first for
//! releases (drop the real guard, then tell the model — so a thread the
//! model wakes next never blocks on a real lock still held by a parked
//! thread).

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::time::Duration;

use zi_check::rt;

// ---------------------------------------------------------------------------
// Mutex / Condvar

/// Mutual exclusion (instrumented; see module docs for the contract).
pub struct Mutex<T: ?Sized> {
    cell: rt::ObjCell,
    inner: parking_lot::Mutex<T>,
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    model: Option<rt::ObjId>,
    inner: Option<parking_lot::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Create a mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Mutex { cell: rt::ObjCell::new(), inner: parking_lot::Mutex::new(value) }
    }

    /// Consume the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the mutex, blocking (in model time) until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let model = rt::mutex_lock(&self.cell);
        MutexGuard { lock: self, model, inner: Some(self.inner.lock()) }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.inner = None; // real unlock first (see module docs)
        if let Some(id) = self.model.take() {
            rt::mutex_unlock(id);
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

/// Condition variable compatible with [`Mutex`] (instrumented).
pub struct Condvar {
    cell: rt::ObjCell,
    inner: parking_lot::Condvar,
}

impl Condvar {
    /// Create a new condition variable.
    pub const fn new() -> Self {
        Condvar { cell: rt::ObjCell::new(), inner: parking_lot::Condvar::new() }
    }

    /// Block until notified, releasing `guard` while waiting.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        match guard.model {
            Some(m) => {
                guard.inner = None; // release the real lock for the wait
                let _ = rt::cond_wait(&self.cell, m, None);
                guard.inner = Some(guard.lock.inner.lock());
            }
            None => {
                let mut inner = guard.inner.take().expect("guard present");
                self.inner.wait(&mut inner);
                guard.inner = Some(inner);
            }
        }
    }

    /// Block until notified or `timeout` elapses (virtual time under the
    /// model). Returns `true` if it timed out.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> bool {
        match guard.model {
            Some(m) => {
                guard.inner = None;
                let timed_out = rt::cond_wait(&self.cell, m, Some(timeout));
                guard.inner = Some(guard.lock.inner.lock());
                timed_out
            }
            None => {
                let mut inner = guard.inner.take().expect("guard present");
                let timed_out = self.inner.wait_for(&mut inner, timeout);
                guard.inner = Some(inner);
                timed_out
            }
        }
    }

    /// Wake one waiter (which one is an exploration decision under the
    /// model).
    pub fn notify_one(&self) {
        rt::cond_notify(&self.cell, false);
        self.inner.notify_one();
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        rt::cond_notify(&self.cell, true);
        self.inner.notify_all();
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}

// ---------------------------------------------------------------------------
// RwLock

/// Reader-writer lock (instrumented).
pub struct RwLock<T: ?Sized> {
    cell: rt::ObjCell,
    inner: parking_lot::RwLock<T>,
}

/// Shared-read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    model: Option<rt::ObjId>,
    inner: Option<parking_lot::RwLockReadGuard<'a, T>>,
}

/// Exclusive-write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    model: Option<rt::ObjId>,
    inner: Option<parking_lot::RwLockWriteGuard<'a, T>>,
}

impl<T> RwLock<T> {
    /// Create an rwlock protecting `value`.
    pub const fn new(value: T) -> Self {
        RwLock { cell: rt::ObjCell::new(), inner: parking_lot::RwLock::new(value) }
    }

    /// Consume the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire shared read access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let model = rt::rw_lock(&self.cell, false);
        RwLockReadGuard { model, inner: Some(self.inner.read()) }
    }

    /// Acquire exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let model = rt::rw_lock(&self.cell, true);
        RwLockWriteGuard { model, inner: Some(self.inner.write()) }
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        self.inner = None;
        if let Some(id) = self.model.take() {
            rt::rw_unlock(id, false);
        }
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.inner = None;
        if let Some(id) = self.model.take() {
            rt::rw_unlock(id, true);
        }
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("RwLock { .. }")
    }
}

// ---------------------------------------------------------------------------
// Atomics

/// Atomic types whose release/acquire edges feed the happens-before
/// model (values live in real `std` atomics).
pub mod atomic {
    pub use std::sync::atomic::Ordering;
    use std::sync::atomic::{self as std_atomic};

    use zi_check::rt::{self, Acc};

    fn load_acc(o: Ordering) -> Acc {
        match o {
            Ordering::Relaxed => Acc::LoadRlx,
            _ => Acc::LoadAcq,
        }
    }

    fn store_acc(o: Ordering) -> Acc {
        match o {
            Ordering::Relaxed => Acc::StoreRlx,
            _ => Acc::StoreRel,
        }
    }

    fn rmw_acc(o: Ordering) -> Acc {
        match o {
            Ordering::Relaxed => Acc::RmwRlx,
            _ => Acc::RmwAcqRel,
        }
    }

    macro_rules! atomic_common {
        ($name:ident, $std:ident, $ty:ty) => {
            /// Instrumented counterpart of the `std` atomic of the same
            /// name; see the `zi-sync` crate docs for the contract.
            pub struct $name {
                cell: rt::ObjCell,
                inner: std_atomic::$std,
            }

            impl $name {
                /// Create a new atomic with the given initial value.
                pub const fn new(v: $ty) -> Self {
                    $name { cell: rt::ObjCell::new(), inner: std_atomic::$std::new(v) }
                }

                /// Atomic load.
                pub fn load(&self, o: Ordering) -> $ty {
                    rt::atomic_access(&self.cell, load_acc(o));
                    self.inner.load(o)
                }

                /// Atomic store.
                pub fn store(&self, v: $ty, o: Ordering) {
                    rt::atomic_access(&self.cell, store_acc(o));
                    self.inner.store(v, o)
                }

                /// Atomic swap.
                pub fn swap(&self, v: $ty, o: Ordering) -> $ty {
                    rt::atomic_access(&self.cell, rmw_acc(o));
                    self.inner.swap(v, o)
                }

                /// Mutable access without atomics (exclusive borrow).
                pub fn get_mut(&mut self) -> &mut $ty {
                    self.inner.get_mut()
                }

                /// Consume, returning the value.
                pub fn into_inner(self) -> $ty {
                    self.inner.into_inner()
                }
            }

            impl std::fmt::Debug for $name {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                    self.inner.fmt(f)
                }
            }

            impl Default for $name {
                fn default() -> Self {
                    Self::new(<$ty>::default())
                }
            }
        };
    }

    macro_rules! atomic_int_ops {
        ($name:ident, $ty:ty) => {
            impl $name {
                /// Atomic add; returns the previous value.
                pub fn fetch_add(&self, v: $ty, o: Ordering) -> $ty {
                    rt::atomic_access(&self.cell, rmw_acc(o));
                    self.inner.fetch_add(v, o)
                }

                /// Atomic subtract; returns the previous value.
                pub fn fetch_sub(&self, v: $ty, o: Ordering) -> $ty {
                    rt::atomic_access(&self.cell, rmw_acc(o));
                    self.inner.fetch_sub(v, o)
                }

                /// Atomic max; returns the previous value.
                pub fn fetch_max(&self, v: $ty, o: Ordering) -> $ty {
                    rt::atomic_access(&self.cell, rmw_acc(o));
                    self.inner.fetch_max(v, o)
                }
            }
        };
    }

    atomic_common!(AtomicBool, AtomicBool, bool);
    atomic_common!(AtomicU8, AtomicU8, u8);
    atomic_common!(AtomicU32, AtomicU32, u32);
    atomic_common!(AtomicU64, AtomicU64, u64);
    atomic_common!(AtomicUsize, AtomicUsize, usize);
    atomic_int_ops!(AtomicU32, u32);
    atomic_int_ops!(AtomicU64, u64);
    atomic_int_ops!(AtomicUsize, usize);
}

// ---------------------------------------------------------------------------
// Channels

/// MPMC channels whose send/receive/disconnect transitions are scheduled
/// and happens-before-tracked by the model.
pub mod channel {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    pub use crossbeam::channel::{RecvError, SendError, TryRecvError};

    use zi_check::rt::{self, RecvOutcome};

    struct Meta {
        cell: rt::ObjCell,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    impl Meta {
        fn counts(&self) -> (usize, usize) {
            (self.senders.load(Ordering::Relaxed), self.receivers.load(Ordering::Relaxed))
        }
    }

    /// Sending half of a channel. Cloneable.
    pub struct Sender<T> {
        inner: crossbeam::channel::Sender<T>,
        meta: Arc<Meta>,
    }

    /// Receiving half of a channel. Cloneable (MPMC).
    pub struct Receiver<T> {
        inner: crossbeam::channel::Receiver<T>,
        meta: Arc<Meta>,
    }

    /// Channel with unlimited buffering. (The model enforces no bound;
    /// logically bounded flows in the workspace use condvar windows.)
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = crossbeam::channel::unbounded();
        let meta = Arc::new(Meta {
            cell: rt::ObjCell::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (Sender { inner: tx, meta: Arc::clone(&meta) }, Receiver { inner: rx, meta })
    }

    /// Channel with a capacity hint. Under the model the capacity is
    /// *not* enforced: a real `crossbeam::bounded` send would block the
    /// serialized scheduler thread for actual wall time when full, so
    /// checked builds back `bounded` with an unbounded queue and let the
    /// model explore send/recv interleavings only. Back-pressure paths
    /// that must be explored should use condvar windows instead.
    pub fn bounded<T>(_cap: usize) -> (Sender<T>, Receiver<T>) {
        unbounded()
    }

    impl<T> Sender<T> {
        /// Send `value`; errs when every receiver has disconnected.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let (s, r) = self.meta.counts();
            match rt::chan_send(&self.meta.cell, s, r, 0, None) {
                None | Some(true) => self.inner.send(value),
                Some(false) => Err(SendError(value)),
            }
        }
    }

    impl<T> Receiver<T> {
        /// Receive the next value, blocking (in model time) until one
        /// arrives or every sender disconnects.
        pub fn recv(&self) -> Result<T, RecvError> {
            let (s, r) = self.meta.counts();
            match rt::chan_recv(&self.meta.cell, s, r, 0, None) {
                None => self.inner.recv(),
                Some(RecvOutcome::Data) => {
                    // The model granted Data, so the real queue is
                    // non-empty (sends are applied eagerly).
                    self.inner.try_recv().map_err(|_| RecvError)
                }
                Some(RecvOutcome::Disconnected) => Err(RecvError),
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.meta.senders.fetch_add(1, Ordering::Relaxed);
            rt::chan_update_peers(&self.meta.cell, 1, 0);
            Sender { inner: self.inner.clone(), meta: Arc::clone(&self.meta) }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.meta.receivers.fetch_add(1, Ordering::Relaxed);
            rt::chan_update_peers(&self.meta.cell, 0, 1);
            Receiver { inner: self.inner.clone(), meta: Arc::clone(&self.meta) }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            self.meta.senders.fetch_sub(1, Ordering::Relaxed);
            rt::chan_update_peers(&self.meta.cell, -1, 0);
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.meta.receivers.fetch_sub(1, Ordering::Relaxed);
            rt::chan_update_peers(&self.meta.cell, 0, -1);
        }
    }
}

// ---------------------------------------------------------------------------
// Threads

/// Thread spawning that registers children with the model scheduler.
pub mod thread {
    use std::io;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::time::Duration;

    use zi_check::rt;

    /// Rendering of a thread's outcome (same shape as `std`).
    pub type Result<T> = std::thread::Result<T>;

    /// Configurable thread factory mirroring `std::thread::Builder`.
    #[derive(Debug, Default)]
    pub struct Builder {
        name: Option<String>,
    }

    impl Builder {
        /// New builder with defaults.
        pub fn new() -> Self {
            Builder { name: None }
        }

        /// Name the thread (also used in model-checker reports).
        pub fn name(mut self, name: String) -> Self {
            self.name = Some(name);
            self
        }

        /// Spawn the thread, registering it with the active model run.
        pub fn spawn<F, T>(self, f: F) -> io::Result<JoinHandle<T>>
        where
            F: FnOnce() -> T + Send + 'static,
            T: Send + 'static,
        {
            let name = self.name.unwrap_or_else(|| "zi-thread".to_string());
            let b = std::thread::Builder::new().name(name.clone());
            match rt::spawn_begin(&name) {
                None => b.spawn(f).map(|h| JoinHandle { inner: h, model: None }),
                Some(tok) => {
                    let model = tok.tid();
                    let h = b.spawn(move || {
                        rt::spawn_attach(tok);
                        let out = catch_unwind(AssertUnwindSafe(f));
                        match &out {
                            Ok(_) => rt::thread_finish(rt::FinishKind::Ok),
                            Err(p) if p.is::<rt::AbortToken>() => {
                                rt::thread_finish(rt::FinishKind::Abort)
                            }
                            Err(p) => rt::thread_finish(rt::FinishKind::Panic(
                                super::panic_text(p.as_ref()),
                            )),
                        }
                        match out {
                            Ok(v) => v,
                            Err(p) => resume_unwind(p),
                        }
                    })?;
                    Ok(JoinHandle { inner: h, model: Some(model) })
                }
            }
        }
    }

    /// Join handle mirroring `std::thread::JoinHandle`.
    pub struct JoinHandle<T> {
        inner: std::thread::JoinHandle<T>,
        model: Option<usize>,
    }

    impl<T> JoinHandle<T> {
        /// Wait (in model time) for the thread to finish.
        pub fn join(self) -> Result<T> {
            if let Some(tid) = self.model {
                rt::join(tid);
            }
            self.inner.join()
        }
    }

    /// Spawn an unnamed thread.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        Builder::new().spawn(f).expect("spawn thread")
    }

    /// Sleep in virtual time under the model, real time otherwise.
    pub fn sleep(d: Duration) {
        if !rt::sleep(d) {
            std::thread::sleep(d);
        }
    }

    /// Yield the scheduler slot.
    pub fn yield_now() {
        if !rt::yield_now() {
            std::thread::yield_now();
        }
    }

    /// Hardware parallelism (passthrough: a model run serializes
    /// execution regardless, so the real value is harmless).
    pub use std::thread::available_parallelism;
}

/// Monotonic time that reads the model's virtual clock inside a run.
pub mod time {
    use std::time::Duration;

    use zi_check::rt;

    /// Monotonic instant: virtual nanoseconds inside a model run, a real
    /// `std::time::Instant` outside one. The two kinds never mix within
    /// one context (a model run starts its own clock at zero).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub enum Instant {
        /// Virtual-clock reading (model runs).
        Virtual(u64),
        /// Real-clock reading (everything else).
        Real(std::time::Instant),
    }

    impl Instant {
        /// The current instant.
        pub fn now() -> Self {
            match rt::now_ns() {
                Some(ns) => Instant::Virtual(ns),
                None => Instant::Real(std::time::Instant::now()),
            }
        }

        /// Time elapsed since this instant.
        pub fn elapsed(&self) -> Duration {
            Instant::now().saturating_duration_since(*self)
        }

        /// Saturating difference between two instants.
        pub(crate) fn saturating_duration_since(&self, earlier: Instant) -> Duration {
            match (self, earlier) {
                (Instant::Virtual(a), Instant::Virtual(b)) => {
                    Duration::from_nanos(a.saturating_sub(b))
                }
                (Instant::Real(a), Instant::Real(b)) => a.saturating_duration_since(b),
                // Mixed comparisons only happen when an instant crosses a
                // model-run boundary; treat as "no time elapsed".
                _ => Duration::ZERO,
            }
        }
    }

    impl std::ops::Add<Duration> for Instant {
        type Output = Instant;
        fn add(self, d: Duration) -> Instant {
            match self {
                Instant::Virtual(ns) => {
                    Instant::Virtual(ns.saturating_add(d.as_nanos() as u64))
                }
                Instant::Real(i) => Instant::Real(i + d),
            }
        }
    }

    impl std::ops::Sub<Instant> for Instant {
        type Output = Duration;
        fn sub(self, other: Instant) -> Duration {
            self.saturating_duration_since(other)
        }
    }
}

pub(crate) fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}
