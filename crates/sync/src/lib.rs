#![warn(missing_docs)]

//! `zi-sync`: the workspace's synchronization layer.
//!
//! Every concurrency-bearing crate (`zi-comm`, `zi-nvme`, `zi-memory`,
//! `zero-infinity`) takes its `Mutex`/`Condvar`/`RwLock`, atomics,
//! channels, threads, and monotonic clock from here instead of
//! `std`/`parking_lot`/`crossbeam` directly. The contract:
//!
//! * **Normal builds** — pure re-exports, zero cost. `Mutex` *is*
//!   `parking_lot::Mutex`, `atomic::AtomicU64` *is* the `std` atomic,
//!   `time::Instant` *is* `std::time::Instant`.
//! * **`RUSTFLAGS="--cfg zi_check"` builds** — every operation is also
//!   reported to the `zi-check` deterministic scheduler, which controls
//!   interleaving, tracks happens-before vector clocks, and detects
//!   deadlocks/lost wakeups/data races. Real primitives are still held
//!   underneath (uncontended, because the model serializes execution),
//!   so memory safety never depends on the model being right.
//!
//! Outside an active model run (e.g. ordinary unit tests in a
//! `zi_check` build), the instrumented types transparently fall back to
//! the real primitive behaviour.

// Scheduling-neutral `std` re-exports, identical in both builds. They
// live here so the sync-hygiene wall (`zi-audit`'s rule 1) stays a
// single statement — "no `std::sync` outside `crates/sync`" — instead
// of a carve-out list: `Arc`/`Weak` are reference counts (no blocking,
// no ordering the model checker could explore) and `OnceLock` is
// init-once process-global state (used for dispatch tables and lazy
// CRC tables; first-use races are benign by construction).
pub use std::sync::{Arc, OnceLock, Weak};

#[cfg(not(zi_check))]
mod passthrough {
    pub use parking_lot::{
        Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard,
    };

    /// Atomic types (plain `std` re-exports in passthrough builds).
    pub mod atomic {
        pub use std::sync::atomic::{
            AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering,
        };
    }

    /// MPMC channels (vendored `crossbeam` re-exports in passthrough builds).
    pub mod channel {
        pub use crossbeam::channel::{
            unbounded, Receiver, RecvError, SendError, Sender, TryRecvError,
        };
    }

    /// Thread spawning and sleeping (plain `std` re-exports).
    pub mod thread {
        pub use std::thread::{
            available_parallelism, sleep, spawn, yield_now, Builder, JoinHandle, Result,
        };
    }

    /// Monotonic time (plain `std` re-export).
    pub mod time {
        pub use std::time::Instant;
    }
}
#[cfg(not(zi_check))]
pub use passthrough::*;

#[cfg(zi_check)]
mod checked;
#[cfg(zi_check)]
pub use checked::*;

/// A deliberately *unordered* shared cell for the race detector.
///
/// `RaceCell` is `Sync` and hands out copies of its value with **no
/// happens-before edge between accesses** as far as the model checker is
/// concerned: two threads touching the same `RaceCell` (at least one
/// writing) without other synchronization between them is reported as a
/// data race under `cfg(zi_check)`. Physically the value sits behind an
/// uninstrumented lock, so the type is memory-safe in every build; it
/// models the *discipline* of a plain shared field, not its UB.
///
/// Use it for state whose safety argument is "the surrounding protocol
/// orders these accesses" — the checker then verifies that argument.
pub struct RaceCell<T> {
    #[cfg(zi_check)]
    cell: zi_check::rt::ObjCell,
    value: parking_lot::Mutex<T>,
}

impl<T: Copy> RaceCell<T> {
    /// Create a cell holding `value`.
    pub const fn new(value: T) -> Self {
        RaceCell {
            #[cfg(zi_check)]
            cell: zi_check::rt::ObjCell::new(),
            value: parking_lot::Mutex::new(value),
        }
    }

    /// Read the value (a modeled unsynchronized read).
    pub fn get(&self) -> T {
        #[cfg(zi_check)]
        zi_check::rt::cell_access(&self.cell, false);
        *self.value.lock()
    }

    /// Overwrite the value (a modeled unsynchronized write).
    pub fn set(&self, value: T) {
        #[cfg(zi_check)]
        zi_check::rt::cell_access(&self.cell, true);
        *self.value.lock() = value;
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for RaceCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("RaceCell").field(&*self.value.lock()).finish()
    }
}
