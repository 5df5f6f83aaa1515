#![warn(missing_docs)]

//! DeepNVMe: asynchronous bulk-I/O engine for NVMe offload.
//!
//! Reproduces the C++ NVMe library of the infinity offload engine
//! (Sec. 6.3): bulk read/write requests with asynchronous completion,
//! explicit flush barriers, aggressive parallelization of I/O across a
//! worker pool, and buffer reuse via the pinned-memory layer in
//! `zi-memory`.
//!
//! Two storage backends are provided:
//! * [`FileBackend`] — a real file accessed with positioned reads/writes
//!   from many threads; this is the closest laptop equivalent of an NVMe
//!   SSD and is what the benches measure.
//! * [`MemBackend`] — an in-memory device with byte counters, for
//!   deterministic tests.
//!
//! Resilience layers (see DESIGN.md, "Failure model & recovery"):
//! * [`FaultyBackend`] + [`FaultPlan`] — deterministic fault injection
//!   (transient errors, latency spikes, torn writes, bit flips, device
//!   death) for chaos testing any backend.
//! * [`RetryPolicy`] — bounded, jittered, deadline-capped retry of
//!   transient failures, wired into every [`NvmeEngine`] request.
//! * [`checksum::crc32`] — shard integrity checksums used by the offload
//!   layer to detect silent corruption end to end.

pub mod backend;
pub mod checksum;
pub mod engine;
pub mod fault;
pub mod retry;
pub mod store;

pub use backend::{FileBackend, MemBackend, StorageBackend, ThrottledBackend};
pub use engine::{IoBuf, IoStats, NvmeEngine, Ticket};
pub use fault::{FaultPlan, FaultProfile, FaultyBackend, InjectedStats};
pub use retry::{RetryPolicy, RetryReport};
pub use store::{CheckpointStore, StoreStats};
