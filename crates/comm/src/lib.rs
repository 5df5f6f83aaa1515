#![warn(missing_docs)]

//! Collective communication substrate.
//!
//! Stands in for NCCL: one OS thread per data-parallel rank, exchanging
//! data through shared memory with the collective semantics ZeRO-3 needs —
//! `broadcast`, `allgather`, `reduce_scatter`, `allreduce` and `barrier`
//! (Sec. 2 and Sec. 6.1 of the paper).
//!
//! As in MPI/NCCL, every rank must call the same collectives in the same
//! order. Traffic counters record the logical bytes each rank moves so
//! benches can contrast the broadcast-based fetch of ZeRO-Offload with the
//! bandwidth-centric allgather fetch of ZeRO-Infinity (Fig. 6c).

pub mod fault;
pub mod group;
pub mod membership;
pub mod partition;
pub mod traffic;

pub use fault::{CommFaultPlan, CommInjectedStats, CommVerdict};
pub use group::{CommConfig, CommGroup, Communicator};
pub use membership::Membership;
pub use partition::{partition_range, Partitioner};
pub use traffic::TrafficStats;
