#![warn(missing_docs)]

//! ZeRO-Infinity: heterogeneous-memory data-parallel training engine.
//!
//! This crate is the paper's primary contribution, built on the substrates
//! in the sibling crates:
//!
//! * [`config`] — device-placement strategies (Table 2): classic data
//!   parallelism, ZeRO-1/2/3, ZeRO-Offload, ZeRO-Infinity with CPU or NVMe
//!   offload.
//! * [`offload`] — the infinity offload engine: one residency handle
//!   ([`PlacedBuf`]) under every model state — fp16 parameters,
//!   gradients, optimizer state, activation checkpoints — over
//!   capacity-limited pools, with asynchronous, checksum-verified NVMe
//!   movement through `zi-nvme` and staging buffers from `zi-memory`.
//! * [`engine`] — the per-rank [`engine::ZeroEngine`], a
//!   [`zi_model::ParamStore`] that gathers bandwidth-centrically
//!   partitioned parameters on demand (allgather, Sec. 6.1), re-partitions
//!   on release, reduce-scatters and offloads gradients as backward
//!   progresses, and runs the chunked, offloaded mixed-precision Adam step
//!   (Sec. 5.2.2).
//! * [`prefetch`] — the dynamic prefetcher (Sec. 6.2) overlapping
//!   NVMe→CPU shard reads with compute.
//! * [`tiling`] — memory-centric tiling (Sec. 5.1.3): linear operators
//!   split into sequentially executed tiles so working memory stays
//!   bounded even for huge hidden sizes.
//! * [`trainer`] — multi-rank orchestration: spawns one thread per rank
//!   and trains a `zi-model` GPT end to end, with checkpoints and
//!   recovery. Ranks form an `mp × dp` grid: Megatron-style tensor
//!   slicing composed with ZeRO (the `mp` column of Table 1), one
//!   tensor-parallel group per data-parallel rank.
//!
//! # Example
//!
//! Train a tiny GPT with every model state partitioned across 2 ranks and
//! offloaded to an in-memory NVMe device:
//!
//! ```
//! use zero_infinity::{train_gpt, Strategy, TrainSpec};
//! use zi_model::GptConfig;
//!
//! let spec = TrainSpec {
//!     steps: 2,
//!     ..TrainSpec::test_default(GptConfig::tiny(), Strategy::infinity_nvme(), 2)
//! };
//! let out = train_gpt(&spec).unwrap();
//! assert_eq!(out.losses.len(), 2);
//! assert!(out.stats.allgathers > 0); // parameters really were partitioned
//! ```

pub mod activations;
pub mod checkpoint;
pub mod config;
pub mod engine;
pub mod offload;
pub mod prefetch;
pub mod tiling;
pub mod trainer;

pub use config::{Placement, Strategy};
pub use engine::{EngineStats, TrafficPlan, ZeroEngine};
pub use offload::{
    NodeEnv, NodeResources, OffloadHealth, OffloadManager, PlacedBuf, PublishStream, WriteBehind,
};
pub use tiling::TiledLinear;
pub use checkpoint::reshard_checkpoint_blobs;
pub use trainer::{
    decode_checkpoint_payload, encode_checkpoint_payload, train_gpt, train_gpt_env, ElasticEvent,
    TrainEnv, TrainOutcome, TrainSpec,
};
